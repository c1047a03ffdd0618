//! Session plumbing shared by the in-process workloads.

use crate::report::Report;
use crate::trace::Tracer;
use callpath::core::attribution::attribute;
use callpath::core::prelude::{ColumnId, Experiment, HotPathConfig, MetricId, View};
use callpath::viewer::{Command, Session};
use std::path::Path;
use std::time::Instant;

/// One measuring process: its tracer, its report, and whether the
/// current session is traced.
pub struct Ctx {
    pub tr: Tracer,
    pub rep: Report,
    trace_mode: bool,
    traced: bool,
    session_start: Instant,
    /// Index of the current session within this process.
    tr_session: u32,
}

impl Ctx {
    /// In trace mode every other session is traced, so the same process
    /// also measures the untraced figures the overhead is taken against.
    pub fn new(trace_mode: bool) -> Self {
        Ctx {
            tr: Tracer::new(false),
            rep: Report::default(),
            trace_mode,
            traced: false,
            session_start: Instant::now(),
            tr_session: 0,
        }
    }

    pub fn begin_session(&mut self, index: u32) {
        self.traced = self.trace_mode && index % 2 == 1;
        self.tr.set_enabled(self.traced);
        self.tr.set_session(index);
        self.tr_session = index;
        self.session_start = Instant::now();
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Record an end-to-end sample timed from `start`, less any probe
    /// time inside it. In trace mode the process's first session is not
    /// sampled: it is the only cold one, and it would fall on the
    /// untraced side of the overhead comparison every time.
    pub fn sample_since(&mut self, name: &str, start: Instant) {
        if self.trace_mode && self.tr_session == 0 {
            return;
        }
        let ns = start.elapsed().as_nanos() as u64 - self.tr.probe_ns_since(start);
        self.rep.sample(self.traced, name, ns as f64 / 1e6);
    }

    pub fn end_session(&mut self) {
        let start = self.session_start;
        self.sample_since("session_ms", start);
    }

    /// Apply commands and render, as one user request, on a view that
    /// is already built and columns already faulted.
    pub fn request(
        &mut self,
        s: &mut Session<'_>,
        cmds: Vec<Command>,
    ) -> Option<(String, Vec<u32>)> {
        self.request_spanned(s, cmds, "viewer.render_ms")
    }

    /// A request whose render builds a view or faults columns (first
    /// paint, re-sort, view switch): its render span is kept apart from
    /// `viewer.render_ms`.
    pub fn request_painting(
        &mut self,
        s: &mut Session<'_>,
        cmds: Vec<Command>,
    ) -> Option<(String, Vec<u32>)> {
        self.request_spanned(s, cmds, "viewer.paint")
    }

    fn request_spanned(
        &mut self,
        s: &mut Session<'_>,
        cmds: Vec<Command>,
        render_span: &'static str,
    ) -> Option<(String, Vec<u32>)> {
        let tr = &mut self.tr;
        let r = (|| {
            for c in cmds {
                let o = tr.open("viewer.apply");
                let r = s.apply(c);
                tr.close(o);
                r?;
            }
            let o = tr.open(render_span);
            let r = s.render_numbered();
            tr.close(o);
            Ok(r)
        })();
        self.rep.request(r)
    }

    /// Per-layer self times of the traced sessions, in ms.
    pub fn finish(mut self, measured_s: f64) -> Report {
        for (name, vs) in crate::trace::self_ms_by_name(self.tr.spans()) {
            let scale = if name.ends_with("_us") { 1e3 } else { 1.0 };
            for v in vs {
                self.rep.layer(name, v * scale);
            }
        }
        self.rep.measured_s = measured_s;
        self.rep.peak_rss_mb.push(crate::report::peak_rss_mb(None));
        self.rep
    }
}

/// Hide every column but `keep` (metric-properties dialog).
pub fn show_only(s: &mut Session<'_>, exp: &Experiment, keep: &[u32]) -> Result<(), String> {
    for c in 0..exp.columns.column_count() as u32 {
        if !keep.contains(&c) {
            s.apply(Command::HideColumn(ColumnId(c)))?;
        }
    }
    Ok(())
}

/// A visible row with children that is not `avoid`, scanning from the
/// `k`-th row onward (wrapping).
pub fn expandable_row(exp: &Experiment, rows: &[u32], k: usize, avoid: &[u32]) -> Option<u32> {
    (0..rows.len())
        .map(|i| rows[(k + i) % rows.len()])
        .find(|&n| {
            !avoid.contains(&n) && exp.cct.child_count(callpath::core::prelude::NodeId(n)) > 0
        })
}

/// Procedures whose shallowest instance lies at a depth in `depths`:
/// with shallow depths `find` reaches them after a short breadth-first
/// walk, so its cost does not hinge on which needle a session drew.
pub fn shallow_needles(
    tree: &crate::gen::Tree,
    depths: std::ops::RangeInclusive<u8>,
    count: usize,
) -> Vec<u32> {
    let mut min_depth = vec![u8::MAX; tree.procs.len()];
    for n in 1..tree.len() {
        let p = tree.proc_of[n];
        if p != crate::gen::NONE {
            min_depth[p as usize] = min_depth[p as usize].min(tree.depth[n]);
        }
    }
    (0..tree.procs.len() as u32)
        .filter(|&p| depths.contains(&min_depth[p as usize]))
        .take(count)
        .collect()
}

/// Hand the set-up's needles to the measuring processes: one line of
/// procedure ids in `needles.txt` in the run's work directory.
pub fn write_needles(dir: &Path, needles: &[u32]) -> Result<(), String> {
    let ids: Vec<String> = needles.iter().map(u32::to_string).collect();
    std::fs::write(dir.join("needles.txt"), ids.join(" ") + "\n").map_err(|e| e.to_string())
}

pub fn read_needles(dir: &Path) -> Vec<u32> {
    std::fs::read_to_string(dir.join("needles.txt"))
        .unwrap_or_default()
        .split_whitespace()
        .filter_map(|v| v.parse().ok())
        .collect()
}

/// Distinct observations, in first-seen order.
pub fn unique(obs: &[Vec<String>]) -> Vec<Vec<String>> {
    let mut seen = std::collections::HashSet::new();
    obs.iter().filter(|o| seen.insert(*o)).cloned().collect()
}

/// Probes of the core layer for metric `m`: one attribution, and the
/// Eq. 3 hot path from the top-level maximum of its inclusive column.
pub fn probe_core(ctx: &mut Ctx, exp: &Experiment, m: u32) {
    let storage = exp.storage();
    ctx.tr.probe("core.attribute_ms", || {
        attribute(&exp.cct, &exp.raw, MetricId(m), storage)
    });
    ctx.tr.probe("core.hot_path_ms", || {
        let col = ColumnId(2 * m);
        let mut v = View::calling_context(exp);
        let start = v
            .roots()
            .into_iter()
            .fold(None, |best: Option<u32>, n| match best {
                Some(b) if v.value(col, n) <= v.value(col, b) => Some(b),
                _ => Some(n),
            });
        start.map(|st| v.hot_path(st, col, HotPathConfig::default()))
    });
}

/// Size of the database file, as the `expdb.db_mb` layer value.
pub fn record_db_size(ctx: &mut Ctx, path: &Path) {
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    ctx.rep.layer("expdb.db_mb", bytes as f64 / 1e6);
}

pub fn open(ctx: &mut Ctx, path: &Path) -> Result<Experiment, String> {
    let o = ctx.tr.open("expdb.open_ms");
    let r = callpath::expdb::open_lazy_path(path).map_err(|e| e.to_string());
    ctx.tr.close(o);
    r
}

/// Run sessions until `millis` have passed; a session in progress is
/// always completed, so every process attempts whole sessions.
pub fn run_for(millis: u64, mut session: impl FnMut(u32)) -> f64 {
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_millis() < millis as u128 {
        session(i);
        i += 1;
    }
    start.elapsed().as_secs_f64()
}
