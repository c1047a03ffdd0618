//! `views-100k`: the paper's three-view workflow (Sections III–V) on a
//! 10⁵-scope, 16-metric (32-column) database with two columns visible.
//! Each session paints the Calling Context View, switches to the
//! Callers View, then to the Flat View with one flatten, comes back to
//! find a procedure and navigate, re-sorts, and runs three queries.

use crate::common::{
    expandable_row, open, probe_core, read_needles, record_db_size, run_for, shallow_needles,
    show_only, unique, write_needles, Ctx,
};
use crate::gen::{metrics, proc_name, sub_seed, Rng, Tree, TreeSpec};
use crate::reference::{self, QuerySpec};
use crate::report::{setup_call, Report};
use callpath::core::prelude::{ColumnId, View, ViewKind, ViewNodeId};
use callpath::expdb::model::DbMetric;
use callpath::viewer::Command;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

pub const SPEC: TreeSpec = TreeSpec {
    nodes: 100_000,
    max_depth: 48,
    attach_depth: 24,
    chain_mean: 10,
    top_level: 32,
    procs: 1000,
    files: 125,
    recursion: 0.05,
};
pub const METRICS: usize = 16;
pub const NNZ: usize = 5000;
/// Expand requests per session after the view round trip.
const EXPANDS: usize = 12;
const QUERY_PCT: f64 = 0.5;
/// Queries per session.
const QUERIES: u32 = 3;

pub struct Prep {
    pub tree: Tree,
    pub metrics: Vec<DbMetric>,
}

/// The views database: shared with `serve-2c`.
pub fn write_db(path: &Path, seed: u64) -> Result<Prep, String> {
    let tree = Tree::generate(&SPEC, sub_seed(seed, 11));
    let metrics = metrics(&tree, sub_seed(seed, 12), METRICS, NNZ, "PAPI_VIEW");
    let model = tree.model(metrics.clone());
    let bytes = setup_call(|| callpath::expdb::bin2::write_v21(&model));
    crate::report::write_input(path, &bytes)?;
    Ok(Prep { tree, metrics })
}

pub fn setup(dir: &Path, seed: u64) -> Result<Prep, String> {
    let prep = write_db(&dir.join("views.cpdb"), seed)?;
    write_needles(dir, &shallow_needles(&prep.tree, 2..=2, 32))?;
    Ok(prep)
}

/// The query of a session: a procedure-name prefix and an inclusive
/// threshold on metric `m`.
pub fn query(prefix: u32, m: u32) -> QuerySpec {
    QuerySpec {
        prefix: Some(format!("proc_00{}", prefix % 10)),
        metric: Some((format!("PAPI_VIEW_{m:04}"), m as usize, QUERY_PCT)),
    }
}

pub fn worker(dir: &Path, seed: u64, index: u64, millis: u64, trace: bool) -> Report {
    let needles = read_needles(dir);
    let path = dir.join("views.cpdb");
    let mut ctx = Ctx::new(trace);
    if trace {
        record_db_size(&mut ctx, &path);
    }
    let mut rng = Rng::new(sub_seed(seed, 200 + index));
    let measured = run_for(millis, |i| session(&mut ctx, &mut rng, &path, &needles, i));
    ctx.finish(measured)
}

fn session(ctx: &mut Ctx, rng: &mut Rng, path: &Path, needles: &[u32], i: u32) {
    let pick = |rng: &mut Rng| rng.below(METRICS as u64) as u32;
    let a = pick(rng);
    let mut b = pick(rng);
    while b == a {
        b = pick(rng);
    }
    let mut c = pick(rng);
    while c == a || c == b {
        c = pick(rng);
    }
    let needle = needles[rng.below(needles.len() as u64) as usize];
    let first_prefix = rng.below(10) as u32;

    ctx.begin_session(i);
    let t0 = Instant::now();
    let opened = open(ctx, path);
    let Some(exp) = ctx.rep.request(opened) else {
        return;
    };
    let mut s = callpath::viewer::Session::new(&exp, Default::default());
    if let Err(e) = show_only(&mut s, &exp, &[2 * a, 2 * b]) {
        ctx.rep.request::<()>(Err(e));
        return;
    }
    if ctx
        .request_painting(&mut s, vec![Command::SortBy(ColumnId(2 * a))])
        .is_none()
    {
        return;
    }
    ctx.sample_since("first_paint_ms", t0);
    ctx.rep.observe(&[
        "root",
        &a.to_string(),
        &exp.columns.get(ColumnId(2 * a), 0).to_string(),
    ]);
    probe_core(ctx, &exp, a);
    let t = Instant::now();
    if ctx.request(&mut s, vec![Command::HotPath]).is_none() {
        return;
    }
    ctx.sample_since("nav_op_ms", t);
    ctx.rep.observe(&[
        "hot",
        &a.to_string(),
        &s.selected().unwrap_or(0).to_string(),
    ]);

    // Callers View, then Flat View flattened once; each switch is timed
    // to its first render, and each view gets a hot path.
    for (kind, cmds) in [
        (
            ViewKind::Callers,
            vec![Command::SwitchView(ViewKind::Callers)],
        ),
        (
            ViewKind::Flat,
            vec![Command::SwitchView(ViewKind::Flat), Command::Flatten],
        ),
    ] {
        let t = Instant::now();
        if ctx.request_painting(&mut s, cmds).is_none() {
            return;
        }
        ctx.sample_since("view_switch_ms", t);
        match kind {
            ViewKind::Callers => ctx
                .tr
                .probe("core.callers_build_ms", || View::callers(&exp)),
            _ => ctx.tr.probe("core.flat_build_ms", || {
                let mut v = View::flat(&exp);
                if let View::Flat { exp, view } = &mut v {
                    let roots: Vec<ViewNodeId> = view.tree.roots();
                    view.flatten(exp, &roots, 1);
                }
                v
            }),
        };
        let t = Instant::now();
        if ctx.request(&mut s, vec![Command::HotPath]).is_none() {
            return;
        }
        ctx.sample_since("nav_op_ms", t);
    }

    let t = Instant::now();
    let find = vec![
        Command::SwitchView(ViewKind::CallingContext),
        Command::Find(proc_name(needle)),
    ];
    let Some((_, mut rows)) = ctx.request(&mut s, find) else {
        return;
    };
    ctx.sample_since("nav_op_ms", t);
    ctx.rep.observe(&[
        "find",
        &needle.to_string(),
        &s.selected().unwrap_or(0).to_string(),
    ]);
    for k in 0..EXPANDS {
        let start = rng.below(rows.len().max(1) as u64) as usize;
        let Some(n) = expandable_row(&exp, &rows, start, &[]) else {
            break;
        };
        let cmd = if k % 3 == 2 {
            Command::Select(n)
        } else {
            Command::Expand(n)
        };
        let t = Instant::now();
        let Some((_, r)) = ctx.request(&mut s, vec![cmd]) else {
            return;
        };
        ctx.sample_since("nav_op_ms", t);
        rows = r;
    }

    let t = Instant::now();
    let resort = vec![
        Command::HideColumn(ColumnId(2 * a)),
        Command::ShowColumn(ColumnId(2 * c)),
        Command::SortBy(ColumnId(2 * c)),
    ];
    if ctx.request_painting(&mut s, resort).is_none() {
        return;
    }
    ctx.sample_since("resort_ms", t);

    // The re-sorted metric under three procedure prefixes.
    for k in 0..QUERIES {
        let q = query(first_prefix + k, c);
        let t = Instant::now();
        let text = q.text();
        let r = ctx.tr.span("analyze.query", || {
            callpath::analyze::run_query(&exp, &text, None, 10, 0)
        });
        let Some(report) = ctx.rep.request(r) else {
            return;
        };
        ctx.sample_since("query_ms", t);
        ctx.tr.probe("analyze.parse_us", || {
            callpath::analyze::Query::parse(&text)
        });
        if let Ok(parsed) = callpath::analyze::Query::parse(&text) {
            ctx.tr.probe("analyze.eval_ms", || {
                callpath::analyze::eval_mask(&exp, &parsed.pred, 0)
            });
        }
        ctx.rep.observe(&[
            "query",
            q.prefix.as_deref().unwrap_or(""),
            &c.to_string(),
            &report.matched.to_string(),
        ]);
    }
    if ctx.traced() {
        let faulted = exp.columns.materialized_columns() as f64;
        ctx.rep.layer("expdb.columns_faulted", faulted);
        // Three columns are ever shown: two at first paint, one more
        // at the re-sort.
        ctx.rep.layer("expdb.fault_ratio", faulted / 3.0);
    }
    ctx.end_session();
}

/// Check the sessions' observations, then the Callers and Flat View
/// top-level values of sampled procedures on a fresh open of the file.
pub fn check(prep: &Prep, rep: &Report, dir: &Path) -> Result<usize, String> {
    let obs = unique(&rep.obs);
    let incl: Vec<HashMap<u32, f64>> = prep
        .metrics
        .iter()
        .map(|m| reference::inclusive(&prep.tree, &m.costs))
        .collect();
    let incl_of = |m: u32| &incl[m as usize];
    for o in &obs {
        let num = |i: usize| {
            o[i].parse::<f64>()
                .map_err(|_| format!("bad observation {o:?}"))
        };
        match o[0].as_str() {
            "root" => reference::check_root(&prep.metrics[num(1)? as usize].costs, num(2)?)?,
            "hot" => {
                reference::check_hot_path(&prep.tree, incl_of(num(1)? as u32), num(2)? as u32, 0.5)?
            }
            "find" => reference::check_find(&prep.tree, num(1)? as u32, num(2)? as u32)?,
            "query" => {
                let m = num(2)? as u32;
                let q = QuerySpec {
                    prefix: Some(o[1].clone()),
                    metric: Some((String::new(), m as usize, QUERY_PCT)),
                };
                let want = q.count(&prep.tree, Some(incl_of(m)));
                reference::check_count(&q.text(), want, num(3)? as usize)?
            }
            other => return Err(format!("unknown observation '{other}'")),
        }
    }
    check_views(prep, &dir.join("views.cpdb"), 0)?;
    Ok(obs.len() + 1)
}

/// Callers View top-level entries and Flat View procedure scopes of
/// sampled procedures equal the exposed-instance sums (Section IV-B);
/// each view must show every sampled procedure.
pub fn check_views(prep: &Prep, path: &Path, m: u32) -> Result<(), String> {
    let exp = callpath::expdb::open_lazy_path(path).map_err(|e| e.to_string())?;
    let incl = reference::inclusive(&prep.tree, &prep.metrics[m as usize].costs);
    let col = ColumnId(2 * m);
    let want: Vec<(String, f64)> = (0..prep.tree.procs.len() as u32)
        .step_by(37)
        .map(|p| (proc_name(p), reference::exposed_sum(&prep.tree, &incl, p)))
        .collect();

    let callers = View::callers(&exp);
    let entries: Vec<(String, f64)> = callers
        .roots()
        .into_iter()
        .map(|r| (callers.label(r), callers.value(col, r)))
        .collect();
    reference::check_view_entries("Callers", &entries, &want)?;

    let mut flat = View::flat(&exp);
    let mut entries = Vec::new();
    for module in flat.roots() {
        for file in flat.children(module) {
            for procedure in flat.children(file) {
                entries.push((flat.label(procedure), flat.value(col, procedure)));
            }
        }
    }
    reference::check_view_entries("Flat", &entries, &want)
}
