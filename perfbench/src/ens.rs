//! `ensemble-1k`: reads and writes side by side. Each session loads
//! 1,000 small run databases, builds the union supergraph and its
//! cross-run statistics, writes a `.cpens`, reopens it, paints the
//! sorted statistics view and navigates it, re-sorts, scores outliers
//! and runs one query.

use crate::common::{
    expandable_row, read_needles, run_for, shallow_needles, show_only, unique, write_needles, Ctx,
};
use crate::gen::{proc_name, sub_seed, Kind, Rng, Tree, TreeSpec};
use crate::reference::{self, QuerySpec};
use crate::report::{setup_call, Report};
use callpath::core::prelude::{Cct, ColumnId, MetricId, NodeId, ScopeKind};
use callpath::expdb::model::{DbMetric, DbNode, DbScope};
use callpath::viewer::Command;
use callpath_ensemble::{build_from_union, build_union, outlier_scores, RunData};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const RUNS: usize = 1000;
pub const BASE: TreeSpec = TreeSpec {
    nodes: 2000,
    max_depth: 24,
    attach_depth: 12,
    chain_mean: 6,
    top_level: 16,
    procs: 200,
    files: 25,
    recursion: 0.05,
};
/// Run-specific frames appended to the shared base, as one chain.
pub const TAIL: usize = 40;
pub const METRICS: usize = 2;
pub const NNZ: usize = 100;
/// Designated outlier runs: metric 0 inflated eightfold.
pub const OUTLIERS: usize = 8;
const EXPANDS: usize = 10;
/// Queries per session.
const QUERIES: u64 = 3;
/// Call-site lines of tail frames start here, clear of the base's
/// per-sibling lines.
const TAIL_LINE: u32 = 10_000;

/// One member run: where its tail hangs and its sparse costs.
pub struct Member {
    pub tail_parent: u32,
    pub tail_procs: Vec<u32>,
    pub costs: Vec<Vec<(u32, f64)>>,
}

pub struct Prep {
    pub base: Tree,
    pub members: Vec<Member>,
    pub designated: Vec<String>,
}

fn label(r: usize) -> String {
    format!("run-{r:04}")
}

fn member(base: &Tree, seed: u64, r: usize, outlier: bool) -> Member {
    let mut rng = Rng::new(sub_seed(seed, 0x5000 + r as u64));
    let tail_parent = loop {
        let n = 1 + rng.below(base.len() as u64 - 1) as u32;
        if base.kind[n as usize] != Kind::Stmt {
            break n;
        }
    };
    let tail_procs = (0..TAIL)
        .map(|_| rng.below(base.procs.len() as u64) as u32)
        .collect();
    let n = (base.len() - 1 + TAIL) as u64;
    let stride = n / NNZ as u64;
    let costs = (0..METRICS)
        .map(|m| {
            (0..NNZ as u64)
                .map(|k| {
                    let node = 1 + k * stride + rng.below(stride);
                    let v = (1 + rng.below(1000)) as f64;
                    (node as u32, if m == 0 && outlier { 8.0 * v } else { v })
                })
                .collect()
        })
        .collect();
    Member {
        tail_parent,
        tail_procs,
        costs,
    }
}

fn member_nodes(base: &Tree, m: &Member) -> Vec<DbNode> {
    let files = base.files.len() as u32;
    let mut nodes = base.nodes.clone();
    let mut parent = m.tail_parent;
    for (j, &p) in m.tail_procs.iter().enumerate() {
        nodes.push(DbNode {
            parent,
            scope: DbScope::Frame {
                proc: p,
                module: p % 4,
                def_file: p % files,
                def_line: 1 + p % 100,
                call_site: Some((p % files, TAIL_LINE + j as u32)),
            },
        });
        parent = nodes.len() as u32;
    }
    nodes
}

pub fn setup(dir: &Path, seed: u64) -> Result<Prep, String> {
    let base = Tree::generate(&BASE, sub_seed(seed, 21));
    let mut pick = Rng::new(sub_seed(seed, 22));
    let mut outliers: Vec<usize> = Vec::new();
    while outliers.len() < OUTLIERS {
        let r = pick.below(RUNS as u64) as usize;
        if !outliers.contains(&r) {
            outliers.push(r);
        }
    }
    let runs_dir = dir.join("runs");
    std::fs::create_dir_all(&runs_dir).map_err(|e| e.to_string())?;
    let mut members = Vec::with_capacity(RUNS);
    for r in 0..RUNS {
        let m = member(&base, seed, r, outliers.contains(&r));
        let mut model = base.model(Vec::new());
        model.nodes = member_nodes(&base, &m);
        model.metrics = m
            .costs
            .iter()
            .enumerate()
            .map(|(k, c)| DbMetric {
                name: format!("PAPI_ENS_{k:02}"),
                unit: "events".into(),
                period: 1.0,
                costs: c.clone(),
            })
            .collect();
        let bytes = setup_call(|| callpath::expdb::bin2::write_v21(&model));
        crate::report::write_input(&runs_dir.join(format!("{}.cpdb", label(r))), &bytes)?;
        members.push(m);
    }
    write_needles(dir, &shallow_needles(&base, 2..=2, 16))?;
    Ok(Prep {
        base,
        members,
        designated: outliers.into_iter().map(label).collect(),
    })
}

pub fn worker(dir: &Path, seed: u64, index: u64, millis: u64, trace: bool) -> Report {
    let needles = read_needles(dir);
    let files: Vec<(String, PathBuf)> = (0..RUNS)
        .map(|r| {
            (
                label(r),
                dir.join("runs").join(format!("{}.cpdb", label(r))),
            )
        })
        .collect();
    let out = dir.join("ensemble.cpens");
    let mut ctx = Ctx::new(trace);
    let mut rng = Rng::new(sub_seed(seed, 400 + index));
    let measured = run_for(millis, |i| {
        session(&mut ctx, &mut rng, &files, &out, &needles, i)
    });
    ctx.finish(measured)
}

fn load(files: &[(String, PathBuf)]) -> Result<Vec<RunData>, String> {
    files
        .iter()
        .map(|(label, path)| {
            let exp = callpath::expdb::open_lazy_path(path).map_err(|e| e.to_string())?;
            Ok(RunData::from_experiment(label.clone(), &exp))
        })
        .collect()
}

fn session(
    ctx: &mut Ctx,
    rng: &mut Rng,
    files: &[(String, PathBuf)],
    out: &Path,
    needles: &[u32],
    i: u32,
) {
    ctx.begin_session(i);
    let t0 = Instant::now();
    let loaded = ctx.tr.span("expdb.run_load_ms", || load(files));
    let Some(runs) = ctx.rep.request(loaded) else {
        return;
    };
    let union = ctx.tr.span("ensemble.union_ms", || build_union(&runs, 0));
    let built = ctx
        .tr
        .span("ensemble.stats_ms", || build_from_union(&runs, union, 0));
    let written = ctx.tr.span("expdb.cpens_write_ms", || {
        std::fs::write(out, built.to_bytes()).map_err(|e| e.to_string())
    });
    if ctx.rep.request(written).is_none() {
        return;
    }
    drop(runs);
    ctx.sample_since("build_ms", t0);

    let t1 = Instant::now();
    let opened = ctx.tr.span("expdb.cpens_open_ms", || {
        callpath::expdb::ens::open(out).map_err(|e| e.to_string())
    });
    let Some(e) = ctx.rep.request(opened) else {
        return;
    };
    let exp = &e.exp;
    let mut s = callpath::viewer::Session::new(exp, Default::default());
    // Stat metric k = 4 * base metric + statistic; its inclusive column
    // is 2k. Shown: mean and stddev of metric 0.
    let (mean0, sd0, mean1) = (0, 2 * 3, 2 * 4);
    if let Err(err) = show_only(&mut s, exp, &[mean0, sd0]) {
        ctx.rep.request::<()>(Err(err));
        return;
    }
    let Some((_, mut rows)) = ctx.request_painting(&mut s, vec![Command::SortBy(ColumnId(mean0))])
    else {
        return;
    };
    ctx.sample_since("first_paint_ms", t1);
    if ctx.traced() {
        ctx.rep.layer(
            "ensemble.columns_faulted",
            exp.columns.materialized_columns() as f64,
        );
    }

    for k in 0..=EXPANDS {
        let cmd = if k == 0 {
            Command::HotPath
        } else {
            let start = rng.below(rows.len().max(1) as u64) as usize;
            let Some(n) = expandable_row(exp, &rows, start, &[]) else {
                break;
            };
            if k % 4 == 3 {
                Command::Select(n)
            } else {
                Command::Expand(n)
            }
        };
        let t = Instant::now();
        let Some((_, r)) = ctx.request(&mut s, vec![cmd]) else {
            return;
        };
        ctx.sample_since("nav_op_ms", t);
        rows = r;
    }
    let needle = needles[rng.below(needles.len() as u64) as usize];
    let t = Instant::now();
    if ctx
        .request(&mut s, vec![Command::Find(proc_name(needle))])
        .is_none()
    {
        return;
    }
    ctx.sample_since("nav_op_ms", t);

    let t = Instant::now();
    let resort = vec![
        Command::HideColumn(ColumnId(mean0)),
        Command::ShowColumn(ColumnId(mean1)),
        Command::SortBy(ColumnId(mean1)),
    ];
    if ctx.request_painting(&mut s, resort).is_none() {
        return;
    }
    ctx.sample_since("resort_ms", t);

    let scores = ctx
        .tr
        .span("ensemble.outliers_ms", || outlier_scores(&e.dir));
    ctx.rep.attempted += 1;
    let mut top = vec!["outliers".to_owned()];
    top.extend(
        scores
            .iter()
            .take(OUTLIERS)
            .map(|&(r, _)| e.dir.runs[r].label.clone()),
    );
    ctx.rep.obs.push(top);

    let first = rng.below(10);
    for k in 0..QUERIES {
        let t = Instant::now();
        let prefix = format!("proc_000{}", (first + k) % 10);
        let q = QuerySpec {
            prefix: Some(prefix.clone()),
            metric: None,
        };
        let text = q.text();
        let r = ctx.tr.span("analyze.query", || {
            callpath::analyze::run_query(exp, &text, None, 10, 0)
        });
        let Some(report) = ctx.rep.request(r) else {
            return;
        };
        ctx.sample_since("query_ms", t);
        ctx.rep
            .observe(&["query", &prefix, &report.matched.to_string()]);
    }
    ctx.end_session();
}

/// Resolved scope key, comparable across name tables.
fn db_key(names: &Tree, scope: &DbScope) -> String {
    let f = |i: u32| names.files[i as usize].as_str();
    match scope {
        DbScope::Frame {
            proc, call_site, ..
        } => format!(
            "F {} {:?}",
            names.procs[*proc as usize],
            call_site.map(|(file, line)| (f(file), line))
        ),
        DbScope::Inlined {
            proc,
            cs_file,
            cs_line,
            ..
        } => format!(
            "I {} {} {cs_line}",
            names.procs[*proc as usize],
            f(*cs_file)
        ),
        DbScope::Loop { file, line } => format!("L {} {line}", f(*file)),
        DbScope::Stmt { file, line } => format!("S {} {line}", f(*file)),
    }
}

fn cct_key(cct: &Cct, n: NodeId) -> String {
    let names = &cct.names;
    match cct.kind(n) {
        ScopeKind::Frame {
            proc, call_site, ..
        } => format!(
            "F {} {:?}",
            names.proc_name(proc),
            call_site.map(|l| (names.file_name(l.file), l.line))
        ),
        ScopeKind::InlinedFrame {
            proc, call_site, ..
        } => format!(
            "I {} {} {}",
            names.proc_name(proc),
            names.file_name(call_site.file),
            call_site.line
        ),
        ScopeKind::Loop { header } => format!("L {} {}", names.file_name(header.file), header.line),
        ScopeKind::Stmt { loc } => format!("S {} {}", names.file_name(loc.file), loc.line),
        ScopeKind::Root => "R".into(),
    }
}

/// The benchmark's own union of the member trees: node keys under
/// their parent, deduplicated. Returns each union node's procedure
/// name, if a frame.
fn own_union(prep: &Prep) -> Vec<Option<String>> {
    let base = &prep.base;
    let mut procs: Vec<Option<String>> = (0..base.len())
        .map(|n| match base.proc_of[n] {
            crate::gen::NONE => None,
            p => Some(base.procs[p as usize].clone()),
        })
        .collect();
    let mut index: HashMap<(u32, String), u32> = HashMap::new();
    let files = base.files.len() as u32;
    for m in &prep.members {
        let mut parent = m.tail_parent;
        for (j, &p) in m.tail_procs.iter().enumerate() {
            let key = format!("{p} {} {}", p % files, TAIL_LINE + j as u32);
            let id = *index.entry((parent, key)).or_insert_with(|| {
                procs.push(Some(base.procs[p as usize].clone()));
                procs.len() as u32 - 1
            });
            parent = id;
        }
    }
    procs
}

/// Outliers and query counts from every session; cross-run statistics
/// at sampled contexts of the last `.cpens` written.
pub fn check(prep: &Prep, rep: &Report, dir: &Path) -> Result<usize, String> {
    let obs = unique(&rep.obs);
    let union = own_union(prep);
    for o in &obs {
        match o[0].as_str() {
            "outliers" => reference::check_outliers(&prep.designated, &o[1..])?,
            "query" => {
                let want = union
                    .iter()
                    .filter(|p| p.as_deref().is_some_and(|p| p.starts_with(o[1].as_str())))
                    .count();
                let got: usize = o[2].parse().map_err(|_| format!("bad observation {o:?}"))?;
                reference::check_count(&format!("proc ~ \"^{}\" on the union", o[1]), want, got)?
            }
            other => return Err(format!("unknown observation '{other}'")),
        }
    }

    let e = callpath::expdb::ens::open(&dir.join("ensemble.cpens")).map_err(|e| e.to_string())?;
    let cct = &e.exp.cct;
    if cct.len() != union.len() {
        return Err(format!(
            "union has {} scopes, the members' own union {}",
            cct.len(),
            union.len()
        ));
    }
    // Union node of each sampled base scope, found by walking the key
    // path from the root.
    let base = &prep.base;
    let mut checked = 0;
    for b in (1..base.len() as u32).step_by(7) {
        let mut path: Vec<u32> = base.ancestors(b).collect();
        path.reverse();
        path.push(b);
        let mut u = cct.root();
        for &n in &path {
            let key = db_key(base, &base.nodes[n as usize - 1].scope);
            u = cct
                .children(u)
                .find(|&c| cct_key(cct, c) == key)
                .ok_or_else(|| format!("base scope {n} has no union node"))?;
        }
        for m in 0..METRICS {
            let values: Vec<f64> = prep
                .members
                .iter()
                .map(|mem| {
                    mem.costs[m]
                        .iter()
                        .find(|c| c.0 == b)
                        .map(|c| c.1)
                        .unwrap_or(0.0)
                })
                .collect();
            let observed: [f64; 4] =
                std::array::from_fn(|s| e.exp.raw.column(MetricId((4 * m + s) as u32)).get(u.0));
            reference::check_stats(&format!("context {b} metric {m}"), &values, observed)?;
            checked += 1;
        }
    }
    Ok(obs.len() + checked)
}
