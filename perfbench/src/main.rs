//! `perfbench`: end-to-end and per-layer benchmark of the callpath user
//! paths. See README.md for the workloads, metrics and how to run it.
//!
//! ```text
//! perfbench --workload <views-100k|serve-2c|ensemble-1k> --seed N --seconds S --trace 0|1
//! ```
//!
//! The process sets the workload up five times (timing each), measures
//! for `S` seconds, checks the program's outputs against the
//! benchmark's own answers, and prints one JSON object as its last
//! line. In-process workloads measure in several fresh processes one
//! after another, so per-process state of the program (hash seeds,
//! allocator and mapping layout) averages out within one run.

mod common;
mod ens;
mod gen;
mod reference;
mod report;
mod serve;
mod stats;
mod trace;
mod views;

use report::Report;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::Ordering;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Fresh measuring processes per run for the in-process workloads.
const WORKERS: u64 = 8;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Views,
    Serve,
    Ens,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "views-100k" => Workload::Views,
            "serve-2c" => Workload::Serve,
            "ensemble-1k" => Workload::Ens,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Views => "views-100k",
            Workload::Serve => "serve-2c",
            Workload::Ens => "ensemble-1k",
        }
    }
}

/// End-to-end metrics: (name, unit), printed with `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("first_paint_ms", "ms"),
    ("resort_ms", "ms"),
    ("query_ms", "ms"),
    ("session_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: (name, unit), printed with `--trace 1`. A layer a
/// workload does not call reads 0.
const PER_LAYER: [(&str, &str); 27] = [
    ("expdb.open_ms", "ms"),
    ("expdb.columns_faulted", "count"),
    ("expdb.fault_ratio", "ratio"),
    ("expdb.db_mb", "MB"),
    ("expdb.run_load_ms", "ms"),
    ("expdb.cpens_write_ms", "ms"),
    ("expdb.cpens_open_ms", "ms"),
    ("core.attribute_ms", "ms"),
    ("core.callers_build_ms", "ms"),
    ("core.flat_build_ms", "ms"),
    ("core.hot_path_ms", "ms"),
    ("viewer.render_ms", "ms"),
    ("viewer.view_switch_ms", "ms"),
    ("viewer.nav_ms", "ms"),
    ("viewer.nav_p95_ms", "ms"),
    ("analyze.parse_us", "us"),
    ("analyze.eval_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.handle_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("ensemble.union_ms", "ms"),
    ("ensemble.stats_ms", "ms"),
    ("ensemble.outliers_ms", "ms"),
    ("ensemble.columns_faulted", "count"),
    ("ensemble.build_s", "s"),
    ("trace.session_overhead_pct", "%"),
    ("trace.first_paint_overhead_pct", "%"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    worker: Option<(PathBuf, u64, u64)>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let (mut dir, mut index, mut millis) = (None, 0, 0);
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload '{v}'"))?)
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|_| "--seconds takes a number")?)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--worker-dir" => dir = Some(PathBuf::from(value()?)),
            "--worker-index" => index = value()?.parse().map_err(|_| "bad --worker-index")?,
            "--worker-millis" => millis = value()?.parse().map_err(|_| "bad --worker-millis")?,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let need = |what: &str| format!("--{what} is required");
    Ok(Args {
        workload: workload.ok_or_else(|| need("workload"))?,
        seed: seed.ok_or_else(|| need("seed"))?,
        seconds: if dir.is_some() {
            0.0
        } else {
            seconds.ok_or_else(|| need("seconds"))?
        },
        trace: trace.ok_or_else(|| need("trace"))?,
        worker: dir.map(|d| (d, index, millis)),
    })
}

/// A scratch directory inside the checkout, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(name: &str, seed: u64) -> Result<WorkDir, String> {
        let dir =
            PathBuf::from(".bench_work").join(format!("{name}-{seed}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

enum Prep {
    Views(views::Prep),
    Serve(serve::Prep),
    Ens(ens::Prep),
}

fn setup(w: Workload, dir: &Path, seed: u64) -> Result<Prep, String> {
    Ok(match w {
        Workload::Views => Prep::Views(views::setup(dir, seed)?),
        Workload::Serve => Prep::Serve(serve::setup(dir, seed)?),
        Workload::Ens => Prep::Ens(ens::setup(dir, seed)?),
    })
}

fn run_worker(args: &Args) -> Result<(), String> {
    let (dir, index, millis) = args.worker.as_ref().expect("worker mode");
    let rep = match args.workload {
        Workload::Views => views::worker(dir, args.seed, *index, *millis, args.trace),
        Workload::Ens => ens::worker(dir, args.seed, *index, *millis, args.trace),
        Workload::Serve => return Err("serve-2c measures in the parent process".into()),
    };
    print!("{}", rep.to_lines());
    Ok(())
}

/// Measure in `WORKERS` fresh processes, one after another.
fn measure_in_workers(args: &Args, dir: &Path) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let millis = (args.seconds * 1000.0 / WORKERS as f64).round() as u64;
    let mut rep = Report::default();
    for index in 0..WORKERS {
        let out = Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--worker-dir")
            .arg(dir)
            .args(["--worker-index", &index.to_string()])
            .args(["--worker-millis", &millis.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start a measuring process: {e}"))?;
        if !out.status.success() {
            return Err(format!("measuring process {index} failed: {}", out.status));
        }
        rep.merge_lines(&String::from_utf8_lossy(&out.stdout))?;
    }
    Ok(rep)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn run(args: &Args) -> Result<(), String> {
    let dir = WorkDir::create(args.workload.name(), args.seed)?;
    let mut setup_s = Vec::new();
    let mut prep = None;
    for _ in 0..SETUP_REPS {
        // The previous repetition's state (a running server) is released
        // before the next one is timed.
        drop(prep.take());
        let before = report::SETUP_PROGRAM_NS.load(Ordering::Relaxed);
        prep = Some(setup(args.workload, &dir.0, args.seed)?);
        let program_ns = report::SETUP_PROGRAM_NS.load(Ordering::Relaxed) - before;
        setup_s.push(program_ns as f64 / 1e9);
    }
    let prep = prep.expect("at least one set-up");
    let shape = match &prep {
        Prep::Views(p) => Some(&p.tree),
        Prep::Ens(p) => Some(&p.base),
        Prep::Serve(_) => None,
    };
    if let Some(tree) = shape {
        eprintln!(
            "{}: input tree {}",
            args.workload.name(),
            tree.depth_stats()
        );
    }

    let rep = match &prep {
        Prep::Serve(p) => serve::measure(p, args.seed, args.seconds, args.trace)?,
        _ => measure_in_workers(args, &dir.0)?,
    };
    let checked = match &prep {
        Prep::Views(p) => views::check(p, &rep, &dir.0),
        Prep::Serve(p) => serve::check(p),
        Prep::Ens(p) => ens::check(p, &rep, &dir.0),
    };
    drop(prep);
    let correct = match &checked {
        Ok(n) => {
            eprintln!("{}: {n} distinct outputs checked", args.workload.name());
            *n > 0
        }
        Err(e) => {
            eprintln!("{}: output check failed: {e}", args.workload.name());
            false
        }
    };
    for e in &rep.errors {
        eprintln!("{}: failed operation: {e}", args.workload.name());
    }

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        layer_metrics(&rep)
    } else {
        end_to_end(&rep, &setup_s)
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted,
        rep.failed,
        body.join(", ")
    );
    Ok(())
}

fn samples<'a>(rep: &'a Report, name: &str) -> &'a [f64] {
    rep.samples.get(name).map(Vec::as_slice).unwrap_or(&[])
}

fn end_to_end(rep: &Report, setup_s: &[f64]) -> Vec<(String, f64, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                "setup_s" => stats::median(setup_s),
                "requests_per_s" => rep.attempted as f64 / rep.measured_s,
                "peak_rss_mb" => stats::median(&rep.peak_rss_mb),
                _ => stats::median(samples(rep, name)),
            };
            (name.to_owned(), v, unit)
        })
        .collect()
}

fn layer_metrics(rep: &Report) -> Vec<(String, f64, &'static str)> {
    let overhead = |name: &str| {
        let untraced = stats::median(samples(rep, name));
        let traced = stats::median(rep.traced.get(name).map(Vec::as_slice).unwrap_or(&[]));
        100.0 * (traced / untraced - 1.0)
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                "trace.session_overhead_pct" => overhead("session_ms"),
                "trace.first_paint_overhead_pct" => overhead("first_paint_ms"),
                // Whole steps, timed like end-to-end metrics.
                "viewer.view_switch_ms" => stats::median(samples(rep, "view_switch_ms")),
                "viewer.nav_ms" => stats::median(samples(rep, "nav_op_ms")),
                "viewer.nav_p95_ms" => {
                    let nav = samples(rep, "nav_op_ms");
                    stats::p95(nav).unwrap_or(f64::NAN)
                }
                "ensemble.build_s" => stats::median(samples(rep, "build_ms")) / 1e3,
                _ => rep
                    .layers
                    .get(name)
                    .map(|vs| stats::median(vs))
                    .unwrap_or(0.0),
            };
            // A layer the workload never reached reads 0.
            (name.to_owned(), if v.is_nan() { 0.0 } else { v }, unit)
        })
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let r = if args.worker.is_some() {
        run_worker(&args)
    } else {
        run(&args)
    };
    if let Err(e) = r {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
