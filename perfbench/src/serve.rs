//! `serve-2c`: two clients drive a live `callpath-serve` over TCP, each
//! sending its next request only after the previous reply arrived.
//! Sessions run over the paper's three case studies (recorded through
//! the measurement pipeline, pflotran at 64 ranks) and the
//! `views-100k` database, with Calling Context View requests and one
//! `analyze` query each. Clients write each request as one segment
//! with `TCP_NODELAY` set.

use crate::gen::{sub_seed, Rng, Tree};
use crate::reference::{self, QuerySpec};
use crate::report::{peak_rss_mb, setup_call, Report};
use crate::stats;
use crate::trace::Tracer;
use crate::views;
use callpath::core::jsonval::{self, Json};
use callpath::core::prelude::{ColumnId, Experiment};
use callpath::viewer::{Command, Session};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command as Process, Stdio};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const QUERY_PCT: f64 = 0.5;

/// One database the server holds, with the benchmark's copy of its
/// tree for choosing requests and counting query matches.
pub struct Db {
    path: PathBuf,
    tree: Tree,
    /// Inclusive columns a session may sort by.
    sort_columns: Vec<u32>,
    needles: Vec<String>,
    /// Queries with their brute-force match counts.
    queries: Vec<(String, usize)>,
}

pub struct Prep {
    dbs: Vec<Db>,
    server: Child,
    addr: String,
    /// Sessions completed in the measured phase, for the check.
    logs: std::sync::Mutex<Vec<Log>>,
}

impl Drop for Prep {
    fn drop(&mut self) {
        let stopped = TcpStream::connect(&self.addr).and_then(|mut s| {
            s.set_read_timeout(Some(Duration::from_secs(10)))?;
            s.write_all(b"{\"id\":0,\"method\":\"shutdown\"}\n")?;
            let mut line = String::new();
            BufReader::new(s).read_line(&mut line).map(|_| ())
        });
        if stopped.is_err() {
            let _ = self.server.kill();
        }
        let _ = self.server.wait();
    }
}

fn record_paper_dbs(dir: &Path) -> Result<Vec<PathBuf>, String> {
    use callpath::parallel::{run_spmd, SpmdConfig};
    use callpath::profiler::ExecConfig;
    use callpath::workloads::{moab, pflotran, pipeline, s3d};
    let exec = ExecConfig::default();
    let part = pflotran::Partition::default();
    let scales: Vec<f64> = (0..64).map(|r| part.scale(r, 64)).collect();
    let mut spmd = SpmdConfig::new(scales, exec.clone());
    spmd.keep_rank_data = false;
    let s3d = s3d::program(s3d::S3dConfig::default());
    let moab = moab::program();
    let pflotran = pflotran::program();
    let exps = [
        (
            "s3d",
            setup_call(|| pipeline::build_experiment(&s3d, &exec)),
        ),
        ("moab", setup_call(|| pipeline::build_experiment(&moab, &exec))),
        ("pflotran", setup_call(|| run_spmd(&pflotran, &spmd).experiment)),
    ];
    let mut paths = Vec::new();
    for (name, exp) in exps {
        let path = dir.join(format!("{name}.cpdb"));
        let bytes = setup_call(|| callpath::expdb::to_binary_v21(&exp));
        crate::report::write_input(&path, &bytes)?;
        paths.push(path);
    }
    Ok(paths)
}

fn describe(path: PathBuf, generated: Option<&views::Prep>) -> Result<Db, String> {
    let exp = callpath::expdb::open_lazy_path(&path).map_err(|e| e.to_string())?;
    let tree = Tree::from_cct(&exp.cct);
    let n_metrics = exp.raw.metric_count();
    let sort_columns: Vec<u32> = (0..n_metrics as u32).map(|m| 2 * m).collect();
    let needles = crate::common::shallow_needles(&tree, 2..=3, 8)
        .into_iter()
        .map(|p| tree.procs[p as usize].clone())
        .collect::<Vec<_>>();
    let mut queries = Vec::new();
    for (i, needle) in needles.iter().enumerate().take(4) {
        let prefix: String = needle.chars().take(4).collect();
        let m = i % n_metrics;
        // Generated databases get a threshold on top of the name match;
        // their costs are whole numbers, so the benchmark's sums are
        // exact and the comparison with the threshold cannot round
        // differently from the program's.
        let q = match generated {
            Some(_) => QuerySpec {
                prefix: Some(prefix),
                metric: Some((
                    exp.raw
                        .desc(callpath::core::prelude::MetricId(m as u32))
                        .name
                        .clone(),
                    m,
                    QUERY_PCT,
                )),
            },
            None => QuerySpec {
                prefix: Some(prefix),
                metric: None,
            },
        };
        let incl = generated.map(|g| reference::inclusive(&tree, &g.metrics[m].costs));
        let count = q.count(&tree, incl.as_ref());
        queries.push((q.text(), count));
    }
    if needles.is_empty() || queries.is_empty() {
        return Err(format!("{}: no procedure to search for", path.display()));
    }
    Ok(Db {
        path,
        tree,
        sort_columns,
        needles,
        queries,
    })
}

pub fn setup(dir: &Path, seed: u64) -> Result<Prep, String> {
    let mut paths = record_paper_dbs(dir)?;
    let views_path = dir.join("views.cpdb");
    let generated = views::write_db(&views_path, seed)?;
    let mut dbs: Vec<Db> = Vec::new();
    for p in paths.drain(..) {
        dbs.push(describe(p, None)?);
    }
    dbs.push(describe(views_path, Some(&generated))?);

    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let server_bin = exe.with_file_name("callpath-serve");
    let mut cmd = Process::new(&server_bin);
    cmd.args(["--addr", "127.0.0.1:0"]);
    for db in &dbs {
        cmd.arg(&db.path);
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    // Timed from the spawn to the server's `listening on` line: the
    // server loads every database before it listens.
    let mut line = String::new();
    let (mut server, read) = setup_call(|| {
        let mut server = cmd.spawn()?;
        let stdout = server.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        Ok::<_, std::io::Error>((server, read))
    })
    .map_err(|e| format!("cannot start {}: {e}", server_bin.display()))?;
    let addr = match (read, line.strip_prefix("listening on ")) {
        (Ok(_), Some(a)) => a.trim().to_owned(),
        _ => {
            let _ = server.kill();
            let _ = server.wait();
            return Err(format!("callpath-serve did not start: '{}'", line.trim()));
        }
    };
    Ok(Prep {
        dbs,
        server,
        addr,
        logs: std::sync::Mutex::new(Vec::new()),
    })
}

/// One request of a session script.
#[derive(Debug, Clone)]
enum Req {
    Open,
    Render,
    Sort(u32),
    Hot,
    Expand(u32),
    Select(u32),
    Find(String),
    Analyze(usize, usize),
    Close,
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl Req {
    fn line(&self, dbs: &[Db], db: usize, sid: u64) -> String {
        let path = esc(&dbs[db].path.to_string_lossy());
        match self {
            Req::Open => format!(r#"{{"id":1,"method":"open","params":{{"path":"{path}"}}}}"#),
            Req::Render => format!(r#"{{"id":2,"method":"render","params":{{"session":{sid}}}}}"#),
            Req::Sort(c) => {
                format!(r#"{{"id":3,"method":"sort","params":{{"session":{sid},"column":{c}}}}}"#)
            }
            Req::Hot => format!(r#"{{"id":4,"method":"hot-path","params":{{"session":{sid}}}}}"#),
            Req::Expand(n) => {
                format!(r#"{{"id":5,"method":"expand","params":{{"session":{sid},"node":{n}}}}}"#)
            }
            Req::Select(n) => {
                format!(r#"{{"id":6,"method":"select","params":{{"session":{sid},"node":{n}}}}}"#)
            }
            Req::Find(s) => format!(
                r#"{{"id":7,"method":"find","params":{{"session":{sid},"needle":"{}"}}}}"#,
                esc(s)
            ),
            Req::Analyze(_, q) => format!(
                r#"{{"id":8,"method":"analyze","params":{{"path":"{path}","query":"{}","top":5}}}}"#,
                esc(&dbs[db].queries[*q].0)
            ),
            Req::Close => format!(r#"{{"id":9,"method":"close","params":{{"session":{sid}}}}}"#),
        }
    }

    /// The metric this request's latency counts towards.
    fn metric(&self) -> Option<&'static str> {
        match self {
            Req::Sort(_) => Some("resort_ms"),
            Req::Hot | Req::Expand(_) | Req::Select(_) | Req::Find(_) => Some("nav_op_ms"),
            Req::Analyze(..) => Some("query_ms"),
            _ => None,
        }
    }
}

/// A finished session: which database, and each request with its reply.
pub struct Log {
    db: usize,
    steps: Vec<(Req, String)>,
}

struct Client<'p> {
    prep: &'p Prep,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    rep: Report,
    tr: Tracer,
    tr_on: bool,
    logs: Vec<Log>,
    /// (request line without session ids, RTT ms) for the wire residual.
    rtts: Vec<(usize, f64)>,
}

impl Client<'_> {
    fn call(&mut self, line: &str) -> Result<(String, f64), String> {
        let t = Instant::now();
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf).map_err(|e| e.to_string())?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|e| e.to_string())?;
        if reply.is_empty() {
            return Err("server closed the connection".into());
        }
        Ok((reply.trim_end().to_owned(), t.elapsed().as_secs_f64() * 1e3))
    }

    /// Send one request, log it, and count it; the reply's result.
    fn step(&mut self, log: &mut Log, req: Req, sid: u64) -> Option<Json> {
        let line = req.line(&self.prep.dbs, log.db, sid);
        let o = self.tr.open("serve.rtt");
        let r = self.call(&line);
        self.tr.close(o);
        let traced = self.tr_on;
        let r = r.and_then(|(reply, ms)| {
            reference::check_reply(&reply)?;
            if let Some(m) = req.metric() {
                self.rep.sample(traced, m, ms);
            }
            self.rtts.push((kind_index(&req), ms));
            let v = jsonval::parse(&reply).map_err(|e| e.to_string())?;
            log.steps.push((req, reply));
            Ok(v.get("result").cloned().unwrap_or(Json::Null))
        });
        self.rep.request(r)
    }
}

fn kind_index(r: &Req) -> usize {
    match r {
        Req::Open => 0,
        Req::Render => 1,
        Req::Sort(_) => 2,
        Req::Hot => 3,
        Req::Expand(_) => 4,
        Req::Select(_) => 5,
        Req::Find(_) => 6,
        Req::Analyze(..) => 7,
        Req::Close => 8,
    }
}

fn rows_of(v: &Json) -> Vec<u32> {
    v.get("rows")
        .and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(|x| x.as_u64())
                .map(|x| x as u32)
                .collect()
        })
        .unwrap_or_default()
}

fn pick_row(tree: &Tree, rows: &[u32], rng: &mut Rng, with_children: bool) -> Option<u32> {
    let start = rng.below(rows.len().max(1) as u64) as usize;
    (0..rows.len())
        .map(|i| rows[(start + i) % rows.len()])
        .find(|&n| !with_children || !tree.children(n).is_empty())
}

impl Client<'_> {
    fn session(&mut self, rng: &mut Rng, index: u32, traced: bool) {
        let prep = self.prep;
        let db = index as usize % prep.dbs.len();
        let d = &prep.dbs[db];
        self.tr_on = traced;
        self.tr.set_enabled(traced);
        self.tr.set_session(index);
        let mut log = Log {
            db,
            steps: Vec::new(),
        };
        let t0 = Instant::now();
        let Some(opened) = self.step(&mut log, Req::Open, 0) else {
            return;
        };
        let sid = opened.get("session").and_then(Json::as_u64).unwrap_or(0);
        let Some(r) = self.step(&mut log, Req::Render, sid) else {
            return;
        };
        self.rep
            .sample(traced, "first_paint_ms", t0.elapsed().as_secs_f64() * 1e3);
        let mut rows = rows_of(&r);
        let col = d.sort_columns[rng.below(d.sort_columns.len() as u64) as usize];
        let needle = d.needles[rng.below(d.needles.len() as u64) as usize].clone();
        let query = rng.below(d.queries.len() as u64) as usize;
        for req in [Req::Sort(col), Req::Hot] {
            let Some(r) = self.step(&mut log, req, sid) else {
                return;
            };
            rows = rows_of(&r);
        }
        for with_children in [true, true, false] {
            let Some(n) = pick_row(&d.tree, &rows, rng, with_children) else {
                continue;
            };
            let req = if with_children {
                Req::Expand(n)
            } else {
                Req::Select(n)
            };
            let Some(r) = self.step(&mut log, req, sid) else {
                return;
            };
            rows = rows_of(&r);
        }
        let Some(r) = self.step(&mut log, Req::Find(needle), sid) else {
            return;
        };
        rows = rows_of(&r);
        if let Some(n) = pick_row(&d.tree, &rows, rng, false) {
            if self.step(&mut log, Req::Select(n), sid).is_none() {
                return;
            }
        }
        if self.step(&mut log, Req::Analyze(db, query), sid).is_none()
            || self.step(&mut log, Req::Close, sid).is_none()
        {
            return;
        }
        self.rep
            .sample(traced, "session_ms", t0.elapsed().as_secs_f64() * 1e3);
        self.logs.push(log);
    }
}

/// What one client thread hands back: its report, completed sessions,
/// round trips by request kind, and its spans.
type ClientResult = (Report, Vec<Log>, Vec<(usize, f64)>, Tracer);

pub fn measure(prep: &Prep, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let deadline = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let results: Vec<Result<ClientResult, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let stream = TcpStream::connect(&prep.addr).map_err(|e| e.to_string())?;
                    stream.set_nodelay(true).map_err(|e| e.to_string())?;
                    stream
                        .set_read_timeout(Some(Duration::from_secs(60)))
                        .map_err(|e| e.to_string())?;
                    let writer = stream.try_clone().map_err(|e| e.to_string())?;
                    let mut client = Client {
                        prep,
                        reader: BufReader::new(stream),
                        writer,
                        rep: Report::default(),
                        tr: Tracer::new(false),
                        tr_on: false,
                        logs: Vec::new(),
                        rtts: Vec::new(),
                    };
                    let mut rng = Rng::new(sub_seed(seed, 300 + c as u64));
                    let mut i = c as u32;
                    while start.elapsed() < deadline {
                        client.session(&mut rng, i, trace && (i / CLIENTS as u32) % 2 == 1);
                        i += CLIENTS as u32;
                    }
                    Ok((client.rep, client.logs, client.rtts, client.tr))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let measured_s = start.elapsed().as_secs_f64();
    let mut rep = Report::default();
    let mut logs = Vec::new();
    let mut rtts = Vec::new();
    for r in results {
        let (r, l, t, tr) = r?;
        rep.merge_lines(&r.to_lines())?;
        logs.extend(l);
        rtts.extend(t);
        for (name, vs) in crate::trace::self_ms_by_name(tr.spans()) {
            for v in vs {
                rep.layer(name, v);
            }
        }
    }
    rep.measured_s = measured_s;
    rep.peak_rss_mb = vec![peak_rss_mb(Some(prep.server.id()))];
    if trace {
        trace_in_process(prep, &logs, &rtts, &mut rep);
    }
    *prep.logs.lock().expect("no thread holds the log lock") = logs;
    Ok(rep)
}

/// The same sessions through an in-process `Engine`: its handling time
/// per request, request parsing, and query evaluation, so the wire's
/// share of the client's round trip is a number.
fn trace_in_process(prep: &Prep, logs: &[Log], rtts: &[(usize, f64)], rep: &mut Report) {
    use callpath::serve::{protocol::parse_request, Engine, ServeConfig};
    let engine = Engine::new(ServeConfig::default());
    let mut handle: Vec<Vec<f64>> = vec![Vec::new(); 9];
    for log in logs {
        let mut sid = 0;
        for (req, _) in &log.steps {
            let line = req.line(&prep.dbs, log.db, sid);
            let t = Instant::now();
            let parsed = parse_request(&line);
            rep.layer("serve.parse_us", t.elapsed().as_secs_f64() * 1e6);
            drop(parsed);
            let t = Instant::now();
            let reply = engine.handle_line(&line);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            rep.layer("serve.handle_ms", ms);
            handle[kind_index(req)].push(ms);
            if let Req::Open = req {
                sid = jsonval::parse(&reply)
                    .ok()
                    .and_then(|v| {
                        v.get("result")
                            .and_then(|r| r.get("session"))
                            .and_then(Json::as_u64)
                    })
                    .unwrap_or(0);
            }
            if let Req::Analyze(db, q) = req {
                let d = &prep.dbs[*db];
                if let (Ok(exp), Ok(query)) = (
                    engine.load_experiment(&d.path.to_string_lossy()),
                    callpath::analyze::Query::parse(&d.queries[*q].0),
                ) {
                    let t = Instant::now();
                    let _ = callpath::analyze::eval_mask(&exp, &query.pred, 0);
                    rep.layer("analyze.eval_ms", t.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
    }
    // Wire residual per request kind: client round trip minus in-process
    // handling, medians of each.
    for (k, h) in handle.iter().enumerate() {
        let rtt: Vec<f64> = rtts.iter().filter(|r| r.0 == k).map(|r| r.1).collect();
        if !h.is_empty() && !rtt.is_empty() {
            rep.layer("serve.wire_ms", stats::median(&rtt) - stats::median(h));
        }
    }
}

/// Every reply was structured and error-free (checked as it arrived);
/// here every served render is compared with a direct `Session` running
/// the same script, and every query count with a brute-force count.
pub fn check(prep: &Prep) -> Result<usize, String> {
    let logs = std::mem::take(&mut *prep.logs.lock().expect("no thread holds the log lock"));
    if logs.is_empty() {
        return Err("no session completed".into());
    }
    let exps = prep
        .dbs
        .iter()
        .map(|d| callpath::expdb::open_lazy_path(&d.path).map_err(|e| e.to_string()))
        .collect::<Result<Vec<Experiment>, String>>()?;
    let mut checked = 0;
    for (i, log) in logs.iter().enumerate() {
        let d = &prep.dbs[log.db];
        let exp = &exps[log.db];
        let mut s = Session::new(exp, Default::default());
        for (req, reply) in &log.steps {
            let v = jsonval::parse(reply).map_err(|e| e.to_string())?;
            let result = v.get("result").cloned().unwrap_or(Json::Null);
            let cmd = match req {
                Req::Sort(c) => Some(Command::SortBy(ColumnId(*c))),
                Req::Hot => Some(Command::HotPath),
                Req::Expand(n) => Some(Command::Expand(*n)),
                Req::Select(n) => Some(Command::Select(*n)),
                Req::Find(needle) => Some(Command::Find(needle.clone())),
                Req::Render => None,
                Req::Analyze(_, q) => {
                    let (text, want) = &d.queries[*q];
                    let got = result
                        .get("matched")
                        .and_then(Json::as_u64)
                        .unwrap_or(u64::MAX);
                    reference::check_count(text, *want, got as usize)?;
                    checked += 1;
                    continue;
                }
                Req::Open | Req::Close => continue,
            };
            if let Some(c) = cmd {
                s.apply(c)
                    .map_err(|e| format!("session {i}: direct session refused: {e}"))?;
            }
            let (direct, _) = s.render_numbered();
            let served = result.get("render").and_then(Json::as_str).unwrap_or("");
            reference::check_same_render(&format!("session {i} {req:?}"), &direct, served)?;
            checked += 1;
        }
    }
    Ok(checked)
}
