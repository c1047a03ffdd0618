//! What one measuring process hands back: timing samples, per-layer
//! values, observations for the output checks, and operation counts.
//! Written as plain text lines on the worker's stdout and merged by the
//! parent.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end samples of untraced sessions.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// End-to-end samples of traced sessions (probe time excluded).
    pub traced: BTreeMap<String, Vec<f64>>,
    /// Per-layer values.
    pub layers: BTreeMap<String, Vec<f64>>,
    /// Observations of program output, checked by the parent.
    pub obs: Vec<Vec<String>>,
    /// User requests (one command and its rendered reply) attempted.
    pub attempted: u64,
    pub failed: u64,
    /// Seconds spent measuring.
    pub measured_s: f64,
    /// Peak resident set of each measuring process, MB.
    pub peak_rss_mb: Vec<f64>,
    /// Failure messages (at most a few kept).
    pub errors: Vec<String>,
}

impl Report {
    pub fn sample(&mut self, traced: bool, name: &str, v: f64) {
        let map = if traced {
            &mut self.traced
        } else {
            &mut self.samples
        };
        map.entry(name.to_owned()).or_default().push(v);
    }

    pub fn layer(&mut self, name: &str, v: f64) {
        self.layers.entry(name.to_owned()).or_default().push(v);
    }

    pub fn observe(&mut self, fields: &[&str]) {
        self.obs
            .push(fields.iter().map(|s| s.to_string()).collect());
    }

    /// Count one attempted request and whether it failed.
    pub fn request<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(e);
                }
                None
            }
        }
    }

    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (tag, map) in [
            ("S", &self.samples),
            ("T", &self.traced),
            ("L", &self.layers),
        ] {
            for (name, vs) in map {
                for v in vs {
                    out.push_str(&format!("{tag} {name} {v:e}\n"));
                }
            }
        }
        for o in &self.obs {
            out.push_str(&format!("O {}\n", o.join(" ")));
        }
        for e in &self.errors {
            out.push_str(&format!("E {}\n", e.replace('\n', " ")));
        }
        for v in &self.peak_rss_mb {
            out.push_str(&format!("R {v:e}\n"));
        }
        out.push_str(&format!(
            "C {} {} {:e}\n",
            self.attempted, self.failed, self.measured_s
        ));
        out
    }

    /// Merge the lines another process printed.
    pub fn merge_lines(&mut self, text: &str) -> Result<(), String> {
        let bad = |l: &str| format!("malformed report line '{l}'");
        let mut counted = false;
        for line in text.lines() {
            let mut it = line.splitn(2, ' ');
            let (tag, rest) = (it.next().unwrap_or(""), it.next().unwrap_or(""));
            let num = |s: &str| s.parse::<f64>().map_err(|_| bad(line));
            match tag {
                "S" | "T" | "L" => {
                    let (name, v) = rest.split_once(' ').ok_or_else(|| bad(line))?;
                    let v = num(v)?;
                    match tag {
                        "S" => self.sample(false, name, v),
                        "T" => self.sample(true, name, v),
                        _ => self.layer(name, v),
                    }
                }
                "O" => self.obs.push(rest.split(' ').map(str::to_owned).collect()),
                "E" => self.errors.push(rest.to_owned()),
                "R" => self.peak_rss_mb.push(num(rest)?),
                "C" => {
                    let f: Vec<&str> = rest.split(' ').collect();
                    if f.len() != 3 {
                        return Err(bad(line));
                    }
                    self.attempted += f[0].parse::<u64>().map_err(|_| bad(line))?;
                    self.failed += f[1].parse::<u64>().map_err(|_| bad(line))?;
                    self.measured_s += num(f[2])?;
                    counted = true;
                }
                _ => {}
            }
        }
        if counted {
            Ok(())
        } else {
            Err("worker printed no report".into())
        }
    }
}

/// Nanoseconds spent in the program's own calls during set-up: the
/// sum over `setup_call`s is `setup_s`. Generating inputs, computing
/// the benchmark's reference answers and writing files stay outside.
pub static SETUP_PROGRAM_NS: AtomicU64 = AtomicU64::new(0);

/// Run one set-up call into the program, adding its time to `setup_s`.
pub fn setup_call<T>(f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let r = f();
    SETUP_PROGRAM_NS.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    r
}

/// Write a generated input file.
pub fn write_input(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_owned(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip() {
        let mut r = Report::default();
        r.sample(false, "first_paint_ms", 1.25);
        r.sample(true, "first_paint_ms", 1.5);
        r.layer("expdb.open_ms", 0.125);
        r.observe(&["root", "3", "17"]);
        r.request::<()>(Err("boom".into()));
        r.request(Ok(()));
        r.measured_s = 2.5;
        r.peak_rss_mb.push(64.0);
        let mut m = Report::default();
        m.merge_lines(&r.to_lines()).unwrap();
        assert_eq!(m.samples["first_paint_ms"], vec![1.25]);
        assert_eq!(m.traced["first_paint_ms"], vec![1.5]);
        assert_eq!(m.layers["expdb.open_ms"], vec![0.125]);
        assert_eq!(m.obs, vec![vec!["root", "3", "17"]]);
        assert_eq!((m.attempted, m.failed, m.measured_s), (2, 1, 2.5));
        assert_eq!(m.errors, vec!["boom"]);
        assert!(Report::default().merge_lines("S x 1").is_err());
    }
}
