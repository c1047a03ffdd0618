//! In-memory spans recorded around calls into the program's public
//! functions. A disabled tracer records nothing, so the untraced run
//! executes the same session code with only a branch per span.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub session: u32,
    /// A probe is an extra call made only to time one layer on its own;
    /// its time is kept out of the traced run's end-to-end figures.
    pub probe: bool,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    session: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Handle of an open span (`usize::MAX` when tracing is off).
#[derive(Clone, Copy)]
pub struct Open(usize);

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            session: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    pub fn set_session(&mut self, session: u32) {
        self.session = session;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open_span(&mut self, name: &'static str, probe: bool) -> Open {
        if !self.on {
            return Open(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            session: self.session,
            probe,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        self.open_span(name, false)
    }

    pub fn close(&mut self, open: Open) {
        if open.0 == usize::MAX {
            return;
        }
        let end = self.now();
        self.spans[open.0].end_ns = end;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.0), "spans close in LIFO order");
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let o = self.open(name);
        let r = f();
        self.close(o);
        r
    }

    /// Run `f` as a probe: only when tracing, and outside the timed
    /// steps of the session.
    pub fn probe<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> Option<R> {
        if !self.on {
            return None;
        }
        let o = self.open_span(name, true);
        let r = f();
        self.close(o);
        Some(r)
    }

    /// Nanoseconds spent in probe spans of the current session that
    /// started at or after `since_ns`.
    pub fn probe_ns_since(&self, since: Instant) -> u64 {
        let since_ns = since.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans
            .iter()
            .rev()
            .take_while(|s| s.start_ns >= since_ns)
            .filter(|s| s.probe && s.session == self.session)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. Children never overlap (one thread records a
/// tracer), so the covered part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

/// Self times in milliseconds grouped by span name.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        out.entry(s.name).or_default().push(ns as f64 / 1e6);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            session: 0,
            probe: false,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("session", 0, 100, None),
            span("step", 10, 60, Some(0)),
            span("render", 20, 50, Some(1)),
            span("step", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", || 3);
        assert_eq!(v, 3);
        assert!(t.probe("p", || ()).is_none());
        assert!(t.spans().is_empty());
    }
}
