//! In-memory spans for the traced run.
//!
//! A span is a call from the benchmark into one layer's public function:
//! name, start, end, the span that caused it, and the request it belongs
//! to. Spans stay in memory while the workload runs and are written out
//! when it ends. Layers hidden inside the server are replayed in-process
//! as children of the round-trip span (right after the round trip, or
//! after the timed phase where a replay would hold up the load), so a
//! layer's self time is its duration minus its children's.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span recorder; disabled recorders record nothing and cost a branch.
pub struct Tracer {
    enabled: bool,
    base: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Per-name totals: spans, summed duration, summed self time.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    pub count: usize,
    pub total_s: f64,
    pub self_s: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            base: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Record a finished span; returns its id (for children) when enabled.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        Some(spans.len() - 1)
    }

    /// Time `f` as a span and return its result with the span id.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Option<usize>) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, start, Instant::now(), parent, request);
        (out, id)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }

    /// Count, total and self time per span name. Self time is a span's
    /// duration minus its children's (floored at zero per span).
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let spans = self.spans();
        let mut child_s = vec![0.0f64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_s[p] += s.seconds();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += s.seconds();
            t.self_s += (s.seconds() - child_s[i]).max(0.0);
        }
        out
    }

    /// Write every span as a tab-separated line:
    /// `id name start_ns end_ns parent request`.
    pub fn write(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let a = Instant::now();
        let parent = t.record("rtt", a, a + Duration::from_millis(10), None, 1);
        let c = a + Duration::from_millis(20);
        t.record("hit", c, c + Duration::from_millis(3), parent, 1);
        let totals = t.totals();
        assert!((totals["rtt"].self_s - 0.007).abs() < 1e-9);
        assert!((totals["hit"].self_s - 0.003).abs() < 1e-9);
        assert_eq!(totals["rtt"].count, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let a = Instant::now();
        assert!(t.record("x", a, a, None, 0).is_none());
        assert!(t.totals().is_empty());
    }
}
