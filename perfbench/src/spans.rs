//! In-memory span recorder for the traced run.
//!
//! A span wraps one call into a layer. Spans nest: a span's self time is
//! its duration minus the part its child spans cover. Spans are folded
//! into per-name totals as they close (the traced run opens millions of
//! them; keeping each one would grow the heap the run is measuring) and
//! the totals are written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// Totals for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans closed under this name.
    pub calls: u64,
    /// Summed duration, in nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans), in nanoseconds.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration per `per` units, in microseconds (0 when `per` is 0).
    pub fn us_per(&self, per: u64) -> f64 {
        if per == 0 {
            0.0
        } else {
            self.total_ns as f64 / 1e3 / per as f64
        }
    }
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

/// The recorder.
#[derive(Default)]
pub struct Tracer {
    open: Vec<Open>,
    totals: BTreeMap<&'static str, SpanTotals>,
    /// Summed duration of spans opened with nothing else open.
    root_ns: u64,
}

impl Tracer {
    /// Runs `f` inside a span named `name`; `f` gets the tracer back so it
    /// can open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.open.push(Open {
            name,
            start: Instant::now(),
            child_ns: 0,
        });
        let out = f(self);
        let span = self.open.pop().expect("span stack balanced");
        debug_assert_eq!(span.name, name);
        let ns = span.start.elapsed().as_nanos() as u64;
        let t = self.totals.entry(name).or_default();
        t.calls += 1;
        t.total_ns += ns;
        t.self_ns += ns.saturating_sub(span.child_ns);
        match self.open.last_mut() {
            Some(parent) => parent.child_ns += ns,
            None => self.root_ns += ns,
        }
        out
    }

    /// Totals for `name` (zero when no such span closed).
    pub fn get(&self, name: &str) -> SpanTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Summed duration of root spans, in seconds: the part of the run's
    /// wall time that some span accounts for.
    pub fn covered_s(&self) -> f64 {
        self.root_ns as f64 / 1e9
    }

    /// Self time of every span name, in seconds, largest first — the
    /// breakdown written at the end of a traced run.
    pub fn self_breakdown(&self) -> Vec<(&'static str, f64)> {
        let mut v: Vec<(&'static str, f64)> = self
            .totals
            .iter()
            .map(|(&n, t)| (n, t.self_ns as f64 / 1e9))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::default();
        let v = tr.span("outer", |tr| {
            busy(Duration::from_millis(2));
            tr.span("inner", |_| busy(Duration::from_millis(3)));
            tr.span("inner", |_| busy(Duration::from_millis(3)));
            7
        });
        assert_eq!(v, 7);
        let outer = tr.get("outer");
        let inner = tr.get("inner");
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 2);
        assert_eq!(inner.self_ns, inner.total_ns, "leaf self == total");
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(outer.self_ns >= 2_000_000);
        assert_eq!(tr.covered_s(), outer.total_ns as f64 / 1e9);
        assert_eq!(tr.self_breakdown()[0].0, "inner");
        assert_eq!(tr.get("missing"), SpanTotals::default());
        assert_eq!(inner.us_per(0), 0.0);
    }
}
