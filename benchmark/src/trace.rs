//! In-memory spans around the calls into each layer, written out as a
//! Chrome trace when the run ends.
//!
//! Every span is recorded here, in the benchmark's own files: the layers
//! are timed from outside, at their public functions. Spans nest by call
//! order (`run → workload → pass → item → lint/synth/check`, and
//! `run → probes → <probe>`); a span's self time is its duration minus the
//! part its direct children cover.

use std::fmt::Write as _;
use std::time::Instant;

use crate::json::Json;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran, e.g. `exp:fig2`, `lint`, `probe:sim.rob`.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock; `0` while the span is open.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Exact counts observed at this boundary.
    pub args: Vec<(&'static str, u64)>,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::open`]; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span"]
pub struct SpanId(Option<usize>);

/// The span recorder. With `enabled == false` every call is a branch and
/// nothing is stored, which is how untraced passes run.
#[derive(Debug)]
pub struct Tracer {
    /// Record spans?
    pub enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled` can be flipped between passes.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let ix = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            args: Vec::new(),
        });
        self.stack.push(ix);
        // Read the clock last so the bookkeeping above lands in the parent.
        self.spans[ix].start_ns = self.now_ns();
        SpanId(Some(ix))
    }

    /// Close `id`, attaching the counts seen at this boundary.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order — a bug in the harness.
    pub fn close(&mut self, id: SpanId, args: &[(&'static str, u64)]) {
        let Some(ix) = id.0 else { return };
        let end = self.now_ns();
        assert_eq!(self.stack.pop(), Some(ix), "spans must nest");
        let span = &mut self.spans[ix];
        span.end_ns = end;
        span.args.extend_from_slice(args);
    }

    /// Every recorded span, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `ix` minus the durations of its direct children.
    #[must_use]
    pub fn self_ns(&self, ix: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(ix))
            .map(Span::dur_ns)
            .sum();
        self.spans[ix].dur_ns().saturating_sub(children)
    }

    /// Indices of every span called `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
            .map(|(ix, _)| ix)
    }

    /// Whether some enclosing span of `ix` is called `name`.
    #[must_use]
    pub fn has_ancestor(&self, ix: usize, name: &str) -> bool {
        std::iter::successors(self.spans[ix].parent, |&p| self.spans[p].parent)
            .any(|p| self.spans[p].name == name)
    }

    /// Durations, in milliseconds, of every span called `name`.
    #[must_use]
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|ix| self.spans[ix].dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self times, in milliseconds, of every span called `name`.
    #[must_use]
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|ix| self.self_ns(ix) as f64 / 1e6)
            .collect()
    }

    /// Sum of argument `key` over every span called `name`.
    #[must_use]
    pub fn arg_sum(&self, name: &str, key: &str) -> u64 {
        self.named(name)
            .flat_map(|ix| self.spans[ix].args.iter())
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    }

    /// The Chrome trace-event form (`chrome://tracing`, Perfetto): one
    /// complete (`X`) event per span, microsecond timestamps, the span's
    /// index, parent and counts as event args.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (ix, s) in self.spans.iter().enumerate() {
            if ix > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"span\": {ix}",
                Json::Str(s.name.clone()).render(),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ", \"parent\": {p}");
            }
            for (k, v) in &s.args {
                let _ = write!(out, ", \"{k}\": {v}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// A tracer with hand-set clocks: pass [0, 100), items [10, 40) and
    /// [50, 90), a check [60, 70) inside the second item.
    fn sample() -> Tracer {
        let mut t = Tracer::new(true);
        let pass = t.open("pass");
        let a = t.open("item");
        t.close(a, &[("cells", 3)]);
        let b = t.open("item");
        let c = t.open("check");
        t.close(c, &[]);
        t.close(b, &[("cells", 4)]);
        t.close(pass, &[]);
        for (ix, (start, end)) in [(0, 100), (10, 40), (50, 90), (60, 70)]
            .into_iter()
            .enumerate()
        {
            t.spans[ix].start_ns = start;
            t.spans[ix].end_ns = end;
        }
        t
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = sample();
        assert_eq!(t.spans()[3].parent, Some(2));
        assert_eq!(t.self_ns(0), 100 - 30 - 40, "grandchildren do not count");
        assert_eq!(t.self_ns(1), 30);
        assert_eq!(t.self_ns(2), 40 - 10);
        assert_eq!(t.self_ns(3), 10);
        assert_eq!(t.self_ms("item"), vec![30e-6, 30e-6]);
        assert_eq!(t.arg_sum("item", "cells"), 7);
        assert!(t.has_ancestor(3, "pass") && t.has_ancestor(3, "item"));
        assert!(!t.has_ancestor(1, "item") && !t.has_ancestor(0, "pass"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.open("pass");
        t.close(s, &[("cells", 1)]);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_trace_loads_as_json() {
        let doc = json::parse(&sample().to_chrome_json()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[3].get("name").unwrap().as_str(), Some("check"));
        assert_eq!(events[3].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[2].get("dur").unwrap().as_f64(), Some(0.04));
        let args = events[3].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(2.0));
    }
}
