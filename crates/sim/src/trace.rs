//! Optional execution tracing: a bounded ring of recent machine events,
//! exported as Chrome-trace JSON.
//!
//! Tracing is off by default (zero overhead beyond a branch); switch it on
//! with [`Machine::enable_trace`](crate::Machine::enable_trace). The core
//! pipeline records four kinds of event — a barrier's response, a
//! workload's iteration mark, and the begin and end of a barrier stall —
//! so a trace of a few thousand entries covers the window a bug or a
//! calibration question lives in. Read it back with [`Trace::events`], or
//! take it with [`Machine::take_trace`](crate::Machine::take_trace) and
//! write [`Trace::to_chrome_json`] for `chrome://tracing` or Perfetto
//! (`ARMBAR_TRACE=trace.json armbar run attrib`).

use std::collections::VecDeque;

use crate::types::{CoreId, Cycle};

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A barrier's response arrived (it no longer blocks anything).
    BarrierDone {
        /// Core.
        core: CoreId,
        /// Mnemonic.
        what: &'static str,
    },
    /// A workload marked an iteration.
    Iteration {
        /// Core.
        core: CoreId,
        /// Iterations so far.
        count: u64,
    },
    /// Issue became fully blocked on a barrier condition (the stall cause
    /// just started being charged).
    StallBegin {
        /// Stalled core.
        core: CoreId,
        /// Cause label ([`crate::stats::StallCause::label`]).
        cause: &'static str,
        /// Mnemonic of the responsible barrier.
        what: &'static str,
    },
    /// A barrier-stall run ended (cause changed or issue made progress).
    StallEnd {
        /// Core.
        core: CoreId,
        /// Cause label of the run that ended.
        cause: &'static str,
        /// Mnemonic of the responsible barrier.
        what: &'static str,
        /// Cycle the run began (the matching [`Event::StallBegin`]).
        since: Cycle,
    },
}

impl Event {
    /// The core the event belongs to (every event has exactly one track).
    #[must_use]
    pub fn core(&self) -> CoreId {
        match self {
            Event::BarrierDone { core, .. }
            | Event::Iteration { core, .. }
            | Event::StallBegin { core, .. }
            | Event::StallEnd { core, .. } => *core,
        }
    }
}

/// A timestamped event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamped {
    /// Cycle the event happened.
    pub at: Cycle,
    /// What happened.
    pub event: Event,
}

/// Ring capacity of a [`Default`]-constructed trace.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// A bounded event ring.
#[derive(Debug)]
pub struct Trace {
    /// Whether events are recorded.
    pub enabled: bool,
    ring: VecDeque<Stamped>,
    capacity: usize,
}

impl Default for Trace {
    /// A disabled trace with [`DEFAULT_TRACE_CAPACITY`]. (A derived default
    /// would have capacity 0 and, enabled, grow without bound.)
    fn default() -> Trace {
        Trace::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl Trace {
    /// A disabled trace holding up to `capacity` events once enabled.
    #[must_use]
    pub fn new(capacity: usize) -> Trace {
        Trace {
            enabled: false,
            ring: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Record an event (no-op while disabled).
    pub fn record(&mut self, at: Cycle, event: Event) {
        if !self.enabled {
            return;
        }
        while self.ring.len() >= self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(Stamped { at, event });
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Stamped> {
        self.ring.iter()
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Export the retained window as Chrome-trace JSON (the "JSON Array
    /// Format" both `chrome://tracing` and Perfetto accept).
    ///
    /// Each core becomes one track (`tid`); stall runs become complete
    /// (`"ph":"X"`) slices spanning begin→end, everything else becomes
    /// instant (`"ph":"i"`) events. Cycles map 1:1 onto microsecond
    /// timestamps — relative widths are what matter. Events are emitted in
    /// ascending-timestamp order, so per-track timestamps are monotone.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut items: Vec<(Cycle, String)> = Vec::with_capacity(self.ring.len());
        for s in &self.ring {
            match &s.event {
                Event::StallEnd {
                    core,
                    cause,
                    what,
                    since,
                } => {
                    items.push((
                        *since,
                        format!(
                            "{{\"name\":{},\"cat\":\"stall\",\"ph\":\"X\",\"ts\":{},\
                             \"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{\"barrier\":{}}}}}",
                            json_string(&format!("stall:{cause}")),
                            since,
                            s.at - since,
                            core,
                            json_string(what),
                        ),
                    ));
                }
                Event::StallBegin { .. } => {
                    // The matching StallEnd carries the whole slice; an
                    // extra instant would only clutter the track. Runs still
                    // open when the trace stopped simply have no slice.
                }
                other => {
                    let (core, name, args) = match other {
                        Event::BarrierDone { core, what } => {
                            (*core, format!("barrier-done:{what}"), None)
                        }
                        Event::Iteration { core, count } => (
                            *core,
                            "iteration".to_string(),
                            Some(format!("{{\"count\":{count}}}")),
                        ),
                        Event::StallBegin { .. } | Event::StallEnd { .. } => unreachable!(),
                    };
                    let args = args.unwrap_or_else(|| "{}".to_string());
                    items.push((
                        s.at,
                        format!(
                            "{{\"name\":{},\"cat\":\"event\",\"ph\":\"i\",\"ts\":{},\
                             \"s\":\"t\",\"pid\":0,\"tid\":{},\"args\":{args}}}",
                            json_string(&name),
                            s.at,
                            core,
                        ),
                    ));
                }
            }
        }
        items.sort_by_key(|(ts, _)| *ts);
        let mut out = String::from("{\"traceEvents\":[");
        for (i, (_, item)) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(item);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Quote a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(8);
        t.record(1, Event::Iteration { core: 0, count: 1 });
        assert!(t.is_empty());
    }

    #[test]
    fn ring_keeps_the_most_recent_window() {
        let mut t = Trace::new(3);
        t.enabled = true;
        for i in 0..5 {
            t.record(i, Event::Iteration { core: 0, count: i });
        }
        assert_eq!(t.len(), 3);
        let firsts: Vec<Cycle> = t.events().map(|e| e.at).collect();
        assert_eq!(firsts, vec![2, 3, 4]);
    }

    #[test]
    fn default_trace_is_bounded_once_enabled() {
        // Regression: the derived Default used to have capacity 0, and the
        // `==` eviction check could never fire, so the ring grew forever.
        let mut t = Trace {
            enabled: true,
            ..Trace::default()
        };
        let n = DEFAULT_TRACE_CAPACITY as u64 + 100;
        for i in 0..n {
            t.record(i, Event::Iteration { core: 0, count: i });
        }
        assert_eq!(t.len(), DEFAULT_TRACE_CAPACITY);
        assert_eq!(t.events().next().unwrap().at, 100);
    }

    #[test]
    fn enabled_trace_never_exceeds_capacity() {
        for cap in [1usize, 2, 7] {
            let mut t = Trace::new(cap);
            t.enabled = true;
            for i in 0..50u64 {
                t.record(i, Event::Iteration { core: 0, count: i });
                assert!(t.len() <= cap, "capacity {cap} exceeded at push {i}");
            }
            assert_eq!(t.len(), cap);
        }
    }

    #[test]
    fn chrome_export_turns_stall_runs_into_slices() {
        let mut t = Trace::new(16);
        t.enabled = true;
        t.record(
            5,
            Event::StallBegin {
                core: 1,
                cause: "memory-block",
                what: "DMB full",
            },
        );
        t.record(
            12,
            Event::StallEnd {
                core: 1,
                cause: "memory-block",
                what: "DMB full",
                since: 5,
            },
        );
        t.record(
            20,
            Event::BarrierDone {
                core: 1,
                what: "DMB full",
            },
        );
        let json = t.to_chrome_json();
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":5"));
        assert!(json.contains("\"dur\":7"));
        assert!(json.contains("barrier-done:DMB full"));
        // The begin instant is folded into the slice, not emitted twice.
        assert!(!json.contains("stall-begin"));
    }

    #[test]
    fn events_know_their_core() {
        assert_eq!(Event::Iteration { core: 7, count: 1 }.core(), 7);
        assert_eq!(
            Event::StallEnd {
                core: 3,
                cause: "c",
                what: "w",
                since: 0
            }
            .core(),
            3
        );
    }

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
    }
}
