//! The run harness every workload shares: how a [`Machine`] is set up for a
//! run (core-budget check included), and running a lock benchmark to
//! completion with its response-time collection.

use std::ops::Range;

use armbar_sim::{Engine, LatencyHistogram, Machine, Platform, StallBreakdown, Trace};

use crate::metrics::{jain_index, DlockMetrics};
use crate::ticket_sim::LockResult;

/// How a `run_x_with` entry point executes its workload. The default is what
/// the plain `run_x` uses: the machine's default engine, no tracing.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOpts {
    /// Pin the scheduling engine — the differential harness compares the
    /// event-driven engine against the lockstep oracle on identical
    /// workloads.
    pub engine: Option<Engine>,
    /// Record a machine-wide event trace in a ring of this many events
    /// (one timeline per active core, ready for `Trace::to_chrome_json`).
    pub trace_capacity: Option<usize>,
}

/// A fresh machine for `workload`, configured per `opts`. Panics unless
/// `platform` has the cores the workload occupies (ids below `needed`).
pub(crate) fn machine(
    workload: &str,
    platform: &Platform,
    needed: usize,
    opts: RunOpts,
) -> Machine {
    let available = platform.topology.core_count();
    assert!(
        needed <= available,
        "{workload}: not enough cores: {needed} > {available}"
    );
    let mut m = Machine::new(platform.clone());
    if let Some(engine) = opts.engine {
        m.set_engine(engine);
    }
    if let Some(capacity) = opts.trace_capacity {
        m.enable_trace(capacity);
    }
    m
}

/// Run a lock benchmark whose threads are already on `m` — the clients on
/// the `clients` cores, a dedicated server on the cores below them — and
/// collect it: stall decomposition over every active core, latency
/// histogram and Jain's fairness over the clients. `subverted` is left at
/// 0, which is what in-place locks report by construction.
pub(crate) fn run_lock(
    workload: &str,
    m: &mut Machine,
    total_ops: u64,
    clients: Range<usize>,
) -> (DlockMetrics, Trace) {
    let stats = m.run(total_ops * 400_000 + 2_000_000);
    assert!(
        stats.halted,
        "{workload} benchmark must finish (deadlock otherwise)"
    );
    let mut stall = StallBreakdown::default();
    for c in 0..clients.end {
        stall.merge(&m.core_stats(c).stall);
    }
    let mut latency = LatencyHistogram::default();
    let mut throughputs = Vec::with_capacity(clients.len());
    for c in clients {
        let cs = m.core_stats(c);
        latency.merge(&cs.latency);
        let halted_at = cs
            .halted_at
            .expect("halted run must stamp every client core");
        #[allow(clippy::cast_precision_loss)]
        throughputs.push(cs.iterations as f64 / halted_at.max(1) as f64);
    }
    let metrics = DlockMetrics {
        result: LockResult {
            acquisitions: total_ops,
            cycles: stats.cycles,
            locks_per_sec: m.platform().iterations_per_second(total_ops, stats.cycles),
            stall,
        },
        latency,
        fairness: jain_index(&throughputs),
        subverted: 0,
        total_ops,
    };
    (metrics, m.take_trace())
}
