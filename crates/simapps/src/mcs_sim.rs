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
//! The critical section, the release barrier and the end of the iteration
//! are `ticket_sim`'s `critical_section` and `pace` — a configurable number
//! of global lines read+written, a private counter, and ALU work — so MCS
//! and ticket numbers are directly comparable.

use armbar_barriers::Barrier;
use armbar_sim::{Cpu, Op, Platform, RmwKind, Script, Trace};

use crate::harness::{machine, run_lock, RunOpts};
use crate::lower::fence;
use crate::metrics::DlockMetrics;
use crate::ticket_sim::{critical_section, pace, LockResult, TicketConfig};

/// Shared-memory layout.
const TAIL: u64 = 0x200;
/// Queue nodes: locked word and next pointer on separate half-lines of a
/// padded 128-byte slot per thread.
const NODE_BASE: u64 = 0x2000;

fn locked_addr(node: u64) -> u64 {
    NODE_BASE + node * 128
}

fn next_addr(node: u64) -> u64 {
    NODE_BASE + node * 128 + 64
}

/// One competitor; `body` is its critical section and pacing.
async fn competitor(cpu: Cpu, id: usize, acquire_barrier: Barrier, body: TicketConfig) {
    // Our queue node (thread id + 1; 0 is nil).
    let me = id as u64 + 1;
    let mut done = 0;
    loop {
        // lock: reset our node…
        cpu.op(Op::store(locked_addr(me), 1)).await;
        cpu.op(Op::store(next_addr(me), 0)).await;
        // …swap it into the tail…
        let prev = cpu
            .op(Op::Rmw {
                addr: TAIL,
                kind: RmwKind::Swap,
                operand: me,
                acquire: true,
                release: true,
            })
            .await;
        // …and unless uncontended, link behind the predecessor and spin on
        // our own locked word (MCS's local spin).
        if prev != 0 {
            cpu.op(Op::store(next_addr(prev), me)).await;
            loop {
                cpu.spin_mark().await;
                if cpu.op(Op::load_use(locked_addr(me))).await == 0 {
                    break;
                }
                cpu.op(Op::Nops(1)).await;
            }
        }
        // Acquire-side ordering.
        fence(cpu, acquire_barrier).await;
        critical_section(cpu, id, &body, done).await;
        // unlock, after the barrier: hand off to the linked successor, or
        // retire the tail.
        let mut successor = cpu.op(Op::load_use(next_addr(me))).await;
        if successor == 0 {
            // No successor visible: try to swing the tail to nil.
            let tail = cpu
                .op(Op::Rmw {
                    addr: TAIL,
                    kind: RmwKind::Cas { expected: me },
                    operand: 0,
                    acquire: false,
                    release: true,
                })
                .await;
            // CAS succeeded: queue empty, lock free. Failed: a successor
            // swapped in but has not linked yet — wait for the link.
            if tail != me {
                while successor == 0 {
                    cpu.spin_mark().await;
                    successor = cpu.op(Op::load_use(next_addr(me))).await;
                }
            }
        }
        if successor != 0 {
            cpu.op(Op::store(locked_addr(successor), 0)).await;
        }
        done += 1;
        if done >= body.per_thread {
            return;
        }
        pace(cpu, body.post_nops).await;
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
    run_mcs_with(platform, cfg, RunOpts::default()).0.result
}

/// [`run_mcs`] under explicit [`RunOpts`], with the full response-time
/// metrics and the recorded trace.
#[must_use]
pub fn run_mcs_with(platform: &Platform, cfg: McsConfig, opts: RunOpts) -> (DlockMetrics, Trace) {
    let mut m = machine("mcs", platform, cfg.threads, opts);
    let body = TicketConfig {
        threads: cfg.threads,
        global_lines: cfg.global_lines,
        cs_nops: cfg.cs_nops,
        post_nops: cfg.post_nops,
        release_barrier: cfg.release_barrier,
        per_thread: cfg.per_thread,
    };
    for core in 0..cfg.threads {
        let acquire_barrier = cfg.acquire_barrier;
        m.add_thread_on(
            core,
            Box::new(Script::new(|cpu| {
                competitor(cpu, core, acquire_barrier, body)
            })),
        );
    }
    let total = cfg.per_thread * cfg.threads as u64;
    let run = run_lock("mcs", &mut m, total, 0..cfg.threads);
    // Sanity: the queue drained — the tail is nil again.
    assert_eq!(m.read_memory(TAIL), 0, "queue must drain");
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use armbar_sim::Engine;

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
        let cfg = McsConfig {
            threads: 1,
            per_thread: 40,
            ..Default::default()
        };
        let m = run_mcs_with(&p, cfg, RunOpts::default()).0;
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
        let on = |engine| RunOpts {
            engine: Some(engine),
            trace_capacity: None,
        };
        let a = run_mcs_with(&p, cfg, on(Engine::EventDriven)).0;
        let b = run_mcs_with(&p, cfg, on(Engine::LockstepOracle)).0;
        assert_eq!(a.result.cycles, b.result.cycles);
        assert_eq!(a.latency, b.latency);
    }

    #[test]
    #[should_panic(expected = "mcs: not enough cores: 5 > 4")]
    fn more_threads_than_cores_is_rejected() {
        let cfg = McsConfig {
            threads: 5,
            ..Default::default()
        };
        let _ = run_mcs(&Platform::raspberry_pi4(), cfg);
    }
}
