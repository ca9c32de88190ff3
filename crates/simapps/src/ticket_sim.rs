//! Ticket lock on the simulator (Figure 7(a)).
//!
//! Competitor cores take tickets with an atomic fetch-add, spin on the
//! owner counter, run a critical section that reads and modifies a
//! configurable number of *global* cache lines plus a private counter, run
//! the configurable release-side barrier, and advance the owner.
//!
//! The figure's knob: when the critical section touches global lines, the
//! unlock barrier sits strictly after RMRs and its overhead becomes visible
//! (Observation 2); with zero global lines it is nearly free.
//!
//! What the lock's owner does between acquiring and handing off
//! (`critical_section`) and after the handoff (`pace`) is shared with
//! `mcs_sim`, so the two in-place baselines differ in their lock protocol
//! only.

use armbar_barriers::Barrier;
use armbar_sim::{Cpu, Op, Platform, RmwKind, Script, StallBreakdown, Trace};

use crate::harness::{machine, run_lock, RunOpts};
use crate::lower::fence;
use crate::metrics::DlockMetrics;

/// Shared-memory layout.
const NEXT_TICKET: u64 = 0x100;
const OWNER: u64 = 0x180;
const GLOBALS_BASE: u64 = 0x1000;
/// Per-thread private counters (distinct lines far from shared state).
const PRIVATE_BASE: u64 = 0x10_0000;

/// A critical section's walk over the shared lines `base + k * 64`: each of
/// the `lines` is read, then written with a data dependency on the value
/// just read.
pub(crate) async fn modify_lines(cpu: Cpu, base: u64, lines: u32) {
    for k in 0..u64::from(lines) {
        let addr = base + k * 64;
        let value = cpu.op(Op::load_use(addr)).await;
        cpu.op(Op::store_dep(addr, value.wrapping_add(1))).await;
    }
}

/// The lock-independent part of in-place competitor `id`'s critical section
/// after `done` acquisitions, and the unlock barrier that follows it.
pub(crate) async fn critical_section(cpu: Cpu, id: usize, cfg: &TicketConfig, done: u64) {
    // Read+modify each global line, plus the private counter and any local
    // work.
    modify_lines(cpu, GLOBALS_BASE, cfg.global_lines).await;
    cpu.op(Op::store(PRIVATE_BASE + id as u64 * 64, done + 1))
        .await;
    if cfg.cs_nops > 0 {
        cpu.op(Op::Nops(cfg.cs_nops)).await;
    }
    // unlock: the configurable barrier comes first.
    fence(cpu, cfg.release_barrier).await;
}

/// Between a handoff and the next acquisition: the contention knob (Figure
/// 7(c)'s interval), then the iteration mark.
pub(crate) async fn pace(cpu: Cpu, post_nops: u32) {
    if post_nops > 0 {
        cpu.op(Op::Nops(post_nops)).await;
    }
    cpu.op(Op::IterationMark).await;
}

/// One competitor.
async fn competitor(cpu: Cpu, id: usize, cfg: TicketConfig) {
    let mut done = 0;
    loop {
        // lock: take a ticket and spin on the owner counter.
        let ticket = cpu
            .op(Op::Rmw {
                addr: NEXT_TICKET,
                kind: RmwKind::FetchAdd,
                operand: 1,
                acquire: false,
                release: false,
            })
            .await;
        loop {
            cpu.spin_mark().await;
            if cpu.op(Op::load_use(OWNER)).await == ticket {
                break;
            }
            cpu.op(Op::Nops(1)).await;
        }
        // Acquire-side ordering (cheap, LDAR-class).
        cpu.op(Op::Fence(Barrier::DmbLd)).await;
        critical_section(cpu, id, &cfg, done).await;
        // unlock: advance the owner.
        cpu.op(Op::store(OWNER, ticket + 1)).await;
        done += 1;
        if done >= cfg.per_thread {
            return;
        }
        pace(cpu, cfg.post_nops).await;
    }
}

/// Configuration of one ticket-lock run.
#[derive(Debug, Clone, Copy)]
pub struct TicketConfig {
    /// Competitor cores.
    pub threads: usize,
    /// Global cache lines read+written per critical section (Figure 7(a)'s
    /// x-axis: 0, 1, 2).
    pub global_lines: u32,
    /// Extra local work inside the critical section.
    pub cs_nops: u32,
    /// Work between releases (contention knob).
    pub post_nops: u32,
    /// The unlock-side barrier.
    pub release_barrier: Barrier,
    /// Acquisitions per thread.
    pub per_thread: u64,
}

impl Default for TicketConfig {
    fn default() -> TicketConfig {
        TicketConfig {
            threads: 8,
            global_lines: 1,
            cs_nops: 10,
            post_nops: 20,
            release_barrier: Barrier::DmbSt,
            per_thread: 60,
        }
    }
}

/// Result of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LockResult {
    /// Total acquisitions.
    pub acquisitions: u64,
    /// Cycles until the last thread finished.
    pub cycles: u64,
    /// Acquisitions per second at the platform's clock.
    pub locks_per_sec: f64,
    /// Barrier-stall decomposition summed over all competitor cores.
    pub stall: StallBreakdown,
}

/// Run the ticket-lock benchmark. Threads are bound the way the paper binds
/// them: one per physical core, filling node 0 first.
#[must_use]
pub fn run_ticket(platform: &Platform, cfg: TicketConfig) -> LockResult {
    run_ticket_with(platform, cfg, RunOpts::default()).0.result
}

/// [`run_ticket`] under explicit [`RunOpts`], with the full response-time
/// metrics (latency histogram, Jain's fairness) and the recorded trace — one
/// timeline per competitor core, since every core takes the acquire fence
/// and the release gate. The subversion counter is zero by construction:
/// in-place locks never execute another thread's critical section.
#[must_use]
pub fn run_ticket_with(
    platform: &Platform,
    cfg: TicketConfig,
    opts: RunOpts,
) -> (DlockMetrics, Trace) {
    let mut m = machine("ticket", platform, cfg.threads, opts);
    for core in 0..cfg.threads {
        m.add_thread_on(
            core,
            Box::new(Script::new(|cpu| competitor(cpu, core, cfg))),
        );
    }
    let total = cfg.per_thread * cfg.threads as u64;
    let run = run_lock("ticket", &mut m, total, 0..cfg.threads);
    // Sanity: the lock really serialized every acquisition.
    assert_eq!(m.read_memory(NEXT_TICKET), total);
    assert_eq!(m.read_memory(OWNER), total);
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_serializes_and_counts() {
        let p = Platform::kunpeng916();
        let r = run_ticket(
            &p,
            TicketConfig {
                threads: 4,
                per_thread: 30,
                ..Default::default()
            },
        );
        assert_eq!(r.acquisitions, 120);
        assert!(r.locks_per_sec > 0.0);
    }

    #[test]
    fn fig7a_unlock_barrier_costs_with_global_lines() {
        // With global lines in the CS, removing the unlock barrier helps
        // noticeably (the paper's ~23%); with none it barely matters.
        let p = Platform::kunpeng916();
        let run = |lines, barrier| {
            run_ticket(
                &p,
                TicketConfig {
                    threads: 8,
                    global_lines: lines,
                    release_barrier: barrier,
                    per_thread: 40,
                    ..Default::default()
                },
            )
            .locks_per_sec
        };
        let with_lines_normal = run(2, Barrier::DmbSt);
        let with_lines_removed = run(2, Barrier::None);
        let gain_lines = with_lines_removed / with_lines_normal;
        let no_lines_normal = run(0, Barrier::DmbSt);
        let no_lines_removed = run(0, Barrier::None);
        let gain_none = no_lines_removed / no_lines_normal;
        assert!(
            gain_lines > 1.05,
            "barrier after RMRs must cost, gain {gain_lines}"
        );
        assert!(gain_lines > gain_none, "{gain_lines} vs {gain_none}");
    }

    #[test]
    fn fig7a_effect_is_muted_on_mobile() {
        let gain = |p: &Platform| {
            let normal = run_ticket(
                p,
                TicketConfig {
                    threads: 4,
                    global_lines: 2,
                    release_barrier: Barrier::DmbSt,
                    per_thread: 40,
                    ..Default::default()
                },
            )
            .locks_per_sec;
            let removed = run_ticket(
                p,
                TicketConfig {
                    threads: 4,
                    global_lines: 2,
                    release_barrier: Barrier::None,
                    per_thread: 40,
                    ..Default::default()
                },
            )
            .locks_per_sec;
            removed / normal
        };
        let server = gain(&Platform::kunpeng916());
        let mobile = gain(&Platform::kirin960());
        assert!(
            server > mobile,
            "server gain {server} vs mobile {mobile} (Observation 4)"
        );
    }

    #[test]
    fn dsb_release_is_the_worst() {
        let p = Platform::kunpeng916();
        let run = |barrier| {
            run_ticket(
                &p,
                TicketConfig {
                    threads: 4,
                    release_barrier: barrier,
                    per_thread: 30,
                    ..Default::default()
                },
            )
            .locks_per_sec
        };
        let st = run(Barrier::DmbSt);
        let dsb = run(Barrier::DsbFull);
        assert!(dsb < st, "DSB release {dsb} below DMB st {st}");
    }

    #[test]
    fn determinism() {
        let p = Platform::kirin970();
        let cfg = TicketConfig {
            threads: 3,
            per_thread: 25,
            ..Default::default()
        };
        assert_eq!(run_ticket(&p, cfg).cycles, run_ticket(&p, cfg).cycles);
    }

    #[test]
    #[should_panic(expected = "ticket: not enough cores: 5 > 4")]
    fn more_threads_than_cores_is_rejected() {
        let cfg = TicketConfig {
            threads: 5,
            ..Default::default()
        };
        let _ = run_ticket(&Platform::raspberry_pi4(), cfg);
    }
}
