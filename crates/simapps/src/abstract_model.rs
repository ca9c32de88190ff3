//! Algorithm 1 — the abstracted barrier model (§3.2).
//!
//! A loop that touches two fresh cache lines per iteration (lines last
//! owned by a remote peer, so each access is an RMR), with a configurable
//! barrier at one of two locations:
//!
//! ```text
//! Loop:  advance both buffer pointers (ALU work)
//!        ldr/str [buf1]        ← the RMR
//!        BARRIER_LOC_1
//!        NOPs                  ← frequency knob
//!        BARRIER_LOC_2
//!        ldr/str [buf2]
//!        bookkeeping, branch
//! ```
//!
//! The figures vary: which memory ops are present (none for Figure 2, two
//! stores for Figure 3, load+store for Figure 5), the barrier kind, its
//! location, and the nop count.

use armbar_barriers::{Acquire, Barrier};
use armbar_sim::{Cpu, Machine, Op, Platform, Script};

use crate::bind::BindConfig;
use crate::lower::fence;

/// Which access Algorithm 1's line 4 / line 8 performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOpKind {
    /// `ldr` (fire-and-forget; the value is unused).
    Load,
    /// `str`.
    Store,
}

/// Where the barrier goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BarrierLoc {
    /// `BARRIER_LOC_1`: strictly after the first memory op (the `X-1`
    /// series in the figures).
    AfterOp1,
    /// `BARRIER_LOC_2`: after the nops, right before the second op (`X-2`).
    BeforeOp2,
}

/// One abstracted-model configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelSpec {
    /// Line 4's access (`None` drops it, as in Figure 2).
    pub op1: Option<MemOpKind>,
    /// Line 8's access.
    pub op2: Option<MemOpKind>,
    /// The order-preserving approach under test.
    pub barrier: Barrier,
    /// Placement of a standalone barrier instruction (ignored for
    /// access-attached approaches like LDAR/STLR/dependencies).
    pub location: BarrierLoc,
    /// Nops between the two ops (the "occurrence frequency" knob).
    pub nops: u32,
}

impl ModelSpec {
    /// Figure 2's shape: no memory operations, barrier between nop blocks.
    #[must_use]
    pub fn no_mem(barrier: Barrier, nops: u32) -> ModelSpec {
        ModelSpec {
            op1: None,
            op2: None,
            barrier,
            location: BarrierLoc::AfterOp1,
            nops,
        }
    }

    /// Figure 3's shape: store → store.
    #[must_use]
    pub fn store_store(barrier: Barrier, location: BarrierLoc, nops: u32) -> ModelSpec {
        ModelSpec {
            op1: Some(MemOpKind::Store),
            op2: Some(MemOpKind::Store),
            barrier,
            location,
            nops,
        }
    }

    /// Figure 5's shape: load → store.
    #[must_use]
    pub fn load_store(barrier: Barrier, location: BarrierLoc, nops: u32) -> ModelSpec {
        ModelSpec {
            op1: Some(MemOpKind::Load),
            op2: Some(MemOpKind::Store),
            barrier,
            location,
            nops,
        }
    }
}

/// Loop bookkeeping cost in ALU instructions (two pointer advances, a
/// counter increment, compare + branch — Algorithm 1 lines 2, 3, 9, 10).
const LOOP_ALU_OPS: u32 = 5;

/// Base addresses of the two walked buffers.
const BUF1_BASE: u64 = 0x1000_0000;
const BUF2_BASE: u64 = 0x2000_0000;

/// Line 4's (`which` = 1) or line 8's (2) access of iteration `done`, if
/// the spec has one.
fn mem_op(spec: ModelSpec, which: u8, done: u64) -> Option<Op> {
    let (kind, base) = match which {
        1 => (spec.op1?, BUF1_BASE),
        _ => (spec.op2?, BUF2_BASE),
    };
    let addr = base + done * 64;
    Some(match kind {
        MemOpKind::Load => {
            if which == 1 && spec.barrier == Barrier::Ldar {
                // LDAR attaches to the first access.
                Op::Load {
                    addr,
                    use_value: false,
                    acquire: Acquire::Sc,
                    dep_on_last_load: false,
                }
            } else {
                Op::load(addr)
            }
        }
        MemOpKind::Store => {
            let release = which == 2 && spec.barrier == Barrier::Stlr;
            let dep = which == 2
                && matches!(
                    spec.barrier,
                    Barrier::DataDep | Barrier::AddrDep | Barrier::Ctrl
                );
            Op::Store {
                addr,
                value: done + 1,
                release,
                dep_on_last_load: dep,
            }
        }
    })
}

/// The Algorithm 1 thread.
async fn model_thread(cpu: Cpu, spec: ModelSpec, iterations: u64) {
    let mut done = 0;
    loop {
        cpu.op(Op::Nops(LOOP_ALU_OPS)).await;
        if let Some(op) = mem_op(spec, 1, done) {
            cpu.op(op).await;
        }
        // A standalone barrier instruction goes where the spec places it
        // (CTRL+ISB: the ISB sits where the barrier would).
        if spec.location == BarrierLoc::AfterOp1 {
            fence(cpu, spec.barrier).await;
        }
        if spec.nops > 0 {
            cpu.op(Op::Nops(spec.nops)).await;
        }
        if spec.location == BarrierLoc::BeforeOp2 {
            fence(cpu, spec.barrier).await;
        }
        if let Some(op) = mem_op(spec, 2, done) {
            cpu.op(op).await;
        }
        done += 1;
        if done >= iterations {
            return;
        }
        cpu.op(Op::IterationMark).await;
    }
}

/// Result of one model run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelResult {
    /// Completed loop iterations.
    pub iterations: u64,
    /// Cycles consumed.
    pub cycles: u64,
    /// Loops per second at the platform's clock (the figures' y-axis).
    pub loops_per_sec: f64,
}

/// Run one abstracted-model configuration under a placement.
///
/// The buffers' lines are homed at the peer core, making every access an
/// RMR at the placement's distance — the effect of §3.2's two alternating
/// threads, without simulating the idle half of the hand-off.
#[must_use]
pub fn run_model(bind: BindConfig, spec: ModelSpec, iterations: u64) -> ModelResult {
    run_model_on(
        &bind.platform(),
        bind.primary_core(),
        bind.peer_core(),
        spec,
        iterations,
    )
}

/// As [`run_model`], with an explicit platform and core pair.
#[must_use]
pub fn run_model_on(
    platform: &Platform,
    core: usize,
    peer: usize,
    spec: ModelSpec,
    iterations: u64,
) -> ModelResult {
    let mut m = Machine::new(platform.clone());
    let span = iterations * 64 + 64;
    m.set_region_home(BUF1_BASE, BUF1_BASE + span, peer);
    m.set_region_home(BUF2_BASE, BUF2_BASE + span, peer);
    m.add_thread_on(
        core,
        Box::new(Script::new(|cpu| model_thread(cpu, spec, iterations))),
    );
    // Generous budget: the heaviest spec is DSB with huge nop counts.
    let max_cycles = iterations * (u64::from(spec.nops) + 4096) + 100_000;
    let stats = m.run(max_cycles);
    assert!(stats.halted, "model must finish within the cycle budget");
    let s = m.core_stats(core);
    ModelResult {
        iterations: s.iterations,
        cycles: s.cycles,
        loops_per_sec: platform.iterations_per_second(s.iterations, s.cycles),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ITERS: u64 = 400;

    fn tput(bind: BindConfig, spec: ModelSpec) -> f64 {
        run_model(bind, spec, ITERS).loops_per_sec
    }

    // ---------------------------------------------------------- Figure 2

    #[test]
    fn observation1_intrinsic_overhead_is_stable_and_intuitive() {
        // DMB lightest, ISB flushes, DSB heaviest; options of one family
        // perform alike when no memory ops are around.
        for bind in [
            BindConfig::KunpengCrossNodes,
            BindConfig::Kirin960,
            BindConfig::RaspberryPi4,
        ] {
            let at = |b| tput(bind, ModelSpec::no_mem(b, 30));
            let none = at(Barrier::None);
            let dmb = at(Barrier::DmbFull);
            let isb = at(Barrier::Isb);
            let dsb = at(Barrier::DsbFull);
            assert!(dmb <= none * 1.01, "{bind:?}: DMB {dmb} vs none {none}");
            assert!(dmb > none * 0.5, "{bind:?}: DMB must be light");
            assert!(isb < dmb, "{bind:?}: ISB flushes the pipeline");
            assert!(dsb < isb, "{bind:?}: DSB heaviest");
            // Options within a family are equivalent without memory ops.
            let dmb_st = at(Barrier::DmbSt);
            let dmb_ld = at(Barrier::DmbLd);
            assert!((dmb_st - dmb).abs() / dmb < 0.1);
            assert!((dmb_ld - dmb).abs() / dmb < 0.1);
            let dsb_st = at(Barrier::DsbSt);
            assert!((dsb_st - dsb).abs() / dsb < 0.1, "{bind:?}");
        }
    }

    // ---------------------------------------------------------- Figure 3

    #[test]
    fn observation2_barrier_after_rmr_is_the_expensive_location() {
        // At the cross-node tipping region, DMB full-1 is much slower than
        // DMB full-2.
        let bind = BindConfig::KunpengCrossNodes;
        let nops = 700;
        let full1 = tput(
            bind,
            ModelSpec::store_store(Barrier::DmbFull, BarrierLoc::AfterOp1, nops),
        );
        let full2 = tput(
            bind,
            ModelSpec::store_store(Barrier::DmbFull, BarrierLoc::BeforeOp2, nops),
        );
        let none = tput(
            bind,
            ModelSpec::store_store(Barrier::None, BarrierLoc::BeforeOp2, nops),
        );
        assert!(full1 < 0.75 * full2, "X-1 {full1} must trail X-2 {full2}");
        assert!(full2 > 0.85 * none, "enough nops hide X-2 entirely");
    }

    #[test]
    fn observation3_stlr_can_lose_to_dmb_full() {
        // Kunpeng, generous nops: STLR stays below DMB full-2 (the paper's
        // surprise), and between DSB and DMB st.
        let bind = BindConfig::KunpengCrossNodes;
        let nops = 700;
        let stlr = tput(
            bind,
            ModelSpec::store_store(Barrier::Stlr, BarrierLoc::BeforeOp2, nops),
        );
        let full2 = tput(
            bind,
            ModelSpec::store_store(Barrier::DmbFull, BarrierLoc::BeforeOp2, nops),
        );
        let st2 = tput(
            bind,
            ModelSpec::store_store(Barrier::DmbSt, BarrierLoc::BeforeOp2, nops),
        );
        let dsb = tput(
            bind,
            ModelSpec::store_store(Barrier::DsbFull, BarrierLoc::BeforeOp2, nops),
        );
        assert!(
            stlr < full2,
            "STLR {stlr} loses to the stronger DMB full {full2}"
        );
        assert!(stlr < st2, "STLR below DMB st");
        assert!(stlr > dsb, "STLR above DSB");
    }

    #[test]
    fn observation4_server_variation_dwarfs_mobile() {
        // Relative spread between the best and worst barrier choice is far
        // larger on the server than on mobile at matched nop counts.
        fn spread(bind: BindConfig, nops: u32) -> f64 {
            let none = run_model(
                bind,
                ModelSpec::store_store(Barrier::None, BarrierLoc::BeforeOp2, nops),
                ITERS,
            )
            .loops_per_sec;
            let dsb = run_model(
                bind,
                ModelSpec::store_store(Barrier::DsbFull, BarrierLoc::BeforeOp2, nops),
                ITERS,
            )
            .loops_per_sec;
            none / dsb
        }
        let server = spread(BindConfig::KunpengCrossNodes, 60);
        let kirin = spread(BindConfig::Kirin960, 60);
        let rpi = spread(BindConfig::RaspberryPi4, 60);
        assert!(
            server > 2.0 * kirin,
            "server spread {server} vs kirin {kirin}"
        );
        assert!(server > 2.0 * rpi, "server spread {server} vs rpi {rpi}");
    }

    #[test]
    fn observation5_crossing_nodes_is_a_killer_but_not_for_dsb() {
        let nops = 150;
        let same = |b| {
            tput(
                BindConfig::KunpengSameNode,
                ModelSpec::store_store(b, BarrierLoc::AfterOp1, nops),
            )
        };
        let cross = |b| {
            tput(
                BindConfig::KunpengCrossNodes,
                ModelSpec::store_store(b, BarrierLoc::AfterOp1, nops),
            )
        };
        // DMB full benefits strongly from locality…
        let dmb_gain = same(Barrier::DmbFull) / cross(Barrier::DmbFull);
        // …DSB does not (the sync transaction always reaches the domain
        // boundary).
        let dsb_gain = same(Barrier::DsbFull) / cross(Barrier::DsbFull);
        assert!(dmb_gain > 1.5, "DMB locality gain {dmb_gain}");
        assert!(dsb_gain < 1.3, "DSB must not benefit much, got {dsb_gain}");
    }

    #[test]
    fn dmb_st_does_not_throttle_nops() {
        // DMB st never holds the ROB, so with plentiful nops it tracks
        // No Barrier closely even at location 1 (unlike DMB full).
        let bind = BindConfig::KunpengCrossNodes;
        let nops = 1500;
        let st1 = tput(
            bind,
            ModelSpec::store_store(Barrier::DmbSt, BarrierLoc::AfterOp1, nops),
        );
        let st2 = tput(
            bind,
            ModelSpec::store_store(Barrier::DmbSt, BarrierLoc::BeforeOp2, nops),
        );
        let none = tput(
            bind,
            ModelSpec::store_store(Barrier::None, BarrierLoc::BeforeOp2, nops),
        );
        assert!(st1 > 0.85 * none, "DMB st-1 {st1} ≈ No Barrier {none}");
        assert!((st1 - st2).abs() / st2 < 0.15, "st-1 ≈ st-2");
    }

    // ---------------------------------------------------------- Figure 5

    #[test]
    fn observation6_bus_free_approaches_win_load_store() {
        let bind = BindConfig::KunpengCrossNodes;
        let nops = 300;
        let at = |b, loc| tput(bind, ModelSpec::load_store(b, loc, nops));
        let none = at(Barrier::None, BarrierLoc::BeforeOp2);
        let dep = at(Barrier::DataDep, BarrierLoc::BeforeOp2);
        let addr = at(Barrier::AddrDep, BarrierLoc::BeforeOp2);
        let ctrl = at(Barrier::Ctrl, BarrierLoc::BeforeOp2);
        let ldar = at(Barrier::Ldar, BarrierLoc::AfterOp1);
        let full1 = at(Barrier::DmbFull, BarrierLoc::AfterOp1);
        let dsb1 = at(Barrier::DsbFull, BarrierLoc::AfterOp1);
        // Dependencies are free.
        for (name, v) in [("data", dep), ("addr", addr), ("ctrl", ctrl)] {
            assert!(v > 0.9 * none, "{name} dep {v} ≈ no barrier {none}");
        }
        // Bus-involving barriers at location 1 pay heavily.
        assert!(
            full1 < 0.9 * none,
            "DMB full-1 {full1} below no barrier {none}"
        );
        assert!(dsb1 < full1, "DSB worst");
        // LDAR does not involve the bus: beats DMB full-1.
        assert!(ldar > full1, "LDAR {ldar} over DMB full-1 {full1}");
    }

    #[test]
    fn load_barriers_at_loc1_trail_loc2() {
        // DMB ld-1 waits for the outstanding remote load; DMB ld-2 issues
        // after the nops hid it.
        let bind = BindConfig::KunpengCrossNodes;
        let nops = 300;
        let ld1 = tput(
            bind,
            ModelSpec::load_store(Barrier::DmbLd, BarrierLoc::AfterOp1, nops),
        );
        let ld2 = tput(
            bind,
            ModelSpec::load_store(Barrier::DmbLd, BarrierLoc::BeforeOp2, nops),
        );
        assert!(ld1 <= ld2 * 1.02, "ld-1 {ld1} <= ld-2 {ld2}");
    }

    #[test]
    fn ctrl_isb_pays_the_flush() {
        let bind = BindConfig::KunpengCrossNodes;
        let nops = 300;
        let ctrl_isb = tput(
            bind,
            ModelSpec::load_store(Barrier::CtrlIsb, BarrierLoc::AfterOp1, nops),
        );
        let dep = tput(
            bind,
            ModelSpec::load_store(Barrier::AddrDep, BarrierLoc::BeforeOp2, nops),
        );
        assert!(ctrl_isb < dep, "CTRL+ISB {ctrl_isb} below pure deps {dep}");
    }

    #[test]
    fn results_are_deterministic() {
        let spec = ModelSpec::store_store(Barrier::DmbFull, BarrierLoc::AfterOp1, 150);
        let a = run_model(BindConfig::KunpengSameNode, spec, 200);
        let b = run_model(BindConfig::KunpengSameNode, spec, 200);
        assert_eq!(a.cycles, b.cycles);
    }
}
