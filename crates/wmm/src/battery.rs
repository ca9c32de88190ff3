//! The extended litmus battery: the classic shapes beyond MP/SB/LB, each
//! with its textbook verdict under ARMv8's multi-copy-atomic WMM.
//!
//! These tests pin down *which* weak-memory model the explorer implements:
//! ARMv8 (post-[36], as the paper notes) is **other-multi-copy-atomic** —
//! a store becomes visible to every *other* observer at once — so shapes
//! like WRC+addrs and IRIW+addrs are forbidden even without full barriers,
//! while plain non-MCA machines (e.g. POWER) allow them.

use std::time::{Duration, Instant};

use armbar_barriers::Barrier;

use crate::explore::explore;
use crate::litmus::{woven, LitmusTest};
use crate::model::{Instr, MemoryModel, Program, Thread};
use crate::pool::claim_fold;

fn thread(instrs: Vec<Instr>) -> Thread {
    Thread { instrs }
}

/// **CoRR** (coherence of read-read): two loads of one location may not see
/// values out of coherence order. Forbidden under every model here
/// (same-location program order is preserved).
#[must_use]
pub fn corr() -> LitmusTest {
    // T0: x=1. T1: r0=x; r1=x. Relaxed: r0=1 && r1=0.
    let t0 = vec![Instr::store(0, 1)];
    let t1 = vec![Instr::load(0, 0), Instr::load(1, 0)];
    LitmusTest {
        name: "CoRR".to_string(),
        program: Program {
            threads: vec![thread(t0), thread(t1)],
            init: vec![],
        },
        relaxed: Box::new(|o| o.reg(1, 0) == 1 && o.reg(1, 1) == 0),
    }
}

/// **WRC** (write-to-read causality): T0 writes x; T1 reads it and writes
/// y; T2 reads y then x. With address dependencies on both readers the
/// relaxed outcome (T2 sees y but stale x) is **forbidden on MCA ARMv8**.
#[must_use]
pub fn wrc_addrs() -> LitmusTest {
    let t0 = vec![Instr::store(0, 1)];
    let t1 = vec![Instr::load(0, 0), Instr::store_data_dep(1, 1, 0)];
    let t2 = vec![Instr::load(0, 1), Instr::load_addr_dep(1, 0, 0)];
    LitmusTest {
        name: "WRC+data+addr".to_string(),
        program: Program {
            threads: vec![thread(t0), thread(t1), thread(t2)],
            init: vec![],
        },
        relaxed: Box::new(|o| o.reg(1, 0) == 1 && o.reg(2, 0) == 1 && o.reg(2, 1) == 0),
    }
}

/// **WRC** without any ordering: the relaxed outcome is reachable (T2's
/// loads may reorder).
#[must_use]
pub fn wrc_plain() -> LitmusTest {
    let t0 = vec![Instr::store(0, 1)];
    let t1 = vec![Instr::load(0, 0), Instr::store_data_dep(1, 1, 0)];
    let t2 = vec![Instr::load(0, 1), Instr::load(1, 0)];
    LitmusTest {
        name: "WRC+data+po".to_string(),
        program: Program {
            threads: vec![thread(t0), thread(t1), thread(t2)],
            init: vec![],
        },
        relaxed: Box::new(|o| o.reg(1, 0) == 1 && o.reg(2, 0) == 1 && o.reg(2, 1) == 0),
    }
}

/// **IRIW** (independent reads of independent writes) with address
/// dependencies: the two readers disagree on the order of the two writes.
/// Forbidden on MCA ARMv8; the canonical non-MCA witness.
#[must_use]
pub fn iriw_addrs() -> LitmusTest {
    let t0 = vec![Instr::store(0, 1)];
    let t1 = vec![Instr::store(1, 1)];
    let t2 = vec![Instr::load(0, 0), Instr::load_addr_dep(1, 1, 0)];
    let t3 = vec![Instr::load(0, 1), Instr::load_addr_dep(1, 0, 0)];
    LitmusTest {
        name: "IRIW+addrs".to_string(),
        program: Program {
            threads: vec![thread(t0), thread(t1), thread(t2), thread(t3)],
            init: vec![],
        },
        relaxed: Box::new(|o| {
            o.reg(2, 0) == 1 && o.reg(2, 1) == 0 && o.reg(3, 0) == 1 && o.reg(3, 1) == 0
        }),
    }
}

/// **S**: T0 stores x then (ordered) y; T1 reads y then overwrites x.
/// Relaxed outcome: T1 saw y yet its store to x is *older* in coherence
/// than T0's — observable here as final `x == 2` being impossible… the
/// explorer's final-memory view makes the classic formulation awkward, so
/// we use the store->store + read->store shape directly.
#[must_use]
pub fn s_shape(producer_barrier: Barrier) -> LitmusTest {
    // T0: x=2; <barrier>; y=1.  T1: r0=y; x=1 (ctrl dep).
    // Relaxed: r0=1 && final x == 2 (T1's overwrite lost *behind* T0's).
    let t0 = woven(producer_barrier, Instr::store(0, 2), Instr::store(1, 1));
    let t1 = vec![Instr::load(0, 1), Instr::store_ctrl_dep(0, 1, 0)];
    LitmusTest {
        name: format!("S+{producer_barrier}+ctrl"),
        program: Program {
            threads: vec![t0, thread(t1)],
            init: vec![],
        },
        relaxed: Box::new(|o| o.reg(1, 0) == 1 && o.mem(0) == 2),
    }
}

/// **R**: stores racing a store-load pair; needs the full barrier.
#[must_use]
pub fn r_shape(barrier: Barrier) -> LitmusTest {
    // T0: x=1; <b>; y=1.  T1: y=2; <b>; r0=x.
    // Relaxed: final y == 2 && r0 == 0.
    let t0 = woven(barrier, Instr::store(0, 1), Instr::store(1, 1));
    let t1 = woven(barrier, Instr::store(1, 2), Instr::load(0, 0));
    LitmusTest {
        name: format!("R+{barrier}"),
        program: Program {
            threads: vec![t0, t1],
            init: vec![],
        },
        relaxed: Box::new(|o| o.mem(1) == 2 && o.reg(1, 0) == 0),
    }
}

/// **2+2W**: two threads each write both locations in opposite orders.
/// Relaxed outcome: both locations keep the *first* writes (x=2 && y=2 with
/// the numbering below) — reachable without store-store ordering.
#[must_use]
pub fn two_plus_two_w(barrier: Barrier) -> LitmusTest {
    // T0: x=1; <b>; y=2.  T1: y=1; <b>; x=2.  Relaxed: x==1 && y==1 is the
    // coherent-everything case; the relaxed witness is x==2 && y==2? With
    // final-state semantics the reachable sets differ per model; we assert
    // the canonical one: final x == 2 && y == 2 requires both second writes
    // to lose, i.e. both first writes to land *after* — impossible under
    // store-store ordering on both sides.
    let t0 = woven(barrier, Instr::store(0, 1), Instr::store(1, 2));
    let t1 = woven(barrier, Instr::store(1, 1), Instr::store(0, 2));
    LitmusTest {
        name: format!("2+2W+{barrier}"),
        program: Program {
            threads: vec![t0, t1],
            init: vec![],
        },
        relaxed: Box::new(|o| o.mem(0) == 1 && o.mem(1) == 1),
    }
}

/// The whole battery with its expected ARM-WMM verdicts
/// (`(test, allowed_under_wmm)`), for table printing and exhaustive tests.
#[must_use]
pub fn battery() -> Vec<(LitmusTest, bool)> {
    vec![
        (corr(), false),
        (wrc_plain(), true),
        (wrc_addrs(), false),
        (iriw_addrs(), false),
        (s_shape(Barrier::None), true),
        (s_shape(Barrier::DmbSt), false),
        (r_shape(Barrier::None), true),
        (r_shape(Barrier::DmbFull), false),
        (two_plus_two_w(Barrier::None), true),
        (two_plus_two_w(Barrier::DmbSt), false),
    ]
}

/// Measured result of one battery litmus test.
#[derive(Debug, Clone)]
pub struct BatteryRun {
    /// Litmus test name.
    pub name: String,
    /// The battery's textbook verdict for ARM WMM.
    pub expected_allowed: bool,
    /// Whether the relaxed outcome was reachable under the explored model.
    pub allowed: bool,
    /// Number of distinct final outcomes.
    pub outcome_count: usize,
    /// States the DFS visited (deterministic per program and model).
    pub states_visited: usize,
    /// Subtrees the DPOR engine pruned (deterministic, like
    /// `states_visited`).
    pub states_pruned: usize,
    /// Host wall-clock time of the exploration.
    pub wall: Duration,
}

/// Run the whole battery under `model` on `workers` threads.
///
/// Each litmus program is an independent DFS, so the battery parallelizes
/// embarrassingly: workers claim tests from a shared counter and results are
/// reassembled in battery order, making the output independent of worker
/// count. `workers <= 1` runs the old serial path on the calling thread.
#[must_use]
pub fn run_battery(model: MemoryModel, workers: usize) -> Vec<BatteryRun> {
    let tests = battery();
    let run_one = |(test, expect): &(LitmusTest, bool)| {
        let start = Instant::now();
        let set = explore(&test.program, model);
        BatteryRun {
            name: test.name.clone(),
            expected_allowed: *expect,
            allowed: set.outcomes.iter().any(|o| (test.relaxed)(o)),
            outcome_count: set.outcomes.len(),
            states_visited: set.states_visited,
            states_pruned: set.states_pruned,
            wall: start.elapsed(),
        }
    };
    if workers <= 1 {
        return tests.iter().map(run_one).collect();
    }
    let mut runs: Vec<(usize, BatteryRun)> =
        claim_fold(&tests, workers, Vec::new, |done, ix, test| {
            done.push((ix, run_one(test)));
        })
        .into_iter()
        .flatten()
        .collect();
    runs.sort_unstable_by_key(|&(ix, _)| ix);
    runs.into_iter().map(|(_, run)| run).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore_oracle;
    use crate::model::MemoryModel;

    #[test]
    fn corr_is_forbidden_everywhere() {
        for m in MemoryModel::ALL {
            assert!(!corr().allowed(m), "{m:?}");
        }
    }

    #[test]
    fn wrc_needs_the_reader_side_dependency() {
        assert!(wrc_plain().allowed(MemoryModel::ArmWmm));
        assert!(
            !wrc_addrs().allowed(MemoryModel::ArmWmm),
            "MCA + addr deps forbid WRC"
        );
        assert!(!wrc_plain().allowed(MemoryModel::X86Tso));
    }

    #[test]
    fn iriw_with_addr_deps_is_forbidden_on_mca_arm() {
        assert!(!iriw_addrs().allowed(MemoryModel::ArmWmm));
        assert!(!iriw_addrs().allowed(MemoryModel::X86Tso));
    }

    #[test]
    fn s_shape_fixed_by_dmb_st() {
        assert!(s_shape(Barrier::None).allowed(MemoryModel::ArmWmm));
        assert!(!s_shape(Barrier::DmbSt).allowed(MemoryModel::ArmWmm));
        assert!(!s_shape(Barrier::Stlr).allowed(MemoryModel::ArmWmm));
    }

    #[test]
    fn r_shape_needs_full_barriers() {
        assert!(r_shape(Barrier::None).allowed(MemoryModel::ArmWmm));
        assert!(
            r_shape(Barrier::DmbSt).allowed(MemoryModel::ArmWmm),
            "st too weak for R"
        );
        assert!(!r_shape(Barrier::DmbFull).allowed(MemoryModel::ArmWmm));
    }

    #[test]
    fn two_plus_two_w_fixed_by_store_barriers() {
        assert!(two_plus_two_w(Barrier::None).allowed(MemoryModel::ArmWmm));
        assert!(!two_plus_two_w(Barrier::DmbSt).allowed(MemoryModel::ArmWmm));
        assert!(!two_plus_two_w(Barrier::None).allowed(MemoryModel::Sc));
    }

    #[test]
    fn battery_verdicts_hold() {
        for (test, expect_allowed) in battery() {
            assert_eq!(
                test.allowed(MemoryModel::ArmWmm),
                expect_allowed,
                "{} verdict mismatch",
                test.name
            );
        }
    }

    #[test]
    fn sc_forbids_every_battery_relaxation() {
        for (test, _) in battery() {
            assert!(
                !test.allowed(MemoryModel::Sc),
                "{} must be SC-forbidden",
                test.name
            );
        }
    }

    #[test]
    fn parallel_battery_matches_serial_battery() {
        let serial = run_battery(MemoryModel::ArmWmm, 1);
        let parallel = run_battery(MemoryModel::ArmWmm, 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.name, p.name, "battery order must be preserved");
            assert_eq!(s.allowed, p.allowed, "{}", s.name);
            assert_eq!(s.outcome_count, p.outcome_count, "{}", s.name);
            assert_eq!(s.states_visited, p.states_visited, "{}", s.name);
            assert_eq!(s.allowed, s.expected_allowed, "{} verdict", s.name);
            assert!(s.states_visited > 0, "{} must report DFS work", s.name);
        }
    }

    #[test]
    fn engine_reaches_the_oracle_outcome_set_on_every_program() {
        // The DPOR engine behind `explore` must reach the enumerative
        // oracle's outcome set, with no more work, on every battery program
        // under every model.
        for (test, _) in battery() {
            for model in MemoryModel::ALL {
                let engine = explore(&test.program, model);
                let fx = explore_oracle(&test.program, model);
                assert_eq!(
                    engine.outcomes, fx.outcomes,
                    "engine diverged on {} under {model:?}",
                    test.name
                );
                assert!(
                    engine.states_visited <= fx.states_visited,
                    "DPOR must not expand more than the oracle on {}",
                    test.name
                );
                assert!(
                    engine.outcomes.windows(2).all(|w| w[0] < w[1]),
                    "outcomes sorted+distinct"
                );
            }
        }
    }
}
