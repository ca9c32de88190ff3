//! The litmus-test suite.
//!
//! Classic shapes parameterized by the order-preserving approach under
//! test, so every cell of the paper's Table 3 can be checked: the
//! recommended approach must make the relaxed outcome unreachable, and the
//! too-weak approaches must leave it reachable.
//!
//! An approach goes between two accesses one way only: `weave` builds
//! `earlier; fence; later` and hands the fence to
//! [`replace_fence`], which the lint also
//! uses. Where that rewrite has no place for the approach (LDAR after a
//! store, CTRL before a load, …), [`table3_cell`] is `None` and the fixed
//! shapes below panic.
//!
//! Locations: `0 = data/x`, `1 = flag/y` by convention below.

use armbar_barriers::{AccessType, Acquire, Barrier};

use crate::explore::{explore, Outcome};
use crate::model::{Instr, MemoryModel, Program, Thread};
use crate::mutate::{replace_fence, BarrierSite, SiteKind};

/// A named litmus test: a program plus the *relaxed* (weak-model-only)
/// outcome predicate.
pub struct LitmusTest {
    /// Human-readable name, e.g. `"MP"` or `"MP+dmb.st+dmb.ld"`.
    pub name: String,
    /// The program.
    pub program: Program,
    /// The interesting relaxed outcome.
    pub relaxed: Box<dyn Fn(&Outcome) -> bool + Send + Sync>,
}

impl LitmusTest {
    /// Is the relaxed outcome reachable under `model`?
    #[must_use]
    pub fn allowed(&self, model: MemoryModel) -> bool {
        explore(&self.program, model).any(|o| (self.relaxed)(o))
    }
}

fn thread(instrs: Vec<Instr>) -> Thread {
    Thread { instrs }
}

/// One thread running `earlier` then `later`, with `approach` placed
/// between them by [`replace_fence`] — the same rewrite the lint uses to
/// substitute a fence, so a litmus shape and a lint proposal cannot
/// disagree on what an approach looks like. `None` where the approach
/// cannot go between these two accesses: an acquire with no load before
/// it, a release with no store after it, a dependency with no load to root
/// it or no access of the right kind to carry it.
pub(crate) fn weave(approach: Barrier, earlier: Instr, later: Instr) -> Option<Thread> {
    let placeholder = Barrier::DmbFull;
    let program = Program {
        threads: vec![thread(vec![earlier, Instr::Fence(placeholder), later])],
        init: vec![],
    };
    let site = BarrierSite {
        tid: 0,
        idx: 1,
        kind: SiteKind::Fence(placeholder),
    };
    replace_fence(&program, site, approach).map(|mut p| p.threads.remove(0))
}

/// [`weave`] for a shape whose caller chose the approach.
///
/// # Panics
///
/// Panics when `approach` cannot be placed between `earlier` and `later`.
pub(crate) fn woven(approach: Barrier, earlier: Instr, later: Instr) -> Thread {
    weave(approach, earlier, later)
        .unwrap_or_else(|| panic!("{approach} cannot be placed between `{earlier}` and `{later}`"))
}

/// **Table 1 / MP**: producer stores `data = 23` then `flag = 1` (ordered by
/// `producer_barrier`); consumer loads `flag` then `data` (ordered by
/// `consumer_barrier`). Relaxed outcome: consumer saw the flag but stale
/// data (`local != 23`).
#[must_use]
pub fn message_passing(producer_barrier: Barrier, consumer_barrier: Barrier) -> LitmusTest {
    let producer = woven(producer_barrier, Instr::store(0, 23), Instr::store(1, 1));
    let consumer = woven(consumer_barrier, Instr::load(0, 1), Instr::load(1, 0));
    LitmusTest {
        name: format!("MP+{producer_barrier}+{consumer_barrier}"),
        program: Program {
            threads: vec![producer, consumer],
            init: vec![],
        },
        relaxed: Box::new(|o| o.reg(1, 0) == 1 && o.reg(1, 1) != 23),
    }
}

/// **SB** (store buffering / Dekker): each thread stores its own location
/// then loads the other's. Relaxed outcome: both load 0.
#[must_use]
pub fn store_buffering(barrier: Barrier) -> LitmusTest {
    let t0 = woven(barrier, Instr::store(0, 1), Instr::load(0, 1));
    let t1 = woven(barrier, Instr::store(1, 1), Instr::load(0, 0));
    LitmusTest {
        name: format!("SB+{barrier}"),
        program: Program {
            threads: vec![t0, t1],
            init: vec![],
        },
        relaxed: Box::new(|o| o.reg(0, 0) == 0 && o.reg(1, 0) == 0),
    }
}

/// **LB** (load buffering): each thread loads the other's location then
/// stores its own. Relaxed outcome: both load 1 ("out of thin air"-adjacent,
/// but reachable by plain reordering).
#[must_use]
pub fn load_buffering(barrier: Barrier) -> LitmusTest {
    let t0 = woven(barrier, Instr::load(0, 0), Instr::store(1, 1));
    let t1 = woven(barrier, Instr::load(0, 1), Instr::store(0, 1));
    LitmusTest {
        name: format!("LB+{barrier}"),
        program: Program {
            threads: vec![t0, t1],
            init: vec![],
        },
        relaxed: Box::new(|o| o.reg(0, 0) == 1 && o.reg(1, 0) == 1),
    }
}

/// **Pilot/MP**: the Pilot transformation of MP — flag and payload share one
/// single-copy-atomic location, so the producer is a *single* store and the
/// consumer a *single* load, with no barrier anywhere. Relaxed outcome:
/// consumer observes a "new" (non-initial) value that is not the payload —
/// unreachable by construction.
#[must_use]
pub fn pilot_message_passing() -> LitmusTest {
    // Location 0 holds flag+data fused; initial value 0, payload 23.
    let producer = vec![Instr::store(0, 23)];
    let consumer = vec![Instr::load(0, 0)];
    LitmusTest {
        name: "MP+pilot".to_string(),
        program: Program {
            threads: vec![thread(producer), thread(consumer)],
            init: vec![],
        },
        relaxed: Box::new(|o| o.reg(1, 0) != 0 && o.reg(1, 0) != 23),
    }
}

/// Acquire-annotated load, used by the RCpc/RCsc shape family below.
fn acq_load(acquire: Acquire, reg: u8, loc: u8) -> Instr {
    Instr::Load {
        reg,
        loc,
        acquire,
        addr_dep: None,
    }
}

/// Suffix naming an acquire flavour in litmus-test names.
#[must_use]
pub fn acq_name(acquire: Acquire) -> &'static str {
    match acquire {
        Acquire::No => "plain",
        Acquire::Pc => "ldapr",
        Acquire::Sc => "ldar",
    }
}

/// **SB+stlr+acq** — the RCsc/RCpc-**distinguishing** Dekker shape: each
/// thread store-releases its own flag, then acquire-loads the other's.
/// With `LDAR` (RCsc) the release may not drain past the later acquire, so
/// `r0 = r1 = 0` is forbidden; with `LDAPR` (RCpc) each acquire may hoist
/// above its thread's release and both threads can read 0.
#[must_use]
pub fn store_buffering_rel_acq(acquire: Acquire) -> LitmusTest {
    let t0 = vec![Instr::store_rel(0, 1), acq_load(acquire, 0, 1)];
    let t1 = vec![Instr::store_rel(1, 1), acq_load(acquire, 0, 0)];
    LitmusTest {
        name: format!("SB+stlr+{}", acq_name(acquire)),
        program: Program {
            threads: vec![thread(t0), thread(t1)],
            init: vec![],
        },
        relaxed: Box::new(|o| o.reg(0, 0) == 0 && o.reg(1, 0) == 0),
    }
}

/// **Release-sequence** variant of the distinguishing shape: thread 0
/// publishes a payload through a store-release, then acquire-loads a turn
/// variable; thread 1 store-releases the turn and acquire-loads the flag
/// before reading the payload. The Dekker outcome (both acquiring loads
/// read 0) distinguishes RCsc from RCpc, while the release sequence itself
/// (flag observed ⇒ payload visible) holds under **both** flavours.
#[must_use]
pub fn release_sequence_rel_acq(acquire: Acquire) -> LitmusTest {
    let t0 = vec![
        Instr::store(0, 23),
        Instr::store_rel(1, 1),
        acq_load(acquire, 0, 2),
    ];
    let t1 = vec![
        Instr::store_rel(2, 1),
        acq_load(acquire, 0, 1),
        Instr::load(1, 0),
    ];
    LitmusTest {
        name: format!("RelSeq+stlr+{}", acq_name(acquire)),
        program: Program {
            threads: vec![thread(t0), thread(t1)],
            init: vec![],
        },
        relaxed: Box::new(|o| o.reg(0, 0) == 0 && o.reg(1, 0) == 0),
    }
}

/// **ISA2** variant: release on thread 0, acquire + data dependency on
/// thread 1, address dependency on thread 2. No thread holds a
/// store-release *before* an acquiring load, so RCsc and RCpc admit the
/// same outcomes — the relaxed outcome is forbidden under both.
#[must_use]
pub fn isa2_rel_acq(acquire: Acquire) -> LitmusTest {
    let t0 = vec![Instr::store(0, 1), Instr::store_rel(1, 1)];
    let t1 = vec![acq_load(acquire, 0, 1), Instr::store_data_dep(2, 1, 0)];
    let t2 = vec![Instr::load(0, 2), Instr::load_addr_dep(1, 0, 0)];
    LitmusTest {
        name: format!("ISA2+stlr+{}", acq_name(acquire)),
        program: Program {
            threads: vec![thread(t0), thread(t1), thread(t2)],
            init: vec![],
        },
        relaxed: Box::new(|o| o.reg(1, 0) == 1 && o.reg(2, 0) == 1 && o.reg(2, 1) == 0),
    }
}

/// **WRC** (write-to-read causality) variant: thread 1 reads thread 0's
/// write and store-releases a flag; thread 2 acquire-loads the flag and
/// reads the original location. Again no release-then-acquire program
/// order anywhere, so the two acquire flavours agree; the causality
/// violation is forbidden under both.
#[must_use]
pub fn wrc_rel_acq(acquire: Acquire) -> LitmusTest {
    let t0 = vec![Instr::store(0, 1)];
    let t1 = vec![Instr::load(0, 0), Instr::store_rel(1, 1)];
    let t2 = vec![acq_load(acquire, 0, 1), Instr::load(1, 0)];
    LitmusTest {
        name: format!("WRC+stlr+{}", acq_name(acquire)),
        program: Program {
            threads: vec![thread(t0), thread(t1), thread(t2)],
            init: vec![],
        },
        relaxed: Box::new(|o| o.reg(1, 0) == 1 && o.reg(2, 0) == 1 && o.reg(2, 1) == 0),
    }
}

/// The ordering shape a Table 3 cell asks about, as a checkable litmus test:
/// does `approach` order `earlier -> later` in the observing thread?
///
/// * `Load -> Load`: MP consumer side (producer uses a known-good DMB st).
/// * `Load -> Store`: LB with the approach on both threads.
/// * `Store -> Store`: MP producer side (consumer uses a known-good DMB ld).
/// * `Store -> Load`: SB with the approach on both threads.
///
/// `None` where [`replace_fence`] cannot place `approach` between an
/// `earlier` and a `later` access (e.g. LDAR after a store, CTRL before a
/// load).
#[must_use]
pub fn table3_cell(
    earlier: AccessType,
    later: AccessType,
    approach: Barrier,
) -> Option<LitmusTest> {
    let access = |a| match a {
        AccessType::Load => Instr::load(0, 0),
        AccessType::Store => Instr::store(0, 1),
    };
    weave(approach, access(earlier), access(later))?;
    Some(match (earlier, later) {
        (AccessType::Load, AccessType::Load) => message_passing(Barrier::DmbSt, approach),
        (AccessType::Load, AccessType::Store) => load_buffering(approach),
        (AccessType::Store, AccessType::Store) => message_passing(approach, Barrier::DmbLd),
        (AccessType::Store, AccessType::Load) => store_buffering(approach),
    })
}

/// Run a whole Table 3 verdict: `Some(true)` when `approach` forbids the
/// relaxed outcome of the `earlier -> later` cell under ARM WMM, `None`
/// where it cannot be placed in that cell ([`table3_cell`]).
#[must_use]
pub fn approach_suffices(
    earlier: AccessType,
    later: AccessType,
    approach: Barrier,
) -> Option<bool> {
    table3_cell(earlier, later, approach).map(|t| !t.allowed(MemoryModel::ArmWmm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use AccessType::{Load, Store};

    #[test]
    fn table1_exactly() {
        // "TSO Forbidden / WMM Allowed" for local != 23.
        let t = message_passing(Barrier::None, Barrier::None);
        assert!(t.allowed(MemoryModel::ArmWmm));
        assert!(!t.allowed(MemoryModel::X86Tso));
        assert!(!t.allowed(MemoryModel::Sc));
    }

    #[test]
    fn mp_fixed_by_dmb_st_plus_dmb_ld() {
        assert!(!message_passing(Barrier::DmbSt, Barrier::DmbLd).allowed(MemoryModel::ArmWmm));
    }

    #[test]
    fn mp_needs_both_sides() {
        assert!(message_passing(Barrier::DmbSt, Barrier::None).allowed(MemoryModel::ArmWmm));
        assert!(message_passing(Barrier::None, Barrier::DmbLd).allowed(MemoryModel::ArmWmm));
    }

    #[test]
    fn mp_fixed_by_stlr_plus_ldar() {
        assert!(!message_passing(Barrier::Stlr, Barrier::Ldar).allowed(MemoryModel::ArmWmm));
    }

    #[test]
    fn mp_fixed_by_stlr_plus_ldapr_too() {
        // MP has no release-then-acquire program order, so the cheaper RCpc
        // acquire is just as good here.
        assert!(!message_passing(Barrier::Stlr, Barrier::Ldapr).allowed(MemoryModel::ArmWmm));
    }

    #[test]
    fn dekker_rel_acq_distinguishes_rcsc_from_rcpc() {
        assert!(!store_buffering_rel_acq(Acquire::Sc).allowed(MemoryModel::ArmWmm));
        assert!(store_buffering_rel_acq(Acquire::Pc).allowed(MemoryModel::ArmWmm));
        // SC forbids it outright, of course.
        assert!(!store_buffering_rel_acq(Acquire::Pc).allowed(MemoryModel::Sc));
    }

    #[test]
    fn release_sequence_still_publishes_under_rcpc() {
        for acq in [Acquire::Sc, Acquire::Pc] {
            let t = release_sequence_rel_acq(acq);
            let outs = explore(&t.program, MemoryModel::ArmWmm);
            // Flag observed ⇒ payload visible, under both flavours.
            assert!(
                outs.all(|o| o.reg(1, 0) != 1 || o.reg(1, 1) == 23),
                "release sequence broken under {acq:?}"
            );
        }
        // But the Dekker hoist is RCpc-only.
        assert!(!release_sequence_rel_acq(Acquire::Sc).allowed(MemoryModel::ArmWmm));
        assert!(release_sequence_rel_acq(Acquire::Pc).allowed(MemoryModel::ArmWmm));
    }

    #[test]
    fn isa2_and_wrc_do_not_distinguish_the_acquire_flavours() {
        for make in [isa2_rel_acq, wrc_rel_acq] {
            for acq in [Acquire::Sc, Acquire::Pc] {
                assert!(!make(acq).allowed(MemoryModel::ArmWmm));
            }
        }
    }

    #[test]
    fn mp_consumer_addr_dep_works() {
        assert!(!message_passing(Barrier::DmbSt, Barrier::AddrDep).allowed(MemoryModel::ArmWmm));
    }

    #[test]
    fn mp_consumer_ctrl_isb_works_but_plain_isb_does_not() {
        assert!(!message_passing(Barrier::DmbSt, Barrier::CtrlIsb).allowed(MemoryModel::ArmWmm));
        assert!(message_passing(Barrier::DmbSt, Barrier::Isb).allowed(MemoryModel::ArmWmm));
    }

    #[test]
    fn sb_requires_a_full_barrier() {
        assert!(store_buffering(Barrier::None).allowed(MemoryModel::ArmWmm));
        assert!(
            store_buffering(Barrier::DmbSt).allowed(MemoryModel::ArmWmm),
            "st too weak"
        );
        assert!(
            store_buffering(Barrier::DmbLd).allowed(MemoryModel::ArmWmm),
            "ld too weak"
        );
        assert!(!store_buffering(Barrier::DmbFull).allowed(MemoryModel::ArmWmm));
        assert!(!store_buffering(Barrier::DsbFull).allowed(MemoryModel::ArmWmm));
    }

    #[test]
    fn lb_fixed_by_any_load_rooted_approach() {
        for a in [
            Barrier::DataDep,
            Barrier::AddrDep,
            Barrier::Ctrl,
            Barrier::CtrlIsb,
            Barrier::Ldar,
            Barrier::DmbLd,
            Barrier::DmbFull,
        ] {
            assert!(
                !load_buffering(a).allowed(MemoryModel::ArmWmm),
                "{a} must fix LB"
            );
        }
        assert!(load_buffering(Barrier::None).allowed(MemoryModel::ArmWmm));
    }

    #[test]
    fn pilot_mp_is_correct_with_no_barriers_at_all() {
        let t = pilot_message_passing();
        assert!(!t.allowed(MemoryModel::ArmWmm));
        // And the consumer either sees old or new, never anything else —
        // single-copy atomicity in action.
        let outs = explore(&t.program, MemoryModel::ArmWmm);
        assert!(outs.all(|o| o.reg(1, 0) == 0 || o.reg(1, 0) == 23));
    }

    #[test]
    fn every_preferred_table3_recommendation_suffices() {
        use armbar_barriers::advisor::{recommend, Approach, OrderReq};
        for earlier in [Load, Store] {
            for later in [Load, Store] {
                let rec = recommend(OrderReq::pair(earlier, later));
                for a in &rec.preferred {
                    let b = match a {
                        Approach::Use(b) => *b,
                        Approach::MeasureAgainst { candidate, .. } => *candidate,
                    };
                    assert_eq!(
                        approach_suffices(earlier, later, b),
                        Some(true),
                        "{b} recommended for {earlier}->{later} but the explorer finds a \
                         violation, or it cannot be placed there"
                    );
                }
            }
        }
    }

    #[test]
    fn too_weak_approaches_fail_their_cells() {
        // DMB st cannot order loads; DMB ld cannot order stores.
        assert_eq!(approach_suffices(Load, Load, Barrier::DmbSt), Some(false));
        assert_eq!(approach_suffices(Store, Store, Barrier::DmbLd), Some(false));
        assert_eq!(approach_suffices(Store, Load, Barrier::DmbSt), Some(false));
    }

    #[test]
    fn table3_cells_are_none_exactly_where_the_approach_cannot_be_placed() {
        let unplaceable = [
            (Load, Load, Barrier::Stlr),
            (Load, Load, Barrier::DataDep),
            (Load, Load, Barrier::Ctrl),
            (Store, Store, Barrier::Ldar),
            (Store, Store, Barrier::Ldapr),
            (Store, Store, Barrier::DataDep),
            (Store, Store, Barrier::AddrDep),
            (Store, Store, Barrier::Ctrl),
            (Store, Load, Barrier::Ldar),
            (Store, Load, Barrier::Ldapr),
            (Store, Load, Barrier::Stlr),
            (Store, Load, Barrier::DataDep),
            (Store, Load, Barrier::AddrDep),
            (Store, Load, Barrier::Ctrl),
        ];
        let mut placed = 0;
        for earlier in [Load, Store] {
            for later in [Load, Store] {
                for b in Barrier::ALL {
                    let cell = table3_cell(earlier, later, b);
                    assert_eq!(
                        cell.is_none(),
                        unplaceable.contains(&(earlier, later, b)),
                        "{b} in the {earlier}->{later} cell"
                    );
                    placed += usize::from(cell.is_some());
                }
            }
        }
        assert_eq!(placed, 46);
    }
}
