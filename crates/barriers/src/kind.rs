//! The taxonomy of ARM order-preserving approaches.
//!
//! Each variant of [`Barrier`] is one of the options §2.2 of the paper lists.
//! The predicates on `Barrier` encode two distinct things:
//!
//! 1. **Architectural semantics** ([`Barrier::orders`]): which
//!    program-order-earlier accesses must be observable before which
//!    program-order-later accesses. These are what the exhaustive
//!    weak-memory explorer enforces.
//! 2. **Typical implementation behaviour**
//!    ([`Barrier::blocks_issue_of_non_memory`], …): how a real core is likely
//!    to realize the semantics (§2.3). These drive the timing simulator and
//!    are *not* mandated by the architecture — the paper stresses that the
//!    ISA defines correctness only, and performance is vendor-defined.

use core::fmt;

/// The class of a memory access, used to describe what a barrier orders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessType {
    /// A load (read) access.
    Load,
    /// A store (write) access.
    Store,
}

impl AccessType {
    /// All access types, convenient for exhaustive iteration in tests.
    pub const ALL: [AccessType; 2] = [AccessType::Load, AccessType::Store];
}

impl fmt::Display for AccessType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessType::Load => write!(f, "load"),
            AccessType::Store => write!(f, "store"),
        }
    }
}

/// The acquire annotation a load can carry.
///
/// Both acquire flavours order the annotated load before every
/// program-order-later access (the one-way barrier of [`Barrier::Ldar`]).
/// They differ only in how the load relates to program-order-*earlier*
/// store-releases:
///
/// * [`Acquire::Sc`] (`LDAR`, RCsc): an earlier `STLR` may **not** be
///   reordered past the load — releases and acquires are sequentially
///   consistent with each other.
/// * [`Acquire::Pc`] (`LDAPR`, RCpc, ARMv8.3): an earlier `STLR` **may**
///   drain after the load performs — releases and acquires are only
///   processor-consistent, which is exactly what C/C++ `memory_order_acquire`
///   requires.
///
/// The distinction involves *two* annotated accesses, so it cannot be
/// expressed through the pairwise [`Barrier::orders`] relation; the memory
/// model consults this enum directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Acquire {
    /// A plain load: no acquire ordering.
    No,
    /// RCpc acquire (`LDAPR`): orders the load before younger accesses only.
    Pc,
    /// RCsc acquire (`LDAR`): additionally ordered after earlier releases.
    Sc,
}

impl Acquire {
    /// Every annotation, weakest first (`No < Pc < Sc`).
    pub const ALL: [Acquire; 3] = [Acquire::No, Acquire::Pc, Acquire::Sc];

    /// Whether the load carries any acquire semantics at all.
    #[must_use]
    pub fn is_acquire(self) -> bool {
        self != Acquire::No
    }

    /// The [`Barrier`] taxonomy entry this annotation corresponds to.
    #[must_use]
    pub fn barrier(self) -> Option<Barrier> {
        match self {
            Acquire::No => None,
            Acquire::Pc => Some(Barrier::Ldapr),
            Acquire::Sc => Some(Barrier::Ldar),
        }
    }
}

/// Every order-preserving approach the paper studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Barrier {
    /// No ordering at all; the WMM baseline.
    None,
    /// `DMB ISH` — orders any earlier access against any later access.
    DmbFull,
    /// `DMB ISHST` — orders earlier stores against later stores.
    DmbSt,
    /// `DMB ISHLD` — orders earlier loads against later loads and stores.
    DmbLd,
    /// `DSB ISH` — DMB full ordering, plus blocks *all* later instructions
    /// until earlier accesses complete in the domain.
    DsbFull,
    /// `DSB ISHST` — store-to-store DSB.
    DsbSt,
    /// `DSB ISHLD` — load-to-any DSB.
    DsbLd,
    /// `ISB` — flushes the pipeline; orders nothing by itself but guarantees
    /// later instructions re-fetch after earlier context-changing effects.
    Isb,
    /// `LDAR` — RCsc load-acquire: the annotated load is ordered before
    /// every later access (one-way barrier) *and* after every earlier
    /// store-release.
    Ldar,
    /// `LDAPR` — RCpc load-acquire (ARMv8.3): ordered before every later
    /// access like `LDAR`, but an earlier `STLR` may still drain past it.
    /// The pairwise [`Barrier::orders`] relation cannot see that
    /// difference (it concerns two annotated accesses), so `Ldapr` and
    /// `Ldar` order identical pairs here; [`Acquire`] carries the RCsc/RCpc
    /// split for the memory model.
    Ldapr,
    /// `STLR` — store-release: every earlier access is ordered before the
    /// annotated store (one-way barrier).
    Stlr,
    /// A bogus **data dependency**: the stored value is computed from the
    /// loaded value (`x ^ x` trick), ordering that load before that store.
    DataDep,
    /// A bogus **address dependency**: a later access's address is computed
    /// from the loaded value, ordering the load before loads *and* stores.
    AddrDep,
    /// A bogus **control dependency**: a branch on the loaded value orders
    /// the load before later *stores* only (loads may still speculate).
    Ctrl,
    /// Control dependency followed by `ISB`, which also orders later loads
    /// (the pipeline flush kills the speculation).
    CtrlIsb,
}

impl Barrier {
    /// Every variant, for exhaustive sweeps in experiments and tests.
    pub const ALL: [Barrier; 15] = [
        Barrier::None,
        Barrier::DmbFull,
        Barrier::DmbSt,
        Barrier::DmbLd,
        Barrier::DsbFull,
        Barrier::DsbSt,
        Barrier::DsbLd,
        Barrier::Isb,
        Barrier::Ldar,
        Barrier::Ldapr,
        Barrier::Stlr,
        Barrier::DataDep,
        Barrier::AddrDep,
        Barrier::Ctrl,
        Barrier::CtrlIsb,
    ];

    /// The standalone barrier *instructions* (excludes `None`, the one-way
    /// access-attached LDAR/STLR, and the dependency idioms). These are the
    /// legal fillers for `BARRIER_LOC_1/2` in Algorithm 1.
    pub const INSTRUCTIONS: [Barrier; 7] = [
        Barrier::DmbFull,
        Barrier::DmbSt,
        Barrier::DmbLd,
        Barrier::DsbFull,
        Barrier::DsbSt,
        Barrier::DsbLd,
        Barrier::Isb,
    ];

    /// Does this approach order a program-order-earlier access of type
    /// `earlier` before a program-order-later access of type `later`?
    ///
    /// For the access-attached options (LDAR/STLR/dependencies), "earlier" or
    /// "later" is interpreted as the attached access itself:
    /// * `Ldar` — `earlier` must be `Load` (the acquiring load).
    /// * `Stlr` — `later` must be `Store` (the releasing store).
    /// * `DataDep` — orders the feeding `Load` before the fed `Store`.
    /// * `AddrDep` — orders the feeding `Load` before any fed access.
    /// * `Ctrl` — orders the tested `Load` before dependent `Store`s only.
    /// * `CtrlIsb` — orders the tested `Load` before any later access.
    #[must_use]
    pub fn orders(self, earlier: AccessType, later: AccessType) -> bool {
        use AccessType::{Load, Store};
        match self {
            Barrier::None | Barrier::Isb => false,
            Barrier::DmbFull | Barrier::DsbFull => true,
            Barrier::DmbSt | Barrier::DsbSt => earlier == Store && later == Store,
            Barrier::DmbLd | Barrier::DsbLd => earlier == Load,
            Barrier::Ldar | Barrier::Ldapr => earlier == Load,
            Barrier::Stlr => later == Store,
            Barrier::DataDep => earlier == Load && later == Store,
            Barrier::AddrDep => earlier == Load,
            Barrier::Ctrl => earlier == Load && later == Store,
            Barrier::CtrlIsb => earlier == Load,
        }
    }

    /// Does this approach order program-order-earlier accesses of type
    /// `earlier` before *some* later access? For a fence, these are the
    /// earlier accesses it waits for.
    #[must_use]
    pub fn waits_for(self, earlier: AccessType) -> bool {
        AccessType::ALL
            .iter()
            .any(|&later| self.orders(earlier, later))
    }

    /// Whether the approach puts a standalone instruction at its site: one
    /// of [`Barrier::INSTRUCTIONS`], or the ISB of `CTRL+ISB`. The others
    /// are nothing (`None`) or ride on a neighbouring access (LDAR, LDAPR,
    /// STLR and the plain dependencies).
    #[must_use]
    pub fn is_standalone(self) -> bool {
        Self::INSTRUCTIONS.contains(&self) || self == Barrier::CtrlIsb
    }

    /// Whether the typical implementation blocks the *issue* of all
    /// subsequent instructions (memory or not) until it completes.
    ///
    /// Only DSB does this architecturally; ISB does it transiently via the
    /// pipeline flush. DMB "does not block any non-memory access operations"
    /// (§2.2), although Observation 2 shows it can still throttle them
    /// indirectly through re-order-buffer pressure — that indirect effect is
    /// modelled separately by the simulator.
    #[must_use]
    pub fn blocks_issue_of_non_memory(self) -> bool {
        matches!(
            self,
            Barrier::DsbFull | Barrier::DsbSt | Barrier::DsbLd | Barrier::Isb | Barrier::CtrlIsb
        )
    }

    /// Whether the approach is a dependency idiom rather than an instruction.
    #[must_use]
    pub fn is_dependency(self) -> bool {
        matches!(
            self,
            Barrier::DataDep | Barrier::AddrDep | Barrier::Ctrl | Barrier::CtrlIsb
        )
    }

    /// The mnemonic used in the paper's figures (e.g. `DMB full`, `LDAR`).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            Barrier::None => "No Barrier",
            Barrier::DmbFull => "DMB full",
            Barrier::DmbSt => "DMB st",
            Barrier::DmbLd => "DMB ld",
            Barrier::DsbFull => "DSB full",
            Barrier::DsbSt => "DSB st",
            Barrier::DsbLd => "DSB ld",
            Barrier::Isb => "ISB",
            Barrier::Ldar => "LDAR",
            Barrier::Ldapr => "LDAPR",
            Barrier::Stlr => "STLR",
            Barrier::DataDep => "DATA DEP",
            Barrier::AddrDep => "ADDR DEP",
            Barrier::Ctrl => "CTRL",
            Barrier::CtrlIsb => "CTRL+ISB",
        }
    }
}

impl fmt::Display for Barrier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// How a delegation server notifies a client that its request completed —
/// the choice between the paper's Algorithm 5 and Algorithm 6. Shared by
/// the real locks (`armbar-locks`) and the simulator workloads
/// (`armbar-simapps`), which implement the same two protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResponseMode {
    /// Algorithm 5: store `ret`, response barrier, flip the response flag.
    Flag,
    /// Algorithm 6 (Pilot): the (shuffled) `ret` store *is* the
    /// notification, with a per-client fallback flag for collisions.
    Pilot,
}

impl ResponseMode {
    /// Both modes, Flag first (the classic protocol).
    pub const ALL: [ResponseMode; 2] = [ResponseMode::Flag, ResponseMode::Pilot];

    /// Stable short label (CSV row names).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ResponseMode::Flag => "flag",
            ResponseMode::Pilot => "pilot",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AccessType::{Load, Store};

    #[test]
    fn full_barriers_order_everything() {
        for b in [Barrier::DmbFull, Barrier::DsbFull] {
            for e in AccessType::ALL {
                for l in AccessType::ALL {
                    assert!(b.orders(e, l), "{b} must order {e}->{l}");
                }
            }
        }
    }

    #[test]
    fn store_barriers_order_only_store_store() {
        for b in [Barrier::DmbSt, Barrier::DsbSt] {
            assert!(b.orders(Store, Store));
            assert!(!b.orders(Store, Load));
            assert!(!b.orders(Load, Store));
            assert!(!b.orders(Load, Load));
        }
    }

    #[test]
    fn load_barriers_order_load_to_anything() {
        for b in [
            Barrier::DmbLd,
            Barrier::DsbLd,
            Barrier::Ldar,
            Barrier::Ldapr,
            Barrier::CtrlIsb,
        ] {
            assert!(b.orders(Load, Load));
            assert!(b.orders(Load, Store));
            assert!(!b.orders(Store, Store));
            assert!(!b.orders(Store, Load));
        }
    }

    #[test]
    fn stlr_orders_anything_to_store() {
        assert!(Barrier::Stlr.orders(Load, Store));
        assert!(Barrier::Stlr.orders(Store, Store));
        assert!(!Barrier::Stlr.orders(Load, Load));
        assert!(!Barrier::Stlr.orders(Store, Load));
    }

    #[test]
    fn ctrl_and_data_dep_do_not_order_load_load() {
        for b in [Barrier::Ctrl, Barrier::DataDep] {
            assert!(b.orders(Load, Store));
            assert!(!b.orders(Load, Load), "{b} cannot order load->load");
        }
    }

    #[test]
    fn addr_dep_orders_load_to_any() {
        assert!(Barrier::AddrDep.orders(Load, Load));
        assert!(Barrier::AddrDep.orders(Load, Store));
        assert!(!Barrier::AddrDep.orders(Store, Store));
    }

    #[test]
    fn none_and_isb_order_nothing() {
        for b in [Barrier::None, Barrier::Isb] {
            for e in AccessType::ALL {
                for l in AccessType::ALL {
                    assert!(!b.orders(e, l));
                }
            }
        }
    }

    #[test]
    fn dsb_blocks_everything_dmb_does_not() {
        assert!(Barrier::DsbFull.blocks_issue_of_non_memory());
        assert!(Barrier::DsbSt.blocks_issue_of_non_memory());
        assert!(!Barrier::DmbFull.blocks_issue_of_non_memory());
        assert!(!Barrier::DmbSt.blocks_issue_of_non_memory());
        assert!(!Barrier::Stlr.blocks_issue_of_non_memory());
    }

    #[test]
    fn stronger_semantics_implies_superset_of_ordered_pairs() {
        // DSB full ⊇ DMB full ⊇ DMB st, DMB ld as semantic subsets.
        for e in AccessType::ALL {
            for l in AccessType::ALL {
                if Barrier::DmbSt.orders(e, l) {
                    assert!(Barrier::DmbFull.orders(e, l));
                }
                if Barrier::DmbLd.orders(e, l) {
                    assert!(Barrier::DmbFull.orders(e, l));
                }
                if Barrier::DmbFull.orders(e, l) {
                    assert!(Barrier::DsbFull.orders(e, l));
                }
            }
        }
    }

    #[test]
    fn ldapr_orders_the_same_pairs_as_ldar() {
        // The RCsc/RCpc split concerns *two* annotated accesses (an earlier
        // STLR and the acquiring load) and lives in `Acquire`, not here.
        for e in AccessType::ALL {
            for l in AccessType::ALL {
                assert_eq!(Barrier::Ldapr.orders(e, l), Barrier::Ldar.orders(e, l));
            }
        }
    }

    #[test]
    fn acquire_annotations_map_to_their_barriers() {
        assert_eq!(Acquire::No.barrier(), None);
        assert_eq!(Acquire::Pc.barrier(), Some(Barrier::Ldapr));
        assert_eq!(Acquire::Sc.barrier(), Some(Barrier::Ldar));
        assert!(!Acquire::No.is_acquire());
        assert!(Acquire::Pc.is_acquire());
        assert!(Acquire::Sc.is_acquire());
        // Strength order: No < Pc < Sc.
        assert!(Acquire::No < Acquire::Pc);
        assert!(Acquire::Pc < Acquire::Sc);
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for b in Barrier::ALL {
            assert!(
                seen.insert(b.mnemonic()),
                "duplicate mnemonic {}",
                b.mnemonic()
            );
        }
    }
}
