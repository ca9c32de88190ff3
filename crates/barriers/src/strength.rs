//! The empirical overhead ranking of order-preserving approaches.
//!
//! The paper's headline list (§1):
//!
//! ```text
//! DSB > DMB full > DMB st > DMB ld ≈ LDAR ≥ Dep
//! ```
//!
//! with two riders: all DSB options perform alike, and **STLR is unstable** —
//! its measured overhead lies between DSB and DMB st and it sometimes loses
//! to the semantically *stronger* DMB full (Observation 3). [`CostRank`]
//! encodes that ranking so callers can reason about expected cost, and
//! [`cost_rank`] places every [`Barrier`] on it.

use crate::kind::Barrier;

/// Expected-overhead band of an order-preserving approach, cheapest first.
///
/// Ranks compare with `<` = cheaper. STLR gets its own band between
/// [`CostRank::StoreBarrier`] and [`CostRank::SyncBarrier`] because its
/// measured cost floats across that whole range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CostRank {
    /// Free (no ordering): `No Barrier`.
    Free,
    /// Bogus dependencies: no bus traffic, no pipeline penalty.
    Dependency,
    /// RCpc acquire: `LDAPR` — in-core like `LDAR`, but never serializes
    /// against earlier store-releases draining, so it is strictly cheaper
    /// than the [`CostRank::LoadBarrier`] band whenever releases are in
    /// flight and never dearer.
    RcpcAcquire,
    /// Local load-ordering: `DMB ld`, `LDAR` (no bus traffic).
    LoadBarrier,
    /// Pipeline flush: `ISB`, `CTRL+ISB`.
    PipelineFlush,
    /// Store-ordering memory-barrier transaction: `DMB st`.
    StoreBarrier,
    /// Full memory-barrier transaction: `DMB full`.
    FullBarrier,
    /// Unstable: `STLR` — between `DMB st` and DSB, sometimes above
    /// `DMB full`.
    StoreRelease,
    /// Synchronization barrier transaction: all `DSB` options.
    SyncBarrier,
}

impl CostRank {
    /// Stable lowercase label used in reports and `lint.csv`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CostRank::Free => "free",
            CostRank::Dependency => "dependency",
            CostRank::RcpcAcquire => "rcpc-acquire",
            CostRank::LoadBarrier => "load-barrier",
            CostRank::PipelineFlush => "pipeline-flush",
            CostRank::StoreBarrier => "store-barrier",
            CostRank::FullBarrier => "full-barrier",
            CostRank::StoreRelease => "store-release",
            CostRank::SyncBarrier => "sync-barrier",
        }
    }
}

/// Place a barrier on the empirical cost ranking.
#[must_use]
pub fn cost_rank(b: Barrier) -> CostRank {
    match b {
        Barrier::None => CostRank::Free,
        Barrier::DataDep | Barrier::AddrDep | Barrier::Ctrl => CostRank::Dependency,
        Barrier::Ldapr => CostRank::RcpcAcquire,
        Barrier::DmbLd | Barrier::Ldar => CostRank::LoadBarrier,
        Barrier::Isb | Barrier::CtrlIsb => CostRank::PipelineFlush,
        Barrier::DmbSt => CostRank::StoreBarrier,
        Barrier::DmbFull => CostRank::FullBarrier,
        Barrier::Stlr => CostRank::StoreRelease,
        Barrier::DsbFull | Barrier::DsbSt | Barrier::DsbLd => CostRank::SyncBarrier,
    }
}

/// Whether `b`'s expected cost is *stable* across platforms and placements.
///
/// Only STLR is flagged unstable: "Performance comparison with DMB full is
/// needed before using STLR" (Observation 3).
#[must_use]
pub fn is_stable(b: Barrier) -> bool {
    !matches!(b, Barrier::Stlr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_ranking_holds() {
        // DSB > DMB full > DMB st > DMB ld ≈ LDAR ≥ Dep
        assert!(cost_rank(Barrier::DsbFull) > cost_rank(Barrier::DmbFull));
        assert!(cost_rank(Barrier::DmbFull) > cost_rank(Barrier::DmbSt));
        assert!(cost_rank(Barrier::DmbSt) > cost_rank(Barrier::DmbLd));
        assert_eq!(cost_rank(Barrier::DmbLd), cost_rank(Barrier::Ldar));
        assert!(cost_rank(Barrier::DmbLd) >= cost_rank(Barrier::DataDep));
    }

    #[test]
    fn ldapr_sits_strictly_between_dependencies_and_ldar() {
        assert!(cost_rank(Barrier::Ldapr) < cost_rank(Barrier::Ldar));
        assert!(cost_rank(Barrier::Ldapr) > cost_rank(Barrier::DataDep));
        assert!(is_stable(Barrier::Ldapr));
    }

    #[test]
    fn dsb_options_rank_alike() {
        assert_eq!(cost_rank(Barrier::DsbFull), cost_rank(Barrier::DsbSt));
        assert_eq!(cost_rank(Barrier::DsbFull), cost_rank(Barrier::DsbLd));
    }

    #[test]
    fn stlr_is_between_dmb_st_and_dsb_and_unstable() {
        assert!(cost_rank(Barrier::Stlr) > cost_rank(Barrier::DmbSt));
        assert!(cost_rank(Barrier::Stlr) < cost_rank(Barrier::DsbFull));
        assert!(!is_stable(Barrier::Stlr));
        assert!(is_stable(Barrier::DmbFull));
    }
}
