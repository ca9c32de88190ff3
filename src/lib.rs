//! `armbar` — reproduction of *"No Barrier in the Road: A Comprehensive
//! Study and Optimization of ARM Barriers"* (PPoPP 2020).
//!
//! This is the facade over the workspace: examples and cross-crate
//! integration tests live on this package. See `README.md` for the tour
//! and `DESIGN.md` for the system inventory. The workspace splits into:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`sim`] | cycle-level ARM memory-subsystem simulator (pipeline, non-FIFO store buffer, coherence, ACE barrier transactions, NUMA topology) |
//! | [`wmm`] | exhaustive operational weak-memory explorer + litmus suite |
//! | [`barriers`] | barrier taxonomy, native `asm!` backend, Table 3 advisor |
//! | [`pilot`] | the Pilot mechanism (Algorithms 3 & 4) and channels built on it |
//! | [`locks`] | ticket in-place lock; DSynch combining delegation lock with a Pilot variant |
//! | [`dedup`] | PARSEC-dedup-like pipeline compressor with pluggable queues |
//! | [`floorplan`] | BOTS-style branch-and-bound floorplanner |
//! | [`simapps`] | the paper's experiments as simulator workloads |
//!
//! The [`prelude`] re-exports the types most programs start from.
//!
//! # Quick start
//!
//! ```
//! use armbar::prelude::*;
//!
//! // 1. Semantics: Table 1 on the exhaustive explorer.
//! let mp = armbar::wmm::litmus::message_passing(Barrier::None, Barrier::None);
//! assert!(mp.allowed(MemoryModel::ArmWmm));
//! assert!(!mp.allowed(MemoryModel::X86Tso));
//!
//! // 2. Performance: the abstracted model on the simulated server.
//! let spec = ModelSpec::store_store(Barrier::DmbFull, BarrierLoc::AfterOp1, 150);
//! let r = run_model(BindConfig::KunpengCrossNodes, spec, 200);
//! assert!(r.loops_per_sec > 0.0);
//!
//! // 3. Advice: what the paper's Table 3 says for a store->store ordering.
//! let rec = recommend(OrderReq::pair(AccessType::Store, AccessType::Store));
//! assert_eq!(rec.best(), Approach::Use(Barrier::DmbSt));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use armbar_barriers as barriers;
pub use armbar_dedup as dedup;
pub use armbar_floorplan as floorplan;
pub use armbar_locks as locks;
pub use armbar_pilot as pilot;
pub use armbar_sim as sim;
pub use armbar_simapps as simapps;
pub use armbar_wmm as wmm;

/// The types most programs start from.
pub mod prelude {
    pub use armbar_barriers::{
        advisor::{recommend, Approach, OrderReq},
        AccessType, Barrier,
    };
    pub use armbar_pilot::{pilot_pair, pilot_ring, spsc_ring, BarrierPair, HashPool};
    pub use armbar_sim::{Machine, Op, Platform, PlatformKind, SimThread, ThreadCtx};
    pub use armbar_simapps::{
        abstract_model::{run_model, BarrierLoc, ModelSpec},
        bind::BindConfig,
    };
    pub use armbar_wmm::{explore, LitmusTest, MemoryModel};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_wires_the_workspace_together() {
        // A tiny end-to-end: the advisor's store->store pick, validated by
        // the explorer, then costed by the simulator.
        let rec = recommend(OrderReq::pair(AccessType::Store, AccessType::Store));
        let Approach::Use(picked) = rec.best() else {
            panic!("expected a direct pick")
        };
        let cell = armbar_wmm::litmus::table3_cell(AccessType::Store, AccessType::Store, picked)
            .expect("the pick has a place between two stores");
        assert!(
            !cell.allowed(MemoryModel::ArmWmm),
            "{picked} must fix the MP producer"
        );
        let with = run_model(
            BindConfig::KunpengCrossNodes,
            ModelSpec::store_store(picked, BarrierLoc::BeforeOp2, 150),
            150,
        );
        let stronger = run_model(
            BindConfig::KunpengCrossNodes,
            ModelSpec::store_store(Barrier::DsbFull, BarrierLoc::BeforeOp2, 150),
            150,
        );
        assert!(
            with.loops_per_sec > stronger.loops_per_sec,
            "the advice is cheaper than DSB"
        );
    }
}
