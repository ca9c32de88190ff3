//! Exhaustive operational weak-memory-model explorer.
//!
//! Decides, for litmus-sized and bounded-unrolled implementation-sized
//! programs, exactly which final outcomes are reachable under three memory
//! models:
//!
//! * **ARM WMM** — multi-copy-atomic out-of-order execution: any two
//!   program-order memory accesses may perform out of order unless an
//!   ordering edge exists between them (barrier, acquire/release,
//!   dependency, or same-location coherence). This matches the simplified
//!   MCA ARMv8 model (the paper cites ARM's move to MCA \[36\]); stores become
//!   visible to all other observers at once when performed.
//! * **x86 TSO** — only store→load (to different locations) may reorder.
//! * **SC** — nothing reorders (the reference).
//!
//! The explorer enumerates every interleaving of every legal per-thread
//! reordering by DFS with state memoization, so "allowed"/"forbidden"
//! answers are exact, not sampled. That is what Table 1 of the paper states
//! (`TSO Forbidden` / `WMM Allowed`), and what the Table 3
//! recommendations must guarantee (the chosen approach forbids the bad
//! outcome).
//!
//! Scope notes (documented simplifications, all *sound* for the suite here):
//! programs are loop-free; same-location program order is always preserved
//! (ARMv8 enforces coherence per location; we additionally forgo
//! same-address store-to-load forwarding ahead of global visibility);
//! stores are single-copy atomic per 64-bit location — which is exactly the
//! guarantee Pilot piggybacks on.
//!
//! # Example: Table 1
//!
//! ```
//! use armbar_wmm::litmus::message_passing;
//! use armbar_wmm::model::MemoryModel;
//! use armbar_barriers::Barrier;
//!
//! let mp = message_passing(Barrier::None, Barrier::None);
//! assert!(mp.allowed(MemoryModel::ArmWmm), "WMM allows local != 23");
//! assert!(!mp.allowed(MemoryModel::X86Tso), "TSO forbids it");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod battery;
mod engine;
pub mod explore;
pub mod litmus;
mod mask;
pub mod model;
pub mod mutate;
pub mod text;
pub mod unroll;
pub mod witness;

pub use explore::{
    explore, explore_dpor_uncached, explore_memo_clear, explore_memo_footprint, explore_memo_stats,
    explore_oracle, explore_uncached, MemoFootprint, Outcome, OutcomeDiff, OutcomeSet,
};
pub use litmus::LitmusTest;
pub use model::{Instr, MemoryModel, Program, Src, Thread};
pub use mutate::{
    barrier_sites, remove_site, replace_fence, rewrite_acquire, BarrierSite, Rewrite, RewritePlan,
    SiteKind,
};
