//! ARM barrier and order-preserving-approach abstraction.
//!
//! This crate models the order-preserving options ARMv8 offers under its
//! weakly-ordered memory model (WMM), as studied in *"No Barrier in the Road:
//! A Comprehensive Study and Optimization of ARM Barriers"* (PPoPP 2020):
//!
//! * **Barrier instructions** — `DMB` (data memory barrier, with `full`/`st`/
//!   `ld` access-type options), `DSB` (data synchronization barrier), `ISB`
//!   (instruction synchronization barrier), and the one-way `LDAR`
//!   (load-acquire) / `STLR` (store-release) pair.
//! * **Dependencies** — bogus data, address, and control dependencies
//!   (optionally with `ISB`), which preserve order without any instruction
//!   that could reach the bus.
//!
//! The crate provides:
//!
//! * [`Barrier`] — the complete taxonomy, with predicates describing each
//!   option's semantics (what it orders) and its typical implementation
//!   (whether an ACE bus transaction is required, whether it blocks
//!   non-memory instructions, …). The simulator crate consumes these.
//! * [`native`] — `asm!`-based implementations on aarch64 and a documented
//!   strongest-cheap mapping elsewhere, so the same code runs on the paper's
//!   hardware and on CI hosts.
//! * [`advisor`] — Table 3 of the paper as an executable decision procedure.
//! * [`strength`] — the empirical overhead ranking
//!   `DSB > DMB full > DMB st > DMB ld ≈ LDAR ≥ Dep` (with STLR unstable).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod advisor;
pub mod kind;
pub mod native;
pub mod strength;

pub use advisor::{recommend, Approach, OrderReq, Recommendation};
pub use kind::{AccessType, Acquire, Barrier, ResponseMode};
pub use strength::{cost_rank, CostRank};
