//! In-place and delegation locks with configurable barriers (paper §5).
//!
//! Mutex locks split into two families (§5.1):
//!
//! * **In-place locks** — competitors spin on shared state and execute their
//!   critical sections themselves: [`ticket::TicketLock`] (Linux-kernel
//!   style) and [`mcs::McsLock`]. Barriers guard both the lock and unlock
//!   procedures; Figure 7(a) varies the *unlock* barrier because it is the
//!   one that ends up strictly after the critical section's remote memory
//!   references.
//! * **Delegation locks** — a server executes every critical section.
//!   Barriers order request/response hand-offs (Algorithm 5, lines 4 and 7);
//!   the response-side barrier follows the critical section's stores — the
//!   expensive pattern — and constructing a design with
//!   [`ResponseMode::Pilot`] removes it per Algorithm 6.
//!
//! The five delegation designs are two skeletons, each generic over a
//! static protocol, plus one stand-alone lock:
//!
//! | design | skeleton | protocol |
//! |---|---|---|
//! | [`ffwd::Ffwd`] (FFWD) | [`dedicated`] server | request flag + response line |
//! | [`rcl::Rcl`] (remote core locking) | [`dedicated`] server | one dual-role request word |
//! | [`combining::CombiningLock`] (`DSynch`) | [`queue`] combiner | wait/completed flags + response line |
//! | [`ccsynch::CcSynch`] (naive full fences) | [`queue`] combiner | one packed status word |
//! | [`flatcombining::FlatCombining`] | — (publication list + combiner lock) | request word + response line |
//!
//! All five sit on one private core that owns the protected state, the
//! [`OpTable`], the mode, the barrier pair and the seed pool; the protected
//! state is dereferenced in exactly one function, an `unsafe fn` the in-place
//! locks share, called where a protocol has made its thread the unique
//! server (one `#[allow(unsafe_code)]` site per protocol, five in all).
//! Every Pilot response goes through `armbar-pilot`'s one cell
//! (Algorithms 3, 4 and 6 live in `armbar_pilot::cell`): a *response line*
//! above is a `PilotCell`, the two packed words use `HashPool::pack`.
//!
//! Critical sections are registered up front as plain functions
//! (`fn(&mut T, u64) -> u64`) so delegation servers can run them without
//! allocation; the [`exec::Executor`] trait gives in-place and delegation
//! locks one interface, which the data-structure benchmarks build on.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod ccsynch;
pub mod combining;
#[allow(unsafe_code)]
mod core;
pub mod dedicated;
pub mod exec;
pub mod ffwd;
pub mod flatcombining;
pub mod mcs;
pub mod queue;
pub mod rcl;
pub mod ticket;

pub use armbar_barriers::ResponseMode;
pub use ccsynch::CcSynch;
pub use combining::CombiningLock;
pub use exec::{Executor, OpId, OpTable};
pub use ffwd::Ffwd;
pub use flatcombining::FlatCombining;
pub use mcs::McsLock;
pub use rcl::Rcl;
pub use ticket::TicketLock;
