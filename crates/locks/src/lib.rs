//! The two native locks the host-thread experiments run (paper §5), with
//! configurable barriers.
//!
//! Mutex locks split into two families (§5.1); one of each is here:
//!
//! * **In-place** — [`ticket::TicketLock`] (Linux-kernel style):
//!   competitors spin on shared state and execute their critical sections
//!   themselves. Barriers guard both the lock and unlock procedures;
//!   Figure 7(a) varies the *unlock* barrier because it is the one that ends
//!   up strictly after the critical section's remote memory references.
//! * **Delegation** — [`combining::CombiningLock`] (`DSynch`): a migratory
//!   combiner executes every queued critical section. Barriers order
//!   request/response hand-offs (Algorithm 5, lines 4 and 7); the
//!   response-side barrier follows the critical section's stores — the
//!   expensive pattern — and constructing the lock with
//!   [`ResponseMode::Pilot`] removes it per Algorithm 6, through
//!   `armbar-pilot`'s one cell (`PilotCell`).
//!
//! Both reach the protected state through one state cell, the crate's one
//! dereference behind an `unsafe fn`, called where a protocol has made its
//! thread the unique server (one `#[allow(unsafe_code)]` site per lock).
//! Every other delegation design of the paper (FFWD, RCL, CC-Synch, flat
//! combining) and the MCS lock run on the simulator only
//! (`armbar-simapps`), where the barriers mean what they mean on ARM.
//!
//! Critical sections are registered up front as plain functions
//! (`fn(&mut T, u64) -> u64`) so the combiner can run them without
//! allocation; the [`exec::Executor`] trait gives both locks one interface,
//! which the floorplan workload builds on.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod combining;
#[allow(unsafe_code)]
mod core;
pub mod exec;
pub mod ticket;

pub use armbar_barriers::ResponseMode;
pub use combining::CombiningLock;
pub use exec::{Executor, OpId, OpTable};
pub use ticket::TicketLock;
