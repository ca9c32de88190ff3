//! Cycle-level simulator of an ARMv8-class memory subsystem.
//!
//! This crate is the hardware substrate for reproducing *"No Barrier in the
//! Road"* (PPoPP 2020) on a non-ARM host. It models exactly the mechanisms
//! the paper's observations hinge on:
//!
//! * a per-core pipeline with bounded issue width and a bounded re-order
//!   buffer retired in order (so pending barriers create back-pressure —
//!   Observation 2 / Figure 4);
//! * a **non-FIFO store buffer** that drains asynchronously (so store latency
//!   is normally invisible, §2.2/§6);
//! * directory-based coherence over a clustered, NUMA topology (so accesses
//!   to lines last owned elsewhere become *remote memory references* with
//!   distance-dependent cost);
//! * an ACE-style interconnect where DMB-class barriers issue a *memory
//!   barrier transaction* answered at the inner **bi-section** boundary when
//!   snooping stays inside one node, while DSB-class barriers (and the
//!   conservative STLR implementations the paper measured) issue a
//!   *synchronization barrier transaction* that always travels to the inner
//!   **domain** boundary (Observations 3 & 5);
//! * per-platform latency profiles for the paper's four machines (Table 2).
//!
//! Workloads feed an operation stream to a core through [`op::SimThread`];
//! they are written as straight-line `async` code and adapted by
//! [`script::Script`]. Stores and value-unused loads are fire-and-forget, so
//! independent work overlaps outstanding misses just as on real hardware.
//!
//! The simulator is deterministic: the same machine + threads produce the
//! same cycle counts on every host, under either scheduling engine
//! ([`machine::Engine`]). The lockstep oracle steps every cycle in which
//! anything retires or issues and is what the differential tests hold the
//! default, event-driven engine to. That one steps a core only at its
//! *events* and applies the cycles in between in closed form when the core
//! is next looked at (`core_model::Core::catch_up`), so a run stopped
//! anywhere reads as if every cycle had been stepped:
//! [`Core::next_wake`](core_model::Core::next_wake) is the oracle's
//! *heartbeat*, `Core::sleep` the event engine's *skip*. A core parked on
//! [`Op::WaitChange`], or in a settled poll loop its thread marked with
//! [`Op::SpinMark`], is woken by the write it waits for (a poller also at
//! its store buffer's next event). `DESIGN.md` §10 has the five closed
//! forms and why no other core can tell.
//!
//! # Example
//!
//! ```
//! use armbar_sim::{Machine, Op, Platform, Script};
//!
//! /// Stores a value then halts.
//! let one_store = Script::new(|cpu| async move {
//!     cpu.op(Op::store(0x1000, 7)).await;
//! });
//!
//! let mut m = Machine::new(Platform::kunpeng916());
//! let core = m.add_thread_on(0, Box::new(one_store));
//! let stats = m.run(1_000_000);
//! assert!(stats.halted);
//! assert!(m.core_stats(core).cycles > 0);
//! assert_eq!(m.read_memory(0x1000), 7);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod core_model;
pub mod directory;
pub mod machine;
pub mod op;
pub mod platform;
pub mod rob;
pub mod script;
mod spin;
pub mod stats;
pub mod storebuf;
pub mod topology;
pub mod trace;
pub mod types;

pub use machine::{Engine, Machine, RunStats};
pub use op::{Op, RmwKind, SimThread, ThreadCtx};
pub use platform::{LatencyParams, Platform, PlatformKind};
pub use script::{Cpu, Script};
pub use stats::{CoreStats, LatencyHistogram, StallBreakdown, StallCause};
pub use topology::{Placement, Topology};
pub use trace::{Event, Trace};
pub use types::{Addr, CoreId, Cycle, DistanceClass, Line, LINE_BYTES};
