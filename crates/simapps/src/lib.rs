//! Simulator workloads for every experiment in the paper.
//!
//! Each module writes one of the paper's benchmark programs as simulated
//! threads — straight-line `async fn`s over [`Script`](armbar_sim::Script) —
//! and a runner that reports throughput on a chosen
//! [`Platform`](armbar_sim::Platform):
//!
//! * [`abstract_model`] — Algorithm 1 (§3.2): the barrier micro-model
//!   behind Figures 2, 3, 4, 5.
//! * [`prodcons`] — Algorithm 2 + Pilot (§4): Figures 6(a), 6(b), 6(c).
//! * [`ticket_sim`] — the in-place ticket lock benchmark: Figure 7(a).
//! * [`mcs_sim`] — the MCS queue lock, the second in-place baseline for
//!   the delegation-lock suite.
//! * [`delegation_sim`] — delegation lock server/clients (Algorithms 5 & 6)
//!   in dedicated (FFWD, RCL) and migratory (DSynch, flat-combining,
//!   CC-Synch) flavours: Figures 7(b), 7(c), 8(a–c) and `armbar run dlock`.
//! * [`metrics`] — response-time science shared by the lock benchmarks:
//!   latency histograms, Jain's fairness index, combiner subversion.
//! * [`bind`] — the thread-placement configurations the figures sweep
//!   (same NUMA node, cross node, mobile big cluster, …).
//! * [`barrier_sim`] — the many-core barrier-synchronization family
//!   (centralized / combining-tree / hierarchical) behind `armbar run manycore`.
//!
//! Every workload has one entry point, `run_x(..)`, and one variant that
//! takes [`RunOpts`] (pinned scheduling engine, event tracing) and returns
//! the richest result it computes plus the trace: `run_x_with(.., RunOpts)`.
//!
//! A thread reads like the paper's pseudocode: every operation is
//! `cpu.op(op).await`, which resolves to the value a load produced. A
//! protocol piece that several threads share is written once, as an
//! ordinary `async fn` they `.await`: `ticket_sim`'s `critical_section` and
//! `pace` for the two in-place locks; the delegated `serve`, the waiting
//! end of the same `Publish` descriptor (`Response::poll`), the combiners'
//! record `visit` and the clients' iteration `tail` in [`delegation_sim`];
//! Algorithms 3 and 4 on a ring slot in [`prodcons`]. A configured
//! `Barrier` becomes ops in one private module, `lower`. No thread here
//! implements `SimThread` by hand (CI checks). Every wait that polls — a
//! dedicated server's sweep of the request lines too — starts each
//! iteration with `cpu.spin_mark().await`: free in simulated time, it tells
//! the event engine the loop is decided by the values it loads, so a
//! settled wait is skipped in closed form; the one loop with a counter of
//! its own (`dsynch_client`'s every-eighth-miss baton retry) is left
//! unmarked. DESIGN.md §11.1 has the table, the adapter's contract and the
//! mark's.
//!
//! Calibration tests at the bottom of each module assert the paper's
//! *observations* hold on the simulator — they are the contract between
//! the latency profiles in `armbar-sim` and the figures the experiment
//! harness regenerates.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod abstract_model;
pub mod barrier_sim;
pub mod bind;
pub mod delegation_sim;
mod harness;
mod lower;
pub mod mcs_sim;
pub mod metrics;
pub mod prodcons;
pub mod ticket_sim;

pub use abstract_model::{run_model, BarrierLoc, MemOpKind, ModelSpec};
pub use barrier_sim::{run_barrier, BarrierConfig, BarrierFamily, BarrierResult};
pub use bind::BindConfig;
pub use harness::RunOpts;
pub use mcs_sim::{run_mcs, run_mcs_with, McsConfig};
pub use metrics::{jain_index, DlockMetrics};
