//! The soundness argument, in tier-1. Every fast path in the workspace is
//! held to a slower reference by a differential suite of its own crate;
//! this file compiles those suites, unmodified, into the root package so a
//! plain `cargo test` runs them too:
//!
//! * `engine_diff`, `dlock_diff` — the event engine against the lockstep
//!   oracle on every workload family the experiments sweep;
//! * `sim_proptests` — the simulator's own properties: the event engine
//!   against the oracle on random programs, nop and retire-only stretches,
//!   and poll loops entered with stores still draining, with writers on
//!   either side and stop/resume schedules down to a bound on every cycle;
//! * `directory_diff` — the coherence directory against its naive model,
//!   on Kunpeng 916 and on the 1024-core machine;
//! * `wmm_differential` — the explorer against its oracle;
//! * `analyze_differential` — every lint/synth diff form against the
//!   two-`HashSet` definition.

#[path = "../crates/experiments/tests/engine_diff.rs"]
mod engine_diff;

#[path = "../crates/experiments/tests/dlock_diff.rs"]
mod dlock_diff;

#[path = "../crates/sim/tests/proptests.rs"]
mod sim_proptests;

#[path = "../crates/sim/tests/directory_diff.rs"]
mod directory_diff;

#[path = "../crates/wmm/tests/differential.rs"]
mod wmm_differential;

#[path = "../crates/analyze/tests/differential.rs"]
mod analyze_differential;
