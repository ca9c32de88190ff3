//! The soundness argument, in tier-1. Every fast path in the workspace is
//! held to a slower reference by a differential suite of its own crate;
//! this file compiles those suites, unmodified, into the root package so a
//! plain `cargo test` runs them too:
//!
//! * `engine_diff`, `dlock_diff` — the event engine against the lockstep
//!   oracle on every workload family the experiments sweep;
//! * `directory_diff` — the coherence directory against its naive model,
//!   on Kunpeng 916 and on the 1024-core machine;
//! * `wmm_differential` — the explorer against its oracle;
//! * `analyze_differential` — every lint/synth diff form against the
//!   two-`HashSet` definition.
//!
//! Left out to keep a warm `cargo test` under 15 s: the simulator's own
//! properties (`crates/sim/tests/proptests.rs`), whose two 256-case
//! engine-vs-oracle properties alone take 13 s of CPU in the dev profile.
//! They run with the rest of `cargo test --workspace`.

#[path = "../crates/experiments/tests/engine_diff.rs"]
mod engine_diff;

#[path = "../crates/experiments/tests/dlock_diff.rs"]
mod dlock_diff;

#[path = "../crates/sim/tests/directory_diff.rs"]
mod directory_diff;

#[path = "../crates/wmm/tests/differential.rs"]
mod wmm_differential;

#[path = "../crates/analyze/tests/differential.rs"]
mod analyze_differential;
