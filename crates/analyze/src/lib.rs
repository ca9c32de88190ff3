//! The analyzer behind `armbar lint` and `armbar synth`: witness-backed
//! static analysis of ARM barrier usage.
//!
//! The paper's Table 3 tells you which order-preserving approach a given
//! requirement *needs*; this crate turns that advice into a checker that
//! inspects whole [`Program`](armbar_wmm::Program)s and reports, per
//! barrier site:
//!
//! * **redundant** — deleting the site provably changes no allowed outcome;
//! * **over-strong** — a cheaper approach (one-way DMB, acquire/release,
//!   or a constructed bogus dependency) discharges the same requirement;
//! * **missing** — the program's forbidden outcome is reachable as-is;
//! * **necessary** — the site is load-bearing, with the counterexample
//!   execution that proves it.
//!
//! # Verified rewrites
//!
//! The analyzer never trusts the advisor's table alone. Every *redundant*
//! and *over-strong* suggestion is applied to the program
//! ([`armbar_wmm::mutate`]) and the mutated program is re-run through the
//! exhaustive explorer; the suggestion is emitted only when the mutated
//! outcome set adds **nothing** to the original's (equality for removals,
//! subset-or-equal for substitutions). The resulting
//! [`Proof`](lint::Proof) — an outcome-set equality, a preservation diff,
//! or the concrete [`Witness`](armbar_wmm::witness::Witness) interleaving
//! that kills a rejected suggestion — ships with the finding, so a report
//! line is never a heuristic, always a theorem about the model.
//!
//! The [`replay`] module then prices each accepted rewrite on the
//! cycle-level simulator's four platform profiles, closing the loop from
//! static claim to dynamic estimate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod corpus;
pub mod lint;
pub mod replay;
pub mod synth;

pub use corpus::{corpus, LintCase};
pub use lint::{analyze_case, analyze_corpus, Finding, FindingKind, Proof};
pub use replay::{platform_cycles, replay_cycles, rewrite_savings, REPLAY_ITERS};
pub use synth::{chosen_point, pareto_fronts, synthesize, FrontPoint, Placement, SynthResult};
