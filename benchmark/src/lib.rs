//! The repo's performance ledger.
//!
//! Four end-to-end workloads ([`workloads`]) and a set of layer probes
//! ([`probes`]) over `experiments`, `simapps`, `sim`, `wmm`, `analyze` and
//! `extract`, all measured **from outside**: this package is a stand-alone
//! workspace that only calls the layers' public functions, so it changes
//! nothing it measures. `BENCHMARK.json` at the repo root declares the
//! metrics ([`spec`]); `benchmark/README.md` says what each is for.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod check;
pub mod compare;
pub mod json;
pub mod probes;
pub mod rng;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
