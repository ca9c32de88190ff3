//! `armbar-extract`: the AArch64 assembly front-end of the analyzer.
//!
//! The paper's lint pipeline reasons about [`armbar_wmm::model::Program`]s;
//! until this crate existed, those programs were built by hand in Rust.
//! This crate closes the gap to *real artifacts*:
//!
//! * [`parse()`] + [`lift()`] turn a practical AArch64 subset (`.s` text with
//!   `// armbar:` pragmas declaring threads and the shared/private symbol
//!   map) into model programs, with bounded unrolling of spin loops,
//!   constant-folded counted loops, and the paper's dependency idioms
//!   (`eor x, v, v` bogus data/address deps, control deps from
//!   undetermined forward branches) recovered as model annotations;
//! * [`drift`] scrapes the `asm!` templates out of
//!   `armbar-barriers`' native backend source and lint-checks each wrapper
//!   against the instruction its name promises
//!   ([`armbar_barriers::native::ASM_CONTRACT`]);
//! * [`fixtures`] ships the checked-in `.s` corpus (MCS handoff, ticket
//!   lock, Pilot round-trip) that `analyze`'s lint corpus now lifts as its
//!   production path, paired with the retired hand-built twins so tests
//!   can prove outcome-set equality.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drift;
pub mod fixtures;
pub mod lift;
pub mod parse;

pub use drift::{check_drift, check_native_drift, DriftReport, DriftRow};
pub use lift::{lift, lift_file, Lifted, Symbol, MAX_FETCH_STEPS, MAX_THREAD_INSTRS};
pub use parse::{parse, AsmError, AsmFile, SrcPos};
