//! **Pilot**: removing the performance-critical barrier in memory-based
//! communication (PPoPP 2020, §4.3).
//!
//! The expensive barrier in a producer-consumer exchange is the one that
//! strictly follows the remote memory reference — it orders *store the data*
//! before *set the flag*. Pilot removes it by **piggybacking the flag on the
//! data**: ARMv8 guarantees aligned 64-bit stores are *single-copy atomic*,
//! so a single store can publish payload and readiness together. The
//! receiver simply watches the shared word change.
//!
//! Two wrinkles make this correct for arbitrary payloads (Algorithms 3 & 4):
//!
//! 1. **Shuffling** — the sender XORs each payload with a per-round seed
//!    from a pre-shared [`HashPool`], making "new value == old value"
//!    vanishingly rare even for constant payload streams.
//! 2. **Flag fallback** — when the shuffled value still equals the previous
//!    one, the sender flips a separate shared flag instead; the receiver
//!    notices either the data changing or the flag changing.
//!
//! Algorithms 3 and 4 — and Algorithm 6, which is the same two applied to a
//! delegation lock's response — live in one file, [`cell`]: every Pilot user
//! in the workspace (the slot and ring here; the DSynch combining lock in
//! `armbar-locks`) publishes and polls through [`PilotCell`].
//!
//! This crate provides:
//!
//! * [`HashPool`] — the shared seed schedule.
//! * [`PilotCell`] — payload word + fallback flag on one padded line, with
//!   publish / sample-before-post / poll-and-decode in a local-cursor form
//!   (fixed sender) and a shared-round form (migratory sender).
//! * [`slot::PilotSender`]/[`slot::PilotReceiver`] — the bare Algorithms 3 & 4
//!   over one cell.
//! * [`channel::spsc_ring`] — the baseline barrier-configurable
//!   producer-consumer ring (Algorithm 2) for comparison.
//! * [`channel::pilot_ring`] — the ring with Pilot applied (§4.4): the
//!   post-RMR barrier and the consumer's flag line are gone. A batched
//!   (n × 8-byte) transfer (§4.5, Figure 6(c)) is `n` sends over either.
//!
//! On x86 hosts everything is correct (TSO is stronger than the barriers
//! requested); on aarch64 the configured barriers compile to the real
//! instructions via `armbar-barriers`.

#![warn(missing_docs)]

pub mod cell;
pub mod channel;
pub mod hashpool;
pub mod slot;

pub use cell::PilotCell;
pub use channel::{
    pilot_ring, spsc_ring, BarrierPair, PilotReceiverRing, PilotSenderRing, SpscReceiver,
    SpscSender,
};
pub use hashpool::HashPool;
pub use slot::{pilot_pair, PilotReceiver, PilotSender};

/// Spin on a non-blocking attempt until it yields, with polite exponential
/// backoff so oversubscribed hosts still make progress.
pub fn spin_until<T>(mut attempt: impl FnMut() -> Option<T>) -> T {
    let backoff = crossbeam::utils::Backoff::new();
    loop {
        if let Some(v) = attempt() {
            return v;
        }
        backoff.snooze();
    }
}
