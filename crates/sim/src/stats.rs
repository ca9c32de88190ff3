//! Per-core and per-run statistics.

use armbar_barriers::Barrier;

use crate::types::{Cycle, DistanceClass};

/// The mutually exclusive reasons a fully barrier-stalled issue cycle is
/// charged to: the simulator's answer to the paper's attributional
/// analysis. The core model picks exactly one cause and one barrier kind
/// per stalled cycle at its single charging point, so the cause counts and
/// the per-kind subtotals of [`StallBreakdown`] sum to the same total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// Waiting out a barrier's response window after its wait conditions
    /// were already met — the DSB/ISB "empty pipeline" interval, the
    /// intrinsic cost of Figure 2 / Observation 1: nothing may issue until
    /// the synchronization (or context-synchronization) response arrives.
    ResponseWindow,
    /// Memory operations held back by a DMB-class barrier whose response is
    /// scheduled but not yet arrived — Figure 3's DMB round-trip.
    /// Non-memory work could still issue (Observation 3's overlap
    /// potential), so these cycles count only when nothing else could.
    MemoryBlock,
    /// Waiting for prior accesses to drain/complete before a barrier can
    /// even request its response — Figures 4–6's store-buffer drain and
    /// outstanding-access component — split by how far the slowest
    /// outstanding access travels ("crossing nodes is a killer",
    /// Observation 5).
    DrainWait(DistanceClass),
    /// The ROB is full behind a barrier still occupying its slot (a DSB or
    /// a `dmb_holds_rob` DMB) — Figure 4's back-pressure, Observation 2.
    RobFull,
    /// The store buffer is full and its head cannot drain past a closed
    /// `DMB st` gate — the gate back-pressure of Figure 7's unlock path.
    SbFull,
}

impl StallCause {
    /// How many causes there are: one per [`DistanceClass`] for
    /// [`StallCause::DrainWait`], plus the other four.
    const COUNT: usize = DistanceClass::ALL.len() + 4;

    /// This cause's position in [`StallBreakdown::CAUSE_LABELS`] and in
    /// [`StallBreakdown::cause_counts`].
    pub(crate) fn index(self) -> usize {
        match self {
            StallCause::ResponseWindow => 0,
            StallCause::MemoryBlock => 1,
            StallCause::DrainWait(d) => 2 + d.index(),
            StallCause::RobFull => Self::COUNT - 2,
            StallCause::SbFull => Self::COUNT - 1,
        }
    }

    /// Stable text label (CSV column / trace track name).
    #[must_use]
    pub fn label(self) -> &'static str {
        StallBreakdown::CAUSE_LABELS[self.index()]
    }
}

/// Barrier-stall cycles, counted by [`StallCause`] and by barrier kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Cycles per cause, in [`StallBreakdown::CAUSE_LABELS`] order.
    causes: [Cycle; StallCause::COUNT],
    /// Subtotals by the barrier kind responsible, indexed by position in
    /// [`Barrier::ALL`]: the DMB-vs-DSB-vs-acquire/release comparisons of
    /// Figures 6–7.
    by_kind: [Cycle; Barrier::ALL.len()],
}

impl StallBreakdown {
    /// Labels of the causes, in the order [`StallCause`] declares them.
    pub const CAUSE_LABELS: [&'static str; StallCause::COUNT] = [
        "response-window",
        "memory-block",
        "drain-wait:local",
        "drain-wait:same-cluster",
        "drain-wait:cross-cluster",
        "drain-wait:cross-node",
        "drain-wait:memory",
        "rob-full",
        "sb-full",
    ];

    /// The barrier kinds the core model can actually charge stalls to, in
    /// report order.
    pub const CHARGEABLE_KINDS: [Barrier; 11] = [
        Barrier::DmbFull,
        Barrier::DmbSt,
        Barrier::DmbLd,
        Barrier::DsbFull,
        Barrier::DsbSt,
        Barrier::DsbLd,
        Barrier::Isb,
        Barrier::CtrlIsb,
        Barrier::Ldar,
        Barrier::Ldapr,
        Barrier::Stlr,
    ];

    /// Charge `cycles` stalled cycles to one cause and one barrier kind.
    pub fn charge(&mut self, cause: StallCause, kind: Barrier, cycles: Cycle) {
        self.causes[cause.index()] += cycles;
        self.by_kind[kind_index(kind)] += cycles;
    }

    /// The cause counts in [`StallBreakdown::CAUSE_LABELS`] order.
    #[must_use]
    pub fn cause_counts(&self) -> &[Cycle; StallCause::COUNT] {
        &self.causes
    }

    /// Total fully stalled issue cycles: the sum of the cause counts.
    #[must_use]
    pub fn total(&self) -> Cycle {
        self.causes.iter().sum()
    }

    /// Sum of the per-kind subtotals (must equal
    /// [`total`](Self::total)).
    #[must_use]
    pub fn kind_total(&self) -> Cycle {
        self.by_kind.iter().sum()
    }

    /// Stalled cycles charged to one barrier kind.
    #[must_use]
    pub fn kind_count(&self, kind: Barrier) -> Cycle {
        self.by_kind[kind_index(kind)]
    }

    /// Accumulate another core's breakdown into this one.
    pub fn merge(&mut self, other: &StallBreakdown) {
        for (a, b) in self.causes.iter_mut().zip(&other.causes) {
            *a += b;
        }
        for (a, b) in self.by_kind.iter_mut().zip(&other.by_kind) {
            *a += b;
        }
    }
}

/// Dense index of a barrier kind in [`Barrier::ALL`].
fn kind_index(kind: Barrier) -> usize {
    Barrier::ALL
        .iter()
        .position(|&b| b == kind)
        .expect("every barrier kind appears in Barrier::ALL")
}

/// Number of buckets in a [`LatencyHistogram`]: bucket `i` holds samples
/// whose bit length is `i` (powers of two up to 2^38 cycles — far beyond
/// any simulated response time), with the last bucket open-ended.
pub const LATENCY_BUCKETS: usize = 40;

/// Fixed-boundary response-time histogram with power-of-two buckets.
///
/// Samples are cycle deltas between successive `Op::IterationMark`s on one
/// core — the closed-loop completion-to-completion response time. The
/// bucket boundaries are compile-time constants (no per-run adaptation),
/// so two runs that complete iterations at the same cycles produce
/// *identical* histograms: the struct is `Eq` and sits inside
/// [`CoreStats`], which the engine-differential suites compare field by
/// field. Quantile queries return the bucket's inclusive upper bound
/// clamped to the observed maximum, which makes
/// `p50 <= p99 <= p999 <= max` hold by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Sample counts per power-of-two bucket.
    counts: [u64; LATENCY_BUCKETS],
    /// Total recorded samples (`== counts.iter().sum()`).
    count: u64,
    /// Largest recorded sample.
    max: Cycle,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            counts: [0; LATENCY_BUCKETS],
            count: 0,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// Bucket index of one sample: its bit length, clamped into range.
    fn bucket(sample: Cycle) -> usize {
        let bits = (Cycle::BITS - sample.leading_zeros()) as usize;
        bits.min(LATENCY_BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
    fn upper_bound(i: usize) -> Cycle {
        if i >= LATENCY_BUCKETS - 1 {
            Cycle::MAX
        } else {
            (1 << i) - 1
        }
    }

    /// Record one response-time sample.
    pub fn record(&mut self, sample: Cycle) {
        self.counts[Self::bucket(sample)] += 1;
        self.count += 1;
        self.max = self.max.max(sample);
    }

    /// Fold another histogram into this one (per-core → per-run merge).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// Total recorded samples.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.count
    }

    /// Largest recorded sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> Cycle {
        self.max
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`) as the inclusive upper bound of
    /// the bucket holding the `ceil(q * count)`-th smallest sample, clamped
    /// to the observed maximum. Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `(0.0, 1.0]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Cycle {
        assert!(q > 0.0 && q <= 1.0, "quantile out of range: {q}");
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Convenience: the (p50, p99, p999, max) tuple the reports use.
    #[must_use]
    pub fn summary(&self) -> (Cycle, Cycle, Cycle, Cycle) {
        (
            self.quantile(0.50),
            self.quantile(0.99),
            self.quantile(0.999),
            self.max,
        )
    }
}

/// Counters collected by one core over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Cycles the core existed (equals run length unless it halted early;
    /// the counter freezes at the halt cycle).
    pub cycles: Cycle,
    /// Iterations reported by the workload via `Op::IterationMark`.
    pub iterations: u64,
    /// Instructions issued (nops count individually).
    pub issued: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Loads issued.
    pub loads: u64,
    /// Loads that were remote memory references.
    pub load_rmrs: u64,
    /// Stores issued.
    pub stores: u64,
    /// Store drains that were remote memory references.
    pub store_rmrs: u64,
    /// Barrier instructions issued (fences; LDAR/STLR counted at their
    /// accesses instead).
    pub fences: u64,
    /// Atomic RMW operations issued.
    pub rmws: u64,
    /// Cycles in which issue was completely blocked by a barrier condition,
    /// decomposed by cause and barrier kind.
    pub stall: StallBreakdown,
    /// Cycle at which the workload halted, if it did.
    pub halted_at: Option<Cycle>,
    /// Response-time histogram over the gaps between successive
    /// `Op::IterationMark`s (first sample measured from cycle 0).
    pub latency: LatencyHistogram,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_keeps_causes_and_kinds_in_sync() {
        let mut b = StallBreakdown::default();
        b.charge(StallCause::ResponseWindow, Barrier::DsbFull, 7);
        b.charge(
            StallCause::DrainWait(DistanceClass::CrossNode),
            Barrier::DmbFull,
            3,
        );
        b.charge(StallCause::SbFull, Barrier::DmbSt, 2);
        b.charge(StallCause::RobFull, Barrier::DmbFull, 1);
        b.charge(StallCause::MemoryBlock, Barrier::DmbFull, 5);
        assert_eq!(b.total(), 18);
        assert_eq!(b.kind_total(), 18);
        assert_eq!(b.kind_count(Barrier::DmbFull), 9);
        assert_eq!(b.kind_count(Barrier::DsbFull), 7);
        assert_eq!(b.kind_count(Barrier::DmbSt), 2);
        assert_eq!(
            b.cause_counts()[StallCause::DrainWait(DistanceClass::CrossNode).index()],
            3
        );
        assert_eq!(b.cause_counts()[StallCause::MemoryBlock.index()], 5);
    }

    #[test]
    fn acquire_subtotals_preserve_the_breakdown_invariant() {
        // The LDAPR kind gets its own subtotal; charging a mix of RCsc and
        // RCpc gate stalls keeps sum(causes) == sum(kinds) == total.
        let mut b = StallBreakdown::default();
        b.charge(
            StallCause::DrainWait(DistanceClass::Local),
            Barrier::Ldar,
            11,
        );
        b.charge(
            StallCause::DrainWait(DistanceClass::SameCluster),
            Barrier::Ldapr,
            5,
        );
        b.charge(
            StallCause::DrainWait(DistanceClass::CrossNode),
            Barrier::Ldapr,
            2,
        );
        assert_eq!(b.total(), 18);
        assert_eq!(b.kind_total(), b.total());
        assert_eq!(b.kind_count(Barrier::Ldar), 11);
        assert_eq!(b.kind_count(Barrier::Ldapr), 7);
    }

    #[test]
    fn every_chargeable_kind_has_a_distinct_subtotal_slot() {
        for kind in StallBreakdown::CHARGEABLE_KINDS {
            let mut b = StallBreakdown::default();
            b.charge(StallCause::DrainWait(DistanceClass::Local), kind, 3);
            assert_eq!(b.kind_count(kind), 3, "{kind}");
            assert_eq!(b.total(), b.kind_total());
            // No other kind's slot was touched.
            for other in StallBreakdown::CHARGEABLE_KINDS {
                if other != kind {
                    assert_eq!(b.kind_count(other), 0);
                }
            }
        }
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = StallBreakdown::default();
        a.charge(StallCause::ResponseWindow, Barrier::Isb, 4);
        let mut b = StallBreakdown::default();
        b.charge(
            StallCause::DrainWait(DistanceClass::Local),
            Barrier::Stlr,
            6,
        );
        a.merge(&b);
        assert_eq!(a.total(), 10);
        assert_eq!(a.kind_total(), 10);
        assert_eq!(a.cause_counts()[StallCause::ResponseWindow.index()], 4);
        assert_eq!(a.kind_count(Barrier::Stlr), 6);
    }

    #[test]
    fn cause_labels_match_stall_cause_labels() {
        let causes = [
            StallCause::ResponseWindow,
            StallCause::MemoryBlock,
            StallCause::DrainWait(DistanceClass::Local),
            StallCause::DrainWait(DistanceClass::SameCluster),
            StallCause::DrainWait(DistanceClass::CrossCluster),
            StallCause::DrainWait(DistanceClass::CrossNode),
            StallCause::DrainWait(DistanceClass::Memory),
            StallCause::RobFull,
            StallCause::SbFull,
        ];
        assert_eq!(causes.len(), StallBreakdown::CAUSE_LABELS.len());
        for (i, (c, l)) in causes.iter().zip(StallBreakdown::CAUSE_LABELS).enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(c.label(), l);
        }
    }

    #[test]
    fn histogram_buckets_and_bounds() {
        // Bit-length bucketing: 0 → bucket 0, 1 → 1, 2..3 → 2, 4..7 → 3 …
        assert_eq!(LatencyHistogram::bucket(0), 0);
        assert_eq!(LatencyHistogram::bucket(1), 1);
        assert_eq!(LatencyHistogram::bucket(2), 2);
        assert_eq!(LatencyHistogram::bucket(3), 2);
        assert_eq!(LatencyHistogram::bucket(4), 3);
        assert_eq!(LatencyHistogram::bucket(u64::MAX), LATENCY_BUCKETS - 1);
        assert_eq!(LatencyHistogram::upper_bound(0), 0);
        assert_eq!(LatencyHistogram::upper_bound(3), 7);
        assert_eq!(LatencyHistogram::upper_bound(LATENCY_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.total(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.summary(), (0, 0, 0, 0));
    }

    #[test]
    fn single_sample_pins_every_quantile_to_itself() {
        let mut h = LatencyHistogram::default();
        h.record(100);
        // Every quantile is the bucket bound clamped to the observed max.
        assert_eq!(h.summary(), (100, 100, 100, 100));
    }

    #[test]
    fn merge_is_concatenation() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        let mut both = LatencyHistogram::default();
        for s in [3u64, 9, 1000] {
            a.record(s);
            both.record(s);
        }
        for s in [70u64, 70_000] {
            b.record(s);
            both.record(s);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    use proptest::prelude::*;

    proptest! {
        /// Sum of bucket counts equals total, quantiles are monotone, and
        /// p999 never exceeds the observed maximum.
        #[test]
        fn histogram_invariants(samples in prop::collection::vec(0u64..1 << 50, 1..200)) {
            let mut h = LatencyHistogram::default();
            for &s in &samples {
                h.record(s);
            }
            prop_assert_eq!(h.total(), samples.len() as u64);
            prop_assert_eq!(h.counts.iter().sum::<u64>(), h.count);
            prop_assert_eq!(h.max(), *samples.iter().max().unwrap());
            let (p50, p99, p999, max) = h.summary();
            prop_assert!(p50 <= p99);
            prop_assert!(p99 <= p999);
            prop_assert!(p999 <= max);
            // The median's bucket bound is never below the true median.
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let median = sorted[sorted.len().div_ceil(2) - 1];
            prop_assert!(p50 >= median || p50 == h.max());
        }

        /// Merging in either order gives the same histogram as recording
        /// everything into one.
        #[test]
        fn histogram_merge_commutes(
            xs in prop::collection::vec(0u64..1 << 40, 0..100),
            ys in prop::collection::vec(0u64..1 << 40, 0..100),
        ) {
            let mut a = LatencyHistogram::default();
            let mut b = LatencyHistogram::default();
            let mut whole = LatencyHistogram::default();
            for &s in &xs {
                a.record(s);
                whole.record(s);
            }
            for &s in &ys {
                b.record(s);
                whole.record(s);
            }
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(&ab, &ba);
            prop_assert_eq!(&ab, &whole);
        }
    }
}
