//! The non-FIFO store buffer.
//!
//! ARM "allows store operations to be reordered in the store buffer"
//! (paper §6): any pending entry whose constraints are satisfied may drain,
//! regardless of age. Constraints:
//!
//! * **Same-line order**: entries to one cache line drain oldest-first
//!   (coherence would make anything else unimplementable).
//! * **Gates**: a `DMB st`/`DMB full` places a gate; entries younger than a
//!   gate may not drain until it opens (all older entries drained *and* the
//!   ACE memory-barrier response arrived).
//! * **Release entries** (`STLR`): drain only after every older entry has
//!   drained and every older load has completed, with the extra
//!   domain-scope latency of the conservative implementations the paper
//!   measured.
//! * **Data readiness**: an entry whose data carries a bogus dependency on a
//!   load drains only after that load completes.
//!
//! Drains occupy one of `drain_ports` coherence ports each.
//!
//! Entries and gates are kept in program order (`push` and `push_gate`
//! assert it), and the drain pick leans on that: "older" means "earlier
//! in the list", so a release entry drains only from the head and one
//! pass, stopped at the oldest closed gate, finds the candidate.

use crate::types::{Addr, Cycle, DistanceClass, Line};

/// Sequence number ordering stores and gates in program order.
pub type Seq = u64;

/// State of one buffered store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SbState {
    /// Waiting for its constraints to allow a drain.
    Pending,
    /// Coherence transaction in flight; globally visible at `done_at`.
    Draining {
        /// Completion time.
        done_at: Cycle,
    },
}

/// A buffered store.
#[derive(Debug, Clone)]
pub struct SbEntry {
    /// Program-order sequence number.
    pub seq: Seq,
    /// Target address (8-byte cell).
    pub addr: Addr,
    /// Target line.
    pub line: Line,
    /// Value to write.
    pub value: u64,
    /// Store-release (`STLR`)?
    pub release: bool,
    /// Earliest cycle the data is available (dependency on a load).
    pub data_ready_at: Cycle,
    /// Current state.
    pub state: SbState,
    /// Distance class of the drain, recorded when the drain starts.
    pub drain_distance: Option<DistanceClass>,
}

impl SbEntry {
    /// Whether this entry's drain crossed a NUMA node (false while pending).
    #[must_use]
    pub fn drain_crossed_node(&self) -> bool {
        self.drain_distance.is_some_and(DistanceClass::crosses_node)
    }

    /// Whether this entry's drain was a remote memory reference.
    #[must_use]
    pub fn drain_was_rmr(&self) -> bool {
        self.drain_distance.is_some_and(DistanceClass::is_rmr)
    }
}

/// A `DMB st`-style gate inside the buffer.
#[derive(Debug, Clone)]
pub struct SbGate {
    /// Entries with `seq` < this are "older than the gate".
    pub seq: Seq,
    /// Once all older entries drain, the response arrives at this time
    /// (set by the core when that condition is met); `None` while waiting.
    pub open_at: Option<Cycle>,
    /// Whether any older drain crossed a node (determines response scope).
    pub crossed_node: bool,
    /// Whether any store was buffered when the gate was placed — an idle
    /// gate gets the cheap response.
    pub had_priors: bool,
}

/// The store buffer.
#[derive(Debug, Clone)]
pub struct StoreBuffer {
    entries: Vec<SbEntry>,
    gates: Vec<SbGate>,
    capacity: u32,
    drain_ports: u32,
    draining: u32,
    /// Drain strictly in program order (ablation; ARM buffers are not
    /// ordered).
    fifo: bool,
}

impl StoreBuffer {
    /// Empty buffer.
    #[must_use]
    pub fn new(capacity: u32, drain_ports: u32) -> StoreBuffer {
        StoreBuffer::with_order(capacity, drain_ports, false)
    }

    /// Empty buffer with an explicit drain-order policy (`fifo = true` is
    /// the x86-style ablation).
    #[must_use]
    pub fn with_order(capacity: u32, drain_ports: u32, fifo: bool) -> StoreBuffer {
        assert!(capacity > 0 && drain_ports > 0);
        StoreBuffer {
            entries: Vec::new(),
            gates: Vec::new(),
            capacity,
            drain_ports,
            draining: 0,
            fifo,
        }
    }

    /// Number of buffered (pending or draining) stores.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer holds no stores.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a new store can be accepted.
    #[must_use]
    pub fn has_space(&self) -> bool {
        (self.entries.len() as u32) < self.capacity
    }

    /// Buffer a store. Caller must have checked [`StoreBuffer::has_space`].
    pub fn push(&mut self, entry: SbEntry) {
        debug_assert!(self.has_space());
        debug_assert!(
            self.entries.last().is_none_or(|e| e.seq < entry.seq),
            "stores must arrive in program order"
        );
        self.entries.push(entry);
    }

    /// Place a gate after all currently buffered stores.
    ///
    /// A gate placed while an earlier gate is still pending is *not*
    /// prior-free: the older gate's response must still be collected before
    /// this one, so it cannot take the cheap idle-barrier path even if no
    /// store sits between them.
    pub fn push_gate(&mut self, seq: Seq) {
        debug_assert!(
            self.gates.last().is_none_or(|g| g.seq <= seq),
            "gates must be placed in program order"
        );
        let had_priors = !self.entries.is_empty() || !self.gates.is_empty();
        self.gates.push(SbGate {
            seq,
            open_at: None,
            crossed_node: false,
            had_priors,
        });
    }

    /// Iterate gates immutably.
    pub fn gates_iter(&self) -> impl Iterator<Item = &SbGate> {
        self.gates.iter()
    }

    /// The oldest gate not yet open, if every store older than it has
    /// drained: it requests its response at the core's next completion
    /// phase. Gates are barrier transactions and collect their responses
    /// in program order, so a younger closed gate waits for it either way.
    #[must_use]
    pub(crate) fn requesting_gate(&self) -> Option<usize> {
        let i = self.gates.iter().position(|g| g.open_at.is_none())?;
        self.drained_before(self.gates[i].seq).then_some(i)
    }

    /// All entries older than `seq` have fully drained?
    #[must_use]
    pub fn drained_before(&self, seq: Seq) -> bool {
        self.entries.iter().all(|e| e.seq >= seq)
    }

    /// Forward the youngest buffered value for `addr`, if any
    /// (store-to-load forwarding).
    #[must_use]
    pub fn forward(&self, addr: Addr) -> Option<u64> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.addr == addr)
            .map(|e| e.value)
    }

    /// The first (oldest) gate that is not yet open.
    #[must_use]
    pub fn blocking_gate(&self, now: Cycle) -> Option<&SbGate> {
        self.gates
            .iter()
            .find(|g| g.open_at.is_none_or(|t| t > now))
    }

    /// Iterate gates mutably (the core updates `open_at` when conditions
    /// are met).
    pub fn gates_mut(&mut self) -> impl Iterator<Item = &mut SbGate> {
        self.gates.iter_mut()
    }

    /// Drop gates that have opened at or before `now`.
    pub fn expire_gates(&mut self, now: Cycle) {
        self.gates.retain(|g| g.open_at.is_none_or(|t| t > now));
    }

    /// Select the next entry allowed to start draining at `now`, given
    /// whether all loads older than a candidate release store are complete
    /// (`loads_done_before(seq)`).
    ///
    /// Returns the index into the internal entry list.
    pub fn pick_drain_candidate(
        &self,
        now: Cycle,
        loads_done_before: impl Fn(Seq) -> bool,
    ) -> Option<usize> {
        if self.draining >= self.drain_ports {
            return None;
        }
        let gate_limit = self.blocking_gate(now).map_or(Seq::MAX, |g| g.seq);
        for (i, e) in self.entries.iter().enumerate() {
            if e.seq >= gate_limit {
                // Behind a closed gate, like everything younger; non-FIFO
                // freedom does not extend past a DMB st.
                break;
            }
            if !matches!(e.state, SbState::Pending) {
                if self.fifo {
                    // FIFO ablation: nothing younger may start while an
                    // older entry is still in flight.
                    break;
                }
                continue;
            }
            // Same-line order: an older entry to the same line must go first.
            if e.data_ready_at > now || self.entries[..i].iter().any(|o| o.line == e.line) {
                continue;
            }
            // STLR: all older stores drained, all older loads complete.
            if e.release && (i > 0 || !loads_done_before(e.seq)) {
                if self.fifo {
                    break;
                }
                continue;
            }
            return Some(i);
        }
        None
    }

    /// Mark entry `i` as draining until `done_at`, recording the distance
    /// class on the entry for barrier-scope tracking.
    pub fn start_drain(&mut self, i: usize, done_at: Cycle, distance: DistanceClass) {
        let e = &mut self.entries[i];
        debug_assert!(matches!(e.state, SbState::Pending));
        e.state = SbState::Draining { done_at };
        e.drain_distance = Some(distance);
        self.draining += 1;
    }

    /// Remove and return the oldest entry whose drain completed at or
    /// before `now` (for memory commit), if any.
    pub fn pop_completed_drain(&mut self, now: Cycle) -> Option<SbEntry> {
        if self.draining == 0 {
            return None;
        }
        let i = self
            .entries
            .iter()
            .position(|e| matches!(e.state, SbState::Draining { done_at } if done_at <= now))?;
        self.draining -= 1;
        Some(self.entries.remove(i))
    }

    /// Remove entries whose drains completed at or before `now`; returns
    /// the drained entries, oldest first.
    pub fn complete_drains(&mut self, now: Cycle) -> Vec<SbEntry> {
        std::iter::from_fn(|| self.pop_completed_drain(now)).collect()
    }

    /// Earliest future event inside the buffer (drain completion, gate
    /// opening, data becoming ready), if any.
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut best: Option<Cycle> = None;
        let mut consider = |t: Cycle| {
            if t > now {
                best = Some(best.map_or(t, |b| b.min(t)));
            }
        };
        for e in &self.entries {
            match e.state {
                SbState::Draining { done_at } => consider(done_at),
                SbState::Pending => {
                    if e.data_ready_at > now {
                        consider(e.data_ready_at);
                    }
                }
            }
        }
        for g in &self.gates {
            if let Some(t) = g.open_at {
                consider(t);
            }
        }
        best
    }

    /// Entry view for diagnostics/tests.
    #[must_use]
    pub fn entries(&self) -> &[SbEntry] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: Seq, addr: Addr) -> SbEntry {
        SbEntry {
            seq,
            addr,
            line: Line::containing(addr),
            value: seq,
            release: false,
            data_ready_at: 0,
            state: SbState::Pending,
            drain_distance: None,
        }
    }

    #[test]
    fn non_fifo_drain_allows_young_first() {
        let mut sb = StoreBuffer::new(8, 2);
        sb.push(entry(0, 0));
        sb.push(entry(1, 64));
        // Start draining the old one; the young one may still start.
        let i = sb.pick_drain_candidate(0, |_| true).unwrap();
        sb.start_drain(i, 100, DistanceClass::CrossNode);
        let j = sb.pick_drain_candidate(0, |_| true).unwrap();
        assert_ne!(i, j);
    }

    #[test]
    fn same_line_order_enforced() {
        let mut sb = StoreBuffer::new(8, 2);
        sb.push(entry(0, 0));
        sb.push(entry(1, 8)); // same line as 0
        let i = sb.pick_drain_candidate(0, |_| true).unwrap();
        assert_eq!(sb.entries()[i].seq, 0, "oldest same-line entry first");
        sb.start_drain(i, 50, DistanceClass::Local);
        // Younger same-line entry must wait until the older one LEAVES.
        assert!(sb.pick_drain_candidate(0, |_| true).is_none());
        sb.complete_drains(50);
        assert!(sb.pick_drain_candidate(50, |_| true).is_some());
    }

    #[test]
    fn gate_blocks_younger_entries() {
        let mut sb = StoreBuffer::new(8, 4);
        sb.push(entry(0, 0));
        sb.push_gate(1);
        sb.push(entry(2, 64));
        let i = sb.pick_drain_candidate(0, |_| true).unwrap();
        assert_eq!(sb.entries()[i].seq, 0);
        sb.start_drain(i, 10, DistanceClass::Local);
        assert!(
            sb.pick_drain_candidate(0, |_| true).is_none(),
            "gate closed"
        );
        sb.complete_drains(10);
        // Core opens the gate once pre-gate drains finish + response.
        sb.gates_mut().next().unwrap().open_at = Some(30);
        assert!(
            sb.pick_drain_candidate(20, |_| true).is_none(),
            "gate not open yet"
        );
        sb.expire_gates(30);
        assert!(sb.pick_drain_candidate(30, |_| true).is_some());
    }

    #[test]
    fn gate_behind_pending_gate_is_not_prior_free() {
        // Regression: had_priors used to look only at `entries`, so a
        // second back-to-back DMB st was treated as an idle barrier.
        let mut sb = StoreBuffer::new(8, 4);
        sb.push_gate(0);
        sb.push_gate(1);
        let gates: Vec<bool> = sb.gates_iter().map(|g| g.had_priors).collect();
        assert_eq!(gates, vec![false, true]);
    }

    #[test]
    fn gate_on_empty_buffer_is_prior_free() {
        let mut sb = StoreBuffer::new(8, 4);
        sb.push_gate(0);
        assert!(!sb.gates_iter().next().unwrap().had_priors);
    }

    #[test]
    fn release_waits_for_older_stores_and_loads() {
        let mut sb = StoreBuffer::new(8, 4);
        sb.push(entry(0, 0));
        let mut rel = entry(1, 64);
        rel.release = true;
        sb.push(rel);
        // Older store pending: release may not drain (but the older one may).
        let i = sb.pick_drain_candidate(0, |_| true).unwrap();
        assert_eq!(sb.entries()[i].seq, 0);
        sb.start_drain(i, 5, DistanceClass::Local);
        assert!(sb.pick_drain_candidate(0, |_| true).is_none());
        sb.complete_drains(5);
        // Loads incomplete: still blocked.
        assert!(sb.pick_drain_candidate(5, |_| false).is_none());
        assert!(sb.pick_drain_candidate(5, |_| true).is_some());
    }

    #[test]
    fn data_dependency_delays_drain() {
        let mut sb = StoreBuffer::new(8, 4);
        let mut e = entry(0, 0);
        e.data_ready_at = 100;
        sb.push(e);
        assert!(sb.pick_drain_candidate(50, |_| true).is_none());
        assert!(sb.pick_drain_candidate(100, |_| true).is_some());
        assert_eq!(sb.next_event(50), Some(100));
    }

    #[test]
    fn forwarding_returns_youngest_value() {
        let mut sb = StoreBuffer::new(8, 4);
        sb.push(SbEntry {
            value: 1,
            ..entry(0, 16)
        });
        sb.push(SbEntry {
            value: 2,
            ..entry(1, 16)
        });
        assert_eq!(sb.forward(16), Some(2));
        assert_eq!(sb.forward(24), None);
    }

    #[test]
    fn drain_ports_bound_concurrency() {
        let mut sb = StoreBuffer::new(8, 1);
        sb.push(entry(0, 0));
        sb.push(entry(1, 64));
        let i = sb.pick_drain_candidate(0, |_| true).unwrap();
        sb.start_drain(i, 100, DistanceClass::Local);
        assert!(
            sb.pick_drain_candidate(0, |_| true).is_none(),
            "single port busy"
        );
    }

    #[test]
    fn capacity_is_respected() {
        let mut sb = StoreBuffer::new(2, 1);
        sb.push(entry(0, 0));
        sb.push(entry(1, 64));
        assert!(!sb.has_space());
    }

    #[test]
    fn complete_drains_commits_and_frees() {
        let mut sb = StoreBuffer::new(4, 2);
        sb.push(entry(0, 0));
        let i = sb.pick_drain_candidate(0, |_| true).unwrap();
        sb.start_drain(i, 7, DistanceClass::SameCluster);
        assert!(sb.complete_drains(6).is_empty());
        let done = sb.complete_drains(7);
        assert_eq!(done.len(), 1);
        assert!(sb.is_empty());
    }
}
