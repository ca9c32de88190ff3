//! Directory-based coherence model.
//!
//! The directory tracks, per cache line, an owner (the last writer, holding
//! the line exclusively) and a sharer set (readers since the last write). The
//! cost of an access is the transfer latency from the nearest current holder;
//! a write additionally invalidates all other copies. This is a deliberately
//! simple MESI-flavoured model: the paper's experiments only need "was this
//! access a remote memory reference, and how far did the snoop travel" — both
//! of which the directory answers exactly.
//!
//! Exclusive accesses to one line — stores draining and RMWs — additionally
//! **serialize**: the directory services one ownership transfer at a time per
//! line, so a queued writer waits for the in-flight transfer before paying its
//! own distance cost. This is the mechanism behind every "contended RMW"
//! result in the paper: n cores fetch-adding one counter cost Θ(n), not Θ(1),
//! which is why centralized barriers collapse at high core counts while
//! hierarchical ones spread arrivals over per-cluster lines. Reads stay
//! concurrent — a valid line serves any number of sharers at once.
//!
//! A core executing [`Op::WaitChange`](crate::op::Op::WaitChange) on a line
//! whose value has not changed yet parks on the line's waiter set; the
//! machine wakes exactly those cores when a store commits to the line. A
//! core the event engine parked in a settled poll loop
//! ([`Op::SpinMark`](crate::op::Op::SpinMark)) waits on the same sets and,
//! since its next poll must miss once its copy is gone, also hears of the
//! exclusive access that invalidates it.
//!
//! Every membership question is O(1) whatever the core count: a line's
//! sharers and its waiters are each a `CoreSet`, the members in insertion
//! order (the order invalidations and wakes are reported in) beside a
//! bitmask.

use armbar_fxhash::FxHashMap;

use crate::platform::LatencyParams;
use crate::topology::Topology;
use crate::types::{CoreId, Cycle, DistanceClass, Line};

/// Per-line directory state.
#[derive(Debug, Clone, Default)]
struct LineState {
    /// Exclusive owner (last writer), if any.
    owner: Option<CoreId>,
    /// Cores holding a shared copy (including a reading owner).
    sharers: CoreSet,
    /// Cycle until which the line's exclusive-service port is occupied by an
    /// in-flight ownership transfer. Writes arriving earlier queue behind it.
    busy_until: Cycle,
}

/// A set of cores in insertion order with O(1) membership: the list keeps
/// the order every consumer iterates in, a bitmask with one bit per core
/// (grown on first touch, never shrunk) answers `contains`.
#[derive(Debug, Clone, Default)]
struct CoreSet {
    list: Vec<CoreId>,
    mask: Vec<u64>,
}

impl CoreSet {
    fn contains(&self, c: CoreId) -> bool {
        self.mask
            .get(c / 64)
            .is_some_and(|w| w >> (c % 64) & 1 == 1)
    }

    /// Append `c` unless it is already a member.
    fn insert(&mut self, c: CoreId) {
        if c / 64 >= self.mask.len() {
            self.mask.resize(c / 64 + 1, 0);
        }
        let (word, bit) = (&mut self.mask[c / 64], 1 << (c % 64));
        if *word & bit == 0 {
            *word |= bit;
            self.list.push(c);
        }
    }

    /// Empty the set, zeroing only the words its members set.
    fn clear(&mut self) {
        for &c in &self.list {
            self.mask[c / 64] = 0;
        }
        self.list.clear();
    }
}

/// Result of consulting the directory for one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// How far the line had to travel.
    pub distance: DistanceClass,
    /// Transfer latency in cycles.
    pub latency: Cycle,
    /// Whether the access was a remote memory reference.
    pub is_rmr: bool,
}

/// The coherence directory.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    /// Keyed with the unkeyed FxHash scheme: line numbers are small,
    /// sequential, and never attacker-controlled, and this map sits on the
    /// critical path of every simulated memory access.
    lines: FxHashMap<Line, LineState>,
    /// Cores parked on a line, waiting for a committed store to it.
    waiters: FxHashMap<Line, CoreSet>,
    /// Optional "home" core for otherwise-untouched regions: lets workloads
    /// model buffers whose lines were last touched by a phantom peer (the
    /// paper's alternating-thread construction in §3.2) without simulating
    /// the peer's warm-up pass.
    region_homes: Vec<(Line, Line, CoreId)>,
    /// How many cores the event engine has parked in a settled poll loop.
    /// Each holds its polled lines shared; while there are any, an exclusive
    /// access lists the sharers it invalidates in `invalidated` and the
    /// machine resumes the parked ones among them.
    pub(crate) spin_parked: usize,
    /// See `spin_parked`; drained by the machine after every step.
    pub(crate) invalidated: Vec<CoreId>,
}

impl Directory {
    /// An empty directory (all lines in memory).
    #[must_use]
    pub fn new() -> Directory {
        Directory::default()
    }

    /// The same as [`Directory::new`]: kept only for the `benchmark/`
    /// harness (`probes.rs`), until ROADMAP item 2(b) moves it off.
    #[doc(hidden)]
    #[must_use]
    pub fn with_shards(_shards: usize) -> Directory {
        Directory::new()
    }

    /// Declare that untouched lines in `[start, end)` (byte addresses
    /// rounded to lines) behave as if last written by `home`.
    pub fn set_region_home(&mut self, start_addr: u64, end_addr: u64, home: CoreId) {
        self.region_homes.push((
            Line::containing(start_addr),
            Line::containing(end_addr.saturating_sub(1)),
            home,
        ));
    }

    fn default_state(region_homes: &[(Line, Line, CoreId)], line: Line) -> LineState {
        for &(lo, hi, home) in region_homes {
            if line >= lo && line <= hi {
                let mut state = LineState {
                    owner: Some(home),
                    ..LineState::default()
                };
                state.sharers.insert(home);
                return state;
            }
        }
        LineState::default()
    }

    fn classify(
        topo: &Topology,
        requester: CoreId,
        state: &LineState,
        write: bool,
    ) -> DistanceClass {
        let owns = state.owner == Some(requester);
        if write {
            // Every other copy must be invalidated, so the farthest holder
            // (owner or sharer) bounds the latency; with no other holder the
            // write hits if the requester owns the line and goes to memory
            // otherwise.
            let farthest = state
                .owner
                .iter()
                .chain(&state.sharers.list)
                .filter(|&&c| c != requester)
                .map(|&c| topo.distance(requester, c))
                .max();
            return farthest.unwrap_or(if owns {
                DistanceClass::Local
            } else {
                DistanceClass::Memory
            });
        }
        // Read hit: requester already shares (or owns) the line.
        if owns || state.sharers.contains(requester) {
            return DistanceClass::Local;
        }
        // Otherwise the owner supplies the data, else the nearest sharer.
        match state.owner {
            Some(owner) => topo.distance(requester, owner),
            None => state
                .sharers
                .list
                .iter()
                .map(|&c| topo.distance(requester, c))
                .min()
                .unwrap_or(DistanceClass::Memory),
        }
    }

    /// Perform an access at cycle `now`: returns its cost classification and
    /// updates the directory (ownership transfer / sharer insertion /
    /// invalidation). Exclusive accesses queue behind the line's in-flight
    /// transfer, so the returned latency includes any wait for the line's
    /// service port; reads are served concurrently.
    pub fn access(
        &mut self,
        topo: &Topology,
        lat: &LatencyParams,
        requester: CoreId,
        line: Line,
        write: bool,
        now: Cycle,
    ) -> AccessOutcome {
        let region_homes = &self.region_homes;
        let state = self
            .lines
            .entry(line)
            .or_insert_with(|| Self::default_state(region_homes, line));
        let distance = Self::classify(topo, requester, state, write);
        let transfer = lat.transfer_latency(distance);
        let latency = if write {
            let latency = state.busy_until.saturating_sub(now) + transfer;
            // Writer takes exclusive ownership; all other copies invalidated
            // (the owner is always among the sharers).
            if self.spin_parked > 0 {
                let others = state.sharers.list.iter().filter(|&&c| c != requester);
                self.invalidated.extend(others);
            }
            state.owner = Some(requester);
            state.sharers.clear();
            state.sharers.insert(requester);
            state.busy_until = now + latency;
            latency
        } else {
            state.sharers.insert(requester);
            transfer
        };
        AccessOutcome {
            distance,
            latency,
            is_rmr: distance.is_rmr(),
        }
    }

    /// Current exclusive owner of a line, if any (for tests/diagnostics).
    #[must_use]
    pub fn owner(&self, line: Line) -> Option<CoreId> {
        self.lines.get(&line).and_then(|s| s.owner)
    }

    /// Whether `core` holds a copy of `line`, so that its reads hit.
    #[must_use]
    pub(crate) fn is_sharer(&self, line: Line, core: CoreId) -> bool {
        self.lines
            .get(&line)
            .is_some_and(|s| s.sharers.contains(core))
    }

    /// Park `core` on `line`: it will be reported by
    /// [`Directory::take_waiters_into`] when a store commits to the line.
    /// Idempotent per (line, core).
    pub fn park_waiter(&mut self, line: Line, core: CoreId) {
        self.waiters.entry(line).or_default().insert(core);
    }

    /// Drain the waiter set of `line` into `out` in parking order (on every
    /// committed store to the line). Waiters re-park themselves if their
    /// condition still holds; the emptied set keeps its capacity for them.
    pub fn take_waiters_into(&mut self, line: Line, out: &mut Vec<CoreId>) {
        if let Some(set) = self.waiters.get_mut(&line) {
            out.extend_from_slice(&set.list);
            set.clear();
        }
    }

    /// Total number of parked (line, core) registrations (diagnostics).
    #[must_use]
    pub fn waiter_count(&self) -> usize {
        self.waiters.values().map(|w| w.list.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;

    fn setup() -> (Topology, LatencyParams, Directory) {
        let p = Platform::kunpeng916();
        (p.topology, p.latency, Directory::new())
    }

    /// Accesses far enough apart in time that queuing never applies.
    const APART: Cycle = 1_000_000;

    #[test]
    fn cold_line_comes_from_memory() {
        let (t, l, mut d) = setup();
        let out = d.access(&t, &l, 0, Line(7), false, 0);
        assert_eq!(out.distance, DistanceClass::Memory);
        assert_eq!(out.latency, l.t_memory);
        assert!(out.is_rmr);
    }

    #[test]
    fn read_after_own_read_is_local() {
        let (t, l, mut d) = setup();
        d.access(&t, &l, 0, Line(7), false, 0);
        let out = d.access(&t, &l, 0, Line(7), false, 0);
        assert_eq!(out.distance, DistanceClass::Local);
        assert!(!out.is_rmr);
    }

    #[test]
    fn write_after_own_write_is_local() {
        let (t, l, mut d) = setup();
        d.access(&t, &l, 0, Line(7), true, 0);
        let out = d.access(&t, &l, 0, Line(7), true, APART);
        assert_eq!(out.distance, DistanceClass::Local);
        assert_eq!(out.latency, l.t_l1_hit);
    }

    #[test]
    fn ping_pong_between_nodes_is_cross_node() {
        let (t, l, mut d) = setup();
        let far = 40; // node 1 on kunpeng
        d.access(&t, &l, far, Line(3), true, 0);
        let out = d.access(&t, &l, 0, Line(3), true, APART);
        assert_eq!(out.distance, DistanceClass::CrossNode);
        assert_eq!(out.latency, l.t_cross_node);
        // Ownership transferred.
        assert_eq!(d.owner(Line(3)), Some(0));
    }

    #[test]
    fn write_invalidates_sharers_and_pays_worst_distance() {
        let (t, l, mut d) = setup();
        d.access(&t, &l, 1, Line(5), false, 0); // same cluster as 0
        d.access(&t, &l, 40, Line(5), false, 0); // other node
        let out = d.access(&t, &l, 0, Line(5), true, APART);
        // Must invalidate the cross-node sharer.
        assert_eq!(out.distance, DistanceClass::CrossNode);
    }

    #[test]
    fn read_of_written_line_transfers_from_owner() {
        let (t, l, mut d) = setup();
        d.access(&t, &l, 5, Line(9), true, 0); // cluster 1, node 0
        let out = d.access(&t, &l, 0, Line(9), false, APART);
        assert_eq!(out.distance, DistanceClass::CrossCluster);
    }

    #[test]
    fn region_home_makes_fresh_lines_remote() {
        let (t, l, mut d) = setup();
        d.set_region_home(0x10000, 0x20000, 40); // phantom in node 1
        let out = d.access(&t, &l, 0, Line::containing(0x10040), true, 0);
        assert_eq!(out.distance, DistanceClass::CrossNode);
        // Lines outside the region stay cold.
        let out2 = d.access(&t, &l, 0, Line::containing(0x3000), true, 0);
        assert_eq!(out2.distance, DistanceClass::Memory);
    }

    #[test]
    fn read_from_sharer_only_line_uses_nearest_sharer() {
        let (t, l, mut d) = setup();
        // Two sharers, no owner change: core 1 (near) and 40 (far) read a
        // memory line; then core 0 reads.
        d.access(&t, &l, 1, Line(11), false, 0);
        d.access(&t, &l, 40, Line(11), false, 0);
        let out = d.access(&t, &l, 0, Line(11), false, 0);
        assert_eq!(out.distance, DistanceClass::SameCluster);
    }

    #[test]
    fn exclusive_accesses_serialize_per_line() {
        // n same-cycle writers to one line queue behind each other: writer i
        // pays the sum of the service times ahead of it, so total cost grows
        // linearly with n — the mechanism that makes a centralized barrier
        // counter collapse at scale. Reads and other lines are unaffected.
        let (t, l, mut d) = setup();
        let first = d.access(&t, &l, 0, Line(20), true, 0);
        let second = d.access(&t, &l, 1, Line(20), true, 0);
        let third = d.access(&t, &l, 2, Line(20), true, 0);
        // Cores 0..3 sit in one cluster, so each queued transfer costs one
        // same-cluster hop on top of everything queued ahead of it.
        assert_eq!(second.latency, first.latency + l.t_same_cluster);
        assert_eq!(third.latency, second.latency + l.t_same_cluster);
        // A concurrent read is served immediately (from the current owner)…
        let read = d.access(&t, &l, 3, Line(20), false, 0);
        assert_eq!(read.latency, l.t_same_cluster);
        // …as is a write to a different line.
        let other = d.access(&t, &l, 4, Line(21), true, 0);
        assert_eq!(other.latency, l.t_memory);
        // Once the port frees up, queuing stops.
        let late = d.access(&t, &l, 1, Line(20), true, third.latency);
        assert_eq!(late.latency, l.t_same_cluster);
    }

    #[test]
    fn waiter_lists_park_and_drain_per_line() {
        let mut d = Directory::new();
        d.park_waiter(Line(1), 3);
        d.park_waiter(Line(1), 9);
        d.park_waiter(Line(1), 3); // idempotent
        d.park_waiter(Line(2), 7);
        assert_eq!(d.waiter_count(), 3);
        let mut woken = Vec::new();
        d.take_waiters_into(Line(1), &mut woken);
        assert_eq!(woken, vec![3, 9]);
        assert_eq!(d.waiter_count(), 1);
        // Draining again is a no-op; line 2's waiter is untouched.
        d.take_waiters_into(Line(1), &mut woken);
        assert_eq!(woken.len(), 2);
        d.take_waiters_into(Line(2), &mut woken);
        assert_eq!(woken, vec![3, 9, 7]);
        assert_eq!(d.waiter_count(), 0);
    }
}
