//! Re-order buffer with in-order retirement.
//!
//! The ROB bounds how much work can be in flight past an incomplete
//! instruction. A pending barrier that holds its slot (`DMB full`, all
//! `DSB`s) lets later nops *issue* but not *retire*; once the ROB fills,
//! issue stalls — the indirect nop-throttling the paper observes in
//! Figure 4 ("saturating the reorder buffer").
//!
//! Runs of nops are coalesced into one entry to keep simulation cheap;
//! retirement bandwidth still drains them `retire_width` per cycle.

use std::collections::VecDeque;

/// Identifier of a non-nop instruction in flight (loads, stores, barriers).
pub type SlotId = u64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryKind {
    /// `count` coalesced single-cycle ALU instructions (always complete).
    Nops { count: u32 },
    /// A tracked instruction, complete or not.
    Instr { id: SlotId, complete: bool },
}

/// The re-order buffer.
#[derive(Debug, Clone)]
pub struct Rob {
    entries: VecDeque<EntryKind>,
    capacity: u32,
    used: u32,
    next_id: SlotId,
}

impl Rob {
    /// An empty ROB of the given capacity (instructions).
    #[must_use]
    pub fn new(capacity: u32) -> Rob {
        assert!(capacity > 0);
        Rob {
            entries: VecDeque::new(),
            capacity,
            used: 0,
            next_id: 0,
        }
    }

    /// Instructions currently in flight.
    #[must_use]
    pub fn used(&self) -> u32 {
        self.used
    }

    /// Free slots.
    #[must_use]
    pub fn free(&self) -> u32 {
        self.capacity - self.used
    }

    /// Whether the ROB is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.used == 0
    }

    /// Whether no slot is free (issue must stall; when the head is an
    /// incomplete barrier this is the Figure 4 nop-throttling condition).
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.used == self.capacity
    }

    /// Insert up to `want` nops (bounded by free space); returns how many
    /// were accepted.
    pub fn push_nops(&mut self, want: u32) -> u32 {
        let n = want.min(self.free());
        if n == 0 {
            return 0;
        }
        self.used += n;
        if let Some(EntryKind::Nops { count }) = self.entries.back_mut() {
            *count += n;
        } else {
            self.entries.push_back(EntryKind::Nops { count: n });
        }
        n
    }

    /// Insert a tracked instruction; `complete` marks it retirable
    /// immediately (stores, `DMB st`). Returns its id, or `None` if full.
    pub fn push_instr(&mut self, complete: bool) -> Option<SlotId> {
        if self.free() == 0 {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.used += 1;
        self.entries.push_back(EntryKind::Instr { id, complete });
        Some(id)
    }

    /// Mark a previously pushed instruction complete.
    ///
    /// Instruction ids ascend from head to tail and nop runs, which carry
    /// none, never sit next to each other (pushes coalesce them), so the
    /// entry is found by binary search, stepping off a nop run onto the
    /// instruction before it.
    pub fn complete(&mut self, id: SlotId) {
        let (mut lo, mut hi) = (0, self.entries.len());
        while lo < hi {
            let mut mid = lo + (hi - lo) / 2;
            if matches!(self.entries[mid], EntryKind::Nops { .. }) {
                if mid == lo {
                    lo += 1;
                    continue;
                }
                mid -= 1;
            }
            let EntryKind::Instr { id: eid, complete } = &mut self.entries[mid] else {
                unreachable!("two nop runs side by side");
            };
            match (*eid).cmp(&id) {
                std::cmp::Ordering::Equal => {
                    *complete = true;
                    return;
                }
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        debug_assert!(false, "completed instruction {id}, which is not in flight");
    }

    /// Instructions retirement can reach: everything ahead of the first
    /// incomplete instruction (all of [`Rob::used`] when there is none).
    #[must_use]
    pub fn completed_prefix(&self) -> u32 {
        self.completed_prefix_past(None)
    }

    /// [`Rob::completed_prefix`] as it will read once instruction `id`
    /// completes.
    #[must_use]
    pub fn completed_prefix_past(&self, id: Option<SlotId>) -> u32 {
        let mut prefix = 0;
        for e in &self.entries {
            match *e {
                EntryKind::Nops { count } => prefix += count,
                EntryKind::Instr { id: eid, complete } => {
                    if !complete && Some(eid) != id {
                        break;
                    }
                    prefix += 1;
                }
            }
        }
        prefix
    }

    /// Retire up to `width` instructions from the head, in order, stopping
    /// at the first incomplete one. Returns how many retired.
    pub fn retire(&mut self, width: u32) -> u32 {
        let mut retired = 0;
        while retired < width {
            match self.entries.front_mut() {
                None => break,
                Some(EntryKind::Nops { count }) => {
                    let take = (*count).min(width - retired);
                    *count -= take;
                    retired += take;
                    if *count == 0 {
                        self.entries.pop_front();
                    }
                }
                Some(EntryKind::Instr { complete, .. }) => {
                    if !*complete {
                        break;
                    }
                    self.entries.pop_front();
                    retired += 1;
                }
            }
        }
        self.used -= retired;
        retired
    }

    /// Whether the head instruction is incomplete (retirement is stalled).
    #[must_use]
    pub fn head_stalled(&self) -> bool {
        matches!(
            self.entries.front(),
            Some(EntryKind::Instr {
                complete: false,
                ..
            })
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nops_retire_at_width() {
        let mut rob = Rob::new(16);
        assert_eq!(rob.push_nops(10), 10);
        assert_eq!(rob.retire(4), 4);
        assert_eq!(rob.retire(4), 4);
        assert_eq!(rob.retire(4), 2);
        assert!(rob.is_empty());
    }

    #[test]
    fn capacity_bounds_nop_insertion() {
        let mut rob = Rob::new(8);
        assert_eq!(rob.push_nops(20), 8);
        assert_eq!(rob.free(), 0);
        assert_eq!(rob.push_nops(1), 0);
    }

    #[test]
    fn incomplete_instr_blocks_retirement_of_younger_nops() {
        let mut rob = Rob::new(32);
        let id = rob.push_instr(false).unwrap();
        rob.push_nops(10);
        assert_eq!(rob.retire(8), 0, "incomplete head blocks everything");
        assert!(rob.head_stalled());
        rob.complete(id);
        assert_eq!(rob.retire(8), 8, "barrier + 7 nops");
        assert_eq!(rob.retire(8), 3);
        assert!(rob.is_empty());
    }

    #[test]
    fn complete_instr_retires_with_following_nops() {
        let mut rob = Rob::new(32);
        rob.push_nops(2);
        rob.push_instr(true).unwrap();
        rob.push_nops(2);
        assert_eq!(rob.retire(8), 5);
    }

    #[test]
    fn full_rob_rejects_instr() {
        let mut rob = Rob::new(2);
        rob.push_nops(2);
        assert!(rob.is_full());
        assert!(rob.push_instr(true).is_none());
        rob.retire(1);
        assert!(!rob.is_full());
        assert!(rob.push_instr(true).is_some());
    }

    #[test]
    fn retirement_is_in_order_across_mixed_entries() {
        let mut rob = Rob::new(32);
        let a = rob.push_instr(false).unwrap();
        let b = rob.push_instr(true).unwrap();
        assert_eq!(rob.retire(4), 0);
        rob.complete(a);
        assert_eq!(rob.retire(4), 2);
        let _ = b;
    }

    #[test]
    fn complete_finds_any_instr_among_coalesced_nops() {
        // Every layout of eight slots, each a nop or an instruction (adjacent
        // nops coalesce into one entry): completing the instructions one by
        // one, in any rotation of their order, marks exactly the one named.
        for layout in 0u32..256 {
            let instrs = layout.count_ones() as usize;
            for first in 0..instrs.max(1) {
                let mut rob = Rob::new(8);
                let mut ids = Vec::new();
                for slot in 0..8 {
                    if layout >> slot & 1 == 1 {
                        ids.push(rob.push_instr(false).unwrap());
                    } else {
                        rob.push_nops(1);
                    }
                }
                ids.rotate_left(first);
                let mut done = Vec::new();
                for &id in &ids {
                    rob.complete(id);
                    done.push(id);
                    for e in &rob.entries {
                        if let EntryKind::Instr { id, complete } = *e {
                            assert_eq!(complete, done.contains(&id), "{layout:#b}: {id}");
                        }
                    }
                }
                assert_eq!(rob.completed_prefix(), 8, "{layout:#b}");
                assert_eq!(rob.retire(8), 8, "{layout:#b}");
            }
        }
    }

    #[test]
    fn complete_still_finds_ids_after_the_head_retired() {
        let mut rob = Rob::new(16);
        rob.push_nops(3);
        let a = rob.push_instr(true).unwrap();
        rob.push_nops(2);
        let b = rob.push_instr(false).unwrap();
        let c = rob.push_instr(false).unwrap();
        assert_eq!(rob.retire(5), 5, "three nops, `a`, one nop");
        let _ = a;
        rob.complete(c);
        assert_eq!(rob.completed_prefix(), 1, "the nop ahead of `b`");
        rob.complete(b);
        assert_eq!(rob.completed_prefix(), 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not in flight")]
    fn completing_an_instruction_that_is_not_in_flight_is_a_bug() {
        let mut rob = Rob::new(4);
        let a = rob.push_instr(true).unwrap();
        rob.push_nops(1);
        rob.retire(1);
        rob.complete(a);
    }

    #[test]
    fn completed_prefix_stops_at_the_first_incomplete_instr() {
        let mut rob = Rob::new(64);
        assert_eq!(rob.completed_prefix(), 0, "empty");
        rob.push_nops(5);
        assert_eq!(rob.completed_prefix(), 5, "all nops");
        rob.push_instr(true).unwrap();
        let load = rob.push_instr(false).unwrap();
        rob.push_nops(3);
        let fence = rob.push_instr(false).unwrap();
        rob.push_nops(2);
        assert_eq!(rob.completed_prefix(), 6, "nops and the store");
        // What retirement will reach once an instruction completes.
        assert_eq!(rob.completed_prefix_past(Some(load)), 10, "up to the fence");
        assert_eq!(rob.completed_prefix_past(Some(fence)), 6, "behind the load");
        assert_eq!(rob.retire(4), 4);
        assert_eq!(rob.completed_prefix(), 2, "retirement comes off the prefix");
        rob.complete(load);
        assert_eq!(rob.completed_prefix(), 6);
        assert_eq!(rob.completed_prefix_past(Some(fence)), rob.used());
        rob.complete(fence);
        assert_eq!(rob.completed_prefix(), rob.used());
        assert_eq!(rob.retire(64), 9);
    }

    #[test]
    fn used_tracks_mixed_contents() {
        let mut rob = Rob::new(64);
        rob.push_nops(5);
        rob.push_instr(false).unwrap();
        rob.push_nops(3);
        assert_eq!(rob.used(), 9);
        assert_eq!(rob.free(), 55);
    }
}
