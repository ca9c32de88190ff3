//! Thread-symmetry reduction for the packed DPOR engine.
//!
//! Lock and channel implementations routinely spawn N *identical*
//! contender threads — same instruction sequence, possibly with each
//! thread spinning on its own private location (an MCS queue node). Any
//! permutation of such threads is a program automorphism: it maps legal
//! executions to legal executions and terminal states to terminal states.
//! The engine therefore explores the *quotient* graph: before a
//! visited-set lookup, the packed `(state, sleep)` pair is canonicalized
//! under the group of per-group thread permutations, so one orbit is
//! expanded once. Terminal outcomes are closed back over the group at the
//! end, keeping the reported [`OutcomeSet`](crate::explore::OutcomeSet)
//! exactly the full-graph one.
//!
//! # What counts as identical
//!
//! Two threads are grouped when their instruction sequences are equal
//! after renaming *private* locations positionally — a location is
//! private to a thread when no other thread touches it and it is not in
//! `init`. Shared locations, values, registers, barriers, and dependency
//! annotations must match exactly. This deliberately excludes
//! SB/IRIW-style mirror symmetry over *shared* locations: renaming a
//! shared location is not an automorphism of the conflict structure the
//! other threads see, and litmus mirror pairs must keep their distinct
//! state counts.
//!
//! # Soundness of canonical visited keys
//!
//! The canonical form sorts each group's members by their packed
//! signature (done-bit block, register slots, private-memory slots, sleep
//! block) and writes the sorted blocks back in member-position order. The
//! permutation applied depends only on the signature multiset, which is
//! invariant on an orbit — so two pairs canonicalize equally iff they lie
//! on the same orbit (ties between equal signatures write identical
//! bytes). Skipping a canonically-seen pair therefore skips a subtree
//! that is the automorphic image of an explored one; its terminals are
//! recovered by [`Symmetry::expand_terminal`]'s orbit closure.

use std::collections::HashMap;

use crate::model::{Instr, Program};

/// Upper bound on the orbit size (product of group-size factorials) the
/// engine will close terminals over; beyond it symmetry is disabled for
/// the program rather than risking a blowup at outcome collection.
pub(crate) const MAX_ORBIT: usize = 1024;

/// A group of threads identical up to private-location renaming, at the
/// program level (thread ids + each member's private locations in
/// first-use order, positionally consistent across members).
pub(crate) struct ProgGroup {
    /// Member thread ids, ascending.
    pub members: Vec<usize>,
    /// `private_locs[m]` = member `m`'s private locations, in order of
    /// first use (so index `k` plays the same role in every member).
    pub private_locs: Vec<Vec<u8>>,
}

/// How a location appears in a thread's symmetry signature.
#[derive(PartialEq, Eq, Hash)]
enum LocTag {
    /// Touched by several threads (or `init`): must match exactly.
    Shared(u8),
    /// Private to the thread: matched by first-use rank.
    Private(usize),
}

/// Detect groups of ≥2 threads identical up to private-location renaming.
/// Deterministic: groups appear in order of their first member thread.
pub(crate) fn identical_groups(program: &Program) -> Vec<ProgGroup> {
    // Locations shared by several threads, or pinned by `init`.
    let mut users: HashMap<u8, usize> = HashMap::new();
    for (t, thread) in program.threads.iter().enumerate() {
        for loc in thread.instrs.iter().filter_map(Instr::loc) {
            match users.get(&loc) {
                None => {
                    users.insert(loc, t);
                }
                Some(&owner) if owner == t => {}
                Some(_) => {
                    users.insert(loc, usize::MAX); // shared marker
                }
            }
        }
    }
    for &(loc, _) in &program.init {
        users.insert(loc, usize::MAX);
    }
    let is_private = |loc: u8, t: usize| users.get(&loc) == Some(&t);

    // Signature: the instruction sequence with every private location
    // replaced by its first-use rank (and zeroed in the instruction), so
    // equal signatures mean equal threads modulo the positional renaming.
    let mut groups: Vec<ProgGroup> = Vec::new();
    let mut by_sig: HashMap<Vec<(Instr, LocTag)>, usize> = HashMap::new();
    for (t, thread) in program.threads.iter().enumerate() {
        let mut privates: Vec<u8> = Vec::new();
        let mut sig: Vec<(Instr, LocTag)> = Vec::with_capacity(thread.instrs.len());
        for instr in &thread.instrs {
            let tag = match instr.loc() {
                None => LocTag::Shared(0),
                Some(loc) if is_private(loc, t) => {
                    let rank = privates.iter().position(|&l| l == loc).unwrap_or_else(|| {
                        privates.push(loc);
                        privates.len() - 1
                    });
                    LocTag::Private(rank)
                }
                Some(loc) => LocTag::Shared(loc),
            };
            let mut normalized = *instr;
            match &mut normalized {
                Instr::Load { loc, .. } | Instr::Store { loc, .. } => *loc = 0,
                Instr::Fence(_) => {}
            }
            sig.push((normalized, tag));
        }
        match by_sig.get(&sig) {
            Some(&gi) => {
                groups[gi].members.push(t);
                groups[gi].private_locs.push(privates);
            }
            None => {
                by_sig.insert(sig, groups.len());
                groups.push(ProgGroup {
                    members: vec![t],
                    private_locs: vec![privates],
                });
            }
        }
    }
    groups.retain(|g| g.members.len() >= 2);
    groups
}

/// One symmetric group resolved to the packed layout: done-bit bases and
/// state-slot indices, positionally aligned across members.
pub(crate) struct SlotGroup {
    /// Global done-bit base of each member, in member order.
    pub bases: Vec<usize>,
    /// Instructions per member (equal across members, ≤ 64 so one done
    /// block fits a `u64`).
    pub len: usize,
    /// `reg_slots[m][k]` = member `m`'s `k`-th register slot.
    pub reg_slots: Vec<Vec<usize>>,
    /// `mem_slots[m][k]` = the slot of member `m`'s `k`-th private location.
    pub mem_slots: Vec<Vec<usize>>,
}

/// The slot-level symmetry tables the engine canonicalizes with.
pub(crate) struct Symmetry {
    /// All groups (each with ≥2 members); the product of their
    /// member-count factorials is at most [`MAX_ORBIT`].
    pub groups: Vec<SlotGroup>,
}

/// `n!`, saturating (only used to gate against [`MAX_ORBIT`]).
pub(crate) fn factorial(n: usize) -> usize {
    (2..=n).fold(1usize, |a, b| a.saturating_mul(b))
}

/// Read bits `[start, start + len)` (with `len ≤ 64`) out of a word slice.
fn read_block(words: &[u64], start: usize, len: usize) -> u64 {
    debug_assert!((1..=64).contains(&len));
    let w = start / 64;
    let off = start % 64;
    let mut v = words[w] >> off;
    if off != 0 && off + len > 64 {
        v |= words[w + 1] << (64 - off);
    }
    if len == 64 {
        v
    } else {
        v & ((1u64 << len) - 1)
    }
}

/// Write `val` into bits `[start, start + len)` of a word slice.
fn write_block(words: &mut [u64], start: usize, len: usize, val: u64) {
    debug_assert!((1..=64).contains(&len));
    let w = start / 64;
    let off = start % 64;
    let mask = if len == 64 {
        u64::MAX
    } else {
        (1u64 << len) - 1
    };
    debug_assert_eq!(val & !mask, 0, "value exceeds the block");
    words[w] = (words[w] & !(mask << off)) | (val << off);
    if off != 0 && off + len > 64 {
        let hi_len = len - (64 - off);
        let hi_mask = (1u64 << hi_len) - 1;
        words[w + 1] = (words[w + 1] & !hi_mask) | (val >> (64 - off));
    }
}

/// All permutations of `0..k` (Heap's algorithm; deterministic order).
fn permutations(k: usize) -> Vec<Vec<usize>> {
    fn rec(n: usize, a: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if n <= 1 {
            out.push(a.clone());
            return;
        }
        for i in 0..n {
            rec(n - 1, a, out);
            if n.is_multiple_of(2) {
                a.swap(i, n - 1);
            } else {
                a.swap(0, n - 1);
            }
        }
    }
    let mut a: Vec<usize> = (0..k).collect();
    let mut out = Vec::with_capacity(factorial(k));
    rec(k, &mut a, &mut out);
    out
}

impl Symmetry {
    /// Canonicalize a visited key in place. The key is
    /// `state words (done ++ slots)` followed by `sleep words`;
    /// `state_len` is the state-word count. Each group's members are
    /// sorted by signature and their done blocks, register slots,
    /// private-memory slots, and sleep blocks rewritten in sorted order.
    pub fn canonicalize(&self, key: &mut [u64], state_len: usize) {
        for g in &self.groups {
            let mut sigs: Vec<Vec<u64>> = Vec::with_capacity(g.bases.len());
            for (m, &base) in g.bases.iter().enumerate() {
                let mut sig = Vec::with_capacity(2 + g.reg_slots[m].len() + g.mem_slots[m].len());
                sig.push(read_block(&key[..state_len], base, g.len));
                for &s in &g.reg_slots[m] {
                    sig.push(key[s]);
                }
                for &s in &g.mem_slots[m] {
                    sig.push(key[s]);
                }
                sig.push(read_block(&key[state_len..], base, g.len));
                sigs.push(sig);
            }
            sigs.sort_unstable();
            for (pos, sig) in sigs.iter().enumerate() {
                let base = g.bases[pos];
                write_block(&mut key[..state_len], base, g.len, sig[0]);
                let mut i = 1;
                for &s in &g.reg_slots[pos] {
                    key[s] = sig[i];
                    i += 1;
                }
                for &s in &g.mem_slots[pos] {
                    key[s] = sig[i];
                    i += 1;
                }
                write_block(&mut key[state_len..], base, g.len, sig[i]);
            }
        }
    }

    /// Call `emit` with every image of the terminal state `st` under the
    /// group action (identity included): the orbit closure that restores
    /// the full-graph outcome set from quotient terminals. Only register
    /// and private-memory slots move — a terminal's done mask is all ones
    /// and invariant.
    pub fn expand_terminal(&self, st: &[u64], mut emit: impl FnMut(&[u64])) {
        let per_group: Vec<Vec<Vec<usize>>> = self
            .groups
            .iter()
            .map(|g| permutations(g.bases.len()))
            .collect();
        let mut counters = vec![0usize; self.groups.len()];
        let mut buf = st.to_vec();
        loop {
            buf.copy_from_slice(st);
            for (gi, g) in self.groups.iter().enumerate() {
                let perm = &per_group[gi][counters[gi]];
                for (pos, &src) in perm.iter().enumerate() {
                    if pos == src {
                        continue;
                    }
                    for (&dst_s, &src_s) in g.reg_slots[pos].iter().zip(&g.reg_slots[src]) {
                        buf[dst_s] = st[src_s];
                    }
                    for (&dst_s, &src_s) in g.mem_slots[pos].iter().zip(&g.mem_slots[src]) {
                        buf[dst_s] = st[src_s];
                    }
                }
            }
            emit(&buf);
            let mut gi = 0;
            loop {
                if gi == counters.len() {
                    return;
                }
                counters[gi] += 1;
                if counters[gi] < per_group[gi].len() {
                    break;
                }
                counters[gi] = 0;
                gi += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Thread;
    use armbar_barriers::Barrier;

    fn prog(threads: Vec<Vec<Instr>>, init: Vec<(u8, u64)>) -> Program {
        Program {
            threads: threads
                .into_iter()
                .map(|instrs| Thread { instrs })
                .collect(),
            init,
        }
    }

    /// A >`MAX_ORBIT` contender set must make symmetry self-disable: the
    /// quotient run is then *bit-identical* to the full-graph run — same
    /// outcomes and same `states_*` counters — instead of crashing or
    /// silently exploring a bogus quotient. Contrast with an in-range
    /// orbit, where the quotient genuinely visits fewer states.
    #[test]
    fn oversized_orbit_self_disables_to_the_full_graph() {
        use crate::explore::explore_dpor_configured;
        use crate::model::MemoryModel;
        use crate::unroll::identical_contenders;

        // 7 identical readers: orbit 7! = 5040 > MAX_ORBIT = 1024.
        let p = identical_contenders(7, 1);
        let groups = identical_groups(&p);
        let orbit: usize = groups.iter().map(|g| factorial(g.members.len())).product();
        assert!(
            orbit > MAX_ORBIT,
            "shape must overflow the orbit cap ({orbit} <= {MAX_ORBIT})"
        );

        let full = explore_dpor_configured(&p, MemoryModel::ArmWmm, 1, false);
        let quotient = explore_dpor_configured(&p, MemoryModel::ArmWmm, 1, true);
        assert_eq!(
            quotient, full,
            "self-disabled symmetry must reproduce the full graph exactly"
        );
        let parallel = explore_dpor_configured(&p, MemoryModel::ArmWmm, 4, true);
        assert_eq!(quotient, parallel, "worker count changed the result");

        // 4 readers stay under the cap: the quotient really engages.
        let p4 = identical_contenders(4, 1);
        let full4 = explore_dpor_configured(&p4, MemoryModel::ArmWmm, 1, false);
        let quot4 = explore_dpor_configured(&p4, MemoryModel::ArmWmm, 1, true);
        assert_eq!(quot4.outcomes, full4.outcomes);
        assert!(
            quot4.states_visited < full4.states_visited,
            "in-range orbit must reduce ({} vs {})",
            quot4.states_visited,
            full4.states_visited
        );
    }

    #[test]
    fn exactly_identical_readers_group() {
        let reader = vec![
            Instr::load(0, 9),
            Instr::Fence(Barrier::DmbLd),
            Instr::load(1, 8),
        ];
        let p = prog(
            vec![
                vec![Instr::store(8, 1), Instr::store(9, 1)],
                reader.clone(),
                reader.clone(),
                reader,
            ],
            vec![],
        );
        let gs = identical_groups(&p);
        assert_eq!(gs.len(), 1);
        assert_eq!(gs[0].members, vec![1, 2, 3]);
        assert!(gs[0].private_locs.iter().all(Vec::is_empty));
    }

    #[test]
    fn private_location_renaming_groups() {
        // Each contender stores to its own node then reads the shared
        // grant: identical up to renaming locs 10/11/12.
        let contender = |node: u8| {
            vec![
                Instr::store(node, 1),
                Instr::load(0, 5),
                Instr::load(1, node),
            ]
        };
        let p = prog(
            vec![contender(10), contender(11), contender(12)],
            vec![(5, 7)],
        );
        let gs = identical_groups(&p);
        assert_eq!(gs.len(), 1);
        assert_eq!(gs[0].members, vec![0, 1, 2]);
        assert_eq!(gs[0].private_locs, vec![vec![10], vec![11], vec![12]]);
    }

    #[test]
    fn shared_location_mirrors_do_not_group() {
        // SB: mirror symmetry over *shared* locations must not group.
        let p = prog(
            vec![
                vec![Instr::store(0, 1), Instr::load(0, 1)],
                vec![Instr::store(1, 1), Instr::load(0, 0)],
            ],
            vec![],
        );
        assert!(identical_groups(&p).is_empty());
    }

    #[test]
    fn init_pins_a_location_as_shared() {
        // The spin loc is used by one thread only but sits in `init`:
        // renaming it would change the initial memory image.
        let contender = |node: u8| vec![Instr::load(0, node)];
        let p = prog(vec![contender(10), contender(11)], vec![(10, 1)]);
        assert!(identical_groups(&p).is_empty());
    }

    #[test]
    fn value_differences_block_grouping() {
        let p = prog(
            vec![vec![Instr::store(0, 1)], vec![Instr::store(0, 2)]],
            vec![],
        );
        assert!(identical_groups(&p).is_empty());
    }

    #[test]
    fn block_read_write_roundtrip_across_boundaries() {
        let mut words = [0u64; 3];
        write_block(&mut words, 60, 10, 0x3ff);
        assert_eq!(read_block(&words, 60, 10), 0x3ff);
        assert_eq!(words[0], 0xf << 60);
        assert_eq!(words[1], 0x3f);
        write_block(&mut words, 60, 10, 0x155);
        assert_eq!(read_block(&words, 60, 10), 0x155);
        write_block(&mut words, 64, 64, u64::MAX);
        assert_eq!(read_block(&words, 64, 64), u64::MAX);
        // Low 4 bits of 0x155 survive in word 0; the straddling high 6
        // bits were just overwritten with ones.
        assert_eq!(read_block(&words, 60, 10), 0x3f5);
        write_block(&mut words, 0, 64, 0xdead);
        assert_eq!(read_block(&words, 0, 64), 0xdead);
    }

    #[test]
    fn permutations_cover_the_factorial() {
        for k in 0..5 {
            let ps = permutations(k);
            assert_eq!(ps.len(), factorial(k).max(1));
            let mut dedup = ps.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), ps.len(), "k={k}");
        }
    }
}
