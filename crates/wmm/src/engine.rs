//! The packed-state DPOR exploration engine.
//!
//! This module is the fast path behind [`explore`](crate::explore::explore):
//! a depth-first search over the same state graph as the enumerative oracle
//! (`explore_oracle`), with three layered optimizations that together cut
//! `states_visited` by ~5-10x on the lint corpus while provably preserving
//! the exact outcome set:
//!
//! 1. **Compact incremental state.** A pre-pass ([`Layout`]) assigns every
//!    load-destination register and every touched memory location a fixed
//!    word slot, so a search state is a flat `Vec<u64>`: the first
//!    `mask_words` words are a global performed-bitmask (one bit per
//!    instruction across all threads), the rest slot values as codes (a
//!    value's index in a sorted dictionary). Transitions apply and undo in
//!    place on a single mutable vector — no per-transition clone of
//!    `Vec<BTreeMap>` — and the visited-set hashes each key once, slot
//!    codes bit-packed, into an arena-backed exact key set ([`KeySet`]).
//!    The *enabled set* travels with the state: performing
//!    `g` can only enable `g`'s immediate successors in the per-thread
//!    order ([`Layout::isucc`]), so it is updated from those instead of
//!    re-derived from every unperformed instruction at every macro-step,
//!    and the walk's undo trail, visited key and child sleep sets live in
//!    per-walk buffers and inline masks — a visited state costs no heap
//!    allocation of its own. Every program runs on one mask type,
//!    [`WideMask`], sized to its instruction count (one word up to 64
//!    instructions, inline up to 256, heap beyond), so litmus tests and
//!    implementation-sized programs (unrolled lock handoffs, 100+
//!    instructions) take the same code path.
//!
//!    *Why packing is lossless:* in the oracle's sparse state, whether a
//!    register or location is present in a map is a pure function of the
//!    done-bitmask (a register is present iff some load writing it has
//!    performed; a location iff it is in `init` or some store to it has
//!    performed). Absent slots hold code 0, value 0, exactly the value the
//!    oracle's `unwrap_or(0)` reads give them, so packed equality
//!    coincides with sparse-state equality and terminal packed states map
//!    bijectively onto [`Outcome`]s.
//!
//! 2. **Sleep-set DPOR with singleton-persistent macro-steps.** A static
//!    *conflict* (dependence) relation is precomputed per instruction pair:
//!    cross-thread transitions conflict iff they touch the same location
//!    and at least one is a store (registers are thread-local; fences have
//!    no cross-thread effect); same-thread co-enabled transitions conflict
//!    iff their register effects interfere (same destination, or one writes
//!    a register the other reads). Anything else commutes in every state.
//!
//!    At each state the engine first looks for a transition `p` that is
//!    independent of *every* other unperformed transition that could fire
//!    before it (same-thread instructions ordered after `p` cannot, and are
//!    excluded). Such `{p}` is a persistent set (any execution avoiding `p`
//!    uses only transitions independent of it), so `p` is executed alone as
//!    a *forced* macro-step — no sibling enumeration, no visited-set entry.
//!    Only when no forced transition exists does the engine *branch*:
//!    enumerate the enabled transitions in deterministic `(thread, index)`
//!    order, skipping members of the sleep set, adding each explored
//!    transition to its right siblings' sleep sets, and filtering the sleep
//!    set down to independent members when descending. Per Godefroid's
//!    theorem, persistent-set + sleep-set search reaches every deadlock
//!    state of the full graph — and terminal states (all instructions
//!    performed) are exactly the deadlocks here, so the outcome set is
//!    preserved exactly, not approximately.
//!
//! 3. **Parallel frontier.** [`run`] with `workers > 1` expands the search
//!    tree breadth-first until it holds enough independent `(state, sleep)`
//!    subtree roots, then drains them with the crate's claim loop
//!    ([`crate::pool::claim_fold`]: scoped threads taking roots off one
//!    shared cursor — subtrees never spawn subtrees, so there is nothing
//!    to steal) against the visited-set, sharded by the top bits of the
//!    key's hash (the serial walk uses the same set with one shard). The
//!    visited-set stores exact `(packed state, sleep mask)` pairs, and a
//!    pair's subtree is a pure function of the pair — so the set of
//!    *expanded* pairs is the same closure regardless of schedule, making
//!    `states_visited`/`states_pruned` and the canonical outcome set
//!    byte-identical at any worker count. Programs below
//!    [`PARALLEL_MIN_INSTRS`] total instructions always run the serial
//!    walk — litmus-sized state spaces are microsecond-scale and thread
//!    setup would dominate — and large programs get more shards and more,
//!    finer frontier tasks. No production caller passes `workers > 1`
//!    today (the sweeps parallelize a level up, across cells); the
//!    differential suites and the explorer pins do.

use std::collections::BTreeSet;
use std::collections::VecDeque;
use std::hash::Hasher;
use std::sync::Mutex;

use armbar_fxhash::FxHasher;

use crate::explore::{Outcome, OutcomeSet};
use crate::mask::{word_count, WideMask};
use crate::model::{Instr, MemoryModel, Program, Src};
use crate::pool::claim_fold;
use crate::witness::{Witness, WitnessStep};

/// Below this many total instructions, [`run`] ignores `workers` and runs
/// the serial walk: litmus-sized explorations finish in microseconds and
/// thread/shard setup would cost more than the whole search (the result is
/// byte-identical either way; only wall time changes).
pub(crate) const PARALLEL_MIN_INSTRS: usize = 32;

/// The effect one transition has on the packed state, pre-resolved to
/// word slots.
#[derive(Debug, Clone, Copy)]
enum Effect {
    /// Barriers only flip their done bit.
    Fence,
    /// `st[dst] = st[mem]`.
    Load { dst: usize, mem: usize },
    /// `st[mem] = val`.
    Store { mem: usize, val: Val },
}

/// A store's value operand, pre-resolved.
#[derive(Debug, Clone, Copy)]
enum Val {
    Const(u64),
    /// Read a register slot (a register some load in the thread writes).
    Slot(usize),
}

/// Static per-(program, model) tables: packing scheme, enabledness masks,
/// and the conflict relation. Built once per exploration by [`layout`].
pub(crate) struct Layout {
    /// Global transition index -> owning thread.
    tid: Vec<usize>,
    /// Global transition index -> index within its thread.
    idx: Vec<usize>,
    /// Words of the done bitmask at the front of every packed state.
    mask_words: usize,
    /// Bitmask with one bit per instruction.
    all_mask: WideMask,
    /// `pred[g]`: global done-bits that must be set before `g` is enabled
    /// (its `MemoryModel::ordered` predecessors) — the definition of
    /// enabledness, which [`Layout::enabled_at`] evaluates.
    pred: Vec<WideMask>,
    /// `ipred[g]`: the *immediate* predecessors of `g` — the transitive
    /// reduction of the closure of `pred` (`ordered` is a per-pair
    /// relation and not transitive, so the closure comes first). A
    /// reachable done-set is downward-closed under that closure (nothing
    /// performs before its `pred`, hence before its ancestors), and a
    /// downward-closed set contains `pred[g]` iff it contains `g`'s whole
    /// ancestry iff it contains `ipred[g]`. So on every state the walk can
    /// reach, `ipred` decides enabledness exactly as `pred` does.
    ipred: Vec<WideMask>,
    /// `isucc[g]`: the transitions `g` is an immediate predecessor of —
    /// the only ones performing `g` can enable. (If `g` were a farther
    /// ancestor of a newly enabled `h`, some `x` between them would be
    /// performed with its ancestor `g` unperformed.)
    isucc: Vec<WideMask>,
    /// `conflict[g]`: transitions *dependent* on `g` (may not commute).
    conflict: Vec<WideMask>,
    /// `ordered_after[g]`: same-thread transitions ordered after `g`
    /// (they can never fire while `g` is unperformed).
    ordered_after: Vec<WideMask>,
    /// Per-transition packed effect.
    effect: Vec<Effect>,
    /// Every value a slot can hold, ascending: `0`, the `init` values and
    /// the store constants — closed under every transition, since loads
    /// copy slots and stores write constants or registers. Slots hold a
    /// value's index here, its *code*; codes order like their values.
    dict: Vec<u64>,
    /// Bits per slot code in a visited key — the bit width of `dict.len()`
    /// — and codes per word, `64 / code_bits`.
    code_bits: u32,
    codes_per_word: usize,
    /// The initial packed state.
    init: Vec<u64>,
    /// Per thread: sorted `(reg, slot)` of load-destination registers —
    /// the register file of a terminal outcome.
    out_regs: Vec<Vec<(u8, usize)>>,
    /// Sorted `(loc, slot)` of locations present in a terminal outcome's
    /// memory image (`init` locations plus stored locations).
    out_mem: Vec<(u8, usize)>,
}

/// Explore `program` end to end: layout, then run.
pub(crate) fn run_program(program: &Program, model: MemoryModel, workers: usize) -> OutcomeSet {
    run(&layout(program, model), workers)
}

/// Witness search for `program` at any size.
pub(crate) fn witness_program(
    program: &Program,
    model: MemoryModel,
    pred: &dyn Fn(&Outcome) -> bool,
) -> Option<Witness> {
    find_witness_dpor(&layout(program, model), pred)
}

/// Build the [`Layout`] for `program` under `model`, masks sized to its
/// instruction count.
fn layout(program: &Program, model: MemoryModel) -> Layout {
    let total: usize = program.threads.iter().map(|t| t.instrs.len()).sum();
    let mask_words = word_count(total);
    let n_threads = program.threads.len();
    let mut tid = Vec::with_capacity(total);
    let mut idx = Vec::with_capacity(total);
    let mut base = Vec::with_capacity(n_threads);
    for (t, thread) in program.threads.iter().enumerate() {
        base.push(tid.len());
        for i in 0..thread.instrs.len() {
            tid.push(t);
            idx.push(i);
        }
    }
    let all_mask = WideMask::ones(total);

    // Slot discovery: load-destination registers per thread, then every
    // location any access or `init` entry mentions. Slots follow the done
    // words in the packed state.
    let mut reg_slots: Vec<Vec<(u8, usize)>> = Vec::with_capacity(n_threads);
    let mut next_word = mask_words;
    for thread in &program.threads {
        let dests: BTreeSet<u8> = thread.instrs.iter().filter_map(Instr::writes_reg).collect();
        let slots: Vec<(u8, usize)> = dests
            .into_iter()
            .map(|r| {
                let s = next_word;
                next_word += 1;
                (r, s)
            })
            .collect();
        reg_slots.push(slots);
    }
    let locs: BTreeSet<u8> = program
        .threads
        .iter()
        .flat_map(|t| t.instrs.iter().filter_map(Instr::loc))
        .chain(program.init.iter().map(|&(l, _)| l))
        .collect();
    let mem_slots: Vec<(u8, usize)> = locs
        .into_iter()
        .map(|l| {
            let s = next_word;
            next_word += 1;
            (l, s)
        })
        .collect();
    let words = next_word;
    let reg_slot = |t: usize, r: u8| {
        reg_slots[t]
            .iter()
            .find(|&&(reg, _)| reg == r)
            .map(|&(_, s)| s)
    };
    let mem_slot = |l: u8| {
        mem_slots
            .iter()
            .find(|&&(loc, _)| loc == l)
            .map(|&(_, s)| s)
            .expect("every accessed location has a slot")
    };

    let mut dict: Vec<u64> = program.init.iter().map(|&(_, v)| v).chain([0]).collect();
    for instr in program.threads.iter().flat_map(|t| &t.instrs) {
        if let Instr::Store {
            src: Src::Const(v) | Src::DepConst { value: v, .. },
            ..
        } = instr
        {
            dict.push(*v);
        }
    }
    dict.sort_unstable();
    dict.dedup();
    let code = |v: u64| dict.binary_search(&v).expect("a dictionary value") as u64;
    let code_bits = usize::BITS - dict.len().leading_zeros();

    let mut init = vec![0u64; words];
    for &(l, v) in &program.init {
        // Later duplicate entries win, matching the oracle's map collect.
        init[mem_slot(l)] = code(v);
    }

    let mut effect = Vec::with_capacity(total);
    for g in 0..total {
        let instr = &program.threads[tid[g]].instrs[idx[g]];
        effect.push(match instr {
            Instr::Fence(_) => Effect::Fence,
            Instr::Load { reg, loc, .. } => Effect::Load {
                dst: reg_slot(tid[g], *reg).expect("load destinations have slots"),
                mem: mem_slot(*loc),
            },
            Instr::Store { loc, src, .. } => Effect::Store {
                mem: mem_slot(*loc),
                val: match src {
                    Src::Const(v) | Src::DepConst { value: v, .. } => Val::Const(code(*v)),
                    // A register no load in the thread writes always reads
                    // as 0, exactly like the oracle's `unwrap_or(0)`.
                    Src::Reg(r) => reg_slot(tid[g], *r).map_or(Val::Const(0), Val::Slot),
                },
            },
        });
    }

    // Enabledness and same-thread ordering masks from the model relation.
    let mut pred = vec![WideMask::zeros(total); total];
    let mut ordered_after = vec![WideMask::zeros(total); total];
    for (t, thread) in program.threads.iter().enumerate() {
        let n = thread.instrs.len();
        for j in 0..n {
            for i in 0..j {
                if model.ordered(thread, i, j) {
                    pred[base[t] + j].set(base[t] + i);
                    ordered_after[base[t] + i].set(base[t] + j);
                }
            }
        }
    }

    // Immediate predecessors and successors. Order edges point forward in
    // program order, so one ascending pass closes `pred` transitively;
    // `ipred[j]` is then what is left of `j`'s ancestors once every
    // ancestor of an ancestor is struck.
    let mut ancestors: Vec<WideMask> = Vec::with_capacity(total);
    let mut ipred = Vec::with_capacity(total);
    let mut isucc = vec![WideMask::zeros(total); total];
    for (j, direct) in pred.iter().enumerate() {
        let mut all = direct.clone();
        for i in direct.bits() {
            all.or_assign(&ancestors[i]);
        }
        let mut immediate = all.clone();
        for i in all.bits() {
            immediate.and_not_assign(&ancestors[i]);
        }
        for i in immediate.bits() {
            isucc[i].set(j);
        }
        ancestors.push(all);
        ipred.push(immediate);
    }

    // The static conflict (dependence) relation. Sound over-approximation:
    // a pair left out of `conflict` must commute in *every* state where
    // both are enabled, and neither may disable the other.
    let mut conflict = vec![WideMask::zeros(total); total];
    for g in 0..total {
        let ig = &program.threads[tid[g]].instrs[idx[g]];
        for h in (g + 1)..total {
            let ih = &program.threads[tid[h]].instrs[idx[h]];
            let loc_conflict = match (ig.loc(), ih.loc()) {
                (Some(a), Some(b)) => {
                    a == b
                        && (matches!(ig, Instr::Store { .. }) || matches!(ih, Instr::Store { .. }))
                }
                _ => false,
            };
            let dependent = if tid[g] == tid[h] {
                // Register interference: same destination, or one writes a
                // register the other's value/address/control depends on.
                // Anti-dependencies count — a store reading r does not
                // commute with a later unordered load overwriting r.
                let reg_conflict = match (ig.writes_reg(), ih.writes_reg()) {
                    (Some(a), Some(b)) if a == b => true,
                    _ => {
                        ig.writes_reg().is_some_and(|r| ih.dep_regs().contains(&r))
                            || ih.writes_reg().is_some_and(|r| ig.dep_regs().contains(&r))
                    }
                };
                // Ordered pairs are marked dependent too. They are never
                // co-enabled (and never co-asleep), so the bit is inert,
                // but conservative.
                loc_conflict
                    || reg_conflict
                    || model.ordered(&program.threads[tid[g]], idx[g], idx[h])
            } else {
                // Cross-thread: only shared memory interferes; registers
                // are thread-local and fences have no cross-thread effect.
                loc_conflict
            };
            if dependent {
                conflict[g].set(h);
                conflict[h].set(g);
            }
        }
    }

    let out_regs = reg_slots;
    let stored: BTreeSet<u8> = program
        .threads
        .iter()
        .flat_map(|t| t.instrs.iter())
        .filter_map(|i| match i {
            Instr::Store { loc, .. } => Some(*loc),
            _ => None,
        })
        .chain(program.init.iter().map(|&(l, _)| l))
        .collect();
    let out_mem: Vec<(u8, usize)> = stored.into_iter().map(|l| (l, mem_slot(l))).collect();

    Layout {
        tid,
        idx,
        mask_words,
        all_mask,
        pred,
        ipred,
        isucc,
        conflict,
        ordered_after,
        effect,
        code_bits,
        codes_per_word: (64 / code_bits) as usize,
        dict,
        init,
        out_regs,
        out_mem,
    }
}

impl Layout {
    /// Total instruction count.
    fn total(&self) -> usize {
        self.tid.len()
    }

    /// The enabled set of the state whose done words are `done`, from its
    /// definition: unperformed, and every `pred` performed. The walk
    /// starts from this and carries the set incrementally from there.
    fn enabled_at(&self, done: &[u64]) -> WideMask {
        let mut enabled = WideMask::zeros(self.total());
        for g in 0..self.total() {
            if done[g / 64] >> (g % 64) & 1 == 0 && self.pred[g].subset_of_words(done) {
                enabled.set(g);
            }
        }
        enabled
    }

    /// The [`Outcome`] a terminal packed state denotes. Every load and
    /// store has performed at a terminal, so every register slot and every
    /// `out_mem` location carries the code of its final value.
    fn outcome_of(&self, st: &[u64]) -> Outcome {
        debug_assert_eq!(&st[..self.mask_words], self.all_mask.words());
        let value = |s: usize| self.dict[st[s] as usize];
        Outcome {
            regs: self
                .out_regs
                .iter()
                .map(|rs| rs.iter().map(|&(r, s)| (r, value(s))).collect())
                .collect(),
            memory: self.out_mem.iter().map(|&(l, s)| (l, value(s))).collect(),
        }
    }

    /// Words of a visited key: the done words, the sleep words, then the
    /// slot codes, `codes_per_word` to a word.
    fn key_words(&self) -> usize {
        let slots = self.init.len() - self.mask_words;
        2 * self.mask_words + slots.div_ceil(self.codes_per_word)
    }

    /// Pack the visited key of `state` under `sleep` into `out`,
    /// [`key_words`](Self::key_words) long. Every code is below
    /// `dict.len() < 1 << code_bits`, so packing is injective and a
    /// visited-set lookup on the packed key stays exact.
    fn pack(&self, state: &[u64], sleep: &[u64], out: &mut Vec<u64>) {
        let (done, slots) = state.split_at(self.mask_words);
        out.clear();
        out.extend_from_slice(done);
        out.extend_from_slice(sleep);
        let bits = self.code_bits;
        let word = |cs: &[u64]| (0..).zip(cs).fold(0, |w, (i, &c)| w | (c << (i * bits)));
        out.extend(slots.chunks(self.codes_per_word).map(word));
    }

    /// The state words, then the sleep words, that [`pack`](Self::pack)
    /// packed.
    fn unpack<'k>(&self, packed: &'k [u64]) -> impl Iterator<Item = u64> + use<'k> {
        let (words, codes) = packed.split_at(2 * self.mask_words);
        let (done, sleep) = words.split_at(self.mask_words);
        let (per, bits) = (self.codes_per_word, self.code_bits);
        let mask = u64::MAX >> (64 - bits);
        let slots = (0..self.init.len() - self.mask_words)
            .map(move |i| (codes[i / per] >> ((i % per) as u32 * bits)) & mask);
        let (done, sleep) = (done.iter().copied(), sleep.iter().copied());
        done.chain(slots).chain(sleep)
    }
}

/// What [`revert`] needs to undo a transition: `(slot, old value)`
/// (`usize::MAX` when no slot changed).
type Undo = (usize, u64);

/// Perform transition `g`, returning its undo record.
#[inline]
fn apply(lay: &Layout, st: &mut [u64], g: usize) -> Undo {
    st[g / 64] |= 1 << (g % 64);
    match lay.effect[g] {
        Effect::Fence => (usize::MAX, 0),
        Effect::Load { dst, mem } => {
            let old = st[dst];
            st[dst] = st[mem];
            (dst, old)
        }
        Effect::Store { mem, val } => {
            let v = match val {
                Val::Const(c) => c,
                Val::Slot(s) => st[s],
            };
            let old = st[mem];
            st[mem] = v;
            (mem, old)
        }
    }
}

/// Undo [`apply`].
#[inline]
fn revert(st: &mut [u64], g: usize, undo: Undo) {
    st[g / 64] &= !(1 << (g % 64));
    if undo.0 != usize::MAX {
        st[undo.0] = undo.1;
    }
}

/// FxHash over packed words: the one hash an insert into a [`KeySet`] pays.
fn hash_words(words: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    for &w in words {
        h.write_u64(w);
    }
    h.finish()
}

/// Bytes per arena chunk of a [`KeySet`]. Deliberately below the
/// allocator's mmap threshold (128 KiB in glibc): chunks that size come
/// from the ordinary heap, next to the outcome sets the memo retains, and
/// the space a finished exploration frees is reused by the next one
/// (a lint + synth pass of the corpus peaks at 33.2 MB with these and at
/// 33.8 MB with 1 MiB chunks; the last chunk's slack is also smaller).
const CHUNK_BYTES: usize = 64 << 10;

/// An exact, grow-only set of fixed-width `u64` keys that allocates per
/// chunk, not per key. Keys are appended to an arena of equal-sized chunks
/// and found through an open-addressing (linear-probe) table whose slots
/// store the key's hash and its ordinal in the arena: a lookup compares
/// hashes first and the full key words on a hash match — membership is
/// exact, the hash only finds the slot — and growth re-places ordinals by
/// their stored hashes without touching a key.
struct KeySet {
    /// Words per key.
    width: usize,
    /// `log2` of the keys per chunk.
    chunk_shift: u32,
    /// The arena: every chunk but the last holds `1 << chunk_shift` keys.
    chunks: Vec<Vec<u64>>,
    /// Keys stored.
    len: usize,
    /// Per slot: the hash of the key it holds (meaningless when empty).
    hashes: Vec<u64>,
    /// Per slot: the key's arena ordinal plus one, `0` for an empty slot.
    /// The slot count is a power of two, at least twice `len`.
    ords: Vec<u32>,
}

impl KeySet {
    /// Slots of a new table.
    const MIN_SLOTS: usize = 64;

    fn new(width: usize) -> Self {
        let per_chunk = (CHUNK_BYTES / 8 / width.max(1)).max(1);
        KeySet {
            width,
            chunk_shift: per_chunk.ilog2(),
            chunks: Vec::new(),
            len: 0,
            hashes: vec![0; Self::MIN_SLOTS],
            ords: vec![0; Self::MIN_SLOTS],
        }
    }

    /// The `ord`-th key inserted.
    fn key(&self, ord: usize) -> &[u64] {
        let at = (ord & ((1 << self.chunk_shift) - 1)) * self.width;
        &self.chunks[ord >> self.chunk_shift][at..at + self.width]
    }

    /// Every key, in insertion order.
    fn iter(&self) -> impl Iterator<Item = &[u64]> {
        (0..self.len).map(|ord| self.key(ord))
    }

    /// The slot `hash` probes first: its top bits, which a multiply-rotate
    /// hash mixes best.
    fn home(hash: u64, slots: usize) -> usize {
        (hash >> (64 - slots.ilog2())) as usize
    }

    /// Insert `key`, whose hash is `hash`; `false` when it was already
    /// present.
    fn insert(&mut self, key: &[u64], hash: u64) -> bool {
        debug_assert_eq!(key.len(), self.width);
        if (self.len + 1) * 2 > self.ords.len() {
            self.grow();
        }
        let mask = self.ords.len() - 1;
        let mut slot = Self::home(hash, self.ords.len());
        while self.ords[slot] != 0 {
            if self.hashes[slot] == hash && self.key(self.ords[slot] as usize - 1) == key {
                return false;
            }
            slot = (slot + 1) & mask;
        }
        if self.len >> self.chunk_shift == self.chunks.len() {
            self.chunks
                .push(Vec::with_capacity(self.width << self.chunk_shift));
        }
        self.chunks
            .last_mut()
            .expect("a chunk was just ensured")
            .extend_from_slice(key);
        self.len += 1;
        self.ords[slot] = u32::try_from(self.len).expect("a key set holds under 2^32 keys");
        self.hashes[slot] = hash;
        true
    }

    /// Double the table, re-placing every ordinal by its stored hash.
    fn grow(&mut self) {
        let slots = self.ords.len() * 2;
        let mut hashes = vec![0; slots];
        let mut ords = vec![0; slots];
        for (&hash, &ord) in self.hashes.iter().zip(&self.ords) {
            if ord == 0 {
                continue;
            }
            let mut slot = Self::home(hash, slots);
            while ords[slot] != 0 {
                slot = (slot + 1) & (slots - 1);
            }
            hashes[slot] = hash;
            ords[slot] = ord;
        }
        self.hashes = hashes;
        self.ords = ords;
    }
}

/// The `(packed state, sleep mask)` visited-set of one exploration: one
/// [`KeySet`] for the serial walk, and for the parallel frontier one per
/// shard — 16 for litmus-sized programs, 64 beyond 64 instructions (large
/// state spaces see real shard contention). Keys are exact pairs, so
/// skipping a hit is sound: the same continuation was (or is being)
/// explored by the first inserter.
struct SharedSeen {
    shards: Vec<Mutex<KeySet>>,
    /// The top `shard_bits` bits of a key's hash select its shard.
    shard_bits: u32,
}

impl SharedSeen {
    fn new(lay: &Layout, serial: bool) -> Self {
        let shards: usize = match (serial, lay.total() > 64) {
            (true, _) => 1,
            (false, false) => 16,
            (false, true) => 64,
        };
        SharedSeen {
            shards: (0..shards)
                .map(|_| Mutex::new(KeySet::new(lay.key_words())))
                .collect(),
            shard_bits: shards.ilog2(),
        }
    }

    /// Insert the pair; `false` when it was already present. The key is
    /// hashed once: the top bits pick the shard, the rest place it there.
    fn insert(&self, key: &[u64]) -> bool {
        let hash = hash_words(key);
        let shard = hash.checked_shr(64 - self.shard_bits).unwrap_or(0) as usize;
        self.shards[shard]
            .lock()
            .expect("seen shard poisoned")
            .insert(key, hash << self.shard_bits)
    }
}

/// What [`Walker::advance`] found after consuming the forced macro-step
/// chain.
enum Advanced {
    /// All instructions performed — the state denotes an outcome.
    Terminal,
    /// The single persistent transition is asleep: the whole continuation
    /// was already explored from a sibling. Prune.
    SleepBlocked,
    /// No forced transition; the enabled set must be enumerated.
    Branch,
}

/// One subtree root of the parallel frontier.
struct Task {
    state: Vec<u64>,
    sleep: WideMask,
}

/// Exploration counters. Both are schedule-independent (see module docs),
/// hence byte-identical across `workers` settings.
#[derive(Default)]
struct Stats {
    /// Branch states inserted into the visited-set.
    visited: usize,
    /// Pruned subtrees: sleep-set skips + sleep-blocked chains +
    /// visited-set hits.
    pruned: usize,
}

/// What a walk does with the terminal states it reaches: an exploration
/// collects them (a [`KeySet`]), a witness search tests them ([`Seek`]).
trait Terminals {
    /// Take the terminal state `st`, reached from the walk's root by
    /// performing `trail` in order; `true` ends the walk.
    fn reach(&mut self, lay: &Layout, st: &[u64], trail: &[(usize, Undo)]) -> bool;
}

impl Terminals for KeySet {
    fn reach(&mut self, _: &Layout, st: &[u64], _: &[(usize, Undo)]) -> bool {
        self.insert(st, hash_words(st));
        false
    }
}

/// A witness search's [`Terminals`]: stop at the first terminal whose
/// outcome satisfies `goal`, keeping the execution that reached it.
struct Seek<'a> {
    goal: &'a dyn Fn(&Outcome) -> bool,
    found: Option<Witness>,
}

impl Terminals for Seek<'_> {
    fn reach(&mut self, lay: &Layout, st: &[u64], trail: &[(usize, Undo)]) -> bool {
        let outcome = lay.outcome_of(st);
        if !(self.goal)(&outcome) {
            return false;
        }
        let steps = trail.iter().map(|&(g, _)| WitnessStep {
            tid: lay.tid[g],
            idx: lay.idx[g],
        });
        self.found = Some(Witness {
            steps: steps.collect(),
            outcome,
        });
        true
    }
}

/// One worker's walk over a set of subtrees: the packed state it edits in
/// place, per-walk buffers that are reused at every node (so a visited
/// state costs no allocation of its own), what it does with terminals, and
/// the shared visited-set.
struct Walker<'a, T> {
    lay: &'a Layout,
    seen: &'a SharedSeen,
    /// The packed state the walk is at.
    st: Vec<u64>,
    /// The enabled transitions of `st` (unperformed, every `pred`
    /// performed), carried along the walk: [`Walker::perform`] and
    /// [`Walker::unperform`] update it from `isucc` instead of re-deriving
    /// it from every unperformed instruction.
    enabled: WideMask,
    /// Every transition performed since the walk's root, in order, with
    /// its undo record.
    trail: Vec<(usize, Undo)>,
    /// Scratch: the unperformed transitions of `st`.
    undone: WideMask,
    /// Scratch: the packed visited key of the branch state at hand.
    packed: Vec<u64>,
    terminals: T,
    stats: Stats,
}

impl<'a, T: Terminals> Walker<'a, T> {
    fn new(lay: &'a Layout, seen: &'a SharedSeen, terminals: T) -> Self {
        Walker {
            lay,
            seen,
            st: lay.init.clone(),
            enabled: lay.enabled_at(&lay.init[..lay.mask_words]),
            trail: Vec::new(),
            undone: WideMask::zeros(lay.total()),
            packed: Vec::with_capacity(lay.key_words()),
            terminals,
            stats: Stats::default(),
        }
    }

    /// Perform transition `g`. It was enabled, so it leaves the enabled
    /// set, and the only transitions it can enable are its immediate
    /// successors (see [`Layout::isucc`]).
    #[inline]
    fn perform(&mut self, g: usize) {
        let lay = self.lay;
        self.trail.push((g, apply(lay, &mut self.st, g)));
        self.enabled.clear(g);
        let done = &self.st[..lay.mask_words];
        for h in lay.isucc[g].bits() {
            if lay.ipred[h].subset_of_words(done) {
                self.enabled.set(h);
            }
        }
    }

    /// Undo the last [`perform`](Self::perform): the transition is enabled
    /// again and none of its immediate successors is.
    #[inline]
    fn unperform(&mut self) {
        let (g, undo) = self.trail.pop().expect("a performed transition");
        revert(&mut self.st, g, undo);
        self.enabled.and_not_assign(&self.lay.isucc[g]);
        self.enabled.set(g);
    }

    /// Run the forced macro-step chain in place: while some enabled
    /// transition is independent of every unperformed transition that
    /// could fire before it, execute it alone (singleton persistent set)
    /// and filter the sleep set.
    fn advance(&mut self, sleep: &mut WideMask) -> Advanced {
        let lay = self.lay;
        loop {
            let done = &self.st[..lay.mask_words];
            debug_assert!(
                self.enabled == lay.enabled_at(done),
                "the carried enabled set left the from-scratch one"
            );
            if done == lay.all_mask.words() {
                return Advanced::Terminal;
            }
            debug_assert!(
                self.enabled.words().iter().any(|&w| w != 0),
                "well-formed programs never deadlock"
            );
            self.undone.assign_and_not(&lay.all_mask, done);
            let undone = &self.undone;
            // Transitions that could fire while `g` stays unperformed:
            // everything unperformed except same-thread instructions
            // ordered after `g` (`conflict[g]` never contains `g`).
            let forced = self
                .enabled
                .bits()
                .find(|&g| !lay.conflict[g].meets_and_not(undone, &lay.ordered_after[g]));
            let Some(g) = forced else {
                return Advanced::Branch;
            };
            if sleep.get(g) {
                return Advanced::SleepBlocked;
            }
            self.perform(g);
            sleep.and_not_assign(&lay.conflict[g]);
        }
    }

    /// Is this the first visit of the branch state `(st, sleep)`? The
    /// visited key is the state and the sleep mask,
    /// [packed](Layout::pack).
    fn first_visit(&mut self, sleep: &WideMask) -> bool {
        self.lay.pack(&self.st, sleep.words(), &mut self.packed);
        debug_assert!(
            self.lay
                .unpack(&self.packed)
                .eq(self.st.iter().chain(sleep.words()).copied()),
            "a packed key must unpack to the key"
        );
        self.seen.insert(&self.packed)
    }

    /// Run the forced chain from the current state under `sleep`: record
    /// the terminal or the prune it ends in, or — at a branch state seen
    /// for the first time — perform every awake enabled transition in turn
    /// and hand the child's sleep set to `child` (the walker then stands
    /// on the child state). Returns `true`, leaving the state where it is,
    /// as soon as a witness search is over; otherwise restores the state
    /// and returns `false`.
    fn expand(
        &mut self,
        mut sleep: WideMask,
        mut child: impl FnMut(&mut Self, WideMask) -> bool,
    ) -> bool {
        let lay = self.lay;
        let mark = self.trail.len();
        match self.advance(&mut sleep) {
            Advanced::Terminal => {
                if self.terminals.reach(lay, &self.st, &self.trail) {
                    return true;
                }
            }
            Advanced::SleepBlocked => self.stats.pruned += 1,
            Advanced::Branch if self.first_visit(&sleep) => {
                self.stats.visited += 1;
                let enabled = self.enabled.clone();
                for g in enabled.bits() {
                    if sleep.get(g) {
                        self.stats.pruned += 1;
                        continue;
                    }
                    self.perform(g);
                    let mut child_sleep = sleep.clone();
                    child_sleep.and_not_assign(&lay.conflict[g]);
                    if child(self, child_sleep) {
                        return true;
                    }
                    self.unperform();
                    sleep.set(g);
                }
            }
            Advanced::Branch => self.stats.pruned += 1,
        }
        while self.trail.len() > mark {
            self.unperform();
        }
        false
    }

    /// Depth-first exploration of the subtree below the current state.
    fn walk(&mut self, sleep: WideMask) -> bool {
        self.expand(sleep, Self::walk)
    }

    /// Move the walker to a subtree root of the parallel frontier.
    fn jump_to(&mut self, state: &[u64]) {
        debug_assert!(self.trail.is_empty(), "jumps happen between walks");
        self.st.copy_from_slice(state);
        self.enabled = self.lay.enabled_at(&state[..self.lay.mask_words]);
    }
}

/// Explore `program` (whose [`Layout`] this is) and return the canonical
/// [`OutcomeSet`]. Serial DFS when `workers <= 1` or the program is below
/// [`PARALLEL_MIN_INSTRS`]; otherwise the frontier is expanded
/// breadth-first and drained on `workers` threads.
pub(crate) fn run(lay: &Layout, workers: usize) -> OutcomeSet {
    let total = lay.total();
    let serial = workers <= 1 || total < PARALLEL_MIN_INSTRS;
    let seen = SharedSeen::new(lay, serial);
    let collector = || Walker::new(lay, &seen, KeySet::new(lay.init.len()));
    let mut walkers = vec![collector()];

    if serial {
        walkers[0].walk(WideMask::zeros(total));
    } else {
        // Breadth-first frontier expansion: pop a subtree root and queue
        // its children as new roots instead of descending into them —
        // exactly the serial walk, with scheduling (not search order)
        // changed.
        // Large programs get more, finer roots per worker: their subtrees
        // are deep and uneven, and a fatter frontier is what lets the
        // claim loop balance them.
        let target = workers * if total > 64 { 32 } else { 4 };
        let mut queue = VecDeque::from([Task {
            state: lay.init.clone(),
            sleep: WideMask::zeros(total),
        }]);
        let root = &mut walkers[0];
        while queue.len() < target {
            let Some(Task { state, sleep }) = queue.pop_front() else {
                break;
            };
            root.jump_to(&state);
            root.expand(sleep, |w, sleep| {
                queue.push_back(Task {
                    state: w.st.clone(),
                    sleep,
                });
                false
            });
        }

        // Drain what is left of the frontier (nothing, when the expansion
        // already finished the search) on the claim loop; terminals are a
        // set union and the counters a sum, so worker order is immaterial.
        let roots: Vec<Task> = queue.into();
        walkers.extend(claim_fold(&roots, workers, collector, |w, _, task| {
            w.jump_to(&task.state);
            w.walk(task.sleep.clone());
        }));
    }

    let mut stats = Stats::default();
    let mut rows: Vec<u64> = Vec::new();
    for w in &walkers {
        stats.visited += w.stats.visited;
        stats.pruned += w.stats.pruned;
        for t in w.terminals.iter() {
            rows.extend_from_slice(t);
        }
    }

    // Canonical order on the packed rows, before any nested `Outcome` is
    // built. A terminal's done words are all ones and a location no store
    // or `init` entry names keeps its 0, so two rows differ only in the
    // register and memory slots `outcome_of` reads — and those are laid
    // out by (thread, register) and then by location, which is the order
    // `Outcome`'s derived `Ord` compares them in, and hold codes, which
    // order like the values they decode to.
    let mut sorted: Vec<&[u64]> = rows.chunks_exact(lay.init.len()).collect();
    sorted.sort_unstable();
    sorted.dedup();
    let set = OutcomeSet {
        outcomes: sorted.into_iter().map(|row| lay.outcome_of(row)).collect(),
        // Forced macro-states and terminals are never materialized; the
        // count is branch states only, floored at 1 for the root.
        states_visited: stats.visited.max(1),
        states_pruned: stats.pruned,
        peak_frontier: 0,
    };
    debug_assert!(
        set.is_canonical(),
        "packed row order must be the canonical outcome order"
    );
    set
}

/// Witness search on the engine: the same pruned DFS, returning the first
/// complete execution — the transitions on the walker's trail — whose
/// outcome satisfies `pred`. Sound because persistent+sleep search reaches
/// every terminal state: if any execution reaches a matching outcome, some
/// explored path reaches its terminal state. Deterministic: transitions
/// are always tried in `(thread, index)` order.
pub(crate) fn find_witness_dpor(lay: &Layout, pred: &dyn Fn(&Outcome) -> bool) -> Option<Witness> {
    let seen = SharedSeen::new(lay, true);
    let seek = Seek {
        goal: pred,
        found: None,
    };
    let mut walker = Walker::new(lay, &seen, seek);
    walker.walk(WideMask::zeros(lay.total()));
    walker.terminals.found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Thread;
    use armbar_barriers::Barrier;

    fn prog(threads: Vec<Vec<Instr>>) -> Program {
        Program {
            threads: threads
                .into_iter()
                .map(|instrs| Thread { instrs })
                .collect(),
            init: vec![],
        }
    }

    fn explore(p: &Program, model: MemoryModel, workers: usize) -> OutcomeSet {
        run_program(p, model, workers)
    }

    #[test]
    fn width_dispatch_straddles_the_64_instruction_boundary() {
        let at = prog(vec![
            vec![Instr::store(0, 1); 32],
            vec![Instr::store(1, 1); 32],
        ]);
        assert_eq!(layout(&at, MemoryModel::ArmWmm).mask_words, 1);
        let over = prog(vec![
            vec![Instr::store(0, 1); 33],
            vec![Instr::store(1, 1); 32],
        ]);
        assert_eq!(layout(&over, MemoryModel::ArmWmm).mask_words, 2);
        // Same-location store chains are totally ordered: one outcome,
        // reached without any oracle fallback.
        let set = explore(&over, MemoryModel::ArmWmm, 1);
        assert_eq!(set.outcomes.len(), 1);
        assert_eq!(set.outcomes[0].mem(0), 1);
    }

    /// MP (fenced, 6 instrs) plus a coherence-ordered same-location store
    /// chain padding the program to exactly `total` instructions. The pad
    /// thread's stores are totally ordered, so the oracle stays tractable
    /// at any size near the width boundary.
    fn boundary_program(total: usize) -> Program {
        assert!(total > 6);
        let pad: Vec<Instr> = (0..total - 6)
            .map(|i| Instr::store(9, i as u64 + 1))
            .collect();
        prog(vec![
            vec![
                Instr::store(0, 1),
                Instr::Fence(Barrier::DmbSt),
                Instr::store(1, 1),
            ],
            vec![
                Instr::load(0, 1),
                Instr::Fence(Barrier::DmbLd),
                Instr::load(1, 0),
            ],
            pad,
        ])
    }

    /// 64 instructions fill one mask word and 65 need a second: pin
    /// engine==oracle equality on either side of that boundary.
    #[test]
    fn layout_boundary_63_64_65_matches_oracle() {
        for total in [63, 64, 65] {
            let p = boundary_program(total);
            assert_eq!(
                p.threads.iter().map(|t| t.instrs.len()).sum::<usize>(),
                total
            );
            let oracle = crate::explore::explore_oracle(&p, MemoryModel::ArmWmm);
            let serial = explore(&p, MemoryModel::ArmWmm, 1);
            let parallel = explore(&p, MemoryModel::ArmWmm, 4);
            assert_eq!(
                serial.outcomes, oracle.outcomes,
                "engine diverged from oracle at {total} instructions"
            );
            assert_eq!(serial, parallel, "worker count changed {total}-instr run");
            // The fences still forbid MP's r0=1 ∧ r1=0 at every size.
            assert!(serial.all(|o| o.reg(1, 0) != 1 || o.reg(1, 1) == 1));
        }
    }

    /// `ordered` is decided pair by pair and is not transitive: a
    /// same-location edge followed by a dependency edge leaves the two ends
    /// unordered as a pair. `ipred`/`isucc` are the reduction of the
    /// *closure*, and decide enabledness on every downward-closed done-set
    /// exactly as `pred` does.
    #[test]
    fn immediate_predecessors_reduce_the_closure_of_a_non_transitive_order() {
        let p = prog(vec![vec![
            Instr::store(0, 1),             // 0
            Instr::load(0, 0),              // 1: same location as 0
            Instr::store_data_dep(1, 1, 0), // 2: depends on 1, unordered with 0
            Instr::load(1, 0),              // 3: same location as 0 and 1
        ]]);
        let model = MemoryModel::ArmWmm;
        let t = &p.threads[0];
        assert!(model.ordered(t, 0, 1) && model.ordered(t, 1, 2) && !model.ordered(t, 0, 2));
        let lay = layout(&p, model);
        let word = |ms: &[WideMask]| ms.iter().map(|m| m.words()[0]).collect::<Vec<_>>();
        assert_eq!(word(&lay.pred), [0b0000, 0b0001, 0b0010, 0b0011]);
        assert_eq!(
            word(&lay.ipred),
            [0b0000, 0b0001, 0b0010, 0b0010],
            "0 precedes 3 through 1"
        );
        assert_eq!(word(&lay.isucc), [0b0010, 0b1100, 0b0000, 0b0000]);
        for done in [0b0000u64, 0b0001, 0b0011, 0b0111, 0b1011, 0b1111] {
            let by_ipred = (0..4)
                .filter(|&g| done >> g & 1 == 0 && lay.ipred[g].subset_of_words(&[done]))
                .fold(0u64, |m, g| m | 1 << g);
            assert_eq!(
                lay.enabled_at(&[done]).words(),
                [by_ipred],
                "done {done:#06b}"
            );
        }
        // The serial walk carries the enabled set (and, in a debug build,
        // checks it against `enabled_at` at every macro-step).
        assert_eq!(run(&lay, 1).outcomes.len(), 1);
    }

    /// Membership is decided by the key words, never by the hash: keys
    /// that all collide stay distinct, across table growth and arena chunk
    /// boundaries, and come back in insertion order.
    #[test]
    fn key_set_is_exact_under_colliding_hashes_and_growth() {
        let width = 3;
        let n = (2u64 << KeySet::new(width).chunk_shift) + 5;
        let key = |i: u64| [i, !i, 7];
        let mut colliding = KeySet::new(width);
        for i in 0..300 {
            assert!(colliding.insert(&key(i), 42));
        }
        assert!((0..300).all(|i| !colliding.insert(&key(i), 42)));
        assert_eq!(colliding.len, 300);

        let mut set = KeySet::new(width);
        for i in 0..n {
            assert!(set.insert(&key(i), hash_words(&key(i))), "{i} is new");
            assert!(!set.insert(&key(i), hash_words(&key(i))), "{i} is present");
        }
        assert_eq!(set.chunks.len(), 3);
        assert!(set.ords.len() >= 2 * set.len);
        assert!(set.iter().eq((0..n).map(key)), "insertion order");
    }

    /// Every state of `lay`'s full graph (no reduction): the code of
    /// every slot indexes the dictionary.
    fn assert_codes_index_the_dictionary(lay: &Layout, st: &mut Vec<u64>) {
        assert!(st[lay.mask_words..]
            .iter()
            .all(|&c| c < lay.dict.len() as u64));
        for g in lay.enabled_at(&st[..lay.mask_words]).bits() {
            let undo = apply(lay, st, g);
            assert_codes_index_the_dictionary(lay, st);
            revert(st, g, undo);
        }
    }

    /// The dictionary is ascending from 0 and holds every value a slot
    /// takes on any path: `init` values (a location's duplicate entries
    /// included), store constants of both kinds and values that reach a
    /// store through a register — so the decoded outcomes are the oracle's.
    #[test]
    fn the_value_dictionary_is_ascending_and_closed() {
        let p = Program {
            threads: vec![
                Thread {
                    instrs: vec![
                        Instr::store(0, 9),
                        Instr::load(0, 1),
                        Instr::store_data_dep(2, 5, 0),
                    ],
                },
                Thread {
                    instrs: vec![
                        Instr::load(1, 0),
                        Instr::Store {
                            loc: 1,
                            src: Src::Reg(1),
                            release: false,
                            addr_dep: None,
                            ctrl_dep: None,
                        },
                    ],
                },
            ],
            init: vec![(1, 7), (1, 3), (3, u64::MAX)],
        };
        let lay = layout(&p, MemoryModel::ArmWmm);
        assert_eq!(lay.dict, [0, 3, 5, 7, 9, u64::MAX]);
        assert_eq!(lay.code_bits, 3);
        assert_codes_index_the_dictionary(&lay, &mut lay.init.clone());
        let oracle = crate::explore::explore_oracle(&p, MemoryModel::ArmWmm);
        assert_eq!(run(&lay, 1).outcomes, oracle.outcomes);
    }

    /// Packing a state and a sleep mask, then unpacking, returns the state
    /// words and the sleep words exactly at every code width, from one bit
    /// per code to one code per word (a width only a dictionary of 2^63
    /// values needs, so it is forced here), and the packed key is
    /// [`Layout::key_words`] long.
    #[test]
    fn a_packed_key_unpacks_to_the_key() {
        for (values, bits) in [(0, 1), (2, 2), (300, 9), (70_000, 17)] {
            // `init` entries for one location all enter the dictionary.
            let init = (1..=values).map(|v| ((v % 40) as u8, v)).collect();
            let loads = (0..70).map(|i| Instr::load(i % 30, i % 50)).collect();
            let p = Program {
                threads: vec![Thread { instrs: loads }],
                init,
            };
            let mut lay = layout(&p, MemoryModel::ArmWmm);
            assert_eq!((lay.dict.len() as u64, lay.code_bits), (values + 1, bits));
            for bits in [bits, 32, 64] {
                (lay.code_bits, lay.codes_per_word) = (bits, 64 / bits as usize);
                let slots = lay.init.len() - lay.mask_words;
                for seed in [0, 1, u64::MAX] {
                    let done = (0..lay.mask_words).map(|w| seed.rotate_left(w as u32) ^ 0x5a5a);
                    let codes = (0..slots as u64)
                        .map(|s| (seed ^ s.wrapping_mul(0x9e37_79b9)) >> (64 - bits));
                    let state: Vec<u64> = done.chain(codes).collect();
                    let sleep: Vec<u64> = (0..lay.mask_words).map(|w| !seed >> w).collect();
                    let mut packed = Vec::new();
                    lay.pack(&state, &sleep, &mut packed);
                    assert_eq!(packed.len(), lay.key_words(), "{bits} bits");
                    let key = state.iter().chain(&sleep).copied();
                    assert!(lay.unpack(&packed).eq(key), "{bits} bits");
                }
            }
        }
    }

    /// The visited keys of the two implementation-sized corpus twins: the
    /// 113-instruction MCS hand-off's 32 slots take 38 values (6 bits, ten
    /// codes a word), the Pilot round-trip's 12 slots four (3 bits).
    #[test]
    fn implementation_sized_keys_pack_to_a_quarter() {
        use crate::unroll::{mcs_handoff_unrolled, pilot_roundtrip_unrolled};
        let mut mcs = mcs_handoff_unrolled(5, 4, 6, Barrier::DmbFull, Barrier::DmbFull);
        mcs.threads[1].instrs.push(Instr::Fence(Barrier::DmbSt));
        let mut pilot = pilot_roundtrip_unrolled(19, 5);
        pilot.threads[0]
            .instrs
            .insert(10, Instr::Fence(Barrier::DmbSt));
        for (p, want) in [(mcs, (38, 36, 8)), (pilot, (4, 16, 5))] {
            let lay = layout(&p, MemoryModel::ArmWmm);
            let full = lay.init.len() + lay.mask_words;
            assert_eq!((lay.dict.len(), full, lay.key_words()), want);
        }
    }

    #[test]
    fn packed_outcome_matches_oracle_shape() {
        // T0 stores then loads; T1 loads a never-stored location (reads 0,
        // and the location must not appear in the memory image).
        let p = Program {
            threads: vec![
                Thread {
                    instrs: vec![Instr::store(0, 7), Instr::load(0, 0)],
                },
                Thread {
                    instrs: vec![Instr::load(3, 9)],
                },
            ],
            init: vec![(1, 5)],
        };
        let set = explore(&p, MemoryModel::Sc, 1);
        assert_eq!(set.outcomes.len(), 1);
        let o = &set.outcomes[0];
        assert_eq!(o.reg(0, 0), 7);
        assert_eq!(o.reg(1, 3), 0);
        assert_eq!(o.mem(0), 7);
        assert_eq!(o.mem(1), 5);
        assert!(
            o.memory.iter().all(|&(l, _)| l != 9),
            "loaded-only loc absent"
        );
    }

    #[test]
    fn forced_only_programs_report_one_state() {
        let p = prog(vec![vec![Instr::store(0, 1), Instr::store(1, 2)]]);
        let set = explore(&p, MemoryModel::ArmWmm, 1);
        assert_eq!(set.states_visited, 1, "single-thread runs are all forced");
        assert_eq!(set.outcomes.len(), 1);
    }

    #[test]
    fn parallel_run_is_byte_identical_to_serial() {
        let p = prog(vec![
            vec![Instr::store(0, 1), Instr::store(1, 2), Instr::load(0, 2)],
            vec![Instr::store(2, 3), Instr::load(1, 0), Instr::load(2, 1)],
        ]);
        let serial = explore(&p, MemoryModel::ArmWmm, 1);
        for workers in [2, 4, 8] {
            let par = explore(&p, MemoryModel::ArmWmm, workers);
            assert_eq!(serial.outcomes, par.outcomes, "workers={workers}");
            assert_eq!(
                serial.states_visited, par.states_visited,
                "workers={workers}"
            );
            assert_eq!(serial.states_pruned, par.states_pruned, "workers={workers}");
        }
    }
}
