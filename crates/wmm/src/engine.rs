//! The packed-state DPOR exploration engine.
//!
//! This module is the fast path behind [`explore`](crate::explore::explore):
//! a depth-first search over the same state graph as the enumerative oracle
//! (`explore_oracle`), with four layered optimizations that together cut
//! `states_visited` by ~5-10x on the lint corpus while provably preserving
//! the exact outcome set:
//!
//! 1. **Compact incremental state.** A pre-pass ([`Layout`]) assigns every
//!    load-destination register and every touched memory location a fixed
//!    word slot, so a search state is a flat `Vec<u64>`: the first
//!    `mask_words` words are a global performed-bitmask (one bit per
//!    instruction across all threads), the rest are slot values.
//!    Transitions apply and undo in place on a single mutable vector — no
//!    per-transition clone of `Vec<BTreeMap>` — and the visited-set hashes
//!    the packed words directly. The engine is generic over the bitmask
//!    width ([`Mask`]): `u64` for programs of at most 64 instructions (the
//!    whole litmus corpus — monomorphized to the original single-word
//!    code) and [`WideMask`] beyond, so implementation-sized programs
//!    (unrolled lock handoffs, 100+ instructions) run through the same
//!    engine instead of falling back to the oracle.
//!
//!    *Why packing is lossless:* in the oracle's sparse state, whether a
//!    register or location is present in a map is a pure function of the
//!    done-bitmask (a register is present iff some load writing it has
//!    performed; a location iff it is in `init` or some store to it has
//!    performed). Packed words default absent slots to 0, exactly the value
//!    the oracle's `unwrap_or(0)` reads give them, so packed equality
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
//! 3. **Thread-symmetry reduction** ([`crate::symmetry`]). Groups of
//!    threads identical up to private-location renaming (N lock
//!    contenders) induce program automorphisms; the engine canonicalizes
//!    every `(state, sleep)` visited key under per-group thread
//!    permutation, so only one representative per orbit is expanded, and
//!    closes terminal outcomes back over the group at the end. The
//!    reported outcome set is exactly the full-graph one; `states_visited`
//!    counts quotient branch states (still schedule-independent, because
//!    canonicalization commutes with the automorphisms). Witness search
//!    runs *without* symmetry — a canonical-key skip would return a
//!    permuted path whose step list names the wrong threads.
//!
//! 4. **Parallel frontier.** [`run`] with `workers > 1` expands the search
//!    tree breadth-first until it holds enough independent `(state, sleep)`
//!    subtree roots, then drains them with the crate's claim loop
//!    ([`crate::pool::claim_fold`]: scoped threads taking roots off one
//!    shared cursor — subtrees never spawn subtrees, so there is nothing
//!    to steal) against a sharded mutex-protected visited-set. The
//!    visited-set stores exact canonical `(packed state, sleep mask)`
//!    pairs, and a pair's subtree is a pure function of the pair — so the
//!    set of *expanded* canonical pairs is the same closure regardless of
//!    schedule, making `states_visited`/`states_pruned` and the canonical
//!    outcome set byte-identical at any worker count. Programs below
//!    [`PARALLEL_MIN_INSTRS`] total instructions always run the serial
//!    walk — litmus-sized state spaces are microsecond-scale and thread
//!    setup would dominate — and large programs get more shards and more,
//!    finer frontier tasks. No production caller passes `workers > 1`
//!    today (the sweeps parallelize a level up, across cells); the
//!    differential suites and `armbar bench explore` do.

use std::collections::BTreeSet;
use std::collections::VecDeque;
use std::hash::Hasher;
use std::sync::Mutex;

use armbar_fxhash::{FxHashSet, FxHasher};

use crate::explore::{Outcome, OutcomeSet};
use crate::mask::{word_count, Mask, WideMask};
use crate::model::{Instr, MemoryModel, Program, Src};
use crate::pool::claim_fold;
use crate::symmetry::{self, factorial, SlotGroup, Symmetry, MAX_ORBIT};
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
/// and the conflict relation. Built once per exploration by [`layout`],
/// generic over the bitmask width `M`.
pub(crate) struct Layout<M: Mask> {
    /// Global transition index -> owning thread.
    tid: Vec<usize>,
    /// Global transition index -> index within its thread.
    idx: Vec<usize>,
    /// Words of the done bitmask at the front of every packed state.
    mask_words: usize,
    /// Bitmask with one bit per instruction.
    all_mask: M,
    /// `pred[g]`: global done-bits that must be set before `g` is enabled
    /// (its `MemoryModel::ordered` predecessors).
    pred: Vec<M>,
    /// `conflict[g]`: transitions *dependent* on `g` (may not commute).
    conflict: Vec<M>,
    /// `ordered_after[g]`: same-thread transitions ordered after `g`
    /// (they can never fire while `g` is unperformed).
    ordered_after: Vec<M>,
    /// Per-transition packed effect.
    effect: Vec<Effect>,
    /// The initial packed state.
    init: Vec<u64>,
    /// Per thread: sorted `(reg, slot)` of load-destination registers —
    /// the register file of a terminal outcome.
    out_regs: Vec<Vec<(u8, usize)>>,
    /// Sorted `(loc, slot)` of locations present in a terminal outcome's
    /// memory image (`init` locations plus stored locations).
    out_mem: Vec<(u8, usize)>,
    /// Thread-symmetry tables, when enabled and the program has identical
    /// thread groups (orbit capped at [`MAX_ORBIT`]).
    sym: Option<Symmetry>,
}

/// The width dispatch: programs of at most 64 instructions monomorphize
/// on `u64` (the zero-overhead fast path), larger ones on [`WideMask`].
/// Every program gets a layout — there is no size ceiling and no oracle
/// fallback anymore.
pub(crate) enum EngineLayout {
    /// Single-word masks (≤ 64 total instructions).
    Narrow(Layout<u64>),
    /// Boxed multi-word masks.
    Wide(Layout<WideMask>),
}

/// Build the width-dispatched [`Layout`] for `program` under `model`.
/// `symmetry` enables thread-symmetry reduction (exploration wants it;
/// witness search must not — see the module docs).
pub(crate) fn layout(program: &Program, model: MemoryModel, symmetry: bool) -> EngineLayout {
    let total: usize = program.threads.iter().map(|t| t.instrs.len()).sum();
    if total <= 64 {
        EngineLayout::Narrow(build(program, model, symmetry))
    } else {
        EngineLayout::Wide(build(program, model, symmetry))
    }
}

/// Explore `program` end to end: layout, width dispatch, run.
pub(crate) fn run_program(
    program: &Program,
    model: MemoryModel,
    workers: usize,
    symmetry: bool,
) -> OutcomeSet {
    match layout(program, model, symmetry) {
        EngineLayout::Narrow(lay) => run(&lay, workers),
        EngineLayout::Wide(lay) => run(&lay, workers),
    }
}

/// Witness search for `program` at any size (symmetry disabled: the step
/// list must name the concrete threads of the found execution).
pub(crate) fn witness_program(
    program: &Program,
    model: MemoryModel,
    pred: &dyn Fn(&Outcome) -> bool,
) -> Option<Witness> {
    match layout(program, model, false) {
        EngineLayout::Narrow(lay) => find_witness_dpor(&lay, pred),
        EngineLayout::Wide(lay) => find_witness_dpor(&lay, pred),
    }
}

/// Build one [`Layout`] instantiation. `M` must be wide enough for the
/// program (callers go through [`layout`]).
fn build<M: Mask>(program: &Program, model: MemoryModel, symmetry: bool) -> Layout<M> {
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
    let all_mask = M::ones(total);

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

    let mut init = vec![0u64; words];
    for &(l, v) in &program.init {
        // Later duplicate entries win, matching the oracle's map collect.
        init[mem_slot(l)] = v;
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
                    Src::Const(v) | Src::DepConst { value: v, .. } => Val::Const(*v),
                    // A register no load in the thread writes always reads
                    // as 0, exactly like the oracle's `unwrap_or(0)`.
                    Src::Reg(r) => reg_slot(tid[g], *r).map_or(Val::Const(0), Val::Slot),
                },
            },
        });
    }

    // Enabledness and same-thread ordering masks from the model relation.
    let mut pred = vec![M::zeros(total); total];
    let mut ordered_after = vec![M::zeros(total); total];
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

    // The static conflict (dependence) relation. Sound over-approximation:
    // a pair left out of `conflict` must commute in *every* state where
    // both are enabled, and neither may disable the other.
    let mut conflict = vec![M::zeros(total); total];
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

    let sym = if symmetry {
        build_symmetry(program, &base, &reg_slots, &mem_slot)
    } else {
        None
    };

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
        conflict,
        ordered_after,
        effect,
        init,
        out_regs,
        out_mem,
        sym,
    }
}

/// Resolve the program-level identical-thread groups to layout slots.
/// Groups whose members are empty or longer than 64 instructions are
/// dropped (one done block must fit a `u64`); if the combined orbit would
/// exceed [`MAX_ORBIT`], symmetry is disabled for the program.
fn build_symmetry(
    program: &Program,
    base: &[usize],
    reg_slots: &[Vec<(u8, usize)>],
    mem_slot: &impl Fn(u8) -> usize,
) -> Option<Symmetry> {
    let mut groups = Vec::new();
    let mut orbit = 1usize;
    for pg in symmetry::identical_groups(program) {
        let len = program.threads[pg.members[0]].instrs.len();
        if len == 0 || len > 64 {
            continue;
        }
        orbit = orbit.saturating_mul(factorial(pg.members.len()));
        groups.push(SlotGroup {
            bases: pg.members.iter().map(|&t| base[t]).collect(),
            len,
            reg_slots: pg
                .members
                .iter()
                .map(|&t| reg_slots[t].iter().map(|&(_, s)| s).collect())
                .collect(),
            mem_slots: pg
                .private_locs
                .iter()
                .map(|locs| locs.iter().map(|&l| mem_slot(l)).collect())
                .collect(),
        });
    }
    if groups.is_empty() || orbit > MAX_ORBIT {
        None
    } else {
        Some(Symmetry { groups, orbit })
    }
}

impl<M: Mask> Layout<M> {
    /// Total instruction count.
    fn total(&self) -> usize {
        self.tid.len()
    }

    /// The [`Outcome`] a terminal packed state denotes. Every load and
    /// store has performed at a terminal, so every register slot and every
    /// `out_mem` location carries its final value.
    fn outcome_of(&self, st: &[u64]) -> Outcome {
        debug_assert_eq!(&st[..self.mask_words], self.all_mask.words());
        Outcome {
            regs: self
                .out_regs
                .iter()
                .map(|rs| rs.iter().map(|&(r, s)| (r, st[s])).collect())
                .collect(),
            memory: self.out_mem.iter().map(|&(l, s)| (l, st[s])).collect(),
        }
    }
}

/// Perform transition `g`, returning the undo record `(slot, old value)`
/// (`usize::MAX` when no slot changed).
#[inline]
fn apply<M: Mask>(lay: &Layout<M>, st: &mut [u64], g: usize) -> (usize, u64) {
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
fn revert(st: &mut [u64], g: usize, undo: (usize, u64)) {
    st[g / 64] &= !(1 << (g % 64));
    if undo.0 != usize::MAX {
        st[undo.0] = undo.1;
    }
}

/// FxHash over packed words, for shard selection.
fn hash_words(words: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    for &w in words {
        h.write_u64(w);
    }
    h.finish()
}

/// The sharded `(packed state, sleep mask)` visited-set shared between
/// workers, sized per program: 16 shards for litmus-sized programs, 64
/// beyond 64 instructions (large state spaces see real shard contention).
/// Keys are exact canonical pairs, so skipping a hit is sound: an
/// orbit-equivalent continuation was (or is being) explored by the first
/// inserter.
struct SharedSeen {
    shards: Vec<Mutex<FxHashSet<Box<[u64]>>>>,
    /// Hash bits above this select the shard.
    shift: u32,
}

impl SharedSeen {
    fn new(total_instrs: usize) -> Self {
        let n: usize = if total_instrs > 64 { 64 } else { 16 };
        SharedSeen {
            shards: (0..n).map(|_| Mutex::new(FxHashSet::default())).collect(),
            shift: 64 - n.trailing_zeros(),
        }
    }

    /// Insert the pair; `false` when it was already present.
    fn insert(&self, key: &[u64]) -> bool {
        let shard = (hash_words(key) >> self.shift) as usize;
        let mut set = self.shards[shard].lock().expect("seen shard poisoned");
        if set.contains(key) {
            false
        } else {
            set.insert(key.into());
            true
        }
    }
}

/// The visited key of a branch state: packed state words followed by the
/// sleep mask, canonicalized under thread symmetry when enabled.
fn branch_key<M: Mask>(lay: &Layout<M>, st: &[u64], sleep: &M) -> Vec<u64> {
    let mut key = Vec::with_capacity(st.len() + lay.mask_words);
    key.extend_from_slice(st);
    key.extend_from_slice(sleep.words());
    if let Some(sym) = &lay.sym {
        sym.canonicalize(&mut key, st.len());
    }
    key
}

/// Reused per-walk scratch masks, so the wide path does not allocate two
/// bitsets per [`advance`] iteration (for `u64` these are two plain
/// words on the stack).
struct Scratch<M> {
    undone: M,
    enabled: M,
}

impl<M: Mask> Scratch<M> {
    fn new(total: usize) -> Self {
        Scratch {
            undone: M::zeros(total),
            enabled: M::zeros(total),
        }
    }
}

/// What [`advance`] found after consuming the forced macro-step chain.
enum Advanced<M> {
    /// All instructions performed — the state denotes an outcome.
    Terminal,
    /// The single persistent transition is asleep: the whole continuation
    /// was already explored from a sibling. Prune.
    SleepBlocked,
    /// No forced transition; the enabled set must be enumerated.
    Branch { enabled: M },
}

/// Run the forced macro-step chain in place: while some enabled transition
/// is independent of every unperformed transition that could fire before
/// it, execute it alone (singleton persistent set) and filter the sleep
/// set. Applied transitions are recorded in `undo` (and `path` when the
/// caller wants a witness trace).
fn advance<M: Mask>(
    lay: &Layout<M>,
    st: &mut [u64],
    sleep: &mut M,
    undo: &mut Vec<(usize, (usize, u64))>,
    scr: &mut Scratch<M>,
) -> Advanced<M> {
    loop {
        let forced = {
            let done = &st[..lay.mask_words];
            if done == lay.all_mask.words() {
                return Advanced::Terminal;
            }
            let Scratch { undone, enabled } = scr;
            undone.assign_and_not(&lay.all_mask, done);
            enabled.clear_all();
            for g in undone.bits() {
                if lay.pred[g].subset_of_words(done) {
                    enabled.set(g);
                }
            }
            debug_assert!(
                enabled.words().iter().any(|&w| w != 0),
                "well-formed programs never deadlock"
            );
            let mut forced = None;
            for g in enabled.bits() {
                // Transitions that could fire while `g` stays unperformed:
                // everything unperformed except same-thread instructions
                // ordered after `g` (`conflict[g]` never contains `g`).
                if !lay.conflict[g].meets_and_not(undone, &lay.ordered_after[g]) {
                    forced = Some(g);
                    break;
                }
            }
            match forced {
                None => {
                    return Advanced::Branch {
                        enabled: enabled.clone(),
                    }
                }
                Some(g) => g,
            }
        };
        if sleep.get(forced) {
            return Advanced::SleepBlocked;
        }
        undo.push((forced, apply(lay, st, forced)));
        sleep.and_not_assign(&lay.conflict[forced]);
    }
}

/// One subtree root of the parallel frontier.
struct Task<M> {
    state: Vec<u64>,
    sleep: M,
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

/// One worker's walk over a set of subtrees: local outcome accumulation,
/// shared visited-set.
struct Walker<'a, M: Mask> {
    lay: &'a Layout<M>,
    seen: &'a SharedSeen,
    scratch: Scratch<M>,
    terminals: FxHashSet<Box<[u64]>>,
    stats: Stats,
}

impl<'a, M: Mask> Walker<'a, M> {
    fn new(lay: &'a Layout<M>, seen: &'a SharedSeen) -> Self {
        Walker {
            lay,
            seen,
            scratch: Scratch::new(lay.total()),
            terminals: FxHashSet::default(),
            stats: Stats::default(),
        }
    }

    /// Run the forced chain from `(st, sleep)`: record the terminal or
    /// the prune it ends in, or — at a branch state seen for the first
    /// time — hand every awake enabled transition's `(child state, child
    /// sleep set)` to `child`. `st` is restored before returning.
    fn expand(
        &mut self,
        st: &mut Vec<u64>,
        mut sleep: M,
        mut child: impl FnMut(&mut Self, &mut Vec<u64>, M),
    ) {
        let lay = self.lay;
        let mut undo = Vec::new();
        match advance(lay, st, &mut sleep, &mut undo, &mut self.scratch) {
            Advanced::Terminal => {
                self.terminals.insert(st[..].into());
            }
            Advanced::SleepBlocked => {
                self.stats.pruned += 1;
            }
            Advanced::Branch { enabled } => {
                if self.seen.insert(&branch_key(lay, st, &sleep)) {
                    self.stats.visited += 1;
                    for g in enabled.bits() {
                        if sleep.get(g) {
                            self.stats.pruned += 1;
                            continue;
                        }
                        let u = apply(lay, st, g);
                        let mut child_sleep = sleep.clone();
                        child_sleep.and_not_assign(&lay.conflict[g]);
                        child(self, st, child_sleep);
                        revert(st, g, u);
                        sleep.set(g);
                    }
                } else {
                    self.stats.pruned += 1;
                }
            }
        }
        for &(g, u) in undo.iter().rev() {
            revert(st, g, u);
        }
    }

    /// Depth-first exploration of the subtree rooted at `(st, sleep)`.
    fn walk(&mut self, st: &mut Vec<u64>, sleep: M) {
        self.expand(st, sleep, |w, st, child_sleep| w.walk(st, child_sleep));
    }
}

/// Explore `program` (whose [`Layout`] this is) and return the canonical
/// [`OutcomeSet`]. Serial DFS when `workers <= 1` or the program is below
/// [`PARALLEL_MIN_INSTRS`]; otherwise the frontier is expanded
/// breadth-first and drained on `workers` threads.
pub(crate) fn run<M: Mask>(lay: &Layout<M>, workers: usize) -> OutcomeSet {
    let total = lay.total();
    let seen = SharedSeen::new(total);
    let mut root = Walker::new(lay, &seen);
    let init = Task {
        state: lay.init.clone(),
        sleep: M::zeros(total),
    };

    if workers <= 1 || total < PARALLEL_MIN_INSTRS {
        let mut st = init.state;
        root.walk(&mut st, init.sleep);
    } else {
        // Breadth-first frontier expansion: pop a subtree root and queue
        // its children as new roots instead of descending into them —
        // exactly the serial walk, with scheduling (not search order)
        // changed.
        // Large programs get more, finer roots per worker: their subtrees
        // are deep and uneven, and a fatter frontier is what lets the
        // claim loop balance them.
        let target = workers * if total > 64 { 32 } else { 4 };
        let mut queue = VecDeque::from([init]);
        while queue.len() < target {
            let Some(Task { mut state, sleep }) = queue.pop_front() else {
                break;
            };
            root.expand(&mut state, sleep, |_, st, sleep| {
                queue.push_back(Task {
                    state: st.clone(),
                    sleep,
                });
            });
        }

        // Drain what is left of the frontier (nothing, when the expansion
        // already finished the search) on the claim loop; terminals are a
        // set union and the counters a sum, so worker order is immaterial.
        let roots: Vec<Task<M>> = queue.into();
        let walkers = claim_fold(
            &roots,
            workers,
            || Walker::new(lay, &seen),
            |w, _, task| w.walk(&mut task.state.clone(), task.sleep.clone()),
        );
        for w in walkers {
            root.terminals.extend(w.terminals);
            root.stats.visited += w.stats.visited;
            root.stats.pruned += w.stats.pruned;
        }
    }
    let (terminals, stats) = (root.terminals, root.stats);

    // Terminal outcomes, closed over the symmetry group: a quotient
    // terminal stands for its whole orbit, and every orbit member's
    // outcome is reachable in the full graph.
    let outcomes = match &lay.sym {
        Some(sym) => {
            let mut out = Vec::with_capacity(terminals.len() * sym.orbit);
            for t in &terminals {
                sym.expand_terminal(t, |img| out.push(lay.outcome_of(img)));
            }
            out
        }
        None => terminals.iter().map(|t| lay.outcome_of(t)).collect(),
    };

    let mut set = OutcomeSet {
        outcomes,
        // Forced macro-states and terminals are never materialized; the
        // count is branch states only, floored at 1 for the root.
        states_visited: stats.visited.max(1),
        states_pruned: stats.pruned,
        peak_frontier: 0,
    };
    set.canonicalize();
    set
}

/// Witness search on the engine: the same pruned DFS carrying the applied
/// transition order, returning the first complete execution whose outcome
/// satisfies `pred`. Sound because persistent+sleep search reaches every
/// terminal state: if any execution reaches a matching outcome, some
/// explored path reaches its terminal state. Deterministic: transitions
/// are always tried in `(thread, index)` order. The layout must have been
/// built without symmetry — a canonical-key skip could otherwise suppress
/// the only path whose step list matches the requested outcome's threads.
pub(crate) fn find_witness_dpor<M: Mask>(
    lay: &Layout<M>,
    pred: &dyn Fn(&Outcome) -> bool,
) -> Option<Witness> {
    debug_assert!(lay.sym.is_none(), "witness search must not quotient");
    let seen = SharedSeen::new(lay.total());
    let mut st = lay.init.clone();
    let mut path: Vec<WitnessStep> = Vec::new();
    let mut scratch = Scratch::new(lay.total());
    search(
        lay,
        &seen,
        &mut st,
        M::zeros(lay.total()),
        &mut path,
        pred,
        &mut scratch,
    )
}

/// Recursive step of [`find_witness_dpor`]; `st` and `path` are restored
/// before returning `None`.
#[allow(clippy::too_many_arguments)]
fn search<M: Mask>(
    lay: &Layout<M>,
    seen: &SharedSeen,
    st: &mut Vec<u64>,
    sleep: M,
    path: &mut Vec<WitnessStep>,
    pred: &dyn Fn(&Outcome) -> bool,
    scratch: &mut Scratch<M>,
) -> Option<Witness> {
    let mut sleep = sleep;
    let mut undo = Vec::new();
    let found = 'walk: {
        match advance(lay, st, &mut sleep, &mut undo, scratch) {
            Advanced::Terminal => {
                let outcome = lay.outcome_of(st);
                if pred(&outcome) {
                    let mut steps = path.clone();
                    steps.extend(undo.iter().map(|&(g, _)| WitnessStep {
                        tid: lay.tid[g],
                        idx: lay.idx[g],
                    }));
                    break 'walk Some(Witness { steps, outcome });
                }
                None
            }
            Advanced::SleepBlocked => None,
            Advanced::Branch { enabled } => {
                if !seen.insert(&branch_key(lay, st, &sleep)) {
                    break 'walk None;
                }
                path.extend(undo.iter().map(|&(g, _)| WitnessStep {
                    tid: lay.tid[g],
                    idx: lay.idx[g],
                }));
                let pushed = undo.len();
                let mut local_sleep = sleep;
                for g in enabled.bits() {
                    if local_sleep.get(g) {
                        continue;
                    }
                    let u = apply(lay, st, g);
                    path.push(WitnessStep {
                        tid: lay.tid[g],
                        idx: lay.idx[g],
                    });
                    let mut child_sleep = local_sleep.clone();
                    child_sleep.and_not_assign(&lay.conflict[g]);
                    if let Some(w) = search(lay, seen, st, child_sleep, path, pred, scratch) {
                        break 'walk Some(w);
                    }
                    path.pop();
                    revert(st, g, u);
                    local_sleep.set(g);
                }
                path.truncate(path.len() - pushed);
                None
            }
        }
    };
    if found.is_none() {
        for &(g, u) in undo.iter().rev() {
            revert(st, g, u);
        }
    }
    found
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
        run_program(p, model, workers, true)
    }

    #[test]
    fn width_dispatch_straddles_the_64_instruction_boundary() {
        let at = prog(vec![
            vec![Instr::store(0, 1); 32],
            vec![Instr::store(1, 1); 32],
        ]);
        assert!(matches!(
            layout(&at, MemoryModel::ArmWmm, true),
            EngineLayout::Narrow(_)
        ));
        let over = prog(vec![
            vec![Instr::store(0, 1); 33],
            vec![Instr::store(1, 1); 32],
        ]);
        assert!(matches!(
            layout(&over, MemoryModel::ArmWmm, true),
            EngineLayout::Wide(_)
        ));
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

    /// The `debug_assert!(bits <= 64)` in `mask.rs` vanishes in release
    /// builds, so layout selection at exactly 63/64/65 instructions is the
    /// only thing standing between a narrow layout and silent shift
    /// overflow. Pin the selection *and* engine==oracle equality at each
    /// boundary size.
    #[test]
    fn layout_boundary_63_64_65_matches_oracle() {
        for (total, narrow) in [(63, true), (64, true), (65, false)] {
            let p = boundary_program(total);
            assert_eq!(
                p.threads.iter().map(|t| t.instrs.len()).sum::<usize>(),
                total
            );
            let lay = layout(&p, MemoryModel::ArmWmm, true);
            assert_eq!(
                matches!(lay, EngineLayout::Narrow(_)),
                narrow,
                "wrong layout at {total} instructions"
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

    /// A writer plus three exactly-identical readers: the quotient must
    /// visit strictly fewer branch states while reporting exactly the
    /// full outcome set, serial or parallel.
    #[test]
    fn symmetry_quotient_preserves_outcomes_and_cuts_states() {
        let reader = vec![
            Instr::load(0, 1),
            Instr::Fence(Barrier::DmbLd),
            Instr::load(1, 0),
        ];
        let p = prog(vec![
            vec![
                Instr::store(0, 23),
                Instr::Fence(Barrier::DmbSt),
                Instr::store(1, 1),
            ],
            reader.clone(),
            reader.clone(),
            reader,
        ]);
        let full = run_program(&p, MemoryModel::ArmWmm, 1, false);
        let quotient = run_program(&p, MemoryModel::ArmWmm, 1, true);
        assert_eq!(full.outcomes, quotient.outcomes, "orbit closure is exact");
        assert!(
            quotient.states_visited < full.states_visited,
            "quotient {} vs full {}",
            quotient.states_visited,
            full.states_visited
        );
        let par = run_program(&p, MemoryModel::ArmWmm, 4, true);
        assert_eq!(quotient, par, "canonical keys stay schedule-independent");
    }

    /// Symmetry with private spin locations: contenders that are
    /// identical only up to renaming their own queue node.
    #[test]
    fn symmetry_handles_private_location_renaming() {
        let contender = |node: u8| {
            vec![
                Instr::store(node, 1),
                Instr::load(0, 9),
                Instr::load(1, node),
            ]
        };
        let p = prog(vec![
            vec![Instr::store(9, 7)],
            contender(10),
            contender(11),
            contender(12),
        ]);
        let full = run_program(&p, MemoryModel::ArmWmm, 1, false);
        let quotient = run_program(&p, MemoryModel::ArmWmm, 1, true);
        assert_eq!(full.outcomes, quotient.outcomes);
        assert!(quotient.states_visited <= full.states_visited);
    }

    /// Mirror-symmetric litmus shapes (SB) rename *shared* locations, so
    /// they must not be quotiented: state counts match the
    /// symmetry-disabled engine exactly.
    #[test]
    fn shared_location_mirrors_are_not_quotiented() {
        let p = prog(vec![
            vec![Instr::store(0, 1), Instr::load(0, 1)],
            vec![Instr::store(1, 1), Instr::load(0, 0)],
        ]);
        let with = run_program(&p, MemoryModel::ArmWmm, 1, true);
        let without = run_program(&p, MemoryModel::ArmWmm, 1, false);
        assert_eq!(with, without);
    }
}
