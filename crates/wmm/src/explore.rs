//! The exhaustive explorer: public API, memo cache, and the enumerative
//! oracle.
//!
//! A state is: per thread, the set of already-performed instructions (a
//! bitmask — reordering means it is a set, not a prefix) and its register
//! file; globally, the memory image. From each state, every *enabled*
//! instruction of every thread is a transition: instruction `j` is enabled
//! when all of its ordered predecessors (per
//! [`MemoryModel::ordered`]) have performed. Performing is atomic against
//! memory (multi-copy atomicity).
//!
//! Two implementations compute the exact set of final [`Outcome`]s:
//!
//! * [`explore`] runs the packed-state sleep-set DPOR
//!   engine ([`crate::engine`]) behind an in-process memo cache keyed by
//!   `(program, model)` — `analyze::lint` re-explores identical cut
//!   programs across redundancy/necessity checks and whole experiment
//!   batteries revisit the same litmus shapes. The cache is always on
//!   ([`explore_dpor_uncached`] is the cold path) and hands out shared
//!   `Arc<OutcomeSet>`s, so neither a hit nor an insert copies a set, and
//!   content-equal sets share one outcome list; [`explore_memo_stats`]
//!   reports hits/misses and [`explore_memo_footprint`] what is held.
//! * [`explore_oracle`] enumerates every interleaving by naive cloning
//!   DFS. It survives purely as the differential reference the engine is
//!   tested against — the engine itself has no size ceiling anymore
//!   (multi-word packed states kick in past 64 total instructions), so
//!   nothing in the production path falls back here.

use std::cmp::Ordering as Cmp;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use armbar_fxhash::{FxHashMap, FxHashSet};

use crate::engine;
use crate::model::{Instr, MemoryModel, Program, Src};

/// A final state: every thread's register file plus the memory image.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Outcome {
    /// `regs[t]` = sorted `(reg, value)` pairs of thread `t`.
    pub regs: Vec<Vec<(u8, u64)>>,
    /// Sorted `(loc, value)` pairs of every written location.
    pub memory: Vec<(u8, u64)>,
}

impl Outcome {
    /// Value of a register of a thread (0 if the register was never written).
    #[must_use]
    pub fn reg(&self, thread: usize, reg: u8) -> u64 {
        self.regs
            .get(thread)
            .and_then(|rs| rs.iter().find(|(r, _)| *r == reg))
            .map_or(0, |&(_, v)| v)
    }

    /// Final value of a location (0 if never written).
    #[must_use]
    pub fn mem(&self, loc: u8) -> u64 {
        self.memory
            .iter()
            .find(|(l, _)| *l == loc)
            .map_or(0, |&(_, v)| v)
    }
}

/// The set of reachable outcomes of a program under a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutcomeSet {
    /// All distinct final outcomes, sorted for deterministic display. The
    /// memo shares one list between every content-equal set it holds.
    pub outcomes: Arc<[Outcome]>,
    /// States the exploration materialized. For the oracle this is every
    /// distinct reachable state; for the DPOR engine it is the branch
    /// states inserted into the visited-set (forced macro-steps and
    /// terminals are never materialized), floored at 1 for the root.
    /// Deterministic per `(program, model)` — independent of hasher and
    /// worker count.
    pub states_visited: usize,
    /// Subtrees the exploration provably skipped: duplicate successors
    /// (oracle) or sleep-set skips + sleep-blocked chains + visited-set
    /// hits (engine). Deterministic like `states_visited`.
    pub states_pruned: usize,
    /// Peak size of the oracle's pending-state stack (its memory
    /// high-water mark). The DPOR engine reports 0: its frontier is the
    /// DFS spine, O(program length) by construction.
    pub peak_frontier: usize,
}

impl OutcomeSet {
    /// Does any reachable outcome satisfy `pred`?
    #[must_use]
    pub fn any(&self, pred: impl Fn(&Outcome) -> bool) -> bool {
        self.outcomes.iter().any(pred)
    }

    /// Do all reachable outcomes satisfy `pred`?
    #[must_use]
    pub fn all(&self, pred: impl Fn(&Outcome) -> bool) -> bool {
        self.outcomes.iter().all(pred)
    }

    /// Iterate the outcomes in *canonical* order: sorted by [`Outcome`]'s
    /// derived `Ord`, with no duplicates. This ordering is a stable public
    /// contract — lint reports and CSVs serialize outcomes in iteration
    /// order and must be byte-identical across worker counts, hashers, and
    /// reruns, and [`diff`](Self::diff) merges over it
    /// ([`canonicalize`](Self::canonicalize) enforces it).
    pub fn iter(&self) -> std::slice::Iter<'_, Outcome> {
        self.outcomes.iter()
    }

    /// Number of distinct outcomes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// True when no outcome is reachable (impossible for a well-formed
    /// program, but keeps clippy's `len_without_is_empty` honest).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Restore the canonical sorted + deduplicated order. [`explore`]
    /// always returns canonical sets; call this after constructing an
    /// `OutcomeSet` by hand — [`diff`](Self::diff) relies on it.
    pub fn canonicalize(&mut self) {
        let mut outcomes = self.outcomes.to_vec();
        outcomes.sort();
        outcomes.dedup();
        self.outcomes = outcomes.into();
    }

    /// Is the set in canonical (strictly ascending) order?
    pub(crate) fn is_canonical(&self) -> bool {
        self.outcomes.windows(2).all(|w| w[0] < w[1])
    }

    /// Set difference against `other` in both directions.
    ///
    /// `added` holds outcomes reachable in `other` but not in `self`;
    /// `removed` holds outcomes reachable in `self` but not in `other`.
    /// Both sides are in canonical order, so a diff renders identically
    /// on every run. Two sets are outcome-equivalent iff both sides are
    /// empty (`states_visited` is diagnostic only and never compared).
    ///
    /// One linear merge over the canonical order of both sets, cloning
    /// only the outcomes that differ; both sets must be canonical
    /// (checked in debug builds).
    #[must_use]
    pub fn diff(&self, other: &OutcomeSet) -> OutcomeDiff {
        debug_assert!(
            self.is_canonical() && other.is_canonical(),
            "diff merges over the canonical order: canonicalize hand-built sets first"
        );
        let mut diff = OutcomeDiff::default();
        let (mut mine, mut theirs) = (&self.outcomes[..], &other.outcomes[..]);
        while let (Some((a, rest_a)), Some((b, rest_b))) =
            (mine.split_first(), theirs.split_first())
        {
            match a.cmp(b) {
                Cmp::Less => {
                    diff.removed.push(a.clone());
                    mine = rest_a;
                }
                Cmp::Greater => {
                    diff.added.push(b.clone());
                    theirs = rest_b;
                }
                Cmp::Equal => (mine, theirs) = (rest_a, rest_b),
            }
        }
        diff.removed.extend_from_slice(mine);
        diff.added.extend_from_slice(theirs);
        diff
    }

    /// [`diff`](Self::diff) by its definition — two hash sets and a filter
    /// each way, no assumption about order: what the merge is tested
    /// against.
    #[cfg(test)]
    fn diff_reference(&self, other: &OutcomeSet) -> OutcomeDiff {
        use std::collections::HashSet;
        let mine: HashSet<&Outcome> = self.outcomes.iter().collect();
        let theirs: HashSet<&Outcome> = other.outcomes.iter().collect();
        OutcomeDiff {
            added: other
                .outcomes
                .iter()
                .filter(|o| !mine.contains(o))
                .cloned()
                .collect(),
            removed: self
                .outcomes
                .iter()
                .filter(|o| !theirs.contains(o))
                .cloned()
                .collect(),
        }
    }
}

impl<'a> IntoIterator for &'a OutcomeSet {
    type Item = &'a Outcome;
    type IntoIter = std::slice::Iter<'a, Outcome>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The two-sided difference of a pair of [`OutcomeSet`]s
/// (see [`OutcomeSet::diff`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutcomeDiff {
    /// Outcomes the second set reaches that the first does not.
    pub added: Vec<Outcome>,
    /// Outcomes the first set reaches that the second does not.
    pub removed: Vec<Outcome>,
}

impl OutcomeDiff {
    /// True when the two sets hold exactly the same outcomes.
    #[must_use]
    pub fn is_equal(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    /// Performed-instruction bitmask per thread.
    done: Vec<u64>,
    /// Register files (sparse, sorted).
    regs: Vec<BTreeMap<u8, u64>>,
    /// Memory image (sparse, sorted).
    memory: BTreeMap<u8, u64>,
}

/// The shared memo cache: canonical outcome sets keyed by the full
/// `(program, model)` pair. The map is keyed by a 64-bit FxHash *prehash*
/// of that pair so a lookup never has to clone the program just to build a
/// key (synthesis probes this cache thousands of times per case); each
/// bucket stores the exact programs for an `Eq` check, so a hash collision
/// can never alias two programs — it only shares a bucket. Sets are held
/// and handed out as `Arc`s: a hit is a reference-count bump. Programs
/// that differ often reach the same outcomes (a fence synthesis weakens
/// without effect), so every stored set's outcome list is interned by
/// content: content-equal sets share one list and keep their own counts.
struct Memo {
    map: FxHashMap<MemoKey, Vec<(Program, Arc<OutcomeSet>)>>,
    /// The distinct outcome lists the stored sets share, by content hash;
    /// a bucket holds exact lists, so a collision only shares a bucket.
    lists: FxHashMap<u64, Vec<Arc<[Outcome]>>>,
    /// Outcomes the distinct lists hold between them — what the memory
    /// the memo retains is proportional to.
    retained: usize,
    /// A set whose list is new and would take `retained` past this is not
    /// stored.
    cap: usize,
}

/// A memo key: the prehash of `(program, model)`, and the model.
type MemoKey = (u64, MemoryModel);

/// Retained-outcome bound of the process-wide memo, counted over distinct
/// lists (runaway-corpus backstop: the lint + synth corpus retains ~14 k
/// outcomes in the 33 lists its 218 entries share, and the densest sets
/// cost ~640 bytes an outcome, so this is ~0.3 GB at worst).
const MEMO_CAP: usize = 1 << 19;

/// What the process-wide memo holds (see [`explore_memo_footprint`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoFootprint {
    /// Stored `(program, model)` entries.
    pub entries: usize,
    /// Distinct outcome lists the entries share.
    pub distinct_sets: usize,
    /// Outcomes in the distinct lists — what the memo's cap bounds.
    pub retained_outcomes: usize,
}

impl Memo {
    fn with_cap(cap: usize) -> Self {
        Memo {
            map: FxHashMap::default(),
            lists: FxHashMap::default(),
            retained: 0,
            cap,
        }
    }

    fn get(&self, key: MemoKey, program: &Program) -> Option<Arc<OutcomeSet>> {
        let bucket = self.map.get(&key)?;
        let (_, set) = bucket.iter().find(|(p, _)| p == program)?;
        Some(Arc::clone(set))
    }

    /// Store `set` for `program` and return it, its outcome list now the
    /// one every content-equal stored set shares. A program already stored
    /// (a racing explorer got in first) keeps its set, and one whose new
    /// list would take the memo past its cap is returned unstored.
    fn insert(&mut self, key: MemoKey, program: &Program, mut set: OutcomeSet) -> Arc<OutcomeSet> {
        if let Some(stored) = self.get(key, program) {
            return stored;
        }
        let hash = armbar_fxhash::hash64(&set.outcomes);
        let lists = self.lists.entry(hash).or_default();
        if let Some(list) = lists.iter().find(|&list| *list == set.outcomes) {
            set.outcomes = Arc::clone(list);
        } else if self.retained + set.len() <= self.cap {
            self.retained += set.len();
            lists.push(Arc::clone(&set.outcomes));
        } else {
            return Arc::new(set);
        }
        let set = Arc::new(set);
        let entry = (program.clone(), Arc::clone(&set));
        self.map.entry(key).or_default().push(entry);
        set
    }

    fn footprint(&self) -> MemoFootprint {
        MemoFootprint {
            entries: self.map.values().map(Vec::len).sum(),
            distinct_sets: self.lists.values().map(Vec::len).sum(),
            retained_outcomes: self.retained,
        }
    }
}

/// FxHash prehash of a memo key, computed from borrowed data.
fn memo_prehash(program: &Program, model: MemoryModel) -> u64 {
    armbar_fxhash::hash64(&(program, model))
}

static MEMO: OnceLock<Mutex<Memo>> = OnceLock::new();
static MEMO_HITS: AtomicU64 = AtomicU64::new(0);
static MEMO_MISSES: AtomicU64 = AtomicU64::new(0);

/// Memo cache counters since process start: `(hits, misses)`.
#[must_use]
pub fn explore_memo_stats() -> (u64, u64) {
    (
        MEMO_HITS.load(Ordering::Relaxed),
        MEMO_MISSES.load(Ordering::Relaxed),
    )
}

/// What the memo holds now: entries, the distinct outcome lists they
/// share, and the outcomes those lists retain.
#[must_use]
pub fn explore_memo_footprint() -> MemoFootprint {
    MEMO.get().map_or_else(MemoFootprint::default, |memo| {
        memo.lock().expect("explore memo poisoned").footprint()
    })
}

/// Drop every memoized outcome set and shared outcome list and reset the
/// counters (benchmarks use this to measure cold explorations).
pub fn explore_memo_clear() {
    if let Some(memo) = MEMO.get() {
        *memo.lock().expect("explore memo poisoned") = Memo::with_cap(MEMO_CAP);
    }
    MEMO_HITS.store(0, Ordering::Relaxed);
    MEMO_MISSES.store(0, Ordering::Relaxed);
}

fn memoized(
    program: &Program,
    model: MemoryModel,
    compute: impl FnOnce() -> OutcomeSet,
) -> Arc<OutcomeSet> {
    let memo = MEMO.get_or_init(|| Mutex::new(Memo::with_cap(MEMO_CAP)));
    let key = (memo_prehash(program, model), model);
    if let Some(set) = memo
        .lock()
        .expect("explore memo poisoned")
        .get(key, program)
    {
        MEMO_HITS.fetch_add(1, Ordering::Relaxed);
        return set;
    }
    MEMO_MISSES.fetch_add(1, Ordering::Relaxed);
    let set = compute();
    memo.lock()
        .expect("explore memo poisoned")
        .insert(key, program, set)
}

/// Exhaustively explore `program` under `model`.
///
/// Runs the packed-state DPOR engine (serial) behind the process-wide
/// memo cache, at any program size. The returned set is canonical and
/// byte-identical across hashers, worker counts, and reruns; it is shared
/// with the memo (and every other caller asking about the same program),
/// not copied.
#[must_use]
pub fn explore(program: &Program, model: MemoryModel) -> Arc<OutcomeSet> {
    memoized(program, model, || explore_dpor_uncached(program, model, 1))
}

/// The DPOR engine without the memo cache (benchmarks and differential
/// tests measure cold explorations through this). No size ceiling, no
/// oracle fallback.
#[must_use]
pub fn explore_dpor_uncached(program: &Program, model: MemoryModel, workers: usize) -> OutcomeSet {
    engine::run_program(program, model, workers)
}

/// The enumerative oracle: clone-per-transition DFS over every
/// interleaving, FxHash visited-set. Slow but independent of the DPOR
/// machinery — differential tests compare the engine against it.
#[must_use]
pub fn explore_oracle(program: &Program, model: MemoryModel) -> OutcomeSet {
    for t in &program.threads {
        assert!(
            t.instrs.len() <= 64,
            "litmus threads are limited to 64 instructions"
        );
    }
    let init_mem: BTreeMap<u8, u64> = program.init.iter().copied().collect();
    let start = State {
        done: vec![0; program.threads.len()],
        regs: vec![BTreeMap::new(); program.threads.len()],
        memory: init_mem,
    };

    // The visited-set is the oracle's hottest structure: every DFS step
    // hashes a full `State`. States are never adversarial, so the unkeyed
    // FxHash scheme replaces SipHash here.
    let mut seen: FxHashSet<State> = FxHashSet::default();
    let mut outcomes: FxHashSet<Outcome> = FxHashSet::default();
    // Successors are deduplicated at *push* time: the stack only ever holds
    // states that are in `seen` and not yet expanded, so its peak length is
    // bounded by the number of distinct states instead of the number of
    // edges (the old per-edge clones blew the stack up by the graph's mean
    // in-degree).
    let mut pruned = 0usize;
    let mut peak = 1usize;
    seen.insert(start.clone());
    let mut stack = vec![start];

    while let Some(state) = stack.pop() {
        let mut terminal = true;
        for (tid, thread) in program.threads.iter().enumerate() {
            for j in 0..thread.instrs.len() {
                if state.done[tid] & (1 << j) != 0 {
                    continue;
                }
                // Enabled iff every ordered predecessor has performed.
                let enabled =
                    (0..j).all(|i| state.done[tid] & (1 << i) != 0 || !model.ordered(thread, i, j));
                if !enabled {
                    continue;
                }
                terminal = false;
                let mut next = state.clone();
                next.done[tid] |= 1 << j;
                match &thread.instrs[j] {
                    Instr::Load { reg, loc, .. } => {
                        let v = *next.memory.get(loc).unwrap_or(&0);
                        next.regs[tid].insert(*reg, v);
                    }
                    Instr::Store { loc, src, .. } => {
                        let v = match src {
                            Src::Const(v) | Src::DepConst { value: v, .. } => *v,
                            Src::Reg(r) => *next.regs[tid].get(r).unwrap_or(&0),
                        };
                        next.memory.insert(*loc, v);
                    }
                    Instr::Fence(_) => {}
                }
                if seen.contains(&next) {
                    pruned += 1;
                } else {
                    seen.insert(next.clone());
                    stack.push(next);
                }
            }
        }
        peak = peak.max(stack.len());
        if terminal {
            outcomes.insert(Outcome {
                regs: state
                    .regs
                    .iter()
                    .map(|m| m.iter().map(|(&r, &v)| (r, v)).collect())
                    .collect(),
                memory: state.memory.iter().map(|(&l, &v)| (l, v)).collect(),
            });
        }
    }

    let mut set = OutcomeSet {
        outcomes: outcomes.into_iter().collect(),
        states_visited: seen.len(),
        states_pruned: pruned,
        peak_frontier: peak,
    };
    set.canonicalize();
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Thread;
    use armbar_barriers::Barrier;
    use proptest::prelude::*;

    fn prog(threads: Vec<Vec<Instr>>) -> Program {
        Program {
            threads: threads
                .into_iter()
                .map(|instrs| Thread { instrs })
                .collect(),
            init: vec![],
        }
    }

    #[test]
    fn single_thread_sequential_result() {
        let p = prog(vec![vec![Instr::store(0, 1), Instr::load(0, 0)]]);
        // Same location: ordered; load must see 1.
        let out = explore(&p, MemoryModel::ArmWmm);
        assert!(out.all(|o| o.reg(0, 0) == 1));
    }

    #[test]
    fn store_buffering_allowed_everywhere_except_sc() {
        // SB: T0: x=1; r0=y.  T1: y=1; r0=x.  r0==0 && r0==0 is the TSO
        // (and WMM) relaxed outcome; SC forbids it.
        let p = prog(vec![
            vec![Instr::store(0, 1), Instr::load(0, 1)],
            vec![Instr::store(1, 1), Instr::load(0, 0)],
        ]);
        let bad = |o: &Outcome| o.reg(0, 0) == 0 && o.reg(1, 0) == 0;
        assert!(explore(&p, MemoryModel::ArmWmm).any(bad));
        assert!(explore(&p, MemoryModel::X86Tso).any(bad));
        assert!(!explore(&p, MemoryModel::Sc).any(bad));
    }

    #[test]
    fn sb_with_full_barriers_forbidden() {
        let p = prog(vec![
            vec![
                Instr::store(0, 1),
                Instr::Fence(Barrier::DmbFull),
                Instr::load(0, 1),
            ],
            vec![
                Instr::store(1, 1),
                Instr::Fence(Barrier::DmbFull),
                Instr::load(0, 0),
            ],
        ]);
        let bad = |o: &Outcome| o.reg(0, 0) == 0 && o.reg(1, 0) == 0;
        assert!(!explore(&p, MemoryModel::ArmWmm).any(bad));
    }

    #[test]
    fn message_passing_relaxed_only_under_wmm() {
        // MP: T0: data=23; flag=1.  T1: r0=flag; r1=data.
        let p = prog(vec![
            vec![Instr::store(0, 23), Instr::store(1, 1)],
            vec![Instr::load(0, 1), Instr::load(1, 0)],
        ]);
        let bad = |o: &Outcome| o.reg(1, 0) == 1 && o.reg(1, 1) != 23;
        assert!(explore(&p, MemoryModel::ArmWmm).any(bad), "WMM allows");
        assert!(!explore(&p, MemoryModel::X86Tso).any(bad), "TSO forbids");
        assert!(!explore(&p, MemoryModel::Sc).any(bad));
    }

    #[test]
    fn load_buffering_relaxed_under_wmm_only() {
        // LB: T0: r0=x; y=1.  T1: r0=y; x=1.  Both reads 1 is WMM-only.
        let p = prog(vec![
            vec![Instr::load(0, 0), Instr::store(1, 1)],
            vec![Instr::load(0, 1), Instr::store(0, 1)],
        ]);
        let bad = |o: &Outcome| o.reg(0, 0) == 1 && o.reg(1, 0) == 1;
        assert!(explore(&p, MemoryModel::ArmWmm).any(bad));
        assert!(!explore(&p, MemoryModel::X86Tso).any(bad));
    }

    #[test]
    fn lb_with_data_deps_forbidden() {
        let p = prog(vec![
            vec![Instr::load(0, 0), Instr::store_data_dep(1, 1, 0)],
            vec![Instr::load(0, 1), Instr::store_data_dep(0, 1, 0)],
        ]);
        let bad = |o: &Outcome| o.reg(0, 0) == 1 && o.reg(1, 0) == 1;
        assert!(!explore(&p, MemoryModel::ArmWmm).any(bad));
    }

    #[test]
    fn outcome_helpers_default_to_zero() {
        let p = prog(vec![vec![Instr::store(3, 9)]]);
        let out = explore(&p, MemoryModel::Sc);
        assert_eq!(out.outcomes.len(), 1);
        assert_eq!(out.outcomes[0].mem(3), 9);
        assert_eq!(out.outcomes[0].mem(7), 0);
        assert_eq!(out.outcomes[0].reg(0, 0), 0);
    }

    #[test]
    fn init_values_are_respected() {
        let p = Program {
            threads: vec![Thread {
                instrs: vec![Instr::load(0, 5)],
            }],
            init: vec![(5, 77)],
        };
        let out = explore(&p, MemoryModel::ArmWmm);
        assert!(out.all(|o| o.reg(0, 0) == 77));
    }

    #[test]
    fn exploration_is_deterministic() {
        let p = prog(vec![
            vec![Instr::store(0, 1), Instr::store(1, 2), Instr::load(0, 2)],
            vec![Instr::store(2, 3), Instr::load(0, 0), Instr::load(1, 1)],
        ]);
        let a = explore(&p, MemoryModel::ArmWmm);
        let b = explore(&p, MemoryModel::ArmWmm);
        assert_eq!(a.outcomes, b.outcomes);
    }

    /// Regression lock for the canonical-iteration contract that lint
    /// diffing and `lint.csv` byte-stability depend on: iteration order is
    /// sorted, duplicate-free, and the oracle's and the engine's alike.
    #[test]
    fn iteration_order_is_canonical() {
        let p = prog(vec![
            vec![Instr::store(0, 1), Instr::load(0, 1), Instr::store(2, 5)],
            vec![Instr::store(1, 1), Instr::load(0, 0), Instr::load(1, 2)],
        ]);
        let fx = explore(&p, MemoryModel::ArmWmm);
        let oracle = explore_oracle(&p, MemoryModel::ArmWmm);
        assert_eq!(fx.outcomes, oracle.outcomes, "engine diverged from oracle");
        let listed: Vec<&Outcome> = fx.iter().collect();
        let mut resorted = listed.clone();
        resorted.sort();
        assert_eq!(listed, resorted, "iteration order must be sorted");
        resorted.dedup();
        assert_eq!(listed.len(), resorted.len(), "no duplicates");
        assert_eq!(fx.len(), listed.len());
        assert!(!fx.is_empty());
    }

    #[test]
    fn canonicalize_sorts_and_dedups_handmade_sets() {
        let o1 = Outcome {
            regs: vec![vec![(0, 2)]],
            memory: vec![],
        };
        let o0 = Outcome {
            regs: vec![vec![(0, 1)]],
            memory: vec![],
        };
        let mut set = handmade(vec![o1.clone(), o0.clone(), o1.clone()]);
        set.canonicalize();
        assert_eq!(*set.outcomes, [o0, o1]);
    }

    /// Regression lock for the duplicate-successor fix: the oracle's stack
    /// holds only unexpanded *distinct* states, so its peak can never
    /// exceed the distinct-state count. Before the push-time seen-check, a
    /// 6-dimensional hypercube of independent stores (64 states, 192
    /// edges) kept duplicate full-state clones on the stack and the peak
    /// overshot that bound.
    #[test]
    fn oracle_peak_stack_is_bounded_by_distinct_states() {
        let p = prog(vec![
            vec![Instr::store(0, 1), Instr::store(1, 1), Instr::store(2, 1)],
            vec![Instr::store(3, 1), Instr::store(4, 1), Instr::store(5, 1)],
        ]);
        let out = explore_oracle(&p, MemoryModel::ArmWmm);
        assert_eq!(out.states_visited, 64, "6-cube of independent stores");
        assert!(
            out.peak_frontier <= out.states_visited,
            "peak {} exceeds distinct states {}",
            out.peak_frontier,
            out.states_visited
        );
        assert!(out.states_pruned > 0, "the cube has duplicate successors");
    }

    /// The DPOR engine must agree with the oracle on outcomes while doing
    /// strictly less work on reduction-friendly programs.
    #[test]
    fn engine_matches_oracle_and_prunes() {
        let p = prog(vec![
            vec![
                Instr::store(0, 23),
                Instr::Fence(Barrier::DmbSt),
                Instr::store(1, 1),
            ],
            vec![
                Instr::load(0, 1),
                Instr::Fence(Barrier::DmbLd),
                Instr::load(1, 0),
            ],
        ]);
        for model in MemoryModel::ALL {
            let engine = explore_dpor_uncached(&p, model, 1);
            let oracle = explore_oracle(&p, model);
            assert_eq!(engine.outcomes, oracle.outcomes, "{model:?}");
            assert!(
                engine.states_visited < oracle.states_visited,
                "{model:?}: engine {} vs oracle {}",
                engine.states_visited,
                oracle.states_visited
            );
        }
    }

    #[test]
    fn memo_serves_repeat_explorations() {
        let p = prog(vec![
            vec![Instr::store(0, 1), Instr::store(1, 1)],
            vec![Instr::load(0, 1), Instr::load(1, 0)],
        ]);
        let first = explore(&p, MemoryModel::ArmWmm);
        let (hits_before, _) = explore_memo_stats();
        let second = explore(&p, MemoryModel::ArmWmm);
        let third = explore_dpor_uncached(&p, MemoryModel::ArmWmm, 4);
        let (hits_after, _) = explore_memo_stats();
        assert_eq!(first, second);
        assert!(Arc::ptr_eq(&first, &second), "a hit shares the stored set");
        assert_eq!(
            *first, third,
            "the cold parallel path returns the same bytes"
        );
        assert!(hits_after > hits_before, "repeat explorations hit");
    }

    #[test]
    fn diff_reports_both_directions() {
        // MP without barriers vs MP with both barriers: the relaxed
        // outcome appears only on the weak side.
        let weak = prog(vec![
            vec![Instr::store(0, 23), Instr::store(1, 1)],
            vec![Instr::load(0, 1), Instr::load(1, 0)],
        ]);
        let strong = prog(vec![
            vec![
                Instr::store(0, 23),
                Instr::Fence(Barrier::DmbSt),
                Instr::store(1, 1),
            ],
            vec![
                Instr::load(0, 1),
                Instr::Fence(Barrier::DmbLd),
                Instr::load(1, 0),
            ],
        ]);
        let w = explore(&weak, MemoryModel::ArmWmm);
        let s = explore(&strong, MemoryModel::ArmWmm);
        let d = s.diff(&w);
        assert!(!d.is_equal());
        assert!(
            d.removed.is_empty(),
            "weak side reaches all strong outcomes"
        );
        assert!(d
            .added
            .iter()
            .any(|o| o.reg(1, 0) == 1 && o.reg(1, 1) != 23));
        // Reflexive diff is empty; reverse diff swaps the sides.
        assert!(w.diff(&w).is_equal());
        let rev = w.diff(&s);
        assert_eq!(rev.removed, d.added);
        assert!(rev.added.is_empty());
    }

    fn handmade(outcomes: Vec<Outcome>) -> OutcomeSet {
        OutcomeSet {
            outcomes: outcomes.into(),
            states_visited: 0,
            states_pruned: 0,
            peak_frontier: 0,
        }
    }

    /// Random canonical sets over a value range narrow enough that two of
    /// them share, miss and interleave outcomes in one draw.
    fn gen_set() -> impl Strategy<Value = OutcomeSet> {
        let outcome = (0u64..3, 0u64..3, 0u64..2).prop_map(|(a, b, m)| Outcome {
            regs: vec![vec![(0, a)], vec![(0, b), (1, a ^ b)]],
            memory: vec![(0, m)],
        });
        prop::collection::vec(outcome, 0..16).prop_map(|outcomes| {
            let mut set = handmade(outcomes);
            set.canonicalize();
            set
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The merge against the definition it replaced: same outcomes on
        /// each side, in the same order (`added[0]` picks lint's kill
        /// witness).
        #[test]
        fn merge_diff_equals_its_definition(a in gen_set(), b in gen_set()) {
            prop_assert_eq!(a.diff(&b), a.diff_reference(&b));
        }
    }

    /// The same check on explored sets: every battery program against each
    /// of its single-site mutants — the pairs lint forms.
    #[test]
    fn merge_diff_equals_its_definition_on_mutants() {
        use crate::mutate::{barrier_sites, remove_site};
        let mut unequal = 0;
        for (test, _) in crate::battery::battery() {
            let base = explore(&test.program, MemoryModel::ArmWmm);
            for site in barrier_sites(&test.program) {
                let cut = explore(&remove_site(&test.program, site), MemoryModel::ArmWmm);
                let diff = base.diff(&cut);
                assert_eq!(diff, base.diff_reference(&cut), "{} {site:?}", test.name);
                assert_eq!(cut.diff(&base), cut.diff_reference(&base));
                unequal += usize::from(!diff.is_equal());
            }
        }
        assert!(unequal > 0, "some removal must change an outcome set");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "canonical order")]
    fn diff_rejects_an_uncanonicalized_set() {
        let o = |v| Outcome {
            regs: vec![vec![(0, v)]],
            memory: vec![],
        };
        let unsorted = handmade(vec![o(2), o(1)]);
        let _ = handmade(vec![o(1)]).diff(&unsorted);
    }

    /// The memo's backstop counts what its memory is proportional to —
    /// distinct outcomes retained — not map buckets or entries: a set
    /// equal to a stored one costs nothing, a new one that would cross the
    /// cap is not stored, and smaller ones still are.
    #[test]
    fn memo_is_bounded_by_retained_outcomes() {
        let model = MemoryModel::ArmWmm;
        let programs: Vec<Program> = (1..=4)
            .map(|v| prog(vec![vec![Instr::store(0, v)]]))
            .collect();
        let key = |p: &Program| (memo_prehash(p, model), model);
        let set = |n: u64, states: usize| {
            let outcomes = (0..n).map(|v| Outcome {
                regs: vec![],
                memory: vec![(0, v)],
            });
            OutcomeSet {
                states_visited: states,
                ..handmade(outcomes.collect())
            }
        };
        let mut memo = Memo::with_cap(3);
        let first = memo.insert(key(&programs[0]), &programs[0], set(2, 1));
        let equal = memo.insert(key(&programs[1]), &programs[1], set(2, 7));
        assert!(Arc::ptr_eq(&first.outcomes, &equal.outcomes));
        assert_eq!(equal.states_visited, 7, "an entry keeps its own counts");
        assert_eq!(memo.retained, 2, "an equal set retains nothing new");
        memo.insert(key(&programs[2]), &programs[2], set(3, 1));
        assert_eq!(memo.retained, 2, "the third set would retain 5 > 3");
        assert!(memo.get(key(&programs[2]), &programs[2]).is_none());
        memo.insert(key(&programs[3]), &programs[3], set(1, 1));
        assert_eq!(memo.retained, 3);
        assert_eq!(memo.get(key(&programs[3]), &programs[3]).unwrap().len(), 1);
        // Re-inserting a stored program neither duplicates nor recounts it.
        let again = memo.insert(key(&programs[3]), &programs[3], set(0, 1));
        assert_eq!((memo.retained, again.len()), (3, 1));
        let footprint = memo.footprint();
        assert_eq!((footprint.entries, footprint.distinct_sets), (3, 2));
        assert_eq!(footprint.retained_outcomes, 3);
    }

    /// `explore` hands two programs that reach the same outcomes one shared
    /// outcome list, each behind its own state counts: a consumer-side
    /// `DMB ld` that changes nothing MP without a producer fence can reach.
    #[test]
    fn content_equal_sets_share_one_outcome_list() {
        let producer = vec![Instr::store(0, 23), Instr::store(1, 1)];
        let fenced = prog(vec![
            producer.clone(),
            vec![
                Instr::load(0, 1),
                Instr::Fence(Barrier::DmbLd),
                Instr::load(1, 0),
            ],
        ]);
        let bare = prog(vec![producer, vec![Instr::load(0, 1), Instr::load(1, 0)]]);
        let (a, b) = (
            explore(&fenced, MemoryModel::ArmWmm),
            explore(&bare, MemoryModel::ArmWmm),
        );
        assert!(Arc::ptr_eq(&a.outcomes, &b.outcomes));
        assert_ne!(a.states_visited, b.states_visited);
    }
}
