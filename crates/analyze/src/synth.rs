//! Whole-program barrier-placement synthesis.
//!
//! `armbar lint` judges each site in isolation; this module searches the
//! *joint* rewrite space — every combination of fence swaps,
//! acquire/release attachment, constructed `addr`/`data`/`ctrl`
//! dependencies, `LDAR`→`LDAPR` downgrades, and outright removals over all
//! sites at once — for the cheapest placement that provably preserves the
//! program's outcome set. Joint search matters because sites interact:
//! two fences can each be individually necessary yet jointly replaceable
//! by one dependency chain, and a removal that is safe alone can become
//! unsafe once a neighbouring fence has been weakened.
//!
//! # Search
//!
//! Branch-and-bound over one decision per site (its *options*, see below),
//! ordered cheapest-first by [`CostRank`]:
//!
//! 1. **Options.** For every site of the seed program, each candidate
//!    rewrite (strictly cheaper than what is there) is applied *alone*
//!    ([`Rewrite::apply`]) and verified against the memoized explorer —
//!    an option survives only if it admits no outcome the seed forbids.
//!    Keeping the site is always an option.
//! 2. **Bound.** Scores are per-site [`CostRank`] band indices summed over
//!    sites, so the score of any completion of a partial assignment is at
//!    least `partial + Σ (min option score of each undecided site)` — a
//!    separable, never-overestimating (admissible) lower bound. A subtree
//!    is cut when that bound cannot beat the incumbent best. Two dominance
//!    rules keep the space small without giving up optimality: a site
//!    whose *removal* is individually safe gets no other candidate (every
//!    substitute scores above `Free`, so a completion through it never
//!    beats the same completion through the removal or the search's final
//!    check of it), and options are visited cheapest-first so the first
//!    full descent already realizes the global lower bound.
//! 3. **Leaves.** A full assignment is composed with a [`RewritePlan`]
//!    (descending-index application, so no site index goes stale) and the
//!    composed program is re-explored: the placement is accepted only if
//!    its outcome set adds nothing to the seed's. Individually-safe
//!    options do *not* compose for free — this final machine check is what
//!    makes every emitted placement a theorem, not a heuristic.
//!
//! Every *verified* placement met along the way (the seed, each safe
//! single-site rewrite, each safe composed leaf) feeds a best-per-
//! barrier-count table, later priced per platform by [`pareto_fronts`]
//! through the cycle simulator ([`crate::replay::platform_cycles`]). The
//! seed itself is always a candidate point, so each platform's cheapest
//! synthesized placement is never dearer than the seed.
//!
//! Search effort is capped at [`LEAF_BUDGET`] verified leaves
//! (deterministically — DFS order is fixed), and `complete` reports
//! whether the cap was hit. Regardless of the cap, the result is never
//! worse than the best *single-site* rewrite: every individually-safe
//! option from step 1 is seeded into the incumbent table before the
//! search starts, which is exactly the space `armbar lint` reports on.

use std::collections::BTreeMap;

use armbar_barriers::strength::cost_rank;
use armbar_barriers::{Acquire, Barrier, CostRank};
use armbar_sim::PlatformKind;
use armbar_wmm::explore::explore;
use armbar_wmm::mutate::{barrier_sites, BarrierSite, Rewrite, RewritePlan, SiteKind};
use armbar_wmm::{MemoryModel, Program};

use crate::corpus::LintCase;
use crate::lint::ExploreFn;
use crate::replay::platform_cycles;

/// Verified-leaf budget per case: the DFS stops proposing *new* composed
/// placements after this many equivalence checks (seeded single-site
/// placements are not counted). Deterministic because the DFS order is.
pub const LEAF_BUDGET: usize = 2048;

/// One candidate decision at one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthOption {
    /// The approach left standing at the site ([`Barrier::None`] = gone).
    pub approach: Barrier,
    /// The rewrite realizing it; `None` keeps the site as-is.
    pub rewrite: Option<Rewrite>,
    /// Cost band of `approach`.
    pub rank: CostRank,
}

impl SynthOption {
    fn score(&self) -> u32 {
        self.rank as u32
    }

    /// Does this option leave an order-preserving construct at the site?
    fn counts(&self) -> usize {
        usize::from(self.approach != Barrier::None)
    }
}

/// A site together with its individually-verified options, cheapest first.
#[derive(Debug, Clone)]
pub struct SiteOptions {
    /// The site in the seed program's coordinates.
    pub site: BarrierSite,
    /// Safe decisions at this site (always contains "keep").
    pub options: Vec<SynthOption>,
}

/// One fully-verified placement: a complete decision over every site.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Final approach per site, in [`barrier_sites`] order.
    pub choices: Vec<(BarrierSite, Barrier)>,
    /// The composed program realizing the choices.
    pub program: Program,
    /// Sum of per-site [`CostRank`] band indices.
    pub score: u32,
    /// Sites still carrying an order-preserving construct.
    pub barrier_count: usize,
    /// Outcomes of the seed this placement no longer reaches (`0` means
    /// the outcome sets are *equal*, not merely preserved).
    pub removed: usize,
}

/// `outcomes-equal` / `outcomes-preserved(-k)` — the machine-checked
/// equivalence artifact class of a placement that no longer reaches
/// `removed` of the seed's outcomes ([`Placement::removed`],
/// [`FrontPoint::removed`]).
#[must_use]
pub fn proof_label(removed: usize) -> String {
    if removed == 0 {
        "outcomes-equal".to_string()
    } else {
        format!("outcomes-preserved(-{removed})")
    }
}

impl Placement {
    /// Compact rendering of the *changed* sites, `seed` when none, e.g.
    /// `T0#1 DSB full->DMB st + T1#1 DMB ld->-`.
    #[must_use]
    pub fn label(&self) -> String {
        let changed: Vec<String> = self
            .choices
            .iter()
            .filter(|(site, after)| *after != site.kind.as_barrier())
            .map(|(site, after)| {
                let to = if *after == Barrier::None {
                    "-"
                } else {
                    after.mnemonic()
                };
                format!(
                    "T{}#{} {}->{}",
                    site.tid,
                    site.idx,
                    site.kind.as_barrier().mnemonic(),
                    to
                )
            })
            .collect();
        if changed.is_empty() {
            "seed".to_string()
        } else {
            changed.join(" + ")
        }
    }
}

/// The synthesis result for one case.
#[derive(Debug, Clone)]
pub struct SynthResult {
    /// Case name.
    pub case: String,
    /// The seed program the search ran on.
    pub program: Program,
    /// Every site of the seed, with its verified options.
    pub sites: Vec<SiteOptions>,
    /// The all-keep placement (score of the program as given).
    pub seed: Placement,
    /// Cheapest verified placement overall (ties: fewer barriers, then
    /// first found — deterministic).
    pub best: Placement,
    /// Cheapest verified placement per barrier count, count ascending.
    pub by_count: Vec<Placement>,
    /// Composed placements the DFS verified through the explorer.
    pub leaves_checked: usize,
    /// Subtrees cut by the admissible bound.
    pub nodes_pruned: usize,
    /// Size of the full decision space (product of option counts).
    pub space: u64,
    /// `false` when [`LEAF_BUDGET`] truncated the search.
    pub complete: bool,
}

/// One point of a per-platform Pareto front over
/// `(barrier count, replay cycles)`.
#[derive(Debug, Clone)]
pub struct FrontPoint {
    /// Platform profile this point was priced on.
    pub platform: PlatformKind,
    /// Barriers the placement retains.
    pub barrier_count: usize,
    /// Static [`CostRank`] score of the placement.
    pub score: u32,
    /// Replay cycles on this platform.
    pub cycles: u64,
    /// Cycles saved relative to the seed placement (negative = dearer).
    pub saved_vs_seed: i64,
    /// Outcome-set proof class (see [`Placement::removed`]).
    pub removed: usize,
    /// `true` when this point *is* the seed placement.
    pub is_seed: bool,
    /// Human-readable changed-site rendering ([`Placement::label`]).
    pub label: String,
}

/// Enumerate and individually verify the options of every site of
/// `program`, cheapest first per site. `base` is the seed outcome set.
fn site_options(
    program: &Program,
    base: &armbar_wmm::OutcomeSet,
    explorer: ExploreFn,
) -> (Vec<SiteOptions>, Vec<(Rewrite, Program, usize)>) {
    let model = MemoryModel::ArmWmm;
    let mut out = Vec::new();
    let mut singles = Vec::new();
    for site in barrier_sites(program) {
        let orig = site.kind.as_barrier();
        let keep = SynthOption {
            approach: orig,
            rewrite: None,
            rank: cost_rank(orig),
        };
        let mut options = vec![keep];
        let mut candidates: Vec<Rewrite> = vec![Rewrite::Remove(site)];
        match site.kind {
            SiteKind::Fence(_) => {
                for cand in Barrier::ALL {
                    if cand != Barrier::None && cost_rank(cand) < cost_rank(orig) {
                        candidates.push(Rewrite::ReplaceFence(site, cand));
                    }
                }
            }
            SiteKind::Acquire => candidates.push(Rewrite::RewriteAcquire(site, Acquire::Pc)),
            _ => {}
        }
        for rewrite in candidates {
            let Some(mutated) = rewrite.apply(program) else {
                continue; // not constructible in this thread shape
            };
            let set = explorer(&mutated, model);
            let diff = base.diff(&set);
            if !diff.added.is_empty() {
                continue; // would widen on its own — rejected
            }
            options.push(SynthOption {
                approach: rewrite.approach(),
                rewrite: Some(rewrite),
                rank: cost_rank(rewrite.approach()),
            });
            singles.push((rewrite, mutated, diff.removed.len()));
            if rewrite.approach() == Barrier::None {
                // Removal is safe and scores `Free`: every substitute is
                // score-dominated, so don't even price them (substitution
                // programs are the *weakest* fenced variants and cost the
                // most to explore).
                break;
            }
        }
        // Cheapest first; the approach index breaks rank ties so the DFS
        // visit order (and hence tie-breaking) is deterministic.
        options.sort_by_key(|o| (o.score(), o.approach as u32));
        options.dedup_by_key(|o| (o.approach, o.rewrite));
        out.push(SiteOptions { site, options });
    }
    (out, singles)
}

/// Best-per-count incumbent table. Insertion keeps the *strictly* better
/// score, so the first placement found at a score wins ties — which,
/// combined with the fixed DFS order, makes results deterministic.
struct Incumbents {
    by_count: BTreeMap<usize, Placement>,
}

impl Incumbents {
    fn new() -> Self {
        Incumbents {
            by_count: BTreeMap::new(),
        }
    }

    fn offer(&mut self, p: Placement) {
        match self.by_count.get_mut(&p.barrier_count) {
            Some(cur) => {
                if p.score < cur.score {
                    *cur = p;
                }
            }
            None => {
                self.by_count.insert(p.barrier_count, p);
            }
        }
    }

    fn best_score(&self) -> u32 {
        self.by_count
            .values()
            .map(|p| p.score)
            .min()
            .expect("seed is always present")
    }
}

/// Depth-first branch-and-bound state.
struct Search<'a> {
    program: &'a Program,
    base: &'a armbar_wmm::OutcomeSet,
    explorer: ExploreFn,
    sites: &'a [SiteOptions],
    /// Admissible per-suffix bound: `min_score_rest[i]` = Σ cheapest
    /// option of sites `i..` — no completion of a prefix can score less.
    min_score_rest: Vec<u32>,
    /// Best verified score so far (starts at the best seeded placement).
    best_score: u32,
    incumbents: Incumbents,
    leaves_checked: usize,
    nodes_pruned: usize,
    complete: bool,
}

impl Search<'_> {
    fn dfs(&mut self, i: usize, picked: &mut Vec<SynthOption>, score: u32, count: usize) {
        if !self.complete {
            return;
        }
        let lb = score + self.min_score_rest[i];
        if lb >= self.best_score {
            self.nodes_pruned += 1;
            return;
        }
        if i == self.sites.len() {
            self.verify_leaf(picked, score, count);
            return;
        }
        for opt in &self.sites[i].options {
            picked.push(*opt);
            self.dfs(i + 1, picked, score + opt.score(), count + opt.counts());
            picked.pop();
        }
    }

    fn verify_leaf(&mut self, picked: &[SynthOption], score: u32, count: usize) {
        let rewrites: Vec<Rewrite> = picked.iter().filter_map(|o| o.rewrite).collect();
        if rewrites.is_empty() {
            return; // the seed placement is pre-seeded
        }
        if rewrites.len() == 1 {
            return; // single-site placements are pre-seeded from the filter
        }
        if self.leaves_checked >= LEAF_BUDGET {
            self.complete = false;
            return;
        }
        self.leaves_checked += 1;
        let Some(composed) = RewritePlan::from_rewrites(rewrites).apply(self.program) else {
            return; // composition not constructible (e.g. two STLR targets)
        };
        let set = (self.explorer)(&composed, MemoryModel::ArmWmm);
        let diff = self.base.diff(&set);
        if !diff.added.is_empty() {
            return; // individually-safe options composed unsafely
        }
        self.best_score = self.best_score.min(score);
        self.incumbents.offer(Placement {
            choices: self
                .sites
                .iter()
                .zip(picked)
                .map(|(s, o)| (s.site, o.approach))
                .collect(),
            program: composed,
            score,
            barrier_count: count,
            removed: diff.removed.len(),
        });
    }
}

/// Synthesize the cheapest outcome-preserving barrier placement for
/// `case` with the default (memoized DPOR) explorer.
#[must_use]
pub fn synthesize(case: &LintCase) -> SynthResult {
    synthesize_with(case, explore)
}

/// [`synthesize`] with an explicit exploration backend.
#[must_use]
pub fn synthesize_with(case: &LintCase, explorer: ExploreFn) -> SynthResult {
    let program = &case.program;
    let base = explorer(program, MemoryModel::ArmWmm);
    let (sites, singles) = site_options(program, &base, explorer);

    let seed_choices: Vec<(BarrierSite, Barrier)> = sites
        .iter()
        .map(|s| (s.site, s.site.kind.as_barrier()))
        .collect();
    let seed = Placement {
        choices: seed_choices.clone(),
        program: program.clone(),
        score: seed_choices.iter().map(|(_, b)| cost_rank(*b) as u32).sum(),
        barrier_count: seed_choices.len(),
        removed: 0,
    };

    let mut incumbents = Incumbents::new();
    incumbents.offer(seed.clone());
    // Seed every individually-verified single-site rewrite: this is the
    // space `armbar lint` reports on, so whatever the joint search does
    // the result is at least as cheap as any accepted lint suggestion.
    for (rewrite, mutated, removed) in singles {
        let choices: Vec<(BarrierSite, Barrier)> = seed_choices
            .iter()
            .map(|&(site, orig)| {
                if site == rewrite.site() {
                    (site, rewrite.approach())
                } else {
                    (site, orig)
                }
            })
            .collect();
        incumbents.offer(Placement {
            score: choices.iter().map(|(_, b)| cost_rank(*b) as u32).sum(),
            barrier_count: choices.iter().filter(|(_, b)| *b != Barrier::None).count(),
            choices,
            program: mutated,
            removed,
        });
    }

    let n = sites.len();
    let mut min_score_rest = vec![0u32; n + 1];
    for i in (0..n).rev() {
        let min_score = sites[i].options.iter().map(SynthOption::score).min();
        min_score_rest[i] = min_score_rest[i + 1] + min_score.unwrap_or(0);
    }

    let best_score = incumbents.best_score();
    let mut search = Search {
        program,
        base: &base,
        explorer,
        sites: &sites,
        min_score_rest,
        best_score,
        incumbents,
        leaves_checked: 0,
        nodes_pruned: 0,
        complete: true,
    };
    search.dfs(0, &mut Vec::with_capacity(n), 0, 0);

    let space = sites
        .iter()
        .map(|s| s.options.len() as u64)
        .product::<u64>();
    let Search {
        incumbents,
        leaves_checked,
        nodes_pruned,
        complete,
        ..
    } = search;
    let by_count: Vec<Placement> = incumbents.by_count.into_values().collect();
    let best = by_count
        .iter()
        .min_by_key(|p| (p.score, p.barrier_count))
        .expect("seed placement is always present")
        .clone();
    SynthResult {
        case: case.name.clone(),
        program: program.clone(),
        sites,
        seed,
        best,
        by_count,
        leaves_checked,
        nodes_pruned,
        space,
        complete,
    }
}

/// Price `result` on every platform profile and keep, per platform, the
/// Pareto-optimal points over `(barrier count, replay cycles)` — count
/// ascending, cycles strictly decreasing. The seed placement competes, so
/// the min-cycles point of every platform is never dearer than the seed.
#[must_use]
pub fn pareto_fronts(result: &SynthResult, iterations: u64) -> Vec<FrontPoint> {
    // An incumbent whose program is the seed's is priced by the seed's run.
    let seed = platform_cycles(&result.seed.program, iterations);
    let price = |p: &Placement| {
        if p.program == result.seed.program {
            seed
        } else {
            platform_cycles(&p.program, iterations)
        }
    };
    let priced: Vec<[u64; 4]> = result.by_count.iter().map(price).collect();
    let mut out = Vec::new();
    for (k, kind) in PlatformKind::ALL.into_iter().enumerate() {
        let seed_cycles = seed[k];
        // Candidates: every per-count incumbent, plus the seed itself
        // (its bucket may hold a cheaper same-count placement).
        let mut candidates: Vec<(bool, &Placement, u64)> = result
            .by_count
            .iter()
            .zip(&priced)
            .map(|(p, cycles)| (false, p, cycles[k]))
            .collect();
        if !result
            .by_count
            .iter()
            .any(|p| p.choices == result.seed.choices)
        {
            candidates.push((true, &result.seed, seed_cycles));
        }
        candidates
            .sort_by_key(|(is_seed, p, cycles)| (p.barrier_count, *cycles, p.score, *is_seed));
        let mut floor = u64::MAX;
        for (_, p, cycles) in candidates {
            if cycles >= floor {
                continue; // dominated by a smaller-or-equal-count point
            }
            floor = cycles;
            out.push(FrontPoint {
                platform: kind,
                barrier_count: p.barrier_count,
                score: p.score,
                cycles,
                saved_vs_seed: i64::try_from(seed_cycles).unwrap_or(i64::MAX)
                    - i64::try_from(cycles).unwrap_or(i64::MAX),
                removed: p.removed,
                is_seed: p.choices == result.seed.choices,
                label: p.label(),
            });
        }
    }
    out
}

/// The min-cycles point of `platform`'s front — what the synthesizer
/// would actually deploy there. Guaranteed no dearer than the seed.
#[must_use]
pub fn chosen_point(front: &[FrontPoint], platform: PlatformKind) -> Option<&FrontPoint> {
    front
        .iter()
        .filter(|p| p.platform == platform)
        .min_by_key(|p| (p.cycles, p.barrier_count))
}

#[cfg(test)]
mod tests {
    use super::*;
    use armbar_wmm::litmus::message_passing;

    fn case(name: &str, program: Program) -> LintCase {
        LintCase {
            name: name.to_string(),
            program,
            forbidden: None,
        }
    }

    #[test]
    fn dsb_mp_synthesizes_to_the_cheap_placement() {
        let p = message_passing(Barrier::DsbFull, Barrier::DsbFull).program;
        let r = synthesize(&case("mp-dsb", p));
        assert!(r.complete);
        assert!(
            r.best.score < r.seed.score,
            "two DSB fulls must admit a cheaper placement"
        );
        assert_eq!(r.best.removed, 0, "MP rewrites preserve exactly");
        // The joint optimum keeps both orderings: never fewer than 2 sites
        // retained, and the forbidden outcome stays forbidden.
        let base = explore(&r.seed.program, MemoryModel::ArmWmm);
        let opt = explore(&r.best.program, MemoryModel::ArmWmm);
        assert!(base.diff(&opt).added.is_empty());
    }

    #[test]
    fn placements_never_widen_or_exceed_seed_score() {
        let p = message_passing(Barrier::DmbFull, Barrier::DmbFull).program;
        let r = synthesize(&case("mp-full", p));
        let base = explore(&r.seed.program, MemoryModel::ArmWmm);
        for placement in &r.by_count {
            assert!(placement.score <= r.seed.score);
            let set = explore(&placement.program, MemoryModel::ArmWmm);
            let diff = base.diff(&set);
            assert!(diff.added.is_empty(), "{} widened", placement.label());
            assert_eq!(diff.removed.len(), placement.removed);
        }
    }

    #[test]
    fn redundant_fences_are_jointly_removed() {
        // Single-thread program: every fence is redundant (no other thread
        // observes the stores), so the optimum strips all of them at once.
        let p = Program {
            threads: vec![armbar_wmm::Thread {
                instrs: vec![
                    armbar_wmm::Instr::store(0, 1),
                    armbar_wmm::Instr::Fence(Barrier::DmbSt),
                    armbar_wmm::Instr::store(1, 1),
                    armbar_wmm::Instr::Fence(Barrier::DsbFull),
                    armbar_wmm::Instr::store(2, 1),
                ],
            }],
            init: vec![],
        };
        let r = synthesize(&case("solo", p));
        assert_eq!(r.best.score, 0, "all fences must go");
        assert_eq!(r.best.barrier_count, 0);
        assert_eq!(r.best.removed, 0);
        assert!(r.complete);
    }

    #[test]
    fn fronts_cover_all_platforms_and_respect_the_seed() {
        let p = message_passing(Barrier::DsbFull, Barrier::DmbLd).program;
        let r = synthesize(&case("mp", p));
        let front = pareto_fronts(&r, 20);
        for kind in PlatformKind::ALL {
            let points: Vec<&FrontPoint> = front.iter().filter(|f| f.platform == kind).collect();
            assert!(!points.is_empty(), "{kind:?} missing from the front");
            // Strictly decreasing cycles with ascending count.
            for w in points.windows(2) {
                assert!(w[0].barrier_count <= w[1].barrier_count);
                assert!(w[0].cycles > w[1].cycles);
            }
            let chosen = chosen_point(&front, kind).expect("non-empty front");
            assert!(chosen.saved_vs_seed >= 0, "chosen point dearer than seed");
        }
    }

    #[test]
    fn programs_without_sites_synthesize_to_themselves() {
        let p = message_passing(Barrier::None, Barrier::None).program;
        let r = synthesize(&case("bare", p));
        assert_eq!(r.best.score, 0);
        assert_eq!(r.best.barrier_count, 0);
        assert_eq!(r.space, 1);
        assert!(r.complete);
        assert_eq!(r.best.label(), "seed");
    }

    #[test]
    fn delegation_handoffs_synthesize_positive_savings() {
        // The `dlock` handoff cases (naive-port fences) must admit a
        // strictly cheaper verified placement, and the chosen Pareto point
        // must save replay cycles over the seed on every platform.
        let dlock = [
            "fc-publication+dsb.st+dmb.ld",
            "ccsynch-status+dmb.full+dmb.full",
            "rcl-reqword+dsb.full+dmb.ld",
        ];
        let cases = crate::corpus::corpus();
        for name in dlock {
            let c = cases
                .iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("{name} missing from corpus"));
            let lint_case = case(name, c.program.clone());
            let r = synthesize(&lint_case);
            assert!(r.complete, "{name}: search truncated");
            assert!(
                r.best.score < r.seed.score,
                "{name}: naive port must admit a cheaper placement"
            );
            let front = pareto_fronts(&r, 20);
            for kind in PlatformKind::ALL {
                let chosen = chosen_point(&front, kind).expect("non-empty front");
                assert!(
                    chosen.saved_vs_seed > 0,
                    "{name}: no cycle saving on {kind:?}"
                );
            }
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let p = message_passing(Barrier::DsbFull, Barrier::DsbFull).program;
        let a = synthesize(&case("mp", p.clone()));
        let b = synthesize(&case("mp", p));
        assert_eq!(a.best.choices, b.best.choices);
        assert_eq!(a.leaves_checked, b.leaves_checked);
        assert_eq!(a.nodes_pruned, b.nodes_pruned);
        let fa = pareto_fronts(&a, 20);
        let fb = pareto_fronts(&b, 20);
        assert_eq!(fa.len(), fb.len());
        for (x, y) in fa.iter().zip(&fb) {
            assert_eq!(
                (x.cycles, x.score, x.barrier_count),
                (y.cycles, y.score, y.barrier_count)
            );
        }
    }
}
