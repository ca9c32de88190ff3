//! The four end-to-end workloads.
//!
//! Two kinds of user wait on this system. Someone regenerating the paper's
//! figures waits for `exp-*` to turn sweep cells into `results/*.csv`, cold
//! the first time (`figures-cold`, and `manycore-scale` for the parked-core
//! side of the simulator) and warm afterwards (`regen-warm`). Someone
//! asking `armbar-lint`/`armbar-synth` about a program waits for the
//! explorer and the branch-and-bound (`verdict-corpus`). Both are batch,
//! closed-loop, one client: one process, `workers = 1`, no think time.
//!
//! A *pass* is a workload's whole fixed item list; an *operation* is one
//! item of one pass. Every operation is checked against the committed
//! `results/*.csv` (or, where the repo holds no reference at the depth
//! used, against the warm-up pass of the same process), and every simulated
//! quantity a pass can see from outside is an exact count that must repeat.
//!
//! Everything here writes relative to the current directory, because
//! `experiments::{lint, synth, extract}` write `results/*.csv` that way: the
//! caller must have made the scratch directory current. Every experiment
//! runs in a directory of its own under it (see [`regenerate`]).

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use armbar_analyze::{analyze_case, corpus, synthesize};
use armbar_experiments::manycore::manycore_grid;
use armbar_experiments::{
    dlock, extension, extract, figures, lint, manycore, rcpc, synth, RunCache, SweepCtx, SweepSpec,
    Table,
};
use armbar_fxhash::hash64;
use armbar_wmm::battery::run_battery;
use armbar_wmm::MemoryModel;

use crate::check::{group_by_first, project, References};
use crate::rng::Rng;
use crate::trace::Tracer;

/// One experiment's entry point.
pub type ExperimentFn = fn(&SweepCtx) -> Vec<Table>;

/// Every deterministic experiment: `ALL_EXPERIMENTS` minus `fig6d` and
/// `fig8d`, which time host threads (and `fig8d` runs for over an hour).
pub const EXPERIMENTS: [(&str, ExperimentFn); 25] = [
    ("table1", figures::table1),
    ("table2", figures::table2),
    ("fig2", figures::fig2),
    ("fig3", figures::fig3),
    ("fig4", figures::fig4),
    ("fig5", figures::fig5),
    ("table3", figures::table3),
    ("fig6a", figures::fig6a),
    ("fig6b", figures::fig6b),
    ("fig6c", figures::fig6c),
    ("fig7a", figures::fig7a),
    ("fig7b", figures::fig7b),
    ("fig7c", figures::fig7c),
    ("fig8a", figures::fig8a),
    ("fig8b", figures::fig8b),
    ("fig8c", figures::fig8c),
    ("ext-mca", extension::ext_mca),
    ("attrib", figures::attrib),
    ("battery", figures::battery),
    ("lint", lint::lint),
    ("rcpc", rcpc::rcpc),
    ("synth", synth::synth),
    ("extract", extract::extract),
    ("manycore", manycore::manycore),
    ("dlock", dlock::dlock),
];

/// The `figures-cold` item list. A whole cold `exp-*` suite (the 16
/// simulator-backed experiments) takes 7.3 s here; with four workloads and
/// the contract's cap on all runs a pass has to stay near 4.5 s, so light
/// figures went first. Kept: the three that lead the cold path (`fig8b`
/// 1.9 s, `dlock` 1.25 s, `fig7c` 1.2 s — `delegation_sim`, `mcs_sim`,
/// `ticket_sim`) and the cheapest figure of each remaining module
/// (`abstract_model`: fig2; `prodcons`: fig6c; the stall breakdown: attrib;
/// 0.04 s each). Together 62 % of the suite's time. Dropped: fig3 (0.73 s),
/// fig7a, fig7b, fig8c, fig5, fig4, fig8a, ext-mca, fig6a, fig6b (1.9 s).
pub const COLD_FIGURES: [&str; 6] = ["fig2", "fig6c", "fig7c", "fig8b", "attrib", "dlock"];

/// Barrier rounds per `manycore-scale` cell: twenty times `exp-manycore`'s
/// depth, so the run is carried by parked cores waking, not by building
/// 1024-core machines.
pub const MANYCORE_ROUNDS: u64 = 120;

/// Whole-suite regenerations in one `regen-warm` pass: two, about 40 ms, five
/// hundred passes to a run. Short on purpose: the run reports its fastest
/// pass, and a short pass is the one that fits between a neighbour's bursts
/// (ten runs' fastest passes spread by 2-9 %, their medians by 8-35 %).
pub const WARM_REGENS: usize = 2;

/// The cache `regen-warm`'s set-up fills, relative to the scratch directory.
const WARM_CACHE: &str = "cache.warm";

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Cold `exp-*` regeneration of the figures that lead the cold path.
    FiguresCold,
    /// The 1024-core barrier grid at twenty times the experiment's depth.
    ManycoreScale,
    /// Time-to-verdict of lint + synth over the corpus.
    VerdictCorpus,
    /// Second-and-later `exp-all`: everything answered from the run cache.
    RegenWarm,
}

impl Kind {
    /// All workloads, in ledger order.
    pub const ALL: [Kind; 4] = [
        Kind::FiguresCold,
        Kind::ManycoreScale,
        Kind::VerdictCorpus,
        Kind::RegenWarm,
    ];

    /// The name `--workload` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::FiguresCold => "figures-cold",
            Kind::ManycoreScale => "manycore-scale",
            Kind::VerdictCorpus => "verdict-corpus",
            Kind::RegenWarm => "regen-warm",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Kind::FiguresCold => "cold exp-* path: sim + simapps step 2-16 busy cores per cell; every cell is computed and stored, the explorer is idle",
            Kind::ManycoreScale => "same sim layer used the other way: hundreds of cores parked on WaitChange, so wake heap, waiter lists and line queuing carry the run",
            Kind::VerdictCorpus => "time-to-verdict of lint + synth: wmm engine and analyze do all the work, sim is never called",
            Kind::RegenWarm => "second-and-later exp-all: every cell is a cache hit, so only experiments sweep/cache/report and cell decoding are on the clock",
        }
    }

    /// The items of one pass, in canonical order.
    #[must_use]
    pub fn items(self) -> Vec<String> {
        match self {
            Kind::FiguresCold => COLD_FIGURES.iter().map(|id| format!("exp:{id}")).collect(),
            Kind::ManycoreScale => vec![format!("grid:manycore@{MANYCORE_ROUNDS}")],
            Kind::VerdictCorpus => ["lift".to_string(), "battery".to_string()]
                .into_iter()
                .chain(corpus().into_iter().map(|c| format!("case:{}", c.name)))
                .collect(),
            Kind::RegenWarm => EXPERIMENTS
                .iter()
                .map(|(id, _)| format!("warm:{id}"))
                .collect(),
        }
    }

    /// What one pass does, for `--list`.
    #[must_use]
    pub fn pass_shape(self) -> String {
        match self {
            Kind::FiguresCold => format!(
                "{} cold regenerations into one fresh cache; tables rendered, written and byte-compared with results/",
                COLD_FIGURES.len()
            ),
            Kind::ManycoreScale => format!(
                "manycore_grid at {MANYCORE_ROUNDS} rounds, uncached: 36 cells, each compared with the warm-up pass"
            ),
            Kind::VerdictCorpus => "memo cleared; lift 3 fixtures, run the litmus battery, then lint + synth per corpus case (seed-shuffled), each compared with results/".to_string(),
            Kind::RegenWarm => format!(
                "{WARM_REGENS} x {} warm regenerations from one filled cache; tables rendered, written and byte-compared with results/",
                EXPERIMENTS.len()
            ),
        }
    }
}

/// Where a run reads and writes.
#[derive(Debug, Clone)]
pub struct Env {
    /// The repo checkout (for `corpus/asm`).
    pub repo: PathBuf,
    /// The committed reference CSVs, normally `<repo>/results`.
    pub refs_dir: PathBuf,
}

/// What one pass produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassOutcome {
    /// Operations attempted.
    pub attempted: u64,
    /// One message per failed operation: workload / item / what differed.
    pub failures: Vec<String>,
    /// Output digest per item (CSV bytes or verdict tuples).
    pub digests: BTreeMap<String, u64>,
    /// Exact counts seen from outside; must repeat between passes, seeds
    /// and commits that leave the model alone.
    pub counts: BTreeMap<&'static str, u64>,
}

impl PassOutcome {
    /// One digest over all items, in item-name order — independent of the
    /// order the seed ran them in.
    #[must_use]
    pub fn digest(&self) -> u64 {
        hash64(&self.digests)
    }

    fn count(&mut self, key: &'static str, n: u64) {
        *self.counts.entry(key).or_default() += n;
    }

    /// Close one operation: record its digest (an item that runs more than
    /// once in a pass must produce the same bytes each time) and its
    /// failure, if any.
    fn finish(&mut self, item: &str, digest: u64, mut problems: Vec<String>) {
        self.attempted += 1;
        if *self.digests.entry(item.to_string()).or_insert(digest) != digest {
            problems.push("output differs from an earlier run in this pass".to_string());
        }
        if !problems.is_empty() {
            self.failures
                .push(format!("{item}: {}", problems.join("; ")));
        }
    }
}

/// The verdict references, projected to the columns the analyzer's public
/// results expose, grouped by case / fixture / test name.
#[derive(Debug, Default)]
pub struct VerdictRefs {
    lint: BTreeMap<String, Vec<Vec<String>>>,
    synth: BTreeMap<String, Vec<Vec<String>>>,
    lift: BTreeMap<String, Vec<Vec<String>>>,
    battery: BTreeMap<String, Vec<Vec<String>>>,
    /// `corpus/asm/*.s`, `(stem, text)`.
    pub asm: Vec<(String, String)>,
}

/// A workload, set up and ready to run passes.
#[derive(Debug)]
pub struct Workload {
    /// Which one.
    pub kind: Kind,
    refs: References,
    verdict: VerdictRefs,
    /// Fresh-cache counter (`figures-cold`).
    cold_caches: u64,
    /// Digest and counts of the warm-up pass; every timed pass must match.
    expected: Option<(u64, BTreeMap<&'static str, u64>)>,
}

impl Workload {
    /// Everything before the first timed pass: read the references (and the
    /// assembly fixtures), fill the cache (`regen-warm`), check the
    /// default-depth experiment (`manycore-scale`), then run one warm-up
    /// pass whose digest and counts every timed pass must reproduce.
    /// Returns the workload and the warm-up pass (already reference-checked).
    ///
    /// # Errors
    ///
    /// A message when the references or fixtures cannot be read — the run
    /// cannot check anything then, so it must not report numbers.
    pub fn setup(kind: Kind, env: &Env) -> Result<(Workload, PassOutcome), String> {
        let refs = References::load(&env.refs_dir)
            .map_err(|e| format!("references {}: {e}", env.refs_dir.display()))?;
        let mut w = Workload {
            kind,
            refs,
            verdict: VerdictRefs::default(),
            cold_caches: 0,
            expected: None,
        };
        let mut quiet = Tracer::new(false);
        let mut prelude = PassOutcome::default();
        match kind {
            Kind::FiguresCold => {}
            Kind::ManycoreScale => {
                let scratch = Path::new("cache.check");
                regenerate(
                    &w.refs,
                    &mut quiet,
                    "check",
                    "manycore",
                    scratch,
                    &mut prelude,
                );
                let _ = fs::remove_dir_all(scratch);
            }
            Kind::VerdictCorpus => w.verdict = VerdictRefs::load(&w.refs, &env.repo)?,
            Kind::RegenWarm => {
                let _ = fs::remove_dir_all(WARM_CACHE);
                for (id, _) in EXPERIMENTS {
                    let cache = Path::new(WARM_CACHE);
                    regenerate(&w.refs, &mut quiet, "fill", id, cache, &mut prelude);
                }
            }
        }
        let mut warmup = w.pass(&mut quiet, &mut Rng::new(0));
        w.expected = Some((warmup.digest(), warmup.counts.clone()));
        warmup.attempted += prelude.attempted;
        warmup.failures.extend(prelude.failures);
        Ok((w, warmup))
    }

    /// One pass over the item list, in the order `rng` gives.
    pub fn pass(&mut self, tracer: &mut Tracer, rng: &mut Rng) -> PassOutcome {
        let mut out = PassOutcome::default();
        match self.kind {
            Kind::FiguresCold => {
                self.cold_caches += 1;
                let cache = PathBuf::from(format!("cache.cold.{}", self.cold_caches));
                let mut ids = COLD_FIGURES;
                rng.shuffle(&mut ids);
                for id in ids {
                    regenerate(&self.refs, tracer, "exp", id, &cache, &mut out);
                }
                // Outside every item span: the user's `rm -r results/.cache`,
                // not part of any operation.
                let _ = fs::remove_dir_all(&cache);
            }
            Kind::RegenWarm => {
                for _ in 0..WARM_REGENS {
                    let mut ids = EXPERIMENTS.map(|(id, _)| id);
                    rng.shuffle(&mut ids);
                    for id in ids {
                        let cache = Path::new(WARM_CACHE);
                        regenerate(&self.refs, tracer, "warm", id, cache, &mut out);
                    }
                }
            }
            Kind::ManycoreScale => manycore_pass(tracer, &mut out),
            Kind::VerdictCorpus => self.verdict.pass(tracer, rng, &mut out),
        }
        if let Some((digest, counts)) = &self.expected {
            out.attempted += 1;
            if out.digest() != *digest || out.counts != *counts {
                out.failures.push(format!(
                    "pass: digest {:016x} counts {:?} differ from the warm-up pass ({digest:016x} {counts:?})",
                    out.digest(),
                    out.counts
                ));
            }
        }
        out
    }
}

/// One operation of the figure workloads: run experiment `id` against the
/// cache at `cache` (relative to the scratch directory), render every table,
/// write every CSV, then compare whatever is in its `results/` with the
/// committed bytes.
///
/// The experiment runs in `<scratch>/<id>/`, which is kept from pass to
/// pass, so from the second time on its CSVs are overwritten in place — what
/// a user's second `exp-*` does to `results/`. Deleting them after each
/// check instead is what made `regen-warm` unrepeatable: ext4 will not
/// reuse an inode for up to 35 s after its file is deleted and walks over
/// all of those on every create, so 2400 deletions a second took file
/// creation from 15 us to over 100 us, across runs.
///
/// # Panics
///
/// Panics on an id that is not in [`EXPERIMENTS`] — a bug in an item list.
pub fn regenerate(
    refs: &References,
    tracer: &mut Tracer,
    prefix: &str,
    id: &str,
    cache: &Path,
    out: &mut PassOutcome,
) {
    let item = format!("{prefix}:{id}");
    let run = EXPERIMENTS
        .iter()
        .find(|(e, _)| *e == id)
        .map(|(_, f)| *f)
        .expect("item lists only name known experiments");
    let span = tracer.open(&item);
    let mut problems = Vec::new();
    let home = Path::new(id);
    let entered = std::env::set_current_dir(home).or_else(|_| {
        fs::create_dir_all(home.join("results"))?;
        std::env::set_current_dir(home)
    });
    if let Err(e) = entered {
        out.finish(&item, 0, vec![format!("enter {id}/: {e}")]);
        tracer.close(span, &[]);
        return;
    }
    let ctx = SweepCtx::new(1, RunCache::at(Path::new("..").join(cache)));
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let tables = run(&ctx);
        for t in &tables {
            black_box(t.render());
            t.write_csv("results")
                .map_err(|e| format!("write {}.csv: {e}", t.id))?;
        }
        Ok::<(), String>(())
    }));
    match ran {
        Ok(Ok(())) => {}
        Ok(Err(e)) => problems.push(e),
        Err(_) => problems.push("panicked".to_string()),
    }
    let check = tracer.open("check");
    let mut produced = Vec::new();
    match read_results() {
        Ok(files) if files.is_empty() => problems.push("wrote no CSV".to_string()),
        Ok(files) => {
            for (name, bytes) in files {
                if let Err(e) = refs.compare(&name, &bytes) {
                    problems.push(e);
                }
                produced.push((name, bytes));
            }
        }
        Err(e) => problems.push(format!("results/: {e}")),
    }
    tracer.close(check, &[]);
    if let Err(e) = std::env::set_current_dir("..") {
        problems.push(format!("leave {id}/: {e}"));
    }
    let (hits, misses, stores) = (ctx.cache.hits(), ctx.cache.misses(), ctx.cache.stores());
    out.count("cells", hits + misses);
    out.count("cache_hits", hits);
    out.count("cache_misses", misses);
    out.count("cache_stores", stores);
    out.finish(&item, hash64(&produced), problems);
    tracer.close(
        span,
        &[
            ("cells", hits + misses),
            ("hits", hits),
            ("misses", misses),
            ("stores", stores),
        ],
    );
}

/// Every file in `results/`, sorted by name.
fn read_results() -> std::io::Result<Vec<(String, Vec<u8>)>> {
    let mut files = Vec::new();
    for entry in fs::read_dir("results")? {
        let path = entry?.path();
        let name = path
            .file_name()
            .expect("a read_dir entry has a name")
            .to_string_lossy()
            .into_owned();
        files.push((name, fs::read(&path)?));
    }
    files.sort();
    Ok(files)
}

/// The `manycore-scale` pass: the whole grid is one sweep, so it is one
/// span, but each of its 36 cells is an operation. The repo commits no
/// reference at this depth, so a cell is checked for plausible values here
/// and the pass against the warm-up pass by the caller; the default-depth
/// experiment is byte-checked during set-up.
fn manycore_pass(tracer: &mut Tracer, out: &mut PassOutcome) {
    let span = tracer.open(&format!("grid:manycore@{MANYCORE_ROUNDS}"));
    let mut sweep = SweepSpec::new("manycore-scale");
    let rows = manycore_grid(&mut sweep, MANYCORE_ROUNDS);
    let cells = rows.len() as u64;
    let ran = catch_unwind(AssertUnwindSafe(|| {
        sweep.run(&SweepCtx::new(1, RunCache::disabled()))
    }));
    let mut sim_cycles = 0u64;
    match ran {
        Ok(results) => {
            for (flavour, family, threads, cell) in rows {
                let vals = results.get(cell);
                let item = format!("cell:{flavour}/{}/{threads}", family.label());
                let mut problems = Vec::new();
                // `[cycles/round, barriers/s, stalled cycles]`
                if vals.len() != 3 || !vals.iter().all(|v| v.is_finite() && *v > 0.0) {
                    problems.push(format!("implausible cell values {vals:?}"));
                } else {
                    sim_cycles += (vals[0] * MANYCORE_ROUNDS as f64).round() as u64;
                }
                let bits: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
                out.finish(&item, hash64(&bits), problems);
            }
        }
        Err(_) => {
            out.attempted += cells;
            out.failures
                .extend((0..cells).map(|_| "grid:manycore: panicked".to_string()));
        }
    }
    out.count("cells", cells);
    out.count("sim_cycles", sim_cycles);
    tracer.close(span, &[("cells", cells), ("sim_cycles", sim_cycles)]);
}

impl VerdictRefs {
    /// Project the four reference CSVs and read the assembly fixtures.
    ///
    /// # Errors
    ///
    /// A message naming the reference or fixture that cannot be read.
    pub fn load(refs: &References, repo: &Path) -> Result<VerdictRefs, String> {
        let grouped = |file: &str, columns: &[&str]| {
            project(refs.text(file)?, columns)
                .map(group_by_first)
                .map_err(|e| format!("{file}: {e}"))
        };
        let asm_dir = repo.join("corpus/asm");
        let mut asm = Vec::new();
        for entry in fs::read_dir(&asm_dir).map_err(|e| format!("{}: {e}", asm_dir.display()))? {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.extension().is_some_and(|e| e == "s") {
                let stem = path
                    .file_stem()
                    .expect("a .s file has a stem")
                    .to_string_lossy()
                    .into_owned();
                let text =
                    fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
                asm.push((stem, text));
            }
        }
        asm.sort();
        if asm.is_empty() {
            return Err(format!("no .s fixtures under {}", asm_dir.display()));
        }
        Ok(VerdictRefs {
            lint: grouped(
                "lint.csv",
                &["case", "site", "kind", "states_base", "states_after"],
            )?,
            synth: grouped(
                "synth_summary.csv",
                &["case", "leaves", "pruned", "seed_score", "best_score"],
            )?,
            lift: grouped(
                "extract_summary.csv",
                &["fixture", "threads", "instrs", "symbols"],
            )?,
            battery: grouped(
                "battery.csv",
                &[
                    "test",
                    "allowed",
                    "states_visited",
                    "states_pruned",
                    "outcomes",
                ],
            )?,
            asm,
        })
    }

    /// One `verdict-corpus` pass. `sim` is never called: no
    /// `analyze::replay`, only the explorer and the branch-and-bound.
    pub fn pass(&self, tracer: &mut Tracer, rng: &mut Rng, out: &mut PassOutcome) {
        // Every pass starts with a cold explorer memo and a fresh corpus; the
        // span keeps that out of the pass's self time. It is no operation.
        let span = tracer.open("prepare");
        armbar_wmm::explore_memo_clear();
        let mut cases = corpus();
        rng.shuffle(&mut cases);
        tracer.close(span, &[]);

        let span = tracer.open("lift");
        let mut problems = Vec::new();
        let mut lifted_rows = Vec::new();
        let mut instrs = 0u64;
        for (stem, text) in &self.asm {
            match catch_unwind(|| armbar_extract::lift(text)) {
                Ok(Ok(l)) => {
                    instrs += l.total_instrs() as u64;
                    let row = strings([l.program.threads.len(), l.total_instrs(), l.symbols.len()]);
                    compare_rows(
                        stem,
                        std::slice::from_ref(&row),
                        self.lift.get(stem),
                        &mut problems,
                    );
                    lifted_rows.push((stem.clone(), row));
                }
                Ok(Err(e)) => problems.push(format!("{stem}.s: {e}")),
                Err(_) => problems.push(format!("{stem}.s: panicked")),
            }
        }
        out.finish("lift", hash64(&lifted_rows), problems);
        tracer.close(span, &[("instrs", instrs)]);

        let span = tracer.open("battery");
        let mut problems = Vec::new();
        let mut battery_rows = Vec::new();
        let mut states = 0u64;
        match catch_unwind(|| run_battery(MemoryModel::ArmWmm, 1)) {
            Ok(runs) => {
                for r in runs {
                    states += r.states_visited as u64;
                    let row = strings([
                        usize::from(r.allowed),
                        r.states_visited,
                        r.states_pruned,
                        r.outcome_count,
                    ]);
                    compare_rows(
                        &r.name,
                        std::slice::from_ref(&row),
                        self.battery.get(&r.name),
                        &mut problems,
                    );
                    battery_rows.push((r.name, row));
                }
            }
            Err(_) => problems.push("panicked".to_string()),
        }
        out.finish("battery", hash64(&battery_rows), problems);
        tracer.close(span, &[("states", states)]);

        let (mut findings_n, mut leaves_n) = (0u64, 0u64);
        for case in &cases {
            let item = format!("case:{}", case.name);
            let span = tracer.open(&item);
            let mut problems = Vec::new();

            let lint_span = tracer.open("lint");
            let findings = catch_unwind(AssertUnwindSafe(|| analyze_case(case)));
            let mut case_states = 0u64;
            let lint_rows: Vec<Vec<String>> = match &findings {
                Ok(findings) => findings
                    .iter()
                    .map(|f| {
                        case_states += (f.states_base + f.states_after) as u64;
                        vec![
                            f.site_label(),
                            f.kind.label().to_string(),
                            f.states_base.to_string(),
                            f.states_after.to_string(),
                        ]
                    })
                    .collect(),
                Err(_) => {
                    problems.push("lint panicked".to_string());
                    Vec::new()
                }
            };
            tracer.close(
                lint_span,
                &[
                    ("findings", lint_rows.len() as u64),
                    ("states", case_states),
                ],
            );

            let synth_span = tracer.open("synth");
            let synthesized = catch_unwind(AssertUnwindSafe(|| synthesize(case)));
            let mut case_leaves = 0u64;
            let synth_rows: Vec<Vec<String>> = match &synthesized {
                Ok(r) => {
                    case_leaves = r.leaves_checked as u64;
                    vec![strings([
                        r.leaves_checked,
                        r.nodes_pruned,
                        r.seed.score as usize,
                        r.best.score as usize,
                    ])]
                }
                Err(_) => {
                    problems.push("synth panicked".to_string());
                    Vec::new()
                }
            };
            tracer.close(synth_span, &[("leaves", case_leaves)]);

            let check = tracer.open("check");
            // A case without findings has no row in lint.csv.
            let no_rows = Vec::new();
            let want_lint = self.lint.get(&case.name).unwrap_or(&no_rows);
            compare_rows("lint.csv", &lint_rows, Some(want_lint), &mut problems);
            compare_rows(
                "synth_summary.csv",
                &synth_rows,
                self.synth.get(&case.name),
                &mut problems,
            );
            tracer.close(check, &[]);

            findings_n += lint_rows.len() as u64;
            leaves_n += case_leaves;
            states += case_states;
            out.finish(&item, hash64(&(&lint_rows, &synth_rows)), problems);
            tracer.close(span, &[]);
        }
        out.count("findings", findings_n);
        out.count("leaves", leaves_n);
        out.count("states", states);
    }
}

fn strings<const N: usize>(values: [usize; N]) -> Vec<String> {
    values.iter().map(ToString::to_string).collect()
}

/// Compare verdict tuples with the reference rows of the same case.
fn compare_rows(
    what: &str,
    got: &[Vec<String>],
    want: Option<&Vec<Vec<String>>>,
    problems: &mut Vec<String>,
) {
    let Some(want) = want else {
        problems.push(format!("{what}: no committed reference row"));
        return;
    };
    if got == want.as_slice() {
        return;
    }
    let at = got
        .iter()
        .zip(want)
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.len().min(want.len()));
    problems.push(format!(
        "{what}: row {} differs: got {:?}, reference {:?}",
        at + 1,
        got.get(at),
        want.get(at)
    ));
}
