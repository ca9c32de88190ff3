//! The experiment harness: one function per table/figure of the paper,
//! each returning [`report::Table`]s that print in the paper's shape and
//! land as CSV under `results/`.
//!
//! Experiments declare their configuration grids as [`sweep::SweepSpec`]
//! cells; the sweep engine executes independent cells on a pool of
//! `ARMBAR_JOBS` threads claiming them off one queue ([`jobs`]) and
//! memoizes completed sweeps in a content-addressed cache under
//! `results/.cache/` ([`cache`]), while keeping the CSV output
//! byte-identical to a serial run.
//!
//! [`EXPERIMENTS`] is the only place an experiment is named. The `armbar`
//! binary (`list`, `run <id…|all>`, `verify [id…]`, plus the analyzer
//! front-ends `lint`, `synth`, `lift`) drives it, and [`verify`] holds the
//! byte-identity ladder once.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench_sim;
pub mod cache;
pub mod dlock;
pub mod extension;
pub mod extract;
pub mod figures;
pub mod jobs;
pub mod lint;
pub mod manycore;
pub mod rcpc;
pub mod report;
pub mod sweep;
pub mod synth;
pub mod verify;

pub use cache::RunCache;
pub use report::Table;
pub use sweep::{SweepCtx, SweepSpec};

/// One regenerable artifact of the paper (or of the work built on it).
pub struct Experiment {
    /// What `armbar run <id>` takes; also the stem of most of its CSVs.
    pub id: &'static str,
    /// Compute the experiment's tables under a sweep context.
    pub run: fn(&SweepCtx) -> Vec<Table>,
    /// Whether two runs produce the same bytes. False only for the two
    /// experiments that time host threads, which `armbar verify` skips.
    pub deterministic: bool,
}

const fn entry(
    id: &'static str,
    run: fn(&SweepCtx) -> Vec<Table>,
    deterministic: bool,
) -> Experiment {
    Experiment {
        id,
        run,
        deterministic,
    }
}

/// Every experiment, in paper order, then the stall-attribution
/// decomposition, the litmus battery report, the barrier lint sweep, the
/// RCsc/RCpc acquire comparison, the placement synthesizer, the assembly
/// front-end gate, the many-core barrier scale-out, and the
/// delegation-lock suite.
pub const EXPERIMENTS: [Experiment; 27] = [
    entry("table1", figures::table1, true),
    entry("table2", figures::table2, true),
    entry("fig2", figures::fig2, true),
    entry("fig3", figures::fig3, true),
    entry("fig4", figures::fig4, true),
    entry("fig5", figures::fig5, true),
    entry("table3", figures::table3, true),
    entry("fig6a", figures::fig6a, true),
    entry("fig6b", figures::fig6b, true),
    entry("fig6c", figures::fig6c, true),
    entry("fig6d", figures::fig6d, false),
    entry("fig7a", figures::fig7a, true),
    entry("fig7b", figures::fig7b, true),
    entry("fig7c", figures::fig7c, true),
    entry("fig8a", figures::fig8a, true),
    entry("fig8b", figures::fig8b, true),
    entry("fig8c", figures::fig8c, true),
    entry("fig8d", figures::fig8d, false),
    entry("ext-mca", extension::ext_mca, true),
    entry("attrib", attrib_and_trace, true),
    entry("battery", figures::battery, true),
    entry("lint", lint::lint, true),
    entry("rcpc", rcpc::rcpc, true),
    entry("synth", synth::synth, true),
    entry("extract", extract::extract, true),
    entry("manycore", manycore::manycore, true),
    entry("dlock", dlock::dlock, true),
];

/// The registry entry for `id`, if there is one.
#[must_use]
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// `figures::attrib`, then — when `ARMBAR_TRACE=<path>` is set — a rerun
/// of the attribution workload with event tracing enabled, its
/// Chrome-trace JSON written to `<path>` (open it in Perfetto or
/// `chrome://tracing`). A trace that cannot be written is a warning on
/// stderr; it never fails the experiment.
fn attrib_and_trace(ctx: &SweepCtx) -> Vec<Table> {
    let tables = figures::attrib(ctx);
    if let Some(path) = std::env::var_os("ARMBAR_TRACE").map(std::path::PathBuf::from) {
        match figures::export_trace(&path) {
            Ok(()) => println!("wrote Chrome trace to {}", path.display()),
            Err(e) => eprintln!("warning: could not write trace to {}: {e}", path.display()),
        }
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_find_round_trips() {
        let ids: std::collections::HashSet<_> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), EXPERIMENTS.len());
        for e in &EXPERIMENTS {
            assert_eq!(find(e.id).map(|found| found.id), Some(e.id));
        }
        assert!(find("fig99").is_none());
    }

    #[test]
    fn only_the_host_thread_experiments_are_non_deterministic() {
        let host: Vec<_> = EXPERIMENTS
            .iter()
            .filter(|e| !e.deterministic)
            .map(|e| e.id)
            .collect();
        assert_eq!(host, ["fig6d", "fig8d"]);
    }

    /// The docs keep hand-written lists too; hold them to the registry so
    /// they cannot drift from it again.
    #[test]
    fn every_experiment_is_in_the_design_index_and_in_experiments_md() {
        let design = include_str!("../../../DESIGN.md");
        let experiments = include_str!("../../../EXPERIMENTS.md");
        for e in &EXPERIMENTS {
            let prefix = format!("| `{}` |", e.id);
            let row = design
                .lines()
                .find(|l| l.starts_with(&prefix))
                .unwrap_or_else(|| panic!("DESIGN.md experiment index has no row for {}", e.id));
            // Every `armbar-simapps::<module>` (or `::{a, b}`) a row cites
            // must be a file of that crate.
            for cite in row.split("armbar-simapps::").skip(1) {
                let modules: Vec<&str> = match cite.strip_prefix('{') {
                    Some(list) => list.split('}').next().unwrap_or("").split(',').collect(),
                    None => vec![cite],
                };
                for module in modules {
                    let module = module
                        .trim()
                        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                        .next()
                        .unwrap_or("");
                    let file = format!("{}/../simapps/src/{module}.rs", env!("CARGO_MANIFEST_DIR"));
                    assert!(
                        std::path::Path::new(&file).is_file(),
                        "DESIGN.md row `{}` cites armbar-simapps::{module}, which is no module of crates/simapps/src",
                        e.id
                    );
                }
            }
            let command = format!("`armbar run {}`", e.id);
            assert!(
                experiments.contains(&command),
                "EXPERIMENTS.md never mentions {command}"
            );
        }
    }

    #[test]
    fn table_experiments_produce_well_formed_tables() {
        // The fast (explorer-backed) experiments, exercised end to end.
        let ctx = SweepCtx::serial_uncached();
        for tables in [
            figures::table1(&ctx),
            figures::table2(&ctx),
            figures::table3(&ctx),
        ] {
            for t in tables {
                assert!(!t.rows.is_empty());
                for (_, vals) in &t.rows {
                    assert_eq!(vals.len(), t.columns.len());
                }
            }
        }
    }

    #[test]
    fn table1_reports_the_papers_verdicts() {
        let t = &figures::table1(&SweepCtx::serial_uncached())[0];
        // Row 0: MP without barriers -> SC 0, TSO 0, WMM 1.
        assert_eq!(t.rows[0].1, vec![0.0, 0.0, 1.0]);
        // Rows 1-2: fixed MP and Pilot MP are safe everywhere.
        assert_eq!(t.rows[1].1, vec![0.0, 0.0, 0.0]);
        assert_eq!(t.rows[2].1, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn table3_proves_every_cell() {
        let t = &figures::table3(&SweepCtx::serial_uncached())[0];
        assert_eq!(t.rows.len(), 4);
        for (name, vals) in &t.rows {
            assert_eq!(vals, &vec![1.0], "cell {name} must be explorer-proved");
        }
    }

    #[test]
    fn battery_report_matches_expectations() {
        let tables = figures::battery(&SweepCtx::serial_uncached());
        let t = &tables[0];
        assert!(!t.rows.is_empty());
        for (name, vals) in &t.rows {
            assert_eq!(vals[0], vals[1], "{name}: verdict must match expectation");
            assert!(vals[2] > 0.0, "{name}: states_visited must be reported");
            assert!(vals[4] > 0.0, "{name}: outcome count must be reported");
        }
    }
}
