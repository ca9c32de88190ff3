//! Many-core barrier scale-out experiment (`armbar run manycore`).
//!
//! The paper measures barriers on machines up to 64 cores; this experiment
//! asks what its placement lessons mean when the core count keeps growing.
//! It sweeps the three barrier-synchronization families of
//! [`armbar_simapps::barrier_sim`] — centralized sense-counter,
//! combining tree, and hierarchical (cluster-then-system) — across thread
//! counts from 4 to 1024 on the cluster-of-clusters
//! [`Platform::manycore`] descriptor and its MCA projection.
//!
//! The headline is the **crossover**: a centralized barrier serializes all
//! n arrival RMWs on one line's exclusive-service port, so its cost grows
//! Θ(n); the hierarchical barrier pays two shorter queues (8 per cluster
//! line in parallel, then one per cluster on the system line) plus one
//! extra release hop, so it loses at small n on pure latency and wins at
//! large n on queuing. `manycore.csv` holds the full grid;
//! `manycore_summary.csv` reduces it to cycles-per-round and the
//! centralized/hierarchical ratio per core count — the row where the ratio
//! crosses 1.0 is the crossover.

use armbar_sim::Platform;
use armbar_simapps::barrier_sim::{run_barrier, BarrierConfig, BarrierFamily};

use crate::cache::cache_key;
use crate::report::Table;
use crate::sweep::{CellId, SweepCtx, SweepSpec};

/// Thread counts the sweep visits. Machines are sized to
/// `max(64, threads)` cores (the smallest many-core descriptor), so the
/// small points measure few threads on a big machine — the regime where
/// hierarchy is pure overhead.
pub const THREAD_COUNTS: [usize; 6] = [4, 16, 64, 256, 512, 1024];

/// Full-depth rounds per cell.
const ROUNDS: u64 = 6;
/// Local work between barrier episodes.
pub(crate) const WORK_NOPS: u32 = 30;

/// The two platform flavours the grid visits: the measured-latency
/// many-core descriptor and its MCA (internally terminated barriers)
/// projection.
const FLAVOURS: [(&str, bool); 2] = [("manycore", false), ("manycore-mca", true)];

fn platform_for(threads: usize, mca: bool) -> Platform {
    let cores = threads.max(64);
    if mca {
        Platform::manycore_mca(cores)
    } else {
        Platform::manycore(cores)
    }
}

/// One grid row: platform flavour, barrier family, thread count, cell.
pub type ManycoreRow = (&'static str, BarrierFamily, usize, CellId);

/// Declare the full family × thread-count × platform grid on `sweep` at
/// `rounds` depth. Each cell yields `[cycles/round, barriers/s, stalled
/// cycles]`. Shared between `armbar run manycore` (full depth) and the
/// determinism/differential tests (reduced depth).
#[must_use]
pub fn manycore_grid(sweep: &mut SweepSpec, rounds: u64) -> Vec<ManycoreRow> {
    let mut rows = Vec::new();
    for (flavour, mca) in FLAVOURS {
        for &threads in &THREAD_COUNTS {
            for family in BarrierFamily::ALL {
                let platform = platform_for(threads, mca);
                let key = cache_key(
                    &platform,
                    &("manycore", family.label(), threads, rounds, WORK_NOPS),
                );
                let cell = sweep.cell(key, move || {
                    let r = run_barrier(
                        &platform,
                        BarrierConfig {
                            family,
                            threads,
                            rounds,
                            work_nops: WORK_NOPS,
                        },
                    );
                    vec![
                        r.cycles_per_round,
                        r.barriers_per_sec,
                        r.stall.total() as f64,
                    ]
                });
                rows.push((flavour, family, threads, cell));
            }
        }
    }
    rows
}

/// The many-core barrier scale-out sweep: the full grid plus the
/// crossover summary.
#[must_use]
pub fn manycore(ctx: &SweepCtx) -> Vec<Table> {
    let mut sweep = SweepSpec::new("manycore");
    let rows = manycore_grid(&mut sweep, ROUNDS);
    let r = sweep.run(ctx);

    let mut grid = Table::new(
        "manycore",
        "Barrier families at scale: cycles per round / barriers per second / stalled cycles",
        "platform/family/threads",
        vec![
            "cycles/round".into(),
            "barriers/s".into(),
            "stalled cycles".into(),
        ],
        "value",
    );
    for &(flavour, family, threads, cell) in &rows {
        let vals = r.get(cell);
        grid.push_row(
            &format!("{flavour}/{}/{threads}", family.label()),
            vals.to_vec(),
        );
    }

    let mut summary = Table::new(
        "manycore_summary",
        "Crossover on the measured many-core profile: centralized vs hierarchical cycles per round",
        "threads",
        vec![
            "centralized".into(),
            "tree".into(),
            "hierarchical".into(),
            "centralized/hierarchical".into(),
        ],
        "cycles/round",
    );
    for &threads in &THREAD_COUNTS {
        let per_round = |family: BarrierFamily| {
            rows.iter()
                .find(|&&(f, fam, t, _)| f == "manycore" && fam == family && t == threads)
                .map(|&(_, _, _, cell)| r.get(cell)[0])
                .expect("grid covers every (family, threads) point")
        };
        let central = per_round(BarrierFamily::Centralized);
        let tree = per_round(BarrierFamily::CombiningTree);
        let hier = per_round(BarrierFamily::Hierarchical);
        summary.push_row(
            &format!("{threads}"),
            vec![central, tree, hier, central / hier],
        );
    }

    vec![grid, summary]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_combination_once() {
        let mut sweep = SweepSpec::new("manycore-shape");
        let rows = manycore_grid(&mut sweep, 1);
        assert_eq!(rows.len(), 2 * THREAD_COUNTS.len() * 3);
        assert_eq!(sweep.len(), rows.len());
        let keys: std::collections::HashSet<_> = rows
            .iter()
            .map(|&(f, fam, t, _)| (f, fam.label(), t))
            .collect();
        assert_eq!(keys.len(), rows.len(), "no duplicate grid points");
    }
}
