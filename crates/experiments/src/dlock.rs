//! Delegation-lock suite with response-time science (`armbar run dlock`).
//!
//! The paper's Figure 7/8 delegation measurements report throughput only;
//! this experiment asks what each design does to *individual* requests.
//! It sweeps seven lock designs — the in-place ticket and MCS baselines
//! plus the five delegation flavours of
//! [`armbar_simapps::delegation_sim`] (FFWD, DSynch, RCL, flat combining,
//! CC-Synch), each in both Flag and Pilot response modes — across thread
//! counts on all four paper platforms and the 64-core many-core
//! descriptor.
//!
//! Every cell reports the full response-time science of
//! [`DlockMetrics`]: throughput, the per-operation completion-latency
//! quantiles (p50/p99/p999/max), Jain's fairness index over per-client
//! throughput, the combiner-subversion share (operations executed by a
//! thread other than the requester — 0 for in-place locks, 1 for
//! dedicated servers), and total barrier-stall cycles. `dlock.csv` holds
//! the grid; `dlock_summary.csv` reduces it to the delegation-vs-ticket
//! throughput ratio per (platform, threads) — the delegation win the
//! paper predicts under contention shows up as ratios above 1 at the
//! high thread counts.
//!
//! `threads` counts *cores occupied*: dedicated-server designs (FFWD,
//! RCL) spend one of them on the server, migratory combiners and the
//! in-place baselines use all of them as clients — so every design is
//! compared at an equal hardware budget.

use armbar_barriers::Barrier;
use armbar_sim::Platform;
use armbar_simapps::delegation_sim::{
    run_delegation_with, CsProfile, DelegationBarriers, DelegationConfig, DelegationKind,
    ResponseMode,
};
use armbar_simapps::mcs_sim::{run_mcs_with, McsConfig};
use armbar_simapps::ticket_sim::{run_ticket_with, TicketConfig};
use armbar_simapps::{DlockMetrics, RunOpts};

use crate::report::Table;
use crate::sweep::{CellId, SweepCtx, SweepSpec};

/// Cores each grid point occupies. Points exceeding a platform's core
/// count are skipped (the Pi has four cores, the mobile SoCs eight).
pub const THREAD_COUNTS: [usize; 4] = [2, 4, 8, 16];

/// Full-depth requests per client.
const PER_CLIENT: u64 = 30;

/// Critical-section shape shared by every design: one global line
/// read+modified plus a little ALU work, matching
/// [`CsProfile::counter`] so in-place and delegated runs do the same
/// work per operation.
const CS_LINES: u32 = 1;
const CS_NOPS: u32 = 4;

/// One lock design of the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DlockDesign {
    /// In-place ticket lock (shared grant word, global spin).
    Ticket,
    /// In-place MCS queue lock (local spin, queue handoff).
    Mcs,
    /// A delegation design under a response mode.
    Delegation(DelegationKind, ResponseMode),
}

impl DlockDesign {
    /// Every design in sweep order: the in-place baselines first, then
    /// each delegation kind in Flag and Pilot response modes.
    #[must_use]
    pub fn all() -> Vec<DlockDesign> {
        let mut v = vec![DlockDesign::Ticket, DlockDesign::Mcs];
        for kind in DelegationKind::ALL {
            for mode in ResponseMode::ALL {
                v.push(DlockDesign::Delegation(kind, mode));
            }
        }
        v
    }

    /// Stable CSV label (`ticket`, `mcs`, `ffwd-flag`, `ccsynch-pilot`, …).
    #[must_use]
    pub fn label(self) -> String {
        match self {
            DlockDesign::Ticket => "ticket".to_string(),
            DlockDesign::Mcs => "mcs".to_string(),
            DlockDesign::Delegation(kind, mode) => format!("{}-{}", kind.label(), mode.label()),
        }
    }

    /// Does this design execute requests on a core other than the
    /// requester's?
    #[must_use]
    pub fn is_delegation(self) -> bool {
        matches!(self, DlockDesign::Delegation(..))
    }
}

/// Run one design at `threads` occupied cores, `per_client` requests per
/// client, collecting the full response-time science.
#[must_use]
pub fn run_design(
    platform: &Platform,
    design: DlockDesign,
    threads: usize,
    per_client: u64,
) -> DlockMetrics {
    assert!(threads >= 2, "the suite compares contended locks");
    let opts = RunOpts::default();
    match design {
        DlockDesign::Ticket => {
            let cfg = TicketConfig {
                threads,
                global_lines: CS_LINES,
                cs_nops: CS_NOPS,
                post_nops: 0,
                release_barrier: Barrier::DmbSt,
                per_thread: per_client,
            };
            run_ticket_with(platform, cfg, opts).0
        }
        DlockDesign::Mcs => {
            let cfg = McsConfig {
                threads,
                global_lines: CS_LINES,
                cs_nops: CS_NOPS,
                post_nops: 0,
                acquire_barrier: Barrier::DmbLd,
                release_barrier: Barrier::DmbSt,
                per_thread: per_client,
            };
            run_mcs_with(platform, cfg, opts).0
        }
        DlockDesign::Delegation(kind, mode) => {
            // Dedicated-server designs spend one occupied core on the
            // server so every design runs on the same hardware budget.
            let clients = if kind.has_server_core() {
                threads - 1
            } else {
                threads
            };
            let cfg = DelegationConfig {
                kind,
                clients,
                barriers: DelegationBarriers {
                    req: Barrier::Ldar,
                    resp: Barrier::DmbSt,
                },
                mode,
                profile: CsProfile::counter(),
                per_client,
                interval_nops: 0,
            };
            run_delegation_with(platform, cfg, opts).0
        }
    }
}

/// One grid row: platform label, design, occupied cores, cell.
pub type DlockRow = (&'static str, DlockDesign, usize, CellId);

/// Declare the design × threads × platform grid on `sweep` at
/// `per_client` depth. Each cell yields `[locks/s, p50, p99, p999, max,
/// fairness, subverted share, stalled cycles]`. Shared between
/// `armbar run dlock` (full depth) and the determinism tests (reduced depth).
#[must_use]
pub fn dlock_grid(sweep: &mut SweepSpec, per_client: u64) -> Vec<DlockRow> {
    let mut rows = Vec::new();
    // The four paper profiles plus the 64-core cluster-of-clusters descriptor.
    for (name, platform) in [
        ("kunpeng916", Platform::kunpeng916()),
        ("kirin960", Platform::kirin960()),
        ("kirin970", Platform::kirin970()),
        ("rpi4", Platform::raspberry_pi4()),
        ("manycore64", Platform::manycore(64)),
    ] {
        let cores = platform.topology.core_count();
        for &threads in &THREAD_COUNTS {
            if threads > cores {
                continue;
            }
            for design in DlockDesign::all() {
                let platform = platform.clone();
                let key = sweep.key(&platform, &("dlock", design.label(), threads, per_client));
                #[allow(clippy::cast_precision_loss)]
                let cell = sweep.cell(key, move || {
                    let m = run_design(&platform, design, threads, per_client);
                    let (p50, p99, p999, max) = m.latency.summary();
                    vec![
                        m.result.locks_per_sec,
                        p50 as f64,
                        p99 as f64,
                        p999 as f64,
                        max as f64,
                        m.fairness,
                        m.subverted_share(),
                        m.result.stall.total() as f64,
                    ]
                });
                rows.push((name, design, threads, cell));
            }
        }
    }
    rows
}

/// The delegation-lock suite: the full grid plus the
/// delegation-vs-ticket summary.
#[must_use]
pub fn dlock(ctx: &SweepCtx) -> Vec<Table> {
    let mut sweep = SweepSpec::new("dlock");
    let rows = dlock_grid(&mut sweep, PER_CLIENT);
    let r = sweep.run(ctx);

    let mut grid = Table::new(
        "dlock",
        "Delegation-lock suite: throughput, latency quantiles, fairness, subversion",
        "platform/design/threads",
        vec![
            "locks/s".into(),
            "p50".into(),
            "p99".into(),
            "p999".into(),
            "max".into(),
            "fairness".into(),
            "subverted".into(),
            "stalled cycles".into(),
        ],
        "value",
    );
    for &(flavour, design, threads, cell) in &rows {
        grid.push_row(
            &format!("{flavour}/{}/{threads}", design.label()),
            r.get(cell).to_vec(),
        );
    }

    let mut summary = Table::new(
        "dlock_summary",
        "Delegation vs the in-place baselines: locks/s and the best-delegation/ticket ratio",
        "platform/threads",
        vec![
            "ticket".into(),
            "mcs".into(),
            "best delegation".into(),
            "best/ticket".into(),
        ],
        "locks/s",
    );
    let mut points: Vec<(&'static str, usize)> = Vec::new();
    for &(flavour, _, threads, _) in &rows {
        if !points.contains(&(flavour, threads)) {
            points.push((flavour, threads));
        }
    }
    for (flavour, threads) in points {
        let at = |d: DlockDesign| {
            rows.iter()
                .find(|&&(f, design, t, _)| f == flavour && design == d && t == threads)
                .map(|&(_, _, _, cell)| r.get(cell)[0])
                .expect("grid covers every (design, threads) point")
        };
        let ticket = at(DlockDesign::Ticket);
        let mcs = at(DlockDesign::Mcs);
        let best = DlockDesign::all()
            .into_iter()
            .filter(|d| d.is_delegation())
            .map(at)
            .fold(0.0f64, f64::max);
        summary.push_row(
            &format!("{flavour}/{threads}"),
            vec![ticket, mcs, best, best / ticket],
        );
    }

    vec![grid, summary]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_combination_once() {
        let mut sweep = SweepSpec::new("dlock-shape");
        let rows = dlock_grid(&mut sweep, 1);
        assert_eq!(sweep.len(), rows.len());
        let keys: std::collections::HashSet<_> =
            rows.iter().map(|&(f, d, t, _)| (f, d.label(), t)).collect();
        assert_eq!(keys.len(), rows.len(), "no duplicate grid points");
        // 12 designs; point counts follow each platform's core budget:
        // Kunpeng {2,4,8,16}, the mobile SoCs {2,4,8}, the Pi {2,4},
        // many-core {2,4,8,16}.
        assert_eq!(rows.len(), 12 * (4 + 3 + 3 + 2 + 4));
    }

    #[test]
    fn design_labels_are_unique_and_stable() {
        let labels: Vec<String> = DlockDesign::all().iter().map(|d| d.label()).collect();
        let set: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
        assert_eq!(labels[0], "ticket");
        assert_eq!(labels[1], "mcs");
        assert!(labels.contains(&"ffwd-pilot".to_string()));
        assert!(labels.contains(&"ccsynch-flag".to_string()));
    }
}
