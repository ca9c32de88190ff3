//! End-to-end guarantees of the delegation-lock suite (`dlock`), at
//! reduced depth:
//!
//! 1. **Engine equivalence** — every delegation design (FFWD, DSynch,
//!    RCL, flat combining, CC-Synch) in both response modes, plus the MCS
//!    baseline, produces identical cycles, stall attribution, latency
//!    histograms, fairness, and subversion counters under the
//!    event-driven engine and the lockstep oracle, at 1 and 4 clients
//!    across the platform grid, and at 8 and 16 occupied cores on the two
//!    platforms that have them — enough clients queued behind one server or
//!    combiner that a waiting client polls for hundreds of iterations.
//! 2. **Response-time invariants** — on every grid cell the latency
//!    quantiles are monotone (p50 ≤ p99 ≤ p999 ≤ max), fairness lies in
//!    (0, 1], and in-place locks never subvert while dedicated servers
//!    subvert everything.
//! 3. **The ladder** — the grid CSV is byte-identical serially, on four
//!    workers, cold and warm (`armbar verify dlock` checks the full-depth
//!    `results/dlock.csv` the same way).
//! 4. **Tracing** — `run_delegation_with` and `run_mcs_with` record one
//!    track per active core when asked to, and nothing otherwise.

use armbar_barriers::Barrier;
use armbar_experiments::dlock::{dlock_grid, DlockDesign, DlockRow};
use armbar_experiments::report::Table;
use armbar_experiments::sweep::{SweepCtx, SweepSpec};
use armbar_experiments::verify;
use armbar_sim::Trace;
use armbar_sim::{Engine, Platform};
use armbar_simapps::delegation_sim::{
    run_delegation_with, CsProfile, DelegationBarriers, DelegationConfig, DelegationKind,
    ResponseMode,
};
use armbar_simapps::mcs_sim::run_mcs_with;
use armbar_simapps::{DlockMetrics, McsConfig, RunOpts};

const PER_CLIENT: u64 = 6;

const EVENT: RunOpts = RunOpts {
    engine: Some(Engine::EventDriven),
    trace_capacity: None,
};
const ORACLE: RunOpts = RunOpts {
    engine: Some(Engine::LockstepOracle),
    trace_capacity: None,
};

fn platforms() -> Vec<(&'static str, Platform)> {
    vec![
        ("kunpeng916", Platform::kunpeng916()),
        ("kirin960", Platform::kirin960()),
        ("kirin970", Platform::kirin970()),
        ("raspberry_pi4", Platform::raspberry_pi4()),
        ("manycore64", Platform::manycore(64)),
    ]
}

fn assert_metrics_equal(a: &DlockMetrics, b: &DlockMetrics, what: &str) {
    assert_eq!(a.result, b.result, "{what}: throughput/stall diverged");
    assert_eq!(a.latency, b.latency, "{what}: latency histogram diverged");
    assert_eq!(a.subverted, b.subverted, "{what}: subversion diverged");
    assert!(
        (a.fairness - b.fairness).abs() < 1e-15,
        "{what}: fairness diverged"
    );
}

#[test]
fn event_engine_matches_oracle_on_every_delegation_design() {
    for (name, platform) in platforms() {
        for kind in DelegationKind::ALL {
            for mode in ResponseMode::ALL {
                for clients in [1usize, 4] {
                    // Stay within the platform's core budget (the Pi has
                    // four cores; dedicated servers occupy one more).
                    let occupied = clients + usize::from(kind.has_server_core());
                    if occupied > platform.topology.core_count() {
                        continue;
                    }
                    let cfg = DelegationConfig {
                        kind,
                        clients,
                        barriers: DelegationBarriers {
                            req: Barrier::Ldar,
                            resp: Barrier::DmbSt,
                        },
                        mode,
                        profile: CsProfile::counter(),
                        per_client: PER_CLIENT,
                        interval_nops: 0,
                    };
                    let ev = run_delegation_with(&platform, cfg, EVENT).0;
                    let or = run_delegation_with(&platform, cfg, ORACLE).0;
                    let what = format!("{name}/{}-{}/{clients}", kind.label(), mode.label());
                    assert_metrics_equal(&ev, &or, &what);
                }
            }
        }
    }
}

/// 8 and 16 occupied cores, ten requests each: with this many clients a
/// request waits behind a whole sweep or combining pass, so the poll loops
/// the small grid above leaves after a few iterations run long here.
#[test]
fn event_engine_matches_oracle_on_long_waits() {
    for (name, platform) in [
        ("kunpeng916", Platform::kunpeng916()),
        ("manycore64", Platform::manycore(64)),
    ] {
        for kind in DelegationKind::ALL {
            for mode in ResponseMode::ALL {
                for occupied in [8usize, 16] {
                    let clients = occupied - usize::from(kind.has_server_core());
                    let cfg = DelegationConfig {
                        kind,
                        clients,
                        barriers: DelegationBarriers {
                            req: Barrier::Ldar,
                            resp: Barrier::DmbSt,
                        },
                        mode,
                        profile: CsProfile::counter(),
                        per_client: 10,
                        interval_nops: 0,
                    };
                    let ev = run_delegation_with(&platform, cfg, EVENT).0;
                    let or = run_delegation_with(&platform, cfg, ORACLE).0;
                    let what = format!("{name}/{}-{}/{occupied}", kind.label(), mode.label());
                    assert_metrics_equal(&ev, &or, &what);
                }
            }
        }
    }
}

#[test]
fn event_engine_matches_oracle_on_mcs() {
    for (name, platform) in platforms() {
        for threads in [1usize, 4] {
            let cfg = McsConfig {
                threads,
                per_thread: PER_CLIENT,
                ..Default::default()
            };
            let ev = run_mcs_with(&platform, cfg, EVENT).0;
            let or = run_mcs_with(&platform, cfg, ORACLE).0;
            assert_metrics_equal(&ev, &or, &format!("{name}/mcs/{threads}"));
        }
    }
}

/// The cores that recorded at least one event, ascending.
fn tracks(trace: &Trace) -> Vec<usize> {
    let cores: std::collections::BTreeSet<usize> = trace.events().map(|s| s.event.core()).collect();
    cores.into_iter().collect()
}

#[test]
fn tracing_records_one_track_per_active_core_and_nothing_when_off() {
    let platform = Platform::kunpeng916();
    let traced = RunOpts {
        engine: None,
        trace_capacity: Some(1 << 16),
    };
    for kind in DelegationKind::ALL {
        let cfg = DelegationConfig {
            kind,
            clients: 3,
            per_client: PER_CLIENT,
            ..DelegationConfig::default_ffwd()
        };
        let active = 3 + usize::from(kind.has_server_core());
        let (on, trace) = run_delegation_with(&platform, cfg, traced);
        assert_eq!(tracks(&trace), (0..active).collect::<Vec<_>>(), "{kind:?}");
        let (off, trace) = run_delegation_with(&platform, cfg, RunOpts::default());
        assert!(trace.is_empty(), "{kind:?}: tracing was not asked for");
        assert_metrics_equal(&on, &off, &format!("{kind:?} traced vs not"));
    }
    let cfg = McsConfig {
        threads: 3,
        per_thread: PER_CLIENT,
        ..Default::default()
    };
    let (on, trace) = run_mcs_with(&platform, cfg, traced);
    assert_eq!(tracks(&trace), vec![0, 1, 2], "mcs");
    let (off, trace) = run_mcs_with(&platform, cfg, RunOpts::default());
    assert!(trace.is_empty(), "mcs: tracing was not asked for");
    assert_metrics_equal(&on, &off, "mcs traced vs not");
}

/// Run the reduced-depth grid under `ctx` and return the CSV text plus
/// each row's values.
fn grid_csv(ctx: &SweepCtx) -> (String, Vec<(String, Vec<f64>)>) {
    let mut sweep = SweepSpec::new("dlock-test");
    let rows: Vec<DlockRow> = dlock_grid(&mut sweep, PER_CLIENT);
    let r = sweep.run(ctx);
    let mut t = Table::new(
        "dlock_test",
        "determinism fixture",
        "platform/design/threads",
        vec![
            "locks/s".into(),
            "p50".into(),
            "p99".into(),
            "p999".into(),
            "max".into(),
            "fairness".into(),
            "subverted".into(),
            "stalled".into(),
        ],
        "value",
    );
    let mut out = Vec::new();
    for &(flavour, design, threads, cell) in &rows {
        let vals = r.get(cell);
        let label = format!("{flavour}/{}/{threads}", design.label());
        t.push_row(&label, vals.to_vec());
        out.push((label, vals.to_vec()));
    }
    (t.csv(), out)
}

#[test]
fn quantiles_fairness_and_subversion_hold_on_every_cell() {
    let (_, rows) = grid_csv(&SweepCtx::serial_uncached());
    assert!(!rows.is_empty());
    for (label, vals) in &rows {
        let (locks, p50, p99, p999, max) = (vals[0], vals[1], vals[2], vals[3], vals[4]);
        let (fairness, subverted) = (vals[5], vals[6]);
        assert!(locks > 0.0, "{label}: no throughput");
        assert!(
            p50 <= p99 && p99 <= p999 && p999 <= max,
            "{label}: quantiles not monotone: {p50} {p99} {p999} {max}"
        );
        assert!(max > 0.0, "{label}: empty latency histogram");
        assert!(
            fairness > 0.0 && fairness <= 1.0 + 1e-12,
            "{label}: fairness {fairness} out of (0,1]"
        );
        if label.contains("/ticket/") || label.contains("/mcs/") {
            assert_eq!(subverted, 0.0, "{label}: in-place lock subverted");
        }
        if label.contains("/ffwd-") || label.contains("/rcl-") {
            assert!(
                (subverted - 1.0).abs() < 1e-12,
                "{label}: dedicated server must execute every request"
            );
        }
        assert!(
            (0.0..=1.0 + 1e-12).contains(&subverted),
            "{label}: subverted share {subverted} out of [0,1]"
        );
    }
}

#[test]
fn dlock_csv_is_byte_identical_on_every_rung() {
    let rungs = verify::ladder(|ctx| Ok(grid_csv(ctx).0)).expect("ladder holds");
    assert!(!rungs.value.is_empty());
    assert_eq!(
        rungs.cells,
        12 * (4 + 3 + 3 + 2 + 4),
        "12 designs over the per-platform thread budgets"
    );
}

#[test]
fn design_list_covers_both_baselines_and_all_ten_delegation_variants() {
    let all = DlockDesign::all();
    assert_eq!(all.len(), 12);
    assert_eq!(all.iter().filter(|d| d.is_delegation()).count(), 10);
}
