//! One function per paper artifact, producing [`Table`]s.
//!
//! Simulator- and explorer-backed experiments declare their configuration
//! grids as [`SweepSpec`] cells and run on the sweep engine: independent
//! cells execute on the worker pool and memoize in the run cache, and the
//! tables are assembled in declaration order, so the output is identical
//! whatever the worker count. Three artifacts stay off the engine:
//! `table2` only reads profile fields, and the two host-threaded
//! macro-benchmarks (`fig6d` dedup, `fig8d` floorplan) measure wall-clock
//! time, which is neither deterministic nor cacheable (and mostly reflects
//! single-core compute on a 1-CPU host — see `EXPERIMENTS.md`).

use armbar_barriers::{AccessType, Barrier};
use armbar_sim::{Platform, PlatformKind, StallBreakdown};
use armbar_simapps::abstract_model::{run_model, BarrierLoc, ModelSpec};
use armbar_simapps::bind::BindConfig;
use armbar_simapps::delegation_sim::{
    run_delegation, CsProfile, DelegationBarriers, DelegationConfig, DelegationKind, ResponseMode,
    FIG7B_COMBOS,
};
use armbar_simapps::prodcons::{run_prodcons, PcBarriers, PcVariant, FIG6A_COMBOS};
use armbar_simapps::ticket_sim::{run_ticket, run_ticket_with, TicketConfig};
use armbar_simapps::RunOpts;
use armbar_wmm::battery::battery_runs;
use armbar_wmm::litmus::{approach_suffices, message_passing, pilot_message_passing};
use armbar_wmm::model::MemoryModel;

use crate::cache::model_key;
use crate::report::Table;
use crate::sweep::{CellId, SweepCtx, SweepSpec};

/// Iterations used by the abstract-model sweeps.
const MODEL_ITERS: u64 = 500;
/// Messages per producer-consumer run.
const PC_MSGS: u64 = 400;
/// Row order shared by the five lock-variant experiments.
const LOCKS: [&str; 5] = ["Ticket", "DSynch", "DSynch-P", "FFWD", "FFWD-P"];

fn bool_num(b: bool) -> f64 {
    f64::from(u8::from(b))
}

// ------------------------------------------------------------ sweep cells

/// One abstract-model row: `loops_per_sec` of each spec under `bind`.
fn model_row(sweep: &mut SweepSpec, bind: BindConfig, specs: Vec<ModelSpec>, iters: u64) -> CellId {
    let key = sweep.key(&bind.platform(), &(bind, &specs, iters));
    sweep.cell(key, move || {
        specs
            .iter()
            .map(|&s| run_model(bind, s, iters).loops_per_sec)
            .collect()
    })
}

/// One producer-consumer configuration's `msgs_per_sec`.
fn prodcons_cell(
    sweep: &mut SweepSpec,
    bind: BindConfig,
    variant: PcVariant,
    messages: u64,
    batch: u64,
    produce_nops: u32,
) -> CellId {
    let key = sweep.key(
        &bind.platform(),
        &(bind, variant, messages, batch, produce_nops),
    );
    sweep.cell(key, move || {
        vec![run_prodcons(bind, variant, messages, batch, produce_nops).msgs_per_sec]
    })
}

/// One ticket-lock configuration's `locks_per_sec`.
fn ticket_cell(sweep: &mut SweepSpec, platform: &Platform, cfg: TicketConfig) -> CellId {
    let key = sweep.key(platform, &cfg);
    let platform = platform.clone();
    sweep.cell(key, move || vec![run_ticket(&platform, cfg).locks_per_sec])
}

/// One delegation-lock configuration's `locks_per_sec`.
fn delegation_cell(sweep: &mut SweepSpec, platform: &Platform, cfg: DelegationConfig) -> CellId {
    let key = sweep.key(platform, &cfg);
    let platform = platform.clone();
    sweep.cell(key, move || {
        vec![run_delegation(&platform, cfg).locks_per_sec]
    })
}

// ------------------------------------------------------------------ tables

/// Table 1: MP behaviour under TSO and WMM (1 = outcome reachable).
#[must_use]
pub fn table1(ctx: &SweepCtx) -> Vec<Table> {
    const MODELS: [MemoryModel; 3] = [MemoryModel::Sc, MemoryModel::X86Tso, MemoryModel::ArmWmm];
    let mut sweep = SweepSpec::new("table1");
    let mut rows = Vec::new();
    for (label, tag, test) in [
        (
            "MP, no barriers",
            "mp-none",
            message_passing(Barrier::None, Barrier::None),
        ),
        (
            "MP, DMB st + DMB ld",
            "mp-fixed",
            message_passing(Barrier::DmbSt, Barrier::DmbLd),
        ),
        (
            "MP via Pilot, no barriers",
            "mp-pilot",
            pilot_message_passing(),
        ),
    ] {
        let key = model_key(&("table1", tag, &test.program, MODELS));
        let id = sweep.cell(key, move || {
            MODELS.iter().map(|&m| bool_num(test.allowed(m))).collect()
        });
        rows.push((label, id));
    }
    let r = sweep.run(ctx);
    let mut t = Table::new(
        "table1",
        "Different behaviors in TSO and WMM (Table 1): reachability of local != 23",
        "model",
        vec!["SC".into(), "x86-TSO".into(), "ARM WMM".into()],
        "1 = allowed, 0 = forbidden",
    );
    for (label, id) in rows {
        t.push_row(label, r.get(id).to_vec());
    }
    vec![t]
}

/// Table 2: the platform profiles. Pure field reads — no sweep needed.
#[must_use]
pub fn table2(_ctx: &SweepCtx) -> Vec<Table> {
    let mut t = Table::new(
        "table2",
        "Target platforms (simulated profiles)",
        "platform",
        vec![
            "cores".into(),
            "nodes".into(),
            "clock MHz".into(),
            "t_cross_node".into(),
            "t_membar_dom".into(),
            "t_syncbar".into(),
        ],
        "cycles unless noted",
    );
    for kind in PlatformKind::ALL {
        let p = Platform::of(kind);
        t.push_row(
            kind.name(),
            vec![
                p.topology.core_count() as f64,
                p.topology.node_count() as f64,
                p.latency.clock_mhz as f64,
                p.latency.t_cross_node as f64,
                p.latency.t_membar_domain as f64,
                p.latency.t_syncbar as f64,
            ],
        );
    }
    vec![t]
}

/// Table 3: the advisor's recommendations, with explorer verdicts that each
/// preferred approach forbids the relaxed outcome (one with no place in its
/// cell's litmus shape fails the verdict).
#[must_use]
pub fn table3(ctx: &SweepCtx) -> Vec<Table> {
    use armbar_barriers::advisor::{recommend, Approach, OrderReq};
    let mut sweep = SweepSpec::new("table3");
    let mut cells = Vec::new();
    for earlier in [AccessType::Load, AccessType::Store] {
        for later in [AccessType::Load, AccessType::Store] {
            let rec = recommend(OrderReq::pair(earlier, later));
            let mut names = Vec::new();
            let mut barriers = Vec::new();
            for a in &rec.preferred {
                let b = match a {
                    Approach::Use(b) => *b,
                    Approach::MeasureAgainst { candidate, .. } => *candidate,
                };
                names.push(format!("{a}"));
                barriers.push(b);
            }
            let key = model_key(&("table3", earlier, later, &barriers));
            let id = sweep.cell(key, move || {
                let all_ok = barriers
                    .iter()
                    .all(|&b| approach_suffices(earlier, later, b) == Some(true));
                vec![bool_num(all_ok)]
            });
            cells.push((earlier, later, names, id));
        }
    }
    let r = sweep.run(ctx);
    let mut t = Table::new(
        "table3",
        "Suggested order-preserving approaches; explorer verdict per cell",
        "from -> to",
        vec!["verdict (1=proved)".into()],
        "see stdout for the suggestions",
    );
    for (earlier, later, names, id) in cells {
        println!("  {earlier} -> {later}: {}", names.join(", "));
        t.push_row(&format!("{earlier} -> {later}"), vec![r.scalar(id)]);
    }
    vec![t]
}

// ----------------------------------------------------------------- figure 2

/// Figure 2: intrinsic overhead of barriers (no memory operations).
#[must_use]
pub fn fig2(ctx: &SweepCtx) -> Vec<Table> {
    let nop_counts = [10u32, 30, 60];
    let barriers = [
        Barrier::None,
        Barrier::DmbFull,
        Barrier::DmbLd,
        Barrier::DmbSt,
        Barrier::DsbFull,
        Barrier::DsbLd,
        Barrier::DsbSt,
        Barrier::Isb,
    ];
    let binds = [
        ("fig2a", BindConfig::KunpengSameNode, "Kunpeng916"),
        ("fig2b", BindConfig::Kirin960, "Kirin960"),
        ("fig2c", BindConfig::Kirin970, "Kirin970"),
        ("fig2d", BindConfig::RaspberryPi4, "Raspberry Pi 4"),
    ];
    let mut sweep = SweepSpec::new("fig2");
    let mut plans = Vec::new();
    for (id, bind, name) in binds {
        let rows: Vec<(&str, CellId)> = barriers
            .iter()
            .map(|&b| {
                let specs = nop_counts
                    .iter()
                    .map(|&n| ModelSpec::no_mem(b, n))
                    .collect();
                (
                    b.mnemonic(),
                    model_row(&mut sweep, bind, specs, MODEL_ITERS),
                )
            })
            .collect();
        plans.push((id, name, rows));
    }
    let r = sweep.run(ctx);
    plans
        .into_iter()
        .map(|(id, name, rows)| {
            let mut t = Table::new(
                id,
                &format!("Intrinsic barrier overhead, {name} (Figure 2)"),
                "barrier",
                nop_counts.iter().map(|n| n.to_string()).collect(),
                "loops/s",
            );
            for (label, cell) in rows {
                t.push_row(label, r.get(cell).to_vec());
            }
            t
        })
        .collect()
}

// ----------------------------------------------------------------- figure 3

/// The series Figures 3 and 5 share: no barrier, then the full and the
/// one-sided (`dmb`, `dsb`) DMB and DSB, each after the first access (`-1`)
/// and before the second (`-2`).
fn placed_series(dmb: Barrier, dsb: Barrier) -> Vec<(String, Barrier, BarrierLoc)> {
    let mut series = vec![("No Barrier".into(), Barrier::None, BarrierLoc::BeforeOp2)];
    for b in [Barrier::DmbFull, dmb, Barrier::DsbFull, dsb] {
        series.push((format!("{}-1", b.mnemonic()), b, BarrierLoc::AfterOp1));
        series.push((format!("{}-2", b.mnemonic()), b, BarrierLoc::BeforeOp2));
    }
    series
}

/// Declare the store→store rows of Figure 3 for one placement: one cell
/// per series, each sweeping the `nops` axis. Public so the determinism
/// test and the `sweep_scaling` bench can run the Kunpeng916 grid at
/// reduced iteration counts.
pub fn fig3_grid(
    sweep: &mut SweepSpec,
    bind: BindConfig,
    nops: &[u32],
    iters: u64,
) -> Vec<(String, CellId)> {
    let mut series = placed_series(Barrier::DmbSt, Barrier::DsbSt);
    series.push(("STLR".into(), Barrier::Stlr, BarrierLoc::BeforeOp2));
    series
        .into_iter()
        .map(|(label, b, loc)| {
            let specs = nops
                .iter()
                .map(|&n| ModelSpec::store_store(b, loc, n))
                .collect();
            (label, model_row(sweep, bind, specs, iters))
        })
        .collect()
}

/// Figure 3(a–e): the store→store model under all five placements.
#[must_use]
pub fn fig3(ctx: &SweepCtx) -> Vec<Table> {
    let plans: [(&str, BindConfig, &str, &[u32]); 5] = [
        (
            "fig3a",
            BindConfig::KunpengSameNode,
            "Kunpeng916 same node",
            &[10, 150, 700],
        ),
        (
            "fig3b",
            BindConfig::KunpengCrossNodes,
            "Kunpeng916 cross nodes",
            &[10, 150, 700],
        ),
        (
            "fig3c",
            BindConfig::Kirin960,
            "Kirin960 big cluster",
            &[10, 30, 60],
        ),
        (
            "fig3d",
            BindConfig::Kirin970,
            "Kirin970 big cluster",
            &[10, 30, 60],
        ),
        (
            "fig3e",
            BindConfig::RaspberryPi4,
            "Raspberry Pi 4",
            &[10, 30, 60],
        ),
    ];
    let mut sweep = SweepSpec::new("fig3");
    let grids: Vec<_> = plans
        .iter()
        .map(|&(id, bind, name, nops)| {
            (
                id,
                name,
                nops,
                fig3_grid(&mut sweep, bind, nops, MODEL_ITERS),
            )
        })
        .collect();
    let r = sweep.run(ctx);
    grids
        .into_iter()
        .map(|(id, name, nops, rows)| {
            let mut t = Table::new(
                id,
                &format!("Store->store abstracted model, {name} (Figure 3)"),
                "series",
                nops.iter().map(|n| n.to_string()).collect(),
                "loops/s",
            );
            for (label, cell) in rows {
                t.push_row(&label, r.get(cell).to_vec());
            }
            t
        })
        .collect()
}

// ----------------------------------------------------------------- figure 4

/// Figure 4: the tipping point where nops hide DMB full-2 entirely, and the
/// full-1 : full-2 throughput ratio there (paper: ≈ 1/2).
#[must_use]
pub fn fig4(ctx: &SweepCtx) -> Vec<Table> {
    const CANDIDATES: [u32; 9] = [50, 100, 150, 200, 300, 500, 700, 1000, 1500];
    const THRESHOLD: f64 = 0.9;
    const ITERS: u64 = 600;
    let binds = [
        (BindConfig::KunpengSameNode, "Kunpeng916 same node"),
        (BindConfig::KunpengCrossNodes, "Kunpeng916 cross nodes"),
    ];
    // Phase 1: no-barrier and DMB full-2 throughput at every candidate (the
    // serial code scanned the same pairs one by one until the threshold).
    let mut scan = SweepSpec::new("fig4-scan");
    let pairs: Vec<Vec<(u32, CellId, CellId)>> = binds
        .iter()
        .map(|&(bind, _)| {
            CANDIDATES
                .iter()
                .map(|&n| {
                    let mut row = |b| {
                        let spec = vec![ModelSpec::store_store(b, BarrierLoc::BeforeOp2, n)];
                        model_row(&mut scan, bind, spec, ITERS)
                    };
                    (n, row(Barrier::None), row(Barrier::DmbFull))
                })
                .collect()
        })
        .collect();
    let scanned = scan.run(ctx);
    // The tipping decision, applied to the completed grid.
    let tipping: Vec<Option<(u32, f64)>> = pairs
        .iter()
        .map(|cands| {
            cands.iter().find_map(|&(n, none, full2)| {
                let full2 = scanned.scalar(full2);
                (full2 >= THRESHOLD * scanned.scalar(none)).then_some((n, full2))
            })
        })
        .collect();
    // Phase 2: DMB full-1 throughput, only at each placement's tipping point.
    let mut confirm = SweepSpec::new("fig4-confirm");
    let full1: Vec<Option<CellId>> = binds
        .iter()
        .zip(&tipping)
        .map(|(&(bind, _), tip)| {
            tip.map(|(n, _)| {
                let spec = vec![ModelSpec::store_store(
                    Barrier::DmbFull,
                    BarrierLoc::AfterOp1,
                    n,
                )];
                model_row(&mut confirm, bind, spec, ITERS)
            })
        })
        .collect();
    let confirmed = confirm.run(ctx);
    let mut t = Table::new(
        "fig4",
        "Tipping point: nops that hide DMB full-2; ratio full-1/full-2 there (Figure 4)",
        "placement",
        vec!["tipping nops".into(), "full1/full2 ratio".into()],
        "nops / ratio",
    );
    for ((&(_, name), tip), full1) in binds.iter().zip(&tipping).zip(full1) {
        match (tip, full1) {
            (Some((n, full2)), Some(id)) => {
                t.push_row(name, vec![f64::from(*n), confirmed.scalar(id) / full2]);
            }
            _ => t.push_row(name, vec![f64::NAN, f64::NAN]),
        }
    }
    vec![t]
}

// ----------------------------------------------------------------- figure 5

/// Figure 5: load→store model, threads across NUMA nodes on Kunpeng916.
#[must_use]
pub fn fig5(ctx: &SweepCtx) -> Vec<Table> {
    let nops = [300u32, 500];
    let bind = BindConfig::KunpengCrossNodes;
    let mut series = placed_series(Barrier::DmbLd, Barrier::DsbLd);
    series.push(("LDAR".into(), Barrier::Ldar, BarrierLoc::AfterOp1));
    series.push(("STLR".into(), Barrier::Stlr, BarrierLoc::BeforeOp2));
    series.push(("CTRL".into(), Barrier::Ctrl, BarrierLoc::BeforeOp2));
    series.push(("CTRL+ISB".into(), Barrier::CtrlIsb, BarrierLoc::AfterOp1));
    series.push(("DATA DEP".into(), Barrier::DataDep, BarrierLoc::BeforeOp2));
    series.push(("ADDR DEP".into(), Barrier::AddrDep, BarrierLoc::BeforeOp2));
    let mut sweep = SweepSpec::new("fig5");
    let rows: Vec<(String, CellId)> = series
        .into_iter()
        .map(|(label, b, loc)| {
            let specs = nops
                .iter()
                .map(|&n| ModelSpec::load_store(b, loc, n))
                .collect();
            (label, model_row(&mut sweep, bind, specs, MODEL_ITERS))
        })
        .collect();
    let r = sweep.run(ctx);
    let mut t = Table::new(
        "fig5",
        "Load->store abstracted model, Kunpeng916 cross nodes (Figure 5)",
        "series",
        nops.iter().map(|n| n.to_string()).collect(),
        "loops/s",
    );
    for (label, cell) in rows {
        t.push_row(&label, r.get(cell).to_vec());
    }
    vec![t]
}

// ----------------------------------------------------------------- figure 6

/// Figure 6(a): producer-consumer throughput, normalized to the
/// conservative DMB full - DMB full combination.
#[must_use]
pub fn fig6a(ctx: &SweepCtx) -> Vec<Table> {
    let mut sweep = SweepSpec::new("fig6a");
    let combos: Vec<(&str, Vec<CellId>)> = FIG6A_COMBOS
        .iter()
        .map(|&(name, combo)| {
            let ids = BindConfig::ALL
                .iter()
                .map(|&bind| {
                    prodcons_cell(&mut sweep, bind, PcVariant::Baseline(combo), PC_MSGS, 1, 40)
                })
                .collect();
            (name, ids)
        })
        .collect();
    let r = sweep.run(ctx);
    let mut t = Table::new(
        "fig6a",
        "Producer-consumer barrier combinations, normalized to DMB full - DMB full (Figure 6a)",
        "combination",
        BindConfig::ALL
            .iter()
            .map(|b| b.label().to_string())
            .collect(),
        "normalized throughput",
    );
    let base: Vec<f64> = combos[0].1.iter().map(|&id| r.scalar(id)).collect();
    for (name, ids) in combos {
        t.push_row(
            name,
            ids.iter()
                .zip(&base)
                .map(|(&id, b)| r.scalar(id) / b)
                .collect(),
        );
    }
    vec![t]
}

/// Figure 6(b): Pilot vs the best baseline vs Theoretical vs Ideal.
#[must_use]
pub fn fig6b(ctx: &SweepCtx) -> Vec<Table> {
    let baseline = |avail, publish| PcVariant::Baseline(PcBarriers { avail, publish });
    let pilot = PcVariant::Pilot {
        avail: Barrier::DmbLd,
    };
    let variants: [(&str, PcVariant); 4] = [
        ("DMB ld - DMB st", baseline(Barrier::DmbLd, Barrier::DmbSt)),
        ("Theoretical", baseline(Barrier::DmbLd, Barrier::None)),
        ("Pilot", pilot),
        ("Ideal", baseline(Barrier::None, Barrier::None)),
    ];
    let mut sweep = SweepSpec::new("fig6b");
    let rows: Vec<(&str, Vec<CellId>)> = variants
        .iter()
        .map(|&(name, v)| {
            let ids = BindConfig::ALL
                .iter()
                .map(|&bind| prodcons_cell(&mut sweep, bind, v, PC_MSGS, 1, 40))
                .collect();
            (name, ids)
        })
        .collect();
    let r = sweep.run(ctx);
    let mut t = Table::new(
        "fig6b",
        "Producer-consumer after applying Pilot (Figure 6b)",
        "variant",
        BindConfig::ALL
            .iter()
            .map(|b| b.label().to_string())
            .collect(),
        "messages/s",
    );
    for (name, ids) in rows {
        t.push_row(name, ids.iter().map(|&id| r.scalar(id)).collect());
    }
    vec![t]
}

/// Figure 6(c): Pilot speedup over the best baseline as messages batch.
#[must_use]
pub fn fig6c(ctx: &SweepCtx) -> Vec<Table> {
    let batches = [1u64, 2, 4];
    let pilot = PcVariant::Pilot {
        avail: Barrier::DmbLd,
    };
    let baseline = PcVariant::Baseline(PcBarriers {
        avail: Barrier::DmbLd,
        publish: Barrier::DmbSt,
    });
    let mut sweep = SweepSpec::new("fig6c");
    let rows: Vec<(BindConfig, Vec<(CellId, CellId)>)> = BindConfig::ALL
        .iter()
        .map(|&bind| {
            let ids = batches
                .iter()
                .map(|&batch| {
                    (
                        prodcons_cell(&mut sweep, bind, pilot, PC_MSGS, batch, 10),
                        prodcons_cell(&mut sweep, bind, baseline, PC_MSGS, batch, 10),
                    )
                })
                .collect();
            (bind, ids)
        })
        .collect();
    let r = sweep.run(ctx);
    let mut t = Table::new(
        "fig6c",
        "Pilot speedup vs batched message size (Figure 6c; batch capped by the sim ring)",
        "placement",
        batches.iter().map(|b| format!("{b}x8B")).collect(),
        "speedup (Pilot / DMB ld-DMB st)",
    );
    for (bind, ids) in rows {
        t.push_row(
            bind.label(),
            ids.iter()
                .map(|&(p, b)| r.scalar(p) / r.scalar(b))
                .collect(),
        );
    }
    vec![t]
}

/// Figure 6(d): dedup compress speed, Q vs RB vs RB-P (host threads;
/// wall-clock — noisy on a 1-CPU host, so neither parallelized across
/// configurations nor cached).
#[must_use]
pub fn fig6d(_ctx: &SweepCtx) -> Vec<Table> {
    use armbar_dedup::{generate_input, run_pipeline, QueueKind, WorkloadSize};
    let mut t = Table::new(
        "fig6d",
        "PARSEC-dedup-like pipeline compress speed, normalized to the lock-based queue (Figure 6d)",
        "queue",
        WorkloadSize::BENCH
            .iter()
            .map(|s| s.label().to_string())
            .collect(),
        "normalized MB/s (host wall-clock)",
    );
    let mut speeds: Vec<(QueueKind, Vec<f64>)> = Vec::new();
    for kind in QueueKind::ALL {
        let vals = WorkloadSize::BENCH
            .iter()
            .map(|&size| {
                let input = generate_input(size, 40, 0xDED0);
                let (archive, stats) = run_pipeline(&input, kind);
                assert_eq!(archive.unpack().expect("archive intact"), input);
                stats.mb_per_s
            })
            .collect();
        speeds.push((kind, vals));
    }
    let base = speeds[0].1.clone();
    for (kind, vals) in speeds {
        t.push_row(
            kind.label(),
            vals.iter().zip(&base).map(|(v, b)| v / b).collect(),
        );
    }
    vec![t]
}

// ----------------------------------------------------------------- figure 7

/// Figure 7(a): ticket lock, unlock-barrier overhead vs global lines in the
/// critical section, normalized per platform to the "Normal" barrier.
#[must_use]
pub fn fig7a(ctx: &SweepCtx) -> Vec<Table> {
    let lines = [0u32, 1, 2];
    let platforms: [(&str, Platform, usize); 4] = [
        ("Kunpeng916", Platform::kunpeng916(), 16),
        ("Kirin960", Platform::kirin960(), 4),
        ("Kirin970", Platform::kirin970(), 4),
        ("Raspberry Pi 4", Platform::raspberry_pi4(), 4),
    ];
    let mut sweep = SweepSpec::new("fig7a");
    let rows: Vec<(&str, Vec<(CellId, CellId)>)> = platforms
        .iter()
        .map(|(name, platform, threads)| {
            let ids = lines
                .iter()
                .map(|&global_lines| {
                    let cfg = |release_barrier| TicketConfig {
                        threads: *threads,
                        global_lines,
                        cs_nops: 10,
                        post_nops: 20,
                        release_barrier,
                        per_thread: 40,
                    };
                    (
                        ticket_cell(&mut sweep, platform, cfg(Barrier::None)),
                        ticket_cell(&mut sweep, platform, cfg(Barrier::DmbSt)),
                    )
                })
                .collect();
            (*name, ids)
        })
        .collect();
    let r = sweep.run(ctx);
    let mut t = Table::new(
        "fig7a",
        "Ticket lock: unlock barrier removed vs normal (Figure 7a)",
        "platform",
        lines.iter().map(|l| format!("{l} lines")).collect(),
        "throughput gain from removing the unlock barrier",
    );
    for (name, ids) in rows {
        t.push_row(
            name,
            ids.iter()
                .map(|&(none, dmb)| r.scalar(none) / r.scalar(dmb))
                .collect(),
        );
    }
    vec![t]
}

/// Figure 7(b): delegation-lock barrier combinations on Kunpeng916,
/// normalized to DMB full-DMB st.
#[must_use]
pub fn fig7b(ctx: &SweepCtx) -> Vec<Table> {
    let platform = Platform::kunpeng916();
    let mut sweep = SweepSpec::new("fig7b");
    let rows: Vec<(&str, CellId)> = FIG7B_COMBOS
        .iter()
        .map(|&(name, barriers)| {
            let cfg = DelegationConfig {
                kind: DelegationKind::Ffwd,
                clients: 16,
                barriers,
                mode: ResponseMode::Flag,
                profile: CsProfile::counter(),
                per_client: 40,
                interval_nops: 0,
            };
            (name, delegation_cell(&mut sweep, &platform, cfg))
        })
        .collect();
    let r = sweep.run(ctx);
    let mut t = Table::new(
        "fig7b",
        "Delegation lock (FFWD) barrier combinations, Kunpeng916 (Figure 7b)",
        "combination",
        vec!["throughput".into(), "normalized".into()],
        "requests/s",
    );
    let base = r.scalar(rows[0].1);
    for (name, id) in rows {
        let v = r.scalar(id);
        t.push_row(name, vec![v, v / base]);
    }
    vec![t]
}

/// Figure 7(c): the five lock variants across contention intervals.
#[must_use]
pub fn fig7c(ctx: &SweepCtx) -> Vec<Table> {
    let platform = Platform::kunpeng916();
    // The paper sweeps 10^n * 128 nops; large exponents are scaled down to
    // keep simulated time tractable.
    let intervals: [(&str, u32); 4] = [("0", 128), ("1", 1280), ("2", 12_800), ("3", 128_000)];
    let mut sweep = SweepSpec::new("fig7c");
    let cols: Vec<Vec<CellId>> = intervals
        .iter()
        .map(|&(_, nops)| {
            let per = if nops >= 100_000 { 8 } else { 20 };
            fig8_variant_cells(
                &mut sweep,
                &platform,
                CsProfile::counter(),
                12,
                per,
                nops,
                nops,
            )
        })
        .collect();
    let r = sweep.run(ctx);
    let mut t = Table::new(
        "fig7c",
        "Delegation locks with Pilot vs contention interval 10^n*128 nops (Figure 7c)",
        "lock",
        intervals.iter().map(|(n, _)| format!("10^{n}")).collect(),
        "requests/s",
    );
    for (li, lock) in LOCKS.iter().enumerate() {
        t.push_row(lock, cols.iter().map(|col| r.scalar(col[li])).collect());
    }
    vec![t]
}

// ----------------------------------------------------------------- figure 8

/// Declare the five lock variants of Figures 7(c) and 8 over one
/// critical-section profile: one cell per variant, in [`LOCKS`] order.
/// `post_nops` is the ticket holder's work after each release,
/// `interval_nops` a delegation client's work between requests.
fn fig8_variant_cells(
    sweep: &mut SweepSpec,
    platform: &Platform,
    profile: CsProfile,
    clients: usize,
    per: u64,
    post_nops: u32,
    interval_nops: u32,
) -> Vec<CellId> {
    let best = DelegationBarriers {
        req: Barrier::Ldar,
        resp: Barrier::DmbSt,
    };
    let mk = |kind, mode| DelegationConfig {
        kind,
        clients,
        barriers: best,
        mode,
        profile,
        per_client: per,
        interval_nops,
    };
    let ticket = TicketConfig {
        threads: clients,
        global_lines: profile.lines + profile.chase / 8,
        cs_nops: profile.nops + profile.chase * 2,
        post_nops,
        release_barrier: Barrier::DmbSt,
        per_thread: per,
    };
    let mut cells = vec![ticket_cell(sweep, platform, ticket)];
    for kind in [DelegationKind::DSynch, DelegationKind::Ffwd] {
        for mode in [ResponseMode::Flag, ResponseMode::Pilot] {
            cells.push(delegation_cell(sweep, platform, mk(kind, mode)));
        }
    }
    cells
}

/// Figure 8(a): queue and stack under a global lock.
#[must_use]
pub fn fig8a(ctx: &SweepCtx) -> Vec<Table> {
    let platform = Platform::kunpeng916();
    let mut sweep = SweepSpec::new("fig8a");
    // Queue and stack share one profile, so one set of cells fills both
    // columns.
    let profile = CsProfile::queue_or_stack();
    let cells = fig8_variant_cells(&mut sweep, &platform, profile, 12, 30, 10, 0);
    let r = sweep.run(ctx);
    let mut t = Table::new(
        "fig8a",
        "Queue and stack under a global lock (Figure 8a)",
        "lock",
        vec!["Queue".into(), "Stack".into()],
        "ops/s",
    );
    for (i, lock) in LOCKS.iter().enumerate() {
        let ops = r.scalar(cells[i]);
        t.push_row(lock, vec![ops, ops]);
    }
    vec![t]
}

/// Figure 8(b): sorted linked list vs preloaded size.
#[must_use]
pub fn fig8b(ctx: &SweepCtx) -> Vec<Table> {
    let platform = Platform::kunpeng916();
    let preloads = [0u32, 50, 150, 300, 500];
    let mut sweep = SweepSpec::new("fig8b");
    let cols: Vec<Vec<CellId>> = preloads
        .iter()
        .map(|&p| {
            let profile = CsProfile::sorted_list(p);
            fig8_variant_cells(&mut sweep, &platform, profile, 12, 20, 10, 0)
        })
        .collect();
    let r = sweep.run(ctx);
    let mut t = Table::new(
        "fig8b",
        "Sorted linked list vs preloaded members (Figure 8b)",
        "lock",
        preloads.iter().map(|p| p.to_string()).collect(),
        "ops/s",
    );
    for (li, lock) in LOCKS.iter().enumerate() {
        t.push_row(lock, cols.iter().map(|col| r.scalar(col[li])).collect());
    }
    vec![t]
}

/// Figure 8(c): hash table vs bucket count. More buckets → fewer clients
/// per lock; total throughput = per-lock throughput × active locks (the
/// partitioning approximation documented in DESIGN.md).
#[must_use]
pub fn fig8c(ctx: &SweepCtx) -> Vec<Table> {
    let platform = Platform::kunpeng916();
    let threads = 16usize;
    let buckets = [2usize, 4, 8, 16, 32];
    let mut sweep = SweepSpec::new("fig8c");
    let cols: Vec<(f64, Vec<CellId>)> = buckets
        .iter()
        .map(|&b| {
            let clients = (threads / b).max(1);
            let profile = CsProfile::sorted_list(512 / b as u32);
            let cells = fig8_variant_cells(&mut sweep, &platform, profile, clients, 20, 10, 0);
            (b.min(threads) as f64, cells)
        })
        .collect();
    let r = sweep.run(ctx);
    let mut t = Table::new(
        "fig8c",
        "Hash table vs bucket count (Figure 8c)",
        "lock",
        buckets.iter().map(|b| b.to_string()).collect(),
        "ops/s (partitioned approximation)",
    );
    for (li, lock) in LOCKS.iter().enumerate() {
        t.push_row(
            lock,
            cols.iter()
                .map(|(active, col)| r.scalar(col[li]) * active)
                .collect(),
        );
    }
    vec![t]
}

/// Figure 8(d): BOTS floorplan, normalized execution time (host threads;
/// wall-clock — neither parallelized across configurations nor cached).
#[must_use]
pub fn fig8d(_ctx: &SweepCtx) -> Vec<Table> {
    use armbar_floorplan::{bots_input, solve_parallel, solve_sequential, BoundOps, SharedBound};
    use armbar_locks::{CombiningLock, OpTable, TicketLock};
    let inputs = [5usize, 15, 20];
    let mut t = Table::new(
        "fig8d",
        "BOTS floorplan normalized execution time (Figure 8d; host wall-clock)",
        "lock",
        inputs.iter().map(|n| format!("input.{n}")).collect(),
        "time / ticket time (lower is better)",
    );
    let threads = 4usize;
    let mut times: Vec<(&str, Vec<f64>)> = Vec::new();
    let variants = [
        ("Ticket", None),
        ("DSynch", Some(ResponseMode::Flag)),
        ("DSynch-P", Some(ResponseMode::Pilot)),
    ];
    for (variant, mode) in variants {
        let vals = inputs
            .iter()
            .map(|&n| {
                let p = bots_input(n);
                let reference = solve_sequential(&p);
                let start = std::time::Instant::now();
                let mut table = OpTable::new();
                let ops = BoundOps::register(&mut table);
                let bound = SharedBound::new();
                let area = match mode {
                    None => {
                        solve_parallel(&p, threads, &TicketLock::new(bound, table), ops, 64).area
                    }
                    Some(mode) => {
                        let lock = CombiningLock::new(threads, bound, table, mode);
                        solve_parallel(&p, threads, &lock, ops, 64).area
                    }
                };
                assert_eq!(area, reference.area, "all variants find the optimum");
                start.elapsed().as_secs_f64()
            })
            .collect();
        times.push((variant, vals));
    }
    let base = times[0].1.clone();
    for (name, vals) in times {
        t.push_row(name, vals.iter().zip(&base).map(|(v, b)| v / b).collect());
    }
    vec![t]
}

// ------------------------------------------------------------ attribution

/// Flatten one workload's [`StallBreakdown`] into the sweep-cell value
/// layout shared by [`attrib_grid`]: the cause counts in
/// [`StallBreakdown::CAUSE_LABELS`] order, then the
/// [`StallBreakdown::CHARGEABLE_KINDS`] subtotals. Raw cycle counts — not
/// shares — go through the cache so the CSV shares can be recomputed from
/// warm entries bit-for-bit.
fn stall_values(stall: &StallBreakdown) -> Vec<f64> {
    let mut vals: Vec<f64> = stall.cause_counts().iter().map(|&c| c as f64).collect();
    vals.extend(
        StallBreakdown::CHARGEABLE_KINDS
            .iter()
            .map(|&k| stall.kind_count(k) as f64),
    );
    vals
}

/// The conservatively fenced message-passing pair `attrib` decomposes.
const ATTRIB_MP: PcBarriers = PcBarriers {
    avail: Barrier::DmbFull,
    publish: Barrier::DmbSt,
};

/// Declare the `armbar run attrib` workload grid: the conservatively fenced
/// message-passing workload under every placement of
/// [`BindConfig::ALL`], plus the default ticket lock on each platform
/// profile. Each cell returns the `stall_values` layout. Public so the
/// determinism test and the `sweep_scaling` bench can run the grid at
/// reduced message counts.
pub fn attrib_grid(sweep: &mut SweepSpec, messages: u64, per_thread: u64) -> Vec<(String, CellId)> {
    let mut rows = Vec::new();
    for &bind in &BindConfig::ALL {
        let key = sweep.key(
            &bind.platform(),
            &("attrib-mp", bind, ATTRIB_MP, messages, 1u64, 40u32),
        );
        let id = sweep.cell(key, move || {
            let r = run_prodcons(bind, PcVariant::Baseline(ATTRIB_MP), messages, 1, 40);
            stall_values(&r.stall)
        });
        rows.push((format!("MP {}", bind.label()), id));
    }
    for kind in PlatformKind::ALL {
        let platform = Platform::of(kind);
        let cfg = TicketConfig {
            threads: platform.topology.core_count().min(4),
            global_lines: 2,
            cs_nops: 10,
            post_nops: 20,
            release_barrier: Barrier::DmbSt,
            per_thread,
        };
        let key = sweep.key(&platform, &("attrib-lock", cfg));
        let id = sweep.cell(key, move || {
            let r = run_ticket(&platform, cfg);
            stall_values(&r.stall)
        });
        rows.push((format!("Lock {}", kind.name()), id));
    }
    rows
}

/// `armbar run attrib`: decompose where barrier stall cycles go. Two tables:
/// `attrib` (share of stalled cycles per cause — the response window,
/// coherence blocking, store-drain waits by distance, and the two
/// capacity backpressures) and `attrib_kinds` (share per barrier
/// mnemonic). Rows cover message passing under every placement plus the
/// ticket lock on every platform profile.
#[must_use]
pub fn attrib(ctx: &SweepCtx) -> Vec<Table> {
    let mut sweep = SweepSpec::new("attrib");
    let rows = attrib_grid(&mut sweep, PC_MSGS, 40);
    let r = sweep.run(ctx);
    let mut causes = Table::new(
        "attrib",
        "Barrier stall attribution: share of stalled cycles per cause",
        "workload",
        StallBreakdown::CAUSE_LABELS
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
        "share of stalled cycles (rows sum to 1)",
    );
    let mut kinds = Table::new(
        "attrib_kinds",
        "Barrier stall attribution: share of stalled cycles per barrier kind",
        "workload",
        StallBreakdown::CHARGEABLE_KINDS
            .iter()
            .map(|k| k.mnemonic().to_string())
            .collect(),
        "share of stalled cycles (rows sum to 1)",
    );
    for (label, id) in rows {
        let (cause_vals, kind_vals) = r.get(id).split_at(StallBreakdown::CAUSE_LABELS.len());
        assert_eq!(kind_vals.len(), StallBreakdown::CHARGEABLE_KINDS.len());
        // The core model charges exactly one cause and one kind per stalled
        // cycle; u64 counts below 2^53 survive the f64 round trip exactly.
        let total: f64 = cause_vals.iter().sum();
        assert_eq!(kind_vals.iter().sum::<f64>(), total, "{label}: kinds");
        println!("  {label}: {total} stalled cycles");
        causes.push_share_row(&label, cause_vals);
        kinds.push_share_row(&label, kind_vals);
    }
    vec![causes, kinds]
}

/// Write the Chrome-trace JSON of one traced `attrib` workload to `path`.
/// Load the file in Perfetto / `chrome://tracing`: one track per simulated
/// core, with `stall:<cause>` slices covering every charged stall run and
/// instants for barrier completions and loop iterations.
///
/// The demo is the Kunpeng916 ticket lock — every competitor core fences,
/// so all four tracks carry events.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn export_trace(path: &std::path::Path) -> std::io::Result<()> {
    let opts = RunOpts {
        engine: None,
        trace_capacity: Some(1 << 16),
    };
    let cfg = TicketConfig {
        threads: 4,
        per_thread: 40,
        ..Default::default()
    };
    let trace = run_ticket_with(&Platform::kunpeng916(), cfg, opts).1;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, trace.to_chrome_json())
}

// ----------------------------------------------------------------- battery

/// The litmus battery under ARM WMM: explorer verdicts, explored-state
/// counts, and outcome counts (all deterministic, so they land in the
/// CSV); per-test wall times vary run to run and go to stdout only.
#[must_use]
pub fn battery(_ctx: &SweepCtx) -> Vec<Table> {
    let runs = battery_runs(MemoryModel::ArmWmm);
    let mut t = Table::new(
        "battery",
        "Litmus battery under ARM WMM: verdicts and explored state space",
        "test",
        vec![
            "allowed".into(),
            "expected".into(),
            "states_visited".into(),
            "states_pruned".into(),
            "outcomes".into(),
        ],
        "explorer statistics (wall times on stdout)",
    );
    let mut total = std::time::Duration::ZERO;
    for r in &runs {
        println!(
            "  {:<24} states={:<6} pruned={:<6} outcomes={:<3} wall={:?}",
            r.name, r.states_visited, r.states_pruned, r.outcome_count, r.wall
        );
        total += r.wall;
        t.push_row(
            &r.name,
            vec![
                bool_num(r.allowed),
                bool_num(r.expected_allowed),
                r.states_visited as f64,
                r.states_pruned as f64,
                r.outcome_count as f64,
            ],
        );
    }
    println!(
        "  battery explorer time: {total:?} across {} tests",
        runs.len()
    );
    vec![t]
}
