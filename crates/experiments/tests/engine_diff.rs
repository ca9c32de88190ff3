//! Differential guarantees of the event-driven scheduler: on every workload
//! family the experiments sweep — message passing across all five
//! placements, the ticket lock on four platforms, and the three many-core
//! barrier families — the event engine must be *observationally equivalent*
//! to the lockstep oracle (`Machine::step_all` every cycle): same final
//! memory, same throughput, same stall attribution (and, at 64 and 256
//! threads on both many-core flavours, the same `CoreStats` on every core).
//! Figure 7(c)'s longest
//! contention interval pins the lazy nop runs the same way, and 12 threads
//! on one ticket or MCS lock plus Figure 8(b)'s 500-member list cells pin
//! the long waits (a dozen cores polling while one works), and every
//! program the analyzer prices is replayed under both. A last test runs the
//! equivalence grid itself through the sweep worker pool at one and four
//! workers, mirroring the `ARMBAR_JOBS` smoke configurations.

use armbar_analyze::corpus::corpus;
use armbar_analyze::lint::analyze_case;
use armbar_analyze::replay::replay_machine;
use armbar_barriers::Barrier;
use armbar_experiments::sweep::{SweepCtx, SweepSpec};
use armbar_experiments::RunCache;
use armbar_sim::{Engine, Platform, PlatformKind, StallBreakdown};
use armbar_simapps::barrier_sim::{
    barrier_machine, run_barrier_with, BarrierConfig, BarrierFamily,
};
use armbar_simapps::delegation_sim::{
    run_delegation_with, CsProfile, DelegationBarriers, DelegationConfig, DelegationKind,
    ResponseMode,
};
use armbar_simapps::mcs_sim::run_mcs_with;
use armbar_simapps::prodcons::{run_prodcons_with, PcBarriers, PcVariant};
use armbar_simapps::ticket_sim::{run_ticket_with, TicketConfig};
use armbar_simapps::{BindConfig, DlockMetrics, McsConfig, RunOpts};

const COMBO: PcBarriers = PcBarriers {
    avail: Barrier::DmbFull,
    publish: Barrier::DmbSt,
};

const EVENT: RunOpts = RunOpts {
    engine: Some(Engine::EventDriven),
    trace_capacity: None,
};
const ORACLE: RunOpts = RunOpts {
    engine: Some(Engine::LockstepOracle),
    trace_capacity: None,
};

#[test]
fn event_engine_matches_oracle_on_message_passing() {
    for bind in BindConfig::ALL {
        for variant in [
            PcVariant::Baseline(COMBO),
            PcVariant::Pilot {
                avail: Barrier::DmbFull,
            },
        ] {
            let ev = run_prodcons_with(bind, variant, 40, 1, 30, EVENT).0;
            let or = run_prodcons_with(bind, variant, 40, 1, 30, ORACLE).0;
            assert_eq!(ev, or, "{bind:?} / {variant:?}");
        }
    }
}

#[test]
fn event_engine_matches_oracle_on_the_ticket_lock() {
    let platforms = [
        ("kunpeng916", Platform::kunpeng916()),
        ("kirin960", Platform::kirin960()),
        ("kirin970", Platform::kirin970()),
        ("raspberry_pi4", Platform::raspberry_pi4()),
    ];
    let cfg = TicketConfig {
        threads: 4,
        per_thread: 20,
        ..Default::default()
    };
    for (name, p) in &platforms {
        let ev = run_ticket_with(p, cfg, EVENT).0;
        let or = run_ticket_with(p, cfg, ORACLE).0;
        assert_eq!(ev.result, or.result, "{name}");
        assert_eq!(ev.latency, or.latency, "{name}");
    }
}

#[test]
fn event_engine_matches_oracle_on_barrier_families() {
    for family in BarrierFamily::ALL {
        for (label, platform, threads) in [
            ("kunpeng916", Platform::kunpeng916(), 9usize),
            ("manycore64", Platform::manycore(64), 64),
        ] {
            let cfg = BarrierConfig {
                family,
                threads,
                rounds: 5,
                work_nops: 15,
            };
            let ev = run_barrier_with(&platform, cfg, EVENT).0;
            let or = run_barrier_with(&platform, cfg, ORACLE).0;
            assert_eq!(ev, or, "{family:?} × {threads} on {label}");
        }
    }
}

/// The many-core grid's own regime, core by core: every family at 64 and 256
/// threads on both platform flavours. A waiter there spends most of its steps
/// retiring behind a suspended arrival `fetch_add` or pushing nops under a
/// prior-free `DMB ld`, so the engines must agree on every core's whole
/// `CoreStats` — `issued` and `retired` included — not just on the totals a
/// `BarrierResult` carries.
#[test]
fn event_engine_matches_oracle_core_by_core_on_manycore_barriers() {
    for (flavour, platform_of) in [
        ("manycore", Platform::manycore as fn(usize) -> Platform),
        ("manycore-mca", Platform::manycore_mca),
    ] {
        for threads in [64usize, 256] {
            let platform = platform_of(threads);
            for family in BarrierFamily::ALL {
                let what = format!("{family:?} × {threads} on {flavour}");
                let cfg = BarrierConfig {
                    family,
                    threads,
                    rounds: 4,
                    work_nops: 30,
                };
                let mut ev = barrier_machine(&platform, cfg, EVENT);
                let mut or = barrier_machine(&platform, cfg, ORACLE);
                assert_eq!(ev.run(1 << 40), or.run(1 << 40), "{what}");
                let mut stall = [StallBreakdown::default(), StallBreakdown::default()];
                for core in 0..threads {
                    let (e, o) = (ev.core_stats(core), or.core_stats(core));
                    assert_eq!(e, o, "{what}: core {core}");
                    assert_eq!(e.iterations, cfg.rounds, "{what}: core {core}");
                    stall[0].merge(&e.stall);
                    stall[1].merge(&o.stall);
                }
                assert_eq!(stall[0], stall[1], "{what}");
                assert!(ev.steps_executed() < or.steps_executed(), "{what}");
            }
        }
    }
}

/// Figure 7(c)'s 10^3 point: 12 clients, 128 000 nops between requests, all
/// five lock variants. Almost every cycle of these runs sits inside a nop
/// run, which the event engine applies lazily and the oracle steps through.
#[test]
fn event_engine_matches_oracle_on_fig7c_long_nop_intervals() {
    const CLIENTS: usize = 12;
    const INTERVAL_NOPS: u32 = 128_000;
    const PER: u64 = 8;
    let platform = Platform::kunpeng916();
    let ticket = TicketConfig {
        threads: CLIENTS,
        global_lines: 1,
        cs_nops: 4,
        post_nops: INTERVAL_NOPS,
        release_barrier: Barrier::DmbSt,
        per_thread: PER,
    };
    let ev = run_ticket_with(&platform, ticket, EVENT).0;
    let or = run_ticket_with(&platform, ticket, ORACLE).0;
    assert_eq!(ev.result, or.result, "Ticket");
    assert_eq!(ev.latency, or.latency, "Ticket");
    for kind in [DelegationKind::DSynch, DelegationKind::Ffwd] {
        for mode in [ResponseMode::Flag, ResponseMode::Pilot] {
            let cfg = DelegationConfig {
                kind,
                clients: CLIENTS,
                barriers: DelegationBarriers {
                    req: Barrier::Ldar,
                    resp: Barrier::DmbSt,
                },
                mode,
                profile: CsProfile::counter(),
                per_client: PER,
                interval_nops: INTERVAL_NOPS,
            };
            let ev = run_delegation_with(&platform, cfg, EVENT).0;
            let or = run_delegation_with(&platform, cfg, ORACLE).0;
            assert_eq!(ev.result, or.result, "{kind:?} / {mode:?}");
            assert_eq!(ev.latency, or.latency, "{kind:?} / {mode:?}");
            assert_eq!(ev.subverted, or.subverted, "{kind:?} / {mode:?}");
        }
    }
}

/// Everything a lock run reports: cycles and throughput, the stall
/// breakdown, the latency histogram, fairness, and the subversion counters
/// (read back from final memory; each harness also asserts its own final
/// lock words).
fn assert_lock_runs_equal(ev: &DlockMetrics, or: &DlockMetrics, what: &str) {
    assert_eq!(ev.result, or.result, "{what}");
    assert_eq!(ev.latency, or.latency, "{what}");
    assert_eq!(ev.fairness.to_bits(), or.fairness.to_bits(), "{what}");
    assert_eq!(ev.subverted, or.subverted, "{what}");
}

/// Twelve competitors on one lock: eleven of them wait at any time, each
/// for up to eleven critical sections.
#[test]
fn event_engine_matches_oracle_on_twelve_thread_in_place_locks() {
    let platform = Platform::kunpeng916();
    let ticket = TicketConfig {
        threads: 12,
        per_thread: 20,
        ..Default::default()
    };
    let ev = run_ticket_with(&platform, ticket, EVENT).0;
    let or = run_ticket_with(&platform, ticket, ORACLE).0;
    assert_lock_runs_equal(&ev, &or, "ticket");
    let mcs = McsConfig {
        threads: 12,
        per_thread: 20,
        ..Default::default()
    };
    let ev = run_mcs_with(&platform, mcs, EVENT).0;
    let or = run_mcs_with(&platform, mcs, ORACLE).0;
    assert_lock_runs_equal(&ev, &or, "mcs");
}

/// Figure 8(b)'s rightmost column: a 500-member sorted list, so every
/// critical section is a 250-load pointer chase and the 12 clients wait
/// thousands of cycles per request.
#[test]
fn event_engine_matches_oracle_on_fig8b_500_member_list() {
    let platform = Platform::kunpeng916();
    for kind in [DelegationKind::Ffwd, DelegationKind::DSynch] {
        for mode in [ResponseMode::Flag, ResponseMode::Pilot] {
            let cfg = DelegationConfig {
                kind,
                clients: 12,
                barriers: DelegationBarriers {
                    req: Barrier::Ldar,
                    resp: Barrier::DmbSt,
                },
                mode,
                profile: CsProfile::sorted_list(500),
                per_client: 20,
                interval_nops: 0,
            };
            let ev = run_delegation_with(&platform, cfg, EVENT).0;
            let or = run_delegation_with(&platform, cfg, ORACLE).0;
            assert_lock_runs_equal(&ev, &or, &format!("{kind:?} / {mode:?}"));
        }
    }
}

/// The litmus replays `lint`, `synth` and `rcpc` price programs with: every
/// corpus case's original and each of its lint rewrites, on all four
/// platform profiles at 20 iterations. A replayed core spends most of its
/// cycles held behind a barrier or a full store buffer, which the event
/// engine sleeps through; the summed steps pin that skip.
#[test]
fn event_engine_matches_oracle_on_every_replayed_program() {
    let mut programs = Vec::new();
    for case in corpus() {
        let rewrites = analyze_case(&case).into_iter().filter_map(|f| f.rewritten);
        programs.push(case.program);
        programs.extend(rewrites);
    }
    assert_eq!(programs.len(), 82);
    let mut steps = [0; 2];
    for (n, program) in programs.iter().enumerate() {
        for kind in PlatformKind::ALL {
            let what = format!("program {n} on {}", kind.name());
            let [mut ev, mut or] = [Engine::EventDriven, Engine::LockstepOracle].map(|engine| {
                let mut m = replay_machine(program, Platform::of(kind), 20);
                m.set_engine(engine);
                m
            });
            let stats = ev.run(1 << 40);
            assert!(stats.halted, "{what}");
            assert_eq!(stats, or.run(1 << 40), "{what}");
            for core in 0..program.threads.len() {
                assert_eq!(
                    ev.core_stats(core),
                    or.core_stats(core),
                    "{what}: core {core}"
                );
            }
            steps[0] += ev.steps_executed();
            steps[1] += or.steps_executed();
        }
    }
    assert_eq!(steps, [318_236, 1_107_364], "(event, oracle) steps");
}

/// Each cell runs one workload under both engines and reports both cycle
/// counts; the grid must be value-identical at any worker count, and the
/// two columns must agree within every cell.
fn diff_spec() -> SweepSpec {
    let mut spec = SweepSpec::new("engine-diff");
    for (i, family) in BarrierFamily::ALL.into_iter().enumerate() {
        spec.cell(format!("engine-diff|barrier|{i}"), move || {
            let cfg = BarrierConfig {
                family,
                threads: 8,
                rounds: 4,
                work_nops: 10,
            };
            let p = Platform::kunpeng916();
            let ev = run_barrier_with(&p, cfg, EVENT).0;
            let or = run_barrier_with(&p, cfg, ORACLE).0;
            vec![ev.cycles as f64, or.cycles as f64]
        });
    }
    for (i, bind) in BindConfig::ALL.into_iter().enumerate() {
        spec.cell(format!("engine-diff|mp|{i}"), move || {
            let v = PcVariant::Baseline(COMBO);
            let ev = run_prodcons_with(bind, v, 25, 1, 20, EVENT).0;
            let or = run_prodcons_with(bind, v, 25, 1, 20, ORACLE).0;
            vec![ev.cycles as f64, or.cycles as f64]
        });
    }
    spec
}

#[test]
fn engine_diff_grid_is_worker_count_independent() {
    let serial = diff_spec()
        .run(&SweepCtx::new(1, RunCache::disabled()))
        .into_values();
    let four = diff_spec()
        .run(&SweepCtx::new(4, RunCache::disabled()))
        .into_values();
    assert_eq!(serial, four, "grid values must not depend on worker count");
    for (i, vals) in serial.iter().enumerate() {
        assert_eq!(vals[0], vals[1], "engines disagree in cell {i}");
    }
}
