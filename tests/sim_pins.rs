//! Tier-1 pins on the simulator's two engines at scale. Every row runs to
//! completion under the event engine and, where it can afford it, under
//! the lockstep oracle: the two must agree on cycles, and each count —
//! `(cycles, event_steps, oracle_steps)` — is exact simulator output. The
//! event engine exists to step parked cores twice, nop runs once, a core
//! held behind a barrier once per event and settled poll loops not at all;
//! each row that shows one of those skips also holds the oracle to ten
//! times the event engine's steps, apart from the exact pins so that
//! re-pinning a count cannot drop the floor.

use armbar_barriers::Barrier;
use armbar_experiments::bench_sim::{parked_spinner_machine, FLAG, OUT_BASE};
use armbar_sim::{Cpu, Engine, Machine, Op, Platform, Script};
use armbar_simapps::barrier_sim::{barrier_machine, BarrierConfig, BarrierFamily};
use armbar_simapps::delegation_sim::{
    delegation_machine, CsProfile, DelegationBarriers, DelegationConfig, DelegationKind,
    ResponseMode,
};
use armbar_simapps::RunOpts;

/// What one run to completion counts.
struct Run {
    cycles: u64,
    steps: u64,
    spin_periods_skipped: u64,
}

/// Run `m` to completion under `engine`, then `check` its final state.
fn run(mut m: Machine, engine: Engine, check: &impl Fn(&Machine)) -> Run {
    m.set_engine(engine);
    let stats = m.run(1 << 40);
    assert!(stats.halted, "{engine:?}: the run must finish");
    check(&m);
    Run {
        cycles: stats.cycles,
        steps: m.steps_executed(),
        spin_periods_skipped: m.spin_periods_skipped(),
    }
}

/// Run a fresh `build()` under both engines; they must agree on cycles.
fn both(what: &str, build: impl Fn() -> Machine, check: impl Fn(&Machine)) -> (Run, Run) {
    let event = run(build(), Engine::EventDriven, &check);
    let oracle = run(build(), Engine::LockstepOracle, &check);
    assert_eq!(event.cycles, oracle.cycles, "{what}: the engines disagree");
    (event, oracle)
}

fn pins(event: &Run, oracle: &Run) -> (u64, u64, u64) {
    (event.cycles, event.steps, oracle.steps)
}

fn assert_ten_fold(what: &str, event: &Run, oracle: &Run) {
    assert!(
        oracle.steps >= 10 * event.steps,
        "{what}: {} oracle steps against {} event steps, below the 10x floor",
        oracle.steps,
        event.steps
    );
}

fn spinners_saw_the_flag(cores: usize) -> impl Fn(&Machine) {
    move |m| {
        assert_eq!(m.read_memory(FLAG), 1);
        for c in 1..cores as u64 {
            assert_eq!(m.read_memory(OUT_BASE + c * 64), 1, "spinner {c}");
        }
    }
}

#[test]
fn parked_spinners_are_pinned() {
    for (cores, want) in [(64, (24_627, 468, 218_240)), (256, (24_752, 1428, 873_728))] {
        let what = format!("{cores} cores");
        let build = || parked_spinner_machine(cores);
        let (event, oracle) = both(&what, build, spinners_saw_the_flag(cores));
        assert_eq!(pins(&event, &oracle), want, "{what}");
        assert_ten_fold(&what, &event, &oracle);
    }
    let check = &spinners_saw_the_flag(1024);
    let event = run(parked_spinner_machine(1024), Engine::EventDriven, check);
    assert_eq!((event.cycles, event.steps), (24_752, 5268), "1024 cores");
}

/// Figure 7(c)'s 10^3 column: 12 clients that each take a contended
/// fetch-add and then sit in 128 000 nops, 8 times over.
#[test]
fn nop_runs_are_pinned() {
    const COUNTER: u64 = 0xA000;
    async fn nop_client(cpu: Cpu) {
        for _ in 0..8 {
            cpu.op(Op::fetch_add_acq_rel(COUNTER, 1)).await;
            cpu.op(Op::Nops(128_000)).await;
            cpu.op(Op::IterationMark).await;
        }
    }
    let build = || {
        let mut m = Machine::new(Platform::kunpeng916());
        for c in 0..12 {
            m.add_thread_on(c, Box::new(Script::new(nop_client)));
        }
        m
    };
    let no_lost_request = |m: &Machine| assert_eq!(m.read_memory(COUNTER), 96);
    let (event, oracle) = both("nop_run", build, no_lost_request);
    assert_eq!(pins(&event, &oracle), (341_997, 300, 4_102_536));
    assert_ten_fold("nop_run", &event, &oracle);
}

/// Figure 8(b)'s rightmost FFWD cell: 12 flag-mode clients, 20 requests
/// each, waiting on a server that walks a 500-member list per request.
#[test]
fn settled_poll_loops_are_pinned() {
    let cfg = DelegationConfig {
        kind: DelegationKind::Ffwd,
        clients: 12,
        barriers: DelegationBarriers {
            req: Barrier::Ldar,
            resp: Barrier::DmbSt,
        },
        mode: ResponseMode::Flag,
        profile: CsProfile::sorted_list(500),
        per_client: 20,
        interval_nops: 0,
    };
    let build = || delegation_machine(&Platform::kunpeng916(), cfg, RunOpts::default());
    let (event, oracle) = both("spin", build, |_| {});
    assert_eq!(pins(&event, &oracle), (248_125, 67_407, 2_624_765));
    let skipped = (event.spin_periods_skipped, oracle.spin_periods_skipped);
    assert_eq!(skipped, (728_405, 0), "the oracle runs every poll");
    assert_ten_fold("spin", &event, &oracle);
}

/// Figure 7(c)'s 10^3 FFWD cell: 12 flag-mode clients, 8 requests each,
/// 128 000 nops apart, so the dedicated server mostly sweeps idle request
/// lines — a marked poll loop. Pins the server's own steps.
#[test]
fn idle_server_sweeps_are_pinned() {
    let cfg = DelegationConfig {
        kind: DelegationKind::Ffwd,
        clients: 12,
        barriers: DelegationBarriers {
            req: Barrier::Ldar,
            resp: Barrier::DmbSt,
        },
        mode: ResponseMode::Flag,
        profile: CsProfile::counter(),
        per_client: 8,
        interval_nops: 128_000,
    };
    let server = |engine| {
        let mut m = delegation_machine(&Platform::kunpeng916(), cfg, RunOpts::default());
        m.set_engine(engine);
        let stats = m.run(1 << 40);
        assert!(stats.halted, "{engine:?}: the run must finish");
        (
            stats.cycles,
            m.core(0).steps(),
            m.core(0).spin_periods_skipped(),
        )
    };
    let (event, oracle) = (server(Engine::EventDriven), server(Engine::LockstepOracle));
    assert_eq!(event.0, oracle.0, "the engines disagree");
    assert_eq!((event.0, event.1, oracle.1), (300_854, 2389, 300_476));
    assert_eq!(
        (event.2, oracle.2),
        (12_235, 0),
        "the oracle runs every sweep"
    );
    assert!(
        oracle.1 >= 10 * event.1,
        "{} oracle steps of the server against {} event steps, below the 10x floor",
        oracle.1,
        event.1
    );
}

/// The deepest cells of the many-core grid — 120 rounds with 30 nops of
/// local work — at 1024 threads under the event engine, and at 64 under
/// both engines.
fn assert_barrier_pinned(family: BarrierFamily, at_1024: (u64, u64), at_64: (u64, u64, u64)) {
    let machine = |threads| {
        let cfg = BarrierConfig {
            family,
            threads,
            rounds: 120,
            work_nops: 30,
        };
        barrier_machine(&Platform::manycore(threads), cfg, RunOpts::default())
    };
    let every_round = |threads| {
        move |m: &Machine| {
            for core in 0..threads {
                assert_eq!(m.core_stats(core).iterations, 120, "core {core}");
            }
        }
    };
    let what = format!("{} barrier", family.label());
    let big = run(machine(1024), Engine::EventDriven, &every_round(1024));
    assert_eq!((big.cycles, big.steps), at_1024, "{what}, 1024 threads");
    let (event, oracle) = both(&what, || machine(64), every_round(64));
    assert_eq!(pins(&event, &oracle), at_64, "{what}, 64 threads");
}

#[test]
fn centralized_barrier_is_pinned() {
    let at_64 = (206_535, 31_150, 980_160);
    assert_barrier_pinned(BarrierFamily::Centralized, (3_470_660, 494_830), at_64);
}

#[test]
fn hierarchical_barrier_is_pinned() {
    let at_64 = (67_110, 35_584, 901_504);
    assert_barrier_pinned(BarrierFamily::Hierarchical, (811_235, 571_144), at_64);
}
