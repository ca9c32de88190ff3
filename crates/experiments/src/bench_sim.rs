//! `armbar bench sim`: quantify the event-driven scheduler against the
//! lockstep oracle and render `BENCH_sim.json`.
//!
//! The probe workload is the **parked spinner**: on an n-core machine,
//! n−1 cores park on a [`Op::WaitChange`] line immediately while core 0
//! grinds through local work batches separated by `DSB`s before finally
//! flipping the line. A lockstep machine steps every active core every
//! cycle, so its work is Θ(n · cycles); the event engine steps a parked
//! core exactly twice (park, wake), so its work tracks the *busy* core
//! only. The gate is the deterministic `steps_executed` ratio — wall
//! times are reported for context but never gated, so the floor holds on
//! any host.
//!
//! A second row, `nop_run`, gates the event engine's other skip: Figure
//! 7(c)'s longest contention interval, 12 clients that each take a
//! contended fetch-add and then sit in 128 000 nops. The oracle steps every
//! client through every nop cycle; the event engine wakes a client once per
//! nop run and applies the skipped cycles lazily.
//!
//! A third row, `spin`, gates the third: Figure 8(b)'s rightmost FFWD cell,
//! 12 flag-mode clients waiting on a server that walks a 500-member list
//! per request. The oracle steps every client through every poll of its
//! response line; the event engine parks a client whose marked poll loop
//! has settled and applies the skipped polls in closed form when the
//! server's write ends the wait.
//!
//! A fourth row, `barrier`, pins what is left once those skips have been
//! taken: the centralized and the hierarchical barrier at 1024 threads and
//! 120 rounds, the deepest cells of the `manycore-scale` ledger workload. A
//! waiter's round is four events — wake and re-read, order the pass and
//! start the local work, arrive, park — and the cycles between them, in
//! which it only retires behind the arrival `fetch_add` or pushes nops under
//! a prior-free `DMB ld`, are a quiet run applied without a step. The
//! event engine's step count is pinned with a ceiling per family; the
//! oracle, which steps every one of those cycles, is compared at 64 threads.
//!
//! Correctness is asserted inline: every point first checks that both
//! engines produce identical run statistics and final memory — a
//! benchmark of a wrong answer is worthless.

use std::fmt::Write as _;
use std::time::Instant;

use armbar_barriers::Barrier;
use armbar_sim::{Cpu, Engine, Machine, Op, Platform, Script};
use armbar_simapps::barrier_sim::{barrier_machine, BarrierConfig, BarrierFamily};
use armbar_simapps::delegation_sim::{
    delegation_machine, CsProfile, DelegationBarriers, DelegationConfig, DelegationKind,
    ResponseMode,
};
use armbar_simapps::RunOpts;

use crate::manycore::WORK_NOPS;

/// The line everyone parks on.
const FLAG: u64 = 0x9000;
/// Where each spinner reports the value it observed.
const OUT_BASE: u64 = 0x10_0000;
/// Work batches the busy core runs before releasing the spinners.
const BATCHES: u32 = 50;
/// The `steps_executed` floor CI gates at [`GATE_CORES`] cores.
pub const MIN_STEPS_RATIO: f64 = 10.0;
/// Where the ratio floor is enforced.
pub const GATE_CORES: usize = 256;

/// Clients, nops between requests and requests per client of the
/// `nop_run` row (Figure 7(c)'s 10^3 column).
const NOP_CLIENTS: usize = 12;
const NOP_INTERVAL: u32 = 128_000;
const NOP_REQUESTS: u32 = 8;
/// The shared counter the `nop_run` clients contend on.
const COUNTER: u64 = 0xA000;

/// Clients, list members and requests per client of the `spin` row
/// (Figure 8(b)'s 500 column).
const SPIN_CLIENTS: usize = 12;
const SPIN_MEMBERS: u32 = 500;
const SPIN_REQUESTS: u64 = 20;

/// Threads and rounds of the `barrier` row (the deepest cells of
/// `manycore_grid(_, 120)`, with that grid's local work), the size at which
/// the oracle is run beside the event engine, and per family the most
/// `Core::step`s the event engine may take at full size: the measured
/// count, so a change that steps a waiter through its quiet runs again
/// fails here.
const BARRIER_THREADS: usize = 1024;
const BARRIER_ROUNDS: u64 = 120;
const BARRIER_CHECKED_THREADS: usize = 64;
const BARRIER_FAMILIES: [(BarrierFamily, u64); 2] = [
    (BarrierFamily::Centralized, 513_037),
    (BarrierFamily::Hierarchical, 785_582),
];

/// Parks on [`FLAG`] until it changes, records what it saw, halts.
async fn spinner(cpu: Cpu, id: u64) {
    let seen = cpu.op(Op::wait_change(FLAG, 0)).await;
    cpu.op(Op::store(OUT_BASE + id * 64, seen)).await;
}

/// Runs [`BATCHES`] nop batches fenced by `DSB`s, then releases the flag.
async fn writer(cpu: Cpu) {
    for _ in 0..BATCHES {
        cpu.op(Op::Nops(200)).await;
        cpu.op(Op::Fence(Barrier::DsbFull)).await;
    }
    cpu.op(Op::store(FLAG, 1)).await;
}

/// A fresh parked-spinner machine: core 0 busy, cores `1..cores` parked.
/// Shared with the `sim_scaling` Criterion bench.
#[must_use]
pub fn parked_spinner_machine(cores: usize) -> Machine {
    let mut m = Machine::new(Platform::manycore(cores));
    m.add_thread_on(0, Box::new(Script::new(writer)));
    for c in 1..cores {
        m.add_thread_on(c, Box::new(Script::new(|cpu| spinner(cpu, c as u64))));
    }
    m
}

/// [`NOP_REQUESTS`] rounds of: contended fetch-add, [`NOP_INTERVAL`] nops.
async fn nop_client(cpu: Cpu) {
    for _ in 0..NOP_REQUESTS {
        cpu.op(Op::fetch_add_acq_rel(COUNTER, 1)).await;
        cpu.op(Op::Nops(NOP_INTERVAL)).await;
        cpu.op(Op::IterationMark).await;
    }
}

/// One measured point: cycles, steps, skipped poll-loop periods and wall
/// time under `engine`.
struct Point {
    cycles: u64,
    steps: u64,
    spin_periods_skipped: u64,
    wall_ns: u64,
}

/// Run `m` to completion under `engine`.
fn measure(mut m: Machine, engine: Engine) -> (Machine, Point) {
    m.set_engine(engine);
    let t0 = Instant::now();
    let stats = m.run(1 << 40);
    let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    assert!(stats.halted, "benchmark run must finish");
    let point = Point {
        cycles: stats.cycles,
        steps: m.steps_executed(),
        spin_periods_skipped: m.spin_periods_skipped(),
        wall_ns,
    };
    (m, point)
}

fn run_point(cores: usize, engine: Engine) -> Point {
    let (m, point) = measure(parked_spinner_machine(cores), engine);
    assert_eq!(m.read_memory(FLAG), 1);
    for c in 1..cores {
        assert_eq!(m.read_memory(OUT_BASE + c as u64 * 64), 1, "spinner {c}");
    }
    point
}

fn run_nop_point(engine: Engine) -> Point {
    let mut m = Machine::new(Platform::kunpeng916());
    for c in 0..NOP_CLIENTS {
        m.add_thread_on(c, Box::new(Script::new(nop_client)));
    }
    let (m, point) = measure(m, engine);
    let requests = NOP_CLIENTS as u64 * u64::from(NOP_REQUESTS);
    assert_eq!(m.read_memory(COUNTER), requests, "no lost request");
    point
}

fn run_spin_point(engine: Engine) -> Point {
    let cfg = DelegationConfig {
        kind: DelegationKind::Ffwd,
        clients: SPIN_CLIENTS,
        barriers: DelegationBarriers {
            req: Barrier::Ldar,
            resp: Barrier::DmbSt,
        },
        mode: ResponseMode::Flag,
        profile: CsProfile::sorted_list(SPIN_MEMBERS),
        per_client: SPIN_REQUESTS,
        interval_nops: 0,
    };
    let m = delegation_machine(&Platform::kunpeng916(), cfg, RunOpts::default());
    measure(m, engine).1
}

fn run_barrier_point(family: BarrierFamily, threads: usize, engine: Engine) -> Point {
    let cfg = BarrierConfig {
        family,
        threads,
        rounds: BARRIER_ROUNDS,
        work_nops: WORK_NOPS,
    };
    let m = barrier_machine(&Platform::manycore(threads), cfg, RunOpts::default());
    let (m, point) = measure(m, engine);
    for core in 0..threads {
        assert_eq!(m.core_stats(core).iterations, BARRIER_ROUNDS, "core {core}");
    }
    point
}

fn steps_ratio(ev: &Point, or: &Point) -> f64 {
    or.steps as f64 / ev.steps.max(1) as f64
}

/// Nanoseconds as the milliseconds both benchmark documents report.
pub(crate) fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Run the engine-vs-oracle benchmark and render `BENCH_sim.json`.
///
/// # Panics
///
/// Panics when the engines disagree on any point, when the steps-executed
/// ratio at [`GATE_CORES`] cores, on the `nop_run` row or on the `spin` row
/// falls below [`MIN_STEPS_RATIO`] — the scaling the event engine exists to
/// deliver — or when a `barrier` row takes more steps than its ceiling.
#[must_use]
pub fn bench_sim_json() -> String {
    // Both engines at the sizes the oracle can still afford…
    let compared: Vec<(usize, Point, Point)> = [64usize, GATE_CORES]
        .into_iter()
        .map(|cores| {
            let ev = run_point(cores, Engine::EventDriven);
            let or = run_point(cores, Engine::LockstepOracle);
            assert_eq!(ev.cycles, or.cycles, "engines disagree at {cores} cores");
            assert!(0 < ev.steps && ev.steps < or.steps, "{cores} cores");
            (cores, ev, or)
        })
        .collect();
    // …and the event engine alone where lockstep is the whole problem.
    let big = 1024usize;
    let big_ev = run_point(big, Engine::EventDriven);
    assert!(big_ev.steps > 0, "{big} cores");

    let gate_ratio = compared
        .iter()
        .find(|&&(cores, ..)| cores == GATE_CORES)
        .map(|(_, ev, or)| steps_ratio(ev, or))
        .expect("gate point measured");
    assert!(
        gate_ratio >= MIN_STEPS_RATIO,
        "steps ratio at {GATE_CORES} cores is {gate_ratio:.1}, \
         below the {MIN_STEPS_RATIO}x floor"
    );
    let nop_ev = run_nop_point(Engine::EventDriven);
    let nop_or = run_nop_point(Engine::LockstepOracle);
    assert_eq!(nop_ev.cycles, nop_or.cycles, "engines disagree on nop_run");
    let nop_ratio = steps_ratio(&nop_ev, &nop_or);
    assert!(
        nop_ratio >= MIN_STEPS_RATIO,
        "steps ratio on the nop_run row is {nop_ratio:.1}, below the {MIN_STEPS_RATIO}x floor"
    );

    let spin_ev = run_spin_point(Engine::EventDriven);
    let spin_or = run_spin_point(Engine::LockstepOracle);
    assert_eq!(spin_ev.cycles, spin_or.cycles, "engines disagree on spin");
    assert_eq!(
        spin_or.spin_periods_skipped, 0,
        "the oracle runs every poll"
    );
    let spin_ratio = steps_ratio(&spin_ev, &spin_or);
    assert!(
        spin_ratio >= MIN_STEPS_RATIO,
        "steps ratio on the spin row is {spin_ratio:.1}, below the {MIN_STEPS_RATIO}x floor"
    );

    let barrier: Vec<(BarrierFamily, u64, Point, Point, Point)> = BARRIER_FAMILIES
        .into_iter()
        .map(|(family, ceiling)| {
            let label = family.label();
            let small_ev = run_barrier_point(family, BARRIER_CHECKED_THREADS, Engine::EventDriven);
            let small_or =
                run_barrier_point(family, BARRIER_CHECKED_THREADS, Engine::LockstepOracle);
            assert_eq!(
                small_ev.cycles, small_or.cycles,
                "engines disagree on the {label} barrier"
            );
            let ev = run_barrier_point(family, BARRIER_THREADS, Engine::EventDriven);
            assert!(
                ev.steps <= ceiling,
                "the {label} barrier took {} steps, above its ceiling of {ceiling}",
                ev.steps
            );
            (family, ceiling, ev, small_ev, small_or)
        })
        .collect();

    let mut j = String::from("{\n");
    let _ = writeln!(j, "  \"workload\": \"parked-spinner\",");
    let _ = writeln!(j, "  \"platform\": \"manycore\",");
    let _ = writeln!(j, "  \"work_batches\": {BATCHES},");
    let _ = writeln!(j, "  \"points\": [");
    for (i, (cores, ev, or)) in compared.iter().enumerate() {
        let comma = if i + 1 == compared.len() { "" } else { "," };
        let _ = writeln!(
            j,
            "    {{\"cores\": {cores}, \"cycles\": {}, \"event_steps\": {}, \
             \"oracle_steps\": {}, \"steps_ratio\": {:.3}, \"event_wall_ms\": {:.3}, \
             \"oracle_wall_ms\": {:.3}, \"wall_speedup\": {:.3}}}{comma}",
            ev.cycles,
            ev.steps,
            or.steps,
            steps_ratio(ev, or),
            ms(ev.wall_ns),
            ms(or.wall_ns),
            or.wall_ns as f64 / ev.wall_ns.max(1) as f64,
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"event_only\": [");
    let _ = writeln!(
        j,
        "    {{\"cores\": {big}, \"cycles\": {}, \"event_steps\": {}, \
         \"event_wall_ms\": {:.3}}}",
        big_ev.cycles,
        big_ev.steps,
        ms(big_ev.wall_ns),
    );
    let _ = writeln!(j, "  ],");
    let _ = writeln!(
        j,
        "  \"nop_run\": {{\"clients\": {NOP_CLIENTS}, \"interval_nops\": {NOP_INTERVAL}, \
         \"requests\": {NOP_REQUESTS}, \"cycles\": {}, \"event_steps\": {}, \
         \"oracle_steps\": {}, \"steps_ratio\": {nop_ratio:.3}, \
         \"min_steps_ratio\": {MIN_STEPS_RATIO}, \"event_wall_ms\": {:.3}, \
         \"oracle_wall_ms\": {:.3}}},",
        nop_ev.cycles,
        nop_ev.steps,
        nop_or.steps,
        ms(nop_ev.wall_ns),
        ms(nop_or.wall_ns),
    );
    let _ = writeln!(
        j,
        "  \"spin\": {{\"clients\": {SPIN_CLIENTS}, \"list_members\": {SPIN_MEMBERS}, \
         \"requests\": {SPIN_REQUESTS}, \"cycles\": {}, \"event_steps\": {}, \
         \"oracle_steps\": {}, \"steps_ratio\": {spin_ratio:.3}, \
         \"spin_periods_skipped\": {}, \"min_steps_ratio\": {MIN_STEPS_RATIO}, \
         \"event_wall_ms\": {:.3}, \"oracle_wall_ms\": {:.3}}},",
        spin_ev.cycles,
        spin_ev.steps,
        spin_or.steps,
        spin_ev.spin_periods_skipped,
        ms(spin_ev.wall_ns),
        ms(spin_or.wall_ns),
    );
    let _ = writeln!(j, "  \"barrier\": [");
    for (i, (family, ceiling, ev, small_ev, small_or)) in barrier.iter().enumerate() {
        let comma = if i + 1 == barrier.len() { "" } else { "," };
        let _ = writeln!(
            j,
            "    {{\"family\": \"{}\", \"threads\": {BARRIER_THREADS}, \
             \"rounds\": {BARRIER_ROUNDS}, \"cycles\": {}, \"event_steps\": {}, \
             \"max_event_steps\": {ceiling}, \"event_wall_ms\": {:.3}, \
             \"checked_threads\": {BARRIER_CHECKED_THREADS}, \"checked_cycles\": {}, \
             \"checked_event_steps\": {}, \"checked_oracle_steps\": {}}}{comma}",
            family.label(),
            ev.cycles,
            ev.steps,
            ms(ev.wall_ns),
            small_ev.cycles,
            small_ev.steps,
            small_or.steps,
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"floor\": {{");
    let _ = writeln!(j, "    \"cores\": {GATE_CORES},");
    let _ = writeln!(j, "    \"min_steps_ratio\": {MIN_STEPS_RATIO},");
    let _ = writeln!(j, "    \"steps_ratio\": {gate_ratio:.3},");
    let _ = writeln!(j, "    \"pass\": true");
    let _ = writeln!(j, "  }}");
    j.push_str("}\n");
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_is_well_formed_and_meets_the_floor() {
        let j = bench_sim_json();
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        for key in [
            "\"workload\"",
            "\"points\"",
            "\"event_only\"",
            "\"nop_run\"",
            "\"spin\"",
            "\"barrier\"",
            "\"max_event_steps\"",
            "\"floor\"",
            "\"steps_ratio\"",
            "\"pass\": true",
        ] {
            assert!(j.contains(key), "missing {key} in:\n{j}");
        }
    }
}
