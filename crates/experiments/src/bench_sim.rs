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
//! Correctness is asserted inline: every point first checks that both
//! engines produce identical run statistics and final memory — a
//! benchmark of a wrong answer is worthless.

use std::fmt::Write as _;
use std::time::Instant;

use armbar_barriers::Barrier;
use armbar_sim::{Engine, Machine, Op, Platform, SimThread, ThreadCtx};

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

/// Parks on [`FLAG`] until it changes, records what it saw, halts.
struct Spinner {
    id: u64,
    state: u8,
}

impl SimThread for Spinner {
    fn next(&mut self, ctx: &mut ThreadCtx) -> Op {
        self.state += 1;
        match self.state {
            1 => Op::wait_change(FLAG, 0),
            2 => Op::store(OUT_BASE + self.id * 64, ctx.last_value()),
            _ => Op::Halt,
        }
    }
}

/// Runs [`BATCHES`] nop batches fenced by `DSB`s, then releases the flag.
struct Writer {
    remaining: u32,
    state: u8,
}

impl SimThread for Writer {
    fn next(&mut self, _ctx: &mut ThreadCtx) -> Op {
        match self.state {
            0 if self.remaining > 0 => {
                self.remaining -= 1;
                self.state = 1;
                Op::Nops(200)
            }
            0 => {
                self.state = 2;
                Op::store(FLAG, 1)
            }
            1 => {
                self.state = 0;
                Op::Fence(Barrier::DsbFull)
            }
            _ => Op::Halt,
        }
    }
}

/// A fresh parked-spinner machine: core 0 busy, cores `1..cores` parked.
/// Shared with the `sim_scaling` Criterion bench.
#[must_use]
pub fn parked_spinner_machine(cores: usize) -> Machine {
    let mut m = Machine::new(Platform::manycore(cores));
    m.add_thread_on(
        0,
        Box::new(Writer {
            remaining: BATCHES,
            state: 0,
        }),
    );
    for c in 1..cores {
        m.add_thread_on(
            c,
            Box::new(Spinner {
                id: c as u64,
                state: 0,
            }),
        );
    }
    m
}

/// One measured point: cycles, steps, and wall time under `engine`.
struct Point {
    cycles: u64,
    steps: u64,
    wall_ns: u64,
}

fn run_point(cores: usize, engine: Engine) -> Point {
    let mut m = parked_spinner_machine(cores);
    m.set_engine(engine);
    let t0 = Instant::now();
    let stats = m.run(1 << 40);
    let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    assert!(stats.halted, "parked-spinner run must finish");
    assert_eq!(m.read_memory(FLAG), 1);
    for c in 1..cores {
        assert_eq!(m.read_memory(OUT_BASE + c as u64 * 64), 1, "spinner {c}");
    }
    Point {
        cycles: stats.cycles,
        steps: m.steps_executed(),
        wall_ns,
    }
}

/// Nanoseconds as the milliseconds both benchmark documents report.
pub(crate) fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Run the engine-vs-oracle benchmark and render `BENCH_sim.json`.
///
/// # Panics
///
/// Panics when the engines disagree on any point, or when the
/// steps-executed ratio at [`GATE_CORES`] cores falls below
/// [`MIN_STEPS_RATIO`] — the scaling the event engine exists to deliver.
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
        .map(|(_, ev, or)| or.steps as f64 / ev.steps.max(1) as f64)
        .expect("gate point measured");
    assert!(
        gate_ratio >= MIN_STEPS_RATIO,
        "steps ratio at {GATE_CORES} cores is {gate_ratio:.1}, \
         below the {MIN_STEPS_RATIO}x floor"
    );

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
            or.steps as f64 / ev.steps.max(1) as f64,
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
            "\"floor\"",
            "\"steps_ratio\"",
            "\"pass\": true",
        ] {
            assert!(j.contains(key), "missing {key} in:\n{j}");
        }
    }
}
