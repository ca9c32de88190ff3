//! Property-based tests on the simulator's core invariants: arbitrary
//! op streams must never deadlock, lose stores, tear values, or break
//! determinism; coherence must serialize RMWs exactly.

use proptest::prelude::*;

use armbar_sim::{
    CoreStats, Cpu, Engine, Machine, Op, Platform, PlatformKind, RmwKind, RunStats, Script,
    SimThread, ThreadCtx,
};

/// A generated op for the random-program property tests (kept closed so
/// programs are always well formed: no dangling dependencies, addresses in
/// a small aligned pool).
#[derive(Debug, Clone, Copy)]
enum GenOp {
    Nops(u8),
    Load(u8),
    LoadUse(u8),
    Store(u8, u16),
    StoreRelease(u8, u16),
    FetchAdd(u8),
    Fence(u8),
}

fn addr_of(slot: u8) -> u64 {
    0x4000 + u64::from(slot % 16) * 64
}

fn to_op(g: GenOp) -> Op {
    use armbar_barriers::Barrier;
    match g {
        GenOp::Nops(n) => Op::Nops(u32::from(n % 32) + 1),
        GenOp::Load(s) => Op::load(addr_of(s)),
        GenOp::LoadUse(s) => Op::load_use(addr_of(s)),
        GenOp::Store(s, v) => Op::store(addr_of(s), u64::from(v) + 1),
        GenOp::StoreRelease(s, v) => Op::store_release(addr_of(s), u64::from(v) + 1),
        GenOp::FetchAdd(s) => Op::fetch_add_acq_rel(addr_of(s), 1),
        GenOp::Fence(k) => Op::Fence(
            [
                Barrier::DmbFull,
                Barrier::DmbSt,
                Barrier::DmbLd,
                Barrier::DsbFull,
                Barrier::DsbSt,
                Barrier::DsbLd,
                Barrier::Isb,
                Barrier::None,
            ][usize::from(k) % 8],
        ),
    }
}

fn gen_op() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        any::<u8>().prop_map(GenOp::Nops),
        any::<u8>().prop_map(GenOp::Load),
        any::<u8>().prop_map(GenOp::LoadUse),
        (any::<u8>(), any::<u16>()).prop_map(|(s, v)| GenOp::Store(s, v)),
        (any::<u8>(), any::<u16>()).prop_map(|(s, v)| GenOp::StoreRelease(s, v)),
        any::<u8>().prop_map(GenOp::FetchAdd),
        any::<u8>().prop_map(GenOp::Fence),
    ]
}

/// Runs a fixed list of ops, then halts.
fn ops_thread(ops: Vec<Op>) -> Box<dyn SimThread> {
    Box::new(Script::new(|cpu| async move {
        for op in ops {
            cpu.op(op).await;
        }
    }))
}

fn run_program(platform: &Platform, programs: &[Vec<GenOp>]) -> (Machine, u64) {
    let mut m = Machine::new(platform.clone());
    let step = platform.topology.core_count() / programs.len().max(1);
    for (i, p) in programs.iter().enumerate() {
        let ops: Vec<Op> = p.iter().copied().map(to_op).collect();
        m.add_thread_on(i * step.max(1), ops_thread(ops));
    }
    let stats = m.run(80_000_000);
    assert!(
        stats.halted,
        "random programs must always terminate (no deadlock)"
    );
    (m, stats.cycles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No op stream can deadlock or stall the machine forever.
    #[test]
    fn arbitrary_single_core_programs_terminate(
        ops in prop::collection::vec(gen_op(), 0..120),
    ) {
        run_program(&Platform::kunpeng916(), &[ops]);
    }

    /// Multi-core random programs terminate and never lose the final store
    /// to any cell one thread wrote alone.
    #[test]
    fn arbitrary_multi_core_programs_terminate(
        a in prop::collection::vec(gen_op(), 0..60),
        b in prop::collection::vec(gen_op(), 0..60),
        c in prop::collection::vec(gen_op(), 0..60),
    ) {
        run_program(&Platform::kunpeng916(), &[a, b, c]);
    }

    /// The machine is deterministic: identical programs give identical
    /// cycle counts and memory images.
    #[test]
    fn simulation_is_deterministic(
        a in prop::collection::vec(gen_op(), 0..80),
        b in prop::collection::vec(gen_op(), 0..80),
    ) {
        let progs = [a, b];
        let (m1, c1) = run_program(&Platform::kirin960(), &progs);
        let (m2, c2) = run_program(&Platform::kirin960(), &progs);
        prop_assert_eq!(c1, c2);
        for slot in 0..16u8 {
            prop_assert_eq!(m1.read_memory(addr_of(slot)), m2.read_memory(addr_of(slot)));
        }
    }

    /// A single writer's last store to a cell always wins (per-location
    /// coherence): after quiescence the memory image holds the program-order
    /// last value.
    #[test]
    fn single_writer_last_store_wins(
        values in prop::collection::vec(any::<u16>(), 1..40),
        fences in prop::collection::vec(any::<u8>(), 1..40),
    ) {
        let mut ops = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            ops.push(GenOp::Store(3, v));
            ops.push(GenOp::Fence(fences[i % fences.len()]));
        }
        let (m, _) = run_program(&Platform::raspberry_pi4(), &[ops]);
        let expect = u64::from(*values.last().unwrap()) + 1;
        prop_assert_eq!(m.read_memory(addr_of(3)), expect);
    }

    /// Stall attribution invariants on random programs: the per-cause and
    /// per-kind counters are non-negative by type, sum exactly to the total
    /// on every core, never exceed the core's lifetime, and the whole
    /// breakdown is deterministic across repeated runs. (`ARMBAR_JOBS`
    /// invariance follows from this: the sweep engine replays identical
    /// single-machine runs regardless of worker count, so a deterministic
    /// breakdown is a worker-count-independent one — see the experiment
    /// crate's determinism tests for the end-to-end CSV check.)
    #[test]
    fn stall_breakdown_is_consistent_and_deterministic(
        a in prop::collection::vec(gen_op(), 0..80),
        b in prop::collection::vec(gen_op(), 0..80),
    ) {
        let progs = [a, b];
        let platform = Platform::kunpeng916();
        let step = platform.topology.core_count() / 2;
        let (m1, _) = run_program(&platform, &progs);
        let (m2, _) = run_program(&platform, &progs);
        for core in [0, step] {
            let s = m1.core_stats(core);
            prop_assert_eq!(s.stall.cause_total(), s.stall.total);
            prop_assert_eq!(s.stall.kind_total(), s.stall.total);
            prop_assert!(s.stall.total <= s.cycles);
            prop_assert_eq!(s.barrier_stall_cycles(), s.stall.total);
            prop_assert_eq!(&s.stall, &m2.core_stats(core).stall);
        }
    }

    /// RMWs never lose updates regardless of interleaving, fences, or
    /// platform.
    #[test]
    fn fetch_adds_are_exact(
        counts in prop::collection::vec(1u8..20, 2..4),
        kind_ix in 0usize..4,
    ) {
        let platform = Platform::of(PlatformKind::ALL[kind_ix]);
        let mut total = 0u64;
        let progs: Vec<Vec<GenOp>> = counts
            .iter()
            .map(|&n| {
                total += u64::from(n);
                (0..n).map(|_| GenOp::FetchAdd(7)).collect()
            })
            .collect();
        let (m, _) = run_program(&platform, &progs);
        prop_assert_eq!(m.read_memory(addr_of(7)), total);
    }
}

/// Emits `IterationMark`s `tick` nops apart (the stop condition of the
/// nop-skip property's `run_until_iterations` calls), publishing each count
/// to a line the nop-running core also touches.
struct Ticker {
    tick: u32,
    marks: u64,
    phase: u8,
}

impl SimThread for Ticker {
    fn next(&mut self, ctx: &mut ThreadCtx) -> Op {
        if ctx.iterations >= self.marks {
            return Op::Halt;
        }
        self.phase = (self.phase + 1) % 3;
        match self.phase {
            1 => Op::Nops(self.tick),
            2 => Op::store(addr_of(0), ctx.iterations + 1),
            _ => Op::IterationMark,
        }
    }
}

/// One call of a stop-and-resume schedule.
#[derive(Debug, Clone, Copy)]
enum RunCall {
    /// `run(max_cycles)`.
    Cycles(u16),
    /// `run_until_iterations` until the ticker has made this many more marks.
    Marks(u8),
}

const RUNNER: usize = 0;
const TICKER: usize = 4;

/// Everything the engines must agree on after a `run*` call returns.
type Observed = (RunStats, u64, CoreStats, CoreStats, Vec<u64>);

/// Build the nop-run machine and drive it through `schedule`, then to
/// quiescence, recording what is observable after every call.
fn run_schedule(
    engine: Engine,
    (rob_size, issue_width, retire_width): (u32, u32, u32),
    ops: &[Op],
    tick: u32,
    schedule: &[RunCall],
) -> Vec<Observed> {
    let mut platform = Platform::kunpeng916();
    platform.latency.rob_size = rob_size;
    platform.latency.issue_width = issue_width;
    platform.latency.retire_width = retire_width;
    let mut m = Machine::new(platform);
    m.set_engine(engine);
    let ops = ops.to_vec();
    m.add_thread_on(RUNNER, ops_thread(ops));
    m.add_thread_on(
        TICKER,
        Box::new(Ticker {
            tick,
            marks: 400,
            phase: 0,
        }),
    );
    let mut seen = Vec::new();
    let mut observe = |m: &Machine, stats: RunStats| {
        seen.push((
            stats,
            m.now(),
            m.core_stats(RUNNER).clone(),
            m.core_stats(TICKER).clone(),
            (0..16).map(|slot| m.read_memory(addr_of(slot))).collect(),
        ));
    };
    for &call in schedule {
        let stats = match call {
            RunCall::Cycles(n) => m.run(u64::from(n)),
            RunCall::Marks(k) => {
                let target = m.core_stats(TICKER).iterations + u64::from(k);
                m.run_until_iterations(TICKER, target, 80_000_000)
            }
        };
        observe(&m, stats);
    }
    let stats = m.run(80_000_000);
    assert!(stats.halted, "{engine:?}: the machine must quiesce");
    observe(&m, stats);
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The event engine's lazy nop runs are invisible: for any pipeline
    /// shape, any nop-run length, any prefix that leaves stores, loads,
    /// `DMB st` gates or fences in flight when the run starts, and any
    /// schedule of `run`/`run_until_iterations` calls that stop the machine
    /// mid-run and resume it, both engines report the same `RunStats`,
    /// time, memory and per-core `CoreStats` (issued, retired, cycles,
    /// iterations, stall breakdown, latency histogram) after every call.
    #[test]
    fn lazy_nop_runs_match_per_cycle_stepping(
        shape in (1u32..=160, 1u32..=8, 1u32..=8),
        prefix in prop::collection::vec(gen_op(), 0..12),
        nops in 1u32..=200_000,
        suffix in prop::collection::vec(gen_op(), 0..6),
        tick in 1u32..=3_000,
        schedule in prop::collection::vec(
            prop_oneof![
                (1u16..=u16::MAX).prop_map(RunCall::Cycles),
                (1u8..40).prop_map(RunCall::Marks),
            ],
            0..6,
        ),
    ) {
        let mut ops: Vec<Op> = prefix.iter().copied().map(to_op).collect();
        ops.push(Op::Nops(nops));
        ops.push(Op::IterationMark);
        ops.extend(suffix.iter().copied().map(to_op));
        ops.push(Op::Nops(nops / 7 + 1));
        ops.push(Op::IterationMark);
        let event = run_schedule(Engine::EventDriven, shape, &ops, tick, &schedule);
        let oracle = run_schedule(Engine::LockstepOracle, shape, &ops, tick, &schedule);
        for (call, (ev, or)) in event.iter().zip(&oracle).enumerate() {
            prop_assert_eq!(
                ev, or,
                "after call {} of {:?} on {:?} running {:?}:\n event: {:?}\noracle: {:?}",
                call, &schedule, shape, &ops, ev, or
            );
        }
    }
}

/// CAS success is exclusive: of N cores racing one CAS(0 -> id), exactly
/// one observes the old value 0.
#[test]
fn cas_winner_is_unique() {
    async fn cas_once(cpu: Cpu, id: u64) {
        let old = cpu
            .op(Op::Rmw {
                addr: 0x9000,
                kind: RmwKind::Cas { expected: 0 },
                operand: id,
                acquire: true,
                release: false,
            })
            .await;
        if old == 0 {
            // We won: record it.
            cpu.op(Op::store(0xA000 + id * 64, 1)).await;
        }
    }
    let platform = Platform::kunpeng916();
    let mut m = Machine::new(platform);
    for i in 0..6u64 {
        m.add_thread_on(
            i as usize * 8,
            Box::new(Script::new(|cpu| cas_once(cpu, i + 1))),
        );
    }
    let stats = m.run(10_000_000);
    assert!(stats.halted);
    let winners: u64 = (0..6u64)
        .map(|i| m.read_memory(0xA000 + (i + 1) * 64))
        .sum();
    assert_eq!(winners, 1, "exactly one CAS may observe 0");
    assert_ne!(m.read_memory(0x9000), 0);
}
