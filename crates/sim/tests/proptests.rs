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

/// A stretch of the nop-skip property's program that leaves the core with
/// nothing to do but bookkeeping: retiring behind an access it is suspended
/// on, or pushing nops under a barrier that lets them issue.
#[derive(Debug, Clone, Copy)]
enum Stretch {
    /// `nops` nops, then a value-consuming load (or a `fetch_add`): the core
    /// is suspended while what it just issued retires.
    Suspend { nops: u8, rmw: bool, slot: u8 },
    /// A `DMB ld` / `DMB full` / `DSB`, behind a store or a plain load still
    /// outstanding (`prior`) or behind nothing, then `nops` nops.
    Barrier {
        prior: Option<bool>,
        kind: u8,
        nops: u8,
    },
}

fn stretch_ops(s: Stretch, ops: &mut Vec<Op>) {
    use armbar_barriers::Barrier;
    match s {
        Stretch::Suspend { nops, rmw, slot } => {
            ops.push(Op::Nops(u32::from(nops % 200) + 1));
            ops.push(if rmw {
                Op::fetch_add_acq_rel(addr_of(slot), 1)
            } else {
                Op::load_use(addr_of(slot))
            });
        }
        Stretch::Barrier { prior, kind, nops } => {
            match prior {
                Some(true) => ops.push(Op::store(addr_of(kind), 7)),
                Some(false) => ops.push(Op::load(addr_of(kind))),
                None => {}
            }
            ops.push(Op::Fence(
                [Barrier::DmbLd, Barrier::DmbFull, Barrier::DsbFull][usize::from(kind) % 3],
            ));
            ops.push(Op::Nops(u32::from(nops % 200) + 1));
        }
    }
}

fn gen_stretch() -> impl Strategy<Value = Stretch> {
    prop_oneof![
        (any::<u8>(), any::<bool>(), any::<u8>()).prop_map(|(nops, rmw, slot)| Stretch::Suspend {
            nops,
            rmw,
            slot
        }),
        (
            prop_oneof![Just(None), any::<bool>().prop_map(Some)],
            any::<u8>(),
            any::<u8>()
        )
            .prop_map(|(prior, kind, nops)| Stretch::Barrier { prior, kind, nops }),
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
            prop_assert_eq!(s.stall.kind_total(), s.stall.total());
            prop_assert!(s.stall.total() <= s.cycles);
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
    /// `DMB st` gates or fences in flight when the run starts, any stretches
    /// in which the core only retires behind a `load_use`/`fetch_add` it is
    /// suspended on or only pushes nops under a `DMB ld`/`DMB full`/`DSB`
    /// issued with or without outstanding priors, and any schedule of
    /// `run`/`run_until_iterations` calls that stop the machine mid-run
    /// (short bounds land inside those stretches and on their last cycle)
    /// and resume it, both engines report the same `RunStats`, time, memory
    /// and per-core `CoreStats` (issued, retired, cycles, iterations, stall
    /// breakdown, latency histogram) after every call.
    #[test]
    fn lazy_nop_runs_match_per_cycle_stepping(
        shape in (1u32..=160, 1u32..=8, 1u32..=8),
        prefix in prop::collection::vec(gen_op(), 0..12),
        stretches in prop::collection::vec(gen_stretch(), 0..8),
        nops in 1u32..=200_000,
        suffix in prop::collection::vec(gen_op(), 0..6),
        tick in 1u32..=3_000,
        schedule in prop::collection::vec(
            prop_oneof![
                (1u16..=80).prop_map(RunCall::Cycles),
                (1u16..=u16::MAX).prop_map(RunCall::Cycles),
                (1u8..40).prop_map(RunCall::Marks),
            ],
            0..10,
        ),
    ) {
        let mut ops: Vec<Op> = prefix.iter().copied().map(to_op).collect();
        for &s in &stretches {
            stretch_ops(s, &mut ops);
        }
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

/// Every bound position, not a sample of them: a program of retire-only and
/// nops-under-a-barrier stretches is run `step` cycles at a time to its end
/// under both engines, which must agree after every single call — so every
/// stretch is stopped on its first cycle, inside, and on its last.
#[test]
fn a_bound_on_every_cycle_of_a_quiet_stretch_reads_like_the_oracle() {
    let mut ops = Vec::new();
    for (i, nops) in [0u8, 2, 8, 39, 198].into_iter().enumerate() {
        let i = i as u8;
        let suspend = Stretch::Suspend {
            nops,
            rmw: i.is_multiple_of(2),
            slot: i,
        };
        stretch_ops(suspend, &mut ops);
        for prior in [None, Some(true), Some(false)] {
            let kind = i + u8::from(prior == Some(false));
            stretch_ops(Stretch::Barrier { prior, kind, nops }, &mut ops);
        }
    }
    ops.push(Op::IterationMark);
    for shape in [(128, 4, 4), (16, 2, 1), (6, 3, 5)] {
        for step in [1u16, 2, 3, 7] {
            let schedule = vec![RunCall::Cycles(step); 9_000 / usize::from(step)];
            let event = run_schedule(Engine::EventDriven, shape, &ops, 50, &schedule);
            let oracle = run_schedule(Engine::LockstepOracle, shape, &ops, 50, &schedule);
            let runner = &event[schedule.len() - 1].2;
            assert!(runner.halted_at.is_some(), "the calls cover the program");
            for (call, (ev, or)) in event.iter().zip(&oracle).enumerate() {
                assert!(
                    ev == or,
                    "after call {call} of {step}-cycle runs on {shape:?}:\n event: {ev:?}\noracle: {or:?}"
                );
            }
        }
    }
}

/// A marked poll loop of the spin-elision property: after `prefix` and
/// `entry`, forever — poll `lines` (a change of any polled word ends the
/// wait), pad; on a change publish what was seen and mark the iteration.
#[derive(Debug, Clone)]
struct Poller {
    prefix: Vec<GenOp>,
    entry: Entry,
    /// Indices into the polled-line pool, 1–3 of them.
    lines: Vec<u8>,
    pad: u32,
}

/// What a poller leaves in its store buffer as it reaches its loop.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// Nothing more than its prefix left.
    Quiet,
    /// A store to a line homed on the other node, still draining.
    Store,
    /// Such a store, a `DMB st`, and a store held behind the gate.
    Gated,
    /// Such a store and an STLR that waits for it to drain.
    Release,
}

/// The first of poller `id`'s two entry lines, homed on `HIGH_WRITER`.
fn far_addr(id: u64) -> u64 {
    0xE000 + id * 128
}

/// One write of a spin-elision writer, `delay` nops after its previous one.
#[derive(Debug, Clone, Copy)]
struct Poke {
    delay: u16,
    /// Which pool line.
    line: u8,
    /// The polled word, or its neighbour on the same line (a wake that
    /// changes nothing the loop reads).
    neighbour: bool,
    how: PokeKind,
}

#[derive(Debug, Clone, Copy)]
enum PokeKind {
    Store,
    StoreRelease,
    FetchAdd,
    Swap,
}

/// The polled-line pool: four lines the pollers share.
fn polled_addr(line: u8) -> u64 {
    0x8000 + u64::from(line % 4) * 64
}

async fn poller(cpu: Cpu, id: u64, p: Poller) {
    for g in p.prefix {
        cpu.op(to_op(g)).await;
    }
    let far = far_addr(id);
    let entry: &[Op] = match p.entry {
        Entry::Quiet => &[],
        Entry::Store => &[Op::store(far, 1)],
        Entry::Gated => &[
            Op::store(far, 1),
            Op::Fence(armbar_barriers::Barrier::DmbSt),
            Op::store(far + 64, 2),
        ],
        Entry::Release => &[Op::store(far, 1), Op::store_release(far + 64, 3)],
    };
    for &op in entry {
        cpu.op(op).await;
    }
    let mut seen = vec![0u64; p.lines.len()];
    loop {
        'wait: loop {
            cpu.spin_mark().await;
            for (i, &line) in p.lines.iter().enumerate() {
                let v = cpu.op(Op::load_use(polled_addr(line))).await;
                if v != seen[i] {
                    seen[i] = v;
                    break 'wait;
                }
            }
            if p.pad > 0 {
                cpu.op(Op::Nops(p.pad)).await;
            }
        }
        cpu.op(Op::store(0xC000 + id * 64, seen.iter().sum())).await;
        cpu.op(Op::IterationMark).await;
    }
}

async fn poke_writer(cpu: Cpu, id: u64, pokes: Vec<Poke>) {
    for (n, poke) in pokes.into_iter().enumerate() {
        if poke.delay > 0 {
            cpu.op(Op::Nops(u32::from(poke.delay))).await;
        }
        let addr = polled_addr(poke.line) + if poke.neighbour { 8 } else { 0 };
        // Never a value the word held before: every poke is a change.
        let value = (id + 1) << 32 | (n as u64 + 1);
        cpu.op(match poke.how {
            PokeKind::Store => Op::store(addr, value),
            PokeKind::StoreRelease => Op::store_release(addr, value),
            PokeKind::FetchAdd => Op::fetch_add_acq_rel(addr, 1 << 48),
            PokeKind::Swap => Op::Rmw {
                addr,
                kind: RmwKind::Swap,
                operand: value,
                acquire: false,
                release: false,
            },
        })
        .await;
    }
}

/// Cores of the spin-elision machine: a writer below and one above the
/// pollers, so wakes come from lower and from higher core ids.
const LOW_WRITER: usize = 1;
const POLLERS: [usize; 2] = [2, 9];
const HIGH_WRITER: usize = 33;
const SPIN_CORES: [usize; 5] = [LOW_WRITER, POLLERS[0], TICKER, POLLERS[1], HIGH_WRITER];

/// What the engines must agree on after a `run*` call of the spin-elision
/// machine: outcome, time, every active core's statistics, and memory.
type SpinObserved = (RunStats, u64, Vec<CoreStats>, Vec<u64>);

fn run_spin_schedule(
    engine: Engine,
    (rob_size, issue_width, retire_width): (u32, u32, u32),
    pollers: &[Poller; 2],
    pokes: &[Vec<Poke>; 2],
    tick: u32,
    schedule: &[RunCall],
) -> (Vec<SpinObserved>, u64) {
    let mut platform = Platform::kunpeng916();
    platform.latency.rob_size = rob_size;
    platform.latency.issue_width = issue_width;
    platform.latency.retire_width = retire_width;
    let mut m = Machine::new(platform);
    m.set_engine(engine);
    m.set_region_home(far_addr(0), far_addr(2), HIGH_WRITER);
    for (i, (&core, p)) in POLLERS.iter().zip(pollers).enumerate() {
        let p = p.clone();
        m.add_thread_on(core, Box::new(Script::new(|cpu| poller(cpu, i as u64, p))));
    }
    for (i, (core, w)) in [LOW_WRITER, HIGH_WRITER].into_iter().zip(pokes).enumerate() {
        let w = w.clone();
        m.add_thread_on(
            core,
            Box::new(Script::new(|cpu| poke_writer(cpu, i as u64, w))),
        );
    }
    m.add_thread_on(
        TICKER,
        Box::new(Ticker {
            tick,
            marks: 60,
            phase: 0,
        }),
    );
    let mut seen = Vec::new();
    let mut observe = |m: &Machine, stats: RunStats| {
        let memory = (0..4u8)
            .flat_map(|l| [polled_addr(l), polled_addr(l) + 8])
            .chain([0xC000, 0xC040, addr_of(0)])
            .chain((0..4).map(|i| far_addr(0) + i * 64))
            .chain((0..16).map(addr_of))
            .map(|a| m.read_memory(a))
            .collect();
        let cores = SPIN_CORES
            .iter()
            .map(|&c| m.core_stats(c).clone())
            .collect();
        seen.push((stats, m.now(), cores, memory));
    };
    for &call in schedule {
        let stats = match call {
            RunCall::Cycles(n) => m.run(u64::from(n)),
            RunCall::Marks(k) => {
                let target = m.core_stats(TICKER).iterations + u64::from(k);
                m.run_until_iterations(TICKER, target, 20_000)
            }
        };
        observe(&m, stats);
    }
    // The pollers never halt: the last call runs into its cycle bound with
    // both of them, in the end, parked.
    let stats = m.run(20_000);
    observe(&m, stats);
    (seen, m.spin_periods_skipped())
}

/// The first thing two observations disagree on (whole `CoreStats` of five
/// cores twice over is unreadable).
fn spin_difference(ev: &SpinObserved, or: &SpinObserved) -> String {
    if (&ev.0, ev.1) != (&or.0, or.1) {
        return format!(
            "event {:?} at {}, oracle {:?} at {}",
            ev.0, ev.1, or.0, or.1
        );
    }
    for ((core, e), o) in SPIN_CORES.iter().zip(&ev.2).zip(&or.2) {
        if e != o {
            return format!("core {core}:\n event: {e:?}\noracle: {o:?}");
        }
    }
    format!("memory:\n event: {:?}\noracle: {:?}", ev.3, or.3)
}

fn gen_poller() -> impl Strategy<Value = Poller> {
    (
        (
            prop::collection::vec(gen_op(), 0..8),
            // A long nop tail still issuing when the loop starts, or none.
            prop_oneof![Just(0u8), 1u8..=255],
        ),
        prop_oneof![
            Just(Entry::Quiet),
            Just(Entry::Store),
            Just(Entry::Gated),
            Just(Entry::Release),
        ],
        prop::collection::vec(0u8..4, 1..4),
        // Mostly a branch-sized pad; sometimes one long enough to be a
        // nop run of its own inside every period.
        prop_oneof![0u32..=3, 0u32..=3, 0u32..=3, 4u32..=60],
    )
        .prop_map(|((mut prefix, tail), entry, lines, pad)| {
            if tail > 0 {
                prefix.push(GenOp::Nops(tail));
            }
            Poller {
                prefix,
                entry,
                lines,
                pad,
            }
        })
}

fn gen_pokes() -> impl Strategy<Value = Vec<Poke>> {
    let how = prop_oneof![
        Just(PokeKind::Store),
        Just(PokeKind::StoreRelease),
        Just(PokeKind::FetchAdd),
        Just(PokeKind::Swap),
    ];
    let poke = (0u16..400, 0u8..4, any::<bool>(), how).prop_map(|(delay, line, nb, how)| Poke {
        delay,
        line,
        // One poke in four goes to the neighbouring word.
        neighbour: nb && delay % 2 == 0,
        how,
    });
    prop::collection::vec(poke, 0..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Parking a settled poll loop is invisible: for any pipeline shape, any
    /// loop of one to three polled lines and a pad, entered with stores,
    /// gates, fences or a nop tail still in flight — among them a store
    /// draining to the other node, a store behind a `DMB st` gate and an
    /// STLR, which the loop may park with — any writers on lower and
    /// higher core ids whose drain starts, RMWs and commits land anywhere in
    /// the period (the polled word or its neighbour on the line), and any
    /// schedule of `run`/`run_until_iterations` calls that stop the machine
    /// mid-spin and resume it, both engines report the same `RunStats`,
    /// time, memory and per-core `CoreStats` after every call.
    #[test]
    fn elided_spins_match_per_iteration_polling(
        shape in (1u32..=160, 1u32..=8, 1u32..=8),
        pollers in (gen_poller(), gen_poller()),
        pokes in (gen_pokes(), gen_pokes()),
        tick_and_schedule in (
            1u32..=400,
            prop::collection::vec(
                prop_oneof![
                    (1u16..=6_000).prop_map(RunCall::Cycles),
                    (1u8..20).prop_map(RunCall::Marks),
                ],
                0..6,
            ),
        ),
    ) {
        let pollers = [pollers.0, pollers.1];
        let pokes = [pokes.0, pokes.1];
        let (tick, schedule) = tick_and_schedule;
        let (event, skipped) =
            run_spin_schedule(Engine::EventDriven, shape, &pollers, &pokes, tick, &schedule);
        let (oracle, _) =
            run_spin_schedule(Engine::LockstepOracle, shape, &pollers, &pokes, tick, &schedule);
        for (call, (ev, or)) in event.iter().zip(&oracle).enumerate() {
            prop_assert!(
                ev == or,
                "after call {} of {:?} on {:?}, tick {}:\n{:?}\n{:?}\n{}",
                call, &schedule, shape, tick, &pollers, &pokes, spin_difference(ev, or)
            );
        }
        // The property is about elision: the last call at least must have
        // skipped something. (A long pad on a pipeline that issues faster
        // than it retires can alternate between two stances at its marks
        // and never settle; it is stepped, and still equal.)
        prop_assert!(
            skipped > 0 || pollers.iter().all(|p| p.pad > 3),
            "nothing was elided on {:?} {:?}", shape, &pollers
        );
    }
}

/// A marked loop that keeps a counter of its own — DSynch's client retries
/// the baton every eighth miss — breaks the mark's contract; the oracle,
/// which executes every iteration, must say so.
async fn counting_poller(cpu: Cpu) {
    let mut misses = 0u64;
    loop {
        cpu.spin_mark().await;
        if cpu.op(Op::load_use(0x8000)).await != 0 {
            return;
        }
        misses += 1;
        cpu.op(Op::Nops(2)).await;
        if misses.is_multiple_of(8) {
            cpu.op(Op::fetch_add_acq_rel(0x8040, 1)).await;
        }
    }
}

#[test]
#[should_panic(expected = "core 3: a marked poll loop is not pure")]
fn a_marked_loop_with_a_miss_counter_trips_the_purity_check() {
    let mut m = Machine::new(Platform::kunpeng916());
    m.set_engine(Engine::LockstepOracle);
    m.add_thread_on(3, Box::new(Script::new(counting_poller)));
    m.run(10_000);
}

#[test]
#[should_panic(expected = "core 0: a marked poll loop is not pure")]
fn a_marked_loop_that_ends_early_trips_the_purity_check() {
    // Every other iteration skips its pad, on no evidence from memory.
    let mut m = Machine::new(Platform::kunpeng916());
    m.set_engine(Engine::LockstepOracle);
    m.add_thread_on(
        0,
        Box::new(Script::new(|cpu| async move {
            for round in 0u64.. {
                cpu.spin_mark().await;
                cpu.op(Op::load_use(0x8000)).await;
                if round % 2 == 0 {
                    cpu.op(Op::Nops(1)).await;
                }
            }
        })),
    );
    m.run(10_000);
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
