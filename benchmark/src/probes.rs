//! Layer probes: each layer timed from outside, by calls into its public
//! functions, with fixed work so its exact counts repeat.
//!
//! A traced run of any workload runs all of them under the `probes` span,
//! so every per-layer metric is measured in every traced run. Sizes are
//! fixed so the whole set takes about six seconds on the reference box.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use armbar_analyze::{corpus, replay_cycles};
use armbar_barriers::{Barrier, ResponseMode};
use armbar_experiments::bench_sim::parked_spinner_machine;
use armbar_experiments::{figures, jobs, RunCache, SweepCtx, SweepSpec, Table};
use armbar_extract::{check_native_drift, lift_file, parse};
use armbar_sim::directory::Directory;
use armbar_sim::rob::Rob;
use armbar_sim::storebuf::{SbEntry, SbState, StoreBuffer};
use armbar_sim::{DistanceClass, Line, Machine, Op, Platform, PlatformKind, SimThread, ThreadCtx};
use armbar_simapps::abstract_model::{run_model, BarrierLoc, ModelSpec};
use armbar_simapps::barrier_sim::{run_barrier, BarrierConfig, BarrierFamily};
use armbar_simapps::delegation_sim::{
    run_delegation, CsProfile, DelegationBarriers, DelegationConfig, DelegationKind,
};
use armbar_simapps::mcs_sim::{run_mcs, McsConfig};
use armbar_simapps::prodcons::{run_prodcons, PcVariant, FIG6A_COMBOS};
use armbar_simapps::ticket_sim::{run_ticket, TicketConfig};
use armbar_simapps::BindConfig;
use armbar_wmm::{explore_dpor_uncached, explore_memo_stats, MemoryModel};

use crate::check::References;
use crate::rng::Rng;
use crate::spec::probed_experiments;
use crate::stats::{fastest, median, percentile};
use crate::trace::Tracer;
use crate::workloads::{regenerate, Env, PassOutcome, VerdictRefs, MANYCORE_ROUNDS};

/// Seed streams of the two probes that take generated inputs.
const CACHE_STREAM: u64 = 0xCAC4E;
const DIRECTORY_STREAM: u64 = 0xD14EC;

/// What the probes found: metric values by name, and their own correctness
/// checks counted like workload operations.
#[derive(Debug, Default)]
pub struct ProbeReport {
    /// Metric name to value; units come from [`crate::spec::per_layer`].
    pub metrics: BTreeMap<String, f64>,
    /// Checks made.
    pub attempted: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
}

impl ProbeReport {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failures.push(format!("probe {what}"));
        }
    }
}

/// Time `work` under a `probe:<name>` span; returns its result and seconds.
fn timed<T>(tracer: &mut Tracer, name: &str, work: impl FnOnce() -> T) -> (T, f64) {
    let span = tracer.open(&format!("probe:{name}"));
    let t0 = Instant::now();
    let out = work();
    let secs = t0.elapsed().as_secs_f64();
    tracer.close(span, &[]);
    (out, secs)
}

/// Run every layer probe. The current directory must be the scratch
/// directory.
///
/// # Errors
///
/// A message when the references or fixtures cannot be read.
pub fn run_all(tracer: &mut Tracer, env: &Env, seed: u64) -> Result<ProbeReport, String> {
    let refs = References::load(&env.refs_dir)
        .map_err(|e| format!("references {}: {e}", env.refs_dir.display()))?;
    let verdict = VerdictRefs::load(&refs, &env.repo)?;
    let mut report = ProbeReport::default();
    let span = tracer.open("probes");
    experiments_micro(tracer, &mut report, seed);
    experiments_cold(tracer, &mut report, &refs);
    simapps(tracer, &mut report);
    sim(tracer, &mut report, seed);
    wmm_and_analyze(tracer, &mut report, &verdict, seed);
    extract(tracer, &mut report, &verdict);
    harness(tracer, &mut report);
    tracer.close(span, &[]);
    Ok(report)
}

// ---------------------------------------------------------------- experiments

/// A table the size of the largest committed one (`dlock.csv`: 192 x 8).
fn wide_table() -> Table {
    let mut t = Table::new(
        "probe_table",
        "probe",
        "platform/design/threads",
        (0..8).map(|c| format!("column {c}")).collect(),
        "value",
    );
    for r in 0..192u32 {
        t.push_row(
            &format!("kunpeng916/ccsynch-pilot/{r}"),
            (0..8)
                .map(|c| f64::from(r * 8 + c) * 1234.5678 + 0.25)
                .collect(),
        );
    }
    t
}

fn experiments_micro(tracer: &mut Tracer, report: &mut ProbeReport, seed: u64) {
    // Run cache: seeded keys, eight values each (a dlock cell's width),
    // looked up in another order than stored.
    const KEYS: usize = 2000;
    let dir = PathBuf::from("cache.probe");
    let _ = fs::remove_dir_all(&dir);
    let cache = RunCache::at(&dir);
    let mut rng = Rng::stream(seed, CACHE_STREAM);
    let entries: Vec<(String, [f64; 8])> = (0..KEYS)
        .map(|_| {
            let key = format!("armbar-benchmark|cache-probe|{:016x}", rng.next_u64());
            (key, [(); 8].map(|()| rng.next_u64() as f64 / 7.0))
        })
        .collect();
    let ((), secs) = timed(tracer, "experiments.cache.store", || {
        for (key, vals) in &entries {
            cache.store(key, vals);
        }
    });
    report.set("experiments.cache.store_us", secs * 1e6 / KEYS as f64);
    let mut order: Vec<usize> = (0..KEYS).collect();
    rng.shuffle(&mut order);
    let (found, secs) = timed(tracer, "experiments.cache.lookup", || {
        order
            .iter()
            .filter(|&&i| cache.lookup(&entries[i].0).as_deref() == Some(&entries[i].1[..]))
            .count()
    });
    report.set("experiments.cache.lookup_us", secs * 1e6 / KEYS as f64);
    report.check(
        "experiments.cache: every stored key reads back",
        found == KEYS,
    );
    let _ = fs::remove_dir_all(&dir);

    // Report: render and CSV-write the widest table.
    const REPS: usize = 100;
    let table = wide_table();
    let (chars, secs) = timed(tracer, "experiments.report.render", || {
        (0..REPS)
            .map(|_| black_box(&table).render().len())
            .sum::<usize>()
    });
    report.set("experiments.report.render_us", secs * 1e6 / REPS as f64);
    report.check(
        "experiments.report: render is not empty",
        chars > REPS * 192,
    );
    let (written, secs) = timed(tracer, "experiments.report.write_csv", || {
        (0..REPS)
            .filter(|_| black_box(&table).write_csv("probe.out").is_ok())
            .count()
    });
    report.set("experiments.report.write_csv_us", secs * 1e6 / REPS as f64);
    let lines = fs::read_to_string("probe.out/probe_table.csv").map_or(0, |t| t.lines().count());
    report.check(
        "experiments.report: CSV has a header and 192 rows",
        written == REPS && lines == 193,
    );
    let _ = fs::remove_dir_all("probe.out");

    // Sweep engine and worker pool on work that costs nothing.
    const CELLS: usize = 10_000;
    let (sum, secs) = timed(tracer, "experiments.sweep.cell_overhead", || {
        let mut spec = SweepSpec::new("probe");
        let ids: Vec<_> = (0..CELLS)
            .map(|i| spec.cell(format!("armbar-benchmark|cell|{i}"), move || vec![i as f64]))
            .collect();
        let r = spec.run(&SweepCtx::serial_uncached());
        ids.into_iter().map(|id| r.scalar(id)).sum::<f64>()
    });
    report.set(
        "experiments.sweep.cell_overhead_us",
        secs * 1e6 / CELLS as f64,
    );
    let want = (CELLS * (CELLS - 1) / 2) as f64;
    report.check("experiments.sweep: every cell ran once", sum == want);
    let (sum, secs) = timed(tracer, "experiments.jobs.dispatch_j2", || {
        let work: Vec<_> = (0..CELLS).map(|i| move || i as f64).collect();
        jobs::run_jobs(work, 2).into_iter().sum::<f64>()
    });
    report.set("experiments.jobs.dispatch_us_j2", secs * 1e6 / CELLS as f64);
    report.check("experiments.jobs: every job ran once", sum == want);
}

/// One cold regeneration of each probed experiment into one cache (checked
/// against `results/` like a workload operation) and `fig2` once more from
/// that cache, so the cache's three counters are fixed and none is zero;
/// then `fig7a` uncached on one worker and on two, for the pool's speed-up
/// (base = serial).
fn experiments_cold(tracer: &mut Tracer, report: &mut ProbeReport, refs: &References) {
    let cache = Path::new("cache.probe");
    let _ = fs::remove_dir_all(cache);
    let mut out = PassOutcome::default();
    for id in probed_experiments() {
        regenerate(refs, tracer, "exp", id, cache, &mut out);
    }
    regenerate(refs, tracer, "warm", "fig2", cache, &mut out);
    let _ = fs::remove_dir_all(cache);
    for (name, key) in [
        ("experiments.cache.hits", "cache_hits"),
        ("experiments.cache.misses", "cache_misses"),
        ("experiments.cache.stores", "cache_stores"),
    ] {
        report.set(name, out.counts[key] as f64);
    }
    report.attempted += out.attempted;
    report.failures.extend(out.failures);
    let mut fig7a = |workers: usize| {
        timed(
            tracer,
            &format!("experiments.jobs.fig7a_j{workers}"),
            || figures::fig7a(&SweepCtx::new(workers, RunCache::disabled())),
        )
    };
    let (serial, serial_s) = fig7a(1);
    let (parallel, parallel_s) = fig7a(2);
    report.set("experiments.jobs.speedup_j2", serial_s / parallel_s);
    report.check(
        "experiments.jobs: two workers give the serial table",
        serial.len() == 1 && serial == parallel,
    );
}

// -------------------------------------------------------------------- simapps

fn simapps(tracer: &mut Tracer, report: &mut ProbeReport) {
    let mut probe = |module: &str, run: &mut dyn FnMut() -> u64| {
        let (cycles, secs) = timed(tracer, &format!("simapps.{module}"), run);
        report.set(
            &format!("simapps.{module}.mcycles_per_s"),
            cycles as f64 / secs / 1e6,
        );
        report.set(&format!("simapps.{module}.sim_cycles"), cycles as f64);
        report.check(
            &format!("simapps.{module}: simulated some cycles"),
            cycles > 0,
        );
    };
    let kunpeng = Platform::kunpeng916();
    // Figure 3's shape: store-store with a DMB between, cross-node.
    probe("abstract_model", &mut || {
        run_model(
            BindConfig::KunpengCrossNodes,
            ModelSpec::store_store(Barrier::DmbFull, BarrierLoc::AfterOp1, 100),
            10_000,
        )
        .cycles
    });
    // Figure 6(a)'s conservative combination.
    probe("prodcons", &mut || {
        run_prodcons(
            BindConfig::KunpengCrossNodes,
            PcVariant::Baseline(FIG6A_COMBOS[0].1),
            8000,
            1,
            40,
        )
        .cycles
    });
    // Figure 7(a)'s Kunpeng point, deeper.
    probe("ticket_sim", &mut || {
        run_ticket(
            &kunpeng,
            TicketConfig {
                threads: 16,
                global_lines: 1,
                cs_nops: 10,
                post_nops: 20,
                release_barrier: Barrier::DmbSt,
                per_thread: 100,
            },
        )
        .cycles
    });
    // exp-dlock's 16-thread MCS cell, deeper.
    probe("mcs_sim", &mut || {
        run_mcs(
            &kunpeng,
            McsConfig {
                threads: 16,
                global_lines: 1,
                cs_nops: 4,
                post_nops: 0,
                acquire_barrier: Barrier::DmbLd,
                release_barrier: Barrier::DmbSt,
                per_thread: 100,
            },
        )
        .cycles
    });
    // exp-dlock's 16-client CC-Synch cell, deeper.
    probe("delegation_sim", &mut || {
        run_delegation(
            &kunpeng,
            DelegationConfig {
                kind: DelegationKind::CcSynch,
                clients: 16,
                barriers: DelegationBarriers {
                    req: Barrier::Ldar,
                    resp: Barrier::DmbSt,
                },
                mode: ResponseMode::Flag,
                profile: CsProfile::counter(),
                per_client: 100,
                interval_nops: 0,
            },
        )
        .cycles
    });
    // exp-manycore's largest hierarchical cell, at the workload's depth.
    probe("barrier_sim", &mut || {
        run_barrier(
            &Platform::manycore(1024),
            BarrierConfig {
                family: BarrierFamily::Hierarchical,
                threads: 1024,
                rounds: MANYCORE_ROUNDS,
                work_nops: 30,
            },
        )
        .cycles
    });
}

// ------------------------------------------------------------------------ sim

/// A core that never parks: local work, a store to its own line, a load of
/// a line everyone reads, a store fence — `rounds` times.
struct Busy {
    core: u64,
    rounds: u64,
    step: u8,
}

impl SimThread for Busy {
    fn next(&mut self, _ctx: &mut ThreadCtx) -> Op {
        if self.rounds == 0 {
            return Op::Halt;
        }
        self.step = (self.step + 1) % 4;
        match self.step {
            1 => Op::Nops(8),
            2 => Op::store(0x10_0000 + self.core * 64, self.rounds),
            3 => Op::load(0x9000),
            _ => {
                self.rounds -= 1;
                Op::Fence(Barrier::DmbSt)
            }
        }
    }
}

fn sim(tracer: &mut Tracer, report: &mut ProbeReport, seed: u64) {
    // Machine, dense: 16 busy cores, nothing parked.
    let mut m = Machine::new(Platform::kunpeng916());
    for core in 0..16 {
        m.add_thread_on(
            core,
            Box::new(Busy {
                core: core as u64,
                rounds: 4000,
                step: 0,
            }),
        );
    }
    let (stats, secs) = timed(tracer, "sim.machine.dense", || m.run(1 << 40));
    report.set(
        "sim.machine.dense_steps_per_s",
        m.steps_executed() as f64 / secs,
    );
    report.check("sim.machine: the dense run halts", stats.halted);

    // Machine, parked: BENCH_sim.json's 1024-core parked spinner on the
    // event engine. Steps per 1000 simulated cycles is the engine's
    // wasted-work ratio; a lockstep engine would execute ~1 024 000.
    const PARKED_RUNS: u64 = 10;
    let mut machines: Vec<Machine> = (0..PARKED_RUNS)
        .map(|_| parked_spinner_machine(1024))
        .collect();
    let (halted, secs) = timed(tracer, "sim.machine.parked", || {
        machines.iter_mut().all(|m| m.run(1 << 40).halted)
    });
    let steps: u64 = machines.iter().map(Machine::steps_executed).sum();
    let cycles: u64 = machines.iter().map(Machine::now).sum();
    report.set("sim.machine.parked_steps_per_s", steps as f64 / secs);
    report.set(
        "sim.machine.steps_per_kcycle",
        (steps * 1000 / cycles.max(1)) as f64,
    );
    report.check("sim.machine: the parked runs halt", halted && cycles > 0);

    // Directory: a seeded line stream. One shard, 64 lines, 16 cores:
    // hit-heavy, the figures' regime. Eight shards, 4096 lines, 1024 cores
    // with waiters parked and taken: the many-core regime.
    const ACCESSES: u64 = 1_000_000;
    let mut rng = Rng::stream(seed, DIRECTORY_STREAM);
    let kunpeng = Platform::kunpeng916();
    let mut dir = Directory::new();
    let (latency, secs) = timed(tracer, "sim.directory.access", || {
        let mut latency = 0u64;
        for now in 0..ACCESSES {
            let r = rng.next_u64();
            let (core, line, write) = ((r % 16) as usize, Line((r >> 8) % 64), r >> 32 & 3 == 0);
            latency += dir
                .access(&kunpeng.topology, &kunpeng.latency, core, line, write, now)
                .latency;
        }
        latency
    });
    report.set("sim.directory.access_ns", secs * 1e9 / ACCESSES as f64);
    report.check("sim.directory: accesses cost cycles", latency > 0);
    let manycore = Platform::manycore(1024);
    let mut dir = Directory::with_shards(8);
    let mut woken = Vec::new();
    let (parked, secs) = timed(tracer, "sim.directory.access_sharded", || {
        let mut parked = 0u64;
        for now in 0..ACCESSES {
            let r = rng.next_u64();
            let (core, line, write) = (
                (r % 1024) as usize,
                Line((r >> 12) % 4096),
                r >> 32 & 3 == 0,
            );
            black_box(dir.access(
                &manycore.topology,
                &manycore.latency,
                core,
                line,
                write,
                now,
            ));
            if write {
                dir.take_waiters_into(line, &mut woken);
            } else if r >> 40 & 7 == 0 {
                dir.park_waiter(line, core);
                parked += 1;
            }
        }
        parked
    });
    report.set(
        "sim.directory.access_ns_sharded",
        secs * 1e9 / ACCESSES as f64,
    );
    report.check(
        "sim.directory: every parked core is woken or still waiting",
        woken.len() + dir.waiter_count() <= parked as usize && !woken.is_empty(),
    );

    // Store buffer: push until full, start a drain per cycle, retire it
    // three cycles later. An op is one API call.
    const SB_STORES: u64 = 200_000;
    let lat = &kunpeng.latency;
    let mut sb = StoreBuffer::new(lat.sb_size, lat.sb_drain_ports);
    let ((ops, drained), secs) = timed(tracer, "sim.storebuf", || {
        let (mut ops, mut drained, mut seq, mut now) = (0u64, 0u64, 0u64, 0u64);
        while drained < SB_STORES {
            while seq < SB_STORES && sb.has_space() {
                let addr = (seq % 48) * 64;
                sb.push(SbEntry {
                    seq,
                    addr,
                    line: Line::containing(addr),
                    value: seq,
                    release: false,
                    data_ready_at: now,
                    state: SbState::Pending,
                    drain_distance: None,
                });
                seq += 1;
                ops += 1;
            }
            if let Some(i) = sb.pick_drain_candidate(now, |_| true) {
                sb.start_drain(i, now + 3, DistanceClass::SameCluster);
                ops += 1;
            }
            now += 1;
            drained += sb.complete_drains(now).len() as u64;
            ops += 2;
        }
        (ops, drained)
    });
    report.set("sim.storebuf.op_ns", secs * 1e9 / ops as f64);
    report.check(
        "sim.storebuf: every store drains",
        drained == SB_STORES && sb.is_empty(),
    );

    // ROB: a tracked instruction and three nops in, complete, retire.
    const ROB_ROUNDS: u64 = 500_000;
    let mut rob = Rob::new(lat.rob_size);
    let (retired, secs) = timed(tracer, "sim.rob", || {
        let mut retired = 0u64;
        for _ in 0..ROB_ROUNDS {
            let id = rob.push_instr(false).expect("the ROB drains every round");
            rob.push_nops(3);
            rob.complete(id);
            retired += u64::from(rob.retire(lat.retire_width.max(4)));
        }
        retired
    });
    report.set("sim.rob.op_ns", secs * 1e9 / (ROB_ROUNDS * 4) as f64);
    report.check(
        "sim.rob: everything pushed retires",
        retired == ROB_ROUNDS * 4 && rob.is_empty(),
    );
}

// --------------------------------------------------------------- wmm, analyze

fn wmm_and_analyze(
    tracer: &mut Tracer,
    report: &mut ProbeReport,
    verdict: &VerdictRefs,
    seed: u64,
) {
    // Cold exploration of every corpus program; the 113-instruction
    // unrolled MCS case is reported alone, because it is most of the time.
    let cases = corpus();
    let largest = cases
        .iter()
        .map(|c| {
            c.program
                .threads
                .iter()
                .map(|t| t.instrs.len())
                .sum::<usize>()
        })
        .max()
        .unwrap_or(0);
    let (mut states, mut secs_all, mut large_ms) = (0u64, 0.0, 0.0);
    for case in &cases {
        let size: usize = case.program.threads.iter().map(|t| t.instrs.len()).sum();
        let (set, secs) = timed(tracer, "wmm.explore", || {
            explore_dpor_uncached(&case.program, MemoryModel::ArmWmm, 1)
        });
        states += set.states_visited as u64;
        secs_all += secs;
        if size == largest {
            large_ms = secs * 1e3;
        }
    }
    report.set("wmm.explore.states_per_s", states as f64 / secs_all);
    report.set("wmm.explore.states", states as f64);
    report.set("wmm.explore.large_ms", large_ms);
    report.check("wmm.explore: the corpus has states", states > 0);

    // One verdict-corpus pass: the per-case `lint` / `synth` spans feed the
    // analyze metrics (see `span_metrics`), the memo counters the hit share.
    let mut out = PassOutcome::default();
    verdict.pass(tracer, &mut Rng::stream(seed, 0), &mut out);
    let (hits, misses) = explore_memo_stats();
    report.set(
        "wmm.explore.memo_hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.set("analyze.lint.findings", out.counts["findings"] as f64);
    report.set("analyze.synth.leaves", out.counts["leaves"] as f64);
    report.attempted += out.attempted;
    report.failures.extend(out.failures);

    // The exp-lint cold path's simulator share: replay the three lifted
    // fixtures on the four platform profiles at the experiment's depth.
    let programs: Vec<_> = verdict
        .asm
        .iter()
        .filter_map(|(_, text)| armbar_extract::lift(text).ok())
        .map(|l| l.program)
        .collect();
    let (cycles, secs) = timed(tracer, "analyze.replay", || {
        let mut cycles = 0u64;
        for program in &programs {
            for kind in PlatformKind::ALL {
                cycles += replay_cycles(program, Platform::of(kind), 200);
            }
        }
        cycles
    });
    report.set("analyze.replay.mcycles_per_s", cycles as f64 / secs / 1e6);
    report.check("analyze.replay: replays cost cycles", cycles > 0);
}

// -------------------------------------------------------------------- extract

fn extract(tracer: &mut Tracer, report: &mut ProbeReport, verdict: &VerdictRefs) {
    const REPS: usize = 300;
    let lines: usize = verdict.asm.iter().map(|(_, t)| t.lines().count()).sum();
    let (parsed, secs) = timed(tracer, "extract.parse", || {
        let mut last = Vec::new();
        for _ in 0..REPS {
            last = verdict
                .asm
                .iter()
                .filter_map(|(_, text)| parse(black_box(text)).ok())
                .collect();
        }
        last
    });
    report.set("extract.parse.lines_per_s", (lines * REPS) as f64 / secs);
    report.check(
        "extract.parse: every fixture parses",
        parsed.len() == verdict.asm.len(),
    );
    let (instrs, secs) = timed(tracer, "extract.lift", || {
        let mut instrs = 0;
        for _ in 0..REPS {
            instrs = parsed
                .iter()
                .filter_map(|file| lift_file(black_box(file)).ok())
                .map(|l| l.total_instrs())
                .sum();
        }
        instrs
    });
    report.set("extract.lift.instrs_per_s", (instrs * REPS) as f64 / secs);
    report.check(
        "extract.lift: the fixtures lift to instructions",
        instrs > 0,
    );
    let (clean, secs) = timed(tracer, "extract.drift", || check_native_drift().is_clean());
    report.set("extract.drift.ms", secs * 1e3);
    report.check("extract.drift: the native backend is drift-free", clean);
}

// -------------------------------------------------------------------- harness

/// What one span costs the harness itself.
fn harness(tracer: &mut Tracer, report: &mut ProbeReport) {
    const SPANS: usize = 100_000;
    let mut scratch = Tracer::new(true);
    let ((), secs) = timed(tracer, "harness.span_cost", || {
        for _ in 0..SPANS {
            let s = scratch.open("x");
            scratch.close(s, &[("n", 1)]);
        }
    });
    report.set("harness.span_cost_ns", secs * 1e9 / SPANS as f64);
    report.check("harness: spans are kept", scratch.spans().len() == SPANS);
}

/// The metrics that are read off the spans once the run is over: every
/// `exp:<id>`, `lint`, `synth` and `battery` span counts, whether a probe or
/// a traced pass of the workload opened it. Repeats of one item report their
/// fastest, like the end-to-end times; `lint` / `synth` are percentiles over
/// the corpus cases.
pub fn span_metrics(tracer: &Tracer, metrics: &mut BTreeMap<String, f64>) {
    let mut set = |name: &str, samples: &[f64], pick: &dyn Fn(&[f64]) -> f64| {
        if !samples.is_empty() {
            metrics.insert(name.to_string(), pick(samples));
        }
    };
    for id in probed_experiments() {
        set(
            &format!("experiments.exp.{id}.ms"),
            &tracer.self_ms(&format!("exp:{id}")),
            &fastest,
        );
    }
    set("wmm.battery.ms", &tracer.durations_ms("battery"), &fastest);
    let lint = tracer.durations_ms("lint");
    let synth = tracer.durations_ms("synth");
    set("analyze.lint.case_ms_p50", &lint, &median);
    set("analyze.lint.case_ms_p90", &lint, &|v| percentile(v, 90.0));
    set("analyze.synth.case_ms_p50", &synth, &median);
    set("analyze.synth.case_ms_p90", &synth, &|v| {
        percentile(v, 90.0)
    });
    let leaves = tracer.arg_sum("synth", "leaves") as f64;
    set("analyze.synth.leaves_per_s", &synth, &|v| {
        leaves / (v.iter().sum::<f64>() / 1e3)
    });
}
