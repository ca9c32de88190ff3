//! Barrier-synchronization workloads for the many-core study.
//!
//! Three classic software-barrier shapes, each built from the same
//! primitives (an arrival fetch-add, a `DMB st`-published generation flag,
//! and a parked [`Op::wait_change`] spin), so their cost differences are
//! purely structural:
//!
//! * **Centralized** sense-free generation barrier: every arrival hits one
//!   counter line, every release invalidates one flag line watched by all
//!   waiters. O(n) contention on both sides — the textbook victim.
//! * **Combining tree** (radix [`TREE_RADIX`]): arrivals combine up a tree
//!   of counter lines, so each line sees at most [`TREE_RADIX`] RMWs per
//!   round; the release is still one global flag.
//! * **Hierarchical** (cluster-then-system): arrivals combine per physical
//!   cluster, one representative per cluster ascends to a system counter,
//!   and the release fans out through *per-cluster* flag lines homed in
//!   their own cluster — wake-up invalidations stay cluster-local.
//!
//! The crossover this family exposes: centralized wins at small core
//! counts (fewest instructions per episode) and collapses as the counter
//! line serializes hundreds of RMWs; hierarchical pays two levels of
//! latency but scales with cluster count, overtaking at a few hundred
//! cores (`armbar run manycore` sweeps the grid).

use armbar_barriers::Barrier;
use armbar_sim::{Cpu, Machine, Op, Platform, Script, StallBreakdown, Trace};

use crate::harness::{machine, RunOpts};

/// Arity of the combining tree.
pub const TREE_RADIX: usize = 4;

/// System-wide generation flag (the root release line).
const GEN: u64 = 0x180;
/// System-level arrival counter (centralized / hierarchical top level).
const SYS_COUNT: u64 = 0x100;
/// Combining-tree node counters, one line per node.
const TREE_BASE: u64 = 0x1_0000;
/// Per-cluster arrival counters (hierarchical).
const CL_COUNT_BASE: u64 = 0x2_0000;
/// Per-cluster release flags (hierarchical).
const CL_FLAG_BASE: u64 = 0x3_0000;

/// Which software barrier shape to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BarrierFamily {
    /// One counter, one flag, everyone spins on it.
    Centralized,
    /// Radix-[`TREE_RADIX`] arrival tree, single release flag.
    CombiningTree,
    /// Per-cluster arrival + release, cluster representatives meet at a
    /// system counter.
    Hierarchical,
}

impl BarrierFamily {
    /// Every family, in sweep order.
    pub const ALL: [BarrierFamily; 3] = [
        BarrierFamily::Centralized,
        BarrierFamily::CombiningTree,
        BarrierFamily::Hierarchical,
    ];

    /// Stable label for CSVs and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BarrierFamily::Centralized => "centralized",
            BarrierFamily::CombiningTree => "tree",
            BarrierFamily::Hierarchical => "hierarchical",
        }
    }
}

/// Configuration of one barrier run.
#[derive(Debug, Clone, Copy)]
pub struct BarrierConfig {
    /// Barrier shape.
    pub family: BarrierFamily,
    /// Participating cores (ids `0..threads`).
    pub threads: usize,
    /// Barrier episodes each thread passes.
    pub rounds: u64,
    /// Local work between episodes.
    pub work_nops: u32,
}

impl Default for BarrierConfig {
    fn default() -> BarrierConfig {
        BarrierConfig {
            family: BarrierFamily::Centralized,
            threads: 8,
            rounds: 20,
            work_nops: 20,
        }
    }
}

/// Result of one barrier run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BarrierResult {
    /// Episodes completed (== `rounds`).
    pub rounds: u64,
    /// Cycles until the last thread finished.
    pub cycles: u64,
    /// Mean cycles per episode — the barrier latency the sweep plots.
    pub cycles_per_round: f64,
    /// Episodes per second at the platform's clock.
    pub barriers_per_sec: f64,
    /// Barrier-instruction stall decomposition summed over all threads.
    pub stall: StallBreakdown,
}

/// One participant. The per-round protocol, uniform across families:
///
/// 1. `work_nops` of local work, then ascend the arrival `path`: at each
///    level a `fetch_add` (acq+rel) on the level's counter; only the last
///    arriver of the round continues upward.
/// 2. The last arriver at the root is the *releaser*: a `DMB st`, then a
///    store of the new generation to the root flag and to the level's
///    `fanout` flag (hierarchical reps push their cluster flag after waking).
/// 3. Everyone else parks on the flag of the level that absorbed them
///    ([`Op::wait_change`] — the event engine delivers the line wake), then
///    orders the pass with a `DMB ld`.
struct Participant {
    rounds: u64,
    work_nops: u32,
    /// Arrival ladder, leaf to root.
    path: Vec<Level>,
}

/// One level of a participant's arrival ladder.
#[derive(Clone, Copy)]
struct Level {
    /// The level's counter line.
    counter: u64,
    /// Arrivals per round at that counter.
    arrivals: u64,
    /// Flag parked on when absorbed here (the root's is the release flag).
    wait_flag: u64,
    /// Flag re-published after passing this level (a hierarchical
    /// representative fans the release out to its cluster).
    fanout: Option<u64>,
}

impl Level {
    /// A level released through [`GEN`] alone (centralized / tree): everyone
    /// parks on it whatever level absorbed them, nobody fans out.
    fn global(counter: u64, arrivals: u64) -> Level {
        Level {
            counter,
            arrivals,
            wait_flag: GEN,
            fanout: None,
        }
    }
}

impl Participant {
    async fn run(self, cpu: Cpu) {
        for round in 0..self.rounds {
            if self.work_nops > 0 {
                cpu.op(Op::Nops(self.work_nops)).await;
            }
            // Ascend while we are the last arriver of the round.
            let mut depth = 0;
            let releaser = loop {
                let Level {
                    counter, arrivals, ..
                } = self.path[depth];
                let arrived = cpu.op(Op::fetch_add_acq_rel(counter, 1)).await + 1;
                if arrived != (round + 1) * arrivals {
                    break false;
                }
                if depth + 1 == self.path.len() {
                    break true;
                }
                depth += 1;
            };
            let level = self.path[depth];
            if releaser {
                // Global releaser: publish the root flag.
                cpu.op(Op::Fence(Barrier::DmbSt)).await;
                cpu.op(Op::store(level.wait_flag, round + 1)).await;
            } else {
                // Absorbed: park; once woken, order the pass.
                cpu.op(Op::wait_change(level.wait_flag, round)).await;
                cpu.op(Op::Fence(Barrier::DmbLd)).await;
            }
            // Fan the release downward.
            if let Some(flag) = level.fanout {
                cpu.op(Op::store(flag, round + 1)).await;
            }
            cpu.op(Op::IterationMark).await;
        }
    }
}

/// Group participating cores `0..threads` by physical cluster, in core-id
/// order: `(first member core, member cores)` per cluster.
fn cluster_groups(platform: &Platform, threads: usize) -> Vec<Vec<usize>> {
    let topo = &platform.topology;
    let mut groups: Vec<((usize, usize), Vec<usize>)> = Vec::new();
    for core in 0..threads {
        let p = topo.placement(core);
        let key = (p.node, p.cluster);
        match groups.last_mut() {
            Some((k, members)) if *k == key => members.push(core),
            _ => groups.push((key, vec![core])),
        }
    }
    groups.into_iter().map(|(_, members)| members).collect()
}

/// The combining tree over `threads` leaves, bottom-up: node count per
/// level, each level's first global node index, and every node's fan-in.
/// Groups are [`TREE_RADIX`] consecutive units; the last level is the
/// single root (a lone participant still gets a root to arrive at).
fn tree_structure(threads: usize) -> (Vec<usize>, Vec<usize>, Vec<u64>) {
    let mut sizes = Vec::new();
    let mut units = threads;
    loop {
        let nodes = units.div_ceil(TREE_RADIX).max(1);
        sizes.push(nodes);
        if nodes == 1 {
            break;
        }
        units = nodes;
    }
    let mut offsets = vec![0usize; sizes.len()];
    for l in 1..sizes.len() {
        offsets[l] = offsets[l - 1] + sizes[l - 1];
    }
    let mut fan_in = vec![0u64; sizes.iter().sum()];
    let mut units = threads;
    for (l, &sz) in sizes.iter().enumerate() {
        for u in 0..units {
            fan_in[offsets[l] + u / TREE_RADIX] += 1;
        }
        units = sz;
    }
    (sizes, offsets, fan_in)
}

/// Run a barrier configuration on the default (event-driven) engine.
///
/// # Panics
///
/// Panics if the configuration is infeasible (`threads` exceeding the
/// platform, zero rounds) or the run deadlocks — a barrier that fails to
/// release every thread every round is a correctness bug, not a data point.
#[must_use]
pub fn run_barrier(platform: &Platform, cfg: BarrierConfig) -> BarrierResult {
    run_barrier_with(platform, cfg, RunOpts::default()).0
}

/// The machine of one barrier run under `opts`: every participant attached
/// to its core, nothing run yet.
///
/// # Panics
///
/// Panics if the configuration is infeasible (`threads` exceeding the
/// platform, zero rounds).
#[must_use]
pub fn barrier_machine(platform: &Platform, cfg: BarrierConfig, opts: RunOpts) -> Machine {
    assert!(cfg.threads >= 1, "a barrier needs at least one participant");
    assert!(cfg.rounds >= 1, "zero rounds measures nothing");
    let mut m = machine("barrier", platform, cfg.threads, opts);
    // Root lines live with core 0 (the usual allocator behaviour: the
    // thread that initializes the barrier owns its lines).
    m.set_region_home(SYS_COUNT, GEN + 64, 0);

    let n = cfg.threads as u64;
    match cfg.family {
        BarrierFamily::Centralized => {
            for core in 0..cfg.threads {
                add_participant(&mut m, core, cfg, vec![Level::global(SYS_COUNT, n)]);
            }
        }
        BarrierFamily::CombiningTree => {
            let (sizes, offsets, fan_in) = tree_structure(cfg.threads);
            let nodes = fan_in.len();
            m.set_region_home(TREE_BASE, TREE_BASE + nodes as u64 * 64, 0);
            for core in 0..cfg.threads {
                // The core's ascent: its leaf group's node, then the node
                // its group feeds at each higher level.
                let mut path = Vec::with_capacity(sizes.len());
                let mut unit = core;
                for &off in &offsets {
                    let local = unit / TREE_RADIX;
                    let node = off + local;
                    path.push(Level::global(TREE_BASE + node as u64 * 64, fan_in[node]));
                    unit = local;
                }
                add_participant(&mut m, core, cfg, path);
            }
        }
        BarrierFamily::Hierarchical => {
            let groups = cluster_groups(platform, cfg.threads);
            let top = groups.len() as u64;
            for (gi, members) in groups.iter().enumerate() {
                let count = CL_COUNT_BASE + gi as u64 * 64;
                let flag = CL_FLAG_BASE + gi as u64 * 64;
                // Cluster lines are homed in their own cluster, so member
                // wake-ups are cluster-local invalidations.
                m.set_region_home(count, count + 64, members[0]);
                m.set_region_home(flag, flag + 64, members[0]);
                for &core in members {
                    let cluster = Level {
                        counter: count,
                        arrivals: members.len() as u64,
                        wait_flag: flag,
                        fanout: None,
                    };
                    // A representative woken at the system level re-publishes
                    // the release to its own cluster's flag.
                    let system = Level {
                        fanout: Some(flag),
                        ..Level::global(SYS_COUNT, top)
                    };
                    add_participant(&mut m, core, cfg, vec![cluster, system]);
                }
            }
        }
    }
    m
}

/// [`run_barrier`] under explicit [`RunOpts`]; also returns the recorded
/// trace.
#[must_use]
pub fn run_barrier_with(
    platform: &Platform,
    cfg: BarrierConfig,
    opts: RunOpts,
) -> (BarrierResult, Trace) {
    let mut m = barrier_machine(platform, cfg, opts);
    let max_cycles = cfg.rounds * 500_000 + 10_000_000;
    let stats = m.run(max_cycles);
    assert!(
        stats.halted,
        "{:?} barrier must release every thread every round",
        cfg.family
    );
    let mut stall = StallBreakdown::default();
    for core in 0..cfg.threads {
        let core_stats = m.core_stats(core);
        // Every thread passed every round.
        assert_eq!(
            core_stats.iterations, cfg.rounds,
            "core {core} missed rounds"
        );
        stall.merge(&core_stats.stall);
    }
    let cycles = stats.cycles;
    let result = BarrierResult {
        rounds: cfg.rounds,
        cycles,
        cycles_per_round: cycles as f64 / cfg.rounds as f64,
        barriers_per_sec: platform.iterations_per_second(cfg.rounds, cycles),
        stall,
    };
    (result, m.take_trace())
}

fn add_participant(m: &mut Machine, core: usize, cfg: BarrierConfig, path: Vec<Level>) {
    let participant = Participant {
        rounds: cfg.rounds,
        work_nops: cfg.work_nops,
        path,
    };
    m.add_thread_on(core, Box::new(Script::new(|cpu| participant.run(cpu))));
}

#[cfg(test)]
mod tests {
    use super::*;
    use armbar_sim::Engine;

    #[test]
    fn tree_structure_shape() {
        // 16 leaves at radix 4: 4 leaf nodes, then 1 root, each fan-in 4.
        let (sizes, offsets, fan_in) = tree_structure(16);
        assert_eq!(sizes, vec![4, 1]);
        assert_eq!(offsets, vec![0, 4]);
        assert_eq!(fan_in, vec![4, 4, 4, 4, 4]);
        // Uneven counts still cover everyone.
        let (sizes, _, fan_in) = tree_structure(6);
        assert_eq!(sizes, vec![2, 1]);
        assert_eq!(fan_in, vec![4, 2, 2]);
        // Degenerate single participant: a lone root with fan-in 1.
        let (sizes, offsets, fan_in) = tree_structure(1);
        assert_eq!(sizes, vec![1]);
        assert_eq!(offsets, vec![0]);
        assert_eq!(fan_in, vec![1]);
    }

    #[test]
    fn all_families_release_every_round() {
        let p = Platform::kunpeng916();
        for family in BarrierFamily::ALL {
            for threads in [1, 2, 5, 16] {
                let r = run_barrier(
                    &p,
                    BarrierConfig {
                        family,
                        threads,
                        rounds: 10,
                        work_nops: 15,
                    },
                );
                assert_eq!(r.rounds, 10, "{family:?}/{threads}");
                assert!(r.cycles_per_round > 0.0);
                assert!(r.barriers_per_sec > 0.0);
            }
        }
    }

    #[test]
    fn engines_agree_on_every_family() {
        let p = Platform::kunpeng916();
        for family in BarrierFamily::ALL {
            for threads in [3, 9] {
                let cfg = BarrierConfig {
                    family,
                    threads,
                    rounds: 8,
                    work_nops: 10,
                };
                let on = |engine| RunOpts {
                    engine: Some(engine),
                    trace_capacity: None,
                };
                let ev = run_barrier_with(&p, cfg, on(Engine::EventDriven)).0;
                let or = run_barrier_with(&p, cfg, on(Engine::LockstepOracle)).0;
                assert_eq!(ev, or, "{family:?}/{threads}: engines must agree");
            }
        }
    }

    #[test]
    fn determinism() {
        let p = Platform::kirin970();
        let cfg = BarrierConfig {
            family: BarrierFamily::CombiningTree,
            threads: 7,
            rounds: 12,
            work_nops: 8,
        };
        assert_eq!(run_barrier(&p, cfg), run_barrier(&p, cfg));
    }

    #[test]
    fn hierarchical_wins_at_scale() {
        // The family's reason to exist: at 512+ cores the centralized
        // counter line serializes, the cluster-split arrival does not.
        let p = Platform::manycore(512);
        let cfg = |family| BarrierConfig {
            family,
            threads: 512,
            rounds: 4,
            work_nops: 10,
        };
        let central = run_barrier(&p, cfg(BarrierFamily::Centralized));
        let hier = run_barrier(&p, cfg(BarrierFamily::Hierarchical));
        assert!(
            hier.cycles_per_round < central.cycles_per_round,
            "hierarchical {} must beat centralized {} at 512 cores",
            hier.cycles_per_round,
            central.cycles_per_round
        );
    }

    #[test]
    fn centralized_wins_when_small() {
        let p = Platform::kunpeng916();
        let cfg = |family| BarrierConfig {
            family,
            threads: 4,
            rounds: 10,
            work_nops: 10,
        };
        let central = run_barrier(&p, cfg(BarrierFamily::Centralized));
        let hier = run_barrier(&p, cfg(BarrierFamily::Hierarchical));
        assert!(
            central.cycles_per_round <= hier.cycles_per_round,
            "centralized {} must not lose to hierarchical {} at 4 cores",
            central.cycles_per_round,
            hier.cycles_per_round
        );
    }
}
