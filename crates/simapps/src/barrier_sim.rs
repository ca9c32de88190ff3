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
use armbar_sim::{Op, Platform, SimThread, StallBreakdown, ThreadCtx, Trace};

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
///    store of the new generation to the root flag and to any `fanout`
///    flags (hierarchical reps push their cluster flag after waking).
/// 3. Everyone else parks on the flag of the level that absorbed them
///    ([`Op::wait_change`] — the event engine delivers the line wake), then
///    orders the pass with a `DMB ld`.
struct BarrierThread {
    rounds: u64,
    work_nops: u32,
    /// Arrival ladder, leaf to root: `(counter line, arrivals per round)`.
    path: Vec<(u64, u64)>,
    /// Flag parked on when absorbed at the matching `path` level.
    wait_flags: Vec<u64>,
    /// Flags this thread re-publishes after passing level `i` (a
    /// hierarchical representative fans the release out to its cluster).
    fanout: Vec<Vec<u64>>,
    /// Completed rounds.
    round: u64,
    /// Current ascent level.
    depth: usize,
    /// Pending fanout writes for this round's release.
    writes: Vec<u64>,
    state: u8,
}

impl SimThread for BarrierThread {
    fn next(&mut self, ctx: &mut ThreadCtx) -> Op {
        loop {
            match self.state {
                // New round: local work, then start the ascent.
                0 => {
                    self.depth = 0;
                    self.state = 1;
                    if self.work_nops > 0 {
                        return Op::Nops(self.work_nops);
                    }
                }
                1 => {
                    self.state = 2;
                    return Op::fetch_add_acq_rel(self.path[self.depth].0, 1);
                }
                // Arrival outcome: last of the round at this level?
                2 => {
                    let (_, arrivals) = self.path[self.depth];
                    if ctx.last_value() + 1 == (self.round + 1) * arrivals {
                        self.depth += 1;
                        if self.depth == self.path.len() {
                            // Global releaser: publish root flag + own fanout.
                            self.writes = self.fanout[self.depth - 1].clone();
                            self.writes.push(self.wait_flags[self.depth - 1]);
                            self.state = 4;
                            return Op::Fence(Barrier::DmbSt);
                        }
                        self.state = 1;
                    } else {
                        self.state = 3;
                        return Op::wait_change(self.wait_flags[self.depth], self.round);
                    }
                }
                // Woken: order the pass, then fan the release downward.
                3 => {
                    self.writes = self.fanout[self.depth].clone();
                    self.state = 4;
                    return Op::Fence(Barrier::DmbLd);
                }
                4 => match self.writes.pop() {
                    Some(flag) => return Op::store(flag, self.round + 1),
                    None => {
                        self.round += 1;
                        self.state = if self.round >= self.rounds { 6 } else { 5 };
                        return Op::IterationMark;
                    }
                },
                5 => {
                    self.state = 0;
                }
                _ => return Op::Halt,
            }
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

/// [`run_barrier`] under explicit [`RunOpts`]; also returns the recorded
/// trace.
#[must_use]
pub fn run_barrier_with(
    platform: &Platform,
    cfg: BarrierConfig,
    opts: RunOpts,
) -> (BarrierResult, Trace) {
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
                m.add_thread_on(core, Box::new(thread_for(cfg, vec![(SYS_COUNT, n)])));
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
                    path.push((TREE_BASE + node as u64 * 64, fan_in[node]));
                    unit = local;
                }
                m.add_thread_on(core, Box::new(thread_for(cfg, path)));
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
                    let mut t =
                        thread_for(cfg, vec![(count, members.len() as u64), (SYS_COUNT, top)]);
                    t.wait_flags = vec![flag, GEN];
                    // A representative woken at the system level re-publishes
                    // the release to its own cluster's flag.
                    t.fanout = vec![vec![], vec![flag]];
                    m.add_thread_on(core, Box::new(t));
                }
            }
        }
    }

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

/// A thread with a single-flag release (centralized / tree): everyone
/// parks on [`GEN`] whatever level absorbed them, nobody fans out.
fn thread_for(cfg: BarrierConfig, path: Vec<(u64, u64)>) -> BarrierThread {
    let depth = path.len();
    BarrierThread {
        rounds: cfg.rounds,
        work_nops: cfg.work_nops,
        path,
        wait_flags: vec![GEN; depth],
        fanout: vec![Vec::new(); depth],
        round: 0,
        depth: 0,
        writes: Vec::new(),
        state: 0,
    }
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
