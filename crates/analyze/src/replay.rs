//! Dynamic cross-check: replay a litmus-sized [`Program`] (original and
//! rewritten) through the cycle-level simulator and report the cycles a
//! lint suggestion actually saves on each platform profile.
//!
//! The static analyzer proves a rewrite *safe*; this module prices it.
//! Each `wmm` thread becomes a [`Script`] that re-issues its body for a
//! fixed number of iterations (barrier costs are per-execution, so a
//! single pass would drown in startup noise), one thread per core, and the
//! machine runs to quiescence. The difference in total machine cycles
//! between the original and the rewritten program — per
//! [`PlatformKind`] — is the `saved_*` column of `lint.csv`.
//!
//! A replay is the costliest step of a lint, synth or rcpc cell, so every
//! program is priced once on all four profiles ([`platform_cycles`]), a
//! lint case's original once for all its findings ([`rewrite_savings`]).
//! [`replay_machine`] lets the engine differential run it under the oracle.

use armbar_barriers::Barrier;
use armbar_sim::{Cpu, Machine, Op, Platform, PlatformKind, Script};
use armbar_wmm::{Instr, Program, Src};

use crate::lint::Finding;

/// Body repetitions every caller prices a program with (`lint.csv`,
/// `synth.csv`, `rcpc.csv` and the `armbar lint|synth` reports).
pub const REPLAY_ITERS: u64 = 200;

/// Locations are mapped to line-disjoint addresses so coherence traffic,
/// not false sharing, dominates — matching the litmus intent.
fn loc_addr(loc: u8) -> u64 {
    0x1000 + u64::from(loc) * 0x80
}

/// Map one `wmm` instruction to its simulator operation. All litmus loads
/// are observations, so every load consumes its value (suspending the
/// thread exactly like the real test harness's assertion reads);
/// dependency flags map onto `dep_on_last_load`.
fn op_of(instr: &Instr) -> Option<Op> {
    match instr {
        Instr::Load {
            loc,
            acquire,
            addr_dep,
            ..
        } => Some(Op::Load {
            addr: loc_addr(*loc),
            use_value: true,
            acquire: *acquire,
            dep_on_last_load: addr_dep.is_some(),
        }),
        Instr::Store {
            loc,
            src,
            release,
            addr_dep,
            ctrl_dep,
        } => {
            let value = match src {
                Src::Const(v) | Src::DepConst { value: v, .. } => *v,
                Src::Reg(_) => 1,
            };
            let dep = addr_dep.is_some()
                || ctrl_dep.is_some()
                || matches!(src, Src::Reg(_) | Src::DepConst { .. });
            Some(Op::Store {
                addr: loc_addr(*loc),
                value,
                release: *release,
                dep_on_last_load: dep,
            })
        }
        Instr::Fence(Barrier::None) => None,
        Instr::Fence(b) => Some(Op::Fence(*b)),
    }
}

/// One litmus thread body, re-issued `iterations` times.
async fn replay(cpu: Cpu, ops: Vec<Op>, iterations: u64) {
    for _ in 0..iterations {
        for &op in &ops {
            cpu.op(op).await;
        }
        cpu.op(Op::IterationMark).await;
    }
}

/// A machine that replays every thread of `program` for `iterations` body
/// repetitions on `platform` (threads on distinct cores, init values
/// preset), ready to run.
#[must_use]
pub fn replay_machine(program: &Program, platform: Platform, iterations: u64) -> Machine {
    let mut m = Machine::new(platform);
    for (tid, thread) in program.threads.iter().enumerate() {
        let ops: Vec<Op> = thread.instrs.iter().filter_map(op_of).collect();
        m.add_thread_on(
            tid,
            Box::new(Script::new(|cpu| replay(cpu, ops, iterations))),
        );
    }
    for &(loc, v) in &program.init {
        m.preset_memory(loc_addr(loc), v);
    }
    m
}

/// Total machine cycles to run [`replay_machine`] to quiescence.
#[must_use]
pub fn replay_cycles(program: &Program, platform: Platform, iterations: u64) -> u64 {
    let mut m = replay_machine(program, platform, iterations);
    let stats = m.run(iterations.saturating_mul(100_000).max(1_000_000));
    debug_assert!(stats.halted, "litmus replay must quiesce");
    stats.cycles
}

/// [`replay_cycles`] on every platform profile, in [`PlatformKind::ALL`] order.
#[must_use]
pub fn platform_cycles(program: &Program, iterations: u64) -> [u64; 4] {
    PlatformKind::ALL.map(|kind| replay_cycles(program, Platform::of(kind), iterations))
}

/// Cycles each finding's rewrite saves against `original`, per platform in
/// [`PlatformKind::ALL`] order (`[0; 4]` for a finding without one), with
/// `original` priced once. Negative values mean the rewrite is slower
/// there (possible for STLR — exactly why the advisor attaches its
/// measure-first caveat).
#[must_use]
pub fn rewrite_savings(original: &Program, findings: &[Finding], iters: u64) -> Vec<[i64; 4]> {
    let signed = |c: u64| i64::try_from(c).unwrap_or(i64::MAX);
    let mut base = None;
    let mut saved = |rewritten: &Program| {
        let base: [u64; 4] = *base.get_or_insert_with(|| platform_cycles(original, iters));
        let var = platform_cycles(rewritten, iters);
        std::array::from_fn(|i| signed(base[i]) - signed(var[i]))
    };
    (findings.iter())
        .map(|f| f.rewritten.as_ref().map_or([0; 4], &mut saved))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use armbar_wmm::litmus::message_passing;

    #[test]
    fn replay_quiesces_and_counts_cycles() {
        let p = message_passing(Barrier::DmbSt, Barrier::DmbLd).program;
        let c = replay_cycles(&p, Platform::kunpeng916(), 50);
        assert!(c > 0);
        // Deterministic.
        assert_eq!(c, replay_cycles(&p, Platform::kunpeng916(), 50));
    }

    #[test]
    fn dropping_a_dsb_saves_cycles_everywhere() {
        let heavy = message_passing(Barrier::DsbFull, Barrier::DmbLd).program;
        let light = message_passing(Barrier::DmbSt, Barrier::DmbLd).program;
        let light = platform_cycles(&light, 50);
        for (h, l) in platform_cycles(&heavy, 50).into_iter().zip(light) {
            assert!(h > l, "DSB full -> DMB st must save cycles, {h} vs {l}");
        }
    }

    #[test]
    fn dependency_rewrite_is_no_slower_than_a_fence() {
        let fence = message_passing(Barrier::DmbSt, Barrier::DmbLd).program;
        let dep = message_passing(Barrier::DmbSt, Barrier::AddrDep).program;
        let dep = platform_cycles(&dep, 50);
        for (f, d) in platform_cycles(&fence, 50).into_iter().zip(dep) {
            assert!(
                f >= d,
                "ADDR DEP must not cost more than DMB ld, {d} vs {f}"
            );
        }
    }
}
