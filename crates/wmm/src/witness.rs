//! Witness extraction: not just *whether* an outcome is reachable, but a
//! concrete global execution order that reaches it — the explorer's
//! equivalent of a herd7 counter-example trace.
//!
//! [`find_witness`] runs the DPOR engine's pruned DFS carrying the path
//! (thread, instruction index) and returns the first complete execution
//! whose final state satisfies the predicate. Sleep-set pruning preserves
//! every terminal *state*, so an outcome has a witness iff the pruned
//! search finds one. Witnesses are validated independently of the engine
//! by [`Witness::replay`], which re-executes the steps against the raw
//! [`MemoryModel::ordered`] relation.

use std::collections::BTreeMap;

use crate::engine;
use crate::explore::Outcome;
use crate::model::{Instr, MemoryModel, Program, Src};

/// One step of a witness: thread `tid` performed its instruction `idx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WitnessStep {
    /// Thread index.
    pub tid: usize,
    /// Instruction index in that thread's program order.
    pub idx: usize,
}

/// A complete execution order plus its final outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Global perform order.
    pub steps: Vec<WitnessStep>,
    /// The outcome it reaches.
    pub outcome: Outcome,
}

impl Witness {
    /// Render the execution with per-step annotations, one instruction per
    /// line in the textual syntax of [`crate::text`].
    #[must_use]
    pub fn render(&self, program: &Program) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (n, s) in self.steps.iter().enumerate() {
            let instr = &program.threads[s.tid].instrs[s.idx];
            let _ = writeln!(out, "{n:>3}. T{} #{:<2} {instr}", s.tid, s.idx);
        }
        out
    }

    /// The perform order restricted to one thread — useful for spotting
    /// which instructions ran out of program order.
    #[must_use]
    pub fn thread_order(&self, tid: usize) -> Vec<usize> {
        self.steps
            .iter()
            .filter(|s| s.tid == tid)
            .map(|s| s.idx)
            .collect()
    }

    /// Whether thread `tid` performed anything out of program order.
    #[must_use]
    pub fn reordered(&self, tid: usize) -> bool {
        let order = self.thread_order(tid);
        order.windows(2).any(|w| w[0] > w[1])
    }

    /// Re-execute the witness against `program` under `model` and return
    /// the outcome it actually reaches — or `None` when any step is
    /// illegal (out of range, already performed, or an ordered predecessor
    /// still pending) or the execution is incomplete.
    ///
    /// This is a deliberately independent checker: it walks the raw
    /// [`MemoryModel::ordered`] relation over sparse state, sharing no
    /// code with the DPOR engine that produced the witness, so tests can
    /// assert `replay(..) == Some(witness.outcome)` as a machine check of
    /// every attached counterexample.
    #[must_use]
    pub fn replay(&self, program: &Program, model: MemoryModel) -> Option<Outcome> {
        let total: usize = program.threads.iter().map(|t| t.instrs.len()).sum();
        if self.steps.len() != total {
            return None;
        }
        let mut done: Vec<Vec<bool>> = program
            .threads
            .iter()
            .map(|t| vec![false; t.instrs.len()])
            .collect();
        let mut regs: Vec<BTreeMap<u8, u64>> = vec![BTreeMap::new(); program.threads.len()];
        let mut memory: BTreeMap<u8, u64> = program.init.iter().copied().collect();
        for s in &self.steps {
            let thread = program.threads.get(s.tid)?;
            if s.idx >= thread.instrs.len() || done[s.tid][s.idx] {
                return None;
            }
            let enabled = (0..s.idx).all(|i| done[s.tid][i] || !model.ordered(thread, i, s.idx));
            if !enabled {
                return None;
            }
            done[s.tid][s.idx] = true;
            match &thread.instrs[s.idx] {
                Instr::Load { reg, loc, .. } => {
                    let v = *memory.get(loc).unwrap_or(&0);
                    regs[s.tid].insert(*reg, v);
                }
                Instr::Store { loc, src, .. } => {
                    let v = match src {
                        Src::Const(v) | Src::DepConst { value: v, .. } => *v,
                        Src::Reg(r) => *regs[s.tid].get(r).unwrap_or(&0),
                    };
                    memory.insert(*loc, v);
                }
                Instr::Fence(_) => {}
            }
        }
        Some(Outcome {
            regs: regs
                .iter()
                .map(|m| m.iter().map(|(&r, &v)| (r, v)).collect())
                .collect(),
            memory: memory.iter().map(|(&l, &v)| (l, v)).collect(),
        })
    }
}

/// Find a complete execution under `model` whose final outcome satisfies
/// `pred`, or `None` when no such execution exists (the outcome is
/// forbidden).
///
/// Runs on the DPOR engine at every program size, in deterministic
/// `(thread, index)` search order, so the returned witness is byte-stable
/// across reruns.
#[must_use]
pub fn find_witness(
    program: &Program,
    model: MemoryModel,
    pred: impl Fn(&Outcome) -> bool,
) -> Option<Witness> {
    engine::witness_program(program, model, &pred)
}

/// Convenience: a witness for a [`LitmusTest`](crate::litmus::LitmusTest)'s
/// relaxed outcome.
#[must_use]
pub fn witness_for(test: &crate::litmus::LitmusTest, model: MemoryModel) -> Option<Witness> {
    find_witness(&test.program, model, |o| (test.relaxed)(o))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::litmus::{load_buffering, message_passing};
    use armbar_barriers::Barrier;

    #[test]
    fn mp_witness_exists_under_wmm_and_shows_the_reorder() {
        let t = message_passing(Barrier::None, Barrier::None);
        let w = witness_for(&t, MemoryModel::ArmWmm).expect("MP is WMM-allowed");
        // Some thread must have run out of program order.
        assert!(w.reordered(0) || w.reordered(1), "{}", w.render(&t.program));
        assert!((t.relaxed)(&w.outcome));
        assert_eq!(w.steps.len(), 4, "all four instructions perform");
    }

    #[test]
    fn no_witness_once_fixed() {
        let t = message_passing(Barrier::DmbSt, Barrier::DmbLd);
        assert!(witness_for(&t, MemoryModel::ArmWmm).is_none());
    }

    #[test]
    fn no_witness_under_tso() {
        let t = message_passing(Barrier::None, Barrier::None);
        assert!(witness_for(&t, MemoryModel::X86Tso).is_none());
    }

    #[test]
    fn witness_render_lists_every_step() {
        let t = load_buffering(Barrier::None);
        let w = witness_for(&t, MemoryModel::ArmWmm).expect("LB allowed");
        let text = w.render(&t.program);
        assert_eq!(text.lines().count(), w.steps.len());
        assert!(text.contains("T0"));
        assert!(text.contains("T1"));
    }

    #[test]
    fn witnesses_replay_to_their_claimed_outcome() {
        for t in [
            message_passing(Barrier::None, Barrier::None),
            load_buffering(Barrier::None),
        ] {
            let w = witness_for(&t, MemoryModel::ArmWmm).expect("allowed");
            assert_eq!(
                w.replay(&t.program, MemoryModel::ArmWmm),
                Some(w.outcome.clone()),
                "witness must replay for {}",
                t.name
            );
        }
    }

    #[test]
    fn replay_rejects_illegal_and_incomplete_executions() {
        let t = message_passing(Barrier::DmbSt, Barrier::DmbLd);
        // Any complete SC execution replays fine...
        let w = find_witness(&t.program, MemoryModel::Sc, |_| true).expect("SC terminal");
        assert!(w.replay(&t.program, MemoryModel::Sc).is_some());
        // ...but a truncated one is rejected,
        let mut short = w.clone();
        short.steps.pop();
        assert_eq!(short.replay(&t.program, MemoryModel::Sc), None);
        // and so is one that performs a fenced pair out of order.
        let mut illegal = w.clone();
        illegal.steps.reverse();
        assert_eq!(illegal.replay(&t.program, MemoryModel::Sc), None);
    }

    #[test]
    fn witness_existence_matches_the_oracle_outcome_set() {
        for (pub_barrier, con_barrier, exists) in [
            (Barrier::None, Barrier::None, true),
            (Barrier::DmbSt, Barrier::DmbLd, false),
        ] {
            let t = message_passing(pub_barrier, con_barrier);
            let fast = witness_for(&t, MemoryModel::ArmWmm);
            assert_eq!(fast.is_some(), exists);
            // The independent enumerative oracle must agree: an outcome
            // has a witness iff it is in the reachable set.
            let oracle = crate::explore::explore_oracle(&t.program, MemoryModel::ArmWmm);
            assert_eq!(oracle.outcomes.iter().any(|o| (t.relaxed)(o)), exists);
        }
    }

    #[test]
    fn thread_order_projection() {
        let t = message_passing(Barrier::None, Barrier::None);
        let w = witness_for(&t, MemoryModel::ArmWmm).unwrap();
        for tid in 0..2 {
            let order = w.thread_order(tid);
            assert_eq!(order.len(), t.program.threads[tid].instrs.len());
        }
    }
}
