//! The record a core keeps of a marked poll loop.
//!
//! [`Op::SpinMark`] declares that, until the next mark, a thread's op stream
//! is a function of the values it loads. [`SpinRecord`] holds the last two
//! iterations between marks and answers two questions about them:
//!
//! * **Is the claim true?** An iteration that departs from the previous one
//!   — another op, or a mark where an op was — although every load so far
//!   returned what it returned one iteration earlier, panics. Both engines
//!   record, so the lockstep oracle, which executes every iteration, checks
//!   the loops the event engine skips through.
//! * **Has the loop settled?** Two consecutive iterations of the same ops,
//!   values and length in cycles, every load a local hit, begun from the
//!   same pipeline state ([`MarkPoint`]) with no load, barrier or stall in
//!   flight, repeat until a polled line is written: the event engine parks
//!   the core there and applies the skipped iterations in closed form
//!   (`DESIGN.md` §10). Buffered stores do not stop it: the loop's loads
//!   and nops never wait on them, and each store-buffer event ends a spin.
//!
//! Only plain [`Op::load_use`]s and [`Op::Nops`] are recorded, at most
//! [`MAX_OPS`] of them; any other op closes the record until the next mark.

use crate::op::Op;
use crate::types::{Addr, CoreId, Cycle};

/// Ops a recorded iteration may hold; a longer one is not recorded.
const MAX_OPS: usize = 16;

/// A core at the moment it fetches a mark: everything that decides how a
/// pure iteration unfolds from there.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MarkPoint {
    /// Cycle of the mark.
    pub at: Cycle,
    /// ROB occupancy (every entry complete when `clean`).
    pub rob_used: u32,
    /// Issue slots left in the mark's cycle.
    pub budget: u32,
    /// No load outstanding, no pending barrier, no open stall run; the
    /// store buffer may still be draining (a poll that forwards from it is
    /// no hit).
    pub clean: bool,
}

impl MarkPoint {
    /// Whether a pure iteration begun at `self` unfolds as one begun at
    /// `other` does.
    fn same_stance(&self, other: &MarkPoint) -> bool {
        self.clean && other.clean && self.rob_used == other.rob_used && self.budget == other.budget
    }
}

/// One period of a settled loop: its length and what it adds to the core's
/// counters (it retires what it issues: ROB occupancy is the same at both
/// ends).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Period {
    pub cycles: Cycle,
    pub loads: u64,
    pub issued: u64,
}

/// The ops between two marks and the values their loads returned.
#[derive(Debug, Clone, Copy)]
struct Iteration {
    mark: MarkPoint,
    ops: [(Op, u64); MAX_OPS],
    len: usize,
    /// Every load issued so far was a local directory hit, not forwarded.
    all_hit: bool,
}

impl Default for Iteration {
    fn default() -> Iteration {
        Iteration {
            mark: MarkPoint::default(),
            ops: [(Op::Halt, 0); MAX_OPS],
            len: 0,
            all_hit: true,
        }
    }
}

/// See the [module docs](self).
#[derive(Debug, Default)]
pub(crate) struct SpinRecord {
    /// The last two iterations, kept in place: `its[cur]` is the one since
    /// the last mark, while `open`; the other the last complete one, if
    /// there is one to repeat. A mark that closes an iteration flips `cur`.
    its: [Iteration; 2],
    cur: usize,
    open: bool,
    /// The last complete iteration exists and the open one has so far
    /// repeated it op for op and value for value.
    repeats: bool,
    /// Set by the mark that closed the second of two identical iterations.
    settled: Option<Period>,
    /// Set while the event engine has the core parked in this loop: the
    /// core's state is that at its watermark, and repeats every
    /// `cycles` of this.
    pub parked: Option<Period>,
    /// Periods applied in closed form so far.
    pub skipped: u64,
}

impl SpinRecord {
    /// The mark's claim, checked as the thread hands over `op` (`None`: the
    /// next mark) while the open iteration repeats the last complete one.
    fn check_pure(&self, core: CoreId, op: Option<Op>) {
        let (prev, cur) = (&self.its[self.cur ^ 1], &self.its[self.cur]);
        let at = cur.len;
        let before = prev.ops[..prev.len].get(at).map(|&(op, _)| op);
        assert!(
            !self.repeats || before == op,
            "core {core}: a marked poll loop is not pure: op {at} of this iteration is {op:?} \
             where the previous one had {before:?} (None = the next mark), though every load \
             returned the same value"
        );
    }

    /// The thread handed over `op`; a mark is [`SpinRecord::mark`]'s.
    pub fn fetched(&mut self, core: CoreId, op: Op) {
        if !self.open || op == Op::SpinMark {
            return;
        }
        self.check_pure(core, Some(op));
        let cur = &mut self.its[self.cur];
        let at = cur.len;
        let recordable = op.is_plain_load_use() || matches!(op, Op::Nops(_));
        if !recordable || at == MAX_OPS {
            self.open = false;
            return;
        }
        cur.ops[at] = (op, 0);
        cur.len = at + 1;
    }

    /// The load just fetched issued; `hit` if it was a local directory hit
    /// that forwarded nothing from the store buffer.
    pub fn issued_load(&mut self, hit: bool) {
        if self.open {
            self.its[self.cur].all_hit &= hit;
        }
    }

    /// The load the thread is suspended on returned `value`.
    pub fn loaded(&mut self, value: u64) {
        if !self.open {
            return;
        }
        let at = self.its[self.cur].len - 1;
        self.its[self.cur].ops[at].1 = value;
        self.repeats &= self.its[self.cur ^ 1].ops[at].1 == value;
    }

    /// The thread handed over a mark while the core was at `point`.
    pub fn mark(&mut self, core: CoreId, point: MarkPoint) {
        self.settled = None;
        if self.open {
            self.check_pure(core, None);
            let (prev, cur) = (&self.its[self.cur ^ 1], &self.its[self.cur]);
            let cycles = point.at - cur.mark.at;
            if self.repeats
                && prev.all_hit
                && cur.all_hit
                && cycles > 0
                && cycles == cur.mark.at - prev.mark.at
                && prev.mark.same_stance(&cur.mark)
                && cur.mark.same_stance(&point)
            {
                let mut period = Period {
                    cycles,
                    loads: 0,
                    issued: 0,
                };
                for &(op, _) in &cur.ops[..cur.len] {
                    match op {
                        Op::Nops(n) => period.issued += u64::from(n),
                        _ => {
                            period.loads += 1;
                            period.issued += 1;
                        }
                    }
                }
                self.settled = Some(period);
            }
            self.cur ^= 1;
        }
        self.repeats = self.open;
        self.open = true;
        let cur = &mut self.its[self.cur];
        cur.mark = point;
        cur.len = 0;
        cur.all_hit = true;
    }

    /// The period of the settled loop, if the step at `now` fetched the
    /// mark that found it settled and has since only begun to repeat it.
    pub fn settled_at(&self, now: Cycle) -> Option<Period> {
        let cur = &self.its[self.cur];
        self.settled
            .filter(|_| self.open && self.repeats && cur.all_hit && cur.mark.at == now)
    }

    /// The addresses the settled loop polls and the values it found there.
    pub fn polled(&self) -> impl Iterator<Item = (Addr, u64)> + '_ {
        let prev = &self.its[self.cur ^ 1];
        prev.ops[..prev.len]
            .iter()
            .filter_map(|&(op, value)| match op {
                Op::Load { addr, .. } => Some((addr, value)),
                _ => None,
            })
    }

    /// Move the record `by` cycles into the future, with the core.
    pub fn shift(&mut self, by: Cycle) {
        for it in &mut self.its {
            it.mark.at += by;
        }
    }
}
