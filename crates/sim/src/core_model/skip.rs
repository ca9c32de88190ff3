//! The cycles between two observations of a core.
//!
//! An engine that does not step a core in some cycle owes it that cycle's
//! effect. There are five things a core can be doing in such a cycle —
//! the four of [`Between`], each a closed form in the core's own state, and
//! repeating the period of a settled poll loop ([`crate::spin`]) — and one
//! path that applies them: [`Core::catch_up`], against the single watermark
//! `settled_to`. It runs at the top of every step, when the machine wakes a
//! parked core, and once per core when a run ends, so a core that is looked
//! at is always exactly where per-cycle stepping would have left it.

use armbar_barriers::Barrier;

use super::{Core, SharedState};
use crate::platform::LatencyParams;
use crate::spin::{MarkPoint, Period};
use crate::stats::StallCause;
use crate::storebuf::{SbState, StoreBuffer};
use crate::topology::Topology;
use crate::trace::Trace;
use crate::types::{Cycle, Line};

/// What a core that is not parked in a poll loop does in the cycles up to
/// its next event (`Core::next_event`), none of which anybody else can
/// observe.
#[derive(Debug, Clone, Copy)]
pub(super) enum Between {
    /// Nothing: it waits for a latency, a response or a wake, or has
    /// quiesced.
    Still,
    /// Nothing, behind a barrier: every cycle is charged to the open stall
    /// run.
    Stalled(StallCause, Barrier),
    /// Issues nothing — suspended on a load or RMW value, or parked on a
    /// [`Op::WaitChange`](crate::op::Op::WaitChange) line — and retires
    /// what has completed.
    Idle,
    /// Pushes the nops it has left, and retires: a recurrence in ROB
    /// occupancy alone ([`Core::nop_run`]).
    Nops,
}

/// The cycles of a [`Between::Nops`] run that can be applied in bulk, and
/// their summed effect on the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct NopRun {
    /// Whole cycles covered; the cycle after them is the first that may
    /// push the run's last nop (and so fetch the next op), finds the ROB
    /// full behind a pending barrier (a stall run opens), or lies past the
    /// requested horizon.
    pub cycles: Cycle,
    retired: u64,
    issued: u64,
}

/// Skipped stretches up to this long are recomputed cycle by cycle when
/// [`Core::catch_up`] applies them with assertions live.
const CHECKED_GAP: Cycle = 256;

impl Core {
    /// Which of the between-observation states the core is in at its
    /// watermark. The step that suspended or parked the core, or pushed its
    /// first nop, closed any stall run, so the quiet two never charge.
    pub(super) fn between(&self) -> Between {
        if let Some(run) = &self.stall_run {
            return Between::Stalled(run.cause, run.kind);
        }
        // A core that never retires fills its ROB and wedges; step it.
        if self.params_cache.retire_width == 0 {
            Between::Still
        } else if self.suspended_on.is_some() || self.parked {
            Between::Idle
        } else if self.nops_remaining > 0 && !self.blocked_all(self.settled_to) {
            Between::Nops
        } else {
            Between::Still
        }
    }

    /// Apply the cycles `settled_to + 1 ..= upto` that nobody stepped, so
    /// the core reads exactly as if it had been stepped through them. By
    /// the wake contracts they hold no event of a core outside a poll loop;
    /// a parked poller first leaves its loop (`Core::resume`), replaying
    /// what is left of a period in `world`. A no-op when already current.
    pub(crate) fn catch_up(
        &mut self,
        upto: Cycle,
        topo: &Topology,
        lat: &LatencyParams,
        world: &mut SharedState,
        trace: &mut Trace,
    ) {
        if self.spin_parked() {
            self.resume(upto, topo, lat, world, trace);
        }
        if upto <= self.settled_to {
            return;
        }
        let gap = upto - self.settled_to;
        match self.between() {
            state @ (Between::Still | Between::Stalled(..)) => {
                debug_assert!(
                    self.params_cache.retire_width == 0 || self.rob.completed_prefix() == 0,
                    "core {}: skipped cycles {}..={upto} with retirement pending",
                    self.id,
                    self.settled_to + 1
                );
                debug_assert!(
                    self.quiesced() || self.next_event(self.settled_to).is_none_or(|e| e > upto),
                    "core {}: skipped cycles up to {upto} held an event",
                    self.id
                );
                if let Between::Stalled(cause, kind) = state {
                    self.stats.stall.charge(cause, kind, gap);
                }
            }
            Between::Idle => {
                debug_assert!(
                    self.next_event(self.settled_to).is_none_or(|e| e > upto),
                    "core {}: slept through an event before cycle {upto}",
                    self.id
                );
                let width = self.params_cache.retire_width;
                let per_cycle = (cfg!(debug_assertions) && gap <= CHECKED_GAP).then(|| {
                    let mut prefix = self.rob.completed_prefix();
                    (0..gap).fold(0, |retired, _| {
                        let retire = width.min(prefix);
                        prefix -= retire;
                        retired + retire
                    })
                });
                let reach = gap.saturating_mul(Cycle::from(width));
                let retired = self.rob.retire(u32::try_from(reach).unwrap_or(u32::MAX));
                debug_assert!(
                    per_cycle.is_none_or(|n| n == retired),
                    "core {}: the skipped cycles were not retire-only",
                    self.id
                );
                self.stats.retired += u64::from(retired);
            }
            Between::Nops => {
                debug_assert!(
                    self.in_flight_event(self.settled_to)
                        .is_none_or(|e| e > upto),
                    "core {}: ran nops through an event before cycle {upto}",
                    self.id
                );
                let resp_at = self.pending_barrier.as_ref().and_then(|b| b.resp_at);
                if let Some(t) = resp_at.filter(|&t| t <= upto) {
                    self.apply_nop_run(t - 1);
                    self.barrier_responded(t, trace);
                }
                self.apply_nop_run(upto);
            }
        }
        self.settled_to = upto;
        // A core that is live at a cycle was occupied through it, whether
        // or not an engine stepped it there.
        if !(self.quiesced() && self.stats.halted_at.is_some()) {
            self.stats.cycles = upto + 1;
        }
    }

    /// Iterate the per-cycle recurrence of a [`Between::Nops`] run — retire
    /// `min(retire_width, completed prefix)`, push
    /// `min(remaining, issue_width, free)` — over the cycles
    /// `from + 1 ..= from + horizon`, none of which holds an event other
    /// than the pending barrier's response, stopping before the cycle that
    /// would push the last nop or open a stall run. The response of a
    /// barrier that lets nops issue is part of the recurrence: in its cycle
    /// the barrier's ROB slot completes and the barrier is gone. With
    /// `leap`, once ROB occupancy reaches its fixed point the rest is one
    /// division; without, every cycle is walked — the reference
    /// [`Core::catch_up`] checks short gaps against.
    pub(super) fn nop_run(&self, from: Cycle, horizon: Cycle, leap: bool) -> NopRun {
        let pc = &self.params_cache;
        let capacity = self.rob.used() + self.rob.free();
        let mut used = self.rob.used();
        let mut prefix = self.rob.completed_prefix();
        let barrier = self.pending_barrier.as_ref();
        debug_assert!(
            barrier.is_none_or(|b| b.resp_at.is_some() || !self.priors_done(b, from)),
            "a barrier with nothing to wait for has its response scheduled"
        );
        let resp_at = barrier.and_then(|b| b.resp_at);
        let mut pending = barrier.is_some();
        // What the barrier's ROB slot holds back until the response.
        let mut held = barrier.and_then(|b| b.rob_slot).map_or(0, |slot| {
            self.rob.completed_prefix_past(Some(slot)) - prefix
        });
        // Pushed nops are complete, but retire only once everything ahead
        // of them is: they extend the prefix while nothing in the ROB is
        // incomplete, and what the slot holds back while nothing behind it
        // is.
        let mut joins_prefix = prefix == used;
        let mut joins_held = !joins_prefix && prefix + held == used;
        let mut remaining = self.nops_remaining;
        let mut run = NopRun {
            cycles: 0,
            retired: 0,
            issued: 0,
        };
        while run.cycles < horizon {
            let cycle = from + 1 + run.cycles;
            if resp_at == Some(cycle) {
                prefix += held;
                held = 0;
                joins_prefix |= joins_held;
                joins_held = false;
                pending = false;
            }
            let retire = pc.retire_width.min(prefix);
            let push = pc.issue_width.min(capacity - (used - retire));
            if remaining <= push || (push == 0 && pending) {
                break;
            }
            let next_used = used - retire + push;
            let next_prefix = prefix - retire + if joins_prefix { push } else { 0 };
            let n = if leap && (next_used, next_prefix) == (used, prefix) {
                // As far as the horizon, the cycle before the last nop's,
                // and the response allow.
                let mut n = horizon - run.cycles;
                if let Some(cycles) = (remaining - 1).checked_div(push) {
                    n = n.min(Cycle::from(cycles));
                }
                if let Some(t) = resp_at.filter(|&t| t > cycle) {
                    n = n.min(t - cycle);
                }
                n
            } else {
                1
            };
            // `n * push < remaining`, so this fits.
            let pushed = (n * Cycle::from(push)) as u32;
            run.cycles += n;
            run.retired += n * Cycle::from(retire);
            run.issued += Cycle::from(pushed);
            remaining -= pushed;
            if joins_held {
                held += pushed;
            }
            used = next_used;
            prefix = next_prefix;
        }
        run
    }

    /// Apply the cycles `settled_to + 1 ..= upto` of a [`Between::Nops`]
    /// run (the pending barrier's response not among them) to the ROB and
    /// the counters.
    fn apply_nop_run(&mut self, upto: Cycle) {
        let gap = upto - self.settled_to;
        let run = self.nop_run(self.settled_to, gap, true);
        debug_assert_eq!(run.cycles, gap, "stepped past the run's end");
        debug_assert!(
            gap > CHECKED_GAP || run == self.nop_run(self.settled_to, gap, false),
            "core {}: the skipped cycles were not the recurrence's",
            self.id
        );
        // Nops pushed behind an incomplete entry never retire within the
        // run, and a ROB of complete entries is a plain queue: either way
        // the run's retirements come off the old contents first, and what
        // is left of its pushes joins the tail as one coalesced nop entry.
        let from_old = run.retired.min(Cycle::from(self.rob.used())) as u32;
        let retired = self.rob.retire(from_old);
        debug_assert_eq!(retired, from_old, "retired past an incomplete entry");
        self.rob
            .push_nops((run.issued - (run.retired - Cycle::from(from_old))) as u32);
        self.nops_remaining -= run.issued as u32;
        self.stats.retired += run.retired;
        self.stats.issued += run.issued;
        self.settled_to = upto;
    }

    /// Deliver a line-change wake at the end of cycle `now`: the core,
    /// parked through that cycle — the one mode change it does not make
    /// itself, so it is caught up first — re-checks its
    /// [`Op::WaitChange`](crate::op::Op::WaitChange) condition at its next
    /// step.
    pub(crate) fn unpark(
        &mut self,
        now: Cycle,
        topo: &Topology,
        lat: &LatencyParams,
        world: &mut SharedState,
        trace: &mut Trace,
    ) {
        self.catch_up(now, topo, lat, world, trace);
        self.parked = false;
    }

    /// The core as a mark fetched at `now` with `budget` issue slots left
    /// finds it.
    pub(super) fn mark_point(&self, now: Cycle, budget: u32) -> MarkPoint {
        MarkPoint {
            at: now,
            rob_used: self.rob.used(),
            budget,
            // An op is only fetched with no issue block and no nops left;
            // with no load (so no acquire gate) outstanding either, every
            // ROB entry is complete.
            clean: self.loads.is_empty()
                && self.pending_barrier.is_none()
                && self.stall_run.is_none(),
        }
    }

    /// Whether the event engine has this core parked in a settled poll loop.
    #[must_use]
    pub(crate) fn spin_parked(&self) -> bool {
        self.spin.as_ref().is_some_and(|r| r.parked.is_some())
    }

    /// Poll-loop periods applied in closed form instead of stepped.
    #[must_use]
    pub fn spin_periods_skipped(&self) -> u64 {
        self.spin.as_ref().map_or(0, |r| r.skipped)
    }

    /// This core's step at the watermark found its marked poll loop settled
    /// with `period` (see [`crate::spin`]): if the loop still holds every
    /// line it polls shared, with the values it last loaded, park the core
    /// on those lines' waiter lists and say so. From here the core repeats
    /// one period until a polled line is written, which the directory
    /// reports (the exclusive access that invalidates the copy, or the
    /// commit); [`Core::catch_up`] then brings it up to date.
    #[inline(never)]
    pub(super) fn park(&mut self, period: Period, shared: &mut SharedState) -> bool {
        let rec = self.spin.as_mut().expect("a settled loop has a record");
        // A write since the loop last looked found nobody parked to tell.
        let undisturbed = rec.polled().all(|(addr, value)| {
            shared.read(addr) == value
                && shared.directory.is_sharer(Line::containing(addr), self.id)
        });
        if !undisturbed {
            return false;
        }
        for (addr, _) in rec.polled() {
            shared
                .directory
                .park_waiter(Line::containing(addr), self.id);
        }
        shared.directory.spin_parked += 1;
        rec.parked = Some(period);
        true
    }

    /// End a parked poller's spin and bring it to the state stepping it
    /// through every cycle up to and including `upto` would have left, but
    /// for a quiet tail [`Core::catch_up`] goes on to apply: whole periods
    /// in closed form — the core's three time fields and the record move,
    /// the period's counters are added — and the rest of a period by
    /// [`Core::step`] itself, at the core's own wake cycles, against
    /// `frozen`: a private image in which the polled lines are still shared
    /// and hold the values the loop last saw (the live state may already
    /// show the write that ended the spin). Replaying the tail with the
    /// real step is what makes the phase right for any pipeline shape. The
    /// store buffer's next event lies past `upto` (the machine ends the
    /// spin before it), so nothing drains against `frozen`.
    fn resume(
        &mut self,
        upto: Cycle,
        topo: &Topology,
        lat: &LatencyParams,
        frozen: &mut SharedState,
        trace: &mut Trace,
    ) {
        let rec = self.spin.as_mut().expect("a parked poller has a record");
        let period = rec.parked.take().expect("only a parked poller is resumed");
        for (addr, value) in rec.polled() {
            frozen.memory.insert(addr, value);
            frozen
                .directory
                .access(topo, lat, self.id, Line::containing(addr), false, 0);
        }
        debug_assert!(self.settled_to <= upto, "resumed to before it parked");
        let periods = (upto - self.settled_to) / period.cycles;
        let by = periods * period.cycles;
        rec.shift(by);
        rec.skipped += periods;
        for l in &mut self.loads {
            l.done_at += by;
        }
        if let Some((_, done_at)) = &mut self.last_load {
            *done_at += by;
        }
        self.settled_to += by;
        self.stats.cycles += by;
        self.stats.loads += periods * period.loads;
        self.stats.issued += periods * period.issued;
        self.stats.retired += periods * period.issued;
        // Every move of the buffer changes one of these counts.
        let buffered = |sb: &StoreBuffer| {
            let draining = sb.entries().iter().filter(|e| e.state != SbState::Pending);
            let open = sb.gates_iter().filter(|g| g.open_at.is_some()).count();
            (sb.len(), draining.count(), sb.gates_iter().count(), open)
        };
        let before = cfg!(debug_assertions).then(|| buffered(&self.sb));
        while let Some(w) = self.skip_wake().filter(|&w| w <= upto) {
            self.step(w, topo, lat, frozen, trace);
        }
        debug_assert!(
            before.is_none_or(|b| b == buffered(&self.sb)),
            "core {}: the store buffer moved in a replayed poll-loop tail",
            self.id
        );
    }
}
