//! When a core next matters: its *events*, the lockstep oracle's heartbeat
//! over them ([`Core::next_wake`]) and the one question the event engine
//! asks after a step (`Core::sleep`). The heartbeat steps a core waiting to
//! issue on every cycle; the event engine lets one that is *held* — its
//! pending op blocked for the very reason its last step charged — sleep to
//! its next event (`DESIGN.md` §10.1).

use super::skip::Between;
use super::{Core, SharedState, Stall};
use crate::types::Cycle;

/// The earlier of `wake` and `t`.
fn sooner(wake: Option<Cycle>, t: Cycle) -> Option<Cycle> {
    Some(wake.map_or(t, |w| w.min(t)))
}

impl Core {
    /// The store buffer's next event: a drain landing, a store's data
    /// becoming ready, a `DMB st` gate opening.
    fn store_event(&self, now: Cycle) -> Option<Cycle> {
        let wake = self.sb.next_event(now);
        // A DMB st gate with nothing older left to drain (placed on a
        // drained buffer) requests its response at the very next step.
        match self.sb.requesting_gate() {
            Some(_) => sooner(wake, now + 1),
            None => wake,
        }
    }

    /// The next completion of what the core has in flight besides its
    /// pipeline and its pending barrier: a load or RMW finishing, or a
    /// store-buffer event (`Core::store_event`).
    pub(super) fn in_flight_event(&self, now: Cycle) -> Option<Cycle> {
        let loads = self.loads.iter().map(|l| l.done_at.max(now + 1));
        loads.chain(self.store_event(now)).min()
    }

    /// The core's next *event*: the earliest cycle after `now` whose step
    /// does more than retire completed instructions and push nops. `None`
    /// if nothing it has in flight will ever produce one.
    pub(super) fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut wake = self.in_flight_event(now);
        if self.issue_blocked_until > now {
            wake = sooner(wake, self.issue_blocked_until);
        }
        if self.blocked_all(now) && self.stall_run.is_none() && !self.parked {
            // The barrier issued this cycle, so the next one is the first
            // fully stalled: observe it, or its stall run never opens.
            wake = sooner(wake, now + 1);
        }
        if let Some(b) = &self.pending_barrier {
            match b.resp_at {
                Some(t) => wake = sooner(wake, t.max(now + 1)),
                // Issued with nothing left to wait for: the very next step
                // schedules its response.
                None if self.priors_done(b, now) => wake = sooner(wake, now + 1),
                None => {}
            }
        }
        wake
    }

    /// Earliest cycle at which this core can make progress on its own,
    /// `None` if it never will without outside help.
    ///
    /// This is the *heartbeat* contract the lockstep oracle runs on:
    /// between `now` and the returned cycle, stepping this core is a no-op —
    /// nothing completes, drains, retires, or issues, and its stall
    /// classification is constant. A core that retires or issues anything
    /// (nops included) reports `now + 1`. `None` means the core has no
    /// self-scheduled transition at all: it is quiesced, or parked on a
    /// [`Op::WaitChange`](crate::op::Op::WaitChange) line (in which case the
    /// machine wakes it through the directory waiter list when the line
    /// changes).
    ///
    /// The event engine asks `Core::sleep` instead.
    #[must_use]
    pub fn next_wake(&self, now: Cycle) -> Option<Cycle> {
        if self.quiesced() {
            return None;
        }
        let retires = !self.rob.is_empty() && !self.rob.head_stalled();
        let issues =
            !self.blocked_all(now) && !self.parked && !self.halted && self.suspended_on.is_none();
        if retires || issues {
            // Anything issuable or retirable right now acts next cycle.
            return Some(now + 1);
        }
        let wake = self.next_event(now);
        if self.parked {
            // A parked core only self-schedules for the in-flight work it
            // still has (drains, outstanding loads, barrier responses);
            // once that runs dry it sleeps until a line-change wake. This
            // is the whole scaling win: a thousand parked spinners cost
            // nothing per cycle.
            return wake;
        }
        // A non-parked, non-quiesced core with no scheduled event can still
        // make progress on the very next step (e.g. a just-issued barrier
        // whose wait conditions are checked per step, or a ready store
        // starting its drain). Report a one-cycle heartbeat rather than
        // dormancy: the machine's run loops treat `None` as "this core
        // never runs again by itself".
        Some(wake.unwrap_or(now + 1))
    }

    /// [`Core::next_wake`] under the event engine's weaker *skip* contract,
    /// asked at the watermark: between it and the returned cycle, stepping
    /// this core changes nothing another core, its thread or the run loop
    /// can observe, and `Core::catch_up` brings it to exactly the per-cycle
    /// state. Differs from the heartbeat in the quiet states: retirement
    /// alone never wakes the core — one that issues nothing
    /// ([`Between::Idle`]) sleeps until its next event — one pushing nops
    /// ([`Between::Nops`]) wakes at the cycle that ends the run, a real step
    /// because it may fetch the next op (or open a stall run), or at its
    /// next event if that comes first, and a *held* core (`Core::held`)
    /// sleeps until its next event too.
    pub(crate) fn skip_wake(&self) -> Option<Cycle> {
        let now = self.settled_to;
        let wake = match self.between() {
            state @ (Between::Still | Between::Stalled(..)) => self
                .held(now, state)
                .then(|| self.next_event(now))
                .flatten()
                .or_else(|| self.next_wake(now)),
            Between::Idle => self.next_event(now),
            Between::Nops => {
                let horizon = self
                    .in_flight_event(now)
                    .map_or(Cycle::MAX, |event| event - now - 1);
                Some((now + 1).saturating_add(self.nop_run(now, horizon, true).cycles))
            }
        };
        wake.map(|w| w.max(now + 1))
    }

    /// Whether the core, just stepped at `now` into `state`, is *held*:
    /// nothing can retire, it is not suspended, parked or halted, and what
    /// it waits to issue — its pending op, or a nop batch behind a full ROB
    /// — is blocked for exactly the reason the step left behind: the open
    /// stall run's, or an uncharged resource limit with no run open. Each
    /// condition behind that verdict changes only at one of the core's
    /// events, so every cycle up to the next one would re-learn it, and
    /// `Core::catch_up` charges them in bulk. Asked after the step, not
    /// from its issue phase: the step's second drain phase may have started
    /// a drain that changes a `DrainWait` class.
    fn held(&self, now: Cycle, state: Between) -> bool {
        let retires = !self.rob.is_empty() && !self.rob.head_stalled();
        if retires || self.suspended_on.is_some() || self.parked || self.halted {
            return false;
        }
        let stall = match &self.pending_op {
            Some(op) => self.blocked(op, now),
            None if self.nops_remaining > 0 && self.rob.is_full() => Some(self.classify_rob_full()),
            None => None,
        };
        let left_behind = match state {
            Between::Stalled(cause, kind) => Stall::Barrier(cause, kind),
            _ => Stall::Resource,
        };
        stall == Some(left_behind)
    }

    /// The one question the event engine asks after this core's step at
    /// `now`: when to step it next. A core that step found in a settled
    /// poll loop is parked instead: from here the directory wakes it, and
    /// its one wake of its own is the store buffer's next event
    /// (`Core::store_event`; `None` once nothing is buffered), before
    /// which the machine ends the spin.
    #[inline]
    pub(crate) fn sleep(&mut self, now: Cycle, shared: &mut SharedState) -> Option<Cycle> {
        match self.spin.as_ref().and_then(|rec| rec.settled_at(now)) {
            Some(period) if self.park(period, shared) => self.store_event(now),
            _ => self.skip_wake(),
        }
    }
}
