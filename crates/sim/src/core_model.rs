//! The per-core pipeline model.
//!
//! Each core is an in-order-issue, out-of-order-completion machine:
//!
//! * up to `issue_width` instructions issue per cycle into a bounded
//!   [`Rob`]; retirement is in order at `retire_width`;
//! * stores are fire-and-forget into the non-FIFO [`StoreBuffer`];
//! * loads take their latency from the coherence [`Directory`] and complete
//!   asynchronously (with store-to-load forwarding from the own buffer);
//! * barrier instructions install the blocking conditions described by
//!   [`Barrier`]'s implementation predicates — §2.3's "typical
//!   implementation": block subsequent instruction classes, wait for prior
//!   accesses, then wait for the ACE transaction response whose scope
//!   depends on how far the prior snooping travelled.
//!
//! Load *values* are real: loads read the globally committed memory image at
//! completion time (plus own-store forwarding), so racy workloads observe
//! genuine weak-memory behaviour — e.g. a consumer polling a flag really can
//! see the flag before the data if the producer omitted its barrier, because
//! the store buffer drains out of order.

use armbar_fxhash::FxHashMap;

use armbar_barriers::{Acquire, Barrier};

use crate::directory::Directory;
use crate::op::{Op, RmwKind, SimThread, ThreadCtx};
use crate::platform::LatencyParams;
use crate::rob::{Rob, SlotId};
use crate::spin::{MarkPoint, Parked, SpinRecord};
use crate::stats::{CoreStats, StallCause};
use crate::storebuf::{SbEntry, SbState, Seq, StoreBuffer};
use crate::topology::Topology;
use crate::trace::{Event, Trace};
use crate::types::{Addr, CoreId, Cycle, DistanceClass, Line};

/// State shared by all cores: the coherence directory and the committed
/// memory image (8-byte cells; absent cells read as zero).
#[derive(Debug, Default)]
pub struct SharedState {
    /// Coherence directory.
    pub directory: Directory,
    /// Globally visible memory (committed store values). FxHash-keyed:
    /// addresses are workload-chosen constants, never adversarial.
    pub memory: FxHashMap<Addr, u64>,
    /// Cores whose watched line just received a committed store; the
    /// machine drains this after each step batch and wakes them one cycle
    /// after the commit (uniform in both engines, so wake order never
    /// depends on writer/waiter id order within a cycle).
    pub pending_wakes: Vec<CoreId>,
}

impl SharedState {
    /// Read a committed cell (zero if never written).
    #[must_use]
    pub fn read(&self, addr: Addr) -> u64 {
        *self.memory.get(&addr).unwrap_or(&0)
    }

    /// Commit a value to a cell, collecting any cores parked on its line.
    pub fn write(&mut self, addr: Addr, value: u64) {
        self.memory.insert(addr, value);
        self.directory
            .take_waiters_into(Line::containing(addr), &mut self.pending_wakes);
    }
}

/// An RMW riding on an in-flight "load" record.
#[derive(Debug, Clone, Copy)]
struct RmwInfo {
    kind: RmwKind,
    operand: u64,
}

/// An in-flight load (or RMW).
#[derive(Debug, Clone)]
struct LoadInFlight {
    id: u64,
    seq: Seq,
    rob_slot: SlotId,
    addr: Addr,
    done_at: Cycle,
    distance: DistanceClass,
    /// Value fixed at issue by store-to-load forwarding, if any.
    forwarded: Option<u64>,
    /// Deliver the value to the (suspended) thread on completion.
    wants_value: bool,
    /// Acquire annotation; any acquiring load clears the gate on
    /// completion, and the flavour decides which kind a gate stall is
    /// charged to (`LDAR` vs `LDAPR`).
    acquire: Acquire,
    rmw: Option<RmwInfo>,
}

/// A pending barrier instruction (fence) and its wait conditions.
#[derive(Debug, Clone)]
struct PendingBarrier {
    kind: Barrier,
    rob_slot: Option<SlotId>,
    /// Program-order point of the barrier: prior accesses have `seq <` this.
    seq: Seq,
    /// Response time, known once prior accesses complete.
    resp_at: Option<Cycle>,
    /// Whether any prior access the barrier waited on crossed a node.
    crossed_node: bool,
    /// Whether any prior access was outstanding when the barrier issued
    /// (idle barriers get the cheap response).
    had_priors: bool,
}

impl PendingBarrier {
    fn waits_loads(&self) -> bool {
        matches!(
            self.kind,
            Barrier::DmbFull
                | Barrier::DmbLd
                | Barrier::DsbFull
                | Barrier::DsbLd
                | Barrier::CtrlIsb
        )
    }

    fn waits_stores(&self) -> bool {
        matches!(
            self.kind,
            Barrier::DmbFull | Barrier::DsbFull | Barrier::DsbSt
        )
    }

    /// Does it forbid issuing anything at all?
    fn blocks_all(&self) -> bool {
        self.kind.blocks_issue_of_non_memory()
    }
}

/// Why issue made no progress this cycle (for stall accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stall {
    None,
    /// Barrier-caused: charged to exactly one cause and one barrier kind.
    Barrier(StallCause, Barrier),
    /// Plain resource limit with no barrier behind it (uncharged).
    Resource,
    Suspended,
    /// Parked on a [`Op::WaitChange`] line: idle workload wait, uncharged.
    Parked,
}

/// An open run of consecutive fully stalled cycles with one (cause, kind).
/// Because the machine's event-accelerated loop only steps cores at wake
/// cycles, the run charges *elapsed* cycles between observations rather
/// than one per step — otherwise skipped cycles would go unaccounted.
#[derive(Debug, Clone, Copy)]
struct StallRun {
    cause: StallCause,
    kind: Barrier,
    /// Cycle the run began (for the trace slice).
    since: Cycle,
    /// Last cycle already charged; the next observation charges the gap.
    charged_to: Cycle,
}

/// The cycles of a pure nop run ([`Core::in_nop_run`]) that can be applied
/// in bulk, and their summed effect on the core.
#[derive(Debug, Clone, Copy)]
struct NopRun {
    /// Whole cycles covered; the cycle after them is the first that may
    /// push the run's last nop (and so fetch the next op) or lies past the
    /// requested horizon.
    cycles: Cycle,
    retired: u64,
    issued: u64,
}

/// What [`Core::spin_resume`] did to bring a parked poller up to date.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpinResumed {
    /// Whole periods applied in closed form.
    pub periods: u64,
    /// `Core::step`s replayed after them.
    pub steps: u64,
    /// Cycle of the last step the core has now taken.
    pub last_step: Cycle,
    /// Its next one, for the event heap.
    pub next_wake: Option<Cycle>,
}

/// One simulated core.
pub struct Core {
    id: CoreId,
    thread: Option<Box<dyn SimThread>>,
    halted: bool,
    rob: Rob,
    sb: StoreBuffer,
    pending_op: Option<Op>,
    nops_remaining: u32,
    /// Suspended waiting for the value of this load id.
    suspended_on: Option<u64>,
    issue_blocked_until: Cycle,
    /// The barrier kind responsible for `issue_blocked_until` (ISB, or a
    /// DSB/CTRL+ISB whose response window blocks all issue).
    issue_block_kind: Barrier,
    /// Open stall run, if the previous observed cycle was fully stalled.
    stall_run: Option<StallRun>,
    loads: Vec<LoadInFlight>,
    next_seq: Seq,
    next_load_id: u64,
    pending_barrier: Option<PendingBarrier>,
    /// LDAR in flight: memory ops may not issue until this load completes.
    acquire_gate: Option<u64>,
    /// Parked on a [`Op::WaitChange`] whose condition still held: the core
    /// issues nothing until the machine delivers a line-change wake (the op
    /// itself sits in `pending_op` and re-checks on wake-up).
    parked: bool,
    /// Most recent load: `(id, done_at)` for dependency modelling.
    last_load: Option<(u64, Cycle)>,
    /// Cycle of the previous `Op::IterationMark` (response-time baseline).
    last_iteration_at: Cycle,
    /// Cycle up to which this core's state is current: its last step, or
    /// later once [`Core::settle_nop_run`] has applied a skipped nop run.
    settled_to: Cycle,
    /// The marked poll loop this core is in or was last in, created at its
    /// first [`Op::SpinMark`] and reused: a core that never spins carries a
    /// null pointer.
    spin: Option<Box<SpinRecord>>,
    ctx: ThreadCtx,
    stats: CoreStats,
    /// Per-gate cross-node tracking parallel to `sb` gates is folded into
    /// the gate structs; barrier window distance is tracked on drains/loads.
    params_cache: CoreParams,
}

/// Per-core copies of the latency parameters the hot path needs.
#[derive(Debug, Clone, Copy)]
struct CoreParams {
    issue_width: u32,
    retire_width: u32,
    max_outstanding_loads: u32,
    t_l1_hit: Cycle,
    t_membar_idle: Cycle,
    t_membar_bisection: Cycle,
    t_membar_domain: Cycle,
    t_syncbar: Cycle,
    t_stlr: Cycle,
    t_isb_flush: Cycle,
    dmb_holds_rob: bool,
}

impl Core {
    /// A core with no thread (inert until one is attached).
    #[must_use]
    pub fn new(id: CoreId, lat: &LatencyParams) -> Core {
        Core {
            id,
            thread: None,
            halted: false,
            rob: Rob::new(lat.rob_size),
            sb: StoreBuffer::with_order(lat.sb_size, lat.sb_drain_ports, lat.fifo_store_buffer),
            pending_op: None,
            nops_remaining: 0,
            suspended_on: None,
            issue_blocked_until: 0,
            issue_block_kind: Barrier::Isb,
            stall_run: None,
            loads: Vec::new(),
            next_seq: 0,
            next_load_id: 0,
            pending_barrier: None,
            acquire_gate: None,
            parked: false,
            last_load: None,
            last_iteration_at: 0,
            settled_to: 0,
            spin: None,
            ctx: ThreadCtx {
                now: 0,
                last_value: 0,
                iterations: 0,
            },
            stats: CoreStats::default(),
            params_cache: CoreParams {
                issue_width: lat.issue_width,
                retire_width: lat.retire_width,
                max_outstanding_loads: lat.max_outstanding_loads,
                t_l1_hit: lat.t_l1_hit,
                t_membar_idle: lat.t_membar_idle,
                t_membar_bisection: lat.t_membar_bisection,
                t_membar_domain: lat.t_membar_domain,
                t_syncbar: lat.t_syncbar,
                t_stlr: lat.t_stlr,
                t_isb_flush: lat.t_isb_flush,
                dmb_holds_rob: lat.dmb_holds_rob,
            },
        }
    }

    /// Attach a workload thread.
    pub fn attach(&mut self, thread: Box<dyn SimThread>) {
        self.thread = Some(thread);
        self.halted = false;
    }

    /// Whether a workload thread is attached.
    #[must_use]
    pub fn has_thread(&self) -> bool {
        self.thread.is_some()
    }

    /// Whether the workload halted *and* all its effects are globally
    /// visible (pipeline and store buffer empty).
    #[must_use]
    pub fn quiesced(&self) -> bool {
        (self.halted || self.thread.is_none())
            && self.rob.is_empty()
            && self.sb.is_empty()
            && self.loads.is_empty()
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> &CoreStats {
        &self.stats
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
    /// [`Op::WaitChange`] line (in which case the machine wakes it through
    /// the directory waiter list when the line changes).
    ///
    /// The event engine asks [`Core::next_wake_skipping_nops`] instead.
    #[must_use]
    pub fn next_wake(&self, now: Cycle) -> Option<Cycle> {
        if self.quiesced() {
            return None;
        }
        // If anything is issuable or retirable right now, act next cycle.
        let mut wake: Option<Cycle> = None;
        let mut consider = |t: Cycle| {
            let t = t.max(now + 1);
            wake = Some(wake.map_or(t, |w| w.min(t)));
        };
        // Retirement pending?
        if !self.rob.is_empty() && !self.rob.head_stalled() {
            consider(now + 1);
        }
        // Issue possible?
        let blocked_all = self.issue_blocked_until > now
            || self
                .pending_barrier
                .as_ref()
                .is_some_and(|b| b.blocks_all());
        if !blocked_all && !self.parked && !self.halted && self.suspended_on.is_none() {
            consider(now + 1);
        }
        if self.issue_blocked_until > now {
            consider(self.issue_blocked_until);
        }
        if blocked_all && self.stall_run.is_none() && !self.parked {
            // The barrier issued this cycle, so the next one is the first
            // fully stalled: observe it, or its stall run never opens.
            consider(now + 1);
        }
        for l in &self.loads {
            consider(l.done_at);
        }
        if let Some(t) = self.sb.next_event(now) {
            consider(t);
        }
        // A DMB st gate placed with nothing older left to drain requests its
        // response at the very next step.
        if let Some(g) = self.sb.gates_iter().find(|g| g.open_at.is_none()) {
            if self.sb.drained_before(g.seq) {
                consider(now + 1);
            }
        }
        if let Some(b) = &self.pending_barrier {
            match b.resp_at {
                Some(t) => consider(t),
                // Issued with nothing left to wait for: the very next step
                // schedules its response.
                None if self.priors_done(b, now) => consider(now + 1),
                None => {}
            }
        }
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

    /// [`Core::next_wake`] under the event engine's weaker *skip* contract:
    /// between `now` and the returned cycle, stepping this core changes
    /// nothing another core or the run loop can observe, and the next
    /// `step` (or the machine's run-exit settle) brings the core to exactly the
    /// per-cycle state. Differs from the heartbeat only inside a pure nop
    /// run, whose wake is the cycle the run ends in — a real step, because
    /// it may fetch the next op.
    #[must_use]
    pub fn next_wake_skipping_nops(&self, now: Cycle) -> Option<Cycle> {
        if self.in_nop_run() {
            return Some(now + 1 + self.nop_run(Cycle::MAX).cycles);
        }
        self.next_wake(now)
    }

    /// Whether the core is in a pure nop run: nops left to issue and nothing
    /// else in flight. Every ROB entry is then complete, no stall run is
    /// open, and until the run's last nop issues a step only retires and
    /// pushes nops — state no other core reads.
    #[must_use]
    pub(crate) fn in_nop_run(&self) -> bool {
        self.nops_remaining > 0
            && self.nothing_in_flight()
            && self.issue_blocked_until <= self.settled_to
            && !self.parked
            // A core that never retires fills its ROB and wedges; step it.
            && self.params_cache.retire_width > 0
    }

    /// No load or RMW outstanding (so no acquire gate either), nothing
    /// buffered or gated, no pending barrier, no stall run open: every ROB
    /// entry is complete and the core's future is its thread's alone.
    fn nothing_in_flight(&self) -> bool {
        self.loads.is_empty()
            && self.sb.is_empty()
            && self.sb.gates_iter().next().is_none()
            && self.pending_barrier.is_none()
            && self.stall_run.is_none()
    }

    /// Iterate the per-cycle `(used, remaining)` recurrence of a pure nop
    /// run — retire `min(retire_width, used)`, push
    /// `min(remaining, issue_width, free)` — over at most `horizon` cycles,
    /// stopping before the cycle that would push the last nop. Once ROB
    /// occupancy reaches its fixed point the rest is one multiplication.
    fn nop_run(&self, horizon: Cycle) -> NopRun {
        let pc = &self.params_cache;
        let capacity = self.rob.used() + self.rob.free();
        let mut used = self.rob.used();
        let mut remaining = self.nops_remaining;
        let mut run = NopRun {
            cycles: 0,
            retired: 0,
            issued: 0,
        };
        while run.cycles < horizon {
            let retire = pc.retire_width.min(used);
            let push = pc.issue_width.min(capacity - (used - retire));
            if remaining <= push {
                break;
            }
            let next_used = used - retire + push;
            let n = if next_used == used {
                Cycle::from((remaining - 1) / push).min(horizon - run.cycles)
            } else {
                1
            };
            run.cycles += n;
            run.retired += n * Cycle::from(retire);
            run.issued += n * Cycle::from(push);
            // `n * push < remaining`, so this fits.
            remaining -= (n * Cycle::from(push)) as u32;
            used = next_used;
        }
        run
    }

    /// Apply the cycles `settled_to + 1 ..= upto` of a pure nop run that the
    /// event engine skipped, so the core reads exactly as if it had been
    /// stepped through them. No-op outside a nop run or when already
    /// current — in particular under the oracle, which never skips.
    pub(crate) fn settle_nop_run(&mut self, upto: Cycle) {
        if upto <= self.settled_to || !self.in_nop_run() {
            return;
        }
        let run = self.nop_run(upto - self.settled_to);
        debug_assert_eq!(
            run.cycles,
            upto - self.settled_to,
            "stepped past the run's end"
        );
        // All entries are complete, so the ROB is a plain queue: the run's
        // retirements come off the old contents first, and what is left of
        // its pushes joins the tail as one coalesced nop entry.
        let old = self.rob.used();
        let from_old = run.retired.min(Cycle::from(old)) as u32;
        self.rob.retire(from_old);
        self.rob
            .push_nops((run.issued - (run.retired - Cycle::from(from_old))) as u32);
        self.nops_remaining -= run.issued as u32;
        self.stats.retired += run.retired;
        self.stats.issued += run.issued;
        self.settled_to = upto;
    }

    /// The core as a mark fetched at `now` with `budget` issue slots left
    /// finds it.
    fn mark_point(&self, now: Cycle, budget: u32) -> MarkPoint {
        MarkPoint {
            at: now,
            rob_used: self.rob.used(),
            budget,
            // An op is only fetched with no issue block and no nops left.
            clean: self.nothing_in_flight(),
        }
    }

    /// Whether the event engine has this core parked in a settled poll loop.
    #[must_use]
    pub(crate) fn spin_parked(&self) -> bool {
        self.spin.as_ref().is_some_and(|r| r.parked.is_some())
    }

    /// Whether the core's last mark found its poll loop settled — the cheap
    /// test the event loop makes after every step before
    /// [`Core::spin_park`]'s full one.
    #[inline]
    pub(crate) fn spin_settled(&self) -> bool {
        self.spin.as_ref().is_some_and(|r| r.settled())
    }

    /// Event engine, after this core's step at `now`: if that step found a
    /// marked poll loop settled (see [`crate::spin`]) and the loop still
    /// holds every line it polls shared, with the values it last loaded,
    /// park the core on those lines' waiter lists and say so. From here the
    /// core repeats one period until a polled line is written, which the
    /// directory reports (the exclusive access that invalidates the copy, or
    /// the commit); [`Core::spin_resume`] then brings it up to date.
    pub(crate) fn spin_park(&mut self, now: Cycle, shared: &mut SharedState) -> bool {
        let Some(rec) = &mut self.spin else {
            return false;
        };
        let Some(period) = rec.settled_at(now) else {
            return false;
        };
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
        rec.parked = Some(Parked { base: now, period });
        true
    }

    /// Bring a core parked by [`Core::spin_park`] to the state stepping it
    /// through every cycle up to and including `reach` would have left:
    /// whole periods in closed form — the core's three time fields and the
    /// record move, the period's counters are added — and the rest of a
    /// period by [`Core::step`] itself, at the core's own wake cycles,
    /// against `frozen`: a private image in which the polled lines are still
    /// shared and hold the values the loop last saw (the live state may
    /// already show the write that ended the spin). Replaying the tail with
    /// the real step is what makes the phase right for any pipeline shape.
    pub(crate) fn spin_resume(
        &mut self,
        reach: Cycle,
        topo: &Topology,
        lat: &LatencyParams,
        frozen: &mut SharedState,
        trace: &mut Trace,
    ) -> SpinResumed {
        let rec = self.spin.as_mut().expect("a parked poller has a record");
        let Parked { base, period } = rec.parked.take().expect("only a parked poller is resumed");
        for (addr, value) in rec.polled() {
            frozen.memory.insert(addr, value);
            frozen
                .directory
                .access(topo, lat, self.id, Line::containing(addr), false, 0);
        }
        debug_assert!(base <= reach, "resumed to before it parked");
        let periods = (reach - base) / period.cycles;
        let by = periods * period.cycles;
        rec.shift(by);
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
        let mut resumed = SpinResumed {
            periods,
            steps: 0,
            last_step: base + by,
            next_wake: None,
        };
        loop {
            resumed.next_wake = self
                .next_wake_skipping_nops(resumed.last_step)
                .map(|w| w.max(resumed.last_step + 1));
            match resumed.next_wake {
                Some(w) if w <= reach => {
                    self.step(w, topo, lat, frozen, trace);
                    resumed.steps += 1;
                    resumed.last_step = w;
                }
                _ => return resumed,
            }
        }
    }

    /// Whether the core is parked on a [`Op::WaitChange`] line.
    #[must_use]
    pub fn parked(&self) -> bool {
        self.parked
    }

    /// Deliver a line-change wake: the core re-checks its parked
    /// [`Op::WaitChange`] condition at its next step.
    pub(crate) fn unpark(&mut self) {
        self.parked = false;
    }

    fn loads_done_before(&self, seq: Seq, now: Cycle) -> bool {
        self.loads.iter().all(|l| l.seq >= seq || l.done_at <= now)
    }

    /// Whether every prior access pending barrier `b` waits on has completed
    /// at `now`, so its response can be requested.
    fn priors_done(&self, b: &PendingBarrier, now: Cycle) -> bool {
        (!b.waits_loads() || self.loads_done_before(b.seq, now))
            && (!b.waits_stores() || self.sb.drained_before(b.seq))
    }

    fn outstanding_loads(&self, now: Cycle) -> usize {
        self.loads.iter().filter(|l| l.done_at > now).count()
    }

    /// Whether memory operations may issue at `now`.
    fn memory_blocked(&self, now: Cycle) -> bool {
        // Every modelled fence except DMB st (which lives in the store
        // buffer as a gate, not here) orders *something* later; subsequent
        // memory ops wait for the response.
        if let Some(b) = &self.pending_barrier {
            if b.resp_at.is_none_or(|t| t > now) {
                return true;
            }
        }
        if let Some(id) = self.acquire_gate {
            if self.loads.iter().any(|l| l.id == id && l.done_at > now) {
                return true;
            }
        }
        false
    }

    /// Farthest distance among the outstanding accesses a pending barrier
    /// is still waiting on (pending, response not yet scheduled).
    fn worst_wait_distance(&self, b: &PendingBarrier, now: Cycle) -> DistanceClass {
        let mut worst = DistanceClass::Local;
        if b.waits_loads() {
            for l in &self.loads {
                if l.seq < b.seq && l.done_at > now {
                    worst = worst.max(l.distance);
                }
            }
        }
        if b.waits_stores() {
            for e in self.sb.entries() {
                if e.seq < b.seq {
                    if let Some(d) = e.drain_distance {
                        worst = worst.max(d);
                    }
                }
            }
        }
        worst
    }

    /// Farthest distance among *all* outstanding accesses (release-RMW
    /// wait: every older store drained and every older load complete).
    fn worst_outstanding_distance(&self, now: Cycle) -> DistanceClass {
        let mut worst = DistanceClass::Local;
        for l in &self.loads {
            if l.done_at > now {
                worst = worst.max(l.distance);
            }
        }
        for e in self.sb.entries() {
            if let Some(d) = e.drain_distance {
                worst = worst.max(d);
            }
        }
        worst
    }

    /// Classify a [`Core::memory_blocked`] condition into the one cause
    /// that is charged this cycle. Precondition: `memory_blocked(now)`.
    fn classify_memory_block(&self, now: Cycle) -> (StallCause, Barrier) {
        if let Some(b) = &self.pending_barrier {
            if b.resp_at.is_none_or(|t| t > now) {
                return match b.resp_at {
                    // Response scheduled: waiting out the window. DSB-class
                    // barriers that block all issue count as the DSB/ISB
                    // window; DMB-class ones as the memory-block interval.
                    Some(_) if b.blocks_all() => (StallCause::ResponseWindow, b.kind),
                    Some(_) => (StallCause::MemoryBlock, b.kind),
                    // Still waiting for prior accesses to complete.
                    None => (
                        StallCause::DrainWait(self.worst_wait_distance(b, now)),
                        b.kind,
                    ),
                };
            }
        }
        // Otherwise an acquire gate (LDAR/LDAPR) holds memory issue;
        // charge the flavour of the gating load.
        let mut worst = DistanceClass::Local;
        let mut kind = Barrier::Ldar;
        if let Some(id) = self.acquire_gate {
            if let Some(l) = self.loads.iter().find(|l| l.id == id && l.done_at > now) {
                worst = l.distance;
                kind = l.acquire.barrier().unwrap_or(Barrier::Ldar);
            }
        }
        (StallCause::DrainWait(worst), kind)
    }

    /// Whether an RCsc acquire (`LDAR`) must hold issue at `now`: an
    /// earlier store-release still sits in the store buffer, and RCsc
    /// forbids the acquiring load from performing before that release is
    /// globally visible. The RCpc `LDAPR` never waits here.
    fn rcsc_release_wait(&self) -> bool {
        self.sb.entries().iter().any(|e| e.release)
    }

    /// Farthest drain distance among buffered store-releases (for charging
    /// the RCsc wait).
    fn worst_release_distance(&self) -> DistanceClass {
        let mut worst = DistanceClass::Local;
        for e in self.sb.entries() {
            if e.release {
                if let Some(d) = e.drain_distance {
                    worst = worst.max(d);
                }
            }
        }
        worst
    }

    /// A full ROB counts as a barrier stall only when a pending barrier is
    /// what keeps the head from retiring (Figure 4's nop throttling);
    /// otherwise it is an uncharged resource limit.
    fn classify_rob_full(&self) -> Stall {
        match &self.pending_barrier {
            Some(b) => Stall::Barrier(StallCause::RobFull, b.kind),
            None => Stall::Resource,
        }
    }

    /// Phase 1: completions — loads/RMWs finishing, drains landing,
    /// barrier/gate conditions resolving.
    fn complete_phase(&mut self, now: Cycle, shared: &mut SharedState, trace: &mut Trace) {
        // Finish loads and RMWs, earliest completion first (issue order
        // among equals).
        while let Some(i) = self
            .loads
            .iter()
            .enumerate()
            .filter(|(_, l)| l.done_at <= now)
            .min_by_key(|&(i, l)| (l.done_at, i))
            .map(|(i, _)| i)
        {
            let l = self.loads.remove(i);
            let value = match (l.forwarded, &l.rmw) {
                (Some(v), _) => v,
                (None, None) => shared.read(l.addr),
                (None, Some(rmw)) => {
                    // Atomic read-modify-write commits at completion.
                    let old = shared.read(l.addr);
                    let new = match rmw.kind {
                        RmwKind::FetchAdd => old.wrapping_add(rmw.operand),
                        RmwKind::Swap => rmw.operand,
                        RmwKind::Cas { expected } => {
                            if old == expected {
                                rmw.operand
                            } else {
                                old
                            }
                        }
                    };
                    shared.write(l.addr, new);
                    old
                }
            };
            self.rob.complete(l.rob_slot);
            if l.distance.crosses_node() {
                if let Some(b) = &mut self.pending_barrier {
                    if b.waits_loads() && l.seq < b.seq {
                        b.crossed_node = true;
                    }
                }
            }
            if l.acquire.is_acquire() && self.acquire_gate == Some(l.id) {
                self.acquire_gate = None;
            }
            if l.wants_value && self.suspended_on == Some(l.id) {
                self.ctx.last_value = value;
                self.suspended_on = None;
                if let Some(rec) = &mut self.spin {
                    rec.loaded(value);
                }
            }
        }

        // Land store drains in the memory image.
        while let Some(e) = self.sb.pop_completed_drain(now) {
            shared.write(e.addr, e.value);
            // Distance scope for gates/barriers waiting on this drain.
            let crossed = e.drain_crossed_node();
            if crossed {
                for g in self.sb.gates_mut() {
                    if e.seq < g.seq {
                        g.crossed_node = true;
                    }
                }
                if let Some(b) = &mut self.pending_barrier {
                    if b.waits_stores() && e.seq < b.seq {
                        b.crossed_node = true;
                    }
                }
            }
            if e.drain_was_rmr() {
                self.stats.store_rmrs += 1;
            }
        }

        // Open DMB st gates whose pre-gate stores have all drained. Gates
        // are barrier transactions and collect their responses in program
        // order: only the oldest still-closed gate may request one — a
        // younger gate must not sneak an idle-scope response past it.
        let pc = self.params_cache;
        let mut open: Option<(Seq, Cycle)> = None;
        {
            let sb = &self.sb;
            for g in sb.gates_iter() {
                if g.open_at.is_some() {
                    continue;
                }
                if sb.drained_before(g.seq) {
                    let lat_resp = if g.crossed_node {
                        pc.t_membar_domain
                    } else if g.had_priors {
                        pc.t_membar_bisection
                    } else {
                        pc.t_membar_idle
                    };
                    open = Some((g.seq, now + lat_resp));
                }
                // Younger closed gates wait for this one either way.
                break;
            }
        }
        if let Some((seq, t)) = open {
            for g in self.sb.gates_mut() {
                if g.seq == seq {
                    g.open_at = Some(t);
                }
            }
        }
        self.sb.expire_gates(now);

        // Resolve the pending barrier.
        let mut barrier_done = false;
        let priors_done = self
            .pending_barrier
            .as_ref()
            .is_some_and(|b| b.resp_at.is_none() && self.priors_done(b, now));
        if let Some(b) = &mut self.pending_barrier {
            if priors_done {
                let resp = match b.kind {
                    Barrier::DmbFull => {
                        now + if !b.had_priors {
                            pc.t_membar_idle
                        } else if b.crossed_node {
                            pc.t_membar_domain
                        } else {
                            pc.t_membar_bisection
                        }
                    }
                    Barrier::DmbLd => now + 1,
                    Barrier::DsbFull | Barrier::DsbSt | Barrier::DsbLd => now + pc.t_syncbar,
                    Barrier::CtrlIsb => now + pc.t_isb_flush,
                    other => unreachable!("{other} never becomes a pending barrier"),
                };
                b.resp_at = Some(resp);
                if b.blocks_all() {
                    self.issue_blocked_until = resp;
                    self.issue_block_kind = b.kind;
                }
            }
            if let Some(t) = b.resp_at {
                if t <= now {
                    if let Some(slot) = b.rob_slot {
                        self.rob.complete(slot);
                    }
                    barrier_done = true;
                }
            }
        }
        if barrier_done {
            let kind = self.pending_barrier.take().expect("checked above").kind;
            if trace.enabled {
                trace.record(
                    now,
                    Event::BarrierDone {
                        core: self.id,
                        what: kind.mnemonic(),
                    },
                );
            }
        }
    }

    /// Phase 2: start store-buffer drains while coherence ports are free.
    fn drain_phase(
        &mut self,
        now: Cycle,
        topo: &Topology,
        lat: &LatencyParams,
        shared: &mut SharedState,
    ) {
        loop {
            let loads = &self.loads;
            let loads_done = |seq: Seq| loads.iter().all(|l| l.seq >= seq || l.done_at <= now);
            let Some(i) = self.sb.pick_drain_candidate(now, loads_done) else {
                break;
            };
            let (addr, release) = {
                let e = &self.sb.entries()[i];
                (e.addr, e.release)
            };
            let out =
                shared
                    .directory
                    .access(topo, lat, self.id, Line::containing(addr), true, now);
            let extra = if release { self.params_cache.t_stlr } else { 0 };
            self.sb
                .start_drain(i, now + out.latency + extra, out.distance);
        }
    }

    /// Phase 3: retire.
    fn retire_phase(&mut self) {
        let n = self.rob.retire(self.params_cache.retire_width);
        self.stats.retired += u64::from(n);
    }

    /// Phase 4: issue up to `issue_width` instructions.
    #[allow(clippy::too_many_lines)]
    fn issue_phase(
        &mut self,
        now: Cycle,
        topo: &Topology,
        lat: &LatencyParams,
        shared: &mut SharedState,
        trace: &mut Trace,
    ) {
        let pc = self.params_cache;
        let mut budget = pc.issue_width;
        let mut stall = Stall::None;
        self.ctx.now = now;
        self.ctx.iterations = self.stats.iterations;
        while budget > 0 {
            if self.parked {
                // Parked on a WaitChange line: issues nothing until the
                // machine delivers a line-change wake. Uncharged idle.
                stall = Stall::Parked;
                break;
            }
            if self.issue_blocked_until > now {
                stall = Stall::Barrier(StallCause::ResponseWindow, self.issue_block_kind);
                break;
            }
            if let Some(b) = &self.pending_barrier {
                if b.blocks_all() && b.resp_at.is_none_or(|t| t > now) {
                    stall = Stall::Barrier(self.classify_memory_block(now).0, b.kind);
                    break;
                }
            }
            // Finish a partially issued nop batch first.
            if self.nops_remaining > 0 {
                let pushed = self.rob.push_nops(self.nops_remaining.min(budget));
                if pushed == 0 {
                    // push_nops refuses only when the ROB is full.
                    stall = self.classify_rob_full();
                    break;
                }
                self.nops_remaining -= pushed;
                self.stats.issued += u64::from(pushed);
                budget -= pushed;
                continue;
            }
            if self.suspended_on.is_some() {
                stall = Stall::Suspended;
                break;
            }
            if self.halted {
                break;
            }
            // Fetch the next operation.
            let op = match self.pending_op.take() {
                Some(op) => op,
                None => match &mut self.thread {
                    Some(t) => {
                        let op = t.next(&mut self.ctx);
                        if let Some(rec) = &mut self.spin {
                            rec.fetched(self.id, op);
                        }
                        op
                    }
                    None => break,
                },
            };
            match op {
                Op::Nops(n) => {
                    if n > 0 {
                        self.nops_remaining = n;
                    }
                }
                Op::IterationMark => {
                    // The mark stands in for the loop-closing branch: one
                    // issued instruction. Charging it also guarantees
                    // forward progress for mark-only threads.
                    if self.rob.push_nops(1) == 0 {
                        self.pending_op = Some(op);
                        stall = self.classify_rob_full();
                        break;
                    }
                    self.stats.iterations += 1;
                    self.ctx.iterations = self.stats.iterations;
                    // Response time of this iteration: the gap since the
                    // previous mark (or since cycle 0 for the first). Both
                    // engines issue the mark at the same cycle, so the
                    // histogram is engine-identical by the same argument as
                    // the iteration counter itself.
                    self.stats.latency.record(now - self.last_iteration_at);
                    self.last_iteration_at = now;
                    self.stats.issued += 1;
                    budget -= 1;
                    if trace.enabled {
                        trace.record(
                            now,
                            Event::Iteration {
                                core: self.id,
                                count: self.stats.iterations,
                            },
                        );
                    }
                }
                Op::Halt => {
                    self.halted = true;
                    self.stats.halted_at = Some(now);
                }
                Op::Load {
                    addr,
                    use_value,
                    acquire,
                    dep_on_last_load,
                } => {
                    // RCsc response-window wait: an LDAR may not perform
                    // while an earlier STLR is still draining. The RCpc
                    // LDAPR (and plain loads) skip this entirely — that is
                    // the whole performance case for the downgrade.
                    let rcsc_wait = acquire == Acquire::Sc && self.rcsc_release_wait();
                    if self.memory_blocked(now)
                        || rcsc_wait
                        || self.rob.is_full()
                        || self.outstanding_loads(now) as u32 >= pc.max_outstanding_loads
                    {
                        self.pending_op = Some(op);
                        stall = if self.memory_blocked(now) {
                            let (cause, kind) = self.classify_memory_block(now);
                            Stall::Barrier(cause, kind)
                        } else if rcsc_wait {
                            Stall::Barrier(
                                StallCause::DrainWait(self.worst_release_distance()),
                                Barrier::Ldar,
                            )
                        } else if self.rob.is_full() {
                            self.classify_rob_full()
                        } else {
                            // MSHR limit: a plain resource, no barrier.
                            Stall::Resource
                        };
                        break;
                    }
                    let start = if dep_on_last_load {
                        self.last_load.map_or(now, |(_, t)| t.max(now))
                    } else {
                        now
                    };
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    let (done_at, distance, forwarded) = if let Some(v) = self.sb.forward(addr) {
                        (start + pc.t_l1_hit, DistanceClass::Local, Some(v))
                    } else {
                        let out = shared.directory.access(
                            topo,
                            lat,
                            self.id,
                            Line::containing(addr),
                            false,
                            now,
                        );
                        if out.is_rmr {
                            self.stats.load_rmrs += 1;
                        }
                        (start + out.latency, out.distance, None)
                    };
                    if let Some(rec) = &mut self.spin {
                        rec.issued_load(forwarded.is_none() && distance == DistanceClass::Local);
                    }
                    let slot = self.rob.push_instr(false).expect("checked free()");
                    let id = self.next_load_id;
                    self.next_load_id += 1;
                    self.loads.push(LoadInFlight {
                        id,
                        seq,
                        rob_slot: slot,
                        addr,
                        done_at,
                        distance,
                        forwarded,
                        wants_value: use_value,
                        acquire,
                        rmw: None,
                    });
                    self.last_load = Some((id, done_at));
                    self.stats.loads += 1;
                    self.stats.issued += 1;
                    budget -= 1;
                    if acquire.is_acquire() {
                        self.acquire_gate = Some(id);
                    }
                    if use_value {
                        self.suspended_on = Some(id);
                    }
                }
                Op::Store {
                    addr,
                    value,
                    release,
                    dep_on_last_load,
                } => {
                    if self.memory_blocked(now) || self.rob.is_full() || !self.sb.has_space() {
                        self.pending_op = Some(op);
                        stall = if self.memory_blocked(now) {
                            let (cause, kind) = self.classify_memory_block(now);
                            Stall::Barrier(cause, kind)
                        } else if self.rob.is_full() {
                            self.classify_rob_full()
                        } else if self.sb.blocking_gate(now).is_some() {
                            // Store buffer full and its head cannot drain
                            // past a closed DMB st gate: barrier-caused.
                            Stall::Barrier(StallCause::SbFull, Barrier::DmbSt)
                        } else {
                            Stall::Resource
                        };
                        break;
                    }
                    let data_ready_at = if dep_on_last_load {
                        self.last_load.map_or(now, |(_, t)| t.max(now))
                    } else {
                        now
                    };
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    // Stores retire as soon as they sit in the buffer.
                    let _slot = self.rob.push_instr(true).expect("checked free()");
                    self.sb.push(SbEntry {
                        seq,
                        addr,
                        line: Line::containing(addr),
                        value,
                        release,
                        data_ready_at,
                        state: SbState::Pending,
                        drain_distance: None,
                    });
                    self.stats.stores += 1;
                    self.stats.issued += 1;
                    budget -= 1;
                }
                Op::Rmw {
                    addr,
                    kind,
                    operand,
                    acquire,
                    release,
                } => {
                    let release_ready =
                        !release || (self.sb.is_empty() && self.loads_done_before(Seq::MAX, now));
                    if self.memory_blocked(now) || self.rob.is_full() || !release_ready {
                        self.pending_op = Some(op);
                        stall = if self.memory_blocked(now) {
                            let (cause, kind) = self.classify_memory_block(now);
                            Stall::Barrier(cause, kind)
                        } else if self.rob.is_full() {
                            self.classify_rob_full()
                        } else {
                            // Release semantics: waiting for our own prior
                            // accesses to drain/complete, like an STLR.
                            Stall::Barrier(
                                StallCause::DrainWait(self.worst_outstanding_distance(now)),
                                Barrier::Stlr,
                            )
                        };
                        break;
                    }
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    let out = shared.directory.access(
                        topo,
                        lat,
                        self.id,
                        Line::containing(addr),
                        true,
                        now,
                    );
                    if out.is_rmr {
                        self.stats.store_rmrs += 1;
                    }
                    let slot = self.rob.push_instr(false).expect("checked free()");
                    let id = self.next_load_id;
                    self.next_load_id += 1;
                    self.loads.push(LoadInFlight {
                        id,
                        seq,
                        rob_slot: slot,
                        addr,
                        done_at: now + out.latency.max(pc.t_l1_hit),
                        distance: out.distance,
                        forwarded: None,
                        wants_value: true,
                        // Acquiring RMWs (LDADDA & co.) are RCsc.
                        acquire: if acquire { Acquire::Sc } else { Acquire::No },
                        rmw: Some(RmwInfo { kind, operand }),
                    });
                    if acquire {
                        self.acquire_gate = Some(id);
                    }
                    self.suspended_on = Some(id);
                    self.last_load = Some((id, now + out.latency));
                    self.stats.rmws += 1;
                    self.stats.issued += 1;
                    budget -= 1;
                }
                Op::WaitChange { addr, expect } => {
                    if shared.read(addr) == expect {
                        // Condition still holds against committed memory
                        // (deliberately ignoring own store-buffer forwarding:
                        // a WFE-style wait watches the coherent image). Park
                        // on the line's waiter list; the op stays pending and
                        // re-checks when a committed store wakes us, so a
                        // spurious wake simply re-parks.
                        shared
                            .directory
                            .park_waiter(Line::containing(addr), self.id);
                        self.pending_op = Some(op);
                        self.parked = true;
                        stall = Stall::Parked;
                        break;
                    }
                    // Value already moved on: observe it as a real load so
                    // the access pays coherence latency, takes the acquire-
                    // free suspension, and delivers the value to the thread.
                    self.pending_op = Some(Op::load_use(addr));
                    continue;
                }
                Op::Fence(Barrier::None) => {}
                Op::SpinMark => {
                    let point = self.mark_point(now, budget);
                    self.spin
                        .get_or_insert_with(Box::default)
                        .mark(self.id, point);
                }
                Op::Fence(Barrier::DmbSt) => {
                    if self.rob.is_full() {
                        self.pending_op = Some(op);
                        stall = self.classify_rob_full();
                        break;
                    }
                    // Lives in the store buffer as a gate; retires at once.
                    // push_gate accounts for both buffered stores and
                    // still-pending older gates when deciding whether the
                    // gate may take the cheap idle response.
                    let _slot = self.rob.push_instr(true).expect("checked free()");
                    self.sb.push_gate(self.next_seq);
                    self.next_seq += 1;
                    self.stats.fences += 1;
                    self.stats.issued += 1;
                    budget -= 1;
                }
                Op::Fence(Barrier::Isb) => {
                    if self.rob.is_full() {
                        self.pending_op = Some(op);
                        stall = self.classify_rob_full();
                        break;
                    }
                    let _slot = self.rob.push_instr(true).expect("checked free()");
                    self.issue_blocked_until = now + pc.t_isb_flush;
                    self.issue_block_kind = Barrier::Isb;
                    self.stats.fences += 1;
                    self.stats.issued += 1;
                    budget -= 1;
                    stall = Stall::Barrier(StallCause::ResponseWindow, Barrier::Isb);
                    break;
                }
                Op::Fence(kind) => {
                    // DMB full/ld, DSB full/st/ld, CTRL+ISB.
                    if self.pending_barrier.is_some() || self.rob.is_full() {
                        self.pending_op = Some(op);
                        stall = if self.pending_barrier.is_some() {
                            // Serialized behind the earlier barrier; charge
                            // whatever that one is waiting on.
                            let (cause, k) = self.classify_memory_block(now);
                            Stall::Barrier(cause, k)
                        } else {
                            self.classify_rob_full()
                        };
                        break;
                    }
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    let occupies = if matches!(kind, Barrier::DmbFull | Barrier::DmbLd) {
                        self.params_cache.dmb_holds_rob
                    } else {
                        kind.occupies_rob_until_response()
                    };
                    let slot = self.rob.push_instr(!occupies).expect("checked free()");
                    let waits_loads_now = self.loads.iter().any(|l| l.done_at > now);
                    let waits_stores_now = !self.sb.is_empty();
                    let mut b = PendingBarrier {
                        kind,
                        rob_slot: occupies.then_some(slot),
                        seq,
                        resp_at: None,
                        crossed_node: false,
                        had_priors: false,
                    };
                    b.had_priors = (b.waits_loads() && waits_loads_now)
                        || (b.waits_stores() && waits_stores_now);
                    // Seed scope from accesses already outstanding.
                    if b.waits_loads() {
                        for l in &self.loads {
                            if l.done_at > now && l.distance.crosses_node() {
                                b.crossed_node = true;
                            }
                        }
                    }
                    if b.waits_stores() {
                        for e in self.sb.entries() {
                            if e.drain_crossed_node() {
                                b.crossed_node = true;
                            }
                        }
                    }
                    self.pending_barrier = Some(b);
                    self.stats.fences += 1;
                    self.stats.issued += 1;
                    budget -= 1;
                }
            }
        }
        // The single charging point: a cycle counts as barrier-stalled only
        // if nothing at all issued, and it is charged to exactly one
        // (cause, kind). Observations can be sparse (the machine's run loop
        // jumps over dead cycles), so a continuing run charges the cycles
        // elapsed since it was last observed.
        if budget == pc.issue_width {
            if let Stall::Barrier(cause, kind) = stall {
                match self.stall_run {
                    Some(ref mut run) if run.cause == cause && run.kind == kind => {
                        let gap = now - run.charged_to;
                        run.charged_to = now;
                        self.stats.stall.charge(cause, kind, gap);
                    }
                    _ => {
                        self.end_stall_run(now, trace);
                        self.stall_run = Some(StallRun {
                            cause,
                            kind,
                            since: now,
                            charged_to: now,
                        });
                        self.stats.stall.charge(cause, kind, 1);
                        if trace.enabled {
                            trace.record(
                                now,
                                Event::StallBegin {
                                    core: self.id,
                                    cause: cause.label(),
                                    what: kind.mnemonic(),
                                },
                            );
                        }
                    }
                }
            } else {
                self.end_stall_run(now, trace);
            }
        } else {
            self.end_stall_run(now, trace);
        }
    }

    /// Close the open stall run, if any: charge the still-unaccounted tail
    /// up to the cycle *before* `now` (cycle `now` itself was observed to
    /// make progress or to stall for a different reason) and emit its trace
    /// slice. The tail charge makes the total charged to a run exactly
    /// `t_end - t_start` no matter how sparsely the run was observed, which
    /// is what lets the event-driven engine skip the intermediate cycles.
    fn end_stall_run(&mut self, now: Cycle, trace: &mut Trace) {
        if let Some(run) = self.stall_run.take() {
            let tail = now.saturating_sub(1).saturating_sub(run.charged_to);
            if tail > 0 {
                self.stats.stall.charge(run.cause, run.kind, tail);
            }
            if trace.enabled {
                trace.record(
                    now,
                    Event::StallEnd {
                        core: self.id,
                        cause: run.cause.label(),
                        what: run.kind.mnemonic(),
                        since: run.since,
                    },
                );
            }
        }
    }

    /// Charge any open stall run up to `last`, the final cycle this core
    /// was (or could have been) stalled in the run that just ended. Called
    /// by the machine when a run loop exits, so stall totals do not depend
    /// on how far past the stall the loop happened to observe the core.
    pub(crate) fn settle_stall_run(&mut self, last: Cycle) {
        if let Some(run) = &mut self.stall_run {
            let gap = last.saturating_sub(run.charged_to);
            if gap > 0 {
                self.stats.stall.charge(run.cause, run.kind, gap);
                run.charged_to = last;
            }
        }
    }

    /// Stamp the core's cycle count at run exit: a core that is still live
    /// (or halted with work in flight) at the run's last simulated cycle
    /// `last` was occupied through it, whether or not the engine happened
    /// to step it there.
    pub(crate) fn finalize_cycles(&mut self, last: Cycle) {
        if !(self.quiesced() && self.stats.halted_at.is_some()) {
            self.stats.cycles = self.stats.cycles.max(last + 1);
        }
    }

    /// Advance this core to (the end of) cycle `now`.
    pub fn step(
        &mut self,
        now: Cycle,
        topo: &Topology,
        lat: &LatencyParams,
        shared: &mut SharedState,
        trace: &mut Trace,
    ) {
        // Sample quiescence *before* the step: the step that performs the
        // quiesce transition still counts as an occupied cycle, and the
        // transition can only happen at a cycle where the core acts — so
        // both engines record the same final cycle count.
        let was_quiesced = self.quiesced();
        self.settle_nop_run(now.saturating_sub(1));
        self.complete_phase(now, shared, trace);
        self.drain_phase(now, topo, lat, shared);
        self.retire_phase();
        self.issue_phase(now, topo, lat, shared, trace);
        // A second drain attempt lets stores issued this cycle begin
        // draining immediately (store latency starts at issue).
        self.drain_phase(now, topo, lat, shared);
        if !(was_quiesced && self.stats.halted_at.is_some()) {
            self.stats.cycles = now + 1;
        }
        self.settled_to = now;
    }
}
