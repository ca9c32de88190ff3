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

    /// Cycles from the moment every prior access is done to the response.
    fn response_latency(&self, pc: &CoreParams) -> Cycle {
        match self.kind {
            Barrier::DmbFull => {
                if !self.had_priors {
                    pc.t_membar_idle
                } else if self.crossed_node {
                    pc.t_membar_domain
                } else {
                    pc.t_membar_bisection
                }
            }
            Barrier::DmbLd => 1,
            Barrier::DsbFull | Barrier::DsbSt | Barrier::DsbLd => pc.t_syncbar,
            Barrier::CtrlIsb => pc.t_isb_flush,
            other => unreachable!("{other} never becomes a pending barrier"),
        }
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

/// What a core does in the cycles between two of its own events — a *quiet
/// run*, in which only its ROB and its issue/retire counters move, by a
/// recurrence that needs no step ([`Core::quiet`]).
#[derive(Debug, Clone, Copy)]
enum Quiet {
    /// Issues nothing — suspended on a load or RMW value, or parked on a
    /// [`Op::WaitChange`] line — and retires what has completed.
    Idle,
    /// Pushes the nops it has left, and retires.
    Nops,
}

/// The cycles of a [`Quiet::Nops`] run that can be applied in bulk, and
/// their summed effect on the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NopRun {
    /// Whole cycles covered; the cycle after them is the first that may
    /// push the run's last nop (and so fetch the next op), finds the ROB
    /// full behind a pending barrier (a stall run opens), or lies past the
    /// requested horizon.
    cycles: Cycle,
    retired: u64,
    issued: u64,
}

/// Skipped stretches up to this long are recomputed cycle by cycle when a
/// settle path applies them with assertions live.
const CHECKED_GAP: Cycle = 256;

/// The earlier of `wake` and `t`.
fn sooner(wake: Option<Cycle>, t: Cycle) -> Option<Cycle> {
    Some(wake.map_or(t, |w| w.min(t)))
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
    /// later once [`Core::settle_quiet_run`] has applied skipped cycles.
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

    /// The next completion of what the core has in flight besides its
    /// pipeline and its pending barrier: a load or RMW finishing, a drain
    /// landing, a store's data becoming ready, a `DMB st` gate opening.
    fn in_flight_event(&self, now: Cycle) -> Option<Cycle> {
        let mut wake = None;
        for l in &self.loads {
            wake = sooner(wake, l.done_at.max(now + 1));
        }
        if let Some(t) = self.sb.next_event(now) {
            wake = sooner(wake, t);
        }
        // A DMB st gate placed with nothing older left to drain requests its
        // response at the very next step.
        if let Some(g) = self.sb.gates_iter().find(|g| g.open_at.is_none()) {
            if self.sb.drained_before(g.seq) {
                wake = sooner(wake, now + 1);
            }
        }
        wake
    }

    /// Whether a barrier forbids issuing anything at all at `now`: an ISB
    /// flush or a DSB-class response window, or a pending barrier of that
    /// class still waiting for its priors.
    fn blocked_all(&self, now: Cycle) -> bool {
        self.issue_blocked_until > now
            || self
                .pending_barrier
                .as_ref()
                .is_some_and(|b| b.blocks_all())
    }

    /// The core's next *event*: the earliest cycle after `now` whose step
    /// does more than retire completed instructions and push nops. `None`
    /// if nothing it has in flight will ever produce one.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
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
    /// [`Op::WaitChange`] line (in which case the machine wakes it through
    /// the directory waiter list when the line changes).
    ///
    /// The event engine asks [`Core::next_wake_skipping_nops`] instead.
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

    /// [`Core::next_wake`] under the event engine's weaker *skip* contract:
    /// between `now` and the returned cycle, stepping this core changes
    /// nothing another core or the run loop can observe, and the next
    /// `step` (or the machine's run-exit settle) brings the core to exactly
    /// the per-cycle state. Differs from the heartbeat only inside a quiet
    /// run (`Core::quiet`): retirement alone never wakes the core — one
    /// that issues nothing sleeps until its next event — and one pushing
    /// nops wakes at the cycle that ends the run, a real step because it
    /// may fetch the next op (or open a stall run), or at its next event if
    /// that comes first.
    #[must_use]
    pub fn next_wake_skipping_nops(&self, now: Cycle) -> Option<Cycle> {
        match self.quiet() {
            None => self.next_wake(now),
            Some(Quiet::Idle) => self.next_event(now),
            Some(Quiet::Nops) => {
                let horizon = self
                    .in_flight_event(now)
                    .map_or(Cycle::MAX, |event| event - now - 1);
                Some((now + 1).saturating_add(self.nop_run(now, horizon, true).cycles))
            }
        }
    }

    /// Whether, and how, the core is in a *quiet run*: until its next event
    /// ([`Core::next_event`]) a step only retires completed instructions
    /// and, in a [`Quiet::Nops`] run, pushes nops — state no other core
    /// reads, moved by a recurrence in ROB occupancy alone. No stall run is
    /// open in one: the step that suspended or parked the core, or pushed
    /// its first nop, closed it.
    fn quiet(&self) -> Option<Quiet> {
        // A core that never retires fills its ROB and wedges; step it.
        if self.params_cache.retire_width == 0 || self.stall_run.is_some() {
            return None;
        }
        if self.suspended_on.is_some() || self.parked {
            return Some(Quiet::Idle);
        }
        (self.nops_remaining > 0 && !self.blocked_all(self.settled_to)).then_some(Quiet::Nops)
    }

    /// The last cycle through which the lockstep oracle keeps stepping this
    /// core although it is in a quiet run (`None` outside one): while it
    /// has completed instructions to retire, and through every cycle of a
    /// nop run — up to the run's wake, which the event engine has on its
    /// heap.
    pub(crate) fn heartbeat_through(&self) -> Option<Cycle> {
        match self.quiet()? {
            Quiet::Idle => {
                let retiring = self
                    .rob
                    .completed_prefix()
                    .div_ceil(self.params_cache.retire_width);
                Some(self.settled_to + Cycle::from(retiring))
            }
            Quiet::Nops => Some(Cycle::MAX),
        }
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

    /// Iterate the per-cycle recurrence of a [`Quiet::Nops`] run — retire
    /// `min(retire_width, completed prefix)`, push
    /// `min(remaining, issue_width, free)` — over the cycles
    /// `from + 1 ..= from + horizon`, none of which holds an event other
    /// than the pending barrier's response, stopping before the cycle that
    /// would push the last nop or open a stall run. The response of a
    /// barrier that lets nops issue is part of the recurrence: in its cycle
    /// the barrier's ROB slot completes and the barrier is gone. With
    /// `leap`, once ROB occupancy reaches its fixed point the rest is one
    /// division; without, every cycle is walked — the reference the settle
    /// path checks short gaps against.
    fn nop_run(&self, from: Cycle, horizon: Cycle, leap: bool) -> NopRun {
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

    /// Apply the cycles `settled_to + 1 ..= upto` of a [`Quiet::Nops`] run
    /// (the pending barrier's response not among them) to the ROB and the
    /// counters.
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

    /// Apply the cycles `settled_to + 1 ..= upto` the event engine skipped,
    /// so the core reads exactly as if it had been stepped through them: by
    /// the skip contract they lie inside a quiet run and hold no event. A
    /// no-op when already current — in particular under the oracle, which
    /// never skips a cycle in which anything retires or issues.
    pub(crate) fn settle_quiet_run(&mut self, upto: Cycle, trace: &mut Trace) {
        if upto <= self.settled_to {
            return;
        }
        match self.quiet() {
            None => debug_assert!(
                self.params_cache.retire_width == 0 || self.rob.completed_prefix() == 0,
                "core {}: skipped cycles {}..={upto} with retirement pending",
                self.id,
                self.settled_to + 1
            ),
            Some(Quiet::Idle) => {
                debug_assert!(
                    self.next_event(self.settled_to).is_none_or(|e| e > upto),
                    "core {}: slept through an event before cycle {upto}",
                    self.id
                );
                let gap = upto - self.settled_to;
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
            Some(Quiet::Nops) => {
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

    /// Deliver a line-change wake at the end of cycle `now`: the core,
    /// parked through that cycle, re-checks its [`Op::WaitChange`]
    /// condition at its next step.
    pub(crate) fn unpark(&mut self, now: Cycle, trace: &mut Trace) {
        self.settle_quiet_run(now, trace);
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
        let priors_done = self
            .pending_barrier
            .as_ref()
            .is_some_and(|b| b.resp_at.is_none() && self.priors_done(b, now));
        if let Some(b) = &mut self.pending_barrier {
            if priors_done {
                let resp = now + b.response_latency(&pc);
                b.resp_at = Some(resp);
                if b.blocks_all() {
                    self.issue_blocked_until = resp;
                    self.issue_block_kind = b.kind;
                }
            }
            if b.resp_at.is_some_and(|t| t <= now) {
                self.barrier_responded(now, trace);
            }
        }
    }

    /// The pending barrier's response arrived at `now`: its ROB slot, if it
    /// held one, completes, and the barrier is gone.
    fn barrier_responded(&mut self, now: Cycle, trace: &mut Trace) {
        let b = self.pending_barrier.take().expect("a barrier is pending");
        if let Some(slot) = b.rob_slot {
            self.rob.complete(slot);
        }
        if trace.enabled {
            trace.record(
                now,
                Event::BarrierDone {
                    core: self.id,
                    what: b.kind.mnemonic(),
                },
            );
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
                    if !b.blocks_all() && self.priors_done(&b, now) {
                        // Nothing to wait for and nothing but memory ops to
                        // hold back: the next cycle would find the priors
                        // done and schedule the response, so it is known
                        // now, and the nops behind the barrier can run
                        // through it in closed form.
                        b.resp_at = Some(now + 1 + b.response_latency(&pc));
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
        self.settle_quiet_run(now.saturating_sub(1), trace);
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
