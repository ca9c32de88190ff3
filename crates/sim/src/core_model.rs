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
//!
//! A core is *observed* when [`Core::step`] runs one cycle of it, and an
//! engine need not observe every cycle. `pipeline` is the cycle itself,
//! `wake` says when the next one that matters comes — [`Core::next_wake`]
//! for the lockstep oracle, `Core::sleep` for the event engine — and `skip`
//! accounts for the cycles in between: `settled_to` is the single
//! watermark of what has been applied, `Core::catch_up` the single path
//! that moves it (`DESIGN.md` §10).

mod pipeline;
mod skip;
mod wake;

use armbar_fxhash::FxHashMap;

use armbar_barriers::{Acquire, Barrier};

use crate::directory::Directory;
use crate::op::{Op, RmwKind, SimThread, ThreadCtx};
use crate::platform::LatencyParams;
use crate::rob::{Rob, SlotId};
use crate::spin::SpinRecord;
use crate::stats::{CoreStats, StallCause};
use crate::storebuf::{Seq, StoreBuffer};
use crate::topology::Topology;
use crate::trace::Trace;
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
    /// Whether it waits for earlier loads, and for earlier stores:
    /// [`Barrier::waits_for`], read once at issue.
    waits_loads: bool,
    waits_stores: bool,
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

/// Why a core's next issue slot is refused (`Core::hold`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stall {
    /// Barrier-caused: charged to exactly one cause and one barrier kind.
    Barrier(StallCause, Barrier),
    /// Plain resource limit with no barrier behind it (uncharged).
    Resource,
    /// Suspended on a load or RMW value, or parked on a [`Op::WaitChange`]
    /// line: an idle workload wait, uncharged.
    Waiting,
    /// The workload halted.
    Halted,
}

impl Stall {
    /// Whether it refuses every issue slot, not just the next op's: the
    /// core waits or has halted, or a barrier that blocks all issue holds
    /// it (§2.3: DSB and ISB do; DMB blocks memory ops only).
    fn holds_all(self) -> bool {
        match self {
            Stall::Barrier(_, kind) => kind.blocks_issue_of_non_memory(),
            Stall::Resource => false,
            Stall::Waiting | Stall::Halted => true,
        }
    }
}

/// An open run of consecutive fully stalled cycles with one (cause, kind).
/// Every cycle of it is charged, the ones nobody stepped by
/// `Core::catch_up`.
#[derive(Debug, Clone, Copy)]
struct StallRun {
    cause: StallCause,
    kind: Barrier,
    /// Cycle the run began (for the trace slice).
    since: Cycle,
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
    /// The watermark: the cycle through which this core's state is current —
    /// its last step, or later once `Core::catch_up` has applied cycles
    /// nobody stepped.
    settled_to: Cycle,
    /// [`Core::step`]s taken, replays of a parked poller's tail included.
    steps: u64,
    /// The marked poll loop this core is in or was last in, created at its
    /// first [`Op::SpinMark`] and reused: a core that never spins carries a
    /// null pointer.
    spin: Option<Box<SpinRecord>>,
    ctx: ThreadCtx,
    stats: CoreStats,
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

impl CoreParams {
    /// Whether a pending barrier of `kind` holds its ROB slot until its
    /// response, so that a long run of later instructions fills the ROB
    /// behind it (Figure 4, Observation 2): a DSB always, DMB full and DMB
    /// ld while `dmb_holds_rob`, CTRL+ISB never.
    fn holds_rob(&self, kind: Barrier) -> bool {
        match kind {
            Barrier::DsbFull | Barrier::DsbSt | Barrier::DsbLd => true,
            Barrier::DmbFull | Barrier::DmbLd => self.dmb_holds_rob,
            _ => false,
        }
    }
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
            steps: 0,
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

    /// [`Core::step`] invocations so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Whether the core is parked on a [`Op::WaitChange`] line.
    #[must_use]
    pub fn parked(&self) -> bool {
        self.parked
    }

    /// Advance this core to (the end of) cycle `now`, in `shared`.
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
        self.catch_up(now.saturating_sub(1), topo, lat, shared, trace);
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
        self.steps += 1;
    }
}
