//! One cycle of a core — completions, drains, retirement, issue — and the
//! single point at which a barrier stall is charged.

use armbar_barriers::{AccessType, Acquire, Barrier};

use super::{Core, LoadInFlight, PendingBarrier, RmwInfo, SharedState, Stall, StallRun};
use crate::op::{Op, RmwKind};
use crate::platform::LatencyParams;
use crate::stats::StallCause;
use crate::storebuf::{SbEntry, SbState, Seq};
use crate::topology::Topology;
use crate::trace::{Event, Trace};
use crate::types::{Cycle, DistanceClass, Line};

impl Core {
    fn loads_done_before(&self, seq: Seq, now: Cycle) -> bool {
        self.loads.iter().all(|l| l.seq >= seq || l.done_at <= now)
    }

    /// Whether every prior access pending barrier `b` waits on has completed
    /// at `now`, so its response can be requested.
    pub(super) fn priors_done(&self, b: &PendingBarrier, now: Cycle) -> bool {
        (!b.waits_loads || self.loads_done_before(b.seq, now))
            && (!b.waits_stores || self.sb.drained_before(b.seq))
    }

    fn outstanding_loads(&self, now: Cycle) -> usize {
        self.loads.iter().filter(|l| l.done_at > now).count()
    }

    /// Farthest distance among the outstanding loads `load` selects and the
    /// draining stores `store` selects.
    fn worst_distance(
        &self,
        now: Cycle,
        load: impl Fn(&LoadInFlight) -> bool,
        store: impl Fn(&SbEntry) -> bool,
    ) -> DistanceClass {
        let loads = self.loads.iter().filter(|l| l.done_at > now && load(l));
        let stores = self.sb.entries().iter().filter(|e| store(e));
        loads
            .map(|l| l.distance)
            .chain(stores.filter_map(|e| e.drain_distance))
            .fold(DistanceClass::Local, DistanceClass::max)
    }

    /// What holds memory operations back at `now`, as the one cause charged
    /// for it; `None` if they may issue. Every modelled fence except DMB st
    /// (which lives in the store buffer as a gate, not here) orders
    /// *something* later, so subsequent memory ops wait for its response;
    /// an acquiring load holds them until it completes.
    fn memory_block(&self, now: Cycle) -> Option<(StallCause, Barrier)> {
        if let Some(b) = &self.pending_barrier {
            match b.resp_at {
                Some(t) if t <= now => {}
                // Response scheduled: waiting out the window. DSB-class
                // barriers that block all issue count as the DSB/ISB
                // window; DMB-class ones as the memory-block interval.
                Some(_) if b.blocks_all() => return Some((StallCause::ResponseWindow, b.kind)),
                Some(_) => return Some((StallCause::MemoryBlock, b.kind)),
                // Still waiting for the prior accesses it orders.
                None => {
                    let worst = self.worst_distance(
                        now,
                        |l| b.waits_loads && l.seq < b.seq,
                        |e| b.waits_stores && e.seq < b.seq,
                    );
                    return Some((StallCause::DrainWait(worst), b.kind));
                }
            }
        }
        // An acquire gate (LDAR/LDAPR): charge the flavour of the gating
        // load.
        let gate = self.acquire_gate?;
        let l = self
            .loads
            .iter()
            .find(|l| l.id == gate && l.done_at > now)?;
        let kind = l.acquire.barrier().unwrap_or(Barrier::Ldar);
        Some((StallCause::DrainWait(l.distance), kind))
    }

    /// Whether a full ROB refuses the slot: as a barrier stall only when a
    /// pending barrier is what keeps the head from retiring (Figure 4's nop
    /// throttling), otherwise as an uncharged resource limit.
    fn rob_full(&self) -> Option<Stall> {
        self.rob.is_full().then_some(match &self.pending_barrier {
            Some(b) => Stall::Barrier(StallCause::RobFull, b.kind),
            None => Stall::Resource,
        })
    }

    /// Why the core's next issue slot is refused at `now`, if it is: the
    /// one rule for what holds a core, which issue, stall charging and
    /// sleep all read (`DESIGN.md` §10.1). The first that applies, in
    /// order: parked on a [`Op::WaitChange`] line; inside an ISB or
    /// DSB-class response window; behind a barrier that blocks all issue
    /// and still waits for its priors; a nop batch in front of a full ROB;
    /// suspended on a load; halted; the pending op's own conditions
    /// (`Core::blocked`). `None` with no op pending: the next op may be
    /// fetched.
    pub(super) fn hold(&self, now: Cycle) -> Option<Stall> {
        if self.parked {
            return Some(Stall::Waiting);
        }
        let window = Stall::Barrier(StallCause::ResponseWindow, self.issue_block_kind);
        if self.issue_blocked_until > now {
            return Some(window);
        }
        let blocks_all = self.pending_barrier.as_ref().filter(|b| b.blocks_all());
        if let Some((cause, kind)) = blocks_all.and_then(|_| self.memory_block(now)) {
            return Some(Stall::Barrier(cause, kind));
        }
        if self.nops_remaining > 0 {
            return self.rob_full();
        }
        if self.suspended_on.is_some() {
            return Some(Stall::Waiting);
        }
        if self.halted {
            return Some(Stall::Halted);
        }
        self.pending_op
            .as_ref()
            .and_then(|op| self.blocked(op, now))
    }

    /// Why `op` cannot issue at `now`, if it cannot: the first of its
    /// conditions that fails, which is the one the cycle is charged to.
    fn blocked(&self, op: &Op, now: Cycle) -> Option<Stall> {
        let memory = || {
            self.memory_block(now)
                .map(|(cause, kind)| Stall::Barrier(cause, kind))
        };
        let rob = || self.rob_full();
        match *op {
            Op::Load { acquire, .. } => memory()
                // RCsc response-window wait: an LDAR may not perform while
                // an earlier STLR is still draining. The RCpc LDAPR (and
                // plain loads) skip this entirely — that is the whole
                // performance case for the downgrade.
                .or_else(|| {
                    let rcsc_wait =
                        acquire == Acquire::Sc && self.sb.entries().iter().any(|e| e.release);
                    rcsc_wait.then(|| {
                        let worst = self.worst_distance(now, |_| false, |e| e.release);
                        Stall::Barrier(StallCause::DrainWait(worst), Barrier::Ldar)
                    })
                })
                .or_else(rob)
                // MSHR limit: a plain resource, no barrier.
                .or_else(|| {
                    let mshrs = self.params_cache.max_outstanding_loads;
                    (self.outstanding_loads(now) as u32 >= mshrs).then_some(Stall::Resource)
                }),
            Op::Store { .. } => memory().or_else(rob).or_else(|| {
                // Store buffer full; if its head cannot drain past a closed
                // DMB st gate, that is barrier-caused.
                (!self.sb.has_space()).then(|| match self.sb.blocking_gate(now) {
                    Some(_) => Stall::Barrier(StallCause::SbFull, Barrier::DmbSt),
                    None => Stall::Resource,
                })
            }),
            Op::Rmw { release, .. } => memory().or_else(rob).or_else(|| {
                // Release semantics: waiting for our own prior accesses to
                // drain/complete, like an STLR.
                let ready = self.sb.is_empty() && self.loads_done_before(Seq::MAX, now);
                (release && !ready).then(|| {
                    let worst = self.worst_distance(now, |_| true, |_| true);
                    Stall::Barrier(StallCause::DrainWait(worst), Barrier::Stlr)
                })
            }),
            Op::IterationMark | Op::Fence(Barrier::DmbSt | Barrier::Isb) => rob(),
            Op::Fence(Barrier::None)
            | Op::Nops(_)
            | Op::Halt
            | Op::SpinMark
            | Op::WaitChange { .. } => None,
            // DMB full/ld, DSB full/st/ld, CTRL+ISB: serialized behind an
            // earlier pending barrier, charged whatever that one waits on.
            Op::Fence(_) => self
                .pending_barrier
                .as_ref()
                .and_then(|_| memory())
                .or_else(rob),
        }
    }

    /// Phase 1: completions — loads/RMWs finishing, drains landing,
    /// barrier/gate conditions resolving.
    pub(super) fn complete_phase(
        &mut self,
        now: Cycle,
        shared: &mut SharedState,
        trace: &mut Trace,
    ) {
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
            let waited = |b: &&mut PendingBarrier| b.waits_loads && l.seq < b.seq;
            if let Some(b) = self.pending_barrier.as_mut().filter(waited) {
                b.crossed_node |= l.distance.crosses_node();
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
            if e.drain_crossed_node() {
                for g in self.sb.gates_mut().filter(|g| e.seq < g.seq) {
                    g.crossed_node = true;
                }
                let waited = |b: &&mut PendingBarrier| b.waits_stores && e.seq < b.seq;
                if let Some(b) = self.pending_barrier.as_mut().filter(waited) {
                    b.crossed_node = true;
                }
            }
            if e.drain_was_rmr() {
                self.stats.store_rmrs += 1;
            }
        }

        // Open the oldest closed DMB st gate once its pre-gate stores have
        // all drained — only it: a younger gate must not sneak an
        // idle-scope response past it.
        let pc = self.params_cache;
        if let Some(i) = self.sb.requesting_gate() {
            let g = self.sb.gates_mut().nth(i).expect("the requesting gate");
            g.open_at = Some(if g.crossed_node {
                now + pc.t_membar_domain
            } else if g.had_priors {
                now + pc.t_membar_bisection
            } else {
                now + pc.t_membar_idle
            });
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
    pub(super) fn barrier_responded(&mut self, now: Cycle, trace: &mut Trace) {
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
    pub(super) fn drain_phase(
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
    pub(super) fn retire_phase(&mut self) {
        let n = self.rob.retire(self.params_cache.retire_width);
        self.stats.retired += u64::from(n);
    }

    /// Phase 4: issue up to `issue_width` instructions.
    pub(super) fn issue_phase(
        &mut self,
        now: Cycle,
        topo: &Topology,
        lat: &LatencyParams,
        shared: &mut SharedState,
        trace: &mut Trace,
    ) {
        let issue_width = self.params_cache.issue_width;
        let mut budget = issue_width;
        let mut stall = None;
        self.ctx.now = now;
        self.ctx.iterations = self.stats.iterations;
        while budget > 0 {
            stall = self.hold(now);
            if stall.is_some() {
                break;
            }
            // Finish a partially issued nop batch first.
            if self.nops_remaining > 0 {
                let pushed = self.rob.push_nops(self.nops_remaining.min(budget));
                self.nops_remaining -= pushed;
                self.stats.issued += u64::from(pushed);
                budget -= pushed;
                continue;
            }
            // Fetch the next operation; the next round asks whether it may
            // issue.
            let Some(op) = self.pending_op.take() else {
                let Some(thread) = &mut self.thread else {
                    break;
                };
                let op = thread.next(&mut self.ctx);
                if let Some(rec) = &mut self.spin {
                    rec.fetched(self.id, op);
                }
                self.pending_op = Some(op);
                continue;
            };
            match op {
                // The condition still holds against committed memory
                // (deliberately ignoring own store-buffer forwarding: a
                // WFE-style wait watches the coherent image). Park on the
                // line's waiter list; the op stays pending and re-checks
                // when a committed store wakes us, so a spurious wake simply
                // re-parks.
                Op::WaitChange { addr, expect } if shared.read(addr) == expect => {
                    shared
                        .directory
                        .park_waiter(Line::containing(addr), self.id);
                    self.pending_op = Some(op);
                    self.parked = true;
                }
                // Value already moved on: observe it as a real load so the
                // access pays coherence latency, takes the acquire-free
                // suspension, and delivers the value to the thread.
                Op::WaitChange { addr, .. } => self.pending_op = Some(Op::load_use(addr)),
                Op::SpinMark => {
                    let point = self.mark_point(now, budget);
                    self.spin
                        .get_or_insert_with(Box::default)
                        .mark(self.id, point);
                }
                // An ISB's flush window ends this cycle's issue at the next
                // round's hold.
                op => budget -= self.issue(op, now, topo, lat, shared, trace),
            }
        }
        // The single charging point: a cycle counts as barrier-stalled only
        // if nothing at all issued, and it is charged to exactly one
        // (cause, kind). The cycles of a run that nobody steps are charged
        // by `Core::catch_up`.
        let charged = match stall {
            Some(Stall::Barrier(cause, kind)) if budget == issue_width => Some((cause, kind)),
            _ => None,
        };
        if charged != self.stall_run.map(|run| (run.cause, run.kind)) {
            self.end_stall_run(now, trace);
            if let Some((cause, kind)) = charged {
                self.stall_run = Some(StallRun {
                    cause,
                    kind,
                    since: now,
                });
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
        if let Some((cause, kind)) = charged {
            self.stats.stall.charge(cause, kind, 1);
        }
    }

    /// Issue `op`, which nothing blocks, at `now`; the issue slots it took.
    fn issue(
        &mut self,
        op: Op,
        now: Cycle,
        topo: &Topology,
        lat: &LatencyParams,
        shared: &mut SharedState,
        trace: &mut Trace,
    ) -> u32 {
        let pc = self.params_cache;
        match op {
            Op::Nops(n) => {
                self.nops_remaining = n;
                return 0;
            }
            Op::Halt => {
                self.halted = true;
                self.stats.halted_at = Some(now);
                return 0;
            }
            Op::Fence(Barrier::None) => return 0,
            Op::WaitChange { .. } | Op::SpinMark => unreachable!("handled by the issue loop"),
            Op::IterationMark => {
                // The mark stands in for the loop-closing branch: one
                // issued instruction. Charging it also guarantees
                // forward progress for mark-only threads.
                self.rob.push_nops(1);
                self.stats.iterations += 1;
                self.ctx.iterations = self.stats.iterations;
                // Response time of this iteration: the gap since the
                // previous mark (or since cycle 0 for the first). Both
                // engines issue the mark at the same cycle, so the
                // histogram is engine-identical by the same argument as
                // the iteration counter itself.
                self.stats.latency.record(now - self.last_iteration_at);
                self.last_iteration_at = now;
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
            Op::Load {
                addr,
                use_value,
                acquire,
                dep_on_last_load,
            } => {
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
            }
            Op::Rmw {
                addr,
                kind,
                operand,
                acquire,
                ..
            } => {
                let seq = self.next_seq;
                self.next_seq += 1;
                let out =
                    shared
                        .directory
                        .access(topo, lat, self.id, Line::containing(addr), true, now);
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
            }
            Op::Fence(Barrier::DmbSt) => {
                // Lives in the store buffer as a gate; retires at once.
                // push_gate accounts for both buffered stores and
                // still-pending older gates when deciding whether the
                // gate may take the cheap idle response.
                let _slot = self.rob.push_instr(true).expect("checked free()");
                self.sb.push_gate(self.next_seq);
                self.next_seq += 1;
                self.stats.fences += 1;
            }
            Op::Fence(Barrier::Isb) => {
                let _slot = self.rob.push_instr(true).expect("checked free()");
                self.issue_blocked_until = now + pc.t_isb_flush;
                self.issue_block_kind = Barrier::Isb;
                self.stats.fences += 1;
            }
            Op::Fence(kind) => {
                // DMB full/ld, DSB full/st/ld, CTRL+ISB.
                let seq = self.next_seq;
                self.next_seq += 1;
                let holds_rob = pc.holds_rob(kind);
                let slot = self.rob.push_instr(!holds_rob).expect("checked free()");
                let waits_loads = kind.waits_for(AccessType::Load);
                let waits_stores = kind.waits_for(AccessType::Store);
                // Priors, and the scope they seed, from the accesses it
                // waits on that are already outstanding.
                let mut loads = self.loads.iter().filter(|l| waits_loads && l.done_at > now);
                let mut stores = self.sb.entries().iter().filter(|_| waits_stores);
                let mut b = PendingBarrier {
                    kind,
                    waits_loads,
                    waits_stores,
                    rob_slot: holds_rob.then_some(slot),
                    seq,
                    resp_at: None,
                    had_priors: loads.clone().next().is_some() || stores.clone().next().is_some(),
                    crossed_node: loads.any(|l| l.distance.crosses_node())
                        || stores.any(SbEntry::drain_crossed_node),
                };
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
            }
        }
        self.stats.issued += 1;
        1
    }

    /// Close the open stall run, if any (cycle `now` was observed to make
    /// progress or to stall for a different reason), emitting its trace
    /// slice.
    fn end_stall_run(&mut self, now: Cycle, trace: &mut Trace) {
        if let Some(run) = self.stall_run.take() {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;

    #[test]
    fn pending_barriers_wait_for_what_they_order_and_hold_the_rob_as_set() {
        // (kind, waits for earlier loads, for earlier stores, holds its ROB
        // slot with `dmb_holds_rob` on and off)
        let table = [
            (Barrier::DmbFull, true, true, [true, false]),
            (Barrier::DmbLd, true, false, [true, false]),
            (Barrier::DsbFull, true, true, [true, true]),
            (Barrier::DsbSt, false, true, [true, true]),
            (Barrier::DsbLd, true, false, [true, true]),
            (Barrier::CtrlIsb, true, false, [false, false]),
        ];
        let p = Platform::kunpeng916();
        for (kind, loads, stores, holds) in table {
            for (dmb_holds_rob, holds) in [true, false].into_iter().zip(holds) {
                let mut lat = p.latency.clone();
                lat.dmb_holds_rob = dmb_holds_rob;
                let mut core = Core::new(0, &lat);
                let (mut shared, mut trace) = (SharedState::default(), Trace::default());
                core.issue(
                    Op::Fence(kind),
                    0,
                    &p.topology,
                    &lat,
                    &mut shared,
                    &mut trace,
                );
                let b = core.pending_barrier.as_ref().expect("a pending barrier");
                assert_eq!(
                    (b.waits_loads, b.waits_stores, b.rob_slot.is_some()),
                    (loads, stores, holds),
                    "{kind} with dmb_holds_rob = {dmb_holds_rob}"
                );
            }
        }
    }
}
