//! The machine: cores + shared coherence state + the run loops.
//!
//! Two scheduling engines drive the same cores:
//!
//! * [`Engine::LockstepOracle`] is the reference loop: every active core is
//!   stepped at every observed cycle, and time jumps over the cycles in
//!   which stepping any core would be a no-op ([`Core::next_wake`]'s
//!   *heartbeat* contract). It steps every cycle in which anything retires
//!   or issues, and is what the differential suites hold the event engine
//!   to.
//! * [`Engine::EventDriven`] (the default) keeps a lazy-deletion min-heap of
//!   `(wake cycle, core id)` events, packed into one word each
//!   (`wake_key`), and steps **only** the cores whose wake
//!   arrived. After each step it asks the core one question, `Core::sleep`:
//!   the cycle of its next *event* — retirement and the pushing of nops are
//!   bookkeeping the core applies when it is next looked at
//!   (`Core::catch_up`), not events — or nothing at all, for a core parked
//!   on a [`WaitChange`](crate::op::Op::WaitChange) line, which the
//!   directory wakes when another core writes the line. A core parked in a
//!   settled poll loop ([`Op::SpinMark`](crate::op::Op::SpinMark)) is woken
//!   the same way, and keeps its store buffer's next event, before which
//!   the machine ends its spin. A thousand parked spinners cost nothing per
//!   simulated cycle.
//!
//! A run ends the same way under both: on the cycle after the one in which
//! every workload quiesced or the caller's condition fell, or exactly on its
//! cycle bound; and every active core is caught up through the run's last
//! cycle, so what a stopped machine reports does not depend on which cycles
//! its engine happened to step.
//!
//! Both engines are cycle-accurate and byte-deterministic: within a cycle,
//! cores step in id order — that order is the deterministic tie-break for
//! same-cycle coherence races (the oracle walks its cores in ascending id,
//! the heap yields equal-cycle events the same way). The soundness argument
//! for why the two engines are equivalent lives in `DESIGN.md` §10.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::core_model::{Core, SharedState};
use crate::op::SimThread;
use crate::platform::Platform;
use crate::stats::CoreStats;
use crate::trace::Trace;
use crate::types::{Addr, CoreId, Cycle};

/// Aggregate result of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStats {
    /// Cycles simulated.
    pub cycles: Cycle,
    /// Whether every workload halted (and quiesced) before the cycle limit.
    pub halted: bool,
}

/// Which scheduling engine drives the run loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Step only cores whose wake event arrived (the default).
    EventDriven,
    /// Step every active core at every observed cycle (the reference
    /// implementation the event engine is differentially tested against).
    LockstepOracle,
}

/// Sentinel for "no event scheduled" in the lazy-deletion bookkeeping.
const NEVER: Cycle = Cycle::MAX;

/// Low bits of a heap key that hold the core id.
const CORE_BITS: u32 = 16;

/// The heap key of a wake event: the cycle above the core id in one word,
/// so keys order exactly as `(cycle, core id)` pairs and compare in one
/// instruction.
fn wake_key(at: Cycle, c: CoreId) -> u64 {
    assert!(
        at >> (64 - CORE_BITS) == 0 && c >> CORE_BITS == 0,
        "wake key out of range: cycle {at}, core {c}"
    );
    at << CORE_BITS | c as u64
}

/// A simulated machine.
pub struct Machine {
    platform: Platform,
    cores: Vec<Core>,
    /// Ids of cores that have workloads attached, ascending.
    active: Vec<CoreId>,
    shared: SharedState,
    now: Cycle,
    /// Machine-wide event trace (disabled unless
    /// [`Machine::enable_trace`] is called).
    trace: Trace,
    engine: Engine,
    /// Pending wake events as [`wake_key`]s, min-ordered by `(cycle, core
    /// id)`. Lazy deletion: an entry is live iff it matches
    /// `scheduled[core]`.
    heap: BinaryHeap<Reverse<u64>>,
    /// The single live wake cycle per core (`NEVER` = none). Superseded
    /// heap entries are dropped when popped.
    scheduled: Vec<Cycle>,
    /// Scratch for the cores woken in the current cycle (kept across runs
    /// so the event loop never allocates in steady state).
    batch: Vec<CoreId>,
    /// The image `Core::catch_up` replays the tail of a spin against: lines
    /// parked pollers hold, with the values they last saw.
    frozen: SharedState,
}

impl Machine {
    /// A machine with all of the platform's cores, none running anything.
    #[must_use]
    pub fn new(platform: Platform) -> Machine {
        let core_count = platform.topology.core_count();
        let cores = (0..core_count)
            .map(|id| Core::new(id, &platform.latency))
            .collect();
        Machine {
            platform,
            cores,
            active: Vec::new(),
            shared: SharedState::default(),
            now: 0,
            trace: Trace::default(),
            engine: Engine::EventDriven,
            heap: BinaryHeap::new(),
            scheduled: vec![NEVER; core_count],
            batch: Vec::new(),
            frozen: SharedState::default(),
        }
    }

    /// Select the scheduling engine for subsequent runs.
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// Total number of `Core::step` invocations so far (all runs) — the
    /// engine-quality metric (cycles simulated per core actually stepped)
    /// benchmarks gate.
    #[must_use]
    pub fn steps_executed(&self) -> u64 {
        self.cores.iter().map(Core::steps).sum()
    }

    /// Total number of poll-loop periods the event engine applied in closed
    /// form instead of stepping through (all runs; always 0 under the
    /// oracle).
    #[must_use]
    pub fn spin_periods_skipped(&self) -> u64 {
        self.cores.iter().map(Core::spin_periods_skipped).sum()
    }

    /// One core, for its own counts ([`Core::steps`],
    /// [`Core::spin_periods_skipped`]).
    #[must_use]
    pub fn core(&self, core: CoreId) -> &Core {
        &self.cores[core]
    }

    /// Switch on event tracing with a ring of `capacity` events; all cores
    /// record into one trace (the exporter keys tracks by core id, and
    /// tracks are allocated lazily — only cores that actually record
    /// appear).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Trace::new(capacity);
        self.trace.enabled = true;
    }

    /// The machine's event trace (empty unless enabled).
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Take the trace out of the machine (leaves a disabled default).
    pub fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.trace)
    }

    /// The platform this machine models.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Attach a workload to a specific core. Returns the core id.
    ///
    /// # Panics
    ///
    /// Panics if the core id is out of range or already busy.
    pub fn add_thread_on(&mut self, core: CoreId, thread: Box<dyn SimThread>) -> CoreId {
        assert!(core < self.cores.len(), "core {core} out of range");
        assert!(
            !self.cores[core].has_thread(),
            "core {core} already has a thread"
        );
        self.cores[core].attach(thread);
        // Ascending, whatever the attach order: the oracle walks this list
        // and must break same-cycle ties the way the event heap does.
        let at = self.active.partition_point(|&c| c < core);
        self.active.insert(at, core);
        core
    }

    /// Declare that untouched lines in `[start, end)` behave as if last
    /// written by `home` (see
    /// [`Directory::set_region_home`](crate::directory::Directory::set_region_home)).
    pub fn set_region_home(&mut self, start: Addr, end: Addr, home: CoreId) {
        self.shared.directory.set_region_home(start, end, home);
    }

    /// Pre-set a memory cell before the run.
    pub fn preset_memory(&mut self, addr: Addr, value: u64) {
        self.shared.write(addr, value);
    }

    /// Read the committed value of a cell (post-run assertions).
    #[must_use]
    pub fn read_memory(&self, addr: Addr) -> u64 {
        self.shared.read(addr)
    }

    /// Statistics of one core.
    #[must_use]
    pub fn core_stats(&self, core: CoreId) -> &CoreStats {
        self.cores[core].stats()
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    fn step_all(&mut self) {
        let topo = &self.platform.topology;
        let lat = &self.platform.latency;
        for &id in &self.active {
            self.cores[id].step(self.now, topo, lat, &mut self.shared, &mut self.trace);
        }
    }

    fn all_quiesced(&self) -> bool {
        self.active.iter().all(|&id| self.cores[id].quiesced())
    }

    /// Unpark every core whose watched line received a committed store this
    /// cycle and (in the event engine) schedule it one cycle later. The
    /// uniform wake-at-`t + 1` rule keeps both engines identical no matter
    /// how writer and waiter ids are ordered within the cycle.
    fn drain_wakes(&mut self, now: Cycle, reschedule: bool) {
        if self.shared.pending_wakes.is_empty() {
            return;
        }
        let mut wakes = std::mem::take(&mut self.shared.pending_wakes);
        for &c in &wakes {
            // (A poller that parked on several lines stays listed on those
            // that did not end its spin; such an entry names a running core.)
            if !self.cores[c].parked() {
                continue;
            }
            self.cores[c].unpark(
                now,
                &self.platform.topology,
                &self.platform.latency,
                &mut self.frozen,
                &mut self.trace,
            );
            if reschedule {
                self.schedule(c, now + 1);
            }
        }
        wakes.clear();
        self.shared.pending_wakes = wakes;
    }

    /// Register (or tighten) core `c`'s wake event. Later-than-scheduled
    /// requests are ignored — the earlier step re-computes its wake anyway —
    /// so each core has exactly one live heap entry and superseded ones are
    /// dropped lazily when popped.
    fn schedule(&mut self, c: CoreId, at: Cycle) {
        if at < self.scheduled[c] {
            self.scheduled[c] = at;
            self.heap.push(Reverse(wake_key(at, c)));
        }
    }

    /// The oracle's time jump: advance to the earliest wake, clamped so a
    /// stale wake (`<= now`) still moves time forward by a full cycle and no
    /// wake takes it past the bound; an empty candidate set jumps straight
    /// to the bound, so the loop exits in O(1) steps instead of crawling
    /// there one cycle at a time.
    fn resolve_jump(min_wake: Option<Cycle>, now: Cycle, limit: Cycle) -> Cycle {
        min_wake.map_or(limit, |t| t.max(now + 1).min(limit))
    }

    /// Bring core `id` up to date through cycle `upto` (`Core::catch_up`); a
    /// poller parked in its loop leaves it.
    fn catch_up(&mut self, id: CoreId, upto: Cycle) {
        if self.cores[id].spin_parked() {
            self.shared.directory.spin_parked -= 1;
        }
        self.cores[id].catch_up(
            upto,
            &self.platform.topology,
            &self.platform.latency,
            &mut self.frozen,
            &mut self.trace,
        );
    }

    /// Run exit, the same for both engines: every active core is caught up
    /// through the run's last cycle, `now - 1` — quiet runs applied, open
    /// stall runs charged, cycle counts stamped, nobody left parked in a
    /// poll loop — so totals do not depend on which cycles the engine
    /// observed, and the next run seeds every core alike.
    fn finalize(&mut self) {
        let Some(last) = self.now.checked_sub(1) else {
            return;
        };
        for i in 0..self.active.len() {
            self.catch_up(self.active[i], last);
        }
        debug_assert!(self.shared.directory.spin_parked == 0, "spin count leaked");
    }

    /// Run until every workload halts and quiesces, or `max_cycles` elapse:
    /// a run that reaches its bound ends exactly on it.
    pub fn run(&mut self, max_cycles: Cycle) -> RunStats {
        self.run_while(max_cycles, |_| true)
    }

    /// Run until `core` has completed `iterations` marked iterations (or
    /// everything halts / the cycle limit is hit).
    pub fn run_until_iterations(
        &mut self,
        core: CoreId,
        iterations: u64,
        max_cycles: Cycle,
    ) -> RunStats {
        self.run_while(max_cycles, |m| {
            m.cores[core].stats().iterations < iterations
        })
    }

    fn run_while(&mut self, max_cycles: Cycle, keep_going: impl Fn(&Machine) -> bool) -> RunStats {
        let limit = self.now.saturating_add(max_cycles);
        match self.engine {
            Engine::EventDriven => self.run_event(limit, keep_going),
            Engine::LockstepOracle => self.run_lockstep(limit, keep_going),
        }
        self.finalize();
        RunStats {
            cycles: self.now,
            halted: self.all_quiesced(),
        }
    }

    /// The reference loop: step every active core at every observed cycle,
    /// jumping over cycles where no core has anything to do.
    fn run_lockstep(&mut self, limit: Cycle, keep_going: impl Fn(&Machine) -> bool) {
        while self.now < limit {
            let t = self.now;
            self.step_all();
            self.drain_wakes(t, false);
            if self.all_quiesced() || !keep_going(self) {
                self.now = t + 1;
                return;
            }
            let next = self
                .active
                .iter()
                .filter_map(|&id| self.cores[id].next_wake(t))
                .min();
            self.now = Self::resolve_jump(next, t, limit);
        }
    }

    /// The earliest live wake event, discarding superseded heap entries. A
    /// stale wake in the past must never rewind time: it is re-aimed at the
    /// current cycle instead (defensive — `schedule` clamps at the call
    /// sites, but the invariant is cheap to enforce here). Inlined: the
    /// event loop asks twice per step, and a call costs it a tenth of a
    /// dense single-core run.
    #[inline(always)]
    fn next_event(&mut self) -> Option<(Cycle, CoreId)> {
        loop {
            let &Reverse(key) = self.heap.peek()?;
            let (at, c) = (key >> CORE_BITS, (key & ((1 << CORE_BITS) - 1)) as CoreId);
            if self.scheduled[c] != at {
                self.heap.pop();
            } else if at < self.now {
                self.heap.pop();
                self.scheduled[c] = NEVER;
                self.schedule(c, self.now);
            } else {
                return Some((at, c));
            }
        }
    }

    /// End the spins that core `w`'s step at cycle `t` disturbed: every
    /// parked poller whose copy of a polled line that step invalidated
    /// (drain start, RMW) or whose polled line it committed to is caught up
    /// to just before `(t, w)` in `(cycle, core id)` order — the order both
    /// engines step in — so a poller with a lower id has taken its step of
    /// cycle `t` and one with a higher id will take it next, after `w`.
    /// Called while any poller is parked. Out of line: the event loop of a
    /// machine that polls nothing pays one test for it.
    #[inline(never)]
    fn end_spins(&mut self, t: Cycle, w: CoreId) {
        let mut invalidated = std::mem::take(&mut self.shared.directory.invalidated);
        // The committed lines' `WaitChange` waiters stay listed for
        // `drain_wakes`, which wakes them when the cycle ends.
        let committed = std::mem::take(&mut self.shared.pending_wakes);
        for &s in invalidated.iter().chain(&committed) {
            if self.cores[s].spin_parked() {
                let reach = if s < w { t } else { t - 1 };
                self.catch_up(s, reach);
                if let Some(wake) = self.cores[s].skip_wake() {
                    self.schedule(s, wake);
                }
            }
        }
        invalidated.clear();
        self.shared.directory.invalidated = invalidated;
        self.shared.pending_wakes = committed;
    }

    /// The event-driven loop: pop the earliest wake events and step exactly
    /// those cores. Relies on `Core::sleep`'s skip contract — between a
    /// core's own wake events nothing observable about it can change
    /// (stepping it would be a no-op, or a cycle `Core::catch_up` applies
    /// later) — and on the directory for parked cores: one parked on a
    /// `WaitChange` line is woken by a commit to it, one parked in a settled
    /// poll loop by a commit or an exclusive access to a polled line, or by
    /// its own store-buffer event. While a poller is parked, events are
    /// popped one `(cycle, core id)` at a time, so that one resumed by a
    /// lower-numbered core still takes its step of that cycle, in its turn.
    fn run_event(&mut self, limit: Cycle, keep_going: impl Fn(&Machine) -> bool) {
        if self.active.is_empty() {
            // Like the oracle: an empty machine quiesces in one tick.
            self.now = (self.now + 1).min(limit);
            return;
        }
        // Seed: every active core is observed at the entry cycle, exactly
        // like the oracle's first `step_all` (stale heap entries from an
        // earlier run are superseded and dropped lazily).
        for i in 0..self.active.len() {
            self.schedule(self.active[i], self.now);
        }
        let mut quiesced = self
            .active
            .iter()
            .filter(|&&id| self.cores[id].quiesced())
            .count();
        let mut batch = std::mem::take(&mut self.batch);
        loop {
            // The heap yields equal-cycle events in ascending core id — the
            // deterministic tie-break. `event` is the cycle's next one, while
            // it has one.
            let mut event = self.next_event();
            let Some((t, _)) = event.filter(|&(at, _)| at < limit) else {
                // Nothing is due before the bound: the run ends on it.
                self.now = limit;
                break;
            };
            self.now = t;
            while let Some((_, first)) = event.filter(|&(at, _)| at == t) {
                // A step can put one more event into this very cycle only by
                // resuming a poller that was parked before it: while any is
                // parked the events are taken one at a time; with none
                // parked the rest of the cycle is known and popped in one
                // go, which keeps the heap out of the stepped cores' way in
                // the cache.
                let one_at_a_time = self.shared.directory.spin_parked > 0;
                batch.clear();
                let mut c = first;
                loop {
                    self.heap.pop();
                    self.scheduled[c] = NEVER;
                    batch.push(c);
                    if one_at_a_time {
                        break;
                    }
                    event = self.next_event();
                    match event {
                        Some((at, another)) if at == t => c = another,
                        _ => break,
                    }
                }
                for &id in &batch {
                    if self.shared.directory.spin_parked > 0 && self.cores[id].spin_parked() {
                        // Its own event, a store buffer's, ends its spin first.
                        self.catch_up(id, t - 1);
                    }
                    let was_quiesced = self.cores[id].quiesced();
                    self.cores[id].step(
                        t,
                        &self.platform.topology,
                        &self.platform.latency,
                        &mut self.shared,
                        &mut self.trace,
                    );
                    match (was_quiesced, self.cores[id].quiesced()) {
                        (false, true) => quiesced += 1,
                        (true, false) => quiesced -= 1,
                        _ => {}
                    }
                    if self.shared.directory.spin_parked > 0 {
                        self.end_spins(t, id);
                    }
                    if let Some(w) = self.cores[id].sleep(t, &mut self.shared) {
                        self.schedule(id, w);
                    }
                }
                if one_at_a_time {
                    event = self.next_event();
                }
            }
            // Stores committed this cycle wake their line's parked waiters
            // one cycle later.
            self.drain_wakes(t, true);
            if quiesced == self.active.len() || !keep_going(self) {
                self.now = t + 1;
                break;
            }
        }
        self.batch = batch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;
    use crate::stats::StallCause;
    use crate::trace::Event;
    use crate::types::DistanceClass;
    use crate::Script;
    use armbar_barriers::Barrier;

    /// A thread that issues `ops` in order, then halts.
    fn script(ops: Vec<Op>) -> Box<dyn SimThread> {
        Box::new(Script::new(|cpu| async move {
            for op in ops {
                cpu.op(op).await;
            }
        }))
    }

    /// An `LDAR` whose value the thread consumes.
    fn ldar(addr: u64) -> Op {
        Op::Load {
            addr,
            use_value: true,
            acquire: armbar_barriers::Acquire::Sc,
            dep_on_last_load: false,
        }
    }

    #[test]
    fn store_then_load_roundtrips_through_memory() {
        let mut m = Machine::new(Platform::raspberry_pi4());
        m.add_thread_on(
            0,
            script(vec![
                Op::store(0x100, 77),
                Op::Fence(Barrier::DmbFull),
                Op::load_use(0x100),
            ]),
        );
        let stats = m.run(100_000);
        assert!(stats.halted, "machine must quiesce");
        assert_eq!(m.read_memory(0x100), 77);
    }

    #[test]
    fn forwarding_returns_buffered_value_before_drain() {
        let mut m = Machine::new(Platform::kunpeng916());
        m.add_thread_on(0, script(vec![Op::store(0x200, 5), Op::load_use(0x200)]));
        let stats = m.run(100_000);
        assert!(stats.halted);
        assert_eq!(m.read_memory(0x200), 5);
    }

    #[test]
    fn message_passing_with_barriers_is_correct() {
        // Producer stores data then flag with DMB st between; consumer spins
        // on the flag then reads data after DMB ld. Must observe data = 23.
        let producer = script(vec![
            Op::store(0x1000, 23),
            Op::Fence(Barrier::DmbSt),
            Op::store(0x1040, 1),
        ]);
        let consumer = Script::new(|cpu| async move {
            while cpu.op(Op::load_use(0x1040)).await == 0 {}
            cpu.op(Op::Fence(Barrier::DmbLd)).await;
            let data = cpu.op(Op::load_use(0x1000)).await;
            cpu.op(Op::store(0x1080, data)).await;
        });
        let mut m = Machine::new(Platform::kunpeng916());
        m.add_thread_on(0, producer);
        m.add_thread_on(40, Box::new(consumer));
        let stats = m.run(1_000_000);
        assert!(stats.halted, "both threads must finish");
        assert_eq!(m.read_memory(0x1000), 23);
        assert_eq!(m.read_memory(0x1040), 1);
        assert_eq!(m.read_memory(0x1080), 23, "the consumer saw the data");
    }

    #[test]
    fn fetch_add_serializes_across_cores() {
        let adds = || script(vec![Op::fetch_add_acq_rel(0x3000, 1); 50]);
        let mut m = Machine::new(Platform::kunpeng916());
        m.add_thread_on(0, adds());
        m.add_thread_on(4, adds());
        m.add_thread_on(40, adds());
        let stats = m.run(10_000_000);
        assert!(stats.halted);
        assert_eq!(m.read_memory(0x3000), 150, "no lost updates");
    }

    #[test]
    fn iteration_marks_count() {
        let ops = vec![
            Op::IterationMark,
            Op::Nops(10),
            Op::IterationMark,
            Op::Nops(10),
            Op::IterationMark,
        ];
        let mut m = Machine::new(Platform::kirin960());
        m.add_thread_on(0, script(ops));
        m.run(100_000);
        assert_eq!(m.core_stats(0).iterations, 3);
    }

    #[test]
    fn run_until_iterations_stops_early() {
        let forever = Script::new(|cpu| async move {
            loop {
                cpu.op(Op::IterationMark).await;
            }
        });
        let mut m = Machine::new(Platform::kirin960());
        m.add_thread_on(0, Box::new(forever));
        let stats = m.run_until_iterations(0, 1000, 1_000_000);
        assert!(!stats.halted);
        assert!(m.core_stats(0).iterations >= 1000);
    }

    #[test]
    fn dsb_costs_more_than_dmb_than_nothing() {
        // Intrinsic cost (no memory ops): Observation 1 ordering.
        fn cycles_with(fence: Option<Barrier>) -> u64 {
            let mut ops = Vec::new();
            for _ in 0..200 {
                if let Some(f) = fence {
                    ops.push(Op::Fence(f));
                }
                ops.push(Op::Nops(10));
                ops.push(Op::IterationMark);
            }
            let mut m = Machine::new(Platform::kunpeng916());
            m.add_thread_on(0, script(ops));
            let s = m.run(10_000_000);
            assert!(s.halted);
            m.core_stats(0).cycles
        }
        let none = cycles_with(None);
        let dmb = cycles_with(Some(Barrier::DmbFull));
        let isb = cycles_with(Some(Barrier::Isb));
        let dsb = cycles_with(Some(Barrier::DsbFull));
        assert!(none <= dmb, "no-barrier {none} <= dmb {dmb}");
        assert!(dmb < isb, "dmb {dmb} < isb {isb}");
        assert!(isb < dsb, "isb {isb} < dsb {dsb}");
    }

    #[test]
    fn quiesced_machine_exits_in_constant_steps() {
        // A machine with no workloads is fully quiesced; running it with an
        // astronomically large cycle budget must return immediately (the
        // loop may not crawl O(max_cycles) one cycle at a time). The test
        // itself is the proof: at one step per cycle, 2^60 cycles would
        // never finish.
        let mut m = Machine::new(Platform::kunpeng916());
        let stats = m.run(1 << 60);
        assert!(stats.halted);
        assert!(stats.cycles <= 1, "empty machine must quiesce at once");

        // Same once workloads have halted: a re-run with a huge budget
        // returns in O(1), advancing time by exactly the quiesce tick.
        let mut m = Machine::new(Platform::kunpeng916());
        m.add_thread_on(0, script(vec![Op::store(0x100, 1)]));
        let first = m.run(1 << 60);
        assert!(first.halted);
        let again = m.run(1 << 60);
        assert!(again.halted);
        assert_eq!(again.cycles, first.cycles + 1);
    }

    fn assert_stall_invariants(m: &Machine, core: CoreId) {
        let s = m.core_stats(core);
        assert_eq!(
            s.stall.kind_total(),
            s.stall.total(),
            "per-kind stall cycles must sum exactly to the total"
        );
        assert!(
            s.stall.total() <= s.cycles,
            "stall {} cannot exceed lifetime {}",
            s.stall.total(),
            s.cycles
        );
    }

    #[test]
    fn stall_causes_sum_to_total_on_a_mixed_program() {
        let ops = vec![
            Op::store(0x100, 1),
            Op::Fence(Barrier::DmbFull),
            Op::load_use(0x100),
            Op::Fence(Barrier::DsbFull),
            Op::Nops(3),
            Op::store(0x140, 2),
            Op::Fence(Barrier::DmbSt),
            Op::store(0x180, 3),
            Op::Fence(Barrier::Isb),
            Op::fetch_add_acq_rel(0x1c0, 1),
            ldar(0x100),
            Op::store(0x200, 4),
        ];
        let mut m = Machine::new(Platform::kunpeng916());
        m.add_thread_on(0, script(ops));
        let stats = m.run(1_000_000);
        assert!(stats.halted);
        assert_stall_invariants(&m, 0);
        assert!(m.core_stats(0).stall.total() > 0, "barriers must stall");
    }

    #[test]
    fn dsb_stalls_are_response_window_cycles() {
        let mut ops = Vec::new();
        for _ in 0..20 {
            ops.push(Op::Fence(Barrier::DsbFull));
            ops.push(Op::Nops(2));
        }
        let mut m = Machine::new(Platform::kunpeng916());
        m.add_thread_on(0, script(ops));
        assert!(m.run(1_000_000).halted);
        assert_stall_invariants(&m, 0);
        let b = &m.core_stats(0).stall;
        let window = b.cause_counts()[StallCause::ResponseWindow.index()];
        assert!(window > 0, "DSB must charge its window");
        assert!(
            window >= b.total() / 2,
            "the window dominates an access-free DSB loop: {b:?}"
        );
        assert!(b.kind_count(Barrier::DsbFull) > 0);
    }

    #[test]
    fn dmb_after_remote_store_charges_drain_or_memory_block() {
        // Producer on node 0 writes a line homed on node 1, so the DMB full
        // behind it waits on a cross-node drain, then its domain response.
        let ops = vec![
            Op::store(0x100, 1),
            Op::Fence(Barrier::DmbFull),
            Op::store(0x140, 2),
        ];
        let mut m = Machine::new(Platform::kunpeng916());
        m.set_region_home(0x100, 0x180, 32);
        m.add_thread_on(0, script(ops));
        assert!(m.run(1_000_000).halted);
        assert_stall_invariants(&m, 0);
        let b = &m.core_stats(0).stall;
        let drain: u64 = DistanceClass::ALL
            .iter()
            .map(|&d| b.cause_counts()[StallCause::DrainWait(d).index()])
            .sum();
        assert!(
            drain + b.cause_counts()[StallCause::MemoryBlock.index()] > 0,
            "DMB behind a store must wait on the drain and/or response: {b:?}"
        );
        assert_eq!(
            b.kind_count(Barrier::DmbFull),
            b.total(),
            "only DMB charged"
        );
    }

    #[test]
    fn back_to_back_dmb_st_gates_serialize() {
        // Regression for the gate-open loop: a second DMB st placed while
        // the first gate is still pending must not take the cheap idle
        // response nor open before the older gate.
        fn cycles(gates: usize) -> u64 {
            let mut ops = vec![Op::store(0x100, 1)];
            for _ in 0..gates {
                ops.push(Op::Fence(Barrier::DmbSt));
            }
            ops.push(Op::store(0x140, 2));
            let mut m = Machine::new(Platform::kunpeng916());
            m.add_thread_on(0, script(ops));
            let s = m.run(1_000_000);
            assert!(s.halted);
            s.cycles
        }
        let one = cycles(1);
        let two = cycles(2);
        assert!(
            two > one,
            "second gate must serialize behind the first: {two} vs {one}"
        );
    }

    #[test]
    fn machine_trace_records_and_exports() {
        let ops = vec![
            Op::store(0x100, 9),
            Op::Fence(Barrier::DmbFull),
            Op::load_use(0x100),
            Op::IterationMark,
        ];
        let mut m = Machine::new(Platform::kunpeng916());
        m.enable_trace(1024);
        m.add_thread_on(0, script(ops));
        assert!(m.run(1_000_000).halted);
        assert!(!m.trace().is_empty(), "enabled trace must record");
        assert!(
            m.trace().events().any(|e| e.event
                == Event::BarrierDone {
                    core: 0,
                    what: "DMB full"
                }),
            "{:?}",
            m.trace().events().collect::<Vec<_>>()
        );
        let json = m.take_trace().to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("barrier-done:DMB full"), "{json}");
        assert!(m.trace().is_empty(), "take_trace leaves an empty default");
    }

    #[test]
    fn machine_and_platform_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Machine>();
        assert_send::<Platform>();
        assert_send::<RunStats>();
        // A script's body holds its `Cpu` and its locals across `.await`s.
        fn assert_send_value<T: Send>(_: &T) {}
        assert_send_value(&Script::new(|cpu| async move {
            let v = cpu.op(Op::load_use(8)).await;
            cpu.op(Op::store(16, v)).await;
        }));
    }

    /// Same program, both engines: the full per-core statistics (stalls,
    /// cycle counts, issue counts), final memory and run outcome must match
    /// exactly. The grid-scale differential harness lives in the
    /// experiments crate; this is the in-crate smoke version.
    fn assert_engines_agree(mk: impl Fn() -> Machine, addrs: &[Addr]) {
        let mut ev = mk();
        ev.set_engine(Engine::EventDriven);
        let ev_stats = ev.run(10_000_000);
        let mut or = mk();
        or.set_engine(Engine::LockstepOracle);
        let or_stats = or.run(10_000_000);
        assert_eq!(ev_stats, or_stats, "run outcome must match");
        for id in 0..ev.platform().topology.core_count() {
            assert_eq!(
                ev.core_stats(id),
                or.core_stats(id),
                "core {id} stats must match"
            );
        }
        for &a in addrs {
            assert_eq!(ev.read_memory(a), or.read_memory(a), "memory at {a:#x}");
        }
        assert!(
            ev.steps_executed() <= or.steps_executed(),
            "event engine must never step more than the oracle: {} vs {}",
            ev.steps_executed(),
            or.steps_executed()
        );
    }

    #[test]
    fn engines_agree_on_a_mixed_barrier_program() {
        let mk = || {
            let ops = vec![
                Op::store(0x100, 1),
                Op::Fence(Barrier::DmbFull),
                Op::load_use(0x100),
                Op::Fence(Barrier::DsbFull),
                Op::Nops(3),
                Op::store(0x140, 2),
                Op::Fence(Barrier::DmbSt),
                Op::store(0x180, 3),
                Op::Fence(Barrier::Isb),
                Op::fetch_add_acq_rel(0x1c0, 1),
                ldar(0x100),
                Op::store(0x200, 4),
            ];
            let mut m = Machine::new(Platform::kunpeng916());
            m.set_region_home(0x100, 0x240, 32);
            m.add_thread_on(0, script(ops));
            m
        };
        assert_engines_agree(mk, &[0x100, 0x140, 0x180, 0x1c0, 0x200]);
    }

    #[test]
    fn engines_agree_on_contended_rmws() {
        let adds = || script(vec![Op::fetch_add_acq_rel(0x3000, 1); 20]);
        let mk = || {
            let mut m = Machine::new(Platform::kunpeng916());
            m.add_thread_on(0, adds());
            m.add_thread_on(4, adds());
            m.add_thread_on(40, adds());
            m
        };
        assert_engines_agree(mk, &[0x3000]);
    }

    /// A one-shot waiter for the parking tests: parks on `0x5000 != 0`,
    /// then publishes what it observed to `0x5100`.
    fn waiter() -> Box<dyn SimThread> {
        Box::new(Script::new(|cpu| async move {
            let seen = cpu.op(Op::wait_change(0x5000, 0)).await;
            cpu.op(Op::store(0x5100, seen)).await;
        }))
    }

    #[test]
    fn wait_change_parks_until_the_line_changes() {
        let mk = || {
            let mut m = Machine::new(Platform::kunpeng916());
            m.add_thread_on(1, waiter());
            // Writer dawdles, then redundantly re-commits the expected value
            // (a spurious wake: the waiter must re-park), then publishes.
            m.add_thread_on(
                40,
                script(vec![
                    Op::Nops(400),
                    Op::store(0x5000, 0),
                    Op::Fence(Barrier::DsbFull),
                    Op::store(0x5000, 9),
                ]),
            );
            m
        };
        let mut m = mk();
        let stats = m.run(10_000_000);
        assert!(stats.halted, "waiter must wake and halt");
        assert_eq!(m.read_memory(0x5100), 9, "waiter observes the new value");
        // Parked time is idle, not a barrier stall.
        assert_eq!(m.core_stats(1).stall.total(), 0, "{:?}", m.core_stats(1));
        assert_engines_agree(mk, &[0x5000, 0x5100]);
    }

    #[test]
    fn wait_change_on_an_already_changed_value_is_a_plain_load() {
        let mk = || {
            let mut m = Machine::new(Platform::kunpeng916());
            m.preset_memory(0x5000, 7);
            m.add_thread_on(1, waiter());
            m
        };
        let mut m = mk();
        assert!(m.run(1_000_000).halted);
        assert_eq!(m.read_memory(0x5100), 7);
        assert_engines_agree(mk, &[0x5000, 0x5100]);
    }

    #[test]
    #[should_panic(expected = "core 64 out of range")]
    fn add_thread_on_rejects_an_unknown_core() {
        let mut m = Machine::new(Platform::kunpeng916());
        m.add_thread_on(64, script(vec![]));
    }

    #[test]
    #[should_panic(expected = "core 3 already has a thread")]
    fn add_thread_on_rejects_a_busy_core() {
        let mut m = Machine::new(Platform::kunpeng916());
        m.add_thread_on(3, script(vec![]));
        m.add_thread_on(3, script(vec![]));
    }

    #[test]
    fn nop_runs_cost_one_step_and_settle_to_the_per_cycle_state() {
        // A store still draining when the nops start, then a long pure run.
        // Stopping at a cycle bound in the middle of it and resuming must
        // read exactly like the oracle's per-cycle stepping, at a handful
        // of steps instead of one per cycle.
        let mk = |engine| {
            let mut m = Machine::new(Platform::kunpeng916());
            m.set_engine(engine);
            m.add_thread_on(
                0,
                script(vec![
                    Op::store(0x100, 1),
                    Op::Nops(100_000),
                    Op::IterationMark,
                    Op::store(0x140, 2),
                ]),
            );
            m
        };
        let mut ev = mk(Engine::EventDriven);
        let mut or = mk(Engine::LockstepOracle);
        for budget in [10_000, 1, 7_777, 1 << 40] {
            assert_eq!(ev.run(budget), or.run(budget), "budget {budget}");
            assert_eq!(ev.now(), or.now(), "budget {budget}");
            assert_eq!(ev.core_stats(0), or.core_stats(0), "budget {budget}");
        }
        assert_eq!(ev.read_memory(0x140), 2);
        assert!(or.steps_executed() > 25_000, "{}", or.steps_executed());
        assert!(ev.steps_executed() < 300, "{}", ev.steps_executed());
    }

    #[test]
    fn quiet_runs_cost_no_step_and_settle_to_the_per_cycle_state() {
        // A many-core barrier waiter's round, twice: local work, an arrival
        // `fetch_add` the core is suspended on while the work retires, then
        // a prior-free `DMB ld` whose response arrives under the next
        // round's nops. Between the events — the RMW issuing and returning,
        // the fence issuing, the nop run ending — only the ROB moves, so
        // the event engine takes a step per event where the oracle takes
        // one per cycle, and a run stopped anywhere in between reads the
        // same.
        let mk = |engine| {
            let mut m = Machine::new(Platform::kunpeng916());
            m.set_engine(engine);
            m.set_region_home(0x3000, 0x3040, 40);
            let mut ops = Vec::new();
            for _ in 0..2 {
                ops.extend([
                    Op::Nops(120),
                    Op::fetch_add_acq_rel(0x3000, 1),
                    Op::Fence(Barrier::DmbLd),
                    Op::IterationMark,
                ]);
            }
            ops.push(Op::Nops(120));
            m.add_thread_on(0, script(ops));
            m
        };
        let mut ev = mk(Engine::EventDriven);
        let mut or = mk(Engine::LockstepOracle);
        for budget in [20, 1, 1, 9, 13, 1, 2, 1, 40, 1 << 40] {
            assert_eq!(ev.run(budget), or.run(budget), "budget {budget}");
            assert_eq!(ev.now(), or.now(), "budget {budget}");
            assert_eq!(ev.core_stats(0), or.core_stats(0), "budget {budget}");
        }
        assert_eq!(ev.read_memory(0x3000), 2);
        assert!(or.steps_executed() > 100, "{}", or.steps_executed());
        // Nine stops re-seed a step each; the program itself is a dozen.
        assert!(ev.steps_executed() < 30, "{}", ev.steps_executed());
    }

    /// Polls `addr` in a marked loop until it is non-zero, then publishes
    /// what it saw to `out`.
    fn marked_poller(addr: Addr, pad: u32, out: Addr) -> Box<dyn SimThread> {
        Box::new(Script::new(move |cpu| async move {
            let seen = loop {
                cpu.spin_mark().await;
                let v = cpu.op(Op::load_use(addr)).await;
                if v != 0 {
                    break v;
                }
                if pad > 0 {
                    cpu.op(Op::Nops(pad)).await;
                }
            };
            cpu.op(Op::store(out, seen)).await;
        }))
    }

    #[test]
    fn settled_poll_loops_cost_a_handful_of_steps_and_read_like_the_oracle() {
        // Pollers below and above the writer, which first touches the
        // neighbouring word (a wake that changes nothing they read), then
        // publishes. Stopping mid-spin at a cycle bound and resuming must
        // read exactly like the oracle's per-iteration polling.
        let mk = |engine| {
            let mut m = Machine::new(Platform::kunpeng916());
            m.set_engine(engine);
            m.add_thread_on(1, marked_poller(0x5000, 1, 0x5100));
            m.add_thread_on(40, marked_poller(0x5000, 0, 0x5140));
            m.add_thread_on(
                5,
                script(vec![
                    Op::Nops(20_000),
                    Op::store(0x5008, 3),
                    Op::Nops(20_000),
                    Op::fetch_add_acq_rel(0x5000, 7),
                ]),
            );
            m
        };
        let mut ev = mk(Engine::EventDriven);
        let mut or = mk(Engine::LockstepOracle);
        for budget in [5_000, 1, 3, 12_345, 1 << 40] {
            assert_eq!(ev.run(budget), or.run(budget), "budget {budget}");
            assert_eq!(ev.now(), or.now(), "budget {budget}");
            for core in [1, 5, 40] {
                assert_eq!(ev.core_stats(core), or.core_stats(core), "budget {budget}");
            }
        }
        assert_eq!(ev.read_memory(0x5100), 7);
        assert_eq!(ev.read_memory(0x5140), 7);
        assert!(or.steps_executed() > 40_000, "{}", or.steps_executed());
        assert!(ev.steps_executed() < 400, "{}", ev.steps_executed());
        assert!(ev.spin_periods_skipped() > 8_000);
        assert_eq!(or.spin_periods_skipped(), 0, "the oracle runs every poll");
    }

    #[test]
    fn marked_loops_park_with_store_buffer_work_in_flight() {
        // The poller enters its loop with (i) a store to a line a core on
        // the other node holds, still draining; (ii) a store behind a
        // `DMB st` gate behind such a store; (iii) an STLR behind one. It
        // parks while the buffer still holds them, is stepped at each of
        // the buffer's events, and must read exactly like the oracle.
        const FAR: Addr = 0x7000;
        let remote = Op::store(FAR, 1);
        let entries = [
            vec![remote],
            vec![remote, Op::Fence(Barrier::DmbSt), Op::store(0x7100, 2)],
            vec![remote, Op::store_release(0x7140, 3)],
        ];
        for entry in entries {
            let mk = |engine| {
                let mut m = Machine::new(Platform::kunpeng916());
                m.set_engine(engine);
                m.set_region_home(FAR, FAR + 64, 40);
                let entry = entry.clone();
                m.add_thread_on(
                    1,
                    Box::new(Script::new(move |cpu| async move {
                        // Warm the polled line first: the loop's loads hit.
                        cpu.op(Op::load_use(0x5000)).await;
                        for op in entry {
                            cpu.op(op).await;
                        }
                        let seen = loop {
                            cpu.spin_mark().await;
                            let v = cpu.op(Op::load_use(0x5000)).await;
                            if v != 0 {
                                break v;
                            }
                        };
                        cpu.op(Op::store(0x5100, seen)).await;
                    })),
                );
                m.add_thread_on(5, script(vec![Op::Nops(3_000), Op::store(0x5000, 7)]));
                m
            };
            let mut ev = mk(Engine::EventDriven);
            let mut or = mk(Engine::LockstepOracle);
            for budget in [160, 1, 97, 12_345, 1 << 40] {
                assert_eq!(ev.run(budget), or.run(budget), "{entry:?}, budget {budget}");
                assert_eq!(ev.now(), or.now(), "{entry:?}, budget {budget}");
                for core in [1, 5] {
                    assert_eq!(
                        ev.core_stats(core),
                        or.core_stats(core),
                        "{entry:?}, {budget}"
                    );
                }
                if budget == 160 {
                    assert_eq!(ev.read_memory(FAR), 0, "{entry:?}: drained before parking");
                    assert!(ev.spin_periods_skipped() > 0, "{entry:?}: never parked");
                }
            }
            for addr in [FAR, 0x7100, 0x7140, 0x5100] {
                assert_eq!(ev.read_memory(addr), or.read_memory(addr), "{entry:?}");
            }
            assert_eq!(ev.read_memory(0x5100), 7);
            assert!(ev.spin_periods_skipped() > 300, "{entry:?}");
            assert!(
                ev.steps_executed() < 60,
                "{entry:?}: {} steps",
                ev.steps_executed()
            );
        }
    }

    #[test]
    fn same_cycle_races_break_ties_by_core_id_whatever_the_attach_order() {
        // Four cores race one CAS(0 -> id) in the same cycle: the lowest id
        // must win under both engines, attached ascending or descending.
        for engine in [Engine::EventDriven, Engine::LockstepOracle] {
            for order in [[0, 1, 2, 3], [3, 2, 1, 0]] {
                let mut m = Machine::new(Platform::kunpeng916());
                m.set_engine(engine);
                for core in order {
                    m.add_thread_on(
                        core,
                        script(vec![Op::Rmw {
                            addr: 0x9000,
                            kind: crate::op::RmwKind::Cas { expected: 0 },
                            operand: core as u64 + 1,
                            acquire: true,
                            release: false,
                        }]),
                    );
                }
                assert!(m.run(1_000_000).halted);
                assert_eq!(m.read_memory(0x9000), 1, "{engine:?}, attached {order:?}");
            }
        }
    }

    #[test]
    fn parked_machine_with_no_writer_exits_in_constant_steps() {
        // A waiter nobody ever wakes: both engines must reach the (huge)
        // cycle bound without crawling — the run returning at all is the
        // proof, as in `quiesced_machine_exits_in_constant_steps`.
        for engine in [Engine::EventDriven, Engine::LockstepOracle] {
            let mut m = Machine::new(Platform::kunpeng916());
            m.set_engine(engine);
            m.add_thread_on(0, waiter());
            let stats = m.run(1 << 50);
            assert!(!stats.halted, "{engine:?}: a parked core is not quiesced");
            assert_eq!(stats.cycles, 1 << 50, "{engine:?}: ran to the bound");
        }
    }

    #[test]
    fn a_run_that_reaches_its_bound_ends_on_it_caught_up_and_resumes_seamlessly() {
        // What straddles the bound: a remote load the only core is suspended
        // on, a `DSB` draining a remote store and then waiting out its
        // window, and a parked `WaitChange` waiter whose writer is itself
        // suspended — in each, nothing steps for long stretches, so a bound
        // inside one is reached by neither engine's own events.
        type Case = (&'static str, fn() -> Machine);
        const CASES: [Case; 3] = [
            ("a remote load", || {
                let mut m = Machine::new(Platform::kunpeng916());
                m.set_region_home(0x100, 0x140, 40);
                let ops = vec![Op::Nops(3), Op::load_use(0x100), Op::store(0x200, 1)];
                m.add_thread_on(0, script(ops));
                m
            }),
            ("a DSB window", || {
                let mut m = Machine::new(Platform::kunpeng916());
                m.set_region_home(0x100, 0x140, 40);
                let ops = vec![
                    Op::store(0x100, 1),
                    Op::Fence(Barrier::DsbFull),
                    Op::store(0x200, 2),
                ];
                m.add_thread_on(0, script(ops));
                m
            }),
            ("a parked waiter", || {
                let mut m = Machine::new(Platform::kunpeng916());
                m.set_region_home(0x100, 0x140, 0);
                m.add_thread_on(1, waiter());
                let ops = vec![Op::load_use(0x100), Op::store(0x5000, 9)];
                m.add_thread_on(40, script(ops));
                m
            }),
        ];
        let observe = |m: &Machine| {
            let cores = [0, 1, 40].map(|c| m.core_stats(c).clone());
            (cores, [0x200, 0x5000, 0x5100].map(|a| m.read_memory(a)))
        };
        for (what, mk) in CASES {
            // The reference: the oracle one cycle at a time, which steps
            // every core in every cycle. `truth[n]` is the machine after
            // `n` cycles.
            let mut tick = mk();
            tick.set_engine(Engine::LockstepOracle);
            let mut truth = vec![observe(&tick)];
            while !tick.run(1).halted {
                truth.push(observe(&tick));
            }
            let end = truth.len() as Cycle;
            let finished = observe(&tick);
            assert!(end > 100, "{what}: {end} cycles straddle nothing");
            for engine in [Engine::EventDriven, Engine::LockstepOracle] {
                for n in 1..end {
                    let mut m = mk();
                    m.set_engine(engine);
                    let stopped = m.run(n);
                    let at = format!("{what}, {engine:?}, bound {n}");
                    assert_eq!(
                        (stopped.cycles, m.now(), stopped.halted),
                        (n, n, false),
                        "{at}"
                    );
                    assert!(observe(&m) == truth[n as usize], "{at}: not caught up");
                    let resumed = m.run(1 << 40);
                    assert_eq!((resumed.cycles, resumed.halted), (end, true), "{at}");
                    assert!(observe(&m) == finished, "{at}: the resumed run differs");
                }
            }
            if what == "a DSB window" {
                let stalled = |n: usize| truth[n].0[0].stall.total();
                let window = (1..truth.len()).filter(|&n| stalled(n) == stalled(n - 1) + 1);
                assert!(
                    window.count() > 100,
                    "a bound inside the stall is charged up to it"
                );
            }
        }
    }

    #[test]
    fn stale_wakes_never_stall_or_rewind_the_machine() {
        // The oracle's clamp, pinned: a wake at/before `now` still advances
        // time by a full cycle, and no wake at all jumps to the limit.
        assert_eq!(Machine::resolve_jump(Some(3), 10, 1000), 11);
        assert_eq!(Machine::resolve_jump(Some(10), 10, 1000), 11);
        assert_eq!(Machine::resolve_jump(Some(42), 10, 1000), 42);
        assert_eq!(Machine::resolve_jump(None, 10, 1000), 1000);

        // The event engine's equivalent: heap entries pointing into the
        // past (here injected directly; in the wild a defect in a core's
        // `next_wake`) are re-aimed at the current cycle, never rewinding
        // `now` nor wedging the loop.
        let mut m = Machine::new(Platform::kunpeng916());
        m.add_thread_on(
            0,
            script(vec![
                Op::store(0x100, 1),
                Op::Fence(Barrier::DmbFull),
                Op::load_use(0x100),
            ]),
        );
        let first = m.run(1_000_000);
        assert!(first.halted);
        m.heap.push(Reverse(wake_key(0, 0)));
        m.scheduled[0] = 0;
        let again = m.run(1 << 50);
        assert!(again.halted);
        assert_eq!(
            again.cycles,
            first.cycles + 1,
            "polluted heap must not stall the quiesce tick"
        );
        assert_eq!(m.read_memory(0x100), 1);
    }

    #[test]
    fn thousand_core_parked_spinners_cost_nothing() {
        // 1023 cores park on a line; core 0 works alone for a while, then
        // commits the wake-up store. The event engine must spend its steps
        // on core 0 and the single wake burst — not on re-polling spinners.
        let plat = Platform::manycore(1024);
        let mut m = Machine::new(plat);
        for c in 1..1024 {
            m.add_thread_on(c, waiter());
        }
        let mut ops = Vec::new();
        for _ in 0..50 {
            ops.push(Op::Nops(100));
            ops.push(Op::Fence(Barrier::DsbFull));
        }
        ops.push(Op::store(0x5000, 1));
        m.add_thread_on(0, script(ops));
        let stats = m.run(10_000_000);
        assert!(stats.halted, "all 1024 cores must finish");
        assert_eq!(m.read_memory(0x5100), 1, "waiters observed the store");
        // Budget: every core steps O(1) times (park, wake, publish, halt)
        // plus core 0's barrier chain — nowhere near cores × cycles.
        assert!(
            m.steps_executed() < 40_000,
            "parked spinners must not burn steps: {}",
            m.steps_executed()
        );
    }

    #[test]
    fn event_acceleration_preserves_results() {
        // A long DSB chain exercises the jump path; cycle counts must be
        // exactly reproducible.
        let mk = || {
            let ops = vec![
                Op::store(0x100, 1),
                Op::Fence(Barrier::DsbFull),
                Op::Nops(5),
                Op::store(0x140, 2),
                Op::Fence(Barrier::DsbFull),
                Op::load_use(0x100),
            ];
            let mut m = Machine::new(Platform::kunpeng916());
            m.add_thread_on(0, script(ops));
            let s = m.run(1_000_000);
            assert!(s.halted);
            s.cycles
        };
        assert_eq!(mk(), mk(), "determinism");
    }
}
