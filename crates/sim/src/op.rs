//! The workload-to-core interface: operations and simulated threads.
//!
//! A workload is a [`SimThread`] the core polls for its next [`Op`] whenever
//! issue bandwidth is available — written as straight-line `async` code and
//! adapted by [`Script`](crate::script::Script). Two coupling levels
//! exist, mirroring real hardware:
//!
//! * **Fire-and-forget** ops ([`Op::Store`], value-unused [`Op::Load`],
//!   [`Op::Nops`]) are issued and the thread immediately continues — the
//!   core tracks their completion asynchronously, so independent work
//!   overlaps outstanding misses.
//! * **Value-consuming** ops (`Load` with `use_value`, [`Op::Rmw`]) suspend
//!   the thread until the data arrives; the value is then available via
//!   [`ThreadCtx::last_value`]. A suspended thread is exactly a data/control
//!   dependency in the pipeline.
//!
//! Dependency *idioms* (the paper's DATA/ADDR/CTRL deps) are expressed with
//! the `dep_on_last_load` flag: the flagged access may not begin before the
//! most recent load completes, but everything between them still flows.

use armbar_barriers::{Acquire, Barrier};

use crate::types::{Addr, Cycle};

/// Atomic read-modify-write flavours (single-instruction atomics à la
/// ARMv8.1 LSE: `LDADD`, `SWP`, `CAS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmwKind {
    /// Fetch-and-add: returns the old value, stores `old + operand`.
    FetchAdd,
    /// Swap: returns the old value, stores `operand`.
    Swap,
    /// Compare-and-swap: `operand` is the new value, `expected` the test;
    /// stores `operand` iff the old value equals `expected`. Returns the old
    /// value either way.
    Cas {
        /// Value the location must hold for the swap to happen.
        expected: u64,
    },
}

/// One operation a thread asks its core to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `n` independent single-cycle ALU instructions (nops, adds, …).
    Nops(u32),
    /// A load.
    Load {
        /// Target address.
        addr: Addr,
        /// Suspend the thread until the value is available (the program
        /// consumes it); otherwise fire-and-forget.
        use_value: bool,
        /// Acquire annotation: both flavours make later memory ops wait
        /// for this load; RCsc (`LDAR`) additionally waits for earlier
        /// store-releases to drain before issuing.
        acquire: Acquire,
        /// Address-dependency on the most recent load: this load may not
        /// begin before that load completes.
        dep_on_last_load: bool,
    },
    /// A store (fire-and-forget into the store buffer).
    Store {
        /// Target address.
        addr: Addr,
        /// Value to write.
        value: u64,
        /// Store-release (`STLR`): all earlier accesses must be globally
        /// visible before this store is.
        release: bool,
        /// Data/address-dependency on the most recent load.
        dep_on_last_load: bool,
    },
    /// Atomic read-modify-write; always suspends for the old value.
    Rmw {
        /// Target address.
        addr: Addr,
        /// Operation.
        kind: RmwKind,
        /// Operand (addend / new value).
        operand: u64,
        /// Acquire semantics on the load half.
        acquire: bool,
        /// Release semantics on the store half.
        release: bool,
    },
    /// A standalone barrier instruction (`Barrier::INSTRUCTIONS`, or
    /// `Barrier::CtrlIsb` to model the CTRL+ISB idiom's ISB; `Barrier::None`
    /// is a no-op).
    Fence(Barrier),
    /// Wait until the committed value at `addr` differs from `expect`.
    ///
    /// If the value already differs when the op issues, this behaves exactly
    /// like [`Op::load_use`]: a real coherence access whose value reaches the
    /// thread via [`ThreadCtx::last_value`]. Otherwise the core *parks*: it
    /// registers on the line's directory waiter list and issues nothing
    /// until another core commits a store to that line (a WFE/monitor-style
    /// wait, or an ideal spin whose repeat polls are free local hits). On
    /// wake-up the condition is re-checked against committed memory, so
    /// spurious wakes re-park. Parked time is idle, not a barrier stall.
    WaitChange {
        /// Watched address.
        addr: Addr,
        /// Value the thread wants to stop seeing.
        expect: u64,
    },
    /// Zero-cost marker: the thread completed one iteration of the measured
    /// loop (increments
    /// [`CoreStats::iterations`](crate::stats::CoreStats::iterations)).
    IterationMark,
    /// Zero-cost marker at the top of a *pure* poll loop: no ROB entry, no
    /// issue slot, no statistic. It declares that until the next mark the
    /// op stream is a function of the values loaded since this one — the
    /// loop keeps no counter of its own — which is what lets the event
    /// engine apply the iterations of a settled spin in closed form (see
    /// `DESIGN.md` §10). Every engine checks the claim: a marked iteration
    /// that departs from the previous one before any load returned a
    /// different value panics.
    SpinMark,
    /// Thread is finished; the core goes idle.
    Halt,
}

impl Op {
    /// Plain fire-and-forget store.
    #[must_use]
    pub fn store(addr: Addr, value: u64) -> Op {
        Op::Store {
            addr,
            value,
            release: false,
            dep_on_last_load: false,
        }
    }

    /// Store-release (`STLR`).
    #[must_use]
    pub fn store_release(addr: Addr, value: u64) -> Op {
        Op::Store {
            addr,
            value,
            release: true,
            dep_on_last_load: false,
        }
    }

    /// Store whose data depends on the most recent load (bogus DATA DEP).
    #[must_use]
    pub fn store_dep(addr: Addr, value: u64) -> Op {
        Op::Store {
            addr,
            value,
            release: false,
            dep_on_last_load: true,
        }
    }

    /// Fire-and-forget load (value unused).
    #[must_use]
    pub fn load(addr: Addr) -> Op {
        Op::Load {
            addr,
            use_value: false,
            acquire: Acquire::No,
            dep_on_last_load: false,
        }
    }

    /// Load whose value the thread consumes (suspends until data returns).
    #[must_use]
    pub fn load_use(addr: Addr) -> Op {
        Op::Load {
            addr,
            use_value: true,
            acquire: Acquire::No,
            dep_on_last_load: false,
        }
    }

    /// Load with a bogus address dependency on the most recent load.
    #[must_use]
    pub fn load_dep(addr: Addr, use_value: bool) -> Op {
        Op::Load {
            addr,
            use_value,
            acquire: Acquire::No,
            dep_on_last_load: true,
        }
    }

    /// Atomic fetch-add with acquire+release semantics (a lock-style RMW).
    #[must_use]
    pub fn fetch_add_acq_rel(addr: Addr, operand: u64) -> Op {
        Op::Rmw {
            addr,
            kind: RmwKind::FetchAdd,
            operand,
            acquire: true,
            release: true,
        }
    }

    /// Park until the committed value at `addr` is no longer `expect`.
    #[must_use]
    pub fn wait_change(addr: Addr, expect: u64) -> Op {
        Op::WaitChange { addr, expect }
    }

    /// Is this the one kind of load a marked poll loop may repeat: a plain
    /// [`Op::load_use`] (no acquire, no dependency)?
    #[must_use]
    pub(crate) fn is_plain_load_use(&self) -> bool {
        matches!(
            self,
            Op::Load {
                use_value: true,
                acquire: Acquire::No,
                dep_on_last_load: false,
                ..
            }
        )
    }
}

/// Context handed to [`SimThread::next`].
#[derive(Debug, Clone, Copy)]
pub struct ThreadCtx {
    /// Current simulated time.
    pub now: Cycle,
    /// Value produced by the most recent value-consuming load/RMW.
    pub last_value: u64,
    /// Number of completed iterations this thread has reported via
    /// workload-specific accounting (mirrors
    /// [`CoreStats::iterations`](crate::stats::CoreStats::iterations)).
    pub iterations: u64,
}

impl ThreadCtx {
    /// The value returned by the most recent suspending load/RMW.
    #[must_use]
    pub fn last_value(&self) -> u64 {
        self.last_value
    }
}

/// A simulated thread: a deterministic source of operations (in practice
/// a [`Script`](crate::script::Script)).
///
/// `Send` is a supertrait so whole [`Machine`](crate::machine::Machine)s
/// (which own their threads) can move between worker threads of a parallel
/// sweep; simulated threads hold only their own state, so this costs
/// implementations nothing in practice.
pub trait SimThread: Send {
    /// Produce the next operation. Called whenever the core can accept one;
    /// after a value-consuming op, called only once the value is available
    /// (read it from [`ThreadCtx::last_value`]).
    fn next(&mut self, ctx: &mut ThreadCtx) -> Op;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_flags() {
        assert_eq!(
            Op::store(8, 1),
            Op::Store {
                addr: 8,
                value: 1,
                release: false,
                dep_on_last_load: false
            }
        );
        assert!(matches!(
            Op::store_release(8, 1),
            Op::Store { release: true, .. }
        ));
        assert!(matches!(
            Op::store_dep(8, 1),
            Op::Store {
                dep_on_last_load: true,
                ..
            }
        ));
        assert!(matches!(
            Op::load(8),
            Op::Load {
                use_value: false,
                acquire: Acquire::No,
                ..
            }
        ));
        assert!(matches!(
            Op::load_use(8),
            Op::Load {
                use_value: true,
                acquire: Acquire::No,
                ..
            }
        ));
        assert!(matches!(
            Op::fetch_add_acq_rel(8, 2),
            Op::Rmw {
                kind: RmwKind::FetchAdd,
                acquire: true,
                release: true,
                ..
            }
        ));
        assert_eq!(Op::wait_change(8, 3), Op::WaitChange { addr: 8, expect: 3 });
    }
}
