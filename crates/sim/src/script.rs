//! Simulated threads written as straight-line `async` code.
//!
//! [`SimThread::next`] is a coroutine protocol: hand the core one [`Op`],
//! get called again once the core can take the next one, find the value a
//! load produced in [`ThreadCtx::last_value`]. The compiler already turns an
//! `async` block into exactly that state machine, so a workload writes the
//! paper's pseudocode as it reads —
//!
//! ```
//! use armbar_sim::{Machine, Op, Platform, Script};
//!
//! const FLAG: u64 = 0x1000;
//! let waiter = Script::new(|cpu| async move {
//!     loop {
//!         // What follows depends on the loaded value alone.
//!         cpu.spin_mark().await;
//!         if cpu.op(Op::load_use(FLAG)).await != 0 {
//!             break;
//!         }
//!         cpu.op(Op::Nops(1)).await;
//!     }
//!     cpu.op(Op::store(0x2000, 1)).await;
//! });
//! let mut m = Machine::new(Platform::kunpeng916());
//! m.preset_memory(FLAG, 1);
//! m.add_thread_on(0, Box::new(waiter));
//! assert!(m.run(100_000).halted);
//! assert_eq!(m.read_memory(0x2000), 1);
//! ```
//!
//! — and [`Script`] adapts it to [`SimThread`]. The contract:
//!
//! * Every `next()` call polls the body once. The body runs until its next
//!   `cpu.op(op).await`, which suspends it; `next()` returns that `op`.
//! * The following `next()` call resumes the `.await` with the
//!   [`ThreadCtx::last_value`] of *that* call — the value of `op` if it was
//!   value-consuming, the previous value otherwise — and the code after it
//!   runs inside that call, exactly where a hand-written machine would
//!   have read `ctx.last_value()`.
//! * When the body returns, `next()` answers [`Op::Halt`], then and forever.
//! * [`Cpu::spin_mark`] at the top of a poll loop hands the core an
//!   [`Op::SpinMark`]: free in simulated time, and a promise that until the
//!   next mark the body's ops depend only on the values it loads — no
//!   iteration counter, no back-off state. The event engine uses it to skip
//!   a settled loop's iterations; every engine panics on a marked loop that
//!   breaks the promise.
//!
//! The op travels from `cpu.op` to `next()`, and the value back, through a
//! thread-local mailbox that is live only while one `next()` call is on the
//! stack (`cpu.op` itself writes the op there, so no copy of it is kept in
//! the body's state and carried through every poll). That keeps the body free of shared handles (so it is `Send`
//! without locks or `unsafe`, and a [`Machine`](crate::Machine) can still
//! move between sweep workers between runs) and lets any number of scripts
//! be stepped alternately on one OS thread without seeing each other.
//! Nothing here touches scheduling: the engines see a `SimThread` like any
//! other.

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

use crate::op::{Op, SimThread, ThreadCtx};

thread_local! {
    /// The op the body being polled just handed over.
    static ISSUED: Cell<Option<Op>> = const { Cell::new(None) };
    /// `ThreadCtx::last_value` of the `next()` call now polling a body.
    static LAST_VALUE: Cell<u64> = const { Cell::new(0) };
}

/// A script's handle to its core; see the [module docs](self).
#[derive(Debug, Clone, Copy)]
pub struct Cpu(());

impl Cpu {
    /// Hand `op` to the core. Resolves, once the core asks for the next op,
    /// to the value of the most recent value-consuming load/RMW.
    ///
    /// The op goes into the mailbox here, at the call, so the future holds
    /// no copy of it; await it before handing over another one.
    #[inline]
    pub fn op(self, op: Op) -> Issue {
        ISSUED.set(Some(op));
        Issue { suspended: false }
    }

    /// [`Op::SpinMark`]: the top of a poll loop whose every iteration is
    /// decided by the values it loads alone.
    #[inline]
    pub fn spin_mark(self) -> Issue {
        self.op(Op::SpinMark)
    }
}

/// The future of [`Cpu::op`]: suspends the body once.
#[derive(Debug)]
#[must_use = "the body must suspend for the core to take the op"]
pub struct Issue {
    suspended: bool,
}

impl Future for Issue {
    type Output = u64;

    #[inline]
    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<u64> {
        if std::mem::replace(&mut self.suspended, true) {
            Poll::Ready(LAST_VALUE.get())
        } else {
            Poll::Pending
        }
    }
}

/// A [`SimThread`] whose program is an `async` body; see the
/// [module docs](self).
pub struct Script<F> {
    /// Boxed once here so the body's address is pinned; polled by static
    /// dispatch.
    body: Pin<Box<F>>,
    finished: bool,
}

impl<F: Future<Output = ()> + Send> Script<F> {
    /// A thread running `body(cpu)` to completion, then halting.
    pub fn new(body: impl FnOnce(Cpu) -> F) -> Script<F> {
        Script {
            body: Box::pin(body(Cpu(()))),
            finished: false,
        }
    }
}

impl<F: Future<Output = ()> + Send> SimThread for Script<F> {
    fn next(&mut self, ctx: &mut ThreadCtx) -> Op {
        if self.finished {
            return Op::Halt;
        }
        LAST_VALUE.set(ctx.last_value);
        let mut cx = Context::from_waker(Waker::noop());
        match self.body.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                self.finished = true;
                // An op handed over but never awaited dies with its body.
                ISSUED.set(None);
                Op::Halt
            }
            Poll::Pending => ISSUED
                .take()
                .expect("a script may only await `Cpu::op` futures"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armbar_barriers::Barrier;

    fn ctx(last_value: u64) -> ThreadCtx {
        ThreadCtx {
            now: 0,
            last_value,
            iterations: 0,
        }
    }

    #[test]
    fn a_load_resolves_to_the_value_the_next_call_carries() {
        let mut t = Script::new(|cpu| async move {
            let v = cpu.op(Op::load_use(8)).await;
            cpu.op(Op::store(16, v + 1)).await;
        });
        assert_eq!(t.next(&mut ctx(0)), Op::load_use(8));
        assert_eq!(t.next(&mut ctx(41)), Op::store(16, 42));
    }

    #[test]
    fn non_value_ops_leave_the_previous_value_readable() {
        let mut t = Script::new(|cpu| async move {
            cpu.op(Op::load_use(8)).await;
            let a = cpu.op(Op::store(16, 0)).await;
            let b = cpu.op(Op::Nops(3)).await;
            let c = cpu.op(Op::Fence(Barrier::DmbSt)).await;
            cpu.op(Op::store(24, a + b + c)).await;
        });
        // The core leaves `last_value` alone across store, nops and fence.
        let mut ctx = ctx(0);
        assert_eq!(t.next(&mut ctx), Op::load_use(8));
        ctx.last_value = 5;
        assert_eq!(t.next(&mut ctx), Op::store(16, 0));
        assert_eq!(t.next(&mut ctx), Op::Nops(3));
        assert_eq!(t.next(&mut ctx), Op::Fence(Barrier::DmbSt));
        assert_eq!(t.next(&mut ctx), Op::store(24, 15));
    }

    #[test]
    fn a_finished_body_halts_forever() {
        let mut t = Script::new(|cpu| async move {
            cpu.op(Op::Nops(1)).await;
        });
        assert_eq!(t.next(&mut ctx(0)), Op::Nops(1));
        for _ in 0..3 {
            assert_eq!(t.next(&mut ctx(0)), Op::Halt);
        }
    }

    #[test]
    fn interleaved_scripts_do_not_share_ops_or_values() {
        let echo = |addr| {
            Script::new(move |cpu| async move {
                loop {
                    let v = cpu.op(Op::load_use(addr)).await;
                    cpu.op(Op::store(addr, v)).await;
                }
            })
        };
        let (mut a, mut b) = (echo(8), echo(16));
        for round in 0..3 {
            assert_eq!(a.next(&mut ctx(0)), Op::load_use(8));
            assert_eq!(b.next(&mut ctx(0)), Op::load_use(16));
            assert_eq!(a.next(&mut ctx(round)), Op::store(8, round));
            assert_eq!(b.next(&mut ctx(100 + round)), Op::store(16, 100 + round));
        }
    }
}
