//! The one place that touches protected state: the state cell both locks
//! share.
//!
//! Each lock in this crate is a protocol over atomics that makes at most
//! one thread at a time the *server* — the ticket holder, the current
//! combiner — and that thread alone may reach the protected `T`. The
//! dereference lives here, once, behind an `unsafe fn`; each protocol calls
//! it from the one place where it has made the calling thread the server,
//! and says there why that holds.

use std::cell::UnsafeCell;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicBool, Ordering};

use crossbeam::utils::CachePadded;

/// Protected state behind a lock protocol, on padded lines of its own: a
/// critical section's stores must not false-share with the read-mostly
/// words (op table, seed pool, node pool) of the lock that embeds the cell.
#[derive(Debug)]
pub(crate) struct StateCell<T> {
    state: CachePadded<UnsafeCell<T>>,
    /// Debug builds check the protocols' claim: set while a server is in.
    #[cfg(debug_assertions)]
    occupied: AtomicBool,
}

// SAFETY: `state` is reached only through `as_server`, an `unsafe fn` whose
// contract makes the caller the unique server; successive servers are ordered
// by the protocol's own acquire/release hand-off (the ticket owner word, the
// combiner role's hand-off store), which is what moves `T` between threads —
// hence `T: Send`.
unsafe impl<T: Send> Sync for StateCell<T> {}

/// Debug builds' record of a server inside the state; leaves on drop, so a
/// panicking critical section is not reported a second time as "two servers".
#[cfg(debug_assertions)]
struct Inside<'a>(&'a AtomicBool);

#[cfg(debug_assertions)]
impl Drop for Inside<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Relaxed);
    }
}

impl<T> StateCell<T> {
    pub(crate) fn new(state: T) -> StateCell<T> {
        StateCell {
            state: CachePadded::new(UnsafeCell::new(state)),
            #[cfg(debug_assertions)]
            occupied: AtomicBool::new(false),
        }
    }

    /// Run `f` on the protected state — the one dereference in the crate.
    ///
    /// # Safety
    ///
    /// The calling thread must be its protocol's unique server for the whole
    /// call: no other thread may be inside `as_server` on this cell, and the
    /// previous server's call must happen-before this one (the protocol's
    /// release/acquire hand-off). Debug builds panic on finding a second
    /// thread inside; that is a check of the protocols, not the contract.
    pub(crate) unsafe fn as_server<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        #[cfg(debug_assertions)]
        let _inside = {
            let entered = !self.occupied.swap(true, Ordering::Relaxed);
            assert!(entered, "two servers inside the protected state");
            Inside(&self.occupied)
        };
        // No reference to the state outlives `f`.
        f(&mut *self.state.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn a_panicking_critical_section_leaves_the_cell_enterable() {
        let cell = StateCell::new(0u64);
        // SAFETY (both calls): one thread, one call at a time.
        let boom = || unsafe { cell.as_server(|_| panic!("critical section")) };
        assert!(catch_unwind(AssertUnwindSafe(boom)).is_err());
        let bump = |s: &mut u64| {
            *s += 1;
            *s
        };
        assert_eq!(unsafe { cell.as_server(bump) }, 1);
    }
}
