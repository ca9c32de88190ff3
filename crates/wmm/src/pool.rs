//! The claim loop behind both parallel paths of this crate (the engine's
//! frontier drain and the litmus battery): scoped threads, one shared
//! cursor, results handed back through the join handles.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Fold `items` on `workers` scoped threads (capped at the item count).
/// Each worker starts from `init()` and feeds `step` every `(index, item)`
/// it claims off the shared cursor, in index order, until none is left;
/// the workers' accumulators come back in spawn order. Which worker claims
/// which item is a scheduling accident, so callers merge by index or with
/// an order-insensitive union. A worker's panic is re-raised here.
pub(crate) fn claim_fold<T: Sync, A: Send>(
    items: &[T],
    workers: usize,
    init: impl Fn() -> A + Sync,
    step: impl Fn(&mut A, usize, &T) + Sync,
) -> Vec<A> {
    let cursor = AtomicUsize::new(0);
    let drain = || {
        let mut acc = init();
        loop {
            let ix = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(ix) else { break acc };
            step(&mut acc, ix, item);
        }
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(items.len()))
            .map(|_| scope.spawn(drain))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}
