//! LIFO stack under a global lock (Figure 8(a)).

use armbar_locks::{OpId, OpTable};

use crate::NOT_FOUND;

/// The sequential stack the lock protects.
#[derive(Debug, Default)]
pub struct SeqStack {
    items: Vec<u64>,
    /// Total pushes.
    pub pushed: u64,
    /// Total successful pops.
    pub popped: u64,
}

impl SeqStack {
    /// Empty stack.
    #[must_use]
    pub fn new() -> SeqStack {
        SeqStack::default()
    }

    /// Current depth.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the stack is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Registered op ids for [`SeqStack`].
#[derive(Debug, Clone, Copy)]
pub struct StackOps {
    /// `push(v) -> new depth`.
    pub push: OpId,
    /// `pop() -> value` (or [`NOT_FOUND`]).
    pub pop: OpId,
    /// `len() -> current depth`.
    pub len: OpId,
}

impl StackOps {
    /// Install the stack's critical sections into `table`.
    pub fn register(table: &mut OpTable<SeqStack>) -> StackOps {
        StackOps {
            push: table.register(|st, v| {
                st.items.push(v);
                st.pushed += 1;
                st.items.len() as u64
            }),
            pop: table.register(|st, _| match st.items.pop() {
                Some(v) => {
                    st.popped += 1;
                    v
                }
                None => NOT_FOUND,
            }),
            len: table.register(|st, _| st.items.len() as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armbar_locks::{CombiningLock, Executor, ResponseMode};

    #[test]
    fn lifo_order_through_ops() {
        let mut table = OpTable::new();
        let ops = StackOps::register(&mut table);
        let mut st = SeqStack::new();
        table.get(ops.push)(&mut st, 1);
        table.get(ops.push)(&mut st, 2);
        assert_eq!(table.get(ops.pop)(&mut st, 0), 2);
        assert_eq!(table.get(ops.pop)(&mut st, 0), 1);
        assert_eq!(table.get(ops.pop)(&mut st, 0), NOT_FOUND);
    }

    #[test]
    fn concurrent_push_pop_pairs_balance_under_combining_lock() {
        let mut table = OpTable::new();
        let ops = StackOps::register(&mut table);
        const THREADS: usize = 4;
        let lock = CombiningLock::new(THREADS, SeqStack::new(), table, ResponseMode::Flag);
        std::thread::scope(|s| {
            for h in 0..THREADS {
                let lock = &lock;
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        lock.execute(h, ops.push, i);
                        assert_ne!(lock.execute(h, ops.pop, 0), NOT_FOUND);
                    }
                });
            }
        });
        assert_eq!(lock.execute(0, ops.len, 0), 0);
    }
}
