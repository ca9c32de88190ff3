//! The common critical-section interface.
//!
//! Delegation servers cannot execute arbitrary closures shipped through
//! shared memory, so critical sections are registered once in an
//! [`OpTable`] as plain `fn(&mut T, u64) -> u64` and referred to by
//! [`OpId`]. In-place locks use the same table so that a benchmark can swap
//! lock families without touching workload code.

use std::fmt;

/// Index of a registered critical-section function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpId(pub usize);

/// A registry of critical-section functions over protected state `T`.
pub struct OpTable<T> {
    ops: Vec<fn(&mut T, u64) -> u64>,
}

impl<T> fmt::Debug for OpTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OpTable({} ops)", self.ops.len())
    }
}

impl<T> OpTable<T> {
    /// An empty table.
    #[must_use]
    pub fn new() -> OpTable<T> {
        OpTable { ops: Vec::new() }
    }

    /// Register a critical section; returns its id.
    pub fn register(&mut self, op: fn(&mut T, u64) -> u64) -> OpId {
        self.ops.push(op);
        OpId(self.ops.len() - 1)
    }

    /// Look up an op.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    #[must_use]
    pub fn get(&self, id: OpId) -> fn(&mut T, u64) -> u64 {
        self.ops[id.0]
    }

    /// Number of registered ops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no ops are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl<T> Default for OpTable<T> {
    fn default() -> Self {
        OpTable::new()
    }
}

/// Anything that can run registered critical sections with mutual exclusion.
///
/// `handle` identifies the calling thread (delegation locks need a
/// pre-assigned client slot; in-place locks ignore it).
pub trait Executor<T>: Sync {
    /// Execute op `id` with `arg` under mutual exclusion; returns the op's
    /// result.
    fn execute(&self, handle: usize, id: OpId, arg: u64) -> u64;
}

/// The counter every in-crate test drives: `(table, inc, get)` over a `u64`.
#[cfg(test)]
pub(crate) fn counter_ops() -> (OpTable<u64>, OpId, OpId) {
    let mut t = OpTable::new();
    let inc = t.register(|s, by| {
        *s += by;
        *s
    });
    let get = t.register(|s, _| *s);
    (t, inc, get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_and_dispatch() {
        let mut t: OpTable<u64> = OpTable::new();
        let inc = t.register(|s, by| {
            *s += by;
            *s
        });
        let get = t.register(|s, _| *s);
        assert_eq!(t.len(), 2);
        let mut state = 0u64;
        assert_eq!(t.get(inc)(&mut state, 5), 5);
        assert_eq!(t.get(inc)(&mut state, 2), 7);
        assert_eq!(t.get(get)(&mut state, 0), 7);
    }

    #[test]
    fn empty_table() {
        let t: OpTable<()> = OpTable::default();
        assert!(t.is_empty());
    }
}
