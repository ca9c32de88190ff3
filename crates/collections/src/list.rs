//! Sorted singly-linked list (Synchrobench-style [16], Figure 8(b)).
//!
//! A real pointer-chasing list, not a sorted `Vec`: the critical-section
//! length grows with the element count, which is what makes Figure 8(b)'s
//! preload sweep interesting — longer critical sections touch more remote
//! lines before the unlock/response barrier.

use armbar_locks::{OpId, OpTable};

use crate::NOT_FOUND;

struct ListNode {
    key: u64,
    next: Option<Box<ListNode>>,
}

/// The sequential sorted list the lock protects.
#[derive(Default)]
pub struct SortedList {
    head: Option<Box<ListNode>>,
    len: usize,
}

impl std::fmt::Debug for SortedList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SortedList(len={})", self.len)
    }
}

impl SortedList {
    /// Empty list.
    #[must_use]
    pub fn new() -> SortedList {
        SortedList::default()
    }

    /// Preload keys `0, step, 2*step, …` until `count` members are present.
    #[must_use]
    pub fn preloaded(count: usize, step: u64) -> SortedList {
        let mut l = SortedList::new();
        for i in (0..count as u64).rev() {
            // Insert in descending order: each insert is O(1) at the head.
            let _ = l.insert(i * step);
        }
        l
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert `key` keeping sorted order; `false` if already present.
    pub fn insert(&mut self, key: u64) -> bool {
        let mut cursor = &mut self.head;
        loop {
            match cursor {
                None => {
                    *cursor = Some(Box::new(ListNode { key, next: None }));
                    self.len += 1;
                    return true;
                }
                Some(node) if node.key == key => return false,
                Some(node) if node.key > key => {
                    let rest = cursor.take();
                    *cursor = Some(Box::new(ListNode { key, next: rest }));
                    self.len += 1;
                    return true;
                }
                Some(node) => {
                    // SAFETY-free reborrow dance: move the cursor forward.
                    cursor = &mut node.next;
                }
            }
        }
    }

    /// Remove `key`; `false` if absent.
    pub fn remove(&mut self, key: u64) -> bool {
        let mut cursor = &mut self.head;
        loop {
            match cursor {
                None => return false,
                Some(node) if node.key == key => {
                    let next = node.next.take();
                    *cursor = next;
                    self.len -= 1;
                    return true;
                }
                Some(node) if node.key > key => return false,
                Some(node) => cursor = &mut node.next,
            }
        }
    }

    /// Membership query.
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        let mut cur = self.head.as_deref();
        while let Some(node) = cur {
            if node.key == key {
                return true;
            }
            if node.key > key {
                return false;
            }
            cur = node.next.as_deref();
        }
        false
    }

    /// All keys, in order (tests).
    #[must_use]
    pub fn keys(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        let mut cur = self.head.as_deref();
        while let Some(node) = cur {
            out.push(node.key);
            cur = node.next.as_deref();
        }
        out
    }
}

impl Drop for SortedList {
    fn drop(&mut self) {
        // Iterative teardown: a long list must not recurse the default
        // `Box` drop chain into a stack overflow.
        let mut cur = self.head.take();
        while let Some(mut node) = cur {
            cur = node.next.take();
        }
    }
}

/// Registered op ids for [`SortedList`].
#[derive(Debug, Clone, Copy)]
pub struct ListOps {
    /// `insert(key) -> 1` if inserted, `0` if present.
    pub insert: OpId,
    /// `remove(key) -> 1` if removed, [`NOT_FOUND`] if absent.
    pub remove: OpId,
    /// `contains(key) -> 1/0`.
    pub contains: OpId,
    /// `len() -> members`.
    pub len: OpId,
}

impl ListOps {
    /// Install the list's critical sections into `table`.
    pub fn register(table: &mut OpTable<SortedList>) -> ListOps {
        ListOps {
            insert: table.register(|l, k| u64::from(l.insert(k))),
            remove: table.register(|l, k| if l.remove(k) { 1 } else { NOT_FOUND }),
            contains: table.register(|l, k| u64::from(l.contains(k))),
            len: table.register(|l, _| l.len() as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armbar_locks::{Ffwd, ResponseMode};

    #[test]
    fn sorted_insert_remove_contains() {
        let mut l = SortedList::new();
        assert!(l.insert(5));
        assert!(l.insert(1));
        assert!(l.insert(9));
        assert!(!l.insert(5), "duplicate rejected");
        assert_eq!(l.keys(), vec![1, 5, 9]);
        assert!(l.contains(5));
        assert!(!l.contains(4));
        assert!(l.remove(5));
        assert!(!l.remove(5));
        assert_eq!(l.keys(), vec![1, 9]);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn preload_produces_exactly_count_sorted_members() {
        let l = SortedList::preloaded(50, 10);
        assert_eq!(l.len(), 50);
        let keys = l.keys();
        assert_eq!(keys.len(), 50);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(keys[0], 0);
        assert_eq!(keys[49], 490);
    }

    #[test]
    fn long_list_drops_without_overflow() {
        let l = SortedList::preloaded(200_000, 1);
        drop(l);
    }

    #[test]
    fn delegated_list_workload_preserves_size() {
        // The paper's mix: after every 10 queries, insert 1 then remove 1.
        let mut table = OpTable::new();
        let ops = ListOps::register(&mut table);
        let mut preloaded = SortedList::preloaded(50, 2);
        let _ = &mut preloaded;
        const THREADS: usize = 3;
        let lock = Ffwd::new(THREADS + 1, preloaded, table, ResponseMode::Flag);
        let server = lock.start_server();
        std::thread::scope(|s| {
            for h in 0..THREADS {
                let mut client = lock.client(h);
                s.spawn(move || {
                    // Odd keys are thread-private (preload used even keys),
                    // so insert/remove pairs always succeed.
                    let my_key = |i: u64| 1 + 2 * (h as u64) + 1000 * i;
                    for i in 0..300u64 {
                        for q in 0..10 {
                            client.execute(ops.contains, q * 2);
                        }
                        assert_eq!(client.execute(ops.insert, my_key(i)), 1);
                        assert_eq!(client.execute(ops.remove, my_key(i)), 1);
                    }
                });
            }
        });
        let mut checker = lock.client(THREADS);
        assert_eq!(checker.execute(ops.len, 0), 50, "net size unchanged");
        lock.shutdown();
        server.join().unwrap();
    }
}
