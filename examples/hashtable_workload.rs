//! The Figure 8(c) workload on host threads: a hash table of per-bucket
//! sorted lists, each bucket behind its own lock, driven by the paper's
//! 10-query / 1-insert / 1-remove mix across a bucket-count sweep.
//!
//! ```sh
//! cargo run --release --example hashtable_workload
//! ```

use std::time::Instant;

use armbar::collections::workload::{MixedWorkload, Step};
use armbar::collections::{LockedHashTable, SortedList};
use armbar::locks::{CombiningLock, ResponseMode, TicketLock};

const THREADS: usize = 4;
const ROUNDS: u64 = 400;
const PRELOAD: usize = 512;

fn drive<E: armbar::locks::Executor<SortedList>>(table: &LockedHashTable<E>) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        for h in 0..THREADS {
            let table = &table;
            s.spawn(move || {
                let mut w = MixedWorkload::new(h, THREADS, PRELOAD as u64, 42);
                while w.rounds() < ROUNDS {
                    match w.next_step() {
                        Step::Query(k) => {
                            table.contains(h, k);
                        }
                        Step::Insert(k) => assert!(table.insert(h, k), "private key"),
                        Step::Remove(k) => assert!(table.remove(h, k), "private key"),
                    }
                }
            });
        }
    });
    let ops = THREADS as f64 * ROUNDS as f64 * 12.0;
    ops / start.elapsed().as_secs_f64()
}

fn main() {
    println!(
        "hash table, {PRELOAD} preloaded members, {THREADS} threads x {ROUNDS} rounds of 10q+1i+1r"
    );
    println!("(host wall-clock; the calibrated sweep is `armbar run fig8c`)\n");
    for buckets in [2usize, 8, 32, 128] {
        // Ticket-per-bucket.
        let ticket: LockedHashTable<TicketLock<SortedList>> =
            LockedHashTable::new(buckets, PRELOAD, |_b, list, ops| TicketLock::new(list, ops));
        let t_rate = drive(&ticket);
        assert_eq!(ticket.len(0), PRELOAD as u64, "size preserved");
        // Combining-with-Pilot per bucket.
        let pilot: LockedHashTable<CombiningLock<SortedList>> =
            LockedHashTable::new(buckets, PRELOAD, |_b, list, ops| {
                CombiningLock::new(THREADS, list, ops, ResponseMode::Pilot)
            });
        let p_rate = drive(&pilot);
        assert_eq!(pilot.len(0), PRELOAD as u64, "size preserved");
        println!(
            "  {buckets:>4} buckets:  ticket {t_rate:>10.0} ops/s   dsynch-pilot {p_rate:>10.0} ops/s"
        );
    }
}
