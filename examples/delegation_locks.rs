//! Delegation locks on host threads: a shared counter and a sorted list
//! served by FFWD (dedicated server) and the combining lock (migratory
//! server), with and without Pilot responses.
//!
//! ```sh
//! cargo run --release --example delegation_locks
//! ```

use std::time::Instant;

use armbar::collections::{ListOps, SortedList};
use armbar::locks::{CombiningLock, Executor, Ffwd, OpTable, ResponseMode};

const THREADS: usize = 4;
const OPS_PER_THREAD: u64 = 20_000;

fn bench_combining(mode: ResponseMode) -> f64 {
    let mut table = OpTable::new();
    let inc = table.register(|s: &mut u64, by| {
        *s += by;
        *s
    });
    let lock = CombiningLock::new(THREADS, 0u64, table, mode);
    let start = Instant::now();
    std::thread::scope(|s| {
        for h in 0..THREADS {
            let lock = &lock;
            s.spawn(move || {
                for _ in 0..OPS_PER_THREAD {
                    lock.execute(h, inc, 1);
                }
            });
        }
    });
    let dt = start.elapsed().as_secs_f64();
    assert_eq!(lock.execute(0, inc, 0), THREADS as u64 * OPS_PER_THREAD);
    THREADS as u64 as f64 * OPS_PER_THREAD as f64 / dt
}

fn bench_ffwd(mode: ResponseMode) -> f64 {
    let mut table = OpTable::new();
    let inc = table.register(|s: &mut u64, by| {
        *s += by;
        *s
    });
    let lock = Ffwd::new(THREADS, 0u64, table, mode);
    let server = lock.start_server();
    let start = Instant::now();
    std::thread::scope(|s| {
        for h in 0..THREADS {
            let mut client = lock.client(h);
            s.spawn(move || {
                for _ in 0..OPS_PER_THREAD {
                    client.execute(inc, 1);
                }
            });
        }
    });
    let dt = start.elapsed().as_secs_f64();
    lock.shutdown();
    server.join().unwrap();
    THREADS as f64 * OPS_PER_THREAD as f64 / dt
}

fn list_demo() {
    // A sorted list behind a combining lock — the Figure 8(b) workload in
    // miniature: 10 queries, one insert, one remove, repeated.
    let mut table = OpTable::new();
    let ops = ListOps::register(&mut table);
    let lock = CombiningLock::new(
        THREADS,
        SortedList::preloaded(50, 2),
        table,
        ResponseMode::Pilot,
    );
    std::thread::scope(|s| {
        for h in 0..THREADS {
            let lock = &lock;
            s.spawn(move || {
                let my_key = |i: u64| 1 + 2 * h as u64 + 1000 * i;
                for i in 0..500u64 {
                    for q in 0..10 {
                        lock.execute(h, ops.contains, (q * 7) % 100);
                    }
                    assert_eq!(lock.execute(h, ops.insert, my_key(i)), 1);
                    assert_eq!(lock.execute(h, ops.remove, my_key(i)), 1);
                }
            });
        }
    });
    let len = lock.execute(0, ops.len, 0);
    println!("  sorted list after {THREADS} threads x 500 rounds: {len} members (preloaded 50)");
    assert_eq!(len, 50);
}

fn main() {
    println!("Delegation locks, {THREADS} threads x {OPS_PER_THREAD} counter increments");
    println!("(wall-clock on this host; the calibrated comparison is `armbar run fig7c`)\n");
    println!(
        "  DSynch (combining)      {:>8.2}M ops/s",
        bench_combining(ResponseMode::Flag) / 1e6
    );
    println!(
        "  DSynch-P (Pilot)        {:>8.2}M ops/s",
        bench_combining(ResponseMode::Pilot) / 1e6
    );
    println!(
        "  FFWD (dedicated server) {:>8.2}M ops/s",
        bench_ffwd(ResponseMode::Flag) / 1e6
    );
    println!(
        "  FFWD-P (Pilot)          {:>8.2}M ops/s",
        bench_ffwd(ResponseMode::Pilot) / 1e6
    );
    println!();
    list_demo();
}
