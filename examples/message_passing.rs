//! Memory-based communication end to end: the baseline barrier-configured
//! SPSC ring (Algorithm 2) against the Pilot ring (§4.4), with real
//! host threads.
//!
//! ```sh
//! cargo run --release --example message_passing
//! ```
//!
//! On an aarch64 host the configured barriers compile to the actual
//! instructions; on x86 the portable mapping keeps behaviour identical
//! (TSO is stronger). Throughput numbers on a non-ARM or oversubscribed
//! host are illustrative only — the simulator experiments (`armbar run fig6a` …)
//! are the measured reproduction.

use std::time::Instant;

use armbar::prelude::*;

const MESSAGES: u64 = 200_000;
const CAPACITY: usize = 64;

fn run_baseline(name: &str, pair: BarrierPair) {
    let (mut tx, mut rx) = spsc_ring(CAPACITY, pair);
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            for v in 0..MESSAGES {
                tx.send(v.wrapping_mul(0x9E37_79B9).wrapping_add(1));
            }
        });
        let h = s.spawn(move || {
            for v in 0..MESSAGES {
                let got = rx.recv();
                assert_eq!(got, v.wrapping_mul(0x9E37_79B9).wrapping_add(1));
            }
        });
        h.join().unwrap();
    });
    let dt = start.elapsed().as_secs_f64();
    println!("  {name:<22} {:>8.2}M msgs/s", MESSAGES as f64 / dt / 1e6);
}

fn run_pilot() {
    let pool = HashPool::default_pool();
    let (mut tx, mut rx) = pilot_ring(CAPACITY, &pool, Barrier::DmbLd);
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            for v in 0..MESSAGES {
                tx.send(v.wrapping_mul(0x9E37_79B9).wrapping_add(1));
            }
        });
        let h = s.spawn(move || {
            for v in 0..MESSAGES {
                let got = rx.recv();
                assert_eq!(got, v.wrapping_mul(0x9E37_79B9).wrapping_add(1));
            }
        });
        h.join().unwrap();
    });
    let dt = start.elapsed().as_secs_f64();
    println!(
        "  {:<22} {:>8.2}M msgs/s",
        "Pilot ring",
        MESSAGES as f64 / dt / 1e6
    );
}

fn main() {
    println!(
        "SPSC ring, {MESSAGES} messages, capacity {CAPACITY} (native barriers: {})",
        armbar::barriers::native::is_native()
    );
    run_baseline("DMB full - DMB full", BarrierPair::FULL_FULL);
    run_baseline("DMB ld - DMB st", BarrierPair::LD_ST);
    run_pilot();
    println!("\nEvery message was checked — the Pilot ring needs no publish barrier");
    println!("because the payload word itself is the notification (single-copy");
    println!("atomicity of aligned 64-bit stores).");
}
