//! The store buffer's one-pass drain pick against the quadratic scan it
//! replaced, kept here as the reference: on seeded random buffers — entries
//! in program order over at most four lines, pending or draining, with
//! random data readiness and release flags, gates closed, open or opening
//! later, a random `loads_done_before`, FIFO on and off — both must pick the
//! same entry.

use armbar_sim::storebuf::{SbEntry, SbState, Seq, StoreBuffer};
use armbar_sim::{Cycle, DistanceClass, Line};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The drain pick as first written: every constraint checked against every
/// entry, with no use of the buffer's program order.
fn reference_pick(
    sb: &StoreBuffer,
    drain_ports: u32,
    fifo: bool,
    now: Cycle,
    loads_done_before: impl Fn(Seq) -> bool,
) -> Option<usize> {
    let entries = sb.entries();
    let draining = entries
        .iter()
        .filter(|e| matches!(e.state, SbState::Draining { .. }))
        .count();
    if draining as u32 >= drain_ports {
        return None;
    }
    let gate_limit: Seq = sb
        .gates_iter()
        .filter(|g| g.open_at.is_none_or(|t| t > now))
        .map(|g| g.seq)
        .min()
        .unwrap_or(Seq::MAX);
    'outer: for (i, e) in entries.iter().enumerate() {
        if !matches!(e.state, SbState::Pending) {
            if fifo {
                break;
            }
            continue;
        }
        if e.seq >= gate_limit {
            continue;
        }
        if e.data_ready_at > now {
            continue;
        }
        for other in entries {
            if other.line == e.line && other.seq < e.seq {
                continue 'outer;
            }
        }
        if e.release {
            if entries.iter().any(|o| o.seq < e.seq) {
                if fifo {
                    break;
                }
                continue;
            }
            if !loads_done_before(e.seq) {
                if fifo {
                    break;
                }
                continue;
            }
        }
        return Some(i);
    }
    None
}

/// A random buffer at a random `now`: stores and gates interleaved in
/// program order, some stores already draining, each gate closed, open or
/// opening after `now`.
fn random_buffer(rng: &mut SmallRng, fifo: bool) -> (StoreBuffer, u32, Cycle) {
    let drain_ports = rng.gen_range(1..=3u32);
    let mut sb = StoreBuffer::with_order(16, drain_ports, fifo);
    let now = rng.gen_range(0..20u64);
    let mut seq: Seq = rng.gen_range(0..4u64);
    for _ in 0..rng.gen_range(0..12usize) {
        if rng.gen_bool(0.2) {
            sb.push_gate(seq);
        } else {
            let addr = rng.gen_range(0..4u64) * 64 + rng.gen_range(0..8u64) * 8;
            sb.push(SbEntry {
                seq,
                addr,
                line: Line::containing(addr),
                value: seq,
                release: rng.gen_bool(0.3),
                data_ready_at: rng.gen_range(0..30u64),
                state: SbState::Pending,
                drain_distance: None,
            });
        }
        seq += rng.gen_range(1..3u64);
    }
    for i in 0..sb.len() {
        if rng.gen_bool(0.3) {
            sb.start_drain(i, now + 1 + rng.gen_range(0..10u64), DistanceClass::Local);
        }
    }
    for g in sb.gates_mut() {
        g.open_at = match rng.gen_range(0..3u8) {
            0 => None,
            1 => Some(rng.gen_range(0..=now)),
            _ => Some(now + 1 + rng.gen_range(0..10u64)),
        };
    }
    (sb, drain_ports, now)
}

#[test]
fn one_pass_drain_pick_matches_the_quadratic_reference() {
    let mut picked = [0usize; 2];
    for seed in 0..20_000u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let fifo = seed % 2 == 1;
        let (sb, drain_ports, now) = random_buffer(&mut rng, fifo);
        let loads: u64 = rng.gen();
        let loads_done_before = |seq: Seq| loads >> (seq % 64) & 1 == 1;
        let want = reference_pick(&sb, drain_ports, fifo, now, loads_done_before);
        let got = sb.pick_drain_candidate(now, loads_done_before);
        assert_eq!(got, want, "seed {seed}: {sb:?} at {now}");
        if let Some(i) = got {
            picked[usize::from(sb.entries()[i].release)] += 1;
        }
    }
    // Both kinds of entry are picked often enough for the match to mean
    // something.
    assert!(picked.iter().all(|&n| n > 200), "picks {picked:?}");
}
