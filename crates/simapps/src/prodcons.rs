//! Producer-consumer on the simulator — Algorithm 2 and its Pilot
//! transformation (Figures 6(a), 6(b), 6(c)).
//!
//! Two cores exchange messages through a ring of single-line slots plus a
//! pair of counters. The baseline producer is Algorithm 2 with its two
//! configurable barriers; the Pilot producer publishes each slot through
//! the piggybacked store, keeps `prodCnt` private, and drops the publish
//! barrier entirely (§4.4).
//!
//! Messages carry a sequence-derived value, and the consumer checks every
//! one — so "Ideal" (all barriers removed) is *observably incorrect* on the
//! simulator when a reordering bites, exactly as the paper warns ("leads to
//! a wrong result but can serve as a reference").

use armbar_barriers::Barrier;
use armbar_sim::{Cpu, Op, Script, StallBreakdown, Trace};

use crate::bind::BindConfig;
use crate::harness::{machine, RunOpts};
use crate::lower::{fence, order_after_load};

/// Shared-memory layout (each item on its own line).
const PROD_CNT: u64 = 0x1000;
const CONS_CNT: u64 = 0x1080;
const BUF_BASE: u64 = 0x2000;
const FLAG_BASE: u64 = 0x6000;

/// Ring capacity (slots).
const BUF_SLOTS: u64 = 8;

/// Barrier pair of Algorithm 2 (`X - Y` in Figure 6(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PcBarriers {
    /// Line 3: after the availability check.
    pub avail: Barrier,
    /// Line 5: between filling the buffer and bumping `prodCnt`.
    pub publish: Barrier,
}

/// The Figure 6(a) combinations, in the legend's order.
pub const FIG6A_COMBOS: [(&str, PcBarriers); 7] = [
    (
        "DMB full - DMB full",
        PcBarriers {
            avail: Barrier::DmbFull,
            publish: Barrier::DmbFull,
        },
    ),
    (
        "DMB full - DMB st",
        PcBarriers {
            avail: Barrier::DmbFull,
            publish: Barrier::DmbSt,
        },
    ),
    (
        "DMB ld - DMB st",
        PcBarriers {
            avail: Barrier::DmbLd,
            publish: Barrier::DmbSt,
        },
    ),
    (
        "LDAR - DMB st",
        PcBarriers {
            avail: Barrier::Ldar,
            publish: Barrier::DmbSt,
        },
    ),
    (
        "DMB full - STLR",
        PcBarriers {
            avail: Barrier::DmbFull,
            publish: Barrier::Stlr,
        },
    ),
    (
        "DMB ld - No Barrier",
        PcBarriers {
            avail: Barrier::DmbLd,
            publish: Barrier::None,
        },
    ),
    (
        "Ideal",
        PcBarriers {
            avail: Barrier::None,
            publish: Barrier::None,
        },
    ),
];

fn slot_addr(i: u64) -> u64 {
    BUF_BASE + (i % BUF_SLOTS) * 64
}

fn flag_addr(i: u64) -> u64 {
    FLAG_BASE + (i % BUF_SLOTS) * 64
}

fn msg_value(seq: u64) -> u64 {
    seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

/// The producer. Both variants run one loop around their slot fill: wait
/// until a whole batch fits (Algorithm 2 lines 1-3), do each message's
/// local work and fill its slot, and end the iteration once the batch is
/// out. The baseline fills with a plain store and publishes `prodCnt`
/// behind its second barrier; the Pilot producer (§4.4) publishes each slot
/// via Algorithm 3 and keeps `prodCnt` core-private.
async fn producer(cpu: Cpu, variant: PcVariant, messages: u64, batch: u64, produce_nops: u32) {
    let avail = match variant {
        PcVariant::Baseline(barriers) => barriers.avail,
        PcVariant::Pilot { avail } => avail,
    };
    let mut slots = PilotSlots::default();
    let mut prod_cnt = 0;
    loop {
        // Line 1-3: availability check (whole batch must fit).
        loop {
            cpu.spin_mark().await;
            if prod_cnt + batch - cpu.op(Op::load_use(CONS_CNT)).await <= BUF_SLOTS {
                break;
            }
            cpu.op(Op::Nops(1)).await; // spin
        }
        order_after_load(cpu, avail, CONS_CNT).await;
        for seq in prod_cnt..prod_cnt + batch {
            // produceMsg(): local work.
            if produce_nops > 0 {
                cpu.op(Op::Nops(produce_nops)).await;
            }
            match variant {
                // Line 4: fill the slot (likely an RMR).
                PcVariant::Baseline(_) => {
                    cpu.op(Op::store(slot_addr(seq), msg_value(seq))).await;
                }
                PcVariant::Pilot { .. } => {
                    pilot_send(cpu, seq, &mut slots).await;
                }
            }
        }
        prod_cnt += batch;
        if let PcVariant::Baseline(PcBarriers { publish, .. }) = variant {
            // Line 5: the post-RMR barrier (once per batch).
            fence(cpu, publish).await;
            // Line 6: publish the counter. The STLR variant makes this store
            // the release: it orders the buffer fill before the counter
            // without a standalone barrier.
            cpu.op(if publish == Barrier::Stlr {
                Op::store_release(PROD_CNT, prod_cnt)
            } else {
                Op::store(PROD_CNT, prod_cnt)
            })
            .await;
        }
        if prod_cnt >= messages {
            return;
        }
        cpu.op(Op::IterationMark).await;
    }
}

/// One end's Pilot state per ring slot (Algorithms 3 and 4): the data word
/// and the fallback flag last sent, or last seen.
#[derive(Default)]
struct PilotSlots {
    data: [u64; BUF_SLOTS as usize],
    flags: [u64; BUF_SLOTS as usize],
}

/// Algorithm 3 on the slot of message `seq`: the sequence-shuffled payload
/// is the notification, the flag only when it repeats the slot's last one.
async fn pilot_send(cpu: Cpu, seq: u64, sent: &mut PilotSlots) {
    // The shuffle costs two local ALU ops (all-local, <5% worst case per
    // §4.5).
    cpu.op(Op::Nops(2)).await;
    let idx = (seq % BUF_SLOTS) as usize;
    let new_data = msg_value(seq);
    if new_data == sent.data[idx] {
        sent.flags[idx] ^= 1;
        cpu.op(Op::store(flag_addr(seq), sent.flags[idx])).await;
    } else {
        sent.data[idx] = new_data;
        cpu.op(Op::store(slot_addr(seq), new_data)).await;
    }
}

/// Running count of payload mismatches the consumer observed.
const CONS_ERRORS: u64 = 0x1100;

/// The consumer: receive each message, check it, bump `consCnt`, publish
/// the error count, and retire after the last one. The baseline spins on
/// `prodCnt` and reads the slot behind a bogus address dependency (the
/// cheap consumer side §4.1 describes); the Pilot consumer runs Algorithm 4
/// per slot.
async fn consumer(cpu: Cpu, variant: PcVariant, messages: u64) {
    let mut prod_seen = 0;
    let mut slots = PilotSlots::default();
    let mut errors = 0;
    let mut cons_cnt = 0;
    loop {
        let payload = match variant {
            PcVariant::Baseline(_) => {
                while prod_seen <= cons_cnt {
                    cpu.spin_mark().await;
                    prod_seen = cpu.op(Op::load_use(PROD_CNT)).await;
                    if prod_seen <= cons_cnt {
                        cpu.op(Op::Nops(1)).await;
                    }
                }
                cpu.op(Op::load_dep(slot_addr(cons_cnt), true)).await
            }
            PcVariant::Pilot { .. } => pilot_receive(cpu, cons_cnt, &mut slots).await,
        };
        if payload != msg_value(cons_cnt) {
            errors += 1;
        }
        cons_cnt += 1;
        cpu.op(Op::store(CONS_CNT, cons_cnt)).await;
        cpu.op(Op::store(CONS_ERRORS, errors)).await;
        if cons_cnt >= messages {
            return;
        }
    }
}

/// Algorithm 4 on the slot of message `seq`: spin until the data word
/// (line 1) or the fallback flag (line 2) changes; returns the payload.
async fn pilot_receive(cpu: Cpu, seq: u64, seen: &mut PilotSlots) -> u64 {
    let idx = (seq % BUF_SLOTS) as usize;
    loop {
        cpu.spin_mark().await;
        let data = cpu.op(Op::load_use(slot_addr(seq))).await;
        if data != seen.data[idx] {
            seen.data[idx] = data;
            break;
        }
        let flag = cpu.op(Op::load_use(flag_addr(seq))).await;
        if flag != seen.flags[idx] {
            seen.flags[idx] = flag;
            break;
        }
        cpu.op(Op::Nops(1)).await;
    }
    seen.data[idx]
}

/// Which channel implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcVariant {
    /// Algorithm 2 with the given barrier pair.
    Baseline(PcBarriers),
    /// The Pilot ring (publish barrier gone, `prodCnt` private).
    Pilot {
        /// The remaining line-3 barrier.
        avail: Barrier,
    },
}

/// Result of one producer-consumer run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcResult {
    /// Messages delivered to the consumer.
    pub messages: u64,
    /// Producer cycles consumed.
    pub cycles: u64,
    /// Messages per second at the platform clock.
    pub msgs_per_sec: f64,
    /// Messages whose payload did not match the expected sequence value
    /// (non-zero only for incorrect variants like Ideal).
    pub errors: u64,
    /// Producer-core barrier-stall decomposition (where the producer's
    /// blocked cycles went, by cause and barrier kind).
    pub stall: StallBreakdown,
}

/// Run a producer-consumer configuration: `messages` transfers of
/// `batch`-slot batches with `produce_nops` of local work per message.
#[must_use]
pub fn run_prodcons(
    bind: BindConfig,
    variant: PcVariant,
    messages: u64,
    batch: u64,
    produce_nops: u32,
) -> PcResult {
    let opts = RunOpts::default();
    run_prodcons_with(bind, variant, messages, batch, produce_nops, opts).0
}

/// [`run_prodcons`] under explicit [`RunOpts`]; also returns the recorded
/// trace, ready for [`Trace::to_chrome_json`] export.
#[must_use]
pub fn run_prodcons_with(
    bind: BindConfig,
    variant: PcVariant,
    messages: u64,
    batch: u64,
    produce_nops: u32,
    opts: RunOpts,
) -> (PcResult, Trace) {
    assert!(
        (1..=BUF_SLOTS / 2).contains(&batch),
        "batch must fit the ring twice over"
    );
    assert_eq!(
        messages % batch,
        0,
        "messages must be a whole number of batches"
    );
    let platform = bind.platform();
    let prod_core = bind.primary_core();
    let cons_core = bind.peer_core();
    let mut m = machine("prodcons", &platform, prod_core.max(cons_core) + 1, opts);
    m.add_thread_on(
        prod_core,
        Box::new(Script::new(|cpu| {
            producer(cpu, variant, messages, batch, produce_nops)
        })),
    );
    m.add_thread_on(
        cons_core,
        Box::new(Script::new(|cpu| consumer(cpu, variant, messages))),
    );
    let max_cycles = messages * 40_000 + 1_000_000;
    let stats = m.run(max_cycles);
    assert!(stats.halted, "producer-consumer must drain within budget");
    let s = m.core_stats(prod_core);
    let delivered = m.read_memory(CONS_CNT);
    let result = PcResult {
        messages: delivered,
        cycles: s.cycles,
        msgs_per_sec: platform.iterations_per_second(s.iterations * batch, s.cycles),
        errors: m.read_memory(CONS_ERRORS),
        stall: s.stall,
    };
    (result, m.take_trace())
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSGS: u64 = 300;
    const WORK: u32 = 40;

    fn tput(bind: BindConfig, v: PcVariant) -> f64 {
        run_prodcons(bind, v, MSGS, 1, WORK).msgs_per_sec
    }

    fn baseline(avail: Barrier, publish: Barrier) -> PcVariant {
        PcVariant::Baseline(PcBarriers { avail, publish })
    }

    #[test]
    fn all_correct_variants_deliver_every_message() {
        for bind in [BindConfig::KunpengCrossNodes, BindConfig::Kirin960] {
            for (name, combo) in FIG6A_COMBOS.iter().take(5) {
                let r = run_prodcons(bind, PcVariant::Baseline(*combo), 100, 1, 10);
                assert_eq!(r.messages, 100, "{name}");
            }
            let r = run_prodcons(
                bind,
                PcVariant::Pilot {
                    avail: Barrier::DmbLd,
                },
                100,
                1,
                10,
            );
            assert_eq!(r.messages, 100);
            assert_eq!(
                r.errors, 0,
                "Pilot must stay correct with no publish barrier"
            );
        }
    }

    #[test]
    fn fig6a_ld_st_beats_full_full() {
        for bind in [BindConfig::KunpengSameNode, BindConfig::KunpengCrossNodes] {
            let ld_st = tput(bind, baseline(Barrier::DmbLd, Barrier::DmbSt));
            let full_full = tput(bind, baseline(Barrier::DmbFull, Barrier::DmbFull));
            assert!(
                ld_st > full_full,
                "{bind:?}: ld-st {ld_st} must beat full-full {full_full}"
            );
        }
    }

    #[test]
    fn fig6a_stlr_does_not_beat_dmb_full_cross_node() {
        let bind = BindConfig::KunpengCrossNodes;
        let stlr = tput(bind, baseline(Barrier::DmbFull, Barrier::Stlr));
        let full = tput(bind, baseline(Barrier::DmbFull, Barrier::DmbFull));
        assert!(
            stlr <= full * 1.05,
            "STLR {stlr} vs DMB full {full} (Observation 3)"
        );
    }

    #[test]
    fn fig6a_removing_the_publish_barrier_recovers_most_of_ideal() {
        let bind = BindConfig::KunpengCrossNodes;
        let ld_none = tput(bind, baseline(Barrier::DmbLd, Barrier::None));
        let ld_st = tput(bind, baseline(Barrier::DmbLd, Barrier::DmbSt));
        let ideal = tput(bind, baseline(Barrier::None, Barrier::None));
        assert!(ld_none > ld_st, "dropping the post-RMR barrier must help");
        assert!(
            ld_none > 0.8 * ideal,
            "ld-none {ld_none} close to ideal {ideal}"
        );
    }

    #[test]
    fn fig6b_pilot_beats_the_best_correct_baseline() {
        for bind in [BindConfig::KunpengSameNode, BindConfig::KunpengCrossNodes] {
            let pilot = tput(
                bind,
                PcVariant::Pilot {
                    avail: Barrier::DmbLd,
                },
            );
            let best = tput(bind, baseline(Barrier::DmbLd, Barrier::DmbSt));
            assert!(
                pilot > best,
                "{bind:?}: Pilot {pilot} over DMB ld-DMB st {best}"
            );
        }
    }

    #[test]
    fn fig6b_pilot_gain_larger_cross_node_than_mobile() {
        let gain = |bind| {
            tput(
                bind,
                PcVariant::Pilot {
                    avail: Barrier::DmbLd,
                },
            ) / tput(bind, baseline(Barrier::DmbLd, Barrier::DmbSt))
        };
        let cross = gain(BindConfig::KunpengCrossNodes);
        let rpi = gain(BindConfig::RaspberryPi4);
        assert!(cross > rpi, "cross-node gain {cross} vs rpi {rpi}");
        assert!(
            cross > 1.3,
            "cross-node gain should be substantial, got {cross}"
        );
    }

    #[test]
    fn fig6c_batching_amortizes_the_pilot_advantage() {
        let bind = BindConfig::KunpengCrossNodes;
        let speedup = |batch| {
            let p = run_prodcons(
                bind,
                PcVariant::Pilot {
                    avail: Barrier::DmbLd,
                },
                MSGS,
                batch,
                10,
            )
            .msgs_per_sec;
            let b = run_prodcons(
                bind,
                baseline(Barrier::DmbLd, Barrier::DmbSt),
                MSGS,
                batch,
                10,
            )
            .msgs_per_sec;
            p / b
        };
        let s1 = speedup(1);
        let s4 = speedup(4);
        assert!(s1 > s4, "speedup declines with batch size: {s1} vs {s4}");
        assert!(s4 > 0.95, "Pilot never costs more than ~5% (worst case)");
    }

    #[test]
    fn determinism() {
        let v = PcVariant::Pilot {
            avail: Barrier::DmbLd,
        };
        let a = run_prodcons(BindConfig::Kirin970, v, 100, 1, 10);
        let b = run_prodcons(BindConfig::Kirin970, v, 100, 1, 10);
        assert_eq!(a.cycles, b.cycles);
    }
}
