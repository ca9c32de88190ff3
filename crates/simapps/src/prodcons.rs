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
use armbar_sim::{Op, SimThread, StallBreakdown, ThreadCtx, Trace};

use crate::bind::BindConfig;
use crate::harness::{machine, RunOpts};
use crate::lower::{fence_op, order_after_load};

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

/// What [`Production::step`] asks of the producer embedding it.
enum Produce {
    /// Issue this op.
    Emit(Op),
    /// Fill the slot of message `seq` — where the two producers differ.
    Fill(u64),
    /// A whole batch is in the ring (`prod_cnt` already counts it).
    BatchDone,
}

/// The loop both producers run around their slot fill: wait until a whole
/// batch fits (Algorithm 2 lines 1-3), do each message's local work, and
/// end the iteration once the batch is out.
struct Production {
    avail: Barrier,
    produce_nops: u32,
    batch: u64,
    iterations: u64,
    prod_cnt: u64,
    in_batch: u64,
    phase: u8,
}

impl Production {
    fn new(avail: Barrier, produce_nops: u32, batch: u64, iterations: u64) -> Production {
        Production {
            avail,
            produce_nops,
            batch,
            iterations,
            prod_cnt: 0,
            in_batch: 0,
            phase: 0,
        }
    }

    fn step(&mut self, ctx: &ThreadCtx) -> Produce {
        loop {
            match self.phase {
                // Line 1-2: availability check (whole batch must fit).
                0 => {
                    self.phase = 1;
                    return Produce::Emit(Op::load_use(CONS_CNT));
                }
                // Line 3.
                1 => {
                    if self.prod_cnt + self.batch - ctx.last_value() > BUF_SLOTS {
                        self.phase = 0; // spin
                        return Produce::Emit(Op::Nops(1));
                    }
                    self.phase = 2;
                    self.in_batch = 0;
                    if let Some(op) = order_after_load(self.avail, CONS_CNT) {
                        return Produce::Emit(op);
                    }
                }
                // produceMsg(): local work.
                2 => {
                    self.phase = 3;
                    if self.produce_nops > 0 {
                        return Produce::Emit(Op::Nops(self.produce_nops));
                    }
                }
                3 => {
                    self.phase = 4;
                    return Produce::Fill(self.prod_cnt + self.in_batch);
                }
                4 => {
                    self.in_batch += 1;
                    if self.in_batch < self.batch {
                        self.phase = 2; // next message of the batch
                    } else {
                        self.prod_cnt += self.batch;
                        self.phase = 5;
                        return Produce::BatchDone;
                    }
                }
                _ => {
                    self.phase = 0;
                    return Produce::Emit(if self.prod_cnt >= self.iterations {
                        Op::Halt
                    } else {
                        Op::IterationMark
                    });
                }
            }
        }
    }
}

/// The baseline producer (Algorithm 2).
struct Producer {
    production: Production,
    publish: Barrier,
    state: u8,
}

impl SimThread for Producer {
    fn next(&mut self, ctx: &mut ThreadCtx) -> Op {
        loop {
            match self.state {
                0 => match self.production.step(ctx) {
                    Produce::Emit(op) => return op,
                    // Line 4: fill the slot (likely an RMR).
                    Produce::Fill(seq) => return Op::store(slot_addr(seq), msg_value(seq)),
                    Produce::BatchDone => self.state = 1,
                },
                // Line 5: the post-RMR barrier (once per batch).
                1 => {
                    self.state = 2;
                    if let Some(op) = fence_op(self.publish) {
                        return op;
                    }
                }
                // Line 6: publish the counter. The STLR variant makes this
                // store the release: it orders the buffer fill before the
                // counter without a standalone barrier.
                _ => {
                    self.state = 0;
                    let prod_cnt = self.production.prod_cnt;
                    if self.publish == Barrier::Stlr {
                        return Op::store_release(PROD_CNT, prod_cnt);
                    }
                    return Op::store(PROD_CNT, prod_cnt);
                }
            }
        }
    }
}

/// Running count of payload mismatches the consumer observed.
const CONS_ERRORS: u64 = 0x1100;

/// What either consumer does with a received message: check it, bump
/// `consCnt`, publish the error count, and retire after the last one.
struct Delivery {
    iterations: u64,
    cons_cnt: u64,
    errors: u64,
    phase: u8,
}

impl Delivery {
    fn new(iterations: u64) -> Delivery {
        Delivery {
            iterations,
            cons_cnt: 0,
            errors: 0,
            phase: 0,
        }
    }

    /// The next op after receiving `payload` as message `cons_cnt`, or
    /// `None` when the next message should be awaited.
    fn step(&mut self, payload: u64) -> Option<Op> {
        self.phase += 1;
        match self.phase {
            1 => {
                if payload != msg_value(self.cons_cnt) {
                    self.errors += 1;
                }
                self.cons_cnt += 1;
                Some(Op::store(CONS_CNT, self.cons_cnt))
            }
            2 => Some(Op::store(CONS_ERRORS, self.errors)),
            _ => {
                self.phase = 0;
                (self.cons_cnt >= self.iterations).then_some(Op::Halt)
            }
        }
    }
}

/// The baseline consumer: spins on `prodCnt`, reads the slot behind a
/// bogus address dependency (the cheap consumer side §4.1 describes),
/// bumps `consCnt`.
struct Consumer {
    delivery: Delivery,
    prod_seen: u64,
    state: u8,
}

impl SimThread for Consumer {
    fn next(&mut self, ctx: &mut ThreadCtx) -> Op {
        loop {
            let cons_cnt = self.delivery.cons_cnt;
            match self.state {
                0 => {
                    if self.prod_seen > cons_cnt {
                        self.state = 2;
                        continue;
                    }
                    self.state = 1;
                    return Op::load_use(PROD_CNT);
                }
                1 => {
                    self.prod_seen = ctx.last_value();
                    if self.prod_seen <= cons_cnt {
                        self.state = 0;
                        return Op::Nops(1);
                    }
                    self.state = 2;
                }
                2 => {
                    self.state = 3;
                    return Op::load_dep(slot_addr(cons_cnt), true);
                }
                _ => match self.delivery.step(ctx.last_value()) {
                    Some(op) => return op,
                    None => self.state = 0,
                },
            }
        }
    }
}

/// The Pilot producer (§4.4): slot published via Algorithm 3; `prodCnt`
/// stays core-private.
struct PilotProducer {
    production: Production,
    old_data: [u64; BUF_SLOTS as usize],
    local_flags: [u64; BUF_SLOTS as usize],
    /// The message whose slot is being piloted.
    filling: Option<u64>,
}

impl SimThread for PilotProducer {
    fn next(&mut self, ctx: &mut ThreadCtx) -> Op {
        if let Some(seq) = self.filling.take() {
            let idx = (seq % BUF_SLOTS) as usize;
            let new_data = msg_value(seq); // sequence-shuffled payload
            if new_data == self.old_data[idx] {
                self.local_flags[idx] ^= 1;
                return Op::store(flag_addr(seq), self.local_flags[idx]);
            }
            self.old_data[idx] = new_data;
            return Op::store(slot_addr(seq), new_data);
        }
        loop {
            match self.production.step(ctx) {
                Produce::Emit(op) => return op,
                // Algorithm 3 on the slot: the shuffle costs two local ALU
                // ops (all-local, <5% worst case per §4.5).
                Produce::Fill(seq) => {
                    self.filling = Some(seq);
                    return Op::Nops(2);
                }
                // Nothing to publish: the piloted slots were the messages.
                Produce::BatchDone => {}
            }
        }
    }
}

/// The Pilot consumer (Algorithm 4 per slot).
struct PilotConsumer {
    delivery: Delivery,
    old_data: [u64; BUF_SLOTS as usize],
    old_flags: [u64; BUF_SLOTS as usize],
    state: u8,
}

impl SimThread for PilotConsumer {
    fn next(&mut self, ctx: &mut ThreadCtx) -> Op {
        loop {
            let cons_cnt = self.delivery.cons_cnt;
            let idx = (cons_cnt % BUF_SLOTS) as usize;
            match self.state {
                // Line 1: watch the data word.
                0 => {
                    self.state = 1;
                    return Op::load_use(slot_addr(cons_cnt));
                }
                1 => {
                    let data = ctx.last_value();
                    if data != self.old_data[idx] {
                        self.old_data[idx] = data;
                        self.state = 3;
                        continue;
                    }
                    // Line 2: the fallback flag.
                    self.state = 2;
                    return Op::load_use(flag_addr(cons_cnt));
                }
                2 => {
                    if ctx.last_value() != self.old_flags[idx] {
                        self.old_flags[idx] = ctx.last_value();
                        self.state = 3;
                        continue;
                    }
                    self.state = 0;
                    return Op::Nops(1);
                }
                _ => match self.delivery.step(self.old_data[idx]) {
                    Some(op) => return op,
                    None => self.state = 0,
                },
            }
        }
    }
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
    match variant {
        PcVariant::Baseline(barriers) => {
            m.add_thread_on(
                prod_core,
                Box::new(Producer {
                    production: Production::new(barriers.avail, produce_nops, batch, messages),
                    publish: barriers.publish,
                    state: 0,
                }),
            );
            m.add_thread_on(
                cons_core,
                Box::new(Consumer {
                    delivery: Delivery::new(messages),
                    prod_seen: 0,
                    state: 0,
                }),
            );
        }
        PcVariant::Pilot { avail } => {
            m.add_thread_on(
                prod_core,
                Box::new(PilotProducer {
                    production: Production::new(avail, produce_nops, batch, messages),
                    old_data: [0; BUF_SLOTS as usize],
                    local_flags: [0; BUF_SLOTS as usize],
                    filling: None,
                }),
            );
            m.add_thread_on(
                cons_core,
                Box::new(PilotConsumer {
                    delivery: Delivery::new(messages),
                    old_data: [0; BUF_SLOTS as usize],
                    old_flags: [0; BUF_SLOTS as usize],
                    state: 0,
                }),
            );
        }
    }
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
