//! The four ablations of EXPERIMENTS.md ("Ablations"), pinned on
//! *simulated* numbers: each test flips one mechanism and asserts that the
//! paper shape it is said to carry moves with it. A switch that stops
//! changing the number it names fails here.

use armbar::prelude::*;
use armbar_simapps::abstract_model::run_model_on;

const ITERS: u64 = 200;

/// Store->store abstract model on the server profile, thread on core 0,
/// buffers homed on `peer` (1 = same node, 32 = the other node).
fn tput(platform: &Platform, peer: usize, barrier: Barrier, loc: BarrierLoc, nops: u32) -> f64 {
    let spec = ModelSpec::store_store(barrier, loc, nops);
    run_model_on(platform, 0, peer, spec, ITERS).loops_per_sec
}

/// Figure 4's "DMB full-1 ≈ half of full-2" is ROB back-pressure: a DMB
/// that retires at once lets the nops flow and the ratio goes to ≈ 1.
#[test]
fn rob_back_pressure_carries_the_figure_4_half_ratio() {
    let ratio = |p: &Platform| {
        tput(p, 32, Barrier::DmbFull, BarrierLoc::AfterOp1, 700)
            / tput(p, 32, Barrier::DmbFull, BarrierLoc::BeforeOp2, 700)
    };
    let holds = Platform::kunpeng916();
    let mut free = Platform::kunpeng916();
    free.latency.dmb_holds_rob = false;
    let (held, freed) = (ratio(&holds), ratio(&free));
    assert!((0.35..=0.7).contains(&held), "≈ one half, got {held}");
    assert!(
        freed > 0.9,
        "without the held slot full-1 ≈ full-2: {freed}"
    );
}

/// Observation 3 (STLR loses to the *stronger* DMB full) is the
/// domain-scope routing cost `t_stlr`: priced like a bi-section membar,
/// STLR is never slower than DMB st, same node or across nodes.
#[test]
fn domain_scope_routing_carries_stlr_instability() {
    let domain = Platform::kunpeng916();
    let mut bisection = Platform::kunpeng916();
    bisection.latency.t_stlr = bisection.latency.t_membar_bisection;
    for peer in [1, 32] {
        let t = |p: &Platform, b| tput(p, peer, b, BarrierLoc::BeforeOp2, 150);
        assert!(
            t(&domain, Barrier::Stlr) < 0.85 * t(&domain, Barrier::DmbFull),
            "peer {peer}: routed to the domain boundary STLR loses to DMB full"
        );
        assert!(
            t(&bisection, Barrier::Stlr) >= t(&bisection, Barrier::DmbSt),
            "peer {peer}: at bi-section scope STLR behaves like the weaker barrier it is"
        );
    }
}

/// A FIFO (x86-style) store buffer serializes independent drains: with no
/// barrier at all, store->store throughput drops.
#[test]
fn non_fifo_store_buffer_carries_no_barrier_throughput() {
    let weak = Platform::kunpeng916();
    let mut fifo = Platform::kunpeng916();
    fifo.latency.fifo_store_buffer = true;
    let t = |p: &Platform| tput(p, 32, Barrier::None, BarrierLoc::BeforeOp2, 10);
    assert!(t(&fifo) < 0.5 * t(&weak), "{} vs {}", t(&fifo), t(&weak));
}

/// Pilot's seed shuffle is what keeps a constant stream off the flag
/// fallback: a 1-seed pool collides on every send that reuses a slot (all
/// but the first lap of the 8-slot ring); delivery stays correct.
#[test]
fn hash_pool_shuffle_carries_pilot_on_constant_streams() {
    let fallbacks = |pool: &HashPool| {
        let (mut tx, mut rx) = pilot_ring(8, pool, Barrier::None);
        for _ in 0..500 {
            tx.send(7);
            assert_eq!(rx.recv(), 7);
        }
        tx.fallbacks
    };
    assert_eq!(fallbacks(&HashPool::default_pool()), 0);
    assert_eq!(fallbacks(&HashPool::new(42, 1)), 500 - 8);
}
