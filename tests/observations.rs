//! Integration: the paper's six observations, checked end to end across
//! crates (explorer semantics + simulator timings must agree with the
//! advisor's recommendations).

use armbar::prelude::*;
use armbar_simapps::abstract_model::run_model;

const ITERS: u64 = 300;

fn tput(bind: BindConfig, spec: ModelSpec) -> f64 {
    run_model(bind, spec, ITERS).loops_per_sec
}

#[test]
fn observation_1_intrinsic_overhead_order() {
    // DSB > ISB > DMB ≈ nothing, on every platform.
    for bind in [
        BindConfig::KunpengSameNode,
        BindConfig::Kirin960,
        BindConfig::Kirin970,
        BindConfig::RaspberryPi4,
    ] {
        let none = tput(bind, ModelSpec::no_mem(Barrier::None, 30));
        let dmb = tput(bind, ModelSpec::no_mem(Barrier::DmbFull, 30));
        let isb = tput(bind, ModelSpec::no_mem(Barrier::Isb, 30));
        let dsb = tput(bind, ModelSpec::no_mem(Barrier::DsbFull, 30));
        assert!(dsb < isb && isb < dmb && dmb <= none, "{bind:?}");
    }
}

#[test]
fn observation_2_location_determines_overhead() {
    let bind = BindConfig::KunpengCrossNodes;
    let after = tput(
        bind,
        ModelSpec::store_store(Barrier::DmbFull, BarrierLoc::AfterOp1, 700),
    );
    let away = tput(
        bind,
        ModelSpec::store_store(Barrier::DmbFull, BarrierLoc::BeforeOp2, 700),
    );
    assert!(
        after < 0.75 * away,
        "barrier strictly after the RMR costs: {after} vs {away}"
    );
}

#[test]
fn observation_3_stlr_unstable() {
    // Semantically weaker than DMB full…
    assert!(Barrier::Stlr.orders(AccessType::Store, AccessType::Store));
    assert!(!Barrier::Stlr.orders(AccessType::Store, AccessType::Load));
    // …yet slower in the store->store model on the server.
    let bind = BindConfig::KunpengCrossNodes;
    let stlr = tput(
        bind,
        ModelSpec::store_store(Barrier::Stlr, BarrierLoc::BeforeOp2, 700),
    );
    let full = tput(
        bind,
        ModelSpec::store_store(Barrier::DmbFull, BarrierLoc::BeforeOp2, 700),
    );
    let st = tput(
        bind,
        ModelSpec::store_store(Barrier::DmbSt, BarrierLoc::BeforeOp2, 700),
    );
    let dsb = tput(
        bind,
        ModelSpec::store_store(Barrier::DsbFull, BarrierLoc::BeforeOp2, 700),
    );
    assert!(stlr < full, "STLR loses to the stronger barrier");
    assert!(dsb < stlr && stlr < st, "STLR sits between DSB and DMB st");
}

#[test]
fn observation_4_server_suffers_more() {
    let spread = |bind| {
        tput(
            bind,
            ModelSpec::store_store(Barrier::None, BarrierLoc::BeforeOp2, 60),
        ) / tput(
            bind,
            ModelSpec::store_store(Barrier::DsbFull, BarrierLoc::BeforeOp2, 60),
        )
    };
    assert!(spread(BindConfig::KunpengCrossNodes) > 2.0 * spread(BindConfig::Kirin960));
}

#[test]
fn observation_5_crossing_nodes_is_a_killer_except_dsb() {
    let gain = |b| {
        tput(
            BindConfig::KunpengSameNode,
            ModelSpec::store_store(b, BarrierLoc::AfterOp1, 150),
        ) / tput(
            BindConfig::KunpengCrossNodes,
            ModelSpec::store_store(b, BarrierLoc::AfterOp1, 150),
        )
    };
    assert!(gain(Barrier::DmbFull) > 1.5, "DMB benefits from locality");
    assert!(gain(Barrier::DsbFull) < 1.3, "DSB does not");
}

#[test]
fn observation_6_bus_free_wins_and_is_sufficient() {
    // Timing: dependencies ≈ free.
    let bind = BindConfig::KunpengCrossNodes;
    let none = tput(
        bind,
        ModelSpec::load_store(Barrier::None, BarrierLoc::BeforeOp2, 300),
    );
    let dep = tput(
        bind,
        ModelSpec::load_store(Barrier::DataDep, BarrierLoc::BeforeOp2, 300),
    );
    assert!(dep > 0.9 * none);
    // Semantics: the free idiom really forbids the reordering.
    let lb = armbar::wmm::litmus::load_buffering(Barrier::DataDep);
    assert!(!lb.allowed(MemoryModel::ArmWmm));
}
