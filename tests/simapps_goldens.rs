//! Integration: pinned simulated cycle counts for every `simapps` workload.
//!
//! The committed CSVs sweep the Figure 7(b) barrier pairs over FFWD only;
//! this grid is the gate on the request-barrier paths of the other four
//! delegation designs, on the in-place locks' release barrier, and on the
//! producer-consumer, barrier-synchronization and abstract-model threads.
//! The numbers are exact simulator output: any change to the op stream a
//! thread emits moves them.

use armbar_barriers::{Barrier, ResponseMode};
use armbar_sim::Platform;
use armbar_simapps::abstract_model::{run_model, BarrierLoc, ModelSpec};
use armbar_simapps::barrier_sim::{run_barrier, BarrierConfig, BarrierFamily};
use armbar_simapps::delegation_sim::{
    run_delegation, DelegationConfig, DelegationKind, FIG7B_COMBOS,
};
use armbar_simapps::mcs_sim::{run_mcs, McsConfig};
use armbar_simapps::prodcons::{run_prodcons, PcVariant, FIG6A_COMBOS};
use armbar_simapps::ticket_sim::{run_ticket, TicketConfig};
use armbar_simapps::BindConfig;

/// Cycles per `FIG7B_COMBOS` entry, for each kind in `DelegationKind::ALL`
/// order × {Flag, Pilot}, at 4 clients × 10 requests on Kunpeng916.
const DELEGATION_CYCLES: [(&str, ResponseMode, [u64; 7]); 10] = [
    (
        "ffwd",
        ResponseMode::Flag,
        [4023, 2343, 2366, 3330, 2341, 1697, 1594],
    ),
    (
        "ffwd",
        ResponseMode::Pilot,
        [2109, 1714, 1737, 3274, 1634, 1737, 1634],
    ),
    (
        "dsynch",
        ResponseMode::Flag,
        [7549, 5666, 5666, 7293, 5658, 4861, 4808],
    ),
    (
        "dsynch",
        ResponseMode::Pilot,
        [6922, 5343, 5343, 6849, 5290, 5343, 5290],
    ),
    (
        "rcl",
        ResponseMode::Flag,
        [4299, 2524, 2547, 3498, 2522, 1737, 1642],
    ),
    (
        "rcl",
        ResponseMode::Pilot,
        [2109, 1714, 1737, 3274, 1634, 1737, 1634],
    ),
    (
        "flatcomb",
        ResponseMode::Flag,
        [5889, 4641, 4641, 5549, 4727, 3662, 3594],
    ),
    (
        "flatcomb",
        ResponseMode::Pilot,
        [4951, 3803, 3803, 5363, 3723, 3803, 3723],
    ),
    (
        "ccsynch",
        ResponseMode::Flag,
        [6404, 6545, 6490, 6392, 6479, 6069, 6031],
    ),
    (
        "ccsynch",
        ResponseMode::Pilot,
        [6028, 5895, 5790, 5822, 5817, 5790, 5817],
    ),
];

/// `(release barrier, global lines, ticket cycles, MCS cycles)` at
/// 4 threads × 10 acquisitions on Kunpeng916, other knobs at their defaults.
const IN_PLACE_CYCLES: [(Barrier, u32, u64, u64); 6] = [
    (Barrier::None, 0, 1469, 2556),
    (Barrier::None, 2, 3700, 4674),
    (Barrier::DmbSt, 0, 2178, 2941),
    (Barrier::DmbSt, 2, 5520, 5482),
    (Barrier::DmbFull, 0, 2177, 3131),
    (Barrier::DmbFull, 2, 5519, 6473),
];

/// Producer cycles per `FIG6A_COMBOS` entry on Kunpeng916 cross nodes, 40
/// messages with 10 nops of work each, at batch sizes {1, 2}: the baseline
/// under the pair, then the Pilot ring keeping the pair's `avail` barrier.
const PRODCONS_CYCLES: [(&str, [u64; 2], [u64; 2]); 7] = [
    ("DMB full - DMB full", [15421, 7766], [6886, 5789]),
    ("DMB full - DMB st", [17696, 8324], [6886, 5789]),
    ("DMB ld - DMB st", [9151, 7382], [5842, 5826]),
    ("LDAR - DMB st", [9151, 7537], [6887, 5922]),
    ("DMB full - STLR", [20536, 10356], [6886, 5789]),
    ("DMB ld - No Barrier", [6707, 6554], [5842, 5826]),
    ("Ideal", [6706, 6554], [5811, 5826]),
];

/// `(family, cycles at 4 threads, cycles at 64 threads)` for 5 rounds on
/// `Platform::manycore(64)`, other knobs at their defaults.
const BARRIER_CYCLES: [(BarrierFamily, u64, u64); 3] = [
    (BarrierFamily::Centralized, 694, 8604),
    (BarrierFamily::CombiningTree, 694, 2022),
    (BarrierFamily::Hierarchical, 819, 2809),
];

/// Abstract-model cycles per `Barrier::ALL` entry on Kunpeng916 cross nodes,
/// 50 iterations, at 30 and at 300 nops, each in [`MODEL_SHAPES`] order.
const MODEL_CYCLES: [(Barrier, [u64; 5], [u64; 5]); 15] = [
    (
        Barrier::None,
        [601, 4025, 4025, 2201, 2201],
        [5101, 5293, 5293, 11159, 11159],
    ),
    (
        Barrier::DmbFull,
        [622, 11760, 11760, 11760, 11760],
        [5122, 14659, 11760, 14659, 11360],
    ),
    (
        Barrier::DmbSt,
        [618, 11662, 11662, 11443, 11448],
        [5118, 11662, 11662, 11650, 11164],
    ),
    (
        Barrier::DmbLd,
        [619, 4026, 4029, 8310, 8310],
        [5119, 5310, 5361, 11209, 11210],
    ),
    (
        Barrier::DsbFull,
        [21650, 29760, 29260, 29760, 29260],
        [26150, 34260, 29260, 34260, 32160],
    ),
    (
        Barrier::DsbSt,
        [21650, 29760, 29260, 29504, 29014],
        [26150, 34260, 29260, 34004, 32160],
    ),
    (
        Barrier::DsbLd,
        [21650, 21811, 21811, 29760, 29260],
        [26150, 26311, 26311, 34260, 32160],
    ),
    (
        Barrier::Isb,
        [2600, 4105, 4105, 2761, 2761],
        [7100, 7261, 7261, 11160, 13110],
    ),
    (
        Barrier::Ldar,
        [601, 4025, 4025, 8260, 8260],
        [5101, 5293, 5293, 11159, 11159],
    ),
    (
        Barrier::Ldapr,
        [601, 4025, 4025, 2201, 2201],
        [5101, 5293, 5293, 11159, 11159],
    ),
    (
        Barrier::Stlr,
        [601, 14662, 14662, 14662, 14662],
        [5101, 14662, 14662, 14719, 14719],
    ),
    (
        Barrier::DataDep,
        [601, 4025, 4025, 2351, 2351],
        [5101, 5293, 5293, 11159, 11159],
    ),
    (
        Barrier::AddrDep,
        [601, 4025, 4025, 2351, 2351],
        [5101, 5293, 5293, 11159, 11159],
    ),
    (
        Barrier::Ctrl,
        [601, 4025, 4025, 2351, 2351],
        [5101, 5293, 5293, 11159, 11159],
    ),
    (
        Barrier::CtrlIsb,
        [2650, 4107, 4107, 10760, 10260],
        [7150, 7311, 7311, 15260, 13160],
    ),
];

/// A `ModelSpec` from the barrier under test and the nop count.
type Shape = fn(Barrier, u32) -> ModelSpec;

/// The five Algorithm 1 shapes the figures use: each `ModelSpec`
/// constructor at each barrier location (`no_mem` has only one).
const MODEL_SHAPES: [(&str, Shape); 5] = [
    ("no_mem", ModelSpec::no_mem),
    ("store_store/AfterOp1", |b, n| {
        ModelSpec::store_store(b, BarrierLoc::AfterOp1, n)
    }),
    ("store_store/BeforeOp2", |b, n| {
        ModelSpec::store_store(b, BarrierLoc::BeforeOp2, n)
    }),
    ("load_store/AfterOp1", |b, n| {
        ModelSpec::load_store(b, BarrierLoc::AfterOp1, n)
    }),
    ("load_store/BeforeOp2", |b, n| {
        ModelSpec::load_store(b, BarrierLoc::BeforeOp2, n)
    }),
];

#[test]
fn delegation_cycles_are_pinned_for_every_kind_mode_and_barrier_pair() {
    let platform = Platform::kunpeng916();
    let mut rows = DELEGATION_CYCLES.iter();
    for kind in DelegationKind::ALL {
        for mode in [ResponseMode::Flag, ResponseMode::Pilot] {
            let &(label, pinned_mode, expected) = rows.next().expect("one row per kind × mode");
            assert_eq!((label, pinned_mode), (kind.label(), mode), "row order");
            for (&(combo, barriers), want) in FIG7B_COMBOS.iter().zip(expected) {
                let got = run_delegation(
                    &platform,
                    DelegationConfig {
                        kind,
                        clients: 4,
                        barriers,
                        mode,
                        per_client: 10,
                        ..DelegationConfig::default_ffwd()
                    },
                )
                .cycles;
                assert_eq!(got, want, "{label}/{mode:?} with `{combo}`");
            }
        }
    }
}

#[test]
fn in_place_lock_cycles_are_pinned_for_every_release_barrier() {
    let platform = Platform::kunpeng916();
    for (release_barrier, global_lines, ticket, mcs) in IN_PLACE_CYCLES {
        let got = run_ticket(
            &platform,
            TicketConfig {
                threads: 4,
                global_lines,
                release_barrier,
                per_thread: 10,
                ..TicketConfig::default()
            },
        )
        .cycles;
        assert_eq!(
            got, ticket,
            "ticket with {release_barrier:?} and {global_lines} global lines"
        );
        let got = run_mcs(
            &platform,
            McsConfig {
                threads: 4,
                global_lines,
                release_barrier,
                per_thread: 10,
                ..McsConfig::default()
            },
        )
        .cycles;
        assert_eq!(
            got, mcs,
            "mcs with {release_barrier:?} and {global_lines} global lines"
        );
    }
}

#[test]
fn prodcons_cycles_are_pinned_for_every_variant_and_barrier_pair() {
    let bind = BindConfig::KunpengCrossNodes;
    for (&(combo, barriers), (label, baseline, pilot)) in FIG6A_COMBOS.iter().zip(PRODCONS_CYCLES) {
        assert_eq!(combo, label, "row order");
        let variants = [
            ("baseline", PcVariant::Baseline(barriers), baseline),
            (
                "pilot",
                PcVariant::Pilot {
                    avail: barriers.avail,
                },
                pilot,
            ),
        ];
        for (name, variant, expected) in variants {
            for (batch, want) in [1, 2].into_iter().zip(expected) {
                let got = run_prodcons(bind, variant, 40, batch, 10).cycles;
                assert_eq!(got, want, "{name} with `{combo}` at batch {batch}");
            }
        }
    }
}

#[test]
fn barrier_cycles_are_pinned_for_every_family_small_and_large() {
    let platform = Platform::manycore(64);
    for (&family, (pinned, small, large)) in BarrierFamily::ALL.iter().zip(BARRIER_CYCLES) {
        assert_eq!(family, pinned, "row order");
        for (threads, want) in [(4, small), (64, large)] {
            let got = run_barrier(
                &platform,
                BarrierConfig {
                    family,
                    threads,
                    rounds: 5,
                    ..BarrierConfig::default()
                },
            )
            .cycles;
            assert_eq!(got, want, "{family:?} barrier with {threads} threads");
        }
    }
}

#[test]
fn model_cycles_are_pinned_for_every_shape_location_and_barrier() {
    let bind = BindConfig::KunpengCrossNodes;
    for (&barrier, (pinned, at_30, at_300)) in Barrier::ALL.iter().zip(MODEL_CYCLES) {
        assert_eq!(barrier, pinned, "row order");
        for (nops, expected) in [(30, at_30), (300, at_300)] {
            for ((shape, spec), want) in MODEL_SHAPES.iter().zip(expected) {
                let got = run_model(bind, spec(barrier, nops), 50).cycles;
                assert_eq!(got, want, "{shape} with {barrier:?} at {nops} nops");
            }
        }
    }
}
