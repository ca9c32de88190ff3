//! Integration: pinned simulated cycle counts for the lock workloads.
//!
//! The committed CSVs sweep the Figure 7(b) barrier pairs over FFWD only;
//! this grid is the gate on the request-barrier paths of the other four
//! delegation designs, and on the in-place locks' release barrier. The
//! numbers are exact simulator output: any change to the op stream a thread
//! emits moves them.

use armbar_barriers::{Barrier, ResponseMode};
use armbar_sim::Platform;
use armbar_simapps::delegation_sim::{
    run_delegation, DelegationConfig, DelegationKind, FIG7B_COMBOS,
};
use armbar_simapps::mcs_sim::{run_mcs, McsConfig};
use armbar_simapps::ticket_sim::{run_ticket, TicketConfig};

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
