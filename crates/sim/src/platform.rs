//! Platform profiles: the paper's four target machines (Table 2).
//!
//! A [`Platform`] bundles a [`Topology`] with a
//! [`LatencyParams`] calibration. Latencies are in core cycles. The values
//! are *not* measured from the real machines — they are chosen so that the
//! paper's qualitative shapes emerge (see `DESIGN.md` §3 and the calibration
//! tests in `armbar-simapps`): the server profile has an expensive,
//! deep interconnect (large barrier-transaction and cross-node snoop
//! latencies), while the mobile profiles have a flat, cheap CCI-550-style
//! interconnect, which is why barrier choice matters so much less there
//! (Observation 4).

use crate::topology::Topology;
use crate::types::{Cycle, DistanceClass};

/// Which of the paper's machines a profile models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformKind {
    /// Kunpeng 916 server: 2 NUMA nodes × 32 Cortex-A72 cores, 2.4 GHz.
    Kunpeng916,
    /// Kirin 960 mobile SoC: 4 × A73 + 4 × A53 (big.LITTLE), 2.1 GHz,
    /// CCI-550 interconnect.
    Kirin960,
    /// Kirin 970 mobile SoC: 4 × A73 + 4 × A53, 2.36 GHz, CCI-550.
    Kirin970,
    /// Raspberry Pi 4: 4 × Cortex-A72, 1.5 GHz.
    RaspberryPi4,
}

impl PlatformKind {
    /// All four platforms, in the paper's Table 2 order.
    pub const ALL: [PlatformKind; 4] = [
        PlatformKind::Kunpeng916,
        PlatformKind::Kirin960,
        PlatformKind::Kirin970,
        PlatformKind::RaspberryPi4,
    ];

    /// Display name matching the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PlatformKind::Kunpeng916 => "Kunpeng916",
            PlatformKind::Kirin960 => "Kirin960",
            PlatformKind::Kirin970 => "Kirin970",
            PlatformKind::RaspberryPi4 => "Raspberry Pi 4",
        }
    }
}

/// Pipeline and interconnect latency calibration, all in cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyParams {
    /// Instructions issued per cycle.
    pub issue_width: u32,
    /// Instructions retired per cycle.
    pub retire_width: u32,
    /// Re-order buffer capacity (instructions in flight).
    pub rob_size: u32,
    /// Store buffer capacity (pending stores).
    pub sb_size: u32,
    /// Maximum concurrent store-buffer drains (coherence ports).
    pub sb_drain_ports: u32,
    /// Maximum outstanding load misses (MSHRs).
    pub max_outstanding_loads: u32,
    /// L1 hit latency.
    pub t_l1_hit: Cycle,
    /// Line transfer from a sibling core in the same cluster.
    pub t_same_cluster: Cycle,
    /// Line transfer across clusters within a node (bi-section crossing).
    pub t_cross_cluster: Cycle,
    /// Line transfer across NUMA nodes (domain crossing).
    pub t_cross_node: Cycle,
    /// Line fill from memory.
    pub t_memory: Cycle,
    /// Memory-barrier transaction response with no outstanding traffic.
    pub t_membar_idle: Cycle,
    /// Memory-barrier transaction response latency added after the issuing
    /// core's outstanding transactions finish, when snooping stayed within
    /// one node (answered at the bi-section boundary).
    pub t_membar_bisection: Cycle,
    /// Same, when cross-node snooping was involved (answered at the domain
    /// boundary).
    pub t_membar_domain: Cycle,
    /// Synchronization-barrier transaction response latency (always the
    /// domain boundary; insensitive to locality — Observation 5).
    pub t_syncbar: Cycle,
    /// Extra drain latency of a store-release (STLR): its conservative
    /// implementation waits on a domain-scope transaction, which puts its
    /// cost between DMB st and DSB (Observation 3).
    pub t_stlr: Cycle,
    /// Pipeline refill after an ISB flush.
    pub t_isb_flush: Cycle,
    /// Core clock in MHz, used only to convert cycles to wall-clock rates
    /// when printing paper-style "10^6 loops/s" numbers.
    pub clock_mhz: u64,
    /// Ablation knob: whether DMB-class barriers hold their re-order-buffer
    /// slot until the bus responds (the Figure 4 back-pressure mechanism).
    /// True on every real profile.
    pub dmb_holds_rob: bool,
    /// Ablation knob: force the store buffer to drain in FIFO order
    /// (x86-style). False on every real profile — ARM's buffer is not
    /// ordered (§6).
    pub fifo_store_buffer: bool,
}

impl LatencyParams {
    /// Latency of transferring a line at the given distance.
    #[must_use]
    pub fn transfer_latency(&self, d: DistanceClass) -> Cycle {
        match d {
            DistanceClass::Local => self.t_l1_hit,
            DistanceClass::SameCluster => self.t_same_cluster,
            DistanceClass::CrossCluster => self.t_cross_cluster,
            DistanceClass::CrossNode => self.t_cross_node,
            DistanceClass::Memory => self.t_memory,
        }
    }
}

/// A complete simulated machine model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Platform {
    /// Which machine this models.
    pub kind: PlatformKind,
    /// Core/cluster/node layout.
    pub topology: Topology,
    /// Latency calibration.
    pub latency: LatencyParams,
}

impl Platform {
    /// Kunpeng 916 ARM server: 2 nodes × 32 cores (8 clusters of 4 per
    /// node, CCN-style), deep interconnect. "One of the most advanced ARM
    /// servers available" — and the machine where barriers hurt most.
    #[must_use]
    pub fn kunpeng916() -> Platform {
        Platform {
            kind: PlatformKind::Kunpeng916,
            topology: Topology::new(&[&[4, 4, 4, 4, 4, 4, 4, 4], &[4, 4, 4, 4, 4, 4, 4, 4]]),
            latency: LatencyParams {
                issue_width: 3,
                retire_width: 3,
                rob_size: 128,
                sb_size: 24,
                sb_drain_ports: 4,
                max_outstanding_loads: 8,
                t_l1_hit: 2,
                t_same_cluster: 25,
                t_cross_cluster: 35,
                t_cross_node: 160,
                t_memory: 120,
                t_membar_idle: 4,
                t_membar_bisection: 15,
                t_membar_domain: 70,
                t_syncbar: 420,
                t_stlr: 130,
                t_isb_flush: 40,
                clock_mhz: 2400,
                dmb_holds_rob: true,
                fifo_store_buffer: false,
            },
        }
    }

    /// Kirin 960: big.LITTLE (4×A73 + 4×A53) behind a CCI-550. The paper
    /// binds threads to the big cluster; cores 0..4 are the big cluster.
    #[must_use]
    pub fn kirin960() -> Platform {
        Platform {
            kind: PlatformKind::Kirin960,
            topology: Topology::new(&[&[4, 4]]),
            latency: LatencyParams {
                issue_width: 2,
                retire_width: 2,
                rob_size: 64,
                sb_size: 16,
                sb_drain_ports: 2,
                max_outstanding_loads: 6,
                t_l1_hit: 2,
                t_same_cluster: 14,
                t_cross_cluster: 22,
                t_cross_node: 22, // single node; unused
                t_memory: 90,
                t_membar_idle: 2,
                t_membar_bisection: 4,
                t_membar_domain: 7,
                t_syncbar: 55,
                t_stlr: 25,
                t_isb_flush: 14,
                clock_mhz: 2100,
                dmb_holds_rob: true,
                fifo_store_buffer: false,
            },
        }
    }

    /// Kirin 970: same micro-architecture family as Kirin 960, slightly
    /// higher clock and marginally better interconnect.
    #[must_use]
    pub fn kirin970() -> Platform {
        let mut p = Platform::kirin960();
        p.kind = PlatformKind::Kirin970;
        p.latency.clock_mhz = 2360;
        p.latency.t_same_cluster = 12;
        p.latency.t_cross_cluster = 20;
        p.latency.t_syncbar = 50;
        p
    }

    /// Raspberry Pi 4: four A72 cores in one cluster, modest clock, simple
    /// interconnect.
    #[must_use]
    pub fn raspberry_pi4() -> Platform {
        Platform {
            kind: PlatformKind::RaspberryPi4,
            topology: Topology::new(&[&[4]]),
            latency: LatencyParams {
                issue_width: 2,
                retire_width: 2,
                rob_size: 64,
                sb_size: 16,
                sb_drain_ports: 2,
                max_outstanding_loads: 6,
                t_l1_hit: 2,
                t_same_cluster: 20,
                t_cross_cluster: 20, // single cluster; unused
                t_cross_node: 20,    // single node; unused
                t_memory: 110,
                t_membar_idle: 2,
                t_membar_bisection: 5,
                t_membar_domain: 8,
                t_syncbar: 60,
                t_stlr: 45,
                t_isb_flush: 14,
                clock_mhz: 1500,
                dmb_holds_rob: true,
                fifo_store_buffer: false,
            },
        }
    }

    /// The paper's closing future-work item (§6): a next-generation
    /// **multi-copy-atomic** server, per ACE5's recommendation that
    /// "processors are recommended to terminate barriers internally if the
    /// system is MCA" \[36\]. Memory-barrier transactions never travel to the
    /// interconnect: their response cost collapses to the idle constant,
    /// and the synchronization barrier shrinks to a drain-local wait.
    /// Everything else (coherence distances, pipeline) matches Kunpeng916,
    /// so comparing the two isolates the barrier-transaction cost.
    #[must_use]
    pub fn kunpeng916_mca() -> Platform {
        let mut p = Platform::kunpeng916();
        p.latency.t_membar_bisection = p.latency.t_membar_idle;
        p.latency.t_membar_domain = p.latency.t_membar_idle;
        p.latency.t_syncbar = 40;
        p.latency.t_stlr = p.latency.t_membar_idle;
        p
    }

    /// A scaled-out Kunpeng-class server for the many-core experiments:
    /// `cores` cores (a multiple of 64, at least 64) as `cores / 64` NUMA
    /// nodes of 8 clusters × 8 cores, with the Kunpeng 916 latency
    /// calibration. The `kind` stays [`PlatformKind::Kunpeng916`] — this is
    /// a hypothetical stretch of that machine, not a fifth paper platform —
    /// and cache keys stay distinct because they embed the full topology.
    ///
    /// # Panics
    ///
    /// Panics unless `cores` is a positive multiple of 64.
    #[must_use]
    pub fn manycore(cores: usize) -> Platform {
        assert!(
            cores >= 64 && cores.is_multiple_of(64),
            "many-core platforms come in multiples of 64 cores, got {cores}"
        );
        let mut p = Platform::kunpeng916();
        p.topology = Topology::uniform(cores / 64, 8, 8);
        p
    }

    /// The many-core machine with the multi-copy-atomic interconnect of
    /// [`Platform::kunpeng916_mca`]: same topology as
    /// [`Platform::manycore`], barrier transactions terminated internally.
    ///
    /// # Panics
    ///
    /// Panics unless `cores` is a positive multiple of 64.
    #[must_use]
    pub fn manycore_mca(cores: usize) -> Platform {
        let mut p = Platform::kunpeng916_mca();
        p.topology = Platform::manycore(cores).topology;
        p
    }

    /// Build a platform by kind.
    #[must_use]
    pub fn of(kind: PlatformKind) -> Platform {
        match kind {
            PlatformKind::Kunpeng916 => Platform::kunpeng916(),
            PlatformKind::Kirin960 => Platform::kirin960(),
            PlatformKind::Kirin970 => Platform::kirin970(),
            PlatformKind::RaspberryPi4 => Platform::raspberry_pi4(),
        }
    }

    /// Convert a `cycles / iterations` measurement into iterations per
    /// second at this platform's clock.
    #[must_use]
    pub fn iterations_per_second(&self, iterations: u64, cycles: Cycle) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        (iterations as f64) * (self.latency.clock_mhz as f64) * 1e6 / (cycles as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kunpeng_is_a_two_node_64_core_machine() {
        let p = Platform::kunpeng916();
        assert_eq!(p.topology.node_count(), 2);
        assert_eq!(p.topology.core_count(), 64);
    }

    #[test]
    fn mobile_platforms_are_single_node() {
        for k in [
            PlatformKind::Kirin960,
            PlatformKind::Kirin970,
            PlatformKind::RaspberryPi4,
        ] {
            assert_eq!(Platform::of(k).topology.node_count(), 1, "{}", k.name());
        }
    }

    #[test]
    fn server_interconnect_is_much_deeper_than_mobile() {
        // Observation 4 prerequisite: barrier transactions cost far more on
        // the server profile.
        let server = Platform::kunpeng916().latency;
        for m in [
            Platform::kirin960(),
            Platform::kirin970(),
            Platform::raspberry_pi4(),
        ] {
            assert!(server.t_membar_domain > 5 * m.latency.t_membar_domain);
            assert!(server.t_syncbar > 5 * m.latency.t_syncbar);
        }
    }

    #[test]
    fn stlr_sits_between_dmb_st_and_dsb_cost() {
        // Observation 3 prerequisite: STLR's drain latency is above the
        // membar bi-section response but below the syncbar response.
        for k in PlatformKind::ALL {
            let l = Platform::of(k).latency;
            assert!(l.t_stlr > l.t_membar_bisection, "{}", k.name());
            assert!(l.t_stlr < l.t_syncbar, "{}", k.name());
        }
    }

    #[test]
    fn transfer_latency_monotone_in_distance() {
        for k in PlatformKind::ALL {
            let l = Platform::of(k).latency;
            assert!(l.t_l1_hit < l.t_same_cluster);
            assert!(l.t_same_cluster <= l.t_cross_cluster);
            assert!(l.t_cross_cluster <= l.t_cross_node);
        }
    }

    #[test]
    fn iterations_per_second_conversion() {
        let p = Platform::kunpeng916(); // 2.4 GHz
                                        // 240 cycles per iteration -> 10^7 iterations/s.
        let ips = p.iterations_per_second(1000, 240_000);
        assert!((ips - 1e7).abs() < 1.0);
    }

    #[test]
    fn mca_profile_terminates_barriers_internally() {
        let mca = Platform::kunpeng916_mca();
        let base = Platform::kunpeng916();
        assert_eq!(mca.latency.t_membar_domain, mca.latency.t_membar_idle);
        assert!(mca.latency.t_syncbar < base.latency.t_syncbar / 5);
        // Coherence costs are untouched: the comparison isolates barriers.
        assert_eq!(mca.latency.t_cross_node, base.latency.t_cross_node);
        assert_eq!(mca.topology.core_count(), base.topology.core_count());
    }

    #[test]
    fn manycore_platforms_scale_the_kunpeng_shape() {
        for cores in [64usize, 256, 512, 1024] {
            let p = Platform::manycore(cores);
            assert_eq!(p.topology.core_count(), cores);
            assert_eq!(p.topology.node_count(), cores / 64);
            assert_eq!(p.kind, PlatformKind::Kunpeng916);
            assert_eq!(p.latency, Platform::kunpeng916().latency);
            let mca = Platform::manycore_mca(cores);
            assert_eq!(mca.topology, p.topology);
            assert_eq!(mca.latency, Platform::kunpeng916_mca().latency);
        }
        // Distinct topologies mean distinct Debug forms (the cache key).
        assert_ne!(
            format!("{:?}", Platform::manycore(256)),
            format!("{:?}", Platform::manycore(512)),
        );
    }

    #[test]
    #[should_panic(expected = "multiples of 64")]
    fn manycore_rejects_odd_sizes() {
        let _ = Platform::manycore(100);
    }

    #[test]
    fn table2_names() {
        assert_eq!(PlatformKind::Kunpeng916.name(), "Kunpeng916");
        assert_eq!(PlatformKind::RaspberryPi4.name(), "Raspberry Pi 4");
    }
}
