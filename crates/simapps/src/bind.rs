//! Thread-placement configurations the figures sweep.
//!
//! Each configuration fixes a platform and where the communicating parties
//! sit: the measured core, its peer (or the phantom "previous owner" of the
//! abstracted models' buffers), and — for lock benchmarks — how many
//! competitor cores exist and where.

use armbar_sim::{CoreId, Platform};

/// A named placement configuration, matching the paper's figure legends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BindConfig {
    /// Kunpeng916, both parties in one NUMA node (different clusters).
    KunpengSameNode,
    /// Kunpeng916, parties in different NUMA nodes ("crossing nodes is a
    /// killer").
    KunpengCrossNodes,
    /// Kirin960, both parties in the big cluster.
    Kirin960,
    /// Kirin970, both parties in the big cluster.
    Kirin970,
    /// Raspberry Pi 4, different cores.
    RaspberryPi4,
}

impl BindConfig {
    /// The five producer-consumer configurations of Figure 6, in display
    /// order.
    pub const ALL: [BindConfig; 5] = [
        BindConfig::KunpengSameNode,
        BindConfig::KunpengCrossNodes,
        BindConfig::Kirin960,
        BindConfig::Kirin970,
        BindConfig::RaspberryPi4,
    ];

    /// Display label matching the paper.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BindConfig::KunpengSameNode => "Kunpeng916 Same Node",
            BindConfig::KunpengCrossNodes => "Kunpeng916 Cross Nodes",
            BindConfig::Kirin960 => "Kirin960",
            BindConfig::Kirin970 => "Kirin970",
            BindConfig::RaspberryPi4 => "Raspberry Pi 4",
        }
    }

    /// Build the platform.
    #[must_use]
    pub fn platform(self) -> Platform {
        match self {
            BindConfig::KunpengSameNode | BindConfig::KunpengCrossNodes => Platform::kunpeng916(),
            BindConfig::Kirin960 => Platform::kirin960(),
            BindConfig::Kirin970 => Platform::kirin970(),
            BindConfig::RaspberryPi4 => Platform::raspberry_pi4(),
        }
    }

    /// The measured core.
    #[must_use]
    pub fn primary_core(self) -> CoreId {
        0
    }

    /// The peer core (consumer / phantom previous owner).
    #[must_use]
    pub fn peer_core(self) -> CoreId {
        match self {
            // Another cluster of node 0.
            BindConfig::KunpengSameNode => 4,
            // Node 1.
            BindConfig::KunpengCrossNodes => 32,
            // Sibling big-cluster core (the paper binds to the big cluster).
            BindConfig::Kirin960 | BindConfig::Kirin970 => 1,
            BindConfig::RaspberryPi4 => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armbar_sim::DistanceClass;

    #[test]
    fn peer_distances_match_the_names() {
        let same = BindConfig::KunpengSameNode;
        let cross = BindConfig::KunpengCrossNodes;
        assert_eq!(
            same.platform()
                .topology
                .distance(same.primary_core(), same.peer_core()),
            DistanceClass::CrossCluster
        );
        assert_eq!(
            cross
                .platform()
                .topology
                .distance(cross.primary_core(), cross.peer_core()),
            DistanceClass::CrossNode
        );
        for c in [
            BindConfig::Kirin960,
            BindConfig::Kirin970,
            BindConfig::RaspberryPi4,
        ] {
            assert_eq!(
                c.platform()
                    .topology
                    .distance(c.primary_core(), c.peer_core()),
                DistanceClass::SameCluster,
                "{c:?}"
            );
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            BindConfig::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), BindConfig::ALL.len());
    }
}
