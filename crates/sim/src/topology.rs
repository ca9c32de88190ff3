//! Cluster/NUMA topology and the ACE boundary structure.
//!
//! An ARM system groups *masters* (cores) into clusters behind interconnects;
//! subsets of masters sit behind **inner bi-section boundaries**, and the
//! whole inner-shareable domain behind the **inner domain boundary**
//! (paper Figure 1). Here, each NUMA node is one bi-section: a memory-barrier
//! transaction whose snooping stays inside a node is answered at that node's
//! boundary, while one involving another node — and every synchronization
//! barrier transaction — must reach the domain boundary.

use crate::types::{CoreId, DistanceClass};

/// Where a core sits: `(node index, cluster index within node)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Placement {
    /// NUMA node index.
    pub node: usize,
    /// Cluster index within the node.
    pub cluster: usize,
}

/// The full system topology.
#[derive(Clone, PartialEq, Eq)]
pub struct Topology {
    /// The description [`Topology::new`] took.
    desc: Vec<Vec<usize>>,
    /// Flattened `core id -> placement` map, computed at construction.
    placements: Vec<Placement>,
}

impl Topology {
    /// Build a topology from a nested description:
    /// `nodes[i][j]` = core count of cluster `j` in node `i`.
    ///
    /// Core ids are assigned densely in description order.
    ///
    /// # Panics
    ///
    /// Panics if any node or cluster is empty.
    #[must_use]
    pub fn new(desc: &[&[usize]]) -> Topology {
        assert!(!desc.is_empty(), "topology needs at least one node");
        let mut placements = Vec::new();
        for (node, clusters) in desc.iter().enumerate() {
            assert!(!clusters.is_empty(), "node {node} has no clusters");
            for (cluster, &count) in clusters.iter().enumerate() {
                assert!(count > 0, "cluster {cluster} of node {node} is empty");
                placements.extend((0..count).map(|_| Placement { node, cluster }));
            }
        }
        Topology {
            desc: desc.iter().map(|clusters| clusters.to_vec()).collect(),
            placements,
        }
    }

    /// A uniform cluster-of-clusters topology: `nodes` NUMA nodes, each of
    /// `clusters_per_node` clusters of `cores_per_cluster` cores — the shape
    /// of the 256/512/1024-core many-core descriptors, where spelling the
    /// nested slice literal out is impossible for run-time sizes.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn uniform(nodes: usize, clusters_per_node: usize, cores_per_cluster: usize) -> Topology {
        assert!(nodes > 0, "topology needs at least one node");
        assert!(clusters_per_node > 0, "nodes need at least one cluster");
        assert!(cores_per_cluster > 0, "clusters need at least one core");
        let counts = vec![cores_per_cluster; clusters_per_node];
        let desc: Vec<&[usize]> = (0..nodes).map(|_| counts.as_slice()).collect();
        Topology::new(&desc)
    }

    /// Total number of cores.
    #[must_use]
    pub fn core_count(&self) -> usize {
        self.placements.len()
    }

    /// Number of NUMA nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.desc.len()
    }

    /// Placement of a core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn placement(&self, core: CoreId) -> Placement {
        self.placements[core]
    }

    /// Topological distance between two cores (never `Local` or `Memory` —
    /// those describe line locations, not core pairs — unless `a == b`).
    #[must_use]
    pub fn distance(&self, a: CoreId, b: CoreId) -> DistanceClass {
        if a == b {
            return DistanceClass::Local;
        }
        let pa = self.placement(a);
        let pb = self.placement(b);
        if pa.node != pb.node {
            DistanceClass::CrossNode
        } else if pa.cluster != pb.cluster {
            DistanceClass::CrossCluster
        } else {
            DistanceClass::SameCluster
        }
    }
}

/// Prints the description [`Topology::new`] took, `Topology[[4, 4], [4, 4]]`:
/// the placements are derived from it, so two topologies print alike iff
/// they are equal, and a cache key naming one stays short.
impl std::fmt::Debug for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Topology{:?}", self.desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node() -> Topology {
        // Two nodes of two 4-core clusters each (a mini kunpeng).
        Topology::new(&[&[4, 4], &[4, 4]])
    }

    #[test]
    fn core_ids_are_dense_and_ordered() {
        let t = two_node();
        assert_eq!(t.core_count(), 16);
        assert_eq!(
            t.placement(0),
            Placement {
                node: 0,
                cluster: 0
            }
        );
        assert_eq!(
            t.placement(4),
            Placement {
                node: 0,
                cluster: 1
            }
        );
        assert_eq!(
            t.placement(8),
            Placement {
                node: 1,
                cluster: 0
            }
        );
        assert_eq!(
            t.placement(15),
            Placement {
                node: 1,
                cluster: 1
            }
        );
    }

    #[test]
    fn distances() {
        let t = two_node();
        assert_eq!(t.distance(0, 0), DistanceClass::Local);
        assert_eq!(t.distance(0, 1), DistanceClass::SameCluster);
        assert_eq!(t.distance(0, 5), DistanceClass::CrossCluster);
        assert_eq!(t.distance(0, 9), DistanceClass::CrossNode);
        // Symmetry.
        assert_eq!(t.distance(9, 0), DistanceClass::CrossNode);
    }

    #[test]
    fn big_little_topology() {
        // Kirin-style: one node, big cluster + little cluster.
        let t = Topology::new(&[&[4, 4]]);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.distance(0, 4), DistanceClass::CrossCluster);
        assert_eq!(t.distance(0, 3), DistanceClass::SameCluster);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_cluster_rejected() {
        let _ = Topology::new(&[&[4, 0]]);
    }

    #[test]
    fn uniform_matches_the_explicit_descriptor() {
        let u = Topology::uniform(2, 8, 4);
        let e = Topology::new(&[&[4, 4, 4, 4, 4, 4, 4, 4], &[4, 4, 4, 4, 4, 4, 4, 4]]);
        assert_eq!(u, e);
        assert_eq!(u.core_count(), 64);
        // Many-core shapes come out dense and correctly placed.
        let big = Topology::uniform(16, 8, 8);
        assert_eq!(big.core_count(), 1024);
        assert_eq!(big.node_count(), 16);
        assert_eq!(big.placement(0).node, 0);
        assert_eq!(big.placement(1023).node, 15);
        assert_eq!(big.distance(0, 63), DistanceClass::CrossCluster);
        assert_eq!(big.distance(0, 64), DistanceClass::CrossNode);
        let last = Placement {
            node: 15,
            cluster: 7,
        };
        assert!((1016..1024).all(|c| big.placement(c) == last));
        assert_ne!(big.placement(1015), last);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn uniform_rejects_zero_dimensions() {
        let _ = Topology::uniform(2, 0, 4);
    }
}
