//! Fundamental simulator types.

use core::fmt;

/// A byte address in the simulated physical address space.
pub type Addr = u64;

/// Simulated time, in core clock cycles.
pub type Cycle = u64;

/// Identifier of a core (a *master* in ACE terms).
pub type CoreId = usize;

/// Bytes per cache line on every modelled platform.
pub const LINE_BYTES: u64 = 64;

/// A cache-line index (address divided by [`LINE_BYTES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Line(pub u64);

impl Line {
    /// The line containing `addr`.
    #[must_use]
    pub fn containing(addr: Addr) -> Line {
        Line(addr / LINE_BYTES)
    }
}

impl fmt::Display for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// Topological distance between a requesting core and the current location
/// of a cache line (or another core), ordered near-to-far.
///
/// The cost of a *remote memory reference* — an access whose target "is not
/// cached or its cached copy is invalid" (paper footnote 1) — grows with this
/// distance, and so does the scope an ACE memory-barrier transaction must
/// reach before it can be answered (Observation 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DistanceClass {
    /// Hit in the requester's own L1/L2 (not remote at all).
    Local,
    /// Line owned by a sibling core in the same cluster.
    SameCluster,
    /// Line owned by a core in another cluster of the same NUMA node
    /// (crosses the inner bi-section boundary only).
    CrossCluster,
    /// Line owned by a core in another NUMA node (crosses the inner domain
    /// boundary — "crossing nodes is a killer", Observation 5).
    CrossNode,
    /// Line not cached anywhere: fetched from memory.
    Memory,
}

impl DistanceClass {
    /// Every distance class, ordered near-to-far (index order matches
    /// [`DistanceClass::index`]).
    pub const ALL: [DistanceClass; 5] = [
        DistanceClass::Local,
        DistanceClass::SameCluster,
        DistanceClass::CrossCluster,
        DistanceClass::CrossNode,
        DistanceClass::Memory,
    ];

    /// Position of this class in [`DistanceClass::ALL`] (dense, 0-based) —
    /// used to key per-distance counter arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            DistanceClass::Local => 0,
            DistanceClass::SameCluster => 1,
            DistanceClass::CrossCluster => 2,
            DistanceClass::CrossNode => 3,
            DistanceClass::Memory => 4,
        }
    }

    /// Whether satisfying an access at this distance requires snooping
    /// outside the requester's NUMA node.
    #[must_use]
    pub fn crosses_node(self) -> bool {
        matches!(self, DistanceClass::CrossNode)
    }

    /// Whether an access at this distance is a remote memory reference.
    #[must_use]
    pub fn is_rmr(self) -> bool {
        self != DistanceClass::Local
    }
}

impl fmt::Display for DistanceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DistanceClass::Local => "local",
            DistanceClass::SameCluster => "same-cluster",
            DistanceClass::CrossCluster => "cross-cluster",
            DistanceClass::CrossNode => "cross-node",
            DistanceClass::Memory => "memory",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_containing_rounds_down() {
        assert_eq!(Line::containing(0), Line(0));
        assert_eq!(Line::containing(63), Line(0));
        assert_eq!(Line::containing(64), Line(1));
        assert_eq!(Line::containing(130), Line(2));
    }

    #[test]
    fn distance_ordering_is_near_to_far() {
        assert!(DistanceClass::Local < DistanceClass::SameCluster);
        assert!(DistanceClass::SameCluster < DistanceClass::CrossCluster);
        assert!(DistanceClass::CrossCluster < DistanceClass::CrossNode);
        assert!(DistanceClass::CrossNode < DistanceClass::Memory);
    }

    #[test]
    fn index_matches_all_order() {
        for (i, d) in DistanceClass::ALL.iter().enumerate() {
            assert_eq!(d.index(), i);
        }
    }

    #[test]
    fn rmr_classification() {
        assert!(!DistanceClass::Local.is_rmr());
        for d in [
            DistanceClass::SameCluster,
            DistanceClass::CrossCluster,
            DistanceClass::CrossNode,
            DistanceClass::Memory,
        ] {
            assert!(d.is_rmr());
        }
        assert!(DistanceClass::CrossNode.crosses_node());
        assert!(!DistanceClass::CrossCluster.crosses_node());
    }
}
