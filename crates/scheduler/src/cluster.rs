//! Cluster description and allocation bookkeeping.
//!
//! The simulator models a homogeneous cluster (the common case for a
//! single HPC system partition): what matters to the §3 policies is node
//! *count*, per-node power, and the total power envelope — not node
//! identity.

use serde::{Deserialize, Serialize};
use sustain_sim_core::units::Power;

/// Static description of the simulated cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    /// Total number of (homogeneous) nodes.
    pub nodes: u32,
    /// Power drawn by an idle (powered-on, unallocated) node.
    pub idle_node_power: Power,
}

impl Cluster {
    /// Creates a cluster.
    pub fn new(nodes: u32) -> Cluster {
        assert!(nodes > 0, "cluster needs nodes");
        Cluster {
            nodes,
            idle_node_power: Power::from_watts(120.0),
        }
    }

    /// Overrides the idle node power.
    pub fn with_idle_power(mut self, p: Power) -> Cluster {
        self.idle_node_power = p;
        self
    }
}

/// Mutable allocation state: how many nodes are free.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Allocation {
    total: u32,
    free: u32,
}

impl Allocation {
    /// All nodes free.
    pub fn new(total: u32) -> Allocation {
        Allocation { total, free: total }
    }

    /// Free node count.
    pub fn free(&self) -> u32 {
        self.free
    }

    /// Busy node count.
    pub(crate) fn busy(&self) -> u32 {
        self.total - self.free
    }

    /// Claims `n` nodes.
    ///
    /// # Panics
    /// Panics when overcommitting — the scheduler must check first.
    pub fn claim(&mut self, n: u32) {
        assert!(
            n <= self.free,
            "overcommit: claiming {n} of {} free",
            self.free
        );
        self.free -= n;
    }

    /// Releases `n` nodes.
    ///
    /// # Panics
    /// Panics when releasing more than are busy.
    pub(crate) fn release(&mut self, n: u32) {
        assert!(
            self.busy() >= n,
            "releasing {n} nodes but only {} busy",
            self.busy()
        );
        self.free += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_and_release_roundtrip() {
        let mut a = Allocation::new(10);
        assert_eq!(a.free(), 10);
        a.claim(4);
        assert_eq!(a.free(), 6);
        assert_eq!(a.busy(), 4);
        a.claim(6);
        assert_eq!(a.free(), 0);
        a.release(10);
        assert_eq!(a.free(), 10);
    }

    #[test]
    #[should_panic(expected = "overcommit")]
    fn overcommit_panics() {
        Allocation::new(2).claim(3);
    }

    #[test]
    #[should_panic(expected = "only 0 busy")]
    fn over_release_panics() {
        Allocation::new(2).release(1);
    }

    #[test]
    fn cluster_builder() {
        let c = Cluster::new(100).with_idle_power(Power::from_watts(80.0));
        assert_eq!(c.nodes, 100);
        assert_eq!(c.idle_node_power.watts(), 80.0);
    }

    #[test]
    #[should_panic(expected = "needs nodes")]
    fn empty_cluster_rejected() {
        Cluster::new(0);
    }
}
