//! Deterministic *node-level* fault injection: scripted kill / stall /
//! restart events for whole crawler worker nodes.
//!
//! [`crate::faults`] scripts trouble on the *web* side (hosts go dark,
//! drip bytes, flap DNS). This module scripts trouble on the *crawler*
//! side: a distributed crawl's worker nodes die and come back, or hang
//! without dying — the failure modes a coordinator/worker design (see
//! `bingo-dist`) must supervise. Like host faults, node faults are
//! derived entirely from a seed, so a chaos run is exactly
//! reproducible: same seed, same kills, same restart times.
//!
//! The coordinator polls [`NodeFaultPlan::event_at`] on the virtual
//! clock; the plan itself never touches node state.

use crate::faults::{FaultScript, FaultWindow};
use rand::Rng;

/// What happens to a worker node during a fault window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeFaultKind {
    /// The node process dies at `start_ms`: all in-memory state (store
    /// workspace, in-flight leases) is lost. It restarts fresh at
    /// `end_ms` and recovers from the last committed snapshot.
    Kill,
    /// The node hangs for the window without dying: it processes
    /// nothing, but its memory survives. Leases it holds expire and are
    /// re-issued by the coordinator.
    Stall,
}

/// One scripted fault episode on a node: the node is down (or hung)
/// during `[start_ms, end_ms)` of virtual time; `end_ms` is the restart
/// instant for kills.
pub type NodeFaultWindow = FaultWindow<NodeFaultKind>;

/// Parameters for seeding a node-fault script over an N-node crawl.
#[derive(Debug, Clone)]
pub struct NodeFaultProfile {
    /// Fraction of nodes that receive a fault script.
    pub node_fraction: f64,
    /// Maximum scripted windows per faulty node (at least one).
    pub max_windows_per_node: u32,
    /// Windows are scheduled within `[0, horizon_ms)` of virtual time.
    pub horizon_ms: u64,
    /// Minimum and maximum window duration in virtual milliseconds.
    pub window_ms: (u64, u64),
    /// Probability a window is a [`NodeFaultKind::Kill`] rather than a
    /// stall.
    pub kill_fraction: f64,
}

impl Default for NodeFaultProfile {
    fn default() -> Self {
        NodeFaultProfile {
            node_fraction: 0.5,
            max_windows_per_node: 2,
            horizon_ms: 300_000,
            window_ms: (5_000, 40_000),
            kill_fraction: 0.6,
        }
    }
}

impl NodeFaultProfile {
    /// An aggressive profile for chaos tests: most nodes fault, windows
    /// come early relative to the short virtual span of test crawls.
    pub fn chaos() -> Self {
        NodeFaultProfile {
            node_fraction: 0.8,
            max_windows_per_node: 3,
            horizon_ms: 60_000,
            window_ms: (2_000, 10_000),
            kill_fraction: 0.7,
        }
    }
}

/// The node-fault script of a distributed crawl, keyed by node index.
/// Empty by default — a calm run.
pub type NodeFaultPlan = FaultScript<usize, NodeFaultKind>;

impl NodeFaultPlan {
    /// Generate the script for `node_count` nodes. Pure function of the
    /// arguments: the same seed and profile always produce the same
    /// schedule. Windows are laid out like host faults, so one node is
    /// never scripted to die while already dead.
    pub fn generate(seed: u64, node_count: usize, profile: &NodeFaultProfile) -> Self {
        Self::generate_with(
            seed ^ 0x000D_157F_A017_C4A0_u64,
            0..node_count,
            profile.node_fraction,
            profile.max_windows_per_node,
            profile.horizon_ms,
            profile.window_ms,
            |rng| {
                if rng.gen_bool(profile.kill_fraction.clamp(0.0, 1.0)) {
                    NodeFaultKind::Kill
                } else {
                    NodeFaultKind::Stall
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let p = NodeFaultProfile::chaos();
        let a = NodeFaultPlan::generate(7, 8, &p);
        let b = NodeFaultPlan::generate(7, 8, &p);
        for n in 0..8 {
            assert_eq!(a.windows_for(n), b.windows_for(n), "node {n}");
        }
        let c = NodeFaultPlan::generate(8, 8, &p);
        let differs = (0..8).any(|n| a.windows_for(n) != c.windows_for(n));
        assert!(differs, "different seeds must differ");
    }

    #[test]
    fn windows_are_sorted_and_disjoint_per_node() {
        let plan = NodeFaultPlan::generate(3, 16, &NodeFaultProfile::chaos());
        assert!(plan.faulty() > 4, "chaos profile faults most nodes");
        for n in 0..16 {
            let ws = plan.windows_for(n);
            for w in ws {
                assert!(w.start_ms < w.end_ms);
            }
            for pair in ws.windows(2) {
                assert!(pair[0].end_ms <= pair[1].start_ms, "overlap on node {n}");
            }
        }
    }

    #[test]
    fn event_at_finds_kills_inside_a_span() {
        let mut plan = NodeFaultPlan::empty();
        plan.insert_window(
            1,
            NodeFaultWindow {
                start_ms: 500,
                end_ms: 900,
                kind: NodeFaultKind::Kill,
            },
        );
        assert!(
            plan.event_at(1, 0, 500).is_none(),
            "start is inclusive-end-exclusive"
        );
        assert_eq!(plan.event_at(1, 0, 501).unwrap().start_ms, 500);
        assert_eq!(
            plan.event_at(1, 400, 600).unwrap().kind,
            NodeFaultKind::Kill
        );
        assert!(plan.event_at(1, 501, 600).is_none());
        assert!(plan.event_at(0, 0, 10_000).is_none(), "other nodes clean");
        assert!(plan.active(1, 899).is_some());
        assert!(plan.active(1, 900).is_none(), "end exclusive");
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = NodeFaultPlan::empty();
        assert!(plan.is_empty());
        assert_eq!(plan.faulty(), 0);
        assert!(plan.active(0, 0).is_none());
        assert!(plan.event_at(3, 0, u64::MAX).is_none());
    }
}
