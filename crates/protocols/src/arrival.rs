//! End-to-end distributed `node-move-in`: discovery + attachment.
//!
//! Theorem 2 composes two things: the `O(d_new)` neighbour discovery
//! (realised in [`crate::join`]) and the structural attachment with slot
//! repair (realised in `dsnet-cluster`). This module runs them as one
//! *arrival session*:
//!
//! 1. the newcomer powers up inside the existing radio field and runs the
//!    windowed-ALOHA discovery against the real collision model;
//! 2. from the discovered neighbours' knowledge (statuses and degrees —
//!    knowledge (I) includes the neighbours' knowledge) it applies
//!    Definition 1 *locally* to choose its parent;
//! 3. the structure performs the same move-in; the session cross-checks
//!    that the newcomer's local choice and the structure's choice agree
//!    (they must whenever discovery was complete — an executable proof
//!    that Definition 1 is locally computable).
//!
//! The combined round account is measured discovery + accounted slot
//! repair and root propagation. The experiments report the two halves
//! separately: E11 measures discovery through [`simulate_join`], and E8
//! reads the structural move-in reports; this module's composition is
//! exercised by its tests.

use crate::join::{simulate_join, JoinOutcome};
use dsnet_cluster::{ClusterNet, MoveInError, MoveInReport, NodeStatus, ParentRule};
use dsnet_graph::NodeId;

/// Result of one full arrival session.
#[derive(Debug, Clone)]
pub struct ArrivalOutcome {
    /// The radio-level discovery session.
    pub discovery: JoinOutcome,
    /// The structural attachment (statuses, slot repair, costs).
    pub report: MoveInReport,
    /// Whether the newcomer's locally-computed parent equals the parent
    /// the structure chose. Guaranteed when `discovery.complete`.
    pub parent_choice_consistent: bool,
    /// Measured discovery rounds + accounted structural rounds.
    pub total_rounds: u64,
}

/// Apply Definition 1 locally over a discovered neighbour set.
fn local_parent_choice(
    net: &ClusterNet,
    discovered: &[NodeId],
    rule: ParentRule,
) -> Option<NodeId> {
    let attached: Vec<NodeId> = discovered
        .iter()
        .copied()
        .filter(|&v| net.tree().contains(v))
        .collect();
    let pick = |cands: &[NodeId]| -> Option<NodeId> {
        match rule {
            ParentRule::LowestId => cands.iter().copied().min(),
            ParentRule::HighestDegree => cands
                .iter()
                .copied()
                .max_by_key(|&u| (net.graph().degree(u), std::cmp::Reverse(u))),
        }
    };
    let by_status = |s: NodeStatus| -> Vec<NodeId> {
        attached
            .iter()
            .copied()
            .filter(|&v| net.status(v) == s)
            .collect()
    };
    let heads = by_status(NodeStatus::ClusterHead);
    if !heads.is_empty() {
        return pick(&heads);
    }
    let gateways = by_status(NodeStatus::Gateway);
    if !gateways.is_empty() {
        return pick(&gateways);
    }
    pick(&attached)
}

/// Run a full arrival session: a new sensor hears `neighbors`, discovers
/// them over the radio, chooses its parent locally and joins the
/// structure. `degree_hint` provisions the discovery stop bound;
/// `seed` drives the randomized backoff.
pub fn simulate_arrival(
    net: &mut ClusterNet,
    neighbors: &[NodeId],
    degree_hint: usize,
    seed: u64,
) -> Result<ArrivalOutcome, MoveInError> {
    // Radio phase on a scratch copy of G extended with the newcomer (the
    // real radios would simply be in the air; the structure is untouched
    // until attachment).
    let mut scratch = net.graph().clone();
    let scratch_id = scratch.add_node_with_neighbors(neighbors);
    let discovery = simulate_join(&scratch, scratch_id, degree_hint, seed);

    // The newcomer's own Definition-1 decision over what it heard.
    let local_choice = local_parent_choice(net, &discovery.discovered, net.parent_rule());

    // Structural phase (graph mutation + statuses + slots + costs).
    let report = net.move_in(neighbors)?;

    let parent_choice_consistent = local_choice == report.parent;
    let total_rounds = discovery.rounds + report.cost.slot_update + report.cost.propagation;
    Ok(ArrivalOutcome {
        discovery,
        report,
        parent_choice_consistent,
        total_rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsnet_geom::rng::derive_seed;

    fn grown(n: u32) -> ClusterNet {
        let mut net = ClusterNet::with_defaults();
        net.move_in(&[]).unwrap();
        for i in 1..n {
            let mut nbrs = vec![NodeId(i - 1)];
            if i >= 2 {
                nbrs.push(NodeId(i - 2));
            }
            net.move_in(&nbrs).unwrap();
        }
        net
    }

    #[test]
    fn complete_discovery_implies_consistent_parent_choice() {
        let mut net = grown(20);
        for (i, nbrs) in [
            vec![NodeId(0), NodeId(1)],
            vec![NodeId(5), NodeId(6), NodeId(7)],
            vec![NodeId(19)],
        ]
        .into_iter()
        .enumerate()
        {
            let out =
                simulate_arrival(&mut net, &nbrs, nbrs.len(), derive_seed(7, i as u64)).unwrap();
            if out.discovery.complete {
                assert!(
                    out.parent_choice_consistent,
                    "local rule diverged from the structure: {:?} vs {:?}",
                    out.discovery.discovered, out.report.parent
                );
            }
            dsnet_cluster::invariants::check_core(&net).unwrap();
        }
    }

    #[test]
    fn total_rounds_are_theorem2_shaped() {
        let mut net = grown(30);
        let nbrs = vec![NodeId(10), NodeId(11), NodeId(12)];
        let out = simulate_arrival(&mut net, &nbrs, 3, 99).unwrap();
        // Discovery dominates; structural terms are 2h + small slot work.
        assert!(out.total_rounds >= out.discovery.rounds);
        assert!(out.total_rounds <= out.discovery.rounds + 2 * net.height() as u64 + 200);
    }

    #[test]
    fn highest_degree_rule_is_also_locally_computable() {
        let mut net = ClusterNet::new(ParentRule::HighestDegree, Default::default());
        net.move_in(&[]).unwrap();
        for i in 1..15u32 {
            let mut nbrs = vec![NodeId(i - 1)];
            if i >= 3 {
                nbrs.push(NodeId(i - 3));
            }
            net.move_in(&nbrs).unwrap();
        }
        let out = simulate_arrival(&mut net, &[NodeId(3), NodeId(6)], 2, 5).unwrap();
        if out.discovery.complete {
            assert!(out.parent_choice_consistent);
        }
    }
}
