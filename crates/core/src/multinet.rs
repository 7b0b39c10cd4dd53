//! Multi-sink operation: several cluster-nets over the same network.
//!
//! Section 2 of the paper: *"In order to boost the robustness of the
//! proposed structure, more than one cluster-net may be selected in the
//! same way from different roots (sinks) so that if one cluster-net fails
//! others can still be used."*
//!
//! [`MultiNet`] builds `k` independent CNet structures over one physical
//! deployment (one per sink, each from a BFS attachment order rooted at
//! its sink) and broadcasts with failover: if the primary structure's
//! broadcast leaves nodes uncovered (node failures on its backbone), the
//! next sink's structure is used for the stragglers, and so on. Each
//! attempt costs that structure's normal broadcast rounds.

use crate::network::SensorNetwork;
use dsnet_cluster::{ClusterNet, ParentRule, SlotMode};
use dsnet_graph::{traversal, NodeId};
use dsnet_protocols::runner::{run, Broadcast, BroadcastOutcome, Protocol, RunConfig};

/// Several cluster structures over the same connectivity graph.
#[derive(Debug, Clone)]
pub struct MultiNet {
    nets: Vec<ClusterNet>,
}

impl MultiNet {
    /// Build one structure per sink over the connectivity graph of
    /// `network`. Sinks must be distinct live nodes.
    pub fn from_network(network: &SensorNetwork, sinks: &[NodeId]) -> Self {
        assert!(!sinks.is_empty(), "at least one sink required");
        let base = network.net();
        let mut nets = Vec::with_capacity(sinks.len());
        for &sink in sinks {
            assert!(base.graph().is_live(sink), "sink {sink} is not live");
            let order = traversal::bfs(base.graph(), sink).order;
            let net = ClusterNet::build_over(
                base.graph().clone(),
                &order,
                ParentRule::LowestId,
                SlotMode::Strict,
            )
            .expect("BFS order always attaches");
            nets.push(net);
        }
        Self { nets }
    }

    /// The per-sink structures, primary first.
    pub fn structures(&self) -> &[ClusterNet] {
        &self.nets
    }

    /// The sinks, in structure order.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.nets.iter().map(|n| n.root()).collect()
    }

    /// Result of a failover broadcast.
    pub fn broadcast_failover(&self, cfg: &RunConfig) -> FailoverOutcome {
        let mut attempts = Vec::new();
        let mut covered: Vec<bool> = Vec::new();
        let mut total_rounds = 0u64;
        for net in &self.nets {
            let attempt = run(net, &Broadcast::new(Protocol::ImprovedCff, net.root()), cfg);
            let (out, delivered_now) = (attempt.outcome, attempt.received);
            total_rounds += out.rounds;
            // Merge coverage: a node counts as covered if any structure
            // delivered to it.
            if covered.is_empty() {
                covered = delivered_now;
            } else {
                for (c, d) in covered.iter_mut().zip(delivered_now) {
                    *c = *c || d;
                }
            }
            let done = covered.iter().filter(|&&c| c).count();
            attempts.push(out);
            if done == self.nets[0].len() {
                break;
            }
        }
        let delivered = covered.iter().filter(|&&c| c).count();
        FailoverOutcome {
            attempts,
            delivered,
            targets: self.nets[0].len(),
            total_rounds,
        }
    }
}

/// Outcome of [`MultiNet::broadcast_failover`].
#[derive(Debug, Clone)]
pub struct FailoverOutcome {
    /// Per-structure outcomes, in the order tried.
    pub attempts: Vec<BroadcastOutcome>,
    /// Nodes covered by the union of all attempts.
    pub delivered: usize,
    /// Number of live nodes.
    pub targets: usize,
    /// Sum of rounds over the attempts actually made.
    pub total_rounds: u64,
}

impl FailoverOutcome {
    /// Fraction of the network the union of attempts covered.
    pub fn delivery_ratio(&self) -> f64 {
        if self.targets == 0 {
            1.0
        } else {
            self.delivered as f64 / self.targets as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use dsnet_cluster::invariants;

    fn sinks_for(net: &SensorNetwork, k: usize) -> Vec<NodeId> {
        // The original sink plus the geometrically farthest nodes.
        let mut sinks = vec![net.sink()];
        let mut nodes: Vec<NodeId> = net.net().tree().nodes().collect();
        nodes.sort_by(|&a, &b| {
            net.position(b)
                .dist_sq(net.position(net.sink()))
                .total_cmp(&net.position(a).dist_sq(net.position(net.sink())))
        });
        sinks.extend(nodes.into_iter().filter(|&u| u != net.sink()).take(k - 1));
        sinks
    }

    #[test]
    fn multiple_structures_are_all_valid() {
        let network = NetworkBuilder::paper(120, 61).build().unwrap();
        let multi = MultiNet::from_network(&network, &sinks_for(&network, 3));
        assert_eq!(multi.structures().len(), 3);
        for net in multi.structures() {
            invariants::check_growth(net).unwrap();
            assert_eq!(net.len(), 120);
        }
        // Distinct sinks.
        let sinks = multi.sinks();
        assert_eq!(
            sinks.iter().collect::<std::collections::HashSet<_>>().len(),
            3
        );
    }

    #[test]
    fn failover_without_failures_uses_one_attempt() {
        let network = NetworkBuilder::paper(100, 62).build().unwrap();
        let multi = MultiNet::from_network(&network, &sinks_for(&network, 2));
        let out = multi.broadcast_failover(&RunConfig::default());
        assert_eq!(out.attempts.len(), 1);
        assert_eq!(out.delivered, out.targets);
    }

    #[test]
    fn failover_recovers_coverage_lost_by_the_primary() {
        let network = NetworkBuilder::paper(150, 63).build().unwrap();
        let multi = MultiNet::from_network(&network, &sinks_for(&network, 3));

        // Kill a gateway near the primary sink: the primary structure loses
        // part of its tree, a far-rooted structure routes differently.
        let primary = &multi.structures()[0];
        let victim = primary
            .tree()
            .nodes()
            .find(|&u| {
                primary.status(u).in_backbone()
                    && primary.tree().depth(u) == 1
                    && !dsnet_graph::components::is_cut_vertex(primary.graph(), u)
            })
            .expect("a non-cut depth-1 backbone node exists");
        let mut cfg = RunConfig::default();
        cfg.failures.kill_node(victim, 1);

        let req = Broadcast::new(Protocol::ImprovedCff, primary.root());
        let single = run(primary, &req, &cfg).outcome;
        let multi_out = multi.broadcast_failover(&cfg);
        assert!(
            multi_out.delivered >= single.delivered,
            "failover must never cover less"
        );
        // The victim can never receive; everything else should be reachable
        // through some structure.
        assert!(multi_out.delivered >= multi_out.targets - 1);
    }
}
