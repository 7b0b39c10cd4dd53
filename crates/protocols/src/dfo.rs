//! The depth-first-order (DFO) broadcast baseline of reference \[19\]
//! (Section 3.2 of the paper).
//!
//! The broadcast message rides a token along an Eulerian tour of the
//! backbone tree: the holder transmits the message addressed to the next
//! tree neighbour it has not served yet, and hands the token back to the
//! node it *first* received the message from once it has served everyone.
//! Exactly one node transmits per round, so no collision can ever occur —
//! but the tour needs `2(|BT| − 1)` rounds, a single node or link failure
//! freezes it, and since nobody can tell locally when the broadcast has
//! finished, every radio stays on for the whole tour. These three costs
//! are exactly what the paper's CFF protocols attack.
//!
//! A node's tour list is held by the cluster structure: its backbone
//! children in attachment order, then its backbone parent.
//! [`DfoProgram::new`] reads it straight off the tree.

use dsnet_cluster::ClusterNet;
use dsnet_graph::NodeId;
use dsnet_radio::{Action, NodeCtx, NodeProgram, Round};

/// The over-the-air packet: the broadcast payload plus the id of the node
/// the token is addressed to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfoMsg {
    /// The node that should pick up the token.
    pub token_target: NodeId,
}

/// Per-node state machine for the DFO broadcast.
#[derive(Debug, Clone)]
pub struct DfoProgram {
    id: NodeId,
    /// Backbone tree neighbours in visit order (children, then parent).
    /// For a pure-member source this is just its head.
    neighbors: Vec<NodeId>,
    is_source: bool,
    /// Has the broadcast payload.
    pub received: bool,
    /// Round of first reception (0 for the source).
    pub received_round: Option<Round>,
    /// Currently holds the token and must transmit next round.
    holding_token: bool,
    /// Next neighbour index to serve.
    next: usize,
    /// Who we first received the message from (token returns there last).
    first_from: Option<NodeId>,
    /// Source only: the Eulerian tour has completed.
    pub tour_finished: bool,
    /// Transmissions made so far (= tree degree at tour end).
    pub transmissions: u64,
}

impl DfoProgram {
    /// Build the program for the attached node `u` of `net`. `source` is
    /// the broadcast origin.
    pub fn new(net: &ClusterNet, u: NodeId, source: NodeId) -> Self {
        let tree = net.tree();
        let is_source = u == source;
        let neighbors = if net.status(u).in_backbone() {
            tree.children(u)
                .filter(|&c| net.status(c).in_backbone())
                .chain(tree.parent(u))
                .collect()
        } else if is_source {
            // A pure-member source first hands the message to its head.
            vec![tree.parent(u).expect("member has a parent")]
        } else {
            Vec::new()
        };
        Self {
            id: u,
            neighbors,
            is_source,
            received: is_source,
            received_round: is_source.then_some(0),
            holding_token: is_source,
            next: 0,
            first_from: None,
            tour_finished: false,
            transmissions: 0,
        }
    }
}

impl NodeProgram for DfoProgram {
    type Msg = DfoMsg;

    fn act(&mut self, _ctx: &NodeCtx) -> Action<DfoMsg> {
        if self.holding_token {
            self.holding_token = false;
            // Serve the next neighbour we have not sent to, skipping the
            // return edge (first_from), which is used last.
            while self.next < self.neighbors.len()
                && Some(self.neighbors[self.next]) == self.first_from
            {
                self.next += 1;
            }
            if self.next < self.neighbors.len() {
                let target = self.neighbors[self.next];
                self.next += 1;
                self.transmissions += 1;
                return Action::transmit(DfoMsg {
                    token_target: target,
                });
            }
            if let Some(back) = self.first_from {
                self.transmissions += 1;
                return Action::transmit(DfoMsg { token_target: back });
            }
            // Source with nothing left to serve: the tour is complete. A
            // source that never transmitted (single-node backbone, e.g. one
            // head with only members) still broadcasts once so its cluster
            // hears the message; the self-addressed token goes nowhere.
            self.tour_finished = true;
            if self.transmissions == 0 {
                self.transmissions += 1;
                return Action::transmit(DfoMsg {
                    token_target: self.id,
                });
            }
        }
        // DFO keeps every radio on: nobody knows when the tour ends.
        Action::listen()
    }

    fn on_receive(&mut self, ctx: &NodeCtx, from: NodeId, msg: &DfoMsg) {
        if !self.received {
            self.received = true;
            self.received_round = Some(ctx.round);
        }
        if msg.token_target == self.id {
            if self.first_from.is_none() && !self.is_source {
                self.first_from = Some(from);
            }
            self.holding_token = true;
            // The source recognises the completed tour the moment the token
            // returns with nobody left to serve.
            if self.is_source && self.transmissions > 0 {
                let mut next = self.next;
                while next < self.neighbors.len() && Some(self.neighbors[next]) == self.first_from {
                    next += 1;
                }
                if next >= self.neighbors.len() && self.first_from.is_none() {
                    self.holding_token = false;
                    self.tour_finished = true;
                }
            }
        }
    }

    fn done(&self) -> bool {
        if self.is_source {
            self.tour_finished
        } else {
            self.received
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain_net;
    use dsnet_cluster::NodeStatus;
    use dsnet_geom::rng::splitmix64;
    use dsnet_radio::{Engine, EngineConfig, StopReason};

    fn dfo_raw(net: &ClusterNet, source: NodeId) -> (u64, Vec<Option<DfoProgram>>) {
        let mut engine = Engine::new(
            net.graph(),
            EngineConfig {
                max_rounds: 10_000,
                record_trace: true,
                ..Default::default()
            },
            |u| DfoProgram::new(net, u, source),
        );
        let out = engine.run();
        assert_eq!(out.stop, StopReason::AllDone);
        assert_eq!(engine.trace().collision_count(), 0, "DFO can never collide");
        (out.rounds, engine.into_programs())
    }

    #[test]
    fn root_source_tour_takes_exactly_two_bt_edges() {
        let net = chain_net(9);
        let bt = net.backbone_tree();
        let (rounds, programs) = dfo_raw(&net, net.root());
        assert_eq!(rounds as usize, 2 * (bt.len() - 1));
        for u in net.tree().nodes() {
            assert!(programs[u.index()].as_ref().unwrap().received, "{u}");
        }
    }

    #[test]
    fn member_source_adds_two_rounds() {
        let net = chain_net(9);
        // Node 1 in the chain is the original member of head 0... after the
        // chain promotions it is a gateway; find an actual pure member.
        let member = net
            .tree()
            .nodes()
            .find(|&u| net.status(u) == dsnet_cluster::NodeStatus::PureMember);
        if let Some(m) = member {
            let bt = net.backbone_tree();
            let (rounds, programs) = dfo_raw(&net, m);
            assert_eq!(rounds as usize, 2 * (bt.len() - 1) + 2);
            for u in net.tree().nodes() {
                assert!(programs[u.index()].as_ref().unwrap().received);
            }
        }
    }

    #[test]
    fn every_backbone_node_transmits_its_degree_times() {
        let net = chain_net(7);
        let (_rounds, programs) = dfo_raw(&net, net.root());
        let bt = net.backbone_tree();
        for u in bt.nodes() {
            let deg = bt.child_count(u) + usize::from(bt.parent(u).is_some());
            assert_eq!(
                programs[u.index()].as_ref().unwrap().transmissions,
                deg as u64,
                "{u}"
            );
        }
    }

    #[test]
    fn star_network_single_round() {
        // Root head with members only: BT = {root}, the tour is empty, but
        // the source still broadcasts once so its cluster hears the message.
        let mut net = ClusterNet::with_defaults();
        net.move_in(&[]).unwrap();
        net.move_in(&[NodeId(0)]).unwrap();
        net.move_in(&[NodeId(0)]).unwrap();
        let (rounds, programs) = dfo_raw(&net, NodeId(0));
        assert_eq!(rounds, 1);
        for u in net.tree().nodes() {
            assert!(programs[u.index()].as_ref().unwrap().received);
        }
    }

    /// A bushy structure whose attachment order is not id order: arrivals
    /// hear up to three earlier nodes, and departures re-home orphans.
    fn scrambled_net() -> ClusterNet {
        let mut net = ClusterNet::with_defaults();
        net.move_in(&[]).unwrap();
        let mut state = 0u64;
        let mut pick = |nodes: &[NodeId]| {
            state += 1;
            nodes[(splitmix64(state) % nodes.len() as u64) as usize]
        };
        for i in 1..160 {
            let nodes: Vec<NodeId> = net.tree().nodes().collect();
            let mut nbrs: Vec<NodeId> = (0..3).map(|_| pick(&nodes)).collect();
            nbrs.sort_unstable();
            nbrs.dedup();
            net.move_in(&nbrs).unwrap();
            if i % 7 == 0 {
                let _ = net.move_out(pick(&nodes));
            }
        }
        net
    }

    #[test]
    fn tour_lists_are_bt_children_in_attachment_order_then_the_parent() {
        let net = scrambled_net();
        let bt = net.backbone_tree();
        let mut reordered = 0;
        for u in bt.nodes() {
            let program = DfoProgram::new(&net, u, net.root());
            let (children, parent) = program.neighbors.split_at(bt.child_count(u));
            let attached: Vec<NodeId> =
                net.tree().children(u).filter(|&c| bt.contains(c)).collect();
            assert_eq!(children, attached.as_slice(), "{u}: attachment order");
            let mut sorted = children.to_vec();
            sorted.sort_unstable();
            let mut bt_children: Vec<NodeId> = bt.children(u).collect();
            bt_children.sort_unstable();
            assert_eq!(sorted, bt_children, "{u}: BT children");
            assert_eq!(parent, bt.parent(u).as_slice(), "{u}: BT parent last");
            reordered += usize::from(!children.is_sorted());
        }
        assert!(reordered > 0, "the fixture must exercise non-id order");

        let members: Vec<NodeId> = net
            .tree()
            .nodes()
            .filter(|&u| net.status(u) == NodeStatus::PureMember)
            .collect();
        assert!(!members.is_empty());
        for &m in &members {
            let head = net.tree().parent(m).unwrap();
            assert_eq!(net.status(head), NodeStatus::ClusterHead);
            assert_eq!(DfoProgram::new(&net, m, m).neighbors, [head], "{m}");
            assert!(DfoProgram::new(&net, m, net.root()).neighbors.is_empty());
        }
    }
}
