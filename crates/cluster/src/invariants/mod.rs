//! Executable structural invariants of the cluster architecture.
//!
//! [`check_core`] verifies everything Definition 1 and Property 1 promise
//! *under arbitrary churn* (growth and move-outs):
//!
//! 1. the tree spans exactly the live nodes of `G`, and every tree edge is
//!    a `G` edge (CNet(G) is a spanning tree of `G`);
//! 2. the root is a cluster-head; heads sit at even depths, gateways at
//!    odd depths;
//! 3. pure-members are leaves; a member's parent is a head; a gateway's
//!    parent is a head; a non-root head's parent is a gateway; a
//!    gateway's children are heads;
//! 4. no `G` edge joins two cluster-heads (Property 1(2));
//! 5. the clusters (each head with its children) partition the nodes;
//! 6. the backbone is a connected subtree containing the root;
//! 7. Time-Slot Condition 2 holds and every transmitter carries its slot;
//! 8. the slot bounds of Lemma 3: `δ ≤ d(d+1)/2 + 1`, `Δ ≤ D(D+1)/2 + 1`.
//!
//! [`check_growth`] adds the pure-growth extras that a history of
//! move-outs may legitimately break (every gateway still parents a head,
//! so `|BT| ≤ 2·#clusters − 1` — Property 1(1)).

pub mod incremental;
#[cfg(test)]
mod incremental_props;

pub use incremental::DirtyAudit;

use crate::net::ClusterNet;
use crate::slots::slot_bounds;
use crate::slots::validate::validate_condition2;
use crate::status::NodeStatus;
use dsnet_graph::{degree, NodeId};

/// A violated invariant, with enough context to debug it.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant names and fields are the documentation
pub enum Violation {
    /// The tree does not span exactly the live graph nodes.
    SpanMismatch {
        tree_nodes: usize,
        graph_nodes: usize,
    },
    /// A CNet parent link with no corresponding `G` edge.
    TreeEdgeNotInGraph { child: NodeId, parent: NodeId },
    /// The root is not a cluster-head.
    RootNotHead(NodeId),
    /// A head at odd depth or a gateway at even depth.
    DepthParity {
        node: NodeId,
        status: NodeStatus,
        depth: u32,
    },
    /// A pure-member with children.
    MemberNotLeaf(NodeId),
    /// A node whose parent's status breaks Definition 1.
    BadParentStatus { node: NodeId, parent: NodeId },
    /// A node whose child's status breaks Definition 1.
    BadChildStatus { node: NodeId, child: NodeId },
    /// Two cluster-heads adjacent in `G` (Property 1(2)).
    HeadsAdjacent(NodeId, NodeId),
    /// A Time-Slot Condition 2 violation (stringified detail).
    SlotCondition(String),
    /// A slot value above its Lemma-3 bound.
    SlotBound {
        kind: &'static str,
        max: u32,
        bound: u32,
    },
    /// Growth-only: a gateway with no head child.
    GatewayWithoutHeadChild(NodeId),
    /// Growth-only: `|BT| > 2·#clusters − 1` (Property 1(1)).
    BackboneTooLarge { backbone: usize, clusters: usize },
}

/// Churn-safe invariants. Returns `Ok(())` or the full violation list.
pub fn check_core(net: &ClusterNet) -> Result<(), Vec<Violation>> {
    let mut v = Vec::new();
    if net.is_empty() {
        return Ok(());
    }
    let tree = net.tree();
    let g = net.graph();

    // (1) spanning tree of G.
    if tree.len() != g.node_count() {
        v.push(Violation::SpanMismatch {
            tree_nodes: tree.len(),
            graph_nodes: g.node_count(),
        });
    }
    for u in tree.nodes() {
        if let Some(p) = tree.parent(u) {
            if !g.has_edge(u, p) {
                v.push(Violation::TreeEdgeNotInGraph {
                    child: u,
                    parent: p,
                });
            }
        }
    }

    // (2) root status and depth parity.
    if net.status(tree.root()) != NodeStatus::ClusterHead {
        v.push(Violation::RootNotHead(tree.root()));
    }
    for u in tree.nodes() {
        let depth = tree.depth(u);
        match net.status(u) {
            NodeStatus::ClusterHead if depth % 2 != 0 => v.push(Violation::DepthParity {
                node: u,
                status: NodeStatus::ClusterHead,
                depth,
            }),
            NodeStatus::Gateway if depth % 2 != 1 => v.push(Violation::DepthParity {
                node: u,
                status: NodeStatus::Gateway,
                depth,
            }),
            _ => {}
        }
    }

    // (3) local status rules.
    for u in tree.nodes() {
        match net.status(u) {
            NodeStatus::PureMember => {
                if !tree.is_leaf(u) {
                    v.push(Violation::MemberNotLeaf(u));
                }
                let p = tree.parent(u).expect("member has a parent");
                if net.status(p) != NodeStatus::ClusterHead {
                    v.push(Violation::BadParentStatus { node: u, parent: p });
                }
            }
            NodeStatus::Gateway => {
                let p = tree.parent(u).expect("gateway has a parent");
                if net.status(p) != NodeStatus::ClusterHead {
                    v.push(Violation::BadParentStatus { node: u, parent: p });
                }
                for c in tree.children(u) {
                    if net.status(c) != NodeStatus::ClusterHead {
                        v.push(Violation::BadChildStatus { node: u, child: c });
                    }
                }
            }
            NodeStatus::ClusterHead => {
                if let Some(p) = tree.parent(u) {
                    if net.status(p) != NodeStatus::Gateway {
                        v.push(Violation::BadParentStatus { node: u, parent: p });
                    }
                }
                for c in tree.children(u) {
                    if net.status(c) == NodeStatus::ClusterHead {
                        v.push(Violation::BadChildStatus { node: u, child: c });
                    }
                }
            }
        }
    }

    // (4) Property 1(2): heads are independent in G.
    for (a, b) in g.edges() {
        if net.status(a) == NodeStatus::ClusterHead && net.status(b) == NodeStatus::ClusterHead {
            v.push(Violation::HeadsAdjacent(a, b));
        }
    }

    // (7) TDM soundness.
    for violation in validate_condition2(&net.view(), net.slots(), net.mode()) {
        v.push(Violation::SlotCondition(format!("{violation:?}")));
    }

    // (8) Lemma 3 bounds.
    let big_d = degree::max_degree(g) as u32;
    let small_d = degree::induced_max_degree(g, &net.backbone_nodes()) as u32;
    check_lemma3_bounds(net, small_d, big_d, &mut v);

    if v.is_empty() {
        Ok(())
    } else {
        Err(v)
    }
}

/// Item (8): `δ` and `Δ` against Lemma 3's bounds for the measured
/// backbone and graph max degrees.
fn check_lemma3_bounds(net: &ClusterNet, small_d: u32, big_d: u32, v: &mut Vec<Violation>) {
    let (b_bound, l_bound) = slot_bounds(small_d, big_d);
    for (kind, max, bound) in [("b", net.delta_b(), b_bound), ("l", net.delta_l(), l_bound)] {
        if max > bound {
            v.push(Violation::SlotBound { kind, max, bound });
        }
    }
}

/// Extra invariants that hold for pure-growth histories (no move-outs):
/// every gateway has at least one head child, which yields Property 1(1)'s
/// `|BT(G)| ≤ 2·#clusters − 1`.
pub fn check_growth(net: &ClusterNet) -> Result<(), Vec<Violation>> {
    check_core(net)?;
    let mut v = Vec::new();
    if net.is_empty() {
        return Ok(());
    }
    let tree = net.tree();
    for u in tree.nodes() {
        if net.status(u) == NodeStatus::Gateway
            && !tree
                .children(u)
                .any(|c| net.status(c) == NodeStatus::ClusterHead)
        {
            v.push(Violation::GatewayWithoutHeadChild(u));
        }
    }
    let (heads, gateways, _members) = net.status_counts();
    let backbone = heads + gateways;
    if backbone > 2 * heads.saturating_sub(1) + 1 {
        v.push(Violation::BackboneTooLarge {
            backbone,
            clusters: heads,
        });
    }
    if v.is_empty() {
        Ok(())
    } else {
        Err(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::ClusterNet;

    fn grow_chain(n: u32) -> ClusterNet {
        let mut net = ClusterNet::with_defaults();
        net.move_in(&[]).unwrap();
        for i in 1..n {
            net.move_in(&[NodeId(i - 1)]).unwrap();
        }
        net
    }

    #[test]
    fn empty_net_is_valid() {
        let net = ClusterNet::with_defaults();
        assert!(check_core(&net).is_ok());
        assert!(check_growth(&net).is_ok());
    }

    #[test]
    fn grown_chain_satisfies_everything() {
        let net = grow_chain(25);
        check_core(&net).unwrap();
        check_growth(&net).unwrap();
    }

    #[test]
    fn dense_growth_satisfies_everything() {
        let mut net = ClusterNet::with_defaults();
        net.move_in(&[]).unwrap();
        for i in 1..30u32 {
            // Each node hears up to three predecessors.
            let nbrs: Vec<NodeId> = (i.saturating_sub(3)..i).map(NodeId).collect();
            net.move_in(&nbrs).unwrap();
        }
        check_core(&net).unwrap();
        check_growth(&net).unwrap();
    }

    #[test]
    fn backbone_bound_matches_property_1() {
        let net = grow_chain(40);
        let (heads, gateways, _m) = net.status_counts();
        // |BT| = heads + gateways ≤ 2·heads − 1.
        assert!(heads + gateways < 2 * heads);
    }
}
