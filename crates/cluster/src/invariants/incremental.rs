//! Dirty-scoped incremental auditing of the cluster invariants.
//!
//! [`check_core`](super::check_core) sweeps the whole network: every node,
//! every `G` edge, and a full
//! [`validate_condition2`](crate::slots::validate::validate_condition2)
//! pass. Under mobility that sweep runs once per epoch even though a
//! typical epoch reconfigures a handful of nodes, which makes maintenance
//! cost scale with the network instead of the change. [`DirtyAudit`]
//! re-verifies exactly the same predicates, but only where they could
//! have changed.
//!
//! # The dirty-set contract
//!
//! The caller passes the set `T` of *dirty* nodes. `T` must contain
//!
//! 1. every live node whose recorded tuple `(status, parent, depth,
//!    b-slot, l-slot)` changed since the state that was last known good,
//!    and
//! 2. the surviving endpoints of every `G` edge inserted or removed —
//!    for a removed node, all of its former neighbours; for an inserted
//!    node, the node itself and its neighbours.
//!
//! The mobility driver satisfies both by construction: (1) falls out of a
//! double-buffered per-node state snapshot, (2) out of the explicit
//! neighbour lists it already computes around every `move_out`/`move_in`.
//!
//! # The closure rule
//!
//! From `T` the audit derives two scopes:
//!
//! * the **local scope** `L = T ∪ parent(T)` (tree parents), over which
//!   it re-runs the per-node Definition-1 checks — depth parity,
//!   member-is-leaf, parent/child status pairs, parent-edge-in-`G`,
//!   heads-independence of incident edges, and the missing-slot checks;
//! * the **receiver scope** `R = L ∪ N_G(L)` (the closed `G`
//!   neighbourhood), over which it re-runs the Time-Slot Condition 2
//!   receiver checks.
//!
//! Why this closes over everything Condition 2 can see: a receiver `v`'s
//! check depends only on `v`'s own tuple, `v`'s neighbour set, and the
//! status/depth/slot of each neighbour `y` (whether `y` transmits, and
//! with which slot). Any change to `v`'s tuple or edges puts `v ∈ T`;
//! any change to `y`'s tuple or slot puts `y ∈ T ⊆ L` and hence
//! `v ∈ N_G(L)`. The one indirect case is a transmitter-set flip that
//! leaves `y`'s own tuple untouched: `bt_internal(y)`/`cnet_internal(y)`
//! depend on `y`'s *children*, so a child's status or parent change (the
//! child is in `T`) can silently flip `y`. That is exactly why `L` takes
//! the tree-parent closure: the flipped `y` is `parent(t)` for some
//! `t ∈ T`, so its receivers are inside `N_G(L)`. Depth cascades (a
//! re-homed subtree shifting whole depth frontiers) need no extra
//! closure because depth is part of the recorded tuple — every shifted
//! node is in `T` already.
//!
//! A handful of O(1)/O(n)-cheap global facts (span count, root status,
//! the Lemma-3 slot bounds) are re-checked unconditionally; they need no
//! scoping to be fast and keep the audit's verdict aligned with
//! `check_core` even for pathologies outside any neighbourhood argument.
//!
//! The audit never allocates on the steady path: scope lists and
//! membership markers persist inside the `DirtyAudit` value.

use crate::net::ClusterNet;
use crate::slots::validate::check_condition2_at;
use crate::slots::view::NetView;
use crate::status::NodeStatus;
use dsnet_graph::NodeId;

use super::{check_lemma3_bounds, Violation};

/// Reusable incremental auditor. Create once, call
/// [`audit`](DirtyAudit::audit) every epoch; internal scratch is retained
/// and grows to the graph capacity high-water mark.
#[derive(Debug, Default)]
pub struct DirtyAudit {
    /// Scope-membership marker, indexed by node id.
    seen: Vec<bool>,
    /// The audit scope: first `local_len` entries form `L`, the rest the
    /// neighbourhood frontier of `R`.
    scope: Vec<NodeId>,
    /// Backbone-membership marker for the induced-degree bound.
    backbone: Vec<bool>,
}

impl DirtyAudit {
    /// A fresh auditor with empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-verify the `check_core` invariants assuming only nodes in
    /// `dirty` (plus the closure described in the module docs) may have
    /// changed since the last known-good state. `dirty` may contain dead
    /// or detached ids (they are skipped) and duplicates.
    ///
    /// Returns the audited scope size `|R|` on success.
    pub fn audit(&mut self, net: &ClusterNet, dirty: &[NodeId]) -> Result<usize, Vec<Violation>> {
        let mut v = Vec::new();
        if net.is_empty() {
            return Ok(0);
        }
        let tree = net.tree();
        let g = net.graph();
        let view = net.view();
        let slots = net.slots();
        let mode = net.mode();

        self.seen.resize(g.capacity().max(self.seen.len()), false);
        self.scope.clear();

        // --- Unconditional cheap global checks -------------------------
        if tree.len() != g.node_count() {
            v.push(Violation::SpanMismatch {
                tree_nodes: tree.len(),
                graph_nodes: g.node_count(),
            });
        }
        if net.status(tree.root()) != NodeStatus::ClusterHead {
            v.push(Violation::RootNotHead(tree.root()));
        }
        self.check_slot_bounds(net, &mut v);

        // --- Local scope L = T ∪ parent(T) ----------------------------
        for &u in dirty {
            if u.index() >= self.seen.len() || !g.is_live(u) || !tree.contains(u) {
                continue;
            }
            if !self.seen[u.index()] {
                self.seen[u.index()] = true;
                self.scope.push(u);
            }
            if let Some(p) = tree.parent(u) {
                if !self.seen[p.index()] {
                    self.seen[p.index()] = true;
                    self.scope.push(p);
                }
            }
        }
        let local_len = self.scope.len();

        // Per-node Definition-1 / Property-1 checks over L.
        for i in 0..local_len {
            let u = self.scope[i];
            check_local(&view, u, &mut v);
        }

        // --- Receiver scope R = L ∪ N_G(L) ----------------------------
        for i in 0..local_len {
            let u = self.scope[i];
            for j in 0..g.neighbors(u).len() {
                let w = g.neighbors(u)[j];
                if !self.seen[w.index()] && tree.contains(w) {
                    self.seen[w.index()] = true;
                    self.scope.push(w);
                }
            }
        }
        for &u in &self.scope {
            check_condition2_at(&view, slots, mode, u, |x| {
                v.push(Violation::SlotCondition(format!("{x:?}")));
            });
        }

        // Reset markers for the next call.
        let scope_len = self.scope.len();
        for i in 0..scope_len {
            let u = self.scope[i];
            self.seen[u.index()] = false;
        }

        if v.is_empty() {
            Ok(scope_len)
        } else {
            Err(v)
        }
    }

    /// Lemma-3 slot bounds, computed without allocating: a full-degree
    /// scan and an induced-degree scan over a reusable backbone marker.
    fn check_slot_bounds(&mut self, net: &ClusterNet, v: &mut Vec<Violation>) {
        let g = net.graph();
        let view = net.view();
        self.backbone
            .resize(g.capacity().max(self.backbone.len()), false);

        let mut big_d = 0usize;
        for u in g.nodes() {
            big_d = big_d.max(g.neighbors(u).len());
        }
        for u in net.tree().nodes() {
            if view.in_backbone(u) {
                self.backbone[u.index()] = true;
            }
        }
        let mut small_d = 0usize;
        for u in net.tree().nodes() {
            if !self.backbone[u.index()] {
                continue;
            }
            let deg = g
                .neighbors(u)
                .iter()
                .filter(|&&w| self.backbone[w.index()])
                .count();
            small_d = small_d.max(deg);
        }
        for u in net.tree().nodes() {
            self.backbone[u.index()] = false;
        }

        check_lemma3_bounds(net, small_d as u32, big_d as u32, v);
    }
}

/// The per-node structural checks of `check_core` items (1)–(4), scoped
/// to one node: parent-edge-in-G, depth parity, local status rules, and
/// heads-independence of the edges incident to `u`.
fn check_local(view: &NetView<'_>, u: NodeId, v: &mut Vec<Violation>) {
    let tree = view.tree;
    let g = view.graph;
    if let Some(p) = tree.parent(u) {
        if !g.has_edge(u, p) {
            v.push(Violation::TreeEdgeNotInGraph {
                child: u,
                parent: p,
            });
        }
    }
    let depth = tree.depth(u);
    match view.status(u) {
        NodeStatus::ClusterHead if !depth.is_multiple_of(2) => v.push(Violation::DepthParity {
            node: u,
            status: NodeStatus::ClusterHead,
            depth,
        }),
        NodeStatus::Gateway if depth.is_multiple_of(2) => v.push(Violation::DepthParity {
            node: u,
            status: NodeStatus::Gateway,
            depth,
        }),
        _ => {}
    }
    match view.status(u) {
        NodeStatus::PureMember => {
            if !tree.is_leaf(u) {
                v.push(Violation::MemberNotLeaf(u));
            }
            if let Some(p) = tree.parent(u) {
                if view.status(p) != NodeStatus::ClusterHead {
                    v.push(Violation::BadParentStatus { node: u, parent: p });
                }
            }
        }
        NodeStatus::Gateway => {
            if let Some(p) = tree.parent(u) {
                if view.status(p) != NodeStatus::ClusterHead {
                    v.push(Violation::BadParentStatus { node: u, parent: p });
                }
            }
            for c in tree.children(u) {
                if view.status(c) != NodeStatus::ClusterHead {
                    v.push(Violation::BadChildStatus { node: u, child: c });
                }
            }
        }
        NodeStatus::ClusterHead => {
            if let Some(p) = tree.parent(u) {
                if view.status(p) != NodeStatus::Gateway {
                    v.push(Violation::BadParentStatus { node: u, parent: p });
                }
            }
            for c in tree.children(u) {
                if view.status(c) == NodeStatus::ClusterHead {
                    v.push(Violation::BadChildStatus { node: u, child: c });
                }
            }
        }
    }
    // Property 1(2) on incident edges: a head-head edge has at least one
    // endpoint whose status changed, so scanning edges at L-nodes covers
    // every edge `check_core` could newly flag.
    if view.status(u) == NodeStatus::ClusterHead {
        for &w in g.neighbors(u) {
            if view.attached(w) && view.status(w) == NodeStatus::ClusterHead {
                let (a, b) = if u < w { (u, w) } else { (w, u) };
                v.push(Violation::HeadsAdjacent(a, b));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::check_core;
    use super::*;
    use crate::net::ClusterNet;

    fn grow(picks: &[(u32, u32, u32)]) -> ClusterNet {
        let mut net = ClusterNet::with_defaults();
        net.move_in(&[]).unwrap();
        for (i, &(a, b, c)) in picks.iter().enumerate() {
            let existing = (i + 1) as u32;
            let mut nbrs = vec![
                NodeId(a % existing),
                NodeId(b % existing),
                NodeId(c % existing),
            ];
            nbrs.sort_unstable();
            nbrs.dedup();
            net.move_in(&nbrs).unwrap();
        }
        net
    }

    #[test]
    fn empty_net_and_empty_dirty_set_pass() {
        let net = ClusterNet::with_defaults();
        let mut audit = DirtyAudit::new();
        assert!(audit.audit(&net, &[]).is_ok());
        let net = grow(&[(0, 0, 0), (1, 0, 1), (2, 1, 0)]);
        assert!(audit.audit(&net, &[]).is_ok());
    }

    #[test]
    fn full_dirty_set_agrees_with_check_core_on_sound_nets() {
        let net = grow(&[(0, 0, 0), (1, 0, 1), (2, 1, 0), (3, 2, 1), (4, 3, 2)]);
        check_core(&net).unwrap();
        let all: Vec<NodeId> = net.tree().nodes().collect();
        let mut audit = DirtyAudit::new();
        audit.audit(&net, &all).unwrap();
    }

    #[test]
    fn dead_and_duplicate_dirty_ids_are_tolerated() {
        let net = grow(&[(0, 0, 0), (1, 0, 1)]);
        let mut audit = DirtyAudit::new();
        audit
            .audit(&net, &[NodeId(1), NodeId(1), NodeId(400)])
            .unwrap();
    }

    #[test]
    fn scratch_is_reusable_across_structures() {
        let mut audit = DirtyAudit::new();
        for n in [3usize, 8, 5] {
            let picks: Vec<(u32, u32, u32)> = (0..n as u32).map(|i| (i, i / 2, 0)).collect();
            let net = grow(&picks);
            let all: Vec<NodeId> = net.tree().nodes().collect();
            audit.audit(&net, &all).unwrap();
            // Markers were reset: a second pass sees clean scratch.
            audit.audit(&net, &all).unwrap();
        }
    }
}
