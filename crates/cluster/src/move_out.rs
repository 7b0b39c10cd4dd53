//! `node-move-out` (Section 5.2): a node leaves and its stranded subtree
//! is folded back into the remaining structure.
//!
//! When `lev` withdraws, CNet(G) splits into the subtree `T` rooted at
//! `lev` and the remainder `H`. The operation:
//!
//! * **Step 0** — `lev` notifies the root (height bookkeeping, ≤ h rounds)
//!   and an Euler tour over `T` lets the `H`-side neighbours of every
//!   `T` node drop it from their transmitter sets and repair their
//!   time slots where Time-Slot Condition 2 broke;
//! * **Steps 1–2** — the `|T| − 1` stranded nodes are re-homed into `H`
//!   one at a time with `node-move-in`, in an order that guarantees each
//!   node can already hear the structure (the paper walks an Euler tour
//!   from a node of `T` with an edge into `H`; we use the equivalent
//!   frontier order that provably exists whenever `G − lev` is connected);
//! * **Step 3** — the largest revised b-slot travels back to the root.
//!
//! Total cost `O(h + |T|·D²)` (Theorem 3), accounted in [`MoveOutCost`].
//!
//! These steps are the only way a node leaves CNet(G). The crash repair
//! of [`crate::repair`] runs the same eviction on a dead node's behalf;
//! the one difference is that a crash may split `G`, so the survivors the
//! root can no longer reach are dropped as lost.
//!
//! The paper defers the root's own departure to its full version;
//! [`ClusterNet::move_out_root`] supplies that missing case here as a
//! full O(n) re-initialisation from a surviving sink — the same rebuild a
//! root crash runs. Regular [`ClusterNet::move_out`] still refuses the
//! root with [`MoveOutError::RootMoveOut`].

use crate::costs::MoveOutCost;
use crate::net::ClusterNet;
use crate::slots::assign::{
    calculate_b_slot, calculate_l_slot, condition_b_holds, condition_l_holds,
};
use crate::slots::view::NetView;
use dsnet_graph::{components, traversal, NodeId};
use std::cmp::Reverse;
use std::fmt;

/// Errors from [`ClusterNet::move_out`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MoveOutError {
    /// The node is not part of the structure.
    NotAttached(NodeId),
    /// The paper's operation assumes the root (sink) stays.
    RootMoveOut,
    /// Removing the node would disconnect `G`; the paper assumes the
    /// remaining graph is connected.
    WouldDisconnect(NodeId),
}

impl fmt::Display for MoveOutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MoveOutError::NotAttached(n) => write!(f, "{n} is not attached to the structure"),
            MoveOutError::RootMoveOut => write!(f, "the root (sink) cannot move out"),
            MoveOutError::WouldDisconnect(n) => {
                write!(f, "removing {n} would disconnect the network")
            }
        }
    }
}

impl std::error::Error for MoveOutError {}

/// What a move-out did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveOutReport {
    /// The departed node.
    pub node: NodeId,
    /// Stranded subtree nodes, in the order they were re-homed.
    pub rehomed: Vec<NodeId>,
    /// Accounted round costs (Theorem 3 terms).
    pub cost: MoveOutCost,
}

/// What a root hand-over did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootMoveOutReport {
    /// The departed sink.
    pub old_root: NodeId,
    /// The node now serving as sink.
    pub new_root: NodeId,
    /// Accounted rounds: the full rebuild is a gossip-style O(n)
    /// operation (each surviving node re-attaches once).
    pub rounds: u64,
}

/// How a node leaves, which decides whether `G` may split as it goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Departure {
    /// Announced: [`ClusterNet::can_move_out`] vouched that `G − lev`
    /// stays connected, so nothing can be lost.
    Announced,
    /// Crashed: `G − lev` may be split, and the survivors the root no
    /// longer reaches are lost.
    Crash,
}

impl ClusterNet {
    /// Check the preconditions of [`ClusterNet::move_out`] without
    /// mutating anything.
    pub fn can_move_out(&self, lev: NodeId) -> Result<(), MoveOutError> {
        if self.is_empty() || !self.tree().contains(lev) {
            return Err(MoveOutError::NotAttached(lev));
        }
        if lev == self.root() {
            return Err(MoveOutError::RootMoveOut);
        }
        if components::disconnects_without(self.graph(), lev) {
            return Err(MoveOutError::WouldDisconnect(lev));
        }
        Ok(())
    }

    /// Remove `lev` from the network and re-home its stranded subtree.
    pub fn move_out(&mut self, lev: NodeId) -> Result<MoveOutReport, MoveOutError> {
        self.can_move_out(lev)?;
        Ok(self.evict(lev, Departure::Announced).0)
    }

    /// The sink itself leaves — the case the paper defers to its full
    /// version. There is no sub-tree `H` to fold `T` into, so the
    /// structure is rebuilt from a fresh sink: the lowest-id surviving
    /// node becomes the new root and every node re-attaches in BFS order
    /// (equivalently: the Section-5 gossip construction re-run from the
    /// new sink). Costs O(n) accounted rounds — a full re-initialisation,
    /// which is also the best possible since every node's depth, status
    /// and slots can change.
    ///
    /// Fails if the root is the only node or if its removal disconnects
    /// `G`.
    pub fn move_out_root(&mut self) -> Result<RootMoveOutReport, MoveOutError> {
        let old_root = self.root();
        if self.len() <= 1 {
            return Err(MoveOutError::NotAttached(old_root));
        }
        if components::disconnects_without(self.graph(), old_root) {
            return Err(MoveOutError::WouldDisconnect(old_root));
        }
        let (report, _) = self.rebuild_without(old_root);
        Ok(RootMoveOutReport {
            old_root,
            new_root: self.root(),
            rounds: report.cost.reinsert,
        })
    }

    /// Steps 0–3 for the non-root `lev`: the one eviction behind both
    /// [`ClusterNet::move_out`] and crash repair. Returns the report plus
    /// the survivors lost to a partition, which only a crash can cause.
    ///
    /// An announced departure must have passed
    /// [`ClusterNet::can_move_out`]: the connectivity preview is a full
    /// graph sweep, and the mobility driver already previews every
    /// candidate departure, so re-checking here would triple the
    /// per-reconfiguration traversal cost.
    pub(crate) fn evict(
        &mut self,
        lev: NodeId,
        departure: Departure,
    ) -> (MoveOutReport, Vec<NodeId>) {
        debug_assert!(departure == Departure::Crash || self.can_move_out(lev).is_ok());
        // Bracket the whole operation: the raw mutators below must not
        // poison the journal — every dirty node is recorded here or by the
        // re-homing move-ins.
        self.begin_op();
        // Step 0(i): height notification travels lev → root.
        let mut cost = MoveOutCost {
            height_notify: self.tree().depth(lev) as u64,
            ..MoveOutCost::default()
        };

        let lev_parent = self.tree().parent(lev).expect("non-root has a parent");
        self.record_dirty(lev_parent);

        // Detach T and forget its nodes' slots; remove lev from G.
        let t_nodes = self.tree_mut().detach_subtree(lev);
        for &x in &t_nodes {
            self.slots_mut().clear(x);
            self.record_dirty(x);
        }
        let lev_neighbors = self.graph_mut().remove_node(lev);
        // lev's edges vanished with it: their surviving endpoints are dirty
        // and unrecoverable from lev later (it has no neighbours any more).
        for &v in &lev_neighbors {
            self.record_dirty(v);
        }

        // A crash may split G. Survivors cut off from the root cannot be
        // served by any protocol: drop them. They lie inside T — every
        // other node's tree path to the root avoids lev, and tree edges are
        // graph edges — and so do all their neighbours.
        let mut lost = Vec::new();
        if departure == Departure::Crash {
            let reached = components::component_of(self.graph(), self.root());
            lost.extend(
                t_nodes
                    .iter()
                    .copied()
                    .filter(|&x| x != lev && reached.binary_search(&x).is_err()),
            );
            for &x in &lost {
                self.record_dirty(x);
                self.graph_mut().remove_node(x);
            }
        }

        // The parent may have lost transmitter roles; stale slots must not
        // linger on a node that no longer transmits in that phase.
        {
            let view = self.view();
            let demote_b = !view.bt_internal(lev_parent);
            let demote_l = !view.cnet_internal(lev_parent);
            if demote_b {
                self.slots_mut()
                    .clear_kind(crate::slots::SlotKind::B, lev_parent);
            }
            if demote_l {
                self.slots_mut()
                    .clear_kind(crate::slots::SlotKind::L, lev_parent);
            }
        }

        // Step 0(ii): repair sweep over every H receiver that could hear a
        // vanished transmitter — G-neighbours of T nodes, of lev, and of
        // the possibly-demoted parent. The Euler tour itself costs |T|
        // rounds on top of the slot recalculations.
        let mut affected: Vec<NodeId> = Vec::new();
        for &x in &t_nodes {
            if self.graph().is_live(x) {
                affected.extend_from_slice(self.graph().neighbors(x));
            }
        }
        affected.extend_from_slice(&lev_neighbors);
        affected.extend_from_slice(self.graph().neighbors(lev_parent));
        affected.sort_unstable();
        affected.dedup();
        cost.detach_repair += t_nodes.len() as u64;
        for v in affected {
            cost.detach_repair += self.repair_receiver(v);
        }

        // Steps 1–2: re-home the stranded nodes frontier-first (lowest
        // attachable id each round). The root reaches every stranded node
        // still in G, so one of them always hears the attached structure.
        let mut stranded: Vec<NodeId> = t_nodes
            .iter()
            .copied()
            .filter(|&x| self.graph().is_live(x))
            .collect();
        stranded.sort_unstable();
        let mut rehomed = Vec::with_capacity(stranded.len());
        while !stranded.is_empty() {
            let pos = stranded
                .iter()
                .position(|&x| {
                    self.graph()
                        .neighbors(x)
                        .iter()
                        .any(|&v| self.tree().contains(v))
                })
                .expect("a reachable stranded node borders the structure");
            let next = stranded.remove(pos);
            let rep = self
                .move_in_existing(next)
                .expect("stranded node has an attached neighbour");
            // Per the paper's optimisation, the per-node root report is
            // deferred to Step 3, so only discovery + slot repair count.
            cost.reinsert += rep.cost.discovery + rep.cost.slot_update;
            rehomed.push(next);
        }
        cost.moved_nodes = rehomed.len() as u64;

        // Step 3: the largest revised b-slot travels back to the root.
        cost.final_report = self.height() as u64;
        self.end_op();

        let report = MoveOutReport {
            node: lev,
            rehomed,
            cost,
        };
        (report, lost)
    }

    /// Rebuild the structure without the root `gone`, departed or crashed:
    /// the largest component of `G − gone` (ties towards the lowest id)
    /// re-attaches in BFS order from its lowest-id node, the new sink, and
    /// every other component is lost. Returns the report — every survivor
    /// but the new root re-homed, in BFS order — plus the lost nodes,
    /// ascending.
    pub(crate) fn rebuild_without(&mut self, gone: NodeId) -> (MoveOutReport, Vec<NodeId>) {
        let mut graph = self.graph().clone();
        graph.remove_node(gone);
        // Components are sorted and ordered by their smallest id.
        let mut comps = components::components(&graph);
        let keep = comps
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| (c.len(), Reverse(c[0])))
            .map(|(i, _)| i)
            .expect("a rebuild has survivors");
        let new_root = comps.swap_remove(keep)[0];
        let mut lost = comps.concat();
        lost.sort_unstable();
        for &x in &lost {
            graph.remove_node(x);
        }
        let order = traversal::bfs(&graph, new_root).order;
        let rebuilt = ClusterNet::build_over(graph, &order, self.parent_rule(), self.mode())
            .expect("BFS order over a connected component always attaches");
        self.replace_with_rebuilt(rebuilt);
        let cost = MoveOutCost {
            // A from-scratch rebuild: every survivor re-attaches once.
            reinsert: order.len() as u64,
            moved_nodes: order.len() as u64 - 1,
            final_report: self.height() as u64,
            ..MoveOutCost::default()
        };
        let report = MoveOutReport {
            node: gone,
            rehomed: order[1..].to_vec(),
            cost,
        };
        (report, lost)
    }

    /// Re-establish Time-Slot Condition 2 at receiver `v` after
    /// transmitters vanished, by recalculating its parent's slot if
    /// needed. Returns the rounds spent.
    fn repair_receiver(&mut self, v: NodeId) -> u64 {
        if !self.tree().contains(v) {
            return 0;
        }
        let mode = self.mode();
        let mut rounds = 0u64;
        let needs_b = {
            let view = self.view();
            view.in_backbone(v)
                && view.tree.depth(v) >= 1
                && !condition_b_holds(&view, self.slots(), v)
        };
        if needs_b {
            let p = self
                .tree()
                .parent(v)
                .expect("backbone receiver has a parent");
            self.record_dirty(p);
            let (graph, tree, status, slots) = self.split_for_slots();
            let view = NetView::new(graph, tree, status);
            rounds += calculate_b_slot(&view, slots, p).rounds;
        }
        let needs_l = {
            let view = self.view();
            view.is_member_leaf(v) && !condition_l_holds(&view, self.slots(), mode, v)
        };
        if needs_l {
            let p = self.tree().parent(v).expect("member has a parent");
            self.record_dirty(p);
            let (graph, tree, status, slots) = self.split_for_slots();
            let view = NetView::new(graph, tree, status);
            rounds += calculate_l_slot(&view, slots, mode, p).rounds;
        }
        rounds
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::invariants;
    use crate::net::{MoveInError, ParentRule};
    use crate::slots::validate::validate_condition2;
    use crate::slots::SlotMode;

    /// Chain 0-1-2-...-(n-1) with extra shortcut edges every `skip` nodes so
    /// the graph stays connected when interior nodes leave.
    pub(crate) fn chain_net(n: u32, skip: u32) -> ClusterNet {
        let mut net = ClusterNet::with_defaults();
        net.move_in(&[]).unwrap();
        for i in 1..n {
            let mut nbrs = vec![NodeId(i - 1)];
            if i >= skip {
                nbrs.push(NodeId(i - skip));
            }
            net.move_in(&nbrs).unwrap();
        }
        net
    }

    #[test]
    fn leaf_move_out_is_trivial() {
        let mut net = chain_net(5, 2);
        let last = NodeId(4);
        let rep = net.move_out(last).unwrap();
        assert_eq!(rep.node, last);
        assert!(rep.rehomed.is_empty());
        assert_eq!(net.len(), 4);
        assert!(!net.graph().is_live(last));
        let v = validate_condition2(&net.view(), net.slots(), net.mode());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn interior_move_out_rehomes_subtree() {
        let mut net = chain_net(10, 2);
        let before = net.len();
        let rep = net.move_out(NodeId(4)).unwrap();
        assert_eq!(net.len(), before - 1);
        assert!(!rep.rehomed.is_empty());
        // Every surviving node is attached and the spanning property holds.
        assert_eq!(net.tree().len(), net.graph().node_count());
        let v = validate_condition2(&net.view(), net.slots(), net.mode());
        assert!(v.is_empty(), "{v:?}");
        invariants::check_core(&net).unwrap();
    }

    #[test]
    fn root_move_out_is_rejected() {
        let mut net = chain_net(4, 2);
        assert_eq!(net.move_out(NodeId(0)), Err(MoveOutError::RootMoveOut));
        assert_eq!(net.len(), 4);
    }

    #[test]
    fn disconnecting_move_out_is_rejected() {
        // Pure chain: removing an interior node disconnects.
        let mut net = chain_net(5, u32::MAX);
        assert_eq!(
            net.move_out(NodeId(2)),
            Err(MoveOutError::WouldDisconnect(NodeId(2)))
        );
        assert_eq!(net.len(), 5);
        invariants::check_core(&net).unwrap();
    }

    #[test]
    fn unknown_node_is_rejected() {
        let mut net = chain_net(3, 2);
        assert_eq!(
            net.move_out(NodeId(9)),
            Err(MoveOutError::NotAttached(NodeId(9)))
        );
    }

    #[test]
    fn removed_id_is_not_reused_by_later_move_in() {
        let mut net = chain_net(6, 2);
        net.move_out(NodeId(5)).unwrap();
        let rep = net.move_in(&[NodeId(0)]).unwrap();
        assert_eq!(rep.node, NodeId(6));
    }

    #[test]
    fn repeated_churn_keeps_structure_sound() {
        let mut net = chain_net(16, 3);
        // Remove a batch of interior nodes (skipping any that would
        // disconnect), re-validating after each operation.
        for victim in [3u32, 7, 11, 5, 9] {
            let id = NodeId(victim);
            match net.move_out(id) {
                Ok(_) => {}
                Err(MoveOutError::WouldDisconnect(_)) => continue,
                Err(e) => panic!("unexpected error: {e}"),
            }
            invariants::check_core(&net).unwrap();
            let v = validate_condition2(&net.view(), net.slots(), net.mode());
            assert!(v.is_empty(), "after removing {victim}: {v:?}");
        }
    }

    #[test]
    fn move_out_then_move_in_roundtrip() {
        let mut net = chain_net(8, 2);
        net.move_out(NodeId(3)).unwrap();
        // A new node arrives hearing several survivors.
        let rep = net.move_in(&[NodeId(2), NodeId(4)]).unwrap();
        assert!(net.tree().contains(rep.node));
        invariants::check_core(&net).unwrap();
    }

    #[test]
    fn paper_mode_churn_also_validates_in_paper_terms() {
        let mut net = ClusterNet::new(ParentRule::LowestId, SlotMode::PaperFaithful);
        net.move_in(&[]).unwrap();
        for i in 1..12u32 {
            let mut nbrs = vec![NodeId(i - 1)];
            if i >= 2 {
                nbrs.push(NodeId(i - 2));
            }
            net.move_in(&nbrs).unwrap();
        }
        net.move_out(NodeId(6)).unwrap();
        let v = validate_condition2(&net.view(), net.slots(), SlotMode::PaperFaithful);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn move_in_existing_requires_attached_neighbor() {
        let mut net = chain_net(3, 2);
        // Simulate a stranded node: add a graph node linked only to a
        // tombstone-free but detached context is impossible via public API;
        // instead check the public error path for an isolated newcomer.
        assert_eq!(net.move_in(&[]), Err(MoveInError::NoAttachedNeighbor));
    }

    #[test]
    fn can_move_out_previews_every_error_without_mutating() {
        let net = chain_net(5, u32::MAX); // pure chain: interiors are cut vertices
        let before_len = net.len();
        assert_eq!(net.can_move_out(NodeId(0)), Err(MoveOutError::RootMoveOut));
        assert_eq!(
            net.can_move_out(NodeId(2)),
            Err(MoveOutError::WouldDisconnect(NodeId(2)))
        );
        assert_eq!(
            net.can_move_out(NodeId(42)),
            Err(MoveOutError::NotAttached(NodeId(42)))
        );
        assert_eq!(net.can_move_out(NodeId(4)), Ok(())); // chain endpoint
        assert_eq!(net.len(), before_len);
        invariants::check_core(&net).unwrap();
    }

    #[test]
    fn failed_move_out_leaves_slots_intact() {
        let mut net = chain_net(6, u32::MAX);
        // Every rejected departure must leave the schedule untouched.
        for victim in [NodeId(0), NodeId(3), NodeId(99)] {
            let _ = net.move_out(victim);
            let v = validate_condition2(&net.view(), net.slots(), net.mode());
            assert!(v.is_empty(), "after rejected {victim:?}: {v:?}");
        }
        assert_eq!(net.len(), 6);
    }

    #[test]
    fn evicted_node_cannot_move_out_again() {
        use crate::repair::RepairConfig;
        let mut net = chain_net(10, 2);
        let victim = NodeId(4);
        net.repair_failure(victim, &RepairConfig::default())
            .unwrap();
        // The eviction already removed it; a later move-out is NotAttached,
        // and the slot schedule stays valid throughout.
        assert_eq!(net.move_out(victim), Err(MoveOutError::NotAttached(victim)));
        let v = validate_condition2(&net.view(), net.slots(), net.mode());
        assert!(v.is_empty(), "{v:?}");
        invariants::check_core(&net).unwrap();
    }

    #[test]
    fn root_departure_rebuilds_a_valid_structure() {
        let mut net = chain_net(12, 2);
        let report = net.move_out_root().unwrap();
        assert_eq!(report.old_root, NodeId(0));
        assert_eq!(net.root(), report.new_root);
        assert_eq!(net.len(), 11);
        assert!(!net.graph().is_live(NodeId(0)));
        invariants::check_growth(&net).unwrap();
        let v = validate_condition2(&net.view(), net.slots(), net.mode());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn disconnected_root_departure_is_refused() {
        // Pure chain: the root is an endpoint, never a cut vertex — build a
        // star instead, where the hub is the root and cuts everything.
        let mut net = ClusterNet::with_defaults();
        net.move_in(&[]).unwrap();
        net.move_in(&[NodeId(0)]).unwrap();
        net.move_in(&[NodeId(0)]).unwrap();
        assert_eq!(
            net.move_out_root(),
            Err(MoveOutError::WouldDisconnect(NodeId(0)))
        );
        assert_eq!(net.root(), NodeId(0)); // untouched
    }

    #[test]
    fn singleton_root_cannot_leave() {
        let mut net = ClusterNet::with_defaults();
        net.move_in(&[]).unwrap();
        assert!(net.move_out_root().is_err());
    }

    #[test]
    fn network_stays_operational_after_root_change() {
        let mut net = chain_net(15, 3);
        net.move_out_root().unwrap();
        // Can keep growing and shrinking afterwards.
        let survivor = net.root();
        net.move_in(&[survivor]).unwrap();
        invariants::check_core(&net).unwrap();
    }

    #[test]
    fn root_departure_after_eviction_still_rebuilds_cleanly() {
        use crate::repair::RepairConfig;
        let mut net = chain_net(14, 2);
        // A silent crash is repaired first, then the sink itself leaves:
        // the rebuild must absorb the evicted hole without resurrecting it.
        let victim = NodeId(5);
        net.repair_failure(victim, &RepairConfig::default())
            .unwrap();
        let report = net.move_out_root().unwrap();
        assert_eq!(net.len(), 12);
        assert!(!net.graph().is_live(victim));
        assert!(!net.graph().is_live(report.old_root));
        invariants::check_growth(&net).unwrap();
        let v = validate_condition2(&net.view(), net.slots(), net.mode());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn root_rebuild_cost_is_linear_in_survivors() {
        let mut net = chain_net(20, 2);
        let report = net.move_out_root().unwrap();
        assert_eq!(report.rounds, 19);
    }
}
