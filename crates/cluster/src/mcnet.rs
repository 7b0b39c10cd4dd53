//! MCNet(G): the multicast overlay of Section 3.4.
//!
//! MCNet(G) is CNet(G) with two extra per-node lists:
//!
//! * **group-list** — the multicast groups the node itself belongs to;
//! * **relay-list** — the groups that appear somewhere in the node's
//!   *descendants* (so an internal node must relay a group-`g` multicast
//!   iff `g` is in its relay-list).
//!
//! The relay-lists are maintained incrementally: a join adds the
//! newcomer's groups along its root path; an eviction (move-out or crash
//! repair) subtracts the whole stranded subtree's group counts from the
//! departed node's former ancestors and re-adds each node's groups along
//! its new root path as it is re-homed; the sink's departure recomputes
//! every list. Counts (not booleans) are kept so removal is exact.

use crate::move_out::{Departure, MoveOutError, MoveOutReport, RootMoveOutReport};
use crate::net::{ClusterNet, MoveInError, MoveInReport};
use crate::repair::{RepairConfig, RepairError, RepairReport};
use dsnet_graph::NodeId;
use std::collections::BTreeMap;

/// Identity of a multicast group.
pub type GroupId = u16;

/// CNet(G) plus multicast group/relay state.
#[derive(Debug, Clone)]
pub struct McNet {
    net: ClusterNet,
    /// Groups each node belongs to.
    groups: Vec<Vec<GroupId>>,
    /// For each node, per-group count of descendants in that group.
    relay: Vec<BTreeMap<GroupId, u32>>,
}

impl McNet {
    /// Wrap an (empty) cluster structure for group-aware growth.
    pub fn new(net: ClusterNet) -> Self {
        assert!(
            net.is_empty(),
            "wrap an empty ClusterNet and grow through McNet"
        );
        Self {
            net,
            groups: Vec::new(),
            relay: Vec::new(),
        }
    }

    /// An empty MCNet with the default parent rule and slot mode.
    pub fn with_defaults() -> Self {
        Self::new(ClusterNet::with_defaults())
    }

    /// The underlying cluster structure.
    pub fn net(&self) -> &ClusterNet {
        &self.net
    }

    fn ensure_capacity(&mut self) {
        let cap = self.net.graph().capacity();
        if self.groups.len() < cap {
            self.groups.resize(cap, Vec::new());
            self.relay.resize(cap, BTreeMap::new());
        }
    }

    /// The node's own group-list.
    pub fn group_list(&self, u: NodeId) -> &[GroupId] {
        &self.groups[u.index()]
    }

    /// The node's relay-list: groups present among its descendants.
    pub fn relay_list(&self, u: NodeId) -> Vec<GroupId> {
        self.relay[u.index()]
            .iter()
            .filter(|(_, &c)| c > 0)
            .map(|(&g, _)| g)
            .collect()
    }

    /// Whether an internal node must forward a group-`g` message.
    pub fn should_relay(&self, u: NodeId, g: GroupId) -> bool {
        self.relay[u.index()].get(&g).copied().unwrap_or(0) > 0
    }

    /// Whether the node itself wants group-`g` messages.
    pub fn is_target(&self, u: NodeId, g: GroupId) -> bool {
        self.groups[u.index()].contains(&g)
    }

    /// All members of group `g`, sorted.
    pub fn group_members(&self, g: GroupId) -> Vec<NodeId> {
        self.net
            .tree()
            .nodes()
            .filter(|u| self.groups[u.index()].contains(&g))
            .collect()
    }

    /// Join with the given group memberships (deduplicated).
    pub fn move_in(
        &mut self,
        neighbors: &[NodeId],
        groups: &[GroupId],
    ) -> Result<MoveInReport, MoveInError> {
        let report = self.net.move_in(neighbors)?;
        self.ensure_capacity();
        let mut gs = groups.to_vec();
        gs.sort_unstable();
        gs.dedup();
        self.groups[report.node.index()] = gs;
        self.add_to_ancestors(report.node);
        Ok(report)
    }

    /// Change a node's group memberships in place, updating ancestors.
    pub fn set_groups(&mut self, u: NodeId, groups: &[GroupId]) {
        assert!(self.net.tree().contains(u), "{u} is not attached");
        self.remove_from_ancestors(u);
        let mut gs = groups.to_vec();
        gs.sort_unstable();
        gs.dedup();
        self.groups[u.index()] = gs;
        self.add_to_ancestors(u);
    }

    /// Node departure with relay-list maintenance. The preconditions are
    /// those of [`ClusterNet::move_out`], checked once by
    /// [`ClusterNet::can_move_out`] before anything changes.
    pub fn move_out(&mut self, lev: NodeId) -> Result<MoveOutReport, MoveOutError> {
        self.net.can_move_out(lev)?;
        let evicted = self.relay_before(lev);
        let (report, _) = self.net.evict(lev, Departure::Announced);
        self.relay_after(&evicted, Some(&report.rehomed));
        Ok(report)
    }

    /// The sink itself departs: the underlying structure is rebuilt from a
    /// surviving node (see [`ClusterNet::move_out_root`]) and every
    /// relay-list is recomputed against the new tree. Group memberships of
    /// the survivors are preserved; the old root's are dropped.
    pub fn move_out_root(&mut self) -> Result<RootMoveOutReport, MoveOutError> {
        let report = self.net.move_out_root()?;
        self.relay_after(&[report.old_root], None);
        Ok(report)
    }

    /// Detect-and-evict a crashed node (see [`ClusterNet::repair_failure`])
    /// with the relay-list upkeep of a departure. A root crash fits the
    /// same two steps: its subtree is the whole tree, so every list starts
    /// empty, and the rebuild re-homes every survivor but the new root.
    pub fn repair_failure(
        &mut self,
        failed: NodeId,
        config: &RepairConfig,
    ) -> Result<RepairReport, RepairError> {
        if self.net.is_empty() || !self.net.tree().contains(failed) {
            return Err(RepairError::NotAttached(failed));
        }
        // On `LastNode` the before step only cleared the lone root's
        // relay-list, which was empty: it has no descendants.
        let evicted = self.relay_before(failed);
        let report = self.net.repair_failure(failed, config)?;
        self.relay_after(&evicted, Some(&report.rehomed));
        Ok(report)
    }

    /// Relay upkeep before `lev`'s subtree is evicted: its groups leave
    /// the counts of `lev`'s former ancestors, and its own relay entries
    /// are cleared to be rebuilt as it re-homes. Returns the subtree for
    /// [`McNet::relay_after`].
    fn relay_before(&mut self, lev: NodeId) -> Vec<NodeId> {
        // A fully group-free subtree (broadcast-only traffic) has nothing
        // to subtract.
        let subtree = self.net.tree().subtree_nodes(lev);
        if subtree.iter().any(|&x| !self.groups[x.index()].is_empty()) {
            let ancestors: Vec<NodeId> = self.net.tree().path_to_root(lev)[1..].to_vec();
            for &x in &subtree {
                let gs = self.groups[x.index()].clone();
                for &a in &ancestors {
                    for &g in &gs {
                        decrement(&mut self.relay[a.index()], g);
                    }
                }
            }
        }
        for &x in &subtree {
            self.relay[x.index()].clear();
        }
        subtree
    }

    /// Relay upkeep after evicting the nodes of `evicted`: those that left
    /// the graph — the departed or crashed node and any lost survivors —
    /// leave their groups; then each `rehomed` node's groups are re-added
    /// along its new root path, or, after a rebuild (`None`), every
    /// relay-list is recomputed against the new tree.
    fn relay_after(&mut self, evicted: &[NodeId], rehomed: Option<&[NodeId]>) {
        for &x in evicted {
            if !self.net.graph().is_live(x) {
                self.groups[x.index()].clear();
            }
        }
        match rehomed {
            Some(rehomed) => {
                for &x in rehomed {
                    self.add_to_ancestors(x);
                }
            }
            None => self.relay = self.recompute_relay(),
        }
    }

    fn add_to_ancestors(&mut self, u: NodeId) {
        // Group-free nodes (the common case in broadcast-only scenarios)
        // contribute nothing — skip the root-path walk entirely.
        if self.groups[u.index()].is_empty() {
            return;
        }
        let path = self.net.tree().path_to_root(u);
        let gs = self.groups[u.index()].clone();
        for &a in &path[1..] {
            for &g in &gs {
                *self.relay[a.index()].entry(g).or_insert(0) += 1;
            }
        }
    }

    fn remove_from_ancestors(&mut self, u: NodeId) {
        if self.groups[u.index()].is_empty() {
            return;
        }
        let path = self.net.tree().path_to_root(u);
        let gs = self.groups[u.index()].clone();
        for &a in &path[1..] {
            for &g in &gs {
                decrement(&mut self.relay[a.index()], g);
            }
        }
    }

    /// Recompute every relay-list from scratch (ground truth for tests).
    pub fn recompute_relay(&self) -> Vec<BTreeMap<GroupId, u32>> {
        let mut relay: Vec<BTreeMap<GroupId, u32>> =
            vec![BTreeMap::new(); self.net.graph().capacity()];
        for u in self.net.tree().nodes() {
            let path = self.net.tree().path_to_root(u);
            for &a in &path[1..] {
                for &g in &self.groups[u.index()] {
                    *relay[a.index()].entry(g).or_insert(0) += 1;
                }
            }
        }
        relay
    }

    /// Assert the incremental relay state matches a fresh recomputation.
    pub fn check_relay_consistency(&self) -> Result<(), String> {
        let fresh = self.recompute_relay();
        for u in self.net.tree().nodes() {
            let have: BTreeMap<GroupId, u32> = self.relay[u.index()]
                .iter()
                .filter(|(_, &c)| c > 0)
                .map(|(&g, &c)| (g, c))
                .collect();
            let want: BTreeMap<GroupId, u32> =
                fresh[u.index()].iter().map(|(&g, &c)| (g, c)).collect();
            if have != want {
                return Err(format!(
                    "relay mismatch at {u}: have {have:?}, want {want:?}"
                ));
            }
        }
        Ok(())
    }
}

fn decrement(map: &mut BTreeMap<GroupId, u32>, g: GroupId) {
    if let Some(c) = map.get_mut(&g) {
        if *c <= 1 {
            map.remove(&g);
        } else {
            *c -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chain with shortcuts, each node in group (id % 3).
    fn grow(n: u32) -> McNet {
        let mut mc = McNet::with_defaults();
        mc.move_in(&[], &[0]).unwrap();
        for i in 1..n {
            let mut nbrs = vec![NodeId(i - 1)];
            if i >= 2 {
                nbrs.push(NodeId(i - 2));
            }
            mc.move_in(&nbrs, &[(i % 3) as GroupId]).unwrap();
        }
        mc
    }

    #[test]
    fn relay_lists_reflect_descendants() {
        let mc = grow(10);
        mc.check_relay_consistency().unwrap();
        let root = mc.net().root();
        // Root relays every group that exists below it.
        let rl = mc.relay_list(root);
        assert!(rl.contains(&1) && rl.contains(&2));
        // A leaf relays nothing.
        let leaf = mc
            .net()
            .tree()
            .nodes()
            .find(|&u| mc.net().tree().is_leaf(u))
            .unwrap();
        assert!(mc.relay_list(leaf).is_empty());
    }

    #[test]
    fn is_target_matches_group_list() {
        let mc = grow(6);
        assert!(mc.is_target(NodeId(3), 0));
        assert!(!mc.is_target(NodeId(3), 1));
        assert_eq!(mc.group_members(0), vec![NodeId(0), NodeId(3)]);
    }

    #[test]
    fn set_groups_updates_ancestors() {
        let mut mc = grow(8);
        let leaf = NodeId(7);
        mc.set_groups(leaf, &[9]);
        mc.check_relay_consistency().unwrap();
        assert!(mc.should_relay(mc.net().root(), 9));
        mc.set_groups(leaf, &[]);
        mc.check_relay_consistency().unwrap();
        assert!(!mc.should_relay(mc.net().root(), 9));
    }

    #[test]
    fn move_out_keeps_relay_consistent() {
        let mut mc = grow(14);
        mc.move_out(NodeId(5)).unwrap();
        mc.check_relay_consistency().unwrap();
        mc.move_out(NodeId(9)).unwrap();
        mc.check_relay_consistency().unwrap();
        // Group membership of the departed nodes is gone.
        assert!(!mc.group_members(2).contains(&NodeId(5)));
    }

    #[test]
    fn duplicate_groups_are_deduped() {
        let mut mc = McNet::with_defaults();
        mc.move_in(&[], &[4, 4, 4]).unwrap();
        assert_eq!(mc.group_list(NodeId(0)), &[4]);
    }

    #[test]
    fn root_departure_keeps_relay_lists_consistent() {
        let mut mc = grow(12);
        let report = mc.move_out_root().unwrap();
        assert!(!mc.net().graph().is_live(report.old_root));
        mc.check_relay_consistency().unwrap();
        // Groups of survivors persist.
        assert!(!mc.group_members(1).is_empty());
    }

    #[test]
    fn move_in_after_move_out_stays_consistent() {
        let mut mc = grow(10);
        mc.move_out(NodeId(4)).unwrap();
        mc.move_in(&[NodeId(2), NodeId(3)], &[7]).unwrap();
        mc.check_relay_consistency().unwrap();
        assert!(mc.should_relay(mc.net().root(), 7) || mc.is_target(mc.net().root(), 7));
    }
}
