//! Failure detection-and-repair: the self-healing layer over CNet(G).
//!
//! The paper's maintenance operations assume a *cooperative* departure:
//! `node-move-out` is initiated by the leaving node itself. A crashed
//! node announces nothing — its neighbours must first *notice* the
//! silence, then run the eviction on its behalf. This module adds that
//! missing half:
//!
//! * **Detection** — every attached node transmits in its own slot at
//!   least once per TDM frame of `δ + Δ` rounds (BT-internal nodes in
//!   their b-slot, CNet-internal nodes in their l-slot, leaves in the
//!   per-frame report sub-slot of their parent's window). A neighbour
//!   that stays silent for [`RepairConfig::detection_frames`] consecutive
//!   frames is declared dead, so detection costs at most
//!   `detection_frames · (δ + Δ)` rounds — a bound, not an expectation,
//!   because the schedule is TDM, not contention-based.
//! * **Eviction + re-attachment** — the surviving neighbours run the
//!   `node-move-out` eviction *about* the dead node: its stranded
//!   subtree is detached, Time-Slot Condition 2 is re-established at
//!   every receiver that lost a transmitter, and the orphans re-attach
//!   via `node-move-in` with incremental slot reassignment. Unlike
//!   [`ClusterNet::move_out`], repair must tolerate a crash that
//!   *disconnects* `G`: survivors that can no longer reach the sink are
//!   reported as [`RepairReport::lost`] and dropped from the structure
//!   (physically they may be alive, but no protocol can serve them).
//! * **Root failure** — the one case the paper defers entirely. The
//!   largest surviving component rebuilds from its lowest-id node, the
//!   O(n) re-initialisation [`ClusterNet::move_out_root`] also runs.
//!
//! Everything is deterministic, and [`crate::invariants::check_core`]
//! holds after every repair — that is what the tests below pin down.

use crate::costs::MoveOutCost;
use crate::move_out::Departure;
use crate::net::ClusterNet;
use dsnet_graph::NodeId;
use std::collections::BTreeMap;
use std::fmt;

/// Tuning of the failure detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairConfig {
    /// Consecutive silent TDM frames before neighbours declare a node
    /// dead. One frame risks false positives from a single lost packet;
    /// the default of 2 trades one extra frame of latency for immunity to
    /// any single-frame loss.
    pub detection_frames: u64,
}

impl Default for RepairConfig {
    fn default() -> Self {
        Self {
            detection_frames: 2,
        }
    }
}

/// Errors from [`ClusterNet::repair_failure`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairError {
    /// The reported node is not part of the structure.
    NotAttached(NodeId),
    /// The failed node was the only node; nothing is left to repair.
    LastNode,
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::NotAttached(n) => write!(f, "{n} is not attached to the structure"),
            RepairError::LastNode => write!(f, "the failed node was the last node"),
        }
    }
}

impl std::error::Error for RepairError {}

/// What a detection-and-repair cycle did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// The crashed node that was evicted.
    pub failed: NodeId,
    /// Worst-case rounds until the neighbours declared it dead:
    /// `detection_frames · (δ + Δ)` at the pre-failure slot extents.
    pub detection_rounds: u64,
    /// Nodes stranded by the crash (the failed node's subtree, minus it).
    pub orphaned: usize,
    /// Orphans successfully re-attached, in re-homing order.
    pub rehomed: Vec<NodeId>,
    /// Survivors on the far side of a cut vertex: alive but unreachable
    /// from the sink, hence dropped from the structure.
    pub lost: Vec<NodeId>,
    /// Surviving attached nodes whose b- or l-slot changed — the slot
    /// churn the repair inflicted on the TDM schedule.
    pub slot_churn: usize,
    /// Accounted eviction rounds, in `node-move-out` terms (Theorem 3).
    pub cost: MoveOutCost,
}

impl RepairReport {
    /// Accounted rounds of the eviction/re-attachment itself.
    pub fn repair_rounds(&self) -> u64 {
        self.cost.total()
    }

    /// Time-to-repair: silence detection plus eviction/re-attachment.
    pub fn total_rounds(&self) -> u64 {
        self.detection_rounds + self.repair_rounds()
    }
}

impl ClusterNet {
    /// Rounds in one heartbeat frame of the current TDM schedule.
    fn frame_rounds(&self) -> u64 {
        ((self.delta_b() + self.delta_l()) as u64).max(1)
    }

    /// Detect-and-evict a crashed node, re-homing its orphans.
    ///
    /// Works for any attached node, including cut vertices (unreachable
    /// survivors become [`RepairReport::lost`]) and the root (the largest
    /// surviving component rebuilds from its lowest-id node). The structure
    /// satisfies every invariant of [`crate::invariants::check_core`]
    /// afterwards.
    pub fn repair_failure(
        &mut self,
        failed: NodeId,
        config: &RepairConfig,
    ) -> Result<RepairReport, RepairError> {
        if self.is_empty() || !self.tree().contains(failed) {
            return Err(RepairError::NotAttached(failed));
        }
        if self.len() == 1 {
            return Err(RepairError::LastNode);
        }
        let detection_rounds = config.detection_frames * self.frame_rounds();
        let before: BTreeMap<NodeId, (Option<u32>, Option<u32>)> = self
            .tree()
            .nodes()
            .map(|u| (u, (self.slots().b(u), self.slots().l(u))))
            .collect();

        let rebuild = failed == self.root();
        let survivors = self.len() - 1;
        let (moved, lost) = if rebuild {
            self.rebuild_without(failed)
        } else {
            self.evict(failed, Departure::Crash)
        };
        let slot_churn = self
            .tree()
            .nodes()
            .filter(|&u| {
                before
                    .get(&u)
                    .is_some_and(|&old| old != (self.slots().b(u), self.slots().l(u)))
            })
            .count();
        Ok(RepairReport {
            failed,
            detection_rounds,
            // A rebuild strands every survivor, the new root included.
            orphaned: if rebuild {
                survivors
            } else {
                moved.rehomed.len() + lost.len()
            },
            rehomed: moved.rehomed,
            lost,
            slot_churn,
            cost: moved.cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants;
    use crate::mcnet::McNet;
    use crate::move_out::tests::chain_net;
    use crate::slots::validate::validate_condition2;

    fn assert_sound(net: &ClusterNet) {
        invariants::check_core(net).unwrap();
        let v = validate_condition2(&net.view(), net.slots(), net.mode());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn leaf_crash_repairs_trivially() {
        let mut net = chain_net(6, 2);
        let rep = net
            .repair_failure(NodeId(5), &RepairConfig::default())
            .unwrap();
        assert_eq!(rep.failed, NodeId(5));
        assert_eq!(rep.orphaned, 0);
        assert!(rep.rehomed.is_empty() && rep.lost.is_empty());
        assert_eq!(net.len(), 5);
        assert_sound(&net);
    }

    #[test]
    fn interior_crash_rehomes_all_orphans() {
        let mut net = chain_net(10, 2);
        let rep = net
            .repair_failure(NodeId(4), &RepairConfig::default())
            .unwrap();
        assert!(rep.orphaned > 0);
        assert_eq!(rep.rehomed.len(), rep.orphaned);
        assert!(rep.lost.is_empty());
        assert_eq!(net.len(), 9);
        assert!(!net.graph().is_live(NodeId(4)));
        assert_sound(&net);
    }

    #[test]
    fn cut_vertex_crash_loses_the_far_side() {
        // Pure chain: node 2 is a cut vertex; 3 and 4 end up unreachable.
        let mut net = chain_net(5, u32::MAX);
        let rep = net
            .repair_failure(NodeId(2), &RepairConfig::default())
            .unwrap();
        assert_eq!(rep.lost, vec![NodeId(3), NodeId(4)]);
        assert_eq!(rep.orphaned, 2);
        assert!(rep.rehomed.is_empty());
        assert_eq!(net.len(), 2);
        assert!(!net.graph().is_live(NodeId(3)));
        assert_sound(&net);
    }

    #[test]
    fn root_crash_rebuilds_from_a_survivor() {
        let mut net = chain_net(10, 2);
        let rep = net
            .repair_failure(NodeId(0), &RepairConfig::default())
            .unwrap();
        assert_eq!(rep.failed, NodeId(0));
        assert_eq!(rep.orphaned, 9);
        assert_eq!(rep.rehomed.len() + 1, net.len());
        assert_ne!(net.root(), NodeId(0));
        assert!(!net.graph().is_live(NodeId(0)));
        assert_sound(&net);
    }

    #[test]
    fn root_crash_on_a_star_keeps_one_leaf() {
        // Star: the hub is the root; its crash shatters G into singleton
        // leaves. The largest-component rule keeps exactly one (lowest id).
        let mut net = ClusterNet::with_defaults();
        net.move_in(&[]).unwrap();
        net.move_in(&[NodeId(0)]).unwrap();
        net.move_in(&[NodeId(0)]).unwrap();
        net.move_in(&[NodeId(0)]).unwrap();
        let rep = net
            .repair_failure(NodeId(0), &RepairConfig::default())
            .unwrap();
        assert_eq!(net.len(), 1);
        assert_eq!(net.root(), NodeId(1));
        assert_eq!(rep.lost, vec![NodeId(2), NodeId(3)]);
        invariants::check_core(&net).unwrap();
    }

    #[test]
    fn detection_bound_scales_with_frames_and_slots() {
        let net = chain_net(14, 2);
        let frame = (net.delta_b() + net.delta_l()) as u64;
        assert!(frame >= 1);
        let mut a = net.clone();
        let mut b = net.clone();
        let r1 = a
            .repair_failure(
                NodeId(7),
                &RepairConfig {
                    detection_frames: 1,
                },
            )
            .unwrap();
        let r3 = b
            .repair_failure(
                NodeId(7),
                &RepairConfig {
                    detection_frames: 3,
                },
            )
            .unwrap();
        assert_eq!(r1.detection_rounds, frame);
        assert_eq!(r3.detection_rounds, 3 * frame);
        assert_eq!(r3.total_rounds() - r3.detection_rounds, r3.repair_rounds());
    }

    #[test]
    fn slot_churn_counts_only_changed_survivors() {
        let mut net = chain_net(12, 2);
        let survivors = net.len() - 1;
        let rep = net
            .repair_failure(NodeId(4), &RepairConfig::default())
            .unwrap();
        assert!(rep.slot_churn <= survivors, "{}", rep.slot_churn);
    }

    #[test]
    fn repeated_crashes_keep_the_structure_sound() {
        let mut net = chain_net(20, 3);
        for victim in [3u32, 11, 0, 7, 15] {
            let id = NodeId(victim);
            if !net.graph().is_live(id) || !net.tree().contains(id) {
                continue;
            }
            net.repair_failure(id, &RepairConfig::default()).unwrap();
            assert_sound(&net);
        }
        assert!(net.len() >= 10);
    }

    #[test]
    fn unknown_node_is_rejected() {
        let mut net = chain_net(4, 2);
        assert_eq!(
            net.repair_failure(NodeId(9), &RepairConfig::default()),
            Err(RepairError::NotAttached(NodeId(9)))
        );
        net.repair_failure(NodeId(3), &RepairConfig::default())
            .unwrap();
        assert_eq!(
            net.repair_failure(NodeId(3), &RepairConfig::default()),
            Err(RepairError::NotAttached(NodeId(3)))
        );
    }

    #[test]
    fn last_node_cannot_be_repaired_away() {
        let mut net = ClusterNet::with_defaults();
        net.move_in(&[]).unwrap();
        assert_eq!(
            net.repair_failure(NodeId(0), &RepairConfig::default()),
            Err(RepairError::LastNode)
        );
    }

    #[test]
    fn mcnet_repair_keeps_relay_lists_consistent() {
        let mut mc = McNet::with_defaults();
        mc.move_in(&[], &[0]).unwrap();
        for i in 1..14u32 {
            let mut nbrs = vec![NodeId(i - 1)];
            if i >= 2 {
                nbrs.push(NodeId(i - 2));
            }
            mc.move_in(&nbrs, &[(i % 3) as crate::GroupId]).unwrap();
        }
        mc.repair_failure(NodeId(6), &RepairConfig::default())
            .unwrap();
        mc.check_relay_consistency().unwrap();
        // Root crash path recomputes from scratch.
        let old_root = mc.net().root();
        mc.repair_failure(old_root, &RepairConfig::default())
            .unwrap();
        mc.check_relay_consistency().unwrap();
        assert_ne!(mc.net().root(), old_root);
    }

    #[test]
    fn mcnet_repair_drops_groups_of_lost_nodes() {
        let mut mc = McNet::with_defaults();
        mc.move_in(&[], &[0]).unwrap();
        for i in 1..5u32 {
            mc.move_in(&[NodeId(i - 1)], &[7]).unwrap(); // pure chain
        }
        // Node 2 is a cut vertex: 3 and 4 get lost.
        let rep = mc
            .repair_failure(NodeId(2), &RepairConfig::default())
            .unwrap();
        assert_eq!(rep.lost, vec![NodeId(3), NodeId(4)]);
        mc.check_relay_consistency().unwrap();
        assert!(!mc.group_members(7).contains(&NodeId(3)));
        assert!(!mc.group_members(7).contains(&NodeId(4)));
    }
}
