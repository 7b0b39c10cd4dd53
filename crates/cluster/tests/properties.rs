//! Property-based tests of the cluster architecture: arbitrary growth
//! histories must keep every Definition-1/Property-1 invariant and both
//! slot modes sound, and the incremental slot maintenance must stay within
//! the Lemma-3 bounds.

use dsnet_cluster::invariants;
use dsnet_cluster::slots::validate::{
    assign_flood_slots, validate_condition1, validate_condition2,
};
use dsnet_cluster::{ClusterNet, GroupId, McNet, NodeStatus, ParentRule, RepairConfig, SlotMode};
use dsnet_graph::{components, degree, NodeId};
use proptest::prelude::*;

/// The joins of a random growth: node i+1 hears up to 3 earlier nodes.
fn arrivals(picks: &[(u16, u16, u16)]) -> impl Iterator<Item = Vec<NodeId>> + '_ {
    picks.iter().enumerate().map(|(i, &(a, b, c))| {
        let existing = (i + 1) as u32;
        let mut nbrs: Vec<NodeId> = [a, b, c]
            .iter()
            .map(|&x| NodeId(x as u32 % existing))
            .collect();
        nbrs.sort_unstable();
        nbrs.dedup();
        nbrs
    })
}

/// Grow a network where node i+1 hears up to 3 earlier nodes.
fn grow(picks: &[(u16, u16, u16)], rule: ParentRule, mode: SlotMode) -> ClusterNet {
    let mut net = ClusterNet::new(rule, mode);
    net.move_in(&[]).unwrap();
    for nbrs in arrivals(picks) {
        net.move_in(&nbrs).unwrap();
    }
    net
}

/// [`grow`] through MCNet; node i joins the groups set in the low four
/// bits of `masks[i % masks.len()]` (possibly none).
fn grow_mc(picks: &[(u16, u16, u16)], masks: &[u8], rule: ParentRule) -> McNet {
    let groups = |i: usize| -> Vec<GroupId> {
        (0..4)
            .filter(|&g| masks[i % masks.len()] >> g & 1 == 1)
            .collect()
    };
    let mut mc = McNet::new(ClusterNet::new(rule, SlotMode::Strict));
    mc.move_in(&[], &groups(0)).unwrap();
    for (i, nbrs) in arrivals(picks).enumerate() {
        mc.move_in(&nbrs, &groups(i + 1)).unwrap();
    }
    mc
}

/// A random attached non-root node whose announced departure keeps `G`
/// connected, if there is one.
fn departing(net: &ClusterNet, pick: u16) -> Option<NodeId> {
    let candidates: Vec<NodeId> = net
        .tree()
        .nodes()
        .filter(|&u| u != net.root() && net.can_move_out(u).is_ok())
        .collect();
    (!candidates.is_empty()).then(|| candidates[pick as usize % candidates.len()])
}

type NodeState = (NodeId, Option<NodeId>, NodeStatus, Option<u32>, Option<u32>);

/// Every attached node's parent, status, b-slot and l-slot.
fn node_state(net: &ClusterNet) -> Vec<NodeState> {
    let (tree, slots) = (net.tree(), net.slots());
    tree.nodes()
        .map(|u| (u, tree.parent(u), net.status(u), slots.b(u), slots.l(u)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn growth_invariants_hold_in_both_modes(
        picks in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u16>()), 1..60),
    ) {
        for mode in [SlotMode::Strict, SlotMode::PaperFaithful] {
            let net = grow(&picks, ParentRule::LowestId, mode);
            invariants::check_growth(&net)
                .map_err(|v| TestCaseError::fail(format!("{mode:?}: {v:?}")))?;
        }
    }

    #[test]
    fn slot_bounds_of_lemma3(
        picks in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u16>()), 1..80),
    ) {
        let net = grow(&picks, ParentRule::LowestId, SlotMode::Strict);
        let g = net.graph();
        let big_d = degree::max_degree(g) as u32;
        let small_d = degree::induced_max_degree(g, &net.backbone_nodes()) as u32;
        prop_assert!(net.delta_b() <= small_d * (small_d + 1) / 2 + 1);
        prop_assert!(net.delta_l() <= big_d * (big_d + 1) / 2 + 1);
    }

    #[test]
    fn flood_slots_always_satisfy_condition1(
        picks in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u16>()), 1..60),
    ) {
        let net = grow(&picks, ParentRule::LowestId, SlotMode::Strict);
        let view = net.view();
        let (slots, delta) = assign_flood_slots(&view);
        let violations = validate_condition1(&view, &slots);
        prop_assert!(violations.is_empty(), "{violations:?}");
        // Condition-1 slots respect the same quadratic style bound on the
        // full graph degree.
        let big_d = degree::max_degree(net.graph()) as u32;
        prop_assert!(delta <= big_d * (big_d + 1) / 2 + 1);
    }

    #[test]
    fn statuses_match_definition1_locally(
        picks in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u16>()), 1..60),
    ) {
        let net = grow(&picks, ParentRule::HighestDegree, SlotMode::Strict);
        let tree = net.tree();
        for u in tree.nodes() {
            match net.status(u) {
                NodeStatus::PureMember => {
                    prop_assert!(tree.is_leaf(u));
                    prop_assert_eq!(
                        net.status(tree.parent(u).unwrap()),
                        NodeStatus::ClusterHead
                    );
                }
                NodeStatus::Gateway => {
                    prop_assert_eq!(tree.depth(u) % 2, 1);
                }
                NodeStatus::ClusterHead => {
                    prop_assert_eq!(tree.depth(u) % 2, 0);
                }
            }
        }
    }

    #[test]
    fn move_out_every_possible_node_keeps_soundness(
        picks in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u16>()), 3..25),
        victims in prop::collection::vec(any::<u16>(), 1..6),
    ) {
        let mut net = grow(&picks, ParentRule::LowestId, SlotMode::Strict);
        for &v in &victims {
            let nodes: Vec<NodeId> = net.tree().nodes().collect();
            if nodes.len() <= 2 {
                break;
            }
            let victim = nodes[v as usize % nodes.len()];
            let _ = net.move_out(victim); // refusals are fine
            invariants::check_core(&net)
                .map_err(|errs| TestCaseError::fail(format!("{errs:?}")))?;
            let violations = validate_condition2(&net.view(), net.slots(), net.mode());
            prop_assert!(violations.is_empty(), "{violations:?}");
            // The departure preview agrees with a brute-force component
            // count of G − u for every node that could leave next.
            let g = net.graph();
            for u in net.tree().nodes().filter(|&u| u != net.root()) {
                let rest: Vec<NodeId> = g.nodes().filter(|&v| v != u).collect();
                let stays_connected = components::components(&g.induced_subgraph(&rest)).len() == 1;
                prop_assert_eq!(net.can_move_out(u).is_ok(), stays_connected, "node {}", u);
            }
        }
    }

    #[test]
    fn move_in_costs_respect_theorem2_shape(
        picks in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u16>()), 1..50),
    ) {
        let mut net = ClusterNet::with_defaults();
        net.move_in(&[]).unwrap();
        for nbrs in arrivals(&picks) {
            let d_new = nbrs.len() as u64;
            let report = net.move_in(&nbrs).unwrap();
            // Theorem 2: discovery O(d_new); slot updates ≤ a handful of
            // Procedure-1 calls, each ≤ 1 + deg; propagation 2h.
            let g = net.graph();
            let big_d = dsnet_graph::degree::max_degree(g) as u64;
            prop_assert_eq!(report.cost.discovery, d_new + 1);
            prop_assert!(report.cost.slot_update <= 6 * (big_d + 1),
                "slot update {} vs D={}", report.cost.slot_update, big_d);
            prop_assert_eq!(report.cost.propagation, 2 * net.height() as u64);
        }
    }

    /// A crash repair is the announced departure run on the dead node's
    /// behalf: whenever `G − lev` stays connected both take the same
    /// steps, and whenever the sink may leave, its crash rebuilds the same
    /// structure.
    #[test]
    fn crash_repair_evicts_exactly_like_move_out(
        picks in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u16>()), 2..40),
        pick in any::<u16>(),
    ) {
        let config = RepairConfig::default();
        for rule in [ParentRule::LowestId, ParentRule::HighestDegree] {
            for mode in [SlotMode::Strict, SlotMode::PaperFaithful] {
                let net = grow(&picks, rule, mode);
                let v0 = net.structure_version();
                if let Some(lev) = departing(&net, pick) {
                    let (mut left, mut crashed) = (net.clone(), net.clone());
                    let moved = left.move_out(lev).unwrap();
                    let repaired = crashed.repair_failure(lev, &config).unwrap();
                    prop_assert_eq!(&moved.rehomed, &repaired.rehomed);
                    prop_assert_eq!(moved.cost, repaired.cost);
                    prop_assert!(repaired.lost.is_empty());
                    prop_assert_eq!(node_state(&left), node_state(&crashed));
                    prop_assert_eq!(left.structure_version(), crashed.structure_version());
                    let dirty = |n: &ClusterNet| n.dirty_since(v0).map(Iterator::collect::<Vec<_>>);
                    prop_assert_eq!(dirty(&left), dirty(&crashed));
                }
                let mut left = net.clone();
                if let Ok(report) = left.move_out_root() {
                    let mut crashed = net.clone();
                    let repaired = crashed.repair_failure(report.old_root, &config).unwrap();
                    prop_assert_eq!(left.root(), crashed.root());
                    prop_assert_eq!(node_state(&left), node_state(&crashed));
                    prop_assert!(repaired.lost.is_empty());
                    prop_assert_eq!(repaired.cost.reinsert, report.rounds);
                }
            }
        }
    }

    /// The same equivalence one layer up: MCNet's relay-list upkeep ends in
    /// the same group- and relay-lists after either operation.
    #[test]
    fn mcnet_crash_repair_keeps_the_relay_lists_of_move_out(
        picks in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u16>()), 2..40),
        masks in prop::collection::vec(any::<u8>(), 1..8),
        pick in any::<u16>(),
    ) {
        let config = RepairConfig::default();
        let lists = |mc: &McNet| -> Vec<(Vec<GroupId>, Vec<GroupId>)> {
            (0..mc.net().graph().capacity() as u32)
                .map(|i| (mc.group_list(NodeId(i)).to_vec(), mc.relay_list(NodeId(i))))
                .collect()
        };
        for rule in [ParentRule::LowestId, ParentRule::HighestDegree] {
            let mc = grow_mc(&picks, &masks, rule);
            if let Some(lev) = departing(mc.net(), pick) {
                let (mut left, mut crashed) = (mc.clone(), mc.clone());
                left.move_out(lev).unwrap();
                crashed.repair_failure(lev, &config).unwrap();
                prop_assert_eq!(lists(&left), lists(&crashed));
                crashed.check_relay_consistency().map_err(TestCaseError::fail)?;
            }
            let mut left = mc.clone();
            if let Ok(report) = left.move_out_root() {
                let mut crashed = mc.clone();
                crashed.repair_failure(report.old_root, &config).unwrap();
                prop_assert_eq!(lists(&left), lists(&crashed));
                crashed.check_relay_consistency().map_err(TestCaseError::fail)?;
            }
        }
    }
}

mod session_props {
    use super::grow;
    use dsnet_cluster::slots::session::{assign_session_slots, validate_session};
    use dsnet_cluster::{ParentRule, SlotMode};
    use dsnet_graph::NodeId;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Session slots must satisfy the session-level Condition 2 for
        /// *any* ancestor-closed transmitter set: membership mask → targets,
        /// relays = strict ancestors of targets (the MCNet shape).
        #[test]
        fn session_slots_sound_for_random_participation(
            picks in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u16>()), 3..50),
            member_mod in 2u16..7,
        ) {
            let net = grow(&picks, ParentRule::LowestId, SlotMode::Strict);
            let tree = net.tree();
            let target = |u: NodeId| u.0.is_multiple_of(member_mod as u32);
            let relay = |u: NodeId| {
                tree.subtree_nodes(u).iter().any(|&d| d != u && target(d))
            };
            let rx = |u: NodeId| target(u) || relay(u);
            let view = net.view();
            let slots = assign_session_slots(&view, net.mode(), &relay, &rx);
            let violations = validate_session(&view, &slots, net.mode(), &relay, &rx);
            prop_assert!(violations.is_empty(), "{violations:?}");
        }

        /// The full-participation session must be exactly as sound as a
        /// broadcast schedule.
        #[test]
        fn full_session_is_always_sound(
            picks in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u16>()), 1..50),
        ) {
            let net = grow(&picks, ParentRule::LowestId, SlotMode::Strict);
            let all = |_u: NodeId| true;
            let view = net.view();
            let slots = assign_session_slots(&view, net.mode(), &all, &all);
            let violations = validate_session(&view, &slots, net.mode(), &all, &all);
            prop_assert!(violations.is_empty(), "{violations:?}");
        }
    }
}
