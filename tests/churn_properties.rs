//! Property-based churn testing: arbitrary interleavings of node-move-in
//! and node-move-out must preserve every structural invariant, keep the
//! TDM schedule sound, and leave the network broadcastable.

use dsnet::cluster::invariants;
use dsnet::cluster::slots::validate::validate_condition2;
use dsnet::cluster::{ClusterNet, ParentRule, SlotMode};
use dsnet::graph::NodeId;
use dsnet::protocols::runner::{run, RunConfig};
use dsnet::{Broadcast, Protocol};
use proptest::prelude::*;

/// One churn step, interpreted against the current structure.
#[derive(Debug, Clone)]
enum Step {
    /// Join hearing up to three existing nodes (indices are taken modulo
    /// the current attached population).
    Join(u16, u16, u16),
    /// Attempt to remove the node at this index (mod population); cut
    /// vertices and the root legitimately refuse.
    Leave(u16),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (any::<u16>(), any::<u16>(), any::<u16>()).prop_map(|(a, b, c)| Step::Join(a, b, c)),
        1 => any::<u16>().prop_map(Step::Leave),
    ]
}

fn attached(net: &ClusterNet) -> Vec<NodeId> {
    net.tree().nodes().collect()
}

fn apply(net: &mut ClusterNet, step: &Step) {
    match step {
        Step::Join(a, b, c) => {
            let nodes = attached(net);
            if nodes.is_empty() {
                net.move_in(&[]).unwrap();
                return;
            }
            let mut nbrs: Vec<NodeId> = [a, b, c]
                .iter()
                .map(|&&i| nodes[i as usize % nodes.len()])
                .collect();
            nbrs.sort_unstable();
            nbrs.dedup();
            net.move_in(&nbrs).unwrap();
        }
        Step::Leave(i) => {
            let nodes = attached(net);
            if nodes.len() <= 2 {
                return;
            }
            let victim = nodes[*i as usize % nodes.len()];
            // Refusals (root / cut vertex) are part of the contract.
            let _ = net.move_out(victim);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn churn_preserves_invariants(steps in prop::collection::vec(step_strategy(), 1..60)) {
        for mode in [SlotMode::Strict, SlotMode::PaperFaithful] {
            let mut net = ClusterNet::new(ParentRule::LowestId, mode);
            net.move_in(&[]).unwrap();
            for step in &steps {
                apply(&mut net, step);
            }
            invariants::check_core(&net).map_err(|v| {
                TestCaseError::fail(format!("{mode:?}: {v:?}"))
            })?;
            let violations = validate_condition2(&net.view(), net.slots(), mode);
            prop_assert!(violations.is_empty(), "{mode:?}: {violations:?}");
        }
    }

    #[test]
    fn churned_networks_still_broadcast(steps in prop::collection::vec(step_strategy(), 1..40)) {
        let mut net = ClusterNet::new(ParentRule::LowestId, SlotMode::Strict);
        net.move_in(&[]).unwrap();
        for step in &steps {
            apply(&mut net, step);
        }
        let out = run(&net, &Broadcast::new(Protocol::ImprovedCff, net.root()), &RunConfig::default()).outcome;
        prop_assert_eq!(out.delivered, out.targets,
            "delivery {}/{} after churn", out.delivered, out.targets);
        prop_assert!(out.rounds <= out.bound);
    }

    #[test]
    fn move_out_move_in_cycles_preserve_invariants(
        grow in prop::collection::vec(step_strategy(), 8..30),
        cycles in prop::collection::vec(any::<u16>(), 1..25),
    ) {
        // The mobility maintenance driver's core cycle: a node withdraws
        // via node-move-out and immediately re-joins hearing whatever is
        // left of its old neighbourhood (its fresh id stands in for the
        // same physical sensor at a new position). Arbitrary interleavings
        // of that cycle must preserve every invariant — including when the
        // re-join lands next to nodes the departure itself re-homed.
        let mut net = ClusterNet::new(ParentRule::LowestId, SlotMode::Strict);
        net.move_in(&[]).unwrap();
        for step in &grow {
            apply(&mut net, step);
        }
        for &pick in &cycles {
            let nodes = attached(&net);
            if nodes.len() <= 2 {
                break;
            }
            let victim = nodes[pick as usize % nodes.len()];
            let old_nbrs: Vec<NodeId> = net.graph().neighbors(victim).to_vec();
            if net.move_out(victim).is_err() {
                continue; // root / cut vertex: refusal is part of the contract
            }
            // Re-insert hearing the surviving old neighbourhood; if the
            // departure orphaned all of it, fall back to any attached node.
            let alive: Vec<NodeId> = old_nbrs
                .into_iter()
                .filter(|&u| net.tree().contains(u))
                .collect();
            let nbrs = if alive.is_empty() {
                vec![attached(&net)[0]]
            } else {
                alive
            };
            net.move_in(&nbrs).unwrap();
            invariants::check_core(&net).map_err(|v| {
                TestCaseError::fail(format!("after cycling {victim:?}: {v:?}"))
            })?;
        }
        let violations = validate_condition2(&net.view(), net.slots(), SlotMode::Strict);
        prop_assert!(violations.is_empty(), "{violations:?}");
        let out = run(&net, &Broadcast::new(Protocol::ImprovedCff, net.root()), &RunConfig::default()).outcome;
        prop_assert_eq!(out.delivered, out.targets);
    }

    #[test]
    fn parent_rules_both_stay_sound(steps in prop::collection::vec(step_strategy(), 1..40)) {
        for rule in [ParentRule::LowestId, ParentRule::HighestDegree] {
            let mut net = ClusterNet::new(rule, SlotMode::Strict);
            net.move_in(&[]).unwrap();
            for step in &steps {
                apply(&mut net, step);
            }
            invariants::check_core(&net).map_err(|v| {
                TestCaseError::fail(format!("{rule:?}: {v:?}"))
            })?;
        }
    }
}
