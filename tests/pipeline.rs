//! End-to-end integration: deployment → unit-disk graph → incremental
//! CNet construction → TDM slots → every protocol on the radio simulator,
//! checked against the paper's theorems on realistic (paper-parameter)
//! networks.

use dsnet::cluster::invariants;
use dsnet::cluster::slots::validate::validate_condition2;
use dsnet::graph::{components, degree};
use dsnet::protocols::analytic;
use dsnet::protocols::knowledge::build_knowledge;
use dsnet::protocols::runner::RunConfig;
use dsnet::{Broadcast, NetworkBuilder, Protocol};

#[test]
fn paper_network_full_pipeline() {
    for (n, seed) in [(100usize, 1u64), (250, 2), (400, 3)] {
        let net = NetworkBuilder::paper(n, seed).build().unwrap();

        // Structure: spanning, connected, invariant-clean.
        assert_eq!(net.net().tree().len(), n);
        assert!(components::is_connected(net.net().graph()));
        invariants::check_growth(net.net()).unwrap_or_else(|v| panic!("n={n}: {v:?}"));
        let violations =
            validate_condition2(&net.net().view(), net.net().slots(), net.net().mode());
        assert!(violations.is_empty(), "n={n}: {violations:?}");

        // Protocols: full delivery within the analytic bounds.
        for p in [Protocol::ImprovedCff, Protocol::BasicCff, Protocol::Dfo] {
            let out = net.broadcast(p);
            assert!(
                out.completed(),
                "n={n} {p:?}: {}/{}",
                out.delivered,
                out.targets
            );
            assert!(
                out.rounds <= out.bound,
                "n={n} {p:?}: {} > {}",
                out.rounds,
                out.bound
            );
        }
    }
}

#[test]
fn theorem1_bounds_hold_quantitatively() {
    let net = NetworkBuilder::paper(300, 9).build().unwrap();
    let k = build_knowledge(net.net());

    let out = net.broadcast(Protocol::ImprovedCff);
    // Rounds ≤ δ·h_BT + Δ.
    assert!(out.rounds <= k.delta_b as u64 * k.bt_height as u64 + k.delta_l as u64);
    // Awake ≤ 2δ + Δ for every node.
    assert!(out.energy.max_awake <= analytic::improved_awake_bound(&k, 1));
}

#[test]
fn lemma3_slot_bounds_hold_on_unit_disk_graphs() {
    for seed in 10..16 {
        let net = NetworkBuilder::paper(200, seed).build().unwrap();
        let g = net.net().graph();
        let big_d = degree::max_degree(g) as u32;
        let small_d = degree::induced_max_degree(g, &net.net().backbone_nodes()) as u32;
        let (b_bound, l_bound) = analytic::slot_bounds(small_d, big_d);
        assert!(net.net().delta_b() <= b_bound);
        assert!(net.net().delta_l() <= l_bound);
        // The paper's empirical remark: measured slots even below d and D.
        assert!(net.net().delta_b() <= small_d.max(1));
        assert!(net.net().delta_l() <= big_d);
    }
}

#[test]
fn property1_cluster_bound_on_unit_disk_graphs() {
    use dsnet::graph::domset::greedy_dominating_set;
    for seed in 20..24 {
        let net = NetworkBuilder::paper(250, seed).build().unwrap();
        let (heads, gateways, _m) = net.net().status_counts();
        // Property 1(3): #clusters ≤ 5·|MDS| ≤ 5·|greedy DS|.
        let greedy = greedy_dominating_set(net.net().graph());
        assert!(
            heads <= 5 * greedy.len(),
            "seed {seed}: {heads} heads > 5×{} greedy dominators",
            greedy.len()
        );
        // Property 1(1): |BT| ≤ 2·#clusters − 1.
        assert!(heads + gateways < 2 * heads);
    }
}

#[test]
fn multichannel_scaling_matches_theorem_1_3() {
    let net = NetworkBuilder::paper(350, 30).build().unwrap();
    let k = build_knowledge(net.net());
    let mut rounds_by_k = Vec::new();
    for channels in [1u8, 2, 4] {
        let cfg = RunConfig {
            channels,
            ..Default::default()
        };
        let out = net
            .run(&Broadcast::new(Protocol::ImprovedCff, net.sink()), &cfg)
            .outcome;
        assert!(out.completed(), "k={channels}");
        assert!(out.rounds <= analytic::improved_bound(&k, 0, channels));
        rounds_by_k.push(out.rounds);
    }
    assert!(rounds_by_k[1] <= rounds_by_k[0]);
    assert!(rounds_by_k[2] <= rounds_by_k[1]);
}

#[test]
fn broadcast_from_every_tenth_node_completes() {
    let net = NetworkBuilder::paper(150, 40).build().unwrap();
    let sources: Vec<_> = net.net().tree().nodes().step_by(10).collect();
    for s in sources {
        let out = net
            .run(
                &Broadcast::new(Protocol::ImprovedCff, s),
                &RunConfig::default(),
            )
            .outcome;
        assert!(
            out.completed(),
            "source {s}: {}/{}",
            out.delivered,
            out.targets
        );
    }
}
