//! The knowledge cache is a pure memoisation: broadcasts and multicasts
//! served through [`SensorNetwork`]'s version-keyed [`KnowledgeCache`]
//! must be *byte-identical* — same outcome, same delivery bitmap, same
//! [`TraceEvent`] stream, same warnings — to runs over a knowledge
//! snapshot rebuilt from scratch, no matter what sequence of structural
//! mutations (churn, repair) preceded them, and campaign artifacts must
//! stay thread-invariant across every axis (loss, repair, mobility) now
//! that trials run through the cache.
//!
//! Also pins the diagnostic-warning contract: the benign k=1
//! leaf-window collision note of Algorithm 2 travels on the trace, never
//! on stderr, and disabled traces carry no warnings at all.

use dsnet::campaign_engine::{render_csv, render_json, CampaignSpec, MobilitySpec, ProtocolSpec};
use dsnet::cluster::repair::RepairConfig;
use dsnet::graph::NodeId;
use dsnet::protocols::knowledge::build_knowledge;
use dsnet::protocols::runner::{self, MulticastSlots, RunConfig};
use dsnet::radio::LossModel;
use dsnet::{Broadcast, GroupPlan, NetworkBuilder, Protocol, SensorNetwork};
use proptest::prelude::*;

/// Apply a mutation sequence driven by proptest-chosen picks: leaves,
/// joins (near a surviving node), and crash-repairs. Operations that the
/// structure legitimately refuses (e.g. evicting the sink) are skipped —
/// the point is to scramble the structure version, not to model churn
/// precisely.
fn mutate(net: &mut SensorNetwork, ops: &[(u8, u16)]) {
    for &(op, pick) in ops {
        let nodes: Vec<NodeId> = net.net().tree().nodes().collect();
        if nodes.len() <= 2 {
            break;
        }
        let victim = nodes[pick as usize % nodes.len()];
        match op % 3 {
            0 => {
                let _ = net.leave(victim);
            }
            1 => {
                let p = net.position(victim);
                let theta = (pick as f64) * 0.37;
                let q = dsnet::geom::Point2::new(p.x + 0.3 * theta.cos(), p.y + 0.3 * theta.sin());
                let _ = net.join(q, &[]);
            }
            _ => {
                let _ = net.repair_crash(victim, &RepairConfig::default());
            }
        }
    }
    net.check();
}

/// Run `req` twice — once through the network's cache, once over a
/// freshly built knowledge snapshot — and demand identical results.
fn assert_cached_matches_fresh(net: &SensorNetwork, req: Broadcast<'_>, cfg: &RunConfig) {
    let label = format!("{:?} {:?}", req.protocol, req.multicast);
    let cached = net.run(&req, cfg);
    let fresh_k = build_knowledge(net.net());
    let fresh_req = Broadcast {
        knowledge: Some(&fresh_k),
        ..req
    };
    let fresh = runner::run(net.mcnet(), &fresh_req, cfg);
    let (cached_out, fresh_out) = (&cached.outcome, &fresh.outcome);
    assert_eq!(cached_out.rounds, fresh_out.rounds, "{label} rounds");
    assert_eq!(
        cached_out.delivered, fresh_out.delivered,
        "{label} delivered"
    );
    assert_eq!(cached_out.targets, fresh_out.targets, "{label} targets");
    assert_eq!(cached_out.bound, fresh_out.bound, "{label} bound");
    assert_eq!(
        cached_out.collisions, fresh_out.collisions,
        "{label} collisions"
    );
    assert_eq!(cached.received, fresh.received, "{label} delivery bitmap");
    assert_eq!(
        cached.trace.events(),
        fresh.trace.events(),
        "{label} trace events diverged between cached and fresh knowledge"
    );
    assert_eq!(
        cached.trace.warnings(),
        fresh.trace.warnings(),
        "{label} warnings diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The tentpole equivalence: for any mutation history, every
    /// protocol's cached run — both multicast slot modes included —
    /// equals its from-scratch run, lossless and under seeded channel
    /// loss.
    #[test]
    fn cached_broadcasts_equal_uncached_after_arbitrary_mutations(
        n in 30usize..80,
        seed in 0u64..500,
        ops in prop::collection::vec((any::<u8>(), any::<u16>()), 0..12),
    ) {
        let mut net = NetworkBuilder::paper_field(10.0, n, seed)
            .groups(GroupPlan {
                groups: 1,
                membership: 0.3,
            })
            .build()
            .unwrap();
        mutate(&mut net, &ops);

        let cfg = RunConfig::default();
        let sink = net.sink();
        for req in [
            Broadcast::new(Protocol::Dfo, sink),
            Broadcast::new(Protocol::BasicCff, sink),
            Broadcast::new(Protocol::ImprovedCff, sink),
            Broadcast::new(Protocol::ReliableCff, sink),
            Broadcast::multicast(sink, 0, MulticastSlots::RelayPruned),
            Broadcast::multicast(sink, 0, MulticastSlots::Session),
        ] {
            assert_cached_matches_fresh(&net, req, &cfg);
        }

        // Seeded loss: the LossModel stream is a function of (seed, round,
        // edge), so cached and fresh runs see identical drop decisions.
        let lossy = RunConfig {
            loss: LossModel::from_ppm(100_000, seed ^ 0xBEEF),
            max_retries: 3,
            ..RunConfig::default()
        };
        assert_cached_matches_fresh(&net, Broadcast::new(Protocol::ReliableCff, net.sink()), &lossy);
    }
}

/// Deterministic (non-proptest) spot check: a cache that survives an
/// explicit leave → join → repair chain still matches from-scratch runs
/// at every step, not just at the end.
#[test]
fn cache_stays_fresh_across_each_mutation_step() {
    let mut net = NetworkBuilder::paper_field(10.0, 60, 9).build().unwrap();
    assert_cached_matches_fresh(
        &net,
        Broadcast::new(Protocol::ImprovedCff, net.sink()),
        &RunConfig::default(),
    );

    let nodes: Vec<NodeId> = net.net().tree().nodes().collect();
    let victim = *nodes.iter().rev().find(|&&u| u != net.sink()).unwrap();
    net.leave(victim).unwrap();
    assert_cached_matches_fresh(
        &net,
        Broadcast::new(Protocol::ImprovedCff, net.sink()),
        &RunConfig::default(),
    );

    let anchor = net.position(net.sink());
    net.join(
        dsnet::geom::Point2::new(anchor.x + 0.2, anchor.y + 0.1),
        &[],
    )
    .unwrap();
    assert_cached_matches_fresh(
        &net,
        Broadcast::new(Protocol::Dfo, net.sink()),
        &RunConfig::default(),
    );

    let nodes: Vec<NodeId> = net.net().tree().nodes().collect();
    let crash = *nodes.iter().rev().find(|&&u| u != net.sink()).unwrap();
    net.repair_crash(crash, &RepairConfig::default()).unwrap();
    assert_cached_matches_fresh(
        &net,
        Broadcast::new(Protocol::BasicCff, net.sink()),
        &RunConfig::default(),
    );
}

/// The graph's flattened adjacency is a cache as well: a broadcast
/// builds it, and each later move-out, move-in and relocation must drop
/// it. After each of those steps a traced broadcast must be
/// byte-identical to the same broadcast on a twin network, built and
/// mutated the same way, that never broadcast before the mutations.
#[test]
fn flattened_rows_do_not_survive_a_topology_change() {
    use dsnet::cluster::NodeStatus;
    use dsnet::geom::Point2;
    fn move_out(net: &mut SensorNetwork) {
        let nodes: Vec<NodeId> = net.net().tree().nodes().collect();
        let leaver = *nodes.iter().rev().find(|&&u| u != net.sink()).unwrap();
        net.leave(leaver).unwrap();
    }
    fn move_in(net: &mut SensorNetwork) {
        let anchor = net.position(net.sink());
        net.join(Point2::new(anchor.x + 0.2, anchor.y + 0.1), &[])
            .unwrap();
    }
    /// A member departs and rejoins 0.3 away under a fresh id, as a
    /// mobility epoch moves it.
    fn relocate(net: &mut SensorNetwork) {
        let mover = net
            .net()
            .tree()
            .nodes()
            .find(|&u| u != net.sink() && net.net().status(u) == NodeStatus::PureMember)
            .unwrap();
        let p = net.position(mover);
        net.leave(mover).unwrap();
        net.join(Point2::new(p.x + 0.3, p.y), &[]).unwrap();
    }
    let steps: [fn(&mut SensorNetwork); 3] = [move_out, move_in, relocate];
    let build = || NetworkBuilder::paper_field(10.0, 80, 7).build().unwrap();
    let cfg = RunConfig::default();
    let mut warmed = build();
    for done in 0..=steps.len() {
        if done > 0 {
            steps[done - 1](&mut warmed);
            // Compares the rows the last broadcast flattened, if they
            // are still cached, against the mutated graph.
            warmed.net().graph().check_invariants();
        }
        let mut cold = build();
        for step in &steps[..done] {
            step(&mut cold);
        }
        for protocol in [Protocol::ImprovedCff, Protocol::Dfo] {
            let req = Broadcast::new(protocol, warmed.sink());
            let (w, c) = (warmed.run(&req, &cfg), cold.run(&req, &cfg));
            assert!(!w.trace.events().is_empty());
            let label = format!("{protocol:?} after {done} step(s)");
            assert_eq!(w.trace.events(), c.trace.events(), "{label}: trace");
            assert_eq!(format!("{w:?}"), format!("{c:?}"), "{label}: run");
        }
    }
}

/// Small churn must be served by the dirty-scoped patch path, not a full
/// rebuild — and the patched snapshots must still drive broadcasts
/// byte-identical to from-scratch knowledge. Leaving a pure member
/// dirties only its neighbourhood, far under the patch threshold, so
/// every post-churn miss here is required to patch.
#[test]
fn small_churn_is_served_by_the_patch_path() {
    use dsnet::cluster::NodeStatus;
    let mut net = NetworkBuilder::paper_field(10.0, 80, 4).build().unwrap();
    // Prime the cache: the first miss is necessarily a full build.
    assert_cached_matches_fresh(
        &net,
        Broadcast::new(Protocol::ImprovedCff, net.sink()),
        &RunConfig::default(),
    );
    let (_, misses0, patched0) = net.knowledge_stats();

    let churns = 4u64;
    for round in 0..churns as usize {
        let members: Vec<NodeId> = net
            .net()
            .tree()
            .nodes()
            .filter(|&u| u != net.sink() && net.net().status(u) == NodeStatus::PureMember)
            .collect();
        let victim = members[(round * 7) % members.len()];
        net.leave(victim).unwrap();
        assert_cached_matches_fresh(
            &net,
            Broadcast::new(Protocol::ImprovedCff, net.sink()),
            &RunConfig::default(),
        );
    }

    let (_, misses1, patched1) = net.knowledge_stats();
    assert_eq!(
        misses1 - misses0,
        churns,
        "each mutation must invalidate exactly one snapshot"
    );
    assert_eq!(
        patched1 - patched0,
        churns,
        "member-scale churn must be served by patches, not rebuilds"
    );
}

/// Campaign artifacts remain byte-identical across thread counts with
/// the cache in the trial path — including the loss, repair and mobility
/// axes, whose trials mutate structures mid-trial.
#[test]
fn campaign_artifacts_thread_invariant_across_all_axes() {
    use dsnet::campaign_engine::{ChurnTemplate, FailureTemplate, LossSpec};
    let spec = CampaignSpec {
        name: "cache-equivalence".into(),
        field_side: 10.0,
        ns: vec![40],
        reps: 2,
        base_seed: 11,
        protocols: vec![ProtocolSpec::ImprovedCff, ProtocolSpec::ReliableCff],
        channels: vec![1],
        failures: vec![
            FailureTemplate::None,
            FailureTemplate::Backbone { count: 1, round: 1 },
        ],
        churn: vec![
            ChurnTemplate::default(),
            ChurnTemplate {
                joins: 2,
                leaves: 1,
            },
        ],
        losses: vec![LossSpec::none(), LossSpec::from_probability(0.05)],
        repair: vec![false, true],
        mobility: vec![
            MobilitySpec::None,
            MobilitySpec::RandomWaypoint {
                speed_milli: 50,
                pause: 2,
                epochs: 5,
            },
        ],
        max_retries: 3,
        record_trace: true,
    };
    let one = dsnet::campaign::run(&spec, 1, None);
    let two = dsnet::campaign::run(&spec, 2, None);
    assert_eq!(
        render_json(&one, true),
        render_json(&two, true),
        "campaign JSON artifact depends on thread count"
    );
    assert_eq!(render_csv(&one), render_csv(&two));
}

/// The benign k=1 leaf-window collision note is trace data: present on
/// k=1 runs that observe collisions, absent on k=2 (provably
/// collision-free), and never emitted when tracing is off.
#[test]
fn k1_leaf_window_warning_travels_on_the_trace() {
    let net = NetworkBuilder::paper_field(10.0, 60, 1).build().unwrap();
    let sink = net.sink();

    let k1 = RunConfig {
        channels: 1,
        ..RunConfig::default()
    };
    let run = net.run(&Broadcast::new(Protocol::ImprovedCff, sink), &k1);
    let (out, trace) = (run.outcome, run.trace);
    assert!(out.completed());
    assert!(
        out.collisions.unwrap() > 0,
        "this deployment is the pinned k=1 collision witness"
    );
    assert_eq!(trace.warnings().len(), 1, "exactly one diagnostic note");
    assert!(
        trace.warnings()[0].contains("leaf-window"),
        "unexpected warning text: {}",
        trace.warnings()[0]
    );

    let k2 = RunConfig {
        channels: 2,
        ..RunConfig::default()
    };
    let run2 = net.run(&Broadcast::new(Protocol::ImprovedCff, sink), &k2);
    let (out2, trace2) = (run2.outcome, run2.trace);
    assert_eq!(out2.collisions, Some(0));
    assert!(trace2.warnings().is_empty(), "k=2 is collision-free");

    let untraced = RunConfig {
        channels: 1,
        record_trace: false,
        ..RunConfig::default()
    };
    let silent = net
        .run(&Broadcast::new(Protocol::ImprovedCff, sink), &untraced)
        .trace;
    assert!(
        silent.warnings().is_empty(),
        "disabled traces must not accumulate warnings"
    );
}
