//! Property-based protocol testing on randomly grown networks: every
//! protocol delivers, respects its analytic bound, and the multicast
//! reaches exactly its group (up to the documented pruning caveat, which
//! strict slots plus these small random structures never trigger — any
//! regression here is a real bug).

use dsnet::cluster::{ClusterNet, GroupId, McNet};
use dsnet::graph::NodeId;
use dsnet::protocols::analytic;
use dsnet::protocols::runner::{run, BroadcastOutcome, MulticastSlots, RunConfig};
use dsnet::{Broadcast, Protocol};
use proptest::prelude::*;

/// One `protocol` broadcast from `source` over fresh knowledge.
fn broadcast(
    net: &ClusterNet,
    protocol: Protocol,
    source: NodeId,
    cfg: &RunConfig,
) -> BroadcastOutcome {
    run(net, &Broadcast::new(protocol, source), cfg).outcome
}

/// One group-1 multicast from the root over fresh knowledge.
fn multicast(mc: &McNet, slots: MulticastSlots, cfg: &RunConfig) -> BroadcastOutcome {
    run(mc, &Broadcast::multicast(mc.net().root(), 1, slots), cfg).outcome
}

/// Grow a random connected structure from a neighbour-choice seed list.
/// Element i (three u16s) decides which earlier nodes node i+1 hears.
fn grow(seeds: &[(u16, u16, u16)], groups_mod: u16) -> McNet {
    let mut mc = McNet::with_defaults();
    mc.move_in(&[], &[0]).unwrap();
    for (i, &(a, b, c)) in seeds.iter().enumerate() {
        let existing = i + 1;
        let mut nbrs: Vec<NodeId> = [a, b, c]
            .iter()
            .map(|&x| NodeId((x as usize % existing) as u32))
            .collect();
        nbrs.sort_unstable();
        nbrs.dedup();
        let g: Vec<GroupId> = if groups_mod > 0 && (i as u16).is_multiple_of(groups_mod) {
            vec![1]
        } else {
            vec![]
        };
        mc.move_in(&nbrs, &g).unwrap();
    }
    mc
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn all_protocols_deliver_on_random_growth(
        seeds in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u16>()), 2..50),
        source_pick in any::<u16>(),
    ) {
        let mc = grow(&seeds, 0);
        let net = mc.net();
        let nodes: Vec<NodeId> = net.tree().nodes().collect();
        let source = nodes[source_pick as usize % nodes.len()];
        let cfg = RunConfig::default();

        let dfo = broadcast(net, Protocol::Dfo, source, &cfg);
        prop_assert_eq!(dfo.delivered, dfo.targets, "DFO");
        prop_assert!(dfo.rounds <= dfo.bound);

        let cff1 = broadcast(net, Protocol::BasicCff, source, &cfg);
        prop_assert_eq!(cff1.delivered, cff1.targets, "CFF1");
        prop_assert!(cff1.rounds <= cff1.bound);

        let cff2 = broadcast(net, Protocol::ImprovedCff, source, &cfg);
        prop_assert_eq!(cff2.delivered, cff2.targets, "CFF2");
        prop_assert!(cff2.rounds <= cff2.bound);
    }

    #[test]
    fn multichannel_never_regresses(
        seeds in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u16>()), 2..40),
        k in 2u8..6,
    ) {
        let mc = grow(&seeds, 0);
        let net = mc.net();
        let base = broadcast(net, Protocol::ImprovedCff, net.root(), &RunConfig::default());
        let multi = broadcast(net, Protocol::ImprovedCff, net.root(), &RunConfig { channels: k, ..Default::default() });
        prop_assert_eq!(multi.delivered, multi.targets, "k={}", k);
        prop_assert!(multi.rounds <= base.rounds, "k={}: {} > {}", k, multi.rounds, base.rounds);
    }

    #[test]
    fn reliable_multicast_covers_group_exactly(
        seeds in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u16>()), 4..50),
        group_mod in 2u16..6,
    ) {
        let mc = grow(&seeds, group_mod);
        let net = mc.net();
        let cfg = RunConfig::default();
        // Session slots make the pruned transmitter set provably
        // collision-free for the participants: exact delivery required.
        let mcast = multicast(&mc, MulticastSlots::Session, &cfg);
        prop_assert_eq!(mcast.delivered, mcast.targets,
            "reliable multicast {}/{}", mcast.delivered, mcast.targets);

        let bcast = broadcast(net, Protocol::ImprovedCff, net.root(), &cfg);
        let m_work = mcast.energy.total_listen + mcast.energy.total_tx;
        let b_work = bcast.energy.total_listen + bcast.energy.total_tx;
        prop_assert!(m_work <= b_work, "pruned work {} > broadcast work {}", m_work, b_work);
        // Session slots are a from-scratch greedy assignment, so the pruned
        // windows are usually — not provably — no larger than the
        // incremental broadcast's; what is guaranteed is the session bound.
        prop_assert!(mcast.rounds <= mcast.bound);
    }

    #[test]
    fn paper_multicast_prunes_and_mostly_delivers(
        seeds in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u16>()), 4..50),
        group_mod in 2u16..6,
    ) {
        // The paper's multicast reuses broadcast slots; muting transmitters
        // can break Condition 2 at a receiver (documented caveat), so the
        // guarantee here is statistical, never a regression beyond the
        // reliable variant's exactness.
        let mc = grow(&seeds, group_mod);
        let net = mc.net();
        let cfg = RunConfig::default();
        let mcast = multicast(&mc, MulticastSlots::RelayPruned, &cfg);
        prop_assert!(mcast.delivery_ratio() >= 0.5,
            "paper multicast collapsed: {}/{}", mcast.delivered, mcast.targets);
        let bcast = broadcast(net, Protocol::ImprovedCff, net.root(), &cfg);
        let m_work = mcast.energy.total_listen + mcast.energy.total_tx;
        let b_work = bcast.energy.total_listen + bcast.energy.total_tx;
        prop_assert!(m_work <= b_work);
    }

    #[test]
    fn awake_bound_holds_for_every_node(
        seeds in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u16>()), 2..40),
        k in 1u8..5,
    ) {
        let mc = grow(&seeds, 0);
        let net = mc.net();
        let kn = dsnet::protocols::knowledge::build_knowledge(net);
        let cfg = RunConfig { channels: k, ..Default::default() };
        // Theorem 1(2)/(3) for Algorithm 2, Lemma 1 for Algorithm 1.
        let cff2 = broadcast(net, Protocol::ImprovedCff, net.root(), &cfg);
        let bound = analytic::improved_awake_bound(&kn, k);
        prop_assert!(cff2.energy.max_awake <= bound,
            "k={}: Alg 2 awake {} > bound {}", k, cff2.energy.max_awake, bound);
        let cff1 = broadcast(net, Protocol::BasicCff, net.root(), &cfg);
        let flood = dsnet::protocols::knowledge::build_flood_knowledge(net);
        let bound = analytic::cff_basic_awake_bound(&flood);
        prop_assert!(cff1.energy.max_awake <= bound,
            "k={}: Alg 1 awake {} > bound {}", k, cff1.energy.max_awake, bound);
    }

    #[test]
    fn dfo_round_count_is_exact(
        seeds in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u16>()), 2..40),
    ) {
        let mc = grow(&seeds, 0);
        let net = mc.net();
        let out = broadcast(net, Protocol::Dfo, net.root(), &RunConfig::default());
        // From a backbone source the tour is exactly 2(|BT|−1) rounds.
        prop_assert_eq!(out.rounds, out.bound);
    }

    #[test]
    fn collision_freedom_on_random_unit_disk_graphs(
        seed in any::<u64>(),
        n in 20usize..70,
        k in 1u8..4,
    ) {
        // Collision-freedom on random connected unit-disk deployments.
        //
        // What the slot construction actually guarantees (and what we
        // assert) is slightly finer than "zero collision events":
        //
        // * DFO has a single token holder per round — no two transmitters
        //   ever share a round, so the trace records zero collisions.
        // * CFF Algorithm 1 transmits in per-depth windows whose slots
        //   satisfy Condition 1/2 pairwise — zero collisions.
        // * CFF Algorithm 2 (improved) with k ≥ 2 channels has every leaf
        //   tune to its one designated phase-2 slot — zero collisions.
        // * CFF Algorithm 2 with k = 1 makes leaves listen through the
        //   whole shared phase-2 window; strict slots guarantee each leaf
        //   ONE clean slot, not pairwise-distinct slots across its entire
        //   internal neighbourhood, so a leaf legally observes collisions
        //   at duplicated slots it is not assigned to. Those events are
        //   benign: full delivery proves every leaf's designated slot was
        //   clean. We assert exactly that.
        let net = dsnet::NetworkBuilder::paper_field(10.0, n, seed)
            .build()
            .unwrap();
        let cfg = RunConfig { channels: k, ..Default::default() };
        let sink = net.sink();

        let dfo = net.run(&Broadcast::new(Protocol::Dfo, sink), &cfg).outcome;
        prop_assert!(dfo.completed());
        prop_assert_eq!(dfo.collisions, Some(0), "DFO must be collision-free");

        let cff1 = net.run(&Broadcast::new(Protocol::BasicCff, sink), &cfg).outcome;
        prop_assert!(cff1.completed());
        prop_assert_eq!(cff1.collisions, Some(0), "CFF Alg 1 must be collision-free");

        let cff2 = net.run(&Broadcast::new(Protocol::ImprovedCff, sink), &cfg).outcome;
        prop_assert!(cff2.completed(), "CFF Alg 2 must deliver everywhere");
        if k >= 2 {
            prop_assert_eq!(
                cff2.collisions,
                Some(0),
                "CFF Alg 2 with k={} channels must be collision-free",
                k
            );
        }
    }
}

/// Regression pin for the documented k=1 behaviour above: on a fixed
/// deployment, improved CFF on a single channel records a *positive*
/// benign collision count (leaves listening through the shared phase-2
/// window) while still delivering everywhere, and the same network on
/// k=2 channels is fully collision-free. If a future slot or runner
/// change silently alters either side of this contrast, this fails.
#[test]
fn improved_cff_k1_leaf_window_collisions_are_benign_and_pinned() {
    let net = dsnet::NetworkBuilder::paper_field(10.0, 60, 1)
        .build()
        .unwrap();
    let sink = net.sink();

    let k1 = net
        .run(
            &Broadcast::new(Protocol::ImprovedCff, sink),
            &RunConfig {
                channels: 1,
                ..Default::default()
            },
        )
        .outcome;
    assert!(k1.completed(), "k=1: {}/{}", k1.delivered, k1.targets);
    let collisions = k1.collisions.expect("trace records collisions");
    assert!(
        collisions > 0,
        "k=1 improved CFF on this deployment is expected to observe \
         benign leaf-window collisions; observing none means the slot \
         construction changed (update the documented contract if so)"
    );

    let k2 = net
        .run(
            &Broadcast::new(Protocol::ImprovedCff, sink),
            &RunConfig {
                channels: 2,
                ..Default::default()
            },
        )
        .outcome;
    assert!(k2.completed());
    assert_eq!(
        k2.collisions,
        Some(0),
        "k=2 designates one phase-2 slot per leaf — collision-free"
    );
}

/// FNV-1a over the `Debug` rendering of every trace event, one per line:
/// a compact fingerprint of who transmitted what, to whom, in which round.
fn trace_digest(events: &[dsnet::radio::TraceEvent]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for ev in events {
        for b in format!("{ev:?}\n").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Full traced streams on the paper's 200-node network, event by event:
/// DFO's token tour, improved CFF at k = 1 and k = 3, Algorithm 1, and
/// the reliable flood under 10% loss with a transient gateway outage
/// (a failure plan, so the engine consults every node every round),
/// each from the sink and from the smallest-id pure member. Aggregate
/// round and awake counts cannot see a change in who heard what when;
/// these digests of the whole stream can, so they pin the engine's
/// output across commits. A two-worker run over a 9-cell shard plan
/// must reproduce each pinned stream.
#[test]
fn traces_on_the_paper_network_are_pinned() {
    use dsnet::radio::{FailurePlan, LossModel};
    let net = dsnet::NetworkBuilder::paper(200, 7).build().unwrap();
    let cnet = net.net();
    let smallest = |status| {
        cnet.tree()
            .nodes()
            .filter(|&u| cnet.status(u) == status)
            .min()
            .expect("the paper network has every status")
    };
    let member = smallest(dsnet::cluster::NodeStatus::PureMember);
    let mut outage = FailurePlan::new();
    outage.kill_node_for(smallest(dsnet::cluster::NodeStatus::Gateway), 3, 10);
    let lossy = LossModel::from_ppm(100_000, 7);
    let clean = || (LossModel::none(), FailurePlan::new());
    let cases = [
        ("dfo", Protocol::Dfo, 1, clean()),
        ("cff k=1", Protocol::ImprovedCff, 1, clean()),
        ("cff k=3", Protocol::ImprovedCff, 3, clean()),
        ("cff1", Protocol::BasicCff, 1, clean()),
        ("rcff", Protocol::ReliableCff, 1, (lossy, outage)),
    ];
    let mut got = Vec::new();
    for (label, protocol, channels, (loss, failures)) in cases {
        for source in [net.sink(), member] {
            let mut streams = Vec::new();
            for (shards, threads) in [(None, 1), (Some(net.shard_plan(9)), 2)] {
                let cfg = RunConfig {
                    channels,
                    loss,
                    failures: failures.clone(),
                    shards,
                    threads,
                    ..RunConfig::default()
                };
                let run = net.run(&Broadcast::new(protocol, source), &cfg);
                assert!(
                    run.outcome.completed() || protocol == Protocol::ReliableCff,
                    "{label} from {source}"
                );
                let events = run.trace.events();
                streams.push((run.outcome.rounds, events.len(), trace_digest(events)));
            }
            assert_eq!(streams[0], streams[1], "{label} from {source}: 2 workers");
            let (rounds, events, digest) = streams[0];
            got.push((label, source.0, rounds, events, digest));
        }
    }
    assert_eq!(
        got,
        [
            ("dfo", 0, 138, 1385, 0x2bd3_6ae4_7320_0c78),
            ("dfo", 2, 140, 1412, 0xb957_4b1b_d851_ee63),
            ("cff k=1", 0, 20, 352, 0x9510_e72e_72c0_e7ea),
            ("cff k=1", 2, 21, 352, 0x9a33_507b_c442_3b21),
            ("cff k=3", 0, 18, 311, 0xa771_2838_f9bc_f0a7),
            ("cff k=3", 2, 19, 312, 0xa9db_0171_3256_4c61),
            ("cff1", 0, 31, 257, 0x1258_4c74_dfcc_59c1),
            ("cff1", 2, 32, 258, 0x3926_c60d_15cc_ab90),
            ("rcff", 0, 192, 356, 0x0c7c_8619_1643_0416),
            ("rcff", 2, 193, 477, 0x5d82_9ac3_a25e_759c),
        ]
    );
}
