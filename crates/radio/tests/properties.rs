//! Property-based tests of the radio engine's collision semantics against
//! a brute-force oracle: nodes with *fixed* per-round action scripts are
//! executed by the engine, and every delivery/collision is recomputed
//! independently from the scripts.

use dsnet_graph::{Graph, NodeId};
use dsnet_radio::{
    Action, Channel, Engine, EngineConfig, FailurePlan, LossModel, NodeCtx, NodeProgram, ShardPlan,
    TraceEvent,
};
use proptest::prelude::*;
use std::sync::Arc;

/// A node that replays a fixed script of actions and records receptions.
/// With `hints` it reports the round of its script's next non-`Sleep`
/// action as its wake round.
struct Scripted {
    script: Vec<Action<u32>>,
    received: Vec<(u64, NodeId, u32)>,
    hints: bool,
}

impl Scripted {
    fn new(script: Vec<Action<u32>>, hints: bool) -> Self {
        Self {
            script,
            received: Vec::new(),
            hints,
        }
    }
}

impl NodeProgram for Scripted {
    type Msg = u32;
    fn act(&mut self, ctx: &NodeCtx) -> Action<u32> {
        self.script
            .get(ctx.round as usize - 1)
            .cloned()
            .unwrap_or(Action::Sleep)
    }
    fn on_receive(&mut self, ctx: &NodeCtx, from: NodeId, msg: &u32) {
        self.received.push((ctx.round, from, *msg));
    }
    fn done(&self) -> bool {
        false
    }
    fn next_wake(&self, now: u64) -> Option<u64> {
        if !self.hints {
            return None;
        }
        // Round r acts script[r - 1]; nothing past the script wakes.
        let after = (now as usize).min(self.script.len());
        let next = self.script[after..]
            .iter()
            .position(|a| !matches!(a, Action::Sleep));
        Some(next.map_or(u64::MAX, |j| (after + j + 1) as u64))
    }
}

/// Raw script entry: 0 = sleep, 1..=2 transmit on channel a-1, 3..=4
/// listen on channel a-3.
fn decode(raw: u8, node: u32, round: usize, channels: u8) -> Action<u32> {
    match raw % 5 {
        0 => Action::Sleep,
        1 | 2 => Action::Transmit {
            channel: ((raw % 5 - 1) % channels) as Channel,
            msg: node * 1000 + round as u32,
        },
        _ => Action::Listen {
            channel: ((raw % 5 - 3) % channels) as Channel,
        },
    }
}

/// A graph on `n` nodes from raw endpoint pairs (self-loops skipped).
fn graph_of(n: usize, edges: &[(u8, u8)]) -> Graph {
    let mut g = Graph::with_nodes(n);
    for &(a, b) in edges {
        let (a, b) = (a as usize % n, b as usize % n);
        if a != b {
            g.add_edge(NodeId(a as u32), NodeId(b as u32));
        }
    }
    g
}

/// The node × round action table of raw scripts (node i plays script
/// i mod the script count).
fn table_of(n: usize, scripts: &[Vec<u8>], rounds: usize, channels: u8) -> Vec<Vec<Action<u32>>> {
    (0..n)
        .map(|i| {
            let script = &scripts[i % scripts.len()];
            (0..rounds)
                .map(|r| decode(script[r], i as u32, r, channels))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn engine_matches_brute_force_collision_rule(
        n in 2u8..10,
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 1..30),
        scripts in prop::collection::vec(prop::collection::vec(any::<u8>(), 6), 2..10),
        channels in 1u8..3,
        loss_sel in 0u8..3,
        loss_seed in any::<u64>(),
        cut in any::<u8>(),
        cut_round in 0u64..7,
    ) {
        let n = n.max(2) as usize;
        let g = graph_of(n, &edges);
        let rounds = 6usize;
        let table = table_of(n, &scripts, rounds, channels);
        let loss = LossModel::from_ppm([0, 200_000, 500_000][loss_sel as usize], loss_seed);
        // One link goes down from `cut_round` on (0: none, so the
        // failure-free path is checked too).
        let mut plan = FailurePlan::new();
        let (a, b) = edges[cut as usize % edges.len()];
        let (a, b) = (NodeId(a as u32 % n as u32), NodeId(b as u32 % n as u32));
        if cut_round > 0 && a != b {
            plan.kill_link(a, b, cut_round);
        }

        let mut engine = Engine::new(
            &g,
            EngineConfig { channels, max_rounds: rounds as u64, record_trace: true },
            |u| Scripted::new(table[u.index()].clone(), false),
        );
        engine.set_loss(loss);
        engine.set_failures(plan.clone());
        engine.run();
        let trace = engine.trace();

        // Oracle: a listener on channel c hears the same-channel
        // neighbours whose link is up; the loss model destroys some of
        // those receptions; it receives iff exactly one survives, and
        // its drops come in ascending sender order before the outcome.
        for r in 1..=rounds {
            let round = r as u64;
            for i in 0..n {
                let id = NodeId(i as u32);
                let Action::Listen { channel } = table[i][r - 1] else {
                    continue;
                };
                let (lost, heard): (Vec<NodeId>, Vec<NodeId>) = g
                    .neighbors(id)
                    .iter()
                    .copied()
                    .filter(|v| matches!(
                        table[v.index()][r - 1],
                        Action::Transmit { channel: c, .. } if c == channel
                    ))
                    .filter(|&v| !plan.link_dead(id, v, round))
                    .partition(|&v| loss.dropped(v, id, round));
                let mut want: Vec<TraceEvent> = lost
                    .iter()
                    .map(|&from| TraceEvent::LinkDrop { round, from, to: id, channel })
                    .collect();
                want.sort_by_key(|e| match e {
                    TraceEvent::LinkDrop { from, .. } => *from,
                    _ => unreachable!(),
                });
                match heard.len() {
                    0 => {}
                    1 => want.push(TraceEvent::Deliver { round, from: heard[0], to: id, channel }),
                    k => want.push(TraceEvent::Collision {
                        round,
                        node: id,
                        channel,
                        transmitters: k as u32,
                    }),
                }
                let got: Vec<TraceEvent> = trace
                    .events()
                    .iter()
                    .filter(|e| match **e {
                        TraceEvent::LinkDrop { round: er, to, .. }
                        | TraceEvent::Deliver { round: er, to, .. } => er == round && to == id,
                        TraceEvent::Collision { round: er, node, .. } => er == round && node == id,
                        _ => false,
                    })
                    .cloned()
                    .collect();
                prop_assert_eq!(got, want, "round {} node {}", r, id);
            }
        }
        // `on_receive` got each delivered message, straight from its sender.
        for i in 0..n {
            let id = NodeId(i as u32);
            let want: Vec<(u64, NodeId, u32)> = trace
                .events()
                .iter()
                .filter_map(|e| match *e {
                    TraceEvent::Deliver { round, from, to, .. } if to == id => {
                        Some((round, from, from.0 * 1000 + round as u32 - 1))
                    }
                    _ => None,
                })
                .collect();
            prop_assert_eq!(&engine.program(id).unwrap().received, &want);
        }
    }

    /// Wake hints are invisible: a script that reports its next
    /// non-`Sleep` round as its wake round yields the same trace, meters,
    /// receptions and outcome as the same script consulted every round,
    /// on one worker and over a random partition at 1 and 2 workers.
    #[test]
    fn wake_hints_match_consulting_every_round(
        n in 2u8..16,
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 1..40),
        scripts in prop::collection::vec(prop::collection::vec(any::<u8>(), 10), 2..10),
        sparse in any::<bool>(),
        channels in 1u8..3,
        lossy in any::<bool>(),
        loss_seed in any::<u64>(),
        cells in 1usize..5,
        assign in prop::collection::vec(any::<u8>(), 16),
    ) {
        let n = n.max(2) as usize;
        let g = graph_of(n, &edges);
        let rounds = 10usize;
        let mut table = table_of(n, &scripts, rounds, channels);
        if sparse {
            // Long sleeps between actions, so hints skip whole spans.
            for (i, row) in table.iter_mut().enumerate() {
                for (r, a) in row.iter_mut().enumerate() {
                    if (r + i) % 3 != 0 {
                        *a = Action::Sleep;
                    }
                }
            }
        }
        let run = |hints: bool, plan: Option<(ShardPlan, usize)>| {
            let mut engine = Engine::new(
                &g,
                EngineConfig { channels, max_rounds: rounds as u64, record_trace: true },
                |u| Scripted::new(table[u.index()].clone(), hints),
            );
            engine.set_loss(LossModel::from_ppm(if lossy { 300_000 } else { 0 }, loss_seed));
            if let Some((plan, threads)) = plan {
                engine.set_shards(Arc::new(plan), threads);
            }
            let outcome = engine.run();
            let meters: Vec<_> = (0..n).map(|i| *engine.meter(NodeId(i as u32))).collect();
            let (trace, programs) = engine.into_parts();
            let received: Vec<_> = programs
                .into_iter()
                .map(|p| p.map(|p| p.received))
                .collect();
            (outcome, trace.events().to_vec(), meters, received)
        };
        let partition = || {
            let mut parts: Vec<Vec<NodeId>> = vec![Vec::new(); cells + 1];
            for i in 0..n {
                parts[assign[i] as usize % cells].push(NodeId(i as u32));
            }
            ShardPlan::from_cells(parts)
        };
        let base = run(false, None);
        prop_assert!(base.0.rounds == rounds as u64);
        prop_assert_eq!(&run(true, None), &base, "hinted, one worker");
        for threads in [1usize, 2] {
            prop_assert_eq!(
                &run(true, Some((partition(), threads))),
                &base,
                "hinted, {} worker(s) over {} cells",
                threads,
                cells
            );
        }
    }

    #[test]
    fn energy_meters_count_every_round(
        scripts in prop::collection::vec(prop::collection::vec(any::<u8>(), 8), 3..6),
    ) {
        let n = scripts.len();
        let mut g = Graph::with_nodes(n);
        for i in 1..n {
            g.add_edge(NodeId(0), NodeId(i as u32));
        }
        let rounds = 8u64;
        let table: Vec<Vec<Action<u32>>> = (0..n)
            .map(|i| (0..8).map(|r| decode(scripts[i][r], i as u32, r, 1)).collect())
            .collect();
        let mut engine = Engine::new(
            &g,
            EngineConfig { max_rounds: rounds, ..Default::default() },
            |u| Scripted::new(table[u.index()].clone(), false),
        );
        engine.run();
        for (i, script) in table.iter().enumerate() {
            let m = engine.meter(NodeId(i as u32));
            prop_assert_eq!(m.tx_rounds + m.listen_rounds + m.sleep_rounds, rounds);
            let expected_tx = script.iter().filter(|a| a.is_transmit()).count() as u64;
            prop_assert_eq!(m.tx_rounds, expected_tx);
        }
    }
}
