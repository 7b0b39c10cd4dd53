//! Property tests of the cell-sharded delivery path against the
//! one-worker, single-cell engine run.
//!
//! The engine's contract is that the spatial partition and the worker
//! count are *invisible*: for the same graph, programs, loss model and
//! failure plan, a run sharded over any cell partition — its passes
//! executed inline by one worker or by N scoped workers — must produce
//! the same event trace (deliveries, collisions, link drops, in the same
//! order), the same per-node energy meters and the same outcome as the
//! unsharded engine. These tests generate random unit-disk graphs and
//! random partitions — including empty cells and the single-cell edge
//! case — and require exactly that.

use dsnet_graph::{Graph, NodeId};
use dsnet_radio::{
    Action, Channel, Engine, EngineConfig, FailurePlan, LossModel, NodeCtx, NodeProgram,
    RunOutcome, ShardPlan, TraceEvent,
};
use proptest::prelude::*;
use std::sync::Arc;

/// A node that replays a fixed script of actions (`properties.rs` idiom).
struct Scripted {
    script: Vec<Action<u32>>,
}

impl NodeProgram for Scripted {
    type Msg = u32;
    fn act(&mut self, ctx: &NodeCtx) -> Action<u32> {
        self.script
            .get(ctx.round as usize - 1)
            .cloned()
            .unwrap_or(Action::Sleep)
    }
    fn on_receive(&mut self, _ctx: &NodeCtx, _from: NodeId, _msg: &u32) {}
    fn done(&self) -> bool {
        false
    }
}

/// Raw script entry: 0 = sleep, 1..=2 transmit, 3..=4 listen.
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

const ROUNDS: usize = 8;
const SIDE: f64 = 10.0;
const RANGE: f64 = 3.5;

/// Build a unit-disk graph over the given positions (scaled to a
/// `SIDE × SIDE` field, radio range `RANGE`).
fn unit_disk(points: &[(f64, f64)]) -> Graph {
    let n = points.len();
    let mut g = Graph::with_nodes(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let (dx, dy) = (points[i].0 - points[j].0, points[i].1 - points[j].1);
            if (dx * dx + dy * dy).sqrt() <= RANGE {
                g.add_edge(NodeId(i as u32), NodeId(j as u32));
            }
        }
    }
    g
}

struct RunResult {
    outcome: RunOutcome,
    events: Vec<TraceEvent>,
    meters: Vec<(u64, u64)>,
}

/// One full run: fresh engine over `graph`/`table`, with the given
/// loss/failure configuration and (optionally) a shard plan + worker
/// count. `plan: None` is the one-worker, single-cell reference.
#[allow(clippy::too_many_arguments)]
fn run_once(
    g: &Graph,
    table: &[Vec<Action<u32>>],
    channels: u8,
    loss_ppm: u32,
    loss_seed: u64,
    kill: Option<NodeId>,
    plan: Option<ShardPlan>,
    threads: usize,
) -> RunResult {
    let mut engine = Engine::new(
        g,
        EngineConfig {
            channels,
            max_rounds: ROUNDS as u64,
            record_trace: true,
        },
        |u| Scripted {
            script: table[u.index()].clone(),
        },
    );
    if loss_ppm > 0 {
        engine.set_loss(LossModel::from_ppm(loss_ppm, loss_seed));
    }
    if let Some(victim) = kill {
        let mut fp = FailurePlan::new();
        fp.kill_node_for(victim, 3, 2);
        engine.set_failures(fp);
    }
    if let Some(plan) = plan {
        engine.set_shards(Arc::new(plan), threads);
    }
    let outcome = engine.run();
    let n = g.capacity();
    RunResult {
        outcome,
        events: engine.trace().events().to_vec(),
        meters: (0..n)
            .map(|i| {
                let m = engine.meter(NodeId(i as u32));
                (m.tx_rounds, m.listen_rounds)
            })
            .collect(),
    }
}

fn assert_same(label: &str, base: &RunResult, other: &RunResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(base.outcome, other.outcome, "{}: outcome diverged", label);
    prop_assert_eq!(
        &base.events,
        &other.events,
        "{}: event stream diverged",
        label
    );
    prop_assert_eq!(
        &base.meters,
        &other.meters,
        "{}: energy meters diverged",
        label
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// Sharded delivery (1, 2 and 3 workers over a random partition
    /// with guaranteed empty cells, and 2 requested workers over one
    /// big cell) matches the one-worker, single-cell run on random
    /// unit-disk graphs with random scripts, channel loss and a
    /// transient node outage.
    #[test]
    fn sharded_delivery_matches_sequential(
        points in prop::collection::vec((0.0..SIDE, 0.0..SIDE), 3..20),
        scripts in prop::collection::vec(prop::collection::vec(any::<u8>(), ROUNDS), 3..20),
        channels in 1u8..3,
        cells in 1usize..5,
        assign in prop::collection::vec(any::<u8>(), 20),
        loss_sel in 0u8..3,
        loss_seed in any::<u64>(),
        kill_one in any::<bool>(),
    ) {
        let loss_ppm = [0u32, 150_000, 400_000][loss_sel as usize];
        let n = points.len();
        let g = unit_disk(&points);
        let table: Vec<Vec<Action<u32>>> = (0..n)
            .map(|i| {
                let script = &scripts[i % scripts.len()];
                (0..ROUNDS)
                    .map(|r| decode(script[r], i as u32, r, channels))
                    .collect()
            })
            .collect();
        let kill = kill_one.then_some(NodeId((assign[0] as u32) % n as u32));

        let base = run_once(&g, &table, channels, loss_ppm, loss_seed, kill, None, 1);

        // A random partition into `cells` cells, padded with two cells
        // that are empty by construction — the engine must treat them as
        // no-ops.
        let mut partition: Vec<Vec<NodeId>> = vec![Vec::new(); cells + 2];
        for i in 0..n {
            partition[assign[i] as usize % cells].push(NodeId(i as u32));
        }
        for threads in [1usize, 2, 3] {
            let sharded = run_once(
                &g, &table, channels, loss_ppm, loss_seed, kill,
                Some(ShardPlan::from_cells(partition.clone())), threads,
            );
            assert_same(&format!("random partition, {threads} thread(s)"), &base, &sharded)?;
        }

        // Single-cell edge case: every node in one cell, which caps the
        // two requested workers at one.
        let single = run_once(
            &g, &table, channels, loss_ppm, loss_seed, kill,
            Some(ShardPlan::single((0..n as u32).map(NodeId))), 2,
        );
        assert_same("single cell, 2 threads", &base, &single)?;
    }
}
