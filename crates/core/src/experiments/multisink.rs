//! **E14 — multi-sink failover** (the Section-2 robustness remark).
//!
//! Build 1–3 cluster structures over the same deployment (one per sink)
//! and broadcast under backbone failures with failover: coverage lost by
//! the primary structure is recovered through the others at the cost of
//! extra rounds.

use crate::experiments::common::{sweep, SweepConfig};
use crate::multinet::MultiNet;
use crate::network::SensorNetwork;
use dsnet_geom::rng::{derive_seed, rng_from_seed};
use dsnet_graph::NodeId;
use dsnet_metrics::SweepTable;
use dsnet_protocols::runner::RunConfig;
use rand::seq::SliceRandom as _;

/// Numbers of sinks swept.
pub const SINK_COUNTS: [usize; 3] = [1, 2, 3];

fn pick_sinks(net: &SensorNetwork, k: usize) -> Vec<NodeId> {
    // The original sink plus geometrically far nodes, for well-separated
    // structures.
    let mut sinks = vec![net.sink()];
    let origin = net.position(net.sink());
    let mut nodes: Vec<NodeId> = net
        .net()
        .tree()
        .nodes()
        .filter(|&u| u != net.sink())
        .collect();
    nodes.sort_by(|&a, &b| {
        net.position(b)
            .dist_sq(origin)
            .total_cmp(&net.position(a).dist_sq(origin))
    });
    sinks.extend(nodes.into_iter().take(k - 1));
    sinks
}

/// Run this experiment over `cfg` and return its table.
pub fn run(cfg: &SweepConfig) -> SweepTable {
    let n = *cfg.ns.last().expect("sweep has sizes");
    let failures = 6usize;
    let names = [
        "union delivery ratio",
        "total rounds (all attempts)",
        "attempts used",
    ];
    let title = format!("E14 — multi-sink failover under {failures} backbone failures (n = {n})");
    sweep(
        title,
        "sinks",
        &SINK_COUNTS,
        cfg.reps,
        &names,
        |k, rep, c| {
            let net = cfg.network(n, rep);
            let multi = MultiNet::from_network(&net, &pick_sinks(&net, k));
            // Kill random backbone nodes of the primary structure.
            let primary = &multi.structures()[0];
            let mut victims: Vec<NodeId> = primary
                .backbone_nodes()
                .into_iter()
                .filter(|&u| u != primary.root())
                .collect();
            // The victim draw must not depend on `k`: the sweep compares
            // sink counts against each other, so every k must face the
            // same failures for the union-coverage comparison to be fair
            // (and monotone).
            let mut rng = rng_from_seed(derive_seed(cfg.base_seed, 0x51C + rep * 7));
            victims.shuffle(&mut rng);
            victims.truncate(failures);
            let mut rcfg = RunConfig::default();
            for &v in &victims {
                rcfg.failures.kill_node(v, 1);
            }
            let out = multi.broadcast_failover(&rcfg);
            c[0].push(out.delivery_ratio());
            c[1].push(out.total_rounds as f64);
            c[2].push(out.attempts.len() as f64);
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_sinks_cover_at_least_as_much() {
        let t = run(&SweepConfig::quick());
        let d = &t.series[0];
        for i in 1..t.xs.len() {
            assert!(
                d.points[i].mean >= d.points[i - 1].mean - 1e-9,
                "{} sinks deliver less than {}",
                t.xs[i],
                t.xs[i - 1]
            );
        }
    }
}
