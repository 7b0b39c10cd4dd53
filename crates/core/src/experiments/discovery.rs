//! **E11 — neighbour-discovery cost** (the `O(d_new)` primitive of
//! Theorem 2, inherited from \[19\]).
//!
//! For joining nodes of increasing degree, run the windowed-ALOHA
//! discovery session on the radio simulator and report the rounds until
//! the last neighbour was found (the paper's quantity) and the total
//! session length including the termination tail.

use crate::experiments::common::{sweep, SweepConfig};
use dsnet_geom::rng::derive_seed;
use dsnet_graph::{Graph, NodeId};
use dsnet_metrics::SweepTable;
use dsnet_protocols::join::simulate_join;

/// Joining-node degrees swept.
pub const DEGREES: [usize; 5] = [2, 4, 8, 16, 32];

/// Run this experiment over `cfg` and return its table.
pub fn run(cfg: &SweepConfig) -> SweepTable {
    let names = [
        "discovery rounds",
        "total session rounds",
        "complete fraction",
    ];
    let title = "E11 — randomized neighbour discovery vs degree (Theorem 2's O(d_new))";
    sweep(
        title,
        "d_new",
        &DEGREES,
        cfg.reps * 4,
        &names,
        |d, rep, c| {
            // A star of degree d: the joining node hears exactly d nodes.
            let mut g = Graph::with_nodes(d + 1);
            for i in 1..=d {
                g.add_edge(NodeId(0), NodeId(i as u32));
            }
            let seed = derive_seed(cfg.base_seed, d as u64 * 1000 + rep);
            let out = simulate_join(&g, NodeId(0), d, seed);
            c[0].push(out.discovery_rounds as f64);
            c[1].push(out.rounds as f64);
            c[2].push(if out.complete { 1.0 } else { 0.0 });
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovery_grows_roughly_linearly() {
        let t = run(&SweepConfig::quick());
        // Sessions complete with high probability — not certainty: the
        // newcomer stops after two empty windows, and without collision
        // detection two straggling neighbours can (rarely) collide
        // through both. The "complete fraction" series exists to measure
        // exactly this, so the test asserts the whp bound, not 1.0.
        for p in &t.series[2].points {
            assert!(p.mean >= 0.85, "completion fraction {} too low", p.mean);
        }
        // d=32 discovery is within a generous linear factor of d=4's.
        let d4 = t.series[0].points[1].mean;
        let d32 = t.series[0].points[4].mean;
        assert!(d32 <= 24.0 * d4 + 50.0, "d4={d4}, d32={d32}");
    }
}
