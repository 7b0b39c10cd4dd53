//! **E13 — parent-selection ablation.**
//!
//! Definition 1 leaves the choice among eligible parents to the
//! application ("based on the criteria an application needs, such as on
//! energy level"). This table compares the two built-in rules — lowest id
//! (arbitrary/deterministic) vs highest degree (prefer hubs) — on the
//! structural quantities that drive the broadcast bounds.

use crate::builder::NetworkBuilder;
use crate::experiments::common::{sweep, SweepConfig};
use crate::Protocol;
use dsnet_cluster::ParentRule;
use dsnet_metrics::SweepTable;

/// Run this experiment over `cfg` and return its table.
pub fn run(cfg: &SweepConfig) -> SweepTable {
    let names = [
        "|BT| lowest-id",
        "|BT| highest-degree",
        "height lowest-id",
        "height highest-degree",
        "CFF rounds lowest-id",
        "CFF rounds highest-degree",
    ];
    let title = "E13 — parent-rule ablation (lowest-id vs highest-degree)";
    sweep(title, "n", &cfg.ns, cfg.reps, &names, |n, rep, c| {
        // Column i is the lowest-id rule, column i + 1 the highest-degree.
        for (i, rule) in [ParentRule::LowestId, ParentRule::HighestDegree]
            .into_iter()
            .enumerate()
        {
            let net = NetworkBuilder::paper_field(cfg.field_side, n, cfg.seed(n, rep))
                .parent_rule(rule)
                .build()
                .expect("build");
            let stats = net.stats();
            let out = net.broadcast(Protocol::ImprovedCff);
            assert!(out.completed(), "{rule:?} n={n}");
            c[i].push(stats.backbone_size as f64);
            c[2 + i].push(stats.cnet_height as f64);
            c[4 + i].push(out.rounds as f64);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_rules_produce_working_structures() {
        // The run() itself asserts completion; here just exercise it and
        // sanity-check the series shape.
        let t = run(&SweepConfig::quick());
        assert_eq!(t.series.len(), 6);
        for s in &t.series {
            assert!(s.points.iter().all(|p| p.mean > 0.0));
        }
    }
}
