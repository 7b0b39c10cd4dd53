//! **E13 — parent-selection ablation.**
//!
//! Definition 1 leaves the choice among eligible parents to the
//! application ("based on the criteria an application needs, such as on
//! energy level"). This table compares the two built-in rules — lowest id
//! (arbitrary/deterministic) vs highest degree (prefer hubs) — on the
//! structural quantities that drive the broadcast bounds.

use crate::builder::NetworkBuilder;
use crate::experiments::common::SweepConfig;
use crate::Protocol;
use dsnet_cluster::ParentRule;
use dsnet_metrics::{Series, Summary, SweepTable};

/// Run this experiment over `cfg` and return its table.
pub fn run(cfg: &SweepConfig) -> SweepTable {
    let mut table = SweepTable::new(
        "E13 — parent-rule ablation (lowest-id vs highest-degree)",
        "n",
        cfg.xs(),
    );
    let mut bt_low = Series::new("|BT| lowest-id");
    let mut bt_high = Series::new("|BT| highest-degree");
    let mut h_low = Series::new("height lowest-id");
    let mut h_high = Series::new("height highest-degree");
    let mut r_low = Series::new("CFF rounds lowest-id");
    let mut r_high = Series::new("CFF rounds highest-degree");

    for &n in &cfg.ns {
        let (mut a, mut b, mut c, mut d, mut e, mut f) =
            (vec![], vec![], vec![], vec![], vec![], vec![]);
        for rep in 0..cfg.reps {
            let seed = cfg.seed(n, rep);
            for (rule, bt, h, r) in [
                (ParentRule::LowestId, &mut a, &mut c, &mut e),
                (ParentRule::HighestDegree, &mut b, &mut d, &mut f),
            ] {
                let net = NetworkBuilder::paper_field(cfg.field_side, n, seed)
                    .parent_rule(rule)
                    .build()
                    .expect("build");
                let stats = net.stats();
                let out = net.broadcast(Protocol::ImprovedCff);
                assert!(out.completed(), "{rule:?} n={n}");
                bt.push(stats.backbone_size as f64);
                h.push(stats.cnet_height as f64);
                r.push(out.rounds as f64);
            }
        }
        bt_low.push(Summary::of(a));
        bt_high.push(Summary::of(b));
        h_low.push(Summary::of(c));
        h_high.push(Summary::of(d));
        r_low.push(Summary::of(e));
        r_high.push(Summary::of(f));
    }
    table.add(bt_low);
    table.add(bt_high);
    table.add(h_low);
    table.add(h_high);
    table.add(r_low);
    table.add(r_high);
    table
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
