//! **E16 — backbone quality vs the CDS literature.**
//!
//! The paper positions its architecture against dominating-set-based
//! backbone constructions (\[6\], \[20\], \[22\]): BT(G) is built *incrementally
//! in O(1)–O(d) rounds per arrival*, whereas CDS algorithms recompute from
//! global views. The price should be backbone size. This table quantifies
//! it: BT(G) against the greedy MIS-plus-connectors CDS on the same
//! graphs, plus the Property-1(3) bracket (#clusters vs 5·|greedy DS|).

use crate::experiments::common::{sweep, SweepConfig};
use dsnet_graph::domset;
use dsnet_metrics::SweepTable;

/// Run this experiment over `cfg` and return its table.
pub fn run(cfg: &SweepConfig) -> SweepTable {
    let names = [
        "|BT(G)| (incremental)",
        "|greedy CDS| (global)",
        "#clusters",
        "5·|greedy DS| (Property 1(3) cap)",
    ];
    let title = "E16 — BT(G) vs greedy CDS backbone size";
    sweep(title, "n", &cfg.ns, cfg.reps, &names, |n, rep, c| {
        let net = cfg.network(n, rep);
        let g = net.net().graph();
        let stats = net.stats();
        let cds = domset::greedy_connected_dominating_set(g);
        assert!(domset::is_dominating(g, &cds));
        assert!(domset::is_connected_in(g, &cds));
        let ds = domset::greedy_dominating_set(g);
        c[0].push(stats.backbone_size as f64);
        c[1].push(cds.len() as f64);
        c[2].push(stats.heads as f64);
        c[3].push(5.0 * ds.len() as f64);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn property_1_3_cap_holds() {
        let t = run(&SweepConfig::quick());
        for i in 0..t.xs.len() {
            assert!(
                t.series[2].points[i].mean <= t.series[3].points[i].mean,
                "n={}: clusters exceed the 5·DS cap",
                t.xs[i]
            );
        }
    }

    #[test]
    fn incremental_backbone_is_within_a_small_factor_of_cds() {
        let t = run(&SweepConfig::quick());
        for i in 0..t.xs.len() {
            let bt = t.series[0].points[i].mean;
            let cds = t.series[1].points[i].mean;
            assert!(bt <= 4.0 * cds, "n={}: |BT|={bt} vs CDS={cds}", t.xs[i]);
        }
    }
}
