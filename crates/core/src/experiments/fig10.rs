//! **Figure 10** — size and height of the backbone BT(G).
//!
//! The paper's observation: the backbone height stays far below the
//! backbone size and both grow slowly with n, which is what makes the
//! `δ·h` term of the CFF bound small.

use crate::experiments::common::{sweep, SweepConfig};
use dsnet_metrics::SweepTable;

/// Run this experiment over `cfg` and return its table.
pub fn run(cfg: &SweepConfig) -> SweepTable {
    let names = [
        "backbone size |BT|",
        "backbone height h_BT",
        "#clusters (heads)",
    ];
    let title = "Fig. 10 — backbone size and height";
    sweep(title, "n", &cfg.ns, cfg.reps, &names, |n, rep, c| {
        let s = cfg.network(n, rep).stats();
        c[0].push(s.backbone_size as f64);
        c[1].push(s.backbone_height as f64);
        c[2].push(s.heads as f64);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn height_is_much_smaller_than_size() {
        let t = run(&SweepConfig::quick());
        for i in 0..t.xs.len() {
            let size = t.series[0].points[i].mean;
            let height = t.series[1].points[i].mean;
            assert!(height < size, "n={}", t.xs[i]);
        }
    }

    #[test]
    fn backbone_respects_property_1() {
        // |BT| ≤ 2·#clusters − 1 holds per run, so it holds for the means
        // by linearity (mixing max of one rep with min of another would
        // compare different deployments).
        let t = run(&SweepConfig::quick());
        for i in 0..t.xs.len() {
            let size = t.series[0].points[i].mean;
            let clusters = t.series[2].points[i].mean;
            assert!(size <= 2.0 * clusters - 1.0 + 1e-9);
        }
    }
}
