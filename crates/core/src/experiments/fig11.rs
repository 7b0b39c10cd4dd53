//! **Figure 11** — `D`, `d`, `Δ` and `δ`.
//!
//! The paper's key empirical point (end of Section 4): the largest
//! assigned time-slots `δ` and `Δ` stay *far* below their worst-case
//! bounds `d(d+1)/2 + 1` and `D(D+1)/2 + 1` — in the paper's runs they
//! even stay below `d` and `D` themselves — and `d ≪ D`, so the improved
//! protocol keeps getting better as the network densifies.

use crate::experiments::common::{sweep, SweepConfig};
use dsnet_metrics::SweepTable;

/// Run this experiment over `cfg` and return its table.
pub fn run(cfg: &SweepConfig) -> SweepTable {
    let names = [
        "D (max degree of G)",
        "d (max degree of G(V_BT))",
        "Δ (largest l-slot)",
        "δ (largest b-slot)",
    ];
    let title = "Fig. 11 — degrees (D, d) and largest time-slots (Δ, δ)";
    sweep(title, "n", &cfg.ns, cfg.reps, &names, |n, rep, c| {
        let s = cfg.network(n, rep).stats();
        c[0].push(s.max_degree as f64);
        c[1].push(s.backbone_max_degree as f64);
        c[2].push(s.delta_l as f64);
        c[3].push(s.delta_b as f64);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backbone_degree_is_below_graph_degree() {
        let t = run(&SweepConfig::quick());
        for i in 0..t.xs.len() {
            assert!(t.series[1].points[i].mean <= t.series[0].points[i].mean);
        }
    }

    #[test]
    fn slots_stay_below_lemma3_bounds() {
        let t = run(&SweepConfig::quick());
        for i in 0..t.xs.len() {
            let big_d = t.series[0].points[i].max;
            let small_d = t.series[1].points[i].max;
            let delta_l = t.series[2].points[i].max;
            let delta_b = t.series[3].points[i].max;
            assert!(delta_l <= big_d * (big_d + 1.0) / 2.0 + 1.0);
            assert!(delta_b <= small_d * (small_d + 1.0) / 2.0 + 1.0);
        }
    }
}
