//! **E9 — slot-bound ablation** (Lemma 3 and the end of Section 4).
//!
//! The paper proves `δ ≤ d(d+1)/2 + 1` and `Δ ≤ D(D+1)/2 + 1`, then
//! observes the measured values are *much* smaller — around a quarter of
//! the bound analytically, and below `d` and `D` in the simulations. This
//! table puts the measured maxima next to both the quadratic bounds and
//! the degrees, so the gap is visible at every n.

use crate::experiments::common::{sweep, SweepConfig};
use dsnet_metrics::SweepTable;
use dsnet_protocols::analytic::slot_bounds;

/// Run this experiment over `cfg` and return its table.
pub fn run(cfg: &SweepConfig) -> SweepTable {
    let names = [
        "δ measured",
        "δ bound d(d+1)/2+1",
        "Δ measured",
        "Δ bound D(D+1)/2+1",
        "Δ / bound",
    ];
    let title = "E9 — measured slot maxima vs the Lemma-3 bounds";
    sweep(title, "n", &cfg.ns, cfg.reps, &names, |n, rep, c| {
        let s = cfg.network(n, rep).stats();
        let (bb, lb) = slot_bounds(s.backbone_max_degree as u32, s.max_degree as u32);
        c[0].push(s.delta_b as f64);
        c[1].push(bb as f64);
        c[2].push(s.delta_l as f64);
        c[3].push(lb as f64);
        c[4].push(s.delta_l as f64 / lb as f64);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_slots_respect_bounds_with_large_margin() {
        let t = run(&SweepConfig::quick());
        for i in 0..t.xs.len() {
            assert!(t.series[0].points[i].max <= t.series[1].points[i].min);
            assert!(t.series[2].points[i].max <= t.series[3].points[i].min);
            // The paper's "much smaller in practice" observation.
            assert!(
                t.series[4].points[i].mean < 0.5,
                "Δ/bound ratio {} not ≪ 1",
                t.series[4].points[i].mean
            );
        }
    }
}
