//! **E8 — reconfiguration cost** (Theorems 2 and 3).
//!
//! Move-in: every build replays n arrivals, so the per-node move-in cost
//! (discovery + slot repair + root propagation ≤ O(d) + 2h + 2d + D) comes
//! straight from the build reports. Move-out: remove a sample of interior
//! nodes from a fresh network and account the repair work against the
//! Theorem-3 `O(h + |T|·D²)` form.

use crate::experiments::common::{sweep, SweepConfig};
use dsnet_metrics::SweepTable;

/// Run this experiment over `cfg` and return its table.
pub fn run(cfg: &SweepConfig) -> SweepTable {
    let names = [
        "move-in rounds (mean/node)",
        "move-in slot-repair rounds",
        "move-out rounds (mean)",
        "move-out rehomed |T|-1",
    ];
    let title = "E8 — reconfiguration round costs (Theorems 2/3)";
    sweep(title, "n", &cfg.ns, cfg.reps, &names, |n, rep, c| {
        let mut net = cfg.network(n, rep);
        for r in net.build_reports() {
            c[0].push(r.cost.total() as f64);
            c[1].push(r.cost.slot_update as f64);
        }
        // Try to remove up to 5 interior (non-root) nodes; skip cut
        // vertices, which the operation legitimately refuses.
        let candidates: Vec<_> = net
            .net()
            .tree()
            .nodes()
            .filter(|&u| u != net.sink())
            .step_by(7)
            .take(10)
            .collect();
        let mut removed = 0;
        for u in candidates {
            if removed >= 5 {
                break;
            }
            if let Ok(report) = net.leave(u) {
                c[2].push(report.cost.total() as f64);
                c[3].push(report.rehomed.len() as f64);
                removed += 1;
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_are_positive_and_modest() {
        let t = run(&SweepConfig::quick());
        for i in 0..t.xs.len() {
            let n = t.xs[i];
            let move_in = t.series[0].points[i].mean;
            assert!(move_in >= 1.0);
            // Theorem 2: far below n rounds per insertion.
            assert!(move_in < n, "move-in {move_in} at n={n}");
        }
    }

    #[test]
    fn move_out_was_exercised() {
        let t = run(&SweepConfig::quick());
        for p in &t.series[2].points {
            assert!(p.n > 0, "no move-out succeeded");
        }
    }
}
