//! **E10 — field-size sweep** (the 8×8 / 10×10 / 12×12 settings of
//! Section 6).
//!
//! The paper tested all three fields but plotted only 10×10 "because of
//! the space limitation"; this table fills in the other two at a fixed n:
//! smaller fields are denser, so D grows, while the backbone (a function
//! of area) shrinks — and the CFF advantage persists everywhere.

use crate::experiments::common::{sweep, SweepConfig};
use crate::Protocol;
use dsnet_metrics::SweepTable;

/// Field sides swept (units of 100 m).
pub const SIDES: [f64; 3] = [8.0, 10.0, 12.0];

/// Run this experiment over `cfg` and return its table.
pub fn run(cfg: &SweepConfig) -> SweepTable {
    let n = *cfg.ns.last().expect("sweep has sizes");
    let names = ["CFF rounds", "DFO rounds", "backbone size", "D"];
    let title = format!("E10 — field-size sweep at n = {n} (sides in units of 100 m)");
    sweep(title, "side", &SIDES, cfg.reps, &names, |side, rep, c| {
        let sub = SweepConfig {
            field_side: side,
            ..cfg.clone()
        };
        let net = sub.network(n, rep);
        let stats = net.stats();
        c[0].push(net.broadcast(Protocol::ImprovedCff).rounds as f64);
        c[1].push(net.broadcast(Protocol::Dfo).rounds as f64);
        c[2].push(stats.backbone_size as f64);
        c[3].push(stats.max_degree as f64);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cff_wins_on_every_field() {
        let t = run(&SweepConfig::quick());
        for i in 0..t.xs.len() {
            assert!(
                t.series[0].points[i].mean < t.series[1].points[i].mean,
                "side {}",
                t.xs[i]
            );
        }
    }
}
