//! **Figure 8** — rounds to complete a broadcast: CFF vs DFO.
//!
//! The paper plots the number of rounds the collision-free-flooding
//! broadcast (Algorithm 2) and the depth-first-order broadcast of \[19\]
//! need on the 10×10 field as n grows, and finds CFF dramatically faster
//! with a gap that widens with n (DFO grows linearly with the backbone
//! size, CFF with `δ·h + Δ`). We additionally report Algorithm 1 and the
//! Theorem-1 analytic bound for context.
//!
//! All three protocols run on the same deployment of each `(n, rep)`:
//! [`SweepConfig::network`], the network a `dsnet campaign` trial builds
//! from the same scenario seed.

use crate::experiments::common::{sweep, SweepConfig};
use crate::Protocol;
use dsnet_metrics::SweepTable;

/// Run this experiment over `cfg` and return its table.
pub fn run(cfg: &SweepConfig) -> SweepTable {
    let names = [
        "CFF rounds (Alg 2)",
        "CFF basic rounds (Alg 1)",
        "DFO rounds [19]",
        "Theorem 1 bound (δ·h_BT + Δ)",
    ];
    let protocols = [Protocol::ImprovedCff, Protocol::BasicCff, Protocol::Dfo];
    let title = "Fig. 8 — broadcast latency (rounds), CFF vs DFO";
    sweep(title, "n", &cfg.ns, cfg.reps, &names, |n, rep, c| {
        let net = cfg.network(n, rep);
        for (i, protocol) in protocols.into_iter().enumerate() {
            let out = net.broadcast(protocol);
            assert!(
                out.completed(),
                "{protocol:?} failed at n={n} rep={rep}: {}/{}",
                out.delivered,
                out.targets
            );
            c[i].push(out.rounds as f64);
            if protocol == Protocol::ImprovedCff {
                c[3].push(out.bound as f64);
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cff_beats_dfo_at_every_size() {
        let t = run(&SweepConfig::quick());
        let cff = &t.series[0];
        let dfo = &t.series[2];
        for i in 0..t.xs.len() {
            assert!(
                cff.points[i].mean < dfo.points[i].mean,
                "n={}: CFF {} !< DFO {}",
                t.xs[i],
                cff.points[i].mean,
                dfo.points[i].mean
            );
        }
    }

    #[test]
    fn measured_rounds_stay_below_the_bound() {
        let t = run(&SweepConfig::quick());
        let cff = &t.series[0];
        let bound = &t.series[3];
        for i in 0..t.xs.len() {
            assert!(cff.points[i].max <= bound.points[i].max + 2.0);
        }
    }
}
