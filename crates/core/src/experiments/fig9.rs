//! **Figure 9** — rounds a node must stay awake: CFF vs DFO.
//!
//! In DFO no node can tell when the broadcast finished, so every radio
//! stays on for the whole tour: the per-node awake time tracks Figure 8's
//! total rounds. Under CFF a node is awake only for its listening window
//! and its own transmissions (Theorem 1(2): ≤ 2δ + Δ), which is why the
//! paper calls the protocol energy-saving. We report the max (the paper's
//! plotted series) and the mean.
//!
//! Both protocols run on the same deployment of each `(n, rep)`, as in
//! Figure 8.

use crate::experiments::common::{sweep, SweepConfig};
use crate::Protocol;
use dsnet_metrics::SweepTable;

/// Run this experiment over `cfg` and return its table.
pub fn run(cfg: &SweepConfig) -> SweepTable {
    let names = [
        "CFF max awake",
        "CFF mean awake",
        "DFO max awake [19]",
        "DFO mean awake [19]",
    ];
    let title = "Fig. 9 — rounds a node must be awake, CFF vs DFO";
    sweep(title, "n", &cfg.ns, cfg.reps, &names, |n, rep, c| {
        let net = cfg.network(n, rep);
        for (i, protocol) in [Protocol::ImprovedCff, Protocol::Dfo]
            .into_iter()
            .enumerate()
        {
            let energy = net.broadcast(protocol).energy;
            c[2 * i].push(energy.max_awake as f64);
            c[2 * i + 1].push(energy.mean_awake);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cff_awake_is_far_below_dfo() {
        let t = run(&SweepConfig::quick());
        for i in 0..t.xs.len() {
            let cff = t.series[0].points[i].mean;
            let dfo = t.series[2].points[i].mean;
            assert!(cff < dfo, "n={}: {cff} !< {dfo}", t.xs[i]);
        }
    }

    #[test]
    fn dfo_awake_equals_total_rounds() {
        // Every node listens or transmits every round of the tour.
        let cfg = SweepConfig::quick();
        let net = cfg.network(60, 0);
        let out = net.broadcast(Protocol::Dfo);
        assert_eq!(out.energy.max_awake, out.rounds);
    }
}
