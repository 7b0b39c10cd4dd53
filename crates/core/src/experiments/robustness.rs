//! **E6 — robustness under node failures** (Section 3.3 "Robustness").
//!
//! The paper's qualitative claim, made quantitative: kill `f` random
//! backbone nodes at round 1 and measure what fraction of the network
//! each protocol still reaches. DFO freezes the moment the token hits a
//! dead node; CFF keeps flooding through every surviving path.

use crate::experiments::common::{sweep, SweepConfig};
use crate::Protocol;
use dsnet_geom::rng::{derive_seed, rng_from_seed};
use dsnet_metrics::SweepTable;
use dsnet_protocols::runner::{Broadcast, RunConfig};
use rand::seq::SliceRandom as _;

/// Backbone failure counts swept.
pub const FAILURES: [usize; 5] = [0, 1, 2, 4, 8];

/// Run this experiment over `cfg` and return its table.
pub fn run(cfg: &SweepConfig) -> SweepTable {
    let n = *cfg.ns.last().expect("sweep has sizes");
    let names = ["CFF delivery ratio", "DFO delivery ratio [19]"];
    let title = format!("E6 — delivery ratio under f backbone failures (n = {n})");
    sweep(title, "f", &FAILURES, cfg.reps, &names, |f, rep, c| {
        let net = cfg.network(n, rep);
        // Choose victims among non-root backbone nodes, deterministically
        // per (f, rep).
        let mut victims: Vec<_> = net
            .net()
            .backbone_nodes()
            .into_iter()
            .filter(|&u| u != net.sink())
            .collect();
        let mut rng = rng_from_seed(derive_seed(cfg.base_seed, 0xFA11 + rep * 131 + f as u64));
        victims.shuffle(&mut rng);
        victims.truncate(f);

        let mut rcfg = RunConfig::default();
        for &v in &victims {
            rcfg.failures.kill_node(v, 1);
        }
        for (i, protocol) in [Protocol::ImprovedCff, Protocol::Dfo]
            .into_iter()
            .enumerate()
        {
            let req = Broadcast::new(protocol, net.sink());
            c[i].push(net.run(&req, &rcfg).outcome.delivery_ratio());
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_failures_means_full_delivery() {
        let t = run(&SweepConfig::quick());
        assert!((t.series[0].points[0].mean - 1.0).abs() < 1e-9);
        assert!((t.series[1].points[0].mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cff_dominates_dfo_under_failures() {
        let t = run(&SweepConfig::quick());
        for i in 1..t.xs.len() {
            assert!(
                t.series[0].points[i].mean >= t.series[1].points[i].mean,
                "f={}: CFF {} < DFO {}",
                t.xs[i],
                t.series[0].points[i].mean,
                t.series[1].points[i].mean
            );
        }
    }
}
