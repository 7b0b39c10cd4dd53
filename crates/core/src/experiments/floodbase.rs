//! **E15 — unstructured flooding baseline** (the broadcast-storm
//! motivation of Section 1, reference \[16\]).
//!
//! Randomized-backoff flooding needs no structure at all — so why pay for
//! CNet(G)? This table answers with the classic reliability/latency
//! dilemma: at small contention windows the flood collides and orphans a
//! big part of the network; at windows wide enough to be reliable it is
//! slower and keeps radios on longer than the slotted CFF broadcast, which
//! is simultaneously exact, faster and asleep almost always.

use crate::experiments::common::{sweep, SweepConfig};
use crate::Protocol;
use dsnet_geom::rng::derive_seed;
use dsnet_metrics::SweepTable;
use dsnet_protocols::flooding::run_flooding;
use dsnet_radio::FailurePlan;

/// Contention windows swept.
pub const WINDOWS: [u64; 5] = [1, 2, 4, 8, 16];

/// Run this experiment over `cfg` and return its table.
pub fn run(cfg: &SweepConfig) -> SweepTable {
    let n = *cfg.ns.last().expect("sweep has sizes");
    let names = [
        "flooding delivery",
        "flooding last delivery round",
        "flooding max awake",
        "CFF rounds",
        "CFF max awake",
    ];
    let title = format!("E15 — randomized flooding vs CFF (n = {n})");
    sweep(
        title,
        "window W",
        &WINDOWS,
        cfg.reps,
        &names,
        |w, rep, c| {
            let net = cfg.network(n, rep);
            let flood = run_flooding(
                net.net().graph(),
                net.sink(),
                w,
                derive_seed(cfg.base_seed, 0xF100D + w * 100 + rep),
                FailurePlan::new(),
            );
            let cff = net.broadcast(Protocol::ImprovedCff);
            c[0].push(flood.delivery_ratio());
            c[1].push(flood.last_delivery_round as f64);
            c[2].push(flood.energy.max_awake as f64);
            c[3].push(cff.rounds as f64);
            c[4].push(cff.energy.max_awake as f64);
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cff_always_sleeps_more_than_flooding() {
        let t = run(&SweepConfig::quick());
        for i in 0..t.xs.len() {
            assert!(
                t.series[4].points[i].mean < t.series[2].points[i].mean,
                "W={}: CFF awake {} !< flooding awake {}",
                t.xs[i],
                t.series[4].points[i].mean,
                t.series[2].points[i].mean
            );
        }
    }

    #[test]
    fn tiny_windows_lose_deliveries() {
        let t = run(&SweepConfig::quick());
        // W = 1 must show real loss on unit-disk densities; wide windows
        // recover (monotone trend up to noise).
        assert!(t.series[0].points[0].mean < 1.0);
        let last = t.xs.len() - 1;
        assert!(t.series[0].points[last].mean > t.series[0].points[0].mean);
    }
}
