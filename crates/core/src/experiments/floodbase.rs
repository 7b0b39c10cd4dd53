//! **E15 — unstructured flooding baseline** (the broadcast-storm
//! motivation of Section 1, reference \[16\]).
//!
//! Randomized-backoff flooding needs no structure at all — so why pay for
//! CNet(G)? This table answers with the classic reliability/latency
//! dilemma: at small contention windows the flood collides and orphans a
//! big part of the network; at windows wide enough to be reliable it is
//! slower and keeps radios on longer than the slotted CFF broadcast, which
//! is simultaneously exact, faster and asleep almost always.

use crate::experiments::common::SweepConfig;
use crate::Protocol;
use dsnet_geom::rng::derive_seed;
use dsnet_metrics::{Series, Summary, SweepTable};
use dsnet_protocols::flooding::run_flooding;
use dsnet_radio::FailurePlan;

/// Contention windows swept.
pub const WINDOWS: [u64; 5] = [1, 2, 4, 8, 16];

/// Run this experiment over `cfg` and return its table.
pub fn run(cfg: &SweepConfig) -> SweepTable {
    let n = *cfg.ns.last().expect("sweep has sizes");
    let mut table = SweepTable::new(
        format!("E15 — randomized flooding vs CFF (n = {n})"),
        "window W",
        WINDOWS.iter().map(|&w| w as f64).collect(),
    );
    let mut delivery = Series::new("flooding delivery");
    let mut rounds = Series::new("flooding last delivery round");
    let mut awake = Series::new("flooding max awake");
    let mut cff_rounds = Series::new("CFF rounds");
    let mut cff_awake = Series::new("CFF max awake");

    for &w in &WINDOWS {
        let (mut a, mut b, mut c, mut d, mut e) = (vec![], vec![], vec![], vec![], vec![]);
        for rep in 0..cfg.reps {
            let net = cfg.network(n, rep);
            let flood = run_flooding(
                net.net().graph(),
                net.sink(),
                w,
                derive_seed(cfg.base_seed, 0xF100D + w * 100 + rep),
                FailurePlan::new(),
            );
            let cff = net.broadcast(Protocol::ImprovedCff);
            a.push(flood.delivery_ratio());
            b.push(flood.last_delivery_round as f64);
            c.push(flood.energy.max_awake as f64);
            d.push(cff.rounds as f64);
            e.push(cff.energy.max_awake as f64);
        }
        delivery.push(Summary::of(a));
        rounds.push(Summary::of(b));
        awake.push(Summary::of(c));
        cff_rounds.push(Summary::of(d));
        cff_awake.push(Summary::of(e));
    }
    table.add(delivery);
    table.add(rounds);
    table.add(awake);
    table.add(cff_rounds);
    table.add(cff_awake);
    table
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
