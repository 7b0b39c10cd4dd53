//! **E5 — multi-channel scaling** (Section 3.3 "Multi-Channels",
//! Theorem 1(3)).
//!
//! With `k` radio channels the TDM windows shrink by a factor `k`: slot
//! `s` maps to round `⌈s/k⌉` on channel `(s−1) mod k`. The paper claims
//! rounds and awake time divide by `k`; this sweep holds n fixed at the
//! largest configured size and varies `k`.

use crate::experiments::common::SweepConfig;
use dsnet_metrics::{Series, Summary, SweepTable};
use dsnet_protocols::runner::{Broadcast, Protocol, RunConfig};

/// Channel counts swept.
pub const CHANNELS: [u8; 4] = [1, 2, 4, 8];

/// Run this experiment over `cfg` and return its table.
pub fn run(cfg: &SweepConfig) -> SweepTable {
    let n = *cfg.ns.last().expect("sweep has sizes");
    let mut table = SweepTable::new(
        format!("E5 — k-channel scaling of Algorithm 2 (n = {n})"),
        "k",
        CHANNELS.iter().map(|&k| k as f64).collect(),
    );
    let mut rounds = Series::new("CFF rounds (Alg 2)");
    let mut cff1_rounds = Series::new("CFF rounds (Alg 1)");
    let mut awake = Series::new("CFF max awake");
    let mut bound = Series::new("Theorem 1(3) bound");
    let mut delivery = Series::new("delivery ratio");

    for &k in &CHANNELS {
        let (mut a, mut b, mut c, mut d, mut e) = (vec![], vec![], vec![], vec![], vec![]);
        for rep in 0..cfg.reps {
            let net = cfg.network(n, rep);
            let rcfg = RunConfig {
                channels: k,
                ..Default::default()
            };
            let out = net
                .run(&Broadcast::new(Protocol::ImprovedCff, net.sink()), &rcfg)
                .outcome;
            let cff1 = net
                .run(&Broadcast::new(Protocol::BasicCff, net.sink()), &rcfg)
                .outcome;
            assert!(cff1.completed(), "Alg 1 k={k}");
            a.push(out.rounds as f64);
            e.push(cff1.rounds as f64);
            b.push(out.energy.max_awake as f64);
            c.push(out.bound as f64);
            d.push(out.delivery_ratio());
        }
        rounds.push(Summary::of(a));
        cff1_rounds.push(Summary::of(e));
        awake.push(Summary::of(b));
        bound.push(Summary::of(c));
        delivery.push(Summary::of(d));
    }
    table.add(rounds);
    table.add(cff1_rounds);
    table.add(awake);
    table.add(bound);
    table.add(delivery);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_channels_never_slower_and_always_delivering() {
        let t = run(&SweepConfig::quick());
        for i in 1..t.xs.len() {
            assert!(
                t.series[0].points[i].mean <= t.series[0].points[i - 1].mean + 1e-9,
                "k={} slower than k={}",
                t.xs[i],
                t.xs[i - 1]
            );
        }
        for p in &t.series[4].points {
            assert!((p.mean - 1.0).abs() < 1e-9, "delivery dropped: {}", p.mean);
        }
    }
}
