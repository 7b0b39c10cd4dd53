//! **E5 — multi-channel scaling** (Section 3.3 "Multi-Channels",
//! Theorem 1(3)).
//!
//! With `k` radio channels the TDM windows shrink by a factor `k`: slot
//! `s` maps to round `⌈s/k⌉` on channel `(s−1) mod k`. The paper claims
//! rounds and awake time divide by `k`; this sweep holds n fixed at the
//! largest configured size and varies `k`.

use crate::experiments::common::{sweep, SweepConfig};
use dsnet_metrics::SweepTable;
use dsnet_protocols::runner::{Broadcast, Protocol, RunConfig};

/// Channel counts swept.
pub const CHANNELS: [u8; 4] = [1, 2, 4, 8];

/// Run this experiment over `cfg` and return its table.
pub fn run(cfg: &SweepConfig) -> SweepTable {
    let n = *cfg.ns.last().expect("sweep has sizes");
    let names = [
        "CFF rounds (Alg 2)",
        "CFF rounds (Alg 1)",
        "CFF max awake",
        "Theorem 1(3) bound",
        "delivery ratio",
    ];
    let title = format!("E5 — k-channel scaling of Algorithm 2 (n = {n})");
    sweep(title, "k", &CHANNELS, cfg.reps, &names, |k, rep, c| {
        let net = cfg.network(n, rep);
        let rcfg = RunConfig {
            channels: k,
            ..Default::default()
        };
        let run = |protocol| {
            net.run(&Broadcast::new(protocol, net.sink()), &rcfg)
                .outcome
        };
        let out = run(Protocol::ImprovedCff);
        let cff1 = run(Protocol::BasicCff);
        assert!(cff1.completed(), "Alg 1 k={k}");
        c[0].push(out.rounds as f64);
        c[1].push(cff1.rounds as f64);
        c[2].push(out.energy.max_awake as f64);
        c[3].push(out.bound as f64);
        c[4].push(out.delivery_ratio());
    })
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
