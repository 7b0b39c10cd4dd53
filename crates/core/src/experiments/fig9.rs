//! **Figure 9** — rounds a node must stay awake: CFF vs DFO.
//!
//! In DFO no node can tell when the broadcast finished, so every radio
//! stays on for the whole tour: the per-node awake time tracks Figure 8's
//! total rounds. Under CFF a node is awake only for its listening window
//! and its own transmissions (Theorem 1(2): ≤ 2δ + Δ), which is why the
//! paper calls the protocol energy-saving. We report the max (the paper's
//! plotted series) and the mean.
//!
//! Like Figure 8, this driver rides the campaign engine: same
//! deployments as the legacy sequential loop, executed in parallel.

use crate::campaign::sweep_spec;
use crate::experiments::common::SweepConfig;
use dsnet_campaign::{CampaignResult, ProtocolSpec};
use dsnet_metrics::{Series, Summary, SweepTable};

/// Run this experiment over `cfg` and return its table, using every
/// available core.
pub fn run(cfg: &SweepConfig) -> SweepTable {
    table_of(&run_campaign(cfg, 0))
}

/// The campaign behind the figure, on `threads` workers (0 = all cores).
pub fn run_campaign(cfg: &SweepConfig, threads: usize) -> CampaignResult {
    let spec = sweep_spec(
        "fig9-awake-rounds",
        cfg,
        vec![ProtocolSpec::ImprovedCff, ProtocolSpec::Dfo],
    );
    crate::campaign::run(&spec, threads, None)
}

/// Fold a figure-9 campaign result into the published table.
pub fn table_of(result: &CampaignResult) -> SweepTable {
    let ns = &result.spec.ns;
    let mut table = SweepTable::new(
        "Fig. 9 — rounds a node must be awake, CFF vs DFO",
        "n",
        ns.iter().map(|&n| n as f64).collect(),
    );
    let series = [
        ("CFF max awake", ProtocolSpec::ImprovedCff, true),
        ("CFF mean awake", ProtocolSpec::ImprovedCff, false),
        ("DFO max awake [19]", ProtocolSpec::Dfo, true),
        ("DFO mean awake [19]", ProtocolSpec::Dfo, false),
    ];
    for (name, protocol, take_max) in series {
        let mut s = Series::new(name);
        for &n in ns {
            s.push(Summary::of(
                result
                    .select(|t| t.protocol == protocol && t.n == n)
                    .map(|(_, r)| {
                        if take_max {
                            r.max_awake as f64
                        } else {
                            r.mean_awake
                        }
                    }),
            ));
        }
        table.add(s);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Protocol;

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

    #[test]
    fn table_is_thread_count_invariant() {
        let cfg = SweepConfig::quick();
        let serial = table_of(&run_campaign(&cfg, 1));
        let parallel = table_of(&run_campaign(&cfg, 4));
        assert_eq!(serial.to_markdown(), parallel.to_markdown());
    }
}
