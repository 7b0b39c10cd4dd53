//! **E7 — multicast vs broadcast** (Section 3.4).
//!
//! Sweep the group density: for each membership probability the multicast
//! session prunes the sub-trees without group members, saving relays and
//! radio-on time; the paper additionally expects the multicast to finish
//! no later than the broadcast. Delivery ratio is reported honestly (see
//! the pruning caveat in `dsnet-protocols::multicast`).

use crate::builder::{GroupPlan, NetworkBuilder};
use crate::experiments::common::{sweep, SweepConfig};
use dsnet_metrics::SweepTable;
use dsnet_protocols::multicast::relay_count;
use dsnet_protocols::runner::{Broadcast, MulticastSlots, Protocol, RunConfig};

/// Group membership probabilities swept.
pub const DENSITIES: [f64; 5] = [0.02, 0.05, 0.10, 0.25, 1.0];

/// Run this experiment over `cfg` and return its table.
pub fn run(cfg: &SweepConfig) -> SweepTable {
    let n = *cfg.ns.last().expect("sweep has sizes");
    let names = [
        "multicast rounds",
        "reliable multicast rounds",
        "broadcast rounds",
        "#relays",
        "total radio-on rounds",
        "broadcast radio-on rounds",
        "delivery ratio",
        "reliable delivery",
    ];
    let title = format!("E7 — multicast vs broadcast across group densities (n = {n})");
    sweep(
        title,
        "membership",
        &DENSITIES,
        cfg.reps,
        &names,
        |p, rep, c| {
            let net = NetworkBuilder::paper_field(cfg.field_side, n, cfg.seed(n, rep))
                .groups(GroupPlan {
                    groups: 1,
                    membership: p,
                })
                .build()
                .expect("build");
            let m = net.multicast(0);
            let req = Broadcast::multicast(net.sink(), 0, MulticastSlots::Session);
            let rel = net.run(&req, &RunConfig::default()).outcome;
            let bc = net.broadcast(Protocol::ImprovedCff);
            c[0].push(m.rounds as f64);
            c[1].push(rel.rounds as f64);
            c[2].push(bc.rounds as f64);
            c[3].push(relay_count(net.mcnet(), 0) as f64);
            c[4].push((m.energy.total_listen + m.energy.total_tx) as f64);
            c[5].push((bc.energy.total_listen + bc.energy.total_tx) as f64);
            c[6].push(m.delivery_ratio());
            c[7].push(rel.delivery_ratio());
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparser_groups_use_fewer_relays_and_less_energy() {
        let t = run(&SweepConfig::quick());
        let relays = &t.series[3];
        let energy = &t.series[4];
        let last = t.xs.len() - 1;
        assert!(relays.points[0].mean <= relays.points[last].mean);
        assert!(energy.points[0].mean <= energy.points[last].mean);
    }

    #[test]
    fn multicast_never_slower_than_broadcast() {
        let t = run(&SweepConfig::quick());
        for i in 0..t.xs.len() {
            // Paper-faithful pruning: no slower than broadcast.
            assert!(t.series[0].points[i].mean <= t.series[2].points[i].mean + 1e-9);
            // Session-slot multicast re-assigns slots from scratch, so its
            // windows are usually (not provably) no larger; allow slack.
            // What *is* guaranteed is exact delivery.
            assert!(
                t.series[1].points[i].mean <= t.series[2].points[i].mean * 1.3 + 4.0,
                "density {}",
                t.xs[i]
            );
            assert_eq!(t.series[7].points[i].mean, 1.0, "density {}", t.xs[i]);
        }
    }

    #[test]
    fn delivery_stays_high() {
        let t = run(&SweepConfig::quick());
        for p in &t.series[6].points {
            assert!(p.mean >= 0.95, "delivery {}", p.mean);
        }
    }
}
