//! **E7 — multicast vs broadcast** (Section 3.4).
//!
//! Sweep the group density: for each membership probability the multicast
//! session prunes the sub-trees without group members, saving relays and
//! radio-on time; the paper additionally expects the multicast to finish
//! no later than the broadcast. Delivery ratio is reported honestly (see
//! the pruning caveat in `dsnet-protocols::multicast`).

use crate::builder::{GroupPlan, NetworkBuilder};
use crate::experiments::common::SweepConfig;
use dsnet_metrics::{Series, Summary, SweepTable};
use dsnet_protocols::multicast::relay_count;
use dsnet_protocols::runner::{Broadcast, MulticastSlots, Protocol, RunConfig};

/// Group membership probabilities swept.
pub const DENSITIES: [f64; 5] = [0.02, 0.05, 0.10, 0.25, 1.0];

/// Run this experiment over `cfg` and return its table.
pub fn run(cfg: &SweepConfig) -> SweepTable {
    let n = *cfg.ns.last().expect("sweep has sizes");
    let mut table = SweepTable::new(
        format!("E7 — multicast vs broadcast across group densities (n = {n})"),
        "membership",
        DENSITIES.to_vec(),
    );
    let mut rounds = Series::new("multicast rounds");
    let mut reliable_rounds = Series::new("reliable multicast rounds");
    let mut bcast_rounds = Series::new("broadcast rounds");
    let mut relays = Series::new("#relays");
    let mut listen = Series::new("total radio-on rounds");
    let mut bcast_listen = Series::new("broadcast radio-on rounds");
    let mut delivery = Series::new("delivery ratio");
    let mut reliable_delivery = Series::new("reliable delivery");

    for &p in &DENSITIES {
        let (mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h) = (
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
        );
        for rep in 0..cfg.reps {
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
            a.push(m.rounds as f64);
            g.push(rel.rounds as f64);
            b.push(bc.rounds as f64);
            c.push(relay_count(net.mcnet(), 0) as f64);
            d.push((m.energy.total_listen + m.energy.total_tx) as f64);
            e.push((bc.energy.total_listen + bc.energy.total_tx) as f64);
            f.push(m.delivery_ratio());
            h.push(rel.delivery_ratio());
        }
        rounds.push(Summary::of(a));
        reliable_rounds.push(Summary::of(g));
        bcast_rounds.push(Summary::of(b));
        relays.push(Summary::of(c));
        listen.push(Summary::of(d));
        bcast_listen.push(Summary::of(e));
        delivery.push(Summary::of(f));
        reliable_delivery.push(Summary::of(h));
    }
    table.add(rounds);
    table.add(reliable_rounds);
    table.add(bcast_rounds);
    table.add(relays);
    table.add(listen);
    table.add(bcast_listen);
    table.add(delivery);
    table.add(reliable_delivery);
    table
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
