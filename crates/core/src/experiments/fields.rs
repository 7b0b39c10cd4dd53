//! **E10 — field-size sweep** (the 8×8 / 10×10 / 12×12 settings of
//! Section 6).
//!
//! The paper tested all three fields but plotted only 10×10 "because of
//! the space limitation"; this table fills in the other two at a fixed n:
//! smaller fields are denser, so D grows, while the backbone (a function
//! of area) shrinks — and the CFF advantage persists everywhere.

use crate::experiments::common::SweepConfig;
use crate::Protocol;
use dsnet_metrics::{Series, Summary, SweepTable};

/// Field sides swept (units of 100 m).
pub const SIDES: [f64; 3] = [8.0, 10.0, 12.0];

/// Run this experiment over `cfg` and return its table.
pub fn run(cfg: &SweepConfig) -> SweepTable {
    let n = *cfg.ns.last().expect("sweep has sizes");
    let mut table = SweepTable::new(
        format!("E10 — field-size sweep at n = {n} (sides in units of 100 m)"),
        "side",
        SIDES.to_vec(),
    );
    let mut cff = Series::new("CFF rounds");
    let mut dfo = Series::new("DFO rounds");
    let mut bt = Series::new("backbone size");
    let mut big_d = Series::new("D");

    for &side in &SIDES {
        let (mut a, mut b, mut c, mut d) = (vec![], vec![], vec![], vec![]);
        for rep in 0..cfg.reps {
            let sub = SweepConfig {
                field_side: side,
                ..cfg.clone()
            };
            let net = sub.network(n, rep);
            let cff_out = net.broadcast(Protocol::ImprovedCff);
            let dfo_out = net.broadcast(Protocol::Dfo);
            let stats = net.stats();
            a.push(cff_out.rounds as f64);
            b.push(dfo_out.rounds as f64);
            c.push(stats.backbone_size as f64);
            d.push(stats.max_degree as f64);
        }
        cff.push(Summary::of(a));
        dfo.push(Summary::of(b));
        bt.push(Summary::of(c));
        big_d.push(Summary::of(d));
    }
    table.add(cff);
    table.add(dfo);
    table.add(bt);
    table.add(big_d);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cff_wins_on_every_field() {
        let t = run(&SweepConfig::quick());
        for i in 0..t.xs.len() {
            assert!(
                t.series[0].points[i].mean < t.series[1].points[i].mean,
                "side {}",
                t.xs[i]
            );
        }
    }
}
