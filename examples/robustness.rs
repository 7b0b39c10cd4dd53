//! Robustness under failures, three ways:
//!
//! 1. Fail-stop crashes (Section 3.3): kill an increasing number of
//!    backbone nodes at round 1 and watch DFO's token tour freeze while
//!    collision-free flooding keeps covering every reachable node.
//! 2. Lossy channels: sweep per-link drop probability and compare basic
//!    CFF (one shot per hop) against the bounded-retry reliable CFF.
//! 3. Detection-and-repair: crash a backbone node silently, run the
//!    repair protocol, and broadcast on the healed structure.
//!
//! Run with: `cargo run --release --example robustness`

use dsnet::cluster::repair::RepairConfig;
use dsnet::geom::rng::{derive_seed, rng_from_seed};
use dsnet::graph::NodeId;
use dsnet::protocols::runner::RunConfig;
use dsnet::radio::LossModel;
use dsnet::{Broadcast, NetworkBuilder, Protocol};
use rand::seq::SliceRandom as _;

fn main() {
    let network = NetworkBuilder::paper(350, 55)
        .build()
        .expect("build network");
    println!(
        "network: {} nodes, backbone {} nodes\n",
        network.len(),
        network.stats().backbone_size
    );

    println!(
        "{:>9}  {:>14}  {:>14}",
        "failures", "CFF delivery", "DFO delivery"
    );
    for f in [0usize, 1, 2, 4, 8, 16] {
        let mut victims: Vec<NodeId> = network
            .net()
            .backbone_nodes()
            .into_iter()
            .filter(|&u| u != network.sink())
            .collect();
        let mut rng = rng_from_seed(derive_seed(55, f as u64));
        victims.shuffle(&mut rng);
        victims.truncate(f);

        let mut cfg = RunConfig::default();
        for &v in &victims {
            cfg.failures.kill_node(v, 1);
        }
        let cff = network
            .run(&Broadcast::new(Protocol::ImprovedCff, network.sink()), &cfg)
            .outcome;
        let dfo = network
            .run(&Broadcast::new(Protocol::Dfo, network.sink()), &cfg)
            .outcome;
        println!(
            "{:>9}  {:>13.1}%  {:>13.1}%",
            f,
            100.0 * cff.delivery_ratio(),
            100.0 * dfo.delivery_ratio()
        );
        assert!(
            cff.delivered >= dfo.delivered,
            "flooding must never cover less than the token tour"
        );
        if f == 0 {
            assert!(cff.completed() && dfo.completed());
        }
    }
    println!(
        "\nDFO stalls at the first dead token-holder; CFF only loses what is physically cut off."
    );

    // ----- lossy channels: basic vs bounded-retry reliable CFF ------------
    println!(
        "\n{:>9}  {:>14}  {:>14}",
        "loss", "CFF1 delivery", "RCFF delivery"
    );
    for loss in [0.0, 0.05, 0.10, 0.20] {
        let cfg = RunConfig {
            loss: LossModel::from_probability(loss, derive_seed(55, (loss * 100.0) as u64)),
            max_retries: 4,
            ..RunConfig::default()
        };
        let basic = network
            .run(&Broadcast::new(Protocol::BasicCff, network.sink()), &cfg)
            .outcome;
        let reliable = network
            .run(&Broadcast::new(Protocol::ReliableCff, network.sink()), &cfg)
            .outcome;
        println!(
            "{:>8.0}%  {:>13.1}%  {:>13.1}%",
            100.0 * loss,
            100.0 * basic.delivery_ratio(),
            100.0 * reliable.delivery_ratio()
        );
        assert!(
            reliable.delivered >= basic.delivered,
            "retries must never cover less than one-shot flooding"
        );
    }
    println!("a single drop silences a whole CFF subtree; NACK epochs win it back.");

    // ----- silent crash + detection-and-repair ----------------------------
    let mut healing = NetworkBuilder::paper(350, 55).build().expect("build");
    let victim = healing
        .net()
        .backbone_nodes()
        .into_iter()
        .find(|&u| u != healing.sink())
        .expect("a non-root backbone node");
    let report = healing
        .repair_crash(victim, &RepairConfig::default())
        .expect("repairable crash");
    healing.check();
    let after = healing.broadcast(Protocol::ImprovedCff);
    println!(
        "\nrepair: {victim} crashed silently; detected in {} rounds, repaired in {} \
         ({} orphans re-homed, {} lost), then broadcast covered {}/{} survivors.",
        report.detection_rounds,
        report.repair_rounds(),
        report.rehomed.len(),
        report.lost.len(),
        after.delivered,
        after.targets
    );
    assert!(
        after.completed(),
        "healed network must cover every survivor"
    );
}
