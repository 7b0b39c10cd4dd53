//! Multi-sink operation (end of Section 2): several cluster-nets over the
//! same physical network, rooted at different sinks, so that when one
//! structure's backbone is damaged the others keep the broadcast alive.
//!
//! Run with: `cargo run --release --example multisink`

use dsnet::geom::rng::{derive_seed, rng_from_seed};
use dsnet::graph::NodeId;
use dsnet::protocols::runner::{run, RunConfig};
use dsnet::{Broadcast, MultiNet, NetworkBuilder, Protocol};
use rand::seq::SliceRandom as _;

fn main() {
    let network = NetworkBuilder::paper(300, 321)
        .build()
        .expect("build network");
    // Sinks: the original plus the two nodes farthest from it.
    let origin = network.position(network.sink());
    let mut far: Vec<NodeId> = network
        .net()
        .tree()
        .nodes()
        .filter(|&u| u != network.sink())
        .collect();
    far.sort_by(|&a, &b| {
        network
            .position(b)
            .dist_sq(origin)
            .total_cmp(&network.position(a).dist_sq(origin))
    });
    let sinks = vec![network.sink(), far[0], far[1]];
    let multi = MultiNet::from_network(&network, &sinks);
    println!(
        "three cluster-nets over one deployment, sinks: {:?}\n",
        multi.sinks()
    );

    for f in [0usize, 4, 8, 12] {
        // Damage the primary structure's backbone.
        let primary = &multi.structures()[0];
        let mut victims: Vec<NodeId> = primary
            .backbone_nodes()
            .into_iter()
            .filter(|&u| !sinks.contains(&u))
            .collect();
        let mut rng = rng_from_seed(derive_seed(321, f as u64));
        victims.shuffle(&mut rng);
        victims.truncate(f);
        let mut cfg = RunConfig::default();
        for &v in &victims {
            cfg.failures.kill_node(v, 1);
        }

        let single = multi.structures()[0].clone();
        let req = Broadcast::new(Protocol::ImprovedCff, single.root());
        let single_out = run(&single, &req, &cfg).outcome;
        let multi_out = multi.broadcast_failover(&cfg);
        println!(
            "{f:2} failures: single sink {:5.1}%  |  failover ({} attempts, {} rounds) {:5.1}%",
            100.0 * single_out.delivery_ratio(),
            multi_out.attempts.len(),
            multi_out.total_rounds,
            100.0 * multi_out.delivery_ratio()
        );
        assert!(multi_out.delivered >= single_out.delivered);
    }
    println!("\nA second sink buys back the coverage a damaged primary backbone loses.");
}
