//! Multicast over MCNet(G): three overlapping sensor groups (temperature,
//! vibration, acoustic) receive targeted dissemination; sub-trees without
//! group members stay asleep.
//!
//! Run with: `cargo run --release --example multicast_groups`

use dsnet::protocols::multicast::relay_count;
use dsnet::protocols::runner::{MulticastSlots, RunConfig};
use dsnet::{Broadcast, GroupPlan, NetworkBuilder, Protocol};

const GROUP_NAMES: [&str; 3] = ["temperature", "vibration", "acoustic"];

fn main() {
    // 250 nodes; each independently joins each of the three groups with
    // probability 8%.
    let network = NetworkBuilder::paper(250, 31)
        .groups(GroupPlan {
            groups: 3,
            membership: 0.08,
        })
        .build()
        .expect("build network");
    network.check();

    let broadcast = network.broadcast(Protocol::ImprovedCff);
    let bcast_work = broadcast.energy.total_listen + broadcast.energy.total_tx;
    println!(
        "full broadcast: {} rounds, {}/{} delivered, {} total radio-on rounds\n",
        broadcast.rounds, broadcast.delivered, broadcast.targets, bcast_work
    );

    for g in 0..3u16 {
        let members = network.mcnet().group_members(g);
        let relays = relay_count(network.mcnet(), g);
        // The paper's multicast reuses the broadcast slots; pruning can cost
        // the odd delivery (reported honestly below). The session-slot
        // variant re-assigns slots over the participants and is exact.
        let paper = network.multicast(g);
        let req = Broadcast::multicast(network.sink(), g, MulticastSlots::Session);
        let reliable = network.run(&req, &RunConfig::default()).outcome;
        let work = paper.energy.total_listen + paper.energy.total_tx;
        println!(
            "multicast '{}': {} members, {} relays — paper {} rounds {}/{}, reliable {} rounds {}/{}, {} radio-on rounds ({:.0}% of broadcast)",
            GROUP_NAMES[g as usize],
            members.len(),
            relays,
            paper.rounds,
            paper.delivered,
            paper.targets,
            reliable.rounds,
            reliable.delivered,
            reliable.targets,
            work,
            100.0 * work as f64 / bcast_work as f64
        );
        assert!(paper.delivery_ratio() >= 0.9, "paper multicast collapsed");
        assert!(reliable.completed(), "session slots guarantee delivery");
        assert!(
            work <= bcast_work,
            "pruning must not cost more than broadcasting"
        );
    }

    // A group nobody joined: the session is free.
    let empty = network.multicast(9);
    assert_eq!(empty.targets, 0);
    println!(
        "\nmulticast to an empty group: {} targets, instant completion",
        empty.targets
    );
}
