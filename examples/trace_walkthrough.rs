//! Round-by-round walkthrough of Algorithm 2 on a small network, printed
//! from the radio engine's event trace — shows the two TDM phases, the
//! per-depth windows and the collision-free deliveries exactly as the
//! paper describes them. The program is the one CFF machine of
//! `dsnet::protocols::cff` on its Algorithm-2 schedule
//! (`CffSchedule::algorithm2`); `CffSchedule::algorithm1` runs Algorithm 1
//! on the same machine.
//!
//! Run with: `cargo run --release --example trace_walkthrough`

use dsnet::cluster::NodeStatus;
use dsnet::protocols::cff::{CffProgram, CffSchedule, Participation};
use dsnet::protocols::knowledge::{build_knowledge, Session};
use dsnet::radio::{Engine, EngineConfig, TraceEvent};
use dsnet::NetworkBuilder;

fn main() {
    let network = NetworkBuilder::paper(40, 12)
        .build()
        .expect("build network");
    let net = network.net();
    let k = build_knowledge(net);
    println!(
        "network: {} nodes, backbone {} (height {}), δ = {}, Δ = {}\n",
        k.nodes, k.backbone_size, k.bt_height, k.delta_b, k.delta_l
    );

    let session = Session::new(&k, net.root(), 1);
    let sched = CffSchedule::algorithm2(&k, &session);
    println!(
        "schedule: phase 1 = rounds 1..={} ({} windows of δ={}), phase 2 = rounds {}..={}\n",
        sched.p2_start,
        k.bt_height,
        k.delta_b,
        sched.p2_start + 1,
        sched.end_round
    );

    let mut engine = Engine::new(
        net.graph(),
        EngineConfig {
            max_rounds: sched.end_round + 4,
            record_trace: true,
            channels: 1,
        },
        |u| {
            CffProgram::new(
                &k,
                None,
                &session,
                sched,
                u,
                (u == net.root()).then_some(0),
                Participation::FULL,
            )
        },
    );
    let out = engine.run();

    let mut last_round = 0;
    for ev in engine.trace().events() {
        if ev.round() != last_round {
            last_round = ev.round();
            let phase = if last_round <= sched.p2_start {
                "phase 1"
            } else {
                "phase 2"
            };
            println!("--- round {last_round} ({phase}) ---");
        }
        match ev {
            TraceEvent::Transmit { node, .. } => {
                let status = net.status(*node);
                let role = match status {
                    NodeStatus::ClusterHead => "head",
                    NodeStatus::Gateway => "gateway",
                    NodeStatus::PureMember => "member",
                };
                println!(
                    "  {node} ({role}, depth {}) transmits",
                    net.tree().depth(*node)
                );
            }
            TraceEvent::Deliver { from, to, .. } => {
                println!("    -> {to} receives from {from}");
            }
            TraceEvent::Collision {
                node, transmitters, ..
            } => {
                println!("    xx {node} hears {transmitters} transmitters collide (harmless: its unique slot is elsewhere)");
            }
            TraceEvent::NodeDeath { node, .. } => println!("  !! {node} died"),
            TraceEvent::NodeRevive { node, .. } => println!("  ++ {node} revived"),
            TraceEvent::LinkDrop { from, to, .. } => {
                println!("    ~~ channel loss: {from} -> {to} dropped");
            }
        }
    }

    println!(
        "\nbroadcast complete in {} rounds ({} deliveries, {} collision events — every node still served by its unique slot)",
        out.rounds,
        engine.trace().delivery_count(),
        engine.trace().collision_count()
    );
}
