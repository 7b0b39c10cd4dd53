//! Algorithm 1: collision-free flooding (CFF) over the whole CNet(G).
//!
//! The message floods depth-by-depth. Each tree depth owns a TDM window of
//! `Δ'` rounds; an internal node at depth `i` that holds the message
//! transmits once, at round `offset + i·Δ' + slot`, where `slot` is its
//! Algorithm-1 time slot (Time-Slot Condition 1 guarantees every depth-
//! `(i+1)` node a collision-free reception). A node listens only during
//! its parent depth's window — and only until it receives — then sleeps
//! until its own transmission round, which is where the `O(Δ')` awake
//! bound of Lemma 1 comes from.
//!
//! If the source is not the root, the message first climbs the tree: the
//! path node at distance `j` from the source transmits in round `j + 1`,
//! reaching the root after `offset = depth(source)` rounds (at most `h`,
//! as in the paper).
//!
//! With `k` channels (the paper's "Multi-Channels" remark), slots
//! `i·k+1 ..= i·k+k` share one round on channels `0..k`: windows shrink to
//! `⌈Δ'/k⌉` rounds, the broadcast completes in `⌈Δ'/k⌉·(h+1)` rounds and
//! receivers tune to their guaranteed-unique transmitter's
//! (round, channel), which knowledge (I) lets them compute.

use crate::knowledge::{NetKnowledge, Session};
use dsnet_graph::NodeId;
use dsnet_radio::{Action, NodeCtx, NodeProgram, Round};

/// Over-the-air packet. The paper's package `(m, t, Δ', i)`; the receiver
/// windows make the tags redundant for correctness but they are kept for
/// fidelity and debugging.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field names mirror the paper's package fields
pub enum CffMsg {
    /// Source-to-root climb.
    Uplink { hop: u32 },
    /// The flood proper.
    Flood { slot: u32, depth: u32 },
}

/// Per-node state machine for Algorithm 1.
#[derive(Debug, Clone)]
pub struct CffProgram {
    depth: u32,
    flood_slot: Option<u32>,
    /// Window length: `⌈Δ'/k⌉`.
    delta: u64,
    channels: u8,
    expected_slot: Option<u32>,
    offset: u64,
    /// Position on the source→root path (`0` = source). `None` off-path.
    uplink_pos: Option<u64>,
    /// Holds the broadcast message.
    pub received: bool,
    /// Round of first reception (0 for the source).
    pub received_round: Option<Round>,
    transmitted: bool,
    uplink_sent: bool,
    /// Flipped once the whole schedule has elapsed.
    finished: bool,
    /// Last scheduled round of the whole flood.
    end_round: u64,
}

impl CffProgram {
    /// Build the Algorithm-1 program for node `u`.
    pub fn new(k: &NetKnowledge, session: &Session, u: NodeId, uplink_pos: Option<u64>) -> Self {
        let nk = k.of(u);
        let kk = session.channels as u64;
        let delta = (k.delta_flood.max(1) as u64).div_ceil(kk);
        // Internal nodes live at depths 0..height-1; the deepest window is
        // height-1, ending at offset + height·⌈Δ'/k⌉.
        let end_round = session.offset + delta * k.height as u64;
        let is_source = u == session.source;
        Self {
            depth: nk.depth,
            flood_slot: nk.flood_slot,
            delta,
            channels: session.channels,
            expected_slot: nk.expected_flood_slot,
            offset: session.offset,
            uplink_pos,
            received: is_source || (nk.depth == 0 && session.offset == 0),
            received_round: (is_source || (nk.depth == 0 && session.offset == 0)).then_some(0),
            transmitted: false,
            uplink_sent: false,
            finished: false,
            end_round: end_round.max(1),
        }
    }

    /// First round of the window in which this node listens (exclusive
    /// lower bound: listening happens in rounds `win_start+1 ..= win_end`).
    fn listen_window(&self) -> Option<(u64, u64)> {
        if self.depth == 0 {
            return None;
        }
        let start = self.offset + (self.depth as u64 - 1) * self.delta;
        Some((start, start + self.delta))
    }

    /// Round-within-window and channel for a slot under `k` channels.
    fn map_slot(&self, slot: u32) -> (u64, u8) {
        let k = self.channels as u64;
        ((slot as u64).div_ceil(k), ((slot as u64 - 1) % k) as u8)
    }

    /// The (round, channel) this node transmits the flood (internal only).
    fn tx_round(&self) -> Option<(u64, u8)> {
        self.flood_slot.map(|s| {
            let (r, c) = self.map_slot(s);
            (self.offset + self.depth as u64 * self.delta + r, c)
        })
    }
}

impl NodeProgram for CffProgram {
    type Msg = CffMsg;

    fn act(&mut self, ctx: &NodeCtx) -> Action<CffMsg> {
        let r = ctx.round;
        if r >= self.end_round {
            self.finished = true;
        }
        // Uplink phase: rounds 1..=offset.
        if let Some(pos) = self.uplink_pos {
            if r <= self.offset {
                if r == pos + 1 && self.received && !self.uplink_sent {
                    self.uplink_sent = true;
                    return Action::transmit(CffMsg::Uplink { hop: pos as u32 });
                }
                if r <= pos && !self.received {
                    return Action::listen();
                }
                return Action::Sleep;
            }
        } else if r <= self.offset {
            // Off-path nodes sleep through the climb.
            return Action::Sleep;
        }
        // Flood phase.
        if self.received {
            if !self.transmitted {
                if let Some((tx, ch)) = self.tx_round() {
                    if r == tx {
                        self.transmitted = true;
                        return Action::Transmit {
                            channel: ch,
                            msg: CffMsg::Flood {
                                slot: self.flood_slot.unwrap(),
                                depth: self.depth,
                            },
                        };
                    }
                }
            }
            return Action::Sleep;
        }
        if let Some((start, end)) = self.listen_window() {
            if r > start && r <= end {
                if self.channels == 1 {
                    return Action::listen();
                }
                // Targeted listening: tune to the guaranteed-unique slot.
                match self.expected_slot {
                    Some(s) => {
                        let (dr, ch) = self.map_slot(s);
                        if r == start + dr {
                            return Action::Listen { channel: ch };
                        }
                        return Action::Sleep;
                    }
                    None => return Action::Listen { channel: 0 },
                }
            }
        }
        Action::Sleep
    }

    fn on_receive(&mut self, ctx: &NodeCtx, _from: NodeId, _msg: &CffMsg) {
        if !self.received {
            self.received = true;
            self.received_round = Some(ctx.round);
        }
    }

    fn done(&self) -> bool {
        if self.finished {
            return true;
        }
        self.received && (self.flood_slot.is_none() || self.transmitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain_net;
    use crate::knowledge::build_knowledge;
    use dsnet_cluster::ClusterNet;
    use dsnet_radio::{Engine, EngineConfig, StopReason};

    fn run_cff(net: &ClusterNet, source: NodeId) -> (u64, usize, Vec<Option<CffProgram>>) {
        let k = build_knowledge(net);
        let session = Session::new(&k, source, 1);
        let path = net.tree().path_to_root(source);
        let mut pos = vec![None; net.graph().capacity()];
        for (j, &u) in path.iter().enumerate() {
            pos[u.index()] = Some(j as u64);
        }
        let mut engine = Engine::new(
            net.graph(),
            EngineConfig {
                max_rounds: 100_000,
                record_trace: true,
                ..Default::default()
            },
            |u| CffProgram::new(&k, &session, u, pos[u.index()]),
        );
        let out = engine.run();
        assert_eq!(out.stop, StopReason::AllDone);
        let collisions = engine.trace().collision_count();
        (out.rounds, collisions, engine.into_programs())
    }

    #[test]
    fn floods_whole_chain_from_root() {
        let net = chain_net(12);
        let k = build_knowledge(&net);
        let (rounds, collisions, programs) = run_cff(&net, net.root());
        assert_eq!(collisions, 0, "strict-mode CFF must be collision-free");
        for u in net.tree().nodes() {
            assert!(programs[u.index()].as_ref().unwrap().received, "{u}");
        }
        // Lemma 1 bound: Δ'·(h+1) rounds.
        assert!(rounds <= (k.delta_flood.max(1) as u64) * (k.height as u64 + 1));
    }

    #[test]
    fn non_root_source_pays_uplink() {
        let net = chain_net(10);
        let deep = net
            .tree()
            .nodes()
            .max_by_key(|&u| net.tree().depth(u))
            .unwrap();
        let (rounds, collisions, programs) = run_cff(&net, deep);
        assert_eq!(collisions, 0);
        for u in net.tree().nodes() {
            assert!(programs[u.index()].as_ref().unwrap().received, "{u}");
        }
        let k = build_knowledge(&net);
        let bound =
            net.tree().depth(deep) as u64 + (k.delta_flood.max(1) as u64) * (k.height as u64 + 1);
        assert!(rounds <= bound);
    }

    #[test]
    fn nodes_sleep_outside_their_windows() {
        let net = chain_net(10);
        let k = build_knowledge(&net);
        let session = Session::new(&k, net.root(), 1);
        let mut engine = Engine::new(
            net.graph(),
            EngineConfig {
                max_rounds: 100_000,
                ..Default::default()
            },
            |u| CffProgram::new(&k, &session, u, (u == net.root()).then_some(0)),
        );
        let out = engine.run();
        // Lemma 1: each node awake at most 2Δ' rounds (we are tighter:
        // ≤ Δ' listening + 1 transmitting).
        let delta = k.delta_flood.max(1) as u64;
        for u in net.tree().nodes() {
            let awake = engine.meter(u).awake_rounds();
            assert!(awake <= 2 * delta, "{u} awake {awake} > 2Δ'={}", 2 * delta);
        }
        assert!(out.rounds >= 1);
    }

    #[test]
    fn two_node_network() {
        let mut net = ClusterNet::with_defaults();
        net.move_in(&[]).unwrap();
        net.move_in(&[NodeId(0)]).unwrap();
        let (rounds, collisions, programs) = run_cff(&net, NodeId(0));
        assert_eq!(collisions, 0);
        assert!(programs[1].as_ref().unwrap().received);
        assert_eq!(rounds, 1); // root transmits at slot 1, member receives
    }

    #[test]
    fn singleton_network_terminates() {
        let mut net = ClusterNet::with_defaults();
        net.move_in(&[]).unwrap();
        let (rounds, _c, programs) = run_cff(&net, NodeId(0));
        assert!(programs[0].as_ref().unwrap().received);
        assert!(rounds <= 1);
    }
}

#[cfg(test)]
mod multichannel_tests {
    use super::*;
    use crate::knowledge::build_knowledge;
    use crate::runner::{run, Broadcast, BroadcastOutcome, Protocol, RunConfig};
    use dsnet_cluster::ClusterNet;

    fn basic(net: &ClusterNet, cfg: &RunConfig) -> BroadcastOutcome {
        run(net, &Broadcast::new(Protocol::BasicCff, net.root()), cfg).outcome
    }

    /// Bushy net so Δ' > 1 and channels have something to divide.
    fn bushy() -> ClusterNet {
        let mut net = ClusterNet::with_defaults();
        net.move_in(&[]).unwrap();
        for _ in 0..6 {
            net.move_in(&[NodeId(0)]).unwrap();
        }
        net.move_in(&[NodeId(1)]).unwrap(); // promotes 1, head 7
        for _ in 0..5 {
            net.move_in(&[NodeId(7)]).unwrap();
        }
        net.move_in(&[NodeId(8)]).unwrap(); // promotes 8, head 13
        for _ in 0..3 {
            net.move_in(&[NodeId(13)]).unwrap();
        }
        net
    }

    #[test]
    fn multichannel_cff1_delivers_and_never_slower() {
        let net = bushy();
        let k = build_knowledge(&net);
        let base = basic(&net, &RunConfig::default());
        assert!(base.completed());
        let mut prev = base.rounds;
        for channels in [2u8, 4] {
            let cfg = RunConfig {
                channels,
                ..Default::default()
            };
            let out = basic(&net, &cfg);
            assert!(
                out.completed(),
                "k={channels}: {}/{}",
                out.delivered,
                out.targets
            );
            assert!(out.rounds <= prev, "k={channels}: {} > {prev}", out.rounds);
            assert!(out.rounds <= crate::analytic::cff_basic_bound(&k, 0, channels));
            prev = out.rounds;
        }
    }

    #[test]
    fn multichannel_cff1_works_on_deep_chains() {
        let mut net = ClusterNet::with_defaults();
        net.move_in(&[]).unwrap();
        for i in 1..15u32 {
            net.move_in(&[NodeId(i - 1)]).unwrap();
        }
        let cfg = RunConfig {
            channels: 3,
            ..Default::default()
        };
        let out = basic(&net, &cfg);
        assert!(out.completed());
    }
}
