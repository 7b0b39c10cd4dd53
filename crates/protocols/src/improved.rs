//! Algorithm 2: the improved collision-free flooding broadcast — the
//! paper's headline protocol (Theorem 1).
//!
//! Two phases after an optional source→root climb of `offset` rounds:
//!
//! * **Phase 1 — backbone flood.** Only backbone nodes participate. Each
//!   backbone depth `i` owns a window of `δ` rounds; BT-internal nodes
//!   transmit at their *b-time-slot* inside their depth's window, and
//!   backbone nodes listen (only) during the window of the depth above
//!   them. After `δ·h_BT` rounds every backbone node holds the message.
//! * **Phase 2 — leaf delivery.** Every internal node of CNet(G)
//!   transmits once at its *l-time-slot* inside a single shared window of
//!   `Δ` rounds; pure members listen in that window until they receive.
//!
//! Totals (Theorem 1): `δ·h + Δ` rounds, each node awake `O(δ + Δ)`
//! rounds; with `k` channels every window shrinks by a factor `k` — slot
//! `s` maps to round `⌈s/k⌉` on channel `(s−1) mod k`, and a receiver
//! tunes to its guaranteed-unique transmitter's (round, channel), which it
//! can compute because knowledge (I) includes the neighbours' slots.
//!
//! The same state machine runs **multicast** (Section 3.4): participation
//! flags derived from MCNet's group- and relay-lists decide who listens
//! (`rx`) and who forwards (`tx`); everyone else sleeps through the whole
//! session.

use crate::knowledge::{NetKnowledge, Session};
use dsnet_graph::NodeId;
use dsnet_radio::{Action, Channel, NodeCtx, NodeProgram, Round};

/// Over-the-air packet for Algorithm 2.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field names mirror the paper's package fields
pub enum Cff2Msg {
    /// Source-to-root climb.
    Uplink { hop: u32 },
    /// Phase-1 backbone flood (paper ships `(m, h)` here; our receivers
    /// know `h` from knowledge II already).
    Backbone { slot: u32, depth: u32 },
    /// Phase-2 leaf delivery.
    Leaf { slot: u32 },
}

/// Who takes part in a session (all-true for a broadcast; derived from
/// group-/relay-lists for a multicast).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Participation {
    /// Needs to receive the message.
    pub rx: bool,
    /// Must forward the message (phase 1 and/or phase 2 as applicable).
    pub tx: bool,
}

impl Participation {
    /// Full participation (broadcast).
    pub const FULL: Participation = Participation { rx: true, tx: true };
    /// No participation (node sleeps through the session).
    pub const NONE: Participation = Participation {
        rx: false,
        tx: false,
    };
}

/// Shared schedule constants of one Algorithm-2 session.
#[derive(Debug, Clone, Copy)]
pub struct Cff2Schedule {
    /// Rounds consumed by the source→root climb.
    pub offset: u64,
    /// Phase-1 window length `⌈δ/k⌉`.
    pub wb: u64,
    /// Phase-2 window length `⌈Δ/k⌉`.
    pub wl: u64,
    /// First round of phase 2 (exclusive): phase 2 occupies
    /// `p2_start+1 ..= p2_start+wl`.
    pub p2_start: u64,
    /// Last scheduled round.
    pub end_round: u64,
    /// Radio channels `k`.
    pub channels: u8,
}

impl Cff2Schedule {
    /// Derive the schedule constants from knowledge + session.
    pub fn new(k: &NetKnowledge, session: &Session) -> Self {
        let kk = session.channels as u64;
        let wb = (k.delta_b as u64).div_ceil(kk);
        let wl = (k.delta_l as u64).div_ceil(kk);
        let p2_start = session.offset + wb * k.bt_height as u64;
        let end_round = (p2_start + wl).max(session.offset + 1);
        Self {
            offset: session.offset,
            wb,
            wl,
            p2_start,
            end_round,
            channels: session.channels,
        }
    }

    /// Round-within-window and channel for a TDM slot under `k` channels.
    fn map_slot(&self, slot: u32) -> (u64, Channel) {
        let k = self.channels as u64;
        let round = (slot as u64).div_ceil(k);
        let channel = ((slot as u64 - 1) % k) as Channel;
        (round, channel)
    }

    /// Absolute transmit round + channel for a phase-1 slot at BT depth `i`.
    fn p1_tx(&self, depth: u32, slot: u32) -> (u64, Channel) {
        let (r, c) = self.map_slot(slot);
        (self.offset + depth as u64 * self.wb + r, c)
    }

    /// Absolute transmit round + channel for a phase-2 slot.
    fn p2_tx(&self, slot: u32) -> (u64, Channel) {
        let (r, c) = self.map_slot(slot);
        (self.p2_start + r, c)
    }
}

/// Per-node state machine for Algorithm 2 (broadcast and multicast).
#[derive(Debug, Clone)]
pub struct Cff2Program {
    sched: Cff2Schedule,
    depth: u32,
    in_backbone: bool,
    bt_internal: bool,
    cnet_internal: bool,
    b_slot: Option<u32>,
    l_slot: Option<u32>,
    expected_b: Option<u32>,
    expected_l: Option<u32>,
    part: Participation,
    uplink_pos: Option<u64>,
    /// Holds the message.
    pub received: bool,
    /// Round of first reception (0 for the source).
    pub received_round: Option<Round>,
    p1_sent: bool,
    p2_sent: bool,
    uplink_sent: bool,
    finished: bool,
}

impl Cff2Program {
    /// Build the Algorithm-2 program for node `u`.
    pub fn new(
        k: &NetKnowledge,
        session: &Session,
        sched: Cff2Schedule,
        u: NodeId,
        uplink_pos: Option<u64>,
        part: Participation,
    ) -> Self {
        let nk = k.of(u);
        let has_it = u == session.source || (nk.depth == 0 && session.offset == 0);
        Self {
            sched,
            depth: nk.depth,
            in_backbone: nk.status.in_backbone(),
            bt_internal: nk.bt_internal,
            cnet_internal: nk.cnet_internal,
            b_slot: nk.b_slot,
            l_slot: nk.l_slot,
            expected_b: nk.expected_b_slot,
            expected_l: nk.expected_l_slot,
            part,
            uplink_pos,
            received: has_it,
            received_round: has_it.then_some(0),
            p1_sent: false,
            p2_sent: false,
            uplink_sent: false,
            finished: false,
        }
    }

    /// Whether this node still owes a transmission.
    fn tx_pending(&self) -> bool {
        self.part.tx
            && ((self.bt_internal && !self.p1_sent) || (self.cnet_internal && !self.p2_sent))
    }

    /// Listening behaviour inside a window: tune to the expected slot when
    /// k > 1, otherwise listen through the window on channel 0.
    fn window_listen(&self, r: u64, win_start: u64, expected: Option<u32>) -> Action<Cff2Msg> {
        if self.sched.channels == 1 {
            return Action::listen();
        }
        match expected {
            Some(s) => {
                let (dr, ch) = self.sched.map_slot(s);
                if r == win_start + dr {
                    Action::Listen { channel: ch }
                } else {
                    Action::Sleep
                }
            }
            // No guaranteed slot known (only possible in paper-faithful
            // setups): fall back to camping on channel 0.
            None => Action::Listen { channel: 0 },
        }
    }
}

impl NodeProgram for Cff2Program {
    type Msg = Cff2Msg;

    fn act(&mut self, ctx: &NodeCtx) -> Action<Cff2Msg> {
        let r = ctx.round;
        if r >= self.sched.end_round {
            self.finished = true;
        }
        if self.part == Participation::NONE && self.uplink_pos.is_none() {
            return Action::Sleep;
        }

        // Source→root climb.
        if r <= self.sched.offset {
            if let Some(pos) = self.uplink_pos {
                if r == pos + 1 && self.received && !self.uplink_sent {
                    self.uplink_sent = true;
                    return Action::transmit(Cff2Msg::Uplink { hop: pos as u32 });
                }
                if r <= pos && !self.received {
                    return Action::listen();
                }
            }
            return Action::Sleep;
        }

        // Phase 1: backbone flood, windows indexed by BT depth.
        if r <= self.sched.p2_start {
            if !self.in_backbone {
                return Action::Sleep;
            }
            // Transmit inside own window once the message is held.
            if self.part.tx && self.bt_internal && !self.p1_sent && self.received {
                let slot = self.b_slot.expect("BT-internal node carries a b-slot");
                let (tx, ch) = self.sched.p1_tx(self.depth, slot);
                if r == tx {
                    self.p1_sent = true;
                    return Action::Transmit {
                        channel: ch,
                        msg: Cff2Msg::Backbone {
                            slot,
                            depth: self.depth,
                        },
                    };
                }
            }
            // Listen during the depth-above window until received.
            if (self.part.rx || self.part.tx) && !self.received && self.depth >= 1 {
                let win_start = self.sched.offset + (self.depth as u64 - 1) * self.sched.wb;
                let win_end = win_start + self.sched.wb;
                if r > win_start && r <= win_end {
                    return self.window_listen(r, win_start, self.expected_b);
                }
            }
            return Action::Sleep;
        }

        // Phase 2: leaf delivery.
        if self.part.tx && self.cnet_internal && !self.p2_sent && self.received {
            let slot = self.l_slot.expect("internal node carries an l-slot");
            let (tx, ch) = self.sched.p2_tx(slot);
            if r == tx {
                self.p2_sent = true;
                return Action::Transmit {
                    channel: ch,
                    msg: Cff2Msg::Leaf { slot },
                };
            }
        }
        if self.part.rx && !self.received && !self.in_backbone {
            let win_start = self.sched.p2_start;
            if r > win_start && r <= win_start + self.sched.wl {
                return self.window_listen(r, win_start, self.expected_l);
            }
        }
        Action::Sleep
    }

    fn on_receive(&mut self, ctx: &NodeCtx, _from: NodeId, _msg: &Cff2Msg) {
        if !self.received {
            self.received = true;
            self.received_round = Some(ctx.round);
        }
    }

    fn done(&self) -> bool {
        if self.finished {
            return true;
        }
        let rx_ok = !self.part.rx || self.received;
        let tx_ok = !self.tx_pending();
        // Non-root path nodes owe the uplink relay before they are done.
        let uplink_ok = match self.uplink_pos {
            Some(pos) if pos < self.sched.offset => self.uplink_sent,
            _ => true,
        };
        rx_ok && tx_ok && uplink_ok
    }

    /// The TDM schedule makes every awake round computable in advance,
    /// which is what lets the engine skip the long sleeps between a
    /// node's windows: per Theorem 1(2) a node is awake `O(δ·k + Δ)`
    /// rounds, so a 100k-node run costs awake-work, not `n × rounds`.
    /// Every skipped round provably falls through `act()` to
    /// `Action::Sleep` without touching state: transmissions, window
    /// listens and the end-of-schedule `finished` flip are all
    /// enumerated below, and reception (the only other state change)
    /// can only happen in a listen round, after which the engine
    /// re-consults this hint.
    fn next_wake(&self, now: Round) -> Option<Round> {
        // `done()` is monotone for this program — nothing it depends on
        // can un-happen — so a done node never needs to act again.
        if self.done() {
            return Some(Round::MAX);
        }
        let s = &self.sched;
        // Acting at end_round flips `finished`; never sleep past it.
        let mut w = s.end_round;
        let now_ = now;
        let cand = |w: &mut Round, r: Round| {
            if r > now_ && r < *w {
                *w = r;
            }
        };

        // Source→root climb: listen every round until our path position,
        // relay one round after it.
        if let Some(pos) = self.uplink_pos {
            if !self.received && now < pos.min(s.offset) {
                cand(&mut w, now + 1);
            }
            if self.received && !self.uplink_sent && pos < s.offset {
                cand(&mut w, pos + 1);
            }
        }

        // Phase 1: own b-slot once the message is held; the depth-above
        // window (or just the expected slot's round, k > 1) until then.
        if self.in_backbone {
            if self.part.tx && self.bt_internal && !self.p1_sent && self.received {
                if let Some(slot) = self.b_slot {
                    cand(&mut w, s.p1_tx(self.depth, slot).0);
                }
            }
            if (self.part.rx || self.part.tx) && !self.received && self.depth >= 1 {
                let win_start = s.offset + (self.depth as u64 - 1) * s.wb;
                match self.expected_b.filter(|_| s.channels > 1) {
                    Some(slot) => cand(&mut w, win_start + s.map_slot(slot).0),
                    None => {
                        let r = (now + 1).max(win_start + 1);
                        if r <= win_start + s.wb {
                            cand(&mut w, r);
                        }
                    }
                }
            }
        }

        // Phase 2: own l-slot / the shared leaf window.
        if self.part.tx && self.cnet_internal && !self.p2_sent && self.received {
            if let Some(slot) = self.l_slot {
                cand(&mut w, s.p2_tx(slot).0);
            }
        }
        if self.part.rx && !self.received && !self.in_backbone {
            match self.expected_l.filter(|_| s.channels > 1) {
                Some(slot) => cand(&mut w, s.p2_start + s.map_slot(slot).0),
                None => {
                    let r = (now + 1).max(s.p2_start + 1);
                    if r <= s.p2_start + s.wl {
                        cand(&mut w, r);
                    }
                }
            }
        }
        Some(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain_net;
    use crate::knowledge::build_knowledge;
    use dsnet_cluster::ClusterNet;
    use dsnet_radio::{Engine, EngineConfig, StopReason};

    fn run(
        net: &ClusterNet,
        source: NodeId,
        channels: u8,
    ) -> (u64, usize, Vec<Option<Cff2Program>>) {
        let k = build_knowledge(net);
        let session = Session::new(&k, source, channels);
        let sched = Cff2Schedule::new(&k, &session);
        let path = net.tree().path_to_root(source);
        let mut pos = vec![None; net.graph().capacity()];
        for (j, &u) in path.iter().enumerate() {
            pos[u.index()] = Some(j as u64);
        }
        let mut engine = Engine::new(
            net.graph(),
            EngineConfig {
                channels,
                max_rounds: sched.end_round + 4,
                record_trace: true,
            },
            |u| Cff2Program::new(&k, &session, sched, u, pos[u.index()], Participation::FULL),
        );
        let out = engine.run();
        assert_eq!(out.stop, StopReason::AllDone, "schedule ran past its end");
        (
            out.rounds,
            engine.trace().collision_count(),
            engine.into_programs(),
        )
    }

    #[test]
    fn broadcast_covers_chain_within_theorem_bound() {
        let net = chain_net(14);
        let k = build_knowledge(&net);
        let (rounds, collisions, programs) = run(&net, net.root(), 1);
        assert_eq!(collisions, 0, "strict mode is collision-free");
        for u in net.tree().nodes() {
            assert!(programs[u.index()].as_ref().unwrap().received, "{u}");
        }
        // Theorem 1(1): δ·h + Δ rounds (we use the tighter BT height).
        let bound = k.delta_b as u64 * k.bt_height as u64 + k.delta_l as u64;
        assert!(rounds <= bound, "rounds {rounds} > bound {bound}");
    }

    #[test]
    fn awake_rounds_respect_theorem_bound() {
        let net = chain_net(14);
        let k = build_knowledge(&net);
        let session = Session::new(&k, net.root(), 1);
        let sched = Cff2Schedule::new(&k, &session);
        let mut engine = Engine::new(
            net.graph(),
            EngineConfig {
                max_rounds: sched.end_round + 4,
                ..Default::default()
            },
            |u| {
                Cff2Program::new(
                    &k,
                    &session,
                    sched,
                    u,
                    (u == net.root()).then_some(0),
                    Participation::FULL,
                )
            },
        );
        engine.run();
        // Theorem 1(2): each node awake ≤ 2δ + Δ rounds.
        let bound = 2 * k.delta_b as u64 + k.delta_l as u64;
        for u in net.tree().nodes() {
            let awake = engine.meter(u).awake_rounds();
            assert!(awake <= bound.max(2), "{u}: awake {awake} > {bound}");
        }
    }

    #[test]
    fn deep_source_pays_uplink_then_floods() {
        let net = chain_net(11);
        let deep = net
            .tree()
            .nodes()
            .max_by_key(|&u| net.tree().depth(u))
            .unwrap();
        let (_rounds, collisions, programs) = run(&net, deep, 1);
        assert_eq!(collisions, 0);
        for u in net.tree().nodes() {
            assert!(programs[u.index()].as_ref().unwrap().received, "{u}");
        }
    }

    #[test]
    fn multichannel_delivers_faster() {
        // Build a bushy network: one head with many members, then a second
        // cluster, so Δ > 1 and channels can actually help.
        let mut net = ClusterNet::with_defaults();
        net.move_in(&[]).unwrap();
        for _ in 0..6 {
            net.move_in(&[NodeId(0)]).unwrap();
        }
        net.move_in(&[NodeId(1)]).unwrap(); // promotes 1, head 7
        for _ in 0..4 {
            net.move_in(&[NodeId(7)]).unwrap();
        }
        let (r1, c1, p1) = run(&net, net.root(), 1);
        let (r2, c2, p2) = run(&net, net.root(), 2);
        assert_eq!(c1, 0);
        assert_eq!(c2, 0);
        for u in net.tree().nodes() {
            assert!(p1[u.index()].as_ref().unwrap().received);
            assert!(p2[u.index()].as_ref().unwrap().received, "{u} (k=2)");
        }
        assert!(r2 <= r1, "k=2 ({r2}) should not be slower than k=1 ({r1})");
    }

    #[test]
    fn non_participants_sleep_entirely() {
        let net = chain_net(8);
        let k = build_knowledge(&net);
        let session = Session::new(&k, net.root(), 1);
        let sched = Cff2Schedule::new(&k, &session);
        let silent = net
            .tree()
            .nodes()
            .find(|&u| net.tree().is_leaf(u) && u != net.root())
            .unwrap();
        let mut engine = Engine::new(
            net.graph(),
            EngineConfig {
                max_rounds: sched.end_round + 4,
                ..Default::default()
            },
            |u| {
                let part = if u == silent {
                    Participation::NONE
                } else {
                    Participation::FULL
                };
                Cff2Program::new(&k, &session, sched, u, (u == net.root()).then_some(0), part)
            },
        );
        engine.run();
        assert_eq!(engine.meter(silent).awake_rounds(), 0);
    }

    #[test]
    fn star_delivers_in_delta_l() {
        let mut net = ClusterNet::with_defaults();
        net.move_in(&[]).unwrap();
        for _ in 0..5 {
            net.move_in(&[NodeId(0)]).unwrap();
        }
        let k = build_knowledge(&net);
        let (rounds, collisions, programs) = run(&net, net.root(), 1);
        assert_eq!(collisions, 0);
        for u in net.tree().nodes() {
            assert!(programs[u.index()].as_ref().unwrap().received);
        }
        assert!(rounds <= k.delta_l as u64);
    }
}
