//! Collision-free flooding (CFF): Algorithm 1, Algorithm 2 and the
//! multicast of Section 3.4 as one per-node state machine.
//!
//! Every run opens with an optional source→root climb: the path node at
//! distance `j` from the source transmits in round `j + 1`, reaching the
//! root after `offset = depth(source)` rounds (at most `h`, as in the
//! paper). Then the message floods in up to two phases:
//!
//! * **Phase 1 — per-depth flood.** Each tree depth `i` owns a TDM window
//!   of `w` rounds. A transmitter at depth `i` that holds the message
//!   sends once, at round `offset + i·w + slot`; a receiver listens (only)
//!   during the window of the depth above it, until it receives, then
//!   sleeps until its own transmission round.
//! * **Phase 2 — leaf delivery.** Every internal node of CNet(G) transmits
//!   once at its *l-time-slot* inside a single shared window of `Δ`
//!   rounds; pure members listen in that window until they receive.
//!
//! The paper's two algorithms are two [`CffSchedule`]s of this machine:
//!
//! * **Algorithm 1** ([`CffSchedule::algorithm1`]) runs phase 1 over the
//!   whole CNet(G) with the Algorithm-1 flood slots of the
//!   [`FloodKnowledge`] part: `Δ'`-round windows over the `h` depths and
//!   no leaf window. Time-Slot Condition 1 gives
//!   every receiver a collision-free slot; each node is awake `O(Δ')`
//!   rounds (Lemma 1).
//! * **Algorithm 2** ([`CffSchedule::algorithm2`]), the headline protocol
//!   (Theorem 1), runs phase 1 over BT(G) only, with *b-time-slots* in
//!   `δ`-round windows, then phase 2: `δ·h + Δ` rounds, each node awake
//!   `O(δ + Δ)` rounds.
//!
//! With `k` channels (Section 3.3 "Multi-Channels") every window shrinks
//! by a factor `k`: slot `s` maps to round `⌈s/k⌉` on channel
//! `(s−1) mod k`, and a receiver tunes to its guaranteed-unique
//! transmitter's (round, channel), which it can compute because knowledge
//! (I) includes the neighbours' slots.
//!
//! A **multicast** (Section 3.4) is Algorithm 2 with participation flags
//! derived from MCNet's group- and relay-lists: they decide who listens
//! (`rx`) and who forwards (`tx`); everyone else sleeps through the whole
//! session.

use crate::knowledge::{FloodKnowledge, NetKnowledge, Session};
use dsnet_graph::NodeId;
use dsnet_radio::{Action, Channel, NodeCtx, NodeProgram, Round};

/// Over-the-air packet of a CFF run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field names mirror the paper's package fields
pub enum CffMsg {
    /// Source-to-root climb.
    Uplink { hop: u32 },
    /// Phase-1 per-depth flood (the paper's `(m, t, Δ', i)` package in
    /// Algorithm 1, `(m, h)` in Algorithm 2; receivers know the schedule
    /// from knowledge II already).
    Flood { slot: u32, depth: u32 },
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

/// Shared schedule constants of one CFF session.
#[derive(Debug, Clone, Copy)]
pub struct CffSchedule {
    /// Rounds consumed by the source→root climb.
    pub offset: u64,
    /// Phase-1 window length: `⌈Δ'/k⌉` (Algorithm 1) or `⌈δ/k⌉`
    /// (Algorithm 2).
    pub wb: u64,
    /// Phase-2 window length `⌈Δ/k⌉` (0 in Algorithm 1).
    pub wl: u64,
    /// First round of phase 2 (exclusive): phase 2 occupies
    /// `p2_start+1 ..= p2_start+wl`.
    pub p2_start: u64,
    /// Last scheduled round.
    pub end_round: u64,
    /// Radio channels `k`.
    pub channels: u8,
    /// Phase 1 covers every CNet node with its Algorithm-1 slots.
    algorithm1: bool,
}

impl CffSchedule {
    /// Algorithm 1: `⌈Δ'/k⌉`-round windows over the `h` depths of CNet(G),
    /// no leaf window.
    pub fn algorithm1(k: &NetKnowledge, flood: &FloodKnowledge, session: &Session) -> Self {
        let wb = (flood.delta_flood.max(1) as u64).div_ceil(session.channels as u64);
        Self::with_windows(session, wb, k.height, 0, true)
    }

    /// Algorithm 2: `⌈δ/k⌉`-round windows over the `h_BT` depths of BT(G),
    /// then one `⌈Δ/k⌉`-round leaf window.
    pub fn algorithm2(k: &NetKnowledge, session: &Session) -> Self {
        let kk = session.channels as u64;
        let (wb, wl) = (
            (k.delta_b as u64).div_ceil(kk),
            (k.delta_l as u64).div_ceil(kk),
        );
        Self::with_windows(session, wb, k.bt_height, wl, false)
    }

    fn with_windows(session: &Session, wb: u64, depths: u32, wl: u64, algorithm1: bool) -> Self {
        let p2_start = session.offset + wb * depths as u64;
        Self {
            offset: session.offset,
            wb,
            wl,
            p2_start,
            end_round: (p2_start + wl).max(session.offset + 1),
            channels: session.channels,
            algorithm1,
        }
    }

    /// Round-within-window and channel for a TDM slot under `k` channels.
    pub(crate) fn map_slot(&self, slot: u32) -> (u64, Channel) {
        let k = self.channels as u64;
        (
            (slot as u64).div_ceil(k),
            ((slot as u64 - 1) % k) as Channel,
        )
    }

    /// Last round before depth `depth`'s phase-1 window.
    fn window_start(&self, depth: u32) -> u64 {
        self.offset + depth as u64 * self.wb
    }

    /// Absolute transmit round + channel for a phase-1 slot at `depth`.
    fn p1_tx(&self, depth: u32, slot: u32) -> (u64, Channel) {
        let (r, c) = self.map_slot(slot);
        (self.window_start(depth) + r, c)
    }

    /// Absolute transmit round + channel for a phase-2 slot.
    fn p2_tx(&self, slot: u32) -> (u64, Channel) {
        let (r, c) = self.map_slot(slot);
        (self.p2_start + r, c)
    }

    /// A receiver's action in round `pos` (1-based) of a window: at
    /// `k = 1` it listens through the window; at `k > 1` it tunes to the
    /// round and channel of its `expected` (guaranteed-clean) slot, or
    /// camps on channel 0 when none is known (only possible in
    /// paper-faithful setups).
    pub(crate) fn tuned_listen<M>(&self, pos: u64, expected: Option<u32>) -> Action<M> {
        if self.channels == 1 {
            return Action::listen();
        }
        match expected {
            Some(s) => {
                let (dr, ch) = self.map_slot(s);
                if pos == dr {
                    Action::Listen { channel: ch }
                } else {
                    Action::Sleep
                }
            }
            None => Action::Listen { channel: 0 },
        }
    }

    /// The round in which [`Self::tuned_listen`] next listens inside the
    /// window `start+1 ..= start+len`, if any (`next_wake` drops a round
    /// that is not after `now`).
    fn next_listen(
        &self,
        now: Round,
        start: u64,
        len: u64,
        expected: Option<u32>,
    ) -> Option<Round> {
        match expected.filter(|_| self.channels > 1) {
            Some(slot) => Some(start + self.map_slot(slot).0),
            None => Some((now + 1).max(start + 1)).filter(|&r| r <= start + len),
        }
    }
}

/// One round `r ≤ offset` of the source→root climb: a path node (position
/// `pos`, source = 0) listens until it holds the message, then relays it
/// once, in round `pos + 1`; everyone else sleeps.
pub(crate) fn uplink_step<M>(
    r: Round,
    pos: Option<u64>,
    received: bool,
    sent: &mut bool,
    msg: impl FnOnce(u32) -> M,
) -> Action<M> {
    if let Some(pos) = pos {
        if r == pos + 1 && received && !*sent {
            *sent = true;
            return Action::transmit(msg(pos as u32));
        }
        if r <= pos && !received {
            return Action::listen();
        }
    }
    Action::Sleep
}

/// Per-node state machine for Algorithm 1, Algorithm 2 and multicast.
#[derive(Debug, Clone)]
pub struct CffProgram {
    sched: CffSchedule,
    depth: u32,
    /// Receives in phase 1 (every node in Algorithm 1, backbone nodes in
    /// Algorithm 2); the others listen in the phase-2 window.
    in_phase1: bool,
    /// Phase-1 transmission slot (flood slot, or b-slot of a BT-internal
    /// node), if it transmits; only nodes with `in_phase1` carry one.
    p1_slot: Option<u32>,
    /// Phase-2 transmission slot (l-slot), if it transmits.
    p2_slot: Option<u32>,
    expected_p1: Option<u32>,
    expected_p2: Option<u32>,
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

impl CffProgram {
    /// Build node `u`'s program for a session run on `sched`, reading the
    /// Algorithm-1 slots of `flood` (which an Algorithm-1 schedule
    /// requires) or the Algorithm-2 slots of `k`, as the schedule
    /// dictates.
    pub fn new(
        k: &NetKnowledge,
        flood: Option<&FloodKnowledge>,
        session: &Session,
        sched: CffSchedule,
        u: NodeId,
        uplink_pos: Option<u64>,
        part: Participation,
    ) -> Self {
        let nk = k.of(u);
        let has_it = u == session.source || (nk.depth == 0 && session.offset == 0);
        let (in_phase1, p1_slot, expected_p1, p2_slot, expected_p2) = if sched.algorithm1 {
            let f = flood
                .expect("an Algorithm-1 schedule reads the flood part")
                .of(u);
            (true, f.flood_slot, f.expected_flood_slot, None, None)
        } else {
            (
                nk.status.in_backbone(),
                nk.b_slot.filter(|_| nk.bt_internal),
                nk.expected_b_slot,
                nk.l_slot.filter(|_| nk.cnet_internal),
                nk.expected_l_slot,
            )
        };
        Self {
            sched,
            depth: nk.depth,
            in_phase1,
            p1_slot,
            p2_slot,
            expected_p1,
            expected_p2,
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

    /// The phase-1 slot still owed, once the message is held.
    fn p1_due(&self) -> Option<u32> {
        self.p1_slot
            .filter(|_| self.part.tx && self.received && !self.p1_sent)
    }

    /// The phase-2 slot still owed, once the message is held.
    fn p2_due(&self) -> Option<u32> {
        self.p2_slot
            .filter(|_| self.part.tx && self.received && !self.p2_sent)
    }

    /// Whether this node still waits for the message in phase 1.
    fn p1_needy(&self) -> bool {
        self.in_phase1 && (self.part.rx || self.part.tx) && !self.received && self.depth >= 1
    }

    /// Whether this node still waits for the message in phase 2.
    fn p2_needy(&self) -> bool {
        !self.in_phase1 && self.part.rx && !self.received
    }
}

impl NodeProgram for CffProgram {
    type Msg = CffMsg;

    fn act(&mut self, ctx: &NodeCtx) -> Action<CffMsg> {
        let r = ctx.round;
        let s = self.sched;
        if r >= s.end_round {
            self.finished = true;
        }
        if self.part == Participation::NONE && self.uplink_pos.is_none() {
            return Action::Sleep;
        }
        if r <= s.offset {
            let (pos, received) = (self.uplink_pos, self.received);
            return uplink_step(r, pos, received, &mut self.uplink_sent, |hop| {
                CffMsg::Uplink { hop }
            });
        }

        // Phase 1: per-depth flood.
        if r <= s.p2_start {
            if let Some(slot) = self.p1_due() {
                let (tx, channel) = s.p1_tx(self.depth, slot);
                if r == tx {
                    self.p1_sent = true;
                    let depth = self.depth;
                    let msg = CffMsg::Flood { slot, depth };
                    return Action::Transmit { channel, msg };
                }
            }
            if self.p1_needy() {
                let start = s.window_start(self.depth - 1);
                if r > start && r <= start + s.wb {
                    return s.tuned_listen(r - start, self.expected_p1);
                }
            }
            return Action::Sleep;
        }

        // Phase 2: leaf delivery.
        if let Some(slot) = self.p2_due() {
            let (tx, channel) = s.p2_tx(slot);
            if r == tx {
                self.p2_sent = true;
                let msg = CffMsg::Leaf { slot };
                return Action::Transmit { channel, msg };
            }
        }
        if self.p2_needy() && r <= s.p2_start + s.wl {
            return s.tuned_listen(r - s.p2_start, self.expected_p2);
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
        let rx_ok = !self.part.rx || self.received;
        let tx_ok = !self.part.tx
            || ((self.p1_slot.is_none() || self.p1_sent)
                && (self.p2_slot.is_none() || self.p2_sent));
        // Non-root path nodes owe the uplink relay before they are done.
        let uplink_ok = match self.uplink_pos {
            Some(pos) if pos < self.sched.offset => self.uplink_sent,
            _ => true,
        };
        rx_ok && tx_ok && uplink_ok
    }

    /// The TDM schedule makes every awake round computable in advance,
    /// which is what lets the engine skip the long sleeps between a
    /// node's windows: per Lemma 1 and Theorem 1(2) a node is awake
    /// `O(Δ')` or `O(δ·k + Δ)` rounds, so a 100k-node run costs
    /// awake-work, not `n × rounds`. Every skipped round provably falls
    /// through `act()` to `Action::Sleep` without touching state:
    /// transmissions, window listens and the end-of-schedule `finished`
    /// flip are all enumerated below, and reception (the only other state
    /// change) can only happen in a listen round, after which the engine
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
        let mut cand = |r: Option<Round>| {
            if let Some(r) = r.filter(|&r| r > now) {
                w = w.min(r);
            }
        };
        // Source→root climb: listen every round until our path position,
        // relay one round after it.
        if let Some(pos) = self.uplink_pos {
            if !self.received && now < pos.min(s.offset) {
                cand(Some(now + 1));
            }
            if self.received && !self.uplink_sent && pos < s.offset {
                cand(Some(pos + 1));
            }
        }
        // Phase 1: own slot once the message is held; the depth-above
        // window (or just the expected slot's round, k > 1) until then.
        cand(self.p1_due().map(|slot| s.p1_tx(self.depth, slot).0));
        if self.p1_needy() {
            let start = s.window_start(self.depth - 1);
            cand(s.next_listen(now, start, s.wb, self.expected_p1));
        }
        // Phase 2: own l-slot / the shared leaf window.
        cand(self.p2_due().map(|slot| s.p2_tx(slot).0));
        if self.p2_needy() {
            cand(s.next_listen(now, s.p2_start, s.wl, self.expected_p2));
        }
        Some(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain_net;
    use crate::knowledge::{build_flood_knowledge, build_knowledge};
    use crate::runner::{run as run_req, Broadcast, Protocol, RunConfig};
    use dsnet_cluster::ClusterNet;
    use dsnet_radio::{Engine, EngineConfig, StopReason};

    /// Which of the paper's algorithms a test session runs.
    #[derive(Debug, Clone, Copy)]
    enum Alg {
        One,
        Two,
    }
    const BOTH: [Alg; 2] = [Alg::One, Alg::Two];

    /// Run a full-participation session of `alg`; returns
    /// (rounds, collisions, programs, per-node awake rounds).
    #[allow(clippy::type_complexity)]
    fn run(
        net: &ClusterNet,
        source: NodeId,
        channels: u8,
        alg: Alg,
    ) -> (u64, usize, Vec<Option<CffProgram>>, Vec<u64>) {
        let k = build_knowledge(net);
        let flood = build_flood_knowledge(net);
        let session = Session::new(&k, source, channels);
        let sched = match alg {
            Alg::One => CffSchedule::algorithm1(&k, &flood, &session),
            Alg::Two => CffSchedule::algorithm2(&k, &session),
        };
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
            |u| {
                let (pos, part) = (pos[u.index()], Participation::FULL);
                CffProgram::new(&k, Some(&flood), &session, sched, u, pos, part)
            },
        );
        let out = engine.run();
        assert_eq!(out.stop, StopReason::AllDone, "schedule ran past its end");
        let awake = net
            .tree()
            .nodes()
            .map(|u| engine.meter(u).awake_rounds())
            .collect();
        let collisions = engine.trace().collision_count();
        (out.rounds, collisions, engine.into_programs(), awake)
    }

    fn all_received(net: &ClusterNet, programs: &[Option<CffProgram>]) {
        for u in net.tree().nodes() {
            assert!(programs[u.index()].as_ref().unwrap().received, "{u}");
        }
    }

    /// Bushy net so Δ', δ and Δ exceed 1 and channels have something to
    /// divide: one head with many members, then two more clusters.
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
    fn floods_whole_chain_within_lemma1_and_theorem1() {
        let net = chain_net(14);
        let k = build_knowledge(&net);
        let flood = build_flood_knowledge(&net);
        let bounds = [
            // Lemma 1: Δ'·(h+1) rounds.
            flood.delta_flood.max(1) as u64 * (k.height as u64 + 1),
            // Theorem 1(1): δ·h + Δ rounds (with the tighter BT height).
            k.delta_b as u64 * k.bt_height as u64 + k.delta_l as u64,
        ];
        for (alg, bound) in BOTH.into_iter().zip(bounds) {
            let (rounds, collisions, programs, _) = run(&net, net.root(), 1, alg);
            assert_eq!(collisions, 0, "strict mode is collision-free");
            all_received(&net, &programs);
            assert!(rounds <= bound, "rounds {rounds} > bound {bound}");
        }
    }

    #[test]
    fn non_root_source_pays_uplink_then_floods() {
        let net = chain_net(10);
        let deep = net
            .tree()
            .nodes()
            .max_by_key(|&u| net.tree().depth(u))
            .unwrap();
        let k = build_knowledge(&net);
        let flood = build_flood_knowledge(&net);
        for alg in BOTH {
            let (rounds, collisions, programs, _) = run(&net, deep, 1, alg);
            assert_eq!(collisions, 0);
            all_received(&net, &programs);
            let offset = net.tree().depth(deep) as u64;
            assert!(rounds <= crate::analytic::cff_basic_bound(&k, &flood, offset, 1));
        }
    }

    #[test]
    fn awake_rounds_respect_lemma1_and_theorem1() {
        let net = chain_net(14);
        let k = build_knowledge(&net);
        let bounds = [
            // Lemma 1: 2Δ' (we are tighter: ≤ Δ' listening + 1 sending).
            crate::analytic::cff_basic_awake_bound(&build_flood_knowledge(&net)),
            // Theorem 1(2): 2δ + Δ.
            crate::analytic::improved_awake_bound(&k, 1),
        ];
        for (alg, bound) in BOTH.into_iter().zip(bounds) {
            let (_, _, _, awake) = run(&net, net.root(), 1, alg);
            let max = awake.into_iter().max().unwrap();
            assert!(max <= bound, "awake {max} > {bound}");
        }
    }

    #[test]
    fn two_node_network() {
        let net = chain_net(2);
        let (rounds, collisions, programs, _) = run(&net, NodeId(0), 1, Alg::One);
        assert_eq!(collisions, 0);
        assert!(programs[1].as_ref().unwrap().received);
        assert_eq!(rounds, 1); // root transmits at slot 1, member receives
    }

    #[test]
    fn singleton_network_terminates() {
        let net = chain_net(1);
        for alg in BOTH {
            let (rounds, _, programs, _) = run(&net, NodeId(0), 1, alg);
            assert!(programs[0].as_ref().unwrap().received);
            assert!(rounds <= 1);
        }
    }

    #[test]
    fn multichannel_delivers_and_is_never_slower() {
        let net = bushy();
        let k = build_knowledge(&net);
        let flood = build_flood_knowledge(&net);
        for alg in BOTH {
            let mut prev = u64::MAX;
            for channels in [1u8, 2, 4] {
                let (rounds, collisions, programs, _) = run(&net, net.root(), channels, alg);
                assert_eq!(collisions, 0, "k={channels}");
                all_received(&net, &programs);
                assert!(rounds <= prev, "k={channels}: {rounds} > {prev}");
                prev = rounds;
            }
        }
        for channels in [2u8, 4] {
            let cfg = RunConfig {
                channels,
                ..Default::default()
            };
            let out = run_req(&net, &Broadcast::new(Protocol::BasicCff, net.root()), &cfg);
            assert!(out.outcome.completed(), "k={channels}");
            let bound = crate::analytic::cff_basic_bound(&k, &flood, 0, channels);
            assert!(out.outcome.rounds <= bound);
        }
    }

    #[test]
    fn multichannel_algorithm1_works_on_deep_chains() {
        let net = chain_net(15);
        let (_, collisions, programs, _) = run(&net, net.root(), 3, Alg::One);
        assert_eq!(collisions, 0);
        all_received(&net, &programs);
    }

    #[test]
    fn non_participants_sleep_entirely() {
        let net = chain_net(8);
        let k = build_knowledge(&net);
        let session = Session::new(&k, net.root(), 1);
        let sched = CffSchedule::algorithm2(&k, &session);
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
                let pos = (u == net.root()).then_some(0);
                CffProgram::new(&k, None, &session, sched, u, pos, part)
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
        let (rounds, collisions, programs, _) = run(&net, net.root(), 1, Alg::Two);
        assert_eq!(collisions, 0);
        all_received(&net, &programs);
        assert!(rounds <= k.delta_l as u64);
    }
}
