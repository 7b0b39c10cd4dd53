//! Bounded-retry reliable CFF: Algorithm 1 with per-hop NACK/retransmit.
//!
//! Plain CFF transmits each message exactly once per internal node, so a
//! single lost packet silences an entire subtree for the rest of the
//! broadcast. This variant repeats the flood schedule in *epochs* and
//! lets receivers complain:
//!
//! * Each epoch contains the usual per-depth TDM windows, but every
//!   depth-`i` window is followed by a same-length **feedback window**.
//!   A depth-`i+1` node that listened through the data window and heard
//!   nothing transmits a NACK in the feedback window, in the round (and
//!   channel) derived from its *expected* slot — which is exactly where
//!   its guaranteed-collision-free transmitter listens, so the complaint
//!   lands precisely at the node that can fix it.
//! * An internal node that has transmitted keeps listening in its own
//!   feedback slot (one round per epoch); a heard NACK schedules a
//!   retransmission in the next epoch, up to `max_retries` retries.
//! * Two needy siblings share the same feedback slot and would collide
//!   at their transmitter *deterministically* every epoch — in this
//!   radio model a collision is indistinguishable from silence, so naive
//!   NACKing livelocks. Each node therefore NACKs in its first needy
//!   epoch and afterwards only in epochs where a per-`(node, epoch)`
//!   hash bit allows it, breaking the symmetry without any randomness
//!   at run time.
//!
//! With `R = max_retries`, the schedule spans `offset + (1+R)·2⌈Δ'/k⌉·h`
//! rounds (see `analytic::cff_reliable_bound`); a lost packet at depth
//! `d` costs one epoch per affected hop to heal, so delivery degrades
//! gracefully — never below plain CFF in expectation, falling back to it
//! exactly when `max_retries = 0` loses every feedback window... which
//! still costs the idle feedback rounds: reliability is paid for in
//! schedule length, which is the honest trade-off.

use crate::cff::{uplink_step, CffSchedule};
use crate::knowledge::{FloodKnowledge, NetKnowledge, Session};
use dsnet_geom::rng::splitmix64;
use dsnet_graph::NodeId;
use dsnet_radio::{Action, NodeCtx, NodeProgram, Round};

/// Over-the-air packet of the reliable flood.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field names mirror the paper's package fields
pub enum RcffMsg {
    /// Source-to-root climb (identical to plain CFF).
    Uplink { hop: u32 },
    /// The flood proper, tagged with its epoch.
    Flood { slot: u32, depth: u32, epoch: u32 },
    /// "I listened through your window and heard nothing."
    Nack { depth: u32, epoch: u32 },
}

/// Per-node state machine for the bounded-retry reliable flood.
#[derive(Debug, Clone)]
pub struct ReliableCffProgram {
    id: NodeId,
    /// Algorithm 1's schedule: climb, `⌈Δ'/k⌉`-round windows, slot map.
    sched: CffSchedule,
    depth: u32,
    flood_slot: Option<u32>,
    expected_slot: Option<u32>,
    /// Data + feedback windows for every depth: `2·⌈Δ'/k⌉·h` rounds.
    epoch_len: u64,
    /// `1 + max_retries` epochs in total.
    epochs: u64,
    /// Position on the source→root path (`0` = source). `None` off-path.
    uplink_pos: Option<u64>,
    /// Holds the broadcast message.
    pub received: bool,
    /// Round of first reception (0 for the source).
    pub received_round: Option<Round>,
    uplink_sent: bool,
    /// Should transmit in this epoch's data window.
    tx_due: bool,
    has_transmitted: bool,
    nack_heard: bool,
    /// Epoch in which this node first found itself needy (always NACKs
    /// there; later epochs are gated by the backoff bit).
    first_needy_epoch: Option<u64>,
    /// Last epoch whose boundary bookkeeping already ran.
    seen_epoch: Option<u64>,
    finished: bool,
    end_round: u64,
}

impl ReliableCffProgram {
    /// Build the reliable-flood program for node `u` of a session run on
    /// `sched`, the session's [`CffSchedule::algorithm1`] schedule.
    pub fn new(
        k: &NetKnowledge,
        flood: &FloodKnowledge,
        session: &Session,
        sched: CffSchedule,
        u: NodeId,
        uplink_pos: Option<u64>,
        max_retries: u32,
    ) -> Self {
        let depth = k.of(u).depth;
        let f = flood.of(u);
        let epoch_len = 2 * sched.wb * k.height as u64;
        let epochs = 1 + max_retries as u64;
        let has = u == session.source || (depth == 0 && session.offset == 0);
        Self {
            id: u,
            sched,
            depth,
            flood_slot: f.flood_slot,
            expected_slot: f.expected_flood_slot,
            epoch_len,
            epochs,
            uplink_pos,
            received: has,
            received_round: has.then_some(0),
            uplink_sent: false,
            tx_due: has && f.flood_slot.is_some(),
            has_transmitted: false,
            nack_heard: false,
            first_needy_epoch: None,
            seen_epoch: None,
            finished: false,
            end_round: (session.offset + epochs * epoch_len).max(1),
        }
    }

    /// Epoch-boundary bookkeeping: resolve last epoch's feedback.
    fn enter_epoch(&mut self, e: u64) {
        if self.seen_epoch == Some(e) {
            return;
        }
        self.seen_epoch = Some(e);
        if self.has_transmitted {
            self.tx_due = self.nack_heard;
            self.nack_heard = false;
        }
    }

    /// Whether a needy node may NACK in epoch `e` (symmetry breaking).
    fn may_nack(&mut self, e: u64) -> bool {
        match self.first_needy_epoch {
            None => {
                self.first_needy_epoch = Some(e);
                true
            }
            Some(first) if first == e => true,
            // Send with probability 3/4: enough asymmetry that colliding
            // siblings separate within a few epochs, cheap enough that a
            // lone frontier node rarely wastes a retry epoch.
            _ => splitmix64(((self.id.0 as u64) << 32) ^ e) & 3 != 3,
        }
    }
}

impl NodeProgram for ReliableCffProgram {
    type Msg = RcffMsg;

    fn act(&mut self, ctx: &NodeCtx) -> Action<RcffMsg> {
        let r = ctx.round;
        let s = self.sched;
        if r >= self.end_round {
            self.finished = true;
        }
        if r <= s.offset {
            let (pos, received) = (self.uplink_pos, self.received);
            return uplink_step(r, pos, received, &mut self.uplink_sent, |hop| {
                RcffMsg::Uplink { hop }
            });
        }
        if self.epoch_len == 0 {
            return Action::Sleep;
        }
        // Position within the epoch grid.
        let t = r - s.offset - 1;
        let e = t / self.epoch_len;
        if e >= self.epochs {
            return Action::Sleep;
        }
        self.enter_epoch(e);
        let w = t % self.epoch_len;
        let win = w / s.wb; // 2i = data window of depth i, 2i+1 = its feedback
        let pos = w % s.wb + 1; // 1-based round within the half-window
        let win_depth = (win / 2) as u32;
        let is_data = win.is_multiple_of(2);

        if self.received {
            let Some(slot) = self.flood_slot else {
                return Action::Sleep; // leaf: reception was its whole job
            };
            let (my_round, my_ch) = s.map_slot(slot);
            if win_depth == self.depth && pos == my_round {
                if is_data && self.tx_due {
                    self.tx_due = false;
                    self.has_transmitted = true;
                    self.nack_heard = false;
                    return Action::Transmit {
                        channel: my_ch,
                        msg: RcffMsg::Flood {
                            slot,
                            depth: self.depth,
                            epoch: e as u32,
                        },
                    };
                }
                if !is_data && self.has_transmitted {
                    // One round per epoch spent waiting for complaints.
                    return Action::Listen { channel: my_ch };
                }
            }
            return Action::Sleep;
        }
        // Needy: listen through the parent depth's data window, complain
        // in its feedback window — in the round and channel of the
        // expected data slot, exactly where its transmitter listens. A
        // root without the message has no parent window.
        if self.depth == 0 || win_depth != self.depth - 1 {
            return Action::Sleep;
        }
        if is_data {
            return s.tuned_listen(pos, self.expected_slot);
        }
        let (nr, nch) = s.map_slot(self.expected_slot.unwrap_or(1));
        if pos == nr && self.may_nack(e) {
            return Action::Transmit {
                channel: nch,
                msg: RcffMsg::Nack {
                    depth: self.depth,
                    epoch: e as u32,
                },
            };
        }
        Action::Sleep
    }

    fn on_receive(&mut self, ctx: &NodeCtx, _from: NodeId, msg: &RcffMsg) {
        match msg {
            RcffMsg::Uplink { .. } | RcffMsg::Flood { .. } => {
                if !self.received {
                    self.received = true;
                    self.received_round = Some(ctx.round);
                    self.tx_due = self.flood_slot.is_some();
                }
            }
            RcffMsg::Nack { .. } => {
                if self.received && self.has_transmitted {
                    self.nack_heard = true;
                }
            }
        }
    }

    fn done(&self) -> bool {
        if self.finished {
            return true;
        }
        if !self.received {
            return false;
        }
        match self.flood_slot {
            None => true,
            Some(_) => self.has_transmitted && !self.tx_due && !self.nack_heard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::cff_reliable_bound;
    use crate::chain_net;
    use crate::knowledge::{build_flood_knowledge, build_knowledge};
    use dsnet_cluster::ClusterNet;
    use dsnet_radio::{Engine, EngineConfig, FailurePlan, LossModel, StopReason};

    fn run(
        net: &ClusterNet,
        source: NodeId,
        retries: u32,
        loss: LossModel,
        failures: FailurePlan,
    ) -> (u64, StopReason, Vec<Option<ReliableCffProgram>>) {
        let k = build_knowledge(net);
        let flood = build_flood_knowledge(net);
        let session = Session::new(&k, source, 1);
        let sched = CffSchedule::algorithm1(&k, &flood, &session);
        let path = net.tree().path_to_root(source);
        let mut pos = vec![None; net.graph().capacity()];
        for (j, &u) in path.iter().enumerate() {
            pos[u.index()] = Some(j as u64);
        }
        let mut engine = Engine::new(
            net.graph(),
            EngineConfig {
                max_rounds: cff_reliable_bound(&k, &flood, session.offset, 1, retries) + 4,
                record_trace: true,
                ..Default::default()
            },
            |u| ReliableCffProgram::new(&k, &flood, &session, sched, u, pos[u.index()], retries),
        );
        engine.set_loss(loss);
        engine.set_failures(failures);
        let out = engine.run();
        (out.rounds, out.stop, engine.into_programs())
    }

    fn delivered(net: &ClusterNet, programs: &[Option<ReliableCffProgram>]) -> usize {
        net.tree()
            .nodes()
            .filter(|&u| programs[u.index()].as_ref().is_some_and(|p| p.received))
            .count()
    }

    #[test]
    fn lossless_run_matches_plain_cff_behaviour() {
        let net = chain_net(12);
        let (rounds, stop, programs) =
            run(&net, net.root(), 2, LossModel::none(), FailurePlan::new());
        assert_eq!(stop, StopReason::AllDone);
        assert_eq!(delivered(&net, &programs), 12);
        // One epoch suffices without loss; the run must not pay for the
        // retry epochs it never needed.
        let (k, flood) = (build_knowledge(&net), build_flood_knowledge(&net));
        assert!(rounds <= cff_reliable_bound(&k, &flood, 0, 1, 0) + 1);
    }

    #[test]
    fn retries_recover_what_loss_destroyed() {
        // Heavy but not total loss: plain CFF (0 retries) must miss nodes
        // on a long chain; retries must strictly improve coverage.
        let net = chain_net(20);
        let loss = LossModel::from_probability(0.30, 77);
        let (_r0, _s0, p0) = run(&net, net.root(), 0, loss, FailurePlan::new());
        // A broken hop costs two epochs to heal (NACK epoch + retransmit
        // epoch), and both the NACK and the retransmission face the same
        // 0.30 loss — recovery at this rate needs a real retry budget.
        let (_r8, _s8, p8) = run(&net, net.root(), 8, loss, FailurePlan::new());
        let d0 = delivered(&net, &p0);
        let d8 = delivered(&net, &p8);
        assert!(d0 < 20, "0.30 loss on 19 hops should drop someone: {d0}");
        assert!(d8 > d0, "retries must help: {d8} !> {d0}");
    }

    #[test]
    fn full_recovery_with_enough_retries_under_mild_loss() {
        let net = chain_net(10);
        let loss = LossModel::from_probability(0.15, 5);
        let (_r, stop, programs) = run(&net, net.root(), 6, loss, FailurePlan::new());
        assert_eq!(delivered(&net, &programs), 10, "stop={stop:?}");
    }

    #[test]
    fn runs_are_deterministic() {
        let net = chain_net(15);
        let loss = LossModel::from_probability(0.25, 123);
        let (r1, _s1, p1) = run(&net, net.root(), 3, loss, FailurePlan::new());
        let (r2, _s2, p2) = run(&net, net.root(), 3, loss, FailurePlan::new());
        assert_eq!(r1, r2);
        let rounds = |ps: &[Option<ReliableCffProgram>]| {
            ps.iter()
                .map(|p| p.as_ref().and_then(|p| p.received_round))
                .collect::<Vec<_>>()
        };
        assert_eq!(rounds(&p1), rounds(&p2));
    }

    #[test]
    fn dead_subtree_does_not_stall_termination() {
        let net = chain_net(8);
        let mut failures = FailurePlan::new();
        failures.kill_node(NodeId(4), 1); // cuts the chain
        let (rounds, stop, programs) = run(&net, net.root(), 2, LossModel::none(), failures);
        // The schedule elapses (all programs flip `finished`) instead of
        // spinning to the engine's hard round limit.
        assert_ne!(stop, StopReason::RoundLimit);
        let d = delivered(&net, &programs);
        assert!((4..8).contains(&d), "{d}");
        let (k, flood) = (build_knowledge(&net), build_flood_knowledge(&net));
        assert!(rounds <= cff_reliable_bound(&k, &flood, 0, 1, 2) + 4);
    }

    #[test]
    fn non_root_source_climbs_first() {
        let net = chain_net(9);
        let deep = net
            .tree()
            .nodes()
            .max_by_key(|&u| net.tree().depth(u))
            .unwrap();
        let (_rounds, stop, programs) = run(&net, deep, 1, LossModel::none(), FailurePlan::new());
        assert_eq!(stop, StopReason::AllDone);
        assert_eq!(delivered(&net, &programs), 9);
    }

    #[test]
    fn multichannel_reliable_covers() {
        let net = chain_net(14);
        let (k, flood) = (build_knowledge(&net), build_flood_knowledge(&net));
        let session = Session::new(&k, net.root(), 2);
        let sched = CffSchedule::algorithm1(&k, &flood, &session);
        let mut engine = Engine::new(
            net.graph(),
            EngineConfig {
                channels: 2,
                max_rounds: cff_reliable_bound(&k, &flood, 0, 2, 2) + 4,
                record_trace: true,
            },
            |u| {
                let pos = (u == net.root()).then_some(0);
                ReliableCffProgram::new(&k, &flood, &session, sched, u, pos, 2)
            },
        );
        let out = engine.run();
        assert_eq!(out.stop, StopReason::AllDone);
        let programs = engine.into_programs();
        assert_eq!(delivered(&net, &programs), 14);
    }

    #[test]
    fn singleton_terminates() {
        let net = chain_net(1);
        let (rounds, _stop, programs) =
            run(&net, net.root(), 3, LossModel::none(), FailurePlan::new());
        assert_eq!(delivered(&net, &programs), 1);
        assert!(rounds <= 1);
    }
}
