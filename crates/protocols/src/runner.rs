//! The one entry point of every protocol execution.
//!
//! [`run`] takes a [`Broadcast`] request — protocol, source, an optional
//! multicast group, optional prebuilt knowledge — snapshots the knowledge
//! of the structure if none was given (the flood part only for the
//! protocols that read it), instantiates the per-node
//! programs, executes them on the radio engine (optionally under a
//! failure plan) and condenses the run into a [`BroadcastOutcome`] — the
//! unit every bench and figure in the evaluation is built from.

use crate::cff::{CffProgram, CffSchedule, Participation};
use crate::dfo::DfoProgram;
use crate::knowledge::{
    build_flood_knowledge, build_knowledge, build_session_knowledge_from, FloodKnowledge,
    NetKnowledge, Session,
};
use crate::reliable::ReliableCffProgram;
use crate::{analytic, multicast};
use dsnet_cluster::{ClusterNet, GroupId, McNet, NodeStatus};
use dsnet_graph::NodeId;
use dsnet_radio::{
    EnergyReport, Engine, EngineConfig, FailurePlan, LossModel, NodeProgram, ShardPlan, StopReason,
    Trace, TraceEvent,
};
use std::borrow::Cow;
use std::sync::Arc;

/// Options shared by all protocol runs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Radio channels `k ≥ 1`.
    pub channels: u8,
    /// Fail-stop / outage schedule (empty by default).
    pub failures: FailurePlan,
    /// Per-link Bernoulli loss (lossless by default).
    pub loss: LossModel,
    /// Retry budget for the reliable flood ([`Protocol::ReliableCff`]
    /// only).
    pub max_retries: u32,
    /// Record the event trace (needed for collision counts and
    /// [`BroadcastOutcome::coverage`]). On by default; turn off for large
    /// sweeps that don't read either.
    pub record_trace: bool,
    /// Spatial cell partition for sharded delivery resolution (see
    /// `SensorNetwork::shard_plan`). `None` = one implicit cell. The
    /// partition is invisible in every output — traces, meters and
    /// counters are byte-identical with or without it.
    pub shards: Option<Arc<ShardPlan>>,
    /// Worker threads for intra-run parallel delivery (`> 1` resolves
    /// the shard cells concurrently; outputs stay byte-identical).
    pub threads: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            channels: 1,
            failures: FailurePlan::new(),
            loss: LossModel::none(),
            max_retries: 2,
            record_trace: true,
            shards: None,
            threads: 1,
        }
    }
}

/// Coverage-over-time quantiles extracted from the delivery trace:
/// the first round by which 50% / 90% / all of the targets held the
/// message (the source counts as covered at round 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    /// First round by which ≥ 50% of the targets were covered.
    pub t50: Option<u64>,
    /// First round by which ≥ 90% of the targets were covered.
    pub t90: Option<u64>,
    /// Round the last target was covered; `None` unless all were.
    pub t_full: Option<u64>,
}

/// Condensed result of one protocol execution.
#[derive(Debug, Clone)]
pub struct BroadcastOutcome {
    /// Rounds until the engine stopped (completion or schedule end).
    pub rounds: u64,
    /// Why the engine stopped.
    pub stop: StopReason,
    /// Targets that actually received the message.
    pub delivered: usize,
    /// Number of intended receivers.
    pub targets: usize,
    /// Targets still alive when the run ended (a node in a fail-stop
    /// plan or an open outage window at the final round is dead; a node
    /// whose outage ended is alive).
    pub targets_alive: usize,
    /// Delivered targets among [`Self::targets_alive`].
    pub delivered_alive: usize,
    /// Energy over every node that carried a program.
    pub energy: EnergyReport,
    /// Receiver-side collision events; `None` when the run was executed
    /// with `record_trace: false` and the count is unknowable.
    pub collisions: Option<usize>,
    /// Coverage-over-time quantiles; `None` without a trace.
    pub coverage: Option<Coverage>,
    /// The analytic round bound for this protocol and network.
    pub bound: u64,
}

impl BroadcastOutcome {
    /// Fraction of **all** targets that received the message — dead ones
    /// count against the protocol. The honest headline number.
    pub fn delivery_ratio(&self) -> f64 {
        if self.targets == 0 {
            1.0
        } else {
            self.delivered as f64 / self.targets as f64
        }
    }

    /// Fraction of the targets *alive at the end of the run* that
    /// received the message — the protocol's performance on the nodes it
    /// could possibly have served. Always ≥ [`Self::delivery_ratio`].
    pub fn delivery_ratio_alive(&self) -> f64 {
        if self.targets_alive == 0 {
            1.0
        } else {
            self.delivered_alive as f64 / self.targets_alive as f64
        }
    }

    /// Whether every target received the message.
    pub fn completed(&self) -> bool {
        self.delivered == self.targets
    }

    /// The paper's Figure-9 metric: rounds the worst-off node stayed awake.
    pub fn max_awake(&self) -> u64 {
        self.energy.max_awake
    }
}

/// Extract [`Coverage`] from a run's trace. `None` if tracing was off.
fn coverage_from_trace(trace: &Trace, source: NodeId, targets: &[NodeId]) -> Option<Coverage> {
    if !trace.is_enabled() {
        return None;
    }
    let mut first = std::collections::BTreeMap::new();
    first.insert(source, 0u64);
    for ev in trace.events() {
        if let TraceEvent::Deliver { round, to, .. } = *ev {
            first.entry(to).or_insert(round);
        }
    }
    let mut times: Vec<u64> = targets
        .iter()
        .filter_map(|u| first.get(u).copied())
        .collect();
    times.sort_unstable();
    let n = targets.len();
    let quantile = |num: usize, den: usize| {
        if n == 0 {
            return Some(0);
        }
        times.get(((n * num).div_ceil(den)).max(1) - 1).copied()
    };
    Some(Coverage {
        t50: quantile(1, 2),
        t90: quantile(9, 10),
        t_full: if times.len() == n {
            times.last().copied().or(Some(0))
        } else {
            None
        },
    })
}

/// Uplink positions: `pos[u] = j` when `u` is the `j`-th node on the
/// source→root path (source = 0).
fn uplink_positions(net: &ClusterNet, source: NodeId) -> Vec<Option<u64>> {
    let mut pos = vec![None; net.graph().capacity()];
    for (j, &u) in net.tree().path_to_root(source).iter().enumerate() {
        pos[u.index()] = Some(j as u64);
    }
    pos
}

/// Shared tail of every protocol arm of [`run`]: bind programs to the
/// graph, execute under the configured failures/loss, then condense
/// outcome, delivery bitmap and trace. The trace comes back by value
/// (via `Engine::into_parts`), so returning it costs no clone.
#[allow(clippy::too_many_arguments)] // internal plumbing, one call site per protocol
fn drive<P: NodeProgram + Send>(
    net: &ClusterNet,
    source: NodeId,
    cfg: &RunConfig,
    max_rounds: u64,
    bound: u64,
    targets: &[NodeId],
    make: impl FnMut(NodeId) -> P,
    received_flag: impl Fn(&P) -> bool,
) -> Run
where
    P::Msg: Send + Sync,
{
    let config = EngineConfig {
        channels: cfg.channels,
        max_rounds,
        record_trace: cfg.record_trace,
    };
    let mut engine = Engine::new(net.graph(), config, make);
    engine.set_failures(cfg.failures.clone());
    engine.set_loss(cfg.loss);
    if let Some(plan) = &cfg.shards {
        engine.set_shards(Arc::clone(plan), cfg.threads);
    }
    let out = engine.run();
    let collisions = engine.trace().try_collision_count();
    let energy = engine.energy_report();
    let coverage = coverage_from_trace(engine.trace(), source, targets);
    let (trace, programs) = engine.into_parts();
    let received: Vec<bool> = (0..net.graph().capacity())
        .map(|i| programs[i].as_ref().is_some_and(&received_flag))
        .collect();
    // Split delivery by the alive-at-end denominator.
    let delivered = targets.iter().filter(|&&u| received[u.index()]).count();
    let mut targets_alive = 0;
    let mut delivered_alive = 0;
    for &u in targets {
        if cfg.failures.node_dead(u, out.rounds + 1) {
            continue;
        }
        targets_alive += 1;
        if received[u.index()] {
            delivered_alive += 1;
        }
    }
    let outcome = BroadcastOutcome {
        rounds: out.rounds,
        stop: out.stop,
        delivered,
        targets: targets.len(),
        targets_alive,
        delivered_alive,
        energy,
        collisions,
        coverage,
        bound,
    };
    Run {
        outcome,
        received,
        trace,
    }
}

/// Which broadcast protocol to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Depth-first-order Eulerian-tour baseline of \[19\].
    Dfo,
    /// Algorithm 1: collision-free flooding over the whole CNet(G).
    BasicCff,
    /// Algorithm 2: the paper's improved two-phase CFF (default choice).
    ImprovedCff,
    /// Algorithm 1 hardened with bounded-retry NACK/retransmit epochs for
    /// lossy channels.
    ReliableCff,
}

impl Protocol {
    /// Whether the protocol reads Algorithm 1's [`FloodKnowledge`] part;
    /// the others read the base snapshot only.
    pub fn reads_flood(self) -> bool {
        matches!(self, Protocol::BasicCff | Protocol::ReliableCff)
    }
}

/// How a multicast session picks its time-slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MulticastSlots {
    /// The paper's multicast: Algorithm 2 over the broadcast slots, with
    /// the transmitter set pruned by MCNet's relay lists (see
    /// [`crate::multicast`] for the delivery caveat this leaves).
    RelayPruned,
    /// Session slots: the initiator re-assigns time-slots over the
    /// participating transmitter set (see
    /// `dsnet_cluster::slots::session`), so Time-Slot Condition 2 holds
    /// for the pruned session and delivery is guaranteed. Sessions have
    /// fewer transmitters, so their `δ`/`Δ` (hence the windows) are
    /// usually smaller than the broadcast ones.
    Session,
}

/// One protocol execution request.
#[derive(Debug, Clone, Copy)]
pub struct Broadcast<'k> {
    /// The protocol.
    pub protocol: Protocol,
    /// The initiating node.
    pub source: NodeId,
    /// Restrict delivery to one MCNet group, with the session's slot
    /// mode (valid with [`Protocol::ImprovedCff`] over an [`McNet`]
    /// only). `None` = broadcast to every node.
    pub multicast: Option<(GroupId, MulticastSlots)>,
    /// A prebuilt knowledge snapshot of the same structure (e.g. served
    /// by a [`crate::knowledge::KnowledgeCache`]). `None` = build one
    /// from scratch for this run.
    pub knowledge: Option<&'k NetKnowledge>,
    /// A prebuilt flood part of the same structure, read only when
    /// [`Protocol::reads_flood`]. `None` = build one from scratch if the
    /// protocol reads it.
    pub flood: Option<&'k FloodKnowledge>,
}

impl Broadcast<'_> {
    /// A `protocol` broadcast from `source` over freshly built knowledge.
    pub fn new(protocol: Protocol, source: NodeId) -> Self {
        Self {
            protocol,
            source,
            multicast: None,
            knowledge: None,
            flood: None,
        }
    }

    /// An Algorithm 2 multicast to `group` from `source` over freshly
    /// built knowledge.
    pub fn multicast(source: NodeId, group: GroupId, slots: MulticastSlots) -> Self {
        Self {
            multicast: Some((group, slots)),
            ..Self::new(Protocol::ImprovedCff, source)
        }
    }
}

/// Everything one execution produced.
#[derive(Debug, Clone)]
pub struct Run {
    /// The condensed outcome.
    pub outcome: BroadcastOutcome,
    /// Per-node delivery bitmap, indexed by node id.
    pub received: Vec<bool>,
    /// The event trace (disabled unless `RunConfig::record_trace`),
    /// carrying diagnostic warnings such as the benign k=1 leaf-window
    /// collision note.
    pub trace: Trace,
}

/// The structure a [`Broadcast`] runs over: a bare CNet, or an MCNet
/// whose groups a multicast can address.
pub trait Structure {
    /// The cluster structure.
    fn cnet(&self) -> &ClusterNet;
    /// The multicast overlay, if this structure has one.
    fn mcnet(&self) -> Option<&McNet>;
}

impl Structure for ClusterNet {
    fn cnet(&self) -> &ClusterNet {
        self
    }
    fn mcnet(&self) -> Option<&McNet> {
        None
    }
}

impl Structure for McNet {
    fn cnet(&self) -> &ClusterNet {
        self.net()
    }
    fn mcnet(&self) -> Option<&McNet> {
        Some(self)
    }
}

/// Execute one broadcast or multicast on the radio engine and condense
/// it — the single entry point every bench, figure, session and campaign
/// trial goes through.
pub fn run(net: &impl Structure, req: &Broadcast<'_>, cfg: &RunConfig) -> Run {
    let (mc, net) = (net.mcnet(), net.cnet());
    let k = req
        .knowledge
        .map_or_else(|| Cow::Owned(build_knowledge(net)), Cow::Borrowed);
    let k: &NetKnowledge = &k;
    let flood = || {
        req.flood
            .map_or_else(|| Cow::Owned(build_flood_knowledge(net)), Cow::Borrowed)
    };
    let source = req.source;
    assert!(
        req.multicast.is_none() || req.protocol == Protocol::ImprovedCff,
        "multicast runs Algorithm 2 only"
    );
    let pos = uplink_positions(net, source);
    let all = || net.tree().nodes().collect::<Vec<NodeId>>();
    match req.protocol {
        Protocol::Dfo => {
            let bound = analytic::dfo_rounds(
                k.backbone_size,
                k.of(source).status == NodeStatus::PureMember,
            );
            drive(
                net,
                source,
                cfg,
                bound + 8,
                bound,
                &all(),
                |u| DfoProgram::new(net, u, source),
                |p| p.received,
            )
        }
        Protocol::BasicCff => {
            let flood = flood();
            let session = Session::new(k, source, cfg.channels);
            let sched = CffSchedule::algorithm1(k, &flood, &session);
            let bound = analytic::cff_basic_bound(k, &flood, session.offset, cfg.channels);
            drive(
                net,
                source,
                cfg,
                bound + 4,
                bound,
                &all(),
                |u| {
                    let (pos, part) = (pos[u.index()], Participation::FULL);
                    CffProgram::new(k, Some(&flood), &session, sched, u, pos, part)
                },
                |p| p.received,
            )
        }
        Protocol::ReliableCff => {
            let flood = flood();
            let session = Session::new(k, source, cfg.channels);
            let sched = CffSchedule::algorithm1(k, &flood, &session);
            let (retries, channels) = (cfg.max_retries, cfg.channels);
            let bound = analytic::cff_reliable_bound(k, &flood, session.offset, channels, retries);
            drive(
                net,
                source,
                cfg,
                bound + 4,
                bound,
                &all(),
                |u| ReliableCffProgram::new(k, &flood, &session, sched, u, pos[u.index()], retries),
                |p| p.received,
            )
        }
        Protocol::ImprovedCff => match req.multicast {
            None => drive_improved(net, k, source, cfg, &pos, |_| Participation::FULL, &all()),
            Some((group, slots)) => {
                let mc = mc.expect("a multicast needs an McNet");
                let table = multicast::participation_table(mc, group);
                let targets = multicast::targets(mc, group);
                let part = |u: NodeId| table[u.index()];
                match slots {
                    MulticastSlots::RelayPruned => {
                        drive_improved(net, k, source, cfg, &pos, part, &targets)
                    }
                    MulticastSlots::Session => {
                        let tx = |u: NodeId| table[u.index()].tx;
                        let rx = |u: NodeId| table[u.index()].rx;
                        let slots = dsnet_cluster::slots::session::assign_session_slots(
                            &net.view(),
                            net.mode(),
                            &tx,
                            &rx,
                        );
                        let k = build_session_knowledge_from(net, k, &slots, &tx);
                        drive_improved(net, &k, source, cfg, &pos, part, &targets)
                    }
                }
            }
        },
    }
}

/// [`run`] of Algorithm 2 over a prebuilt knowledge snapshot of `net`,
/// returning the outcome only.
pub fn run_improved_with(
    net: &ClusterNet,
    k: &NetKnowledge,
    source: NodeId,
    cfg: &RunConfig,
) -> BroadcastOutcome {
    let req = Broadcast {
        knowledge: Some(k),
        ..Broadcast::new(Protocol::ImprovedCff, source)
    };
    run(net, &req, cfg).outcome
}

fn drive_improved(
    net: &ClusterNet,
    k: &NetKnowledge,
    source: NodeId,
    cfg: &RunConfig,
    pos: &[Option<u64>],
    part: impl Fn(NodeId) -> Participation,
    targets: &[NodeId],
) -> Run {
    let session = Session::new(k, source, cfg.channels);
    let sched = CffSchedule::algorithm2(k, &session);
    let bound = analytic::improved_bound(k, session.offset, cfg.channels);
    let mut run = drive(
        net,
        source,
        cfg,
        sched.end_round + 4,
        bound,
        targets,
        |u| CffProgram::new(k, None, &session, sched, u, pos[u.index()], part(u)),
        |p| p.received,
    );
    // The documented k=1 contract (see `tests/protocol_properties.rs`):
    // leaves listening through the shared phase-2 window legally observe
    // collisions at duplicated slots they are not assigned to. That is a
    // diagnostic fact, not a fault — it travels on the trace instead of
    // stderr, so quiet runs stay quiet.
    if cfg.channels == 1 {
        if let Some(c) = run.outcome.collisions.filter(|&c| c > 0) {
            run.trace.warn(format!(
                "improved CFF on k=1 observed {c} benign leaf-window \
                 collision(s): leaves listen through the whole shared \
                 phase-2 window and may hear collisions at duplicated \
                 slots they are not assigned to; each leaf's designated \
                 slot stays clean (Time-Slot Condition 2)"
            ));
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsnet_cluster::ClusterNet;

    fn go(net: &ClusterNet, p: Protocol, source: NodeId, cfg: &RunConfig) -> BroadcastOutcome {
        run(net, &Broadcast::new(p, source), cfg).outcome
    }

    fn multicast(mc: &McNet, group: GroupId, cfg: &RunConfig) -> BroadcastOutcome {
        let req = Broadcast::multicast(mc.net().root(), group, MulticastSlots::RelayPruned);
        run(mc, &req, cfg).outcome
    }

    fn chain_net(n: u32) -> ClusterNet {
        let mut net = ClusterNet::with_defaults();
        net.move_in(&[]).unwrap();
        for i in 1..n {
            let mut nbrs = vec![NodeId(i - 1)];
            if i >= 2 {
                nbrs.push(NodeId(i - 2));
            }
            net.move_in(&nbrs).unwrap();
        }
        net
    }

    #[test]
    fn all_three_protocols_cover_the_network() {
        let net = chain_net(20);
        let cfg = RunConfig::default();
        for out in [
            go(&net, Protocol::Dfo, net.root(), &cfg),
            go(&net, Protocol::BasicCff, net.root(), &cfg),
            go(&net, Protocol::ImprovedCff, net.root(), &cfg),
        ] {
            // Time-Slot Condition 2 guarantees delivery (every receiver has
            // at least one clean slot); stray collision events at duplicated
            // slots are legal and harmless.
            assert!(
                out.completed(),
                "delivery {}/{}",
                out.delivered,
                out.targets
            );
            assert!(
                out.rounds <= out.bound + 2,
                "rounds {} bound {}",
                out.rounds,
                out.bound
            );
        }
    }

    #[test]
    fn improved_beats_dfo_on_rounds_and_awake() {
        let net = chain_net(40);
        let cfg = RunConfig::default();
        let dfo = go(&net, Protocol::Dfo, net.root(), &cfg);
        let cff2 = go(&net, Protocol::ImprovedCff, net.root(), &cfg);
        assert!(
            cff2.rounds < dfo.rounds,
            "cff2 {} !< dfo {}",
            cff2.rounds,
            dfo.rounds
        );
        assert!(
            cff2.max_awake() < dfo.max_awake(),
            "cff2 awake {} !< dfo awake {}",
            cff2.max_awake(),
            dfo.max_awake()
        );
    }

    #[test]
    fn failure_stalls_dfo_but_not_improved() {
        // A topology with genuine redundancy: two parallel gateway/head
        // branches under the root, and node 5 in range of both heads.
        //   0 (head) — members 1, 2 → promoted to gateways for heads 3, 4;
        //   5 = member of head 3 but also hears head 4; 6 = member of 4.
        let mut net = ClusterNet::with_defaults();
        net.move_in(&[]).unwrap(); // 0
        net.move_in(&[NodeId(0)]).unwrap(); // 1 member
        net.move_in(&[NodeId(0)]).unwrap(); // 2 member
        net.move_in(&[NodeId(1)]).unwrap(); // 3 head (1 → gateway)
        net.move_in(&[NodeId(2)]).unwrap(); // 4 head (2 → gateway)
        net.move_in(&[NodeId(3), NodeId(4)]).unwrap(); // 5 member of 3, hears 4
        net.move_in(&[NodeId(4)]).unwrap(); // 6 member of 4
        let victim = NodeId(3);
        assert!(net.status(victim).in_backbone());

        let mut cfg = RunConfig::default();
        cfg.failures.kill_node(victim, 1);

        let dfo = go(&net, Protocol::Dfo, net.root(), &cfg);
        assert!(!dfo.completed(), "DFO must stall on a dead token holder");

        let cff2 = go(&net, Protocol::ImprovedCff, net.root(), &cfg);
        // Flooding routes around the dead head: everyone else receives.
        assert_eq!(
            cff2.delivered,
            cff2.targets - 1,
            "{}/{}",
            cff2.delivered,
            cff2.targets
        );
        assert!(cff2.delivered > dfo.delivered);
    }

    #[test]
    fn multicast_reaches_group_and_spares_others() {
        let mut mc = McNet::with_defaults();
        mc.move_in(&[], &[]).unwrap();
        for i in 1..25u32 {
            let mut nbrs = vec![NodeId(i - 1)];
            if i >= 2 {
                nbrs.push(NodeId(i - 2));
            }
            let groups: &[GroupId] = if i % 5 == 0 { &[1] } else { &[] };
            mc.move_in(&nbrs, groups).unwrap();
        }
        let cfg = RunConfig::default();
        let out = multicast(&mc, 1, &cfg);
        assert!(out.targets > 0);
        assert!(
            out.completed(),
            "multicast delivery {}/{}",
            out.delivered,
            out.targets
        );
        // An empty group costs nothing and completes instantly.
        let empty = multicast(&mc, 99, &cfg);
        assert_eq!(empty.targets, 0);
        assert_eq!(empty.delivery_ratio(), 1.0);
    }

    #[test]
    fn multichannel_improved_still_covers() {
        let net = chain_net(25);
        let cfg = RunConfig {
            channels: 2,
            ..Default::default()
        };
        let out = go(&net, Protocol::ImprovedCff, net.root(), &cfg);
        assert!(out.completed());
        let cfg1 = RunConfig::default();
        let base = go(&net, Protocol::ImprovedCff, net.root(), &cfg1);
        assert!(out.rounds <= base.rounds);
    }

    #[test]
    fn reliable_cff_beats_basic_under_loss() {
        let net = chain_net(30);
        let mut losses_help = 0;
        for seed in 0..5u64 {
            let cfg = RunConfig {
                loss: dsnet_radio::LossModel::from_probability(0.15, seed),
                max_retries: 3,
                ..Default::default()
            };
            let basic = go(&net, Protocol::BasicCff, net.root(), &cfg);
            let reliable = go(&net, Protocol::ReliableCff, net.root(), &cfg);
            assert!(
                reliable.delivered >= basic.delivered,
                "seed {seed}: reliable {} < basic {}",
                reliable.delivered,
                basic.delivered
            );
            if reliable.delivered > basic.delivered {
                losses_help += 1;
            }
        }
        assert!(losses_help > 0, "retries never helped across 5 seeds");
    }

    #[test]
    fn reliable_cff_lossless_matches_basic_delivery() {
        let net = chain_net(15);
        let cfg = RunConfig::default();
        let out = go(&net, Protocol::ReliableCff, net.root(), &cfg);
        assert!(out.completed());
        assert_eq!(out.delivery_ratio(), 1.0);
        assert_eq!(out.delivery_ratio_alive(), 1.0);
    }

    #[test]
    fn alive_denominator_excludes_the_dead() {
        // Chain-with-shortcuts: killing one node leaves the rest reachable.
        let net = chain_net(12);
        let mut cfg = RunConfig::default();
        cfg.failures.kill_node(NodeId(5), 1);
        let out = go(&net, Protocol::BasicCff, net.root(), &cfg);
        assert_eq!(out.targets, 12);
        assert_eq!(out.targets_alive, 11);
        assert!(!out.completed(), "the dead node cannot receive");
        assert_eq!(out.delivered_alive, 11, "survivors are all covered");
        assert!(out.delivery_ratio() < out.delivery_ratio_alive());
        assert_eq!(out.delivery_ratio_alive(), 1.0);
    }

    #[test]
    fn coverage_quantiles_are_ordered_and_complete() {
        let net = chain_net(20);
        let out = go(&net, Protocol::BasicCff, net.root(), &RunConfig::default());
        let cov = out.coverage.expect("trace was on");
        let (t50, t90, t_full) = (cov.t50.unwrap(), cov.t90.unwrap(), cov.t_full.unwrap());
        assert!(t50 <= t90 && t90 <= t_full);
        assert!(t_full <= out.rounds);
        // Without a trace there is no coverage.
        let cfg = RunConfig {
            record_trace: false,
            ..Default::default()
        };
        assert!(go(&net, Protocol::BasicCff, net.root(), &cfg)
            .coverage
            .is_none());
    }

    #[test]
    fn incomplete_runs_have_no_t_full() {
        let net = chain_net(10);
        let mut cfg = RunConfig::default();
        cfg.failures.kill_node(NodeId(4), 1);
        let out = go(&net, Protocol::BasicCff, net.root(), &cfg);
        assert!(!out.completed());
        assert!(out.coverage.unwrap().t_full.is_none());
    }

    #[test]
    fn member_source_works_everywhere() {
        let net = chain_net(18);
        let member = net
            .tree()
            .nodes()
            .find(|&u| net.status(u) == NodeStatus::PureMember);
        if let Some(m) = member {
            let cfg = RunConfig::default();
            assert!(go(&net, Protocol::Dfo, m, &cfg).completed());
            assert!(go(&net, Protocol::BasicCff, m, &cfg).completed());
            assert!(go(&net, Protocol::ImprovedCff, m, &cfg).completed());
        }
    }
}
