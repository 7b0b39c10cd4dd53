//! The maintenance driver: keeps a live MCNet(G) valid while nodes move.
//!
//! Each epoch the driver (1) steps the trajectory model, (2) feeds the
//! position deltas to the [`TopologyDiffer`] and collects the minimal
//! edge-event stream, (3) marks both endpoints of every changed edge
//! *dirty*, and (4) repairs each dirty node whose recorded radio
//! neighbourhood no longer matches the geometric truth with the paper's
//! own primitives: one `node-move-out` (Algorithm `node-move-out`,
//! Section 5.2) followed by one `node-move-in` (Definition 1 /
//! Algorithm 3) under the node's current neighbours.
//!
//! The structure is therefore *always* a valid CNet(G) of the graph it
//! records — the paper's invariants are checked after every epoch — while
//! the recorded graph chases the geometric topology. Repairs that the
//! paper's operations refuse are deferred, not forced:
//!
//! * the **root** (sink) never moves out; an edge between the root and a
//!   mobile neighbour is repaired from the neighbour's side;
//! * a node that is momentarily a **cut vertex** of the recorded graph
//!   (`move_out` would disconnect it) stays put until motion opens an
//!   alternative path;
//! * a node with **no in-range neighbour** cannot re-attach and waits
//!   until it drifts back into contact.
//!
//! Determinism: dirty nodes are processed in ascending logical order and
//! every data structure iterates in a fixed order, so a run is a pure
//! function of the deployment, the model and its seed.
//!
//! # Cost model
//!
//! The epoch loop is **allocation-free in steady state**: every
//! per-epoch buffer (moved indices, move batch, edge events, repair
//! queue, neighbour scratch, per-node state snapshots) lives in a
//! reusable `EpochScratch` that grows to a high-water mark and is then
//! recycled. Invariant checking defaults to [`AuditMode::Dirty`]: the
//! driver hands [`DirtyAudit`] exactly the nodes whose recorded tuple
//! (status, parent, depth, slots) changed this epoch plus the surviving
//! endpoints of every recorded-graph edge it inserted or removed, and
//! the audit re-verifies Definition 1 and the Time-Slot Conditions only
//! over that set's closed neighbourhood instead of sweeping the whole
//! network. [`AuditMode::Full`] retains the global `check_core` oracle.
//! Where each epoch's time went is reported in
//! [`EpochRecord::timings`](crate::report::MaintenanceTimings).

use crate::differ::{EdgeEvent, TopologyDiffer};
use crate::model::MobilityModel;
use crate::report::{BroadcastSample, EpochRecord, MaintenanceTimings, MobilityReport};
use dsnet_cluster::invariants::{check_core, DirtyAudit};
use dsnet_cluster::{GroupId, McNet, MoveInReport, MoveOutError, NodeStatus};
use dsnet_geom::{Deployment, Point2};
use dsnet_graph::NodeId;
use dsnet_protocols::runner::{run, Broadcast, Protocol};
use dsnet_protocols::{KnowledgeCache, RunConfig};
use std::fmt;
use std::time::Instant;

/// Errors from building or running a [`MobileNetwork`].
#[derive(Debug, Clone, PartialEq)]
pub enum MobilityError {
    /// Arrival `index` hears no earlier node, so the initial structure
    /// cannot be grown (the deployment is not incrementally connected at
    /// the radio range).
    DisconnectedArrival(usize),
    /// The model's node count or field does not match the deployment.
    ModelMismatch(String),
    /// An invariant of the paper failed after an epoch (only produced
    /// when [`MobilityConfig::check_invariants`] is on).
    InvariantViolated {
        /// Epoch after which the check failed.
        epoch: u64,
        /// Human-readable violation detail.
        detail: String,
    },
}

impl fmt::Display for MobilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MobilityError::DisconnectedArrival(i) => {
                write!(f, "arrival {i} hears no earlier node at the radio range")
            }
            MobilityError::ModelMismatch(why) => write!(f, "model mismatch: {why}"),
            MobilityError::InvariantViolated { epoch, detail } => {
                write!(f, "invariant violated after epoch {epoch}: {detail}")
            }
        }
    }
}

impl std::error::Error for MobilityError {}

/// How per-epoch invariant checking scopes its work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuditMode {
    /// Re-verify only the dirty nodes' closed neighbourhoods with
    /// [`DirtyAudit`] (plus the cheap global checks it always runs).
    #[default]
    Dirty,
    /// Sweep the whole structure with the global `check_core` oracle,
    /// exactly as before the incremental audit existed.
    Full,
}

/// Knobs of a mobile run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MobilityConfig {
    /// Check the Definition-1 / Time-Slot-Condition invariant suite
    /// (plus relay-list consistency) after every epoch.
    pub check_invariants: bool,
    /// Sample a broadcast from the sink every this many epochs
    /// (0 = never).
    pub broadcast_every: u64,
    /// Channels (`k` of the paper's CFF schedule) the broadcast probe
    /// transmits on. Probe outcomes stay deterministic for any value;
    /// more channels trade schedule width for fewer rounds.
    pub probe_channels: u8,
    /// Scope of the per-epoch invariant check (ignored when
    /// `check_invariants` is off).
    pub audit: AuditMode,
}

impl Default for MobilityConfig {
    fn default() -> Self {
        Self {
            check_invariants: true,
            broadcast_every: 0,
            probe_channels: 1,
            audit: AuditMode::Dirty,
        }
    }
}

/// Recorded per-node facts the dirty audit keys invalidation on:
/// (status, parent, depth, b-slot, l-slot).
type NodeState = (NodeStatus, Option<NodeId>, u32, Option<u32>, Option<u32>);

/// Reusable per-epoch buffers; all grow to a high-water mark once and
/// are then recycled, so a steady-state epoch allocates nothing.
#[derive(Debug, Default)]
struct EpochScratch {
    /// Logical indices moved by the model this epoch.
    moved: Vec<usize>,
    /// The differ's move batch built from `moved`.
    moves: Vec<(usize, Point2)>,
    /// Net edge events of this epoch's motion.
    events: Vec<EdgeEvent>,
    /// Dirty logical nodes being repaired this epoch.
    queue: Vec<usize>,
    /// Nodes the repair pass deferred, pending the re-check.
    still_dirty: Vec<usize>,
    /// Geometric neighbour indices of one node.
    nbr: Vec<usize>,
    /// Desired (geometric) structure ids of one node, sorted.
    desired: Vec<NodeId>,
    /// Recorded structure ids of one node, sorted.
    actual: Vec<NodeId>,
    /// Structure ids handed to the dirty audit.
    dirty_ids: Vec<NodeId>,
    /// This epoch's per-node state, double-buffered with `prev_state`.
    cur_state: Vec<NodeState>,
}

/// A live MCNet(G) whose nodes move: trajectory model + topology differ +
/// structure maintenance, stepped one epoch at a time.
pub struct MobileNetwork {
    mc: McNet,
    differ: TopologyDiffer,
    model: Box<dyn MobilityModel>,
    /// Logical node (trajectory index) → current structure id. Move-outs
    /// tombstone ids, so a reconfigured node gets a fresh id each time.
    node_of: Vec<NodeId>,
    groups_of: Vec<Vec<GroupId>>,
    has_groups: bool,
    /// Logical nodes whose recorded neighbourhood may disagree with the
    /// geometric one (deferred repairs carry over between epochs).
    /// Sorted ascending, no duplicates.
    dirty: Vec<usize>,
    epoch: u64,
    build_reports: Vec<MoveInReport>,
    /// Per-logical-node recorded state at the end of the last epoch
    /// (initially: after the initial growth).
    prev_state: Vec<NodeState>,
    audit: DirtyAudit,
    knowledge: KnowledgeCache,
    scratch: EpochScratch,
}

impl fmt::Debug for MobileNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MobileNetwork")
            .field("nodes", &self.node_of.len())
            .field("epoch", &self.epoch)
            .field("dirty", &self.dirty.len())
            .finish()
    }
}

impl MobileNetwork {
    /// Grow the initial structure by replaying the deployment's arrival
    /// order (node `i` joins hearing the earlier in-range nodes), with no
    /// multicast group memberships.
    pub fn new(
        deployment: &Deployment,
        model: Box<dyn MobilityModel>,
    ) -> Result<Self, MobilityError> {
        Self::with_groups(deployment, model, Vec::new())
    }

    /// Like [`MobileNetwork::new`], with per-node multicast groups
    /// (`groups_of[i]` for logical node `i`; an empty vector means no
    /// memberships everywhere).
    pub fn with_groups(
        deployment: &Deployment,
        model: Box<dyn MobilityModel>,
        mut groups_of: Vec<Vec<GroupId>>,
    ) -> Result<Self, MobilityError> {
        let n = deployment.positions.len();
        if model.positions().len() != n {
            return Err(MobilityError::ModelMismatch(format!(
                "model tracks {} nodes, deployment has {n}",
                model.positions().len()
            )));
        }
        if model.positions() != &deployment.positions[..] {
            return Err(MobilityError::ModelMismatch(
                "model must start from the deployment's positions".into(),
            ));
        }
        let region = deployment.config.region;
        if model.region() != region {
            return Err(MobilityError::ModelMismatch(
                "model region differs from the deployment field".into(),
            ));
        }
        if groups_of.is_empty() {
            groups_of = vec![Vec::new(); n];
        }
        assert_eq!(groups_of.len(), n, "one group list per node");

        let range = deployment.config.range;
        let differ = TopologyDiffer::new(region, range, &deployment.positions);
        let mut mc = McNet::with_defaults();
        let mut node_of = Vec::with_capacity(n);
        let mut build_reports = Vec::with_capacity(n);
        for (i, groups) in groups_of.iter().enumerate() {
            let earlier: Vec<NodeId> = differ
                .neighbors_within(i)
                .into_iter()
                .filter(|&j| j < i)
                .map(|j| node_of[j])
                .collect();
            if i > 0 && earlier.is_empty() {
                return Err(MobilityError::DisconnectedArrival(i));
            }
            let rep = mc
                .move_in(&earlier, groups)
                .expect("replayed arrival hears only live nodes");
            node_of.push(rep.node);
            build_reports.push(rep);
        }
        let has_groups = groups_of.iter().any(|g| !g.is_empty());
        let mut net = Self {
            mc,
            differ,
            model,
            node_of,
            groups_of,
            has_groups,
            dirty: Vec::new(),
            epoch: 0,
            build_reports,
            prev_state: Vec::new(),
            audit: DirtyAudit::default(),
            knowledge: KnowledgeCache::new(),
            scratch: EpochScratch::default(),
        };
        let mut initial = Vec::new();
        net.capture_state_into(&mut initial);
        net.prev_state = initial;
        Ok(net)
    }

    // ----- accessors ------------------------------------------------------

    /// The live multicast structure.
    pub fn mc(&self) -> &McNet {
        &self.mc
    }

    /// The underlying cluster structure.
    pub fn net(&self) -> &dsnet_cluster::ClusterNet {
        self.mc.net()
    }

    /// Current structure id of logical node `u`.
    pub fn node_of(&self, u: usize) -> NodeId {
        self.node_of[u]
    }

    /// Number of (logical) nodes.
    pub fn len(&self) -> usize {
        self.node_of.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.node_of.is_empty()
    }

    /// Epochs stepped so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Current geometric positions, by logical node.
    pub fn positions(&self) -> &[Point2] {
        self.differ.positions()
    }

    /// Logical nodes whose repair is currently deferred, ascending.
    pub fn deferred(&self) -> Vec<usize> {
        self.dirty.clone()
    }

    /// Move-in reports of the initial growth (one per arrival).
    pub fn build_reports(&self) -> &[MoveInReport] {
        &self.build_reports
    }

    /// Lifetime `(hits, misses, patched)` of the broadcast-probe
    /// knowledge cache; `patched` is the subset of misses served by the
    /// dirty-scoped patch path.
    pub fn knowledge_stats(&self) -> (u64, u64, u64) {
        self.knowledge.stats()
    }

    /// Current positions indexed by **structure id** (`NodeId::index`),
    /// sized to the graph's id capacity; tombstoned ids hold their last
    /// owner's position and are never read by live-node consumers.
    pub fn positions_by_node_id(&self) -> Vec<Point2> {
        let mut out = vec![Point2::ORIGIN; self.mc.net().graph().capacity()];
        for (u, &id) in self.node_of.iter().enumerate() {
            out[id.index()] = self.differ.position(u);
        }
        out
    }

    /// Tear down into the structure and its id-indexed positions.
    pub fn into_parts(self) -> (McNet, Vec<Point2>) {
        let positions = self.positions_by_node_id();
        (self.mc, positions)
    }

    // ----- the epoch loop -------------------------------------------------

    /// Advance one epoch: move, diff, repair, measure.
    pub fn step(&mut self, cfg: &MobilityConfig) -> Result<EpochRecord, MobilityError> {
        let mut s = std::mem::take(&mut self.scratch);
        let mut timings = MaintenanceTimings::default();

        // (1) motion and (2) minimal edge events.
        let t_diff = Instant::now();
        self.model.step_into(&mut s.moved);
        s.moves.clear();
        for &i in &s.moved {
            s.moves.push((i, self.model.positions()[i]));
        }
        self.differ.apply_into(&s.moves, &mut s.events);
        let (mut appeared, mut disappeared) = (0usize, 0usize);
        for ev in &s.events {
            if ev.up {
                appeared += 1;
            } else {
                disappeared += 1;
            }
            self.dirty.push(ev.a);
            self.dirty.push(ev.b);
        }
        self.dirty.sort_unstable();
        self.dirty.dedup();
        timings.diff_ns = t_diff.elapsed().as_nanos() as u64;

        // (3) repair pass over the dirty set, ascending logical order. A
        // reconfiguration of `u` re-records *all* of `u`'s edges, so it
        // also cleans the shared edge of any other dirty node. Structure
        // ids whose recorded edges change are marked for the dirty audit
        // as the repairs happen.
        let t_repair = Instant::now();
        s.dirty_ids.clear();
        std::mem::swap(&mut self.dirty, &mut s.queue);
        self.dirty.clear();
        let root_logical = 0usize;
        let mut reconfigs = 0usize;
        let mut rehomed = 0usize;
        let mut move_out_rounds = 0u64;
        let mut move_in_rounds = 0u64;
        s.still_dirty.clear();
        for k in 0..s.queue.len() {
            let u = s.queue[k];
            if u == root_logical {
                // The sink never moves out; its edges are repaired from
                // the other endpoint. Re-checked below.
                s.still_dirty.push(u);
                continue;
            }
            self.desired_into(u, &mut s.nbr, &mut s.desired);
            self.actual_into(u, &mut s.actual);
            if s.desired == s.actual {
                continue; // a peer's reconfiguration already fixed it
            }
            if s.desired.is_empty() {
                s.still_dirty.push(u); // isolated: nothing to re-attach to
                continue;
            }
            let out = match self.mc.move_out(self.node_of[u]) {
                Err(MoveOutError::WouldDisconnect(_)) => {
                    s.still_dirty.push(u); // momentarily a cut vertex
                    continue;
                }
                other => other.expect("a dirty non-root node is attached"),
            };
            // Surviving endpoints of the removed (old recorded) and
            // inserted (new desired) edges — the audit's dirty set.
            s.dirty_ids.extend_from_slice(&s.actual);
            s.dirty_ids.extend_from_slice(&s.desired);
            move_out_rounds += out.cost.total();
            rehomed += out.rehomed.len();
            s.dirty_ids.extend_from_slice(&out.rehomed);
            // `desired` ids are still valid: re-homing preserves ids and
            // only `u`'s own id was tombstoned.
            let rep = self
                .mc
                .move_in(&s.desired, &self.groups_of[u])
                .expect("desired neighbours are live attached nodes");
            move_in_rounds += rep.cost.total();
            self.node_of[u] = rep.node;
            s.dirty_ids.push(rep.node);
            reconfigs += 1;
        }
        // Keep only the nodes that are genuinely still stale (a later
        // peer's reconfiguration may have cleaned an earlier deferral).
        // Deferred nodes leave the recorded graph untouched, so they add
        // nothing to the audit's dirty set.
        for k in 0..s.still_dirty.len() {
            let u = s.still_dirty[k];
            self.desired_into(u, &mut s.nbr, &mut s.desired);
            self.actual_into(u, &mut s.actual);
            if s.desired != s.actual {
                self.dirty.push(u);
            }
        }
        s.queue.clear();
        let deferred = self.dirty.len();
        timings.repair_ns = t_repair.elapsed().as_nanos() as u64;

        self.epoch += 1;

        // (4a) slot churn + recorded-tuple diff. Any node whose recorded
        // (status, parent, depth, slots) tuple changed — including slot
        // rewrites far from the reconfigured nodes — joins the audit's
        // dirty set.
        let t_slots = Instant::now();
        self.capture_state_into(&mut s.cur_state);
        let mut slot_churn = 0usize;
        for u in 0..self.node_of.len() {
            let prev = self.prev_state[u];
            let cur = s.cur_state[u];
            if (prev.3, prev.4) != (cur.3, cur.4) {
                slot_churn += 1;
            }
            if prev != cur {
                s.dirty_ids.push(self.node_of[u]);
            }
        }
        std::mem::swap(&mut self.prev_state, &mut s.cur_state);
        timings.slots_ns = t_slots.elapsed().as_nanos() as u64;

        // (4b) invariant checks, scoped per the configured audit mode.
        let t_audit = Instant::now();
        if cfg.check_invariants {
            match cfg.audit {
                AuditMode::Full => {
                    timings.full_audits = 1;
                    timings.audit_scope = self.mc.net().len();
                    if let Err(violations) = check_core(self.mc.net()) {
                        return Err(MobilityError::InvariantViolated {
                            epoch: self.epoch - 1,
                            detail: format!("{violations:?}"),
                        });
                    }
                    if let Err(detail) = self.mc.check_relay_consistency() {
                        return Err(MobilityError::InvariantViolated {
                            epoch: self.epoch - 1,
                            detail,
                        });
                    }
                }
                AuditMode::Dirty => {
                    match self.audit.audit(self.mc.net(), &s.dirty_ids) {
                        Ok(scope) => timings.audit_scope = scope,
                        Err(violations) => {
                            return Err(MobilityError::InvariantViolated {
                                epoch: self.epoch - 1,
                                detail: format!("{violations:?}"),
                            });
                        }
                    }
                    // Relay lists only exist under multicast groups;
                    // skip the structure-wide sweep without them.
                    if self.has_groups {
                        if let Err(detail) = self.mc.check_relay_consistency() {
                            return Err(MobilityError::InvariantViolated {
                                epoch: self.epoch - 1,
                                detail,
                            });
                        }
                    }
                }
            }
        }
        timings.audit_ns = t_audit.elapsed().as_nanos() as u64;

        let broadcast = if cfg.broadcast_every > 0 && self.epoch.is_multiple_of(cfg.broadcast_every)
        {
            let before = self.knowledge.full_stats();
            let t_probe = Instant::now();
            let k = self.knowledge.get(self.mc.net());
            // The probe measures protocol rounds, not the trace artifact,
            // so tracing stays off: outcome counters are identical either
            // way and the probe wall isolates knowledge + engine cost.
            let probe_cfg = RunConfig {
                channels: cfg.probe_channels,
                record_trace: false,
                ..RunConfig::default()
            };
            let req = Broadcast {
                knowledge: Some(&k),
                ..Broadcast::new(Protocol::ImprovedCff, self.mc.net().root())
            };
            let outcome = run(&self.mc, &req, &probe_cfg).outcome;
            timings.probe_ns = t_probe.elapsed().as_nanos() as u64;
            let after = self.knowledge.full_stats();
            timings.cache_hits = after.hits - before.hits;
            timings.cache_misses = after.misses - before.misses;
            timings.knowledge_patches = after.patched - before.patched;
            timings.knowledge_scope = after.patched_scope - before.patched_scope;
            timings.knowledge_fallbacks = after.fallbacks - before.fallbacks;
            Some(BroadcastSample {
                rounds: outcome.rounds as usize,
                delivered: outcome.delivered,
                targets: outcome.targets,
            })
        } else {
            None
        };

        let net = self.mc.net();
        let (heads, gateways, _) = net.status_counts();
        let record = EpochRecord {
            epoch: self.epoch - 1,
            moved: s.moves.len(),
            edges_appeared: appeared,
            edges_disappeared: disappeared,
            reconfigs,
            rehomed,
            deferred,
            move_out_rounds,
            move_in_rounds,
            slot_churn,
            backbone: heads + gateways,
            height: net.height() as usize,
            delta_b: net.delta_b() as usize,
            delta_l: net.delta_l() as usize,
            broadcast,
            timings,
        };
        self.scratch = s;
        Ok(record)
    }

    /// Run `epochs` epochs and collect the full time series.
    pub fn run(
        &mut self,
        epochs: u64,
        cfg: &MobilityConfig,
    ) -> Result<MobilityReport, MobilityError> {
        let mut report = MobilityReport::default();
        for _ in 0..epochs {
            report.epochs.push(self.step(cfg)?);
        }
        Ok(report)
    }

    // ----- helpers --------------------------------------------------------

    /// Structure ids geometrically in range of logical node `u`, sorted.
    #[cfg(test)]
    fn desired_neighbors(&self, u: usize) -> Vec<NodeId> {
        let mut nbr = Vec::new();
        let mut out = Vec::new();
        self.desired_into(u, &mut nbr, &mut out);
        out
    }

    /// Structure ids the recorded graph links to logical node `u`, sorted.
    #[cfg(test)]
    fn actual_neighbors(&self, u: usize) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.actual_into(u, &mut out);
        out
    }

    /// Allocation-free [`MobileNetwork::desired_neighbors`], via caller
    /// scratch (`tmp` holds the geometric indices).
    fn desired_into(&self, u: usize, tmp: &mut Vec<usize>, out: &mut Vec<NodeId>) {
        self.differ.neighbors_within_into(u, tmp);
        out.clear();
        out.extend(tmp.iter().map(|&j| self.node_of[j]));
        out.sort_unstable();
    }

    /// Allocation-free [`MobileNetwork::actual_neighbors`].
    fn actual_into(&self, u: usize, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend_from_slice(self.mc.net().graph().neighbors(self.node_of[u]));
        out.sort_unstable();
    }

    /// Write each logical node's recorded (status, parent, depth, b, l)
    /// tuple into `out`, clearing it first.
    fn capture_state_into(&self, out: &mut Vec<NodeState>) {
        out.clear();
        let net = self.mc.net();
        let tree = net.tree();
        let slots = net.slots();
        for &id in &self.node_of {
            out.push((
                net.status(id),
                tree.parent(id),
                tree.depth(id),
                slots.b(id),
                slots.l(id),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{RandomWaypoint, WaypointParams};
    use dsnet_geom::{Deployment, DeploymentConfig};

    fn deploy(n: usize, seed: u64) -> Deployment {
        Deployment::generate(DeploymentConfig::paper_field(6.0, n, seed))
    }

    fn waypoint_net(n: usize, seed: u64) -> MobileNetwork {
        let d = deploy(n, seed);
        let model = RandomWaypoint::new(
            d.positions.clone(),
            d.config.region,
            WaypointParams::default(),
            seed ^ 0xABCD,
        );
        MobileNetwork::new(&d, Box::new(model)).unwrap()
    }

    #[test]
    fn initial_structure_matches_deployment() {
        let net = waypoint_net(60, 5);
        assert_eq!(net.len(), 60);
        assert_eq!(net.net().len(), 60);
        check_core(net.net()).unwrap();
        assert!(net.deferred().is_empty());
        // Recorded graph matches the geometric graph exactly at epoch 0.
        for u in 0..net.len() {
            let desired = net.desired_neighbors(u);
            let actual = net.actual_neighbors(u);
            assert_eq!(desired, actual, "node {u} starts stale");
        }
    }

    #[test]
    fn epochs_are_deterministic() {
        let mut a = waypoint_net(50, 8);
        let mut b = waypoint_net(50, 8);
        let cfg = MobilityConfig::default();
        for _ in 0..30 {
            assert_eq!(a.step(&cfg).unwrap(), b.step(&cfg).unwrap());
        }
        assert_eq!(a.positions(), b.positions());
        assert_eq!(a.node_of, b.node_of);
    }

    #[test]
    fn invariants_hold_throughout_motion() {
        let mut net = waypoint_net(70, 3);
        let cfg = MobilityConfig {
            check_invariants: true,
            broadcast_every: 10,
            ..MobilityConfig::default()
        };
        let report = net.run(60, &cfg).unwrap();
        assert_eq!(report.epochs.len(), 60);
        assert!(report.total_reconfigs() > 0, "motion caused no maintenance");
        for sample in report.broadcast_samples() {
            assert!(sample.targets > 0);
        }
    }

    #[test]
    fn dirty_audit_agrees_with_full_oracle_epoch_by_epoch() {
        // Two identical runs, one audited incrementally and one with the
        // global oracle: both must accept every epoch, and every counter
        // except the audit-bookkeeping itself must agree.
        let mut dirty = waypoint_net(60, 11);
        let mut full = waypoint_net(60, 11);
        let dirty_cfg = MobilityConfig::default();
        let full_cfg = MobilityConfig {
            audit: AuditMode::Full,
            ..MobilityConfig::default()
        };
        for _ in 0..40 {
            let a = dirty.step(&dirty_cfg).unwrap();
            let b = full.step(&full_cfg).unwrap();
            assert_eq!(a.timings.full_audits, 0);
            assert_eq!(b.timings.full_audits, 1);
            assert!(
                a.timings.audit_scope <= b.timings.audit_scope,
                "dirty scope {} exceeds the full sweep {}",
                a.timings.audit_scope,
                b.timings.audit_scope
            );
            let mut a_cmp = a;
            a_cmp.timings = b.timings;
            assert_eq!(a_cmp, b, "audit mode changed simulation state");
        }
        assert_eq!(dirty.node_of, full.node_of);
    }

    #[test]
    fn broadcast_probes_drive_the_knowledge_cache() {
        let mut net = waypoint_net(50, 17);
        let cfg = MobilityConfig {
            broadcast_every: 5,
            ..MobilityConfig::default()
        };
        let report = net.run(40, &cfg).unwrap();
        let totals = report.summed_timings();
        let (hits, misses, patched) = net.knowledge_stats();
        assert_eq!(totals.cache_hits, hits);
        assert_eq!(totals.cache_misses, misses);
        assert_eq!(totals.knowledge_patches, patched);
        assert_eq!(hits + misses, report.broadcast_samples().len() as u64);
        assert!(misses >= 1, "first probe must build knowledge");
        assert!(patched <= misses, "patches are a subset of misses");
    }

    #[test]
    fn probes_under_churn_take_the_patch_path() {
        // Probing every epoch under motion: after the first full build,
        // stale snapshots should be patched, not rebuilt, and each probe
        // must deliver exactly what a from-scratch snapshot delivers
        // (the patched==rebuilt equality is pinned crate-side; here we
        // check the counters actually engage through the driver).
        let mut net = waypoint_net(60, 23);
        let cfg = MobilityConfig {
            broadcast_every: 1,
            ..MobilityConfig::default()
        };
        let report = net.run(30, &cfg).unwrap();
        let totals = report.summed_timings();
        assert!(
            totals.knowledge_patches >= 1,
            "churned probes never patched: {totals:?}"
        );
        assert!(totals.knowledge_scope >= totals.knowledge_patches);
        for sample in report.broadcast_samples() {
            assert_eq!(sample.delivered, sample.targets, "probe lost nodes");
        }
    }

    #[test]
    fn structure_tracks_geometry_when_not_deferred() {
        let mut net = waypoint_net(60, 14);
        let cfg = MobilityConfig::default();
        for _ in 0..40 {
            net.step(&cfg).unwrap();
            let deferred = net.deferred();
            for u in 0..net.len() {
                if deferred.contains(&u) || u == 0 {
                    continue;
                }
                // Every non-deferred, non-root node's recorded edges can
                // only disagree with geometry via an edge shared with a
                // deferred node or the root.
                let desired = net.desired_neighbors(u);
                let actual = net.actual_neighbors(u);
                let blamable: Vec<NodeId> = deferred
                    .iter()
                    .map(|&v| net.node_of(v))
                    .chain(std::iter::once(net.node_of(0)))
                    .collect();
                for id in desired.iter().filter(|id| !actual.contains(id)) {
                    assert!(blamable.contains(id), "unexplained missing edge at {u}");
                }
                for id in actual.iter().filter(|id| !desired.contains(id)) {
                    assert!(blamable.contains(id), "unexplained stale edge at {u}");
                }
            }
        }
    }

    #[test]
    fn groups_survive_reconfiguration() {
        let d = deploy(40, 21);
        let groups: Vec<Vec<GroupId>> = (0..40).map(|i| vec![(i % 3) as GroupId]).collect();
        let model = RandomWaypoint::new(
            d.positions.clone(),
            d.config.region,
            WaypointParams::default(),
            99,
        );
        let mut net = MobileNetwork::with_groups(&d, Box::new(model), groups).unwrap();
        let cfg = MobilityConfig::default();
        let report = net.run(30, &cfg).unwrap();
        assert!(report.total_reconfigs() > 0);
        for u in 0..net.len() {
            assert_eq!(
                net.mc().group_list(net.node_of(u)),
                &[(u % 3) as GroupId],
                "node {u} lost its groups"
            );
        }
        net.mc().check_relay_consistency().unwrap();
    }

    #[test]
    fn mismatched_model_is_rejected() {
        let d = deploy(10, 2);
        let model = RandomWaypoint::new(
            d.positions[..5].to_vec(),
            d.config.region,
            WaypointParams::default(),
            1,
        );
        assert!(matches!(
            MobileNetwork::new(&d, Box::new(model)),
            Err(MobilityError::ModelMismatch(_))
        ));
    }
}
