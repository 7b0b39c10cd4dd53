//! The high-level [`SensorNetwork`] facade.

use dsnet_cluster::invariants;
use dsnet_cluster::move_out::{MoveOutError, MoveOutReport};
use dsnet_cluster::net::MoveInError;
use dsnet_cluster::repair::{RepairConfig, RepairError, RepairReport};
use dsnet_cluster::{ClusterNet, GroupId, McNet, MoveInReport};
use dsnet_geom::{Deployment, Point2};
use dsnet_graph::{degree, NodeId};
use dsnet_protocols::knowledge::{KnowledgeCache, NetKnowledge};
use dsnet_protocols::runner::{self, Broadcast, BroadcastOutcome, MulticastSlots, Protocol};
use dsnet_protocols::runner::{Run, RunConfig};
use std::sync::Arc;

/// Structural summary of a built network (the quantities plotted in
/// Figures 10 and 11).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkStats {
    /// Attached nodes.
    pub nodes: usize,
    /// Radio links.
    pub edges: usize,
    /// Cluster heads (= clusters).
    pub heads: usize,
    /// Gateways.
    pub gateways: usize,
    /// Pure members.
    pub members: usize,
    /// |BT(G)|.
    pub backbone_size: usize,
    /// Height of BT(G).
    pub backbone_height: u32,
    /// Height of CNet(G).
    pub cnet_height: u32,
    /// `D`: max degree of G.
    pub max_degree: usize,
    /// `d`: max degree of G(V_BT).
    pub backbone_max_degree: usize,
    /// `δ`: largest b-time-slot.
    pub delta_b: u32,
    /// `Δ`: largest l-time-slot.
    pub delta_l: u32,
}

/// A deployed, structured, runnable sensor network.
#[derive(Debug, Clone)]
pub struct SensorNetwork {
    deployment: Deployment,
    /// Positions by node id; ids past the original deployment come from
    /// later joins. Entries for departed nodes linger harmlessly.
    positions: Vec<Point2>,
    mc: McNet,
    build_reports: Vec<MoveInReport>,
    /// Version-keyed knowledge snapshot shared by every protocol run over
    /// an unchanged structure; invalidated automatically (by structure
    /// version) whenever churn, repair or mobility mutates the CNet.
    knowledge: KnowledgeCache,
}

impl SensorNetwork {
    /// Adopt a built structure. `positions` are the nodes' current
    /// coordinates by id: the deployment's own for a fresh build, the
    /// post-motion ones for a structure maintained through motion.
    pub(crate) fn from_parts(
        deployment: Deployment,
        positions: Vec<Point2>,
        mc: McNet,
        build_reports: Vec<MoveInReport>,
    ) -> Self {
        Self {
            deployment,
            positions,
            mc,
            build_reports,
            knowledge: KnowledgeCache::new(),
        }
    }

    // ----- structure access -------------------------------------------------

    /// The cluster structure.
    pub fn net(&self) -> &ClusterNet {
        self.mc.net()
    }

    /// The multicast overlay (groups + relay lists).
    pub fn mcnet(&self) -> &McNet {
        &self.mc
    }

    /// The geometric deployment this network was built from.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Current number of attached nodes.
    pub fn len(&self) -> usize {
        self.net().len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sink (root of CNet(G)).
    pub fn sink(&self) -> NodeId {
        self.net().root()
    }

    /// Physical position of a node.
    pub fn position(&self, u: NodeId) -> Point2 {
        self.positions[u.index()]
    }

    /// Per-node move-in reports from the initial build (Theorem 2 data).
    pub fn build_reports(&self) -> &[MoveInReport] {
        &self.build_reports
    }

    /// The version of the current cluster structure. Every mutation path
    /// (churn, repair, mobility maintenance) bumps it — the PR 4
    /// pessimistic-bump contract — so equal versions imply identical
    /// structure.
    pub fn structure_version(&self) -> u64 {
        self.net().structure_version()
    }

    /// The current knowledge snapshot, served through the network's
    /// version-keyed [`KnowledgeCache`] as a shared immutable [`Arc`].
    ///
    /// This is the tenant-facing read surface of the server: any number
    /// of concurrent readers may hold the returned `Arc` while a mutator
    /// churns the structure — they keep observing the old, internally
    /// consistent version, and the next call after the mutation serves a
    /// freshly built snapshot under the bumped
    /// [`SensorNetwork::structure_version`].
    pub fn knowledge(&self) -> Arc<NetKnowledge> {
        self.knowledge.get(self.net())
    }

    /// Lifetime `(hits, misses, patched)` of the network's knowledge
    /// cache; `patched` counts the misses served by the dirty-scoped
    /// patch path rather than a full rebuild.
    pub fn knowledge_stats(&self) -> (u64, u64, u64) {
        self.knowledge.stats()
    }

    /// Partition the attached nodes into a deterministic grid of spatial
    /// cells for sharded radio delivery (`RunConfig::shards`). The field
    /// is cut into the smallest `k × k` grid with `k² ≥ target_cells`,
    /// cells ordered row-major, node ids ascending within each cell;
    /// nodes that drifted outside the region (mobility) clamp to the
    /// border cells. Empty cells are kept — the engine treats them as
    /// no-ops, and the partition is invisible in every run output.
    pub fn shard_plan(&self, target_cells: usize) -> Arc<dsnet_radio::ShardPlan> {
        let region = &self.deployment.config.region;
        let (w, h) = (region.width(), region.height());
        let k = (target_cells.max(1) as f64).sqrt().ceil() as usize;
        let k = if w > 0.0 && h > 0.0 { k.max(1) } else { 1 };
        let (cw, ch) = (w / k as f64, h / k as f64);
        let mut cells: Vec<Vec<NodeId>> = vec![Vec::new(); k * k];
        for u in self.net().graph().nodes() {
            let p = self.positions[u.index()];
            let cx = if cw > 0.0 {
                ((p.x / cw).floor() as i64).clamp(0, k as i64 - 1) as usize
            } else {
                0
            };
            let cy = if ch > 0.0 {
                ((p.y / ch).floor() as i64).clamp(0, k as i64 - 1) as usize
            } else {
                0
            };
            cells[cy * k + cx].push(u);
        }
        Arc::new(dsnet_radio::ShardPlan::from_cells(cells))
    }

    /// Structural summary (Figures 10/11 quantities).
    pub fn stats(&self) -> NetworkStats {
        let net = self.net();
        let (heads, gateways, members) = net.status_counts();
        let bt = net.backbone_tree();
        NetworkStats {
            nodes: net.len(),
            edges: net.graph().edge_count(),
            heads,
            gateways,
            members,
            backbone_size: bt.len(),
            backbone_height: bt.height(),
            cnet_height: net.height(),
            max_degree: degree::max_degree(net.graph()),
            backbone_max_degree: degree::induced_max_degree(net.graph(), &net.backbone_nodes()),
            delta_b: net.delta_b(),
            delta_l: net.delta_l(),
        }
    }

    /// Run all structural invariant checks (panics on violation; meant for
    /// tests and examples).
    pub fn check(&self) {
        invariants::check_core(self.net()).expect("core invariants");
        self.mc.check_relay_consistency().expect("relay lists");
    }

    // ----- protocols --------------------------------------------------------

    /// Broadcast from the sink with default settings.
    pub fn broadcast(&self, protocol: Protocol) -> BroadcastOutcome {
        let req = Broadcast::new(protocol, self.sink());
        self.run(&req, &RunConfig::default()).outcome
    }

    /// Multicast to `group` from the sink with default settings (the
    /// paper's relay-pruned session).
    pub fn multicast(&self, group: GroupId) -> BroadcastOutcome {
        let req = Broadcast::multicast(self.sink(), group, MulticastSlots::RelayPruned);
        self.run(&req, &RunConfig::default()).outcome
    }

    /// Execute any broadcast or multicast request (see
    /// [`runner::run`]) over this network.
    ///
    /// Unless the request brings its own, the knowledge snapshot feeding
    /// the run is served by the network's version-keyed
    /// [`KnowledgeCache`]: repeated runs over an unchanged structure skip
    /// the (dominant) snapshot rebuild, while any structural mutation
    /// invalidates the cache automatically. Multicasts apply their group
    /// tables on top of that base snapshot per call. The cache serves the
    /// Algorithm-1 flood part too, but only to the protocols that read it
    /// ([`Protocol::reads_flood`]); no other run builds one.
    pub fn run(&self, req: &Broadcast<'_>, cfg: &RunConfig) -> Run {
        let k = req
            .knowledge
            .is_none()
            .then(|| self.knowledge.get(self.net()));
        let flood = (req.protocol.reads_flood() && req.flood.is_none())
            .then(|| self.knowledge.flood(self.net()));
        let req = Broadcast {
            knowledge: req.knowledge.or(k.as_deref()),
            flood: req.flood.or(flood.as_deref()),
            ..*req
        };
        runner::run(&self.mc, &req, cfg)
    }

    // ----- dynamics ---------------------------------------------------------

    /// A new sensor powers up at `position` (with `groups` memberships) and
    /// joins via `node-move-in`. Fails if nothing is in radio range.
    pub fn join(
        &mut self,
        position: Point2,
        groups: &[GroupId],
    ) -> Result<MoveInReport, MoveInError> {
        let range = self.deployment.config.range;
        let neighbors: Vec<NodeId> = self
            .net()
            .tree()
            .nodes()
            .filter(|&u| self.positions[u.index()].in_range(position, range))
            .collect();
        let report = self.mc.move_in(&neighbors, groups)?;
        if self.positions.len() <= report.node.index() {
            self.positions.resize(report.node.index() + 1, position);
        }
        self.positions[report.node.index()] = position;
        Ok(report)
    }

    /// A sensor powers down and leaves via `node-move-out`.
    pub fn leave(&mut self, node: NodeId) -> Result<MoveOutReport, MoveOutError> {
        self.mc.move_out(node)
    }

    /// The sink itself powers down: the structure is rebuilt from a
    /// surviving node (the paper's deferred case, see
    /// [`ClusterNet::move_out_root`]).
    pub fn leave_sink(&mut self) -> Result<dsnet_cluster::RootMoveOutReport, MoveOutError> {
        self.mc.move_out_root()
    }

    /// A node crashed silently (no `node-move-out` ran): detect it within
    /// the configured silence window, evict it, and re-home its orphans.
    /// Returns the repair accounting (see [`RepairReport`]).
    pub fn repair_crash(
        &mut self,
        failed: NodeId,
        cfg: &RepairConfig,
    ) -> Result<RepairReport, RepairError> {
        self.mc.repair_failure(failed, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{GroupPlan, NetworkBuilder};

    fn build(n: usize, seed: u64) -> SensorNetwork {
        NetworkBuilder::paper(n, seed).build().unwrap()
    }

    #[test]
    fn stats_are_consistent() {
        let net = build(120, 2);
        let s = net.stats();
        assert_eq!(s.nodes, 120);
        assert_eq!(s.heads + s.gateways + s.members, 120);
        assert_eq!(s.backbone_size, s.heads + s.gateways);
        assert!(s.backbone_height <= s.cnet_height);
        assert!(s.backbone_max_degree <= s.max_degree);
        net.check();
    }

    #[test]
    fn all_protocols_complete_on_udg() {
        let net = build(100, 4);
        for p in [
            Protocol::Dfo,
            Protocol::BasicCff,
            Protocol::ImprovedCff,
            Protocol::ReliableCff,
        ] {
            let out = net.broadcast(p);
            assert!(out.completed(), "{p:?}: {}/{}", out.delivered, out.targets);
        }
    }

    #[test]
    fn repair_crash_restores_invariants() {
        let mut net = build(80, 4);
        // Crash a non-root backbone node.
        let victim = net
            .net()
            .backbone_nodes()
            .into_iter()
            .find(|&u| u != net.sink())
            .expect("a non-root backbone node");
        let report = net.repair_crash(victim, &RepairConfig::default()).unwrap();
        assert_eq!(report.failed, victim);
        assert_eq!(net.len(), 79);
        assert!(report.total_rounds() >= report.detection_rounds);
        net.check();
        // The healed network still broadcasts to everyone.
        let out = net.broadcast(Protocol::ImprovedCff);
        assert!(out.completed());
    }

    #[test]
    fn improved_cff_beats_dfo_on_paper_networks() {
        let net = build(250, 6);
        let cff = net.broadcast(Protocol::ImprovedCff);
        let dfo = net.broadcast(Protocol::Dfo);
        assert!(cff.rounds < dfo.rounds);
        assert!(cff.max_awake() < dfo.max_awake());
    }

    #[test]
    fn join_then_leave_roundtrip() {
        let mut net = build(60, 8);
        let anchor = net.position(net.sink());
        let report = net
            .join(Point2::new(anchor.x + 0.1, anchor.y), &[2])
            .unwrap();
        assert_eq!(net.len(), 61);
        net.check();
        net.leave(report.node).unwrap();
        assert_eq!(net.len(), 60);
        net.check();
    }

    #[test]
    fn join_out_of_range_fails() {
        let mut net = build(30, 8);
        // The field is 10×10 and deployments start near the centre; a point
        // pinned into a far corner of a 100×100 region is out of range.
        let far = Point2::new(9.99, 9.99);
        let in_range = net
            .net()
            .tree()
            .nodes()
            .any(|u| net.position(u).in_range(far, 0.5));
        if !in_range {
            assert!(net.join(far, &[]).is_err());
        }
    }

    #[test]
    fn only_algorithm1_runs_build_the_flood_part() {
        let mut net = NetworkBuilder::paper(80, 3)
            .groups(GroupPlan {
                groups: 1,
                membership: 0.3,
            })
            .build()
            .unwrap();
        let (sink, cfg) = (net.sink(), RunConfig::default());
        for req in [
            Broadcast::new(Protocol::ImprovedCff, sink),
            Broadcast::new(Protocol::Dfo, sink),
            Broadcast::multicast(sink, 0, MulticastSlots::RelayPruned),
            Broadcast::multicast(sink, 0, MulticastSlots::Session),
        ] {
            net.run(&req, &cfg);
        }
        assert_eq!(net.knowledge.flood_version(), None, "nothing read it");
        let victim = net.net().tree().nodes().last().unwrap();
        net.leave(victim).unwrap();
        // The counters must move exactly as one bare `get` per run would.
        let shadow = net.knowledge.clone();
        for p in [Protocol::BasicCff, Protocol::ReliableCff] {
            assert!(net.run(&Broadcast::new(p, sink), &cfg).outcome.completed());
            let version = Some(net.structure_version());
            assert_eq!(net.knowledge.flood_version(), version, "{p:?}");
            let _ = shadow.get(net.net());
        }
        assert_eq!(net.knowledge.full_stats(), shadow.full_stats());
    }

    #[test]
    fn multicast_completes_and_costs_less_awake_energy() {
        let net = NetworkBuilder::paper(150, 12)
            .groups(GroupPlan {
                groups: 2,
                membership: 0.1,
            })
            .build()
            .unwrap();
        let mcast = net.multicast(0);
        assert!(mcast.delivery_ratio() >= 0.99, "{}", mcast.delivery_ratio());
        let bcast = net.broadcast(Protocol::ImprovedCff);
        // Pruning keeps total listening work below the full broadcast.
        let mcast_work = mcast.energy.total_listen + mcast.energy.total_tx;
        let bcast_work = bcast.energy.total_listen + bcast.energy.total_tx;
        assert!(mcast_work <= bcast_work, "{mcast_work} > {bcast_work}");
    }
}
