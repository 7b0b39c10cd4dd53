//! Extraction of the paper's per-node knowledge (I) + (II).
//!
//! Section 5 lists what each node of CNet(G) must know for the protocols
//! to run: its neighbours, parent and status (knowledge I); its depth,
//! b-/l-time-slots, and — at the root — the height and largest slots
//! (knowledge II). The cluster crate maintains all of this; here it is
//! snapshotted into plain per-node structs that the protocol state
//! machines carry, mirroring how a real deployment would cache the values
//! locally.
//!
//! The snapshot also precomputes, for every receiver, *which* transmitter
//! slot is guaranteed collision-free (`expected_*_slot`). The base
//! single-channel protocols do not need it (they listen through the whole
//! window), but the multi-channel variants use it to tune the radio to the
//! right (round, channel) pair — legitimate under knowledge (I), which
//! includes the neighbours' knowledge.
//!
//! ## Layout
//!
//! The snapshot is one flat table: [`NodeKnowledge`] is `Copy` (no
//! per-node heap allocation), indexed by id, with the global scalars
//! beside it. DFO's tour lists are not part of it: each
//! [`DfoProgram`](crate::dfo::DfoProgram) reads its own off the tree.
//!
//! ## Two parts, the second on demand
//!
//! Knowledge comes in two parts. The base snapshot, [`NetKnowledge`],
//! holds knowledge (I) and the b-/l-slot half of (II): everything
//! Algorithm 2 (Theorem 1) and the multicasts read, plus the backbone
//! size DFO's bound needs. Algorithm 1's
//! flood slots and `Δ'` form a separate [`FloodKnowledge`] part, read
//! only by `cff1`, `rcff` and their Lemma-1 bounds, so a run of any
//! other protocol never pays for them. [`build_knowledge`] is the base
//! snapshot's from-scratch oracle; [`build_flood_knowledge`] is the only
//! way the flood part is built.
//!
//! ## Incremental maintenance
//!
//! [`KnowledgeCache`] keeps the newest copy of each part. A stale base
//! snapshot is patched rather than rebuilt from scratch: the patch asks
//! [`ClusterNet::dirty_since`] for the journal of dirty nodes `T` since
//! the snapshot's version, clones the flat per-node table (one memcpy),
//! recomputes only over the dirty closure `R = L ∪ N_G(L)`,
//! `L = T ∪ parent(T)` — the same closure rules the dirty invariant
//! audit uses (DESIGN §12/§17) — and re-derives the global scalars in
//! the one pass it shares with [`build_knowledge`]. Past a
//! staleness/size threshold (or when the journal cannot vouch for the
//! cached version) it falls back to a full rebuild. A stale flood part
//! is rebuilt: no benchmark workload, ledger scenario or example asks
//! for one across a structure change, so it has no patch of its own
//! (DESIGN §17).

use dsnet_cluster::slots::validate::{assign_flood_slots, flood_transmitters};
use dsnet_cluster::slots::view::NetView;
use dsnet_cluster::{ClusterNet, NodeStatus, SlotMode};
use dsnet_graph::NodeId;
use std::sync::{Arc, Mutex};

/// Everything one node knows before a broadcast session starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeKnowledge {
    /// Depth in CNet(G) (root = 0).
    pub depth: u32,
    /// Head / gateway / pure-member role.
    pub status: NodeStatus,
    /// Phase-1 transmission slot (BT-internal nodes only).
    pub b_slot: Option<u32>,
    /// Phase-2 transmission slot (CNet-internal nodes only).
    pub l_slot: Option<u32>,
    /// Transmits in phase 1 (backbone node with a backbone child).
    pub bt_internal: bool,
    /// Transmits in phase 2 (has children).
    pub cnet_internal: bool,
    /// The collision-free slot this backbone receiver should expect in
    /// phase 1 (None for the root and for non-backbone nodes).
    pub expected_b_slot: Option<u32>,
    /// The collision-free slot this member leaf should expect in phase 2.
    pub expected_l_slot: Option<u32>,
}

/// Network-wide constants of a session (what the paper stores at the root
/// and ships inside the first packet).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetKnowledge {
    /// Per-node knowledge, indexed by id (`None` off-structure).
    pub per_node: Vec<Option<NodeKnowledge>>,
    /// Height of CNet(G).
    pub height: u32,
    /// Height of BT(G) (= deepest backbone node).
    pub bt_height: u32,
    /// δ — largest b-slot.
    pub delta_b: u32,
    /// Δ — largest l-slot.
    pub delta_l: u32,
    /// Number of attached nodes.
    pub nodes: usize,
    /// Number of backbone nodes.
    pub backbone_size: usize,
}

impl NetKnowledge {
    /// Knowledge of one attached node (panics otherwise).
    pub fn of(&self, u: NodeId) -> &NodeKnowledge {
        self.per_node[u.index()]
            .as_ref()
            .expect("node has no knowledge (not attached)")
    }

    /// Wrap a complete per-node table with the global scalars: the one
    /// pass shared by [`build_knowledge`] and the patch path.
    fn from_table(net: &ClusterNet, per_node: Vec<Option<NodeKnowledge>>) -> Self {
        let (mut bt_height, mut backbone_size) = (0u32, 0usize);
        for nk in per_node.iter().flatten() {
            if nk.status.in_backbone() {
                bt_height = bt_height.max(nk.depth);
                backbone_size += 1;
            }
        }
        let tree = net.tree();
        Self {
            per_node,
            height: tree.height(),
            bt_height,
            delta_b: net.delta_b(),
            delta_l: net.delta_l(),
            nodes: tree.len(),
            backbone_size,
        }
    }
}

/// One node's Algorithm-1 knowledge (both `None` off-structure).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeFlood {
    /// Algorithm-1 transmission slot (CNet-internal nodes only).
    pub flood_slot: Option<u32>,
    /// The collision-free slot this node should expect in Algorithm 1
    /// (`None` at the root).
    pub expected_flood_slot: Option<u32>,
}

/// Algorithm 1's part of knowledge (II): every node's flood slots and
/// `Δ'`. Only Algorithm 1 (`cff1`), its reliable variant (`rcff`) and
/// their Lemma-1 bounds read it; see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FloodKnowledge {
    /// Per-node flood slots, indexed by id.
    pub per_node: Vec<NodeFlood>,
    /// Δ' — largest Algorithm-1 flood slot.
    pub delta_flood: u32,
}

impl FloodKnowledge {
    /// Flood slots of node `u` (both `None` when `u` is not attached).
    pub fn of(&self, u: NodeId) -> NodeFlood {
        self.per_node[u.index()]
    }
}

/// Find the smallest slot value occurring exactly once in the sorted-in-
/// place scratch (the receiver's guaranteed-clean slot), if any.
fn unique_slot_sorted(scratch: &mut [u32]) -> Option<u32> {
    scratch.sort_unstable();
    let mut i = 0;
    while i < scratch.len() {
        let mut j = i + 1;
        while j < scratch.len() && scratch[j] == scratch[i] {
            j += 1;
        }
        if j - i == 1 {
            return Some(scratch[i]);
        }
        i = j;
    }
    None
}

/// Iterator convenience over [`unique_slot_sorted`] — used by the tests
/// that pin the scratch-based replacement to the old BTreeMap semantics.
#[cfg(test)]
fn unique_slot(slots: impl IntoIterator<Item = Option<u32>>) -> Option<u32> {
    let mut scratch: Vec<u32> = slots.into_iter().flatten().collect();
    unique_slot_sorted(&mut scratch)
}

/// The guaranteed-clean slots a receiver should expect, given each
/// transmitter's b-slot (`b`) and l-slot (`l`): a non-root backbone node
/// expects a phase-1 slot, a member leaf a phase-2 slot.
fn expected_slots(
    view: NetView<'_>,
    mode: SlotMode,
    u: NodeId,
    b: impl Fn(NodeId) -> Option<u32>,
    l: impl Fn(NodeId) -> Option<u32>,
    scratch: &mut Vec<u32>,
) -> (Option<u32>, Option<u32>) {
    let expected_b = if view.in_backbone(u) && view.tree.depth(u) >= 1 {
        scratch.clear();
        scratch.extend(view.p_b_iter(u).filter_map(b));
        unique_slot_sorted(scratch)
    } else {
        None
    };
    let expected_l = if view.is_member_leaf(u) {
        scratch.clear();
        scratch.extend(view.p_l_iter(u, mode).filter_map(l));
        unique_slot_sorted(scratch)
    } else {
        None
    };
    (expected_b, expected_l)
}

/// The Algorithm-1 slot a receiver `u` should expect, given each
/// transmitter's flood slot (`slot_of`); `None` at the root.
fn expected_flood_slot(
    view: &NetView<'_>,
    u: NodeId,
    slot_of: impl Fn(NodeId) -> Option<u32>,
    scratch: &mut Vec<u32>,
) -> Option<u32> {
    if view.tree.depth(u) == 0 {
        return None;
    }
    scratch.clear();
    scratch.extend(flood_transmitters(view, u).filter_map(slot_of));
    unique_slot_sorted(scratch)
}

/// The knowledge rule for one attached node `u`, shared by the full build
/// and the patch path.
fn node_knowledge(net: &ClusterNet, u: NodeId, scratch: &mut Vec<u32>) -> NodeKnowledge {
    let (view, slots, tree) = (net.view(), net.slots(), net.tree());
    let (expected_b_slot, expected_l_slot) =
        expected_slots(view, net.mode(), u, |y| slots.b(y), |y| slots.l(y), scratch);
    NodeKnowledge {
        depth: tree.depth(u),
        status: net.status(u),
        b_slot: slots.b(u),
        l_slot: slots.l(u),
        bt_internal: view.bt_internal(u),
        cnet_internal: view.cnet_internal(u),
        expected_b_slot,
        expected_l_slot,
    }
}

/// Snapshot the knowledge of every attached node for a *session* with its
/// own slot table and transmitter set — used by reliable multicast, where
/// the initiator re-assigns slots over the participating transmitters
/// (see `dsnet_cluster::slots::session`). Expected receiver slots are
/// computed against the participating transmitters only.
///
/// Starts from an already-built base snapshot of the same `net` (e.g. one
/// served by a [`KnowledgeCache`]): the session rewrite only touches slots
/// and expected slots, so the expensive base pass is amortised across
/// sessions. The base is cloned internally (one flat memcpy).
pub fn build_session_knowledge_from(
    net: &ClusterNet,
    base: &NetKnowledge,
    session_slots: &dsnet_cluster::SlotTable,
    tx: &dyn Fn(NodeId) -> bool,
) -> NetKnowledge {
    let mut k = base.clone();
    let mut scratch: Vec<u32> = Vec::new();
    for u in net.tree().nodes() {
        let nk = k.per_node[u.index()].as_mut().expect("attached node");
        nk.b_slot = session_slots.b(u);
        nk.l_slot = session_slots.l(u);
        (nk.expected_b_slot, nk.expected_l_slot) = expected_slots(
            net.view(),
            net.mode(),
            u,
            |y| session_slots.b(y).filter(|_| tx(y)),
            |y| session_slots.l(y).filter(|_| tx(y)),
            &mut scratch,
        );
    }
    k.delta_b = session_slots.max_b();
    k.delta_l = session_slots.max_l();
    k
}

/// Snapshot the base knowledge of every attached node of `net` (no
/// Algorithm-1 work: see [`build_flood_knowledge`]).
pub fn build_knowledge(net: &ClusterNet) -> NetKnowledge {
    let mut per_node: Vec<Option<NodeKnowledge>> = vec![None; net.graph().capacity()];
    let mut scratch: Vec<u32> = Vec::new();
    for u in net.tree().nodes() {
        per_node[u.index()] = Some(node_knowledge(net, u, &mut scratch));
    }
    NetKnowledge::from_table(net, per_node)
}

/// Snapshot Algorithm 1's flood slots of every attached node of `net`:
/// [`assign_flood_slots`] plus every receiver's expected slot.
pub fn build_flood_knowledge(net: &ClusterNet) -> FloodKnowledge {
    let view = net.view();
    let (slots, delta_flood) = assign_flood_slots(&view);
    let mut per_node = vec![NodeFlood::default(); slots.len()];
    let mut scratch: Vec<u32> = Vec::new();
    for u in net.tree().nodes() {
        per_node[u.index()] = NodeFlood {
            flood_slot: slots[u.index()],
            expected_flood_slot: expected_flood_slot(&view, u, |y| slots[y.index()], &mut scratch),
        };
    }
    FloodKnowledge {
        per_node,
        delta_flood,
    }
}

/// The dirty closure of everything journalled since `version`: the
/// sorted set `R = L ∪ N_G(L)`, `L = T ∪ parent(T)`, where `T` is the
/// journal's dirty set — every node whose knowledge can have changed
/// (the dirty-closure rules of DESIGN §12, applied to knowledge in §17).
/// Dead/detached members of `T` contribute no parent/neighbours: their
/// surviving endpoints were journalled explicitly at removal time.
/// `None` when the journal cannot vouch for `version` or `T` exceeds
/// `limit` — the caller then rebuilds from scratch.
fn dirty_closure(net: &ClusterNet, version: u64, limit: usize) -> Option<Vec<NodeId>> {
    if net.is_empty() {
        return None;
    }
    // T: journalled dirty nodes (tuple writes + surviving edge endpoints).
    let mut t: Vec<NodeId> = net.dirty_since(version)?.collect();
    t.sort_unstable();
    t.dedup();
    if t.len() > limit {
        return None;
    }
    let tree = net.tree();
    let mut l = t.clone();
    for &u in &t {
        if tree.contains(u) {
            if let Some(p) = tree.parent(u) {
                l.push(p);
            }
        }
    }
    l.sort_unstable();
    l.dedup();
    let mut r = l.clone();
    for &u in &l {
        if net.graph().is_live(u) {
            r.extend_from_slice(net.graph().neighbors(u));
        }
    }
    r.sort_unstable();
    r.dedup();
    Some(r)
}

/// Patch `base` (a snapshot of the same net at `base_version`) up to the
/// net's current structure, recomputing knowledge only over the dirty
/// closure. Returns the patched snapshot and the closure size, or `None`
/// when [`dirty_closure`] refuses — the caller then falls back to a full
/// rebuild.
///
/// Correctness contract (pinned by `knowledge_patch_props` and
/// `tests/cache_equivalence.rs`): the result is byte-equal to
/// [`build_knowledge`] run from scratch at the current version.
fn patch_knowledge(
    net: &ClusterNet,
    base: &NetKnowledge,
    base_version: u64,
    limit: usize,
) -> Option<(NetKnowledge, usize)> {
    let r = dirty_closure(net, base_version, limit)?;
    let tree = net.tree();
    let cap = net.graph().capacity();

    // One flat memcpy: the per-node table.
    let mut per_node = base.per_node.clone();
    if per_node.len() < cap {
        per_node.resize(cap, None);
    }

    // Recompute every node of R; tombstone the departed.
    let mut scratch: Vec<u32> = Vec::new();
    for &u in &r {
        per_node[u.index()] = tree
            .contains(u)
            .then(|| node_knowledge(net, u, &mut scratch));
    }
    Some((NetKnowledge::from_table(net, per_node), r.len()))
}

/// The retained parts and the lifetime counters, under one lock.
#[derive(Debug, Default, Clone)]
struct CacheState {
    /// The newest `(structure version, snapshot)` pair served.
    entry: Option<(u64, Arc<NetKnowledge>)>,
    /// The newest `(structure version, flood part)` pair served.
    flood: Option<(u64, Arc<FloodKnowledge>)>,
    hits: u64,
    misses: u64,
    patched: u64,
    patched_scope: u64,
    fallbacks: u64,
}

/// Lifetime counters of a [`KnowledgeCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Gets served from the retained snapshot (version match).
    pub hits: u64,
    /// Gets that had to produce a new snapshot (patched or rebuilt).
    pub misses: u64,
    /// Misses served by the dirty-scoped patch path.
    pub patched: u64,
    /// Total nodes in the patched closures (scope of all patches).
    pub patched_scope: u64,
    /// Misses where a retained snapshot existed but patching was refused
    /// (journal poisoned/evicted, or dirty set over the threshold).
    pub fallbacks: u64,
}

/// A version-keyed cache for [`NetKnowledge`] snapshots and their
/// [`FloodKnowledge`] parts.
///
/// The cache keys snapshots on [`ClusterNet::structure_version`]:
/// repeated broadcasts over an unchanged structure reuse the `Arc`ed
/// snapshot. When the version moved, the cache first tries the
/// dirty-scoped **patch path** (`patch_knowledge`) against the retained
/// snapshot, and only falls back to a from-scratch
/// [`build_knowledge`] when the mutation journal cannot vouch for the
/// cached version or the dirty set exceeds the staleness threshold
/// (`max(64, nodes/8)` by default). Correctness leans on the version
/// contract — equal versions imply identical structure — plus the
/// patched-equals-rebuilt property pinned by `knowledge_patch_props` and
/// `tests/cache_equivalence.rs`, so the cached path is observably
/// indistinguishable from rebuilding every time.
///
/// The cache keeps **one** `(version, knowledge)` entry, the newest. A
/// cache serves a single structure whose version only grows, so an older
/// snapshot could never be hit again nor be a better patch base; a miss
/// replaces the entry, releasing the superseded snapshot as soon as no
/// caller holds it.
///
/// The flood part is built only on demand, by [`KnowledgeCache::flood`],
/// and kept the same way in an entry of its own with its own version:
/// served on a version match, else rebuilt by [`build_flood_knowledge`].
/// The staleness threshold above and the `DSNET_KNOWLEDGE_PATCH` switch
/// below apply to the base snapshot only.
///
/// Counter semantics: a `get` is a *hit* when the version matches the
/// retained entry and a *miss* otherwise; `patched` counts the subset of
/// misses served by the patch path instead of a full rebuild (so
/// `hits + misses` equals the number of `get` calls regardless of how a
/// miss was served). [`KnowledgeCache::full_stats`] additionally exposes
/// the summed patch closure size and the fallback count. The counters
/// describe `get` alone: a `flood` request moves none of them, so they
/// read the same whichever protocols ran. Setting the environment
/// variable `DSNET_KNOWLEDGE_PATCH=off` (read at cache construction)
/// disables the patch path — the determinism smoke diffs traced streams
/// between both modes.
#[derive(Debug)]
pub struct KnowledgeCache {
    state: Mutex<CacheState>,
    patch_enabled: bool,
    patch_limit: Option<usize>,
}

impl Default for KnowledgeCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Dirty sets of at most `max(64, nodes/8)` nodes take the patch path.
const PATCH_MIN_LIMIT: usize = 64;

impl KnowledgeCache {
    /// An empty cache. The patch path is enabled unless the environment
    /// variable `DSNET_KNOWLEDGE_PATCH` is set to `off` or `0`.
    pub fn new() -> Self {
        let patch_enabled = !matches!(
            std::env::var("DSNET_KNOWLEDGE_PATCH").as_deref(),
            Ok("off") | Ok("0")
        );
        Self {
            state: Mutex::new(CacheState::default()),
            patch_enabled,
            patch_limit: None,
        }
    }

    /// A cache with a fixed dirty-set size threshold instead of the
    /// default `max(64, nodes/8)` — lets tests force fallback crossings
    /// deterministically.
    pub fn with_patch_limit(limit: usize) -> Self {
        Self {
            patch_limit: Some(limit),
            ..Self::new()
        }
    }

    /// The knowledge snapshot for `net`'s current structure — served from
    /// cache when the structure version matches the retained snapshot,
    /// patched from it when the mutation journal covers the gap, rebuilt
    /// otherwise.
    pub fn get(&self, net: &ClusterNet) -> Arc<NetKnowledge> {
        let version = net.structure_version();
        let mut state = self.state.lock().expect("knowledge cache poisoned");
        if let Some((_, k)) = state.entry.as_ref().filter(|(v, _)| *v == version) {
            let k = Arc::clone(k);
            state.hits += 1;
            return k;
        }
        state.misses += 1;
        let base = state
            .entry
            .take()
            .filter(|(v, _)| self.patch_enabled && *v < version);
        if let Some((base_version, base)) = base {
            match patch_knowledge(net, &base, base_version, self.limit(net)) {
                Some((patched, scope)) => {
                    state.patched += 1;
                    state.patched_scope += scope as u64;
                    let k = Arc::new(patched);
                    state.entry = Some((version, Arc::clone(&k)));
                    return k;
                }
                None => state.fallbacks += 1,
            }
        }
        let k = Arc::new(build_knowledge(net));
        state.entry = Some((version, Arc::clone(&k)));
        k
    }

    /// Algorithm 1's flood part for `net`'s current structure — served
    /// from cache when the structure version matches the retained part,
    /// rebuilt otherwise. Moves none of the [`CacheStats`] counters.
    pub fn flood(&self, net: &ClusterNet) -> Arc<FloodKnowledge> {
        let version = net.structure_version();
        let mut state = self.state.lock().expect("knowledge cache poisoned");
        if let Some((_, f)) = state.flood.as_ref().filter(|(v, _)| *v == version) {
            return Arc::clone(f);
        }
        let f = Arc::new(build_flood_knowledge(net));
        state.flood = Some((version, Arc::clone(&f)));
        f
    }

    /// The structure version of the retained flood part; `None` until
    /// [`KnowledgeCache::flood`] is first called.
    pub fn flood_version(&self) -> Option<u64> {
        let state = self.state.lock().expect("knowledge cache poisoned");
        state.flood.as_ref().map(|(v, _)| *v)
    }

    /// The largest dirty set the patch path accepts.
    fn limit(&self, net: &ClusterNet) -> usize {
        self.patch_limit
            .unwrap_or_else(|| PATCH_MIN_LIMIT.max(net.len() / 8))
    }

    /// Lifetime totals of `(hits, misses, patched)` across every
    /// [`KnowledgeCache::get`] call. `patched` is the subset of misses
    /// served by the dirty-scoped patch path.
    pub fn stats(&self) -> (u64, u64, u64) {
        let state = self.state.lock().expect("knowledge cache poisoned");
        (state.hits, state.misses, state.patched)
    }

    /// All lifetime counters, including patch scope and fallbacks.
    pub fn full_stats(&self) -> CacheStats {
        let state = self.state.lock().expect("knowledge cache poisoned");
        CacheStats {
            hits: state.hits,
            misses: state.misses,
            patched: state.patched,
            patched_scope: state.patched_scope,
            fallbacks: state.fallbacks,
        }
    }
}

impl Clone for KnowledgeCache {
    fn clone(&self) -> Self {
        // `Arc` clones, no deep copies.
        let state = self.state.lock().expect("knowledge cache poisoned").clone();
        Self {
            state: Mutex::new(state),
            patch_enabled: self.patch_enabled,
            patch_limit: self.patch_limit,
        }
    }
}

/// Knowledge plus the session parameters a run is configured with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Session {
    /// The broadcast origin.
    pub source: NodeId,
    /// Rounds consumed by the uplink from the source to the root (=
    /// depth of the source; 0 when the source is the root).
    pub offset: u64,
    /// Radio channels available (k ≥ 1).
    pub channels: u8,
}

impl Session {
    /// Describe a session from `source` over `channels` radios.
    pub fn new(k: &NetKnowledge, source: NodeId, channels: u8) -> Self {
        assert!(channels >= 1);
        let offset = k.of(source).depth as u64;
        Self {
            source,
            offset,
            channels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain_net;

    #[test]
    fn knowledge_covers_all_nodes() {
        let net = chain_net(12);
        let k = build_knowledge(&net);
        assert_eq!(k.nodes, 12);
        for u in net.tree().nodes() {
            let nk = k.of(u);
            assert_eq!(nk.depth, net.tree().depth(u));
            assert_eq!(nk.status, net.status(u));
        }
    }

    #[test]
    fn slots_present_exactly_on_transmitters() {
        let net = chain_net(15);
        let k = build_knowledge(&net);
        let flood = build_flood_knowledge(&net);
        for u in net.tree().nodes() {
            let nk = k.of(u);
            assert_eq!(nk.b_slot.is_some(), nk.bt_internal, "{u} b");
            assert_eq!(nk.l_slot.is_some(), nk.cnet_internal, "{u} l");
            let slot = flood.of(u).flood_slot;
            assert_eq!(slot.is_some(), nk.cnet_internal, "{u} flood");
        }
        let max = flood.per_node.iter().filter_map(|f| f.flood_slot).max();
        assert_eq!(max, Some(flood.delta_flood));
    }

    #[test]
    fn expected_slots_exist_for_receivers() {
        let net = chain_net(15);
        let k = build_knowledge(&net);
        let flood = build_flood_knowledge(&net);
        for u in net.tree().nodes() {
            let nk = k.of(u);
            if nk.status.in_backbone() && nk.depth >= 1 {
                assert!(nk.expected_b_slot.is_some(), "{u} lacks expected b-slot");
            }
            if nk.status == dsnet_cluster::NodeStatus::PureMember {
                assert!(nk.expected_l_slot.is_some(), "{u} lacks expected l-slot");
            }
            let expected = flood.of(u).expected_flood_slot;
            assert_eq!(expected.is_some(), nk.depth >= 1, "{u} flood expectation");
        }
    }

    #[test]
    fn bt_height_and_sizes() {
        let net = chain_net(9);
        let k = build_knowledge(&net);
        let bt = net.backbone_tree();
        assert_eq!(k.bt_height as usize, bt.height() as usize);
        assert_eq!(k.backbone_size, bt.len());
        assert!(k.bt_height <= k.height);
    }

    #[test]
    fn session_offset_is_source_depth() {
        let net = chain_net(9);
        let k = build_knowledge(&net);
        assert_eq!(Session::new(&k, NodeId(0), 1).offset, 0);
        let deep = net
            .tree()
            .nodes()
            .max_by_key(|&u| net.tree().depth(u))
            .unwrap();
        assert_eq!(
            Session::new(&k, deep, 1).offset,
            net.tree().depth(deep) as u64
        );
    }

    #[test]
    fn cache_hits_on_unchanged_structure_and_misses_after_mutation() {
        let mut net = chain_net(10);
        let cache = KnowledgeCache::new();
        let a = cache.get(&net);
        let b = cache.get(&net);
        assert!(Arc::ptr_eq(&a, &b), "unchanged structure must hit");
        assert_eq!(*a, build_knowledge(&net), "cached == freshly built");
        net.move_in(&[NodeId(9)]).unwrap();
        let c = cache.get(&net);
        assert!(!Arc::ptr_eq(&a, &c), "mutation must invalidate");
        assert_eq!(*c, build_knowledge(&net));
    }

    #[test]
    fn patched_snapshot_is_byte_equal_to_full_rebuild() {
        let mut net = chain_net(24);
        let cache = KnowledgeCache::new();
        let _ = cache.get(&net); // prime
        for step in 0..10u32 {
            match step % 3 {
                0 => {
                    let deepest = net
                        .tree()
                        .nodes()
                        .max_by_key(|&u| (net.tree().depth(u), u))
                        .unwrap();
                    net.move_in(&[deepest]).unwrap();
                }
                1 => {
                    // Leaf departure (deepest node is always a leaf).
                    let leaf = net
                        .tree()
                        .nodes()
                        .max_by_key(|&u| (net.tree().depth(u), u))
                        .unwrap();
                    if net.can_move_out(leaf).is_ok() {
                        net.move_out(leaf).unwrap();
                    }
                }
                _ => {
                    let victim = net.tree().nodes().nth(net.len() / 2).unwrap();
                    if victim != net.root() {
                        net.repair_failure(victim, &Default::default()).unwrap();
                    }
                }
            }
            let k = cache.get(&net);
            assert_eq!(*k, build_knowledge(&net), "step {step}");
        }
        let stats = cache.full_stats();
        assert!(stats.patched >= 1, "patch path must engage: {stats:?}");
    }

    #[test]
    fn patch_counters_and_hit_miss_totals_stay_consistent() {
        let mut net = chain_net(20);
        let cache = KnowledgeCache::new();
        let mut gets = 0u64;
        let _ = cache.get(&net);
        gets += 1;
        let _ = cache.get(&net);
        gets += 1;
        for _ in 0..4 {
            net.move_in(&[NodeId(0)]).unwrap();
            let _ = cache.get(&net);
            gets += 1;
        }
        let s = cache.full_stats();
        assert_eq!(s.hits + s.misses, gets, "{s:?}");
        assert!(s.patched <= s.misses, "patched is a subset of misses");
        assert_eq!(cache.stats(), (s.hits, s.misses, s.patched));
    }

    #[test]
    fn patch_limit_forces_fallback() {
        let mut net = chain_net(16);
        let cache = KnowledgeCache::with_patch_limit(0);
        let _ = cache.get(&net);
        net.move_in(&[NodeId(15)]).unwrap();
        let k = cache.get(&net);
        assert_eq!(*k, build_knowledge(&net));
        let s = cache.full_stats();
        assert_eq!(s.patched, 0);
        assert_eq!(s.fallbacks, 1, "{s:?}");
    }

    #[test]
    fn superseded_snapshot_is_released() {
        let mut net = chain_net(10);
        let cache = KnowledgeCache::new();
        let first = cache.get(&net);
        net.move_in(&[NodeId(9)]).unwrap();
        let _second = cache.get(&net);
        assert_eq!(
            Arc::strong_count(&first),
            1,
            "the cache must not retain a superseded snapshot"
        );
    }

    #[test]
    fn superseded_flood_part_is_released() {
        let mut net = chain_net(10);
        let cache = KnowledgeCache::new();
        let first = cache.flood(&net);
        net.move_in(&[NodeId(9)]).unwrap();
        let _second = cache.flood(&net);
        assert_eq!(
            Arc::strong_count(&first),
            1,
            "the cache must not retain a superseded flood part"
        );
    }

    #[test]
    fn flood_requests_move_no_counter() {
        let mut net = chain_net(20);
        let cache = KnowledgeCache::new();
        assert_eq!(cache.flood_version(), None, "built on demand only");
        let _ = cache.get(&net);
        let before = cache.full_stats();
        let a = cache.flood(&net);
        assert!(Arc::ptr_eq(&a, &cache.flood(&net)), "same version hits");
        for _ in 0..3 {
            net.move_in(&[NodeId(0)]).unwrap();
            let _ = cache.flood(&net);
        }
        assert_eq!(cache.full_stats(), before);
        assert_eq!(cache.flood_version(), Some(net.structure_version()));
    }

    #[test]
    fn flood_part_patches_across_version_gaps() {
        let mut net = chain_net(24);
        let cache = KnowledgeCache::new();
        let _ = cache.flood(&net);
        for step in 0..6u32 {
            // Several mutations between requests: one request catches up
            // on them all.
            for _ in 0..=step % 3 {
                net.move_in(&[NodeId(step % 5)]).unwrap();
            }
            if step % 2 == 0 {
                let leaf = net
                    .tree()
                    .nodes()
                    .max_by_key(|&u| (net.tree().depth(u), u))
                    .unwrap();
                if net.can_move_out(leaf).is_ok() {
                    net.move_out(leaf).unwrap();
                }
            }
            let f = cache.flood(&net);
            assert_eq!(*f, build_flood_knowledge(&net), "step {step}");
        }
    }

    #[test]
    fn cloned_cache_shares_nothing_but_reads_the_same() {
        let mut net = chain_net(8);
        let cache = KnowledgeCache::new();
        let _ = cache.get(&net);
        let cloned = cache.clone();
        assert_eq!(cloned.stats(), cache.stats());
        net.move_in(&[NodeId(0)]).unwrap();
        let _ = cloned.get(&net);
        assert_ne!(cloned.stats(), cache.stats(), "clones diverge");
    }

    #[test]
    fn session_knowledge_from_cached_base_matches_fresh() {
        let net = chain_net(14);
        let cache = KnowledgeCache::new();
        let base = cache.get(&net);
        let tx = |_u: NodeId| true;
        let rx = |_u: NodeId| true;
        let slots =
            dsnet_cluster::slots::session::assign_session_slots(&net.view(), net.mode(), &tx, &rx);
        let fresh = build_session_knowledge_from(&net, &build_knowledge(&net), &slots, &tx);
        let cached = build_session_knowledge_from(&net, &base, &slots, &tx);
        assert_eq!(fresh, cached);
    }

    #[test]
    fn unique_slot_helper() {
        assert_eq!(unique_slot([Some(1), Some(1), Some(2)]), Some(2));
        assert_eq!(unique_slot([Some(3), Some(3)]), None);
        assert_eq!(unique_slot([None, Some(5)]), Some(5));
        assert_eq!(unique_slot(std::iter::empty()), None);
    }
}
