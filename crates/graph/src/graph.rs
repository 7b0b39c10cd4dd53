//! A dynamic undirected graph with stable node identities.
//!
//! Node ids are dense `u32` indices assigned in insertion order and *never
//! recycled*: removing a node leaves a tombstone so that later layers
//! (cluster structures, radio engines, traces) can keep referring to nodes
//! by id across churn without aliasing. This matches the paper's model where
//! each sensor has a permanent distinct ID.

use std::fmt;
use std::sync::OnceLock;

/// Identity of a node. Dense per-graph index, never recycled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a dense vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// The rows of a [`Graph`] flattened into one compressed-sparse-row
/// table: `ids()[offsets()[i]..offsets()[i + 1]]` is id `i`'s sorted
/// neighbour row, empty for a tombstone. One contiguous scan per row
/// instead of a pointer chase into per-node vectors.
#[derive(Debug)]
pub struct FlatAdjacency {
    offsets: Vec<u32>,
    ids: Vec<NodeId>,
}

impl FlatAdjacency {
    fn build(g: &Graph) -> Self {
        let mut offsets = Vec::with_capacity(g.capacity() + 1);
        let mut ids = Vec::with_capacity(2 * g.edge_count);
        for (row, &alive) in g.adj.iter().zip(&g.alive) {
            offsets.push(ids.len() as u32);
            if alive {
                ids.extend_from_slice(row);
            }
        }
        offsets.push(ids.len() as u32);
        Self { offsets, ids }
    }

    /// Row starts by id, plus one closing entry (`capacity() + 1` long).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Every row back to back (`2 · edge_count()` long).
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// The row of `u` (empty for a tombstone).
    pub fn row(&self, u: NodeId) -> &[NodeId] {
        let i = u.index();
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Dynamic undirected simple graph.
///
/// ```
/// use dsnet_graph::{Graph, NodeId};
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(NodeId(0), NodeId(1));
/// g.add_edge(NodeId(1), NodeId(2));
/// assert_eq!(g.degree(NodeId(1)), 2);
///
/// // Removal tombstones the id — it is never reused.
/// g.remove_node(NodeId(1));
/// assert_eq!(g.add_node(), NodeId(3));
/// assert_eq!(g.node_count(), 3);
/// ```
#[derive(Default)]
pub struct Graph {
    /// Sorted adjacency lists; `adj[u]` is meaningful only while `alive[u]`.
    adj: Vec<Vec<NodeId>>,
    alive: Vec<bool>,
    live_count: usize,
    edge_count: usize,
    /// `adj` flattened, built on the first [`Graph::flat`] request and
    /// dropped by every mutation of a row, so it is built once per
    /// topology rather than once per reader.
    flat: OnceLock<FlatAdjacency>,
}

/// The flattened rows are a cache, invisible in the graph's value.
impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("adj", &self.adj)
            .field("alive", &self.alive)
            .field("live_count", &self.live_count)
            .field("edge_count", &self.edge_count)
            .finish()
    }
}

/// A clone starts without the flattened rows: clones are mostly taken
/// to be mutated, and a reader rebuilds them on demand.
impl Clone for Graph {
    fn clone(&self) -> Self {
        Self {
            adj: self.adj.clone(),
            alive: self.alive.clone(),
            live_count: self.live_count,
            edge_count: self.edge_count,
            flat: OnceLock::new(),
        }
    }
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a graph with `n` isolated live nodes (ids `0..n`).
    pub fn with_nodes(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
            alive: vec![true; n],
            live_count: n,
            edge_count: 0,
            flat: OnceLock::new(),
        }
    }

    /// Add a new isolated node; returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.adj.len() as u32);
        self.adj.push(Vec::new());
        self.alive.push(true);
        self.live_count += 1;
        self.flat.take();
        id
    }

    /// Add a node already connected to `neighbors` (each must be live).
    pub fn add_node_with_neighbors(&mut self, neighbors: &[NodeId]) -> NodeId {
        let id = self.add_node();
        for &v in neighbors {
            self.add_edge(id, v);
        }
        id
    }

    /// Total id space size (live + tombstoned).
    pub fn capacity(&self) -> usize {
        self.adj.len()
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.live_count
    }

    /// Number of undirected edges between live nodes.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether `u` is a valid live node.
    pub fn is_live(&self, u: NodeId) -> bool {
        self.alive.get(u.index()).copied().unwrap_or(false)
    }

    fn assert_live(&self, u: NodeId) {
        assert!(self.is_live(u), "node {u} is not live in this graph");
    }

    /// Insert the undirected edge `{u, v}`. Idempotent; self-loops rejected.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert_ne!(u, v, "self-loops are not allowed");
        self.assert_live(u);
        self.assert_live(v);
        let inserted = insert_sorted(&mut self.adj[u.index()], v);
        if inserted {
            insert_sorted(&mut self.adj[v.index()], u);
            self.edge_count += 1;
            self.flat.take();
        }
    }

    /// Remove the undirected edge `{u, v}` if present; returns whether it
    /// existed.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if !self.is_live(u) || !self.is_live(v) {
            return false;
        }
        let removed = remove_sorted(&mut self.adj[u.index()], v);
        if removed {
            remove_sorted(&mut self.adj[v.index()], u);
            self.edge_count -= 1;
            self.flat.take();
        }
        removed
    }

    /// Remove a node and all incident edges. The id becomes a tombstone and
    /// is never reused. Returns the node's former neighbours.
    pub fn remove_node(&mut self, u: NodeId) -> Vec<NodeId> {
        self.assert_live(u);
        let neighbors = std::mem::take(&mut self.adj[u.index()]);
        for &v in &neighbors {
            remove_sorted(&mut self.adj[v.index()], u);
        }
        self.edge_count -= neighbors.len();
        self.alive[u.index()] = false;
        self.live_count -= 1;
        self.flat.take();
        neighbors
    }

    /// Whether the edge `{u, v}` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.is_live(u) && self.is_live(v) && self.adj[u.index()].binary_search(&v).is_ok()
    }

    /// Sorted neighbours of a live node.
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        self.assert_live(u);
        &self.adj[u.index()]
    }

    /// Every row flattened into one CSR table, in id order. Built on the
    /// first request after a mutation and shared by every later reader
    /// until the next one; concurrent first requests build it once.
    pub fn flat(&self) -> &FlatAdjacency {
        let flat = self.flat.get_or_init(|| FlatAdjacency::build(self));
        debug_assert_eq!(flat.offsets.len(), self.capacity() + 1, "stale flat rows");
        debug_assert_eq!(flat.ids.len(), 2 * self.edge_count, "stale flat rows");
        flat
    }

    /// Degree of a live node.
    pub fn degree(&self, u: NodeId) -> usize {
        self.neighbors(u).len()
    }

    /// Iterator over live node ids in increasing order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Iterator over undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.adj[u.index()]
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// The subgraph of `self` induced by `keep` (live nodes only). Returned
    /// as a new graph whose ids are *the same* as in `self`; nodes outside
    /// `keep` exist as tombstones so ids stay aligned across both graphs.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> Graph {
        let mut in_set = vec![false; self.capacity()];
        for &u in keep {
            if self.is_live(u) {
                in_set[u.index()] = true;
            }
        }
        let mut g = Graph {
            adj: vec![Vec::new(); self.capacity()],
            alive: in_set.clone(),
            live_count: in_set.iter().filter(|&&b| b).count(),
            edge_count: 0,
            flat: OnceLock::new(),
        };
        for (u, v) in self.edges() {
            if in_set[u.index()] && in_set[v.index()] {
                g.adj[u.index()].push(v);
                g.adj[v.index()].push(u);
                g.edge_count += 1;
            }
        }
        for a in &mut g.adj {
            a.sort_unstable();
        }
        g
    }

    /// Verify internal symmetry/sortedness invariants, and that cached
    /// flattened rows, if any, equal the rows. Used by tests.
    pub fn check_invariants(&self) {
        let mut edges = 0;
        for u in self.nodes() {
            let a = &self.adj[u.index()];
            assert!(
                a.windows(2).all(|w| w[0] < w[1]),
                "adjacency not sorted/unique"
            );
            for &v in a {
                assert!(self.is_live(v), "edge to dead node");
                assert!(
                    self.adj[v.index()].binary_search(&u).is_ok(),
                    "asymmetric edge {u}-{v}"
                );
            }
            edges += a.len();
        }
        assert_eq!(edges % 2, 0);
        assert_eq!(edges / 2, self.edge_count, "edge_count out of sync");
        if let Some(flat) = self.flat.get() {
            assert_eq!(flat.offsets.len(), self.capacity() + 1, "stale flat rows");
            for i in 0..self.capacity() {
                let u = NodeId(i as u32);
                let row: &[NodeId] = if self.is_live(u) { &self.adj[i] } else { &[] };
                assert_eq!(flat.row(u), row, "stale flat row of {u}");
            }
        }
    }
}

fn insert_sorted(v: &mut Vec<NodeId>, x: NodeId) -> bool {
    match v.binary_search(&x) {
        Ok(_) => false,
        Err(pos) => {
            v.insert(pos, x);
            true
        }
    }
}

fn remove_sorted(v: &mut Vec<NodeId>, x: NodeId) -> bool {
    match v.binary_search(&x) {
        Ok(pos) => {
            v.remove(pos);
            true
        }
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 1..n {
            g.add_edge(NodeId(i as u32 - 1), NodeId(i as u32));
        }
        g
    }

    #[test]
    fn add_edge_is_idempotent_and_symmetric() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(0));
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        g.check_invariants();
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut g = Graph::with_nodes(1);
        g.add_edge(NodeId(0), NodeId(0));
    }

    #[test]
    fn remove_node_leaves_tombstone() {
        let mut g = path(4);
        let nbrs = g.remove_node(NodeId(1));
        assert_eq!(nbrs, vec![NodeId(0), NodeId(2)]);
        assert!(!g.is_live(NodeId(1)));
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 1);
        // Id 1 is not reused.
        let id = g.add_node();
        assert_eq!(id, NodeId(4));
        g.check_invariants();
    }

    #[test]
    fn remove_edge_reports_presence() {
        let mut g = path(3);
        assert!(g.remove_edge(NodeId(0), NodeId(1)));
        assert!(!g.remove_edge(NodeId(0), NodeId(1)));
        assert_eq!(g.edge_count(), 1);
        g.check_invariants();
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = path(5);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.iter().all(|&(u, v)| u < v));
    }

    #[test]
    fn induced_subgraph_keeps_ids() {
        let mut g = path(5);
        g.add_edge(NodeId(0), NodeId(4));
        let sub = g.induced_subgraph(&[NodeId(0), NodeId(1), NodeId(4)]);
        assert_eq!(sub.node_count(), 3);
        assert!(sub.has_edge(NodeId(0), NodeId(1)));
        assert!(sub.has_edge(NodeId(0), NodeId(4)));
        assert!(!sub.has_edge(NodeId(1), NodeId(2)));
        assert!(!sub.is_live(NodeId(2)));
        sub.check_invariants();
    }

    #[test]
    fn add_node_with_neighbors_wires_all_edges() {
        let mut g = path(3);
        let id = g.add_node_with_neighbors(&[NodeId(0), NodeId(2)]);
        assert_eq!(g.degree(id), 2);
        assert!(g.has_edge(id, NodeId(0)));
        g.check_invariants();
    }

    #[test]
    fn flat_rows_follow_mutations() {
        let mut g = path(4);
        assert_eq!(g.flat().offsets(), &[0, 1, 3, 5, 6]);
        assert_eq!(g.flat().row(NodeId(1)), &[NodeId(0), NodeId(2)]);
        g.remove_node(NodeId(1));
        g.add_node_with_neighbors(&[NodeId(0)]);
        assert_eq!(g.flat().offsets(), &[0, 1, 1, 2, 3, 4]);
        assert!(g.flat().row(NodeId(1)).is_empty());
        assert_eq!(g.flat().row(NodeId(4)), &[NodeId(0)]);
        g.check_invariants();
    }

    #[test]
    fn flat_rows_are_invisible_in_the_value() {
        let g = path(3);
        let before = format!("{g:?}");
        g.flat();
        assert_eq!(format!("{g:?}"), before);
        assert_eq!(format!("{:?}", g.clone()), before);
    }

    #[test]
    fn concurrent_first_requests_share_one_build() {
        let g = path(1000);
        let gate = std::sync::Barrier::new(2);
        let built: Vec<usize> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        gate.wait();
                        g.flat() as *const FlatAdjacency as usize
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(built[0], built[1]);
    }

    #[test]
    fn nodes_skips_tombstones() {
        let mut g = path(3);
        g.remove_node(NodeId(0));
        let live: Vec<_> = g.nodes().collect();
        assert_eq!(live, vec![NodeId(1), NodeId(2)]);
    }
}
