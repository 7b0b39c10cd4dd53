//! Breadth-first search with distances and parent links.

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Result of a BFS from a single source.
#[derive(Debug, Clone)]
pub struct Bfs {
    /// `dist[u] == u32::MAX` means unreachable (or tombstoned).
    dist: Vec<u32>,
    /// Parent on a shortest-path tree; `parent[source] == None`.
    parent: Vec<Option<NodeId>>,
    /// Visited nodes in dequeue order (source first).
    pub order: Vec<NodeId>,
    /// The BFS source.
    pub source: NodeId,
}

/// Sentinel distance for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

impl Bfs {
    /// Hop distance from the source, if reachable.
    pub fn dist(&self, u: NodeId) -> Option<u32> {
        match self.dist.get(u.index()) {
            Some(&d) if d != UNREACHABLE => Some(d),
            _ => None,
        }
    }

    /// Shortest-path-tree parent, if any.
    pub fn parent(&self, u: NodeId) -> Option<NodeId> {
        self.parent.get(u.index()).copied().flatten()
    }

    /// Whether the source reaches `u`.
    pub fn reached(&self, u: NodeId) -> bool {
        self.dist(u).is_some()
    }

    /// Number of reachable nodes, including the source.
    pub fn reached_count(&self) -> usize {
        self.order.len()
    }

    /// Shortest path from source to `u` (inclusive), if reachable.
    pub fn path_to(&self, u: NodeId) -> Option<Vec<NodeId>> {
        if !self.reached(u) {
            return None;
        }
        let mut path = vec![u];
        let mut cur = u;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }
}

/// BFS over the live nodes of `g` from `source`.
pub fn bfs(g: &Graph, source: NodeId) -> Bfs {
    assert!(g.is_live(source), "BFS source {source} is not live");
    let cap = g.capacity();
    let mut dist = vec![UNREACHABLE; cap];
    let mut parent = vec![None; cap];
    let mut order = Vec::with_capacity(g.node_count());
    let mut queue = VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        let du = dist[u.index()];
        for &v in g.neighbors(u) {
            if dist[v.index()] == UNREACHABLE {
                dist[v.index()] = du + 1;
                parent[v.index()] = Some(u);
                queue.push_back(v);
            }
        }
    }
    Bfs {
        dist,
        parent,
        order,
        source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 0..n {
            g.add_edge(NodeId(i as u32), NodeId(((i + 1) % n) as u32));
        }
        g
    }

    #[test]
    fn distances_on_a_cycle() {
        let g = cycle(6);
        let b = bfs(&g, NodeId(0));
        assert_eq!(b.dist(NodeId(0)), Some(0));
        assert_eq!(b.dist(NodeId(1)), Some(1));
        assert_eq!(b.dist(NodeId(3)), Some(3));
        assert_eq!(b.dist(NodeId(5)), Some(1));
        assert_eq!(b.reached_count(), 6);
    }

    #[test]
    fn unreachable_nodes_report_none() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        let b = bfs(&g, NodeId(0));
        assert_eq!(b.dist(NodeId(2)), None);
        assert!(!b.reached(NodeId(2)));
        assert_eq!(b.reached_count(), 2);
        assert_eq!(b.path_to(NodeId(2)), None);
    }

    #[test]
    fn path_to_follows_parents() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        let b = bfs(&g, NodeId(0));
        assert_eq!(
            b.path_to(NodeId(3)).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn order_starts_at_source_and_is_monotone_in_dist() {
        let g = cycle(8);
        let b = bfs(&g, NodeId(2));
        assert_eq!(b.order[0], NodeId(2));
        let dists: Vec<_> = b.order.iter().map(|&u| b.dist(u).unwrap()).collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn bfs_skips_tombstones() {
        let mut g = cycle(5);
        g.remove_node(NodeId(1));
        let b = bfs(&g, NodeId(0));
        // 0-4-3-2 remains a path.
        assert_eq!(b.dist(NodeId(2)), Some(3));
    }
}
