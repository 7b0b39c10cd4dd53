//! Connectivity queries.

use crate::graph::{Graph, NodeId};
use crate::traversal::bfs;
use std::collections::VecDeque;

/// Whether the live part of `g` is connected (vacuously true when empty).
pub fn is_connected(g: &Graph) -> bool {
    let Some(start) = g.nodes().next() else {
        return true;
    };
    bfs(g, start).reached_count() == g.node_count()
}

/// Connected components of the live nodes, each sorted by id; components
/// are ordered by their smallest node id.
pub fn components(g: &Graph) -> Vec<Vec<NodeId>> {
    let mut seen = vec![false; g.capacity()];
    let mut out = Vec::new();
    for u in g.nodes() {
        if seen[u.index()] {
            continue;
        }
        let b = bfs(g, u);
        let mut comp = b.order;
        for &v in &comp {
            seen[v.index()] = true;
        }
        comp.sort_unstable();
        out.push(comp);
    }
    out
}

/// Ids of the nodes in the same component as `u` (sorted).
pub fn component_of(g: &Graph, u: NodeId) -> Vec<NodeId> {
    let mut comp = bfs(g, u).order;
    comp.sort_unstable();
    comp
}

/// Whether `u` is a cut vertex of `g`: its neighbours lie in more than
/// one component of `g − u`. On a connected `g` that is exactly "`g − u`
/// is disconnected". A node with at most one neighbour is never one.
/// `u` must be live.
///
/// The search is local to `u`: a breadth-first search over `g − u` from
/// `u`'s lowest-id neighbour answers `false` as soon as it has reached
/// every other neighbour of `u`, and `true` only when it runs out of
/// nodes first, so a cut vertex costs one whole side of the cut.
/// Breadth-first order finds `u`'s neighbours, which are close to each
/// other, before the search spreads across the graph.
pub fn is_cut_vertex(g: &Graph, u: NodeId) -> bool {
    let targets = g.neighbors(u);
    let Some((&start, rest)) = targets.split_first() else {
        return false;
    };
    let mut missing = rest.len();
    if missing == 0 {
        return false;
    }
    let mut seen = vec![false; g.capacity()];
    seen[u.index()] = true; // barred: traversal must route around it
    seen[start.index()] = true;
    let mut queue = VecDeque::from([start]);
    while let Some(x) = queue.pop_front() {
        for &v in g.neighbors(x) {
            if !seen[v.index()] {
                seen[v.index()] = true;
                if targets.binary_search(&v).is_ok() {
                    missing -= 1;
                    if missing == 0 {
                        return false;
                    }
                }
                queue.push_back(v);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connected_and_disconnected() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(2), NodeId(3));
        assert!(!is_connected(&g));
        g.add_edge(NodeId(1), NodeId(2));
        assert!(is_connected(&g));
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(is_connected(&Graph::new()));
    }

    #[test]
    fn components_partition_nodes() {
        let mut g = Graph::with_nodes(5);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(3), NodeId(4));
        let comps = components(&g);
        assert_eq!(
            comps,
            vec![
                vec![NodeId(0), NodeId(1)],
                vec![NodeId(2)],
                vec![NodeId(3), NodeId(4)],
            ]
        );
    }

    fn graph_with(n: usize, edges: &[(u32, u32)]) -> Graph {
        let mut g = Graph::with_nodes(n);
        for &(a, b) in edges {
            g.add_edge(NodeId(a), NodeId(b));
        }
        g
    }

    fn cut_vertices(g: &Graph) -> Vec<NodeId> {
        g.nodes().filter(|&u| is_cut_vertex(g, u)).collect()
    }

    #[test]
    fn chain_interior_is_cut_and_endpoints_are_not() {
        let g = graph_with(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(cut_vertices(&g), vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn star_centre_is_the_only_cut_vertex() {
        let g = graph_with(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        assert_eq!(cut_vertices(&g), vec![NodeId(0)]);
    }

    #[test]
    fn cycle_has_no_cut_vertex() {
        let g = graph_with(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        assert!(cut_vertices(&g).is_empty());
    }

    #[test]
    fn bowtie_centre_is_cut() {
        // Two triangles sharing node 2.
        let g = graph_with(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]);
        assert_eq!(cut_vertices(&g), vec![NodeId(2)]);
    }

    #[test]
    fn ring_neighbours_reconnect_the_long_way_round() {
        // Each node's two neighbours meet again only after 48 hops; one
        // missing edge turns the ring into a chain of cut vertices.
        let n = 50u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let mut g = graph_with(n as usize, &edges);
        assert!(cut_vertices(&g).is_empty());
        g.remove_edge(NodeId(n - 1), NodeId(0));
        assert_eq!(cut_vertices(&g), (1..n - 1).map(NodeId).collect::<Vec<_>>());
    }

    #[test]
    fn cut_vertex_ignores_components_away_from_it() {
        // A lone node is never a cut vertex, and neither is a node whose
        // neighbours stay together while another component sits apart.
        assert!(!is_cut_vertex(&Graph::with_nodes(1), NodeId(0)));
        let g = graph_with(6, &[(0, 1), (1, 2), (2, 0), (4, 5)]);
        assert!(cut_vertices(&g).is_empty());
    }

    #[test]
    fn component_of_returns_reachable_set() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(2));
        assert_eq!(component_of(&g, NodeId(0)), vec![NodeId(0), NodeId(2)]);
        assert_eq!(component_of(&g, NodeId(1)), vec![NodeId(1)]);
    }
}
