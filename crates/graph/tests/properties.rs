//! Property-based tests of the graph substrate against brute-force
//! oracles.

use dsnet_graph::{
    components, degree, domset, traversal, FlatAdjacency, Graph, NodeId, RootedTree,
};
use proptest::prelude::*;

/// Build a graph from an edge-candidate list over `n` nodes.
fn graph_from(n: u8, edges: &[(u8, u8)]) -> Graph {
    let n = n.max(1) as usize;
    let mut g = Graph::with_nodes(n);
    for &(a, b) in edges {
        let (a, b) = (a as usize % n, b as usize % n);
        if a != b {
            g.add_edge(NodeId(a as u32), NodeId(b as u32));
        }
    }
    g
}

/// Build a random rooted tree over `picks.len() + 1` nodes: node i+1
/// attaches under a uniformly chosen earlier node.
fn tree_from(picks: &[u16]) -> RootedTree {
    let mut t = RootedTree::new(NodeId(0));
    for (i, &p) in picks.iter().enumerate() {
        let parent = NodeId((p as usize % (i + 1)) as u32);
        t.attach(NodeId(i as u32 + 1), parent);
    }
    t
}

/// One row-changing edit, decoded from raw picks over the live ids:
/// add a node, add one wired to up to two live nodes, add an edge,
/// remove an edge (a present one when the picked node has any), or
/// remove a node.
fn edit(g: &mut Graph, op: u8, a: u8, b: u8) {
    let live: Vec<NodeId> = g.nodes().collect();
    if live.is_empty() {
        g.add_node();
        return;
    }
    let (u, v) = (live[a as usize % live.len()], live[b as usize % live.len()]);
    match op % 5 {
        0 => {
            g.add_node();
        }
        1 => {
            g.add_node_with_neighbors(&[u, v]);
        }
        2 => {
            if u != v {
                g.add_edge(u, v);
            }
        }
        3 => {
            let row = g.neighbors(u);
            let w = if row.is_empty() {
                v
            } else {
                row[b as usize % row.len()]
            };
            g.remove_edge(u, w);
        }
        _ => {
            if live.len() > 1 {
                g.remove_node(u);
            }
        }
    }
}

/// Every row of `flat` is the graph's own: `neighbors(u)` for a live id,
/// empty for a tombstone.
fn assert_rows_match(g: &Graph, flat: &FlatAdjacency) -> Result<(), TestCaseError> {
    prop_assert_eq!(flat.offsets().len(), g.capacity() + 1);
    for i in 0..g.capacity() as u32 {
        let u = NodeId(i);
        let row: &[NodeId] = if g.is_live(u) { g.neighbors(u) } else { &[] };
        prop_assert_eq!(flat.row(u), row, "row of {} is stale", u);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The flattened rows never outlive a mutation. A random sequence of
    /// edits, clone-then-mutate and induced subgraphs runs with the rows
    /// requested at random points; after every step `check_invariants`
    /// compares whatever rows are cached (without building any) against
    /// the graph, and every request compares the rows it gets.
    #[test]
    fn flat_rows_never_go_stale(
        n in 1u8..12,
        steps in prop::collection::vec((0u8..8, any::<u8>(), any::<u8>(), any::<u8>()), 1..60),
    ) {
        let mut g = Graph::with_nodes(n as usize);
        for (op, a, b, pick) in steps {
            if pick % 2 == 0 {
                assert_rows_match(&g, g.flat())?;
            }
            match op {
                0..=4 => edit(&mut g, op, a, b),
                5 => {
                    // Clone, then mutate the clone: each copy keeps rows
                    // of its own topology.
                    let mut c = g.clone();
                    edit(&mut c, a, b, pick);
                    if pick % 3 == 0 {
                        assert_rows_match(&c, c.flat())?;
                    }
                    edit(&mut c, b, a, pick);
                    c.check_invariants();
                    g.check_invariants();
                    if pick % 4 < 2 {
                        g = c;
                    }
                }
                _ => {
                    let keep: Vec<NodeId> = g
                        .nodes()
                        .filter(|u| (u64::from(a) << 8 | u64::from(b)) >> (u.0 % 16) & 1 == 1)
                        .collect();
                    let sub = g.induced_subgraph(&keep);
                    assert_rows_match(&sub, sub.flat())?;
                    if pick % 4 < 2 {
                        g = sub;
                    }
                }
            }
            g.check_invariants();
        }
    }

    #[test]
    fn graph_invariants_survive_edits(
        n in 1u8..20,
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 0..60),
        removals in prop::collection::vec(any::<u8>(), 0..6),
    ) {
        let mut g = graph_from(n, &edges);
        g.check_invariants();
        for &r in &removals {
            let live: Vec<NodeId> = g.nodes().collect();
            if live.len() <= 1 {
                break;
            }
            g.remove_node(live[r as usize % live.len()]);
            g.check_invariants();
        }
    }

    #[test]
    fn bfs_distances_satisfy_triangle_property(
        n in 2u8..16,
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 1..40),
    ) {
        let g = graph_from(n, &edges);
        let src = NodeId(0);
        let b = traversal::bfs(&g, src);
        // Every edge (u,v): |dist(u) − dist(v)| ≤ 1 when both reached.
        for (u, v) in g.edges() {
            if let (Some(du), Some(dv)) = (b.dist(u), b.dist(v)) {
                prop_assert!(du.abs_diff(dv) <= 1, "edge {u}-{v}: {du} vs {dv}");
            }
        }
        // Parents are one step closer.
        for u in g.nodes() {
            if let Some(p) = b.parent(u) {
                prop_assert_eq!(b.dist(p).unwrap() + 1, b.dist(u).unwrap());
            }
        }
    }

    #[test]
    fn components_partition_the_graph(
        n in 1u8..20,
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 0..40),
    ) {
        let g = graph_from(n, &edges);
        let comps = components::components(&g);
        let total: usize = comps.iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, g.node_count());
        // No node appears twice and no edge crosses components.
        let mut comp_of = vec![usize::MAX; g.capacity()];
        for (i, c) in comps.iter().enumerate() {
            for &u in c {
                prop_assert_eq!(comp_of[u.index()], usize::MAX);
                comp_of[u.index()] = i;
            }
        }
        for (u, v) in g.edges() {
            prop_assert_eq!(comp_of[u.index()], comp_of[v.index()]);
        }
    }

    #[test]
    fn cut_vertex_matches_the_component_oracle(
        n in 1u8..24,
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 0..48),
        removals in prop::collection::vec(any::<u8>(), 0..4),
    ) {
        // Sparse draws leave isolated nodes and several components;
        // removals leave tombstones between the live ids.
        let mut g = graph_from(n, &edges);
        for &r in &removals {
            let live: Vec<NodeId> = g.nodes().collect();
            if live.len() <= 1 {
                break;
            }
            g.remove_node(live[r as usize % live.len()]);
        }
        for u in g.nodes() {
            let rest: Vec<NodeId> = g.nodes().filter(|&v| v != u).collect();
            let mut comp_of = vec![usize::MAX; g.capacity()];
            for (i, c) in components::components(&g.induced_subgraph(&rest)).iter().enumerate() {
                for &v in c {
                    comp_of[v.index()] = i;
                }
            }
            let mut touched: Vec<usize> = g.neighbors(u).iter().map(|v| comp_of[v.index()]).collect();
            touched.sort_unstable();
            touched.dedup();
            prop_assert_eq!(components::is_cut_vertex(&g, u), touched.len() > 1, "node {}", u);
        }
    }

    #[test]
    fn greedy_sets_are_always_valid(
        n in 1u8..20,
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 0..50),
    ) {
        let g = graph_from(n, &edges);
        let ds = domset::greedy_dominating_set(&g);
        prop_assert!(domset::is_dominating(&g, &ds));
        let mis = domset::greedy_mis(&g);
        prop_assert!(domset::is_independent(&g, &mis));
        prop_assert!(domset::is_dominating(&g, &mis));
        // A dominating set can never be larger than V or smaller than
        // n / (Δ+1).
        let max_deg = degree::max_degree(&g);
        prop_assert!(ds.len() * (max_deg + 1) >= g.node_count());
    }

    #[test]
    fn detach_subtree_then_counts_add_up(
        picks in prop::collection::vec(any::<u16>(), 1..40),
        victim_pick in any::<u16>(),
    ) {
        let mut t = tree_from(&picks);
        let nodes: Vec<NodeId> = t.nodes().collect();
        let victim = nodes[victim_pick as usize % (nodes.len() - 1) + 1]; // never root
        let before = t.len();
        let removed = t.detach_subtree(victim);
        prop_assert_eq!(t.len() + removed.len(), before);
        t.check_invariants();
        for &r in &removed {
            prop_assert!(!t.contains(r));
        }
    }
}
