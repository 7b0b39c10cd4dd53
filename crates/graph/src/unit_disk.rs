//! Building the connectivity graph from a geometric deployment.
//!
//! Two nodes share an edge iff they are within the radio range of each
//! other — the *unit-disk* model the paper assumes throughout (and relies
//! on for Property 1(3)).

use crate::graph::{Graph, NodeId};
use dsnet_geom::{Deployment, GridIndex, Point2};

/// Build the unit-disk graph of `positions` with communication `range`.
///
/// Node `i` of the result corresponds to `positions[i]`. Runs in
/// O(n + m) expected time via a grid spatial hash.
pub fn unit_disk_graph(positions: &[Point2], range: f64) -> Graph {
    let mut g = Graph::with_nodes(positions.len());
    if positions.is_empty() {
        return g;
    }
    let (w, h) = bounds(positions);
    let mut idx = GridIndex::new(w.max(range), h.max(range), range);
    for (i, &p) in positions.iter().enumerate() {
        // Connect to previously inserted points only: each edge found once.
        idx.for_each_within(p, range, |j| {
            g.add_edge(NodeId(i as u32), NodeId(j as u32));
        });
        idx.insert(p);
    }
    g
}

/// Build the unit-disk graph of a [`Deployment`] using its configured range.
pub fn graph_of_deployment(dep: &Deployment) -> Graph {
    unit_disk_graph(&dep.positions, dep.config.range)
}

fn bounds(positions: &[Point2]) -> (f64, f64) {
    let mut w = 0.0f64;
    let mut h = 0.0f64;
    for p in positions {
        w = w.max(p.x);
        h = h.max(p.y);
    }
    // GridIndex requires strictly positive dimensions.
    (w.max(1e-9), h.max(1e-9))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsnet_geom::{DeploymentConfig, Region};

    #[test]
    fn matches_brute_force() {
        let dep = Deployment::generate(DeploymentConfig::paper(200, 17));
        let g = graph_of_deployment(&dep);
        let r2 = dep.config.range * dep.config.range;
        for i in 0..dep.len() {
            for j in (i + 1)..dep.len() {
                let expected = dep.positions[i].dist_sq(dep.positions[j]) <= r2;
                assert_eq!(
                    g.has_edge(NodeId(i as u32), NodeId(j as u32)),
                    expected,
                    "edge ({i},{j}) mismatch"
                );
            }
        }
        g.check_invariants();
    }

    #[test]
    fn range_boundary_is_inclusive() {
        let g = unit_disk_graph(
            &[
                Point2::new(0.0, 0.0),
                Point2::new(0.5, 0.0),
                Point2::new(1.01, 0.0),
            ],
            0.5,
        );
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
        assert!(!g.has_edge(NodeId(1), NodeId(2)));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(unit_disk_graph(&[], 0.5).node_count(), 0);
        let g = unit_disk_graph(&[Point2::new(3.0, 3.0)], 0.5);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn incremental_deployment_yields_connected_graph() {
        let dep = Deployment::generate(DeploymentConfig {
            region: Region::paper_8x8(),
            n: 150,
            range: 0.5,
            seed: 4,
        });
        let g = graph_of_deployment(&dep);
        assert!(crate::components::is_connected(&g));
    }
}
