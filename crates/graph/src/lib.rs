#![warn(missing_docs)]

//! Graph substrate for the dsnet reproduction.
//!
//! The paper models a wireless sensor network as an undirected graph
//! `G = (V, E)` where an edge connects two nodes iff they are within radio
//! range (a *unit-disk graph*). Every higher layer — the cluster
//! architecture, the radio simulator's collision rule, the protocols —
//! operates on this representation.
//!
//! Contents:
//! * [`Graph`] — a dynamic undirected graph with O(1) node-id stability
//!   under insertion and removal (ids are never recycled within a graph),
//!   whose rows flatten on demand into a cached [`FlatAdjacency`],
//! * [`unit_disk`] — building `G` from a geometric deployment,
//! * [`traversal`] — BFS with distances and parents,
//! * [`components`] — connectivity and connected components,
//! * [`degree`] — degree statistics for `G` and induced subgraphs,
//! * [`domset`] — greedy dominating-set / maximal-independent-set
//!   approximations (used to sanity-check Property 1(3) of the paper),
//! * [`tree`] — rooted trees over graph nodes (parents, children, depths,
//!   heights) with structural validation.

pub mod components;
pub mod degree;
pub mod domset;
pub mod graph;
pub mod traversal;
pub mod tree;
pub mod unit_disk;

pub use graph::{FlatAdjacency, Graph, NodeId};
pub use tree::RootedTree;
