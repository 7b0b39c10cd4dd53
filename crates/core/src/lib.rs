#![warn(missing_docs)]

//! # dsnet — dynamic cluster-based sensor-network broadcast/multicast
//!
//! A full reproduction of *"Novel Broadcast/Multicast Protocols for
//! Dynamic Sensor Networks"* (IEEE IPDPS 2007): the self-constructing,
//! self-reconfiguring cluster architecture CNet(G), its incremental TDM
//! time-slot maintenance, and the collision-free-flooding broadcast and
//! multicast protocols, all executed against a round-synchronous radio
//! simulator with the paper's collision semantics.
//!
//! ## Quick start
//!
//! ```
//! use dsnet::{NetworkBuilder, Protocol};
//!
//! // 200 nodes on the paper's 10×10-unit field (1 unit = 100 m, 50 m radio
//! // range), deployed incrementally-connected with seed 7.
//! let network = NetworkBuilder::paper(200, 7).build().unwrap();
//!
//! // Broadcast from the sink with the paper's improved CFF protocol.
//! let out = network.broadcast(Protocol::ImprovedCff);
//! assert!(out.completed());
//!
//! // Compare against the DFO baseline of reference \[19\].
//! let dfo = network.broadcast(Protocol::Dfo);
//! assert!(out.rounds < dfo.rounds);
//! ```
//!
//! ## Layers
//!
//! | layer | crate | what it provides |
//! |---|---|---|
//! | geometry | `dsnet-geom` | fields, deployments, spatial hashing |
//! | graph | `dsnet-graph` | unit-disk graphs, BFS, trees |
//! | radio | `dsnet-radio` | the §3.1 round/collision model, energy, failures |
//! | cluster | `dsnet-cluster` | CNet(G), BT(G), slots, move-in/out, MCNet |
//! | mobility | `dsnet-mobility` | trajectory models, incremental topology diffing, maintenance |
//! | protocols | `dsnet-protocols` | DFO, CFF (Alg 1), improved CFF (Alg 2), multicast |
//! | this crate | `dsnet` | [`SensorNetwork`], [`NetworkBuilder`], [`experiments`] |
//!
//! The [`experiments`] module regenerates every figure of the paper's
//! evaluation (Figures 8–11) plus the extension tables listed in
//! DESIGN.md; this crate's `figures` binary prints them
//! (`cargo run -p dsnet --release --bin figures`).

pub mod builder;
pub mod campaign;
pub mod experiments;
pub mod multinet;
pub mod network;
pub mod perf;
pub mod session;
pub mod viz;

pub use builder::{BuildError, GroupPlan, NetworkBuilder};
pub use dsnet_protocols::runner::{Broadcast, Protocol};
pub use multinet::{FailoverOutcome, MultiNet};
pub use network::{NetworkStats, SensorNetwork};
pub use session::{CommandRecord, CommandStatus, NetSession, SessionCommand, SessionSpec};

// Re-export the layer crates so downstream users need a single dependency.
pub use dsnet_campaign as campaign_engine;
pub use dsnet_cluster as cluster;
pub use dsnet_geom as geom;
pub use dsnet_graph as graph;
pub use dsnet_metrics as metrics;
pub use dsnet_mobility as mobility;
pub use dsnet_protocols as protocols;
pub use dsnet_radio as radio;
