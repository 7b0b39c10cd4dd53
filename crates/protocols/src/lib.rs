#![warn(missing_docs)]

//! Broadcast and multicast protocols of Section 3, executed as per-node
//! state machines on the [`dsnet_radio`] simulator.
//!
//! * [`dfo`] — the **depth-first-order** baseline of reference \[19\]
//!   (Section 3.2): a token carries the message along an Eulerian tour of
//!   the backbone; one transmitter per round; every node stays awake until
//!   the tour ends. Fast to describe, slow and fragile in practice — the
//!   paper's comparison target.
//! * [`cff`] — **Algorithm 1** and **Algorithm 2** as one collision-free
//!   flooding machine on two schedules. Algorithm 1 floods the whole
//!   CNet(G), one TDM window of `Δ'` rounds per tree depth; Algorithm 2
//!   floods the backbone using b-time-slots (`δ`-round windows), then
//!   delivers to the pure-member leaves in a single `Δ`-round window using
//!   l-time-slots. Both support `k` radio channels (Section 3.3
//!   "Multi-Channels"); Algorithm 2 also runs the relay-list-pruned
//!   multicast (Section 3.4).
//! * [`reliable`] — bounded-retry **reliable CFF**: Algorithm 1 extended
//!   with per-hop NACK/retransmit epochs and deterministic backoff, so
//!   delivery degrades gracefully on lossy channels instead of silencing
//!   whole subtrees on a single drop.
//! * [`multicast`] — the multicast front-end over MCNet(G).
//! * [`knowledge`] — extraction of the per-node knowledge (I)+(II) the
//!   paper assumes (depth, slots, height, δ, Δ, backbone adjacency) from a
//!   built [`ClusterNet`](dsnet_cluster::ClusterNet), with Algorithm 1's
//!   flood slots and Δ' as a separate part built only on demand.
//! * [`arrival`] — the end-to-end distributed `node-move-in` session
//!   (radio discovery + local Definition-1 parent choice + structural
//!   attachment), the composed object Theorem 2 prices.
//! * [`flooding`] — the unstructured randomized-backoff flooding
//!   baseline (the broadcast-storm strawman of the introduction, \[16\]).
//! * [`join`] — the randomized neighbour-discovery primitive behind
//!   `node-move-in` (the `O(d_new)` expected-round procedure Theorem 2
//!   inherits from \[19\]), as a windowed-ALOHA session on the simulator.
//! * [`runner`] — one-call experiment drivers returning a uniform
//!   `BroadcastOutcome` (rounds, delivery,
//!   awake/energy, collisions), with optional failure injection.
//! * [`analytic`] — closed-form completion-round predictions used to
//!   cross-check the simulated executions against Lemma 1 / Theorem 1.

pub mod analytic;
pub mod arrival;
pub mod cff;
pub mod dfo;
pub mod flooding;
pub mod join;
pub mod knowledge;
pub mod multicast;
pub mod reliable;
pub mod runner;

pub use knowledge::{FloodKnowledge, KnowledgeCache, NetKnowledge, NodeKnowledge};
pub use runner::{Broadcast, BroadcastOutcome, Coverage, Protocol, RunConfig};

/// Test fixture: the path `0 — 1 — … — n-1`, each node arriving next to
/// the one before.
#[cfg(test)]
pub(crate) fn chain_net(n: u32) -> dsnet_cluster::ClusterNet {
    let mut net = dsnet_cluster::ClusterNet::with_defaults();
    net.move_in(&[]).unwrap();
    for i in 1..n {
        net.move_in(&[dsnet_graph::NodeId(i - 1)]).unwrap();
    }
    net
}
