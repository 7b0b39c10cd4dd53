//! Randomized neighbour discovery — the distributed primitive behind
//! `node-move-in`.
//!
//! Theorem 2 of the paper inherits from \[19\] that a joining node can
//! discover its neighbourhood in `O(d_new)` *expected* rounds on the
//! collision-prone single channel. This module implements the classic
//! windowed-ALOHA realisation of that primitive and runs it on the radio
//! simulator, so the reconfiguration experiments can measure the constant
//! behind the `O(·)`:
//!
//! 1. the newcomer transmits a HELLO in round 1 — every neighbour hears
//!    it (nobody else is transmitting);
//! 2. discovery proceeds in *phases* with doubling windows `1, 2, 4, …`
//!    rounds: every still-undiscovered neighbour picks a uniform slot in
//!    the window and transmits its identity; the newcomer listens;
//! 3. after each window the newcomer transmits a cumulative acknowledgment
//!    (one round); acknowledged neighbours go quiet;
//! 4. the session ends once two consecutive windows of size at least
//!    twice the provisioned degree bound discover nobody new.
//!
//! Once the window reaches ~`d_new`, each remaining neighbour is heard
//! with constant probability per phase, so *discovery* completes in
//! `O(d_new)` expected rounds — the paper's Theorem-2 ingredient, reported
//! as [`JoinOutcome::discovery_rounds`]. Deciding that discovery is over
//! is a separate problem: with no collision detection and no degree
//! knowledge a newcomer cannot distinguish "nobody left" from "everybody
//! collided", so termination uses a provisioned network-wide degree bound
//! (the kind of constant a deployed sensor ships with), costing an `O(D)`
//! tail on top of the `O(d_new)` discovery. The simulation reports both.

use dsnet_geom::rng::{derive_seed, rng_from_seed, Rng};
use dsnet_graph::{Graph, NodeId};
use dsnet_radio::{Action, Engine, EngineConfig, NodeCtx, NodeProgram};
use rand::Rng as _;
use std::collections::BTreeSet;

/// Packets of the discovery protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinMsg {
    /// Newcomer's initial probe.
    Hello,
    /// A neighbour announcing itself.
    Announce(NodeId),
    /// Newcomer's cumulative acknowledgment after a window.
    Ack(Vec<NodeId>),
}

/// Role/state of one participant.
#[allow(clippy::large_enum_variant)] // one program per node; size is irrelevant
enum Role {
    Newcomer {
        discovered: BTreeSet<NodeId>,
        /// Window length of the current phase.
        window: u64,
        /// Round the current window started (exclusive).
        window_start: u64,
        /// Discoveries within the current window.
        new_this_window: usize,
        /// Consecutive windows that discovered nobody new.
        empty_streak: u32,
        /// Round of the most recent new discovery.
        last_discovery: u64,
        /// Termination threshold: stop after two empty windows of at
        /// least this size.
        min_stop_window: u64,
        finished: bool,
    },
    Neighbor {
        /// Heard the HELLO, still announcing.
        active: bool,
        acked: bool,
        /// Chosen slot within the current window (1-based).
        slot: u64,
        window: u64,
        window_start: u64,
        rng: Rng,
    },
    Bystander,
}

/// Per-node program for one discovery session.
pub struct JoinProgram {
    id: NodeId,
    role: Role,
}

impl JoinProgram {
    /// `degree_hint`: a provisioned upper bound on the node degree in
    /// this deployment, used only to decide when to stop probing.
    pub fn newcomer(degree_hint: usize) -> Self {
        Self {
            id: NodeId(u32::MAX),
            role: Role::Newcomer {
                discovered: BTreeSet::new(),
                window: 1,
                window_start: 1,
                new_this_window: 0,
                empty_streak: 0,
                last_discovery: 0,
                min_stop_window: (2 * degree_hint as u64).max(8),
                finished: false,
            },
        }
    }

    /// Round of the newcomer's most recent discovery (0 if none).
    pub fn last_discovery_round(&self) -> u64 {
        match &self.role {
            Role::Newcomer { last_discovery, .. } => *last_discovery,
            _ => 0,
        }
    }

    /// A potential neighbour of the newcomer.
    pub fn neighbor(id: NodeId, seed: u64) -> Self {
        Self {
            id,
            role: Role::Neighbor {
                active: false,
                acked: false,
                slot: 1,
                window: 1,
                window_start: 1,
                rng: rng_from_seed(seed),
            },
        }
    }

    /// A node out of the session (sleeps throughout).
    pub fn bystander(id: NodeId) -> Self {
        Self {
            id,
            role: Role::Bystander,
        }
    }

    /// The newcomer's discovered set (None for other roles).
    pub fn discovered(&self) -> Option<&BTreeSet<NodeId>> {
        match &self.role {
            Role::Newcomer { discovered, .. } => Some(discovered),
            _ => None,
        }
    }
}

impl NodeProgram for JoinProgram {
    type Msg = JoinMsg;

    fn act(&mut self, ctx: &NodeCtx) -> Action<JoinMsg> {
        let r = ctx.round;
        match &mut self.role {
            Role::Newcomer {
                discovered,
                window,
                window_start,
                new_this_window,
                empty_streak,
                last_discovery: _,
                min_stop_window,
                finished,
            } => {
                if *finished {
                    return Action::Sleep;
                }
                if r == 1 {
                    return Action::transmit(JoinMsg::Hello);
                }
                let window_end = *window_start + *window;
                if r <= window_end {
                    return Action::listen();
                }
                // Ack round: close the window, decide whether to continue.
                // A lone undiscovered neighbour always gets through (no one
                // else transmits), so two consecutive empty windows at size
                // ≥ 8 mean the neighbourhood is exhausted with high
                // probability.
                let ack = Action::transmit(JoinMsg::Ack(discovered.iter().copied().collect()));
                if *new_this_window == 0 {
                    *empty_streak += 1;
                } else {
                    *empty_streak = 0;
                }
                let stalled = *empty_streak >= 2 && *window >= *min_stop_window;
                *new_this_window = 0;
                *window_start = window_end + 1;
                *window *= 2;
                if stalled {
                    *finished = true;
                }
                ack
            }
            Role::Neighbor {
                active,
                acked,
                slot,
                window,
                window_start,
                rng,
            } => {
                if *acked {
                    return Action::Sleep;
                }
                if r == 1 {
                    return Action::listen(); // hear the HELLO
                }
                if !*active {
                    return Action::Sleep;
                }
                let window_end = *window_start + *window;
                if r <= window_end {
                    if r == *window_start + *slot {
                        return Action::transmit(JoinMsg::Announce(self.id));
                    }
                    return Action::Sleep;
                }
                // Ack round: listen for the newcomer's cumulative ack, then
                // re-draw a slot for the doubled window.
                let act = Action::listen();
                *window_start = window_end + 1;
                *window *= 2;
                *slot = rng.random_range(1..=*window);
                act
            }
            Role::Bystander => Action::Sleep,
        }
    }

    fn on_receive(&mut self, _ctx: &NodeCtx, from: NodeId, msg: &JoinMsg) {
        let _ = &_ctx;
        match (&mut self.role, msg) {
            (
                Role::Newcomer {
                    discovered,
                    new_this_window,
                    last_discovery,
                    ..
                },
                JoinMsg::Announce(id),
            ) => {
                debug_assert_eq!(from, *id);
                if discovered.insert(*id) {
                    *new_this_window += 1;
                    *last_discovery = _ctx.round;
                }
            }
            (
                Role::Neighbor {
                    active,
                    slot,
                    window,
                    rng,
                    ..
                },
                JoinMsg::Hello,
            ) => {
                *active = true;
                *slot = rng.random_range(1..=*window);
            }
            (Role::Neighbor { acked, .. }, JoinMsg::Ack(ids)) if ids.contains(&self.id) => {
                *acked = true;
            }
            _ => {}
        }
    }

    fn done(&self) -> bool {
        match &self.role {
            Role::Newcomer { finished, .. } => *finished,
            Role::Neighbor { acked, active, .. } => *acked || !*active,
            Role::Bystander => true,
        }
    }
}

/// Result of one simulated discovery session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinOutcome {
    /// Rounds until the newcomer stopped probing (includes the O(D)
    /// termination tail).
    pub rounds: u64,
    /// Round at which the last neighbour was discovered — the paper's
    /// `O(d_new)` quantity (0 for isolated nodes).
    pub discovery_rounds: u64,
    /// Neighbours it discovered.
    pub discovered: Vec<NodeId>,
    /// True degree of the newcomer.
    pub degree: usize,
    /// Whether every neighbour was found.
    pub complete: bool,
}

/// Simulate the discovery a node with id `newcomer` (already present in
/// `graph` with its radio edges) would run on joining, provisioned with
/// `degree_hint` as its stop bound. Deterministic per `seed`.
pub fn simulate_join(
    graph: &Graph,
    newcomer: NodeId,
    degree_hint: usize,
    seed: u64,
) -> JoinOutcome {
    let degree = graph.degree(newcomer);
    let neighbors: BTreeSet<NodeId> = graph.neighbors(newcomer).iter().copied().collect();
    let mut engine = Engine::new(
        graph,
        EngineConfig {
            max_rounds: 64 + 32 * degree_hint.max(degree) as u64,
            ..Default::default()
        },
        |u| {
            if u == newcomer {
                JoinProgram::newcomer(degree_hint)
            } else if neighbors.contains(&u) {
                JoinProgram::neighbor(u, derive_seed(seed, u.0 as u64))
            } else {
                JoinProgram::bystander(u)
            }
        },
    );
    let out = engine.run();
    let programs = engine.into_programs();
    let newcomer_prog = programs[newcomer.index()].as_ref();
    let discovered: Vec<NodeId> = newcomer_prog
        .and_then(|p| p.discovered().map(|d| d.iter().copied().collect()))
        .unwrap_or_default();
    let discovery_rounds = newcomer_prog.map_or(0, |p| p.last_discovery_round());
    let complete = discovered.len() == degree;
    JoinOutcome {
        rounds: out.rounds,
        discovery_rounds,
        discovered,
        degree,
        complete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star(leaves: usize) -> Graph {
        let mut g = Graph::with_nodes(leaves + 1);
        for i in 1..=leaves {
            g.add_edge(NodeId(0), NodeId(i as u32));
        }
        g
    }

    #[test]
    fn single_neighbor_is_found_quickly() {
        let g = star(1);
        let out = simulate_join(&g, NodeId(0), 4, 7);
        assert!(out.complete);
        assert_eq!(out.discovered, vec![NodeId(1)]);
        // Found in the very first window.
        assert_eq!(out.discovery_rounds, 2);
    }

    #[test]
    fn dense_neighborhood_discovery_is_linear_in_degree() {
        for &d in &[4usize, 8, 16, 32] {
            let g = star(d);
            let mut total_discovery = 0u64;
            let mut complete = 0;
            for seed in 0..10 {
                let out = simulate_join(&g, NodeId(0), d, seed);
                total_discovery += out.discovery_rounds;
                complete += usize::from(out.complete);
            }
            assert_eq!(complete, 10, "d={d}: only {complete}/10 complete");
            let avg = total_discovery as f64 / 10.0;
            // Discovery (not termination) is O(d_new): generous constant.
            assert!(avg <= 12.0 * d as f64 + 20.0, "d={d}: avg discovery {avg}");
        }
    }

    #[test]
    fn isolated_newcomer_terminates() {
        let g = Graph::with_nodes(1);
        let out = simulate_join(&g, NodeId(0), 4, 1);
        assert!(out.discovered.is_empty());
        assert_eq!(out.degree, 0);
        assert!(out.complete);
        assert_eq!(out.discovery_rounds, 0);
        assert!(out.rounds < 64);
    }

    #[test]
    fn bystanders_spend_no_energy() {
        let mut g = star(3);
        // A node out of range of the newcomer.
        let far = g.add_node();
        g.add_edge(far, NodeId(1));
        let neighbors: BTreeSet<NodeId> = g.neighbors(NodeId(0)).iter().copied().collect();
        let mut engine = Engine::new(&g, EngineConfig::default(), |u| {
            if u == NodeId(0) {
                JoinProgram::newcomer(4)
            } else if neighbors.contains(&u) {
                JoinProgram::neighbor(u, u.0 as u64)
            } else {
                JoinProgram::bystander(u)
            }
        });
        engine.run();
        assert_eq!(engine.meter(far).awake_rounds(), 0);
    }

    #[test]
    fn discovery_is_deterministic_per_seed() {
        let g = star(6);
        let a = simulate_join(&g, NodeId(0), 6, 42);
        let b = simulate_join(&g, NodeId(0), 6, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn underestimated_hint_still_bounded() {
        // A too-small hint may terminate early and miss neighbours, but the
        // session must still end and report honestly.
        let g = star(24);
        let out = simulate_join(&g, NodeId(0), 2, 3);
        assert!(out.rounds < 64 + 32 * 24);
        assert!(out.discovered.len() <= 24);
    }
}
