//! Session-specific slot assignment for pruned (multicast) sessions.
//!
//! The paper's multicast reuses the broadcast time-slots and simply mutes
//! the transmitters whose subtree contains no group member. Muting
//! transmitters can *break* Time-Slot Condition 2: a receiver whose only
//! uniquely-slotted neighbour went quiet may now face two same-slot
//! relays and lose the round — a rare but real delivery gap the test
//! suite demonstrates.
//!
//! This module provides the repair the paper's machinery suggests but
//! never spells out: re-run the greedy slot assignment **restricted to
//! the session's participants**. The session initiator (the root owns all
//! the needed knowledge) computes b-/l-slots such that every listening
//! participant has a uniquely-slotted *participating* transmitter, at the
//! same `d(d+1)/2+1` / `D(D+1)/2+1` worst case. Because sessions involve
//! fewer transmitters, the session `δ`/`Δ` are usually *smaller* than the
//! broadcast ones, so reliable multicast is also faster.

use crate::slots::view::NetView;
use crate::slots::{min_safe_slot, SlotKind, SlotMode, SlotTable};
use dsnet_graph::NodeId;

/// Assign session slots. `tx(u)` — node forwards in this session;
/// `rx(u)` — node must receive. Returns a fresh slot table populated only
/// for participating transmitters.
pub fn assign_session_slots(
    view: &NetView<'_>,
    mode: SlotMode,
    tx: &dyn Fn(NodeId) -> bool,
    rx: &dyn Fn(NodeId) -> bool,
) -> SlotTable {
    let cap = view.graph.capacity();
    let mut slots = SlotTable::with_capacity(cap);

    // Phase-1 (backbone) slots: BT-internal participants, by (depth, id).
    let mut b_transmitters: Vec<NodeId> = view
        .tree
        .nodes()
        .filter(|&u| view.bt_internal(u) && tx(u))
        .collect();
    b_transmitters.sort_by_key(|&u| (view.tree.depth(u), u));
    let mut scratch = Vec::new();
    for &y in &b_transmitters {
        let assigned = &slots;
        let slot = min_safe_slot(
            view.c_b_iter(y).filter(|&v| rx(v) || tx(v)),
            |v| {
                view.p_b_iter(v)
                    .filter(move |&t| t != y && tx(t))
                    .filter_map(move |t| assigned.b(t))
            },
            &mut scratch,
        );
        slots.set(SlotKind::B, y, slot);
    }

    // Phase-2 (leaf) slots: CNet-internal participants.
    let mut l_transmitters: Vec<NodeId> = view
        .tree
        .nodes()
        .filter(|&u| view.cnet_internal(u) && tx(u))
        .collect();
    l_transmitters.sort_by_key(|&u| (view.tree.depth(u), u));
    for &y in &l_transmitters {
        let assigned = &slots;
        let slot = min_safe_slot(
            view.c_l_iter(y, mode).filter(|&v| rx(v)),
            |v| {
                view.p_l_iter(v, mode)
                    .filter(move |&t| t != y && tx(t))
                    .filter_map(move |t| assigned.l(t))
            },
            &mut scratch,
        );
        slots.set(SlotKind::L, y, slot);
    }

    slots
}

/// Session-level Time-Slot Condition 2: every rx participant has a
/// uniquely-slotted participating transmitter in range. Returns the
/// violating receivers (empty ⇒ the session schedule is sound).
pub fn validate_session(
    view: &NetView<'_>,
    slots: &SlotTable,
    mode: SlotMode,
    tx: &dyn Fn(NodeId) -> bool,
    rx: &dyn Fn(NodeId) -> bool,
) -> Vec<NodeId> {
    let mut out = Vec::new();
    for v in view.tree.nodes() {
        // Backbone receivers (phase 1): anything that must hold the message
        // and is not the root.
        if view.in_backbone(v) && view.tree.depth(v) >= 1 && (rx(v) || tx(v)) {
            let p: Vec<Option<u32>> = view
                .p_b(v)
                .into_iter()
                .filter(|&t| tx(t))
                .map(|t| slots.b(t))
                .collect();
            if !has_unique(&p) {
                out.push(v);
            }
        }
        // Member receivers (phase 2).
        if view.is_member_leaf(v) && rx(v) {
            let p: Vec<Option<u32>> = view
                .p_l(v, mode)
                .into_iter()
                .filter(|&t| tx(t))
                .map(|t| slots.l(t))
                .collect();
            if !has_unique(&p) {
                out.push(v);
            }
        }
    }
    out
}

fn has_unique(slots: &[Option<u32>]) -> bool {
    let mut counts: std::collections::BTreeMap<u32, u32> = Default::default();
    for s in slots.iter().flatten() {
        *counts.entry(*s).or_insert(0) += 1;
    }
    counts.values().any(|&c| c == 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::ClusterNet;
    use dsnet_graph::NodeId;

    fn grow(picks: &[(u32, u32, u32)]) -> ClusterNet {
        let mut net = ClusterNet::with_defaults();
        net.move_in(&[]).unwrap();
        for (i, &(a, b, c)) in picks.iter().enumerate() {
            let existing = (i + 1) as u32;
            let mut nbrs = vec![
                NodeId(a % existing),
                NodeId(b % existing),
                NodeId(c % existing),
            ];
            nbrs.sort_unstable();
            nbrs.dedup();
            net.move_in(&nbrs).unwrap();
        }
        net
    }

    #[test]
    fn full_session_equals_broadcast_validity() {
        let net = grow(&[
            (0, 0, 0),
            (1, 0, 1),
            (2, 1, 0),
            (3, 2, 1),
            (4, 3, 2),
            (5, 1, 2),
        ]);
        let view = net.view();
        let all = |_u: NodeId| true;
        let slots = assign_session_slots(&view, net.mode(), &all, &all);
        let violations = validate_session(&view, &slots, net.mode(), &all, &all);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn pruned_session_is_sound_for_participants() {
        let net = grow(&[
            (0, 0, 0),
            (1, 0, 1),
            (2, 1, 0),
            (3, 2, 1),
            (4, 3, 2),
            (5, 1, 2),
            (6, 4, 3),
            (7, 5, 2),
            (8, 6, 1),
        ]);
        let view = net.view();
        // Participants: even ids receive, ancestors of even ids forward.
        let rx = |u: NodeId| u.0.is_multiple_of(2);
        let tree = net.tree();
        let tx = |u: NodeId| {
            tree.subtree_nodes(u)
                .iter()
                .any(|&d| d != u && d.0.is_multiple_of(2))
        };
        let slots = assign_session_slots(&view, net.mode(), &tx, &rx);
        let violations = validate_session(&view, &slots, net.mode(), &tx, &rx);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn session_deltas_never_exceed_broadcast_deltas_plus_bound() {
        let net = grow(&[(0, 0, 0), (1, 1, 0), (2, 0, 1), (3, 3, 2), (4, 2, 3)]);
        let view = net.view();
        let all = |_u: NodeId| true;
        let slots = assign_session_slots(&view, net.mode(), &all, &all);
        // The greedy session assignment obeys the same Lemma-3 bound.
        let g = net.graph();
        let big_d = dsnet_graph::degree::max_degree(g) as u32;
        assert!(slots.max_l() <= big_d * (big_d + 1) / 2 + 1);
    }
}
