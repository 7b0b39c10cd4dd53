//! Procedure 1 (CalculateB/LTimeSlot) and the Time-Slot Condition checks.
//!
//! The paper's incremental slot calculation for a node `y` works in three
//! distributed steps (Procedure 1):
//!
//! 1. `y` asks each receiver `v ∈ C(y)` for input (1 round + |C(y)| reply
//!    rounds — Lemma 2(1));
//! 2. `v` replies with the distinct slot values of `P(v) \ {y}` *unless*
//!    `P(v) \ {y}` already contains two values that are each unique — in
//!    that case any choice `y` makes leaves at least one of them unique,
//!    so `v` is unconditionally safe and stays silent;
//! 3. `y` adopts the minimum positive integer different from everything
//!    reported.
//!
//! The result: after the update, every receiver in `C(y)` still has a
//! transmitter with a unique slot (Lemma 2's correctness argument), and
//! `y`'s slot respects the `d(d+1)/2 + 1` / `D(D+1)/2 + 1` bounds of
//! Lemma 2(3).

use crate::costs::SlotCalcCost;
use crate::slots::view::NetView;
use crate::slots::{min_safe_slot, SlotKind, SlotMode, SlotTable};
use dsnet_graph::NodeId;

/// Procedure 1 for either slot kind: the shared selection rule for `y`
/// over `receivers`, each hearing the slots of `transmitters_of(v) \ {y}`,
/// with the consulted receivers counted for the round-cost account.
fn procedure1<I: Iterator<Item = NodeId>>(
    y: NodeId,
    receivers: impl Iterator<Item = NodeId>,
    slots: &SlotTable,
    kind: SlotKind,
    transmitters_of: impl Fn(NodeId) -> I,
) -> (u32, SlotCalcCost) {
    let mut consulted = 0usize;
    let slot = min_safe_slot(
        receivers.inspect(|_| consulted += 1),
        |v| {
            transmitters_of(v)
                .filter(move |&t| t != y)
                .filter_map(move |t| slots.get(kind, t))
        },
        &mut Vec::new(),
    );
    (slot, SlotCalcCost::new(consulted))
}

/// Recompute `y`'s b-time-slot (Procedure CalculateBTimeSlot).
pub fn calculate_b_slot(view: &NetView<'_>, slots: &mut SlotTable, y: NodeId) -> SlotCalcCost {
    let (slot, cost) = procedure1(y, view.c_b_iter(y), slots, SlotKind::B, |v| {
        view.p_b_iter(v)
    });
    slots.set(SlotKind::B, y, slot);
    cost
}

/// Recompute `y`'s l-time-slot (Procedure CalculateLTimeSlot).
pub fn calculate_l_slot(
    view: &NetView<'_>,
    slots: &mut SlotTable,
    mode: SlotMode,
    y: NodeId,
) -> SlotCalcCost {
    let (slot, cost) = procedure1(y, view.c_l_iter(y, mode), slots, SlotKind::L, |v| {
        view.p_l_iter(v, mode)
    });
    slots.set(SlotKind::L, y, slot);
    cost
}

/// Whether some slot value occurs exactly once among the transmitters
/// yielded by `iter`. Transmitters without a slot never transmit in this
/// phase; they cannot rescue the receiver but also cannot collide.
///
/// Returns `(any_transmitter, has_unique)`. The transmitter sets audible
/// at one receiver are tiny (bounded by the local degree), so the
/// quadratic pair scan beats collecting and sorting a scratch vector —
/// the condition checks run once per affected receiver per
/// reconfiguration in the mobility repair loop.
fn unique_slot_scan<I>(iter: I, slots: &SlotTable, kind: SlotKind) -> (bool, bool)
where
    I: Iterator<Item = NodeId> + Clone,
{
    let mut any = false;
    for t in iter.clone() {
        any = true;
        let Some(s) = slots.get(kind, t) else {
            continue;
        };
        let duplicated = iter
            .clone()
            .any(|t2| t2 != t && slots.get(kind, t2) == Some(s));
        if !duplicated {
            return (true, true);
        }
    }
    (any, false)
}

/// Time-Slot Condition 2, b-side, at backbone receiver `v` (depth ≥ 1):
/// some phase-1 transmitter audible at `v` has a unique b-slot.
pub fn condition_b_holds(view: &NetView<'_>, slots: &SlotTable, v: NodeId) -> bool {
    let (any, unique) = unique_slot_scan(view.p_b_iter(v), slots, SlotKind::B);
    if !any {
        // No audible phase-1 transmitter: only legal for the root.
        return view.tree.depth(v) == 0;
    }
    unique
}

/// Time-Slot Condition 2, l-side, at member leaf `v`.
pub fn condition_l_holds(view: &NetView<'_>, slots: &SlotTable, mode: SlotMode, v: NodeId) -> bool {
    let (any, unique) = unique_slot_scan(view.p_l_iter(v, mode), slots, SlotKind::L);
    any && unique
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::NodeStatus;
    use dsnet_graph::{Graph, RootedTree};

    /// Backbone chain 0(head)-1(gw)-2(head)-3(gw)-4(head) where the extra G
    /// edge 1-4 makes node 4 hear both 1 and 3 in phase 1... except 1 is at
    /// depth 1 and 4 at depth 4, so only depth-3 transmitters matter for 4.
    fn chain() -> (Graph, RootedTree, Vec<NodeStatus>) {
        let mut g = Graph::with_nodes(5);
        for i in 0..4u32 {
            g.add_edge(NodeId(i), NodeId(i + 1));
        }
        g.add_edge(NodeId(1), NodeId(4));
        let mut t = RootedTree::new(NodeId(0));
        for i in 1..5u32 {
            t.attach(NodeId(i), NodeId(i - 1));
        }
        let status = vec![
            NodeStatus::ClusterHead,
            NodeStatus::Gateway,
            NodeStatus::ClusterHead,
            NodeStatus::Gateway,
            NodeStatus::ClusterHead,
        ];
        (g, t, status)
    }

    #[test]
    fn single_transmitter_receivers_are_trivially_safe() {
        let (g, t, s) = chain();
        let view = NetView::new(&g, &t, &s);
        let mut slots = SlotTable::default();
        let mut total = 0;
        // Assign b-slots to the BT-internal nodes 0..=3 in depth order.
        for i in 0..4u32 {
            total += calculate_b_slot(&view, &mut slots, NodeId(i)).rounds;
        }
        assert!(total >= 4);
        // Each receiver hears exactly one same-depth transmitter → safe.
        for i in 1..5u32 {
            assert!(condition_b_holds(&view, &slots, NodeId(i)), "node {i}");
        }
        // With no conflicts everyone gets slot 1.
        for i in 0..4u32 {
            assert_eq!(slots.b(NodeId(i)), Some(1));
        }
    }

    #[test]
    fn conflicting_transmitters_get_distinct_slots() {
        // Two heads 1 and 2 both children of root 0 (a degenerate structure
        // used only to exercise the procedure): both are BT-internal,
        // receiver 3 (gateway, depth 2) hears both.
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(1), NodeId(3));
        g.add_edge(NodeId(2), NodeId(3));
        let mut t = RootedTree::new(NodeId(0));
        t.attach(NodeId(1), NodeId(0));
        t.attach(NodeId(2), NodeId(0));
        t.attach(NodeId(3), NodeId(1));
        let s = vec![
            NodeStatus::ClusterHead,
            NodeStatus::Gateway,
            NodeStatus::Gateway,
            NodeStatus::ClusterHead,
        ];
        let view = NetView::new(&g, &t, &s);
        let mut slots = SlotTable::default();
        calculate_b_slot(&view, &mut slots, NodeId(1));
        calculate_b_slot(&view, &mut slots, NodeId(2));
        // Node 2's procedure sees node 1's slot through shared receiver 3
        // and avoids it.
        assert_ne!(slots.b(NodeId(1)), slots.b(NodeId(2)));
        assert!(condition_b_holds(&view, &slots, NodeId(3)));
    }

    #[test]
    fn procedure_skips_receivers_with_two_uniques() {
        // Receiver v hears y plus transmitters with slots {1, 2} (both
        // unique): y may pick anything, including 1, and v stays safe.
        // Build: root 0, gateways 1,2,3 children of 0 — receiver 4 (head,
        // depth 2) hears 1, 2 and 3.
        let mut g = Graph::with_nodes(5);
        for i in 1..4u32 {
            g.add_edge(NodeId(0), NodeId(i));
            g.add_edge(NodeId(i), NodeId(4));
        }
        let mut t = RootedTree::new(NodeId(0));
        t.attach(NodeId(1), NodeId(0));
        t.attach(NodeId(2), NodeId(0));
        t.attach(NodeId(3), NodeId(0));
        t.attach(NodeId(4), NodeId(1));
        let s = vec![
            NodeStatus::ClusterHead,
            NodeStatus::Gateway,
            NodeStatus::Gateway,
            NodeStatus::Gateway,
            NodeStatus::ClusterHead,
        ];
        let mut slots = SlotTable::default();
        // Hand-assign unique slots 1 and 2 to transmitters 2 and 3. Only
        // node 1 is BT-internal (it has head child 4)... adjust: give 2 and
        // 3 the child 4? No — fake it by setting slots directly; p_b(4)
        // only contains BT-internal nodes, so attach heads under 2 and 3.
        let mut t2 = t.clone();
        let mut g2 = g.clone();
        let n5 = g2.add_node_with_neighbors(&[NodeId(2)]);
        let n6 = g2.add_node_with_neighbors(&[NodeId(3)]);
        t2.attach(n5, NodeId(2));
        t2.attach(n6, NodeId(3));
        let mut s2 = s.clone();
        s2.push(NodeStatus::ClusterHead);
        s2.push(NodeStatus::ClusterHead);
        let view2 = NetView::new(&g2, &t2, &s2);
        slots.set(SlotKind::B, NodeId(2), 1);
        slots.set(SlotKind::B, NodeId(3), 2);
        let cost = calculate_b_slot(&view2, &mut slots, NodeId(1));
        // Receiver 4 had two uniques → stays silent → y picks mex(∅) = 1.
        assert_eq!(slots.b(NodeId(1)), Some(1));
        assert!(condition_b_holds(&view2, &slots, NodeId(4)));
        assert_eq!(cost.consulted, 1); // C_b(1) = {4}
    }

    #[test]
    fn l_slot_strict_mode_consults_cross_depth_leaves() {
        // Root 0 (head) with member 1; gateway 2 under 0; head 3 under 2
        // with member 4; extra G edge 3-1 (member 1 at depth 1 hears head 3
        // at depth 2 — only in strict mode).
        let mut g = Graph::with_nodes(5);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        g.add_edge(NodeId(3), NodeId(4));
        g.add_edge(NodeId(3), NodeId(1));
        let mut t = RootedTree::new(NodeId(0));
        t.attach(NodeId(1), NodeId(0));
        t.attach(NodeId(2), NodeId(0));
        t.attach(NodeId(3), NodeId(2));
        t.attach(NodeId(4), NodeId(3));
        let s = vec![
            NodeStatus::ClusterHead,
            NodeStatus::PureMember,
            NodeStatus::Gateway,
            NodeStatus::ClusterHead,
            NodeStatus::PureMember,
        ];
        let view = NetView::new(&g, &t, &s);

        let mut strict = SlotTable::default();
        calculate_l_slot(&view, &mut strict, SlotMode::Strict, NodeId(0));
        let c3 = view.c_l(NodeId(3), SlotMode::Strict);
        assert!(c3.contains(&NodeId(1)) && c3.contains(&NodeId(4)));
        calculate_l_slot(&view, &mut strict, SlotMode::Strict, NodeId(3));
        // Member 1 hears 0 (depth 0) and 3 (depth 2): strict assignment
        // keeps a unique slot available.
        assert!(condition_l_holds(
            &view,
            &strict,
            SlotMode::Strict,
            NodeId(1)
        ));
        assert!(condition_l_holds(
            &view,
            &strict,
            SlotMode::Strict,
            NodeId(4)
        ));

        // Paper mode ignores the cross-depth neighbour entirely.
        let paper_c3 = view.c_l(NodeId(3), SlotMode::PaperFaithful);
        assert_eq!(paper_c3, vec![NodeId(4)]);
    }
}
