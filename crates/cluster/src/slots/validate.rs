//! Whole-structure validation of the Time-Slot Conditions, plus the
//! one-shot slot assignment for the basic flooding broadcast (Algorithm 1).

use crate::slots::assign::{condition_b_holds, condition_l_holds};
use crate::slots::view::NetView;
use crate::slots::{min_safe_slot, unique_run_count, SlotMode, SlotTable};
use dsnet_graph::NodeId;

/// A receiver whose Time-Slot Condition is violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConditionViolation {
    /// Backbone receiver with no uniquely-slotted phase-1 transmitter.
    B(NodeId),
    /// Member leaf with no uniquely-slotted phase-2 transmitter.
    L(NodeId),
    /// A phase transmitter missing its slot entirely.
    MissingSlot(NodeId),
}

/// Check Time-Slot Condition 2 over the whole attached structure.
/// Returns every violation (empty ⇒ the TDM schedule is sound).
pub fn validate_condition2(
    view: &NetView<'_>,
    slots: &SlotTable,
    mode: SlotMode,
) -> Vec<ConditionViolation> {
    let mut out = Vec::new();
    for u in view.tree.nodes() {
        check_condition2_at(view, slots, mode, u, |x| out.push(x));
    }
    out
}

/// Time-Slot Condition 2 at one attached node `u`, allocation-free:
/// `report` receives each violation. A transmitter must carry its slot,
/// and a receiver must hear a uniquely-slotted transmitter.
pub(crate) fn check_condition2_at(
    view: &NetView<'_>,
    slots: &SlotTable,
    mode: SlotMode,
    u: NodeId,
    mut report: impl FnMut(ConditionViolation),
) {
    if view.bt_internal(u) && slots.b(u).is_none() {
        report(ConditionViolation::MissingSlot(u));
    }
    if view.cnet_internal(u) && slots.l(u).is_none() {
        report(ConditionViolation::MissingSlot(u));
    }
    if view.in_backbone(u) && view.tree.depth(u) >= 1 && !condition_b_holds(view, slots, u) {
        report(ConditionViolation::B(u));
    }
    if view.is_member_leaf(u) && !condition_l_holds(view, slots, mode, u) {
        report(ConditionViolation::L(u));
    }
}

/// One-shot slot assignment for **Algorithm 1** (basic collision-free
/// flooding over the whole CNet): every internal node gets a single
/// transmission slot such that Time-Slot Condition 1 holds — each node at
/// depth `i+1` has, among the internal depth-`i` nodes it hears, one with a
/// unique slot. Returns the per-node slot vector (indexed by node id) and
/// `Δ'`, the largest assigned slot.
pub fn assign_flood_slots(view: &NetView<'_>) -> (Vec<Option<u32>>, u32) {
    let cap = view.graph.capacity();
    let mut slot: Vec<Option<u32>> = vec![None; cap];
    // Internal nodes in (depth, id) order: deterministic, and the "last
    // writer re-checks everyone" argument makes the result valid.
    let mut internal: Vec<NodeId> = view
        .tree
        .nodes()
        .filter(|&u| view.cnet_internal(u))
        .collect();
    internal.sort_by_key(|&u| (view.tree.depth(u), u));
    let mut scratch: Vec<u32> = Vec::new();
    for &y in &internal {
        slot[y.index()] = Some(flood_slot(view, y, |t| slot[t.index()], &mut scratch));
    }
    let max = slot.iter().flatten().copied().max().unwrap_or(0);
    (slot, max)
}

/// Algorithm 1's slot for internal node `y`: the shared selection rule
/// over `y`'s receivers one depth below, where `slot_of(t)` is the slot
/// co-transmitter `t` holds at `y`'s turn (`None` while unassigned) —
/// [`assign_flood_slots`] passes the slots assigned so far. `scratch` is
/// caller-owned.
fn flood_slot(
    view: &NetView<'_>,
    y: NodeId,
    slot_of: impl Fn(NodeId) -> Option<u32>,
    scratch: &mut Vec<u32>,
) -> u32 {
    let depth = view.tree.depth(y);
    min_safe_slot(
        view.attached_neighbors(y)
            .filter(|&v| view.tree.depth(v) == depth + 1),
        |v| {
            flood_transmitters(view, v)
                .filter(move |&t| t != y)
                .filter_map(&slot_of)
        },
        scratch,
    )
}

/// Internal depth-(i−1) G-neighbours of `v` — the transmitters `v` hears
/// in Algorithm 1's depth window. Allocation-free; naturally empty at
/// depth 0, where no neighbour sits at depth −1.
pub fn flood_transmitters<'a>(view: &NetView<'a>, v: NodeId) -> impl Iterator<Item = NodeId> + 'a {
    let view = *view;
    let depth = view.tree.depth(v);
    view.graph.neighbors(v).iter().copied().filter(move |&y| {
        view.attached(y) && view.cnet_internal(y) && view.tree.depth(y) + 1 == depth
    })
}

/// Check Time-Slot Condition 1 for the Algorithm-1 slots produced by
/// [`assign_flood_slots`].
pub fn validate_condition1(view: &NetView<'_>, slot: &[Option<u32>]) -> Vec<NodeId> {
    let mut violations = Vec::new();
    for v in view.tree.nodes() {
        if view.tree.depth(v) == 0 {
            continue;
        }
        let mut trans = flood_transmitters(view, v).peekable();
        if trans.peek().is_none() {
            violations.push(v);
            continue;
        }
        let mut vals: Vec<u32> = trans.filter_map(|t| slot[t.index()]).collect();
        vals.sort_unstable();
        if unique_run_count(&vals) == 0 {
            violations.push(v);
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::NodeStatus;
    use dsnet_graph::{Graph, RootedTree};

    /// Root head 0 with members 1, 2; gateway 3 under 0 with head 4; head 4
    /// has member 5. Dense extra G edges so slots actually conflict.
    fn structure() -> (Graph, RootedTree, Vec<NodeStatus>) {
        let mut g = Graph::with_nodes(6);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(0), NodeId(3));
        g.add_edge(NodeId(3), NodeId(4));
        g.add_edge(NodeId(4), NodeId(5));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(3), NodeId(1));
        let mut t = RootedTree::new(NodeId(0));
        t.attach(NodeId(1), NodeId(0));
        t.attach(NodeId(2), NodeId(0));
        t.attach(NodeId(3), NodeId(0));
        t.attach(NodeId(4), NodeId(3));
        t.attach(NodeId(5), NodeId(4));
        let s = vec![
            NodeStatus::ClusterHead,
            NodeStatus::PureMember,
            NodeStatus::PureMember,
            NodeStatus::Gateway,
            NodeStatus::ClusterHead,
            NodeStatus::PureMember,
        ];
        (g, t, s)
    }

    #[test]
    fn validate_reports_missing_slots() {
        let (g, t, s) = structure();
        let view = NetView::new(&g, &t, &s);
        let slots = SlotTable::default();
        let v = validate_condition2(&view, &slots, SlotMode::Strict);
        // Internal nodes 0, 3, 4 all lack l-slots; BT-internal 0, 3 lack
        // b-slots; receivers also fail.
        assert!(v.contains(&ConditionViolation::MissingSlot(NodeId(0))));
        assert!(v.iter().any(|x| matches!(x, ConditionViolation::L(_))));
        assert!(v.iter().any(|x| matches!(x, ConditionViolation::B(_))));
    }

    #[test]
    fn full_assignment_validates() {
        use crate::slots::assign::{calculate_b_slot, calculate_l_slot};
        let (g, t, s) = structure();
        let view = NetView::new(&g, &t, &s);
        let mut slots = SlotTable::default();
        for u in [NodeId(0), NodeId(3)] {
            calculate_b_slot(&view, &mut slots, u);
        }
        for u in [NodeId(0), NodeId(3), NodeId(4)] {
            calculate_l_slot(&view, &mut slots, SlotMode::Strict, u);
        }
        let v = validate_condition2(&view, &slots, SlotMode::Strict);
        assert!(v.is_empty(), "violations: {v:?}");
    }

    #[test]
    fn flood_slots_satisfy_condition1() {
        let (g, t, s) = structure();
        let view = NetView::new(&g, &t, &s);
        let (slot, max) = assign_flood_slots(&view);
        assert!(max >= 1);
        let violations = validate_condition1(&view, &slot);
        assert!(violations.is_empty(), "{violations:?}");
        // Exactly the internal nodes carry slots.
        for u in t.nodes() {
            assert_eq!(slot[u.index()].is_some(), view.cnet_internal(u), "{u}");
        }
    }

    #[test]
    fn flood_transmitters_respect_depth_windows() {
        let (g, t, s) = structure();
        let view = NetView::new(&g, &t, &s);
        // Member 1 at depth 1: internal depth-0 neighbours = {0}; node 3 is
        // internal and adjacent but at the same depth, so excluded.
        let tx = |v| flood_transmitters(&view, NodeId(v)).collect::<Vec<_>>();
        assert_eq!(tx(1), vec![NodeId(0)]);
        assert_eq!(tx(4), vec![NodeId(3)]);
        assert!(tx(0).is_empty());
    }
}
