//! TDM transmission time-slots (Section 4 of the paper).
//!
//! Every *internal* node of CNet(G) carries two slots:
//!
//! * **b-time-slot** — used in phase 1 of the improved broadcast
//!   (Algorithm 2), when the message floods depth-by-depth over the
//!   backbone BT(G). Only *BT-internal* nodes (backbone nodes with at
//!   least one backbone child) transmit in this phase, and each depth gets
//!   its own window of `δ` rounds, so collisions can only come from
//!   same-depth backbone transmitters.
//! * **l-time-slot** — used in phase 2, when every internal node pushes
//!   the message to the pure-member leaves in a single window of `Δ`
//!   rounds.
//!
//! Validity is **Time-Slot Condition 2**: every receiver must have, among
//! the transmitters it can hear, at least one whose slot is *unique* in
//! that set — that transmitter's round is then guaranteed collision-free
//! at this receiver.
//!
//! [`SlotMode`] selects how the phase-2 interference set is modelled:
//! `PaperFaithful` restricts a leaf's transmitter set to internal nodes
//! one depth above it (the literal Condition 2), `Strict` extends it to
//! *all* internal G-neighbours of the leaf, which is the set that can
//! actually interfere in phase 2 because all depths share one window. See
//! DESIGN.md §4 for the discussion of this fidelity gap.

pub mod assign;
pub mod session;
pub mod validate;
pub mod view;

pub use assign::{calculate_b_slot, calculate_l_slot, condition_b_holds, condition_l_holds};
pub use view::NetView;

use dsnet_graph::NodeId;

/// Which of the two slot families an operation concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    /// Phase-1 backbone-flood slot.
    B,
    /// Phase-2 leaf-delivery slot.
    L,
}

/// Interference model for phase-2 (leaf delivery) slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SlotMode {
    /// Exactly the paper's Time-Slot Condition 2: a leaf's transmitter set
    /// is the internal nodes *one depth above it*. Cheaper slots, but
    /// phase 2 can suffer cross-depth collisions the condition does not
    /// rule out (measured by the robustness experiments).
    PaperFaithful,
    /// The leaf's transmitter set is *every* internal G-neighbour,
    /// regardless of depth — phase 2 becomes provably collision-free.
    /// Default, because the protocols are verified end-to-end against the
    /// radio simulator.
    #[default]
    Strict,
}

/// Per-node b-/l-slot storage. Slots are positive integers; `None` means
/// the node currently has no slot of that kind (it is not a transmitter of
/// that phase).
#[derive(Debug, Clone, Default)]
pub struct SlotTable {
    b: Vec<Option<u32>>,
    l: Vec<Option<u32>>,
}

impl SlotTable {
    /// An empty table sized for `cap` node ids.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            b: vec![None; cap],
            l: vec![None; cap],
        }
    }

    /// Grow the table to cover `cap` node ids.
    pub fn ensure_capacity(&mut self, cap: usize) {
        if self.b.len() < cap {
            self.b.resize(cap, None);
            self.l.resize(cap, None);
        }
    }

    /// The node's b-time-slot, if assigned.
    pub fn b(&self, u: NodeId) -> Option<u32> {
        self.b.get(u.index()).copied().flatten()
    }

    /// The node's l-time-slot, if assigned.
    pub fn l(&self, u: NodeId) -> Option<u32> {
        self.l.get(u.index()).copied().flatten()
    }

    /// The node's slot of the given kind, if assigned.
    pub fn get(&self, kind: SlotKind, u: NodeId) -> Option<u32> {
        match kind {
            SlotKind::B => self.b(u),
            SlotKind::L => self.l(u),
        }
    }

    /// Assign a slot (positive) of the given kind to `u`.
    pub fn set(&mut self, kind: SlotKind, u: NodeId, slot: u32) {
        assert!(slot >= 1, "slots are numbered from 1");
        self.ensure_capacity(u.index() + 1);
        match kind {
            SlotKind::B => self.b[u.index()] = Some(slot),
            SlotKind::L => self.l[u.index()] = Some(slot),
        }
    }

    /// Remove both slots of `u` (used when a node detaches or is demoted).
    pub fn clear(&mut self, u: NodeId) {
        if u.index() < self.b.len() {
            self.b[u.index()] = None;
            self.l[u.index()] = None;
        }
    }

    /// Remove only the given kind of slot from `u`.
    pub fn clear_kind(&mut self, kind: SlotKind, u: NodeId) {
        if u.index() < self.b.len() {
            match kind {
                SlotKind::B => self.b[u.index()] = None,
                SlotKind::L => self.l[u.index()] = None,
            }
        }
    }

    /// Largest assigned b-slot — the paper's `δ` (0 when none assigned).
    pub fn max_b(&self) -> u32 {
        self.b.iter().flatten().copied().max().unwrap_or(0)
    }

    /// Largest assigned l-slot — the paper's `Δ` (0 when none assigned).
    pub fn max_l(&self) -> u32 {
        self.l.iter().flatten().copied().max().unwrap_or(0)
    }
}

/// Minimum positive integer not contained in `used` (the paper's
/// "select the minimum positive integer which is different from all
/// received time-slots").
///
/// `used` is caller-owned scratch: values may arrive unsorted and with
/// duplicates; the slice is sorted in place and otherwise left intact so
/// hot loops can `clear()` and refill one buffer instead of allocating a
/// set per call.
pub(crate) fn mex(used: &mut [u32]) -> u32 {
    used.sort_unstable();
    let mut candidate = 1u32;
    for &u in used.iter() {
        match u.cmp(&candidate) {
            std::cmp::Ordering::Less => {}
            std::cmp::Ordering::Equal => candidate += 1,
            std::cmp::Ordering::Greater => break,
        }
    }
    candidate
}

/// Number of slot values that occur exactly once in the *sorted* scratch
/// (runs of length 1).
pub(crate) fn unique_run_count(sorted: &[u32]) -> usize {
    let mut unique = 0usize;
    let mut i = 0;
    while i < sorted.len() {
        let mut j = i + 1;
        while j < sorted.len() && sorted[j] == sorted[i] {
            j += 1;
        }
        if j - i == 1 {
            unique += 1;
        }
        i = j;
    }
    unique
}

/// The slot-selection rule every assignment shares (Procedure 1, and
/// Algorithm 1's flood slots): a transmitter takes the minimum positive
/// slot that none of its `receivers` hears from another transmitter,
/// where `heard(v)` yields those other transmitters' slots at receiver
/// `v`. A receiver that already hears two unique slots is skipped — the
/// new slot can collide with at most one of them. `scratch` is
/// caller-owned so hot loops do not allocate.
pub(crate) fn min_safe_slot<I: Iterator<Item = u32>>(
    receivers: impl Iterator<Item = NodeId>,
    heard: impl Fn(NodeId) -> I,
    scratch: &mut Vec<u32>,
) -> u32 {
    scratch.clear();
    for v in receivers {
        let kept = scratch.len();
        scratch.extend(heard(v));
        let own = &mut scratch[kept..];
        own.sort_unstable();
        if unique_run_count(own) >= 2 {
            scratch.truncate(kept);
        }
    }
    mex(scratch)
}

/// Lemma 3's slot bounds for a backbone max degree `d` and a graph max
/// degree `D`: `(δ_max, Δ_max) = (d(d+1)/2 + 1, D(D+1)/2 + 1)`.
pub fn slot_bounds(d_backbone: u32, d_graph: u32) -> (u32, u32) {
    let bound = |d: u32| d * (d + 1) / 2 + 1;
    (bound(d_backbone), bound(d_graph))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mex_of_empty_is_one() {
        assert_eq!(mex(&mut []), 1);
    }

    #[test]
    fn mex_skips_used_values() {
        assert_eq!(mex(&mut [1, 2, 4]), 3);
        assert_eq!(mex(&mut [2, 3]), 1);
        assert_eq!(mex(&mut [1, 2, 3]), 4);
    }

    #[test]
    fn mex_boundaries_dense_prefix_gaps_and_duplicates() {
        // Dense prefix: every value 1..=k used ⇒ k+1.
        assert_eq!(mex(&mut [1]), 2);
        assert_eq!(mex(&mut [1, 2, 3, 4, 5]), 6);
        // Gap right after 1.
        assert_eq!(mex(&mut [1, 3]), 2);
        // Unsorted input is sorted in place.
        assert_eq!(mex(&mut [4, 1, 2]), 3);
        // Duplicates count once.
        assert_eq!(mex(&mut [1, 1, 2, 2]), 3);
        assert_eq!(mex(&mut [2, 2]), 1);
        // Values far above the answer are ignored.
        assert_eq!(mex(&mut [1, 1000]), 2);
    }

    #[test]
    fn slot_table_roundtrip() {
        let mut t = SlotTable::default();
        t.set(SlotKind::B, NodeId(5), 3);
        t.set(SlotKind::L, NodeId(2), 7);
        assert_eq!(t.b(NodeId(5)), Some(3));
        assert_eq!(t.l(NodeId(5)), None);
        assert_eq!(t.l(NodeId(2)), Some(7));
        assert_eq!(t.max_b(), 3);
        assert_eq!(t.max_l(), 7);
        t.clear(NodeId(5));
        assert_eq!(t.b(NodeId(5)), None);
        assert_eq!(t.max_b(), 0);
    }

    #[test]
    #[should_panic(expected = "numbered from 1")]
    fn zero_slot_rejected() {
        let mut t = SlotTable::default();
        t.set(SlotKind::B, NodeId(0), 0);
    }

    #[test]
    fn clear_kind_is_selective() {
        let mut t = SlotTable::default();
        t.set(SlotKind::B, NodeId(1), 2);
        t.set(SlotKind::L, NodeId(1), 4);
        t.clear_kind(SlotKind::B, NodeId(1));
        assert_eq!(t.b(NodeId(1)), None);
        assert_eq!(t.l(NodeId(1)), Some(4));
    }

    #[test]
    fn out_of_range_reads_are_none() {
        let t = SlotTable::default();
        assert_eq!(t.b(NodeId(99)), None);
        assert_eq!(t.get(SlotKind::L, NodeId(99)), None);
    }
}
