//! Failure injection schedules.
//!
//! The robustness argument of the paper (Section 3.3) is qualitative: a
//! single node or link failure stalls the DFO token tour entirely, while
//! CFF keeps flooding through surviving nodes. [`FailurePlan`] turns that
//! into a measurable experiment: nodes crash (fail-stop) at scheduled
//! rounds — permanently via [`FailurePlan::kill_node`] or for a bounded
//! outage window via [`FailurePlan::kill_node_for`] — and individual
//! links can be severed from a given round onward. Failures are invisible
//! to the programs — a dead node simply never transmits and never
//! receives, exactly like a sensor whose battery died (or, for an outage
//! window, like one that rebooted and came back).

use crate::Round;
use dsnet_graph::NodeId;
use std::collections::HashMap;

/// One scheduled dead interval: `[from, until)`, with `until = None`
/// meaning the node never comes back (permanent fail-stop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outage {
    from: Round,
    until: Option<Round>,
}

impl Outage {
    fn covers(&self, round: Round) -> bool {
        round >= self.from && self.until.is_none_or(|u| round < u)
    }
}

/// Schedule of fail-stop node crashes, transient node outages and link
/// drops.
///
/// ```
/// use dsnet_radio::FailurePlan;
/// use dsnet_graph::NodeId;
///
/// let mut plan = FailurePlan::new();
/// plan.kill_node(NodeId(3), 5).kill_link(NodeId(0), NodeId(1), 2);
/// plan.kill_node_for(NodeId(4), 2, 3); // dead in rounds 2, 3, 4
/// assert!(!plan.node_dead(NodeId(3), 4));
/// assert!(plan.node_dead(NodeId(3), 5));
/// assert!(plan.node_dead(NodeId(4), 4));
/// assert!(!plan.node_dead(NodeId(4), 5)); // revived
/// assert!(plan.link_dead(NodeId(1), NodeId(0), 9)); // undirected
/// ```
#[derive(Debug, Clone, Default)]
pub struct FailurePlan {
    /// Dead intervals per node, in insertion order (overlaps are legal).
    node_outages: HashMap<NodeId, Vec<Outage>>,
    /// Key is the edge with endpoints ordered (small, large).
    link_death: HashMap<(NodeId, NodeId), Round>,
}

impl FailurePlan {
    /// An empty schedule (nothing ever fails).
    pub fn new() -> Self {
        Self::default()
    }

    /// `node` crashes permanently at the *start* of `round` (it acts
    /// normally in all rounds `< round`).
    pub fn kill_node(&mut self, node: NodeId, round: Round) -> &mut Self {
        self.node_outages.entry(node).or_default().push(Outage {
            from: round,
            until: None,
        });
        self
    }

    /// `node` goes dark at the start of `round` and revives `duration`
    /// rounds later: it is dead during rounds `round .. round + duration`
    /// and acts normally again from round `round + duration` on. A zero
    /// `duration` is a no-op. Outage windows compose freely with each
    /// other, with permanent kills and with link kills.
    pub fn kill_node_for(&mut self, node: NodeId, round: Round, duration: Round) -> &mut Self {
        if duration == 0 {
            return self;
        }
        self.node_outages.entry(node).or_default().push(Outage {
            from: round,
            until: Some(round + duration),
        });
        self
    }

    /// The link `{a, b}` drops at the start of `round`: transmissions no
    /// longer cross it in either direction.
    pub fn kill_link(&mut self, a: NodeId, b: NodeId, round: Round) -> &mut Self {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.link_death
            .entry(key)
            .and_modify(|r| *r = (*r).min(round))
            .or_insert(round);
        self
    }

    /// Whether `node` is dead during `round`.
    pub fn node_dead(&self, node: NodeId, round: Round) -> bool {
        self.node_outages
            .get(&node)
            .is_some_and(|os| os.iter().any(|o| o.covers(round)))
    }

    /// Whether the link `{a, b}` is down during `round`.
    pub fn link_dead(&self, a: NodeId, b: NodeId, round: Round) -> bool {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.link_death.get(&key).is_some_and(|&r| round >= r)
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.node_outages.is_empty() && self.link_death.is_empty()
    }

    /// Every node with any scheduled outage (permanent or transient).
    pub fn affected_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_outages.keys().copied()
    }

    /// Whether `node` transitions alive→dead at the start of `round`.
    pub fn dies_at(&self, node: NodeId, round: Round) -> bool {
        self.node_dead(node, round) && (round == 0 || !self.node_dead(node, round - 1))
    }

    /// Whether `node` transitions dead→alive at the start of `round`.
    pub fn revives_at(&self, node: NodeId, round: Round) -> bool {
        round > 0 && !self.node_dead(node, round) && self.node_dead(node, round - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_death_takes_effect_at_round() {
        let mut p = FailurePlan::new();
        p.kill_node(NodeId(3), 5);
        assert!(!p.node_dead(NodeId(3), 4));
        assert!(p.node_dead(NodeId(3), 5));
        assert!(p.node_dead(NodeId(3), 100));
        assert!(!p.node_dead(NodeId(2), 100));
    }

    #[test]
    fn earliest_schedule_wins() {
        let mut p = FailurePlan::new();
        p.kill_node(NodeId(1), 10)
            .kill_node(NodeId(1), 3)
            .kill_node(NodeId(1), 7);
        assert!(p.node_dead(NodeId(1), 3));
        assert!(!p.node_dead(NodeId(1), 2));
    }

    #[test]
    fn links_are_undirected() {
        let mut p = FailurePlan::new();
        p.kill_link(NodeId(2), NodeId(1), 4);
        assert!(p.link_dead(NodeId(1), NodeId(2), 4));
        assert!(p.link_dead(NodeId(2), NodeId(1), 9));
        assert!(!p.link_dead(NodeId(1), NodeId(2), 3));
        assert!(!p.link_dead(NodeId(1), NodeId(3), 9));
    }

    #[test]
    fn empty_plan_kills_nothing() {
        let p = FailurePlan::new();
        assert!(p.is_empty());
        assert!(!p.node_dead(NodeId(0), 1_000_000));
    }

    #[test]
    fn duplicate_link_kills_keep_earliest_round_across_orientations() {
        // {4,9} scheduled three times, in both orientations: the two
        // orderings must alias to one edge and the earliest round wins —
        // a later re-schedule can never resurrect the link.
        let mut p = FailurePlan::new();
        p.kill_link(NodeId(4), NodeId(9), 8)
            .kill_link(NodeId(9), NodeId(4), 2)
            .kill_link(NodeId(4), NodeId(9), 50);
        assert!(!p.link_dead(NodeId(4), NodeId(9), 1));
        assert!(p.link_dead(NodeId(9), NodeId(4), 2));
        assert!(p.link_dead(NodeId(4), NodeId(9), 2));
    }

    #[test]
    fn node_killed_at_round_zero_never_lives() {
        let mut p = FailurePlan::new();
        p.kill_node(NodeId(7), 0);
        assert!(p.node_dead(NodeId(7), 0));
        assert!(p.node_dead(NodeId(7), 1));
    }

    #[test]
    fn killing_an_already_dead_node_is_a_noop() {
        // Dead at round 0; a second, later schedule must not delay the
        // death: the earliest permanent kill wins, on both sides of the
        // later one's boundary and for good.
        let mut p = FailurePlan::new();
        p.kill_node(NodeId(7), 0).kill_node(NodeId(7), 12);
        for r in [0, 1, 11, 12, 13, Round::MAX] {
            assert!(p.node_dead(NodeId(7), r), "round {r}");
        }
        assert_eq!(p.affected_nodes().count(), 1);
    }

    #[test]
    fn outage_window_revives_the_node() {
        let mut p = FailurePlan::new();
        p.kill_node_for(NodeId(2), 5, 3);
        assert!(!p.node_dead(NodeId(2), 4));
        assert!(p.node_dead(NodeId(2), 5));
        assert!(p.node_dead(NodeId(2), 7));
        assert!(!p.node_dead(NodeId(2), 8));
        // A transient outage alone is not permanent.
        assert!(!p.node_dead(NodeId(2), Round::MAX));
        assert_eq!(p.affected_nodes().count(), 1);
    }

    #[test]
    fn zero_duration_outage_is_a_noop() {
        let mut p = FailurePlan::new();
        p.kill_node_for(NodeId(1), 5, 0);
        assert!(p.is_empty());
        assert!(!p.node_dead(NodeId(1), 5));
    }

    #[test]
    fn overlapping_outages_union() {
        let mut p = FailurePlan::new();
        p.kill_node_for(NodeId(3), 2, 4) // dead 2..6
            .kill_node_for(NodeId(3), 4, 5); // dead 4..9
        for r in 2..9 {
            assert!(p.node_dead(NodeId(3), r), "round {r}");
        }
        assert!(!p.node_dead(NodeId(3), 1));
        assert!(!p.node_dead(NodeId(3), 9));
    }

    #[test]
    fn outage_then_permanent_kill_composes() {
        let mut p = FailurePlan::new();
        p.kill_node_for(NodeId(5), 2, 2); // dead 2..4
        p.kill_node(NodeId(5), 10); // dead 10..
        assert!(p.node_dead(NodeId(5), 3));
        assert!(!p.node_dead(NodeId(5), 5));
        // The permanent death takes effect at round 10, not earlier, and
        // holds for good.
        assert!(!p.node_dead(NodeId(5), 9));
        assert!(p.node_dead(NodeId(5), 10));
        assert!(p.node_dead(NodeId(5), 11));
        assert!(p.node_dead(NodeId(5), Round::MAX));
    }

    #[test]
    fn death_and_revival_transitions() {
        let mut p = FailurePlan::new();
        p.kill_node_for(NodeId(1), 3, 2); // dead 3, 4
        assert!(p.dies_at(NodeId(1), 3));
        assert!(!p.dies_at(NodeId(1), 4));
        assert!(p.revives_at(NodeId(1), 5));
        assert!(!p.revives_at(NodeId(1), 4));
        assert!(!p.revives_at(NodeId(1), 6));
    }
}
