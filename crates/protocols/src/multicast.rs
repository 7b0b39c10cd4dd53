//! Multicast participation (Section 3.4).
//!
//! A multicast for group `g` is Algorithm 2 with the transmitter set
//! pruned by MCNet's relay-lists: a node forwards iff some descendant
//! belongs to `g`, and listens iff it needs the message itself or must
//! forward it. Sub-trees without any group member drop out of the session
//! entirely — the energy (and often latency) win the paper claims.
//!
//! One honest caveat, measured rather than hidden: pruning *removes*
//! transmitters, and Time-Slot Condition 2 only guarantees a unique slot
//! among the *full* transmitter set. If a receiver's uniquely-slotted
//! neighbour happens not to relay group `g` while two same-slot
//! neighbours do, that receiver can still lose a round to a collision.
//! The paper does not discuss this; the multicast experiments report the
//! measured delivery ratio so the effect is visible (it is rare in
//! practice because most receivers hear few transmitters).

use crate::cff::Participation;
use dsnet_cluster::{GroupId, McNet};
use dsnet_graph::NodeId;

/// Participation of node `u` in a group-`g` multicast session.
pub fn participation(mc: &McNet, g: GroupId, u: NodeId) -> Participation {
    let relays = mc.should_relay(u, g);
    let wants = mc.is_target(u, g);
    Participation {
        rx: wants || relays,
        tx: relays,
    }
}

/// Per-node participation table for a whole session.
pub fn participation_table(mc: &McNet, g: GroupId) -> Vec<Participation> {
    let cap = mc.net().graph().capacity();
    let mut out = vec![Participation::NONE; cap];
    for u in mc.net().tree().nodes() {
        out[u.index()] = participation(mc, g, u);
    }
    out
}

/// Nodes that must *receive* in a group-`g` session (the delivery targets).
pub fn targets(mc: &McNet, g: GroupId) -> Vec<NodeId> {
    mc.group_members(g)
}

/// Number of relays the pruned session activates (the nodes that actually
/// forward — the paper's saving is everyone else staying asleep).
pub fn relay_count(mc: &McNet, g: GroupId) -> usize {
    mc.net()
        .tree()
        .nodes()
        .filter(|&u| mc.should_relay(u, g))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grow(n: u32) -> McNet {
        let mut mc = McNet::with_defaults();
        mc.move_in(&[], &[]).unwrap();
        for i in 1..n {
            let groups: &[GroupId] = if i % 4 == 0 { &[1] } else { &[] };
            mc.move_in(&[NodeId(i - 1)], groups).unwrap();
        }
        mc
    }

    #[test]
    fn relays_are_ancestors_of_targets() {
        let mc = grow(17);
        let tree = mc.net().tree();
        for u in tree.nodes() {
            let p = participation(&mc, 1, u);
            if p.tx {
                // Must have a descendant in the group.
                let sub = tree.subtree_nodes(u);
                assert!(
                    sub.iter().any(|&d| d != u && mc.is_target(d, 1)),
                    "{u} relays but has no group descendant"
                );
            }
        }
    }

    #[test]
    fn targets_listen_nontargets_sleep() {
        let mc = grow(17);
        for u in mc.net().tree().nodes() {
            let p = participation(&mc, 1, u);
            if mc.is_target(u, 1) {
                assert!(p.rx, "{u} is a target but rx disabled");
            }
            if !mc.is_target(u, 1) && !mc.should_relay(u, 1) {
                assert_eq!(p, Participation::NONE);
            }
        }
    }

    #[test]
    fn empty_group_has_no_participants() {
        let mc = grow(10);
        let table = participation_table(&mc, 42);
        assert!(table.iter().all(|&p| p == Participation::NONE));
        assert!(targets(&mc, 42).is_empty());
        assert_eq!(relay_count(&mc, 42), 0);
    }
}
