//! Closed-form round predictions from the paper's lemmas and theorems,
//! used to cross-check the simulated executions and to print the
//! "theoretical" columns of the experiment tables.

use crate::knowledge::{FloodKnowledge, NetKnowledge};

/// Exact DFO completion rounds from a backbone source:
/// `2·(|BT| − 1)` token hops (plus 2 when the source is a pure member:
/// one hop up to its head, one final hop back). A single-node backbone
/// still spends one broadcast round.
pub fn dfo_rounds(backbone_size: usize, source_is_member: bool) -> u64 {
    let tour = 2 * (backbone_size.saturating_sub(1)) as u64;
    let tour = if tour == 0 { 1 } else { tour };
    tour + if source_is_member { 2 } else { 0 }
}

/// Lemma 1 bound for Algorithm 1 with `channels` radios:
/// `offset + ⌈Δ'/k⌉·(h + 1)`.
pub fn cff_basic_bound(k: &NetKnowledge, flood: &FloodKnowledge, offset: u64, channels: u8) -> u64 {
    offset + (flood.delta_flood.max(1) as u64).div_ceil(channels as u64) * (k.height as u64 + 1)
}

/// Schedule length of the bounded-retry reliable flood: `1 + max_retries`
/// epochs, each holding a data *and* a feedback window per tree depth:
/// `offset + (1 + R)·2·⌈Δ'/k⌉·h`, floored at the one round any run costs.
pub fn cff_reliable_bound(
    k: &NetKnowledge,
    flood: &FloodKnowledge,
    offset: u64,
    channels: u8,
    max_retries: u32,
) -> u64 {
    let delta = (flood.delta_flood.max(1) as u64).div_ceil(channels as u64);
    (offset + (1 + max_retries as u64) * 2 * delta * k.height as u64).max(1)
}

/// Lemma 1 awake bound for Algorithm 1: `2Δ'`.
pub fn cff_basic_awake_bound(flood: &FloodKnowledge) -> u64 {
    2 * flood.delta_flood.max(1) as u64
}

/// Theorem 1(1)/(3) bound for Algorithm 2 with `channels` radios:
/// `offset + ⌈δ/k⌉·h_BT + ⌈Δ/k⌉`, floored at the one round any engine
/// run consumes.
pub fn improved_bound(k: &NetKnowledge, offset: u64, channels: u8) -> u64 {
    let kk = channels as u64;
    (offset
        + (k.delta_b as u64).div_ceil(kk) * k.bt_height as u64
        + (k.delta_l as u64).div_ceil(kk))
    .max(1)
}

/// Theorem 1(2)/(3) awake bound for Algorithm 2: `⌈(2δ + Δ)/k⌉`, floored
/// at 3 rounds — one listen plus one transmission per phase. The floor
/// binds at `k ≥ 2`, where a receiver tunes to a single round: a non-root
/// backbone node with both duties listens once, then transmits in phase 1
/// and in phase 2.
pub fn improved_awake_bound(k: &NetKnowledge, channels: u8) -> u64 {
    let kk = channels as u64;
    ((2 * k.delta_b as u64 + k.delta_l as u64).div_ceil(kk)).max(3)
}

pub use dsnet_cluster::slots::slot_bounds;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::{build_flood_knowledge, build_knowledge};
    use dsnet_cluster::ClusterNet;
    use dsnet_graph::NodeId;

    #[test]
    fn dfo_formula() {
        assert_eq!(dfo_rounds(1, false), 1);
        assert_eq!(dfo_rounds(5, false), 8);
        assert_eq!(dfo_rounds(5, true), 10);
    }

    #[test]
    fn slot_bound_formula() {
        assert_eq!(slot_bounds(0, 0), (1, 1));
        assert_eq!(slot_bounds(3, 7), (7, 29));
    }

    #[test]
    fn bounds_are_monotone_in_channels() {
        let mut net = ClusterNet::with_defaults();
        net.move_in(&[]).unwrap();
        for i in 1..20u32 {
            net.move_in(&[NodeId(i - 1)]).unwrap();
        }
        let k = build_knowledge(&net);
        let b1 = improved_bound(&k, 0, 1);
        let b2 = improved_bound(&k, 0, 2);
        let b4 = improved_bound(&k, 0, 4);
        assert!(b2 <= b1 && b4 <= b2);
        assert!(improved_awake_bound(&k, 2) <= improved_awake_bound(&k, 1));
    }

    #[test]
    fn cff_bound_includes_offset() {
        let mut net = ClusterNet::with_defaults();
        net.move_in(&[]).unwrap();
        net.move_in(&[NodeId(0)]).unwrap();
        let (k, f) = (build_knowledge(&net), build_flood_knowledge(&net));
        assert_eq!(
            cff_basic_bound(&k, &f, 5, 1) - cff_basic_bound(&k, &f, 0, 1),
            5
        );
        assert!(cff_basic_bound(&k, &f, 0, 2) <= cff_basic_bound(&k, &f, 0, 1));
        assert!(cff_basic_awake_bound(&f) >= 2);
    }
}
