//! Property tests pinning the cache's knowledge to its from-scratch
//! builds: the dirty-scoped base patch to `build_knowledge`, and
//! Algorithm 1's flood part to `build_flood_knowledge`.
//!
//! Mirrors the shape of the cluster crate's `invariants/incremental_props`
//! suite, applied to knowledge instead of invariant auditing:
//!
//! 1. over random churn histories — arrivals, departures, crash repairs,
//!    and mobility-style relocations (move-out immediately followed by a
//!    re-arrival near the old neighbourhood) — the version-keyed cache
//!    must serve a snapshot byte-equal to [`build_knowledge`] at *every*
//!    intermediate version, however each miss was served;
//! 2. the same histories under a tiny patch limit keep the equality while
//!    forcing fallback-threshold crossings (patch refused, full rebuild
//!    taken), so the threshold path is exercised, not just configured;
//! 3. a `get` with no intervening mutation is a no-op hit: same `Arc`,
//!    hit counted, nothing patched — the empty-dirty case never clones;
//! 4. the flood part, requested only at a random subset of versions so
//!    that a request spans multi-version gaps, is byte-equal to
//!    `build_flood_knowledge` at every request, under every limit, and
//!    its requests move none of the cache counters.

use dsnet_cluster::repair::RepairConfig;
use dsnet_cluster::ClusterNet;
use dsnet_graph::NodeId;
use dsnet_protocols::knowledge::{build_flood_knowledge, build_knowledge};
use dsnet_protocols::KnowledgeCache;
use proptest::prelude::*;
use std::sync::Arc;

/// Apply one proptest-chosen mutation. Refused operations (evicting the
/// root, repairing the last node) are fine — the histories exist to
/// scramble the structure version, not to model churn precisely.
fn mutate(net: &mut ClusterNet, op: u8, a: u16, b: u16) {
    let nodes: Vec<NodeId> = net.tree().nodes().collect();
    match op % 4 {
        0 => {
            // Arrival hearing up to two existing nodes.
            let mut nbrs: Vec<NodeId> = [a, b]
                .iter()
                .map(|&x| nodes[x as usize % nodes.len()])
                .collect();
            nbrs.sort_unstable();
            nbrs.dedup();
            net.move_in(&nbrs).unwrap();
        }
        1 => {
            if nodes.len() > 2 {
                let _ = net.move_out(nodes[a as usize % nodes.len()]);
            }
        }
        2 => {
            if nodes.len() > 2 {
                let _ =
                    net.repair_failure(nodes[a as usize % nodes.len()], &RepairConfig::default());
            }
        }
        _ => {
            // Mobility-style relocation: depart, then re-arrive hearing a
            // survivor of the old neighbourhood (or anyone, if none
            // survived) — the driver's move_out + move_in sequence.
            if nodes.len() > 2 {
                let lev = nodes[a as usize % nodes.len()];
                let nbrs: Vec<NodeId> = net.graph().neighbors(lev).to_vec();
                if net.move_out(lev).is_ok() {
                    let alive: Vec<NodeId> = nbrs
                        .into_iter()
                        .filter(|&u| net.tree().contains(u))
                        .collect();
                    let hear = if alive.is_empty() {
                        let rest: Vec<NodeId> = net.tree().nodes().collect();
                        vec![rest[b as usize % rest.len()]]
                    } else {
                        vec![alive[b as usize % alive.len()]]
                    };
                    net.move_in(&hear).unwrap();
                }
            }
        }
    }
}

/// Request the flood part when bit `i` of `mask` is set and demand it
/// equal the from-scratch oracle.
fn check_flood(cache: &KnowledgeCache, net: &ClusterNet, mask: u32, i: usize) {
    if mask >> (i % 32) & 1 == 1 {
        let flood = cache.flood(net);
        assert_eq!(
            *flood,
            build_flood_knowledge(net),
            "flood part diverged at op {i}"
        );
    }
}

fn seed_net(arrivals: &[(u16, u16)]) -> ClusterNet {
    let mut net = ClusterNet::with_defaults();
    net.move_in(&[]).unwrap();
    for &(a, b) in arrivals {
        mutate(&mut net, 0, a, b);
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The tentpole equality: at every version of a random churn history,
    /// the cache's snapshot — patched or rebuilt, it must not matter —
    /// is byte-equal to a from-scratch build.
    #[test]
    fn patched_snapshots_equal_rebuilds_at_every_version(
        arrivals in prop::collection::vec((any::<u16>(), any::<u16>()), 6..30),
        ops in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..25),
        flood_mask in any::<u32>(),
    ) {
        let mut net = seed_net(&arrivals);
        let cache = KnowledgeCache::new();
        for (i, &(op, a, b)) in ops.iter().enumerate() {
            mutate(&mut net, op, a, b);
            let cached = cache.get(&net);
            let fresh = build_knowledge(&net);
            prop_assert_eq!(&*cached, &fresh, "cached snapshot diverged from rebuild");
            check_flood(&cache, &net, flood_mask, i);
        }
        let s = cache.full_stats();
        prop_assert_eq!(s.hits + s.misses, ops.len() as u64);
        prop_assert!(s.patched <= s.misses, "patched must be a subset of misses");
    }

    /// Same histories under a tiny patch limit: dirty sets larger than
    /// the threshold must cross into the fallback path (full rebuild) and
    /// the equality must survive the crossing in both directions.
    #[test]
    fn fallback_threshold_crossings_preserve_equality(
        arrivals in prop::collection::vec((any::<u16>(), any::<u16>()), 6..20),
        ops in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..20),
        limit in 0usize..6,
        flood_mask in any::<u32>(),
    ) {
        let mut net = seed_net(&arrivals);
        let cache = KnowledgeCache::with_patch_limit(limit);
        for (i, &(op, a, b)) in ops.iter().enumerate() {
            mutate(&mut net, op, a, b);
            let cached = cache.get(&net);
            let fresh = build_knowledge(&net);
            prop_assert_eq!(&*cached, &fresh, "equality broken around the threshold");
            check_flood(&cache, &net, flood_mask, i);
        }
        if limit == 0 {
            // Every structural change dirties at least one node, so a
            // zero threshold can never patch.
            prop_assert_eq!(cache.full_stats().patched, 0);
        }
    }

    /// A `get` with no intervening mutation is a no-op: the same `Arc`
    /// comes back, a hit is counted, and nothing is patched or rebuilt.
    #[test]
    fn unchanged_version_is_a_hit_not_a_patch(
        arrivals in prop::collection::vec((any::<u16>(), any::<u16>()), 4..16),
    ) {
        let net = seed_net(&arrivals);
        let cache = KnowledgeCache::new();
        let first = cache.get(&net);
        let again = cache.get(&net);
        prop_assert!(Arc::ptr_eq(&first, &again), "hit must reuse the snapshot");
        let flood = cache.flood(&net);
        let flood_again = cache.flood(&net);
        prop_assert!(Arc::ptr_eq(&flood, &flood_again), "hit must reuse the flood part");
        let s = cache.full_stats();
        prop_assert_eq!((s.hits, s.misses, s.patched, s.fallbacks), (1, 1, 0, 0));
    }
}

/// Deterministic witness that the threshold really crosses both ways on
/// one history: a generous limit patches, a zero limit never does, and
/// both stay byte-equal to the oracle throughout.
#[test]
fn threshold_witness_patches_and_falls_back() {
    let build = |limit: usize| {
        let mut net = ClusterNet::with_defaults();
        net.move_in(&[]).unwrap();
        for i in 0..40u16 {
            mutate(&mut net, 0, i.wrapping_mul(7), i.wrapping_mul(13));
        }
        let cache = KnowledgeCache::with_patch_limit(limit);
        let _ = cache.get(&net); // prime
        let _ = cache.flood(&net);
        for i in 0..12u16 {
            mutate(
                &mut net,
                (i % 4) as u8,
                i.wrapping_mul(31),
                i.wrapping_mul(5),
            );
            let cached = cache.get(&net);
            assert_eq!(*cached, build_knowledge(&net), "limit {limit} diverged");
            // Every third version: flood patches span three mutations.
            check_flood(&cache, &net, 0b100_100_100_100, i as usize);
        }
        cache.full_stats()
    };
    let generous = build(usize::MAX);
    assert!(generous.patched > 0, "generous limit never patched");
    assert_eq!(generous.fallbacks, 0, "generous limit should never refuse");
    let zero = build(0);
    assert_eq!(zero.patched, 0, "zero limit must never patch");
    assert!(zero.fallbacks > 0, "zero limit must record its refusals");
}
