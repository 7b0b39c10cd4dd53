//! Deterministic, seedable randomness helpers.
//!
//! Every stochastic component in the workspace (deployments, randomized
//! protocol backoff, failure schedules) takes an explicit seed so that
//! experiments are exactly reproducible. This module centralises the RNG
//! construction and seed-derivation conventions.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The RNG used throughout the workspace.
pub type Rng = StdRng;

/// Build the workspace RNG from a 64-bit seed.
pub fn rng_from_seed(seed: u64) -> Rng {
    StdRng::seed_from_u64(seed)
}

/// The SplitMix64 increment (the golden-ratio gamma).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step: add the gamma to `z`, then apply the finalizer.
/// A bijective mixer with good avalanche behaviour, used wherever the
/// workspace needs a stateless hash of integers into a random-looking
/// `u64` (seed derivation, per-link loss draws, retry backoff bits).
#[inline]
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive an independent sub-seed from a base seed and a stream index.
///
/// Experiments that need several independent random streams (e.g. one per
/// repetition, or one for deployment and one for failures) derive them from
/// a single user-facing seed with distinct stream indices, so that changing
/// one stream never perturbs another. This is the SplitMix64 output for
/// state `base` after `stream + 1` steps.
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    splitmix64(base.wrapping_add(GAMMA.wrapping_mul(stream)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng as _;

    #[test]
    fn same_seed_same_stream() {
        let mut a = rng_from_seed(42);
        let mut b = rng_from_seed(42);
        for _ in 0..16 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = rng_from_seed(1);
        let mut b = rng_from_seed(2);
        let same = (0..16)
            .filter(|_| a.random::<u64>() == b.random::<u64>())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derive_seed_is_stream_sensitive() {
        let s0 = derive_seed(7, 0);
        let s1 = derive_seed(7, 1);
        let s2 = derive_seed(8, 0);
        assert_ne!(s0, s1);
        assert_ne!(s0, s2);
        // And deterministic.
        assert_eq!(s0, derive_seed(7, 0));
    }

    #[test]
    fn derived_streams_are_independent_of_insertion_order() {
        // Deriving stream 5 must not depend on whether stream 4 was derived.
        let direct = derive_seed(99, 5);
        let _ = derive_seed(99, 4);
        assert_eq!(direct, derive_seed(99, 5));
    }

    #[test]
    fn derive_seed_values_are_pinned() {
        // Every deployment, scenario and trial seed flows through this
        // function: a change here silently re-draws every experiment.
        for (base, stream, want) in [
            (0, 0, 0xe220_a839_7b1d_cdaf),
            (7, 0, 0x63cb_e1e4_5932_0dd7),
            (7, 1, 0x044c_3cd7_f43c_661c),
            (99, 5, 0x3c12_faf5_3d0f_e673),
            (u64::MAX, 3, 0x6d1d_b36c_cba9_82d2),
            (1, 0xC0FFEE, 0x7238_f609_8e23_7393),
        ] {
            assert_eq!(
                derive_seed(base, stream),
                want,
                "derive_seed({base}, {stream})"
            );
        }
    }
}
