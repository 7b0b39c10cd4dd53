//! Probabilistic lossy-channel model.
//!
//! Real sensor links are not binary: beyond hard failures
//! ([`FailurePlan`](crate::FailurePlan)), packets vanish with some
//! probability per transmission. [`LossModel`] adds per-link Bernoulli
//! loss on top of the graph: a transmission from `u` heard by `v` in
//! round `r` is independently destroyed with probability `p`.
//!
//! Determinism is the whole design: the drop decision for a directed link
//! and round is a *pure function* of `(seed, u, v, round)` — a stateless
//! SplitMix64 hash, not a stateful RNG — so the outcome is independent of
//! the order in which receivers are evaluated, of how many other links
//! exist, and of how many worker threads a campaign uses. Every directed
//! link effectively owns its own seed-stable random stream, which is what
//! keeps campaign artifacts byte-identical across `--threads` values.
//!
//! Loss probabilities are quantised to parts-per-million so the model is
//! hashable/comparable and the campaign axis labels round-trip exactly.

use crate::Round;
use dsnet_geom::rng::splitmix64;
use dsnet_graph::NodeId;

/// Denominator of the quantised loss probability.
pub const PPM_SCALE: u32 = 1_000_000;

/// Per-link Bernoulli packet loss with a seed-stable per-link stream.
///
/// ```
/// use dsnet_radio::LossModel;
/// use dsnet_graph::NodeId;
///
/// let loss = LossModel::from_probability(0.5, 42);
/// // Pure function of (seed, link, round): always the same answer.
/// let a = loss.dropped(NodeId(0), NodeId(1), 7);
/// assert_eq!(a, loss.dropped(NodeId(0), NodeId(1), 7));
/// assert!(!LossModel::none().dropped(NodeId(0), NodeId(1), 7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LossModel {
    /// Loss probability in parts-per-million (`0` = lossless).
    ppm: u32,
    /// Base seed of the per-link streams.
    seed: u64,
}

impl LossModel {
    /// The lossless model (drops nothing, costs nothing).
    pub fn none() -> Self {
        Self::default()
    }

    /// A model dropping each reception with probability `ppm / 1e6`.
    pub fn from_ppm(ppm: u32, seed: u64) -> Self {
        assert!(ppm <= PPM_SCALE, "loss probability above 1.0");
        Self { ppm, seed }
    }

    /// A model dropping each reception with probability `p ∈ [0, 1]`
    /// (quantised to parts-per-million).
    pub fn from_probability(p: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability {p} not in [0,1]"
        );
        Self::from_ppm((p * PPM_SCALE as f64).round() as u32, seed)
    }

    /// The quantised loss probability in parts-per-million.
    pub fn ppm(&self) -> u32 {
        self.ppm
    }

    /// The loss probability as a float.
    pub fn probability(&self) -> f64 {
        self.ppm as f64 / PPM_SCALE as f64
    }

    /// Whether this model never drops anything.
    pub fn is_none(&self) -> bool {
        self.ppm == 0
    }

    /// Whether the transmission `from → to` is destroyed in `round`.
    ///
    /// A pure function of `(seed, from, to, round)`; each direction of a
    /// link draws from its own stream (real radio links are asymmetric).
    #[inline]
    pub fn dropped(&self, from: NodeId, to: NodeId, round: Round) -> bool {
        if self.ppm == 0 {
            return false;
        }
        let link = ((from.0 as u64) << 32) | to.0 as u64;
        let draw = splitmix64(splitmix64(self.seed ^ link) ^ round);
        (draw % PPM_SCALE as u64) < self.ppm as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_drops() {
        let loss = LossModel::none();
        assert!(loss.is_none());
        for r in 0..100 {
            assert!(!loss.dropped(NodeId(0), NodeId(1), r));
        }
    }

    #[test]
    fn full_loss_always_drops() {
        let loss = LossModel::from_probability(1.0, 9);
        for r in 1..50 {
            assert!(loss.dropped(NodeId(3), NodeId(4), r));
        }
    }

    #[test]
    fn drops_are_deterministic_and_seed_sensitive() {
        let a = LossModel::from_probability(0.5, 1);
        let b = LossModel::from_probability(0.5, 2);
        let draws_a: Vec<bool> = (0..64)
            .map(|r| a.dropped(NodeId(5), NodeId(6), r))
            .collect();
        let draws_a2: Vec<bool> = (0..64)
            .map(|r| a.dropped(NodeId(5), NodeId(6), r))
            .collect();
        let draws_b: Vec<bool> = (0..64)
            .map(|r| b.dropped(NodeId(5), NodeId(6), r))
            .collect();
        assert_eq!(draws_a, draws_a2);
        assert_ne!(draws_a, draws_b);
    }

    #[test]
    fn drop_pattern_is_pinned() {
        // The campaign `loss` axis and every lossy artifact depend on these
        // exact draws: one bit per (link, round) over 64 fixed pairs.
        for (p, seed, want) in [
            (0.5, 42, 0x497a_61c1_074b_27b5u64),
            (0.1, 2024, 0x0100_8290_0000_2000),
        ] {
            let loss = LossModel::from_probability(p, seed);
            let mut bits = 0u64;
            for i in 0..64u32 {
                let round = u64::from(i) * 7 + 1;
                if loss.dropped(NodeId(i % 8), NodeId(8 + i / 8), round) {
                    bits |= 1 << i;
                }
            }
            assert_eq!(bits, want, "p={p} seed={seed}");
        }
    }

    #[test]
    fn directions_are_independent_streams() {
        let loss = LossModel::from_probability(0.5, 7);
        let fwd: Vec<bool> = (0..64)
            .map(|r| loss.dropped(NodeId(1), NodeId(2), r))
            .collect();
        let rev: Vec<bool> = (0..64)
            .map(|r| loss.dropped(NodeId(2), NodeId(1), r))
            .collect();
        assert_ne!(fwd, rev);
    }

    #[test]
    fn empirical_rate_tracks_probability() {
        let loss = LossModel::from_probability(0.1, 2024);
        let mut drops = 0u32;
        let trials = 20_000u32;
        for r in 0..trials as u64 {
            if loss.dropped(NodeId(11), NodeId(12), r) {
                drops += 1;
            }
        }
        let rate = drops as f64 / trials as f64;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn probability_roundtrips_through_ppm() {
        let loss = LossModel::from_probability(0.05, 0);
        assert_eq!(loss.ppm(), 50_000);
        assert_eq!(loss.probability(), 0.05);
    }

    #[test]
    #[should_panic(expected = "not in [0,1]")]
    fn out_of_range_probability_panics() {
        LossModel::from_probability(1.5, 0);
    }
}
