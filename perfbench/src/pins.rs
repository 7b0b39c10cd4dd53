//! Pinned simulation outputs per workload, size and seed.
//!
//! The values are pure functions of the seed: any drift means the
//! simulation changed behaviour, and the run reports `correct: false`
//! and exits non-zero. The default seed ([`crate::DEFAULT_SEED`]) and the
//! held-out seed ([`crate::HELD_OUT_SEED`]) are pinned at both sizes;
//! other seeds are still checked against the paper's guarantees and for
//! consistency inside the run.
//!
//! What each workload pins:
//!
//! * `bcast_10k` — rounds, delivered, targets, round bound and max awake
//!   of the sink broadcast (every operation must repeat them).
//! * `mobile_10k` — summed over the first lap: reconfigurations,
//!   re-homed nodes, slot churn, knowledge patches and fallbacks, probe
//!   rounds, delivered and targets.
//! * `serve_mix` — per connection, after its first `pinned_ops`
//!   operations: the fold of every tenant's stream digest (command
//!   records and peeks), and the `command_rejected` count.
//! * `campaign_sweep` — the warm-up chunk's trial records (digest, summed
//!   rounds, trial count).

use crate::Size;

type Pins = &'static [(&'static str, u64)];

/// The expected pinned outputs of `workload` at `size` for `seed`.
pub fn expected(workload: &str, size: Size, seed: u64) -> Option<Pins> {
    Some(match (workload, size, seed) {
        ("bcast_10k", Size::Full, 1) => &[
            ("rounds", 110),
            ("delivered", 10_000),
            ("targets", 10_000),
            ("bound", 110),
            ("max_awake", 6),
        ],
        ("bcast_10k", Size::Full, 20_071) => &[
            ("rounds", 102),
            ("delivered", 10_000),
            ("targets", 10_000),
            ("bound", 102),
            ("max_awake", 6),
        ],
        ("bcast_10k", Size::Tiny, 1) => &[
            ("rounds", 61),
            ("delivered", 2_000),
            ("targets", 2_000),
            ("bound", 61),
            ("max_awake", 5),
        ],
        ("bcast_10k", Size::Tiny, 20_071) => &[
            ("rounds", 62),
            ("delivered", 2_000),
            ("targets", 2_000),
            ("bound", 62),
            ("max_awake", 5),
        ],
        ("mobile_10k", Size::Full, 1) => &[
            ("reconfigs", 400),
            ("rehomed", 6_547),
            ("slot_churn", 360),
            ("patched", 36),
            ("fallbacks", 4),
            ("rounds", 2_040),
            ("delivered", 400_000),
            ("targets", 400_000),
        ],
        ("mobile_10k", Size::Full, 20_071) => &[
            ("reconfigs", 492),
            ("rehomed", 32_451),
            ("slot_churn", 966),
            ("patched", 26),
            ("fallbacks", 14),
            ("rounds", 4_138),
            ("delivered", 400_000),
            ("targets", 400_000),
        ],
        ("mobile_10k", Size::Tiny, 1) => &[
            ("reconfigs", 127),
            ("rehomed", 727),
            ("slot_churn", 181),
            ("patched", 6),
            ("fallbacks", 14),
            ("rounds", 496),
            ("delivered", 20_000),
            ("targets", 20_000),
        ],
        ("mobile_10k", Size::Tiny, 20_071) => &[
            ("reconfigs", 130),
            ("rehomed", 2_502),
            ("slot_churn", 328),
            ("patched", 7),
            ("fallbacks", 13),
            ("rounds", 778),
            ("delivered", 20_000),
            ("targets", 20_000),
        ],
        ("serve_mix", Size::Full, 1) => &[
            ("conn0_digest", 17_795_296_430_242_431_083),
            ("conn0_rejected", 152),
            ("conn1_digest", 18_149_410_544_791_842_598),
            ("conn1_rejected", 150),
        ],
        ("serve_mix", Size::Full, 20_071) => &[
            ("conn0_digest", 16_110_912_669_752_484_068),
            ("conn0_rejected", 171),
            ("conn1_digest", 16_062_916_793_343_083_802),
            ("conn1_rejected", 180),
        ],
        ("serve_mix", Size::Tiny, 1) => &[
            ("conn0_digest", 13_472_651_422_785_078_490),
            ("conn0_rejected", 16),
            ("conn1_digest", 1_309_764_851_021_158_062),
            ("conn1_rejected", 11),
        ],
        ("serve_mix", Size::Tiny, 20_071) => &[
            ("conn0_digest", 5_424_555_701_884_788_045),
            ("conn0_rejected", 13),
            ("conn1_digest", 4_868_901_360_645_092_084),
            ("conn1_rejected", 16),
        ],
        ("campaign_sweep", Size::Full, 1) => &[
            ("chunk0_digest", 10_702_862_913_628_208_061),
            ("chunk0_rounds", 9_327),
            ("chunk0_trials", 60),
        ],
        ("campaign_sweep", Size::Full, 20_071) => &[
            ("chunk0_digest", 14_365_213_039_413_856_316),
            ("chunk0_rounds", 8_882),
            ("chunk0_trials", 60),
        ],
        ("campaign_sweep", Size::Tiny, 1) => &[
            ("chunk0_digest", 9_381_824_521_938_504_145),
            ("chunk0_rounds", 115),
            ("chunk0_trials", 6),
        ],
        ("campaign_sweep", Size::Tiny, 20_071) => &[
            ("chunk0_digest", 8_717_595_752_603_780_299),
            ("chunk0_rounds", 272),
            ("chunk0_trials", 6),
        ],
        _ => return None,
    })
}
