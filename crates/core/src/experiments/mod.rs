//! Regeneration of the paper's evaluation (Section 6).
//!
//! One module per figure/table. Each `run` is one call of the
//! crate-internal sweep executor (`common::sweep`) and one row of the
//! [`ALL`] registry, which drives both [`all_tables`] and this crate's
//! `figures` binary; EXPERIMENTS.md records the tables:
//!
//! * [`fig8`] — broadcast latency, CFF vs DFO (paper Figure 8);
//! * [`fig9`] — awake rounds, CFF vs DFO (paper Figure 9);
//! * [`fig10`] — backbone size and height (paper Figure 10);
//! * [`fig11`] — `D`, `d`, `Δ`, `δ` (paper Figure 11);
//! * [`multichannel`] — the `k`-channel scaling of Theorem 1(3) (E5);
//! * [`robustness`] — coverage under backbone failures (E6);
//! * [`multicast`] — multicast vs broadcast across group densities (E7);
//! * [`reconfig`] — move-in/move-out round costs vs Theorems 2/3 (E8);
//! * [`slotbounds`] — measured slots vs the Lemma-3 bounds (E9);
//! * [`fields`] — the 8×8 / 10×10 / 12×12 field sweep (E10);
//! * [`discovery`] — the O(d_new) neighbour-discovery primitive (E11);
//! * [`modefidelity`] — strict vs paper-faithful slot modes (E12);
//! * [`parentrule`] — parent-selection ablation (E13);
//! * [`multisink`] — multi-sink failover robustness (E14);
//! * [`floodbase`] — unstructured randomized-flooding baseline (E15);
//! * [`backbone_quality`] — BT(G) vs greedy CDS backbones (E16).

pub mod backbone_quality;
pub mod common;
pub mod discovery;
pub mod fields;
pub mod fig10;
pub mod fig11;
pub mod fig8;
pub mod fig9;
pub mod floodbase;
pub mod modefidelity;
pub mod multicast;
pub mod multichannel;
pub mod multisink;
pub mod parentrule;
pub mod reconfig;
pub mod robustness;
pub mod slotbounds;

pub use common::SweepConfig;

use dsnet_metrics::SweepTable;

/// One experiment driver: a sweep configuration in, its table out.
pub type Experiment = fn(&SweepConfig) -> SweepTable;

/// Every experiment of the evaluation as `(id, run)`, in presentation
/// order. The ids are what the `figures` binary accepts.
pub const ALL: &[(&str, Experiment)] = &[
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("multichannel", multichannel::run),
    ("robustness", robustness::run),
    ("multicast", multicast::run),
    ("reconfig", reconfig::run),
    ("slotbounds", slotbounds::run),
    ("fields", fields::run),
    ("discovery", discovery::run),
    ("modefidelity", modefidelity::run),
    ("parentrule", parentrule::run),
    ("multisink", multisink::run),
    ("floodbase", floodbase::run),
    ("backbone", backbone_quality::run),
];

/// Every experiment's table, in presentation order.
pub fn all_tables(cfg: &SweepConfig) -> Vec<SweepTable> {
    ALL.iter().map(|(_, run)| run(cfg)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every table of the quick sweep, framed the way `figures --quick
    /// --csv` prints it, matches the committed golden file byte for byte.
    #[test]
    fn quick_tables_match_the_golden_csv() {
        let rendered: String = all_tables(&SweepConfig::quick())
            .iter()
            .map(|t| format!("# {}\n{}\n", t.title, t.to_csv()))
            .collect();
        assert_eq!(rendered, include_str!("quick_tables.csv"));
    }
}
