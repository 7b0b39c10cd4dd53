//! Shared sweep configuration, network construction and the one sweep
//! executor every experiment runs through.

use crate::builder::NetworkBuilder;
use crate::network::SensorNetwork;
use dsnet_geom::rng::derive_seed;
use dsnet_metrics::{Series, Summary, SweepTable};

/// Parameters of an evaluation sweep. The defaults reproduce the paper's
/// plotted setting: the 10×10-unit field (1 unit = 100 m, 50 m range) with
/// n from 100 to 500, averaged over several seeded repetitions.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Square field side, in units of 100 m.
    pub field_side: f64,
    /// The node counts swept.
    pub ns: Vec<usize>,
    /// Repetitions per configuration (different deployment seeds).
    pub reps: u64,
    /// Base seed all per-run seeds derive from.
    pub base_seed: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            field_side: 10.0,
            ns: vec![100, 200, 300, 400, 500],
            reps: 5,
            base_seed: 2007,
        }
    }
}

impl SweepConfig {
    /// A reduced sweep for fast test runs.
    pub fn quick() -> Self {
        Self {
            field_side: 10.0,
            ns: vec![60, 120],
            reps: 2,
            base_seed: 2007,
        }
    }

    /// The deployment seed of repetition `rep` at size `n`. A `dsnet
    /// campaign` trial's scenario seed uses the same derivation, so both
    /// build the same network for the same `(n, rep)`.
    pub fn seed(&self, n: usize, rep: u64) -> u64 {
        derive_seed(self.base_seed, (n as u64) << 20 | rep)
    }

    /// Build the network for `(n, rep)` on the configured field.
    pub fn network(&self, n: usize, rep: u64) -> SensorNetwork {
        NetworkBuilder::paper_field(self.field_side, n, self.seed(n, rep))
            .build()
            .expect("incremental deployments always build")
    }
}

/// A swept quantity: anything a table can plot on its x-axis.
pub(crate) trait Axis: Copy {
    /// The value as plotted.
    fn plot(self) -> f64;
}

macro_rules! plot_as_f64 {
    ($($t:ty),*) => {$(
        impl Axis for $t {
            fn plot(self) -> f64 {
                self as f64
            }
        }
    )*};
}

plot_as_f64!(u8, u64, usize, f64);

/// Run one sweep and fold it into its table.
///
/// For every `x` of `xs` and every repetition `0..reps` the executor
/// calls `sample(x, rep, columns)`. The closure pushes any number of
/// observations into `columns[i]`, the sample of the series named
/// `names[i]`. Each column at one `x` becomes one [`Summary`] point of
/// its series, over the observations in push order.
pub(crate) fn sweep<X: Axis>(
    title: impl Into<String>,
    x_label: &str,
    xs: &[X],
    reps: u64,
    names: &[&str],
    mut sample: impl FnMut(X, u64, &mut [Vec<f64>]),
) -> SweepTable {
    let mut table = SweepTable::new(title, x_label, xs.iter().map(|x| x.plot()).collect());
    let mut series: Vec<Series> = names.iter().map(|&name| Series::new(name)).collect();
    for &x in xs {
        let mut columns = vec![Vec::new(); names.len()];
        for rep in 0..reps {
            sample(x, rep, &mut columns);
        }
        for (s, column) in series.iter_mut().zip(columns) {
            s.push(Summary::of(column));
        }
    }
    for s in series {
        table.add(s);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_differ_across_reps_and_sizes() {
        let cfg = SweepConfig::default();
        assert_ne!(cfg.seed(100, 0), cfg.seed(100, 1));
        assert_ne!(cfg.seed(100, 0), cfg.seed(200, 0));
        assert_eq!(cfg.seed(100, 0), cfg.seed(100, 0));
    }

    #[test]
    fn default_sweep_is_the_papers_setting() {
        assert_eq!(SweepConfig::default().ns, vec![100, 200, 300, 400, 500]);
    }

    #[test]
    fn quick_networks_build() {
        let cfg = SweepConfig::quick();
        let net = cfg.network(60, 0);
        assert_eq!(net.len(), 60);
    }

    #[test]
    fn sweep_folds_each_column_per_x_in_push_order() {
        let t = sweep("t", "x", &[1u8, 2], 3, &["sum", "reps"], |x, rep, c| {
            c[0].push(f64::from(x) + rep as f64);
            for _ in 0..rep {
                c[1].push(1.0);
            }
        });
        assert_eq!(t.xs, [1.0, 2.0]);
        assert_eq!(t.series[0].points[1], Summary::of([2.0, 3.0, 4.0]));
        assert_eq!(t.series[1].name, "reps");
        assert_eq!(t.series[1].points[0].n, 3);
    }
}
