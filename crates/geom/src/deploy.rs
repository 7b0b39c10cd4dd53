//! Seeded node-placement generator.
//!
//! The paper (Section 6) deploys `n` nodes on a square field with a 0.5-unit
//! radio range and then runs every protocol on the resulting unit-disk
//! graph. All protocols assume the graph is *connected* (CNet(G) is a
//! spanning tree), and the architecture itself is built by adding nodes one
//! at a time with `node-move-in`, each new node arriving inside the radio
//! range of the existing network. [`Deployment::generate`] reproduces
//! exactly that regime: every node after the first lands within range of
//! an already-placed one, so the unit-disk graph is connected by
//! construction.

use crate::point::Point2;
use crate::region::Region;
use crate::rng::{rng_from_seed, Rng};
use crate::spatial::GridIndex;
use rand::Rng as _;

/// Full description of a deployment to generate.
#[derive(Debug, Clone, Copy)]
pub struct DeploymentConfig {
    /// The deployment field.
    pub region: Region,
    /// Number of nodes to place.
    pub n: usize,
    /// Radio range in field units (0.5 for the paper's 50 m).
    pub range: f64,
    /// RNG seed; equal seeds give identical deployments.
    pub seed: u64,
}

impl DeploymentConfig {
    /// The paper's configuration: `n` nodes on the 10×10-unit field with a
    /// 0.5-unit range, placed incrementally connected.
    pub fn paper(n: usize, seed: u64) -> Self {
        Self {
            region: Region::paper_10x10(),
            n,
            range: crate::PAPER_RANGE_UNITS,
            seed,
        }
    }

    /// Same as [`DeploymentConfig::paper`] but on an arbitrary square field
    /// side (8, 10 or 12 in the paper).
    pub fn paper_field(side: f64, n: usize, seed: u64) -> Self {
        Self {
            region: Region::square(side),
            n,
            range: crate::PAPER_RANGE_UNITS,
            seed,
        }
    }
}

/// A generated set of node positions, in deployment (arrival) order.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The configuration that produced these positions.
    pub config: DeploymentConfig,
    /// Node positions, indexed by arrival order.
    pub positions: Vec<Point2>,
}

impl Deployment {
    /// Generate a deployment according to `config`.
    pub fn generate(config: DeploymentConfig) -> Self {
        let positions = incremental_connected(&config, &mut rng_from_seed(config.seed));
        Self { config, positions }
    }

    /// Number of placed nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the deployment is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Cheap structural hint: `true` if every node (in arrival order) has a
    /// predecessor within range, which proves connectivity. A `false` does
    /// *not* imply disconnection (a later arrival may bridge the gap); use
    /// the graph crate for an exact check.
    pub fn is_connected_hint(&self) -> bool {
        if self.positions.len() <= 1 {
            return true;
        }
        let r = self.config.range;
        let region = self.config.region;
        let mut idx = GridIndex::new(region.width(), region.height(), r);
        idx.insert(self.positions[0]);
        for &p in &self.positions[1..] {
            if !idx.any_within(p, r) {
                return false;
            }
            idx.insert(p);
        }
        true
    }
}

fn uniform_point(region: Region, rng: &mut Rng) -> Point2 {
    Point2::new(
        rng.random_range(0.0..=region.width()),
        rng.random_range(0.0..=region.height()),
    )
}

/// Uniform placement conditioned on connectivity: candidates are drawn
/// uniformly over the whole field and rejected unless they land within
/// radio range of an already-deployed node. The accepted distribution is
/// uniform over the (growing) coverage region, which keeps node density —
/// and therefore the maximum degree `D` — close to a plain uniform scatter
/// while guaranteeing the connected, incrementally-built network the
/// paper's `node-move-in` regime assumes. The first node lands uniformly
/// in the central quarter so the network has room to grow everywhere.
fn incremental_connected(config: &DeploymentConfig, rng: &mut Rng) -> Vec<Point2> {
    let region = config.region;
    let r = config.range;
    let mut idx = GridIndex::new(region.width(), region.height(), r);
    let mut out = Vec::with_capacity(config.n);
    if config.n == 0 {
        return out;
    }

    let c = region.center();
    let first = Point2::new(
        rng.random_range((c.x - region.width() * 0.25)..=(c.x + region.width() * 0.25)),
        rng.random_range((c.y - region.height() * 0.25)..=(c.y + region.height() * 0.25)),
    );
    idx.insert(first);
    out.push(first);

    // Early on the coverage region is a single small disk, so uniform
    // rejection can be slow; after many misses, fall back to proposing in
    // the annulus around a random existing node (still area-uniform within
    // the coverage region's frontier, just more likely to hit it).
    const MAX_UNIFORM_TRIES: u32 = 256;
    while out.len() < config.n {
        let mut accepted = false;
        for _ in 0..MAX_UNIFORM_TRIES {
            let candidate = uniform_point(region, rng);
            if idx.any_within(candidate, r) {
                idx.insert(candidate);
                out.push(candidate);
                accepted = true;
                break;
            }
        }
        if !accepted {
            let anchor = out[rng.random_range(0..out.len())];
            let theta = rng.random_range(0.0..std::f64::consts::TAU);
            let rad = r * rng.random_range(0.0f64..=1.0).sqrt();
            let candidate = region.clamp(Point2::new(
                anchor.x + rad * theta.cos(),
                anchor.y + rad * theta.sin(),
            ));
            if idx.any_within(candidate, r) {
                idx.insert(candidate);
                out.push(candidate);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_connected_is_connected_and_in_field() {
        let cfg = DeploymentConfig::paper(300, 11);
        let dep = Deployment::generate(cfg);
        assert_eq!(dep.len(), 300);
        assert!(dep.positions.iter().all(|&p| cfg.region.contains(p)));
        assert!(dep.is_connected_hint());
    }

    #[test]
    fn deployments_are_deterministic_per_seed() {
        let a = Deployment::generate(DeploymentConfig::paper(100, 5));
        let b = Deployment::generate(DeploymentConfig::paper(100, 5));
        let c = Deployment::generate(DeploymentConfig::paper(100, 6));
        assert_eq!(a.positions, b.positions);
        assert_ne!(a.positions, c.positions);
    }

    #[test]
    fn empty_deployment_is_fine() {
        let cfg = DeploymentConfig {
            region: Region::square(4.0),
            n: 0,
            range: 0.5,
            seed: 3,
        };
        let dep = Deployment::generate(cfg);
        assert!(dep.is_empty());
        assert!(dep.is_connected_hint());
    }

    #[test]
    fn paper_sweep_sizes_generate() {
        for &n in &[64usize, 100, 300, 500, 720] {
            let dep = Deployment::generate(DeploymentConfig::paper(n, 99));
            assert_eq!(dep.len(), n);
            assert!(dep.is_connected_hint());
        }
    }
}
