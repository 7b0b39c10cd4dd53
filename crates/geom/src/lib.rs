#![warn(missing_docs)]

//! 2-D geometry and node deployment for the dsnet reproduction.
//!
//! The paper evaluates its protocols on unit-disk networks deployed on
//! square fields of 8×8, 10×10 and 12×12 *units*, where one unit is 100 m
//! and the radio communication range is 50 m (= 0.5 units). This crate
//! provides the geometric substrate for those experiments:
//!
//! * [`Point2`] — a plain 2-D point with distance helpers,
//! * [`Region`] — a rectangular deployment field (with constructors for the
//!   paper's three field sizes),
//! * [`GridIndex`] — a uniform-grid spatial hash used to answer "who is in
//!   radio range of this point?" queries in O(neighbours) time,
//! * [`deploy`] — the seeded placement generator [`Deployment::generate`],
//!   which mirrors the paper's dynamic node-move-in regime by ensuring
//!   every node lands within range of the already-deployed network.
//!
//! Everything is deterministic given a seed; no global RNG state is used.

pub mod deploy;
pub mod point;
pub mod region;
pub mod rng;
pub mod spatial;

pub use deploy::{Deployment, DeploymentConfig};
pub use point::Point2;
pub use region::Region;
pub use spatial::GridIndex;

/// The paper's radio communication range, expressed in field units
/// (50 m with 1 unit = 100 m).
pub const PAPER_RANGE_UNITS: f64 = 0.5;

/// One field unit in metres, as specified in Section 6 of the paper.
pub const UNIT_METRES: f64 = 100.0;
