//! Plain 2-D points with the handful of operations the simulator needs.

use std::fmt;
use std::ops::{Add, Sub};

/// A point (or vector) in the 2-D deployment plane, in field units.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// Horizontal coordinate, in field units.
    pub x: f64,
    /// Vertical coordinate, in field units.
    pub y: f64,
}

impl Point2 {
    /// Construct a point from its coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point2 = Point2::new(0.0, 0.0);

    /// Squared Euclidean distance to `other`.
    ///
    /// Preferred over [`Point2::dist`] in inner loops: unit-disk adjacency
    /// only ever compares distances against a fixed range, so the square
    /// root can be avoided entirely.
    #[inline]
    pub fn dist_sq(&self, other: Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(&self, other: Point2) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Whether `other` lies within `range` of `self` (inclusive), i.e.
    /// whether two radios at these points can hear each other under the
    /// unit-disk model.
    #[inline]
    pub fn in_range(&self, other: Point2, range: f64) -> bool {
        self.dist_sq(other) <= range * range
    }

    /// Component-wise midpoint.
    pub fn midpoint(&self, other: Point2) -> Point2 {
        Point2::new((self.x + other.x) * 0.5, (self.y + other.y) * 0.5)
    }
}

impl Add for Point2 {
    type Output = Point2;
    fn add(self, rhs: Point2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point2 {
    type Output = Point2;
    fn sub(self, rhs: Point2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl fmt::Display for Point2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_matches_dist_sq() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(4.0, 6.0);
        assert_eq!(a.dist_sq(b), 25.0);
        assert_eq!(a.dist(b), 5.0);
    }

    #[test]
    fn dist_is_symmetric() {
        let a = Point2::new(-3.5, 0.25);
        let b = Point2::new(2.0, -1.0);
        assert_eq!(a.dist_sq(b), b.dist_sq(a));
    }

    #[test]
    fn in_range_is_inclusive_at_boundary() {
        let a = Point2::ORIGIN;
        let b = Point2::new(0.5, 0.0);
        assert!(a.in_range(b, 0.5));
        assert!(!a.in_range(Point2::new(0.5 + 1e-9, 0.0), 0.5));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Point2::new(1.0, -2.0);
        let b = Point2::new(0.5, 3.0);
        let c = a + b - b;
        assert!((c.x - a.x).abs() < 1e-12 && (c.y - a.y).abs() < 1e-12);
    }

    #[test]
    fn midpoint_is_halfway() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(2.0, 4.0);
        assert_eq!(a.midpoint(b), Point2::new(1.0, 2.0));
    }
}
