//! Property-based tests of the geometry layer.

use dsnet_geom::{Deployment, DeploymentConfig, GridIndex, Point2, Region};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn grid_index_matches_brute_force(
        points in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..120),
        queries in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..10),
        radius in 0.2f64..1.0,
    ) {
        let mut idx = GridIndex::new(10.0, 10.0, radius);
        let pts: Vec<Point2> = points.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        for &p in &pts {
            idx.insert(p);
        }
        for &(qx, qy) in &queries {
            let q = Point2::new(qx, qy);
            let mut got = idx.within(q, radius);
            got.sort_unstable();
            let expected: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| p.dist_sq(q) <= radius * radius)
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn grid_index_matches_brute_force_after_relocations(
        points in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 2..80),
        moves in prop::collection::vec(
            (any::<usize>(), (0.0f64..10.0, 0.0f64..10.0)),
            1..120,
        ),
        queries in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..10),
        radius in 0.2f64..1.0,
    ) {
        let mut idx = GridIndex::new(10.0, 10.0, radius);
        let mut pts: Vec<Point2> = points.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        for &p in &pts {
            idx.insert(p);
        }
        for (which, (x, y)) in &moves {
            let id = which % pts.len();
            let p = Point2::new(*x, *y);
            idx.relocate(id, p);
            pts[id] = p;
        }
        for &(qx, qy) in &queries {
            let q = Point2::new(qx, qy);
            let mut got = idx.within(q, radius);
            got.sort_unstable();
            let expected: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| p.dist_sq(q) <= radius * radius)
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn deployments_stay_in_field_and_are_deterministic(
        n in 1usize..200,
        seed in any::<u64>(),
        side in 4.0f64..12.0,
    ) {
        let cfg = DeploymentConfig {
            region: Region::square(side),
            n,
            range: 0.5,
            seed,
        };
        let a = Deployment::generate(cfg);
        let b = Deployment::generate(cfg);
        prop_assert_eq!(a.positions.len(), n);
        prop_assert_eq!(&a.positions, &b.positions);
        prop_assert!(a.positions.iter().all(|&p| cfg.region.contains(p)));
        prop_assert!(a.is_connected_hint());
    }

    #[test]
    fn distances_obey_the_triangle_inequality(
        ax in -5.0f64..5.0, ay in -5.0f64..5.0,
        bx in -5.0f64..5.0, by in -5.0f64..5.0,
        cx in -5.0f64..5.0, cy in -5.0f64..5.0,
    ) {
        let (a, b, c) = (Point2::new(ax, ay), Point2::new(bx, by), Point2::new(cx, cy));
        prop_assert!(a.dist(c) <= a.dist(b) + b.dist(c) + 1e-9);
        prop_assert!((a.dist(b) - b.dist(a)).abs() < 1e-12);
    }

    #[test]
    fn in_range_is_symmetric(
        ax in 0.0f64..10.0, ay in 0.0f64..10.0,
        bx in 0.0f64..10.0, by in 0.0f64..10.0,
        r in 0.1f64..3.0,
    ) {
        let a = Point2::new(ax, ay);
        let b = Point2::new(bx, by);
        prop_assert_eq!(a.in_range(b, r), b.in_range(a, r));
    }
}
