//! Planar geometry primitives: points and rectangular areas.
//!
//! All coordinates are in **meters**. The simulation areas of the paper are a
//! 5000 m × 5000 m square (25 km², random waypoint) and a 1200 m × 900 m campus
//! (city section).

use serde::{Deserialize, Serialize};
use simkit::SimRng;
use std::fmt;

/// A position in the plane, in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// East-west coordinate in meters.
    pub x: f64,
    /// North-south coordinate in meters.
    pub y: f64,
}

/// An axis-aligned rectangular simulation area `[0, width] × [0, height]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Area {
    width: f64,
    height: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from coordinates in meters.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`, in meters.
    ///
    /// ```
    /// # use mobility::point::Point;
    /// let a = Point::new(0.0, 0.0);
    /// let b = Point::new(3.0, 4.0);
    /// assert_eq!(a.distance(b), 5.0);
    /// ```
    pub fn distance(self, other: Point) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance (cheaper when only comparisons are needed).
    pub fn distance_squared(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Moves from `self` towards `target` by at most `max_distance` meters.
    ///
    /// If `target` is closer than `max_distance`, the result is exactly `target`.
    pub fn step_towards(self, target: Point, max_distance: f64) -> Point {
        let d = self.distance(target);
        if d <= max_distance || d == 0.0 {
            return target;
        }
        let ratio = max_distance / d;
        Point {
            x: self.x + (target.x - self.x) * ratio,
            y: self.y + (target.y - self.y) * ratio,
        }
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}m, {:.1}m)", self.x, self.y)
    }
}

impl Area {
    /// Creates an area of `width × height` meters.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not strictly positive or not finite.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(
            width.is_finite() && height.is_finite() && width > 0.0 && height > 0.0,
            "area dimensions must be positive and finite, got {width} x {height}"
        );
        Area { width, height }
    }

    /// A square area with the given side length in meters.
    pub fn square(side: f64) -> Self {
        Area::new(side, side)
    }

    /// The 5 km × 5 km (25 km²) square used by the paper's random-waypoint
    /// experiments.
    pub fn paper_random_waypoint() -> Self {
        Area::square(5_000.0)
    }

    /// The 1200 m × 900 m EPFL-campus-sized rectangle used by the paper's
    /// city-section experiments.
    pub fn paper_city_section() -> Self {
        Area::new(1_200.0, 900.0)
    }

    /// Width in meters.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Height in meters.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Surface in square meters.
    pub fn surface_m2(&self) -> f64 {
        self.width * self.height
    }

    /// `true` if the point lies inside the area (inclusive of the boundary).
    pub fn contains(&self, p: Point) -> bool {
        (0.0..=self.width).contains(&p.x) && (0.0..=self.height).contains(&p.y)
    }

    /// Clamps a point to the area boundary.
    pub fn clamp(&self, p: Point) -> Point {
        Point {
            x: p.x.clamp(0.0, self.width),
            y: p.y.clamp(0.0, self.height),
        }
    }

    /// A uniformly distributed random point inside the area.
    pub fn random_point(&self, rng: &mut SimRng) -> Point {
        Point {
            x: rng.uniform_f64(0.0, self.width),
            y: rng.uniform_f64(0.0, self.height),
        }
    }

    /// The geometric center of the area.
    pub fn center(&self) -> Point {
        Point::new(self.width / 2.0, self.height / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_and_squared_agree() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_squared(b), 25.0);
        assert_eq!(a.distance(a), 0.0);
        assert_eq!(b.distance(a), a.distance(b));
    }

    #[test]
    fn step_towards_reaches_and_clamps() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        assert_eq!(a.step_towards(b, 4.0), Point::new(4.0, 0.0));
        assert_eq!(a.step_towards(b, 15.0), b);
        assert_eq!(a.step_towards(a, 3.0), a);
    }

    #[test]
    fn area_contains_and_clamp() {
        let area = Area::new(100.0, 50.0);
        assert!(area.contains(Point::new(0.0, 0.0)));
        assert!(area.contains(Point::new(100.0, 50.0)));
        assert!(!area.contains(Point::new(100.1, 10.0)));
        assert!(!area.contains(Point::new(-0.1, 10.0)));
        assert_eq!(area.clamp(Point::new(150.0, -3.0)), Point::new(100.0, 0.0));
        assert_eq!(area.center(), Point::new(50.0, 25.0));
    }

    #[test]
    fn paper_areas_have_expected_sizes() {
        assert_eq!(Area::paper_random_waypoint().surface_m2(), 25_000_000.0);
        let campus = Area::paper_city_section();
        assert_eq!(campus.width(), 1200.0);
        assert_eq!(campus.height(), 900.0);
    }

    #[test]
    fn random_points_stay_inside() {
        let area = Area::new(300.0, 200.0);
        let mut rng = SimRng::seed_from(11);
        for _ in 0..1000 {
            assert!(area.contains(area.random_point(&mut rng)));
        }
    }

    #[test]
    #[should_panic]
    fn area_rejects_zero_dimension() {
        let _ = Area::new(0.0, 10.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The triangle inequality holds for the distance metric.
        #[test]
        fn triangle_inequality(ax in -1e4f64..1e4, ay in -1e4f64..1e4,
                               bx in -1e4f64..1e4, by in -1e4f64..1e4,
                               cx in -1e4f64..1e4, cy in -1e4f64..1e4) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            let c = Point::new(cx, cy);
            prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-6);
        }

        /// Stepping towards a target never overshoots and never increases distance.
        #[test]
        fn step_towards_never_overshoots(ax in 0f64..1000.0, ay in 0f64..1000.0,
                                         bx in 0f64..1000.0, by in 0f64..1000.0,
                                         step in 0f64..2000.0) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            let stepped = a.step_towards(b, step);
            prop_assert!(stepped.distance(b) <= a.distance(b) + 1e-9);
            prop_assert!(a.distance(stepped) <= step + 1e-9 || stepped == b);
        }

        /// Clamping always produces a point inside the area and is idempotent.
        #[test]
        fn clamp_is_idempotent(w in 1f64..5000.0, h in 1f64..5000.0,
                               x in -1e4f64..1e4, y in -1e4f64..1e4) {
            let area = Area::new(w, h);
            let clamped = area.clamp(Point::new(x, y));
            prop_assert!(area.contains(clamped));
            prop_assert_eq!(area.clamp(clamped), clamped);
        }
    }
}
