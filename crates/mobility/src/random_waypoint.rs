//! The random waypoint mobility model (Johnson & Maltz).
//!
//! A process repeatedly: picks a destination uniformly at random in the area,
//! picks a speed uniformly in `[speed_min, speed_max]`, travels to the
//! destination in a straight line at that speed, then pauses for a configurable
//! pause time before choosing the next waypoint. This is the model used for the
//! paper's large-area experiments (Figures 11, 12 and 17–20).
//!
//! [`RandomWaypointConfig::paper_fixed_speed`] builds the paper's Fig. 11
//! configuration, where every node moves at the same speed. Fig. 12's
//! heterogeneous speeds are a [`RandomWaypointConfig::new`] whose legs draw
//! from 1–40 m/s.

use crate::model::MobilityModel;
use crate::point::{Area, Point};
use serde::{Deserialize, Serialize};
use simkit::{SimDuration, SimRng};

/// Configuration of a [`RandomWaypoint`] process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RandomWaypointConfig {
    /// The rectangular area the process roams in.
    pub area: Area,
    /// Minimum speed in m/s drawn for each leg.
    pub speed_min: f64,
    /// Maximum speed in m/s drawn for each leg.
    pub speed_max: f64,
    /// Pause time between two legs.
    pub pause: SimDuration,
}

impl RandomWaypointConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if speeds are negative, not finite, or `speed_min > speed_max`.
    pub fn new(area: Area, speed_min: f64, speed_max: f64, pause: SimDuration) -> Self {
        assert!(
            speed_min.is_finite() && speed_max.is_finite() && speed_min >= 0.0,
            "speeds must be finite and non-negative"
        );
        assert!(
            speed_min <= speed_max,
            "speed_min ({speed_min}) must not exceed speed_max ({speed_max})"
        );
        RandomWaypointConfig {
            area,
            speed_min,
            speed_max,
            pause,
        }
    }

    /// The paper's fixed-speed configuration (Fig. 11): a 25 km² area, 1 s pause
    /// time and every leg at exactly `speed` m/s.
    pub fn paper_fixed_speed(speed: f64) -> Self {
        RandomWaypointConfig::new(
            Area::paper_random_waypoint(),
            speed,
            speed,
            SimDuration::from_secs(1),
        )
    }
}

/// Internal movement state of a random-waypoint process.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Travelling towards the waypoint at the given speed (m/s).
    Moving { waypoint: Point, speed: f64 },
    /// Pausing; `remaining` counts down to zero before the next leg.
    Pausing { remaining: SimDuration },
}

/// A single process following the random waypoint model.
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    config: RandomWaypointConfig,
    position: Point,
    phase: Phase,
}

impl RandomWaypoint {
    /// Creates a process at a uniformly random initial position with a first
    /// waypoint already chosen.
    pub fn new(config: RandomWaypointConfig, rng: &mut SimRng) -> Self {
        let position = config.area.random_point(rng);
        Self::from_position(config, position, rng)
    }

    /// Creates a process at a specific initial position.
    fn from_position(config: RandomWaypointConfig, position: Point, rng: &mut SimRng) -> Self {
        let mut this = RandomWaypoint {
            config,
            position,
            phase: Phase::Pausing {
                remaining: SimDuration::ZERO,
            },
        };
        this.pick_next_leg(rng);
        this
    }

    /// The configuration this process was created with.
    pub fn config(&self) -> &RandomWaypointConfig {
        &self.config
    }

    /// The waypoint being travelled to, probed by `transition_time_tracks_the_phase`.
    #[cfg(test)]
    fn current_waypoint(&self) -> Option<Point> {
        match self.phase {
            Phase::Moving { waypoint, .. } => Some(waypoint),
            Phase::Pausing { .. } => None,
        }
    }

    fn pick_next_leg(&mut self, rng: &mut SimRng) {
        let waypoint = self.config.area.random_point(rng);
        let speed = rng.uniform_f64(self.config.speed_min, self.config.speed_max);
        if speed <= 0.0 {
            // A zero speed would make the leg infinitely long; treat the node as
            // parked at its current position (paper's 0 m/s data points).
            self.phase = Phase::Pausing {
                remaining: SimDuration::MAX,
            };
        } else {
            self.phase = Phase::Moving { waypoint, speed };
        }
    }
}

impl MobilityModel for RandomWaypoint {
    fn position(&self) -> Point {
        self.position
    }

    fn speed(&self) -> f64 {
        match self.phase {
            Phase::Moving { speed, .. } => speed,
            Phase::Pausing { .. } => 0.0,
        }
    }

    fn time_to_transition(&self) -> SimDuration {
        match self.phase {
            Phase::Moving { waypoint, speed } => {
                if speed <= 0.0 {
                    return SimDuration::MAX;
                }
                SimDuration::from_secs_f64(self.position.distance(waypoint) / speed)
            }
            Phase::Pausing { remaining } => remaining,
        }
    }

    fn advance(&mut self, dt: SimDuration, rng: &mut SimRng) {
        let mut remaining_secs = dt.as_secs_f64();
        // A single `advance` may span a waypoint arrival and the following pause,
        // so loop until the time budget for this step is exhausted.
        while remaining_secs > 1e-9 {
            match self.phase {
                Phase::Moving { waypoint, speed } => {
                    let dist_to_wp = self.position.distance(waypoint);
                    let travel = speed * remaining_secs;
                    if travel < dist_to_wp {
                        self.position = self.position.step_towards(waypoint, travel);
                        remaining_secs = 0.0;
                    } else {
                        self.position = waypoint;
                        remaining_secs -= if speed > 0.0 { dist_to_wp / speed } else { 0.0 };
                        self.phase = Phase::Pausing {
                            remaining: self.config.pause,
                        };
                    }
                }
                Phase::Pausing { remaining } => {
                    if remaining == SimDuration::MAX {
                        // Permanently parked (zero-speed configuration).
                        return;
                    }
                    let pause_secs = remaining.as_secs_f64();
                    if pause_secs > remaining_secs {
                        self.phase = Phase::Pausing {
                            remaining: remaining - SimDuration::from_secs_f64(remaining_secs),
                        };
                        remaining_secs = 0.0;
                    } else {
                        remaining_secs -= pause_secs;
                        self.pick_next_leg(rng);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(speed_min: f64, speed_max: f64) -> RandomWaypointConfig {
        RandomWaypointConfig::new(
            Area::square(1000.0),
            speed_min,
            speed_max,
            SimDuration::from_secs(1),
        )
    }

    #[test]
    fn stays_inside_area() {
        let mut rng = SimRng::seed_from(42);
        let config = cfg(5.0, 20.0);
        let mut node = RandomWaypoint::new(config, &mut rng);
        for _ in 0..10_000 {
            node.advance(SimDuration::from_millis(500), &mut rng);
            assert!(
                config.area.contains(node.position()),
                "escaped to {}",
                node.position()
            );
        }
    }

    #[test]
    fn fixed_speed_config_moves_at_that_speed() {
        let mut rng = SimRng::seed_from(7);
        let config = RandomWaypointConfig::paper_fixed_speed(10.0);
        let node = RandomWaypoint::new(config, &mut rng);
        assert_eq!(node.speed(), 10.0);
    }

    #[test]
    fn zero_speed_never_moves() {
        let mut rng = SimRng::seed_from(3);
        let config = RandomWaypointConfig::paper_fixed_speed(0.0);
        let mut node = RandomWaypoint::new(config, &mut rng);
        let start = node.position();
        for _ in 0..100 {
            node.advance(SimDuration::from_secs(10), &mut rng);
        }
        assert_eq!(node.position(), start);
        assert_eq!(node.speed(), 0.0);
    }

    #[test]
    fn distance_travelled_bounded_by_speed() {
        let mut rng = SimRng::seed_from(9);
        let config = cfg(10.0, 10.0);
        let mut node = RandomWaypoint::new(config, &mut rng);
        for _ in 0..1000 {
            let before = node.position();
            node.advance(SimDuration::from_secs(1), &mut rng);
            let moved = before.distance(node.position());
            // At 10 m/s for 1 s a node covers at most 10 m (less when pausing or
            // when it reaches a waypoint mid-step and pauses).
            assert!(
                moved <= 10.0 + 1e-6,
                "moved {moved} m in one second at 10 m/s"
            );
        }
    }

    #[test]
    fn eventually_pauses_at_waypoints() {
        let mut rng = SimRng::seed_from(11);
        let config =
            RandomWaypointConfig::new(Area::square(50.0), 5.0, 5.0, SimDuration::from_secs(3));
        let mut node = RandomWaypoint::new(config, &mut rng);
        let mut seen_pause = false;
        for _ in 0..500 {
            node.advance(SimDuration::from_millis(200), &mut rng);
            if node.speed() == 0.0 {
                seen_pause = true;
            }
        }
        assert!(
            seen_pause,
            "a node in a 50 m box at 5 m/s must reach waypoints and pause"
        );
    }

    #[test]
    fn heterogeneous_speeds_vary_between_nodes() {
        let rng = SimRng::seed_from(13);
        let config = cfg(1.0, 40.0);
        let speeds: Vec<f64> = (0..20)
            .map(|i| {
                let mut node_rng = rng.derive(i);
                RandomWaypoint::new(config, &mut node_rng).speed()
            })
            .collect();
        let min = speeds.iter().copied().fold(f64::INFINITY, f64::min);
        let max = speeds.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max - min > 5.0,
            "20 heterogeneous nodes should span a wide speed range"
        );
        assert!(speeds.iter().all(|s| (1.0..=40.0).contains(s)));
    }

    #[test]
    fn deterministic_given_seed() {
        let config = cfg(1.0, 30.0);
        let run = |seed: u64| {
            let mut rng = SimRng::seed_from(seed);
            let mut node = RandomWaypoint::new(config, &mut rng);
            for _ in 0..200 {
                node.advance(SimDuration::from_millis(700), &mut rng);
            }
            node.position()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn from_position_starts_where_asked() {
        let mut rng = SimRng::seed_from(1);
        let start = Point::new(123.0, 456.0);
        let node = RandomWaypoint::from_position(cfg(1.0, 2.0), start, &mut rng);
        assert_eq!(node.position(), start);
        assert!(node.current_waypoint().is_some());
    }

    #[test]
    #[should_panic]
    fn rejects_inverted_speed_range() {
        let _ = RandomWaypointConfig::new(Area::square(10.0), 5.0, 1.0, SimDuration::ZERO);
    }

    #[test]
    fn transition_time_tracks_the_phase() {
        let mut rng = SimRng::seed_from(21);
        let config = cfg(10.0, 10.0);
        let node = RandomWaypoint::from_position(config, Point::new(0.0, 0.0), &mut rng);
        // Moving: time to the waypoint at 10 m/s.
        let wp = node.current_waypoint().unwrap();
        let expected = SimDuration::from_secs_f64(node.position().distance(wp) / 10.0);
        assert_eq!(node.time_to_transition(), expected);
        // Parked forever at 0 m/s: never transitions.
        let mut rng = SimRng::seed_from(21);
        let parked = RandomWaypoint::new(RandomWaypointConfig::paper_fixed_speed(0.0), &mut rng);
        assert_eq!(parked.time_to_transition(), SimDuration::MAX);
    }

    #[test]
    fn paused_transition_time_counts_down_and_skipping_is_exact() {
        // Drive a node into a pause, then verify that (a) time_to_transition
        // reports the remaining pause and (b) catching up the skipped pause
        // time in one chunked advance is bit-identical (state and RNG stream)
        // to tick-by-tick advances.
        let mut rng = SimRng::seed_from(33);
        let config =
            RandomWaypointConfig::new(Area::square(50.0), 5.0, 5.0, SimDuration::from_secs(10));
        let mut node = RandomWaypoint::new(config, &mut rng);
        let tick = SimDuration::from_millis(500);
        while node.speed() > 0.0 {
            node.advance(tick, &mut rng);
        }
        let remaining = node.time_to_transition();
        assert!(remaining > SimDuration::ZERO && remaining <= SimDuration::from_secs(10));

        let mut ticked = node.clone();
        let mut ticked_rng = rng.clone();
        let mut chunked = node;
        let mut chunked_rng = rng;
        // Skip 6 ticks: the naive path advances each one; the dirty path
        // catches up with one 5-tick chunk followed by the final tick.
        for _ in 0..6 {
            ticked.advance(tick, &mut ticked_rng);
        }
        chunked.advance(tick * 5, &mut chunked_rng);
        chunked.advance(tick, &mut chunked_rng);
        assert_eq!(ticked.position(), chunked.position());
        assert_eq!(ticked.speed(), chunked.speed());
        assert_eq!(ticked.time_to_transition(), chunked.time_to_transition());
        assert_eq!(
            ticked_rng.uniform_u64(0, u64::MAX),
            chunked_rng.uniform_u64(0, u64::MAX)
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Regardless of seed, step size and speed range, a random-waypoint node
        /// never leaves its area and never moves faster than its configured
        /// maximum speed.
        #[test]
        fn containment_and_speed_limit(seed in any::<u64>(),
                                       speed_max in 0.5f64..50.0,
                                       step_ms in 1u64..5_000) {
            let config = RandomWaypointConfig::new(
                Area::square(800.0), 0.1, speed_max, SimDuration::from_secs(1));
            let mut rng = SimRng::seed_from(seed);
            let mut node = RandomWaypoint::new(config, &mut rng);
            let dt = SimDuration::from_millis(step_ms);
            for _ in 0..200 {
                let before = node.position();
                node.advance(dt, &mut rng);
                prop_assert!(config.area.contains(node.position()));
                let moved = before.distance(node.position());
                prop_assert!(moved <= speed_max * dt.as_secs_f64() + 1e-6);
            }
        }
    }
}
