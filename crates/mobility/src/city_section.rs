//! The city section mobility model (Davies).
//!
//! Processes move on a street network: each road has a speed limit and a
//! *popularity* weight (the paper stresses that "some roads are more often used
//! than others" and that reliability in this model is driven by the "social
//! meeting points" where popular roads cross). A process repeatedly chooses a
//! destination intersection — weighted by popularity — computes the fastest
//! route there (Dijkstra over travel time), drives each road segment at its
//! speed limit, and may pause at intersections (red lights, parking).
//!
//! The paper uses a map of the EPFL campus (1200 m × 900 m); since that map is
//! not published, [`StreetMap::campus`] builds a synthetic street grid of the
//! same dimensions with a popular central avenue, which preserves the
//! heterogeneous road-usage behaviour the paper's analysis relies on.

use crate::model::MobilityModel;
use crate::point::{Area, Point};
use serde::{Deserialize, Serialize};
use simkit::{SimDuration, SimRng};
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

/// A road connecting two intersections of a [`StreetMap`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Road {
    /// Index of the first endpoint intersection.
    pub a: usize,
    /// Index of the second endpoint intersection.
    pub b: usize,
    /// Speed limit on this road, in m/s.
    pub speed_limit: f64,
    /// Relative popularity of the road; destinations adjacent to popular roads
    /// are chosen more often, concentrating traffic ("social meeting points").
    pub popularity: f64,
}

/// An immutable street network: intersections (points) connected by roads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreetMap {
    intersections: Vec<Point>,
    roads: Vec<Road>,
    /// `adjacency[i]` lists (neighbor intersection, road index) pairs.
    adjacency: Vec<Vec<(usize, usize)>>,
    area: Area,
}

/// Errors raised while building a [`StreetMap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreetMapError {
    /// The map has no intersections.
    Empty,
    /// A road references an intersection index that does not exist.
    DanglingRoad {
        /// Index of the offending road in insertion order.
        road: usize,
    },
    /// A road connects an intersection to itself.
    SelfLoop {
        /// Index of the offending road in insertion order.
        road: usize,
    },
    /// A road has a non-positive speed limit.
    InvalidSpeedLimit {
        /// Index of the offending road in insertion order.
        road: usize,
    },
    /// Some intersection cannot be reached from intersection 0.
    Disconnected {
        /// Index of an unreachable intersection.
        intersection: usize,
    },
}

impl std::fmt::Display for StreetMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreetMapError::Empty => write!(f, "street map has no intersections"),
            StreetMapError::DanglingRoad { road } => {
                write!(f, "road {road} references a missing intersection")
            }
            StreetMapError::SelfLoop { road } => write!(f, "road {road} is a self loop"),
            StreetMapError::InvalidSpeedLimit { road } => {
                write!(f, "road {road} has a non-positive speed limit")
            }
            StreetMapError::Disconnected { intersection } => {
                write!(f, "intersection {intersection} is unreachable")
            }
        }
    }
}

impl std::error::Error for StreetMapError {}

/// Incremental builder for [`StreetMap`].
#[derive(Debug, Clone, Default)]
pub struct StreetMapBuilder {
    intersections: Vec<Point>,
    roads: Vec<Road>,
}

impl StreetMapBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an intersection and returns its index.
    pub fn intersection(&mut self, p: Point) -> usize {
        self.intersections.push(p);
        self.intersections.len() - 1
    }

    /// Adds a bidirectional road between intersections `a` and `b`.
    pub fn road(&mut self, a: usize, b: usize, speed_limit: f64, popularity: f64) -> &mut Self {
        self.roads.push(Road {
            a,
            b,
            speed_limit,
            popularity,
        });
        self
    }

    /// Validates the network and builds the immutable map.
    ///
    /// # Errors
    ///
    /// Returns a [`StreetMapError`] if the map is empty, a road is malformed, or
    /// the network is not connected.
    pub fn build(self) -> Result<StreetMap, StreetMapError> {
        if self.intersections.is_empty() {
            return Err(StreetMapError::Empty);
        }
        let n = self.intersections.len();
        let mut adjacency = vec![Vec::new(); n];
        for (idx, road) in self.roads.iter().enumerate() {
            if road.a >= n || road.b >= n {
                return Err(StreetMapError::DanglingRoad { road: idx });
            }
            if road.a == road.b {
                return Err(StreetMapError::SelfLoop { road: idx });
            }
            if road.speed_limit <= 0.0 || !road.speed_limit.is_finite() {
                return Err(StreetMapError::InvalidSpeedLimit { road: idx });
            }
            adjacency[road.a].push((road.b, idx));
            adjacency[road.b].push((road.a, idx));
        }
        // Connectivity check (BFS from intersection 0).
        let mut visited = vec![false; n];
        let mut queue = std::collections::VecDeque::from([0usize]);
        visited[0] = true;
        while let Some(i) = queue.pop_front() {
            for &(j, _) in &adjacency[i] {
                if !visited[j] {
                    visited[j] = true;
                    queue.push_back(j);
                }
            }
        }
        if let Some(unreachable) = visited.iter().position(|v| !v) {
            return Err(StreetMapError::Disconnected {
                intersection: unreachable,
            });
        }
        let max_x = self
            .intersections
            .iter()
            .map(|p| p.x)
            .fold(f64::NEG_INFINITY, f64::max)
            .max(1.0);
        let max_y = self
            .intersections
            .iter()
            .map(|p| p.y)
            .fold(f64::NEG_INFINITY, f64::max)
            .max(1.0);
        Ok(StreetMap {
            intersections: self.intersections,
            roads: self.roads,
            adjacency,
            area: Area::new(max_x, max_y),
        })
    }
}

impl StreetMap {
    /// A synthetic campus-sized street grid (1200 m × 900 m), the stand-in for
    /// the paper's EPFL map.
    ///
    /// Layout: a 5 × 4 grid of intersections every 300 m. Horizontal roads carry
    /// a speed limit of 8–13 m/s depending on the row; the central east-west
    /// avenue (row 1) and the central north-south street (column 2) are marked
    /// as highly popular so traffic concentrates there, reproducing the paper's
    /// "certain roads have more importance than others".
    ///
    /// The map is built once per process and shared: every city-section node
    /// of every world holds the same `Arc`, so building a world's nodes does
    /// not rebuild the map for each of them.
    pub fn campus() -> Arc<StreetMap> {
        static CAMPUS: OnceLock<Arc<StreetMap>> = OnceLock::new();
        Arc::clone(CAMPUS.get_or_init(Self::build_campus))
    }

    /// Builds the map [`StreetMap::campus`] shares.
    fn build_campus() -> Arc<StreetMap> {
        let mut b = StreetMapBuilder::new();
        let cols = 5usize; // x: 0, 300, 600, 900, 1200
        let rows = 4usize; // y: 0, 300, 600, 900
        for row in 0..rows {
            for col in 0..cols {
                b.intersection(Point::new(col as f64 * 300.0, row as f64 * 300.0));
            }
        }
        let idx = |row: usize, col: usize| row * cols + col;
        // Horizontal roads.
        for row in 0..rows {
            // Speed limit varies by row: 8, 13, 10, 9 m/s.
            let speed = [8.0, 13.0, 10.0, 9.0][row % 4];
            let popularity = if row == 1 { 5.0 } else { 1.0 };
            for col in 0..cols - 1 {
                b.road(idx(row, col), idx(row, col + 1), speed, popularity);
            }
        }
        // Vertical roads.
        for col in 0..cols {
            let speed = [9.0, 10.0, 12.0, 10.0, 8.0][col % 5];
            let popularity = if col == 2 { 4.0 } else { 1.0 };
            for row in 0..rows - 1 {
                b.road(idx(row, col), idx(row + 1, col), speed, popularity);
            }
        }
        Arc::new(b.build().expect("campus map is statically valid"))
    }

    /// Number of intersections.
    fn intersection_count(&self) -> usize {
        self.intersections.len()
    }

    /// The position of intersection `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn intersection(&self, i: usize) -> Point {
        self.intersections[i]
    }

    /// The roads in insertion order, probed by `campus_speed_limits_match_paper_range`.
    #[cfg(test)]
    fn roads(&self) -> &[Road] {
        &self.roads
    }

    /// The bounding area of the map.
    pub fn area(&self) -> Area {
        self.area
    }

    /// Popularity weight of an intersection: the sum of the popularity of its
    /// adjacent roads. Used to bias destination choice towards busy spots.
    fn intersection_popularity(&self, i: usize) -> f64 {
        self.adjacency[i]
            .iter()
            .map(|&(_, road)| self.roads[road].popularity)
            .sum()
    }

    /// The road joining intersections `a` and `b`, if one exists.
    fn road_between(&self, a: usize, b: usize) -> Option<&Road> {
        self.adjacency[a]
            .iter()
            .find(|&&(n, _)| n == b)
            .map(|&(_, road)| &self.roads[road])
    }

    /// Fastest route (by travel time at each road's speed limit) from `from` to
    /// `to`, as a list of intersection indices including both endpoints.
    /// Returns `None` only if the intersections are not connected, which a
    /// successfully built map rules out.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` is out of bounds.
    fn fastest_route(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        assert!(from < self.intersections.len() && to < self.intersections.len());
        if from == to {
            return Some(vec![from]);
        }
        #[derive(PartialEq)]
        struct State {
            cost: f64,
            node: usize,
        }
        impl Eq for State {}
        impl Ord for State {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Min-heap on cost.
                other
                    .cost
                    .partial_cmp(&self.cost)
                    .unwrap_or(std::cmp::Ordering::Equal)
            }
        }
        impl PartialOrd for State {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let n = self.intersections.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev = vec![usize::MAX; n];
        let mut heap = BinaryHeap::new();
        dist[from] = 0.0;
        heap.push(State {
            cost: 0.0,
            node: from,
        });
        while let Some(State { cost, node }) = heap.pop() {
            if node == to {
                break;
            }
            if cost > dist[node] {
                continue;
            }
            for &(next, road_idx) in &self.adjacency[node] {
                let road = &self.roads[road_idx];
                let length = self.intersections[node].distance(self.intersections[next]);
                let travel = length / road.speed_limit;
                let next_cost = cost + travel;
                if next_cost < dist[next] {
                    dist[next] = next_cost;
                    prev[next] = node;
                    heap.push(State {
                        cost: next_cost,
                        node: next,
                    });
                }
            }
        }
        if dist[to].is_infinite() {
            return None;
        }
        let mut path = vec![to];
        let mut cur = to;
        while cur != from {
            cur = prev[cur];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

/// Configuration of a [`CitySection`] process.
#[derive(Debug, Clone)]
pub struct CitySectionConfig {
    /// The shared street network.
    pub map: Arc<StreetMap>,
    /// Probability of stopping when arriving at an intersection (red light,
    /// parking manoeuvre, ...).
    pub pause_probability: f64,
    /// Shortest pause when a stop happens.
    pub pause_min: SimDuration,
    /// Longest pause when a stop happens.
    pub pause_max: SimDuration,
}

impl CitySectionConfig {
    /// The configuration used for the paper's city-section experiments: the
    /// campus map, a 30 % chance of stopping at an intersection, and stops of
    /// 2–15 s (red lights to short parking).
    pub fn paper_campus() -> Self {
        CitySectionConfig {
            map: StreetMap::campus(),
            pause_probability: 0.3,
            pause_min: SimDuration::from_secs(2),
            pause_max: SimDuration::from_secs(15),
        }
    }
}

/// Movement state of a city-section process.
#[derive(Debug, Clone, PartialEq)]
enum Drive {
    /// Driving towards `route[next]`; `speed` is the current road's limit.
    Moving {
        route: Vec<usize>,
        next: usize,
        speed: f64,
    },
    /// Stopped at an intersection for `remaining` time; will then continue with
    /// the stored route.
    Paused {
        route: Vec<usize>,
        next: usize,
        remaining: SimDuration,
    },
}

/// A single process following the city section model.
#[derive(Debug, Clone)]
pub struct CitySection {
    config: CitySectionConfig,
    position: Point,
    at_intersection: usize,
    drive: Drive,
}

impl CitySection {
    /// Creates a process starting at a popularity-weighted random intersection.
    pub fn new(config: CitySectionConfig, rng: &mut SimRng) -> Self {
        let weights: Vec<f64> = (0..config.map.intersection_count())
            .map(|i| config.map.intersection_popularity(i))
            .collect();
        let start = rng.pick_weighted(&weights).unwrap_or(0);
        Self::from_intersection(config, start, rng)
    }

    /// Creates a process starting at the given intersection.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a valid intersection index.
    fn from_intersection(config: CitySectionConfig, start: usize, rng: &mut SimRng) -> Self {
        assert!(
            start < config.map.intersection_count(),
            "invalid start intersection"
        );
        let position = config.map.intersection(start);
        let mut this = CitySection {
            config,
            position,
            at_intersection: start,
            drive: Drive::Paused {
                route: vec![start],
                next: 0,
                remaining: SimDuration::ZERO,
            },
        };
        this.plan_new_trip(rng);
        this
    }

    /// The intersection most recently visited, probed by `from_intersection_starts_there`.
    #[cfg(test)]
    fn last_intersection(&self) -> usize {
        self.at_intersection
    }

    fn plan_new_trip(&mut self, rng: &mut SimRng) {
        let map = &self.config.map;
        // Choose a destination different from the current intersection, weighted
        // by intersection popularity.
        let weights: Vec<f64> = (0..map.intersection_count())
            .map(|i| {
                if i == self.at_intersection {
                    0.0
                } else {
                    map.intersection_popularity(i)
                }
            })
            .collect();
        let destination = match rng.pick_weighted(&weights) {
            Some(d) => d,
            None => {
                // Single-intersection map: nothing to do, stay parked.
                self.drive = Drive::Paused {
                    route: vec![self.at_intersection],
                    next: 0,
                    remaining: SimDuration::MAX,
                };
                return;
            }
        };
        let route = map
            .fastest_route(self.at_intersection, destination)
            .expect("street maps are connected by construction");
        let speed = self.segment_speed(&route, 1);
        self.drive = Drive::Moving {
            route,
            next: 1,
            speed,
        };
    }

    /// Speed limit of the road leading to `route[next]`, or 0 if the route has
    /// no further segment.
    fn segment_speed(&self, route: &[usize], next: usize) -> f64 {
        if next == 0 || next >= route.len() {
            return 0.0;
        }
        self.config
            .map
            .road_between(route[next - 1], route[next])
            .map(|r| r.speed_limit)
            .unwrap_or(0.0)
    }

    fn arrive_at(&mut self, intersection: usize, route: Vec<usize>, next: usize, rng: &mut SimRng) {
        self.at_intersection = intersection;
        self.position = self.config.map.intersection(intersection);
        let should_pause = rng.chance(self.config.pause_probability);
        if next >= route.len() {
            // Destination reached: maybe pause, then plan the next trip.
            if should_pause {
                self.drive = Drive::Paused {
                    route: vec![intersection],
                    next: 0,
                    remaining: rng.uniform_duration(self.config.pause_min, self.config.pause_max),
                };
            } else {
                self.plan_new_trip(rng);
            }
            return;
        }
        if should_pause {
            self.drive = Drive::Paused {
                route,
                next,
                remaining: rng.uniform_duration(self.config.pause_min, self.config.pause_max),
            };
        } else {
            let speed = self.segment_speed(&route, next);
            self.drive = Drive::Moving { route, next, speed };
        }
    }
}

impl MobilityModel for CitySection {
    fn position(&self) -> Point {
        self.position
    }

    fn speed(&self) -> f64 {
        match &self.drive {
            Drive::Moving { speed, .. } => *speed,
            Drive::Paused { .. } => 0.0,
        }
    }

    fn time_to_transition(&self) -> SimDuration {
        match &self.drive {
            Drive::Moving { route, next, speed } => {
                if *speed <= 0.0 {
                    return SimDuration::MAX;
                }
                let target = self.config.map.intersection(route[*next]);
                SimDuration::from_secs_f64(self.position.distance(target) / *speed)
            }
            Drive::Paused { remaining, .. } => *remaining,
        }
    }

    fn advance(&mut self, dt: SimDuration, rng: &mut SimRng) {
        let mut remaining_secs = dt.as_secs_f64();
        while remaining_secs > 1e-9 {
            match std::mem::replace(
                &mut self.drive,
                Drive::Paused {
                    route: vec![self.at_intersection],
                    next: 0,
                    remaining: SimDuration::ZERO,
                },
            ) {
                Drive::Moving { route, next, speed } => {
                    let target = self.config.map.intersection(route[next]);
                    let dist = self.position.distance(target);
                    let travel = speed * remaining_secs;
                    if travel < dist {
                        self.position = self.position.step_towards(target, travel);
                        self.drive = Drive::Moving { route, next, speed };
                        remaining_secs = 0.0;
                    } else {
                        remaining_secs -= if speed > 0.0 {
                            dist / speed
                        } else {
                            remaining_secs
                        };
                        let reached = route[next];
                        self.arrive_at(reached, route, next + 1, rng);
                    }
                }
                Drive::Paused {
                    route,
                    next,
                    remaining,
                } => {
                    if remaining == SimDuration::MAX {
                        self.drive = Drive::Paused {
                            route,
                            next,
                            remaining,
                        };
                        return;
                    }
                    let pause_secs = remaining.as_secs_f64();
                    if pause_secs > remaining_secs {
                        self.drive = Drive::Paused {
                            route,
                            next,
                            remaining: remaining - SimDuration::from_secs_f64(remaining_secs),
                        };
                        remaining_secs = 0.0;
                    } else {
                        remaining_secs -= pause_secs;
                        if next == 0 || next >= route.len() {
                            self.plan_new_trip(rng);
                        } else {
                            let speed = self.segment_speed(&route, next);
                            self.drive = Drive::Moving { route, next, speed };
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campus_map_is_valid_and_connected() {
        let map = StreetMap::campus();
        assert_eq!(map.intersection_count(), 20);
        assert!(!map.roads().is_empty());
        // Every pair of intersections is routable.
        for from in 0..map.intersection_count() {
            for to in 0..map.intersection_count() {
                let route = map.fastest_route(from, to).expect("connected map");
                assert_eq!(*route.first().unwrap(), from);
                assert_eq!(*route.last().unwrap(), to);
            }
        }
    }

    #[test]
    fn campus_speed_limits_match_paper_range() {
        let map = StreetMap::campus();
        for road in map.roads() {
            assert!(
                (8.0..=13.0).contains(&road.speed_limit),
                "paper: city speeds are between 8 and 13 m/s, got {}",
                road.speed_limit
            );
        }
    }

    #[test]
    fn popular_roads_attract_more_weight() {
        let map = StreetMap::campus();
        // Intersection on the popular central avenue (row 1, col 2) vs a corner.
        let busy = map.intersection_popularity(5 + 2);
        let corner = map.intersection_popularity(0);
        assert!(busy > corner, "central intersections must be more popular");
    }

    #[test]
    fn fastest_route_prefers_fast_roads() {
        // Triangle: A--B slow direct, A--C--B fast detour of equal length per leg.
        let mut b = StreetMapBuilder::new();
        let a = b.intersection(Point::new(0.0, 0.0));
        let bb = b.intersection(Point::new(200.0, 0.0));
        let c = b.intersection(Point::new(100.0, 10.0));
        b.road(a, bb, 1.0, 1.0); // 200 m at 1 m/s = 200 s
        b.road(a, c, 10.0, 1.0); // ~100 m at 10 m/s = ~10 s
        b.road(c, bb, 10.0, 1.0);
        let map = b.build().unwrap();
        let route = map.fastest_route(a, bb).unwrap();
        assert_eq!(route, vec![a, c, bb], "the fast detour must win");
    }

    #[test]
    fn builder_rejects_malformed_maps() {
        assert_eq!(
            StreetMapBuilder::new().build().unwrap_err(),
            StreetMapError::Empty
        );

        let mut b = StreetMapBuilder::new();
        let i = b.intersection(Point::ORIGIN);
        b.road(i, 7, 10.0, 1.0);
        assert_eq!(
            b.build().unwrap_err(),
            StreetMapError::DanglingRoad { road: 0 }
        );

        let mut b = StreetMapBuilder::new();
        let i = b.intersection(Point::ORIGIN);
        b.road(i, i, 10.0, 1.0);
        assert_eq!(b.build().unwrap_err(), StreetMapError::SelfLoop { road: 0 });

        let mut b = StreetMapBuilder::new();
        let i = b.intersection(Point::ORIGIN);
        let j = b.intersection(Point::new(1.0, 0.0));
        b.road(i, j, 0.0, 1.0);
        assert_eq!(
            b.build().unwrap_err(),
            StreetMapError::InvalidSpeedLimit { road: 0 }
        );

        let mut b = StreetMapBuilder::new();
        b.intersection(Point::ORIGIN);
        b.intersection(Point::new(10.0, 0.0));
        assert_eq!(
            b.build().unwrap_err(),
            StreetMapError::Disconnected { intersection: 1 }
        );
    }

    #[test]
    fn error_display_is_informative() {
        let err = StreetMapError::Disconnected { intersection: 3 };
        assert!(err.to_string().contains("3"));
    }

    #[test]
    fn node_positions_stay_on_the_map_area() {
        let config = CitySectionConfig::paper_campus();
        let area = config.map.area();
        let mut rng = SimRng::seed_from(17);
        let mut node = CitySection::new(config, &mut rng);
        for _ in 0..5_000 {
            node.advance(SimDuration::from_millis(500), &mut rng);
            assert!(
                area.contains(node.position()),
                "left the campus at {}",
                node.position()
            );
        }
    }

    #[test]
    fn node_speed_respects_road_limits() {
        let config = CitySectionConfig::paper_campus();
        let mut rng = SimRng::seed_from(19);
        let mut node = CitySection::new(config, &mut rng);
        for _ in 0..2_000 {
            node.advance(SimDuration::from_millis(300), &mut rng);
            let s = node.speed();
            assert!(
                s == 0.0 || (8.0..=13.0).contains(&s),
                "speed {s} outside road limits"
            );
        }
    }

    #[test]
    fn node_sometimes_pauses_and_sometimes_moves() {
        let config = CitySectionConfig::paper_campus();
        let mut rng = SimRng::seed_from(23);
        let mut node = CitySection::new(config, &mut rng);
        let mut paused = 0;
        let mut moving = 0;
        for _ in 0..5_000 {
            node.advance(SimDuration::from_millis(500), &mut rng);
            if node.speed() == 0.0 {
                paused += 1;
            } else {
                moving += 1;
            }
        }
        assert!(moving > 0, "node must actually drive");
        assert!(
            paused > 0,
            "with 30% stop probability some pauses must happen"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let config = CitySectionConfig::paper_campus();
            let mut rng = SimRng::seed_from(seed);
            let mut node = CitySection::new(config, &mut rng);
            for _ in 0..500 {
                node.advance(SimDuration::from_millis(700), &mut rng);
            }
            node.position()
        };
        assert_eq!(run(31), run(31));
        assert_ne!(run(31), run(32));
    }

    #[test]
    fn from_intersection_starts_there() {
        let config = CitySectionConfig::paper_campus();
        let mut rng = SimRng::seed_from(1);
        let node = CitySection::from_intersection(config.clone(), 7, &mut rng);
        assert_eq!(node.position(), config.map.intersection(7));
        assert_eq!(node.last_intersection(), 7);
    }

    #[test]
    fn transition_time_tracks_the_drive_state() {
        let config = CitySectionConfig::paper_campus();
        let mut rng = SimRng::seed_from(29);
        let mut node = CitySection::new(config, &mut rng);
        // Freshly planned trip: moving towards the next intersection.
        let speed = node.speed();
        assert!(speed > 0.0);
        let expected_secs = node.time_to_transition().as_secs_f64();
        // The first leg of a campus route is at most one block (300 m at the
        // map's diagonal-free grid) away.
        assert!(expected_secs > 0.0 && expected_secs <= 300.0 / 8.0 + 1.0);
        // Drive until a pause happens; the transition time must then equal the
        // remaining pause and count down under advance.
        for _ in 0..10_000 {
            node.advance(SimDuration::from_millis(250), &mut rng);
            if node.speed() == 0.0 {
                break;
            }
        }
        assert_eq!(
            node.speed(),
            0.0,
            "30% stop probability must pause eventually"
        );
        let before = node.time_to_transition();
        assert!(before > SimDuration::ZERO);
        node.advance(SimDuration::from_millis(100), &mut rng);
        if node.speed() == 0.0 {
            assert_eq!(
                node.time_to_transition(),
                before - SimDuration::from_millis(100)
            );
        }
    }

    #[test]
    fn single_intersection_map_parks_forever() {
        let mut b = StreetMapBuilder::new();
        b.intersection(Point::ORIGIN);
        let map = Arc::new(b.build().unwrap());
        let config = CitySectionConfig {
            map,
            pause_probability: 0.0,
            pause_min: SimDuration::ZERO,
            pause_max: SimDuration::ZERO,
        };
        let mut rng = SimRng::seed_from(2);
        let mut node = CitySection::new(config, &mut rng);
        for _ in 0..10 {
            node.advance(SimDuration::from_secs(10), &mut rng);
        }
        assert_eq!(node.position(), Point::ORIGIN);
        assert_eq!(node.speed(), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A city-section node never leaves the map's bounding area and never
        /// exceeds the fastest speed limit of the map, for any seed and tick size.
        #[test]
        fn containment_and_speed_cap(seed in any::<u64>(), step_ms in 50u64..3_000) {
            let config = CitySectionConfig::paper_campus();
            let area = config.map.area();
            let max_limit = config
                .map
                .roads()
                .iter()
                .map(|r| r.speed_limit)
                .fold(0.0f64, f64::max);
            let mut rng = SimRng::seed_from(seed);
            let mut node = CitySection::new(config, &mut rng);
            let dt = SimDuration::from_millis(step_ms);
            for _ in 0..300 {
                let before = node.position();
                node.advance(dt, &mut rng);
                prop_assert!(area.contains(node.position()));
                let moved = before.distance(node.position());
                prop_assert!(moved <= max_limit * dt.as_secs_f64() + 1e-6);
            }
        }

        /// Routes returned by Dijkstra are simple paths along existing roads.
        #[test]
        fn routes_follow_roads(from in 0usize..20, to in 0usize..20) {
            let map = StreetMap::campus();
            let route = map.fastest_route(from, to).unwrap();
            prop_assert_eq!(*route.first().unwrap(), from);
            prop_assert_eq!(*route.last().unwrap(), to);
            for pair in route.windows(2) {
                prop_assert!(map.road_between(pair[0], pair[1]).is_some(),
                    "route hops {} -> {} without a road", pair[0], pair[1]);
            }
            let unique: std::collections::HashSet<_> = route.iter().collect();
            prop_assert_eq!(unique.len(), route.len(), "route must not revisit intersections");
        }
    }
}
