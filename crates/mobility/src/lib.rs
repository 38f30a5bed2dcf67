//! # mobility — MANET mobility models
//!
//! Movement substrates for the reproduction of *"Frugal Event Dissemination in
//! a Mobile Environment"* (Middleware 2005). The paper evaluates its protocol
//! under the two most popular MANET mobility models, both implemented here:
//!
//! * [`RandomWaypoint`] — nodes alternate straight-line trips to uniformly
//!   random waypoints with pause times (used for Figures 11, 12 and the
//!   frugality comparison, Figures 17–20);
//! * [`CitySection`] — nodes drive on a street network with per-road speed
//!   limits, popularity-weighted destinations and intersection pauses (used
//!   for Figures 13–16);
//!
//! plus a [`Stationary`] model and geometric primitives ([`Point`],
//! [`Area`]).
//!
//! # Examples
//!
//! ```
//! use mobility::{MobilityModel, RandomWaypoint, RandomWaypointConfig};
//! use simkit::{SimDuration, SimRng};
//!
//! let mut rng = SimRng::seed_from(1);
//! let config = RandomWaypointConfig::paper_fixed_speed(10.0);
//! let mut node = RandomWaypoint::new(config, &mut rng);
//! for _ in 0..60 {
//!     node.advance(SimDuration::from_secs(1), &mut rng);
//! }
//! assert!(config.area.contains(node.position()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod city_section;
pub mod model;
pub mod point;
pub mod random_waypoint;

pub use city_section::{CitySection, CitySectionConfig, StreetMap, StreetMapBuilder};
pub use model::{BoxedMobility, MobilityModel, Stationary};
pub use point::{Area, Point, Vector};
pub use random_waypoint::{RandomWaypoint, RandomWaypointConfig};
