//! # netsim — wireless PHY and broadcast MAC simulation
//!
//! The radio substrate for the reproduction of *"Frugal Event Dissemination in
//! a Mobile Environment"* (Middleware 2005). The paper runs its protocol
//! directly on an 802.11b MAC inside QualNet; this crate provides the
//! equivalent open model:
//!
//! * [`radio`] — [`RadioConfig`]: bit rates, the paper's radio ranges
//!   (442/339/321/273 m in the open area, 44 m in the city), frame air time and
//!   per-frame overhead; a test-only `propagation` module derives those ranges
//!   from the two-ray link budget, the oracle that pins them to the physics;
//! * [`grid`] — [`SpatialGrid`]: a uniform spatial hash over node positions
//!   (cell size = radio range) so reception queries touch only a 3×3 cell
//!   neighborhood instead of every node;
//! * [`medium`] — [`RadioMedium`]: the shared broadcast channel that decides,
//!   for every transmission, which nodes hear it, which frames collide, and
//!   keeps per-node byte/frame counters for the bandwidth experiments. The
//!   medium owns the node positions (pushed incrementally as nodes move) and
//!   resolves receptions through the grid in O(neighbors).
//!
//! # Examples
//!
//! ```
//! use mobility::Point;
//! use netsim::{RadioConfig, RadioMedium, ReceptionOutcome};
//! use simkit::{SimRng, SimTime};
//!
//! let positions = vec![Point::new(0.0, 0.0), Point::new(60.0, 0.0)];
//! let mut medium = RadioMedium::with_positions(RadioConfig::ideal(100.0), &positions);
//! let mut rng = SimRng::seed_from(7);
//!
//! let (tx, _ends_at) = medium.begin_transmission(0, 400, SimTime::ZERO);
//! let outcomes = medium.complete_transmission(tx, &mut rng);
//! assert_eq!(outcomes, vec![(1, ReceptionOutcome::Received)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod grid;
pub mod medium;
#[cfg(test)]
mod propagation;
pub mod radio;

pub use grid::SpatialGrid;
pub use medium::{RadioMedium, ReceptionOutcome, TrafficCounters, TxId};
pub use radio::{BitRate, RadioConfig};
