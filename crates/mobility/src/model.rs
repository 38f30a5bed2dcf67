//! The [`MobilityModel`] trait shared by every mobility model.
//!
//! A mobility model owns the position of a single mobile process and is driven
//! by the simulation loop: the world calls [`MobilityModel::advance`] with the
//! elapsed virtual time since the previous call, and reads back the new
//! position and current speed. Models are deterministic given their RNG stream,
//! which is what makes whole experiments reproducible from one seed.

use crate::point::Point;
use simkit::{SimDuration, SimRng};
use std::fmt::Debug;

/// A model of how one mobile process moves through the simulation area.
pub trait MobilityModel: Debug + Send {
    /// The current position of the process, in meters.
    fn position(&self) -> Point;

    /// The current speed of the process in meters per second (zero while pausing).
    ///
    /// This mirrors the optional "speed" field of the paper's heartbeat
    /// messages: the protocol can use it to adapt its heartbeat period.
    fn speed(&self) -> f64;

    /// Advances the model by `dt` of virtual time.
    ///
    /// Implementations must be deterministic functions of their internal state
    /// and of the values drawn from `rng`.
    fn advance(&mut self, dt: SimDuration, rng: &mut SimRng);

    /// How long until the model's movement state can next change: the time to
    /// the next waypoint arrival, pause end, or intersection arrival —
    /// whatever ends the current phase. [`SimDuration::MAX`] means the state
    /// never changes again (a stationary or permanently parked process).
    ///
    /// This is the hook behind the simulator's *dirty-tick* mobility advance:
    /// while [`MobilityModel::speed`] is zero, the position cannot change and
    /// no randomness is drawn until this much time has elapsed, so the
    /// simulation loop may skip [`MobilityModel::advance`] entirely for up to
    /// this long and later catch the model up in one chunked call — with
    /// bit-identical state and RNG stream. For moving phases the value is the
    /// straight-line travel-time estimate to the phase boundary; callers must
    /// still advance moving models every tick (their position changes).
    ///
    /// The conservative default of [`SimDuration::ZERO`] disables skipping, so
    /// models that do not implement the hook are simply advanced every tick.
    fn time_to_transition(&self) -> SimDuration {
        SimDuration::ZERO
    }
}

/// A boxed mobility model, used when nodes in one simulation mix models.
pub type BoxedMobility = Box<dyn MobilityModel>;

/// A process that never moves. Used for the paper's 0 m/s data points and as a
/// degenerate baseline in tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stationary {
    position: Point,
}

impl Stationary {
    /// Creates a stationary process at `position`.
    pub fn new(position: Point) -> Self {
        Stationary { position }
    }
}

impl MobilityModel for Stationary {
    fn position(&self) -> Point {
        self.position
    }

    fn speed(&self) -> f64 {
        0.0
    }

    fn advance(&mut self, _dt: SimDuration, _rng: &mut SimRng) {}

    fn time_to_transition(&self) -> SimDuration {
        SimDuration::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_never_moves() {
        let p = Point::new(10.0, 20.0);
        let mut m = Stationary::new(p);
        let mut rng = SimRng::seed_from(1);
        for _ in 0..100 {
            m.advance(SimDuration::from_secs(5), &mut rng);
        }
        assert_eq!(m.position(), p);
        assert_eq!(m.speed(), 0.0);
    }

    #[test]
    fn stationary_is_object_safe() {
        let boxed: BoxedMobility = Box::new(Stationary::new(Point::ORIGIN));
        assert_eq!(boxed.position(), Point::ORIGIN);
    }

    #[test]
    fn stationary_never_transitions() {
        let m = Stationary::new(Point::ORIGIN);
        assert_eq!(m.time_to_transition(), SimDuration::MAX);
    }

    #[test]
    fn default_transition_hook_is_conservative() {
        #[derive(Debug)]
        struct Custom;
        impl MobilityModel for Custom {
            fn position(&self) -> Point {
                Point::ORIGIN
            }
            fn speed(&self) -> f64 {
                0.0
            }
            fn advance(&mut self, _dt: SimDuration, _rng: &mut SimRng) {}
        }
        // Models without the hook must be advanced every tick.
        assert_eq!(Custom.time_to_transition(), SimDuration::ZERO);
    }
}
