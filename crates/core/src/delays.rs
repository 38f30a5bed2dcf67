//! Adaptive delay computations (the paper's Figure 8).
//!
//! Three delays govern the protocol:
//!
//! * the **heartbeat delay**: `x / averageSpeed`, clamped to
//!   `[hb_lower_bound, hb_upper_bound]`, falling back to the default when no
//!   neighbor advertises a speed — faster environments beacon more often;
//! * the **neighborhood garbage-collection delay**: `HBDelay × HB2NGC`;
//! * the **back-off delay**: `HBDelay / (HB2BO × |eventsToSend|)` — a process
//!   with more events to offer answers sooner, which is what suppresses
//!   duplicate retransmissions in the paper's part II/III example.

use crate::config::ProtocolConfig;
use simkit::SimDuration;

/// The paper's `COMPUTEHBDELAY`: the heartbeat period given the average speed
/// of the neighborhood (in m/s), clamped to the configured bounds. Without
/// speed information (or with the speed optimization disabled) the default
/// heartbeat delay is used before clamping.
pub fn compute_hb_delay(config: &ProtocolConfig, average_speed: Option<f64>) -> SimDuration {
    let base = match average_speed {
        Some(speed) if config.adapt_to_speed && speed > 0.0 => {
            SimDuration::from_secs_f64(config.x / speed)
        }
        _ => config.hb_delay_default,
    };
    base.min(config.hb_upper_bound).max(config.hb_lower_bound)
}

/// The paper's `COMPUTENGCDELAY`: `HBDelay × HB2NGC`.
pub fn compute_ngc_delay(config: &ProtocolConfig, hb_delay: SimDuration) -> SimDuration {
    hb_delay.mul_f64(config.hb2ngc)
}

/// The paper's `COMPUTEBODELAY`: `HBDelay / (HB2BO × |eventsToSend|)`, kept at
/// the minimum with an already-armed back-off (`current`). With nothing to
/// send, the current value is returned unchanged.
pub fn compute_bo_delay(
    config: &ProtocolConfig,
    hb_delay: SimDuration,
    events_to_send: usize,
    current: Option<SimDuration>,
) -> Option<SimDuration> {
    if events_to_send == 0 {
        return current;
    }
    let computed = hb_delay.div_f64(config.hb2bo * events_to_send as f64);
    // Never collapse to zero: the MAC needs at least one tick of separation.
    let computed = computed.max(SimDuration::from_millis(1));
    Some(match current {
        Some(existing) => existing.min(computed),
        None => computed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ProtocolConfig {
        ProtocolConfig::paper_default()
    }

    #[test]
    fn hb_delay_matches_paper_city_example() {
        // "the processes send heartbeats every 4 s (which is the fraction of x
        //  over the average speed of 10 mps)" — with no upper bound in the way.
        let mut cfg = config();
        cfg.hb_upper_bound = SimDuration::from_secs(60);
        assert_eq!(
            compute_hb_delay(&cfg, Some(10.0)),
            SimDuration::from_secs(4)
        );
    }

    #[test]
    fn hb_delay_is_clamped_to_upper_bound() {
        let cfg = config(); // upper bound 1 s
        assert_eq!(
            compute_hb_delay(&cfg, Some(10.0)),
            SimDuration::from_secs(1)
        );
        assert_eq!(compute_hb_delay(&cfg, Some(0.5)), SimDuration::from_secs(1));
        // So speed adaptation is inert at the paper's defaults: x / v = 40 / v s
        // and the 15 s default both clamp to 1 s at every speed up to 40 m/s,
        // which is why the ablation's "no speed adaptation" row cannot differ.
        let fixed = ProtocolConfig {
            adapt_to_speed: false,
            ..config()
        };
        for v in [1.0, 10.0, 40.0] {
            assert_eq!(
                compute_hb_delay(&cfg, Some(v)),
                compute_hb_delay(&fixed, Some(v))
            );
        }
    }

    #[test]
    fn hb_delay_is_clamped_to_lower_bound() {
        let cfg = config();
        // Absurdly fast neighborhood: x/speed is tiny, clamp to the lower bound.
        assert_eq!(compute_hb_delay(&cfg, Some(4_000.0)), cfg.hb_lower_bound);
    }

    #[test]
    fn hb_delay_without_speed_uses_default_then_clamps() {
        let cfg = config();
        // Default 15 s clamped by the 1 s upper bound.
        assert_eq!(compute_hb_delay(&cfg, None), SimDuration::from_secs(1));
        let mut relaxed = config();
        relaxed.hb_upper_bound = SimDuration::from_secs(30);
        assert_eq!(compute_hb_delay(&relaxed, None), SimDuration::from_secs(15));
        // Zero average speed behaves like "no information".
        assert_eq!(
            compute_hb_delay(&relaxed, Some(0.0)),
            SimDuration::from_secs(15)
        );
    }

    #[test]
    fn hb_delay_ignores_speed_when_optimization_disabled() {
        let mut cfg = config();
        cfg.adapt_to_speed = false;
        cfg.hb_upper_bound = SimDuration::from_secs(30);
        assert_eq!(
            compute_hb_delay(&cfg, Some(10.0)),
            SimDuration::from_secs(15)
        );
    }

    #[test]
    fn faster_neighborhood_beacons_more_often() {
        let mut cfg = config();
        cfg.hb_upper_bound = SimDuration::from_secs(60);
        let slow = compute_hb_delay(&cfg, Some(2.0));
        let fast = compute_hb_delay(&cfg, Some(30.0));
        assert!(fast < slow);
    }

    #[test]
    fn ngc_delay_is_hb_times_factor() {
        let cfg = config();
        assert_eq!(
            compute_ngc_delay(&cfg, SimDuration::from_secs(1)),
            SimDuration::from_millis(2_500)
        );
        assert_eq!(
            compute_ngc_delay(&cfg, SimDuration::from_secs(4)),
            SimDuration::from_secs(10)
        );
    }

    #[test]
    fn bo_delay_shrinks_with_more_events() {
        let cfg = config();
        let hb = SimDuration::from_secs(1);
        let one = compute_bo_delay(&cfg, hb, 1, None).unwrap();
        let five = compute_bo_delay(&cfg, hb, 5, None).unwrap();
        assert_eq!(one, SimDuration::from_millis(500));
        assert_eq!(five, SimDuration::from_millis(100));
        assert!(five < one, "a better-stocked process answers first");
    }

    #[test]
    fn bo_delay_keeps_minimum_with_existing_backoff() {
        let cfg = config();
        let hb = SimDuration::from_secs(1);
        // Existing back-off shorter than the new computation: keep it.
        let kept = compute_bo_delay(&cfg, hb, 1, Some(SimDuration::from_millis(80))).unwrap();
        assert_eq!(kept, SimDuration::from_millis(80));
        // Existing back-off longer: shrink to the new computation.
        let shrunk = compute_bo_delay(&cfg, hb, 10, Some(SimDuration::from_millis(400))).unwrap();
        assert_eq!(shrunk, SimDuration::from_millis(50));
    }

    #[test]
    fn bo_delay_with_nothing_to_send_is_passthrough() {
        let cfg = config();
        let hb = SimDuration::from_secs(1);
        assert_eq!(compute_bo_delay(&cfg, hb, 0, None), None);
        assert_eq!(
            compute_bo_delay(&cfg, hb, 0, Some(SimDuration::from_millis(7))),
            Some(SimDuration::from_millis(7))
        );
    }

    #[test]
    fn bo_delay_never_zero() {
        let cfg = config();
        let tiny = compute_bo_delay(&cfg, SimDuration::from_millis(1), 1000, None).unwrap();
        assert!(tiny >= SimDuration::from_millis(1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The heartbeat delay always lands inside the configured bounds.
        #[test]
        fn hb_delay_always_within_bounds(speed in proptest::option::of(0.0f64..200.0),
                                         upper_ms in 100u64..10_000) {
            let mut cfg = ProtocolConfig::paper_default();
            cfg.hb_upper_bound = SimDuration::from_millis(upper_ms);
            cfg.hb_lower_bound = SimDuration::from_millis(upper_ms.min(100));
            let delay = compute_hb_delay(&cfg, speed);
            prop_assert!(delay >= cfg.hb_lower_bound);
            prop_assert!(delay <= cfg.hb_upper_bound);
        }

        /// The back-off delay is antitone in the number of events to send and
        /// never exceeds the heartbeat delay divided by HB2BO.
        #[test]
        fn bo_delay_monotone(hb_ms in 10u64..10_000, n in 1usize..100) {
            let cfg = ProtocolConfig::paper_default();
            let hb = SimDuration::from_millis(hb_ms);
            let few = compute_bo_delay(&cfg, hb, n, None).unwrap();
            let more = compute_bo_delay(&cfg, hb, n + 1, None).unwrap();
            prop_assert!(more <= few);
            prop_assert!(few <= hb.div_f64(cfg.hb2bo).max(SimDuration::from_millis(1)));
        }
    }
}
