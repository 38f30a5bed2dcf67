//! Reproduction of every experiment in the paper's evaluation (Section 5).
//!
//! Each submodule regenerates one or more figures:
//!
//! | module | paper figures | what is measured |
//! |---|---|---|
//! | [`fig11`] | Fig. 11 | reliability vs. (speed × validity) at 20 % / 80 % subscribers, random waypoint |
//! | [`fig12`] | Fig. 12 | reliability vs. (validity × subscriber %) with heterogeneous 1–40 m/s speeds |
//! | [`city`] | Fig. 13–16 | city-section reliability vs. heartbeat period, subscriber %, publisher spread, validity |
//! | [`frugality`] | Fig. 17–20 | bandwidth, events sent, duplicates and parasites vs. the three flooding baselines |
//! | [`ablation`] | — | design-choice ablations not in the paper (speed adaptation, table capacity, heartbeat bound) |
//!
//! Every experiment comes in two sizes: `paper()` parameters match Section 5.1
//! (150 nodes, 25 km², 30 seeds, 600 s warm-up — expensive), while `quick()`
//! parameters shrink the population, the area and the seed count so the whole
//! suite runs in seconds; the *shape* of the results (orderings, trends) is
//! preserved, the absolute numbers are not.

pub mod ablation;
pub mod city;
pub mod fig11;
pub mod fig12;
pub mod frugality;

use crate::scenario::{MobilityKind, Publication, PublisherChoice, ScenarioBuilder};
use mobility::Area;
use simkit::{SimDuration, SimTime};

/// The two sizes an experiment can run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Paper-scale parameters (slow, matches Section 5.1).
    Paper,
    /// Reduced parameters for tests and `reproduce` (faster).
    Quick,
}

/// Shared helper: a random-waypoint scenario builder at either effort level,
/// with a single publication of `validity` right after the warm-up.
pub(crate) fn random_waypoint_builder(
    effort: Effort,
    speed_min: f64,
    speed_max: f64,
    subscriber_fraction: f64,
    validity: SimDuration,
) -> ScenarioBuilder {
    let (nodes, area, warmup) = match effort {
        Effort::Paper => (
            150,
            Area::paper_random_waypoint(),
            SimDuration::from_secs(600),
        ),
        Effort::Quick => (40, Area::square(1_500.0), SimDuration::from_secs(30)),
    };
    ScenarioBuilder::new()
        .nodes(nodes)
        .subscriber_fraction(subscriber_fraction)
        .mobility(MobilityKind::RandomWaypoint {
            area,
            speed_min,
            speed_max,
            pause: SimDuration::from_secs(1),
        })
        .timing(warmup, warmup + validity)
        .publications(vec![Publication {
            publisher: PublisherChoice::RandomSubscriber,
            topic: ".news.local".parse().expect("static topic"),
            at: SimTime::ZERO + warmup,
            validity,
            payload_bytes: 400,
        }])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_builder_scales_with_effort() {
        let quick =
            random_waypoint_builder(Effort::Quick, 10.0, 10.0, 0.8, SimDuration::from_secs(60))
                .build()
                .unwrap();
        let paper =
            random_waypoint_builder(Effort::Paper, 10.0, 10.0, 0.8, SimDuration::from_secs(60))
                .build()
                .unwrap();
        assert!(quick.node_count < paper.node_count);
        assert!(quick.warmup < paper.warmup);
        assert_eq!(paper.node_count, 150);
        assert_eq!(paper.warmup, SimDuration::from_secs(600));
        assert_eq!(quick.publications.len(), 1);
        assert_eq!(quick.duration, quick.warmup + SimDuration::from_secs(60));
    }
}
