//! Scenario descriptions: everything needed to reproduce one simulation run.
//!
//! A [`Scenario`] bundles the protocol under test, the mobility model, the
//! radio configuration, the population (how many processes, which fraction
//! subscribes to the event topic) and the publication plan. Scenarios are plain
//! data: the same scenario value run with the same seed produces the same
//! results, which is what the multi-seed experiment runner relies on.

use frugal::{FloodingPolicy, ProtocolConfig};
use mobility::Area;
use netsim::RadioConfig;
use pubsub::Topic;
use simkit::{SimDuration, SimTime};

/// Which dissemination protocol the nodes run.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolKind {
    /// The paper's frugal protocol with the given configuration.
    Frugal(ProtocolConfig),
    /// One of the three flooding baselines.
    Flooding(FloodingPolicy),
}

impl ProtocolKind {
    /// A short, stable name used in experiment reports.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::Frugal(_) => "frugal",
            ProtocolKind::Flooding(policy) => policy.name(),
        }
    }
}

/// Which mobility model the nodes follow.
#[derive(Debug, Clone, PartialEq)]
pub enum MobilityKind {
    /// Random waypoint over `area` with per-leg speeds in `[speed_min, speed_max]`
    /// m/s and the given pause time.
    RandomWaypoint {
        /// Roaming area.
        area: Area,
        /// Minimum per-leg speed in m/s.
        speed_min: f64,
        /// Maximum per-leg speed in m/s.
        speed_max: f64,
        /// Pause between legs.
        pause: SimDuration,
    },
    /// The city-section model on the synthetic campus street map.
    CityCampus,
    /// Nodes scattered uniformly over `area` that never move.
    Stationary {
        /// Placement area.
        area: Area,
    },
    /// Nodes placed at regular intervals along a horizontal line of the given
    /// length, never moving. Deterministic multi-hop chains for tests and
    /// examples.
    StationaryLine {
        /// Length of the line in meters (node 0 at x = 0, last node at x = length).
        length: f64,
    },
}

/// How the publisher of a scheduled publication is selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublisherChoice {
    /// A specific node index.
    Node(usize),
    /// A random node among the subscribers of the event topic.
    RandomSubscriber,
    /// A random node, subscriber or not.
    RandomAny,
}

/// One scheduled publication.
#[derive(Debug, Clone, PartialEq)]
pub struct Publication {
    /// Who publishes.
    pub publisher: PublisherChoice,
    /// The topic published on.
    pub topic: Topic,
    /// When the event is published.
    pub at: SimTime,
    /// The event's validity period.
    pub validity: SimDuration,
    /// The payload size in bytes.
    pub payload_bytes: usize,
}

/// A complete simulation scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable label used in reports.
    pub label: String,
    /// The protocol every node runs.
    pub protocol: ProtocolKind,
    /// The mobility model every node follows.
    pub mobility: MobilityKind,
    /// The shared radio configuration.
    pub radio: RadioConfig,
    /// Total number of processes.
    pub node_count: usize,
    /// Fraction (0–1) of the processes subscribed to [`Scenario::subscriber_topic`].
    pub subscriber_fraction: f64,
    /// The topic subscribers subscribe to (an ancestor of the event topic).
    pub subscriber_topic: Topic,
    /// The topic non-subscribers subscribe to instead (unrelated, so events of
    /// the measured topic are parasite events for them).
    pub bystander_topic: Topic,
    /// The topic events are published on (covered by `subscriber_topic`).
    pub event_topic: Topic,
    /// Scheduled publications.
    pub publications: Vec<Publication>,
    /// Total simulated time.
    pub duration: SimDuration,
    /// Time after which measurements start (counters are snapshotted and
    /// subtracted; reliability is unaffected). The paper discards the first
    /// 600 s of its random-waypoint runs.
    pub warmup: SimDuration,
    /// How often node positions are advanced.
    pub mobility_tick: SimDuration,
}

/// Errors detected when validating a [`Scenario`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The scenario has no nodes.
    NoNodes,
    /// The subscriber fraction is outside `[0, 1]`.
    BadSubscriberFraction,
    /// The subscriber topic does not cover the event topic, so no subscriber
    /// would ever receive the published events.
    SubscriberTopicDoesNotCoverEventTopic,
    /// A publication is scheduled after the end of the simulation.
    PublicationAfterEnd,
    /// The warm-up period is not shorter than the total duration.
    WarmupTooLong,
    /// The mobility tick is zero.
    ZeroMobilityTick,
    /// The radio range is not positive and finite.
    BadRadioRange(f64),
    /// Random-waypoint speeds are negative, not finite, or minimum above
    /// maximum.
    BadSpeedRange(f64, f64),
    /// The stationary line's length is not positive and finite.
    BadLineLength(f64),
    /// A publication names a publisher index the population does not have.
    PublisherOutOfRange {
        /// The offending node index.
        index: usize,
        /// The population size.
        node_count: usize,
    },
    /// The frugal configuration fails [`ProtocolConfig::validate`].
    BadProtocolConfig(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::NoNodes => write!(f, "scenario has no nodes"),
            ScenarioError::BadSubscriberFraction => {
                write!(f, "subscriber fraction must be within [0, 1]")
            }
            ScenarioError::SubscriberTopicDoesNotCoverEventTopic => {
                write!(f, "subscriber topic does not cover the event topic")
            }
            ScenarioError::PublicationAfterEnd => {
                write!(
                    f,
                    "a publication is scheduled after the end of the simulation"
                )
            }
            ScenarioError::WarmupTooLong => write!(f, "warm-up must be shorter than the duration"),
            ScenarioError::ZeroMobilityTick => write!(f, "mobility tick must be positive"),
            ScenarioError::BadRadioRange(range) => {
                write!(f, "radio range must be positive and finite, got {range} m")
            }
            ScenarioError::BadSpeedRange(min, max) => {
                write!(
                    f,
                    "speeds must satisfy 0 <= min <= max, got {min}..{max} m/s"
                )
            }
            ScenarioError::BadLineLength(length) => {
                write!(f, "line length must be positive and finite, got {length} m")
            }
            ScenarioError::PublisherOutOfRange { index, node_count } => {
                write!(
                    f,
                    "publisher index {index} is out of range for {node_count} nodes"
                )
            }
            ScenarioError::BadProtocolConfig(reason) => write!(f, "{reason}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl Scenario {
    /// Checks the scenario for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] found.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.node_count == 0 {
            return Err(ScenarioError::NoNodes);
        }
        if !(0.0..=1.0).contains(&self.subscriber_fraction) {
            return Err(ScenarioError::BadSubscriberFraction);
        }
        if !self.subscriber_topic.covers(&self.event_topic) {
            return Err(ScenarioError::SubscriberTopicDoesNotCoverEventTopic);
        }
        let end = SimTime::ZERO + self.duration;
        if self.publications.iter().any(|p| p.at > end) {
            return Err(ScenarioError::PublicationAfterEnd);
        }
        if self.warmup >= self.duration && !self.duration.is_zero() {
            return Err(ScenarioError::WarmupTooLong);
        }
        if self.mobility_tick.is_zero() {
            return Err(ScenarioError::ZeroMobilityTick);
        }
        if !(self.radio.range_m.is_finite() && self.radio.range_m > 0.0) {
            return Err(ScenarioError::BadRadioRange(self.radio.range_m));
        }
        match self.mobility {
            MobilityKind::RandomWaypoint {
                speed_min: min,
                speed_max: max,
                ..
            } if !(0.0 <= min && min <= max && max.is_finite()) => {
                return Err(ScenarioError::BadSpeedRange(min, max));
            }
            MobilityKind::StationaryLine { length } if !(length.is_finite() && length > 0.0) => {
                return Err(ScenarioError::BadLineLength(length));
            }
            _ => {}
        }
        for publication in &self.publications {
            match publication.publisher {
                PublisherChoice::Node(index) if index >= self.node_count => {
                    return Err(ScenarioError::PublisherOutOfRange {
                        index,
                        node_count: self.node_count,
                    });
                }
                _ => {}
            }
        }
        if let ProtocolKind::Frugal(config) = &self.protocol {
            config
                .validate()
                .map_err(ScenarioError::BadProtocolConfig)?;
        }
        Ok(())
    }

    /// Number of nodes subscribed to the measured topic.
    pub fn subscriber_count(&self) -> usize {
        ((self.node_count as f64) * self.subscriber_fraction).round() as usize
    }
}

/// Builder for [`Scenario`] with the paper's defaults filled in.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioBuilder {
    /// Starts from the paper's random-waypoint defaults: 150 nodes in 25 km²,
    /// 10 m/s, 1 s pause, frugal protocol with the paper configuration, the
    /// paper's radio, a 600 s warm-up and one publication of a 180 s event by a
    /// random subscriber right after the warm-up.
    pub fn new() -> Self {
        let subscriber_topic: Topic = ".news".parse().expect("static topic");
        let event_topic: Topic = ".news.local".parse().expect("static topic");
        let bystander_topic: Topic = ".background.chatter".parse().expect("static topic");
        let warmup = SimDuration::from_secs(600);
        let validity = SimDuration::from_secs(180);
        ScenarioBuilder {
            scenario: Scenario {
                label: "random-waypoint".to_owned(),
                protocol: ProtocolKind::Frugal(ProtocolConfig::paper_default()),
                mobility: MobilityKind::RandomWaypoint {
                    area: Area::paper_random_waypoint(),
                    speed_min: 10.0,
                    speed_max: 10.0,
                    pause: SimDuration::from_secs(1),
                },
                radio: RadioConfig::paper_random_waypoint(),
                node_count: 150,
                subscriber_fraction: 0.8,
                subscriber_topic: subscriber_topic.clone(),
                bystander_topic,
                event_topic: event_topic.clone(),
                publications: vec![Publication {
                    publisher: PublisherChoice::RandomSubscriber,
                    topic: event_topic,
                    at: SimTime::ZERO + warmup,
                    validity,
                    payload_bytes: 400,
                }],
                duration: warmup + validity,
                warmup,
                mobility_tick: SimDuration::from_millis(500),
            },
        }
    }

    /// Starts from the paper's city-section defaults: 15 nodes on the campus
    /// map, city radio (44 m range), frugal protocol, a 30 s warm-up and one
    /// publication of a 150 s event by node 0.
    pub fn city() -> Self {
        let mut builder = Self::new();
        builder.scenario.label = "city-section".to_owned();
        builder.scenario.mobility = MobilityKind::CityCampus;
        builder.scenario.radio = RadioConfig::paper_city_section();
        builder.scenario.node_count = 15;
        builder.scenario.subscriber_fraction = 1.0;
        let warmup = SimDuration::from_secs(30);
        let validity = SimDuration::from_secs(150);
        builder.scenario.warmup = warmup;
        builder.scenario.duration = warmup + validity;
        builder.scenario.publications = vec![Publication {
            publisher: PublisherChoice::Node(0),
            topic: builder.scenario.event_topic.clone(),
            at: SimTime::ZERO + warmup,
            validity,
            payload_bytes: 400,
        }];
        builder
    }

    /// Sets the report label.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.scenario.label = label.into();
        self
    }

    /// Sets the protocol under test.
    pub fn protocol(mut self, protocol: ProtocolKind) -> Self {
        self.scenario.protocol = protocol;
        self
    }

    /// Sets the mobility model.
    pub fn mobility(mut self, mobility: MobilityKind) -> Self {
        self.scenario.mobility = mobility;
        self
    }

    /// Sets the radio configuration.
    pub fn radio(mut self, radio: RadioConfig) -> Self {
        self.scenario.radio = radio;
        self
    }

    /// Sets the number of nodes.
    pub fn nodes(mut self, count: usize) -> Self {
        self.scenario.node_count = count;
        self
    }

    /// Sets the fraction of nodes subscribed to the measured topic.
    pub fn subscriber_fraction(mut self, fraction: f64) -> Self {
        self.scenario.subscriber_fraction = fraction;
        self
    }

    /// Replaces the publication plan.
    pub fn publications(mut self, publications: Vec<Publication>) -> Self {
        self.scenario.publications = publications;
        self
    }

    /// Sets total duration and warm-up.
    pub fn timing(mut self, warmup: SimDuration, duration: SimDuration) -> Self {
        self.scenario.warmup = warmup;
        self.scenario.duration = duration;
        self
    }

    /// Sets the mobility tick.
    pub fn mobility_tick(mut self, tick: SimDuration) -> Self {
        self.scenario.mobility_tick = tick;
        self
    }

    /// Validates and returns the scenario.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] if the configuration is inconsistent.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        self.scenario.validate()?;
        Ok(self.scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_builder_matches_paper_random_waypoint() {
        let scenario = ScenarioBuilder::new().build().unwrap();
        assert_eq!(scenario.node_count, 150);
        assert_eq!(scenario.subscriber_fraction, 0.8);
        assert_eq!(scenario.warmup, SimDuration::from_secs(600));
        assert_eq!(scenario.radio.range_m, 442.0);
        assert_eq!(scenario.subscriber_count(), 120);
        assert_eq!(scenario.protocol.name(), "frugal");
        assert_eq!(scenario.publications.len(), 1);
        assert!(scenario.subscriber_topic.covers(&scenario.event_topic));
    }

    #[test]
    fn city_builder_matches_paper_city_section() {
        let scenario = ScenarioBuilder::city().build().unwrap();
        assert_eq!(scenario.node_count, 15);
        assert_eq!(scenario.subscriber_fraction, 1.0);
        assert_eq!(scenario.radio.range_m, 44.0);
        assert!(matches!(scenario.mobility, MobilityKind::CityCampus));
        assert_eq!(
            scenario.publications[0].validity,
            SimDuration::from_secs(150)
        );
    }

    #[test]
    fn builder_overrides_apply() {
        let scenario = ScenarioBuilder::new()
            .label("custom")
            .nodes(30)
            .subscriber_fraction(0.5)
            .protocol(ProtocolKind::Flooding(FloodingPolicy::Simple))
            .mobility_tick(SimDuration::from_millis(250))
            .timing(SimDuration::from_secs(600), SimDuration::from_secs(660))
            .build()
            .unwrap();
        assert_eq!(scenario.label, "custom");
        assert_eq!(scenario.node_count, 30);
        assert_eq!(scenario.subscriber_count(), 15);
        assert_eq!(scenario.protocol.name(), "simple-flooding");
        assert_eq!(scenario.duration, SimDuration::from_secs(660));
        assert_eq!(scenario.mobility_tick, SimDuration::from_millis(250));
    }

    #[test]
    fn validation_catches_inconsistencies() {
        assert_eq!(
            ScenarioBuilder::new().nodes(0).build().unwrap_err(),
            ScenarioError::NoNodes
        );
        assert_eq!(
            ScenarioBuilder::new()
                .subscriber_fraction(1.5)
                .build()
                .unwrap_err(),
            ScenarioError::BadSubscriberFraction
        );
        assert_eq!(
            ScenarioBuilder::new()
                .mobility_tick(SimDuration::ZERO)
                .build()
                .unwrap_err(),
            ScenarioError::ZeroMobilityTick
        );
        // Publication after the end of the run.
        let late = ScenarioBuilder::new()
            .publications(vec![Publication {
                publisher: PublisherChoice::RandomAny,
                topic: ".news.local".parse().unwrap(),
                at: SimTime::from_secs(10_000),
                validity: SimDuration::from_secs(10),
                payload_bytes: 400,
            }])
            .build();
        assert_eq!(late.unwrap_err(), ScenarioError::PublicationAfterEnd);
        // Warm-up longer than the run.
        let bad_warmup = ScenarioBuilder::new()
            .timing(SimDuration::from_secs(100), SimDuration::from_secs(50))
            .publications(vec![])
            .build();
        assert_eq!(bad_warmup.unwrap_err(), ScenarioError::WarmupTooLong);
        // Event topic outside the subscriber topic's subtree.
        let mut scenario = ScenarioBuilder::new().build().unwrap();
        scenario.event_topic = ".elsewhere".parse().unwrap();
        assert_eq!(
            scenario.validate().unwrap_err(),
            ScenarioError::SubscriberTopicDoesNotCoverEventTopic
        );
        assert!(ScenarioError::NoNodes.to_string().contains("no nodes"));
    }

    /// Five scenarios `build()` used to accept: `World::new` panicked on the
    /// first four and silently clamped the publisher index of the fifth.
    #[test]
    fn validation_rejects_what_world_new_used_to_panic_on() {
        let waypoints = |speed_min, speed_max| MobilityKind::RandomWaypoint {
            area: Area::square(100.0),
            speed_min,
            speed_max,
            pause: SimDuration::ZERO,
        };
        let publisher_99 = Publication {
            publisher: PublisherChoice::Node(99),
            topic: ".news.local".parse().unwrap(),
            at: SimTime::from_secs(600),
            validity: SimDuration::from_secs(10),
            payload_bytes: 400,
        };
        let bad_x = ProtocolConfig {
            x: 0.0,
            ..ProtocolConfig::paper_default()
        };
        let new = ScenarioBuilder::new;
        let cases = [
            (
                new().radio(RadioConfig::ideal(0.0)),
                ScenarioError::BadRadioRange(0.0),
                "radio range must be positive and finite, got 0 m",
            ),
            (
                new().mobility(waypoints(9.0, 3.0)),
                ScenarioError::BadSpeedRange(9.0, 3.0),
                "speeds must satisfy 0 <= min <= max, got 9..3 m/s",
            ),
            (
                new().mobility(MobilityKind::StationaryLine { length: f64::NAN }),
                ScenarioError::BadLineLength(f64::NAN),
                "line length must be positive and finite, got NaN m",
            ),
            (
                new().protocol(ProtocolKind::Frugal(bad_x)),
                ScenarioError::BadProtocolConfig("x must be positive and finite, got 0".into()),
                "x must be positive and finite, got 0",
            ),
            (
                new().nodes(5).publications(vec![publisher_99]),
                ScenarioError::PublisherOutOfRange {
                    index: 99,
                    node_count: 5,
                },
                "publisher index 99 is out of range for 5 nodes",
            ),
        ];
        for (builder, expected, message) in cases {
            let err = builder.clone().build().unwrap_err();
            // Compared through `Debug`: the NaN payload is not equal to itself.
            assert_eq!(format!("{err:?}"), format!("{expected:?}"));
            assert_eq!(err.to_string(), message);
            let from_world = crate::world::World::new(builder.scenario, 1).err();
            assert_eq!(
                from_world.map(|err| err.to_string()).as_deref(),
                Some(message)
            );
        }
    }

    #[test]
    fn subscriber_count_rounds_to_nearest() {
        let scenario = ScenarioBuilder::new()
            .nodes(15)
            .subscriber_fraction(0.2)
            .build()
            .unwrap();
        assert_eq!(scenario.subscriber_count(), 3);
    }
}
