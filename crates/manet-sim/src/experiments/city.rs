//! Figures 13–16 — the city-section experiments.
//!
//! Fifteen processes drive on the campus street network (speed limits
//! 8–13 m/s, pauses at intersections); every process, in turn, becomes the
//! original publisher, and each data point is averaged over the publishers and
//! over the seeds. The four figures vary, respectively:
//!
//! * **Fig. 13** — the heartbeat upper-bound period (1–5 s), with 100 %
//!   subscribers and a 150 s validity: reliability degrades with sparser
//!   heartbeats (and the 3 s setting suffers extra collisions in the paper);
//! * **Fig. 14** — the fraction of subscribers (20–100 %);
//! * **Fig. 15** — the spread between the luckiest and unluckiest publisher
//!   (max − min reliability), same sweep as Fig. 14;
//! * **Fig. 16** — the event validity period (25–150 s).

use super::Effort;
use crate::output::DataTable;
use crate::report::ExperimentPoint;
use crate::runner::{run_scenario_reports, SeedPlan};
use crate::scenario::{Publication, PublisherChoice, ScenarioBuilder, ScenarioError};
use frugal::ProtocolConfig;
use simkit::{SimDuration, SimTime};

/// Parameters shared by the city-section experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct CityConfig {
    /// Number of processes on the map (the paper uses 15).
    pub node_count: usize,
    /// Which processes act as the original publisher, in turn.
    pub publishers: Vec<usize>,
    /// Seeds per (publisher, parameter) combination.
    pub seeds: SeedPlan,
    /// Warm-up before the publication.
    pub warmup: SimDuration,
    /// Heartbeat upper bounds swept by Fig. 13.
    pub hb_upper_bounds: Vec<SimDuration>,
    /// Subscriber fractions swept by Fig. 14/15.
    pub subscriber_fractions: Vec<f64>,
    /// Validity periods swept by Fig. 16.
    pub validities: Vec<SimDuration>,
    /// Default validity used when it is not the swept parameter (150 s).
    pub default_validity: SimDuration,
    /// Default heartbeat upper bound when it is not the swept parameter (1 s).
    pub default_hb_upper_bound: SimDuration,
}

impl CityConfig {
    /// The paper's parameters: 15 processes, every process publishes in turn,
    /// 30 seeds, heartbeat bounds 1–5 s, subscriber fractions 20–100 %,
    /// validities 25–150 s.
    pub fn paper() -> Self {
        CityConfig {
            node_count: 15,
            publishers: (0..15).collect(),
            seeds: SeedPlan::paper(),
            warmup: SimDuration::from_secs(30),
            hb_upper_bounds: (1..=5).map(SimDuration::from_secs).collect(),
            subscriber_fractions: vec![0.2, 0.4, 0.6, 0.8, 1.0],
            validities: [25u64, 50, 75, 100, 125, 150]
                .into_iter()
                .map(SimDuration::from_secs)
                .collect(),
            default_validity: SimDuration::from_secs(150),
            default_hb_upper_bound: SimDuration::from_secs(1),
        }
    }

    /// The reduced configuration for tests and `reproduce`.
    pub fn quick() -> Self {
        CityConfig {
            node_count: 15,
            publishers: vec![0, 7, 14],
            seeds: SeedPlan::quick(),
            warmup: SimDuration::from_secs(15),
            hb_upper_bounds: vec![SimDuration::from_secs(1), SimDuration::from_secs(5)],
            subscriber_fractions: vec![0.2, 1.0],
            validities: vec![SimDuration::from_secs(25), SimDuration::from_secs(150)],
            default_validity: SimDuration::from_secs(90),
            default_hb_upper_bound: SimDuration::from_secs(1),
        }
    }

    /// A configuration appropriate for the given effort level.
    pub fn for_effort(effort: Effort) -> Self {
        match effort {
            Effort::Paper => Self::paper(),
            Effort::Quick => Self::quick(),
        }
    }
}

/// Runs the common city scenario for one parameter combination, aggregating
/// over every configured publisher and seed.
fn run_city_point(
    config: &CityConfig,
    hb_upper_bound: SimDuration,
    subscriber_fraction: f64,
    validity: SimDuration,
) -> Result<ExperimentPoint, ScenarioError> {
    let mut point = ExperimentPoint::new();
    for &publisher in &config.publishers {
        let protocol_config = ProtocolConfig::paper_default().with_hb_upper_bound(hb_upper_bound);
        let scenario = ScenarioBuilder::city()
            .label(format!(
                "city hb={}s interest={subscriber_fraction} validity={}s publisher={publisher}",
                hb_upper_bound.as_millis() / 1000,
                validity.as_millis() / 1000
            ))
            .nodes(config.node_count)
            .subscriber_fraction(subscriber_fraction)
            .protocol(crate::scenario::ProtocolKind::Frugal(protocol_config))
            .timing(config.warmup, config.warmup + validity)
            .publications(vec![Publication {
                publisher: PublisherChoice::Node(publisher),
                topic: ".news.local".parse().expect("static topic"),
                at: SimTime::ZERO + config.warmup,
                validity,
                payload_bytes: 400,
            }])
            .build()?;
        for report in run_scenario_reports(&scenario, config.seeds)? {
            point.add(&report);
        }
    }
    Ok(point)
}

/// Figure 13: reliability as a function of the heartbeat upper-bound period.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if a generated scenario is inconsistent.
pub fn fig13(config: &CityConfig) -> Result<DataTable, ScenarioError> {
    let mut table = DataTable::new(
        "Fig. 13 — reliability vs. heartbeat upper-bound period (city section, 100% subscribers, validity 150s)",
        "heartbeat upper bound [s]",
        vec!["reliability".into()],
    );
    for &bound in &config.hb_upper_bounds {
        let point = run_city_point(config, bound, 1.0, config.default_validity)?;
        table.push_row(
            format!("{}", bound.as_millis() / 1000),
            vec![point.reliability().mean],
        );
    }
    Ok(table)
}

/// Figures 14 and 15: reliability and publisher-reliability spread as functions
/// of the subscriber fraction.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if a generated scenario is inconsistent.
pub fn fig14_15(config: &CityConfig) -> Result<(DataTable, DataTable), ScenarioError> {
    let mut reliability = DataTable::new(
        "Fig. 14 — reliability vs. subscribers (city section, heartbeat 1s, validity 150s)",
        "subscribers [%]",
        vec!["reliability".into()],
    );
    let mut spread = DataTable::new(
        "Fig. 15 — max-min reliability difference between publishers vs. subscribers (city section)",
        "subscribers [%]",
        vec!["reliability spread".into()],
    );
    for &fraction in &config.subscriber_fractions {
        let point = run_city_point(
            config,
            config.default_hb_upper_bound,
            fraction,
            config.default_validity,
        )?;
        let label = format!("{}", (fraction * 100.0).round());
        reliability.push_row(label.clone(), vec![point.reliability().mean]);
        spread.push_row(label, vec![point.publisher_reliability_spread()]);
    }
    Ok((reliability, spread))
}

/// Figure 16: reliability as a function of the event validity period.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if a generated scenario is inconsistent.
pub fn fig16(config: &CityConfig) -> Result<DataTable, ScenarioError> {
    let mut table = DataTable::new(
        "Fig. 16 — reliability vs. event validity period (city section, heartbeat 1s, 100% subscribers)",
        "validity [s]",
        vec!["reliability".into()],
    );
    for &validity in &config.validities {
        let point = run_city_point(config, config.default_hb_upper_bound, 1.0, validity)?;
        table.push_row(
            format!("{}", validity.as_millis() / 1000),
            vec![point.reliability().mean],
        );
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CityConfig {
        CityConfig {
            publishers: vec![0, 7],
            seeds: SeedPlan::new(1, 1),
            warmup: SimDuration::from_secs(10),
            ..CityConfig::quick()
        }
    }

    #[test]
    fn paper_config_matches_section_5() {
        let config = CityConfig::paper();
        assert_eq!(config.node_count, 15);
        assert_eq!(config.publishers.len(), 15);
        assert_eq!(config.hb_upper_bounds.len(), 5);
        assert_eq!(config.default_validity, SimDuration::from_secs(150));
        assert_eq!(CityConfig::for_effort(Effort::Paper), config);
        assert_eq!(CityConfig::for_effort(Effort::Quick), CityConfig::quick());
    }

    #[test]
    fn fig13_produces_one_row_per_bound() {
        let mut config = tiny();
        config.hb_upper_bounds = vec![SimDuration::from_secs(1)];
        config.default_validity = SimDuration::from_secs(60);
        let table = fig13(&config).unwrap();
        assert_eq!(table.rows().len(), 1);
        let value = table.value("1", "reliability").unwrap();
        assert!((0.0..=1.0).contains(&value));
    }

    #[test]
    fn fig14_15_share_rows_and_report_spread() {
        let mut config = tiny();
        config.subscriber_fractions = vec![1.0];
        config.default_validity = SimDuration::from_secs(60);
        let (reliability, spread) = fig14_15(&config).unwrap();
        assert_eq!(reliability.rows().len(), 1);
        assert_eq!(spread.rows().len(), 1);
        let r = reliability.value("100", "reliability").unwrap();
        let s = spread.value("100", "reliability spread").unwrap();
        assert!((0.0..=1.0).contains(&r));
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn fig16_longer_validity_helps() {
        let mut config = tiny();
        config.validities = vec![SimDuration::from_secs(20), SimDuration::from_secs(120)];
        config.seeds = SeedPlan::new(2, 2);
        let table = fig16(&config).unwrap();
        let short = table.value("20", "reliability").unwrap();
        let long = table.value("120", "reliability").unwrap();
        assert!(
            long + 0.1 >= short,
            "the paper's crucial trend: validity drives city-section reliability (short={short}, long={long})"
        );
    }
}
