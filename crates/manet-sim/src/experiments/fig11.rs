//! Figure 11 — probability of event reception as a function of the validity
//! period, the speed of the processes and the number of subscribers
//! (random waypoint model).
//!
//! The paper publishes one event per run, varies the node speed
//! (0–40 m/s) and the event validity period (20–180 s), and reports the
//! reliability for two subscriber populations (20 % and 80 % of the 150
//! processes). The headline data point: at 80 % subscribers, processes moving
//! at 10 m/s reach ~95 % reliability with a 180 s validity period, and the same
//! reliability is reached at 30 m/s with only 90 s.

use super::{random_waypoint_builder, Effort};
use crate::output::DataTable;
use crate::runner::{run_scenario, SeedPlan};
use crate::scenario::ScenarioError;
use simkit::SimDuration;

/// Parameters of the Figure 11 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Config {
    /// Node speeds in m/s (every node moves at exactly this speed).
    pub speeds: Vec<f64>,
    /// Event validity periods.
    pub validities: Vec<SimDuration>,
    /// Subscriber fractions (the paper plots 0.2 and 0.8).
    pub subscriber_fractions: Vec<f64>,
    /// Seeds per data point.
    pub seeds: SeedPlan,
    /// Scenario size.
    pub effort: Effort,
}

impl Fig11Config {
    /// The paper's sweep: speeds {0,1,5,10,20,30,40} m/s, validities
    /// 20–180 s, 20 % and 80 % subscribers, 30 seeds, 150 nodes in 25 km².
    pub fn paper() -> Self {
        Fig11Config {
            speeds: vec![0.0, 1.0, 5.0, 10.0, 20.0, 30.0, 40.0],
            validities: [20u64, 40, 60, 90, 120, 150, 180]
                .into_iter()
                .map(SimDuration::from_secs)
                .collect(),
            subscriber_fractions: vec![0.2, 0.8],
            seeds: SeedPlan::paper(),
            effort: Effort::Paper,
        }
    }

    /// The reduced sweep for tests and `reproduce`.
    pub fn quick() -> Self {
        Fig11Config {
            speeds: vec![0.0, 10.0, 30.0],
            validities: [30u64, 90]
                .into_iter()
                .map(SimDuration::from_secs)
                .collect(),
            subscriber_fractions: vec![0.8],
            seeds: SeedPlan::quick(),
            effort: Effort::Quick,
        }
    }
}

/// Runs the Figure 11 sweep: one table per subscriber fraction, rows = speeds,
/// columns = validity periods, cells = mean reliability.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if a generated scenario is inconsistent
/// (which indicates a bug in the configuration rather than user error).
pub fn run(config: &Fig11Config) -> Result<Vec<DataTable>, ScenarioError> {
    let mut tables = Vec::new();
    for &fraction in &config.subscriber_fractions {
        let columns: Vec<String> = config
            .validities
            .iter()
            .map(|v| format!("validity {}s", v.as_millis() / 1000))
            .collect();
        let mut table = DataTable::new(
            format!(
                "Fig. 11 — reliability vs. speed and validity ({}% subscribers, random waypoint)",
                (fraction * 100.0).round()
            ),
            "speed [m/s]",
            columns,
        );
        for &speed in &config.speeds {
            let mut row = Vec::new();
            for &validity in &config.validities {
                let scenario =
                    random_waypoint_builder(config.effort, speed, speed, fraction, validity)
                        .label(format!(
                            "fig11 speed={speed} validity={}s interest={fraction}",
                            validity.as_millis() / 1000
                        ))
                        .build()?;
                let point = run_scenario(&scenario, config.seeds)?;
                row.push(point.reliability().mean);
            }
            table.push_row(format!("{speed}"), row);
        }
        tables.push(table);
    }
    Ok(tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_one_table_per_fraction() {
        let mut config = Fig11Config::quick();
        config.speeds = vec![10.0];
        config.validities = vec![SimDuration::from_secs(40)];
        config.seeds = SeedPlan::new(1, 1);
        let tables = run(&config).unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows().len(), 1);
        let value = tables[0].value("10", "validity 40s").unwrap();
        assert!((0.0..=1.0).contains(&value));
    }

    #[test]
    fn paper_config_matches_section_5() {
        let config = Fig11Config::paper();
        assert_eq!(config.speeds.len(), 7);
        assert_eq!(config.subscriber_fractions, vec![0.2, 0.8]);
        assert_eq!(config.seeds.runs, 30);
        assert!(config.validities.contains(&SimDuration::from_secs(180)));
    }

    #[test]
    fn longer_validity_never_hurts_reliability_much() {
        // Sanity on the headline trend: with the same seed set, a 90 s validity
        // must not do markedly worse than a 30 s validity at 10 m/s.
        let mut config = Fig11Config::quick();
        config.speeds = vec![10.0];
        config.seeds = SeedPlan::new(3, 2);
        let tables = run(&config).unwrap();
        let short = tables[0].value("10", "validity 30s").unwrap();
        let long = tables[0].value("10", "validity 90s").unwrap();
        assert!(
            long + 0.15 >= short,
            "longer validity should help dissemination (short={short}, long={long})"
        );
    }
}
