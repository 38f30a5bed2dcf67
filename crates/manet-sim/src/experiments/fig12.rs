//! Figure 12 — probability of event reception as a function of the validity
//! period and the number of subscribers, in a heterogeneous mobile environment
//! (each process moves at its own speed drawn from 1–40 m/s).
//!
//! The paper's observation: overall reliability depends on the *average* speed
//! of the network and the validity period rather than on the specific speed of
//! each process — with 60 % subscribers and a 120 s validity every subscriber
//! receives the event.

use super::{random_waypoint_builder, Effort};
use crate::output::DataTable;
use crate::runner::{run_scenario, SeedPlan};
use crate::scenario::ScenarioError;
use simkit::SimDuration;

/// Parameters of the Figure 12 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Config {
    /// Per-leg speed range each node draws from, in m/s.
    pub speed_range: (f64, f64),
    /// Event validity periods.
    pub validities: Vec<SimDuration>,
    /// Subscriber fractions (the paper sweeps 20–100 %).
    pub subscriber_fractions: Vec<f64>,
    /// Seeds per data point.
    pub seeds: SeedPlan,
    /// Scenario size.
    pub effort: Effort,
}

impl Fig12Config {
    /// The paper's sweep: speeds 1–40 m/s, validities 40–180 s, subscriber
    /// fractions 20–100 %, 30 seeds.
    pub fn paper() -> Self {
        Fig12Config {
            speed_range: (1.0, 40.0),
            validities: [40u64, 60, 80, 100, 120, 140, 160, 180]
                .into_iter()
                .map(SimDuration::from_secs)
                .collect(),
            subscriber_fractions: vec![0.2, 0.4, 0.6, 0.8, 1.0],
            seeds: SeedPlan::paper(),
            effort: Effort::Paper,
        }
    }

    /// The reduced sweep for tests and `reproduce`.
    pub fn quick() -> Self {
        Fig12Config {
            speed_range: (1.0, 40.0),
            validities: [40u64, 120]
                .into_iter()
                .map(SimDuration::from_secs)
                .collect(),
            subscriber_fractions: vec![0.2, 0.8],
            seeds: SeedPlan::quick(),
            effort: Effort::Quick,
        }
    }
}

/// Runs the Figure 12 sweep: rows = validity periods, columns = subscriber
/// fractions, cells = mean reliability.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if a generated scenario is inconsistent.
pub fn run(config: &Fig12Config) -> Result<DataTable, ScenarioError> {
    let columns: Vec<String> = config
        .subscriber_fractions
        .iter()
        .map(|f| format!("{}% subscribers", (f * 100.0).round()))
        .collect();
    let mut table = DataTable::new(
        "Fig. 12 — reliability vs. validity and subscribers (heterogeneous 1-40 m/s)",
        "validity [s]",
        columns,
    );
    for &validity in &config.validities {
        let mut row = Vec::new();
        for &fraction in &config.subscriber_fractions {
            let scenario = random_waypoint_builder(
                config.effort,
                config.speed_range.0,
                config.speed_range.1,
                fraction,
                validity,
            )
            .label(format!(
                "fig12 validity={}s interest={fraction}",
                validity.as_millis() / 1000
            ))
            .build()?;
            let point = run_scenario(&scenario, config.seeds)?;
            row.push(point.reliability().mean);
        }
        table.push_row(format!("{}", validity.as_millis() / 1000), row);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_covers_the_published_grid() {
        let config = Fig12Config::paper();
        assert_eq!(config.speed_range, (1.0, 40.0));
        assert_eq!(config.subscriber_fractions.len(), 5);
        assert!(config.validities.contains(&SimDuration::from_secs(120)));
    }

    #[test]
    fn quick_sweep_produces_the_expected_grid() {
        let mut config = Fig12Config::quick();
        config.validities = vec![SimDuration::from_secs(60)];
        config.subscriber_fractions = vec![0.5];
        config.seeds = SeedPlan::new(1, 1);
        let table = run(&config).unwrap();
        assert_eq!(table.rows().len(), 1);
        let value = table.value("60", "50% subscribers").unwrap();
        assert!((0.0..=1.0).contains(&value));
    }

    #[test]
    fn more_subscribers_do_not_hurt_reliability() {
        // The paper's trend: a denser subscriber population helps dissemination.
        let mut config = Fig12Config::quick();
        config.validities = vec![SimDuration::from_secs(90)];
        config.subscriber_fractions = vec![0.2, 1.0];
        config.seeds = SeedPlan::new(7, 2);
        let table = run(&config).unwrap();
        let sparse = table.value("90", "20% subscribers").unwrap();
        let dense = table.value("90", "100% subscribers").unwrap();
        assert!(
            dense + 0.15 >= sparse,
            "denser subscriber population should not reduce reliability (sparse={sparse}, dense={dense})"
        );
    }
}
