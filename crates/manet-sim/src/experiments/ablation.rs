//! Ablations of the design choices called out in `DESIGN.md`.
//!
//! These experiments are not in the paper; they isolate the contribution of the
//! individual mechanisms of the frugal protocol by disabling them one at a
//! time and re-running the standard random-waypoint scenario:
//!
//! * **speed-adaptive heartbeats** — `adapt_to_speed = false` keeps the static
//!   default heartbeat period instead of `x / averageSpeed`;
//! * **event-table capacity** — a tiny table stresses the Eq. 1
//!   garbage-collection policy and shows how memory pressure affects
//!   reliability;
//! * **heartbeat upper bound** — a 5 s bound beacons five times less often than
//!   the paper's 1 s bound (the knob of Fig. 13, here in the random-waypoint
//!   setting).

use super::{random_waypoint_builder, Effort};
use crate::output::DataTable;
use crate::runner::{run_scenario, SeedPlan};
use crate::scenario::{ProtocolKind, ScenarioError};
use frugal::ProtocolConfig;
use simkit::SimDuration;

/// One protocol variant of the ablation study.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationVariant {
    /// Label shown in the result table.
    pub label: String,
    /// The protocol configuration of this variant.
    pub config: ProtocolConfig,
}

/// Parameters of the ablation study.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationConfig {
    /// The protocol variants compared.
    pub variants: Vec<AblationVariant>,
    /// Node speed (all nodes, m/s).
    pub speed: f64,
    /// Subscriber fraction.
    pub subscriber_fraction: f64,
    /// Event validity period.
    pub validity: SimDuration,
    /// Seeds per variant.
    pub seeds: SeedPlan,
    /// Scenario size.
    pub effort: Effort,
}

impl AblationConfig {
    /// The default set of variants: the paper configuration plus one knob
    /// changed at a time.
    pub fn default_variants() -> Vec<AblationVariant> {
        let base = ProtocolConfig::paper_default();
        let mut no_speed = base.clone();
        no_speed.adapt_to_speed = false;
        let mut no_jitter = base.clone();
        no_jitter.bo_jitter_fraction = 0.0;
        let mut no_departed_memory = base.clone();
        no_departed_memory.departed_memory_capacity = 0;
        vec![
            AblationVariant {
                label: "paper defaults".into(),
                config: base.clone(),
            },
            AblationVariant {
                label: "no speed adaptation".into(),
                config: no_speed,
            },
            AblationVariant {
                label: "no back-off jitter".into(),
                config: no_jitter,
            },
            AblationVariant {
                label: "no departed-neighbor memory".into(),
                config: no_departed_memory,
            },
            AblationVariant {
                label: "event table capacity 2".into(),
                config: base.clone().with_event_table_capacity(2),
            },
            AblationVariant {
                label: "heartbeat bound 5s".into(),
                config: base.with_hb_upper_bound(SimDuration::from_secs(5)),
            },
        ]
    }

    /// Paper-scale ablation (150 nodes, 30 seeds).
    pub fn paper() -> Self {
        AblationConfig {
            variants: Self::default_variants(),
            speed: 10.0,
            subscriber_fraction: 0.8,
            validity: SimDuration::from_secs(180),
            seeds: SeedPlan::paper(),
            effort: Effort::Paper,
        }
    }

    /// A reduced ablation for tests and `reproduce`.
    pub fn quick() -> Self {
        AblationConfig {
            variants: Self::default_variants(),
            speed: 10.0,
            subscriber_fraction: 0.8,
            validity: SimDuration::from_secs(60),
            seeds: SeedPlan::quick(),
            effort: Effort::Quick,
        }
    }
}

/// Runs the ablation study: one row per variant, columns = reliability,
/// bandwidth per process, events sent and duplicates per process.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if a generated scenario is inconsistent.
pub fn run(config: &AblationConfig) -> Result<DataTable, ScenarioError> {
    let mut table = DataTable::new(
        "Ablation — contribution of individual mechanisms (random waypoint)",
        "variant",
        vec![
            "reliability".into(),
            "bandwidth [kB/process]".into(),
            "events sent/process".into(),
            "duplicates/process".into(),
        ],
    );
    for variant in &config.variants {
        let scenario = random_waypoint_builder(
            config.effort,
            config.speed,
            config.speed,
            config.subscriber_fraction,
            config.validity,
        )
        .label(format!("ablation {}", variant.label))
        .protocol(ProtocolKind::Frugal(variant.config.clone()))
        .build()?;
        let point = run_scenario(&scenario, config.seeds)?;
        table.push_row(
            variant.label.clone(),
            vec![
                point.reliability().mean,
                point.bandwidth_kb().mean,
                point.events_sent().mean,
                point.duplicates().mean,
            ],
        );
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_variants_cover_the_design_knobs() {
        let variants = AblationConfig::default_variants();
        assert_eq!(variants.len(), 6);
        assert!(variants.iter().any(|v| !v.config.adapt_to_speed));
        assert!(variants.iter().any(|v| v.config.bo_jitter_fraction == 0.0));
        assert!(variants
            .iter()
            .any(|v| v.config.departed_memory_capacity == 0));
        assert!(variants.iter().any(|v| v.config.event_table_capacity == 2));
        assert!(variants
            .iter()
            .any(|v| v.config.hb_upper_bound == SimDuration::from_secs(5)));
        assert_eq!(AblationConfig::paper().seeds.runs, 30);
    }

    #[test]
    fn ablation_produces_one_row_per_variant() {
        let mut config = AblationConfig::quick();
        config.variants.truncate(2);
        config.seeds = SeedPlan::new(1, 1);
        config.validity = SimDuration::from_secs(30);
        let table = run(&config).unwrap();
        assert_eq!(table.rows().len(), 2);
        let reliability = table.value("paper defaults", "reliability").unwrap();
        assert!((0.0..=1.0).contains(&reliability));
        assert!(
            table
                .value("paper defaults", "bandwidth [kB/process]")
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn sparser_heartbeats_do_not_increase_bandwidth() {
        let mut config = AblationConfig::quick();
        config.variants = vec![
            AblationVariant {
                label: "hb 1s".into(),
                config: ProtocolConfig::paper_default(),
            },
            AblationVariant {
                label: "hb 5s".into(),
                config: ProtocolConfig::paper_default()
                    .with_hb_upper_bound(SimDuration::from_secs(5)),
            },
        ];
        config.seeds = SeedPlan::new(2, 2);
        config.validity = SimDuration::from_secs(40);
        let table = run(&config).unwrap();
        let dense = table.value("hb 1s", "bandwidth [kB/process]").unwrap();
        let sparse = table.value("hb 5s", "bandwidth [kB/process]").unwrap();
        assert!(
            sparse < dense,
            "beaconing 5x less often must consume less bandwidth ({sparse} vs {dense})"
        );
    }
}
