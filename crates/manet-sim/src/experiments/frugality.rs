//! Figures 17–20 — the frugality comparison against the flooding baselines.
//!
//! The paper disseminates 1–20 events of 400 bytes in the random-waypoint
//! network (10 m/s), varies the fraction of subscribers from 20 % to 100 %, and
//! measures — per process, over a 180 s window — four quantities for the frugal
//! protocol and the three flooding variants:
//!
//! * **Fig. 17** — bandwidth used per process;
//! * **Fig. 18** — number of events sent per process;
//! * **Fig. 19** — number of duplicates received per process;
//! * **Fig. 20** — number of parasite events received per process.
//!
//! The headline claims: the frugal algorithm sends 50–100× fewer events,
//! receives 70–100× fewer duplicates and 50–90× fewer parasite events, and
//! saves 300–450 % of the bandwidth compared with the alternatives.

use super::Effort;
use crate::output::DataTable;
use crate::runner::{run_scenario, SeedPlan};
use crate::scenario::{
    MobilityKind, ProtocolKind, Publication, PublisherChoice, ScenarioBuilder, ScenarioError,
};
use frugal::{FloodingPolicy, ProtocolConfig};
use mobility::Area;
use simkit::{SimDuration, SimTime};

/// Parameters of the frugality comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct FrugalityConfig {
    /// Subscriber fractions to sweep (the paper uses 20–100 %).
    pub subscriber_fractions: Vec<f64>,
    /// Number of events published in each run (the paper sweeps 1–20).
    pub event_counts: Vec<usize>,
    /// The protocols to compare.
    pub protocols: Vec<ProtocolKind>,
    /// Seeds per data point.
    pub seeds: SeedPlan,
    /// Scenario size (population, area, warm-up).
    pub effort: Effort,
    /// Length of the measurement window (the paper uses 180 s).
    pub measurement: SimDuration,
}

impl FrugalityConfig {
    /// Every protocol of the comparison: frugal plus the three flooding variants.
    pub fn all_protocols() -> Vec<ProtocolKind> {
        vec![
            ProtocolKind::Frugal(ProtocolConfig::paper_default()),
            ProtocolKind::Flooding(FloodingPolicy::Simple),
            ProtocolKind::Flooding(FloodingPolicy::InterestAware),
            ProtocolKind::Flooding(FloodingPolicy::NeighborInterest),
        ]
    }

    /// The paper's sweep: interests 20–100 %, 1–20 events, four protocols,
    /// 30 seeds, 150 nodes at 10 m/s, 180 s measurement window.
    pub fn paper() -> Self {
        FrugalityConfig {
            subscriber_fractions: vec![0.2, 0.4, 0.6, 0.8, 1.0],
            event_counts: vec![1, 5, 10, 15, 20],
            protocols: Self::all_protocols(),
            seeds: SeedPlan::paper(),
            effort: Effort::Paper,
            measurement: SimDuration::from_secs(180),
        }
    }

    /// The reduced sweep for tests and `reproduce`.
    pub fn quick() -> Self {
        FrugalityConfig {
            subscriber_fractions: vec![0.2, 1.0],
            event_counts: vec![1, 10],
            protocols: Self::all_protocols(),
            seeds: SeedPlan::quick(),
            effort: Effort::Quick,
            measurement: SimDuration::from_secs(60),
        }
    }
}

/// The four tables regenerating Figures 17–20.
#[derive(Debug, Clone, PartialEq)]
pub struct FrugalityTables {
    /// Fig. 17 — bandwidth used per process, in kilobytes.
    pub bandwidth_kb: DataTable,
    /// Fig. 18 — events sent per process.
    pub events_sent: DataTable,
    /// Fig. 19 — duplicates received per process.
    pub duplicates: DataTable,
    /// Fig. 20 — parasite events received per process.
    pub parasites: DataTable,
}

fn scenario_for(
    config: &FrugalityConfig,
    protocol: &ProtocolKind,
    fraction: f64,
    events: usize,
) -> Result<crate::scenario::Scenario, ScenarioError> {
    let (nodes, area, warmup) = match config.effort {
        Effort::Paper => (
            150,
            Area::paper_random_waypoint(),
            SimDuration::from_secs(600),
        ),
        Effort::Quick => (40, Area::square(1_500.0), SimDuration::from_secs(20)),
    };
    // Events are published by random subscribers during the first seconds of
    // the measurement window and stay valid until its end, mirroring the
    // paper's "disseminating 1..20 events of 400 bytes during 180 s".
    let publications: Vec<Publication> = (0..events)
        .map(|i| {
            let offset = SimDuration::from_secs((i % 10) as u64 + 1);
            Publication {
                publisher: PublisherChoice::RandomSubscriber,
                topic: ".news.local".parse().expect("static topic"),
                at: SimTime::ZERO + warmup + offset,
                validity: config.measurement,
                payload_bytes: 400,
            }
        })
        .collect();
    ScenarioBuilder::new()
        .label(format!(
            "frugality {} events={events} interest={fraction}",
            protocol.name()
        ))
        .protocol(protocol.clone())
        .nodes(nodes)
        .subscriber_fraction(fraction)
        .mobility(MobilityKind::RandomWaypoint {
            area,
            speed_min: 10.0,
            speed_max: 10.0,
            pause: SimDuration::from_secs(1),
        })
        .timing(warmup, warmup + config.measurement)
        .publications(publications)
        .build()
}

/// Runs the full comparison: rows are `(events, interest)` combinations,
/// columns are protocols, and each of the four tables carries one metric.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if a generated scenario is inconsistent.
pub fn run(config: &FrugalityConfig) -> Result<FrugalityTables, ScenarioError> {
    let columns: Vec<String> = config
        .protocols
        .iter()
        .map(|p| p.name().to_owned())
        .collect();
    let mut bandwidth_kb = DataTable::new(
        "Fig. 17 — bandwidth used per process [kB]",
        "events / interest",
        columns.clone(),
    );
    let mut events_sent = DataTable::new(
        "Fig. 18 — events sent per process",
        "events / interest",
        columns.clone(),
    );
    let mut duplicates = DataTable::new(
        "Fig. 19 — duplicates received per process",
        "events / interest",
        columns.clone(),
    );
    let mut parasites = DataTable::new(
        "Fig. 20 — parasite events received per process",
        "events / interest",
        columns,
    );

    for &events in &config.event_counts {
        for &fraction in &config.subscriber_fractions {
            let label = format!("{events} events / {}%", (fraction * 100.0).round());
            let mut bw_row = Vec::new();
            let mut sent_row = Vec::new();
            let mut dup_row = Vec::new();
            let mut par_row = Vec::new();
            for protocol in &config.protocols {
                let scenario = scenario_for(config, protocol, fraction, events)?;
                let point = run_scenario(&scenario, config.seeds)?;
                bw_row.push(point.bandwidth_kb().mean);
                sent_row.push(point.events_sent().mean);
                dup_row.push(point.duplicates().mean);
                par_row.push(point.parasites().mean);
            }
            bandwidth_kb.push_row(label.clone(), bw_row);
            events_sent.push_row(label.clone(), sent_row);
            duplicates.push_row(label.clone(), dup_row);
            parasites.push_row(label, par_row);
        }
    }
    Ok(FrugalityTables {
        bandwidth_kb,
        events_sent,
        duplicates,
        parasites,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FrugalityConfig {
        FrugalityConfig {
            subscriber_fractions: vec![0.8],
            event_counts: vec![3],
            protocols: FrugalityConfig::all_protocols(),
            seeds: SeedPlan::new(1, 1),
            effort: Effort::Quick,
            measurement: SimDuration::from_secs(40),
        }
    }

    #[test]
    fn paper_config_matches_section_5() {
        let config = FrugalityConfig::paper();
        assert_eq!(config.event_counts, vec![1, 5, 10, 15, 20]);
        assert_eq!(config.protocols.len(), 4);
        assert_eq!(config.measurement, SimDuration::from_secs(180));
        assert_eq!(config.seeds.runs, 30);
    }

    #[test]
    fn comparison_produces_all_four_tables() {
        let tables = run(&tiny()).unwrap();
        assert_eq!(tables.bandwidth_kb.rows().len(), 1);
        assert_eq!(tables.events_sent.columns().len(), 4);
        let row = "3 events / 80%";
        for protocol in ["frugal", "simple-flooding"] {
            assert!(tables.bandwidth_kb.value(row, protocol).is_some());
            assert!(tables.duplicates.value(row, protocol).is_some());
            assert!(tables.parasites.value(row, protocol).is_some());
        }
    }

    #[test]
    fn frugal_sends_fewer_events_than_simple_flooding() {
        let tables = run(&tiny()).unwrap();
        let row = "3 events / 80%";
        let frugal = tables.events_sent.value(row, "frugal").unwrap();
        let flooding = tables.events_sent.value(row, "simple-flooding").unwrap();
        assert!(
            flooding > frugal * 3.0,
            "the frugality claim must hold even at smoke-test scale (frugal={frugal}, flooding={flooding})"
        );
        let frugal_dup = tables.duplicates.value(row, "frugal").unwrap();
        let flooding_dup = tables.duplicates.value(row, "simple-flooding").unwrap();
        assert!(
            flooding_dup > frugal_dup,
            "flooding must cause more duplicates (frugal={frugal_dup}, flooding={flooding_dup})"
        );
    }
}
