//! # manet-sim — MANET scenario runner and experiment harness
//!
//! This crate assembles the substrates of the reproduction of *"Frugal Event
//! Dissemination in a Mobile Environment"* (Middleware 2005) into runnable
//! experiments:
//!
//! * [`scenario`] — declarative [`Scenario`] descriptions (protocol, mobility,
//!   radio, population, publication plan) with a builder pre-loaded with the
//!   paper's random-waypoint and city-section settings;
//! * [`world`] — the discrete-event [`World`] that drives protocols, mobility
//!   and the shared radio medium, and produces a [`RunReport`];
//! * [`runner`] — multi-seed parallel execution ([`run_scenario`]) aggregating
//!   runs into [`ExperimentPoint`]s (the paper averages every point over 30
//!   runs), and [`run_matrix`], which runs a compiled file and renders its
//!   tables;
//! * [`scenario_compile`] — the declarative scenario compiler: a TOML file
//!   (with optional sweep axes, `[[table]]` layouts and a base it
//!   `extends`) compiled into an experiment matrix of [`Scenario`]s. The
//!   paper's figures are such files under `figures/`, which `reproduce`
//!   runs by name;
//! * [`output`] — Markdown/CSV tables for the regenerated figures.
//!
//! # Examples
//!
//! Run a small random-waypoint scenario and inspect the dissemination outcome:
//!
//! ```
//! use manet_sim::{MobilityKind, ProtocolKind, Publication, PublisherChoice, ScenarioBuilder, World};
//! use frugal::ProtocolConfig;
//! use mobility::Area;
//! use netsim::RadioConfig;
//! use simkit::{SimDuration, SimTime};
//!
//! let scenario = ScenarioBuilder::new()
//!     .label("doc-example")
//!     .nodes(10)
//!     .subscriber_fraction(1.0)
//!     .protocol(ProtocolKind::Frugal(ProtocolConfig::paper_default()))
//!     .mobility(MobilityKind::RandomWaypoint {
//!         area: Area::square(300.0),
//!         speed_min: 5.0,
//!         speed_max: 10.0,
//!         pause: SimDuration::from_secs(1),
//!     })
//!     .radio(RadioConfig::ideal(150.0))
//!     .timing(SimDuration::from_secs(2), SimDuration::from_secs(32))
//!     .publications(vec![Publication {
//!         publisher: PublisherChoice::RandomSubscriber,
//!         topic: ".news.local".parse()?,
//!         at: SimTime::from_secs(3),
//!         validity: SimDuration::from_secs(29),
//!         payload_bytes: 400,
//!     }])
//!     .build()?;
//!
//! let report = World::new(scenario, 42)?.run();
//! assert!(report.reliability() > 0.5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod output;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod scenario_compile;
pub mod world;

pub use output::DataTable;
pub use report::{EventOutcome, ExperimentPoint, NodeReport, RunReport};
pub use runner::{
    run_matrix, run_scenario, run_scenario_reports, run_scenario_reports_with_workers, SeedPlan,
    SeedProgress,
};
pub use scenario::{
    MobilityKind, ProtocolKind, Publication, PublisherChoice, Scenario, ScenarioBuilder,
    ScenarioError,
};
pub use scenario_compile::{
    compile_path, compile_str, compile_str_with_sweeps, CompileError, CompiledMatrix, MatrixPoint,
    SweepAxis,
};
pub use world::{World, WorldDebugStats};
