//! # frugal-repro — workspace facade
//!
//! Re-exports the six library crates of the reproduction of *"Frugal Event
//! Dissemination in a Mobile Environment"* (Baehni, Chhabra, Guerraoui —
//! Middleware 2005) so the top-level integration tests and examples have a
//! single anchor package:
//!
//! * [`simkit`] — discrete-event simulation kernel (time, scheduler, RNG, stats);
//! * [`pubsub`] — topics, events, subscriptions;
//! * [`frugal`] — the paper's dissemination protocol and the flooding baselines;
//! * [`mobility`] — random-waypoint and city-section mobility models;
//! * [`netsim`] — broadcast radio medium and propagation;
//! * [`manet_sim`] — scenario runner and the scenario compiler that runs the
//!   paper's figures from the files under `figures/`.
//!
//! The figure-reproduction binaries (`reproduce`, `validate`) live in the
//! bins-only `bench` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use frugal;
pub use manet_sim;
pub use mobility;
pub use netsim;
pub use pubsub;
pub use simkit;

#[cfg(test)]
mod experiments;
