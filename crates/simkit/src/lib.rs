//! # simkit — discrete-event simulation kernel
//!
//! `simkit` is the foundation of the MANET simulator used to reproduce
//! *"Frugal Event Dissemination in a Mobile Environment"* (Baehni, Chhabra,
//! Guerraoui — Middleware 2005). The paper evaluates its protocol inside the
//! proprietary QualNet simulator; this crate provides the equivalent open
//! substrate:
//!
//! * [`time`] — a millisecond-resolution virtual clock ([`SimTime`],
//!   [`SimDuration`]);
//! * [`scheduler`] — a cancellable discrete-event scheduler: a hierarchical
//!   timer wheel with batched same-timestamp dispatch ([`TimerWheel`]);
//! * [`rng`] — deterministic, splittable random streams ([`SimRng`]) so every
//!   experiment is reproducible from a single seed;
//! * [`ids`] — dense 32-bit node ids ([`NodeId`]) shared by the simulation
//!   layers;
//! * [`prefetch()`] — a cache hint that lets an event loop overlap the
//!   memory latency of the next nodes of a batch;
//! * [`stats`] — streaming statistics ([`OnlineStats`]) for averaging the 30
//!   runs per data point used throughout the paper's evaluation.
//!
//! # Examples
//!
//! A tiny simulation loop: schedule a few timers and process them in order,
//! one same-timestamp batch at a time.
//!
//! ```
//! use simkit::{SimDuration, SimTime, TimerWheel};
//!
//! #[derive(Debug, PartialEq)]
//! enum Timer { Heartbeat, BackOff }
//!
//! let mut wheel = TimerWheel::new();
//! let mut now = SimTime::ZERO;
//! wheel.schedule(now + SimDuration::from_secs(15), Timer::Heartbeat);
//! wheel.schedule(now + SimDuration::from_millis(500), Timer::BackOff);
//!
//! let mut fired = Vec::new();
//! let mut batch = Vec::new();
//! while let Some(at) = wheel.pop_due_batch(SimTime::MAX, &mut batch) {
//!     now = at;
//!     fired.extend(batch.drain(..).map(|(_, timer)| timer));
//! }
//! assert_eq!(fired, vec![Timer::BackOff, Timer::Heartbeat]);
//! assert_eq!(now, SimTime::from_secs(15));
//! ```

// The one `unsafe` block under `crates/` is the cache hint in `prefetch`,
// allowed there with its SAFETY note; every other crate forbids `unsafe`.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ids;
mod prefetch;
pub mod rng;
pub mod scheduler;
pub mod stats;
pub mod time;

pub use ids::NodeId;
pub use prefetch::prefetch;
pub use rng::SimRng;
pub use scheduler::{EventHandle, IndexedMinQueue, TimerWheel};
pub use stats::{OnlineStats, Summary};
pub use time::{SimDuration, SimTime};
