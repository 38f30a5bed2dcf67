//! # pubsub — topic-based publish/subscribe abstraction
//!
//! The data model of *"Frugal Event Dissemination in a Mobile Environment"*
//! (Middleware 2005): hierarchical [`Topic`]s rooted at `.`, [`Event`]s with a
//! validity period after which they are of no use, [`ProcessId`]s for the
//! mobile processes, and [`SubscriptionSet`]s implementing the topic-based
//! matching rule (a subscriber of `.a` receives events of `.a` and of every
//! subtopic such as `.a.b`).
//!
//! # Examples
//!
//! ```
//! use pubsub::{Event, EventId, ProcessId, SubscriptionSet, Topic};
//! use simkit::{SimDuration, SimTime};
//!
//! let conferences: Topic = ".grenoble.conferences".parse()?;
//! let middleware = conferences.child("middleware");
//!
//! let mut subscriptions = SubscriptionSet::new();
//! subscriptions.subscribe(conferences);
//!
//! let event = Event::new(
//!     EventId::new(ProcessId(1), 0),
//!     middleware,
//!     SimTime::ZERO,
//!     SimDuration::from_secs(180),
//!     Event::PAPER_PAYLOAD_BYTES,
//! );
//! assert!(subscriptions.matches(&event.topic));
//! # Ok::<(), pubsub::topic::ParseTopicError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod subscription;
pub mod topic;

pub use event::{Event, EventId, ProcessId};
pub use subscription::SubscriptionSet;
pub use topic::{ParseTopicError, Topic};
