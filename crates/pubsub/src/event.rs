//! Processes, events and their validity periods.
//!
//! Every event in the paper's model (1) has a unique identifier, (2) carries a
//! *validity period* after which the information it carries is of no use and
//! the event can be garbage collected, and (3) is published on exactly one
//! topic of the hierarchy.

use crate::topic::Topic;
use serde::{Deserialize, Serialize};
use simkit::{SimDuration, SimTime};
use std::fmt;

/// Identifier of a process (the software of one mobile device).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct ProcessId(pub u64);

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u64> for ProcessId {
    fn from(v: u64) -> Self {
        ProcessId(v)
    }
}

/// Globally unique event identifier: the publishing process plus a sequence
/// number local to that publisher.
///
/// The paper exchanges event identifiers (128 bits on the wire) instead of full
/// events to avoid redundant transmissions; [`EventId::WIRE_SIZE_BYTES`] is the
/// size used for bandwidth accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EventId {
    /// The process that published the event.
    pub publisher: ProcessId,
    /// Sequence number assigned by the publisher.
    pub sequence: u64,
}

impl EventId {
    /// Size of one event identifier on the wire: 128 bits, as configured in the
    /// paper's frugality experiments.
    pub const WIRE_SIZE_BYTES: usize = 16;

    /// Creates an identifier.
    pub fn new(publisher: ProcessId, sequence: u64) -> Self {
        EventId {
            publisher,
            sequence,
        }
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}#{}", self.publisher.0, self.sequence)
    }
}

/// A published event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Unique identifier.
    pub id: EventId,
    /// The topic the event is published on.
    pub topic: Topic,
    /// Time of publication.
    pub published_at: SimTime,
    /// Validity period: after `published_at + validity` the event is of no use.
    pub validity: SimDuration,
    /// Size of the application payload in bytes (the paper uses 400-byte
    /// events). The payload content itself is irrelevant to dissemination, so
    /// only its size is carried.
    pub payload_bytes: usize,
}

impl Event {
    /// Default payload size used throughout the paper's evaluation.
    pub const PAPER_PAYLOAD_BYTES: usize = 400;

    /// Creates an event.
    pub fn new(
        id: EventId,
        topic: Topic,
        published_at: SimTime,
        validity: SimDuration,
        payload_bytes: usize,
    ) -> Self {
        Event {
            id,
            topic,
            published_at,
            validity,
            payload_bytes,
        }
    }

    /// The instant after which the event is no longer valid.
    fn expires_at(&self) -> SimTime {
        self.published_at.saturating_add(self.validity)
    }

    /// `true` while the event's validity period has not elapsed.
    ///
    /// ```
    /// # use pubsub::{Event, EventId, ProcessId, Topic};
    /// # use simkit::{SimDuration, SimTime};
    /// let event = Event::new(
    ///     EventId::new(ProcessId(1), 0),
    ///     Topic::root().child("parking"),
    ///     SimTime::from_secs(10),
    ///     SimDuration::from_secs(60),
    ///     400,
    /// );
    /// assert!(event.is_valid_at(SimTime::from_secs(30)));
    /// assert!(!event.is_valid_at(SimTime::from_secs(71)));
    /// ```
    pub fn is_valid_at(&self, now: SimTime) -> bool {
        now < self.expires_at()
    }

    /// Remaining validity at `now` (zero once expired).
    pub fn remaining_validity(&self, now: SimTime) -> SimDuration {
        self.expires_at().saturating_since(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(validity_secs: u64) -> Event {
        Event::new(
            EventId::new(ProcessId(3), 7),
            Topic::root().child("T0").child("T1"),
            SimTime::from_secs(100),
            SimDuration::from_secs(validity_secs),
            Event::PAPER_PAYLOAD_BYTES,
        )
    }

    #[test]
    fn ids_display_compactly() {
        assert_eq!(ProcessId(4).to_string(), "p4");
        assert_eq!(EventId::new(ProcessId(4), 9).to_string(), "e4#9");
        assert_eq!(ProcessId::from(2u64), ProcessId(2));
    }

    #[test]
    fn wire_size_matches_paper() {
        // 128 bits.
        assert_eq!(EventId::WIRE_SIZE_BYTES * 8, 128);
        assert_eq!(Event::PAPER_PAYLOAD_BYTES, 400);
    }

    #[test]
    fn validity_window() {
        let e = event(60);
        assert_eq!(e.expires_at(), SimTime::from_secs(160));
        assert!(e.is_valid_at(SimTime::from_secs(100)));
        assert!(e.is_valid_at(SimTime::from_secs(159)));
        assert!(
            !e.is_valid_at(SimTime::from_secs(160)),
            "expiry instant is exclusive"
        );
        assert!(!e.is_valid_at(SimTime::from_secs(1000)));
    }

    #[test]
    fn remaining_validity_counts_down_to_zero() {
        let e = event(60);
        assert_eq!(
            e.remaining_validity(SimTime::from_secs(100)),
            SimDuration::from_secs(60)
        );
        assert_eq!(
            e.remaining_validity(SimTime::from_secs(130)),
            SimDuration::from_secs(30)
        );
        assert_eq!(
            e.remaining_validity(SimTime::from_secs(200)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn event_ids_are_unique_per_publisher_sequence() {
        let a = EventId::new(ProcessId(1), 0);
        let b = EventId::new(ProcessId(1), 1);
        let c = EventId::new(ProcessId(2), 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        let set: std::collections::HashSet<_> = [a, b, c].into_iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn zero_validity_event_is_immediately_stale() {
        let e = event(0);
        assert!(!e.is_valid_at(e.published_at));
    }
}
