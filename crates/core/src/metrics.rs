//! Per-process protocol metrics.
//!
//! These counters are exactly the quantities compared in the paper's frugality
//! evaluation (Figures 17–20): events sent, duplicates received, parasite
//! events received — plus the delivery bookkeeping needed to compute
//! reliability (Figures 11–16).

use pubsub::EventId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Counters maintained by every dissemination protocol instance.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProtocolMetrics {
    /// Events this process published itself.
    pub events_published: u64,
    /// Distinct events delivered to the local application.
    pub events_delivered: u64,
    /// Copies of already-delivered (or already-stored) events received again.
    pub duplicates_received: u64,
    /// Events received whose topic the process has not subscribed to.
    pub parasites_received: u64,
    /// Full events this process transmitted (published or forwarded); the
    /// paper's "events sent per process".
    pub events_sent: u64,
    /// Protocol messages of any kind this process broadcast.
    pub messages_sent: u64,
    /// The events delivered so far, for deduplication.
    deliveries: BTreeSet<EventId>,
}

impl ProtocolMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        ProtocolMetrics::default()
    }

    /// Records the delivery of `id`. Returns `false` (and counts a duplicate)
    /// if the event had already been delivered.
    pub fn record_delivery(&mut self, id: EventId) -> bool {
        if self.deliveries.insert(id) {
            self.events_delivered += 1;
            true
        } else {
            self.duplicates_received += 1;
            false
        }
    }

    /// Records the reception of a copy of an event that was already known.
    pub fn record_duplicate(&mut self) {
        self.duplicates_received += 1;
    }

    /// Records the reception of a parasite event (topic not subscribed).
    pub fn record_parasite(&mut self) {
        self.parasites_received += 1;
    }

    /// Records the transmission of one message carrying `events` full events.
    pub fn record_send(&mut self, events: u64) {
        self.messages_sent += 1;
        self.events_sent += events;
    }

    /// Records that this process published a new event.
    pub fn record_publish(&mut self) {
        self.events_published += 1;
    }

    /// `true` if the event was delivered to the local application.
    pub fn has_delivered(&self, id: &EventId) -> bool {
        self.deliveries.contains(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub::ProcessId;

    fn id(seq: u64) -> EventId {
        EventId::new(ProcessId(1), seq)
    }

    #[test]
    fn delivery_is_counted_once() {
        let mut m = ProtocolMetrics::new();
        assert!(m.record_delivery(id(0)));
        assert!(!m.record_delivery(id(0)), "second copy is a duplicate");
        assert_eq!(m.events_delivered, 1);
        assert_eq!(m.duplicates_received, 1);
        assert!(m.has_delivered(&id(0)));
        assert!(!m.has_delivered(&id(1)));
    }

    #[test]
    fn counters_accumulate() {
        let mut m = ProtocolMetrics::new();
        m.record_parasite();
        m.record_parasite();
        m.record_duplicate();
        m.record_send(3);
        m.record_send(0);
        m.record_publish();
        assert_eq!(m.parasites_received, 2);
        assert_eq!(m.duplicates_received, 1);
        assert_eq!(m.events_sent, 3);
        assert_eq!(m.messages_sent, 2);
        assert_eq!(m.events_published, 1);
    }

    #[test]
    fn default_is_all_zero() {
        let m = ProtocolMetrics::default();
        assert_eq!(m.events_delivered, 0);
        assert_eq!(m.duplicates_received, 0);
        assert_eq!(m.parasites_received, 0);
        assert_eq!(m.events_sent, 0);
        assert_eq!(m.messages_sent, 0);
        assert_eq!(m.events_published, 0);
        assert!(!m.has_delivered(&id(0)));
    }
}
