//! The event table and its garbage-collection policy (the paper's Figure 3 and
//! Equation 1).
//!
//! Every process stores the events it has received or published, organised by
//! topic, together with a *forward counter* (how many times it has transmitted
//! the event). Memory is assumed scarce: the table has a fixed capacity, and
//! when a new event must be stored into a full table exactly one victim is
//! evicted:
//!
//! 1. any event whose validity period has expired, else
//! 2. the event minimising `gc(e) = val(e) / (fwd(e) + val(e))` — events with a
//!    long validity that have already been forwarded many times go first, while
//!    short-lived events that were never propagated are protected.

use pubsub::{Event, EventId, SubscriptionSet};
use serde::{Deserialize, Serialize};
use simkit::SimTime;
use std::collections::BTreeMap;

/// An event stored in the table together with its forward counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredEvent {
    /// The event itself.
    pub event: Event,
    /// Number of times this process has sent/forwarded the event.
    pub forward_count: u64,
}

impl StoredEvent {
    /// The paper's Equation 1: `val / (fwd + val)`, with the validity period
    /// expressed in seconds. Smaller scores are evicted first.
    pub fn gc_score(&self) -> f64 {
        let val = self.event.validity.as_secs_f64();
        if val <= 0.0 {
            return 0.0;
        }
        val / (self.forward_count as f64 + val)
    }
}

/// Why [`EventTable::insert`] declined to store an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertError {
    /// The event is already present.
    AlreadyStored,
    /// The event's validity period has already expired.
    Expired,
}

impl std::fmt::Display for InsertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InsertError::AlreadyStored => write!(f, "event is already stored"),
            InsertError::Expired => write!(f, "event validity period has expired"),
        }
    }
}

impl std::error::Error for InsertError {}

/// The bounded store of received/published events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventTable {
    capacity: usize,
    entries: BTreeMap<EventId, StoredEvent>,
}

impl EventTable {
    /// Creates a table able to hold at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "event table capacity must be at least 1");
        EventTable {
            capacity,
            entries: BTreeMap::new(),
        }
    }

    /// Maximum number of events the table can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events currently stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when the table holds `capacity` events.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// `true` if the event is stored.
    pub fn contains(&self, id: &EventId) -> bool {
        self.entries.contains_key(id)
    }

    /// The stored entry for `id`, if present.
    pub fn get(&self, id: &EventId) -> Option<&StoredEvent> {
        self.entries.get(id)
    }

    /// Iterates over the stored entries in id order.
    pub fn iter(&self) -> impl Iterator<Item = &StoredEvent> {
        self.entries.values()
    }

    /// Appends to `out`, in id order, the identifiers of the still-valid
    /// stored events whose topic is of interest to a process with the given
    /// `subscriptions` (the paper's `GETEVENTSIDS`).
    pub fn ids_of_interest_into(
        &self,
        subscriptions: &SubscriptionSet,
        now: SimTime,
        out: &mut Vec<EventId>,
    ) {
        out.extend(
            self.entries
                .values()
                .filter(|s| s.event.is_valid_at(now) && subscriptions.matches(&s.event.topic))
                .map(|s| s.event.id),
        );
    }

    /// `true` if at least one still-valid stored event matches
    /// `subscriptions`, i.e. if [`EventTable::ids_of_interest_into`] would
    /// append anything.
    pub fn any_of_interest(&self, subscriptions: &SubscriptionSet, now: SimTime) -> bool {
        self.entries
            .values()
            .any(|s| s.event.is_valid_at(now) && subscriptions.matches(&s.event.topic))
    }

    /// Stores `event`, evicting one victim according to the garbage-collection
    /// policy if the table is full. Returns the identifier of the evicted
    /// event, if any.
    ///
    /// # Errors
    ///
    /// * [`InsertError::AlreadyStored`] if the event is already present;
    /// * [`InsertError::Expired`] if the event's validity has already elapsed.
    pub fn insert(&mut self, event: Event, now: SimTime) -> Result<Option<EventId>, InsertError> {
        if self.entries.contains_key(&event.id) {
            return Err(InsertError::AlreadyStored);
        }
        if !event.is_valid_at(now) {
            return Err(InsertError::Expired);
        }
        let evicted = if self.is_full() {
            let victim = self.pick_victim(now).expect("a full table has a victim");
            self.entries.remove(&victim);
            Some(victim)
        } else {
            None
        };
        self.entries.insert(
            event.id,
            StoredEvent {
                event,
                forward_count: 0,
            },
        );
        Ok(evicted)
    }

    /// The paper's `garbageCollect`: an expired event if there is one, else the
    /// stored event with the smallest Eq. 1 score.
    fn pick_victim(&self, now: SimTime) -> Option<EventId> {
        if let Some(expired) = self
            .entries
            .values()
            .find(|s| !s.event.is_valid_at(now))
            .map(|s| s.event.id)
        {
            return Some(expired);
        }
        self.entries
            .values()
            .min_by(|a, b| {
                a.gc_score()
                    .partial_cmp(&b.gc_score())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|s| s.event.id)
    }

    /// Removes every stored event, keeping the capacity configuration. Part of
    /// the protocol's in-place `reset` when a simulation world is recycled
    /// across seeds.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Increments the forward counter of `id` (called after the event has been
    /// broadcast). Unknown ids are ignored.
    pub fn increment_forward_count(&mut self, id: &EventId) {
        if let Some(entry) = self.entries.get_mut(id) {
            entry.forward_count += 1;
        }
    }

    /// Removes every event whose validity period has expired at `now` (the
    /// protocol's periodic garbage-collection path). Returns how many events
    /// were dropped.
    pub fn prune_expired(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, s| s.event.is_valid_at(now));
        before - self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub::{ProcessId, Topic};
    use simkit::SimDuration;

    fn topic(s: &str) -> Topic {
        s.parse().unwrap()
    }

    fn event(seq: u64, topic_str: &str, validity_secs: u64) -> Event {
        Event::new(
            EventId::new(ProcessId(1), seq),
            topic(topic_str),
            SimTime::ZERO,
            SimDuration::from_secs(validity_secs),
            400,
        )
    }

    #[test]
    fn insert_and_lookup() {
        let mut table = EventTable::new(10);
        assert!(table.is_empty());
        let e = event(0, ".T0", 60);
        assert_eq!(table.insert(e.clone(), SimTime::ZERO), Ok(None));
        assert!(table.contains(&e.id));
        assert_eq!(table.len(), 1);
        assert_eq!(table.get(&e.id).unwrap().forward_count, 0);
        let ids: Vec<EventId> = table.iter().map(|s| s.event.id).collect();
        assert_eq!(ids, vec![e.id]);
    }

    #[test]
    fn duplicate_and_expired_inserts_are_rejected() {
        let mut table = EventTable::new(10);
        let e = event(0, ".T0", 60);
        table.insert(e.clone(), SimTime::ZERO).unwrap();
        assert_eq!(
            table.insert(e.clone(), SimTime::ZERO),
            Err(InsertError::AlreadyStored)
        );
        let stale = event(1, ".T0", 10);
        assert_eq!(
            table.insert(stale, SimTime::from_secs(20)),
            Err(InsertError::Expired)
        );
        assert_eq!(table.len(), 1);
        assert!(InsertError::Expired.to_string().contains("expired"));
    }

    #[test]
    fn gc_score_matches_equation_1() {
        let mut stored = StoredEvent {
            event: event(0, ".T0", 120),
            forward_count: 1,
        };
        assert!((stored.gc_score() - 120.0 / 121.0).abs() < 1e-12);
        stored.forward_count = 5;
        assert!((stored.gc_score() - 120.0 / 125.0).abs() < 1e-12);
    }

    #[test]
    fn paper_example_ordering() {
        // "an event with a validity period of 2 min forwarded less than 2 times
        //  will be collected AFTER an event with a validity period of 5 min that
        //  has been forwarded 5 times" — i.e. the 5-minute/5-forwards event has
        //  the smaller score and goes first.
        let short_fresh = StoredEvent {
            event: event(0, ".a", 120),
            forward_count: 1,
        };
        let long_worn = StoredEvent {
            event: event(1, ".a", 300),
            forward_count: 5,
        };
        assert!(long_worn.gc_score() < short_fresh.gc_score());
    }

    #[test]
    fn eviction_prefers_expired_events() {
        let mut table = EventTable::new(2);
        let expired_soon = event(0, ".a", 5);
        let healthy = event(1, ".a", 500);
        table.insert(expired_soon.clone(), SimTime::ZERO).unwrap();
        table.insert(healthy.clone(), SimTime::ZERO).unwrap();
        // At t=10 the first event has expired; inserting a third must evict it.
        let newcomer = event(2, ".a", 500);
        let evicted = table
            .insert(newcomer.clone(), SimTime::from_secs(10))
            .unwrap();
        assert_eq!(evicted, Some(expired_soon.id));
        assert!(table.contains(&healthy.id));
        assert!(table.contains(&newcomer.id));
    }

    #[test]
    fn eviction_uses_equation_1_when_nothing_expired() {
        let mut table = EventTable::new(2);
        let worn = event(0, ".a", 300);
        let fresh = event(1, ".a", 120);
        table.insert(worn.clone(), SimTime::ZERO).unwrap();
        table.insert(fresh.clone(), SimTime::ZERO).unwrap();
        for _ in 0..5 {
            table.increment_forward_count(&worn.id);
        }
        table.increment_forward_count(&fresh.id);
        let newcomer = event(2, ".a", 200);
        let evicted = table.insert(newcomer, SimTime::from_secs(1)).unwrap();
        assert_eq!(
            evicted,
            Some(worn.id),
            "the much-forwarded long event goes first"
        );
        assert!(table.contains(&fresh.id));
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut table = EventTable::new(3);
        for seq in 0..20 {
            let _ = table.insert(event(seq, ".a", 100 + seq), SimTime::ZERO);
            assert!(table.len() <= 3);
        }
        assert_eq!(table.len(), 3);
        assert!(table.is_full());
    }

    #[test]
    fn ids_of_interest_filters_topic_and_validity() {
        let mut table = EventTable::new(10);
        table.insert(event(0, ".T0.T1", 60), SimTime::ZERO).unwrap();
        table
            .insert(event(1, ".T0.T1.T2", 60), SimTime::ZERO)
            .unwrap();
        table.insert(event(2, ".music", 60), SimTime::ZERO).unwrap();
        table.insert(event(3, ".T0.T1", 5), SimTime::ZERO).unwrap();

        let subs = SubscriptionSet::single(topic(".T0.T1"));
        // At t=10 event 3 has expired; events 0 and 1 match, 2 does not.
        let mut ids = Vec::new();
        table.ids_of_interest_into(&subs, SimTime::from_secs(10), &mut ids);
        assert_eq!(
            ids,
            vec![EventId::new(ProcessId(1), 0), EventId::new(ProcessId(1), 1)]
        );
        // A subscriber of the subtopic only cares about the subtopic.
        let narrow = SubscriptionSet::single(topic(".T0.T1.T2"));
        ids.clear();
        table.ids_of_interest_into(&narrow, SimTime::from_secs(10), &mut ids);
        assert_eq!(ids.len(), 1);
    }

    #[test]
    fn prune_expired_clears_stale_events() {
        let mut table = EventTable::new(10);
        table.insert(event(0, ".a", 10), SimTime::ZERO).unwrap();
        table.insert(event(1, ".a", 100), SimTime::ZERO).unwrap();
        assert_eq!(table.prune_expired(SimTime::from_secs(50)), 1);
        assert_eq!(table.len(), 1);
        assert!(!table.contains(&EventId::new(ProcessId(1), 0)));
        assert_eq!(table.prune_expired(SimTime::from_secs(50)), 0);
    }

    #[test]
    fn clear_empties_but_keeps_capacity() {
        let mut table = EventTable::new(3);
        table.insert(event(0, ".a", 60), SimTime::ZERO).unwrap();
        table.insert(event(1, ".a", 60), SimTime::ZERO).unwrap();
        table.clear();
        assert!(table.is_empty());
        assert_eq!(table.capacity(), 3);
        // A cleared table accepts the same ids again (nothing lingers).
        assert_eq!(table.insert(event(0, ".a", 60), SimTime::ZERO), Ok(None));
    }

    #[test]
    fn forward_count_on_unknown_id_is_ignored() {
        let mut table = EventTable::new(2);
        table.increment_forward_count(&EventId::new(ProcessId(9), 9));
        assert!(table.is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = EventTable::new(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use pubsub::{ProcessId, Topic};
    use simkit::SimDuration;

    proptest! {
        /// The table never exceeds its capacity and never stores an event twice,
        /// whatever the insertion sequence.
        #[test]
        fn capacity_invariant(capacity in 1usize..16,
                              inserts in proptest::collection::vec((0u64..64, 1u64..300, 0u64..100), 1..100)) {
            let mut table = EventTable::new(capacity);
            for (seq, validity, at) in inserts {
                let e = Event::new(
                    EventId::new(ProcessId(seq % 7), seq),
                    Topic::root().child("t"),
                    SimTime::from_secs(at),
                    SimDuration::from_secs(validity),
                    400,
                );
                let _ = table.insert(e, SimTime::from_secs(at));
                prop_assert!(table.len() <= capacity);
                let ids: Vec<EventId> = table.iter().map(|s| s.event.id).collect();
                let unique: std::collections::HashSet<_> = ids.iter().collect();
                prop_assert_eq!(unique.len(), ids.len());
            }
        }

        /// Eq. 1 scores are always in (0, 1] and decrease as the forward count grows.
        #[test]
        fn gc_score_bounds(validity in 1u64..10_000, fwd in 0u64..1_000) {
            let stored = StoredEvent {
                event: Event::new(
                    EventId::new(ProcessId(0), 0),
                    Topic::root(),
                    SimTime::ZERO,
                    SimDuration::from_secs(validity),
                    400,
                ),
                forward_count: fwd,
            };
            let score = stored.gc_score();
            prop_assert!(score > 0.0 && score <= 1.0);
            let more_worn = StoredEvent { forward_count: fwd + 1, ..stored.clone() };
            prop_assert!(more_worn.gc_score() < score);
        }
    }
}
