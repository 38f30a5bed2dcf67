//! The neighborhood table (the paper's Figure 2).
//!
//! Each process keeps a small table of its one-hop neighbors *that share at
//! least one interest with it*: their identifier, subscriptions, the event
//! identifiers they are believed to already hold, their speed (optional) and
//! the time the entry was last refreshed. Entries whose refresh time is older
//! than the neighborhood garbage-collection delay are evicted periodically, so
//! the table's size stays bounded by the physical neighborhood size.

use pubsub::{EventId, ProcessId, SubscriptionSet, Topic};
use serde::{Deserialize, Serialize};
use simkit::{BitSet, SimDuration, SimTime};
use std::collections::{BTreeMap, HashSet};

/// Process ids below this bound are mirrored in a presence bitset so that
/// membership tests — the hottest neighborhood query on the message-receive
/// path — are a single load+mask instead of a tree walk. Simulated worlds
/// assign dense ids from zero, so every real scenario fits; sparse ids above
/// the bound (possible in hand-written tests) simply fall back to the tree.
const DENSE_ID_BOUND: u64 = 1 << 22;

fn dense_index(id: ProcessId) -> Option<usize> {
    (id.0 < DENSE_ID_BOUND).then_some(id.0 as usize)
}

/// One row of the neighborhood table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NeighborEntry {
    /// The neighbor's subscriptions, as advertised in its last heartbeat.
    pub subscriptions: SubscriptionSet,
    /// Events the neighbor is believed to have received (learned from its
    /// event-id announcements and from overheard event bundles).
    pub known_events: HashSet<EventId>,
    /// The neighbor's last advertised speed in m/s, if it shares it.
    pub speed: Option<f64>,
    /// When this entry was last stored or refreshed.
    pub stored_at: SimTime,
}

/// The dynamic one-hop neighborhood table of a process.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NeighborhoodTable {
    entries: BTreeMap<ProcessId, NeighborEntry>,
    /// What recently departed neighbors were known to hold, so that a neighbor
    /// that drives back into range is not mistaken for an empty-handed
    /// newcomer (which would trigger needless retransmissions). Bounded by
    /// `departed_capacity`; disabled when the capacity is zero.
    departed: BTreeMap<ProcessId, (HashSet<EventId>, SimTime)>,
    departed_capacity: usize,
    /// Presence mirror of `entries` for ids below [`DENSE_ID_BOUND`], kept in
    /// lockstep by `upsert`/eviction/`clear`.
    present: BitSet,
    /// Reusable scratch for [`NeighborhoodTable::prune_stale`]; always left
    /// empty between calls.
    stale_scratch: Vec<ProcessId>,
}

impl NeighborhoodTable {
    /// Creates an empty table without departed-neighbor memory (the paper's
    /// exact data structure).
    pub fn new() -> Self {
        NeighborhoodTable::default()
    }

    /// Creates an empty table that additionally remembers, for up to
    /// `capacity` recently departed neighbors, which events they were known to
    /// hold. A capacity of zero behaves exactly like [`NeighborhoodTable::new`].
    pub fn with_departed_memory(capacity: usize) -> Self {
        NeighborhoodTable {
            departed_capacity: capacity,
            ..NeighborhoodTable::default()
        }
    }

    /// Number of neighbors currently tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no neighbor is tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` if `id` is currently in the table.
    pub fn contains(&self, id: ProcessId) -> bool {
        match dense_index(id) {
            Some(index) => self.present.contains(index),
            None => self.entries.contains_key(&id),
        }
    }

    /// The entry for neighbor `id`, if present.
    pub fn get(&self, id: ProcessId) -> Option<&NeighborEntry> {
        self.entries.get(&id)
    }

    /// Iterates over `(id, entry)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&ProcessId, &NeighborEntry)> {
        self.entries.iter()
    }

    /// Appends the identifiers of all tracked neighbors to `out`, in id
    /// order.
    pub fn ids_into(&self, out: &mut Vec<ProcessId>) {
        out.extend(self.entries.keys().copied());
    }

    /// Inserts or refreshes the entry for `id` (the paper's
    /// `UPDATENEIGHBORINFO`). Returns `true` if the neighbor was not previously
    /// known — the "new neighbor" event that triggers the event-id exchange.
    pub fn upsert(
        &mut self,
        id: ProcessId,
        subscriptions: SubscriptionSet,
        speed: Option<f64>,
        now: SimTime,
    ) -> bool {
        match self.entries.entry(id) {
            std::collections::btree_map::Entry::Vacant(slot) => {
                // A returning neighbor has not forgotten the events it already
                // received while it was away: restore what we knew about it.
                let known_events = self
                    .departed
                    .remove(&id)
                    .map(|(events, _)| events)
                    .unwrap_or_default();
                slot.insert(NeighborEntry {
                    subscriptions,
                    known_events,
                    speed,
                    stored_at: now,
                });
                if let Some(index) = dense_index(id) {
                    self.present.insert(index);
                }
                true
            }
            std::collections::btree_map::Entry::Occupied(mut slot) => {
                let entry = slot.get_mut();
                entry.subscriptions = subscriptions;
                entry.speed = speed;
                entry.stored_at = now;
                false
            }
        }
    }

    /// Records that neighbor `id` (presumably) holds event `event` (the paper's
    /// `UPDATENEIGHBOREVENTINFO`). Unknown neighbors are ignored. Also
    /// refreshes the entry's store time.
    pub fn record_known_event(&mut self, id: ProcessId, event: EventId, now: SimTime) {
        if let Some(entry) = self.entries.get_mut(&id) {
            entry.known_events.insert(event);
            entry.stored_at = now;
        }
    }

    /// `true` if neighbor `id` is believed to already hold `event`.
    pub fn neighbor_knows(&self, id: ProcessId, event: &EventId) -> bool {
        self.entries
            .get(&id)
            .map(|e| e.known_events.contains(event))
            .unwrap_or(false)
    }

    /// `true` if some tracked neighbor is subscribed to `topic` (directly or
    /// through an ancestor subscription) and is not yet known to hold `event`.
    pub fn someone_needs(&self, topic: &Topic, event: &EventId) -> bool {
        self.entries
            .values()
            .any(|entry| entry.subscriptions.matches(topic) && !entry.known_events.contains(event))
    }

    /// `true` if some tracked neighbor is subscribed to `topic`.
    pub fn someone_subscribed_to(&self, topic: &Topic) -> bool {
        self.entries
            .values()
            .any(|entry| entry.subscriptions.matches(topic))
    }

    /// Average advertised speed of the neighbors that share one, in m/s.
    /// `None` when no neighbor advertises a speed (the paper then keeps the
    /// default heartbeat delay). Computed streaming, in the same id-order
    /// summation as the historical collect-then-sum implementation, so the
    /// floating-point result is bit-identical.
    pub fn average_speed(&self) -> Option<f64> {
        let mut sum = 0.0;
        let mut count = 0u64;
        for speed in self.entries.values().filter_map(|e| e.speed) {
            sum += speed;
            count += 1;
        }
        (count > 0).then(|| sum / count as f64)
    }

    /// Evicts entries whose store time is older than `now - ngc_delay` (the
    /// paper's `neighborhoodGC` task), remembering what departed neighbors
    /// held when the departed memory is enabled. Returns how many neighbors
    /// were evicted.
    pub fn prune_stale(&mut self, now: SimTime, ngc_delay: SimDuration) -> usize {
        let cutoff = now - ngc_delay;
        let mut stale = std::mem::take(&mut self.stale_scratch);
        stale.extend(
            self.entries
                .iter()
                .filter(|(_, e)| e.stored_at < cutoff)
                .map(|(id, _)| *id),
        );
        let evicted = stale.len();
        self.evict(&stale, now);
        stale.clear();
        self.stale_scratch = stale;
        evicted
    }

    fn evict(&mut self, stale: &[ProcessId], now: SimTime) {
        for id in stale {
            if let Some(entry) = self.entries.remove(id) {
                if let Some(index) = dense_index(*id) {
                    self.present.remove(index);
                }
                if self.departed_capacity > 0 && !entry.known_events.is_empty() {
                    self.departed.insert(*id, (entry.known_events, now));
                }
            }
        }
        self.trim_departed();
    }

    /// Keeps the departed memory bounded: drops the oldest entries first.
    fn trim_departed(&mut self) {
        while self.departed.len() > self.departed_capacity {
            if let Some(oldest) = self
                .departed
                .iter()
                .min_by_key(|(_, (_, at))| *at)
                .map(|(id, _)| *id)
            {
                self.departed.remove(&oldest);
            } else {
                break;
            }
        }
    }

    /// Number of departed neighbors currently remembered (for tests).
    pub fn departed_len(&self) -> usize {
        self.departed.len()
    }

    /// Remembers that a process that is *not yet* in the table holds the given
    /// events. This covers the start-up ordering where a process hears another
    /// one's event-identifier announcement before it has heard its heartbeat:
    /// instead of dropping that knowledge (and later re-sending events the
    /// announcer already holds), it is parked in the departed-neighbor memory
    /// and restored when the announcer's heartbeat arrives. Ignored when the
    /// memory is disabled or the process is already a tracked neighbor.
    pub fn remember_unknown<I: IntoIterator<Item = EventId>>(
        &mut self,
        id: ProcessId,
        events: I,
        now: SimTime,
    ) {
        if self.departed_capacity == 0 || self.entries.contains_key(&id) {
            return;
        }
        let slot = self
            .departed
            .entry(id)
            .or_insert_with(|| (HashSet::new(), now));
        slot.0.extend(events);
        slot.1 = now;
        self.trim_departed();
    }

    /// Removes every entry (used when the process unsubscribes from everything).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.departed.clear();
        self.present.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topic(s: &str) -> Topic {
        s.parse().unwrap()
    }

    fn subs(s: &str) -> SubscriptionSet {
        SubscriptionSet::single(topic(s))
    }

    fn eid(seq: u64) -> EventId {
        EventId::new(ProcessId(99), seq)
    }

    #[test]
    fn upsert_reports_new_neighbors_only_once() {
        let mut table = NeighborhoodTable::new();
        assert!(table.upsert(ProcessId(2), subs(".T0"), Some(5.0), SimTime::from_secs(1)));
        assert!(!table.upsert(ProcessId(2), subs(".T0"), Some(7.0), SimTime::from_secs(2)));
        assert_eq!(table.len(), 1);
        let entry = table.get(ProcessId(2)).unwrap();
        assert_eq!(entry.speed, Some(7.0));
        assert_eq!(entry.stored_at, SimTime::from_secs(2));
    }

    #[test]
    fn record_known_event_and_lookup() {
        let mut table = NeighborhoodTable::new();
        table.upsert(ProcessId(2), subs(".T0"), None, SimTime::ZERO);
        assert!(!table.neighbor_knows(ProcessId(2), &eid(1)));
        table.record_known_event(ProcessId(2), eid(1), SimTime::from_secs(1));
        assert!(table.neighbor_knows(ProcessId(2), &eid(1)));
        // Unknown neighbors are ignored rather than created.
        table.record_known_event(ProcessId(77), eid(1), SimTime::from_secs(1));
        assert!(!table.contains(ProcessId(77)));
        assert!(!table.neighbor_knows(ProcessId(77), &eid(1)));
    }

    #[test]
    fn someone_needs_respects_topic_and_known_events() {
        let mut table = NeighborhoodTable::new();
        table.upsert(ProcessId(2), subs(".T0.T1"), None, SimTime::ZERO);
        // A subscriber of .T0.T1 needs events on .T0.T1.T2 (subtopic).
        assert!(table.someone_needs(&topic(".T0.T1.T2"), &eid(1)));
        // But not events on .T0 (ancestor: that would be a parasite for it).
        assert!(!table.someone_needs(&topic(".T0"), &eid(1)));
        // Once the neighbor is known to hold the event, nobody needs it.
        table.record_known_event(ProcessId(2), eid(1), SimTime::ZERO);
        assert!(!table.someone_needs(&topic(".T0.T1.T2"), &eid(1)));
        assert!(table.someone_subscribed_to(&topic(".T0.T1.T2")));
        assert!(!table.someone_subscribed_to(&topic(".music")));
    }

    #[test]
    fn average_speed_ignores_silent_neighbors() {
        let mut table = NeighborhoodTable::new();
        assert_eq!(table.average_speed(), None);
        table.upsert(ProcessId(1), subs(".a"), Some(10.0), SimTime::ZERO);
        table.upsert(ProcessId(2), subs(".a"), None, SimTime::ZERO);
        table.upsert(ProcessId(3), subs(".a"), Some(20.0), SimTime::ZERO);
        assert_eq!(table.average_speed(), Some(15.0));
    }

    #[test]
    fn stale_entries_are_collected() {
        let mut table = NeighborhoodTable::new();
        table.upsert(ProcessId(1), subs(".a"), None, SimTime::from_secs(0));
        table.upsert(ProcessId(2), subs(".a"), None, SimTime::from_secs(8));
        let evicted = table.prune_stale(SimTime::from_secs(10), SimDuration::from_secs(5));
        assert_eq!(evicted, 1);
        assert!(!table.contains(ProcessId(1)));
        assert_eq!(table.len(), 1);
        assert!(table.contains(ProcessId(2)));
        // Refreshing an entry protects it from collection.
        table.upsert(ProcessId(2), subs(".a"), None, SimTime::from_secs(14));
        let evicted = table.prune_stale(SimTime::from_secs(18), SimDuration::from_secs(5));
        assert_eq!(evicted, 0);
    }

    #[test]
    fn record_known_event_refreshes_store_time() {
        let mut table = NeighborhoodTable::new();
        table.upsert(ProcessId(1), subs(".a"), None, SimTime::from_secs(0));
        table.record_known_event(ProcessId(1), eid(0), SimTime::from_secs(9));
        let evicted = table.prune_stale(SimTime::from_secs(10), SimDuration::from_secs(5));
        assert_eq!(evicted, 0, "hearing from a neighbor keeps it alive");
    }

    #[test]
    fn departed_memory_restores_known_events() {
        let mut table = NeighborhoodTable::with_departed_memory(8);
        table.upsert(ProcessId(1), subs(".a"), None, SimTime::from_secs(0));
        table.record_known_event(ProcessId(1), eid(7), SimTime::from_secs(0));
        // The neighbor goes silent and is evicted...
        let evicted = table.prune_stale(SimTime::from_secs(10), SimDuration::from_secs(5));
        assert_eq!(evicted, 1);
        assert!(!table.contains(ProcessId(1)));
        assert_eq!(table.departed_len(), 1);
        // ...and later comes back: what it already held is not forgotten.
        let is_new = table.upsert(ProcessId(1), subs(".a"), None, SimTime::from_secs(20));
        assert!(is_new, "re-detection still counts as a new-neighbor event");
        assert!(table.neighbor_knows(ProcessId(1), &eid(7)));
        assert_eq!(
            table.departed_len(),
            0,
            "the memory entry is consumed on return"
        );
    }

    #[test]
    fn departed_memory_is_bounded_and_optional() {
        // Without memory (the paper's exact structure) nothing is remembered.
        let mut plain = NeighborhoodTable::new();
        plain.upsert(ProcessId(1), subs(".a"), None, SimTime::from_secs(0));
        plain.record_known_event(ProcessId(1), eid(1), SimTime::from_secs(0));
        plain.prune_stale(SimTime::from_secs(10), SimDuration::from_secs(5));
        plain.upsert(ProcessId(1), subs(".a"), None, SimTime::from_secs(20));
        assert!(!plain.neighbor_knows(ProcessId(1), &eid(1)));
        assert_eq!(plain.departed_len(), 0);

        // With a capacity of 2, only the most recent departures are kept.
        let mut bounded = NeighborhoodTable::with_departed_memory(2);
        for i in 0..4u64 {
            bounded.upsert(ProcessId(i), subs(".a"), None, SimTime::from_secs(i));
            bounded.record_known_event(ProcessId(i), eid(i), SimTime::from_secs(i));
            // Evict this neighbor immediately by collecting far in the future of
            // its store time but before the next one is added.
            bounded.prune_stale(SimTime::from_secs(i + 100), SimDuration::from_secs(5));
        }
        assert!(bounded.departed_len() <= 2);
    }

    #[test]
    fn contains_handles_sparse_ids_beyond_dense_bound() {
        let mut table = NeighborhoodTable::new();
        let sparse = ProcessId(u64::MAX - 7);
        assert!(!table.contains(sparse));
        table.upsert(sparse, subs(".a"), None, SimTime::ZERO);
        assert!(table.contains(sparse));
        let evicted = table.prune_stale(SimTime::from_secs(100), SimDuration::from_secs(5));
        assert_eq!(evicted, 1);
        assert!(!table.contains(sparse));
    }

    #[test]
    fn clear_empties_table() {
        let mut table = NeighborhoodTable::new();
        table.upsert(ProcessId(1), subs(".a"), None, SimTime::ZERO);
        table.clear();
        assert!(table.is_empty());
        assert_eq!(table.iter().count(), 0);
    }

    #[test]
    fn ids_and_iter_in_order() {
        let mut table = NeighborhoodTable::new();
        table.upsert(ProcessId(5), subs(".a"), None, SimTime::ZERO);
        table.upsert(ProcessId(2), subs(".a"), None, SimTime::ZERO);
        let mut ids = Vec::new();
        table.ids_into(&mut ids);
        assert_eq!(ids, vec![ProcessId(2), ProcessId(5)]);
        assert_eq!(table.iter().count(), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// After garbage collection every surviving entry is fresh enough, and
        /// evicted + surviving = original count.
        #[test]
        fn gc_preserves_count_invariant(stamps in proptest::collection::vec(0u64..100, 1..50),
                                        now in 0u64..200, delay in 1u64..50) {
            let mut table = NeighborhoodTable::new();
            for (i, &s) in stamps.iter().enumerate() {
                table.upsert(
                    ProcessId(i as u64),
                    SubscriptionSet::single(Topic::root().child("t")),
                    None,
                    SimTime::from_secs(s),
                );
            }
            let before = table.len();
            let now = SimTime::from_secs(now);
            let delay = SimDuration::from_secs(delay);
            let evicted = table.prune_stale(now, delay);
            prop_assert_eq!(evicted + table.len(), before);
            let cutoff = now - delay;
            for (_, entry) in table.iter() {
                prop_assert!(entry.stored_at >= cutoff);
            }
            // Idempotent: a second pass evicts nothing.
            prop_assert_eq!(table.prune_stale(now, delay), 0);
        }
    }
}
