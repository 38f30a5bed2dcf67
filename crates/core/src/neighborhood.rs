//! The neighborhood table (the paper's Figure 2).
//!
//! Each process keeps a small table of its one-hop neighbors *that share at
//! least one interest with it*: their identifier, subscriptions, the event
//! identifiers they are believed to already hold, their speed (optional) and
//! the time the entry was last refreshed. Entries whose refresh time is older
//! than the neighborhood garbage-collection delay are evicted periodically, so
//! the table's size stays bounded by the physical neighborhood size.
//!
//! The table is flat: rows sorted by neighbor id, each with a sorted vector of
//! known events, found by binary search. Walks go in ascending id, the order
//! the golden fingerprints pin for `average_speed`'s floating-point sum.

use pubsub::{EventId, ProcessId, SubscriptionSet, Topic};
use serde::{Deserialize, Serialize};
use simkit::{SimDuration, SimTime};

/// One row of the neighborhood table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NeighborEntry {
    /// The neighbor's subscriptions, as advertised in its last heartbeat.
    pub subscriptions: SubscriptionSet,
    /// Events the neighbor is believed to have received (from its event-id
    /// announcements and overheard event bundles), sorted and duplicate-free.
    known_events: Vec<EventId>,
    /// The neighbor's last advertised speed in m/s, if it shares it.
    pub speed: Option<f64>,
    /// When this entry was last stored or refreshed.
    pub stored_at: SimTime,
}

impl NeighborEntry {
    /// `true` if the neighbor is believed to already hold `event`.
    pub fn knows(&self, event: &EventId) -> bool {
        self.known_events.binary_search(event).is_ok()
    }

    /// Records that the neighbor holds `event` and refreshes the store time.
    fn learn(&mut self, event: EventId, now: SimTime) {
        if let Err(at) = self.known_events.binary_search(&event) {
            self.known_events.insert(at, event);
        }
        self.stored_at = now;
    }
}

/// The one-hop neighborhood table of a process (no `PartialEq`: spare storage may differ).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NeighborhoodTable {
    /// The tracked neighbors, sorted by id.
    entries: Vec<(ProcessId, NeighborEntry)>,
    /// What recently departed neighbors held and when they left, sorted by id,
    /// so a returning neighbor is not mistaken for an empty-handed newcomer
    /// (and sent needless retransmissions). At most `departed_capacity` rows.
    departed: Vec<(ProcessId, Vec<EventId>, SimTime)>,
    departed_capacity: usize,
    /// Known-event vectors freed by eviction or trimming, handed out again
    /// (emptied) to new rows and departed records instead of allocating.
    spare: Vec<Vec<EventId>>,
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

    /// The row of `id`, or where it would be inserted.
    fn find(&self, id: ProcessId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&id, |(key, _)| *key)
    }

    /// `true` if `id` is currently in the table.
    pub fn contains(&self, id: ProcessId) -> bool {
        self.find(id).is_ok()
    }

    /// The entry for neighbor `id`, if present.
    pub fn get(&self, id: ProcessId) -> Option<&NeighborEntry> {
        self.find(id).ok().map(|at| &self.entries[at].1)
    }

    /// Iterates over `(id, entry)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&ProcessId, &NeighborEntry)> {
        self.entries.iter().map(|(id, entry)| (id, entry))
    }

    /// Appends the identifiers of all tracked neighbors to `out`, in id order.
    pub fn ids_into(&self, out: &mut Vec<ProcessId>) {
        out.extend(self.entries.iter().map(|(id, _)| *id));
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
        match self.find(id) {
            Ok(at) => {
                let entry = &mut self.entries[at].1;
                entry.subscriptions = subscriptions;
                entry.speed = speed;
                entry.stored_at = now;
                false
            }
            Err(at) => {
                // A returning neighbor has not forgotten the events it already
                // received while it was away: restore what we knew about it.
                let known_events = match self.departed.binary_search_by_key(&id, |d| d.0) {
                    Ok(gone) => self.departed.remove(gone).1,
                    Err(_) => self.spare_events(),
                };
                let entry = NeighborEntry {
                    subscriptions,
                    known_events,
                    speed,
                    stored_at: now,
                };
                self.entries.insert(at, (id, entry));
                true
            }
        }
    }

    /// Records that neighbor `id` (presumably) holds event `event` (the paper's
    /// `UPDATENEIGHBOREVENTINFO`). Unknown neighbors are ignored. Also
    /// refreshes the entry's store time.
    pub fn record_known_event(&mut self, id: ProcessId, event: EventId, now: SimTime) {
        if let Ok(at) = self.find(id) {
            self.entries[at].1.learn(event, now);
        }
    }

    /// [`NeighborhoodTable::record_known_event`] for every tracked neighbor and
    /// each of `events` (after a broadcast to all of them), in one pass.
    pub fn mark_known_by_all(&mut self, events: &[EventId], now: SimTime) {
        for (_, entry) in &mut self.entries {
            for &event in events {
                entry.learn(event, now);
            }
        }
    }

    /// `true` if neighbor `id` is believed to already hold `event`.
    pub fn neighbor_knows(&self, id: ProcessId, event: &EventId) -> bool {
        self.get(id).is_some_and(|entry| entry.knows(event))
    }

    /// `true` if some tracked neighbor is subscribed to `topic`.
    pub fn someone_subscribed_to(&self, topic: &Topic) -> bool {
        self.iter()
            .any(|(_, entry)| entry.subscriptions.matches(topic))
    }

    /// Average advertised speed of the neighbors that share one, in m/s.
    /// `None` when no neighbor advertises a speed (the paper then keeps the
    /// default heartbeat delay). Summed in id order, which the fingerprints pin.
    pub fn average_speed(&self) -> Option<f64> {
        let speeds = self.entries.iter().filter_map(|(_, e)| e.speed);
        let (sum, count) = speeds.fold((0.0, 0u64), |(sum, n), speed| (sum + speed, n + 1));
        (count > 0).then(|| sum / count as f64)
    }

    /// Evicts entries whose store time is older than `now - ngc_delay` (the
    /// paper's `neighborhoodGC` task) in one id-ordered pass, remembering what
    /// they held if the departed memory is on. Returns how many were evicted.
    pub fn prune_stale(&mut self, now: SimTime, ngc_delay: SimDuration) -> usize {
        let cutoff = now - ngc_delay;
        let mut entries = std::mem::take(&mut self.entries);
        let before = entries.len();
        entries.retain_mut(|(id, entry)| {
            let fresh = entry.stored_at >= cutoff;
            if !fresh {
                let events = std::mem::take(&mut entry.known_events);
                if self.departed_capacity > 0 && !events.is_empty() {
                    self.remember(*id, events.iter().copied(), now);
                }
                self.spare.push(events);
            }
            fresh
        });
        let evicted = before - entries.len();
        self.entries = entries;
        self.trim_departed();
        evicted
    }

    /// Keeps the departed memory bounded: drops the oldest records first, the
    /// lowest id among equally old ones.
    fn trim_departed(&mut self) {
        while self.departed.len() > self.departed_capacity {
            // Of equal minima `min_by_key` keeps the first: the lowest id.
            let oldest = (0..self.departed.len()).min_by_key(|&at| self.departed[at].2);
            self.spare
                .extend(oldest.map(|at| self.departed.remove(at).1));
        }
    }

    /// An empty known-event vector, reusing freed storage when there is some.
    fn spare_events(&mut self) -> Vec<EventId> {
        let mut events = self.spare.pop().unwrap_or_default();
        events.clear();
        events
    }

    /// Number of departed neighbors remembered, probed by `neighborhood_matches_btreemap_model`.
    #[cfg(test)]
    fn departed_len(&self) -> usize {
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
        if self.departed_capacity == 0 || self.contains(id) {
            return;
        }
        self.remember(id, events, now);
        self.trim_departed();
    }

    /// Adds `events` to `id`'s departed record (made if missing), stamped `now`.
    fn remember(&mut self, id: ProcessId, events: impl IntoIterator<Item = EventId>, now: SimTime) {
        let at = match self.departed.binary_search_by_key(&id, |d| d.0) {
            Ok(at) => at,
            Err(at) => {
                let fresh = self.spare_events();
                self.departed.insert(at, (id, fresh, now));
                at
            }
        };
        let (_, known, left_at) = &mut self.departed[at];
        known.extend(events);
        known.sort_unstable();
        known.dedup();
        *left_at = now;
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
    fn someone_subscribed_to_respects_topic_and_knows_tracks_events() {
        let mut table = NeighborhoodTable::new();
        table.upsert(ProcessId(2), subs(".T0.T1"), None, SimTime::ZERO);
        // A subscriber of .T0.T1 wants events on .T0.T1.T2 (subtopic)...
        assert!(table.someone_subscribed_to(&topic(".T0.T1.T2")));
        // ...but not events on .T0 (ancestor: that would be a parasite for it).
        assert!(!table.someone_subscribed_to(&topic(".T0")));
        assert!(!table.someone_subscribed_to(&topic(".music")));
        // Once the neighbor is known to hold the event, it no longer needs it.
        let entry = table.get(ProcessId(2)).unwrap();
        assert!(!entry.knows(&eid(1)));
        table.record_known_event(ProcessId(2), eid(1), SimTime::ZERO);
        table.record_known_event(ProcessId(2), eid(1), SimTime::ZERO);
        let entry = table.get(ProcessId(2)).unwrap();
        assert!(entry.knows(&eid(1)));
        assert!(!entry.knows(&eid(2)));
        table.mark_known_by_all(&[eid(2), eid(0)], SimTime::ZERO);
        let entry = table.get(ProcessId(2)).unwrap();
        assert!([0, 1, 2].iter().all(|&seq| entry.knows(&eid(seq))));
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
    fn departed_trim_drops_the_lowest_id_among_equally_old() {
        let mut table = NeighborhoodTable::with_departed_memory(2);
        for i in [7u64, 3, 5] {
            table.upsert(ProcessId(i), subs(".a"), None, SimTime::ZERO);
            table.record_known_event(ProcessId(i), eid(i), SimTime::ZERO);
        }
        // All three leave in one collection, so their departures tie.
        let evicted = table.prune_stale(SimTime::from_secs(10), SimDuration::from_secs(5));
        assert_eq!(evicted, 3);
        assert_eq!(table.departed_len(), 2);
        for (i, remembered) in [(3u64, false), (5, true), (7, true)] {
            table.upsert(ProcessId(i), subs(".a"), None, SimTime::from_secs(20));
            assert_eq!(table.neighbor_knows(ProcessId(i), &eid(i)), remembered);
        }
    }

    #[test]
    fn sparse_ids_are_tracked_like_dense_ones() {
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
    use std::collections::{BTreeMap, BTreeSet};

    /// The reference layout on std ordered collections: rows in a `BTreeMap`
    /// with `BTreeSet` known events, and a departed `BTreeMap` trimmed by
    /// `min_by_key` over its id-ordered iteration.
    #[derive(Default)]
    struct Model {
        entries: BTreeMap<ProcessId, (SubscriptionSet, BTreeSet<EventId>, Option<f64>, SimTime)>,
        departed: BTreeMap<ProcessId, (BTreeSet<EventId>, SimTime)>,
        capacity: usize,
    }

    impl Model {
        fn upsert(
            &mut self,
            id: ProcessId,
            subs: SubscriptionSet,
            speed: Option<f64>,
            now: SimTime,
        ) -> bool {
            if let Some(row) = self.entries.get_mut(&id) {
                (row.0, row.2, row.3) = (subs, speed, now);
                return false;
            }
            let known = self
                .departed
                .remove(&id)
                .map(|(events, _)| events)
                .unwrap_or_default();
            self.entries.insert(id, (subs, known, speed, now));
            true
        }

        fn record(&mut self, id: ProcessId, events: &[EventId], now: SimTime) {
            if let Some(row) = self.entries.get_mut(&id) {
                row.1.extend(events.iter().copied());
                row.3 = now;
            }
        }

        fn remember_unknown(&mut self, id: ProcessId, events: &[EventId], now: SimTime) {
            if self.capacity == 0 || self.entries.contains_key(&id) {
                return;
            }
            let slot = self
                .departed
                .entry(id)
                .or_insert_with(|| (BTreeSet::new(), now));
            slot.0.extend(events.iter().copied());
            slot.1 = now;
            self.trim();
        }

        fn prune(&mut self, now: SimTime, delay: SimDuration) -> usize {
            let cutoff = now - delay;
            let stale: Vec<ProcessId> = self
                .entries
                .iter()
                .filter(|(_, row)| row.3 < cutoff)
                .map(|(id, _)| *id)
                .collect();
            for id in &stale {
                let (_, known, _, _) = self.entries.remove(id).unwrap();
                if self.capacity > 0 && !known.is_empty() {
                    self.departed.insert(*id, (known, now));
                }
            }
            self.trim();
            stale.len()
        }

        fn trim(&mut self) {
            while self.departed.len() > self.capacity {
                let oldest = *self
                    .departed
                    .iter()
                    .min_by_key(|(_, (_, at))| *at)
                    .unwrap()
                    .0;
                self.departed.remove(&oldest);
            }
        }

        fn average_speed(&self) -> Option<f64> {
            let speeds: Vec<f64> = self.entries.values().filter_map(|row| row.2).collect();
            (!speeds.is_empty()).then(|| speeds.iter().sum::<f64>() / speeds.len() as f64)
        }
    }

    proptest! {
        /// The flat table behaves exactly like the B-tree reference layout
        /// under any sequence of operations: same return values, rows in the
        /// same order, same known events, store times, departed memory and
        /// bit-identical average speed.
        #[test]
        fn neighborhood_matches_btreemap_model(
            capacity in 0usize..4,
            ops in proptest::collection::vec(
                (0u8..11, 0u64..12, 0u64..8, 0u64..3, proptest::option::of(0u32..40)),
                0..40,
            ),
        ) {
            let mut table = NeighborhoodTable::with_departed_memory(capacity);
            let mut model = Model { capacity, ..Model::default() };
            let eid = |seq: u64| EventId::new(ProcessId(99), seq);
            let topic = |n: u64| Topic::root().child(&format!("t{n}"));
            let mut now = SimTime::ZERO;
            for (op, id, event, step, speed) in ops {
                now += SimDuration::from_secs(step);
                let pid = ProcessId(id);
                let events = [eid(event), eid((event + 3) % 8)];
                match op {
                    0..=3 => {
                        let subs = SubscriptionSet::single(topic(id % 3));
                        let speed = speed.map(|s| f64::from(s) / 7.0);
                        prop_assert_eq!(
                            table.upsert(pid, subs.clone(), speed, now),
                            model.upsert(pid, subs, speed, now)
                        );
                    }
                    4..=5 => {
                        table.record_known_event(pid, events[0], now);
                        model.record(pid, &events[..1], now);
                    }
                    6 => {
                        table.mark_known_by_all(&events, now);
                        let ids: Vec<ProcessId> = model.entries.keys().copied().collect();
                        for id in ids {
                            model.record(id, &events, now);
                        }
                    }
                    7..=8 => {
                        table.remember_unknown(pid, events, now);
                        model.remember_unknown(pid, &events, now);
                    }
                    _ => {
                        let delay = SimDuration::from_secs(event % 4);
                        prop_assert_eq!(table.prune_stale(now, delay), model.prune(now, delay));
                    }
                }
                prop_assert_eq!(table.len(), model.entries.len());
                let mut ids = Vec::new();
                table.ids_into(&mut ids);
                prop_assert!(ids.iter().eq(model.entries.keys()));
                prop_assert_eq!(table.departed_len(), model.departed.len());
                prop_assert_eq!(
                    table.average_speed().map(f64::to_bits),
                    model.average_speed().map(f64::to_bits)
                );
                prop_assert_eq!(
                    table.someone_subscribed_to(&topic(0)),
                    model.entries.values().any(|row| row.0.matches(&topic(0)))
                );
                for probe in (0..12).map(ProcessId) {
                    let row = model.entries.get(&probe);
                    prop_assert_eq!(table.contains(probe), row.is_some());
                    prop_assert_eq!(table.get(probe).map(|e| e.stored_at), row.map(|r| r.3));
                    for seq in 0..8 {
                        prop_assert_eq!(
                            table.get(probe).map(|e| e.knows(&eid(seq))),
                            row.map(|r| r.1.contains(&eid(seq)))
                        );
                    }
                }
            }
        }

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
