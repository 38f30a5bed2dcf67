//! The frugal dissemination protocol (the paper's Sections 3 and 4).
//!
//! [`FrugalProtocol`] implements the three phases of the algorithm as a pure
//! state machine:
//!
//! 1. **Neighborhood detection** — periodic heartbeats carrying the process's
//!    subscriptions (and optionally its speed) build a table of the one-hop
//!    neighbors that share an interest; newly discovered neighbors trigger an
//!    exchange of *event identifiers* so that only missing events ever get
//!    transmitted.
//! 2. **Dissemination** — when a process learns that a neighbor needs one of
//!    its still-valid events, it arms a back-off whose duration shrinks with
//!    the number of events it has to offer; when the back-off expires the
//!    events are broadcast together with the list of neighbors they are meant
//!    for, letting everyone overhear and update their own bookkeeping.
//! 3. **Garbage collection** — the neighborhood table is purged of stale
//!    entries periodically, and the bounded event table evicts victims chosen
//!    by the validity/forward-count formula of Eq. 1.

use crate::api::{Action, ActionBuf, DisseminationProtocol, TimerKind};
use crate::config::ProtocolConfig;
use crate::delays::{compute_bo_delay, compute_hb_delay, compute_ngc_delay};
use crate::event_table::EventTable;
use crate::messages::Message;
use crate::metrics::ProtocolMetrics;
use crate::neighborhood::NeighborhoodTable;
use pubsub::{Event, EventId, ProcessId, SubscriptionSet, Topic};
use simkit::{SimDuration, SimTime};

/// The paper's frugal topic-based dissemination protocol.
#[derive(Debug)]
pub struct FrugalProtocol {
    id: ProcessId,
    config: ProtocolConfig,
    subscriptions: SubscriptionSet,
    neighborhood: NeighborhoodTable,
    event_table: EventTable,
    /// Current heartbeat delay (adapted to the neighborhood's average speed).
    hb_delay: SimDuration,
    /// Current neighborhood garbage-collection delay.
    ngc_delay: SimDuration,
    /// Pending back-off delay; `None` when no back-off is armed.
    bo_delay: Option<SimDuration>,
    /// Deterministic per-process stretch factor applied to new back-offs, in
    /// `[1, 1 + bo_jitter_fraction)`; it de-synchronizes processes that would
    /// otherwise compute identical back-off delays so that the first answer
    /// suppresses the others (see [`ProtocolConfig::bo_jitter_fraction`]).
    bo_jitter: f64,
    heartbeat_running: bool,
    ngc_running: bool,
    current_speed: Option<f64>,
    next_sequence: u64,
    metrics: ProtocolMetrics,
    /// Reusable scratch for the `RETRIEVEEVENTSTOSEND` id set; always left
    /// empty between callbacks so it never affects observable state.
    needed_scratch: Vec<EventId>,
}

impl FrugalProtocol {
    /// Creates a protocol instance for process `id`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ProtocolConfig::validate`].
    pub fn new(id: ProcessId, config: ProtocolConfig) -> Self {
        if let Err(reason) = config.validate() {
            panic!("invalid protocol configuration: {reason}");
        }
        let hb_delay = compute_hb_delay(&config, None);
        let ngc_delay = compute_ngc_delay(&config, hb_delay);
        // SplitMix64-style hash of the process id, mapped to [0, 1): stable,
        // uniform-ish, and different for different processes.
        let hashed =
            id.0.wrapping_add(0x9E37_79B9_7F4A_7C15)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let unit = ((hashed >> 40) & 0xFFFF) as f64 / 65536.0;
        let bo_jitter = 1.0 + config.bo_jitter_fraction * unit;
        FrugalProtocol {
            id,
            event_table: EventTable::new(config.event_table_capacity),
            neighborhood: NeighborhoodTable::with_departed_memory(config.departed_memory_capacity),
            config,
            subscriptions: SubscriptionSet::new(),
            hb_delay,
            ngc_delay,
            bo_delay: None,
            bo_jitter,
            heartbeat_running: false,
            ngc_running: false,
            current_speed: None,
            next_sequence: 0,
            metrics: ProtocolMetrics::new(),
            needed_scratch: Vec::new(),
        }
    }

    /// The protocol configuration.
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// Read access to the neighborhood table (for inspection and tests).
    pub fn neighborhood(&self) -> &NeighborhoodTable {
        &self.neighborhood
    }

    /// Read access to the event table (for inspection and tests).
    pub fn event_table(&self) -> &EventTable {
        &self.event_table
    }

    /// The heartbeat delay, probed by `speed_adapts_heartbeat_delay_from_neighbor_reports`.
    #[cfg(test)]
    fn heartbeat_delay(&self) -> SimDuration {
        self.hb_delay
    }

    /// The neighborhood GC delay, probed by `speed_adapts_heartbeat_delay_from_neighbor_reports`.
    #[cfg(test)]
    fn neighborhood_gc_delay(&self) -> SimDuration {
        self.ngc_delay
    }

    /// `true` while a back-off is pending, probed by `event_ids_from_needy_neighbor_arm_a_backoff`.
    #[cfg(test)]
    fn backoff_pending(&self) -> bool {
        self.bo_delay.is_some()
    }

    // ------------------------------------------------------------------
    // Internal helpers
    // ------------------------------------------------------------------

    /// Broadcasts `message`, doing the send-side metric accounting.
    fn broadcast(&mut self, message: Message, out: &mut ActionBuf) {
        self.metrics.record_send(message.event_count() as u64);
        out.push(Action::Broadcast(message));
    }

    fn heartbeat_message(&self) -> Message {
        Message::Heartbeat {
            from: self.id,
            subscriptions: self.subscriptions.clone(),
            speed: if self.config.adapt_to_speed {
                self.current_speed
            } else {
                None
            },
        }
    }

    /// A heartbeat sender is worth tracking if it shares an interest with us,
    /// or if we hold events its subscriptions cover (this second clause lets a
    /// pure publisher — e.g. a car announcing a freed parking spot without
    /// subscribing to anything — serve the subscribers around it).
    fn neighbor_is_relevant(&self, subs: &SubscriptionSet, now: SimTime) -> bool {
        if subs.shares_interest_with(&self.subscriptions) {
            return true;
        }
        self.event_table.any_of_interest(subs, now)
    }

    /// Recomputes the adaptive delays from the neighborhood's average speed
    /// (the paper's `COMPUTEHBDELAY` / `COMPUTENGCDELAY`, run at every
    /// heartbeat reception). The new values take effect when the corresponding
    /// timers are next re-armed.
    fn recompute_delays(&mut self) {
        self.hb_delay = compute_hb_delay(&self.config, self.neighborhood.average_speed());
        self.ngc_delay = compute_ngc_delay(&self.config, self.hb_delay);
    }

    /// The paper's `RETRIEVEEVENTSTOSEND`: fills `needed` with the identifiers
    /// of the still-valid stored events that some neighbor is subscribed to
    /// but not yet known to hold. The ids come out in the event table's id
    /// order, each once, without allocating once `needed`'s capacity has
    /// warmed up.
    fn events_needed_by_neighbors(&self, now: SimTime, needed: &mut Vec<EventId>) {
        needed.clear();
        let wanted = |event: &Event| {
            self.neighborhood.iter().any(|(_, entry)| {
                entry.subscriptions.matches(&event.topic) && !entry.knows(&event.id)
            })
        };
        needed.extend(
            self.event_table
                .iter()
                .map(|stored| &stored.event)
                .filter(|event| event.is_valid_at(now) && wanted(event))
                .map(|event| event.id),
        );
    }

    /// Arms the back-off if there is something to send and no back-off is
    /// already pending (second half of `RETRIEVEEVENTSTOSEND`).
    fn schedule_backoff_if_needed(&mut self, now: SimTime, out: &mut ActionBuf) {
        let mut pending = std::mem::take(&mut self.needed_scratch);
        self.events_needed_by_neighbors(now, &mut pending);
        let pending_len = pending.len();
        pending.clear();
        self.needed_scratch = pending;
        if pending_len == 0 {
            return;
        }
        let already_armed = self.bo_delay.is_some();
        let computed = compute_bo_delay(&self.config, self.hb_delay, pending_len, self.bo_delay);
        if !already_armed {
            if let Some(delay) = computed {
                // Stretch by the per-process factor so contenders that computed
                // the same delay do not all answer in the same slot.
                let delay = delay.mul_f64(self.bo_jitter);
                self.bo_delay = Some(delay);
                out.push(Action::SetTimer {
                    kind: TimerKind::BackOff,
                    after: delay,
                });
            }
        } else {
            self.bo_delay = computed;
        }
    }

    fn on_backoff_expired(&mut self, now: SimTime, out: &mut ActionBuf) {
        self.bo_delay = None;
        // Recompute: the neighborhood may have changed during the back-off, and
        // some events may have expired or been overheard in the meantime.
        let mut ids = std::mem::take(&mut self.needed_scratch);
        self.events_needed_by_neighbors(now, &mut ids);
        if ids.is_empty() {
            self.needed_scratch = ids;
            return;
        }
        let mut events = out.events_vec();
        events.extend(
            ids.iter()
                .filter_map(|id| self.event_table.get(id).map(|s| s.event.clone())),
        );
        let mut recipients = out.recipients_vec();
        self.neighborhood.ids_into(&mut recipients);
        // Bookkeeping first (the vectors move into the message below); the
        // relative order of metric and table updates is unobservable. Every
        // id in `ids` came from the event table, so `events` carries them all.
        self.neighborhood.mark_known_by_all(&ids, now);
        for id in &ids {
            self.event_table.increment_forward_count(id);
        }
        ids.clear();
        self.needed_scratch = ids;
        let message = Message::Events {
            from: self.id,
            events,
            recipients,
        };
        self.broadcast(message, out);
    }

    fn on_heartbeat_received(
        &mut self,
        from: ProcessId,
        subscriptions: &SubscriptionSet,
        speed: Option<f64>,
        now: SimTime,
        out: &mut ActionBuf,
    ) {
        if from == self.id {
            return;
        }
        if self.neighbor_is_relevant(subscriptions, now) {
            let is_new = self
                .neighborhood
                .upsert(from, subscriptions.clone(), speed, now);
            if is_new {
                // New-neighbor event: announce which of our events could
                // interest it, so it can tell us (and others) what it misses.
                let mut ids = out.ids_vec();
                self.event_table
                    .ids_of_interest_into(subscriptions, now, &mut ids);
                let message = Message::EventIds { from: self.id, ids };
                self.broadcast(message, out);
            }
        }
        self.recompute_delays();
    }

    fn on_event_ids_received(
        &mut self,
        from: ProcessId,
        ids: &[EventId],
        now: SimTime,
        out: &mut ActionBuf,
    ) {
        if !self.neighborhood.contains(from) {
            // We have not heard this process's heartbeat yet; park what it
            // announced so it is not mistaken for empty-handed once we do.
            self.neighborhood
                .remember_unknown(from, ids.iter().copied(), now);
            return;
        }
        for id in ids {
            self.neighborhood.record_known_event(from, *id, now);
        }
        self.schedule_backoff_if_needed(now, out);
    }

    fn on_events_received(
        &mut self,
        from: ProcessId,
        events: &[Event],
        recipients: &[ProcessId],
        now: SimTime,
        out: &mut ActionBuf,
    ) {
        let mut interested = false;
        for event in events {
            // Everyone listed as a recipient — and the sender itself — now
            // presumably holds the event.
            self.neighborhood.record_known_event(from, event.id, now);
            for &recipient in recipients {
                if recipient != self.id {
                    self.neighborhood
                        .record_known_event(recipient, event.id, now);
                }
            }
            if self.subscriptions.matches(&event.topic) {
                if !self.event_table.contains(&event.id) && event.is_valid_at(now) {
                    interested = true;
                    if self.bo_delay.take().is_some() {
                        out.push(Action::CancelTimer(TimerKind::BackOff));
                    }
                    if self.event_table.insert(event.clone(), now).is_ok()
                        && self.metrics.record_delivery(event.id)
                    {
                        out.push(Action::Deliver(event.clone()));
                    }
                } else {
                    self.metrics.record_duplicate();
                }
            } else {
                // Parasite event: drop it without storing.
                self.metrics.record_parasite();
            }
        }
        if interested {
            self.schedule_backoff_if_needed(now, out);
        }
    }
}

impl DisseminationProtocol for FrugalProtocol {
    fn name(&self) -> &'static str {
        "frugal"
    }

    fn id(&self) -> ProcessId {
        self.id
    }

    fn subscriptions(&self) -> &SubscriptionSet {
        &self.subscriptions
    }

    fn subscribe(&mut self, topic: Topic, _now: SimTime, out: &mut ActionBuf) {
        self.subscriptions.subscribe(topic);
        if !self.heartbeat_running {
            self.heartbeat_running = true;
            let hb = self.heartbeat_message();
            self.broadcast(hb, out);
            out.push(Action::SetTimer {
                kind: TimerKind::Heartbeat,
                after: self.hb_delay,
            });
        }
        if !self.ngc_running {
            self.ngc_running = true;
            out.push(Action::SetTimer {
                kind: TimerKind::NeighborhoodGc,
                after: self.ngc_delay,
            });
        }
    }

    fn unsubscribe(&mut self, topic: &Topic, _now: SimTime, out: &mut ActionBuf) {
        self.subscriptions.unsubscribe(topic);
        if self.subscriptions.is_empty() {
            if self.heartbeat_running {
                self.heartbeat_running = false;
                out.push(Action::CancelTimer(TimerKind::Heartbeat));
            }
            if self.ngc_running {
                self.ngc_running = false;
                out.push(Action::CancelTimer(TimerKind::NeighborhoodGc));
            }
        }
    }

    fn publish(
        &mut self,
        topic: Topic,
        validity: SimDuration,
        payload_bytes: usize,
        now: SimTime,
        out: &mut ActionBuf,
    ) -> EventId {
        let id = EventId::new(self.id, self.next_sequence);
        self.next_sequence += 1;
        let event = Event::new(id, topic.clone(), now, validity, payload_bytes);
        self.metrics.record_publish();

        // Send right away if at least one known neighbor is interested.
        if self.neighborhood.someone_subscribed_to(&topic) {
            let mut events = out.events_vec();
            events.push(event.clone());
            let mut recipients = out.recipients_vec();
            self.neighborhood.ids_into(&mut recipients);
            self.neighborhood.mark_known_by_all(&[id], now);
            let message = Message::Events {
                from: self.id,
                events,
                recipients,
            };
            self.broadcast(message, out);
        }

        // Store the event (evicting per Eq. 1 if full) and deliver it locally
        // when the publisher itself is a subscriber of the topic.
        if self.event_table.insert(event.clone(), now).is_ok()
            && self.subscriptions.matches(&topic)
            && self.metrics.record_delivery(id)
        {
            out.push(Action::Deliver(event));
        }

        if !self.ngc_running {
            self.ngc_running = true;
            out.push(Action::SetTimer {
                kind: TimerKind::NeighborhoodGc,
                after: self.ngc_delay,
            });
        }
        id
    }

    fn handle_message(&mut self, message: &Message, now: SimTime, out: &mut ActionBuf) {
        match message {
            Message::Heartbeat {
                from,
                subscriptions,
                speed,
            } => self.on_heartbeat_received(*from, subscriptions, *speed, now, out),
            Message::EventIds { from, ids } => self.on_event_ids_received(*from, ids, now, out),
            Message::Events {
                from,
                events,
                recipients,
            } => self.on_events_received(*from, events, recipients, now, out),
        }
    }

    fn handle_timer(&mut self, kind: TimerKind, now: SimTime, out: &mut ActionBuf) {
        match kind {
            TimerKind::Heartbeat => {
                if self.heartbeat_running {
                    let hb = self.heartbeat_message();
                    self.broadcast(hb, out);
                    out.push(Action::SetTimer {
                        kind: TimerKind::Heartbeat,
                        after: self.hb_delay,
                    });
                }
            }
            TimerKind::NeighborhoodGc => {
                if self.ngc_running {
                    self.neighborhood.prune_stale(now, self.ngc_delay);
                    // Housekeeping: expired events are of no use to anyone and
                    // can be dropped eagerly (they would never be forwarded).
                    self.event_table.prune_expired(now);
                    out.push(Action::SetTimer {
                        kind: TimerKind::NeighborhoodGc,
                        after: self.ngc_delay,
                    });
                }
            }
            TimerKind::BackOff => self.on_backoff_expired(now, out),
            TimerKind::FloodTick => {}
        }
    }

    fn update_speed(&mut self, speed: Option<f64>) {
        self.current_speed = speed;
    }

    fn metrics(&self) -> &ProtocolMetrics {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::VecActions;

    fn topic(s: &str) -> Topic {
        s.parse().unwrap()
    }

    fn config() -> ProtocolConfig {
        ProtocolConfig::paper_default()
    }

    fn proto(id: u64) -> FrugalProtocol {
        FrugalProtocol::new(ProcessId(id), config())
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// Routes every broadcast in `actions` to each protocol in `receivers`,
    /// returning all actions they produce in turn.
    fn deliver_broadcasts(
        actions: &[Action],
        receivers: &mut [&mut FrugalProtocol],
        now: SimTime,
    ) -> Vec<Action> {
        let mut produced = Vec::new();
        for action in actions {
            if let Action::Broadcast(message) = action {
                for receiver in receivers.iter_mut() {
                    produced.extend(receiver.handle_message_vec(message, now));
                }
            }
        }
        produced
    }

    fn broadcasts(actions: &[Action]) -> Vec<&Message> {
        actions.iter().filter_map(|a| a.as_broadcast()).collect()
    }

    fn deliveries(actions: &[Action]) -> Vec<&Event> {
        actions.iter().filter_map(|a| a.as_delivery()).collect()
    }

    #[test]
    fn subscribe_starts_heartbeat_and_gc_once() {
        let mut p = proto(1);
        let actions = p.subscribe_vec(topic(".T0"), t(0));
        assert!(broadcasts(&actions)
            .iter()
            .any(|m| matches!(m, Message::Heartbeat { .. })));
        let set_timers: Vec<_> = actions
            .iter()
            .filter(|a| matches!(a, Action::SetTimer { .. }))
            .collect();
        assert_eq!(set_timers.len(), 2, "heartbeat + neighborhood GC timers");
        // Subscribing again must not restart the tasks.
        let again = p.subscribe_vec(topic(".T1"), t(1));
        assert!(again.is_empty());
        assert_eq!(p.subscriptions().len(), 2);
    }

    #[test]
    fn unsubscribing_everything_stops_the_tasks() {
        let mut p = proto(1);
        p.subscribe_vec(topic(".T0"), t(0));
        p.subscribe_vec(topic(".T1"), t(0));
        let partial = p.unsubscribe_vec(&topic(".T0"), t(1));
        assert!(
            partial.is_empty(),
            "tasks keep running while subscriptions remain"
        );
        let full = p.unsubscribe_vec(&topic(".T1"), t(2));
        assert!(full.contains(&Action::CancelTimer(TimerKind::Heartbeat)));
        assert!(full.contains(&Action::CancelTimer(TimerKind::NeighborhoodGc)));
    }

    #[test]
    fn heartbeat_timer_rearms_and_rebroadcasts() {
        let mut p = proto(1);
        p.subscribe_vec(topic(".T0"), t(0));
        let actions = p.handle_timer_vec(TimerKind::Heartbeat, t(1));
        assert_eq!(broadcasts(&actions).len(), 1);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer {
                kind: TimerKind::Heartbeat,
                ..
            }
        )));
        // After unsubscribing, a stray timer expiration is a no-op.
        p.unsubscribe_vec(&topic(".T0"), t(2));
        assert!(p.handle_timer_vec(TimerKind::Heartbeat, t(3)).is_empty());
    }

    #[test]
    fn irrelevant_heartbeats_are_not_stored() {
        let mut p = proto(1);
        p.subscribe_vec(topic(".T0"), t(0));
        let unrelated = Message::Heartbeat {
            from: ProcessId(2),
            subscriptions: SubscriptionSet::single(topic(".music")),
            speed: None,
        };
        let actions = p.handle_message_vec(&unrelated, t(1));
        assert!(actions.is_empty());
        assert!(p.neighborhood().is_empty());
    }

    #[test]
    fn new_neighbor_triggers_event_id_exchange() {
        let mut p = proto(1);
        p.subscribe_vec(topic(".T0.T1"), t(0));
        // p already has an event of interest to the newcomer.
        p.publish_vec(topic(".T0.T1"), SimDuration::from_secs(120), 400, t(1));
        let hb = Message::Heartbeat {
            from: ProcessId(2),
            subscriptions: SubscriptionSet::single(topic(".T0")),
            speed: Some(3.0),
        };
        let actions = p.handle_message_vec(&hb, t(2));
        let sent = broadcasts(&actions);
        assert_eq!(sent.len(), 1);
        match sent[0] {
            Message::EventIds { from, ids } => {
                assert_eq!(*from, ProcessId(1));
                assert_eq!(
                    ids.len(),
                    1,
                    "the stored event matches the newcomer's subscription"
                );
            }
            other => panic!("expected an EventIds message, got {other:?}"),
        }
        // A refresh heartbeat from the same neighbor does not re-announce.
        let again = p.handle_message_vec(&hb, t(3));
        assert!(broadcasts(&again).is_empty());
        assert_eq!(p.neighborhood().len(), 1);
    }

    #[test]
    fn event_ids_from_needy_neighbor_arm_a_backoff() {
        let mut p = proto(1);
        p.subscribe_vec(topic(".T0"), t(0));
        p.publish_vec(topic(".T0.T1"), SimDuration::from_secs(120), 400, t(0));
        // Neighbor 2 appears, subscribed to .T0: it needs our event.
        let hb = Message::Heartbeat {
            from: ProcessId(2),
            subscriptions: SubscriptionSet::single(topic(".T0")),
            speed: None,
        };
        p.handle_message_vec(&hb, t(1));
        // It announces an empty event list — it has nothing.
        let ids = Message::EventIds {
            from: ProcessId(2),
            ids: vec![],
        };
        let actions = p.handle_message_vec(&ids, t(1));
        assert!(p.backoff_pending());
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer {
                kind: TimerKind::BackOff,
                ..
            }
        )));
        // When the back-off expires the event is broadcast with the recipients list.
        let fired = p.handle_timer_vec(TimerKind::BackOff, t(2));
        let sent = broadcasts(&fired);
        assert_eq!(sent.len(), 1);
        match sent[0] {
            Message::Events {
                events, recipients, ..
            } => {
                assert_eq!(events.len(), 1);
                assert_eq!(recipients, &vec![ProcessId(2)]);
            }
            other => panic!("expected an Events message, got {other:?}"),
        }
        assert!(!p.backoff_pending());
        assert_eq!(
            p.metrics().events_sent,
            1,
            "the forwarded copy is the only event on the air"
        );
        // The neighbor is now known to hold the event: no further back-off.
        let again = p.handle_message_vec(&ids, t(3));
        assert!(again.is_empty());
        assert!(!p.backoff_pending());
    }

    #[test]
    fn neighbor_already_holding_the_event_is_not_served() {
        let mut p = proto(1);
        p.subscribe_vec(topic(".T0"), t(0));
        let (event_id, _) = p.publish_vec(topic(".T0.T1"), SimDuration::from_secs(120), 400, t(0));
        let hb = Message::Heartbeat {
            from: ProcessId(2),
            subscriptions: SubscriptionSet::single(topic(".T0")),
            speed: None,
        };
        p.handle_message_vec(&hb, t(1));
        let ids = Message::EventIds {
            from: ProcessId(2),
            ids: vec![event_id],
        };
        p.handle_message_vec(&ids, t(1));
        assert!(
            !p.backoff_pending(),
            "nothing to send: the neighbor has the event already"
        );
    }

    #[test]
    fn receiving_a_subscribed_event_delivers_and_stores_it() {
        let mut p = proto(1);
        p.subscribe_vec(topic(".T0"), t(0));
        let event = Event::new(
            EventId::new(ProcessId(9), 0),
            topic(".T0.T1"),
            t(0),
            SimDuration::from_secs(60),
            400,
        );
        let msg = Message::Events {
            from: ProcessId(9),
            events: vec![event.clone()],
            recipients: vec![ProcessId(1)],
        };
        let actions = p.handle_message_vec(&msg, t(1));
        assert_eq!(deliveries(&actions), vec![&event]);
        assert!(p.event_table().contains(&event.id));
        assert!(p.has_delivered(&event.id));
        assert_eq!(p.metrics().events_delivered, 1);
        // A second copy is dropped as a duplicate and not redelivered.
        let again = p.handle_message_vec(&msg, t(2));
        assert!(deliveries(&again).is_empty());
        assert_eq!(p.metrics().duplicates_received, 1);
    }

    #[test]
    fn parasite_events_are_dropped_without_storing() {
        let mut p = proto(1);
        p.subscribe_vec(topic(".T0.T1"), t(0));
        let parasite = Event::new(
            EventId::new(ProcessId(9), 0),
            topic(".weather"),
            t(0),
            SimDuration::from_secs(60),
            400,
        );
        let msg = Message::Events {
            from: ProcessId(9),
            events: vec![parasite.clone()],
            recipients: vec![],
        };
        let actions = p.handle_message_vec(&msg, t(1));
        assert!(deliveries(&actions).is_empty());
        assert!(!p.event_table().contains(&parasite.id));
        assert_eq!(p.metrics().parasites_received, 1);
        assert_eq!(p.metrics().events_delivered, 0);
    }

    #[test]
    fn expired_events_are_not_delivered() {
        let mut p = proto(1);
        p.subscribe_vec(topic(".T0"), t(0));
        let stale = Event::new(
            EventId::new(ProcessId(9), 0),
            topic(".T0"),
            t(0),
            SimDuration::from_secs(10),
            400,
        );
        let msg = Message::Events {
            from: ProcessId(9),
            events: vec![stale],
            recipients: vec![],
        };
        let actions = p.handle_message_vec(&msg, t(60));
        assert!(deliveries(&actions).is_empty());
        assert_eq!(p.metrics().events_delivered, 0);
    }

    #[test]
    fn overhearing_a_bundle_cancels_a_pending_backoff() {
        let mut p = proto(1);
        p.subscribe_vec(topic(".T0"), t(0));
        p.publish_vec(topic(".T0.a"), SimDuration::from_secs(300), 400, t(0));
        // Neighbor 2 needs our event: back-off armed.
        let hb = Message::Heartbeat {
            from: ProcessId(2),
            subscriptions: SubscriptionSet::single(topic(".T0")),
            speed: None,
        };
        p.handle_message_vec(&hb, t(1));
        p.handle_message_vec(
            &Message::EventIds {
                from: ProcessId(2),
                ids: vec![],
            },
            t(1),
        );
        assert!(p.backoff_pending());
        // Someone else sends us a *new* event we are interested in: the paper
        // stops the back-off timer and recomputes.
        let other_event = Event::new(
            EventId::new(ProcessId(3), 0),
            topic(".T0.b"),
            t(1),
            SimDuration::from_secs(300),
            400,
        );
        let msg = Message::Events {
            from: ProcessId(3),
            events: vec![other_event],
            recipients: vec![ProcessId(1), ProcessId(2)],
        };
        let actions = p.handle_message_vec(&msg, t(2));
        assert!(actions.contains(&Action::CancelTimer(TimerKind::BackOff)));
        // The back-off is re-armed because neighbor 2 still misses our original event.
        assert!(p.backoff_pending());
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer {
                kind: TimerKind::BackOff,
                ..
            }
        )));
    }

    #[test]
    fn publish_broadcasts_immediately_when_a_neighbor_is_interested() {
        let mut p = proto(1);
        p.subscribe_vec(topic(".T0"), t(0));
        let hb = Message::Heartbeat {
            from: ProcessId(2),
            subscriptions: SubscriptionSet::single(topic(".T0")),
            speed: None,
        };
        p.handle_message_vec(&hb, t(1));
        let (id, actions) = p.publish_vec(topic(".T0.news"), SimDuration::from_secs(60), 400, t(2));
        let sent = broadcasts(&actions);
        assert_eq!(sent.len(), 1);
        assert!(matches!(sent[0], Message::Events { .. }));
        assert!(p.neighborhood().neighbor_knows(ProcessId(2), &id));
        // The publisher also delivers to itself since it subscribes to an ancestor topic.
        assert!(p.has_delivered(&id));
    }

    #[test]
    fn publish_without_interested_neighbors_stays_silent() {
        let mut p = proto(1);
        p.subscribe_vec(topic(".T0"), t(0));
        let (_, actions) = p.publish_vec(topic(".T0.news"), SimDuration::from_secs(60), 400, t(1));
        assert!(
            broadcasts(&actions).is_empty(),
            "no neighbor, nothing on the air"
        );
        assert_eq!(p.metrics().events_published, 1);
    }

    #[test]
    fn pure_publisher_serves_subscribers_without_subscribing() {
        // The car-park scenario: the publisher subscribes to nothing but must
        // still learn about interested neighbors and hand its event over.
        let mut publisher = proto(1);
        let mut subscriber = proto(2);
        let sub_actions = subscriber.subscribe_vec(topic(".parking"), t(0));
        let (event_id, _) = publisher.publish_vec(
            topic(".parking.lot42"),
            SimDuration::from_secs(300),
            400,
            t(0),
        );
        // Subscriber's initial heartbeat reaches the publisher.
        deliver_broadcasts(&sub_actions, &mut [&mut publisher], t(1));
        assert_eq!(
            publisher.neighborhood().len(),
            1,
            "publisher tracks the interested neighbor"
        );
        // Subscriber announces (empty) event ids via its own new-neighbor path:
        // simulate the publisher's heartbeat reaching the subscriber first.
        let pub_hb = Message::Heartbeat {
            from: ProcessId(1),
            subscriptions: SubscriptionSet::new(),
            speed: None,
        };
        let sub_reaction = subscriber.handle_message_vec(&pub_hb, t(1));
        // Subscriber does not track a neighbor with no overlapping interest and
        // no events — but the publisher *does* need the subscriber's ids to know
        // it misses the event; they arrive via the subscriber's own id announce
        // when it discovers any relevant neighbor. Simulate it directly:
        let _ = sub_reaction;
        let ids_msg = Message::EventIds {
            from: ProcessId(2),
            ids: vec![],
        };
        let actions = publisher.handle_message_vec(&ids_msg, t(2));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer {
                kind: TimerKind::BackOff,
                ..
            }
        )));
        let fired = publisher.handle_timer_vec(TimerKind::BackOff, t(3));
        let produced = deliver_broadcasts(&fired, &mut [&mut subscriber], t(3));
        assert!(subscriber.has_delivered(&event_id));
        assert!(!produced.is_empty() || subscriber.metrics().events_delivered == 1);
    }

    #[test]
    fn paper_illustration_three_processes() {
        // Figure 1 of the paper: p1 subscribes to T0.T1 and holds e3 (topic T0.T1),
        // p2 subscribes to T0.T1.T2 and holds e4, e5 (topic T0.T1.T2),
        // p3 subscribes to T0 and holds nothing.
        let mut p1 = proto(1);
        let mut p2 = proto(2);
        let mut p3 = proto(3);
        p1.subscribe_vec(topic(".T0.T1"), t(0));
        p2.subscribe_vec(topic(".T0.T1.T2"), t(0));
        let (e3, _) = p1.publish_vec(topic(".T0.T1"), SimDuration::from_secs(600), 400, t(0));
        let (e4, _) = p2.publish_vec(topic(".T0.T1.T2"), SimDuration::from_secs(600), 400, t(0));
        let (e5, _) = p2.publish_vec(topic(".T0.T1.T2"), SimDuration::from_secs(600), 400, t(0));

        // Part I: p1 and p2 become neighbors (exchange heartbeats, then ids).
        let hb1 = p1.handle_timer_vec(TimerKind::Heartbeat, t(1));
        let hb2 = p2.handle_timer_vec(TimerKind::Heartbeat, t(1));
        let p2_ids = deliver_broadcasts(&hb1, &mut [&mut p2], t(1));
        let p1_ids = deliver_broadcasts(&hb2, &mut [&mut p1], t(1));
        deliver_broadcasts(&p2_ids, &mut [&mut p1], t(1));
        deliver_broadcasts(&p1_ids, &mut [&mut p2], t(1));
        // p2 has events p1 needs (T1 covers T2); p1's event is of no interest to p2.
        assert!(
            p2.backoff_pending(),
            "p2 must schedule sending e4, e5 to p1"
        );
        assert!(!p1.backoff_pending(), "p1 has nothing p2 wants");
        let p2_send = p2.handle_timer_vec(TimerKind::BackOff, t(2));
        deliver_broadcasts(&p2_send, &mut [&mut p1], t(2));
        assert!(p1.has_delivered(&e4) && p1.has_delivered(&e5));
        assert!(!p2.has_delivered(&e3));

        // Part II: p3 joins; everyone hears everyone.
        let hb3 = p3.subscribe_vec(topic(".T0"), t(3));
        let reactions = deliver_broadcasts(&hb3, &mut [&mut p1, &mut p2], t(3));
        // p1/p2 answer with their event-id lists; p3 hears them, and so do p1/p2.
        deliver_broadcasts(&reactions, &mut [&mut p1, &mut p2, &mut p3], t(3));
        // p3 announces its own (empty) id list when its heartbeat timer fires and
        // the others' heartbeats arrive; emulate by exchanging heartbeats again.
        let hb1 = p1.handle_timer_vec(TimerKind::Heartbeat, t(3));
        let hb2 = p2.handle_timer_vec(TimerKind::Heartbeat, t(3));
        let p3_reaction = deliver_broadcasts(&[hb1, hb2].concat(), &mut [&mut p3], t(3));
        deliver_broadcasts(&p3_reaction, &mut [&mut p1, &mut p2], t(3));
        assert!(
            p1.backoff_pending() || p2.backoff_pending(),
            "someone must serve p3"
        );
        // Both may have armed back-offs; p1 has 3 events to send, p2 has 2, so
        // p1's delay is shorter (checked in the delays module). Fire p1 first.
        let p1_send = p1.handle_timer_vec(TimerKind::BackOff, t(4));
        deliver_broadcasts(&p1_send, &mut [&mut p2, &mut p3], t(4));
        assert!(p3.has_delivered(&e3) && p3.has_delivered(&e4) && p3.has_delivered(&e5));

        // Part III: p2 overheard p1's bundle, so it knows p3 got everything and
        // sends nothing when its own back-off fires.
        let p2_send = p2.handle_timer_vec(TimerKind::BackOff, t(5));
        assert!(
            broadcasts(&p2_send).is_empty(),
            "p2 must not retransmit what p1 already delivered to p3"
        );
        assert_eq!(p3.metrics().duplicates_received, 0);
    }

    #[test]
    fn backoff_jitter_separates_processes_with_identical_state() {
        // Two processes in exactly the same situation (one event to offer to a
        // needy neighbor) must not pick exactly the same back-off, otherwise
        // neither can suppress the other's retransmission.
        let armed_delay = |id: u64| {
            let mut p = proto(id);
            p.subscribe_vec(topic(".T0"), t(0));
            p.publish_vec(topic(".T0.x"), SimDuration::from_secs(600), 400, t(0));
            p.handle_message_vec(
                &Message::Heartbeat {
                    from: ProcessId(99),
                    subscriptions: SubscriptionSet::single(topic(".T0")),
                    speed: None,
                },
                t(1),
            );
            let actions = p.handle_message_vec(
                &Message::EventIds {
                    from: ProcessId(99),
                    ids: vec![],
                },
                t(1),
            );
            actions
                .iter()
                .find_map(|a| match a {
                    Action::SetTimer {
                        kind: TimerKind::BackOff,
                        after,
                    } => Some(*after),
                    _ => None,
                })
                .expect("a back-off must be armed")
        };
        let delays: std::collections::HashSet<_> = (0..8).map(armed_delay).collect();
        assert!(
            delays.len() > 1,
            "per-process jitter must spread identical back-offs"
        );
        // And every jittered delay stays within [base, 2*base) of the paper's formula.
        let base = SimDuration::from_millis(500);
        for delay in delays {
            assert!(delay >= base && delay < base * 2);
        }
    }

    #[test]
    fn backoff_delay_favours_the_better_stocked_process() {
        // p1 has 3 events to offer, p2 only 2: p1's back-off must be shorter.
        // Jitter is disabled so the comparison isolates the paper's formula.
        let make = |id: u64, events: u64| {
            let mut cfg = config();
            cfg.bo_jitter_fraction = 0.0;
            let mut p = FrugalProtocol::new(ProcessId(id), cfg);
            p.subscribe_vec(topic(".T0"), t(0));
            for _ in 0..events {
                p.publish_vec(topic(".T0.x"), SimDuration::from_secs(600), 400, t(0));
            }
            // A needy neighbor appears and announces it has nothing.
            p.handle_message_vec(
                &Message::Heartbeat {
                    from: ProcessId(99),
                    subscriptions: SubscriptionSet::single(topic(".T0")),
                    speed: None,
                },
                t(1),
            );
            let actions = p.handle_message_vec(
                &Message::EventIds {
                    from: ProcessId(99),
                    ids: vec![],
                },
                t(1),
            );
            actions
                .iter()
                .find_map(|a| match a {
                    Action::SetTimer {
                        kind: TimerKind::BackOff,
                        after,
                    } => Some(*after),
                    _ => None,
                })
                .expect("a back-off must be armed")
        };
        let rich = make(1, 3);
        let poor = make(2, 2);
        assert!(
            rich < poor,
            "more events to send => shorter back-off ({rich} vs {poor})"
        );
    }

    #[test]
    fn neighborhood_gc_timer_evicts_stale_neighbors() {
        let mut p = proto(1);
        p.subscribe_vec(topic(".T0"), t(0));
        p.handle_message_vec(
            &Message::Heartbeat {
                from: ProcessId(2),
                subscriptions: SubscriptionSet::single(topic(".T0")),
                speed: None,
            },
            t(0),
        );
        assert_eq!(p.neighborhood().len(), 1);
        // Long after the NGC delay, the GC timer fires and evicts the silent neighbor.
        let actions = p.handle_timer_vec(TimerKind::NeighborhoodGc, t(60));
        assert!(p.neighborhood().is_empty());
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer {
                kind: TimerKind::NeighborhoodGc,
                ..
            }
        )));
    }

    #[test]
    fn speed_adapts_heartbeat_delay_from_neighbor_reports() {
        let mut cfg = config();
        cfg.hb_upper_bound = SimDuration::from_secs(60);
        let mut p = FrugalProtocol::new(ProcessId(1), cfg);
        p.subscribe_vec(topic(".T0"), t(0));
        let before = p.heartbeat_delay();
        p.handle_message_vec(
            &Message::Heartbeat {
                from: ProcessId(2),
                subscriptions: SubscriptionSet::single(topic(".T0")),
                speed: Some(10.0),
            },
            t(1),
        );
        // x = 40, average speed 10 => 4 s.
        assert_eq!(p.heartbeat_delay(), SimDuration::from_secs(4));
        assert_ne!(p.heartbeat_delay(), before);
        assert_eq!(p.neighborhood_gc_delay(), SimDuration::from_secs(10));
    }

    #[test]
    fn update_speed_is_advertised_in_heartbeats() {
        let mut p = proto(1);
        p.subscribe_vec(topic(".T0"), t(0));
        p.update_speed(Some(12.5));
        let actions = p.handle_timer_vec(TimerKind::Heartbeat, t(1));
        match broadcasts(&actions)[0] {
            Message::Heartbeat { speed, .. } => assert_eq!(*speed, Some(12.5)),
            other => panic!("expected a heartbeat, got {other:?}"),
        }
    }

    #[test]
    fn event_table_capacity_is_respected_under_load() {
        let mut cfg = config();
        cfg.event_table_capacity = 4;
        let mut p = FrugalProtocol::new(ProcessId(1), cfg);
        p.subscribe_vec(topic(".T0"), t(0));
        for seq in 0..20u64 {
            let event = Event::new(
                EventId::new(ProcessId(9), seq),
                topic(".T0.x"),
                t(seq),
                SimDuration::from_secs(300),
                400,
            );
            p.handle_message_vec(
                &Message::Events {
                    from: ProcessId(9),
                    events: vec![event],
                    recipients: vec![],
                },
                t(seq),
            );
            assert!(p.event_table().len() <= 4);
        }
        assert_eq!(
            p.metrics().events_delivered,
            20,
            "evictions never block deliveries"
        );
    }

    #[test]
    #[should_panic]
    fn invalid_configuration_is_rejected() {
        let mut cfg = config();
        cfg.event_table_capacity = 0;
        let _ = FrugalProtocol::new(ProcessId(1), cfg);
    }
}
