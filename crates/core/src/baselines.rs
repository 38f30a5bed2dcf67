//! The three flooding baselines of the paper's frugality evaluation
//! (Section 5.2):
//!
//! 1. **Simple flooding** — every second, a process rebroadcasts every event it
//!    holds, irrespective of anyone's interests; received events are stored and
//!    re-flooded even when the process is not subscribed to their topic.
//! 2. **Interests-aware flooding** — every second, a process rebroadcasts only
//!    the events *it* is interested in; parasite events are dropped.
//! 3. **Neighbors'-interests flooding** — like (2), but an event is only
//!    rebroadcast if at least one current neighbor (learned through heartbeats)
//!    is subscribed to its topic.
//!
//! All three share one implementation, [`FloodingProtocol`], parameterised by
//! [`FloodingPolicy`]. They expose the same [`DisseminationProtocol`] interface
//! as the frugal protocol so the experiments drive all four identically.

use crate::api::{Action, ActionBuf, DisseminationProtocol, TimerKind};
use crate::messages::Message;
use crate::metrics::ProtocolMetrics;
use crate::neighborhood::NeighborhoodTable;
use pubsub::{Event, EventId, ProcessId, SubscriptionSet, Topic};
use simkit::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Which flooding variant a [`FloodingProtocol`] implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FloodingPolicy {
    /// Rebroadcast everything, store everything.
    Simple,
    /// Rebroadcast and store only events the process itself subscribed to.
    InterestAware,
    /// Rebroadcast only events the process subscribed to *and* that at least
    /// one known neighbor subscribed to.
    NeighborInterest,
}

impl FloodingPolicy {
    /// A short, stable name used in experiment reports.
    pub fn name(self) -> &'static str {
        match self {
            FloodingPolicy::Simple => "simple-flooding",
            FloodingPolicy::InterestAware => "interests-aware-flooding",
            FloodingPolicy::NeighborInterest => "neighbors-interests-flooding",
        }
    }
}

/// A flooding-based dissemination protocol (the paper's comparison baselines).
#[derive(Debug)]
pub struct FloodingProtocol {
    id: ProcessId,
    policy: FloodingPolicy,
    /// Period of the flooding retransmission timer; the paper uses one second.
    flood_interval: SimDuration,
    subscriptions: SubscriptionSet,
    /// Only used by the neighbors'-interests variant.
    neighborhood: NeighborhoodTable,
    /// Events held for re-flooding (own publications plus stored receptions).
    store: BTreeMap<EventId, Event>,
    flood_running: bool,
    heartbeat_running: bool,
    next_sequence: u64,
    metrics: ProtocolMetrics,
}

impl FloodingProtocol {
    /// The flooding period used in the paper's comparison: one second.
    const PAPER_FLOOD_INTERVAL: SimDuration = SimDuration::from_secs(1);

    /// Creates a flooding protocol instance for process `id`.
    pub fn new(id: ProcessId, policy: FloodingPolicy) -> Self {
        FloodingProtocol {
            id,
            policy,
            flood_interval: Self::PAPER_FLOOD_INTERVAL,
            subscriptions: SubscriptionSet::new(),
            neighborhood: NeighborhoodTable::new(),
            store: BTreeMap::new(),
            flood_running: false,
            heartbeat_running: false,
            next_sequence: 0,
            metrics: ProtocolMetrics::new(),
        }
    }

    /// The flooding variant implemented by this instance.
    pub fn policy(&self) -> FloodingPolicy {
        self.policy
    }

    /// Events held for re-flooding, probed by `interest_aware_flooding_drops_parasites`.
    #[cfg(test)]
    fn stored_events(&self) -> usize {
        self.store.len()
    }

    fn broadcast(&mut self, message: Message, out: &mut ActionBuf) {
        self.metrics.record_send(message.event_count() as u64);
        out.push(Action::Broadcast(message));
    }

    fn ensure_flood_timer(&mut self, out: &mut ActionBuf) {
        if !self.flood_running {
            self.flood_running = true;
            out.push(Action::SetTimer {
                kind: TimerKind::FloodTick,
                after: self.flood_interval,
            });
        }
    }

    fn ensure_heartbeat_timer(&mut self, out: &mut ActionBuf) {
        if self.policy == FloodingPolicy::NeighborInterest && !self.heartbeat_running {
            self.heartbeat_running = true;
            let hb = Message::Heartbeat {
                from: self.id,
                subscriptions: self.subscriptions.clone(),
                speed: None,
            };
            self.broadcast(hb, out);
            out.push(Action::SetTimer {
                kind: TimerKind::Heartbeat,
                after: self.flood_interval,
            });
        }
    }

    /// Appends the events this instance would flood right now, according to
    /// its policy, to `events`.
    fn events_to_flood_into(&self, now: SimTime, events: &mut Vec<Event>) {
        events.extend(
            self.store
                .values()
                .filter(|e| e.is_valid_at(now))
                .filter(|e| match self.policy {
                    FloodingPolicy::Simple => true,
                    FloodingPolicy::InterestAware => {
                        self.subscriptions.matches(&e.topic) || e.id.publisher == self.id
                    }
                    FloodingPolicy::NeighborInterest => {
                        (self.subscriptions.matches(&e.topic) || e.id.publisher == self.id)
                            && self.neighborhood.someone_subscribed_to(&e.topic)
                    }
                })
                .cloned(),
        );
    }

    fn on_flood_tick(&mut self, now: SimTime, out: &mut ActionBuf) {
        if !self.flood_running {
            return;
        }
        // Expired events are of no use and are dropped from the store.
        self.store.retain(|_, e| e.is_valid_at(now));
        // The neighbors'-interests variant forgets neighbors that went silent.
        if self.policy == FloodingPolicy::NeighborInterest {
            self.neighborhood
                .prune_stale(now, self.flood_interval.mul_f64(2.5));
        }
        let mut events = out.events_vec();
        self.events_to_flood_into(now, &mut events);
        if events.is_empty() {
            out.recycle_events(events);
        } else {
            let message = Message::Events {
                from: self.id,
                events,
                recipients: out.recipients_vec(),
            };
            self.broadcast(message, out);
        }
        out.push(Action::SetTimer {
            kind: TimerKind::FloodTick,
            after: self.flood_interval,
        });
    }

    fn on_events_received(&mut self, events: &[Event], now: SimTime, out: &mut ActionBuf) {
        for event in events {
            if !event.is_valid_at(now) {
                continue;
            }
            let subscribed = self.subscriptions.matches(&event.topic);
            if subscribed {
                if self.store.contains_key(&event.id) || self.metrics.has_delivered(&event.id) {
                    self.metrics.record_duplicate();
                } else {
                    self.store.insert(event.id, event.clone());
                    if self.metrics.record_delivery(event.id) {
                        out.push(Action::Deliver(event.clone()));
                    }
                    self.ensure_flood_timer(out);
                }
            } else {
                self.metrics.record_parasite();
                // Simple flooding forwards parasite events too — that is
                // precisely the waste the paper quantifies.
                if self.policy == FloodingPolicy::Simple && !self.store.contains_key(&event.id) {
                    self.store.insert(event.id, event.clone());
                    self.ensure_flood_timer(out);
                }
            }
        }
    }
}

impl DisseminationProtocol for FloodingProtocol {
    fn name(&self) -> &'static str {
        self.policy.name()
    }

    fn id(&self) -> ProcessId {
        self.id
    }

    fn subscriptions(&self) -> &SubscriptionSet {
        &self.subscriptions
    }

    fn subscribe(&mut self, topic: Topic, _now: SimTime, out: &mut ActionBuf) {
        self.subscriptions.subscribe(topic);
        self.ensure_flood_timer(out);
        self.ensure_heartbeat_timer(out);
    }

    fn unsubscribe(&mut self, topic: &Topic, _now: SimTime, _out: &mut ActionBuf) {
        self.subscriptions.unsubscribe(topic);
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
        self.store.insert(id, event.clone());
        // The publisher pushes the first copy out immediately; the flood timer
        // takes over afterwards.
        let mut events = out.events_vec();
        events.push(event.clone());
        let message = Message::Events {
            from: self.id,
            events,
            recipients: out.recipients_vec(),
        };
        self.broadcast(message, out);
        if self.subscriptions.matches(&topic) && self.metrics.record_delivery(id) {
            out.push(Action::Deliver(event));
        }
        self.ensure_flood_timer(out);
        self.ensure_heartbeat_timer(out);
        id
    }

    fn handle_message(&mut self, message: &Message, now: SimTime, out: &mut ActionBuf) {
        match message {
            Message::Heartbeat {
                from,
                subscriptions,
                speed,
            } => {
                if self.policy == FloodingPolicy::NeighborInterest && *from != self.id {
                    self.neighborhood
                        .upsert(*from, subscriptions.clone(), *speed, now);
                }
            }
            Message::EventIds { .. } => {}
            Message::Events { events, .. } => self.on_events_received(events, now, out),
        }
    }

    fn handle_timer(&mut self, kind: TimerKind, now: SimTime, out: &mut ActionBuf) {
        match kind {
            TimerKind::FloodTick => self.on_flood_tick(now, out),
            TimerKind::Heartbeat => {
                if self.heartbeat_running {
                    let hb = Message::Heartbeat {
                        from: self.id,
                        subscriptions: self.subscriptions.clone(),
                        speed: None,
                    };
                    self.broadcast(hb, out);
                    out.push(Action::SetTimer {
                        kind: TimerKind::Heartbeat,
                        after: self.flood_interval,
                    });
                }
            }
            TimerKind::NeighborhoodGc | TimerKind::BackOff => {}
        }
    }

    fn update_speed(&mut self, _speed: Option<f64>) {}

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

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn proto(id: u64, policy: FloodingPolicy) -> FloodingProtocol {
        FloodingProtocol::new(ProcessId(id), policy)
    }

    fn incoming(seq: u64, topic_str: &str) -> Message {
        Message::Events {
            from: ProcessId(50),
            events: vec![Event::new(
                EventId::new(ProcessId(50), seq),
                topic(topic_str),
                SimTime::ZERO,
                SimDuration::from_secs(300),
                400,
            )],
            recipients: vec![],
        }
    }

    fn broadcast_events(actions: &[Action]) -> usize {
        actions
            .iter()
            .filter_map(|a| a.as_broadcast())
            .map(|m| m.event_count())
            .sum()
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(FloodingPolicy::Simple.name(), "simple-flooding");
        assert_eq!(
            FloodingPolicy::InterestAware.name(),
            "interests-aware-flooding"
        );
        assert_eq!(
            FloodingPolicy::NeighborInterest.name(),
            "neighbors-interests-flooding"
        );
        assert_eq!(proto(1, FloodingPolicy::Simple).name(), "simple-flooding");
    }

    #[test]
    fn publish_sends_immediately_and_arms_the_flood_timer() {
        let mut p = proto(1, FloodingPolicy::Simple);
        let (_, actions) = p.publish_vec(topic(".T0"), SimDuration::from_secs(60), 400, t(0));
        assert_eq!(broadcast_events(&actions), 1);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer {
                kind: TimerKind::FloodTick,
                ..
            }
        )));
        assert_eq!(p.stored_events(), 1);
        assert_eq!(p.metrics().events_published, 1);
    }

    #[test]
    fn flood_tick_rebroadcasts_until_validity_expires() {
        let mut p = proto(1, FloodingPolicy::Simple);
        p.publish_vec(topic(".T0"), SimDuration::from_secs(10), 400, t(0));
        // During the validity period the event goes out every tick.
        let actions = p.handle_timer_vec(TimerKind::FloodTick, t(1));
        assert_eq!(broadcast_events(&actions), 1);
        let actions = p.handle_timer_vec(TimerKind::FloodTick, t(5));
        assert_eq!(broadcast_events(&actions), 1);
        // After expiry nothing is sent and the store is purged.
        let actions = p.handle_timer_vec(TimerKind::FloodTick, t(30));
        assert_eq!(broadcast_events(&actions), 0);
        assert_eq!(p.stored_events(), 0);
        // The timer keeps re-arming in all cases (the node may receive more events).
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer {
                kind: TimerKind::FloodTick,
                ..
            }
        )));
    }

    #[test]
    fn simple_flooding_forwards_parasite_events() {
        let mut p = proto(1, FloodingPolicy::Simple);
        p.subscribe_vec(topic(".mine"), t(0));
        let actions = p.handle_message_vec(&incoming(0, ".other"), t(1));
        // Not delivered (parasite) but stored for re-flooding.
        assert!(actions.iter().all(|a| a.as_delivery().is_none()));
        assert_eq!(p.metrics().parasites_received, 1);
        assert_eq!(p.stored_events(), 1);
        let tick = p.handle_timer_vec(TimerKind::FloodTick, t(2));
        assert_eq!(
            broadcast_events(&tick),
            1,
            "simple flooding relays parasites"
        );
    }

    #[test]
    fn interest_aware_flooding_drops_parasites() {
        let mut p = proto(1, FloodingPolicy::InterestAware);
        p.subscribe_vec(topic(".mine"), t(0));
        p.handle_message_vec(&incoming(0, ".other"), t(1));
        assert_eq!(p.metrics().parasites_received, 1);
        assert_eq!(p.stored_events(), 0, "parasites are not stored");
        let tick = p.handle_timer_vec(TimerKind::FloodTick, t(2));
        assert_eq!(broadcast_events(&tick), 0);
        // Interesting events are stored, delivered and re-flooded.
        let actions = p.handle_message_vec(&incoming(1, ".mine.news"), t(3));
        assert!(actions.iter().any(|a| a.as_delivery().is_some()));
        let tick = p.handle_timer_vec(TimerKind::FloodTick, t(4));
        assert_eq!(broadcast_events(&tick), 1);
    }

    #[test]
    fn neighbor_interest_flooding_needs_an_interested_neighbor() {
        let mut p = proto(1, FloodingPolicy::NeighborInterest);
        let sub_actions = p.subscribe_vec(topic(".mine"), t(0));
        // The variant sends heartbeats to learn neighbor interests.
        assert!(sub_actions
            .iter()
            .filter_map(|a| a.as_broadcast())
            .any(|m| matches!(m, Message::Heartbeat { .. })));
        p.handle_message_vec(&incoming(0, ".mine.news"), t(1));
        // No known neighbor interested yet: nothing is flooded.
        let tick = p.handle_timer_vec(TimerKind::FloodTick, t(2));
        assert_eq!(broadcast_events(&tick), 0);
        // A neighbor subscribed to .mine appears.
        p.handle_message_vec(
            &Message::Heartbeat {
                from: ProcessId(2),
                subscriptions: SubscriptionSet::single(topic(".mine")),
                speed: None,
            },
            t(3),
        );
        let tick = p.handle_timer_vec(TimerKind::FloodTick, t(3));
        assert_eq!(broadcast_events(&tick), 1);
        // If the neighbor goes silent long enough it is forgotten again.
        let tick = p.handle_timer_vec(TimerKind::FloodTick, t(30));
        assert_eq!(broadcast_events(&tick), 0);
    }

    #[test]
    fn duplicates_are_counted_not_redelivered() {
        let mut p = proto(1, FloodingPolicy::Simple);
        p.subscribe_vec(topic(".a"), t(0));
        let first = p.handle_message_vec(&incoming(0, ".a.x"), t(1));
        assert!(first.iter().any(|a| a.as_delivery().is_some()));
        for _ in 0..5 {
            let again = p.handle_message_vec(&incoming(0, ".a.x"), t(2));
            assert!(again.iter().all(|a| a.as_delivery().is_none()));
        }
        assert_eq!(p.metrics().events_delivered, 1);
        assert_eq!(p.metrics().duplicates_received, 5);
    }

    #[test]
    fn expired_incoming_events_are_ignored() {
        let mut p = proto(1, FloodingPolicy::Simple);
        p.subscribe_vec(topic(".a"), t(0));
        let stale = Message::Events {
            from: ProcessId(5),
            events: vec![Event::new(
                EventId::new(ProcessId(5), 0),
                topic(".a"),
                SimTime::ZERO,
                SimDuration::from_secs(1),
                400,
            )],
            recipients: vec![],
        };
        let actions = p.handle_message_vec(&stale, t(100));
        assert!(actions.is_empty());
        assert_eq!(p.stored_events(), 0);
    }

    #[test]
    fn heartbeat_timer_only_matters_for_neighbor_interest() {
        let mut p = proto(1, FloodingPolicy::NeighborInterest);
        p.subscribe_vec(topic(".a"), t(0));
        let hb = p.handle_timer_vec(TimerKind::Heartbeat, t(1));
        assert_eq!(hb.iter().filter_map(|a| a.as_broadcast()).count(), 1);

        let mut simple = proto(2, FloodingPolicy::Simple);
        simple.subscribe_vec(topic(".a"), t(0));
        assert!(simple
            .handle_timer_vec(TimerKind::Heartbeat, t(1))
            .is_empty());
        // Frugal-specific timers are ignored by every flooding variant.
        assert!(simple.handle_timer_vec(TimerKind::BackOff, t(1)).is_empty());
        assert!(simple
            .handle_timer_vec(TimerKind::NeighborhoodGc, t(1))
            .is_empty());
    }

    #[test]
    fn own_publication_is_flooded_even_without_subscription() {
        // A pure publisher (not subscribed to its own topic) must still announce
        // its event under every policy.
        for policy in [
            FloodingPolicy::Simple,
            FloodingPolicy::InterestAware,
            FloodingPolicy::NeighborInterest,
        ] {
            let mut p = proto(1, policy);
            p.publish_vec(topic(".parking"), SimDuration::from_secs(60), 400, t(0));
            if policy == FloodingPolicy::NeighborInterest {
                p.handle_message_vec(
                    &Message::Heartbeat {
                        from: ProcessId(2),
                        subscriptions: SubscriptionSet::single(topic(".parking")),
                        speed: None,
                    },
                    t(0),
                );
            }
            let tick = p.handle_timer_vec(TimerKind::FloodTick, t(1));
            assert_eq!(
                broadcast_events(&tick),
                1,
                "policy {policy:?} must flood its own event"
            );
        }
    }

    #[test]
    fn subscriptions_accessor_reflects_changes() {
        let mut p = proto(1, FloodingPolicy::InterestAware);
        p.subscribe_vec(topic(".a"), t(0));
        assert_eq!(p.subscriptions().len(), 1);
        p.unsubscribe_vec(&topic(".a"), t(1));
        assert!(p.subscriptions().is_empty());
        assert_eq!(p.id(), ProcessId(1));
        assert_eq!(p.policy(), FloodingPolicy::InterestAware);
    }
}
