//! The simulator-facing protocol interface.
//!
//! Dissemination protocols are written as **pure state machines**: they never
//! touch a clock, a socket or a scheduler themselves. Instead every input
//! (application call, received message, expired timer) appends the
//! [`Action`]s it requests to a caller-provided [`ActionBuf`]; the embedding
//! environment — the discrete-event simulator, an example binary, or a real
//! MAC — drains the buffer and carries the actions out. This keeps the
//! paper's algorithm and the three flooding baselines testable in isolation,
//! guarantees that all of them are driven through exactly the same interface
//! in the experiments, and (because the buffer and the vectors inside its
//! messages are recycled) makes the steady-state callback path allocation
//! free. The original `-> Vec<Action>` signatures survive as the
//! [`VecActions`] adapter.

use crate::messages::Message;
use crate::metrics::ProtocolMetrics;
use pubsub::{Event, EventId, ProcessId, SubscriptionSet, Topic};
use simkit::{SimDuration, SimTime};
use std::fmt::Debug;

/// The timers a protocol may arm. Each kind has at most one pending instance
/// per process: arming it again re-schedules it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TimerKind {
    /// Periodic heartbeat emission (neighborhood detection).
    Heartbeat,
    /// Periodic garbage collection of the neighborhood table.
    NeighborhoodGc,
    /// The dissemination back-off before sending pending events.
    BackOff,
    /// The fixed-period retransmission timer of the flooding baselines.
    FloodTick,
}

impl TimerKind {
    /// Number of timer kinds — the width of dense per-process timer tables
    /// (the simulator keeps one `[Option<EventHandle>; TimerKind::COUNT]`
    /// row per node so arming and cancelling timers does no hashing).
    pub const COUNT: usize = 4;

    /// Every timer kind, ordered by [`TimerKind::index`].
    pub const ALL: [TimerKind; TimerKind::COUNT] = [
        TimerKind::Heartbeat,
        TimerKind::NeighborhoodGc,
        TimerKind::BackOff,
        TimerKind::FloodTick,
    ];

    /// The dense index of this kind, in `0..TimerKind::COUNT`.
    pub const fn index(self) -> usize {
        match self {
            TimerKind::Heartbeat => 0,
            TimerKind::NeighborhoodGc => 1,
            TimerKind::BackOff => 2,
            TimerKind::FloodTick => 3,
        }
    }
}

/// An effect requested by a protocol, to be executed by the environment.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Broadcast `message` to the one-hop neighborhood.
    Broadcast(Message),
    /// Deliver `event` to the local application (it matched a subscription and
    /// had not been delivered before).
    Deliver(Event),
    /// Arm (or re-arm) the timer `kind` to fire `after` from now.
    SetTimer {
        /// Which timer to arm.
        kind: TimerKind,
        /// Delay from the current instant.
        after: SimDuration,
    },
    /// Cancel the pending timer `kind`, if armed.
    CancelTimer(TimerKind),
}

impl Action {
    /// Convenience accessor: the broadcast message, if this action is one.
    pub fn as_broadcast(&self) -> Option<&Message> {
        match self {
            Action::Broadcast(m) => Some(m),
            _ => None,
        }
    }

    /// Convenience accessor: the delivered event, if this action is one.
    pub fn as_delivery(&self) -> Option<&Event> {
        match self {
            Action::Deliver(e) => Some(e),
            _ => None,
        }
    }
}

/// A reusable buffer protocols append their [`Action`]s to, plus pools of
/// the vectors that travel inside [`Message`]s.
///
/// One buffer serves every callback of every node of a simulated world: the
/// embedder passes `&mut ActionBuf` into a callback, drains the appended
/// actions, and executes them. Protocols build their outgoing `EventIds` /
/// `Events` messages from the buffer's pooled vectors
/// ([`ActionBuf::events_vec`] and friends), and the embedder hands the
/// vectors back with [`ActionBuf::recycle_message`] once a message's life
/// ends — so in steady state no callback allocates: the action vector, the
/// id/event/recipient vectors and their capacities all cycle in place.
///
/// # Examples
///
/// ```
/// use frugal::{ActionBuf, Action, DisseminationProtocol, FrugalProtocol, ProtocolConfig};
/// use pubsub::ProcessId;
/// use simkit::SimTime;
///
/// let mut p = FrugalProtocol::new(ProcessId(1), ProtocolConfig::paper_default());
/// let mut out = ActionBuf::new();
/// p.subscribe(".city.parking".parse()?, SimTime::ZERO, &mut out);
/// for action in out.drain() {
///     if let Action::Broadcast(message) = action {
///         // hand `message` to the medium; recycle it when it dies
///     }
/// }
/// # Ok::<(), pubsub::ParseTopicError>(())
/// ```
#[derive(Debug, Default)]
pub struct ActionBuf {
    actions: Vec<Action>,
    events_pool: Vec<Vec<Event>>,
    ids_pool: Vec<Vec<EventId>>,
    recipients_pool: Vec<Vec<ProcessId>>,
}

impl ActionBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        ActionBuf::default()
    }

    /// Appends an action.
    pub fn push(&mut self, action: Action) {
        self.actions.push(action);
    }

    /// Number of buffered actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// `true` if no actions are buffered.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The buffered actions, oldest first.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Drains the buffered actions (oldest first), keeping the buffer's
    /// capacity and pools for the next callback.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Action> {
        self.actions.drain(..)
    }

    /// Consumes the buffer, returning the plain action vector (pools are
    /// dropped). The [`VecActions`] adapter is built on this.
    fn into_actions(self) -> Vec<Action> {
        self.actions
    }

    /// An empty `Vec<Event>` from the pool (or a fresh one), for building an
    /// `Events` message.
    pub fn events_vec(&mut self) -> Vec<Event> {
        self.events_pool.pop().unwrap_or_default()
    }

    /// An empty `Vec<EventId>` from the pool (or a fresh one), for building
    /// an `EventIds` message.
    pub fn ids_vec(&mut self) -> Vec<EventId> {
        self.ids_pool.pop().unwrap_or_default()
    }

    /// An empty `Vec<ProcessId>` from the pool (or a fresh one), for the
    /// recipient list of an `Events` message.
    pub fn recipients_vec(&mut self) -> Vec<ProcessId> {
        self.recipients_pool.pop().unwrap_or_default()
    }

    /// Returns an event vector to the pool (cleared, capacity kept).
    pub fn recycle_events(&mut self, mut events: Vec<Event>) {
        events.clear();
        self.events_pool.push(events);
    }

    /// Returns an id vector to the pool (cleared, capacity kept).
    fn recycle_ids(&mut self, mut ids: Vec<EventId>) {
        ids.clear();
        self.ids_pool.push(ids);
    }

    /// Returns a recipient vector to the pool (cleared, capacity kept).
    fn recycle_recipients(&mut self, mut recipients: Vec<ProcessId>) {
        recipients.clear();
        self.recipients_pool.push(recipients);
    }

    /// Reclaims the vectors inside a retired message into the pools. The
    /// embedder calls this when a broadcast message reaches the end of its
    /// life (its transmission completed and every receiver handled it).
    pub fn recycle_message(&mut self, message: Message) {
        match message {
            Message::Heartbeat { .. } => {}
            Message::EventIds { ids, .. } => self.recycle_ids(ids),
            Message::Events {
                events, recipients, ..
            } => {
                self.recycle_events(events);
                self.recycle_recipients(recipients);
            }
        }
    }

    /// Drops any buffered actions, recycling the vectors inside unbuffered
    /// broadcast messages so their capacity is not lost.
    pub fn clear(&mut self) {
        while let Some(action) = self.actions.pop() {
            if let Action::Broadcast(message) = action {
                self.recycle_message(message);
            }
        }
    }
}

/// A topic-based dissemination protocol for MANETs.
///
/// Implemented by the paper's [`FrugalProtocol`](crate::FrugalProtocol) and by
/// the three flooding baselines of the evaluation section.
///
/// Every input callback appends its requested effects to the caller's
/// [`ActionBuf`] instead of returning a fresh vector — the contract that
/// keeps the simulator's per-event hot path allocation free. Callbacks only
/// ever *append*: buffered actions from earlier callbacks are left alone.
/// The pre-buffer `-> Vec<Action>` signatures remain available through the
/// blanket [`VecActions`] adapter.
pub trait DisseminationProtocol: Debug + Send {
    /// A short, stable name used in experiment reports (e.g. `"frugal"`).
    fn name(&self) -> &'static str;

    /// The identifier of this process.
    fn id(&self) -> ProcessId;

    /// The current subscriptions of this process.
    fn subscriptions(&self) -> &SubscriptionSet;

    /// Subscribes to `topic`.
    fn subscribe(&mut self, topic: Topic, now: SimTime, out: &mut ActionBuf);

    /// Unsubscribes from `topic`.
    fn unsubscribe(&mut self, topic: &Topic, now: SimTime, out: &mut ActionBuf);

    /// Publishes a new event on `topic` with the given validity period and
    /// payload size, returning its identifier.
    fn publish(
        &mut self,
        topic: Topic,
        validity: SimDuration,
        payload_bytes: usize,
        now: SimTime,
        out: &mut ActionBuf,
    ) -> EventId;

    /// Handles a message received from the broadcast medium.
    fn handle_message(&mut self, message: &Message, now: SimTime, out: &mut ActionBuf);

    /// Handles the expiration of a previously armed timer.
    fn handle_timer(&mut self, kind: TimerKind, now: SimTime, out: &mut ActionBuf);

    /// Informs the protocol of the current speed of its host device in m/s
    /// (`None` if no tachometer is available). The paper uses this only as an
    /// optimization for the adaptive heartbeat period.
    fn update_speed(&mut self, speed: Option<f64>);

    /// The metrics accumulated so far.
    fn metrics(&self) -> &ProtocolMetrics;

    /// `true` if the event has been delivered to the local application — the
    /// per-node predicate behind the reliability figures.
    fn has_delivered(&self, id: &EventId) -> bool {
        self.metrics().has_delivered(id)
    }
}

/// The pre-buffer callback signatures, as a blanket adapter over every
/// [`DisseminationProtocol`]: each call allocates a fresh [`ActionBuf`] and
/// returns the collected `Vec<Action>`. Convenient for tests, examples and
/// scripted interactions; the simulator hot path threads one reusable buffer
/// through the trait methods instead.
pub trait VecActions: DisseminationProtocol {
    /// [`DisseminationProtocol::subscribe`], collecting into a fresh vector.
    fn subscribe_vec(&mut self, topic: Topic, now: SimTime) -> Vec<Action> {
        let mut out = ActionBuf::new();
        self.subscribe(topic, now, &mut out);
        out.into_actions()
    }

    /// [`DisseminationProtocol::unsubscribe`], collecting into a fresh vector.
    fn unsubscribe_vec(&mut self, topic: &Topic, now: SimTime) -> Vec<Action> {
        let mut out = ActionBuf::new();
        self.unsubscribe(topic, now, &mut out);
        out.into_actions()
    }

    /// [`DisseminationProtocol::publish`], collecting into a fresh vector.
    fn publish_vec(
        &mut self,
        topic: Topic,
        validity: SimDuration,
        payload_bytes: usize,
        now: SimTime,
    ) -> (EventId, Vec<Action>) {
        let mut out = ActionBuf::new();
        let id = self.publish(topic, validity, payload_bytes, now, &mut out);
        (id, out.into_actions())
    }

    /// [`DisseminationProtocol::handle_message`], collecting into a fresh
    /// vector.
    fn handle_message_vec(&mut self, message: &Message, now: SimTime) -> Vec<Action> {
        let mut out = ActionBuf::new();
        self.handle_message(message, now, &mut out);
        out.into_actions()
    }

    /// [`DisseminationProtocol::handle_timer`], collecting into a fresh
    /// vector.
    fn handle_timer_vec(&mut self, kind: TimerKind, now: SimTime) -> Vec<Action> {
        let mut out = ActionBuf::new();
        self.handle_timer(kind, now, &mut out);
        out.into_actions()
    }
}

impl<P: DisseminationProtocol + ?Sized> VecActions for P {}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub::SubscriptionSet;

    #[test]
    fn action_accessors() {
        let msg = Message::Heartbeat {
            from: ProcessId(1),
            subscriptions: SubscriptionSet::new(),
            speed: None,
        };
        let broadcast = Action::Broadcast(msg.clone());
        assert_eq!(broadcast.as_broadcast(), Some(&msg));
        assert_eq!(broadcast.as_delivery(), None);

        let set = Action::SetTimer {
            kind: TimerKind::Heartbeat,
            after: SimDuration::from_secs(1),
        };
        assert_eq!(set.as_broadcast(), None);
        assert_eq!(Action::CancelTimer(TimerKind::BackOff).as_delivery(), None);
    }

    #[test]
    fn timer_kinds_are_distinct_hashable() {
        let set: std::collections::HashSet<_> = TimerKind::ALL.into_iter().collect();
        assert_eq!(set.len(), TimerKind::COUNT);
    }

    #[test]
    fn timer_kind_indices_are_a_dense_permutation() {
        let mut seen = [false; TimerKind::COUNT];
        for kind in TimerKind::ALL {
            let index = kind.index();
            assert!(index < TimerKind::COUNT);
            assert!(!seen[index], "duplicate index {index}");
            seen[index] = true;
            assert_eq!(TimerKind::ALL[index], kind, "ALL is ordered by index");
        }
    }
}
