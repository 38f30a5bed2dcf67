//! Subscription sets and topic matching.
//!
//! A process subscribes to a set of topics; it must receive every event whose
//! topic is covered by (equal to or a subtopic of) one of its subscriptions.
//! [`SubscriptionSet`] implements that matching plus the *shared interest* test
//! used by the neighborhood-detection phase: two processes only keep each other
//! in their neighborhood tables if their subscriptions are related.

use crate::topic::Topic;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The set of topics a process has subscribed to.
///
/// The topics live in one sorted, duplicate-free `Arc<[Topic]>`: a single
/// allocation that holds them inline, so `matches` and
/// `shares_interest_with` — run on every received event and heartbeat — are
/// slice scans behind one dependent load. Cloning a set, which every
/// heartbeat and every neighborhood-table upsert does, is a reference-count
/// bump. `subscribe` and `unsubscribe` never write through the `Arc`: they
/// build a fresh slice (they run only at subscribe time), so a clone taken
/// earlier keeps its contents. Equality and iteration order see through the
/// `Arc`, so the sharing is unobservable.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubscriptionSet {
    topics: Arc<[Topic]>,
}

impl SubscriptionSet {
    /// Creates an empty subscription set.
    pub fn new() -> Self {
        SubscriptionSet::default()
    }

    /// Creates a set holding a single topic.
    pub fn single(topic: Topic) -> Self {
        let mut s = SubscriptionSet::new();
        s.subscribe(topic);
        s
    }

    /// Adds a subscription. Returns `true` if it was not already present.
    pub fn subscribe(&mut self, topic: Topic) -> bool {
        let Err(slot) = self.topics.binary_search(&topic) else {
            return false;
        };
        let (before, after) = self.topics.split_at(slot);
        // The chain has an exact length, so `collect` builds the slice in
        // one allocation.
        self.topics = before
            .iter()
            .cloned()
            .chain(std::iter::once(topic))
            .chain(after.iter().cloned())
            .collect();
        true
    }

    /// Removes a subscription. Returns `true` if it was present.
    pub fn unsubscribe(&mut self, topic: &Topic) -> bool {
        let Ok(slot) = self.topics.binary_search(topic) else {
            return false;
        };
        self.topics = self.topics[..slot]
            .iter()
            .chain(&self.topics[slot + 1..])
            .cloned()
            .collect();
        true
    }

    /// `true` when the process has no subscriptions left (at which point the
    /// paper stops its heartbeat and garbage-collection tasks).
    pub fn is_empty(&self) -> bool {
        self.topics.is_empty()
    }

    /// Number of subscribed topics.
    pub fn len(&self) -> usize {
        self.topics.len()
    }

    /// Iterates over the subscribed topics in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Topic> {
        self.topics.iter()
    }

    /// `true` if an event published on `topic` must be delivered to this
    /// process, i.e. one of its subscriptions covers `topic`.
    ///
    /// ```
    /// # use pubsub::{SubscriptionSet, Topic};
    /// let mut subs = SubscriptionSet::new();
    /// subs.subscribe(".grenoble.conferences".parse().unwrap());
    /// assert!(subs.matches(&".grenoble.conferences.middleware".parse().unwrap()));
    /// assert!(!subs.matches(&".grenoble.restaurants".parse().unwrap()));
    /// ```
    pub fn matches(&self, topic: &Topic) -> bool {
        self.topics.iter().any(|sub| sub.covers(topic))
    }

    /// `true` if this process and one with subscriptions `other` share any
    /// interest: some topic of one is related (ancestor or descendant) to some
    /// topic of the other. Neighbors without shared interest are not worth
    /// keeping in the neighborhood table.
    pub fn shares_interest_with(&self, other: &SubscriptionSet) -> bool {
        self.topics
            .iter()
            .any(|a| other.topics.iter().any(|b| a.related(b)))
    }
}

impl fmt::Display for SubscriptionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.topics.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Topic> for SubscriptionSet {
    fn from_iter<I: IntoIterator<Item = Topic>>(iter: I) -> Self {
        let mut set = SubscriptionSet::new();
        set.extend(iter);
        set
    }
}

impl Extend<Topic> for SubscriptionSet {
    fn extend<I: IntoIterator<Item = Topic>>(&mut self, iter: I) {
        for topic in iter {
            self.subscribe(topic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> Topic {
        s.parse().unwrap()
    }

    #[test]
    fn subscribe_unsubscribe_lifecycle() {
        let mut subs = SubscriptionSet::new();
        assert!(subs.is_empty());
        assert!(subs.subscribe(t(".a")));
        assert!(
            !subs.subscribe(t(".a")),
            "duplicate subscription reports false"
        );
        assert_eq!(subs.len(), 1);
        assert!(subs.unsubscribe(&t(".a")));
        assert!(!subs.unsubscribe(&t(".a")));
        assert!(subs.is_empty());
    }

    #[test]
    fn matches_subtopics_but_not_ancestors() {
        let subs = SubscriptionSet::single(t(".T0.T1"));
        assert!(subs.matches(&t(".T0.T1")));
        assert!(subs.matches(&t(".T0.T1.T2")));
        assert!(
            !subs.matches(&t(".T0")),
            "events on an ancestor topic are parasite events"
        );
        assert!(!subs.matches(&t(".T0.T4")));
        assert!(!SubscriptionSet::new().matches(&t(".T0")));
    }

    #[test]
    fn root_subscription_matches_everything() {
        let subs = SubscriptionSet::single(Topic::root());
        assert!(subs.matches(&t(".anything.at.all")));
    }

    #[test]
    fn shared_interest_mirrors_the_paper_example() {
        // p1 subscribed to T0.T1, p2 to T0.T1.T2, p3 to T0: all three pairs share interest.
        let p1 = SubscriptionSet::single(t(".T0.T1"));
        let p2 = SubscriptionSet::single(t(".T0.T1.T2"));
        let p3 = SubscriptionSet::single(t(".T0"));
        assert!(p1.shares_interest_with(&p2));
        assert!(p2.shares_interest_with(&p1));
        assert!(p1.shares_interest_with(&p3));
        assert!(p2.shares_interest_with(&p3));
        // Disjoint branches share nothing.
        let other = SubscriptionSet::single(t(".music.jazz"));
        assert!(!p1.shares_interest_with(&other));
        assert!(!SubscriptionSet::new().shares_interest_with(&p1));
    }

    #[test]
    fn display_lists_every_topic() {
        let subs: SubscriptionSet = [t(".a"), t(".b.c")].into_iter().collect();
        let shown = subs.to_string();
        assert!(shown.contains(".a") && shown.contains(".b.c"));
    }

    #[test]
    fn clone_is_unaffected_by_later_mutation() {
        let mut subs: SubscriptionSet = [t(".a"), t(".b")].into_iter().collect();
        let before = subs.clone();
        subs.subscribe(t(".c"));
        let after_subscribe = subs.clone();
        subs.unsubscribe(&t(".a"));
        let after_unsubscribe = subs.clone();
        subs.unsubscribe(&t(".b"));
        subs.unsubscribe(&t(".c"));
        let topics = |s: &SubscriptionSet| s.iter().cloned().collect::<Vec<_>>();
        assert_eq!(topics(&before), [t(".a"), t(".b")]);
        assert_eq!(topics(&after_subscribe), [t(".a"), t(".b"), t(".c")]);
        assert_eq!(topics(&after_unsubscribe), [t(".b"), t(".c")]);
        assert!(subs.is_empty());
    }

    #[test]
    fn from_iterator_deduplicates() {
        let subs: SubscriptionSet = [t(".a"), t(".a"), t(".b")].into_iter().collect();
        assert_eq!(subs.len(), 2);
        let mut extended = subs.clone();
        extended.extend([t(".b"), t(".c")]);
        assert_eq!(extended.len(), 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn topic_strategy() -> impl Strategy<Value = Topic> {
        proptest::collection::vec("[a-z]{1,3}", 0..4).prop_map_invertible(
            |segs| {
                let mut topic = Topic::root();
                for s in &segs {
                    topic = topic.child(s);
                }
                topic
            },
            |topic| topic.segments().to_vec(),
        )
    }

    /// One mutation of a set, applied to it and to its `BTreeSet` model.
    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        Subscribe(Topic),
        Unsubscribe(Topic),
        /// Unsubscribes the `n % len`-th held topic, so removals of present
        /// topics are common (random topics seldom collide).
        UnsubscribeHeld(usize),
        Extend(Vec<Topic>),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            topic_strategy().prop_map_invertible(Op::Subscribe, |op| match op {
                Op::Subscribe(t) => t.clone(),
                _ => unreachable!("inverse called on a foreign variant"),
            }),
            topic_strategy().prop_map_invertible(Op::Unsubscribe, |op| match op {
                Op::Unsubscribe(t) => t.clone(),
                _ => unreachable!("inverse called on a foreign variant"),
            }),
            (0usize..8).prop_map_invertible(Op::UnsubscribeHeld, |op| match op {
                Op::UnsubscribeHeld(n) => *n,
                _ => unreachable!("inverse called on a foreign variant"),
            }),
            proptest::collection::vec(topic_strategy(), 0..4).prop_map_invertible(
                Op::Extend,
                |op| match op {
                    Op::Extend(ts) => ts.clone(),
                    _ => unreachable!("inverse called on a foreign variant"),
                }
            ),
        ]
    }

    proptest! {
        /// The hand-kept sorted, duplicate-free slice behaves exactly like a
        /// `BTreeSet` under any sequence of mutations: same return values,
        /// length, iteration order, matching and shared interest.
        #[test]
        fn subscription_set_matches_btreeset_model(
            ops in proptest::collection::vec(
                (op_strategy(), topic_strategy(), proptest::collection::vec(topic_strategy(), 0..3)),
                0..24,
            ),
        ) {
            let mut set = SubscriptionSet::new();
            let mut model = BTreeSet::new();
            for (op, probe, other) in ops {
                match op {
                    Op::Subscribe(t) => prop_assert_eq!(set.subscribe(t.clone()), model.insert(t)),
                    Op::Unsubscribe(t) => prop_assert_eq!(set.unsubscribe(&t), model.remove(&t)),
                    Op::UnsubscribeHeld(n) => {
                        if let Some(t) = model.iter().nth(n % model.len().max(1)).cloned() {
                            prop_assert!(set.unsubscribe(&t));
                            model.remove(&t);
                        }
                    }
                    Op::Extend(ts) => {
                        set.extend(ts.iter().cloned());
                        model.extend(ts);
                    }
                }
                prop_assert_eq!(set.len(), model.len());
                prop_assert_eq!(set.is_empty(), model.is_empty());
                prop_assert!(set.iter().eq(model.iter()));
                prop_assert_eq!(set.matches(&probe), model.iter().any(|s| s.covers(&probe)));
                let shared = model.iter().any(|a| other.iter().any(|b| a.related(b)));
                let other: SubscriptionSet = other.into_iter().collect();
                prop_assert_eq!(set.shares_interest_with(&other), shared);
            }
        }

        /// An event matches iff at least one subscription covers its topic —
        /// and subscribing to the event's own topic always matches.
        #[test]
        fn matches_consistent_with_covers(topics in proptest::collection::vec(topic_strategy(), 0..6),
                                          event_topic in topic_strategy()) {
            let subs: SubscriptionSet = topics.iter().cloned().collect();
            let expected = topics.iter().any(|t| t.covers(&event_topic));
            prop_assert_eq!(subs.matches(&event_topic), expected);

            let mut with_exact = subs.clone();
            with_exact.subscribe(event_topic.clone());
            prop_assert!(with_exact.matches(&event_topic));
        }

        /// Shared interest is symmetric.
        #[test]
        fn shared_interest_symmetric(a in proptest::collection::vec(topic_strategy(), 0..5),
                                     b in proptest::collection::vec(topic_strategy(), 0..5)) {
            let sa: SubscriptionSet = a.into_iter().collect();
            let sb: SubscriptionSet = b.into_iter().collect();
            prop_assert_eq!(sa.shares_interest_with(&sb), sb.shares_interest_with(&sa));
        }
    }
}
