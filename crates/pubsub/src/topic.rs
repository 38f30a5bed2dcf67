//! Hierarchical topics.
//!
//! Topics are arranged in a tree rooted at `.` (the dot), e.g.
//! `.grenoble.conferences.middleware` is a subtopic of `.grenoble.conferences`.
//! A subscriber of a topic receives the events of that topic *and of all its
//! subtopics* — the matching rule at the heart of the paper's topic-based
//! publish/subscribe model.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// A topic in the hierarchy, e.g. `.grenoble.conferences.middleware`.
///
/// The root topic (written `.`) has zero segments; every other topic is a
/// non-empty list of segments.
///
/// The segment list is shared behind an [`Arc`], so cloning a topic — which
/// every heartbeat, stored event and neighborhood entry does — is a
/// reference-count bump rather than a fresh allocation. Equality, ordering
/// and hashing see through the `Arc` to the segments, so the sharing is
/// unobservable.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Topic {
    segments: Arc<Vec<String>>,
}

/// Errors raised when parsing a [`Topic`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseTopicError {
    /// The string was empty.
    Empty,
    /// The string did not start with the root dot.
    MissingLeadingDot,
    /// A segment between two dots was empty (e.g. `.a..b`).
    EmptySegment,
    /// A segment contained a character outside `[A-Za-z0-9_-]`.
    InvalidCharacter {
        /// The offending segment.
        segment: String,
    },
}

impl fmt::Display for ParseTopicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTopicError::Empty => write!(f, "topic string is empty"),
            ParseTopicError::MissingLeadingDot => {
                write!(f, "topics must start with the root dot '.'")
            }
            ParseTopicError::EmptySegment => write!(f, "topic contains an empty segment"),
            ParseTopicError::InvalidCharacter { segment } => {
                write!(f, "topic segment {segment:?} contains an invalid character")
            }
        }
    }
}

impl std::error::Error for ParseTopicError {}

fn valid_segment(segment: &str) -> bool {
    !segment.is_empty()
        && segment
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

impl Topic {
    /// The root topic `.`, ancestor of every topic.
    pub fn root() -> Topic {
        Topic {
            segments: Arc::new(Vec::new()),
        }
    }

    /// Parses a topic from its textual form.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseTopicError`] if the text is not a well-formed topic.
    ///
    /// ```
    /// # use pubsub::topic::Topic;
    /// let t: Topic = ".grenoble.conferences.middleware".parse()?;
    /// assert_eq!(t.depth(), 3);
    /// # Ok::<(), pubsub::topic::ParseTopicError>(())
    /// ```
    pub fn parse(text: &str) -> Result<Topic, ParseTopicError> {
        if text.is_empty() {
            return Err(ParseTopicError::Empty);
        }
        if !text.starts_with('.') {
            return Err(ParseTopicError::MissingLeadingDot);
        }
        if text == "." {
            return Ok(Topic::root());
        }
        let mut segments = Vec::new();
        for segment in text[1..].split('.') {
            if segment.is_empty() {
                return Err(ParseTopicError::EmptySegment);
            }
            if !valid_segment(segment) {
                return Err(ParseTopicError::InvalidCharacter {
                    segment: segment.to_owned(),
                });
            }
            segments.push(segment.to_owned());
        }
        Ok(Topic {
            segments: Arc::new(segments),
        })
    }

    /// Builds the child topic `self.segment`.
    ///
    /// # Panics
    ///
    /// Panics if `segment` is not a valid topic segment.
    pub fn child(&self, segment: &str) -> Topic {
        assert!(valid_segment(segment), "invalid topic segment {segment:?}");
        let mut segments = (*self.segments).clone();
        segments.push(segment.to_owned());
        Topic {
            segments: Arc::new(segments),
        }
    }

    /// The parent topic, or `None` for the root.
    pub fn parent(&self) -> Option<Topic> {
        if self.segments.is_empty() {
            None
        } else {
            Some(Topic {
                segments: Arc::new(self.segments[..self.segments.len() - 1].to_vec()),
            })
        }
    }

    /// Number of segments below the root (the root has depth 0).
    pub fn depth(&self) -> usize {
        self.segments.len()
    }

    /// The segments below the root, in order.
    pub fn segments(&self) -> &[String] {
        &self.segments
    }

    /// `true` if `self` is an ancestor of `other` or equal to it — i.e. a
    /// subscriber of `self` must receive events published on `other`.
    ///
    /// ```
    /// # use pubsub::topic::Topic;
    /// let conferences: Topic = ".grenoble.conferences".parse().unwrap();
    /// let middleware: Topic = ".grenoble.conferences.middleware".parse().unwrap();
    /// assert!(conferences.covers(&middleware));
    /// assert!(!middleware.covers(&conferences));
    /// assert!(Topic::root().covers(&conferences));
    /// ```
    pub fn covers(&self, other: &Topic) -> bool {
        self.segments.len() <= other.segments.len()
            && self
                .segments
                .iter()
                .zip(other.segments.iter())
                .all(|(a, b)| a == b)
    }

    /// `true` if the two topics are related (one covers the other), which is
    /// when two processes share an interest worth gossiping about.
    pub fn related(&self, other: &Topic) -> bool {
        self.covers(other) || other.covers(self)
    }
}

impl fmt::Display for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.segments.is_empty() {
            write!(f, ".")
        } else {
            for segment in self.segments.iter() {
                write!(f, ".{segment}")?;
            }
            Ok(())
        }
    }
}

impl FromStr for Topic {
    type Err = ParseTopicError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Topic::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for text in [".", ".a", ".grenoble.conferences.middleware", ".T0.T1.T2"] {
            assert_eq!(t(text).to_string(), text);
        }
    }

    #[test]
    fn parse_rejects_malformed_topics() {
        assert_eq!(Topic::parse(""), Err(ParseTopicError::Empty));
        assert_eq!(Topic::parse("a.b"), Err(ParseTopicError::MissingLeadingDot));
        assert_eq!(Topic::parse(".a..b"), Err(ParseTopicError::EmptySegment));
        assert_eq!(Topic::parse(".a."), Err(ParseTopicError::EmptySegment));
        assert!(matches!(
            Topic::parse(".a.b c"),
            Err(ParseTopicError::InvalidCharacter { .. })
        ));
        assert!(Topic::parse(".caf\u{e9}").is_err(), "non-ASCII rejected");
    }

    #[test]
    fn error_messages_are_descriptive() {
        assert!(Topic::parse(".a b")
            .unwrap_err()
            .to_string()
            .contains("invalid character"));
        assert!(Topic::parse("x")
            .unwrap_err()
            .to_string()
            .contains("root dot"));
    }

    #[test]
    fn root_properties() {
        let root = Topic::root();
        assert_eq!(root.depth(), 0);
        assert_eq!(root.parent(), None);
        assert_eq!(root.to_string(), ".");
        assert_eq!(t("."), root);
    }

    #[test]
    fn child_and_parent_are_inverse() {
        let base = t(".a.b");
        let child = base.child("c");
        assert_eq!(child, t(".a.b.c"));
        assert_eq!(child.parent(), Some(base.clone()));
        assert_eq!(base.parent(), Some(t(".a")));
        assert_eq!(t(".a").parent(), Some(Topic::root()));
    }

    #[test]
    #[should_panic]
    fn child_rejects_invalid_segment() {
        let _ = Topic::root().child("has space");
    }

    #[test]
    fn covers_follows_the_paper_semantics() {
        // The paper's example: T1 subtopic of T0, T2 subtopic of T1.
        let t0 = t(".T0");
        let t1 = t(".T0.T1");
        let t2 = t(".T0.T1.T2");
        // A subscriber of .grenoble.conferences receives .grenoble.conferences.middleware.
        assert!(t0.covers(&t1) && t0.covers(&t2) && t1.covers(&t2));
        assert!(!t2.covers(&t1) && !t1.covers(&t0));
        assert!(t1.covers(&t1), "a topic covers itself");
        assert!(Topic::root().covers(&t2), "the root covers everything");
        // Unrelated branches do not cover each other.
        let other = t(".T0.T4");
        assert!(!t1.covers(&other) && !other.covers(&t1));
        assert!(t1.related(&t2) && t2.related(&t1));
        assert!(!t1.related(&other));
    }

    #[test]
    fn prefix_segments_do_not_cover() {
        // ".ab" is not an ancestor of ".abc": matching is per segment, not per character.
        assert!(!t(".ab").covers(&t(".abc")));
    }

    #[test]
    fn ordering_is_stable_for_use_in_btreemaps() {
        let mut topics = [t(".b"), t(".a.z"), t(".a"), Topic::root()];
        topics.sort();
        assert_eq!(topics[0], Topic::root());
        assert_eq!(topics[1], t(".a"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn segment_strategy() -> impl Strategy<Value = String> {
        "[a-zA-Z0-9_-]{1,8}"
    }

    fn topic_strategy() -> impl Strategy<Value = Topic> {
        proptest::collection::vec(segment_strategy(), 0..6).prop_map_invertible(
            |segments| {
                let mut topic = Topic::root();
                for s in &segments {
                    topic = topic.child(s);
                }
                topic
            },
            |topic| topic.segments().to_vec(),
        )
    }

    proptest! {
        /// Display/parse round-trips for arbitrary valid topics.
        #[test]
        fn display_parse_roundtrip(topic in topic_strategy()) {
            let text = topic.to_string();
            prop_assert_eq!(Topic::parse(&text).unwrap(), topic);
        }

        /// `covers` is a partial order: reflexive, antisymmetric, transitive.
        #[test]
        fn covers_is_partial_order(a in topic_strategy(), b in topic_strategy(), c in topic_strategy()) {
            prop_assert!(a.covers(&a));
            if a.covers(&b) && b.covers(&a) {
                prop_assert_eq!(&a, &b);
            }
            if a.covers(&b) && b.covers(&c) {
                prop_assert!(a.covers(&c));
            }
        }

        /// Every topic is covered by each of its ancestors and by the root.
        #[test]
        fn ancestors_cover(topic in topic_strategy()) {
            let mut ancestor = Some(topic.clone());
            while let Some(this) = ancestor {
                prop_assert!(this.covers(&topic));
                ancestor = this.parent();
            }
            prop_assert!(Topic::root().covers(&topic));
        }

        /// A child is always a strict subtopic of its parent.
        #[test]
        fn child_is_subtopic(topic in topic_strategy(), seg in segment_strategy()) {
            let child = topic.child(&seg);
            prop_assert!(topic.covers(&child) && child != topic);
            prop_assert_eq!(child.parent().unwrap(), topic);
        }
    }
}
