//! Dense simulation-local identifiers.
//!
//! A simulated world addresses its nodes by a dense index. Carrying that
//! index as a `usize` wastes half of every event payload on 64-bit targets.
//! [`NodeId`] pins the index to 32 bits — four billion nodes is comfortably
//! past the million-node regime the simulator targets.

use std::fmt;

/// Dense identifier of a node inside one simulated world.
///
/// `NodeId` is an *index*, not a protocol-level identity: the pub/sub layer
/// keeps its own `ProcessId` (a wire-format `u64`). Worlds assign node ids
/// contiguously from zero, which is what lets positions, wake times and
/// timer slots live in parallel arrays indexed by [`NodeId::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Creates an id from a dense array index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX` — a population no real scenario
    /// reaches (the design ceiling is one million nodes).
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32"))
    }

    /// The dense array index of this node.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> usize {
        id.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_through_index() {
        let id = NodeId::from_index(42);
        assert_eq!(id, NodeId(42));
        assert_eq!(id.index(), 42);
        assert_eq!(usize::from(id), 42);
        assert_eq!(NodeId::from(7u32), NodeId(7));
        assert_eq!(NodeId(9).to_string(), "n9");
    }
}
