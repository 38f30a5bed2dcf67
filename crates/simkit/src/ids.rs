//! Dense simulation-local identifiers and their partition into shards.
//!
//! A simulated world addresses its nodes by a dense index. Carrying that
//! index as a `usize` wastes half of every event payload on 64-bit targets.
//! [`NodeId`] pins the index to 32 bits — four billion nodes is comfortably
//! past the million-node regime the simulator targets — and
//! [`BoundaryPartition`] splits the index space into contiguous shard
//! ranges.

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

/// A partition of the dense node-index space `0..total` into contiguous
/// shard ranges of equal counts, for assigning a world's nodes to worker
/// threads.
///
/// Because ranges are contiguous and ascending, any ascending list of node
/// indices decomposes into at most one contiguous run per shard — which is
/// what lets a sharded simulator merge per-shard results back in ascending
/// node order by walking shards in order. Ranges cover `0..total` exactly
/// once and (population permitting) no shard is empty.
///
/// # Examples
///
/// ```
/// use simkit::BoundaryPartition;
///
/// let part = BoundaryPartition::balanced(7, 2);
/// assert_eq!(part.range(0), 0..4);
/// assert_eq!(part.range(1), 4..7);
/// assert_eq!(part.owner(3), 0);
/// assert_eq!(part.owner(4), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundaryPartition {
    /// `len() + 1` ascending fenceposts: `bounds[s]..bounds[s + 1]` is shard
    /// `s`; `bounds[0] == 0` and `bounds[len()] == total`.
    bounds: Vec<usize>,
}

impl BoundaryPartition {
    /// Builds the equal-count partition of `0..total` into `shards` ranges:
    /// the first `total % shards` shards hold one extra node, so shard sizes
    /// differ by at most one. The requested shard count is clamped to
    /// `1..=max(total, 1)` so no shard is empty.
    pub fn balanced(total: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, total.max(1));
        let (base, carry) = (total / shards, total % shards);
        let bounds = (0..=shards)
            .map(|shard| shard * base + shard.min(carry))
            .collect();
        BoundaryPartition { bounds }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Always false: a partition holds at least one shard.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of node indices partitioned.
    pub fn total(&self) -> usize {
        *self.bounds.last().expect("bounds hold at least two posts")
    }

    /// The contiguous index range owned by `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= len()`.
    pub fn range(&self, shard: usize) -> std::ops::Range<usize> {
        assert!(shard < self.len(), "shard {shard} out of range");
        self.bounds[shard]..self.bounds[shard + 1]
    }

    /// The shard owning node index `index` (binary search over the
    /// boundaries — the shard count is small, so this is a handful of
    /// compares).
    ///
    /// # Panics
    ///
    /// Panics if `index >= total()`.
    pub fn owner(&self, index: usize) -> usize {
        assert!(index < self.total(), "node index {index} out of range");
        self.bounds.partition_point(|&post| post <= index) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts every structural invariant sharded delivery relies on:
    /// contiguous ascending ranges covering `0..total` exactly once, no empty
    /// shard when the population allows, `owner` consistent with `range`.
    fn assert_partition_invariants(part: &BoundaryPartition) {
        let total = part.total();
        let mut next = 0;
        for shard in 0..part.len() {
            let range = part.range(shard);
            assert_eq!(range.start, next, "ranges must be contiguous");
            assert!(total == 0 || !range.is_empty(), "no shard may be empty");
            for index in range.clone() {
                assert_eq!(part.owner(index), shard);
            }
            next = range.end;
        }
        assert_eq!(next, total, "ranges must cover 0..total");
    }

    #[test]
    fn shard_partition_covers_every_index_exactly_once() {
        for total in [0usize, 1, 2, 7, 10, 64, 100, 101, 1003] {
            for shards in [1usize, 2, 3, 4, 8, 200] {
                let part = BoundaryPartition::balanced(total, shards);
                assert!(!part.is_empty() && part.len() <= shards.max(1));
                assert_eq!(part.total(), total);
                assert_partition_invariants(&part);
            }
        }
    }

    #[test]
    fn shard_partition_is_balanced() {
        let part = BoundaryPartition::balanced(1003, 8);
        let sizes: Vec<usize> = (0..part.len()).map(|s| part.range(s).len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "sizes differ by more than one: {sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 1003);
        // The remainder rides the leading shards: 10 = 3 + 3 + 2 + 2.
        let part = BoundaryPartition::balanced(10, 4);
        assert_eq!(part.range(0), 0..3);
        assert_eq!(part.range(2), 6..8);
        assert_eq!(part.owner(6), 2);
    }

    #[test]
    fn shard_partition_clamps_to_population() {
        let part = BoundaryPartition::balanced(3, 16);
        assert_eq!(part.len(), 3);
        let empty = BoundaryPartition::balanced(0, 4);
        assert_eq!(empty.len(), 1);
        assert_eq!(empty.range(0), 0..0);
        assert!(!empty.is_empty());
    }

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
