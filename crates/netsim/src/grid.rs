//! Uniform spatial hash grid over node positions.
//!
//! [`SpatialGrid`] buckets nodes into square cells of a fixed size (the radio
//! range, for the medium's use) so that "who is within `r` meters of this
//! point?" touches only the cells overlapping the query disc instead of every
//! node. With the cell size equal to the radio range, a reception query visits
//! at most the 3×3 cell neighborhood of the sender — O(neighbors) instead of
//! O(nodes) — which is what keeps dense, paper-scale-and-beyond sweeps
//! tractable.
//!
//! Determinism contract: [`SpatialGrid::within_into`] (exact) and
//! [`SpatialGrid::query_into`] (whole cells) return node indices in
//! **ascending index order**, exactly the order the brute-force scan over
//! `0..node_count` visits them. Because out-of-range nodes consume no
//! randomness during reception resolution, resolving the in-range nodes in
//! that order consumes the RNG stream bit-identically to the full scan.

use mobility::Point;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Integer coordinates of one grid cell.
type Cell = (i64, i64);

/// Multiplicative hasher for [`Cell`] keys. Cell coordinates are computed
/// from simulated positions, never taken from outside the program, so the
/// default SipHash's collision resistance buys nothing here, and a
/// reception query pays for nine lookups per frame.
#[derive(Debug, Clone, Copy, Default)]
struct CellHasher(u64);

impl Hasher for CellHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        // Odd constant close to 2^64 / golden ratio: one multiply spreads
        // neighbouring coordinates over the whole word.
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its entropy in the high bits; the table indexes
        // with the low ones.
        self.0.rotate_left(26)
    }
}

/// A uniform spatial hash: node index → cell, cell → node indices.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell_size: f64,
    positions: Vec<Point>,
    /// Cell of each node, kept in lockstep with `positions`.
    cells: Vec<Cell>,
    /// Index of each node inside its cell's bucket, so leaving a bucket is a
    /// `swap_remove` instead of a search.
    slots: Vec<u32>,
    /// Occupancy per cell. Vectors are unordered; queries sort their output.
    buckets: HashMap<Cell, Vec<usize>, BuildHasherDefault<CellHasher>>,
}

impl SpatialGrid {
    /// Creates a grid of `node_count` nodes, all initially at the origin.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite, or if
    /// `node_count` exceeds `u32::MAX`.
    pub fn new(cell_size: f64, node_count: usize) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell size must be positive and finite, got {cell_size}"
        );
        let last_slot = u32::try_from(node_count).expect("node count exceeds u32");
        let origin_cell = cell_of(Point::ORIGIN, cell_size);
        let mut buckets = HashMap::default();
        buckets.insert(origin_cell, (0..node_count).collect());
        SpatialGrid {
            cell_size,
            positions: vec![Point::ORIGIN; node_count],
            cells: vec![origin_cell; node_count],
            slots: (0..last_slot).collect(),
            buckets,
        }
    }

    /// Number of nodes tracked by the grid.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// The side length of one cell in meters.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// Current position of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn position(&self, node: usize) -> Point {
        self.positions[node]
    }

    /// All tracked positions, indexed by node.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Moves `node` to `position`, rebucketing it if it crossed a cell border.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `position` has a non-finite
    /// coordinate.
    pub fn update(&mut self, node: usize, position: Point) {
        assert!(
            position.x.is_finite() && position.y.is_finite(),
            "node {node} moved to a non-finite position {position}"
        );
        self.positions[node] = position;
        let new_cell = cell_of(position, self.cell_size);
        let old_cell = self.cells[node];
        if new_cell == old_cell {
            return;
        }
        let old_bucket = self
            .buckets
            .get_mut(&old_cell)
            .expect("occupied cell must have a bucket");
        let slot = self.slots[node] as usize;
        debug_assert_eq!(old_bucket[slot], node, "node must be in its recorded slot");
        old_bucket.swap_remove(slot);
        if let Some(&moved) = old_bucket.get(slot) {
            self.slots[moved] = slot as u32;
        }
        if old_bucket.is_empty() {
            self.buckets.remove(&old_cell);
        }
        self.cells[node] = new_cell;
        let new_bucket = self.buckets.entry(new_cell).or_default();
        self.slots[node] = new_bucket.len() as u32;
        new_bucket.push(node);
    }

    /// Overwrites `out` with every node whose cell overlaps the disc of
    /// `radius` around `center`, in ascending node-index order. The result is
    /// a superset of the nodes actually within `radius` and never misses one;
    /// [`SpatialGrid::within_into`] is the exact variant.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    pub fn query_into(&self, center: Point, radius: f64, out: &mut Vec<usize>) {
        out.clear();
        self.for_each_bucket(center, radius, |bucket| out.extend_from_slice(bucket));
        // Each node lives in exactly one bucket, so sorting suffices (no dedup)
        // — and ascending order is the determinism contract (see module docs).
        out.sort_unstable();
    }

    /// Like [`SpatialGrid::query_into`], but exact: `out` is overwritten with
    /// the nodes at most `radius` meters from `center`, in ascending
    /// node-index order. The distance filter runs before the sort, so only
    /// the nodes actually in the disc are sorted.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    pub fn within_into(&self, center: Point, radius: f64, out: &mut Vec<usize>) {
        out.clear();
        self.for_each_bucket(center, radius, |bucket| {
            out.extend(
                bucket
                    .iter()
                    .filter(|&&node| self.positions[node].distance(center) <= radius),
            );
        });
        out.sort_unstable();
    }

    /// Calls `visit` with the occupants of every occupied cell overlapping
    /// the disc of `radius` around `center`.
    fn for_each_bucket(&self, center: Point, radius: f64, mut visit: impl FnMut(&[usize])) {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "query radius must be non-negative and finite, got {radius}"
        );
        let span = (radius / self.cell_size).ceil() as i64;
        let (cx, cy) = cell_of(center, self.cell_size);
        for gx in cx - span..=cx + span {
            for gy in cy - span..=cy + span {
                if let Some(bucket) = self.buckets.get(&(gx, gy)) {
                    visit(bucket);
                }
            }
        }
    }
}

fn cell_of(p: Point, cell_size: f64) -> Cell {
    (
        (p.x / cell_size).floor() as i64,
        (p.y / cell_size).floor() as i64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(grid: &SpatialGrid, center: Point, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        grid.query_into(center, radius, &mut out);
        out
    }

    #[test]
    fn starts_with_everyone_at_the_origin() {
        let grid = SpatialGrid::new(100.0, 4);
        assert_eq!(grid.node_count(), 4);
        assert_eq!(grid.position(2), Point::ORIGIN);
        assert_eq!(query(&grid, Point::ORIGIN, 50.0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn update_moves_nodes_between_cells() {
        let mut grid = SpatialGrid::new(100.0, 3);
        grid.update(0, Point::new(50.0, 50.0));
        grid.update(1, Point::new(550.0, 50.0));
        grid.update(2, Point::new(1050.0, 50.0));
        assert_eq!(query(&grid, Point::new(50.0, 50.0), 100.0), vec![0]);
        assert_eq!(query(&grid, Point::new(550.0, 50.0), 100.0), vec![1]);
        // A wide query still sees everyone.
        assert_eq!(query(&grid, Point::new(550.0, 50.0), 600.0), vec![0, 1, 2]);
    }

    #[test]
    fn query_covers_the_full_disc_across_cell_borders() {
        let mut grid = SpatialGrid::new(100.0, 2);
        // Node 1 sits just across a cell border from the query center: the
        // 3×3 neighborhood must still include it.
        grid.update(0, Point::new(99.0, 50.0));
        grid.update(1, Point::new(101.0, 50.0));
        assert_eq!(query(&grid, Point::new(99.0, 50.0), 100.0), vec![0, 1]);
    }

    #[test]
    fn query_handles_radius_larger_than_cell() {
        let mut grid = SpatialGrid::new(44.0, 2);
        grid.update(0, Point::new(0.0, 0.0));
        grid.update(1, Point::new(130.0, 0.0));
        // Radius of three cells: the span math must widen the search window.
        assert_eq!(query(&grid, Point::new(0.0, 0.0), 132.0), vec![0, 1]);
    }

    #[test]
    fn negative_coordinates_are_bucketed_correctly() {
        let mut grid = SpatialGrid::new(100.0, 2);
        grid.update(0, Point::new(-50.0, -50.0));
        grid.update(1, Point::new(-250.0, -250.0));
        assert_eq!(query(&grid, Point::new(-50.0, -50.0), 100.0), vec![0]);
        assert_eq!(query(&grid, Point::new(-150.0, -150.0), 150.0), vec![0, 1]);
    }

    #[test]
    fn results_are_in_ascending_node_order() {
        let mut grid = SpatialGrid::new(100.0, 6);
        // Scatter in reverse so bucket insertion order differs from index order.
        for node in (0..6).rev() {
            grid.update(node, Point::new(node as f64 * 30.0, 0.0));
        }
        let result = query(&grid, Point::new(75.0, 0.0), 100.0);
        let mut sorted = result.clone();
        sorted.sort_unstable();
        assert_eq!(result, sorted);
        assert_eq!(result, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn within_keeps_exactly_the_disc() {
        let mut grid = SpatialGrid::new(100.0, 5);
        grid.update(4, Point::new(100.0, 0.0)); // on the rim: in
        grid.update(3, Point::new(-60.0, 80.0)); // on the rim, next cell: in
        grid.update(2, Point::new(80.0, 80.0)); // same 3×3 block, outside
        grid.update(1, Point::new(100.1, 0.0)); // just outside
        let mut out = vec![99];
        grid.within_into(Point::ORIGIN, 100.0, &mut out);
        assert_eq!(out, vec![0, 3, 4], "overwritten, exact and ascending");
        assert_eq!(query(&grid, Point::ORIGIN, 100.0), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn slots_follow_nodes_through_swap_removes() {
        // Everyone starts in the origin bucket; leaving it in ascending order
        // swaps the last occupant into each vacated slot, so every recorded
        // slot but one's own goes stale unless it is patched.
        let count = 64;
        let mut grid = SpatialGrid::new(100.0, count);
        let home =
            |node: usize, lap: usize| Point::new(((node + lap) % 8) as f64 * 100.0 + 50.0, 1050.0);
        for lap in 0..3 {
            for node in 0..count {
                grid.update(node, home(node, lap));
            }
            for column in 0..8 {
                let expected: Vec<usize> = (0..count)
                    .filter(|node| (node + lap) % 8 == column)
                    .collect();
                let center = Point::new(column as f64 * 100.0 + 50.0, 1050.0);
                assert_eq!(query(&grid, center, 0.0), expected, "lap {lap}");
            }
        }
    }

    #[test]
    fn empty_cells_are_dropped() {
        let mut grid = SpatialGrid::new(100.0, 1);
        for step in 0..100 {
            grid.update(0, Point::new(step as f64 * 500.0, 0.0));
        }
        assert_eq!(grid.buckets.len(), 1, "only the occupied cell may remain");
    }

    #[test]
    #[should_panic]
    fn rejects_non_finite_positions() {
        let mut grid = SpatialGrid::new(100.0, 1);
        grid.update(0, Point::new(f64::NAN, 0.0));
    }

    #[test]
    #[should_panic]
    fn rejects_zero_cell_size() {
        let _ = SpatialGrid::new(0.0, 1);
    }
}
