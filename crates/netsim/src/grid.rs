//! Dense spatial index over node positions.
//!
//! [`SpatialGrid`] buckets nodes into square cells (the radio range, for the
//! medium's use) so that "who is within `r` meters of this point?" touches
//! only the cells overlapping the query disc instead of every node. With the
//! cell size equal to the radio range, a reception query visits the 3×3 cell
//! neighborhood of the sender — O(neighbors) instead of O(nodes) — which is
//! what keeps dense, paper-scale-and-beyond sweeps tractable.
//!
//! The cells are a dense row-major array over the bounding box of the
//! positions. Nodes are counting-sorted by cell, ascending within a cell, with
//! their positions copied beside them, so one row of a query window is one
//! contiguous run of slots. [`SpatialGrid::update`] only stores the position
//! and marks the index stale; the next query rebuilds it in O(nodes + cells).
//! A sparse layout would need more cells than nodes, so the index doubles its
//! cell size until the box fits in `max(4·nodes, 64)` cells, a bound its
//! buffers are reserved for once.
//!
//! Determinism contract: [`SpatialGrid::within_into`] (exact) and
//! [`SpatialGrid::query_into`] (whole cells) return node indices in
//! **ascending index order**, exactly the order the brute-force scan over
//! `0..node_count` visits them. Because out-of-range nodes consume no
//! randomness during reception resolution, resolving the in-range nodes in
//! that order consumes the RNG stream bit-identically to the full scan.

use mobility::Point;

/// Fewest cells the index may use, however few the nodes.
const MIN_CELLS: usize = 64;

/// Relative widening of a query window beyond the disc's bounding box. It
/// covers the rounding of the window bounds and of the distance test (a few
/// ulps of the coordinates and radius), so no node the exact filter accepts
/// can sit in a cell the window leaves out (for one that the bare bounding
/// box would miss, see `window_keeps_nodes_whose_offset_rounds_onto_the_rim`).
/// Offsets too small for it, where squared distances go subnormal, occur
/// only within 1e-140 m of the axes, inside cell 0.
const WINDOW_SLACK: f64 = 1e-12;

/// A spatial index: node index → position, and a lazily rebuilt dense cell
/// index for queries.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    /// Side of a cell while the nodes are dense enough.
    cell_size: f64,
    positions: Vec<Point>,
    /// Whether a position changed since the index was last built.
    stale: bool,
    index: CellIndex,
}

/// The dense cell array over the positions' bounding box, as of its last
/// rebuild. Cell `(col, row)` is `row * cols + col`; a node at `p` sits in
/// column `axis(p.x, inv) - min_col` and row `axis(p.y, inv) - min_row`.
#[derive(Debug, Clone, Default)]
struct CellIndex {
    /// One over the side of a cell, the grid's cell size doubled until the
    /// box fits.
    inv: f64,
    /// Column and row of the box's lower corner.
    min_col: i64,
    min_row: i64,
    cols: usize,
    rows: usize,
    /// `starts[c]..starts[c + 1]` are the slots of cell `c`.
    starts: Vec<u32>,
    /// Node of each slot: by cell, ascending within one.
    nodes: Vec<u32>,
    /// Position of each slot's node.
    points: Vec<Point>,
    /// Cell of each node, scratch for the counting sort.
    cells: Vec<u32>,
}

impl CellIndex {
    /// The columns (or rows) whose cells overlap `[low, high]`, clamped to
    /// the box, or `None` when the interval misses it. Cell coordinates are
    /// computed as for the nodes, so monotonicity alone (not exact
    /// arithmetic) keeps every node inside the interval in the range.
    fn span(&self, low: f64, high: f64, min: i64, len: usize) -> Option<(usize, usize)> {
        let first = i128::from(axis(low, self.inv)) - i128::from(min);
        let last = i128::from(axis(high, self.inv)) - i128::from(min);
        let top = len as i128 - 1;
        if last < 0 || first > top {
            return None;
        }
        Some((first.max(0) as usize, last.min(top) as usize))
    }
}

/// The column (or row) of coordinate `v` in cells of side `1 / inv`:
/// `v · inv` truncated toward zero, saturating at the ends of `i64`. Any
/// non-decreasing map of coordinates to cells keeps the index exact; this
/// one makes cell 0 twice as wide (it spans `(-cell, cell)`), and it is a
/// multiply and a convert where `floor` is a library call on baseline
/// x86-64.
fn axis(v: f64, inv: f64) -> i64 {
    (v * inv) as i64
}

impl SpatialGrid {
    /// Creates a grid of `node_count` nodes, all initially at the origin.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite, or if the
    /// cell bound of `node_count` nodes exceeds `u32::MAX`.
    pub fn new(cell_size: f64, node_count: usize) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell size must be positive and finite, got {cell_size}"
        );
        u32::try_from(cell_bound(node_count) + 1).expect("node count exceeds u32");
        SpatialGrid {
            cell_size,
            positions: vec![Point::ORIGIN; node_count],
            stale: true,
            index: CellIndex::default(),
        }
    }

    /// Current position of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn position(&self, node: usize) -> Point {
        self.positions[node]
    }

    /// Moves `node` to `position`; the next query re-indexes.
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
        self.stale = true;
    }

    /// Overwrites `out` with every node whose cell overlaps the disc of
    /// `radius` around `center`, in ascending node-index order. The result is
    /// a superset of the nodes actually within `radius` and never misses one;
    /// [`SpatialGrid::within_into`] is the exact variant.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    pub fn query_into(&mut self, center: Point, radius: f64, out: &mut Vec<usize>) {
        out.clear();
        self.for_each_run(center, radius, |nodes, _| {
            out.extend(nodes.iter().map(|&node| node as usize));
        });
        // Each node lives in exactly one cell, so sorting suffices (no dedup)
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
    pub fn within_into(&mut self, center: Point, radius: f64, out: &mut Vec<usize>) {
        out.clear();
        self.for_each_run(center, radius, |nodes, points| {
            for (&node, point) in nodes.iter().zip(points) {
                if point.distance(center) <= radius {
                    out.push(node as usize);
                }
            }
        });
        out.sort_unstable();
    }

    /// Calls `visit` with the nodes (and their positions) of each row's run
    /// of cells overlapping the disc of `radius` around `center`, rebuilding
    /// the index first if a node moved.
    fn for_each_run(
        &mut self,
        center: Point,
        radius: f64,
        mut visit: impl FnMut(&[u32], &[Point]),
    ) {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "query radius must be non-negative and finite, got {radius}"
        );
        if self.stale {
            self.rebuild();
        }
        let index = &self.index;
        if index.cols == 0 {
            return;
        }
        let reach = radius + (center.x.abs() + center.y.abs() + radius) * WINDOW_SLACK;
        let columns = index.span(
            center.x - reach,
            center.x + reach,
            index.min_col,
            index.cols,
        );
        let rows = index.span(
            center.y - reach,
            center.y + reach,
            index.min_row,
            index.rows,
        );
        let (Some((first_col, last_col)), Some((first_row, last_row))) = (columns, rows) else {
            return;
        };
        for row in first_row..=last_row {
            let base = row * index.cols;
            let run =
                index.starts[base + first_col] as usize..index.starts[base + last_col + 1] as usize;
            visit(&index.nodes[run.clone()], &index.points[run]);
        }
    }

    /// Re-indexes every node: sizes the box (doubling the cell until it fits
    /// the cell bound), then counting-sorts the nodes by cell.
    fn rebuild(&mut self) {
        self.stale = false;
        let index = &mut self.index;
        let Some(&first) = self.positions.first() else {
            (index.cols, index.rows) = (0, 0);
            return;
        };
        let (mut low, mut high) = (first, first);
        for p in &self.positions {
            (low.x, low.y) = (low.x.min(p.x), low.y.min(p.y));
            (high.x, high.y) = (high.x.max(p.x), high.y.max(p.y));
        }
        let bound = cell_bound(self.positions.len());
        // Terminates with a finite cell: once it exceeds half the largest
        // finite coordinate, each axis has at most three columns (-1, 0, 1).
        let mut cell = self.cell_size;
        let (cols, rows) = loop {
            index.inv = cell.recip();
            index.min_col = axis(low.x, index.inv);
            index.min_row = axis(low.y, index.inv);
            let cols = i128::from(axis(high.x, index.inv)) - i128::from(index.min_col) + 1;
            let rows = i128::from(axis(high.y, index.inv)) - i128::from(index.min_row) + 1;
            if (cols as u128).saturating_mul(rows as u128) <= bound as u128 {
                break (cols as usize, rows as usize);
            }
            cell *= 2.0;
        };
        (index.cols, index.rows) = (cols, rows);

        let count = cols * rows;
        index.starts.clear();
        index.starts.reserve_exact(bound + 1);
        index.starts.resize(count + 1, 0);
        index.cells.clear();
        for p in &self.positions {
            let col = axis(p.x, index.inv).wrapping_sub(index.min_col) as usize;
            let row = axis(p.y, index.inv).wrapping_sub(index.min_row) as usize;
            let at = row * cols + col;
            index.cells.push(at as u32);
            index.starts[at] += 1;
        }
        // Exclusive prefix sum: `starts[c]` becomes the first slot of `c`.
        let mut total = 0;
        for start in &mut index.starts {
            (*start, total) = (total, total + *start);
        }
        let len = self.positions.len();
        index.nodes.resize(len, 0);
        index.points.resize(len, Point::ORIGIN);
        for (node, (&at, &p)) in index.cells.iter().zip(&self.positions).enumerate() {
            let slot = &mut index.starts[at as usize];
            index.nodes[*slot as usize] = node as u32;
            index.points[*slot as usize] = p;
            *slot += 1;
        }
        // Each `starts[c]` now holds the end of `c`, the start of `c + 1`.
        index.starts.copy_within(0..count, 1);
        index.starts[0] = 0;
    }
}

/// Most cells the index of `node_count` nodes may use.
fn cell_bound(node_count: usize) -> usize {
    node_count.saturating_mul(4).max(MIN_CELLS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(grid: &mut SpatialGrid, center: Point, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        grid.query_into(center, radius, &mut out);
        out
    }

    #[test]
    fn starts_with_everyone_at_the_origin() {
        let mut grid = SpatialGrid::new(100.0, 4);
        assert_eq!(grid.positions.len(), 4);
        assert_eq!(grid.position(2), Point::ORIGIN);
        assert_eq!(query(&mut grid, Point::ORIGIN, 50.0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn update_moves_nodes_between_cells() {
        let mut grid = SpatialGrid::new(100.0, 3);
        grid.update(0, Point::new(50.0, 50.0));
        grid.update(1, Point::new(550.0, 50.0));
        grid.update(2, Point::new(1050.0, 50.0));
        assert_eq!(query(&mut grid, Point::new(50.0, 50.0), 100.0), vec![0]);
        assert_eq!(query(&mut grid, Point::new(550.0, 50.0), 100.0), vec![1]);
        // A wide query still sees everyone.
        assert_eq!(
            query(&mut grid, Point::new(550.0, 50.0), 600.0),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn query_covers_the_full_disc_across_cell_borders() {
        let mut grid = SpatialGrid::new(100.0, 2);
        // Node 1 sits just across a cell border from the query center: the
        // 3×3 neighborhood must still include it.
        grid.update(0, Point::new(99.0, 50.0));
        grid.update(1, Point::new(101.0, 50.0));
        assert_eq!(query(&mut grid, Point::new(99.0, 50.0), 100.0), vec![0, 1]);
    }

    #[test]
    fn query_handles_radius_larger_than_cell() {
        let mut grid = SpatialGrid::new(44.0, 2);
        grid.update(0, Point::new(0.0, 0.0));
        grid.update(1, Point::new(130.0, 0.0));
        // Radius of three cells: the window must widen past the 3×3 block.
        assert_eq!(query(&mut grid, Point::new(0.0, 0.0), 132.0), vec![0, 1]);
    }

    #[test]
    fn negative_coordinates_are_bucketed_correctly() {
        let mut grid = SpatialGrid::new(100.0, 2);
        grid.update(0, Point::new(-50.0, -50.0));
        grid.update(1, Point::new(-250.0, -250.0));
        assert_eq!(query(&mut grid, Point::new(-50.0, -50.0), 100.0), vec![0]);
        assert_eq!(
            query(&mut grid, Point::new(-150.0, -150.0), 150.0),
            vec![0, 1]
        );
    }

    #[test]
    fn results_are_in_ascending_node_order() {
        let mut grid = SpatialGrid::new(100.0, 6);
        // Scatter in reverse so cell order differs from index order.
        for node in (0..6).rev() {
            grid.update(node, Point::new(node as f64 * 30.0, 0.0));
        }
        let result = query(&mut grid, Point::new(75.0, 0.0), 100.0);
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
        assert_eq!(query(&mut grid, Point::ORIGIN, 100.0), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn window_keeps_nodes_whose_offset_rounds_onto_the_rim() {
        // `x - center.x` rounds to exactly `-radius`, so the distance test
        // accepts node 0, although `center.x - radius` rounds to 442.0, the
        // first point of the next cell: only the window slack reaches it.
        let (center, radius) = (Point::new(1487.4137137723633, 0.0), 1045.4137137723633);
        let mut grid = SpatialGrid::new(442.0, 2);
        grid.update(0, Point::new(441.9999999999999, 0.0));
        grid.update(1, Point::new(441.9999999999999, 1.0));
        assert_eq!(grid.position(0).distance(center), radius);
        let mut out = Vec::new();
        grid.within_into(center, radius, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn slots_follow_nodes_through_swap_removes() {
        // Everyone starts in the origin cell, then the nodes deal themselves
        // over eight columns, a different column each lap: every rebuild
        // must place each node in its current cell only.
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
                assert_eq!(query(&mut grid, center, 0.0), expected, "lap {lap}");
            }
        }
    }

    #[test]
    fn empty_cells_are_dropped() {
        // One node wandering far: the box follows it instead of growing with
        // the ground covered, and its cell array never outgrows the first
        // reservation.
        let mut grid = SpatialGrid::new(100.0, 2);
        let _ = query(&mut grid, Point::ORIGIN, 0.0);
        let capacity = grid.index.starts.capacity();
        assert!(capacity > MIN_CELLS);
        for step in 1..100 {
            grid.update(0, Point::new(step as f64 * 500.0, 0.0));
            assert_eq!(query(&mut grid, Point::ORIGIN, 0.0), vec![1]);
            assert!(grid.index.cols * grid.index.rows <= MIN_CELLS);
            assert_eq!(grid.index.starts.capacity(), capacity);
        }
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

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use simkit::SimRng;

    /// The brute-force oracle: every node at most `radius` from `center`,
    /// by the same distance test, in index order.
    fn brute(positions: &[Point], center: Point, radius: f64) -> Vec<usize> {
        (0..positions.len())
            .filter(|&node| positions[node].distance(center) <= radius)
            .collect()
    }

    /// Checks both queries at `center` against the brute-force scan: exact
    /// for `within_into`, a duplicate-free superset for `query_into`, both
    /// ascending; and the index within its cell bound.
    fn check(grid: &mut SpatialGrid, center: Point, radius: f64) {
        let expected = brute(&grid.positions.clone(), center, radius);
        let mut within = Vec::new();
        grid.within_into(center, radius, &mut within);
        prop_assert_eq!(&within, &expected);
        let mut cells = Vec::new();
        grid.query_into(center, radius, &mut cells);
        prop_assert!(
            cells.windows(2).all(|w| w[0] < w[1]),
            "ascending, no duplicates"
        );
        prop_assert!(cells.last().is_none_or(|&node| node < grid.positions.len()));
        let mut missed = expected
            .iter()
            .filter(|node| cells.binary_search(node).is_err());
        prop_assert!(
            missed.next().is_none(),
            "query_into missed a node in the disc"
        );
        let index = &grid.index;
        prop_assert!(index.cols * index.rows <= cell_bound(grid.positions.len()));
        prop_assert!(index.cols == 0 || index.inv > 0.0, "the cell stays finite");
    }

    proptest! {
        /// Both queries agree with the brute-force scan while nodes move
        /// between queries, over 0- and 1-node grids, negative coordinates,
        /// layouts sparse enough to double the cell many times (sides up to
        /// a million ranges' worth of a handful of nodes) and centres
        /// outside the indexed box.
        #[test]
        fn grid_queries_match_brute_force_scan(
            seed in any::<u64>(),
            nodes in prop_oneof![0usize..2, 2usize..40, 2usize..40],
            side in 1.0f64..1.0e6,
            steps in 1usize..30,
        ) {
            const CELL: f64 = 150.0;
            let mut scatter = SimRng::seed_from(seed);
            let mut grid = SpatialGrid::new(CELL, nodes);
            let anywhere = |scatter: &mut SimRng, margin: f64| {
                Point::new(
                    scatter.uniform_f64(-side - margin, side + margin),
                    scatter.uniform_f64(-side - margin, side + margin),
                )
            };
            for node in 0..nodes {
                let at = anywhere(&mut scatter, 0.0);
                grid.update(node, at);
            }
            for _ in 0..steps {
                for _ in 0..scatter.index(4) {
                    if nodes > 0 {
                        let at = anywhere(&mut scatter, 0.0);
                        grid.update(scatter.index(nodes), at);
                    }
                }
                // Centres on a node, or anywhere up to a side beyond the box.
                let center = if nodes > 0 && scatter.chance(0.5) {
                    grid.position(scatter.index(nodes))
                } else {
                    anywhere(&mut scatter, side)
                };
                let radius = match scatter.index(4) {
                    0 => 0.0,
                    1 => CELL,
                    2 => scatter.uniform_f64(0.0, 3.0 * CELL),
                    _ => scatter.uniform_f64(0.0, 2.0 * side),
                };
                check(&mut grid, center, radius);
            }
        }

        /// Coordinates up to ±1e300 (so the cell doubles nearly to the
        /// largest finite `f64`, and the loop must still stop), mixed with
        /// ordinary ones, queried at radii from zero to 1e300.
        #[test]
        fn grid_survives_extreme_coordinates(
            seed in any::<u64>(),
            nodes in 1usize..12,
            steps in 1usize..12,
        ) {
            let mut scatter = SimRng::seed_from(seed);
            let mut grid = SpatialGrid::new(150.0, nodes);
            let coordinate = |scatter: &mut SimRng| match scatter.index(4) {
                0 => if scatter.chance(0.5) { 1e300 } else { -1e300 },
                1 => scatter.uniform_f64(-1e300, 1e300),
                2 => scatter.uniform_f64(-1e3, 1e3),
                _ => 0.0,
            };
            for node in 0..nodes {
                let at = Point::new(coordinate(&mut scatter), coordinate(&mut scatter));
                grid.update(node, at);
            }
            for _ in 0..steps {
                let node = scatter.index(nodes);
                let at = Point::new(coordinate(&mut scatter), coordinate(&mut scatter));
                grid.update(node, at);
                let center = if scatter.chance(0.5) {
                    grid.position(scatter.index(nodes))
                } else {
                    Point::new(coordinate(&mut scatter), coordinate(&mut scatter))
                };
                let radius = match scatter.index(3) {
                    0 => 0.0,
                    1 => scatter.uniform_f64(0.0, 1e3),
                    _ => scatter.uniform_f64(0.0, 1e300),
                };
                check(&mut grid, center, radius);
            }
        }
    }
}
