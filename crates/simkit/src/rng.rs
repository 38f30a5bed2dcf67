//! Deterministic, splittable random number generation.
//!
//! Every experiment in the paper is averaged over 30 independent runs with
//! different seeds. To keep runs reproducible *and* statistically independent,
//! the simulator derives one [`SimRng`] per (run, node, purpose) from a single
//! master seed using a stable mixing function, so adding a node or reordering
//! initialization never perturbs the random streams of other nodes.
//!
//! # Examples
//!
//! ```
//! use simkit::rng::SimRng;
//!
//! let mut root = SimRng::seed_from(42);
//! let mut node_3 = root.derive(3);
//! let speed = node_3.uniform_f64(1.0, 40.0);
//! assert!((1.0..=40.0).contains(&speed));
//!
//! // Deriving the same stream twice yields identical values.
//! let mut again = SimRng::seed_from(42).derive(3);
//! assert_eq!(again.uniform_f64(1.0, 40.0), speed);
//! ```

use crate::time::SimDuration;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic random number generator with helpers for the distributions
/// used throughout the simulator.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
    /// The seed this generator was constructed from (for diagnostics / replay).
    seed: u64,
}

/// SplitMix64 finalizer: a well-distributed 64-bit mixing function used to
/// derive child seeds. Stable across platforms and releases.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(splitmix64(seed)),
            seed,
        }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child generator identified by `stream`.
    ///
    /// The derivation depends only on this generator's seed and `stream`, not on
    /// how many values have already been drawn, so child streams are stable.
    pub fn derive(&self, stream: u64) -> SimRng {
        let child_seed = splitmix64(self.seed ^ splitmix64(stream.wrapping_add(0xA5A5_5A5A)));
        SimRng {
            inner: StdRng::seed_from_u64(child_seed),
            seed: child_seed,
        }
    }

    /// A uniformly distributed `f64` in `[low, high)` (or exactly `low` when the
    /// bounds are equal).
    ///
    /// # Panics
    ///
    /// Panics if `low > high` or either bound is not finite.
    pub fn uniform_f64(&mut self, low: f64, high: f64) -> f64 {
        assert!(low.is_finite() && high.is_finite(), "bounds must be finite");
        assert!(
            low <= high,
            "uniform_f64 requires low <= high, got {low} > {high}"
        );
        if low == high {
            return low;
        }
        self.inner.gen_range(low..high)
    }

    /// A uniformly distributed `u64` in `[low, high]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    pub fn uniform_u64(&mut self, low: u64, high: u64) -> u64 {
        assert!(
            low <= high,
            "uniform_u64 requires low <= high, got {low} > {high}"
        );
        self.inner.gen_range(low..=high)
    }

    /// A uniformly distributed index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "index requires a non-empty range");
        self.inner.gen_range(0..len)
    }

    /// A Bernoulli trial succeeding with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.inner.gen_bool(p)
    }

    /// A uniformly distributed duration in `[low, high]`.
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    pub fn uniform_duration(&mut self, low: SimDuration, high: SimDuration) -> SimDuration {
        SimDuration::from_millis(self.uniform_u64(low.as_millis(), high.as_millis()))
    }

    /// A random jitter in `[0, max)`, used for MAC contention and de-synchronizing
    /// periodic tasks. Returns zero when `max` is zero.
    pub fn jitter(&mut self, max: SimDuration) -> SimDuration {
        if max.is_zero() {
            return SimDuration::ZERO;
        }
        SimDuration::from_millis(self.uniform_u64(0, max.as_millis().saturating_sub(1)))
    }

    /// Chooses `k` distinct indices out of `[0, n)` uniformly at random
    /// (Floyd's algorithm). The result is sorted.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn choose_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot choose {k} indices out of {n}");
        let mut chosen = std::collections::BTreeSet::new();
        for j in (n - k)..n {
            let t = self.index(j + 1);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        chosen.into_iter().collect()
    }

    /// Picks a reference to a random element of `slice`, or `None` if it is empty.
    pub fn pick<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.index(slice.len())])
        }
    }

    /// Picks an index according to non-negative `weights`; heavier entries are
    /// proportionally more likely. Returns `None` if `weights` is empty or sums
    /// to zero.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if weights.is_empty() || total <= 0.0 {
            return None;
        }
        let mut target = self.uniform_f64(0.0, total);
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            if target < w {
                return Some(i);
            }
            target -= w;
        }
        // Floating-point slack: fall back to the last positive-weight entry.
        weights.iter().rposition(|&w| w > 0.0)
    }

    /// Raw access for callers needing the full [`Rng`] API.
    pub fn raw(&mut self) -> &mut impl Rng {
        &mut self.inner
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(8);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(
            same < 4,
            "independent seeds should rarely collide, got {same}/64"
        );
    }

    #[test]
    fn derive_is_stable_and_independent_of_draws() {
        let root = SimRng::seed_from(99);
        let mut before = root.derive(5);
        let mut root2 = SimRng::seed_from(99);
        // Drawing from the root must not change what derive(5) produces.
        let _ = root2.next_u64();
        let mut after = root2.derive(5);
        for _ in 0..16 {
            assert_eq!(before.next_u64(), after.next_u64());
        }
    }

    #[test]
    fn derived_streams_differ_per_index() {
        let root = SimRng::seed_from(1);
        let mut a = root.derive(1);
        let mut b = root.derive(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_f64_respects_bounds() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            let v = rng.uniform_f64(2.5, 7.5);
            assert!((2.5..7.5).contains(&v));
        }
        assert_eq!(rng.uniform_f64(4.0, 4.0), 4.0);
    }

    #[test]
    fn uniform_u64_inclusive() {
        let mut rng = SimRng::seed_from(3);
        let mut seen_low = false;
        let mut seen_high = false;
        for _ in 0..2000 {
            let v = rng.uniform_u64(0, 3);
            assert!(v <= 3);
            seen_low |= v == 0;
            seen_high |= v == 3;
        }
        assert!(
            seen_low && seen_high,
            "both endpoints should eventually appear"
        );
    }

    #[test]
    fn chance_edge_cases() {
        let mut rng = SimRng::seed_from(4);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-3.0));
        assert!(rng.chance(7.0));
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!(
            (1800..3200).contains(&hits),
            "p=0.25 over 10k trials gave {hits}"
        );
    }

    #[test]
    fn choose_indices_distinct_and_in_range() {
        let mut rng = SimRng::seed_from(5);
        let chosen = rng.choose_indices(100, 30);
        assert_eq!(chosen.len(), 30);
        let set: std::collections::HashSet<_> = chosen.iter().collect();
        assert_eq!(set.len(), 30);
        assert!(chosen.iter().all(|&i| i < 100));
        assert!(rng.choose_indices(5, 0).is_empty());
        assert_eq!(rng.choose_indices(5, 5).len(), 5);
    }

    #[test]
    fn pick_weighted_prefers_heavy_entries() {
        let mut rng = SimRng::seed_from(8);
        let weights = [1.0, 0.0, 9.0];
        let mut counts = [0usize; 3];
        for _ in 0..5000 {
            counts[rng.pick_weighted(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight entries must never be picked");
        assert!(counts[2] > counts[0] * 4, "9:1 weights gave {counts:?}");
        assert_eq!(rng.pick_weighted(&[]), None);
        assert_eq!(rng.pick_weighted(&[0.0, 0.0]), None);
    }

    #[test]
    fn jitter_bounded() {
        let mut rng = SimRng::seed_from(9);
        let max = SimDuration::from_millis(20);
        for _ in 0..200 {
            assert!(rng.jitter(max) < max);
        }
        assert_eq!(rng.jitter(SimDuration::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn pick_handles_empty_and_singleton() {
        let mut rng = SimRng::seed_from(10);
        let empty: [u8; 0] = [];
        assert_eq!(rng.pick(&empty), None);
        assert_eq!(rng.pick(&[42]), Some(&42));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn uniform_duration_within_bounds(lo in 0u64..10_000, span in 0u64..10_000, seed in any::<u64>()) {
            let mut rng = SimRng::seed_from(seed);
            let low = SimDuration::from_millis(lo);
            let high = SimDuration::from_millis(lo + span);
            let d = rng.uniform_duration(low, high);
            prop_assert!(d >= low && d <= high);
        }

        #[test]
        fn choose_indices_always_valid(n in 1usize..200, seed in any::<u64>()) {
            let mut rng = SimRng::seed_from(seed);
            let k = rng.index(n + 1);
            let chosen = rng.choose_indices(n, k);
            prop_assert_eq!(chosen.len(), k);
            let uniq: std::collections::HashSet<_> = chosen.iter().collect();
            prop_assert_eq!(uniq.len(), k);
            prop_assert!(chosen.iter().all(|&i| i < n));
        }
    }
}
