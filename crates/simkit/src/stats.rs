//! Streaming statistics used to aggregate multi-seed experiment results.
//!
//! The paper averages every data point over 30 simulation runs. [`OnlineStats`]
//! implements Welford's streaming algorithm (numerically stable mean/variance)
//! plus min/max tracking; [`Summary`] is its frozen snapshot with helpers for
//! 95 % confidence intervals. [`percentile`] provides the usual
//! nearest-rank-with-interpolation percentile on a sample.
//!
//! # Examples
//!
//! ```
//! use simkit::stats::OnlineStats;
//!
//! let mut s = OnlineStats::new();
//! for v in [0.9, 0.95, 1.0, 0.85] {
//!     s.push(v);
//! }
//! let summary = s.summary();
//! assert!((summary.mean - 0.925).abs() < 1e-12);
//! assert_eq!(summary.count, 4);
//! ```

use serde::{Deserialize, Serialize};

/// Streaming mean / variance / extrema accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

/// Frozen summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Arithmetic mean (0 when the sample is empty).
    pub mean: f64,
    /// Sample standard deviation (0 when fewer than two observations).
    pub std_dev: f64,
    /// Smallest observation (0 when the sample is empty).
    pub min: f64,
    /// Largest observation (0 when the sample is empty).
    pub max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn push(&mut self, value: f64) {
        assert!(!value.is_nan(), "statistics cannot accumulate NaN");
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = value - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Adds every observation from an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for v in values {
            self.push(v);
        }
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Current mean (0 for an empty sample).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (0 for fewer than two observations).
    fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count as f64 - 1.0)
        }
    }

    /// Sample standard deviation.
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator into this one (parallel aggregation).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Freezes the accumulator into a [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            std_dev: self.std_dev(),
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = OnlineStats::new();
        s.extend(iter);
        s
    }
}

impl Summary {
    /// Half-width of the ~95 % confidence interval on the mean, using the
    /// normal approximation (`1.96 * s / sqrt(n)`). Zero for samples of fewer
    /// than two observations.
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            1.96 * self.std_dev / (self.count as f64).sqrt()
        }
    }

    /// `(lower, upper)` bounds of the ~95 % confidence interval on the mean.
    pub fn ci95(&self) -> (f64, f64) {
        let hw = self.ci95_half_width();
        (self.mean - hw, self.mean + hw)
    }
}

/// Linear-interpolation percentile (`p` in `[0, 100]`) of a sample.
///
/// Returns `None` when the sample is empty.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or any value is NaN.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile must be in [0, 100], got {p}"
    );
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    if sorted.len() == 1 {
        return Some(sorted[0]);
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Mean of a sample (0 for an empty slice). Convenience for ad-hoc aggregation.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_is_all_zero() {
        let s = OnlineStats::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn mean_and_stddev_match_reference() {
        let s: OnlineStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        let sum = s.summary();
        assert!((sum.mean - 5.0).abs() < 1e-12);
        // sample std dev of that classic dataset is sqrt(32/7)
        assert!((sum.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(sum.min, 2.0);
        assert_eq!(sum.max, 9.0);
        assert_eq!(sum.count, 8);
    }

    #[test]
    fn single_observation() {
        let mut s = OnlineStats::new();
        s.push(3.5);
        let sum = s.summary();
        assert_eq!(sum.mean, 3.5);
        assert_eq!(sum.std_dev, 0.0);
        assert_eq!(sum.min, 3.5);
        assert_eq!(sum.max, 3.5);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37 - 5.0).collect();
        let mut whole = OnlineStats::new();
        whole.extend(data.iter().copied());

        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        a.extend(data[..40].iter().copied());
        b.extend(data[40..].iter().copied());
        a.merge(&b);

        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.std_dev() - whole.std_dev()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: OnlineStats = [1.0, 2.0, 3.0].into_iter().collect();
        let before = a.summary();
        a.merge(&OnlineStats::new());
        assert_eq!(a.summary(), before);

        let mut empty = OnlineStats::new();
        empty.merge(&a);
        assert_eq!(empty.summary(), before);
    }

    #[test]
    fn ci95_shrinks_with_sample_size() {
        let small: OnlineStats = (0..10).map(|i| i as f64).collect();
        let large: OnlineStats = (0..1000).map(|i| (i % 10) as f64).collect();
        assert!(large.summary().ci95_half_width() < small.summary().ci95_half_width());
        let (lo, hi) = small.summary().ci95();
        assert!(lo < small.mean() && small.mean() < hi);
    }

    #[test]
    fn percentile_basics() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(5.0));
        assert_eq!(percentile(&v, 50.0), Some(3.0));
        assert_eq!(percentile(&v, 25.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0];
        assert_eq!(percentile(&v, 50.0), Some(15.0));
        assert_eq!(percentile(&v, 75.0), Some(17.5));
    }

    #[test]
    fn percentile_order_independent() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        let shuffled = [3.0, 1.0, 4.0, 2.0];
        assert_eq!(percentile(&sorted, 30.0), percentile(&shuffled, 30.0));
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        let mut s = OnlineStats::new();
        s.push(f64::NAN);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Welford mean always equals the naive mean (within float tolerance).
        #[test]
        fn streaming_mean_matches_naive(values in proptest::collection::vec(-1e6f64..1e6, 1..500)) {
            let s: OnlineStats = values.iter().copied().collect();
            let naive = values.iter().sum::<f64>() / values.len() as f64;
            prop_assert!((s.mean() - naive).abs() < 1e-6 * (1.0 + naive.abs()));
            prop_assert!(s.summary().min <= s.mean() + 1e-9);
            prop_assert!(s.summary().max >= s.mean() - 1e-9);
        }

        /// Merging two halves is equivalent to accumulating the whole sample.
        #[test]
        fn merge_is_associative_with_split(values in proptest::collection::vec(-1e3f64..1e3, 2..200),
                                           split in 0usize..200) {
            let split = split % values.len();
            let mut whole = OnlineStats::new();
            whole.extend(values.iter().copied());
            let mut left = OnlineStats::new();
            left.extend(values[..split].iter().copied());
            let mut right = OnlineStats::new();
            right.extend(values[split..].iter().copied());
            left.merge(&right);
            prop_assert_eq!(left.count(), whole.count());
            prop_assert!((left.mean() - whole.mean()).abs() < 1e-7);
            prop_assert!((left.variance() - whole.variance()).abs() < 1e-5 * (1.0 + whole.variance()));
        }

        /// Percentiles are monotone in `p` and bounded by the extrema.
        #[test]
        fn percentile_monotone(values in proptest::collection::vec(-1e4f64..1e4, 1..100),
                               p1 in 0f64..100.0, p2 in 0f64..100.0) {
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let a = percentile(&values, lo).unwrap();
            let b = percentile(&values, hi).unwrap();
            prop_assert!(a <= b + 1e-9);
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(a >= min - 1e-9 && b <= max + 1e-9);
        }
    }
}
