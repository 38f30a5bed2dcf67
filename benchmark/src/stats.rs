//! Order statistics over timing samples and the report fingerprint.

/// Sorted copy of `samples`.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th percentile (0–100) by linear interpolation between order
/// statistics, the same rule as Python's `statistics.quantiles(...,
/// method="inclusive")`. 0.0 for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    let Some(&last) = v.last() else { return 0.0 };
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    match v.get(lo + 1) {
        Some(&next) => v[lo] + (next - v[lo]) * frac,
        None => last,
    }
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, or `None` when even p50 has not. A p99 of 200 samples
/// rests on two of them; this keeps a reported tail from being one outlier.
pub fn highest_supported_percentile(sample_count: usize) -> Option<f64> {
    // In per mille, so that "a tenth of 100 samples is 10" holds exactly.
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|per_mille| sample_count * (1000 - per_mille) >= 10 * 1000)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// FNV-1a over the bytes of `text`.
pub fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Fingerprint of a run report: FNV-1a of its `Debug` text, which covers every
/// field, so two reports hash equal iff they are bit-identical. The same
/// function as in `tests/integration_determinism.rs`, so the golden values
/// there and the ones under `benchmark/expected/` are comparable.
pub fn fingerprint(report: &manet_sim::RunReport) -> u64 {
    fnv1a(&format!("{report:?}"))
}

/// `numerator / denominator`, or 0 when nothing was counted (a workload
/// without traffic has no per-reception cost).
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 95.0), 96.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
        assert_eq!(percentile(&[10.0, 20.0], 25.0), 12.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0x8594_4171_f739_67e8);
    }

    /// The quickstart scenario at seed 42 has a golden fingerprint pinned in
    /// `tests/scenario_compile_roundtrip.rs`; reproducing it here shows this
    /// harness hashes reports the way the repository's own suites do.
    #[test]
    fn fingerprint_reproduces_the_repository_golden_value() {
        let source = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../examples/quickstart.toml"
        ))
        .unwrap();
        let matrix = manet_sim::compile_str(&source).unwrap();
        let report = manet_sim::World::new(matrix.points[0].scenario.clone(), 42)
            .unwrap()
            .run();
        assert_eq!(fingerprint(&report), 0x285d_a779_8f46_f114);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(6.0, 3.0), 2.0);
        assert_eq!(ratio(6.0, 0.0), 0.0);
    }
}
