//! Nearest-rank percentiles and the ten-samples-beyond rule.

use ldc_benchmark::stats::{percentile, MIN_SAMPLES_BEYOND};

#[test]
fn nearest_rank_is_exact_on_the_full_sample() {
    // 1..=1000: the P-th percentile by nearest rank is ceil(P/100 * 1000).
    let sorted: Vec<u64> = (1..=1000).collect();
    assert_eq!(percentile(&sorted, 50.0), Some(500));
    assert_eq!(percentile(&sorted, 90.0), Some(900));
    assert_eq!(percentile(&sorted, 98.9), Some(989));
    // No interpolation, no bucket edges: the value is a sample.
    let gaps: Vec<u64> = (0..1000).map(|i| i * i).collect();
    assert_eq!(percentile(&gaps, 25.0), Some(249 * 249));
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    let sorted: Vec<u64> = (1..=1000).collect();
    // P99 of 1000 samples is rank 990: exactly ten lie beyond it.
    assert_eq!(percentile(&sorted, 99.0), Some(990));
    // P99.1 is rank 991: nine beyond.
    assert_eq!(percentile(&sorted, 99.1), None);
    assert_eq!(percentile(&sorted, 99.9), None);
    // P99.9 needs 10 000 samples, P99.99 100 000.
    let many: Vec<u64> = (1..=10_000).collect();
    assert_eq!(percentile(&many, 99.9), Some(9_990));
    assert_eq!(percentile(&many[..9_999], 99.9), None);
    // The median needs twenty samples.
    let few: Vec<u64> = (1..=2 * MIN_SAMPLES_BEYOND as u64).collect();
    assert_eq!(percentile(&few, 50.0), Some(10));
    assert_eq!(percentile(&few[..19], 50.0), None);
    assert_eq!(percentile(&[], 50.0), None);
}
