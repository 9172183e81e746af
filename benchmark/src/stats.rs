//! Percentiles, medians and quartiles.

/// How many samples must lie beyond a percentile before it is reported
/// (choosing-metrics §1): a P99.9 over 2 000 samples is two samples' worth
/// of evidence and is withheld.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Exact nearest-rank percentile of `sorted` (ascending): the value at rank
/// `ceil(p/100 * n)`, `p` taken to two decimals. `None` when fewer than
/// [`MIN_SAMPLES_BEYOND`] samples lie beyond that rank.
///
/// The whole sample vector is ranked; `ldc_obs::LatencyHistogram` would
/// quantise at ~6 % (16 buckets per octave).
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    // In integers: 99.9 / 100 * 10 000 is 9990.000000000002 in floating
    // point, whose ceiling is one rank too high.
    let hundredths = (p * 100.0).round() as usize;
    let rank = (hundredths * n).div_ceil(10_000).clamp(1, n.max(1));
    if n < rank + MIN_SAMPLES_BEYOND {
        return None;
    }
    sorted.get(rank - 1).copied()
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), so a spread computed here equals the
/// one the benchmark's driver computes. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, clamped to the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median; `None` below two
/// values or with a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
