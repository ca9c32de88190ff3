//! Order statistics over small samples of wall times.

/// `values` sorted ascending (wall times are never NaN).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The smallest value: the fastest of a set of repeats.
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn fastest(values: &[f64]) -> f64 {
    values
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .expect("fastest of an empty sample")
}

/// The three quartile cut points, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so a
/// spread computed here is the spread the driver computes. A single sample
/// is its own quartiles.
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let m = v.len();
    assert!(m > 0, "quartiles of an empty sample");
    if m == 1 {
        return [v[0]; 3];
    }
    [1usize, 2, 3].map(|i| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// The median (the middle quartile).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Nearest-rank percentile, `p` in `0..=100`.
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Interquartile range as a share of the median: the run-to-run spread the
/// benchmark contract bounds.
#[must_use]
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn median_selects_the_middle_of_unsorted_input() {
        assert_eq!(fastest(&[9.0, 1.0, 5.0]), 1.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=28).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 14.0);
        assert_eq!(percentile(&v, 90.0), 26.0);
        assert_eq!(percentile(&v, 100.0), 28.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
    }

    #[test]
    fn iqr_share_of_a_constant_sample_is_zero() {
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0, 2.0]), 0.0);
    }
}
