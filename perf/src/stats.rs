//! Order statistics over per-round samples.

/// The `p`-th percentile (0..=100) of `samples`, linearly interpolated
/// between the two closest ranks. Panics on an empty slice: a metric with no
/// samples is a harness bug, not a value.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The 10th percentile: the program is deterministic and single-threaded, so
/// host noise only ever adds time, and a low percentile is the steady one.
pub fn p10(samples: &[f64]) -> f64 {
    percentile(samples, 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_vectors() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 10.0), 2.0);
        assert_eq!(percentile(&v, 50.0), 6.0);
        assert_eq!(percentile(&v, 75.0), 8.5);
        // Order must not matter, and ranks between samples interpolate.
        let shuffled = [30.0, 10.0, 40.0, 20.0];
        assert_eq!(percentile(&shuffled, 0.0), 10.0);
        assert_eq!(percentile(&shuffled, 100.0), 40.0);
        assert!((percentile(&shuffled, 10.0) - 13.0).abs() < 1e-12);
        assert_eq!(percentile(&shuffled, 50.0), 25.0);
        assert!((percentile(&shuffled, 75.0) - 32.5).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 10.0), 7.0);
    }
}
