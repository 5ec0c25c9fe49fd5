//! Order statistics for the reported timings.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_TAIL`] samples beyond it: with fewer, the
//! percentile is a statement about one or two outliers, not about the
//! tail.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `(0, 1)`) of `v`, or `None` when fewer
/// than [`MIN_TAIL`] samples lie beyond it. `p = 0.9` therefore needs at
/// least 100 samples.
pub fn percentile(v: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let n = v.len();
    let rank = (p * n as f64).ceil() as usize; // 1-based nearest rank
    if rank == 0 || n - rank < MIN_TAIL {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank - 1])
}

/// Smallest sample count for which [`percentile`] reports `p`.
pub fn min_samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| {
            let rank = (p * n as f64).ceil() as usize;
            rank >= 1 && n - rank >= MIN_TAIL
        })
        .expect("some finite sample count has MIN_TAIL samples beyond p")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// p90 needs ten samples beyond it: 100 samples report it, 99 do not.
    #[test]
    fn p90_needs_one_hundred_samples() {
        assert_eq!(min_samples_for(0.9), 100);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(percentile(&hundred[..99], 0.9), None);
    }

    #[test]
    fn median_percentile_needs_twenty_samples() {
        assert_eq!(min_samples_for(0.5), 20);
        let v: Vec<f64> = (0..20).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(9.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
    }

    #[test]
    fn p99_needs_one_thousand_samples() {
        assert_eq!(min_samples_for(0.99), 1000);
    }
}
