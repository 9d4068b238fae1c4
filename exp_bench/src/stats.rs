//! Order statistics over latency samples.

/// Samples that must lie beyond a reported percentile before the
/// harness will print it.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `v` (mean of the two middle values for an even count).
/// Returns `None` for an empty slice.
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// The `p`-quantile (0 < p < 1) of `sorted` by the nearest-rank rule,
/// or `None` when fewer than [`TAIL_SAMPLES`] samples lie beyond it —
/// a tail read off a handful of samples is noise, so the caller must
/// resize the workload instead of relabelling the percentile.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = (p * n as f64).ceil() as usize; // 1-based nearest rank
    if rank == 0 || rank > n || n - rank < TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990 of 1000: exactly ten samples (991..=1000) beyond.
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
        // One sample short: nine beyond rank 990 of 999.
        assert_eq!(tail_percentile(&v[..999], 0.99), None);
        assert_eq!(tail_percentile(&v[..100], 0.5), Some(50.0));
        assert_eq!(tail_percentile(&[], 0.5), None);
    }
}
