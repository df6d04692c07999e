//! Order statistics for latency samples.

/// Exact nearest-rank percentile: the smallest sample with at least
/// `p` percent of the samples at or below it. `None` when empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts a copy and takes the nearest-rank percentile.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, p)
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_hand_cases() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&ten, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&ten, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&ten, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&ten, 99.0), Some(10.0));
        assert_eq!(nearest_rank(&ten, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&ten, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));

        // 1000 samples: p99 is the 990th smallest, so exactly ten
        // samples lie beyond it.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&thousand, 99.0), Some(990.0));
        assert_eq!(nearest_rank(&thousand, 50.0), Some(500.0));
        let beyond = thousand.iter().filter(|&&x| x > 990.0).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn percentile_sorts_its_input() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[5.0, 9.0, 1.0], 100.0), Some(9.0));
    }
}
