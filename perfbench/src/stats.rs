//! Order statistics for the reported timings.
//!
//! A timing is reported as its median and its highest percentile that still
//! has at least [`MIN_BEYOND`] samples beyond it, so the tail figure rests
//! on real observations rather than on one or two outliers.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles considered, highest first.
const TAILS: [f64; 3] = [0.999, 0.99, 0.9];

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least a `p` share of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Median (lower middle for an even count).
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(&sorted(samples), 0.5)
}

/// The `p` percentile, refused (`None`) when fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn percentile_checked(samples: &[f64], p: f64) -> Option<f64> {
    (beyond(samples.len(), p) >= MIN_BEYOND).then(|| nearest_rank(&sorted(samples), p))
}

/// The highest of p99.9, p99 and p90 that has at least [`MIN_BEYOND`]
/// samples beyond it, with its percentile; `None` when even p90 has too few.
pub fn highest_tail(samples: &[f64]) -> Option<(f64, f64)> {
    TAILS
        .iter()
        .find_map(|&p| percentile_checked(samples, p).map(|v| (p, v)))
}

/// `n`, median and the highest supported tail of `samples`, for the
/// human-readable report lines.
pub fn summary(samples: &[f64]) -> String {
    let tail = match highest_tail(samples) {
        Some((p, v)) => format!("p{} {v:.4}", p * 100.0),
        None => format!("no tail with {MIN_BEYOND} samples beyond it"),
    };
    format!("n {} median {:.4} {tail}", samples.len(), median(samples))
}

/// The `p` percentile of weighted samples `(value, weight)`: the nearest-rank
/// percentile of the samples with each value repeated `weight` times.
/// Refused (`None`) when fewer than [`MIN_BEYOND`] of those repeated samples
/// lie beyond it.
pub fn weighted_percentile(samples: &[(f64, u64)], p: f64) -> Option<f64> {
    let total = samples.iter().map(|&(_, w)| w as usize).sum();
    if total == 0 || beyond(total, p) < MIN_BEYOND {
        return None;
    }
    let r = rank(total, p);
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut seen = 0;
    v.into_iter().find_map(|(value, w)| {
        seen += w as usize;
        (seen >= r).then_some(value)
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending, so the functions must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 5.0);
        assert_eq!(median(&ramp(101)), 51.0);
    }

    #[test]
    fn summary_names_the_tail_it_can_support() {
        assert_eq!(summary(&ramp(1000)), "n 1000 median 500.0000 p99 990.0000");
        assert_eq!(summary(&ramp(100)), "n 100 median 50.0000 p90 90.0000");
        assert!(summary(&ramp(50)).ends_with("no tail with 10 samples beyond it"));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(percentile_checked(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile_checked(&ramp(99), 0.9), None);
        assert_eq!(percentile_checked(&ramp(5), 0.9), None);
    }

    #[test]
    fn weighted_percentile_repeats_each_value_by_its_weight() {
        // Weights 1..=20 on values 20..=1: the same as the expanded samples.
        let weighted: Vec<(f64, u64)> = (1..=20u64).map(|w| ((21 - w) as f64, w)).collect();
        let expanded: Vec<f64> = weighted
            .iter()
            .flat_map(|&(v, w)| std::iter::repeat(v).take(w as usize))
            .collect();
        for p in [0.1, 0.5, 0.9, 0.95] {
            assert_eq!(
                weighted_percentile(&weighted, p),
                percentile_checked(&expanded, p),
                "p={p}"
            );
        }
        // One heavy sample carries the median.
        assert_eq!(
            weighted_percentile(&[(1.0, 5), (7.0, 90), (9.0, 5)], 0.5),
            Some(7.0)
        );
        // p90 needs ten repeated samples beyond it.
        assert_eq!(weighted_percentile(&[(1.0, 90), (2.0, 10)], 0.9), Some(1.0));
        assert_eq!(weighted_percentile(&[(1.0, 89), (2.0, 10)], 0.9), None);
        assert_eq!(weighted_percentile(&[], 0.5), None);
    }

    #[test]
    fn highest_tail_picks_the_highest_supported_percentile() {
        assert_eq!(highest_tail(&ramp(99)), None);
        assert_eq!(highest_tail(&ramp(100)), Some((0.9, 90.0)));
        // p99 of 999 samples has only 9 beyond it.
        assert_eq!(highest_tail(&ramp(999)), Some((0.9, 900.0)));
        assert_eq!(highest_tail(&ramp(1000)), Some((0.99, 990.0)));
        assert_eq!(highest_tail(&ramp(10_000)), Some((0.999, 9990.0)));
        // Every reported tail has at least ten samples beyond it.
        for n in [100, 150, 999, 1000, 5000, 10_000, 12_345] {
            let (p, _) = highest_tail(&ramp(n)).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }
}
