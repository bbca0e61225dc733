//! The harness's own arithmetic: percentiles, the tail rule, quartiles
//! and the paired-win count the compare tool rests on.

/// Percentiles a timing may report as its tail, lowest first.
pub const TAIL_PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Nearest-rank percentile `pct` (0–100] of `values`: the smallest
/// sample with at least `pct` % of the samples at or below it. `None`
/// for an empty sample.
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile_sorted(&sorted, pct))
}

/// 1-based nearest rank of percentile `pct` among `n` samples. The
/// small slack keeps a product like 0.999 × 10 000 = 9990.000…02 from
/// rounding up a whole rank.
fn rank(n: usize, pct: f64) -> usize {
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    sorted[rank(sorted.len(), pct) - 1]
}

/// The median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The highest of [`TAIL_PERCENTILES`] with at least ten samples
/// strictly beyond its rank, and its value: a percentile with fewer
/// samples past it is one or two outliers, not a tail. `None` when even
/// the median lacks ten samples beyond it (fewer than 20 samples).
pub fn supported_tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    TAIL_PERCENTILES
        .iter()
        .rev()
        .find(|&&pct| n >= 1 && n - rank(n, pct) >= 10)
        .map(|&pct| (pct, percentile_sorted(&sorted, pct)))
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them (its default "exclusive" method), so spreads
/// read the same here as in any script that re-checks the runs.
/// `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range (Q3 − Q1) by [`quartiles`].
pub fn iqr(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|(q1, q3)| q3 - q1)
}

/// Pairs the change wins: `change[i]` strictly better than `parent[i]`
/// in the metric's direction. Ties count for neither side.
pub fn pair_wins(parent: &[f64], change: &[f64], higher_is_better: bool) -> usize {
    parent
        .iter()
        .zip(change)
        .filter(|(p, c)| if higher_is_better { c > p } else { c < p })
        .count()
}

/// The gain rule: the change wins at least nine tenths of the pairs,
/// its median is better, and the medians differ by more than the
/// parent's own interquartile range.
pub fn is_gain(parent: &[f64], change: &[f64], higher_is_better: bool) -> bool {
    let pairs = parent.len().min(change.len());
    let (Some(mp), Some(mc), Some(spread)) = (median(parent), median(change), iqr(parent)) else {
        return false;
    };
    let better = if higher_is_better { mc > mp } else { mc < mp };
    pairs > 0
        && pair_wins(parent, change, higher_is_better) * 10 >= pairs * 9
        && better
        && (mc - mp).abs() > spread
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 19 samples: the median (rank 10) has only 9 beyond it.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(supported_tail(&v), None);
        // 20 samples: exactly 10 beyond the median.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(supported_tail(&v), Some((50.0, 10.0)));
        // 100 samples: p90 has 10 beyond it, p99 only 1.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_tail(&v), Some((90.0, 90.0)));
        // 1000 samples: p99 has 10 beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_tail(&v), Some((99.0, 990.0)));
        // 10 000 samples: p99.9 has 10 beyond it.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(supported_tail(&v), Some((99.9, 9990.0)));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(iqr(&v), Some(5.5));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), Some((1.5, 4.5)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(iqr(&[1.0]), None);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let parent = [10.0, 10.0, 10.0, 10.0];
        let change = [9.0, 10.0, 11.0, 8.0];
        assert_eq!(pair_wins(&parent, &change, false), 2);
        assert_eq!(pair_wins(&parent, &change, true), 1);
    }

    #[test]
    fn gain_needs_nine_tenths_and_a_gap_wider_than_the_spread() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        // Nine of ten pairs clearly faster: a gain.
        let mut change: Vec<f64> = parent.iter().map(|p| p - 10.0).collect();
        change[3] = parent[3] + 1.0;
        assert!(is_gain(&parent, &change, false));
        // Eight of ten: not a gain, however large the median gap.
        change[4] = parent[4] + 1.0;
        assert!(!is_gain(&parent, &change, false));
        // Every pair wins but by less than the parent's spread.
        let small: Vec<f64> = parent.iter().map(|p| p - 0.5).collect();
        assert!(iqr(&parent).unwrap() > 0.5);
        assert!(!is_gain(&parent, &small, false));
        // Direction matters: a drop in a higher-is-better metric is no gain.
        let lower: Vec<f64> = parent.iter().map(|p| p - 10.0).collect();
        assert!(!is_gain(&parent, &lower, true));
    }
}
