//! Streaming summary statistics (Welford's algorithm).
//!
//! Every table in the paper reports a mean and, for durations, a standard
//! deviation; the experiment harness accumulates those with [`Summary`]
//! rather than buffering raw samples.

/// Single-pass summary of a stream of `f64` samples: count, mean, variance
/// (via Welford's numerically stable recurrence), min and max.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Build a summary from a slice in one pass.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = Self::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another summary into this one (parallel Welford combination).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; `0.0` when empty (convenient for report tables where an
    /// empty cell is printed as zero, mirroring the paper's "0 (0)" entries).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by `n`); `0.0` for fewer than 2 samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by `n-1`); `0.0` for fewer than 2 samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample; `NaN` when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest sample; `NaN` when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }
}

/// Compute the `q`-quantile (`0 <= q <= 1`) of a slice by sorting a copy and
/// interpolating linearly between order statistics.
///
/// Returns `None` for an empty slice.
///
/// # Panics
/// Panics if `q` is outside `[0, 1]` or any value is NaN.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in [0,1], got {q}"
    );
    if xs.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(v[lo] * (1.0 - frac) + v[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_reports_zeros() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
    }

    #[test]
    fn mean_and_variance_match_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = Summary::from_slice(&xs);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn single_sample_has_zero_variance() {
        let s = Summary::from_slice(&[3.5]);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.mean(), 3.5);
    }

    #[test]
    fn merge_equals_pooled() {
        let xs = [1.0, 2.0, 3.0, 10.0, -4.0, 6.5];
        let ys = [0.5, 0.25, 8.0, 3.0];
        let mut a = Summary::from_slice(&xs);
        let b = Summary::from_slice(&ys);
        a.merge(&b);
        let mut pooled: Vec<f64> = xs.to_vec();
        pooled.extend_from_slice(&ys);
        let p = Summary::from_slice(&pooled);
        assert_eq!(a.count(), p.count());
        assert!((a.mean() - p.mean()).abs() < 1e-12);
        assert!((a.variance() - p.variance()).abs() < 1e-12);
        assert_eq!(a.min(), p.min());
        assert_eq!(a.max(), p.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let xs = [1.0, 2.0, 3.0];
        let mut a = Summary::from_slice(&xs);
        a.merge(&Summary::new());
        assert_eq!(a.count(), 3);
        let mut e = Summary::new();
        e.merge(&Summary::from_slice(&xs));
        assert!((e.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&xs, 0.5), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantile_on_unsorted_input() {
        let xs = [9.0, 1.0, 5.0];
        assert_eq!(quantile(&xs, 0.5), Some(5.0));
    }
}
