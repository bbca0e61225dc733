//! Fixed-range linear histograms.
//!
//! Used for delay distributions in reports (e.g. the one-way-delay
//! profile of probe traffic, which §6.1's OWDmax thresholding reasons
//! about). Linear buckets over a known range are the right tool here —
//! queueing delay is bounded by the buffer's drain time.

/// A histogram with `n` equal-width buckets over `[lo, hi)`, plus
/// underflow/overflow counters.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Create a histogram over `[lo, hi)` with `n` buckets.
    ///
    /// # Panics
    /// Panics unless `lo < hi` and `n > 0`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid range [{lo}, {hi})"
        );
        assert!(n > 0, "need at least one bucket");
        Self {
            lo,
            hi,
            buckets: vec![0; n],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Record one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let n = self.buckets.len();
            let idx = ((x - self.lo) / (self.hi - self.lo) * n as f64) as usize;
            self.buckets[idx.min(n - 1)] += 1;
        }
    }

    /// Total samples recorded (including under/overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// `(low_edge, high_edge, count)` per bucket.
    pub fn rows(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        self.buckets.iter().enumerate().map(move |(i, &c)| {
            (
                self.lo + i as f64 * width,
                self.lo + (i + 1) as f64 * width,
                c,
            )
        })
    }

    /// Approximate `q`-quantile by interpolating within the bucket where
    /// the cumulative count crosses `q·total`. Under/overflow samples are
    /// pinned to the range edges. `None` when empty or when `q` is
    /// outside `[0, 1]` (including NaN) — quantile requests can now
    /// arrive from remote peers via the control plane, so a bad `q`
    /// must not panic the process that holds the data.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&q) {
            return None;
        }
        if self.count == 0 {
            return None;
        }
        let target = q * self.count as f64;
        let mut cum = self.underflow as f64;
        if cum >= target && self.underflow > 0 {
            return Some(self.lo);
        }
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        for (i, &c) in self.buckets.iter().enumerate() {
            let next = cum + c as f64;
            if next >= target && c > 0 {
                let frac = ((target - cum) / c as f64).clamp(0.0, 1.0);
                return Some(self.lo + (i as f64 + frac) * width);
            }
            cum = next;
        }
        Some(self.hi)
    }

    /// Merge another histogram with identical geometry.
    ///
    /// # Panics
    /// Panics if the ranges or bucket counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "bucket count mismatch"
        );
        assert!(
            (self.lo - other.lo).abs() < 1e-12 && (self.hi - other.hi).abs() < 1e-12,
            "range mismatch"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
    }
}

/// Bucket upper edges for [`DelaySketch`], in seconds: the metrics
/// crate's 1–2–4–7 log-scale latency grid from 1 µs to 30 s, so sketch
/// quantiles and metrics histograms line up row for row.
pub use badabing_metrics::LATENCY_BOUNDS_SECS as SKETCH_BOUNDS_SECS;

/// A fixed-bucket log-scale quantile sketch for delay samples.
///
/// Unlike [`Histogram`], whose geometry is chosen per run, every
/// `DelaySketch` shares the one [`SKETCH_BOUNDS_SECS`] grid — which is
/// what makes it *mergeable*: [`Self::merge`] is element-wise counter
/// addition (associative and commutative by construction), so a fleet
/// aggregator can combine per-session sketches in any order and read
/// the same quantiles as one sketch fed every sample. Quantiles are
/// deterministic (a pure function of the counts) and resolve to bucket
/// upper edges, so same-seed runs report byte-identical values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DelaySketch {
    /// `buckets[i]` counts samples `≤ SKETCH_BOUNDS_SECS[i]` (and above
    /// the previous bound); the final slot counts overflow.
    buckets: [u64; 31],
    count: u64,
}

impl DelaySketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one delay sample in seconds. Negative and non-finite
    /// values (clock skew artifacts, corrupted input) clamp into the
    /// first bucket rather than being dropped, so `count` always equals
    /// the number of pushes.
    pub fn push(&mut self, secs: f64) {
        let idx = SKETCH_BOUNDS_SECS.partition_point(|&b| secs > b);
        self.buckets[idx] += 1;
        self.count += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Bucket counts (last slot is overflow beyond the top bound).
    pub fn buckets(&self) -> &[u64; 31] {
        &self.buckets
    }

    /// Fold another sketch in: element-wise addition.
    pub fn merge(&mut self, other: &DelaySketch) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    /// The `q`-quantile as the upper edge of the bucket where the
    /// cumulative count reaches `⌈q·total⌉`. Overflow samples report
    /// the top bound. `None` when empty or `q` outside `[0, 1]`
    /// (including NaN) — never a panic, since `q` can come from a
    /// remote peer.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&q) || self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(SKETCH_BOUNDS_SECS[i.min(SKETCH_BOUNDS_SECS.len() - 1)]);
            }
        }
        unreachable!("count equals the bucket sum")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_range() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        for &x in &[0.0, 0.1, 0.26, 0.5, 0.74, 0.75, 0.99] {
            h.push(x);
        }
        assert_eq!(h.buckets(), &[2, 1, 2, 2]);
        assert_eq!(h.count(), 7);
        assert_eq!(h.underflow() + h.overflow(), 0);
    }

    #[test]
    fn out_of_range_goes_to_flows() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.push(-0.5);
        h.push(1.0); // hi is exclusive
        h.push(2.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 3);
        assert_eq!(h.buckets(), &[0, 0]);
    }

    #[test]
    fn rows_expose_edges() {
        let mut h = Histogram::new(0.0, 0.1, 2);
        h.push(0.06);
        let rows: Vec<_> = h.rows().collect();
        assert_eq!(rows.len(), 2);
        assert!((rows[0].0 - 0.0).abs() < 1e-12 && (rows[0].1 - 0.05).abs() < 1e-12);
        assert_eq!(rows[1].2, 1);
    }

    #[test]
    fn quantiles_interpolate() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.push(i as f64 + 0.5);
        }
        let med = h.quantile(0.5).unwrap();
        assert!((med - 50.0).abs() < 1.5, "median {med}");
        let p90 = h.quantile(0.9).unwrap();
        assert!((p90 - 90.0).abs() < 1.5, "p90 {p90}");
        assert_eq!(Histogram::new(0.0, 1.0, 2).quantile(0.5), None);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(0.0, 1.0, 2);
        let mut b = Histogram::new(0.0, 1.0, 2);
        a.push(0.25);
        b.push(0.75);
        b.push(-1.0);
        a.merge(&b);
        assert_eq!(a.buckets(), &[1, 1]);
        assert_eq!(a.underflow(), 1);
        assert_eq!(a.count(), 3);
    }

    #[test]
    #[should_panic(expected = "bucket count mismatch")]
    fn merge_rejects_mismatched_geometry() {
        let mut a = Histogram::new(0.0, 1.0, 2);
        let b = Histogram::new(0.0, 1.0, 3);
        a.merge(&b);
    }

    /// Regression: out-of-range `q` used to assert. A remote peer can
    /// now drive quantile requests, so it must be `None` instead.
    #[test]
    fn out_of_range_quantile_is_none_not_panic() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(0.5);
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.5), None);
        assert_eq!(h.quantile(f64::NAN), None);
        assert!(h.quantile(0.5).is_some(), "in-range q still works");
    }

    #[test]
    fn sketch_buckets_by_log_grid() {
        let mut s = DelaySketch::new();
        s.push(0.5e-6); // ≤ 1 µs → bucket 0
        s.push(1e-6); // boundary is inclusive → bucket 0
        s.push(3e-3); // (2 ms, 4 ms] → bucket 14
        s.push(100.0); // beyond 30 s → overflow
        s.push(-1.0); // clamps into the first bucket
        s.push(f64::NAN); // likewise
        assert_eq!(s.count(), 6);
        assert_eq!(s.buckets()[0], 4);
        assert_eq!(s.buckets()[14], 1);
        assert_eq!(s.buckets()[30], 1);
    }

    #[test]
    fn sketch_quantiles_resolve_to_bucket_edges() {
        let mut s = DelaySketch::new();
        assert_eq!(s.quantile(0.5), None, "empty sketch");
        for _ in 0..90 {
            s.push(1.5e-3); // → 2 ms bucket
        }
        for _ in 0..10 {
            s.push(5e-2); // → 70 ms bucket
        }
        assert_eq!(s.quantile(0.0), Some(2e-3));
        assert_eq!(s.quantile(0.5), Some(2e-3));
        assert_eq!(s.quantile(0.9), Some(2e-3));
        assert_eq!(s.quantile(0.99), Some(7e-2));
        assert_eq!(s.quantile(1.0), Some(7e-2));
        assert_eq!(s.quantile(1.5), None);
        assert_eq!(s.quantile(f64::NAN), None);
        // Overflow reports the top bound.
        let mut o = DelaySketch::new();
        o.push(1e9);
        assert_eq!(o.quantile(0.5), Some(30.0));
    }

    /// Satellite property: merging sketches must be indistinguishable
    /// from pushing every sample into one histogram, at arbitrary
    /// split points of a seeded random stream.
    #[test]
    fn sketch_merge_equals_single_histogram() {
        let samples: Vec<f64> = {
            let mut x = 0x5EEDu64;
            (0..500)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    // Span the grid: ~1 µs to ~30 s, log-uniform-ish.
                    1e-6 * 10f64.powf(((x >> 40) % 15_360) as f64 / 2048.0)
                })
                .collect()
        };
        let mut whole = DelaySketch::new();
        for &s in &samples {
            whole.push(s);
        }
        for cut in [0, 1, 125, 250, 499, 500] {
            let (mut a, mut b) = (DelaySketch::new(), DelaySketch::new());
            for &s in &samples[..cut] {
                a.push(s);
            }
            for &s in &samples[cut..] {
                b.push(s);
            }
            a.merge(&b);
            assert_eq!(a, whole, "split at {cut}");
        }
        // Commutativity at one split.
        let (mut a, mut b) = (DelaySketch::new(), DelaySketch::new());
        for &s in &samples[..200] {
            a.push(s);
        }
        for &s in &samples[200..] {
            b.push(s);
        }
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ba, whole);
    }
}
