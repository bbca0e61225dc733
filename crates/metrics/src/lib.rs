//! Lightweight run observability for the BADABING workspace.
//!
//! Every long-running component — live sender, receiver, bottleneck
//! emulator, and the simulation engine's event loop — threads a
//! [`Registry`] of monotonic [`Counter`]s and fixed-bucket [`Histogram`]s
//! through its hot path and dumps a JSON snapshot at run end. The
//! snapshot is what `summarize` folds into `results/SUMMARY.md`, and what
//! a future multi-receiver scale-out will ship over the control plane.
//!
//! Design constraints, in order:
//!
//! 1. **No dependencies.** The offline build cannot fetch crates, so the
//!    JSON snapshot format is implemented by the sibling [`json`] module.
//! 2. **Hot-path cheap.** Counters are single relaxed atomic adds;
//!    histogram recording is two atomic adds plus a branch-free bucket
//!    search over a handful of fixed bounds. No locks are taken after
//!    registration. A path that records a whole series at once folds it
//!    locally and publishes it with one
//!    [`Histogram::record_secs_batch`].
//! 3. **Shareable.** Handles are `Arc`s; a component can hand the same
//!    counter to several threads.
//!
//! # Snapshot schema
//!
//! ```json
//! {
//!   "name": "badabing_send",
//!   "counters": { "packets_sent": 1234 },
//!   "histograms": {
//!     "send_lateness_secs": {
//!       "count": 100,
//!       "sum_secs": 0.042,
//!       "min_secs": 1e-5,
//!       "max_secs": 0.003,
//!       "mean_secs": 0.00042,
//!       "buckets": [ { "le_secs": 0.001, "count": 93 },
//!                    { "le_secs": null,  "count": 7 } ]
//!     }
//!   }
//! }
//! ```
//!
//! The last bucket's `le_secs` is `null`: it is the overflow bucket.

pub mod json;

use json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-written-value gauge holding one `f64`.
///
/// Counters are monotonic; periodic estimate snapshots (`F̂`, `D̂`,
/// delay quantiles) are not — they are re-derived each interval and can
/// move in either direction — so they get their own instrument. Stored
/// as the value's bit pattern in an atomic, so `set`/`get` are
/// lock-free like the other instruments.
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Self(AtomicU64::new(0f64.to_bits()))
    }
}

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram of durations, recorded in nanoseconds.
///
/// Bounds are upper bucket edges in seconds; one implicit overflow bucket
/// catches everything above the last bound. Recording touches only
/// atomics, so a histogram can sit in a multi-threaded hot path.
#[derive(Debug)]
pub struct Histogram {
    /// Upper edges, in nanoseconds, ascending.
    bounds_ns: Vec<u64>,
    /// One slot per bound plus the overflow slot.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

/// Default edges for network latencies: 1 µs to 30 s on a 1-2-4-7
/// log-scale grid. The grid is deliberately fine below a millisecond —
/// loopback and LAN tails live there, and the previous half-decade
/// spacing quantized every sub-ms p99 to the same 300 µs edge, making
/// benchmark latency columns indistinguishable across I/O modes.
pub const LATENCY_BOUNDS_SECS: [f64; 30] = [
    1e-6, 2e-6, 4e-6, 7e-6, 1e-5, 2e-5, 4e-5, 7e-5, 1e-4, 2e-4, 4e-4, 7e-4, 1e-3, 2e-3, 4e-3, 7e-3,
    1e-2, 2e-2, 4e-2, 7e-2, 1e-1, 2e-1, 4e-1, 7e-1, 1.0, 2.0, 4.0, 7.0, 10.0, 30.0,
];

/// A duration in seconds as recorded nanoseconds: negative values clamp
/// to zero, values past `u64::MAX` ns saturate.
fn secs_to_ns(secs: f64) -> u64 {
    if secs <= 0.0 {
        0
    } else {
        (secs * 1e9).min(u64::MAX as f64) as u64
    }
}

impl Histogram {
    /// A histogram with the given upper bucket edges (seconds, ascending).
    ///
    /// # Panics
    /// Panics if `bounds_secs` is empty or not strictly ascending.
    pub fn new(bounds_secs: &[f64]) -> Self {
        assert!(
            !bounds_secs.is_empty(),
            "histogram needs at least one bound"
        );
        assert!(
            bounds_secs.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let bounds_ns = bounds_secs
            .iter()
            .map(|&s| (s * 1e9) as u64)
            .collect::<Vec<_>>();
        let buckets = (0..=bounds_ns.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds_ns,
            buckets,
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }

    /// A histogram with the default latency edges.
    pub fn latency() -> Self {
        Self::new(&LATENCY_BOUNDS_SECS)
    }

    /// Record a duration in seconds (negative values clamp to zero).
    pub fn record_secs(&self, secs: f64) {
        self.record_ns(secs_to_ns(secs));
    }

    /// Record a duration in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        let idx = self.bucket_of(ns);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Record every duration of `samples` (seconds), leaving the
    /// histogram exactly as [`Histogram::record_secs`] on each would.
    /// The samples are folded into a local tally first and published
    /// once: one atomic add per touched bucket plus four for the whole
    /// batch, instead of five atomic updates (two of them CAS loops)
    /// per sample. An empty batch changes nothing.
    pub fn record_secs_batch(&self, samples: impl IntoIterator<Item = f64>) {
        let mut buckets = vec![0u64; self.buckets.len()];
        let (mut count, mut sum, mut min, mut max) = (0u64, 0u64, u64::MAX, 0u64);
        for secs in samples {
            let ns = secs_to_ns(secs);
            buckets[self.bucket_of(ns)] += 1;
            count += 1;
            // Wraps like the atomic add it stands in for.
            sum = sum.wrapping_add(ns);
            min = min.min(ns);
            max = max.max(ns);
        }
        if count == 0 {
            return;
        }
        for (slot, n) in self.buckets.iter().zip(buckets) {
            if n > 0 {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum_ns.fetch_add(sum, Ordering::Relaxed);
        self.min_ns.fetch_min(min, Ordering::Relaxed);
        self.max_ns.fetch_max(max, Ordering::Relaxed);
    }

    /// The bucket `ns` lands in: the first whose edge is not below it.
    fn bucket_of(&self, ns: u64) -> usize {
        self.bounds_ns.partition_point(|&b| b < ns)
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples in seconds (`None` when empty).
    pub fn mean_secs(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9 / n as f64)
    }

    /// Maximum recorded sample in seconds (`None` when empty).
    pub fn max_secs(&self) -> Option<f64> {
        (self.count() > 0).then(|| self.max_ns.load(Ordering::Relaxed) as f64 / 1e9)
    }

    /// Bucket-resolution estimate of the `q`-quantile (0 < q ≤ 1) in
    /// seconds: the upper edge of the bucket where the cumulative count
    /// crosses `q·total`, clamped to the observed min/max so coarse
    /// edges never report a value outside the recorded range. Samples in
    /// the overflow bucket report the observed maximum. `None` when
    /// empty.
    pub fn quantile_secs(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let min = self.min_ns.load(Ordering::Relaxed) as f64 / 1e9;
        let max = self.max_ns.load(Ordering::Relaxed) as f64 / 1e9;
        let mut seen = 0u64;
        for (i, slot) in self.buckets.iter().enumerate() {
            seen += slot.load(Ordering::Relaxed);
            if seen >= rank {
                let edge = self.bounds_ns.get(i).map_or(max, |&ns| ns as f64 / 1e9);
                return Some(edge.clamp(min, max));
            }
        }
        Some(max)
    }

    fn to_value(&self) -> Value {
        let count = self.count();
        let sum_secs = self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9;
        let mut buckets = Vec::with_capacity(self.buckets.len());
        for (i, slot) in self.buckets.iter().enumerate() {
            let le = self
                .bounds_ns
                .get(i)
                .map_or(Value::Null, |&ns| Value::Num(ns as f64 / 1e9));
            buckets.push(Value::obj(vec![
                ("le_secs", le),
                ("count", Value::Num(slot.load(Ordering::Relaxed) as f64)),
            ]));
        }
        Value::obj(vec![
            ("count", Value::Num(count as f64)),
            ("sum_secs", Value::Num(sum_secs)),
            (
                "min_secs",
                if count > 0 {
                    Value::Num(self.min_ns.load(Ordering::Relaxed) as f64 / 1e9)
                } else {
                    Value::Null
                },
            ),
            ("max_secs", self.max_secs().map_or(Value::Null, Value::Num)),
            (
                "mean_secs",
                self.mean_secs().map_or(Value::Null, Value::Num),
            ),
            ("buckets", Value::Arr(buckets)),
        ])
    }
}

/// A named collection of counters and histograms.
///
/// Registration takes a short lock; the returned `Arc` handles are then
/// lock-free to update. Asking twice for the same name returns the same
/// instrument.
pub struct Registry {
    name: String,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("name", &self.name)
            .field(
                "counters",
                &self.counters.lock().expect("registry poisoned").len(),
            )
            .field(
                "histograms",
                &self.histograms.lock().expect("registry poisoned").len(),
            )
            .field(
                "gauges",
                &self.gauges.lock().expect("registry poisoned").len(),
            )
            .finish()
    }
}

impl Registry {
    /// An empty registry labelled `name` (the snapshot's `name` field).
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
        }
    }

    /// The registry's label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Get or create a counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counters
            .lock()
            .expect("registry poisoned")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create a gauge (initial value `0.0`).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauges
            .lock()
            .expect("registry poisoned")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create a histogram with the default latency bounds.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &LATENCY_BOUNDS_SECS)
    }

    /// Get or create a histogram with explicit bounds (ignored if the
    /// histogram already exists).
    pub fn histogram_with(&self, name: &str, bounds_secs: &[f64]) -> Arc<Histogram> {
        self.histograms
            .lock()
            .expect("registry poisoned")
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new(bounds_secs)))
            .clone()
    }

    /// Snapshot the registry as a JSON value.
    pub fn snapshot(&self) -> Value {
        let counters = self
            .counters
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, c)| (k.clone(), Value::Num(c.get() as f64)))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, h)| (k.clone(), h.to_value()))
            .collect();
        let gauges: Vec<(String, Value)> = self
            .gauges
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, g)| {
                let v = g.get();
                // JSON has no NaN/inf; snapshot non-finite values as null.
                let v = if v.is_finite() {
                    Value::Num(v)
                } else {
                    Value::Null
                };
                (k.clone(), v)
            })
            .collect();
        let mut fields = vec![
            ("name", Value::Str(self.name.clone())),
            ("counters", Value::Obj(counters)),
            ("histograms", Value::Obj(histograms)),
        ];
        // Only emitted when present, keeping every pre-gauge snapshot
        // byte-identical to what it was.
        if !gauges.is_empty() {
            fields.push(("gauges", Value::Obj(gauges)));
        }
        Value::obj(fields)
    }

    /// Snapshot as pretty-printed JSON text.
    pub fn snapshot_json(&self) -> String {
        self.snapshot().to_pretty()
    }

    /// Write the snapshot to `path`, creating parent directories.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.snapshot_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let reg = Registry::new("test");
        let a = reg.counter("packets");
        let b = reg.counter("packets");
        a.inc();
        b.add(4);
        assert_eq!(reg.counter("packets").get(), 5);
        assert_eq!(reg.counter("other").get(), 0);
    }

    #[test]
    fn histogram_buckets_by_bound() {
        let h = Histogram::new(&[0.001, 0.01, 0.1]);
        h.record_secs(0.0005); // bucket 0
        h.record_secs(0.001); //  bucket 0 (edge is inclusive)
        h.record_secs(0.005); //  bucket 1
        h.record_secs(0.5); //    overflow
        h.record_secs(-3.0); //   clamps to 0, bucket 0
        assert_eq!(h.count(), 5);
        let v = h.to_value();
        let buckets = v.get("buckets").unwrap().as_arr().unwrap();
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[0].get("count").unwrap().as_u64(), Some(3));
        assert_eq!(buckets[1].get("count").unwrap().as_u64(), Some(1));
        assert_eq!(buckets[2].get("count").unwrap().as_u64(), Some(0));
        assert_eq!(buckets[3].get("count").unwrap().as_u64(), Some(1));
        assert_eq!(buckets[3].get("le_secs").unwrap(), &Value::Null);
        assert!((h.max_secs().unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_stats_track_min_max_mean() {
        let h = Histogram::latency();
        assert_eq!(h.mean_secs(), None);
        assert_eq!(h.max_secs(), None);
        h.record_secs(0.002);
        h.record_secs(0.004);
        assert!((h.mean_secs().unwrap() - 0.003).abs() < 1e-9);
        assert!((h.max_secs().unwrap() - 0.004).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_panic() {
        let _ = Histogram::new(&[0.1, 0.01]);
    }

    #[test]
    fn quantile_estimates_land_in_the_right_bucket() {
        let h = Histogram::new(&[0.001, 0.01, 0.1]);
        assert_eq!(h.quantile_secs(0.99), None);
        for _ in 0..98 {
            h.record_secs(0.0005); // bucket 0
        }
        h.record_secs(0.05); //  bucket 2
        h.record_secs(0.5); //   overflow
        let p50 = h.quantile_secs(0.50).unwrap();
        assert!((p50 - 0.001).abs() < 1e-9, "p50 = {p50}");
        let p99 = h.quantile_secs(0.99).unwrap();
        assert!((p99 - 0.1).abs() < 1e-9, "p99 = {p99}");
        // The last sample lives in the overflow bucket: the observed
        // max, not infinity.
        let p100 = h.quantile_secs(1.0).unwrap();
        assert!((p100 - 0.5).abs() < 1e-9, "p100 = {p100}");
        // A one-sample histogram clamps to the observation.
        let one = Histogram::new(&[1.0]);
        one.record_secs(0.25);
        assert!((one.quantile_secs(0.99).unwrap() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn default_latency_edges_resolve_sub_millisecond_tails() {
        // Regression for the live-bench latency columns: two streams
        // whose p99s genuinely differ (90 µs vs 160 µs) must produce
        // distinct estimates. The old half-decade grid put both in the
        // same [1e-4, 3e-4] bucket and reported 300 µs for each.
        let fast = Histogram::latency();
        let slow = Histogram::latency();
        for _ in 0..1000 {
            fast.record_secs(90e-6);
            slow.record_secs(160e-6);
        }
        let p_fast = fast.quantile_secs(0.99).unwrap();
        let p_slow = slow.quantile_secs(0.99).unwrap();
        assert!(
            p_fast < p_slow,
            "sub-ms p99s collapsed: fast={p_fast} slow={p_slow}"
        );
        assert!(p_fast <= 1e-4, "90 µs stream must stay below 100 µs edge");
        assert!(p_slow <= 2e-4, "160 µs stream must stay below 200 µs edge");
        // The grid still covers the long tail.
        assert!(
            (LATENCY_BOUNDS_SECS.last().unwrap() - 30.0).abs() < 1e-12,
            "top edge stays 30 s"
        );
    }

    /// Pinning regression for the estimator-path hardening: a remote
    /// peer can drive quantile queries, so out-of-range `q` (including
    /// NaN) must stay `None`, never a panic.
    #[test]
    fn quantile_out_of_range_is_none_not_panic() {
        let h = Histogram::latency();
        h.record_secs(0.01);
        assert_eq!(h.quantile_secs(-0.1), None);
        assert_eq!(h.quantile_secs(1.5), None);
        assert_eq!(h.quantile_secs(f64::NAN), None);
        assert!(h.quantile_secs(0.5).is_some());
    }

    #[test]
    fn gauges_hold_last_value_and_snapshot() {
        let reg = Registry::new("g");
        let g = reg.gauge("fleet_frequency");
        assert_eq!(g.get(), 0.0);
        g.set(0.25);
        g.set(0.125); // non-monotonic by design
        reg.gauge("fleet_sessions").set(2048.0);
        reg.gauge("bad").set(f64::NAN);
        let v = reg.snapshot();
        let gauges = v.get("gauges").unwrap();
        assert_eq!(gauges.get("fleet_frequency").unwrap(), &Value::Num(0.125));
        assert_eq!(gauges.get("fleet_sessions").unwrap().as_u64(), Some(2048));
        assert_eq!(gauges.get("bad").unwrap(), &Value::Null);
    }

    #[test]
    fn snapshot_without_gauges_has_no_gauges_section() {
        let reg = Registry::new("plain");
        reg.counter("x").inc();
        assert!(reg.snapshot().get("gauges").is_none());
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let reg = Registry::new("roundtrip");
        reg.counter("sent").add(10);
        reg.histogram("delay").record_secs(0.02);
        let text = reg.snapshot_json();
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("roundtrip"));
        assert_eq!(
            v.get("counters").unwrap().get("sent").unwrap().as_u64(),
            Some(10)
        );
        let hist = v.get("histograms").unwrap().get("delay").unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn save_writes_file_with_parents() {
        let dir = std::env::temp_dir().join("badabing-metrics-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("sub").join("m.json");
        let reg = Registry::new("io");
        reg.counter("x").inc();
        reg.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(json::parse(&text).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The batch fold must leave the snapshot byte-identical to
    /// recording the same samples one by one: zero and negative clamps,
    /// the overflow bucket, and a saturating sample included.
    #[test]
    fn batch_fold_matches_one_by_one_recording() {
        let samples = [
            0.0005,
            0.001,
            -3.0,
            0.0,
            0.005,
            0.5,
            2e-9,
            0.05,
            f64::MAX,
            0.009,
        ];
        let bounds = [0.001, 0.01, 0.1];
        let one = Registry::new("fold");
        let h = one.histogram_with("q", &bounds);
        for s in samples {
            h.record_secs(s);
        }
        let batch = Registry::new("fold");
        batch
            .histogram_with("q", &bounds)
            .record_secs_batch(samples);
        assert_eq!(batch.snapshot_json(), one.snapshot_json());

        // Folding onto samples already recorded merges like more
        // one-by-one records, in either order.
        h.record_secs(0.02);
        let b = batch.histogram_with("q", &bounds);
        b.record_secs(0.02);
        for s in [0.0002, 0.3] {
            h.record_secs(s);
        }
        b.record_secs_batch([0.0002, 0.3]);
        assert_eq!(batch.snapshot_json(), one.snapshot_json());
    }

    #[test]
    fn an_empty_batch_moves_nothing() {
        let reg = Registry::new("empty");
        let h = reg.histogram("q");
        h.record_secs_batch([]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.min_ns.load(Ordering::Relaxed), u64::MAX);
        let fresh = Registry::new("empty");
        fresh.histogram("q");
        assert_eq!(reg.snapshot_json(), fresh.snapshot_json());
        // Nor does it drag an existing min down to a phantom zero.
        h.record_secs(0.25);
        h.record_secs_batch(std::iter::empty());
        assert_eq!(h.min_ns.load(Ordering::Relaxed), 250_000_000);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let reg = Arc::new(Registry::new("mt"));
        let c = reg.counter("hits");
        let h = reg.histogram("lat");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                        h.record_ns(500);
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
        assert_eq!(h.count(), 40_000);
    }
}
