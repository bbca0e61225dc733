//! What one fixed-work unit measured, and how units add up.

use crate::{procfs, stats};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::Instant;

/// Named sums, pooled samples and maxima. Units of a traced run fold
/// together by adding sums, concatenating samples and keeping the
/// larger maximum.
#[derive(Debug, Default, Clone)]
pub struct Acc {
    sums: BTreeMap<String, f64>,
    samples: BTreeMap<String, Vec<f64>>,
    maxes: BTreeMap<String, f64>,
}

impl Acc {
    /// Add `v` to the sum `key`.
    pub fn add(&mut self, key: &str, v: f64) {
        *self.sums.entry(key.to_string()).or_default() += v;
    }

    /// Append one sample to `key`.
    pub fn push(&mut self, key: &str, v: f64) {
        self.samples.entry(key.to_string()).or_default().push(v);
    }

    /// Keep the larger of `v` and the current maximum of `key`.
    pub fn max(&mut self, key: &str, v: f64) {
        let m = self.maxes.entry(key.to_string()).or_insert(v);
        *m = m.max(v);
    }

    /// The sum `key` (0 when never added to).
    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// `sum(num) / sum(den)`, 0 when the denominator is 0.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.sum(den);
        if d == 0.0 {
            0.0
        } else {
            self.sum(num) / d
        }
    }

    /// The samples of `key`.
    pub fn samples(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }

    /// Nearest-rank percentile of `key`'s samples (0 when none).
    pub fn pct(&self, key: &str, pct: f64) -> f64 {
        stats::percentile(self.samples(key), pct).unwrap_or(0.0)
    }

    /// The maximum of `key` (0 when never set).
    pub fn maximum(&self, key: &str) -> f64 {
        self.maxes.get(key).copied().unwrap_or(0.0)
    }

    /// Fold `other` into this accumulator.
    pub fn absorb(&mut self, other: Acc) {
        for (k, v) in other.sums {
            *self.sums.entry(k).or_default() += v;
        }
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        for (k, v) in other.maxes {
            self.max(&k, v);
        }
    }
}

/// Operations attempted and failed, and correctness violations.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Operations attempted: control requests, sessions, sender runs,
    /// simulated scenarios.
    pub attempted: u64,
    /// Operations that failed or went unacknowledged.
    pub failed: u64,
    /// Correctness violations, each a one-line description.
    pub errors: Vec<String>,
}

impl Checks {
    /// Count one operation; a failure is counted and remembered.
    pub fn op<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Count one operation that either succeeded or did not.
    pub fn op_ok(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(format!("{what}: failed"));
        }
    }

    /// Record a correctness violation unless `cond` holds.
    pub fn expect(&mut self, cond: bool, msg: impl FnOnce() -> String) {
        if !cond {
            self.errors.push(msg());
        }
    }

    /// Fold `other` into these checks.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }
}

/// The result of one fixed-work unit. Each workload module says what
/// its throughput, operation and step are.
#[derive(Debug, Default)]
pub struct Unit {
    /// Set-up time of this unit, seconds.
    pub setup_s: f64,
    /// Wall time of the unit's work after set-up, seconds.
    pub work_s: f64,
    /// Work completed per wall second.
    pub throughput: f64,
    /// On-CPU nanoseconds of the code under test per operation.
    pub cpu_ns_per_op: f64,
    /// Latencies of the workload's inner step, microseconds.
    pub steps_us: Vec<f64>,
    /// Peak resident set size while the unit ran (`VmHWM`), bytes.
    pub peak_rss_bytes: u64,
    /// Everything else the unit measured.
    pub acc: Acc,
    /// Operations and correctness.
    pub checks: Checks,
}

/// Wall clock and memory high-water mark for one unit, started once its
/// inputs are generated so input generation is never charged to the
/// program.
pub struct Meter {
    t0: Instant,
}

impl Meter {
    /// Start the clock, and restart the high-water mark from the current
    /// resident set, so a unit's peak never includes an earlier unit's.
    pub fn start() -> Self {
        procfs::reset_peak_rss();
        Self { t0: Instant::now() }
    }

    /// Seconds since [`Meter::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Close the unit: work time is everything after set-up.
    pub fn finish(self, unit: &mut Unit) {
        let wall_s = self.elapsed_s();
        unit.work_s = wall_s - unit.setup_s;
        unit.peak_rss_bytes = procfs::peak_rss_bytes();
        unit.acc.add("wall_ns", wall_s * 1e9);
    }
}
