//! Uncertainty estimates computed from the run's own counts.
//!
//! The paper closes (§8) with: "Another task is to estimate the
//! variability of the estimates of congestion frequency and duration
//! themselves directly from the measured data, under a minimal set of
//! statistical assumptions on the congestion process." This module does
//! that:
//!
//! * **Frequency.** `F̂` is a proportion over `M` experiments; under
//!   independent sampling its uncertainty is binomial, and we report the
//!   Wilson score interval (well-behaved at the small counts loss
//!   measurement lives at — a 95% Clopper-ish interval that never leaves
//!   `[0, 1]`).
//! * **Duration.** `D̂ = 2(R/S − 1) + 1` is a ratio of counts. Treating
//!   `R` and `S` as Poisson (the §7 model's regime: rare episodes,
//!   thinned by `p`) and applying the delta method,
//!   `Var(R/S) ≈ (R/S)² (1/R + 1/S)`, so
//!   `sd(D̂) ≈ 2 (R/S) √(1/R + 1/S)`. This is the *data-driven*
//!   counterpart of the a-priori `1/√(pNL)` model — it needs no estimate
//!   of `L` and tightens exactly as boundary observations accumulate.

use crate::estimator::Estimates;

/// A symmetric-ish interval `[lo, hi]` around an estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Point estimate.
    pub estimate: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Interval {
    /// Interval half-width (for the upper side).
    pub fn half_width(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }

    /// Whether the interval contains `x`.
    pub fn contains(&self, x: f64) -> bool {
        (self.lo..=self.hi).contains(&x)
    }
}

/// Wilson score interval for a proportion `k/n` at normal quantile `z`
/// (1.96 ≈ 95%).
///
/// # Panics
/// Panics if `n == 0` or `k > n` or `z <= 0`.
pub fn wilson_interval(k: u64, n: u64, z: f64) -> Interval {
    assert!(n > 0, "need at least one trial");
    assert!(k <= n, "successes exceed trials");
    assert!(z > 0.0, "z must be positive");
    let nf = n as f64;
    let p = k as f64 / nf;
    let z2 = z * z;
    let denom = 1.0 + z2 / nf;
    let center = (p + z2 / (2.0 * nf)) / denom;
    let spread = (z / denom) * (p * (1.0 - p) / nf + z2 / (4.0 * nf * nf)).sqrt();
    Interval {
        estimate: p,
        lo: (center - spread).max(0.0),
        hi: (center + spread).min(1.0),
    }
}

/// Frequency interval for a run, at the given `z` (e.g. 1.96 for 95%).
/// `None` for an empty log.
pub fn frequency_interval(est: &Estimates, z: f64) -> Option<Interval> {
    if est.experiments == 0 {
        return None;
    }
    Some(wilson_interval(est.z_sum, est.experiments, z))
}

/// Delta-method standard deviation of the basic duration estimate, in
/// slots. `None` when `R` or `S` is zero.
pub fn duration_stddev_slots(est: &Estimates) -> Option<f64> {
    if est.r == 0 || est.s == 0 {
        return None;
    }
    let ratio = est.r as f64 / est.s as f64;
    Some(2.0 * ratio * (1.0 / est.r as f64 + 1.0 / est.s as f64).sqrt())
}

/// Duration interval (±z·sd around D̂), floored at one slot. `None` until
/// the duration estimator itself is defined.
pub fn duration_interval_slots(est: &Estimates, z: f64) -> Option<Interval> {
    let d = est.duration_slots_basic()?;
    let sd = duration_stddev_slots(est)?;
    Some(Interval {
        estimate: d,
        lo: (d - z * sd).max(1.0),
        hi: d + z * sd,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::{ExperimentLog, Outcome};

    fn log_with_counts(n00: u64, n01: u64, n10: u64, n11: u64) -> Estimates {
        let mut log = ExperimentLog::new(1_000_000, 0.005);
        let mut id = 0u64;
        let mut push = |a: bool, b: bool, count: u64, id: &mut u64| {
            for _ in 0..count {
                log.push(Outcome::basic(*id, *id * 3, a, b));
                *id += 1;
            }
        };
        push(false, false, n00, &mut id);
        push(false, true, n01, &mut id);
        push(true, false, n10, &mut id);
        push(true, true, n11, &mut id);
        Estimates::from_log(&log)
    }

    #[test]
    fn wilson_matches_known_values() {
        // k=5, n=10, z=1.96 → classic Wilson ≈ [0.237, 0.763].
        let i = wilson_interval(5, 10, 1.96);
        assert!((i.estimate - 0.5).abs() < 1e-12);
        assert!((i.lo - 0.2366).abs() < 0.001, "lo {}", i.lo);
        assert!((i.hi - 0.7634).abs() < 0.001, "hi {}", i.hi);
    }

    #[test]
    fn wilson_stays_in_unit_interval_at_extremes() {
        let zero = wilson_interval(0, 20, 1.96);
        assert_eq!(zero.lo, 0.0);
        assert!(zero.hi > 0.0 && zero.hi < 0.3);
        let all = wilson_interval(20, 20, 1.96);
        assert_eq!(all.hi, 1.0);
        assert!(all.lo > 0.7);
    }

    #[test]
    fn frequency_interval_covers_the_estimate() {
        let est = log_with_counts(900, 20, 20, 60);
        let i = frequency_interval(&est, 1.96).unwrap();
        assert!(i.contains(est.frequency().unwrap()));
        assert!(i.half_width() < 0.05);
    }

    #[test]
    fn duration_sd_shrinks_with_counts() {
        let small = log_with_counts(100, 4, 4, 16);
        let large = log_with_counts(10_000, 400, 400, 1_600);
        let sd_small = duration_stddev_slots(&small).unwrap();
        let sd_large = duration_stddev_slots(&large).unwrap();
        // Same ratio (D̂ identical), 100× the counts → 10× tighter.
        assert!(
            (sd_small / sd_large - 10.0).abs() < 0.1,
            "{sd_small} vs {sd_large}"
        );
        assert_eq!(small.duration_slots_basic(), large.duration_slots_basic());
    }

    #[test]
    fn duration_interval_floors_at_one_slot() {
        // Tiny counts: huge sd; the lower bound must not go below the
        // 1-slot physical floor.
        let est = log_with_counts(100, 1, 1, 2);
        let i = duration_interval_slots(&est, 1.96).unwrap();
        assert!(i.lo >= 1.0);
        assert!(i.hi > i.estimate);
    }

    #[test]
    fn undefined_without_boundaries() {
        let est = log_with_counts(10, 0, 0, 5);
        assert_eq!(duration_stddev_slots(&est), None);
        assert_eq!(duration_interval_slots(&est, 1.96), None);
    }

    #[test]
    fn empty_log_has_no_frequency_interval() {
        let log = ExperimentLog::new(10, 0.005);
        assert_eq!(frequency_interval(&Estimates::from_log(&log), 1.96), None);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn wilson_rejects_zero_trials() {
        let _ = wilson_interval(0, 0, 1.96);
    }
}
