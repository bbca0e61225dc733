//! Open-ended (adaptive) measurement with a stopping criterion.
//!
//! §5.1 allows a full experiment to run "in an open-ended adaptive
//! fashion, e.g., until estimates of desired accuracy for a congestion
//! characteristic have been obtained, or until such accuracy is
//! determined impossible", and §7 sketches the design: run continuously
//! at low impact and report when the validation techniques confirm the
//! estimate is robust. The paper leaves "experimental investigation of
//! stopping criteria" as future work — this module implements the natural
//! construction:
//!
//! * **converged** — the §7 model's predicted `StdDev(D̂)` (driven by the
//!   *measured* loss-event rate) has reached the target, enough episode
//!   boundaries have been observed, and every §5.4 symmetry check passes;
//! * **invalidated** — a symmetry is broken beyond what sampling noise
//!   can explain (the `01`/`10` counts differ by more than `k·√(#01+#10)`
//!   — a discrepancy "not bridged by increasing M"), or forbidden
//!   `010`/`101` patterns exceed tolerance;
//! * **exhausted** — an optional slot budget ran out first.

use crate::streaming::StreamingEstimator;

/// Stopping-rule configuration.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Stop when the predicted `StdDev(D̂)` falls to this many slots.
    pub target_duration_stddev_slots: f64,
    /// Minimum episode-boundary observations (`#01 + #10`) before any
    /// verdict other than `Continue`/`Exhausted` is possible.
    pub min_boundary_events: u64,
    /// Allowed violation rate (forbidden `010`/`101` patterns among
    /// extended experiments).
    pub max_violation_rate: f64,
    /// Symmetry break threshold in standard deviations: invalidate when
    /// `|#01 − #10| > k·√(#01 + #10)`.
    pub symmetry_sigmas: f64,
    /// Optional hard budget in slots.
    pub max_slots: Option<u64>,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            target_duration_stddev_slots: 2.0,
            min_boundary_events: 20,
            max_violation_rate: 0.05,
            symmetry_sigmas: 4.0,
            max_slots: None,
        }
    }
}

/// The controller's assessment of a run in progress.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Keep measuring.
    Continue,
    /// Accuracy target met and assumptions validated — report and stop.
    Converged,
    /// The model's assumptions are broken; the estimate should not be
    /// trusted no matter how long the run continues.
    Invalidated {
        /// Human-readable reason.
        reason: String,
    },
    /// The slot budget ran out before convergence.
    Exhausted,
}

/// Applies an [`AdaptiveConfig`] to a [`StreamingEstimator`].
#[derive(Debug, Clone, Default)]
pub struct AdaptiveController {
    cfg: AdaptiveConfig,
}

impl AdaptiveController {
    /// New controller.
    pub fn new(cfg: AdaptiveConfig) -> Self {
        Self { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.cfg
    }

    /// Assess the run.
    pub fn assess(&self, s: &StreamingEstimator) -> Verdict {
        let v = s.validation();

        // Hard invalidation first: forbidden patterns.
        let ext_total = v.n000 + v.n001 + v.n010 + v.n011 + v.n100 + v.n101 + v.n110 + v.n111;
        if ext_total >= 50 && v.violation_rate() > self.cfg.max_violation_rate {
            return Verdict::Invalidated {
                reason: format!(
                    "forbidden 010/101 patterns at rate {:.3} (> {:.3})",
                    v.violation_rate(),
                    self.cfg.max_violation_rate
                ),
            };
        }

        // Symmetry break beyond sampling noise.
        let boundaries = v.n01 + v.n10;
        if boundaries >= self.cfg.min_boundary_events {
            let diff = (v.n01 as f64 - v.n10 as f64).abs();
            let noise = (boundaries as f64).sqrt() * self.cfg.symmetry_sigmas;
            if diff > noise {
                return Verdict::Invalidated {
                    reason: format!(
                        "01/10 asymmetry: |{} - {}| = {diff} exceeds {:.1}σ = {noise:.1}",
                        v.n01, v.n10, self.cfg.symmetry_sigmas
                    ),
                };
            }
        }

        // Convergence: enough boundaries and the predicted spread at the
        // measured loss-event rate is within target.
        if boundaries >= self.cfg.min_boundary_events {
            if let Some(sd) = s.predicted_duration_stddev() {
                if sd <= self.cfg.target_duration_stddev_slots {
                    return Verdict::Converged;
                }
            }
        }

        // Budget.
        if let Some(max) = self.cfg.max_slots {
            if s.effective_slots() >= max {
                return Verdict::Exhausted;
            }
        }
        Verdict::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::Outcome;

    fn estimator_with(n01: u64, n10: u64, gap_slots: u64, p: f64) -> StreamingEstimator {
        let mut s = StreamingEstimator::new(p, 0.005);
        let mut slot = 10;
        let mut id = 0;
        for _ in 0..n01 {
            s.push(&Outcome::basic(id, slot, false, true));
            id += 1;
            slot += gap_slots;
        }
        for _ in 0..n10 {
            s.push(&Outcome::basic(id, slot, true, false));
            id += 1;
            slot += gap_slots;
        }
        s
    }

    #[test]
    fn quiet_run_continues() {
        let ctl = AdaptiveController::new(AdaptiveConfig::default());
        let mut s = StreamingEstimator::new(0.3, 0.005);
        for i in 0..100 {
            s.push(&Outcome::basic(i, i * 10, false, false));
        }
        assert_eq!(ctl.assess(&s), Verdict::Continue);
    }

    #[test]
    fn converges_when_spread_is_small() {
        // Many balanced boundaries over a long run → tiny predicted sd.
        let s = estimator_with(200, 200, 500, 0.5);
        let ctl = AdaptiveController::new(AdaptiveConfig {
            target_duration_stddev_slots: 1.0,
            ..Default::default()
        });
        let sd = s.predicted_duration_stddev().unwrap();
        assert!(sd < 1.0, "predicted sd {sd}");
        assert_eq!(ctl.assess(&s), Verdict::Converged);
    }

    #[test]
    fn does_not_converge_below_min_boundaries() {
        let s = estimator_with(5, 5, 10, 0.5);
        let ctl = AdaptiveController::new(AdaptiveConfig {
            min_boundary_events: 50,
            target_duration_stddev_slots: 1000.0, // trivially met otherwise
            ..Default::default()
        });
        assert_eq!(ctl.assess(&s), Verdict::Continue);
    }

    #[test]
    fn invalidates_broken_symmetry() {
        // 90 vs 10: diff 80 ≫ 4·√100 = 40.
        let s = estimator_with(90, 10, 100, 0.5);
        let ctl = AdaptiveController::new(AdaptiveConfig {
            target_duration_stddev_slots: 0.0001, // never converge first
            ..Default::default()
        });
        match ctl.assess(&s) {
            Verdict::Invalidated { reason } => assert!(reason.contains("asymmetry")),
            other => panic!("expected invalidation, got {other:?}"),
        }
    }

    #[test]
    fn tolerates_noise_level_asymmetry() {
        // 110 vs 90: diff 20 < 4·√200 ≈ 56 → not broken.
        let s = estimator_with(110, 90, 500, 0.5);
        let ctl = AdaptiveController::new(AdaptiveConfig::default());
        assert_eq!(ctl.assess(&s), Verdict::Converged);
    }

    #[test]
    fn invalidates_forbidden_patterns() {
        let mut s = StreamingEstimator::new(0.5, 0.005);
        for i in 0..60u64 {
            // Alternate 010 violations with clean extended records.
            if i % 2 == 0 {
                s.push(&Outcome::extended(i, i * 10, false, true, false));
            } else {
                s.push(&Outcome::extended(i, i * 10, false, false, false));
            }
        }
        let ctl = AdaptiveController::new(AdaptiveConfig::default());
        match ctl.assess(&s) {
            Verdict::Invalidated { reason } => assert!(reason.contains("010")),
            other => panic!("expected invalidation, got {other:?}"),
        }
    }

    #[test]
    fn exhausts_budget() {
        let s = estimator_with(2, 2, 1000, 0.1);
        let ctl = AdaptiveController::new(AdaptiveConfig {
            max_slots: Some(1_000),
            ..Default::default()
        });
        assert_eq!(ctl.assess(&s), Verdict::Exhausted);
    }
}
