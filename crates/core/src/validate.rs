//! Self-calibration: validation checks and the accuracy model.
//!
//! §5.4: the estimator's assumptions imply several observable symmetries —
//! `P(yᵢ=01) = P(yᵢ=10)`, equal rates for the four single-congestion
//! extended patterns, equal rates for `011`/`110` — and two *forbidden*
//! patterns, `010` and `101` (§5.3 ignores those states; their occurrence
//! violates the model). [`Validation`] measures all of them so a run can
//! report its own trustworthiness ("the tool is self-calibrating in the
//! sense that it can report when estimates are poor", §1).
//!
//! §7: the reliability of the duration estimate follows
//! `StdDev(D̂) ≈ 1/√(pNL)` with `L` the per-slot rate of loss events,
//! enabling an explicit trade-off between probe load (`p`), run length
//! (`N`) and accuracy — see [`duration_stddev_model`] and
//! [`required_slots`].

use crate::outcome::{ExperimentLog, Outcome};

/// Pattern tallies and symmetry checks for one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Validation {
    /// `#{01}` among two-probe experiments.
    pub n01: u64,
    /// `#{10}` among two-probe experiments.
    pub n10: u64,
    /// `#{11}` among two-probe experiments.
    pub n11: u64,
    /// `#{00}` among two-probe experiments.
    pub n00: u64,
    /// `#{001}` among three-probe experiments.
    pub n001: u64,
    /// `#{100}` among three-probe experiments.
    pub n100: u64,
    /// `#{011}` among three-probe experiments.
    pub n011: u64,
    /// `#{110}` among three-probe experiments.
    pub n110: u64,
    /// `#{010}` — forbidden under the model.
    pub n010: u64,
    /// `#{101}` — forbidden under the model.
    pub n101: u64,
    /// `#{111}` (unusable for estimation, §5.5).
    pub n111: u64,
    /// `#{000}` among three-probe experiments.
    pub n000: u64,
}

impl Validation {
    /// Tally a log.
    pub fn from_log(log: &ExperimentLog) -> Self {
        log.outcomes()
            .iter()
            .fold(Validation::default(), |mut v, o| {
                v.push(o);
                v
            })
    }

    /// Tally one outcome.
    ///
    /// # Panics
    /// Panics on a malformed outcome (probe count outside {2, 3});
    /// streaming callers filter those first.
    pub fn push(&mut self, o: &Outcome) {
        let n = match (o.probes, o.pattern()) {
            (2, 0b00) => &mut self.n00,
            (2, 0b01) => &mut self.n01,
            (2, 0b10) => &mut self.n10,
            (2, 0b11) => &mut self.n11,
            (3, 0b000) => &mut self.n000,
            (3, 0b001) => &mut self.n001,
            (3, 0b010) => &mut self.n010,
            (3, 0b011) => &mut self.n011,
            (3, 0b100) => &mut self.n100,
            (3, 0b101) => &mut self.n101,
            (3, 0b110) => &mut self.n110,
            (3, 0b111) => &mut self.n111,
            (n, p) => panic!("impossible outcome: {n} probes, pattern {p:#b}"),
        };
        *n += 1;
    }

    /// Relative discrepancy between the `01` and `10` counts:
    /// `|#01 − #10| / ((#01 + #10)/2)`; zero when both are zero. §7 notes
    /// this difference "is directly proportional to the expected standard
    /// deviation" of the duration estimate.
    pub fn boundary_discrepancy(&self) -> f64 {
        ratio_discrepancy(self.n01, self.n10)
    }

    /// Relative discrepancy between `011` and `110` counts.
    pub fn u_discrepancy(&self) -> f64 {
        ratio_discrepancy(self.n011, self.n110)
    }

    /// Relative discrepancy between `001` and `100` counts.
    pub fn v_discrepancy(&self) -> f64 {
        ratio_discrepancy(self.n001, self.n100)
    }

    /// Count of forbidden patterns (`010` + `101`). "A large number of
    /// such events is another reason to reject the resulted estimations."
    pub fn violations(&self) -> u64 {
        self.n010 + self.n101
    }

    /// Fraction of three-probe experiments that violated the model.
    pub fn violation_rate(&self) -> f64 {
        let ext = self.n000
            + self.n001
            + self.n010
            + self.n011
            + self.n100
            + self.n101
            + self.n110
            + self.n111;
        if ext == 0 {
            0.0
        } else {
            self.violations() as f64 / ext as f64
        }
    }

    /// A simple acceptance rule combining the §5.4 checks: every measured
    /// symmetry within `tolerance` (relative) and the violation rate below
    /// `tolerance` as well. Symmetries with too few samples (< 10 events)
    /// are not judged — a handful of boundary observations cannot fail a
    /// run that simply hasn't seen enough loss yet.
    pub fn passes(&self, tolerance: f64) -> bool {
        let checks = [
            (self.n01 + self.n10, self.boundary_discrepancy()),
            (self.n011 + self.n110, self.u_discrepancy()),
            (self.n001 + self.n100, self.v_discrepancy()),
        ];
        for (samples, disc) in checks {
            if samples >= 10 && disc > tolerance {
                return false;
            }
        }
        self.violation_rate() <= tolerance
    }
}

fn ratio_discrepancy(a: u64, b: u64) -> f64 {
    if a + b == 0 {
        return 0.0;
    }
    let mean = (a + b) as f64 / 2.0;
    ((a as f64) - (b as f64)).abs() / mean
}

/// §7's accuracy model: `StdDev(D̂) ≈ 1/√(pNL)` (in slots), with `p` the
/// per-slot experiment probability, `n_slots` the run length `N`, and
/// `loss_event_rate` the mean number of loss events per slot (`L`).
///
/// # Panics
/// Panics on non-positive arguments.
pub fn duration_stddev_model(p: f64, n_slots: f64, loss_event_rate: f64) -> f64 {
    assert!(
        p > 0.0 && n_slots > 0.0 && loss_event_rate > 0.0,
        "arguments must be positive"
    );
    1.0 / (p * n_slots * loss_event_rate).sqrt()
}

/// Invert the accuracy model: the run length `N` needed to reach a target
/// standard deviation at given `p` and `L`. Used to size experiments
/// up-front, or adaptively as `L` estimates firm up.
pub fn required_slots(p: f64, loss_event_rate: f64, target_stddev: f64) -> f64 {
    assert!(target_stddev > 0.0, "target must be positive");
    1.0 / (p * loss_event_rate * target_stddev * target_stddev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::{ExperimentLog, Outcome};

    fn log_with(patterns2: &[(u64, u8)], patterns3: &[(u64, u8)]) -> ExperimentLog {
        let mut log = ExperimentLog::new(1_000_000, 0.005);
        let mut id = 0;
        for &(count, pat) in patterns2 {
            for _ in 0..count {
                log.push(Outcome::basic(id, id, pat & 0b10 != 0, pat & 0b01 != 0));
                id += 1;
            }
        }
        for &(count, pat) in patterns3 {
            for _ in 0..count {
                log.push(Outcome::extended(
                    id,
                    id,
                    pat & 0b100 != 0,
                    pat & 0b010 != 0,
                    pat & 0b001 != 0,
                ));
                id += 1;
            }
        }
        log
    }

    #[test]
    fn tallies_are_exact() {
        let log = log_with(
            &[(3, 0b01), (5, 0b10), (2, 0b11), (7, 0b00)],
            &[
                (1, 0b001),
                (2, 0b100),
                (3, 0b011),
                (4, 0b110),
                (5, 0b010),
                (6, 0b101),
                (7, 0b111),
                (8, 0b000),
            ],
        );
        let v = Validation::from_log(&log);
        assert_eq!((v.n01, v.n10, v.n11, v.n00), (3, 5, 2, 7));
        assert_eq!((v.n001, v.n100, v.n011, v.n110), (1, 2, 3, 4));
        assert_eq!((v.n010, v.n101, v.n111, v.n000), (5, 6, 7, 8));
        assert_eq!(v.violations(), 11);
    }

    #[test]
    fn balanced_run_passes() {
        let log = log_with(
            &[(50, 0b01), (52, 0b10), (100, 0b11), (1000, 0b00)],
            &[
                (48, 0b001),
                (50, 0b100),
                (30, 0b011),
                (31, 0b110),
                (1, 0b010),
                (500, 0b000),
            ],
        );
        let v = Validation::from_log(&log);
        assert!(v.boundary_discrepancy() < 0.05);
        assert!(v.passes(0.25));
    }

    #[test]
    fn skewed_boundaries_fail() {
        let log = log_with(&[(100, 0b01), (10, 0b10)], &[]);
        let v = Validation::from_log(&log);
        assert!(v.boundary_discrepancy() > 1.0);
        assert!(!v.passes(0.25));
    }

    #[test]
    fn sparse_symmetries_are_not_judged() {
        // 3 boundary events total — too few to fail on, even though skewed.
        let log = log_with(&[(3, 0b01), (0, 0b10), (100, 0b00)], &[]);
        let v = Validation::from_log(&log);
        assert!(v.passes(0.25));
    }

    #[test]
    fn many_violations_fail() {
        let log = log_with(&[], &[(50, 0b010), (50, 0b101), (100, 0b000)]);
        let v = Validation::from_log(&log);
        assert!((v.violation_rate() - 0.5).abs() < 1e-12);
        assert!(!v.passes(0.25));
    }

    #[test]
    fn empty_log_passes_vacuously() {
        let v = Validation::from_log(&ExperimentLog::new(10, 0.005));
        assert_eq!(v.violations(), 0);
        assert!(v.passes(0.1));
        assert_eq!(v.boundary_discrepancy(), 0.0);
    }

    #[test]
    fn stddev_model_matches_paper_example() {
        // §7's example: 12 loss events per minute, 5 ms slots →
        // L = 12/(60×200) = 0.001.
        let l: f64 = 12.0 / (60.0 * 200.0);
        assert!((l - 0.001).abs() < 1e-12);
        let sd = duration_stddev_model(0.1, 180_000.0, l);
        assert!((sd - 1.0 / 18.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn required_slots_inverts_model() {
        let p = 0.3;
        let l = 0.002;
        let n = required_slots(p, l, 0.5);
        let sd = duration_stddev_model(p, n, l);
        assert!((sd - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn model_rejects_zero_rate() {
        let _ = duration_stddev_model(0.1, 1000.0, 0.0);
    }
}
