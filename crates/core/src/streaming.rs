//! Streaming (online) estimation.
//!
//! [`crate::estimator::Estimates`] and [`crate::validate::Validation`]
//! reduce a finished log; long-running deployments (and the adaptive
//! runtime of [`crate::adaptive`]) instead fold outcomes in as they
//! arrive and query estimates at any time. [`StreamingEstimator`] keeps
//! the same counts incrementally and answers the same questions, plus the
//! run-time quantities a stopping rule needs: the current loss-event-rate
//! estimate `L̂` and the §7 predicted standard deviation of the duration
//! estimate.

use crate::estimator::Estimates;
use crate::outcome::Outcome;
use crate::validate::{duration_stddev_model, Validation};
use serde::{Deserialize, Serialize};

/// Incrementally maintained pattern counts and estimates.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StreamingEstimator {
    estimates: Estimates,
    validation: Validation,
    /// Highest slot seen so far (+ probe span), for the effective `N`.
    max_slot_seen: u64,
    /// Per-slot experiment probability (for the §7 model).
    p: f64,
}

impl StreamingEstimator {
    /// New empty estimator for a process with per-slot probability `p`
    /// and the given slot width.
    pub fn new(p: f64, slot_secs: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0,1], got {p}");
        assert!(slot_secs > 0.0, "slot width must be positive");
        let estimates = Estimates {
            slot_secs,
            ..Default::default()
        };
        Self {
            estimates,
            validation: Validation::default(),
            max_slot_seen: 0,
            p,
        }
    }

    /// Fold in one outcome.
    ///
    /// Malformed outcomes (probe count outside {2, 3}) are counted in
    /// `estimates().outcomes_malformed` and otherwise ignored — in
    /// particular they do not advance the effective-`N` window. The
    /// probes-0 case used to underflow the span arithmetic below before
    /// the pattern match could even reject it.
    pub fn push(&mut self, o: &Outcome) {
        if o.probes != 2 && o.probes != 3 {
            self.estimates.push(o);
            return;
        }
        // k probes starting at slot s occupy slots s ..= s+k-1;
        // saturating so a hostile start slot near u64::MAX cannot wrap
        // the window to zero.
        let end_slot = o.start_slot.saturating_add(u64::from(o.probes) - 1);
        self.max_slot_seen = self.max_slot_seen.max(end_slot);

        self.estimates.push(o);
        self.validation.push(o);
    }

    /// Current estimates snapshot.
    pub fn estimates(&self) -> &Estimates {
        &self.estimates
    }

    /// Current validation tallies.
    pub fn validation(&self) -> &Validation {
        &self.validation
    }

    /// Outcomes folded in so far.
    pub fn len(&self) -> u64 {
        self.estimates.experiments
    }

    /// Whether nothing has been folded in.
    pub fn is_empty(&self) -> bool {
        self.estimates.experiments == 0
    }

    /// Effective run length so far, in slots (highest slot probed).
    pub fn effective_slots(&self) -> u64 {
        self.max_slot_seen
    }

    /// Estimated loss-event rate `L̂` per slot: episode *starts* are in
    /// one-to-one correspondence with `01` boundary observations, each of
    /// which is sampled with probability `p` per episode edge, so
    /// `L̂ = #01 / (p · N)`. Returns `None` before any boundary is seen.
    pub fn loss_event_rate(&self) -> Option<f64> {
        if self.estimates.n01 == 0 || self.max_slot_seen == 0 {
            return None;
        }
        Some(self.estimates.n01 as f64 / (self.p * self.max_slot_seen as f64))
    }

    /// §7's predicted `StdDev(D̂)` (in slots) at the current run length,
    /// using the measured `L̂`. `None` until a loss event rate exists.
    pub fn predicted_duration_stddev(&self) -> Option<f64> {
        let l = self.loss_event_rate()?;
        if self.max_slot_seen == 0 {
            return None;
        }
        Some(duration_stddev_model(self.p, self.max_slot_seen as f64, l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::ExperimentLog;

    fn outcomes() -> Vec<Outcome> {
        vec![
            Outcome::basic(0, 10, false, false),
            Outcome::basic(1, 50, false, true),
            Outcome::basic(2, 90, true, false),
            Outcome::basic(3, 130, true, true),
            Outcome::extended(4, 200, false, true, true),
            Outcome::extended(5, 280, false, false, true),
            Outcome::extended(6, 360, false, true, false),
            Outcome::extended(7, 440, true, true, true),
            Outcome::extended(8, 520, true, false, false),
        ]
    }

    #[test]
    fn streaming_matches_batch() {
        let mut s = StreamingEstimator::new(0.3, 0.005);
        let mut log = ExperimentLog::new(1_000, 0.005);
        for o in outcomes() {
            s.push(&o);
            log.push(o);
        }
        let batch = Estimates::from_log(&log);
        let stream = s.estimates();
        assert_eq!(stream.experiments, batch.experiments);
        assert_eq!(stream.z_sum, batch.z_sum);
        assert_eq!(stream.r, batch.r);
        assert_eq!(stream.s, batch.s);
        assert_eq!(stream.u, batch.u);
        assert_eq!(stream.v, batch.v);
        assert_eq!(stream.n111, batch.n111);
        assert_eq!(
            stream.duration_slots_pooled(),
            batch.duration_slots_pooled()
        );
        assert_eq!(stream.frequency(), batch.frequency());
        assert_eq!(stream.duration_slots_basic(), batch.duration_slots_basic());

        let vbatch = Validation::from_log(&log);
        let vstream = s.validation();
        assert_eq!(vstream.n01, vbatch.n01);
        assert_eq!(vstream.n10, vbatch.n10);
        assert_eq!(vstream.n010, vbatch.n010);
        assert_eq!(vstream.violations(), vbatch.violations());
    }

    #[test]
    fn effective_slots_track_probe_span() {
        let mut s = StreamingEstimator::new(0.5, 0.005);
        assert!(s.is_empty());
        // A basic experiment at slot 100 probes slots 100 and 101; an
        // extended one at 500 probes 500, 501, 502.
        s.push(&Outcome::basic(0, 100, false, false));
        assert_eq!(s.effective_slots(), 101);
        s.push(&Outcome::extended(1, 500, false, false, false));
        assert_eq!(s.effective_slots(), 502);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn loss_event_rate_from_boundaries() {
        let mut s = StreamingEstimator::new(0.5, 0.005);
        assert_eq!(s.loss_event_rate(), None);
        // Two 01 boundaries; the last experiment starts at slot 1000 and
        // probes 1000 and 1001, so N = 1001 and L̂ = 2 / (0.5 × 1001).
        s.push(&Outcome::basic(0, 400, false, true));
        s.push(&Outcome::basic(1, 1000, false, true));
        let l = s.loss_event_rate().unwrap();
        assert!((l - 2.0 / (0.5 * 1001.0)).abs() < 1e-12, "L̂ = {l}");
        assert!(s.predicted_duration_stddev().is_some());
    }

    #[test]
    fn hand_computed_fixture_agrees_with_batch() {
        // Fixture chosen to hit the probe-span off-by-one and the U = 0
        // degenerate corner at once. Outcomes (start slot, pattern):
        //   basic    100  01   → n01 = 1, S += 1, R += 1
        //   basic    300  10   → n10 = 1, S += 1, R += 1
        //   basic    500  11   → R += 1
        //   basic    700  11   → R += 1
        //   extended 898  001  → V += 1   (probes slots 898, 899, 900)
        // Hand-computed: R = 4, S = 2 → D̂_basic = 2(4/2 − 1) + 1 = 3;
        // U = 0, V = 1 → improved degrades to basic; N = 900 (not 901);
        // L̂ = n01 / (p·N) = 1 / (0.5 × 900).
        let outcomes = vec![
            Outcome::basic(0, 100, false, true),
            Outcome::basic(1, 300, true, false),
            Outcome::basic(2, 500, true, true),
            Outcome::basic(3, 700, true, true),
            Outcome::extended(4, 898, false, false, true),
        ];
        let mut s = StreamingEstimator::new(0.5, 0.005);
        let mut log = ExperimentLog::new(1_000, 0.005);
        for o in &outcomes {
            s.push(o);
        }
        for o in outcomes {
            log.push(o);
        }
        let batch = Estimates::from_log(&log);

        assert_eq!(
            s.effective_slots(),
            900,
            "3 probes from slot 898 end at 900"
        );
        let l = s.loss_event_rate().unwrap();
        assert!((l - 1.0 / (0.5 * 900.0)).abs() < 1e-12, "L̂ = {l}");

        for e in [s.estimates(), &batch] {
            assert_eq!(e.r, 4);
            assert_eq!(e.s, 2);
            assert_eq!(e.u, 0);
            assert_eq!(e.v, 1);
            assert!((e.duration_slots_basic().unwrap() - 3.0).abs() < 1e-12);
            assert!(
                (e.duration_slots_improved().unwrap() - 3.0).abs() < 1e-12,
                "U = 0 degrades improved to basic"
            );
        }
        assert_eq!(
            s.estimates().duration_slots_pooled(),
            batch.duration_slots_pooled()
        );
    }

    #[test]
    fn predicted_stddev_decreases_with_more_data() {
        let mut s = StreamingEstimator::new(0.5, 0.005);
        s.push(&Outcome::basic(0, 100, false, true));
        let early = s.predicted_duration_stddev().unwrap();
        // Same boundary density, 10× longer run.
        for i in 1..10u64 {
            s.push(&Outcome::basic(i, 100 + i * 100, false, true));
        }
        let late = s.predicted_duration_stddev().unwrap();
        assert!(late < early, "sd should shrink: {early} → {late}");
    }

    #[test]
    #[should_panic(expected = "p must be in (0,1]")]
    fn rejects_bad_p() {
        let _ = StreamingEstimator::new(1.5, 0.005);
    }

    /// Regression: a zero-probe outcome at slot 0 used to compute
    /// `0 + 0 - 1` for its end slot — a debug-mode panic and a
    /// release-mode wrap to `u64::MAX` that poisoned `effective_slots`
    /// (and with it `L̂` and the §7 stddev model) for the whole run.
    #[test]
    fn malformed_outcomes_do_not_poison_the_window() {
        let mut s = StreamingEstimator::new(0.5, 0.005);
        for probes in [0u8, 1, 4, 200] {
            s.push(&Outcome {
                id: u64::from(probes),
                start_slot: 0,
                probes,
                states: [true; 3],
            });
        }
        assert_eq!(s.effective_slots(), 0);
        assert_eq!(s.loss_event_rate(), None);
        assert_eq!(s.predicted_duration_stddev(), None);
        assert_eq!(s.estimates().outcomes_malformed, 4);
        assert_eq!(s.len(), 0, "malformed records are not experiments");

        // Valid data afterwards estimates as if the noise never arrived.
        s.push(&Outcome::basic(10, 400, false, true));
        let l = s.loss_event_rate().unwrap();
        assert!(l.is_finite() && l > 0.0, "L̂ = {l}");
        assert!(s.predicted_duration_stddev().unwrap().is_finite());
    }

    /// The degenerate zero-slot window: `loss_event_rate` divides by
    /// `max_slot_seen`, so boundary counts with no recorded span must
    /// yield `None`, never `inf`/`NaN`. Same audit for
    /// `predicted_duration_stddev`, which feeds the same `N` into the
    /// §7 model.
    #[test]
    fn zero_slot_window_yields_none_not_inf() {
        let mut s = StreamingEstimator::new(0.5, 0.005);
        // Force the degenerate state directly: a boundary count with an
        // empty window (as a corrupted snapshot could deserialize to).
        s.estimates.n01 = 3;
        assert_eq!(s.max_slot_seen, 0);
        assert_eq!(s.loss_event_rate(), None);
        assert_eq!(s.predicted_duration_stddev(), None);
    }

    /// A hostile start slot near `u64::MAX` saturates the window
    /// instead of wrapping it back to a tiny `N`.
    #[test]
    fn huge_start_slot_saturates_the_window() {
        let mut s = StreamingEstimator::new(0.5, 0.005);
        s.push(&Outcome::basic(0, u64::MAX - 1, false, true));
        assert_eq!(s.effective_slots(), u64::MAX);
        assert!(s.loss_event_rate().unwrap().is_finite());
    }
}
