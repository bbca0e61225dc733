//! Frequency and duration estimators (§5.2.2, §5.3).
//!
//! With `yᵢ` the recorded outcome of experiment `i`:
//!
//! * **Frequency.** `F̂ = Σ zᵢ / M`, `zᵢ` the first digit of `yᵢ`. Unbiased
//!   whenever probes report congestion faithfully (`p₁ = p₂ = 1`), and
//!   consistent under an alternating-renewal congestion process.
//! * **Duration (basic).** With `R = #{yᵢ ∈ {01,10,11}}` and
//!   `S = #{yᵢ ∈ {01,10}}` over two-probe experiments,
//!   `D̂ = 2(R/S − 1) + 1` slots, assuming `r = p₂/p₁ = 1`.
//! * **Duration (improved).** Three-probe experiments estimate `r̂ = U/V`
//!   with `U = #{011,110}` and `V = #{001,100}`; then
//!   `D̂ = (2V/U)(R/S − 1) + 1`, valid even when congestion mid-episode is
//!   reported with different fidelity than episode boundaries.
//!
//! §6.2 notes the paper reports the *mean* of the estimates derived from
//! the `01` and `10` boundary counts; using `S = #01 + #10` in a single
//! quotient is exactly that averaging.

use crate::outcome::{ExperimentLog, Outcome};

/// Pattern counts and derived estimates for one run.
///
/// Every field is a plain sum over outcomes, so the struct is a
/// *mergeable summary*: [`Self::push`] folds in one outcome,
/// [`Self::merge`] adds two summaries counter-by-counter, and both
/// operations commute and associate by construction. A fleet of
/// receivers can therefore keep one `Estimates` per session, updated
/// online, and an aggregator can combine them in any order and get the
/// same bits as a single fold over the concatenated logs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Estimates {
    /// Total experiments (`M`).
    pub experiments: u64,
    /// Experiments whose first digit was 1 (`Σ zᵢ`).
    pub z_sum: u64,
    /// Two-probe experiments.
    pub basic_experiments: u64,
    /// Three-probe experiments.
    pub extended_experiments: u64,
    /// `R = #{01, 10, 11}` over two-probe experiments.
    pub r: u64,
    /// `S = #{01, 10}` over two-probe experiments.
    pub s: u64,
    /// `#{01}` alone (for validation).
    pub n01: u64,
    /// `#{10}` alone (for validation).
    pub n10: u64,
    /// `U = #{011, 110}` over three-probe experiments.
    pub u: u64,
    /// `V = #{001, 100}` over three-probe experiments.
    pub v: u64,
    /// `#{111}` over three-probe experiments (§5.5: unusable under
    /// unknown `p₃`, but usable for the triple-window duration estimator
    /// when the two-state fidelity model is assumed to extend).
    pub n111: u64,
    /// Outcomes whose probe count was outside {2, 3} — corrupted or
    /// truncated records from a hostile or damaged log. They contribute
    /// to *no* estimator counter (not even `experiments`/`z_sum`: a
    /// record we cannot classify carries no trustworthy first digit),
    /// but they are counted here so callers can surface the damage in
    /// estimate metadata instead of silently analyzing a partial log.
    pub outcomes_malformed: u64,
    /// Slot width in seconds (copied from the log for unit conversion).
    pub slot_secs: f64,
}

impl Estimates {
    /// Compute all counts from a log: a thin fold over [`Self::push`],
    /// kept as the reference implementation that online (incremental)
    /// estimates are differentially tested against.
    pub fn from_log(log: &ExperimentLog) -> Self {
        let mut e = Estimates {
            slot_secs: log.slot_secs(),
            ..Default::default()
        };
        for o in log.outcomes() {
            e.push(o);
        }
        e
    }

    /// Fold one outcome into the counters.
    ///
    /// Malformed outcomes (probe count outside {2, 3}) only bump
    /// `outcomes_malformed` — they used to panic here, which let one
    /// corrupted report record abort analysis of an entire run.
    pub fn push(&mut self, o: &Outcome) {
        match o.probes {
            2 => {
                self.experiments += 1;
                if o.z() {
                    self.z_sum += 1;
                }
                self.basic_experiments += 1;
                match o.pattern() {
                    0b01 => {
                        self.n01 += 1;
                        self.s += 1;
                        self.r += 1;
                    }
                    0b10 => {
                        self.n10 += 1;
                        self.s += 1;
                        self.r += 1;
                    }
                    0b11 => self.r += 1,
                    _ => {}
                }
            }
            3 => {
                self.experiments += 1;
                if o.z() {
                    self.z_sum += 1;
                }
                self.extended_experiments += 1;
                match o.pattern() {
                    0b011 | 0b110 => self.u += 1,
                    0b001 | 0b100 => self.v += 1,
                    0b111 => self.n111 += 1,
                    _ => {}
                }
            }
            // Guarded *before* `pattern()`/`digits()`, which index
            // `states[..probes]` and would themselves panic for > 3.
            _ => self.outcomes_malformed += 1,
        }
    }

    /// Exact inverse of [`Self::push`]: remove one previously-pushed
    /// outcome. The online receiver fold uses this to revise an
    /// experiment's contribution as more of its probes arrive
    /// (retract the stale outcome, push the refined one).
    ///
    /// Callers must only retract outcomes they pushed; the subtraction
    /// saturates so a violated contract degrades the counters instead
    /// of wrapping them into astronomically wrong estimates.
    pub fn retract(&mut self, o: &Outcome) {
        match o.probes {
            2 => {
                self.experiments = self.experiments.saturating_sub(1);
                if o.z() {
                    self.z_sum = self.z_sum.saturating_sub(1);
                }
                self.basic_experiments = self.basic_experiments.saturating_sub(1);
                match o.pattern() {
                    0b01 => {
                        self.n01 = self.n01.saturating_sub(1);
                        self.s = self.s.saturating_sub(1);
                        self.r = self.r.saturating_sub(1);
                    }
                    0b10 => {
                        self.n10 = self.n10.saturating_sub(1);
                        self.s = self.s.saturating_sub(1);
                        self.r = self.r.saturating_sub(1);
                    }
                    0b11 => self.r = self.r.saturating_sub(1),
                    _ => {}
                }
            }
            3 => {
                self.experiments = self.experiments.saturating_sub(1);
                if o.z() {
                    self.z_sum = self.z_sum.saturating_sub(1);
                }
                self.extended_experiments = self.extended_experiments.saturating_sub(1);
                match o.pattern() {
                    0b011 | 0b110 => self.u = self.u.saturating_sub(1),
                    0b001 | 0b100 => self.v = self.v.saturating_sub(1),
                    0b111 => self.n111 = self.n111.saturating_sub(1),
                    _ => {}
                }
            }
            _ => self.outcomes_malformed = self.outcomes_malformed.saturating_sub(1),
        }
    }

    /// Merge another summary into this one: pure counter addition, so
    /// the operation is associative and commutative by construction and
    /// `merge(from_log(a), from_log(b)) == from_log(a ++ b)` exactly.
    ///
    /// `slot_secs` is metadata, not a counter: it is kept unless unset
    /// (zero, the `Default`), in which case the other side's value is
    /// adopted. Merging summaries with *different* non-zero slot widths
    /// is a caller error — second-scale conversions would be
    /// meaningless — but the slot-denominated counters stay exact.
    pub fn merge(&mut self, other: &Estimates) {
        self.experiments += other.experiments;
        self.z_sum += other.z_sum;
        self.basic_experiments += other.basic_experiments;
        self.extended_experiments += other.extended_experiments;
        self.r += other.r;
        self.s += other.s;
        self.n01 += other.n01;
        self.n10 += other.n10;
        self.u += other.u;
        self.v += other.v;
        self.n111 += other.n111;
        self.outcomes_malformed += other.outcomes_malformed;
        if self.slot_secs == 0.0 {
            self.slot_secs = other.slot_secs;
        }
    }

    /// `F̂ = Σ zᵢ / M`; `None` for an empty log.
    pub fn frequency(&self) -> Option<f64> {
        if self.experiments == 0 {
            None
        } else {
            Some(self.z_sum as f64 / self.experiments as f64)
        }
    }

    /// Basic duration estimate in slots: `D̂ = 2(R/S − 1) + 1`. `None`
    /// when `S = 0` (no episode boundary was ever observed — the situation
    /// ZING finds itself in throughout Table 1).
    pub fn duration_slots_basic(&self) -> Option<f64> {
        if self.s == 0 {
            None
        } else {
            Some(2.0 * (self.r as f64 / self.s as f64 - 1.0) + 1.0)
        }
    }

    /// Improved duration estimate in slots:
    /// `D̂ = (2/r̂)(R/S − 1) + 1`. `None` when `S = 0` (no two-probe
    /// boundary was ever observed — the estimate's own denominator);
    /// degenerate `U`/`V` counts follow the shared
    /// [`Self::r_hat_or_unity`] policy instead of killing the estimate.
    pub fn duration_slots_improved(&self) -> Option<f64> {
        if self.s == 0 {
            return None;
        }
        let ratio = self.r as f64 / self.s as f64 - 1.0;
        Some((2.0 / self.r_hat_or_unity() * ratio + 1.0).max(1.0))
    }

    /// Estimated fidelity ratio `r̂ = U/V`; `None` when `V = 0`.
    pub fn r_hat(&self) -> Option<f64> {
        if self.v == 0 {
            None
        } else {
            Some(self.u as f64 / self.v as f64)
        }
    }

    /// `r̂` with the shared degenerate-count policy: when either boundary
    /// count is zero (`U = 0` or `V = 0`), the run carries no usable
    /// fidelity signal, so fall back to `r = 1` (the §5.2.2 assumption)
    /// rather than return a 0 or undefined ratio. Every duration
    /// estimator that needs `r̂` goes through this, so they all degrade
    /// identically — to their uncorrected forms.
    pub fn r_hat_or_unity(&self) -> f64 {
        self.r_hat().filter(|r| *r > 0.0).unwrap_or(1.0)
    }

    /// Basic duration estimate in seconds.
    pub fn duration_secs_basic(&self) -> Option<f64> {
        self.duration_slots_basic().map(|d| d * self.slot_secs)
    }

    /// Improved duration estimate in seconds.
    pub fn duration_secs_improved(&self) -> Option<f64> {
        self.duration_slots_improved().map(|d| d * self.slot_secs)
    }

    /// §5.5 extension: a duration estimate from the *three-probe*
    /// experiments alone.
    ///
    /// Over three-slot windows of an alternating process there are `B`
    /// occurrences of each single-boundary state (`001`, `100`, `011`,
    /// `110`) and `A − 2B` of `111`, so with
    /// `R₃ = U + V + #111` and `S₃ = V`:
    ///
    /// `E(R₃)/E(S₃) = 2 + r·(D − 2)/2`, giving
    /// `D̂₃ = (2/r̂)(R₃/S₃ − 2) + 2`.
    ///
    /// Assumes `#111` is reported with fidelity `p₂` like the other
    /// multi-congested states (a mild strengthening of §5.3's model,
    /// which is why the paper kept this as a "straightforward
    /// modification" rather than the default). `None` when `S₃ = V = 0`
    /// (its own denominator); the fidelity ratio degrades per
    /// [`Self::r_hat_or_unity`], and noisy sub-slot results clamp to the
    /// physical floor of one slot — the same policy as
    /// [`Self::duration_slots_improved`].
    pub fn duration_slots_triple(&self) -> Option<f64> {
        if self.v == 0 {
            return None;
        }
        let r3 = (self.u + self.v + self.n111) as f64;
        let s3 = self.v as f64;
        Some(((r3 / s3 - 2.0) * 2.0 / self.r_hat_or_unity() + 2.0).max(1.0))
    }

    /// §5.5 pooled duration estimate: the basic/improved two-probe
    /// estimate and the triple-window estimate, weighted by their
    /// respective boundary-observation counts (`S` and `S₃ = V`) — using
    /// every probe for duration "thereby decreasing the total number of
    /// probes that are required ... for the same level of confidence".
    pub fn duration_slots_pooled(&self) -> Option<f64> {
        let two = self
            .duration_slots_improved()
            .or_else(|| self.duration_slots_basic());
        let three = self.duration_slots_triple();
        match (two, three) {
            (Some(d2), Some(d3)) => {
                let w2 = self.s as f64;
                let w3 = self.v as f64;
                Some((d2 * w2 + d3 * w3) / (w2 + w3))
            }
            (Some(d2), None) => Some(d2),
            (None, Some(d3)) => Some(d3),
            (None, None) => None,
        }
    }

    /// Pooled duration estimate in seconds.
    pub fn duration_secs_pooled(&self) -> Option<f64> {
        self.duration_slots_pooled().map(|d| d * self.slot_secs)
    }

    /// Episode *rate*: episodes per slot, `F̂ / D̂` — the `L` that §7's
    /// accuracy model needs. `None` until both inputs exist.
    pub fn episode_rate_per_slot(&self) -> Option<f64> {
        match (self.frequency(), self.duration_slots_basic()) {
            (Some(f), Some(d)) if d > 0.0 => Some(f / d),
            _ => None,
        }
    }

    /// Mean *loss-free period* in slots — the complementary episode
    /// characteristic Zhang et al. track (the paper's §2 citation \[39\]
    /// reports "loss free period duration" constancy). Under the
    /// alternating-renewal model `F = D / (D + D′)`, so
    /// `D̂′ = D̂ (1 − F̂) / F̂`. `None` until both inputs exist or when no
    /// congestion was seen.
    pub fn loss_free_slots(&self) -> Option<f64> {
        let f = self.frequency()?;
        let d = self.duration_slots_basic()?;
        if f <= 0.0 || f >= 1.0 {
            return None;
        }
        Some(d * (1.0 - f) / f)
    }

    /// Mean loss-free period in seconds.
    pub fn loss_free_secs(&self) -> Option<f64> {
        self.loss_free_slots().map(|d| d * self.slot_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::{ExperimentLog, Outcome};

    fn log_from_patterns(basic: &[(bool, bool)], ext: &[(bool, bool, bool)]) -> ExperimentLog {
        let mut log = ExperimentLog::new(1_000_000, 0.005);
        let mut id = 0;
        for &(a, b) in basic {
            log.push(Outcome::basic(id, id * 10, a, b));
            id += 1;
        }
        for &(a, b, c) in ext {
            log.push(Outcome::extended(id, id * 10, a, b, c));
            id += 1;
        }
        log
    }

    #[test]
    fn frequency_counts_first_digits() {
        let log = log_from_patterns(
            &[(true, false), (false, true), (false, false), (true, true)],
            &[(true, false, false), (false, false, false)],
        );
        let e = Estimates::from_log(&log);
        assert_eq!(e.experiments, 6);
        assert_eq!(e.z_sum, 3);
        assert!((e.frequency().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duration_counts_r_and_s() {
        // 4×{01}, 4×{10}, 8×{11}, 4×{00}: R=16, S=8 → D̂ = 2(2−1)+1 = 3.
        let mut basic = Vec::new();
        for _ in 0..4 {
            basic.push((false, true));
            basic.push((true, false));
            basic.push((true, true));
            basic.push((true, true));
            basic.push((false, false));
        }
        let log = log_from_patterns(&basic, &[]);
        let e = Estimates::from_log(&log);
        assert_eq!(e.r, 16);
        assert_eq!(e.s, 8);
        assert_eq!(e.n01, 4);
        assert_eq!(e.n10, 4);
        assert!((e.duration_slots_basic().unwrap() - 3.0).abs() < 1e-12);
        assert!((e.duration_secs_basic().unwrap() - 0.015).abs() < 1e-12);
    }

    #[test]
    fn no_boundaries_gives_none() {
        let log = log_from_patterns(&[(true, true), (false, false)], &[]);
        let e = Estimates::from_log(&log);
        assert_eq!(e.duration_slots_basic(), None);
        assert!(e.frequency().is_some());
    }

    #[test]
    fn empty_log_gives_none_frequency() {
        let log = ExperimentLog::new(100, 0.005);
        let e = Estimates::from_log(&log);
        assert_eq!(e.frequency(), None);
        assert_eq!(e.duration_slots_basic(), None);
    }

    #[test]
    fn improved_uses_u_v_correction() {
        // Perfect reporting (r = 1): U patterns (011/110) and V patterns
        // (001/100) equally common → improved equals basic.
        let ext = vec![
            (false, true, true),
            (true, true, false),
            (false, false, true),
            (true, false, false),
        ];
        let basic = vec![(false, true), (true, false), (true, true)];
        let log = log_from_patterns(&basic, &ext);
        let e = Estimates::from_log(&log);
        assert_eq!(e.u, 2);
        assert_eq!(e.v, 2);
        assert!((e.r_hat().unwrap() - 1.0).abs() < 1e-12);
        assert!(
            (e.duration_slots_improved().unwrap() - e.duration_slots_basic().unwrap()).abs()
                < 1e-12
        );
    }

    #[test]
    fn improved_corrects_depressed_p2() {
        // If mid-episode congestion is under-reported (p2 < p1), 11 states
        // leak into 01/10/00 and U shrinks relative to V. Check direction:
        // r̂ < 1 inflates the improved estimate relative to basic.
        let ext = vec![
            (false, true, true),
            (false, false, true),
            (true, false, false),
        ];
        let basic = vec![(false, true), (true, false), (true, true)];
        let log = log_from_patterns(&basic, &ext);
        let e = Estimates::from_log(&log);
        assert_eq!(e.u, 1);
        assert_eq!(e.v, 2);
        let imp = e.duration_slots_improved().unwrap();
        let bas = e.duration_slots_basic().unwrap();
        assert!(imp > bas, "improved {imp} should exceed basic {bas}");
    }

    #[test]
    fn loss_free_period_from_renewal_identity() {
        // F̂ = 0.5 (2 of 4 experiments start congested), D̂ = 3 slots →
        // D̂′ = 3·(1−0.5)/0.5 = 3 slots.
        let log = log_from_patterns(
            &[(false, true), (true, false), (true, true), (false, false)],
            &[],
        );
        let e = Estimates::from_log(&log);
        assert!((e.frequency().unwrap() - 0.5).abs() < 1e-12);
        let d = e.duration_slots_basic().unwrap();
        let gap = e.loss_free_slots().unwrap();
        assert!((gap - d * (1.0 - 0.5) / 0.5).abs() < 1e-12);
        assert!((e.loss_free_secs().unwrap() - gap * 0.005).abs() < 1e-12);
    }

    #[test]
    fn loss_free_period_undefined_at_extremes() {
        // All congested → F̂ = 1: undefined.
        let log = log_from_patterns(&[(true, true), (true, false)], &[]);
        assert_eq!(Estimates::from_log(&log).loss_free_slots(), None);
        // Never congested → F̂ = 0: undefined (and D̂ is None anyway).
        let clean = log_from_patterns(&[(false, false)], &[]);
        assert_eq!(Estimates::from_log(&clean).loss_free_slots(), None);
    }

    #[test]
    fn triple_estimator_recovers_duration_on_clean_counts() {
        // Construct counts for D = 4 slots with perfect reporting:
        // per episode, one of each single-boundary state and D−2 = 2 of
        // 111. Use 10 episodes: U = 20, V = 20, #111 = 20.
        let mut ext = Vec::new();
        for _ in 0..10 {
            ext.push((false, false, true)); // 001
            ext.push((true, false, false)); // 100
            ext.push((false, true, true)); // 011
            ext.push((true, true, false)); // 110
            ext.push((true, true, true)); // 111
            ext.push((true, true, true)); // 111
        }
        let log = log_from_patterns(&[], &ext);
        let e = Estimates::from_log(&log);
        assert_eq!(e.u, 20);
        assert_eq!(e.v, 20);
        assert_eq!(e.n111, 20);
        // R3/S3 = 60/20 = 3; r̂ = 1 → D̂ = 2(3−2)+2 = 4.
        assert!((e.duration_slots_triple().unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn pooled_weights_by_boundary_counts() {
        // Two-probe part says D = 3 with S = 8 (from duration_counts
        // test's construction); triple part says D = 4 with V = 4.
        let mut basic = Vec::new();
        for _ in 0..4 {
            basic.push((false, true));
            basic.push((true, false));
            basic.push((true, true));
            basic.push((true, true));
        }
        let ext = vec![
            (false, false, true),
            (true, false, false),
            (false, false, true),
            (true, false, false),
            (false, true, true),
            (true, true, false),
            (false, true, true),
            (true, true, false),
            (true, true, true),
            (true, true, true),
            (true, true, true),
            (true, true, true),
        ];
        let log = log_from_patterns(&basic, &ext);
        let e = Estimates::from_log(&log);
        let d2 = e.duration_slots_basic().unwrap();
        let d3 = e.duration_slots_triple().unwrap();
        let pooled = e.duration_slots_pooled().unwrap();
        let expect = (d2 * e.s as f64 + d3 * e.v as f64) / (e.s + e.v) as f64;
        assert!((pooled - expect).abs() < 1e-12);
        assert!(pooled > d2.min(d3) && pooled < d2.max(d3));
    }

    #[test]
    fn pooled_falls_back_when_one_side_missing() {
        // Only two-probe data.
        let log = log_from_patterns(&[(false, true), (true, true)], &[]);
        let e = Estimates::from_log(&log);
        assert_eq!(e.duration_slots_pooled(), e.duration_slots_basic());
        // Only triple data.
        let log3 = log_from_patterns(&[], &[(false, false, true), (true, true, true)]);
        let e3 = Estimates::from_log(&log3);
        assert_eq!(e3.duration_slots_pooled(), e3.duration_slots_triple());
        // Nothing at all.
        let empty = log_from_patterns(&[(false, false)], &[]);
        assert_eq!(Estimates::from_log(&empty).duration_slots_pooled(), None);
    }

    #[test]
    fn u_zero_degrades_to_unit_fidelity() {
        // U = 0 with V > 0: no 011/110 ever observed, so r̂ carries no
        // signal. Policy: both r̂-consuming estimators fall back to r = 1
        // rather than dying (improved) or dividing by zero (triple).
        // Basic part: 01, 10, 11, 11 → R = 4, S = 2 → D̂ = 2(2−1)+1 = 3.
        let basic = vec![(false, true), (true, false), (true, true), (true, true)];
        let ext = vec![(false, false, true), (true, false, false)];
        let e = Estimates::from_log(&log_from_patterns(&basic, &ext));
        assert_eq!(e.u, 0);
        assert_eq!(e.v, 2);
        assert_eq!(e.r_hat(), Some(0.0));
        assert!((e.r_hat_or_unity() - 1.0).abs() < 1e-12);
        let imp = e.duration_slots_improved().unwrap();
        let bas = e.duration_slots_basic().unwrap();
        assert!(
            (imp - bas).abs() < 1e-12,
            "improved {imp} degrades to basic {bas}"
        );
        // Triple: R₃/S₃ = 2/2 = 1 < 2 → raw D̂₃ = 2(1−2)+2 = 0, clamped
        // to the one-slot physical floor.
        assert!((e.duration_slots_triple().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn v_zero_degrades_to_unit_fidelity() {
        // V = 0 with U > 0: r̂ is undefined. The old improved formula
        // (2V/U)(R/S−1)+1 silently collapsed to the constant 1.0 here;
        // the unified policy degrades to the basic estimate instead.
        let basic = vec![(false, true), (true, false), (true, true), (true, true)];
        let ext = vec![(false, true, true), (true, true, false)];
        let e = Estimates::from_log(&log_from_patterns(&basic, &ext));
        assert_eq!(e.u, 2);
        assert_eq!(e.v, 0);
        assert_eq!(e.r_hat(), None);
        assert!((e.r_hat_or_unity() - 1.0).abs() < 1e-12);
        let imp = e.duration_slots_improved().unwrap();
        let bas = e.duration_slots_basic().unwrap();
        assert!(
            (imp - bas).abs() < 1e-12,
            "improved {imp} degrades to basic {bas}"
        );
        assert!(
            imp > 1.0 + 1e-12,
            "must not collapse to the old constant 1.0"
        );
        // Triple's own denominator S₃ = V is gone: no estimate.
        assert_eq!(e.duration_slots_triple(), None);
    }

    #[test]
    fn triple_clamps_r3_s3_below_two_at_one_slot() {
        // Heavy V, light U/111: R₃/S₃ = (1+4+0)/4 = 1.25 < 2 and
        // r̂ = 0.25, so the raw estimate 2(1.25−2)/0.25 + 2 = −4 slots is
        // unphysical; the policy clamps at one slot.
        let ext = vec![
            (false, false, true),
            (true, false, false),
            (false, false, true),
            (true, false, false),
            (false, true, true),
        ];
        let e = Estimates::from_log(&log_from_patterns(&[], &ext));
        assert_eq!(e.u, 1);
        assert_eq!(e.v, 4);
        assert!((e.duration_slots_triple().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn extended_first_digits_count_toward_frequency() {
        let log = log_from_patterns(&[], &[(true, false, false), (false, true, true)]);
        let e = Estimates::from_log(&log);
        assert_eq!(e.experiments, 2);
        assert!((e.frequency().unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(e.basic_experiments, 0);
        assert_eq!(e.extended_experiments, 2);
    }

    /// Regression: a hostile log with probe counts outside {2, 3} used
    /// to panic `from_log` (`outcome with {n} probes`). It must instead
    /// skip the records, count them, and estimate from the valid rest.
    #[test]
    fn hostile_log_is_counted_not_fatal() {
        let mut log = ExperimentLog::new(1_000, 0.005);
        log.push(Outcome::basic(0, 0, true, false));
        for probes in [0u8, 1, 4, 7, 255] {
            log.push(Outcome {
                id: 100 + u64::from(probes),
                start_slot: 10,
                probes,
                states: [true, true, true],
            });
        }
        log.push(Outcome::extended(1, 20, false, false, true));
        let e = Estimates::from_log(&log);
        assert_eq!(e.outcomes_malformed, 5);
        assert_eq!(e.experiments, 2, "malformed records are not experiments");
        assert_eq!(e.z_sum, 1, "malformed first digits are not trusted");
        assert_eq!(e.basic_experiments, 1);
        assert_eq!(e.extended_experiments, 1);
        assert_eq!(e.n10, 1);
        assert_eq!(e.v, 1);
    }

    #[test]
    fn retract_inverts_push() {
        let mut outcomes = vec![
            Outcome::basic(0, 0, false, true),
            Outcome::basic(1, 10, true, false),
            Outcome::basic(2, 20, true, true),
            Outcome::basic(3, 30, false, false),
            Outcome::extended(4, 40, false, true, true),
            Outcome::extended(5, 50, false, false, true),
            Outcome::extended(6, 60, true, true, true),
        ];
        outcomes.push(Outcome {
            id: 7,
            start_slot: 70,
            probes: 9,
            states: [false; 3],
        });
        let mut e = Estimates {
            slot_secs: 0.005,
            ..Default::default()
        };
        for o in &outcomes {
            e.push(o);
        }
        // Retract half, re-push, retract all: back to empty counters.
        for o in &outcomes[..4] {
            e.retract(o);
        }
        for o in &outcomes[..4] {
            e.push(o);
        }
        for o in &outcomes {
            e.retract(o);
        }
        let empty = Estimates {
            slot_secs: 0.005,
            ..Default::default()
        };
        assert_eq!(e, empty);
    }

    #[test]
    fn retract_saturates_instead_of_wrapping() {
        let mut e = Estimates::default();
        e.retract(&Outcome::basic(0, 0, true, true));
        assert_eq!(e, Estimates::default());
    }

    #[test]
    fn merge_adopts_slot_width_when_unset() {
        let mut a = Estimates::default();
        let b = Estimates {
            slot_secs: 0.005,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.slot_secs, 0.005);
        let c = Estimates {
            slot_secs: 0.010,
            ..Default::default()
        };
        a.merge(&c);
        assert_eq!(a.slot_secs, 0.005, "a set slot width is kept");
    }

    /// Deterministic pseudo-random outcome stream for the merge laws:
    /// mostly valid 2/3-probe outcomes with occasional malformed ones.
    fn stream(seed: u64, len: usize) -> Vec<Outcome> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut step = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 11
        };
        (0..len)
            .map(|i| {
                let bits = step();
                let probes = match bits % 16 {
                    0 => (bits >> 8) as u8, // hostile: arbitrary count
                    n if n < 8 => 2,
                    _ => 3,
                };
                Outcome {
                    id: i as u64,
                    start_slot: (i as u64) * 3,
                    probes,
                    states: [bits & 16 != 0, bits & 32 != 0, bits & 64 != 0],
                }
            })
            .collect()
    }

    fn fold(outcomes: &[Outcome]) -> Estimates {
        let mut e = Estimates {
            slot_secs: 0.005,
            ..Default::default()
        };
        for o in outcomes {
            e.push(o);
        }
        e
    }

    proptest::proptest! {
        /// merge(fold(a), fold(b)) == fold(a ++ b) for any split point.
        #[test]
        fn merge_equals_concatenated_fold(seed in 0u64..1024, len in 0usize..200, cut in 0usize..200) {
            let s = stream(seed, len);
            let cut = cut.min(s.len());
            let mut left = fold(&s[..cut]);
            left.merge(&fold(&s[cut..]));
            proptest::prop_assert_eq!(left, fold(&s));
        }

        #[test]
        fn merge_is_commutative(sa in 0u64..512, sb in 0u64..512, la in 0usize..150, lb in 0usize..150) {
            let (a, b) = (fold(&stream(sa, la)), fold(&stream(sb, lb)));
            let mut ab = a;
            ab.merge(&b);
            let mut ba = b;
            ba.merge(&a);
            proptest::prop_assert_eq!(ab, ba);
        }

        #[test]
        fn merge_is_associative(sa in 0u64..256, sb in 0u64..256, sc in 0u64..256, len in 1usize..120) {
            let (a, b, c) = (fold(&stream(sa, len)), fold(&stream(sb, len)), fold(&stream(sc, len)));
            let mut left = a;
            left.merge(&b);
            left.merge(&c);
            let mut bc = b;
            bc.merge(&c);
            let mut right = a;
            right.merge(&bc);
            proptest::prop_assert_eq!(left, right);
        }

        /// Push/retract in arbitrary interleavings always lands back on
        /// the fold of what remains pushed.
        #[test]
        fn retract_is_exact_inverse(seed in 0u64..1024, len in 1usize..120, keep in 0usize..120) {
            let s = stream(seed, len);
            let keep = keep.min(s.len());
            let mut e = fold(&s);
            for o in &s[keep..] {
                e.retract(o);
            }
            proptest::prop_assert_eq!(e, fold(&s[..keep]));
        }
    }
}
