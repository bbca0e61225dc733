//! Clock offset and skew removal for one-way delay series.
//!
//! §7: "To accurately calculate end-to-end delay for inferring congestion
//! requires time synchronization of end hosts. While we can trivially
//! eliminate offset, clock skew is still a concern." Raw receiver-minus-
//! sender timestamps have the form
//!
//! ```text
//! raw(t) = queueing_delay(t) + C + ρ·t
//! ```
//!
//! with unknown constant offset `C` and relative clock skew `ρ` (tens of
//! ppm on commodity hardware — ~36 ms/hour at 10 ppm, enough to swamp a
//! 100 ms queueing signal over a long run). Since `queueing_delay ≥ 0`
//! and the path is idle at least occasionally, the *lower envelope* of
//! the raw series is the clock line `C + ρ·t`. [`fit_baseline`]
//! estimates it with the classic two-window-minima construction (as in
//! Zhang, Liu & Xia's fixed-segment scheme [38 in the paper]): take the
//! minimum point of the first and last thirds of the run and pass a line
//! through them; [`Baseline::correct`] then yields queueing delays that
//! are non-negative up to numerical error. The residual is deliberately
//! *not* clamped at zero: the envelope samples themselves land a few
//! float-rounding ULPs below the fitted line, and clamping would turn
//! "touching the baseline" into a phantom exact 0.0 that hides
//! record-level inconsistencies (a max seeded at 0.0 can then exceed the
//! last observed value). Consumers that need a non-negative quantity
//! (histograms, plotting) clamp at their own edge.

/// A fitted clock baseline `offset + slope·t` (seconds, seconds/second).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Baseline {
    /// Estimated constant offset `C` at `t = 0`, in seconds.
    pub offset: f64,
    /// Estimated relative skew `ρ` in seconds per second.
    pub slope: f64,
}

impl Baseline {
    /// Queueing delay implied by a raw delay sample at receiver time `t`.
    ///
    /// For samples the baseline was fitted over, the result is bounded
    /// below by roughly float rounding (see the module docs for why it
    /// is not clamped at exactly zero).
    pub fn correct(&self, t: f64, raw: f64) -> f64 {
        raw - (self.offset + self.slope * t)
    }
}

/// Fit the lower-envelope clock line to a series of `(receiver time,
/// raw delay)` points, read from each sample through `point`: the
/// receiver fits its raw-delay records in place, with no copy of the
/// series. Returns `None` for an empty input.
///
/// Three passes: the global minimum and time range together, both
/// window minima together, then the envelope guard.
///
/// Robustness notes:
/// * with fewer than 8 points, or a run too short to resolve a slope
///   (< 1 s between the window minima), the slope is pinned to zero and
///   only the offset (global minimum) is removed — the behaviour of the
///   simple min-subtraction estimator;
/// * the fit never reports a baseline above any sample by more than
///   numerical error, so corrected delays are non-negative by
///   construction.
pub fn fit_baseline<T>(samples: &[T], point: impl Fn(&T) -> (f64, f64)) -> Option<Baseline> {
    if samples.is_empty() {
        return None;
    }
    let (global_min, t_min, t_max) = samples.iter().map(&point).fold(
        (f64::INFINITY, f64::INFINITY, f64::NEG_INFINITY),
        |(d_lo, lo, hi), (t, d)| (d_lo.min(d), lo.min(t), hi.max(t)),
    );

    if samples.len() < 8 || t_max - t_min < 1.0 {
        return Some(Baseline {
            offset: global_min,
            slope: 0.0,
        });
    }

    // Minimum point of the first third and of the last third (the
    // earliest on a tie, as `Iterator::min_by` picks it).
    let span = t_max - t_min;
    let first_end = t_min + span / 3.0;
    let last_start = t_max - span / 3.0;
    let keep_lower = |best: &mut Option<(f64, f64)>, p: (f64, f64)| {
        if best.is_none_or(|b| p.1.total_cmp(&b.1).is_lt()) {
            *best = Some(p);
        }
    };
    let (mut first, mut last) = (None, None);
    for p @ (t, _) in samples.iter().map(&point) {
        if t >= t_min && t <= first_end {
            keep_lower(&mut first, p);
        }
        if t >= last_start && t <= t_max {
            keep_lower(&mut last, p);
        }
    }
    let (t1, d1) = first?;
    let (t2, d2) = last?;
    if (t2 - t1).abs() < 1.0 {
        return Some(Baseline {
            offset: global_min,
            slope: 0.0,
        });
    }
    let slope = (d2 - d1) / (t2 - t1);
    let offset = d1 - slope * t1;

    // Guard: if the fitted line sits above some sample (e.g. both window
    // minima were congested), lower it to touch the envelope.
    let undershoot = samples
        .iter()
        .map(&point)
        .map(|(t, d)| d - (offset + slope * t))
        .fold(f64::INFINITY, f64::min);
    let offset = if undershoot < 0.0 {
        offset + undershoot
    } else {
        offset
    };
    Some(Baseline { offset, slope })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit(points: &[(f64, f64)]) -> Option<Baseline> {
        fit_baseline(points, |&p| p)
    }

    fn synthetic(
        n: usize,
        span_secs: f64,
        offset: f64,
        skew: f64,
        congestion: impl Fn(f64) -> f64,
    ) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| {
                let t = i as f64 * span_secs / n as f64;
                (t, congestion(t) + offset + skew * t)
            })
            .collect()
    }

    #[test]
    fn removes_pure_offset() {
        // Idle path with one 50 ms congestion bump; offset 5 s, no skew.
        let pts = synthetic(100, 60.0, 5.0, 0.0, |t| {
            if (20.0..22.0).contains(&t) {
                0.05
            } else {
                0.0
            }
        });
        let b = fit(&pts).unwrap();
        assert!(b.slope.abs() < 1e-9);
        for &(t, raw) in &pts {
            let q = b.correct(t, raw);
            if (20.0..22.0).contains(&t) {
                assert!((q - 0.05).abs() < 1e-9, "bump read {q}");
            } else {
                assert!(q < 1e-9, "idle read {q}");
            }
        }
    }

    #[test]
    fn removes_linear_skew() {
        // 20 ppm skew over 10 minutes = 12 ms of drift; idle baseline with
        // occasional 80 ms congestion bumps.
        let pts = synthetic(2000, 600.0, -3.0, 20e-6, |t| {
            if (50.0..52.0).contains(&t) || (400.0..403.0).contains(&t) {
                0.08
            } else {
                0.0005
            }
        });
        let b = fit(&pts).unwrap();
        assert!((b.slope - 20e-6).abs() < 2e-6, "slope {}", b.slope);
        // Congested samples read ~80 ms after correction, idle ~0.5 ms.
        for &(t, raw) in &pts {
            let q = b.correct(t, raw);
            if (50.0..52.0).contains(&t) {
                assert!((q - 0.08).abs() < 0.005, "congested sample read {q}");
            } else if !(400.0..403.0).contains(&t) {
                assert!(q < 0.005, "idle sample read {q}");
            }
        }
    }

    #[test]
    fn short_runs_fall_back_to_min_subtraction() {
        let pts = synthetic(5, 0.5, 2.0, 1e-3, |_| 0.0);
        let b = fit(&pts).unwrap();
        assert_eq!(b.slope, 0.0);
        let min_corrected = pts
            .iter()
            .map(|&(t, d)| b.correct(t, d))
            .fold(f64::INFINITY, f64::min);
        assert!(min_corrected.abs() < 1e-12);
    }

    #[test]
    fn corrected_delays_are_never_negative() {
        // "Never negative" up to float rounding: correct() is unclamped,
        // so envelope samples may read a few ULPs below zero.
        let pts = synthetic(500, 120.0, -7.0, -15e-6, |t| (t.sin().abs()) * 0.05);
        let b = fit(&pts).unwrap();
        for &(t, raw) in &pts {
            let q = b.correct(t, raw);
            assert!(q >= -1e-9, "residual {q} below numerical error");
        }
    }

    #[test]
    fn congested_window_minima_are_guarded() {
        // Force the first-third minimum to be a congested sample: constant
        // 50 ms congestion early, idle late. The guard must still keep
        // every corrected sample non-negative.
        let pts = synthetic(
            300,
            300.0,
            1.0,
            10e-6,
            |t| if t < 120.0 { 0.05 } else { 0.0 },
        );
        let b = fit(&pts).unwrap();
        for &(t, raw) in &pts {
            let q = b.correct(t, raw);
            assert!(q >= -1e-9, "residual {q} below numerical error");
        }
    }

    #[test]
    fn recovers_negative_skew() {
        // Receiver clock running *fast* relative to the sender: raw
        // delays shrink over the run. A fit that assumed non-negative
        // slope would report phantom congestion at the start.
        let pts = synthetic(2000, 600.0, 4.0, -25e-6, |t| {
            if (200.0..205.0).contains(&t) {
                0.06
            } else {
                0.0002
            }
        });
        let b = fit(&pts).unwrap();
        assert!((b.slope + 25e-6).abs() < 2e-6, "slope {}", b.slope);
        for &(t, raw) in &pts {
            let q = b.correct(t, raw);
            if (200.0..205.0).contains(&t) {
                assert!((q - 0.06).abs() < 0.005, "congested sample read {q}");
            } else {
                assert!(q < 0.005, "idle sample read {q} at t={t}");
            }
        }
    }

    #[test]
    fn both_window_minima_congested_still_touches_envelope() {
        // Congestion covers the entire first AND last thirds; only the
        // middle of the run is idle. Both anchor points of the two-window
        // fit are then congested samples, placing the candidate line
        // *above* the idle middle — the guard must lower it back onto the
        // envelope so no corrected delay goes negative and the idle
        // middle reads ~0.
        let pts = synthetic(600, 300.0, 2.0, 5e-6, |t| {
            if !(110.0..190.0).contains(&t) {
                0.04
            } else {
                0.0
            }
        });
        let b = fit(&pts).unwrap();
        let mut idle_max = 0.0f64;
        for &(t, raw) in &pts {
            let q = b.correct(t, raw);
            assert!(q >= -1e-9, "corrected delay {q} below numerical error");
            if (110.0..190.0).contains(&t) {
                idle_max = idle_max.max(q);
            }
        }
        // The idle middle must not inherit the congested windows' 40 ms.
        assert!(idle_max < 0.01, "idle middle reads {idle_max}");
    }

    #[test]
    fn sub_second_runs_pin_slope_to_zero() {
        // Plenty of points but a span too short to resolve ppm-scale
        // skew: slope estimation from a < 1 s lever arm would amplify
        // noise, so the fit must fall back to offset-only.
        let pts = synthetic(200, 0.9, 1.5, 100e-6, |t| if t > 0.5 { 0.02 } else { 0.0 });
        let b = fit(&pts).unwrap();
        assert_eq!(b.slope, 0.0, "sub-second run must not fit a slope");
        let min_corrected = pts
            .iter()
            .map(|&(t, d)| b.correct(t, d))
            .fold(f64::INFINITY, f64::min);
        assert!(
            min_corrected.abs() < 1e-12,
            "offset removal must touch zero"
        );
    }

    #[test]
    fn extreme_negative_skew_is_recovered() {
        // 1000 ppm of negative skew (a broken clock, not commodity
        // drift): raw delays fall by 0.6 s over a 10-minute run, dwarfing
        // the 60 ms congestion signal. The envelope fit must still track
        // the line instead of reporting phantom congestion at the start.
        let pts = synthetic(2000, 600.0, 4.0, -1e-3, |t| {
            if (200.0..205.0).contains(&t) {
                0.06
            } else {
                0.0002
            }
        });
        let b = fit(&pts).unwrap();
        assert!((b.slope + 1e-3).abs() < 1e-5, "slope {}", b.slope);
        for &(t, raw) in &pts {
            let q = b.correct(t, raw);
            assert!(q >= -1e-9, "residual {q} below numerical error");
            if (200.0..205.0).contains(&t) {
                assert!((q - 0.06).abs() < 0.005, "congested sample read {q}");
            } else {
                assert!(q < 0.005, "idle sample read {q} at t={t}");
            }
        }
    }

    #[test]
    fn seven_points_pin_slope_even_over_a_long_span() {
        // The span is long enough to resolve a slope, but 7 points are
        // below the 8-point floor: the fit must still fall back to
        // offset-only rather than draw a line through noise.
        let pts = synthetic(7, 30.0, 2.0, 50e-6, |_| 0.001);
        assert_eq!(pts.len(), 7);
        let b = fit(&pts).unwrap();
        assert_eq!(b.slope, 0.0, "7-point run must not fit a slope");
        let min_corrected = pts
            .iter()
            .map(|&(t, d)| b.correct(t, d))
            .fold(f64::INFINITY, f64::min);
        assert!(min_corrected.abs() < 1e-12);
        assert!(pts.iter().all(|&(t, d)| b.correct(t, d) >= -1e-12));
    }

    #[test]
    fn window_minima_in_the_same_second_pin_slope() {
        // A 2.4 s run whose only idle dips sit at t≈0.75 and t≈1.65:
        // both land inside their thirds ([0, 0.8] and [1.6, 2.4]), but
        // the lever arm between them is 0.9 s < 1 s, far too short for a
        // ppm-scale slope. The fit must detect the degenerate anchors
        // and pin the slope to zero instead of fitting the dip noise.
        let pts: Vec<(f64, f64)> = (0..240)
            .map(|i| {
                let t = i as f64 * 0.01;
                let congestion = if (0.74..0.76).contains(&t) || (1.64..1.66).contains(&t) {
                    0.0
                } else {
                    0.05
                };
                (t, congestion + 3.0 + 20e-6 * t)
            })
            .collect();
        let b = fit(&pts).unwrap();
        assert_eq!(b.slope, 0.0, "same-second minima must not fit a slope");
        // Offset-only fallback still touches the envelope: the global
        // minimum corrects to ~0 and nothing goes negative.
        let min_corrected = pts
            .iter()
            .map(|&(t, d)| b.correct(t, d))
            .fold(f64::INFINITY, f64::min);
        assert!(min_corrected.abs() < 1e-9);
    }

    #[test]
    fn empty_input_is_none() {
        assert_eq!(fit(&[]), None);
    }

    /// The fit as it was written over a copied point series, one pass
    /// per statistic: the reference the in-place fit must match
    /// bit for bit.
    fn reference_fit(points: &[(f64, f64)]) -> Option<Baseline> {
        if points.is_empty() {
            return None;
        }
        let global_min = points.iter().map(|&(_, d)| d).fold(f64::INFINITY, f64::min);
        let (t_min, t_max) = points
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &(t, _)| {
                (lo.min(t), hi.max(t))
            });
        if points.len() < 8 || t_max - t_min < 1.0 {
            return Some(Baseline {
                offset: global_min,
                slope: 0.0,
            });
        }
        let span = t_max - t_min;
        let first_end = t_min + span / 3.0;
        let last_start = t_max - span / 3.0;
        let min_in = |lo: f64, hi: f64| -> Option<(f64, f64)> {
            points
                .iter()
                .filter(|&&(t, _)| t >= lo && t <= hi)
                .copied()
                .min_by(|a, b| a.1.total_cmp(&b.1))
        };
        let (t1, d1) = min_in(t_min, first_end)?;
        let (t2, d2) = min_in(last_start, t_max)?;
        if (t2 - t1).abs() < 1.0 {
            return Some(Baseline {
                offset: global_min,
                slope: 0.0,
            });
        }
        let slope = (d2 - d1) / (t2 - t1);
        let offset = d1 - slope * t1;
        let undershoot = points
            .iter()
            .map(|&(t, d)| d - (offset + slope * t))
            .fold(f64::INFINITY, f64::min);
        let offset = if undershoot < 0.0 {
            offset + undershoot
        } else {
            offset
        };
        Some(Baseline { offset, slope })
    }

    #[test]
    fn in_place_fit_is_bit_identical_to_the_copied_fit() {
        // Raw-delay records as the receiver holds them: (experiment,
        // slot, receiver time, raw delay in ns). Series cover both
        // fallbacks, congested windows, ties on the window minima, and
        // arrivals out of time order.
        let mut series: Vec<Vec<(u64, u64, f64, i64)>> = vec![
            vec![(0, 0, 0.5, 1_000)],
            (0..7)
                .map(|i| (i, i, i as f64 * 5.0, 2_000 + i as i64))
                .collect(),
            (0..200)
                .map(|i| (i, i, i as f64 * 0.004, 3_000_000 - i as i64))
                .collect(),
        ];
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for (n, span) in [(600, 300.0), (5_000, 30.0), (2_000, 600.0)] {
            series.push(
                (0..n)
                    .map(|i| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        // Jittered, partly reordered times; delays on a
                        // skewed line plus congestion, with many ties.
                        let t = (i as f64 + (state % 3) as f64) * span / n as f64;
                        let skew = (t * 20e3) as i64;
                        let queue = ((state >> 20) % 4) as i64 * 250_000;
                        (i as u64, i as u64, t, 5_000_000 + skew + queue)
                    })
                    .collect(),
            );
        }
        for raw in &series {
            let points: Vec<(f64, f64)> = raw
                .iter()
                .map(|&(_, _, t, d)| (t, d as f64 / 1e9))
                .collect();
            let want = reference_fit(&points).unwrap();
            for got in [
                fit(&points).unwrap(),
                fit_baseline(raw, |&(_, _, t, d)| (t, d as f64 / 1e9)).unwrap(),
            ] {
                assert_eq!(
                    got.offset.to_bits(),
                    want.offset.to_bits(),
                    "{} points",
                    raw.len()
                );
                assert_eq!(
                    got.slope.to_bits(),
                    want.slope.to_bits(),
                    "{} points",
                    raw.len()
                );
            }
        }
    }

    /// A delay series mixing kernel-stamped and userspace-stamped
    /// arrivals, mirroring the offload tier: kernel stamps sit on the
    /// clock line exactly; userspace stamps carry one-sided positive
    /// staleness (batch-granular stamping can only *delay* the observed
    /// arrival, never advance it).
    fn mixed_source(
        n: usize,
        span_secs: f64,
        offset: f64,
        skew: f64,
        user_every: usize,
        user_noise: impl Fn(u64) -> f64,
    ) -> Vec<(f64, f64)> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|i| {
                let t = i as f64 * span_secs / n as f64;
                let clean = offset + skew * t;
                if user_every > 0 && i % user_every == 0 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (t, clean + user_noise(state >> 33))
                } else {
                    (t, clean)
                }
            })
            .collect()
    }

    #[test]
    fn user_stamp_noise_does_not_pull_the_baseline_off_the_kernel_floor() {
        // Every 5th point is userspace-stamped with up to 400 µs of
        // positive staleness; the rest are kernel-stamped and sit on the
        // clock line. The window minima — and therefore the fit — must
        // come from the kernel-stamped floor, so the recovered slope and
        // offset match the clock parameters, not the noise.
        let offset = 2.0;
        let skew = 30e-6;
        let pts = mixed_source(600, 300.0, offset, skew, 5, |r| (r % 400) as f64 * 1e-6);
        let b = fit(&pts).unwrap();
        assert!((b.slope - skew).abs() < 1e-6, "slope {}", b.slope);
        assert!((b.offset - offset).abs() < 1e-4, "offset {}", b.offset);
        for &(t, raw) in &pts {
            let q = b.correct(t, raw);
            assert!(q >= -1e-9, "residual {q} went negative");
            assert!(q < 0.5e-3, "residual {q} exceeds the staleness bound");
        }
    }

    #[test]
    fn mixed_fit_matches_the_pure_kernel_fit() {
        // The same clock line fitted from a pure kernel-stamped series
        // and from a mixed series must agree: user-stamped points only
        // ever sit *above* the envelope, so they are invisible to the
        // lower-envelope construction.
        let kernel = mixed_source(400, 200.0, 1.25, -15e-6, 0, |_| 0.0);
        let mixed = mixed_source(400, 200.0, 1.25, -15e-6, 3, |r| {
            50e-6 + (r % 300) as f64 * 1e-6
        });
        let bk = fit(&kernel).unwrap();
        let bm = fit(&mixed).unwrap();
        assert!(
            (bk.slope - bm.slope).abs() < 1e-6,
            "slopes diverged: kernel {} vs mixed {}",
            bk.slope,
            bm.slope
        );
        assert!(
            (bk.offset - bm.offset).abs() < 1e-4,
            "offsets diverged: kernel {} vs mixed {}",
            bk.offset,
            bm.offset
        );
    }

    #[test]
    fn all_user_stamped_series_still_yields_nonnegative_residuals() {
        // Degraded run (offload unavailable): every point carries batch
        // staleness. Accuracy necessarily suffers, but the fit's own
        // invariant — no residual below numerical error — must hold.
        let pts = mixed_source(300, 150.0, 0.8, 40e-6, 1, |r| (r % 1000) as f64 * 1e-6);
        let b = fit(&pts).unwrap();
        for &(t, raw) in &pts {
            assert!(b.correct(t, raw) >= -1e-9);
        }
    }
}
