//! Probe-level congestion marking (§6.1).
//!
//! A probe is `N` packets sent back to back into one time slot. Many
//! packets pass through a congested link unharmed (§3's router-centric vs
//! end-to-end distinction), so probes must not rely on their own loss
//! alone. The paper's rule, assuming FIFO queueing:
//!
//! * every probe with a lost packet marks congestion, and contributes an
//!   estimate of the maximum one-way delay `OWDmax` (the delay of its most
//!   recent successfully delivered packet, which sat in a nearly full
//!   buffer);
//! * any probe within τ seconds of a loss indication whose own delay
//!   exceeds `(1-α)·OWDmax` also marks congestion.
//!
//! Keeping a small window of recent `OWDmax` estimates and using their
//! mean "effectively filters loss at end host operating system buffers or
//! in network interface card buffers" (§6.1) — and, symmetrically, lets
//! the threshold track slow changes in the path's maximum queue depth.

use crate::config::BadabingConfig;
use crate::outcome::{ExperimentLog, Outcome};
use std::collections::HashMap;

/// What the receiver learned about one probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeObservation {
    /// Experiment this probe belongs to.
    pub experiment: u64,
    /// The slot the probe targeted.
    pub slot: u64,
    /// Nominal send time (slot start), seconds from run start.
    pub send_time_secs: f64,
    /// Packets sent in the probe.
    pub packets_sent: u8,
    /// Packets that never arrived.
    pub packets_lost: u8,
    /// One-way delay of the *last* successfully delivered packet, if any —
    /// the §6.1 `OWDmax` estimator when the probe saw loss.
    pub owd_last_secs: Option<f64>,
    /// Maximum one-way delay over the probe's delivered packets, if any —
    /// the probe's delay for threshold comparison.
    pub owd_max_secs: Option<f64>,
}

impl ProbeObservation {
    /// Whether any packet of the probe was lost.
    pub fn has_loss(&self) -> bool {
        self.packets_lost > 0
    }
}

/// Summary of a marking pass, for reporting and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct DetectorReport {
    /// Probes examined.
    pub probes: u64,
    /// Probes with at least one lost packet.
    pub probes_with_loss: u64,
    /// Probes marked congested by the delay rule alone.
    pub marked_by_delay: u64,
    /// Experiments dropped because not all of their probes were observed.
    pub incomplete_experiments: u64,
    /// Probe packets sent by probes that were marked congested.
    pub packets_sent_marked: u64,
    /// Probe packets lost by probes that were marked congested.
    pub packets_lost_marked: u64,
}

impl DetectorReport {
    /// In-congestion packet loss intensity: the fraction of probe packets
    /// lost while the path was marked congested. Combined with the
    /// episode frequency this yields the §3 end-to-end *loss rate*:
    /// `loss_rate ≈ F̂ × intensity` (packets are only at risk during
    /// episodes, and then drop at this measured rate).
    pub fn loss_intensity(&self) -> Option<f64> {
        if self.packets_sent_marked == 0 {
            None
        } else {
            Some(self.packets_lost_marked as f64 / self.packets_sent_marked as f64)
        }
    }
}

/// Applies the §6.1 marking rule and assembles experiment outcomes.
#[derive(Debug, Clone)]
pub struct CongestionDetector {
    alpha: f64,
    tau_secs: f64,
    owd_window: usize,
}

impl CongestionDetector {
    /// Build a detector from a tool configuration.
    pub fn new(cfg: &BadabingConfig) -> Self {
        Self::with_params(cfg.alpha, cfg.tau_secs, cfg.owd_window)
    }

    /// Build a detector with explicit parameters.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `[0, 1)` or `tau_secs` is negative.
    pub fn with_params(alpha: f64, tau_secs: f64, owd_window: usize) -> Self {
        assert!(
            (0.0..1.0).contains(&alpha),
            "alpha must be in [0,1), got {alpha}"
        );
        assert!(tau_secs >= 0.0, "tau must be non-negative");
        assert!(owd_window > 0, "owd window must hold at least one estimate");
        Self {
            alpha,
            tau_secs,
            owd_window,
        }
    }

    /// Mark each observation (which must be sorted by `send_time_secs`) as
    /// congested or not. Returns one flag per observation, in order.
    pub fn mark(&self, obs: &[ProbeObservation]) -> (Vec<bool>, DetectorReport) {
        debug_assert!(
            obs.windows(2)
                .all(|w| w[0].send_time_secs <= w[1].send_time_secs),
            "observations must be time-sorted"
        );
        let mut report = DetectorReport {
            probes: obs.len() as u64,
            ..Default::default()
        };

        // Loss indication times, in order.
        let loss_times: Vec<f64> = obs
            .iter()
            .filter(|o| o.has_loss())
            .map(|o| o.send_time_secs)
            .collect();
        report.probes_with_loss = loss_times.len() as u64;

        // OWDmax estimates in time order: (time, delay-of-last-delivered).
        let owd_estimates: Vec<(f64, f64)> = obs
            .iter()
            .filter(|o| o.has_loss())
            .filter_map(|o| o.owd_last_secs.map(|d| (o.send_time_secs, d)))
            .collect();

        let mut marks = Vec::with_capacity(obs.len());
        let mut loss_cursor = 0usize; // first loss time >= window start
        let mut owd_cursor = 0usize; // estimates with time <= current probe
        let mut owd_sum = 0.0f64;
        let mut owd_in_window: std::collections::VecDeque<f64> =
            std::collections::VecDeque::with_capacity(self.owd_window);

        for o in obs {
            // Advance the running OWDmax mean to this probe's time.
            while owd_cursor < owd_estimates.len()
                && owd_estimates[owd_cursor].0 <= o.send_time_secs
            {
                let v = owd_estimates[owd_cursor].1;
                owd_in_window.push_back(v);
                owd_sum += v;
                if owd_in_window.len() > self.owd_window {
                    owd_sum -= owd_in_window.pop_front().expect("window non-empty");
                }
                owd_cursor += 1;
            }

            if o.has_loss() {
                report.packets_sent_marked += u64::from(o.packets_sent);
                report.packets_lost_marked += u64::from(o.packets_lost);
                marks.push(true);
                continue;
            }

            // Is there a loss indication within ±τ?
            while loss_cursor < loss_times.len()
                && loss_times[loss_cursor] < o.send_time_secs - self.tau_secs
            {
                loss_cursor += 1;
            }
            let near_loss = loss_times
                .get(loss_cursor)
                .is_some_and(|&t| t <= o.send_time_secs + self.tau_secs);

            let over_threshold = match (near_loss, o.owd_max_secs, owd_in_window.is_empty()) {
                (true, Some(owd), false) => {
                    let owdmax = owd_sum / owd_in_window.len() as f64;
                    owd > (1.0 - self.alpha) * owdmax
                }
                _ => false,
            };
            if over_threshold {
                report.marked_by_delay += 1;
                report.packets_sent_marked += u64::from(o.packets_sent);
            }
            marks.push(over_threshold);
        }
        (marks, report)
    }

    /// Mark and assemble into an [`ExperimentLog`]: observations are
    /// grouped by experiment id and ordered by slot; experiments with a
    /// probe count other than 2 or 3 observed probes are dropped (counted
    /// in the report).
    pub fn assemble(
        &self,
        obs: &[ProbeObservation],
        n_slots: u64,
        slot_secs: f64,
    ) -> (ExperimentLog, DetectorReport) {
        let (marks, mut report) = self.mark(obs);
        let mut groups: HashMap<u64, Vec<(u64, bool)>> = HashMap::new();
        for (o, &m) in obs.iter().zip(&marks) {
            groups.entry(o.experiment).or_default().push((o.slot, m));
        }
        let mut log = ExperimentLog::new(n_slots, slot_secs);
        let mut entries: Vec<(u64, Vec<(u64, bool)>)> = groups.into_iter().collect();
        entries.sort_by_key(|(id, _)| *id);
        for (id, mut probes) in entries {
            probes.sort_by_key(|(slot, _)| *slot);
            let contiguous = probes.windows(2).all(|w| w[1].0 == w[0].0 + 1);
            match (probes.len(), contiguous) {
                (2, true) => log.push(Outcome::basic(id, probes[0].0, probes[0].1, probes[1].1)),
                (3, true) => log.push(Outcome::extended(
                    id,
                    probes[0].0,
                    probes[0].1,
                    probes[1].1,
                    probes[2].1,
                )),
                _ => report.incomplete_experiments += 1,
            }
        }
        (log, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(experiment: u64, slot: u64, t: f64, lost: u8, owd: Option<f64>) -> ProbeObservation {
        ProbeObservation {
            experiment,
            slot,
            send_time_secs: t,
            packets_sent: 3,
            packets_lost: lost,
            owd_last_secs: owd,
            owd_max_secs: owd,
        }
    }

    fn detector() -> CongestionDetector {
        // α = 0.1, τ = 50 ms.
        CongestionDetector::with_params(0.1, 0.05, 5)
    }

    #[test]
    fn loss_always_marks() {
        let d = detector();
        let (marks, report) = d.mark(&[obs(0, 0, 0.0, 1, Some(0.15))]);
        assert_eq!(marks, vec![true]);
        assert_eq!(report.probes_with_loss, 1);
    }

    #[test]
    fn quiet_probe_is_unmarked() {
        let d = detector();
        let (marks, _) = d.mark(&[obs(0, 0, 0.0, 0, Some(0.11))]);
        assert_eq!(
            marks,
            vec![false],
            "no loss anywhere: delay alone never marks"
        );
    }

    #[test]
    fn high_delay_near_loss_marks() {
        let d = detector();
        // Loss at t=1.0 with OWDmax estimate 0.2; a lossless probe 30 ms
        // later with delay 0.19 > 0.9×0.2 must be marked.
        let input = [
            obs(0, 200, 1.00, 1, Some(0.20)),
            obs(1, 206, 1.03, 0, Some(0.19)),
        ];
        let (marks, report) = d.mark(&input);
        assert_eq!(marks, vec![true, true]);
        assert_eq!(report.marked_by_delay, 1);
    }

    #[test]
    fn low_delay_near_loss_does_not_mark() {
        let d = detector();
        let input = [
            obs(0, 200, 1.00, 1, Some(0.20)),
            obs(1, 206, 1.03, 0, Some(0.10)), // 0.10 < 0.18 threshold
        ];
        let (marks, _) = d.mark(&input);
        assert_eq!(marks, vec![true, false]);
    }

    #[test]
    fn high_delay_far_from_loss_does_not_mark() {
        let d = detector();
        let input = [
            obs(0, 200, 1.00, 1, Some(0.20)),
            obs(1, 300, 1.50, 0, Some(0.19)), // 0.5 s away ≫ τ = 50 ms
        ];
        let (marks, _) = d.mark(&input);
        assert_eq!(marks, vec![true, false]);
    }

    #[test]
    fn loss_after_probe_also_counts_as_near() {
        // "within τ of an indication" is symmetric in time: the probe just
        // before an episode's first drop sits in the filling queue.
        let d = detector();
        let input = [
            obs(0, 198, 0.99, 0, Some(0.19)),
            obs(1, 200, 1.00, 1, Some(0.20)),
            obs(2, 202, 1.01, 0, Some(0.195)),
        ];
        let (marks, _) = d.mark(&input);
        // The pre-loss probe has no OWDmax estimate available yet (the
        // first estimate arrives with the loss), so it cannot be judged.
        assert_eq!(marks, vec![false, true, true]);
    }

    #[test]
    fn owd_window_averages_estimates() {
        let d = CongestionDetector::with_params(0.1, 10.0, 2);
        // Two estimates 0.1 and 0.3 → window mean 0.2 → threshold 0.18.
        let input = [
            obs(0, 0, 0.0, 1, Some(0.1)),
            obs(1, 2, 0.01, 1, Some(0.3)),
            obs(2, 4, 0.02, 0, Some(0.19)), // above 0.18 → marked
            obs(3, 6, 0.03, 0, Some(0.17)), // below → not marked
        ];
        let (marks, _) = d.mark(&input);
        assert_eq!(marks, vec![true, true, true, false]);
    }

    #[test]
    fn assemble_groups_by_experiment() {
        let d = detector();
        let input = [
            obs(0, 10, 0.050, 1, Some(0.2)),
            obs(0, 11, 0.055, 1, Some(0.2)),
            obs(1, 40, 0.200, 0, Some(0.01)),
            obs(1, 41, 0.205, 0, Some(0.01)),
            obs(2, 60, 0.300, 0, Some(0.01)),
            obs(2, 61, 0.305, 0, Some(0.01)),
            obs(2, 62, 0.310, 0, Some(0.01)),
        ];
        let (log, report) = d.assemble(&input, 1000, 0.005);
        assert_eq!(log.len(), 3);
        assert_eq!(report.incomplete_experiments, 0);
        assert_eq!(log.outcomes()[0].pattern(), 0b11);
        assert_eq!(log.outcomes()[1].pattern(), 0b00);
        assert_eq!(log.outcomes()[2].probes, 3);
    }

    #[test]
    fn assemble_drops_incomplete_experiments() {
        let d = detector();
        let input = [
            obs(0, 10, 0.050, 0, Some(0.01)),
            // Experiment 1 lost its second probe's record entirely.
            obs(1, 20, 0.100, 0, Some(0.01)),
            obs(1, 22, 0.110, 0, Some(0.01)), // non-contiguous slots
        ];
        let (log, report) = d.assemble(&input, 1000, 0.005);
        assert_eq!(log.len(), 0);
        assert_eq!(report.incomplete_experiments, 2);
    }

    #[test]
    fn loss_intensity_counts_marked_packets() {
        let d = detector();
        // Probe 0: 1 of 3 lost (marked). Probe 1: 0 lost but near loss
        // with high delay (marked by delay). Probe 2: clean, far away.
        let input = [
            obs(0, 200, 1.00, 1, Some(0.20)),
            obs(1, 206, 1.03, 0, Some(0.19)),
            obs(2, 600, 3.00, 0, Some(0.01)),
        ];
        let (_, report) = d.mark(&input);
        assert_eq!(report.packets_sent_marked, 6);
        assert_eq!(report.packets_lost_marked, 1);
        assert!((report.loss_intensity().unwrap() - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn loss_intensity_none_without_marks() {
        let d = detector();
        let (_, report) = d.mark(&[obs(0, 0, 0.0, 0, Some(0.01))]);
        assert_eq!(report.loss_intensity(), None);
    }

    #[test]
    fn fully_lost_probe_marks_without_owd() {
        let d = detector();
        let (marks, _) = d.mark(&[obs(0, 0, 0.0, 3, None)]);
        assert_eq!(marks, vec![true]);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_alpha_one() {
        let _ = CongestionDetector::with_params(1.0, 0.1, 5);
    }
}
