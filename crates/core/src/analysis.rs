//! The post-run analysis shared by the simulator and the live tool.
//!
//! A run leaves two logs: the sender's list of probes sent and the
//! receiver's per-probe arrival records. [`observe`] joins them into
//! time-ordered [`ProbeObservation`]s; the sender's list is what counts a
//! probe whose every packet was lost, since nothing of it arrives.
//! [`Analysis::new`] then marks congestion by §6.1 and reduces the
//! experiment log to the §5 estimates and the §5.4 checks.

use crate::config::BadabingConfig;
use crate::detector::{CongestionDetector, DetectorReport, ProbeObservation};
use crate::estimator::Estimates;
use crate::outcome::ExperimentLog;
use crate::validate::Validation;

/// One probe as sent (sender-side log entry).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SentProbe {
    /// Owning experiment.
    pub experiment: u64,
    /// Targeted slot.
    pub slot: u64,
    /// Actual send time in seconds since the run's start.
    pub send_time_secs: f64,
    /// Packets of this probe that left the sender (the live sender counts
    /// only sends the host accepted).
    pub packets: u8,
}

/// What arrived of one probe (receiver-side record).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProbeArrival {
    /// Packets of the probe that arrived.
    pub received: u8,
    /// Delay of the most recent arrival (FIFO ⇒ highest index), seconds.
    pub owd_last_secs: f64,
    /// Maximum delay over the probe's arrivals, seconds.
    pub owd_max_secs: f64,
}

/// Join every sent probe with what arrived of it (`arrival` looks a
/// probe up; `None` when nothing arrived), in send-time order. Arrivals
/// beyond the packets sent (duplicates) never count as negative loss.
pub fn observe(
    sent: &[SentProbe],
    arrival: impl Fn(&SentProbe) -> Option<ProbeArrival>,
) -> Vec<ProbeObservation> {
    let mut obs: Vec<ProbeObservation> = sent
        .iter()
        .map(|s| {
            let rec = arrival(s);
            let received = rec.map_or(0, |r| r.received).min(s.packets);
            ProbeObservation {
                experiment: s.experiment,
                slot: s.slot,
                send_time_secs: s.send_time_secs,
                packets_sent: s.packets,
                packets_lost: s.packets - received,
                owd_last_secs: rec.map(|r| r.owd_last_secs),
                owd_max_secs: rec.map(|r| r.owd_max_secs),
            }
        })
        .collect();
    obs.sort_by(|a, b| a.send_time_secs.total_cmp(&b.send_time_secs));
    obs
}

/// Everything a finished run produces.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The assembled experiment log (`yᵢ` records).
    pub log: ExperimentLog,
    /// Pattern counts and estimates.
    pub estimates: Estimates,
    /// §5.4 validation tallies.
    pub validation: Validation,
    /// Detector diagnostics.
    pub detector: DetectorReport,
    /// Probe packets lost end to end.
    pub packets_lost: u64,
}

impl Analysis {
    /// Mark `obs` with the §6.1 detector over a run of `n_slots` slots of
    /// `slot_secs`, and reduce the log to estimates and checks.
    pub fn new(
        cfg: &BadabingConfig,
        obs: &[ProbeObservation],
        n_slots: u64,
        slot_secs: f64,
    ) -> Self {
        let (log, detector) = CongestionDetector::new(cfg).assemble(obs, n_slots, slot_secs);
        Self {
            estimates: Estimates::from_log(&log),
            validation: Validation::from_log(&log),
            log,
            detector,
            packets_lost: obs.iter().map(|o| u64::from(o.packets_lost)).sum(),
        }
    }

    /// Estimated episode frequency.
    pub fn frequency(&self) -> Option<f64> {
        self.estimates.frequency()
    }

    /// Estimated mean episode duration in seconds (improved estimator
    /// when available, otherwise basic).
    pub fn duration_secs(&self) -> Option<f64> {
        self.estimates
            .duration_secs_improved()
            .or_else(|| self.estimates.duration_secs_basic())
    }

    /// §3 end-to-end loss rate estimate: episode frequency × measured
    /// in-congestion packet loss intensity.
    pub fn loss_rate(&self) -> Option<f64> {
        Some(self.frequency()? * self.detector.loss_intensity()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sent(slot: u64, send_time_secs: f64) -> SentProbe {
        SentProbe {
            experiment: slot / 2,
            slot,
            send_time_secs,
            packets: 3,
        }
    }

    #[test]
    fn observe_clamps_duplicates_and_orders_by_send_time() {
        let probes = [sent(3, 0.015), sent(2, 0.010)];
        let obs = observe(&probes, |s| {
            (s.slot == 2).then_some(ProbeArrival {
                received: 5,
                owd_last_secs: 0.001,
                owd_max_secs: 0.002,
            })
        });
        assert_eq!(obs.len(), 2);
        assert_eq!(obs[0].slot, 2);
        assert_eq!(obs[0].packets_lost, 0, "duplicates are not negative loss");
        assert_eq!(obs[0].owd_max_secs, Some(0.002));
        assert_eq!(obs[1].slot, 3);
        assert_eq!(obs[1].packets_lost, 3, "nothing arrived");
        assert_eq!(obs[1].owd_last_secs, None);
    }
}
