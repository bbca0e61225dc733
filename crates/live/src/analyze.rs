//! Post-run analysis: join sender manifest with receiver log and run the
//! shared [`badabing_core::analysis`] pipeline.
//!
//! The receiver cannot see probes whose every packet was lost (nothing
//! arrives to decode), so loss accounting needs the sender's manifest —
//! the same sent/arrived join the simulator harness makes. With
//! offset-removed *queueing* delays in hand, `OWDmax` estimates and the
//! `(1-α)` threshold work exactly as in §6.1.

use crate::receiver::ReceiverLog;
use crate::sender::SenderManifest;
use badabing_core::analysis::{self, Analysis, ProbeArrival};
use badabing_core::config::BadabingConfig;
use badabing_core::outcome::{ExperimentLog, Outcome};
use badabing_wire::control::ReportRecord;

/// The canonical **loss-only** experiment log over fetched report
/// records — the reference fold the receiver's online estimator is
/// differentially tested against.
///
/// The derivation mirrors the receiver's online rule exactly: records
/// are grouped by experiment, a group only yields an outcome when its
/// slots are contiguous and 2 or 3 wide (the `detector::assemble`
/// grouping discipline), and a probe is congested iff its clamped
/// arrival count is short of the train length (`received.min(train) <
/// train`). Probes lost in their entirety never produce a record, so
/// their experiment stays incomplete on both sides. Unlike
/// [`analyze_run`] this needs no sender manifest and no delay data: it
/// is computable from the report alone, which is what makes the FIN
/// differential (`online == from_log(loss_log_from_records(report))`)
/// a closed contract.
pub fn loss_log_from_records(
    records: &[ReportRecord],
    train: u8,
    n_slots: u64,
    slot_secs: f64,
) -> ExperimentLog {
    let mut sorted: Vec<&ReportRecord> = records.iter().collect();
    sorted.sort_by_key(|r| (r.experiment, r.slot));
    let mut log = ExperimentLog::new(n_slots, slot_secs);
    let mut i = 0;
    while i < sorted.len() {
        let exp = sorted[i].experiment;
        let mut j = i;
        while j < sorted.len() && sorted[j].experiment == exp {
            j += 1;
        }
        let group = &sorted[i..j];
        i = j;
        let lo = group[0].slot;
        let hi = group[group.len() - 1].slot;
        let span = (hi - lo).saturating_add(1);
        if !(group.len() == 2 || group.len() == 3) || span != group.len() as u64 {
            continue;
        }
        let mut states = [false; 3];
        for (k, r) in group.iter().enumerate() {
            states[k] = r.received.min(train) < train;
        }
        log.push(Outcome {
            id: exp,
            start_slot: lo,
            probes: group.len() as u8,
            states,
        });
    }
    log
}

/// Join and analyze.
pub fn analyze_run(
    cfg: &BadabingConfig,
    manifest: &SenderManifest,
    receiver: &ReceiverLog,
) -> Analysis {
    let obs = analysis::observe(&manifest.sent, |s| {
        receiver
            .arrivals
            .get(&(s.experiment, s.slot))
            .map(|r| ProbeArrival {
                received: r.received,
                owd_last_secs: r.qdelay_last_secs,
                owd_max_secs: r.qdelay_max_secs,
            })
    });
    Analysis::new(cfg, &obs, manifest.n_slots, manifest.slot_secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::ArrivalRecord;
    use badabing_core::analysis::SentProbe;
    use std::collections::HashMap;

    fn manifest(probes: Vec<SentProbe>) -> SenderManifest {
        SenderManifest {
            session: 1,
            packets_sent: probes.iter().map(|p| u64::from(p.packets)).sum(),
            packets_refused: 0,
            sent: probes,
            n_slots: 1_000,
            slot_secs: 0.005,
        }
    }

    #[test]
    fn clean_run_estimates_zero_frequency() {
        let probes = vec![
            SentProbe {
                experiment: 0,
                slot: 10,
                send_time_secs: 0.05,
                packets: 3,
            },
            SentProbe {
                experiment: 0,
                slot: 11,
                send_time_secs: 0.055,
                packets: 3,
            },
            SentProbe {
                experiment: 1,
                slot: 50,
                send_time_secs: 0.25,
                packets: 3,
            },
            SentProbe {
                experiment: 1,
                slot: 51,
                send_time_secs: 0.255,
                packets: 3,
            },
        ];
        let mut arrivals = HashMap::new();
        for p in &probes {
            arrivals.insert(
                (p.experiment, p.slot),
                ArrivalRecord {
                    received: 3,
                    qdelay_last_secs: 0.001,
                    qdelay_max_secs: 0.002,
                    ..Default::default()
                },
            );
        }
        let receiver = ReceiverLog {
            arrivals,
            packets: 12,
            min_raw_delay_ns: Some(0),
            ..Default::default()
        };
        let cfg = BadabingConfig::paper_default(0.3);
        let a = analyze_run(&cfg, &manifest(probes), &receiver);
        assert_eq!(a.frequency(), Some(0.0));
        assert_eq!(a.packets_lost, 0);
        assert_eq!(a.log.len(), 2);
        assert_eq!(a.detector.incomplete_experiments, 0);
    }

    #[test]
    fn fully_lost_probe_is_counted_via_manifest() {
        let probes = vec![
            SentProbe {
                experiment: 0,
                slot: 10,
                send_time_secs: 0.05,
                packets: 3,
            },
            SentProbe {
                experiment: 0,
                slot: 11,
                send_time_secs: 0.055,
                packets: 3,
            },
        ];
        // Receiver saw nothing for slot 10, everything for slot 11.
        let mut arrivals = HashMap::new();
        arrivals.insert(
            (0u64, 11u64),
            ArrivalRecord {
                received: 3,
                qdelay_last_secs: 0.09,
                qdelay_max_secs: 0.09,
                ..Default::default()
            },
        );
        let receiver = ReceiverLog {
            arrivals,
            packets: 3,
            min_raw_delay_ns: Some(0),
            ..Default::default()
        };
        let cfg = BadabingConfig::paper_default(0.3);
        let a = analyze_run(&cfg, &manifest(probes), &receiver);
        assert_eq!(a.packets_lost, 3);
        assert_eq!(
            a.frequency(),
            Some(1.0),
            "the one experiment starts congested"
        );
    }
}
