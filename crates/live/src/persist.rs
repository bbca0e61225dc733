//! JSON persistence for the CLI workflow.
//!
//! The standalone binaries exchange results through files: the sender
//! writes a manifest (what was sent, plus the tool configuration), the
//! receiver writes its arrival log, and `badabing-report` joins the two.
//! The receiver alone cannot account for probes whose every packet was
//! lost — nothing arrives to decode — which is why the manifest is part
//! of the protocol rather than an optimization.
//!
//! Each file is the JSON form of the in-memory record itself:
//! [`ManifestFile`] pairs a [`SenderManifest`] with its tool
//! configuration, [`ReceiverLog`] saves and loads itself, and
//! [`save_estimate`] writes an [`EstimateReport`]. Encoding is the
//! dependency-free JSON codec from `badabing-metrics`.

use crate::control::EstimateReport;
use crate::receiver::{ArrivalRecord, ReceiverLog};
use crate::sender::SenderManifest;
use badabing_core::analysis::SentProbe;
use badabing_core::config::BadabingConfig;
use badabing_metrics::json::Value;
use badabing_wire::control::EstimateScope;
use std::io;
use std::path::Path;

/// A sender run on disk: the manifest plus the tool configuration
/// needed to analyze it.
#[derive(Debug, Clone)]
pub struct ManifestFile {
    /// Tool parameters the run used (α, τ, slot width, ...).
    pub tool: BadabingConfig,
    /// What was sent.
    pub manifest: SenderManifest,
}

fn tool_to_value(tool: &BadabingConfig) -> Value {
    Value::obj(vec![
        ("slot_secs", Value::Num(tool.slot_secs)),
        ("p", Value::Num(tool.p)),
        ("probe_packets", Value::Num(f64::from(tool.probe_packets))),
        ("packet_bytes", Value::Num(f64::from(tool.packet_bytes))),
        (
            "intra_probe_gap_secs",
            Value::Num(tool.intra_probe_gap_secs),
        ),
        ("alpha", Value::Num(tool.alpha)),
        ("tau_secs", Value::Num(tool.tau_secs)),
        ("improved", Value::Bool(tool.improved)),
        ("owd_window", Value::Num(tool.owd_window as f64)),
    ])
}

fn tool_from_value(v: &Value) -> io::Result<BadabingConfig> {
    Ok(BadabingConfig {
        slot_secs: req_f64(v, "slot_secs")?,
        p: req_f64(v, "p")?,
        probe_packets: req_u64(v, "probe_packets")? as u8,
        packet_bytes: req_u64(v, "packet_bytes")? as u32,
        intra_probe_gap_secs: req_f64(v, "intra_probe_gap_secs")?,
        alpha: req_f64(v, "alpha")?,
        tau_secs: req_f64(v, "tau_secs")?,
        improved: req_bool(v, "improved")?,
        owd_window: req_u64(v, "owd_window")? as usize,
    })
}

impl ManifestFile {
    /// Write as JSON.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let m = &self.manifest;
        let probes = m
            .sent
            .iter()
            .map(|p| {
                Value::obj(vec![
                    ("experiment", num_u64(p.experiment)),
                    ("slot", num_u64(p.slot)),
                    ("send_time_secs", Value::Num(p.send_time_secs)),
                    ("packets", Value::Num(f64::from(p.packets))),
                ])
            })
            .collect();
        let v = Value::obj(vec![
            ("tool", tool_to_value(&self.tool)),
            ("session", num_u64(u64::from(m.session))),
            ("n_slots", num_u64(m.n_slots)),
            ("slot_secs", Value::Num(m.slot_secs)),
            ("packets_sent", num_u64(m.packets_sent)),
            ("packets_refused", num_u64(m.packets_refused)),
            ("probes", Value::Arr(probes)),
        ]);
        write_json(path, &v)
    }

    /// Read from JSON.
    pub fn load(path: &Path) -> io::Result<Self> {
        let v = read_json(path)?;
        let sent = req_arr(&v, "probes")?
            .iter()
            .map(|p| {
                Ok(SentProbe {
                    experiment: req_u64(p, "experiment")?,
                    slot: req_u64(p, "slot")?,
                    send_time_secs: req_f64(p, "send_time_secs")?,
                    packets: req_u64(p, "packets")? as u8,
                })
            })
            .collect::<io::Result<_>>()?;
        Ok(Self {
            tool: tool_from_value(field(&v, "tool")?)?,
            manifest: SenderManifest {
                session: req_u64(&v, "session")? as u32,
                sent,
                packets_sent: req_u64(&v, "packets_sent")?,
                // Absent in manifests written before refused sends were
                // tracked; default to zero.
                packets_refused: opt_u64(&v, "packets_refused"),
                n_slots: req_u64(&v, "n_slots")?,
                slot_secs: req_f64(&v, "slot_secs")?,
            },
        })
    }
}

impl ReceiverLog {
    /// Write as JSON, arrivals sorted by probe key. The handshake
    /// parameters are not written.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut sorted: Vec<_> = self.arrivals.iter().collect();
        sorted.sort_unstable_by_key(|&(key, _)| *key);
        let arrivals = sorted
            .into_iter()
            .map(|(&(experiment, slot), a)| {
                Value::obj(vec![
                    ("experiment", num_u64(experiment)),
                    ("slot", num_u64(slot)),
                    ("received", Value::Num(f64::from(a.received))),
                    ("duplicates", Value::Num(f64::from(a.duplicates))),
                    ("qdelay_last_secs", Value::Num(a.qdelay_last_secs)),
                    ("qdelay_max_secs", Value::Num(a.qdelay_max_secs)),
                    ("kernel_stamped", Value::Bool(a.kernel_stamped)),
                ])
            })
            .collect();
        let v = Value::obj(vec![
            ("packets", num_u64(self.packets)),
            ("rejected", num_u64(self.rejected)),
            ("duplicates", num_u64(self.duplicates)),
            (
                "min_raw_delay_ns",
                self.min_raw_delay_ns
                    .map_or(Value::Null, |ns| Value::Num(ns as f64)),
            ),
            ("arrivals", Value::Arr(arrivals)),
        ]);
        write_json(path, &v)
    }

    /// Read from JSON (with no handshake parameters).
    pub fn load(path: &Path) -> io::Result<Self> {
        let v = read_json(path)?;
        let arrivals = req_arr(&v, "arrivals")?
            .iter()
            .map(|a| {
                let key = (req_u64(a, "experiment")?, req_u64(a, "slot")?);
                let record = ArrivalRecord {
                    received: req_u64(a, "received")? as u8,
                    // Absent in pre-dedup logs; default to zero.
                    duplicates: opt_u64(a, "duplicates") as u8,
                    qdelay_last_secs: req_f64(a, "qdelay_last_secs")?,
                    qdelay_max_secs: req_f64(a, "qdelay_max_secs")?,
                    // Absent in logs written before kernel timestamping
                    // existed; those arrivals were userspace-stamped.
                    kernel_stamped: a
                        .get("kernel_stamped")
                        .and_then(Value::as_bool)
                        .unwrap_or(false),
                };
                Ok((key, record))
            })
            .collect::<io::Result<_>>()?;
        let min_raw_delay_ns = match field(&v, "min_raw_delay_ns")? {
            Value::Null => None,
            other => Some(other.as_i64().ok_or_else(|| bad("min_raw_delay_ns"))?),
        };
        Ok(Self {
            arrivals,
            packets: req_u64(&v, "packets")?,
            rejected: req_u64(&v, "rejected")?,
            duplicates: opt_u64(&v, "duplicates"),
            min_raw_delay_ns,
            handshake: None,
        })
    }
}

/// Write a mid-run estimate snapshot fetched over the control plane
/// (`badabing_send --estimate-out`) as JSON.
///
/// The raw counters are the source of truth: they are lossless u64s
/// and merge by addition. The `derived` section (F̂, D̂ variants,
/// episode rate) is computed from them and written for human readers
/// and dashboards.
pub fn save_estimate(report: &EstimateReport, path: &Path) -> io::Result<()> {
    let e = &report.estimates;
    let counters = Value::obj(vec![
        ("experiments", num_u64(e.experiments)),
        ("z_sum", num_u64(e.z_sum)),
        ("basic_experiments", num_u64(e.basic_experiments)),
        ("extended_experiments", num_u64(e.extended_experiments)),
        ("r", num_u64(e.r)),
        ("s", num_u64(e.s)),
        ("n01", num_u64(e.n01)),
        ("n10", num_u64(e.n10)),
        ("u", num_u64(e.u)),
        ("v", num_u64(e.v)),
        ("n111", num_u64(e.n111)),
        ("outcomes_malformed", num_u64(e.outcomes_malformed)),
        ("slot_secs", Value::Num(e.slot_secs)),
    ]);
    let opt = |v: Option<f64>| v.map_or(Value::Null, Value::Num);
    let derived = Value::obj(vec![
        ("frequency", opt(e.frequency())),
        ("duration_slots_basic", opt(e.duration_slots_basic())),
        ("duration_slots_improved", opt(e.duration_slots_improved())),
        ("duration_slots_pooled", opt(e.duration_slots_pooled())),
        ("episode_rate_per_slot", opt(e.episode_rate_per_slot())),
    ]);
    let scope = match report.scope {
        EstimateScope::Session => "session",
        EstimateScope::Fleet => "fleet",
        EstimateScope::Other(_) => "other",
    };
    let v = Value::obj(vec![
        ("scope", Value::Str(scope.to_string())),
        ("sessions", num_u64(u64::from(report.sessions))),
        ("counters", counters),
        ("derived", derived),
        ("delay_samples", num_u64(report.delay.samples)),
        ("delay_p50_secs", Value::Num(report.delay.p50_secs)),
        ("delay_p99_secs", Value::Num(report.delay.p99_secs)),
    ]);
    write_json(path, &v)
}

fn num_u64(v: u64) -> Value {
    Value::Num(v as f64)
}

fn bad(key: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("missing or invalid field `{key}`"),
    )
}

fn field<'a>(v: &'a Value, key: &str) -> io::Result<&'a Value> {
    v.get(key).ok_or_else(|| bad(key))
}

fn req_f64(v: &Value, key: &str) -> io::Result<f64> {
    field(v, key)?.as_f64().ok_or_else(|| bad(key))
}

fn req_u64(v: &Value, key: &str) -> io::Result<u64> {
    field(v, key)?.as_u64().ok_or_else(|| bad(key))
}

/// A count added after the format's first version: absent reads as 0.
fn opt_u64(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

fn req_bool(v: &Value, key: &str) -> io::Result<bool> {
    field(v, key)?.as_bool().ok_or_else(|| bad(key))
}

fn req_arr<'a>(v: &'a Value, key: &str) -> io::Result<&'a [Value]> {
    field(v, key)?.as_arr().ok_or_else(|| bad(key))
}

fn write_json(path: &Path, value: &Value) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, value.to_pretty())
}

fn read_json(path: &Path) -> io::Result<Value> {
    let data = std::fs::read_to_string(path)?;
    badabing_metrics::json::parse(&data)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use badabing_core::estimator::Estimates;
    use badabing_wire::control::DelaySummary;

    fn sample_manifest() -> (BadabingConfig, SenderManifest) {
        let tool = BadabingConfig::paper_default(0.3);
        let manifest = SenderManifest {
            session: 9,
            packets_sent: 6,
            packets_refused: 1,
            n_slots: 1_000,
            slot_secs: 0.005,
            sent: vec![
                SentProbe {
                    experiment: 0,
                    slot: 4,
                    send_time_secs: 0.02,
                    packets: 3,
                },
                SentProbe {
                    experiment: 0,
                    slot: 5,
                    send_time_secs: 0.025,
                    packets: 3,
                },
            ],
        };
        (tool, manifest)
    }

    #[test]
    fn manifest_roundtrips_through_json() {
        let dir = std::env::temp_dir().join("badabing-persist-test");
        let path = dir.join("manifest.json");
        let (tool, manifest) = sample_manifest();
        let file = ManifestFile { tool, manifest };
        file.save(&path).unwrap();
        let loaded = ManifestFile::load(&path).unwrap();
        assert_eq!(loaded.manifest.session, 9);
        assert_eq!(loaded.manifest.packets_refused, 1);
        assert_eq!(loaded.manifest.sent, file.manifest.sent);
        assert_eq!(loaded.tool.p, 0.3);
        assert!(!loaded.tool.improved);
        assert_eq!(loaded.tool.owd_window, tool.owd_window);
        assert_eq!(loaded.tool.alpha, tool.alpha);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn receiver_log_roundtrips_through_json() {
        let dir = std::env::temp_dir().join("badabing-persist-test2");
        let path = dir.join("receiver.json");
        let mut log = ReceiverLog {
            packets: 5,
            rejected: 1,
            duplicates: 2,
            min_raw_delay_ns: Some(-12345),
            ..Default::default()
        };
        log.arrivals.insert(
            (0, 4),
            ArrivalRecord {
                received: 3,
                duplicates: 2,
                qdelay_last_secs: 0.01,
                qdelay_max_secs: 0.02,
                kernel_stamped: true,
            },
        );
        log.save(&path).unwrap();
        let back = ReceiverLog::load(&path).unwrap();
        assert_eq!(back.packets, 5);
        assert_eq!(back.rejected, 1);
        assert_eq!(back.duplicates, 2);
        assert_eq!(back.min_raw_delay_ns, Some(-12345));
        assert_eq!(back.arrivals[&(0, 4)].received, 3);
        assert_eq!(back.arrivals[&(0, 4)].duplicates, 2);
        assert!(back.arrivals[&(0, 4)].kernel_stamped);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loads_logs_written_before_dedup_fields_existed() {
        let dir = std::env::temp_dir().join("badabing-persist-test3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.json");
        std::fs::write(
            &path,
            r#"{
              "packets": 3,
              "rejected": 0,
              "min_raw_delay_ns": null,
              "arrivals": [
                {"experiment": 1, "slot": 2, "received": 3,
                 "qdelay_last_secs": 0.0, "qdelay_max_secs": 0.0}
              ]
            }"#,
        )
        .unwrap();
        let log = ReceiverLog::load(&path).unwrap();
        assert_eq!(log.duplicates, 0);
        assert_eq!(log.arrivals[&(1, 2)].duplicates, 0);
        assert_eq!(log.min_raw_delay_ns, None);
        assert!(
            !log.arrivals[&(1, 2)].kernel_stamped,
            "pre-timestamping logs load as userspace-stamped"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loads_manifests_written_before_refused_sends_were_tracked() {
        let dir = std::env::temp_dir().join("badabing-persist-test5");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old-manifest.json");
        std::fs::write(
            &path,
            r#"{
              "tool": {"slot_secs": 0.005, "p": 0.3, "probe_packets": 3,
                       "packet_bytes": 600, "intra_probe_gap_secs": 0.0,
                       "alpha": 0.005, "tau_secs": 0.05, "improved": false,
                       "owd_window": 5},
              "session": 4, "n_slots": 100, "slot_secs": 0.005,
              "packets_sent": 9,
              "probes": []
            }"#,
        )
        .unwrap();
        let loaded = ManifestFile::load(&path).unwrap();
        assert_eq!(loaded.manifest.packets_sent, 9);
        assert_eq!(loaded.manifest.packets_refused, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Save through `save` into a fresh temp dir and return the file's
    /// text.
    fn saved_text(name: &str, save: impl FnOnce(&Path) -> io::Result<()>) -> String {
        let dir = std::env::temp_dir().join(format!("badabing-persist-pin-{name}"));
        let path = dir.join("file.json");
        save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        text
    }

    #[test]
    fn manifest_json_is_pinned() {
        let (_, manifest) = sample_manifest();
        let tool = BadabingConfig {
            slot_secs: 0.005,
            p: 0.3,
            probe_packets: 3,
            packet_bytes: 600,
            intra_probe_gap_secs: 0.000_03,
            alpha: 0.1,
            tau_secs: 0.04,
            improved: true,
            owd_window: 5,
        };
        let text = saved_text("manifest", |p| ManifestFile { tool, manifest }.save(p));
        assert_eq!(text, PINNED_MANIFEST);
    }

    #[test]
    fn receiver_log_json_is_pinned() {
        let mut log = ReceiverLog {
            packets: 7,
            rejected: 2,
            duplicates: 1,
            min_raw_delay_ns: Some(-12_345_678),
            ..Default::default()
        };
        log.arrivals.insert(
            (3, 40),
            ArrivalRecord {
                received: 2,
                duplicates: 0,
                qdelay_last_secs: -0.000_125,
                qdelay_max_secs: -0.000_062_5,
                kernel_stamped: false,
            },
        );
        log.arrivals.insert(
            (0, 4),
            ArrivalRecord {
                received: 3,
                duplicates: 1,
                qdelay_last_secs: 0.0125,
                qdelay_max_secs: 0.031,
                kernel_stamped: true,
            },
        );
        let text = saved_text("receiver", |p| log.save(p));
        assert_eq!(text, PINNED_RECEIVER_LOG);
    }

    #[test]
    fn estimate_json_is_pinned() {
        let report = EstimateReport {
            scope: EstimateScope::Fleet,
            sessions: 3,
            estimates: Estimates {
                experiments: 1_000,
                z_sum: 120,
                basic_experiments: 600,
                extended_experiments: 400,
                r: 210,
                s: 90,
                n01: 44,
                n10: 46,
                u: 30,
                v: 28,
                n111: 9,
                outcomes_malformed: 2,
                slot_secs: 0.005,
            },
            delay: DelaySummary {
                samples: 5_000,
                p50_secs: 0.002,
                p99_secs: 0.07,
            },
        };
        let text = saved_text("estimate", |p| save_estimate(&report, p));
        assert_eq!(text, PINNED_ESTIMATE);
    }

    /// The manifest file format, byte for byte.
    const PINNED_MANIFEST: &str = r#"{
  "tool": {
    "slot_secs": 0.005,
    "p": 0.3,
    "probe_packets": 3,
    "packet_bytes": 600,
    "intra_probe_gap_secs": 0.00003,
    "alpha": 0.1,
    "tau_secs": 0.04,
    "improved": true,
    "owd_window": 5
  },
  "session": 9,
  "n_slots": 1000,
  "slot_secs": 0.005,
  "packets_sent": 6,
  "packets_refused": 1,
  "probes": [
    {
      "experiment": 0,
      "slot": 4,
      "send_time_secs": 0.02,
      "packets": 3
    },
    {
      "experiment": 0,
      "slot": 5,
      "send_time_secs": 0.025,
      "packets": 3
    }
  ]
}
"#;

    /// The receiver log format, byte for byte: arrivals sorted by
    /// probe key, a negative (lower-envelope) delay written as is.
    const PINNED_RECEIVER_LOG: &str = r#"{
  "packets": 7,
  "rejected": 2,
  "duplicates": 1,
  "min_raw_delay_ns": -12345678,
  "arrivals": [
    {
      "experiment": 0,
      "slot": 4,
      "received": 3,
      "duplicates": 1,
      "qdelay_last_secs": 0.0125,
      "qdelay_max_secs": 0.031,
      "kernel_stamped": true
    },
    {
      "experiment": 3,
      "slot": 40,
      "received": 2,
      "duplicates": 0,
      "qdelay_last_secs": -0.000125,
      "qdelay_max_secs": -0.0000625,
      "kernel_stamped": false
    }
  ]
}
"#;

    /// The estimate file format, byte for byte.
    const PINNED_ESTIMATE: &str = r#"{
  "scope": "fleet",
  "sessions": 3,
  "counters": {
    "experiments": 1000,
    "z_sum": 120,
    "basic_experiments": 600,
    "extended_experiments": 400,
    "r": 210,
    "s": 90,
    "n01": 44,
    "n10": 46,
    "u": 30,
    "v": 28,
    "n111": 9,
    "outcomes_malformed": 2,
    "slot_secs": 0.005
  },
  "derived": {
    "frequency": 0.12,
    "duration_slots_basic": 3.666666666666667,
    "duration_slots_improved": 3.4888888888888894,
    "duration_slots_pooled": 3.309604519774012,
    "episode_rate_per_slot": 0.03272727272727272
  },
  "delay_samples": 5000,
  "delay_p50_secs": 0.002,
  "delay_p99_secs": 0.07
}
"#;

    #[test]
    fn load_missing_file_errors() {
        assert!(ManifestFile::load(Path::new("/nonexistent/m.json")).is_err());
    }

    #[test]
    fn load_garbage_errors_with_invalid_data() {
        let dir = std::env::temp_dir().join("badabing-persist-test4");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "not json at all").unwrap();
        let err = ReceiverLog::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
