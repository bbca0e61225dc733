//! The FaultNet-backed integration suite: full control-plane sessions
//! (handshake, heartbeats, probe trains, FIN + chunked report fetch)
//! over the seeded in-process virtual network — no real sockets, no
//! real timers, so the whole suite runs in milliseconds of wall time
//! and every fault scenario reproduces from its seed.
//!
//! The real-UDP variants of these scenarios survive as smoke tests in
//! `loopback.rs` / `multisession.rs`; this file is the required CI
//! gate. The acceptance test pins the determinism contract: two runs
//! with the same seed produce *byte-identical* manifests and report
//! chunks, even with 30% control-plane loss and reordering.

use badabing_core::config::BadabingConfig;
use badabing_live::analyze::analyze_run;
use badabing_live::control::{ControlClient, ControlConfig, ControlError};
use badabing_live::faultnet::{FaultNet, LinkFaults};
use badabing_live::persist::ManifestFile;
use badabing_live::provider::Provider;
use badabing_live::receiver::{
    start_server, ReceiverLog, ServerConfig, SessionEnd, SessionOutcome,
};
use badabing_live::sender::{run_sender, SenderConfig, SenderOutcome};
use badabing_metrics::Registry;
use badabing_stats::rng::seeded;
use badabing_wire::control::{
    chunk_count, encode_report_chunk_into, RejectReason, SessionParams, MAX_CONTROL_BYTES,
    RECORDS_PER_CHUNK,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn addr(s: &str) -> SocketAddr {
    s.parse().unwrap()
}

/// Fixed virtual topology so fault links can be configured up front.
const RECV: &str = "10.0.0.1:9000";
const PROBE_SRC: &str = "10.0.0.2:7000";
const CTL_SRC: &str = "10.0.0.2:7001";
const SESSION: u32 = 0xFA;

fn fast_tool() -> BadabingConfig {
    BadabingConfig {
        slot_secs: 0.005,
        ..BadabingConfig::paper_default(0.5)
    }
}

struct Run {
    outcome: SenderOutcome,
    /// The server's record of the session, if it ended.
    server: Option<SessionOutcome>,
    /// Real elapsed time of the sender run (virtual runs must be fast).
    wall: Duration,
    metrics: Arc<Registry>,
}

/// One complete control-plane session over a fresh `FaultNet` seeded
/// with `seed`. `configure` installs link faults before any traffic.
fn run_session(seed: u64, n_slots: u64, configure: fn(&Arc<FaultNet>)) -> Run {
    run_session_with(
        seed,
        n_slots,
        configure,
        Duration::from_secs(10),
        |control| {
            control.drain = Duration::from_millis(100);
            // Lossy-link scenarios miss isolated heartbeats routinely; only
            // a long silent streak should abort.
            control.heartbeat_misses = 10;
        },
    )
}

/// [`run_session`] with the server's idle timeout set to `idle` and the
/// sender's control settings set by `control_cfg`.
fn run_session_with(
    seed: u64,
    n_slots: u64,
    configure: fn(&Arc<FaultNet>),
    idle: Duration,
    control_cfg: impl FnOnce(&mut ControlConfig),
) -> Run {
    let net = FaultNet::new(seed);
    configure(&net);
    let provider = Provider::Fault(net.clone());
    let metrics = Arc::new(Registry::new("faultnet-run"));
    let server = start_server(ServerConfig {
        provider: provider.clone(),
        idle_timeout: Some(idle),
        metrics: Some(metrics.clone()),
        ..ServerConfig::any(addr(RECV), 4)
    })
    .unwrap();
    let tool = fast_tool();
    let mut control = ControlConfig::new(addr(RECV));
    control.bind = Some(addr(CTL_SRC));
    control_cfg(&mut control);
    let cfg = SenderConfig {
        tool,
        bind: addr(PROBE_SRC),
        control: Some(control),
        provider,
        ..SenderConfig::new(tool, n_slots, addr(RECV), SESSION)
    };
    let started = Instant::now();
    let outcome = run_sender(cfg, seeded(seed, "faultnet-run")).unwrap();
    let wall = started.elapsed();
    let server = server
        .stop()
        .sessions
        .into_iter()
        .find(|o| o.session == SESSION);
    Run {
        outcome,
        server,
        wall,
        metrics,
    }
}

/// The exact wire bytes of every report chunk the receiver serves for
/// this log (same encoder, same deterministic record order).
fn report_chunk_bytes(log: &ReceiverLog) -> Vec<Vec<u8>> {
    let records = log.to_records();
    let total = chunk_count(records.len());
    records
        .chunks(RECORDS_PER_CHUNK)
        .enumerate()
        .map(|(i, window)| {
            let mut buf = [0u8; MAX_CONTROL_BYTES];
            let n = encode_report_chunk_into(SESSION, i as u32, total, window, &mut buf);
            buf[..n].to_vec()
        })
        .collect()
}

fn no_faults(_net: &Arc<FaultNet>) {}

#[test]
fn full_session_completes_on_a_clean_virtual_net() {
    let run = run_session(1, 400, no_faults);
    let outcome = run.outcome;
    assert!(outcome.completed, "{:?}", outcome.diagnostics);
    assert!(outcome.diagnostics.is_empty(), "{:?}", outcome.diagnostics);
    let log = outcome.receiver_log.expect("control plane fetches report");
    // The server's finished log is the report the sender fetched, summary
    // (rejected and min_raw_delay_ns included) and records alike, plus
    // the handshake the report does not carry.
    let server = run.server.expect("server recorded the session");
    assert_eq!(server.end, SessionEnd::Completed);
    assert_eq!(server.log.summary(), log.summary());
    assert!(server.log.min_raw_delay_ns.is_some());
    assert_eq!(server.log.to_records(), log.to_records());
    assert_eq!(server.log.handshake.map(|p| p.n_slots), Some(400));
    let manifest = outcome.manifest;
    assert!(!manifest.sent.is_empty());
    assert_eq!(manifest.packets_refused, 0);
    // Clean links lose nothing and duplicate nothing.
    assert_eq!(log.packets, manifest.packets_sent);
    assert_eq!(log.duplicates, 0);
    assert_eq!(log.arrivals.len(), manifest.sent.len());
    for probe in &manifest.sent {
        let rec = log
            .arrivals
            .get(&(probe.experiment, probe.slot))
            .unwrap_or_else(|| panic!("probe ({}, {}) missing", probe.experiment, probe.slot));
        assert_eq!(rec.received, probe.packets);
    }
    // 2 s of virtual schedule must not cost 2 s of wall time.
    assert!(
        run.wall < Duration::from_secs(1),
        "virtual run took {:?} of wall time",
        run.wall
    );
}

/// Regression: the sender used to stop its heartbeat thread *before*
/// the drain wait, so with a receiver idle timeout shorter than the
/// drain the receiver's watchdog reclaimed the session before FIN
/// arrived and an otherwise-complete report was lost. Liveness must
/// keep flowing until report retrieval starts: a 300 ms idle timeout,
/// a 900 ms drain and 100 ms heartbeats. A same-seed rerun reproduces
/// the run byte for byte.
#[test]
fn report_survives_idle_timeout_shorter_than_drain() {
    let run = || {
        run_session_with(
            8,
            200, /* 1 s */
            no_faults,
            Duration::from_millis(300),
            |control| {
                control.drain = Duration::from_millis(900); // 3× the idle timeout
                control.heartbeat_interval = Duration::from_millis(100);
            },
        )
    };
    let a = run();
    let outcome = &a.outcome;
    assert!(outcome.completed);
    assert_eq!(outcome.diagnostics, Vec::<String>::new());
    let fetched = outcome
        .receiver_log
        .as_ref()
        .expect("heartbeats must keep the session alive through the drain wait");
    assert_eq!(fetched.packets, outcome.manifest.packets_sent);

    // The session ends via the closing ReportAck, not the watchdog.
    let server = a.server.as_ref().expect("server recorded the session");
    assert_eq!(server.end, SessionEnd::Completed);
    assert_eq!(server.log.packets, fetched.packets);
    assert_eq!(a.metrics.counter("sessions_idle_reaped").get(), 0);

    let b = run();
    assert_eq!(
        format!("{:?}", b.outcome.manifest),
        format!("{:?}", outcome.manifest),
        "same seed must give an identical manifest"
    );
    let again = b.outcome.receiver_log.as_ref().expect("rerun fetched");
    assert_eq!(
        report_chunk_bytes(again),
        report_chunk_bytes(fetched),
        "same seed must give identical report chunks"
    );
}

/// Both control-plane directions lose 30% of datagrams and reorder a
/// quarter of the rest.
fn lossy_control(net: &Arc<FaultNet>) {
    let lossy = LinkFaults::uniform_loss(0.30).with_reordering(0.25, Duration::from_millis(2));
    net.set_faults(addr(CTL_SRC), addr(RECV), lossy.clone());
    net.set_faults(addr(RECV), addr(CTL_SRC), lossy);
}

/// The acceptance gate: the full control plane completes through 30%
/// control loss + reordering in well under a second of wall time, and
/// two runs from the same seed are byte-identical — manifests and
/// report chunks both.
#[test]
fn lossy_control_plane_completes_fast_and_deterministically() {
    let a = run_session(11, 400, lossy_control);
    let b = run_session(11, 400, lossy_control);

    for (name, run) in [("first", &a), ("second", &b)] {
        assert!(
            run.outcome.completed,
            "{name} run aborted: {:?}",
            run.outcome.diagnostics
        );
        assert!(
            run.outcome.receiver_log.is_some(),
            "{name} run lost its report: {:?}",
            run.outcome.diagnostics
        );
        assert!(
            run.wall < Duration::from_secs(1),
            "{name} run took {:?} of wall time",
            run.wall
        );
    }

    // Byte-identical manifests, asserted on the serialized files the
    // tool actually writes.
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let path_a = dir.join(format!("badabing-faultnet-{pid}-a.json"));
    let path_b = dir.join(format!("badabing-faultnet-{pid}-b.json"));
    ManifestFile::new(fast_tool(), &a.outcome.manifest)
        .save(&path_a)
        .unwrap();
    ManifestFile::new(fast_tool(), &b.outcome.manifest)
        .save(&path_b)
        .unwrap();
    let bytes_a = std::fs::read(&path_a).unwrap();
    let bytes_b = std::fs::read(&path_b).unwrap();
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);
    assert!(!bytes_a.is_empty());
    assert_eq!(bytes_a, bytes_b, "same seed must give identical manifests");

    // Byte-identical report chunks (the exact datagrams the receiver
    // serves for the FIN-frozen snapshot).
    let chunks_a = report_chunk_bytes(a.outcome.receiver_log.as_ref().unwrap());
    let chunks_b = report_chunk_bytes(b.outcome.receiver_log.as_ref().unwrap());
    assert!(!chunks_a.is_empty(), "run produced an empty report");
    assert_eq!(
        chunks_a, chunks_b,
        "same seed must give identical report chunks"
    );
}

/// Gilbert–Elliott loss bursts, duplication, and reordering on the
/// probe path only.
fn faulty_probe_link(net: &Arc<FaultNet>) {
    net.set_faults(
        addr(PROBE_SRC),
        addr(RECV),
        LinkFaults::gilbert_elliott(0.05, 0.30, 1.0)
            .with_duplication(0.10)
            .with_reordering(0.20, Duration::from_millis(2)),
    );
}

#[test]
fn probe_link_faults_surface_as_loss_and_deduplicated_duplicates() {
    let run = run_session(7, 400, faulty_probe_link);
    let outcome = run.outcome;
    assert!(outcome.completed, "{:?}", outcome.diagnostics);
    let log = outcome.receiver_log.expect("report fetched");
    let manifest = outcome.manifest;
    assert_eq!(manifest.packets_refused, 0, "virtual sends never refuse");
    assert!(
        log.packets < manifest.packets_sent,
        "loss bursts must lose packets: {} of {} arrived",
        log.packets,
        manifest.packets_sent
    );
    assert!(log.packets > 0, "exit probability keeps the link usable");
    assert!(
        log.duplicates > 0,
        "10% duplication over {} packets must surface",
        manifest.packets_sent
    );
    // Dedup holds under duplication + reordering: no arrival record can
    // claim more packets than its probe carried.
    for (&(experiment, slot), rec) in &log.arrivals {
        let probe = manifest
            .sent
            .iter()
            .find(|p| p.experiment == experiment && p.slot == slot)
            .unwrap_or_else(|| panic!("unknown probe ({experiment}, {slot}) in report"));
        assert!(
            rec.received <= probe.packets,
            "probe ({experiment}, {slot}): {} received of {} sent",
            rec.received,
            probe.packets
        );
    }
}

/// Duplication and reordering on the probe path, with no loss.
fn dup_reorder_probe_link(net: &Arc<FaultNet>) {
    net.set_faults(
        addr(PROBE_SRC),
        addr(RECV),
        LinkFaults::default()
            .with_duplication(0.20)
            .with_reordering(0.15, Duration::from_millis(2)),
    );
}

/// The probe link duplicates a fifth of the datagrams and reorders
/// some of the rest, but drops nothing. Dedup by `(seq, idx)` must keep
/// the loss accounting identical to a clean path: zero loss, zero
/// estimated frequency. A same-seed rerun reproduces the run byte for
/// byte.
#[test]
fn duplicated_and_reordered_datagrams_leave_loss_accounting_unchanged() {
    let tool = fast_tool();
    let run = || run_session(6, 600 /* 3 s */, dup_reorder_probe_link);
    let a = run();
    let outcome = &a.outcome;
    assert!(outcome.completed, "{:?}", outcome.diagnostics);
    let log = &a.server.as_ref().expect("server recorded the session").log;

    assert!(log.duplicates > 0, "the link injected duplicates");
    assert_eq!(
        log.packets, outcome.manifest.packets_sent,
        "every distinct packet arrived"
    );
    // No arrival record exceeds its probe length despite the duplicates.
    for rec in log.arrivals.values() {
        assert!(rec.received <= tool.probe_packets);
    }
    let analysis = analyze_run(&tool, &outcome.manifest, log);
    assert_eq!(
        analysis.packets_lost, 0,
        "duplicates/reordering must not be mistaken for (or mask) loss"
    );
    assert_eq!(analysis.frequency(), Some(0.0));

    let b = run();
    assert_eq!(
        format!("{:?}", b.outcome.manifest),
        format!("{:?}", outcome.manifest),
        "same seed must give an identical manifest"
    );
    let again = &b.server.as_ref().expect("rerun recorded the session").log;
    assert_eq!(
        report_chunk_bytes(again),
        report_chunk_bytes(log),
        "same seed must give identical report chunks"
    );
}

/// An MTU bottleneck on the probe path: every 600-byte probe is clipped.
fn clipped_probe_link(net: &Arc<FaultNet>) {
    net.set_faults(
        addr(PROBE_SRC),
        addr(RECV),
        LinkFaults::default().with_mtu(100),
    );
}

#[test]
fn mtu_clipped_probes_are_dropped_and_counted_not_decoded() {
    let run = run_session(3, 200, clipped_probe_link);
    let outcome = run.outcome;
    assert!(outcome.completed, "{:?}", outcome.diagnostics);
    let log = outcome.receiver_log.expect("report fetched");
    // Every probe datagram arrived clipped: dropped before decode, so
    // the report is empty and the truncation counter carries the story.
    assert_eq!(log.packets, 0, "clipped datagrams must not be decoded");
    assert!(log.arrivals.is_empty());
    let truncated = run.metrics.counter("packets_truncated").get();
    assert_eq!(
        truncated, outcome.manifest.packets_sent,
        "every sent probe datagram must be counted as truncated"
    );
}

#[test]
fn session_capacity_is_enforced_over_faultnet() {
    let net = FaultNet::new(5);
    let provider = Provider::Fault(net.clone());
    let server = start_server(ServerConfig {
        provider: provider.clone(),
        ..ServerConfig::any(addr(RECV), 1)
    })
    .unwrap();
    let params = SessionParams {
        n_slots: 100,
        slot_ns: 5_000_000,
        probe_packets: 3,
        packet_bytes: 600,
        p: 0.3,
        improved: false,
    };
    let client = |bind: &str| {
        let mut cfg = ControlConfig::new(addr(RECV));
        cfg.provider = provider.clone();
        cfg.bind = Some(addr(bind));
        ControlClient::connect(cfg, None).unwrap()
    };
    client("10.0.0.2:7001")
        .handshake(41, params)
        .expect("first session fits");
    let err = client("10.0.0.3:7001")
        .handshake(42, params)
        .expect_err("second session must be refused");
    match err {
        ControlError::Rejected {
            reason: RejectReason::Capacity,
        } => {}
        other => panic!("expected a capacity NACK, got {other}"),
    }
    server.stop();
}

#[test]
fn two_sessions_share_one_server_over_faultnet() {
    let net = FaultNet::new(9);
    let provider = Provider::Fault(net.clone());
    let metrics = Arc::new(Registry::new("faultnet-multi"));
    let server = start_server(ServerConfig {
        provider: provider.clone(),
        idle_timeout: Some(Duration::from_secs(10)),
        metrics: Some(metrics.clone()),
        ..ServerConfig::any(addr(RECV), 4)
    })
    .unwrap();
    let senders: Vec<_> = [(21u32, "10.0.0.2", 300u64), (22, "10.0.0.3", 400)]
        .into_iter()
        .map(|(session, host, n_slots)| {
            let provider = provider.clone();
            let net = net.clone();
            // Hold virtual time until the sender thread is actually
            // running, so the other session cannot burn its timeouts
            // against a thread the OS has not scheduled yet.
            let ticket = net.reserve();
            std::thread::spawn(move || {
                net.adopt(ticket);
                let tool = fast_tool();
                let mut control = ControlConfig::new(addr(RECV));
                control.bind = Some(addr(&format!("{host}:7001")));
                control.drain = Duration::from_millis(100);
                let cfg = SenderConfig {
                    tool,
                    bind: addr(&format!("{host}:7000")),
                    control: Some(control),
                    provider,
                    ..SenderConfig::new(tool, n_slots, addr(RECV), session)
                };
                (
                    session,
                    run_sender(cfg, seeded(u64::from(session), "faultnet-multi")).unwrap(),
                )
            })
        })
        .collect();
    for handle in senders {
        let (session, outcome) = net.unenrolled(|| handle.join()).unwrap();
        assert!(
            outcome.completed,
            "session {session}: {:?}",
            outcome.diagnostics
        );
        let log = outcome.receiver_log.expect("report fetched");
        // Each report contains exactly its own probes — no cross-session
        // contamination through the shared registry.
        assert_eq!(log.packets, outcome.manifest.packets_sent);
        assert_eq!(log.duplicates, 0);
        assert_eq!(log.arrivals.len(), outcome.manifest.sent.len());
    }
    server.stop();
}
