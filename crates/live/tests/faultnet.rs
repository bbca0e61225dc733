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
use badabing_core::schedule::ExperimentScheduler;
use badabing_live::analyze::analyze_run;
use badabing_live::control::{ControlClient, ControlConfig, ControlError};
use badabing_live::faultnet::{FaultNet, LinkFaults};
use badabing_live::persist::ManifestFile;
use badabing_live::provider::{Clock, Provider};
use badabing_live::receiver::{
    projected_session_bytes, start_server, PressurePolicy, ReceiverLog, ServerConfig, ServerReport,
    SessionEnd, SessionOutcome, DEFAULT_SESSION_BUDGET_BYTES,
};
use badabing_live::sender::{run_sender, slot_offset, SenderConfig, SenderManifest, SenderOutcome};
use badabing_metrics::Registry;
use badabing_stats::rng::seeded;
use badabing_wire::control::{
    chunk_records, ControlMessage, RejectReason, ReportRecord, SessionParams, REPORT_WINDOW_CHUNKS,
};
use badabing_wire::ProbeHeader;
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
        provider: provider.clone(),
        ..SenderConfig::new(tool, n_slots, addr(RECV), SESSION)
    };
    let started = Instant::now();
    let outcome = run_sender(cfg, seeded(seed, "faultnet-run")).unwrap();
    let wall = started.elapsed();
    // The sender's closing `ReportAck` is still on the virtual link when
    // `run_sender` returns: let it land before the stop, so the session's
    // end never depends on what a drain thread does with a batch it
    // receives after the stop flag is set.
    completes_within(&metrics, &provider.clock(), Duration::from_secs(5));
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
    record_bytes(&log.to_records())
}

/// The report's records as the exact datagrams the receiver serves.
fn record_bytes(records: &[ReportRecord]) -> Vec<Vec<u8>> {
    chunk_records(SESSION, records)
        .iter()
        .map(|c| c.encode().to_vec())
        .collect()
}

fn no_faults(_net: &Arc<FaultNet>) {}

/// The manifest file the tool writes for `manifest`, as bytes.
fn manifest_file_bytes(manifest: &SenderManifest, tag: &str) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!(
        "badabing-faultnet-{}-{tag}.json",
        std::process::id()
    ));
    ManifestFile {
        tool: fast_tool(),
        manifest: manifest.clone(),
    }
    .save(&path)
    .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

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
    let server_log = server.log();
    assert_eq!(server_log.summary(), log.summary());
    assert!(server_log.min_raw_delay_ns.is_some());
    assert_eq!(server_log.to_records(), log.to_records());
    assert_eq!(server_log.handshake.map(|p| p.n_slots), Some(400));
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

/// Regression: the sender used to stop heartbeating *before* the
/// drain wait, so with a receiver idle timeout shorter than the
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
    assert_eq!(server.log().packets, fetched.packets);
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
/// control loss + reordering in well under a second of wall time, so
/// backoff retries carry the handshake, FIN and every report chunk
/// through while the clean probe path loses nothing, and two runs from
/// the same seed are byte-identical — manifests and report chunks both.
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
        let fetched = run.outcome.receiver_log.as_ref().unwrap();
        assert!(fetched.packets > 0, "{name} run");
        let analysis = analyze_run(&fast_tool(), &run.outcome.manifest, fetched);
        assert_eq!(analysis.packets_lost, 0, "{name} run: probe path was clean");
    }

    // Byte-identical manifests, asserted on the serialized files the
    // tool actually writes.
    let bytes_a = manifest_file_bytes(&a.outcome.manifest, "lossy");
    assert!(!bytes_a.is_empty());
    assert_eq!(
        bytes_a,
        manifest_file_bytes(&b.outcome.manifest, "lossy"),
        "same seed must give identical manifests"
    );

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
    let log = &a
        .server
        .as_ref()
        .expect("server recorded the session")
        .log();

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
    let again = &b.server.as_ref().expect("rerun recorded the session").log();
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

/// Whether the server completes a session (the sender's closing
/// `ReportAck`) within `limit` of virtual time from now.
fn completes_within(metrics: &Registry, clock: &Clock, limit: Duration) -> bool {
    let deadline = clock.now() + limit;
    while metrics.counter("sessions_completed").get() == 0 {
        if clock.now() > deadline {
            return false;
        }
        clock.sleep(Duration::from_millis(5));
    }
    true
}

/// One sender run whose receiver is stopped once it has accepted a
/// probe. Returns the outcome and how long, in virtual time, the sender
/// took to give up after the stop.
fn receiver_death_run() -> (SenderOutcome, Duration) {
    let net = FaultNet::new(6);
    let provider = Provider::Fault(net.clone());
    let clock = provider.clock();
    let metrics = Arc::new(Registry::new("faultnet-death"));
    let receiver = start_server(ServerConfig {
        provider: provider.clone(),
        metrics: Some(metrics.clone()),
        ..ServerConfig::any(addr(RECV), 4)
    })
    .unwrap();
    let tool = fast_tool();
    let mut control = ControlConfig::new(addr(RECV));
    control.bind = Some(addr(CTL_SRC));
    control.heartbeat_interval = Duration::from_millis(100);
    control.heartbeat_misses = 3;
    let cfg = SenderConfig {
        tool,
        bind: addr(PROBE_SRC),
        control: Some(control),
        provider,
        ..SenderConfig::new(tool, 4_000 /* nominally 20 s */, addr(RECV), SESSION)
    };
    let ticket = net.reserve();
    let sender = {
        let net = net.clone();
        let clock = clock.clone();
        std::thread::spawn(move || {
            net.adopt(ticket);
            let outcome = run_sender(cfg, seeded(6, "death"));
            // Read while still enrolled: the instant the run ended.
            (outcome, clock.now())
        })
    };

    // Let the run establish itself (the receiver has accepted a probe,
    // so the handshake is done), then kill the receiver.
    let accepted = metrics.counter("packets_accepted");
    let deadline = clock.now() + Duration::from_secs(5);
    while accepted.get() == 0 && clock.now() < deadline {
        clock.sleep(Duration::from_millis(1));
    }
    assert!(accepted.get() >= 1, "no probe reached the receiver in 5 s");
    // Read before the stop: its join runs unenrolled, and the sender's
    // virtual time runs on meanwhile.
    let killed_at = clock.now();
    let _ = receiver.stop();
    let (outcome, ended_at) = net.unenrolled(|| sender.join()).unwrap();
    (outcome.unwrap(), ended_at - killed_at)
}

/// A receiver that dies mid-run degrades the sender to a partial
/// manifest within a few heartbeats. A same-seed rerun gives the same
/// manifest.
#[test]
fn receiver_death_mid_run_degrades_to_partial_manifest() {
    let (outcome, detected_in) = receiver_death_run();
    // Watchdog budget: one interval until the first unanswered
    // heartbeat, then 3 misses × 100 ms heartbeats, plus slack for the
    // stop to reach the drain threads — nowhere near the 19 s of
    // schedule that remained.
    assert!(
        detected_in < Duration::from_millis(500),
        "sender took {detected_in:?} to abort after receiver death"
    );
    assert!(!outcome.completed, "run must be marked incomplete");
    assert!(
        outcome.receiver_log.is_none(),
        "no report from a dead receiver"
    );
    assert!(
        !outcome.diagnostics.is_empty(),
        "a partial run must carry a diagnostic"
    );
    assert!(
        outcome.diagnostics[0].contains("partial"),
        "{:?}",
        outcome.diagnostics
    );
    let manifest = &outcome.manifest;
    assert!(
        !manifest.sent.is_empty(),
        "probes before the kill are retained"
    );
    // The schedule had ~20 s to go; a completed run would have sent far
    // more probes than fit in the first ~1.5 s.
    let max_slot = manifest.sent.iter().map(|s| s.slot).max().unwrap();
    assert!(
        max_slot < 1_500,
        "sender kept probing after abort (slot {max_slot})"
    );

    let (again, _) = receiver_death_run();
    assert_eq!(
        format!("{:?}", again.manifest),
        format!("{:?}", outcome.manifest),
        "same seed must give an identical manifest"
    );
}

/// One sender run whose session the receiver evicts mid-run: the global
/// budget holds one such session and not two, and a second SYN a
/// second into the run makes room by evicting the first
/// (`PressurePolicy::EvictIdle`). Returns the sender's outcome and
/// metrics, and how long, in virtual time, the run went on after the
/// second SYN was sent.
fn evicted_run() -> (SenderOutcome, Arc<Registry>, Duration) {
    let net = FaultNet::new(12);
    let provider = Provider::Fault(net.clone());
    let clock = provider.clock();
    let tool = fast_tool();
    let mut control = ControlConfig::new(addr(RECV));
    control.bind = Some(addr(CTL_SRC));
    control.heartbeat_interval = HEARTBEAT;
    control.heartbeat_misses = 3;
    let metrics = Arc::new(Registry::new("faultnet-evicted"));
    let cfg = SenderConfig {
        tool,
        bind: addr(PROBE_SRC),
        control: Some(control),
        provider: provider.clone(),
        metrics: Some(metrics.clone()),
        ..SenderConfig::new(tool, 4_000 /* nominally 20 s */, addr(RECV), SESSION)
    };
    let params = cfg.session_params();
    let one = projected_session_bytes(&params, DEFAULT_SESSION_BUDGET_BYTES);
    let server_metrics = Arc::new(Registry::new("faultnet-evicting"));
    let receiver = start_server(ServerConfig {
        provider: provider.clone(),
        global_budget_bytes: Some(one + one / 2),
        on_pressure: PressurePolicy::EvictIdle,
        metrics: Some(server_metrics.clone()),
        ..ServerConfig::any(addr(RECV), 4)
    })
    .unwrap();
    let ticket = net.reserve();
    let sender = {
        let net = net.clone();
        let clock = clock.clone();
        std::thread::spawn(move || {
            net.adopt(ticket);
            let outcome = run_sender(cfg, seeded(12, "evicted"));
            // Read while still enrolled: the instant the run ended.
            (outcome, clock.now())
        })
    };

    // A second into the run, open the second session.
    clock.sleep(Duration::from_secs(1));
    assert!(server_metrics.counter("packets_accepted").get() > 0);
    let mut second = ControlConfig::new(addr(RECV));
    second.provider = provider;
    second.bind = Some(addr("10.0.0.3:7001"));
    let evicting_syn_at = clock.now();
    ControlClient::connect(second, None)
        .unwrap()
        .handshake(SESSION + 1, params)
        .expect("eviction must make room for the second session");
    let (outcome, ended_at) = net.unenrolled(|| sender.join()).unwrap();
    let report = receiver.stop();
    assert_eq!(report.sessions_evicted, 1);
    let evicted = report.sessions.iter().find(|o| o.session == SESSION);
    assert_eq!(evicted.map(|o| o.end), Some(SessionEnd::Evicted));
    (outcome.unwrap(), metrics, ended_at - evicting_syn_at)
}

/// The heartbeat interval of [`evicted_run`].
const HEARTBEAT: Duration = Duration::from_millis(100);

/// A session the receiver evicts mid-run ends the run as a partial
/// manifest, through the NACK-as-miss path: every heartbeat after the
/// eviction draws a SYN-NACK, and each tick that reads one counts a
/// miss. The first heartbeat after the eviction goes out within one
/// interval of it and its NACK is read at the next tick, so the run
/// ends within `heartbeat_misses + 1` intervals of the eviction, with
/// exactly `heartbeat_misses` misses. A same-seed rerun gives a
/// byte-identical manifest file.
#[test]
fn evicted_session_aborts_the_run_within_the_miss_budget() {
    let (outcome, metrics, ended_in) = evicted_run();
    assert!(!outcome.completed, "run must be marked incomplete");
    assert!(outcome.receiver_log.is_none());
    assert!(
        outcome.diagnostics[0].contains("partial"),
        "{:?}",
        outcome.diagnostics
    );
    assert!(
        ended_in <= HEARTBEAT * 4,
        "run went on {ended_in:?} after the eviction"
    );
    assert_eq!(metrics.counter("heartbeats_missed").get(), 3);
    assert_eq!(metrics.counter("runs_aborted").get(), 1);
    assert!(!outcome.manifest.sent.is_empty());

    let (again, _, _) = evicted_run();
    assert_eq!(
        manifest_file_bytes(&again.manifest, "evicted"),
        manifest_file_bytes(&outcome.manifest, "evicted"),
        "same seed must give an identical manifest"
    );
}

/// Four threads sleep to the same virtual instants and each sends one
/// datagram to one socket per instant: every round is a four-way tie.
/// Returns (sender, round, delivery stamp) in arrival order.
fn four_way_tie_arrivals() -> Vec<(u8, u8, Duration)> {
    const ROUNDS: u8 = 20;
    let net = FaultNet::new(31);
    let sink = net.bind(addr(RECV)).unwrap();
    sink.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
    let senders: Vec<_> = (0..4u8)
        .map(|i| {
            let net = net.clone();
            let ticket = net.reserve();
            std::thread::spawn(move || {
                net.adopt(ticket);
                let sock = net.bind(addr(&format!("10.0.1.{}:7000", i + 1))).unwrap();
                for round in 1..=ROUNDS {
                    net.sleep_until(Duration::from_millis(u64::from(round)));
                    sock.send_to(&[i, round], addr(RECV)).unwrap();
                }
            })
        })
        .collect();
    let arrivals = (0..4 * usize::from(ROUNDS))
        .map(|_| {
            let m = sink.recv_msg().unwrap();
            (m.data[0], m.data[1], m.stamp)
        })
        .collect();
    for s in senders {
        net.unenrolled(|| s.join()).unwrap();
    }
    arrivals
}

/// Threads that act at the same virtual nanosecond act in one order,
/// whatever the OS does: 30 same-seed reruns see one arrival order.
#[test]
fn same_instant_sends_from_four_threads_replay_in_one_order() {
    let first = four_way_tie_arrivals();
    for round in first.chunks(4) {
        let (_, r, stamp) = round[0];
        assert!(
            round.iter().all(|&(_, rr, st)| rr == r && st == stamp),
            "each round's four datagrams land at one instant: {round:?}"
        );
    }
    for rerun in 1..30 {
        assert_eq!(
            four_way_tie_arrivals(),
            first,
            "rerun {rerun} saw another arrival order"
        );
    }
}

/// Everything a [`tied_run`] must reproduce byte for byte.
#[derive(Debug, PartialEq)]
struct TiedRun {
    manifest_file: Vec<u8>,
    report_chunks: Vec<Vec<u8>>,
    receiver_metrics: String,
    heartbeats_missed: u64,
    control_retries: u64,
    /// The sender's slot anchor, recovered from the receiver's minimum
    /// raw delay (clean links: anchor + latency).
    anchor: Duration,
    /// Slots the sender probed.
    slots: Vec<u64>,
}

/// One sender run against a two-thread receiver. With `ties` given as
/// `(syn_at, stop_at)`, a second session's SYN leaves at `syn_at` and
/// the receiver is stopped at `stop_at`; otherwise the receiver is
/// stopped a second into the run.
fn tied_run(ties: Option<(Duration, Duration)>) -> TiedRun {
    let net = FaultNet::new(11);
    let provider = Provider::Fault(net.clone());
    let clock = provider.clock();
    let server_metrics = Arc::new(Registry::new("faultnet-tied"));
    let receiver = start_server(ServerConfig {
        provider: provider.clone(),
        recv_threads: 2,
        metrics: Some(server_metrics.clone()),
        ..ServerConfig::any(addr(RECV), 4)
    })
    .unwrap();
    let tool = fast_tool();
    let mut control = ControlConfig::new(addr(RECV));
    control.bind = Some(addr(CTL_SRC));
    control.heartbeat_interval = Duration::from_millis(100);
    control.heartbeat_misses = 3;
    let metrics = Arc::new(Registry::new("faultnet-tied-sender"));
    let cfg = SenderConfig {
        tool,
        bind: addr(PROBE_SRC),
        control: Some(control),
        provider: provider.clone(),
        metrics: Some(metrics.clone()),
        ..SenderConfig::new(tool, 4_000, addr(RECV), SESSION)
    };
    let params = cfg.session_params();
    let ticket = net.reserve();
    let sender = {
        let net = net.clone();
        std::thread::spawn(move || {
            net.adopt(ticket);
            run_sender(cfg, seeded(11, "tied"))
        })
    };
    let (syn_at, stop_at) = ties.unwrap_or((Duration::ZERO, Duration::from_secs(1)));
    if ties.is_some() {
        clock.sleep_until(syn_at);
        let mut control = ControlConfig::new(addr(RECV));
        control.provider = provider.clone();
        control.bind = Some(addr("10.0.0.3:7001"));
        ControlClient::connect(control, None)
            .unwrap()
            .handshake(SESSION + 1, params)
            .unwrap();
    }
    clock.sleep_until(stop_at);
    let report = receiver.stop();
    let outcome = net.unenrolled(|| sender.join()).unwrap().unwrap();
    let log = &report
        .sessions
        .iter()
        .find(|o| o.session == SESSION)
        .expect("the run's session")
        .log();
    let min_raw = log.min_raw_delay_ns.expect("probes arrived");
    TiedRun {
        manifest_file: manifest_file_bytes(&outcome.manifest, "tied"),
        report_chunks: report_chunk_bytes(log),
        receiver_metrics: server_metrics.snapshot_json(),
        heartbeats_missed: metrics.counter("heartbeats_missed").get(),
        control_retries: metrics.counter("control_retries").get(),
        anchor: Duration::from_nanos(min_raw as u64) - LinkFaults::default().latency,
        slots: outcome.manifest.sent.iter().map(|p| p.slot).collect(),
    }
}

/// A second session's SYN sent at the instant the sender sends a
/// probe, and a `ServerHandle::stop` at the instant a later probe is
/// delivered to a drain thread, replay from the seed: 100 same-seed
/// reruns give byte-identical manifest files, report chunks, receiver
/// metrics and sender control counters.
#[test]
fn stop_and_syn_tied_with_probe_deliveries_replay_from_the_seed() {
    let plain = tied_run(None);
    // The send instant of the run's `k`-th probe (5 ms slots).
    let slot = |k: usize| plain.anchor + slot_offset(Duration::from_millis(5), plain.slots[k]);
    let latency = LinkFaults::default().latency;
    // The SYN leaves with the 20th probe and lands at the same instant
    // (on the other drain thread); the stop meets the 60th probe's
    // delivery.
    let ties = (slot(20), slot(60) + latency);
    let first = tied_run(Some(ties));
    assert_eq!(first.anchor, plain.anchor, "the ties leave the schedule");
    assert_eq!(
        first.slots[..=60],
        plain.slots[..=60],
        "the tied instants are probe sends"
    );
    assert!(
        first.receiver_metrics.contains("\"sessions_opened\": 2"),
        "{}",
        first.receiver_metrics
    );
    assert!(first.heartbeats_missed >= 3, "the stop ends the run");
    for rerun in 1..100 {
        assert_eq!(tied_run(Some(ties)), first, "rerun {rerun} differs");
    }
}

/// One sender run whose probes all go to a socket nobody reads; only
/// the control plane reaches the receiver. Returns the sender's outcome
/// and the server's report, taken once the session completed or 5 s of
/// virtual time passed.
fn zero_record_run() -> (SenderOutcome, bool, ServerReport) {
    let net = FaultNet::new(9);
    let provider = Provider::Fault(net.clone());
    let clock = provider.clock();
    let metrics = Arc::new(Registry::new("faultnet-blackhole"));
    let receiver = start_server(ServerConfig {
        provider: provider.clone(),
        idle_timeout: Some(Duration::from_secs(10)),
        metrics: Some(metrics.clone()),
        ..ServerConfig::any(addr(RECV), 4)
    })
    .unwrap();
    let blackhole = provider.bind(addr("10.0.0.9:7000")).unwrap(); // bound, never read
    let tool = fast_tool();
    let mut control = ControlConfig::new(addr(RECV));
    control.bind = Some(addr(CTL_SRC));
    control.drain = Duration::from_millis(100);
    let cfg = SenderConfig {
        tool,
        bind: addr(PROBE_SRC),
        control: Some(control),
        provider,
        ..SenderConfig::new(
            tool,
            200, /* 1 s */
            blackhole.local_addr().unwrap(),
            SESSION,
        )
    };
    let outcome = run_sender(cfg, seeded(9, "blackhole")).unwrap();
    let completed = completes_within(&metrics, &clock, Duration::from_secs(5));
    (outcome, completed, receiver.stop())
}

/// FIN → FinAck(total_chunks = 0) → closing ReportAck must complete a
/// session with an empty record set — the `chunk >= total_chunks`
/// completion edge at zero chunks — rather than wedging the receiver
/// until its watchdog. A same-seed rerun gives the same manifest.
#[test]
fn zero_record_session_completes_cleanly() {
    let (outcome, completed, report) = zero_record_run();
    assert!(outcome.completed, "diagnostics: {:?}", outcome.diagnostics);
    let fetched = outcome
        .receiver_log
        .as_ref()
        .expect("an empty report must still be retrievable");
    assert_eq!(fetched.packets, 0);
    assert!(fetched.arrivals.is_empty(), "no probe ever arrived");

    assert!(
        completed,
        "session must complete via the closing ReportAck, not the watchdog"
    );
    assert_eq!(report.sessions[0].end, SessionEnd::Completed);
    assert!(report.sessions[0].log().arrivals.is_empty());

    // Loss accounting off the manifest alone: everything sent was lost.
    let analysis = analyze_run(&fast_tool(), &outcome.manifest, fetched);
    assert_eq!(analysis.packets_lost, outcome.manifest.packets_sent);

    let (again, _, _) = zero_record_run();
    assert_eq!(
        format!("{:?}", again.manifest),
        format!("{:?}", outcome.manifest),
        "same seed must give an identical manifest"
    );
}

/// The wide-area fetch's control host: both directions 50 ms one way (a
/// 100 ms RTT) with 5 % uniform loss. The probe link stays clean.
const WIDE_RTT: Duration = Duration::from_millis(100);

/// A control client at `bind` whose first wait covers the 100 ms RTT.
fn wide_area_client(provider: &Provider, bind: &str) -> ControlClient {
    let mut cfg = ControlConfig::new(addr(RECV));
    cfg.provider = provider.clone();
    cfg.bind = Some(addr(bind));
    cfg.retry_base = Duration::from_millis(150);
    ControlClient::connect(cfg, None).unwrap()
}

struct WideAreaFetch {
    total_chunks: u32,
    /// Wire bytes of the windowed `fetch_report`'s records.
    windowed: Vec<Vec<u8>>,
    /// Wire bytes of the same report fetched one `count = 1` request
    /// at a time.
    by_hand: Vec<Vec<u8>>,
    /// Wire bytes of the receiver's own log of the session.
    server: Vec<Vec<u8>>,
    /// Virtual time of each fetch, FIN included.
    windowed_time: Duration,
    by_hand_time: Duration,
}

/// A paper-scale report (60 000 slots at p = 0.3, two single-packet
/// probes per experiment: about 36 000 records, 1 100 chunks) fetched
/// over 100 ms RTT control links losing 5 % each way: first by hand
/// with `count = 1` requests, then by `fetch_report`.
fn wide_area_fetch(seed: u64) -> WideAreaFetch {
    const HAND_SRC: &str = "10.0.0.3:7001";
    let net = FaultNet::new(seed);
    let lossy = LinkFaults {
        latency: WIDE_RTT / 2,
        ..LinkFaults::uniform_loss(0.05)
    };
    for host in [CTL_SRC, HAND_SRC] {
        net.set_faults(addr(host), addr(RECV), lossy.clone());
        net.set_faults(addr(RECV), addr(host), lossy.clone());
    }
    let provider = Provider::Fault(net.clone());
    let clock = provider.clock();
    let metrics = Arc::new(Registry::new("faultnet-wide-area"));
    let server = start_server(ServerConfig {
        provider: provider.clone(),
        metrics: Some(metrics.clone()),
        ..ServerConfig::any(addr(RECV), 4)
    })
    .unwrap();
    let params = SessionParams {
        n_slots: 60_000,
        slot_ns: 5_000_000,
        probe_packets: 1,
        packet_bytes: 64,
        p: 0.3,
        improved: false,
    };
    let client = wide_area_client(&provider, CTL_SRC);
    client.handshake(SESSION, params).unwrap();

    let probes = net.bind(addr(PROBE_SRC)).unwrap();
    let mut pkt = [0u8; 64];
    let mut sched = ExperimentScheduler::new(params.p, params.improved, seeded(seed, "wide-area"));
    let mut seq = 0;
    for e in sched.take_run(params.n_slots) {
        for slot in e.slots() {
            ProbeHeader {
                session: SESSION,
                experiment: e.id,
                slot,
                seq,
                send_ns: 0,
                idx: 0,
                probe_len: 1,
            }
            .encode_into(&mut pkt);
            probes.send_to(&pkt, addr(RECV)).unwrap();
            seq += 1;
        }
    }

    // By hand: FIN, then one chunk per request, each retried on the
    // control plane's backoff like any request.
    let hand = wide_area_client(&provider, HAND_SRC);
    let started = clock.now();
    let fin = ControlMessage::Fin {
        session: SESSION,
        probes_sent: seq,
        packets_sent: seq,
    };
    let total_chunks = hand
        .request("FIN", &fin, |msg| match msg {
            ControlMessage::FinAck { total_chunks, .. } => Some(total_chunks),
            _ => None,
        })
        .unwrap();
    let mut by_hand = Vec::new();
    for want in 0..total_chunks {
        let req = ControlMessage::ReportRequest {
            session: SESSION,
            chunk: want,
            count: 1,
        };
        by_hand.extend(
            hand.request("report chunk", &req, |msg| match msg {
                ControlMessage::ReportChunk { chunk, records, .. } if chunk == want => {
                    Some(records)
                }
                _ => None,
            })
            .unwrap(),
        );
    }
    let by_hand_time = clock.now() - started;

    let started = clock.now();
    let (_, windowed) = client.fetch_report(SESSION, seq, seq).unwrap();
    let windowed_time = clock.now() - started;
    assert!(
        completes_within(&metrics, &clock, Duration::from_secs(5)),
        "the closing ReportAck never landed"
    );
    let report = server.stop();
    let outcome = report
        .sessions
        .iter()
        .find(|o| o.session == SESSION)
        .expect("server recorded the session");
    assert_eq!(outcome.end, SessionEnd::Completed);
    WideAreaFetch {
        total_chunks,
        windowed: record_bytes(&windowed),
        by_hand: record_bytes(&by_hand),
        server: record_bytes(&outcome.log().to_records()),
        windowed_time,
        by_hand_time,
    }
}

/// Windowed report transfer at wide-area latency: a 1 100-chunk report
/// over 100 ms RTT control links with 5 % loss each way arrives in
/// under 4 RTTs per window of [`REPORT_WINDOW_CHUNKS`] chunks, where a
/// chunk-at-a-time fetch needs at least one RTT per chunk. The records
/// are the receiver's own, byte for byte, and the same as the
/// chunk-at-a-time fetch's; a same-seed rerun is byte-identical.
#[test]
fn windowed_fetch_of_a_paper_scale_report_over_a_lossy_wide_area_link() {
    let a = wide_area_fetch(25);
    assert!(
        (1_000..1_250).contains(&a.total_chunks),
        "{} chunks",
        a.total_chunks
    );
    let windows = a.total_chunks.div_ceil(REPORT_WINDOW_CHUNKS);
    assert!(
        a.windowed_time < WIDE_RTT * (4 * windows),
        "windowed fetch took {:?} for {windows} windows",
        a.windowed_time
    );
    assert!(
        a.by_hand_time >= WIDE_RTT * a.total_chunks,
        "a chunk-at-a-time fetch took {:?}",
        a.by_hand_time
    );
    assert_eq!(a.windowed.len(), a.total_chunks as usize);
    assert!(
        a.windowed == a.server,
        "fetched records differ from the receiver's log"
    );
    assert!(
        a.windowed == a.by_hand,
        "windowed and chunk-at-a-time fetches differ"
    );

    let b = wide_area_fetch(25);
    assert!(
        a.windowed == b.windowed,
        "same seed must give identical records"
    );
    assert_eq!(
        a.windowed_time, b.windowed_time,
        "same seed, same fetch time"
    );
}
