//! Multi-session receiver tests: one server process serving many
//! concurrent sender sessions over loopback.
//!
//! The stress test is the acceptance gate for the session registry:
//! eight senders with distinct sessions, schedules, and run lengths all
//! talk to the same receiver socket; every fetched report must contain
//! exactly its own probes (no cross-session contamination), and sessions
//! completing at different times must not disturb each other or the
//! serve loop. The smaller tests pin the registry edges: capacity
//! rejection, idle reaping freeing capacity, and unknown-session probes.

use badabing_core::config::BadabingConfig;
use badabing_live::control::{ControlClient, ControlConfig, ControlError};
use badabing_live::receiver::{start_server, ServerConfig, SessionEnd};
use badabing_live::sender::{run_sender, SenderConfig};
use badabing_metrics::Registry;
use badabing_stats::rng::seeded;
use badabing_wire::control::{RejectReason, SessionParams};
use badabing_wire::ProbeHeader;
use std::collections::BTreeSet;
use std::net::{SocketAddr, UdpSocket};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn local0() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

fn fast_tool() -> BadabingConfig {
    BadabingConfig {
        slot_secs: 0.005,
        ..BadabingConfig::paper_default(0.5)
    }
}

fn params() -> SessionParams {
    SessionParams {
        n_slots: 100,
        slot_ns: 5_000_000,
        probe_packets: 3,
        packet_bytes: 600,
        p: 0.3,
        improved: false,
    }
}

/// Where CI picks up the receiver metrics artifact.
const METRICS_ARTIFACT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/metrics/live_multisession.json"
);

/// Wait (at most 5 s) until `done` holds; the caller's assertions
/// report a timeout.
fn wait_for(done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn eight_concurrent_senders_share_one_receiver() {
    const SENDERS: u32 = 8;
    let metrics = Arc::new(Registry::new("live_multisession"));
    let server = start_server(ServerConfig {
        idle_timeout: Some(Duration::from_secs(10)),
        metrics: Some(metrics.clone()),
        ..ServerConfig::any(local0(), 16)
    })
    .unwrap();
    let target = server.local_addr();

    // Eight sessions with distinct seeds (distinct schedules) and
    // staggered run lengths, so completions land at different times
    // while other sessions are still probing.
    let senders: Vec<_> = (0..SENDERS)
        .map(|i| {
            let session = 101 + i;
            let n_slots = 240 + 40 * u64::from(i); // 1.2 s … 2.6 s
            let tool = fast_tool();
            let mut control = ControlConfig::new(target);
            control.drain = Duration::from_millis(100);
            let cfg = SenderConfig {
                tool,
                control: Some(control),
                ..SenderConfig::new(tool, n_slots, target, session)
            };
            std::thread::spawn(move || run_sender(cfg, seeded(u64::from(i), "multi")))
        })
        .collect();

    let outcomes: Vec<_> = senders
        .into_iter()
        .map(|t| t.join().unwrap().unwrap())
        .collect();

    // Completing all eight sessions must not have terminated the server.
    assert!(
        !server.is_finished(),
        "an any-policy server must outlive session completions"
    );

    for outcome in &outcomes {
        let session = outcome.manifest.session;
        assert!(outcome.completed, "session {session} did not complete");
        assert_eq!(
            outcome.diagnostics,
            Vec::<String>::new(),
            "session {session}"
        );
        let fetched = outcome
            .receiver_log
            .as_ref()
            .unwrap_or_else(|| panic!("session {session} fetched no report"));

        // No cross-session contamination: the fetched report's key set
        // is exactly this sender's manifest (clean loopback loses
        // nothing, so the sets must match bidirectionally), and the
        // record count matches the manifest's probe count.
        let sent_keys: BTreeSet<(u64, u64)> = outcome
            .manifest
            .sent
            .iter()
            .map(|p| (p.experiment, p.slot))
            .collect();
        let fetched_keys: BTreeSet<(u64, u64)> = fetched.arrivals.keys().copied().collect();
        assert_eq!(
            fetched_keys, sent_keys,
            "session {session}: fetched records differ from its own manifest"
        );
        assert_eq!(fetched.arrivals.len(), outcome.manifest.sent.len());
        assert_eq!(
            fetched.packets, outcome.manifest.packets_sent,
            "session {session}: packet accounting disagrees"
        );
        assert_eq!(fetched.duplicates, 0);
    }

    // Distinct schedules actually exercised multiplexing: at least two
    // senders must differ in what they sent.
    let distinct: BTreeSet<usize> = outcomes.iter().map(|o| o.manifest.sent.len()).collect();
    assert!(distinct.len() > 1, "staggered runs should differ in size");

    // The closing ReportAck is fire-and-forget on the sender side, so
    // the last session's completion can still be in flight when its
    // sender returns; give the server a bounded moment to process it.
    wait_for(|| metrics.counter("sessions_completed").get() == u64::from(SENDERS));

    let report = server.stop();
    assert_eq!(report.sessions.len(), SENDERS as usize);
    assert!(report
        .sessions
        .iter()
        .all(|o| o.end == SessionEnd::Completed));
    let ids: BTreeSet<u32> = report.sessions.iter().map(|o| o.session).collect();
    assert_eq!(ids, (101..101 + SENDERS).collect::<BTreeSet<u32>>());
    assert_eq!(report.rejected, 0, "no stray traffic in this test");
    assert_eq!(report.syns_rejected, 0);
    assert_eq!(metrics.counter("sessions_opened").get(), u64::from(SENDERS));
    assert_eq!(
        metrics.counter("sessions_completed").get(),
        u64::from(SENDERS)
    );
    // The server-wide counter carries the senders' accounting.
    let sent: u64 = outcomes.iter().map(|o| o.manifest.packets_sent).sum();
    assert_eq!(metrics.counter("packets_accepted").get(), sent);

    // Publish the receiver metrics for the CI artifact.
    metrics
        .save(Path::new(METRICS_ARTIFACT))
        .expect("write metrics artifact");
}

#[test]
fn syns_past_capacity_are_rejected_fast() {
    let server = start_server(ServerConfig::any(local0(), 1)).unwrap();
    let addr = server.local_addr();

    let first = ControlClient::connect(ControlConfig::new(addr), None).unwrap();
    first
        .handshake(1, params())
        .expect("first session admitted");

    // The registry is full: the second SYN must fail fast with an
    // explicit capacity NACK, not burn the whole retry budget.
    let second = ControlClient::connect(ControlConfig::new(addr), None).unwrap();
    let started = Instant::now();
    let err = second.handshake(2, params()).unwrap_err();
    assert!(
        matches!(
            err,
            ControlError::Rejected {
                reason: RejectReason::Capacity
            }
        ),
        "{err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "NACK must short-circuit the backoff schedule"
    );

    // A SYN retransmit for the *admitted* session stays idempotent.
    first.handshake(1, params()).expect("re-SYN is re-acked");

    let report = server.stop();
    assert_eq!(report.syns_rejected, 1);
    assert_eq!(report.sessions.len(), 1);
    assert_eq!(report.sessions[0].session, 1);
    assert_eq!(report.sessions[0].end, SessionEnd::Stopped);
}

#[test]
fn idle_reaping_frees_capacity_without_killing_the_server() {
    let metrics = Arc::new(Registry::new("idle-reap"));
    let server = start_server(ServerConfig {
        idle_timeout: Some(Duration::from_millis(200)),
        metrics: Some(metrics.clone()),
        ..ServerConfig::any(local0(), 1)
    })
    .unwrap();
    let addr = server.local_addr();

    let first = ControlClient::connect(ControlConfig::new(addr), None).unwrap();
    first
        .handshake(7, params())
        .expect("first session admitted");

    // Go silent past the idle timeout: the session is reaped, the
    // server keeps running, and its capacity slot opens up.
    let reaped = metrics.counter("sessions_idle_reaped");
    wait_for(|| reaped.get() == 1);
    assert_eq!(reaped.get(), 1, "idle session never reaped");
    assert!(
        !server.is_finished(),
        "reaping a session must not stop the serve loop"
    );

    let second = ControlClient::connect(ControlConfig::new(addr), None).unwrap();
    second
        .handshake(8, params())
        .expect("capacity freed by the idle reap");

    let report = server.stop();
    assert_eq!(report.sessions.len(), 2);
    let by_id = |id: u32| {
        report
            .sessions
            .iter()
            .find(|o| o.session == id)
            .unwrap_or_else(|| panic!("session {id} missing from report"))
    };
    assert_eq!(by_id(7).end, SessionEnd::IdleTimeout);
    assert_eq!(by_id(8).end, SessionEnd::Stopped);
}

#[test]
fn probes_for_unregistered_sessions_are_rejected() {
    let metrics = Arc::new(Registry::new("unregistered"));
    let server = start_server(ServerConfig {
        metrics: Some(metrics.clone()),
        ..ServerConfig::any(local0(), 4)
    })
    .unwrap();
    let addr = server.local_addr();

    let client = ControlClient::connect(ControlConfig::new(addr), None).unwrap();
    client.handshake(42, params()).expect("session admitted");

    let sock = UdpSocket::bind(local0()).unwrap();
    let probe = |session: u32, seq: u64| ProbeHeader {
        session,
        experiment: 0,
        slot: seq,
        seq,
        send_ns: 0,
        idx: 0,
        probe_len: 1,
    };
    // Registered session: accepted. Unregistered: rejected — under the
    // any policy, probes do not open sessions (the SYN is the only
    // door in), so a stray or stale sender cannot resurrect state.
    sock.send_to(&probe(42, 0).encode(64), addr).unwrap();
    sock.send_to(&probe(42, 1).encode(64), addr).unwrap();
    sock.send_to(&probe(999, 0).encode(64), addr).unwrap();
    let accepted = metrics.counter("packets_accepted");
    let rejected = metrics.counter("datagrams_rejected");
    wait_for(|| accepted.get() == 2 && rejected.get() == 1);

    let report = server.stop();
    assert_eq!(report.rejected, 1, "unknown-session probe rejected");
    assert_eq!(report.sessions.len(), 1);
    assert_eq!(report.sessions[0].session, 42);
    assert_eq!(report.sessions[0].summary.packets, 2);
}
