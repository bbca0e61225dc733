//! End-to-end live runs on loopback: sender → (emulator | impairment
//! proxy) → receiver, analyzed through the shared `badabing-core`
//! pipeline, plus the two-process control-plane scenarios (handshake
//! under synthetic control loss, receiver death mid-run).
//!
//! These tests exercise real sockets and real timers, so the assertions
//! are deliberately coarse (presence of loss, sane magnitudes) rather
//! than exact estimates — the precise statistical checks live in the
//! deterministic simulator tests.

use badabing_core::config::BadabingConfig;
use badabing_live::analyze::analyze_run;
use badabing_live::control::ControlConfig;
use badabing_live::emulator::{Emulator, EmulatorConfig};
use badabing_live::receiver::{start_server, ServerConfig, ServerHandle, SessionEnd};
use badabing_live::sender::{run_sender, SenderConfig};
use badabing_metrics::Registry;
use badabing_stats::rng::seeded;
use rand::RngExt;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn local0() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

/// A session server on loopback with its counters.
fn server(idle_timeout: Option<Duration>) -> (ServerHandle, Arc<Registry>) {
    let metrics = Arc::new(Registry::new("loopback"));
    let handle = start_server(ServerConfig {
        idle_timeout,
        metrics: Some(metrics.clone()),
        ..ServerConfig::any(local0(), 4)
    })
    .unwrap();
    (handle, metrics)
}

/// Whether the server completes a session (the sender's closing
/// `ReportAck`) within `limit` from now.
fn completes_within(metrics: &Registry, limit: Duration) -> bool {
    let started = Instant::now();
    while metrics.counter("sessions_completed").get() == 0 {
        if started.elapsed() > limit {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

fn fast_tool() -> BadabingConfig {
    BadabingConfig {
        slot_secs: 0.005,
        ..BadabingConfig::paper_default(0.5)
    }
}

/// A bidirectional UDP proxy that drops each datagram (either direction)
/// with probability `loss`. The first peer to send through it is treated
/// as the client; datagrams from anyone else flow back to that client.
/// The thread leaks (it polls on a read timeout) — fine for a test
/// process.
fn lossy_proxy(target: SocketAddr, loss: f64, seed: u64) -> SocketAddr {
    let sock = UdpSocket::bind(local0()).unwrap();
    let addr = sock.local_addr().unwrap();
    sock.set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    std::thread::spawn(move || {
        let mut rng = seeded(seed, "lossy-proxy");
        let mut client: Option<SocketAddr> = None;
        let mut buf = [0u8; 4096];
        loop {
            let Ok((len, src)) = sock.recv_from(&mut buf) else {
                continue;
            };
            if rng.random_bool(loss) {
                continue;
            }
            if src == target {
                if let Some(c) = client {
                    let _ = sock.send_to(&buf[..len], c);
                }
            } else {
                client = Some(src);
                let _ = sock.send_to(&buf[..len], target);
            }
        }
    });
    addr
}

#[test]
fn clean_path_reports_no_congestion() {
    let session = 0xA1;
    let (receiver, _) = server(None);
    let tool = fast_tool();
    let cfg = SenderConfig {
        tool,
        control: Some(ControlConfig::new(receiver.local_addr())),
        ..SenderConfig::new(tool, 600 /* 3 s */, receiver.local_addr(), session)
    };
    let outcome = run_sender(cfg, seeded(1, "clean")).unwrap();
    assert!(outcome.completed);
    let report = receiver.stop();
    assert_eq!(report.rejected, 0);
    let log = report.log_for(session).expect("session log");
    assert_eq!(log.rejected, 0);
    assert_eq!(log.duplicates, 0);
    let analysis = analyze_run(&tool, &outcome.manifest, log);
    assert_eq!(
        analysis.packets_lost, 0,
        "loopback without emulator loses nothing"
    );
    assert_eq!(analysis.frequency(), Some(0.0));
    assert!(analysis.validation.passes(0.25));
    assert!(
        analysis.log.len() > 200,
        "experiments: {}",
        analysis.log.len()
    );
}

#[test]
fn emulated_bottleneck_produces_loss_episodes() {
    let session = 0xB2;
    let (receiver, _) = server(None);
    let emu_cfg = EmulatorConfig {
        rate_bps: 10_000_000,
        buffer_bytes: 125_000,      // 100 ms at 10 Mb/s
        episode_mean_gap_secs: 1.0, // dense episodes for a short test
        episode_loss_secs: 0.120,
        burst_factor: 4.0,
        ..EmulatorConfig::loopback_default(local0(), receiver.local_addr())
    };
    let emulator = Emulator::start(emu_cfg, seeded(2, "emu")).unwrap();
    let tool = fast_tool();
    // Probes cross the emulator; the control plane talks to the
    // receiver directly.
    let cfg = SenderConfig {
        tool,
        control: Some(ControlConfig::new(receiver.local_addr())),
        ..SenderConfig::new(tool, 1_600 /* 8 s */, emulator.local_addr(), session)
    };
    let outcome = run_sender(cfg, seeded(3, "probe")).unwrap();
    let stats = emulator.stop();
    let report = receiver.stop();
    assert!(stats.episodes >= 2, "scripted episodes: {}", stats.episodes);
    assert!(stats.dropped > 0, "emulator dropped nothing");

    let log = report.log_for(session).expect("session log");
    let analysis = analyze_run(&tool, &outcome.manifest, log);
    assert!(analysis.packets_lost > 0);
    let f = analysis.frequency().expect("nonempty run");
    assert!(f > 0.0, "estimated frequency should be positive");
    // Sanity ceiling: episodes cover well under half the run.
    assert!(f < 0.5, "estimated frequency {f} implausibly high");
    if let Some(d) = analysis.duration_secs() {
        assert!(d > 0.0 && d < 1.0, "duration estimate {d} out of range");
    }
}

#[test]
fn control_plane_runs_the_full_session() {
    // The two-process workflow end to end: handshake, heartbeats, FIN,
    // chunked report retrieval. The receiver completes the session on
    // its own once the sender acknowledges the full report — no
    // out-of-band coordination.
    let session = 0xC3;
    let (receiver, metrics) = server(Some(Duration::from_secs(10)));
    let tool = fast_tool();
    let mut control = ControlConfig::new(receiver.local_addr());
    control.drain = Duration::from_millis(100);
    let cfg = SenderConfig {
        tool,
        control: Some(control),
        ..SenderConfig::new(tool, 400 /* 2 s */, receiver.local_addr(), session)
    };
    let outcome = run_sender(cfg, seeded(4, "ctl")).unwrap();
    assert!(outcome.completed);
    assert_eq!(outcome.diagnostics, Vec::<String>::new());
    let fetched = outcome.receiver_log.expect("control plane fetches the log");
    assert!(fetched.handshake.is_none(), "summary carries no params");

    // The session completes promptly, well before the 10 s idle
    // watchdog.
    assert!(
        completes_within(&metrics, Duration::from_secs(5)),
        "session should complete via ReportAck, not the watchdog"
    );
    let report = receiver.stop();
    assert_eq!(report.sessions[0].end, SessionEnd::Completed);
    let local = &report.sessions[0].log;
    assert_eq!(local.handshake.map(|p| p.n_slots), Some(400));

    // The fetched report and the receiver's own log agree.
    assert_eq!(fetched.packets, local.packets);
    assert_eq!(fetched.duplicates, local.duplicates);
    assert_eq!(fetched.arrivals.len(), local.arrivals.len());
    for (key, rec) in &local.arrivals {
        let f = fetched
            .arrivals
            .get(key)
            .expect("record present in fetched report");
        assert_eq!(f.received, rec.received);
    }

    // And analysis off the *fetched* log sees the clean path.
    let analysis = analyze_run(&tool, &outcome.manifest, &fetched);
    assert_eq!(analysis.packets_lost, 0);
    assert_eq!(analysis.frequency(), Some(0.0));
}

#[test]
fn handshake_survives_heavy_control_loss() {
    // 30% loss in each direction on the control channel (probes run
    // clean). Per-request failure odds with 12 attempts are ~1e-4, so
    // backoff retries must carry the handshake, FIN, and every report
    // chunk through. Heartbeats cross the same lossy path — give them a
    // deep miss budget so liveness noise cannot abort the run.
    let session = 0xD4;
    let (receiver, _) = server(Some(Duration::from_secs(10)));
    let proxy = lossy_proxy(receiver.local_addr(), 0.30, 77);
    let tool = fast_tool();
    let mut control = ControlConfig::new(proxy);
    control.heartbeat_misses = 10;
    control.drain = Duration::from_millis(100);
    let cfg = SenderConfig {
        tool,
        control: Some(control),
        ..SenderConfig::new(tool, 400 /* 2 s */, receiver.local_addr(), session)
    };
    let outcome = run_sender(cfg, seeded(5, "lossy-ctl")).unwrap();
    assert!(outcome.completed, "diagnostics: {:?}", outcome.diagnostics);
    let fetched = outcome
        .receiver_log
        .expect("report retrieval survives 30% loss");
    assert!(fetched.packets > 0);
    let analysis = analyze_run(&tool, &outcome.manifest, &fetched);
    assert_eq!(analysis.packets_lost, 0, "probe path was clean");
    let _ = receiver.stop();
}

#[test]
fn receiver_death_mid_run_degrades_to_partial_manifest() {
    let session = 0xE5;
    let (receiver, metrics) = server(None);
    let target = receiver.local_addr();
    let tool = fast_tool();
    let mut control = ControlConfig::new(target);
    control.heartbeat_interval = Duration::from_millis(100);
    control.heartbeat_misses = 3;
    let cfg = SenderConfig {
        tool,
        control: Some(control),
        ..SenderConfig::new(tool, 4_000 /* nominally 20 s */, target, session)
    };
    let sender = std::thread::spawn(move || run_sender(cfg, seeded(6, "death")));

    // Let the run establish itself (the receiver has accepted a probe,
    // so the handshake is done), then kill the receiver.
    let accepted = metrics.counter("packets_accepted");
    let deadline = Instant::now() + Duration::from_secs(5);
    while accepted.get() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(accepted.get() >= 1, "no probe reached the receiver in 5 s");
    let _ = receiver.stop();
    let killed_at = Instant::now();

    let outcome = sender.join().unwrap().unwrap();
    let detected_in = killed_at.elapsed();
    // Watchdog budget: 3 misses × 100 ms heartbeats plus scheduling
    // slack — nowhere near the 19 s of schedule that remained.
    assert!(
        detected_in < Duration::from_secs(5),
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
}

#[test]
fn zero_record_session_completes_cleanly() {
    // Every probe vanishes (sent into a socket nobody reads); only the
    // control plane reaches the receiver. FIN → FinAck(total_chunks = 0)
    // → closing ReportAck must complete the session with an empty record
    // set — the `chunk >= total_chunks` completion edge at zero chunks —
    // rather than wedging the receiver until its watchdog.
    let session = 0xB8;
    let (receiver, metrics) = server(Some(Duration::from_secs(10)));
    let blackhole = UdpSocket::bind(local0()).unwrap(); // bound, never read
    let tool = fast_tool();
    let mut control = ControlConfig::new(receiver.local_addr());
    control.drain = Duration::from_millis(100);
    let cfg = SenderConfig {
        tool,
        control: Some(control),
        ..SenderConfig::new(
            tool,
            200, /* 1 s */
            blackhole.local_addr().unwrap(),
            session,
        )
    };
    let outcome = run_sender(cfg, seeded(9, "blackhole")).unwrap();
    assert!(outcome.completed, "diagnostics: {:?}", outcome.diagnostics);
    let fetched = outcome
        .receiver_log
        .expect("an empty report must still be retrievable");
    assert_eq!(fetched.packets, 0);
    assert!(fetched.arrivals.is_empty(), "no probe ever arrived");

    assert!(
        completes_within(&metrics, Duration::from_secs(5)),
        "session must complete via the closing ReportAck, not the watchdog"
    );
    let report = receiver.stop();
    assert_eq!(report.sessions[0].end, SessionEnd::Completed);
    assert!(report.sessions[0].log.arrivals.is_empty());

    // Loss accounting off the manifest alone: everything sent was lost.
    let analysis = analyze_run(&tool, &outcome.manifest, &fetched);
    assert_eq!(analysis.packets_lost, outcome.manifest.packets_sent);
}
