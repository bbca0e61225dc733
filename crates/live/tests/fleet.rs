//! Fleet-era receiver tests: the memory budgets with their
//! admission/eviction policy, and the control-plane lifecycle
//! regressions that the fleet rewrite must pin:
//!
//! * a slow chunked report fetch must keep its session alive through a
//!   short idle timeout (every control message refreshes the idle
//!   deadline — a reap mid-fetch strands the sender);
//! * a ranged `ReportRequest` is answered with every chunk of its
//!   clipped range, byte-identical on a re-request, and an out-of-range
//!   or pre-FIN one with exactly one empty chunk, never silence;
//! * under global-budget pressure, new sessions are either refused with
//!   [`RejectReason::Budget`] or admitted by evicting the longest-idle
//!   session, whose sender then sees [`RejectReason::Evicted`] on its
//!   next control exchange;
//! * one drain thread and four (each owning its own virtual lane and
//!   registry shard) report byte-identical fleets, a mid-run
//!   fleet-scope estimate across four threads is exactly the merge of
//!   the per-session estimates, and a sender that rebinds its probe
//!   port still reaches only thread `session % 4`.

use badabing_core::config::BadabingConfig;
use badabing_core::estimator::Estimates;
use badabing_live::control::{ControlClient, ControlConfig, ControlError};
use badabing_live::faultnet::{FaultNet, LinkFaults};
use badabing_live::provider::Provider;
use badabing_live::receiver::{
    projected_session_bytes, start_server, PressurePolicy, ServerConfig, SessionEnd,
    DEFAULT_SESSION_BUDGET_BYTES,
};
use badabing_live::sender::{run_sender, SenderConfig};
use badabing_metrics::Registry;
use badabing_stats::rng::seeded;
use badabing_wire::control::{
    chunk_count, ControlMessage, EstimateScope, RejectReason, SessionParams, RECORDS_PER_CHUNK,
    REPORT_WINDOW_CHUNKS,
};
use badabing_wire::ProbeHeader;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn local0() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

fn addr(s: &str) -> SocketAddr {
    s.parse().unwrap()
}

fn fast_tool() -> BadabingConfig {
    BadabingConfig {
        slot_secs: 0.005,
        ..BadabingConfig::paper_default(0.5)
    }
}

/// Announces a run big enough that its projected reservation is
/// several megabytes, so the pressure tests can build a global budget
/// around it ([`pressure_budget`]).
fn big_params() -> SessionParams {
    SessionParams {
        n_slots: 100_000,
        slot_ns: 5_000_000,
        probe_packets: 3,
        packet_bytes: 600,
        p: 0.3,
        improved: true,
    }
}

/// A global budget that holds one [`big_params`] session and not two:
/// 1.5× the projected admission charge, derived from the receiver's own
/// byte formula so a layout change cannot silently break the premise.
fn pressure_budget() -> usize {
    let one = projected_session_bytes(&big_params(), DEFAULT_SESSION_BUDGET_BYTES);
    let budget = one + one / 2;
    assert!(
        one > 1 << 20 && one <= budget && 2 * one > budget,
        "one session ({one} B) must fit {budget} B and two must not"
    );
    budget
}

/// Satellite regression: a chunked report fetch over slow links must
/// not lose its session to a short idle watchdog mid-fetch. Each link
/// adds 50 ms one way, the idle timeout is 250 ms, and the report spans
/// many chunks — the session only survives because *every* control
/// message (FIN retransmits, each ReportRequest, the closing acks)
/// refreshes `last_activity`. A receiver that only refreshed on probes
/// or heartbeats would reap the session between chunks and strand the
/// sender.
#[test]
fn chunked_fetch_survives_short_idle_timeout_on_slow_links() {
    const RECV: &str = "10.0.0.1:9000";
    const PROBE_SRC: &str = "10.0.0.2:7000";
    const CTL_SRC: &str = "10.0.0.2:7001";

    let net = FaultNet::new(77);
    // Slow but reliable control links: every exchange costs a 100 ms
    // round trip against a 250 ms idle timeout.
    let slow = LinkFaults {
        latency: Duration::from_millis(50),
        ..LinkFaults::default()
    };
    net.set_faults(addr(CTL_SRC), addr(RECV), slow.clone());
    net.set_faults(addr(RECV), addr(CTL_SRC), slow);
    let provider = Provider::Fault(net.clone());

    let metrics = Arc::new(Registry::new("fleet-slow-fetch"));
    let server = start_server(ServerConfig {
        provider: provider.clone(),
        idle_timeout: Some(Duration::from_millis(250)),
        metrics: Some(metrics.clone()),
        ..ServerConfig::any(addr(RECV), 4)
    })
    .unwrap();

    let tool = fast_tool();
    let mut control = ControlConfig::new(addr(RECV));
    control.bind = Some(addr(CTL_SRC));
    control.drain = Duration::from_millis(100);
    // One retry period must cover the 100 ms control RTT, or every
    // exchange needlessly retransmits before its reply can arrive.
    control.retry_base = Duration::from_millis(150);
    let cfg = SenderConfig {
        tool,
        bind: addr(PROBE_SRC),
        control: Some(control),
        provider,
        ..SenderConfig::new(tool, 400, addr(RECV), 0xF1)
    };
    let outcome = run_sender(cfg, seeded(77, "slow-fetch")).unwrap();

    assert!(
        outcome.completed,
        "session reaped mid-fetch: {:?}",
        outcome.diagnostics
    );
    let log = outcome.receiver_log.expect("report fetched");
    assert!(
        log.arrivals.len() > 64,
        "report too small to need multiple chunks: {} records",
        log.arrivals.len()
    );

    // The closing ReportAck is fire-and-forget and still rides the
    // 50 ms virtual link; wait for the server to mark the session
    // complete before tearing it down. The wait sleeps in virtual time,
    // so the teardown instant, like the rest of the test, replays from
    // the seed.
    let completed = metrics.counter("sessions_completed");
    wait_virtual(&net, || completed.get() >= 1);

    let report = server.stop();
    assert_eq!(report.sessions.len(), 1);
    assert_eq!(
        report.sessions[0].end,
        SessionEnd::Completed,
        "the fetch's own control traffic must keep the session alive"
    );
}

/// Sleep in 5 ms steps of virtual time until `done` holds or 5 s of
/// virtual time have passed.
fn wait_virtual(net: &Arc<FaultNet>, done: impl Fn() -> bool) {
    let deadline = net.now() + Duration::from_secs(5);
    while !done() && net.now() < deadline {
        net.sleep_until(net.now() + Duration::from_millis(5));
    }
}

/// One `ReportChunk` reply, decoded: (chunk, total_chunks, records).
type Chunk = (u32, u32, usize);

fn decode_chunk(bytes: &[u8]) -> Chunk {
    match ControlMessage::decode(bytes).expect("decodable reply") {
        ControlMessage::ReportChunk {
            chunk,
            total_chunks,
            records,
            ..
        } => (chunk, total_chunks, records.len()),
        other => panic!("unexpected reply {other:?}"),
    }
}

/// Satellite regression: a `ReportRequest` from a live session always
/// gets a deterministic reply. Before the fix the receiver answered
/// out-of-range chunk indices — and any request before FIN — with
/// silence, so the sender burned its entire retry/backoff schedule per
/// chunk before learning anything. A ranged request is answered with
/// every chunk of its range clipped at `total_chunks` and at
/// [`REPORT_WINDOW_CHUNKS`], byte-identical on a re-request; a range
/// that starts past the end, and any request before FIN, with exactly
/// one empty chunk. Runs on FaultNet, so "every reply" is every
/// datagram that arrives before 50 ms of virtual silence.
#[test]
fn report_requests_never_go_unanswered() {
    const RECV: &str = "10.0.0.1:9000";
    const PROBE_SRC: &str = "10.0.0.2:7000";
    const CTL_SRC: &str = "10.0.0.2:7001";
    const RAW_SRC: &str = "10.0.0.2:7002";
    // One record per single-packet probe: 33 full chunks and a 5-record
    // tail, so the report is longer than one window.
    const RECORDS: u64 = 33 * RECORDS_PER_CHUNK as u64 + 5;

    let net = FaultNet::new(0xE3);
    let provider = Provider::Fault(net.clone());
    let server = start_server(ServerConfig {
        provider: provider.clone(),
        ..ServerConfig::any(addr(RECV), 4)
    })
    .unwrap();
    let session = 0xE3;
    let mut cfg = ControlConfig::new(addr(RECV));
    cfg.provider = provider;
    cfg.bind = Some(addr(CTL_SRC));
    let client = ControlClient::connect(cfg, None).unwrap();
    client
        .handshake(
            session,
            SessionParams {
                n_slots: 2 * RECORDS,
                probe_packets: 1,
                ..big_params()
            },
        )
        .unwrap();

    let probes = net.bind(addr(PROBE_SRC)).unwrap();
    let mut pkt = [0u8; 64];
    for i in 0..RECORDS {
        ProbeHeader {
            session,
            experiment: i / 2,
            slot: i,
            seq: i,
            send_ns: 0,
            idx: 0,
            probe_len: 1,
        }
        .encode_into(&mut pkt);
        probes.send_to(&pkt, addr(RECV)).unwrap();
    }

    let sock = net.bind(addr(RAW_SRC)).unwrap();
    sock.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let exchange = |msg: ControlMessage| -> Vec<Vec<u8>> {
        sock.send_to(&msg.encode(), addr(RECV)).unwrap();
        let mut replies = Vec::new();
        while let Ok(d) = sock.recv_msg() {
            replies.push(d.data);
        }
        replies
    };
    let request = |chunk: u32, count: u16| ControlMessage::ReportRequest {
        session,
        chunk,
        count,
    };

    // Before any FIN there is no snapshot: the reply is one empty chunk
    // with `total_chunks: 0`, not silence and not one per chunk asked.
    let replies = exchange(request(0, 8));
    assert_eq!(replies.len(), 1, "pre-FIN request gets exactly one reply");
    assert_eq!(decode_chunk(&replies[0]), (0, 0, 0));

    // Finalize.
    let fin = exchange(ControlMessage::Fin {
        session,
        probes_sent: RECORDS,
        packets_sent: RECORDS,
    });
    let total = match ControlMessage::decode(&fin[0]).unwrap() {
        ControlMessage::FinAck { total_chunks, .. } => total_chunks,
        other => panic!("unexpected reply {other:?}"),
    };
    assert_eq!(total, chunk_count(RECORDS as usize));
    assert!(total > REPORT_WINDOW_CHUNKS);

    // Clipped at the window: 40 asked, 32 served, in index order.
    let window = exchange(request(0, 40));
    let served: Vec<Chunk> = window.iter().map(|b| decode_chunk(b)).collect();
    let expected: Vec<Chunk> = (0..REPORT_WINDOW_CHUNKS)
        .map(|c| (c, total, RECORDS_PER_CHUNK))
        .collect();
    assert_eq!(served, expected);
    // A re-request is answered byte for byte the same.
    assert_eq!(exchange(request(0, 40)), window);

    // Clipped at `total_chunks`: the range runs off the end.
    let tail = exchange(request(total - 2, 10));
    let served: Vec<Chunk> = tail.iter().map(|b| decode_chunk(b)).collect();
    assert_eq!(
        served,
        vec![(total - 2, total, RECORDS_PER_CHUNK), (total - 1, total, 5)]
    );
    assert_eq!(exchange(request(total - 2, 10)), tail);
    assert_eq!(exchange(request(total - 1, u16::MAX)).len(), 1);

    // A range that starts past the end (sender bug, corrupted datagram)
    // gets one empty chunk echoing the *true* total.
    let hostile = total + 7;
    let replies = exchange(request(hostile, 3));
    assert_eq!(
        replies.len(),
        1,
        "past-the-end request gets exactly one reply"
    );
    assert_eq!(decode_chunk(&replies[0]), (hostile, total, 0));

    let report = server.stop();
    assert_eq!(report.chunk_nacks, 2, "both oddball requests counted");
}

/// Budget admission, reject policy: once the global budget cannot cover
/// a new session's projected reservation, its SYN fails fast with an
/// explicit `Budget` NACK.
#[test]
fn syns_over_the_global_budget_are_rejected_fast() {
    let metrics = Arc::new(Registry::new("budget-reject"));
    let server = start_server(ServerConfig {
        global_budget_bytes: Some(pressure_budget()),
        on_pressure: PressurePolicy::Reject,
        metrics: Some(metrics.clone()),
        ..ServerConfig::any(local0(), 16)
    })
    .unwrap();
    let target = server.local_addr();

    let first = ControlClient::connect(ControlConfig::new(target), None).unwrap();
    first.handshake(1, big_params()).expect("fits the budget");

    let second = ControlClient::connect(ControlConfig::new(target), None).unwrap();
    let started = Instant::now();
    let err = second.handshake(2, big_params()).unwrap_err();
    assert!(
        matches!(
            err,
            ControlError::Rejected {
                reason: RejectReason::Budget
            }
        ),
        "{err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "budget NACK must short-circuit the backoff schedule"
    );

    let report = server.stop();
    assert_eq!(report.budget_rejects, 1);
    assert_eq!(report.syns_rejected, 1, "budget rejects count as refusals");
    assert_eq!(report.sessions_evicted, 0);
    assert_eq!(report.sessions.len(), 1);
    assert!(report.mem_peak_bytes > 0, "admission settles the charge");
    assert_eq!(metrics.counter("syns_budget_rejected").get(), 1);
}

/// Budget admission, eviction policy: the longest-idle session is
/// evicted to make room, its end is reported as `Evicted`, and its
/// sender's next control exchange fails fast with `Evicted` (served
/// from the tombstone ring) instead of timing out.
#[test]
fn budget_pressure_evicts_the_longest_idle_session() {
    let metrics = Arc::new(Registry::new("budget-evict"));
    let server = start_server(ServerConfig {
        global_budget_bytes: Some(pressure_budget()),
        on_pressure: PressurePolicy::EvictIdle,
        metrics: Some(metrics.clone()),
        ..ServerConfig::any(local0(), 16)
    })
    .unwrap();
    let target = server.local_addr();

    let first = ControlClient::connect(ControlConfig::new(target), None).unwrap();
    first.handshake(11, big_params()).expect("fits the budget");

    // The second SYN cannot fit alongside the first: admission evicts
    // session 11 (the only — hence longest-idle — session) instead of
    // refusing.
    let second = ControlClient::connect(ControlConfig::new(target), None).unwrap();
    second
        .handshake(12, big_params())
        .expect("eviction must make room for the new session");

    // The evicted session's sender is told explicitly on its next
    // exchange — a heartbeat miss first (no ack is coming)…
    assert!(
        !first
            .heartbeat(11, 1, Duration::from_millis(500))
            .expect("heartbeat io"),
        "an evicted session must not be ackable"
    );
    // …and a hard `Rejected { Evicted }` on any requested exchange.
    let started = Instant::now();
    let err = first.fetch_report(11, 0, 0).unwrap_err();
    assert!(
        matches!(
            err,
            ControlError::Rejected {
                reason: RejectReason::Evicted
            }
        ),
        "{err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "eviction NACK must short-circuit the backoff schedule"
    );

    let report = server.stop();
    assert_eq!(report.sessions_evicted, 1);
    assert_eq!(report.budget_rejects, 0, "eviction made room, no refusal");
    let by_id = |id: u32| {
        report
            .sessions
            .iter()
            .find(|o| o.session == id)
            .unwrap_or_else(|| panic!("session {id} missing from report"))
    };
    assert_eq!(by_id(11).end, SessionEnd::Evicted);
    assert_eq!(by_id(12).end, SessionEnd::Stopped);
    assert_eq!(metrics.counter("sessions_evicted").get(), 1);
}

/// Serialize a fetched receiver log to its canonical JSON bytes (the
/// on-disk form, arrivals sorted by probe key).
fn log_bytes(log: &badabing_live::receiver::ReceiverLog, tag: &str) -> Vec<u8> {
    let path =
        std::env::temp_dir().join(format!("badabing-steer-{tag}-{}.json", std::process::id()));
    log.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

/// The three sender hosts of the multi-lane fleet tests.
const FLEET_HOSTS: [&str; 3] = ["10.0.0.2", "10.0.0.3", "10.0.0.4"];

/// Virtual reuseport lanes of the multi-thread fleet tests.
const LANES: u64 = 4;

/// One FaultNet-seeded fleet — three senders on distinct hosts, each
/// behind a lossy/duplicating/jittery probe link — served by
/// `recv_threads` drain threads. Returns each session's report as
/// canonical bytes. Virtual time makes every arrival stamp a pure
/// function of the seed, so the reports must not depend on which drain
/// thread ingested which flow.
fn run_fleet(recv_threads: usize, tag: &str) -> Vec<(u32, Vec<u8>)> {
    const RECV: &str = "10.0.0.1:9000";
    let net = FaultNet::new(4242);

    // Sessions 0xC1..=0xC3 land on three *distinct* lanes (1, 2, 3 of
    // four), so the multi-thread run genuinely exercises several drain
    // threads. The same addresses feed the one-thread run.
    let hosts = FLEET_HOSTS;
    let probe_srcs: Vec<SocketAddr> = hosts
        .iter()
        .map(|host| addr(&format!("{host}:7000")))
        .collect();

    let lossy = LinkFaults {
        jitter: Duration::from_millis(2),
        loss_good: 0.02,
        loss_bad: 0.5,
        p_enter_bad: 0.02,
        p_exit_bad: 0.3,
        dup_prob: 0.03,
        ..LinkFaults::default()
    };
    for src in &probe_srcs {
        net.set_faults(*src, addr(RECV), lossy.clone());
    }
    let provider = Provider::Fault(net.clone());

    let server = start_server(ServerConfig {
        provider: provider.clone(),
        recv_threads,
        idle_timeout: Some(Duration::from_secs(10)),
        ..ServerConfig::any(addr(RECV), 8)
    })
    .unwrap();

    let mut out = Vec::new();
    for (i, (host, probe_src)) in hosts.iter().zip(&probe_srcs).enumerate() {
        let session = 0xC1 + i as u32;
        let tool = fast_tool();
        let mut control = ControlConfig::new(addr(RECV));
        control.bind = Some(addr(&format!("{host}:7999")));
        control.provider = provider.clone();
        control.drain = Duration::from_millis(100);
        let cfg = SenderConfig {
            tool,
            bind: *probe_src,
            control: Some(control),
            provider: provider.clone(),
            ..SenderConfig::new(tool, 400, addr(RECV), session)
        };
        // Same per-session seed for every thread count: identical probe
        // schedule, identical fault draws on each (src, dst) link.
        let outcome = run_sender(cfg, seeded(1000 + i as u64, "steer-fleet")).unwrap();
        assert!(
            outcome.completed,
            "{tag}: session {session:#x} aborted: {:?}",
            outcome.diagnostics
        );
        let log = outcome
            .receiver_log
            .expect("control plane fetches the report");
        out.push((session, log_bytes(&log, tag)));
    }
    server.stop();
    out
}

/// The multi-thread differential: the same FaultNet-seeded fleet must
/// produce byte-identical per-session reports whether one drain thread
/// ingests everything or four threads each own a reuseport lane. The
/// thread count may change which thread touches a datagram — never what
/// the fleet reports.
#[test]
fn one_and_four_drain_threads_report_byte_identical_fleets() {
    let one = run_fleet(1, "one-thread");
    let four = run_fleet(4, "four-threads");
    assert_eq!(one.len(), four.len());
    for ((sa, bytes_a), (sb, bytes_b)) in one.iter().zip(&four) {
        assert_eq!(sa, sb);
        assert!(
            bytes_a == bytes_b,
            "session {sa:#x}: report bytes differ between 1 and 4 drain threads"
        );
    }
}

/// A fleet read across drain threads: three sessions, each owned by a
/// different one of four threads (`0xD1 % 4`, `0xD2 % 4`, `0xD3 % 4`),
/// with probes accepted and no FIN yet. The fleet-scope estimate must be
/// exactly the merge of the three session-scope estimates — every shard
/// counted once, none missed.
#[test]
fn mid_run_fleet_estimate_across_four_threads_merges_every_session() {
    const RECV: &str = "10.0.0.1:9000";
    let net = FaultNet::new(99);
    let provider = Provider::Fault(net.clone());
    let metrics = Arc::new(Registry::new("fleet-read"));
    let server = start_server(ServerConfig {
        provider: provider.clone(),
        recv_threads: LANES as usize,
        metrics: Some(metrics.clone()),
        ..ServerConfig::any(addr(RECV), 8)
    })
    .unwrap();

    let params = SessionParams {
        n_slots: 64,
        slot_ns: 5_000_000,
        probe_packets: 2,
        packet_bytes: 64,
        p: 0.3,
        improved: false,
    };
    let mut clients = Vec::new();
    let mut sent = 0u64;
    for (i, host) in FLEET_HOSTS.iter().enumerate() {
        let session = 0xD1 + i as u32;
        // Control and probe flows of the session both land on lane
        // `session % 4`, so that thread owns it from the SYN on.
        let mut control = ControlConfig::new(addr(RECV));
        control.bind = Some(addr(&format!("{host}:7100")));
        control.provider = provider.clone();
        let client = ControlClient::connect(control, None).unwrap();
        client.handshake(session, params).unwrap();

        let sock = provider.bind(addr(&format!("{host}:7000"))).unwrap();
        let mut seq = 0u64;
        for j in 0..12u64 {
            for slot in [2 * j, 2 * j + 1] {
                // A short train marks the slot congested; each session
                // congests a different pattern of slots.
                let packets = 2 - u8::from((slot + i as u64).is_multiple_of(5));
                for idx in 0..packets {
                    let h = ProbeHeader {
                        session,
                        experiment: j,
                        slot,
                        seq,
                        send_ns: 1_000_000 * slot,
                        idx,
                        probe_len: 2,
                    };
                    sock.send_to(&h.encode(64), addr(RECV)).unwrap();
                    seq += 1;
                    sent += 1;
                }
            }
        }
        clients.push((session, client));
    }
    let accepted = metrics.counter("packets_accepted");
    wait_virtual(&net, || accepted.get() >= sent);
    assert_eq!(accepted.get(), sent, "every probe accepted before the read");

    let per_session: Vec<_> = clients
        .iter()
        .map(|(session, c)| c.fetch_estimate(*session, EstimateScope::Session).unwrap())
        .collect();
    let (first, client) = &clients[0];
    let fleet = client.fetch_estimate(*first, EstimateScope::Fleet).unwrap();

    assert_eq!(fleet.scope, EstimateScope::Fleet);
    assert_eq!(fleet.sessions, 3);
    assert!(
        per_session.iter().all(|e| e.estimates.experiments > 0),
        "every session must have folded experiments before the read"
    );
    let mut merged = Estimates::default();
    for e in &per_session {
        merged.merge(&e.estimates);
    }
    assert_eq!(
        fleet.estimates, merged,
        "fleet counters must be exactly the merge of the session counters"
    );
    assert_eq!(
        fleet.delay.samples,
        per_session.iter().map(|e| e.delay.samples).sum::<u64>()
    );

    let report = server.stop();
    let busy: Vec<usize> = (0..LANES as usize)
        .filter(|&t| report.rx_packets_per_thread[t] > 0)
        .collect();
    assert_eq!(
        busy,
        [0xD1 % 4, 0xD2 % 4, 0xD3 % 4],
        "three sessions on three distinct threads, each on `session % 4`"
    );
}

/// A sender that changes source port mid-run, and whose control and
/// probe sockets differ, still reaches the thread that owns its session:
/// steering reads the session id, not the 4-tuple. All 40 probes from
/// two source ports are recorded exactly once, and only thread
/// `0xB0B % 4` receives any.
#[test]
fn a_rebound_sender_still_reaches_the_owner_thread() {
    const RECV: &str = "10.0.0.1:9000";
    let net = FaultNet::new(7);
    let provider = Provider::Fault(net.clone());
    let metrics = Arc::new(Registry::new("steer-rebind"));
    let server = start_server(ServerConfig {
        provider: provider.clone(),
        recv_threads: LANES as usize,
        // No idle watchdog: a reap between the two probe batches would
        // remove the very session the rebind must reach.
        idle_timeout: None,
        metrics: Some(metrics.clone()),
        ..ServerConfig::any(addr(RECV), 4)
    })
    .unwrap();

    let session = 0xB0B;
    let mut control = ControlConfig::new(addr(RECV));
    control.bind = Some(addr("10.0.0.2:7100"));
    control.provider = provider.clone();
    let client = ControlClient::connect(control, None).unwrap();
    let params = SessionParams {
        n_slots: 1000,
        slot_ns: 5_000_000,
        probe_packets: 1,
        packet_bytes: 64,
        p: 0.3,
        improved: false,
    };
    client.handshake(session, params).unwrap();

    let send_probes = |port: u16, range: std::ops::Range<u64>| {
        let sock = provider.bind(addr(&format!("10.0.0.2:{port}"))).unwrap();
        for i in range {
            let h = ProbeHeader {
                session,
                experiment: i,
                slot: i,
                seq: i,
                send_ns: 1_000_000 * i,
                idx: 0,
                probe_len: 1,
            };
            sock.send_to(&h.encode(64), addr(RECV)).unwrap();
        }
    };
    let accepted = metrics.counter("packets_accepted");
    let wait_accepted = |want: u64| {
        wait_virtual(&net, || accepted.get() >= want);
        assert_eq!(accepted.get(), want, "probes lost after a rebind");
    };

    send_probes(7000, 0..20);
    wait_accepted(20);
    // Rebind: same session, new source port.
    send_probes(7001, 20..40);
    wait_accepted(40);

    let (summary, records) = client.fetch_report(session, 40, 40).unwrap();
    assert_eq!(summary.packets, 40);
    assert_eq!(summary.duplicates, 0);
    assert_eq!(
        records.len(),
        40,
        "one record per probe, none dropped, none doubled"
    );
    let mut experiments: Vec<u64> = records.iter().map(|r| r.experiment).collect();
    experiments.sort_unstable();
    assert_eq!(experiments, (0..40).collect::<Vec<u64>>());

    let report = server.stop();
    assert_eq!(report.rejected, 0);
    assert_eq!(report.reuseport_sockets, LANES);
    assert_eq!(report.steer_fallbacks, 0);
    let owner = (session % 4) as usize;
    for (t, &n) in report.rx_packets_per_thread.iter().enumerate() {
        assert_eq!(n > 0, t == owner, "thread {t} received {n} probes");
    }
    assert_eq!(report.rx_packets_per_thread.len(), LANES as usize);
}
