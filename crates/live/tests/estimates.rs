//! The online-estimator differential suite: the receiver's streaming
//! `Estimates` fold must equal `Estimates::from_log` over the fetched
//! report **bit for bit** — the FIN differential contract — on real UDP
//! loopback and through seeded FaultNet loss, where same-seed reruns
//! must also serialize byte-identically. Plus the fleet contract: a
//! fleet-scope `EstimateRequest` answers with exactly the merge of the
//! per-session counters, and the sender's probe loop can poll a mid-run
//! snapshot at its heartbeat ticks without disturbing the run.

use badabing_core::config::BadabingConfig;
use badabing_core::estimator::Estimates;
use badabing_live::analyze::loss_log_from_records;
use badabing_live::control::{ControlClient, ControlConfig, EstimateReport};
use badabing_live::faultnet::{FaultNet, LinkFaults};
use badabing_live::persist::save_estimate;
use badabing_live::provider::Provider;
use badabing_live::receiver::{start_server, ServerConfig};
use badabing_live::sender::{run_sender, SenderConfig};
use badabing_metrics::Registry;
use badabing_stats::rng::seeded;
use badabing_wire::control::{EstimateScope, SessionParams};
use badabing_wire::ProbeHeader;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

const TRAIN: u8 = 3;
const PACKET_BYTES: usize = 256;

fn local0() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

fn addr(s: &str) -> SocketAddr {
    s.parse().unwrap()
}

fn params(n_slots: u64) -> SessionParams {
    SessionParams {
        n_slots,
        slot_ns: 5_000_000,
        probe_packets: TRAIN,
        packet_bytes: PACKET_BYTES as u32,
        p: 0.3,
        improved: true,
    }
}

fn probe(session: u32, experiment: u64, slot: u64, seq: u64, idx: u8) -> [u8; PACKET_BYTES] {
    let mut buf = [0u8; PACKET_BYTES];
    ProbeHeader {
        session,
        experiment,
        slot,
        seq,
        send_ns: 0,
        idx,
        probe_len: TRAIN,
    }
    .encode_into(&mut buf);
    buf
}

/// A hand-crafted burst covering the estimator's input space: clean
/// two-probe experiments, congested first/second slots (short trains),
/// an incomplete experiment (one slot never sent), out-of-order slots,
/// an exact duplicate datagram, and three three-probe experiments with
/// `000`, `010`, and `100` patterns. Returns the datagrams in send
/// order. Needs `n_slots >= 64`.
fn crafted_burst(session: u32) -> Vec<[u8; PACKET_BYTES]> {
    let mut out: Vec<[u8; PACKET_BYTES]> = Vec::new();
    let mut seq = 0u64;
    let mut push = |out: &mut Vec<[u8; PACKET_BYTES]>, exp: u64, slot: u64, idx: u8| {
        out.push(probe(session, exp, slot, seq, idx));
        seq += 1;
    };
    for j in 0..24u64 {
        if j == 11 {
            // Incomplete: the second slot never arrives, so the online
            // fold must never emit (and must not retain) an outcome.
            for idx in 0..TRAIN {
                push(&mut out, j, 2 * j, idx);
            }
            continue;
        }
        let slots: [u64; 2] = if j == 13 {
            // Whole-slot reordering: the later slot arrives first.
            [2 * j + 1, 2 * j]
        } else {
            [2 * j, 2 * j + 1]
        };
        for (k, &slot) in slots.iter().enumerate() {
            // Short trains (2 of 3 packets) mark the slot congested.
            let congested = (k == 0 && j % 5 == 0) || (k == 1 && j % 7 == 0);
            let sent = if congested { TRAIN - 1 } else { TRAIN };
            for idx in 0..sent {
                push(&mut out, j, slot, idx);
            }
        }
        if j == 17 {
            // An exact duplicate (same seq, same idx): dedup must keep
            // it out of the counters on both sides.
            let dup = *out.last().unwrap();
            out.push(dup);
        }
    }
    // Three-probe experiments: 000 (clean), 010, 100.
    for (e, short) in [(24u64, None), (25, Some(1usize)), (26, Some(0))] {
        for k in 0..3u64 {
            let sent = if short == Some(k as usize) {
                TRAIN - 1
            } else {
                TRAIN
            };
            for idx in 0..sent {
                push(&mut out, e, 48 + (e - 24) * 4 + k, idx);
            }
        }
    }
    out
}

/// Heartbeat behind the burst: the ack only comes back once the
/// receiver has drained every probe queued ahead of it on its socket.
fn drain(client: &ControlClient, session: u32) {
    let mut acked = false;
    for hb in 1..=8 {
        if client
            .heartbeat(session, hb, Duration::from_millis(500))
            .expect("heartbeat io")
        {
            acked = true;
            break;
        }
    }
    assert!(acked, "post-burst heartbeat never acked");
}

/// The reference fold the online estimator is tested against.
fn fold_report(records: &[badabing_wire::control::ReportRecord], p: &SessionParams) -> Estimates {
    Estimates::from_log(&loss_log_from_records(
        records,
        TRAIN,
        p.n_slots,
        p.slot_ns as f64 / 1e9,
    ))
}

#[test]
fn online_estimate_matches_report_fold_on_udp_loopback() {
    let server = start_server(ServerConfig::any(local0(), 4)).unwrap();
    let target = server.local_addr();
    let session = 0xB1;
    let client = ControlClient::connect(ControlConfig::new(target), None).unwrap();
    let p = params(64);
    client.handshake(session, p).unwrap();

    let sock = UdpSocket::bind(local0()).unwrap();
    let burst = crafted_burst(session);
    for pkt in &burst {
        sock.send_to(pkt, target).unwrap();
    }
    drain(&client, session);

    let est = client
        .fetch_estimate(session, EstimateScope::Session)
        .expect("mid-run estimate");
    assert_eq!(est.scope, EstimateScope::Session);
    assert_eq!(est.sessions, 1);

    let (summary, records) = client
        .fetch_report(session, burst.len() as u64, burst.len() as u64)
        .expect("report fetch");
    let expected = fold_report(&records, &p);
    assert_eq!(
        est.estimates, expected,
        "online fold must equal the report fold bit for bit"
    );

    // The crafted burst's structure must survive end to end: 23
    // complete two-probe experiments (one incomplete), 3 three-probe
    // experiments, congestion present, duplicates deduplicated.
    assert_eq!(expected.basic_experiments, 23);
    assert_eq!(expected.extended_experiments, 3);
    assert_eq!(expected.experiments, 26);
    assert!(expected.z_sum > 0, "short trains must read as congested");
    assert_eq!(expected.v, 1, "the 100 pattern lands in V");
    assert_eq!(expected.outcomes_malformed, 0);
    assert_eq!(summary.duplicates, 1, "the duplicate datagram is counted");
    // Every accepted (non-duplicate) pre-FIN packet feeds the sketch.
    assert_eq!(est.delay.samples, summary.packets);

    server.stop();
}

/// One crafted session over a lossy seeded link; returns the mid-run
/// estimate, the reference fold over the fetched report, and the bytes
/// `--estimate-out` would write.
fn lossy_run(seed: u64) -> (EstimateReport, Estimates, Vec<u8>) {
    const RECV: &str = "10.0.0.1:9000";
    const PROBE_SRC: &str = "10.0.0.2:7000";
    let net = FaultNet::new(seed);
    net.set_faults(
        addr(PROBE_SRC),
        addr(RECV),
        LinkFaults::uniform_loss(0.10).with_reordering(0.25, Duration::from_millis(1)),
    );
    let provider = Provider::Fault(net.clone());
    let server = start_server(ServerConfig {
        provider: provider.clone(),
        ..ServerConfig::any(addr(RECV), 4)
    })
    .unwrap();

    let mut cfg = ControlConfig::new(addr(RECV));
    cfg.provider = provider;
    cfg.bind = Some(addr("10.0.0.2:7001"));
    let client = ControlClient::connect(cfg, None).unwrap();
    let session = 0xFA7;
    let p = params(64);
    client.handshake(session, p).unwrap();

    let sock = net.bind(addr(PROBE_SRC)).unwrap();
    let burst = crafted_burst(session);
    for pkt in &burst {
        sock.send_to(pkt, addr(RECV)).unwrap();
    }
    drain(&client, session);

    let est = client
        .fetch_estimate(session, EstimateScope::Session)
        .expect("mid-run estimate");
    let (_, records) = client
        .fetch_report(session, burst.len() as u64, burst.len() as u64)
        .expect("report fetch");
    let expected = fold_report(&records, &p);
    server.stop();

    let path = std::env::temp_dir().join(format!(
        "badabing-estimates-{}-{seed}.json",
        std::process::id()
    ));
    save_estimate(&est, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    (est, expected, bytes)
}

#[test]
fn online_estimate_matches_report_fold_through_probe_loss_and_reruns_identically() {
    let (est_a, expected_a, bytes_a) = lossy_run(21);
    assert_eq!(
        est_a.estimates, expected_a,
        "online fold must equal the report fold through genuine loss"
    );
    // 10% packet loss must actually shape the counters: whole-packet
    // shortfalls read as congestion (seed-deterministic, so this holds
    // on every rerun or fails on every rerun).
    assert!(est_a.estimates.z_sum > 0 || est_a.estimates.s > 0 || est_a.estimates.v > 0);

    let (est_b, expected_b, bytes_b) = lossy_run(21);
    assert_eq!(est_b.estimates, expected_b);
    assert_eq!(est_a.estimates, est_b.estimates, "same seed, same counters");
    assert_eq!(
        bytes_a, bytes_b,
        "same seed must serialize a byte-identical estimate snapshot"
    );
}

#[test]
fn fleet_estimate_is_the_merge_of_session_estimates() {
    let server = start_server(ServerConfig::any(local0(), 4)).unwrap();
    let target = server.local_addr();
    let p = params(64);

    let c1 = ControlClient::connect(ControlConfig::new(target), None).unwrap();
    c1.handshake(31, p).unwrap();
    let c2 = ControlClient::connect(ControlConfig::new(target), None).unwrap();
    c2.handshake(32, p).unwrap();

    let sock = UdpSocket::bind(local0()).unwrap();
    for pkt in &crafted_burst(31) {
        sock.send_to(pkt, target).unwrap();
    }
    // Session 32 sees a different population: four clean experiments.
    for j in 0..4u64 {
        for k in 0..2u64 {
            for idx in 0..TRAIN {
                let pkt = probe(32, j, 2 * j + k, (j * 2 + k) * 3 + u64::from(idx), idx);
                sock.send_to(&pkt, target).unwrap();
            }
        }
    }
    drain(&c1, 31);
    drain(&c2, 32);

    let e1 = c1.fetch_estimate(31, EstimateScope::Session).unwrap();
    let e2 = c2.fetch_estimate(32, EstimateScope::Session).unwrap();
    let fleet = c1.fetch_estimate(31, EstimateScope::Fleet).unwrap();

    assert_eq!(fleet.scope, EstimateScope::Fleet);
    assert_eq!(fleet.sessions, 2);
    let mut merged = e1.estimates;
    merged.merge(&e2.estimates);
    assert_eq!(
        fleet.estimates, merged,
        "fleet counters must be exactly the merge of the session counters"
    );
    assert_eq!(fleet.delay.samples, e1.delay.samples + e2.delay.samples);
    assert_eq!(e2.estimates.experiments, 4);
    assert_eq!(e2.estimates.z_sum, 0, "clean session saw no congestion");

    server.stop();
}

#[test]
fn sender_polls_mid_run_estimates_from_its_probe_loop() {
    const RECV: &str = "10.0.0.1:9000";
    let net = FaultNet::new(3);
    let provider = Provider::Fault(net.clone());
    let server = start_server(ServerConfig {
        provider: provider.clone(),
        idle_timeout: Some(Duration::from_secs(10)),
        ..ServerConfig::any(addr(RECV), 4)
    })
    .unwrap();

    let tool = BadabingConfig {
        slot_secs: 0.005,
        ..BadabingConfig::paper_default(0.5)
    };
    let mut control = ControlConfig::new(addr(RECV));
    control.bind = Some(addr("10.0.0.2:7001"));
    control.drain = Duration::from_millis(100);
    let metrics = Arc::new(Registry::new("estimates-midrun"));
    let cfg = SenderConfig {
        tool,
        bind: addr("10.0.0.2:7000"),
        control: Some(control),
        provider,
        metrics: Some(metrics.clone()),
        estimate_every: Some(Duration::from_millis(200)),
        ..SenderConfig::new(tool, 400, addr(RECV), 0xE5)
    };
    let outcome = run_sender(cfg, seeded(3, "estimates-midrun")).unwrap();
    assert!(outcome.completed, "{:?}", outcome.diagnostics);

    let est = outcome
        .mid_run_estimate
        .expect("a 2 s run polled every 200 ms must capture a snapshot");
    assert_eq!(est.scope, EstimateScope::Session);
    assert_eq!(est.sessions, 1);
    assert!(
        est.estimates.experiments > 0,
        "by the last poll some experiments must have assembled"
    );
    assert!(metrics.counter("estimates_fetched").get() > 0);

    // The mid-run snapshot can never claim more experiments than the
    // final report holds.
    let records = outcome.receiver_log.expect("report fetched").to_records();
    let p = params(400);
    let fin = fold_report(&records, &p);
    assert!(est.estimates.experiments <= fin.experiments);

    server.stop();
}
