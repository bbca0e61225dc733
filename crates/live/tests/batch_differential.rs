//! Differential tests for the batched datapath over loopback. The same
//! seeded run must produce the same *accounting* whether both ends use
//! the batched path (`UDP_SEGMENT` sends, `recvmmsg` with `UDP_GRO` and
//! kernel stamps) or the portable one-datagram-per-syscall fallback,
//! whether the sender coalesces its packets into super-datagrams or
//! sends them separately, and whether one drain thread or several
//! ingest them — including a super-datagram that carries sessions owned
//! by two different threads.
//!
//! Wall-clock timing (and hence the delay fields) legitimately differs
//! between two live runs, so these tests pin down everything that must
//! not: the probe plan, the per-probe arrival keys, the received and
//! duplicate counts, and the loss accounting. The *byte-identical*
//! contract for one arrival sequence fed through both ingest groupings
//! lives in the receiver's unit tests, where timestamps are synthetic.

use badabing_core::config::BadabingConfig;
use badabing_live::batch_io::{BatchSender, IoMode};
use badabing_live::control::{ControlClient, ControlConfig};
use badabing_live::kernel_offload_caps;
use badabing_live::provider::Provider;
use badabing_live::receiver::{start_server, ReceiverLog, ServerConfig};
use badabing_live::sender::{run_sender, SenderConfig, SenderManifest};
use badabing_metrics::Registry;
use badabing_stats::rng::seeded;
use badabing_wire::control::{ReportRecord, ReportSummary, SessionParams};
use badabing_wire::ProbeHeader;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

fn local0() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

fn fast_tool() -> BadabingConfig {
    BadabingConfig {
        slot_secs: 0.005,
        ..BadabingConfig::paper_default(0.5)
    }
}

/// One complete control-plane session over loopback with both ends
/// forced to `io`; returns the sender manifest and the report the
/// control plane fetched.
fn run_mode(io: IoMode, session: u32) -> (SenderManifest, ReceiverLog) {
    run_mode_threads(io, 1, session)
}

/// [`run_mode`] with `recv_threads` drain threads: one plain socket, or
/// one `SO_REUSEPORT` group member per thread.
fn run_mode_threads(
    io: IoMode,
    recv_threads: usize,
    session: u32,
) -> (SenderManifest, ReceiverLog) {
    let server = start_server(ServerConfig {
        provider: Provider::Udp(io),
        idle_timeout: Some(Duration::from_secs(10)),
        recv_threads,
        ..ServerConfig::any(local0(), 4)
    })
    .unwrap();
    let tool = fast_tool();
    let mut control = ControlConfig::new(server.local_addr());
    control.drain = Duration::from_millis(100);
    let cfg = SenderConfig {
        tool,
        provider: Provider::Udp(io),
        control: Some(control),
        ..SenderConfig::new(tool, 400 /* 2 s */, server.local_addr(), session)
    };
    // Same seed in both modes: identical schedule, identical probes.
    let outcome = run_sender(cfg, seeded(99, "differential")).unwrap();
    assert!(outcome.completed, "mode {io:?}: run aborted");
    let log = outcome
        .receiver_log
        .expect("control plane fetches the report");
    server.stop();
    (outcome.manifest, log)
}

/// Everything that must not depend on the I/O mode: same probe plan,
/// same send accounting, lossless loopback delivery, and identical
/// per-probe keys/counts in both reports.
fn assert_modes_agree(
    a_name: &str,
    (m_a, log_a): &(SenderManifest, ReceiverLog),
    b_name: &str,
    (m_b, log_b): &(SenderManifest, ReceiverLog),
) {
    // The probe plan is a pure function of the seed: identical streams
    // of (experiment, slot, packets) regardless of I/O mode.
    assert_eq!(m_a.sent.len(), m_b.sent.len());
    for (a, b) in m_a.sent.iter().zip(&m_b.sent) {
        assert_eq!(
            (a.experiment, a.slot, a.packets),
            (b.experiment, b.slot, b.packets)
        );
    }
    assert_eq!(m_a.packets_sent, m_b.packets_sent);
    assert_eq!(m_a.packets_refused, 0, "{a_name}");
    assert_eq!(m_b.packets_refused, 0, "{b_name}");

    // Loopback is lossless: both reports must hold every probe, with
    // identical keys and counts.
    assert_eq!(log_a.packets, m_a.packets_sent, "{a_name}");
    assert_eq!(log_b.packets, m_b.packets_sent, "{b_name}");
    assert_eq!(log_a.duplicates, 0, "{a_name}");
    assert_eq!(log_b.duplicates, 0, "{b_name}");
    assert_eq!(log_a.arrivals.len(), log_b.arrivals.len());
    for (key, rec) in &log_a.arrivals {
        let other = log_b
            .arrivals
            .get(key)
            .unwrap_or_else(|| panic!("probe {key:?} missing from {b_name} run"));
        assert_eq!(rec.received, other.received, "probe {key:?}");
        assert_eq!(rec.duplicates, other.duplicates, "probe {key:?}");
    }
}

#[test]
fn batched_and_fallback_paths_agree_end_to_end() {
    let fall = run_mode(IoMode::Fallback, 0xD1);
    let batch = run_mode(IoMode::Batched, 0xD2);
    assert_modes_agree("fallback", &fall, "batched", &batch);
}

const TRAIN: u8 = 3;
const PACKET_BYTES: usize = 64;

/// SYN parameters for a hand-driven session of `n_slots` slots.
fn params(n_slots: u64) -> SessionParams {
    SessionParams {
        n_slots,
        slot_ns: 5_000_000,
        probe_packets: TRAIN,
        packet_bytes: PACKET_BYTES as u32,
        p: 0.5,
        improved: true,
    }
}

/// `probes` probes of `session`, one per slot, two slots per
/// experiment, as one flat buffer of [`PACKET_BYTES`] datagrams. Every
/// fifth probe is one packet short, so the counts differ per probe.
/// Returns the buffer and its datagram count.
fn probe_stream(session: u32, probes: u64) -> (Vec<u8>, usize) {
    let mut buf = Vec::new();
    let mut seq = 0;
    for slot in 0..probes {
        let packets = if slot % 5 == 4 { TRAIN - 1 } else { TRAIN };
        for idx in 0..packets {
            let h = ProbeHeader {
                session,
                experiment: slot / 2,
                slot,
                seq,
                send_ns: 0,
                idx,
                probe_len: TRAIN,
            };
            seq += 1;
            buf.extend_from_slice(&h.encode(PACKET_BYTES));
        }
    }
    let count = buf.len() / PACKET_BYTES;
    (buf, count)
}

/// Send every datagram of `buf` from `sock`: as `UDP_SEGMENT`
/// super-datagrams when `coalesced`, else as separate datagrams in
/// `sendmmsg` batches. Returns the sender's offload send count.
fn send_stream(sock: &UdpSocket, buf: &[u8], coalesced: bool) -> u64 {
    let mut tx = BatchSender::new(64, IoMode::Batched);
    let count = buf.len() / PACKET_BYTES;
    let pkts: Vec<&[u8]> = buf.chunks(PACKET_BYTES).collect();
    let mut off = 0;
    while off < count {
        off += if coalesced {
            tx.send_segments(sock, &buf[off * PACKET_BYTES..], PACKET_BYTES, count - off)
        } else {
            tx.send(sock, &pkts[off..])
        }
        .unwrap();
    }
    tx.gso_sends()
}

/// A heartbeat acked for `session` means the thread that owns it has
/// ingested everything queued on its socket ahead of the heartbeat.
fn drained(client: &ControlClient, session: u32) {
    let acked = (1..=8).any(|hb| {
        client
            .heartbeat(session, hb, Duration::from_millis(500))
            .expect("heartbeat io")
    });
    assert!(acked, "session {session}: heartbeat never acked");
}

/// One session that `start_server`'s defaults received from a stream of
/// `probes` probes, sent coalesced or separately.
struct Leg {
    summary: ReportSummary,
    records: Vec<ReportRecord>,
    /// The sender's `UDP_SEGMENT` sends.
    gso_sends: u64,
    /// Datagrams the receive ring split out of coalesced reads.
    gro_split: u64,
}

fn default_receiver_leg(session: u32, probes: u64, coalesced: bool) -> Leg {
    let server = start_server(ServerConfig::any(local0(), 4)).unwrap();
    let target = server.local_addr();
    let client = ControlClient::connect(ControlConfig::new(target), None).unwrap();
    client.handshake(session, params(probes)).unwrap();
    let sock = UdpSocket::bind(local0()).unwrap();
    sock.connect(target).unwrap();
    let (buf, count) = probe_stream(session, probes);
    let gso_sends = send_stream(&sock, &buf, coalesced);
    drained(&client, session);
    let (summary, records) = client
        .fetch_report(session, probes, count as u64)
        .expect("report fetch");
    let gro_split = server.stop().gro_segments_split;
    Leg {
        summary,
        records,
        gso_sends,
        gro_split,
    }
}

/// Probe keys and counts of a report: everything but the delays, which
/// legitimately differ between two live runs.
fn keys_and_counts(records: &[ReportRecord]) -> Vec<(u64, u64, u8, u8)> {
    let mut out: Vec<_> = records
        .iter()
        .map(|r| (r.experiment, r.slot, r.received, r.duplicates))
        .collect();
    out.sort_unstable();
    out
}

/// What a lossless run of [`probe_stream`] must report per probe:
/// `(experiment, slot, received, duplicates)`.
fn stream_keys(probes: u64) -> Vec<(u64, u64, u8, u8)> {
    (0..probes)
        .map(|slot| {
            let received = if slot % 5 == 4 { TRAIN - 1 } else { TRAIN };
            (slot / 2, slot, received, 0)
        })
        .collect()
}

/// Coalescing must be invisible to the accounting: the same probes
/// sent to the default receiver as `UDP_SEGMENT` super-datagrams (read
/// back coalesced under `UDP_GRO` and split by the ring) and as separate
/// `sendmmsg` datagrams give the same probe keys and counts. On a
/// kernel without `UDP_SEGMENT` both legs send separately.
#[test]
fn coalesced_and_separate_senders_agree_end_to_end() {
    let probes = 400;
    let coalesced = default_receiver_leg(0xC1, probes, true);
    let separate = default_receiver_leg(0xC2, probes, false);
    let caps = kernel_offload_caps();
    if caps.gso_ready() {
        assert!(
            coalesced.gso_sends > 0,
            "the coalesced leg uses UDP_SEGMENT"
        );
    } else {
        eprintln!("kernel has no UDP_SEGMENT: both legs sent separately");
    }
    if caps.gro_ready() {
        assert!(coalesced.gro_split > 0, "the ring split coalesced reads");
    }
    assert_eq!((separate.gso_sends, separate.gro_split), (0, 0));
    let (_, count) = probe_stream(0, probes);
    for (name, leg) in [("coalesced", &coalesced), ("separate", &separate)] {
        assert_eq!(
            leg.summary.packets, count as u64,
            "{name}: loopback loses nothing"
        );
        assert_eq!(leg.summary.duplicates, 0, "{name}");
        assert_eq!(leg.summary.rejected, 0, "{name}");
    }
    assert_eq!(keys_and_counts(&coalesced.records), stream_keys(probes));
    assert_eq!(
        keys_and_counts(&coalesced.records),
        keys_and_counts(&separate.records)
    );
}

/// GRO coalesces by 4-tuple, not by session: one `UDP_SEGMENT` send
/// whose segments carry probes of session 0 and then session 1 reaches
/// one reuseport member whole, so on a two-drain-thread receiver one
/// thread ingests the other thread's session through that session's
/// shard lock. Both reports must still be exact. The per-thread
/// `rx_packets_thread_<t>` counters say how many probes the non-owner
/// thread ingested. Skips on kernels without `SO_REUSEPORT` or
/// `UDP_SEGMENT`.
#[test]
fn one_gso_send_across_two_owner_threads_reports_both_sessions_exactly() {
    let caps = kernel_offload_caps();
    if !caps.reuseport_ready() || !caps.gso_ready() {
        eprintln!("skipping: kernel has no SO_REUSEPORT or UDP_SEGMENT");
        return;
    }
    let metrics = Arc::new(Registry::new("cross-thread-gro"));
    let server = start_server(ServerConfig {
        recv_threads: 2,
        metrics: Some(metrics.clone()),
        ..ServerConfig::any(local0(), 4)
    })
    .unwrap();
    let target = server.local_addr();
    let probes = 10;
    let clients: Vec<ControlClient> = (0..2u32)
        .map(|session| {
            let client = ControlClient::connect(ControlConfig::new(target), None).unwrap();
            client.handshake(session, params(probes)).unwrap();
            client
        })
        .collect();
    // Each SYN was its thread's first read, which turned `UDP_GRO` on, so
    // the super-datagram below arrives coalesced.
    let (mut buf, per_session) = probe_stream(0, probes);
    buf.extend_from_slice(&probe_stream(1, probes).0);
    let total = 2 * per_session;
    assert!(total <= 64, "one super-datagram carries both sessions");
    let sock = UdpSocket::bind(local0()).unwrap();
    sock.connect(target).unwrap();
    let mut tx = BatchSender::new(64, IoMode::Batched);
    assert_eq!(
        tx.send_segments(&sock, &buf, PACKET_BYTES, total).unwrap(),
        total
    );
    assert_eq!(tx.gso_sends(), 1, "one sendmsg for both sessions");
    for (session, client) in clients.iter().enumerate() {
        drained(client, session as u32);
    }
    let per_session = per_session as u64;
    for (session, client) in clients.iter().enumerate() {
        let (summary, records) = client
            .fetch_report(session as u32, probes, per_session)
            .expect("report fetch");
        assert_eq!(summary.packets, per_session, "session {session}");
        assert_eq!(summary.duplicates, 0, "session {session}");
        assert_eq!(records.len() as u64, probes, "session {session}");
        assert_eq!(
            keys_and_counts(&records),
            stream_keys(probes),
            "session {session}"
        );
    }
    // A drain thread adds its batch to its counter after answering the
    // heartbeat in that batch, so read the counters once the threads
    // have joined.
    server.stop();
    let rx: Vec<u64> = (0..2)
        .map(|t| metrics.counter(&format!("rx_packets_thread_{t}")).get())
        .collect();
    assert_eq!(rx.iter().sum::<u64>(), 2 * per_session, "rx {rx:?}");
    // Thread t owns session t, so any excess over a thread's own
    // session is the other session's probes.
    let non_owner: u64 = rx.iter().map(|&n| n.saturating_sub(per_session)).sum();
    println!("rx_packets_thread_[0, 1] = {rx:?}; non-owner ingest: {non_owner} probes");
    if caps.gro_ready() {
        // The steering program reads the super-datagram's first segment,
        // a probe of session 0, so the whole send reaches thread 0, which
        // ingests session 1's probes through session 1's shard lock.
        assert_eq!(rx, [2 * per_session, 0], "the coalesced read steers whole");
    }
}

/// The drain-thread count must be invisible to the accounting: a
/// session ingested by four threads over a per-thread `SO_REUSEPORT`
/// socket group produces the same probe keys and counts as one thread
/// on one socket. Skips (passes trivially) on kernels without
/// `SO_REUSEPORT`.
#[test]
fn one_and_four_drain_threads_agree_end_to_end() {
    if !kernel_offload_caps().reuseport_ready() {
        eprintln!("skipping: kernel has no SO_REUSEPORT");
        return;
    }
    let one = run_mode_threads(IoMode::Batched, 1, 0xF1);
    let four = run_mode_threads(IoMode::Batched, 4, 0xF2);
    assert_modes_agree("1 thread", &one, "4 threads", &four);
}
