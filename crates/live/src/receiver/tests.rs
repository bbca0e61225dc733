//! The receiver's tests: the server driven end to end over a seeded
//! FaultNet (and one real-UDP smoke), plus the session-level contracts
//! — groupings, SYN pre-sizing, zero-allocation ingest and the session
//! table against its reference model — on the fixtures in
//! `session::reference`.

use super::session::reference::{
    check_against_model, hostile_stream, planned_stream, synthetic_arrivals,
};
use super::*;
use crate::alloc_count;
use badabing_wire::control::{
    chunk_window, encode_report_chunk_into, EstimateScope, RejectReason, MAX_CONTROL_BYTES,
};
use std::collections::BTreeSet;
use std::net::UdpSocket;

fn local0() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

fn send_header(sock: &UdpSocket, target: SocketAddr, h: &ProbeHeader, bytes: usize) {
    sock.send_to(&h.encode(bytes), target).unwrap();
}

/// Fixed virtual addresses on the seeded fault net.
const RECV: &str = "10.0.0.1:9000";
const PROBE_SRC: &str = "10.0.0.2:7000";
const CTL_SRC: &str = "10.0.0.2:7001";

/// The run a test session's SYN announces.
fn params() -> SessionParams {
    SessionParams {
        n_slots: 100,
        slot_ns: 5_000_000,
        probe_packets: 3,
        packet_bytes: 64,
        p: 0.3,
        improved: true,
    }
}

fn probe(session: u32, experiment: u64, slot: u64, seq: u64) -> ProbeHeader {
    ProbeHeader {
        session,
        experiment,
        slot,
        seq,
        send_ns: 0,
        idx: 0,
        probe_len: 1,
    }
}

/// A server on a fresh seeded FaultNet, with a probe socket and a
/// control client on the same net: stamps and spacing come from
/// the net's virtual clock, not from a loaded host's scheduler.
struct Rig {
    server: ServerHandle,
    target: SocketAddr,
    probes: Socket,
    client: crate::control::ControlClient,
    clock: Clock,
}

fn rig(seed: u64, configure: impl FnOnce(ServerConfig) -> ServerConfig) -> Rig {
    let provider = Provider::Fault(crate::faultnet::FaultNet::new(seed));
    let target: SocketAddr = RECV.parse().unwrap();
    let server = start_server(configure(ServerConfig {
        provider: provider.clone(),
        ..ServerConfig::any(target, 4)
    }))
    .unwrap();
    let mut control = crate::control::ControlConfig::new(target);
    control.provider = provider.clone();
    control.bind = Some(CTL_SRC.parse().unwrap());
    Rig {
        server,
        target,
        probes: provider.bind(PROBE_SRC.parse().unwrap()).unwrap(),
        client: crate::control::ControlClient::connect(control, None).unwrap(),
        clock: provider.clock(),
    }
}

impl Rig {
    /// Open `session` with a SYN announcing [`params`].
    fn open(&self, session: u32) {
        self.client.handshake(session, params()).unwrap();
    }

    fn send(&self, h: &ProbeHeader, bytes: usize) {
        self.probes.send_to(&h.encode(bytes), self.target).unwrap();
    }

    /// Let in-flight datagrams land, then stop the server.
    fn finish(self) -> ServerReport {
        self.clock.sleep(Duration::from_millis(50));
        self.server.stop()
    }
}

#[test]
fn accepts_session_packets_and_rejects_others() {
    let rig = rig(1, |c| c);
    rig.open(42);
    let good = ProbeHeader {
        probe_len: 2,
        ..probe(42, 1, 10, 0)
    };
    let bad_session = ProbeHeader { session: 9, ..good };
    rig.send(&good, 100);
    rig.send(&bad_session, 100);
    rig.probes.send_to(b"garbage", rig.target).unwrap();
    let report = rig.finish();
    // The probe for a session no SYN opened and the garbage.
    assert_eq!(report.rejected, 2);
    let log = report.log_for(42).unwrap();
    assert_eq!(log.packets, 1);
    assert_eq!(log.rejected, 2);
    assert_eq!(log.duplicates, 0);
    assert_eq!(log.arrivals.len(), 1);
    assert_eq!(log.arrivals[&(1, 10)].received, 1);
    assert_eq!(report.log_for(9).map(|l| l.packets), None);
}

#[test]
fn offset_removal_yields_relative_queueing_delay() {
    let rig = rig(2, |c| c);
    rig.open(1);
    // Two packets with send timestamps from an unrelated clock: the
    // second "left" 50 ms earlier than its arrival spacing implies,
    // i.e. it queued ~50 ms longer.
    let base = 1_000_000_000_000u64; // arbitrary foreign clock
    let h1 = ProbeHeader {
        send_ns: base,
        ..probe(1, 0, 0, 0)
    };
    let h2 = ProbeHeader {
        experiment: 1,
        slot: 5,
        seq: 1,
        ..h1
    };
    rig.send(&h1, 100);
    rig.clock.sleep(Duration::from_millis(50));
    rig.send(&h2, 100);
    let report = rig.finish();
    let log = report.log_for(1).unwrap();
    let q1 = log.arrivals[&(0, 0)].qdelay_max_secs;
    let q2 = log.arrivals[&(1, 5)].qdelay_max_secs;
    assert!(q1 < 0.01, "first packet defines the baseline, got {q1}");
    assert!(
        (q2 - 0.05).abs() < 0.03,
        "second packet ~50 ms of queueing, got {q2}"
    );
}

#[test]
fn skewed_sender_clock_is_corrected() {
    // A sender whose clock runs fast by 1% (exaggerated for a 2 s
    // test; real skews are ppm over hours): send_ns grows 1.01× real
    // time. Without skew removal the early packets would read tens
    // of ms of phantom queueing.
    let rig = rig(5, |c| c);
    rig.open(5);
    let start = rig.clock.now();
    for i in 0..40u64 {
        let real_ns = (rig.clock.now() - start).as_nanos() as u64;
        let skewed_ns = (real_ns as f64 * 1.01) as u64;
        let h = ProbeHeader {
            send_ns: skewed_ns,
            ..probe(5, i, i, i)
        };
        rig.send(&h, 64);
        rig.clock.sleep(Duration::from_millis(50));
    }
    let report = rig.finish();
    let log = report.log_for(5).unwrap();
    assert_eq!(log.packets, 40);
    // Every packet is idle; after baseline removal all queueing
    // delays must be small. (1% over 2 s = 20 ms of drift, so the
    // naive min-subtraction would report up to ~20 ms on one end.)
    let max_q = log
        .arrivals
        .values()
        .map(|r| r.qdelay_max_secs)
        .fold(0.0f64, f64::max);
    assert!(
        max_q < 0.008,
        "residual queueing delay {max_q} after skew removal"
    );
}

#[test]
fn multi_packet_probe_aggregates() {
    let rig = rig(3, |c| c);
    rig.open(3);
    for idx in 0..3u8 {
        let h = ProbeHeader {
            idx,
            probe_len: 3,
            ..probe(3, 8, 2, u64::from(idx))
        };
        rig.send(&h, 64);
    }
    let report = rig.finish();
    assert_eq!(report.log_for(3).unwrap().arrivals[&(8, 2)].received, 3);
}

/// A 3-packet probe that loses packet idx 2 but has idx 0
/// duplicated three times, on a fresh seed-6 rig counting into
/// `metrics`.
fn duplicate_run(metrics: Option<Arc<Registry>>) -> ServerReport {
    let rig = rig(6, |c| ServerConfig { metrics, ..c });
    rig.open(6);
    // Without dedup the count would read 4 (debug-overflow
    // territory on a u8 under longer floods) and the lost packet
    // would be masked.
    for (seq, idx) in [(0u64, 0u8), (0, 0), (0, 0), (0, 0), (1, 1)] {
        let h = ProbeHeader {
            idx,
            probe_len: 3,
            ..probe(6, 4, 9, seq)
        };
        rig.send(&h, 64);
    }
    rig.finish()
}

/// Every [`ServerReport`] tally, by the registry counter it is read
/// from.
fn tallies(r: &ServerReport) -> Vec<(String, u64)> {
    let named = [
        ("datagrams_rejected", r.rejected),
        ("syns_rejected", r.syns_rejected),
        ("syns_budget_rejected", r.budget_rejects),
        ("sessions_evicted", r.sessions_evicted),
        ("report_chunk_nacks", r.chunk_nacks),
        ("gro_segments_split", r.gro_segments_split),
        ("cmsg_decode_errors", r.cmsg_decode_errors),
        ("rx_timestamp_kernel", r.rx_timestamp_kernel),
        ("rx_timestamp_user_fallback", r.rx_timestamp_user_fallback),
        ("reuseport_sockets", r.reuseport_sockets),
        ("steer_fallback", r.steer_fallbacks),
    ];
    let threads = r.rx_packets_per_thread.iter().enumerate();
    named
        .into_iter()
        .map(|(name, v)| (name.to_string(), v))
        .chain(threads.map(|(t, &v)| (format!("rx_packets_thread_{t}"), v)))
        .collect()
}

#[test]
fn duplicates_are_counted_but_never_inflate_arrivals() {
    let metrics = Arc::new(Registry::new("recv-dup-test"));
    let report = duplicate_run(Some(metrics.clone()));
    let log = report.log_for(6).unwrap();
    let rec = log.arrivals[&(4, 9)];
    assert_eq!(rec.received, 2, "one packet genuinely lost");
    assert_eq!(rec.duplicates, 3);
    assert_eq!(log.packets, 2);
    assert_eq!(log.duplicates, 3);
    assert_eq!(metrics.counter("duplicates").get(), 3);
    // One store: a private registry yields the same tallies, and
    // each tally is its named counter.
    let private = duplicate_run(None);
    assert_eq!(tallies(&private), tallies(&report));
    assert_eq!(report.rx_packets_per_thread, [2]);
    for (name, value) in tallies(&report) {
        assert_eq!(metrics.counter(&name).get(), value, "{name}");
    }
}

/// Finished sessions leave nothing behind in the registry: its
/// names after one completed session are its names after 21.
#[test]
fn completed_sessions_add_no_registry_entries() {
    let metrics = Arc::new(Registry::new("recv-leak-test"));
    let rig = rig(9, |c| ServerConfig {
        metrics: Some(metrics.clone()),
        ..c
    });
    let names = || -> BTreeSet<String> {
        let snapshot = metrics.snapshot();
        ["counters", "gauges", "histograms"]
            .into_iter()
            .filter_map(|kind| match snapshot.get(kind) {
                Some(badabing_metrics::json::Value::Obj(fields)) => Some(fields.clone()),
                _ => None,
            })
            .flatten()
            .map(|(name, _)| name)
            .collect()
    };
    let complete = |session: u32| {
        rig.open(session);
        rig.send(&probe(session, 0, 0, 0), 64);
        rig.client.fetch_report(session, 1, 1).unwrap();
    };
    complete(1);
    let after_one = names();
    for session in 2..=21 {
        complete(session);
    }
    assert_eq!(names(), after_one);
    let report = rig.finish();
    assert_eq!(report.sessions.len(), 21);
}

/// The exit registry carries the fleet view of the sessions still open
/// at stop: the same merge a mid-run fleet `EstimateRequest` returns.
#[test]
fn stop_publishes_the_fleet_estimate_as_gauges() {
    let metrics = Arc::new(Registry::new("recv-fleet-test"));
    let rig = rig(10, |c| ServerConfig {
        metrics: Some(metrics.clone()),
        ..c
    });
    for session in [1u32, 2] {
        rig.open(session);
        // Four two-slot experiments; a first slot that announces two
        // packets but delivers one reads as lost.
        for exp in 0..4u64 {
            for slot in [2 * exp, 2 * exp + 1] {
                let lossy = slot % 4 == u64::from(session);
                let h = ProbeHeader {
                    probe_len: if lossy { 2 } else { 1 },
                    ..probe(session, exp, slot, slot)
                };
                rig.send(&h, 64);
            }
        }
    }
    rig.clock.sleep(Duration::from_millis(20));
    let fleet = rig.client.fetch_estimate(1, EstimateScope::Fleet).unwrap();
    assert_eq!((fleet.sessions, fleet.estimates.experiments), (2, 8));
    let frequency = fleet.estimates.frequency().expect("experiments formed");
    assert!(frequency > 0.0, "the lossy slots count");

    let report = rig.finish();
    assert!(report.sessions.iter().all(|o| o.end == SessionEnd::Stopped));
    assert_eq!(metrics.gauge("fleet_sessions").get(), 2.0);
    assert_eq!(metrics.gauge("fleet_frequency").get(), frequency);
}

/// Reaping happens at fixed virtual instants: each session is reaped
/// after its idle deadline (as last moved by a SYN, a heartbeat or a
/// FIN) and at most 30 ms after it, whatever control traffic arrives
/// in between, and the server keeps serving.
#[test]
fn idle_session_is_reaped_and_the_server_keeps_serving() {
    enum Step {
        Syn(u32),
        Probe(u32),
        Heartbeat(u32),
        /// A FIN whose report is never fetched: it freezes the snapshot
        /// and refreshes the deadline, but only the watchdog ends it.
        Fin(u32),
        /// `sessions_idle_reaped` reads this.
        Reaped(u64),
    }
    use Step::*;
    let metrics = Arc::new(Registry::new("recv-idle-test"));
    let rig = rig(7, |c| ServerConfig {
        idle_timeout: Some(Duration::from_millis(200)),
        metrics: Some(metrics.clone()),
        ..c
    });
    // Virtual milliseconds after the first SYN. Idle deadlines: session
    // 2 at 320 (its heartbeat moved it from 200), 3 at 380 (its FIN
    // moved it from 260), 5 at 560 and 4 at 620 (its heartbeat moved it
    // from 440). Each is read 10 ms before and 40 ms after: on the
    // timeout loop a reap lands at most one 25 ms poll interval plus
    // the 5 ms minimum sweep gap after its deadline.
    let script = [
        (0, Syn(2)),
        (0, Probe(2)),
        (60, Syn(3)),
        (120, Heartbeat(2)),
        (180, Fin(3)),
        (240, Syn(4)),
        (310, Reaped(0)),
        (360, Reaped(1)),
        (360, Syn(5)),
        (370, Reaped(1)),
        (420, Reaped(2)),
        (420, Heartbeat(4)),
        (550, Reaped(2)),
        (600, Reaped(3)),
        (610, Reaped(3)),
        (660, Reaped(4)),
    ];
    let t0 = rig.clock.now();
    for (ms, step) in script {
        let at = t0 + Duration::from_millis(ms);
        rig.clock.sleep(at.saturating_sub(rig.clock.now()));
        match step {
            Syn(id) => rig.open(id),
            Probe(id) => rig.send(&probe(id, 0, 0, 0), 64),
            Heartbeat(id) => assert!(rig
                .client
                .heartbeat(id, ms, Duration::from_millis(5))
                .unwrap()),
            Fin(id) => {
                let fin = ControlMessage::Fin {
                    session: id,
                    probes_sent: 0,
                    packets_sent: 0,
                };
                rig.probes.send_to(&fin.encode(), rig.target).unwrap();
            }
            Reaped(n) => assert_eq!(
                metrics.counter("sessions_idle_reaped").get(),
                n,
                "sessions reaped at {ms} ms"
            ),
        }
    }
    // The server keeps serving: a new SYN opens a new session.
    rig.open(6);
    let report = rig.finish();
    let ends: Vec<(u32, SessionEnd, u64)> = report
        .sessions
        .iter()
        .map(|o| (o.session, o.end, o.summary.packets))
        .collect();
    assert_eq!(
        ends,
        [
            (2, SessionEnd::IdleTimeout, 1),
            (3, SessionEnd::IdleTimeout, 0),
            (5, SessionEnd::IdleTimeout, 0),
            (4, SessionEnd::IdleTimeout, 0),
            (6, SessionEnd::Stopped, 0),
        ]
    );
}

/// A FIN snapshot that takes the settled tally past the global budget
/// sheds the longest-idle session at once, under the evict policy, and
/// every slot and byte comes back when the sessions close.
#[test]
fn a_fin_snapshot_over_the_global_budget_evicts_the_longest_idle_session() {
    let budget = DEFAULT_SESSION_BUDGET_BYTES;
    let projected = SessionState::projected_bytes(&params(), budget);
    assert_eq!(
        SessionState::new(params(), budget, Duration::ZERO).mem_bytes(),
        projected,
        "an opened session settles to exactly its admission charge"
    );
    let metrics = Arc::new(Registry::new("recv-shed-test"));
    // Two open sessions fill the budget exactly, and two slots are all
    // there are: the closing re-admission below needs both tallies at
    // exactly zero.
    let rig = rig(9, |c| ServerConfig {
        max_sessions: 2,
        global_budget_bytes: Some(2 * projected),
        on_pressure: PressurePolicy::EvictIdle,
        metrics: Some(metrics.clone()),
        ..c
    });
    let evicted = || metrics.counter("sessions_evicted").get();
    rig.open(1);
    rig.clock.sleep(Duration::from_millis(10));
    rig.open(2);
    for slot in 0..4 {
        rig.send(&probe(2, slot, slot, slot), 64);
    }
    rig.clock.sleep(Duration::from_millis(10));
    assert_eq!(evicted(), 0, "two sessions fit until a FIN");

    // Session 2's FIN materializes its records: the tally crosses the
    // budget and session 1, idle the longest, is evicted.
    let (summary, records) = rig.client.fetch_report(2, 4, 4).unwrap();
    assert_eq!((summary.packets, records.len()), (4, 4));
    assert_eq!(evicted(), 1);
    // Session 1's sender is told on its next exchange.
    assert!(matches!(
        rig.client.fetch_report(1, 0, 0),
        Err(crate::control::ControlError::Rejected {
            reason: RejectReason::Evicted
        })
    ));

    // Both sessions have closed. Two fresh ones are admitted without a
    // refusal or another eviction, which needs zero slots and zero
    // bytes still held.
    rig.clock.sleep(Duration::from_millis(10));
    rig.open(3);
    rig.open(4);
    let report = rig.finish();
    assert_eq!((report.sessions_evicted, report.syns_rejected), (1, 0));
    let ends: Vec<(u32, SessionEnd)> = report.sessions.iter().map(|o| (o.session, o.end)).collect();
    assert_eq!(
        ends,
        [
            (1, SessionEnd::Evicted),
            (2, SessionEnd::Completed),
            (3, SessionEnd::Stopped),
            (4, SessionEnd::Stopped),
        ]
    );
}

/// A SYN for an open session is acked and refreshes it, but never
/// rewrites it: the opening SYN's params stay in the online
/// estimate's slot width and in the final log.
#[test]
fn a_syn_for_an_open_session_cannot_rewrite_it() {
    let rig = rig(8, |c| c);
    let first = params();
    rig.client.handshake(7, first).unwrap();
    // One complete two-slot experiment, so the estimate counts it.
    for slot in 0..2 {
        rig.send(&probe(7, 0, slot, slot), 64);
    }
    rig.clock.sleep(Duration::from_millis(20));
    let before = rig
        .client
        .fetch_estimate(7, EstimateScope::Session)
        .unwrap();
    assert_eq!(before.estimates.experiments, 1);
    assert_eq!(before.estimates.slot_secs, first.slot_ns as f64 / 1e9);

    rig.client
        .handshake(7, first)
        .expect("a same-params re-SYN is acked");
    let other = SessionParams {
        n_slots: 9_999,
        slot_ns: 1_000_000,
        ..first
    };
    rig.client
        .handshake(7, other)
        .expect("a SYN for an open session is acked");
    let after = rig
        .client
        .fetch_estimate(7, EstimateScope::Session)
        .unwrap();
    assert_eq!(after.estimates, before.estimates);

    let report = rig.finish();
    assert_eq!(report.log_for(7).unwrap().handshake, Some(first));
}

#[test]
fn report_roundtrips_through_records() {
    let mut log = ReceiverLog {
        packets: 5,
        duplicates: 1,
        ..Default::default()
    };
    log.arrivals.insert(
        (3, 7),
        ArrivalRecord {
            received: 2,
            duplicates: 1,
            qdelay_last_secs: 0.01,
            qdelay_max_secs: 0.02,
            kernel_stamped: true,
        },
    );
    log.arrivals.insert(
        (4, 1),
        ArrivalRecord {
            received: 3,
            duplicates: 0,
            qdelay_last_secs: 0.0,
            qdelay_max_secs: 0.0,
            kernel_stamped: false,
        },
    );
    let records = log.to_records();
    assert_eq!(records.len(), 2);
    assert!(records[0].experiment < records[1].experiment);
    let back = ReceiverLog::from_report(log.summary(), &records);
    assert_eq!(back.packets, 5);
    assert_eq!(back.duplicates, 1);
    assert_eq!(back.arrivals[&(3, 7)].received, 2);
    assert_eq!(back.arrivals[&(3, 7)].duplicates, 1);
    assert!(
        back.arrivals[&(3, 7)].kernel_stamped,
        "kernel-stamped flag survives the wire roundtrip"
    );
    assert!(!back.arrivals[&(4, 1)].kernel_stamped);
}

/// The differential contract: the same (header, timestamp, source)
/// sequence must yield **byte-identical** report chunks however the
/// syscall layer grouped it — one datagram at a time (fallback),
/// recv-batch chunks (recvmmsg), or super-datagram-sized chunks
/// (GRO splits). The I/O tiers differ only in grouping, never in
/// accounting.
#[test]
fn batched_and_single_ingest_reports_are_byte_identical() {
    let arrivals = synthetic_arrivals();

    let params = SessionParams {
        n_slots: 200,
        p: 0.2,
        ..params()
    };
    let ingest_in_chunks = |chunk: usize| -> SessionState {
        let mut state = SessionState::new(params, DEFAULT_SESSION_BUDGET_BYTES, Duration::ZERO);
        for batch in arrivals.chunks(chunk) {
            for (h, now, source) in batch {
                state.ingest(h, *now, *source);
            }
        }
        state
    };

    // "Fallback": one datagram per ingest call.
    let mut single = ingest_in_chunks(1);
    // "Batched": the same stream in chunks of a recv batch.
    let mut batched = ingest_in_chunks(DEFAULT_RECV_BATCH);
    // "GRO": the same stream grouped like split super-datagrams (up
    // to 64 segments surface from one slot, plus the short tail).
    let mut gro = ingest_in_chunks(65);

    let fs = single.finalize(3, &Histogram::latency());
    let single_records = fs.records.clone();
    let single_total = fs.total_chunks();
    let single_summary = fs.summary;
    assert!(
        single_records.iter().any(|r| r.flags == 0)
            && single_records
                .iter()
                .any(|r| r.flags & RECORD_FLAG_KERNEL_STAMPED != 0),
        "stream must exercise both timestamp sources"
    );
    assert!(single_total > 1, "test must span multiple chunks");

    let mut buf_a = [0u8; MAX_CONTROL_BYTES];
    let mut buf_b = [0u8; MAX_CONTROL_BYTES];
    for (label, other) in [("batched", &mut batched), ("gro", &mut gro)] {
        let fb = other.finalize(3, &Histogram::latency());
        assert_eq!(fb.records, single_records, "{label} records differ");
        assert_eq!(fb.total_chunks(), single_total);
        assert_eq!(fb.summary, single_summary);
        for chunk in 0..single_total {
            let na = encode_report_chunk_into(
                11,
                chunk,
                single_total,
                chunk_window(&single_records, chunk),
                &mut buf_a,
            );
            let nb = encode_report_chunk_into(
                11,
                chunk,
                fb.total_chunks(),
                chunk_window(&fb.records, chunk),
                &mut buf_b,
            );
            assert_eq!(
                &buf_a[..na],
                &buf_b[..nb],
                "report chunk {chunk} differs between single and {label} groupings"
            );
        }
    }
}

/// Satellite regression: the SYN-carried run size must pre-size the
/// session so the hot path never reallocates mid-run, and the
/// accounting must charge exactly what admission projected.
#[test]
fn syn_params_presize_session_maps() {
    let params = SessionParams {
        n_slots: 10_000,
        slot_ns: 5_000_000,
        probe_packets: 3,
        packet_bytes: 600,
        p: 0.3,
        improved: true,
    };
    let state = SessionState::new(params, DEFAULT_SESSION_BUDGET_BYTES, Duration::ZERO);
    // ceil(10_000 * 0.3) experiments (plus headroom) × 3 slots
    // each × 3 packets = at least 27_000 packet-level entries.
    let fp = state.footprint();
    assert!(fp.cells >= 3_000, "dense table under-sized: {fp:?}");
    assert!(fp.seqs >= 27_000, "dedup range under-sized: {fp:?}");
    assert!(fp.raw >= 27_000, "raw-delay series under-sized: {fp:?}");
    assert_eq!(
        state.mem_bytes(),
        SessionState::projected_bytes(&params, DEFAULT_SESSION_BUDGET_BYTES),
        "accounting and admission must share one byte formula"
    );
    // The cap keeps a hostile SYN from reserving unbounded memory.
    let hostile = SessionParams {
        n_slots: u64::MAX,
        p: 1.0,
        ..params
    };
    let state = SessionState::new(hostile, DEFAULT_SESSION_BUDGET_BYTES, Duration::ZERO);
    assert!(state.footprint().cells < (1 << 21), "reserve cap ignored");
}

/// Satellite regression (pre-fix failure): the probe-count cap
/// alone is not enough — `probe_packets` multiplied the capped
/// count back out, so a single hostile SYN with `probe_packets:
/// 255` demanded a ~500M-entry (multi-GB) reservation for the
/// dedup state and raw-delay series. Both per-packet containers
/// must honor the hard cap and the per-session byte budget.
#[test]
fn hostile_syn_cannot_reserve_unbounded_packet_state() {
    let hostile = SessionParams {
        n_slots: u64::MAX,
        slot_ns: 5_000_000,
        probe_packets: 255,
        packet_bytes: 600,
        p: 1.0,
        improved: true,
    };
    let state = SessionState::new(hostile, DEFAULT_SESSION_BUDGET_BYTES, Duration::ZERO);
    let fp = state.footprint();
    assert!(fp.seqs <= 1 << 22, "dedup reservation unbounded: {fp:?}");
    assert!(fp.raw <= 1 << 22, "raw-delay reservation unbounded: {fp:?}");
    // And the whole reservation respects the per-session budget.
    assert!(
        state.mem_bytes() <= DEFAULT_SESSION_BUDGET_BYTES,
        "reservation ignores the session budget: {} bytes",
        state.mem_bytes()
    );

    // A tight budget scales the reservation down proportionally
    // and composes with admission's projected charge.
    let budget = 1 << 20; // 1 MiB
    let tight = SessionState::new(hostile, budget, Duration::ZERO);
    let projected = SessionState::projected_bytes(&hostile, budget);
    assert!(
        projected <= budget,
        "projected admission charge exceeds the session budget"
    );
    assert!(
        tight.mem_bytes() <= projected,
        "tight budget ignored: {} bytes reserved, {projected} charged",
        tight.mem_bytes()
    );
    assert!(tight.footprint().cells > 0, "scaled, not dropped");
}

/// Two drain threads, one sender socket: session-keyed steering
/// sends session 2 to thread 0 and session 1 to thread 1 although
/// both share one source 4-tuple, and neither session records
/// differently for it (end-to-end smoke over loopback).
#[test]
fn one_sender_socket_spreads_sessions_by_id() {
    let metrics = Arc::new(Registry::new("recv-threads-test"));
    let handle = start_server(ServerConfig {
        metrics: Some(metrics.clone()),
        recv_threads: 2,
        ..ServerConfig::any(local0(), 8)
    })
    .unwrap();
    let target = handle.local_addr();
    let sock = UdpSocket::bind(local0()).unwrap();
    // Open two sessions via SYN, then interleave probes. Each
    // session's SYN reaches its thread's queue ahead of its probes.
    for session in [1u32, 2] {
        let syn = ControlMessage::Syn {
            session,
            params: SessionParams {
                probe_packets: 1,
                ..params()
            },
        };
        sock.send_to(&syn.encode(), target).unwrap();
    }
    for i in 0..20u64 {
        for session in [1u32, 2] {
            send_header(&sock, target, &probe(session, i, i, i), 64);
        }
    }
    let accepted = metrics.counter("packets_accepted");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while accepted.get() < 40 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let report = handle.stop();
    assert_eq!(accepted.get(), 40);
    assert_eq!(report.sessions.len(), 2);
    for outcome in &report.sessions {
        assert_eq!(
            outcome.summary.packets, 20,
            "session {} dropped packets",
            outcome.session
        );
    }
    assert_eq!(metrics.counter("sessions_opened").get(), 2);
    // The drain loops flush their ring stats on exit.
    assert!(metrics.counter("recv_datagrams").get() >= 42);
    assert!(metrics.counter("recv_syscalls").get() >= 1);
    if crate::batch_io::kernel_offload_caps().reuseport_ready() {
        assert_eq!(report.steer_fallbacks, 0);
        assert_eq!(report.rx_packets_per_thread, vec![20, 20]);
    }
}

/// A control reply never runs ahead of the counters: once a heartbeat
/// sent behind K probes is acked, the server-wide and per-thread probe
/// counters both read K, although the probes and the heartbeat may
/// share one batch (real UDP, one socket, so they queue in order). The
/// race this pins is narrow, so the test runs many rounds.
#[test]
fn counters_include_every_probe_queued_ahead_of_an_acked_heartbeat() {
    let metrics = Arc::new(Registry::new("counters-before-replies"));
    let handle = start_server(ServerConfig {
        metrics: Some(metrics.clone()),
        ..ServerConfig::any(local0(), 4)
    })
    .unwrap();
    let target = handle.local_addr();
    let sock = UdpSocket::bind(local0()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; MAX_CONTROL_BYTES];
    let mut reply = |sent: ControlMessage| {
        sock.send_to(&sent.encode(), target).unwrap();
        let n = sock.recv(&mut buf).expect("reply within 5 s");
        ControlMessage::decode(&buf[..n]).unwrap()
    };
    let (k, rounds) = (16u64, 200u64);
    let params = SessionParams {
        n_slots: k * rounds,
        probe_packets: 1,
        ..params()
    };
    let got = reply(ControlMessage::Syn { session: 5, params });
    assert!(matches!(got, ControlMessage::SynAck { .. }), "{got:?}");
    for round in 0..rounds {
        for i in 0..k {
            let slot = round * k + i;
            send_header(&sock, target, &probe(5, slot, slot, slot), 64);
        }
        let got = reply(ControlMessage::Heartbeat {
            session: 5,
            seq: round,
        });
        assert!(
            matches!(got, ControlMessage::HeartbeatAck { .. }),
            "{got:?}"
        );
        let want = (round + 1) * k;
        assert_eq!(metrics.counter("packets_accepted").get(), want);
        assert_eq!(metrics.counter("rx_packets_thread_0").get(), want);
    }
    handle.stop();
}

/// The zero-allocation claim of the module docs: once a SYN has
/// sized the session, ingesting a paper-shaped stream (loss,
/// duplicates, reordering, mixed stamp sources) allocates nothing,
/// and none of it spills out of the dense table.
#[test]
fn steady_state_ingest_allocates_nothing() {
    let params = SessionParams {
        n_slots: 20_000,
        slot_ns: 5_000_000,
        probe_packets: 3,
        packet_bytes: 64,
        p: 0.3,
        improved: true,
    };
    let mut stream = planned_stream(&params, 7);
    stream.retain(|h| h.slot % 97 != 13);
    let dups: Vec<ProbeHeader> = stream.iter().step_by(500).copied().collect();
    stream.extend(dups);
    for i in (0..stream.len().saturating_sub(8)).step_by(5) {
        stream.swap(i, i + 7);
    }
    let mut state = SessionState::new(params, DEFAULT_SESSION_BUDGET_BYTES, Duration::ZERO);

    let before = alloc_count::allocations();
    for (i, h) in stream.iter().enumerate() {
        let source = if i % 9 == 0 {
            TimestampSource::User
        } else {
            TimestampSource::Kernel
        };
        state.ingest(h, Duration::from_nanos(h.send_ns + 40_000), source);
    }
    let allocs = alloc_count::allocations() - before;

    assert_eq!(allocs, 0, "steady-state ingest allocated {allocs} times");
    assert!(state.duplicates > 0 && state.packets > 40_000);
    let fp = state.footprint();
    assert_eq!(
        (fp.spill_probes, fp.spill_seen, fp.spill_exps),
        (0, 0, 0),
        "a paper-shaped stream must stay in the dense table"
    );
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

    /// The session table against the ordered-map reference model, on
    /// streams mixing every key the dense form cannot hold.
    #[test]
    fn session_table_matches_the_reference_model(
        shape in ((1u64..1_500, 1u32..=10), (proptest::prelude::any::<bool>(), 1u8..=3), 0u64..1_000),
        mode in (0u32..4, 0u32..=100),
        ops in proptest::collection::vec((0u32..100, proptest::prelude::any::<u64>(), 0u32..100_000), 1..700),
    ) {
        let ((n_slots, p10), (improved, probe_packets), seed) = shape;
        let (tight, fin_pct) = mode;
        let params = SessionParams {
            n_slots,
            slot_ns: 5_000_000,
            probe_packets,
            packet_bytes: 64,
            p: f64::from(p10) / 10.0,
            improved,
        };
        // Tight budgets cut the dense range short of the run.
        let budget = [DEFAULT_SESSION_BUDGET_BYTES, 4_096, 16_384, 65_536][tight as usize];
        let stream = hostile_stream(planned_stream(&params, seed), &ops);
        let fin_at = stream.len() * fin_pct as usize / 100;
        let checked = check_against_model(params, budget, &stream, fin_at);
        proptest::prop_assert!(checked.is_ok(), "{}", checked.err().unwrap_or_default());
    }
}

/// Every key kind the dense form cannot hold, in one fixed stream:
/// each must spill, and the session must still match the model.
#[test]
fn every_hostile_key_spills_and_matches_the_model() {
    let params = SessionParams {
        n_slots: 400,
        slot_ns: 5_000_000,
        probe_packets: 3,
        packet_bytes: 64,
        p: 0.3,
        improved: true,
    };
    let planned = planned_stream(&params, 3);
    // Deliver a while, then one op of every hostile kind, then the
    // rest of the plan.
    let mut ops: Vec<(u32, u64, u32)> = (0..60).map(|i| (0, i, 17)).collect();
    for kind in [55, 62, 66, 70, 73, 77, 80, 84, 90] {
        ops.push((kind, 3, 4));
        ops.push((kind, 8, 5));
    }
    ops.extend((0..planned.len() as u64).map(|i| (0, i, 29)));
    let stream = hostile_stream(planned, &ops);
    let state = check_against_model(params, DEFAULT_SESSION_BUDGET_BYTES, &stream, stream.len())
        .unwrap_or_else(|e| panic!("{e}"));
    let fp = state.footprint();
    assert!(
        fp.spill_probes > 0 && fp.spill_seen > 0 && fp.spill_exps > 0,
        "{fp:?}"
    );
}

/// A finished session keeps its FIN snapshot as it was served: its
/// `log()` is the sender-side `ReceiverLog::from_report` of the fetched
/// summary and records, with the handshake, and saves to the same bytes.
#[test]
fn outcome_log_is_the_fetched_report_with_its_handshake() {
    let rig = rig(21, |c| c);
    rig.open(8);
    let mut seq = 0;
    for exp in 0..40u64 {
        for slot in [2 * exp, 2 * exp + 1] {
            // Every sixth experiment loses its probes' second packet.
            let packets = if exp % 6 == 5 { 1 } else { 2 };
            for idx in 0..packets {
                let h = ProbeHeader {
                    send_ns: 1_000 * seq,
                    idx,
                    probe_len: 2,
                    ..probe(8, exp, slot, seq)
                };
                rig.send(&h, 64);
                if exp % 7 == 3 {
                    rig.send(&h, 64);
                }
                seq += 1;
            }
        }
        rig.clock.sleep(Duration::from_millis(3));
    }
    rig.clock.sleep(Duration::from_millis(20));
    let (summary, records) = rig.client.fetch_report(8, 80, seq).unwrap();
    assert_eq!(records.len(), 80);
    assert!(summary.duplicates > 0);
    let report = rig.finish();
    let outcome = &report.sessions[0];
    assert_eq!((outcome.session, outcome.end), (8, SessionEnd::Completed));
    assert_eq!(outcome.summary, summary);
    assert_eq!(outcome.records, records);

    let fetched = ReceiverLog {
        handshake: Some(params()),
        ..ReceiverLog::from_report(summary, &records)
    };
    let log = outcome.log();
    assert_eq!(log.handshake, fetched.handshake);
    assert_eq!(log.summary(), fetched.summary());
    assert_eq!(log.to_records(), records);
    let saved = |log: &ReceiverLog, name: &str| {
        let dir = std::env::temp_dir().join(format!("badabing-outcome-log-{name}"));
        let path = dir.join("log.json");
        log.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    };
    assert_eq!(saved(&log, "outcome"), saved(&fetched, "fetched"));
    let by_id = report.log_for(8).expect("session 8 finished");
    assert_eq!(saved(&by_id, "by-id"), saved(&fetched, "fetched-again"));
}
