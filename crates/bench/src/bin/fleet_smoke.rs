//! The fleet-scale receiver soak: thousands of concurrent sessions on
//! one server over the seeded virtual network, with a JSON trajectory
//! point (`BENCH_fleet.json`).
//!
//! One driver thread opens **every** session before fetching any, so
//! the server really holds the whole fleet concurrently — the regime
//! the deadline-scheduled watchdog and the sharded registry exist for.
//! Per session the driver measures three control-plane latencies on the
//! *virtual* clock:
//!
//! 1. **setup** — SYN to SYN-ACK, the admission path (capacity CAS,
//!    budget charge, shard insert);
//! 2. **drain** — a heartbeat round trip issued right behind the
//!    session's probe burst, so the ack only comes back once the
//!    receiver has chewed through the burst ahead of it;
//! 3. **fetch** — FIN through the last report chunk, the chunked
//!    retrieval path.
//!
//! Each session's burst forms proper BADABING experiments — two
//! contiguous slots (2j, 2j+1) of `TRAIN` packets — so the receiver's
//! online estimator assembles real outcomes. Between the burst phase
//! and the fetch phase one **fleet-scope `EstimateRequest`** merges all
//! live sessions' online counters in a single exchange; the reply rides
//! in the stable JSON, which makes the merged-estimate path part of the
//! `--quick` byte-identical determinism gate.
//!
//! Every link carries mild faults (0.5 % loss, 200 µs jitter on a
//! 100 µs base), so the tails include genuine retransmits — the p999
//! is a retry story, not a rounding artifact. All latencies are virtual
//! nanoseconds: the numbers measure protocol behavior (RTTs, backoff
//! schedules, queueing behind bursts), not host speed, which is what
//! makes them gateable in CI and byte-identical across reruns.
//!
//! `--quick` additionally runs the whole scenario **twice** from the
//! same seed and asserts the two JSON payloads are byte-identical —
//! the determinism contract of the virtual network, checked end to end
//! through the real server.
//!
//! The gates: every session must complete (no reaps, no evictions, no
//! strands), the latency quantiles must stay under generous structural
//! bounds, and the registry's memory high-water mark must stay within
//! the configured global budget.
//!
//! ```text
//! fleet_smoke [--quick] [--sessions N] [--out PATH]
//! ```

use badabing_live::control::{ControlClient, ControlConfig, EstimateReport};
use badabing_live::faultnet::{FaultNet, LinkFaults};
use badabing_live::provider::Provider;
use badabing_live::receiver::{start_server, PressurePolicy, ServerConfig, SessionEnd};
use badabing_metrics::Registry;
use badabing_wire::control::{EstimateScope, SessionParams};
use badabing_wire::ProbeHeader;
use std::io::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 4242;
const RECV: &str = "10.0.0.1:9000";
const PROBE_SRC: &str = "10.0.0.3:7000";
/// Control sockets live at `10.0.0.2:FLEET_PORT0 + i`.
const FLEET_PORT0: u16 = 10_000;

const LOSS: f64 = 0.005;
const JITTER: Duration = Duration::from_micros(200);
const PACKET_BYTES: usize = 256;
const TRAIN: usize = 3;

/// Latency gates, in virtual nanoseconds. The base control RTT is
/// ~200 µs; one lost datagram costs a 25 ms retransmit timer (the
/// heartbeat wait below is pinned to the same 25 ms so a lost ack costs
/// one timer, not an arbitrary caller-chosen timeout — the old 500 ms
/// wait was the entire drain p999 "outlier"). At 0.5 % per-direction
/// loss roughly 1 % of exchanges retry once and ~0.01 % twice, so the
/// ceilings below allow two back-to-back retries and still sit an order
/// of magnitude under anything that would indicate the receiver
/// genuinely stranding a session.
const SETUP_P99_MAX_NS: u64 = 200_000_000;
const DRAIN_P999_MAX_NS: u64 = 75_000_000;
const FETCH_P999_MAX_NS: u64 = 5_000_000_000;

/// One heartbeat wait: matches the control plane's 25 ms retransmit
/// base so a lost request or ack costs exactly one timer tick of
/// virtual time before the retry.
const HEARTBEAT_WAIT: Duration = Duration::from_millis(25);

const GLOBAL_BUDGET_BYTES: usize = 256 << 20;

fn addr(s: &str) -> SocketAddr {
    s.parse().unwrap()
}

/// Exact upper quantile of a sorted sample: the smallest value with at
/// least `p` of the mass at or below it.
fn quantile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[idx.clamp(1, sorted.len()) - 1]
}

struct Quantiles {
    p50: u64,
    p99: u64,
    p999: u64,
    max: u64,
}

fn quantiles(mut v: Vec<u64>) -> Quantiles {
    v.sort_unstable();
    Quantiles {
        p50: quantile(&v, 0.50),
        p99: quantile(&v, 0.99),
        p999: quantile(&v, 0.999),
        max: v.last().copied().unwrap_or(0),
    }
}

struct RunStats {
    setup: Quantiles,
    drain: Quantiles,
    fetch: Quantiles,
    records_fetched: u64,
    sessions_completed: u64,
    mem_peak_bytes: usize,
    rejected: u64,
    syns_rejected: u64,
    chunk_nacks: u64,
    fleet_estimate: EstimateReport,
    wall_secs: f64,
}

/// One full soak: open all `sessions`, burst + heartbeat each, query
/// the merged fleet estimate, then fetch every report. Deterministic
/// given (`SEED`, `sessions`, `experiments`): everything observable
/// runs on the virtual clock.
fn run_fleet(sessions: u32, experiments: u64) -> RunStats {
    let started = Instant::now();
    let net = FaultNet::new(SEED);
    let mild = LinkFaults::uniform_loss(LOSS).with_jitter(JITTER);
    let recv = addr(RECV);
    let probe_src = addr(PROBE_SRC);
    net.set_faults(probe_src, recv, mild.clone());
    for i in 0..sessions {
        let ctl: SocketAddr = SocketAddr::new(addr("10.0.0.2:0").ip(), FLEET_PORT0 + i as u16);
        net.set_faults(ctl, recv, mild.clone());
        net.set_faults(recv, ctl, mild.clone());
    }
    let provider = Provider::Fault(net.clone());
    let clock = provider.clock();

    let metrics = Arc::new(Registry::new("fleet_smoke"));
    let server = start_server(ServerConfig {
        provider: provider.clone(),
        idle_timeout: Some(Duration::from_secs(120)),
        metrics: Some(metrics.clone()),
        global_budget_bytes: Some(GLOBAL_BUDGET_BYTES),
        on_pressure: PressurePolicy::Reject,
        ..ServerConfig::any(recv, sessions as usize + 16)
    })
    .expect("start fleet server");

    let params = SessionParams {
        n_slots: (2 * experiments).max(1),
        slot_ns: 1_000_000,
        probe_packets: TRAIN as u8,
        packet_bytes: PACKET_BYTES as u32,
        p: 0.3,
        improved: true,
    };

    // Phase 1: open the whole fleet before any session sends a probe.
    // Session ids and control ports are both `i`-derived, so reruns
    // replay the identical admission sequence.
    let mut clients = Vec::with_capacity(sessions as usize);
    let mut setup_ns = Vec::with_capacity(sessions as usize);
    for i in 0..sessions {
        let mut cfg = ControlConfig::new(recv);
        cfg.provider = provider.clone();
        cfg.bind = Some(SocketAddr::new(
            addr("10.0.0.2:0").ip(),
            FLEET_PORT0 + i as u16,
        ));
        let client = ControlClient::connect(cfg, None).expect("bind control socket");
        let t0 = clock.now();
        client
            .handshake(session_id(i), params)
            .unwrap_or_else(|e| panic!("session {i} refused at setup: {e:?}"));
        setup_ns.push((clock.now() - t0).as_nanos() as u64);
        clients.push(client);
    }

    // Phase 2: per session, a probe burst followed immediately by a
    // heartbeat. Experiment `j` occupies the contiguous slot pair
    // (2j, 2j+1) — the §3 geometry the online estimator assembles —
    // with `TRAIN` packets per slot. The heartbeat ack arrives only
    // after the receiver has drained the burst queued ahead of it on
    // the same socket, so this RTT is the per-session drain latency
    // under fleet load.
    let probe_sock = net.bind(probe_src).expect("bind probe socket");
    let mut buf = [0u8; PACKET_BYTES];
    let mut drain_ns = Vec::with_capacity(sessions as usize);
    for (i, client) in clients.iter().enumerate() {
        let id = session_id(i as u32);
        for j in 0..experiments {
            for k in 0..2u64 {
                let slot = 2 * j + k;
                for idx in 0..TRAIN {
                    ProbeHeader {
                        session: id,
                        experiment: j,
                        slot,
                        seq: slot * TRAIN as u64 + idx as u64,
                        send_ns: clock.now().as_nanos() as u64,
                        idx: idx as u8,
                        probe_len: TRAIN as u8,
                    }
                    .encode_into(&mut buf);
                    probe_sock.send_to(&buf, recv).expect("send probe");
                }
            }
        }
        let t0 = clock.now();
        let mut acked = false;
        for _ in 0..8 {
            if client
                .heartbeat(id, 1, HEARTBEAT_WAIT)
                .expect("heartbeat io")
            {
                acked = true;
                break;
            }
        }
        assert!(acked, "session {i} heartbeat never acked post-burst");
        drain_ns.push((clock.now() - t0).as_nanos() as u64);
    }

    // Phase 2½: one fleet-scope estimate query while every session is
    // still live. All bursts are drained (each session's heartbeat
    // acked behind its own burst), so the merged counters are a pure
    // function of the seed-determined packet deliveries — which puts
    // this reply inside the byte-identical determinism gate.
    let fleet_estimate = clients[0]
        .fetch_estimate(session_id(0), EstimateScope::Fleet)
        .expect("fleet estimate query");
    assert_eq!(
        fleet_estimate.sessions, sessions,
        "fleet estimate must merge every live session"
    );
    assert!(
        fleet_estimate.estimates.experiments > 0,
        "two-slot bursts must assemble online experiments"
    );
    assert!(
        fleet_estimate.estimates.experiments <= sessions as u64 * experiments,
        "merged experiments cannot exceed the offered population"
    );

    // Phase 3: fetch every report — FIN, chunks, closing ack.
    let probes = 2 * experiments;
    let mut fetch_ns = Vec::with_capacity(sessions as usize);
    let mut records_fetched = 0u64;
    for (i, client) in clients.iter().enumerate() {
        let id = session_id(i as u32);
        let t0 = clock.now();
        let (_, records) = client
            .fetch_report(id, probes, probes * TRAIN as u64)
            .unwrap_or_else(|e| panic!("session {i} stranded mid-fetch: {e:?}"));
        fetch_ns.push((clock.now() - t0).as_nanos() as u64);
        records_fetched += records.len() as u64;
    }

    // The closing acks are fire-and-forget; wait (unenrolled, so the
    // virtual world keeps moving) until the server has retired every
    // session before reading its report.
    let completed = metrics.counter("sessions_completed");
    net.unenrolled(|| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while completed.get() < sessions as u64 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    });

    let report = server.stop();
    let done = report
        .sessions
        .iter()
        .filter(|s| s.end == SessionEnd::Completed)
        .count();
    assert_eq!(
        done,
        sessions as usize,
        "every session must complete: {done} of {sessions} (ends: {:?})",
        ends_histogram(&report.sessions.iter().map(|s| s.end).collect::<Vec<_>>())
    );

    RunStats {
        setup: quantiles(setup_ns),
        drain: quantiles(drain_ns),
        fetch: quantiles(fetch_ns),
        records_fetched,
        sessions_completed: done as u64,
        mem_peak_bytes: report.mem_peak_bytes,
        rejected: report.rejected,
        syns_rejected: report.syns_rejected,
        chunk_nacks: report.chunk_nacks,
        fleet_estimate,
        wall_secs: started.elapsed().as_secs_f64(),
    }
}

fn session_id(i: u32) -> u32 {
    0x4000_0000 + i
}

fn ends_histogram(ends: &[SessionEnd]) -> Vec<(SessionEnd, usize)> {
    let mut out: Vec<(SessionEnd, usize)> = Vec::new();
    for &e in ends {
        match out.iter_mut().find(|(k, _)| *k == e) {
            Some((_, n)) => *n += 1,
            None => out.push((e, 1)),
        }
    }
    out
}

fn q_json(label: &str, q: &Quantiles) -> String {
    format!(
        "  \"{label}_ns\": {{\"p50\": {}, \"p99\": {}, \"p999\": {}, \"max\": {}}},",
        q.p50, q.p99, q.p999, q.max
    )
}

/// The JSON body minus the fields that legitimately differ between
/// reruns (`quick`, wall time) — this is the string the determinism
/// check compares byte-for-byte.
fn stable_json(sessions: u32, experiments: u64, stats: &RunStats) -> String {
    let est = &stats.fleet_estimate.estimates;
    [
        format!("  \"sessions\": {sessions},"),
        format!("  \"experiments_per_session\": {experiments},"),
        format!("  \"probes_per_session\": {},", 2 * experiments),
        format!("  \"packets_per_probe\": {TRAIN},"),
        format!("  \"packet_bytes\": {PACKET_BYTES},"),
        format!("  \"seed\": {SEED},"),
        format!(
            "  \"faults\": {{\"loss\": {LOSS}, \"jitter_us\": {}, \"base_latency_us\": 100}},",
            JITTER.as_micros()
        ),
        q_json("setup", &stats.setup),
        q_json("drain", &stats.drain),
        q_json("fetch", &stats.fetch),
        format!(
            concat!(
                "  \"server\": {{\"sessions_completed\": {}, \"records_fetched\": {}, ",
                "\"mem_peak_bytes\": {}, \"global_budget_bytes\": {}, \"rejected\": {}, ",
                "\"syns_rejected\": {}, \"chunk_nacks\": {}}},"
            ),
            stats.sessions_completed,
            stats.records_fetched,
            stats.mem_peak_bytes,
            GLOBAL_BUDGET_BYTES,
            stats.rejected,
            stats.syns_rejected,
            stats.chunk_nacks,
        ),
        format!(
            concat!(
                "  \"fleet_estimate\": {{\"sessions_merged\": {}, \"experiments\": {}, ",
                "\"z_sum\": {}, \"basic\": {}, \"extended\": {}, \"r\": {}, \"s\": {}, ",
                "\"u\": {}, \"v\": {}, \"malformed\": {}, \"delay_samples\": {}, ",
                "\"delay_p50_secs\": {}, \"delay_p99_secs\": {}}},"
            ),
            stats.fleet_estimate.sessions,
            est.experiments,
            est.z_sum,
            est.basic_experiments,
            est.extended_experiments,
            est.r,
            est.s,
            est.u,
            est.v,
            est.outcomes_malformed,
            stats.fleet_estimate.delay.samples,
            stats.fleet_estimate.delay.p50_secs,
            stats.fleet_estimate.delay.p99_secs,
        ),
        format!(
            "  \"gate\": {{\"setup_p99_max_ns\": {SETUP_P99_MAX_NS}, \
             \"drain_p999_max_ns\": {DRAIN_P999_MAX_NS}, \
             \"fetch_p999_max_ns\": {FETCH_P999_MAX_NS}, \"gated\": true}}"
        ),
    ]
    .join("\n")
}

fn main() {
    let mut quick = false;
    let mut sessions: Option<u32> = None;
    let mut out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--sessions" => sessions = args.next().and_then(|v| v.parse().ok()),
            "--out" => out = args.next().map(PathBuf::from),
            other => {
                eprintln!(
                    "unknown flag {other} (fleet_smoke [--quick] [--sessions N] [--out PATH])"
                );
                std::process::exit(2);
            }
        }
    }
    let sessions = sessions.unwrap_or(2048);
    let experiments: u64 = if quick { 2 } else { 4 };

    println!(
        "=== fleet_smoke: {sessions} concurrent sessions, {experiments} two-slot experiments \
         each, {:.1}% loss links ===",
        LOSS * 100.0
    );

    let stats = run_fleet(sessions, experiments);
    let payload = stable_json(sessions, experiments, &stats);

    println!(
        "setup  p50 {:>7.1} µs  p99 {:>9.1} µs  p999 {:>9.1} µs",
        stats.setup.p50 as f64 / 1e3,
        stats.setup.p99 as f64 / 1e3,
        stats.setup.p999 as f64 / 1e3,
    );
    println!(
        "drain  p50 {:>7.1} µs  p99 {:>9.1} µs  p999 {:>9.1} µs",
        stats.drain.p50 as f64 / 1e3,
        stats.drain.p99 as f64 / 1e3,
        stats.drain.p999 as f64 / 1e3,
    );
    println!(
        "fetch  p50 {:>7.1} µs  p99 {:>9.1} µs  p999 {:>9.1} µs",
        stats.fetch.p50 as f64 / 1e3,
        stats.fetch.p99 as f64 / 1e3,
        stats.fetch.p999 as f64 / 1e3,
    );
    println!(
        "{} sessions completed, {} records fetched, registry peak {:.2} MiB, {:.1}s wall",
        stats.sessions_completed,
        stats.records_fetched,
        stats.mem_peak_bytes as f64 / (1 << 20) as f64,
        stats.wall_secs,
    );
    println!(
        "fleet estimate: {} sessions merged, {} experiments, F={}, {} delay samples",
        stats.fleet_estimate.sessions,
        stats.fleet_estimate.estimates.experiments,
        stats
            .fleet_estimate
            .estimates
            .frequency()
            .map_or_else(|| "n/a".to_string(), |f| format!("{f:.4}")),
        stats.fleet_estimate.delay.samples,
    );

    // The latency gates: structural ceilings, not hardware measurements
    // (see the consts for the retry arithmetic behind them).
    assert!(
        stats.setup.p99 <= SETUP_P99_MAX_NS,
        "fleet gate: setup p99 {} ns exceeds {SETUP_P99_MAX_NS} ns",
        stats.setup.p99
    );
    assert!(
        stats.drain.p999 <= DRAIN_P999_MAX_NS,
        "fleet gate: drain p999 {} ns exceeds {DRAIN_P999_MAX_NS} ns",
        stats.drain.p999
    );
    assert!(
        stats.fetch.p999 <= FETCH_P999_MAX_NS,
        "fleet gate: fetch p999 {} ns exceeds {FETCH_P999_MAX_NS} ns",
        stats.fetch.p999
    );
    assert!(
        stats.mem_peak_bytes <= GLOBAL_BUDGET_BYTES,
        "fleet gate: registry peak {} exceeds the global budget",
        stats.mem_peak_bytes
    );
    assert!(stats.records_fetched > 0, "fleet gate: no records fetched");

    // Quick mode doubles as the determinism gate: the same seed must
    // reproduce the same virtual-time story byte for byte.
    if quick {
        println!("[determinism check: re-running the identical scenario]");
        let second = run_fleet(sessions, experiments);
        let replay = stable_json(sessions, experiments, &second);
        assert_eq!(
            payload, replay,
            "fleet gate: same-seed rerun produced a different trajectory"
        );
        println!("[determinism check: byte-identical]");
    }

    let json = format!("{{\n  \"name\": \"fleet_smoke\",\n  \"quick\": {quick},\n{payload}\n}}\n");
    let path = out.unwrap_or_else(|| PathBuf::from("BENCH_fleet.json"));
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            f.write_all(json.as_bytes()).unwrap();
            println!("[bench json written to {}]", path.display());
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}
