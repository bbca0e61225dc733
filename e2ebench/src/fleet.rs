//! `fleet-churn`: 512 concurrent small sessions per unit, multiplexed
//! over one control socket and one probe socket, so the control plane
//! (admission, estimate merge, finalize, one-chunk fetch, reap) does
//! most of the work and the probe path little.
//!
//! Throughput is sessions completed per wall second (`sessions_per_s`),
//! an operation is one accepted probe packet, so `cpu_ns_per_op` is the
//! receiver's CPU per packet (`server_cpu_ns_per_pkt`), and the step is
//! one SYN→SYN-ACK (`session_setup`).

use crate::acc::{Meter, Unit};
use crate::live::{self, us, Server};
use crate::procfs;
use crate::trace::{SpanId, Tracer};
use badabing_core::estimator::Estimates;
use badabing_stats::rng::seeded;
use badabing_wire::control::{EstimateScope, SessionParams};
use badabing_wire::ProbeHeader;
use std::time::{Duration, Instant};

/// Concurrent sessions per unit.
pub const SESSIONS: usize = 512;
const SLOTS: u64 = 64;
const SLOT_NS: u64 = 5_000_000;
const P: f64 = 0.3;
const TRAIN: u8 = 3;
const PACKET_BYTES: usize = 600;
const ACK_TIMEOUT: Duration = Duration::from_secs(2);

/// One unit: a fresh receiver and one cycle of [`SESSIONS`] sessions:
/// every session opens, bursts and is queried, one fleet-scope query
/// covers them all, then every session is finalized and fetched.
pub fn unit(seed: u64, tr: &mut Tracer) -> Unit {
    let traced = tr.is_on();
    let mut u = Unit::default();
    let plans: Vec<Vec<(u64, u64)>> = (0..SESSIONS)
        .map(|s| crate::flood::plan_with(SLOTS, P, false, seeded(seed, &format!("fleet-plan-{s}"))))
        .collect();
    let max_pkts = plans.iter().map(Vec::len).max().unwrap_or(0) * usize::from(TRAIN);
    let params = SessionParams {
        n_slots: SLOTS,
        slot_ns: SLOT_NS,
        probe_packets: TRAIN,
        packet_bytes: PACKET_BYTES as u32,
        p: P,
        improved: false,
    };

    let meter = Meter::start();
    let unit_span = tr.begin("unit", SpanId::NONE, 0);
    let s = tr.begin("start_server", unit_span, 0);
    let started = Server::start(SESSIONS * 2, traced);
    tr.end(s);
    let Some(server) = u.checks.op("start_server", started) else {
        return u;
    };
    let sockets = live::client(server.addr(), traced)
        .and_then(|c| Ok((c, live::probe_socket(server.addr())?)));
    let Some(((client, client_metrics), sock)) = u.checks.op("generator sockets", sockets) else {
        server.stop(0, &mut u.acc, &mut u.checks);
        return u;
    };
    let mut tx = live::gso_sender();
    let mut buf = vec![0u8; max_pkts * PACKET_BYTES];
    let mut hb_seq = 0u64;
    let gen_cpu0 = procfs::thread_cpu_ns();
    let anchor = Instant::now();

    let mut merged = Estimates::default();
    let mut open = 0u32;
    for (s, plan) in plans.iter().enumerate() {
        let id = s as u32 + 1;
        let t = Instant::now();
        let sp = tr.begin("handshake", unit_span, id);
        let shook = client.handshake(id, params);
        tr.end(sp);
        let syn_us = us(t);
        u.acc.push("syn_us", syn_us);
        u.steps_us.push(syn_us);
        if s == 0 {
            u.setup_s = meter.elapsed_s();
        }
        if u.checks.op("handshake", shook).is_none() {
            continue;
        }
        open += 1;
        let cpu0 = if traced { procfs::recv_cpu_ns() } else { 0 };
        let t = Instant::now();
        let sp = tr.begin("burst", unit_span, id);
        let send_ns = anchor.elapsed().as_nanos() as u64;
        let mut seq = 0u64;
        for &(slot, experiment) in plan {
            for idx in 0..TRAIN {
                let k = seq as usize;
                ProbeHeader {
                    session: id,
                    experiment,
                    slot,
                    seq,
                    send_ns,
                    idx,
                    probe_len: TRAIN,
                }
                .encode_into(&mut buf[k * PACKET_BYTES..][..PACKET_BYTES]);
                seq += 1;
            }
        }
        let n = seq as usize;
        let t_tx = Instant::now();
        let sent = live::send_all(&mut tx, &sock, &buf, PACKET_BYTES, n);
        u.acc.add("tx_ns", t_tx.elapsed().as_nanos() as f64);
        u.acc.add("tx_pkts", n as f64);
        u.checks.op("probe send", sent);
        hb_seq += 1;
        let acked = client.heartbeat(id, hb_seq, ACK_TIMEOUT).unwrap_or(false);
        tr.end(sp);
        u.checks.op_ok("burst heartbeat", acked);
        if traced {
            u.acc.push("drain_us", us(t));
            u.acc.add("window_pkts", n as f64);
            u.acc
                .add("window_recv_cpu_ns", (procfs::recv_cpu_ns() - cpu0) as f64);
        }
        let t = Instant::now();
        let sp = tr.begin("fetch_estimate", unit_span, id);
        let est = client.fetch_estimate(id, EstimateScope::Session);
        tr.end(sp);
        u.acc.push("est_us", us(t));
        if let Some(e) = u.checks.op("session estimate", est) {
            merged.merge(&e.estimates);
        }
    }

    let t = Instant::now();
    let sp = tr.begin("fleet_estimate", unit_span, 0);
    let fleet = client.fetch_estimate(1, EstimateScope::Fleet);
    tr.end(sp);
    let fleet_us = us(t);
    u.acc.push("fleet_est_us", fleet_us);
    if let Some(f) = u.checks.op("fleet estimate", fleet) {
        u.acc.add("fleet_est_ns", fleet_us * 1e3);
        u.acc.add("fleet_est_sessions", f64::from(f.sessions));
        u.checks
            .expect(f.sessions == open && f.estimates == merged, || {
                format!(
                    "fleet estimate over {} sessions differs from the merge of {open}",
                    f.sessions
                )
            });
    }

    for (s, plan) in plans.iter().enumerate() {
        let id = s as u32 + 1;
        let probes = plan.len() as u64;
        let packets = probes * u64::from(TRAIN);
        let fetched = live::fin_and_fetch(&client, tr, unit_span, id, probes, packets, &mut u);
        let Some((summary, records)) = fetched else {
            continue;
        };
        let whole = records.iter().all(|r| r.received == TRAIN);
        u.checks.expect(
            records.len() as u64 == probes && whole && summary.packets == packets,
            || {
                format!(
                    "session {id}: {} records / {} packets, {probes} / {packets} sent",
                    records.len(),
                    summary.packets
                )
            },
        );
    }

    live::expect_reaped(&client, &mut u.checks);
    u.acc
        .add("gen_cpu_ns", (procfs::thread_cpu_ns() - gen_cpu0) as f64);
    live::client_counters(&client_metrics, &mut u.acc);
    server.stop(SESSIONS as u64, &mut u.acc, &mut u.checks);
    meter.finish(&mut u);
    u.throughput = u.acc.sum("sessions") / u.work_s;
    u.cpu_ns_per_op = u.acc.ratio("recv_cpu_ns", "pkts");
    tr.end(unit_span);
    u
}
