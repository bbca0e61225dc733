//! `probe-flood`: paper-scale sessions sent as fast as the receiver
//! drains them, so nearly all of its work is on the per-packet path.
//!
//! Each session is the exact probe stream `run_sender` would send for a
//! 60 000-slot improved run at p = 0.3, without pacing: 64-byte packets
//! (the smallest size, where per-packet cost dominates), three per
//! probe. The generator sends a window of probes with a GSO sender,
//! then waits for a heartbeat ack (a closed loop), and injects seeded
//! faults: loss episodes that drop whole probes, duplicated datagrams,
//! and reordering within each window.
//!
//! Throughput is probe packets accepted per wall second (`probe_pps`),
//! an operation is one accepted probe packet, so `cpu_ns_per_op` is the
//! receiver's CPU per packet (`server_cpu_ns_per_pkt`), and the step is
//! one window: send it, then wait for the heartbeat ack.

use crate::acc::{Meter, Unit};
use crate::live::{self, us, Server};
use crate::procfs;
use crate::trace::{SpanId, Tracer};
use badabing_core::estimator::Estimates;
use badabing_core::schedule::ExperimentScheduler;
use badabing_live::analyze::loss_log_from_records;
use badabing_stats::rng::seeded;
use badabing_wire::control::{EstimateScope, SessionParams};
use badabing_wire::ProbeHeader;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Slots per session: 300 s of the paper's 5 ms slots.
pub const SLOTS: u64 = 60_000;
const SLOT_NS: u64 = 5_000_000;
const SLOT_SECS: f64 = 0.005;
const P: f64 = 0.3;
const TRAIN: u8 = 3;
const PACKET_BYTES: usize = 64;
/// Probes per closed-loop window.
pub const WINDOW_PROBES: usize = 256;
/// A session-scope estimate is queried every this many windows.
const ESTIMATE_EVERY: usize = 32;
/// Per-slot chance a loss episode starts; episodes last 1–8 slots, so
/// about 1 % of slots fall inside one.
const EPISODE_START: f64 = 0.0022;
const EPISODE_MAX_SLOTS: u64 = 8;
/// Share of delivered packets sent twice.
const DUP_SHARE: f64 = 0.002;
const ACK_TIMEOUT: Duration = Duration::from_secs(2);

/// One datagram of the generated stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pkt {
    /// Owning experiment.
    pub experiment: u64,
    /// Targeted slot.
    pub slot: u64,
    /// Sender sequence number (a duplicate repeats its original's).
    pub seq: u64,
    /// Index within the probe.
    pub idx: u8,
}

/// What the receiver must report for a session.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Truth {
    /// Distinct packets delivered per `(experiment, slot)`; probes lost
    /// whole have no entry.
    pub records: BTreeMap<(u64, u64), u8>,
    /// Distinct packets delivered.
    pub packets: u64,
    /// Duplicate datagrams injected.
    pub duplicates: u64,
    /// Probes in the plan.
    pub probes: u64,
    /// Packets in the plan, lost ones included.
    pub planned_packets: u64,
}

/// A generated session: its windows in send order, and the truth.
#[derive(Debug)]
pub struct Session {
    /// Datagrams of each window, already reordered.
    pub windows: Vec<Vec<Pkt>>,
    /// What the receiver must report.
    pub truth: Truth,
}

/// This workload's plan: an improved run at p = 0.3.
pub fn plan(n_slots: u64, rng: StdRng) -> Vec<(u64, u64)> {
    plan_with(n_slots, P, true, rng)
}

/// The probe plan `run_sender` would send: `(slot, experiment)` for
/// every probe, in slot order.
pub fn plan_with(n_slots: u64, p: f64, improved: bool, rng: StdRng) -> Vec<(u64, u64)> {
    let mut sched = ExperimentScheduler::new(p, improved, rng);
    let mut plan: Vec<(u64, u64)> = sched
        .take_run(n_slots)
        .iter()
        .flat_map(|e| e.slots().map(move |slot| (slot, e.id)))
        .collect();
    plan.sort_unstable();
    plan
}

/// Turn a plan into windows of datagrams. Every packet of a probe whose
/// slot is `lost` is dropped; each delivered packet is sent twice when
/// `dup` says so; each window is then passed to `reorder`.
pub fn assemble(
    plan: &[(u64, u64)],
    lost: impl Fn(u64) -> bool,
    mut dup: impl FnMut() -> bool,
    mut reorder: impl FnMut(&mut [Pkt]),
) -> Session {
    let mut truth = Truth::default();
    let mut seq = 0u64;
    let windows = plan
        .chunks(WINDOW_PROBES)
        .map(|probes| {
            let mut win = Vec::with_capacity(probes.len() * usize::from(TRAIN) + 8);
            for &(slot, experiment) in probes {
                truth.probes += 1;
                for idx in 0..TRAIN {
                    let pkt = Pkt {
                        experiment,
                        slot,
                        seq,
                        idx,
                    };
                    seq += 1;
                    truth.planned_packets += 1;
                    if lost(slot) {
                        continue;
                    }
                    win.push(pkt);
                    truth.packets += 1;
                    *truth.records.entry((experiment, slot)).or_default() += 1;
                    if dup() {
                        win.push(pkt);
                        truth.duplicates += 1;
                    }
                }
            }
            reorder(&mut win);
            win
        })
        .collect();
    Session { windows, truth }
}

/// A seeded session: loss episodes, duplicates and a shuffle per window.
pub fn generate(plan: &[(u64, u64)], rng: &mut StdRng) -> Session {
    let mut lost = vec![false; SLOTS as usize + 2];
    let mut slot = 0u64;
    while slot < SLOTS + 2 {
        if rng.random_bool(EPISODE_START) {
            let len = rng.random_range(1..=EPISODE_MAX_SLOTS);
            for s in slot..(slot + len).min(SLOTS + 2) {
                lost[s as usize] = true;
            }
            slot += len;
        } else {
            slot += 1;
        }
    }
    let mut dup_rng = StdRng::seed_from_u64(rng.random());
    let mut shuffle_rng = StdRng::seed_from_u64(rng.random());
    assemble(
        plan,
        |s| lost.get(s as usize).copied().unwrap_or(false),
        || dup_rng.random_bool(DUP_SHARE),
        |win| {
            for i in (1..win.len()).rev() {
                win.swap(i, shuffle_rng.random_range(0..=i));
            }
        },
    )
}

/// One unit: a fresh receiver, one session, then stop.
pub fn unit(seed: u64, tr: &mut Tracer) -> Unit {
    let traced = tr.is_on();
    let mut u = Unit::default();
    let session = generate(
        &plan(SLOTS, seeded(seed, "flood-plan")),
        &mut seeded(seed, "flood-faults"),
    );
    let truth = &session.truth;
    if traced {
        let t = Instant::now();
        std::hint::black_box(plan(SLOTS, seeded(seed, "flood-plan")));
        u.acc.push("plan_ms", t.elapsed().as_secs_f64() * 1e3);
    }

    let meter = Meter::start();
    let unit_span = tr.begin("unit", SpanId::NONE, 0);
    let s = tr.begin("start_server", unit_span, 0);
    let started = Server::start(2, traced);
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
    let max_window = session.windows.iter().map(Vec::len).max().unwrap_or(0);
    let mut buf = vec![0u8; max_window * PACKET_BYTES];
    let mut hb_seq = 0u64;
    let gen_cpu0 = procfs::thread_cpu_ns();
    let params = SessionParams {
        n_slots: SLOTS,
        slot_ns: SLOT_NS,
        probe_packets: TRAIN,
        packet_bytes: PACKET_BYTES as u32,
        p: P,
        improved: true,
    };
    let id = 1;

    'session: {
        let t = Instant::now();
        let s = tr.begin("handshake", unit_span, id);
        let shook = client.handshake(id, params);
        tr.end(s);
        u.acc.push("syn_us", us(t));
        u.setup_s = meter.elapsed_s();
        if u.checks.op("handshake", shook).is_none() {
            break 'session;
        }
        let anchor = Instant::now();
        let mut last_estimate = None;
        for (w, win) in session.windows.iter().enumerate() {
            let mut idle_us = 0.0;
            if traced {
                let t = Instant::now();
                let s = tr.begin("idle_heartbeat", unit_span, id);
                hb_seq += 1;
                let acked = client.heartbeat(id, hb_seq, ACK_TIMEOUT).unwrap_or(false);
                tr.end(s);
                u.checks.op_ok("idle heartbeat", acked);
                idle_us = us(t);
            }
            let cpu0 = if traced { procfs::recv_cpu_ns() } else { 0 };
            let t = Instant::now();
            let ws = tr.begin("window", unit_span, id);
            let send_ns = anchor.elapsed().as_nanos() as u64;
            for (k, p) in win.iter().enumerate() {
                ProbeHeader {
                    session: id,
                    experiment: p.experiment,
                    slot: p.slot,
                    seq: p.seq,
                    send_ns,
                    idx: p.idx,
                    probe_len: TRAIN,
                }
                .encode_into(&mut buf[k * PACKET_BYTES..][..PACKET_BYTES]);
            }
            let t_tx = Instant::now();
            let s = tr.begin("batch_send", ws, id);
            let sent = live::send_all(&mut tx, &sock, &buf, PACKET_BYTES, win.len());
            tr.end(s);
            u.acc.add("tx_ns", t_tx.elapsed().as_nanos() as f64);
            u.acc.add("tx_pkts", win.len() as f64);
            u.checks.op("probe send", sent);
            let s = tr.begin("heartbeat", ws, id);
            hb_seq += 1;
            let acked = client.heartbeat(id, hb_seq, ACK_TIMEOUT).unwrap_or(false);
            tr.end(s);
            tr.end(ws);
            u.checks.op_ok("window heartbeat", acked);
            let win_us = us(t);
            u.steps_us.push(win_us);
            if traced {
                u.acc.push("drain_us", win_us);
                u.acc.add("drain_excess_ns", (win_us - idle_us) * 1e3);
                u.acc.add("window_pkts", win.len() as f64);
                u.acc
                    .add("window_recv_cpu_ns", (procfs::recv_cpu_ns() - cpu0) as f64);
            }
            if (w + 1) % ESTIMATE_EVERY == 0 || w + 1 == session.windows.len() {
                let t = Instant::now();
                let s = tr.begin("fetch_estimate", unit_span, id);
                let est = client.fetch_estimate(id, EstimateScope::Session);
                tr.end(s);
                u.acc.push("est_us", us(t));
                last_estimate = u.checks.op("session estimate", est).or(last_estimate);
            }
        }
        let fetched = live::fin_and_fetch(
            &client,
            tr,
            unit_span,
            id,
            truth.probes,
            truth.planned_packets,
            &mut u,
        );
        let Some((summary, records)) = fetched else {
            break 'session;
        };
        u.checks.expect(summary.packets == truth.packets, || {
            format!(
                "{} packets reported, {} delivered",
                summary.packets, truth.packets
            )
        });
        u.checks.expect(summary.duplicates == truth.duplicates, || {
            format!(
                "{} duplicates reported, {} injected",
                summary.duplicates, truth.duplicates
            )
        });
        let wrong = records
            .iter()
            .filter(|r| truth.records.get(&(r.experiment, r.slot)) != Some(&r.received))
            .count();
        u.checks
            .expect(records.len() == truth.records.len() && wrong == 0, || {
                format!(
                    "{} records ({wrong} wrong), {} expected",
                    records.len(),
                    truth.records.len()
                )
            });
        let t = Instant::now();
        let log = loss_log_from_records(&records, TRAIN, SLOTS, SLOT_SECS);
        let reference = Estimates::from_log(&log);
        u.acc.add("from_log_ns", t.elapsed().as_nanos() as f64);
        u.acc.add("outcomes", log.len() as f64);
        u.checks.expect(
            last_estimate.map(|e| e.estimates) == Some(reference),
            || "online estimate differs from from_log over the report".to_string(),
        );
    }
    live::expect_reaped(&client, &mut u.checks);
    u.acc
        .add("gen_cpu_ns", (procfs::thread_cpu_ns() - gen_cpu0) as f64);
    live::client_counters(&client_metrics, &mut u.acc);
    server.stop(1, &mut u.acc, &mut u.checks);
    if traced {
        let (got, dups) = (
            u.acc.sum("packets_accepted") as u64,
            u.acc.sum("duplicates") as u64,
        );
        u.checks
            .expect(got == truth.packets && dups == truth.duplicates, || {
                format!(
                    "receiver counters: {got} accepted / {dups} duplicates, truth {} / {}",
                    truth.packets, truth.duplicates
                )
            });
    }
    meter.finish(&mut u);
    u.throughput = u.acc.sum("pkts") / u.work_s;
    u.cpu_ns_per_op = u.acc.ratio("recv_cpu_ns", "pkts");
    tr.end(unit_span);
    u
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_counts_omissions_and_duplicates() {
        // Experiment 0 probes slots 4–5, experiment 1 probes 5–7.
        let plan = [(4, 0), (5, 0), (5, 1), (6, 1), (7, 1)];
        let mut calls = 0;
        let s = assemble(
            &plan,
            |slot| slot == 6,
            || {
                calls += 1;
                calls == 2 || calls == 7
            },
            |_| {},
        );
        let t = &s.truth;
        assert_eq!(t.probes, 5);
        assert_eq!(t.planned_packets, 15);
        // Slot 6 lost whole: no record, three packets fewer.
        assert_eq!(t.packets, 12);
        assert_eq!(t.duplicates, 2);
        let want: BTreeMap<(u64, u64), u8> = [((0, 4), 3), ((0, 5), 3), ((1, 5), 3), ((1, 7), 3)]
            .into_iter()
            .collect();
        assert_eq!(t.records, want);
        let datagrams: usize = s.windows.iter().map(Vec::len).sum();
        assert_eq!(datagrams as u64, t.packets + t.duplicates);
        // A duplicate repeats its original datagram exactly.
        let win = &s.windows[0];
        assert_eq!(win[1], win[2]);
        assert_eq!((win[1].slot, win[1].idx), (4, 1));
    }

    #[test]
    fn windows_hold_whole_probes_in_plan_order() {
        let plan: Vec<(u64, u64)> = (0..600).map(|i| (i, i / 2)).collect();
        let s = assemble(&plan, |_| false, || false, |_| {});
        assert_eq!(s.windows.len(), 3);
        assert_eq!(s.windows[0].len(), WINDOW_PROBES * 3);
        assert_eq!(s.windows[2].len(), (600 - 2 * WINDOW_PROBES) * 3);
        let seqs: Vec<u64> = s.windows.iter().flatten().map(|p| p.seq).collect();
        assert_eq!(seqs, (0..1800).collect::<Vec<_>>());
    }

    #[test]
    fn generated_faults_stay_near_their_targets() {
        let p = plan(SLOTS, seeded(7, "flood-plan-0"));
        let s = generate(&p, &mut seeded(7, "flood-faults"));
        let t = &s.truth;
        assert_eq!(t.probes as usize, p.len());
        let lost = t.planned_packets - t.packets;
        let lost_share = lost as f64 / t.planned_packets as f64;
        assert!(
            (0.003..0.03).contains(&lost_share),
            "lost share {lost_share}"
        );
        let dup_share = t.duplicates as f64 / t.packets as f64;
        assert!((0.001..0.004).contains(&dup_share), "dup share {dup_share}");
        // Same seed, same stream.
        let again = generate(&p, &mut seeded(7, "flood-faults"));
        assert_eq!(again.truth, s.truth);
        assert_eq!(again.windows, s.windows);
    }
}
