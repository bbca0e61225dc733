//! `paced-session`: the real sender, `run_sender`, on its own slot
//! clock against a default receiver. An open loop: the clock drives
//! sending, not the receiver, so about one datagram arrives per
//! receiver wakeup and per-wakeup cost dominates. It is the only
//! workload that exercises the sender's pacing and the delay the tool
//! adds on an idle path.
//!
//! Throughput is probe packets accepted per wall second; in an open loop
//! it reads the slot clock's rate and falls only when the tool cannot
//! keep up. An operation is one accepted probe packet, so `cpu_ns_per_op`
//! is the receiver's CPU per packet (`server_cpu_ns_per_pkt`), and the
//! step is one probe's lateness, `send_time_secs − slot·slot_secs` read
//! from the `SenderManifest` (`probe_lateness`).

use crate::acc::{Meter, Unit};
use crate::live::{self, Server};
use crate::procfs;
use crate::trace::{SpanId, Tracer};
use badabing_core::config::BadabingConfig;
use badabing_live::{analyze_run, run_sender, ControlConfig, SenderConfig};
use badabing_metrics::Registry;
use badabing_stats::rng::seeded;
use std::sync::Arc;
use std::time::Instant;

/// Slot width: 200 µs, 25× the paper's rate of slots.
pub const SLOT_SECS: f64 = 200e-6;
/// Slots per unit: half a second of sending.
pub const SLOTS: u64 = 2_500;

/// One unit: a fresh receiver and one `run_sender` to completion.
pub fn unit(seed: u64, tr: &mut Tracer) -> Unit {
    let traced = tr.is_on();
    let mut u = Unit::default();
    let tool = BadabingConfig {
        slot_secs: SLOT_SECS,
        ..BadabingConfig::paper_default(0.3)
    };
    let id = 1;
    if traced {
        let t = Instant::now();
        std::hint::black_box(crate::flood::plan_with(
            SLOTS,
            tool.p,
            tool.improved,
            seeded(seed, "paced"),
        ));
        u.acc.push("plan_ms", t.elapsed().as_secs_f64() * 1e3);
    }

    let meter = Meter::start();
    let unit_span = tr.begin("unit", SpanId::NONE, 0);
    let s = tr.begin("start_server", unit_span, 0);
    let started = Server::start(4, traced);
    tr.end(s);
    let Some(server) = u.checks.op("start_server", started) else {
        return u;
    };
    let addr = server.addr();
    let metrics = traced.then(|| Arc::new(Registry::new("e2e-send")));
    let cfg = SenderConfig {
        control: Some(ControlConfig::new(addr)),
        metrics: metrics.clone(),
        ..SenderConfig::new(tool, SLOTS, addr, id)
    };
    // Set-up ends at the first SYN-ACK. The sender's own SYN then
    // repeats this one, and the receiver re-acks a known session's SYN.
    let s = tr.begin("handshake", unit_span, id);
    let shook = live::client(addr, false)
        .map_err(badabing_live::ControlError::Io)
        .and_then(|(c, _)| c.handshake(id, cfg.session_params()));
    tr.end(s);
    u.setup_s = meter.elapsed_s();
    u.checks.op("handshake", shook);

    let cpu0 = procfs::thread_cpu_ns();
    let s = tr.begin("run_sender", unit_span, id);
    let ran = run_sender(cfg, seeded(seed, "paced"));
    tr.end(s);
    u.acc
        .add("sender_cpu_ns", (procfs::thread_cpu_ns() - cpu0) as f64);
    let outcome = u.checks.op("run_sender", ran);
    if let Some(out) = &outcome {
        let m = &out.manifest;
        for p in &m.sent {
            let late_us = (p.send_time_secs - p.slot as f64 * SLOT_SECS) * 1e6;
            u.steps_us.push(late_us);
            u.acc.push("lateness_us", late_us);
        }
        u.acc.add("probes", m.sent.len() as f64);
        u.checks.op_ok("sender completed", out.completed);
        match &out.receiver_log {
            Some(log) => {
                u.acc.add("pkts", log.packets as f64);
                u.acc.add("records", log.arrivals.len() as f64);
                for r in log.arrivals.values() {
                    u.acc.push("qdelay_us", r.qdelay_max_secs * 1e6);
                }
                u.acc.add(
                    "kernel_stamped",
                    log.arrivals.values().filter(|r| r.kernel_stamped).count() as f64,
                );
                let t = Instant::now();
                let s = tr.begin("analyze_run", unit_span, id);
                let a = analyze_run(&tool, m, log);
                tr.end(s);
                u.acc.add("analyze_ns", t.elapsed().as_nanos() as f64);
                u.checks.expect(a.packets_lost == 0, || {
                    format!("{} packets lost on an idle loopback path", a.packets_lost)
                });
                u.checks.expect(log.arrivals.len() == m.sent.len(), || {
                    format!(
                        "{} records for {} probes sent",
                        log.arrivals.len(),
                        m.sent.len()
                    )
                });
            }
            None => u
                .checks
                .expect(false, || format!("no report: {:?}", out.diagnostics)),
        }
    }
    if let Some((client, _)) = u.checks.op("control socket", live::client(addr, false)) {
        live::expect_reaped(&client, &mut u.checks);
    }
    if let Some(m) = &metrics {
        u.acc
            .add("tx_syscalls", m.counter("tx_syscalls").get() as f64);
    }
    live::client_counters(&metrics, &mut u.acc);
    server.stop(1, &mut u.acc, &mut u.checks);
    meter.finish(&mut u);
    u.throughput = u.acc.sum("pkts") / u.work_s;
    u.cpu_ns_per_op = u.acc.ratio("recv_cpu_ns", "pkts");
    tr.end(unit_span);
    u
}
