//! What the three live workloads share: a default receiver on
//! loopback, the generator's two sockets, and the accounting done when
//! a unit's server stops.

use crate::acc::{Acc, Checks, Unit};
use crate::procfs;
use crate::trace::{SpanId, Tracer};
use badabing_live::{
    start_server, BatchSender, ControlClient, ControlConfig, IoMode, ServerConfig, ServerHandle,
    SessionEnd,
};
use badabing_metrics::Registry;
use badabing_wire::control::{
    ControlMessage, EstimateScope, ReportRecord, ReportSummary, RECORDS_PER_CHUNK,
    RECORD_FLAG_KERNEL_STAMPED,
};
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::Instant;

/// Every live workload listens here: traffic never leaves the host's
/// loopback interface.
pub const LOOPBACK: &str = "127.0.0.1:0";

/// The receiver under test, with the registries a traced unit reads.
pub struct Server {
    handle: ServerHandle,
    /// The receiver's counters, present in traced units only.
    metrics: Option<Arc<Registry>>,
    rss0: u64,
}

impl Server {
    /// A receiver with its defaults (one drain thread, `IoMode::Auto`,
    /// `SteerMode::Auto`); a traced unit also turns on its counters.
    pub fn start(max_sessions: usize, traced: bool) -> std::io::Result<Self> {
        let rss0 = procfs::rss_bytes();
        let metrics = traced.then(|| Arc::new(Registry::new("e2e-recv")));
        let cfg = ServerConfig {
            metrics: metrics.clone(),
            ..ServerConfig::any(LOOPBACK.parse().expect("static addr"), max_sessions)
        };
        Ok(Self {
            handle: start_server(cfg)?,
            metrics,
            rss0,
        })
    }

    /// The receiver's address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.local_addr()
    }

    /// Stop the receiver and account for it: receiver CPU, memory, the
    /// traced counters, and one operation per expected session that
    /// must have ended `Completed`.
    pub fn stop(self, sessions: u64, acc: &mut Acc, checks: &mut Checks) {
        // Read the drain thread's CPU while it is still alive.
        acc.add("recv_cpu_ns", procfs::recv_cpu_ns() as f64);
        acc.add(
            "rss_delta_bytes",
            procfs::rss_bytes().saturating_sub(self.rss0) as f64,
        );
        let report = self.handle.stop();
        let completed = report
            .sessions
            .iter()
            .filter(|o| o.end == SessionEnd::Completed)
            .count() as u64;
        checks.attempted += sessions;
        checks.failed += sessions.saturating_sub(completed);
        checks.expect(completed == sessions, || {
            format!("{completed} of {sessions} sessions completed")
        });
        acc.add("sessions", sessions as f64);
        acc.max("mem_peak_bytes", report.mem_peak_bytes as f64);
        acc.max("retained_sessions", report.sessions.len() as f64);
        if let Some(m) = &self.metrics {
            for (key, counter) in [
                ("packets_accepted", "packets_accepted"),
                ("duplicates", "duplicates"),
                ("datagrams_rejected", "datagrams_rejected"),
                ("over_budget", "probes_dropped_over_budget"),
                ("rx_syscalls", "recv_syscalls"),
                ("rx_datagrams", "recv_datagrams"),
            ] {
                acc.add(key, m.counter(counter).get() as f64);
            }
        }
    }
}

/// The control-plane client, with its counters in traced units.
pub fn client(
    addr: SocketAddr,
    traced: bool,
) -> std::io::Result<(ControlClient, Option<Arc<Registry>>)> {
    let metrics = traced.then(|| Arc::new(Registry::new("e2e-ctl")));
    Ok((
        ControlClient::connect(ControlConfig::new(addr), metrics.clone())?,
        metrics,
    ))
}

/// Confirm the receiver has reaped every finished session. The closing
/// report acks are fire-and-forget; a query sent after them queues
/// behind them on the receiver's one socket and is answered only once
/// they have been handled, so the unit never stops the receiver with an
/// acknowledged session still open.
pub fn expect_reaped(client: &ControlClient, checks: &mut Checks) {
    let left = client.fetch_estimate(0, EstimateScope::Fleet);
    if let Some(f) = checks.op("fleet estimate after reap", left) {
        checks.expect(f.sessions == 0, || {
            format!("{} sessions still live after completion", f.sessions)
        });
    }
}

/// Fold the client's counters into `acc`.
pub fn client_counters(metrics: &Option<Arc<Registry>>, acc: &mut Acc) {
    if let Some(m) = metrics {
        for (key, counter) in [
            ("control_retries", "control_retries"),
            ("decode_errors", "control_decode_errors"),
            ("foreign_session", "control_foreign_session"),
            ("chunks", "report_chunks_fetched"),
        ] {
            acc.add(key, m.counter(counter).get() as f64);
        }
    }
}

/// The generator's probe socket, connected to the receiver.
pub fn probe_socket(addr: SocketAddr) -> std::io::Result<UdpSocket> {
    let sock = UdpSocket::bind(LOOPBACK)?;
    sock.connect(addr)?;
    badabing_live::batch_io::set_buffer_sizes(&sock, 1 << 20, 1 << 22);
    Ok(sock)
}

/// A GSO sender: a cheap generator, so the receiver stays the
/// bottleneck.
pub fn gso_sender() -> BatchSender {
    BatchSender::new(64, IoMode::Gso)
}

/// Send `count` equal `seg`-byte datagrams from `buf`, looping over
/// short counts.
pub fn send_all(
    tx: &mut BatchSender,
    sock: &UdpSocket,
    buf: &[u8],
    seg: usize,
    count: usize,
) -> std::io::Result<()> {
    let mut off = 0;
    while off < count {
        off += tx.send_segments(sock, &buf[off * seg..], seg, count - off)?;
    }
    Ok(())
}

/// Microseconds since `t`.
pub fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// End a session and fetch its report. A traced unit first sends a bare
/// FIN, which times finalization alone: FIN re-serves its frozen
/// snapshot, so the fetch that follows gets the same report.
pub fn fin_and_fetch(
    client: &ControlClient,
    tr: &mut Tracer,
    parent: SpanId,
    id: u32,
    probes: u64,
    packets: u64,
    u: &mut Unit,
) -> Option<(ReportSummary, Vec<ReportRecord>)> {
    let traced = tr.is_on();
    if traced {
        let t = Instant::now();
        let s = tr.begin("fin", parent, id);
        let fin = ControlMessage::Fin {
            session: id,
            probes_sent: probes,
            packets_sent: packets,
        };
        let acked = client.request("FIN", &fin, |m| match m {
            ControlMessage::FinAck { total_chunks, .. } => Some(total_chunks),
            _ => None,
        });
        tr.end(s);
        u.checks.op("FIN", acked);
        u.acc.push("fin_us", us(t));
        u.acc.add("fin_ns", t.elapsed().as_nanos() as f64);
    }
    let t = Instant::now();
    let s = tr.begin("fetch_report", parent, id);
    let fetched = client.fetch_report(id, probes, packets);
    tr.end(s);
    let fetch_us = us(t);
    u.acc.push("fetch_ms", fetch_us / 1e3);
    u.acc.add("fetches", 1.0);
    let (summary, records) = u.checks.op("fetch_report", fetched)?;
    u.acc.add("pkts", summary.packets as f64);
    u.acc.add("records", records.len() as f64);
    if traced {
        // Every chunk and the FIN are one round trip each.
        let chunks = records.len().div_ceil(RECORDS_PER_CHUNK);
        u.acc.push("chunk_us", fetch_us / (chunks + 1) as f64);
        let stamped = records
            .iter()
            .filter(|r| r.flags & RECORD_FLAG_KERNEL_STAMPED != 0)
            .count();
        u.acc.add("kernel_stamped", stamped as f64);
    }
    Some((summary, records))
}
