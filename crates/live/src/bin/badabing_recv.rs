//! The live BADABING receiver.
//!
//! Single-session mode (`--session N`, the default) collects probe
//! packets and serves the control plane until the sender completes its
//! session, the idle watchdog fires, or `--secs` elapses — whichever
//! comes first — then writes the arrival log to JSON for
//! `badabing_report`. (With a control-plane sender the log file is
//! usually redundant: the sender fetches the same records itself.)
//!
//! Multi-session mode (`--session any`) runs one process as a session
//! server: senders register dynamically via the control-plane handshake,
//! up to `--max-sessions` concurrently (later SYNs are refused with an
//! explicit NACK). Sessions are reaped individually on completion or
//! idle timeout; the server runs until `--secs` elapses and then writes
//! one log file per finished session (`receiver.<id>.json` for
//! `--log receiver.json`).
//!
//! ```text
//! badabing_recv --bind 127.0.0.1:9000 --secs 70 \
//!     [--session N|any] [--max-sessions N] [--log receiver.json] \
//!     [--metrics metrics.json] [--idle-timeout 30] \
//!     [--io batched|fallback|gso] [--recv-threads N] \
//!     [--session-budget-mb N] \
//!     [--global-budget-mb N] [--on-pressure reject|evict] \
//!     [--estimate-interval-ms N]
//! ```
//!
//! Each drain thread owns its own socket and registry shard. With
//! `--recv-threads N > 1` the sockets form an `SO_REUSEPORT` group and
//! the kernel steers flows per 4-tuple, so the probe fast path touches
//! no cross-thread locks. Where the kernel lacks `SO_REUSEPORT` the
//! server runs one thread and counts the fallback (`steer_fallbacks`).
//! The drain threads park on epoll where the platform has it.
//!
//! With `--estimate-interval-ms N` (N > 0, multi-session mode) the
//! server periodically merges every live session's online estimator and
//! publishes the fleet-wide view as `fleet_*` gauges in the metrics
//! snapshot.

use badabing_live::batch_io::IoMode;
use badabing_live::cli::Flags;
use badabing_live::persist::ReceiverFile;
use badabing_live::provider::Provider;
use badabing_live::receiver::{
    start_receiver, start_server, PressurePolicy, ReceiverConfig, ServerConfig, SessionEnd,
    DEFAULT_SESSION_BUDGET_BYTES,
};
use badabing_metrics::Registry;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "badabing_recv --bind ADDR --secs S [--session N|any] [--max-sessions N] \
                     [--log PATH] [--metrics PATH] [--idle-timeout S] \
                     [--io batched|fallback|gso] [--recv-threads N] \
                     [--session-budget-mb N] \
                     [--global-budget-mb N] [--on-pressure reject|evict] \
                     [--estimate-interval-ms N]";

/// `receiver.json` → `receiver.<id>.json` for per-session logs.
fn session_log_path(base: &Path, session: u32) -> PathBuf {
    match base.extension().and_then(|e| e.to_str()) {
        Some(ext) => base.with_extension(format!("{session}.{ext}")),
        None => base.with_extension(session.to_string()),
    }
}

fn main() -> std::io::Result<()> {
    let flags = Flags::parse(USAGE, &[]);
    let bind: SocketAddr = flags.req("bind");
    let run_for = flags.req_secs("secs");
    let secs = run_for.as_secs_f64();
    let session = flags.opt_str("session", "1");
    let max_sessions: usize = flags.opt("max-sessions", 64);
    let idle_timeout = flags.opt_secs("idle-timeout", Duration::from_secs(30));
    let log_path = PathBuf::from(flags.opt_str("log", "receiver.json"));
    let metrics_path = flags.opt_str("metrics", "");
    let provider = Provider::Udp(flags.opt("io", IoMode::Batched));

    let metrics = Arc::new(Registry::new("badabing_recv"));
    let idle_timeout = (idle_timeout > Duration::ZERO).then_some(idle_timeout);
    let deadline = Instant::now() + run_for;

    if session == "any" {
        let session_budget_mb: usize =
            flags.opt("session-budget-mb", DEFAULT_SESSION_BUDGET_BYTES >> 20);
        let global_budget_mb: usize = flags.opt("global-budget-mb", 0usize);
        let estimate_interval_ms: u64 = flags.opt("estimate-interval-ms", 0);
        let server = start_server(ServerConfig {
            idle_timeout,
            max_sessions,
            metrics: Some(metrics.clone()),
            provider,
            recv_threads: flags.opt("recv-threads", 1usize).max(1),
            session_budget_bytes: session_budget_mb << 20,
            global_budget_bytes: (global_budget_mb > 0).then_some(global_budget_mb << 20),
            on_pressure: flags.opt("on-pressure", PressurePolicy::Reject),
            estimate_interval: (estimate_interval_ms > 0)
                .then(|| Duration::from_millis(estimate_interval_ms)),
            ..ServerConfig::any(bind, max_sessions)
        })?;
        eprintln!(
            "serving up to {max_sessions} concurrent sessions on {} for {secs}s",
            server.local_addr()
        );
        while Instant::now() < deadline && !server.is_finished() {
            std::thread::sleep(Duration::from_millis(100));
        }
        let report = server.stop();
        eprintln!(
            "{} sessions finished ({} datagrams rejected, {} SYNs refused — {} over budget, \
             {} sessions evicted, {} chunk NACKs, {} B peak session memory)",
            report.sessions.len(),
            report.rejected,
            report.syns_rejected,
            report.budget_rejects,
            report.sessions_evicted,
            report.chunk_nacks,
            report.mem_peak_bytes
        );
        eprintln!(
            "offload: {} GRO segments split, {} cmsg decode errors, \
             {} kernel-stamped arrivals, {} userspace-stamped arrivals",
            report.gro_segments_split,
            report.cmsg_decode_errors,
            report.rx_timestamp_kernel,
            report.rx_timestamp_user_fallback
        );
        let per_thread = report
            .rx_packets_per_thread
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join("/");
        eprintln!(
            "steering: {} reuseport sockets, {} cross-thread handoffs, \
             {} sessions re-homed, {} single-thread fallbacks, \
             per-thread rx [{per_thread}]",
            report.reuseport_sockets,
            report.steer_handoffs,
            report.steer_migrations,
            report.steer_fallbacks
        );
        for outcome in &report.sessions {
            let end = match outcome.end {
                SessionEnd::Completed => "completed",
                SessionEnd::IdleTimeout => "idle-reaped",
                SessionEnd::Evicted => "evicted under memory pressure",
                SessionEnd::Stopped => "open at shutdown",
            };
            eprintln!(
                "session {}: {} packets, {} duplicates, {} probes recorded ({end})",
                outcome.session,
                outcome.log.packets,
                outcome.log.duplicates,
                outcome.log.arrivals.len()
            );
            let path = session_log_path(&log_path, outcome.session);
            ReceiverFile::new(&outcome.log).save(&path)?;
            eprintln!(
                "session {} log written to {}",
                outcome.session,
                path.display()
            );
        }
    } else {
        let session: u32 = match session.parse() {
            Ok(id) => id,
            Err(_) => {
                eprintln!("error: --session takes a numeric id or `any`\nusage: {USAGE}");
                std::process::exit(2);
            }
        };
        let handle = start_receiver(ReceiverConfig {
            idle_timeout,
            metrics: Some(metrics.clone()),
            provider,
            ..ReceiverConfig::new(bind, session)
        })?;
        eprintln!(
            "listening on {} for up to {secs}s (session {session})",
            handle.local_addr()
        );
        while Instant::now() < deadline && !handle.is_finished() {
            std::thread::sleep(Duration::from_millis(100));
        }
        let log = handle.stop();
        eprintln!(
            "collected {} packets ({} rejected, {} duplicates)",
            log.packets, log.rejected, log.duplicates
        );
        ReceiverFile::new(&log).save(&log_path)?;
        eprintln!("receiver log written to {}", log_path.display());
    }

    if !metrics_path.is_empty() {
        metrics.save(Path::new(&metrics_path))?;
        eprintln!("metrics written to {metrics_path}");
    }
    Ok(())
}
