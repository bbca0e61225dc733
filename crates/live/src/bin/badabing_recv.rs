//! The live BADABING receiver: a session server.
//!
//! Senders register dynamically via the control-plane SYN handshake, up
//! to `--max-sessions` concurrently (later SYNs are refused with an
//! explicit NACK); a probe for a session no SYN opened is rejected.
//! Sessions are reaped individually on completion or idle timeout. The
//! server runs until `--secs` elapses and then writes one log file per
//! session (`receiver.<id>.json` for `--log receiver.json`), for
//! `badabing_report`. (A sender fetches the same records itself over
//! the control plane, so the files are usually redundant.)
//!
//! ```text
//! badabing_recv --bind 127.0.0.1:9000 --secs 70 \
//!     [--max-sessions N] [--log receiver.json] \
//!     [--metrics metrics.json] [--idle-timeout 30] \
//!     [--io batched|fallback] [--recv-threads N] \
//!     [--session-budget-mb N] \
//!     [--global-budget-mb N] [--on-pressure reject|evict]
//! ```
//!
//! Each drain thread owns its own socket and registry shard. With
//! `--recv-threads N > 1` the sockets form an `SO_REUSEPORT` group whose
//! classic-BPF program sends every datagram of session `s` to thread
//! `s % N`, so the probe fast path touches no cross-thread locks. Where
//! the kernel lacks `SO_REUSEPORT` or refuses the program the server
//! runs one thread and counts the fallback (`steer_fallbacks`). The
//! drain threads park on epoll where the platform has it.
//!
//! At stop the server merges every still-open session's online
//! estimator and publishes the fleet-wide view as `fleet_*` gauges, so
//! the `--metrics` snapshot carries them. Mid-run, a fleet-scope
//! `EstimateRequest` over the control plane reads the same merge.

use badabing_live::batch_io::IoMode;
use badabing_live::cli::Flags;
use badabing_live::persist::ReceiverFile;
use badabing_live::provider::Provider;
use badabing_live::receiver::{
    start_server, PressurePolicy, ServerConfig, SessionEnd, DEFAULT_SESSION_BUDGET_BYTES,
};
use badabing_metrics::Registry;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "badabing_recv --bind ADDR --secs S [--max-sessions N] [--log PATH] \
                     [--metrics PATH] [--idle-timeout S] \
                     [--io batched|fallback] [--recv-threads N] \
                     [--session-budget-mb N] \
                     [--global-budget-mb N] [--on-pressure reject|evict]";

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
    let max_sessions: usize = flags.opt("max-sessions", 64);
    let idle_timeout = flags.opt_secs("idle-timeout", Duration::from_secs(30));
    let log_path = PathBuf::from(flags.opt_str("log", "receiver.json"));
    let metrics_path = flags.opt_str("metrics", "");
    let provider = Provider::Udp(flags.opt("io", IoMode::Batched));

    let metrics = Arc::new(Registry::new("badabing_recv"));
    let idle_timeout = (idle_timeout > Duration::ZERO).then_some(idle_timeout);
    let deadline = Instant::now() + run_for;

    let session_budget_mb: usize =
        flags.opt("session-budget-mb", DEFAULT_SESSION_BUDGET_BYTES >> 20);
    let global_budget_mb: usize = flags.opt("global-budget-mb", 0usize);
    let server = start_server(ServerConfig {
        idle_timeout,
        metrics: Some(metrics.clone()),
        provider,
        recv_threads: flags.opt("recv-threads", 1usize).max(1),
        session_budget_bytes: session_budget_mb << 20,
        global_budget_bytes: (global_budget_mb > 0).then_some(global_budget_mb << 20),
        on_pressure: flags.opt("on-pressure", PressurePolicy::Reject),
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
        "steering: {} reuseport sockets, {} single-thread fallbacks, \
         per-thread rx [{per_thread}]",
        report.reuseport_sockets, report.steer_fallbacks
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

    if !metrics_path.is_empty() {
        metrics.save(Path::new(&metrics_path))?;
        eprintln!("metrics written to {metrics_path}");
    }
    Ok(())
}
