//! The live BADABING sender.
//!
//! Sends the full probe schedule to a target (a receiver, or an emulator
//! in front of one), then writes the run manifest — every probe sent plus
//! the tool configuration — to a JSON file for `badabing_report`.
//!
//! The sender also drives the control plane against the receiver:
//! handshake before the run (the SYN that opens the session), heartbeats
//! during it, and report retrieval afterwards (written with `--log`,
//! replacing the manual copy of the receiver's log file). `--control`
//! names the receiver's own address when probes are routed through an
//! emulator.
//!
//! ```text
//! badabing_send --target 127.0.0.1:9000 --secs 60 \
//!     [--p 0.3] [--improved] [--session 1] [--seed 1] \
//!     [--control ADDR] [--manifest manifest.json] \
//!     [--log receiver.json] [--metrics metrics.json] \
//!     [--retry-base-ms 25] [--retry-cap-ms 400] [--attempts 12] \
//!     [--hb-ms 200] [--hb-misses 3] \
//!     [--estimate-every-ms 0] [--estimate-out estimate.json]
//! ```
//!
//! With `--estimate-every-ms N` (N > 0) the sender also polls the
//! receiver's online estimator every N milliseconds, at its heartbeat
//! ticks; the last
//! snapshot fetched is printed at exit and, with `--estimate-out`,
//! written as JSON.
//!
//! Exits 0 on a complete run, 1 if the receiver went silent mid-run (a
//! partial manifest is still written), 2 on usage errors.
//!
//! A receiver running `--recv-threads N > 1` steers this whole session,
//! probes and control alike, to drain thread `session % N`. That is the
//! intended shape — per-thread steering pays off across *many*
//! concurrent sessions, not within one.

use badabing_core::config::BadabingConfig;
use badabing_live::batch_io::IoMode;
use badabing_live::cli::Flags;
use badabing_live::control::ControlConfig;
use badabing_live::persist::{save_estimate, ManifestFile};
use badabing_live::provider::Provider;
use badabing_live::sender::{run_sender, SenderConfig};
use badabing_metrics::Registry;
use badabing_stats::rng::seeded;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "badabing_send --target ADDR --secs S [--p P] [--improved] \
                     [--session N] [--seed N] [--bind ADDR] [--manifest PATH] \
                     [--control ADDR] [--log PATH] [--metrics PATH] \
                     [--retry-base-ms MS] [--retry-cap-ms MS] [--attempts N] \
                     [--hb-ms MS] [--hb-misses N] [--io batched|fallback] \
                     [--estimate-every-ms MS] [--estimate-out PATH]";

fn main() -> std::io::Result<()> {
    let flags = Flags::parse(USAGE, &["improved"]);
    let target: SocketAddr = flags.req("target");
    let secs = flags.req_secs("secs").as_secs_f64();
    let p: f64 = flags.opt("p", 0.3);
    let session: u32 = flags.opt("session", 1);
    let seed: u64 = flags.opt("seed", 1);
    let bind: SocketAddr = flags.opt("bind", "0.0.0.0:0".parse().expect("static addr"));
    let manifest_path = PathBuf::from(flags.opt_str("manifest", "manifest.json"));
    let log_path = PathBuf::from(flags.opt_str("log", "receiver.json"));
    let metrics_path = flags.opt_str("metrics", "");
    let estimate_every_ms: u64 = flags.opt("estimate-every-ms", 0);
    let estimate_out = flags.opt_str("estimate-out", "");

    let mut tool = BadabingConfig::paper_default(p);
    if flags.has("improved") {
        tool = tool.with_improved();
    }

    let mut control = ControlConfig::new(flags.opt("control", target));
    control.retry_base = Duration::from_millis(flags.opt("retry-base-ms", 25));
    control.retry_cap = Duration::from_millis(flags.opt("retry-cap-ms", 400));
    control.max_attempts = flags.opt("attempts", 12);
    control.heartbeat_interval = Duration::from_millis(flags.opt("hb-ms", 200));
    control.heartbeat_misses = flags.opt("hb-misses", 3);
    let metrics = Arc::new(Registry::new("badabing_send"));

    let cfg = SenderConfig {
        tool,
        n_slots: (secs / tool.slot_secs).round() as u64,
        target,
        bind,
        session,
        control: Some(control),
        metrics: Some(metrics.clone()),
        provider: Provider::Udp(flags.opt("io", IoMode::Batched)),
        estimate_every: (estimate_every_ms > 0).then(|| Duration::from_millis(estimate_every_ms)),
    };
    eprintln!(
        "sending to {target}: p={p}, {} slots of {} ms, offered load ≈ {:.0} kb/s",
        cfg.n_slots,
        tool.slot_secs * 1000.0,
        tool.offered_load_bps() / 1000.0
    );
    let outcome = run_sender(cfg, seeded(seed, "live-sender"))?;
    let manifest = outcome.manifest;
    eprintln!(
        "sent {} packets in {} probes",
        manifest.packets_sent,
        manifest.sent.len()
    );
    ManifestFile { tool, manifest }.save(&manifest_path)?;
    eprintln!("manifest written to {}", manifest_path.display());
    if let Some(log) = &outcome.receiver_log {
        eprintln!(
            "receiver reported {} packets ({} rejected, {} duplicates)",
            log.packets, log.rejected, log.duplicates
        );
        log.save(&log_path)?;
        eprintln!("receiver log written to {}", log_path.display());
    }
    if let Some(est) = &outcome.mid_run_estimate {
        let fmt = |v: Option<f64>| v.map_or_else(|| "n/a".to_string(), |x| format!("{x:.4}"));
        eprintln!(
            "mid-run estimate ({} experiments): F={} D_basic={} slots D_improved={} slots \
             delay p50={:.6}s p99={:.6}s over {} samples",
            est.estimates.experiments,
            fmt(est.estimates.frequency()),
            fmt(est.estimates.duration_slots_basic()),
            fmt(est.estimates.duration_slots_improved()),
            est.delay.p50_secs,
            est.delay.p99_secs,
            est.delay.samples
        );
        if !estimate_out.is_empty() {
            save_estimate(est, Path::new(&estimate_out))?;
            eprintln!("estimate snapshot written to {estimate_out}");
        }
    }
    for note in &outcome.diagnostics {
        eprintln!("warning: {note}");
    }
    if !metrics_path.is_empty() {
        metrics.save(Path::new(&metrics_path))?;
        eprintln!("metrics written to {metrics_path}");
    }
    if !outcome.completed {
        std::process::exit(1);
    }
    Ok(())
}
