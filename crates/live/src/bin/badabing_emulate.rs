//! The user-space bottleneck emulator as a standalone forwarder.
//!
//! Place it between a sender and a receiver to subject probe traffic to a
//! drop-tail queue of configurable rate/buffer with scripted loss
//! episodes. Only the probe path goes through the emulator — the sender's
//! control plane talks to the receiver directly (`badabing_send
//! --control`):
//!
//! ```text
//! badabing_emulate --bind 127.0.0.1:9100 --target 127.0.0.1:9000 \
//!     --secs 120 [--rate-mbps 20] [--buffer-ms 100] \
//!     [--episode-gap 10] [--episode-loss 0.068] [--burst 2.0] [--seed 1] \
//!     [--metrics metrics.json]
//! ```

use badabing_live::cli::Flags;
use badabing_live::emulator::{Emulator, EmulatorConfig};
use badabing_metrics::Registry;
use badabing_stats::rng::seeded;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;

const USAGE: &str = "badabing_emulate --bind ADDR --target ADDR --secs S \
                     [--rate-mbps M] [--buffer-ms B] [--episode-gap G] \
                     [--episode-loss L] [--burst F] [--seed N] [--metrics PATH]";

fn main() -> std::io::Result<()> {
    let flags = Flags::parse(USAGE, &[]);
    let bind: SocketAddr = flags.req("bind");
    let target: SocketAddr = flags.req("target");
    let run_for = flags.req_secs("secs");
    let rate_mbps: f64 = flags.opt("rate-mbps", 20.0);
    let buffer_ms: f64 = flags.opt("buffer-ms", 100.0);
    let episode_gap: f64 = flags.opt("episode-gap", 10.0);
    let episode_loss: f64 = flags.opt("episode-loss", 0.068);
    let burst: f64 = flags.opt("burst", 2.0);
    let seed: u64 = flags.opt("seed", 1);
    let metrics_path = flags.opt_str("metrics", "");

    let metrics = Arc::new(Registry::new("badabing_emulate"));
    let rate_bps = (rate_mbps * 1e6) as u64;
    let cfg = EmulatorConfig {
        bind,
        target,
        rate_bps,
        buffer_bytes: (rate_bps as f64 * buffer_ms / 1000.0 / 8.0) as u64,
        episode_mean_gap_secs: episode_gap,
        episode_loss_secs: episode_loss,
        burst_factor: burst,
        metrics: Some(metrics.clone()),
    };
    eprintln!(
        "emulating a {rate_mbps} Mb/s bottleneck ({buffer_ms} ms buffer) from {bind} to {target}"
    );
    let emulator = Emulator::start(cfg, seeded(seed, "emulator"))?;
    std::thread::sleep(run_for);
    let stats = emulator.stop();
    eprintln!(
        "forwarded {} datagrams, dropped {}, ran {} scripted episodes",
        stats.forwarded, stats.dropped, stats.episodes
    );
    if !metrics_path.is_empty() {
        metrics.save(Path::new(&metrics_path))?;
        eprintln!("metrics written to {metrics_path}");
    }
    Ok(())
}
