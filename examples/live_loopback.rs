//! The live tool end to end on loopback: real UDP sockets, real timers,
//! real control plane.
//!
//! Topology (all on 127.0.0.1):
//!
//! ```text
//! sender --probes--> bottleneck emulator --probes--> receiver
//!    \________________control plane (direct)____________/
//! ```
//!
//! The probe path crosses a user-space 10 Mb/s drop-tail queue with
//! scripted overload episodes (the loopback stand-in for the congested
//! OC3 hop), while the control plane — handshake, heartbeats, FIN and
//! chunked report retrieval — talks to the receiver directly. The sender
//! fetches the receiver's arrival records itself, so the whole
//! measurement, including the §6.1 analysis, runs from one process
//! driving three independent components:
//!
//! ```text
//! cargo run --release --example live_loopback
//! ```

use badabing_core::config::BadabingConfig;
use badabing_live::analyze::analyze_run;
use badabing_live::control::ControlConfig;
use badabing_live::emulator::{Emulator, EmulatorConfig};
use badabing_live::receiver::{start_server, ServerConfig};
use badabing_live::sender::{run_sender, SenderConfig};
use badabing_metrics::Registry;
use badabing_stats::rng::seeded;
use std::sync::Arc;
use std::time::Duration;

fn main() -> std::io::Result<()> {
    let session = 0x5EED;
    let local0 = "127.0.0.1:0".parse().expect("static addr");

    // 1. The receiver owns the final UDP port and serves the control
    //    plane on it; the sender's SYN opens the session. The idle
    //    watchdog is its safety net if the sender vanishes.
    let recv_metrics = Arc::new(Registry::new("receiver"));
    let receiver = start_server(ServerConfig {
        idle_timeout: Some(Duration::from_secs(10)),
        metrics: Some(recv_metrics.clone()),
        ..ServerConfig::any(local0, 1)
    })?;
    eprintln!("receiver listening on {}", receiver.local_addr());

    // 2. The emulated bottleneck sits on the probe path only.
    let emulator = Emulator::start(
        EmulatorConfig {
            rate_bps: 10_000_000,
            buffer_bytes: 125_000,      // 100 ms at 10 Mb/s
            episode_mean_gap_secs: 2.0, // dense episodes for a short demo
            episode_loss_secs: 0.120,
            burst_factor: 4.0,
            ..EmulatorConfig::loopback_default(local0, receiver.local_addr())
        },
        seeded(2, "emu"),
    )?;
    eprintln!("emulator forwarding via {}", emulator.local_addr());

    // 3. The sender probes through the emulator but handshakes with the
    //    receiver directly; it aborts with a partial manifest if the
    //    receiver dies mid-run.
    let tool = BadabingConfig {
        slot_secs: 0.005,
        ..BadabingConfig::paper_default(0.5)
    };
    let send_metrics = Arc::new(Registry::new("sender"));
    let cfg = SenderConfig {
        tool,
        control: Some(ControlConfig::new(receiver.local_addr())),
        metrics: Some(send_metrics.clone()),
        ..SenderConfig::new(tool, 2_000 /* 10 s */, emulator.local_addr(), session)
    };
    eprintln!(
        "sending {} slots of {} ms (offered load ≈ {:.0} kb/s)...",
        cfg.n_slots,
        tool.slot_secs * 1e3,
        tool.offered_load_bps() / 1e3
    );
    let outcome = run_sender(cfg, seeded(3, "probe"))?;
    for note in &outcome.diagnostics {
        eprintln!("warning: {note}");
    }

    let stats = emulator.stop();
    eprintln!(
        "emulator: forwarded {}, dropped {}, {} scripted episodes",
        stats.forwarded, stats.dropped, stats.episodes
    );

    // 4. Analysis runs off the report the sender fetched over the
    //    control plane — no shared memory with the receiver process.
    let log = outcome
        .receiver_log
        .expect("control plane fetches the receiver log");
    eprintln!(
        "receiver reported {} packets ({} rejected, {} duplicates)",
        log.packets, log.rejected, log.duplicates
    );
    let analysis = analyze_run(&tool, &outcome.manifest, &log);
    println!("probes sent:            {}", outcome.manifest.sent.len());
    println!("probe packets lost:     {}", analysis.packets_lost);
    println!(
        "loss-episode frequency: {}",
        analysis
            .frequency()
            .map_or("-".into(), |f| format!("{f:.5}"))
    );
    println!(
        "mean episode duration:  {}",
        analysis
            .duration_secs()
            .map_or("-".into(), |d| format!("{d:.3} s"))
    );
    println!(
        "validation:             {}",
        if analysis.validation.passes(0.25) {
            "PASS"
        } else {
            "FLAGGED"
        }
    );
    println!(
        "\nsender metrics snapshot:\n{}",
        send_metrics.snapshot_json()
    );

    // The receiver serves until stopped.
    let _ = receiver.stop();
    Ok(())
}
