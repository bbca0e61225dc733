//! Differential test for the batched datapath: the same seeded run over
//! loopback must produce the same *accounting* whether both ends use the
//! batched (`recvmmsg`/`sendmmsg`) path or the portable
//! one-datagram-per-syscall fallback.
//!
//! Wall-clock timing (and hence the delay fields) legitimately differs
//! between two live runs, so this test pins down everything that must
//! not: the probe plan, the per-probe arrival keys, the received and
//! duplicate counts, and the loss accounting. The *byte-identical*
//! contract for one arrival sequence fed through both ingest groupings
//! lives in the receiver's unit tests, where timestamps are synthetic.

use badabing_core::config::BadabingConfig;
use badabing_live::batch_io::IoMode;
use badabing_live::control::ControlConfig;
use badabing_live::kernel_offload_caps;
use badabing_live::provider::Provider;
use badabing_live::receiver::{start_server, ReceiverLog, ServerConfig};
use badabing_live::sender::{run_sender, SenderConfig, SenderManifest};
use badabing_stats::rng::seeded;
use std::net::SocketAddr;
use std::time::Duration;

fn local0() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

fn fast_tool() -> BadabingConfig {
    BadabingConfig {
        slot_secs: 0.005,
        ..BadabingConfig::paper_default(0.5)
    }
}

/// One complete control-plane session over loopback with both ends
/// forced to `io`; returns the sender manifest and the report the
/// control plane fetched.
fn run_mode(io: IoMode, session: u32) -> (SenderManifest, ReceiverLog) {
    run_mode_threads(io, 1, session)
}

/// [`run_mode`] with `recv_threads` drain threads: one plain socket, or
/// one `SO_REUSEPORT` group member per thread.
fn run_mode_threads(
    io: IoMode,
    recv_threads: usize,
    session: u32,
) -> (SenderManifest, ReceiverLog) {
    let server = start_server(ServerConfig {
        provider: Provider::Udp(io),
        idle_timeout: Some(Duration::from_secs(10)),
        recv_threads,
        ..ServerConfig::any(local0(), 4)
    })
    .unwrap();
    let tool = fast_tool();
    let mut control = ControlConfig::new(server.local_addr());
    control.drain = Duration::from_millis(100);
    let cfg = SenderConfig {
        tool,
        provider: Provider::Udp(io),
        control: Some(control),
        ..SenderConfig::new(tool, 400 /* 2 s */, server.local_addr(), session)
    };
    // Same seed in both modes: identical schedule, identical probes.
    let outcome = run_sender(cfg, seeded(99, "differential")).unwrap();
    assert!(outcome.completed, "mode {io:?}: run aborted");
    let log = outcome
        .receiver_log
        .expect("control plane fetches the report");
    server.stop();
    (outcome.manifest, log)
}

/// Everything that must not depend on the I/O mode: same probe plan,
/// same send accounting, lossless loopback delivery, and identical
/// per-probe keys/counts in both reports.
fn assert_modes_agree(
    a_name: &str,
    (m_a, log_a): &(SenderManifest, ReceiverLog),
    b_name: &str,
    (m_b, log_b): &(SenderManifest, ReceiverLog),
) {
    // The probe plan is a pure function of the seed: identical streams
    // of (experiment, slot, packets) regardless of I/O mode.
    assert_eq!(m_a.sent.len(), m_b.sent.len());
    for (a, b) in m_a.sent.iter().zip(&m_b.sent) {
        assert_eq!(
            (a.experiment, a.slot, a.packets),
            (b.experiment, b.slot, b.packets)
        );
    }
    assert_eq!(m_a.packets_sent, m_b.packets_sent);
    assert_eq!(m_a.packets_refused, 0, "{a_name}");
    assert_eq!(m_b.packets_refused, 0, "{b_name}");

    // Loopback is lossless: both reports must hold every probe, with
    // identical keys and counts.
    assert_eq!(log_a.packets, m_a.packets_sent, "{a_name}");
    assert_eq!(log_b.packets, m_b.packets_sent, "{b_name}");
    assert_eq!(log_a.duplicates, 0, "{a_name}");
    assert_eq!(log_b.duplicates, 0, "{b_name}");
    assert_eq!(log_a.arrivals.len(), log_b.arrivals.len());
    for (key, rec) in &log_a.arrivals {
        let other = log_b
            .arrivals
            .get(key)
            .unwrap_or_else(|| panic!("probe {key:?} missing from {b_name} run"));
        assert_eq!(rec.received, other.received, "probe {key:?}");
        assert_eq!(rec.duplicates, other.duplicates, "probe {key:?}");
    }
}

#[test]
fn batched_and_fallback_paths_agree_end_to_end() {
    let fall = run_mode(IoMode::Fallback, 0xD1);
    let batch = run_mode(IoMode::Batched, 0xD2);
    assert_modes_agree("fallback", &fall, "batched", &batch);
}

/// The offload tier must be invisible to the accounting: a GSO session
/// (kernel segmentation on send, GRO coalescing and kernel stamps on
/// receive) produces the same probe keys and counts as a batched one.
/// Timestamps legitimately differ — the offload tier stamps in the
/// kernel — so only keys and counts are compared. Skips (passes
/// trivially) on kernels without `UDP_SEGMENT`; on kernels without
/// `UDP_GRO` the leg runs the receive ring's uncoalesced fallback, so
/// GRO itself goes uncompared.
#[test]
fn offload_paths_agree_with_batched_end_to_end() {
    let caps = kernel_offload_caps();
    if !caps.gso_ready() {
        eprintln!("skipping: kernel has no UDP_SEGMENT");
        return;
    }
    if !caps.gro_ready() {
        eprintln!("kernel has no UDP_GRO: GRO comparison skipped");
    }
    let batch = run_mode(IoMode::Batched, 0xE1);
    let gso = run_mode(IoMode::Gso, 0xE2);
    assert_modes_agree("batched", &batch, "gso", &gso);
}

/// The drain-thread count must be invisible to the accounting: a
/// session ingested by four threads over a per-thread `SO_REUSEPORT`
/// socket group produces the same probe keys and counts as one thread
/// on one socket. Skips (passes trivially) on kernels without
/// `SO_REUSEPORT`.
#[test]
fn one_and_four_drain_threads_agree_end_to_end() {
    if !kernel_offload_caps().reuseport_ready() {
        eprintln!("skipping: kernel has no SO_REUSEPORT");
        return;
    }
    let one = run_mode_threads(IoMode::Batched, 1, 0xF1);
    let four = run_mode_threads(IoMode::Batched, 4, 0xF2);
    assert_modes_agree("1 thread", &one, "4 threads", &four);
}
