//! The live probe sender.
//!
//! Walks the experiment schedule from `badabing-core` on a real clock:
//! slot `k` fires at `anchor + k·Δ` (absolute scheduling, so timing
//! error does not accumulate across the run — with 5 ms slots a drifting
//! relative timer would smear slot boundaries within seconds). Each
//! probe is `N` packets sent back to back.
//!
//! When a [`ControlConfig`] is supplied the sender also drives the
//! control plane: SYN/SYN-ACK handshake before the first probe,
//! heartbeats during the run, and FIN + chunked report retrieval
//! afterwards. One thread does it all: the probe loop sleeps to its
//! next slot or its next heartbeat tick, whichever comes first, and a
//! tick only reads the replies already queued and sends, so it never
//! holds a probe back for a reply. Every timeout lives on this side;
//! if the receiver goes silent mid-run the heartbeat watchdog aborts
//! the schedule and the sender returns a *partial* manifest with a
//! diagnostic instead of hanging (see [`SenderOutcome`]).

use crate::control::{ControlClient, ControlConfig, ControlError, EstimateReport};
use crate::provider::{Clock, Provider, SendBatch};
use crate::receiver::ReceiverLog;
use badabing_core::analysis::SentProbe;
use badabing_core::config::BadabingConfig;
use badabing_core::schedule::ExperimentScheduler;
use badabing_metrics::Registry;
use badabing_wire::control::{ControlMessage, EstimateScope, SessionParams, MAX_CONTROL_BYTES};
use badabing_wire::ProbeHeader;
use rand::rngs::StdRng;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Sender configuration.
#[derive(Debug, Clone)]
pub struct SenderConfig {
    /// Tool parameters (slot width, p, probe size, packet size, ...).
    pub tool: BadabingConfig,
    /// Total slots to run (the paper's `N`).
    pub n_slots: u64,
    /// Where to send probes (the receiver, or an emulator in front of it).
    pub target: SocketAddr,
    /// Local bind address (use port 0 for ephemeral).
    pub bind: SocketAddr,
    /// Session id stamped into every packet.
    pub session: u32,
    /// Control-plane policy. `None` only paces probes: no handshake, so
    /// a receiver accepts them only into a session some other SYN
    /// opened.
    pub control: Option<ControlConfig>,
    /// Run counters and latency histograms, if observability is wanted.
    pub metrics: Option<Arc<Registry>>,
    /// I/O backend for probes *and* control: real UDP (batched or
    /// portable syscalls) or a [`crate::FaultNet`]. The sender's
    /// provider wins over whatever the [`ControlConfig`] carries, so a
    /// run can never straddle two backends.
    pub provider: Provider,
    /// Poll the receiver's online estimate (session scope) at this
    /// cadence during the run: a heartbeat tick that finds a poll due
    /// sends one request, and a later tick takes the reply, so polls
    /// fall on the heartbeat grid. The latest snapshot lands in
    /// [`SenderOutcome::mid_run_estimate`] and — when metrics are on —
    /// in `est_*` gauges. `None` disables polling; requires a control
    /// plane to do anything.
    pub estimate_every: Option<Duration>,
}

impl SenderConfig {
    /// A sender that only paces probes (no control plane, no metrics).
    pub fn new(tool: BadabingConfig, n_slots: u64, target: SocketAddr, session: u32) -> Self {
        Self {
            tool,
            n_slots,
            target,
            bind: if target.is_ipv4() {
                "0.0.0.0:0".parse().expect("static addr")
            } else {
                "[::]:0".parse().expect("static addr")
            },
            session,
            control: None,
            metrics: None,
            provider: Provider::default(),
            estimate_every: None,
        }
    }

    /// The handshake announcement derived from this config.
    ///
    /// `run_sender` rejects a non-finite / non-positive slot width with
    /// a proper error before this runs; a direct caller with a bad
    /// width gets `slot_ns == 0` here rather than a panic.
    pub fn session_params(&self) -> SessionParams {
        SessionParams {
            n_slots: self.n_slots,
            slot_ns: Duration::try_from_secs_f64(self.tool.slot_secs)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0),
            probe_packets: self.tool.probe_packets,
            packet_bytes: self.tool.packet_bytes,
            p: self.tool.p,
            improved: self.tool.improved,
        }
    }
}

/// Validate a user-supplied duration in (fractional) seconds.
///
/// `Duration::from_secs_f64` *panics* on NaN, negative, and overflowing
/// inputs — a `--slot-secs nan` on the command line must surface as a
/// usage error, not a crash. Zero is also rejected: a zero-width slot
/// makes every deadline "now" and the schedule meaningless.
pub fn checked_secs(secs: f64, what: &str) -> std::io::Result<Duration> {
    if !secs.is_finite() || secs <= 0.0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("{what} must be a positive finite number of seconds, got {secs}"),
        ));
    }
    Duration::try_from_secs_f64(secs).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("{what} = {secs}: {e}"),
        )
    })
}

/// Everything the sender knows after a run.
#[derive(Debug, Clone)]
pub struct SenderManifest {
    /// Session id used.
    pub session: u32,
    /// Every probe sent, in send order.
    pub sent: Vec<SentProbe>,
    /// Packets transmitted in total. Counts only successful sends: this
    /// is the denominator of the post-run loss accounting, so a packet
    /// the OS refused to emit must not appear in it.
    pub packets_sent: u64,
    /// Packets skipped because the socket refused the send (dead
    /// on-path destination surfacing as `ConnectionRefused`).
    pub packets_refused: u64,
    /// Slots in the run.
    pub n_slots: u64,
    /// Slot width in seconds.
    pub slot_secs: f64,
}

/// The full result of a sender run, partial or complete.
#[derive(Debug, Clone)]
pub struct SenderOutcome {
    /// Probes actually sent (partial if the run aborted).
    pub manifest: SenderManifest,
    /// The receiver's records, fetched over the control plane. `None`
    /// for open-loop runs or when report retrieval failed.
    pub receiver_log: Option<ReceiverLog>,
    /// Whether the whole schedule ran. `false` means the heartbeat
    /// watchdog aborted mid-run; the manifest covers only what was sent.
    pub completed: bool,
    /// The last mid-run estimate snapshot fetched from the receiver,
    /// when [`SenderConfig::estimate_every`] polling was on and at
    /// least one poll succeeded.
    pub mid_run_estimate: Option<EstimateReport>,
    /// Human-readable notes about anything that went wrong.
    pub diagnostics: Vec<String>,
}

/// Offset of slot `k` from the run anchor: `k·Δ` computed in 128-bit
/// nanoseconds. The obvious `slot_dur * (slot as u32)` truncates the
/// slot index to 32 bits — with 5 ms slots that wraps after ~248 days,
/// but with microsecond slots (stress runs) after barely an hour, and a
/// wrapped deadline makes the sender fire the rest of the schedule
/// immediately. Saturates at `Duration::MAX`-representable nanoseconds
/// rather than wrapping.
pub fn slot_offset(slot_dur: Duration, slot: u64) -> Duration {
    let ns = slot_dur.as_nanos().saturating_mul(u128::from(slot));
    Duration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX))
}

/// Run the sender to completion (or heartbeat-abort): handshake if
/// configured, send the schedule, drain, fetch the receiver's report.
/// Fails with `Err` only on invalid config, local socket errors, or an
/// unreachable receiver at handshake time — anything that goes wrong
/// *after* probes start flowing degrades to a partial [`SenderOutcome`]
/// instead.
pub fn run_sender(cfg: SenderConfig, rng: StdRng) -> std::io::Result<SenderOutcome> {
    // Reject unrepresentable slot widths up front, before any socket
    // work: `--slot-secs nan` is a usage error, not a panic.
    let slot_dur = checked_secs(cfg.tool.slot_secs, "slot width (slot_secs)")?;
    let clock = cfg.provider.clock();
    let socket = cfg.provider.bind(cfg.bind)?;
    socket.connect(cfg.target)?;

    // Plan the entire run up front (identical logic to the simulator
    // prober): probes sorted by slot.
    let mut sched = ExperimentScheduler::new(cfg.tool.p, cfg.tool.improved, rng);
    let mut plan: Vec<(u64, u64)> = Vec::new(); // (slot, experiment)
    for e in sched.take_run(cfg.n_slots) {
        for slot in e.slots() {
            plan.push((slot, e.id));
        }
    }
    plan.sort_unstable();

    let mut diagnostics = Vec::new();

    // Handshake before the first probe: a dead receiver fails the run
    // here, not after minutes of probing into the void.
    let mut live = match &cfg.control {
        Some(control_cfg) => {
            // The probe socket's backend wins: control traffic must ride
            // the same (possibly virtual) network as the probes.
            let mut control_cfg = control_cfg.clone();
            control_cfg.provider = cfg.provider.clone();
            let client = ControlClient::connect(control_cfg, cfg.metrics.clone())?;
            client
                .handshake(cfg.session, cfg.session_params())
                .map_err(|e| std::io::Error::other(format!("handshake failed: {e}")))?;
            Some(Liveness::new(client, &cfg, clock.now()))
        }
        None => None,
    };

    let anchor = clock.now();
    let mut sent = Vec::with_capacity(plan.len());
    let mut packets_sent = 0u64;
    let mut packets_refused = 0u64;
    let mut seq = 0u64;
    let n = cfg.tool.probe_packets;
    let bytes = cfg.tool.packet_bytes as usize;
    // Steady-state TX is allocation-free: every packet of a train
    // encodes into its segment of this one reused buffer, and the whole
    // train goes to the kernel in (ideally) one sendmmsg.
    let mut train = vec![0u8; usize::from(n.max(1)) * bytes];
    let mut tx = SendBatch::new(usize::from(n.max(1)), &cfg.provider);
    socket.set_buffer_sizes(1 << 20, 1 << 22);
    let m_probes = cfg.metrics.as_ref().map(|m| m.counter("probes_sent"));
    let m_packets = cfg.metrics.as_ref().map(|m| m.counter("packets_sent"));
    let m_refused = cfg.metrics.as_ref().map(|m| m.counter("packets_refused"));
    let m_lateness = cfg
        .metrics
        .as_ref()
        .map(|m| m.histogram("send_lateness_secs"));
    let mut aborted = false;

    for &(slot, experiment) in &plan {
        let due = anchor + slot_offset(slot_dur, slot);
        let alive = match &mut live {
            Some(l) => l.sleep_until(&clock, due),
            None => {
                clock.sleep_until(due);
                true
            }
        };
        if !alive {
            aborted = true;
            break;
        }
        let send_time_secs = clock.now().saturating_sub(anchor).as_secs_f64();
        if let Some(h) = &m_lateness {
            h.record_secs(clock.now().saturating_sub(due).as_secs_f64());
        }
        // Encode the whole train first — each packet still carries its
        // own monotonic send stamp, taken at encode time immediately
        // before the batch syscall — then hand it to the kernel in one
        // sendmmsg (fallback: one send per packet).
        for idx in 0..n {
            let header = ProbeHeader {
                session: cfg.session,
                experiment,
                slot,
                seq,
                send_ns: clock.now().saturating_sub(anchor).as_nanos() as u64,
                idx,
                probe_len: n,
            };
            seq += 1;
            header.encode_into(&mut train[usize::from(idx) * bytes..][..bytes]);
        }
        let total = usize::from(n);
        let mut off = 0usize;
        let mut refused_here = 0u64;
        // Count only what the kernel accepts: a short sendmmsg count or
        // a refused packet never reaches the wire, and pre-counting
        // would overstate the loss-accounting denominator.
        while off < total {
            match tx.send_segments(&socket, &train[off * bytes..], bytes, total - off) {
                Ok(k) => {
                    packets_sent += k as u64;
                    off += k;
                }
                // A dead on-path destination surfaces as
                // ConnectionRefused on loopback; the heartbeat watchdog
                // is the authority on peer death, so skip the packet
                // rather than crash. The batched path reports an error
                // only for the first unsent packet, so this accounting
                // is identical in both modes.
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
                    refused_here += 1;
                    off += 1;
                }
                Err(e) => return Err(e),
            }
        }
        let sent_ok = (total as u64 - refused_here) as u8;
        packets_refused += refused_here;
        // One counter bump per train, not per packet.
        if let Some(c) = &m_packets {
            c.add(u64::from(sent_ok));
        }
        if refused_here > 0 {
            if let Some(c) = &m_refused {
                c.add(refused_here);
            }
        }
        if let Some(c) = &m_probes {
            c.inc();
        }
        sent.push(SentProbe {
            experiment,
            slot,
            send_time_secs,
            packets: sent_ok,
        });
    }

    // Offload observability: how many trains the kernel segmented for
    // us (0 when GSO is off or was sticky-degraded) and what the whole
    // run cost in TX syscalls.
    if let Some(m) = &cfg.metrics {
        m.counter("gso_sends").add(tx.gso_sends());
        m.counter("tx_syscalls").add(tx.syscalls());
    }

    if aborted {
        diagnostics.push(format!(
            "receiver went silent mid-run: aborted after {} of {} probes \
             (heartbeat watchdog); manifest is partial",
            sent.len(),
            plan.len()
        ));
        if let Some(m) = &cfg.metrics {
            m.counter("runs_aborted").inc();
        }
    }

    let manifest = SenderManifest {
        session: cfg.session,
        sent,
        packets_sent,
        packets_refused,
        n_slots: cfg.n_slots,
        slot_secs: cfg.tool.slot_secs,
    };

    // Report retrieval: only worth attempting if the peer was alive at
    // the end of the schedule. After an abort the retry budget would
    // just delay the (already partial) exit.
    let mut receiver_log = None;
    if let (Some(l), false) = (&mut live, aborted) {
        // Heartbeats keep ticking through the drain wait: with a
        // receiver idle timeout shorter than the drain, stopping
        // liveness here would let the receiver's watchdog reclaim the
        // session before the FIN arrives, and an otherwise-complete
        // report would be lost.
        let drained = clock.now() + l.client.config().drain;
        if !l.sleep_until(&clock, drained) {
            diagnostics.push(
                "receiver went silent during the drain wait; skipping report \
                 retrieval (manifest-only result)"
                    .to_string(),
            );
        } else {
            match l
                .client
                .fetch_report(cfg.session, manifest.sent.len() as u64, packets_sent)
            {
                Ok((summary, records)) => {
                    receiver_log = Some(ReceiverLog::from_report(summary, &records));
                }
                Err(e) => diagnostics.push(format!(
                    "probes all sent but report retrieval failed: {e}; \
                     manifest-only result"
                )),
            }
        }
    }

    Ok(SenderOutcome {
        manifest,
        receiver_log,
        completed: !aborted,
        mid_run_estimate: live.and_then(|l| l.estimate),
        diagnostics,
    })
}

/// The control plane's share of the probe loop. Every
/// `heartbeat_interval` a tick reads the replies already queued,
/// counts a miss if the last heartbeat's ack is not among them, and
/// sends the next heartbeat, plus an estimate request when
/// `estimate_every` is due. A tick never waits: replies are taken at a
/// later tick, and a lost estimate reply is retried by the next poll.
struct Liveness {
    client: ControlClient,
    session: u32,
    metrics: Option<Arc<Registry>>,
    next_tick: Duration,
    /// Sequence number of the next heartbeat.
    seq: u64,
    /// The heartbeat whose ack has not arrived yet, if any.
    awaiting: Option<u64>,
    /// Consecutive ticks without the previous heartbeat's ack.
    misses: u32,
    estimate_every: Option<Duration>,
    next_estimate: Option<Duration>,
    /// The latest estimate snapshot received.
    estimate: Option<EstimateReport>,
}

impl Liveness {
    /// Liveness for `cfg`'s session, its first tick due at `now`.
    fn new(client: ControlClient, cfg: &SenderConfig, now: Duration) -> Self {
        Self {
            client,
            session: cfg.session,
            metrics: cfg.metrics.clone(),
            next_tick: now,
            seq: 0,
            awaiting: None,
            misses: 0,
            estimate_every: cfg.estimate_every,
            next_estimate: cfg.estimate_every.map(|every| now + every),
            estimate: None,
        }
    }

    /// Sleep until `due`, running every tick that falls due first;
    /// `false` once the watchdog gives up.
    fn sleep_until(&mut self, clock: &Clock, due: Duration) -> bool {
        while self.next_tick <= due {
            clock.sleep_until(self.next_tick);
            if !self.tick(clock.now()) {
                return false;
            }
        }
        clock.sleep_until(due);
        true
    }

    /// One tick at `now`; `false` once `heartbeat_misses` consecutive
    /// ticks found the previous heartbeat unanswered, or on a control
    /// socket error.
    fn tick(&mut self, now: Duration) -> bool {
        let mut buf = [0u8; MAX_CONTROL_BYTES];
        // A SYN-NACK for the session: the receiver evicted it, so this
        // tick counts a miss whatever else arrived.
        let mut rejected = false;
        loop {
            match self.client.recv_reply(self.session, None, &mut buf) {
                Ok(None) => break,
                Ok(Some(ControlMessage::HeartbeatAck { seq, .. }))
                    if self.awaiting == Some(seq) =>
                {
                    self.awaiting = None
                }
                Ok(Some(ControlMessage::EstimateReply { report, .. }))
                    if report.scope == EstimateScope::Session =>
                {
                    publish_estimate(self.metrics.as_deref(), &report);
                    self.estimate = Some(report);
                }
                Ok(Some(_)) => {}
                Err(ControlError::Rejected { .. }) => rejected = true,
                Err(_) => return false,
            }
        }
        if self.awaiting.is_some() || rejected {
            self.misses += 1;
            if let Some(m) = &self.metrics {
                m.counter("heartbeats_missed").inc();
            }
            if self.misses >= self.client.config().heartbeat_misses {
                return false;
            }
        } else {
            self.misses = 0;
        }
        let heartbeat = ControlMessage::Heartbeat {
            session: self.session,
            seq: self.seq,
        };
        match self.client.send(&heartbeat) {
            // A send refused by a dead port loses this heartbeat: the
            // next tick counts the miss.
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {}
            Err(_) => return false,
        }
        self.awaiting = Some(self.seq);
        self.seq += 1;
        if let (Some(every), Some(due)) = (self.estimate_every, self.next_estimate) {
            if now >= due {
                self.next_estimate = Some(now + every);
                // Best effort: liveness is the heartbeat's job, and a
                // receiver too old to know the message never answers.
                let _ = self.client.send(&ControlMessage::EstimateRequest {
                    session: self.session,
                    scope: EstimateScope::Session,
                });
            }
        }
        self.next_tick = now + self.client.config().heartbeat_interval;
        true
    }
}

/// Publish a fetched estimate snapshot into `est_*` metrics gauges.
/// Derived estimates that do not exist yet (`None`) leave their gauge
/// at its last value rather than publishing a NaN.
fn publish_estimate(metrics: Option<&Registry>, est: &EstimateReport) {
    let Some(m) = metrics else { return };
    m.counter("estimates_fetched").inc();
    let e = &est.estimates;
    let derived = [
        ("est_frequency", e.frequency()),
        ("est_duration_slots_basic", e.duration_slots_basic()),
        ("est_duration_slots_improved", e.duration_slots_improved()),
        ("est_duration_slots_pooled", e.duration_slots_pooled()),
        ("est_episode_rate_per_slot", e.episode_rate_per_slot()),
    ];
    for (name, value) in derived {
        if let Some(v) = value {
            m.gauge(name).set(v);
        }
    }
    m.gauge("est_delay_p50_secs").set(est.delay.p50_secs);
    m.gauge("est_delay_p99_secs").set(est.delay.p99_secs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use badabing_stats::rng::seeded;
    use std::net::UdpSocket;
    use std::time::Instant;

    fn local(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    #[test]
    fn checked_secs_accepts_normal_widths() {
        assert_eq!(checked_secs(0.005, "x").unwrap(), Duration::from_millis(5));
        assert_eq!(checked_secs(1.0, "x").unwrap(), Duration::from_secs(1));
    }

    #[test]
    fn checked_secs_rejects_every_panic_input() {
        // Each of these used to reach Duration::from_secs_f64 and panic.
        for bad in [
            f64::NAN,
            -1.0,
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
        ] {
            let err = checked_secs(bad, "slot width").unwrap_err();
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::InvalidInput,
                "input {bad} must be InvalidInput"
            );
            assert!(err.to_string().contains("slot width"), "{err}");
        }
    }

    #[test]
    fn bad_slot_secs_is_an_error_not_a_panic() {
        for bad in [f64::NAN, -0.005, 0.0, f64::INFINITY] {
            let cfg = SenderConfig {
                tool: BadabingConfig {
                    slot_secs: bad,
                    ..BadabingConfig::paper_default(0.5)
                },
                ..SenderConfig::new(BadabingConfig::paper_default(0.5), 10, local(9), 1)
            };
            let err = run_sender(cfg, seeded(1, "live-send")).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "input {bad}");
        }
    }

    #[test]
    fn session_params_survive_bad_widths_without_panicking() {
        let cfg = SenderConfig {
            tool: BadabingConfig {
                slot_secs: f64::NAN,
                ..BadabingConfig::paper_default(0.5)
            },
            ..SenderConfig::new(BadabingConfig::paper_default(0.5), 10, local(9), 1)
        };
        assert_eq!(cfg.session_params().slot_ns, 0);
    }

    #[test]
    fn slot_offset_matches_small_multiplication() {
        let d = Duration::from_millis(5);
        assert_eq!(slot_offset(d, 0), Duration::ZERO);
        assert_eq!(slot_offset(d, 1), d);
        assert_eq!(slot_offset(d, 1000), Duration::from_secs(5));
    }

    #[test]
    fn slot_offset_survives_indices_beyond_u32() {
        // Regression: the old deadline math was `slot_dur * (slot as
        // u32)`, which silently truncates the index. At slot 2^32 + 1 it
        // wrapped to 1·Δ and the sender fired the tail of the schedule
        // with no pacing at all.
        let d = Duration::from_micros(1);
        let wrapped = u64::from(u32::MAX) + 2; // `as u32` would give 1
        let truncated = d * 1u32;
        let correct = slot_offset(d, wrapped);
        assert_ne!(correct, truncated, "offset must not wrap at 2^32 slots");
        assert_eq!(correct, Duration::from_micros(wrapped));
        // Monotone in the slot index even across the old wrap point.
        assert!(slot_offset(d, wrapped) > slot_offset(d, u64::from(u32::MAX)));
    }

    #[test]
    fn slot_offset_saturates_instead_of_overflowing() {
        let huge = slot_offset(Duration::from_secs(u64::MAX / 2), u64::MAX);
        assert_eq!(huge, Duration::from_nanos(u64::MAX));
    }

    #[test]
    fn sender_emits_planned_probes_open_loop() {
        // A tiny run straight into a socket we read ourselves.
        let sink = UdpSocket::bind(local(0)).unwrap();
        let target = sink.local_addr().unwrap();
        sink.set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        let cfg = SenderConfig {
            tool: BadabingConfig {
                slot_secs: 0.002, // fast slots to keep the test short
                ..BadabingConfig::paper_default(0.5)
            },
            ..SenderConfig::new(BadabingConfig::paper_default(0.5), 50, target, 7)
        };
        let sender = std::thread::spawn(move || run_sender(cfg, seeded(1, "live-send")));
        let mut received = Vec::new();
        let mut buf = [0u8; 2048];
        while let Ok(len) = sink.recv(&mut buf) {
            received.push(ProbeHeader::decode(&buf[..len]).unwrap());
        }
        let outcome = sender.join().unwrap().unwrap();
        assert!(outcome.completed);
        assert!(outcome.diagnostics.is_empty());
        assert!(outcome.receiver_log.is_none(), "open loop fetches nothing");
        let manifest = outcome.manifest;
        assert!(!manifest.sent.is_empty());
        assert_eq!(manifest.packets_sent as usize, received.len());
        assert!(received.iter().all(|h| h.session == 7));
        // Every (experiment, slot) in the manifest appears probe_len times.
        for probe in &manifest.sent {
            let count = received
                .iter()
                .filter(|h| h.experiment == probe.experiment && h.slot == probe.slot)
                .count();
            assert_eq!(count, usize::from(probe.packets));
        }
        // Send times land at or after their slot boundary (absolute
        // scheduling never fires early; CI jitter only delays).
        for probe in &manifest.sent {
            let nominal = probe.slot as f64 * 0.002;
            assert!(
                probe.send_time_secs >= nominal - 1e-4,
                "probe for slot {} sent early at {}",
                probe.slot,
                probe.send_time_secs
            );
        }
    }

    #[test]
    fn refused_packets_are_not_counted_as_sent() {
        // Regression: packets_sent (and the metric) used to be
        // incremented *before* socket.send, so packets skipped on
        // ConnectionRefused were still counted as transmitted and the
        // manifest overstated the loss-accounting denominator.
        //
        // Reserve a loopback port, then close it: a connected UDP socket
        // sending there gets ICMP port-unreachable back, surfacing as
        // ConnectionRefused on subsequent sends (roughly alternating on
        // Linux), so a multi-packet run is guaranteed refusals.
        let target = {
            let reserved = UdpSocket::bind(local(0)).unwrap();
            reserved.local_addr().unwrap()
        };
        let metrics = Arc::new(Registry::new("send-refused-test"));
        let cfg = SenderConfig {
            tool: BadabingConfig {
                slot_secs: 0.002,
                ..BadabingConfig::paper_default(0.5)
            },
            metrics: Some(metrics.clone()),
            ..SenderConfig::new(BadabingConfig::paper_default(0.5), 60, target, 11)
        };
        let outcome = run_sender(cfg, seeded(3, "live-send")).unwrap();
        assert!(outcome.completed, "open loop must still finish");
        let m = outcome.manifest;
        let probe_len = u64::from(BadabingConfig::paper_default(0.5).probe_packets);
        let attempts = m.sent.len() as u64 * probe_len;
        assert!(attempts > 0);
        assert!(
            m.packets_refused > 0,
            "dead target must produce refusals (got {attempts} clean sends)"
        );
        assert!(
            m.packets_sent < attempts,
            "refused packets counted as sent: {} of {attempts}",
            m.packets_sent
        );
        assert_eq!(
            m.packets_sent + m.packets_refused,
            attempts,
            "every attempt is either sent or refused"
        );
        // Per-probe counts reflect what actually left the host, and the
        // metric agrees with the manifest.
        let per_probe: u64 = m.sent.iter().map(|p| u64::from(p.packets)).sum();
        assert_eq!(per_probe, m.packets_sent);
        assert_eq!(metrics.counter("packets_sent").get(), m.packets_sent);
        assert_eq!(metrics.counter("packets_refused").get(), m.packets_refused);
    }

    #[test]
    fn handshake_failure_is_an_error_not_a_hang() {
        let sink = UdpSocket::bind(local(0)).unwrap(); // swallows probes
        let target = sink.local_addr().unwrap();
        // Control address points at a silent socket too.
        let silent = UdpSocket::bind(local(0)).unwrap();
        let mut control = ControlConfig::new(silent.local_addr().unwrap());
        control.retry_base = Duration::from_millis(5);
        control.retry_cap = Duration::from_millis(10);
        control.max_attempts = 3;
        let cfg = SenderConfig {
            control: Some(control),
            ..SenderConfig::new(BadabingConfig::paper_default(0.3), 10, target, 9)
        };
        let started = Instant::now();
        let err = run_sender(cfg, seeded(2, "live-send")).unwrap_err();
        assert!(err.to_string().contains("handshake"), "{err}");
        assert!(started.elapsed() < Duration::from_secs(2), "must fail fast");
    }
}
