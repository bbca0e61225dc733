//! Sender-side control-plane driver: handshake, liveness, report
//! retrieval.
//!
//! The sender owns every timeout (see `badabing_wire::control` for the
//! message-level protocol). All requests follow the same discipline:
//! send, wait up to the current backoff delay for a matching reply,
//! retry with the delay doubling up to a cap, give up after a bounded
//! number of attempts. Report retrieval applies it per window: one
//! request for up to [`REPORT_WINDOW_CHUNKS`] chunks, then re-requests
//! of only the chunks lost. The caller decides what "give up" means — a
//! failed handshake aborts the run before any probe is sent, while a
//! failed report retrieval degrades to a partial result (the manifest
//! alone still supports loss accounting for every probe that was sent).

use crate::provider::{Clock, Provider, Socket};
use badabing_metrics::{Counter, Registry};
pub use badabing_wire::control::EstimateReport;
use badabing_wire::control::{
    ControlMessage, EstimateScope, RejectReason, ReportRecord, ReportSummary, SessionParams,
    MAX_CONTROL_BYTES, REPORT_WINDOW_CHUNKS,
};
use std::io;
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

/// Timeouts and retry policy for the sender's control plane.
#[derive(Debug, Clone)]
pub struct ControlConfig {
    /// Where the receiver listens for control datagrams. This must be
    /// the receiver's own address — not an emulator in front of it —
    /// because replies flow back over the request's return path.
    pub addr: SocketAddr,
    /// Which I/O backend the control socket binds through. `run_sender`
    /// overwrites this with the sender's own provider so one run never
    /// straddles two backends.
    pub provider: Provider,
    /// Local address for the control socket (`None`: an ephemeral port
    /// on the unspecified address of `addr`'s family).
    pub bind: Option<SocketAddr>,
    /// First retry delay; doubles per attempt.
    pub retry_base: Duration,
    /// Retry delay ceiling.
    pub retry_cap: Duration,
    /// Attempts per request before giving up (1 = no retries).
    pub max_attempts: u32,
    /// Gap between liveness heartbeats during the run.
    pub heartbeat_interval: Duration,
    /// Consecutive unanswered heartbeats that abort the run.
    pub heartbeat_misses: u32,
    /// Pause after the last probe before FIN, letting in-flight probes
    /// drain through any emulated bottleneck ahead of finalization.
    pub drain: Duration,
}

impl ControlConfig {
    /// Defaults tuned for LAN/loopback runs: handshake survives heavy
    /// control loss (12 attempts, 25 ms → 400 ms backoff ≈ 4 s worst
    /// case per request), death detected in under a second.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            provider: Provider::default(),
            bind: None,
            retry_base: Duration::from_millis(25),
            retry_cap: Duration::from_millis(400),
            max_attempts: 12,
            heartbeat_interval: Duration::from_millis(200),
            heartbeat_misses: 3,
            drain: Duration::from_millis(300),
        }
    }

    /// Worst-case wall time one request can occupy.
    pub fn request_deadline(&self) -> Duration {
        Backoff::new(self).take(self.max_attempts as usize).sum()
    }
}

/// Capped exponential backoff delays: `base, 2·base, 4·base, … ≤ cap`.
#[derive(Debug, Clone)]
pub struct Backoff {
    next: Duration,
    cap: Duration,
}

impl Backoff {
    /// Start a fresh backoff schedule from `cfg`.
    pub fn new(cfg: &ControlConfig) -> Self {
        Self {
            next: cfg.retry_base.max(Duration::from_millis(1)),
            cap: cfg.retry_cap,
        }
    }
}

impl Iterator for Backoff {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        let current = self.next.min(self.cap);
        self.next = (current * 2).min(self.cap);
        Some(current)
    }
}

/// Why a control exchange failed.
#[derive(Debug)]
pub enum ControlError {
    /// The peer never produced a matching reply within the retry budget.
    Unreachable {
        /// What was being asked for.
        what: &'static str,
        /// Attempts made.
        attempts: u32,
    },
    /// The receiver answered the SYN with an explicit refusal (e.g. its
    /// session registry is at capacity). Unlike [`Unreachable`], this is
    /// a deliberate fast failure: retrying immediately will not help.
    ///
    /// [`Unreachable`]: ControlError::Unreachable
    Rejected {
        /// The receiver's stated reason.
        reason: RejectReason,
    },
    /// Socket-level failure.
    Io(io::Error),
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::Unreachable { what, attempts } => {
                write!(
                    f,
                    "receiver silent: no {what} reply after {attempts} attempts"
                )
            }
            ControlError::Rejected { reason } => {
                write!(f, "receiver refused the session: {reason}")
            }
            ControlError::Io(e) => write!(f, "control socket error: {e}"),
        }
    }
}

impl std::error::Error for ControlError {}

impl From<io::Error> for ControlError {
    fn from(e: io::Error) -> Self {
        ControlError::Io(e)
    }
}

/// A connected control-plane client socket.
pub struct ControlClient {
    socket: Socket,
    clock: Clock,
    cfg: ControlConfig,
    counters: Option<Counters>,
}

/// The client's counters, looked up once at connect: noting one is a
/// relaxed atomic add, with no name lookup or registry lock.
struct Counters {
    retries: Arc<Counter>,
    rejected: Arc<Counter>,
    foreign_session: Arc<Counter>,
    decode_errors: Arc<Counter>,
    chunks_fetched: Arc<Counter>,
}

impl Counters {
    fn new(m: &Registry) -> Self {
        Self {
            retries: m.counter("control_retries"),
            rejected: m.counter("control_rejected"),
            foreign_session: m.counter("control_foreign_session"),
            decode_errors: m.counter("control_decode_errors"),
            chunks_fetched: m.counter("report_chunks_fetched"),
        }
    }
}

impl ControlClient {
    /// Bind an ephemeral socket on the configured provider and connect
    /// it to the receiver's control address.
    pub fn connect(cfg: ControlConfig, metrics: Option<Arc<Registry>>) -> io::Result<Self> {
        let bind: SocketAddr = cfg.bind.unwrap_or_else(|| {
            if cfg.addr.is_ipv4() {
                "0.0.0.0:0".parse().expect("static addr")
            } else {
                "[::]:0".parse().expect("static addr")
            }
        });
        let socket = cfg.provider.bind(bind)?;
        socket.connect(cfg.addr)?;
        let clock = cfg.provider.clock();
        Ok(Self {
            socket,
            clock,
            cfg,
            counters: metrics.as_deref().map(Counters::new),
        })
    }

    /// The retry policy in force.
    pub fn config(&self) -> &ControlConfig {
        &self.cfg
    }

    /// Bump the counter `pick` names, when metrics are on.
    fn note(&self, pick: impl FnOnce(&Counters) -> &Counter) {
        if let Some(c) = &self.counters {
            pick(c).inc();
        }
    }

    /// Send `request`, wait for the first reply `matches` accepts,
    /// retrying on the backoff schedule. Non-matching datagrams (stale
    /// chunks, undecodable noise, traffic for another session) are
    /// skipped without consuming the attempt's remaining wait, but they
    /// are *counted* (`control_decode_errors`,
    /// `control_foreign_session`) so a misconfigured peer shows up in
    /// the metrics instead of presenting as a plain timeout.
    ///
    /// A SYN-NACK for this session fails the whole exchange fast with
    /// [`ControlError::Rejected`], whatever was being requested: the
    /// receiver sends one for a refused handshake *and* for any control
    /// message addressed to a session it evicted under memory pressure,
    /// and in both cases retrying cannot succeed.
    pub fn request<T>(
        &self,
        what: &'static str,
        request: &ControlMessage,
        mut matches: impl FnMut(ControlMessage) -> Option<T>,
    ) -> Result<T, ControlError> {
        let wire = request.encode();
        let mut buf = [0u8; 2048];
        let mut backoff = Backoff::new(&self.cfg);
        for attempt in 0..self.cfg.max_attempts {
            if attempt > 0 {
                self.note(|c| &c.retries);
            }
            self.socket.send(&wire)?;
            let deadline = self.clock.now() + backoff.next().expect("backoff is infinite");
            while let Some(msg) = self.recv_reply(request.session(), Some(deadline), &mut buf)? {
                if let Some(out) = matches(msg) {
                    return Ok(out);
                }
            }
        }
        Err(ControlError::Unreachable {
            what,
            attempts: self.cfg.max_attempts,
        })
    }

    /// Send one control message, once: no reply is awaited.
    pub(crate) fn send(&self, msg: &ControlMessage) -> io::Result<()> {
        self.socket.send(&msg.encode()).map(drop)
    }

    /// Wait until `deadline` for the next decodable control message for
    /// `session`; `None` once the wait is over. With no deadline, take
    /// only what is already queued: `None` once nothing is. Noise and
    /// other sessions' traffic are counted and skipped, and a SYN-NACK
    /// for `session` fails fast (see [`ControlClient::request`]).
    ///
    /// A reply already queued is taken without waiting; the read timeout
    /// is armed only for a read that will block. A window's chunks
    /// arrive back to back, so most of them cost one read each.
    pub(crate) fn recv_reply(
        &self,
        session: u32,
        deadline: Option<Duration>,
        buf: &mut [u8],
    ) -> Result<Option<ControlMessage>, ControlError> {
        let remaining = |deadline: Duration| deadline.saturating_sub(self.clock.now());
        loop {
            if deadline.is_some_and(|d| remaining(d).is_zero()) {
                return Ok(None);
            }
            let read = match (self.socket.try_recv(buf), deadline) {
                (Err(e), Some(deadline)) if e.kind() == io::ErrorKind::WouldBlock => {
                    let wait = remaining(deadline);
                    if wait.is_zero() {
                        return Ok(None);
                    }
                    self.socket.set_read_timeout(Some(wait))?;
                    self.socket.recv(buf)
                }
                (read, _) => read,
            };
            match read {
                Ok(len) => match ControlMessage::decode(&buf[..len]) {
                    Ok(ControlMessage::SynNack { session: s, reason }) if s == session => {
                        self.note(|c| &c.rejected);
                        return Err(ControlError::Rejected { reason });
                    }
                    Ok(msg) if msg.session() == session => return Ok(Some(msg)),
                    Ok(_) => self.note(|c| &c.foreign_session),
                    Err(_) => self.note(|c| &c.decode_errors),
                },
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                // A previous send to a dead port surfaces as
                // ConnectionRefused on the next recv; treat it as this
                // attempt timing out and keep retrying.
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => return Ok(None),
                Err(e) => return Err(ControlError::Io(e)),
            }
        }
    }

    /// Run the SYN/SYN-ACK handshake. A SYN-NACK from the receiver
    /// (session refused: at capacity, or over the memory budget) fails
    /// fast with [`ControlError::Rejected`] instead of burning the
    /// retry budget — `request` handles the NACK centrally.
    pub fn handshake(&self, session: u32, params: SessionParams) -> Result<(), ControlError> {
        self.request(
            "handshake",
            &ControlMessage::Syn { session, params },
            |msg| match msg {
                ControlMessage::SynAck { .. } => Some(()),
                _ => None,
            },
        )
    }

    /// Send one heartbeat and wait up to `timeout` for its ack. A miss
    /// is `Ok(false)`: no ack in time, or a SYN-NACK for the session
    /// (the receiver evicted it, so no ack is ever coming).
    pub fn heartbeat(&self, session: u32, seq: u64, timeout: Duration) -> io::Result<bool> {
        self.send(&ControlMessage::Heartbeat { session, seq })?;
        let deadline = self.clock.now() + timeout;
        let mut buf = [0u8; MAX_CONTROL_BYTES];
        loop {
            match self.recv_reply(session, Some(deadline), &mut buf) {
                Ok(Some(ControlMessage::HeartbeatAck { seq: got, .. })) if got == seq => {
                    return Ok(true)
                }
                Ok(Some(_)) => {}
                Err(ControlError::Io(e)) => return Err(e),
                Ok(None) | Err(_) => return Ok(false),
            }
        }
    }

    /// Fetch a mid-run estimate snapshot without finalizing anything:
    /// per-session (`scope: Session`) or merged across every live
    /// session on the receiver (`scope: Fleet`). An old receiver that
    /// predates the message drops it as an unknown type, so this fails
    /// as [`ControlError::Unreachable`] after the retry budget — the
    /// run itself is unaffected.
    pub fn fetch_estimate(
        &self,
        session: u32,
        scope: EstimateScope,
    ) -> Result<EstimateReport, ControlError> {
        let req = ControlMessage::EstimateRequest { session, scope };
        self.request("estimate", &req, |msg| match msg {
            ControlMessage::EstimateReply { report, .. } if report.scope == scope => Some(report),
            _ => None,
        })
    }

    /// FIN, then pull the report one window of [`REPORT_WINDOW_CHUNKS`]
    /// chunks at a time, then the closing ack. Returns the receiver's
    /// summary and the full record list.
    pub fn fetch_report(
        &self,
        session: u32,
        probes_sent: u64,
        packets_sent: u64,
    ) -> Result<(ReportSummary, Vec<ReportRecord>), ControlError> {
        let fin = ControlMessage::Fin {
            session,
            probes_sent,
            packets_sent,
        };
        let (total_chunks, summary) = self.request("FIN", &fin, |msg| match msg {
            ControlMessage::FinAck {
                total_chunks,
                summary,
                ..
            } => Some((total_chunks, summary)),
            _ => None,
        })?;

        let mut records = Vec::new();
        let mut base = 0;
        while base < total_chunks {
            let end = base.saturating_add(REPORT_WINDOW_CHUNKS).min(total_chunks);
            for chunk in self.fetch_window(session, base..end)? {
                records.extend(chunk);
            }
            base = end;
        }

        // Closing ack: fire a few copies and move on — if all are lost
        // the receiver still exits via its idle watchdog.
        let bye = ControlMessage::ReportAck {
            session,
            chunk: total_chunks,
        }
        .encode();
        for _ in 0..3 {
            let _ = self.socket.send(&bye);
        }
        Ok((summary, records))
    }

    /// Fetch the report chunks `window` (at most one window), re-requesting
    /// only the ones lost, and return their records in chunk order.
    ///
    /// Loss detection follows RFC 9002 §6.1, with a chunk's place in the
    /// reply stream standing in for a packet number: each request asks
    /// for a contiguous run of chunks and the receiver answers in index
    /// order, so a request for `k` chunks takes the next `k` places.
    fn fetch_window(
        &self,
        session: u32,
        window: Range<u32>,
    ) -> Result<Vec<Vec<ReportRecord>>, ControlError> {
        let n = window.len();
        let mut got: Vec<Option<Vec<ReportRecord>>> = vec![None; n];
        let mut place = vec![0u64; n];
        let mut next_place = 0u64;
        // The latest place of any chunk that has arrived.
        let mut newest = 0u64;
        let mut missing = n;
        let mut lost: Vec<usize> = (0..n).collect();
        // A chunk arrived far enough ahead of a missing one: read every
        // reply already queued before deciding what is lost.
        let mut draining = false;
        let mut backoff = Backoff::new(&self.cfg);
        let mut wait = backoff.next().expect("backoff is infinite");
        let mut expiries = 0;
        let mut buf = [0u8; 2048];
        let mut deadline = Duration::ZERO;
        let overtaken = |got: &[Option<_>], place: &[u64], newest: u64, m: usize| {
            got[m].is_none() && place[m] + REORDER_THRESHOLD <= newest
        };
        while missing > 0 {
            if !lost.is_empty() {
                //= DESIGN.md#windowed-report-transfer
                //# The sender then re-requests each contiguous run of lost
                //# chunks in one request.
                let mut i = 0;
                while i < lost.len() {
                    let mut j = i + 1;
                    while j < lost.len() && lost[j] == lost[j - 1] + 1 {
                        j += 1;
                    }
                    // The window's first request takes places 0..n; every
                    // request after it is a retry.
                    if next_place > 0 {
                        self.note(|c| &c.retries);
                    }
                    for &k in &lost[i..j] {
                        place[k] = next_place;
                        next_place += 1;
                    }
                    let req = ControlMessage::ReportRequest {
                        session,
                        chunk: window.start + lost[i] as u32,
                        count: (j - i) as u16,
                    };
                    self.send(&req)?;
                    i = j;
                }
                lost.clear();
                deadline = self.clock.now() + wait;
            }
            let wait_until = (!draining).then_some(deadline);
            match self.recv_reply(session, wait_until, &mut buf)? {
                Some(ControlMessage::ReportChunk { chunk, records, .. })
                    if window.contains(&chunk) =>
                {
                    let k = (chunk - window.start) as usize;
                    if got[k].is_some() {
                        continue; // a duplicate reply
                    }
                    got[k] = Some(records);
                    missing -= 1;
                    self.note(|c| &c.chunks_fetched);
                    // The peer is alive: the next wait starts over.
                    backoff = Backoff::new(&self.cfg);
                    wait = backoff.next().expect("backoff is infinite");
                    expiries = 0;
                    newest = newest.max(place[k]);
                    draining |= (0..n).any(|m| overtaken(&got, &place, newest, m));
                }
                // Stale chunks of an earlier window, FIN-ACK retransmits.
                Some(_) => {}
                None if draining => {
                    draining = false;
                    //= DESIGN.md#windowed-report-transfer
                    //# A chunk is lost once a chunk three or more places
                    //# later in its window's reply stream has arrived.
                    lost.extend((0..n).filter(|&m| overtaken(&got, &place, newest, m)));
                }
                None => {
                    expiries += 1;
                    if expiries >= self.cfg.max_attempts {
                        return Err(ControlError::Unreachable {
                            what: "report chunk",
                            attempts: expiries,
                        });
                    }
                    wait = backoff.next().expect("backoff is infinite");
                    //= DESIGN.md#windowed-report-transfer
                    //# A chunk is also lost when the attempt's backoff
                    //# wait expires before it arrives.
                    lost.extend((0..n).filter(|&m| got[m].is_none()));
                }
            }
        }
        Ok(got.into_iter().map(Option::unwrap_or_default).collect())
    }
}

/// RFC 9002's packet threshold (`kPacketThreshold`): how many places
/// later in the reply stream a chunk must arrive before an earlier one
/// still missing counts as lost rather than reordered.
const REORDER_THRESHOLD: u64 = 3;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn cfg() -> ControlConfig {
        ControlConfig::new("127.0.0.1:9".parse().unwrap())
    }

    #[test]
    fn backoff_doubles_to_cap() {
        let mut c = cfg();
        c.retry_base = Duration::from_millis(10);
        c.retry_cap = Duration::from_millis(65);
        let delays: Vec<u64> = Backoff::new(&c)
            .take(5)
            .map(|d| d.as_millis() as u64)
            .collect();
        assert_eq!(delays, vec![10, 20, 40, 65, 65]);
    }

    #[test]
    fn request_deadline_sums_attempts() {
        let mut c = cfg();
        c.retry_base = Duration::from_millis(10);
        c.retry_cap = Duration::from_millis(40);
        c.max_attempts = 4;
        // 10 + 20 + 40 + 40
        assert_eq!(c.request_deadline(), Duration::from_millis(110));
    }

    #[test]
    fn unreachable_peer_fails_after_budget() {
        // Port 9 (discard) on loopback: nothing answers. Tight budget so
        // the test stays fast.
        let mut c = cfg();
        c.retry_base = Duration::from_millis(5);
        c.retry_cap = Duration::from_millis(10);
        c.max_attempts = 3;
        let client = ControlClient::connect(c, None).unwrap();
        let started = std::time::Instant::now();
        let err = client
            .handshake(
                1,
                SessionParams {
                    n_slots: 10,
                    slot_ns: 5_000_000,
                    probe_packets: 3,
                    packet_bytes: 600,
                    p: 0.3,
                    improved: false,
                },
            )
            .unwrap_err();
        assert!(
            matches!(err, ControlError::Unreachable { attempts: 3, .. }),
            "{err}"
        );
        assert!(started.elapsed() < Duration::from_secs(2));
    }

    /// What a scripted report server saw: every request, as
    /// `(chunk, count)`, and the closing ack's chunk.
    type Seen = (Vec<(u32, u16)>, Option<u32>);

    /// A report server on FaultNet that serves `total` chunks (chunk `c`
    /// carries one record with `experiment == c`) but drops the first
    /// serve of each chunk in `drop_once`.
    fn scripted_fetch(total: u32, drop_once: &[u32]) -> (Vec<ReportRecord>, Seen, Arc<Registry>) {
        use crate::faultnet::FaultNet;
        use badabing_wire::control::{encode_report_chunk_into, served_chunks, MAX_CONTROL_BYTES};
        let recv: SocketAddr = "10.0.0.1:9000".parse().unwrap();
        let net = FaultNet::new(3);
        let peer = net.bind(recv).unwrap();
        let mut dropped: Vec<u32> = drop_once.to_vec();
        let ticket = net.reserve();
        let server = {
            let net = net.clone();
            std::thread::spawn(move || {
                net.adopt(ticket);
                let mut requests = Vec::new();
                let mut buf = [0u8; MAX_CONTROL_BYTES];
                loop {
                    let d = peer.recv_msg().unwrap();
                    match ControlMessage::decode(&d.data).unwrap() {
                        ControlMessage::Fin { session, .. } => {
                            let ack = ControlMessage::FinAck {
                                session,
                                total_chunks: total,
                                summary: ReportSummary::default(),
                            };
                            peer.send_to(&ack.encode(), d.src).unwrap();
                        }
                        ControlMessage::ReportRequest {
                            session,
                            chunk,
                            count,
                        } => {
                            requests.push((chunk, count));
                            for c in served_chunks(chunk, count, total) {
                                if let Some(i) = dropped.iter().position(|&x| x == c) {
                                    dropped.swap_remove(i);
                                    continue;
                                }
                                let record = ReportRecord {
                                    experiment: u64::from(c),
                                    slot: 0,
                                    received: 1,
                                    duplicates: 0,
                                    qdelay_last_secs: 0.0,
                                    qdelay_max_secs: 0.0,
                                    flags: 0,
                                };
                                let n = encode_report_chunk_into(
                                    session,
                                    c,
                                    total,
                                    &[record],
                                    &mut buf,
                                );
                                peer.send_to(&buf[..n], d.src).unwrap();
                            }
                        }
                        ControlMessage::ReportAck { chunk, .. } => return (requests, Some(chunk)),
                        other => panic!("unexpected {other:?}"),
                    }
                }
            })
        };
        let mut cfg = ControlConfig::new(recv);
        cfg.provider = Provider::Fault(net.clone());
        cfg.bind = Some("10.0.0.2:7001".parse().unwrap());
        let metrics = Arc::new(Registry::new("scripted-fetch"));
        let client = ControlClient::connect(cfg, Some(metrics.clone())).unwrap();
        let (_, records) = client.fetch_report(1, 0, 0).unwrap();
        let seen = net.unenrolled(|| server.join()).unwrap();
        (records, seen, metrics)
    }

    #[test]
    fn windowed_fetch_re_requests_only_the_holes() {
        // Window [0, 32): chunks 5 and 6 are lost early. Chunk 8 crosses
        // the packet threshold, the replies queued behind it are read,
        // and the pair goes out as one run. 30 and 31 have fewer than
        // three chunks after them in the first reply stream and are
        // caught one at a time, as the re-requested 5 and 6 and then 30
        // come back. Window
        // [32, 40): the last three chunks are lost with nothing after
        // them, so the time threshold re-requests them as one run.
        let (records, (requests, ack), metrics) = scripted_fetch(40, &[5, 6, 30, 31, 37, 38, 39]);
        assert_eq!(
            requests,
            vec![(0, 32), (5, 2), (30, 1), (31, 1), (32, 8), (37, 3)]
        );
        assert_eq!(ack, Some(40));
        // Placed by index: the records come back in chunk order.
        let order: Vec<u64> = records.iter().map(|r| r.experiment).collect();
        assert_eq!(order, (0..40).collect::<Vec<u64>>());
        assert_eq!(metrics.counter("report_chunks_fetched").get(), 40);
        assert_eq!(metrics.counter("control_retries").get(), 4);
    }

    #[test]
    fn windowed_fetch_of_a_clean_report_sends_one_request_per_window() {
        let (records, (requests, ack), metrics) = scripted_fetch(70, &[]);
        assert_eq!(requests, vec![(0, 32), (32, 32), (64, 6)]);
        assert_eq!(ack, Some(70));
        assert_eq!(records.len(), 70);
        assert_eq!(metrics.counter("control_retries").get(), 0);
        let (records, (requests, ack), _) = scripted_fetch(0, &[]);
        assert!(records.is_empty() && requests.is_empty());
        assert_eq!(ack, Some(0));
    }

    /// The loss-detection rules are quoted beside the code that applies
    /// them (`//#` lines under a `//= DESIGN.md#…` line, in the manner
    /// of RFC-pinned QUIC stacks): every quote must still appear in
    /// DESIGN.md word for word, so the code and its stated rules cannot
    /// drift apart silently.
    #[test]
    fn loss_rules_are_quoted_from_design_md() {
        let words = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
        let design = words(include_str!("../../../DESIGN.md"));
        let mut quotes = Vec::new();
        let mut quote = String::new();
        for line in include_str!("control.rs").lines().map(str::trim) {
            if let Some(q) = line.strip_prefix("//# ") {
                quote.push_str(q);
                quote.push(' ');
            } else if !quote.is_empty() {
                quotes.push(words(&quote));
                quote.clear();
            }
        }
        assert_eq!(quotes.len(), 3, "{quotes:?}");
        for q in &quotes {
            assert!(design.contains(q.as_str()), "DESIGN.md no longer says: {q}");
        }
    }

    #[test]
    fn garbage_and_foreign_replies_are_counted_not_silent() {
        // A confused peer answers every request with undecodable noise
        // plus a well-formed reply for the wrong session. The request
        // still times out, but the failure mode must be visible in the
        // metrics rather than indistinguishable from a dead peer.
        let peer = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        let peer_addr = peer.local_addr().unwrap();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = stop.clone();
        let fake = std::thread::spawn(move || {
            peer.set_read_timeout(Some(Duration::from_millis(20)))
                .unwrap();
            let mut buf = [0u8; 2048];
            while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                if let Ok((_, from)) = peer.recv_from(&mut buf) {
                    let _ = peer.send_to(b"\xFFnot a control message", from);
                    let wrong = ControlMessage::SynAck { session: 999 }.encode();
                    let _ = peer.send_to(&wrong, from);
                }
            }
        });

        let mut c = ControlConfig::new(peer_addr);
        c.retry_base = Duration::from_millis(30);
        c.retry_cap = Duration::from_millis(30);
        c.max_attempts = 2;
        let metrics = std::sync::Arc::new(Registry::new("ctl"));
        let client = ControlClient::connect(c, Some(metrics.clone())).unwrap();
        let err = client
            .handshake(
                1,
                SessionParams {
                    n_slots: 10,
                    slot_ns: 5_000_000,
                    probe_packets: 3,
                    packet_bytes: 600,
                    p: 0.3,
                    improved: false,
                },
            )
            .unwrap_err();
        assert!(matches!(err, ControlError::Unreachable { .. }), "{err}");
        let decode = metrics.counter("control_decode_errors").get();
        let foreign = metrics.counter("control_foreign_session").get();
        assert!(decode >= 1, "undecodable replies must be counted");
        assert!(foreign >= 1, "wrong-session replies must be counted");
        // A heartbeat meets the same noise: a miss, and counted alike.
        let acked = client.heartbeat(1, 0, Duration::from_millis(100)).unwrap();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        fake.join().unwrap();
        assert!(!acked, "noise is not an ack");
        assert!(
            metrics.counter("control_decode_errors").get() > decode,
            "undecodable heartbeat replies must be counted"
        );
        assert!(
            metrics.counter("control_foreign_session").get() > foreign,
            "wrong-session heartbeat replies must be counted"
        );
    }
}
