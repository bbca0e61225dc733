//! The live probe receiver: a multi-session server.
//!
//! Collects probe packets on a plain `std::net::UdpSocket` (plain
//! threads, no async runtime), computes per-packet delay against its
//! own monotonic clock, and removes the unknown clock offset and skew
//! by fitting the lower envelope of the raw delay series (§7; see
//! [`crate::skew`]). What remains is queueing delay above the path
//! minimum — exactly the quantity the §6.1 `(1-α)·OWDmax` threshold
//! discriminates on.
//!
//! The datapath is split in two. Probes take the **fast path**: drained
//! in batches (Linux `recvmmsg` via [`crate::batch_io`], one-datagram
//! fallback elsewhere), timestamped once per batch, and ingested through
//! `SessionState::ingest`. Control messages take the slow path and
//! reply through the drain thread's reused scratch, a report window as
//! one segmented write. The batched and fallback paths
//! produce byte-identical per-session reports for the same arrival
//! sequence (see the differential tests).
//!
//! There is one concurrency model: **drain thread `t` owns socket `t`
//! and registry shard `t`**, and session `s` lives in shard `s % N`.
//! One thread (the default) binds one plain socket.
//! `recv_threads = N > 1` binds an `SO_REUSEPORT` group (virtual lanes
//! on the fault net) with a classic-BPF program that sends every
//! datagram of session `s` to thread `s % N`, reading the session id
//! every probe and control message carries; where that bind or attach
//! fails the server runs one thread and counts the fallback. Every probe
//! and control path locks shard `s % N`: the arriving thread's own, so
//! uncontended. A datagram that reaches another thread anyway is still
//! ingested, through a cross-thread lock. Fleet-scope reads lock every
//! shard in index order, so a merged estimate is exact; no other path
//! holds two shard locks.
//!
//! One process serves **many concurrent sender sessions**: a session
//! registry keyed by session id holds per-session accumulation state
//! (probe table, raw-delay series for the skew fit, control-plane
//! finalization snapshot, idle deadline). A session has one
//! lifecycle: only the control-plane SYN opens it, under admission
//! (`max_sessions` and the memory budgets — a SYN past either is
//! refused with an explicit NACK), and it ends completed, idle-reaped,
//! evicted or stopped. Sessions end one at a time *without* terminating
//! the serve loop, which runs until stopped. Probes and control
//! messages for a session no SYN opened are not accepted (probes count
//! as rejected; stale control retransmits are ignored).
//!
//! The receiver also serves the control plane on the same socket
//! (handshake, heartbeats, FIN + chunked report retrieval — see
//! `badabing_wire::control`). The skew-baseline fit and record assembly
//! run per session at that session's finalization, so concurrent
//! sessions never contaminate each other's clock model or records.
//!
//! Each decision has one module:
//!
//! * `session` — one session's state: SYN pre-sizing, probe ingest
//!   (dedup, the online fold, the delay sketch) and finalization into
//!   report records;
//! * `admission` — whether a SYN may open a session (`max_sessions`,
//!   the global memory budget and its reject-or-evict policy), the
//!   memory tally every open session settles into, and the tombstones
//!   of evicted ids;
//! * `control_path` — every control message and its reply;
//! * `watchdog` — the deadline-scheduled sweep on drain thread 0: idle
//!   reaping, memory re-settlement, eviction back under the budget;
//! * this module — the public types, server start and stop, and the
//!   drain loop with the probe fast path.
//!
//! Every drain thread, on every backend, runs one loop: a blocking
//! batched receive bounded by a 25 ms read timeout, so an idle thread
//! wakes 40 times a second and does O(1) work each time. A stop wakes
//! every blocked real receive at once through `Socket::wake_readers`
//! (`shutdown(SHUT_RD)`); a virtual receive sees the stop at its next
//! read timeout, which costs virtual time, not wall time.
//!
//! Every session, however it ends, ends through one function,
//! `Shared::end_session`, after it has left its shard and the shard
//! lock is dropped.

mod admission;
mod control_path;
mod session;
#[cfg(test)]
mod tests;
mod watchdog;

use crate::batch_io::DEFAULT_RECV_BATCH;
use crate::provider::{Clock, Provider, RecvBatch, Socket, TimestampSource};
use admission::Admission;
use badabing_core::estimator::Estimates;
use badabing_metrics::{Counter, Histogram, Registry};
use badabing_stats::DelaySketch;
#[cfg(doc)]
use badabing_wire::control::RejectReason;
use badabing_wire::control::{
    ControlMessage, ReportRecord, ReportSummary, SessionParams, RECORD_FLAG_KERNEL_STAMPED,
};
use badabing_wire::ProbeHeader;
use control_path::{handle_control, Scratch};
use session::SessionState;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use watchdog::maybe_sweep;

/// Multi-session server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to listen on.
    pub bind: SocketAddr,
    /// Registry capacity: SYNs arriving while this many sessions are
    /// active are refused with [`RejectReason::Capacity`]. Completion
    /// and idle reaping free capacity.
    pub max_sessions: usize,
    /// Per-session idle watchdog: a session without any datagram for
    /// this long is finalized and reaped. `None` keeps idle sessions
    /// forever.
    pub idle_timeout: Option<Duration>,
    /// The registry every server tally counts into: run counters, the
    /// `qdelay_secs` histogram and the `fleet_*` gauges (the merged
    /// estimate of the sessions still open, published once at stop;
    /// mid-run, a fleet `EstimateRequest` reads it). `None` gives
    /// the server a private one; [`ServerReport`]'s tallies are read
    /// from it at stop either way. A registry passed to two servers
    /// sums their counters, and each report reads the sums. Per-session
    /// counts live in each session's [`ReceiverLog`], not here.
    pub metrics: Option<Arc<Registry>>,
    /// The I/O backend everything binds through: real UDP on an
    /// [`crate::batch_io::IoMode`] ([`Provider::Udp`], batched syscalls
    /// by default), or a seeded in-process
    /// [`crate::faultnet::FaultNet`] — the differential tests pin the
    /// real backends and hold them to identical reports.
    pub provider: Provider,
    /// Drain threads (≥ 1). Thread `t` owns socket `t` and registry
    /// shard `t`, and runs the full loop (probe fast path + control
    /// slow path). One thread binds one plain socket; `N > 1` bind an
    /// `SO_REUSEPORT` group (virtual lanes on the fault net) that sends
    /// every datagram of session `s` to thread `s % N`, whatever its
    /// source port. Where that bind or attach fails the server runs one
    /// thread (counted, see [`ServerReport::steer_fallbacks`]). The
    /// default of 1 preserves strictly sequential datagram handling.
    pub recv_threads: usize,
    /// Per-session memory ceiling (approximate, capacity-based — see
    /// [`ServerReport::mem_peak_bytes`]). Bounds what one session's
    /// SYN-announced pre-sizing may reserve *and* what its probe stream
    /// may accumulate: probe datagrams that would push the session past
    /// the ceiling are dropped and counted instead of stored.
    pub session_budget_bytes: usize,
    /// Global memory ceiling across every open session. `None` is
    /// unlimited. A SYN whose (budget-capped) projected reservation
    /// would cross it triggers [`ServerConfig::on_pressure`].
    pub global_budget_bytes: Option<usize>,
    /// What to do when admitting a session would exceed the global
    /// budget.
    pub on_pressure: PressurePolicy,
}

/// Admission behaviour under global-budget pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PressurePolicy {
    /// Refuse the new session with [`RejectReason::Budget`].
    #[default]
    Reject,
    /// Evict the longest-idle open session(s) to make room; refuse with
    /// [`RejectReason::Budget`] only if eviction cannot free enough.
    /// Evicted sessions are finalized as [`SessionEnd::Evicted`] and
    /// their later control messages answered with
    /// [`RejectReason::Evicted`] so the far sender fails fast.
    EvictIdle,
}

impl std::str::FromStr for PressurePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "reject" => Ok(PressurePolicy::Reject),
            "evict" | "evict-idle" => Ok(PressurePolicy::EvictIdle),
            other => Err(format!(
                "unknown pressure policy {other:?} (expected reject|evict)"
            )),
        }
    }
}

/// Default per-session memory ceiling. Generous enough for the paper's
/// largest runs (a 180k-slot improved run at 3 packets/probe accounts
/// ~30 MB); tight enough that one hostile session cannot claim the box.
pub const DEFAULT_SESSION_BUDGET_BYTES: usize = 256 << 20;

/// The bytes admission charges against the global budget for a session
/// whose SYN announces `params`: its pre-sized probe table, dedup range
/// and raw-delay series, capped by the per-session budget.
pub fn projected_session_bytes(params: &SessionParams, session_budget: usize) -> usize {
    SessionState::projected_bytes(params, session_budget)
}

impl ServerConfig {
    /// A server on `bind` admitting any session that opens with a SYN,
    /// up to `max_sessions`: no idle watchdog, a private registry,
    /// batched I/O on a single drain thread, and the default
    /// per-session budget with no global ceiling.
    pub fn any(bind: SocketAddr, max_sessions: usize) -> Self {
        Self {
            bind,
            max_sessions,
            idle_timeout: None,
            metrics: None,
            provider: Provider::default(),
            recv_threads: 1,
            session_budget_bytes: DEFAULT_SESSION_BUDGET_BYTES,
            global_budget_bytes: None,
            on_pressure: PressurePolicy::default(),
        }
    }
}

/// Per-probe arrival record.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArrivalRecord {
    /// Distinct packets of this probe that arrived.
    pub received: u8,
    /// Duplicated datagrams observed for this probe (saturating).
    pub duplicates: u8,
    /// Queueing delay (seconds above path minimum) of the most recent
    /// arrival. May be marginally negative: the lower-envelope clock
    /// fit touches the samples only to within numerical error.
    pub qdelay_last_secs: f64,
    /// Maximum queueing delay over the probe's arrivals.
    pub qdelay_max_secs: f64,
    /// Whether every arrival of this probe carried a kernel RX stamp
    /// (precision-grade delay; a userspace-stamped arrival anywhere in
    /// the probe clears it).
    pub kernel_stamped: bool,
}

/// Everything the receiver collected for one session.
#[derive(Debug, Clone, Default)]
pub struct ReceiverLog {
    /// Arrival records keyed by (experiment, slot).
    pub arrivals: HashMap<(u64, u64), ArrivalRecord>,
    /// Distinct probe packets accepted.
    pub packets: u64,
    /// Datagrams rejected (unknown session, undecodable). This is a
    /// server-wide count, not a per-session one: rejected datagrams by
    /// definition could not be attributed to a session.
    pub rejected: u64,
    /// Duplicated probe datagrams detected (not counted in `packets`
    /// or any arrival record's `received`).
    pub duplicates: u64,
    /// The minimum raw delay used as the clock-offset estimate, in
    /// nanoseconds (signed: clocks are unrelated across processes).
    pub min_raw_delay_ns: Option<i64>,
    /// Tool parameters announced by the sender's handshake, if any.
    pub handshake: Option<SessionParams>,
}

impl ReceiverLog {
    /// The control-plane summary of this log.
    pub fn summary(&self) -> ReportSummary {
        ReportSummary {
            packets: self.packets,
            rejected: self.rejected,
            duplicates: self.duplicates,
            min_raw_delay_ns: self.min_raw_delay_ns,
        }
    }

    /// Flatten the arrival map into control-plane report records,
    /// sorted by (experiment, slot) for deterministic chunking.
    pub fn to_records(&self) -> Vec<ReportRecord> {
        let mut records: Vec<ReportRecord> = self
            .arrivals
            .iter()
            .map(|(&(experiment, slot), r)| ReportRecord {
                experiment,
                slot,
                received: r.received,
                duplicates: r.duplicates,
                qdelay_last_secs: r.qdelay_last_secs,
                qdelay_max_secs: r.qdelay_max_secs,
                flags: if r.kernel_stamped {
                    RECORD_FLAG_KERNEL_STAMPED
                } else {
                    0
                },
            })
            .collect();
        records.sort_by_key(|r| (r.experiment, r.slot));
        records
    }

    /// Rebuild a log from a fetched report (the sender-side inverse of
    /// [`ReceiverLog::to_records`]).
    pub fn from_report(summary: ReportSummary, records: &[ReportRecord]) -> Self {
        ReceiverLog {
            arrivals: records
                .iter()
                .map(|r| ((r.experiment, r.slot), arrival_of(r)))
                .collect(),
            packets: summary.packets,
            rejected: summary.rejected,
            duplicates: summary.duplicates,
            min_raw_delay_ns: summary.min_raw_delay_ns,
            handshake: None,
        }
    }
}

/// The arrival record a report record carries.
fn arrival_of(r: &ReportRecord) -> ArrivalRecord {
    ArrivalRecord {
        received: r.received,
        duplicates: r.duplicates,
        qdelay_last_secs: r.qdelay_last_secs,
        qdelay_max_secs: r.qdelay_max_secs,
        kernel_stamped: r.flags & RECORD_FLAG_KERNEL_STAMPED != 0,
    }
}

/// How a session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// The sender acknowledged the full report (clean completion).
    Completed,
    /// The per-session idle watchdog reclaimed it.
    IdleTimeout,
    /// Evicted as the longest-idle session to relieve global memory
    /// pressure ([`PressurePolicy::EvictIdle`]). Its sender's later
    /// control messages are answered with [`RejectReason::Evicted`].
    Evicted,
    /// The server was stopped while the session was still open.
    Stopped,
}

/// One finished session: its id, how it ended, and its FIN snapshot —
/// for a completed session exactly what the sender fetched. The
/// snapshot is kept as the report carries it; [`SessionOutcome::log`]
/// builds the keyed [`ReceiverLog`] view when one is asked for.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Session id.
    pub session: u32,
    /// How the session ended.
    pub end: SessionEnd,
    /// The report summary (the FIN-ACK's).
    pub summary: ReportSummary,
    /// One record per probe that arrived, in `(experiment, slot)`
    /// order: the chunks the sender fetched, concatenated.
    pub records: Vec<ReportRecord>,
    /// The tool parameters the opening SYN announced.
    pub handshake: SessionParams,
}

impl SessionOutcome {
    /// The session's finalized log, built from the snapshot: the
    /// sender-side [`ReceiverLog::from_report`] of its summary and
    /// records, with the handshake.
    pub fn log(&self) -> ReceiverLog {
        ReceiverLog {
            handshake: Some(self.handshake),
            ..ReceiverLog::from_report(self.summary, &self.records)
        }
    }
}

/// Everything a server run produced.
#[derive(Debug, Clone, Default)]
pub struct ServerReport {
    /// Finished sessions in the order they ended (sessions still open
    /// at stop are appended last, sorted by id, as
    /// [`SessionEnd::Stopped`]).
    pub sessions: Vec<SessionOutcome>,
    /// Datagrams rejected across the whole run (probes for sessions no
    /// SYN opened, undecodable noise, over-budget probe drops).
    pub rejected: u64,
    /// SYNs refused at admission — registry at `max_sessions`, or over
    /// the global memory budget.
    pub syns_rejected: u64,
    /// The subset of `syns_rejected` refused for the memory budget
    /// specifically ([`RejectReason::Budget`]).
    pub budget_rejects: u64,
    /// Sessions evicted to relieve global-budget pressure
    /// ([`SessionEnd::Evicted`]).
    pub sessions_evicted: u64,
    /// Out-of-range or pre-FIN report requests answered with an empty
    /// deterministic chunk instead of silence.
    pub chunk_nacks: u64,
    /// High-water mark of the capacity-based session memory accounting,
    /// in bytes (an estimate of registry RSS, not an allocator audit).
    pub mem_peak_bytes: usize,
    /// Logical datagrams produced by splitting GRO super-datagrams.
    pub gro_segments_split: u64,
    /// Control messages (cmsgs) that failed to decode sanely.
    pub cmsg_decode_errors: u64,
    /// Datagrams whose arrival time came from a kernel RX stamp.
    pub rx_timestamp_kernel: u64,
    /// Datagrams that fell back to the userspace per-batch clock read.
    pub rx_timestamp_user_fallback: u64,
    /// `SO_REUSEPORT` group members (virtual lanes) this run bound.
    /// `0` means one drain thread on one plain socket.
    pub reuseport_sockets: u64,
    /// Times a multi-thread configuration fell back to one drain thread
    /// because the reuseport group could not be bound (no
    /// `SO_REUSEPORT` on this kernel/backend).
    pub steer_fallbacks: u64,
    /// Probe datagrams accepted per drain thread, indexed by thread.
    /// With `N` threads, session `s`'s probes count at index `s % N`.
    pub rx_packets_per_thread: Vec<u64>,
}

impl ServerReport {
    /// The finalized log of `session`, if it finished during this run,
    /// built from its snapshot ([`SessionOutcome::log`]).
    pub fn log_for(&self, session: u32) -> Option<ReceiverLog> {
        self.sessions
            .iter()
            .find(|o| o.session == session)
            .map(SessionOutcome::log)
    }
}

/// Handle to a running multi-session server thread.
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    joined: std::thread::JoinHandle<ServerReport>,
    local_addr: SocketAddr,
    clock: Clock,
    /// The drain threads' sockets, so stop can wake every blocked one.
    sockets: Arc<Vec<Socket>>,
}

impl ServerHandle {
    /// The actual bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether the serve loop exited on its own, which only a hard
    /// socket error causes: sessions end one by one, the server runs
    /// until stopped.
    pub fn is_finished(&self) -> bool {
        self.joined.is_finished()
    }

    /// Stop the server and collect its report.
    pub fn stop(self) -> ServerReport {
        self.stop.store(true, Ordering::Relaxed);
        for socket in self.sockets.iter() {
            socket.wake_readers();
        }
        // Join with this thread's virtual turn given up, or a
        // fault-backed serve thread could never run to observe the stop
        // flag.
        let joined = self.joined;
        self.clock
            .unenrolled(|| joined.join())
            .expect("receiver thread panicked")
    }
}

/// The receive wait: how long a drain thread's blocking receive waits
/// for a datagram before it re-checks the stop flag and the watchdog.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Start a multi-session server thread; it serves every session a SYN
/// opens until stopped.
pub fn start_server(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    // One socket per drain thread: a plain bind for one thread, a
    // session-steered `SO_REUSEPORT` group (virtual lanes) for more. A
    // kernel or backend without `SO_REUSEPORT`, or that refuses the
    // steering program, runs one thread instead — the run proceeds,
    // the fallback is counted.
    let (sockets, steer_fallback) = match cfg.recv_threads {
        0 | 1 => (vec![cfg.provider.bind(cfg.bind)?], false),
        n => match cfg.provider.bind_steered(cfg.bind, n) {
            Ok(s) => (s, false),
            Err(_) => (vec![cfg.provider.bind(cfg.bind)?], true),
        },
    };
    let local_addr = sockets[0].local_addr()?;
    for socket in &sockets {
        socket.set_read_timeout(Some(POLL_INTERVAL))?;
        // Best effort: at probe rates worth batching for, the default
        // kernel rcvbuf overflows between scheduler quanta.
        socket.set_buffer_sizes(1 << 22, 1 << 22);
    }
    let sockets = Arc::new(sockets);
    let serve_sockets = sockets.clone();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    let clock = cfg.provider.clock();
    let serve_clock = clock.clone();
    let t0 = clock.now();
    let metrics = cfg
        .metrics
        .clone()
        .unwrap_or_else(|| Arc::new(Registry::new("badabing_recv")));

    // Pre-register the serve thread so a virtual net cannot advance
    // time (and let the sender's handshake retries expire) before the
    // OS has even scheduled it.
    let enlistment = clock.enlist();
    let joined = std::thread::Builder::new()
        .name("badabing-recv".into())
        .spawn(move || {
            serve_clock.adopt(enlistment);
            serve_loop(
                &serve_sockets,
                &cfg,
                &metrics,
                &serve_clock,
                t0,
                &stop_flag,
                steer_fallback,
            )
        })
        .expect("spawn receiver thread");

    Ok(ServerHandle {
        stop,
        joined,
        local_addr,
        clock,
        sockets,
    })
}

/// Server-wide instruments, shared by every drain thread: every server
/// tally counts here once, and [`ServerReport`] reads them at stop.
struct ServeCounters {
    packets: Arc<Counter>,
    rejected: Arc<Counter>,
    dup: Arc<Counter>,
    ctrl: Arc<Counter>,
    opened: Arc<Counter>,
    completed: Arc<Counter>,
    idle_reaped: Arc<Counter>,
    syn_rejected: Arc<Counter>,
    stale: Arc<Counter>,
    truncated: Arc<Counter>,
    recv_syscalls: Arc<Counter>,
    recv_datagrams: Arc<Counter>,
    evicted: Arc<Counter>,
    budget_rejected: Arc<Counter>,
    chunk_nacks: Arc<Counter>,
    over_budget: Arc<Counter>,
    gro_split: Arc<Counter>,
    cmsg_errors: Arc<Counter>,
    ts_kernel: Arc<Counter>,
    ts_user: Arc<Counter>,
    reuseport_sockets: Arc<Counter>,
    steer_fallback: Arc<Counter>,
    /// Probes accepted per drain thread (`rx_packets_thread_<t>`).
    rx_thread: Vec<Arc<Counter>>,
    /// Every finalized session's queueing delays.
    qdelay: Arc<Histogram>,
}

impl ServeCounters {
    fn new(m: &Registry, nthreads: usize) -> Self {
        Self {
            packets: m.counter("packets_accepted"),
            rejected: m.counter("datagrams_rejected"),
            dup: m.counter("duplicates"),
            ctrl: m.counter("control_messages"),
            opened: m.counter("sessions_opened"),
            completed: m.counter("sessions_completed"),
            idle_reaped: m.counter("sessions_idle_reaped"),
            syn_rejected: m.counter("syns_rejected"),
            stale: m.counter("control_stale"),
            truncated: m.counter("packets_truncated"),
            recv_syscalls: m.counter("recv_syscalls"),
            recv_datagrams: m.counter("recv_datagrams"),
            evicted: m.counter("sessions_evicted"),
            budget_rejected: m.counter("syns_budget_rejected"),
            chunk_nacks: m.counter("report_chunk_nacks"),
            over_budget: m.counter("probes_dropped_over_budget"),
            gro_split: m.counter("gro_segments_split"),
            cmsg_errors: m.counter("cmsg_decode_errors"),
            ts_kernel: m.counter("rx_timestamp_kernel"),
            ts_user: m.counter("rx_timestamp_user_fallback"),
            reuseport_sockets: m.counter("reuseport_sockets"),
            steer_fallback: m.counter("steer_fallback"),
            rx_thread: (0..nthreads)
                .map(|t| m.counter(&format!("rx_packets_thread_{t}")))
                .collect(),
            qdelay: m.histogram("qdelay_secs"),
        }
    }
}

/// One drain thread's slice of the session registry: drain thread `t`
/// of `N` holds every session `s` with `s % N == t`.
type Shard = HashMap<u32, SessionState>;

/// Everything the drain threads share. Thread `t` owns `sockets[t]` and
/// `shards[t]`: steering delivers it only its own sessions, so its
/// probe fast path locks only its own (uncontended) shard. Global
/// tallies are counters in `c`, bumped once per batch.
struct Shared<'a> {
    cfg: &'a ServerConfig,
    /// One socket per drain thread: a plain socket for one thread, an
    /// `SO_REUSEPORT` group member (virtual lane) each for more.
    sockets: &'a [Socket],
    /// The primary socket — control replies go out here (all members
    /// share one bound address, so the sender sees the same peer).
    socket: &'a Socket,
    clock: &'a Clock,
    /// Clock reading at serve start; per-packet delay stamps are taken
    /// relative to it.
    t0: Duration,
    shards: Vec<Mutex<Shard>>,
    admission: Admission,
    outcomes: Mutex<Vec<SessionOutcome>>,
    /// Set by [`ServerHandle::stop`], or by a drain thread on a hard
    /// socket error; whoever sets it wakes every socket's blocked
    /// reader.
    stop: &'a AtomicBool,
    c: ServeCounters,
}

impl Shared<'_> {
    /// The shard holding `session`: `shards[session % N]`, the one
    /// steering delivers its datagrams to.
    fn shard_for(&self, session: u32) -> &Mutex<Shard> {
        &self.shards[session as usize % self.shards.len()]
    }

    /// End a session already removed from its shard, with no shard lock
    /// held: release its admission slot and settled memory, finalize it,
    /// record its outcome, and count how it ended.
    fn end_session(&self, id: u32, state: SessionState, end: SessionEnd) {
        self.admission.release(state.accounted_bytes);
        let outcome = state.into_outcome(id, end, self.c.rejected.get(), &self.c.qdelay);
        self.outcomes.lock().expect("outcomes lock").push(outcome);
        match end {
            SessionEnd::Completed => self.c.completed.inc(),
            SessionEnd::IdleTimeout => self.c.idle_reaped.inc(),
            SessionEnd::Evicted => self.c.evicted.inc(),
            SessionEnd::Stopped => {}
        }
    }

    /// Merge every live session's online counters and delay sketch into
    /// one fleet summary. Every shard lock is held at once, taken in
    /// index order, so the read is an atomic cut across threads. One
    /// O(sessions) merge per fleet request, like one watchdog sweep.
    fn fleet_estimate(&self) -> (u32, Estimates, DelaySketch) {
        let shards: Vec<MutexGuard<'_, Shard>> = self
            .shards
            .iter()
            .map(|shard| shard.lock().expect("shard lock"))
            .collect();
        let mut est = Estimates::default();
        let mut sketch = DelaySketch::new();
        let mut sessions_merged = 0u32;
        for s in shards.iter().flat_map(|sessions| sessions.values()) {
            est.merge(&s.online);
            sketch.merge(&s.delay_sketch);
            sessions_merged += 1;
        }
        (sessions_merged, est, sketch)
    }
}

fn serve_loop(
    sockets: &[Socket],
    cfg: &ServerConfig,
    metrics: &Registry,
    clock: &Clock,
    t0: Duration,
    stop: &AtomicBool,
    steer_fallback: bool,
) -> ServerReport {
    // One drain thread per socket, each owning the shard of its index.
    let nthreads = sockets.len();
    let mut shared = Shared {
        cfg,
        sockets,
        socket: &sockets[0],
        clock,
        t0,
        shards: (0..nthreads).map(|_| Mutex::new(HashMap::new())).collect(),
        admission: Admission::new(cfg),
        outcomes: Mutex::new(Vec::new()),
        stop,
        c: ServeCounters::new(metrics, nthreads),
    };
    if steer_fallback {
        shared.c.steer_fallback.inc();
    }
    if nthreads > 1 {
        shared.c.reuseport_sockets.add(nthreads as u64);
    }

    std::thread::scope(|s| {
        let mut workers = Vec::with_capacity(nthreads.saturating_sub(1));
        for t in 1..nthreads {
            let shared = &shared;
            // Workers are clock-enlisted like the serve thread itself:
            // a virtual net must not advance time past a worker that
            // the OS has not scheduled yet.
            let enlistment = clock.enlist();
            workers.push(s.spawn(move || {
                shared.clock.adopt(enlistment);
                drain_loop(shared, t);
            }));
        }
        // The main thread drains too, and owns the idle watchdog.
        drain_loop(&shared, 0);
        // Workers notice `stop` as soon as their blocked receive
        // returns: at once where the stop woke it, else within one
        // receive wait. Join them with this thread's virtual turn given
        // up: a worker still parked in a *virtual* receive timeout needs
        // the net to run before it can observe the flag, and a joiner
        // holding the turn would freeze it.
        clock.unenrolled(|| {
            for w in workers {
                let _ = w.join();
            }
        });
    });

    publish_fleet_gauges(&shared, metrics);
    // Anything still open when the loop ends is finalized as stopped,
    // in id order for determinism.
    let mut open: Vec<(u32, SessionState)> = shared
        .shards
        .iter_mut()
        .flat_map(|m| std::mem::take(m.get_mut().expect("shard lock")))
        .collect();
    open.sort_by_key(|&(id, _)| id);
    for (id, state) in open {
        shared.end_session(id, state, SessionEnd::Stopped);
    }
    let Shared {
        outcomes,
        admission,
        c,
        ..
    } = shared;

    ServerReport {
        sessions: outcomes.into_inner().expect("outcomes lock"),
        rejected: c.rejected.get(),
        syns_rejected: c.syn_rejected.get(),
        budget_rejects: c.budget_rejected.get(),
        sessions_evicted: c.evicted.get(),
        chunk_nacks: c.chunk_nacks.get(),
        mem_peak_bytes: admission.mem_peak(),
        gro_segments_split: c.gro_split.get(),
        cmsg_decode_errors: c.cmsg_errors.get(),
        rx_timestamp_kernel: c.ts_kernel.get(),
        rx_timestamp_user_fallback: c.ts_user.get(),
        reuseport_sockets: c.reuseport_sockets.get(),
        steer_fallbacks: c.steer_fallback.get(),
        rx_packets_per_thread: c.rx_thread.iter().map(|t| t.get()).collect(),
    }
}

/// Publish the fleet-wide view as `fleet_*` gauges: every open
/// session's online counters and delay sketch, merged, and the §5
/// estimates derived from them. Runs once, at stop, before the open
/// sessions are finalized (a fleet `EstimateRequest` reads the same
/// merge on demand mid-run). A derived estimate that does not exist
/// yet (`None`) leaves its gauge as it was rather than publishing a
/// NaN.
fn publish_fleet_gauges(shared: &Shared<'_>, metrics: &Registry) {
    let (sessions_merged, est, sketch) = shared.fleet_estimate();
    let gauges = [
        ("fleet_sessions", Some(f64::from(sessions_merged))),
        (
            "fleet_outcomes_malformed",
            Some(est.outcomes_malformed as f64),
        ),
        ("fleet_frequency", est.frequency()),
        ("fleet_duration_slots_basic", est.duration_slots_basic()),
        (
            "fleet_duration_slots_improved",
            est.duration_slots_improved(),
        ),
        ("fleet_duration_slots_pooled", est.duration_slots_pooled()),
        ("fleet_episode_rate_per_slot", est.episode_rate_per_slot()),
        ("fleet_delay_p50_secs", sketch.quantile(0.5)),
        ("fleet_delay_p99_secs", sketch.quantile(0.99)),
    ];
    for (name, value) in gauges {
        if let Some(v) = value {
            metrics.gauge(name).set(v);
        }
    }
}

/// One drain thread: a blocking batched receive (one syscall per batch
/// where the platform allows) bounded by the receive wait, one
/// timestamp per batch, probe fast path into its own registry shard,
/// control messages on the slow path. Every backend runs this one loop;
/// an idle thread wakes once per receive wait, and a stop wakes a real
/// socket's thread at once. All reply encoding goes through the
/// thread's reused scratch — the steady-state probe path allocates
/// nothing per datagram. Thread 0 also runs the watchdog.
fn drain_loop(shared: &Shared<'_>, me: usize) {
    let mut ring = RecvBatch::new(DEFAULT_RECV_BATCH, &shared.cfg.provider);
    let mut scratch = Scratch::new(&shared.cfg.provider);
    // Only thread 0 ever arms it.
    let mut next_sweep: Option<Duration> = None;
    let socket = &shared.sockets[me];
    while !shared.stop.load(Ordering::Relaxed) {
        if me == 0 {
            maybe_sweep(shared, &mut next_sweep);
        }
        let n = match ring.recv(socket) {
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(_) => {
                // A stop wakes a blocked receive with an error (see
                // `Socket::wake_readers`). Any other error is a hard
                // socket error, and that stops the whole server: every
                // thread leaves its loop, and open sessions end as
                // `Stopped`.
                if !shared.stop.swap(true, Ordering::Relaxed) {
                    for socket in shared.sockets {
                        socket.wake_readers();
                    }
                }
                break;
            }
        };
        // One receive timestamp per batch: every datagram a single
        // recvmmsg return delivered shares it, unless the backend
        // stamped the datagram itself (the fault net stamps every
        // delivery exactly, which is what makes same-seed runs
        // byte-identical). A fallback-path batch is one datagram, so
        // there each datagram gets its own stamp.
        let batch_abs = shared.clock.now();
        process_batch(shared, &ring, n, batch_abs, me, &mut scratch);
    }
    // The ring's own totals land once, at exit.
    let c = &shared.c;
    c.recv_syscalls.add(ring.syscalls());
    c.recv_datagrams.add(ring.datagrams());
    c.gro_split.add(ring.gro_segments_split());
    c.cmsg_errors.add(ring.cmsg_decode_errors());
}

enum Ingest {
    Accepted,
    Duplicate,
    Rejected,
    /// Dropped because storing it would push the session past its
    /// memory budget (counted as rejected, plus its own counter).
    OverBudget,
}

/// The hot counters of one batch: they accumulate per datagram and land
/// as one atomic add each, instead of one per datagram.
#[derive(Default)]
struct Tally {
    accepted: u64,
    rejected: u64,
    duplicates: u64,
    truncated: u64,
    over_budget: u64,
    ts_kernel: u64,
    ts_user: u64,
}

impl Tally {
    /// Add what has accumulated to the server counters and drain thread
    /// `me`'s `rx_packets_thread_<me>`, and start over from zero.
    fn flush(&mut self, c: &ServeCounters, me: usize) {
        let t = std::mem::take(self);
        for (counter, n) in [
            (&c.packets, t.accepted),
            (&c.rx_thread[me], t.accepted),
            (&c.dup, t.duplicates),
            (&c.truncated, t.truncated),
            (&c.over_budget, t.over_budget),
            (&c.ts_kernel, t.ts_kernel),
            (&c.ts_user, t.ts_user),
            (&c.rejected, t.rejected),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
    }
}

/// Ingest one received batch on drain thread `me`. The counters are
/// flushed before every control reply, so a reply never runs ahead of
/// the counts of the probes queued before it.
fn process_batch(
    shared: &Shared<'_>,
    ring: &RecvBatch,
    n: usize,
    batch_abs: Duration,
    me: usize,
    scratch: &mut Scratch,
) {
    let mut tally = Tally::default();
    for i in 0..n {
        // A clipped datagram's payload is incomplete: decoding it would
        // either fail noisily or, worse, parse a valid-looking prefix
        // into garbage accounting. Drop it and make the drop countable.
        if ring.is_truncated(i) {
            tally.truncated += 1;
            continue;
        }
        let (abs, source) = ring.stamp(i, batch_abs);
        match source {
            TimestampSource::Kernel => tally.ts_kernel += 1,
            TimestampSource::User => tally.ts_user += 1,
        }
        let rel = abs.saturating_sub(shared.t0);
        let (data, src) = ring.datagram(i);
        if let Ok(h) = ProbeHeader::decode(data) {
            match ingest_probe(shared, &h, rel, abs, source) {
                Ingest::Accepted => tally.accepted += 1,
                Ingest::Duplicate => tally.duplicates += 1,
                Ingest::Rejected => tally.rejected += 1,
                Ingest::OverBudget => {
                    tally.rejected += 1;
                    tally.over_budget += 1;
                }
            }
        } else if let Ok(msg) = ControlMessage::decode(data) {
            tally.flush(&shared.c, me);
            handle_control(shared, msg, src, abs, scratch);
        } else {
            tally.rejected += 1;
        }
    }
    tally.flush(&shared.c, me);
}

/// The probe fast path: one lock on the session's shard (the arriving
/// thread's own under steering, so uncontended), then the shared
/// [`SessionState::ingest`] accounting — no socket writes, no
/// allocation. A probe for a session no SYN opened is rejected: the SYN
/// is the sole door in.
fn ingest_probe(
    shared: &Shared<'_>,
    h: &ProbeHeader,
    rel: Duration,
    abs: Duration,
    source: TimestampSource,
) -> Ingest {
    let mut sessions = shared.shard_for(h.session).lock().expect("shard lock");
    let Some(state) = sessions.get_mut(&h.session) else {
        return Ingest::Rejected;
    };
    state.last_activity = abs;
    // Per-session budget on the hot path: a sender that announced a
    // small run and then floods must not grow the maps without bound.
    // Capacity arithmetic only — no atomics, no allocation; the global
    // tally catches up at the next watchdog sweep.
    if state.mem_bytes() >= shared.cfg.session_budget_bytes {
        return Ingest::OverBudget;
    }
    if state.ingest(h, rel, source) {
        Ingest::Accepted
    } else {
        Ingest::Duplicate
    }
}
