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
//! reply through a reused stack buffer. The batched and fallback paths
//! produce byte-identical per-session reports for the same arrival
//! sequence (see the differential tests).
//!
//! There is one concurrency model: **drain thread `t` owns socket `t`,
//! its poller and registry shard `t`**, and session `s` lives in shard
//! `s % N`. One thread (the default) binds one plain socket.
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
//! Each session keeps its probes in a **dense table** (the private
//! `session_table` module) sized from the SYN: one cell per projected
//! experiment id, holding the experiment's online-estimator assembly and
//! up to three inline probe entries, plus one dedup byte per projected
//! sequence number. A packet costs one indexed load per structure and
//! allocates nothing. Keys outside that form (ids or seqs past the
//! projection, a 4th slot on one experiment, `idx == 255`, a second idx
//! on one seq) spill into hash maps with the same semantics, so reports
//! and online estimates do not depend on which form held a key. FIN
//! walks the same table: one pass over the raw delays keeps each
//! probe's last and largest queueing delay, and one pass over the cells
//! emits the records already in `(experiment, slot)` order.
//!
//! Memory is accounted per container from its capacity and its
//! element's `size_of` (`Footprint` in `session_table`): the
//! same formula sizes the SYN's reservation, charges admission's
//! projected bytes ([`projected_session_bytes`]) against the global
//! budget, and settles each session's footprint as it grows.
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
//! Sample-record integrity: real networks duplicate and reorder
//! datagrams, and a duplicated arrival must not make a lost probe look
//! complete (the estimator's input is the per-probe loss record, so
//! inflation there corrupts everything downstream). Arrivals are
//! deduplicated per session by `(seq, idx)`; duplicates are counted
//! separately and never touch the loss accounting. Reordering is
//! harmless by construction — records are keyed by `(experiment, slot)`,
//! not arrival order.
//!
//! The receiver also serves the control plane on the same socket
//! (handshake, heartbeats, FIN + chunked report retrieval — see
//! `badabing_wire::control`). The skew-baseline fit and record assembly
//! run per session at that session's finalization, so concurrent
//! sessions never contaminate each other's clock model or records.

use crate::batch_io::DEFAULT_RECV_BATCH;
use crate::control::estimate_counters;
use crate::event_loop::{epoll_ready, PollWaker, Poller, Wait};
use crate::provider::{Clock, Provider, RecvBatch, Socket, TimestampSource};
use crate::session_table::{Footprint, RawDelay, SessionTable};
use badabing_core::estimator::Estimates;
use badabing_metrics::{Counter, Histogram, Registry};
use badabing_stats::DelaySketch;
use badabing_wire::control::{
    chunk_count, chunk_window, encode_report_chunk_into, ControlMessage, DelaySummary,
    EstimateScope, RejectReason, ReportRecord, ReportSummary, SessionParams, MAX_CONTROL_BYTES,
    RECORD_FLAG_KERNEL_STAMPED,
};
use badabing_wire::ProbeHeader;
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

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
    /// `qdelay_secs` histogram and the `fleet_*` gauges. `None` gives
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
    /// Periodically merge every live session's online estimator
    /// counters and delay sketch into fleet-wide metrics gauges
    /// (`fleet_*`) in the server's registry. `None` disables the
    /// snapshots.
    pub estimate_interval: Option<Duration>,
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
            estimate_interval: None,
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

/// One finished session: its id, how it ended, and its finalized log.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Session id.
    pub session: u32,
    /// How the session ended.
    pub end: SessionEnd,
    /// The session's finalized log. For a completed session this is the
    /// FIN snapshot — exactly what the sender fetched.
    pub log: ReceiverLog,
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
    /// The finalized log of `session`, if it finished during this run.
    pub fn log_for(&self, session: u32) -> Option<&ReceiverLog> {
        self.sessions
            .iter()
            .find(|o| o.session == session)
            .map(|o| &o.log)
    }
}

/// Handle to a running multi-session server thread.
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    joined: std::thread::JoinHandle<ServerReport>,
    local_addr: SocketAddr,
    clock: Clock,
    /// One waker per drain thread (each parks on its own epoll fd, so
    /// stop must kick every one).
    wakers: Arc<Vec<PollWaker>>,
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
        // Kick every parked drain thread out of epoll_wait; no-op on
        // the timeout loop (its blocking recv times out on its own).
        for w in self.wakers.iter() {
            w.wake();
        }
        self.clock.notify_waiters();
        // Join outside the virtual busy count, or a fault-backed serve
        // thread could never be scheduled to observe the stop flag.
        let joined = self.joined;
        self.clock
            .unenrolled(|| joined.join())
            .expect("receiver thread panicked")
    }
}

/// How often the receive loop wakes to check the stop flag and watchdog.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Upper bound on one epoll park: keeps stop-flag latency bounded even
/// if a wake is somehow lost, without costing idle CPU (one wakeup per
/// half-second is noise).
const EPOLL_MAX_PARK: Duration = Duration::from_millis(500);

/// Floor between two watchdog sweeps, so clustered session deadlines
/// cannot turn the sweep into a hot spin.
const MIN_SWEEP_GAP: Duration = Duration::from_millis(5);

/// Sweep cadence when no idle timeout schedules one: sweeps still
/// re-settle per-session memory accounting and reconcile the global
/// budget, so they must keep running.
const SWEEP_FALLBACK: Duration = Duration::from_millis(200);

/// A finalized session snapshot: frozen at the first FIN (or at reap
/// time) and re-served verbatim on every retransmit. Chunks are not
/// materialized: any requested chunk is encoded on demand straight from
/// a window of `records` ([`encode_report_chunk_into`]), byte-identical
/// across re-requests, with no per-chunk record clone.
struct Finalized {
    records: Vec<ReportRecord>,
    summary: ReportSummary,
}

impl Finalized {
    fn total_chunks(&self) -> u32 {
        chunk_count(self.records.len())
    }
}

/// Per-session accumulation state in the registry.
struct SessionState {
    /// Raw delay samples of first copies, in arrival order.
    raw_delays: Vec<RawDelay>,
    /// Per-probe arrivals, dedup state and online assembly.
    table: SessionTable,
    packets: u64,
    duplicates: u64,
    min_raw: Option<i64>,
    /// The tool parameters the opening SYN announced.
    handshake: SessionParams,
    /// Clock time (absolute, since the provider clock's epoch) of the
    /// last datagram for this session — the idle watchdog's input.
    last_activity: Duration,
    finalized: Option<Finalized>,
    /// §5 pattern counters maintained incrementally on the ingest fast
    /// path (loss-only outcome derivation — see [`SessionTable::fold`]).
    /// Frozen once the session finalizes, so post-FIN strays cannot
    /// drift the snapshot the differential contract pins.
    online: Estimates,
    /// Fixed log-scale sketch of offset-adjusted raw delays (seconds
    /// above the running path minimum), mergeable across sessions.
    delay_sketch: DelaySketch,
    /// What this session last settled against the server's global
    /// memory tally ([`Shared::settle_mem`]); released when the session
    /// leaves the registry.
    accounted_bytes: usize,
}

impl SessionState {
    /// A session opened by a SYN announcing `params`, pre-sized so a
    /// full-length run never reallocates mid-flight: the dense table
    /// covers the projected experiments and one dedup byte per
    /// projected packet, and the raw-delay series one sample per
    /// packet. Hard caps ([`SessionState::desired`]) plus the
    /// per-session byte budget bound what a malicious SYN can balloon.
    /// The online estimator's slot width is seeded from the same
    /// expression the report-side fold uses, so the FIN differential is
    /// bit-exact.
    fn new(params: SessionParams, session_budget: usize, now: Duration) -> Self {
        let mut want = Self::desired(&params);
        // Scale the reservation down to the per-session budget: a SYN
        // may promise any run size, the receiver only pays up to the
        // budget for it.
        let bytes = want.bytes();
        if bytes > session_budget {
            want = want.scaled(session_budget, bytes);
        }
        Self {
            raw_delays: Vec::with_capacity(want.raw),
            table: SessionTable::dense(want.cells, want.seqs),
            packets: 0,
            duplicates: 0,
            min_raw: None,
            handshake: params,
            last_activity: now,
            finalized: None,
            online: Estimates {
                slot_secs: params.slot_ns as f64 / 1e9,
                ..Estimates::default()
            },
            delay_sketch: DelaySketch::new(),
            accounted_bytes: 0,
        }
    }

    /// The capacities of this session's containers — what was
    /// reserved, not merely filled, since that is what a hostile SYN
    /// inflates and what the budgets must bound.
    fn footprint(&self) -> Footprint {
        Footprint {
            raw: self.raw_delays.capacity(),
            records: self.finalized.as_ref().map_or(0, |f| f.records.capacity()),
            ..self.table.footprint()
        }
    }

    /// Bytes this session's containers hold ([`Footprint::bytes`]).
    /// Pure arithmetic on a handful of fields: cheap enough for the
    /// per-datagram fast path.
    fn mem_bytes(&self) -> usize {
        self.footprint().bytes()
    }

    /// What a SYN announcing `params` asks to have reserved, after the
    /// hard anti-hostile caps. Both the experiment count *and* the
    /// per-packet containers are capped: `probe_packets` (up to 255)
    /// multiplies the packet count, so a cap on experiments alone would
    /// let one datagram demand gigabytes of reservation.
    fn desired(params: &SessionParams) -> Footprint {
        const MAX_RESERVED_PROBES: usize = 1 << 21;
        const MAX_RESERVED_PACKETS: usize = 1 << 22;
        let slots_per_exp: usize = if params.improved { 3 } else { 2 };
        // Each slot starts an experiment with probability p, so the
        // count is Binomial(n_slots, p). The dense range reaches four
        // standard deviations past the mean, so a run that drew a few
        // more experiments than p·n_slots keeps its tail out of the
        // spill maps.
        let p = params.p.clamp(0.0, 1.0);
        let mean = params.n_slots as f64 * p;
        let experiments = (mean + 4.0 * (mean * (1.0 - p)).sqrt()).ceil() as usize;
        let cells = experiments.min(MAX_RESERVED_PROBES / slots_per_exp);
        let packets = (cells * slots_per_exp)
            .saturating_mul(usize::from(params.probe_packets.max(1)))
            .min(MAX_RESERVED_PACKETS);
        Footprint {
            cells,
            seqs: packets,
            raw: packets,
            ..Footprint::default()
        }
    }

    /// The bytes [`SessionState::new`] reserves for a SYN announcing
    /// `params`, clamped by the per-session budget — what admission
    /// charges against the global budget before any container exists.
    fn projected_bytes(params: &SessionParams, session_budget: usize) -> usize {
        Self::desired(params).bytes().min(session_budget)
    }

    /// Per-probe accounting shared verbatim by the batched and fallback
    /// datapaths (the differential test feeds both through here with
    /// identical timestamps and demands byte-identical reports).
    /// Returns `false` for a duplicated `(seq, idx)` datagram, which is
    /// tracked but never inflates arrival counts — a lost probe must
    /// not look complete.
    fn ingest(&mut self, h: &ProbeHeader, now: Duration, source: TimestampSource) -> bool {
        if !self.table.first_copy(h.seq, h.idx) {
            self.duplicates += 1;
            self.table.duplicate(h.experiment, h.slot);
            return false;
        }
        self.packets += 1;
        let raw = now.as_nanos() as i64 - h.send_ns as i64;
        self.min_raw = Some(self.min_raw.map_or(raw, |m| m.min(raw)));
        self.raw_delays
            .push((h.experiment, h.slot, now.as_secs_f64(), raw));
        let new_slot = self.table.accept(
            h.experiment,
            h.slot,
            h.idx,
            h.probe_len,
            source == TimestampSource::Kernel,
        );
        // Online estimator fold + delay sketch, frozen once the session
        // has finalized: the FIN snapshot is the contract, and a stray
        // post-FIN probe must not drift the live estimate away from it.
        if self.finalized.is_none() {
            self.table
                .fold(h.experiment, h.slot, new_slot, &mut self.online);
            let min = self.min_raw.unwrap_or(raw);
            self.delay_sketch.push((raw - min) as f64 / 1e9);
        }
        true
    }

    /// Freeze the session log on first call; later calls re-serve the
    /// same snapshot (FIN idempotency).
    ///
    /// The clock baseline is fitted over the whole session and turns
    /// raw delays into queueing delays (§7): a running minimum would
    /// bias early records upward, and min-subtraction alone would let
    /// clock skew masquerade as queueing delay on long runs.
    /// Every queueing delay lands in `qdelay` on the way.
    fn finalize(&mut self, rejected: u64, qdelay: &Histogram) -> &Finalized {
        if self.finalized.is_none() {
            let points: Vec<(f64, f64)> = self
                .raw_delays
                .iter()
                .map(|&(_, _, t, raw)| (t, raw as f64 / 1e9))
                .collect();
            let baseline = crate::skew::fit_baseline(&points).unwrap_or(crate::skew::Baseline {
                offset: 0.0,
                slope: 0.0,
            });
            let records = self.table.finish(&self.raw_delays, &baseline, qdelay);
            self.finalized = Some(Finalized {
                records,
                summary: ReportSummary {
                    packets: self.packets,
                    rejected,
                    duplicates: self.duplicates,
                    min_raw_delay_ns: self.min_raw,
                },
            });
        }
        self.finalized.as_ref().expect("just finalized")
    }

    fn into_outcome(
        mut self,
        session: u32,
        end: SessionEnd,
        rejected: u64,
        qdelay: &Histogram,
    ) -> SessionOutcome {
        self.finalize(rejected, qdelay);
        let f = self.finalized.expect("just finalized");
        let log = ReceiverLog {
            handshake: Some(self.handshake),
            ..ReceiverLog::from_report(f.summary, &f.records)
        };
        SessionOutcome { session, end, log }
    }
}

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
    let wakers: Arc<Vec<PollWaker>> = Arc::new(
        sockets
            .iter()
            .map(|s| PollWaker::new(epoll_ready(s)))
            .collect::<std::io::Result<_>>()?,
    );
    let serve_wakers = wakers.clone();
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
                &sockets,
                &cfg,
                &metrics,
                &serve_clock,
                t0,
                &stop_flag,
                &serve_wakers,
                steer_fallback,
            )
        })
        .expect("spawn receiver thread");

    Ok(ServerHandle {
        stop,
        joined,
        local_addr,
        clock,
        wakers,
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

/// Recently evicted session ids, bounded: enough to answer a stale
/// sender's next control message with an explicit
/// [`RejectReason::Evicted`] NACK instead of silence, small enough to
/// never matter for the budgets it exists to serve.
#[derive(Default)]
struct Tombstones {
    order: VecDeque<u32>,
    set: HashSet<u32>,
}

/// How many evicted session ids the tombstone ring remembers.
const TOMBSTONE_CAP: usize = 4096;

/// One drain thread's slice of the session registry: drain thread `t`
/// of `N` holds every session `s` with `s % N == t`.
type Shard = HashMap<u32, SessionState>;

/// Everything the drain threads share. Thread `t` owns `sockets[t]`,
/// `wakers[t]` and `shards[t]`: steering delivers it only its own
/// sessions, so its probe fast path locks only its own (uncontended)
/// shard. Global tallies are counters in `c`, bumped once per batch.
struct Shared<'a> {
    cfg: &'a ServerConfig,
    /// The registry `c` counts into; the fleet gauges land here too.
    metrics: &'a Registry,
    /// One socket per drain thread: a plain socket for one thread, an
    /// `SO_REUSEPORT` group member (virtual lane) each for more.
    sockets: &'a [Socket],
    /// The primary socket — control replies go out here (all members
    /// share one bound address, so the sender sees the same peer).
    socket: &'a Socket,
    clock: &'a Clock,
    /// Clock reading at serve start; per-packet delay stamps are taken
    /// relative to it so the time base matches the old `Instant` anchor.
    t0: Duration,
    shards: Vec<Mutex<Shard>>,
    /// Set on session open/finalize/close so the watchdog re-arms its
    /// sweep deadline instead of sleeping out a stale one.
    sweep_dirty: AtomicBool,
    /// Open sessions across all shards (registry admission cap).
    active: AtomicUsize,
    outcomes: Mutex<Vec<SessionOutcome>>,
    /// Capacity-based bytes currently settled across open sessions.
    mem_used: AtomicUsize,
    /// High-water mark of `mem_used`.
    mem_peak: AtomicUsize,
    tombstones: Mutex<Tombstones>,
    /// Set when the serve loop should exit on a hard socket error.
    done: AtomicBool,
    stop: &'a AtomicBool,
    /// Kicks parked epoll waiters on `done`/stop transitions: one per
    /// drain thread (each parks on its own epoll fd).
    wakers: &'a [PollWaker],
    c: ServeCounters,
}

impl Shared<'_> {
    fn wake_all(&self) {
        for w in self.wakers {
            w.wake();
        }
    }

    /// The shard holding `session`: `shards[session % N]`, the one
    /// steering delivers its datagrams to.
    fn shard_for(&self, session: u32) -> &Mutex<Shard> {
        &self.shards[session as usize % self.shards.len()]
    }

    /// Flag the watchdog to re-arm its sweep deadline now: a session
    /// opened, finalized, or closed, so the earliest-deadline estimate
    /// it parked on is stale.
    fn mark_sweep_dirty(&self) {
        self.sweep_dirty.store(true, Ordering::Relaxed);
        // The watchdog is drain thread 0.
        self.wakers[0].wake();
    }

    /// Reserve one admission slot below `max_sessions`, exactly (CAS
    /// loop: concurrent SYNs on different shards cannot over-admit).
    fn try_admit(&self) -> bool {
        let mut cur = self.active.load(Ordering::Relaxed);
        loop {
            if cur >= self.cfg.max_sessions {
                return false;
            }
            match self.active.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    /// Finalize a session already removed from its shard and record its
    /// outcome, releasing its settled memory.
    fn end_session(&self, id: u32, state: SessionState, end: SessionEnd) {
        self.mem_used
            .fetch_sub(state.accounted_bytes, Ordering::Relaxed);
        let outcome = state.into_outcome(id, end, self.c.rejected.get(), &self.c.qdelay);
        self.outcomes.lock().expect("outcomes lock").push(outcome);
        self.active.fetch_sub(1, Ordering::Relaxed);
        self.mark_sweep_dirty();
    }

    /// Re-settle a session's capacity-based memory estimate against the
    /// global tally, after anything that may have grown (or shrunk) its
    /// containers.
    fn settle_mem(&self, state: &mut SessionState) {
        let now = state.mem_bytes();
        let before = std::mem::replace(&mut state.accounted_bytes, now);
        if now > before {
            let used = self.mem_used.fetch_add(now - before, Ordering::Relaxed) + (now - before);
            self.mem_peak.fetch_max(used, Ordering::Relaxed);
        } else if before > now {
            self.mem_used.fetch_sub(before - now, Ordering::Relaxed);
        }
    }

    /// Charge `bytes` against the global budget, evicting idle sessions
    /// under [`PressurePolicy::EvictIdle`] until it fits. Must be
    /// called with NO shard lock held — the eviction path takes them
    /// one at a time.
    fn try_charge(&self, bytes: usize) -> bool {
        let Some(global) = self.cfg.global_budget_bytes else {
            let used = self.mem_used.fetch_add(bytes, Ordering::Relaxed) + bytes;
            self.mem_peak.fetch_max(used, Ordering::Relaxed);
            return true;
        };
        loop {
            let used = self.mem_used.load(Ordering::Relaxed);
            if used.saturating_add(bytes) <= global {
                if self
                    .mem_used
                    .compare_exchange_weak(used, used + bytes, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    self.mem_peak.fetch_max(used + bytes, Ordering::Relaxed);
                    return true;
                }
                continue;
            }
            match self.cfg.on_pressure {
                PressurePolicy::Reject => return false,
                PressurePolicy::EvictIdle => {
                    if !self.evict_oldest_idle() {
                        return false;
                    }
                }
            }
        }
    }

    /// Evict the longest-idle open session to relieve memory pressure:
    /// it is finalized as [`SessionEnd::Evicted`] and tombstoned so its
    /// sender's next control message gets an explicit NACK. Returns
    /// `false` when the registry is empty (nothing left to shed).
    /// Shard locks are taken one at a time — never nested.
    fn evict_oldest_idle(&self) -> bool {
        let mut oldest: Option<(usize, u32, Duration)> = None;
        for (i, shard) in self.shards.iter().enumerate() {
            let sessions = shard.lock().expect("shard lock");
            for (&id, s) in sessions.iter() {
                if oldest.is_none_or(|(_, _, t)| s.last_activity < t) {
                    oldest = Some((i, id, s.last_activity));
                }
            }
        }
        let Some((i, id, _)) = oldest else {
            return false;
        };
        let mut sessions = self.shards[i].lock().expect("shard lock");
        let Some(state) = sessions.remove(&id) else {
            // Raced with completion or reaping between the scan and the
            // re-lock; memory was freed either way, let the caller
            // re-evaluate.
            return true;
        };
        drop(sessions);
        self.tombstone(id);
        self.c.evicted.inc();
        self.end_session(id, state, SessionEnd::Evicted);
        true
    }

    fn tombstone(&self, id: u32) {
        let mut t = self.tombstones.lock().expect("tombstones lock");
        if t.set.insert(id) {
            t.order.push_back(id);
            if t.order.len() > TOMBSTONE_CAP {
                if let Some(old) = t.order.pop_front() {
                    t.set.remove(&old);
                }
            }
        }
    }

    /// A session id re-admitted by a fresh SYN is no longer "evicted".
    fn untombstone(&self, id: u32) {
        let mut t = self.tombstones.lock().expect("tombstones lock");
        if t.set.remove(&id) {
            t.order.retain(|&o| o != id);
        }
    }

    /// If `id` was evicted, answer its stale control message with an
    /// explicit [`RejectReason::Evicted`] NACK so the far sender fails
    /// fast instead of burning its whole retry schedule.
    fn reply_if_evicted(&self, id: u32, src: SocketAddr, scratch: &mut [u8; MAX_CONTROL_BYTES]) {
        let evicted = self
            .tombstones
            .lock()
            .expect("tombstones lock")
            .set
            .contains(&id);
        if evicted {
            let nack = ControlMessage::SynNack {
                session: id,
                reason: RejectReason::Evicted,
            };
            send_reply(self.socket, &nack, src, scratch);
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

    /// Refuse a SYN with `reason` (counted in both the total and, where
    /// applicable, the per-reason tallies by the caller).
    fn refuse_syn(
        &self,
        session: u32,
        reason: RejectReason,
        src: SocketAddr,
        scratch: &mut [u8; MAX_CONTROL_BYTES],
    ) {
        self.c.syn_rejected.inc();
        let nack = ControlMessage::SynNack { session, reason };
        send_reply(self.socket, &nack, src, scratch);
    }
}

#[allow(clippy::too_many_arguments)]
fn serve_loop(
    sockets: &[Socket],
    cfg: &ServerConfig,
    metrics: &Registry,
    clock: &Clock,
    t0: Duration,
    stop: &AtomicBool,
    wakers: &[PollWaker],
    steer_fallback: bool,
) -> ServerReport {
    // One drain thread per socket, each owning the shard of its index.
    let nthreads = sockets.len();
    let shared = Shared {
        cfg,
        metrics,
        sockets,
        socket: &sockets[0],
        clock,
        t0,
        shards: (0..nthreads).map(|_| Mutex::new(HashMap::new())).collect(),
        sweep_dirty: AtomicBool::new(false),
        active: AtomicUsize::new(0),
        outcomes: Mutex::new(Vec::new()),
        mem_used: AtomicUsize::new(0),
        mem_peak: AtomicUsize::new(0),
        tombstones: Mutex::new(Tombstones::default()),
        done: AtomicBool::new(false),
        stop,
        wakers,
        c: ServeCounters::new(metrics, nthreads),
    };
    if steer_fallback {
        shared.c.steer_fallback.inc();
    }
    if nthreads > 1 {
        shared.c.reuseport_sockets.add(nthreads as u64);
    }

    // One poller per thread over that thread's own socket, so a
    // datagram wakes exactly its owner. If the epoll backend cannot
    // come up, fall back to the timeout loop — readiness is an
    // optimization, the socket read timeout keeps the loop correct
    // without it.
    let pollers: Vec<Poller> = sockets
        .iter()
        .zip(wakers)
        .map(|(s, w)| Poller::new(s, w).unwrap_or_else(|_| Poller::timeout()))
        .collect();

    std::thread::scope(|s| {
        let mut workers = Vec::with_capacity(nthreads.saturating_sub(1));
        for (t, poller) in pollers.iter().enumerate().skip(1) {
            let shared = &shared;
            // Workers are clock-enlisted like the serve thread itself:
            // a virtual net must not advance time past a worker that
            // the OS has not scheduled yet.
            let enlistment = clock.enlist();
            workers.push(s.spawn(move || {
                shared.clock.adopt(enlistment);
                drain_loop(shared, poller, t, false);
            }));
        }
        // The main thread drains too, and owns the idle watchdog.
        drain_loop(&shared, &pollers[0], 0, true);
        // Workers notice `done`/`stop` within one poll interval (the
        // flag transitions also kick every waker). Join them with this
        // thread's clock token released: a worker still parked in a
        // *virtual* poll timeout needs virtual time to advance before
        // it can observe the flag, and a busy joiner would freeze it.
        clock.unenrolled(|| {
            for w in workers {
                let _ = w.join();
            }
        });
    });

    let Shared {
        shards,
        outcomes,
        mem_peak,
        c,
        ..
    } = shared;
    let rejected = c.rejected.get();
    let mut outcomes = outcomes.into_inner().expect("outcomes lock");
    // Anything still open when the loop ends is finalized as stopped,
    // in id order for determinism.
    let mut open: Vec<(u32, SessionState)> = shards
        .into_iter()
        .flat_map(|m| m.into_inner().expect("shard lock"))
        .collect();
    open.sort_by_key(|&(id, _)| id);
    for (id, state) in open {
        outcomes.push(state.into_outcome(id, SessionEnd::Stopped, rejected, &c.qdelay));
    }

    ServerReport {
        sessions: outcomes,
        rejected,
        syns_rejected: c.syn_rejected.get(),
        budget_rejects: c.budget_rejected.get(),
        sessions_evicted: c.evicted.get(),
        chunk_nacks: c.chunk_nacks.get(),
        mem_peak_bytes: mem_peak.into_inner(),
        gro_segments_split: c.gro_split.get(),
        cmsg_decode_errors: c.cmsg_errors.get(),
        rx_timestamp_kernel: c.ts_kernel.get(),
        rx_timestamp_user_fallback: c.ts_user.get(),
        reuseport_sockets: c.reuseport_sockets.get(),
        steer_fallbacks: c.steer_fallback.get(),
        rx_packets_per_thread: c.rx_thread.iter().map(|t| t.get()).collect(),
    }
}

/// One drain thread: park on readiness (epoll where available), batched
/// receive (one syscall per batch where the platform allows), one
/// timestamp per batch, probe fast path into its own registry shard,
/// control messages on the slow path. All reply encoding goes through a
/// reused stack buffer — the steady-state probe path allocates nothing
/// per datagram.
fn drain_loop(shared: &Shared<'_>, poller: &Poller, me: usize, run_watchdog: bool) {
    let mut ring = RecvBatch::new(DEFAULT_RECV_BATCH, &shared.cfg.provider);
    let mut scratch = [0u8; MAX_CONTROL_BYTES];
    let mut next_sweep: Option<Duration> = None;
    let mut next_estimate: Option<Duration> = None;
    let socket = &shared.sockets[me];
    let waker = &shared.wakers[me];
    let rx_here = &shared.c.rx_thread[me];
    while !shared.stop.load(Ordering::Relaxed) && !shared.done.load(Ordering::Relaxed) {
        if run_watchdog {
            maybe_sweep(shared, &mut next_sweep);
            maybe_estimate(shared, &mut next_estimate);
        }
        // Under epoll, park until a datagram arrives, the waker fires
        // (stop, or a watchdog re-arm on thread 0), or the next watchdog
        // / estimate-snapshot deadline — idle sessions cost zero
        // wakeups. The timeout backend reports ready immediately
        // and lets the socket's own read timeout pace the loop (the
        // pre-epoll shape).
        if poller.is_epoll() {
            let now = shared.clock.now();
            let horizon = now + EPOLL_MAX_PARK;
            let mut due = horizon;
            if run_watchdog {
                if let Some(d) = next_sweep {
                    due = due.min(d);
                }
                if let Some(d) = next_estimate {
                    due = due.min(d);
                }
            }
            match poller.wait(due.saturating_sub(now), waker) {
                Wait::Ready => {}
                Wait::TimedOut | Wait::Woken => continue,
            }
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
                // Hard socket error: bring the whole server down (open
                // sessions become `Stopped` outcomes), as the
                // single-loop implementation did.
                shared.done.store(true, Ordering::Relaxed);
                shared.wake_all();
                break;
            }
        };
        // One receive timestamp per batch: every datagram a single
        // recvmmsg return delivered shares it, unless the backend
        // stamped the datagram itself (the fault net stamps every
        // delivery exactly, which is what makes same-seed runs
        // byte-identical). The fallback path's batches are single
        // datagrams, so it degenerates to the old per-datagram stamping.
        let batch_abs = shared.clock.now();
        let accepted = process_batch(shared, &ring, n, batch_abs, &mut scratch);
        if accepted > 0 {
            rx_here.add(accepted);
        }
    }
    // The ring's own totals land once, at exit.
    let c = &shared.c;
    c.recv_syscalls.add(ring.syscalls());
    c.recv_datagrams.add(ring.datagrams());
    c.gro_split.add(ring.gro_segments_split());
    c.cmsg_errors.add(ring.cmsg_decode_errors());
}

/// The deadline-scheduled watchdog. Reaps sessions idle past the
/// configured timeout without stopping the loop, re-settles
/// per-session memory accounting (ingest growth since the last sweep),
/// and — under [`PressurePolicy::EvictIdle`] — evicts until back under
/// the global budget.
///
/// `next_sweep` is the absolute clock time before which nothing can
/// possibly expire: the minimum session deadline at the last sweep. At
/// fleet scale this is the difference between one registry walk per
/// deadline and one per 25 ms poll tick; it is also exactly how long
/// the epoll loop may park.
fn maybe_sweep(shared: &Shared<'_>, next_sweep: &mut Option<Duration>) {
    let now = shared.clock.now();
    // A session opened, finalized, or closed since the deadline was
    // armed: the earliest-deadline estimate it encodes is stale (the
    // old scheduler slept out its full fallback here, which is exactly
    // the drain-latency outlier the fleet bench caught). Re-arm from
    // scratch instead of sleeping on it.
    if shared.sweep_dirty.swap(false, Ordering::Relaxed) {
        *next_sweep = None;
    }
    if let Some(due) = *next_sweep {
        if now < due {
            return;
        }
    }
    let timeout = shared.cfg.idle_timeout;
    let mut earliest: Option<Duration> = None;
    for shard in &shared.shards {
        let mut sessions = shard.lock().expect("shard lock");
        if let Some(timeout) = timeout {
            let expired: Vec<u32> = sessions
                .iter()
                .filter(|(_, s)| now.saturating_sub(s.last_activity) >= timeout)
                .map(|(&id, _)| id)
                .collect();
            for id in expired {
                let state = sessions.remove(&id).expect("expired session present");
                shared.end_session(id, state, SessionEnd::IdleTimeout);
                shared.c.idle_reaped.inc();
            }
        }
        for state in sessions.values_mut() {
            shared.settle_mem(state);
            if let Some(timeout) = timeout {
                let deadline = state.last_activity + timeout;
                earliest = Some(earliest.map_or(deadline, |e| e.min(deadline)));
            }
        }
    }
    // Probe ingest can grow sessions past the global budget between
    // sweeps (admission only gates SYNs); under the eviction policy,
    // shed the longest-idle sessions until back under.
    if let (Some(global), PressurePolicy::EvictIdle) =
        (shared.cfg.global_budget_bytes, shared.cfg.on_pressure)
    {
        while shared.mem_used.load(Ordering::Relaxed) > global {
            if !shared.evict_oldest_idle() {
                break;
            }
        }
    }
    let fallback = now + timeout.unwrap_or(SWEEP_FALLBACK);
    *next_sweep = Some(earliest.unwrap_or(fallback).max(now + MIN_SWEEP_GAP));
}

/// Deadline-scheduled fleet-estimate snapshot (watchdog thread only):
/// merge every live session's online counters and publish the derived
/// §5 estimates as `fleet_*` gauges in the metrics registry. Derived
/// estimates that do not exist yet (`None`) leave their gauge at its
/// last value rather than publishing a NaN.
fn maybe_estimate(shared: &Shared<'_>, next: &mut Option<Duration>) {
    let Some(interval) = shared.cfg.estimate_interval else {
        return;
    };
    let metrics = shared.metrics;
    let now = shared.clock.now();
    if let Some(due) = *next {
        if now < due {
            return;
        }
    }
    *next = Some(now + interval.max(MIN_SWEEP_GAP));
    let (sessions_merged, est, sketch) = shared.fleet_estimate();
    metrics
        .gauge("fleet_sessions")
        .set(f64::from(sessions_merged));
    metrics
        .gauge("fleet_outcomes_malformed")
        .set(est.outcomes_malformed as f64);
    let derived = [
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
    for (name, value) in derived {
        if let Some(v) = value {
            metrics.gauge(name).set(v);
        }
    }
    metrics.counter("estimate_snapshots").inc();
}

enum Ingest {
    Accepted,
    Duplicate,
    Rejected,
    /// Dropped because storing it would push the session past its
    /// memory budget (counted as rejected, plus its own counter).
    OverBudget,
}

/// Returns the number of probes accepted (the per-thread RX tally).
fn process_batch(
    shared: &Shared<'_>,
    ring: &RecvBatch,
    n: usize,
    batch_abs: Duration,
    scratch: &mut [u8; MAX_CONTROL_BYTES],
) -> u64 {
    // Hot counters accumulate across the batch and land as one atomic
    // add each, instead of one per datagram.
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut duplicates = 0u64;
    let mut truncated = 0u64;
    let mut over_budget = 0u64;
    let mut ts_kernel = 0u64;
    let mut ts_user = 0u64;
    for i in 0..n {
        // A clipped datagram's payload is incomplete: decoding it would
        // either fail noisily or, worse, parse a valid-looking prefix
        // into garbage accounting. Drop it and make the drop countable.
        if ring.is_truncated(i) {
            truncated += 1;
            continue;
        }
        let (abs, source) = ring.stamp(i, batch_abs);
        match source {
            TimestampSource::Kernel => ts_kernel += 1,
            TimestampSource::User => ts_user += 1,
        }
        let rel = abs.saturating_sub(shared.t0);
        let (data, src) = ring.datagram(i);
        if let Ok(h) = ProbeHeader::decode(data) {
            match ingest_probe(shared, &h, rel, abs, source) {
                Ingest::Accepted => accepted += 1,
                Ingest::Duplicate => duplicates += 1,
                Ingest::Rejected => rejected += 1,
                Ingest::OverBudget => {
                    rejected += 1;
                    over_budget += 1;
                }
            }
        } else if let Ok(msg) = ControlMessage::decode(data) {
            handle_control(shared, msg, src, abs, scratch);
        } else {
            rejected += 1;
        }
    }
    let c = &shared.c;
    for (counter, n) in [
        (&c.packets, accepted),
        (&c.dup, duplicates),
        (&c.truncated, truncated),
        (&c.over_budget, over_budget),
        (&c.ts_kernel, ts_kernel),
        (&c.ts_user, ts_user),
        (&c.rejected, rejected),
    ] {
        if n > 0 {
            counter.add(n);
        }
    }
    accepted
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

/// Encode a reply into the reused scratch buffer and send it (replies
/// are best-effort, like every control datagram).
fn send_reply(
    socket: &Socket,
    msg: &ControlMessage,
    src: SocketAddr,
    scratch: &mut [u8; MAX_CONTROL_BYTES],
) {
    let n = msg.encode_into(scratch);
    let _ = socket.send_to(&scratch[..n], src);
}

/// The control slow path.
fn handle_control(
    shared: &Shared<'_>,
    msg: ControlMessage,
    src: SocketAddr,
    abs: Duration,
    scratch: &mut [u8; MAX_CONTROL_BYTES],
) {
    let cfg = shared.cfg;
    shared.c.ctrl.inc();
    let id = msg.session();
    match msg {
        ControlMessage::Syn { session, params } => {
            // A SYN for an open session (a retransmit, or a SYN racing
            // the sender's own) refreshes its idle deadline and is
            // re-acked under its own shard lock, without touching
            // admission. It never rewrites the session: the opening
            // SYN's params sized it and seeded its online estimate.
            {
                let mut sessions = shared.shard_for(session).lock().expect("shard lock");
                if let Some(state) = sessions.get_mut(&session) {
                    state.last_activity = abs;
                    drop(sessions);
                    send_reply(
                        shared.socket,
                        &ControlMessage::SynAck { session },
                        src,
                        scratch,
                    );
                    return;
                }
            }
            // New session: admission below the registry cap, then below
            // the global memory budget — both checked with NO shard
            // lock held, so the eviction path can walk the shards
            // without nesting locks. The budget charge uses the SYN's
            // budget-capped projected reservation, so a fleet of
            // hostile SYNs cannot over-commit memory that is only
            // allocated a moment later.
            let projected = SessionState::projected_bytes(&params, cfg.session_budget_bytes);
            if !shared.try_admit() {
                shared.refuse_syn(session, RejectReason::Capacity, src, scratch);
                return;
            }
            if !shared.try_charge(projected) {
                shared.active.fetch_sub(1, Ordering::Relaxed);
                shared.c.budget_rejected.inc();
                shared.refuse_syn(session, RejectReason::Budget, src, scratch);
                return;
            }
            // Concurrent SYNs for the same id lock the same shard, so
            // the entry-API race handling below settles them.
            let mut sessions = shared.shard_for(session).lock().expect("shard lock");
            match sessions.entry(session) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    // Lost a race with this same session's SYN on
                    // another drain thread: hand back the slot and the
                    // charge, then refresh like a retransmit.
                    shared.active.fetch_sub(1, Ordering::Relaxed);
                    shared.mem_used.fetch_sub(projected, Ordering::Relaxed);
                    e.get_mut().last_activity = abs;
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    shared.c.opened.inc();
                    // The SYN announces the run size: the session is
                    // pre-sized from it, so the hot path never
                    // reallocates mid-run.
                    let state = e.insert(SessionState::new(params, cfg.session_budget_bytes, abs));
                    // The admission charge holds `projected`; settle to
                    // the actual capacity-based figure.
                    state.accounted_bytes = projected;
                    shared.settle_mem(state);
                }
            }
            drop(sessions);
            shared.mark_sweep_dirty();
            shared.untombstone(session);
            send_reply(
                shared.socket,
                &ControlMessage::SynAck { session },
                src,
                scratch,
            );
        }
        ControlMessage::Heartbeat { session, seq } => {
            // A heartbeat for an unknown session is a stale retransmit
            // from a reaped session: ignoring it (no ack) lets the
            // sender's own watchdog conclude death.
            let mut sessions = shared.shard_for(session).lock().expect("shard lock");
            let Some(state) = sessions.get_mut(&session) else {
                drop(sessions);
                shared.reply_if_evicted(session, src, scratch);
                shared.c.stale.inc();
                return;
            };
            state.last_activity = abs;
            send_reply(
                shared.socket,
                &ControlMessage::HeartbeatAck { session, seq },
                src,
                scratch,
            );
        }
        ControlMessage::Fin { session, .. } => {
            let mut sessions = shared.shard_for(session).lock().expect("shard lock");
            let Some(state) = sessions.get_mut(&session) else {
                drop(sessions);
                shared.reply_if_evicted(session, src, scratch);
                shared.c.stale.inc();
                return;
            };
            state.last_activity = abs;
            // Finalize once; FIN retransmits re-serve the same
            // snapshot so retrieval is idempotent.
            let finalized = state.finalize(shared.c.rejected.get(), &shared.c.qdelay);
            let ack = ControlMessage::FinAck {
                session,
                total_chunks: finalized.total_chunks(),
                summary: finalized.summary,
            };
            // Finalization just materialized the record snapshot:
            // settle it against the global tally.
            shared.settle_mem(state);
            // The snapshot freeze re-arms the sweep scheduler.
            drop(sessions);
            shared.mark_sweep_dirty();
            send_reply(shared.socket, &ack, src, scratch);
        }
        ControlMessage::ReportRequest { chunk, .. } => {
            let mut sessions = shared.shard_for(id).lock().expect("shard lock");
            let Some(state) = sessions.get_mut(&id) else {
                drop(sessions);
                shared.reply_if_evicted(id, src, scratch);
                shared.c.stale.inc();
                return;
            };
            state.last_activity = abs;
            // Every request from a live session gets a deterministic
            // reply. In-range chunks are served straight from the
            // snapshot's record slice ([`chunk_window`]): no clone,
            // byte-identical on every re-request. Out-of-range chunks
            // (sender bug, corrupted index) get an *empty* chunk
            // echoing the true `total_chunks`; requests before any FIN
            // get one with `total_chunks: 0`. Silence in either case
            // would leave the sender burning its full retry/backoff
            // schedule per chunk before concluding anything.
            let (total, window) = match &state.finalized {
                Some(f) if chunk < f.total_chunks() => {
                    (f.total_chunks(), chunk_window(&f.records, chunk))
                }
                Some(f) => {
                    shared.c.chunk_nacks.inc();
                    (f.total_chunks(), &[][..])
                }
                None => {
                    shared.c.chunk_nacks.inc();
                    (0, &[][..])
                }
            };
            let n = encode_report_chunk_into(id, chunk, total, window, scratch);
            let _ = shared.socket.send_to(&scratch[..n], src);
        }
        ControlMessage::ReportAck { chunk, .. } => {
            let mut sessions = shared.shard_for(id).lock().expect("shard lock");
            let mut stale = false;
            let complete = match sessions.get_mut(&id) {
                Some(state) => {
                    state.last_activity = abs;
                    state
                        .finalized
                        .as_ref()
                        .is_some_and(|f| chunk >= f.total_chunks())
                }
                None => {
                    // Duplicate closing ack to an already-reaped
                    // session.
                    stale = true;
                    false
                }
            };
            if complete {
                // The sender holds the full report: reap the
                // session. Other sessions keep flowing.
                let state = sessions.remove(&id).expect("completed session present");
                drop(sessions);
                shared.end_session(id, state, SessionEnd::Completed);
                shared.c.completed.inc();
            } else if stale {
                drop(sessions);
                shared.reply_if_evicted(id, src, scratch);
                shared.c.stale.inc();
            }
        }
        ControlMessage::EstimateRequest { session, scope } => match scope {
            EstimateScope::Session => {
                let mut sessions = shared.shard_for(id).lock().expect("shard lock");
                let Some(state) = sessions.get_mut(&id) else {
                    drop(sessions);
                    shared.reply_if_evicted(id, src, scratch);
                    shared.c.stale.inc();
                    return;
                };
                state.last_activity = abs;
                let reply = estimate_reply(session, scope, 1, &state.online, &state.delay_sketch);
                drop(sessions);
                send_reply(shared.socket, &reply, src, scratch);
            }
            EstimateScope::Fleet => {
                let (sessions_merged, est, sketch) = shared.fleet_estimate();
                let reply = estimate_reply(session, scope, sessions_merged, &est, &sketch);
                send_reply(shared.socket, &reply, src, scratch);
            }
            // A scope from a newer peer: stay silent rather than answer
            // with the wrong population and let it mis-merge.
            EstimateScope::Other(_) => {}
        },
        // Receiver-emitted messages arriving here are stray
        // reflections; ignore them.
        ControlMessage::SynAck { .. }
        | ControlMessage::SynNack { .. }
        | ControlMessage::HeartbeatAck { .. }
        | ControlMessage::FinAck { .. }
        | ControlMessage::ReportChunk { .. }
        | ControlMessage::EstimateReply { .. } => {}
    }
}

/// Build an [`ControlMessage::EstimateReply`] from online state: raw
/// mergeable counters plus the sketch's deterministic bucket-edge
/// quantiles (`0.0` when empty — see [`DelaySummary`]).
fn estimate_reply(
    session: u32,
    scope: EstimateScope,
    sessions: u32,
    est: &Estimates,
    sketch: &DelaySketch,
) -> ControlMessage {
    ControlMessage::EstimateReply {
        session,
        scope,
        sessions,
        counters: estimate_counters(est),
        delay: DelaySummary {
            samples: sketch.count(),
            p50_secs: sketch.quantile(0.5).unwrap_or(0.0),
            p99_secs: sketch.quantile(0.99).unwrap_or(0.0),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use badabing_core::outcome::Outcome;
    use std::collections::{BTreeMap, BTreeSet};
    use std::net::UdpSocket;

    fn local0() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    fn send_header(sock: &UdpSocket, target: SocketAddr, h: &ProbeHeader, bytes: usize) {
        sock.send_to(&h.encode(bytes), target).unwrap();
    }

    /// Fixed virtual addresses on the seeded fault net.
    const RECV: &str = "10.0.0.1:9000";
    const PROBE_SRC: &str = "10.0.0.2:7000";
    const CTL_SRC: &str = "10.0.0.2:7001";

    /// The run a test session's SYN announces.
    fn params() -> SessionParams {
        SessionParams {
            n_slots: 100,
            slot_ns: 5_000_000,
            probe_packets: 3,
            packet_bytes: 64,
            p: 0.3,
            improved: true,
        }
    }

    fn probe(session: u32, experiment: u64, slot: u64, seq: u64) -> ProbeHeader {
        ProbeHeader {
            session,
            experiment,
            slot,
            seq,
            send_ns: 0,
            idx: 0,
            probe_len: 1,
        }
    }

    /// A server on a fresh seeded FaultNet, with a probe socket and a
    /// control client on the same net: stamps and spacing come from
    /// the net's virtual clock, not from a loaded host's scheduler.
    struct Rig {
        server: ServerHandle,
        target: SocketAddr,
        probes: Socket,
        client: crate::control::ControlClient,
        clock: Clock,
    }

    fn rig(seed: u64, configure: impl FnOnce(ServerConfig) -> ServerConfig) -> Rig {
        let provider = Provider::Fault(crate::faultnet::FaultNet::new(seed));
        let target: SocketAddr = RECV.parse().unwrap();
        let server = start_server(configure(ServerConfig {
            provider: provider.clone(),
            ..ServerConfig::any(target, 4)
        }))
        .unwrap();
        let mut control = crate::control::ControlConfig::new(target);
        control.provider = provider.clone();
        control.bind = Some(CTL_SRC.parse().unwrap());
        Rig {
            server,
            target,
            probes: provider.bind(PROBE_SRC.parse().unwrap()).unwrap(),
            client: crate::control::ControlClient::connect(control, None).unwrap(),
            clock: provider.clock(),
        }
    }

    impl Rig {
        /// Open `session` with a SYN announcing [`params`].
        fn open(&self, session: u32) {
            self.client.handshake(session, params()).unwrap();
        }

        fn send(&self, h: &ProbeHeader, bytes: usize) {
            self.probes.send_to(&h.encode(bytes), self.target).unwrap();
        }

        /// Let in-flight datagrams land, then stop the server.
        fn finish(self) -> ServerReport {
            self.clock.sleep(Duration::from_millis(50));
            self.server.stop()
        }
    }

    #[test]
    fn accepts_session_packets_and_rejects_others() {
        let rig = rig(1, |c| c);
        rig.open(42);
        let good = ProbeHeader {
            probe_len: 2,
            ..probe(42, 1, 10, 0)
        };
        let bad_session = ProbeHeader { session: 9, ..good };
        rig.send(&good, 100);
        rig.send(&bad_session, 100);
        rig.probes.send_to(b"garbage", rig.target).unwrap();
        let report = rig.finish();
        // The probe for a session no SYN opened and the garbage.
        assert_eq!(report.rejected, 2);
        let log = report.log_for(42).unwrap();
        assert_eq!(log.packets, 1);
        assert_eq!(log.rejected, 2);
        assert_eq!(log.duplicates, 0);
        assert_eq!(log.arrivals.len(), 1);
        assert_eq!(log.arrivals[&(1, 10)].received, 1);
        assert_eq!(report.log_for(9).map(|l| l.packets), None);
    }

    #[test]
    fn offset_removal_yields_relative_queueing_delay() {
        let rig = rig(2, |c| c);
        rig.open(1);
        // Two packets with send timestamps from an unrelated clock: the
        // second "left" 50 ms earlier than its arrival spacing implies,
        // i.e. it queued ~50 ms longer.
        let base = 1_000_000_000_000u64; // arbitrary foreign clock
        let h1 = ProbeHeader {
            send_ns: base,
            ..probe(1, 0, 0, 0)
        };
        let h2 = ProbeHeader {
            experiment: 1,
            slot: 5,
            seq: 1,
            ..h1
        };
        rig.send(&h1, 100);
        rig.clock.sleep(Duration::from_millis(50));
        rig.send(&h2, 100);
        let report = rig.finish();
        let log = report.log_for(1).unwrap();
        let q1 = log.arrivals[&(0, 0)].qdelay_max_secs;
        let q2 = log.arrivals[&(1, 5)].qdelay_max_secs;
        assert!(q1 < 0.01, "first packet defines the baseline, got {q1}");
        assert!(
            (q2 - 0.05).abs() < 0.03,
            "second packet ~50 ms of queueing, got {q2}"
        );
    }

    #[test]
    fn skewed_sender_clock_is_corrected() {
        // A sender whose clock runs fast by 1% (exaggerated for a 2 s
        // test; real skews are ppm over hours): send_ns grows 1.01× real
        // time. Without skew removal the early packets would read tens
        // of ms of phantom queueing.
        let rig = rig(5, |c| c);
        rig.open(5);
        let start = rig.clock.now();
        for i in 0..40u64 {
            let real_ns = (rig.clock.now() - start).as_nanos() as u64;
            let skewed_ns = (real_ns as f64 * 1.01) as u64;
            let h = ProbeHeader {
                send_ns: skewed_ns,
                ..probe(5, i, i, i)
            };
            rig.send(&h, 64);
            rig.clock.sleep(Duration::from_millis(50));
        }
        let report = rig.finish();
        let log = report.log_for(5).unwrap();
        assert_eq!(log.packets, 40);
        // Every packet is idle; after baseline removal all queueing
        // delays must be small. (1% over 2 s = 20 ms of drift, so the
        // naive min-subtraction would report up to ~20 ms on one end.)
        let max_q = log
            .arrivals
            .values()
            .map(|r| r.qdelay_max_secs)
            .fold(0.0f64, f64::max);
        assert!(
            max_q < 0.008,
            "residual queueing delay {max_q} after skew removal"
        );
    }

    #[test]
    fn multi_packet_probe_aggregates() {
        let rig = rig(3, |c| c);
        rig.open(3);
        for idx in 0..3u8 {
            let h = ProbeHeader {
                idx,
                probe_len: 3,
                ..probe(3, 8, 2, u64::from(idx))
            };
            rig.send(&h, 64);
        }
        let report = rig.finish();
        assert_eq!(report.log_for(3).unwrap().arrivals[&(8, 2)].received, 3);
    }

    /// A 3-packet probe that loses packet idx 2 but has idx 0
    /// duplicated three times, on a fresh seed-6 rig counting into
    /// `metrics`.
    fn duplicate_run(metrics: Option<Arc<Registry>>) -> ServerReport {
        let rig = rig(6, |c| ServerConfig { metrics, ..c });
        rig.open(6);
        // Without dedup the count would read 4 (debug-overflow
        // territory on a u8 under longer floods) and the lost packet
        // would be masked.
        for (seq, idx) in [(0u64, 0u8), (0, 0), (0, 0), (0, 0), (1, 1)] {
            let h = ProbeHeader {
                idx,
                probe_len: 3,
                ..probe(6, 4, 9, seq)
            };
            rig.send(&h, 64);
        }
        rig.finish()
    }

    /// Every [`ServerReport`] tally, by the registry counter it is read
    /// from.
    fn tallies(r: &ServerReport) -> Vec<(String, u64)> {
        let named = [
            ("datagrams_rejected", r.rejected),
            ("syns_rejected", r.syns_rejected),
            ("syns_budget_rejected", r.budget_rejects),
            ("sessions_evicted", r.sessions_evicted),
            ("report_chunk_nacks", r.chunk_nacks),
            ("gro_segments_split", r.gro_segments_split),
            ("cmsg_decode_errors", r.cmsg_decode_errors),
            ("rx_timestamp_kernel", r.rx_timestamp_kernel),
            ("rx_timestamp_user_fallback", r.rx_timestamp_user_fallback),
            ("reuseport_sockets", r.reuseport_sockets),
            ("steer_fallback", r.steer_fallbacks),
        ];
        let threads = r.rx_packets_per_thread.iter().enumerate();
        named
            .into_iter()
            .map(|(name, v)| (name.to_string(), v))
            .chain(threads.map(|(t, &v)| (format!("rx_packets_thread_{t}"), v)))
            .collect()
    }

    #[test]
    fn duplicates_are_counted_but_never_inflate_arrivals() {
        let metrics = Arc::new(Registry::new("recv-dup-test"));
        let report = duplicate_run(Some(metrics.clone()));
        let log = report.log_for(6).unwrap();
        let rec = log.arrivals[&(4, 9)];
        assert_eq!(rec.received, 2, "one packet genuinely lost");
        assert_eq!(rec.duplicates, 3);
        assert_eq!(log.packets, 2);
        assert_eq!(log.duplicates, 3);
        assert_eq!(metrics.counter("duplicates").get(), 3);
        // One store: a private registry yields the same tallies, and
        // each tally is its named counter.
        let private = duplicate_run(None);
        assert_eq!(tallies(&private), tallies(&report));
        assert_eq!(report.rx_packets_per_thread, [2]);
        for (name, value) in tallies(&report) {
            assert_eq!(metrics.counter(&name).get(), value, "{name}");
        }
    }

    /// Finished sessions leave nothing behind in the registry: its
    /// names after one completed session are its names after 21.
    #[test]
    fn completed_sessions_add_no_registry_entries() {
        let metrics = Arc::new(Registry::new("recv-leak-test"));
        let rig = rig(9, |c| ServerConfig {
            metrics: Some(metrics.clone()),
            ..c
        });
        let names = || -> BTreeSet<String> {
            let snapshot = metrics.snapshot();
            ["counters", "gauges", "histograms"]
                .into_iter()
                .filter_map(|kind| match snapshot.get(kind) {
                    Some(badabing_metrics::json::Value::Obj(fields)) => Some(fields.clone()),
                    _ => None,
                })
                .flatten()
                .map(|(name, _)| name)
                .collect()
        };
        let complete = |session: u32| {
            rig.open(session);
            rig.send(&probe(session, 0, 0, 0), 64);
            rig.client.fetch_report(session, 1, 1).unwrap();
        };
        complete(1);
        let after_one = names();
        for session in 2..=21 {
            complete(session);
        }
        assert_eq!(names(), after_one);
        let report = rig.finish();
        assert_eq!(report.sessions.len(), 21);
    }

    #[test]
    fn idle_session_is_reaped_and_the_server_keeps_serving() {
        let metrics = Arc::new(Registry::new("recv-idle-test"));
        let idle = Duration::from_millis(150);
        let rig = rig(7, |c| ServerConfig {
            idle_timeout: Some(idle),
            metrics: Some(metrics.clone()),
            ..c
        });
        let reaped = || metrics.counter("sessions_idle_reaped").get();
        rig.open(2);
        rig.send(&probe(2, 0, 0, 0), 64);
        // Virtual time: the session is idle from the probe's arrival.
        rig.clock.sleep(idle - Duration::from_millis(20));
        assert_eq!(reaped(), 0, "reaped before its idle timeout");
        rig.clock.sleep(idle);
        assert_eq!(reaped(), 1, "idle session outlived its timeout");
        // The server keeps serving: a new SYN opens a new session.
        rig.open(3);
        let report = rig.finish();
        let ends: Vec<(u32, SessionEnd, u64)> = report
            .sessions
            .iter()
            .map(|o| (o.session, o.end, o.log.packets))
            .collect();
        assert_eq!(
            ends,
            [(2, SessionEnd::IdleTimeout, 1), (3, SessionEnd::Stopped, 0)]
        );
    }

    /// A SYN for an open session is acked and refreshes it, but never
    /// rewrites it: the opening SYN's params stay in the online
    /// estimate's slot width and in the final log.
    #[test]
    fn a_syn_for_an_open_session_cannot_rewrite_it() {
        let rig = rig(8, |c| c);
        let first = params();
        rig.client.handshake(7, first).unwrap();
        // One complete two-slot experiment, so the estimate counts it.
        for slot in 0..2 {
            rig.send(&probe(7, 0, slot, slot), 64);
        }
        rig.clock.sleep(Duration::from_millis(20));
        let before = rig
            .client
            .fetch_estimate(7, EstimateScope::Session)
            .unwrap();
        assert_eq!(before.estimates.experiments, 1);
        assert_eq!(before.estimates.slot_secs, first.slot_ns as f64 / 1e9);

        rig.client
            .handshake(7, first)
            .expect("a same-params re-SYN is acked");
        let other = SessionParams {
            n_slots: 9_999,
            slot_ns: 1_000_000,
            ..first
        };
        rig.client
            .handshake(7, other)
            .expect("a SYN for an open session is acked");
        let after = rig
            .client
            .fetch_estimate(7, EstimateScope::Session)
            .unwrap();
        assert_eq!(after.estimates, before.estimates);

        let report = rig.finish();
        assert_eq!(report.log_for(7).unwrap().handshake, Some(first));
    }

    #[test]
    fn report_roundtrips_through_records() {
        let mut log = ReceiverLog {
            packets: 5,
            duplicates: 1,
            ..Default::default()
        };
        log.arrivals.insert(
            (3, 7),
            ArrivalRecord {
                received: 2,
                duplicates: 1,
                qdelay_last_secs: 0.01,
                qdelay_max_secs: 0.02,
                kernel_stamped: true,
            },
        );
        log.arrivals.insert(
            (4, 1),
            ArrivalRecord {
                received: 3,
                duplicates: 0,
                qdelay_last_secs: 0.0,
                qdelay_max_secs: 0.0,
                kernel_stamped: false,
            },
        );
        let records = log.to_records();
        assert_eq!(records.len(), 2);
        assert!(records[0].experiment < records[1].experiment);
        let back = ReceiverLog::from_report(log.summary(), &records);
        assert_eq!(back.packets, 5);
        assert_eq!(back.duplicates, 1);
        assert_eq!(back.arrivals[&(3, 7)].received, 2);
        assert_eq!(back.arrivals[&(3, 7)].duplicates, 1);
        assert!(
            back.arrivals[&(3, 7)].kernel_stamped,
            "kernel-stamped flag survives the wire roundtrip"
        );
        assert!(!back.arrivals[&(4, 1)].kernel_stamped);
    }

    /// A synthetic arrival stream: multi-packet probes, one duplicated
    /// datagram, one lost packet, non-monotone send timestamps, and a
    /// deterministic mix of kernel- and userspace-stamped arrivals —
    /// enough structure to shake out any path-dependent accounting.
    fn synthetic_arrivals() -> Vec<(ProbeHeader, Duration, TimestampSource)> {
        let mut out = Vec::new();
        let mut seq = 0u64;
        for exp in 0..40u64 {
            for idx in 0..3u8 {
                if exp % 7 == 3 && idx == 2 {
                    // Lost packet: never arrives.
                    seq += 1;
                    continue;
                }
                let h = ProbeHeader {
                    session: 11,
                    experiment: exp,
                    slot: exp * 5 + u64::from(idx),
                    seq,
                    send_ns: 1_000_000 * exp + 10_000 * u64::from(idx),
                    idx,
                    probe_len: 3,
                };
                let now = Duration::from_nanos(1_000_000 * exp + 40_000 * u64::from(idx) + 7_000);
                // Some arrivals fall back to userspace stamps (queued
                // before SO_TIMESTAMPING engaged, or stamping off).
                let source = if exp % 5 == 0 && idx == 1 {
                    TimestampSource::User
                } else {
                    TimestampSource::Kernel
                };
                out.push((h, now, source));
                if exp % 11 == 5 && idx == 0 {
                    // Duplicated datagram.
                    out.push((h, now + Duration::from_nanos(500), source));
                }
                seq += 1;
            }
        }
        out
    }

    /// The differential contract: the same (header, timestamp, source)
    /// sequence must yield **byte-identical** report chunks however the
    /// syscall layer grouped it — one datagram at a time (fallback),
    /// recv-batch chunks (recvmmsg), or super-datagram-sized chunks
    /// (GRO splits). The I/O tiers differ only in grouping, never in
    /// accounting.
    #[test]
    fn batched_and_single_ingest_reports_are_byte_identical() {
        let arrivals = synthetic_arrivals();

        let params = SessionParams {
            n_slots: 200,
            p: 0.2,
            ..params()
        };
        let ingest_in_chunks = |chunk: usize| -> SessionState {
            let mut state = SessionState::new(params, DEFAULT_SESSION_BUDGET_BYTES, Duration::ZERO);
            for batch in arrivals.chunks(chunk) {
                for (h, now, source) in batch {
                    state.ingest(h, *now, *source);
                }
            }
            state
        };

        // "Fallback": one datagram per ingest call.
        let mut single = ingest_in_chunks(1);
        // "Batched": the same stream in chunks of a recv batch.
        let mut batched = ingest_in_chunks(DEFAULT_RECV_BATCH);
        // "GRO": the same stream grouped like split super-datagrams (up
        // to 64 segments surface from one slot, plus the short tail).
        let mut gro = ingest_in_chunks(65);

        let fs = single.finalize(3, &Histogram::latency());
        let single_records = fs.records.clone();
        let single_total = fs.total_chunks();
        let single_summary = fs.summary;
        assert!(
            single_records.iter().any(|r| r.flags == 0)
                && single_records
                    .iter()
                    .any(|r| r.flags & RECORD_FLAG_KERNEL_STAMPED != 0),
            "stream must exercise both timestamp sources"
        );
        assert!(single_total > 1, "test must span multiple chunks");

        let mut buf_a = [0u8; MAX_CONTROL_BYTES];
        let mut buf_b = [0u8; MAX_CONTROL_BYTES];
        for (label, other) in [("batched", &mut batched), ("gro", &mut gro)] {
            let fb = other.finalize(3, &Histogram::latency());
            assert_eq!(fb.records, single_records, "{label} records differ");
            assert_eq!(fb.total_chunks(), single_total);
            assert_eq!(fb.summary, single_summary);
            for chunk in 0..single_total {
                let na = encode_report_chunk_into(
                    11,
                    chunk,
                    single_total,
                    chunk_window(&single_records, chunk),
                    &mut buf_a,
                );
                let nb = encode_report_chunk_into(
                    11,
                    chunk,
                    fb.total_chunks(),
                    chunk_window(&fb.records, chunk),
                    &mut buf_b,
                );
                assert_eq!(
                    &buf_a[..na],
                    &buf_b[..nb],
                    "report chunk {chunk} differs between single and {label} groupings"
                );
            }
        }
    }

    /// Satellite regression: the SYN-carried run size must pre-size the
    /// session so the hot path never reallocates mid-run, and the
    /// accounting must charge exactly what admission projected.
    #[test]
    fn syn_params_presize_session_maps() {
        let params = SessionParams {
            n_slots: 10_000,
            slot_ns: 5_000_000,
            probe_packets: 3,
            packet_bytes: 600,
            p: 0.3,
            improved: true,
        };
        let state = SessionState::new(params, DEFAULT_SESSION_BUDGET_BYTES, Duration::ZERO);
        // ceil(10_000 * 0.3) experiments (plus headroom) × 3 slots
        // each × 3 packets = at least 27_000 packet-level entries.
        let fp = state.footprint();
        assert!(fp.cells >= 3_000, "dense table under-sized: {fp:?}");
        assert!(fp.seqs >= 27_000, "dedup range under-sized: {fp:?}");
        assert!(fp.raw >= 27_000, "raw-delay series under-sized: {fp:?}");
        assert_eq!(
            state.mem_bytes(),
            SessionState::projected_bytes(&params, DEFAULT_SESSION_BUDGET_BYTES),
            "accounting and admission must share one byte formula"
        );
        // The cap keeps a hostile SYN from reserving unbounded memory.
        let hostile = SessionParams {
            n_slots: u64::MAX,
            p: 1.0,
            ..params
        };
        let state = SessionState::new(hostile, DEFAULT_SESSION_BUDGET_BYTES, Duration::ZERO);
        assert!(state.footprint().cells < (1 << 21), "reserve cap ignored");
    }

    /// Satellite regression (pre-fix failure): the probe-count cap
    /// alone is not enough — `probe_packets` multiplied the capped
    /// count back out, so a single hostile SYN with `probe_packets:
    /// 255` demanded a ~500M-entry (multi-GB) reservation for the
    /// dedup state and raw-delay series. Both per-packet containers
    /// must honor the hard cap and the per-session byte budget.
    #[test]
    fn hostile_syn_cannot_reserve_unbounded_packet_state() {
        let hostile = SessionParams {
            n_slots: u64::MAX,
            slot_ns: 5_000_000,
            probe_packets: 255,
            packet_bytes: 600,
            p: 1.0,
            improved: true,
        };
        let state = SessionState::new(hostile, DEFAULT_SESSION_BUDGET_BYTES, Duration::ZERO);
        let fp = state.footprint();
        assert!(fp.seqs <= 1 << 22, "dedup reservation unbounded: {fp:?}");
        assert!(fp.raw <= 1 << 22, "raw-delay reservation unbounded: {fp:?}");
        // And the whole reservation respects the per-session budget.
        assert!(
            state.mem_bytes() <= DEFAULT_SESSION_BUDGET_BYTES,
            "reservation ignores the session budget: {} bytes",
            state.mem_bytes()
        );

        // A tight budget scales the reservation down proportionally
        // and composes with admission's projected charge.
        let budget = 1 << 20; // 1 MiB
        let tight = SessionState::new(hostile, budget, Duration::ZERO);
        let projected = SessionState::projected_bytes(&hostile, budget);
        assert!(
            projected <= budget,
            "projected admission charge exceeds the session budget"
        );
        assert!(
            tight.mem_bytes() <= projected,
            "tight budget ignored: {} bytes reserved, {projected} charged",
            tight.mem_bytes()
        );
        assert!(tight.footprint().cells > 0, "scaled, not dropped");
    }

    /// Two drain threads, one sender socket: session-keyed steering
    /// sends session 2 to thread 0 and session 1 to thread 1 although
    /// both share one source 4-tuple, and neither session records
    /// differently for it (end-to-end smoke over loopback).
    #[test]
    fn one_sender_socket_spreads_sessions_by_id() {
        let metrics = Arc::new(Registry::new("recv-threads-test"));
        let handle = start_server(ServerConfig {
            metrics: Some(metrics.clone()),
            recv_threads: 2,
            ..ServerConfig::any(local0(), 8)
        })
        .unwrap();
        let target = handle.local_addr();
        let sock = UdpSocket::bind(local0()).unwrap();
        // Open two sessions via SYN, then interleave probes. Each
        // session's SYN reaches its thread's queue ahead of its probes.
        for session in [1u32, 2] {
            let syn = ControlMessage::Syn {
                session,
                params: SessionParams {
                    probe_packets: 1,
                    ..params()
                },
            };
            sock.send_to(&syn.encode(), target).unwrap();
        }
        for i in 0..20u64 {
            for session in [1u32, 2] {
                send_header(&sock, target, &probe(session, i, i, i), 64);
            }
        }
        let accepted = metrics.counter("packets_accepted");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while accepted.get() < 40 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = handle.stop();
        assert_eq!(accepted.get(), 40);
        assert_eq!(report.sessions.len(), 2);
        for outcome in &report.sessions {
            assert_eq!(
                outcome.log.packets, 20,
                "session {} dropped packets",
                outcome.session
            );
        }
        assert_eq!(metrics.counter("sessions_opened").get(), 2);
        // The drain loops flush their ring stats on exit.
        assert!(metrics.counter("recv_datagrams").get() >= 42);
        assert!(metrics.counter("recv_syscalls").get() >= 1);
        if crate::batch_io::kernel_offload_caps().reuseport_ready() {
            assert_eq!(report.steer_fallbacks, 0);
            assert_eq!(report.rx_packets_per_thread, vec![20, 20]);
        }
    }

    /// Counts every allocation the calling thread makes, so a test can
    /// assert a hot path allocates nothing while other tests run on
    /// their own threads.
    mod alloc_count {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            static ALLOCS: Cell<u64> = const { Cell::new(0) };
        }

        struct Counting;

        fn bump() {
            // `try_with`: the slot is gone while the thread tears down.
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        }

        // SAFETY: defers every operation to `System`; the counter is a
        // const-initialized thread-local that never allocates itself.
        unsafe impl GlobalAlloc for Counting {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                bump();
                System.alloc(layout)
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                System.dealloc(ptr, layout)
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                bump();
                System.realloc(ptr, layout, new_size)
            }

            unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
                bump();
                System.alloc_zeroed(layout)
            }
        }

        #[global_allocator]
        static COUNTING: Counting = Counting;

        /// Allocations made by this thread so far.
        pub fn allocations() -> u64 {
            ALLOCS.with(Cell::get)
        }
    }

    /// The datagrams `run_sender` sends for a seeded run, in send
    /// order: consecutive seqs from 0, `train` packets per probe.
    fn planned_stream(params: &SessionParams, seed: u64) -> Vec<ProbeHeader> {
        let mut plan: Vec<(u64, u64)> = badabing_core::schedule::ExperimentScheduler::new(
            params.p,
            params.improved,
            badabing_stats::rng::seeded(seed, "table-plan"),
        )
        .take_run(params.n_slots)
        .iter()
        .flat_map(|e| e.slots().map(move |slot| (slot, e.id)))
        .collect();
        plan.sort_unstable();
        let mut out = Vec::new();
        for (slot, experiment) in plan {
            for idx in 0..params.probe_packets {
                out.push(ProbeHeader {
                    session: 1,
                    experiment,
                    slot,
                    seq: out.len() as u64,
                    send_ns: slot * params.slot_ns + u64::from(idx) * 1_000,
                    idx,
                    probe_len: params.probe_packets,
                });
            }
        }
        out
    }

    /// The zero-allocation claim of the module docs: once a SYN has
    /// sized the session, ingesting a paper-shaped stream (loss,
    /// duplicates, reordering, mixed stamp sources) allocates nothing,
    /// and none of it spills out of the dense table.
    #[test]
    fn steady_state_ingest_allocates_nothing() {
        let params = SessionParams {
            n_slots: 20_000,
            slot_ns: 5_000_000,
            probe_packets: 3,
            packet_bytes: 64,
            p: 0.3,
            improved: true,
        };
        let mut stream = planned_stream(&params, 7);
        stream.retain(|h| h.slot % 97 != 13);
        let dups: Vec<ProbeHeader> = stream.iter().step_by(500).copied().collect();
        stream.extend(dups);
        for i in (0..stream.len().saturating_sub(8)).step_by(5) {
            stream.swap(i, i + 7);
        }
        let mut state = SessionState::new(params, DEFAULT_SESSION_BUDGET_BYTES, Duration::ZERO);

        let before = alloc_count::allocations();
        for (i, h) in stream.iter().enumerate() {
            let source = if i % 9 == 0 {
                TimestampSource::User
            } else {
                TimestampSource::Kernel
            };
            state.ingest(h, Duration::from_nanos(h.send_ns + 40_000), source);
        }
        let allocs = alloc_count::allocations() - before;

        assert_eq!(allocs, 0, "steady-state ingest allocated {allocs} times");
        assert!(state.duplicates > 0 && state.packets > 40_000);
        let fp = state.footprint();
        assert_eq!(
            (fp.spill_probes, fp.spill_seen, fp.spill_exps),
            (0, 0, 0),
            "a paper-shaped stream must stay in the dense table"
        );
    }

    /// The receiver's per-session semantics written over ordered maps:
    /// the reference the session table must reproduce bit for bit.
    #[derive(Default)]
    struct Model {
        seen: BTreeSet<(u64, u8)>,
        probes: BTreeMap<(u64, u64), ModelProbe>,
        /// (lo, hi, distinct slots, folded outcome)
        exps: BTreeMap<u64, (u64, u64, u8, Option<Outcome>)>,
        raw: Vec<RawDelay>,
        packets: u64,
        duplicates: u64,
        min_raw: Option<i64>,
        online: Estimates,
        frozen: bool,
    }

    struct ModelProbe {
        idx: BTreeSet<u8>,
        len: u8,
        dups: u8,
        kernel: bool,
    }

    impl ModelProbe {
        fn received(&self) -> u8 {
            (self.idx.len() as u8).min(self.len)
        }
    }

    impl Model {
        fn ingest(&mut self, h: &ProbeHeader, now: Duration, source: TimestampSource) {
            let key = (h.experiment, h.slot);
            let fresh = || ModelProbe {
                idx: BTreeSet::new(),
                len: 0,
                dups: 0,
                kernel: true,
            };
            if !self.seen.insert((h.seq, h.idx)) {
                self.duplicates += 1;
                let p = self.probes.entry(key).or_insert_with(fresh);
                p.dups = p.dups.saturating_add(1);
                return;
            }
            self.packets += 1;
            let raw = now.as_nanos() as i64 - h.send_ns as i64;
            self.min_raw = Some(self.min_raw.map_or(raw, |m| m.min(raw)));
            self.raw
                .push((h.experiment, h.slot, now.as_secs_f64(), raw));
            let new_slot = !self.probes.contains_key(&key);
            let p = self.probes.entry(key).or_insert_with(fresh);
            p.idx.insert(h.idx);
            p.len = p.len.max(h.probe_len);
            p.kernel &= source == TimestampSource::Kernel;
            if self.frozen {
                return;
            }
            let a = self.exps.entry(h.experiment).or_default();
            if new_slot {
                if a.2 == 0 {
                    (a.0, a.1) = (h.slot, h.slot);
                } else {
                    (a.0, a.1) = (a.0.min(h.slot), a.1.max(h.slot));
                }
                a.2 = a.2.saturating_add(1);
            }
            let (lo, hi, slots, old) = *a;
            let contiguous = (hi - lo).saturating_add(1) == u64::from(slots);
            let new = ((slots == 2 || slots == 3) && contiguous).then(|| {
                let mut states = [false; 3];
                for (k, s) in states.iter_mut().take(usize::from(slots)).enumerate() {
                    let p = &self.probes[&(h.experiment, lo + k as u64)];
                    *s = p.received() < p.len;
                }
                Outcome {
                    id: h.experiment,
                    start_slot: lo,
                    probes: slots,
                    states,
                }
            });
            if new != old {
                if let Some(o) = &old {
                    self.online.retract(o);
                }
                if let Some(o) = &new {
                    self.online.push(o);
                }
                self.exps.get_mut(&h.experiment).expect("just touched").3 = new;
            }
        }

        fn records(&self) -> Vec<ReportRecord> {
            let points: Vec<(f64, f64)> = self
                .raw
                .iter()
                .map(|&(_, _, t, raw)| (t, raw as f64 / 1e9))
                .collect();
            let b = crate::skew::fit_baseline(&points).unwrap_or(crate::skew::Baseline {
                offset: 0.0,
                slope: 0.0,
            });
            let mut q: BTreeMap<(u64, u64), (f64, f64)> = BTreeMap::new();
            for &(e, s, t, raw) in &self.raw {
                let x = b.correct(t, raw as f64 / 1e9);
                let r = q.entry((e, s)).or_insert((0.0, f64::NEG_INFINITY));
                *r = (x, r.1.max(x));
            }
            q.iter()
                .map(|(&(experiment, slot), &(last, max))| {
                    let p = &self.probes[&(experiment, slot)];
                    ReportRecord {
                        experiment,
                        slot,
                        received: p.received(),
                        duplicates: p.dups,
                        qdelay_last_secs: last,
                        qdelay_max_secs: max,
                        flags: if p.kernel {
                            RECORD_FLAG_KERNEL_STAMPED
                        } else {
                            0
                        },
                    }
                })
                .collect()
        }
    }

    /// A stream built from a planned run and a list of ops, each one
    /// `(kind, r, x)`: deliver, lose or reorder the next planned packet,
    /// or inject one hostile datagram — a duplicate, a duplicate naming
    /// a probe before its original arrives, a reused seq with another
    /// idx, `idx == 255`, an experiment id or seq past the projection, a
    /// 4th+ slot on one experiment, or a mixed `probe_len`.
    fn hostile_stream(
        mut planned: Vec<ProbeHeader>,
        ops: &[(u32, u64, u32)],
    ) -> Vec<(ProbeHeader, Duration, TimestampSource)> {
        let far = planned.len() as u64 + 1_000;
        let mut next = 0usize;
        let mut sent: Vec<ProbeHeader> = Vec::new();
        let mut out = Vec::new();
        let mut now = 1_000_000u64;
        for &(kind, r, x) in ops {
            let x = u64::from(x);
            let pick = |sent: &[ProbeHeader]| sent.get(r as usize % sent.len().max(1)).copied();
            let h = match kind {
                0..=44 => planned.get(next).copied().inspect(|_| next += 1),
                45..=54 => {
                    next += 1;
                    None
                }
                55..=61 => pick(&sent),
                62..=65 => pick(&sent)
                    .zip(planned.get(next + r as usize % 8))
                    .map(|(d, f)| ProbeHeader {
                        experiment: f.experiment,
                        slot: f.slot,
                        ..d
                    }),
                66..=69 => pick(&sent).map(|d| ProbeHeader {
                    idx: d.idx.wrapping_add(1 + (x % 3) as u8),
                    ..d
                }),
                70..=72 => pick(&sent).map(|d| ProbeHeader { idx: 255, ..d }),
                73..=76 => pick(&sent).map(|d| ProbeHeader {
                    experiment: if x % 2 == 0 { far + x % 5 } else { r },
                    seq: far + x,
                    ..d
                }),
                77..=79 => pick(&sent).map(|d| ProbeHeader {
                    seq: if x % 2 == 0 { far + x } else { r },
                    ..d
                }),
                80..=83 => pick(&sent).map(|d| ProbeHeader {
                    slot: d.slot + 3 + x % 3,
                    seq: far + 10_000 + x,
                    ..d
                }),
                84..=89 => planned
                    .get(next)
                    .copied()
                    .inspect(|_| next += 1)
                    .map(|h| ProbeHeader {
                        probe_len: 1 + (x % 4) as u8,
                        ..h
                    }),
                _ => {
                    let j = next + 1 + (x % 6) as usize;
                    if j < planned.len() {
                        planned.swap(next, j);
                    }
                    planned.get(next).copied().inspect(|_| next += 1)
                }
            };
            let Some(h) = h else { continue };
            now += 1_000 + x % 50_000;
            let source = if r % 7 == 0 {
                TimestampSource::User
            } else {
                TimestampSource::Kernel
            };
            sent.push(h);
            out.push((h, Duration::from_nanos(now), source));
        }
        out
    }

    /// Drive one stream through a session and the model alike, FIN at
    /// `fin_at` arrivals (post-FIN strays keep arriving), and demand the
    /// same records, summary and online `Estimates`.
    fn check_against_model(
        params: SessionParams,
        budget: usize,
        stream: &[(ProbeHeader, Duration, TimestampSource)],
        fin_at: usize,
    ) -> Result<SessionState, String> {
        let mut state = SessionState::new(params, budget, Duration::ZERO);
        let mut model = Model::default();
        model.online.slot_secs = params.slot_ns as f64 / 1e9;
        let mut fin = None;
        for i in 0..=stream.len() {
            if i == fin_at.min(stream.len()) && fin.is_none() {
                let f = state.finalize(2, &Histogram::latency());
                let want_summary = ReportSummary {
                    packets: model.packets,
                    rejected: 2,
                    duplicates: model.duplicates,
                    min_raw_delay_ns: model.min_raw,
                };
                fin = Some((f.records.clone(), f.summary, model.records(), want_summary));
                model.frozen = true;
            }
            if let Some((h, now, source)) = stream.get(i) {
                state.ingest(h, *now, *source);
                model.ingest(h, *now, *source);
            }
        }
        let (records, summary, want_records, want_summary) = fin.expect("finalized");
        if records != want_records {
            let diff = records.iter().zip(&want_records).position(|(a, b)| a != b);
            return Err(format!(
                "records differ ({} vs {}) first at {diff:?}",
                records.len(),
                want_records.len()
            ));
        }
        if summary != want_summary {
            return Err(format!("summary {summary:?} vs {want_summary:?}"));
        }
        if state.online != model.online {
            return Err(format!(
                "online estimates differ: {:?} vs {:?}",
                state.online, model.online
            ));
        }
        if (state.packets, state.duplicates) != (model.packets, model.duplicates) {
            return Err("post-FIN counters differ".into());
        }
        Ok(state)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The session table against the ordered-map reference model, on
        /// streams mixing every key the dense form cannot hold.
        #[test]
        fn session_table_matches_the_reference_model(
            shape in ((1u64..1_500, 1u32..=10), (proptest::prelude::any::<bool>(), 1u8..=3), 0u64..1_000),
            mode in (0u32..4, 0u32..=100),
            ops in proptest::collection::vec((0u32..100, proptest::prelude::any::<u64>(), 0u32..100_000), 1..700),
        ) {
            let ((n_slots, p10), (improved, probe_packets), seed) = shape;
            let (tight, fin_pct) = mode;
            let params = SessionParams {
                n_slots,
                slot_ns: 5_000_000,
                probe_packets,
                packet_bytes: 64,
                p: f64::from(p10) / 10.0,
                improved,
            };
            // Tight budgets cut the dense range short of the run.
            let budget = [DEFAULT_SESSION_BUDGET_BYTES, 4_096, 16_384, 65_536][tight as usize];
            let stream = hostile_stream(planned_stream(&params, seed), &ops);
            let fin_at = stream.len() * fin_pct as usize / 100;
            let checked = check_against_model(params, budget, &stream, fin_at);
            proptest::prop_assert!(checked.is_ok(), "{}", checked.err().unwrap_or_default());
        }
    }

    /// Every key kind the dense form cannot hold, in one fixed stream:
    /// each must spill, and the session must still match the model.
    #[test]
    fn every_hostile_key_spills_and_matches_the_model() {
        let params = SessionParams {
            n_slots: 400,
            slot_ns: 5_000_000,
            probe_packets: 3,
            packet_bytes: 64,
            p: 0.3,
            improved: true,
        };
        let planned = planned_stream(&params, 3);
        // Deliver a while, then one op of every hostile kind, then the
        // rest of the plan.
        let mut ops: Vec<(u32, u64, u32)> = (0..60).map(|i| (0, i, 17)).collect();
        for kind in [55, 62, 66, 70, 73, 77, 80, 84, 90] {
            ops.push((kind, 3, 4));
            ops.push((kind, 8, 5));
        }
        ops.extend((0..planned.len() as u64).map(|i| (0, i, 29)));
        let stream = hostile_stream(planned, &ops);
        let state =
            check_against_model(params, DEFAULT_SESSION_BUDGET_BYTES, &stream, stream.len())
                .unwrap_or_else(|e| panic!("{e}"));
        let fp = state.footprint();
        assert!(
            fp.spill_probes > 0 && fp.spill_seen > 0 && fp.spill_exps > 0,
            "{fp:?}"
        );
    }
}
