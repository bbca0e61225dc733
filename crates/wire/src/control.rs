//! Control-plane messages for the two-process live tool.
//!
//! The original BADABING tool ran sender and receiver as separate
//! programs on separate hosts (§6); our reimplementation's control plane
//! carries everything the two processes must agree on over the same UDP
//! path the probes use, with sender-driven retries (the sender is the
//! only side with a human attached, so it owns all timeouts):
//!
//! 1. **Handshake** — [`ControlMessage::Syn`] carries the session id and
//!    the full tool configuration ([`SessionParams`]); the receiver
//!    answers [`ControlMessage::SynAck`], or [`ControlMessage::SynNack`]
//!    when it refuses the session (e.g. a multi-session receiver at its
//!    `max_sessions` capacity — see [`RejectReason`]). The sender retries
//!    with capped exponential backoff until acknowledged, refused, or out
//!    of attempts; a NACK fails the handshake immediately instead of
//!    burning the retry budget. SYN retransmits to an already-open
//!    session are idempotent: they refresh the stored parameters and are
//!    re-acknowledged, never refused.
//! 2. **Liveness** — periodic [`ControlMessage::Heartbeat`] /
//!    [`ControlMessage::HeartbeatAck`] pairs during the run. Consecutive
//!    unanswered heartbeats abort the sender with a partial manifest; an
//!    idle watchdog on the receiver reclaims the session if the sender
//!    vanishes.
//! 3. **Teardown + report retrieval** — [`ControlMessage::Fin`] asks the
//!    receiver to finalize its log; [`ControlMessage::FinAck`] returns
//!    the log summary and chunk count; the sender then pulls the
//!    [`ControlMessage::ReportChunk`]s a window at a time: one
//!    [`ControlMessage::ReportRequest`] names a chunk range of at most
//!    [`REPORT_WINDOW_CHUNKS`] chunks, the receiver answers with every
//!    chunk of it back to back, and the sender re-requests only the
//!    chunks it lost. A final [`ControlMessage::ReportAck`] closes the
//!    exchange.
//! 4. **Estimate query** — at any point of a run,
//!    [`ControlMessage::EstimateRequest`] reads the receiver's online
//!    estimate of one session, or of every live session merged, without
//!    finalizing anything. [`ControlMessage::EstimateReply`] carries an
//!    [`EstimateReport`]: the core crate's `Estimates` counters
//!    themselves (the raw §5 sums, which merge by addition) and a delay
//!    summary.
//!
//! # Completion and idempotency semantics
//!
//! The teardown sequence is designed so every sender-side retry is safe:
//!
//! * **FIN snapshot.** The first FIN a session sees freezes that
//!   session's log into an immutable snapshot (records, summary, chunk
//!   layout). Every later FIN retransmit re-serves the *same* snapshot —
//!   the same `total_chunks`, the same summary, byte-identical chunks —
//!   even if stray probe datagrams arrive after finalization. A sender
//!   can therefore lose any number of FIN-ACKs and retry without ever
//!   observing two different reports for one session.
//! * **Chunk retrieval.** There is no receiver-side per-chunk state: a
//!   [`ControlMessage::ReportRequest`] for chunks `[chunk, chunk + count)`
//!   is answered with the snapshot's chunks in that range (clipped at
//!   `total_chunks` and at [`REPORT_WINDOW_CHUNKS`]) however many times
//!   it is asked, byte-identical every time. A chunk's arrival is its
//!   acknowledgement; nothing acknowledges chunks one by one.
//! * **Completion.** [`ControlMessage::ReportAck`] with
//!   `chunk >= total_chunks` tells the receiver the sender holds the
//!   complete report; the session is then reaped (on a multi-session
//!   receiver the process keeps serving other sessions). This holds for
//!   empty reports too: `total_chunks == 0` completes on
//!   `ReportAck { chunk: 0 }` with no chunk exchange at all. Duplicate
//!   closing acks to an already-reaped session are ignored.
//!
//! Control datagrams start with [`CONTROL_MAGIC`] (`"BDC1"`), distinct
//! from the probe magic, so both kinds can share one socket.

use crate::{DecodeError, SliceWriter};
use badabing_core::estimator::Estimates;
use bytes::{Buf, BufMut, Bytes};
use std::ops::Range;

/// Identifies control datagrams: `"BDC1"` (BaDabing Control, version 1).
pub const CONTROL_MAGIC: u32 = 0x4244_4331;

/// Probe arrival records carried per [`ControlMessage::ReportChunk`].
///
/// Sized so a full chunk stays well under any sane MTU:
/// `8 + 32·35 = 1128` bytes of payload.
pub const RECORDS_PER_CHUNK: usize = 32;

/// Most chunks one [`ControlMessage::ReportRequest`] can trigger: the
/// receiver clips every requested range to this many chunks. It bounds
/// the bytes one request puts on the wire (32 full chunks are about
/// 36 KB, well inside a default 208 KiB socket receive buffer) and is
/// the sender's window: it keeps one window of this many chunks in
/// flight.
pub const REPORT_WINDOW_CHUNKS: u32 = 32;

/// Encoded size of one [`ReportRecord`].
const RECORD_BYTES: usize = 35;

/// [`ReportRecord::flags`] bit: every arrival of the probe carried a
/// kernel RX timestamp (its delays are pre-scheduler-noise precision).
pub const RECORD_FLAG_KERNEL_STAMPED: u8 = 1;

/// Common prefix of every control datagram: magic, type tag, session id.
const PREFIX_BYTES: usize = 9;

/// Upper bound on any encoded control message (a full
/// [`ControlMessage::ReportChunk`]): size one reusable encode buffer
/// with this and [`ControlMessage::encode_into`] never overflows.
pub const MAX_CONTROL_BYTES: usize = PREFIX_BYTES + 4 + 4 + 2 + RECORDS_PER_CHUNK * RECORD_BYTES;

/// The tool configuration a SYN carries, so a bare receiver can size its
/// run without out-of-band agreement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionParams {
    /// Total slots the sender will run.
    pub n_slots: u64,
    /// Slot width in nanoseconds.
    pub slot_ns: u64,
    /// Packets per probe.
    pub probe_packets: u8,
    /// Probe packet size in bytes.
    pub packet_bytes: u32,
    /// Experiment start probability `p`.
    pub p: f64,
    /// Whether the improved (§5.3) schedule is in use.
    pub improved: bool,
}

/// One probe's arrival record as shipped over the control plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportRecord {
    /// Owning experiment.
    pub experiment: u64,
    /// Targeted slot.
    pub slot: u64,
    /// Distinct packets of this probe that arrived.
    pub received: u8,
    /// Duplicated datagrams observed for this probe (saturating).
    pub duplicates: u8,
    /// Queueing delay of the last arrival, seconds.
    pub qdelay_last_secs: f64,
    /// Maximum queueing delay over the probe's arrivals, seconds.
    pub qdelay_max_secs: f64,
    /// Record metadata bits ([`RECORD_FLAG_KERNEL_STAMPED`]; the rest
    /// reserved, zero on encode).
    pub flags: u8,
}

impl ReportRecord {
    fn put(&self, buf: &mut impl BufMut) {
        buf.put_u64(self.experiment);
        buf.put_u64(self.slot);
        buf.put_u8(self.received);
        buf.put_u8(self.duplicates);
        buf.put_f64(self.qdelay_last_secs);
        buf.put_f64(self.qdelay_max_secs);
        buf.put_u8(self.flags);
    }

    fn get(data: &mut &[u8]) -> Self {
        Self {
            experiment: data.get_u64(),
            slot: data.get_u64(),
            received: data.get_u8(),
            duplicates: data.get_u8(),
            qdelay_last_secs: data.get_f64(),
            qdelay_max_secs: data.get_f64(),
            flags: data.get_u8(),
        }
    }
}

/// Why a receiver refused a [`ControlMessage::Syn`] — or, for
/// [`RejectReason::Evicted`], any control message from a session the
/// receiver has since reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The receiver's session registry is at its `max_sessions` cap.
    Capacity,
    /// Admitting the session would exceed the receiver's memory budget
    /// (and its pressure policy found nothing to evict).
    Budget,
    /// The session was evicted under memory pressure: the receiver no
    /// longer holds its state, so retrying any exchange is futile.
    Evicted,
    /// A reason this build does not know (forward compatibility).
    Other(u8),
}

impl RejectReason {
    /// Wire code for this reason.
    pub fn code(self) -> u8 {
        match self {
            RejectReason::Capacity => 1,
            RejectReason::Budget => 2,
            RejectReason::Evicted => 3,
            RejectReason::Other(code) => code,
        }
    }

    /// Reason for a wire code.
    pub fn from_code(code: u8) -> Self {
        match code {
            1 => RejectReason::Capacity,
            2 => RejectReason::Budget,
            3 => RejectReason::Evicted,
            other => RejectReason::Other(other),
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Capacity => write!(f, "at session capacity"),
            RejectReason::Budget => write!(f, "over memory budget"),
            RejectReason::Evicted => write!(f, "session evicted under memory pressure"),
            RejectReason::Other(code) => write!(f, "unknown reason {code}"),
        }
    }
}

/// Which population an estimate exchange covers.
///
/// Forward-compatible like [`RejectReason`]: scopes this build does not
/// know decode as [`EstimateScope::Other`] instead of failing, so an
/// old receiver can skip a newer peer's request (and an old sender a
/// newer reply) without tearing anything down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimateScope {
    /// The one session named in the message.
    Session,
    /// Every live session on the receiver, merged.
    Fleet,
    /// A scope this build does not know (forward compatibility).
    Other(u8),
}

impl EstimateScope {
    /// Wire code for this scope.
    pub fn code(self) -> u8 {
        match self {
            EstimateScope::Session => 0,
            EstimateScope::Fleet => 1,
            EstimateScope::Other(code) => code,
        }
    }

    /// Scope for a wire code.
    pub fn from_code(code: u8) -> Self {
        match code {
            0 => EstimateScope::Session,
            1 => EstimateScope::Fleet,
            other => EstimateScope::Other(other),
        }
    }
}

/// Encoded size of the [`Estimates`] counters: 12 `u64`s and the
/// `f64` slot width.
const ESTIMATES_BYTES: usize = 13 * 8;

/// Write the mergeable §5 counters: the raw sums, not the derived
/// `F̂`/`D̂`, so any consumer can merge replies from several receivers
/// (counter addition) and derive every estimate itself, exactly as if
/// it had folded the logs locally.
fn put_estimates(e: &Estimates, buf: &mut impl BufMut) {
    buf.put_u64(e.experiments);
    buf.put_u64(e.z_sum);
    buf.put_u64(e.basic_experiments);
    buf.put_u64(e.extended_experiments);
    buf.put_u64(e.r);
    buf.put_u64(e.s);
    buf.put_u64(e.n01);
    buf.put_u64(e.n10);
    buf.put_u64(e.u);
    buf.put_u64(e.v);
    buf.put_u64(e.n111);
    buf.put_u64(e.outcomes_malformed);
    buf.put_f64(e.slot_secs);
}

/// Read the counters [`put_estimates`] wrote, in the same order.
fn get_estimates(data: &mut &[u8]) -> Estimates {
    Estimates {
        experiments: data.get_u64(),
        z_sum: data.get_u64(),
        basic_experiments: data.get_u64(),
        extended_experiments: data.get_u64(),
        r: data.get_u64(),
        s: data.get_u64(),
        n01: data.get_u64(),
        n10: data.get_u64(),
        u: data.get_u64(),
        v: data.get_u64(),
        n111: data.get_u64(),
        outcomes_malformed: data.get_u64(),
        slot_secs: data.get_f64(),
    }
}

/// Delay distribution summary riding along in an
/// [`ControlMessage::EstimateReply`]: the quantiles are bucket edges of
/// the receiver's fixed log-scale sketch, so same-seed runs report
/// byte-identical values. Both quantiles are `0.0` when `samples == 0`
/// (a NaN sentinel would break equality-based idempotency checks).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DelaySummary {
    /// Delay samples folded into the sketch.
    pub samples: u64,
    /// Median queueing delay, seconds.
    pub p50_secs: f64,
    /// 99th-percentile queueing delay, seconds.
    pub p99_secs: f64,
}

/// A mid-run estimate snapshot: the body of
/// [`ControlMessage::EstimateReply`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateReport {
    /// Which population the snapshot covers.
    pub scope: EstimateScope,
    /// Live sessions merged into the counters (1 for session scope).
    pub sessions: u32,
    /// The mergeable §5 counters, ready for derived estimates.
    pub estimates: Estimates,
    /// Queueing-delay sketch summary.
    pub delay: DelaySummary,
}

/// Summary of a finalized receiver log, returned in a FIN-ACK so the
/// sender can reconstruct the log's metadata without a side channel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReportSummary {
    /// Probe datagrams accepted (duplicates included).
    pub packets: u64,
    /// Datagrams rejected.
    pub rejected: u64,
    /// Duplicated probe datagrams detected.
    pub duplicates: u64,
    /// Minimum raw delay observed (clock-offset estimate), nanoseconds.
    pub min_raw_delay_ns: Option<i64>,
}

/// A control-plane message.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlMessage {
    /// Session open request, sender → receiver.
    Syn {
        /// Session id the probes will carry.
        session: u32,
        /// The run's tool configuration.
        params: SessionParams,
    },
    /// Session accepted, receiver → sender.
    SynAck {
        /// Echoed session id.
        session: u32,
    },
    /// Session refused, receiver → sender. Tells the sender to give up
    /// immediately instead of retrying into a full registry.
    SynNack {
        /// Echoed session id.
        session: u32,
        /// Why the session was refused.
        reason: RejectReason,
    },
    /// Liveness probe, sender → receiver.
    Heartbeat {
        /// Session id.
        session: u32,
        /// Sender-chosen sequence number, echoed in the ack.
        seq: u64,
    },
    /// Liveness reply, receiver → sender.
    HeartbeatAck {
        /// Session id.
        session: u32,
        /// Echoed heartbeat sequence number.
        seq: u64,
    },
    /// Run finished; finalize the log, sender → receiver.
    Fin {
        /// Session id.
        session: u32,
        /// Probes the sender actually sent.
        probes_sent: u64,
        /// Packets the sender actually sent.
        packets_sent: u64,
    },
    /// Log finalized, receiver → sender.
    FinAck {
        /// Session id.
        session: u32,
        /// Report chunks available for retrieval.
        total_chunks: u32,
        /// Log metadata.
        summary: ReportSummary,
    },
    /// Ask for the report chunks `[chunk, chunk + count)`, sender →
    /// receiver. The receiver clips the range at `total_chunks` and at
    /// [`REPORT_WINDOW_CHUNKS`]; a range that starts past the end, or
    /// any request before FIN, gets one empty chunk.
    ReportRequest {
        /// Session id.
        session: u32,
        /// First chunk index wanted.
        chunk: u32,
        /// Chunks wanted, at least 1 (`0` fails to decode).
        count: u16,
    },
    /// One report chunk, receiver → sender. Re-sent verbatim on
    /// re-request, so retrieval is idempotent under loss.
    ReportChunk {
        /// Session id.
        session: u32,
        /// This chunk's index.
        chunk: u32,
        /// Total chunks in the report.
        total_chunks: u32,
        /// The records (at most [`RECORDS_PER_CHUNK`]).
        records: Vec<ReportRecord>,
    },
    /// Retrieval complete, sender → receiver: the sender holds every
    /// chunk. Lets the receiver end the session as soon as the sender
    /// has everything instead of waiting out its idle watchdog. The
    /// receiver acts only on `chunk >= total_chunks`; an ack with a
    /// smaller `chunk` is ignored.
    ReportAck {
        /// Session id.
        session: u32,
        /// `total_chunks` from the FIN-ACK.
        chunk: u32,
    },
    /// Mid-run estimate query, sender/operator → receiver: read the
    /// receiver's online `F̂`/`D̂` counters without finalizing anything.
    /// Old receivers that predate this message drop it as an unknown
    /// type; the requester simply times out, nothing breaks.
    EstimateRequest {
        /// Session whose estimate is wanted (for
        /// [`EstimateScope::Fleet`], the session the requester uses as
        /// its own control identity — echoed so reply matching works).
        session: u32,
        /// Per-session or merged-fleet.
        scope: EstimateScope,
    },
    /// Online estimate snapshot, receiver → requester: the raw
    /// mergeable counters plus a delay summary, under the echoed scope.
    /// Old senders drop it as an unknown type.
    EstimateReply {
        /// Echoed session id.
        session: u32,
        /// The snapshot.
        report: EstimateReport,
    },
}

const TYPE_SYN: u8 = 1;
const TYPE_SYN_ACK: u8 = 2;
const TYPE_HEARTBEAT: u8 = 3;
const TYPE_HEARTBEAT_ACK: u8 = 4;
const TYPE_FIN: u8 = 5;
const TYPE_FIN_ACK: u8 = 6;
const TYPE_REPORT_REQUEST: u8 = 7;
const TYPE_REPORT_CHUNK: u8 = 8;
const TYPE_REPORT_ACK: u8 = 9;
const TYPE_SYN_NACK: u8 = 10;
const TYPE_ESTIMATE_REQUEST: u8 = 11;
const TYPE_ESTIMATE_REPLY: u8 = 12;

impl ControlMessage {
    /// The session id carried by any control message.
    pub fn session(&self) -> u32 {
        match *self {
            ControlMessage::Syn { session, .. }
            | ControlMessage::SynAck { session }
            | ControlMessage::SynNack { session, .. }
            | ControlMessage::Heartbeat { session, .. }
            | ControlMessage::HeartbeatAck { session, .. }
            | ControlMessage::Fin { session, .. }
            | ControlMessage::FinAck { session, .. }
            | ControlMessage::ReportRequest { session, .. }
            | ControlMessage::ReportChunk { session, .. }
            | ControlMessage::ReportAck { session, .. }
            | ControlMessage::EstimateRequest { session, .. }
            | ControlMessage::EstimateReply { session, .. } => session,
        }
    }

    /// Exact encoded size of this message in bytes.
    pub fn encoded_len(&self) -> usize {
        PREFIX_BYTES
            + match self {
                ControlMessage::Syn { .. } => 8 + 8 + 1 + 4 + 8 + 1,
                ControlMessage::SynAck { .. } => 0,
                ControlMessage::SynNack { .. } => 1,
                ControlMessage::Heartbeat { .. } | ControlMessage::HeartbeatAck { .. } => 8,
                ControlMessage::Fin { .. } => 16,
                ControlMessage::FinAck { .. } => 4 + 24 + 1 + 8,
                ControlMessage::ReportRequest { .. } => 4 + 2,
                ControlMessage::ReportAck { .. } => 4,
                ControlMessage::ReportChunk { records, .. } => {
                    4 + 4 + 2 + records.len() * RECORD_BYTES
                }
                ControlMessage::EstimateRequest { .. } => 1,
                ControlMessage::EstimateReply { .. } => 1 + 4 + ESTIMATES_BYTES + 24,
            }
    }

    /// Encode into a datagram.
    ///
    /// Allocates the exact-size buffer; the zero-allocation hot path is
    /// [`ControlMessage::encode_into`], of which this is a thin wrapper.
    pub fn encode(&self) -> Bytes {
        let mut buf = vec![0u8; self.encoded_len()];
        let n = self.encode_into(&mut buf);
        debug_assert_eq!(n, buf.len());
        Bytes::from(buf)
    }

    /// Encode into a caller-provided buffer without allocating; returns
    /// the datagram length. Size the buffer with
    /// [`ControlMessage::encoded_len`] or [`MAX_CONTROL_BYTES`].
    ///
    /// # Panics
    /// Panics if `buf` is smaller than the encoded message.
    pub fn encode_into(&self, buf: &mut [u8]) -> usize {
        if let ControlMessage::ReportChunk {
            session,
            chunk,
            total_chunks,
            records,
        } = self
        {
            return encode_report_chunk_into(*session, *chunk, *total_chunks, records, buf);
        }
        let mut w = SliceWriter::new(buf);
        w.put_u32(CONTROL_MAGIC);
        match self {
            ControlMessage::Syn { session, params } => {
                w.put_u8(TYPE_SYN);
                w.put_u32(*session);
                w.put_u64(params.n_slots);
                w.put_u64(params.slot_ns);
                w.put_u8(params.probe_packets);
                w.put_u32(params.packet_bytes);
                w.put_f64(params.p);
                w.put_u8(u8::from(params.improved));
            }
            ControlMessage::SynAck { session } => {
                w.put_u8(TYPE_SYN_ACK);
                w.put_u32(*session);
            }
            ControlMessage::SynNack { session, reason } => {
                w.put_u8(TYPE_SYN_NACK);
                w.put_u32(*session);
                w.put_u8(reason.code());
            }
            ControlMessage::Heartbeat { session, seq } => {
                w.put_u8(TYPE_HEARTBEAT);
                w.put_u32(*session);
                w.put_u64(*seq);
            }
            ControlMessage::HeartbeatAck { session, seq } => {
                w.put_u8(TYPE_HEARTBEAT_ACK);
                w.put_u32(*session);
                w.put_u64(*seq);
            }
            ControlMessage::Fin {
                session,
                probes_sent,
                packets_sent,
            } => {
                w.put_u8(TYPE_FIN);
                w.put_u32(*session);
                w.put_u64(*probes_sent);
                w.put_u64(*packets_sent);
            }
            ControlMessage::FinAck {
                session,
                total_chunks,
                summary,
            } => {
                w.put_u8(TYPE_FIN_ACK);
                w.put_u32(*session);
                w.put_u32(*total_chunks);
                w.put_u64(summary.packets);
                w.put_u64(summary.rejected);
                w.put_u64(summary.duplicates);
                w.put_u8(u8::from(summary.min_raw_delay_ns.is_some()));
                w.put_i64(summary.min_raw_delay_ns.unwrap_or(0));
            }
            ControlMessage::ReportRequest {
                session,
                chunk,
                count,
            } => {
                w.put_u8(TYPE_REPORT_REQUEST);
                w.put_u32(*session);
                w.put_u32(*chunk);
                w.put_u16(*count);
            }
            ControlMessage::ReportChunk { .. } => unreachable!("handled above"),
            ControlMessage::ReportAck { session, chunk } => {
                w.put_u8(TYPE_REPORT_ACK);
                w.put_u32(*session);
                w.put_u32(*chunk);
            }
            ControlMessage::EstimateRequest { session, scope } => {
                w.put_u8(TYPE_ESTIMATE_REQUEST);
                w.put_u32(*session);
                w.put_u8(scope.code());
            }
            ControlMessage::EstimateReply { session, report } => {
                w.put_u8(TYPE_ESTIMATE_REPLY);
                w.put_u32(*session);
                w.put_u8(report.scope.code());
                w.put_u32(report.sessions);
                put_estimates(&report.estimates, &mut w);
                w.put_u64(report.delay.samples);
                w.put_f64(report.delay.p50_secs);
                w.put_f64(report.delay.p99_secs);
            }
        }
        debug_assert_eq!(w.written(), self.encoded_len());
        w.written()
    }

    /// Decode from a received datagram.
    pub fn decode(mut data: &[u8]) -> Result<Self, DecodeError> {
        let total = data.len();
        let need = |n: usize, have: usize| {
            if have < n {
                Err(DecodeError::TooShort { got: total })
            } else {
                Ok(())
            }
        };
        need(9, data.len())?;
        let magic = data.get_u32();
        if magic != CONTROL_MAGIC {
            return Err(DecodeError::BadMagic { got: magic });
        }
        let kind = data.get_u8();
        let session = data.get_u32();
        match kind {
            TYPE_SYN => {
                need(30, data.len())?;
                let n_slots = data.get_u64();
                let slot_ns = data.get_u64();
                let probe_packets = data.get_u8();
                let packet_bytes = data.get_u32();
                let p = data.get_f64();
                let improved = data.get_u8() != 0;
                if probe_packets == 0 || slot_ns == 0 || !(p > 0.0 && p <= 1.0) {
                    return Err(DecodeError::BadFields);
                }
                Ok(ControlMessage::Syn {
                    session,
                    params: SessionParams {
                        n_slots,
                        slot_ns,
                        probe_packets,
                        packet_bytes,
                        p,
                        improved,
                    },
                })
            }
            TYPE_SYN_ACK => Ok(ControlMessage::SynAck { session }),
            TYPE_SYN_NACK => {
                need(1, data.len())?;
                Ok(ControlMessage::SynNack {
                    session,
                    reason: RejectReason::from_code(data.get_u8()),
                })
            }
            TYPE_HEARTBEAT => {
                need(8, data.len())?;
                Ok(ControlMessage::Heartbeat {
                    session,
                    seq: data.get_u64(),
                })
            }
            TYPE_HEARTBEAT_ACK => {
                need(8, data.len())?;
                Ok(ControlMessage::HeartbeatAck {
                    session,
                    seq: data.get_u64(),
                })
            }
            TYPE_FIN => {
                need(16, data.len())?;
                Ok(ControlMessage::Fin {
                    session,
                    probes_sent: data.get_u64(),
                    packets_sent: data.get_u64(),
                })
            }
            TYPE_FIN_ACK => {
                need(37, data.len())?;
                let total_chunks = data.get_u32();
                let packets = data.get_u64();
                let rejected = data.get_u64();
                let duplicates = data.get_u64();
                let has_min = data.get_u8() != 0;
                let min_raw = data.get_i64();
                Ok(ControlMessage::FinAck {
                    session,
                    total_chunks,
                    summary: ReportSummary {
                        packets,
                        rejected,
                        duplicates,
                        min_raw_delay_ns: has_min.then_some(min_raw),
                    },
                })
            }
            TYPE_REPORT_REQUEST => {
                need(6, data.len())?;
                let chunk = data.get_u32();
                let count = data.get_u16();
                if count == 0 {
                    return Err(DecodeError::BadFields);
                }
                Ok(ControlMessage::ReportRequest {
                    session,
                    chunk,
                    count,
                })
            }
            TYPE_REPORT_CHUNK => {
                need(10, data.len())?;
                let chunk = data.get_u32();
                let total_chunks = data.get_u32();
                let count = data.get_u16() as usize;
                if count > RECORDS_PER_CHUNK {
                    return Err(DecodeError::BadFields);
                }
                need(count * RECORD_BYTES, data.len())?;
                let mut records = Vec::with_capacity(count);
                for _ in 0..count {
                    records.push(ReportRecord::get(&mut data));
                }
                Ok(ControlMessage::ReportChunk {
                    session,
                    chunk,
                    total_chunks,
                    records,
                })
            }
            TYPE_REPORT_ACK => {
                need(4, data.len())?;
                Ok(ControlMessage::ReportAck {
                    session,
                    chunk: data.get_u32(),
                })
            }
            TYPE_ESTIMATE_REQUEST => {
                need(1, data.len())?;
                Ok(ControlMessage::EstimateRequest {
                    session,
                    scope: EstimateScope::from_code(data.get_u8()),
                })
            }
            TYPE_ESTIMATE_REPLY => {
                need(1 + 4 + ESTIMATES_BYTES + 24, data.len())?;
                let report = EstimateReport {
                    scope: EstimateScope::from_code(data.get_u8()),
                    sessions: data.get_u32(),
                    estimates: get_estimates(&mut data),
                    delay: DelaySummary {
                        samples: data.get_u64(),
                        p50_secs: data.get_f64(),
                        p99_secs: data.get_f64(),
                    },
                };
                Ok(ControlMessage::EstimateReply { session, report })
            }
            got => Err(DecodeError::UnknownType { got }),
        }
    }
}

/// Encode one [`ControlMessage::ReportChunk`] straight from a window of
/// the session's record slice — no per-chunk `Vec` clone, no message
/// construction. Byte-identical to
/// `ControlMessage::ReportChunk { records: window.to_vec(), .. }.encode()`;
/// a receiver holds one `Vec<ReportRecord>` per finalized session and
/// serves any chunk, any number of times, from subslices of it.
///
/// Returns the datagram length.
///
/// # Panics
/// Panics if `records.len() > RECORDS_PER_CHUNK` or `buf` is too small
/// (size it with [`MAX_CONTROL_BYTES`]).
pub fn encode_report_chunk_into(
    session: u32,
    chunk: u32,
    total_chunks: u32,
    records: &[ReportRecord],
    buf: &mut [u8],
) -> usize {
    assert!(
        records.len() <= RECORDS_PER_CHUNK,
        "chunk carries {} records, limit is {RECORDS_PER_CHUNK}",
        records.len()
    );
    let mut w = SliceWriter::new(buf);
    w.put_u32(CONTROL_MAGIC);
    w.put_u8(TYPE_REPORT_CHUNK);
    w.put_u32(session);
    w.put_u32(chunk);
    w.put_u32(total_chunks);
    w.put_u16(records.len() as u16);
    for r in records {
        r.put(&mut w);
    }
    w.written()
}

/// Number of chunks a report of `n_records` records splits into.
pub fn chunk_count(n_records: usize) -> u32 {
    n_records.div_ceil(RECORDS_PER_CHUNK) as u32
}

/// The record window chunk `chunk` of a report covers: records
/// `[chunk·RECORDS_PER_CHUNK, (chunk+1)·RECORDS_PER_CHUNK)`, clipped to
/// the report. An out-of-range chunk index yields the **empty** window —
/// never a panic — so a serving path can answer any request
/// deterministically (the receiver replies with an empty chunk rather
/// than silence, keeping a buggy sender out of endless backoff).
///
/// This is the one home of the chunk-slicing arithmetic; the receiver's
/// serving path and the differential tests both go through it.
pub fn chunk_window(records: &[ReportRecord], chunk: u32) -> &[ReportRecord] {
    let lo = (chunk as usize)
        .saturating_mul(RECORDS_PER_CHUNK)
        .min(records.len());
    let hi = lo.saturating_add(RECORDS_PER_CHUNK).min(records.len());
    &records[lo..hi]
}

/// The chunks the receiver answers a [`ControlMessage::ReportRequest`]
/// for `[chunk, chunk + count)` with: the range clipped at
/// `total_chunks` and at [`REPORT_WINDOW_CHUNKS`]. Empty when `chunk`
/// is past the end (the receiver then sends one empty chunk instead).
pub fn served_chunks(chunk: u32, count: u16, total_chunks: u32) -> Range<u32> {
    let end = chunk
        .saturating_add(u32::from(count).min(REPORT_WINDOW_CHUNKS))
        .min(total_chunks);
    chunk..end.max(chunk)
}

/// Split a full report into encode-ready chunks.
///
/// Convenience for tests and offline tooling: every chunk clones its
/// record window into an owned message. The receiver's serving path uses
/// [`encode_report_chunk_into`] on subslices instead.
pub fn chunk_records(session: u32, records: &[ReportRecord]) -> Vec<ControlMessage> {
    let total_chunks = chunk_count(records.len());
    records
        .chunks(RECORDS_PER_CHUNK)
        .enumerate()
        .map(|(i, window)| ControlMessage::ReportChunk {
            session,
            chunk: i as u32,
            total_chunks,
            records: window.to_vec(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SessionParams {
        SessionParams {
            n_slots: 180_000,
            slot_ns: 5_000_000,
            probe_packets: 3,
            packet_bytes: 600,
            p: 0.3,
            improved: true,
        }
    }

    fn record(i: u64) -> ReportRecord {
        ReportRecord {
            experiment: i,
            slot: i * 7,
            received: 3,
            duplicates: (i % 3) as u8,
            qdelay_last_secs: 0.001 * i as f64,
            qdelay_max_secs: 0.002 * i as f64,
            flags: (i % 2) as u8 * RECORD_FLAG_KERNEL_STAMPED,
        }
    }

    fn counters() -> Estimates {
        Estimates {
            experiments: 1000,
            z_sum: 120,
            basic_experiments: 600,
            extended_experiments: 400,
            r: 210,
            s: 90,
            n01: 44,
            n10: 46,
            u: 30,
            v: 28,
            n111: 9,
            outcomes_malformed: 2,
            slot_secs: 0.005,
        }
    }

    fn fleet_report() -> EstimateReport {
        EstimateReport {
            scope: EstimateScope::Fleet,
            sessions: 2048,
            estimates: counters(),
            delay: DelaySummary {
                samples: 5_000,
                p50_secs: 0.002,
                p99_secs: 0.07,
            },
        }
    }

    #[test]
    fn all_variants_roundtrip() {
        let messages = vec![
            ControlMessage::Syn {
                session: 7,
                params: params(),
            },
            ControlMessage::SynAck { session: 7 },
            ControlMessage::SynNack {
                session: 7,
                reason: RejectReason::Capacity,
            },
            ControlMessage::SynNack {
                session: 7,
                reason: RejectReason::Other(77),
            },
            ControlMessage::Heartbeat {
                session: 7,
                seq: 42,
            },
            ControlMessage::HeartbeatAck {
                session: 7,
                seq: 42,
            },
            ControlMessage::Fin {
                session: 7,
                probes_sent: 100,
                packets_sent: 300,
            },
            ControlMessage::FinAck {
                session: 7,
                total_chunks: 4,
                summary: ReportSummary {
                    packets: 298,
                    rejected: 3,
                    duplicates: 2,
                    min_raw_delay_ns: Some(-1_234_567),
                },
            },
            ControlMessage::FinAck {
                session: 7,
                total_chunks: 0,
                summary: ReportSummary::default(),
            },
            ControlMessage::ReportRequest {
                session: 7,
                chunk: 2,
                count: 1,
            },
            ControlMessage::ReportRequest {
                session: 7,
                chunk: u32::MAX,
                count: u16::MAX,
            },
            ControlMessage::ReportChunk {
                session: 7,
                chunk: 2,
                total_chunks: 4,
                records: (0..RECORDS_PER_CHUNK as u64).map(record).collect(),
            },
            ControlMessage::ReportChunk {
                session: 7,
                chunk: 3,
                total_chunks: 4,
                records: vec![],
            },
            ControlMessage::ReportAck {
                session: 7,
                chunk: 4,
            },
            ControlMessage::EstimateRequest {
                session: 7,
                scope: EstimateScope::Session,
            },
            ControlMessage::EstimateRequest {
                session: 7,
                scope: EstimateScope::Other(0x7E),
            },
            ControlMessage::EstimateReply {
                session: 7,
                report: fleet_report(),
            },
            ControlMessage::EstimateReply {
                session: 7,
                report: EstimateReport {
                    scope: EstimateScope::Session,
                    sessions: 1,
                    estimates: Estimates::default(),
                    delay: DelaySummary::default(),
                },
            },
        ];
        for msg in messages {
            let wire = msg.encode();
            let back = ControlMessage::decode(&wire).unwrap();
            assert_eq!(back, msg);
            assert_eq!(back.session(), 7);
        }
    }

    fn all_messages() -> Vec<ControlMessage> {
        vec![
            ControlMessage::Syn {
                session: 7,
                params: params(),
            },
            ControlMessage::SynAck { session: 7 },
            ControlMessage::SynNack {
                session: 7,
                reason: RejectReason::Capacity,
            },
            ControlMessage::Heartbeat {
                session: 7,
                seq: 42,
            },
            ControlMessage::HeartbeatAck {
                session: 7,
                seq: 42,
            },
            ControlMessage::Fin {
                session: 7,
                probes_sent: 100,
                packets_sent: 300,
            },
            ControlMessage::FinAck {
                session: 7,
                total_chunks: 4,
                summary: ReportSummary {
                    packets: 298,
                    rejected: 3,
                    duplicates: 2,
                    min_raw_delay_ns: Some(-1_234_567),
                },
            },
            ControlMessage::ReportRequest {
                session: 7,
                chunk: 2,
                count: 1,
            },
            ControlMessage::ReportRequest {
                session: 7,
                chunk: u32::MAX,
                count: u16::MAX,
            },
            ControlMessage::ReportChunk {
                session: 7,
                chunk: 2,
                total_chunks: 4,
                records: (0..RECORDS_PER_CHUNK as u64).map(record).collect(),
            },
            ControlMessage::ReportChunk {
                session: 7,
                chunk: 3,
                total_chunks: 4,
                records: vec![],
            },
            ControlMessage::ReportAck {
                session: 7,
                chunk: 4,
            },
            ControlMessage::EstimateRequest {
                session: 7,
                scope: EstimateScope::Fleet,
            },
            ControlMessage::EstimateReply {
                session: 7,
                report: fleet_report(),
            },
        ]
    }

    #[test]
    fn estimate_reply_bytes_are_pinned() {
        let reply = ControlMessage::EstimateReply {
            session: 7,
            report: fleet_report(),
        };
        let expected = concat!(
            // Magic "BDC1", type 12, session 7.
            "42444331",
            "0c",
            "00000007",
            // Scope 1 (fleet), 2 048 sessions.
            "01",
            "00000800",
            // The 13 counters, M first and slot_secs (f64) last.
            "00000000000003e8",
            "0000000000000078",
            "0000000000000258",
            "0000000000000190",
            "00000000000000d2",
            "000000000000005a",
            "000000000000002c",
            "000000000000002e",
            "000000000000001e",
            "000000000000001c",
            "0000000000000009",
            "0000000000000002",
            "3f747ae147ae147b",
            // Delay samples, p50 and p99 (f64).
            "0000000000001388",
            "3f60624dd2f1a9fc",
            "3fb1eb851eb851ec",
        );
        let hex: String = reply.encode().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, expected);
    }

    #[test]
    fn encode_into_matches_allocating_encode() {
        for msg in all_messages() {
            let wire = msg.encode();
            assert_eq!(wire.len(), msg.encoded_len(), "{msg:?}");
            let mut buf = [0xAAu8; MAX_CONTROL_BYTES];
            let n = msg.encode_into(&mut buf);
            assert_eq!(&buf[..n], &wire[..], "{msg:?}");
        }
    }

    #[test]
    fn max_control_bytes_bounds_every_variant() {
        for msg in all_messages() {
            assert!(msg.encoded_len() <= MAX_CONTROL_BYTES, "{msg:?}");
        }
    }

    #[test]
    fn slice_chunk_encoding_matches_cloning_path() {
        // Satellite contract: the borrow-based chunk serializer emits
        // bytes identical to the old clone-per-window path, chunk by
        // chunk, including the empty-tail and exact-multiple cases.
        for n in [0usize, 1, 31, 32, 33, 64, 69] {
            let records: Vec<ReportRecord> = (0..n as u64).map(record).collect();
            let old = chunk_records(11, &records);
            assert_eq!(old.len() as u32, chunk_count(records.len()));
            let mut buf = [0u8; MAX_CONTROL_BYTES];
            for (i, window) in records.chunks(RECORDS_PER_CHUNK).enumerate() {
                let len = encode_report_chunk_into(
                    11,
                    i as u32,
                    chunk_count(records.len()),
                    window,
                    &mut buf,
                );
                assert_eq!(&buf[..len], &old[i].encode()[..], "chunk {i} of {n}");
            }
        }
    }

    #[test]
    fn garbage_bytes_never_panic() {
        let mut x: u64 = 0x0bad_cafe_dead_beef;
        for len in 0..(MAX_CONTROL_BYTES + 40) {
            let mut data = vec![0u8; len];
            for b in &mut data {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *b = (x >> 56) as u8;
            }
            let _ = ControlMessage::decode(&data);
            // And with a valid magic + random tag, so we exercise the
            // per-variant field parsers, not just the magic check.
            if len >= 4 {
                data[..4].copy_from_slice(&CONTROL_MAGIC.to_be_bytes());
                let _ = ControlMessage::decode(&data);
            }
        }
    }

    #[test]
    fn every_variant_truncation_errors_cleanly() {
        for msg in all_messages() {
            let wire = msg.encode();
            for len in 0..wire.len() {
                assert!(
                    ControlMessage::decode(&wire[..len]).is_err(),
                    "{msg:?} truncated to {len} bytes decoded successfully"
                );
            }
        }
    }

    #[test]
    fn oversized_datagrams_decode_ignoring_trailing_bytes() {
        // UDP can deliver padded datagrams; trailing junk after a valid
        // message must not panic and must not change the decode.
        for msg in all_messages() {
            let mut wire = msg.encode().to_vec();
            wire.extend_from_slice(&[0x5A; 64]);
            assert_eq!(ControlMessage::decode(&wire).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn chunk_count_edge_cases() {
        assert_eq!(chunk_count(0), 0);
        assert_eq!(chunk_count(1), 1);
        assert_eq!(chunk_count(RECORDS_PER_CHUNK), 1);
        assert_eq!(chunk_count(RECORDS_PER_CHUNK + 1), 2);
    }

    #[test]
    fn chunk_window_covers_the_report_exactly_once() {
        let records: Vec<ReportRecord> = (0..(2 * RECORDS_PER_CHUNK as u64 + 5))
            .map(record)
            .collect();
        let total = chunk_count(records.len());
        assert_eq!(total, 3);
        let mut rebuilt = Vec::new();
        for chunk in 0..total {
            let window = chunk_window(&records, chunk);
            assert!(window.len() <= RECORDS_PER_CHUNK);
            rebuilt.extend_from_slice(window);
        }
        assert_eq!(rebuilt, records);
        assert_eq!(chunk_window(&records, 2).len(), 5);
    }

    #[test]
    fn chunk_window_out_of_range_is_empty_not_a_panic() {
        let records: Vec<ReportRecord> = (0..3).map(record).collect();
        assert!(chunk_window(&records, 1).is_empty());
        assert!(chunk_window(&records, u32::MAX).is_empty());
        assert!(chunk_window(&[], 0).is_empty());
    }

    #[test]
    fn report_request_with_zero_count_is_rejected() {
        let wire = ControlMessage::ReportRequest {
            session: 1,
            chunk: 3,
            count: 1,
        }
        .encode();
        let mut zero = wire.to_vec();
        // The count is the last two bytes of the body.
        let n = zero.len();
        zero[n - 2..].copy_from_slice(&0u16.to_be_bytes());
        assert_eq!(ControlMessage::decode(&zero), Err(DecodeError::BadFields));
    }

    #[test]
    fn single_chunk_request_body_is_too_short() {
        // The old request form: prefix plus a bare 4-byte chunk index.
        let mut old = Vec::new();
        old.extend_from_slice(&CONTROL_MAGIC.to_be_bytes());
        old.push(TYPE_REPORT_REQUEST);
        old.extend_from_slice(&1u32.to_be_bytes());
        old.extend_from_slice(&3u32.to_be_bytes());
        assert_eq!(
            ControlMessage::decode(&old),
            Err(DecodeError::TooShort { got: old.len() })
        );
    }

    #[test]
    fn served_chunks_clip_at_the_report_and_the_window() {
        assert_eq!(served_chunks(0, 1, 10), 0..1);
        assert_eq!(served_chunks(4, 3, 10), 4..7);
        // Clipped at total_chunks.
        assert_eq!(served_chunks(8, 5, 10), 8..10);
        // Clipped at the window.
        assert_eq!(served_chunks(0, 100, 1_000), 0..REPORT_WINDOW_CHUNKS);
        assert_eq!(
            served_chunks(5, u16::MAX, 1_000),
            5..5 + REPORT_WINDOW_CHUNKS
        );
        // Past the end, before FIN (total 0), and at the index ceiling:
        // empty, never a panic.
        assert!(served_chunks(10, 4, 10).is_empty());
        assert!(served_chunks(0, 4, 0).is_empty());
        assert!(served_chunks(u32::MAX, u16::MAX, u32::MAX).is_empty());
        assert_eq!(served_chunks(u32::MAX - 1, u16::MAX, u32::MAX).len(), 1);
    }

    #[test]
    fn reject_reasons_roundtrip_distinct_codes() {
        let reasons = [
            RejectReason::Capacity,
            RejectReason::Budget,
            RejectReason::Evicted,
            RejectReason::Other(200),
        ];
        for (i, a) in reasons.iter().enumerate() {
            assert_eq!(RejectReason::from_code(a.code()), *a);
            for b in &reasons[i + 1..] {
                assert_ne!(a.code(), b.code(), "{a:?} and {b:?} share a wire code");
            }
        }
    }

    #[test]
    fn estimate_scopes_roundtrip_distinct_codes() {
        let scopes = [
            EstimateScope::Session,
            EstimateScope::Fleet,
            EstimateScope::Other(0xC3),
        ];
        for (i, a) in scopes.iter().enumerate() {
            assert_eq!(EstimateScope::from_code(a.code()), *a);
            for b in &scopes[i + 1..] {
                assert_ne!(a.code(), b.code(), "{a:?} and {b:?} share a wire code");
            }
        }
    }

    /// Version safety: a peer built before the estimate messages sees
    /// them as unknown types — a clean `UnknownType` error it already
    /// ignores — never a panic or a misparse as another variant.
    #[test]
    fn estimate_messages_look_unknown_to_old_peers() {
        for tag in [TYPE_ESTIMATE_REQUEST, TYPE_ESTIMATE_REPLY] {
            assert!(
                tag > TYPE_SYN_NACK,
                "estimate tags must extend, not reuse, the pre-existing tag space"
            );
        }
    }

    #[test]
    fn probe_and_control_magics_differ() {
        assert_ne!(CONTROL_MAGIC, crate::MAGIC);
        // A control message must not decode as a probe and vice versa.
        let ctrl = ControlMessage::SynAck { session: 1 }.encode();
        assert!(matches!(
            crate::ProbeHeader::decode(&ctrl),
            Err(DecodeError::TooShort { .. } | DecodeError::BadMagic { .. })
        ));
        let probe = crate::ProbeHeader {
            session: 1,
            experiment: 0,
            slot: 0,
            seq: 0,
            send_ns: 0,
            idx: 0,
            probe_len: 1,
        }
        .encode(600);
        assert!(matches!(
            ControlMessage::decode(&probe),
            Err(DecodeError::BadMagic { .. })
        ));
    }

    #[test]
    fn truncation_never_panics_and_always_errors() {
        let full = ControlMessage::ReportChunk {
            session: 9,
            chunk: 0,
            total_chunks: 1,
            records: (0..5).map(record).collect(),
        }
        .encode();
        for len in 0..full.len() {
            assert!(
                ControlMessage::decode(&full[..len]).is_err(),
                "truncated to {len} bytes decoded successfully"
            );
        }
        assert!(ControlMessage::decode(&full).is_ok());
    }

    #[test]
    fn unknown_type_is_rejected() {
        let mut wire = ControlMessage::SynAck { session: 3 }.encode().to_vec();
        wire[4] = 0xEE;
        assert_eq!(
            ControlMessage::decode(&wire),
            Err(DecodeError::UnknownType { got: 0xEE })
        );
    }

    #[test]
    fn syn_with_invalid_params_is_rejected() {
        let mut bad = params();
        bad.probe_packets = 0;
        let wire = ControlMessage::Syn {
            session: 1,
            params: bad,
        }
        .encode();
        assert_eq!(ControlMessage::decode(&wire), Err(DecodeError::BadFields));
        let mut bad_p = params();
        bad_p.p = 1.5;
        let wire = ControlMessage::Syn {
            session: 1,
            params: bad_p,
        }
        .encode();
        assert_eq!(ControlMessage::decode(&wire), Err(DecodeError::BadFields));
    }

    #[test]
    fn oversized_chunk_count_is_rejected() {
        let mut wire = ControlMessage::ReportChunk {
            session: 1,
            chunk: 0,
            total_chunks: 1,
            records: vec![],
        }
        .encode()
        .to_vec();
        // Patch the record count field (offset 4+1+4+4+4 = 17) to an
        // impossible value.
        wire[17] = 0xFF;
        wire[18] = 0xFF;
        assert_eq!(ControlMessage::decode(&wire), Err(DecodeError::BadFields));
    }

    #[test]
    fn chunking_covers_every_record_in_order() {
        let records: Vec<ReportRecord> = (0..(RECORDS_PER_CHUNK as u64 * 2 + 5))
            .map(record)
            .collect();
        let chunks = chunk_records(11, &records);
        assert_eq!(chunks.len(), 3);
        let mut seen = Vec::new();
        for (i, c) in chunks.iter().enumerate() {
            let ControlMessage::ReportChunk {
                session,
                chunk,
                total_chunks,
                records,
            } = c
            else {
                panic!("not a chunk");
            };
            assert_eq!(*session, 11);
            assert_eq!(*chunk, i as u32);
            assert_eq!(*total_chunks, 3);
            seen.extend_from_slice(records);
        }
        assert_eq!(seen, records);
        assert!(chunk_records(11, &[]).is_empty());
    }
}
