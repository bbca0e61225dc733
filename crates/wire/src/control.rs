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
//!    session are idempotent: they are re-acknowledged, never refused,
//!    and never rewrite the session; the opening SYN's parameters stay.
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

use crate::{DecodeError, Reader, Writer};
use badabing_core::estimator::Estimates;
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
    fn put(&self, w: &mut Writer<'_>) {
        w.u64(self.experiment);
        w.u64(self.slot);
        w.u8(self.received);
        w.u8(self.duplicates);
        w.f64(self.qdelay_last_secs);
        w.f64(self.qdelay_max_secs);
        w.u8(self.flags);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            experiment: r.u64()?,
            slot: r.u64()?,
            received: r.u8()?,
            duplicates: r.u8()?,
            qdelay_last_secs: r.f64()?,
            qdelay_max_secs: r.f64()?,
            flags: r.u8()?,
        })
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

/// Write the mergeable §5 counters: the raw sums, not the derived
/// `F̂`/`D̂`, so any consumer can merge replies from several receivers
/// (counter addition) and derive every estimate itself, exactly as if
/// it had folded the logs locally.
fn put_estimates(e: &Estimates, w: &mut Writer<'_>) {
    w.u64(e.experiments);
    w.u64(e.z_sum);
    w.u64(e.basic_experiments);
    w.u64(e.extended_experiments);
    w.u64(e.r);
    w.u64(e.s);
    w.u64(e.n01);
    w.u64(e.n10);
    w.u64(e.u);
    w.u64(e.v);
    w.u64(e.n111);
    w.u64(e.outcomes_malformed);
    w.f64(e.slot_secs);
}

/// Read the counters [`put_estimates`] wrote, in the same order.
fn get_estimates(src: &mut Reader<'_>) -> Result<Estimates, DecodeError> {
    Ok(Estimates {
        experiments: src.u64()?,
        z_sum: src.u64()?,
        basic_experiments: src.u64()?,
        extended_experiments: src.u64()?,
        r: src.u64()?,
        s: src.u64()?,
        n01: src.u64()?,
        n10: src.u64()?,
        u: src.u64()?,
        v: src.u64()?,
        n111: src.u64()?,
        outcomes_malformed: src.u64()?,
        slot_secs: src.f64()?,
    })
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
    /// Distinct probe packets accepted: first copies only, duplicates
    /// are counted in `duplicates` instead.
    pub packets: u64,
    /// Datagrams the whole server had rejected when this session's FIN
    /// arrived (unknown session, undecodable): a rejected datagram
    /// cannot be attributed to any session.
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

    /// Encode into a datagram.
    ///
    /// Allocates the exact-size `Vec`; the zero-allocation hot path is
    /// [`ControlMessage::encode_into`], of which this is a thin wrapper.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = [0u8; MAX_CONTROL_BYTES];
        let n = self.encode_into(&mut buf);
        buf[..n].to_vec()
    }

    /// Encode into a caller-provided buffer without allocating; returns
    /// the datagram length. A buffer of [`MAX_CONTROL_BYTES`] fits every
    /// message.
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
        let mut w = Writer::new(buf);
        w.u32(CONTROL_MAGIC);
        match self {
            ControlMessage::Syn { session, params } => {
                w.u8(TYPE_SYN);
                w.u32(*session);
                w.u64(params.n_slots);
                w.u64(params.slot_ns);
                w.u8(params.probe_packets);
                w.u32(params.packet_bytes);
                w.f64(params.p);
                w.u8(u8::from(params.improved));
            }
            ControlMessage::SynAck { session } => {
                w.u8(TYPE_SYN_ACK);
                w.u32(*session);
            }
            ControlMessage::SynNack { session, reason } => {
                w.u8(TYPE_SYN_NACK);
                w.u32(*session);
                w.u8(reason.code());
            }
            ControlMessage::Heartbeat { session, seq } => {
                w.u8(TYPE_HEARTBEAT);
                w.u32(*session);
                w.u64(*seq);
            }
            ControlMessage::HeartbeatAck { session, seq } => {
                w.u8(TYPE_HEARTBEAT_ACK);
                w.u32(*session);
                w.u64(*seq);
            }
            ControlMessage::Fin {
                session,
                probes_sent,
                packets_sent,
            } => {
                w.u8(TYPE_FIN);
                w.u32(*session);
                w.u64(*probes_sent);
                w.u64(*packets_sent);
            }
            ControlMessage::FinAck {
                session,
                total_chunks,
                summary,
            } => {
                w.u8(TYPE_FIN_ACK);
                w.u32(*session);
                w.u32(*total_chunks);
                w.u64(summary.packets);
                w.u64(summary.rejected);
                w.u64(summary.duplicates);
                w.u8(u8::from(summary.min_raw_delay_ns.is_some()));
                w.i64(summary.min_raw_delay_ns.unwrap_or(0));
            }
            ControlMessage::ReportRequest {
                session,
                chunk,
                count,
            } => {
                w.u8(TYPE_REPORT_REQUEST);
                w.u32(*session);
                w.u32(*chunk);
                w.u16(*count);
            }
            ControlMessage::ReportChunk { .. } => unreachable!("handled above"),
            ControlMessage::ReportAck { session, chunk } => {
                w.u8(TYPE_REPORT_ACK);
                w.u32(*session);
                w.u32(*chunk);
            }
            ControlMessage::EstimateRequest { session, scope } => {
                w.u8(TYPE_ESTIMATE_REQUEST);
                w.u32(*session);
                w.u8(scope.code());
            }
            ControlMessage::EstimateReply { session, report } => {
                w.u8(TYPE_ESTIMATE_REPLY);
                w.u32(*session);
                w.u8(report.scope.code());
                w.u32(report.sessions);
                put_estimates(&report.estimates, &mut w);
                w.u64(report.delay.samples);
                w.f64(report.delay.p50_secs);
                w.f64(report.delay.p99_secs);
            }
        }
        w.written()
    }

    /// Decode from a received datagram.
    pub fn decode(data: &[u8]) -> Result<Self, DecodeError> {
        if data.len() < PREFIX_BYTES {
            return Err(DecodeError::TooShort { got: data.len() });
        }
        let mut r = Reader::new(data);
        let magic = r.u32()?;
        if magic != CONTROL_MAGIC {
            return Err(DecodeError::BadMagic { got: magic });
        }
        let kind = r.u8()?;
        let session = r.u32()?;
        match kind {
            TYPE_SYN => {
                let params = SessionParams {
                    n_slots: r.u64()?,
                    slot_ns: r.u64()?,
                    probe_packets: r.u8()?,
                    packet_bytes: r.u32()?,
                    p: r.f64()?,
                    improved: r.u8()? != 0,
                };
                if params.probe_packets == 0
                    || params.slot_ns == 0
                    || !(params.p > 0.0 && params.p <= 1.0)
                {
                    return Err(DecodeError::BadFields);
                }
                Ok(ControlMessage::Syn { session, params })
            }
            TYPE_SYN_ACK => Ok(ControlMessage::SynAck { session }),
            TYPE_SYN_NACK => Ok(ControlMessage::SynNack {
                session,
                reason: RejectReason::from_code(r.u8()?),
            }),
            TYPE_HEARTBEAT => Ok(ControlMessage::Heartbeat {
                session,
                seq: r.u64()?,
            }),
            TYPE_HEARTBEAT_ACK => Ok(ControlMessage::HeartbeatAck {
                session,
                seq: r.u64()?,
            }),
            TYPE_FIN => Ok(ControlMessage::Fin {
                session,
                probes_sent: r.u64()?,
                packets_sent: r.u64()?,
            }),
            TYPE_FIN_ACK => {
                let total_chunks = r.u32()?;
                let packets = r.u64()?;
                let rejected = r.u64()?;
                let duplicates = r.u64()?;
                let has_min = r.u8()? != 0;
                let min_raw = r.i64()?;
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
                let chunk = r.u32()?;
                let count = r.u16()?;
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
                let chunk = r.u32()?;
                let total_chunks = r.u32()?;
                let count = usize::from(r.u16()?);
                if count > RECORDS_PER_CHUNK {
                    return Err(DecodeError::BadFields);
                }
                let mut records = Vec::with_capacity(count);
                for _ in 0..count {
                    records.push(ReportRecord::get(&mut r)?);
                }
                Ok(ControlMessage::ReportChunk {
                    session,
                    chunk,
                    total_chunks,
                    records,
                })
            }
            TYPE_REPORT_ACK => Ok(ControlMessage::ReportAck {
                session,
                chunk: r.u32()?,
            }),
            TYPE_ESTIMATE_REQUEST => Ok(ControlMessage::EstimateRequest {
                session,
                scope: EstimateScope::from_code(r.u8()?),
            }),
            TYPE_ESTIMATE_REPLY => Ok(ControlMessage::EstimateReply {
                session,
                report: EstimateReport {
                    scope: EstimateScope::from_code(r.u8()?),
                    sessions: r.u32()?,
                    estimates: get_estimates(&mut r)?,
                    delay: DelaySummary {
                        samples: r.u64()?,
                        p50_secs: r.f64()?,
                        p99_secs: r.f64()?,
                    },
                },
            }),
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
    let mut w = Writer::new(buf);
    w.u32(CONTROL_MAGIC);
    w.u8(TYPE_REPORT_CHUNK);
    w.u32(session);
    w.u32(chunk);
    w.u32(total_chunks);
    w.u16(records.len() as u16);
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

    /// One datagram per message of [`all_messages`], byte for byte. Each
    /// entry is the leading hex and the datagram length; only the full
    /// 32-record chunk is pinned by a prefix (its first two records).
    #[test]
    fn every_variant_bytes_are_pinned() {
        let expected: [(&str, usize); 14] = [
            // Syn: n_slots, slot_ns, probe_packets, packet_bytes, p, improved.
            (
                concat!(
                    "42444331",
                    "01",
                    "00000007",
                    "000000000002bf20",
                    "00000000004c4b40",
                    "03",
                    "00000258",
                    "3fd3333333333333",
                    "01",
                ),
                39,
            ),
            ("424443310200000007", 9),
            // SynNack: reason 1 (capacity).
            ("424443310a0000000701", 10),
            // Heartbeat and its ack: seq 42.
            ("424443310300000007000000000000002a", 17),
            ("424443310400000007000000000000002a", 17),
            // Fin: probes_sent, packets_sent.
            ("4244433105000000070000000000000064000000000000012c", 25),
            // FinAck: total_chunks, packets, rejected, duplicates, has_min,
            // min_raw_delay_ns (i64).
            (
                concat!(
                    "42444331",
                    "06",
                    "00000007",
                    "00000004",
                    "000000000000012a",
                    "0000000000000003",
                    "0000000000000002",
                    "01",
                    "ffffffffffed2979",
                ),
                46,
            ),
            // ReportRequest: chunk, count.
            ("424443310700000007000000020001", 15),
            ("424443310700000007ffffffffffff", 15),
            // ReportChunk: chunk, total_chunks, record count, then records
            // of experiment, slot, received, duplicates, last and max
            // delay (f64), flags.
            (
                concat!(
                    "42444331",
                    "08",
                    "00000007",
                    "00000002",
                    "00000004",
                    "0020",
                    "0000000000000000",
                    "0000000000000000",
                    "03",
                    "00",
                    "0000000000000000",
                    "0000000000000000",
                    "00",
                    "0000000000000001",
                    "0000000000000007",
                    "03",
                    "01",
                    "3f50624dd2f1a9fc",
                    "3f60624dd2f1a9fc",
                    "01",
                ),
                19 + RECORDS_PER_CHUNK * 35,
            ),
            ("42444331080000000700000003000000040000", 19),
            // ReportAck: chunk.
            ("42444331090000000700000004", 13),
            // EstimateRequest: scope 1 (fleet).
            ("424443310b0000000701", 10),
            // EstimateReply: laid out field by field in
            // `estimate_reply_bytes_are_pinned`.
            ("424443310c000000070100000800", 142),
        ];
        let messages = all_messages();
        assert_eq!(messages.len(), expected.len());
        for (msg, (want, len)) in messages.iter().zip(expected) {
            let wire = msg.encode();
            let hex: String = wire.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(&hex[..want.len()], want, "{msg:?}");
            assert_eq!(wire.len(), len, "{msg:?}");
        }
    }

    #[test]
    fn encode_into_matches_allocating_encode() {
        for msg in all_messages() {
            let wire = msg.encode();
            let mut buf = [0xAAu8; MAX_CONTROL_BYTES];
            let n = msg.encode_into(&mut buf);
            assert_eq!(&buf[..n], &wire[..], "{msg:?}");
        }
    }

    #[test]
    fn max_control_bytes_bounds_every_variant() {
        // `encode` panics past the bound; the full chunk meets it exactly.
        let longest = all_messages().iter().map(|m| m.encode().len()).max();
        assert_eq!(longest, Some(MAX_CONTROL_BYTES));
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
                assert_eq!(
                    ControlMessage::decode(&wire[..len]),
                    Err(DecodeError::TooShort { got: len }),
                    "{msg:?} truncated to {len} bytes"
                );
            }
        }
    }

    #[test]
    fn short_datagram_with_a_foreign_magic_is_too_short() {
        // Shorter than the 9-byte prefix: the length check comes first,
        // so even a wrong magic reads as too short.
        for len in 4..9 {
            let data = vec![0xEE; len];
            assert_eq!(
                ControlMessage::decode(&data),
                Err(DecodeError::TooShort { got: len })
            );
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
        // An unknown tag with a long body is still unknown.
        wire.extend_from_slice(&[0; 64]);
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
