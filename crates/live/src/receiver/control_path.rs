//! The control slow path: every control message a drain thread decodes,
//! and its reply through the thread's reused scratch buffer (replies
//! are best-effort, like every control datagram).

use super::session::SessionState;
use super::{SessionEnd, Shared};
use crate::control::estimate_counters;
use crate::provider::Socket;
use badabing_core::estimator::Estimates;
use badabing_stats::DelaySketch;
use badabing_wire::control::{
    chunk_window, encode_report_chunk_into, ControlMessage, DelaySummary, EstimateScope,
    RejectReason, SessionParams, MAX_CONTROL_BYTES,
};
use std::collections::hash_map::{Entry, OccupiedEntry};
use std::net::SocketAddr;
use std::time::Duration;

type Scratch = [u8; MAX_CONTROL_BYTES];

/// Answer one control message from `src`, which arrived at `abs`.
pub(super) fn handle_control(
    shared: &Shared<'_>,
    msg: ControlMessage,
    src: SocketAddr,
    abs: Duration,
    scratch: &mut Scratch,
) {
    shared.c.ctrl.inc();
    let id = msg.session();
    let reply = match msg {
        ControlMessage::Syn { session, params } => {
            open_session(shared, session, params, src, abs, scratch)
                .then_some(ControlMessage::SynAck { session })
        }
        ControlMessage::Heartbeat { session, seq } => {
            with_open(shared, id, src, abs, scratch, |_, _| {
                ControlMessage::HeartbeatAck { session, seq }
            })
        }
        ControlMessage::Fin { session, .. } => {
            let ack = with_open(shared, id, src, abs, scratch, |mut e, _| {
                let state = e.get_mut();
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
                shared.admission.settle(state);
                ack
            });
            // The snapshot may have taken the tally past the global
            // budget: shed now, with the shard lock dropped.
            shared.admission.shed(|| shared.evict_oldest_idle());
            ack
        }
        ControlMessage::ReportRequest { chunk, .. } => {
            with_open(shared, id, src, abs, scratch, |e, scratch| {
                // Every request from a live session gets a deterministic
                // reply. In-range chunks are served straight from the
                // snapshot's record slice ([`chunk_window`]): no clone,
                // byte-identical on every re-request. Out-of-range chunks
                // (sender bug, corrupted index) get an *empty* chunk
                // echoing the true `total_chunks`; requests before any
                // FIN get one with `total_chunks: 0`. Silence in either
                // case would leave the sender burning its full
                // retry/backoff schedule per chunk before concluding
                // anything.
                let (total, window) = match &e.get().finalized {
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
            });
            None
        }
        ControlMessage::ReportAck { chunk, .. } => {
            // The sender holds the full report: reap the session. Other
            // sessions keep flowing.
            let completed = with_open(shared, id, src, abs, scratch, |e, _| {
                let f = e.get().finalized.as_ref();
                f.is_some_and(|f| chunk >= f.total_chunks())
                    .then(|| e.remove())
            });
            if let Some(Some(state)) = completed {
                shared.end_session(id, state, SessionEnd::Completed);
            }
            None
        }
        ControlMessage::EstimateRequest { session, scope } => match scope {
            EstimateScope::Session => with_open(shared, id, src, abs, scratch, |e, _| {
                let state = e.get();
                estimate_reply(session, scope, 1, &state.online, &state.delay_sketch)
            }),
            EstimateScope::Fleet => {
                let (sessions_merged, est, sketch) = shared.fleet_estimate();
                Some(estimate_reply(
                    session,
                    scope,
                    sessions_merged,
                    &est,
                    &sketch,
                ))
            }
            // A scope from a newer peer: stay silent rather than answer
            // with the wrong population and let it mis-merge.
            EstimateScope::Other(_) => None,
        },
        // Receiver-emitted messages arriving here are stray
        // reflections; ignore them.
        ControlMessage::SynAck { .. }
        | ControlMessage::SynNack { .. }
        | ControlMessage::HeartbeatAck { .. }
        | ControlMessage::FinAck { .. }
        | ControlMessage::ReportChunk { .. }
        | ControlMessage::EstimateReply { .. } => None,
    };
    if let Some(reply) = reply {
        send_reply(shared.socket, &reply, src, scratch);
    }
}

/// A SYN: admit a new session, or refresh an open one. Returns whether
/// the session is open (and the SYN is to be acked); a refused SYN has
/// already been answered with its NACK.
fn open_session(
    shared: &Shared<'_>,
    session: u32,
    params: SessionParams,
    src: SocketAddr,
    abs: Duration,
    scratch: &mut Scratch,
) -> bool {
    // A SYN for an open session (a retransmit, or a SYN racing the
    // sender's own) refreshes its idle deadline and is re-acked without
    // touching admission. It never rewrites the session: the opening
    // SYN's params sized it and seeded its online estimate.
    if let Some(state) = shared
        .shard_for(session)
        .lock()
        .expect("shard lock")
        .get_mut(&session)
    {
        state.last_activity = abs;
        return true;
    }
    // New session: admission below the registry cap, then below the
    // global memory budget — both checked with NO shard lock held, so
    // the eviction path can walk the shards without nesting locks. The
    // budget charge uses the SYN's budget-capped projected reservation,
    // so a fleet of hostile SYNs cannot over-commit memory that is only
    // allocated a moment later.
    let budget = shared.cfg.session_budget_bytes;
    let projected = SessionState::projected_bytes(&params, budget);
    if let Err(reason) = shared
        .admission
        .admit(projected, || shared.evict_oldest_idle())
    {
        shared.c.syn_rejected.inc();
        if reason == RejectReason::Budget {
            shared.c.budget_rejected.inc();
        }
        let nack = ControlMessage::SynNack { session, reason };
        send_reply(shared.socket, &nack, src, scratch);
        return false;
    }
    // Concurrent SYNs for the same id lock the same shard, so the
    // entry-API race handling below settles them.
    let mut sessions = shared.shard_for(session).lock().expect("shard lock");
    match sessions.entry(session) {
        Entry::Occupied(mut e) => {
            // Lost a race with this same session's SYN on another drain
            // thread: hand back the slot and the charge, then refresh
            // like a retransmit.
            shared.admission.release(projected);
            e.get_mut().last_activity = abs;
        }
        Entry::Vacant(e) => {
            shared.c.opened.inc();
            // The SYN announces the run size: the session is pre-sized
            // from it, so the hot path never reallocates mid-run.
            let state = e.insert(SessionState::new(params, budget, abs));
            // The admission charge holds `projected`; settle to the
            // actual capacity-based figure.
            state.accounted_bytes = projected;
            shared.admission.settle(state);
        }
    }
    drop(sessions);
    shared.admission.untombstone(session);
    // Settling the actual footprint may have crossed the global budget:
    // shed now, with the shard lock dropped.
    shared.admission.shed(|| shared.evict_oldest_idle());
    true
}

/// Run `f` on open session `id` under its shard lock, after refreshing
/// its idle deadline. A control message for a session that is not open
/// is a stale retransmit from one already ended: it is counted as
/// `control_stale` and gets no reply (the sender's own timeouts then
/// conclude), except that an evicted session's sender is told so.
fn with_open<R>(
    shared: &Shared<'_>,
    id: u32,
    src: SocketAddr,
    abs: Duration,
    scratch: &mut Scratch,
    f: impl FnOnce(OccupiedEntry<'_, u32, SessionState>, &mut Scratch) -> R,
) -> Option<R> {
    let mut sessions = shared.shard_for(id).lock().expect("shard lock");
    if let Entry::Occupied(mut e) = sessions.entry(id) {
        e.get_mut().last_activity = abs;
        return Some(f(e, scratch));
    }
    drop(sessions);
    reply_if_evicted(shared, id, src, scratch);
    shared.c.stale.inc();
    None
}

/// If `id` was evicted, answer its stale control message with an
/// explicit [`RejectReason::Evicted`] NACK so the far sender fails fast
/// instead of burning its whole retry schedule.
fn reply_if_evicted(shared: &Shared<'_>, id: u32, src: SocketAddr, scratch: &mut Scratch) {
    if shared.admission.is_evicted(id) {
        let nack = ControlMessage::SynNack {
            session: id,
            reason: RejectReason::Evicted,
        };
        send_reply(shared.socket, &nack, src, scratch);
    }
}

/// Encode a reply into the reused scratch buffer and send it.
fn send_reply(socket: &Socket, msg: &ControlMessage, src: SocketAddr, scratch: &mut Scratch) {
    let n = msg.encode_into(scratch);
    let _ = socket.send_to(&scratch[..n], src);
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
