//! The deadline-scheduled watchdog, run by drain thread 0: idle
//! reaping, per-session memory re-settlement and eviction back under
//! the global budget.
//!
//! Its deadline is a lower bound on every open session's idle deadline,
//! so nothing else has to re-arm it: deadlines only move later, and a
//! session opened after a sweep idles out no earlier than the deadline
//! that sweep armed. A reap therefore never lands before its deadline,
//! and lands late by at most `MIN_SWEEP_GAP` or one receive wait (one
//! batch, or one poll interval on the timeout loop). The two paths that
//! settle a larger footprint between sweeps, SYN and FIN, shed back
//! under the global budget themselves.

use super::{SessionEnd, Shared};
use std::time::Duration;

/// Floor between two watchdog sweeps, so clustered session deadlines
/// cannot turn the sweep into a hot spin.
const MIN_SWEEP_GAP: Duration = Duration::from_millis(5);

/// Sweep cadence when no idle timeout schedules one: sweeps still
/// re-settle per-session memory accounting and reconcile the global
/// budget, so they must keep running.
const SWEEP_FALLBACK: Duration = Duration::from_millis(200);

/// Once `next_sweep` is due: reap sessions idle past the configured
/// timeout without stopping the loop, re-settle per-session memory
/// accounting (ingest growth since the last sweep), and — under
/// [`PressurePolicy::EvictIdle`](super::PressurePolicy::EvictIdle) —
/// evict until back under the global budget.
///
/// Idle sessions leave their shard under its lock and are finalized
/// after every lock is dropped, so the skew fit and record assembly
/// never stall a probe path. `next_sweep` is then re-armed to the
/// earliest deadline still open; at fleet scale this is the difference
/// between one registry walk per deadline and one per 25 ms receive
/// timeout; a wakeup before it does no registry work.
pub(super) fn maybe_sweep(shared: &Shared<'_>, next_sweep: &mut Option<Duration>) {
    let now = shared.clock.now();
    if next_sweep.is_some_and(|due| now < due) {
        return;
    }
    let timeout = shared.cfg.idle_timeout;
    let mut earliest: Option<Duration> = None;
    let mut idle = Vec::new();
    for shard in &shared.shards {
        let mut sessions = shard.lock().expect("shard lock");
        if let Some(timeout) = timeout {
            idle.extend(sessions.extract_if(|_, s| now.saturating_sub(s.last_activity) >= timeout));
        }
        for state in sessions.values_mut() {
            shared.admission.settle(state);
            if let Some(timeout) = timeout {
                let deadline = state.last_activity + timeout;
                earliest = Some(earliest.map_or(deadline, |e| e.min(deadline)));
            }
        }
    }
    for (id, state) in idle {
        shared.end_session(id, state, SessionEnd::IdleTimeout);
    }
    shared.admission.shed(|| shared.evict_oldest_idle());
    let fallback = now + timeout.unwrap_or(SWEEP_FALLBACK);
    *next_sweep = Some(earliest.unwrap_or(fallback).max(now + MIN_SWEEP_GAP));
}
