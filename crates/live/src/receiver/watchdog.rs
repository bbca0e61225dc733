//! The deadline-scheduled watchdog, run by drain thread 0: idle
//! reaping, per-session memory re-settlement and eviction back under
//! the global budget.

use super::{SessionEnd, Shared};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Floor between two watchdog sweeps, so clustered session deadlines
/// cannot turn the sweep into a hot spin.
const MIN_SWEEP_GAP: Duration = Duration::from_millis(5);

/// Sweep cadence when no idle timeout schedules one: sweeps still
/// re-settle per-session memory accounting and reconcile the global
/// budget, so they must keep running.
const SWEEP_FALLBACK: Duration = Duration::from_millis(200);

/// Reap sessions idle past the configured timeout without stopping the
/// loop, re-settle per-session memory accounting (ingest growth since
/// the last sweep), and — under
/// [`PressurePolicy::EvictIdle`](super::PressurePolicy::EvictIdle) —
/// evict until back under the global budget.
///
/// `next_sweep` is the absolute clock time before which nothing can
/// possibly expire: the minimum session deadline at the last sweep. At
/// fleet scale this is the difference between one registry walk per
/// deadline and one per 25 ms poll tick; it is also exactly how long
/// the epoll loop may park.
pub(super) fn maybe_sweep(shared: &Shared<'_>, next_sweep: &mut Option<Duration>) {
    let now = shared.clock.now();
    // A session opened, finalized, or closed since the deadline was
    // armed: the earliest-deadline estimate it encodes is stale, and
    // sleeping out the full fallback on it would delay the next reap by
    // up to that long. Re-arm from scratch instead.
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
            let idle = sessions.extract_if(|_, s| now.saturating_sub(s.last_activity) >= timeout);
            for (id, state) in idle {
                shared.end_session(id, state, SessionEnd::IdleTimeout);
                shared.c.idle_reaped.inc();
            }
        }
        for state in sessions.values_mut() {
            shared.admission.settle(state);
            if let Some(timeout) = timeout {
                let deadline = state.last_activity + timeout;
                earliest = Some(earliest.map_or(deadline, |e| e.min(deadline)));
            }
        }
    }
    shared.admission.shed(|| shared.evict_oldest_idle());
    let fallback = now + timeout.unwrap_or(SWEEP_FALLBACK);
    *next_sweep = Some(earliest.unwrap_or(fallback).max(now + MIN_SWEEP_GAP));
}
