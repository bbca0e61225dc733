//! Whether a SYN may open a session, and what open sessions hold:
//! the `max_sessions` slot count, the capacity-based memory tally
//! against the global budget (with its reject-or-evict policy), and the
//! tombstones that let an evicted session's sender fail fast.
//!
//! Every write to the slot count and the memory tally happens here, so
//! each admission path and its undo sit side by side: a slot refused
//! for budget is handed back inside [`Admission::admit`], and both a
//! session that leaves the registry and a SYN that lost the race to
//! open its session hand back theirs through [`Admission::release`].

use super::session::SessionState;
use super::{PressurePolicy, ServerConfig, SessionEnd, Shared};
use badabing_wire::control::RejectReason;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// How many evicted session ids the tombstone ring remembers.
const TOMBSTONE_CAP: usize = 4096;

/// Recently evicted session ids, bounded: enough to answer a stale
/// sender's next control message with an explicit
/// [`RejectReason::Evicted`] NACK instead of silence, small enough to
/// never matter for the budgets it exists to serve.
#[derive(Default)]
struct Tombstones {
    order: VecDeque<u32>,
    set: HashSet<u32>,
}

/// The server's admission state, shared by every drain thread.
pub(super) struct Admission {
    max_sessions: usize,
    global_budget: Option<usize>,
    on_pressure: PressurePolicy,
    /// Open sessions across all shards.
    active: AtomicUsize,
    /// Capacity-based bytes currently settled across open sessions.
    mem_used: AtomicUsize,
    /// High-water mark of `mem_used`.
    mem_peak: AtomicUsize,
    tombstones: Mutex<Tombstones>,
}

impl Admission {
    pub(super) fn new(cfg: &ServerConfig) -> Self {
        Self {
            max_sessions: cfg.max_sessions,
            global_budget: cfg.global_budget_bytes,
            on_pressure: cfg.on_pressure,
            active: AtomicUsize::new(0),
            mem_used: AtomicUsize::new(0),
            mem_peak: AtomicUsize::new(0),
            tombstones: Mutex::new(Tombstones::default()),
        }
    }

    /// Reserve one session slot and `bytes` of global budget, or say why
    /// not. Under [`PressurePolicy::EvictIdle`] an over-budget charge
    /// calls `evict` (which sheds one session, or returns `false` when
    /// none is left) until it fits. Must be called with NO shard lock
    /// held — eviction takes them one at a time.
    pub(super) fn admit(
        &self,
        bytes: usize,
        evict: impl FnMut() -> bool,
    ) -> Result<(), RejectReason> {
        if !self.try_admit() {
            return Err(RejectReason::Capacity);
        }
        if !self.try_charge(bytes, evict) {
            self.active.fetch_sub(1, Ordering::Relaxed);
            return Err(RejectReason::Budget);
        }
        Ok(())
    }

    /// Hand back one slot and `bytes`: what a session that left the
    /// registry last settled, or what [`Admission::admit`] reserved for
    /// a SYN whose session another drain thread opened first.
    pub(super) fn release(&self, bytes: usize) {
        self.mem_used.fetch_sub(bytes, Ordering::Relaxed);
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Reserve one slot below `max_sessions`, exactly (CAS loop:
    /// concurrent SYNs on different shards cannot over-admit).
    fn try_admit(&self) -> bool {
        self.active
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.max_sessions).then_some(n + 1)
            })
            .is_ok()
    }

    /// Charge `bytes` against the global budget, evicting under
    /// [`PressurePolicy::EvictIdle`] until it fits.
    fn try_charge(&self, bytes: usize, mut evict: impl FnMut() -> bool) -> bool {
        let global = self.global_budget.unwrap_or(usize::MAX);
        loop {
            let charged =
                self.mem_used
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                        (used.saturating_add(bytes) <= global).then_some(used + bytes)
                    });
            match charged {
                Ok(used) => {
                    self.mem_peak.fetch_max(used + bytes, Ordering::Relaxed);
                    return true;
                }
                Err(_) if self.on_pressure == PressurePolicy::EvictIdle && evict() => {}
                Err(_) => return false,
            }
        }
    }

    /// Re-settle a session's capacity-based footprint against the
    /// global tally, after anything that may have grown (or shrunk) its
    /// containers.
    pub(super) fn settle(&self, state: &mut SessionState) {
        let now = state.mem_bytes();
        let before = std::mem::replace(&mut state.accounted_bytes, now);
        if now > before {
            let used = self.mem_used.fetch_add(now - before, Ordering::Relaxed) + (now - before);
            self.mem_peak.fetch_max(used, Ordering::Relaxed);
        } else if before > now {
            self.mem_used.fetch_sub(before - now, Ordering::Relaxed);
        }
    }

    /// Probe ingest can grow sessions past the global budget between
    /// sweeps (admission only gates SYNs): under
    /// [`PressurePolicy::EvictIdle`], call `evict` until back under or
    /// nothing is left to shed.
    pub(super) fn shed(&self, mut evict: impl FnMut() -> bool) {
        let (Some(global), PressurePolicy::EvictIdle) = (self.global_budget, self.on_pressure)
        else {
            return;
        };
        while self.mem_used.load(Ordering::Relaxed) > global && evict() {}
    }

    /// High-water mark of the settled memory tally.
    pub(super) fn mem_peak(&self) -> usize {
        self.mem_peak.load(Ordering::Relaxed)
    }

    /// Remember `id` as evicted, so its sender's next control message
    /// gets an explicit NACK.
    pub(super) fn tombstone(&self, id: u32) {
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
    pub(super) fn untombstone(&self, id: u32) {
        let mut t = self.tombstones.lock().expect("tombstones lock");
        if t.set.remove(&id) {
            t.order.retain(|&o| o != id);
        }
    }

    pub(super) fn is_evicted(&self, id: u32) -> bool {
        self.tombstones
            .lock()
            .expect("tombstones lock")
            .set
            .contains(&id)
    }
}

impl Shared<'_> {
    /// Evict the longest-idle open session to relieve memory pressure:
    /// it is finalized as [`SessionEnd::Evicted`] and tombstoned so its
    /// sender's next control message gets an explicit NACK. Returns
    /// `false` when the registry is empty (nothing left to shed).
    /// Shard locks are taken one at a time — never nested.
    pub(super) fn evict_oldest_idle(&self) -> bool {
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
        self.admission.tombstone(id);
        self.end_session(id, state, SessionEnd::Evicted);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::TimestampSource;
    use badabing_metrics::Histogram;
    use badabing_wire::control::SessionParams;
    use badabing_wire::ProbeHeader;
    use std::cell::Cell;

    /// (admitted sessions, settled bytes).
    fn tally(a: &Admission) -> (usize, usize) {
        (
            a.active.load(Ordering::Relaxed),
            a.mem_used.load(Ordering::Relaxed),
        )
    }

    fn admission(max_sessions: usize, global: usize, on_pressure: PressurePolicy) -> Admission {
        Admission::new(&ServerConfig {
            global_budget_bytes: Some(global),
            on_pressure,
            ..ServerConfig::any("127.0.0.1:0".parse().unwrap(), max_sessions)
        })
    }

    /// Every admission path and its undo leave the admitted count and
    /// the budget bytes at exactly zero.
    #[test]
    fn every_admission_path_returns_the_tallies_to_zero() {
        let params = SessionParams {
            n_slots: 100,
            slot_ns: 5_000_000,
            probe_packets: 1,
            packet_bytes: 64,
            p: 0.3,
            improved: false,
        };
        let budget = super::super::DEFAULT_SESSION_BUDGET_BYTES;
        let projected = SessionState::projected_bytes(&params, budget);
        let a = admission(2, 4 * projected, PressurePolicy::EvictIdle);
        let nothing_to_evict = || false;

        // Admit, settle a footprint the FIN snapshot grew, release.
        a.admit(projected, nothing_to_evict).unwrap();
        let mut state = SessionState::new(params, budget, Duration::ZERO);
        state.accounted_bytes = projected;
        for seq in 0..8u64 {
            let h = ProbeHeader {
                session: 1,
                experiment: seq,
                slot: seq,
                seq,
                send_ns: 0,
                idx: 0,
                probe_len: 1,
            };
            state.ingest(&h, Duration::from_millis(seq), TimestampSource::User);
        }
        state.finalize(0, &Histogram::latency());
        a.settle(&mut state);
        assert!(state.accounted_bytes > projected, "the snapshot grew it");
        assert_eq!(tally(&a), (1, state.accounted_bytes));
        assert_eq!(a.mem_peak(), state.accounted_bytes);
        a.release(state.accounted_bytes);
        assert_eq!(tally(&a), (0, 0));

        // A SYN that lost the race to open its session hands back its
        // reservation.
        a.admit(projected, nothing_to_evict).unwrap();
        a.release(projected);
        assert_eq!(tally(&a), (0, 0));

        // Refused: past the global budget with nothing to evict, and
        // past `max_sessions`.
        assert_eq!(
            a.admit(5 * projected, nothing_to_evict),
            Err(RejectReason::Budget)
        );
        assert_eq!(tally(&a), (0, 0));
        a.admit(projected, nothing_to_evict).unwrap();
        a.admit(projected, nothing_to_evict).unwrap();
        assert_eq!(
            a.admit(projected, nothing_to_evict),
            Err(RejectReason::Capacity)
        );
        a.release(projected);
        a.release(projected);
        assert_eq!(tally(&a), (0, 0));

        // Evicted: a charge that does not fit sheds the open session.
        a.admit(3 * projected, nothing_to_evict).unwrap();
        let evictions = Cell::new(0);
        let evict = || {
            evictions.set(evictions.get() + 1);
            a.release(3 * projected);
            true
        };
        a.admit(2 * projected, evict).unwrap();
        assert_eq!(evictions.get(), 1);
        assert_eq!(tally(&a), (1, 2 * projected));
        a.release(2 * projected);
        assert_eq!(tally(&a), (0, 0));
        assert_eq!(a.mem_peak(), 3 * projected);

        // The reject policy never evicts.
        let strict = admission(2, projected, PressurePolicy::Reject);
        let never = || -> bool { panic!("the reject policy evicted") };
        assert_eq!(
            strict.admit(2 * projected, never),
            Err(RejectReason::Budget)
        );
        assert_eq!(tally(&strict), (0, 0));
    }

    #[test]
    fn tombstones_remember_evicted_ids_until_readmitted() {
        let a = admission(1, 1, PressurePolicy::EvictIdle);
        a.tombstone(7);
        assert!(a.is_evicted(7) && !a.is_evicted(8));
        a.untombstone(7);
        assert!(!a.is_evicted(7));
        for id in 0..=TOMBSTONE_CAP as u32 {
            a.tombstone(id);
        }
        assert!(!a.is_evicted(0), "the oldest tombstone is dropped");
        assert!(a.is_evicted(TOMBSTONE_CAP as u32));
    }
}
