//! The event queue.
//!
//! Two event kinds suffice for the whole system: a packet delivery to a node
//! and a node-local timer. Ties in firing time are broken by insertion
//! sequence number, which makes runs deterministic and preserves the
//! intuitive "FIFO among simultaneous events" semantics that the
//! store-and-forward queue relies on.
//!
//! ## Engine
//!
//! The queue is a calendar queue (Brown 1988) / two-level hierarchical
//! timer wheel (Varghese–Lauck 1987) keyed directly on `SimTime`
//! nanoseconds: a fine ring of `FINE_BUCKETS` buckets of
//! `1 << FINE_SHIFT` ns each (≈67 ms of virtual time), a coarse ring of
//! one-fine-window epochs spanning ≈69 s, occupancy bitmaps for
//! constant-time advance, and a min-heap overflow beyond the coarse
//! window. Pushes within the windows are `O(1)`; dispatch drains a span
//! of consecutive buckets into a sorted front stack, so pops are
//! `Vec::pop` with an amortized `O(log k)` sort per event, and
//! short-delay pushes insert directly into the small, cache-resident
//! front.
//!
//! Dispatch order is ascending `(time, insertion-seq)`, a total order
//! because `seq` is unique. The calendar queue does not rely on bucket
//! insertion order: it selects the bucket minimum by key. Debug builds
//! check this on every operation against a reference `BinaryHeap`
//! oracle (see [`EventQueue`]), so every simulation `cargo test` runs
//! doubles as a differential test of the dispatch order; release builds
//! carry only the calendar queue.

use crate::node::NodeId;
use crate::packet::Packet;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event to be dispatched to a node.
#[derive(Debug, Clone)]
pub enum Event {
    /// Deliver a packet to the node.
    Deliver(Packet),
    /// Fire a node-defined timer carrying an opaque token.
    Timer(u64),
}

/// Firing time of a packed `(at, seq)` key.
fn key_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

#[derive(Debug)]
struct Scheduled {
    /// Packed sort key: firing time (u64 nanoseconds) in the high word,
    /// insertion sequence in the low. One wide integer compare orders by
    /// `(at, seq)`, and `key >> (64 + FINE_SHIFT)` is the virtual
    /// bucket in a single shift.
    key: u128,
    target: NodeId,
    event: Event,
}

impl Scheduled {
    fn new(at: SimTime, seq: u64, target: NodeId, event: Event) -> Self {
        Self {
            key: ((at.as_nanos() as u128) << 64) | seq as u128,
            target,
            event,
        }
    }

    fn at(&self) -> SimTime {
        key_time(self.key)
    }
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first. `seq` is
        // unique, so key order is exactly `(at, seq)` lexicographic.
        other.key.cmp(&self.key)
    }
}

/// log2 of the fine bucket width in nanoseconds: 2^15 ns ≈ 32.8 µs —
/// the order of the typical inter-event spacing under load (thousands
/// of pending events spread over an RTT of tens of milliseconds), so
/// fine buckets hold a few events each: narrow enough that the front
/// sort stays in its cheap regime, wide enough that sparse workloads
/// do not pay a bitmap scan per event.
const FINE_SHIFT: u32 = 15;
/// Fine ring size; spans 2^26 ns ≈ 67 ms of virtual time — wider than
/// the simulated RTTs, so acks and retransmit timers land directly in
/// the fine ring instead of cascading through the coarse ring.
const FINE_BUCKETS: usize = 1 << 11;
const FINE_WORDS: usize = FINE_BUCKETS / 64;
/// Shift from a fine virtual bucket to its coarse epoch: one coarse
/// bucket holds exactly one fine window (2^26 ns ≈ 67 ms), so a
/// cascaded coarse bucket always fits the fine ring.
const EPOCH_SHIFT: u32 = 11;
/// Coarse ring size; spans 2^36 ns ≈ 68.7 s of virtual time. Timers
/// beyond that (rare: nothing in the simulator schedules minutes out)
/// wait in the `far` heap.
const COARSE_BUCKETS: usize = 1 << 10;
const COARSE_WORDS: usize = COARSE_BUCKETS / 64;
/// Preparing the front drains consecutive occupied fine buckets until it
/// holds at least this many events (or the epoch ends). A span keeps the
/// amortized prepare cost per pop low even when buckets hold a single
/// event each (sparse workloads), while dense buckets reach the target
/// in one swap.
const FRONT_TARGET: usize = 16;

/// Two-level calendar queue (a Varghese–Lauck hierarchical timer wheel
/// with an exact dispatch order). Invariants:
///
/// * the current front **span** — the contents of one or more
///   consecutive fine buckets — lives outside the rings in the `front`
///   stack, sorted **descending** by `(at, seq)`: the queue minimum is
///   `front.last()` and popping it is `Vec::pop`. While `front` is
///   non-empty it holds every pending item before `front_hi`:
///   preparing it advanced the fine cursor past the span and cascaded
///   every coarse/far item due inside it, so all ring/far items sort
///   strictly after the span, and pushes into the span insert into
///   `front` directly;
/// * every fine-ring item has virtual bucket `vb = at >> FINE_SHIFT` in
///   `[cursor_vb, cursor_vb + FINE_BUCKETS)`; every coarse-ring item
///   has epoch `e = vb >> EPOCH_SHIFT` in `[cursor epoch,
///   (cursor_vb >> EPOCH_SHIFT) + COARSE_BUCKETS)`. Ring indices `vb % ring len`
///   are therefore unique per virtual bucket, and circular bitmap scans
///   from the cursor visit buckets in ascending time order;
/// * `cursor_vb` (a fine virtual bucket) never exceeds the virtual
///   bucket of any pending item; it advances only when a new front
///   bucket is prepared;
/// * `far` holds items beyond the coarse window until the window
///   reaches them.
///
/// An event is touched O(1) times outside the front sort: push into its
/// level, at most one cascade from `far` to coarse, one from coarse to
/// fine, and one move into `front`. The front sort is amortized
/// `O(log k)` per event for a k-event span, and k stays near
/// [`FRONT_TARGET`] by construction.
#[derive(Debug)]
struct CalendarQueue {
    /// Current front span, sorted descending by key; the queue minimum
    /// is its last element.
    front: Vec<Scheduled>,
    /// Exclusive upper fine virtual bucket of the span drained into
    /// `front` (meaningful only while `front` is non-empty): every ring
    /// or far item has virtual bucket at or after this.
    front_hi: u64,
    fine: Vec<Vec<Scheduled>>,
    fine_bitmap: [u64; FINE_WORDS],
    /// Items in fine buckets (excludes `front`, coarse and `far`).
    fine_len: usize,
    coarse: Vec<Vec<Scheduled>>,
    coarse_bitmap: [u64; COARSE_WORDS],
    coarse_len: usize,
    cursor_vb: u64,
    far: BinaryHeap<Scheduled>,
}

impl CalendarQueue {
    fn new() -> Self {
        Self {
            front: Vec::new(),
            front_hi: 0,
            fine: std::iter::repeat_with(Vec::new)
                .take(FINE_BUCKETS)
                .collect(),
            fine_bitmap: [0; FINE_WORDS],
            fine_len: 0,
            coarse: std::iter::repeat_with(Vec::new)
                .take(COARSE_BUCKETS)
                .collect(),
            coarse_bitmap: [0; COARSE_WORDS],
            coarse_len: 0,
            cursor_vb: 0,
            far: BinaryHeap::new(),
        }
    }

    /// Fine virtual bucket of a packed key: the firing time divided by
    /// the fine bucket width, in one shift.
    fn vb_of(key: u128) -> u64 {
        (key >> (64 + FINE_SHIFT)) as u64
    }

    fn push(&mut self, s: Scheduled) {
        let vb = Self::vb_of(s.key);
        if !self.front.is_empty() && vb < self.front_hi {
            // The push lands inside the active front span, which is kept
            // sorted (descending): insert in place. Short reschedules —
            // the bulk of a simulation's pushes — take this L1-resident
            // path and never touch the rings.
            let pos = self.front.partition_point(|x| x.key > s.key);
            self.front.insert(pos, s);
            return;
        }
        // Clamp into the cursor bucket if something schedules before the
        // cursor (cannot happen through the engine, which never schedules
        // into the past; harmless if it does — the clamp lands it in the
        // first-scanned bucket, and selection is by key, so order is
        // preserved).
        let vb = vb.max(self.cursor_vb);
        if vb - self.cursor_vb < FINE_BUCKETS as u64 {
            let b = (vb % FINE_BUCKETS as u64) as usize;
            if self.fine[b].is_empty() {
                self.fine_bitmap[b / 64] |= 1 << (b % 64);
            }
            self.fine[b].push(s);
            self.fine_len += 1;
            return;
        }
        let epoch = vb >> EPOCH_SHIFT;
        if epoch - (self.cursor_vb >> EPOCH_SHIFT) < COARSE_BUCKETS as u64 {
            let b = (epoch % COARSE_BUCKETS as u64) as usize;
            if self.coarse[b].is_empty() {
                self.coarse_bitmap[b / 64] |= 1 << (b % 64);
            }
            self.coarse[b].push(s);
            self.coarse_len += 1;
            return;
        }
        self.far.push(s);
    }

    /// First occupied index of `bitmap` at or circularly after `start`.
    fn next_occupied(bitmap: &[u64], start: usize) -> Option<usize> {
        let words = bitmap.len();
        let sw = start / 64;
        let sb = start % 64;
        let w = bitmap[sw] & (!0u64 << sb);
        if w != 0 {
            return Some(sw * 64 + w.trailing_zeros() as usize);
        }
        for k in 1..words {
            let i = (sw + k) % words;
            let w = bitmap[i];
            if w != 0 {
                return Some(i * 64 + w.trailing_zeros() as usize);
            }
        }
        let w = bitmap[sw] & !(!0u64 << sb);
        if w != 0 {
            return Some(sw * 64 + w.trailing_zeros() as usize);
        }
        None
    }

    /// Whether the coarse ring has an occupied epoch in `[cursor epoch,
    /// bound_epoch]`. The span is at most one fine window = one epoch
    /// wide, so this checks at most two bits.
    fn coarse_due(&self, bound_epoch: u64) -> Option<u64> {
        if self.coarse_len == 0 {
            return None;
        }
        let mut e = self.cursor_vb >> EPOCH_SHIFT;
        while e <= bound_epoch {
            let b = (e % COARSE_BUCKETS as u64) as usize;
            if self.coarse_bitmap[b / 64] & (1 << (b % 64)) != 0 {
                return Some(e);
            }
            e += 1;
        }
        None
    }

    /// Empty coarse epoch `e` into the fine ring (each item lands in its
    /// exact fine bucket — one epoch spans exactly one fine window).
    fn cascade_epoch(&mut self, e: u64) {
        let b = (e % COARSE_BUCKETS as u64) as usize;
        self.coarse_bitmap[b / 64] &= !(1 << (b % 64));
        let mut items = std::mem::take(&mut self.coarse[b]);
        self.coarse_len -= items.len();
        self.cursor_vb = self.cursor_vb.max(e << EPOCH_SHIFT);
        for s in items.drain(..) {
            self.push(s);
        }
        // Park the emptied allocation back in the slot for reuse.
        self.coarse[b] = items;
    }

    /// Pull every `far` item whose epoch has come inside the coarse
    /// window into the rings. The far heap is a min-heap on `(at, seq)`,
    /// so the loop stops at the first survivor.
    fn migrate_due_far(&mut self) {
        let cursor_epoch = self.cursor_vb >> EPOCH_SHIFT;
        while let Some(o) = self.far.peek() {
            let epoch = (Self::vb_of(o.key) >> EPOCH_SHIFT).max(cursor_epoch);
            if epoch - cursor_epoch >= COARSE_BUCKETS as u64 {
                break;
            }
            let s = self.far.pop().unwrap();
            self.push(s);
        }
    }

    /// Refill the (empty) `front` stack with the earliest pending
    /// bucket: cascade due coarse epochs and far items, scan the fine
    /// bitmap, swap the winning bucket's contents out of the ring, sort
    /// them descending. Runs once per bucket, not per pop. Returns
    /// `false` if nothing is pending anywhere.
    fn prepare_front(&mut self) -> bool {
        debug_assert!(self.front.is_empty());
        loop {
            if self.fine_len == 0 {
                if self.coarse_len > 0 {
                    // Map the first occupied slot at or circularly after
                    // the cursor's slot back to its epoch: it lies within
                    // one coarse window of the cursor epoch.
                    let cursor_epoch = self.cursor_vb >> EPOCH_SHIFT;
                    let cursor_slot = cursor_epoch % COARSE_BUCKETS as u64;
                    let slot = Self::next_occupied(&self.coarse_bitmap, cursor_slot as usize)
                        .expect("coarse items but bitmap empty")
                        as u64;
                    let delta =
                        (slot + COARSE_BUCKETS as u64 - cursor_slot) % COARSE_BUCKETS as u64;
                    self.cascade_epoch(cursor_epoch + delta);
                    continue;
                }
                if self.far.is_empty() {
                    return false;
                }
                // Jump the cursor straight to the far top so the
                // migration lands its whole leading window.
                let key = self.far.peek().unwrap().key;
                self.cursor_vb = self.cursor_vb.max(Self::vb_of(key));
                self.migrate_due_far();
                continue;
            }
            let b = Self::next_occupied(
                &self.fine_bitmap,
                (self.cursor_vb % FINE_BUCKETS as u64) as usize,
            )
            .expect("fine items but bitmap empty");
            // The slot's virtual bucket: every item in it shares one vb,
            // except cursor-clamped strays, which share the cursor slot —
            // either way `vb` of any element identifies the slot's epoch.
            let vb = Self::vb_of(self.fine[b][0].key).max(self.cursor_vb);
            // Order guard: a coarse epoch (or far item) could still hold
            // events at or before this candidate — at most the cursor's
            // epoch and the next, since the fine window spans one epoch.
            if let Some(e) = self.coarse_due(vb >> EPOCH_SHIFT) {
                self.cascade_epoch(e);
                continue;
            }
            if let Some(o) = self.far.peek() {
                if Self::vb_of(o.key) >> EPOCH_SHIFT <= vb >> EPOCH_SHIFT {
                    self.migrate_due_far();
                    continue;
                }
            }
            // Candidate confirmed. The old front Vec (empty, with
            // capacity) parks in the ring slot for reuse; the bucket's
            // items seed the new front.
            std::mem::swap(&mut self.front, &mut self.fine[b]);
            self.fine_len -= self.front.len();
            self.fine_bitmap[b / 64] &= !(1 << (b % 64));
            // Extend the span over consecutive occupied buckets until it
            // holds FRONT_TARGET events. The guards above cleared every
            // coarse epoch and far item at or before this epoch, so any
            // fine bucket still inside it may be drained without another
            // guard check; the epoch boundary is the stopping point.
            let epoch_end = ((vb >> EPOCH_SHIFT) + 1) << EPOCH_SHIFT;
            let mut vb_last = vb;
            while self.front.len() < FRONT_TARGET && self.fine_len > 0 {
                let nb = match Self::next_occupied(
                    &self.fine_bitmap,
                    ((vb_last + 1) % FINE_BUCKETS as u64) as usize,
                ) {
                    Some(nb) => nb,
                    None => break,
                };
                let nvb = Self::vb_of(self.fine[nb][0].key).max(vb_last + 1);
                if nvb >= epoch_end {
                    break;
                }
                let mut items = std::mem::take(&mut self.fine[nb]);
                self.fine_len -= items.len();
                self.fine_bitmap[nb / 64] &= !(1 << (nb % 64));
                self.front.append(&mut items);
                self.fine[nb] = items;
                vb_last = nvb;
            }
            self.front
                .sort_unstable_by_key(|x| std::cmp::Reverse(x.key));
            self.front_hi = vb_last + 1;
            // Every bucket before the span's end is drained and every
            // coarse/far item lies beyond it, so the cursor may advance
            // past the whole span; pushes from here on either land in
            // the active front (before `front_hi`) or at/after the
            // cursor.
            self.cursor_vb = self.front_hi;
            return true;
        }
    }

    fn pop(&mut self) -> Option<Scheduled> {
        if let Some(s) = self.front.pop() {
            return Some(s);
        }
        if !self.prepare_front() {
            return None;
        }
        self.front.pop()
    }

    /// Pop the front only if it fires at or before `t_end`.
    fn pop_at_or_before(&mut self, t_end: SimTime) -> Option<Scheduled> {
        if self.front.is_empty() && !self.prepare_front() {
            return None;
        }
        let last = self.front.last().expect("prepared front is non-empty");
        if last.at() <= t_end {
            self.front.pop()
        } else {
            None
        }
    }

    /// Front firing time without mutating (for the immutable peek):
    /// takes the minimum over the sorted front, the first occupied fine
    /// bucket, the first occupied coarse epoch and the far top —
    /// `O(first bucket)`, but peeks are off the dispatch fast path.
    fn peek_time(&self) -> Option<SimTime> {
        if let Some(s) = self.front.last() {
            return Some(s.at());
        }
        let fine_key = if self.fine_len == 0 {
            None
        } else {
            let b = Self::next_occupied(
                &self.fine_bitmap,
                (self.cursor_vb % FINE_BUCKETS as u64) as usize,
            )
            .expect("fine items but bitmap empty");
            self.fine[b].iter().map(|s| s.key).min()
        };
        let coarse_key = if self.coarse_len == 0 {
            None
        } else {
            let b = Self::next_occupied(
                &self.coarse_bitmap,
                ((self.cursor_vb >> EPOCH_SHIFT) % COARSE_BUCKETS as u64) as usize,
            )
            .expect("coarse items but bitmap empty");
            self.coarse[b].iter().map(|s| s.key).min()
        };
        let far_key = self.far.peek().map(|o| o.key);
        [fine_key, coarse_key, far_key]
            .into_iter()
            .flatten()
            .min()
            .map(key_time)
    }

    fn len(&self) -> usize {
        self.front.len() + self.fine_len + self.coarse_len + self.far.len()
    }
}

/// Priority queue of scheduled events, earliest first, FIFO among ties.
///
/// Backed by the calendar queue alone in release builds. Debug builds
/// also keep the reference oracle: a `BinaryHeap` of every pending
/// event's `(key, target)`, without the payload. `push`, `pop`,
/// `pop_at_or_before`, `peek_time` and `len` each assert that the
/// calendar queue agrees with it.
#[derive(Debug)]
pub struct EventQueue {
    cal: CalendarQueue,
    next_seq: u64,
    #[cfg(debug_assertions)]
    oracle: BinaryHeap<std::cmp::Reverse<(u128, NodeId)>>,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            cal: CalendarQueue::new(),
            next_seq: 0,
            #[cfg(debug_assertions)]
            oracle: BinaryHeap::new(),
        }
    }

    /// Schedule `event` for `target` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, target: NodeId, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let s = Scheduled::new(at, seq, target, event);
        #[cfg(debug_assertions)]
        self.oracle.push(std::cmp::Reverse((s.key, target)));
        self.cal.push(s);
        #[cfg(debug_assertions)]
        assert_eq!(
            self.cal.len(),
            self.oracle.len(),
            "oracle length after push"
        );
    }

    /// Remove and return the earliest event as `(time, target, event)`.
    pub fn pop(&mut self) -> Option<(SimTime, NodeId, Event)> {
        let s = self.cal.pop();
        #[cfg(debug_assertions)]
        self.check_pop(s.as_ref(), None);
        s.map(|s| (s.at(), s.target, s.event))
    }

    /// Remove and return the earliest event if it fires at or before
    /// `t_end`; otherwise leave the queue untouched. One front lookup
    /// instead of a peek-then-pop pair — the dispatch loop's fast path.
    pub fn pop_at_or_before(&mut self, t_end: SimTime) -> Option<(SimTime, NodeId, Event)> {
        let s = self.cal.pop_at_or_before(t_end);
        #[cfg(debug_assertions)]
        self.check_pop(s.as_ref(), Some(t_end));
        s.map(|s| (s.at(), s.target, s.event))
    }

    /// The oracle's side of a pop: its minimum (if due by `bound`) must
    /// be exactly what the calendar queue returned, and leaves the
    /// oracle only when the calendar queue popped it.
    #[cfg(debug_assertions)]
    fn check_pop(&mut self, got: Option<&Scheduled>, bound: Option<SimTime>) {
        let want = self
            .oracle
            .peek()
            .map(|r| r.0)
            .filter(|&(key, _)| bound.is_none_or(|t| key_time(key) <= t));
        assert_eq!(
            got.map(|s| (s.key, s.target)),
            want,
            "calendar queue diverged from the heap oracle"
        );
        if want.is_some() {
            self.oracle.pop();
        }
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let t = self.cal.peek_time();
        #[cfg(debug_assertions)]
        assert_eq!(
            t,
            self.oracle.peek().map(|r| key_time(r.0 .0)),
            "peek_time diverged from the heap oracle"
        );
        t
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        let n = self.cal.len();
        #[cfg(debug_assertions)]
        assert_eq!(n, self.oracle.len(), "len diverged from the heap oracle");
        n
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;

    fn timer_at(q: &mut EventQueue, ns: u64, node: usize, token: u64) {
        q.push(SimTime::from_nanos(ns), NodeId(node), Event::Timer(token));
    }

    fn drain_tokens(q: &mut EventQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop())
            .map(|(_, _, e)| match e {
                Event::Timer(t) => t,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        timer_at(&mut q, 30, 0, 3);
        timer_at(&mut q, 10, 0, 1);
        timer_at(&mut q, 20, 0, 2);
        assert_eq!(drain_tokens(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for token in 0..100 {
            timer_at(&mut q, 5, 0, token);
        }
        assert_eq!(drain_tokens(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        timer_at(&mut q, 42, 1, 0);
        timer_at(&mut q, 7, 2, 0);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(42)));
    }

    #[test]
    fn targets_are_preserved() {
        let mut q = EventQueue::new();
        timer_at(&mut q, 1, 9, 0);
        let (_, target, _) = q.pop().unwrap();
        assert_eq!(target, NodeId(9));
    }

    #[test]
    fn pop_at_or_before_respects_the_bound() {
        let mut q = EventQueue::new();
        timer_at(&mut q, 100, 0, 1);
        timer_at(&mut q, 200, 0, 2);
        assert!(q.pop_at_or_before(SimTime::from_nanos(50)).is_none());
        assert_eq!(q.len(), 2, "a refused pop must not remove");
        let (at, _, _) = q.pop_at_or_before(SimTime::from_nanos(100)).unwrap();
        assert_eq!(at, SimTime::from_nanos(100));
        assert!(q.pop_at_or_before(SimTime::from_nanos(150)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn far_future_events_take_the_overflow_path_and_still_order() {
        // Mix events inside the fine window (< 67 ms) with seconds-away
        // timers (coarse ring), interleaving pushes and pops.
        let mut q = EventQueue::new();
        timer_at(&mut q, 5_000_000_000, 0, 50); // 5 s — overflow
        timer_at(&mut q, 1_000, 0, 1);
        timer_at(&mut q, 2_000_000_000, 0, 20); // 2 s — overflow
        timer_at(&mut q, 2_000, 0, 2);
        assert_eq!(q.len(), 4);
        let (at, _, _) = q.pop().unwrap();
        assert_eq!(at, SimTime::from_nanos(1_000));
        // After popping, push something between the overflow items: the
        // window has not advanced that far, so it also overflows.
        timer_at(&mut q, 3_000_000_000, 0, 30);
        assert_eq!(drain_tokens(&mut q), vec![2, 20, 30, 50]);
    }

    #[test]
    fn overflow_and_ring_ties_keep_insertion_order() {
        // An overflow item and a ring item at the same instant: the one
        // pushed first must pop first, across the structural boundary.
        let mut q = EventQueue::new();
        timer_at(&mut q, 200_000_000, 0, 1); // 200 ms: overflow at push time
        timer_at(&mut q, 1, 0, 0);
        // Drain to 150 ms so the window now covers 200 ms.
        let (_, _, _) = q.pop().unwrap();
        timer_at(&mut q, 150_000_000, 0, 2);
        let (_, _, _) = q.pop().unwrap();
        // Now a ring push at the very same time as the overflow item,
        // inserted later → must pop after it.
        timer_at(&mut q, 200_000_000, 0, 3);
        assert_eq!(drain_tokens(&mut q), vec![1, 3]);
    }

    #[test]
    fn engines_agree_on_a_randomized_workload() {
        // The calendar queue in lockstep with a plain `BinaryHeap` on
        // `(at, token, node)`: tokens are issued in push order, so heap
        // order is exactly `(at, seq)`. Deterministic LCG; interleaved
        // pushes and pops with clustered times (ties), window-local
        // times, and far-future overflow times.
        let mut heap = BinaryHeap::new();
        let mut cal = EventQueue::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let pop_both = |heap: &mut BinaryHeap<Reverse<(u64, u64, usize)>>, cal: &mut EventQueue| {
            let a = heap.pop().map(|Reverse(x)| x);
            let b = cal.pop().map(|(t, n, e)| match e {
                Event::Timer(k) => (t.as_nanos(), k, n.0),
                _ => unreachable!(),
            });
            assert_eq!(a, b, "engines disagree");
            a
        };
        let mut now = 0u64;
        let mut token = 0u64;
        for round in 0..2_000 {
            let r = rng();
            if r % 3 != 0 {
                // Push at now + jitter; every ~20th lands seconds away.
                let horizon = if r % 20 == 7 { 3_000_000_000 } else { 400_000 };
                let at = now + (rng() % horizon) / (1 + (r % 4)); // clusters
                let node = (round % 5) as usize;
                heap.push(Reverse((at, token, node)));
                timer_at(&mut cal, at, node, token);
                token += 1;
            } else if let Some((at, _, _)) = pop_both(&mut heap, &mut cal) {
                now = at;
            }
            assert_eq!(heap.len(), cal.len());
        }
        // Drain the rest in lockstep.
        while pop_both(&mut heap, &mut cal).is_some() {}
        assert!(cal.is_empty());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn oracle_tracks_len_through_push_pop_and_bounded_pop() {
        let mut q = EventQueue::new();
        let oracle_len = |q: &EventQueue| q.oracle.len();
        for (i, ns) in [300u64, 100, 5_000_000_000, 200, 100]
            .into_iter()
            .enumerate()
        {
            timer_at(&mut q, ns, i, i as u64);
            assert_eq!(oracle_len(&q), i + 1);
            assert_eq!(oracle_len(&q), q.len());
        }
        q.pop();
        assert_eq!((oracle_len(&q), q.len()), (4, 4));
        assert!(q.pop_at_or_before(SimTime::from_nanos(50)).is_none());
        assert_eq!(
            (oracle_len(&q), q.len()),
            (4, 4),
            "a refused pop keeps both"
        );
        q.pop_at_or_before(SimTime::from_nanos(250)).unwrap();
        assert_eq!((oracle_len(&q), q.len()), (3, 3));
        while q.pop().is_some() {}
        assert_eq!((oracle_len(&q), q.len()), (0, 0));
    }
}
