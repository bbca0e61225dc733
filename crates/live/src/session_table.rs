//! One session's probe table: the receiver's per-probe arrivals, its
//! `(seq, idx)` dedup state, and the online estimator's per-experiment
//! assembly.
//!
//! The probe process is dense by construction (§5.2–5.3). A run of `N`
//! slots at start probability `p` schedules about `p·N` experiments with
//! consecutive ids from 0, each probing 2–3 contiguous slots, and the
//! sender numbers its packets with consecutive sequence numbers from 0.
//! Every session is opened by a SYN, so it keeps its state in flat
//! vectors sized once, from the SYN's projection:
//!
//! * `cells[exp]` holds the experiment's assembly and up to three inline
//!   `(slot, ProbeArrivals)` entries;
//! * `first_idx[seq]` holds `idx + 1` of the first copy of `seq` (0 =
//!   none yet): the `(seq, idx)` dedup for the usual one index per
//!   sequence number.
//!
//! An accepted packet then costs one indexed load into each, and no
//! allocation: cells are materialized inside the capacity reserved at
//! the SYN, and a probe's index set is a 256-bit inline mask.
//!
//! Keys that do not fit the dense form go to hash-map **spill**
//! containers with exactly the semantics the receiver had before the
//! table, so hostile input keeps its bounded cost and every report,
//! summary and online estimate is the same as with maps alone:
//!
//! * experiment ids or sequence numbers past the SYN's projection;
//! * a 4th distinct slot on one experiment;
//! * `idx == 255` (its `idx + 1` does not fit the dedup byte);
//! * a second idx on one sequence number.
//!
//! One odd case is part of that contract: a duplicate `(seq, idx)` whose
//! header names another `(experiment, slot)` creates that probe's entry
//! before any packet is accepted for it, so the first accepted packet
//! there does not count as a new slot for the online assembly. Both
//! forms keep "entry exists" apart from "slot counted" to preserve it.

use crate::skew::Baseline;
use badabing_core::estimator::Estimates;
use badabing_core::outcome::Outcome;
use badabing_metrics::Histogram;
use badabing_wire::control::{ReportRecord, RECORD_FLAG_KERNEL_STAMPED};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::mem::size_of;

/// One accepted packet's raw delay sample: experiment, slot, receive
/// time in seconds, raw one-way delay in ns. First copies only.
pub(crate) type RawDelay = (u64, u64, f64, i64);

/// Probe entries one dense cell holds inline: the widest experiment the
/// improved schedule sends.
const CELL_PROBES: usize = 3;

/// The packet indices seen for one probe: one bit per `u8` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IdxSet([u64; 4]);

impl IdxSet {
    const EMPTY: Self = Self([0; 4]);

    fn insert(&mut self, idx: u8) {
        self.0[usize::from(idx >> 6)] |= 1 << (idx & 63);
    }

    fn len(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    fn is_empty(&self) -> bool {
        *self == Self::EMPTY
    }
}

/// Per-probe accumulation state.
#[derive(Debug, Clone, Copy)]
struct ProbeArrivals {
    seen_idx: IdxSet,
    probe_len: u8,
    duplicates: u8,
    /// Stays set only while every distinct arrival of the probe carried
    /// a kernel RX stamp.
    kernel_stamped: bool,
    /// Queueing delay of the latest and of the largest arrival, filled
    /// in at FIN.
    qdelay_last: f64,
    qdelay_max: f64,
}

impl ProbeArrivals {
    const EMPTY: Self = Self {
        seen_idx: IdxSet::EMPTY,
        probe_len: 0,
        duplicates: 0,
        kernel_stamped: true,
        qdelay_last: 0.0,
        // Seeded below any residual: the lower-envelope clock fit can
        // leave every arrival of a probe marginally negative, and a 0.0
        // seed would then report a max above the last arrival.
        qdelay_max: f64::NEG_INFINITY,
    };

    /// Distinct packets received, clamped to the probe length: a
    /// malformed sender reusing `(seq, idx)` pairs across more
    /// datagrams than the probe announces cannot push it past the
    /// length. The `as u8` wraps a full 256-index set to 0, as the
    /// report format always has.
    fn received(&self) -> u8 {
        (self.seen_idx.len() as u8).min(self.probe_len)
    }

    fn record(&self, experiment: u64, slot: u64) -> ReportRecord {
        ReportRecord {
            experiment,
            slot,
            received: self.received(),
            duplicates: self.duplicates,
            qdelay_last_secs: self.qdelay_last,
            qdelay_max_secs: self.qdelay_max,
            flags: if self.kernel_stamped {
                RECORD_FLAG_KERNEL_STAMPED
            } else {
                0
            },
        }
    }
}

/// Per-experiment assembly state for the online estimator fold: just
/// enough to re-derive the experiment's current [`Outcome`] without
/// walking its probes (bounds + distinct-slot count), plus the outcome
/// currently folded into the session's [`Estimates`] so a revision can
/// retract it exactly.
#[derive(Debug, Clone, Copy, Default)]
struct ExpAssembly {
    /// Lowest slot seen for this experiment.
    lo: u64,
    /// Highest slot seen for this experiment.
    hi: u64,
    /// Distinct slots counted (saturating; 0 = nothing yet).
    slots: u8,
    /// The outcome currently counted in the session's online
    /// [`Estimates`], if the experiment has ever looked complete.
    folded: Option<Outcome>,
}

/// One experiment of the dense form.
#[derive(Debug, Clone, Copy)]
struct ExpCell {
    asm: ExpAssembly,
    /// Entries in use, in creation order.
    len: u8,
    slots: [u64; CELL_PROBES],
    probes: [ProbeArrivals; CELL_PROBES],
}

impl ExpCell {
    const EMPTY: Self = Self {
        asm: ExpAssembly {
            lo: 0,
            hi: 0,
            slots: 0,
            folded: None,
        },
        len: 0,
        slots: [0; CELL_PROBES],
        probes: [ProbeArrivals::EMPTY; CELL_PROBES],
    };

    fn find(&self, slot: u64) -> Option<usize> {
        self.slots[..usize::from(self.len)]
            .iter()
            .position(|&s| s == slot)
    }

    fn is_full(&self) -> bool {
        usize::from(self.len) == CELL_PROBES
    }
}

/// The keys the dense form cannot hold (see the module docs), kept in
/// hash maps with the pre-table semantics.
#[derive(Default)]
struct Spill {
    probes: HashMap<(u64, u64), ProbeArrivals>,
    seen: HashSet<(u64, u8)>,
    exps: HashMap<u64, ExpAssembly>,
}

/// Capacities of one session's containers: the single input of the
/// byte formula ([`Footprint::bytes`]) that session accounting,
/// admission's projected charge and SYN pre-sizing all share. Each
/// container costs its element's `size_of` per unit of capacity; a
/// hash-map entry adds one control byte.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Footprint {
    /// Dense experiment cells.
    pub cells: usize,
    /// Dense dedup bytes, one per sequence number.
    pub seqs: usize,
    /// Raw delay samples.
    pub raw: usize,
    /// Spilled probe entries.
    pub spill_probes: usize,
    /// Spilled `(seq, idx)` dedup pairs.
    pub spill_seen: usize,
    /// Spilled experiment assemblies.
    pub spill_exps: usize,
    /// Finalized report records.
    pub records: usize,
}

const fn map_entry<K, V>() -> usize {
    size_of::<(K, V)>() + 1
}

impl Footprint {
    /// Bytes these capacities hold.
    pub fn bytes(&self) -> usize {
        self.cells * size_of::<ExpCell>()
            + self.seqs * size_of::<u8>()
            + self.raw * size_of::<RawDelay>()
            + self.spill_probes * map_entry::<(u64, u64), ProbeArrivals>()
            + self.spill_seen * map_entry::<(u64, u8), ()>()
            + self.spill_exps * map_entry::<u64, ExpAssembly>()
            + self.records * size_of::<ReportRecord>()
    }

    /// Every count scaled by `num / den` (rounded down), so the bytes
    /// scale down with them and never exceed `num / den` of the
    /// original.
    pub fn scaled(self, num: usize, den: usize) -> Self {
        let s = |n: usize| (n as u128 * num as u128 / den.max(1) as u128) as usize;
        Self {
            cells: s(self.cells),
            seqs: s(self.seqs),
            raw: s(self.raw),
            spill_probes: s(self.spill_probes),
            spill_seen: s(self.spill_seen),
            spill_exps: s(self.spill_exps),
            records: s(self.records),
        }
    }
}

/// One session's probe table (see the module docs).
pub(crate) struct SessionTable {
    /// Experiments the dense form covers: ids `0..dense_exps`. Cells
    /// are materialized up to the highest id seen, inside a capacity
    /// reserved for all of them up front.
    dense_exps: usize,
    cells: Vec<ExpCell>,
    /// `idx + 1` of the first copy of each dense sequence number.
    first_idx: Vec<u8>,
    spill: Spill,
}

/// The dense cell for `exp`, materialized if need be; `None` past the
/// dense range. A free function over the fields, so a caller can fall
/// through to the spill maps while the cell borrow is live.
fn dense_cell(cells: &mut Vec<ExpCell>, dense_exps: usize, exp: u64) -> Option<&mut ExpCell> {
    let i = usize::try_from(exp).ok().filter(|&i| i < dense_exps)?;
    if i >= cells.len() {
        // Within the capacity reserved up front: no allocation.
        cells.resize(i + 1, ExpCell::EMPTY);
    }
    Some(&mut cells[i])
}

impl SessionTable {
    /// A table whose dense form covers experiments `0..exps` and
    /// sequence numbers `0..seqs`, reserved now.
    pub fn dense(exps: usize, seqs: usize) -> Self {
        Self {
            dense_exps: exps,
            cells: Vec::with_capacity(exps),
            first_idx: vec![0; seqs],
            spill: Spill::default(),
        }
    }

    /// The table's share of the session's [`Footprint`].
    pub fn footprint(&self) -> Footprint {
        Footprint {
            cells: self.cells.capacity(),
            seqs: self.first_idx.capacity(),
            spill_probes: self.spill.probes.capacity(),
            spill_seen: self.spill.seen.capacity(),
            spill_exps: self.spill.exps.capacity(),
            ..Footprint::default()
        }
    }

    /// Record the datagram `(seq, idx)`; `false` if it arrived before.
    pub fn first_copy(&mut self, seq: u64, idx: u8) -> bool {
        let dense = usize::try_from(seq)
            .ok()
            .and_then(|s| self.first_idx.get_mut(s));
        if let (Some(first), Some(tag)) = (dense, idx.checked_add(1)) {
            if *first == 0 {
                *first = tag;
                return true;
            }
            if *first == tag {
                return false;
            }
            // A second idx on this seq: only the spill set can hold it.
        }
        self.spill.seen.insert((seq, idx))
    }

    /// The probe `(exp, slot)`, created empty if absent, and whether
    /// this call created it.
    fn probe_mut(&mut self, exp: u64, slot: u64) -> (&mut ProbeArrivals, bool) {
        if let Some(cell) = dense_cell(&mut self.cells, self.dense_exps, exp) {
            if let Some(i) = cell.find(slot) {
                return (&mut cell.probes[i], false);
            }
            if !cell.is_full() {
                let i = usize::from(cell.len);
                cell.len += 1;
                cell.slots[i] = slot;
                return (&mut cell.probes[i], true);
            }
        }
        match self.spill.probes.entry((exp, slot)) {
            Entry::Occupied(e) => (e.into_mut(), false),
            Entry::Vacant(e) => (e.insert(ProbeArrivals::EMPTY), true),
        }
    }

    /// The probe `(exp, slot)`, if it exists.
    fn probe(&self, exp: u64, slot: u64) -> Option<&ProbeArrivals> {
        if let Some(i) = usize::try_from(exp).ok().filter(|&i| i < self.dense_exps) {
            // An unmaterialized cell is empty, and an empty cell is not
            // full, so nothing of it can have spilled.
            let cell = self.cells.get(i)?;
            if let Some(k) = cell.find(slot) {
                return Some(&cell.probes[k]);
            }
            if !cell.is_full() {
                return None;
            }
        }
        self.spill.probes.get(&(exp, slot))
    }

    fn assembly_mut(&mut self, exp: u64) -> &mut ExpAssembly {
        match dense_cell(&mut self.cells, self.dense_exps, exp) {
            Some(cell) => &mut cell.asm,
            None => self.spill.exps.entry(exp).or_default(),
        }
    }

    /// Count a duplicated datagram against the probe its header names.
    pub fn duplicate(&mut self, exp: u64, slot: u64) {
        let (p, _) = self.probe_mut(exp, slot);
        p.duplicates = p.duplicates.saturating_add(1);
    }

    /// Account one accepted (first-copy) packet of probe `(exp, slot)`;
    /// returns whether it created the probe's entry.
    pub fn accept(&mut self, exp: u64, slot: u64, idx: u8, probe_len: u8, kernel: bool) -> bool {
        let (p, created) = self.probe_mut(exp, slot);
        p.seen_idx.insert(idx);
        p.probe_len = p.probe_len.max(probe_len);
        // A probe is precision-grade only if every one of its arrivals
        // was; duplicates don't weigh in (they never touch delays).
        p.kernel_stamped &= kernel;
        created
    }

    /// Revise experiment `exp`'s contribution to `online` after one
    /// accepted packet in `slot`: update the assembly bounds, re-derive
    /// the experiment's current outcome, and retract-old/push-new on
    /// any change, so at every instant `online` equals a fold over the
    /// outcomes derivable from the data received so far.
    pub fn fold(&mut self, exp: u64, slot: u64, new_slot: bool, online: &mut Estimates) {
        let a = self.assembly_mut(exp);
        if new_slot {
            if a.slots == 0 {
                a.lo = slot;
                a.hi = slot;
            } else {
                a.lo = a.lo.min(slot);
                a.hi = a.hi.max(slot);
            }
            a.slots = a.slots.saturating_add(1);
        }
        let (lo, hi, slots, old) = (a.lo, a.hi, a.slots, a.folded);
        let new = self.derive_outcome(exp, lo, hi, slots);
        if new != old {
            if let Some(o) = &old {
                online.retract(o);
            }
            if let Some(o) = &new {
                online.push(o);
            }
            self.assembly_mut(exp).folded = new;
        }
    }

    /// The outcome the report-side pipeline would currently derive for
    /// one experiment from loss alone.
    ///
    /// Mirrors the FIN path exactly: a probe is congested iff its
    /// clamped arrival count is short (the `received` a report record
    /// carries), and an experiment only yields an outcome while its
    /// slots are contiguous and 2 or 3 wide (the `detector::assemble`
    /// grouping rule). Anything else — one slot so far, a gap, a hostile
    /// slot spray — is `None`, and whatever was previously folded gets
    /// retracted.
    fn derive_outcome(&self, exp: u64, lo: u64, hi: u64, slots: u8) -> Option<Outcome> {
        let span = (hi - lo).saturating_add(1);
        if !(slots == 2 || slots == 3) || span != u64::from(slots) {
            return None;
        }
        let mut states = [false; 3];
        for (k, s) in states.iter_mut().take(usize::from(slots)).enumerate() {
            let p = self
                .probe(exp, lo + k as u64)
                .expect("every counted slot has a probe entry");
            *s = p.received() < p.probe_len;
        }
        Some(Outcome {
            id: exp,
            start_slot: lo,
            probes: slots,
            states,
        })
    }

    /// FIN: convert each raw delay into queueing delay under `baseline`
    /// (§7), keep every probe's latest and largest, and return one
    /// record per probe that accepted a packet, in (experiment, slot)
    /// order, recording each queueing delay in `qdelay_hist`. The delays
    /// reach the histogram as one batch, published once, not one atomic
    /// round per delay. Call once per session.
    pub fn finish(
        &mut self,
        raw_delays: &[RawDelay],
        baseline: &Baseline,
        qdelay_hist: &Histogram,
    ) -> Vec<ReportRecord> {
        qdelay_hist.record_secs_batch(raw_delays.iter().map(|&(exp, slot, t, raw)| {
            let q = baseline.correct(t, raw as f64 / 1e9);
            let (p, _) = self.probe_mut(exp, slot);
            p.qdelay_last = q;
            p.qdelay_max = p.qdelay_max.max(q);
            q
        }));
        let arrived = |p: &&ProbeArrivals| !p.seen_idx.is_empty();
        let dense = self
            .cells
            .iter()
            .map(|c| {
                c.probes[..usize::from(c.len)]
                    .iter()
                    .filter(arrived)
                    .count()
            })
            .sum::<usize>();
        let spilled = self.spill.probes.values().filter(arrived).count();
        let mut records = Vec::with_capacity(dense + spilled);
        for (exp, cell) in self.cells.iter().enumerate() {
            let mut order: [usize; CELL_PROBES] = std::array::from_fn(|i| i);
            let order = &mut order[..usize::from(cell.len)];
            order.sort_unstable_by_key(|&i| cell.slots[i]);
            for &i in order.iter() {
                let p = &cell.probes[i];
                if arrived(&p) {
                    records.push(p.record(exp as u64, cell.slots[i]));
                }
            }
        }
        if spilled > 0 {
            records.extend(
                self.spill
                    .probes
                    .iter()
                    .filter(|(_, p)| arrived(p))
                    .map(|(&(exp, slot), p)| p.record(exp, slot)),
            );
            records.sort_unstable_by_key(|r| (r.experiment, r.slot));
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAT: Baseline = Baseline {
        offset: 0.0,
        slope: 0.0,
    };

    #[test]
    fn dedup_keeps_set_semantics_across_dense_and_spill() {
        let mut t = SessionTable::dense(4, 8);
        assert!(t.first_copy(3, 0));
        assert!(!t.first_copy(3, 0));
        // A second idx on one seq, idx 255, and a seq past the range
        // all spill, and each is still deduplicated.
        assert!(t.first_copy(3, 1));
        assert!(!t.first_copy(3, 1));
        assert!(t.first_copy(5, 255));
        assert!(!t.first_copy(5, 255));
        assert!(t.first_copy(5, 2));
        assert!(!t.first_copy(5, 2));
        assert!(t.first_copy(1 << 40, 0));
        assert!(!t.first_copy(1 << 40, 0));
        assert_eq!(t.spill.seen.len(), 3);
    }

    #[test]
    fn a_fourth_slot_and_ids_past_the_range_spill() {
        let mut t = SessionTable::dense(2, 0);
        for slot in 10..13 {
            assert!(t.accept(1, slot, 0, 1, true));
        }
        assert!(t.spill.probes.is_empty());
        assert!(t.accept(1, 13, 0, 1, true), "4th distinct slot");
        assert!(!t.accept(1, 13, 1, 2, true));
        assert!(t.accept(2, 0, 0, 1, true), "experiment past the range");
        assert_eq!(t.spill.probes.len(), 2);
        assert_eq!(t.cells.len(), 2, "cells materialize up to the id seen");
        let records = t.finish(&[], &FLAT, &Histogram::latency());
        let keys: Vec<_> = records.iter().map(|r| (r.experiment, r.slot)).collect();
        assert_eq!(keys, [(1, 10), (1, 11), (1, 12), (1, 13), (2, 0)]);
        assert_eq!(records[3].received, 2);
    }

    #[test]
    fn a_full_index_set_wraps_like_the_report_format() {
        let mut p = ProbeArrivals::EMPTY;
        p.probe_len = 3;
        for idx in 0..=255u8 {
            p.seen_idx.insert(idx);
        }
        assert_eq!(p.seen_idx.len(), 256);
        assert_eq!(p.received(), 0);
    }

    #[test]
    fn qdelay_max_is_seeded_from_the_first_arrival() {
        // Regression: the fold used to start from the ArrivalRecord
        // default of 0.0, so a probe whose baseline-corrected residuals
        // were all slightly negative (the lower-envelope fit touches the
        // samples only to within numerical error) reported
        // qdelay_max_secs = 0.0 > qdelay_last_secs — an inconsistent
        // record.
        let baseline = Baseline {
            offset: 0.005, // sits 5 ms above this probe's raw delays
            slope: 0.0,
        };
        // Two arrivals of one probe: raw delays 4.8 ms and 4.9 ms, so
        // corrected residuals are -0.2 ms then -0.1 ms.
        let raw_delays = [(0u64, 0u64, 0.0, 4_800_000i64), (0, 0, 0.1, 4_900_000)];
        let mut t = SessionTable::dense(1, 2);
        t.accept(0, 0, 0, 2, true);
        t.accept(0, 0, 1, 2, true);
        let rec = t.finish(&raw_delays, &baseline, &Histogram::latency())[0];
        assert_eq!(rec.received, 2);
        assert!(
            (rec.qdelay_last_secs - (-1e-4)).abs() < 1e-12,
            "last residual, got {}",
            rec.qdelay_last_secs
        );
        assert!(
            (rec.qdelay_max_secs - (-1e-4)).abs() < 1e-12,
            "max must be the larger *observed* residual, got {}",
            rec.qdelay_max_secs
        );
        assert!(
            rec.qdelay_max_secs >= rec.qdelay_last_secs,
            "record must be internally consistent"
        );
        assert!(
            rec.qdelay_max_secs < 0.0,
            "an all-negative probe must not report a phantom 0.0 max"
        );
    }

    #[test]
    fn records_come_out_in_slot_order_within_a_cell() {
        let mut t = SessionTable::dense(1, 0);
        for slot in [7, 5, 6] {
            t.accept(0, slot, 0, 1, slot != 6);
        }
        let raw = [
            (0, 6, 0.0, 2_000_000),
            (0, 5, 0.1, 1_000_000),
            (0, 6, 0.2, 3_000_000),
        ];
        let records = t.finish(&raw, &FLAT, &Histogram::latency());
        let slots: Vec<_> = records.iter().map(|r| r.slot).collect();
        assert_eq!(slots, [5, 6, 7]);
        assert_eq!(records[1].qdelay_last_secs, 0.003);
        assert_eq!(records[1].qdelay_max_secs, 0.003);
        assert_eq!(records[1].flags, 0, "a userspace stamp clears the flag");
        assert_eq!(records[0].flags, RECORD_FLAG_KERNEL_STAMPED);
    }
}
