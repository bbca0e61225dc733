//! One session's state: the SYN's pre-sizing, the probe fast path's
//! accounting (dedup, raw delays, the online fold and delay sketch) and
//! finalization into report records.
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
//! element's `size_of` ([`Footprint`]): the same formula sizes the SYN's
//! reservation, charges admission's projected bytes
//! ([`SessionState::projected_bytes`]) against the global budget, and
//! settles each session's footprint as it grows.
//!
//! Sample-record integrity: real networks duplicate and reorder
//! datagrams, and a duplicated arrival must not make a lost probe look
//! complete (the estimator's input is the per-probe loss record, so
//! inflation there corrupts everything downstream). Arrivals are
//! deduplicated per session by `(seq, idx)`; duplicates are counted
//! separately and never touch the loss accounting. Reordering is
//! harmless by construction — records are keyed by `(experiment, slot)`,
//! not arrival order.

use super::{ReceiverLog, SessionEnd, SessionOutcome};
use crate::provider::TimestampSource;
use crate::session_table::{Footprint, RawDelay, SessionTable};
use badabing_core::estimator::Estimates;
use badabing_metrics::Histogram;
use badabing_stats::DelaySketch;
use badabing_wire::control::{chunk_count, ReportRecord, ReportSummary, SessionParams};
use badabing_wire::ProbeHeader;
use std::time::Duration;

/// A finalized session snapshot: frozen at the first FIN (or at reap
/// time) and re-served verbatim on every retransmit. Chunks are not
/// materialized: any requested chunk is encoded on demand straight from
/// a window of `records` (`encode_report_chunk_into`), byte-identical
/// across re-requests, with no per-chunk record clone.
pub(super) struct Finalized {
    pub(super) records: Vec<ReportRecord>,
    pub(super) summary: ReportSummary,
}

impl Finalized {
    pub(super) fn total_chunks(&self) -> u32 {
        chunk_count(self.records.len())
    }
}

/// Per-session accumulation state in the registry.
pub(super) struct SessionState {
    /// Raw delay samples of first copies, in arrival order.
    raw_delays: Vec<RawDelay>,
    /// Per-probe arrivals, dedup state and online assembly.
    table: SessionTable,
    pub(super) packets: u64,
    pub(super) duplicates: u64,
    min_raw: Option<i64>,
    /// The tool parameters the opening SYN announced.
    handshake: SessionParams,
    /// Clock time (absolute, since the provider clock's epoch) of the
    /// last datagram for this session — the idle watchdog's input.
    pub(super) last_activity: Duration,
    pub(super) finalized: Option<Finalized>,
    /// §5 pattern counters maintained incrementally on the ingest fast
    /// path (loss-only outcome derivation — see [`SessionTable::fold`]).
    /// Frozen once the session finalizes, so post-FIN strays cannot
    /// drift the snapshot the differential contract pins.
    pub(super) online: Estimates,
    /// Fixed log-scale sketch of offset-adjusted raw delays (seconds
    /// above the running path minimum), mergeable across sessions.
    pub(super) delay_sketch: DelaySketch,
    /// What this session last settled against the server's global
    /// memory tally (`Admission::settle`); released when the session
    /// leaves the registry.
    pub(super) accounted_bytes: usize,
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
    pub(super) fn new(params: SessionParams, session_budget: usize, now: Duration) -> Self {
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
    pub(super) fn footprint(&self) -> Footprint {
        Footprint {
            raw: self.raw_delays.capacity(),
            records: self.finalized.as_ref().map_or(0, |f| f.records.capacity()),
            ..self.table.footprint()
        }
    }

    /// Bytes this session's containers hold ([`Footprint::bytes`]).
    /// Pure arithmetic on a handful of fields: cheap enough for the
    /// per-datagram fast path.
    pub(super) fn mem_bytes(&self) -> usize {
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
    pub(super) fn projected_bytes(params: &SessionParams, session_budget: usize) -> usize {
        Self::desired(params).bytes().min(session_budget)
    }

    /// Per-probe accounting shared verbatim by the batched and fallback
    /// datapaths (the differential test feeds both through here with
    /// identical timestamps and demands byte-identical reports).
    /// Returns `false` for a duplicated `(seq, idx)` datagram, which is
    /// tracked but never inflates arrival counts — a lost probe must
    /// not look complete.
    ///
    /// `#[inline]`: the probe fast path calls this from another module,
    /// and without the hint it is compiled as an out-of-line call there.
    #[inline]
    pub(super) fn ingest(
        &mut self,
        h: &ProbeHeader,
        now: Duration,
        source: TimestampSource,
    ) -> bool {
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
    pub(super) fn finalize(&mut self, rejected: u64, qdelay: &Histogram) -> &Finalized {
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

    pub(super) fn into_outcome(
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

/// Session-level test fixtures: arrival streams and the ordered-map
/// reference model the session table must reproduce. The tests that drive them live in the receiver's test
/// module, beside the server tests.
#[cfg(test)]
pub(super) mod reference {
    use super::*;
    use badabing_core::outcome::Outcome;
    use badabing_wire::control::RECORD_FLAG_KERNEL_STAMPED;
    use std::collections::{BTreeMap, BTreeSet};

    /// A synthetic arrival stream: multi-packet probes, one duplicated
    /// datagram, one lost packet, non-monotone send timestamps, and a
    /// deterministic mix of kernel- and userspace-stamped arrivals —
    /// enough structure to shake out any path-dependent accounting.
    pub(crate) fn synthetic_arrivals() -> Vec<(ProbeHeader, Duration, TimestampSource)> {
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

    /// The datagrams `run_sender` sends for a seeded run, in send
    /// order: consecutive seqs from 0, `train` packets per probe.
    pub(crate) fn planned_stream(params: &SessionParams, seed: u64) -> Vec<ProbeHeader> {
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
    pub(crate) fn hostile_stream(
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
    pub(crate) fn check_against_model(
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
}
