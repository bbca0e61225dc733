//! Passive monitoring: the DAG-card stand-in.
//!
//! The testbed's ground truth came from optical splitters feeding Endace DAG
//! capture cards on the ingress and egress of the bottleneck hop; comparing
//! the two traces identified exactly which packets were lost and what the
//! queue length was at every instant (§4.1). The simulator can do strictly
//! better: the bottleneck queue reports every enqueue, drop, and departure
//! to a [`Monitor`] together with the exact buffer occupancy.
//!
//! [`GroundTruth`] then derives the quantities the paper reports:
//!
//! * the queue-length time series (Figures 4, 5, 6, 8),
//! * router-centric loss rate `L/(S+L)` (§3),
//! * loss episodes — using the paper's delineation rule for bursty traffic:
//!   an episode is bounded by drops, and consecutive drops belong to the
//!   same episode only while the queue stays above a high-water delay
//!   threshold between them (§4.2's "within 10 ms of the maximum" rule),
//! * the slot-level congestion indicator series that defines the *true*
//!   episode frequency `F` and mean duration `D` targeted by the estimators.
//!
//! ## Monitor modes
//!
//! By default the monitor is **streaming**: every event is folded online
//! into exactly the state ground truth needs — per-slot queue-delay maxima
//! (`O(slots)`), one compact `DropPoint` per drop (`O(drops)`), and the
//! running minimum delay since the last drop. Memory is therefore bounded
//! by the observation grid and the loss process, *not* by the event count:
//! a minutes-long run at OC3 rates folds tens of millions of events into a
//! few megabytes. [`GroundTruth`] can be extracted at any moment of the
//! run, for any horizon at or before the current virtual time.
//!
//! Full per-event retention is opt-in via [`Monitor::with_trace`] /
//! [`Monitor::enable_trace`]; it is what `dump_trace` and the
//! trace-conservation property tests use, and it also enables the
//! record-by-record extraction path ([`GroundTruth::from_trace`]) that the
//! differential tests compare against the streaming fold.

use crate::packet::{FlowId, Packet};
use crate::time::SimTime;
use badabing_stats::{EpisodeSet, SlotSeries};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;

/// What happened to a packet at the bottleneck.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// Packet admitted to the buffer.
    Enqueue,
    /// Packet discarded because the buffer was full.
    Drop,
    /// Packet fully serialized onto the output link.
    Depart,
}

/// One captured packet event.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TraceRecord {
    /// When the event occurred.
    pub t: SimTime,
    /// What happened.
    pub event: TraceEvent,
    /// The packet's globally unique id.
    pub packet_id: u64,
    /// Owning flow.
    pub flow: FlowId,
    /// Wire size in bytes.
    pub size: u32,
    /// Whether the packet is probe traffic.
    pub is_probe: bool,
    /// Buffer occupancy *after* the event, expressed as drain time in
    /// seconds (bytes × 8 / link rate) — the y-axis of the paper's queue
    /// length figures.
    pub qdelay_secs: f64,
}

/// One drop, reduced to what the episode state machine needs: its time and
/// the minimum queue delay observed since the previous drop (including the
/// delay seen at this drop itself — the "sag" the §3 episode-end rule
/// thresholds on).
#[derive(Debug, Clone, Copy)]
struct DropPoint {
    t: SimTime,
    sag: f64,
}

/// The streaming ground-truth fold: per-slot delay maxima plus the drop
/// log, maintained online by [`Monitor::record`].
#[derive(Debug)]
struct StreamFold {
    slot_secs: f64,
    /// Per-slot maximum queue drain time; grows with virtual time, never
    /// with event count.
    slot_max: Vec<f64>,
    /// One entry per drop, in event order.
    drops: Vec<DropPoint>,
    /// Minimum delay observed since the last drop (∞ before the first).
    min_qdelay_since_drop: f64,
}

impl StreamFold {
    fn new(slot_secs: f64) -> Self {
        assert!(slot_secs > 0.0, "slot width must be positive");
        Self {
            slot_secs,
            slot_max: Vec::new(),
            drops: Vec::new(),
            min_qdelay_since_drop: f64::INFINITY,
        }
    }

    fn fold(&mut self, t: SimTime, event: TraceEvent, qdelay_secs: f64) {
        let slot = (t.as_secs_f64() / self.slot_secs) as usize;
        if slot >= self.slot_max.len() {
            self.slot_max.resize(slot + 1, 0.0);
        }
        if qdelay_secs > self.slot_max[slot] {
            self.slot_max[slot] = qdelay_secs;
        }
        if qdelay_secs < self.min_qdelay_since_drop {
            self.min_qdelay_since_drop = qdelay_secs;
        }
        if event == TraceEvent::Drop {
            self.drops.push(DropPoint {
                t,
                sag: self.min_qdelay_since_drop,
            });
            // The delay observed at this drop also starts the next
            // inter-drop interval: a drop seen at a sagged queue sits
            // below high water on *both* sides.
            self.min_qdelay_since_drop = qdelay_secs;
        }
    }

    fn bytes(&self) -> usize {
        self.slot_max.capacity() * std::mem::size_of::<f64>()
            + self.drops.capacity() * std::mem::size_of::<DropPoint>()
    }
}

/// Captures the bottleneck's packet-level event stream.
#[derive(Debug)]
pub struct Monitor {
    /// Full per-event retention; `None` in (default) streaming mode.
    trace: Option<Vec<TraceRecord>>,
    stream: StreamFold,
    drops: u64,
    departs: u64,
    enqueues: u64,
    probe_drops: u64,
    peak_bytes: usize,
}

impl Default for Monitor {
    fn default() -> Self {
        Self {
            trace: None,
            stream: StreamFold::new(GroundTruthConfig::default().slot_secs),
            drops: 0,
            departs: 0,
            enqueues: 0,
            probe_drops: 0,
            peak_bytes: 0,
        }
    }
}

/// Shared handle to a [`Monitor`]; held by the bottleneck queue and by the
/// experiment harness (the simulator is single-threaded, so `Rc<RefCell>`
/// is the right tool).
pub type MonitorHandle = Rc<RefCell<Monitor>>;

impl Monitor {
    /// A new, empty streaming monitor behind a shared handle.
    pub fn new_handle() -> MonitorHandle {
        Rc::new(RefCell::new(Monitor::default()))
    }

    /// A monitor that additionally retains the full [`TraceRecord`] stream
    /// (opt-in; memory grows with the event count).
    pub fn with_trace() -> Monitor {
        Monitor {
            trace: Some(Vec::new()),
            ..Monitor::default()
        }
    }

    /// [`Monitor::with_trace`] behind a shared handle.
    pub fn new_traced_handle() -> MonitorHandle {
        Rc::new(RefCell::new(Monitor::with_trace()))
    }

    /// Switch full-trace retention on. Must be called before any event is
    /// recorded — a partial trace would silently corrupt everything that
    /// folds over [`Monitor::records`].
    ///
    /// # Panics
    /// Panics if events have already been recorded.
    pub fn enable_trace(&mut self) {
        if self.trace.is_some() {
            return;
        }
        assert!(
            self.enqueues == 0 && self.drops == 0 && self.departs == 0,
            "enable_trace after events were recorded: the trace would be partial"
        );
        self.trace = Some(Vec::new());
    }

    /// Whether full-trace retention is on.
    pub fn is_tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Override the streaming fold's slot width (default 5 ms, the
    /// paper's discretization). Must be called before any event is
    /// recorded.
    ///
    /// # Panics
    /// Panics if events have already been recorded.
    pub fn set_stream_slot_secs(&mut self, slot_secs: f64) {
        assert!(
            self.enqueues == 0 && self.drops == 0 && self.departs == 0,
            "set_stream_slot_secs after events were recorded"
        );
        self.stream = StreamFold::new(slot_secs);
    }

    /// Record one event.
    pub fn record(&mut self, t: SimTime, event: TraceEvent, pkt: &Packet, qdelay_secs: f64) {
        match event {
            TraceEvent::Enqueue => self.enqueues += 1,
            TraceEvent::Drop => {
                self.drops += 1;
                if pkt.kind.is_probe() {
                    self.probe_drops += 1;
                }
            }
            TraceEvent::Depart => self.departs += 1,
        }
        self.stream.fold(t, event, qdelay_secs);
        if let Some(records) = &mut self.trace {
            records.push(TraceRecord {
                t,
                event,
                packet_id: pkt.id,
                flow: pkt.flow,
                size: pkt.size,
                is_probe: pkt.kind.is_probe(),
                qdelay_secs,
            });
        }
        let bytes = self.records_bytes() + self.stream.bytes();
        if bytes > self.peak_bytes {
            self.peak_bytes = bytes;
        }
    }

    /// All captured records, in event order (empty unless trace retention
    /// is on — see [`Monitor::enable_trace`]).
    pub fn records(&self) -> &[TraceRecord] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Packets dropped at the bottleneck.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Probe packets dropped at the bottleneck.
    pub fn probe_drops(&self) -> u64 {
        self.probe_drops
    }

    /// Packets fully transmitted.
    pub fn departs(&self) -> u64 {
        self.departs
    }

    /// Packets admitted to the buffer.
    pub fn enqueues(&self) -> u64 {
        self.enqueues
    }

    /// Router-centric loss rate `L / (S + L)` (§3), with `S` the number of
    /// successfully transmitted packets.
    pub fn router_loss_rate(&self) -> f64 {
        let total = self.drops + self.departs;
        if total == 0 {
            0.0
        } else {
            self.drops as f64 / total as f64
        }
    }

    /// Bytes currently allocated to the full trace (zero in streaming
    /// mode, or after [`Monitor::clear_records`]).
    pub fn records_bytes(&self) -> usize {
        self.trace
            .as_ref()
            .map_or(0, |v| v.capacity() * std::mem::size_of::<TraceRecord>())
    }

    /// Bytes currently allocated to the streaming fold (slot maxima plus
    /// the drop log).
    pub fn streaming_bytes(&self) -> usize {
        self.stream.bytes()
    }

    /// High-water mark of total monitor memory (trace + streaming fold)
    /// over the monitor's lifetime — what the perf gate reports.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Number of drop points held by the streaming fold.
    pub fn drop_points(&self) -> usize {
        self.stream.drops.len()
    }

    /// Number of slots the streaming fold has touched so far.
    pub fn stream_slots(&self) -> usize {
        self.stream.slot_max.len()
    }

    /// Discard the retained trace (for long runs that only need counters
    /// and the streaming fold going forward). Releases the allocation
    /// rather than keeping the grown buffer alive for the rest of a
    /// replicate batch.
    pub fn clear_records(&mut self) {
        if let Some(records) = &mut self.trace {
            records.clear();
            records.shrink_to_fit();
        }
    }

    /// Ground truth from the streaming fold, for any horizon at or before
    /// the current virtual time. Identical — field for field — to
    /// [`GroundTruth::from_trace`] over a full trace of the same run.
    ///
    /// # Panics
    /// Panics if `config.slot_secs` differs from the streaming fold's
    /// slot width (set it before the run with
    /// [`Monitor::set_stream_slot_secs`], or retain a trace).
    pub fn ground_truth(&self, horizon_secs: f64, config: GroundTruthConfig) -> GroundTruth {
        assert!(
            config.slot_secs == self.stream.slot_secs,
            "streaming monitor folds {} s slots but {} s were requested; \
             call set_stream_slot_secs before the run or enable trace mode",
            self.stream.slot_secs,
            config.slot_secs
        );
        let n_slots = (horizon_secs / config.slot_secs).round() as usize;
        let mut values = vec![0.0; n_slots];
        let n = n_slots.min(self.stream.slot_max.len());
        values[..n].copy_from_slice(&self.stream.slot_max[..n]);
        let qdelay = SlotSeries::from_values(config.slot_secs, values);

        let mut machine = EpisodeMachine::new(config.highwater_frac * config.queue_capacity_secs);
        for d in &self.stream.drops {
            if d.t.as_secs_f64() >= horizon_secs {
                break;
            }
            machine.drop_with_sag(d.t, d.sag);
        }
        GroundTruth::assemble(
            config,
            machine.finish(),
            qdelay,
            n_slots,
            self.router_loss_rate(),
        )
    }
}

/// Parameters controlling ground-truth episode extraction.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GroundTruthConfig {
    /// Slot width in seconds for the congestion-indicator series (the
    /// paper's discretization, default 5 ms).
    pub slot_secs: f64,
    /// Queue drain-time capacity in seconds (the "100 milliseconds of
    /// packets" the testbed buffer held).
    pub queue_capacity_secs: f64,
    /// Fraction of capacity above which the queue counts as "at the
    /// high-water mark" when bridging consecutive drops into one episode
    /// (the paper used within 10 ms of a 100 ms maximum, i.e. 0.9).
    pub highwater_frac: f64,
}

impl Default for GroundTruthConfig {
    fn default() -> Self {
        Self {
            slot_secs: 0.005,
            queue_capacity_secs: 0.1,
            highwater_frac: 0.9,
        }
    }
}

/// A loss episode in continuous time, bounded by packet drops.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossEpisode {
    /// Time of the first drop of the episode.
    pub start: SimTime,
    /// Time of the last drop of the episode.
    pub end: SimTime,
    /// Number of packets dropped during the episode.
    pub drops: u64,
}

impl LossEpisode {
    /// Episode duration in seconds (zero for an isolated single drop).
    pub fn duration_secs(&self) -> f64 {
        self.end.since(self.start).as_secs_f64()
    }
}

/// The §3 / §4.2 episode state machine: drops delimit episodes, and two
/// consecutive drops share an episode only if the queue never sagged below
/// the high-water mark in between. The sag includes the delay observed at
/// the drop instants themselves — a drop recorded at a low queue delay
/// (RED early drops, particle-accounted buffers full of small packets)
/// must be able to split an episode even when no enqueue or departure was
/// observed between the two drops.
#[derive(Debug, Clone)]
struct EpisodeMachine {
    highwater: f64,
    episodes: Vec<LossEpisode>,
    current: Option<LossEpisode>,
    min_qdelay_since_drop: f64,
}

impl EpisodeMachine {
    fn new(highwater: f64) -> Self {
        Self {
            highwater,
            episodes: Vec::new(),
            current: None,
            min_qdelay_since_drop: f64::INFINITY,
        }
    }

    /// Fold a non-drop observation of the queue delay.
    fn observe(&mut self, qdelay_secs: f64) {
        if qdelay_secs < self.min_qdelay_since_drop {
            self.min_qdelay_since_drop = qdelay_secs;
        }
    }

    /// A drop at `t` whose own observed delay is `qdelay_secs`.
    fn drop_at(&mut self, t: SimTime, qdelay_secs: f64) {
        self.observe(qdelay_secs);
        let sag = self.min_qdelay_since_drop;
        self.drop_with_sag(t, sag);
        // The drop's own observation also seeds the next interval (see
        // `StreamFold::fold`).
        self.min_qdelay_since_drop = qdelay_secs;
    }

    /// A drop at `t` where the minimum delay since the previous drop
    /// (including this drop's own delay) is already known — the replay
    /// path over a streaming fold's precomputed drop log.
    fn drop_with_sag(&mut self, t: SimTime, sag: f64) {
        match self.current.as_mut() {
            Some(ep) if sag >= self.highwater => {
                ep.end = t;
                ep.drops += 1;
            }
            Some(ep) => {
                self.episodes.push(*ep);
                self.current = Some(LossEpisode {
                    start: t,
                    end: t,
                    drops: 1,
                });
            }
            None => {
                self.current = Some(LossEpisode {
                    start: t,
                    end: t,
                    drops: 1,
                });
            }
        }
    }

    fn finish(mut self) -> Vec<LossEpisode> {
        if let Some(ep) = self.current {
            self.episodes.push(ep);
        }
        self.episodes
    }
}

/// Ground truth derived from a monitor over `[0, horizon)`.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Extraction parameters used.
    pub config: GroundTruthConfig,
    /// Continuous-time loss episodes.
    pub episodes: Vec<LossEpisode>,
    /// Slot-level congestion indicators (true episode coverage).
    pub congested: EpisodeSet,
    /// Per-slot maximum queue drain time in seconds.
    pub qdelay: SlotSeries,
    /// Router-centric loss rate over the horizon.
    pub router_loss_rate: f64,
}

impl GroundTruth {
    /// Extract ground truth from `monitor` for a run of length
    /// `horizon_secs`: record-by-record from the retained trace when the
    /// monitor has one, from the streaming fold otherwise. The two paths
    /// produce identical results (see the differential tests).
    pub fn extract(monitor: &Monitor, horizon_secs: f64, config: GroundTruthConfig) -> Self {
        if monitor.is_tracing() {
            Self::from_trace(monitor, horizon_secs, config)
        } else {
            monitor.ground_truth(horizon_secs, config)
        }
    }

    /// Extract ground truth by folding the retained trace (requires trace
    /// mode; the streaming path is [`Monitor::ground_truth`]).
    pub fn from_trace(monitor: &Monitor, horizon_secs: f64, config: GroundTruthConfig) -> Self {
        let n_slots = (horizon_secs / config.slot_secs).round() as usize;
        let mut qdelay = SlotSeries::new(n_slots, config.slot_secs);
        for r in monitor.records() {
            qdelay.record_max(r.t.as_secs_f64(), r.qdelay_secs);
        }

        let mut machine = EpisodeMachine::new(config.highwater_frac * config.queue_capacity_secs);
        for r in monitor.records() {
            if r.t.as_secs_f64() >= horizon_secs {
                break;
            }
            match r.event {
                TraceEvent::Drop => machine.drop_at(r.t, r.qdelay_secs),
                TraceEvent::Enqueue | TraceEvent::Depart => machine.observe(r.qdelay_secs),
            }
        }

        Self::assemble(
            config,
            machine.finish(),
            qdelay,
            n_slots,
            monitor.router_loss_rate(),
        )
    }

    /// Common tail of both extraction paths: episode list → slot
    /// indicator series → assembled result.
    fn assemble(
        config: GroundTruthConfig,
        episodes: Vec<LossEpisode>,
        qdelay: SlotSeries,
        n_slots: usize,
        router_loss_rate: f64,
    ) -> Self {
        // Slot indicator: a slot is congested if it overlaps an episode.
        let mut slots = vec![false; n_slots];
        for ep in &episodes {
            let first = (ep.start.as_secs_f64() / config.slot_secs) as usize;
            let last = (ep.end.as_secs_f64() / config.slot_secs) as usize;
            for s in slots
                .iter_mut()
                .take(last.min(n_slots.saturating_sub(1)) + 1)
                .skip(first.min(n_slots))
            {
                *s = true;
            }
        }
        let congested = EpisodeSet::from_bools(&slots);

        Self {
            config,
            episodes,
            congested,
            qdelay,
            router_loss_rate,
        }
    }

    /// True episode frequency `F`: fraction of congested slots.
    pub fn frequency(&self) -> f64 {
        self.congested.frequency()
    }

    /// True mean episode duration in seconds, from continuous-time episodes
    /// (one slot width is added to close the half-open drop interval, so an
    /// isolated drop contributes one slot rather than zero).
    pub fn mean_duration_secs(&self) -> f64 {
        if self.episodes.is_empty() {
            return 0.0;
        }
        let total: f64 = self
            .episodes
            .iter()
            .map(|e| e.duration_secs() + self.config.slot_secs)
            .sum();
        total / self.episodes.len() as f64
    }

    /// Mean loss-free period between consecutive episodes, in seconds
    /// (zero with fewer than two episodes).
    pub fn mean_loss_free_secs(&self) -> f64 {
        if self.episodes.len() < 2 {
            return 0.0;
        }
        let total: f64 = self
            .episodes
            .windows(2)
            .map(|w| w[1].start.since(w[0].end).as_secs_f64())
            .sum();
        total / (self.episodes.len() - 1) as f64
    }

    /// Standard deviation of episode durations in seconds.
    pub fn std_duration_secs(&self) -> f64 {
        if self.episodes.len() < 2 {
            return 0.0;
        }
        let mean = self.mean_duration_secs();
        let var = self
            .episodes
            .iter()
            .map(|e| {
                let d = e.duration_secs() + self.config.slot_secs - mean;
                d * d
            })
            .sum::<f64>()
            / self.episodes.len() as f64;
        var.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;

    fn pkt(id: u64, probe: bool) -> Packet {
        Packet {
            id,
            flow: FlowId(if probe { 99 } else { 1 }),
            size: 1500,
            created: SimTime::ZERO,
            kind: if probe {
                PacketKind::Probe {
                    experiment: 0,
                    slot: 0,
                    idx: 0,
                    probe_len: 1,
                    seq: id,
                }
            } else {
                PacketKind::Udp { seq: id }
            },
        }
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    /// Extract through both paths and assert they agree exactly; returns
    /// the streaming result. The monitor must be in trace mode.
    fn extract_both(m: &Monitor, horizon: f64, cfg: GroundTruthConfig) -> GroundTruth {
        let traced = GroundTruth::from_trace(m, horizon, cfg);
        let streamed = m.ground_truth(horizon, cfg);
        assert_eq!(traced.episodes, streamed.episodes, "episode mismatch");
        assert_eq!(
            traced.congested.episodes(),
            streamed.congested.episodes(),
            "slot indicator mismatch"
        );
        assert_eq!(
            traced.qdelay.values(),
            streamed.qdelay.values(),
            "qdelay series mismatch"
        );
        assert_eq!(traced.router_loss_rate, streamed.router_loss_rate);
        streamed
    }

    #[test]
    fn counters_and_loss_rate() {
        let mut m = Monitor::default();
        m.record(t(0.0), TraceEvent::Enqueue, &pkt(0, false), 0.01);
        m.record(t(0.1), TraceEvent::Depart, &pkt(0, false), 0.0);
        m.record(t(0.2), TraceEvent::Drop, &pkt(1, false), 0.1);
        m.record(t(0.3), TraceEvent::Drop, &pkt(2, true), 0.1);
        assert_eq!(m.enqueues(), 1);
        assert_eq!(m.departs(), 1);
        assert_eq!(m.drops(), 2);
        assert_eq!(m.probe_drops(), 1);
        assert!((m.router_loss_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_monitor_loss_rate_is_zero() {
        assert_eq!(Monitor::default().router_loss_rate(), 0.0);
    }

    #[test]
    fn streaming_is_the_default_and_retains_no_records() {
        let mut m = Monitor::default();
        assert!(!m.is_tracing());
        m.record(t(0.1), TraceEvent::Enqueue, &pkt(0, false), 0.01);
        assert!(m.records().is_empty());
        assert_eq!(m.records_bytes(), 0);
        assert!(m.streaming_bytes() > 0);
        assert!(m.peak_bytes() >= m.streaming_bytes());
    }

    #[test]
    fn drops_bridged_while_queue_stays_high() {
        let mut m = Monitor::with_trace();
        // Queue rises, a cluster of drops with queue pinned at capacity.
        m.record(t(0.010), TraceEvent::Enqueue, &pkt(0, false), 0.095);
        m.record(t(0.020), TraceEvent::Drop, &pkt(1, false), 0.100);
        m.record(t(0.025), TraceEvent::Enqueue, &pkt(2, false), 0.099);
        m.record(t(0.040), TraceEvent::Drop, &pkt(3, false), 0.100);
        // Queue drains well below high water, then a second episode.
        m.record(t(0.100), TraceEvent::Depart, &pkt(0, false), 0.020);
        m.record(t(0.300), TraceEvent::Drop, &pkt(4, false), 0.100);
        let gt = extract_both(&m, 1.0, GroundTruthConfig::default());
        assert_eq!(gt.episodes.len(), 2);
        assert_eq!(gt.episodes[0].drops, 2);
        assert!((gt.episodes[0].duration_secs() - 0.020).abs() < 1e-9);
        assert_eq!(gt.episodes[1].drops, 1);
        assert_eq!(gt.episodes[1].duration_secs(), 0.0);
    }

    #[test]
    fn sag_observed_only_at_the_drop_instant_still_splits_episodes() {
        // Regression for the lost-sag bug: the queue sags below high water
        // but the *only* event carrying that observation is the next drop
        // itself (a RED early drop at moderate delay, say). The old
        // extractor never folded a Drop's own qdelay into the sag, so the
        // two drops were bridged into one episode.
        let cfg = GroundTruthConfig::default(); // highwater at 0.09 s
        let mut m = Monitor::with_trace();
        m.record(t(0.020), TraceEvent::Drop, &pkt(0, false), 0.100);
        // Next event: a drop observed at a low queue delay.
        m.record(t(0.050), TraceEvent::Drop, &pkt(1, false), 0.030);
        // And a third drop back at capacity: the low observation at
        // t=0.050 must also split this pair.
        m.record(t(0.080), TraceEvent::Drop, &pkt(2, false), 0.100);
        let gt = extract_both(&m, 1.0, cfg);
        assert_eq!(
            gt.episodes.len(),
            3,
            "a sag observed only at drop instants must split episodes"
        );
        // Control: same shape with the middle drop at capacity bridges.
        let mut m2 = Monitor::with_trace();
        m2.record(t(0.020), TraceEvent::Drop, &pkt(0, false), 0.100);
        m2.record(t(0.050), TraceEvent::Drop, &pkt(1, false), 0.100);
        m2.record(t(0.080), TraceEvent::Drop, &pkt(2, false), 0.100);
        let gt2 = extract_both(&m2, 1.0, cfg);
        assert_eq!(gt2.episodes.len(), 1);
        assert_eq!(gt2.episodes[0].drops, 3);
    }

    #[test]
    fn isolated_drop_counts_one_slot() {
        let mut m = Monitor::with_trace();
        m.record(t(0.0521), TraceEvent::Drop, &pkt(0, false), 0.1);
        let gt = extract_both(&m, 1.0, GroundTruthConfig::default());
        assert_eq!(gt.episodes.len(), 1);
        assert_eq!(gt.congested.count(), 1);
        assert_eq!(gt.congested.congested_slots(), 1);
        // Frequency: 1 congested slot of 200.
        assert!((gt.frequency() - 1.0 / 200.0).abs() < 1e-12);
        assert!((gt.mean_duration_secs() - 0.005).abs() < 1e-12);
    }

    #[test]
    fn slot_indicator_covers_episode_span() {
        let mut m = Monitor::with_trace();
        m.record(t(0.010), TraceEvent::Drop, &pkt(0, false), 0.1);
        m.record(t(0.011), TraceEvent::Enqueue, &pkt(1, false), 0.099);
        m.record(t(0.032), TraceEvent::Drop, &pkt(2, false), 0.1);
        let gt = extract_both(&m, 0.1, GroundTruthConfig::default());
        // Episode spans 10ms..32ms → slots 2..=6 congested.
        assert_eq!(gt.congested.count(), 1);
        assert_eq!(gt.congested.episodes()[0].start, 2);
        assert_eq!(gt.congested.episodes()[0].end, 7);
    }

    #[test]
    fn qdelay_series_tracks_maxima() {
        let mut m = Monitor::with_trace();
        m.record(t(0.001), TraceEvent::Enqueue, &pkt(0, false), 0.02);
        m.record(t(0.002), TraceEvent::Enqueue, &pkt(1, false), 0.05);
        m.record(t(0.007), TraceEvent::Depart, &pkt(0, false), 0.03);
        let gt = extract_both(&m, 0.02, GroundTruthConfig::default());
        assert_eq!(gt.qdelay.len(), 4);
        assert!((gt.qdelay.values()[0] - 0.05).abs() < 1e-12);
        assert!((gt.qdelay.values()[1] - 0.03).abs() < 1e-12);
    }

    #[test]
    fn loss_free_period_between_episodes() {
        // Records fed in time order (the monitor contract): drops at 0.10,
        // 0.50, 1.10 with full drains between them → three episodes with
        // gaps of 0.4 and 0.6 s: mean 0.5.
        let mut m = Monitor::with_trace();
        m.record(t(0.10), TraceEvent::Drop, &pkt(0, false), 0.1);
        m.record(t(0.2), TraceEvent::Depart, &pkt(0, false), 0.0);
        m.record(t(0.50), TraceEvent::Drop, &pkt(1, false), 0.1);
        m.record(t(0.6), TraceEvent::Depart, &pkt(1, false), 0.0);
        m.record(t(1.10), TraceEvent::Drop, &pkt(2, false), 0.1);
        let gt = extract_both(&m, 2.0, GroundTruthConfig::default());
        assert_eq!(gt.episodes.len(), 3);
        assert!((gt.mean_loss_free_secs() - 0.5).abs() < 1e-9);
        // Single episode → zero.
        let mut m2 = Monitor::default();
        m2.record(t(0.1), TraceEvent::Drop, &pkt(0, false), 0.1);
        let gt2 = GroundTruth::extract(&m2, 1.0, GroundTruthConfig::default());
        assert_eq!(gt2.mean_loss_free_secs(), 0.0);
    }

    #[test]
    fn events_beyond_horizon_are_ignored_for_episodes() {
        let mut m = Monitor::with_trace();
        m.record(t(0.5), TraceEvent::Drop, &pkt(0, false), 0.1);
        m.record(t(2.0), TraceEvent::Drop, &pkt(1, false), 0.1);
        let gt = extract_both(&m, 1.0, GroundTruthConfig::default());
        assert_eq!(gt.episodes.len(), 1);
    }

    #[test]
    fn no_drops_means_no_episodes() {
        let mut m = Monitor::with_trace();
        m.record(t(0.1), TraceEvent::Enqueue, &pkt(0, false), 0.01);
        m.record(t(0.2), TraceEvent::Depart, &pkt(0, false), 0.0);
        let gt = extract_both(&m, 1.0, GroundTruthConfig::default());
        assert!(gt.episodes.is_empty());
        assert_eq!(gt.frequency(), 0.0);
        assert_eq!(gt.mean_duration_secs(), 0.0);
        assert_eq!(gt.std_duration_secs(), 0.0);
    }

    #[test]
    fn streaming_truth_is_available_mid_run() {
        let mut m = Monitor::default();
        m.record(t(0.10), TraceEvent::Drop, &pkt(0, false), 0.1);
        let early = m.ground_truth(0.5, GroundTruthConfig::default());
        assert_eq!(early.episodes.len(), 1);
        // Keep running; the early snapshot's horizon still excludes what
        // came later.
        m.record(t(0.60), TraceEvent::Depart, &pkt(0, false), 0.0);
        m.record(t(0.80), TraceEvent::Drop, &pkt(1, false), 0.1);
        let again = m.ground_truth(0.5, GroundTruthConfig::default());
        assert_eq!(again.episodes, early.episodes);
        let full = m.ground_truth(1.0, GroundTruthConfig::default());
        assert_eq!(full.episodes.len(), 2);
    }

    #[test]
    fn clear_records_releases_the_allocation() {
        let mut m = Monitor::with_trace();
        for i in 0..1000 {
            m.record(
                t(i as f64 * 0.001),
                TraceEvent::Enqueue,
                &pkt(i, false),
                0.01,
            );
        }
        let before = m.records_bytes();
        assert!(before >= 1000 * std::mem::size_of::<TraceRecord>());
        m.clear_records();
        assert_eq!(m.records_bytes(), 0, "clear must release the buffer");
        assert!(m.is_tracing(), "mode survives a clear");
        // Peak keeps the high-water mark.
        assert!(m.peak_bytes() >= before);
        // Counters and the streaming fold survive.
        assert_eq!(m.enqueues(), 1000);
        assert_eq!(m.stream_slots(), 200);
    }

    #[test]
    fn streaming_memory_tracks_slots_not_events() {
        // Many events inside few slots: the fold must not grow.
        let mut m = Monitor::default();
        for i in 0..10_000 {
            m.record(
                t(0.001 + (i % 7) as f64 * 1e-6),
                TraceEvent::Enqueue,
                &pkt(i, false),
                0.01,
            );
        }
        assert_eq!(m.stream_slots(), 1);
        assert_eq!(m.drop_points(), 0);
        assert!(
            m.streaming_bytes() < 4096,
            "10k events in one slot must stay tiny, got {}",
            m.streaming_bytes()
        );
    }

    #[test]
    #[should_panic(expected = "enable_trace after events")]
    fn late_trace_enable_panics() {
        let mut m = Monitor::default();
        m.record(t(0.1), TraceEvent::Enqueue, &pkt(0, false), 0.01);
        m.enable_trace();
    }

    #[test]
    #[should_panic(expected = "streaming monitor folds")]
    fn streaming_slot_width_mismatch_panics() {
        let mut m = Monitor::default();
        m.record(t(0.1), TraceEvent::Enqueue, &pkt(0, false), 0.01);
        let cfg = GroundTruthConfig {
            slot_secs: 0.010,
            ..Default::default()
        };
        let _ = m.ground_truth(1.0, cfg);
    }

    #[test]
    fn stream_slot_width_is_configurable_before_the_run() {
        let mut m = Monitor::default();
        m.set_stream_slot_secs(0.010);
        m.record(t(0.015), TraceEvent::Enqueue, &pkt(0, false), 0.02);
        let cfg = GroundTruthConfig {
            slot_secs: 0.010,
            ..Default::default()
        };
        let gt = m.ground_truth(0.05, cfg);
        assert_eq!(gt.qdelay.len(), 5);
        assert!((gt.qdelay.values()[1] - 0.02).abs() < 1e-12);
    }
}
