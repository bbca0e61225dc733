//! The BADABING prober as simulation nodes, plus the analysis harness.
//!
//! The sender walks the geometric experiment schedule from
//! [`badabing_core::schedule`], sending one multi-packet probe per
//! scheduled slot (§6: 3 packets of 600 bytes, ~30 µs apart). The receiver
//! timestamps arrivals and, after the run, sender and receiver logs go
//! through [`badabing_core::analysis`] — the same pipeline the live tool
//! uses.

use badabing_core::analysis::{self, Analysis, ProbeArrival, SentProbe};
use badabing_core::config::BadabingConfig;
use badabing_core::detector::ProbeObservation;
use badabing_core::schedule::ExperimentScheduler;
use badabing_sim::engine::Simulator;
use badabing_sim::node::{Context, Node, NodeId};
use badabing_sim::packet::{FlowId, Packet, PacketKind};
use badabing_sim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use std::any::Any;
use std::collections::HashMap;

/// A planned probe (slot, experiment, precomputed send instant).
#[derive(Debug, Clone, Copy)]
struct PlannedProbe {
    slot: u64,
    experiment: u64,
    /// Exact send time; comparisons use this `SimTime` (never a float
    /// round-trip, which could alias a slot boundary to the previous
    /// slot and stall the send loop).
    at: SimTime,
}

const TOKEN_SEND: u64 = 0;

/// The sending node.
pub struct BadabingProber {
    cfg: BadabingConfig,
    flow: FlowId,
    bottleneck: NodeId,
    ingress_delay: SimDuration,
    n_slots: u64,
    rng: Option<StdRng>,
    plan: Vec<PlannedProbe>,
    cursor: usize,
    sent: Vec<SentProbe>,
    seq: u64,
}

impl BadabingProber {
    /// Create a prober that runs `n_slots` slots of the configured width.
    pub fn new(
        cfg: BadabingConfig,
        n_slots: u64,
        flow: FlowId,
        bottleneck: NodeId,
        ingress_delay: SimDuration,
        rng: StdRng,
    ) -> Self {
        Self {
            cfg,
            flow,
            bottleneck,
            ingress_delay,
            n_slots,
            rng: Some(rng),
            plan: Vec::new(),
            cursor: 0,
            sent: Vec::new(),
            seq: 0,
        }
    }

    /// Sender-side log of every probe sent.
    pub fn sent(&self) -> &[SentProbe] {
        &self.sent
    }

    /// Number of experiments in the plan.
    pub fn planned_experiments(&self) -> u64 {
        self.plan.last().map_or(0, |p| p.experiment + 1)
    }

    fn schedule_next(&self, ctx: &mut Context<'_>) {
        if let Some(next) = self.plan.get(self.cursor) {
            ctx.set_timer_at(next.at.max(ctx.now()), TOKEN_SEND);
        }
    }

    fn send_probe(&mut self, probe: PlannedProbe, ctx: &mut Context<'_>) {
        let n = self.cfg.probe_packets;
        for idx in 0..n {
            let extra = SimDuration::from_secs_f64(self.cfg.intra_probe_gap_secs * f64::from(idx));
            let pkt = Packet {
                id: ctx.next_packet_id(),
                flow: self.flow,
                size: self.cfg.packet_bytes,
                created: ctx.now() + extra,
                kind: PacketKind::Probe {
                    experiment: probe.experiment,
                    slot: probe.slot,
                    idx,
                    probe_len: n,
                    seq: self.seq,
                },
            };
            self.seq += 1;
            ctx.send(self.bottleneck, pkt, self.ingress_delay + extra);
        }
        self.sent.push(SentProbe {
            experiment: probe.experiment,
            slot: probe.slot,
            send_time_secs: ctx.now().as_secs_f64(),
            packets: n,
        });
    }
}

impl Node for BadabingProber {
    fn start(&mut self, ctx: &mut Context<'_>) {
        let rng = self.rng.take().expect("start called twice");
        let mut sched = ExperimentScheduler::new(self.cfg.p, self.cfg.improved, rng);
        let mut plan = Vec::new();
        for e in sched.take_run(self.n_slots) {
            for slot in e.slots() {
                let at = SimTime::from_secs_f64(self.cfg.slot_start_secs(slot));
                plan.push(PlannedProbe {
                    slot,
                    experiment: e.id,
                    at,
                });
            }
        }
        plan.sort_by_key(|p| p.slot);
        self.plan = plan;
        self.schedule_next(ctx);
    }

    fn on_packet(&mut self, _packet: Packet, _ctx: &mut Context<'_>) {}

    fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
        while let Some(&probe) = self.plan.get(self.cursor) {
            if probe.at > ctx.now() {
                break;
            }
            self.send_probe(probe, ctx);
            self.cursor += 1;
        }
        self.schedule_next(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The receiving node: joins per-packet arrivals into per-probe records.
#[derive(Default)]
pub struct BadabingReceiver {
    arrivals: HashMap<(u64, u64), ProbeArrival>,
}

impl BadabingReceiver {
    /// New empty receiver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arrival records keyed by (experiment, slot).
    pub fn arrivals(&self) -> &HashMap<(u64, u64), ProbeArrival> {
        &self.arrivals
    }
}

impl Node for BadabingReceiver {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        if let PacketKind::Probe {
            experiment, slot, ..
        } = packet.kind
        {
            let owd = packet.owd_secs(ctx.now());
            let rec = self.arrivals.entry((experiment, slot)).or_default();
            rec.received += 1;
            rec.owd_last_secs = owd;
            rec.owd_max_secs = rec.owd_max_secs.max(owd);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Wires a BADABING sender/receiver pair into a dumbbell and performs the
/// post-run analysis.
pub struct BadabingHarness {
    /// Sender node id.
    pub prober: NodeId,
    /// Receiver node id.
    pub receiver: NodeId,
    cfg: BadabingConfig,
    n_slots: u64,
}

impl BadabingHarness {
    /// Attach to a dumbbell: the probe flow is routed through the
    /// bottleneck to the receiver.
    pub fn attach(
        db: &mut badabing_sim::topology::Dumbbell,
        cfg: BadabingConfig,
        n_slots: u64,
        flow: FlowId,
        rng: StdRng,
    ) -> Self {
        let entry = db.bottleneck();
        Self::attach_via(db, cfg, n_slots, flow, entry, rng)
    }

    /// Attach to a dumbbell but send probes into `entry` instead of the
    /// bottleneck directly — used to interpose extra path elements (e.g.
    /// a [`badabing_sim::jitter::JitterLink`]) in front of the bottleneck.
    pub fn attach_via(
        db: &mut badabing_sim::topology::Dumbbell,
        cfg: BadabingConfig,
        n_slots: u64,
        flow: FlowId,
        entry: badabing_sim::node::NodeId,
        rng: StdRng,
    ) -> Self {
        let receiver = db.add_node(Box::new(BadabingReceiver::new()));
        db.route_flow(flow, receiver);
        let ingress = db.ingress_delay();
        let prober = db.add_node(Box::new(BadabingProber::new(
            cfg, n_slots, flow, entry, ingress, rng,
        )));
        Self {
            prober,
            receiver,
            cfg,
            n_slots,
        }
    }

    /// Attach to a multi-hop [`badabing_sim::tandem::TandemPath`]: probes
    /// enter at hop 0 and the receiver sits past the last hop.
    pub fn attach_tandem(
        path: &mut badabing_sim::tandem::TandemPath,
        cfg: BadabingConfig,
        n_slots: u64,
        flow: FlowId,
        rng: StdRng,
    ) -> Self {
        let receiver = path.add_node(Box::new(BadabingReceiver::new()));
        path.route_flow(flow, receiver);
        let ingress = path.ingress();
        let ingress_delay = path.ingress_delay();
        let prober = path.add_node(Box::new(BadabingProber::new(
            cfg,
            n_slots,
            flow,
            ingress,
            ingress_delay,
            rng,
        )));
        Self {
            prober,
            receiver,
            cfg,
            n_slots,
        }
    }

    /// The measurement horizon in seconds (`N × Δ`); run the simulation at
    /// least this long plus in-flight slack (≈ 1 s) before analyzing.
    pub fn horizon_secs(&self) -> f64 {
        self.n_slots as f64 * self.cfg.slot_secs
    }

    /// The configuration in use.
    pub fn config(&self) -> &BadabingConfig {
        &self.cfg
    }

    /// Join sender and receiver logs into time-ordered observations.
    pub fn observations(&self, sim: &Simulator) -> Vec<ProbeObservation> {
        let sent = sim.node::<BadabingProber>(self.prober).sent();
        let arrivals = sim.node::<BadabingReceiver>(self.receiver).arrivals();
        analysis::observe(sent, |s| arrivals.get(&(s.experiment, s.slot)).copied())
    }

    /// Run the detector + estimators over the collected observations.
    pub fn analyze(&self, sim: &Simulator) -> Analysis {
        let obs = self.observations(sim);
        Analysis::new(&self.cfg, &obs, self.n_slots, self.cfg.slot_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use badabing_sim::topology::Dumbbell;
    use badabing_stats::rng::seeded;
    use badabing_traffic::cbr::{attach_cbr, CbrEpisodeConfig};

    #[test]
    fn idle_path_reports_zero_frequency() {
        let mut db = Dumbbell::standard();
        let cfg = BadabingConfig::paper_default(0.5);
        let n_slots = 4_000; // 20 s
        let h = BadabingHarness::attach(&mut db, cfg, n_slots, FlowId(900), seeded(1, "bb"));
        db.run_for(h.horizon_secs() + 1.0);
        let a = h.analyze(&db.sim);
        assert!(a.log.len() > 1_500, "experiments: {}", a.log.len());
        assert_eq!(a.frequency(), Some(0.0));
        assert_eq!(a.duration_secs(), None, "no loss → duration undefined");
        assert_eq!(a.detector.probes_with_loss, 0);
        assert!(a.validation.passes(0.25));
    }

    #[test]
    fn probe_sender_covers_experiment_slots() {
        let mut db = Dumbbell::standard();
        let cfg = BadabingConfig::paper_default(1.0);
        let h = BadabingHarness::attach(&mut db, cfg, 100, FlowId(900), seeded(2, "bb-all"));
        db.run_for(2.0);
        let sent = db.sim.node::<BadabingProber>(h.prober).sent();
        // p = 1: an experiment starts at every slot 0..100, probing slots
        // i and i+1 → 200 probes total (2 per experiment).
        assert_eq!(sent.len(), 200);
        // Probes of one experiment sit in adjacent slots.
        let by_exp: std::collections::HashMap<u64, Vec<u64>> = {
            let mut m: std::collections::HashMap<u64, Vec<u64>> = Default::default();
            for s in sent {
                m.entry(s.experiment).or_default().push(s.slot);
            }
            m
        };
        for (exp, mut slots) in by_exp {
            slots.sort_unstable();
            assert_eq!(slots.len(), 2, "experiment {exp}");
            assert_eq!(slots[1], slots[0] + 1, "experiment {exp}");
        }
    }

    #[test]
    fn send_times_align_with_slot_starts() {
        let mut db = Dumbbell::standard();
        let cfg = BadabingConfig::paper_default(0.3);
        let h = BadabingHarness::attach(&mut db, cfg, 2_000, FlowId(900), seeded(3, "bb-align"));
        db.run_for(h.horizon_secs() + 0.5);
        for s in db.sim.node::<BadabingProber>(h.prober).sent() {
            let slot_start = h.config().slot_start_secs(s.slot);
            assert!(
                (s.send_time_secs - slot_start).abs() < 1e-9,
                "probe for slot {} sent at {}",
                s.slot,
                s.send_time_secs
            );
        }
    }

    #[test]
    fn detects_cbr_episodes_with_sensible_accuracy() {
        // The headline behaviour: with CBR loss episodes of 68 ms, a p=0.5
        // run of 2 minutes should land close to the ground truth.
        let mut db = Dumbbell::standard();
        let cbr = CbrEpisodeConfig {
            mean_gap_secs: 5.0,
            ..CbrEpisodeConfig::paper_default()
        };
        attach_cbr(&mut db, FlowId(1), cbr, seeded(10, "cbr"));
        let cfg = BadabingConfig::paper_default(0.5);
        let n_slots = 24_000; // 120 s
        let h = BadabingHarness::attach(&mut db, cfg, n_slots, FlowId(900), seeded(11, "bb"));
        db.run_for(h.horizon_secs() + 1.0);
        let gt = db.ground_truth(h.horizon_secs());
        let a = h.analyze(&db.sim);
        let f_true = gt.frequency();
        let f_hat = a.frequency().expect("nonempty run");
        assert!(f_true > 0.005, "ground truth too quiet: {f_true}");
        assert!(
            (f_hat - f_true).abs() / f_true < 0.5,
            "frequency: estimated {f_hat}, true {f_true}"
        );
        let d_true = gt.mean_duration_secs();
        let d_hat = a.duration_secs().expect("episodes observed");
        assert!(
            (d_hat - d_true).abs() / d_true < 0.5,
            "duration: estimated {d_hat}, true {d_true}"
        );
        assert!(a.validation.passes(0.5), "validation: {:?}", a.validation);
    }

    #[test]
    fn loss_rate_tracks_router_loss_rate_order_of_magnitude() {
        let mut db = Dumbbell::standard();
        let cbr = CbrEpisodeConfig {
            mean_gap_secs: 4.0,
            ..CbrEpisodeConfig::paper_default()
        };
        attach_cbr(&mut db, FlowId(1), cbr, seeded(31, "cbr"));
        let cfg = BadabingConfig::paper_default(0.7);
        let h = BadabingHarness::attach(&mut db, cfg, 24_000, FlowId(900), seeded(32, "bb"));
        db.run_for(h.horizon_secs() + 1.0);
        let a = h.analyze(&db.sim);
        let est = a.loss_rate().expect("loss observed");
        // Truth: the *end-to-end* loss rate a uniform packet stream would
        // see ≈ episode time fraction × in-episode drop fraction (~0.5 at
        // 2× overdrive): a small number of the same order as the router
        // loss rate experienced by the overdriving CBR flow itself.
        let gt = db.ground_truth(h.horizon_secs());
        let rough_truth = gt.frequency() * 0.5;
        assert!(
            est > rough_truth / 4.0 && est < rough_truth * 4.0,
            "loss rate estimate {est} vs rough truth {rough_truth}"
        );
    }

    #[test]
    fn improved_mode_produces_extended_experiments() {
        let mut db = Dumbbell::standard();
        let cfg = BadabingConfig::paper_default(0.5).with_improved();
        let h = BadabingHarness::attach(&mut db, cfg, 4_000, FlowId(900), seeded(4, "bb-imp"));
        db.run_for(h.horizon_secs() + 1.0);
        let a = h.analyze(&db.sim);
        assert!(a.estimates.extended_experiments > 0);
        assert!(a.estimates.basic_experiments > 0);
        let frac = a.estimates.extended_experiments as f64 / a.log.len() as f64;
        assert!((frac - 0.5).abs() < 0.1, "extended fraction {frac}");
    }

    #[test]
    fn observations_are_complete_and_ordered() {
        let mut db = Dumbbell::standard();
        let cfg = BadabingConfig::paper_default(0.3);
        let h = BadabingHarness::attach(&mut db, cfg, 2_000, FlowId(900), seeded(6, "bb-obs"));
        db.run_for(h.horizon_secs() + 1.0);
        let obs = h.observations(&db.sim);
        let sent = db.sim.node::<BadabingProber>(h.prober).sent().len();
        assert_eq!(obs.len(), sent);
        assert!(obs
            .windows(2)
            .all(|w| w[0].send_time_secs <= w[1].send_time_secs));
        // Idle path: every packet arrives, base OWD ≈ ingress + tx + 50 ms.
        for o in &obs {
            assert_eq!(o.packets_lost, 0);
            let owd = o.owd_max_secs.unwrap();
            assert!((0.0500..0.0520).contains(&owd), "owd {owd}");
        }
    }
}
