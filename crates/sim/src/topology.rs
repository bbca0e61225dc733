//! The standard experiment topology.
//!
//! Every experiment in the paper runs on the same dumbbell (Figure 3):
//! sources feed a single OC3 bottleneck (155 Mb/s payload rate, ~100 ms of
//! buffer) with 50 ms of emulated propagation delay per direction, and a
//! passive monitor watches the bottleneck. [`Dumbbell`] wires that up once
//! so that the per-experiment harnesses only attach sources and sinks.

use crate::engine::Simulator;
use crate::monitor::{GroundTruth, GroundTruthConfig, Monitor, MonitorHandle};
use crate::node::{Node, NodeId};
use crate::packet::FlowId;
use crate::queue::{DropTailQueue, FlowDemux};
use crate::red::{RedConfig, RedQueue};
use crate::time::{SimDuration, SimTime};

/// Parameters of the dumbbell; defaults match the paper's testbed.
#[derive(Debug, Clone, Copy)]
pub struct DumbbellConfig {
    /// Bottleneck service rate in bits/second. Default: OC3 payload rate,
    /// 155.52 Mb/s.
    pub bottleneck_rate_bps: u64,
    /// Bottleneck buffer expressed as drain time in seconds. Default 0.1
    /// (the testbed queue held "approximately 100 milliseconds of packets").
    pub buffer_secs: f64,
    /// Forward-path propagation delay from the bottleneck to receivers.
    /// Default 50 ms (the Adtech SX-14 added 50 ms each way).
    pub forward_delay: SimDuration,
    /// Reverse-path delay (receiver back to sender, uncongested in the
    /// testbed). Default 50 ms.
    pub reverse_delay: SimDuration,
    /// Access delay from a source into the bottleneck (the GE/OC12 ingress,
    /// effectively uncongested). Default 0.1 ms.
    pub ingress_delay: SimDuration,
    /// Buffer-allocation particle size at the bottleneck. The testbed's
    /// Cisco GSR carves buffers into fixed particles, which is why the
    /// paper's 600-byte probes stress the buffer like full-size frames
    /// (§6.1 footnote); default 1500 models that. Set 1 for exact byte
    /// accounting.
    pub buffer_cell_bytes: u32,
}

impl Default for DumbbellConfig {
    fn default() -> Self {
        Self {
            bottleneck_rate_bps: 155_520_000,
            buffer_secs: 0.1,
            forward_delay: SimDuration::from_millis(50),
            reverse_delay: SimDuration::from_millis(50),
            ingress_delay: SimDuration::from_micros(100),
            buffer_cell_bytes: 1500,
        }
    }
}

impl DumbbellConfig {
    /// Buffer capacity in bytes implied by `buffer_secs`.
    pub fn buffer_bytes(&self) -> u64 {
        (self.buffer_secs * self.bottleneck_rate_bps as f64 / 8.0) as u64
    }

    /// Base round-trip time for the standard configuration (forward +
    /// reverse propagation, excluding queueing): the paper's `M`.
    pub fn base_rtt(&self) -> SimDuration {
        self.forward_delay + self.reverse_delay + self.ingress_delay
    }
}

/// The wired dumbbell: a simulator pre-populated with the bottleneck queue,
/// the egress demux, and a passive monitor.
pub struct Dumbbell {
    /// The simulator; attach sources/sinks with [`Dumbbell::add_node`] and
    /// run with [`Dumbbell::run_for`].
    pub sim: Simulator,
    config: DumbbellConfig,
    queue_id: NodeId,
    demux_id: NodeId,
    monitor: MonitorHandle,
}

impl Dumbbell {
    /// Build the dumbbell with the given configuration (drop-tail
    /// bottleneck, as in the testbed).
    pub fn new(config: DumbbellConfig) -> Self {
        let mut sim = Simulator::new();
        let monitor = Monitor::new_handle();
        let demux_id = sim.add_node(Box::new(FlowDemux::new()));
        let queue_id = sim.add_node(Box::new(
            DropTailQueue::new(
                config.bottleneck_rate_bps,
                config.buffer_bytes(),
                demux_id,
                config.forward_delay,
            )
            .with_cell_bytes(config.buffer_cell_bytes)
            .with_monitor(monitor.clone()),
        ));
        Self {
            sim,
            config,
            queue_id,
            demux_id,
            monitor,
        }
    }

    /// Build the dumbbell with a RED (AQM) bottleneck instead of
    /// drop-tail — used by the robustness ablations; the paper's testbed
    /// was drop-tail only.
    pub fn new_red(config: DumbbellConfig, red: RedConfig, rng: rand::rngs::StdRng) -> Self {
        let mut sim = Simulator::new();
        let monitor = Monitor::new_handle();
        let demux_id = sim.add_node(Box::new(FlowDemux::new()));
        let queue_id = sim.add_node(Box::new(
            RedQueue::new(
                config.bottleneck_rate_bps,
                config.buffer_bytes(),
                demux_id,
                config.forward_delay,
                red,
                rng,
            )
            .with_monitor(monitor.clone()),
        ));
        Self {
            sim,
            config,
            queue_id,
            demux_id,
            monitor,
        }
    }

    /// Build with the paper's default testbed parameters.
    pub fn standard() -> Self {
        Self::new(DumbbellConfig::default())
    }

    /// Configuration in use.
    pub fn config(&self) -> &DumbbellConfig {
        &self.config
    }

    /// The node id sources should send into (the bottleneck queue).
    pub fn bottleneck(&self) -> NodeId {
        self.queue_id
    }

    /// The ingress delay sources should use when sending into the
    /// bottleneck.
    pub fn ingress_delay(&self) -> SimDuration {
        self.config.ingress_delay
    }

    /// Shared monitor handle.
    pub fn monitor(&self) -> MonitorHandle {
        self.monitor.clone()
    }

    /// Opt the bottleneck monitor into full per-event trace retention
    /// (memory then grows with the event count — see the monitor-modes
    /// notes in DESIGN.md). Call before the first `run_for`.
    ///
    /// # Panics
    /// Panics if events have already been recorded.
    pub fn enable_trace(&mut self) {
        self.monitor.borrow_mut().enable_trace();
    }

    /// Add an arbitrary node (source, sink, prober) to the simulation.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        self.sim.add_node(node)
    }

    /// Route `flow`'s bottleneck departures to `dst`.
    pub fn route_flow(&mut self, flow: FlowId, dst: NodeId) {
        self.sim
            .node_mut::<FlowDemux>(self.demux_id)
            .register(flow, dst);
    }

    /// Route any flow without an explicit entry to `dst` (for dynamically
    /// created flows, e.g. web sessions).
    pub fn route_default(&mut self, dst: NodeId) {
        self.sim
            .node_mut::<FlowDemux>(self.demux_id)
            .set_default(dst);
    }

    /// Packets of unregistered flows seen at the egress demux.
    pub fn unrouted(&self) -> u64 {
        self.sim.node::<FlowDemux>(self.demux_id).unrouted()
    }

    /// Run the simulation for `secs` of virtual time (from t = 0).
    pub fn run_for(&mut self, secs: f64) {
        self.sim.run_until(SimTime::from_secs_f64(secs));
    }

    /// Extract ground truth for a run of `horizon_secs`, using the
    /// configured buffer size and default slotting.
    pub fn ground_truth(&self, horizon_secs: f64) -> GroundTruth {
        self.ground_truth_with(
            horizon_secs,
            GroundTruthConfig {
                queue_capacity_secs: self.config.buffer_secs,
                ..Default::default()
            },
        )
    }

    /// Extract ground truth with explicit parameters.
    pub fn ground_truth_with(&self, horizon_secs: f64, cfg: GroundTruthConfig) -> GroundTruth {
        GroundTruth::extract(&self.monitor.borrow(), horizon_secs, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Context, CountingSink};
    use crate::packet::{Packet, PacketKind};
    use std::any::Any;

    #[test]
    fn config_defaults_match_testbed() {
        let c = DumbbellConfig::default();
        assert_eq!(c.bottleneck_rate_bps, 155_520_000);
        // 100 ms at OC3 ≈ 1.944 MB.
        assert_eq!(c.buffer_bytes(), 1_944_000);
        assert_eq!(c.forward_delay, SimDuration::from_millis(50));
        // Base RTT ≈ 100.1 ms.
        assert!((c.base_rtt().as_secs_f64() - 0.1001).abs() < 1e-9);
    }

    /// A source that sends one burst of `n` packets into the bottleneck.
    struct Burst {
        dst: NodeId,
        delay: SimDuration,
        n: u64,
        flow: FlowId,
    }
    impl Node for Burst {
        fn start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::ZERO, 0);
        }
        fn on_packet(&mut self, _p: Packet, _c: &mut Context<'_>) {}
        fn on_timer(&mut self, _t: u64, ctx: &mut Context<'_>) {
            for i in 0..self.n {
                let pkt = Packet {
                    id: ctx.next_packet_id(),
                    flow: self.flow,
                    size: 1500,
                    created: ctx.now(),
                    kind: PacketKind::Udp { seq: i },
                };
                ctx.send(self.dst, pkt, self.delay);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn end_to_end_through_dumbbell() {
        let mut db = Dumbbell::standard();
        let sink = db.add_node(Box::new(CountingSink::new()));
        db.route_flow(FlowId(1), sink);
        let bottleneck = db.bottleneck();
        let ingress = db.ingress_delay();
        db.add_node(Box::new(Burst {
            dst: bottleneck,
            delay: ingress,
            n: 10,
            flow: FlowId(1),
        }));
        db.run_for(1.0);
        assert_eq!(db.sim.node::<CountingSink>(sink).received(), 10);
        assert_eq!(db.unrouted(), 0);
        assert_eq!(db.monitor().borrow().drops(), 0);
    }

    #[test]
    fn burst_overflow_is_visible_in_ground_truth() {
        // Shrink the buffer so a single burst overflows it.
        let cfg = DumbbellConfig {
            buffer_secs: 0.001, // 1 ms at OC3 ≈ 19 440 bytes ≈ 12 packets
            ..Default::default()
        };
        let mut db = Dumbbell::new(cfg);
        let sink = db.add_node(Box::new(CountingSink::new()));
        db.route_flow(FlowId(1), sink);
        let bottleneck = db.bottleneck();
        let ingress = db.ingress_delay();
        db.add_node(Box::new(Burst {
            dst: bottleneck,
            delay: ingress,
            n: 100,
            flow: FlowId(1),
        }));
        db.run_for(1.0);
        let gt = db.ground_truth(1.0);
        assert!(gt.router_loss_rate > 0.0);
        assert!(!gt.episodes.is_empty());
        let received = db.sim.node::<CountingSink>(sink).received();
        assert_eq!(received + db.monitor().borrow().drops(), 100);
    }
}
