//! The simulation engine: node registry plus event loop.

use crate::event::{Event, EventQueue};
use crate::node::{Context, Node, NodeId};
use crate::time::SimTime;
use badabing_metrics::{Counter, Histogram, Registry};
use std::sync::Arc;

/// Upper bucket edges for the virtual-time step histogram: events in this
/// simulator are queueing/transmission-scale, so the interesting range is
/// sub-microsecond (coincident events) up to around a second (idle gaps).
const STEP_BOUNDS_SECS: [f64; 8] = [1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0];

/// Pre-resolved instrument handles so the dispatch loop never touches the
/// registry lock (see `badabing_metrics`' hot-path contract).
struct Instruments {
    registry: Arc<Registry>,
    deliver_events: Arc<Counter>,
    timer_events: Arc<Counter>,
    step: Arc<Histogram>,
}

/// Owns all nodes and the event queue; advances virtual time by dispatching
/// events in order.
pub struct Simulator {
    nodes: Vec<Box<dyn Node>>,
    queue: EventQueue,
    now: SimTime,
    started: bool,
    next_packet_id: u64,
    dispatched: u64,
    out_buf: Vec<(SimTime, NodeId, Event)>,
    instruments: Option<Instruments>,
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// An empty simulator at t = 0.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            started: false,
            next_packet_id: 0,
            dispatched: 0,
            out_buf: Vec::new(),
            instruments: None,
        }
    }

    /// Attach a metrics registry: every subsequent dispatch counts into
    /// `events_deliver` / `events_timer` and records its virtual-time
    /// advance in the `virtual_step_secs` histogram. Counters accumulate,
    /// so several simulators may share one registry (parallel replicate
    /// runs fold into pool totals).
    pub fn attach_metrics(&mut self, registry: Arc<Registry>) {
        self.instruments = Some(Instruments {
            deliver_events: registry.counter("events_deliver"),
            timer_events: registry.counter("events_timer"),
            step: registry.histogram_with("virtual_step_secs", &STEP_BOUNDS_SECS),
            registry,
        });
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<&Arc<Registry>> {
        self.instruments.as_ref().map(|i| &i.registry)
    }

    /// Register a node, returning its id.
    ///
    /// # Panics
    /// Panics if called after the simulation has started (node ids are
    /// wired into other nodes' routing, so late registration is a bug).
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        assert!(
            !self.started,
            "cannot add nodes after the simulation started"
        );
        let id = NodeId(self.nodes.len());
        self.nodes.push(node);
        id
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Number of events currently pending in the queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable downcast access to a node (for result extraction).
    ///
    /// # Panics
    /// Panics if the id is out of range or the concrete type does not match.
    pub fn node<T: Node>(&self, id: NodeId) -> &T {
        self.nodes[id.0]
            .as_any()
            .downcast_ref::<T>()
            .expect("node type mismatch in Simulator::node")
    }

    /// Mutable downcast access to a node.
    ///
    /// # Panics
    /// Panics if the id is out of range or the concrete type does not match.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> &mut T {
        self.nodes[id.0]
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("node type mismatch in Simulator::node_mut")
    }

    /// Run `start` hooks if not yet run.
    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            let id = NodeId(i);
            let mut ctx = Context::new(self.now, id, &mut self.next_packet_id, &mut self.out_buf);
            self.nodes[i].start(&mut ctx);
            Self::flush(&mut self.queue, &mut self.out_buf);
        }
    }

    fn flush(queue: &mut EventQueue, out: &mut Vec<(SimTime, NodeId, Event)>) {
        for (at, target, event) in out.drain(..) {
            queue.push(at, target, event);
        }
    }

    /// Dispatch events until the queue is empty or the next event is after
    /// `t_end`; the clock finishes at exactly `t_end`.
    pub fn run_until(&mut self, t_end: SimTime) {
        self.ensure_started();
        while let Some((at, target, event)) = self.queue.pop_at_or_before(t_end) {
            debug_assert!(at >= self.now, "event queue went backwards");
            if let Some(ins) = &self.instruments {
                ins.step.record_secs(at.since(self.now).as_secs_f64());
                match event {
                    Event::Deliver(_) => ins.deliver_events.inc(),
                    Event::Timer(_) => ins.timer_events.inc(),
                }
            }
            self.now = at;
            self.dispatched += 1;
            let mut ctx = Context::new(
                self.now,
                target,
                &mut self.next_packet_id,
                &mut self.out_buf,
            );
            match event {
                Event::Deliver(pkt) => self.nodes[target.0].on_packet(pkt, &mut ctx),
                Event::Timer(token) => self.nodes[target.0].on_timer(token, &mut ctx),
            }
            Self::flush(&mut self.queue, &mut self.out_buf);
        }
        if t_end > self.now {
            self.now = t_end;
        }
    }

    /// Run until no events remain (only safe when every node eventually goes
    /// quiet; sources with unbounded timers never do — use
    /// [`Self::run_until`] for those).
    pub fn run_to_completion(&mut self) {
        self.run_until(SimTime::from_nanos(u64::MAX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::CountingSink;
    use crate::packet::{FlowId, Packet, PacketKind};
    use crate::time::SimDuration;
    use std::any::Any;

    /// Emits `count` packets to `dst`, one every `gap`.
    struct PeriodicSource {
        dst: NodeId,
        gap: SimDuration,
        remaining: u32,
        flow: FlowId,
    }

    impl Node for PeriodicSource {
        fn start(&mut self, ctx: &mut Context<'_>) {
            if self.remaining > 0 {
                ctx.set_timer(self.gap, 0);
            }
        }

        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}

        fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
            let pkt = Packet {
                id: ctx.next_packet_id(),
                flow: self.flow,
                size: 100,
                created: ctx.now(),
                kind: PacketKind::Udp {
                    seq: u64::from(self.remaining),
                },
            };
            ctx.send(self.dst, pkt, SimDuration::from_millis(1));
            self.remaining -= 1;
            if self.remaining > 0 {
                ctx.set_timer(self.gap, 0);
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
    fn source_to_sink_delivery() {
        let mut sim = Simulator::new();
        let sink = sim.add_node(Box::new(CountingSink::new()));
        sim.add_node(Box::new(PeriodicSource {
            dst: sink,
            gap: SimDuration::from_millis(10),
            remaining: 5,
            flow: FlowId(1),
        }));
        sim.run_to_completion();
        assert_eq!(sim.node::<CountingSink>(sink).received(), 5);
        // Last packet: timer at 50ms + 1ms delivery.
        assert_eq!(
            sim.node::<CountingSink>(sink).last_arrival(),
            Some(SimTime::from_secs_f64(0.051))
        );
    }

    #[test]
    fn run_until_stops_at_horizon_and_resumes() {
        let mut sim = Simulator::new();
        let sink = sim.add_node(Box::new(CountingSink::new()));
        sim.add_node(Box::new(PeriodicSource {
            dst: sink,
            gap: SimDuration::from_millis(10),
            remaining: 5,
            flow: FlowId(1),
        }));
        sim.run_until(SimTime::from_secs_f64(0.025));
        assert_eq!(sim.node::<CountingSink>(sink).received(), 2);
        assert_eq!(sim.now(), SimTime::from_secs_f64(0.025));
        sim.run_to_completion();
        assert_eq!(sim.node::<CountingSink>(sink).received(), 5);
    }

    #[test]
    fn clock_advances_to_horizon_with_no_events() {
        let mut sim = Simulator::new();
        sim.run_until(SimTime::from_secs_f64(3.0));
        assert_eq!(sim.now(), SimTime::from_secs_f64(3.0));
        assert_eq!(sim.dispatched(), 0);
    }

    #[test]
    #[should_panic(expected = "after the simulation started")]
    fn late_node_registration_panics() {
        let mut sim = Simulator::new();
        sim.run_until(SimTime::from_nanos(1));
        sim.add_node(Box::new(CountingSink::new()));
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn wrong_downcast_panics() {
        let mut sim = Simulator::new();
        let sink = sim.add_node(Box::new(CountingSink::new()));
        let _ = sim.node::<PeriodicSource>(sink);
    }

    #[test]
    fn attached_metrics_count_every_dispatch() {
        let mut sim = Simulator::new();
        let sink = sim.add_node(Box::new(CountingSink::new()));
        sim.add_node(Box::new(PeriodicSource {
            dst: sink,
            gap: SimDuration::from_millis(10),
            remaining: 5,
            flow: FlowId(1),
        }));
        let reg = Arc::new(Registry::new("sim"));
        sim.attach_metrics(reg.clone());
        assert!(sim.metrics().is_some());
        sim.run_to_completion();
        let deliver = reg.counter("events_deliver").get();
        let timer = reg.counter("events_timer").get();
        assert_eq!(deliver, 5, "one delivery per packet");
        assert_eq!(timer, 5, "one timer firing per emission");
        assert_eq!(deliver + timer, sim.dispatched());
        let steps = reg.histogram_with("virtual_step_secs", &STEP_BOUNDS_SECS);
        assert_eq!(steps.count(), sim.dispatched());
        // The largest step is the 10 ms inter-emission gap.
        assert!((steps.max_secs().unwrap() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn packet_ids_are_globally_unique() {
        let mut sim = Simulator::new();
        let sink = sim.add_node(Box::new(CountingSink::new()));
        for f in 0..3 {
            sim.add_node(Box::new(PeriodicSource {
                dst: sink,
                gap: SimDuration::from_millis(1),
                remaining: 10,
                flow: FlowId(f),
            }));
        }
        sim.run_to_completion();
        assert_eq!(sim.node::<CountingSink>(sink).received(), 30);
    }
}
