//! Discrete-event network simulator for the BADABING reproduction.
//!
//! The paper's testbed (Figure 3) is a dumbbell: traffic generators feed two
//! Cisco GSRs over Gigabit Ethernet, the flows multiplex onto a single OC3
//! (155 Mb/s) bottleneck with ~100 ms of buffer and 50 ms of emulated
//! propagation delay per direction, and Endace DAG cards capture every
//! packet entering and leaving the bottleneck as ground truth.
//!
//! This crate reproduces that substrate in virtual time:
//!
//! * [`engine::Simulator`] — a single-threaded event scheduler over integer
//!   nanosecond [`time::SimTime`];
//! * [`node::Node`] — the component trait (traffic sources, sinks, queues,
//!   probers all plug in as nodes);
//! * [`queue::DropTailQueue`] — the store-and-forward FIFO bottleneck with
//!   byte-bounded buffer and exact per-packet serialization times;
//! * [`monitor::Monitor`] — the DAG-card stand-in: an exact per-packet trace
//!   of enqueue/drop/depart events at the bottleneck, from which queue-length
//!   series and ground-truth loss episodes (§3's definitions) are derived;
//! * [`topology::Dumbbell`] — a builder that wires the standard experiment
//!   topology used by every table and figure.
//!
//! Determinism: the engine breaks event-time ties by insertion sequence and
//! all stochastic components draw from seeded, per-stream RNGs, so a given
//! (seed, configuration) pair replays identically.

pub mod engine;
pub mod event;
pub mod jitter;
pub mod monitor;
pub mod node;
pub mod packet;
pub mod queue;
pub mod red;
pub mod tandem;
pub mod time;
pub mod topology;

pub use engine::Simulator;
pub use event::Event;
pub use monitor::{
    GroundTruth, GroundTruthConfig, Monitor, MonitorHandle, TraceEvent, TraceRecord,
};
pub use node::{Context, Node, NodeId};
pub use packet::{FlowId, Packet, PacketKind};
pub use queue::DropTailQueue;
pub use red::{RedConfig, RedQueue};
pub use tandem::{HopConfig, TandemPath};
pub use time::{SimDuration, SimTime};
pub use topology::{Dumbbell, DumbbellConfig};
