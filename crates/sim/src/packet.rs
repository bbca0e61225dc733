//! Packets and flow identifiers.
//!
//! The simulator models packets at the granularity the experiments need:
//! wire size (which drives queue occupancy and serialization time), a flow
//! identifier (so the monitor can attribute drops and Figure 8 can separate
//! probe losses from cross-traffic losses), and a small typed payload for
//! the protocol machinery (TCP sequence numbers, probe tags).

use crate::time::SimTime;

/// Identifies one end-to-end flow (a TCP connection, a UDP blaster, or a
/// probe stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u32);

/// Typed packet payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// TCP data segment covering bytes `[seq, seq + len)`.
    TcpData {
        /// First byte covered.
        seq: u64,
        /// Payload length in bytes.
        len: u32,
    },
    /// Pure TCP acknowledgment (cumulative).
    TcpAck {
        /// Next byte expected by the receiver.
        ack: u64,
    },
    /// TCP acknowledgment carrying SACK blocks (RFC 2018, which the
    /// paper's related work cites as one consequence of understanding
    /// loss). Blocks are `[start, end)` segment ranges received above
    /// the cumulative ack; only the first `n_blocks` entries are valid.
    TcpSack {
        /// Next segment expected by the receiver.
        ack: u64,
        /// Out-of-order ranges, most recently updated first.
        blocks: [(u64, u64); 3],
        /// Number of valid blocks.
        n_blocks: u8,
    },
    /// UDP datagram from a constant-bit-rate or bursty source.
    Udp {
        /// Per-flow sequence number.
        seq: u64,
    },
    /// A probe packet.
    Probe {
        /// Identifier of the experiment this probe belongs to.
        experiment: u64,
        /// The time slot this probe targets.
        slot: u64,
        /// Index of this packet within the probe (probes carry 1..=N
        /// packets sent back to back, §6.1).
        idx: u8,
        /// Total packets in this probe.
        probe_len: u8,
        /// Sender-side per-flow sequence number (for receiver-side loss
        /// detection, as in the real tool).
        seq: u64,
    },
}

impl PacketKind {
    /// Whether this is probe traffic.
    pub fn is_probe(&self) -> bool {
        matches!(self, PacketKind::Probe { .. })
    }
}

/// A simulated packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Globally unique packet id (assigned by the creator via
    /// [`crate::node::Context::next_packet_id`]).
    pub id: u64,
    /// Owning flow.
    pub flow: FlowId,
    /// Total wire size in bytes (headers + payload); this is what occupies
    /// queue buffer and determines serialization time.
    pub size: u32,
    /// Creation timestamp (sender-side, used for one-way delay).
    pub created: SimTime,
    /// Typed payload.
    pub kind: PacketKind,
}

impl Packet {
    /// One-way delay from creation to `now`, in seconds.
    pub fn owd_secs(&self, now: SimTime) -> f64 {
        now.since(self.created).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn probe_detection() {
        let probe = PacketKind::Probe {
            experiment: 1,
            slot: 2,
            idx: 0,
            probe_len: 3,
            seq: 9,
        };
        assert!(probe.is_probe());
        assert!(!PacketKind::Udp { seq: 0 }.is_probe());
        assert!(!PacketKind::TcpData { seq: 0, len: 1448 }.is_probe());
        assert!(!PacketKind::TcpAck { ack: 10 }.is_probe());
    }

    #[test]
    fn owd_measures_from_creation() {
        let p = Packet {
            id: 1,
            flow: FlowId(7),
            size: 600,
            created: SimTime::from_secs_f64(1.0),
            kind: PacketKind::Udp { seq: 0 },
        };
        let now = SimTime::from_secs_f64(1.0) + SimDuration::from_millis(62);
        assert!((p.owd_secs(now) - 0.062).abs() < 1e-9);
        // A packet "received" before creation reports zero, not negative.
        assert_eq!(p.owd_secs(SimTime::ZERO), 0.0);
    }
}
