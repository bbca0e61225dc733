//! On-the-wire format for live BADABING probe packets.
//!
//! The original tool sends fixed-size UDP probes carrying timestamps and
//! sequence numbers (§4.2, §6). The live reimplementation uses a small
//! fixed header followed by zero padding up to the configured probe packet
//! size (600 bytes by default — padding is what gives the probe its
//! buffer-stressing footprint, so the wire size must be exact).
//!
//! Header layout (network byte order, 44 bytes):
//!
//! ```text
//! 0       8       16      24      32      40    42    43    44
//! | magic | session| exper | slot  | seq   | t_ns | idx | len |
//! |  u32  |  u32   |  u64  |  u64  |  u64  | u64  | u8  | u8  | (+2 pad)
//! ```
//!
//! `t_ns` is the sender's monotonic send timestamp in nanoseconds; the
//! receiver computes one-way delay against its own clock (offset removal
//! is the receiver's concern, §7's clock-synchronization discussion).
//!
//! # Example
//!
//! ```
//! use badabing_wire::ProbeHeader;
//!
//! let header = ProbeHeader {
//!     session: 7,
//!     experiment: 42,
//!     slot: 1234,
//!     seq: 99,
//!     send_ns: 1_000_000,
//!     idx: 0,
//!     probe_len: 3,
//! };
//! let datagram = header.encode(600); // padded to the probe size
//! assert_eq!(datagram.len(), 600);
//! assert_eq!(ProbeHeader::decode(&datagram).unwrap(), header);
//! ```

pub mod control;

/// Big-endian writes into a caller's buffer, so the hot-path encoders
/// ([`ProbeHeader::encode_into`], [`control::ControlMessage::encode_into`])
/// reuse one preallocated buffer and allocate nothing. A write past the
/// end of the buffer panics.
struct Writer<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl<'a> Writer<'a> {
    fn new(buf: &'a mut [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn bytes(&mut self, src: &[u8]) {
        self.buf[self.pos..self.pos + src.len()].copy_from_slice(src);
        self.pos += src.len();
    }

    /// Bytes written so far.
    fn written(&self) -> usize {
        self.pos
    }
}

/// Big-endian reads from a received datagram. A read past its end is
/// [`DecodeError::TooShort`] with the whole datagram's length.
struct Reader<'a> {
    data: &'a [u8],
    len: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            len: data.len(),
        }
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, rest) = self
            .data
            .split_first_chunk()
            .ok_or(DecodeError::TooShort { got: self.len })?;
        self.data = rest;
        Ok(*head)
    }
}

/// One `Writer` and one `Reader` method per field type, named after it.
macro_rules! big_endian {
    ($($t:ident),*) => {
        impl Writer<'_> {
            $(fn $t(&mut self, v: $t) {
                self.bytes(&v.to_be_bytes());
            })*
        }

        impl Reader<'_> {
            $(fn $t(&mut self) -> Result<$t, DecodeError> {
                self.array().map($t::from_be_bytes)
            })*
        }
    };
}

big_endian!(u8, u16, u32, u64, i64, f64);

/// Identifies probe packets and version: the ASCII bytes `"BDG1"`
/// (BaDabinG, format version 1). Bump the trailing digit on any header
/// layout change; [`control::CONTROL_MAGIC`] (`"BDC1"`) marks
/// control-plane datagrams on the same socket.
pub const MAGIC: u32 = 0x4244_4731; // "BDG1"

/// Size of the fixed header in bytes.
pub const HEADER_BYTES: usize = 44;

/// A probe packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeHeader {
    /// Random id binding a run's packets together; lets a receiver reject
    /// strays from older runs.
    pub session: u32,
    /// Experiment id.
    pub experiment: u64,
    /// Targeted slot.
    pub slot: u64,
    /// Global packet sequence number.
    pub seq: u64,
    /// Sender monotonic send time, nanoseconds.
    pub send_ns: u64,
    /// Packet index within the probe.
    pub idx: u8,
    /// Packets in the probe.
    pub probe_len: u8,
}

/// Errors from decoding a probe or control datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Datagram shorter than its message's layout.
    TooShort {
        /// Bytes actually present.
        got: usize,
    },
    /// Magic number mismatch (not a probe packet, or wrong version).
    BadMagic {
        /// The value found where the magic should be.
        got: u32,
    },
    /// Header fields are internally inconsistent.
    BadFields,
    /// Control message carries an unknown type tag.
    UnknownType {
        /// The tag found.
        got: u8,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::TooShort { got } => {
                write!(f, "datagram too short: {got} bytes")
            }
            DecodeError::BadMagic { got } => write!(f, "bad magic {got:#010x}"),
            DecodeError::BadFields => write!(f, "inconsistent header fields"),
            DecodeError::UnknownType { got } => {
                write!(f, "unknown control message type {got:#04x}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl ProbeHeader {
    /// Encode into a datagram of exactly `packet_bytes` (header + zero
    /// padding).
    ///
    /// # Panics
    /// Panics if `packet_bytes < HEADER_BYTES`.
    pub fn encode(&self, packet_bytes: usize) -> Vec<u8> {
        let mut buf = vec![0u8; packet_bytes];
        self.encode_into(&mut buf);
        buf
    }

    /// Encode into a caller-provided buffer without allocating: the
    /// header goes at the front, the rest of `buf` is zeroed as padding
    /// (the whole slice is the datagram). Returns the datagram length,
    /// always `buf.len()`. This is the steady-state TX path; [`encode`]
    /// (which allocates a fresh `Vec`) is a thin wrapper over it.
    ///
    /// [`encode`]: ProbeHeader::encode
    ///
    /// # Panics
    /// Panics if `buf.len() < HEADER_BYTES`.
    pub fn encode_into(&self, buf: &mut [u8]) -> usize {
        assert!(
            buf.len() >= HEADER_BYTES,
            "packet size {} below header size {HEADER_BYTES}",
            buf.len()
        );
        let mut w = Writer::new(buf);
        w.u32(MAGIC);
        w.u32(self.session);
        w.u64(self.experiment);
        w.u64(self.slot);
        w.u64(self.seq);
        w.u64(self.send_ns);
        w.u8(self.idx);
        w.u8(self.probe_len);
        w.u16(0); // reserved / alignment
        debug_assert_eq!(w.written(), HEADER_BYTES);
        buf[HEADER_BYTES..].fill(0);
        buf.len()
    }

    /// Decode from a received datagram.
    pub fn decode(data: &[u8]) -> Result<Self, DecodeError> {
        if data.len() < HEADER_BYTES {
            return Err(DecodeError::TooShort { got: data.len() });
        }
        let mut r = Reader::new(data);
        let magic = r.u32()?;
        if magic != MAGIC {
            return Err(DecodeError::BadMagic { got: magic });
        }
        let header = Self {
            session: r.u32()?,
            experiment: r.u64()?,
            slot: r.u64()?,
            seq: r.u64()?,
            send_ns: r.u64()?,
            idx: r.u8()?,
            probe_len: r.u8()?,
        };
        let _reserved = r.u16()?;
        if header.probe_len == 0 || header.idx >= header.probe_len {
            return Err(DecodeError::BadFields);
        }
        Ok(header)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> ProbeHeader {
        ProbeHeader {
            session: 0xDEAD_BEEF,
            experiment: 12_345,
            slot: 678_901,
            seq: 42,
            send_ns: 1_234_567_890_123,
            idx: 1,
            probe_len: 3,
        }
    }

    #[test]
    fn roundtrip() {
        let h = header();
        let wire = h.encode(600);
        assert_eq!(wire.len(), 600);
        let back = ProbeHeader::decode(&wire).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn header_bytes_are_pinned() {
        let expected = concat!(
            // Magic "BDG1", session.
            "42444731",
            "deadbeef",
            // Experiment, slot, seq, send_ns.
            "0000000000003039",
            "00000000000a5bf5",
            "000000000000002a",
            "0000011f71fb04cb",
            // idx, probe_len, reserved.
            "01",
            "03",
            "0000",
            // Padding up to the 48-byte datagram.
            "00000000",
        );
        let hex: String = header()
            .encode(48)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, expected);
    }

    #[test]
    fn minimum_size_roundtrip() {
        let h = header();
        let wire = h.encode(HEADER_BYTES);
        assert_eq!(wire.len(), HEADER_BYTES);
        assert_eq!(ProbeHeader::decode(&wire).unwrap(), h);
    }

    #[test]
    fn padding_is_zero() {
        let wire = header().encode(128);
        assert!(wire[HEADER_BYTES..].iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "below header size")]
    fn rejects_tiny_packets() {
        let _ = header().encode(10);
    }

    #[test]
    fn short_datagram_fails() {
        let wire = header().encode(600);
        assert_eq!(
            ProbeHeader::decode(&wire[..20]),
            Err(DecodeError::TooShort { got: 20 })
        );
        assert_eq!(
            ProbeHeader::decode(&[]),
            Err(DecodeError::TooShort { got: 0 })
        );
    }

    #[test]
    fn bad_magic_fails() {
        let mut wire = header().encode(600).to_vec();
        wire[0] ^= 0xFF;
        assert!(matches!(
            ProbeHeader::decode(&wire),
            Err(DecodeError::BadMagic { .. })
        ));
    }

    #[test]
    fn bad_fields_fail() {
        let mut h = header();
        h.idx = 3; // == probe_len
        let wire = h.encode(600);
        assert_eq!(ProbeHeader::decode(&wire), Err(DecodeError::BadFields));
        let mut h2 = header();
        h2.probe_len = 0;
        h2.idx = 0;
        let wire2 = h2.encode(600);
        assert_eq!(ProbeHeader::decode(&wire2), Err(DecodeError::BadFields));
    }

    #[test]
    fn encode_into_matches_allocating_encode() {
        let h = header();
        for size in [HEADER_BYTES, 64, 600] {
            // Fill with junk so stale bytes would show up as a diff.
            let mut buf = vec![0xAA; size];
            let n = h.encode_into(&mut buf);
            assert_eq!(n, size);
            assert_eq!(&buf[..], &h.encode(size)[..]);
        }
    }

    #[test]
    #[should_panic(expected = "below header size")]
    fn encode_into_rejects_tiny_buffers() {
        let mut buf = [0u8; 10];
        let _ = header().encode_into(&mut buf);
    }

    #[test]
    fn garbage_bytes_never_panic() {
        // A deterministic junk generator: every decode must return a
        // clean error or a valid header, never panic.
        let mut x: u64 = 0x1234_5678_9abc_def0;
        for len in 0..200 {
            let mut data = vec![0u8; len];
            for b in &mut data {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *b = (x >> 56) as u8;
            }
            let _ = ProbeHeader::decode(&data);
        }
    }

    #[test]
    fn oversized_datagram_ignores_trailing_bytes() {
        let h = header();
        let mut wire = h.encode(600).to_vec();
        wire.extend_from_slice(&[0xFF; 300]);
        assert_eq!(ProbeHeader::decode(&wire).unwrap(), h);
    }

    #[test]
    fn error_display_is_informative() {
        let e = DecodeError::TooShort { got: 5 };
        assert_eq!(e.to_string(), "datagram too short: 5 bytes");
        // A short control message reads as its own length, not against
        // the probe header's size.
        let e = control::ControlMessage::decode(&[0x42; 7]).unwrap_err();
        assert_eq!(e.to_string(), "datagram too short: 7 bytes");
        let e = DecodeError::BadMagic { got: 0xABCD };
        assert!(e.to_string().contains("0x0000abcd"));
    }
}
