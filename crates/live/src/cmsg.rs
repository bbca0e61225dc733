//! Ancillary-data (cmsg) encoding and decoding for the offload tier.
//!
//! Linux's segmentation-offload and timestamping interfaces speak
//! through `msg_control` buffers: `UDP_SEGMENT` carries the segment
//! size of a GSO super-datagram on send, `UDP_GRO` reports the segment
//! size of a coalesced read, and `SO_TIMESTAMPING` attaches an
//! `SCM_TIMESTAMPING` record with the kernel's software RX stamp. The
//! workspace builds offline (no `libc`), so this module implements the
//! `CMSG_*` layout rules by hand — as plain byte-buffer arithmetic,
//! which keeps every function portable, allocation-free, and unit
//! testable on any platform even though only Linux ever feeds it real
//! kernel bytes.
//!
//! Layout (glibc/kernel, 64-bit): a control buffer is a sequence of
//! records, each a 16-byte header (`cmsg_len: usize`, `cmsg_level:
//! i32`, `cmsg_type: i32`) followed by `cmsg_len - 16` bytes of data,
//! padded so the next header starts on a `usize` boundary. `cmsg_len`
//! counts header + data but *not* the trailing padding.
//!
//! Decoding is defensive: [`CmsgIter`] bounds-checks every header and
//! stops (setting [`CmsgIter::malformed`]) on anything inconsistent —
//! the receiver counts those as `cmsg_decode_errors` instead of
//! trusting a hostile or garbled length field.

use std::time::Duration;

/// `SOL_UDP` (= `IPPROTO_UDP`): level for the segmentation options.
pub const SOL_UDP: i32 = 17;
/// `UDP_SEGMENT`: GSO segment size, set per-socket or per-send (cmsg).
pub const UDP_SEGMENT: i32 = 103;
/// `UDP_GRO`: enable receive coalescing; reads then carry the segment
/// size in a cmsg at this level/type.
pub const UDP_GRO: i32 = 104;
/// `SOL_SOCKET`: level for the timestamping option and its cmsg.
pub const SOL_SOCKET: i32 = 1;
/// `SO_TIMESTAMPING` — also the `SCM_TIMESTAMPING` cmsg type.
pub const SO_TIMESTAMPING: i32 = 37;
/// `SCM_TIMESTAMPING`: cmsg type carrying `[timespec; 3]`.
pub const SCM_TIMESTAMPING: i32 = 37;
/// Report a software receive timestamp.
pub const SOF_TIMESTAMPING_RX_SOFTWARE: u32 = 1 << 3;
/// Deliver software timestamps via `SCM_TIMESTAMPING`.
pub const SOF_TIMESTAMPING_SOFTWARE: u32 = 1 << 4;

/// The kernel refuses GSO super-datagrams of more than this many
/// segments (`UDP_MAX_SEGMENTS`).
pub const MAX_GSO_SEGMENTS: usize = 64;
/// A UDP payload (and thus a GSO super-datagram) cannot exceed this.
pub const MAX_GSO_BYTES: usize = 65_535;

/// Alignment unit for cmsg records: `sizeof(size_t)` on the platforms
/// this targets.
const ALIGN: usize = std::mem::size_of::<usize>();

/// Bytes of a cmsg header (`usize` len + two `i32`s, no padding).
pub const HDR_BYTES: usize = ALIGN + 8;

/// `CMSG_ALIGN`: round `len` up to the alignment unit.
pub const fn align(len: usize) -> usize {
    (len + ALIGN - 1) & !(ALIGN - 1)
}

/// `CMSG_SPACE`: bytes one record with `data_len` bytes of data
/// occupies in the buffer, trailing padding included.
pub const fn space(data_len: usize) -> usize {
    align(HDR_BYTES) + align(data_len)
}

/// `CMSG_LEN`: the value of the record's `cmsg_len` field (header +
/// data, no trailing padding).
pub const fn cmsg_len(data_len: usize) -> usize {
    align(HDR_BYTES) + data_len
}

// Pin the layout arithmetic to the 64-bit Linux kernel ABI: a 16-byte
// header, the `UDP_SEGMENT` `u16` record, and the 48-byte
// `SCM_TIMESTAMPING` record (three `timespec`s).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
const _: () = {
    assert!(HDR_BYTES == 16);
    assert!(space(2) == 24);
    assert!(cmsg_len(2) == 18);
    assert!(space(48) == 64);
};

/// Control-buffer bytes the receive ring reserves per slot: enough for
/// an `SCM_TIMESTAMPING` record (16 + 48), a `UDP_GRO` size (16 + 8),
/// and slack for any extra record a future sockopt attaches.
pub const RECV_CONTROL_BYTES: usize = 128;

/// Encode one cmsg record at the start of `buf` (native-endian, like
/// the kernel reads it). Returns the space consumed ([`space`]); the
/// caller appends the next record there.
///
/// # Panics
/// Panics if `buf` is too small for the record.
pub fn write(buf: &mut [u8], level: i32, ty: i32, data: &[u8]) -> usize {
    let need = space(data.len());
    assert!(
        buf.len() >= need,
        "cmsg buffer too small: {} < {need}",
        buf.len()
    );
    buf[..ALIGN].copy_from_slice(&cmsg_len(data.len()).to_ne_bytes());
    buf[ALIGN..ALIGN + 4].copy_from_slice(&level.to_ne_bytes());
    buf[ALIGN + 4..ALIGN + 8].copy_from_slice(&ty.to_ne_bytes());
    buf[HDR_BYTES..HDR_BYTES + data.len()].copy_from_slice(data);
    // Zero the padding so the buffer is deterministic.
    for b in &mut buf[HDR_BYTES + data.len()..need] {
        *b = 0;
    }
    need
}

/// One decoded cmsg record (data borrowed from the control buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cmsg<'a> {
    pub level: i32,
    pub ty: i32,
    pub data: &'a [u8],
}

/// Bounds-checked iterator over a kernel-filled control buffer.
///
/// Stops at the first record whose header does not fit, whose
/// `cmsg_len` is shorter than a header, or whose data runs past the
/// buffer — and records the fact in [`CmsgIter::malformed`] so callers
/// can count it instead of silently truncating.
pub struct CmsgIter<'a> {
    buf: &'a [u8],
    off: usize,
    /// Set when iteration stopped on an inconsistent record rather than
    /// clean exhaustion.
    pub malformed: bool,
}

impl<'a> CmsgIter<'a> {
    /// Iterate the first `len` bytes of a control buffer (`len` is what
    /// the kernel wrote back into `msg_controllen`).
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            off: 0,
            malformed: false,
        }
    }
}

impl<'a> Iterator for CmsgIter<'a> {
    type Item = Cmsg<'a>;

    fn next(&mut self) -> Option<Cmsg<'a>> {
        if self.off >= self.buf.len() {
            return None;
        }
        if self.buf.len() - self.off < HDR_BYTES {
            self.malformed = true;
            return None;
        }
        let b = &self.buf[self.off..];
        let mut len_bytes = [0u8; ALIGN];
        len_bytes.copy_from_slice(&b[..ALIGN]);
        let rec_len = usize::from_ne_bytes(len_bytes);
        let level = i32::from_ne_bytes([b[ALIGN], b[ALIGN + 1], b[ALIGN + 2], b[ALIGN + 3]]);
        let ty = i32::from_ne_bytes([b[ALIGN + 4], b[ALIGN + 5], b[ALIGN + 6], b[ALIGN + 7]]);
        if rec_len < HDR_BYTES || rec_len > self.buf.len() - self.off {
            self.malformed = true;
            return None;
        }
        let data = &b[HDR_BYTES..rec_len];
        self.off += align(rec_len).min(self.buf.len() - self.off);
        Some(Cmsg { level, ty, data })
    }
}

/// Decode an `SCM_TIMESTAMPING` payload: `[timespec; 3]`, software
/// stamp at index 0 (`CLOCK_REALTIME` domain). Returns `None` for a
/// short payload, a zero stamp (the kernel left the slot empty), or a
/// nonsensical negative/overlong nanosecond field.
pub fn parse_scm_timestamping(data: &[u8]) -> Option<Duration> {
    if data.len() < 16 {
        return None;
    }
    let sec = i64::from_ne_bytes(data[0..8].try_into().expect("8 bytes"));
    let nsec = i64::from_ne_bytes(data[8..16].try_into().expect("8 bytes"));
    if sec <= 0 || !(0..1_000_000_000).contains(&nsec) {
        return None;
    }
    Some(Duration::new(sec as u64, nsec as u32))
}

/// Decode a `UDP_GRO` payload (the segment size the read was coalesced
/// from): an `int` on current kernels, `u16` on some early ones.
/// Returns `None` for an empty, zero, negative, or oversized value.
pub fn parse_gro_segment_size(data: &[u8]) -> Option<usize> {
    let v = match data.len() {
        2 => i64::from(u16::from_ne_bytes([data[0], data[1]])),
        4.. => i64::from(i32::from_ne_bytes(data[..4].try_into().expect("4 bytes"))),
        _ => return None,
    };
    if (1..=MAX_GSO_BYTES as i64).contains(&v) {
        Some(v as usize)
    } else {
        None
    }
}

/// Iterator over the `(offset, len)` segment windows of a coalesced
/// read of `total` bytes with segment size `seg`: full segments then
/// one short tail if `total` is not an exact multiple. A `seg` of zero
/// (hostile/garbled) yields the whole payload as one segment — the
/// caller counts the decode error; the data is still deliverable.
pub fn segments(total: usize, seg: usize) -> Segments {
    Segments {
        total,
        seg: if seg == 0 { total.max(1) } else { seg },
        off: 0,
    }
}

/// See [`segments`].
pub struct Segments {
    total: usize,
    seg: usize,
    off: usize,
}

impl Iterator for Segments {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        if self.off >= self.total {
            return None;
        }
        let len = self.seg.min(self.total - self.off);
        let off = self.off;
        self.off += len;
        Some((off, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_iterate_roundtrips_two_records() {
        let mut buf = [0u8; 128];
        let mut off = write(&mut buf, SOL_SOCKET, SCM_TIMESTAMPING, &[1u8; 48]);
        off += write(&mut buf[off..], SOL_UDP, UDP_GRO, &1200i32.to_ne_bytes());
        let mut it = CmsgIter::new(&buf[..off]);
        let first = it.next().unwrap();
        assert_eq!((first.level, first.ty), (SOL_SOCKET, SCM_TIMESTAMPING));
        assert_eq!(first.data, &[1u8; 48]);
        let second = it.next().unwrap();
        assert_eq!((second.level, second.ty), (SOL_UDP, UDP_GRO));
        assert_eq!(parse_gro_segment_size(second.data), Some(1200));
        assert!(it.next().is_none());
        assert!(!it.malformed);
    }

    #[test]
    fn truncated_and_hostile_lengths_stop_with_malformed_flag() {
        // A record claiming more data than the buffer holds.
        let mut buf = [0u8; 64];
        write(&mut buf, SOL_UDP, UDP_GRO, &[0u8; 8]);
        buf[..ALIGN].copy_from_slice(&1_000usize.to_ne_bytes());
        let mut it = CmsgIter::new(&buf);
        assert!(it.next().is_none());
        assert!(it.malformed);
        // A record shorter than its own header.
        buf[..ALIGN].copy_from_slice(&4usize.to_ne_bytes());
        let mut it = CmsgIter::new(&buf);
        assert!(it.next().is_none());
        assert!(it.malformed);
        // A dangling partial header at the tail.
        let mut it = CmsgIter::new(&[0u8; HDR_BYTES - 1]);
        assert!(it.next().is_none());
        assert!(it.malformed);
        // An empty buffer is clean exhaustion, not malformation.
        let mut it = CmsgIter::new(&[]);
        assert!(it.next().is_none());
        assert!(!it.malformed);
    }

    /// The repo's property-test idiom: a seeded LCG drives hostile
    /// inputs through the decoder, which must never panic and must
    /// never yield a record pointing outside the buffer.
    #[test]
    fn garbage_control_buffers_never_panic() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..2_000 {
            let len = (rng() % 96) as usize;
            let mut buf = vec![0u8; len];
            for b in &mut buf {
                *b = rng() as u8;
            }
            let mut records = 0usize;
            let mut it = CmsgIter::new(&buf);
            for c in it.by_ref() {
                assert!(c.data.len() <= buf.len());
                records += 1;
                assert!(records <= buf.len(), "runaway iteration");
            }
            // Also exercise the payload parsers on arbitrary bytes.
            let _ = parse_scm_timestamping(&buf);
            let _ = parse_gro_segment_size(&buf);
        }
    }

    #[test]
    fn timestamping_payload_parses_software_stamp() {
        let mut data = [0u8; 48];
        data[0..8].copy_from_slice(&1_700_000_000i64.to_ne_bytes());
        data[8..16].copy_from_slice(&123_456_789i64.to_ne_bytes());
        assert_eq!(
            parse_scm_timestamping(&data),
            Some(Duration::new(1_700_000_000, 123_456_789))
        );
        // Zero stamp = not stamped; negative/overflowing fields refused.
        assert_eq!(parse_scm_timestamping(&[0u8; 48]), None);
        data[0..8].copy_from_slice(&(-5i64).to_ne_bytes());
        assert_eq!(parse_scm_timestamping(&data), None);
        data[0..8].copy_from_slice(&1i64.to_ne_bytes());
        data[8..16].copy_from_slice(&2_000_000_000i64.to_ne_bytes());
        assert_eq!(parse_scm_timestamping(&data), None);
        assert_eq!(parse_scm_timestamping(&[1u8; 8]), None);
    }

    #[test]
    fn gro_size_rejects_hostile_values() {
        assert_eq!(parse_gro_segment_size(&[]), None);
        assert_eq!(parse_gro_segment_size(&0i32.to_ne_bytes()), None);
        assert_eq!(parse_gro_segment_size(&(-1i32).to_ne_bytes()), None);
        assert_eq!(parse_gro_segment_size(&100_000i32.to_ne_bytes()), None);
        assert_eq!(parse_gro_segment_size(&600u16.to_ne_bytes()), Some(600));
    }

    #[test]
    fn segment_split_covers_every_shape() {
        // Exact multiple.
        let all: Vec<_> = segments(1800, 600).collect();
        assert_eq!(all, vec![(0, 600), (600, 600), (1200, 600)]);
        // Short tail.
        let all: Vec<_> = segments(1500, 600).collect();
        assert_eq!(all, vec![(0, 600), (600, 600), (1200, 300)]);
        // Single segment (payload smaller than the segment size).
        let all: Vec<_> = segments(200, 600).collect();
        assert_eq!(all, vec![(0, 200)]);
        // Zero segment size degrades to one whole-payload segment.
        let all: Vec<_> = segments(500, 0).collect();
        assert_eq!(all, vec![(0, 500)]);
        // Empty payload yields nothing.
        assert_eq!(segments(0, 600).count(), 0);
    }

    /// Seeded sweep over arbitrary (total, seg) pairs: the windows must
    /// exactly tile the payload in order, every window non-empty, and
    /// only the last may be short.
    #[test]
    fn segment_split_property_sweep() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..5_000 {
            let total = (rng() % 70_000) as usize;
            let seg = (rng() % 2_048) as usize;
            let mut expect_off = 0usize;
            let mut windows = 0usize;
            let mut saw_short = false;
            for (off, len) in segments(total, seg) {
                assert_eq!(off, expect_off, "windows must be contiguous");
                assert!(len > 0, "empty window");
                assert!(
                    !saw_short,
                    "a short window may only be the final one (total={total} seg={seg})"
                );
                if seg != 0 && len < seg {
                    saw_short = true;
                }
                expect_off = off + len;
                windows += 1;
                assert!(windows <= total + 1, "runaway split");
            }
            assert_eq!(expect_off, total, "windows must cover the payload");
        }
    }
}
