//! Batched UDP I/O for the live datapath.
//!
//! The live tool's throughput ceiling is syscall overhead: one
//! `recv_from` per probe on the receiver, one `send` per packet on the
//! sender. On Linux this module batches both directions with **zero
//! per-datagram heap allocation**: every buffer, iovec, and sockaddr
//! lives in the struct and is reused across calls.
//!
//! The workspace is fully offline (no `libc` crate), so the syscalls
//! are declared directly against the C library in a small `sys` module,
//! gated on `#[cfg(target_os = "linux")]`. Every other platform — and
//! any caller that asks for [`IoMode::Fallback`] — gets a portable
//! one-datagram path (plain `std::net::UdpSocket` calls, except one
//! `recvfrom` per receive on Linux, which survives [`wake_readers`])
//! with the *same* API, so the receiver and sender code is identical on
//! both paths and differential tests can force either one.
//!
//! [`IoMode::Batched`] is one datapath with kernel offload in both
//! directions:
//!
//! - **Send.** The sender hands the kernel one flat super-datagram per
//!   `sendmsg` with a `UDP_SEGMENT` cmsg and lets the kernel split it
//!   into wire packets (up to [`crate::cmsg::MAX_GSO_SEGMENTS`] per
//!   call); separate packets go out in one `sendmmsg`. The receiver's
//!   report windows take the same path from an unconnected socket,
//!   addressed and with a short last segment
//!   ([`BatchSender::send_segments_to`]).
//! - **Receive.** `recvmmsg` drains up to [`DEFAULT_RECV_BATCH`] reads
//!   per syscall into a ring of [`GRO_SLOT_BYTES`] slots with `UDP_GRO`
//!   on. Coalesced reads are split back into logical datagrams by the
//!   cmsg-reported segment size (tail segment included) before the
//!   caller ever sees them — `datagram(i)` indexes logical datagrams on
//!   every path. The ring is allocated **uninitialized**: a 2 MiB ring
//!   that only ever holds 64-byte probes costs the pages the kernel
//!   writes, not 2 MiB of zeroes, and only the bytes `recvmmsg` reported
//!   for a slot are ever read.
//! - **Kernel RX stamps ride on coalescing.** The first read the kernel
//!   hands back coalesced turns `SO_TIMESTAMPING` on for the socket;
//!   from then on every read carries the kernel's software RX stamp
//!   instead of a userspace timestamp taken after scheduler noise, and
//!   segments coalesced into one read share that read's stamp. The
//!   kernel stamps per read, so a stamp on a coalesced read is spread
//!   over its segments, while on separate datagrams it costs about
//!   100 ns each inside `recvmmsg` — on an unmitigated host, about as
//!   much as batching the syscalls saves. Until a peer's sends arrive
//!   coalesced (separate-datagram senders, or a path that never
//!   coalesces), the caller keeps its one userspace timestamp per batch.
//!
//! Each option degrades on its own, per socket ([`kernel_offload_caps`]
//! probes them): a kernel that refuses `UDP_GRO` leaves the ring
//! receiving one datagram per slot, on the userspace clock; one that
//! refuses `SO_TIMESTAMPING` leaves coalesced reads on it too; a send
//! the kernel refuses (`EINVAL`/`EIO` — typical for missing offload
//! support) flips the sender to `sendmmsg` permanently for that socket
//! (to one `send_to` per datagram for addressed sends).
//!
//! Behaviour contract: all paths deliver the same datagrams with the
//! same payloads; only the number of syscalls (and the granularity and
//! source of the timestamps the *caller* takes) differs.
//! `crates/live/tests/batch_differential.rs` holds the receiver to the
//! same probe accounting across the paths, and across coalesced and
//! uncoalesced senders.

use crate::cmsg;
use std::io;
use std::mem::MaybeUninit;
use std::net::{SocketAddr, UdpSocket};

/// Datagrams drained per `recvmmsg` call (and the buffer-ring size).
pub const DEFAULT_RECV_BATCH: usize = 32;

/// Bytes in the fallback path's one receive slot. Probe packets are a
/// few hundred bytes and the largest control message
/// ([`badabing_wire::control::MAX_CONTROL_BYTES`]) is ~1.1 KiB, so one
/// page is comfortable.
pub const DATAGRAM_BYTES: usize = 4096;

/// Which I/O implementation a [`BatchReceiver`] / [`BatchSender`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoMode {
    /// Batched syscalls with kernel offload: `UDP_SEGMENT`
    /// super-datagram sends (`sendmmsg` for separate packets), and
    /// `recvmmsg` into a ring with `UDP_GRO` coalescing and, once reads
    /// arrive coalesced, kernel software RX timestamps
    /// (`SO_TIMESTAMPING`). Each option the kernel refuses degrades on
    /// its own, per socket. On platforms without these syscalls it
    /// quietly behaves like [`IoMode::Fallback`] so cross-platform tests
    /// still run.
    #[default]
    Batched,
    /// The portable one-datagram-per-syscall path, everywhere.
    Fallback,
}

impl IoMode {
    /// The offload tier's former name, now the same mode as
    /// [`IoMode::Batched`]. The end-to-end benchmark's generator
    /// (`e2ebench/src/live.rs`) names `IoMode::Gso`, and that benchmark
    /// is held fixed while it compares a change against its parent, so
    /// the alias stays until the benchmark's next revision.
    #[allow(non_upper_case_globals)]
    pub const Gso: IoMode = IoMode::Batched;

    /// Whether this mode resolves to the batched implementation here.
    pub fn use_batched(self) -> bool {
        match self {
            IoMode::Batched => cfg!(target_os = "linux"),
            IoMode::Fallback => false,
        }
    }
}

impl std::str::FromStr for IoMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "batched" => Ok(IoMode::Batched),
            "fallback" => Ok(IoMode::Fallback),
            other => Err(format!(
                "unknown io mode {other:?} (expected batched|fallback)"
            )),
        }
    }
}

/// Bind a UDP socket with `SO_REUSEPORT` set **before** the bind — the
/// order the kernel requires for every member of a reuseport group, the
/// first included, which is why `std`'s bind-then-configure
/// `UdpSocket::bind` can't do this. Hand-declared syscalls, same
/// offline no-`libc` surface as the rest of this module. Returns
/// `Unsupported` off Linux; on kernels that refuse the option the
/// `setsockopt` error surfaces so callers can fall back to one drain
/// thread.
#[cfg(target_os = "linux")]
pub fn bind_reuseport(addr: SocketAddr) -> io::Result<UdpSocket> {
    use std::os::fd::FromRawFd;
    let family = match addr {
        SocketAddr::V4(_) => sys::AF_INET as i32,
        SocketAddr::V6(_) => sys::AF_INET6 as i32,
    };
    // SAFETY: plain socket(2) call; a negative return is checked below.
    let fd = unsafe { sys::socket(family, sys::SOCK_DGRAM | sys::SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // Wrap immediately: every error return below closes the fd via Drop.
    // SAFETY: `fd` is a fresh, owned UDP socket descriptor.
    let socket = unsafe { UdpSocket::from_raw_fd(fd) };
    let on: i32 = 1;
    // SAFETY: passes a 4-byte value the kernel only reads.
    let rc = unsafe {
        sys::setsockopt(
            fd,
            sys::SOL_SOCKET,
            sys::SO_REUSEPORT,
            &on as *const i32 as *const _,
            4,
        )
    };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: all-zero bytes are a valid sockaddr_storage value.
    let mut ss: sys::sockaddr_storage = unsafe { std::mem::zeroed() };
    let len = sys::encode_sockaddr(&addr, &mut ss);
    // SAFETY: `ss` holds `len` valid sockaddr bytes for the whole call.
    let rc = unsafe { sys::bind(fd, ss.bytes.as_ptr(), len) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(socket)
}

/// See the Linux version; there is no portable `SO_REUSEPORT`-before-
/// bind, so this platform reports `Unsupported` and callers run one
/// drain thread.
#[cfg(not(target_os = "linux"))]
pub fn bind_reuseport(_addr: SocketAddr) -> io::Result<UdpSocket> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "SO_REUSEPORT steering is Linux-only",
    ))
}

/// Which of `n` reuseport members (drain threads) owns `payload`'s
/// session: `session % n`. The session id is big-endian at byte 4 of a
/// probe (`"BDG1"`) and at byte 5 of a control message (`"BDC1"` plus a
/// type byte); byte 2 (`G` or `C`) tells the two apart. This is the
/// Rust twin of the kernel program that
/// [`crate::provider::Provider::bind_steered`] attaches, down to its
/// rule that a load past the end of the datagram returns 0, so short
/// and garbage datagrams go to member 0. FaultNet lanes deliver by it,
/// and the tests hold the kernel to it.
pub fn steer_lane(payload: &[u8], n: usize) -> usize {
    let at = if payload.get(2) == Some(&b'G') { 4 } else { 5 };
    match payload.get(at..at + 4) {
        Some(id) => u32::from_be_bytes(id.try_into().expect("4 bytes")) as usize % n,
        None => 0,
    }
}

/// The classic-BPF form of [`steer_lane`] for an `n`-member group:
///
/// ```text
///        ldb [2]
///        jeq #'G', probe, ctl
/// probe: ld  [4]
///        ja  mod
/// ctl:   ld  [5]
/// mod:   mod #n
///        ret a
/// ```
///
/// A reuseport program sees the UDP payload from offset 0, `ld` loads
/// big-endian, and an out-of-bounds load makes the program return 0.
#[cfg(target_os = "linux")]
fn steer_program(n: u32) -> [sys::sock_filter; 7] {
    const LD_B_ABS: u16 = 0x30;
    const LD_W_ABS: u16 = 0x20;
    const JEQ_K: u16 = 0x15;
    const JA: u16 = 0x05;
    const MOD_K: u16 = 0x94;
    const RET_A: u16 = 0x16;
    let op = |code, jt, jf, k| sys::sock_filter { code, jt, jf, k };
    [
        op(LD_B_ABS, 0, 0, 2),
        op(JEQ_K, 0, 2, u32::from(b'G')),
        op(LD_W_ABS, 0, 0, 4),
        op(JA, 0, 0, 1),
        op(LD_W_ABS, 0, 0, 5),
        op(MOD_K, 0, 0, n),
        op(RET_A, 0, 0, 0),
    ]
}

/// Attach the session-steering program ([`steer_lane`]) to the
/// reuseport group `socket` is a bound member of, so every datagram of
/// session `s` lands on member `s % n` whatever its source 4-tuple. One
/// attach covers the whole group. A kernel that refuses the program
/// returns the error, and the caller runs one drain thread.
#[cfg(target_os = "linux")]
pub(crate) fn attach_steer_program(socket: &UdpSocket, n: usize) -> io::Result<()> {
    use std::os::fd::AsRawFd;
    let n = u32::try_from(n).map_err(|_| io::Error::from(io::ErrorKind::InvalidInput))?;
    let program = steer_program(n);
    let fprog = sys::sock_fprog {
        len: program.len() as u16,
        filter: program.as_ptr(),
    };
    // SAFETY: `fprog` points at `program`'s 7 instructions. The kernel
    // copies the program during the call, so the instruction buffer
    // only has to outlive this `setsockopt`, which it does.
    let rc = unsafe {
        sys::setsockopt(
            socket.as_raw_fd(),
            sys::SOL_SOCKET,
            sys::SO_ATTACH_REUSEPORT_CBPF,
            &fprog as *const sys::sock_fprog as *const _,
            std::mem::size_of::<sys::sock_fprog>() as u32,
        )
    };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// See the Linux version: without reuseport groups there is nothing to
/// attach to.
#[cfg(not(target_os = "linux"))]
pub(crate) fn attach_steer_program(_socket: &UdpSocket, _n: usize) -> io::Result<()> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "session steering is Linux-only",
    ))
}

/// Placeholder source address for the (never-observed) case of a
/// recvmmsg entry with an unparseable sockaddr.
fn unspecified() -> SocketAddr {
    SocketAddr::from(([0, 0, 0, 0], 0))
}

/// The fallback path's one-datagram read: `UdpSocket::recv_from`,
/// except that on a socket shut for reading ([`wake_readers`]) it fails
/// with `NotConnected`. std would hand the kernel's empty, sourceless
/// read to its address decoding, which asserts on it.
#[cfg(target_os = "linux")]
fn recv_from(socket: &UdpSocket, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
    use std::os::fd::AsRawFd;
    let mut addr = sys::sockaddr_storage {
        bytes: [0; sys::SOCKADDR_STORAGE_BYTES],
    };
    let mut addr_len = sys::SOCKADDR_STORAGE_BYTES as u32;
    // SAFETY: the kernel writes at most `buf.len()` bytes into `buf` and
    // at most `addr_len` bytes into `addr`, both live for the call; the
    // fd is owned by `socket`.
    let n = unsafe {
        sys::recvfrom(
            socket.as_raw_fd(),
            buf.as_mut_ptr(),
            buf.len(),
            0,
            addr.bytes.as_mut_ptr(),
            &mut addr_len,
        )
    };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    if addr_len == 0 {
        return Err(shut_for_reading());
    }
    let src = sys::parse_sockaddr(&addr).unwrap_or_else(unspecified);
    Ok((n as usize, src))
}

/// Receive one datagram already queued on a connected socket, without
/// waiting: `WouldBlock` when none is. One `recv` with `MSG_DONTWAIT`,
/// so the socket stays blocking and its read timeout stays armed for
/// the next blocking read.
#[cfg(target_os = "linux")]
pub(crate) fn try_recv(socket: &UdpSocket, buf: &mut [u8]) -> io::Result<usize> {
    use std::os::fd::AsRawFd;
    // SAFETY: the kernel writes at most `buf.len()` bytes into `buf`,
    // live for the call, and no address; the fd is owned by `socket`.
    let n = unsafe {
        sys::recvfrom(
            socket.as_raw_fd(),
            buf.as_mut_ptr(),
            buf.len(),
            sys::MSG_DONTWAIT,
            std::ptr::null_mut(),
            std::ptr::null_mut(),
        )
    };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(n as usize)
}

/// Receive one datagram already queued, without waiting (see the Linux
/// version): here the socket is switched to non-blocking for the call.
#[cfg(not(target_os = "linux"))]
pub(crate) fn try_recv(socket: &UdpSocket, buf: &mut [u8]) -> io::Result<usize> {
    socket.set_nonblocking(true)?;
    let got = socket.recv(buf);
    socket.set_nonblocking(false)?;
    got
}

/// What a receive on a socket shut for reading ([`wake_readers`])
/// returns once no datagram is left queued.
#[cfg(target_os = "linux")]
fn shut_for_reading() -> io::Error {
    io::Error::new(io::ErrorKind::NotConnected, "socket shut for reading")
}

#[cfg(not(target_os = "linux"))]
fn recv_from(socket: &UdpSocket, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
    socket.recv_from(buf)
}

/// Bytes per batched ring slot: under `UDP_GRO` a coalesced read can be
/// a whole super-datagram (up to the UDP payload maximum).
pub const GRO_SLOT_BYTES: usize = 65_536;

/// One logical datagram of the last recv: a window into a ring slot.
/// Without GRO every slot is exactly one window; a coalesced read is
/// split into one window per segment.
#[derive(Debug, Clone, Copy)]
struct View {
    slot: u32,
    off: u32,
    len: u32,
}

/// Where a [`BatchReceiver`]'s datagrams land.
enum Slots {
    /// The batched ring: `cap` slots, allocated uninitialized and never
    /// zeroed. Only bytes `recvmmsg` reported for a slot are ever read.
    Ring(Box<[MaybeUninit<u8>]>),
    /// The fallback path's one zeroed slot, which `recv_from` fills.
    One(Box<[u8]>),
}

/// A preallocated receive ring: one `recv` call fills up to `cap`
/// datagram slots (one syscall on the batched path, exactly one datagram
/// on the fallback path) with no allocation. Indices handed to
/// [`BatchReceiver::datagram`] address *logical* datagrams: under GRO a
/// single slot may carry many.
pub struct BatchReceiver {
    cap: usize,
    slot: usize,
    slots: Slots,
    srcs: Vec<SocketAddr>,
    truncs: Vec<bool>,
    /// Per-slot kernel RX stamp, expressed as its age in nanoseconds
    /// relative to the wall sample taken right after the syscall
    /// (`u64::MAX` = no kernel stamp for that slot).
    ages: Vec<u64>,
    /// Logical datagrams of the last recv, in arrival order.
    views: Vec<View>,
    count: usize,
    gro_on: bool,
    /// Whether `SO_TIMESTAMPING` has been asked for (at the first
    /// coalesced read); `stamps_on` says whether the kernel agreed.
    stamps_asked: bool,
    stamps_on: bool,
    configured: bool,
    syscalls: u64,
    datagrams: u64,
    truncated: u64,
    gro_segments_split: u64,
    cmsg_decode_errors: u64,
    #[cfg(target_os = "linux")]
    ctrl: Vec<u8>,
    #[cfg(target_os = "linux")]
    raw: RawRing,
}

#[cfg(target_os = "linux")]
struct RawRing {
    hdrs: Vec<sys::mmsghdr>,
    iovs: Vec<sys::iovec>,
    addrs: Vec<sys::sockaddr_storage>,
}

impl BatchReceiver {
    /// A ring of `cap` slots of [`GRO_SLOT_BYTES`] each on the batched
    /// path; one slot of [`DATAGRAM_BYTES`] on the fallback path.
    pub fn new(cap: usize, mode: IoMode) -> Self {
        Self::with_slot_bytes(cap, mode, GRO_SLOT_BYTES)
    }

    /// [`BatchReceiver::new`] with `slot` bytes per batched ring slot
    /// (the fallback slot is always [`DATAGRAM_BYTES`]), so a test can
    /// make a read overflow its slot.
    fn with_slot_bytes(cap: usize, mode: IoMode, slot: usize) -> Self {
        assert!(cap >= 1, "batch capacity must be at least 1");
        let batched = mode.use_batched();
        let (slot, slots, ring_len) = if batched {
            (slot, Slots::Ring(Box::new_uninit_slice(cap * slot)), cap)
        } else {
            let one = vec![0u8; DATAGRAM_BYTES].into_boxed_slice();
            (DATAGRAM_BYTES, Slots::One(one), 0)
        };
        let mut out = Self {
            cap,
            slot,
            slots,
            srcs: vec![unspecified(); cap],
            truncs: vec![false; cap],
            ages: vec![u64::MAX; cap],
            // A GRO read splits into at most MAX_GSO_SEGMENTS logical
            // datagrams (the kernel's own coalescing cap), plus headroom.
            // `recv` never grows this: past its share it merges the rest
            // of a read into one view, so the drain never reallocates.
            views: Vec::with_capacity(if batched {
                cap * (cmsg::MAX_GSO_SEGMENTS + 1)
            } else {
                1
            }),
            count: 0,
            gro_on: false,
            stamps_asked: false,
            stamps_on: false,
            configured: false,
            syscalls: 0,
            datagrams: 0,
            truncated: 0,
            gro_segments_split: 0,
            cmsg_decode_errors: 0,
            #[cfg(target_os = "linux")]
            ctrl: vec![0u8; ring_len * cmsg::RECV_CONTROL_BYTES],
            #[cfg(target_os = "linux")]
            raw: RawRing {
                // SAFETY: all-zero bytes are a valid value for these
                // plain-data C structs; every field is rewritten before
                // the kernel sees it.
                hdrs: vec![unsafe { std::mem::zeroed() }; ring_len],
                iovs: vec![unsafe { std::mem::zeroed() }; ring_len],
                addrs: vec![unsafe { std::mem::zeroed() }; ring_len],
            },
        };
        #[cfg(target_os = "linux")]
        out.init_ring();
        #[cfg(not(target_os = "linux"))]
        let _ = ring_len;
        out
    }

    /// Point every mmsghdr at its iovec/addr/cmsg slot once, at
    /// construction. `recv` then only has to refresh the fields the
    /// kernel overwrites (`msg_namelen`, `msg_controllen`, `msg_flags`,
    /// `msg_len`) instead of rebuilding the whole ring per syscall —
    /// this is measurable at millions of packets per second. The
    /// fallback path has no raw ring, so this wires nothing.
    #[cfg(target_os = "linux")]
    fn init_ring(&mut self) {
        let Slots::Ring(ring) = &mut self.slots else {
            return;
        };
        let slot = self.slot;
        for (i, iov) in self.raw.iovs.iter_mut().enumerate() {
            *iov = sys::iovec {
                iov_base: ring[i * slot..].as_mut_ptr().cast::<u8>(),
                iov_len: slot,
            };
        }
        let iovs = self.raw.iovs.as_mut_ptr();
        let addrs = self.raw.addrs.as_mut_ptr();
        for (i, hdr) in self.raw.hdrs.iter_mut().enumerate() {
            // SAFETY: all three pointers index into the raw ring's own
            // vectors, and the iovecs into the slot allocation. None of
            // them is resized after construction, so their heap
            // allocations — which is what these pointers address — stay
            // put even if the `BatchReceiver` itself moves. Pointing at
            // them once here is sound for the struct's whole lifetime.
            *hdr = sys::mmsghdr {
                msg_hdr: sys::msghdr {
                    msg_name: unsafe { (*addrs.add(i)).bytes.as_mut_ptr() },
                    msg_namelen: sys::SOCKADDR_STORAGE_BYTES as u32,
                    msg_iov: unsafe { iovs.add(i) },
                    msg_iovlen: 1,
                    msg_control: self.ctrl[i * cmsg::RECV_CONTROL_BYTES..].as_mut_ptr() as *mut _,
                    msg_controllen: cmsg::RECV_CONTROL_BYTES,
                    msg_flags: 0,
                },
                msg_len: 0,
            };
        }
    }

    /// Whether this ring resolved to the batched implementation.
    pub fn is_batched(&self) -> bool {
        matches!(self.slots, Slots::Ring(_))
    }

    /// Enable `UDP_GRO` the first time the ring sees its socket. A
    /// refusal degrades stickily (the flag stays off and is never
    /// retried): a kernel without `UDP_GRO` still receives, one datagram
    /// per slot.
    #[cfg(target_os = "linux")]
    fn ensure_socket_setup(&mut self, socket: &UdpSocket) {
        use std::os::fd::AsRawFd;
        if self.configured {
            return;
        }
        self.configured = true;
        let on: i32 = 1;
        // SAFETY: passes a 4-byte value the kernel only reads.
        let rc = unsafe {
            sys::setsockopt(
                socket.as_raw_fd(),
                cmsg::SOL_UDP,
                cmsg::UDP_GRO,
                &on as *const i32 as *const _,
                4,
            )
        };
        self.gro_on = rc == 0;
    }

    /// Ask for kernel software RX stamps, once: `recv` calls this after
    /// the first read that came back coalesced, so each stamp is shared
    /// by the segments of a read instead of paid per separate datagram.
    /// A refusal is sticky like `UDP_GRO`'s, and leaves timestamp
    /// consumers on the userspace clock.
    #[cfg(target_os = "linux")]
    fn engage_stamps(&mut self, socket: &UdpSocket) {
        use std::os::fd::AsRawFd;
        self.stamps_asked = true;
        let flags: u32 = cmsg::SOF_TIMESTAMPING_RX_SOFTWARE | cmsg::SOF_TIMESTAMPING_SOFTWARE;
        // SAFETY: passes a 4-byte value the kernel only reads.
        let rc = unsafe {
            sys::setsockopt(
                socket.as_raw_fd(),
                sys::SOL_SOCKET,
                cmsg::SO_TIMESTAMPING,
                &flags as *const u32 as *const _,
                4,
            )
        };
        self.stamps_on = rc == 0;
    }

    /// Receive into the ring: blocks per the socket's read timeout for
    /// the first datagram, then (batched path) drains whatever else is
    /// already queued, up to capacity, without blocking again
    /// (`MSG_WAITFORONE`). Returns the number of **logical** datagrams
    /// now readable via [`BatchReceiver::datagram`] — under GRO one read
    /// may split into many. Timeouts surface as `WouldBlock`/`TimedOut`
    /// exactly like `recv_from`.
    pub fn recv(&mut self, socket: &UdpSocket) -> io::Result<usize> {
        self.count = 0;
        self.views.clear();
        if let Slots::One(buf) = &mut self.slots {
            let (len, src) = recv_from(socket, buf)?;
            self.srcs[0] = src;
            // `recv_from` silently clips oversized datagrams to the
            // buffer and reports the clipped length, so a slot-filling
            // read is the only truncation signal this path has. Probe
            // and control payloads are all well under a slot, so a
            // full slot can only be an oversized (clipped) datagram.
            self.truncs[0] = len >= self.slot;
            if self.truncs[0] {
                self.truncated += 1;
            }
            self.ages[0] = u64::MAX;
            self.views.push(View {
                slot: 0,
                off: 0,
                len: len.min(self.slot) as u32,
            });
            self.count = 1;
            self.syscalls += 1;
            self.datagrams += 1;
            return Ok(1);
        }
        #[cfg(target_os = "linux")]
        {
            use std::os::fd::AsRawFd;
            self.ensure_socket_setup(socket);
            // The ring was wired up once in `init_ring`; per call only
            // the fields the kernel overwrites need resetting. The
            // kernel rewrites each sockaddr before reporting it, so the
            // address slots themselves don't need clearing either.
            for hdr in &mut self.raw.hdrs {
                hdr.msg_hdr.msg_namelen = sys::SOCKADDR_STORAGE_BYTES as u32;
                hdr.msg_hdr.msg_flags = 0;
                hdr.msg_len = 0;
                // The kernel shrinks controllen to what it wrote;
                // restore the full window (the pointer is untouched).
                hdr.msg_hdr.msg_controllen = cmsg::RECV_CONTROL_BYTES;
            }
            // SAFETY: hdrs/iovs/addrs/ctrl are `cap` valid, live entries
            // whose pointers `init_ring` set; each iovec covers exactly
            // its own slot, so the kernel writes nowhere else. The fd is
            // owned by `socket`, which outlives the call.
            let n = unsafe {
                sys::recvmmsg(
                    socket.as_raw_fd(),
                    self.raw.hdrs.as_mut_ptr(),
                    self.cap as u32,
                    sys::MSG_WAITFORONE,
                    std::ptr::null_mut(),
                )
            };
            if n < 0 {
                return Err(io::Error::last_os_error());
            }
            // A read with no source address carries no datagram: it is
            // how a socket shut for reading (`wake_readers`) ends a
            // receive. Keep the datagrams queued ahead of it; a receive
            // that starts with one fails, as on the fallback path.
            let n = self.raw.hdrs[..n as usize]
                .iter()
                .take_while(|h| h.msg_hdr.msg_namelen != 0)
                .count();
            if n == 0 {
                return Err(shut_for_reading());
            }
            // One wall sample right after the syscall maps kernel
            // CLOCK_REALTIME stamps into the caller's clock domain as
            // ages ("this packet hit the NIC stack X ns before now"),
            // which keeps the measurement path monotonic-clock only.
            let wall = if self.stamps_on && n > 0 {
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .ok()
            } else {
                None
            };
            let mut coalesced = false;
            for i in 0..n {
                let hdr = &self.raw.hdrs[i];
                // The bytes the kernel wrote into slot `i`: `msg_len` is
                // what it copied, never more than the slot. Every view
                // below stays inside them.
                let len = (hdr.msg_len as usize).min(self.slot);
                self.srcs[i] = sys::parse_sockaddr(&self.raw.addrs[i]).unwrap_or_else(unspecified);
                // The kernel flags clipped datagrams explicitly here.
                self.truncs[i] = hdr.msg_hdr.msg_flags & sys::MSG_TRUNC != 0;
                if self.truncs[i] {
                    self.truncated += 1;
                }
                self.ages[i] = u64::MAX;
                let mut seg = 0usize;
                let clen = hdr.msg_hdr.msg_controllen.min(cmsg::RECV_CONTROL_BYTES);
                let ctrl = &self.ctrl[i * cmsg::RECV_CONTROL_BYTES..][..clen];
                let mut it = cmsg::CmsgIter::new(ctrl);
                for c in it.by_ref() {
                    match (c.level, c.ty) {
                        (sys::SOL_SOCKET, cmsg::SCM_TIMESTAMPING) => {
                            // An all-zero stamp means "not stamped" (only
                            // one of the three timespecs is ever filled)
                            // — that is a fallback, not a decode error.
                            if let (Some(stamp), Some(w)) =
                                (cmsg::parse_scm_timestamping(c.data), wall)
                            {
                                let age = w.saturating_sub(stamp).as_nanos();
                                self.ages[i] = age.min(u64::MAX as u128) as u64;
                            }
                        }
                        (cmsg::SOL_UDP, cmsg::UDP_GRO) => {
                            match cmsg::parse_gro_segment_size(c.data) {
                                Some(s) => seg = s,
                                None => self.cmsg_decode_errors += 1,
                            }
                        }
                        _ => {}
                    }
                }
                if it.malformed {
                    self.cmsg_decode_errors += 1;
                }
                if seg > 0 && seg < len && !self.truncs[i] {
                    // A coalesced super-datagram: split it into logical
                    // datagrams at the kernel-reported segment size. The
                    // last segment may be short (a genuinely smaller
                    // trailing packet). Every later read of this batch
                    // keeps one view in reserve, so a kernel coalescing
                    // beyond its documented cap cannot crowd one out.
                    let budget = self.views.capacity() - self.views.len() - (n - 1 - i);
                    let mut produced = 0usize;
                    for (off, seg_len) in cmsg::segments(len, seg) {
                        if produced == budget {
                            // Merge the remainder into this read's last
                            // view rather than reallocating (zero-alloc
                            // drain contract), and flag it.
                            self.cmsg_decode_errors += 1;
                            let last = self.views.last_mut().expect("budget is at least one view");
                            last.len = (len - last.off as usize) as u32;
                            break;
                        }
                        self.views.push(View {
                            slot: i as u32,
                            off: off as u32,
                            len: seg_len as u32,
                        });
                        produced += 1;
                    }
                    if produced > 1 {
                        self.gro_segments_split += produced as u64;
                        coalesced = true;
                    }
                } else {
                    self.views.push(View {
                        slot: i as u32,
                        off: 0,
                        len: len as u32,
                    });
                }
            }
            if coalesced && !self.stamps_asked {
                self.engage_stamps(socket);
            }
            self.count = self.views.len();
            self.syscalls += 1;
            self.datagrams += self.count as u64;
            Ok(self.count)
        }
        #[cfg(not(target_os = "linux"))]
        unreachable!("batched mode never resolves on this platform")
    }

    /// Logical datagram `i` of the last [`BatchReceiver::recv`] (panics
    /// past its return value).
    pub fn datagram(&self, i: usize) -> (&[u8], SocketAddr) {
        assert!(i < self.count, "datagram index {i} >= batch {}", self.count);
        let v = self.views[i];
        let start = v.slot as usize * self.slot + v.off as usize;
        let end = start + v.len as usize;
        let bytes = match &self.slots {
            Slots::One(buf) => &buf[start..end],
            Slots::Ring(ring) => {
                let written = &ring[start..end];
                // SAFETY: `recv` cleared the old views and made each new
                // one inside the first `min(msg_len, slot)` bytes of its
                // slot, which the kernel wrote during that same call, so
                // every byte here is initialized; `MaybeUninit<u8>` has
                // the layout of `u8`.
                unsafe { std::slice::from_raw_parts(written.as_ptr().cast::<u8>(), written.len()) }
            }
        };
        (bytes, self.srcs[v.slot as usize])
    }

    /// Whether datagram `i` of the last recv was clipped to the ring
    /// slot (its payload is incomplete — drop it, don't decode it).
    pub fn is_truncated(&self, i: usize) -> bool {
        assert!(i < self.count, "datagram index {i} >= batch {}", self.count);
        self.truncs[self.views[i].slot as usize]
    }

    /// Kernel RX stamp of datagram `i` of the last recv, as its age in
    /// nanoseconds at the moment `recv` returned (`None` when the kernel
    /// didn't stamp it — no read has come back coalesced yet, stamping
    /// is unsupported, or the datagram was queued before stamping was
    /// enabled). Segments split from one GRO super-datagram share their
    /// slot's stamp.
    pub fn stamp_age_ns(&self, i: usize) -> Option<u64> {
        assert!(i < self.count, "datagram index {i} >= batch {}", self.count);
        let age = self.ages[self.views[i].slot as usize];
        (age != u64::MAX).then_some(age)
    }

    /// Whether kernel RX timestamping engaged on the socket: it is asked
    /// for at the first coalesced read, so this stays false on a ring
    /// that has only ever read separate datagrams.
    pub fn kernel_stamps_enabled(&self) -> bool {
        self.stamps_on
    }

    /// Whether GRO coalescing actually engaged on the socket.
    pub fn gro_enabled(&self) -> bool {
        self.gro_on
    }

    /// Receive syscalls issued so far.
    pub fn syscalls(&self) -> u64 {
        self.syscalls
    }

    /// Logical datagrams received so far (each GRO segment counts one).
    pub fn datagrams(&self) -> u64 {
        self.datagrams
    }

    /// Datagrams received clipped (see [`BatchReceiver::is_truncated`]).
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// Logical datagrams produced by splitting GRO super-datagrams (only
    /// counts reads that actually coalesced two or more segments).
    pub fn gro_segments_split(&self) -> u64 {
        self.gro_segments_split
    }

    /// Control messages (or GRO splits) that failed to decode sanely.
    pub fn cmsg_decode_errors(&self) -> u64 {
        self.cmsg_decode_errors
    }
}

/// A batched sender for a **connected** `UdpSocket`: one `send` call
/// hands a prefix of the given packets to the kernel (all of them in one
/// `sendmmsg` on the batched path, exactly one on the fallback path)
/// with no allocation.
pub struct BatchSender {
    cap: usize,
    batched: bool,
    /// Sticky health of the offload: the first send the kernel rejects
    /// with "no offload here" (`EIO`/`EINVAL`/`EOPNOTSUPP`) clears this
    /// and every later train goes straight to `sendmmsg`.
    gso_ok: bool,
    syscalls: u64,
    datagrams: u64,
    gso_sends: u64,
    #[cfg(target_os = "linux")]
    hdrs: Vec<sys::mmsghdr>,
    #[cfg(target_os = "linux")]
    iovs: Vec<sys::iovec>,
    #[cfg(target_os = "linux")]
    gso_cmsg: [u8; cmsg::space(2)],
}

impl BatchSender {
    /// A sender batching up to `cap` datagrams per syscall.
    pub fn new(cap: usize, mode: IoMode) -> Self {
        assert!(cap >= 1, "batch capacity must be at least 1");
        let batched = mode.use_batched();
        Self {
            cap,
            batched,
            gso_ok: true,
            syscalls: 0,
            datagrams: 0,
            gso_sends: 0,
            #[cfg(target_os = "linux")]
            hdrs: vec![unsafe { std::mem::zeroed() }; cap],
            #[cfg(target_os = "linux")]
            iovs: vec![unsafe { std::mem::zeroed() }; cap],
            #[cfg(target_os = "linux")]
            gso_cmsg: [0u8; cmsg::space(2)],
        }
    }

    /// Whether this sender resolved to the batched implementation.
    pub fn is_batched(&self) -> bool {
        self.batched
    }

    /// Send a prefix of `pkts` on the connected socket. Returns how many
    /// datagrams the kernel accepted (always ≥ 1 on `Ok` for non-empty
    /// input; possibly fewer than `pkts.len()`, callers loop). An error
    /// always refers to `pkts[0]`: the batched syscall reports an error
    /// only when it occurs on the *first* datagram, later failures
    /// surface as a short count — which matches the fallback path's
    /// one-at-a-time semantics, so per-packet error accounting
    /// (`ConnectionRefused` skip-and-continue) is identical on both.
    pub fn send(&mut self, socket: &UdpSocket, pkts: &[&[u8]]) -> io::Result<usize> {
        if pkts.is_empty() {
            return Ok(0);
        }
        if !self.batched {
            socket.send(pkts[0])?;
            self.syscalls += 1;
            self.datagrams += 1;
            return Ok(1);
        }
        #[cfg(target_os = "linux")]
        {
            let n = pkts.len().min(self.cap);
            for (iov, pkt) in self.iovs.iter_mut().zip(pkts).take(n) {
                // The kernel never writes through a send iovec; the cast
                // from shared to mut is only to satisfy the C signature.
                *iov = sys::iovec {
                    iov_base: pkt.as_ptr() as *mut u8,
                    iov_len: pkt.len(),
                };
            }
            self.sendmmsg(socket, n)
        }
        #[cfg(not(target_os = "linux"))]
        unreachable!("batched mode never resolves on this platform")
    }

    /// Like [`BatchSender::send`], but the packets are `count` equal
    /// [`seg_bytes`]-sized segments of one flat buffer — the shape of a
    /// probe train encoded into a single reused allocation, so the
    /// steady-state TX path needs no per-train slice-of-slices. Same
    /// prefix/short-count/error semantics as `send`.
    ///
    /// On the batched path this is the offload entry point: the whole
    /// prefix goes down as **one** `sendmsg` carrying a `UDP_SEGMENT`
    /// cmsg and the kernel segments it, clamped to the kernel's own
    /// limits (64 segments, 64 KiB total). If the path reports it can't offload
    /// (`EIO`/`EINVAL`/`EOPNOTSUPP`) the sender degrades stickily to
    /// `sendmmsg` and stays correct.
    ///
    /// [`seg_bytes`]: Self::send_segments
    pub fn send_segments(
        &mut self,
        socket: &UdpSocket,
        buf: &[u8],
        seg_bytes: usize,
        count: usize,
    ) -> io::Result<usize> {
        assert!(
            count * seg_bytes <= buf.len(),
            "train overruns its buffer: {count} x {seg_bytes} > {}",
            buf.len()
        );
        if count == 0 {
            return Ok(0);
        }
        if !self.batched {
            socket.send(&buf[..seg_bytes])?;
            self.syscalls += 1;
            self.datagrams += 1;
            return Ok(1);
        }
        #[cfg(target_os = "linux")]
        {
            if self.gso_ok && count > 1 && seg_bytes > 0 && seg_bytes <= u16::MAX as usize {
                let train = &buf[..count * seg_bytes];
                if let Some(result) = self.send_gso(socket, train, seg_bytes, None) {
                    return result;
                }
                // Offload refused: degraded for good, fall through to
                // the sendmmsg path below for this and all later trains.
            }
            let n = count.min(self.cap);
            for (i, iov) in self.iovs.iter_mut().take(n).enumerate() {
                // The kernel never writes through a send iovec; the cast
                // from shared to mut is only to satisfy the C signature.
                *iov = sys::iovec {
                    iov_base: buf[i * seg_bytes..].as_ptr() as *mut u8,
                    iov_len: seg_bytes,
                };
            }
            self.sendmmsg(socket, n)
        }
        #[cfg(not(target_os = "linux"))]
        unreachable!("batched mode never resolves on this platform")
    }

    /// Send `buf` to `dst` from an unconnected socket as consecutive
    /// datagrams of `seg_bytes` each, except that the last may be
    /// shorter — the shape of a window of report chunks encoded back to
    /// back. Returns how many datagrams went out, a prefix (callers
    /// loop); an error refers to the first of them.
    ///
    /// On the batched path the prefix goes down as **one** `UDP_SEGMENT`
    /// `sendmsg` addressed to `dst`, clamped like
    /// [`BatchSender::send_segments`]' trains, and the kernel splits it
    /// into the same datagrams, short tail included. A kernel that
    /// refuses the offload (`EIO`/`EINVAL`/`EOPNOTSUPP`) degrades the
    /// sender for good, to one `send_to` per datagram — the only path
    /// [`IoMode::Fallback`] ever takes.
    pub fn send_segments_to(
        &mut self,
        socket: &UdpSocket,
        buf: &[u8],
        seg_bytes: usize,
        dst: SocketAddr,
    ) -> io::Result<usize> {
        assert!(seg_bytes > 0, "segments must be at least one byte");
        if buf.is_empty() {
            return Ok(0);
        }
        #[cfg(target_os = "linux")]
        if self.batched && self.gso_ok && seg_bytes <= u16::MAX as usize {
            if let Some(result) = self.send_gso(socket, buf, seg_bytes, Some(&dst)) {
                return result;
            }
        }
        socket.send_to(&buf[..seg_bytes.min(buf.len())], dst)?;
        self.syscalls += 1;
        self.datagrams += 1;
        Ok(1)
    }

    /// Send the datagrams the first `n` iovecs point at in one
    /// `sendmmsg`, one datagram per iovec. Returns how many the kernel
    /// accepted, a prefix; an error refers to the first datagram.
    #[cfg(target_os = "linux")]
    fn sendmmsg(&mut self, socket: &UdpSocket, n: usize) -> io::Result<usize> {
        use std::os::fd::AsRawFd;
        for (hdr, iov) in self.hdrs.iter_mut().zip(&mut self.iovs).take(n) {
            *hdr = sys::mmsghdr {
                msg_hdr: sys::msghdr {
                    msg_name: std::ptr::null_mut(), // connected socket
                    msg_namelen: 0,
                    msg_iov: iov,
                    msg_iovlen: 1,
                    msg_control: std::ptr::null_mut(),
                    msg_controllen: 0,
                    msg_flags: 0,
                },
                msg_len: 0,
            };
        }
        // SAFETY: the first `n` headers each point at one iovec of this
        // sender, and each iovec at live bytes of the caller's buffer,
        // borrowed for the call; the fd is owned by `socket`.
        let sent =
            unsafe { sys::sendmmsg(socket.as_raw_fd(), self.hdrs.as_mut_ptr(), n as u32, 0) };
        if sent < 0 {
            return Err(io::Error::last_os_error());
        }
        self.syscalls += 1;
        self.datagrams += sent as u64;
        Ok(sent as usize)
    }

    /// The `UDP_SEGMENT` fast path: one `sendmsg` of a clamped prefix of
    /// the flat buffer, segmented by the kernel into `seg_bytes`
    /// datagrams (the last may be shorter), to the connected peer or to
    /// `dst`. Returns `None` when the kernel signals the path can't
    /// offload — the caller falls through to its per-datagram path (and
    /// `gso_ok` stays cleared so it never retries) — or when the clamp
    /// leaves a single segment, where offload buys nothing. Real send
    /// errors (e.g. `ECONNREFUSED`) come back as `Some(Err(..))` so
    /// per-packet error accounting matches the other paths: an error
    /// always refers to the first datagram.
    #[cfg(target_os = "linux")]
    fn send_gso(
        &mut self,
        socket: &UdpSocket,
        buf: &[u8],
        seg_bytes: usize,
        dst: Option<&SocketAddr>,
    ) -> Option<io::Result<usize>> {
        use std::os::fd::AsRawFd;
        let k = buf
            .len()
            .div_ceil(seg_bytes)
            .min(self.cap)
            .min(cmsg::MAX_GSO_SEGMENTS)
            .min(cmsg::MAX_GSO_BYTES / seg_bytes);
        if k <= 1 {
            return None;
        }
        // Only an unclamped buffer keeps its short tail.
        let total = buf.len().min(k * seg_bytes);
        // The kernel never writes through a send iovec; the cast from
        // shared to mut is only to satisfy the C signature.
        self.iovs[0] = sys::iovec {
            iov_base: buf.as_ptr() as *mut u8,
            iov_len: total,
        };
        let clen = cmsg::write(
            &mut self.gso_cmsg,
            cmsg::SOL_UDP,
            cmsg::UDP_SEGMENT,
            &(seg_bytes as u16).to_ne_bytes(),
        );
        let mut name = sys::sockaddr_storage {
            bytes: [0; sys::SOCKADDR_STORAGE_BYTES],
        };
        let (msg_name, msg_namelen) = match dst {
            Some(dst) => {
                let len = sys::encode_sockaddr(dst, &mut name);
                (name.bytes.as_mut_ptr(), len)
            }
            None => (std::ptr::null_mut(), 0), // connected socket
        };
        let hdr = sys::msghdr {
            msg_name,
            msg_namelen,
            msg_iov: self.iovs.as_mut_ptr(),
            msg_iovlen: 1,
            msg_control: self.gso_cmsg.as_mut_ptr() as *mut _,
            msg_controllen: clen,
            msg_flags: 0,
        };
        // SAFETY: the iovec points at `total` live bytes of `buf`, the
        // control buffer at `clen` live bytes of `gso_cmsg`, and a
        // destination at `msg_namelen` live bytes of `name`; the fd is
        // owned by `socket` which outlives the call.
        let sent = unsafe { sys::sendmsg(socket.as_raw_fd(), &hdr, 0) };
        if sent < 0 {
            let err = io::Error::last_os_error();
            return match err.raw_os_error() {
                // EIO(5) / EINVAL(22) / EOPNOTSUPP(95): this path can't
                // segment — not a datagram-level failure. Degrade.
                Some(5 | 22 | 95) => {
                    self.gso_ok = false;
                    None
                }
                _ => Some(Err(err)),
            };
        }
        // A short byte count is a short datagram count, rounded up: the
        // kernel segments every started segment.
        let accepted = (sent as usize).div_ceil(seg_bytes).clamp(1, k);
        self.syscalls += 1;
        self.gso_sends += 1;
        self.datagrams += accepted as u64;
        Some(Ok(accepted))
    }

    /// Send syscalls issued so far.
    pub fn syscalls(&self) -> u64 {
        self.syscalls
    }

    /// Datagrams handed to the kernel so far.
    pub fn datagrams(&self) -> u64 {
        self.datagrams
    }

    /// Trains submitted through the `UDP_SEGMENT` offload so far.
    pub fn gso_sends(&self) -> u64 {
        self.gso_sends
    }
}

/// Best-effort enlargement of the socket's kernel buffers (no-op off
/// Linux). High-rate loopback benches overflow the default `rcvbuf`
/// long before the datapath is the bottleneck; failures are ignored —
/// this is an optimization, never a correctness requirement.
pub fn set_buffer_sizes(socket: &UdpSocket, recv_bytes: usize, send_bytes: usize) {
    #[cfg(target_os = "linux")]
    {
        use std::os::fd::AsRawFd;
        for (opt, bytes) in [(sys::SO_RCVBUF, recv_bytes), (sys::SO_SNDBUF, send_bytes)] {
            let val = bytes as i32;
            // SAFETY: setsockopt reads exactly 4 bytes from a valid i32.
            unsafe {
                sys::setsockopt(
                    socket.as_raw_fd(),
                    sys::SOL_SOCKET,
                    opt,
                    &val as *const i32 as *const core::ffi::c_void,
                    std::mem::size_of::<i32>() as u32,
                );
            }
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (socket, recv_bytes, send_bytes);
    }
}

/// Wake every thread blocked receiving on `socket`, for good (no-op off
/// Linux, where a blocked receive ends at the socket's read timeout).
///
/// `shutdown(SHUT_RD)` on an unconnected UDP socket fails with
/// `ENOTCONN`, but the kernel still marks the socket shut for reading
/// and wakes every blocked reader, so the return value is ignored.
/// From then on every receive returns at once: first with whatever
/// datagrams were already queued, then with an error (the kernel's
/// empty, sourceless reads are never reported as datagrams), so no wake
/// can be lost. It ends the socket's use as a receiver. Read such a
/// socket only through [`BatchReceiver`]: std's `recv_from` asserts on
/// the empty read.
pub fn wake_readers(socket: &UdpSocket) {
    #[cfg(target_os = "linux")]
    {
        use std::os::fd::AsRawFd;
        // SAFETY: plain syscall on an fd `socket` owns; no memory passed.
        unsafe { sys::shutdown(socket.as_raw_fd(), sys::SHUT_RD) };
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = socket;
    }
}

/// What the running kernel's UDP stack can actually do, probed at
/// runtime on a scratch socket. CI on old kernels uses this to record a
/// skip instead of failing the offload benches; tests gate on it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OffloadCaps {
    /// `UDP_SEGMENT` (sender-side GSO) accepted.
    pub udp_segment: bool,
    /// `UDP_GRO` (receiver-side coalescing) accepted.
    pub udp_gro: bool,
    /// `SO_TIMESTAMPING` with software RX stamps accepted.
    pub so_timestamping: bool,
    /// A `SO_REUSEPORT` group bound and the session-steering program
    /// attached to it (per-thread receive steering).
    pub so_reuseport: bool,
}

impl OffloadCaps {
    /// Whether batched senders can engage their transmit offload here.
    pub fn gso_ready(&self) -> bool {
        self.udp_segment
    }

    /// Whether batched receive rings can also coalesce here.
    pub fn gro_ready(&self) -> bool {
        self.udp_segment && self.udp_gro
    }

    /// Whether `--recv-threads N > 1` can bind a session-steered
    /// reuseport group here, i.e. whether the server will not fall back
    /// to one drain thread.
    pub fn reuseport_ready(&self) -> bool {
        self.so_reuseport
    }
}

/// Probe the running kernel for the offload tier's prerequisites by
/// attempting each `setsockopt` on a throwaway loopback socket. Always
/// all-false off Linux (and when even binding fails).
pub fn kernel_offload_caps() -> OffloadCaps {
    #[cfg(target_os = "linux")]
    {
        use std::os::fd::AsRawFd;
        let Ok(probe) = UdpSocket::bind("127.0.0.1:0") else {
            return OffloadCaps::default();
        };
        let fd = probe.as_raw_fd();
        let try_opt = |level: i32, opt: i32, val: i32| -> bool {
            // SAFETY: passes a 4-byte value the kernel only reads; the
            // fd stays owned by `probe` for the whole call.
            unsafe { sys::setsockopt(fd, level, opt, &val as *const i32 as *const _, 4) == 0 }
        };
        OffloadCaps {
            udp_segment: try_opt(cmsg::SOL_UDP, cmsg::UDP_SEGMENT, 1200),
            udp_gro: try_opt(cmsg::SOL_UDP, cmsg::UDP_GRO, 1),
            so_timestamping: try_opt(
                sys::SOL_SOCKET,
                cmsg::SO_TIMESTAMPING,
                (cmsg::SOF_TIMESTAMPING_RX_SOFTWARE | cmsg::SOF_TIMESTAMPING_SOFTWARE) as i32,
            ),
            so_reuseport: bind_reuseport(SocketAddr::from(([127, 0, 0, 1], 0)))
                .and_then(|group| attach_steer_program(&group, 2))
                .is_ok(),
        }
    }
    #[cfg(not(target_os = "linux"))]
    OffloadCaps::default()
}

/// Hand-declared Linux syscall surface (the workspace builds offline,
/// without the `libc` crate). Layouts match the x86_64/aarch64 glibc
/// ABI; `repr(C)` reproduces the same padding the C definitions have.
#[cfg(target_os = "linux")]
mod sys {
    #![allow(non_camel_case_types)]

    use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, SocketAddrV6};

    pub const AF_INET: u16 = 2;
    pub const AF_INET6: u16 = 10;
    /// recvmmsg: block for the first datagram only, then drain
    /// non-blocking.
    pub const MSG_WAITFORONE: i32 = 0x10000;
    /// Set by the kernel in `msg_flags` when a datagram was clipped to
    /// the supplied buffer.
    pub const MSG_TRUNC: i32 = 0x20;
    /// One call non-blocking, whatever the socket's mode.
    pub const MSG_DONTWAIT: i32 = 0x40;
    pub const SOL_SOCKET: i32 = 1;
    pub const SO_RCVBUF: i32 = 8;
    pub const SO_SNDBUF: i32 = 7;
    /// Per-thread receive steering: every socket in the group must set
    /// this **before** bind.
    pub const SO_REUSEPORT: i32 = 15;
    /// Attach a classic-BPF program that picks the reuseport group
    /// member (`include/uapi/asm-generic/socket.h`).
    pub const SO_ATTACH_REUSEPORT_CBPF: i32 = 51;
    pub const SOCK_DGRAM: i32 = 2;
    /// Matches `std`'s sockets: no fd leaks across exec.
    pub const SOCK_CLOEXEC: i32 = 0o2000000;
    pub const SOCKADDR_STORAGE_BYTES: usize = 128;
    /// `shutdown(2)`: stop further receives.
    pub const SHUT_RD: i32 = 0;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct iovec {
        pub iov_base: *mut u8,
        pub iov_len: usize,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct msghdr {
        pub msg_name: *mut u8,
        pub msg_namelen: u32,
        pub msg_iov: *mut iovec,
        pub msg_iovlen: usize,
        pub msg_control: *mut core::ffi::c_void,
        pub msg_controllen: usize,
        pub msg_flags: i32,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct mmsghdr {
        pub msg_hdr: msghdr,
        pub msg_len: u32,
    }

    /// Stand-in for `struct sockaddr_storage` (128 bytes, 8-aligned).
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    pub struct sockaddr_storage {
        pub bytes: [u8; SOCKADDR_STORAGE_BYTES],
    }

    /// One classic-BPF instruction (`struct sock_filter`).
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct sock_filter {
        pub code: u16,
        pub jt: u8,
        pub jf: u8,
        pub k: u32,
    }

    /// A classic-BPF program (`struct sock_fprog`).
    #[repr(C)]
    pub struct sock_fprog {
        pub len: u16,
        pub filter: *const sock_filter,
    }

    // Pin the hand-declared layouts to the 64-bit kernel ABI.
    #[cfg(target_pointer_width = "64")]
    const _: () = {
        use core::mem::{align_of, offset_of, size_of};
        assert!(size_of::<sock_filter>() == 8);
        assert!(size_of::<sock_fprog>() == 16);
        assert!(offset_of!(sock_fprog, filter) == 8);
        assert!(size_of::<iovec>() == 16 && align_of::<iovec>() == 8);
        assert!(offset_of!(iovec, iov_len) == 8);
        assert!(size_of::<msghdr>() == 56 && align_of::<msghdr>() == 8);
        assert!(offset_of!(msghdr, msg_namelen) == 8);
        assert!(offset_of!(msghdr, msg_iov) == 16);
        assert!(offset_of!(msghdr, msg_iovlen) == 24);
        assert!(offset_of!(msghdr, msg_control) == 32);
        assert!(offset_of!(msghdr, msg_controllen) == 40);
        assert!(offset_of!(msghdr, msg_flags) == 48);
        assert!(size_of::<mmsghdr>() == 64 && align_of::<mmsghdr>() == 8);
        assert!(offset_of!(mmsghdr, msg_len) == 56);
        assert!(size_of::<sockaddr_storage>() == 128);
        assert!(align_of::<sockaddr_storage>() == 8);
    };

    extern "C" {
        pub fn recvfrom(
            sockfd: i32,
            buf: *mut u8,
            len: usize,
            flags: i32,
            src_addr: *mut u8,
            addrlen: *mut u32,
        ) -> isize;
        pub fn recvmmsg(
            sockfd: i32,
            msgvec: *mut mmsghdr,
            vlen: u32,
            flags: i32,
            timeout: *mut core::ffi::c_void,
        ) -> i32;
        pub fn sendmmsg(sockfd: i32, msgvec: *mut mmsghdr, vlen: u32, flags: i32) -> i32;
        pub fn sendmsg(sockfd: i32, msg: *const msghdr, flags: i32) -> isize;
        pub fn setsockopt(
            sockfd: i32,
            level: i32,
            optname: i32,
            optval: *const core::ffi::c_void,
            optlen: u32,
        ) -> i32;
        pub fn shutdown(sockfd: i32, how: i32) -> i32;
        pub fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        pub fn bind(sockfd: i32, addr: *const u8, addrlen: u32) -> i32;
    }

    /// Decode a kernel-filled sockaddr (`sin_family` is native-endian,
    /// ports are network order).
    pub fn parse_sockaddr(ss: &sockaddr_storage) -> Option<SocketAddr> {
        let b = &ss.bytes;
        match u16::from_ne_bytes([b[0], b[1]]) {
            AF_INET => {
                let port = u16::from_be_bytes([b[2], b[3]]);
                Some(SocketAddr::from((
                    Ipv4Addr::new(b[4], b[5], b[6], b[7]),
                    port,
                )))
            }
            AF_INET6 => {
                let port = u16::from_be_bytes([b[2], b[3]]);
                let flowinfo = u32::from_ne_bytes([b[4], b[5], b[6], b[7]]);
                let mut addr = [0u8; 16];
                addr.copy_from_slice(&b[8..24]);
                let scope = u32::from_ne_bytes([b[24], b[25], b[26], b[27]]);
                Some(SocketAddr::V6(SocketAddrV6::new(
                    Ipv6Addr::from(addr),
                    port,
                    flowinfo,
                    scope,
                )))
            }
            _ => None,
        }
    }

    /// Encode a `SocketAddr` into kernel sockaddr bytes — the exact
    /// inverse of [`parse_sockaddr`] (`sin_family` native-endian, ports
    /// network order). Returns the length `bind(2)` expects:
    /// `sizeof(sockaddr_in)` = 16 or `sizeof(sockaddr_in6)` = 28.
    pub fn encode_sockaddr(addr: &SocketAddr, ss: &mut sockaddr_storage) -> u32 {
        let b = &mut ss.bytes;
        match addr {
            SocketAddr::V4(v4) => {
                b[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
                b[2..4].copy_from_slice(&v4.port().to_be_bytes());
                b[4..8].copy_from_slice(&v4.ip().octets());
                16
            }
            SocketAddr::V6(v6) => {
                b[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                b[2..4].copy_from_slice(&v6.port().to_be_bytes());
                b[4..8].copy_from_slice(&v6.flowinfo().to_ne_bytes());
                b[8..24].copy_from_slice(&v6.ip().octets());
                b[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
                28
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn pair() -> (UdpSocket, UdpSocket) {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.connect(rx.local_addr().unwrap()).unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        (rx, tx)
    }

    fn roundtrip(mode: IoMode) {
        let (rx, tx) = pair();
        let payloads: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; 64 + i as usize]).collect();
        let pkts: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        let mut sender = BatchSender::new(8, mode);
        let mut off = 0;
        while off < pkts.len() {
            off += sender.send(&tx, &pkts[off..]).unwrap();
        }
        assert_eq!(sender.datagrams(), 5);

        let mut ring = BatchReceiver::new(4, mode);
        let mut got: Vec<Vec<u8>> = Vec::new();
        while got.len() < 5 {
            let n = ring.recv(&rx).unwrap();
            assert!((1..=4).contains(&n));
            for i in 0..n {
                let (data, src) = ring.datagram(i);
                assert_eq!(src, tx.local_addr().unwrap());
                got.push(data.to_vec());
            }
        }
        // UDP loopback preserves order in practice, but only assert set
        // equality to stay robust.
        got.sort();
        let mut want = payloads.clone();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(ring.datagrams(), 5);
        assert!(ring.syscalls() <= 5);

        // A drained socket times out like recv_from does.
        let err = ring.recv(&rx).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "unexpected timeout error: {err:?}"
        );
    }

    #[test]
    fn fallback_roundtrip() {
        roundtrip(IoMode::Fallback);
    }

    #[test]
    fn batched_roundtrip() {
        roundtrip(IoMode::Batched);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn batched_mode_resolves_on_linux() {
        assert_eq!(IoMode::default(), IoMode::Batched);
        assert!(IoMode::Batched.use_batched());
        assert!(!IoMode::Fallback.use_batched());
        assert_eq!(IoMode::Gso, IoMode::Batched, "the old name is an alias");
    }

    #[test]
    fn io_mode_parses_offload_spellings() {
        assert_eq!("batched".parse::<IoMode>().unwrap(), IoMode::Batched);
        // The offload tier is the batched mode; its old spellings are gone.
        for gone in ["auto", "gso", "gso+gro", "gro"] {
            assert!(gone.parse::<IoMode>().is_err(), "{gone}");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn batched_recv_drains_queued_datagrams_in_one_call() {
        let (rx, tx) = pair();
        // Queue 6 datagrams before the first recv: the batched ring must
        // pick up several per syscall (MSG_WAITFORONE drains what's
        // there), and far fewer syscalls than datagrams.
        for i in 0u8..6 {
            tx.send(&[i; 32]).unwrap();
        }
        // Let the loopback queue settle so all 6 are receivable.
        std::thread::sleep(Duration::from_millis(50));
        let mut ring = BatchReceiver::new(8, IoMode::Batched);
        let mut total = 0;
        while total < 6 {
            total += ring.recv(&rx).unwrap();
        }
        assert_eq!(total, 6);
        assert_eq!(
            ring.syscalls(),
            1,
            "queued datagrams must drain in one recvmmsg"
        );
    }

    /// A stop must not wait out the read timeout: `wake_readers` ends a
    /// receive blocked under a 10 s timeout at once, and every later
    /// receive returns at once too, so no wake can be lost. The 1 s
    /// margins are wide on purpose, for a loaded host.
    #[cfg(target_os = "linux")]
    #[test]
    fn wake_readers_ends_a_blocked_recv_and_every_later_one() {
        use std::time::Instant;
        for mode in [IoMode::Batched, IoMode::Fallback] {
            let rx = std::sync::Arc::new(UdpSocket::bind("127.0.0.1:0").unwrap());
            rx.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let reader = {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut ring = BatchReceiver::new(8, mode);
                    let first = ring.recv(&rx);
                    let woken_at = Instant::now();
                    let second = ring.recv(&rx);
                    (first, woken_at, second, woken_at.elapsed())
                })
            };
            // Let the reader block in its receive (had it not yet, its
            // receive would still return at once).
            std::thread::sleep(Duration::from_millis(200));
            let wake = Instant::now();
            wake_readers(&rx);
            let (first, woken_at, second, again) = reader.join().unwrap();
            let woke_in = woken_at.saturating_duration_since(wake);
            assert!(
                woke_in < Duration::from_secs(1),
                "{mode:?}: woke in {woke_in:?}"
            );
            assert!(
                again < Duration::from_secs(1),
                "{mode:?}: next recv took {again:?}"
            );
            // The kernel answers each read with an empty, sourceless one,
            // which no path reports as a datagram.
            for read in [&first, &second] {
                let err = read.as_ref().expect_err("no datagram was sent");
                assert_eq!(err.kind(), io::ErrorKind::NotConnected, "{mode:?}");
            }
        }
    }

    /// Datagrams queued before the wake still come out, each as itself;
    /// only then do reads fail.
    #[cfg(target_os = "linux")]
    #[test]
    fn wake_readers_keeps_the_datagrams_queued_ahead_of_it() {
        for mode in [IoMode::Batched, IoMode::Fallback] {
            let (rx, tx) = pair();
            for i in 0u8..3 {
                tx.send(&[i; 16]).unwrap();
            }
            // Let the loopback queue settle so all 3 are receivable.
            std::thread::sleep(Duration::from_millis(50));
            wake_readers(&rx);
            let mut ring = BatchReceiver::new(8, mode);
            let mut got = Vec::new();
            while let Ok(n) = ring.recv(&rx) {
                for i in 0..n {
                    let (data, src) = ring.datagram(i);
                    assert_eq!(src, tx.local_addr().unwrap(), "{mode:?}");
                    got.push(data.to_vec());
                }
            }
            let want: Vec<Vec<u8>> = (0u8..3).map(|i| vec![i; 16]).collect();
            assert_eq!(got, want, "{mode:?}");
        }
    }

    #[test]
    fn segment_send_matches_slice_send() {
        for mode in [IoMode::Fallback, IoMode::Batched] {
            let (rx, tx) = pair();
            // A 3-segment train in one flat buffer.
            let seg = 48;
            let mut train = vec![0u8; 3 * seg];
            for (i, chunk) in train.chunks_mut(seg).enumerate() {
                chunk.fill(i as u8 + 1);
            }
            let mut sender = BatchSender::new(8, mode);
            let mut sent = 0;
            while sent < 3 {
                sent += sender
                    .send_segments(&tx, &train[sent * seg..], seg, 3 - sent)
                    .unwrap();
            }
            assert_eq!(sender.datagrams(), 3);
            let mut buf = [0u8; 256];
            let mut got: Vec<Vec<u8>> = Vec::new();
            for _ in 0..3 {
                let (len, _) = rx.recv_from(&mut buf).unwrap();
                got.push(buf[..len].to_vec());
            }
            got.sort();
            let mut want: Vec<Vec<u8>> = train.chunks(seg).map(<[u8]>::to_vec).collect();
            want.sort();
            assert_eq!(got, want, "mode {mode:?}");
        }
    }

    #[test]
    fn oversized_datagrams_are_flagged_truncated_not_decoded_short() {
        for mode in [IoMode::Fallback, IoMode::Batched] {
            let (rx, tx) = pair();
            // One datagram larger than a ring slot, one normal-sized.
            tx.send(&vec![0xAB; DATAGRAM_BYTES + 512]).unwrap();
            tx.send(&[0xCD; 64]).unwrap();
            // The batched ring's slots hold any UDP payload, so give it
            // the fallback's slot size to make the datagram overflow.
            let mut ring = BatchReceiver::with_slot_bytes(4, mode, DATAGRAM_BYTES);
            let mut seen = Vec::new();
            while seen.len() < 2 {
                let n = ring.recv(&rx).unwrap();
                for i in 0..n {
                    let (data, _) = ring.datagram(i);
                    seen.push((data.len(), ring.is_truncated(i)));
                }
            }
            seen.sort();
            assert_eq!(
                seen,
                vec![(64, false), (DATAGRAM_BYTES, true)],
                "mode {mode:?}: the clipped datagram must be flagged"
            );
            assert_eq!(ring.truncated(), 1, "mode {mode:?}");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn batched_send_is_one_syscall_per_train() {
        let (rx, tx) = pair();
        let payloads: Vec<Vec<u8>> = (0u8..3).map(|i| vec![i; 100]).collect();
        let pkts: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        let mut sender = BatchSender::new(8, IoMode::Batched);
        assert_eq!(sender.send(&tx, &pkts).unwrap(), 3);
        assert_eq!(sender.syscalls(), 1);
        let mut buf = [0u8; 256];
        for want in &payloads {
            let (len, _) = rx.recv_from(&mut buf).unwrap();
            assert_eq!(&buf[..len], &want[..]);
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn gso_send_is_one_syscall_and_arrives_as_distinct_datagrams() {
        if !kernel_offload_caps().gso_ready() {
            eprintln!("skipping: kernel has no UDP_SEGMENT");
            return;
        }
        let (rx, tx) = pair();
        let seg = 48;
        let mut train = vec![0u8; 5 * seg];
        for (i, chunk) in train.chunks_mut(seg).enumerate() {
            chunk.fill(i as u8 + 1);
        }
        let mut sender = BatchSender::new(8, IoMode::Batched);
        assert_eq!(
            sender.send_segments(&tx, &train, seg, 5).unwrap(),
            5,
            "the whole train fits one super-datagram"
        );
        assert_eq!(sender.syscalls(), 1, "one sendmsg for the whole train");
        assert_eq!(sender.gso_sends(), 1);
        assert_eq!(sender.datagrams(), 5);
        // The kernel segmented it: five ordinary datagrams on the wire.
        let mut buf = [0u8; 256];
        let mut got: Vec<Vec<u8>> = Vec::new();
        for _ in 0..5 {
            let (len, _) = rx.recv_from(&mut buf).unwrap();
            got.push(buf[..len].to_vec());
        }
        got.sort();
        let mut want: Vec<Vec<u8>> = train.chunks(seg).map(<[u8]>::to_vec).collect();
        want.sort();
        assert_eq!(got, want);
    }

    /// Serve a report of three windows with a short last chunk from an
    /// unconnected socket, one window per `send_segments_to` loop, into
    /// a plain (non-GRO) socket. Returns the datagrams in arrival order
    /// and the chunks one `send_to` each would have sent.
    fn serve_report_windows(sender: &mut BatchSender) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        use badabing_wire::control::{
            chunk_count, chunk_window, encode_report_chunk_into, ReportRecord, MAX_CONTROL_BYTES,
            RECORDS_PER_CHUNK, REPORT_WINDOW_CHUNKS,
        };
        let window = REPORT_WINDOW_CHUNKS as usize;
        // Two full windows, then a third of five chunks whose last one
        // carries 7 records.
        let n = (2 * window + 4) * RECORDS_PER_CHUNK + 7;
        let records: Vec<ReportRecord> = (0..n as u64)
            .map(|i| ReportRecord {
                experiment: i / 3,
                slot: i,
                received: (i % 4) as u8,
                duplicates: (i % 3) as u8,
                qdelay_last_secs: i as f64 * 1e-6,
                qdelay_max_secs: i as f64 * 2e-6,
                flags: (i % 2) as u8,
            })
            .collect();
        let total = chunk_count(records.len());
        assert_eq!(total as usize, 2 * window + 5);
        let (rx, _) = pair();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let dst = rx.local_addr().unwrap();
        let mut per_chunk = Vec::new();
        let mut got = Vec::new();
        let mut buf = vec![0u8; window * MAX_CONTROL_BYTES];
        let mut one = [0u8; MAX_CONTROL_BYTES];
        for first in (0..total).step_by(window) {
            let chunks = first..(first + window as u32).min(total);
            let mut len = 0;
            for c in chunks.clone() {
                let w = chunk_window(&records, c);
                len += encode_report_chunk_into(7, c, total, w, &mut buf[len..]);
                let k = encode_report_chunk_into(7, c, total, w, &mut one);
                per_chunk.push(one[..k].to_vec());
            }
            let mut sent = 0;
            while sent < len {
                let k = sender
                    .send_segments_to(&tx, &buf[sent..len], MAX_CONTROL_BYTES, dst)
                    .unwrap();
                sent = (sent + k * MAX_CONTROL_BYTES).min(len);
            }
            // Read each window before the next: a plain socket's default
            // receive buffer need only hold one.
            let mut dgram = [0u8; 2 * MAX_CONTROL_BYTES];
            for _ in chunks {
                let (k, src) = rx.recv_from(&mut dgram).unwrap();
                assert_eq!(src, tx.local_addr().unwrap());
                got.push(dgram[..k].to_vec());
            }
        }
        assert_eq!(per_chunk.last().unwrap().len(), 19 + 7 * 35, "short tail");
        (got, per_chunk)
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_report_window_goes_out_as_one_segmented_send() {
        if !kernel_offload_caps().gso_ready() {
            eprintln!("skipping: kernel has no UDP_SEGMENT");
            return;
        }
        let mut sender = BatchSender::new(32, IoMode::Batched);
        let (got, per_chunk) = serve_report_windows(&mut sender);
        assert_eq!(got, per_chunk, "the datagrams one send_to each would send");
        assert_eq!(sender.syscalls(), 3, "one send syscall per window");
        assert_eq!(sender.gso_sends(), 3);
        assert_eq!(sender.datagrams(), per_chunk.len() as u64);
    }

    #[test]
    fn a_fallback_sender_serves_a_window_one_chunk_per_send() {
        let mut sender = BatchSender::new(32, IoMode::Fallback);
        let (got, per_chunk) = serve_report_windows(&mut sender);
        assert_eq!(got, per_chunk);
        assert_eq!(sender.syscalls(), per_chunk.len() as u64);
        assert_eq!(sender.gso_sends(), 0);
    }

    /// A sender whose offload was refused serves every later window one
    /// `send_to` per chunk, the same datagrams.
    #[test]
    fn a_degraded_sender_serves_a_window_one_chunk_per_send() {
        let mut sender = BatchSender::new(32, IoMode::Batched);
        sender.gso_ok = false;
        let (got, per_chunk) = serve_report_windows(&mut sender);
        assert_eq!(got, per_chunk);
        assert_eq!(sender.syscalls(), per_chunk.len() as u64);
        assert_eq!(sender.gso_sends(), 0);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn gso_clamps_to_kernel_segment_cap() {
        if !kernel_offload_caps().gso_ready() {
            eprintln!("skipping: kernel has no UDP_SEGMENT");
            return;
        }
        let (rx, tx) = pair();
        let seg = 32;
        let count = 100; // past UDP_MAX_SEGMENTS: must clamp to 64
        let train = vec![0x5Au8; count * seg];
        let mut sender = BatchSender::new(128, IoMode::Batched);
        let accepted = sender.send_segments(&tx, &train, seg, count).unwrap();
        assert_eq!(accepted, cmsg::MAX_GSO_SEGMENTS, "prefix is the kernel cap");
        let mut buf = [0u8; 256];
        for _ in 0..accepted {
            let (len, _) = rx.recv_from(&mut buf).unwrap();
            assert_eq!(len, seg);
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn gro_ring_reports_logical_datagrams_with_kernel_stamps() {
        let caps = kernel_offload_caps();
        if !caps.gro_ready() || !caps.so_timestamping {
            eprintln!("skipping: kernel has no UDP_GRO / SO_TIMESTAMPING");
            return;
        }
        let (rx, tx) = pair();
        let mut ring = BatchReceiver::new(4, IoMode::Batched);
        let seg = 512;
        let mut train = vec![0u8; 6 * seg];
        for (i, chunk) in train.chunks_mut(seg).enumerate() {
            chunk.fill(i as u8 + 1);
        }
        let mut sender = BatchSender::new(8, IoMode::Batched);
        assert_eq!(sender.send_segments(&tx, &train, seg, 6).unwrap(), 6);
        // Whether or not loopback actually coalesced, the ring must
        // surface exactly six logical datagrams with the right payloads.
        let mut got: Vec<Vec<u8>> = Vec::new();
        while got.len() < 6 {
            let n = ring.recv(&rx).unwrap();
            for i in 0..n {
                let (data, _) = ring.datagram(i);
                got.push(data.to_vec());
                assert!(!ring.is_truncated(i));
                if ring.kernel_stamps_enabled() {
                    if let Some(age) = ring.stamp_age_ns(i) {
                        assert!(
                            age < 60 * 1_000_000_000,
                            "a fresh loopback stamp cannot be {age} ns old"
                        );
                    }
                }
            }
        }
        got.sort();
        let mut want: Vec<Vec<u8>> = train.chunks(seg).map(<[u8]>::to_vec).collect();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(ring.datagrams(), 6);
        assert!(ring.gro_enabled(), "UDP_GRO accepted on this kernel");
        assert_eq!(ring.cmsg_decode_errors(), 0);
    }

    /// A batched ring whose socket options are already on: the options
    /// go on at the first `recv`, and a datagram queued before `UDP_GRO`
    /// is on is segmented by the kernel instead of coalesced.
    #[cfg(target_os = "linux")]
    fn primed_ring(rx: &UdpSocket, cap: usize, slot: usize) -> BatchReceiver {
        let mut ring = BatchReceiver::with_slot_bytes(cap, IoMode::Batched, slot);
        rx.set_nonblocking(true).unwrap();
        let err = ring.recv(rx).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        rx.set_nonblocking(false).unwrap();
        ring
    }

    /// One `UDP_SEGMENT` send of `buf` in `seg`-byte segments, the last
    /// possibly short ([`BatchSender::send_segments_to`]).
    #[cfg(target_os = "linux")]
    fn send_segmented(tx: &UdpSocket, buf: &[u8], seg: u16) {
        let dst = tx.peer_addr().unwrap();
        let mut sender = BatchSender::new(cmsg::MAX_GSO_SEGMENTS, IoMode::Batched);
        let seg = usize::from(seg);
        let sent = sender.send_segments_to(tx, buf, seg, dst).unwrap();
        assert_eq!(sent, buf.len().div_ceil(seg));
        assert_eq!(sender.gso_sends(), 1, "one segmented sendmsg");
    }

    /// Reads logical datagrams until `want` have arrived.
    #[cfg(target_os = "linux")]
    fn drain(ring: &mut BatchReceiver, rx: &UdpSocket, want: usize) -> Vec<(Vec<u8>, bool)> {
        let mut got = Vec::new();
        while got.len() < want {
            let n = ring.recv(rx).unwrap();
            for i in 0..n {
                got.push((ring.datagram(i).0.to_vec(), ring.is_truncated(i)));
            }
        }
        got
    }

    /// The ring is never zeroed, so a slot still holds the tail of the
    /// last, longer datagram it received. A shorter one read into the
    /// same slot must come back as exactly its own bytes.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_short_datagram_after_a_long_one_reads_only_its_own_bytes() {
        let (rx, tx) = pair();
        let mut ring = BatchReceiver::new(4, IoMode::Batched);
        tx.send(&[0xAA; 1500]).unwrap();
        assert_eq!(drain(&mut ring, &rx, 1), vec![(vec![0xAA; 1500], false)]);
        tx.send(&[0x11; 10]).unwrap();
        assert_eq!(drain(&mut ring, &rx, 1), vec![(vec![0x11; 10], false)]);
        tx.send(&[]).unwrap();
        assert_eq!(drain(&mut ring, &rx, 1), vec![(Vec::new(), false)]);
    }

    /// A super-datagram of five 100-byte segments and a 37-byte tail
    /// reads back as its six datagrams, tail included. With `UDP_GRO` on
    /// it arrives as one coalesced read that the ring splits.
    #[cfg(target_os = "linux")]
    #[test]
    fn gso_super_datagram_with_a_short_tail_splits_into_its_segments() {
        if !kernel_offload_caps().gso_ready() {
            eprintln!("skipping: kernel has no UDP_SEGMENT");
            return;
        }
        let (rx, tx) = pair();
        let mut ring = primed_ring(&rx, 4, GRO_SLOT_BYTES);
        let mut want: Vec<(Vec<u8>, bool)> = (1u8..=5).map(|b| (vec![b; 100], false)).collect();
        want.push((vec![6; 37], false));
        let buf: Vec<u8> = want.iter().flat_map(|(d, _)| d.clone()).collect();
        send_segmented(&tx, &buf, 100);
        assert_eq!(drain(&mut ring, &rx, 6), want);
        if ring.gro_enabled() {
            assert_eq!(ring.syscalls(), 1, "one coalesced read");
            assert_eq!(ring.gro_segments_split(), 6);
        }
        assert_eq!(ring.cmsg_decode_errors(), 0);
    }

    /// A read larger than its slot is clipped by the kernel and flagged.
    /// A clipped coalesced read is never split at its segment size,
    /// because its later segments are gone: it stays one truncated view,
    /// which the receiver drops without decoding.
    #[cfg(target_os = "linux")]
    #[test]
    fn oversized_coalesced_read_is_flagged_truncated_and_never_split() {
        let (rx, tx) = pair();
        let mut ring = primed_ring(&rx, 4, 1024);
        tx.send(&[0xAB; 1500]).unwrap();
        assert_eq!(drain(&mut ring, &rx, 1), vec![(vec![0xAB; 1024], true)]);
        assert_eq!(ring.truncated(), 1);
        if !(kernel_offload_caps().gso_ready() && ring.gro_enabled()) {
            eprintln!("skipping the coalesced read: kernel has no UDP_SEGMENT or UDP_GRO");
            return;
        }
        send_segmented(&tx, &[0xCD; 6 * 512], 512);
        assert_eq!(drain(&mut ring, &rx, 1), vec![(vec![0xCD; 1024], true)]);
        assert_eq!(ring.truncated(), 2);
        assert_eq!(ring.gro_segments_split(), 0);
    }

    /// Draining the batched ring — coalesced and separate datagrams, the
    /// payloads, flags and stamps — allocates nothing.
    #[cfg(target_os = "linux")]
    #[test]
    fn batched_drain_allocates_nothing() {
        let (rx, tx) = pair();
        let mut ring = primed_ring(&rx, 8, GRO_SLOT_BYTES);
        let mut sender = BatchSender::new(8, IoMode::Batched);
        let train = [0x42u8; 8 * 64];
        let mut allocs = 0;
        let mut drained = 0;
        for _ in 0..16 {
            let mut sent = 0;
            while sent < 8 {
                sent += sender
                    .send_segments(&tx, &train[sent * 64..], 64, 8 - sent)
                    .unwrap();
            }
            let singles: [&[u8]; 4] = [&[1; 64], &[2; 64], &[3; 64], &[4; 64]];
            assert_eq!(sender.send(&tx, &singles).unwrap(), 4);
            let mut round = 0;
            let before = crate::alloc_count::allocations();
            while round < 12 {
                let n = ring.recv(&rx).unwrap();
                for i in 0..n {
                    let (data, _) = ring.datagram(i);
                    assert_eq!(data.len(), 64);
                    assert!(!ring.is_truncated(i));
                    let _ = ring.stamp_age_ns(i);
                }
                round += n;
            }
            allocs += crate::alloc_count::allocations() - before;
            drained += round;
        }
        assert_eq!(drained, 16 * 12);
        assert_eq!(allocs, 0, "the drain allocated");
    }

    /// Kernel stamps ride on coalescing: a ring that has only read
    /// separate datagrams asks for none, and the first coalesced read
    /// turns them on for every later read, separate datagrams included.
    #[cfg(target_os = "linux")]
    #[test]
    fn kernel_stamps_engage_at_the_first_coalesced_read() {
        let (rx, tx) = pair();
        let mut ring = primed_ring(&rx, 4, GRO_SLOT_BYTES);
        tx.send(&[0x11; 64]).unwrap();
        assert_eq!(drain(&mut ring, &rx, 1), vec![(vec![0x11; 64], false)]);
        assert!(
            !ring.kernel_stamps_enabled(),
            "a separate datagram asks for no stamp"
        );
        assert_eq!(ring.stamp_age_ns(0), None);
        let caps = kernel_offload_caps();
        if !(caps.gso_ready() && caps.so_timestamping && ring.gro_enabled()) {
            eprintln!("skipping the coalesced read: kernel has no UDP_SEGMENT, UDP_GRO or SO_TIMESTAMPING");
            return;
        }
        send_segmented(&tx, &[0x22; 4 * 64], 64);
        assert_eq!(drain(&mut ring, &rx, 4), vec![(vec![0x22; 64], false); 4]);
        assert_eq!(ring.gro_segments_split(), 4, "one coalesced read");
        assert!(
            ring.kernel_stamps_enabled(),
            "the coalesced read engages stamps"
        );
        // The kernel may switch its stamp clock on a little after the
        // option is set, so the first few datagrams can still arrive
        // unstamped; one within half a second must carry a sane stamp.
        let stamped = (0..50).find_map(|_| {
            tx.send(&[0x33; 64]).unwrap();
            assert_eq!(drain(&mut ring, &rx, 1), vec![(vec![0x33; 64], false)]);
            let age = ring.stamp_age_ns(0);
            if age.is_none() {
                std::thread::sleep(Duration::from_millis(10));
            }
            age
        });
        let age = stamped.expect("no separate datagram was stamped after the coalesced read");
        assert!(age < 60 * 1_000_000_000, "stamp age {age} ns is absurd");
    }

    #[test]
    fn offload_caps_probe_never_panics_and_is_consistent() {
        let caps = kernel_offload_caps();
        // gro_ready implies gso-capable by definition.
        if caps.gro_ready() {
            assert!(caps.gso_ready());
        }
        #[cfg(not(target_os = "linux"))]
        assert_eq!(caps, OffloadCaps::default());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn reuseport_group_shares_one_port_and_delivers() {
        if !kernel_offload_caps().reuseport_ready() {
            eprintln!("skipping: kernel has no SO_REUSEPORT");
            return;
        }
        let first = bind_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = first.local_addr().unwrap();
        // Every later member binds the now-concrete address: same port,
        // no AddrInUse, because all members carry the option pre-bind.
        let second = bind_reuseport(addr).unwrap();
        assert_eq!(second.local_addr().unwrap(), addr);
        // A datagram sent to the shared address lands on exactly one
        // member of the group.
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.send_to(&[0xEE; 32], addr).unwrap();
        for s in [&first, &second] {
            s.set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
        }
        let mut buf = [0u8; 64];
        let delivered = [&first, &second]
            .iter()
            .filter(|s| matches!(s.recv_from(&mut buf), Ok((32, _))))
            .count();
        assert_eq!(delivered, 1, "one group member owns the flow");
    }

    /// The kernel program and its Rust twin agree: every datagram sent
    /// from one source socket, probe or control, for any session id, and
    /// every short or garbage payload, is read on member
    /// `steer_lane(payload, n)` of a 2-, 3- and 4-member group.
    #[cfg(target_os = "linux")]
    #[test]
    fn kernel_steering_matches_its_twin() {
        use badabing_wire::control::ControlMessage;
        use badabing_wire::ProbeHeader;
        let sessions = (0u32..8).chain([0xB0B, 0xDEAD_BEEF]);
        let mut payloads: Vec<Vec<u8>> = Vec::new();
        for session in sessions {
            let probe = ProbeHeader {
                session,
                experiment: 1,
                slot: 2,
                seq: 3,
                send_ns: 4,
                idx: 0,
                probe_len: 1,
            };
            payloads.push(probe.encode(64).to_vec());
            payloads.push(
                ControlMessage::Heartbeat { session, seq: 5 }
                    .encode()
                    .to_vec(),
            );
        }
        payloads.extend([
            Vec::new(),
            b"BD".to_vec(),
            b"BDG1\x00\x00".to_vec(),
            b"garbage, not a badabing datagram".to_vec(),
        ]);
        for n in [2usize, 3, 4] {
            let first = bind_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
            let addr = first.local_addr().unwrap();
            let mut group = vec![first];
            for _ in 1..n {
                group.push(bind_reuseport(addr).unwrap());
            }
            if let Err(e) = attach_steer_program(&group[0], n) {
                eprintln!("skipping: kernel refused the steering program: {e}");
                return;
            }
            let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
            for p in &payloads {
                tx.send_to(p, addr).unwrap();
            }
            let mut got = 0;
            let mut buf = [0u8; 256];
            for (member, s) in group.iter().enumerate() {
                s.set_read_timeout(Some(Duration::from_millis(200)))
                    .unwrap();
                while let Ok((len, _)) = s.recv_from(&mut buf) {
                    let want = steer_lane(&buf[..len], n);
                    assert_eq!(
                        member,
                        want,
                        "n = {n}: {:?} on member {member}",
                        &buf[..len]
                    );
                    got += 1;
                }
            }
            assert_eq!(
                got,
                payloads.len(),
                "n = {n}: every datagram delivered once"
            );
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn encode_sockaddr_roundtrips_through_parse() {
        for addr in [
            "127.0.0.1:4321".parse::<SocketAddr>().unwrap(),
            "[::1]:65000".parse::<SocketAddr>().unwrap(),
        ] {
            let mut ss: sys::sockaddr_storage = unsafe { std::mem::zeroed() };
            let len = sys::encode_sockaddr(&addr, &mut ss);
            assert!(len == 16 || len == 28);
            assert_eq!(sys::parse_sockaddr(&ss), Some(addr));
        }
    }
}
