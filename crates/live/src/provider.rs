//! The I/O provider seam: one surface, three backends.
//!
//! The sender, receiver, and control client are written against
//! [`Provider`] / [`Socket`] / [`Clock`] / [`RecvBatch`] / [`SendBatch`]
//! instead of concrete `UdpSocket`s, so the identical stack runs over:
//!
//! - **real UDP** with batched syscalls and kernel offload
//!   ([`Provider::Udp`] with [`IoMode::Batched`]): `UDP_SEGMENT` sends,
//!   and `recvmmsg` with `UDP_GRO` coalescing and, once reads arrive
//!   coalesced, kernel RX stamps, each degrading per socket where the
//!   kernel refuses it,
//! - **real UDP** one-datagram-at-a-time ([`IoMode::Fallback`]), or
//! - the **[`FaultNet`]** — a seeded in-process virtual network with
//!   virtual time, per-link loss bursts, reordering, duplication,
//!   jitter, and MTU truncation, and no real sockets at all
//!   ([`Provider::Fault`]).
//!
//! Enum dispatch (not a trait object) keeps the hot path monomorphic
//! and the configuration structs plain data: a `Provider` is `Clone`
//! and defaults to real UDP on the batched path, so existing
//! `..Config::new(..)` call sites keep working unchanged.

use crate::batch_io::{self, BatchReceiver, BatchSender, IoMode};
use crate::faultnet::{FaultDatagram, FaultNet, FaultSocket};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Which I/O backend a component binds its sockets through.
#[derive(Debug, Clone)]
pub enum Provider {
    /// Real UDP sockets; the [`IoMode`] picks the syscall tier.
    Udp(IoMode),
    /// The seeded in-process virtual network (virtual time, no
    /// sockets). All components of one run must share the same net.
    Fault(Arc<FaultNet>),
}

impl Default for Provider {
    fn default() -> Self {
        Provider::Udp(IoMode::Batched)
    }
}

impl Provider {
    /// Bind a datagram socket on this backend.
    pub fn bind(&self, addr: SocketAddr) -> io::Result<Socket> {
        match self {
            Provider::Udp(_) => Ok(Socket::Udp(UdpSocket::bind(addr)?)),
            Provider::Fault(net) => Ok(Socket::Fault(net.bind(addr)?)),
        }
    }

    /// Bind `n` sockets sharing one address, one per drain thread under
    /// `--recv-threads N`, with every datagram of session `s` delivered
    /// to socket `s % n` ([`crate::batch_io::steer_lane`]). Real UDP
    /// binds an `SO_REUSEPORT` group (every member sets the option
    /// before bind), then attaches the session-steering program to it.
    /// The virtual net splits the address into `n` lanes and delivers by
    /// the same function, which is what lets FaultNet differential tests
    /// cover multi-thread ingest. Errors (no `SO_REUSEPORT`, a refused
    /// program, non-Linux) surface so the caller can fall back to one
    /// drain thread.
    pub fn bind_steered(&self, addr: SocketAddr, n: usize) -> io::Result<Vec<Socket>> {
        assert!(n >= 1, "a reuseport group needs at least one socket");
        match self {
            Provider::Udp(_) => {
                let first = batch_io::bind_reuseport(addr)?;
                let bound = first.local_addr()?;
                let mut group = Vec::with_capacity(n);
                group.push(first);
                for _ in 1..n {
                    // Later members bind the now-concrete address so a
                    // port-0 request still yields one shared port.
                    group.push(batch_io::bind_reuseport(bound)?);
                }
                // Member `i` of the group is the `i`-th bound, so the
                // program's `s % n` names `group[s % n]`.
                batch_io::attach_steer_program(&group[0], n)?;
                Ok(group.into_iter().map(Socket::Udp).collect())
            }
            Provider::Fault(net) => Ok(net
                .bind_lanes(addr, n)?
                .into_iter()
                .map(Socket::Fault)
                .collect()),
        }
    }

    /// The clock components must schedule against: wall time for real
    /// sockets, the net's virtual clock for [`Provider::Fault`].
    pub fn clock(&self) -> Clock {
        match self {
            Provider::Udp(_) => Clock::Real,
            Provider::Fault(net) => Clock::Virtual(net.clone()),
        }
    }
}

/// A bound datagram socket on either backend. Mirrors the blocking
/// `UdpSocket` subset the live tool uses.
#[derive(Debug)]
pub enum Socket {
    Udp(UdpSocket),
    Fault(FaultSocket),
}

impl Socket {
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        match self {
            Socket::Udp(s) => s.local_addr(),
            Socket::Fault(s) => Ok(s.local_addr()),
        }
    }

    /// Set the default peer (and drop datagrams from anyone else).
    pub fn connect(&self, peer: SocketAddr) -> io::Result<()> {
        match self {
            Socket::Udp(s) => s.connect(peer),
            Socket::Fault(s) => s.connect(peer),
        }
    }

    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Socket::Udp(s) => s.set_read_timeout(timeout),
            Socket::Fault(s) => s.set_read_timeout(timeout),
        }
    }

    pub fn send(&self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Socket::Udp(s) => s.send(buf),
            Socket::Fault(s) => s.send(buf),
        }
    }

    pub fn send_to(&self, buf: &[u8], dst: SocketAddr) -> io::Result<usize> {
        match self {
            Socket::Udp(s) => s.send_to(buf, dst),
            Socket::Fault(s) => s.send_to(buf, dst),
        }
    }

    /// Receive one datagram from the connected peer (blocking per the
    /// read timeout). Oversized virtual datagrams are clipped to `buf`
    /// like the kernel clips them.
    pub fn recv(&self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Socket::Udp(s) => s.recv(buf),
            Socket::Fault(s) => {
                let msg = s.recv_msg()?;
                let n = msg.data.len().min(buf.len());
                buf[..n].copy_from_slice(&msg.data[..n]);
                Ok(n)
            }
        }
    }

    /// Receive one datagram with its source address.
    pub fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        match self {
            Socket::Udp(s) => s.recv_from(buf),
            Socket::Fault(s) => {
                let msg = s.recv_msg()?;
                let n = msg.data.len().min(buf.len());
                buf[..n].copy_from_slice(&msg.data[..n]);
                Ok((n, msg.src))
            }
        }
    }

    /// Best-effort kernel buffer enlargement (no-op on the virtual
    /// backend, whose queues are unbounded).
    pub fn set_buffer_sizes(&self, recv_bytes: usize, send_bytes: usize) {
        if let Socket::Udp(s) = self {
            batch_io::set_buffer_sizes(s, recv_bytes, send_bytes);
        }
    }

    /// The underlying OS file descriptor, where the backend has one —
    /// what an epoll readiness loop registers. Virtual sockets have no
    /// fd (their readiness is the virtual clock's business), so callers
    /// must fall back to the timeout loop for them.
    #[cfg(unix)]
    pub fn raw_fd(&self) -> Option<i32> {
        match self {
            Socket::Udp(s) => Some(std::os::fd::AsRawFd::as_raw_fd(s)),
            Socket::Fault(_) => None,
        }
    }
}

/// Process-wide epoch for [`Clock::Real`], so every component in one
/// process measures `now()` against the same anchor (the first call).
fn real_anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Real sleeps wake at this granularity to re-check their abort flag.
const SLEEP_CHUNK: Duration = Duration::from_millis(50);

static NEVER_ABORT: AtomicBool = AtomicBool::new(false);

/// The time source a component schedules against.
#[derive(Debug, Clone)]
pub enum Clock {
    /// Wall time (monotonic, process-wide epoch).
    Real,
    /// A [`FaultNet`]'s virtual clock.
    Virtual(Arc<FaultNet>),
}

impl Clock {
    /// Time since the clock's epoch.
    pub fn now(&self) -> Duration {
        match self {
            Clock::Real => real_anchor().elapsed(),
            Clock::Virtual(net) => net.now(),
        }
    }

    /// Sleep for `dur` (virtual backends advance virtual time).
    pub fn sleep(&self, dur: Duration) {
        match self {
            Clock::Real => std::thread::sleep(dur),
            Clock::Virtual(net) => {
                let due = net.now() + dur;
                net.sleep_until(due, &NEVER_ABORT);
            }
        }
    }

    /// Sleep until `due` (since the epoch), waking early — and
    /// returning `false` — if `abort` flips. Virtual sleepers wake on
    /// [`Clock::notify_waiters`] to observe the flag.
    pub fn sleep_until(&self, due: Duration, abort: &AtomicBool) -> bool {
        match self {
            Clock::Real => loop {
                if abort.load(Ordering::Relaxed) {
                    return false;
                }
                let now = real_anchor().elapsed();
                if now >= due {
                    return true;
                }
                std::thread::sleep((due - now).min(SLEEP_CHUNK));
            },
            Clock::Virtual(net) => net.sleep_until(due, abort),
        }
    }

    /// Wake virtual sleepers so they re-check their abort flags (no-op
    /// on the real clock, whose sleeps poll).
    pub fn notify_waiters(&self) {
        if let Clock::Virtual(net) = self {
            net.notify_waiters();
        }
    }

    /// Run `f` — typically a thread join — without counting this thread
    /// as busy in a virtual net, so virtual time keeps advancing for
    /// the thread being joined. Plain call on the real clock.
    pub fn unenrolled<T>(&self, f: impl FnOnce() -> T) -> T {
        match self {
            Clock::Real => f(),
            Clock::Virtual(net) => net.unenrolled(f),
        }
    }

    /// Pre-register a thread that is about to be spawned: call this
    /// *before* `thread::spawn`, move the enlistment into the closure,
    /// and have the child [`Clock::adopt`] it first thing. On a virtual
    /// clock this pins virtual time until the child is actually
    /// running, so peers cannot burn their timeouts against a thread
    /// the OS has not scheduled yet. No-op on the real clock.
    pub fn enlist(&self) -> Enlistment {
        match self {
            Clock::Real => Enlistment::Real,
            Clock::Virtual(net) => Enlistment::Virtual(net.reserve()),
        }
    }

    /// Claim an [`Enlistment`] from the spawning thread (see
    /// [`Clock::enlist`]).
    pub fn adopt(&self, enlistment: Enlistment) {
        if let (Clock::Virtual(net), Enlistment::Virtual(ticket)) = (self, enlistment) {
            net.adopt(ticket);
        }
    }
}

/// A participant reservation handed across a thread spawn (see
/// [`Clock::enlist`]).
#[must_use = "move the enlistment into the spawned thread and adopt it"]
pub enum Enlistment {
    /// Real clock: nothing to carry.
    Real,
    /// Virtual clock: the reserved busy token.
    Virtual(crate::faultnet::Ticket),
}

/// Where an arrival timestamp came from — the kernel's per-datagram
/// software RX stamp (taken in the network stack, before scheduler
/// noise) or the userspace clock read after the receive syscall
/// returned. The tag rides with every arrival through the receiver's
/// qdelay pipeline and into persisted records, so analysis can tell
/// precision-grade stamps from fallback ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimestampSource {
    /// Kernel software RX stamp (or the virtual net's exact delivery
    /// stamp, which has the same per-datagram precision property).
    Kernel,
    /// Userspace clock read after the receive call — the whole batch
    /// shares one reading, so it carries batching + scheduler noise.
    User,
}

/// A batched-receive ring over either backend: real rings issue
/// `recvmmsg`, virtual rings drain the socket's inbox, and both expose
/// per-datagram payload, source, truncation flag, and a tagged arrival
/// stamp (see [`RecvBatch::stamp`]).
pub struct RecvBatch {
    inner: RecvInner,
}

// One `RecvBatch` exists per drain thread for the life of a session, so
// the size gap between the real ring (which owns its iovec/cmsg
// bookkeeping inline) and the small virtual arm costs nothing; boxing
// the ring would buy an indirection on every hot-path access instead.
#[allow(clippy::large_enum_variant)]
enum RecvInner {
    Udp(BatchReceiver),
    Fault {
        cap: usize,
        msgs: Vec<FaultDatagram>,
        recvs: u64,
        datagrams: u64,
        truncated: u64,
    },
}

impl RecvBatch {
    /// A ring of `cap` slots on the given backend.
    pub fn new(cap: usize, provider: &Provider) -> Self {
        let inner = match provider {
            Provider::Udp(mode) => RecvInner::Udp(BatchReceiver::new(cap, *mode)),
            Provider::Fault(_) => RecvInner::Fault {
                cap,
                msgs: Vec::with_capacity(cap),
                recvs: 0,
                datagrams: 0,
                truncated: 0,
            },
        };
        Self { inner }
    }

    /// Block (per the socket's read timeout) for at least one datagram,
    /// then drain whatever else is already queued, up to capacity.
    /// Returns how many datagrams are readable via
    /// [`RecvBatch::datagram`].
    pub fn recv(&mut self, socket: &Socket) -> io::Result<usize> {
        match (&mut self.inner, socket) {
            (RecvInner::Udp(ring), Socket::Udp(s)) => ring.recv(s),
            (
                RecvInner::Fault {
                    cap,
                    msgs,
                    recvs,
                    datagrams,
                    truncated,
                },
                Socket::Fault(s),
            ) => {
                msgs.clear();
                msgs.push(s.recv_msg()?);
                while msgs.len() < *cap {
                    match s.try_recv_msg() {
                        Some(m) => msgs.push(m),
                        None => break,
                    }
                }
                *recvs += 1;
                *datagrams += msgs.len() as u64;
                *truncated += msgs.iter().filter(|m| m.truncated).count() as u64;
                Ok(msgs.len())
            }
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "socket backend does not match this ring",
            )),
        }
    }

    /// Datagram `i` of the last recv (panics past its return value).
    pub fn datagram(&self, i: usize) -> (&[u8], SocketAddr) {
        match &self.inner {
            RecvInner::Udp(ring) => ring.datagram(i),
            RecvInner::Fault { msgs, .. } => (&msgs[i].data, msgs[i].src),
        }
    }

    /// Whether datagram `i` arrived clipped (drop it, don't decode it).
    pub fn is_truncated(&self, i: usize) -> bool {
        match &self.inner {
            RecvInner::Udp(ring) => ring.is_truncated(i),
            RecvInner::Fault { msgs, .. } => msgs[i].truncated,
        }
    }

    /// Arrival stamp of datagram `i` of the last recv, on the caller's
    /// clock, tagged with where it came from.
    ///
    /// `batch_abs` is the caller's own clock reading for this batch.
    /// Real sockets with kernel RX timestamping return
    /// [`TimestampSource::Kernel`]: the kernel's per-datagram software
    /// stamp, re-anchored to the caller's clock by subtracting the
    /// stamp's age from `batch_abs` (pre-scheduler-noise precision
    /// without ever mixing clock domains). Without a kernel stamp the
    /// batch time itself comes back as [`TimestampSource::User`]. The
    /// virtual backend's exact delivery stamps count as `Kernel` — they
    /// are per-datagram and scheduler-noise-free by construction, which
    /// keeps differential runs exercising the same downstream paths.
    pub fn stamp(&self, i: usize, batch_abs: Duration) -> (Duration, TimestampSource) {
        match &self.inner {
            RecvInner::Udp(ring) => match ring.stamp_age_ns(i) {
                Some(age) => (
                    batch_abs.saturating_sub(Duration::from_nanos(age)),
                    TimestampSource::Kernel,
                ),
                None => (batch_abs, TimestampSource::User),
            },
            RecvInner::Fault { msgs, .. } => (msgs[i].stamp, TimestampSource::Kernel),
        }
    }

    /// Receive calls (syscalls on the real backend) issued so far.
    pub fn syscalls(&self) -> u64 {
        match &self.inner {
            RecvInner::Udp(ring) => ring.syscalls(),
            RecvInner::Fault { recvs, .. } => *recvs,
        }
    }

    /// Datagrams received so far.
    pub fn datagrams(&self) -> u64 {
        match &self.inner {
            RecvInner::Udp(ring) => ring.datagrams(),
            RecvInner::Fault { datagrams, .. } => *datagrams,
        }
    }

    /// Datagrams received clipped so far.
    pub fn truncated(&self) -> u64 {
        match &self.inner {
            RecvInner::Udp(ring) => ring.truncated(),
            RecvInner::Fault { truncated, .. } => *truncated,
        }
    }

    /// Logical datagrams produced by splitting GRO super-datagrams (real
    /// backend only; the virtual net never coalesces).
    pub fn gro_segments_split(&self) -> u64 {
        match &self.inner {
            RecvInner::Udp(ring) => ring.gro_segments_split(),
            RecvInner::Fault { .. } => 0,
        }
    }

    /// Control messages that failed to decode sanely (real backend only).
    pub fn cmsg_decode_errors(&self) -> u64 {
        match &self.inner {
            RecvInner::Udp(ring) => ring.cmsg_decode_errors(),
            RecvInner::Fault { .. } => 0,
        }
    }
}

/// A batched sender for a **connected** socket on either backend.
pub struct SendBatch {
    inner: SendInner,
}

enum SendInner {
    Udp(BatchSender),
    Fault { sends: u64, datagrams: u64 },
}

impl SendBatch {
    /// A sender batching up to `cap` datagrams per call.
    pub fn new(cap: usize, provider: &Provider) -> Self {
        let inner = match provider {
            Provider::Udp(mode) => SendInner::Udp(BatchSender::new(cap, *mode)),
            Provider::Fault(_) => SendInner::Fault {
                sends: 0,
                datagrams: 0,
            },
        };
        Self { inner }
    }

    /// Send `count` equal `seg_bytes`-sized segments of `buf` — a probe
    /// train in one flat buffer. Returns how many datagrams were
    /// accepted (a prefix; callers loop), with errors always referring
    /// to the first unsent segment.
    ///
    /// The virtual arm emulates kernel segmentation exactly: the flat
    /// buffer is split at `seg_bytes` and delivered as `count` ordinary
    /// datagrams **in order**, so every per-datagram fault draw (loss,
    /// jitter, reorder, duplication) happens in the same sequence a
    /// non-offloaded send would produce. That is what keeps differential
    /// tests byte-identical across all `IoMode`s on a fixed seed.
    pub fn send_segments(
        &mut self,
        socket: &Socket,
        buf: &[u8],
        seg_bytes: usize,
        count: usize,
    ) -> io::Result<usize> {
        match (&mut self.inner, socket) {
            (SendInner::Udp(tx), Socket::Udp(s)) => tx.send_segments(s, buf, seg_bytes, count),
            (SendInner::Fault { sends, datagrams }, Socket::Fault(s)) => {
                assert!(
                    count * seg_bytes <= buf.len(),
                    "train overruns its buffer: {count} x {seg_bytes} > {}",
                    buf.len()
                );
                for i in 0..count {
                    s.send(&buf[i * seg_bytes..(i + 1) * seg_bytes])?;
                }
                *sends += 1;
                *datagrams += count as u64;
                Ok(count)
            }
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "socket backend does not match this sender",
            )),
        }
    }

    /// Send calls (syscalls on the real backend) issued so far.
    pub fn syscalls(&self) -> u64 {
        match &self.inner {
            SendInner::Udp(tx) => tx.syscalls(),
            SendInner::Fault { sends, .. } => *sends,
        }
    }

    /// Datagrams handed to the backend so far.
    pub fn datagrams(&self) -> u64 {
        match &self.inner {
            SendInner::Udp(tx) => tx.datagrams(),
            SendInner::Fault { datagrams, .. } => *datagrams,
        }
    }

    /// Trains submitted through `UDP_SEGMENT` offload so far (real
    /// backend only; the virtual net's emulated segmentation is not an
    /// offload).
    pub fn gso_sends(&self) -> u64 {
        match &self.inner {
            SendInner::Udp(tx) => tx.gso_sends(),
            SendInner::Fault { .. } => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_provider_is_real_udp_with_auto_batching() {
        let p = Provider::default();
        assert!(matches!(p, Provider::Udp(IoMode::Batched)));
        assert!(matches!(p.clock(), Clock::Real));
    }

    #[test]
    fn udp_sockets_roundtrip_through_the_seam() {
        let p = Provider::Udp(IoMode::Fallback);
        let rx = p.bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let tx = p.bind("127.0.0.1:0".parse().unwrap()).unwrap();
        tx.connect(rx.local_addr().unwrap()).unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        tx.send(b"ping").unwrap();
        let mut buf = [0u8; 16];
        let (n, src) = rx.recv_from(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
        assert_eq!(src, tx.local_addr().unwrap());
    }

    #[test]
    fn fault_batch_ring_drains_queued_datagrams_with_stamps() {
        let net = FaultNet::new(11);
        let p = Provider::Fault(net.clone());
        let rx = p.bind("10.0.0.1:9".parse().unwrap()).unwrap();
        let tx = p.bind("10.0.0.2:9".parse().unwrap()).unwrap();
        tx.connect(rx.local_addr().unwrap()).unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        let mut sender = SendBatch::new(8, &p);
        let train = [7u8; 96];
        assert_eq!(sender.send_segments(&tx, &train, 32, 3).unwrap(), 3);
        let mut ring = RecvBatch::new(8, &p);
        let n = ring.recv(&rx).unwrap();
        assert_eq!(n, 3, "queued virtual datagrams drain in one call");
        let batch_abs = Duration::from_secs(1000);
        for i in 0..n {
            let (data, src) = ring.datagram(i);
            assert_eq!(data, &[7u8; 32]);
            assert_eq!(src, tx.local_addr().unwrap());
            let (stamp, source) = ring.stamp(i, batch_abs);
            assert_eq!(source, TimestampSource::Kernel, "virtual stamps are exact");
            assert_ne!(
                stamp, batch_abs,
                "virtual stamp is per-datagram, not batch time"
            );
            assert!(!ring.is_truncated(i));
        }
        assert_eq!(ring.syscalls(), 1);
        assert_eq!(ring.datagrams(), 3);
        assert_eq!(ring.gro_segments_split(), 0);
        assert_eq!(ring.cmsg_decode_errors(), 0);
        assert_eq!(sender.gso_sends(), 0);
    }

    #[test]
    fn fault_segment_send_matches_per_datagram_sends_on_a_seed() {
        // Two identical virtual nets on one seed: a flat segmented train
        // through one must produce the same deliveries as hand-split
        // per-datagram sends through the other — the emulation contract
        // that keeps differential tests byte-identical across IoModes.
        let run = |segmented: bool| -> Vec<(Vec<u8>, Duration)> {
            let net = FaultNet::new(4242);
            let p = Provider::Fault(net.clone());
            let rx = p.bind("10.0.0.1:9".parse().unwrap()).unwrap();
            let tx = p.bind("10.0.0.2:9".parse().unwrap()).unwrap();
            tx.connect(rx.local_addr().unwrap()).unwrap();
            rx.set_read_timeout(Some(Duration::from_millis(10)))
                .unwrap();
            let mut buf = vec![0u8; 6 * 48];
            for (i, b) in buf.iter_mut().enumerate() {
                *b = (i % 251) as u8;
            }
            if segmented {
                let mut sender = SendBatch::new(8, &p);
                assert_eq!(sender.send_segments(&tx, &buf, 48, 6).unwrap(), 6);
            } else {
                for i in 0..6 {
                    tx.send(&buf[i * 48..(i + 1) * 48]).unwrap();
                }
            }
            let mut ring = RecvBatch::new(8, &p);
            let mut out = Vec::new();
            while let Ok(n) = ring.recv(&rx) {
                for i in 0..n {
                    let (data, _) = ring.datagram(i);
                    let (stamp, _) = ring.stamp(i, Duration::ZERO);
                    out.push((data.to_vec(), stamp));
                }
                if out.len() >= 6 {
                    break;
                }
            }
            out
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn mismatched_backend_is_an_input_error() {
        let p_udp = Provider::Udp(IoMode::Fallback);
        let sock = p_udp.bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let net = FaultNet::new(1);
        let mut ring = RecvBatch::new(4, &Provider::Fault(net));
        let err = ring.recv(&sock).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
