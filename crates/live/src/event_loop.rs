//! Event-driven readiness for the receiver's drain loops.
//!
//! Waking every [`crate::receiver`] poll interval (25 ms) per drain
//! thread just to re-check the stop flag and the idle watchdog is cheap
//! with 8 sessions and pure waste with 10k mostly-idle ones. This module
//! gives the drain loop a readiness primitive instead: on Linux an
//! **epoll** instance per drain thread watches that thread's own
//! receive socket plus an **eventfd** wake channel, so an idle receiver
//! parks in `epoll_wait` until a datagram actually arrives, the
//! idle-watchdog deadline comes due, or [`PollWaker::wake`] is called
//! (server stop — by the handle, or by a drain thread on a hard socket
//! error — or a watchdog re-arm). Sessions that are idle cost zero
//! wakeups and zero threads — the same drain threads serve all of them.
//!
//! The workspace is fully offline (no `libc` crate), so the syscalls are
//! hand-declared against the C library in a `sys` module, in the same
//! style as `batch_io.rs`. Every other platform — and the virtual
//! [`crate::faultnet::FaultNet`] backend, whose sockets have no fd — gets
//! the timeout loop: [`Poller::wait`] reports ready immediately and the
//! caller's blocking `recv` (bounded by the socket read timeout)
//! provides the pacing, so readiness is an optimization the loop stays
//! correct without.
//!
//! Only the **control path's scheduling** changes: once `epoll_wait`
//! reports the socket readable, datagrams are still drained through the
//! blocking batched ring (`recvmmsg` with `MSG_WAITFORONE`), so the
//! probe fast path keeps its one-syscall-per-batch shape. Readiness
//! decides *when* to call recv, never *how*. This holds for the
//! offload tier too: with `UDP_GRO` enabled a "readable" socket may
//! yield coalesced super-datagrams, but level-triggered epoll only
//! cares that the receive queue is non-empty — the ring splits the
//! segments after the wakeup, invisibly to this module.

use crate::provider::Socket;
use std::io;
use std::time::Duration;

/// Whether [`Poller::new`] parks on epoll for `socket`: on Linux, for
/// an fd-backed (real UDP) socket. Everything else takes the timeout
/// loop.
pub(crate) fn epoll_ready(socket: &Socket) -> bool {
    cfg!(target_os = "linux") && matches!(socket, Socket::Udp(_))
}

/// What a [`Poller::wait`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// The socket is readable (or this is the timeout backend, which
    /// always proceeds straight to its blocking recv).
    Ready,
    /// The timeout elapsed with nothing readable.
    TimedOut,
    /// [`PollWaker::wake`] was called (or the wait was interrupted):
    /// re-check the stop flag before waiting again.
    Woken,
}

/// A wake channel into a [`Poller`]'s `epoll_wait` — an eventfd on the
/// epoll backend, a no-op on the timeout backend (whose loops re-check
/// their flags every blocking-recv timeout anyway). Shared by handle
/// and drain threads; waking is async-signal-cheap (one `write`).
#[derive(Debug)]
pub struct PollWaker {
    #[cfg(target_os = "linux")]
    fd: i32,
    #[cfg(not(target_os = "linux"))]
    fd: (),
}

impl PollWaker {
    /// A wake channel. `active` is whether an epoll poller will actually
    /// watch it (timeout-mode wakers hold no fd at all).
    pub fn new(active: bool) -> io::Result<Self> {
        #[cfg(target_os = "linux")]
        {
            let fd = if active {
                // SAFETY: plain syscall; the returned fd is owned here
                // and closed in Drop.
                let fd = unsafe { sys::eventfd(0, sys::EFD_NONBLOCK | sys::EFD_CLOEXEC) };
                if fd < 0 {
                    return Err(io::Error::last_os_error());
                }
                fd
            } else {
                -1
            };
            Ok(Self { fd })
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = active;
            Ok(Self { fd: () })
        }
    }

    /// Wake every thread parked in [`Poller::wait`]. Best-effort and
    /// idempotent: the eventfd counter saturates, never blocks the
    /// caller, and is drained by whichever waiter sees it first.
    pub fn wake(&self) {
        #[cfg(target_os = "linux")]
        if self.fd >= 0 {
            let one: u64 = 1;
            // SAFETY: writes 8 bytes from a live stack value to an fd
            // this struct owns. EAGAIN (counter full) still wakes.
            let _ = unsafe { sys::write(self.fd, (&raw const one).cast(), 8) };
        }
    }

    /// Drain the wake counter so a consumed wake does not spin the
    /// level-triggered epoll. Called by waiters, never by wakers.
    fn drain(&self) {
        #[cfg(target_os = "linux")]
        if self.fd >= 0 {
            let mut buf = 0u64;
            // SAFETY: reads 8 bytes into a live stack value; the fd is
            // nonblocking so an already-drained counter returns EAGAIN.
            let _ = unsafe { sys::read(self.fd, (&raw mut buf).cast(), 8) };
        }
    }

    #[cfg(target_os = "linux")]
    fn raw_fd(&self) -> i32 {
        self.fd
    }
}

impl Drop for PollWaker {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if self.fd >= 0 {
            // SAFETY: closing an fd this struct owns, exactly once.
            unsafe { sys::close(self.fd) };
        }
    }
}

/// A readiness waiter over one receive socket. Each drain thread owns
/// its own `Poller` over its own socket, so a wakeup never fans out
/// past the owning thread.
#[derive(Debug)]
pub struct Poller {
    imp: Imp,
}

#[derive(Debug)]
enum Imp {
    #[cfg(target_os = "linux")]
    Epoll {
        epfd: i32,
    },
    Timeout,
}

/// `epoll_event.data` tag for the receive socket.
#[cfg(target_os = "linux")]
const TAG_SOCKET: u64 = 0;
/// `epoll_event.data` tag for the waker eventfd.
#[cfg(target_os = "linux")]
const TAG_WAKER: u64 = 1;

impl Poller {
    /// The poller for `socket`: epoll for an fd-backed socket on Linux,
    /// the timeout loop otherwise.
    pub fn new(socket: &Socket, waker: &PollWaker) -> io::Result<Self> {
        if !epoll_ready(socket) {
            return Ok(Self::timeout());
        }
        #[cfg(target_os = "linux")]
        {
            let sock_fd = socket
                .raw_fd()
                .expect("epoll_ready implies an fd-backed socket");
            // SAFETY: plain syscalls. The epoll fd is owned here and
            // closed in Drop; registered fds (socket, eventfd) outlive
            // the poller by construction (the server owns all three).
            unsafe {
                let epfd = sys::epoll_create1(sys::EPOLL_CLOEXEC);
                if epfd < 0 {
                    return Err(io::Error::last_os_error());
                }
                let mut ev = sys::epoll_event {
                    events: sys::EPOLLIN,
                    data: TAG_SOCKET,
                };
                if sys::epoll_ctl(epfd, sys::EPOLL_CTL_ADD, sock_fd, &mut ev) < 0 {
                    let e = io::Error::last_os_error();
                    sys::close(epfd);
                    return Err(e);
                }
                if waker.raw_fd() >= 0 {
                    let mut ev = sys::epoll_event {
                        events: sys::EPOLLIN,
                        data: TAG_WAKER,
                    };
                    if sys::epoll_ctl(epfd, sys::EPOLL_CTL_ADD, waker.raw_fd(), &mut ev) < 0 {
                        let e = io::Error::last_os_error();
                        sys::close(epfd);
                        return Err(e);
                    }
                }
                Ok(Self {
                    imp: Imp::Epoll { epfd },
                })
            }
        }
        #[cfg(not(target_os = "linux"))]
        unreachable!("epoll_ready is false off Linux")
    }

    /// The plain timeout-loop poller, unconditionally. The fallback when
    /// an epoll backend cannot come up: readiness is an optimization and
    /// the caller's socket read timeout keeps the loop correct without it.
    pub fn timeout() -> Self {
        Self { imp: Imp::Timeout }
    }

    /// Whether this poller parks in epoll (true) or defers pacing to the
    /// caller's blocking recv (false).
    pub fn is_epoll(&self) -> bool {
        #[cfg(target_os = "linux")]
        {
            matches!(self.imp, Imp::Epoll { .. })
        }
        #[cfg(not(target_os = "linux"))]
        {
            false
        }
    }

    /// Wait until the socket is readable, `timeout` elapses, or the
    /// waker fires. The timeout backend returns [`Wait::Ready`]
    /// immediately — its caller's blocking recv (bounded by the socket
    /// read timeout) is the wait.
    pub fn wait(&self, timeout: Duration, waker: &PollWaker) -> Wait {
        match &self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll { epfd } => {
                let ms: i32 = timeout.as_millis().min(i32::MAX as u128) as i32;
                let mut events = [sys::epoll_event { events: 0, data: 0 }; 4];
                // SAFETY: the events buffer is a live stack array sized
                // by the len we pass; epfd is owned by self.
                let n = unsafe {
                    sys::epoll_wait(*epfd, events.as_mut_ptr(), events.len() as i32, ms.max(0))
                };
                if n < 0 {
                    // EINTR and friends: surface as a spurious wake so
                    // the loop re-checks its flags and parks again.
                    return Wait::Woken;
                }
                if n == 0 {
                    return Wait::TimedOut;
                }
                let mut ready = false;
                let mut woken = false;
                for ev in &events[..n as usize] {
                    // Copy out of the (packed on x86_64) event struct
                    // before inspecting.
                    let tag = ev.data;
                    if tag == TAG_SOCKET {
                        ready = true;
                    } else {
                        woken = true;
                    }
                }
                if woken {
                    waker.drain();
                }
                if ready {
                    Wait::Ready
                } else {
                    Wait::Woken
                }
            }
            Imp::Timeout => Wait::Ready,
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Imp::Epoll { epfd } = self.imp {
            // SAFETY: closing an fd this struct owns, exactly once.
            unsafe { sys::close(epfd) };
        }
    }
}

/// Hand-declared Linux syscall surface (the workspace builds offline,
/// without the `libc` crate) — same idiom as `batch_io::sys`.
#[cfg(target_os = "linux")]
mod sys {
    #![allow(non_camel_case_types)]

    pub const EPOLL_CLOEXEC: i32 = 0x80000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLLIN: u32 = 0x1;
    pub const EFD_CLOEXEC: i32 = 0x80000;
    pub const EFD_NONBLOCK: i32 = 0x800;

    /// The kernel ABI packs `epoll_event` on x86-64 only (see
    /// `EPOLL_PACKED` in the kernel's `eventpoll.h`); other
    /// architectures use natural `repr(C)` layout.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct epoll_event {
        pub events: u32,
        pub data: u64,
    }

    // Pin the hand-declared layout to the kernel ABI.
    #[cfg(target_arch = "x86_64")]
    const _: () = {
        assert!(core::mem::size_of::<epoll_event>() == 12);
        assert!(core::mem::align_of::<epoll_event>() == 1);
        assert!(core::mem::offset_of!(epoll_event, data) == 4);
    };
    #[cfg(not(target_arch = "x86_64"))]
    const _: () = {
        assert!(core::mem::size_of::<epoll_event>() == 16);
        assert!(core::mem::offset_of!(epoll_event, data) == 8);
    };

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut epoll_event) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut epoll_event, maxevents: i32, timeout: i32)
            -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
        pub fn read(fd: i32, buf: *mut core::ffi::c_void, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const core::ffi::c_void, count: usize) -> isize;
        pub fn close(fd: i32) -> i32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::Provider;

    #[cfg(target_os = "linux")]
    fn udp_pair() -> (Socket, Socket) {
        let p = Provider::default();
        let rx = p.bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let tx = p.bind("127.0.0.1:0".parse().unwrap()).unwrap();
        tx.connect(rx.local_addr().unwrap()).unwrap();
        (rx, tx)
    }

    #[test]
    fn timeout_mode_always_reports_ready() {
        let waker = PollWaker::new(false).unwrap();
        let poller = Poller::timeout();
        assert!(!poller.is_epoll());
        assert_eq!(poller.wait(Duration::from_millis(1), &waker), Wait::Ready);
    }

    #[test]
    fn virtual_sockets_resolve_to_the_timeout_loop() {
        let net = crate::faultnet::FaultNet::new(3);
        let p = Provider::Fault(net);
        let sock = p.bind("10.9.0.1:1".parse().unwrap()).unwrap();
        assert!(!epoll_ready(&sock));
        let waker = PollWaker::new(false).unwrap();
        let poller = Poller::new(&sock, &waker).unwrap();
        assert!(!poller.is_epoll());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_wakes_on_data_timeout_and_waker() {
        let (rx, tx) = udp_pair();
        let waker = PollWaker::new(true).unwrap();
        let poller = Poller::new(&rx, &waker).unwrap();
        assert!(poller.is_epoll());

        // Nothing readable: the wait times out.
        assert_eq!(
            poller.wait(Duration::from_millis(10), &waker),
            Wait::TimedOut
        );

        // A datagram makes it ready — and stays ready (level-triggered)
        // until drained.
        tx.send(b"ping").unwrap();
        assert_eq!(poller.wait(Duration::from_secs(5), &waker), Wait::Ready);
        assert_eq!(poller.wait(Duration::from_secs(5), &waker), Wait::Ready);
        let mut buf = [0u8; 16];
        rx.recv(&mut buf).unwrap();
        assert_eq!(
            poller.wait(Duration::from_millis(10), &waker),
            Wait::TimedOut
        );

        // The waker cuts a long park short and is drained by the waiter.
        waker.wake();
        assert_eq!(poller.wait(Duration::from_secs(5), &waker), Wait::Woken);
        assert_eq!(
            poller.wait(Duration::from_millis(10), &waker),
            Wait::TimedOut
        );
    }
}
