//! An in-process, seeded virtual network with virtual time.
//!
//! `FaultNet` carries the *full* live datapath — control plane and probe
//! trains — between in-process senders and receivers with **no real
//! sockets and no real timers**. Datagrams traverse per-link fault
//! models (Gilbert–Elliott loss bursts, reordering, duplication,
//! latency jitter, MTU truncation), every random draw comes from a
//! per-link RNG seeded from the net seed and the link endpoints, and
//! time is a shared virtual clock that only advances when every
//! participating thread is parked in a virtual wait. The same seed
//! therefore reproduces the same run, byte for byte: bug reproduction
//! becomes a one-seed unit test instead of "rerun loopback 100×".
//!
//! ## Virtual time
//!
//! Threads interact with the net through [`FaultSocket`]s and the
//! virtual clock ([`crate::provider::Clock`]). At most one participant
//! runs at a time: it holds the net's **baton**. A thread is *enrolled*
//! the first time it touches the net, and that first touch waits for a
//! turn like any parked thread. The running thread puts the baton down
//! when it parks (a blocking receive that finds nothing, a sleep), when
//! it enters [`FaultNet::unenrolled`], or when it exits. The parked
//! thread that takes over hands it to the first parked thread, in park
//! order, whose condition holds now: a datagram in its lane, a deadline
//! reached. Only when none holds does the clock advance, to the
//! earliest pending event (the next delivery or the next wait
//! deadline), and the hand-off is tried again there. Park order is a
//! waiter id taken under the net's lock; since only one thread runs
//! when it parks, the order is fixed by the program, not by the OS.
//! Thread switches happen only at virtual wait points, so the schedule
//! — and therefore every timestamp and RNG draw — is deterministic
//! regardless of real scheduling, including between threads that act
//! at the same virtual nanosecond.
//!
//! A thread about to be spawned gets a turn from its parent
//! ([`FaultNet::reserve`]), runnable at once, so virtual time cannot
//! pass it before the child [`FaultNet::adopt`]s it. A thread that must
//! block on something *outside* the net (joining another enrolled
//! thread, most commonly) wraps the wait in [`FaultNet::unenrolled`]:
//! while the baton is held, nobody else runs, and the stall assertion
//! fails a thread that waits for its turn for about 20 s of wall time.
//!
//! ## Segmentation offload under FaultNet
//!
//! The virtual net emulates the kernel's GSO contract at the provider
//! seam: a segmented send (`SendBatch::send_segments`) is split into
//! per-datagram sends *in submission order*, so every fault draw (loss
//! state transition, jitter, reordering, duplication) consumes RNG
//! state exactly as a non-offloaded send would — a seed produces the
//! same run whether the caller batches, segments, or sends one at a
//! time. Delivery stamps are per-datagram and exact by construction,
//! which is why the virtual receive path reports
//! [`crate::provider::TimestampSource::Kernel`].
//!
//! ## Determinism contract
//!
//! For a fixed seed, topology and fault configuration: send times,
//! per-datagram delivery times, loss / duplication / reordering
//! decisions, control-plane retries and heartbeats, and therefore
//! sender manifests, receiver report chunks and metrics are identical
//! across runs — asserted byte-for-byte in `tests/faultnet.rs`, also
//! for a stop and a SYN that land on the same nanosecond as a probe
//! delivery.
//!
//! One boundary is left: a thread coming back from
//! [`FaultNet::unenrolled`] re-enters at whatever virtual instant the
//! others have reached by then. A test that reads results after such a
//! join reads them from threads that have finished, or waits in virtual
//! time instead.

use crate::batch_io::steer_lane;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::Duration;

/// Per-link fault configuration. The default link is clean: a small
/// constant latency, no jitter, no loss, no reordering, no duplication,
/// no MTU limit.
#[derive(Debug, Clone)]
pub struct LinkFaults {
    /// Base one-way latency.
    pub latency: Duration,
    /// Uniform extra delay in `[0, jitter)` per datagram.
    pub jitter: Duration,
    /// Loss probability while the Gilbert–Elliott chain is GOOD.
    pub loss_good: f64,
    /// Loss probability while the chain is BAD (bursty-loss episodes).
    pub loss_bad: f64,
    /// Per-datagram probability of entering the BAD state.
    pub p_enter_bad: f64,
    /// Per-datagram probability of leaving the BAD state.
    pub p_exit_bad: f64,
    /// Probability a datagram is duplicated (the copy takes an
    /// independent jitter draw on top of `latency + reorder_extra`).
    pub dup_prob: f64,
    /// Probability a datagram is held back by `reorder_extra`, landing
    /// after datagrams sent later.
    pub reorder_prob: f64,
    /// Extra delay applied to reordered datagrams.
    pub reorder_extra: Duration,
    /// Truncate datagrams to this many bytes (delivered marked
    /// truncated, like a kernel `MSG_TRUNC`). `None` carries any size.
    pub mtu: Option<usize>,
}

impl Default for LinkFaults {
    fn default() -> Self {
        Self {
            latency: Duration::from_micros(100),
            jitter: Duration::ZERO,
            loss_good: 0.0,
            loss_bad: 0.0,
            p_enter_bad: 0.0,
            p_exit_bad: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            reorder_extra: Duration::from_millis(2),
            mtu: None,
        }
    }
}

impl LinkFaults {
    /// Uniform (state-independent) datagram loss.
    pub fn uniform_loss(p: f64) -> Self {
        Self {
            loss_good: p,
            loss_bad: p,
            ..Self::default()
        }
    }

    /// Bursty loss: a Gilbert–Elliott chain that is lossless in GOOD
    /// and loses `loss_bad` of datagrams in BAD.
    pub fn gilbert_elliott(p_enter_bad: f64, p_exit_bad: f64, loss_bad: f64) -> Self {
        Self {
            p_enter_bad,
            p_exit_bad,
            loss_bad,
            ..Self::default()
        }
    }

    /// Add reordering: with probability `prob` a datagram is delayed by
    /// `extra` beyond the link latency.
    pub fn with_reordering(mut self, prob: f64, extra: Duration) -> Self {
        self.reorder_prob = prob;
        self.reorder_extra = extra;
        self
    }

    /// Add duplication with the given per-datagram probability.
    pub fn with_duplication(mut self, prob: f64) -> Self {
        self.dup_prob = prob;
        self
    }

    /// Add uniform latency jitter in `[0, jitter)`.
    pub fn with_jitter(mut self, jitter: Duration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Truncate datagrams larger than `bytes` (delivered marked
    /// truncated).
    pub fn with_mtu(mut self, bytes: usize) -> Self {
        self.mtu = Some(bytes);
        self
    }
}

/// One datagram as delivered by the virtual network.
#[derive(Debug, Clone)]
pub struct FaultDatagram {
    /// Payload (already truncated to the link MTU if one applied).
    pub data: Vec<u8>,
    /// Sender's bound address.
    pub src: SocketAddr,
    /// Virtual delivery time (since the net's epoch).
    pub stamp: Duration,
    /// Whether the link MTU cut the payload short.
    pub truncated: bool,
}

/// An in-flight datagram, ordered by (delivery time, send sequence).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Flight {
    due_ns: u64,
    seq: u64,
    dst: SocketAddr,
    src: SocketAddr,
    truncated: bool,
    data: Vec<u8>,
}

struct SockState {
    /// Per-lane delivery queues. A plain bind has one lane; a multi-lane
    /// bind ([`FaultNet::bind_lanes`]) has one per drain thread, and
    /// [`steer_lane`] picks the lane at delivery.
    lanes: Vec<VecDeque<FaultDatagram>>,
    /// Live [`FaultSocket`] handles on this address; the address
    /// unbinds when the last one drops.
    handles: u32,
    connected: Option<SocketAddr>,
    read_timeout: Option<Duration>,
}

struct LinkState {
    rng: StdRng,
    bad: bool,
    faults: LinkFaults,
}

/// A parked turn: the wake condition of a thread waiting for the baton.
struct Waiter {
    /// Socket lane whose queue satisfies this waiter (`None` for
    /// sleepers).
    addr: Option<(SocketAddr, usize)>,
    deadline_ns: Option<u64>,
}

impl Waiter {
    /// A turn that is runnable at once: a spawn ticket, or a thread's
    /// first touch of the net.
    const READY: Waiter = Waiter {
        addr: None,
        deadline_ns: Some(0),
    };
}

/// Who acts on the net next. At most one enrolled thread runs at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Baton {
    /// A running enrolled thread holds it.
    Held,
    /// Handed to this parked turn, whose thread has not taken it yet.
    Handed(u64),
    /// No parked condition holds and nothing is pending: the next
    /// thread to ask for a turn takes it.
    Free,
}

struct Core {
    now_ns: u64,
    seed: u64,
    next_port: u16,
    flight_seq: u64,
    /// Park order: the id the next parked turn takes.
    next_waiter: u64,
    baton: Baton,
    sockets: HashMap<SocketAddr, SockState>,
    faults: HashMap<(SocketAddr, SocketAddr), LinkFaults>,
    links: HashMap<(SocketAddr, SocketAddr), LinkState>,
    inflight: BinaryHeap<Reverse<Flight>>,
    /// Parked turns, in park order.
    waiters: BTreeMap<u64, Waiter>,
}

impl Core {
    /// Whether a parked turn's condition holds now.
    fn runnable(&self, w: &Waiter) -> bool {
        w.deadline_ns.is_some_and(|d| self.now_ns >= d)
            || w.addr.is_some_and(|(a, lane)| {
                self.sockets
                    .get(&a)
                    .is_some_and(|s| s.lanes.get(lane).is_some_and(|l| !l.is_empty()))
            })
    }

    /// Queue a parked turn; its id is its place in park order.
    fn queue(&mut self, waiter: Waiter) -> u64 {
        let id = self.next_waiter;
        self.next_waiter += 1;
        self.waiters.insert(id, waiter);
        id
    }
}

/// The seeded in-process virtual network. See the module docs.
pub struct FaultNet {
    id: u64,
    core: Mutex<Core>,
    cv: Condvar,
}

impl std::fmt::Debug for FaultNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FaultNet#{}", self.id)
    }
}

static NET_IDS: AtomicU64 = AtomicU64::new(1);

/// FNV-1a over the link endpoints, mixed with the net seed: every link
/// gets an independent, reproducible RNG stream.
fn link_seed(seed: u64, src: &SocketAddr, dst: &SocketAddr) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x1000_0000_01b3);
    for b in format!("{src}->{dst}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// A thread's membership of one net. The thread holds the baton
/// whenever it is not inside a net call; dropping the enrollment (at
/// thread exit, or entering [`FaultNet::unenrolled`]) puts it down.
struct Enrollment {
    net_id: u64,
    net: Weak<FaultNet>,
}

impl Drop for Enrollment {
    fn drop(&mut self) {
        if let Some(net) = self.net.upgrade() {
            // A poisoned lock means a thread already panicked; a second
            // panic here, mid-unwind, would abort the process.
            if let Ok(mut core) = net.core.lock() {
                net.step(&mut core);
            }
        }
    }
}

/// A turn reserved by [`FaultNet::reserve`] for a thread that has not
/// started running yet. Move it into the spawned closure and claim it
/// with [`FaultNet::adopt`].
#[must_use = "move the ticket into the spawned thread and adopt it"]
pub struct Ticket {
    net_id: u64,
    net: Weak<FaultNet>,
    turn: u64,
    armed: bool,
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        if let Some(net) = self.net.upgrade() {
            if let Ok(mut core) = net.core.lock() {
                core.waiters.remove(&self.turn);
                if core.baton == Baton::Handed(self.turn) {
                    net.step(&mut core);
                }
            }
        }
    }
}

thread_local! {
    static ENROLLMENTS: RefCell<Vec<Enrollment>> = const { RefCell::new(Vec::new()) };
}

/// Real wait between checks for the baton; the stall assertion counts
/// these.
const PARK: Duration = Duration::from_millis(5);
/// Consecutive no-progress parks before declaring the net stalled
/// (a loud failure beats a silent CI hang).
const STALL_LIMIT: u32 = 4000; // ≈ 20 s

impl FaultNet {
    /// A fresh virtual network. All randomness derives from `seed`.
    pub fn new(seed: u64) -> Arc<Self> {
        Arc::new(Self {
            id: NET_IDS.fetch_add(1, Ordering::Relaxed),
            core: Mutex::new(Core {
                now_ns: 0,
                seed,
                next_port: 40_000,
                flight_seq: 0,
                next_waiter: 0,
                baton: Baton::Free,
                sockets: HashMap::new(),
                faults: HashMap::new(),
                links: HashMap::new(),
                inflight: BinaryHeap::new(),
                waiters: BTreeMap::new(),
            }),
            cv: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Core> {
        self.core.lock().expect("faultnet lock")
    }

    /// Make the calling thread a participant, once per thread: it waits
    /// for a turn like any parked thread. Undone at thread exit.
    fn enroll(self: &Arc<Self>) {
        if !self.is_enrolled() {
            self.enter(Arc::downgrade(self));
        }
    }

    fn is_enrolled(&self) -> bool {
        ENROLLMENTS.with(|e| e.borrow().iter().any(|g| g.net_id == self.id))
    }

    /// Queue a turn that is runnable at once and enroll the calling
    /// thread when it comes.
    fn enter(&self, net: Weak<FaultNet>) {
        let turn = self.lock().queue(Waiter::READY);
        self.take_turn(turn, net);
    }

    /// Wait until parked turn `turn` is handed the baton, take it, and
    /// count the calling thread as enrolled.
    fn take_turn(&self, turn: u64, net: Weak<FaultNet>) {
        drop(self.wait_turn(self.lock(), turn));
        ENROLLMENTS.with(|e| {
            e.borrow_mut().push(Enrollment {
                net_id: self.id,
                net,
            })
        });
    }

    /// Run `f` with this thread's baton put down, so the virtual world
    /// keeps moving while `f` blocks on something outside the net
    /// (typically joining another enrolled thread). Afterwards the
    /// thread waits for a turn like a first touch, and re-enters at
    /// whatever virtual instant the others have reached by then.
    pub fn unenrolled<T>(&self, f: impl FnOnce() -> T) -> T {
        let mine = ENROLLMENTS.with(|e| {
            let mut list = e.borrow_mut();
            let i = list.iter().position(|g| g.net_id == self.id)?;
            Some(list.remove(i))
        });
        let Some(enrollment) = mine else {
            return f();
        };
        let net = enrollment.net.clone();
        drop(enrollment);
        let out = f();
        // `f` may have touched the net, and so enrolled again already.
        if !self.is_enrolled() {
            self.enter(net);
        }
        out
    }

    /// Reserve a turn for a thread that is about to be spawned. The
    /// turn is runnable at once, so virtual time cannot advance past it
    /// and the child can never miss events (or let peers burn
    /// timeouts) while the OS is still scheduling it. The child claims
    /// the turn with [`FaultNet::adopt`]; dropping an unclaimed ticket
    /// gives it up.
    pub fn reserve(self: &Arc<Self>) -> Ticket {
        self.enroll();
        Ticket {
            net_id: self.id,
            net: Arc::downgrade(self),
            turn: self.lock().queue(Waiter::READY),
            armed: true,
        }
    }

    /// Claim a reservation made by the spawning thread: the caller
    /// waits for the reserved turn and becomes an enrolled participant.
    /// Must be the first thing the spawned thread does.
    pub fn adopt(self: &Arc<Self>, mut ticket: Ticket) {
        assert_eq!(ticket.net_id, self.id, "ticket belongs to another net");
        if self.is_enrolled() {
            // Already enrolled: dropping the ticket gives its turn up.
            return;
        }
        ticket.armed = false;
        self.take_turn(ticket.turn, Arc::downgrade(self));
    }

    /// Current virtual time since the net's epoch.
    pub fn now(self: &Arc<Self>) -> Duration {
        self.enroll();
        Duration::from_nanos(self.lock().now_ns)
    }

    /// Configure the fault model of the directed link `src → dst`.
    /// Resets the link's RNG and Gilbert–Elliott state; call before
    /// traffic flows for reproducible runs.
    pub fn set_faults(self: &Arc<Self>, src: SocketAddr, dst: SocketAddr, faults: LinkFaults) {
        self.enroll();
        let mut core = self.lock();
        core.links.remove(&(src, dst));
        core.faults.insert((src, dst), faults);
    }

    /// Bind a virtual socket. Port 0 gets a sequentially assigned port,
    /// so binds are reproducible; rebinding a taken address fails with
    /// `AddrInUse` like the real stack.
    pub fn bind(self: &Arc<Self>, addr: SocketAddr) -> io::Result<FaultSocket> {
        Ok(self
            .bind_lanes(addr, 1)?
            .pop()
            .expect("bind_lanes returns one handle per lane"))
    }

    /// Bind one virtual address split into `n` lanes — the
    /// virtual twin of an `SO_REUSEPORT` socket group. Each returned
    /// handle drains exactly one lane; deliveries go to lane
    /// [`steer_lane`]`(payload, n)`, so every datagram of session `s`
    /// lands on handle `s % n` whatever its source. Connected-peer
    /// filtering and the read timeout are address-wide (set through any
    /// handle), and the address stays bound until the **last** handle
    /// drops.
    pub fn bind_lanes(
        self: &Arc<Self>,
        addr: SocketAddr,
        n: usize,
    ) -> io::Result<Vec<FaultSocket>> {
        assert!(n >= 1, "a bind needs at least one lane");
        self.enroll();
        let mut core = self.lock();
        let mut addr = addr;
        if addr.port() == 0 {
            loop {
                let port = core.next_port;
                core.next_port = core.next_port.wrapping_add(1).max(40_000);
                addr.set_port(port);
                if !core.sockets.contains_key(&addr) {
                    break;
                }
            }
        } else if core.sockets.contains_key(&addr) {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("virtual address {addr} already bound"),
            ));
        }
        core.sockets.insert(
            addr,
            SockState {
                lanes: (0..n).map(|_| VecDeque::new()).collect(),
                handles: n as u32,
                connected: None,
                read_timeout: None,
            },
        );
        Ok((0..n)
            .map(|lane| FaultSocket {
                net: self.clone(),
                addr,
                lane,
            })
            .collect())
    }

    /// Deliver every in-flight datagram that has matured. Flights to
    /// unbound addresses (or filtered by the destination's connected
    /// peer) are dropped silently, like unheard UDP.
    fn deliver_due(core: &mut Core) {
        while core
            .inflight
            .peek()
            .is_some_and(|Reverse(f)| f.due_ns <= core.now_ns)
        {
            let Reverse(f) = core.inflight.pop().expect("peeked");
            if let Some(sock) = core.sockets.get_mut(&f.dst) {
                if sock.connected.is_none_or(|peer| peer == f.src) {
                    // Session steering, as the kernel program does it.
                    let lane = steer_lane(&f.data, sock.lanes.len());
                    sock.lanes[lane].push_back(FaultDatagram {
                        data: f.data,
                        src: f.src,
                        stamp: Duration::from_nanos(f.due_ns),
                        truncated: f.truncated,
                    });
                }
            }
        }
    }

    /// Hand the baton on: deliver what has matured, then give the baton
    /// to the first parked turn, in park order, whose condition holds
    /// now. Only when none holds does the clock advance, to the earliest
    /// pending event (a delivery or a wait deadline). With nothing
    /// pending either, the baton lies free. Called by whoever puts the
    /// baton down, under the lock.
    fn step(&self, core: &mut Core) {
        loop {
            Self::deliver_due(core);
            let c: &Core = core;
            if let Some(&id) = c
                .waiters
                .iter()
                .find(|(_, w)| c.runnable(w))
                .map(|(id, _)| id)
            {
                core.baton = Baton::Handed(id);
                self.cv.notify_all();
                return;
            }
            let next_flight = core.inflight.peek().map(|Reverse(f)| f.due_ns);
            let next_deadline = core.waiters.values().filter_map(|w| w.deadline_ns).min();
            match next_flight.into_iter().chain(next_deadline).min() {
                // Later than now: what was due has been delivered, and
                // no deadline has passed.
                Some(next) => core.now_ns = next,
                None => {
                    core.baton = Baton::Free;
                    return;
                }
            }
        }
    }

    /// Wait until `step` hands the baton to parked turn `turn`, then
    /// take it. A free baton is stepped first: this thread is the one
    /// that asks for it.
    fn wait_turn<'a>(&'a self, mut core: MutexGuard<'a, Core>, turn: u64) -> MutexGuard<'a, Core> {
        if core.baton == Baton::Free {
            self.step(&mut core);
        }
        let mut stall = 0u32;
        while core.baton != Baton::Handed(turn) {
            let (c, timeout) = self
                .cv
                .wait_timeout(core, PARK)
                .expect("faultnet lock poisoned");
            core = c;
            if timeout.timed_out() {
                stall += 1;
                assert!(
                    stall <= STALL_LIMIT,
                    "FaultNet stalled: baton {:?}, {} waiters, {} in flight at t={}ns",
                    core.baton,
                    core.waiters.len(),
                    core.inflight.len(),
                    core.now_ns
                );
            } else {
                stall = 0;
            }
        }
        core.baton = Baton::Held;
        core.waiters.remove(&turn);
        core
    }

    /// Return once `check` yields a value, or `None` once the deadline
    /// has matured. While neither holds, the caller parks: it puts the
    /// baton down and waits for its turn.
    fn block_on<T>(
        &self,
        addr: Option<(SocketAddr, usize)>,
        deadline_ns: Option<u64>,
        mut check: impl FnMut(&mut Core) -> Option<T>,
    ) -> Option<T> {
        let mut core = self.lock();
        loop {
            if let Some(v) = check(&mut core) {
                return Some(v);
            }
            if deadline_ns.is_some_and(|d| core.now_ns >= d) {
                return None;
            }
            let turn = core.queue(Waiter { addr, deadline_ns });
            self.step(&mut core);
            core = self.wait_turn(core, turn);
        }
    }

    /// Sleep until the virtual `due`.
    pub fn sleep_until(self: &Arc<Self>, due: Duration) {
        self.enroll();
        self.block_on(None, Some(due.as_nanos() as u64), |_| None::<()>);
    }

    fn send_from(self: &Arc<Self>, src: SocketAddr, dst: SocketAddr, buf: &[u8]) -> usize {
        self.enroll();
        let mut core = self.lock();
        let key = (src, dst);
        if !core.links.contains_key(&key) {
            let faults = core.faults.get(&key).cloned().unwrap_or_default();
            let rng = StdRng::seed_from_u64(link_seed(core.seed, &src, &dst));
            core.links.insert(
                key,
                LinkState {
                    rng,
                    bad: false,
                    faults,
                },
            );
        }
        let now_ns = core.now_ns;
        let link = core.links.get_mut(&key).expect("just ensured");
        // Draw order per datagram is fixed (state transition, loss,
        // jitter, reorder, duplication) so a seed pins the whole fault
        // sequence of a link.
        let f = link.faults.clone();
        if link.bad {
            if f.p_exit_bad > 0.0 && link.rng.random_bool(f.p_exit_bad) {
                link.bad = false;
            }
        } else if f.p_enter_bad > 0.0 && link.rng.random_bool(f.p_enter_bad) {
            link.bad = true;
        }
        let p_loss = if link.bad { f.loss_bad } else { f.loss_good };
        if p_loss > 0.0 && link.rng.random_bool(p_loss.min(1.0)) {
            return buf.len(); // lost on the wire; the sender saw a clean send
        }
        let mut delay = f.latency;
        if !f.jitter.is_zero() {
            delay += Duration::from_nanos(link.rng.random_range(0..f.jitter.as_nanos() as u64));
        }
        if f.reorder_prob > 0.0 && link.rng.random_bool(f.reorder_prob) {
            delay += f.reorder_extra;
        }
        let duplicated = f.dup_prob > 0.0 && link.rng.random_bool(f.dup_prob);
        let (data, truncated) = match f.mtu {
            Some(mtu) if buf.len() > mtu => (buf[..mtu].to_vec(), true),
            _ => (buf.to_vec(), false),
        };
        let push = |core: &mut Core, extra: Duration| {
            let flight = Flight {
                due_ns: now_ns + (delay + extra).as_nanos() as u64,
                seq: core.flight_seq,
                dst,
                src,
                truncated,
                data: data.clone(),
            };
            core.flight_seq += 1;
            core.inflight.push(Reverse(flight));
        };
        push(&mut core, Duration::ZERO);
        if duplicated {
            // The copy trails by the reorder delay so it lands as a
            // genuinely separate arrival.
            push(&mut core, f.reorder_extra);
        }
        buf.len()
    }

    fn recv_on(self: &Arc<Self>, addr: SocketAddr, lane: usize) -> io::Result<FaultDatagram> {
        self.enroll();
        let deadline_ns = {
            let core = self.lock();
            let sock = core.sockets.get(&addr).ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotConnected, "virtual socket closed")
            })?;
            sock.read_timeout.map(|t| core.now_ns + t.as_nanos() as u64)
        };
        self.block_on(Some((addr, lane)), deadline_ns, |core| {
            core.sockets
                .get_mut(&addr)
                .and_then(|s| s.lanes.get_mut(lane))
                .and_then(VecDeque::pop_front)
        })
        .ok_or_else(|| io::Error::new(io::ErrorKind::WouldBlock, "virtual read timed out"))
    }

    fn try_recv_on(self: &Arc<Self>, addr: SocketAddr, lane: usize) -> Option<FaultDatagram> {
        self.enroll();
        let mut core = self.lock();
        // Pick up anything already matured without waiting.
        Self::deliver_due(&mut core);
        core.sockets
            .get_mut(&addr)
            .and_then(|s| s.lanes.get_mut(lane))
            .and_then(VecDeque::pop_front)
    }
}

/// A bound endpoint on a [`FaultNet`]. API mirrors the blocking subset
/// of `std::net::UdpSocket` that the live tool uses.
pub struct FaultSocket {
    net: Arc<FaultNet>,
    addr: SocketAddr,
    /// Which delivery lane this handle drains (always 0 for a plain
    /// bind; see [`FaultNet::bind_lanes`]).
    lane: usize,
}

impl std::fmt::Debug for FaultSocket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FaultSocket({} lane {} on {:?})",
            self.addr, self.lane, self.net
        )
    }
}

impl FaultSocket {
    /// The bound virtual address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The owning virtual network.
    pub fn net(&self) -> &Arc<FaultNet> {
        &self.net
    }

    /// Set the default peer; received datagrams from other sources are
    /// dropped at delivery, like a connected UDP socket.
    pub fn connect(&self, peer: SocketAddr) -> io::Result<()> {
        let mut core = self.net.lock();
        if let Some(s) = core.sockets.get_mut(&self.addr) {
            s.connected = Some(peer);
        }
        Ok(())
    }

    /// Read timeout for [`FaultSocket::recv_msg`] (virtual time).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        let mut core = self.net.lock();
        if let Some(s) = core.sockets.get_mut(&self.addr) {
            s.read_timeout = timeout;
        }
        Ok(())
    }

    /// Send to the connected peer.
    pub fn send(&self, buf: &[u8]) -> io::Result<usize> {
        let peer = {
            let core = self.net.lock();
            core.sockets.get(&self.addr).and_then(|s| s.connected)
        };
        let peer = peer.ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotConnected, "virtual socket not connected")
        })?;
        Ok(self.net.send_from(self.addr, peer, buf))
    }

    /// Send to an explicit destination. Always succeeds: the virtual
    /// wire accepts everything, and an unbound destination just never
    /// hears it (no ICMP refusals in this world).
    pub fn send_to(&self, buf: &[u8], dst: SocketAddr) -> io::Result<usize> {
        Ok(self.net.send_from(self.addr, dst, buf))
    }

    /// Blocking receive of one datagram with its delivery stamp,
    /// honouring the read timeout in virtual time (`WouldBlock` on
    /// expiry, like a real socket). A lane handle only sees its own
    /// lane's deliveries.
    pub fn recv_msg(&self) -> io::Result<FaultDatagram> {
        self.net.recv_on(self.addr, self.lane)
    }

    /// Non-blocking drain of one already-delivered datagram (from this
    /// handle's lane).
    pub fn try_recv_msg(&self) -> Option<FaultDatagram> {
        self.net.try_recv_on(self.addr, self.lane)
    }
}

impl Drop for FaultSocket {
    fn drop(&mut self) {
        let mut core = self.net.lock();
        // A multi-lane address has one handle per lane; it unbinds when
        // the last of them drops.
        if let Some(s) = core.sockets.get_mut(&self.addr) {
            s.handles -= 1;
            if s.handles == 0 {
                core.sockets.remove(&self.addr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> SocketAddr {
        s.parse().unwrap()
    }

    #[test]
    fn clean_link_delivers_in_order_with_latency_stamps() {
        let net = FaultNet::new(7);
        let a = net.bind(addr("10.0.0.1:100")).unwrap();
        let b = net.bind(addr("10.0.0.2:200")).unwrap();
        b.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        for i in 0u8..4 {
            a.send_to(&[i; 8], b.local_addr()).unwrap();
        }
        for i in 0u8..4 {
            let m = b.recv_msg().unwrap();
            assert_eq!(m.data, vec![i; 8], "in-order delivery");
            assert_eq!(m.src, a.local_addr());
            assert_eq!(m.stamp, Duration::from_micros(100), "default latency");
            assert!(!m.truncated);
        }
        // Drained: the read timeout matures in virtual time instantly.
        let err = b.recv_msg().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(net.now(), Duration::from_micros(100 + 50_000));
    }

    #[test]
    fn same_seed_same_faults_reproduce_identical_delivery() {
        let run = |seed: u64| -> Vec<(Vec<u8>, u128)> {
            let net = FaultNet::new(seed);
            let a = net.bind(addr("10.0.0.1:100")).unwrap();
            let b = net.bind(addr("10.0.0.2:200")).unwrap();
            net.set_faults(
                a.local_addr(),
                b.local_addr(),
                LinkFaults::uniform_loss(0.3)
                    .with_reordering(0.2, Duration::from_millis(3))
                    .with_duplication(0.1)
                    .with_jitter(Duration::from_micros(500)),
            );
            b.set_read_timeout(Some(Duration::from_millis(1))).unwrap();
            for i in 0u8..100 {
                a.send_to(&[i; 16], b.local_addr()).unwrap();
            }
            let mut got = Vec::new();
            while let Ok(m) = b.recv_msg() {
                got.push((m.data, m.stamp.as_nanos()));
            }
            got
        };
        let one = run(42);
        let two = run(42);
        assert_eq!(one, two, "same seed must reproduce byte-identically");
        assert!(
            one.len() > 50 && one.len() < 100,
            "loss visible: {}",
            one.len()
        );
        let other = run(43);
        assert_ne!(one, other, "different seed must differ");
    }

    #[test]
    fn gilbert_elliott_losses_come_in_bursts() {
        let net = FaultNet::new(9);
        let a = net.bind(addr("10.0.0.1:1")).unwrap();
        let b = net.bind(addr("10.0.0.2:2")).unwrap();
        net.set_faults(
            a.local_addr(),
            b.local_addr(),
            LinkFaults::gilbert_elliott(0.02, 0.25, 1.0),
        );
        b.set_read_timeout(Some(Duration::from_millis(1))).unwrap();
        let n = 2000u16;
        for i in 0..n {
            a.send_to(&i.to_be_bytes(), b.local_addr()).unwrap();
        }
        let mut got = Vec::new();
        while let Ok(m) = b.recv_msg() {
            got.push(u16::from_be_bytes([m.data[0], m.data[1]]));
        }
        let lost = usize::from(n) - got.len();
        assert!(lost > 50, "expected bursty loss, lost only {lost}");
        // Burstiness: count loss runs; with p_exit 0.25 the mean burst
        // is 4, so far fewer runs than losses.
        let mut runs = 0;
        let mut prev_present = true;
        let present: std::collections::HashSet<u16> = got.into_iter().collect();
        for i in 0..n {
            let here = present.contains(&i);
            if !here && prev_present {
                runs += 1;
            }
            prev_present = here;
        }
        assert!(
            runs * 2 < lost,
            "losses not bursty: {lost} losses in {runs} runs"
        );
    }

    #[test]
    fn mtu_truncates_and_marks() {
        let net = FaultNet::new(1);
        let a = net.bind(addr("10.0.0.1:1")).unwrap();
        let b = net.bind(addr("10.0.0.2:2")).unwrap();
        net.set_faults(
            a.local_addr(),
            b.local_addr(),
            LinkFaults::default().with_mtu(10),
        );
        b.set_read_timeout(Some(Duration::from_millis(1))).unwrap();
        a.send_to(&[1u8; 100], b.local_addr()).unwrap();
        a.send_to(&[2u8; 8], b.local_addr()).unwrap();
        let m = b.recv_msg().unwrap();
        assert!(m.truncated);
        assert_eq!(m.data.len(), 10);
        let m = b.recv_msg().unwrap();
        assert!(!m.truncated);
        assert_eq!(m.data.len(), 8);
    }

    #[test]
    fn connected_socket_filters_foreign_sources() {
        let net = FaultNet::new(1);
        let a = net.bind(addr("10.0.0.1:1")).unwrap();
        let stranger = net.bind(addr("10.0.0.3:3")).unwrap();
        let b = net.bind(addr("10.0.0.2:2")).unwrap();
        b.connect(a.local_addr()).unwrap();
        b.set_read_timeout(Some(Duration::from_millis(1))).unwrap();
        stranger.send_to(b"intruder", b.local_addr()).unwrap();
        a.send_to(b"friend", b.local_addr()).unwrap();
        let m = b.recv_msg().unwrap();
        assert_eq!(m.data, b"friend");
        assert!(b.recv_msg().is_err(), "foreign datagram must be dropped");
    }

    #[test]
    fn steered_lanes_partition_flows_deterministically() {
        use badabing_wire::ProbeHeader;
        let net = FaultNet::new(77);
        let lanes = net.bind_lanes(addr("10.0.0.9:700"), 4).unwrap();
        let dst = lanes[0].local_addr();
        assert!(lanes.iter().all(|l| l.local_addr() == dst));
        // Eight sessions from *one* source: each session's datagrams must
        // land wholly on the lane its id picks, not the source's.
        let sender = net.bind(addr("10.0.1.1:50")).unwrap();
        for session in 0u32..8 {
            for seq in 0u64..3 {
                let h = ProbeHeader {
                    session,
                    experiment: seq,
                    slot: seq,
                    seq,
                    send_ns: 0,
                    idx: 0,
                    probe_len: 1,
                };
                sender.send_to(&h.encode(64), dst).unwrap();
            }
        }
        for l in &lanes {
            l.set_read_timeout(Some(Duration::from_millis(1))).unwrap();
        }
        let mut total = 0usize;
        for (i, l) in lanes.iter().enumerate() {
            while let Ok(m) = l.recv_msg() {
                let session = ProbeHeader::decode(&m.data).unwrap().session;
                assert_eq!(i, steer_lane(&m.data, 4), "session {session} on lane {i}");
                assert_eq!(i, session as usize % 4);
                total += 1;
            }
        }
        assert_eq!(total, 24, "steering must not lose datagrams");
        // The address unbinds only when the last lane handle drops.
        let keep = &lanes[3];
        let probe = net.bind(addr("10.0.2.1:60")).unwrap();
        probe.send_to(b"late", keep.local_addr()).unwrap();
        assert!(
            net.lock().sockets.contains_key(&dst),
            "address must stay bound while any lane handle lives"
        );
        drop(lanes);
        assert!(
            !net.lock().sockets.contains_key(&dst),
            "last handle drop must unbind the address"
        );
    }

    #[test]
    fn sleep_until_advances_virtual_time_exactly() {
        let net = FaultNet::new(1);
        net.sleep_until(Duration::from_millis(250));
        assert_eq!(net.now(), Duration::from_millis(250));
        // A second sleeper with an earlier deadline does not rewind.
        net.sleep_until(Duration::from_millis(100));
        assert_eq!(net.now(), Duration::from_millis(250));
    }

    #[test]
    fn two_threads_lockstep_through_virtual_time() {
        let net = FaultNet::new(5);
        let a = net.bind(addr("10.0.0.1:1")).unwrap();
        let b = net.bind(addr("10.0.0.2:2")).unwrap();
        b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        b.connect(a.local_addr()).unwrap();
        a.connect(b.local_addr()).unwrap();
        a.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let net2 = net.clone();
        // The echo thread holds a turn from the moment it is spawned:
        // otherwise virtual time runs ahead while the OS is still
        // scheduling it, and the first echo misses A's read timeout.
        let ticket = net.reserve();
        let echo = std::thread::spawn(move || {
            net2.adopt(ticket);
            // Echo three datagrams back with their stamps.
            let mut stamps = Vec::new();
            for _ in 0..3 {
                let m = b.recv_msg().unwrap();
                stamps.push(m.stamp);
                b.send(&m.data).unwrap();
            }
            drop(b);
            let _ = net2;
            stamps
        });
        let mut echoes = Vec::new();
        for i in 0u8..3 {
            // Pace sends 10 ms apart in virtual time.
            net.sleep_until(Duration::from_millis(10 * (u64::from(i) + 1)));
            a.send(&[i; 4]).unwrap();
            let m = a.recv_msg().unwrap();
            echoes.push((m.data[0], m.stamp));
        }
        let stamps = net.unenrolled(|| echo.join()).unwrap();
        for (i, (byte, stamp)) in echoes.iter().enumerate() {
            assert_eq!(usize::from(*byte), i);
            // send at 10(i+1) ms, +100 µs to B, +100 µs back.
            let sent = Duration::from_millis(10 * (i as u64 + 1));
            assert_eq!(stamps[i], sent + Duration::from_micros(100));
            assert_eq!(*stamp, sent + Duration::from_micros(200));
        }
    }
}
