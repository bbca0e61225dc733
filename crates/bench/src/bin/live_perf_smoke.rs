//! The live-datapath perf gate: the fallback path vs the batched
//! datapath, fed separate datagrams and GSO super-datagrams, on
//! loopback, with a JSON trajectory point (`BENCH_live.json`).
//!
//! Three measurements, mirroring the tentpole claims of the batched
//! datapath:
//!
//! 1. **TX zero allocation.** The steady-state sender path — encode a
//!    probe train into a reused buffer, hand it to the kernel with
//!    `send_segments` — is run under a counting global allocator and
//!    must perform **zero** heap allocations per probe. This is a hard
//!    assertion, not just a recorded number.
//! 2. **RX throughput.** Burst-then-drain rounds queue probes into the
//!    receive socket, then drain them through the same
//!    `BatchReceiver` + decode + batch-timestamp loop the live receiver
//!    uses. Three rows:
//!    - `fallback`: [`IoMode::Fallback`] on both ends, one syscall per
//!      datagram;
//!    - `sendmmsg`: separate datagrams sent with [`BatchSender::send`]
//!      into the batched ring — the traffic its per-socket degradation
//!      path sees (a sender without `UDP_SEGMENT`, or a kernel without
//!      `UDP_GRO`). No read comes back coalesced, so the ring never
//!      asks for kernel RX stamps;
//!    - `offload`: [`BatchSender::send_segments`] super-datagrams into
//!      the same ring, which `UDP_GRO` reads back coalesced, with
//!      kernel RX stamps from the first coalesced read on.
//!
//!    The gate (Linux only — elsewhere every row is the same portable
//!    path and everything is reported, not gated) demands the
//!    `sendmmsg` row issue ≥ 8× fewer RX syscalls per datagram than
//!    `fallback`, beat its packets/sec by ≥ 1.1×, and that no row
//!    allocates in the drain or fails to decode a cmsg. Stamps are part
//!    of the contract: the `sendmmsg` row must read none (a stamp per
//!    separate datagram costs about as much as batching saves), and
//!    the `offload` row must read some where the kernel stamps.
//!
//!    Why the throughput gate is "strictly faster" rather than a fixed
//!    multiple: the achievable speedup is `(w + s) / (w + s/B)` where
//!    `w` is the kernel's per-datagram UDP work (~0.3 µs: skb dequeue,
//!    copy_to_user — paid per datagram *inside* `recvmmsg` too), `s`
//!    the syscall entry/exit cost, and `B` the batch size. On kernels
//!    with entry/exit mitigations (KPTI etc., `s` ≈ 1 µs+) that is
//!    comfortably ≥ 2×; on an unmitigated CPU (`s` ≈ 0.1 µs, this
//!    container reports meltdown "Not affected") the same 32× syscall
//!    reduction can only buy ~1.3×. Gating a hardware constant would
//!    make the bench flaky across fleets, so the gate pins the
//!    structural invariants and the JSON records the measured ratio.
//! 3. **Latency.** Sender and receiver share one monotonic anchor (same
//!    process), so `batch_timestamp - send_stamp` is a true
//!    send-to-timestamp latency; the JSON records its p99 per mode,
//!    which bounds the staleness batch-granular timestamping can add.
//!
//! The `offload` row runs where the kernel supports `UDP_SEGMENT`
//! (probed with [`kernel_offload_caps`], recorded as `"skipped": true`
//! rather than failing elsewhere). Every row's send loop is timed too,
//! because kernel segmentation is a *TX*-side claim: the gate demands
//! the `offload` row's combined (TX + RX) syscalls per packet drop
//! ≥ 4× below the `sendmmsg` row's, and its combined packets/sec
//! (received over TX busy + RX busy) beat it outright.
//!
//! The steering tier adds two multi-thread rows where the kernel
//! supports `SO_REUSEPORT` and the session-steering program (recorded
//! as `"skipped": true` elsewhere): the group is bound the way the
//! receiver binds it, through [`Provider::bind_steered`], so its
//! classic-BPF program sends every datagram of session `s` to member
//! `s % N`. One sender socket spreads its trains over
//! [`STEER_SESSIONS`] session ids, and one thread per member drains it
//! through the same `BatchReceiver` loop. Rows for 1 and 4 threads
//! record combined drained packets per second of drain wall time. The
//! structural gates always hold: zero drain allocations, every packet
//! delivered, and member `t` drained exactly the packets of the
//! sessions with `s % N == t`. The ≥ [`MIN_STEER_SCALING`]× 1→4-thread
//! scaling gate additionally requires ≥ 4 usable cores — on a smaller
//! host the threads time-slice one core and the ratio measures the
//! scheduler, not the datapath, so it is reported, not gated.
//!
//! Syscalls-avoided comes from the ring's own accounting
//! (`datagrams - syscalls`). CI runs this under a hard timeout and
//! uploads the JSON next to `BENCH_sim.json`.
//!
//! ```text
//! live_perf_smoke [--quick] [--packets N] [--out PATH]
//! ```
//!
//! `--quick` shortens the TX allocation phase and the steering rows
//! (60 000 packets). The RX rows drain [`RX_PACKETS`] packets each
//! either way, and they take turns, one burst each (see [`rx_phase`]).
//! Run one after another, on a shared 2-vCPU host, the
//! `sendmmsg`/`fallback` ratio read 0.83–2.14× over 100 runs and the
//! ≥ 1.1× gate failed in 12; taking turns, over 200 runs it read
//! 1.08–1.29× and failed once. `--packets N` sets both counts.

use badabing_live::batch_io::{set_buffer_sizes, BatchReceiver, BatchSender, IoMode};
use badabing_live::cmsg::MAX_GSO_SEGMENTS;
use badabing_live::{kernel_offload_caps, Provider, Socket};
use badabing_metrics::Histogram;
use badabing_wire::{ProbeHeader, HEADER_BYTES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::net::UdpSocket;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A pass-through allocator that counts every allocation, so the bench
/// can assert the hot paths allocate nothing. Bench-only: the shipped
/// binaries use the system allocator untouched.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System`; the counters are relaxed
// atomics with no allocation of their own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const PACKET_BYTES: usize = 600; // the paper-default probe size
const TRAIN: usize = 3; // packets per probe (the improved schedule's N)
/// Packets each RX row drains, `--quick` or not (`--packets` overrides).
const RX_PACKETS: u64 = 240_000;
const RECV_BATCH: usize = 32;

/// Gate floors (see the module docs for why throughput is gated as
/// "strictly faster" while the syscall reduction carries the multiple).
const MIN_SYSCALL_REDUCTION: f64 = 8.0;
const MIN_SPEEDUP: f64 = 1.1;
/// The `offload` row must cut combined (TX + RX) syscalls per packet at
/// least this much further below the `sendmmsg` row. Structural: a
/// 192-packet burst costs `sendmmsg` 64 sendmmsg + 6 recvmmsg, `offload`
/// 3 sendmsg + at most 6 recvmmsg (fewer once GRO coalesces) — ≥ 7.8× —
/// so 4× leaves headroom for ring-size drift without ever passing on a
/// path that fell back to sendmmsg.
const MIN_OFFLOAD_SYSCALL_REDUCTION: f64 = 4.0;
/// Combined drained pps must grow at least this much from 1 to 4 drain
/// threads — gated only on hosts with ≥ 4 usable cores (see module
/// docs).
const MIN_STEER_SCALING: f64 = 1.5;
/// Session ids the steering rows spread their trains over, round-robin:
/// a multiple of every thread count measured, so each member drains an
/// equal share.
const STEER_SESSIONS: u32 = 32;

const _: () = assert!(PACKET_BYTES >= HEADER_BYTES, "probe must fit its header");

fn header(seq: u64, send_ns: u64, idx: u8) -> ProbeHeader {
    ProbeHeader {
        session: 1,
        experiment: seq / TRAIN as u64,
        slot: seq,
        seq,
        send_ns,
        idx,
        probe_len: TRAIN as u8,
    }
}

/// Phase 1: the steady-state TX loop under the counting allocator.
/// Returns (probes sent, allocations observed during them).
fn tx_alloc_phase(trains: u64) -> (u64, u64) {
    let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
    let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
    tx.connect(sink.local_addr().unwrap()).unwrap();
    set_buffer_sizes(&tx, 1 << 20, 1 << 22);

    let anchor = Instant::now();
    let mut train = vec![0u8; TRAIN * PACKET_BYTES];
    let mut sender = BatchSender::new(TRAIN, IoMode::Batched);
    let mut seq = 0u64;
    let send_train = |sender: &mut BatchSender, train: &mut [u8], seq: &mut u64| {
        for idx in 0..TRAIN {
            let h = header(*seq, anchor.elapsed().as_nanos() as u64, idx as u8);
            *seq += 1;
            h.encode_into(&mut train[idx * PACKET_BYTES..][..PACKET_BYTES]);
        }
        let mut off = 0;
        while off < TRAIN {
            off += sender
                .send_segments(&tx, &train[off * PACKET_BYTES..], PACKET_BYTES, TRAIN - off)
                .unwrap();
        }
    };

    // Warm-up outside the measured window (lazy socket/allocator state).
    for _ in 0..16 {
        send_train(&mut sender, &mut train, &mut seq);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..trains {
        send_train(&mut sender, &mut train, &mut seq);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    (trains, allocs)
}

struct RxResult {
    mode: &'static str,
    batched: bool,
    sent: u64,
    received: u64,
    busy_secs: f64,
    pps: f64,
    syscalls: u64,
    datagrams: u64,
    p99_latency_secs: f64,
    drain_allocs: u64,
    /// TX-side accounting for the same run: syscalls issued, time spent
    /// in the send loop, and how many trains went out as one GSO
    /// super-datagram (0 for the non-offload rows).
    tx_syscalls: u64,
    tx_busy_secs: f64,
    gso_sends: u64,
    gro_segments_split: u64,
    cmsg_decode_errors: u64,
    rx_kernel_stamped: u64,
}

impl RxResult {
    /// Combined TX + RX syscalls per logical datagram — the structural
    /// cost the offload tier attacks from both sides.
    fn combined_syscalls_per_pkt(&self) -> f64 {
        (self.tx_syscalls + self.syscalls) as f64 / self.datagrams.max(1) as f64
    }

    /// Packets moved per second of combined TX + RX busy time.
    fn combined_pps(&self) -> f64 {
        let busy = self.tx_busy_secs + self.busy_secs;
        if busy > 0.0 {
            self.received as f64 / busy
        } else {
            0.0
        }
    }
}

/// Datagrams queued per round: small enough to fit any kernel rcvbuf
/// (the default `rmem_max` cap is ~200 KiB of true skb footprint), so a
/// burst never drops and the drain sees a deep queue — the regime where
/// batching matters.
const BURST: u64 = 192;

/// How a row's sender hands its packets to the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tx {
    /// [`IoMode::Fallback`]: one `send` per datagram, into the fallback
    /// receive path.
    Fallback,
    /// Separate datagrams, one `sendmmsg` per train
    /// ([`BatchSender::send`]), into the batched ring.
    Separate,
    /// `UDP_SEGMENT` super-datagrams of a whole burst
    /// ([`BatchSender::send_segments`]), into the batched ring.
    Segments,
}

/// Phase 2+3: burst-then-drain rounds. Each round queues [`BURST`]
/// probes into the receive socket, then drains them through the same
/// `BatchReceiver` + decode + batch-timestamp loop the live receiver
/// uses. Only the drain contributes to `busy_secs`, so every row
/// compares pure receive-path cost on identical queue depths; the send
/// loop is separately timed into `tx_busy_secs` because the offload
/// row's claim is a TX-side one. Sender and receiver share one monotonic
/// anchor (same process), making `batch_timestamp - send_stamp` a true
/// send-to-timestamp latency.
///
/// The rows take turns, one round each, so every row drains under the
/// same host load. Run one after another, the rows met different
/// neighbours, and the `sendmmsg`/`fallback` ratio measured the host
/// rather than the code.
///
/// [`Tx::Fallback`] and [`Tx::Separate`] queue per train of [`TRAIN`] —
/// the live sender's unit of work. [`Tx::Segments`] encodes the whole
/// burst into one flat buffer and submits it in `MAX_GSO_SEGMENTS`-sized
/// super-datagrams, which is exactly how a fleet sender amortizes a
/// dense schedule.
fn rx_phase(rows: &[(&'static str, Tx)], count: u64) -> Vec<RxResult> {
    let anchor = Instant::now();
    let mut rows: Vec<RxRow> = rows
        .iter()
        .map(|&(label, tx_kind)| RxRow::new(label, tx_kind))
        .collect();
    let mut sent = 0;
    while sent < count {
        let n = BURST.min(count - sent);
        for row in &mut rows {
            row.round(n, anchor);
        }
        sent += n;
    }
    rows.into_iter().map(RxRow::result).collect()
}

/// One RX row's sockets, rings and running tallies.
struct RxRow {
    label: &'static str,
    tx_kind: Tx,
    rx: UdpSocket,
    tx: UdpSocket,
    ring: BatchReceiver,
    sender: BatchSender,
    /// Packets encoded per send: a train, or a whole burst of segments.
    chunk: usize,
    train: Vec<u8>,
    latency: Histogram,
    sent: u64,
    received: u64,
    kernel_stamped: u64,
    busy: Duration,
    tx_busy: Duration,
    drain_allocs: u64,
}

impl RxRow {
    fn new(label: &'static str, tx_kind: Tx) -> Self {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        set_buffer_sizes(&rx, 1 << 22, 1 << 20);
        rx.set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.connect(rx.local_addr().unwrap()).unwrap();
        set_buffer_sizes(&tx, 1 << 20, 1 << 22);

        let mode = if tx_kind == Tx::Fallback {
            IoMode::Fallback
        } else {
            IoMode::Batched
        };
        let segments = tx_kind == Tx::Segments;
        let chunk = if segments { BURST as usize } else { TRAIN };
        Self {
            label,
            tx_kind,
            rx,
            tx,
            ring: BatchReceiver::new(RECV_BATCH, mode),
            sender: BatchSender::new(if segments { MAX_GSO_SEGMENTS } else { TRAIN }, mode),
            chunk,
            train: vec![0u8; chunk * PACKET_BYTES],
            latency: Histogram::latency(),
            sent: 0,
            received: 0,
            kernel_stamped: 0,
            busy: Duration::ZERO,
            tx_busy: Duration::ZERO,
            drain_allocs: 0,
        }
    }

    /// Queue `target` packets, then drain them.
    fn round(&mut self, target: u64, anchor: Instant) {
        let alloc_before = ALLOCS.load(Ordering::Relaxed);
        // Queue one burst: encode `chunk` packets at a time into the
        // reused buffer, then hand each encoded block to the kernel.
        let mut queued = 0u64;
        while queued < target {
            let n = (self.chunk as u64).min(target - queued) as usize;
            for idx in 0..n {
                let h = header(
                    self.sent,
                    anchor.elapsed().as_nanos() as u64,
                    (idx % TRAIN) as u8,
                );
                self.sent += 1;
                h.encode_into(&mut self.train[idx * PACKET_BYTES..][..PACKET_BYTES]);
            }
            let t0 = Instant::now();
            let mut off = 0;
            if self.tx_kind == Tx::Separate {
                let pkts: [&[u8]; TRAIN] =
                    std::array::from_fn(|k| &self.train[k * PACKET_BYTES..][..PACKET_BYTES]);
                while off < n {
                    off += self.sender.send(&self.tx, &pkts[off..n]).unwrap();
                }
            } else {
                while off < n {
                    off += self
                        .sender
                        .send_segments(
                            &self.tx,
                            &self.train[off * PACKET_BYTES..],
                            PACKET_BYTES,
                            n - off,
                        )
                        .unwrap();
                }
            }
            self.tx_busy += t0.elapsed();
            queued += n as u64;
        }
        // Drain it, timing only the receive path.
        let mut round_received = 0u64;
        while round_received < queued {
            let t0 = Instant::now();
            match self.ring.recv(&self.rx) {
                Ok(n) => {
                    // One timestamp per batch — the live receiver's
                    // stamping discipline, and the latency we report.
                    let now_ns = anchor.elapsed().as_nanos() as u64;
                    for i in 0..n {
                        let (data, _) = self.ring.datagram(i);
                        if self.ring.stamp_age_ns(i).is_some() {
                            self.kernel_stamped += 1;
                        }
                        if let Ok(h) = ProbeHeader::decode(data) {
                            round_received += 1;
                            self.latency.record_ns(now_ns.saturating_sub(h.send_ns));
                        }
                    }
                    self.busy += t0.elapsed();
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // A dropped datagram (rcvbuf overflow) ends the
                    // round; the pps denominator only counts busy time.
                    break;
                }
                Err(e) => panic!("recv failed: {e}"),
            }
        }
        self.received += round_received;
        self.drain_allocs += ALLOCS.load(Ordering::Relaxed) - alloc_before;
    }

    fn result(self) -> RxResult {
        let busy_secs = self.busy.as_secs_f64();
        RxResult {
            mode: self.label,
            batched: self.ring.is_batched(),
            sent: self.sent,
            received: self.received,
            busy_secs,
            pps: if busy_secs > 0.0 {
                self.received as f64 / busy_secs
            } else {
                0.0
            },
            syscalls: self.ring.syscalls(),
            datagrams: self.ring.datagrams(),
            p99_latency_secs: self.latency.quantile_secs(0.99).unwrap_or(0.0),
            drain_allocs: self.drain_allocs,
            tx_syscalls: self.sender.syscalls(),
            tx_busy_secs: self.tx_busy.as_secs_f64(),
            gso_sends: self.sender.gso_sends(),
            gro_segments_split: self.ring.gro_segments_split(),
            cmsg_decode_errors: self.ring.cmsg_decode_errors(),
            rx_kernel_stamped: self.kernel_stamped,
        }
    }
}

struct SteerResult {
    threads: usize,
    sent: u64,
    received: u64,
    wall_secs: f64,
    pps: f64,
    drain_allocs: u64,
    /// Packets each member drained whose session it owns (`s % N == t`).
    per_socket: Vec<u64>,
    /// Packets of the sessions each member owns, as sent.
    expected_per_socket: Vec<u64>,
}

/// Steering rows: burst-then-drain over a session-steered group of
/// `threads` reuseport sockets, fed from one sender socket whose trains
/// cycle through [`STEER_SESSIONS`] session ids, drained by one thread
/// per socket. The drain windows are timed wall-clock (the queueing is
/// not), so the row measures how fast the group as a whole can move
/// packets when every thread owns its own socket.
fn steer_phase(threads: usize, count: u64) -> SteerResult {
    use std::sync::atomic::AtomicI64;
    use std::sync::Barrier;

    // One group member per drain thread; member `t` receives the
    // sessions `s % threads == t`.
    let socks: Vec<UdpSocket> = Provider::Udp(IoMode::Batched)
        .bind_steered("127.0.0.1:0".parse().unwrap(), threads)
        .unwrap()
        .into_iter()
        .map(|s| match s {
            Socket::Udp(s) => s,
            Socket::Fault(_) => unreachable!("a real-UDP provider binds real sockets"),
        })
        .collect();
    let group_addr = socks[0].local_addr().unwrap();
    for s in &socks {
        set_buffer_sizes(s, 1 << 22, 1 << 20);
        s.set_nonblocking(true).unwrap();
    }
    let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
    tx.connect(group_addr).unwrap();
    set_buffer_sizes(&tx, 1 << 20, 1 << 22);

    let start = Barrier::new(threads + 1);
    let finish = Barrier::new(threads + 1);
    let remaining = AtomicI64::new(0);
    let done = std::sync::atomic::AtomicBool::new(false);
    let per_socket: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let mut expected_per_socket = vec![0u64; threads];

    let anchor = Instant::now();
    let mut train = vec![0u8; TRAIN * PACKET_BYTES];
    let mut sender = BatchSender::new(TRAIN, IoMode::Batched);
    let mut seq = 0u64;
    let mut sent = 0u64;
    let mut wall = Duration::ZERO;
    let mut drain_allocs = 0u64;

    std::thread::scope(|s| {
        for (t, sock) in socks.iter().enumerate() {
            let (start, finish, remaining, done) = (&start, &finish, &remaining, &done);
            let my_count = &per_socket[t];
            s.spawn(move || {
                let mut ring = BatchReceiver::new(RECV_BATCH, IoMode::Batched);
                loop {
                    start.wait();
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                    // The escape deadline only matters if a datagram is
                    // dropped (it cannot be at these buffer sizes): the
                    // round normally ends when the shared count drains.
                    let deadline = Instant::now() + Duration::from_secs(2);
                    loop {
                        match ring.recv(sock) {
                            Ok(n) => {
                                let mut mine = 0u64;
                                for i in 0..n {
                                    let (data, _) = ring.datagram(i);
                                    if ProbeHeader::decode(data)
                                        .is_ok_and(|h| h.session as usize % threads == t)
                                    {
                                        mine += 1;
                                    }
                                }
                                my_count.fetch_add(mine, Ordering::Relaxed);
                                remaining.fetch_sub(n as i64, Ordering::Relaxed);
                            }
                            Err(e)
                                if matches!(
                                    e.kind(),
                                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                                ) =>
                            {
                                if remaining.load(Ordering::Relaxed) <= 0
                                    || Instant::now() >= deadline
                                {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                            Err(e) => panic!("steer recv failed: {e}"),
                        }
                    }
                    finish.wait();
                }
            });
        }

        // One warm-up round absorbs lazy init (rings, barriers) before
        // the allocation accounting starts.
        let mut rounds = 0u64;
        while sent < count || rounds == 0 {
            let round_target = if rounds == 0 {
                BURST
            } else {
                BURST.min(count - sent)
            };
            let mut queued = 0u64;
            while queued < round_target {
                let n = (TRAIN as u64).min(round_target - queued) as usize;
                let session = (seq / TRAIN as u64) as u32 % STEER_SESSIONS;
                for idx in 0..n {
                    let h = ProbeHeader {
                        session,
                        ..header(seq, anchor.elapsed().as_nanos() as u64, idx as u8)
                    };
                    seq += 1;
                    h.encode_into(&mut train[idx * PACKET_BYTES..][..PACKET_BYTES]);
                }
                let mut off = 0;
                while off < n {
                    off += sender
                        .send_segments(&tx, &train[off * PACKET_BYTES..], PACKET_BYTES, n - off)
                        .unwrap();
                }
                expected_per_socket[session as usize % threads] += n as u64;
                queued += n as u64;
            }
            remaining.store(queued as i64, Ordering::Relaxed);
            let alloc_before = ALLOCS.load(Ordering::Relaxed);
            let t0 = Instant::now();
            start.wait();
            finish.wait();
            if rounds > 0 {
                wall += t0.elapsed();
                drain_allocs += ALLOCS.load(Ordering::Relaxed) - alloc_before;
                sent += queued;
            } else {
                // Warm-up: drop its counts so `received` matches `sent`.
                for c in &per_socket {
                    c.store(0, Ordering::Relaxed);
                }
                expected_per_socket.fill(0);
            }
            rounds += 1;
        }
        done.store(true, Ordering::Relaxed);
        start.wait();
    });

    let per_socket: Vec<u64> = per_socket.into_iter().map(AtomicU64::into_inner).collect();
    let received: u64 = per_socket.iter().sum();
    let wall_secs = wall.as_secs_f64();
    SteerResult {
        threads,
        sent,
        received,
        wall_secs,
        pps: if wall_secs > 0.0 {
            received as f64 / wall_secs
        } else {
            0.0
        },
        drain_allocs,
        per_socket,
        expected_per_socket,
    }
}

fn main() {
    let mut quick = false;
    let mut packets: Option<u64> = None;
    let mut out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--packets" => packets = args.next().and_then(|v| v.parse().ok()),
            "--out" => out = args.next().map(PathBuf::from),
            other => {
                eprintln!(
                    "unknown flag {other} (live_perf_smoke [--quick] [--packets N] [--out PATH])"
                );
                std::process::exit(2);
            }
        }
    }
    // The RX rows drain the full run's packets even under `--quick`: the
    // `sendmmsg`/`fallback` gate compares two throughputs, and a shorter
    // drain leaves the ratio to scheduling noise.
    let rx_count = packets.unwrap_or(RX_PACKETS);
    let count = packets.unwrap_or(if quick { 60_000 } else { RX_PACKETS });

    println!(
        "=== live_perf_smoke: {rx_count} packets per RX row ({count} per steering row) of \
         {PACKET_BYTES} B, trains of {TRAIN} ==="
    );

    // Phase 1: the zero-allocation TX contract.
    let (tx_trains, tx_allocs) = tx_alloc_phase(if quick { 2_000 } else { 10_000 });
    println!(
        "tx: {tx_trains} trains ({} packets), {tx_allocs} heap allocations in steady state",
        tx_trains * TRAIN as u64
    );
    assert_eq!(
        tx_allocs, 0,
        "steady-state sender TX must not allocate (got {tx_allocs} allocations \
         over {tx_trains} trains)"
    );

    // Phases 2+3: receive throughput and latency, fallback first, then
    // the batched ring fed separate datagrams, then (where the running
    // kernel supports it) fed super-datagrams.
    let caps = kernel_offload_caps();
    let mut kinds = vec![("fallback", Tx::Fallback), ("sendmmsg", Tx::Separate)];
    if caps.gso_ready() {
        kinds.push(("offload", Tx::Segments));
    }
    let mut results = rx_phase(&kinds, rx_count).into_iter();
    let fallback = results.next().expect("fallback row");
    let sendmmsg = results.next().expect("sendmmsg row");
    let offload = results.next();
    let rows: Vec<&RxResult> = [Some(&fallback), Some(&sendmmsg), offload.as_ref()]
        .into_iter()
        .flatten()
        .collect();
    for r in &rows {
        println!(
            "rx {:>8}: {:>9.0} pkts/s ({} of {} in {:.3}s busy), {} rx + {} tx syscalls for \
             {} datagrams (avoided {}), p99 latency {:.1} µs, {} allocs in drain, \
             {} GSO sends, {} GRO splits, {} kernel-stamped",
            r.mode,
            r.pps,
            r.received,
            r.sent,
            r.busy_secs,
            r.syscalls,
            r.tx_syscalls,
            r.datagrams,
            r.datagrams.saturating_sub(r.syscalls),
            r.p99_latency_secs * 1e6,
            r.drain_allocs,
            r.gso_sends,
            r.gro_segments_split,
            r.rx_kernel_stamped,
        );
    }
    if offload.is_none() {
        println!("rx  offload: skipped (kernel lacks UDP_SEGMENT)");
    }

    let speedup = if fallback.pps > 0.0 {
        sendmmsg.pps / fallback.pps
    } else {
        0.0
    };
    // Syscalls per datagram: 1.0 on the fallback path by construction,
    // ~1/RECV_BATCH batched. The reduction ratio is the structural claim
    // of the batched datapath and is hardware-independent.
    let syscall_reduction = if sendmmsg.syscalls > 0 && sendmmsg.datagrams > 0 {
        (fallback.syscalls as f64 / fallback.datagrams.max(1) as f64)
            / (sendmmsg.syscalls as f64 / sendmmsg.datagrams as f64)
    } else {
        0.0
    };
    println!(
        "sendmmsg/fallback speedup: {speedup:.2}x, rx syscall reduction: {syscall_reduction:.1}x"
    );
    if sendmmsg.batched {
        assert!(
            syscall_reduction >= MIN_SYSCALL_REDUCTION,
            "perf gate: the batched ring must issue >= {MIN_SYSCALL_REDUCTION}x fewer syscalls \
             per datagram, got {syscall_reduction:.1}x"
        );
        assert!(
            speedup >= MIN_SPEEDUP,
            "perf gate: the batched ring must beat fallback packets/sec by >= {MIN_SPEEDUP}x, \
             got {speedup:.2}x"
        );
    } else {
        println!("(no batched syscalls on this platform: results reported, not gated)");
    }
    if sendmmsg.batched {
        assert_eq!(
            sendmmsg.rx_kernel_stamped, 0,
            "perf gate: separate datagrams must not ask for kernel stamps"
        );
    }
    for r in &rows {
        assert_eq!(
            r.drain_allocs, 0,
            "perf gate: the {} drain loop must not allocate",
            r.mode
        );
        assert_eq!(
            r.cmsg_decode_errors, 0,
            "perf gate: {} must decode every cmsg it asked for",
            r.mode
        );
    }

    // The offload gate compares combined TX + RX cost: kernel
    // segmentation is worthless if it just moves syscalls to the other
    // side of the wire.
    let mut offload_reduction = 0.0;
    if let Some(r) = &offload {
        let reduction = sendmmsg.combined_syscalls_per_pkt() / r.combined_syscalls_per_pkt();
        println!(
            "{} vs sendmmsg: combined syscalls/pkt {:.4} vs {:.4} ({reduction:.1}x), \
             combined pps {:.0} vs {:.0}",
            r.mode,
            r.combined_syscalls_per_pkt(),
            sendmmsg.combined_syscalls_per_pkt(),
            r.combined_pps(),
            sendmmsg.combined_pps(),
        );
        assert!(
            reduction >= MIN_OFFLOAD_SYSCALL_REDUCTION,
            "perf gate: {} must cut combined syscalls/pkt >= {MIN_OFFLOAD_SYSCALL_REDUCTION}x \
             further than sendmmsg, got {reduction:.1}x",
            r.mode
        );
        assert!(
            r.combined_pps() > sendmmsg.combined_pps(),
            "perf gate: {} combined pps ({:.0}) must beat sendmmsg ({:.0})",
            r.mode,
            r.combined_pps(),
            sendmmsg.combined_pps(),
        );
        assert!(
            r.gso_sends > 0,
            "perf gate: {} row must actually exercise UDP_SEGMENT",
            r.mode
        );
        if caps.gro_ready() && caps.so_timestamping {
            assert!(
                r.rx_kernel_stamped > 0,
                "perf gate: {} coalesced reads must engage kernel stamps",
                r.mode
            );
        }
        offload_reduction = reduction;
    }

    // Steering rows: 1 vs 4 drain threads over a reuseport group.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let steer = caps
        .reuseport_ready()
        .then(|| (steer_phase(1, count), steer_phase(4, count)));
    let mut steer_scaling = 0.0;
    let steer_gated = steer.is_some() && cores >= 4;
    match &steer {
        Some((s1, s4)) => {
            for r in [s1, s4] {
                println!(
                    "steer {}t: {:>9.0} pkts/s ({} of {} in {:.3}s wall), {} allocs in drain, \
                     per-socket {:?}",
                    r.threads, r.pps, r.received, r.sent, r.wall_secs, r.drain_allocs, r.per_socket,
                );
                assert_eq!(
                    r.received, r.sent,
                    "perf gate: the reuseport group must deliver every packet"
                );
                assert_eq!(
                    r.per_socket, r.expected_per_socket,
                    "perf gate: member t must drain exactly the sessions s % {} == t",
                    r.threads
                );
                assert_eq!(
                    r.drain_allocs, 0,
                    "perf gate: the {}-thread reuseport drain must not allocate",
                    r.threads
                );
            }
            steer_scaling = if s1.pps > 0.0 { s4.pps / s1.pps } else { 0.0 };
            println!("steer 1→4 thread scaling: {steer_scaling:.2}x");
            if steer_gated {
                assert!(
                    steer_scaling >= MIN_STEER_SCALING,
                    "perf gate: 4 drain threads must move >= {MIN_STEER_SCALING}x the \
                     combined pps of 1, got {steer_scaling:.2}x"
                );
            } else {
                println!("(only {cores} usable cores: steer scaling reported, not gated)");
            }
        }
        None => {
            println!("steer: skipped (kernel lacks SO_REUSEPORT or refuses the steering program)")
        }
    }

    let rx_json = |r: &RxResult| {
        format!(
            concat!(
                "    {{\"mode\": \"{}\", \"batched\": {}, \"skipped\": false, ",
                "\"packets_sent\": {}, ",
                "\"packets_received\": {}, \"busy_secs\": {:.6}, \"packets_per_sec\": {:.0}, ",
                "\"syscalls\": {}, \"datagrams\": {}, \"syscalls_avoided\": {}, ",
                "\"p99_latency_secs\": {:.9}, \"drain_allocs\": {}, ",
                "\"tx_syscalls\": {}, \"tx_busy_secs\": {:.6}, ",
                "\"combined_packets_per_sec\": {:.0}, \"combined_syscalls_per_pkt\": {:.6}, ",
                "\"gso_sends\": {}, \"gro_segments_split\": {}, ",
                "\"cmsg_decode_errors\": {}, \"rx_timestamp_kernel\": {}}}"
            ),
            r.mode,
            r.batched,
            r.sent,
            r.received,
            r.busy_secs,
            r.pps,
            r.syscalls,
            r.datagrams,
            r.datagrams.saturating_sub(r.syscalls),
            r.p99_latency_secs,
            r.drain_allocs,
            r.tx_syscalls,
            r.tx_busy_secs,
            r.combined_pps(),
            r.combined_syscalls_per_pkt(),
            r.gso_sends,
            r.gro_segments_split,
            r.cmsg_decode_errors,
            r.rx_kernel_stamped,
        )
    };
    // Unsupported kernels record a skip, not a failure: the trajectory
    // file stays comparable across fleets with and without offload.
    let skipped_json = |mode: &str, reason: &str| {
        format!("    {{\"mode\": \"{mode}\", \"skipped\": true, \"reason\": \"{reason}\"}}")
    };
    let mut rx_rows = vec![rx_json(&fallback), rx_json(&sendmmsg)];
    rx_rows.push(match &offload {
        Some(r) => rx_json(r),
        None => skipped_json("offload", "kernel lacks UDP_SEGMENT"),
    });
    let steer_json = |r: &SteerResult| {
        let per_socket = r
            .per_socket
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            concat!(
                "    {{\"threads\": {}, \"sockets\": {}, \"sessions\": {}, \"skipped\": false, ",
                "\"packets_sent\": {}, \"packets_received\": {}, \"wall_secs\": {:.6}, ",
                "\"packets_per_sec\": {:.0}, \"drain_allocs\": {}, \"per_socket\": [{}]}}"
            ),
            r.threads,
            r.threads,
            STEER_SESSIONS,
            r.sent,
            r.received,
            r.wall_secs,
            r.pps,
            r.drain_allocs,
            per_socket,
        )
    };
    let steer_rows = match &steer {
        Some((s1, s4)) => format!("{},\n{}", steer_json(s1), steer_json(s4)),
        None => {
            "    {\"threads\": 1, \"skipped\": true, \"reason\": \"no session-steered reuseport group\"},\n    \
             {\"threads\": 4, \"skipped\": true, \"reason\": \"no session-steered reuseport group\"}"
                .to_string()
        }
    };
    let json = format!(
        concat!(
            "{{\n",
            "  \"name\": \"live_perf_smoke\",\n",
            "  \"quick\": {},\n",
            "  \"packet_bytes\": {},\n",
            "  \"train_packets\": {},\n",
            "  \"recv_batch\": {},\n",
            "  \"caps\": {{\"udp_segment\": {}, \"udp_gro\": {}, \"so_timestamping\": {}, ",
            "\"so_reuseport\": {}}},\n",
            "  \"tx\": {{\"trains\": {}, \"packets\": {}, \"steady_state_allocs\": {}, ",
            "\"allocs_per_probe\": {}}},\n",
            "  \"rx\": [\n{}\n  ],\n",
            "  \"steer\": [\n{}\n  ],\n",
            "  \"gate\": {{\"speedup\": {:.3}, \"min_speedup\": {}, ",
            "\"syscall_reduction\": {:.1}, \"min_syscall_reduction\": {}, ",
            "\"offload_syscall_reduction\": {:.1}, \"min_offload_syscall_reduction\": {}, ",
            "\"steer_scaling\": {:.3}, \"min_steer_scaling\": {}, \"cores\": {}, ",
            "\"gated\": {}, \"offload_gated\": {}, \"steer_gated\": {}}}\n",
            "}}\n"
        ),
        quick,
        PACKET_BYTES,
        TRAIN,
        RECV_BATCH,
        caps.udp_segment,
        caps.udp_gro,
        caps.so_timestamping,
        caps.so_reuseport,
        tx_trains,
        tx_trains * TRAIN as u64,
        tx_allocs,
        tx_allocs / tx_trains.max(1),
        rx_rows.join(",\n"),
        steer_rows,
        speedup,
        MIN_SPEEDUP,
        syscall_reduction,
        MIN_SYSCALL_REDUCTION,
        offload_reduction,
        MIN_OFFLOAD_SYSCALL_REDUCTION,
        steer_scaling,
        MIN_STEER_SCALING,
        cores,
        sendmmsg.batched,
        offload.is_some(),
        steer_gated,
    );
    let path = out.unwrap_or_else(|| PathBuf::from("BENCH_live.json"));
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            f.write_all(json.as_bytes()).unwrap();
            println!("[bench json written to {}]", path.display());
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}
