//! A user-space bottleneck emulator.
//!
//! Stands in for the testbed's congested OC3 hop when running the live
//! tool on a machine pair (or loopback): a UDP forwarder whose admission
//! decision is governed by a *virtual* drop-tail queue drained at a
//! configured rate. Real probe bytes and synthetic cross-traffic bytes
//! share the queue, so probes experience the same loss/delay coupling the
//! simulator and the real router produce: when the virtual queue is full,
//! arriving probes are dropped; otherwise they are forwarded after the
//! queue's current drain time.
//!
//! Scripted episodes reproduce the Iperf scenario: at exponential
//! intervals, synthetic cross traffic at `burst_factor × rate` is poured
//! into the queue for long enough to cause a loss episode of the
//! configured duration.
//!
//! Three plain threads: a receive/admit loop, a delayed-delivery loop
//! ordered by a binary heap of due times, and the episode scripter. The
//! emulator only sits on the probe path — control-plane datagrams go
//! directly sender → receiver and are never routed through here.

use badabing_metrics::Registry;
use badabing_stats::dist::{Exponential, Sample};
use badabing_wire::ProbeHeader;
use rand::rngs::StdRng;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Emulator configuration.
#[derive(Debug, Clone)]
pub struct EmulatorConfig {
    /// Listen address for incoming probe datagrams.
    pub bind: SocketAddr,
    /// Where admitted datagrams are forwarded.
    pub target: SocketAddr,
    /// Virtual bottleneck rate in bits per second.
    pub rate_bps: u64,
    /// Virtual buffer size in bytes.
    pub buffer_bytes: u64,
    /// Mean gap between scripted loss episodes in seconds
    /// (`f64::INFINITY` disables episodes).
    pub episode_mean_gap_secs: f64,
    /// Loss duration of each episode in seconds.
    pub episode_loss_secs: f64,
    /// Synthetic overload during an episode, as a multiple of `rate_bps`
    /// (must be > 1 for episodes to cause loss).
    pub burst_factor: f64,
    /// Run counters and delay histograms, if observability is wanted.
    pub metrics: Option<Arc<Registry>>,
}

impl EmulatorConfig {
    /// A loopback-scale bottleneck: 20 Mb/s with 100 ms of buffer and
    /// 68 ms loss episodes every 10 s — the CBR scenario shrunk to what a
    /// loopback interface comfortably carries.
    pub fn loopback_default(bind: SocketAddr, target: SocketAddr) -> Self {
        Self {
            bind,
            target,
            rate_bps: 20_000_000,
            buffer_bytes: 250_000, // 100 ms at 20 Mb/s
            episode_mean_gap_secs: 10.0,
            episode_loss_secs: 0.068,
            burst_factor: 3.0,
            metrics: None,
        }
    }

    /// Buffer drain time in seconds.
    pub fn buffer_secs(&self) -> f64 {
        self.buffer_bytes as f64 * 8.0 / self.rate_bps as f64
    }
}

/// Counters published by the emulator.
#[derive(Debug, Clone, Default)]
pub struct EmulatorStats {
    /// Datagrams forwarded.
    pub forwarded: u64,
    /// Datagrams dropped at the virtual queue.
    pub dropped: u64,
    /// Scripted episodes run.
    pub episodes: u64,
    /// Per-session probe accounting, keyed by the probe header's session
    /// id (datagrams that do not decode as probes are counted only in
    /// the totals above). With many senders sharing one bottleneck this
    /// is what ties each sender's manifest to its share of the loss.
    pub per_session: BTreeMap<u32, SessionFlow>,
}

/// One session's share of the emulator's traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionFlow {
    /// Probe datagrams of this session forwarded.
    pub forwarded: u64,
    /// Probe datagrams of this session dropped at the virtual queue.
    pub dropped: u64,
}

/// Virtual queue state: occupancy in bytes, drained continuously.
struct VirtualQueue {
    depth_bytes: f64,
    last_update: Instant,
    rate_bps: f64,
    capacity_bytes: f64,
}

impl VirtualQueue {
    fn drain_to(&mut self, now: Instant) {
        let elapsed = now.duration_since(self.last_update).as_secs_f64();
        self.depth_bytes = (self.depth_bytes - elapsed * self.rate_bps / 8.0).max(0.0);
        self.last_update = now;
    }

    /// Try to admit `bytes`; returns the drain delay if admitted.
    fn offer(&mut self, now: Instant, bytes: f64) -> Option<Duration> {
        self.drain_to(now);
        if self.depth_bytes + bytes > self.capacity_bytes {
            return None;
        }
        self.depth_bytes += bytes;
        Some(Duration::from_secs_f64(
            self.depth_bytes * 8.0 / self.rate_bps,
        ))
    }

    /// Pour synthetic cross-traffic in (overflow simply saturates —
    /// synthetic packets "dropped" need no accounting).
    fn inject(&mut self, now: Instant, bytes: f64) {
        self.drain_to(now);
        self.depth_bytes = (self.depth_bytes + bytes).min(self.capacity_bytes);
    }

    #[cfg(test)]
    fn is_full(&mut self, now: Instant, headroom_bytes: f64) -> bool {
        self.drain_to(now);
        self.depth_bytes + headroom_bytes > self.capacity_bytes
    }
}

/// A datagram admitted to the queue, waiting out its drain delay.
struct Pending {
    due: Instant,
    seq: u64,
    data: Vec<u8>,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // FIFO holds: drain delays are computed from monotone queue
        // depths, and `seq` breaks equal-due ties in admission order.
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// How often blocking loops wake to check the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// A running emulator.
pub struct Emulator {
    stop: Arc<AtomicBool>,
    stats: Arc<Mutex<EmulatorStats>>,
    local_addr: SocketAddr,
    wakeup: Arc<Condvar>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Emulator {
    /// Start the emulator threads.
    pub fn start(cfg: EmulatorConfig, mut rng: StdRng) -> std::io::Result<Self> {
        assert!(
            cfg.rate_bps > 0 && cfg.buffer_bytes > 0,
            "rate and buffer must be positive"
        );
        let socket = UdpSocket::bind(cfg.bind)?;
        socket.set_read_timeout(Some(POLL_INTERVAL))?;
        let local_addr = socket.local_addr()?;
        let out_bind: SocketAddr = if cfg.target.is_ipv4() {
            "0.0.0.0:0".parse().expect("static addr")
        } else {
            "[::]:0".parse().expect("static addr")
        };
        let out = UdpSocket::bind(out_bind)?;
        out.connect(cfg.target)?;

        let queue = Arc::new(Mutex::new(VirtualQueue {
            depth_bytes: 0.0,
            last_update: Instant::now(),
            rate_bps: cfg.rate_bps as f64,
            capacity_bytes: cfg.buffer_bytes as f64,
        }));
        let stats = Arc::new(Mutex::new(EmulatorStats::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let pending: Arc<Mutex<BinaryHeap<Reverse<Pending>>>> =
            Arc::new(Mutex::new(BinaryHeap::new()));
        let wakeup = Arc::new(Condvar::new());
        let mut threads = Vec::new();

        let m_forwarded = cfg.metrics.as_ref().map(|m| m.counter("forwarded"));
        let m_dropped = cfg.metrics.as_ref().map(|m| m.counter("dropped"));
        let m_episodes = cfg.metrics.as_ref().map(|m| m.counter("episodes"));
        let m_delay = cfg
            .metrics
            .as_ref()
            .map(|m| m.histogram("queue_delay_secs"));

        // Receive/admit loop: admit or drop against the virtual queue,
        // handing admitted datagrams to the delivery thread.
        {
            let queue = queue.clone();
            let stats = stats.clone();
            let stop = stop.clone();
            let pending = pending.clone();
            let wakeup = wakeup.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("badabing-emu-recv".into())
                    .spawn(move || {
                        let mut buf = vec![0u8; 65_536];
                        let mut seq = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            let len = match socket.recv(&mut buf) {
                                Ok(len) => len,
                                Err(e)
                                    if e.kind() == std::io::ErrorKind::WouldBlock
                                        || e.kind() == std::io::ErrorKind::TimedOut
                                        || e.kind() == std::io::ErrorKind::ConnectionRefused =>
                                {
                                    continue
                                }
                                Err(_) => break,
                            };
                            let now = Instant::now();
                            let session = ProbeHeader::decode(&buf[..len]).ok().map(|h| h.session);
                            let admitted = queue.lock().expect("queue lock").offer(now, len as f64);
                            match admitted {
                                None => {
                                    let mut s = stats.lock().expect("stats lock");
                                    s.dropped += 1;
                                    if let Some(id) = session {
                                        s.per_session.entry(id).or_default().dropped += 1;
                                    }
                                    drop(s);
                                    if let Some(c) = &m_dropped {
                                        c.inc();
                                    }
                                }
                                Some(delay) => {
                                    let mut s = stats.lock().expect("stats lock");
                                    s.forwarded += 1;
                                    if let Some(id) = session {
                                        s.per_session.entry(id).or_default().forwarded += 1;
                                    }
                                    drop(s);
                                    if let Some(c) = &m_forwarded {
                                        c.inc();
                                    }
                                    if let Some(h) = &m_delay {
                                        h.record_secs(delay.as_secs_f64());
                                    }
                                    pending.lock().expect("pending lock").push(Reverse(Pending {
                                        due: now + delay,
                                        seq,
                                        data: buf[..len].to_vec(),
                                    }));
                                    seq += 1;
                                    wakeup.notify_all();
                                }
                            }
                        }
                        wakeup.notify_all();
                    })
                    .expect("spawn emulator recv thread"),
            );
        }

        // Delivery loop: release each admitted datagram at its due time.
        // On stop, anything already due still goes out; not-yet-due
        // datagrams are dropped with the queue.
        {
            let stop = stop.clone();
            let pending = pending.clone();
            let wakeup = wakeup.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("badabing-emu-deliver".into())
                    .spawn(move || loop {
                        let mut heap = pending.lock().expect("pending lock");
                        let now = Instant::now();
                        match heap.peek() {
                            Some(Reverse(p)) if p.due <= now => {
                                let p = heap.pop().expect("peeked").0;
                                drop(heap);
                                let _ = out.send(&p.data);
                            }
                            Some(Reverse(p)) => {
                                if stop.load(Ordering::Relaxed) {
                                    return;
                                }
                                let wait = (p.due - now).min(POLL_INTERVAL);
                                let _ = wakeup.wait_timeout(heap, wait).expect("pending lock");
                            }
                            None => {
                                if stop.load(Ordering::Relaxed) {
                                    return;
                                }
                                let _ = wakeup
                                    .wait_timeout(heap, POLL_INTERVAL)
                                    .expect("pending lock");
                            }
                        }
                    })
                    .expect("spawn emulator delivery thread"),
            );
        }

        // Episode scripting: during an episode window, inject overload
        // every tick so the queue pins at capacity and arrivals drop.
        if cfg.episode_mean_gap_secs.is_finite() {
            let queue = queue.clone();
            let stats = stats.clone();
            let stop = stop.clone();
            let mean_gap = cfg.episode_mean_gap_secs;
            let loss_secs = cfg.episode_loss_secs;
            let burst_factor = cfg.burst_factor;
            let rate_bps = cfg.rate_bps as f64;
            let fill_secs = cfg.buffer_secs() / (burst_factor - 1.0).max(1e-6);
            threads.push(
                std::thread::Builder::new()
                    .name("badabing-emu-episodes".into())
                    .spawn(move || {
                        let gap = Exponential::with_mean(mean_gap);
                        let tick = Duration::from_millis(1);
                        'episodes: loop {
                            let wait = Duration::from_secs_f64(gap.sample(&mut rng));
                            let resume = Instant::now() + wait;
                            while Instant::now() < resume {
                                if stop.load(Ordering::Relaxed) {
                                    break 'episodes;
                                }
                                std::thread::sleep((resume - Instant::now()).min(POLL_INTERVAL));
                            }
                            stats.lock().expect("stats lock").episodes += 1;
                            if let Some(c) = &m_episodes {
                                c.inc();
                            }
                            let end =
                                Instant::now() + Duration::from_secs_f64(fill_secs + loss_secs);
                            // Inject synthetic load based on *elapsed* time,
                            // not the nominal tick: the OS timer floor would
                            // otherwise silently scale the offered load down
                            // and the queue might never reach capacity.
                            let mut last = Instant::now();
                            while Instant::now() < end {
                                if stop.load(Ordering::Relaxed) {
                                    break 'episodes;
                                }
                                let now = Instant::now();
                                let elapsed = now.duration_since(last).as_secs_f64();
                                last = now;
                                queue
                                    .lock()
                                    .expect("queue lock")
                                    .inject(now, burst_factor * rate_bps * elapsed / 8.0);
                                std::thread::sleep(tick);
                            }
                        }
                    })
                    .expect("spawn emulator episode thread"),
            );
        }

        Ok(Self {
            stop,
            stats,
            local_addr,
            wakeup,
            threads,
        })
    }

    /// The address probes should be sent to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> EmulatorStats {
        self.stats.lock().expect("stats lock").clone()
    }

    /// Stop forwarding and scripting.
    pub fn stop(self) -> EmulatorStats {
        self.stop.store(true, Ordering::Relaxed);
        self.wakeup.notify_all();
        for t in self.threads {
            let _ = t.join();
        }
        self.stats.lock().expect("stats lock").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use badabing_stats::rng::seeded;
    use std::net::UdpSocket;

    fn local0() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    #[test]
    fn virtual_queue_admits_and_drains() {
        let t0 = Instant::now();
        let mut q = VirtualQueue {
            depth_bytes: 0.0,
            last_update: t0,
            rate_bps: 8_000_000.0, // 1 MB/s
            capacity_bytes: 10_000.0,
        };
        // Admit 5 KB → drain delay 5 ms.
        let d = q.offer(t0, 5_000.0).expect("admitted");
        assert!((d.as_secs_f64() - 0.005).abs() < 1e-9);
        // Another 6 KB does not fit.
        assert!(q.offer(t0, 6_000.0).is_none());
        // 4 ms later, 4 KB drained: 6 KB fits now.
        let t1 = t0 + Duration::from_millis(4);
        assert!(q.offer(t1, 6_000.0).is_some());
    }

    #[test]
    fn virtual_queue_injection_saturates() {
        let t0 = Instant::now();
        let mut q = VirtualQueue {
            depth_bytes: 0.0,
            last_update: t0,
            rate_bps: 8_000_000.0,
            capacity_bytes: 10_000.0,
        };
        q.inject(t0, 50_000.0);
        assert!(
            (q.depth_bytes - 10_000.0).abs() < 1e-9,
            "clamped at capacity"
        );
        assert!(q.is_full(t0, 1.0));
        assert!(q.offer(t0, 100.0).is_none());
    }

    #[test]
    fn forwards_when_uncongested() {
        let sink = UdpSocket::bind(local0()).unwrap();
        sink.set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        let target = sink.local_addr().unwrap();
        let metrics = Arc::new(Registry::new("emu-test"));
        let cfg = EmulatorConfig {
            episode_mean_gap_secs: f64::INFINITY,
            metrics: Some(metrics.clone()),
            ..EmulatorConfig::loopback_default(local0(), target)
        };
        let emu = Emulator::start(cfg, seeded(1, "emu")).unwrap();
        let sender = UdpSocket::bind(local0()).unwrap();
        for i in 0..20u8 {
            sender.send_to(&[i; 100], emu.local_addr()).unwrap();
        }
        let mut got = 0;
        let mut buf = [0u8; 256];
        while sink.recv(&mut buf).is_ok() {
            got += 1;
            if got == 20 {
                break;
            }
        }
        assert_eq!(got, 20);
        let stats = emu.stop();
        assert_eq!(stats.forwarded, 20);
        assert_eq!(stats.dropped, 0);
        assert_eq!(metrics.counter("forwarded").get(), 20);
    }

    #[test]
    fn per_session_flows_are_attributed() {
        let sink = UdpSocket::bind(local0()).unwrap();
        let target = sink.local_addr().unwrap();
        let cfg = EmulatorConfig {
            episode_mean_gap_secs: f64::INFINITY,
            ..EmulatorConfig::loopback_default(local0(), target)
        };
        let emu = Emulator::start(cfg, seeded(4, "emu")).unwrap();
        let sender = UdpSocket::bind(local0()).unwrap();
        for (session, count) in [(101u32, 5u64), (202, 3)] {
            for i in 0..count {
                let h = ProbeHeader {
                    session,
                    experiment: 0,
                    slot: i,
                    seq: i,
                    send_ns: 0,
                    idx: 0,
                    probe_len: 1,
                };
                sender.send_to(&h.encode(100), emu.local_addr()).unwrap();
            }
        }
        // Non-probe datagrams are forwarded but attributed to no session.
        sender.send_to(b"not-a-probe", emu.local_addr()).unwrap();
        std::thread::sleep(Duration::from_millis(300));
        let stats = emu.stop();
        assert_eq!(stats.forwarded, 9);
        assert_eq!(stats.per_session.len(), 2);
        assert_eq!(stats.per_session[&101].forwarded, 5);
        assert_eq!(stats.per_session[&202].forwarded, 3);
        assert_eq!(stats.per_session[&101].dropped, 0);
    }

    #[test]
    fn small_buffer_drops_bursts() {
        let sink = UdpSocket::bind(local0()).unwrap();
        let target = sink.local_addr().unwrap();
        let cfg = EmulatorConfig {
            rate_bps: 1_000_000, // 125 kB/s
            buffer_bytes: 3_000,
            episode_mean_gap_secs: f64::INFINITY,
            episode_loss_secs: 0.0,
            burst_factor: 2.0,
            bind: local0(),
            target,
            metrics: None,
        };
        let emu = Emulator::start(cfg, seeded(2, "emu")).unwrap();
        let sender = UdpSocket::bind(local0()).unwrap();
        // 20 kB burst into a 3 kB buffer: most must drop.
        for _ in 0..20 {
            sender.send_to(&[0u8; 1000], emu.local_addr()).unwrap();
        }
        std::thread::sleep(Duration::from_millis(300));
        let stats = emu.stop();
        assert!(stats.dropped >= 10, "dropped {}", stats.dropped);
        assert!(stats.forwarded <= 10);
    }

    #[test]
    fn scripted_episodes_fill_the_queue() {
        let sink = UdpSocket::bind(local0()).unwrap();
        let target = sink.local_addr().unwrap();
        let cfg = EmulatorConfig {
            rate_bps: 10_000_000,
            buffer_bytes: 50_000,
            episode_mean_gap_secs: 0.2, // episodes almost immediately
            episode_loss_secs: 0.3,
            burst_factor: 4.0,
            bind: local0(),
            target,
            metrics: None,
        };
        let emu = Emulator::start(cfg, seeded(3, "emu")).unwrap();
        let sender = UdpSocket::bind(local0()).unwrap();
        // Trickle probes through one second of scripted congestion.
        for _ in 0..200 {
            sender.send_to(&[0u8; 200], emu.local_addr()).unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = emu.stop();
        assert!(
            stats.episodes > 0 && stats.dropped > 0,
            "episodes {} drops {}",
            stats.episodes,
            stats.dropped
        );
    }
}
