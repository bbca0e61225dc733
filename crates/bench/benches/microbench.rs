//! Criterion microbenchmarks for the hot paths.
//!
//! The experiment binaries under `src/bin/` regenerate the paper's tables
//! and figures; these benches track the cost of the machinery itself:
//! estimator reduction, detector marking, ground-truth extraction, the
//! event engine, the experiment scheduler, and the wire codec.

use badabing_bench::scenarios::{self, Scenario};
use badabing_core::detector::{CongestionDetector, ProbeObservation};
use badabing_core::estimator::Estimates;
use badabing_core::outcome::{ExperimentLog, Outcome};
use badabing_core::schedule::ExperimentScheduler;
use badabing_core::validate::Validation;
use badabing_sim::event::EventQueue;
use badabing_sim::monitor::{Monitor, TraceEvent};
use badabing_sim::topology::Dumbbell;
use badabing_sim::{Event, FlowId, NodeId, Packet, PacketKind, SimTime};
use badabing_stats::rng::seeded;
use badabing_stats::runs::EpisodeSet;
use badabing_wire::ProbeHeader;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rand::RngExt;
use std::hint::black_box;

fn synthetic_log(n: usize) -> ExperimentLog {
    let mut rng = seeded(1, "bench-log");
    let mut log = ExperimentLog::new(n as u64 * 4, 0.005);
    for i in 0..n {
        let congested = rng.random::<f64>() < 0.01;
        let o = if i % 2 == 0 {
            Outcome::basic(i as u64, i as u64 * 3, congested, congested)
        } else {
            Outcome::extended(i as u64, i as u64 * 3, congested, congested, false)
        };
        log.push(o);
    }
    log
}

fn synthetic_observations(n: usize) -> Vec<ProbeObservation> {
    let mut rng = seeded(2, "bench-obs");
    (0..n)
        .map(|i| {
            let lost = rng.random::<f64>() < 0.01;
            ProbeObservation {
                experiment: i as u64 / 2,
                slot: i as u64,
                send_time_secs: i as f64 * 0.005,
                packets_sent: 3,
                packets_lost: u8::from(lost),
                owd_last_secs: Some(0.05 + rng.random::<f64>() * 0.1),
                owd_max_secs: Some(0.05 + rng.random::<f64>() * 0.1),
            }
        })
        .collect()
}

fn bench_estimator(c: &mut Criterion) {
    let log = synthetic_log(100_000);
    let mut g = c.benchmark_group("estimator");
    g.throughput(Throughput::Elements(log.len() as u64));
    g.bench_function("estimates_from_log_100k", |b| {
        b.iter(|| Estimates::from_log(black_box(&log)))
    });
    g.bench_function("validation_from_log_100k", |b| {
        b.iter(|| Validation::from_log(black_box(&log)))
    });
    g.finish();
}

fn bench_detector(c: &mut Criterion) {
    let obs = synthetic_observations(100_000);
    let det = CongestionDetector::with_params(0.1, 0.08, 5);
    let mut g = c.benchmark_group("detector");
    g.throughput(Throughput::Elements(obs.len() as u64));
    g.bench_function("mark_100k_probes", |b| b.iter(|| det.mark(black_box(&obs))));
    g.bench_function("assemble_100k_probes", |b| {
        b.iter(|| det.assemble(black_box(&obs), 400_000, 0.005))
    });
    g.finish();
}

fn bench_episode_extraction(c: &mut Criterion) {
    let mut rng = seeded(3, "bench-episodes");
    let slots: Vec<bool> = (0..1_000_000).map(|_| rng.random::<f64>() < 0.01).collect();
    let mut g = c.benchmark_group("ground_truth");
    g.throughput(Throughput::Elements(slots.len() as u64));
    g.bench_function("episode_set_from_1m_slots", |b| {
        b.iter(|| EpisodeSet::from_bools(black_box(&slots)))
    });
    g.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler");
    g.throughput(Throughput::Elements(180_000));
    g.bench_function("plan_180k_slots_p03", |b| {
        b.iter_batched(
            || ExperimentScheduler::new(0.3, true, seeded(4, "bench-sched")),
            |mut s| s.take_run(black_box(180_000)),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_engine(c: &mut Criterion) {
    // 10 virtual seconds of the CBR scenario end to end — event loop,
    // queue, monitor.
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.bench_function("cbr_scenario_10s_calendar", |b| {
        b.iter(|| {
            let mut db = Dumbbell::standard();
            scenarios::attach(&mut db, Scenario::CbrUniform, 5);
            db.run_for(10.0);
            black_box(db.monitor().borrow().drops())
        })
    });
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    // The mixed push/pop workload the dispatch loop actually generates:
    // hold ~WORKING_SET pending events (the TCP scenarios run at three
    // to four thousand), each pop scheduling a successor drawn from the
    // simulator's delay mix — mostly sub-100 µs serialization and
    // propagation gaps, a broad band of RTT-scale acks and timers, and
    // rare second-scale timers.
    const WORKING_SET: usize = 4_096;
    const OPS: usize = 100_000;
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(OPS as u64));
    g.bench_function("mixed_100k_calendar", |b| {
        b.iter_batched(
            || {
                let mut q = EventQueue::new();
                let mut rng = seeded(7, "bench-eventq");
                for i in 0..WORKING_SET {
                    let at = SimTime::from_nanos(rng.random::<u64>() % 2_000_000);
                    q.push(at, NodeId(i % 16), Event::Timer(i as u64));
                }
                (q, rng)
            },
            |(mut q, mut rng)| {
                for i in 0..OPS {
                    let (now, _, _) = q.pop().expect("queue never drains");
                    let r = rng.random::<u64>();
                    let delay = if i % 64 == 0 {
                        2_000_000_000 + r % 1_000_000_000
                    } else if i % 8 < 5 {
                        r % 100_000
                    } else {
                        1_000_000 + r % 59_000_000
                    };
                    q.push(
                        SimTime::from_nanos(now.as_nanos() + delay),
                        NodeId(i % 16),
                        Event::Timer(i as u64),
                    );
                }
                black_box(q.len())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_monitor(c: &mut Criterion) {
    // Pure monitor record cost: streaming fold vs full-trace retention.
    const EVENTS: usize = 100_000;
    let mut g = c.benchmark_group("monitor");
    g.throughput(Throughput::Elements(EVENTS as u64));
    let pkt = Packet {
        id: 1,
        flow: FlowId(1),
        size: 1500,
        created: SimTime::ZERO,
        kind: PacketKind::Udp { seq: 0 },
    };
    for (label, trace) in [
        ("record_100k_streaming", false),
        ("record_100k_trace", true),
    ] {
        g.bench_function(label, |b| {
            b.iter_batched(
                || {
                    if trace {
                        Monitor::with_trace()
                    } else {
                        Monitor::default()
                    }
                },
                |mut m| {
                    for i in 0..EVENTS {
                        let t = SimTime::from_nanos(i as u64 * 40_000);
                        let qd = 0.02 + (i % 100) as f64 * 0.0005;
                        let ev = match i % 50 {
                            49 => TraceEvent::Drop,
                            n if n % 2 == 0 => TraceEvent::Enqueue,
                            _ => TraceEvent::Depart,
                        };
                        m.record(t, ev, &pkt, qd);
                    }
                    black_box(m.peak_bytes())
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_wire(c: &mut Criterion) {
    let h = ProbeHeader {
        session: 1,
        experiment: 42,
        slot: 77,
        seq: 1000,
        send_ns: 123_456_789,
        idx: 1,
        probe_len: 3,
    };
    let encoded = h.encode(600);
    let mut g = c.benchmark_group("wire");
    g.throughput(Throughput::Elements(1));
    g.bench_function("encode_600b", |b| b.iter(|| black_box(&h).encode(600)));
    g.bench_function("decode_600b", |b| {
        b.iter(|| ProbeHeader::decode(black_box(&encoded)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_estimator,
    bench_detector,
    bench_episode_extraction,
    bench_scheduler,
    bench_engine,
    bench_event_queue,
    bench_monitor,
    bench_wire
);
criterion_main!(benches);
