//! `sim-tables`: the paper-reproduction path. The three cross-traffic
//! scenarios of the paper's tables on the simulated dumbbell, each probed
//! by BADABING for the paper's 300 simulated seconds and analyzed, one
//! after another. It bypasses the live tool entirely, so a live-layer
//! change must predict no change here.
//!
//! Throughput is simulated seconds per wall second of `run_for`
//! (`sim_x_realtime`), an operation is one dispatched simulator event,
//! so `cpu_ns_per_op` is the simulating thread's CPU per event, the step
//! is advancing one scenario by one simulated second, and set-up is
//! building and attaching the three scenarios.

use crate::acc::{Meter, Unit};
use crate::procfs;
use crate::trace::{SpanId, Tracer};
use badabing_bench::scenarios::{self, Scenario, PROBE_FLOW};
use badabing_core::config::BadabingConfig;
use badabing_core::estimator::Estimates;
use badabing_metrics::json::{self, Value};
use badabing_metrics::Registry;
use badabing_probe::badabing::BadabingHarness;
use badabing_sim::topology::Dumbbell;
use badabing_stats::rng::seeded;
use std::sync::Arc;
use std::time::Instant;

/// The scenarios of the paper's tables this workload runs, in order.
pub const SCENARIOS: [Scenario; 3] = [Scenario::InfiniteTcp, Scenario::CbrUniform, Scenario::Web];
/// Simulated seconds of probing per scenario, as in the paper.
pub const SIM_SECS: f64 = 300.0;
/// Seeds with a committed digest. A unit given seed `s` simulates seed
/// `1 + s % DIGEST_SEEDS`, so every unit is checked against one.
pub const DIGEST_SEEDS: u64 = 64;

/// The committed digests, seeds 1 to [`DIGEST_SEEDS`].
const DIGESTS: &str = include_str!("../baseline/sim_digest.json");

/// What must repeat exactly for a `(scenario, seed)`: events
/// dispatched, F̂ and D̂.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Digest {
    /// Simulator events dispatched.
    pub events: u64,
    /// Estimated loss-episode frequency.
    pub f_hat: Option<f64>,
    /// Estimated mean loss-episode duration, seconds.
    pub d_hat: Option<f64>,
}

impl Digest {
    fn to_value(self) -> Value {
        let opt = |v: Option<f64>| v.map_or(Value::Null, Value::Num);
        Value::obj(vec![
            ("events", Value::Num(self.events as f64)),
            ("f_hat", opt(self.f_hat)),
            ("d_hat", opt(self.d_hat)),
        ])
    }

    fn from_value(v: &Value) -> Option<Self> {
        Some(Self {
            events: v.get("events")?.as_u64()?,
            f_hat: v.get("f_hat")?.as_f64(),
            d_hat: v.get("d_hat")?.as_f64(),
        })
    }
}

/// The committed digest for `(label, seed)`, if there is one.
fn committed(label: &str, seed: u64) -> Option<Digest> {
    let all = json::parse(DIGESTS).expect("committed sim digest is valid JSON");
    Digest::from_value(all.get(label)?.get(&seed.to_string())?)
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Build, run and analyze every scenario for `seed`, one after another,
/// and return their digests.
fn simulate(seed: u64, tr: &mut Tracer, u: &mut Unit) -> Vec<(&'static str, Digest)> {
    let traced = tr.is_on();
    let cfg = BadabingConfig::paper_default(0.3);
    let n_slots = (SIM_SECS / cfg.slot_secs).round() as u64;
    let unit_span = tr.begin("unit", SpanId::NONE, 0);
    let mut digests = Vec::with_capacity(SCENARIOS.len());
    for (k, &scenario) in SCENARIOS.iter().enumerate() {
        let label = scenario.label();
        let key = |m: &str| format!("sim.{label}.{m}");
        let k = k as u32;

        let t = Instant::now();
        let s = tr.begin("build", unit_span, k);
        let mut db = Dumbbell::standard();
        scenarios::attach(&mut db, scenario, seed);
        let harness = BadabingHarness::attach(
            &mut db,
            cfg,
            n_slots,
            PROBE_FLOW,
            seeded(seed, "e2e-badabing"),
        );
        let metrics = traced.then(|| Arc::new(Registry::new(label)));
        if let Some(m) = &metrics {
            db.sim.attach_metrics(m.clone());
        }
        tr.end(s);
        u.setup_s += t.elapsed().as_secs_f64();
        u.acc.push(&key("build_ms"), ms(t));

        let end = harness.horizon_secs() + 1.0;
        let cpu0 = procfs::thread_cpu_ns();
        let mut run_for_s = 0.0;
        let mut to = 0.0f64;
        while to < end {
            to = (to + 1.0).min(end);
            let t = Instant::now();
            let s = tr.begin("run_for", unit_span, k);
            db.run_for(to);
            tr.end(s);
            let step_s = t.elapsed().as_secs_f64();
            run_for_s += step_s;
            u.steps_us.push(step_s * 1e6);
        }
        let events = db.sim.dispatched();
        u.acc
            .add("run_for_cpu_ns", (procfs::thread_cpu_ns() - cpu0) as f64);
        u.acc.add("events", events as f64);
        u.acc.add("sim_secs", end);
        u.acc.add("run_for_s", run_for_s);
        u.acc.add(&key("sim_secs"), end);
        u.acc.add(&key("run_for_s"), run_for_s);
        u.acc.add(&key("events"), events as f64);
        u.acc.add(&key("rounds"), 1.0);

        let t = Instant::now();
        let s = tr.begin("ground_truth", unit_span, k);
        let truth = db.ground_truth(harness.horizon_secs());
        tr.end(s);
        std::hint::black_box(truth.frequency());
        u.acc.push(&key("ground_truth_ms"), ms(t));
        let t = Instant::now();
        let s = tr.begin("analyze", unit_span, k);
        let a = harness.analyze(&db.sim);
        tr.end(s);
        u.acc.push(&key("analyze_ms"), ms(t));
        let t = Instant::now();
        let reference = Estimates::from_log(&a.log);
        u.acc.add("from_log_ns", t.elapsed().as_nanos() as f64);
        u.acc.add("outcomes", a.log.len() as f64);
        u.checks.op_ok(&format!("{label} scenario"), true);
        u.checks.expect(reference == a.estimates, || {
            format!("{label} seed {seed}: from_log(log) differs from the analysis estimates")
        });
        u.acc.max(
            &key("peak_monitor_bytes"),
            db.monitor().borrow().peak_bytes() as f64,
        );
        if let Some(m) = &metrics {
            let timers = m.counter("events_timer").get();
            u.acc.add(&key("timer_events"), timers as f64);
            u.acc.add(
                &key("counted_events"),
                (timers + m.counter("events_deliver").get()) as f64,
            );
        }
        digests.push((
            label,
            Digest {
                events,
                f_hat: a.frequency(),
                d_hat: a.duration_secs(),
            },
        ));
    }
    tr.end(unit_span);
    digests
}

/// One unit: one round over [`SCENARIOS`].
pub fn unit(seed: u64, tr: &mut Tracer) -> Unit {
    let seed = 1 + seed % DIGEST_SEEDS;
    let mut u = Unit::default();
    let meter = Meter::start();
    for (label, got) in simulate(seed, tr, &mut u) {
        let want = committed(label, seed);
        u.checks.expect(want == Some(got), || {
            format!("{label} seed {seed}: digest {got:?}, committed {want:?}")
        });
    }
    meter.finish(&mut u);
    u.throughput = u.acc.ratio("sim_secs", "run_for_s");
    u.cpu_ns_per_op = u.acc.ratio("run_for_cpu_ns", "events");
    u
}

/// Digests for `count` seeds from `first`, as the committed JSON.
pub fn digest_json(first: u64, count: u64) -> Value {
    let mut by_label: Vec<(String, Vec<(String, Value)>)> = SCENARIOS
        .iter()
        .map(|s| (s.label().to_string(), Vec::new()))
        .collect();
    for seed in first..first + count {
        for (label, d) in simulate(seed, &mut Tracer::off(), &mut Unit::default()) {
            let slot = by_label
                .iter_mut()
                .find(|(l, _)| l == label)
                .expect("known label");
            slot.1.push((seed.to_string(), d.to_value()));
        }
    }
    Value::Obj(
        by_label
            .into_iter()
            .map(|(l, v)| (l, Value::Obj(v)))
            .collect(),
    )
}
