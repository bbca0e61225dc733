//! Every metric the benchmark reports: its unit, direction and bound,
//! and how it is computed from a run's units.

use crate::acc::{Acc, Checks, Unit};
use crate::{sim, stats};

/// An end-to-end metric, measured with tracing off. Every workload
/// reports every one; what a workload's throughput, operation and step
/// are is documented on its module.
#[derive(Debug, Clone, Copy)]
pub struct E2e {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> E2e {
    E2e {
        name,
        unit,
        higher,
        bound,
    }
}

/// The end-to-end metrics, as `BENCHMARK.json` lists them. The timings'
/// spread over ten seeds reads 0.01–0.29 depending on the host's load
/// that hour, so their bound is the largest the runner allows.
pub const E2E: &[E2e] = &[
    m("setup_s", "s", false, 0.25),
    m("throughput_per_s", "1/s", true, 0.25),
    m("cpu_ns_per_op", "ns", false, 0.25),
    m("step_p50_us", "us", false, 0.25),
    m("step_p90_us", "us", false, 0.25),
    m("peak_rss_mb", "MiB", false, 0.2),
];

/// Everything a run (or one half of a traced run) measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Work time of each unit, seconds.
    pub works: Vec<f64>,
    /// Each unit's value of every metric in [`E2E`], in table order.
    pub per_unit: Vec<Vec<f64>>,
    /// Sums, samples and maxima pooled over the units of a traced run.
    /// An untraced run keeps only each unit's metric values, so what it
    /// holds, and its memory peak, does not grow with the units that fit.
    pub acc: Acc,
    /// Operations and correctness pooled over units.
    pub checks: Checks,
    pooled: bool,
}

impl Run {
    /// An empty run; `pooled` keeps every unit's samples and sums.
    pub fn new(pooled: bool) -> Self {
        Self {
            pooled,
            ..Self::default()
        }
    }

    /// Fold one unit in.
    pub fn absorb(&mut self, u: Unit) {
        self.works.push(u.work_s);
        self.per_unit
            .push(E2E.iter().map(|m| unit_value(m.name, &u)).collect());
        if self.pooled {
            for &s in &u.steps_us {
                self.acc.push("step_us", s);
            }
            self.acc.absorb(u.acc);
        }
        self.checks.absorb(u.checks);
    }

    /// Every unit's value of `m`.
    pub fn unit_values(&self, m: &E2e) -> Vec<f64> {
        let i = E2E
            .iter()
            .position(|e| e.name == m.name)
            .expect("listed metric");
        self.per_unit.iter().map(|v| v[i]).collect()
    }
}

fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Value of end-to-end metric `name` over one unit.
fn unit_value(name: &str, u: &Unit) -> f64 {
    match name {
        "setup_s" => u.setup_s,
        "throughput_per_s" => u.throughput,
        "cpu_ns_per_op" => u.cpu_ns_per_op,
        "step_p50_us" => stats::percentile(&u.steps_us, 50.0).unwrap_or(0.0),
        "step_p90_us" => stats::percentile(&u.steps_us, 90.0).unwrap_or(0.0),
        "peak_rss_mb" => u.peak_rss_bytes as f64 / f64::from(1 << 20),
        other => unreachable!("unknown end-to-end metric {other}"),
    }
}

/// Value of end-to-end metric `m` over a run: its best decile across
/// units (the 10th percentile of a lower-is-better metric, the 90th of
/// a higher-is-better one). On a shared host, other tenants' load comes
/// and goes in stretches of seconds and slows everything on the core by
/// up to half; it only ever makes a unit worse, so the best decile of
/// many short units measures the program where the median would
/// measure the neighbours.
pub fn e2e_value(m: &E2e, r: &Run) -> f64 {
    let pct = if m.higher { 90.0 } else { 10.0 };
    stats::percentile(&r.unit_values(m), pct).unwrap_or(0.0)
}

/// Per-scenario simulator metrics: name suffix, unit, higher is better.
const SIM_LAYER: [(&str, &str, bool); 8] = [
    ("x_realtime", "sim-s/s", true),
    ("ns_per_event", "ns", false),
    ("events", "count", false),
    ("timer_share", "ratio", false),
    ("build_ms", "ms", false),
    ("ground_truth_ms", "ms", false),
    ("analyze_ms", "ms", false),
    ("peak_monitor_bytes", "bytes", false),
];

/// Per-layer metrics that do not depend on the scenario list.
const LAYER: &[(&str, &str, bool)] = &[
    ("batch_io.rx_datagrams_per_syscall", "count", true),
    ("batch_io.tx_ns_per_pkt", "ns", false),
    ("gen.cpu_share", "ratio", false),
    ("receiver.drain_us.p50", "us", false),
    ("receiver.drain_us.p99", "us", false),
    ("receiver.drain_ns_per_pkt", "ns", false),
    ("receiver.cpu_ns_per_pkt.probe", "ns", false),
    ("receiver.cpu_us_per_wakeup", "us", false),
    ("receiver.packets_accepted", "count", true),
    ("receiver.duplicates", "count", false),
    ("receiver.datagrams_rejected", "count", false),
    ("receiver.probes_dropped_over_budget", "count", false),
    ("receiver.handshake_us.p99", "us", false),
    ("receiver.handshake_us.p999", "us", false),
    ("receiver.cpu_us_per_session.control", "us", false),
    ("receiver.fin_us.p50", "us", false),
    ("receiver.fin_ns_per_record", "ns", false),
    ("receiver.report_chunk_us.p50", "us", false),
    ("receiver.estimate_us.p99", "us", false),
    ("receiver.fleet_estimate_ns_per_session", "ns", false),
    ("receiver.mem_peak_bytes", "bytes", false),
    ("receiver.retained_sessions", "count", false),
    ("receiver.rss_bytes_per_session", "bytes", false),
    ("receiver.qdelay_us.p50", "us", false),
    ("receiver.qdelay_us.p99", "us", false),
    ("receiver.kernel_stamp_share", "ratio", true),
    ("control.chunks_per_fetch", "count", false),
    ("control.retries", "count", false),
    ("control.decode_errors", "count", false),
    ("control.foreign_session", "count", false),
    ("sender.lateness_us.p99", "us", false),
    ("sender.lateness_us.p999", "us", false),
    ("sender.cpu_ns_per_probe", "ns", false),
    ("sender.tx_syscalls_per_probe", "count", false),
    ("sender.plan_ms", "ms", false),
    ("analyze.ns_per_probe", "ns", false),
    ("core.from_log_ns_per_outcome", "ns", false),
    ("step.samples", "count", true),
    ("step.tail_pct", "%", true),
    ("step.tail_us", "us", false),
    ("trace.overhead_share", "ratio", false),
    ("probe_pps", "pkts/s", true),
    ("session_setup_p50_us", "us", false),
    ("report_fetch_p50_ms", "ms", false),
    ("estimate_p50_us", "us", false),
    ("fleet_estimate_p50_us", "us", false),
    ("tool_qdelay_p90_us", "us", false),
];

/// Every per-layer metric: name, unit, and whether higher is better.
pub fn layer_metrics() -> Vec<(String, &'static str, bool)> {
    let mut v: Vec<(String, &'static str, bool)> = LAYER
        .iter()
        .map(|&(n, u, h)| (n.to_string(), u, h))
        .collect();
    for s in sim::SCENARIOS {
        for (m, unit, higher) in SIM_LAYER {
            v.push((format!("sim.{}.{m}", s.label()), unit, higher));
        }
    }
    v
}

/// Value of per-layer metric `name`, from the traced half of the run;
/// only `trace.overhead_share` also reads the untraced half.
pub fn layer_value(name: &str, traced: &Run, plain: &Run) -> f64 {
    let a = &traced.acc;
    if let Some(rest) = name.strip_prefix("sim.") {
        let (label, metric) = rest.split_once('.').expect("sim metric has a scenario");
        let k = |m: &str| format!("sim.{label}.{m}");
        return match metric {
            "x_realtime" => a.ratio(&k("sim_secs"), &k("run_for_s")),
            "ns_per_event" => a.ratio(&k("run_for_s"), &k("events")) * 1e9,
            "events" => a.ratio(&k("events"), &k("rounds")),
            "timer_share" => a.ratio(&k("timer_events"), &k("counted_events")),
            "build_ms" | "ground_truth_ms" | "analyze_ms" => a.pct(&k(metric), 50.0),
            "peak_monitor_bytes" => a.maximum(&k(metric)),
            other => unreachable!("unknown sim metric {other}"),
        };
    }
    let steps = a.samples("step_us");
    let tail = stats::supported_tail(steps);
    match name {
        "batch_io.rx_datagrams_per_syscall" => a.ratio("rx_datagrams", "rx_syscalls"),
        "batch_io.tx_ns_per_pkt" => a.ratio("tx_ns", "tx_pkts"),
        "gen.cpu_share" => a.ratio("gen_cpu_ns", "wall_ns"),
        "receiver.drain_us.p50" => a.pct("drain_us", 50.0),
        "receiver.drain_us.p99" => a.pct("drain_us", 99.0),
        "receiver.drain_ns_per_pkt" => a.ratio("drain_excess_ns", "window_pkts"),
        "receiver.cpu_ns_per_pkt.probe" => a.ratio("window_recv_cpu_ns", "window_pkts"),
        "receiver.cpu_us_per_wakeup" => a.ratio("recv_cpu_ns", "rx_syscalls") / 1e3,
        "receiver.packets_accepted" => a.sum("packets_accepted"),
        "receiver.duplicates" => a.sum("duplicates"),
        "receiver.datagrams_rejected" => a.sum("datagrams_rejected"),
        "receiver.probes_dropped_over_budget" => a.sum("over_budget"),
        "receiver.handshake_us.p99" => a.pct("syn_us", 99.0),
        "receiver.handshake_us.p999" => a.pct("syn_us", 99.9),
        "receiver.cpu_us_per_session.control" => {
            per(
                a.sum("recv_cpu_ns") - a.sum("window_recv_cpu_ns"),
                a.sum("sessions"),
            ) / 1e3
        }
        "receiver.fin_us.p50" => a.pct("fin_us", 50.0),
        "receiver.fin_ns_per_record" => a.ratio("fin_ns", "records"),
        "receiver.report_chunk_us.p50" => a.pct("chunk_us", 50.0),
        "receiver.estimate_us.p99" => a.pct("est_us", 99.0),
        "receiver.fleet_estimate_ns_per_session" => a.ratio("fleet_est_ns", "fleet_est_sessions"),
        "receiver.mem_peak_bytes" => a.maximum("mem_peak_bytes"),
        "receiver.retained_sessions" => a.maximum("retained_sessions"),
        "receiver.rss_bytes_per_session" => a.ratio("rss_delta_bytes", "sessions"),
        "receiver.qdelay_us.p50" => a.pct("qdelay_us", 50.0),
        "receiver.qdelay_us.p99" => a.pct("qdelay_us", 99.0),
        "receiver.kernel_stamp_share" => a.ratio("kernel_stamped", "records"),
        "control.chunks_per_fetch" => a.ratio("chunks", "fetches"),
        "control.retries" => a.sum("control_retries"),
        "control.decode_errors" => a.sum("decode_errors"),
        "control.foreign_session" => a.sum("foreign_session"),
        "sender.lateness_us.p99" => a.pct("lateness_us", 99.0),
        "sender.lateness_us.p999" => a.pct("lateness_us", 99.9),
        "sender.cpu_ns_per_probe" => a.ratio("sender_cpu_ns", "probes"),
        "sender.tx_syscalls_per_probe" => a.ratio("tx_syscalls", "probes"),
        "sender.plan_ms" => a.pct("plan_ms", 50.0),
        "analyze.ns_per_probe" => a.ratio("analyze_ns", "probes"),
        "core.from_log_ns_per_outcome" => a.ratio("from_log_ns", "outcomes"),
        "step.samples" => steps.len() as f64,
        "step.tail_pct" => tail.map_or(0.0, |t| t.0),
        "step.tail_us" => tail.map_or(0.0, |t| t.1),
        "trace.overhead_share" => {
            let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
            per(med(&traced.works), med(&plain.works)) - 1.0
        }
        "probe_pps" => per(a.sum("pkts"), traced.works.iter().sum()),
        "session_setup_p50_us" => a.pct("syn_us", 50.0),
        "report_fetch_p50_ms" => a.pct("fetch_ms", 50.0),
        "estimate_p50_us" => a.pct("est_us", 50.0),
        "fleet_estimate_p50_us" => a.pct("fleet_est_us", 50.0),
        "tool_qdelay_p90_us" => a.pct("qdelay_us", 90.0),
        other => unreachable!("unknown per-layer metric {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use badabing_metrics::json::{self, Value};

    /// `BENCHMARK.json` at the repository root must describe exactly
    /// the metrics this binary prints.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let e2e = doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .expect("end_to_end");
        assert_eq!(e2e.len(), E2E.len());
        for (j, m) in e2e.iter().zip(E2E) {
            assert_eq!(j.get("name").and_then(Value::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Value::as_str), Some(m.unit));
            let better = if m.higher { "higher" } else { "lower" };
            assert_eq!(j.get("better").and_then(Value::as_str), Some(better));
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        let layer = doc
            .get("per_layer")
            .and_then(Value::as_arr)
            .expect("per_layer");
        let names: Vec<(String, String, String)> = layer
            .iter()
            .map(|j| {
                let s = |k| j.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect();
        let want: Vec<(String, String, String)> = layer_metrics()
            .into_iter()
            .map(|(n, u, h)| {
                (
                    n,
                    u.to_string(),
                    if h { "higher" } else { "lower" }.to_string(),
                )
            })
            .collect();
        assert_eq!(names, want);
        assert!(want.len() <= 128);
    }

    #[test]
    fn every_metric_has_a_formula() {
        let run = Run::default();
        for m in E2E {
            let _ = e2e_value(m, &run);
        }
        for (name, _, _) in layer_metrics() {
            let _ = layer_value(&name, &run, &run);
        }
    }
}
