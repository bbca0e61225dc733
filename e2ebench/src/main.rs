//! `e2e`: one end-to-end benchmark for the live BADABING tool and the
//! simulator.
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1 [--out PATH] [--trace-out PATH]
//! e2e compare PARENT_DIR CHANGE_DIR
//! e2e summary RUNS_DIR
//! e2e sim-digest FIRST_SEED COUNT
//! ```
//!
//! A run repeats its workload's fixed unit of work until `--seconds`
//! would be exceeded, each unit against a fresh receiver, and measures
//! each unit's own memory peak. Neither what the receiver retains per
//! finished session (it keeps every outcome until stopped) nor what the
//! harness keeps (only each unit's metric values, in an untraced run)
//! grows with how many units a faster build fits in.
//! Live traffic runs over the loopback interface only. The program
//! sees only inputs the benchmark generates from `--seed`, checks every
//! output it can against the generator's truth, prints each metric as
//! `name value unit`, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer ones with `--trace 1`. The
//! exit code is 1 when any check fails.
//!
//! With `--trace 1` the first half of the time runs untraced, the second
//! half traced (spans around every call into the tool, the receiver's
//! counters on, and two idempotent extra probes: an idle heartbeat
//! before each window and a FIN before each report fetch). Per-layer
//! numbers come from the traced half; `trace.overhead_share` compares
//! the two halves.

mod acc;
mod compare;
mod fleet;
mod flood;
mod live;
mod metrics;
mod paced;
mod procfs;
mod sim;
mod stats;
mod trace;

use acc::Unit;
use badabing_metrics::json::Value;
use metrics::Run;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

type UnitFn = fn(u64, &mut Tracer) -> Unit;

/// The workloads by name; each module says why its workload exists.
const WORKLOADS: [(&str, UnitFn); 4] = [
    ("probe-flood", flood::unit),
    ("fleet-churn", fleet::unit),
    ("paced-session", paced::unit),
    ("sim-tables", sim::unit),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

const USAGE: &str = "usage: e2e --workload NAME --seed N --seconds S --trace 0|1 [--out PATH] [--trace-out PATH]\n       e2e compare PARENT_DIR CHANGE_DIR\n       e2e summary RUNS_DIR\n       e2e sim-digest FIRST_SEED COUNT";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        out: None,
        trace_out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--out" => a.out = Some(value()?),
            "--trace-out" => a.trace_out = Some(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.iter().any(|(w, _)| *w == a.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(a)
}

/// Run units until starting another would overrun `until` seconds
/// since `t0` (always at least one). A traced run pools every unit's
/// samples; an untraced one keeps only each unit's metric values.
fn run_units(
    unit: UnitFn,
    a: &Args,
    next: &mut u64,
    tr: &mut Tracer,
    t0: Instant,
    until: f64,
) -> Run {
    let mut run = Run::new(tr.is_on());
    loop {
        let started = t0.elapsed().as_secs_f64();
        run.absorb(unit(a.seed + *next, tr));
        *next += 1;
        let took = t0.elapsed().as_secs_f64() - started;
        if t0.elapsed().as_secs_f64() + took > until {
            return run;
        }
    }
}

fn num(x: f64) -> Value {
    Value::Num(x)
}

fn metric_obj(pairs: &[(String, f64, &str)]) -> Value {
    Value::Obj(
        pairs
            .iter()
            .map(|(n, v, u)| {
                (
                    n.clone(),
                    Value::obj(vec![("value", num(*v)), ("unit", Value::Str((*u).into()))]),
                )
            })
            .collect(),
    )
}

/// Sample counts and supported tails of every timing a traced run
/// pooled.
fn timings(run: &Run) -> Value {
    let tail = |v: &[f64]| {
        let (pct, value) = stats::supported_tail(v).unwrap_or((0.0, 0.0));
        Value::obj(vec![
            ("samples", num(v.len() as f64)),
            ("p50", num(stats::percentile(v, 50.0).unwrap_or(0.0))),
            ("tail_pct", num(pct)),
            ("tail", num(value)),
        ])
    };
    Value::Obj(
        [
            "step_us",
            "syn_us",
            "est_us",
            "fleet_est_us",
            "fetch_ms",
            "lateness_us",
            "qdelay_us",
        ]
        .into_iter()
        .filter(|key| !run.acc.samples(key).is_empty())
        .map(|key| (key.to_string(), tail(run.acc.samples(key))))
        .collect(),
    )
}

/// Every unit's value of each end-to-end metric.
fn per_unit(run: &Run) -> Value {
    Value::Obj(
        metrics::E2E
            .iter()
            .map(|m| {
                let v = run.unit_values(m).into_iter().map(num).collect();
                (m.name.to_string(), Value::Arr(v))
            })
            .collect(),
    )
}

fn host() -> Value {
    let caps = badabing_live::kernel_offload_caps();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Value::obj(vec![
        ("nproc", num(nproc as f64)),
        ("kernel", Value::Str(procfs::kernel_release())),
        (
            "offload_caps",
            Value::obj(vec![
                ("udp_segment", Value::Bool(caps.udp_segment)),
                ("udp_gro", Value::Bool(caps.udp_gro)),
                ("so_timestamping", Value::Bool(caps.so_timestamping)),
                ("so_reuseport", Value::Bool(caps.so_reuseport)),
            ]),
        ),
    ])
}

fn compact(v: &Value) -> String {
    v.to_pretty()
        .lines()
        .map(str::trim)
        .collect::<Vec<_>>()
        .join(" ")
}

fn write(path: &str, v: &Value) -> Result<(), String> {
    std::fs::write(path, v.to_pretty()).map_err(|e| format!("cannot write {path}: {e}"))
}

fn bench(a: &Args) -> Result<bool, String> {
    let unit = WORKLOADS
        .iter()
        .find(|(w, _)| *w == a.workload)
        .map(|(_, f)| *f)
        .expect("validated workload");
    let t0 = Instant::now();
    let mut next = 0u64;
    let plain_until = if a.trace { a.seconds / 2.0 } else { a.seconds };
    let plain = run_units(unit, a, &mut next, &mut Tracer::off(), t0, plain_until);
    let mut tracer = if a.trace { Tracer::on() } else { Tracer::off() };
    let traced = a
        .trace
        .then(|| run_units(unit, a, &mut next, &mut tracer, t0, a.seconds));

    let e2e: Vec<(String, f64, &str)> = metrics::E2E
        .iter()
        .map(|m| (m.name.to_string(), metrics::e2e_value(m, &plain), m.unit))
        .collect();
    let layer: Vec<(String, f64, &str)> = match &traced {
        Some(t) => metrics::layer_metrics()
            .into_iter()
            .map(|(n, u, _)| {
                let v = metrics::layer_value(&n, t, &plain);
                (n, v, u)
            })
            .collect(),
        None => Vec::new(),
    };
    let mut checks = plain.checks.clone();
    if let Some(t) = &traced {
        checks.absorb(t.checks.clone());
    }
    let correct = checks.errors.is_empty();
    for e in checks.errors.iter().take(20) {
        eprintln!("check failed: {e}");
    }

    let shown = if a.trace { &layer } else { &e2e };
    for (n, v, u) in shown {
        println!("{n} {v} {u}");
    }
    if let Some(path) = &a.out {
        let mut doc = vec![
            ("workload", Value::Str(a.workload.clone())),
            ("seed", num(a.seed as f64)),
            ("seconds", num(a.seconds)),
            ("trace", Value::Bool(a.trace)),
            ("traffic", Value::Str("loopback".into())),
            ("host", host()),
            ("units", num(plain.works.len() as f64)),
            ("per_unit", per_unit(&plain)),
            ("end_to_end", metric_obj(&e2e)),
        ];
        if let Some(t) = &traced {
            doc.push(("traced_units", num(t.works.len() as f64)));
            doc.push(("per_layer", metric_obj(&layer)));
            doc.push(("timings", timings(t)));
            doc.push(("spans", tracer.summary()));
        }
        doc.push(("correct", Value::Bool(correct)));
        doc.push(("attempted", num(checks.attempted as f64)));
        doc.push(("failed", num(checks.failed as f64)));
        doc.push((
            "errors",
            Value::Arr(
                checks
                    .errors
                    .iter()
                    .take(20)
                    .map(|e| Value::Str(e.clone()))
                    .collect(),
            ),
        ));
        write(path, &Value::obj(doc))?;
    }
    if let Some(path) = &a.trace_out {
        write(path, &Value::obj(vec![("spans", tracer.spans_json())]))?;
    }

    let result = Value::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", num(checks.attempted.max(1) as f64)),
        ("failed", num(checks.failed as f64)),
        ("metrics", metric_obj(shown)),
    ]);
    println!("{}", compact(&result));
    Ok(correct)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let outcome = match argv.peek().map(String::as_str) {
        Some("compare") => {
            let dirs: Vec<String> = argv.skip(1).collect();
            match dirs.as_slice() {
                [p, c] => compare::compare(Path::new(p), Path::new(c)).map(|regressed| !regressed),
                _ => Err(USAGE.into()),
            }
        }
        Some("summary") => match argv.nth(1) {
            Some(dir) => compare::summary(Path::new(&dir)).map(|v| {
                print!("{}", v.to_pretty());
                true
            }),
            None => Err(USAGE.into()),
        },
        Some("sim-digest") => {
            let nums: Vec<u64> = argv.skip(1).filter_map(|s| s.parse().ok()).collect();
            match nums.as_slice() {
                [first, count] => {
                    print!("{}", sim::digest_json(*first, *count).to_pretty());
                    Ok(true)
                }
                _ => Err(USAGE.into()),
            }
        }
        _ => parse(argv).and_then(|a| bench(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
