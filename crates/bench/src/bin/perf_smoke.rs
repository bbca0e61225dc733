//! The perf-regression gate: a fixed seeded scenario trio with a JSON
//! trajectory point.
//!
//! Runs the TCP, CBR, and web scenarios for a fixed virtual duration on
//! fixed seeds, measures throughput (simulator events per wall second),
//! per-replicate wall time, and peak monitor memory, and writes the
//! digest to `BENCH_sim.json`. CI runs this under a hard timeout and
//! uploads the JSON, so every PR extends a comparable perf trajectory.
//!
//! The gate also measures the memory-scaling claim behind the streaming
//! monitor: one scenario is run at two durations in both monitor modes,
//! and the JSON records how peak monitor bytes grow — O(slots + drops)
//! for streaming vs O(events) for full-trace retention.
//!
//! ```text
//! perf_smoke [--quick] [--seconds S] [--seed N] [--reps N] [--threads N]
//!            [--trace] [--out PATH]
//! ```

use badabing_bench::runner::{aggregate_all, run_jobs};
use badabing_bench::scenarios::{self, Scenario};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

const TRIO: [Scenario; 3] = [Scenario::InfiniteTcp, Scenario::CbrUniform, Scenario::Web];
const PAPER_SECS: f64 = 60.0;
const QUICK_SECS: f64 = 15.0;

struct RepResult {
    wall_secs: f64,
    events: u64,
    peak_monitor_bytes: usize,
    stream_slots: usize,
    drop_points: usize,
}

/// One seeded scenario replicate: build, run, measure.
fn run_one(scenario: Scenario, seed: u64, secs: f64, trace: bool) -> RepResult {
    let mut db = scenarios::build_with(scenario, seed, trace);
    let t0 = Instant::now();
    db.run_for(secs + 1.0);
    let wall_secs = t0.elapsed().as_secs_f64();
    let handle = db.monitor();
    let m = handle.borrow();
    RepResult {
        wall_secs,
        events: db.sim.dispatched(),
        peak_monitor_bytes: m.peak_bytes(),
        stream_slots: m.stream_slots(),
        drop_points: m.drop_points(),
    }
}

fn main() {
    // perf_smoke shares RunOpts' flag set but adds --trace, so it
    // parses by hand (mirroring dump_trace).
    let mut seconds: Option<f64> = None;
    let mut quick = false;
    let mut seed = 20050821u64;
    let mut reps = 3u32;
    let mut threads: Option<usize> = None;
    let mut trace = false;
    let mut out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--trace" => trace = true,
            "--seconds" => seconds = args.next().and_then(|v| v.parse().ok()),
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--reps" => reps = args.next().and_then(|v| v.parse().ok()).unwrap_or(reps),
            "--threads" => threads = args.next().and_then(|v| v.parse().ok()),
            "--out" => out = args.next().map(PathBuf::from),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    let secs = seconds.unwrap_or(if quick { QUICK_SECS } else { PAPER_SECS });
    let threads = threads.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    println!(
        "=== perf_smoke: {} monitor, {secs}s x {reps} reps ===",
        if trace { "trace" } else { "streaming" }
    );

    // Phase 1: throughput trio. Jobs are (scenario, rep) pairs fanned out
    // over the pool; the JSON aggregates per scenario.
    let jobs: Vec<(Scenario, u32)> = TRIO
        .iter()
        .flat_map(|&s| (0..reps.max(1)).map(move |r| (s, r)))
        .collect();
    let pool_t0 = Instant::now();
    let results = run_jobs(threads, &jobs, |&(scenario, rep)| {
        let r = run_one(
            scenario,
            badabing_bench::runner::rep_seed(seed, rep),
            secs,
            trace,
        );
        let events = r.events;
        (r, events)
    });
    let pool_wall = pool_t0.elapsed().as_secs_f64();

    let mut scenario_json = Vec::new();
    let mut total_events = 0u64;
    let mut total_busy = 0.0f64;
    for &scenario in &TRIO {
        let reps_of: Vec<&RepResult> = results
            .outputs
            .iter()
            .zip(&jobs)
            .filter(|(_, (s, _))| *s == scenario)
            .map(|(o, _)| &o.value)
            .collect();
        let wall = aggregate_all(reps_of.iter().map(|r| r.wall_secs));
        let events = reps_of[0].events; // seeded: identical across rep 0..n? no — seeds differ
        let events_mean = aggregate_all(reps_of.iter().map(|r| r.events as f64)).mean;
        let peak = reps_of
            .iter()
            .map(|r| r.peak_monitor_bytes)
            .max()
            .unwrap_or(0);
        let slots = reps_of[0].stream_slots;
        let drops_max = reps_of.iter().map(|r| r.drop_points).max().unwrap_or(0);
        let rate = if wall.mean > 0.0 {
            events_mean / wall.mean
        } else {
            0.0
        };
        total_events += reps_of.iter().map(|r| r.events).sum::<u64>();
        total_busy += reps_of.iter().map(|r| r.wall_secs).sum::<f64>();
        println!(
            "{:>13}: {:>9.0} events/s, wall {:.3}±{:.3}s per rep, peak monitor {} KiB, {} slots, {} drop points",
            scenario.label(),
            rate,
            wall.mean,
            wall.sd,
            peak / 1024,
            slots,
            drops_max,
        );
        scenario_json.push(format!(
            concat!(
                "    {{\"scenario\": \"{}\", \"events_first_rep\": {}, \"events_mean\": {:.0}, ",
                "\"wall_secs_mean\": {:.6}, \"wall_secs_sd\": {:.6}, \"events_per_sec\": {:.0}, ",
                "\"peak_monitor_bytes\": {}, \"stream_slots\": {}, \"drop_points_max\": {}}}"
            ),
            scenario.label(),
            events,
            events_mean,
            wall.mean,
            wall.sd,
            rate,
            peak,
            slots,
            drops_max,
        ));
    }

    // Phase 2: memory scaling. One scenario, two durations, both monitor
    // modes — the measured form of "streaming memory is O(slots + drops),
    // trace memory is O(events)".
    let scaling_scenario = Scenario::CbrUniform;
    let (short_secs, long_secs) = (secs, secs * 2.0);
    let scaling_jobs: Vec<(f64, bool)> = vec![
        (short_secs, false),
        (long_secs, false),
        (short_secs, true),
        (long_secs, true),
    ];
    let scaling = run_jobs(threads, &scaling_jobs, |&(dur, trace_mode)| {
        let r = run_one(scaling_scenario, seed, dur, trace_mode);
        let events = r.events;
        (r, events)
    })
    .into_values();
    let mut scaling_json = Vec::new();
    for ((dur, trace_mode), r) in scaling_jobs.iter().zip(&scaling) {
        println!(
            "scaling {:>9} {:>5.0}s: peak monitor {:>9} KiB ({} events)",
            if *trace_mode { "trace" } else { "streaming" },
            dur,
            r.peak_monitor_bytes / 1024,
            r.events,
        );
        scaling_json.push(format!(
            concat!(
                "    {{\"mode\": \"{}\", \"seconds\": {}, \"peak_monitor_bytes\": {}, ",
                "\"events\": {}, \"stream_slots\": {}, \"drop_points\": {}}}"
            ),
            if *trace_mode { "trace" } else { "streaming" },
            dur,
            r.peak_monitor_bytes,
            r.events,
            r.stream_slots,
            r.drop_points,
        ));
    }

    let total_rate = if total_busy > 0.0 {
        total_events as f64 / total_busy
    } else {
        0.0
    };
    println!(
        "[perf_smoke: {total_events} events, {total_busy:.2}s busy on {} threads, {:.0} events/s, {pool_wall:.2}s wall]",
        results.threads, total_rate,
    );

    let path = out.unwrap_or_else(|| PathBuf::from("BENCH_sim.json"));
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"name\": \"perf_smoke\",\n",
            "  \"seed\": {},\n",
            "  \"trace_mode\": {},\n",
            "  \"seconds\": {},\n",
            "  \"reps\": {},\n",
            "  \"threads\": {},\n",
            "  \"scenarios\": [\n{}\n  ],\n",
            "  \"memory_scaling\": [\n{}\n  ],\n",
            "  \"totals\": {{\"events\": {}, \"busy_secs\": {:.3}, ",
            "\"events_per_sec\": {:.0}, \"pool_wall_secs\": {:.3}}}\n",
            "}}\n"
        ),
        seed,
        trace,
        secs,
        reps,
        results.threads,
        scenario_json.join(",\n"),
        scaling_json.join(",\n"),
        total_events,
        total_busy,
        total_rate,
        pool_wall,
    );
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
