//! One-shot experiment runs shared by the table/figure binaries.
//!
//! The table printers fan their per-point simulations out through
//! [`crate::runner`]: one job per `(probe rate, replication)` pair, rows
//! aggregated in submission order so the printed table is bit-identical
//! at any `--threads` value. With `--reps > 1`, cells report
//! mean ± stddev across replications.

use crate::runner::{self, MeanSd};
use crate::scenarios::{self, Scenario, PROBE_FLOW, ZING_FLOW};
use badabing_core::analysis::Analysis;
use badabing_core::config::BadabingConfig;
use badabing_metrics::Registry;
use badabing_probe::badabing::{BadabingHarness, BadabingProber};
use badabing_probe::zing::{attach_zing, zing_report, ZingConfig, ZingReport};
use badabing_sim::monitor::GroundTruth;
use badabing_sim::topology::Dumbbell;
use badabing_stats::rng::seeded;
use std::sync::Arc;

/// Result of one BADABING run against a traffic scenario.
pub struct BadabingRun {
    /// Ground truth over the measurement horizon.
    pub truth: GroundTruth,
    /// The tool's analysis.
    pub analysis: Analysis,
    /// Probe load actually offered, bits/second.
    pub load_bps: f64,
    /// The dumbbell (for further inspection).
    pub db: Dumbbell,
    /// The harness (for re-analysis with different detector parameters).
    pub harness: BadabingHarness,
}

/// Run BADABING with configuration `cfg` for `n_slots` against
/// `scenario`. Deterministic in `seed`.
pub fn run_badabing(
    scenario: Scenario,
    cfg: BadabingConfig,
    n_slots: u64,
    seed: u64,
) -> BadabingRun {
    run_badabing_instrumented(scenario, cfg, n_slots, seed, None)
}

/// [`run_badabing`] with an optional metrics registry attached to the
/// simulation engine. Counters accumulate, so parallel replications may
/// share one registry; instrumentation never changes the simulated run.
pub fn run_badabing_instrumented(
    scenario: Scenario,
    cfg: BadabingConfig,
    n_slots: u64,
    seed: u64,
    metrics: Option<&Arc<Registry>>,
) -> BadabingRun {
    let mut db = Dumbbell::standard();
    if let Some(reg) = metrics {
        db.sim.attach_metrics(reg.clone());
    }
    scenarios::attach(&mut db, scenario, seed);
    let harness = BadabingHarness::attach(&mut db, cfg, n_slots, PROBE_FLOW, seeded(seed, "probe"));
    let horizon = harness.horizon_secs();
    db.run_for(horizon + 1.0);
    let truth = db.ground_truth(horizon);
    let analysis = harness.analyze(&db.sim);
    let sent = db.sim.node::<BadabingProber>(harness.prober).sent();
    let packets: u64 = sent.iter().map(|s| u64::from(s.packets)).sum();
    let load_bps = packets as f64 * f64::from(cfg.packet_bytes) * 8.0 / horizon;
    BadabingRun {
        truth,
        analysis,
        load_bps,
        db,
        harness,
    }
}

/// Result of one ZING run (one simulation, one or more ZING instances).
pub struct ZingRun {
    /// Ground truth over the horizon.
    pub truth: GroundTruth,
    /// One report per attached ZING instance, in `configs` order.
    pub reports: Vec<ZingReport>,
    /// Simulator events dispatched (runner instrumentation).
    pub events: u64,
}

/// Run ZING (optionally two instances at different rates share one run —
/// their combined load is well under 0.05% of the bottleneck).
pub fn run_zing(scenario: Scenario, configs: &[ZingConfig], secs: f64, seed: u64) -> ZingRun {
    run_zing_instrumented(scenario, configs, secs, seed, None)
}

/// [`run_zing`] with an optional metrics registry attached to the
/// simulation engine (see [`run_badabing_instrumented`]).
pub fn run_zing_instrumented(
    scenario: Scenario,
    configs: &[ZingConfig],
    secs: f64,
    seed: u64,
    metrics: Option<&Arc<Registry>>,
) -> ZingRun {
    let mut db = Dumbbell::standard();
    if let Some(reg) = metrics {
        db.sim.attach_metrics(reg.clone());
    }
    scenarios::attach(&mut db, scenario, seed);
    let mut ids = Vec::new();
    for (i, &zcfg) in configs.iter().enumerate() {
        let flow = badabing_sim::packet::FlowId(ZING_FLOW.0 + i as u32);
        ids.push(attach_zing(
            &mut db,
            zcfg,
            flow,
            seeded(seed, &format!("zing{i}")),
        ));
    }
    db.run_for(secs + 1.0);
    let truth = db.ground_truth(secs);
    let reports = ids
        .into_iter()
        .map(|(p, r)| zing_report(&db.sim, p, r))
        .collect();
    ZingRun {
        truth,
        reports,
        events: db.sim.dispatched(),
    }
}

/// Print a ZING-vs-truth table (the Tables 1–3 shape) and mirror it to
/// CSV. Replications run in parallel through the runner; with
/// `--reps > 1` every cell becomes mean ± stddev across replications.
pub fn print_zing_table(
    scenario: Scenario,
    opts: &crate::RunOpts,
    paper_secs: f64,
    quick_secs: f64,
    name: &str,
    title: &str,
) {
    use badabing_probe::report::ToolReport;
    let secs = opts.duration(paper_secs, quick_secs);

    // One job per replication; each runs both ZING instances against a
    // fresh simulation and reduces it to the three table rows.
    struct ZingPoint {
        /// `[row][field]`: rows are (truth, 10 Hz, 20 Hz); fields are
        /// (frequency, duration mean, duration stddev).
        rows: [[Option<f64>; 3]; 3],
        sent: [f64; 2],
        lost: [f64; 2],
    }
    let metrics = Arc::new(Registry::new(name));
    let res = runner::replicate(opts.effective_threads(), opts.seed, opts.reps, |seed| {
        let run = run_zing_instrumented(
            scenario,
            &[ZingConfig::paper_10hz(), ZingConfig::paper_20hz()],
            secs,
            seed,
            Some(&metrics),
        );
        let reports = [
            ToolReport::from_truth("true values", &run.truth),
            ToolReport::from_zing("zing (10Hz, 256B)", &run.reports[0]),
            ToolReport::from_zing("zing (20Hz, 64B)", &run.reports[1]),
        ];
        let rows = reports.map(|r| [r.frequency, r.duration_mean_secs, r.duration_std_secs]);
        let point = ZingPoint {
            rows,
            sent: [run.reports[0].sent as f64, run.reports[1].sent as f64],
            lost: [run.reports[0].lost as f64, run.reports[1].lost as f64],
        };
        (point, run.events)
    });
    let stat_line = res.stat_line();
    let metrics_line = res.write_metrics(&metrics, name);
    let points = res.into_values();

    let labels = ["true values", "zing (10Hz, 256B)", "zing (20Hz, 64B)"];
    let width = if opts.reps > 1 { 17 } else { 10 };
    let mut w = crate::table::TableWriter::new(&opts.out_path(name));
    w.heading(&format!(
        "{title} ({secs:.0}s, {}{})",
        scenario.label(),
        if opts.reps > 1 {
            format!(", {} reps", opts.reps)
        } else {
            String::new()
        }
    ));
    w.row(&format!(
        "{:<24} {:>width$} {:>width$} {:>width$}",
        "source", "frequency", "dur mean", "dur std"
    ));
    if opts.reps > 1 {
        w.csv("source,frequency,frequency_sd,duration_mean_secs,duration_mean_secs_sd,duration_std_secs,duration_std_secs_sd,reps");
    } else {
        w.csv("source,frequency,duration_mean_secs,duration_std_secs");
    }
    for (row, label) in labels.iter().enumerate() {
        let fields: Vec<Option<MeanSd>> = (0..3)
            .map(|f| runner::aggregate(points.iter().map(|pt| pt.rows[row][f])))
            .collect();
        let cell = |m: &Option<MeanSd>| match m {
            Some(m) => m.cell(width, 4),
            None => format!("{:>width$}", "-"),
        };
        let csv_field = |m: &Option<MeanSd>| match m {
            Some(m) => m.csv_mean(),
            None => "nan".to_string(),
        };
        w.row(&format!(
            "{label:<24} {} {} {}",
            cell(&fields[0]),
            cell(&fields[1]),
            cell(&fields[2]),
        ));
        if opts.reps > 1 {
            let csv_sd = |m: &Option<MeanSd>| match m {
                Some(m) => m.csv_sd(),
                None => "nan".to_string(),
            };
            w.csv(&format!(
                "{label},{},{},{},{},{},{},{}",
                csv_field(&fields[0]),
                csv_sd(&fields[0]),
                csv_field(&fields[1]),
                csv_sd(&fields[1]),
                csv_field(&fields[2]),
                csv_sd(&fields[2]),
                opts.reps,
            ));
        } else {
            w.csv(&format!(
                "{label},{},{},{}",
                csv_field(&fields[0]),
                csv_field(&fields[1]),
                csv_field(&fields[2]),
            ));
        }
    }
    let sent0 = runner::aggregate_all(points.iter().map(|pt| pt.sent[0]));
    let sent1 = runner::aggregate_all(points.iter().map(|pt| pt.sent[1]));
    let lost0 = runner::aggregate_all(points.iter().map(|pt| pt.lost[0]));
    let lost1 = runner::aggregate_all(points.iter().map(|pt| pt.lost[1]));
    w.row(&format!(
        "(zing sent {:.0} and {:.0} probes; lost {:.0} and {:.0})",
        sent0.mean, sent1.mean, lost0.mean, lost1.mean
    ));
    println!("{stat_line}");
    println!("{metrics_line}");
    w.finish();
}

/// The probe-rate sweep used by Tables 4, 5 and 6.
pub const P_SWEEP: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

/// Everything one BADABING run contributes to a table row, reduced to
/// plain numbers so jobs can cross threads.
struct BadabingPoint {
    f_true: f64,
    d_true: f64,
    f_est: Option<f64>,
    d_est: Option<f64>,
    d_ci: Option<f64>,
    valid: bool,
    experiments: u64,
}

/// Print a BADABING p-sweep table (the Tables 4–6 shape) and mirror it
/// to CSV. Each `(probe rate, replication)` pair is one runner job — a
/// fresh simulation at that probe rate with the paper's recommended α
/// and τ — and rows aggregate in `P_SWEEP` order regardless of which
/// thread finishes first. With `--reps > 1`, cells are mean ± stddev.
pub fn print_badabing_table(scenario: Scenario, opts: &crate::RunOpts, name: &str, title: &str) {
    let secs = opts.duration(900.0, 120.0);
    let reps = opts.reps.max(1);
    let jobs: Vec<(f64, u64)> = P_SWEEP
        .iter()
        .flat_map(|&p| (0..reps).map(move |r| (p, runner::rep_seed(opts.seed, r))))
        .collect();
    let metrics = Arc::new(Registry::new(name));
    let res = runner::run_jobs(opts.effective_threads(), &jobs, |&(p, seed)| {
        let cfg = BadabingConfig::paper_default(p);
        let n_slots = slots_for(secs, cfg.slot_secs);
        let run = run_badabing_instrumented(scenario, cfg, n_slots, seed, Some(&metrics));
        // §8's data-driven variability estimate for the duration.
        let d_ci =
            badabing_core::uncertainty::duration_interval_slots(&run.analysis.estimates, 1.96)
                .map(|i| i.half_width() * cfg.slot_secs);
        let point = BadabingPoint {
            f_true: run.truth.frequency(),
            d_true: run.truth.mean_duration_secs(),
            f_est: run.analysis.frequency(),
            d_est: run.analysis.duration_secs(),
            d_ci,
            valid: run.analysis.validation.passes(0.5),
            experiments: run.analysis.log.len() as u64,
        };
        let events = run.db.sim.dispatched();
        (point, events)
    });
    let stat_line = res.stat_line();
    let metrics_line = res.write_metrics(&metrics, name);
    let points = res.into_values();

    let width = if reps > 1 { 17 } else { 11 };
    let mut w = crate::table::TableWriter::new(&opts.out_path(name));
    w.heading(&format!(
        "{title} ({secs:.0}s, {}{})",
        scenario.label(),
        if reps > 1 {
            format!(", {reps} reps")
        } else {
            String::new()
        }
    ));
    w.row(&format!(
        "{:>4} {:>width$} {:>width$} {:>width$} {:>width$} {:>9}  {}",
        "p", "true freq", "est freq", "true dur", "est dur", "±95% dur", "validation"
    ));
    if reps > 1 {
        w.csv("p,true_frequency,true_frequency_sd,est_frequency,est_frequency_sd,true_duration_secs,true_duration_secs_sd,est_duration_secs,est_duration_secs_sd,duration_ci_halfwidth_secs,validation_pass_rate,experiments_mean,reps");
    } else {
        w.csv("p,true_frequency,est_frequency,true_duration_secs,est_duration_secs,duration_ci_halfwidth_secs,validation_passes,experiments");
    }
    for (i, &p) in P_SWEEP.iter().enumerate() {
        let group = &points[i * reps as usize..(i + 1) * reps as usize];
        let f_true = runner::aggregate_all(group.iter().map(|pt| pt.f_true));
        let d_true = runner::aggregate_all(group.iter().map(|pt| pt.d_true));
        let f_est = runner::aggregate(group.iter().map(|pt| pt.f_est));
        let d_est = runner::aggregate(group.iter().map(|pt| pt.d_est));
        let d_ci = runner::aggregate(group.iter().map(|pt| pt.d_ci));
        let passes = group.iter().filter(|pt| pt.valid).count();
        let experiments = runner::aggregate_all(group.iter().map(|pt| pt.experiments as f64));
        let opt_cell = |m: &Option<MeanSd>, precision: usize| match m {
            Some(m) => m.cell(width, precision),
            None => format!("{:>width$}", "-"),
        };
        let validation = if reps > 1 {
            if passes == group.len() {
                format!("ok {passes}/{}", group.len())
            } else {
                format!("FLAGGED {}/{}", group.len() - passes, group.len())
            }
        } else if passes == 1 {
            "ok".to_string()
        } else {
            "FLAGGED".to_string()
        };
        w.row(&format!(
            "{:>4.1} {} {} {} {} {}  {}",
            p,
            f_true.cell(width, 4),
            opt_cell(&f_est, 4),
            d_true.cell(width, 3),
            opt_cell(&d_est, 3),
            d_ci.as_ref()
                .map_or_else(|| format!("{:>9}", "-"), |c| format!("{:>9.3}", c.mean)),
            validation,
        ));
        let csv_opt = |m: &Option<MeanSd>| match m {
            Some(m) => m.csv_mean(),
            None => "nan".to_string(),
        };
        if reps > 1 {
            let csv_opt_sd = |m: &Option<MeanSd>| match m {
                Some(m) => m.csv_sd(),
                None => "nan".to_string(),
            };
            w.csv(&format!(
                "{p},{},{},{},{},{},{},{},{},{},{},{},{reps}",
                f_true.csv_mean(),
                f_true.csv_sd(),
                csv_opt(&f_est),
                csv_opt_sd(&f_est),
                d_true.csv_mean(),
                d_true.csv_sd(),
                csv_opt(&d_est),
                csv_opt_sd(&d_est),
                csv_opt(&d_ci),
                passes as f64 / group.len() as f64,
                experiments.csv_mean(),
            ));
        } else {
            w.csv(&format!(
                "{p},{},{},{},{},{},{},{}",
                f_true.csv_mean(),
                csv_opt(&f_est),
                d_true.csv_mean(),
                csv_opt(&d_est),
                csv_opt(&d_ci),
                passes == 1,
                group[0].experiments,
            ));
        }
    }
    println!("{stat_line}");
    println!("{metrics_line}");
    w.finish();
}

/// Convert a duration in seconds to the slot count used throughout
/// (5 ms slots unless the config overrides it).
pub fn slots_for(secs: f64, slot_secs: f64) -> u64 {
    (secs / slot_secs).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_round() {
        assert_eq!(slots_for(900.0, 0.005), 180_000);
        assert_eq!(slots_for(0.012, 0.005), 2);
    }

    #[test]
    fn badabing_run_produces_consistent_pieces() {
        let cfg = BadabingConfig::paper_default(0.5);
        // 60 s: episode gaps are Exp(mean 10 s), so a 30 s run misses all
        // episodes with probability e⁻³ ≈ 5% — long enough to make that
        // corner vanishingly unlikely for any seed stream.
        let run = run_badabing(Scenario::CbrUniform, cfg, 12_000, 7);
        assert!(
            run.truth.frequency() > 0.0,
            "60 s of CBR should include episodes"
        );
        assert!(run.analysis.log.len() > 4_000);
        // Offered load ≈ p/Δ × 2 probes × 3 pkts × 600 B × 8.
        let expect = cfg.offered_load_bps();
        assert!(
            (run.load_bps - expect).abs() / expect < 0.05,
            "load {}",
            run.load_bps
        );
    }

    #[test]
    fn zing_run_reports_both_instances() {
        let run = run_zing(
            Scenario::CbrUniform,
            &[ZingConfig::paper_10hz(), ZingConfig::paper_20hz()],
            60.0,
            7,
        );
        assert!(
            run.truth.frequency() > 0.0,
            "60 s of CBR should include episodes"
        );
        assert_eq!(run.reports.len(), 2);
        assert!(run.reports[0].sent > 400);
        assert!(
            run.reports[1].sent > run.reports[0].sent,
            "20 Hz sends more than 10 Hz"
        );
        assert!(
            run.events > 0,
            "instrumentation should count dispatched events"
        );
    }
}
