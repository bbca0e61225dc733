//! Join a sender manifest with a receiver log and report loss-episode
//! estimates — the analysis stage of the live tool.
//!
//! ```text
//! badabing_report --manifest manifest.json --log receiver.json
//! ```

use badabing_live::analyze::analyze_run;
use badabing_live::cli::Flags;
use badabing_live::persist::ManifestFile;
use badabing_live::receiver::ReceiverLog;
use std::path::PathBuf;

const USAGE: &str = "badabing_report --manifest PATH --log PATH";

fn main() -> std::io::Result<()> {
    let flags = Flags::parse(USAGE, &[]);
    let manifest_path: PathBuf = PathBuf::from(flags.opt_str("manifest", "manifest.json"));
    let log_path: PathBuf = PathBuf::from(flags.opt_str("log", "receiver.json"));

    let ManifestFile { tool, manifest } = ManifestFile::load(&manifest_path)?;
    let log = ReceiverLog::load(&log_path)?;

    let a = analyze_run(&tool, &manifest, &log);
    println!(
        "run: {} slots of {} ms at p = {}",
        manifest.n_slots,
        tool.slot_secs * 1000.0,
        tool.p
    );
    println!(
        "probes: {} sent, {} packets lost, {} experiments assembled ({} incomplete)",
        manifest.sent.len(),
        a.packets_lost,
        a.log.len(),
        a.detector.incomplete_experiments
    );
    println!(
        "receiver: {} packets accepted, {} rejected, {} duplicates discarded",
        log.packets, log.rejected, log.duplicates
    );
    println!("\nloss-episode frequency:     {}", fmt_opt(a.frequency()));
    println!("mean episode duration (s):  {}", fmt_opt(a.duration_secs()));
    println!(
        "derived end-to-end loss rate: {}",
        fmt_opt(
            a.frequency()
                .zip(a.detector.loss_intensity())
                .map(|(f, i)| f * i)
        )
    );
    println!(
        "\nvalidation: {}",
        if a.validation.passes(0.25) {
            "PASS"
        } else {
            "FLAGGED — treat estimates as unreliable"
        }
    );
    println!(
        "  01/10 balance: {} vs {} (discrepancy {:.2})",
        a.validation.n01,
        a.validation.n10,
        a.validation.boundary_discrepancy()
    );
    println!(
        "  forbidden 010/101 patterns: {}",
        a.validation.violations()
    );
    Ok(())
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "- (no data)".to_string(), |x| format!("{x:.5}"))
}
