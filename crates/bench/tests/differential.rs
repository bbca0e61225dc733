//! Differential determinism tests.
//!
//! **Monitor modes**: a seeded run observed by a streaming monitor and
//! the same run observed by a full-trace monitor must produce the exact
//! same `GroundTruth` (episodes, congested slots, qdelay series, loss
//! rate). Exact `f64` equality, not tolerance: both paths perform the
//! same comparison/min sequence, so any drift is a bug.
//!
//! In debug builds every run here also checks the event engine: the
//! calendar queue asserts its dispatch order against a heap oracle on
//! every operation (see `badabing_sim::event`).

use badabing_bench::scenarios::{self, Scenario};
use badabing_sim::{GroundTruth, GroundTruthConfig};

/// Run `scenario` for `secs` and return (ground truth via the requested
/// monitor mode, events dispatched).
fn run(scenario: Scenario, seed: u64, secs: f64, trace: bool) -> (GroundTruth, u64) {
    let mut db = scenarios::build_with(scenario, seed, trace);
    db.run_for(secs + 1.0);
    (db.ground_truth(secs), db.sim.dispatched())
}

fn assert_truth_eq(a: &GroundTruth, b: &GroundTruth, what: &str) {
    assert_eq!(a.episodes, b.episodes, "{what}: episodes differ");
    assert_eq!(
        a.congested.episodes(),
        b.congested.episodes(),
        "{what}: congested slots differ"
    );
    assert_eq!(
        a.qdelay.values(),
        b.qdelay.values(),
        "{what}: qdelay series differ"
    );
    assert_eq!(
        a.router_loss_rate, b.router_loss_rate,
        "{what}: loss rate differs"
    );
}

#[test]
fn streaming_and_trace_monitors_agree_on_seeded_scenarios() {
    for scenario in [Scenario::CbrUniform, Scenario::InfiniteTcp, Scenario::Web] {
        let (streamed, ev_s) = run(scenario, 20050821, 20.0, false);
        let (traced, ev_t) = run(scenario, 20050821, 20.0, true);
        assert_eq!(ev_s, ev_t, "{}: event counts differ", scenario.label());
        assert_truth_eq(&traced, &streamed, scenario.label());
        assert!(
            !streamed.episodes.is_empty(),
            "{}: want a run with loss for a meaningful comparison",
            scenario.label()
        );
    }
}

#[test]
fn trace_monitor_agrees_at_every_horizon() {
    // The streaming fold reconstructs ground truth for ANY horizon ≤ now,
    // not just the one it would have been configured for.
    let mut db = scenarios::build_with(Scenario::CbrUniform, 7, true);
    db.run_for(21.0);
    let handle = db.monitor();
    let m = handle.borrow();
    let cfg = GroundTruthConfig {
        queue_capacity_secs: db.config().buffer_secs,
        ..Default::default()
    };
    for horizon in [0.5, 5.0, 12.25, 20.0] {
        let traced = GroundTruth::from_trace(&m, horizon, cfg);
        let streamed = m.ground_truth(horizon, cfg);
        assert_truth_eq(&traced, &streamed, &format!("horizon {horizon}"));
    }
}
