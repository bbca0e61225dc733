//! The BADABING probe process and estimators (§5–§6 of the paper).
//!
//! This crate is the paper's primary contribution, implemented so that the
//! same code drives both the simulator-based experiments and the live
//! (std UDP sockets) tool:
//!
//! * [`config::BadabingConfig`] — slot width Δ, experiment probability `p`,
//!   probe size `N`, and the loss-detection thresholds α and τ, with the
//!   paper's recommended parameter rules;
//! * [`schedule::ExperimentScheduler`] — the probe process: at each slot,
//!   independently with probability `p`, start a *basic experiment* (probes
//!   in slots `i, i+1`); in improved mode, half the experiments are
//!   *extended* (slots `i, i+1, i+2`) to estimate the reporting-fidelity
//!   ratio `r = p₂/p₁`;
//! * [`detector::CongestionDetector`] — §6.1's marking rule: a probe
//!   indicates congestion if any of its packets was lost, or if it lies
//!   within τ seconds of a loss indication and its one-way delay exceeds
//!   `(1-α) · OWDmax`;
//! * [`outcome::ExperimentLog`] — the collected `yᵢ` records;
//! * [`estimator::Estimates`] — the frequency estimator `F̂ = Σzᵢ/M` and
//!   the duration estimators `D̂ = 2(R/S - 1) + 1` (basic) and
//!   `D̂ = (2V/U)(R/S - 1) + 1` (improved);
//! * [`validate::Validation`] — §5.4's self-calibration checks: the
//!   `01`/`10` balance, equal-rate checks for the extended patterns, and
//!   the forbidden `010`/`101` counts;
//! * [`analysis`] — the post-run join of the sender's [`SentProbe`] log
//!   with the receiver's [`ProbeArrival`] records ([`analysis::observe`]),
//!   reduced through the detector, estimators and checks to one
//!   [`Analysis`], for the simulator and the live tool alike;
//! * [`validate::duration_stddev_model`] — §7's accuracy model
//!   `StdDev(D̂) ≈ 1/√(pNL)` used to choose `p` and `N`.
//!
//! # Example: the estimation pipeline on hand-made records
//!
//! ```
//! use badabing_core::estimator::Estimates;
//! use badabing_core::outcome::{ExperimentLog, Outcome};
//!
//! // A run of 1000 slots of 5 ms; four experiments observed:
//! let mut log = ExperimentLog::new(1_000, 0.005);
//! log.push(Outcome::basic(0, 100, false, false)); // no congestion
//! log.push(Outcome::basic(1, 400, false, true));  // episode begins
//! log.push(Outcome::basic(2, 402, true, true));   // ongoing
//! log.push(Outcome::basic(3, 405, true, false));  // episode ends
//!
//! let est = Estimates::from_log(&log);
//! // F̂ = Σ zᵢ / M = 2/4.
//! assert_eq!(est.frequency(), Some(0.5));
//! // R = #{01,10,11} = 3, S = #{01,10} = 2 → D̂ = 2(3/2 − 1) + 1 = 2 slots.
//! assert_eq!(est.duration_slots_basic(), Some(2.0));
//! assert_eq!(est.duration_secs_basic(), Some(0.010));
//! ```

pub mod adaptive;
pub mod analysis;
pub mod config;
pub mod detector;
pub mod estimator;
pub mod outcome;
pub mod schedule;
pub mod streaming;
pub mod uncertainty;
pub mod validate;

pub use adaptive::{AdaptiveConfig, AdaptiveController, Verdict};
pub use analysis::{Analysis, ProbeArrival, SentProbe};
pub use config::BadabingConfig;
pub use detector::{CongestionDetector, ProbeObservation};
pub use estimator::Estimates;
pub use outcome::{ExperimentLog, Outcome};
pub use schedule::{Experiment, ExperimentScheduler};
pub use streaming::StreamingEstimator;
pub use validate::Validation;
