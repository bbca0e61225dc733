//! Tool configuration and the paper's parameter-selection rules.

/// Configuration of a BADABING measurement run.
#[derive(Debug, Clone, Copy)]
pub struct BadabingConfig {
    /// Slot width Δ in seconds. The paper's experiments use 5 ms; the only
    /// requirement is that Δ is finer than the congestion dynamics of
    /// interest (§7).
    pub slot_secs: f64,
    /// Probability of starting an experiment at each slot (the paper's
    /// `p`). Probe load scales linearly with `p`.
    pub p: f64,
    /// Packets per probe. §6.1 shows multi-packet probes report loss
    /// episodes much more reliably; the paper settles on 3.
    pub probe_packets: u8,
    /// Probe packet size in bytes. The paper uses 600 (chosen so probes
    /// stress the router buffers like full-size frames).
    pub packet_bytes: u32,
    /// Gap between back-to-back packets within a probe, seconds. The
    /// testbed hosts managed ~30 µs.
    pub intra_probe_gap_secs: f64,
    /// Delay threshold fraction α: a probe within τ of a loss indication
    /// is marked congested if its one-way delay exceeds `(1-α)·OWDmax`.
    pub alpha: f64,
    /// Time window τ (seconds) around loss indications within which
    /// high-delay probes are marked congested.
    pub tau_secs: f64,
    /// Whether to run the improved algorithm (§5.3): half the experiments
    /// are extended to three probes to estimate `r = p₂/p₁`.
    pub improved: bool,
    /// How many recent OWDmax estimates to average when computing the
    /// delay threshold (§6.1 keeps "a number of estimates", which filters
    /// host-side outliers).
    pub owd_window: usize,
}

impl BadabingConfig {
    /// The paper's defaults for a given `p`: 5 ms slots, 3×600-byte
    /// probes, τ from [`recommended_tau`] and α from [`recommended_alpha`].
    pub fn paper_default(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0,1], got {p}");
        let slot_secs = 0.005;
        Self {
            slot_secs,
            p,
            probe_packets: 3,
            packet_bytes: 600,
            intra_probe_gap_secs: 30e-6,
            alpha: recommended_alpha(p),
            tau_secs: recommended_tau(p, slot_secs),
            improved: false,
            owd_window: 5,
        }
    }

    /// Enable the improved (three-probe) algorithm.
    pub fn with_improved(mut self) -> Self {
        self.improved = true;
        self
    }

    /// Expected probe-traffic rate in bits per second: each experiment
    /// sends 2 probes (2.5 in improved mode) of `probe_packets` packets.
    pub fn offered_load_bps(&self) -> f64 {
        let probes_per_experiment = if self.improved { 2.5 } else { 2.0 };
        let experiments_per_sec = self.p / self.slot_secs;
        experiments_per_sec
            * probes_per_experiment
            * f64::from(self.probe_packets)
            * f64::from(self.packet_bytes)
            * 8.0
    }

    /// Convert a slot count to seconds.
    pub fn slots_to_secs(&self, slots: f64) -> f64 {
        slots * self.slot_secs
    }

    /// The slot containing time `t` (seconds from run start).
    pub fn slot_of(&self, t_secs: f64) -> u64 {
        (t_secs / self.slot_secs).max(0.0) as u64
    }

    /// Start time of a slot in seconds.
    pub fn slot_start_secs(&self, slot: u64) -> f64 {
        slot as f64 * self.slot_secs
    }
}

/// The paper's τ rule (§6.2): "we set τ to the expected time between
/// probes plus one standard deviation". Experiment starts are geometric
/// with parameter `p`, so the gap has mean `1/p` and standard deviation
/// `√(1-p)/p` slots.
pub fn recommended_tau(p: f64, slot_secs: f64) -> f64 {
    assert!(p > 0.0 && p <= 1.0, "p must be in (0,1], got {p}");
    let mean = 1.0 / p;
    let sd = (1.0 - p).sqrt() / p;
    (mean + sd) * slot_secs
}

/// The paper's α choices (§6.2): "For α, we used 0.2 for a probe rate of
/// 0.1, 0.1 for probe rates of 0.3 and 0.5, and 0.5 for probe rates of 0.7
/// and 0.9." Values of `p` between those anchors take the nearest anchor.
pub fn recommended_alpha(p: f64) -> f64 {
    if p < 0.2 {
        0.2
    } else if p < 0.6 {
        0.1
    } else {
        0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tau_rule_matches_geometric_moments() {
        // p=0.1, Δ=5ms: mean gap 10 slots = 50 ms, sd = √0.9/0.1 ≈ 9.49
        // slots ≈ 47.4 ms → τ ≈ 97.4 ms.
        let tau = recommended_tau(0.1, 0.005);
        assert!((tau - 0.0974).abs() < 0.0005, "tau {tau}");
        // p=1: every slot probed, sd 0 → τ = 5 ms.
        assert!((recommended_tau(1.0, 0.005) - 0.005).abs() < 1e-12);
    }

    #[test]
    fn alpha_anchors_match_paper() {
        assert_eq!(recommended_alpha(0.1), 0.2);
        assert_eq!(recommended_alpha(0.3), 0.1);
        assert_eq!(recommended_alpha(0.5), 0.1);
        assert_eq!(recommended_alpha(0.7), 0.5);
        assert_eq!(recommended_alpha(0.9), 0.5);
    }

    #[test]
    fn offered_load_accounts_for_two_probes_per_experiment() {
        // §5.2 dispatches *two* probes per experiment: at p=0.3 and 5 ms
        // slots that is 60 experiments/s × 2 probes × 3 packets × 600 B
        // = 1.728 Mb/s. (The paper's §6.3 quotes 876 kb/s for p=0.3 —
        // exactly one 3-packet probe per selected slot — so its published
        // load accounting halves ours; Table 8 comparisons in this repo
        // match ZING's rate to the *measured* BADABING load instead.)
        let cfg = BadabingConfig::paper_default(0.3);
        let load = cfg.offered_load_bps();
        assert!((load - 1_728_000.0).abs() < 1e-6, "load {load}");
    }

    #[test]
    fn improved_mode_costs_25_percent_more() {
        let basic = BadabingConfig::paper_default(0.3);
        let improved = basic.with_improved();
        assert!((improved.offered_load_bps() / basic.offered_load_bps() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn slot_conversions() {
        let cfg = BadabingConfig::paper_default(0.5);
        assert_eq!(cfg.slot_of(0.0), 0);
        assert_eq!(cfg.slot_of(0.0125), 2);
        assert_eq!(cfg.slot_start_secs(2), 0.01);
        assert!((cfg.slots_to_secs(3.0) - 0.015).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "p must be in (0,1]")]
    fn rejects_zero_p() {
        let _ = BadabingConfig::paper_default(0.0);
    }
}
