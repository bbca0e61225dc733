//! Experiment outcome records — the paper's `yᵢ`.
//!
//! Each experiment yields a 2- or 3-digit binary record: digit `k` is 1 if
//! the probe sent in slot `start + k` reported congestion. The log of all
//! records is the sole input to the estimators and validation checks, and
//! is shared verbatim between the simulator-driven and live tools.

/// The outcome of one experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Experiment id (matches [`crate::schedule::Experiment::id`]).
    pub id: u64,
    /// First probed slot.
    pub start_slot: u64,
    /// Number of probes (2 or 3).
    pub probes: u8,
    /// Congestion states, one per probe; only the first `probes` entries
    /// are meaningful.
    pub states: [bool; 3],
}

impl Outcome {
    /// Build a basic (two-probe) outcome.
    pub fn basic(id: u64, start_slot: u64, a: bool, b: bool) -> Self {
        Self {
            id,
            start_slot,
            probes: 2,
            states: [a, b, false],
        }
    }

    /// Build an extended (three-probe) outcome.
    pub fn extended(id: u64, start_slot: u64, a: bool, b: bool, c: bool) -> Self {
        Self {
            id,
            start_slot,
            probes: 3,
            states: [a, b, c],
        }
    }

    /// The meaningful states.
    pub fn digits(&self) -> &[bool] {
        &self.states[..usize::from(self.probes)]
    }

    /// The first digit — the paper's `zᵢ`, used by the frequency
    /// estimator.
    pub fn z(&self) -> bool {
        self.states[0]
    }

    /// The record as a small binary number (e.g. `0b01` = congestion only
    /// in the second slot), for compact pattern matching.
    pub fn pattern(&self) -> u8 {
        self.digits()
            .iter()
            .fold(0u8, |acc, &b| (acc << 1) | u8::from(b))
    }
}

/// A collected run of outcomes plus the run geometry.
#[derive(Debug, Clone, Default)]
pub struct ExperimentLog {
    outcomes: Vec<Outcome>,
    /// Total slots in the full experiment (the paper's `N`).
    n_slots: u64,
    /// Slot width in seconds.
    slot_secs: f64,
}

impl ExperimentLog {
    /// An empty log for a run of `n_slots` slots of `slot_secs` each.
    pub fn new(n_slots: u64, slot_secs: f64) -> Self {
        Self {
            outcomes: Vec::new(),
            n_slots,
            slot_secs,
        }
    }

    /// Append one outcome.
    pub fn push(&mut self, outcome: Outcome) {
        self.outcomes.push(outcome);
    }

    /// All outcomes in arrival order.
    pub fn outcomes(&self) -> &[Outcome] {
        &self.outcomes
    }

    /// Number of experiments (the paper's `M`).
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Total slots in the run (`N`).
    pub fn n_slots(&self) -> u64 {
        self.n_slots
    }

    /// Slot width in seconds.
    pub fn slot_secs(&self) -> f64 {
        self.slot_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_encoding() {
        assert_eq!(Outcome::basic(0, 0, false, false).pattern(), 0b00);
        assert_eq!(Outcome::basic(0, 0, false, true).pattern(), 0b01);
        assert_eq!(Outcome::basic(0, 0, true, false).pattern(), 0b10);
        assert_eq!(Outcome::basic(0, 0, true, true).pattern(), 0b11);
        assert_eq!(Outcome::extended(0, 0, false, true, true).pattern(), 0b011);
        assert_eq!(Outcome::extended(0, 0, true, false, true).pattern(), 0b101);
    }

    #[test]
    fn z_is_first_digit() {
        assert!(!Outcome::basic(0, 0, false, true).z());
        assert!(Outcome::extended(0, 0, true, false, false).z());
    }

    #[test]
    fn digits_respects_probe_count() {
        let b = Outcome::basic(0, 0, true, true);
        assert_eq!(b.digits().len(), 2);
        let e = Outcome::extended(0, 0, true, true, true);
        assert_eq!(e.digits().len(), 3);
    }

    #[test]
    fn log_accumulates() {
        let mut log = ExperimentLog::new(1000, 0.005);
        assert!(log.is_empty());
        log.push(Outcome::basic(0, 5, false, false));
        log.push(Outcome::basic(1, 17, true, true));
        assert_eq!(log.len(), 2);
        assert_eq!(log.n_slots(), 1000);
        assert_eq!(log.slot_secs(), 0.005);
        assert_eq!(log.outcomes()[1].start_slot, 17);
    }
}
