//! Uniform-slot time series.
//!
//! The probe process discretizes time into fixed-width slots (§5.1: the slot
//! width need only be finer than the congestion dynamics of interest;
//! BADABING uses 5 ms). [`SlotSeries`] accumulates per-slot values — queue
//! delay maxima, drop counts, congestion indicators — from events stamped in
//! continuous time.

/// A fixed-width-slot series of `f64` values over `[0, n_slots * width)`.
///
/// Values are combined per slot with *max* by default (appropriate for
/// "worst queueing delay seen during the slot") or with explicit adders.
#[derive(Debug, Clone)]
pub struct SlotSeries {
    width_secs: f64,
    values: Vec<f64>,
}

impl SlotSeries {
    /// Create a series of `n_slots` slots of `width_secs` seconds each,
    /// initialized to zero.
    ///
    /// # Panics
    /// Panics unless `width_secs > 0`.
    pub fn new(n_slots: usize, width_secs: f64) -> Self {
        assert!(width_secs > 0.0, "slot width must be positive");
        Self {
            width_secs,
            values: vec![0.0; n_slots],
        }
    }

    /// Wrap an already-computed per-slot vector (e.g. a streaming fold
    /// that maintained slot maxima online) as a series.
    ///
    /// # Panics
    /// Panics unless `width_secs > 0`.
    pub fn from_values(width_secs: f64, values: Vec<f64>) -> Self {
        assert!(width_secs > 0.0, "slot width must be positive");
        Self { width_secs, values }
    }

    /// Slot width in seconds.
    pub fn width_secs(&self) -> f64 {
        self.width_secs
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series has no slots.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The slot index containing time `t` (seconds), or `None` if out of
    /// range.
    pub fn slot_of(&self, t: f64) -> Option<usize> {
        if t < 0.0 {
            return None;
        }
        let i = (t / self.width_secs) as usize;
        if i < self.values.len() {
            Some(i)
        } else {
            None
        }
    }

    /// Start time of slot `i` in seconds.
    pub fn slot_start(&self, i: usize) -> f64 {
        i as f64 * self.width_secs
    }

    /// Record `v` at time `t`, keeping the per-slot maximum. Out-of-range
    /// times are ignored (events after the observation window).
    pub fn record_max(&mut self, t: f64, v: f64) {
        if let Some(i) = self.slot_of(t) {
            if v > self.values[i] {
                self.values[i] = v;
            }
        }
    }

    /// Add `v` into the slot containing `t` (for per-slot counts).
    pub fn record_add(&mut self, t: f64, v: f64) {
        if let Some(i) = self.slot_of(t) {
            self.values[i] += v;
        }
    }

    /// Raw per-slot values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Threshold into a boolean congestion-indicator series.
    pub fn above(&self, threshold: f64) -> Vec<bool> {
        self.values.iter().map(|&v| v > threshold).collect()
    }

    /// Downsample by taking the max of each group of `factor` slots —
    /// used when printing long queue-length series as compact figures.
    ///
    /// # Panics
    /// Panics if `factor` is zero.
    pub fn downsample_max(&self, factor: usize) -> SlotSeries {
        assert!(factor > 0, "factor must be positive");
        let values: Vec<f64> = self
            .values
            .chunks(factor)
            .map(|c| c.iter().copied().fold(f64::NEG_INFINITY, f64::max))
            .collect();
        SlotSeries {
            width_secs: self.width_secs * factor as f64,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_mapping_is_half_open() {
        let s = SlotSeries::new(10, 0.005);
        assert_eq!(s.slot_of(0.0), Some(0));
        assert_eq!(s.slot_of(0.0049999), Some(0));
        assert_eq!(s.slot_of(0.005), Some(1));
        assert_eq!(s.slot_of(0.0499), Some(9));
        assert_eq!(s.slot_of(0.05), None);
        assert_eq!(s.slot_of(-0.001), None);
    }

    #[test]
    fn record_max_keeps_largest() {
        let mut s = SlotSeries::new(2, 1.0);
        s.record_max(0.5, 3.0);
        s.record_max(0.7, 1.0);
        s.record_max(1.2, 2.0);
        assert_eq!(s.values(), &[3.0, 2.0]);
    }

    #[test]
    fn record_add_accumulates() {
        let mut s = SlotSeries::new(2, 1.0);
        s.record_add(0.1, 1.0);
        s.record_add(0.9, 1.0);
        s.record_add(1.5, 4.0);
        assert_eq!(s.values(), &[2.0, 4.0]);
    }

    #[test]
    fn out_of_range_records_are_ignored() {
        let mut s = SlotSeries::new(2, 1.0);
        s.record_max(5.0, 9.0);
        s.record_add(-1.0, 9.0);
        assert_eq!(s.values(), &[0.0, 0.0]);
    }

    #[test]
    fn threshold_to_bools() {
        let mut s = SlotSeries::new(3, 1.0);
        s.record_max(0.0, 0.5);
        s.record_max(1.0, 1.5);
        assert_eq!(s.above(1.0), vec![false, true, false]);
    }

    #[test]
    fn downsample_takes_group_max() {
        let mut s = SlotSeries::new(5, 1.0);
        for (i, v) in [1.0, 5.0, 2.0, 0.0, 7.0].into_iter().enumerate() {
            s.record_max(i as f64 + 0.5, v);
        }
        let d = s.downsample_max(2);
        assert_eq!(d.values(), &[5.0, 2.0, 7.0]);
        assert_eq!(d.width_secs(), 2.0);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn slot_start_times() {
        let s = SlotSeries::new(4, 0.25);
        assert_eq!(s.slot_start(0), 0.0);
        assert_eq!(s.slot_start(3), 0.75);
    }
}
