//! Run-length and episode utilities.
//!
//! The paper's loss characteristics are defined over *episodes*: maximal
//! runs of congested time slots (§3, §5). Both the ground-truth extractor
//! (which sees the router's full state) and the tool-side interpreters
//! (which see probe outcomes) reduce a boolean series to episodes, so the
//! machinery lives here.

/// A maximal run of `true` slots: `[start, end)` in slot indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Episode {
    /// First slot of the episode (inclusive).
    pub start: u64,
    /// One past the last slot of the episode (exclusive).
    pub end: u64,
}

impl Episode {
    /// Number of slots covered by the episode.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the episode covers no slots (never produced by extraction,
    /// but kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// The set of episodes extracted from a boolean slot series, along with the
/// total number of slots it was extracted from.
#[derive(Debug, Clone, Default)]
pub struct EpisodeSet {
    episodes: Vec<Episode>,
    total_slots: u64,
}

impl EpisodeSet {
    /// Extract maximal runs of `true` from a slot series.
    pub fn from_bools(slots: &[bool]) -> Self {
        let mut episodes = Vec::new();
        let mut start: Option<u64> = None;
        for (i, &c) in slots.iter().enumerate() {
            match (c, start) {
                (true, None) => start = Some(i as u64),
                (false, Some(s)) => {
                    episodes.push(Episode {
                        start: s,
                        end: i as u64,
                    });
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            episodes.push(Episode {
                start: s,
                end: slots.len() as u64,
            });
        }
        Self {
            episodes,
            total_slots: slots.len() as u64,
        }
    }

    /// Build directly from episode bounds (must be sorted & non-overlapping).
    ///
    /// # Panics
    /// Panics if the invariants are violated.
    pub fn from_episodes(episodes: Vec<Episode>, total_slots: u64) -> Self {
        let mut prev_end = 0u64;
        for e in &episodes {
            assert!(e.start >= prev_end, "episodes must be sorted and disjoint");
            assert!(e.end > e.start, "episodes must be non-empty");
            assert!(e.end <= total_slots, "episode beyond series end");
            prev_end = e.end;
        }
        Self {
            episodes,
            total_slots,
        }
    }

    /// The extracted episodes, in order.
    pub fn episodes(&self) -> &[Episode] {
        &self.episodes
    }

    /// Number of slots in the underlying series.
    pub fn total_slots(&self) -> u64 {
        self.total_slots
    }

    /// Number of episodes (the paper's `B`).
    pub fn count(&self) -> u64 {
        self.episodes.len() as u64
    }

    /// Total congested slots (the paper's `A = Σ k·j_k`).
    pub fn congested_slots(&self) -> u64 {
        self.episodes.iter().map(Episode::len).sum()
    }

    /// Episode *frequency*: fraction of slots that are congested, `A / N`.
    ///
    /// This is the paper's `F`, the quantity the unbiased estimator
    /// `F̂ = Σ zᵢ / M` targets. Returns 0 for an empty series.
    pub fn frequency(&self) -> f64 {
        if self.total_slots == 0 {
            0.0
        } else {
            self.congested_slots() as f64 / self.total_slots as f64
        }
    }

    /// Mean episode duration in slots, `D = A / B`; 0 when no episodes.
    pub fn mean_duration_slots(&self) -> f64 {
        if self.episodes.is_empty() {
            0.0
        } else {
            self.congested_slots() as f64 / self.episodes.len() as f64
        }
    }

    /// Mean episode duration in seconds for a given slot width.
    pub fn mean_duration_secs(&self, slot_width_secs: f64) -> f64 {
        self.mean_duration_slots() * slot_width_secs
    }

    /// Standard deviation of episode durations in seconds.
    pub fn std_duration_secs(&self, slot_width_secs: f64) -> f64 {
        if self.episodes.len() < 2 {
            return 0.0;
        }
        let mean = self.mean_duration_slots();
        let var = self
            .episodes
            .iter()
            .map(|e| {
                let d = e.len() as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / self.episodes.len() as f64;
        var.sqrt() * slot_width_secs
    }

    /// Merge episodes separated by gaps of at most `max_gap` slots.
    ///
    /// The paper's episode definition (§3) allows "transient periods during
    /// which packet loss ceases" inside one episode; the ground-truth
    /// extractor uses this to bridge sub-RTT lulls between drops.
    pub fn merge_gaps(&self, max_gap: u64) -> Self {
        let mut merged: Vec<Episode> = Vec::with_capacity(self.episodes.len());
        for &e in &self.episodes {
            match merged.last_mut() {
                Some(last) if e.start - last.end <= max_gap => last.end = e.end,
                _ => merged.push(e),
            }
        }
        Self {
            episodes: merged,
            total_slots: self.total_slots,
        }
    }

    /// Drop episodes shorter than `min_len` slots.
    pub fn filter_min_len(&self, min_len: u64) -> Self {
        Self {
            episodes: self
                .episodes
                .iter()
                .copied()
                .filter(|e| e.len() >= min_len)
                .collect(),
            total_slots: self.total_slots,
        }
    }

    /// Whether slot `i` falls inside any episode (binary search).
    pub fn contains_slot(&self, i: u64) -> bool {
        self.episodes
            .binary_search_by(|e| {
                if e.end <= i {
                    std::cmp::Ordering::Less
                } else if e.start > i {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Render back to a boolean slot series.
    pub fn to_bools(&self) -> Vec<bool> {
        let mut v = vec![false; self.total_slots as usize];
        for e in &self.episodes {
            for s in e.start..e.end {
                v[s as usize] = true;
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_simple_runs() {
        let slots = [false, true, true, false, true, false, false, true];
        let es = EpisodeSet::from_bools(&slots);
        assert_eq!(
            es.episodes(),
            &[
                Episode { start: 1, end: 3 },
                Episode { start: 4, end: 5 },
                Episode { start: 7, end: 8 },
            ]
        );
        assert_eq!(es.count(), 3);
        assert_eq!(es.congested_slots(), 4);
        assert!((es.frequency() - 0.5).abs() < 1e-12);
        assert!((es.mean_duration_slots() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn run_reaching_series_end_is_closed() {
        let es = EpisodeSet::from_bools(&[true, true]);
        assert_eq!(es.episodes(), &[Episode { start: 0, end: 2 }]);
    }

    #[test]
    fn empty_and_all_false_series() {
        assert_eq!(EpisodeSet::from_bools(&[]).count(), 0);
        assert_eq!(EpisodeSet::from_bools(&[]).frequency(), 0.0);
        let es = EpisodeSet::from_bools(&[false; 10]);
        assert_eq!(es.count(), 0);
        assert_eq!(es.mean_duration_slots(), 0.0);
    }

    #[test]
    fn merge_gaps_bridges_small_lulls() {
        let slots = [true, false, true, false, false, false, true];
        let es = EpisodeSet::from_bools(&slots).merge_gaps(1);
        assert_eq!(
            es.episodes(),
            &[Episode { start: 0, end: 3 }, Episode { start: 6, end: 7 }]
        );
        let all = EpisodeSet::from_bools(&slots).merge_gaps(3);
        assert_eq!(all.episodes(), &[Episode { start: 0, end: 7 }]);
    }

    #[test]
    fn merge_gaps_zero_only_joins_adjacent() {
        let slots = [true, false, true];
        let es = EpisodeSet::from_bools(&slots).merge_gaps(0);
        assert_eq!(es.count(), 2);
    }

    #[test]
    fn filter_min_len_drops_singletons() {
        let slots = [true, false, true, true, false, true];
        let es = EpisodeSet::from_bools(&slots).filter_min_len(2);
        assert_eq!(es.episodes(), &[Episode { start: 2, end: 4 }]);
    }

    #[test]
    fn contains_slot_agrees_with_bools() {
        let slots = [false, true, true, false, true, false];
        let es = EpisodeSet::from_bools(&slots);
        for (i, &b) in slots.iter().enumerate() {
            assert_eq!(es.contains_slot(i as u64), b, "slot {i}");
        }
        assert!(!es.contains_slot(100));
    }

    #[test]
    fn roundtrip_via_bools() {
        let slots = [
            false, true, true, false, false, true, true, true, false, true,
        ];
        let es = EpisodeSet::from_bools(&slots);
        assert_eq!(es.to_bools(), slots);
    }

    #[test]
    fn std_duration_zero_for_uniform_lengths() {
        let slots = [true, true, false, true, true, false];
        let es = EpisodeSet::from_bools(&slots);
        assert_eq!(es.std_duration_secs(0.005), 0.0);
    }

    #[test]
    #[should_panic(expected = "sorted and disjoint")]
    fn from_episodes_rejects_overlap() {
        let _ = EpisodeSet::from_episodes(
            vec![Episode { start: 0, end: 5 }, Episode { start: 3, end: 6 }],
            10,
        );
    }
}
