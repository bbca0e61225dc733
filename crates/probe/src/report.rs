//! Uniform result rows for the paper's tables.
//!
//! Every table compares a tool's measured loss-episode frequency and
//! duration against the ground truth; [`ToolReport`] is that row, built
//! from any of the three measurement sources.

use crate::zing::ZingReport;
use badabing_core::analysis::Analysis;
use badabing_sim::monitor::GroundTruth;

/// One row of a results table.
#[derive(Debug, Clone)]
pub struct ToolReport {
    /// Row label ("true values", "zing (10Hz)", "badabing p=0.3", ...).
    pub label: String,
    /// Measured (or true) loss-episode frequency.
    pub frequency: Option<f64>,
    /// Measured (or true) mean episode duration in seconds.
    pub duration_mean_secs: Option<f64>,
    /// Standard deviation of episode durations, where the source provides
    /// one (ground truth and ZING measure per-episode durations; the
    /// BADABING estimator targets the mean directly, §5.1).
    pub duration_std_secs: Option<f64>,
}

impl ToolReport {
    /// The "true values" row.
    pub fn from_truth(label: impl Into<String>, gt: &GroundTruth) -> Self {
        Self {
            label: label.into(),
            frequency: Some(gt.frequency()),
            duration_mean_secs: Some(gt.mean_duration_secs()),
            duration_std_secs: Some(gt.std_duration_secs()),
        }
    }

    /// A ZING measurement row.
    pub fn from_zing(label: impl Into<String>, r: &ZingReport) -> Self {
        let measured_any = r.duration.count() > 0;
        Self {
            label: label.into(),
            frequency: Some(r.frequency),
            duration_mean_secs: Some(if measured_any { r.duration.mean() } else { 0.0 }),
            duration_std_secs: Some(if measured_any {
                r.duration.std_dev()
            } else {
                0.0
            }),
        }
    }

    /// A BADABING measurement row.
    pub fn from_badabing(label: impl Into<String>, a: &Analysis) -> Self {
        Self {
            label: label.into(),
            frequency: a.frequency(),
            duration_mean_secs: a.duration_secs(),
            duration_std_secs: None,
        }
    }

    /// Render as a fixed-width table row.
    pub fn fmt_row(&self) -> String {
        fn cell(v: Option<f64>) -> String {
            match v {
                Some(x) => format!("{x:>10.4}"),
                None => format!("{:>10}", "-"),
            }
        }
        format!(
            "{:<24} {} {} {}",
            self.label,
            cell(self.frequency),
            cell(self.duration_mean_secs),
            cell(self.duration_std_secs)
        )
    }

    /// The table header matching [`Self::fmt_row`].
    pub fn header() -> String {
        format!(
            "{:<24} {:>10} {:>10} {:>10}",
            "source", "frequency", "dur mean", "dur std"
        )
    }

    /// CSV rendering (label, frequency, duration mean, duration std).
    /// Missing values use the `nan` sentinel so rows keep a fixed arity.
    pub fn csv_row(&self) -> String {
        fn cell(v: Option<f64>) -> String {
            v.map_or_else(|| "nan".to_string(), |x| format!("{x}"))
        }
        format!(
            "{},{},{},{}",
            self.label,
            cell(self.frequency),
            cell(self.duration_mean_secs),
            cell(self.duration_std_secs)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use badabing_stats::summary::Summary;

    #[test]
    fn zing_row_mirrors_paper_zero_cells() {
        // No consecutive losses ever measured → "0 (0)" like Table 1.
        let r = ZingReport {
            sent: 9000,
            lost: 4,
            frequency: 4.0 / 9000.0,
            episodes: 0,
            duration: Summary::new(),
            delay: Summary::new(),
        };
        let row = ToolReport::from_zing("zing (10Hz)", &r);
        assert_eq!(row.duration_mean_secs, Some(0.0));
        assert_eq!(row.duration_std_secs, Some(0.0));
    }

    #[test]
    fn formatting_handles_missing_cells() {
        let row = ToolReport {
            label: "badabing p=0.1".into(),
            frequency: Some(0.0016),
            duration_mean_secs: None,
            duration_std_secs: None,
        };
        let s = row.fmt_row();
        assert!(s.contains("badabing p=0.1"));
        assert!(s.contains('-'));
        let csv = row.csv_row();
        assert_eq!(csv, "badabing p=0.1,0.0016,nan,nan");
        assert!(ToolReport::header().contains("frequency"));
    }
}
