//! `e2e compare PARENT_DIR CHANGE_DIR`: the paired comparison a change
//! that claims a gain must pass.
//!
//! Each directory holds untraced run files (`--out`), found at any
//! depth. Runs of one workload pair up in file-name order, so name them
//! so that pair `i` of the parent and pair `i` of the change ran back to
//! back, alternating which side ran first.
//!
//! Per workload, failed operations first: each side's failed share is
//! its failed operations over those attempted, summed over all its runs,
//! with every run that failed its correctness checks counted as one more
//! failed operation. Any rise is a **regression**, and voids every gain
//! on that workload.
//!
//! Then per metric:
//! * **gain** — at least 10 pairs, the change wins ≥ 9/10 of them, and
//!   the medians differ by more than the parent's interquartile range;
//! * **regression** — the change's median is worse than the parent's by
//!   more than the metric's bound;
//! * **unresolved** — the parent's spread is wider than the bound, so a
//!   regression that size could not be seen, unless every change run
//!   beats every parent run (**better**);
//! * otherwise **no worse**.

use crate::metrics::{self, E2e};
use crate::stats;
use badabing_metrics::json::{self, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Minimum pairs before a gain may be claimed.
pub const MIN_PAIRS: usize = 10;

/// The verdict for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the paired rule.
    Gain,
    /// Better on every run, although the spread exceeds the bound.
    Better,
    /// Within the bound.
    NoWorse,
    /// Spread wider than the bound: no conclusion.
    Unresolved,
    /// Worse by more than the bound.
    Regression,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "GAIN",
            Verdict::Better => "better",
            Verdict::NoWorse => "no worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// Judge one metric from the paired runs of both sides. No gain counts
/// when the change failed more operations than the parent.
pub fn judge(m: &E2e, parent: &[f64], change: &[f64], more_failures: bool) -> Verdict {
    let (Some(mp), Some(mc)) = (stats::median(parent), stats::median(change)) else {
        return Verdict::Unresolved;
    };
    let pairs = parent.len().min(change.len());
    if !more_failures
        && pairs >= MIN_PAIRS
        && stats::is_gain(&parent[..pairs], &change[..pairs], m.higher)
    {
        return Verdict::Gain;
    }
    let worse_by = if m.higher { mp - mc } else { mc - mp };
    let spread = stats::iqr(parent).unwrap_or(f64::INFINITY);
    if mp == 0.0 || spread / mp.abs() > m.bound {
        let all_better = change
            .iter()
            .all(|&c| parent.iter().all(|&p| if m.higher { c > p } else { c < p }));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > m.bound * mp.abs() {
        Verdict::Regression
    } else {
        Verdict::NoWorse
    }
}

/// Failed and attempted operations summed over `runs`; a run that failed
/// its correctness checks adds one failed operation.
fn failures(runs: &[Value]) -> (u64, u64) {
    runs.iter().fold((0, 0), |(failed, attempted), r| {
        let n = |k| r.get(k).and_then(Value::as_u64).unwrap_or(0);
        let wrong = u64::from(r.get("correct").and_then(Value::as_bool) != Some(true));
        (failed + n("failed") + wrong, attempted + n("attempted"))
    })
}

fn share((failed, attempted): (u64, u64)) -> f64 {
    failed as f64 / attempted.max(1) as f64
}

/// Whether the change failed a larger share of its operations than the
/// parent: any rise counts.
pub fn more_failures(parent: &[Value], change: &[Value]) -> bool {
    share(failures(change)) > share(failures(parent))
}

fn run_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            run_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "json") {
            out.push(path);
        }
    }
    Ok(())
}

/// Untraced run files under `dir`, by workload, in file-name order.
fn load(dir: &Path) -> Result<BTreeMap<String, Vec<Value>>, String> {
    let mut files = Vec::new();
    run_files(dir, &mut files).map_err(|e| format!("{}: {e}", dir.display()))?;
    files.sort();
    let mut by_workload: BTreeMap<String, Vec<Value>> = BTreeMap::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let Ok(doc) = json::parse(&text) else {
            continue;
        };
        let Some(w) = doc.get("workload").and_then(Value::as_str) else {
            continue;
        };
        if doc.get("end_to_end").is_none()
            || doc.get("trace").and_then(Value::as_bool) == Some(true)
        {
            continue;
        }
        by_workload.entry(w.to_string()).or_default().push(doc);
    }
    Ok(by_workload)
}

fn values(runs: &[Value], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("end_to_end")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Compare and print one row per workload. Returns whether failed
/// operations or any metric regressed.
pub fn compare(parent_dir: &Path, change_dir: &Path) -> Result<bool, String> {
    let parent = load(parent_dir)?;
    let change = load(change_dir)?;
    let mut regressed = false;
    for (workload, p_runs) in &parent {
        let Some(c_runs) = change.get(workload) else {
            println!("{workload}: no change runs");
            continue;
        };
        // Failures count over every run; metrics only over the pairs.
        let worse = more_failures(p_runs, c_runs);
        regressed |= worse;
        let (pf, cf) = (failures(p_runs), failures(c_runs));
        let pairs = p_runs.len().min(c_runs.len());
        let (p_runs, c_runs) = (&p_runs[..pairs], &c_runs[..pairs]);
        let mut cells = vec![format!(
            "failed_ops {} (change {}/{}, parent {}/{})",
            if worse {
                "REGRESSION, no gain counts"
            } else {
                "no worse"
            },
            cf.0,
            cf.1,
            pf.0,
            pf.1,
        )];
        for m in metrics::E2E {
            let (p, c) = (values(p_runs, m.name), values(c_runs, m.name));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let v = judge(m, &p, &c, worse);
            regressed |= v == Verdict::Regression;
            let mp = stats::median(&p).unwrap_or(0.0);
            let mc = stats::median(&c).unwrap_or(0.0);
            let ratio = if mp == 0.0 { f64::NAN } else { mc / mp };
            cells.push(format!(
                "{} {} (change/parent {ratio:.3}, base parent median {mp:.6} {}, parent IQR {:.6}, wins {}/{pairs}, bound {})",
                m.name,
                v.label(),
                m.unit,
                stats::iqr(&p).unwrap_or(0.0),
                stats::pair_wins(&p, &c, m.higher),
                m.bound,
            ));
        }
        let note = if pairs < MIN_PAIRS {
            format!(" [{pairs} pairs < {MIN_PAIRS}: no gain can be claimed]")
        } else {
            String::new()
        };
        println!("{workload}{note}: {}", cells.join("; "));
    }
    Ok(regressed)
}

/// Median and quartiles of every end-to-end metric over the runs under
/// `dir`, per workload, with the host facts of the first run.
pub fn summary(dir: &Path) -> Result<Value, String> {
    let runs = load(dir)?;
    let host = runs
        .values()
        .flatten()
        .find_map(|r| r.get("host").cloned())
        .unwrap_or(Value::Null);
    let workloads = runs
        .iter()
        .map(|(workload, docs)| {
            let per_metric = metrics::E2E
                .iter()
                .filter_map(|m| {
                    let v = values(docs, m.name);
                    let med = stats::median(&v)?;
                    let (q1, q3) = stats::quartiles(&v).unwrap_or((med, med));
                    let spread = if med == 0.0 { 0.0 } else { (q3 - q1) / med };
                    Some((
                        m.name.to_string(),
                        Value::obj(vec![
                            ("unit", Value::Str(m.unit.into())),
                            ("runs", Value::Num(v.len() as f64)),
                            ("median", Value::Num(med)),
                            ("q1", Value::Num(q1)),
                            ("q3", Value::Num(q3)),
                            ("spread", Value::Num(spread)),
                            ("bound", Value::Num(m.bound)),
                        ]),
                    ))
                })
                .collect();
            (workload.clone(), Value::Obj(per_metric))
        })
        .collect();
    Ok(Value::obj(vec![
        ("host", host),
        ("workloads", Value::Obj(workloads)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: f64) -> E2e {
        E2e {
            name: "x",
            unit: "s",
            higher,
            bound,
        }
    }

    #[test]
    fn identical_sides_are_no_worse() {
        let v: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        assert_eq!(judge(&metric(false, 0.1), &v, &v, false), Verdict::NoWorse);
    }

    #[test]
    fn a_slowdown_beyond_the_bound_regresses() {
        let p: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let c: Vec<f64> = p.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            judge(&metric(false, 0.1), &p, &c, false),
            Verdict::Regression
        );
        // The same move is a gain for a higher-is-better metric ...
        assert_eq!(judge(&metric(true, 0.1), &p, &c, false), Verdict::Gain);
        // ... unless the change failed more operations.
        assert_eq!(judge(&metric(true, 0.1), &p, &c, true), Verdict::NoWorse);
    }

    #[test]
    fn too_few_pairs_never_gain() {
        let p = [100.0, 101.0, 102.0, 100.0, 101.0];
        let c = [80.0, 81.0, 82.0, 80.0, 81.0];
        assert_eq!(judge(&metric(false, 0.1), &p, &c, false), Verdict::NoWorse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let p = [50.0, 100.0, 150.0, 60.0, 140.0];
        let c = [55.0, 105.0, 160.0, 70.0, 150.0];
        assert_eq!(
            judge(&metric(false, 0.1), &p, &c, false),
            Verdict::Unresolved
        );
        let c = [10.0, 20.0, 30.0, 40.0, 45.0];
        assert_eq!(judge(&metric(false, 0.1), &p, &c, false), Verdict::Better);
    }

    fn run(attempted: f64, failed: f64, correct: bool) -> Value {
        Value::obj(vec![
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Num(attempted)),
            ("failed", Value::Num(failed)),
        ])
    }

    #[test]
    fn any_rise_in_failed_operations_regresses() {
        let parent = vec![run(1000.0, 0.0, true); 5];
        // Failures in a minority of the change's runs still count.
        let change = [0.0, 0.0, 1.0, 0.0, 1.0].map(|f| run(1000.0, f, true));
        assert!(more_failures(&parent, &change));
        // A run that failed its checks counts, whatever its counters say.
        let mut change = parent.clone();
        change[2] = run(1000.0, 0.0, false);
        assert!(more_failures(&parent, &change));
        // The same failures on more attempts are a smaller share.
        let parent = vec![run(1000.0, 2.0, true); 5];
        let change = vec![run(2000.0, 2.0, true); 5];
        assert!(!more_failures(&parent, &change));
        assert!(more_failures(&change, &parent));
    }
}
