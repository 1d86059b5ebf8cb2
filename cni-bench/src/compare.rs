//! `cni-bench compare BASE HEAD`: judge each end-to-end metric of each
//! workload between two `run` artifacts, applying the bounds fixed in
//! `BENCHMARK.json`.
//!
//! The rule: a metric is **worse** when the head's median is worse than
//! the base's by more than the bound; **improved** when, with at least
//! three runs a side, every head run beats every base run, or at least
//! nine tenths of all (head, base) run pairs favour the head and the
//! medians differ by more than the base's own interquartile distance;
//! **unresolved** when either side's relative spread is wider than the
//! bound and neither side's runs all beat the other's; and **unchanged**
//! otherwise. A run here is one sample of the artifact: a timed cycle for
//! host times, the single cold run for `peak_rss_mb`.

use crate::stats::{median, quartiles, rel_spread};
use serde_json::Value;

/// `setup_s` below this many seconds is noise on any host: its bound is
/// never tighter than this absolute change.
pub const SETUP_FLOOR_S: f64 = 0.001;

/// Fewest runs a side for a gain: below it, every run beating every run
/// is no evidence.
const MIN_RUNS_FOR_GAIN: usize = 3;

/// A metric's regression bound from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening, as a share of the base median.
    pub bound: f64,
}

/// The outcome for one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The head is better, beyond the noise.
    Improved,
    /// Within the bound and not a resolved gain.
    Unchanged,
    /// Worse than the base by more than the bound.
    Worse,
    /// Too noisy to tell at this bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Read the end-to-end bounds from a `BENCHMARK.json` document.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let v: Value =
        serde_json::from_str(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    v.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without {k}"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Judge `head` against `base` samples of one metric.
pub fn judge(base: &[f64], head: &[f64], b: &Bound) -> Verdict {
    // Orient every comparison so that "greater" means "worse".
    let sign = if b.lower_is_better { 1.0 } else { -1.0 };
    let worse = |x: f64| sign * x;
    let (bmin, bmax) = min_max(base.iter().map(|&x| worse(x)));
    let (hmin, hmax) = min_max(head.iter().map(|&x| worse(x)));
    let mb = median(base);
    let worse_by = worse(median(head) - mb);
    let floor = if b.name == "setup_s" {
        SETUP_FLOOR_S
    } else {
        0.0
    };
    let allowed = (b.bound * mb.abs()).max(floor);
    let enough = base.len().min(head.len()) >= MIN_RUNS_FOR_GAIN;
    if enough && hmax < bmin {
        return Verdict::Improved;
    }
    let all_worse = hmin > bmax;
    if rel_spread(base).max(rel_spread(head)) > b.bound {
        return if all_worse && worse_by > allowed {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > allowed {
        return Verdict::Worse;
    }
    let pairs = (base.len() * head.len()) as f64;
    let head_wins = base
        .iter()
        .flat_map(|&x| head.iter().map(move |&y| worse(y) < worse(x)))
        .filter(|&w| w)
        .count() as f64;
    let (q1, q3) = quartiles(base);
    if enough && head_wins >= 0.9 * pairs && -worse_by > q3 - q1 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn min_max(xs: impl Iterator<Item = f64>) -> (f64, f64) {
    xs.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
        (lo.min(x), hi.max(x))
    })
}

fn samples(artifact: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let s = artifact
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("samples")?
        .as_array()?;
    let v: Vec<f64> = s.iter().filter_map(Value::as_f64).collect();
    (!v.is_empty()).then_some(v)
}

/// Compare two artifacts: one row per workload and bounded metric, and
/// whether any row is worse.
pub fn compare(base: &Value, head: &Value, bounds: &[Bound]) -> (String, bool) {
    let mut out = format!(
        "{:<16} {:<12} {:>14} {:>14} {:>9} {:>9} {:>7}  {}\n",
        "workload", "metric", "base", "head", "delta%", "spread%", "bound%", "verdict"
    );
    let mut any_worse = false;
    for w in crate::workload::ALL {
        for b in bounds {
            let (Some(bs), Some(hs)) = (
                samples(base, w.name(), &b.name),
                samples(head, w.name(), &b.name),
            ) else {
                out.push_str(&format!(
                    "{:<16} {:<12} missing in an artifact\n",
                    w.name(),
                    b.name
                ));
                continue;
            };
            let v = judge(&bs, &hs, b);
            any_worse |= v == Verdict::Worse;
            let (mb, mh) = (median(&bs), median(&hs));
            out.push_str(&format!(
                "{:<16} {:<12} {:>14.6} {:>14.6} {:>+9.2} {:>9.2} {:>7.1}  {}\n",
                w.name(),
                b.name,
                mb,
                mh,
                (mh - mb) / mb * 100.0,
                rel_spread(&bs).max(rel_spread(&hs)) * 100.0,
                b.bound * 100.0,
                v.label()
            ));
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(name: &str, bound: f64) -> Bound {
        Bound {
            name: name.into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn clear_regression_beyond_the_bound_is_worse() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        let head = [1.20, 1.21, 1.19, 1.20, 1.22];
        assert_eq!(judge(&base, &head, &lower("run_s", 0.1)), Verdict::Worse);
    }

    #[test]
    fn small_shift_within_the_bound_is_unchanged() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        let head = [1.03, 1.02, 1.04, 1.03, 1.05];
        assert_eq!(
            judge(&base, &head, &lower("run_s", 0.1)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn every_head_run_beating_every_base_run_is_improved() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        let head = [0.90, 0.91, 0.89, 0.90, 0.92];
        assert_eq!(judge(&base, &head, &lower("run_s", 0.1)), Verdict::Improved);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let base = [1.0, 1.5, 0.7, 1.2, 0.9];
        let head = [1.1, 1.6, 0.8, 1.3, 0.95];
        assert_eq!(
            judge(&base, &head, &lower("run_s", 0.1)),
            Verdict::Unresolved
        );
        // ... unless every head run is worse than every base run.
        let head = [1.8, 2.0, 1.9, 2.2, 2.1];
        assert_eq!(judge(&base, &head, &lower("run_s", 0.1)), Verdict::Worse);
    }

    #[test]
    fn higher_is_better_flips_the_orientation() {
        let b = Bound {
            name: "events_per_s".into(),
            lower_is_better: false,
            bound: 0.05,
        };
        assert_eq!(
            judge(&[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0], &b),
            Verdict::Worse
        );
        assert_eq!(
            judge(&[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0], &b),
            Verdict::Improved
        );
    }

    #[test]
    fn exact_metrics_compare_exactly() {
        let b = lower("sim_wall_ms", 0.001);
        assert_eq!(judge(&[5.0; 4], &[5.0; 4], &b), Verdict::Unchanged);
        assert_eq!(judge(&[5.0; 4], &[5.1; 4], &b), Verdict::Worse);
    }

    #[test]
    fn single_runs_never_make_a_gain() {
        let b = lower("peak_rss_mb", 0.1);
        assert_eq!(judge(&[24.1], &[24.0], &b), Verdict::Unchanged);
        assert_eq!(judge(&[24.1], &[30.0], &b), Verdict::Worse);
    }

    #[test]
    fn setup_has_an_absolute_floor() {
        let b = lower("setup_s", 0.1);
        // +50% of 1 ms is still under the 1 ms floor.
        assert_eq!(
            judge(&[0.0010, 0.0010, 0.0010], &[0.0015, 0.0015, 0.0015], &b),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&[0.0010, 0.0010, 0.0010], &[0.0025, 0.0025, 0.0025], &b),
            Verdict::Worse
        );
    }

    #[test]
    fn bounds_parse_from_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let b = bounds(text).expect("BENCHMARK.json parses");
        assert!(b.iter().any(|b| b.name == "run_s" && b.lower_is_better));
        assert!(b.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    }
}
