//! `coconut-perf compare <a.json> <b.json>`: judge run set `b` against run
//! set `a` (the baseline), one row per workload × metric.
//!
//! * `ok` — `b`'s median is no worse than `a`'s by more than the bound;
//! * `regressed` — it is;
//! * `unresolved` — either side's run-to-run spread (quartile distance over
//!   median) is wider than the bound, so the comparison cannot tell;
//! * `same` / `differs` — for the exact counts of the single-threaded traced
//!   run, which must repeat bit for bit;
//! * `info` — reported, never judged.

use std::path::Path;

use crate::json::Json;
use crate::metrics::{self, Better};
use crate::stats;

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
    Same,
    Differs,
    Info,
}

impl Verdict {
    fn name(&self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Differs => "differs",
            Verdict::Info => "info",
        }
    }
}

/// Counts made by the program that must repeat exactly between traced runs.
fn is_exact_count(name: &str) -> bool {
    name.starts_with("storage.io.")
        || name.starts_with("core.exact.") && name != "core.exact.pruned_share"
}

/// By how much of `a`'s median `b`'s median is worse (negative: better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(name: &str, better: Better, bound: Option<f64>, a: &[f64], b: &[f64]) -> Verdict {
    if is_exact_count(name) {
        let same = a.iter().chain(b).all(|v| v.to_bits() == a[0].to_bits());
        return if same {
            Verdict::Same
        } else {
            Verdict::Differs
        };
    }
    let Some(bound) = bound else {
        return Verdict::Info;
    };
    let spread = |v: &[f64]| stats::quartile_spread(v).unwrap_or(0.0);
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    if worse_by(better, stats::median(a), stats::median(b)) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn values(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    set.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|m| m.get(metric))
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Print the table; `Ok(false)` when any row regressed or an exact count
/// differs.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (label, set) in [("a", &a), ("b", &b)] {
        let ctx = |k: &str| {
            set.get("context")
                .and_then(|c| c.get(k))
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string()
        };
        println!(
            "{label}: commit {} seed {} dataset {}",
            ctx("commit"),
            ctx("seed"),
            ctx("dataset")
        );
    }
    println!(
        "{:<18} {:<42} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "median a", "median b", "worse by", "bound", "spread"
    );
    let mut clean = true;
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("run set a has no workloads")?;
    for (workload, metrics_a) in workloads {
        for (metric, _) in metrics_a.as_obj().unwrap_or(&[]) {
            let Some(def) = metrics::find(metric) else {
                continue;
            };
            let (va, vb) = (values(&a, workload, metric), values(&b, workload, metric));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<18} {metric:<42} missing from one side");
                clean = false;
                continue;
            }
            let verdict = judge(metric, def.better, def.bound, &va, &vb);
            let spread = stats::quartile_spread(&va)
                .into_iter()
                .chain(stats::quartile_spread(&vb))
                .fold(0.0, f64::max);
            println!(
                "{:<18} {:<42} {:>14.6} {:>14.6} {:>+8.1}% {:>7} {:>7.1}%  {}",
                workload,
                metric,
                stats::median(&va),
                stats::median(&vb),
                worse_by(def.better, stats::median(&va), stats::median(&vb)) * 100.0,
                def.bound
                    .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                spread * 100.0,
                verdict.name()
            );
            clean &= !matches!(verdict, Verdict::Regressed | Verdict::Differs);
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = |c: f64| vec![c * 0.99, c, c * 1.01, c, c * 1.005];
        // Lower is better, bound 10%: +5% is ok, +20% regressed, -20% ok.
        assert_eq!(
            judge(
                "query_p50_ms",
                Better::Lower,
                Some(0.1),
                &steady(10.0),
                &steady(10.5)
            ),
            Verdict::Ok
        );
        assert_eq!(
            judge(
                "query_p50_ms",
                Better::Lower,
                Some(0.1),
                &steady(10.0),
                &steady(12.0)
            ),
            Verdict::Regressed
        );
        assert_eq!(
            judge(
                "query_p50_ms",
                Better::Lower,
                Some(0.1),
                &steady(10.0),
                &steady(8.0)
            ),
            Verdict::Ok
        );
        // Higher is better: a drop is the regression.
        assert_eq!(
            judge(
                "query_qps",
                Better::Higher,
                Some(0.1),
                &steady(100.0),
                &steady(80.0)
            ),
            Verdict::Regressed
        );
        assert_eq!(
            judge(
                "query_qps",
                Better::Higher,
                Some(0.1),
                &steady(100.0),
                &steady(120.0)
            ),
            Verdict::Ok
        );
        // A spread wider than the bound resolves nothing.
        let noisy = vec![8.0, 10.0, 12.0, 9.0, 13.0];
        assert_eq!(
            judge(
                "query_p50_ms",
                Better::Lower,
                Some(0.1),
                &noisy,
                &steady(10.0)
            ),
            Verdict::Unresolved
        );
        // No bound: info. One value per side: judged on the medians alone.
        assert_eq!(
            judge(
                "query_p99_ms",
                Better::Lower,
                None,
                &steady(1.0),
                &steady(9.0)
            ),
            Verdict::Info
        );
        assert_eq!(
            judge("setup_s", Better::Lower, Some(0.25), &[1.0], &[1.2]),
            Verdict::Ok
        );
        assert_eq!(
            judge("setup_s", Better::Lower, Some(0.25), &[1.0], &[1.3]),
            Verdict::Regressed
        );
    }

    #[test]
    fn exact_counts_must_repeat_bit_for_bit() {
        assert_eq!(
            judge(
                "storage.io.query_rand_reads",
                Better::Lower,
                None,
                &[812.0, 812.0],
                &[812.0]
            ),
            Verdict::Same
        );
        assert_eq!(
            judge(
                "storage.io.query_rand_reads",
                Better::Lower,
                None,
                &[812.0],
                &[813.0]
            ),
            Verdict::Differs
        );
        assert_eq!(
            judge(
                "core.exact.records_fetched",
                Better::Lower,
                None,
                &[5.0],
                &[5.0]
            ),
            Verdict::Same
        );
        assert_eq!(
            judge(
                "core.exact.pruned_share",
                Better::Higher,
                None,
                &[0.5],
                &[0.6]
            ),
            Verdict::Info
        );
    }
}
