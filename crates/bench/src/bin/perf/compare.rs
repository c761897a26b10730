//! `perf compare BASE.json NEW.json`: applies the `BENCHMARK.json`
//! bounds to two result files written by `perf --out`, one row per
//! workload × end-to-end metric, and lists the per-layer pairings for
//! context. A file may hold several runs; medians are compared and the
//! run-to-run spread (interquartile range ÷ median) decides whether a
//! difference can be resolved at all.

use std::collections::BTreeMap;
use std::process::ExitCode;

use serde_json::Value;

use crate::spec::{MetricSpec, Spec};
use crate::stats::{median, spread};

/// Values of every `(workload, metric)` of one section across a file's
/// runs.
type Series = BTreeMap<(String, String), Vec<f64>>;

fn series(doc: &Value, section: &str) -> Series {
    let mut out = Series::new();
    let runs = doc.get("runs").and_then(Value::as_array);
    for run in runs.into_iter().flatten() {
        let workloads = run.get("workloads").and_then(Value::as_object);
        for (workload, entry) in workloads.into_iter().flatten() {
            let metrics = entry.get(section).and_then(Value::as_object);
            for (metric, value) in metrics.into_iter().flatten() {
                if let Some(v) = value.as_f64() {
                    out.entry((workload.clone(), metric.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    out
}

/// How one end-to-end pairing came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    /// Worse than the bound allows.
    Regression,
    /// The run-to-run spread exceeds the bound: neither "unchanged" nor
    /// "regressed" can be claimed.
    Unresolved,
}

/// Applies a metric's bound to a base and a new series.
pub fn judge(m: &MetricSpec, base: &[f64], new: &[f64]) -> (f64, f64, Option<f64>, Verdict) {
    let (b, n) = (median(base), median(new));
    let worse_by = if m.higher_is_better {
        (b - n) / b
    } else {
        (n - b) / b
    };
    let noise = [spread(base), spread(new)]
        .into_iter()
        .flatten()
        .reduce(f64::max);
    let bound = m.bound.unwrap_or(f64::INFINITY);
    let verdict = if noise.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else if -worse_by > bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    (b, n, noise, verdict)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // `perf` prints its document last; accept a captured stdout too.
    let last = text.lines().last().unwrap_or_default();
    serde_json::from_str(last).map_err(|e| format!("{path} holds no result document: {e}"))
}

pub fn main(spec: &Spec, args: &[String]) -> ExitCode {
    let [base_path, new_path] = args else {
        eprintln!("usage: perf compare BASE.json NEW.json");
        return ExitCode::from(2);
    };
    let (base, new) = match (load(base_path), load(new_path)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let (base_e2e, new_e2e) = (series(&base, "end_to_end"), series(&new, "end_to_end"));
    let mut regressions = 0;
    println!("workload metric unit base new new/base spread bound verdict");
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let key = (workload.clone(), m.name.clone());
            let (Some(b), Some(n)) = (base_e2e.get(&key), new_e2e.get(&key)) else {
                println!("{workload} {} {} - - - - - missing", m.name, m.unit);
                regressions += 1;
                continue;
            };
            let (bm, nm, noise, verdict) = judge(m, b, n);
            regressions += usize::from(verdict == Verdict::Regression);
            println!(
                "{workload} {} {} {bm} {nm} {:.4} {} {} {verdict:?} (n={}/{})",
                m.name,
                m.unit,
                nm / bm,
                noise.map_or("-".to_string(), |s| format!("{s:.4}")),
                m.bound.unwrap_or(f64::NAN),
                b.len(),
                n.len(),
            );
        }
    }

    let (base_layers, new_layers) = (series(&base, "per_layer"), series(&new, "per_layer"));
    for workload in &spec.workloads {
        for m in &spec.per_layer {
            let key = (workload.clone(), m.name.clone());
            if let (Some(b), Some(n)) = (base_layers.get(&key), new_layers.get(&key)) {
                let (bm, nm) = (median(b), median(n));
                if bm != 0.0 || nm != 0.0 {
                    println!(
                        "{workload} {} {} {bm} {nm} {:.4} - - layer",
                        m.name,
                        m.unit,
                        nm / bm
                    );
                }
            }
        }
    }

    if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{regressions} end-to-end pairing(s) regressed or are missing");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".to_string(),
            unit: "ms".to_string(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn bounds_apply_in_the_metrics_own_direction() {
        let lower = metric(false, 0.1);
        assert_eq!(judge(&lower, &[100.0], &[109.0]).3, Verdict::Ok);
        assert_eq!(judge(&lower, &[100.0], &[111.0]).3, Verdict::Regression);
        assert_eq!(judge(&lower, &[100.0], &[80.0]).3, Verdict::Improved);
        let higher = metric(true, 0.1);
        assert_eq!(judge(&higher, &[100.0], &[89.0]).3, Verdict::Regression);
        assert_eq!(judge(&higher, &[100.0], &[120.0]).3, Verdict::Improved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let m = metric(false, 0.1);
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        let (_, _, noise, verdict) = judge(&m, &noisy, &[100.0, 100.0, 100.0]);
        assert!(noise.unwrap() > 0.1);
        assert_eq!(verdict, Verdict::Unresolved);
        let steady = [99.0, 100.0, 100.0, 101.0];
        assert_eq!(judge(&m, &steady, &steady).3, Verdict::Ok);
    }

    #[test]
    fn series_collects_every_run_of_a_file() {
        let doc: Value = serde_json::from_str(
            r#"{"runs":[{"seed":1,"workloads":{"w":{"end_to_end":{"m":1.5}}}},
                        {"seed":2,"workloads":{"w":{"end_to_end":{"m":2.5}}}}]}"#,
        )
        .unwrap();
        let s = series(&doc, "end_to_end");
        assert_eq!(s[&("w".to_string(), "m".to_string())], vec![1.5, 2.5]);
        assert!(series(&doc, "per_layer").is_empty());
    }
}
