//! The benchmark's definition, read from the repo's `BENCHMARK.json` at
//! compile time: which metrics a run must print, in which unit, and the
//! regression bound `perf compare` applies to each.

use serde_json::Value;

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the base median an end-to-end metric may worsen by;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, parsed.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metric_list(root: &Value, key: &str) -> Vec<MetricSpec> {
    let field = |m: &Value, f: &str| {
        m.get(f)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json {key} entry lacks {f}"))
            .to_string()
    };
    root.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| MetricSpec {
            name: field(m, "name"),
            unit: field(m, "unit"),
            higher_is_better: field(m, "better") == "higher",
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

impl Spec {
    /// # Panics
    ///
    /// Panics if the embedded `BENCHMARK.json` is malformed — a build
    /// defect, caught by the unit test below.
    pub fn load() -> Spec {
        let root: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads = root
            .get("workloads")
            .and_then(Value::as_array)
            .expect("BENCHMARK.json lists workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
            .collect();
        Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Value::as_u64)
                .expect("BENCHMARK.json has run_seconds"),
            workloads,
            end_to_end: metric_list(&root, "end_to_end"),
            per_layer: metric_list(&root, "per_layer"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_the_four_workloads_and_bounds_every_end_to_end_metric() {
        let spec = Spec::load();
        assert_eq!(spec.workloads, crate::WORKLOADS);
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let widest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "set-up time gets the largest bound"
        );
    }
}
