//! `BENCHMARK.json`: the workloads, every metric's name, unit and
//! direction, and the bound by which an end-to-end metric may worsen.
//! It is the one list of metric names; the harness emits exactly it.

use crate::json::Json;
use crate::rig::Result;

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// A listed metric, end-to-end or per-layer, by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

fn metrics(list: &Json) -> Result<Vec<Metric>> {
    list.as_arr()
        .iter()
        .map(|m| {
            let field = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("BENCHMARK.json: a metric lacks {key:?}"))
            };
            Ok(Metric {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                higher_is_better: field("better")? == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

/// Reads `BENCHMARK.json` from the working directory (the driver runs
/// the benchmark from the root of a checkout) or, failing that, from
/// beside this package.
pub fn load() -> Result<Spec> {
    let beside = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string("BENCHMARK.json")
        .or_else(|_| std::fs::read_to_string(beside))
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| {
        json.get(key)
            .ok_or_else(|| format!("BENCHMARK.json lacks {key:?}"))
    };
    Ok(Spec {
        run_seconds: list("run_seconds")?
            .as_f64()
            .ok_or("BENCHMARK.json: run_seconds is not a number")?,
        workloads: list("workloads")?
            .as_arr()
            .iter()
            .filter_map(|w| w.get("name")?.as_str().map(str::to_string))
            .collect(),
        end_to_end: metrics(list("end_to_end")?)?,
        per_layer: metrics(list("per_layer")?)?,
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn benchmark_json_names_the_workloads_the_generator_builds() {
        let spec = super::load().unwrap();
        assert_eq!(spec.workloads, crate::gen::WORKLOADS);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
    }
}
