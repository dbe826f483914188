//! The comparator: two result files of one seed, each end-to-end metric
//! of each workload held against its bound.
//!
//! A difference inside a run's own spread is not a finding. The spread
//! of a metric is taken from its per-slice values inside each run — the
//! distance between their first and third quartile as a share of their
//! median, the statistic the driver applies across runs; the wider of the
//! two runs counts. Where it exceeds the bound the pair is reported
//! `unresolved`, not `ok`.

use crate::json::Json;
use crate::spec::Spec;

/// By how much of run `a`'s value a metric may be worse in run `b` of the
/// same seed: the issue's table, all eleven rows (`error_rate`, "any
/// increase", is [`errors`]), two of them widened on A/A evidence.
/// `BENCHMARK.json` has a bound for seven of them and they are wider,
/// because the driver holds them against the spread of ten runs with ten
/// *different* seeds, which is data as well as noise (README, "Steadiness
/// on this host"). Two runs of one seed differ by noise only, so the
/// repository's own comparison can see a 10% regression. The commit
/// metrics are compared where they were measured: on the workload that
/// writes.
///
/// Widened, from three `--aa` at the default seed (README, "A/A on this
/// host"): `setup_s` from 15% — the two runs of the suite's first workload
/// differed by 30% and 28%, the other four by at most 10%; `commit_p50_us`
/// from 10% — 12%, 11% and 3%: a commit is 25 ms of copying one table, and
/// where the allocator finds the memory moves it.
pub const SAME_SEED_BOUNDS: [(&str, f64); 10] = [
    ("setup_s", 0.25),
    ("qps", 0.10),
    ("latency_p50_us", 0.10),
    ("latency_p99_us", 0.20),
    ("rows_per_s", 0.10),
    ("commit_p50_us", 0.15),
    ("commit_p99_us", 0.20),
    ("ingest_rows_per_s", 0.10),
    ("rss_mb", 0.10),
    ("resident_bytes_per_user_byte", 0.10),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regression,
    Unresolved,
}

/// Quartiles of two or more sorted values as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's statistic).
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let at = |i: usize| {
        let m = sorted.len() + 1;
        let j = (i * m / 4).clamp(1, sorted.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// The median of `values` and the distance between their first and
/// third quartile as a share of it (0 for fewer than two values).
pub fn median_and_spread(values: &mut [f64]) -> (f64, f64) {
    if values.len() < 2 {
        return (values.first().copied().unwrap_or(f64::NAN), 0.0);
    }
    values.sort_by(f64::total_cmp);
    let (q1, median, q3) = quartiles(values);
    (median, (q3 - q1) / median.abs().max(f64::MIN_POSITIVE))
}

/// A run's own spread of a metric, from its per-slice values.
fn spread(metric: &Json) -> f64 {
    let mut slices: Vec<f64> = metric
        .get("windows")
        .map(|w| w.as_arr().iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    median_and_spread(&mut slices).1
}

/// What a result file says went wrong on a workload: requests that
/// failed, were shed or answered wrongly (`error_rate` above 0), or
/// acknowledged rows that were not recovered.
fn errors(file: &Json, workload: &str) -> Option<String> {
    let outcome = file.get("workloads")?.get(workload)?;
    let failed = outcome.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
    let attempted = outcome
        .get("attempted")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    if failed > 0.0 {
        return Some(format!("{failed} of {attempted} requests failed"));
    }
    (outcome.get("durability_ok") == Some(&Json::Bool(false)))
        .then(|| "acknowledged rows were not recovered".to_string())
}

/// How much worse `b` is than `a`, as a share of `a` (negative when `b`
/// is better).
fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better { a - b } else { b - a };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

pub struct Report {
    pub text: String,
    pub regressions: usize,
    pub unresolved: usize,
}

/// Compares result file `b` against `a`. With `either_way`, a metric
/// that moved beyond its bound in either direction counts (the A/A mode:
/// two runs of one build must agree).
pub fn compare(spec: &Spec, a: &Json, b: &Json, either_way: bool) -> Result<Report, String> {
    let mut report = Report {
        text: format!(
            "{:<18} {:<30} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict\n",
            "workload", "metric", "a", "b", "change", "spread", "bound"
        ),
        regressions: 0,
        unresolved: 0,
    };
    let seed = |file: &Json| file.get("seed").and_then(Json::as_f64);
    if seed(a) != seed(b) {
        return Err(
            "the results are of different seeds: another seed is other data, \
                    and the same-seed bounds do not apply"
                .to_string(),
        );
    }
    for workload in &spec.workloads {
        // `error_rate` may not rise at all, and a correct run has none.
        for (side, file) in [("a", a), ("b", b)] {
            if let Some(what) = errors(file, workload) {
                report.regressions += 1;
                report.text.push_str(&format!(
                    "{workload:<18} error_rate in {side}: {what}  FAILED\n"
                ));
            }
        }
        for (name, bound) in SAME_SEED_BOUNDS {
            let metric = spec
                .metric(name)
                .ok_or_else(|| format!("BENCHMARK.json does not list {name}"))?;
            let find = |file: &Json| {
                file.get("workloads")?
                    .get(workload)?
                    .get("metrics")?
                    .get(name)
                    .cloned()
            };
            let (Some(ma), Some(mb)) = (find(a), find(b)) else {
                return Err(format!("{workload}/{name} is missing from a result"));
            };
            let value = |m: &Json| m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let (va, vb) = (value(&ma), value(&mb));
            // The commit metrics are 0 where nothing commits.
            if va == 0.0 && vb == 0.0 {
                continue;
            }
            let spread = spread(&ma).max(spread(&mb));
            let worse = worsening(va, vb, metric.higher_is_better);
            let moved = if either_way {
                worse.max(worsening(vb, va, metric.higher_is_better))
            } else {
                worse
            };
            let verdict = if spread > bound {
                Verdict::Unresolved
            } else if moved > bound || !moved.is_finite() {
                Verdict::Regression
            } else {
                Verdict::Ok
            };
            match verdict {
                Verdict::Regression => report.regressions += 1,
                Verdict::Unresolved => report.unresolved += 1,
                Verdict::Ok => {}
            }
            report.text.push_str(&format!(
                "{workload:<18} {:<30} {va:>14.4} {vb:>14.4} {:>+7.1}% {:>7.1}% {:>6.1}%  {}\n",
                format!("{name} [{}]", metric.unit),
                100.0 * worse,
                100.0 * spread,
                100.0 * bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                }
            ));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Metric;

    fn spec() -> Spec {
        let metric = |name: &str| Metric {
            name: name.to_string(),
            unit: "x".to_string(),
            higher_is_better: name == "qps" || name.ends_with("_per_s"),
            bound: None,
        };
        Spec {
            run_seconds: 1.0,
            workloads: vec!["w".to_string()],
            end_to_end: vec![metric("qps")],
            per_layer: SAME_SEED_BOUNDS
                .iter()
                .filter(|(name, _)| *name != "qps")
                .map(|(name, _)| metric(name))
                .collect(),
        }
    }

    /// A result whose metrics all read 100 — the commit metrics 0, as on
    /// a workload that does not write — but for `changed`.
    fn result(changed: &[(&str, f64, &[f64])], outcome: &str) -> Json {
        let metrics: Vec<String> = SAME_SEED_BOUNDS
            .iter()
            .map(|(name, _)| {
                let unmeasured = if name.contains("commit") || name.contains("ingest") {
                    0.0
                } else {
                    100.0
                };
                let (value, windows) = changed
                    .iter()
                    .find(|(n, ..)| n == name)
                    .map_or((unmeasured, &[][..]), |(_, v, w)| (*v, *w));
                format!("\"{name}\": {{\"value\": {value}, \"windows\": {windows:?}}}")
            })
            .collect();
        let text = format!(
            "{{\"seed\": 1, \"workloads\": {{\"w\": {{{outcome} \"metrics\": {{{}}}}}}}}}",
            metrics.join(", ")
        );
        Json::parse(&text).unwrap()
    }

    fn verdicts(a: &Json, b: &Json, either_way: bool) -> (usize, usize) {
        let report = compare(&spec(), a, b, either_way).unwrap();
        (report.regressions, report.unresolved)
    }

    #[test]
    fn quartiles_are_the_drivers() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29], n=4)
        let (q1, q2, q3) = quartiles(&[1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0]);
        assert_eq!((q1, q2, q3), (2.5, 9.0, 20.5));
        // statistics.quantiles([3, 5, 9], n=4)
        assert_eq!(quartiles(&[3.0, 5.0, 9.0]), (3.0, 5.0, 9.0));
    }

    #[test]
    fn bound_and_spread_decide_the_verdict() {
        let steady: &[f64] = &[100.0, 101.0, 99.0];
        let qps = |value, windows| result(&[("qps", value, windows)], "");
        let a = qps(100.0, steady);
        assert_eq!(verdicts(&a, &qps(95.0, steady), false), (0, 0));
        assert_eq!(verdicts(&a, &qps(85.0, steady), false), (1, 0));
        assert_eq!(
            verdicts(&a, &qps(120.0, steady), false),
            (0, 0),
            "an improvement is not a regression"
        );
        assert_eq!(
            verdicts(&a, &qps(120.0, steady), true),
            (1, 0),
            "but two runs of one build must agree"
        );
        assert_eq!(
            verdicts(&a, &qps(85.0, &[70.0, 100.0, 85.0]), false),
            (0, 1)
        );
    }

    #[test]
    fn commit_metrics_count_where_they_were_measured() {
        let read_only = result(&[], "");
        assert_eq!(verdicts(&read_only, &read_only, true), (0, 0));
        let commits = |p50| result(&[("commit_p50_us", p50, &[])], "");
        assert_eq!(verdicts(&commits(40.0), &commits(44.0), false), (0, 0));
        assert_eq!(verdicts(&commits(40.0), &commits(48.0), false), (1, 0));
    }

    #[test]
    fn any_error_in_either_file_fails() {
        let good = result(
            &[],
            "\"attempted\": 9, \"failed\": 0, \"durability_ok\": true,",
        );
        let wrong = result(&[], "\"attempted\": 9, \"failed\": 1,");
        let lost = result(
            &[],
            "\"attempted\": 9, \"failed\": 0, \"durability_ok\": false,",
        );
        assert_eq!(verdicts(&good, &good, false), (0, 0));
        assert_eq!(verdicts(&good, &wrong, false), (1, 0));
        assert_eq!(verdicts(&wrong, &good, false), (1, 0));
        assert_eq!(verdicts(&good, &lost, false), (1, 0));
    }

    #[test]
    fn other_seeds_are_refused() {
        let other = Json::parse("{\"seed\": 2, \"workloads\": {}}").unwrap();
        assert!(compare(&spec(), &result(&[], ""), &other, false).is_err());
    }

    #[test]
    fn same_seed_bounds_are_no_wider_than_the_drivers() {
        let spec = crate::spec::load().unwrap();
        for (name, bound) in SAME_SEED_BOUNDS {
            let metric = spec.metric(name).expect(name);
            assert!(
                metric.bound.is_none_or(|drivers| bound <= drivers),
                "{name}"
            );
        }
    }
}
