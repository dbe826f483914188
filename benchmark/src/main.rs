//! The GraQL end-to-end benchmark: five seeded closed-loop BSBM workloads
//! driven over the wire, checked against an in-process reference, with a
//! traced pass that attributes a request's time to the layers. See
//! `README.md` beside this package and `BENCHMARK.json` at the root.

mod compare;
mod drive;
mod gen;
mod json;
mod rig;
mod spec;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use rig::Result;
use spec::{Metric, Spec};
use suite::{Outcome, Pass, Plan};

/// The seed when `--seed` is not given. (`BENCHMARK.json` has a fixed
/// set of keys and no place for it.)
const DEFAULT_SEED: u64 = 42;

/// `--spread` runs each workload once per seed in `1..=SPREAD_RUNS`, as
/// the driver does.
const SPREAD_RUNS: u64 = 10;

const USAGE: &str =
    "usage: graql-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|both] [--quick]
       graql-benchmark --aa | --spread | --compare A.json B.json

  --workload NAME   run one workload and print the driver's result line last
                    (--trace 0: end-to-end metrics, --trace 1: per-layer metrics,
                    --trace both: the end-to-end run, then the traced pass)
  (no --workload)   run all five, each in a process of its own, with --trace both
  --quick           smoke test: 2 s per workload, 200 traced requests, no timing
                    assertions; checks every metric is present and finite,
                    error_rate is 0 and the trace nests
  --aa              run the end-to-end suite twice; fail if the two disagree
                    beyond a same-seed bound
  --compare A B     hold result file B against A (same seed) with the same-seed bounds
  --spread          ten seeds per workload: each end-to-end metric's spread across
                    them against its bound in BENCHMARK.json, as the driver takes it";

/// What to do with the workloads when no single one is named.
enum Mode {
    Suite,
    Aa,
    Spread,
}

struct Args {
    compare: Option<(PathBuf, PathBuf)>,
    mode: Mode,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    pass: Pass,
    quick: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut args = Args {
        compare: None,
        mode: Mode::Suite,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        pass: Pass::EndToEnd,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.pass = match value()?.as_str() {
                    "0" => Pass::EndToEnd,
                    "1" => Pass::Traced,
                    "both" => Pass::Both,
                    other => return Err(format!("--trace takes 0, 1 or both, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            "--aa" => args.mode = Mode::Aa,
            "--spread" => args.mode = Mode::Spread,
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn print_outcome(spec: &Spec, workload: &str, outcome: &Outcome) {
    println!(
        "== {workload}: closed loop, {} in flight, stream {:016x}",
        outcome.in_flight, outcome.stream_hash
    );
    for (title, list) in [
        ("end to end", &spec.end_to_end),
        ("per layer", &spec.per_layer),
    ] {
        let present: Vec<&Metric> = list
            .iter()
            .filter(|m| outcome.get(&m.name).is_some())
            .collect();
        if present.is_empty() {
            continue;
        }
        println!("-- {title}");
        for m in present {
            println!(
                "{:<38} {:>16.4} {}",
                m.name,
                outcome.get(&m.name).expect("filtered"),
                m.unit
            );
        }
    }
    println!(
        "-- attempted {} failed {} error_rate {}{}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome
            .durability_ok
            .map_or(String::new(), |ok| format!(" durability_ok {ok}"))
    );
    for note in &outcome.notes {
        println!("   {note}");
    }
    if let Some(file) = &outcome.trace_file {
        println!("   spans written to {}", file.display());
    }
}

/// The driver's result: exactly `correct`, `attempted`, `failed` and the
/// listed metrics, each with its unit.
fn driver_line(list: &[&Metric], outcome: &Outcome) -> Result<Json> {
    let mut metrics = Vec::new();
    for m in list {
        let value = outcome
            .get(&m.name)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        metrics.push((
            m.name.clone(),
            Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::str(m.unit.clone())),
            ]),
        ));
    }
    Ok(Json::obj(vec![
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// Runs one workload in a process of its own (as the driver does: peak
/// memory and the first load's resident growth are facts of a process),
/// passes its report on and returns its outcome.
fn run_child(workload: &str, plan: &Plan, report: bool) -> Result<Json> {
    let mut child = std::process::Command::new(std::env::current_exe()?);
    child
        .args(["--workload", workload])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args([
            "--trace",
            match plan.pass {
                Pass::EndToEnd => "0",
                Pass::Traced => "1",
                Pass::Both => "both",
            },
        ])
        .args(plan.quick.then_some("--quick"))
        .stderr(std::process::Stdio::inherit());
    let output = child.output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // The child ends with its outcome and the driver's line, both JSON.
    let lines: Vec<&str> = stdout.lines().collect();
    if !output.status.success() || lines.len() < 2 {
        return Err(format!("{workload} failed: {}", output.status).into());
    }
    let (text, json) = lines.split_at(lines.len() - 2);
    for line in text
        .iter()
        .filter(|l| report && !l.starts_with("host ") && !l.starts_with("seed "))
    {
        println!("{line}");
    }
    Ok(Json::parse(json[0])?)
}

/// Runs every workload `sets` times and returns the content of that many
/// result files. The runs of one workload follow each other, so that a
/// slow stretch of the host (they last minutes) finds both sides of an
/// A/A and not one.
fn run_suite(plan: &Plan, sets: usize) -> Result<Vec<Json>> {
    let mut workloads = vec![Vec::new(); sets];
    for workload in gen::WORKLOADS {
        for set in &mut workloads {
            set.push((workload.to_string(), run_child(workload, plan, true)?));
        }
    }
    Ok(workloads
        .into_iter()
        .map(|workloads| {
            Json::obj(vec![
                ("seed", Json::Num(plan.seed as f64)),
                ("seconds", Json::Num(plan.seconds)),
                ("host", rig::host_fingerprint()),
                ("workloads", Json::Obj(workloads)),
            ])
        })
        .collect())
}

fn write_result(name: &str, file: &Json) -> Result<()> {
    let path = suite::out_root().join(name);
    std::fs::create_dir_all(suite::out_root())?;
    std::fs::write(&path, format!("{file}\n"))?;
    println!("result written to {}", path.display());
    Ok(())
}

/// `--spread`: what the driver does before it accepts the benchmark. Each
/// workload runs once per seed; a metric's spread is the distance between
/// the first and third quartile of its values as a share of their median.
/// The driver wants each but `setup_s`'s within the metric's bound, and
/// the builder is to get them under a third of it.
fn spread(spec: &Spec, plan: &mut Plan) -> Result<()> {
    let mut widest: f64 = 0.0;
    for workload in gen::WORKLOADS {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); spec.end_to_end.len()];
        for seed in 1..=SPREAD_RUNS {
            plan.seed = seed;
            let outcome = run_child(workload, plan, false)?;
            if outcome.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!("{workload}, seed {seed}: the run was not correct").into());
            }
            for (m, series) in spec.end_to_end.iter().zip(&mut values) {
                let value = outcome
                    .get("metrics")
                    .and_then(|metrics| metrics.get(&m.name)?.get("value")?.as_f64())
                    .ok_or_else(|| format!("{workload}: {} was not measured", m.name))?;
                series.push(value);
            }
        }
        println!("== {workload}");
        for (m, series) in spec.end_to_end.iter().zip(&mut values) {
            // In seed order: a slow stretch of the host shows as a run of
            // neighbours that moved together.
            let in_seed_order: Vec<String> = series.iter().map(|v| format!("{v:.4e}")).collect();
            let (median, spread) = compare::median_and_spread(series);
            let share = spread / m.bound.unwrap_or(f64::NAN);
            if m.name != "setup_s" {
                widest = widest.max(share);
            }
            println!(
                "{:<30} median {median:>14.4} {:<7} spread {:>6.2}%  bound {:>5.1}%{}",
                m.name,
                m.unit,
                100.0 * spread,
                100.0 * m.bound.unwrap_or(f64::NAN),
                match share {
                    s if s > 1.0 => "  <-- OVER THE BOUND",
                    s if s > 1.0 / 3.0 => "  <-- over a third of the bound",
                    _ => "",
                }
            );
            println!("    {}", in_seed_order.join(" "));
        }
    }
    println!("the widest spread is {widest:.2} of its bound");
    Ok(())
}

/// `--quick`: presence, finiteness, no errors, a trace that nests. The
/// nesting itself is checked where the spans are recorded; a run whose
/// trace does not nest has already failed.
fn quick_checks(spec: &Spec, result: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let workloads = result.get("workloads").map_or(&[][..], Json::as_obj);
    for (workload, outcome) in workloads {
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            let value = outcome
                .get("metrics")
                .and_then(|metrics| metrics.get(&m.name))
                .and_then(|metric| metric.get("value"));
            match value {
                Some(Json::Num(v)) if v.is_finite() => {}
                Some(other) => problems.push(format!("{workload}: {} is {other}", m.name)),
                None => problems.push(format!("{workload}: {} is missing", m.name)),
            }
        }
        if outcome.get("failed").and_then(Json::as_f64) != Some(0.0) {
            problems.push(format!("{workload}: requests failed (error_rate > 0)"));
        }
        if outcome.get("durability_ok") == Some(&Json::Bool(false)) {
            problems.push(format!("{workload}: acknowledged rows were not recovered"));
        }
    }
    if workloads.len() != spec.workloads.len() {
        problems.push("a workload is missing from the result".to_string());
    }
    problems
}

fn real_main() -> Result<ExitCode> {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("graql-benchmark: {e}\n{USAGE}");
            return Ok(ExitCode::from(2));
        }
    };
    let spec = spec::load()?;

    if let Some((a, b)) = &args.compare {
        let read = |p: &PathBuf| -> Result<Json> {
            Ok(Json::parse(&std::fs::read_to_string(p)?)
                .map_err(|e| format!("{}: {e}", p.display()))?)
        };
        let report = compare::compare(&spec, &read(a)?, &read(b)?, false)?;
        print!("{}", report.text);
        println!(
            "{} regressions, {} unresolved",
            report.regressions, report.unresolved
        );
        return Ok(if report.regressions == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let mut plan = Plan {
        seed: args.seed,
        seconds: match args.quick {
            true => suite::QUICK_SECONDS,
            false => args.seconds.unwrap_or(spec.run_seconds),
        },
        quick: args.quick,
        pass: Pass::Both,
    };
    println!("host {}", rig::host_fingerprint());
    println!(
        "{} measured {} s after {} s warm-up",
        match (&args.workload, &args.mode) {
            (None, Mode::Spread) => format!("seeds 1 to {SPREAD_RUNS}"),
            _ => format!("seed {}", plan.seed),
        },
        plan.seconds,
        suite::WARM_UP.as_secs_f64()
    );

    if let Some(workload) = &args.workload {
        plan.pass = args.pass;
        let outcome = suite::run(workload, &plan)?;
        print_outcome(&spec, workload, &outcome);
        let list: Vec<&Metric> = match plan.pass {
            Pass::EndToEnd => spec.end_to_end.iter().collect(),
            Pass::Traced => spec.per_layer.iter().collect(),
            Pass::Both => spec.end_to_end.iter().chain(&spec.per_layer).collect(),
        };
        let line = driver_line(&list, &outcome)?;
        println!("{}", outcome.to_json());
        println!("{line}");
        return Ok(ExitCode::SUCCESS);
    }

    match args.mode {
        Mode::Spread => {
            plan.pass = Pass::EndToEnd;
            spread(&spec, &mut plan)?;
        }
        Mode::Aa => {
            plan.pass = Pass::EndToEnd;
            let sets = run_suite(&plan, 2)?;
            write_result("aa_first.json", &sets[0])?;
            write_result("aa_second.json", &sets[1])?;
            let report = compare::compare(&spec, &sets[0], &sets[1], true)?;
            print!("{}", report.text);
            println!(
                "A/A: {} disagreements beyond a bound, {} unresolved",
                report.regressions, report.unresolved
            );
            if report.regressions > 0 {
                return Ok(ExitCode::FAILURE);
            }
        }
        Mode::Suite => {
            let file = &run_suite(&plan, 1)?[0];
            write_result("result.json", file)?;
            if args.quick {
                let problems = quick_checks(&spec, file);
                for p in &problems {
                    println!("quick: {p}");
                }
                println!(
                    "quick: {}",
                    if problems.is_empty() { "ok" } else { "FAILED" }
                );
                if !problems.is_empty() {
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("graql-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
