//! One workload, start to finish: set-up (repeated, for a steady
//! `setup_s`), the in-process reference, the untraced closed-loop run
//! that gives the end-to-end metrics, the traced replay that gives the
//! per-layer ones, and the durability check where the workload writes.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use graql_core::{DurabilityOptions, Server};

use crate::drive::{percentiles, run_client, run_in_turns, Ingests, Reads, Sample, WINDOW};
use crate::gen::{Workload, CHUNK_ROWS, READS_PER_COMMIT};
use crate::json::Json;
use crate::rig::{self, proc_status_kb, reference, setup, Expect, Result, Rig};
use crate::trace;

/// Warm-up before every measured interval: lets the plan cache, the
/// graph views and the statistics fill.
pub const WARM_UP: Duration = Duration::from_secs(2);

/// Measured on the one workload that writes; 0 on the others.
const COMMIT_METRICS: [&str; 3] = ["commit_p50_us", "commit_p99_us", "ingest_rows_per_s"];

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// `--trace 0`: the end-to-end metrics, tracing off.
    EndToEnd,
    /// `--trace 1`: the per-layer metrics.
    Traced,
    /// The suite: both, on one rig.
    Both,
}

pub struct Plan {
    pub seed: u64,
    /// Measured interval of the end-to-end run.
    pub seconds: f64,
    /// The smoke test: a tenth of the traced replay.
    pub quick: bool,
    pub pass: Pass,
}

/// Measured interval of `--quick`.
pub const QUICK_SECONDS: f64 = 2.0;

/// Requests the traced replay covers at most (a tenth of it where a
/// request takes over 5 ms, and under `--quick`).
const TRACED_REQUESTS: usize = 2000;

/// A metric value and, where the run gives them, its value in each
/// [`WINDOW`] of the run (the run's own spread).
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub windows: Vec<f64>,
}

#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Value>,
    pub attempted: u64,
    pub failed: u64,
    pub durability_ok: Option<bool>,
    pub stream_hash: u64,
    pub in_flight: usize,
    /// Free-form facts for the printed report (percentile fallbacks,
    /// flush policy, sample counts).
    pub notes: Vec<String>,
    pub trace_file: Option<PathBuf>,
}

impl Outcome {
    fn put(&mut self, name: &'static str, value: f64) {
        self.put_windows(name, value, Vec::new());
    }

    fn put_windows(&mut self, name: &'static str, value: f64, windows: Vec<f64>) {
        self.metrics.push(Value {
            name,
            value,
            windows,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.durability_ok != Some(false)
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("in_flight", Json::Num(self.in_flight as f64)),
            (
                "stream_hash",
                Json::str(format!("{:016x}", self.stream_hash)),
            ),
            (
                "durability_ok",
                self.durability_ok.map_or(Json::Null, Json::Bool),
            ),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let mut fields = vec![("value", Json::Num(m.value))];
                            if !m.windows.is_empty() {
                                fields.push((
                                    "windows",
                                    Json::Arr(m.windows.iter().map(|w| Json::Num(*w)).collect()),
                                ));
                            }
                            (m.name.to_string(), Json::obj(fields))
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Where traces and run directories go: inside the checkout, under the
/// build directory that `.gitignore` already names.
pub fn out_root() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()))
        .join("benchmark")
}

/// What a pass runs against: the served database, the workload, the
/// reference answers and the seed of the request stream.
#[derive(Clone, Copy)]
pub struct Target<'a> {
    pub rig: &'a Rig,
    pub workload: &'a Workload,
    pub reference: &'a [Expect],
    pub seed: u64,
}

/// Removes the run directory however the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the load generator, or the traced probes, on a thread spawned for
/// the purpose. The thread that loaded the database and answered the
/// reference keeps a heap arena full of their leftovers, and allocation
/// from it is slow: the same in-process execution measured 39% slower
/// there than on a new thread. The server's workers are new threads, so
/// what is compared with them must be too.
fn on_a_fresh_thread<T: Send>(work: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        scope
            .spawn(work)
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

pub fn run(name: &str, plan: &Plan) -> Result<Outcome> {
    rig::cores()?;
    let scale = rig::scale(plan.seed);
    let workload = Workload::build(name, plan.seed, scale)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let run_dir = RunDir(out_root().join(format!("run-{}-{name}", std::process::id())));
    let mut outcome = Outcome {
        stream_hash: workload.stream_hash(plan.seed, scale),
        in_flight: workload.in_flight,
        ..Outcome::default()
    };

    let (end_to_end_pass, traced_pass) = (plan.pass != Pass::Traced, plan.pass != Pass::EndToEnd);

    // Set-up, repeated so one slow page-cache flush does not decide
    // `setup_s`. The first, in a fresh process, gives the memory ratio.
    let mut seconds = Vec::new();
    let mut rig = None;
    for i in 0..if end_to_end_pass { SETUPS } else { 1 } {
        if let Some(Rig { mut net, .. }) = rig.take() {
            net.shutdown();
        }
        let (built, stats) = setup(plan.seed, workload.writes, &run_dir.0.join(format!("s{i}")))?;
        seconds.push(stats.seconds);
        if i == 0 && end_to_end_pass {
            outcome.put(
                "resident_bytes_per_user_byte",
                stats.resident_growth_bytes as f64 / stats.csv_bytes as f64,
            );
        }
        rig = Some(built);
    }
    let mut rig = rig.expect("at least one set-up");
    if end_to_end_pass {
        let spread = seconds.clone();
        outcome.put_windows("setup_s", median(&mut seconds), spread);
    }

    let reference = reference(&rig.server.snapshot(), &workload.scripts)?;
    if workload.writes {
        outcome.notes.push(format!(
            "durable server: {:?}, fsync = File::sync_data (platform default)",
            DurabilityOptions::default()
        ));
    }

    let target = Target {
        rig: &rig,
        workload: &workload,
        reference: &reference,
        seed: plan.seed,
    };
    let mut next_chunk = 0;
    // The commit metrics are per-layer in BENCHMARK.json (they exist on
    // one workload only) but are measured the end-to-end way, so a traced
    // run of that workload starts with a short untraced closed loop.
    let (warm, seconds) = match (end_to_end_pass, workload.writes) {
        (true, _) => (WARM_UP, plan.seconds),
        (false, true) => (WARM_UP / 2, plan.seconds / 4.0),
        (false, false) => (Duration::ZERO, 0.0),
    };
    if seconds > 0.0 {
        let measure = Duration::from_secs_f64(seconds);
        on_a_fresh_thread(|| end_to_end(target, warm, measure, &mut next_chunk, &mut outcome))?;
    } else {
        for name in COMMIT_METRICS {
            outcome.put(name, 0.0);
        }
    }
    // Peak memory of the closed loop: read before the traced pass clones
    // the database for its probes and before the durability check loads a
    // second copy, so that a suite result compares with a `--trace 0` one.
    if end_to_end_pass {
        outcome.put("rss_mb", proc_status_kb("VmHWM:") as f64 / 1024.0);
    }
    if traced_pass {
        let budget = Duration::from_secs_f64(plan.seconds);
        let requests = match plan.quick {
            true => TRACED_REQUESTS / 10,
            false => TRACED_REQUESTS,
        };
        let traced = on_a_fresh_thread(|| trace::run(target, requests, budget, &mut next_chunk))?;
        outcome.attempted += traced.attempted;
        outcome.failed += traced.failed;
        outcome.notes.extend(traced.notes);
        for (name, value) in traced.metrics {
            outcome.put(name, value);
        }
        std::fs::create_dir_all(out_root())?;
        let file = out_root().join(format!("trace_{name}.json"));
        trace::write_spans(&file, name, &traced.spans)?;
        outcome.trace_file = Some(file);
    }

    let (mut recovery_s, mut checkpoint_s) = (0.0, 0.0);
    if workload.writes {
        let (ok, seconds) = durability_check(&rig, plan.seed, next_chunk, &run_dir.0)?;
        outcome.durability_ok = Some(ok);
        recovery_s = seconds;
        if traced_pass {
            let started = Instant::now();
            rig.server.checkpoint_now()?;
            checkpoint_s = started.elapsed().as_secs_f64();
        }
    }
    if traced_pass {
        outcome.put("wal.recovery_s", recovery_s);
        outcome.put("wal.checkpoint_s", checkpoint_s);
        outcome.put(
            "error_rate",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
        );
    }
    rig.net.shutdown();
    Ok(outcome)
}

/// The untraced closed loop. Reads run on one connection with the
/// workload's in-flight count; where the workload writes, commits on a
/// second connection take turns with them.
fn end_to_end(
    target: Target<'_>,
    warm: Duration,
    measure: Duration,
    next_chunk: &mut u64,
    outcome: &mut Outcome,
) -> Result<()> {
    let Target {
        rig,
        workload,
        reference,
        seed,
    } = target;
    let addr = rig.net.local_addr();
    let mut reads = Reads::new(workload, seed, reference);
    let (read_samples, write_samples) = if workload.writes {
        let mut ingests = Ingests {
            seed,
            scale: rig::scale(seed),
            data_dir: &rig.data_dir,
            next_chunk,
        };
        let (r, w) = run_in_turns(addr, &mut reads, &mut ingests, warm, measure)?;
        (r, Some(w))
    } else {
        let samples = run_client(addr, &mut reads, workload.in_flight, warm, measure)?;
        (samples, None)
    };

    let r = summarize(&read_samples, measure);
    outcome.attempted += read_samples.len() as u64;
    outcome.failed += r.failed;
    outcome.put_windows("qps", r.per_second, r.per_second_windows);
    outcome.put_windows("latency_p50_us", r.p50_us, r.p50_windows);
    outcome.put_windows("latency_p99_us", r.tail_us, r.tail_windows);
    outcome.put_windows("rows_per_s", r.rows_per_second, r.rows_windows);
    outcome.notes.push(format!(
        "reads: {} samples, {} in flight, tail is p{:.2}",
        read_samples.len(),
        workload.in_flight,
        r.tail_percentile
    ));
    let large = reference.iter().filter(|e| e.large()).count();
    if large > 0 {
        let sampled = read_samples.iter().filter(|s| s.sampled).count();
        outcome.notes.push(format!(
            "correctness: {large} of {} scripts answer with a table over 1024 rows; every row of \
             every warm-up reply, and of a script's first reply where that came later, was \
             rendered; {sampled} of {} measured replies were checked from 1024 evenly spaced \
             rows and the row count",
            reference.len(),
            read_samples.len()
        ));
    }
    if r.tail_percentile < 99.0 {
        outcome.notes.push(format!(
            "latency_p99_us fell back to p{:.2}: fewer than 10 samples lie beyond p99",
            r.tail_percentile
        ));
    }

    match write_samples {
        Some(samples) => {
            let w = summarize(&samples, measure);
            outcome.attempted += samples.len() as u64;
            outcome.failed += w.failed;
            outcome.put_windows("commit_p50_us", w.p50_us, w.p50_windows);
            outcome.put_windows("commit_p99_us", w.tail_us, w.tail_windows);
            outcome.put_windows(
                "ingest_rows_per_s",
                w.per_second * CHUNK_ROWS as f64,
                w.per_second_windows
                    .iter()
                    .map(|c| c * CHUNK_ROWS as f64)
                    .collect(),
            );
            outcome.notes.push(format!(
                "commits: {} samples of {CHUNK_ROWS} rows, one per {READS_PER_COMMIT} reads, tail is p{:.2}",
                samples.len(),
                w.tail_percentile
            ));
        }
        None => {
            for name in COMMIT_METRICS {
                outcome.put(name, 0.0);
            }
        }
    }
    Ok(())
}

struct Summary {
    failed: u64,
    per_second: f64,
    rows_per_second: f64,
    p50_us: f64,
    tail_us: f64,
    tail_percentile: f64,
    per_second_windows: Vec<f64>,
    rows_windows: Vec<f64>,
    p50_windows: Vec<f64>,
    tail_windows: Vec<f64>,
}

/// Turns samples into rates and percentiles, over the whole run and per
/// slice of it. Only correct replies count towards a rate or a latency.
///
/// The run is cut into slices of equal sample count, one per [`WINDOW`]
/// of its length; a slice's rate is its count over the time it spans. A
/// rate is the median of its slices, not completions over wall time: a
/// stall of a second (this is a shared host) then costs one slice, not a
/// share of the result. The slices are also the run's own spread, which
/// the comparator reads.
fn summarize(samples: &[Sample], measure: Duration) -> Summary {
    let mut good: Vec<&Sample> = samples.iter().filter(|s| s.correct).collect();
    good.sort_by_key(|s| s.done);
    let mut all: Vec<Duration> = good.iter().map(|s| s.latency).collect();
    let p = percentiles(&mut all);
    let mut summary = Summary {
        failed: (samples.len() - good.len()) as u64,
        per_second: 0.0,
        rows_per_second: 0.0,
        p50_us: p.p50_us,
        tail_us: p.tail_us,
        tail_percentile: p.tail_percentile,
        per_second_windows: Vec::new(),
        rows_windows: Vec::new(),
        p50_windows: Vec::new(),
        tail_windows: Vec::new(),
    };
    let slices =
        ((measure.as_secs_f64() / WINDOW.as_secs_f64()) as usize).clamp(1, good.len().max(1));
    let mut from = Duration::ZERO;
    for k in 0..slices {
        let slice = &good[k * good.len() / slices..(k + 1) * good.len() / slices];
        let Some(last) = slice.last() else { break };
        let span = (last.done - from).as_secs_f64().max(f64::MIN_POSITIVE);
        from = last.done;
        let mut latencies: Vec<Duration> = slice.iter().map(|s| s.latency).collect();
        let p = percentiles(&mut latencies);
        summary.per_second_windows.push(slice.len() as f64 / span);
        summary
            .rows_windows
            .push(slice.iter().map(|s| s.rows).sum::<u64>() as f64 / span);
        summary.p50_windows.push(p.p50_us);
        summary.tail_windows.push(p.tail_us);
    }
    if !good.is_empty() {
        summary.per_second = median(&mut summary.per_second_windows.clone());
        summary.rows_per_second = median(&mut summary.rows_windows.clone());
    }
    summary
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Copies the durable directory right after the last acknowledgement,
/// with the server still running, reopens the copy and requires every
/// acknowledged row — no more, no fewer — to be there. Returns the
/// verdict and how long the reopen (snapshot load + log replay) took.
///
/// The copy reads through the page cache, so it proves that acknowledged
/// writes reached the log file, not that they reached the device: the
/// sandbox cannot drop the cache.
fn durability_check(rig: &Rig, seed: u64, chunks: u64, run_dir: &Path) -> Result<(bool, f64)> {
    let copy = run_dir.join("recovered");
    copy_dir(&rig.wal_dir(), &copy)?;
    let started = Instant::now();
    let (recovered, _) = Server::open_durable(&copy, DurabilityOptions::default())?;
    let recovery_s = started.elapsed().as_secs_f64();
    let scale = rig::scale(seed);
    let rows = |server: &Server| {
        let db = server.snapshot();
        ["Offers", "Reviews"]
            .iter()
            .map(|t| db.table(t).map_or(0, |t| t.n_rows()))
            .sum::<usize>()
    };
    // Every chunk handed out was submitted, waited for and checked; a
    // chunk that was not acknowledged already counts as a failure.
    let acknowledged = scale.offers() + scale.reviews() + chunks as usize * CHUNK_ROWS;
    Ok((
        rows(&recovered) == acknowledged && rows(&rig.server) == acknowledged,
        recovery_s,
    ))
}
