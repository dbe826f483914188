//! Observability end-to-end tests (ISSUE 5): `profile` stage reporting on
//! the Berlin queries, the Prometheus exposition served by `gems-serve
//! --metrics-addr`, outcome-counter accounting under governance kills and
//! injected faults, and the structured slow-query log.
//!
//! The networked tests reuse the governance harness shape: a real
//! `gems-serve` child on loopback with faults armed through the
//! environment, so the counters observed here are the ones an operator's
//! scraper would see.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::Duration;

use graql::bsbm::{self, queries, Scale};
use graql::core::{Database, SessionOutput, StmtOutput};
use graql::net::{ConnectOptions, GemsSession, RemoteSession};
use graql::types::Value;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// A running `gems-serve` child (same shape as tests/governance.rs), plus
/// the metrics listener address when `--metrics-addr` was passed.
struct Serve {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: String,
    metrics_addr: Option<String>,
}

impl Serve {
    fn spawn_with(extra: &[&str], envs: &[(&str, &str)]) -> Serve {
        let want_metrics = extra.contains(&"--metrics-addr");
        let mut child = Command::new(env!("CARGO_BIN_EXE_gems-serve"))
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .envs(envs.iter().map(|&(k, v)| (k, v)))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("gems-serve spawns");
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        let banner = lines
            .next()
            .expect("a readiness line")
            .expect("readable stdout");
        let addr = banner
            .strip_prefix("gems-serve listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
            .to_string();
        let metrics_addr = if want_metrics {
            let line = lines
                .next()
                .expect("a metrics line")
                .expect("readable stdout");
            Some(
                line.strip_prefix("gems-serve metrics on http://")
                    .and_then(|l| l.strip_suffix("/metrics"))
                    .unwrap_or_else(|| panic!("unexpected metrics line: {line}"))
                    .to_string(),
            )
        } else {
            None
        };
        Serve {
            child,
            stdin,
            addr,
            metrics_addr,
        }
    }

    fn stop(mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The A/B fixtures of tests/governance.rs: every A connected to every B.
fn write_fixtures(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("graql_obs_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let n = 12;
    let a: String = (0..n).map(|i| format!("{i},{i}\n")).collect();
    let b: String = (0..n).map(|i| format!("{i},{}\n", i * 2)).collect();
    let ab: String = (0..n)
        .flat_map(|x| (0..n).map(move |y| format!("{x},{y}\n")))
        .collect();
    std::fs::write(dir.join("a.csv"), a).unwrap();
    std::fs::write(dir.join("b.csv"), b).unwrap();
    std::fs::write(dir.join("ab.csv"), ab).unwrap();
    dir
}

const SCHEMA: &str = "create table A(id integer, x integer)
create table B(id integer, y integer)
create table AB(a integer, b integer)
create vertex VA(id) from table A
create vertex VB(id) from table B
create edge ab with vertices (VA, VB) from table AB where AB.a = VA.id and AB.b = VB.id
ingest table A a.csv
ingest table B b.csv
ingest table AB ab.csv";

const QUICK: &str = "select id from table A where id = 1";
const RUNAWAY: &str = "select * from graph VA() { --ab--> VB() <--ab-- VA() }* --> VA()";

fn connect(addr: &str) -> RemoteSession {
    RemoteSession::connect(
        addr,
        ConnectOptions::new("admin").with_timeout(Duration::from_secs(20)),
    )
    .unwrap()
}

/// Scrapes the metrics listener over plain HTTP/1.1 and returns the body.
fn scrape(addr: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("metrics listener reachable");
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: gems\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    let (head, body) = buf
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in {buf:?}"));
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(
        head.contains("Content-Type: text/plain; version=0.0.4"),
        "{head}"
    );
    body.to_string()
}

/// Parses (and structurally validates) Prometheus text exposition into
/// series → value. Each family has exactly one `# HELP` line followed by
/// one `# TYPE` line, both before its first sample; its samples are not
/// split by another family's; and every sample is named for its family
/// (plus `_bucket`/`_sum`/`_count` for a histogram).
fn parse_prom(body: &str) -> HashMap<String, f64> {
    let mut out = HashMap::new();
    let mut families = HashSet::new();
    // The family whose `# HELP` came last, awaiting its `# TYPE`.
    let mut helped: Option<&str> = None;
    // The family (name, type) the following samples belong to.
    let mut current: Option<(&str, &str)> = None;
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap();
            assert!(families.insert(name), "family {name} declared twice");
            assert!(helped.is_none(), "# HELP without # TYPE before: {line}");
            helped = Some(name);
            current = None;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .unwrap_or_else(|| panic!("bad type line: {line}"));
            assert_eq!(
                helped.take(),
                Some(name),
                "# TYPE not after its # HELP: {line}"
            );
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "bad type: {line}"
            );
            current = Some((name, kind));
            continue;
        }
        assert!(!line.starts_with('#'), "bad comment line: {line}");
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("bad sample line: {line}"));
        assert!(
            series
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic()),
            "bad series name: {line}"
        );
        if series.contains('{') {
            assert!(series.ends_with('}'), "unclosed labels: {line}");
        }
        let (family, kind) =
            current.unwrap_or_else(|| panic!("sample before its # HELP/# TYPE: {line}"));
        let name = series.split('{').next().unwrap();
        let suffix = name.strip_prefix(family);
        assert!(
            suffix == Some("")
                || (kind == "histogram" && matches!(suffix, Some("_bucket" | "_sum" | "_count"))),
            "sample {name} is not in family {family}: {line}"
        );
        let v: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad sample value: {line}"));
        out.insert(series.to_string(), v);
    }
    assert!(helped.is_none(), "trailing # HELP without # TYPE");
    out
}

/// Extracts the per-outcome query counters from a scrape.
fn prom_outcomes(prom: &HashMap<String, f64>) -> HashMap<String, u64> {
    prom.iter()
        .filter_map(|(k, v)| {
            let label = k
                .strip_prefix("graql_queries_total{outcome=\"")?
                .strip_suffix("\"}")?;
            Some((label.to_string(), *v as u64))
        })
        .collect()
}

/// Extracts the per-outcome query counters from `describe` output
/// (the `queries: ok N, error N, …` line of the metrics section).
fn describe_outcomes(desc: &str) -> HashMap<String, u64> {
    let line = desc
        .lines()
        .find(|l| l.trim_start().starts_with("queries:"))
        .unwrap_or_else(|| panic!("no queries line in describe:\n{desc}"));
    line.trim_start()
        .strip_prefix("queries:")
        .unwrap()
        .split(',')
        .map(|pair| {
            let mut it = pair.split_whitespace();
            let name = it.next().unwrap().to_string();
            let n: u64 = it.next().unwrap().parse().unwrap();
            (name, n)
        })
        .collect()
}

/// Pulls the stage name list out of a profile's JSON form (in order).
fn json_stage_names(json: &str) -> Vec<String> {
    json.split("\"stage\":\"")
        .skip(1)
        .map(|rest| rest.split('"').next().unwrap().to_string())
        .collect()
}

// ---------------------------------------------------------------------------
// Local profiling: Berlin Q1 / Q2
// ---------------------------------------------------------------------------

fn berlin_db() -> Database {
    let data = bsbm::generate(Scale::new(300));
    let mut db = Database::new();
    db.execute_script(bsbm::schema_ddl()).unwrap();
    db.execute_script(bsbm::graph_ddl()).unwrap();
    bsbm::load(&mut db, &data).unwrap();
    db.set_param("Product1", Value::str("product0"));
    db.set_param("Country1", Value::str("US"));
    db.set_param("Country2", Value::str("DE"));
    db
}

fn profile_of(db: &mut Database, stmt: &str) -> graql::types::ProfileReport {
    let outs = db.execute_script(&format!("profile {stmt}")).unwrap();
    match outs.into_iter().next().unwrap() {
        StmtOutput::Profile(report) => report,
        other => panic!("expected profile output, got {other:?}"),
    }
}

/// `profile` on the Berlin graph phases reports every planner stage named
/// by `explain` (compile, candidates, culling, enumeration order,
/// enumerate, project) with nonzero wall time, and the relational phases
/// report the table-operator stages. The stage *set* is stable across
/// repeated runs of the same statement.
#[test]
fn profile_reports_planner_stages_for_berlin_q1_q2() {
    let mut db = berlin_db();
    // Materialize T1/T1q1 so the relational phases can be profiled too.
    db.execute_script(queries::q2()).unwrap();
    db.execute_script(queries::q1()).unwrap();

    let graph_stages = [
        "compile",
        "candidates",
        "culling",
        "enumeration_order",
        "enumerate",
        "project",
    ];
    for q in [queries::q1(), queries::q2()] {
        let (graph_stmt, rel_stmt) = q.split_once('\n').unwrap();
        // `profile` never captures results, so the `into table` clause
        // is dropped from the profiled form.
        let graph_stmt = graph_stmt.split(" into table ").next().unwrap();

        let report = profile_of(&mut db, graph_stmt);
        let names: Vec<&str> = report.stages.iter().map(|s| s.stage.name()).collect();
        assert_eq!(names, graph_stages, "graph-phase stage set for {q:?}");
        for s in &report.stages {
            assert!(s.nanos > 0, "stage {} has zero wall time", s.stage.name());
        }
        assert!(report.candidates_before_cull >= report.candidates_after_cull);
        // Guard accounting always renders (checkpoints fire only every
        // TICK_INTERVAL iterations, so the count itself may be zero at
        // this scale).
        assert!(report.render().contains("guard: "), "{}", report.render());

        // Stage set is stable: run the same statement again.
        let again = profile_of(&mut db, graph_stmt);
        let names2: Vec<&str> = again.stages.iter().map(|s| s.stage.name()).collect();
        assert_eq!(names, names2, "stage set unstable for {graph_stmt:?}");

        let rel = profile_of(&mut db, rel_stmt);
        let rel_names: Vec<&str> = rel.stages.iter().map(|s| s.stage.name()).collect();
        assert_eq!(
            rel_names,
            ["aggregate", "sort", "top"],
            "relational stage set for {rel_stmt:?}"
        );

        // Rendering and JSON carry the same stages.
        let text = report.render();
        assert!(text.starts_with("profile "), "{text}");
        assert!(text.contains("stages:"), "{text}");
        assert_eq!(json_stage_names(&report.to_json()), graph_stages);
    }
}

/// Stage wall times nest at most one level (`enumeration order` runs
/// inside `enumerate`), so the non-nested stage sum must not exceed the
/// measured total, and must account for most of it.
#[test]
fn profile_stage_timings_sum_to_about_total() {
    let mut db = berlin_db();
    let (graph_stmt, _) = queries::q2().split_once('\n').unwrap();
    let graph_stmt = graph_stmt.split(" into table ").next().unwrap();
    let report = profile_of(&mut db, graph_stmt);
    let nested: u64 = report
        .stages
        .iter()
        .filter(|s| s.stage.name() == "enumeration_order")
        .map(|s| s.nanos)
        .sum();
    let sum: u64 = report.stages.iter().map(|s| s.nanos).sum::<u64>() - nested;
    assert!(report.total_nanos > 0);
    assert!(
        sum <= report.total_nanos,
        "stage sum {sum} exceeds total {}",
        report.total_nanos
    );
    assert!(
        sum * 2 >= report.total_nanos,
        "stages {sum} account for less than half of total {}",
        report.total_nanos
    );
}

// ---------------------------------------------------------------------------
// Remote profiling
// ---------------------------------------------------------------------------

/// A `profile` statement over the wire returns the report rendered *where
/// the query ran*: the text a remote shell prints is the same rendering a
/// local session produces (modulo the measured numbers), with an
/// identical stage set in the JSON form.
#[test]
fn profile_over_the_wire_matches_local_shape() {
    let dir = write_fixtures("wire");
    let serve = Serve::spawn_with(&["--data-dir", dir.to_str().unwrap()], &[]);
    let mut remote = connect(&serve.addr);
    remote.execute_script(SCHEMA).unwrap();

    let stmt = "select id from table A where id = 1";
    let outs = remote.execute_script(&format!("profile {stmt}")).unwrap();
    let [SessionOutput::Profile { text, json }] = &outs[..] else {
        panic!("expected one profile output, got {outs:?}");
    };

    let mut local = Database::new();
    local.set_data_dir(dir.to_str().unwrap().to_string());
    local.execute_script(SCHEMA).unwrap();
    let local_report = profile_of(&mut local, stmt);

    // Same first line (the profiled statement), same stage set.
    assert_eq!(
        text.lines().next(),
        local_report.render().lines().next(),
        "local and remote profile headers diverge"
    );
    assert_eq!(
        json_stage_names(json),
        json_stage_names(&local_report.to_json())
    );
    assert!(text.contains("stages:"), "{text}");
    assert!(text.contains("total:"), "{text}");

    serve.stop();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

/// `--metrics-addr` serves parseable Prometheus text whose query-outcome
/// counters agree with `describe` and grow monotonically across a
/// 4-client query burst.
#[test]
fn prometheus_counters_parse_agree_with_describe_and_are_monotonic() {
    let dir = write_fixtures("prom");
    let serve = Serve::spawn_with(
        &[
            "--data-dir",
            dir.to_str().unwrap(),
            "--metrics-addr",
            "127.0.0.1:0",
        ],
        &[],
    );
    let maddr = serve.metrics_addr.clone().expect("metrics listener up");
    let mut setup = connect(&serve.addr);
    setup.execute_script(SCHEMA).unwrap();

    let before = prom_outcomes(&parse_prom(&scrape(&maddr)));
    let ok_before = before.get("ok").copied().unwrap_or(0);

    // 4 clients, 4 queries each, with interleaved scrapes that must each
    // be valid and non-decreasing.
    let mut last_ok = ok_before;
    for _round in 0..2 {
        let addr = serve.addr.clone();
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut s = connect(&addr);
                    for _ in 0..2 {
                        s.execute_script(QUICK).unwrap();
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        let mid = prom_outcomes(&parse_prom(&scrape(&maddr)));
        let ok_mid = mid.get("ok").copied().unwrap_or(0);
        assert!(ok_mid >= last_ok, "ok counter went backwards");
        last_ok = ok_mid;
    }
    assert!(
        last_ok >= ok_before + 16,
        "expected >= 16 new ok queries, got {ok_before} -> {last_ok}"
    );

    // Quiescent now: describe and the exposition must agree exactly.
    let desc = setup.describe().unwrap();
    let body = scrape(&maddr);
    let prom = parse_prom(&body);
    assert_eq!(describe_outcomes(&desc), prom_outcomes(&prom));

    // The net-layer metrics ride along in the same exposition.
    assert!(prom.contains_key("graql_net_connections_total"), "{body}");
    assert!(prom.contains_key("graql_net_requests_total"), "{body}");

    serve.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Governance kills land in the right outcome counters: a deadline kill
/// increments `outcome="deadline"`, a result-row budget trip increments
/// `outcome="budget"`.
#[test]
fn governance_kills_increment_outcome_counters() {
    // Deadline: every exec batch is delayed past the request timeout.
    let dir = write_fixtures("deadline");
    let serve = Serve::spawn_with(
        &[
            "--data-dir",
            dir.to_str().unwrap(),
            "--metrics-addr",
            "127.0.0.1:0",
            "--request-timeout-ms",
            "100",
        ],
        &[("GRAQL_FAILPOINTS", "core/exec/batch=delay(150)")],
    );
    let maddr = serve.metrics_addr.clone().unwrap();
    let mut s = connect(&serve.addr);
    s.execute_script(SCHEMA).unwrap();
    s.execute_script(RUNAWAY).expect_err("deadline kill");
    let outcomes = prom_outcomes(&parse_prom(&scrape(&maddr)));
    assert!(
        outcomes.get("deadline").copied().unwrap_or(0) >= 1,
        "deadline kill not counted: {outcomes:?}"
    );
    serve.stop();
    std::fs::remove_dir_all(&dir).ok();

    // Budget: a full scan exceeds --max-result-rows 1.
    let dir = write_fixtures("budget");
    let serve = Serve::spawn_with(
        &[
            "--data-dir",
            dir.to_str().unwrap(),
            "--metrics-addr",
            "127.0.0.1:0",
            "--max-result-rows",
            "1",
        ],
        &[],
    );
    let maddr = serve.metrics_addr.clone().unwrap();
    let mut s = connect(&serve.addr);
    s.execute_script(SCHEMA).unwrap();
    s.execute_script("select id from table A")
        .expect_err("budget trip");
    let outcomes = prom_outcomes(&parse_prom(&scrape(&maddr)));
    assert!(
        outcomes.get("budget").copied().unwrap_or(0) >= 1,
        "budget kill not counted: {outcomes:?}"
    );
    serve.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// A failpoint-armed execution error moves the error counter; once the
/// fault's firing count is exhausted the ok counter moves again.
#[test]
fn failpoint_errors_move_error_counter() {
    let dir = write_fixtures("faulterr");
    // `core/exec/cancel` injects a typed *execution* error (the batch
    // site injects a cancellation, which lands in its own counter).
    let serve = Serve::spawn_with(
        &[
            "--data-dir",
            dir.to_str().unwrap(),
            "--metrics-addr",
            "127.0.0.1:0",
        ],
        &[("GRAQL_FAILPOINTS", "core/exec/cancel=1*err")],
    );
    let maddr = serve.metrics_addr.clone().unwrap();
    let mut s = connect(&serve.addr);
    s.execute_script(SCHEMA).expect_err("injected error");
    s.execute_script(SCHEMA).expect("fault count exhausted");
    s.execute_script(QUICK).unwrap();
    let outcomes = prom_outcomes(&parse_prom(&scrape(&maddr)));
    assert!(
        outcomes.get("error").copied().unwrap_or(0) >= 1,
        "injected error not counted: {outcomes:?}"
    );
    assert!(
        outcomes.get("ok").copied().unwrap_or(0) >= 1,
        "recovered query not counted: {outcomes:?}"
    );
    serve.stop();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------------

/// With `--slow-query-ms 0` every query is an offender: the log gains one
/// JSON line per query with the user, latency, outcome and the attached
/// profile, and every armed profile reaches the registry's profile counter
/// and stage histograms.
#[test]
fn slow_query_log_attaches_profiles() {
    let dir = write_fixtures("slowlog");
    let log = dir.join("slow.jsonl");
    let serve = Serve::spawn_with(
        &[
            "--data-dir",
            dir.to_str().unwrap(),
            "--slow-query-ms",
            "0",
            "--slow-query-log",
            log.to_str().unwrap(),
        ],
        &[],
    );
    let mut s = connect(&serve.addr);
    s.execute_script(SCHEMA).unwrap();
    const N: u64 = 3;
    for _ in 0..N {
        s.execute_script(QUICK).unwrap();
    }
    // Every submit ran with a profile armed, and each one is folded into
    // the registry, not only `profile` statements.
    let prom = parse_prom(&s.metrics().unwrap());
    assert!(
        prom["graql_profiles_recorded_total"] >= N as f64,
        "profiles_recorded below {N}: {prom:?}"
    );
    assert!(
        prom.iter()
            .any(|(k, v)| k.starts_with("graql_stage_duration_nanoseconds_count{") && *v > 0.0),
        "no stage histogram observed: {prom:?}"
    );
    serve.stop();

    let body = std::fs::read_to_string(&log).expect("slow-query log written");
    let line = body
        .lines()
        .find(|l| l.contains("\"outcome\":\"ok\""))
        .unwrap_or_else(|| panic!("no ok offender line in:\n{body}"));
    assert!(line.starts_with("{\"slow_query\":{"), "{line}");
    assert!(line.contains("\"user\":\"admin\""), "{line}");
    assert!(line.contains("\"micros\":"), "{line}");
    assert!(line.contains("\"profile\":{"), "{line}");
    assert!(line.contains("\"stages\":["), "{line}");
    std::fs::remove_dir_all(&dir).ok();
}
