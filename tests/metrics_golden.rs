//! Golden renderings of the metrics surfaces: the Prometheus exposition
//! body served by `--metrics-addr` and `Msg::Metrics`, and the
//! `metrics:` / `net:` / `repl:` sections of `describe`.
//!
//! Every counter, gauge and histogram is set to a fixed, distinct value,
//! so both renderings are deterministic and compared byte-for-byte
//! against `tests/metrics/*.expected`. Nothing is masked: a renamed
//! family, a reordered line or a changed help string fails here.
//!
//! Regenerate after an intentional output change with
//! `GOLDEN_BLESS=1 cargo test --test metrics_golden`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use graql::core::{Database, Server};
use graql::net::server::metrics_text;
use graql::net::NetStats;
use graql::types::obs::StageLine;
use graql::types::{ProfileReport, QueryOutcome, Stage, WalMetrics};

/// A report carrying two stages, for the stage histograms.
fn report(cull_nanos: u64, sort_nanos: u64) -> ProfileReport {
    let line = |stage, nanos| StageLine {
        stage,
        nanos,
        calls: 1,
        rows_in: 0,
        rows_out: 0,
    };
    ProfileReport {
        statement: String::new(),
        plan: String::new(),
        stages: vec![line(Stage::Cull, cull_nanos), line(Stage::Sort, sort_nanos)],
        total_nanos: 0,
        rows: 0,
        bytes: 0,
        candidates_before_cull: 0,
        candidates_after_cull: 0,
        guard_ticks: 0,
    }
}

/// An in-memory server whose registry (with WAL and plan-cache metrics
/// attached) holds fixed values, and wire counters with two replica
/// lag entries.
fn fixture() -> (Server, NetStats) {
    let server = Server::new(Database::new());
    // The first `describe` computes statistics and publishes an epoch,
    // which flushes the plan cache; doing it now keeps the fixed
    // plan-cache values below in both renderings.
    server.describe().unwrap();
    let m = server.metrics();
    let outcomes = [
        QueryOutcome::Ok,
        QueryOutcome::Error,
        QueryOutcome::Cancelled,
        QueryOutcome::Deadline,
        QueryOutcome::Budget,
        QueryOutcome::Shed,
    ];
    for (i, o) in outcomes.into_iter().enumerate() {
        for _ in 0..=i {
            m.note_outcome(o);
        }
    }
    m.rows_streamed.add(101);
    m.bytes_streamed.add(102);
    m.profiles_recorded.add(3);
    m.slow_queries.add(4);
    for nanos in [500, 5_000, 2_000_000, 20_000_000_000] {
        m.observe_query_nanos(nanos);
    }
    m.observe_report(&report(3_000, 70_000));
    m.observe_report(&report(900, 1_500_000));

    let pc = m.plan_cache().expect("servers attach a plan cache");
    pc.hits.add(11);
    pc.misses.add(12);
    pc.evictions.add(13);
    pc.set_entries(14);

    let wal = Arc::new(WalMetrics::new());
    wal.note_group_commit(3, 1_500);
    wal.note_group_commit(5, 40_000);
    wal.checkpoints.add(21);
    wal.checkpoint_nanos.observe(3_000_000);
    wal.replayed_records.add(22);
    wal.torn_bytes_discarded.add(23);
    m.attach_wal(wal);

    let stats = NetStats::default();
    let fields: [&AtomicU64; 24] = [
        &stats.connections_total,
        &stats.connections_active,
        &stats.connections_refused,
        &stats.msgs_in,
        &stats.msgs_out,
        &stats.bytes_in,
        &stats.bytes_out,
        &stats.requests,
        &stats.request_micros_total,
        &stats.request_micros_max,
        &stats.queries_shed,
        &stats.queries_cancelled,
        &stats.queries_deadline_killed,
        &stats.queries_budget_killed,
        &stats.query_peak_bytes,
        &stats.retries,
        &stats.reconnects,
        &stats.failovers,
        &stats.repl_replicas_connected,
        &stats.repl_batches_shipped,
        &stats.repl_records_shipped,
        &stats.repl_snapshot_chunks,
        &stats.repl_acks,
        &stats.repl_heartbeats,
    ];
    for (i, field) in fields.into_iter().enumerate() {
        field.store(31 + 7 * i as u64, Ordering::Relaxed);
    }
    stats.note_repl_lag("10.0.0.2:7000", 7);
    stats.note_repl_lag("10.0.0.1:7000", 3);
    (server, stats)
}

/// Compares `got` with `tests/metrics/<name>.expected`, or rewrites the
/// file under `GOLDEN_BLESS`.
fn check_golden(name: &str, got: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/metrics");
    let path = dir.join(format!("{name}.expected"));
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("{name}: missing .expected (run with GOLDEN_BLESS=1)"));
    assert!(
        got == expected,
        "{name}: output diverged from {} (re-bless intentional changes with \
         GOLDEN_BLESS=1)\n--- expected ---\n{expected}\n--- got ---\n{got}",
        path.display()
    );
}

#[test]
fn exposition_golden() {
    let (server, stats) = fixture();
    check_golden("exposition", &metrics_text(&server, &stats));
}

/// The wire `describe` reply: the server's report, a blank line, then the
/// `net:` and `repl:` sections. Only the metrics sections are pinned; the
/// catalog part above them belongs to other tests.
#[test]
fn describe_golden() {
    let (server, stats) = fixture();
    let text = format!("{}\n{}", server.describe().unwrap(), stats.render());
    let start = text.find("metrics:\n").expect("a metrics section");
    check_golden("describe", &text[start..]);
}
