//! The fault matrix (TESTING.md): every compiled failpoint site, armed
//! one at a time under several deterministic seeds, against a live
//! client/server pair. The chaos contract being enforced:
//!
//! - **no panics, no hangs** — every case completes in bounded time;
//! - **transient faults are invisible** — the matrix arms bounded
//!   (`N*`-counted) faults, so every idempotent request (ping, describe,
//!   check, read-only submit) must eventually succeed through the
//!   client's retry machinery;
//! - **persistent faults are typed** — execution-cancellation and
//!   persistence faults surface as ordinary [`GraqlError`] values, never
//!   as truncated output or a wedged connection;
//! - **the rig recovers** — after each case a final ping on a fresh
//!   session must succeed;
//! - **the fault was real** — every armed case fired at least once.
//!
//! Faults are armed on the handle of the object under test: frame sites
//! once on the server and once on the session (both ends of the wire),
//! `net/client/*` on the session, everything else on the server. A fault
//! never reaches an object it was not armed on, so these tests run
//! concurrently with every other test in the process.
//!
//! Seeds come from `GRAQL_FAULT_SEEDS` (comma-separated, default "1,2";
//! CI runs "1,2,3").

use std::time::{Duration, Instant};

use graql::core::{Database, DurabilityOptions, Server};
use graql::net::{serve, ConnectOptions, GemsSession, NetServer, RemoteSession, ServeOptions};
use graql::types::failpoints::Faults;
use graql::GraqlError;
use graql_testkit::{FaultCase, FAULT_MATRIX};

fn seeds() -> Vec<u64> {
    let raw = std::env::var("GRAQL_FAULT_SEEDS").unwrap_or_else(|_| "1,2".to_string());
    raw.split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect()
}

fn small_db() -> Database {
    let mut db = Database::new();
    db.execute_script("create table T(id integer, v float)\ncreate vertex V(id) from table T")
        .unwrap();
    db.ingest_str("T", "1,1.5\n2,2.5\n3,\n").unwrap();
    db
}

fn rig(server: &Server) -> NetServer {
    serve(
        server.clone(),
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            ..ServeOptions::default()
        },
    )
    .unwrap()
}

fn opts() -> ConnectOptions {
    ConnectOptions::new("admin").with_timeout(Duration::from_secs(5))
}

const READ_ONLY: &str = "select id, v from table T where id >= 2 order by id";
/// Reaches the graph executor (candidate culling hosts `core/exec/batch`).
const GRAPH: &str = "select V.id from graph V(id >= 2)";

/// Sites whose armed action surfaces as a typed error on the request that
/// trips it (execution cancellation is not a transport fault, so the
/// client must *not* retry it).
fn may_fail_typed(site: &str) -> bool {
    site.starts_with("core/exec/")
}

/// Where a case is armed, `true` meaning the session: frame sites on
/// each end of the wire in turn, client sites on the session, the rest on
/// the server.
fn on_session(site: &str) -> &'static [bool] {
    match site.split('/').nth(1) {
        Some("frame") => &[false, true],
        Some("client") => &[true],
        _ => &[false],
    }
}

#[test]
fn every_site_every_seed_no_panics_no_hangs() {
    let net_cases: Vec<&FaultCase> = FAULT_MATRIX
        .iter()
        .filter(|c| {
            // persist/wal sites are driven by the WAL and persist tests
            // below and tests/wal_recovery.rs through reopen cycles;
            // net/repl sites by tests/replication.rs through reconnect
            // cycles (no replication stream runs in this rig).
            !c.site.starts_with("core/persist/")
                && !c.site.starts_with("core/wal/")
                && !c.site.starts_with("net/repl/")
        })
        .collect();
    for seed in seeds() {
        for case in &net_cases {
            for &session in on_session(case.site) {
                run_case(case, session, seed);
            }
        }
    }
}

fn run_case(case: &FaultCase, session: bool, seed: u64) {
    let end = if session { "session" } else { "server" };
    let ctx = format!("{}={} on the {end} (seed {seed})", case.site, case.spec);
    let start = Instant::now();
    let server = Server::new(small_db());
    let mut net = rig(&server);
    let addr = net.local_addr();
    if !session {
        server.faults().arm(case.site, case.spec, seed).unwrap();
    }

    // Connect must succeed — accept-time refusals are transient and
    // retried by the client.
    let mut sess = RemoteSession::connect(addr, opts())
        .unwrap_or_else(|e| panic!("connect failed with {ctx}: {e}"));
    if session {
        sess.faults().arm(case.site, case.spec, seed).unwrap();
    }

    let outcomes: [(&str, Result<(), GraqlError>); 5] = [
        ("ping", sess.ping()),
        ("describe", sess.describe().map(|_| ())),
        ("check", sess.check_script(READ_ONLY).map(|_| ())),
        ("submit", sess.execute_script(READ_ONLY).map(|_| ())),
        ("graph", sess.execute_script(GRAPH).map(|_| ())),
    ];
    for (what, outcome) in outcomes {
        match outcome {
            Ok(()) => {}
            Err(e) if may_fail_typed(case.site) => {
                // A typed error, not a transport failure in disguise: the
                // connection must remain usable.
                assert!(
                    !matches!(e, GraqlError::Net(_)),
                    "{what} with {ctx}: cancellation leaked as a transport error: {e}"
                );
            }
            Err(e) => panic!("{what} failed under transient fault {ctx}: {e}"),
        }
    }
    let faults = if session {
        sess.faults()
    } else {
        server.faults()
    };
    assert!(faults.fired_count(case.site) >= 1, "{ctx} never fired");

    // The matrix only arms bounded faults, so the rig must have
    // recovered: a fresh session's ping succeeds.
    let mut fresh = RemoteSession::connect(addr, opts()).unwrap();
    fresh
        .ping()
        .unwrap_or_else(|e| panic!("rig did not recover from {ctx}: {e}"));

    net.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "case {ctx} took {:?} — hang-adjacent",
        start.elapsed()
    );
}

/// Write-ahead-log faults: an `err` on append or fsync refuses the
/// commit with a typed error and rolls the log back to its durable
/// prefix — the statement's effects are *not* published, and the next
/// commit succeeds. A checkpoint `err` leaves the log intact and the
/// next checkpoint folds it. Nothing uncommitted ever survives a reopen.
#[test]
fn wal_faults_are_typed_and_transient() {
    let dir = std::env::temp_dir().join(format!("graql_fault_wal_{}", std::process::id()));
    for seed in seeds() {
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (server, _) = Server::open_durable(&dir, DurabilityOptions::default()).unwrap();
            let faults = server.faults();
            let mut sess = server.connect("admin").unwrap();
            sess.execute_script("create table T(id integer)").unwrap();

            for (site, table) in [("core/wal/append", "U"), ("core/wal/fsync", "V")] {
                let ddl = format!("create table {table}(id integer)");
                faults.arm(site, "1*err", seed).unwrap();
                let err = sess.execute_script(&ddl).unwrap_err();
                assert!(matches!(err, GraqlError::Ingest(_)), "{site} typed: {err}");
                assert_eq!(faults.fired_count(site), 1);
                // The refused statement's epoch was never published.
                assert!(server.snapshot().table(table).is_none(), "{site} rollback");
                // The bounded fault is spent: the retry commits cleanly.
                sess.execute_script(&ddl).unwrap();
            }

            faults.arm("core/wal/checkpoint", "1*err", seed).unwrap();
            let err = server.checkpoint_now().unwrap_err();
            assert!(matches!(err, GraqlError::Ingest(_)), "ckpt typed: {err}");
            assert_eq!(faults.fired_count("core/wal/checkpoint"), 1);
            // The log is intact; the retry folds it.
            server.checkpoint_now().unwrap();
        }
        // Reopen: exactly the acknowledged statements survive.
        let (server, report) = Server::open_durable(&dir, DurabilityOptions::default()).unwrap();
        assert!(report.snapshot_loaded, "checkpoint produced a snapshot");
        let db = server.snapshot();
        assert!(db.table("T").is_some() && db.table("U").is_some() && db.table("V").is_some());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Persistence faults: `save_dir`/`load_dir` fail with a typed ingest
/// error while armed, and succeed after the bounded fault drains.
#[test]
fn persist_faults_are_typed_and_transient() {
    use graql::core::{load_dir, save_dir};
    let dir = std::env::temp_dir().join(format!("graql_fault_persist_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for seed in seeds() {
        let db = small_db();
        let faults = Faults::default();
        faults.arm("core/persist/save-io", "1*err", seed).unwrap();
        let err = save_dir(&db, &dir, &faults).unwrap_err();
        assert!(matches!(err, GraqlError::Ingest(_)), "typed: {err}");
        assert_eq!(faults.fired_count("core/persist/save-io"), 1);
        // Second call: the 1* count is spent.
        save_dir(&db, &dir, &faults).unwrap();

        faults.arm("core/persist/load-io", "1*err", seed).unwrap();
        let err = load_dir(&dir, &faults).unwrap_err();
        assert!(matches!(err, GraqlError::Ingest(_)), "typed: {err}");
        assert_eq!(faults.fired_count("core/persist/load-io"), 1);
        let back = load_dir(&dir, &faults).unwrap();
        assert_eq!(back.table("T").unwrap().n_rows(), 3);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Faults are scoped to the object they were armed on. Two durable
/// servers, each behind its own network listener, share one process:
/// with unbounded WAL-append and frame-read faults armed on A, a thread
/// drives 100 commits and 100 remote queries against B while A keeps
/// failing. B sees no error at all.
#[test]
fn faults_do_not_cross_instances() {
    let base = std::env::temp_dir().join(format!("graql_fault_iso_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let open = |name: &str| {
        let (server, _) =
            Server::open_durable(&base.join(name), DurabilityOptions::default()).unwrap();
        server
            .connect("admin")
            .unwrap()
            .execute_script("create table T(id integer, v float)")
            .unwrap();
        let net = rig(&server);
        (server, net)
    };
    let (a, mut a_net) = open("a");
    let (b, mut b_net) = open("b");
    a.faults().arm("core/wal/append", "err", 1).unwrap();
    a.faults().arm("net/frame/read-err", "err", 1).unwrap();

    let b_addr = b_net.local_addr();
    let b_load = {
        let b = b.clone();
        std::thread::spawn(move || {
            let mut local = b.connect("admin").unwrap();
            let mut remote = RemoteSession::connect(b_addr, opts().with_retries(0)).unwrap();
            let mut errors = Vec::new();
            for i in 0..100 {
                if let Err(e) = local.execute_script(&format!("create table C{i}(id integer)")) {
                    errors.push(format!("commit {i}: {e}"));
                }
                if let Err(e) = remote.execute_script("select id, v from table T") {
                    errors.push(format!("query {i}: {e}"));
                }
            }
            errors
        })
    };
    let mut a_sess = a.connect("admin").unwrap();
    let a_addr = a_net.local_addr();
    let mut a_failures = 0;
    loop {
        assert!(
            a_sess.execute_script("create table X(id integer)").is_err(),
            "A's WAL fault must keep failing A's commits"
        );
        assert!(
            RemoteSession::connect(a_addr, opts().with_retries(0)).is_err(),
            "A's frame fault must keep failing A's connections"
        );
        a_failures += 1;
        if b_load.is_finished() {
            break;
        }
    }
    let b_errors = b_load.join().unwrap();
    assert!(b_errors.is_empty(), "A's faults reached B: {b_errors:?}");
    assert!(a.faults().fired_count("core/wal/append") >= a_failures);
    assert!(a.faults().fired_count("net/frame/read-err") >= a_failures);
    let b_db = b.snapshot();
    assert!((0..100).all(|i| b_db.table(&format!("C{i}")).is_some()));

    a_net.shutdown();
    b_net.shutdown();
    std::fs::remove_dir_all(&base).ok();
}
