//! Crash-recovery property tests for the durable storage engine
//! (`core::wal` + the epoch server), plus the epoch-isolation contracts
//! readers rely on.
//!
//! The durability property being enforced: **recovered state is exactly
//! the committed prefix**. A statement acknowledged to the client
//! survives `kill -9`; a statement refused (or in flight when the crash
//! hit) leaves no trace. The test drives a deterministic workload
//! against a durable server *and* an in-memory shadow database that
//! applies exactly the statements the durable server acknowledged, then
//! simulates a crash at a chosen statement with each WAL failpoint
//! action (torn-tail truncate, checksum corrupt, transient append/fsync
//! errors, a failed checkpoint), reopens, and requires the recovered
//! database to match both the shadow and the last pre-crash epoch —
//! tables, cell by cell, and catalog-statistics table cards.
//!
//! Seeds come from `GRAQL_FAULT_SEEDS` (comma-separated, default "1,2")
//! like the fault matrix; positions and row data derive from the seed.

use std::path::Path;

use graql::core::{Database, DurabilityOptions, Server};

fn seeds() -> Vec<u64> {
    let raw = std::env::var("GRAQL_FAULT_SEEDS").unwrap_or_else(|_| "1,2".to_string());
    raw.split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect()
}

/// Deterministic split-mix generator so the workload is reproducible
/// from the seed alone.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// Canonical text form of every base table: schema and each cell, in
/// catalog order. Two databases with equal fingerprints hold the same
/// data.
fn fingerprint(db: &Database) -> String {
    let mut out = String::new();
    for name in db.catalog().table_names() {
        let t = db.table(name).expect("cataloged table exists");
        out.push_str(name);
        out.push('(');
        for c in 0..t.n_cols() {
            out.push_str(&format!("{:?},", t.schema().columns()[c]));
        }
        out.push_str(")\n");
        for r in 0..t.n_rows() {
            for c in 0..t.n_cols() {
                out.push_str(&format!("{:?}|", t.get(r, c)));
            }
            out.push('\n');
        }
    }
    out
}

/// One workload step: a single-statement script (statement = commit
/// granularity, so acknowledged/refused is atomic per step) plus any
/// result table it captures.
fn gen_step(i: usize, mix: &mut Mix, data: &Path) -> (String, Option<String>) {
    if i == 0 {
        return ("create table D(a integer, b float)".into(), None);
    }
    if i % 2 == 1 {
        // Ingest a fresh CSV batch (file written here, resolved against
        // the data dir; the WAL inlines its text).
        let rows = 1 + (mix.next() % 5) as usize;
        let mut csv = String::new();
        for _ in 0..rows {
            csv.push_str(&format!("{},{}.5\n", mix.next() % 100, mix.next() % 10));
        }
        std::fs::write(data.join(format!("t{i}.csv")), csv).unwrap();
        (format!("ingest table D t{i}.csv"), None)
    } else {
        let cut = mix.next() % 50;
        (
            format!("select a from table D where a > {cut} into table R{i}"),
            Some(format!("R{i}")),
        )
    }
}

/// The crash menu: failpoint site + spec. `truncate`/`corrupt` poison
/// the WAL (a simulated crash leaving bad bytes on disk); `err` is
/// transient (the commit is refused, rolled back, and the server keeps
/// going).
const CRASHES: &[(&str, &str)] = &[
    ("core/wal/append", "1*truncate"),
    ("core/wal/append", "1*corrupt"),
    ("core/wal/append", "1*err"),
    ("core/wal/fsync", "1*err"),
];

const STEPS: usize = 9;

fn run_case(dir: &Path, seed: u64, site: &str, spec: &str, crash_at: usize) {
    let ctx = format!("seed {seed}, {site}={spec}, crash at {crash_at}");
    let _ = std::fs::remove_dir_all(dir);
    let data = dir.join("csv");
    std::fs::create_dir_all(&data).unwrap();

    let mut result_names: Vec<String> = Vec::new();
    let mut shadow = Database::new();
    shadow.set_data_dir(&data);

    let pre_crash_epoch;
    {
        let (server, report) =
            Server::open_durable(&dir.join("db"), DurabilityOptions::default()).unwrap();
        assert!(!report.snapshot_loaded, "{ctx}: fresh dir");
        server.database_mut().set_data_dir(&data);
        let mut sess = server.connect("admin").unwrap();
        let mut mix = Mix(seed);
        for i in 0..STEPS {
            let (stmt, result) = gen_step(i, &mut mix, &data);
            if i == crash_at {
                server.faults().arm(site, spec, seed).unwrap();
            }
            let outcome = sess.execute_script(&stmt);
            if i == crash_at {
                assert_eq!(server.faults().fired_count(site), 1, "{ctx}: fault fired");
            }
            // Acknowledged: the shadow applies the identical statement
            // (differential oracle). Refused: it must leave no trace, in
            // either world (on a poisoning crash every later commit is
            // refused too).
            if outcome.is_ok() {
                shadow.execute_script(&stmt).unwrap();
                if let Some(r) = result {
                    result_names.push(r);
                }
            }
        }
        pre_crash_epoch = server.snapshot();
        // Drop without checkpoint: on the poisoning cases the torn/corrupt
        // tail is still sitting at the end of wal.log.
    }

    let (server, _report) =
        Server::open_durable(&dir.join("db"), DurabilityOptions::default()).unwrap();
    let recovered = server.snapshot();

    // Recovered base tables == committed prefix, against both oracles.
    assert_eq!(
        fingerprint(&recovered),
        fingerprint(&shadow),
        "{ctx}: recovered != shadow"
    );
    assert_eq!(
        fingerprint(&recovered),
        fingerprint(&pre_crash_epoch),
        "{ctx}: recovered != last pre-crash epoch"
    );

    // Captured results replay too (no checkpoint intervened here).
    for r in &result_names {
        let rec = recovered
            .result_table(r)
            .unwrap_or_else(|| panic!("{ctx}: result {r} lost"));
        let sh = shadow.result_table(r).expect("shadow result");
        assert_eq!(rec.n_rows(), sh.n_rows(), "{ctx}: result {r} rows");
    }

    // Catalog-statistics table cards are replay-consistent: recovery goes
    // through ordinary execution, which refreshes the cards exactly like
    // the original run did.
    let shadow_cards = shadow.stats().unwrap().tables.clone();
    let rec_cards = server.database_mut().stats().unwrap().tables.clone();
    for name in shadow.catalog().table_names() {
        assert_eq!(
            rec_cards.get(name),
            shadow_cards.get(name),
            "{ctx}: catalog.stats card for {name}"
        );
    }

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn crash_recovery_matches_committed_prefix() {
    let base = std::env::temp_dir().join(format!("graql_walprop_{}", std::process::id()));
    for seed in seeds() {
        for (case, (site, spec)) in CRASHES.iter().enumerate() {
            // Crash at an early, middle and late statement.
            for crash_at in [1usize, STEPS / 2, STEPS - 1] {
                let dir = base.join(format!("s{seed}_c{case}_k{crash_at}"));
                run_case(&dir, seed, site, spec, crash_at);
            }
        }
    }
    std::fs::remove_dir_all(&base).ok();
}

/// A checkpoint that dies *between* writing its snapshot and swinging
/// `wal.meta` leaves an orphan snapshot generation behind. Recovery must
/// ignore it (the meta still names the old generation), replay the full
/// log, and sweep the orphan.
#[test]
fn failed_checkpoint_recovers_to_committed_prefix() {
    let dir = std::env::temp_dir().join(format!("graql_walckpt_{}", std::process::id()));
    for seed in seeds() {
        let _ = std::fs::remove_dir_all(&dir);
        let data = dir.join("csv");
        std::fs::create_dir_all(&data).unwrap();
        let mut shadow = Database::new();
        shadow.set_data_dir(&data);
        {
            let (server, _) =
                Server::open_durable(&dir.join("db"), DurabilityOptions::default()).unwrap();
            server.database_mut().set_data_dir(&data);
            let mut sess = server.connect("admin").unwrap();
            let mut mix = Mix(seed ^ 0xc0ffee);
            for i in 0..5 {
                let (stmt, _) = gen_step(i, &mut mix, &data);
                sess.execute_script(&stmt).unwrap();
                shadow.execute_script(&stmt).unwrap();
            }
            server
                .faults()
                .arm("core/wal/checkpoint", "1*err", seed)
                .unwrap();
            server.checkpoint_now().unwrap_err();
            assert_eq!(server.faults().fired_count("core/wal/checkpoint"), 1);
            // The server stays usable after the failed fold.
            let (stmt, _) = gen_step(5, &mut mix, &data);
            sess.execute_script(&stmt).unwrap();
            shadow.execute_script(&stmt).unwrap();
        }
        let (server, report) =
            Server::open_durable(&dir.join("db"), DurabilityOptions::default()).unwrap();
        assert!(
            !report.snapshot_loaded,
            "seed {seed}: the orphan snapshot must not be loaded"
        );
        assert_eq!(
            fingerprint(&server.snapshot()),
            fingerprint(&shadow),
            "seed {seed}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint that *succeeds* mid-workload folds the log: reopening
/// loads the snapshot and replays only post-checkpoint records, and base
/// tables still match the shadow exactly.
#[test]
fn successful_checkpoint_then_crash_recovers() {
    let dir = std::env::temp_dir().join(format!("graql_walfold_{}", std::process::id()));
    for seed in seeds() {
        let _ = std::fs::remove_dir_all(&dir);
        let data = dir.join("csv");
        std::fs::create_dir_all(&data).unwrap();
        let mut shadow = Database::new();
        shadow.set_data_dir(&data);
        {
            let (server, _) =
                Server::open_durable(&dir.join("db"), DurabilityOptions::default()).unwrap();
            server.database_mut().set_data_dir(&data);
            let mut sess = server.connect("admin").unwrap();
            let mut mix = Mix(seed ^ 0xf01d);
            for i in 0..7 {
                let (stmt, _) = gen_step(i, &mut mix, &data);
                sess.execute_script(&stmt).unwrap();
                shadow.execute_script(&stmt).unwrap();
                if i == 3 {
                    server.checkpoint_now().unwrap();
                }
            }
            // Crash (drop) with post-checkpoint records in the log.
        }
        let (server, report) =
            Server::open_durable(&dir.join("db"), DurabilityOptions::default()).unwrap();
        assert!(report.snapshot_loaded, "seed {seed}: snapshot used");
        assert!(
            report.replayed_records < 7,
            "seed {seed}: only the post-checkpoint suffix replays \
             (got {})",
            report.replayed_records
        );
        assert_eq!(
            fingerprint(&server.snapshot()),
            fingerprint(&shadow),
            "seed {seed}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Epoch isolation, timing-free: a reader completes — and sees a fully
/// consistent epoch — while the writer lock is *held*. If reads needed
/// any writer-side lock this test would deadlock (and the harness would
/// flag the hang), not flake.
#[test]
fn reads_complete_while_the_write_lock_is_held() {
    let mut db = Database::new();
    db.execute_script("create table T(a integer)").unwrap();
    db.ingest_str("T", "1\n2\n3\n").unwrap();
    let server = Server::new(db);
    let mut sess = server.connect("admin").unwrap();
    // Warm the read path so the current epoch has its graph views built
    // (first read after a mutation is the only point readers rendezvous
    // with the write lock).
    sess.execute_script("select a from table T").unwrap();

    let pinned = server.snapshot();
    let guard = server.database_mut(); // write lock held from here
    let s2 = server.clone();
    let reader = std::thread::spawn(move || {
        let mut sess = s2.connect("admin").unwrap();
        let outs = sess.execute_script("select a from table T").unwrap();
        match &outs[0] {
            graql::core::StmtOutput::Table(t) => t.n_rows(),
            other => panic!("expected a table, got {other:?}"),
        }
    });
    let rows = reader.join().expect("reader must not block on writers");
    assert_eq!(rows, 3);
    drop(guard);
    assert_eq!(pinned.table("T").unwrap().n_rows(), 3);
}

/// Statement-granularity consistency under a concurrent multi-batch
/// ingest: every row count a reader ever observes is a whole number of
/// committed batches — never a torn fraction of one.
#[test]
fn concurrent_reads_see_whole_committed_batches_only() {
    const BATCH: usize = 7;
    const BATCHES: usize = 12;
    let mut db = Database::new();
    db.execute_script("create table T(a integer)").unwrap();
    let server = Server::new(db);
    {
        // Warm the graph epoch so readers never visit the write lock.
        let mut sess = server.connect("admin").unwrap();
        sess.execute_script("select a from table T").unwrap();
    }

    let writer = {
        let s = server.clone();
        std::thread::spawn(move || {
            for _ in 0..BATCHES {
                // One statement-equivalent write per batch, through the
                // writer path (epoch install per batch).
                let mut guard = s.database_mut();
                let csv: String = (0..BATCH).map(|v| format!("{v}\n")).collect();
                guard.ingest_str("T", &csv).unwrap();
            }
        })
    };
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let s = server.clone();
            std::thread::spawn(move || {
                let mut sess = s.connect("admin").unwrap();
                loop {
                    let outs = sess.execute_script("select a from table T").unwrap();
                    let rows = match &outs[0] {
                        graql::core::StmtOutput::Table(t) => t.n_rows(),
                        other => panic!("expected a table, got {other:?}"),
                    };
                    assert_eq!(rows % BATCH, 0, "torn batch visible: {rows} rows");
                    if rows == BATCH * BATCHES {
                        return;
                    }
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
}

/// Regression: catalog-statistics table cards survive a crash/reopen
/// cycle — WAL replay routes through ordinary execution, which refreshes
/// the cards exactly like the original run.
#[test]
fn catalog_stats_cards_survive_recovery() {
    let dir = std::env::temp_dir().join(format!("graql_walcards_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let data = dir.join("csv");
    std::fs::create_dir_all(&data).unwrap();
    std::fs::write(data.join("n.csv"), "1,a\n2,b\n3,c\n").unwrap();
    let before;
    {
        let (server, _) =
            Server::open_durable(&dir.join("db"), DurabilityOptions::default()).unwrap();
        server.database_mut().set_data_dir(&data);
        let mut sess = server.connect("admin").unwrap();
        sess.execute_script("create table N(id integer, tag varchar(8))")
            .unwrap();
        sess.execute_script("ingest table N n.csv").unwrap();
        before = server.database_mut().stats().unwrap().tables.clone();
        assert_eq!(before.get("N").map(|c| c.rows), Some(3u64));
    }
    let (server, report) =
        Server::open_durable(&dir.join("db"), DurabilityOptions::default()).unwrap();
    assert_eq!(report.replayed_records, 2);
    let after = server.database_mut().stats().unwrap().tables.clone();
    assert_eq!(after.get("N"), before.get("N"), "table card for N");
    std::fs::remove_dir_all(&dir).ok();
}
