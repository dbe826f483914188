//! End-to-end property tests for WAL-shipping replication
//! (`core::wal` shipping + `net::replica` tailing + promotion +
//! client failover).
//!
//! The replication contract being enforced, in three parts:
//!
//! 1. **Acknowledged writes survive primary loss.** A workload runs
//!    against a served durable primary with a live replica tailing it,
//!    while an in-memory shadow applies exactly the statements the
//!    primary acknowledged. The primary is crashed at a chosen statement
//!    under each WAL crash action (torn-tail truncate, checksum corrupt,
//!    transient append/fsync errors), the replica is promoted over the
//!    wire, and the promoted node must match the shadow cell by cell —
//!    and accept writes.
//! 2. **Replica reads are byte-identical to the primary.** The BSBM
//!    corpus is replayed through the primary (so every statement is
//!    WAL-logged and ships), the replica drains, and the seeded oracle
//!    scripts must render identically from a local primary session and a
//!    remote replica session.
//! 3. **Streams resume exactly.** Each `net/repl/{stream,apply,ack}`
//!    failpoint kills the subscription at a different point
//!    (before-send, before-apply, after-apply-before-ack); the tailer
//!    must reconnect and converge with no record applied twice or
//!    skipped — proven by LSN and fingerprint equality with the primary.
//!
//! Seeds come from `GRAQL_FAULT_SEEDS` (comma-separated, default "1,2");
//! the oracle corpus size from `GRAQL_ORACLE_SCRIPTS` (default 200).
//!
//! Faults are armed on the server that owns the site: the primary for
//! its WAL and its stream (`net/repl/stream`), the replica for what its
//! tailer does (`net/repl/{apply,ack}`). A fault armed on one node never
//! fires on the other or on another test's rig, so the tests run
//! concurrently.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use graql::core::{Database, DurabilityOptions, Server};
use graql::net::{
    serve, start_tailer, ConnectOptions, GemsSession, NetServer, RemoteSession, ReplicaTailer,
    RetryPolicy, ServeOptions,
};
use graql::types::failpoints::Faults;
use graql_testkit::{render_outcome, ScriptGen};

fn seeds() -> Vec<u64> {
    let raw = std::env::var("GRAQL_FAULT_SEEDS").unwrap_or_else(|_| "1,2".to_string());
    raw.split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect()
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Deterministic split-mix generator so the workload is reproducible
/// from the seed alone (same scheme as tests/wal_recovery.rs).
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
/// catalog order. Equal fingerprints ⇒ same data (a record applied
/// twice or skipped shows up as extra/missing rows).
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
/// granularity) plus any result table it captures.
fn gen_step(i: usize, mix: &mut Mix, data: &Path) -> (String, Option<String>) {
    if i == 0 {
        return ("create table D(a integer, b float)".into(), None);
    }
    if i % 2 == 1 {
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

/// A snappy backoff so reconnect loops converge quickly in-process.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 2,
        base_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(100),
        jitter_seed: 7,
    }
}

/// A served durable primary plus a durable replica tailing it.
struct Rig {
    primary: Server,
    primary_net: NetServer,
    replica: Server,
    replica_net: NetServer,
    tailer: ReplicaTailer,
}

impl Rig {
    fn new(dir: &Path) -> Rig {
        let (primary, _) =
            Server::open_durable(&dir.join("primary"), DurabilityOptions::default()).unwrap();
        let primary_net = serve(primary.clone(), ServeOptions::default()).unwrap();
        let primary_addr = primary_net.local_addr().to_string();

        let (replica, _) =
            Server::open_durable(&dir.join("replica"), DurabilityOptions::default()).unwrap();
        replica.set_replica_of(primary_addr.clone());
        let replica_net = serve(replica.clone(), ServeOptions::default()).unwrap();
        let tailer = start_tailer(
            replica.clone(),
            primary_addr,
            fast_retry(),
            replica_net.stats(),
        );
        Rig {
            primary,
            primary_net,
            replica,
            replica_net,
            tailer,
        }
    }

    fn primary_addr(&self) -> SocketAddr {
        self.primary_net.local_addr()
    }

    fn replica_addr(&self) -> SocketAddr {
        self.replica_net.local_addr()
    }

    /// Waits until the replica's durable watermark reaches the primary's
    /// current one and the batch that got it there is visible. Panics
    /// (with context) if replication stalls.
    fn drain(&self, ctx: &str) {
        let target = self.primary.wal_durable_lsn();
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.replica.wal_durable_lsn() < target {
            assert!(
                Instant::now() < deadline,
                "{ctx}: replica stuck at lsn {} waiting for {target}",
                self.replica.wal_durable_lsn()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // A replica logs a batch durably before it publishes the batch's
        // epoch, both under its write lock: taking that lock waits out
        // the publish.
        drop(self.replica.database_mut());
    }

    fn admin(&self, addr: SocketAddr) -> RemoteSession {
        RemoteSession::connect(
            addr,
            ConnectOptions::new("admin")
                .with_timeout(Duration::from_secs(30))
                .with_retry_policy(fast_retry()),
        )
        .unwrap()
    }

    fn shutdown(mut self) {
        self.tailer.stop();
        self.primary_net.shutdown();
        self.replica_net.shutdown();
    }
}

/// The crash menu, as in tests/wal_recovery.rs: failpoint site + spec +
/// whether the fault poisons the primary's WAL (simulated crash — every
/// later commit fails too) or is transient (the one commit is refused).
const CRASHES: &[(&str, &str)] = &[
    ("core/wal/append", "1*truncate"),
    ("core/wal/append", "1*corrupt"),
    ("core/wal/append", "1*err"),
    ("core/wal/fsync", "1*err"),
];

const STEPS: usize = 9;

/// One crash-and-promote case: run the workload with a crash fault armed
/// at `crash_at`, kill the primary, promote the replica over the wire,
/// and require the promoted node to equal the shadow of acknowledged
/// statements — then accept writes.
fn run_crash_case(dir: &Path, seed: u64, site: &str, spec: &str, crash_at: usize) {
    let ctx = format!("seed {seed}, {site}={spec}, crash at {crash_at}");
    let _ = std::fs::remove_dir_all(dir);
    let data = dir.join("csv");
    std::fs::create_dir_all(&data).unwrap();

    let rig = Rig::new(dir);
    rig.primary.database_mut().set_data_dir(&data);

    let mut shadow = Database::new();
    shadow.set_data_dir(&data);
    let mut result_names: Vec<String> = Vec::new();

    let mut sess = rig.primary.connect("admin").unwrap();
    let mut mix = Mix(seed);
    for i in 0..STEPS {
        let (stmt, result) = gen_step(i, &mut mix, &data);
        if i == crash_at {
            // Let the replica catch up first: a crashed (poisoned)
            // primary log serves no new subscription, so a tailer still
            // reconnecting would never see the acknowledged prefix.
            rig.drain(&ctx);
            rig.primary.faults().arm(site, spec, seed).unwrap();
        }
        let outcome = sess.execute_script(&stmt);
        if i == crash_at {
            let fired = rig.primary.faults().fired_count(site);
            assert_eq!(fired, 1, "{ctx}: the primary's fault fired");
        }
        if outcome.is_ok() {
            // Acknowledged: the shadow applies the identical statement.
            shadow.execute_script(&stmt).unwrap();
            if let Some(r) = result {
                result_names.push(r);
            }
        }
        // Refused commits (fault at crash_at, or every later commit on
        // the poisoning cases) must leave no trace anywhere.
    }

    // Everything acknowledged is durable on the primary; let the replica
    // catch up, then crash the primary (listener down, server dropped —
    // the durability of a hard kill is wal_recovery's department; here
    // the replica must carry on alone).
    rig.drain(&ctx);
    let Rig {
        primary,
        mut primary_net,
        replica,
        replica_net,
        tailer,
        ..
    } = rig;
    drop(sess);
    primary_net.shutdown();
    drop(primary_net);
    drop(primary);

    // Promote over the wire; the tailer notices and exits.
    let mut admin = RemoteSession::connect(
        replica_net.local_addr(),
        ConnectOptions::new("admin").with_timeout(Duration::from_secs(30)),
    )
    .unwrap();
    admin
        .promote()
        .unwrap_or_else(|e| panic!("{ctx}: promote: {e}"));
    assert!(!replica.is_replica(), "{ctx}: promotion fences the role");
    let mut tailer = tailer;
    tailer.stop();

    // Zero acknowledged writes lost: the promoted node equals the shadow.
    let promoted = replica.snapshot();
    assert_eq!(
        fingerprint(&promoted),
        fingerprint(&shadow),
        "{ctx}: promoted replica != shadow of acknowledged statements"
    );
    for r in &result_names {
        let rep = promoted
            .result_table(r)
            .unwrap_or_else(|| panic!("{ctx}: captured result {r} lost"));
        let sh = shadow.result_table(r).expect("shadow result");
        assert_eq!(rep.n_rows(), sh.n_rows(), "{ctx}: result {r} rows");
    }

    // The promoted node is writable — over the same wire session.
    admin
        .execute_script("create table Promoted(a integer)")
        .unwrap_or_else(|e| panic!("{ctx}: post-promote write refused: {e}"));

    let mut replica_net = replica_net;
    replica_net.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn crash_primary_then_promote_loses_no_acknowledged_writes() {
    let base = std::env::temp_dir().join(format!("graql_replcrash_{}", std::process::id()));
    for seed in seeds() {
        for (case, (site, spec)) in CRASHES.iter().enumerate() {
            for crash_at in [1usize, STEPS / 2, STEPS - 1] {
                let dir = base.join(format!("s{seed}_c{case}_k{crash_at}"));
                run_crash_case(&dir, seed, site, spec, crash_at);
            }
        }
    }
    std::fs::remove_dir_all(&base).ok();
}

/// A lag-drained replica answers the seeded oracle corpus byte-identically
/// to the primary: the BSBM database is replayed *through* the primary
/// session (so every statement is WAL-logged and ships), and each script
/// renders from a local primary session and a remote replica session.
#[test]
fn drained_replica_reads_byte_identical_to_primary() {
    let dir = std::env::temp_dir().join(format!("graql_replora_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Materialize the BSBM corpus as DDL + CSV, the same form the persist
    // layer replays, then feed it to the primary statement by statement.
    let bsbm = graql::bsbm::build_database(graql::bsbm::Scale::new(40)).unwrap();
    let corpus = dir.join("bsbm");
    graql::core::save_dir(&bsbm, &corpus, &Faults::default()).unwrap();
    let script = std::fs::read_to_string(corpus.join("catalog.graql")).unwrap();

    let rig = Rig::new(&dir);
    rig.primary.database_mut().set_data_dir(&corpus);
    let mut local = rig.primary.connect("admin").unwrap();
    local.execute_script(&script).unwrap();
    rig.drain("oracle corpus");

    let mut remote = rig.admin(rig.replica_addr());
    let n = env_u64("GRAQL_ORACLE_SCRIPTS", 200);
    let mut gen = ScriptGen::new(env_u64("GRAQL_ORACLE_SEED", 1));
    for i in 0..n {
        let script = gen.next_script();
        let on_primary = render_outcome(&local.execute_script_sealed(&script));
        let on_replica = render_outcome(&remote.execute_script(&script));
        assert_eq!(
            on_primary, on_replica,
            "script {i} diverged between primary and replica:\n{script}"
        );
    }

    rig.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Each replication failpoint kills the subscription at a different
/// point; the tailer must reconnect and resume **exactly** — the replica
/// converges to the primary's durable LSN with identical contents, so no
/// record was applied twice (duplicate rows) or skipped (missing rows).
#[test]
fn repl_failpoints_reconnect_and_resume_exactly() {
    let sites = ["net/repl/stream", "net/repl/apply", "net/repl/ack"];
    let base = std::env::temp_dir().join(format!("graql_replfp_{}", std::process::id()));
    for seed in seeds() {
        for (case, site) in sites.iter().enumerate() {
            let ctx = format!("seed {seed}, {site}");
            let dir = base.join(format!("s{seed}_f{case}"));
            let _ = std::fs::remove_dir_all(&dir);
            let data = dir.join("csv");
            std::fs::create_dir_all(&data).unwrap();

            let rig = Rig::new(&dir);
            rig.primary.database_mut().set_data_dir(&data);
            let mut sess = rig.primary.connect("admin").unwrap();
            let mut mix = Mix(seed ^ 0xfa11);

            // A healthy stream first, so the fault hits a live
            // subscription rather than the initial sync.
            for i in 0..3 {
                let (stmt, _) = gen_step(i, &mut mix, &data);
                sess.execute_script(&stmt).unwrap();
            }
            rig.drain(&ctx);
            let before = rig
                .replica_net
                .stats()
                .reconnects
                .load(std::sync::atomic::Ordering::Relaxed);

            // The primary ships the stream; the replica's tailer
            // applies and acks it. The fault fires once (killing the
            // stream mid-batch), and the reconnect + exact resume happen
            // while it stays armed but exhausted.
            let owner = match *site {
                "net/repl/stream" => &rig.primary,
                _ => &rig.replica,
            };
            owner.faults().arm(site, "1*err", seed).unwrap();
            for i in 3..7 {
                let (stmt, _) = gen_step(i, &mut mix, &data);
                sess.execute_script(&stmt).unwrap();
            }
            rig.drain(&ctx);
            assert_eq!(owner.faults().fired_count(site), 1, "{ctx}: fault fired");

            let after = rig
                .replica_net
                .stats()
                .reconnects
                .load(std::sync::atomic::Ordering::Relaxed);
            assert!(
                after > before,
                "{ctx}: the fault must have killed the stream (reconnects {before} -> {after})"
            );
            assert_eq!(
                rig.replica.wal_durable_lsn(),
                rig.primary.wal_durable_lsn(),
                "{ctx}: replica watermark diverged"
            );
            assert_eq!(
                fingerprint(&rig.replica.snapshot()),
                fingerprint(&rig.primary.snapshot()),
                "{ctx}: contents diverged after reconnect (applied twice or skipped)"
            );

            rig.shutdown();
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    std::fs::remove_dir_all(&base).ok();
}

/// Client failover: a write sent to a replica is fenced with the typed
/// `E0911 NotPrimary` error carrying the primary's address, and the
/// remote session redirects it; after the primary dies, read-only
/// requests fail over to the replica; after promotion, a fresh session
/// writes to the ex-replica.
#[test]
fn writes_redirect_and_reads_fail_over() {
    let dir = std::env::temp_dir().join(format!("graql_replfail_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let rig = Rig::new(&dir);
    let (paddr, raddr) = (rig.primary_addr(), rig.replica_addr());

    // An in-process session on the replica sees the raw fence.
    let mut rsess = rig.replica.connect("admin").unwrap();
    let err = rsess
        .execute_script("create table F(a integer)")
        .expect_err("a replica must fence writes");
    assert_eq!(err.redirect_to(), Some(paddr.to_string().as_str()));
    assert!(err.to_string().contains("not primary"), "{err}");

    // A remote session connected to the *replica* transparently redirects
    // the write to the primary.
    let mut wsess = rig.admin(raddr);
    wsess
        .execute_script("create table F(a integer)")
        .expect("the write must be redirected to the primary");
    assert_eq!(
        wsess.connected_addr(),
        paddr,
        "redirect lands on the primary"
    );
    assert!(wsess.failovers() >= 1, "the redirect counts as a failover");
    rig.drain("redirected write");
    assert!(
        rig.replica.snapshot().table("F").is_some(),
        "the redirected write replicates back"
    );

    // Reads fail over when the primary dies.
    let mut reader = RemoteSession::connect(
        &[paddr, raddr][..],
        ConnectOptions::new("admin")
            .with_timeout(Duration::from_secs(30))
            .with_retry_policy(fast_retry()),
    )
    .unwrap();
    reader.execute_script("select a from table F").unwrap();
    assert_eq!(reader.connected_addr(), paddr);
    let Rig {
        primary,
        mut primary_net,
        replica,
        mut replica_net,
        mut tailer,
        ..
    } = rig;
    primary_net.shutdown();
    drop(primary_net);
    drop(primary);
    reader
        .execute_script("select a from table F")
        .expect("read-only requests retry onto the surviving replica");
    assert_eq!(reader.connected_addr(), raddr, "read failed over");
    assert!(reader.failovers() >= 1);

    // Promote; a fresh session (trying the dead primary first) lands on
    // the ex-replica and writes.
    let mut admin = RemoteSession::connect(
        raddr,
        ConnectOptions::new("admin").with_timeout(Duration::from_secs(30)),
    )
    .unwrap();
    admin.promote().unwrap();
    tailer.stop();
    let mut writer = RemoteSession::connect(
        &[paddr, raddr][..],
        ConnectOptions::new("admin").with_timeout(Duration::from_secs(30)),
    )
    .unwrap();
    writer
        .execute_script("create table G(a integer)")
        .expect("the promoted node accepts writes");

    replica_net.shutdown();
    drop(replica);
    std::fs::remove_dir_all(&dir).ok();
}
