//! Compiled-plan-cache correctness (DESIGN.md §4.10): the cache is a
//! pure latency optimization — it must never change a result, survive a
//! schema or data change with stale plans, outlive a promotion, or mask
//! a fault with a cached success.
//!
//! The headline property mirrors the differential oracle: 200 seeded
//! scripts over the Berlin schema, each run twice (cold + hot) against a
//! cache-enabled server and a cache-disabled server, all four renderings
//! byte-identical.

use graql::core::Server;
use graql::net::{serve, ConnectOptions, GemsSession, RemoteSession, ServeOptions};
use graql::StmtOutput;
use graql_testkit::{render_outcome, ScriptGen};

fn scale() -> graql::bsbm::Scale {
    graql::bsbm::Scale::new(40)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Plan-cache counters snapshot (hits, misses, evictions) off a server's
/// metrics registry.
fn counters(server: &Server) -> (u64, u64, u64) {
    let pc = server
        .metrics()
        .plan_cache()
        .expect("plan cache metrics attached");
    (pc.hits.get(), pc.misses.get(), pc.evictions.get())
}

/// Cache-on vs cache-off byte-identity over the seeded script corpus.
/// Every script runs twice per server: the second cached run is the hit
/// path (analysis skipped) and must render
/// byte-identically to its own cold run and to both cache-off runs.
#[test]
fn cache_on_vs_cache_off_byte_identical() {
    let cached = Server::new(graql::bsbm::build_database(scale()).unwrap());
    let uncached = Server::new(graql::bsbm::build_database(scale()).unwrap());
    uncached.set_plan_cache_capacity(0);
    let mut on = cached.connect("admin").unwrap();
    let mut off = uncached.connect("admin").unwrap();

    let seed = env_u64("GRAQL_ORACLE_SEED", 1);
    let n_rel = env_u64("GRAQL_ORACLE_SCRIPTS", 200) * 3 / 4;
    let n_graph = env_u64("GRAQL_ORACLE_SCRIPTS", 200) - n_rel;
    let mut gen = ScriptGen::new(seed);
    let mut scripts: Vec<String> = Vec::new();
    for _ in 0..n_rel {
        scripts.push(gen.next_script());
    }
    for _ in 0..n_graph {
        scripts.push(gen.next_graph_script());
    }

    for (i, script) in scripts.iter().enumerate() {
        let cold = render_outcome(&on.execute_script_sealed(script));
        let hot = render_outcome(&on.execute_script_sealed(script));
        let off_1 = render_outcome(&off.execute_script_sealed(script));
        let off_2 = render_outcome(&off.execute_script_sealed(script));
        assert_eq!(
            cold, hot,
            "script {i}: hot run diverged from cold\n{script}"
        );
        assert_eq!(
            cold, off_1,
            "script {i}: cache-on diverged from cache-off\n{script}"
        );
        assert_eq!(off_1, off_2, "script {i}: cache-off is nondeterministic");
    }

    // The comparison was real: the cached server served hits, the
    // disabled one never touched the cache.
    let (hits, misses, _) = counters(&cached);
    assert!(hits > 0, "no cache hits across {} scripts", scripts.len());
    assert!(misses > 0, "no cold compiles recorded");
    let (off_hits, off_misses, _) = counters(&uncached);
    assert_eq!((off_hits, off_misses), (0, 0), "disabled cache was used");
}

/// DDL and data ingest both publish a new epoch; cached plans compiled
/// against the old epoch must not serve stale answers afterwards.
#[test]
fn ddl_and_epoch_publish_invalidate() {
    let dir = std::env::temp_dir().join(format!("graql_plancache_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("t1.csv"), "1,10\n2,20\n").unwrap();
    std::fs::write(dir.join("t2.csv"), "3,30\n").unwrap();

    let server = Server::new(graql::core::Database::new());
    server.database_mut().set_data_dir(&dir);
    let mut sess = server.connect("admin").unwrap();
    sess.execute_script("create table T(id integer, v integer)\ningest table T t1.csv")
        .unwrap();

    // Warm the cache: cold miss, then a hit on the same normalized text.
    let q = "select id, v from table T order by id";
    let rows = |outs: &[StmtOutput]| match outs {
        [StmtOutput::Table(t)] => t.n_rows(),
        other => panic!("expected one table, got {other:?}"),
    };
    assert_eq!(rows(&sess.execute_script(q).unwrap()), 2);
    let (h0, _, _) = counters(&server);
    assert_eq!(rows(&sess.execute_script(q).unwrap()), 2);
    let (h1, _, e1) = counters(&server);
    assert!(h1 > h0, "second run of the same text must be a cache hit");

    // Ingest publishes a new epoch: the same cached text must see the
    // new rows immediately — a stale plan pinned to the old epoch would
    // keep answering 2.
    sess.execute_script("ingest table T t2.csv").unwrap();
    assert_eq!(
        rows(&sess.execute_script(q).unwrap()),
        3,
        "cached plan served a stale epoch after ingest"
    );
    let (_, _, e2) = counters(&server);
    assert!(
        e2 > e1,
        "epoch publish must evict plans compiled under the old epoch"
    );

    // DDL invalidates too: a new table changes what the analyzer would
    // say, so pre-DDL plans are dropped and the new object is queryable.
    sess.execute_script("create table U(id integer)").unwrap();
    assert_eq!(rows(&sess.execute_script(q).unwrap()), 3);
    assert_eq!(
        rows(&sess.execute_script("select id from table U").unwrap()),
        0
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Promotion flushes the cache wholesale: a freshly promoted primary
/// starts compiling under its own epoch discipline.
#[test]
fn promotion_flushes_the_cache() {
    let server = Server::new(graql::bsbm::build_database(scale()).unwrap());
    let mut sess = server.connect("admin").unwrap();
    let q = "select id from table Producers where country = 'US'";
    sess.execute_script(q).unwrap();
    sess.execute_script(q).unwrap();
    assert!(server.plan_cache_len() >= 1, "cache should be warm");

    server.promote();
    assert_eq!(server.plan_cache_len(), 0, "promotion must flush the cache");
    let (_, _, evictions) = counters(&server);
    assert!(evictions >= 1, "the flush counts as evictions");

    // And the node still answers correctly afterwards (cold recompile).
    let cold = render_outcome(&sess.execute_script_sealed(q));
    sess.execute_script(q).unwrap();
    let hot = render_outcome(&sess.execute_script_sealed(q));
    assert_eq!(cold, hot);
}

/// A warm cache must not mask faults: with the execution and serve paths
/// fault-armed, a request whose plan comes straight from the cache still
/// fails with the typed error — never a stale cached success, never a
/// hang.
#[test]
fn warm_cache_still_yields_typed_errors_under_faults() {
    let server = Server::new(graql::bsbm::build_database(scale()).unwrap());
    let mut net = serve(
        server.clone(),
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let mut remote = RemoteSession::connect(
        net.local_addr(),
        ConnectOptions::new("admin")
            .with_timeout(std::time::Duration::from_secs(10))
            .with_retries(0),
    )
    .unwrap();

    // Warm the cache through the wire path, clean.
    let q = "select id from table Producers where country = 'US'";
    remote.execute_script(q).unwrap();
    remote.execute_script(q).unwrap();
    let (hits_before, _, _) = counters(&server);
    assert!(hits_before > 0, "warmup must populate the cache");

    // Execution fault: the cancellation failpoint fires inside the
    // engine after the plan-cache lookup path is entered.
    let faults = server.faults();
    faults.arm("core/exec/cancel", "1*err", 0xCA).unwrap();
    let err = remote
        .execute_script(q)
        .expect_err("armed exec fault must surface");
    let msg = err.to_string();
    assert!(
        msg.contains("fault injected") || msg.contains("cancel"),
        "expected the typed exec fault, got: {msg}"
    );
    assert_eq!(faults.fired_count("core/exec/cancel"), 1);

    // Serve-path fault: the reply is dropped mid-flight; the client sees
    // a typed retryable transport error, not a hang or a phantom result.
    faults
        .arm("net/server/drop-before-reply", "1*err", 0xCB)
        .unwrap();
    let err = remote
        .execute_script(q)
        .expect_err("dropped reply must surface");
    assert!(
        matches!(err, graql::GraqlError::Net(_)),
        "expected a net error, got {err:?}"
    );
    assert_eq!(faults.fired_count("net/server/drop-before-reply"), 1);

    // Both one-shot faults are spent: the same cached text serves again.
    // (The client reconnects transparently on the next request.)
    let outs = remote.execute_script(q).unwrap();
    assert_eq!(outs.len(), 1);
    net.shutdown();
}
