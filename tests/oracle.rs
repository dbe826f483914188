//! The differential oracle (TESTING.md): seeded random GraQL scripts over
//! the Berlin schema must render **byte-identically** across three
//! independent evaluation paths —
//!
//! 1. the in-process engine (a local [`Session`]),
//! 2. the remote wire path ([`RemoteSession`] against an in-process
//!    `graql-net` server), and
//! 3. the testkit's naive reference evaluator.
//!
//! On divergence, a self-contained artifact (script + all three outputs)
//! is written under `target/oracle-divergences/` — CI uploads it.
//!
//! Knobs: `GRAQL_ORACLE_SCRIPTS` (count, default 200),
//! `GRAQL_ORACLE_SEED` (generator seed, default 1).

use graql::core::{Database, Server};
use graql::net::{serve, ConnectOptions, GemsSession, RemoteSession, ServeOptions};
use graql_testkit::{oracle, reference_outputs, render_outcome, ScriptGen};

fn scale() -> graql::bsbm::Scale {
    graql::bsbm::Scale::new(40)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn divergence_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/oracle-divergences")
}

/// One server + one identically built reference database. The BSBM
/// generator is seeded, so both databases hold byte-identical data.
struct Rig {
    reference: Database,
    net: graql::net::NetServer,
    server: Server,
}

impl Rig {
    fn new() -> Rig {
        let reference = graql::bsbm::build_database(scale()).unwrap();
        let served = graql::bsbm::build_database(scale()).unwrap();
        let server = Server::new(served);
        let net = serve(
            server.clone(),
            ServeOptions {
                addr: "127.0.0.1:0".into(),
                ..ServeOptions::default()
            },
        )
        .unwrap();
        Rig {
            reference,
            net,
            server,
        }
    }

    fn remote(&self) -> RemoteSession {
        RemoteSession::connect(
            self.net.local_addr(),
            ConnectOptions::new("admin").with_timeout(std::time::Duration::from_secs(10)),
        )
        .unwrap()
    }
}

/// Runs `n` scripts from `seed` through all three paths, returning
/// divergence tags.
fn run_oracle(rig: &mut Rig, seed: u64, n: u64, tag_prefix: &str) -> Vec<String> {
    let mut local = rig.server.connect("admin").unwrap();
    let mut remote = rig.remote();
    let mut gen = ScriptGen::new(seed);
    let mut divergences = Vec::new();
    for i in 0..n {
        let script = gen.next_script();
        let local_out = render_outcome(&local.execute_script_sealed(&script));
        let remote_out = render_outcome(&remote.execute_script(&script));
        let reference_out = render_outcome(&reference_outputs(&rig.reference, &script));
        if local_out != remote_out || local_out != reference_out {
            let tag = format!("{tag_prefix}seed{seed}_script{i}");
            oracle::write_divergence(
                &divergence_dir(),
                &tag,
                &script,
                &[
                    ("local", &local_out),
                    ("remote", &remote_out),
                    ("reference", &reference_out),
                ],
            )
            .unwrap();
            divergences.push(tag);
        }
    }
    divergences
}

#[test]
fn clean_run_is_byte_identical_across_all_paths() {
    let mut rig = Rig::new();
    let seed = env_u64("GRAQL_ORACLE_SEED", 1);
    let n = env_u64("GRAQL_ORACLE_SCRIPTS", 200);
    let divergences = run_oracle(&mut rig, seed, n, "");
    rig.net.shutdown();
    assert!(
        divergences.is_empty(),
        "{} of {n} scripts diverged (artifacts in {}): {:?}",
        divergences.len(),
        divergence_dir().display(),
        divergences
    );
}

/// The morsel-parallel executor must be **byte-identical** to the serial
/// one (DESIGN.md §4.8): the same seeded scripts run against engines at
/// `threads = 1, 2, 4, 8`, and — for the relational lane — the naive
/// reference evaluator. Graph scripts exercise the parallel hop-expansion
/// and path-enumeration kernels, whose output *row order* is part of the
/// contract; the reference evaluator is relational-only, so they compare
/// engine-vs-engine.
///
/// Knobs: `GRAQL_ORACLE_SCRIPTS` (relational count, default 200),
/// `GRAQL_ORACLE_GRAPH_SCRIPTS` (graph count, default 60),
/// `GRAQL_ORACLE_SEED`.
#[test]
fn parallel_engines_are_byte_identical_to_serial() {
    let base = graql::bsbm::build_database(scale()).unwrap();
    let seed = env_u64("GRAQL_ORACLE_SEED", 1);
    let n_rel = env_u64("GRAQL_ORACLE_SCRIPTS", 200);
    let n_graph = env_u64("GRAQL_ORACLE_GRAPH_SCRIPTS", 60);

    let mut gen = ScriptGen::new(seed);
    // (script, relational?) — graph scripts have no reference evaluation.
    let mut scripts: Vec<(String, bool)> = Vec::new();
    for _ in 0..n_rel {
        scripts.push((gen.next_script(), true));
    }
    for _ in 0..n_graph {
        scripts.push((gen.next_graph_script(), false));
    }

    const LANES: [usize; 4] = [1, 2, 4, 8];
    let servers: Vec<Server> = LANES
        .iter()
        .map(|&threads| {
            let server = Server::new(base.clone());
            server.database_mut().config_mut().threads = threads;
            server
        })
        .collect();
    let mut sessions: Vec<_> = servers
        .iter()
        .map(|s| s.connect("admin").unwrap())
        .collect();

    let mut divergences = Vec::new();
    for (i, (script, relational)) in scripts.iter().enumerate() {
        let outs: Vec<String> = sessions
            .iter_mut()
            .map(|s| render_outcome(&s.execute_script_sealed(script)))
            .collect();
        let serial = &outs[0];
        let mut diverged = outs.iter().any(|o| o != serial);
        let reference_out = if *relational {
            let r = render_outcome(&reference_outputs(&base, script));
            diverged |= &r != serial;
            Some(r)
        } else {
            None
        };
        if diverged {
            let tag = format!("par_seed{seed}_script{i}");
            let mut named: Vec<(&str, &str)> = vec![
                ("threads1", outs[0].as_str()),
                ("threads2", outs[1].as_str()),
                ("threads4", outs[2].as_str()),
                ("threads8", outs[3].as_str()),
            ];
            if let Some(r) = &reference_out {
                named.push(("reference", r.as_str()));
            }
            oracle::write_divergence(&divergence_dir(), &tag, script, &named).unwrap();
            divergences.push(tag);
        }
    }
    assert!(
        divergences.is_empty(),
        "{} of {} scripts diverged between serial and parallel engines \
         (artifacts in {}): {:?}",
        divergences.len(),
        scripts.len(),
        divergence_dir().display(),
        divergences
    );
}

/// The parallel lane under transport chaos: the served engine runs at
/// `threads = 4` while net faults are armed, and the remote path must
/// still agree with the (serial) local and reference paths byte for byte.
#[test]
fn parallel_fault_armed_run_is_byte_identical() {
    let faults: &[(&str, &str)] = &[
        ("net/frame/read-err", "2*err"),
        ("net/server/drop-before-reply", "1*err"),
    ];
    for (fault_idx, &(site, spec)) in faults.iter().enumerate() {
        let mut rig = Rig::new();
        rig.server.database_mut().config_mut().threads = 4;
        rig.server.faults().arm(site, spec, 0xFB).unwrap();
        let divergences = run_oracle(&mut rig, 11, 15, &format!("parfault{fault_idx}_"));
        rig.net.shutdown();
        assert!(
            rig.server.faults().fired_count(site) >= 1,
            "{site} never fired"
        );
        assert!(
            divergences.is_empty(),
            "divergence with fault {site}={spec} armed on a threads=4 engine: {divergences:?}"
        );
    }
}

/// With a transient transport fault armed, the remote path must *still*
/// agree byte-for-byte — the client's retry machinery makes the chaos
/// invisible (read-only scripts are idempotent).
#[test]
fn fault_armed_run_is_byte_identical_across_all_paths() {
    let faults: &[(&str, &str)] = &[
        ("net/frame/read-err", "2*err"),
        ("net/server/drop-before-reply", "1*err"),
        ("net/frame/write-truncate", "1*truncate"),
    ];
    for (fault_idx, &(site, spec)) in faults.iter().enumerate() {
        // Fresh rig per fault so handshake/connection state starts clean.
        let mut rig = Rig::new();
        rig.server.faults().arm(site, spec, 0xFA).unwrap();
        let divergences = run_oracle(&mut rig, 7, 15, &format!("fault{fault_idx}_"));
        rig.net.shutdown();
        assert!(
            rig.server.faults().fired_count(site) >= 1,
            "{site} never fired"
        );
        assert!(
            divergences.is_empty(),
            "divergence with fault {site}={spec} armed: {divergences:?}"
        );
    }
}

/// The schema the resolver infers for a table select — the one the
/// analyzer registers for later statements — is the schema execution
/// produces, names and types, over the relational corpus and Table 1.
#[test]
fn resolved_table_schemas_match_executed_schemas() {
    use graql::core::analyze::{analyze_script, resolve};
    use graql::parser::ast::{IntoClause, SelectSource, Stmt};

    let mut db = graql::bsbm::build_database(scale()).unwrap();
    db.graph().unwrap();
    let mut gen = ScriptGen::new(env_u64("GRAQL_ORACLE_SEED", 1));
    let mut scripts: Vec<String> = (0..env_u64("GRAQL_ORACLE_SCRIPTS", 200))
        .map(|_| gen.next_script())
        .collect();
    scripts.push(
        "select top 3 vendor as v, count(*) as n, avg(price) as mean, \
           min(price) as lo, max(price) as hi, sum(deliveryDays) as days \
           from table Offers where price > 100 \
           group by vendor order by n desc, v asc\n\
         select distinct country from table Vendors order by country"
            .to_string(),
    );
    let mut checked = 0;
    for script in &scripts {
        for stmt in graql::parser::parse(script).unwrap().statements {
            let Stmt::Select(mut sel) = stmt else {
                continue;
            };
            if !matches!(sel.source, SelectSource::Table(_)) {
                continue;
            }
            let resolve::Resolved::Table(plan) =
                resolve::resolve_select(db.catalog(), &sel).unwrap()
            else {
                panic!("a table source resolves to a table select: {sel}")
            };
            let executed = db.execute_select(&sel).unwrap();
            let executed = executed.as_table().unwrap().schema();
            assert_eq!(&plan.schema, executed, "{sel}");
            sel.into = Some(IntoClause::Table("SchemaProbe".into()));
            let script = graql::parser::ast::Script {
                statements: vec![Stmt::Select(sel)],
            };
            let registered = analyze_script(db.catalog(), &script).unwrap();
            assert_eq!(registered.any_table("SchemaProbe"), Some(executed));
            checked += 1;
        }
    }
    assert!(checked > scripts.len(), "every script has a table select");
}
