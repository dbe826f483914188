//! The semantic-rewrite equivalence guarantee (DESIGN.md): executing a
//! select after [`rewrite_select`] must be **byte-identical** to executing
//! the statement as written — over the differential-oracle script corpus
//! and over randomly generated predicate expressions.
//!
//! Both sides run through `Database::execute_select_prepared`, the entry
//! point that executes a statement exactly as given (no rewriting of its
//! own): once with the original statement, once with the rewriter's
//! output. With the rewriter's debug self-check gone, these random
//! predicates are its guard; CI raises their case count with
//! `PROPTEST_CASES`.
//!
//! Knobs: `GRAQL_ORACLE_SCRIPTS` (count, default 200),
//! `GRAQL_ORACLE_SEED` (generator seed, default 1).

use graql::core::analysis::rewrite_select;
use graql::core::{Database, QueryOutput};
use graql::parser::ast::{SelectStmt, Stmt};
use graql_testkit::ScriptGen;
use proptest::prelude::*;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Runs `sel` exactly as given; renders the result or the error.
fn run_prepared(db: &Database, sel: &SelectStmt) -> String {
    let guard = graql::types::QueryGuard::new(db.config().budget);
    match db.execute_select_prepared(sel, &guard, None) {
        Ok(QueryOutput::Table(t)) => t.render(),
        Ok(QueryOutput::Subgraph(sg)) => format!("{sg:?}"),
        Err(e) => format!("error: {e}"),
    }
}

/// Asserts that every select of `script` yields the same output rewritten
/// and as written, executing each statement on `db` afterwards so later
/// statements see its results.
fn assert_script_equivalent(db: &mut Database, script: &str) {
    let Ok(parsed) = graql::parser::parse(script) else {
        return;
    };
    if graql::core::analyze::analyze_script(db.catalog(), &parsed).is_err() {
        return;
    }
    for stmt in &parsed.statements {
        if let Stmt::Select(sel) | Stmt::Profile(sel) = stmt {
            db.graph().unwrap();
            if let Some(rw) = rewrite_select(sel) {
                assert_eq!(
                    run_prepared(db, sel),
                    run_prepared(db, &rw.sel),
                    "rewrite ({}) changed the result of:\n{sel}\nrewritten:\n{}",
                    rw.passes.join(", "),
                    rw.sel
                );
            }
        }
        let _ = db.execute(stmt);
    }
}

/// The oracle corpus: every statement of every seeded random script must
/// give the same result (or the same error) rewritten and as written.
/// This is the end-to-end half of the equivalence guarantee — whatever
/// the rewriter does to the statement, results are unchanged.
#[test]
fn oracle_corpus_is_byte_identical_with_rewrites_off() {
    let scale = graql::bsbm::Scale::new(40);
    let base = graql::bsbm::build_database(scale).unwrap();
    let seed = env_u64("GRAQL_ORACLE_SEED", 1);
    let n = env_u64("GRAQL_ORACLE_SCRIPTS", 200);
    let mut gen = ScriptGen::new(seed);
    for _ in 0..n {
        let script = gen.next_script();
        assert_script_equivalent(&mut base.clone(), &script);
    }
}

// ---------------------------------------------------------------------------
// Random-predicate equivalence
// ---------------------------------------------------------------------------

/// A tiny dataset with nulls in both value columns, so the SQL-style
/// null comparison semantics the rewriter must preserve are exercised.
fn fixture_db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "create table A(id integer, x integer)
         create table B(id integer, y integer)
         create table AB(a integer, b integer)
         create vertex VA(id) from table A
         create vertex VB(id) from table B
         create edge ab with vertices (VA, VB) from table AB
             where AB.a = VA.id and AB.b = VB.id",
    )
    .unwrap();
    db.ingest_str("A", "0,3\n1,7\n2,\n3,0\n4,10\n").unwrap();
    db.ingest_str("B", "0,5\n1,\n2,2\n").unwrap();
    db.ingest_str("AB", "0,0\n0,1\n1,2\n2,0\n3,1\n4,2\n")
        .unwrap();
    db
}

/// Random predicate over columns `id` / `x`: comparisons against small
/// constants (hitting the fold + interval rules), column-column
/// comparisons (hitting the self-comparison rules), composed with
/// `and` / `or` / `not`.
fn pred() -> impl Strategy<Value = String> {
    let col = prop_oneof![Just("id"), Just("x")];
    let op = prop_oneof![
        Just("="),
        Just("!="),
        Just("<"),
        Just("<="),
        Just(">"),
        Just(">=")
    ];
    let leaf = prop_oneof![
        (col.clone(), op.clone(), 0i64..12).prop_map(|(c, o, v)| format!("{c} {o} {v}")),
        (0i64..12, op.clone(), col.clone()).prop_map(|(v, o, c)| format!("{v} {o} {c}")),
        (col.clone(), op.clone(), col.clone()).prop_map(|(a, o, b)| format!("{a} {o} {b}")),
        (0i64..12, op.clone(), 0i64..12).prop_map(|(a, o, b)| format!("{a} {o} {b}")),
    ];
    leaf.boxed().prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4)
                .prop_map(|ps| format!("({})", ps.join(" and "))),
            proptest::collection::vec(inner.clone(), 2..4)
                .prop_map(|ps| format!("({})", ps.join(" or "))),
            inner.prop_map(|p| format!("not ({p})")),
        ]
    })
}

/// Runs `script` on the fixture rewritten and as written and asserts
/// byte-identical outputs.
fn assert_equivalent(script: &str) {
    assert_script_equivalent(&mut fixture_db(), script);
}

/// 48 cases, or `PROPTEST_CASES` when set (as `ProptestConfig::default`
/// reads it).
fn config() -> ProptestConfig {
    match std::env::var_os("PROPTEST_CASES") {
        Some(_) => ProptestConfig::default(),
        None => ProptestConfig::with_cases(48),
    }
}

proptest! {
    #![proptest_config(config())]

    /// Table selects: the `where` clause is folded/simplified by the
    /// rewriter; results must not move.
    #[test]
    fn table_where_equivalence(p in pred()) {
        assert_equivalent(&format!(
            "select id, x from table A where {p} order by id"
        ));
    }

    /// Graph selects: the predicate rides on a step condition, and a
    /// second `or`-branch with its own random predicate exercises
    /// dead-branch pruning when one side folds to false.
    #[test]
    fn graph_step_equivalence(p1 in pred(), p2 in pred()) {
        assert_equivalent(&format!(
            "select * from graph VA({p1}) --ab--> VB() or VA({p2}) --ab--> VB()"
        ));
    }
}
