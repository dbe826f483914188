//! # graql-bench
//!
//! Shared fixtures for the Criterion targets. Each one sweeps a design
//! parameter the end-to-end benchmark (`benchmark/`, `BENCHMARK.json`)
//! holds at its default, and regenerates one EXPERIMENTS.md Part 2 table;
//! run them all with `cargo bench -p graql-bench` (or one with
//! `--bench <name>`). Anything that times a fixed configuration belongs
//! in `benchmark/`, not here.

use graql_bsbm::Scale;
use graql_core::Database;
use graql_types::Value;

/// Builds a loaded Berlin database with the standard parameter bindings
/// and the graph views already materialized.
pub fn berlin(products: usize) -> Database {
    let mut db = graql_bsbm::build_database(Scale::new(products)).expect("fixture builds");
    db.set_param("Product1", Value::str("product0"));
    db.set_param("Country1", Value::str("US"));
    db.set_param("Country2", Value::str("DE"));
    db.graph().expect("views build");
    db
}

/// Runs a script and returns the row count of its last table output
/// (black-box anchor so the optimizer cannot elide work).
pub fn run_rows(db: &mut Database, script: &str) -> usize {
    let outs = db.execute_script(script).expect("bench query runs");
    match outs.into_iter().last().expect("at least one statement") {
        graql_core::StmtOutput::Table(t) => t.n_rows(),
        graql_core::StmtOutput::Subgraph(s) => s.n_vertices(),
        _ => 0,
    }
}
