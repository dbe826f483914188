//! Multi-statement GraQL scripts with dependence-based scheduling
//! (paper §III-B1): "this representation enables the query planner to
//! determine whether two separate query statements q_i and q_j can be
//! executed in parallel … or need to be executed in sequence."
//!
//! Dependences come from the explicit `into table` / `into subgraph`
//! outputs and the named inputs of each statement. DDL and ingest
//! statements act as barriers (they reshape the catalog and regenerate the
//! graph views). Independent selects within a window run concurrently on
//! scoped threads against the immutable database snapshot.

use graql_parser::ast::{self, Stmt};
use graql_types::{GraqlError, Result};
use rustc_hash::FxHashSet;

use crate::analyze::resolve::{resolve_select, GraphSelect, Resolved, TableSelect};
use crate::catalog::Catalog;
use crate::database::{Database, StmtOutput};

/// Execution trace of a scheduled script run.
#[derive(Debug)]
pub struct ScriptReport {
    /// One output per statement, in statement order.
    pub outputs: Vec<StmtOutput>,
    /// The parallel windows that were formed (statement indices).
    pub windows: Vec<Vec<usize>>,
}

/// Read/write name sets of a statement, for hazard detection.
#[derive(Debug, Default)]
struct Effects {
    reads: FxHashSet<String>,
    writes: FxHashSet<String>,
    /// DDL / ingest: serializes with everything.
    barrier: bool,
}

fn effects(stmt: &Stmt) -> Effects {
    let mut e = Effects::default();
    match stmt {
        Stmt::CreateTable(_) | Stmt::CreateVertex(_) | Stmt::CreateEdge(_) | Stmt::Ingest(_) => {
            e.barrier = true;
        }
        Stmt::Select(sel) => {
            match &sel.source {
                ast::SelectSource::Table(t) => {
                    e.reads.insert(t.clone());
                }
                ast::SelectSource::Graph(comp) => {
                    // The graph itself is immutable between barriers; only
                    // named seeds are read dependences.
                    for p in comp.paths() {
                        for v in p.vertex_steps() {
                            if let Some(seed) = &v.seed {
                                e.reads.insert(seed.clone());
                            }
                        }
                    }
                }
            }
            match &sel.into {
                Some(ast::IntoClause::Table(n)) | Some(ast::IntoClause::Subgraph(n)) => {
                    e.writes.insert(n.clone());
                }
                None => {}
            }
        }
        // `profile` is read-only but runs as its own serial window: stage
        // timings measured while unrelated selects saturate the cores
        // would be noise, not a profile.
        Stmt::Profile(_) => {
            e.barrier = true;
        }
    }
    e
}

fn conflicts(a: &Effects, b: &Effects) -> bool {
    if a.barrier || b.barrier {
        return true;
    }
    // RAW / WAR / WAW on named results.
    a.writes
        .iter()
        .any(|w| b.reads.contains(w) || b.writes.contains(w))
        || b.writes.iter().any(|w| a.reads.contains(w))
}

/// Groups statement indices into windows of mutually independent selects
/// (barriers get singleton windows). Original order is preserved within
/// and across windows.
pub fn schedule(statements: &[Stmt]) -> Vec<Vec<usize>> {
    let fx: Vec<Effects> = statements.iter().map(effects).collect();
    let mut windows: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    for (i, f) in fx.iter().enumerate() {
        let clash = f.barrier || current.iter().any(|&j| conflicts(&fx[j], f));
        if clash && !current.is_empty() {
            windows.push(std::mem::take(&mut current));
        }
        if f.barrier {
            windows.push(vec![i]);
        } else {
            current.push(i);
        }
    }
    if !current.is_empty() {
        windows.push(current);
    }
    windows
}

/// Parses, analyzes, schedules and executes a script, running independent
/// select statements in parallel.
pub fn run_script(db: &mut Database, text: &str) -> Result<ScriptReport> {
    let script = graql_parser::parse(text)?;
    crate::analyze::analyze_script(db.catalog(), &script)?;
    let windows = schedule(&script.statements);
    let mut outputs: Vec<Option<StmtOutput>> = (0..script.statements.len()).map(|_| None).collect();
    for window in &windows {
        if window.len() == 1 {
            let i = window[0];
            outputs[i] = Some(db.execute(&script.statements[i])?);
            continue;
        }
        // Parallel window: all selects, all independent. Build the graph
        // once, then fan out read-only executions.
        db.graph()?;
        let sels: Vec<(usize, &ast::SelectStmt)> = window
            .iter()
            .map(|&i| match &script.statements[i] {
                Stmt::Select(s) => (i, s),
                _ => unreachable!("non-select statements are barriers"),
            })
            .collect();
        let results: Vec<(usize, Result<crate::exec::results::QueryOutput>)> =
            std::thread::scope(|scope| {
                let db_ref: &Database = db;
                let handles: Vec<_> = sels
                    .iter()
                    .map(|&(i, sel)| scope.spawn(move || (i, db_ref.execute_select(sel))))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .collect()
            });
        // Register results sequentially, in statement order.
        let mut sorted = results;
        sorted.sort_by_key(|(i, _)| *i);
        for (i, r) in sorted {
            let Stmt::Select(sel) = &script.statements[i] else {
                unreachable!()
            };
            outputs[i] = Some(db.register_result(sel, r?)?);
        }
    }
    Ok(ScriptReport {
        outputs: outputs
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| GraqlError::exec("internal: statement skipped by scheduler"))?,
        windows,
    })
}

/// Sequential script execution with §III-B1 *pipelined* statement fusion:
/// a graph select `into table T` immediately followed by a grouped
/// aggregation over `T` executes as one streaming operator, never
/// materializing `T` (the producer's slot reports
/// [`StmtOutput::Pipelined`]). Non-fusable statements run normally.
pub fn run_script_pipelined(db: &mut Database, text: &str) -> Result<Vec<StmtOutput>> {
    let script = graql_parser::parse(text)?;
    crate::analyze::analyze_script(db.catalog(), &script)?;
    let stmts = &script.statements;
    let mut outputs: Vec<StmtOutput> = Vec::with_capacity(stmts.len());
    let mut i = 0;
    while i < stmts.len() {
        let fusable = i + 1 < stmts.len()
            && crate::exec::pipeline::can_fuse(&stmts[i], &stmts[i + 1])
            // The fused intermediate is never materialized, so no later
            // statement may read (or re-write) it.
            && !later_statements_touch(&stmts[i + 2..], producer_output(&stmts[i]));
        if fusable {
            let (Stmt::Select(p), Stmt::Select(c)) = (&stmts[i], &stmts[i + 1]) else {
                unreachable!("can_fuse only accepts select pairs")
            };
            db.graph()?;
            let (producer, consumer) = resolve_fused(db.catalog(), p, c)?;
            let guard = graql_types::QueryGuard::new(db.config().budget);
            let table = {
                let ctx = db.exec_ctx(&guard)?;
                crate::exec::pipeline::execute_fused(&ctx, producer, &consumer)?
            };
            outputs.push(StmtOutput::Pipelined);
            outputs.push(db.register_result(c, crate::exec::results::QueryOutput::Table(table))?);
            i += 2;
        } else {
            outputs.push(db.execute(&stmts[i])?);
            i += 1;
        }
    }
    Ok(outputs)
}

/// Resolves a fusable pair: the producer against `catalog`, the consumer
/// against `catalog` plus the producer's output schema (the intermediate
/// never materializes, so it is registered nowhere else).
pub(crate) fn resolve_fused(
    catalog: &Catalog,
    producer: &ast::SelectStmt,
    consumer: &ast::SelectStmt,
) -> Result<(GraphSelect, TableSelect)> {
    let (Resolved::Graph(p), Some(ast::IntoClause::Table(t))) =
        (resolve_select(catalog, producer)?, &producer.into)
    else {
        return Err(GraqlError::exec(
            "internal: fused producer must be a graph select into a table",
        ));
    };
    let schema = p
        .schema
        .clone()
        .ok_or_else(|| GraqlError::exec("internal: table result without a schema"))?;
    let mut catalog = catalog.clone();
    catalog.add_result_table(t, schema)?;
    match resolve_select(&catalog, consumer)? {
        Resolved::Table(c) => Ok((p, c)),
        Resolved::Graph(_) => Err(GraqlError::exec(
            "internal: fused consumer must be a table select",
        )),
    }
}

/// The `into table` name a statement produces, if any.
fn producer_output(stmt: &Stmt) -> Option<&str> {
    match stmt {
        Stmt::Select(s) => match &s.into {
            Some(ast::IntoClause::Table(n)) => Some(n),
            _ => None,
        },
        _ => None,
    }
}

/// Does any of `rest` read from or write to table `name`?
fn later_statements_touch(rest: &[Stmt], name: Option<&str>) -> bool {
    let Some(name) = name else { return true };
    rest.iter().any(|s| {
        let e = effects(s);
        e.barrier || e.reads.contains(name) || e.writes.contains(name)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graql_parser::parse_script;

    fn stmts(src: &str) -> Vec<Stmt> {
        parse_script(src).unwrap().statements
    }

    #[test]
    fn independent_selects_share_a_window() {
        let s = stmts(
            "select a from table T into table A\n\
             select b from table T into table B\n\
             select c from table T into table C",
        );
        assert_eq!(schedule(&s), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn raw_dependence_splits_windows() {
        let s = stmts(
            "select a from table T into table A\n\
             select x from table A into table B",
        );
        assert_eq!(schedule(&s), vec![vec![0], vec![1]]);
    }

    #[test]
    fn waw_and_war_dependences_split() {
        let s = stmts(
            "select a from table T into table A\n\
             select b from table U into table A",
        );
        assert_eq!(schedule(&s), vec![vec![0], vec![1]], "WAW");
        let s = stmts(
            "select x from table A into table B\n\
             select a from table T into table A",
        );
        assert_eq!(schedule(&s), vec![vec![0], vec![1]], "WAR");
    }

    #[test]
    fn ddl_and_ingest_are_barriers() {
        let s = stmts(
            "select a from table T into table A\n\
             create table X(a integer)\n\
             select b from table T into table B\n\
             ingest table X 'x.csv'\n\
             select c from table T",
        );
        assert_eq!(
            schedule(&s),
            vec![vec![0], vec![1], vec![2], vec![3], vec![4]]
        );
    }

    #[test]
    fn graph_seeds_are_read_dependences() {
        let s = stmts(
            "select * from graph V() --e--> W into subgraph G1\n\
             select * from graph G1.W() --f--> X into subgraph G2",
        );
        assert_eq!(schedule(&s), vec![vec![0], vec![1]]);
        // Two seed-free graph queries are independent.
        let s = stmts(
            "select * from graph V() --e--> W into subgraph G1\n\
             select * from graph X() --f--> Y into subgraph G2",
        );
        assert_eq!(schedule(&s), vec![vec![0, 1]]);
    }
}
