//! Static query analysis (paper §III-A): catalog-only checks, no data
//! access.
//!
//! "Correctness checks include a number of different type checking issues:
//! is the query comparing an attribute with a constant (or other
//! attribute) of the wrong type? … is the query using an entity of
//! correct type for certain operations? … is a path query correctly
//! formulated?"
//!
//! The analyzer threads a *working catalog* through the script so that a
//! statement can reference entities (including `into` results) created by
//! earlier statements — the front-end server's evolving metadata.
//!
//! This is the one static-analysis pass over the parsed `ast` (§III-A):
//! one walk over the statements, one comparison type checker
//! (`cond::typecheck`), and for selects the one resolver
//! ([`resolve`]) whose plans execution runs. Two reporting modes share it:
//!
//! * [`analyze_script`] is **fail-fast**: it stops at the first error and
//!   returns it as a classified [`GraqlError`] (the contract execution
//!   paths rely on). It runs the error checks only.
//! * [`check_script`] **collects**: it records every problem as a located
//!   [`Diagnostic`] in a [`Diagnostics`] sink, recovering where it can
//!   (e.g. an unknown attribute in a `where` clause does not stop the
//!   rest of the clause from being checked), and runs the warning and
//!   hint rules of [`crate::lint`] on each statement in the same walk.

use graql_parser::ast::{self, Stmt};
use graql_table::{ColumnDef, TableSchema};
use graql_types::{codes, DataType, Diagnostic, Diagnostics, GraqlError, Result, Span};
use rustc_hash::FxHashMap;

use crate::catalog::{Catalog, EdgeDef, VertexDef};
use crate::cond::{single_table, typecheck};
use crate::lint;

pub mod resolve;

/// Result of the span-aware checks: the error side is a located
/// [`Diagnostic`], converted back to [`GraqlError`] only at the public
/// fail-fast boundary.
pub(crate) type DResult<T> = std::result::Result<T, Diagnostic>;

/// How a check run reports problems.
///
/// In fail-fast mode (no sink) [`Ctx::emit`] aborts with the diagnostic;
/// in collecting mode it records the diagnostic and analysis continues,
/// so one pass surfaces every problem it can reach.
pub(crate) struct Ctx<'a> {
    sink: Option<&'a mut Diagnostics>,
}

impl<'a> Ctx<'a> {
    pub(crate) fn fail_fast() -> Ctx<'static> {
        Ctx { sink: None }
    }

    pub(crate) fn collecting(sink: &'a mut Diagnostics) -> Ctx<'a> {
        Ctx { sink: Some(sink) }
    }

    /// Errors reported so far (always 0 in fail-fast mode, where the first
    /// one aborts).
    pub(crate) fn errors(&self) -> usize {
        self.sink.as_deref().map_or(0, Diagnostics::error_count)
    }

    /// Reports a recoverable problem: recorded (analysis continues) in
    /// collecting mode, aborts the enclosing statement in fail-fast mode.
    pub(crate) fn emit(&mut self, d: Diagnostic) -> DResult<()> {
        match self.sink.as_deref_mut() {
            Some(s) => {
                s.push(d);
                Ok(())
            }
            None => Err(d),
        }
    }
}

/// Locates a bubbled catalog/schema error, recoding plain name errors as
/// "unknown entity" and type errors as "wrong kind".
pub(crate) fn entity_err(e: &GraqlError, span: Span) -> Diagnostic {
    let d = Diagnostic::from_error(e, span);
    match e {
        GraqlError::Name(_) => d.with_code(codes::UNKNOWN_NAME),
        GraqlError::Type(_) => d.with_code(codes::WRONG_KIND),
        _ => d,
    }
}

/// Locates a bubbled column/attribute lookup error.
pub(crate) fn attr_err(e: &GraqlError, span: Span) -> Diagnostic {
    let d = Diagnostic::from_error(e, span);
    match e {
        GraqlError::Name(_) => d.with_code(codes::UNKNOWN_ATTR),
        _ => d,
    }
}

/// Locates a duplicate-definition error from the catalog.
fn dup_err(e: &GraqlError, span: Span) -> Diagnostic {
    let d = Diagnostic::from_error(e, span);
    match e {
        GraqlError::Name(_) => d.with_code(codes::DUPLICATE),
        _ => d,
    }
}

/// Statically checks a whole script against (a working copy of) the
/// catalog, stopping at the first error. Returns the catalog state after
/// the script, so callers can inspect inferred result schemas.
pub fn analyze_script(catalog: &Catalog, script: &ast::Script) -> Result<Catalog> {
    let mut work = catalog.clone();
    for stmt in &script.statements {
        check_statement(&mut work, stmt, &mut Ctx::fail_fast()).map_err(Diagnostic::into_error)?;
    }
    Ok(work)
}

/// Statically checks a whole script, collecting *every* diagnostic —
/// errors, lint warnings and hints — instead of stopping at the first
/// error. Statements that fail still leave later statements checked
/// (against the catalog state that did materialize), so one call reports
/// the full damage of a bad script.
pub fn check_script(catalog: &Catalog, script: &ast::Script) -> (Catalog, Diagnostics) {
    check_script_with_stats(catalog, script, None, None)
}

/// [`check_script`] with execution context: the catalog statistics store
/// (degree means per edge type) enables the path-cost lints (`W0301`,
/// `H0202`) and the dataflow cost hints (`H0203`), and `governed` — when
/// known — says whether a deadline or a byte budget is configured, which
/// silences the ungoverned-repetition lint (`W0303`). Pass `stats: None` / `governed:
/// None` when the checker has no knowledge of the execution environment.
pub fn check_script_with_stats(
    catalog: &Catalog,
    script: &ast::Script,
    stats: Option<&crate::catalog::CatalogStats>,
    governed: Option<bool>,
) -> (Catalog, Diagnostics) {
    let mut sink = Diagnostics::new();
    let mut rules = lint::Rules::new(stats, governed);
    let mut work = catalog.clone();
    for stmt in &script.statements {
        let errors = sink.error_count();
        let plan = check_statement(&mut work, stmt, &mut Ctx::collecting(&mut sink))
            .unwrap_or_else(|d| {
                sink.push(d);
                None
            });
        let plan = plan.filter(|_| sink.error_count() == errors);
        rules.check(&work, stmt, plan.as_ref());
    }
    // Errors come first in statement order, then each rule's findings.
    rules.finish(&mut sink);
    (work, sink)
}

/// Checks one statement, updating the working catalog, and returns a
/// graph select's resolution. A returned `Err` is a problem the statement
/// could not recover from (the entity was not registered); recoverable
/// problems go through `ctx`.
fn check_statement(
    work: &mut Catalog,
    stmt: &Stmt,
    ctx: &mut Ctx,
) -> DResult<Option<resolve::GraphSelect>> {
    let done = match stmt {
        Stmt::CreateTable(ct) => {
            let schema = TableSchema::new(
                ct.columns
                    .iter()
                    .map(|(n, t)| ColumnDef::new(n, t.to_data_type()))
                    .collect(),
            )
            .map_err(|e| Diagnostic::from_error(&e, ct.span))?;
            work.add_table(&ct.name, schema)
                .map_err(|e| dup_err(&e, ct.span))
        }
        Stmt::CreateVertex(cv) => {
            let Some(schema) = work.table(&cv.from_table).cloned() else {
                return Err(match work.kind_of(&cv.from_table) {
                    Some(k) => Diagnostic::error(
                        codes::WRONG_KIND,
                        format!("'{}' is a {k}, not a table", cv.from_table),
                        cv.span,
                    ),
                    None => Diagnostic::error(
                        codes::UNKNOWN_NAME,
                        format!("unknown table '{}'", cv.from_table),
                        cv.span,
                    ),
                });
            };
            if cv.key.is_empty() {
                ctx.emit(Diagnostic::error(
                    codes::BAD_PATH,
                    format!("vertex '{}' has an empty key", cv.name),
                    cv.span,
                ))?;
            }
            for (i, k) in cv.key.iter().enumerate() {
                if let Err(e) = schema.require(k) {
                    ctx.emit(attr_err(&e, cv.span))?;
                } else if cv.key[..i].contains(k) {
                    ctx.emit(Diagnostic::error(
                        codes::DUPLICATE,
                        format!("vertex '{}' repeats key column '{k}'", cv.name),
                        cv.span,
                    ))?;
                }
            }
            if let Some(w) = &cv.where_clause {
                let quals = [cv.from_table.as_str(), cv.name.as_str()];
                typecheck(w, ctx, &mut single_table(&schema, &quals))?;
            }
            work.add_vertex(VertexDef {
                name: cv.name.clone(),
                table: cv.from_table.clone(),
                key: cv.key.clone(),
                where_clause: cv.where_clause.clone(),
            })
            .map_err(|e| dup_err(&e, cv.span))
        }
        Stmt::CreateEdge(ce) => {
            let src = work
                .require_vertex(&ce.source.vertex_type)
                .map_err(|e| entity_err(&e, ce.span))?
                .clone();
            let tgt = work
                .require_vertex(&ce.target.vertex_type)
                .map_err(|e| entity_err(&e, ce.span))?
                .clone();
            for t in &ce.from_tables {
                if let Err(e) = work.require_any_table(t) {
                    ctx.emit(entity_err(&e, ce.span))?;
                }
            }
            if let Some(w) = &ce.where_clause {
                typecheck_edge_where(work, ce, &src, &tgt, w, ctx)?;
            }
            work.add_edge(EdgeDef {
                name: ce.name.clone(),
                src_type: ce.source.vertex_type.clone(),
                src_alias: ce.source.alias.clone(),
                tgt_type: ce.target.vertex_type.clone(),
                tgt_alias: ce.target.alias.clone(),
                from_tables: ce.from_tables.clone(),
                where_clause: ce.where_clause.clone(),
            })
            .map_err(|e| dup_err(&e, ce.span))
        }
        Stmt::Ingest(ing) => {
            if work.table(&ing.table).is_none() {
                let d = match work.kind_of(&ing.table) {
                    Some(k) => Diagnostic::error(
                        codes::WRONG_KIND,
                        format!(
                            "cannot ingest into '{}': it is a {k}, not a base table",
                            ing.table
                        ),
                        ing.span,
                    ),
                    None => Diagnostic::error(
                        codes::UNKNOWN_NAME,
                        format!("unknown table '{}'", ing.table),
                        ing.span,
                    ),
                };
                ctx.emit(d)?;
            }
            Ok(())
        }
        // `profile` is analyzed exactly like the select underneath (the
        // parser already rejected `into`).
        Stmt::Select(sel) | Stmt::Profile(sel) => return check_select(work, sel, ctx),
    };
    done.map(|()| None)
}

/// Type environment of an edge `where` clause: qualifier → schema.
fn typecheck_edge_where(
    work: &Catalog,
    ce: &ast::CreateEdge,
    src: &VertexDef,
    tgt: &VertexDef,
    w: &ast::Expr,
    ctx: &mut Ctx,
) -> DResult<()> {
    let mut env: FxHashMap<String, TableSchema> = FxHashMap::default();
    let src_schema = work
        .table(&src.table)
        .expect("vertex defs reference tables")
        .clone();
    let tgt_schema = work
        .table(&tgt.table)
        .expect("vertex defs reference tables")
        .clone();
    let src_qual = ce
        .source
        .alias
        .clone()
        .unwrap_or_else(|| ce.source.vertex_type.clone());
    let tgt_qual = ce
        .target
        .alias
        .clone()
        .unwrap_or_else(|| ce.target.vertex_type.clone());
    if src_qual == tgt_qual {
        // The environment would be ambiguous; skip the clause walk.
        return ctx.emit(Diagnostic::error(
            codes::DUPLICATE,
            format!(
                "edge '{}' endpoints are both referred to as '{src_qual}'; \
                 disambiguate with 'as' aliases",
                ce.name
            ),
            ce.span,
        ));
    }
    env.insert(src_qual, src_schema.clone());
    env.insert(tgt_qual, tgt_schema.clone());
    if src.table != tgt.table {
        env.entry(src.table.clone()).or_insert(src_schema);
        env.entry(tgt.table.clone()).or_insert(tgt_schema);
    }
    for t in &ce.from_tables {
        // Unknown from-tables were already reported by the caller.
        if let Ok(s) = work.require_any_table(t) {
            env.insert(t.clone(), s.clone());
        }
    }
    typecheck(w, ctx, &mut |q, name, span| match q {
        Some(q) => {
            if !env.contains_key(q) {
                // Implicit associated table (the Fig. 3 `feature` case).
                let schema = work.table(q).ok_or_else(|| {
                    Diagnostic::error(
                        codes::BAD_QUALIFIER,
                        format!("unknown qualifier '{q}'"),
                        span,
                    )
                })?;
                env.insert(q.clone(), schema.clone());
            }
            let schema = &env[q];
            let ci = schema.require(name).map_err(|e| attr_err(&e, span))?;
            Ok(Some(schema.column(ci).dtype))
        }
        None => {
            let hits: Vec<DataType> = env
                .values()
                .filter_map(|s| s.index_of(name).map(|c| s.column(c).dtype))
                .collect();
            match hits[..] {
                [t] => Ok(Some(t)),
                [] => Err(Diagnostic::error(
                    codes::UNKNOWN_ATTR,
                    format!("unknown attribute '{name}'"),
                    span,
                )),
                _ => Err(Diagnostic::error(
                    codes::AMBIGUOUS,
                    format!("ambiguous attribute '{name}'; qualify it"),
                    span,
                )),
            }
        }
    })
}

// ---------------------------------------------------------------------------
// Select analysis
// ---------------------------------------------------------------------------

fn check_select(
    work: &mut Catalog,
    sel: &ast::SelectStmt,
    ctx: &mut Ctx,
) -> DResult<Option<resolve::GraphSelect>> {
    let (schema, plan) = match &sel.source {
        ast::SelectSource::Table(_) => {
            let plan = resolve::resolve_table_select(work, sel, ctx)?;
            (plan.map(|t| t.schema), None)
        }
        ast::SelectSource::Graph(_) => {
            let mut plan = resolve::resolve_graph_select(work, sel, ctx)?;
            (plan.schema.take(), Some(plan))
        }
    };
    register_into(work, sel, schema)?;
    Ok(plan)
}

fn register_into(
    work: &mut Catalog,
    sel: &ast::SelectStmt,
    schema: Option<TableSchema>,
) -> DResult<()> {
    match &sel.into {
        Some(ast::IntoClause::Table(name)) => {
            let schema = schema.unwrap_or_else(|| TableSchema::new(Vec::new()).expect("empty ok"));
            work.add_result_table(name, schema)
                .map_err(|e| dup_err(&e, sel.span))
        }
        Some(ast::IntoClause::Subgraph(name)) => work
            .add_result_subgraph(name)
            .map_err(|e| dup_err(&e, sel.span)),
        None => Ok(()),
    }
}
