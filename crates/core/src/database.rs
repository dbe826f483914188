//! The embedded GraQL database: catalog + tabular storage + graph views +
//! named results, with script execution on top.
//!
//! Mirrors the paper's GEMS structure in-process: the catalog plays the
//! front-end server's metadata repository; the storage/graph pair is the
//! backend's in-memory data; `graql::cluster` profiles what a path query
//! would ship between nodes if that data were hash-partitioned.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use graql_graph::{Graph, Subgraph};
use graql_parser::ast::{self, Stmt};
use graql_table::{Table, TableSchema};
use graql_types::obs::{obs_record, obs_start, Stage};
use graql_types::{GraqlError, ProfileReport, QueryGuard, QueryProfile, Result, Value};
use rustc_hash::FxHashMap;

use crate::analyze::resolve::{resolve_select, Resolved, TableShape};
use crate::catalog::{Catalog, CatalogStats, EdgeDef, VertexDef};
use crate::cond::Params;
use crate::ddl::{build_graph, Storage};
use crate::exec::relational::execute_table_select;
use crate::exec::results::{execute_graph_select, QueryOutput};
use crate::exec::ExecCtx;
use crate::plan::ExecConfig;

pub use crate::plan::PlanMode;

/// Output of executing one statement.
#[derive(Debug, Clone)]
pub enum StmtOutput {
    /// DDL executed (`create …`).
    Created(String),
    /// `ingest` executed: table name and rows added.
    Ingested { table: String, rows: usize },
    /// A select produced a table (possibly also registered by name).
    Table(Table),
    /// A select produced a subgraph.
    Subgraph(Subgraph),
    /// Never produced: every script runs statement by statement. Kept
    /// only because the end-to-end benchmark (`benchmark/`) matches this
    /// enum exhaustively; the benchmark change of ROADMAP item 12 deletes
    /// it.
    Pipelined,
    /// `profile <select>` ran: the measured stage report (the result
    /// itself is dropped — profile never captures).
    Profile(ProfileReport),
}

/// An embedded attributed-graph database speaking GraQL.
#[derive(Debug, Clone, Default)]
pub struct Database {
    /// Cheap to clone: the DDL-defined sections live behind an `Arc`
    /// inside [`Catalog`] (copy-on-write, paid only by DDL), and only the
    /// small named-result maps are owned directly.
    catalog: Catalog,
    storage: Storage,
    graph: Option<Arc<Graph>>,
    /// Catalog statistics store (per-type cardinalities, degree means,
    /// per-column NDV). The table section updates at ingest; the graph
    /// sections are filled as the graph views are built; snapshots persist
    /// it.
    /// `Arc` for the same reason as the catalog: the MVCC server clones
    /// the database per write script, and the store's per-column NDV
    /// vectors are the most expensive member to deep-copy.
    catstats: Option<Arc<CatalogStats>>,
    result_tables: FxHashMap<String, Arc<Table>>,
    result_subgraphs: FxHashMap<String, Arc<Subgraph>>,
    params: Params,
    config: ExecConfig,
    /// Directory `ingest` paths resolve against.
    data_dir: PathBuf,
    /// The epoch sequence number this database was published under by an
    /// MVCC server (0 for embedded databases that never pass through one).
    /// Carried *inside* the epoch so plan-cache keys derived from a pinned
    /// snapshot can never race a concurrent install.
    epoch_seq: u64,
}

impl Database {
    pub fn new() -> Self {
        Database::default()
    }

    /// Sets the directory ingest file paths are resolved against.
    pub fn set_data_dir(&mut self, dir: impl Into<PathBuf>) {
        self.data_dir = dir.into();
    }

    /// Binds a `%name%` parameter for subsequent queries.
    pub fn set_param(&mut self, name: impl Into<String>, value: Value) {
        self.params.insert(name.into(), value);
    }

    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// The epoch sequence this snapshot was published under (see the
    /// field docs; 0 outside an MVCC server).
    pub fn epoch_seq(&self) -> u64 {
        self.epoch_seq
    }

    /// Stamps the epoch sequence. Called by the server's install path,
    /// under its write lock, just before the epoch becomes visible.
    pub fn set_epoch_seq(&mut self, seq: u64) {
        self.epoch_seq = seq;
    }

    pub fn config_mut(&mut self) -> &mut ExecConfig {
        &mut self.config
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The current graph views (building them on first use).
    pub fn graph(&mut self) -> Result<&Graph> {
        self.ensure_graph()?;
        Ok(self.graph.as_deref().expect("just built"))
    }

    /// The catalog statistics store (§III-B), building the graph views —
    /// and with them the store's vertex and edge sections — if needed.
    pub fn stats(&mut self) -> Result<&CatalogStats> {
        self.ensure_graph()?;
        Ok(self.catstats.as_deref().expect("filled with the views"))
    }

    /// A base table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.storage.get(name).map(|t| t.as_ref())
    }

    /// The table storage (for callers that drive `exec` directly, e.g.
    /// `graql::cluster::comm_profile`).
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// The graph views if already built (immutable; use [`Database::graph`]
    /// to force a build).
    pub fn graph_ref(&self) -> Option<&Graph> {
        self.graph.as_deref()
    }

    /// The statistics store as it stands (absent, or without graph
    /// sections, until tables or views exist); never computes anything.
    pub fn stats_ref(&self) -> Option<&CatalogStats> {
        self.catstats.as_deref()
    }

    /// The bound query parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// A named `into table` result.
    pub fn result_table(&self, name: &str) -> Option<&Table> {
        self.result_tables.get(name).map(|t| t.as_ref())
    }

    /// A named `into subgraph` result.
    pub fn result_subgraph(&self, name: &str) -> Option<&Subgraph> {
        self.result_subgraphs.get(name).map(|s| s.as_ref())
    }

    fn graph_dirty(&mut self) {
        self.graph = None;
        self.catalog.set_many_to_one(Vec::new());
        // Table cards survive (they only change with the table they
        // describe); the graph sections no longer match anything.
        if let Some(cs) = &mut self.catstats {
            let cs = Arc::make_mut(cs);
            cs.graph_complete = false;
            cs.vertices.clear();
            cs.edges.clear();
        }
    }

    /// Refreshes the catalog-statistics table card for one table (called
    /// whenever a table's contents change).
    fn note_table_changed(&mut self, table: &str) {
        if let Some(t) = self.storage.get(table) {
            let card = CatalogStats::table_card(t);
            Arc::make_mut(self.catstats.get_or_insert_with(Default::default))
                .tables
                .insert(table.to_string(), Arc::new(card));
        }
    }

    /// Installs a statistics store loaded from a snapshot (the graph
    /// sections become available without a graph build).
    pub fn install_catalog_stats(&mut self, stats: CatalogStats) {
        self.catstats = Some(Arc::new(stats));
    }

    fn ensure_graph(&mut self) -> Result<()> {
        if self.graph.is_none() {
            let graph = build_graph(&self.catalog, &self.storage, &self.params)?;
            let many_to_one = graph
                .vtype_ids()
                .map(|vt| graph.vset(vt))
                .filter(|v| !v.mapping.is_one_to_one())
                .map(|v| v.name.clone())
                .collect();
            self.catalog.set_many_to_one(many_to_one);
            Arc::make_mut(self.catstats.get_or_insert_with(Default::default)).fill_graph(&graph);
            self.graph = Some(Arc::new(graph));
        }
        Ok(())
    }

    /// Statically checks a script without executing it, collecting *every*
    /// diagnostic (errors, warnings, hints) instead of stopping at the
    /// first problem. Parse failures become a single `E0001` diagnostic.
    ///
    /// The database is not modified.
    pub fn check_script_str(&self, text: &str) -> graql_types::Diagnostics {
        match graql_parser::parse(text) {
            Ok(script) => self.check_script(&script),
            Err(e) => {
                let mut sink = graql_types::Diagnostics::new();
                sink.push(graql_types::Diagnostic::from_error(
                    &e,
                    graql_types::Span::default(),
                ));
                sink
            }
        }
    }

    /// Statically checks a parsed script (all diagnostics; no execution).
    ///
    /// When the graph views have already been built, the catalog
    /// statistics store feeds the degree-based lints (`W0301`, `H0202`)
    /// and the dataflow cost hints (`H0203`); a check never forces a
    /// graph build on its own.
    pub fn check_script(&self, script: &ast::Script) -> graql_types::Diagnostics {
        // A set-level group charges no rows, so only a deadline or a byte
        // cap can stop an unbounded repetition.
        let budget = &self.config.budget;
        let governed = Some(budget.deadline.is_some() || budget.max_query_bytes.is_some());
        let (_, diags) = crate::analyze::check_script_with_stats(
            &self.catalog,
            script,
            self.catstats.as_deref(),
            governed,
        );
        diags
    }

    /// Parses and executes a full script statement by statement, in order,
    /// returning one output per statement.
    pub fn execute_script(&mut self, text: &str) -> Result<Vec<StmtOutput>> {
        let script = graql_parser::parse(text)?;
        crate::analyze::analyze_script(&self.catalog, &script)?;
        script.statements.iter().map(|s| self.execute(s)).collect()
    }

    /// Parses and executes a single statement.
    pub fn execute_str(&mut self, text: &str) -> Result<StmtOutput> {
        let stmt = graql_parser::parse_statement(text)?;
        self.execute(&stmt)
    }

    /// Executes one (already parsed) statement under a fresh guard minted
    /// from the configured default budget ([`ExecConfig::budget`]).
    pub fn execute(&mut self, stmt: &Stmt) -> Result<StmtOutput> {
        let guard = QueryGuard::new(self.config.budget);
        self.execute_guarded(stmt, &guard)
    }

    /// Executes one statement under an externally owned [`QueryGuard`]
    /// (the form sessions and the network server use: one guard spans the
    /// whole request, so a deadline covers every statement in a script).
    pub fn execute_guarded(&mut self, stmt: &Stmt, guard: &QueryGuard) -> Result<StmtOutput> {
        match stmt {
            Stmt::CreateTable(ct) => {
                let schema = TableSchema::new(
                    ct.columns
                        .iter()
                        .map(|(n, t)| graql_table::ColumnDef::new(n, t.to_data_type()))
                        .collect(),
                )?;
                self.catalog.add_table(&ct.name, schema.clone())?;
                self.storage
                    .insert(ct.name.clone(), Arc::new(Table::empty(schema)));
                self.note_table_changed(&ct.name);
                Ok(StmtOutput::Created(ct.name.clone()))
            }
            Stmt::CreateVertex(cv) => {
                let schema = self.catalog.table(&cv.from_table).ok_or_else(|| {
                    GraqlError::name(format!("unknown table '{}'", cv.from_table))
                })?;
                for k in &cv.key {
                    schema.require(k)?;
                }
                self.catalog.add_vertex(VertexDef {
                    name: cv.name.clone(),
                    table: cv.from_table.clone(),
                    key: cv.key.clone(),
                    where_clause: cv.where_clause.clone(),
                })?;
                self.graph_dirty();
                Ok(StmtOutput::Created(cv.name.clone()))
            }
            Stmt::CreateEdge(ce) => {
                self.catalog.require_vertex(&ce.source.vertex_type)?;
                self.catalog.require_vertex(&ce.target.vertex_type)?;
                for t in &ce.from_tables {
                    self.catalog.require_any_table(t)?;
                }
                self.catalog.add_edge(EdgeDef {
                    name: ce.name.clone(),
                    src_type: ce.source.vertex_type.clone(),
                    src_alias: ce.source.alias.clone(),
                    tgt_type: ce.target.vertex_type.clone(),
                    tgt_alias: ce.target.alias.clone(),
                    from_tables: ce.from_tables.clone(),
                    where_clause: ce.where_clause.clone(),
                })?;
                self.graph_dirty();
                Ok(StmtOutput::Created(ce.name.clone()))
            }
            Stmt::Ingest(ing) => {
                let rows = {
                    let path = self.resolve_path(&ing.path);
                    let text = std::fs::read_to_string(&path).map_err(|e| {
                        GraqlError::ingest(format!("cannot read {}: {e}", path.display()))
                    })?;
                    self.ingest_str(&ing.table, &text)?
                };
                Ok(StmtOutput::Ingested {
                    table: ing.table.clone(),
                    rows,
                })
            }
            Stmt::Select(sel) => {
                self.ensure_graph()?;
                let out = self.execute_select_observed(sel, guard, None)?;
                self.register_result(sel, out)
            }
            Stmt::Profile(sel) => {
                self.ensure_graph()?;
                Ok(StmtOutput::Profile(
                    self.profile_select_guarded(sel, guard)?,
                ))
            }
        }
    }

    /// The directory `ingest` paths resolve against.
    pub fn data_dir(&self) -> &Path {
        &self.data_dir
    }

    /// Resolves an `ingest` statement's file path against the data dir.
    pub fn resolve_ingest_path(&self, p: &str) -> PathBuf {
        self.resolve_path(p)
    }

    fn resolve_path(&self, p: &str) -> PathBuf {
        let path = Path::new(p);
        if path.is_absolute() {
            path.to_path_buf()
        } else {
            self.data_dir.join(path)
        }
    }

    /// Ingests CSV text directly into a table (the file-less variant used
    /// by tests and generators). Atomic: on any error the table is
    /// unchanged. Triggers regeneration of the graph views.
    pub fn ingest_str(&mut self, table: &str, csv: &str) -> Result<usize> {
        let t = self
            .storage
            .get(table)
            .ok_or_else(|| GraqlError::name(format!("unknown table '{table}'")))?;
        let mut staged = Table::clone(t);
        let rows = graql_table::csv::ingest_str(&mut staged, csv)?;
        self.storage.insert(table.to_string(), Arc::new(staged));
        self.graph_dirty();
        self.note_table_changed(table);
        Ok(rows)
    }

    /// Renders the execution plan of a (graph) select statement without
    /// running it to completion — the §III-B planning decisions made
    /// visible. Table selects get a one-line summary.
    ///
    /// Governed like any other statement: explain executes the set-level
    /// query for candidate counts, so it runs under a fresh guard minted
    /// from the configured default budget.
    pub fn explain_str(&mut self, text: &str) -> Result<String> {
        let guard = QueryGuard::new(self.config.budget);
        self.explain_str_guarded(text, &guard)
    }

    /// [`Database::explain_str`] under an externally owned guard (the
    /// session form: a deadline or cancel kills the explain's set-level
    /// execution at its next checkpoint).
    pub fn explain_str_guarded(&mut self, text: &str, guard: &QueryGuard) -> Result<String> {
        let stmt = graql_parser::parse_statement(text)?;
        let Some(sel) = stmt.as_select() else {
            return Err(GraqlError::exec("only select statements can be explained"));
        };
        self.ensure_graph()?;
        let plan = resolve_select(&self.catalog, sel)?;
        self.explain_plan(&self.exec_ctx(guard)?, &plan)
    }

    /// The shared plan rendering used by `explain` and `profile`: the
    /// resolved statement, annotated with per-operator cardinality
    /// estimates when catalog statistics are available.
    fn explain_plan(&self, ctx: &ExecCtx<'_>, plan: &Resolved) -> Result<String> {
        let stats = self.catstats.as_deref();
        let mut out = String::new();
        match plan {
            Resolved::Graph(g) => {
                out.push_str(&crate::exec::explain::explain_graph_select(
                    ctx,
                    &self.catalog,
                    stats,
                    g,
                )?);
            }
            Resolved::Table(t) => {
                let est = stats
                    .and_then(|s| s.tables.get(&t.table))
                    .map(|c| &**c)
                    .map(|card| {
                        let sel_factor = t.filter.as_ref().map_or(1.0, |w| {
                            crate::analysis::cost::expr_selectivity(Some(card), w)
                        });
                        card.rows as f64 * sel_factor
                    })
                    .map(|rows| format!(" (est ~{} rows)", crate::analysis::cost::fmt_rows(rows)))
                    .unwrap_or_default();
                out.push_str(&format!(
                    "table scan on {}{}{}{}{est}\n",
                    t.table,
                    if t.filter.is_some() { " + filter" } else { "" },
                    if let TableShape::Grouped { .. } = t.shape {
                        " + aggregate"
                    } else {
                        ""
                    },
                    if !t.order_by.is_empty() {
                        " + sort"
                    } else {
                        ""
                    },
                ));
            }
        }
        Ok(out)
    }

    /// Executes `sel` with a span recorder armed and seals the measured
    /// [`ProfileReport`] (plan text + stage timings + guard accounting).
    /// The query result itself is dropped — `profile` never captures.
    ///
    /// The statement is resolved once, for the run and the plan text. A
    /// graph select's `compile` stage spans resolving and lowering. The
    /// plan is rendered after the report is sealed, with an *unarmed*
    /// context, so explain's own set-level execution pollutes neither the
    /// measured stages nor the total; both run under the same `guard`, so
    /// budgets cover their sum.
    pub fn profile_select_guarded(
        &self,
        sel: &ast::SelectStmt,
        guard: &QueryGuard,
    ) -> Result<ProfileReport> {
        let (rows_before, bytes_before) = (guard.rows(), guard.bytes());
        let profile = QueryProfile::new();
        let span = obs_start(Some(&profile));
        let plan = resolve_select(&self.catalog, sel)?;
        if let Resolved::Graph(_) = plan {
            obs_record(Some(&profile), Stage::Compile, span);
        }
        self.execute_resolved(plan.clone(), guard, Some(&profile))?;
        let mut report = ProfileReport::seal(
            sel.to_string(),
            String::new(),
            &profile,
            guard.rows() - rows_before,
            guard.bytes() - bytes_before,
        );
        report.plan = self.explain_plan(&self.exec_ctx(guard)?, &plan)?;
        Ok(report)
    }

    /// An execution context over the current state (graph must already be
    /// built), governed by `guard`.
    pub(crate) fn exec_ctx<'a>(&'a self, guard: &'a QueryGuard) -> Result<ExecCtx<'a>> {
        let graph = self
            .graph
            .as_ref()
            .ok_or_else(|| GraqlError::exec("internal: graph not built before select"))?;
        crate::compile::check_views(&self.catalog, graph)?;
        Ok(ExecCtx {
            graph,
            storage: &self.storage,
            result_tables: &self.result_tables,
            result_subgraphs: &self.result_subgraphs,
            config: &self.config,
            params: &self.params,
            guard,
            obs: None,
            stats: self.catstats.as_deref(),
        })
    }

    /// Executes a select against the current (already built) graph and
    /// storage under an externally owned guard, without registering the
    /// result, with an optional span recorder armed (`profile`, slow-query
    /// logging). `None` keeps the kernels on the zero-overhead path.
    pub fn execute_select_observed(
        &self,
        sel: &ast::SelectStmt,
        guard: &QueryGuard,
        obs: Option<&QueryProfile>,
    ) -> Result<QueryOutput> {
        let span = obs_start(obs);
        let plan = resolve_select(&self.catalog, sel)?;
        // A graph select's `compile` stage spans resolving and lowering.
        if let Resolved::Graph(_) = plan {
            obs_record(obs, Stage::Compile, span);
        }
        self.execute_resolved(plan, guard, obs)
    }

    /// Runs a resolved select against the current (already built) graph
    /// and storage.
    fn execute_resolved(
        &self,
        plan: Resolved,
        guard: &QueryGuard,
        obs: Option<&QueryProfile>,
    ) -> Result<QueryOutput> {
        let mut ctx = self.exec_ctx(guard)?;
        ctx.obs = obs;
        match plan {
            Resolved::Graph(g) => execute_graph_select(&ctx, g),
            Resolved::Table(t) => Ok(QueryOutput::Table(execute_table_select(&ctx, &t)?)),
        }
    }

    /// Registers a select's output under its `into` name (if any) and
    /// wraps it as a statement output.
    pub fn register_result(
        &mut self,
        sel: &ast::SelectStmt,
        out: QueryOutput,
    ) -> Result<StmtOutput> {
        match (&sel.into, out) {
            (Some(ast::IntoClause::Table(name)), QueryOutput::Table(t)) => {
                self.catalog.add_result_table(name, t.schema().clone())?;
                // Keep the statistics store current for downstream
                // statements that scan the result (only when the store
                // already exists — plain execution never pays for NDV).
                if let Some(cs) = &mut self.catstats {
                    Arc::make_mut(cs)
                        .tables
                        .insert(name.clone(), Arc::new(CatalogStats::table_card(&t)));
                }
                self.result_tables.insert(name.clone(), Arc::new(t.clone()));
                Ok(StmtOutput::Table(t))
            }
            (Some(ast::IntoClause::Subgraph(name)), QueryOutput::Subgraph(s)) => {
                self.catalog.add_result_subgraph(name)?;
                self.result_subgraphs
                    .insert(name.clone(), Arc::new(s.clone()));
                Ok(StmtOutput::Subgraph(s))
            }
            (None, QueryOutput::Table(t)) => Ok(StmtOutput::Table(t)),
            (None, QueryOutput::Subgraph(s)) => Ok(StmtOutput::Subgraph(s)),
            // The resolver decides the output kind from the `into` clause.
            (Some(_), _) => Err(GraqlError::exec(
                "internal: a select's output does not match its 'into' clause",
            )),
        }
    }
}
