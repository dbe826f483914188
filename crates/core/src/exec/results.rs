//! Query results (§II-C): projecting matches into tables (Fig. 13) and
//! subgraphs (Fig. 11), and the `select … from graph` driver.

use graql_graph::Subgraph;
use graql_parser::ast::{self, SelectExpr, SelectTargets};
use graql_table::{ColumnDef, Table, TableSchema};
use graql_types::obs::{obs_record, obs_record_rows, obs_start, Stage};
use graql_types::{DataType, GraqlError, Result};

use crate::compile::{CQuery, LinkAddr, StepAddr};
use crate::exec::expand::matched_edges;
use crate::exec::query::{run_query, MultiBinding, QueryRun};
use crate::exec::regex::group_members;
use crate::exec::ExecCtx;

/// The value of a query statement.
#[derive(Debug, Clone)]
pub enum QueryOutput {
    Table(Table),
    Subgraph(Subgraph),
}

impl QueryOutput {
    pub fn as_table(&self) -> Option<&Table> {
        match self {
            QueryOutput::Table(t) => Some(t),
            _ => None,
        }
    }

    pub fn as_subgraph(&self) -> Option<&Subgraph> {
        match self {
            QueryOutput::Subgraph(s) => Some(s),
            _ => None,
        }
    }
}

/// Executes a graph-sourced select statement.
pub fn execute_graph_select(ctx: &ExecCtx<'_>, sel: &ast::SelectStmt) -> Result<QueryOutput> {
    let ast::SelectSource::Graph(comp) = &sel.source else {
        return Err(GraqlError::exec("internal: not a graph select"));
    };
    if sel.has_aggregates() || !sel.group_by.is_empty() {
        return Err(GraqlError::type_error(
            "aggregates and 'group by' apply to table sources; capture the graph result \
             'into table' first (paper Fig. 6)",
        ));
    }
    let want_table = match &sel.into {
        Some(ast::IntoClause::Table(_)) => true,
        Some(ast::IntoClause::Subgraph(_)) => false,
        // Without an `into`, `select *` returns a subgraph and attribute
        // selections return a table.
        None => !matches!(sel.targets, SelectTargets::Star),
    };

    let branches = crate::compile::or_branches(comp)?;
    let mut table_out: Option<Table> = None;
    let mut subgraph_out: Option<Subgraph> = None;
    for branch in &branches {
        let qr = run_branch(ctx, branch, want_table)?;
        if want_table {
            let t = project_table(ctx, &qr, sel)?;
            match &mut table_out {
                None => table_out = Some(t),
                Some(acc) => {
                    if acc.schema() != t.schema() {
                        return Err(GraqlError::type_error(
                            "'or' branches produce incompatible table schemas",
                        ));
                    }
                    acc.append(&t)?;
                }
            }
        } else {
            let s = project_subgraph(ctx, &qr, sel)?;
            match &mut subgraph_out {
                None => subgraph_out = Some(s),
                Some(acc) => acc.union_with(ctx.graph, &s),
            }
        }
    }
    if want_table {
        Ok(QueryOutput::Table(table_out.expect("at least one branch")))
    } else {
        Ok(QueryOutput::Subgraph(
            subgraph_out.expect("at least one branch"),
        ))
    }
}

/// Runs one or-branch, deciding whether bindings are required.
fn run_branch(ctx: &ExecCtx<'_>, paths: &[&ast::PathQuery], want_table: bool) -> Result<QueryRun> {
    // Structural features that force binding-level execution.
    let mut has_labels = false;
    for p in paths {
        p.for_each_step(&mut |s, _| has_labels |= s.label_def().is_some());
    }
    let multi = paths.len() > 1;
    let need_bindings = want_table || has_labels || multi;
    let has_groups = paths.iter().any(|p| {
        p.segments
            .iter()
            .any(|s| matches!(s, ast::Segment::Group { .. }))
    });
    if need_bindings && has_groups {
        return Err(GraqlError::path(
            "path regular expressions produce set results; use 'select * … into subgraph' \
             without labels or table output",
        ));
    }
    run_query(ctx, paths, need_bindings)
}

/// Streams the projected rows of a graph select through `f`, one call per
/// binding, without building the result table (the §III-B1 pipelined
/// mode). Single-path branches stream straight out of the enumerator;
/// multi-path branches fall back to joined bindings.
pub fn stream_graph_select(
    ctx: &ExecCtx<'_>,
    sel: &ast::SelectStmt,
    comp: &ast::PathComposition,
    mut f: impl FnMut(&[graql_types::Value]) -> Result<()>,
) -> Result<()> {
    let SelectTargets::Items(_) = &sel.targets else {
        return Err(GraqlError::exec(
            "pipelined execution needs explicit select items",
        ));
    };
    for branch in crate::compile::or_branches(comp)? {
        let single_path = branch.len() == 1
            && !branch[0]
                .segments
                .iter()
                .any(|s| matches!(s, ast::Segment::Group { .. }));
        if single_path {
            // Candidates + culling, then stream from the enumerator.
            let qr = crate::exec::query::run_query(ctx, &branch, false)?;
            let cols = resolve_proj_cols(ctx, &qr.cquery, sel)?;
            let counts: Vec<usize> = qr.cands[0]
                .iter()
                .map(crate::exec::cand::cand_count)
                .collect();
            let order = crate::plan::choose_order(&counts, ctx.config.plan_mode);
            crate::exec::enumerate::enumerate_path(
                ctx,
                &qr.cquery.paths[0],
                0,
                &qr.cands[0],
                &qr.efilters[0],
                &order,
                |b| {
                    let mb = MultiBinding { per_path: vec![b] };
                    let row = cols
                        .iter()
                        .map(|c| value_of(ctx, &qr, &mb, c))
                        .collect::<Result<Vec<_>>>()?;
                    f(&row)
                },
            )?;
        } else {
            let qr = run_branch(ctx, &branch, true)?;
            let cols = resolve_proj_cols(ctx, &qr.cquery, sel)?;
            for mb in qr.bindings.as_ref().expect("bindings requested") {
                let row = cols
                    .iter()
                    .map(|c| value_of(ctx, &qr, mb, c))
                    .collect::<Result<Vec<_>>>()?;
                f(&row)?;
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Table projection
// ---------------------------------------------------------------------------

/// One projected output column: a specific attribute of a vertex step, all
/// key columns of a step, or an attribute of a labeled edge step.
enum ProjCol {
    Attr {
        addr: StepAddr,
        name: String,
        out: String,
        dtype: DataType,
    },
    Key {
        addr: StepAddr,
        col: usize,
        out: String,
        dtype: DataType,
    },
    EdgeAttr {
        addr: LinkAddr,
        name: String,
        out: String,
        dtype: DataType,
    },
}

/// Attribute type of a labeled edge step (through its associated table).
fn edge_dtype(ctx: &ExecCtx<'_>, q: &CQuery, addr: LinkAddr, attr: &str) -> Result<DataType> {
    let step = q
        .edge_step(addr)
        .ok_or_else(|| GraqlError::path("cannot project a path group"))?;
    let etypes: Vec<graql_graph::ETypeId> = match &step.domain {
        Some(d) => d.clone(),
        None => ctx.graph.etype_ids().collect(),
    };
    let mut dtype: Option<DataType> = None;
    for et in etypes {
        let eset = ctx.graph.eset(et);
        let table_name = eset.assoc_table.as_ref().ok_or_else(|| {
            GraqlError::type_error(format!(
                "edge type {} has no attributes (no associated table)",
                eset.name
            ))
        })?;
        let schema = ctx
            .storage
            .get(table_name)
            .expect("graph views reference existing tables")
            .schema();
        let col = schema.require(attr).map_err(|_| {
            GraqlError::name(format!("edge type {} has no attribute {attr:?}", eset.name))
        })?;
        let ty = schema.column(col).dtype;
        match dtype {
            None => dtype = Some(ty),
            Some(prev) if prev.comparable_with(ty) => {}
            Some(prev) => {
                return Err(GraqlError::type_error(format!(
                    "attribute {attr:?} has incompatible types across edge types ({prev} vs {ty})"
                )))
            }
        }
    }
    dtype.ok_or_else(|| GraqlError::path("edge step matches no types"))
}

fn step_dtype(ctx: &ExecCtx<'_>, q: &CQuery, addr: StepAddr, attr: &str) -> Result<DataType> {
    let step = q.step(addr);
    let mut dtype: Option<DataType> = None;
    for &vt in &step.domain {
        let schema = ctx.vtable(vt).schema();
        let col = schema.require(attr).map_err(|_| {
            GraqlError::name(format!(
                "step {:?} (vertex type {}) has no attribute {attr:?}",
                step.display,
                ctx.graph.vset(vt).name
            ))
        })?;
        let t = schema.column(col).dtype;
        match dtype {
            None => dtype = Some(t),
            Some(prev) if prev.comparable_with(t) => {}
            Some(prev) => {
                return Err(GraqlError::type_error(format!(
                    "attribute {attr:?} has incompatible types across step {:?}'s \
                     candidate vertex types ({prev} vs {t})",
                    step.display
                )))
            }
        }
    }
    dtype.ok_or_else(|| GraqlError::path(format!("step '{}' matches no types", step.display)))
}

/// Resolves explicit select items against the compiled query: vertex-step
/// attributes, bare-step keys, and edge-label attributes.
fn resolve_proj_cols(ctx: &ExecCtx<'_>, q: &CQuery, sel: &ast::SelectStmt) -> Result<Vec<ProjCol>> {
    let SelectTargets::Items(items) = &sel.targets else {
        return Err(GraqlError::exec("internal: explicit select items required"));
    };
    let mut cols: Vec<ProjCol> = Vec::new();
    for item in items {
        let SelectExpr::Col(c) = &item.expr else {
            return Err(GraqlError::type_error(
                "aggregates are not allowed over a graph source",
            ));
        };
        match &c.qualifier {
            Some(stepname) => {
                // Vertex step/label first; otherwise an edge label.
                if let Some(&laddr) = q.edge_labels.get(stepname) {
                    let dtype = edge_dtype(ctx, q, laddr, &c.name)?;
                    let out = item.alias.clone().unwrap_or_else(|| c.name.clone());
                    cols.push(ProjCol::EdgeAttr {
                        addr: laddr,
                        name: c.name.clone(),
                        out,
                        dtype,
                    });
                    continue;
                }
                let addr = q.resolve_step(stepname)?;
                let dtype = step_dtype(ctx, q, addr, &c.name)?;
                let out = item.alias.clone().unwrap_or_else(|| c.name.clone());
                cols.push(ProjCol::Attr {
                    addr,
                    name: c.name.clone(),
                    out,
                    dtype,
                });
            }
            None => {
                // A bare step/label: project its key column(s).
                let addr = q.resolve_step(&c.name)?;
                let step = q.step(addr);
                if step.domain.len() != 1 {
                    return Err(GraqlError::path(format!(
                        "cannot project variant step {:?} into a table",
                        step.display
                    )));
                }
                let vt = step.domain[0];
                let vset = ctx.graph.vset(vt);
                let schema = ctx.vtable(vt).schema();
                for &kc in &vset.key_cols {
                    let kdef = schema.column(kc);
                    let base = item.alias.clone().unwrap_or_else(|| c.name.clone());
                    let out = if vset.key_cols.len() == 1 {
                        base
                    } else {
                        format!("{base}_{}", kdef.name)
                    };
                    cols.push(ProjCol::Key {
                        addr,
                        col: kc,
                        out,
                        dtype: kdef.dtype,
                    });
                }
            }
        }
    }
    Ok(cols)
}

fn project_table(ctx: &ExecCtx<'_>, qr: &QueryRun, sel: &ast::SelectStmt) -> Result<Table> {
    let q = &qr.cquery;
    let bindings = qr
        .bindings
        .as_ref()
        .ok_or_else(|| GraqlError::exec("internal: table projection requires bindings"))?;

    // Resolve the projection columns.
    let mut cols: Vec<ProjCol> = Vec::new();
    match &sel.targets {
        SelectTargets::Star => {
            for (pi, p) in q.paths.iter().enumerate() {
                for (vi, v) in p.vsteps.iter().enumerate() {
                    if v.label_ref.is_some() {
                        continue; // the entity already appears at its definition
                    }
                    let addr = StepAddr {
                        path: pi,
                        vstep: vi,
                    };
                    if v.domain.len() != 1 {
                        return Err(GraqlError::path(format!(
                            "'select *' into a table requires concrete steps; step {:?} is variant",
                            v.display
                        )));
                    }
                    let vt = v.domain[0];
                    let vset = ctx.graph.vset(vt);
                    let schema = ctx.vtable(vt).schema();
                    if vset.mapping.is_one_to_one() {
                        for (ci, c) in schema.columns().iter().enumerate() {
                            let _ = ci;
                            cols.push(ProjCol::Attr {
                                addr,
                                name: c.name.clone(),
                                out: format!("{}_{}", v.display, c.name),
                                dtype: c.dtype,
                            });
                        }
                    } else {
                        for &kc in &vset.key_cols {
                            let c = schema.column(kc);
                            cols.push(ProjCol::Attr {
                                addr,
                                name: c.name.clone(),
                                out: format!("{}_{}", v.display, c.name),
                                dtype: c.dtype,
                            });
                        }
                    }
                }
            }
        }
        SelectTargets::Items(_) => {
            cols = resolve_proj_cols(ctx, q, sel)?;
        }
    }

    // Uniquify output column names.
    let mut seen: rustc_hash::FxHashMap<String, usize> = rustc_hash::FxHashMap::default();
    let defs: Vec<ColumnDef> = cols
        .iter()
        .map(|c| {
            let (out, dtype) = match c {
                ProjCol::Attr { out, dtype, .. }
                | ProjCol::Key { out, dtype, .. }
                | ProjCol::EdgeAttr { out, dtype, .. } => (out.clone(), *dtype),
            };
            let n = seen.entry(out.clone()).or_insert(0);
            *n += 1;
            let name = if *n == 1 { out } else { format!("{out}_{n}") };
            ColumnDef::new(name, dtype)
        })
        .collect();
    let schema = TableSchema::new(defs)?;
    let mut out = Table::empty(schema);

    let span = obs_start(ctx.obs);
    let mut ticker = ctx.guard.ticker();
    let mut rows = out.appender();
    for mb in bindings {
        ticker.tick()?;
        let row = cols
            .iter()
            .map(|c| value_of(ctx, qr, mb, c))
            .collect::<Result<Vec<_>>>()?;
        rows.push_row(&row)?;
    }
    drop(rows);
    if let Some(p) = ctx.obs {
        p.add_guard_ticks(ticker.checkpoints());
    }
    obs_record_rows(
        ctx.obs,
        Stage::Project,
        span,
        bindings.len() as u64,
        out.n_rows() as u64,
    );
    ctx.guard.add_bytes(out.approx_bytes())?;
    Ok(out)
}

fn value_of(
    ctx: &ExecCtx<'_>,
    _qr: &QueryRun,
    mb: &MultiBinding,
    col: &ProjCol,
) -> Result<graql_types::Value> {
    match col {
        ProjCol::Attr { addr, name, .. } => {
            let (vt, idx) = QueryRun::instance(mb, *addr);
            ctx.vattr(vt, idx, name)
        }
        ProjCol::Key { addr, col, .. } => {
            let (vt, idx) = QueryRun::instance(mb, *addr);
            let vset = ctx.graph.vset(vt);
            vset.attr(ctx.vtable(vt), idx, *col)
        }
        ProjCol::EdgeAttr { addr, name, .. } => {
            let (et, eid) = mb.per_path[addr.path].e[addr.link];
            let eset = ctx.graph.eset(et);
            let table = ctx
                .storage
                .get(eset.assoc_table.as_deref().expect("checked at compile"))
                .expect("graph views reference existing tables");
            let col = table.schema().require(name)?;
            let row = eset.assoc_row(eid)?;
            Ok(table.get(row as usize, col))
        }
    }
}

// ---------------------------------------------------------------------------
// Subgraph projection
// ---------------------------------------------------------------------------

fn project_subgraph(ctx: &ExecCtx<'_>, qr: &QueryRun, sel: &ast::SelectStmt) -> Result<Subgraph> {
    let q = &qr.cquery;
    let span = obs_start(ctx.obs);
    let mut out = Subgraph::new();
    match (&sel.targets, &qr.bindings) {
        (SelectTargets::Star, Some(bindings)) => {
            // Exact: mark everything each binding touches.
            let mut ticker = ctx.guard.ticker();
            for mb in bindings {
                ticker.tick()?;
                for b in &mb.per_path {
                    for &(vt, idx) in &b.v {
                        out.add_vertex(ctx.graph, vt, idx);
                    }
                    for &(et, idx) in &b.e {
                        out.add_edge(ctx.graph, et, idx);
                    }
                }
            }
        }
        (SelectTargets::Star, None) => {
            // Set-level: culled candidates + matched edges per link.
            for (pi, p) in q.paths.iter().enumerate() {
                for (vi, cand) in qr.cands[pi].iter().enumerate() {
                    let _ = vi;
                    for (vt, set) in cand {
                        out.add_vertices(ctx.graph, *vt, set);
                    }
                }
                for (li, link) in p.links.iter().enumerate() {
                    match link {
                        crate::compile::CLink::Edge(e) => {
                            for (et, hit) in matched_edges(
                                ctx,
                                &qr.cands[pi][li],
                                e,
                                &qr.efilters[pi][li],
                                &qr.cands[pi][li + 1],
                            ) {
                                out.add_edges(ctx.graph, et, &hit);
                            }
                        }
                        crate::compile::CLink::Group(g) => {
                            let (members, edges) =
                                group_members(ctx, &qr.cands[pi][li], &qr.cands[pi][li + 1], g)?;
                            for (vt, set) in &members {
                                out.add_vertices(ctx.graph, *vt, set);
                            }
                            for (et, set) in &edges {
                                out.add_edges(ctx.graph, *et, set);
                            }
                        }
                    }
                }
            }
        }
        (SelectTargets::Items(items), bindings) => {
            // Selected steps' vertices (Fig. 11's resultsBE) and any
            // labeled edge steps' edges.
            let mut addrs: Vec<StepAddr> = Vec::new();
            let mut eaddrs: Vec<LinkAddr> = Vec::new();
            for item in items {
                let SelectExpr::Col(c) = &item.expr else {
                    return Err(GraqlError::type_error(
                        "aggregates are not allowed over a graph source",
                    ));
                };
                if c.qualifier.is_some() {
                    return Err(GraqlError::type_error(
                        "attribute selections go 'into table'; subgraphs capture whole steps",
                    ));
                }
                if let Some(&laddr) = q.edge_labels.get(&c.name) {
                    eaddrs.push(laddr);
                } else {
                    addrs.push(q.resolve_step(&c.name)?);
                }
            }
            match bindings {
                Some(bindings) => {
                    for mb in bindings {
                        for &addr in &addrs {
                            let (vt, idx) = QueryRun::instance(mb, addr);
                            out.add_vertex(ctx.graph, vt, idx);
                        }
                        for &laddr in &eaddrs {
                            let (et, eid) = mb.per_path[laddr.path].e[laddr.link];
                            out.add_edge(ctx.graph, et, eid);
                        }
                    }
                }
                None => {
                    for &addr in &addrs {
                        for (vt, set) in &qr.cands[addr.path][addr.vstep] {
                            out.add_vertices(ctx.graph, *vt, set);
                        }
                    }
                    for &laddr in &eaddrs {
                        let Some(estep) = q.edge_step(laddr) else {
                            return Err(GraqlError::path("cannot select a path group"));
                        };
                        for (et, hit) in matched_edges(
                            ctx,
                            &qr.cands[laddr.path][laddr.link],
                            estep,
                            &qr.efilters[laddr.path][laddr.link],
                            &qr.cands[laddr.path][laddr.link + 1],
                        ) {
                            out.add_edges(ctx.graph, et, &hit);
                        }
                    }
                }
            }
        }
    }
    obs_record(ctx.obs, Stage::Project, span);
    Ok(out)
}

/// Infers the schema a graph select would produce, for static analysis.
/// (Implemented as an execution dry-run helper; full analysis lives in
/// [`crate::analyze`].)
pub fn projected_names(sel: &ast::SelectStmt) -> Vec<String> {
    match &sel.targets {
        SelectTargets::Star => vec!["*".to_string()],
        SelectTargets::Items(items) => items
            .iter()
            .map(|i| {
                i.alias.clone().unwrap_or_else(|| match &i.expr {
                    SelectExpr::Col(c) => c.name.clone(),
                    SelectExpr::Agg(a) => format!("{a}"),
                })
            })
            .collect(),
    }
}
