//! Query results (§II-C): projecting matches into tables (Fig. 13) and
//! subgraphs (Fig. 11), and the `select … from graph` driver.

use graql_graph::Subgraph;
use graql_table::{Table, TableSchema};
use graql_types::obs::{obs_record, obs_record_rows, obs_start, Stage};
use graql_types::{GraqlError, Result};

use crate::analyze::resolve::GraphSelect;
use crate::compile::{column_of, CQuery, LinkAddr, ProjCol, StepAddr};
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

/// Executes a resolved graph select.
pub fn execute_graph_select(ctx: &ExecCtx<'_>, resolved: GraphSelect) -> Result<QueryOutput> {
    let schema = match (resolved.to_table, &resolved.schema) {
        (true, None) => return Err(GraqlError::exec("internal: table result without a schema")),
        (_, schema) => schema,
    };
    let mut table_out: Option<Table> = None;
    let mut subgraph_out: Option<Subgraph> = None;
    for q in resolved.branches {
        let need_bindings = resolved.to_table || needs_bindings(&q);
        let qr = run_query(ctx, q, need_bindings)?;
        if let Some(schema) = schema {
            let t = project_table(ctx, &qr, schema)?;
            match &mut table_out {
                None => table_out = Some(t),
                Some(acc) => acc.append(&t)?,
            }
        } else {
            let s = project_subgraph(ctx, &qr)?;
            match &mut subgraph_out {
                None => subgraph_out = Some(s),
                Some(acc) => acc.union_with(ctx.graph, &s),
            }
        }
    }
    match (table_out, subgraph_out) {
        (Some(t), _) => Ok(QueryOutput::Table(t)),
        (_, Some(s)) => Ok(QueryOutput::Subgraph(s)),
        _ => Err(GraqlError::exec(
            "internal: a select has at least one branch",
        )),
    }
}

/// Labels and and-compositions need binding-level execution even for a
/// subgraph result.
fn needs_bindings(q: &CQuery) -> bool {
    !q.labels.is_empty() || !q.edge_labels.is_empty() || q.paths.len() > 1
}

// ---------------------------------------------------------------------------
// Table projection
// ---------------------------------------------------------------------------

fn project_table(ctx: &ExecCtx<'_>, qr: &QueryRun, schema: &TableSchema) -> Result<Table> {
    let bindings = qr
        .bindings
        .as_ref()
        .ok_or_else(|| GraqlError::exec("internal: table projection requires bindings"))?;
    let mut out = Table::empty(schema.clone());
    let span = obs_start(ctx.obs);
    let mut ticker = ctx.guard.ticker();
    let mut rows = out.appender();
    for mb in bindings {
        ticker.tick()?;
        let row = qr
            .cquery
            .proj
            .iter()
            .map(|c| value_of(ctx, mb, c))
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

fn value_of(ctx: &ExecCtx<'_>, mb: &MultiBinding, col: &ProjCol) -> Result<graql_types::Value> {
    match col {
        ProjCol::Vertex { addr, cols } => {
            let (vt, idx) = QueryRun::instance(mb, *addr);
            let col = column_of(cols, vt)?;
            ctx.graph.vset(vt).attr(ctx.vtable(vt), idx, col)
        }
        ProjCol::Edge { addr, cols } => {
            let (et, eid) = mb.per_path[addr.path].e[addr.link];
            let eset = ctx.graph.eset(et);
            let table = eset
                .assoc_table
                .as_deref()
                .and_then(|n| ctx.storage.get(n))
                .ok_or_else(|| GraqlError::exec("internal: edge attribute without a table"))?;
            let row = eset.assoc_row(eid)?;
            Ok(table.get(row as usize, column_of(cols, et)?))
        }
    }
}

// ---------------------------------------------------------------------------
// Subgraph projection
// ---------------------------------------------------------------------------

fn project_subgraph(ctx: &ExecCtx<'_>, qr: &QueryRun) -> Result<Subgraph> {
    let q = &qr.cquery;
    let span = obs_start(ctx.obs);
    let mut out = Subgraph::new();
    // A subgraph select projects no columns exactly when it is `select *`.
    match (q.proj.is_empty(), &qr.bindings) {
        (true, Some(bindings)) => {
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
        (true, None) => {
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
        (false, bindings) => {
            // Selected steps' vertices (Fig. 11's resultsBE) and any
            // labeled edge steps' edges.
            let mut addrs: Vec<StepAddr> = Vec::new();
            let mut eaddrs: Vec<LinkAddr> = Vec::new();
            for c in &q.proj {
                match c {
                    ProjCol::Vertex { addr, .. } => addrs.push(*addr),
                    ProjCol::Edge { addr, .. } => eaddrs.push(*addr),
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
                        let estep = q.edge_step(laddr).ok_or_else(|| {
                            GraqlError::exec("internal: edge label on a path group")
                        })?;
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
