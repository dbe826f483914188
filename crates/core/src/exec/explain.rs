//! Query plan explanation: a textual rendering of the §III-B planning
//! decisions — per-step candidate counts before and after culling, the
//! traversal direction of each hop over the bidirectional index, the
//! chosen enumeration order, and (when catalog statistics are available)
//! per-operator estimated row counts.

use std::fmt::Write as _;

use graql_parser::ast::Dir;
use graql_types::Result;

use crate::analysis::cost;
use crate::analyze::resolve::GraphSelect;
use crate::catalog::CatalogStats;
use crate::compile::{CLink, CPath, CVStep};
use crate::exec::cand::cand_count;
use crate::exec::query::run_query;
use crate::exec::ExecCtx;
use crate::plan::choose_order;

/// Renders the execution plan of a resolved graph select.
pub fn explain_graph_select(
    ctx: &ExecCtx<'_>,
    stats: Option<&CatalogStats>,
    resolved: &GraphSelect,
) -> Result<String> {
    // Estimates need the graph sections of the statistics store.
    let stats = stats.filter(|s| s.graph_complete);
    let mut out = String::new();
    let n_branches = resolved.branches.len();
    for (bi, q) in resolved.branches.iter().enumerate() {
        if n_branches > 1 {
            let _ = writeln!(out, "or-branch {bi}:");
        }
        // Set-level run (no bindings) gives the culled candidate counts.
        let qr = run_query(ctx, q.clone(), false)?;
        for (pi, p) in qr.cquery.paths.iter().enumerate() {
            let _ = writeln!(out, "  path {pi}:");
            let mut flow = stats.map(|st| vstep_estimate(ctx, st, &p.vsteps[0]));
            for (vi, v) in p.vsteps.iter().enumerate() {
                let culled = cand_count(&qr.cands[pi][vi]);
                let types: Vec<&str> = v
                    .domain
                    .iter()
                    .map(|&vt| ctx.graph.vset(vt).name.as_str())
                    .collect();
                let label = match (&v.label_def, &v.label_ref) {
                    (Some((k, n)), _) => format!(" [{k:?} label {n}]"),
                    (_, Some(n)) => format!(" [ref {n}]"),
                    _ => String::new(),
                };
                let est = match (stats, vi) {
                    (Some(st), 0) => {
                        format!(", est ~{} rows", cost::fmt_rows(vstep_estimate(ctx, st, v)))
                    }
                    (Some(_), _) => match flow {
                        Some(f) => format!(", est ~{} rows", cost::fmt_rows(f)),
                        None => String::new(),
                    },
                    _ => String::new(),
                };
                let _ = writeln!(
                    out,
                    "    v{vi} {} :: {{{}}}{} — {} candidates after culling{}",
                    v.display,
                    types.join(", "),
                    label,
                    culled,
                    est
                );
                if vi < p.links.len() {
                    if let (Some(st), Some(f)) = (stats, flow.as_mut()) {
                        *f = link_estimate(ctx, st, &p.links[vi], *f)
                            * vstep_selectivity(ctx, st, &p.vsteps[vi + 1]);
                    }
                    let link_est = match (stats, flow) {
                        (Some(_), Some(f)) => format!(", est ~{} rows out", cost::fmt_rows(f)),
                        _ => String::new(),
                    };
                    let _ = writeln!(out, "    {}{}", describe_link(ctx, p, vi), link_est);
                }
            }
            let counts: Vec<usize> = qr.cands[pi].iter().map(cand_count).collect();
            let order = choose_order(&counts, ctx.config.plan_mode);
            let _ = writeln!(
                out,
                "    enumeration order ({:?}): {:?}",
                ctx.config.plan_mode, order
            );
        }
    }
    Ok(out)
}

/// Standalone estimate for a vertex step: per-type vertex counts scaled by
/// the selectivity of the step's local predicate against the type's
/// backing table.
fn vstep_estimate(ctx: &ExecCtx<'_>, stats: &CatalogStats, v: &CVStep) -> f64 {
    let mut est = 0.0;
    for &vt in &v.domain {
        let vset = ctx.graph.vset(vt);
        let count = stats.vertex_count(&vset.name).unwrap_or(0) as f64;
        let sel = match v.local.get(&vt) {
            Some(pred) => match ctx.storage.get(&vset.table) {
                Some(table) => cost::phys_selectivity(
                    table.schema(),
                    stats.tables.get(&vset.table).map(|c| &**c),
                    pred,
                ),
                None => 0.5,
            },
            None => 1.0,
        };
        est += count * sel;
    }
    est
}

/// Mean local-predicate selectivity of a step (1.0 when unfiltered),
/// applied to rows flowing *into* the step from a link.
fn vstep_selectivity(ctx: &ExecCtx<'_>, stats: &CatalogStats, v: &CVStep) -> f64 {
    if v.local.is_empty() {
        return 1.0;
    }
    let mut total = 0.0;
    for &vt in &v.domain {
        let vset = ctx.graph.vset(vt);
        total += match v.local.get(&vt) {
            Some(pred) => match ctx.storage.get(&vset.table) {
                Some(table) => cost::phys_selectivity(
                    table.schema(),
                    stats.tables.get(&vset.table).map(|c| &**c),
                    pred,
                ),
                None => 0.5,
            },
            None => 1.0,
        };
    }
    total / v.domain.len().max(1) as f64
}

/// Degree-based expansion of one edge traversal (summed over the
/// candidate edge types, in the traversal direction).
fn edge_expansion(ctx: &ExecCtx<'_>, stats: &CatalogStats, e: &crate::compile::CEStep) -> f64 {
    let names: Vec<&str> = match &e.domain {
        Some(d) => d
            .iter()
            .map(|&et| ctx.graph.eset(et).name.as_str())
            .collect(),
        None => ctx
            .graph
            .etype_ids()
            .map(|et| ctx.graph.eset(et).name.as_str())
            .collect(),
    };
    let mut expansion = 0.0;
    for n in names {
        if let Some((mean_out, mean_in)) = stats.mean_degrees(n) {
            expansion += match e.dir {
                Dir::Out => mean_out,
                Dir::In => mean_in,
            };
        }
    }
    if e.local.is_empty() {
        expansion
    } else {
        expansion / 3.0
    }
}

fn link_estimate(ctx: &ExecCtx<'_>, stats: &CatalogStats, link: &CLink, flow: f64) -> f64 {
    match link {
        CLink::Edge(e) => flow * edge_expansion(ctx, stats, e),
        CLink::Group(g) => {
            let mut per_iter = 1.0;
            for (e, v) in &g.hops {
                per_iter *= edge_expansion(ctx, stats, e);
                per_iter *= vstep_selectivity(ctx, stats, v);
            }
            let depth = cost::GROUP_DEPTH_CAP
                .max(g.lo)
                .min(g.hi.unwrap_or(u32::MAX));
            flow * per_iter.max(1.0).powi(depth as i32)
        }
    }
}

fn describe_link(ctx: &ExecCtx<'_>, p: &CPath, li: usize) -> String {
    match &p.links[li] {
        CLink::Edge(e) => {
            let names: Vec<&str> = match &e.domain {
                Some(d) => d
                    .iter()
                    .map(|&et| ctx.graph.eset(et).name.as_str())
                    .collect(),
                None => vec!["[]"],
            };
            let (arrow, index) = match e.dir {
                Dir::Out => ("--%-->", "forward index"),
                Dir::In => ("<--%--", "reverse index"),
            };
            format!(
                "{} via {} ({})",
                arrow.replace('%', &names.join("|")),
                index,
                if e.local.is_empty() {
                    "no edge filter"
                } else {
                    "filtered"
                }
            )
        }
        CLink::Group(g) => format!(
            "{{ {} hops }} repeated {}..{} (state reachability)",
            g.hops.len(),
            g.lo,
            g.hi.map_or(String::new(), |hi| format!("={hi}"))
        ),
    }
}
