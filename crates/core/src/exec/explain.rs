//! Query plan explanation: a textual rendering of the §III-B planning
//! decisions — each conditioned step's candidate access path (key probe
//! or scan), per-step candidate counts after culling, the
//! traversal direction of each hop over the bidirectional index, the
//! chosen enumeration order, and (when catalog statistics are available)
//! per-operator estimated row counts from [`cost::path_rows`].

use std::fmt::Write as _;

use graql_parser::ast::Dir;
use graql_types::Result;

use crate::analysis::cost;
use crate::analyze::resolve::GraphSelect;
use crate::catalog::{Catalog, CatalogStats};
use crate::compile::{CLink, CPath, CVStep};
use crate::exec::cand::cand_count;
use crate::exec::query::run_query;
use crate::exec::ExecCtx;
use crate::plan::choose_order;

/// Renders the execution plan of a graph select resolved against
/// `catalog`.
pub fn explain_graph_select(
    ctx: &ExecCtx<'_>,
    catalog: &Catalog,
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
        let rows = stats.map(|st| cost::path_rows(catalog, st, q));
        let est = |pi: usize, vi: usize, what: &str| match &rows {
            Some(rows) => format!(", est ~{} {what}", cost::fmt_rows(rows[pi][vi])),
            None => String::new(),
        };
        // Set-level run (no bindings) gives the culled candidate counts.
        let qr = run_query(ctx, q.clone(), false)?;
        for (pi, p) in qr.cquery.paths.iter().enumerate() {
            let _ = writeln!(out, "  path {pi}:");
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
                let _ = writeln!(
                    out,
                    "    v{vi} {} :: {{{}}}{}{} — {} candidates after culling{}",
                    v.display,
                    types.join(", "),
                    label,
                    access_note(v),
                    culled,
                    est(pi, vi, "rows")
                );
                if vi < p.links.len() {
                    let link = describe_link(ctx, p, vi);
                    let _ = writeln!(out, "    {link}{}", est(pi, vi + 1, "rows out"));
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

/// How a step with a condition finds its candidates: ` by key probe` or
/// ` by scan` (the resolver allows conditions on one-type steps only).
fn access_note(v: &CVStep) -> String {
    let access = v.domain.iter().find_map(|vt| v.local.get(vt));
    access.map_or(String::new(), |a| format!(" by {}", a.name()))
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
