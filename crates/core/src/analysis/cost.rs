//! Catalog-statistics-backed cardinality estimation.
//!
//! Estimates are name-level (AST) or id-level (compiled plan) walks over
//! a path query, seeded by per-type vertex counts and expanded through
//! mean edge degrees from the [`CatalogStats`] store. Predicate
//! selectivities use per-column NDV when the backing table's statistics
//! are available and textbook defaults otherwise (equality `1/NDV` or
//! `0.1`, range `1/3`, conjunction = product, disjunction =
//! inclusion-exclusion). These are *estimates for plan annotation and
//! hints*, not guarantees; the executor never consults them for
//! correctness.

use graql_parser::ast::{self, Dir, Expr, Lit, Operand, Quant, Step, StepName};
use graql_table::{PhysExpr, TableSchema};
use graql_types::CmpOp;

use crate::catalog::{Catalog, CatalogStats, TableCard};

/// Above this many estimated intermediate rows, the analyzer raises the
/// `H0203` large-plan hint.
pub const LARGE_PLAN_THRESHOLD: f64 = 1_000_000.0;

/// Exponent cap when estimating a `{n,m}` / `*` / `+` group: degrees
/// compound, so a handful of repetitions already dominates any plan.
pub(crate) const GROUP_DEPTH_CAP: u32 = 8;

/// Default selectivities when no statistics apply.
const DEFAULT_EQ_SEL: f64 = 0.1;
const RANGE_SEL: f64 = 1.0 / 3.0;

/// Renders an estimate compactly (`123`, `4.5k`, `1.2M`, `3.4e9`).
pub fn fmt_rows(est: f64) -> String {
    if !est.is_finite() {
        return "inf".to_string();
    }
    if est < 1_000.0 {
        format!("{}", est.round() as u64)
    } else if est < 1_000_000.0 {
        format!("{:.1}k", est / 1_000.0)
    } else if est < 1_000_000_000.0 {
        format!("{:.1}M", est / 1_000_000.0)
    } else {
        format!("{:.1e}", est)
    }
}

// ---------------------------------------------------------------------------
// Predicate selectivity
// ---------------------------------------------------------------------------

fn clamp01(s: f64) -> f64 {
    s.clamp(0.0, 1.0)
}

fn cmp_selectivity(op: CmpOp, ndv: Option<u64>) -> f64 {
    let eq = match ndv {
        Some(n) if n > 0 => 1.0 / n as f64,
        _ => DEFAULT_EQ_SEL,
    };
    match op {
        CmpOp::Eq => eq,
        CmpOp::Ne => clamp01(1.0 - eq),
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => RANGE_SEL,
    }
}

/// Selectivity of a surface condition against rows of one relation whose
/// statistics (if any) are `card`.
pub fn expr_selectivity(card: Option<&TableCard>, e: &Expr) -> f64 {
    match e {
        Expr::And(parts) => clamp01(parts.iter().map(|p| expr_selectivity(card, p)).product()),
        Expr::Or(parts) => clamp01(
            1.0 - parts
                .iter()
                .map(|p| 1.0 - expr_selectivity(card, p))
                .product::<f64>(),
        ),
        Expr::Not(inner) => clamp01(1.0 - expr_selectivity(card, inner)),
        Expr::Cmp { op, lhs, rhs, .. } => match (lhs, rhs) {
            (Operand::Attr { name, .. }, Operand::Lit(l))
            | (Operand::Lit(l), Operand::Attr { name, .. })
                if !matches!(l, Lit::Param(_)) =>
            {
                cmp_selectivity(*op, card.and_then(|c| c.ndv(name)))
            }
            (Operand::Attr { .. }, Operand::Attr { .. }) => 0.5,
            // Parameters and constant comparisons: no information.
            _ => 1.0,
        },
    }
}

/// Selectivity of a compiled predicate over a table with the given schema
/// (column indices resolve to names for NDV lookup).
pub fn phys_selectivity(schema: &TableSchema, card: Option<&TableCard>, e: &PhysExpr) -> f64 {
    match e {
        PhysExpr::And(parts) => clamp01(
            parts
                .iter()
                .map(|p| phys_selectivity(schema, card, p))
                .product(),
        ),
        PhysExpr::Or(parts) => clamp01(
            1.0 - parts
                .iter()
                .map(|p| 1.0 - phys_selectivity(schema, card, p))
                .product::<f64>(),
        ),
        PhysExpr::Not(inner) => clamp01(1.0 - phys_selectivity(schema, card, inner)),
        PhysExpr::Cmp(op, l, r) => {
            let col = match (l.as_ref(), r.as_ref()) {
                (PhysExpr::Col(i), PhysExpr::Const(_)) | (PhysExpr::Const(_), PhysExpr::Col(i)) => {
                    Some(*i)
                }
                _ => None,
            };
            match col {
                Some(i) if i < schema.len() => {
                    let name = &schema.column(i).name;
                    cmp_selectivity(*op, card.and_then(|c| c.ndv(name)))
                }
                _ => 0.5,
            }
        }
        PhysExpr::Col(_) | PhysExpr::Const(_) => 1.0,
    }
}

// ---------------------------------------------------------------------------
// Name-level path estimation (check-time, no compiled plan needed)
// ---------------------------------------------------------------------------

fn step_display(name: &StepName) -> &str {
    match name {
        StepName::Named(n) => n,
        StepName::Any => "[ ]",
    }
}

/// Resolves a vertex step name to its candidate vertex types: a concrete
/// type, a label back-reference (domain of the defining step), or — for
/// `[ ]` variants and unresolvable names — every declared type.
fn vertex_domain(work: &Catalog, labels: &[(String, Vec<String>)], name: &StepName) -> Vec<String> {
    match name {
        StepName::Named(n) => {
            if work.vertex(n).is_some() {
                vec![n.clone()]
            } else if let Some((_, dom)) = labels.iter().find(|(l, _)| l == n) {
                dom.clone()
            } else {
                work.vertex_names().to_vec()
            }
        }
        StepName::Any => work.vertex_names().to_vec(),
    }
}

/// Total vertices of the given types, each scaled by the selectivity of
/// `cond` against the type's backing table.
fn vertex_estimate(
    work: &Catalog,
    stats: &CatalogStats,
    domain: &[String],
    cond: Option<&Expr>,
) -> f64 {
    let mut est = 0.0;
    for vt in domain {
        let count = stats.vertex_count(vt).unwrap_or(0) as f64;
        let card = work
            .vertex(vt)
            .and_then(|def| stats.tables.get(&def.table))
            .map(|c| &**c);
        let sel = cond.map_or(1.0, |c| expr_selectivity(card, c));
        est += count * sel;
    }
    est
}

/// Mean out-degree (for `dir`) summed over the candidate edge types that
/// can leave the current source domain.
fn hop_expansion(
    work: &Catalog,
    stats: &CatalogStats,
    src_domain: &[String],
    edge: &ast::EdgeStep,
) -> f64 {
    let candidates: Vec<&str> = match &edge.name {
        StepName::Named(n) if work.edge(n).is_some() => vec![n.as_str()],
        StepName::Named(_) => Vec::new(),
        StepName::Any => work.edge_names().iter().map(|s| s.as_str()).collect(),
    };
    let mut expansion = 0.0;
    for e in &candidates {
        let Some(def) = work.edge(e) else { continue };
        let from = match edge.dir {
            Dir::Out => &def.src_type,
            Dir::In => &def.tgt_type,
        };
        if !src_domain.iter().any(|t| t == from) {
            continue;
        }
        if let Some((mean_out, mean_in)) = stats.mean_degrees(e) {
            expansion += match edge.dir {
                Dir::Out => mean_out,
                Dir::In => mean_in,
            };
        }
    }
    let esel = edge
        .cond
        .as_ref()
        .map_or(1.0, |c| expr_selectivity(None, c));
    // An unresolvable edge name (a label back-reference) re-traverses an
    // already-matched edge set: treat it as expansion 1.
    if candidates.is_empty() {
        esel
    } else {
        expansion * esel
    }
}

/// Narrows the target domain through the feasible edge definitions.
fn narrowed_target(
    work: &Catalog,
    src_domain: &[String],
    edge: &ast::EdgeStep,
    target: &[String],
) -> Vec<String> {
    let candidates: Vec<&str> = match &edge.name {
        StepName::Named(n) if work.edge(n).is_some() => vec![n.as_str()],
        _ => return target.to_vec(),
    };
    let mut reach: Vec<String> = Vec::new();
    for e in candidates {
        let Some(def) = work.edge(e) else { continue };
        let (from, to) = match edge.dir {
            Dir::Out => (&def.src_type, &def.tgt_type),
            Dir::In => (&def.tgt_type, &def.src_type),
        };
        if src_domain.iter().any(|t| t == from) && !reach.contains(to) {
            reach.push(to.clone());
        }
    }
    let narrowed: Vec<String> = target
        .iter()
        .filter(|t| reach.contains(t))
        .cloned()
        .collect();
    if narrowed.is_empty() {
        target.to_vec()
    } else {
        narrowed
    }
}

/// Per-operator `(description, estimated rows)` annotations for one
/// branch of a path composition (all of its `and`-joined paths,
/// concatenated — joins are not modelled, each path is bounded alone).
pub fn estimate_paths(
    work: &Catalog,
    stats: &CatalogStats,
    paths: &[&ast::PathQuery],
) -> Vec<(String, f64)> {
    // Label definitions on concrete-typed steps seed the domains of
    // back-references (shared labels across `and` paths included).
    let mut labels: Vec<(String, Vec<String>)> = Vec::new();
    for path in paths {
        for v in path.vertex_steps() {
            if let (Some(def), StepName::Named(n)) = (&v.label_def, &v.name) {
                if work.vertex(n).is_some() {
                    labels.push((def.name.clone(), vec![n.clone()]));
                }
            }
        }
    }

    let mut ops = Vec::new();
    for path in paths {
        let mut domain: Vec<String> = Vec::new();
        let mut flow = 0.0;
        let mut at_head = true;
        // The edge of the hop being walked; inside a group, the frontier
        // domain and the expansion of one iteration so far.
        let mut edge: Option<&ast::EdgeStep> = None;
        let mut cur: Vec<String> = Vec::new();
        let mut per_iter = 1.0;
        path.for_each_step(&mut |step, group| match (step, group) {
            (Step::Edge(e), None) => edge = Some(e),
            (Step::Vertex(v), None) => {
                let target = vertex_domain(work, &labels, &v.name);
                if std::mem::take(&mut at_head) {
                    flow = vertex_estimate(work, stats, &target, v.cond.as_ref());
                    ops.push((format!("vertex step {}", step_display(&v.name)), flow));
                    domain = target;
                } else if let Some(edge) = edge.take() {
                    let expansion = hop_expansion(work, stats, &domain, edge);
                    let target = narrowed_target(work, &domain, edge, &target);
                    let tsel = vertex_cond_selectivity(work, stats, &target, v.cond.as_ref());
                    flow = flow * expansion * tsel;
                    ops.push((
                        format!(
                            "hop {}{}{} {}",
                            if edge.dir == Dir::In { "<--" } else { "--" },
                            step_display(&edge.name),
                            if edge.dir == Dir::In { "--" } else { "-->" },
                            step_display(&v.name),
                        ),
                        flow,
                    ));
                    domain = target;
                } else {
                    // A group's exit step.
                    flow *= vertex_cond_selectivity(work, stats, &target, v.cond.as_ref());
                    ops.push((format!("group exit {}", step_display(&v.name)), flow));
                    domain = target;
                }
            }
            (Step::Edge(e), Some(g)) => {
                if g.hop == 0 {
                    per_iter = 1.0;
                    cur = domain.clone();
                }
                per_iter *= hop_expansion(work, stats, &cur, e);
                edge = Some(e);
            }
            (Step::Vertex(v), Some(g)) => {
                let target = vertex_domain(work, &labels, &v.name);
                cur = narrowed_target(work, &cur, edge.take().expect("hop edge"), &target);
                per_iter *= vertex_cond_selectivity(work, stats, &cur, v.cond.as_ref());
                if g.hop + 1 == g.hops.len() {
                    let (lo, hi) = g.quant.bounds();
                    let depth = GROUP_DEPTH_CAP.max(lo).min(hi.unwrap_or(u32::MAX));
                    flow *= per_iter.max(1.0).powi(depth as i32);
                    let quant_str = match g.quant {
                        Quant::Star => "*".to_string(),
                        Quant::Plus => "+".to_string(),
                        Quant::Range(a, b) => format!("{{{a},{b}}}"),
                    };
                    ops.push((format!("group {quant_str}"), flow));
                    domain = std::mem::take(&mut cur);
                }
            }
        });
    }
    ops
}

/// Average condition selectivity over a domain of vertex types (weighted
/// uniformly — good enough for plan annotation).
fn vertex_cond_selectivity(
    work: &Catalog,
    stats: &CatalogStats,
    domain: &[String],
    cond: Option<&Expr>,
) -> f64 {
    let Some(c) = cond else { return 1.0 };
    if domain.is_empty() {
        return expr_selectivity(None, c);
    }
    let total: f64 = domain
        .iter()
        .map(|vt| {
            let card = work
                .vertex(vt)
                .and_then(|def| stats.tables.get(&def.table))
                .map(|c| &**c);
            expr_selectivity(card, c)
        })
        .sum();
    total / domain.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_estimates_render_compactly() {
        assert_eq!(fmt_rows(0.0), "0");
        assert_eq!(fmt_rows(742.0), "742");
        assert_eq!(fmt_rows(12_500.0), "12.5k");
        assert_eq!(fmt_rows(100_000_000.0), "100.0M");
        assert_eq!(fmt_rows(1e12), "1.0e12");
        assert_eq!(fmt_rows(f64::INFINITY), "inf");
    }
}
