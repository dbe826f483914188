//! Catalog-statistics-backed cardinality estimation: the one estimator
//! behind `explain`'s row annotations and the `H0203` large-plan hint.
//!
//! It walks a path query as the resolver left it ([`CQuery`]: type ids in
//! catalog declaration order, each step's condition as written), seeded by
//! per-type vertex counts and expanded through mean edge degrees from the
//! [`CatalogStats`] store. Predicate selectivities use per-column NDV when
//! the backing table's statistics are available and textbook defaults
//! otherwise (equality `1/NDV` or `0.1`, range `1/3`, conjunction =
//! product, disjunction = inclusion-exclusion). A `%param%` is a constant
//! of unknown value, so it estimates like any other constant. These are
//! *estimates for plan annotation and hints*, not guarantees; the executor
//! never consults them for correctness.

use graql_graph::VTypeId;
use graql_parser::ast::{Dir, Expr, Operand};
use graql_types::CmpOp;

use crate::catalog::{Catalog, CatalogStats, TableCard};
use crate::compile::{CEStep, CLink, CQuery, CVStep};

/// Above this many estimated intermediate rows, the analyzer raises the
/// `H0203` large-plan hint.
pub const LARGE_PLAN_THRESHOLD: f64 = 1_000_000.0;

/// Exponent cap when estimating a `{n,m}` / `*` / `+` group: degrees
/// compound, so a handful of repetitions already dominates any plan.
const GROUP_DEPTH_CAP: u32 = 8;

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

/// Selectivity of a condition against rows of one relation whose
/// statistics (if any) are `card`. A condition with a constant verdict
/// ([`super::dataflow`]'s: `1 > 2`, `x < x`, `x > 5 and x < 3`) keeps no
/// row or every row. Otherwise an attribute compared with a literal or a
/// `%param%` uses the column's NDV, and any other comparison keeps half.
pub fn expr_selectivity(card: Option<&TableCard>, e: &Expr) -> f64 {
    if let Some(passes) = super::dataflow::verdict(e) {
        return if passes { 1.0 } else { 0.0 };
    }
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
            (Operand::Attr { name, .. }, Operand::Lit(_))
            | (Operand::Lit(_), Operand::Attr { name, .. }) => {
                cmp_selectivity(*op, card.and_then(|c| c.ndv(name)))
            }
            _ => 0.5,
        },
    }
}

// ---------------------------------------------------------------------------
// Path estimation over resolved queries
// ---------------------------------------------------------------------------

/// Estimated rows at each vertex step of each path of a resolved
/// and-composition: `rows[p][0]` counts the first step's matches and
/// `rows[p][i]` the flow after link `i - 1` and step `i`'s condition. The
/// joins between `and`-ed paths are not modelled: each path is bounded
/// alone.
pub fn path_rows(cat: &Catalog, stats: &CatalogStats, q: &CQuery) -> Vec<Vec<f64>> {
    let est = Estimator { cat, stats };
    q.paths
        .iter()
        .map(|p| {
            let Some((head, rest)) = p.vsteps.split_first() else {
                return Vec::new();
            };
            let mut flow = est.step_rows(head);
            let mut rows = vec![flow];
            for (link, v) in p.links.iter().zip(rest) {
                flow = est.link_rows(link, flow) * est.step_selectivity(v);
                rows.push(flow);
            }
            rows
        })
        .collect()
}

struct Estimator<'a> {
    cat: &'a Catalog,
    stats: &'a CatalogStats,
}

impl Estimator<'_> {
    /// Selectivity of a step condition over vertex type `vt`'s table.
    fn cond_selectivity(&self, vt: VTypeId, cond: &Expr) -> f64 {
        let card = self
            .cat
            .vertex(self.vertex_name(vt))
            .and_then(|def| self.stats.tables.get(&def.table));
        expr_selectivity(card.map(|c| &**c), cond)
    }

    fn vertex_name(&self, vt: VTypeId) -> &str {
        &self.cat.vertex_names()[vt.0 as usize]
    }

    /// Standalone estimate for a vertex step: per-type vertex counts
    /// scaled by the selectivity of the step's condition.
    fn step_rows(&self, v: &CVStep) -> f64 {
        let mut est = 0.0;
        for &vt in &v.domain {
            let count = self.stats.vertex_count(self.vertex_name(vt)).unwrap_or(0) as f64;
            est += count
                * v.cond
                    .as_ref()
                    .map_or(1.0, |c| self.cond_selectivity(vt, c));
        }
        est
    }

    /// Mean condition selectivity of a step over its domain (1.0 when
    /// unfiltered), applied to rows flowing into it from a link.
    fn step_selectivity(&self, v: &CVStep) -> f64 {
        let Some(cond) = &v.cond else { return 1.0 };
        let total: f64 = v
            .domain
            .iter()
            .map(|&vt| self.cond_selectivity(vt, cond))
            .sum();
        total / v.domain.len().max(1) as f64
    }

    /// Degree-based expansion of one edge traversal, summed over the
    /// candidate edge types in the traversal direction. An edge condition
    /// keeps a third of the edges.
    fn edge_expansion(&self, e: &CEStep) -> f64 {
        let names = self.cat.edge_names();
        let mut expansion = 0.0;
        let mut add = |name: &str| {
            if let Some((mean_out, mean_in)) = self.stats.mean_degrees(name) {
                expansion += match e.dir {
                    Dir::Out => mean_out,
                    Dir::In => mean_in,
                };
            }
        };
        match &e.domain {
            Some(d) => d.iter().for_each(|et| add(&names[et.0 as usize])),
            None => names.iter().for_each(|n| add(n)),
        }
        if e.cond.is_some() {
            expansion / 3.0
        } else {
            expansion
        }
    }

    fn link_rows(&self, link: &CLink, flow: f64) -> f64 {
        match link {
            CLink::Edge(e) => flow * self.edge_expansion(e),
            CLink::Group(g) => {
                let mut per_iter = 1.0;
                for (e, v) in &g.hops {
                    per_iter *= self.edge_expansion(e);
                    per_iter *= self.step_selectivity(v);
                }
                let depth = GROUP_DEPTH_CAP.max(g.lo).min(g.hi.unwrap_or(u32::MAX));
                flow * per_iter.max(1.0).powi(depth as i32)
            }
        }
    }
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
