//! AST-level analyses over checked select statements (§III-A, Fig. 8),
//! shared by the checker in [`crate::analyze`] and `explain`:
//!
//! * [`dataflow`] — the predicate analyzer: constant verdicts and
//!   interval analysis (value ranges + nullability) over step and `where`
//!   predicates decide `W0203` (always-false comparison), `W0207`
//!   (contradictory range) and `W0208` (tautological predicate) together,
//!   plus `W0206` (dead pattern branch) and `H0203`
//!   (statistics-estimated large intermediate).
//! * [`cost`] — the one catalog-statistics-backed cardinality estimator:
//!   it walks a resolved path query and feeds both `explain`'s
//!   per-operator row estimates and the `H0203` large-plan hint, so the
//!   two always agree. Estimates read the persistent
//!   [`crate::catalog::CatalogStats`] store (per-type cardinalities,
//!   degree means, per-column NDV).
//!
//! `check` runs dataflow for diagnostics (never building the graph), and
//! `explain` runs cost annotation. Nothing here changes a statement: the
//! statement that was checked is the statement that runs.

use std::convert::Infallible;

use graql_parser::ast::SelectStmt;

pub mod cost;
pub mod dataflow;

pub use cost::LARGE_PLAN_THRESHOLD;

/// Always `None`: statements run as written. Nothing in this workspace
/// calls it; it stays only while the benchmark harness (`benchmark/`)
/// still times a call to it as its `analysis.rewrite` span.
pub fn rewrite_select(_sel: &SelectStmt) -> Option<Infallible> {
    None
}
