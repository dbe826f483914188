//! AST-level analyses over checked select statements (§III-A, Fig. 8),
//! shared by the checker in [`crate::analyze`] and the execution paths:
//!
//! * [`dataflow`] — the predicate analyzer: simplifier verdicts and
//!   interval analysis (value ranges + nullability) over step and `where`
//!   predicates decide `W0203` (always-false comparison), `W0207`
//!   (contradictory range) and `W0208` (tautological predicate) together,
//!   plus `W0206` (dead pattern branch) and `H0203`
//!   (statistics-estimated large intermediate).
//! * [`rewrite`] — semantics-preserving plan rewrites: constant folding,
//!   predicate simplification, dead `or`-branch elimination, unused-label
//!   elimination and `and`/`or` composition flattening. Every rewrite is
//!   required to produce byte-identical results to the original statement;
//!   the soundness rules (null comparison semantics, parameter and group
//!   preservation) are documented on [`rewrite::rewrite_select`].
//! * [`cost`] — the one catalog-statistics-backed cardinality estimator:
//!   it walks a resolved path query and feeds both `explain`'s
//!   per-operator row estimates and the `H0203` large-plan hint, so the
//!   two always agree. Estimates read the persistent
//!   [`crate::catalog::CatalogStats`] store (per-type cardinalities,
//!   degree means, per-column NDV).
//!
//! The analyses run at two points: `check` runs dataflow for diagnostics
//! (never building the graph), and the execution/`explain` paths run the
//! rewriter followed by cost annotation.

pub mod cost;
pub mod dataflow;
pub mod rewrite;

pub use cost::LARGE_PLAN_THRESHOLD;
pub use rewrite::{rewrite_select, Rewritten};
