//! Typed dataflow over per-binding domains: the predicate analyzer.
//!
//! Every condition a statement carries goes through `check_predicate`
//! once: the simplifier's verdicts (`rewrite::simplify`) and the
//! interval analysis of each conjunction (`conjunction`) decide all of
//! the predicate diagnostics together. Nullability is folded into the
//! interval rules — every comparison evaluates to `false` on a null
//! attribute, so a contradiction between comparisons is a contradiction
//! for null rows too, which is what makes the verdicts here safe for the
//! rewriter to act on.
//!
//! Emitted diagnostics:
//!
//! * `W0203` — a comparison that is always false (two constants, an
//!   attribute against itself), or a conjunction equating one attribute
//!   to two different constants.
//! * `W0207` — a conjunction constrains one attribute to an empty value
//!   range (`price > 50 and price < 10`): the predicate never passes.
//! * `W0208` — a predicate folds to constant `true`: it never filters.
//! * `W0206` — an `or`-branch (or a whole pattern) whose step conditions
//!   make it unsatisfiable: a dead pattern branch.
//! * `H0203` — catalog statistics estimate an operator's intermediate
//!   result above [`super::cost::LARGE_PLAN_THRESHOLD`] rows.

use std::cmp::Ordering;

use graql_parser::ast::{Expr, Lit, Operand, PathComposition};
use graql_types::{codes, CmpOp, Diagnostic, Diagnostics, Span, Value};

use crate::catalog::{Catalog, CatalogStats};
use crate::cond::{lit_value, Params};

use super::cost;
use super::rewrite::{cmp_verdict, simplify, Simp};

// ---------------------------------------------------------------------------
// Interval analysis (value ranges per attribute)
// ---------------------------------------------------------------------------

/// What the interval analysis found in one conjunction.
pub(crate) struct Conjunction<'e> {
    /// Equalities contradicting the first equality on the same attribute
    /// (`W0203`): attribute name and the conjunct's span.
    pub eq_conflicts: Vec<(&'e str, Span)>,
    /// The first attribute, in order of appearance, that no value can
    /// satisfy.
    pub empty: Option<Empty<'e>>,
}

/// Why an attribute admits no value.
pub(crate) enum Empty<'e> {
    /// Two equalities to different constants: `eq_conflicts` already
    /// reports it.
    Equalities,
    /// Bounds or exclusions leave an empty range (`W0207`).
    Range {
        qualifier: Option<&'e str>,
        name: &'e str,
    },
}

struct Range<'e> {
    qualifier: Option<&'e str>,
    name: &'e str,
    /// The first `=` constant: later equalities must agree with it.
    first_eq: Option<Value>,
    /// The latest `=` constant, checked against the bounds.
    eq: Option<Value>,
    ne: Vec<Value>,
    /// Lower bound `(value, strict)`.
    low: Option<(Value, bool)>,
    /// Upper bound `(value, strict)`.
    high: Option<(Value, bool)>,
    /// Two consecutive, comparable but different `=` constants.
    eq_conflict: bool,
}

impl Range<'_> {
    fn tighten(bound: &mut Option<(Value, bool)>, v: Value, strict: bool, tighter: Ordering) {
        let replace = match bound {
            None => true,
            Some((cur, cur_strict)) => match v.sem_cmp(cur) {
                Some(o) if o == tighter => true,
                Some(Ordering::Equal) => strict && !*cur_strict,
                _ => false,
            },
        };
        if replace {
            *bound = Some((v, strict));
        }
    }

    /// True when no value can satisfy every recorded bound. Incomparable
    /// pairs (type mismatches) never count: compilation reports those as
    /// errors and we must not claim emptiness.
    fn bounds_empty(&self) -> bool {
        // `v` lies beyond bound `b` on the `outside` side.
        let beyond = |v: &Value, b: &Value, strict: bool, outside: Ordering| match v.sem_cmp(b) {
            Some(Ordering::Equal) => strict,
            Some(o) => o == outside,
            None => false,
        };
        if let Some(eq) = &self.eq {
            if self.ne.iter().any(|n| eq.sem_eq(n))
                || matches!(&self.low, Some((lo, s)) if beyond(eq, lo, *s, Ordering::Less))
                || matches!(&self.high, Some((hi, s)) if beyond(eq, hi, *s, Ordering::Greater))
            {
                return true;
            }
        }
        matches!((&self.low, &self.high),
            (Some((lo, ls)), Some((hi, hs))) if beyond(lo, hi, *ls || *hs, Ordering::Greater))
    }
}

/// Analyzes the direct conjuncts of an `and`. Only `attr <op> literal`
/// conjuncts (either orientation, parameters excluded) contribute;
/// everything else is ignored, which keeps the verdict conservative: a
/// reported contradiction holds for every row, null attributes included.
pub(crate) fn conjunction(parts: &[Expr]) -> Conjunction<'_> {
    let mut ranges: Vec<Range<'_>> = Vec::new();
    let mut eq_conflicts = Vec::new();
    let params = Params::default();
    for p in parts {
        let Expr::Cmp { op, lhs, rhs, span } = p else {
            continue;
        };
        let (qualifier, name, op, lit) = match (lhs, rhs) {
            (Operand::Attr { qualifier, name }, Operand::Lit(l)) if !matches!(l, Lit::Param(_)) => {
                (qualifier.as_deref(), name.as_str(), *op, l)
            }
            (Operand::Lit(l), Operand::Attr { qualifier, name }) if !matches!(l, Lit::Param(_)) => {
                (qualifier.as_deref(), name.as_str(), op.flip(), l)
            }
            _ => continue,
        };
        let v = lit_value(lit, &params).expect("non-param literal");
        let i = match ranges
            .iter()
            .position(|r| r.qualifier == qualifier && r.name == name)
        {
            Some(i) => i,
            None => {
                ranges.push(Range {
                    qualifier,
                    name,
                    first_eq: None,
                    eq: None,
                    ne: Vec::new(),
                    low: None,
                    high: None,
                    eq_conflict: false,
                });
                ranges.len() - 1
            }
        };
        let range = &mut ranges[i];
        match op {
            CmpOp::Eq => {
                match &range.first_eq {
                    Some(first) if !CmpOp::Eq.eval(first, &v) => eq_conflicts.push((name, *span)),
                    Some(_) => {}
                    None => range.first_eq = Some(v.clone()),
                }
                if let Some(prev) = &range.eq {
                    // sem_cmp None means a type error: no claim.
                    if prev.sem_cmp(&v).is_some() && !prev.sem_eq(&v) {
                        range.eq_conflict = true;
                    }
                }
                range.eq = Some(v);
            }
            CmpOp::Ne => range.ne.push(v),
            CmpOp::Lt => Range::tighten(&mut range.high, v, true, Ordering::Less),
            CmpOp::Le => Range::tighten(&mut range.high, v, false, Ordering::Less),
            CmpOp::Gt => Range::tighten(&mut range.low, v, true, Ordering::Greater),
            CmpOp::Ge => Range::tighten(&mut range.low, v, false, Ordering::Greater),
        }
    }
    let empty = ranges.iter().find_map(|r| {
        if r.eq_conflict {
            Some(Empty::Equalities)
        } else if r.bounds_empty() {
            Some(Empty::Range {
                qualifier: r.qualifier,
                name: r.name,
            })
        } else {
            None
        }
    });
    Conjunction {
        eq_conflicts,
        empty,
    }
}

// ---------------------------------------------------------------------------
// The predicate analyzer
// ---------------------------------------------------------------------------

/// Analyzes one condition, reporting `W0203` into `always_false` and —
/// for a select condition, whose position `what` names — `W0208` and
/// `W0207` into `flow`. Returns the simplifier's verdict on the whole
/// condition.
pub(crate) fn check_predicate(
    e: &Expr,
    what: Option<&str>,
    always_false: &mut Diagnostics,
    flow: &mut Diagnostics,
) -> Simp {
    let verdict = simplify(e);
    let tautology = matches!(verdict, Simp::True);
    if let (true, Some(what)) = (tautology, what) {
        flow.push(
            Diagnostic::warning(
                codes::ALWAYS_TRUE,
                format!("this {what} is always true: it never filters anything"),
                e.span(),
            )
            .with_note("the optimizer drops it; remove it for clarity"),
        );
    }
    // A tautology has no empty range worth reporting.
    let ranges = what.is_some() && !tautology;
    walk(e, ranges, always_false, flow);
    verdict
}

fn walk(e: &Expr, ranges: bool, always_false: &mut Diagnostics, flow: &mut Diagnostics) {
    match e {
        Expr::And(parts) => {
            let c = conjunction(parts);
            for (name, span) in c.eq_conflicts {
                always_false.push(
                    Diagnostic::warning(
                        codes::ALWAYS_FALSE,
                        format!(
                            "contradictory equality constraints on '{name}': \
                             the condition is always false"
                        ),
                        span,
                    )
                    .with_note("did you mean 'or'?"),
                );
            }
            if let (true, Some(Empty::Range { qualifier, name })) = (ranges, c.empty) {
                let attr = match qualifier {
                    Some(q) => format!("{q}.{name}"),
                    None => name.to_string(),
                };
                flow.push(
                    Diagnostic::warning(
                        codes::CONTRADICTORY_RANGE,
                        format!(
                            "conditions on '{attr}' admit no value: the conjunction is always false"
                        ),
                        e.span(),
                    )
                    .with_note("null attributes fail every comparison, so no row can pass"),
                );
            }
            parts
                .iter()
                .for_each(|p| walk(p, ranges, always_false, flow));
        }
        Expr::Or(parts) => parts
            .iter()
            .for_each(|p| walk(p, ranges, always_false, flow)),
        Expr::Not(inner) => walk(inner, ranges, always_false, flow),
        Expr::Cmp { op, lhs, rhs, span } => {
            if cmp_verdict(*op, lhs, rhs) == Some(false) {
                let message = match lhs {
                    Operand::Attr { name, .. } => {
                        format!("'{name}' compared against itself is always false")
                    }
                    Operand::Lit(_) => "comparison of two constants is always false".to_string(),
                };
                always_false.push(Diagnostic::warning(codes::ALWAYS_FALSE, message, *span));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Graph selects: dead branches and cardinality bounds
// ---------------------------------------------------------------------------

/// Checks the step conditions of a graph select (at `span`) branch by
/// branch: the predicate diagnostics of each condition, `W0206` for a
/// branch some condition makes unsatisfiable, and — with graph statistics
/// — the `H0203` bound.
pub(crate) fn check_graph(
    work: &Catalog,
    stats: Option<&CatalogStats>,
    comp: &PathComposition,
    span: Span,
    always_false: &mut Diagnostics,
    flow: &mut Diagnostics,
) {
    let branches: Vec<&PathComposition> = match comp {
        PathComposition::Or(parts) => parts.iter().collect(),
        other => vec![other],
    };
    let many = branches.len() > 1;
    for branch in &branches {
        let mut dead = false;
        branch.for_each_step(&mut |step, _| {
            if let Some(cond) = step.cond() {
                let verdict = check_predicate(cond, Some("step condition"), always_false, flow);
                dead |= matches!(verdict, Simp::False);
            }
        });
        if dead {
            let head = branch
                .paths()
                .first()
                .map(|p| p.head.span)
                .unwrap_or_default();
            let what = if many { "`or`-branch" } else { "pattern" };
            flow.push(
                Diagnostic::warning(
                    codes::DEAD_BRANCH,
                    format!("this {what} can never match: a step condition is always false"),
                    head,
                )
                .with_note(if many {
                    "the branch contributes no rows; the optimizer removes it"
                } else {
                    "the statement always returns an empty result"
                }),
            );
        }
    }

    // Statistics-backed cardinality bounds (H0203). Only meaningful once
    // the graph sections of the catalog statistics exist.
    let Some(st) = stats.filter(|s| s.graph_complete) else {
        return;
    };
    for branch in &branches {
        let costly = cost::estimate_paths(work, st, &branch.paths())
            .into_iter()
            .find(|(_, rows)| *rows > cost::LARGE_PLAN_THRESHOLD);
        if let Some((desc, rows)) = costly {
            flow.push(
                Diagnostic::hint(
                    codes::COSTLY_TRAVERSAL,
                    format!(
                        "catalog statistics estimate ~{} intermediate rows at {desc}",
                        cost::fmt_rows(rows)
                    ),
                    span,
                )
                .with_note(
                    "consider tighter step conditions, a bounded quantifier, or a \
                     more selective start step",
                ),
            );
            return;
        }
    }
}
