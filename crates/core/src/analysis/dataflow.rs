//! Typed dataflow over per-binding domains: the predicate analyzer.
//!
//! Every condition a statement carries goes through `check_predicate`
//! once: constant folding (`verdict`) and the interval analysis of each
//! conjunction (`conjunction`) decide all of the predicate diagnostics
//! together. Nullability is folded into the interval rules — every
//! comparison evaluates to `false` on a null attribute, so a
//! contradiction between comparisons is a contradiction for null rows
//! too, and a verdict here holds for every row.
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
//!   result above [`super::cost::LARGE_PLAN_THRESHOLD`] rows. The estimate
//!   is [`super::cost::path_rows`] over the branches the resolver
//!   produced, the one `explain` prints.

use std::cmp::Ordering;

use graql_parser::ast::{Dir, Expr, Lit, Operand, PathComposition};
use graql_types::{codes, CmpOp, Diagnostic, Diagnostics, Span, Value};

use crate::analyze::resolve::GraphSelect;
use crate::catalog::{Catalog, CatalogStats};
use crate::compile::{CLink, CQuery};
use crate::cond::{lit_type, lit_value, Params};

use super::cost;

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
pub(crate) fn conjunction<'e>(parts: impl IntoIterator<Item = &'e Expr>) -> Conjunction<'e> {
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
// Constant verdicts
// ---------------------------------------------------------------------------
//
// GraQL's comparisons are SQL-flavoured about nulls: `=`, `!=` and the
// ordered comparisons are all false when either side is null, and `not`
// inverts that post-null verdict. So `x = x` is not a tautology (a null
// attribute makes it false) while `x < x`, `x > x` and `x != x` are
// contradictions, and `not (a < b)` is not `a >= b`. A `%param%` has no
// static type, and a subtree holding one never gets a verdict.

/// The constant verdict of one comparison, when it has one. Two
/// parameter-free literals of comparable types fold (incomparable ones
/// get no verdict: compilation reports them as a type error); `x < x`,
/// `x > x` and `x != x` are false even on null rows, where every
/// comparison already is.
fn cmp_verdict(op: CmpOp, lhs: &Operand, rhs: &Operand) -> Option<bool> {
    match (lhs, rhs) {
        (Operand::Lit(a), Operand::Lit(b)) => {
            if !lit_type(a)?.comparable_with(lit_type(b)?) {
                return None;
            }
            let params = Params::default();
            let va = lit_value(a, &params).expect("non-param literal");
            let vb = lit_value(b, &params).expect("non-param literal");
            Some(op.eval(&va, &vb))
        }
        (
            Operand::Attr {
                qualifier: q1,
                name: n1,
            },
            Operand::Attr {
                qualifier: q2,
                name: n2,
            },
        ) if q1 == q2 && n1 == n2 && matches!(op, CmpOp::Lt | CmpOp::Gt | CmpOp::Ne) => Some(false),
        _ => None,
    }
}

/// True when no `%param%` literal occurs anywhere in the expression.
fn param_free(e: &Expr) -> bool {
    let mut free = true;
    e.for_each_cmp(&mut |_, lhs, rhs, _| {
        free &= ![lhs, rhs]
            .iter()
            .any(|o| matches!(o, Operand::Lit(Lit::Param(_))))
    });
    free
}

/// A condition with its constant parts folded away.
enum Folded<'e> {
    /// It passes every row (`true`) or none (`false`).
    Const(bool),
    /// It depends on the row. `conjuncts` are the comparisons the folded
    /// form has as direct conjuncts (`not not x` is `x`, and an `and` or
    /// `or` left with one operand is that operand), under one more `not`
    /// when `negated`.
    Open {
        conjuncts: Vec<&'e Expr>,
        negated: bool,
    },
}

/// The constant verdict of a condition: `Some(true)` when it passes
/// every row, `Some(false)` when it passes none.
pub(crate) fn verdict(e: &Expr) -> Option<bool> {
    match fold(e) {
        Folded::Const(v) => Some(v),
        Folded::Open { .. } => None,
    }
}

fn fold(e: &Expr) -> Folded<'_> {
    let open = |conjuncts| Folded::Open {
        conjuncts,
        negated: false,
    };
    match e {
        Expr::Cmp { op, lhs, rhs, .. } => match cmp_verdict(*op, lhs, rhs) {
            Some(v) => Folded::Const(v),
            None => open(vec![e]),
        },
        Expr::Not(inner) => match fold(inner) {
            Folded::Const(v) => Folded::Const(!v),
            Folded::Open { conjuncts, negated } => Folded::Open {
                conjuncts,
                negated: !negated,
            },
        },
        Expr::And(parts) | Expr::Or(parts) => {
            let conj = matches!(e, Expr::And(_));
            let mut rest = Vec::new();
            for p in parts {
                match fold(p) {
                    // A neutral constant drops out.
                    Folded::Const(v) if v == conj => {}
                    // An absorbing one decides the node, unless a
                    // parameter elsewhere must still reach binding.
                    Folded::Const(_) if param_free(e) => return Folded::Const(!conj),
                    Folded::Const(_) => return open(Vec::new()),
                    f => rest.push(f),
                }
            }
            if rest.len() <= 1 {
                return rest.pop().unwrap_or(Folded::Const(conj));
            }
            if !conj {
                return open(Vec::new());
            }
            let conjuncts: Vec<&Expr> = rest
                .into_iter()
                .flat_map(|f| match f {
                    Folded::Open {
                        conjuncts,
                        negated: false,
                    } => conjuncts,
                    _ => Vec::new(),
                })
                .collect();
            // `x > 5 and x < 3` is false for every row (null rows fail
            // both sides already); a parameter blocks the verdict.
            if param_free(e) && conjunction(conjuncts.iter().copied()).empty.is_some() {
                return Folded::Const(false);
            }
            open(conjuncts)
        }
    }
}

// ---------------------------------------------------------------------------
// The predicate analyzer
// ---------------------------------------------------------------------------

/// Analyzes one condition, reporting `W0203` into `always_false` and —
/// for a select condition, whose position `what` names — `W0208` and
/// `W0207` into `flow`. Returns the constant verdict of the whole
/// condition.
pub(crate) fn check_predicate(
    e: &Expr,
    what: Option<&str>,
    always_false: &mut Diagnostics,
    flow: &mut Diagnostics,
) -> Option<bool> {
    let verdict = verdict(e);
    let tautology = verdict == Some(true);
    if let (true, Some(what)) = (tautology, what) {
        flow.push(
            Diagnostic::warning(
                codes::ALWAYS_TRUE,
                format!("this {what} is always true: it never filters anything"),
                e.span(),
            )
            .with_note("it is still evaluated on every row; remove it for clarity"),
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
/// and the select's error-free resolution `plan` — the `H0203` bound.
pub(crate) fn check_graph(
    work: &Catalog,
    stats: Option<&CatalogStats>,
    comp: &PathComposition,
    plan: Option<&GraphSelect>,
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
                dead |= verdict == Some(false);
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
                    "the branch contributes no rows, but it still runs; remove it"
                } else {
                    "the statement always returns an empty result"
                }),
            );
        }
    }

    // Statistics-backed cardinality bounds (H0203). Only meaningful once
    // the graph sections of the catalog statistics exist.
    let (Some(st), Some(plan)) = (stats.filter(|s| s.graph_complete), plan) else {
        return;
    };
    if let Some((desc, rows)) = plan.branches.iter().find_map(|q| costly_step(work, st, q)) {
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
    }
}

/// The first operator of a resolved branch whose estimated output is
/// above [`cost::LARGE_PLAN_THRESHOLD`], described, with its estimate.
fn costly_step(work: &Catalog, stats: &CatalogStats, q: &CQuery) -> Option<(String, f64)> {
    for (p, rows) in q.paths.iter().zip(cost::path_rows(work, stats, q)) {
        let Some(i) = rows.iter().position(|&r| r > cost::LARGE_PLAN_THRESHOLD) else {
            continue;
        };
        let v = &p.vsteps[i].display;
        let desc = match i.checked_sub(1).map(|l| &p.links[l]) {
            None => format!("vertex step {v}"),
            Some(CLink::Edge(e)) => match e.dir {
                Dir::Out => format!("hop --{}--> {v}", e.display),
                Dir::In => format!("hop <--{}-- {v}", e.display),
            },
            Some(CLink::Group(g)) => match (g.lo, g.hi) {
                (lo, Some(hi)) => format!("group {{{lo},{hi}}}"),
                (0, None) => "group *".to_string(),
                (_, None) => "group +".to_string(),
            },
        };
        return Some((desc, rows[i]));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict_of(pred: &str) -> Option<bool> {
        let script = graql_parser::parse(&format!("select id from table T where {pred}")).unwrap();
        verdict(
            script.statements[0]
                .as_select()
                .unwrap()
                .where_clause
                .as_ref()
                .unwrap(),
        )
    }

    #[test]
    fn verdicts_follow_null_semantics() {
        for (pred, want) in [
            ("1 < 2", Some(true)),
            ("2 < 1", Some(false)),
            ("'a' < 'b'", Some(true)),
            // Incomparable constants: compilation reports the type error.
            ("1 = 'a'", None),
            // A null attribute makes `x = x` false, and every comparison
            // on null is false already.
            ("x = x", None),
            ("x <= x", None),
            ("x < x", Some(false)),
            ("x != x", Some(false)),
            // `not (x < 5)` is not `x >= 5` on null rows.
            ("not (x < 5)", None),
            ("not (1 < 2)", Some(false)),
            ("x = 1 and 1 = 1", None),
            ("x = 1 and 1 = 2", Some(false)),
            ("x = 1 or 1 = 2", None),
            ("x = 1 or 1 = 1", Some(true)),
            ("x > 5 and x < 3", Some(false)),
            ("x >= 5 and x < 5", Some(false)),
            ("x > 3 and x < 5", None),
            // Interval analysis reads the folded form's conjuncts.
            ("x > 5 and (y = 1 and x < 3)", Some(false)),
            ("x > 5 and not (not (x < 3))", Some(false)),
            ("x > 5 and (x < 3 or 1 = 2)", Some(false)),
            ("x > 5 and not (x < 3)", None),
            // A parameter must still reach binding.
            ("x = %p% and 1 = 2", None),
            ("x = %p% or 1 = 1", None),
            ("x > 5 and x < 3 and y = %p%", None),
        ] {
            assert_eq!(verdict_of(pred), want, "{pred}");
        }
    }
}
