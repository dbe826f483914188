//! Semantics-preserving rewrites over the checked query AST (Fig. 8).
//!
//! Every pass here must keep the rewritten statement *byte-identical in
//! output* to the original under GraQL's evaluation rules, which are
//! SQL-flavoured about nulls:
//!
//! * `a = b` is false when either side is null, `a != b` is false when
//!   either side is null, and ordered comparisons are false when either
//!   side is null. Consequently `x = x` is **not** a tautology (a null
//!   attribute makes it false), while `x < x`, `x > x` and `x != x` *are*
//!   contradictions. Only constant/constant comparisons can ever be folded
//!   to `true`.
//! * `not` inverts the post-null verdict, so `not (a < b)` is **not**
//!   `a >= b`; negations are never pushed through comparisons, only
//!   `not not x → x` and negation of folded constants are rewritten.
//! * `%param%` literals bind (and may fail to bind) at execution; any
//!   subtree containing a parameter is preserved verbatim so that unbound
//!   parameter errors surface exactly as before. A folded `true`/`false`
//!   verdict therefore only ever derives from parameter-free subtrees.
//! * Constant folding also requires both literal types to be known and
//!   comparable, so type errors that compilation would report are never
//!   masked by folding the comparison away first.
//! * Dead `or`-branch elimination only removes branches whose own step
//!   conditions fold to `false`; branches whose *type domain* is empty are
//!   left alone because compilation reports those as errors at runtime.
//!   A dropped branch must also be parameter-free and contain no path
//!   regex group, and at least one branch is always kept.

use std::borrow::Cow;

use graql_parser::ast::{
    Expr, LabelKind, Lit, Operand, PathComposition, SelectSource, SelectStmt, SelectTargets,
    StepMut,
};
use graql_types::{CmpOp, Span};

use crate::cond::{lit_type, lit_value, Params};

use super::dataflow;

/// Outcome of [`rewrite_select`]: the rewritten statement plus the names
/// of the passes that changed it (surfaced by `explain`).
#[derive(Debug, Clone)]
pub struct Rewritten {
    pub sel: SelectStmt,
    pub passes: Vec<&'static str>,
}

/// A rewrite pass. It analyzes the statement read-only and writes through
/// [`Cow::to_mut`] only when it changes something, so the statement is
/// cloned on the first actual change of any pass and never when none
/// fires. Returns whether it changed the statement.
type Pass = fn(&mut Cow<'_, SelectStmt>) -> bool;

const PASSES: [(&str, Pass); 4] = [
    ("flatten-composition", flatten_composition),
    ("fold-predicates", fold_predicates),
    ("prune-dead-branches", prune_dead_branches),
    ("drop-unused-labels", drop_unused_labels),
];

/// Applies all rewrite passes to a select statement. Returns `None`, with
/// nothing cloned, when no pass changed anything (callers then execute
/// the original).
pub fn rewrite_select(sel: &SelectStmt) -> Option<Rewritten> {
    let mut cur = Cow::Borrowed(sel);
    let mut passes = Vec::new();
    for (name, pass) in PASSES {
        if pass(&mut cur) {
            passes.push(name);
        }
    }
    match cur {
        Cow::Owned(sel) => Some(Rewritten { sel, passes }),
        Cow::Borrowed(_) => None,
    }
}

/// Rebuilds a node's children lazily. `edit` returns `None` to keep a
/// child as it is, or its replacement list (empty to drop it, several to
/// splice). Returns `None`, having cloned nothing, when every child is
/// kept.
fn rebuild<T: Clone>(parts: &[T], mut edit: impl FnMut(&T) -> Option<Vec<T>>) -> Option<Vec<T>> {
    let mut out: Option<Vec<T>> = None;
    for (i, p) in parts.iter().enumerate() {
        match edit(p) {
            None => {
                if let Some(out) = &mut out {
                    out.push(p.clone());
                }
            }
            Some(new) => out.get_or_insert_with(|| parts[..i].to_vec()).extend(new),
        }
    }
    out
}

/// Applies `edits`, `(step index in visitor order, value)` pairs in
/// ascending order, to the statement's path steps.
fn edit_steps<T>(sel: &mut SelectStmt, edits: Vec<(usize, T)>, apply: impl Fn(StepMut<'_>, T)) {
    let SelectSource::Graph(comp) = &mut sel.source else {
        return;
    };
    let mut edits = edits.into_iter().peekable();
    let mut i = 0;
    comp.for_each_step_mut(&mut |step| {
        if let Some((_, v)) = edits.next_if(|(at, _)| *at == i) {
            apply(step, v);
        }
        i += 1;
    });
}

// ---------------------------------------------------------------------------
// Constant literals
// ---------------------------------------------------------------------------

/// Canonical always-false predicate (`0 = 1`): compiles everywhere and
/// evaluates to `false` for every row.
fn const_false(span: Span) -> Expr {
    Expr::Cmp {
        op: CmpOp::Eq,
        lhs: Operand::Lit(Lit::Int(0)),
        rhs: Operand::Lit(Lit::Int(1)),
        span,
    }
}

/// Canonical always-true predicate (`0 = 0`).
fn const_true(span: Span) -> Expr {
    Expr::Cmp {
        op: CmpOp::Eq,
        lhs: Operand::Lit(Lit::Int(0)),
        rhs: Operand::Lit(Lit::Int(0)),
        span,
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

// ---------------------------------------------------------------------------
// Expression simplification (constant folding + predicate simplification)
// ---------------------------------------------------------------------------

/// The constant verdict of one comparison, when it has one. Two
/// parameter-free literals of comparable types fold (incomparable ones are
/// kept, so the type error compilation reports is never masked); `x < x`,
/// `x > x` and `x != x` are false even on null rows, where every
/// comparison already is.
pub(crate) fn cmp_verdict(op: CmpOp, lhs: &Operand, rhs: &Operand) -> Option<bool> {
    match (lhs, rhs) {
        (Operand::Lit(a), Operand::Lit(b)) => {
            // `%params%` have no static type.
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

/// Three-valued simplification verdict. `True`/`False` verdicts are only
/// ever produced from parameter-free subtrees (see module docs); `Same`
/// means the expression is already simplified, and costs no allocation.
#[derive(Debug)]
pub(crate) enum Simp {
    True,
    False,
    Same,
    New(Expr),
}

pub(crate) fn simplify(e: &Expr) -> Simp {
    match e {
        Expr::Cmp { op, lhs, rhs, .. } => match cmp_verdict(*op, lhs, rhs) {
            Some(true) => Simp::True,
            Some(false) => Simp::False,
            None => Simp::Same,
        },
        Expr::Not(inner) => match simplify(inner) {
            Simp::True => Simp::False,
            Simp::False => Simp::True,
            Simp::Same => match &**inner {
                Expr::Not(x) => Simp::New((**x).clone()),
                _ => Simp::Same,
            },
            Simp::New(Expr::Not(x)) => Simp::New(*x),
            Simp::New(k) => Simp::New(Expr::Not(Box::new(k))),
        },
        Expr::And(parts) => simplify_nary(e, parts, true),
        Expr::Or(parts) => simplify_nary(e, parts, false),
    }
}

/// `and` (`conj`) or `or` node `e`: drops neutral constants, splices
/// same-op children, and collapses to a singleton child. An absorbing
/// constant (`false` under `and`, `true` under `or`) decides the node
/// unless a parameter elsewhere must still reach bind-time resolution;
/// then the node keeps its structure with the constant made explicit.
fn simplify_nary(e: &Expr, parts: &[Expr], conj: bool) -> Simp {
    let same_op = |x: &Expr| matches!((x, conj), (Expr::And(_), true) | (Expr::Or(_), false));
    let children = |x: &Expr| match x {
        Expr::And(ps) | Expr::Or(ps) => ps.clone(),
        _ => unreachable!("same-op node"),
    };
    let mut absorbed = false;
    let out = rebuild(parts, |p| match simplify(p) {
        // A dropped neutral constant was parameter-free by construction,
        // so removing it cannot mask a bind error.
        Simp::True if conj => Some(Vec::new()),
        Simp::False if !conj => Some(Vec::new()),
        Simp::True | Simp::False => {
            absorbed = true;
            Some(Vec::new())
        }
        Simp::Same if same_op(p) => Some(children(p)),
        Simp::Same => None,
        Simp::New(Expr::And(ps)) if conj => Some(ps),
        Simp::New(Expr::Or(ps)) if !conj => Some(ps),
        Simp::New(k) => Some(vec![k]),
    });
    let verdict = |v: bool| if v { Simp::True } else { Simp::False };
    let node = |ps: Vec<Expr>| if conj { Expr::And(ps) } else { Expr::Or(ps) };
    if absorbed {
        if param_free(e) {
            return verdict(!conj);
        }
        let mut out = out.expect("an absorbed constant is an edit");
        let span = e.span();
        out.push(if conj {
            const_false(span)
        } else {
            const_true(span)
        });
        return Simp::New(node(out));
    }
    let kept = out.as_deref().unwrap_or(parts);
    // Interval analysis over the surviving conjuncts: `x > 5 and x < 3`
    // is false for every row (null rows fail both sides already), but
    // collapsing is only sound when the whole conjunction is
    // parameter-free.
    if conj && param_free(e) && dataflow::conjunction(kept).empty.is_some() {
        return Simp::False;
    }
    let n = kept.len();
    match out {
        // Every child was a neutral constant.
        _ if n == 0 => verdict(conj),
        Some(mut out) if n == 1 => Simp::New(out.pop().expect("one child")),
        None if n == 1 => Simp::New(parts[0].clone()),
        Some(out) => Simp::New(node(out)),
        None => Simp::Same,
    }
}

/// The folded form of an optional condition, when folding changes it.
/// `true` verdicts drop the condition; `false` verdicts install the
/// canonical false predicate (the enclosing step or statement then yields
/// no rows, exactly as the original condition did).
fn fold_cond(cond: Option<&Expr>) -> Option<Option<Expr>> {
    let e = cond?;
    match simplify(e) {
        Simp::Same => None,
        Simp::True => Some(None),
        Simp::False => Some(Some(const_false(e.span()))),
        Simp::New(k) => Some(Some(k)),
    }
}

/// Constant folding + predicate simplification over every condition the
/// statement carries (table `where` and all step conditions).
fn fold_predicates(sel: &mut Cow<'_, SelectStmt>) -> bool {
    let where_edit = fold_cond(sel.where_clause.as_ref());
    let mut step_edits = Vec::new();
    if let SelectSource::Graph(comp) = &sel.source {
        let mut i = 0;
        comp.for_each_step(&mut |step, _| {
            if let Some(edit) = fold_cond(step.cond()) {
                step_edits.push((i, edit));
            }
            i += 1;
        });
    }
    if where_edit.is_none() && step_edits.is_empty() {
        return false;
    }
    let sel = sel.to_mut();
    if let Some(w) = where_edit {
        sel.where_clause = w;
    }
    edit_steps(sel, step_edits, |mut step, cond| *step.cond() = cond);
    true
}

// ---------------------------------------------------------------------------
// Composition flattening
// ---------------------------------------------------------------------------

/// Flattens nested `and`/`or` composition nodes (`a or (b or c)` →
/// `a or b or c`). Execution already treats nested nodes associatively,
/// so this is a pure plan-shape normalization; branch order is preserved.
fn flatten_composition(sel: &mut Cow<'_, SelectStmt>) -> bool {
    let SelectSource::Graph(comp) = &sel.source else {
        return false;
    };
    let Some(flat) = flatten(comp) else {
        return false;
    };
    sel.to_mut().source = SelectSource::Graph(flat);
    true
}

/// `comp` with same-op children spliced into their parent and singleton
/// nodes collapsed; `None` when it is already flat.
fn flatten(comp: &PathComposition) -> Option<PathComposition> {
    let (parts, conj) = match comp {
        PathComposition::Single(_) => return None,
        PathComposition::And(parts) => (parts, true),
        PathComposition::Or(parts) => (parts, false),
    };
    let same_op = |c: &PathComposition| {
        matches!(
            (c, conj),
            (PathComposition::And(_), true) | (PathComposition::Or(_), false)
        )
    };
    let children = |c: PathComposition| match c {
        PathComposition::And(ps) | PathComposition::Or(ps) => ps,
        PathComposition::Single(_) => unreachable!("same-op node"),
    };
    let out = rebuild(parts, |p| match flatten(p) {
        Some(f) if same_op(&f) => Some(children(f)),
        Some(f) => Some(vec![f]),
        None if same_op(p) => Some(children(p.clone())),
        None => None,
    });
    let mut out = match out {
        Some(out) => out,
        None if parts.len() == 1 => parts.to_vec(),
        None => return None,
    };
    Some(match out.len() {
        1 => out.pop().expect("one branch"),
        _ if conj => PathComposition::And(out),
        _ => PathComposition::Or(out),
    })
}

// ---------------------------------------------------------------------------
// Dead or-branch elimination
// ---------------------------------------------------------------------------

/// True when some step condition in the composition folds to constant
/// `false`: the branch can never produce a binding.
fn branch_is_dead(comp: &PathComposition) -> bool {
    let mut dead = false;
    comp.for_each_step(&mut |step, _| {
        dead |= step
            .cond()
            .is_some_and(|c| matches!(simplify(c), Simp::False));
    });
    dead
}

/// A branch may only be *removed* when doing so cannot change an error
/// outcome: no `%param%` anywhere (bind errors), no regex group
/// (quantifier/cap errors).
fn branch_droppable(comp: &PathComposition) -> bool {
    let mut ok = true;
    comp.for_each_step(&mut |step, group| {
        ok &= group.is_none() && step.cond().is_none_or(param_free);
    });
    ok
}

/// Removes `or`-branches whose step conditions fold to constant `false`.
/// At least one branch is always kept (an all-dead composition still
/// executes, and still reports compile-time errors, like the original).
fn prune_dead_branches(sel: &mut Cow<'_, SelectStmt>) -> bool {
    let SelectSource::Graph(PathComposition::Or(parts)) = &sel.source else {
        return false;
    };
    let mut dead: Vec<bool> = parts
        .iter()
        .map(|p| branch_is_dead(p) && branch_droppable(p))
        .collect();
    if !dead.contains(&true) {
        return false;
    }
    if !dead.contains(&false) {
        // Keep the first branch so the statement still compiles and
        // produces its (empty) result shape.
        dead[0] = false;
    }
    let SelectSource::Graph(comp) = &mut sel.to_mut().source else {
        unreachable!("checked above");
    };
    let PathComposition::Or(parts) = comp else {
        unreachable!("checked above");
    };
    let mut keep: Vec<PathComposition> = std::mem::take(parts)
        .into_iter()
        .zip(dead)
        .filter_map(|(p, dead)| (!dead).then_some(p))
        .collect();
    *comp = if keep.len() == 1 {
        keep.pop().expect("one branch")
    } else {
        PathComposition::Or(keep)
    };
    true
}

// ---------------------------------------------------------------------------
// Unused set-label elimination
// ---------------------------------------------------------------------------

/// Removes `def` label definitions that nothing references (see
/// [`SelectStmt::for_each_label_ref`]). `foreach` labels are always kept
/// (element-wise labels change result multiplicity), as is everything
/// under `select *` (star projections capture labelled steps into
/// subgraphs).
fn drop_unused_labels(sel: &mut Cow<'_, SelectStmt>) -> bool {
    let (SelectTargets::Items(_), SelectSource::Graph(comp)) = (&sel.targets, &sel.source) else {
        return false;
    };
    let mut unused = Vec::new();
    let mut i = 0;
    comp.for_each_step(&mut |step, _| {
        if let Some(l) = step.label_def().filter(|l| l.kind == LabelKind::Set) {
            let mut used = false;
            sel.for_each_label_ref(&mut |n| used |= n == l.name);
            if !used {
                unused.push((i, ()));
            }
        }
        i += 1;
    });
    if unused.is_empty() {
        return false;
    }
    edit_steps(sel.to_mut(), unused, |mut step, ()| {
        *step.label_def() = None
    });
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_pred(pred: &str) -> Expr {
        let script = graql_parser::parse(&format!("select id from table T where {pred}")).unwrap();
        script.statements[0]
            .as_select()
            .unwrap()
            .where_clause
            .clone()
            .unwrap()
    }

    /// Simplifies a predicate string; renders kept results back to text.
    fn simp(pred: &str) -> String {
        let e = parse_pred(pred);
        match simplify(&e) {
            Simp::True => "TRUE".into(),
            Simp::False => "FALSE".into(),
            Simp::Same => e.to_string(),
            Simp::New(k) => k.to_string(),
        }
    }

    #[test]
    fn constant_comparisons_fold() {
        assert_eq!(simp("1 < 2"), "TRUE");
        assert_eq!(simp("2 < 1"), "FALSE");
        assert_eq!(simp("'a' < 'b'"), "TRUE");
        assert_eq!(simp("3 = 3"), "TRUE");
    }

    #[test]
    fn incomparable_constants_are_kept() {
        // Folding would mask the type error compilation reports.
        assert_eq!(simp("1 = 'a'"), "1 = 'a'");
    }

    #[test]
    fn attr_self_comparison_null_semantics() {
        // `x = x` is NOT a tautology: null rows evaluate it to false.
        assert_eq!(simp("x = x"), "x = x");
        assert_eq!(simp("x <= x"), "x <= x");
        // ...but the strict/exclusion forms are contradictions even for
        // null rows (every comparison on null is already false).
        assert_eq!(simp("x < x"), "FALSE");
        assert_eq!(simp("x > x"), "FALSE");
        assert_eq!(simp("x != x"), "FALSE");
    }

    #[test]
    fn negations_are_not_pushed_through_comparisons() {
        // `not (x < 5)` is not `x >= 5` (they differ on null rows); only
        // double negation and folded constants may be rewritten.
        assert_eq!(simp("not (x < 5)"), "not (x < 5)");
        assert_eq!(simp("not (not (x < 5))"), "x < 5");
        assert_eq!(simp("not (1 < 2)"), "FALSE");
    }

    #[test]
    fn and_or_simplification() {
        assert_eq!(simp("x = 1 and 1 = 1"), "x = 1");
        assert_eq!(simp("x = 1 and 1 = 2"), "FALSE");
        assert_eq!(simp("x = 1 or 1 = 2"), "x = 1");
        assert_eq!(simp("x = 1 or 1 = 1"), "TRUE");
        // Nested same-op nodes are flattened.
        assert_eq!(
            simp("x = 1 and (y = 2 and z = 3)"),
            "x = 1 and y = 2 and z = 3"
        );
    }

    #[test]
    fn interval_contradictions_collapse() {
        assert_eq!(simp("x > 5 and x < 3"), "FALSE");
        assert_eq!(simp("x >= 5 and x < 5"), "FALSE");
        // A satisfiable interval survives.
        assert_eq!(simp("x > 3 and x < 5"), "x > 3 and x < 5");
    }

    #[test]
    fn param_subtrees_block_constant_collapse() {
        // The false conjunct folds, but the parameter must still reach
        // bind-time resolution: the conjunction cannot become FALSE.
        assert_eq!(simp("x = %p% and 1 = 2"), "x = %p% and 0 = 1");
        assert_eq!(simp("x = %p% or 1 = 1"), "x = %p% or 0 = 0");
        // A parameter comparison alone is untouched.
        assert_eq!(simp("x = %p%"), "x = %p%");
    }

    fn rewrite_to_string(script: &str) -> (String, Vec<&'static str>) {
        let s = graql_parser::parse(script).unwrap();
        let sel = s.statements[0].as_select().unwrap();
        match rewrite_select(sel) {
            Some(rw) => (rw.sel.to_string(), rw.passes),
            None => (sel.to_string(), Vec::new()),
        }
    }

    #[test]
    fn dead_or_branch_is_pruned() {
        let (out, passes) =
            rewrite_to_string("select * from graph VA() --ab--> VB() or VA(1 > 2) --ab--> VB()");
        assert!(passes.contains(&"prune-dead-branches"), "{passes:?}");
        assert!(!out.contains("or"), "dead branch survived: {out}");
    }

    #[test]
    fn all_dead_branches_keep_one() {
        let (out, _) = rewrite_to_string(
            "select * from graph VA(1 > 2) --ab--> VB() or VA(2 > 3) --ab--> VB()",
        );
        // One branch remains so the statement still compiles (and still
        // reports its errors); its false condition is the canonical form.
        assert!(out.contains("VA(0 = 1)"), "{out}");
        assert!(!out.contains("or"), "{out}");
    }

    #[test]
    fn param_branches_are_never_dropped() {
        let (out, _) = rewrite_to_string(
            "select * from graph VA() --ab--> VB() \
             or VA(x = %p% and 1 = 2) --ab--> VB()",
        );
        assert!(out.contains("or"), "param branch must survive: {out}");
        assert!(out.contains("%p%"), "{out}");
    }

    #[test]
    fn unused_set_label_is_dropped_foreach_kept() {
        let (out, passes) =
            rewrite_to_string("select y.id from graph def x: VA() --ab--> def y: VB()");
        assert!(passes.contains(&"drop-unused-labels"), "{passes:?}");
        assert!(!out.contains("def x:"), "{out}");
        assert!(out.contains("def y:"), "{out}");

        let (out, _) =
            rewrite_to_string("select y.id from graph foreach x: VA() --ab--> def y: VB()");
        assert!(
            out.contains("foreach x:"),
            "foreach changes multiplicity: {out}"
        );
    }

    #[test]
    fn star_projection_blocks_label_elimination() {
        let (out, _) = rewrite_to_string("select * from graph def x: VA() --ab--> VB()");
        assert!(out.contains("def x:"), "{out}");
    }

    #[test]
    fn clean_statement_is_untouched() {
        let s = graql_parser::parse("select id from table T where x > 3 and y < 5").unwrap();
        assert!(rewrite_select(s.statements[0].as_select().unwrap()).is_none());
    }
}
