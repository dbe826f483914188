//! Compilation of surface `where`/step conditions into physical
//! predicates, with parameter substitution and strong type checking.

use graql_parser::ast::{Expr, Lit, Operand};
use graql_table::{PhysExpr, TableSchema};
use graql_types::{codes, DataType, Diagnostic, GraqlError, Result, Span, Value};
use rustc_hash::FxHashMap;

use crate::analyze::{attr_err, Ctx, DResult};

/// Bound `%param%` values for one execution.
pub type Params = FxHashMap<String, Value>;

/// Resolves a literal to a runtime value (substituting parameters).
pub fn lit_value(lit: &Lit, params: &Params) -> Result<Value> {
    Ok(match lit {
        Lit::Int(i) => Value::Int(*i),
        Lit::Float(f) => Value::Float(*f),
        Lit::Str(s) => Value::str(s),
        Lit::Date(d) => Value::Date(*d),
        Lit::Param(name) => params
            .get(name)
            .cloned()
            .ok_or_else(|| GraqlError::exec(format!("unbound parameter %{name}%")))?,
    })
}

/// Static type of a literal, if known without execution (`%params%` are
/// typed only at bind time).
pub fn lit_type(lit: &Lit) -> Option<DataType> {
    match lit {
        Lit::Int(_) => Some(DataType::Integer),
        Lit::Float(_) => Some(DataType::Float),
        Lit::Str(_) => Some(DataType::Varchar(0)),
        Lit::Date(_) => Some(DataType::Date),
        Lit::Param(_) => None,
    }
}

/// Compiles a condition that may only reference one relation (a table, a
/// vertex step's source table, or an edge's associated table).
///
/// `qualifiers` are the names that may prefix an attribute (`entity.attr`);
/// unqualified attributes resolve against the same schema. Comparison type
/// compatibility is enforced here (paper §III-A: "is the query comparing
/// an attribute with a constant (or other attribute) of the wrong type?").
pub fn compile_single_table(
    expr: &Expr,
    schema: &TableSchema,
    qualifiers: &[&str],
    params: &Params,
) -> Result<PhysExpr> {
    match expr {
        Expr::And(parts) => Ok(PhysExpr::And(
            parts
                .iter()
                .map(|p| compile_single_table(p, schema, qualifiers, params))
                .collect::<Result<_>>()?,
        )),
        Expr::Or(parts) => Ok(PhysExpr::Or(
            parts
                .iter()
                .map(|p| compile_single_table(p, schema, qualifiers, params))
                .collect::<Result<_>>()?,
        )),
        Expr::Not(inner) => Ok(PhysExpr::Not(Box::new(compile_single_table(
            inner, schema, qualifiers, params,
        )?))),
        Expr::Cmp { op, lhs, rhs, .. } => {
            let l = compile_operand(lhs, schema, qualifiers, params)?;
            let r = compile_operand(rhs, schema, qualifiers, params)?;
            check_comparable(&l, &r, schema)?;
            Ok(PhysExpr::Cmp(*op, Box::new(l), Box::new(r)))
        }
    }
}

fn compile_operand(
    op: &Operand,
    schema: &TableSchema,
    qualifiers: &[&str],
    params: &Params,
) -> Result<PhysExpr> {
    match op {
        Operand::Attr { qualifier, name } => {
            if let Some(q) = qualifier {
                if !qualifiers.iter().any(|&allowed| allowed == q) {
                    return Err(GraqlError::name(format!(
                        "unknown qualifier {q:?} (expected one of: {})",
                        qualifiers.join(", ")
                    )));
                }
            }
            Ok(PhysExpr::Col(schema.require(name)?))
        }
        Operand::Lit(l) => Ok(PhysExpr::Const(lit_value(l, params)?)),
    }
}

/// Type-checks a compiled comparison.
fn check_comparable(l: &PhysExpr, r: &PhysExpr, schema: &TableSchema) -> Result<()> {
    let ty = |e: &PhysExpr| match e {
        PhysExpr::Col(c) => Some(schema.column(*c).dtype),
        PhysExpr::Const(v) => v.data_type(),
        _ => None,
    };
    if let (Some(a), Some(b)) = (ty(l), ty(r)) {
        if !a.comparable_with(b) {
            return Err(GraqlError::type_error(format!(
                "cannot compare {a} with {b}"
            )));
        }
    }
    Ok(())
}

/// The §III-A static comparison check, the one every condition position
/// shares (table `where`, vertex and edge `where`, step conditions).
/// `resolve` types an attribute operand `(qualifier, name)` of the
/// comparison at `span` (`Ok(None)`: known only at run time); literals
/// type themselves and `%params%` stay unknown. Each comparison is checked
/// on its own, so a collecting context reports every bad operand and every
/// incomparable pair, located at the comparison.
pub(crate) fn typecheck(
    expr: &Expr,
    ctx: &mut Ctx,
    resolve: &mut impl FnMut(&Option<String>, &str, Span) -> DResult<Option<DataType>>,
) -> DResult<()> {
    let mut out = Ok(());
    expr.for_each_cmp(&mut |_, lhs, rhs, span| {
        if out.is_ok() {
            out = typecheck_cmp(lhs, rhs, span, ctx, resolve);
        }
    });
    out
}

fn typecheck_cmp(
    lhs: &Operand,
    rhs: &Operand,
    span: Span,
    ctx: &mut Ctx,
    resolve: &mut impl FnMut(&Option<String>, &str, Span) -> DResult<Option<DataType>>,
) -> DResult<()> {
    let mut ty = |o: &Operand| -> DResult<Option<DataType>> {
        let t = match o {
            Operand::Lit(l) => Ok(lit_type(l)),
            Operand::Attr { qualifier, name } => resolve(qualifier, name, span),
        };
        t.or_else(|d| ctx.emit(d).map(|()| None))
    };
    let (a, b) = (ty(lhs)?, ty(rhs)?);
    if let (Some(a), Some(b)) = (a, b) {
        if !a.comparable_with(b) {
            ctx.emit(Diagnostic::error(
                codes::INCOMPARABLE,
                format!("cannot compare {a} with {b}"),
                span,
            ))?;
        }
    }
    Ok(())
}

/// The [`typecheck`] resolver of a condition over one relation:
/// `qualifiers` may prefix an attribute, and every attribute resolves
/// against `schema`.
pub(crate) fn single_table<'a>(
    schema: &'a TableSchema,
    qualifiers: &'a [&'a str],
) -> impl FnMut(&Option<String>, &str, Span) -> DResult<Option<DataType>> + 'a {
    move |q, name, span| {
        if let Some(q) = q {
            if !qualifiers.contains(&q.as_str()) {
                return Err(Diagnostic::error(
                    codes::BAD_QUALIFIER,
                    format!("unknown qualifier '{q}'"),
                    span,
                ));
            }
        }
        let ci = schema.require(name).map_err(|e| attr_err(&e, span))?;
        Ok(Some(schema.column(ci).dtype))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graql_parser::parse_expr;
    use graql_types::CmpOp;

    fn schema() -> TableSchema {
        TableSchema::of(&[
            ("id", DataType::Varchar(10)),
            ("price", DataType::Float),
            ("validFrom", DataType::Date),
        ])
    }

    #[test]
    fn compiles_with_qualifiers_and_params() {
        let e = parse_expr("Offers.price > 10 and id = %P%").unwrap();
        let mut params = Params::default();
        params.insert("P".into(), Value::str("o1"));
        let phys = compile_single_table(&e, &schema(), &["Offers"], &params).unwrap();
        let PhysExpr::And(parts) = phys else { panic!() };
        assert_eq!(parts.len(), 2);
        assert_eq!(
            parts[0],
            PhysExpr::cmp_col_const(1, CmpOp::Gt, Value::Float(10.0))
        );
        assert_eq!(
            parts[1],
            PhysExpr::cmp_col_const(0, CmpOp::Eq, Value::str("o1"))
        );
    }

    #[test]
    fn unknown_qualifier_and_column_rejected() {
        let e = parse_expr("Other.price > 10").unwrap();
        assert!(matches!(
            compile_single_table(&e, &schema(), &["Offers"], &Params::default()),
            Err(GraqlError::Name(_))
        ));
        let e = parse_expr("nope = 1").unwrap();
        assert!(compile_single_table(&e, &schema(), &[], &Params::default()).is_err());
    }

    #[test]
    fn type_errors_caught() {
        // date vs float: the paper's own §III-A example.
        let e = parse_expr("validFrom > 1.5").unwrap();
        let err = compile_single_table(&e, &schema(), &[], &Params::default()).unwrap_err();
        assert!(matches!(err, GraqlError::Type(_)), "{err}");
        // attribute vs attribute of the wrong type
        let e = parse_expr("price = validFrom").unwrap();
        assert!(compile_single_table(&e, &schema(), &[], &Params::default()).is_err());
        // and the static (no-params) check
        let s = schema();
        let check = |src: &str| {
            let e = parse_expr(src).unwrap();
            typecheck(
                &e,
                &mut Ctx::fail_fast(),
                &mut single_table(&s, &["Offers"]),
            )
        };
        assert!(check("validFrom = %D%").is_ok(), "param type unknown → ok");
        let d = check("validFrom = 'x'").unwrap_err();
        assert_eq!(d.code, codes::INCOMPARABLE);
        assert_eq!(d.message, "cannot compare date with varchar(0)");
        assert_eq!(
            check("Other.price > 1").unwrap_err().code,
            codes::BAD_QUALIFIER
        );
        assert_eq!(
            check("Offers.nope > 1").unwrap_err().code,
            codes::UNKNOWN_ATTR
        );
    }

    #[test]
    fn unbound_param_is_an_exec_error() {
        let e = parse_expr("id = %Missing%").unwrap();
        let err = compile_single_table(&e, &schema(), &[], &Params::default()).unwrap_err();
        assert!(matches!(err, GraqlError::Exec(_)));
    }

    #[test]
    fn date_literals_compare_with_date_columns() {
        let e = parse_expr("validFrom <= date '2008-06-01'").unwrap();
        assert!(compile_single_table(&e, &schema(), &[], &Params::default()).is_ok());
    }
}
