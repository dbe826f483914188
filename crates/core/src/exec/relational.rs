//! `select … from table` execution — the Table-1 relational operations
//! (selection, projection, order by, group by, distinct, the aggregates,
//! top n, aliasing).

use graql_parser::ast::{self, AggCall, SelectExpr, SelectTargets};
use graql_table::ops::{self, AggFn, AggSpec, OpCtx, SortKey};
use graql_table::{Table, TableSchema};
use graql_types::obs::{obs_record_rows, obs_start, Stage};
use graql_types::{GraqlError, Result};

use crate::cond::compile_single_table;
use crate::exec::ExecCtx;

/// Executes a table-sourced select statement.
pub fn execute_table_select(ctx: &ExecCtx<'_>, sel: &ast::SelectStmt) -> Result<Table> {
    let ast::SelectSource::Table(table_name) = &sel.source else {
        return Err(GraqlError::exec("internal: not a table select"));
    };
    let base = ctx.any_table(table_name)?;
    let cx = ctx.ops();

    // 1. Selection.
    let filtered: Table = match &sel.where_clause {
        Some(w) => {
            let pred = compile_single_table(w, base.schema(), &[table_name.as_str()], ctx.params)?;
            ops::filter(base, &pred, &cx)?
        }
        None => base.clone(),
    };

    let col_index = |c: &ast::ColRef, schema: &TableSchema| -> Result<usize> {
        if let Some(q) = &c.qualifier {
            if q != table_name {
                return Err(GraqlError::name(format!(
                    "unknown qualifier {q:?}; the table is {table_name:?}"
                )));
            }
        }
        schema.require(&c.name)
    };

    // 2. Projection / aggregation.
    let mut out = match &sel.targets {
        SelectTargets::Star => {
            if !sel.group_by.is_empty() {
                return Err(GraqlError::type_error("'select *' cannot be grouped"));
            }
            filtered
        }
        SelectTargets::Items(items) => {
            let has_aggs = sel.has_aggregates();
            if has_aggs || !sel.group_by.is_empty() {
                aggregate_projection(&cx, &filtered, sel, items, &col_index)?
            } else {
                let span = obs_start(ctx.obs);
                let projected = plain_projection(&filtered, items, &col_index)?;
                obs_record_rows(
                    ctx.obs,
                    Stage::Project,
                    span,
                    filtered.n_rows() as u64,
                    projected.n_rows() as u64,
                );
                projected
            }
        }
    };

    // 3. Distinct.
    if sel.distinct {
        out = ops::distinct(&out, &cx)?;
    }

    // 4. Order by (over the *output* schema, so aliases work — Fig. 6's
    //    `order by groupCount desc`).
    if !sel.order_by.is_empty() {
        let keys = sel
            .order_by
            .iter()
            .map(|k| {
                let col = out.schema().require(&k.col.name).map_err(|_| {
                    GraqlError::name(format!(
                        "'order by' column {:?} is not in the select output",
                        k.col.name
                    ))
                })?;
                Ok(SortKey { col, desc: k.desc })
            })
            .collect::<Result<Vec<_>>>()?;
        out = ops::sort(&out, &keys, &cx)?;
    }

    // 5. Top n.
    if let Some(n) = sel.top {
        out = ops::top_n(&out, n as usize, &cx);
    }
    ctx.guard.add_rows(out.n_rows() as u64)?;
    Ok(out)
}

fn plain_projection(
    t: &Table,
    items: &[ast::SelectItem],
    col_index: &dyn Fn(&ast::ColRef, &TableSchema) -> Result<usize>,
) -> Result<Table> {
    let mut cols = Vec::new();
    let mut names: Vec<Option<String>> = Vec::new();
    for item in items {
        let SelectExpr::Col(c) = &item.expr else {
            unreachable!("aggregate path handled separately")
        };
        cols.push(col_index(c, t.schema())?);
        names.push(item.alias.clone());
    }
    let mut out = ops::project(t, &cols);
    // Apply aliases.
    let final_names: Vec<String> = out
        .schema()
        .columns()
        .iter()
        .zip(&names)
        .map(|(def, alias)| alias.clone().unwrap_or_else(|| def.name.clone()))
        .collect();
    let refs: Vec<&str> = final_names.iter().map(String::as_str).collect();
    out = ops::rename(&out, &refs)?;
    Ok(out)
}

fn aggregate_projection(
    cx: &OpCtx,
    t: &Table,
    sel: &ast::SelectStmt,
    items: &[ast::SelectItem],
    col_index: &dyn Fn(&ast::ColRef, &TableSchema) -> Result<usize>,
) -> Result<Table> {
    let group_cols: Vec<usize> = sel
        .group_by
        .iter()
        .map(|c| col_index(c, t.schema()))
        .collect::<Result<_>>()?;

    // Build the aggregate kernel call and remember how to assemble the
    // select-list order afterwards.
    enum Slot {
        Group(usize), // index into group_cols
        Agg(usize),   // index into aggs
    }
    let mut aggs: Vec<AggSpec> = Vec::new();
    let mut slots: Vec<(Slot, Option<String>)> = Vec::new();
    for (i, item) in items.iter().enumerate() {
        match &item.expr {
            SelectExpr::Col(c) => {
                let ci = col_index(c, t.schema())?;
                let gi = group_cols.iter().position(|&g| g == ci).ok_or_else(|| {
                    GraqlError::type_error(format!(
                        "column {:?} must appear in 'group by' or inside an aggregate",
                        c.name
                    ))
                })?;
                slots.push((Slot::Group(gi), item.alias.clone()));
            }
            SelectExpr::Agg(a) => {
                let func = match a {
                    AggCall::CountStar => AggFn::CountStar,
                    AggCall::Count(c) => AggFn::Count(col_index(c, t.schema())?),
                    AggCall::Sum(c) => AggFn::Sum(col_index(c, t.schema())?),
                    AggCall::Avg(c) => AggFn::Avg(col_index(c, t.schema())?),
                    AggCall::Min(c) => AggFn::Min(col_index(c, t.schema())?),
                    AggCall::Max(c) => AggFn::Max(col_index(c, t.schema())?),
                };
                let out_name = item.alias.clone().unwrap_or_else(|| format!("agg_{i}"));
                slots.push((Slot::Agg(aggs.len()), item.alias.clone()));
                aggs.push(AggSpec::new(func, out_name));
            }
        }
    }
    let grouped = ops::group_aggregate(t, &group_cols, &aggs, cx)?;
    // group_aggregate lays out group columns first, then aggregates; remap
    // to the select-list order with aliases.
    let n_groups = group_cols.len();
    let order: Vec<usize> = slots
        .iter()
        .map(|(s, _)| match s {
            Slot::Group(gi) => *gi,
            Slot::Agg(ai) => n_groups + ai,
        })
        .collect();
    let mut out = ops::project(&grouped, &order);
    let names: Vec<String> = slots
        .iter()
        .zip(out.schema().columns())
        .map(|((_, alias), def)| alias.clone().unwrap_or_else(|| def.name.clone()))
        .collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    out = ops::rename(&out, &refs)?;
    Ok(out)
}
