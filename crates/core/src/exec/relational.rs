//! `select … from table` execution — the Table-1 relational operations
//! (selection, projection, order by, group by, distinct, the aggregates,
//! top n, aliasing) over a plan the resolver
//! ([`crate::analyze::resolve`]) made: every column is an id and every
//! output name is fixed, so nothing here checks a name or a type.

use graql_table::ops;
use graql_table::{ColumnDef, Table, TableSchema};
use graql_types::obs::{obs_record_rows, obs_start, Stage};
use graql_types::Result;

use crate::analyze::resolve::{TableSelect, TableShape};
use crate::cond::compile_single_table;
use crate::exec::ExecCtx;

/// Executes a resolved table select.
pub fn execute_table_select(ctx: &ExecCtx<'_>, plan: &TableSelect) -> Result<Table> {
    let base = ctx.any_table(&plan.table)?;
    let cx = ctx.ops();

    // 1. Selection.
    let filtered: Table = match &plan.filter {
        Some(w) => {
            let pred = compile_single_table(w, base.schema(), &[plan.table.as_str()], ctx.params)?;
            ops::filter(base, &pred, &cx)?
        }
        None => base.clone(),
    };

    // 2. Projection / aggregation, under the output names.
    let mut out = match &plan.shape {
        TableShape::Star => filtered,
        TableShape::Columns(cols) => {
            let span = obs_start(ctx.obs);
            let projected = output(&filtered, cols, &plan.schema)?;
            obs_record_rows(
                ctx.obs,
                Stage::Project,
                span,
                filtered.n_rows() as u64,
                projected.n_rows() as u64,
            );
            projected
        }
        TableShape::Grouped {
            groups,
            aggs,
            order,
        } => output(
            &ops::group_aggregate(&filtered, groups, aggs, &cx)?,
            order,
            &plan.schema,
        )?,
    };

    // 3. Distinct.
    if plan.distinct {
        out = ops::distinct(&out, &cx)?;
    }

    // 4. Order by (over the *output* columns, so aliases work — Fig. 6's
    //    `order by groupCount desc`).
    if !plan.order_by.is_empty() {
        out = ops::sort(&out, &plan.order_by, &cx)?;
    }

    // 5. Top n.
    if let Some(n) = plan.top {
        out = ops::top_n(&out, n, &cx);
    }
    ctx.guard.add_rows(out.n_rows() as u64)?;
    Ok(out)
}

/// Columns `cols` of `t`, shared and in order, named after `schema` (the
/// types stay the kernels').
fn output(t: &Table, cols: &[usize], schema: &TableSchema) -> Result<Table> {
    let defs = cols
        .iter()
        .zip(schema.columns())
        .map(|(&c, def)| ColumnDef::new(def.name.clone(), t.schema().column(c).dtype))
        .collect();
    let columns = cols.iter().map(|&c| t.shared_column(c).clone()).collect();
    Ok(Table::from_columns(TableSchema::new(defs)?, columns))
}
