//! `select … from table` execution — the Table-1 relational operations
//! (selection, projection, order by, group by, distinct, the aggregates,
//! top n, aliasing) over a plan the resolver
//! ([`crate::analyze::resolve`]) made: every column is an id and every
//! output name is fixed, so nothing here checks a name or a type.

use graql_table::ops::{self, AggFn};
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

    // 1. Selection, gathering only the columns the shape reads.
    let (cols, shape) = narrow(&plan.shape, base.n_cols());
    let filtered: Table = match &plan.filter {
        Some(w) => {
            let pred = compile_single_table(w, base.schema(), &[plan.table.as_str()], ctx.params)?;
            ops::filter(base, &pred, &cols, &cx)?
        }
        None => ops::project(base, &cols)?,
    };

    // 2. Projection / aggregation, under the output names.
    let mut out = match &shape {
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

    // 4–5. Order by (over the *output* columns, so aliases work — Fig. 6's
    //    `order by groupCount desc`) and top n: with both, only the rows
    //    kept are sorted.
    out = match (plan.order_by.is_empty(), plan.top) {
        (false, Some(n)) => ops::sort_top(&out, &plan.order_by, n, &cx)?,
        (false, None) => ops::sort(&out, &plan.order_by, &cx)?,
        (true, Some(n)) => ops::top_n(&out, n, &cx),
        (true, None) => out,
    };
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

/// The source columns `shape` reads, ascending, and `shape` restated over
/// a table of just those columns. The list is never empty, so the narrow
/// table keeps the row count that `count(*)` reads.
fn narrow(shape: &TableShape, n_cols: usize) -> (Vec<usize>, TableShape) {
    let mut shape = shape.clone();
    let mut reads: Vec<&mut usize> = match &mut shape {
        TableShape::Star => return ((0..n_cols).collect(), TableShape::Star),
        TableShape::Columns(cols) => cols.iter_mut().collect(),
        TableShape::Grouped { groups, aggs, .. } => groups
            .iter_mut()
            .chain(aggs.iter_mut().filter_map(|a| input(&mut a.func)))
            .collect(),
    };
    let mut cols: Vec<usize> = reads.iter().map(|c| **c).collect();
    cols.sort_unstable();
    cols.dedup();
    if cols.is_empty() {
        cols.push(0);
    }
    for c in &mut reads {
        **c = cols.binary_search(&**c).expect("a read column is gathered");
    }
    (cols, shape)
}

/// The column an aggregate reads, if any.
fn input(f: &mut AggFn) -> Option<&mut usize> {
    match f {
        AggFn::CountStar => None,
        AggFn::Count(c) | AggFn::Sum(c) | AggFn::Avg(c) | AggFn::Min(c) | AggFn::Max(c) => Some(c),
    }
}
