//! Pipelined execution of dependent statements (paper §III-B1):
//! "Pipelined execution of dependent query statements can also be
//! considered to reduce the amount of space needed to materialize
//! intermediate results."
//!
//! The canonical beneficiary is the Berlin Q2 shape (Fig. 6):
//!
//! ```text
//! select y.id from graph …              into table T1      -- N rows
//! select top 10 id, count(*) … from table T1 group by id   -- k rows
//! ```
//!
//! Executed naively, `T1` materializes one row per binding. The fused
//! plan streams each binding straight into the group-by accumulator, so
//! peak intermediate state is one accumulator per *group*, not one row
//! per *match*.

use graql_parser::ast::{self, SelectSource, Stmt};
use graql_table::ops::AggFn;
use graql_table::Table;
use graql_types::{GraqlError, Result, Value};
use rustc_hash::FxHashMap;

use crate::analyze::resolve::{GraphSelect, TableSelect, TableShape};
use crate::exec::ExecCtx;

/// Checks whether `producer` (a graph select into a table) and `consumer`
/// (a grouped aggregation over that table, with no `where`, `distinct` or
/// `into`) can be fused.
pub fn can_fuse(producer: &Stmt, consumer: &Stmt) -> bool {
    let (Stmt::Select(p), Stmt::Select(c)) = (producer, consumer) else {
        return false;
    };
    let Some(ast::IntoClause::Table(t_out)) = &p.into else {
        return false;
    };
    if !matches!(p.source, SelectSource::Graph(_)) {
        return false;
    }
    let SelectSource::Table(t_in) = &c.source else {
        return false;
    };
    if t_in != t_out || c.where_clause.is_some() || c.distinct || c.into.is_some() {
        return false;
    }
    // The consumer must be a grouped aggregation (otherwise there is
    // nothing to shrink).
    c.has_aggregates() && !c.group_by.is_empty()
}

/// Executes the fused pair, returning the consumer's result table without
/// materializing the producer's output. The consumer was resolved against
/// the producer's output schema, so its column ids index the streamed
/// rows, and its output schema is the one the unfused statement produces.
pub fn execute_fused(
    ctx: &ExecCtx<'_>,
    producer: GraphSelect,
    consumer: &TableSelect,
) -> Result<Table> {
    let TableShape::Grouped {
        groups: group_cols,
        aggs,
        order: layout,
    } = &consumer.shape
    else {
        return Err(GraqlError::exec("internal: fused consumer must group"));
    };

    // Streaming accumulator per group.
    #[derive(Clone)]
    struct Acc {
        count: i64,
        non_null: Vec<i64>,
        sum: Vec<f64>,
        /// Integer sums accumulate separately in i64 for precision.
        isum: Vec<i64>,
        /// Whether any float flowed into this aggregate (integer-only sums
        /// finalize as integers, matching the table kernel).
        saw_float: Vec<bool>,
        min: Vec<Value>,
        max: Vec<Value>,
    }
    let fresh = Acc {
        count: 0,
        non_null: vec![0; aggs.len()],
        sum: vec![0.0; aggs.len()],
        isum: vec![0; aggs.len()],
        saw_float: vec![false; aggs.len()],
        min: vec![Value::Null; aggs.len()],
        max: vec![Value::Null; aggs.len()],
    };
    let mut groups: FxHashMap<Vec<Value>, Acc> = FxHashMap::default();
    let mut seen: Vec<Vec<Value>> = Vec::new(); // first-seen group order

    // Stream the producer's bindings through a row callback.
    crate::exec::results::stream_graph_select(ctx, producer, |row: &[Value]| {
        let key: Vec<Value> = group_cols.iter().map(|&c| row[c].clone()).collect();
        let acc = groups.entry(key.clone()).or_insert_with(|| {
            seen.push(key);
            fresh.clone()
        });
        acc.count += 1;
        for (ai, agg) in aggs.iter().enumerate() {
            let col = match agg.func {
                AggFn::CountStar => None,
                AggFn::Count(c) | AggFn::Sum(c) | AggFn::Avg(c) | AggFn::Min(c) | AggFn::Max(c) => {
                    Some(c)
                }
            };
            if let Some(c) = col {
                let v = &row[c];
                if !v.is_null() {
                    acc.non_null[ai] += 1;
                    if let Some(x) = v.as_f64() {
                        acc.sum[ai] += x;
                    }
                    if let Some(x) = v.as_int() {
                        acc.isum[ai] = acc.isum[ai].wrapping_add(x);
                    }
                    if matches!(v, Value::Float(_)) {
                        acc.saw_float[ai] = true;
                    }
                    if acc.min[ai].is_null() || v < &acc.min[ai] {
                        acc.min[ai] = v.clone();
                    }
                    if acc.max[ai].is_null() || v > &acc.max[ai] {
                        acc.max[ai] = v.clone();
                    }
                }
            }
        }
        Ok(())
    })?;

    // The kernel's layout is the group columns, then the aggregates;
    // `layout` picks the select list from it.
    let mut out = Table::empty(consumer.schema.clone());
    let mut rows = out.appender();
    for key in &seen {
        let acc = &groups[key];
        let row: Vec<Value> = layout
            .iter()
            .map(|&slot| {
                let Some(ai) = slot.checked_sub(group_cols.len()) else {
                    return key[slot].clone();
                };
                match aggs[ai].func {
                    AggFn::CountStar => Value::Int(acc.count),
                    AggFn::Count(_) => Value::Int(acc.non_null[ai]),
                    AggFn::Sum(_) if acc.non_null[ai] == 0 => Value::Null,
                    AggFn::Sum(_) if acc.saw_float[ai] => Value::Float(acc.sum[ai]),
                    AggFn::Sum(_) => Value::Int(acc.isum[ai]),
                    AggFn::Avg(_) if acc.non_null[ai] == 0 => Value::Null,
                    AggFn::Avg(_) => Value::Float(acc.sum[ai] / acc.non_null[ai] as f64),
                    AggFn::Min(_) => acc.min[ai].clone(),
                    AggFn::Max(_) => acc.max[ai].clone(),
                }
            })
            .collect();
        rows.push_row(&row)?;
    }
    drop(rows);

    // Consumer's order by / top n (kept at the end of execute_fused),
    // governed and profiled like the unfused statement's.
    let cx = ctx.ops();
    if !consumer.order_by.is_empty() {
        out = graql_table::ops::sort(&out, &consumer.order_by, &cx)?;
    }
    if let Some(n) = consumer.top {
        out = graql_table::ops::top_n(&out, n, &cx);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(producer: &str, consumer: &str) -> (Stmt, Stmt) {
        (
            graql_parser::parse_statement(producer).unwrap(),
            graql_parser::parse_statement(consumer).unwrap(),
        )
    }

    const PROD: &str = "select y.id from graph V(a = 1) --e--> def y: W() into table T1";
    const CONS: &str = "select top 10 id, count(*) as n from table T1 group by id order by n desc";

    #[test]
    fn fusable_pair_accepted() {
        let (p, c) = pair(PROD, CONS);
        assert!(can_fuse(&p, &c));
    }

    #[test]
    fn gates_reject_everything_else() {
        // Wrong intermediate name.
        let (p, c) = pair(
            PROD,
            "select id, count(*) as n from table OTHER group by id",
        );
        assert!(!can_fuse(&p, &c));
        // Consumer filters (would need predicate pushdown; not fused).
        let (p, c) = pair(
            PROD,
            "select id, count(*) as n from table T1 where id = 'x' group by id",
        );
        assert!(!can_fuse(&p, &c));
        // Consumer without aggregation: nothing to shrink.
        let (p, c) = pair(PROD, "select id from table T1");
        assert!(!can_fuse(&p, &c));
        // Consumer is distinct / captured: stays materialized.
        let (p, c) = pair(
            PROD,
            "select distinct id, count(*) as n from table T1 group by id",
        );
        assert!(!can_fuse(&p, &c));
        let (p, c) = pair(
            PROD,
            "select id, count(*) as n from table T1 group by id into table X",
        );
        assert!(!can_fuse(&p, &c));
        // Producer is a table select or a star/subgraph capture.
        let (p, c) = pair("select a from table Z into table T1", CONS);
        assert!(!can_fuse(&p, &c));
        let (p, c) = pair("select * from graph V() --e--> W() into subgraph T1", CONS);
        assert!(!can_fuse(&p, &c));
        // Producer without a named output.
        let (p, c) = pair("select y.id from graph V() --e--> def y: W()", CONS);
        assert!(!can_fuse(&p, &c));
        // Non-select statements.
        let ddl = graql_parser::parse_statement("create table T1(a integer)").unwrap();
        let (_, c) = pair(PROD, CONS);
        assert!(!can_fuse(&ddl, &c));
    }

    /// The fused tail runs the same governed kernels as the unfused
    /// statement, under the query's context: its sort and truncation are
    /// recorded stages and the sort is charged to the guard.
    #[test]
    fn fused_tail_runs_the_governed_kernels() {
        use graql_types::obs::Stage;
        use graql_types::{QueryBudget, QueryGuard, QueryProfile};

        let mut db = crate::Database::new();
        db.execute_script(
            "create table VT(a integer)\ncreate table WT(id integer, v integer)\n\
             create vertex V(a) from table VT\ncreate vertex W(id) from table WT\n\
             create edge e with vertices (V, W) where V.a = W.v",
        )
        .unwrap();
        db.ingest_str("VT", "1\n").unwrap();
        db.ingest_str("WT", "10,1\n11,1\n12,1\n").unwrap();
        db.graph().unwrap();
        let (Stmt::Select(p), Stmt::Select(c)) = pair(PROD, CONS) else {
            panic!("both statements are selects")
        };
        let (p, c) = crate::script::resolve_fused(db.catalog(), &p, &c).unwrap();

        let guard = QueryGuard::new(QueryBudget::UNLIMITED);
        let profile = QueryProfile::new();
        let mut ctx = db.exec_ctx(&guard).unwrap();
        ctx.obs = Some(&profile);
        let out = execute_fused(&ctx, p, &c).unwrap();
        assert_eq!(out.n_rows(), 3);
        assert_eq!(profile.stage_calls(Stage::Sort), 1);
        assert_eq!(profile.stage_calls(Stage::Top), 1);
        // The sort's index vector (4 bytes a row) plus its output.
        assert!(guard.bytes() >= 4 * 3 + out.approx_bytes());
    }
}
