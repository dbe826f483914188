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

use graql_parser::ast::{self, AggCall, SelectExpr, SelectSource, SelectTargets, Stmt};
use graql_table::ops::SortKey;
use graql_table::{ColumnDef, Table, TableSchema};
use graql_types::{DataType, GraqlError, Result, Value};
use rustc_hash::FxHashMap;

use crate::exec::ExecCtx;

/// Checks whether `producer` (a graph select into a table) and `consumer`
/// (a relational select over that table) can be fused: the consumer may
/// only group over the producer's projected columns and aggregate with
/// `count(*)` / `count` / `sum` / `avg` / `min` / `max`.
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
    // Every producer item must be a qualified attribute reference
    // (`step.attr`): those project exactly one column each, keeping the
    // consumer's positional column mapping sound. (A bare multi-key step
    // expands to several columns.)
    match &p.targets {
        SelectTargets::Items(items) => {
            if !items.iter().all(|i| {
                matches!(
                    &i.expr,
                    SelectExpr::Col(c) if c.qualifier.is_some()
                )
            }) {
                return false;
            }
        }
        SelectTargets::Star => return false,
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
/// materializing the producer's output.
pub fn execute_fused(
    ctx: &ExecCtx<'_>,
    producer: &ast::SelectStmt,
    consumer: &ast::SelectStmt,
) -> Result<Table> {
    let SelectSource::Graph(_) = &producer.source else {
        return Err(GraqlError::exec(
            "internal: fused producer must be a graph select",
        ));
    };
    let SelectTargets::Items(p_items) = &producer.targets else {
        return Err(GraqlError::exec(
            "internal: fused producer needs explicit items",
        ));
    };

    // Producer column names (as the consumer sees them).
    let col_names: Vec<String> = p_items
        .iter()
        .map(|i| {
            i.alias.clone().unwrap_or_else(|| match &i.expr {
                SelectExpr::Col(c) => c.name.clone(),
                SelectExpr::Agg(a) => format!("{a}"),
            })
        })
        .collect();
    let col_of = |name: &str| -> Result<usize> {
        col_names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| GraqlError::name(format!("unknown column {name:?} in fused pipeline")))
    };

    // Consumer plan: group columns + aggregate slots in select order.
    enum Slot {
        Group(usize), // index into group key
        Agg(usize),   // index into aggs
    }
    enum StreamAgg {
        CountStar,
        Count(usize),
        Sum(usize),
        Avg(usize),
        Min(usize),
        Max(usize),
    }
    let SelectTargets::Items(c_items) = &consumer.targets else {
        return Err(GraqlError::exec(
            "internal: fused consumer needs explicit items",
        ));
    };
    let group_cols: Vec<usize> = consumer
        .group_by
        .iter()
        .map(|g| col_of(&g.name))
        .collect::<Result<_>>()?;
    let mut aggs: Vec<StreamAgg> = Vec::new();
    let mut slots: Vec<(Slot, String)> = Vec::new();
    for (i, item) in c_items.iter().enumerate() {
        match &item.expr {
            SelectExpr::Col(c) => {
                let ci = col_of(&c.name)?;
                let gi = group_cols.iter().position(|&g| g == ci).ok_or_else(|| {
                    GraqlError::type_error(format!(
                        "column {:?} must appear in 'group by' or inside an aggregate",
                        c.name
                    ))
                })?;
                slots.push((
                    Slot::Group(gi),
                    item.alias.clone().unwrap_or_else(|| c.name.clone()),
                ));
            }
            SelectExpr::Agg(a) => {
                let agg = match a {
                    AggCall::CountStar => StreamAgg::CountStar,
                    AggCall::Count(c) => StreamAgg::Count(col_of(&c.name)?),
                    AggCall::Sum(c) => StreamAgg::Sum(col_of(&c.name)?),
                    AggCall::Avg(c) => StreamAgg::Avg(col_of(&c.name)?),
                    AggCall::Min(c) => StreamAgg::Min(col_of(&c.name)?),
                    AggCall::Max(c) => StreamAgg::Max(col_of(&c.name)?),
                };
                slots.push((
                    Slot::Agg(aggs.len()),
                    item.alias.clone().unwrap_or_else(|| format!("agg_{i}")),
                ));
                aggs.push(agg);
            }
        }
    }

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
    let mut order: Vec<Vec<Value>> = Vec::new(); // first-seen group order

    // Stream the producer's bindings through a row callback.
    crate::exec::results::stream_graph_select(ctx, producer, |row: &[Value]| {
        let key: Vec<Value> = group_cols.iter().map(|&c| row[c].clone()).collect();
        let acc = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            fresh.clone()
        });
        acc.count += 1;
        for (ai, agg) in aggs.iter().enumerate() {
            let col = match agg {
                StreamAgg::CountStar => None,
                StreamAgg::Count(c)
                | StreamAgg::Sum(c)
                | StreamAgg::Avg(c)
                | StreamAgg::Min(c)
                | StreamAgg::Max(c) => Some(*c),
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

    // Output schema: infer aggregate types from the streamed values (all
    // counts are integers; sums/avgs are floats — matching the kernel's
    // float widening under streaming).
    let mut defs: Vec<ColumnDef> = Vec::new();
    for (slot, name) in &slots {
        let dtype = match slot {
            Slot::Group(_) => DataType::Varchar(0), // refined below
            Slot::Agg(ai) => match aggs[*ai] {
                StreamAgg::CountStar | StreamAgg::Count(_) => DataType::Integer,
                StreamAgg::Sum(_) | StreamAgg::Avg(_) => DataType::Float,
                StreamAgg::Min(_) | StreamAgg::Max(_) => DataType::Varchar(0),
            },
        };
        defs.push(ColumnDef::new(name.clone(), dtype));
    }
    // Refine group/min/max column types from the first group's values.
    if let Some(first_key) = order.first() {
        let acc = &groups[first_key];
        for ((slot, _), def) in slots.iter().zip(&mut defs) {
            let sample = match slot {
                Slot::Group(gi) => Some(first_key[*gi].clone()),
                Slot::Agg(ai) => match aggs[*ai] {
                    StreamAgg::Min(_) => Some(acc.min[*ai].clone()),
                    StreamAgg::Max(_) => Some(acc.max[*ai].clone()),
                    // Integer-only sums are integers (producer column types
                    // are fixed, so the first group is representative).
                    StreamAgg::Sum(_) if !acc.saw_float[*ai] => Some(Value::Int(0)),
                    _ => None,
                },
            };
            if let Some(s) = sample {
                if let Some(dt) = s.data_type() {
                    def.dtype = dt;
                }
            }
        }
    }
    let schema = TableSchema::new(defs)?;
    let mut out = Table::empty(schema);
    let mut rows = out.appender();
    for key in &order {
        let acc = &groups[key];
        let row: Vec<Value> = slots
            .iter()
            .map(|(slot, _)| match slot {
                Slot::Group(gi) => key[*gi].clone(),
                Slot::Agg(ai) => match aggs[*ai] {
                    StreamAgg::CountStar => Value::Int(acc.count),
                    StreamAgg::Count(_) => Value::Int(acc.non_null[*ai]),
                    StreamAgg::Sum(_) => {
                        if acc.non_null[*ai] == 0 {
                            Value::Null
                        } else if acc.saw_float[*ai] {
                            Value::Float(acc.sum[*ai])
                        } else {
                            Value::Int(acc.isum[*ai])
                        }
                    }
                    StreamAgg::Avg(_) => {
                        if acc.non_null[*ai] == 0 {
                            Value::Null
                        } else {
                            Value::Float(acc.sum[*ai] / acc.non_null[*ai] as f64)
                        }
                    }
                    StreamAgg::Min(_) => acc.min[*ai].clone(),
                    StreamAgg::Max(_) => acc.max[*ai].clone(),
                },
            })
            .collect();
        rows.push_row(&row)?;
    }
    drop(rows);

    // Consumer's order by / top n (kept at the end of execute_fused),
    // governed and profiled like the unfused statement's.
    let cx = ctx.ops();
    if !consumer.order_by.is_empty() {
        let keys = consumer
            .order_by
            .iter()
            .map(|k| {
                let col = out.schema().require(&k.col.name)?;
                Ok(SortKey { col, desc: k.desc })
            })
            .collect::<Result<Vec<_>>>()?;
        out = graql_table::ops::sort(&out, &keys, &cx)?;
    }
    if let Some(n) = consumer.top {
        out = graql_table::ops::top_n(&out, n as usize, &cx);
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

        let guard = QueryGuard::new(QueryBudget::UNLIMITED);
        let profile = QueryProfile::new();
        let mut ctx = db.exec_ctx(&guard).unwrap();
        ctx.obs = Some(&profile);
        let out = execute_fused(&ctx, &p, &c).unwrap();
        assert_eq!(out.n_rows(), 3);
        assert_eq!(profile.stage_calls(Stage::Sort), 1);
        assert_eq!(profile.stage_calls(Stage::Top), 1);
        // The sort's index vector (4 bytes a row) plus its output.
        assert!(guard.bytes() >= 4 * 3 + out.approx_bytes());
    }
}
