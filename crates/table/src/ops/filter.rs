//! Selection (`where` clauses).

use graql_types::obs::{obs_record_rows, obs_start, Stage};
use graql_types::Result;

use super::OpCtx;
use crate::expr::PhysExpr;
use crate::morsel;
use crate::table::Table;

/// Indices (ascending) of rows satisfying `pred`: one ungoverned sweep of
/// the whole table through the batch kernel. This is what vertex and edge
/// *view construction* calls (it runs outside any query, so there is
/// nothing to govern or profile); `select … where` runs [`filter`].
pub fn filter_indices(t: &Table, pred: &PhysExpr) -> Vec<u32> {
    let mut out = Vec::new();
    pred.eval_range_into(t, 0, t.n_rows() as u32, &mut out);
    out
}

/// Selection, materialized late: a morsel-parallel columnar scan makes
/// the selection vector, then only columns `cols` (in that order) are
/// gathered at it. Each morsel sweeps its row range through the typed
/// batch kernel ([`PhysExpr::eval_range_into`]) after a cooperative
/// cancel/deadline check; hit lists concatenate in morsel order, so the
/// output is the serial scan's byte for byte at any thread count. The
/// selection vector and the gathered output are charged against the
/// memory budget, and one span covers the sweep and the gather. A
/// repeated column is a [`graql_types::GraqlError::Name`].
pub fn filter(t: &Table, pred: &PhysExpr, cols: &[usize], cx: &OpCtx) -> Result<Table> {
    let span = obs_start(cx.obs);
    let n = t.n_rows();
    let workers = morsel::scan_workers(cx.threads, n, morsel::PAR_MIN_ITEMS);
    let parts = morsel::run_morsels(cx.guard, n, morsel::MORSEL_ROWS, workers, |_, range| {
        let mut hits: Vec<u32> = Vec::new();
        pred.eval_range_into(t, range.start as u32, range.end as u32, &mut hits);
        Ok(hits)
    })?;
    let idx = morsel::concat(parts);
    cx.guard.add_bytes(4 * idx.len() as u64)?;
    let out = super::project(t, cols)?.gather(&idx);
    cx.guard.add_bytes(out.approx_bytes())?;
    obs_record_rows(cx.obs, Stage::Filter, span, n as u64, out.n_rows() as u64);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use graql_types::{CmpOp, DataType, Value};

    fn numbers(n: i64) -> Table {
        let schema = TableSchema::of(&[("x", DataType::Integer)]);
        Table::from_rows(schema, (0..n).map(|i| vec![Value::Int(i)])).unwrap()
    }

    #[test]
    fn small_table_single_batch() {
        let t = numbers(10);
        let sel = filter_indices(&t, &PhysExpr::cmp_col_const(0, CmpOp::Ge, Value::Int(7)));
        assert_eq!(sel, vec![7, 8, 9]);
    }

    #[test]
    fn large_table_morsel_scan_keeps_order() {
        let t = numbers(10_000);
        for threads in [1, 4] {
            let cx = OpCtx {
                threads,
                ..OpCtx::default()
            };
            let lt5 = PhysExpr::cmp_col_const(0, CmpOp::Lt, Value::Int(5));
            let sel = filter(&t, &lt5, &[0], &cx).unwrap();
            assert_eq!(sel.n_rows(), 5);
            let all = filter(&t, &PhysExpr::always(), &[0], &cx).unwrap();
            assert_eq!(all.n_rows(), 10_000);
            assert!(
                (1..10_000).all(|i| all.get(i - 1, 0) < all.get(i, 0)),
                "ascending order at {threads} threads"
            );
        }
    }

    #[test]
    fn batch_kernel_matches_row_at_a_time() {
        // Every comparison op, over a column with nulls, swept by the typed
        // kernel must agree with eval_bool row by row.
        let schema = TableSchema::of(&[("x", DataType::Integer)]);
        let t = Table::from_rows(
            schema,
            (0..500).map(|i| {
                if i % 7 == 0 {
                    vec![Value::Null]
                } else {
                    vec![Value::Int(i % 13)]
                }
            }),
        )
        .unwrap();
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for k in [Value::Int(6), Value::Float(6.5), Value::Null] {
                let pred = PhysExpr::cmp_col_const(0, op, k.clone());
                let batch = filter_indices(&t, &pred);
                let serial: Vec<u32> = (0..500u32)
                    .filter(|&i| pred.eval_bool(&t, i as usize))
                    .collect();
                assert_eq!(batch, serial, "{op:?} {k:?}");
            }
        }
    }

    #[test]
    fn filter_gathers_only_the_named_columns() {
        let schema = TableSchema::of(&[("x", DataType::Integer), ("s", DataType::Varchar(4))]);
        let rows = (0..10).map(|i| vec![Value::Int(i), Value::str(format!("s{i}"))]);
        let t = Table::from_rows(schema, rows).unwrap();
        let ge7 = PhysExpr::cmp_col_const(0, CmpOp::Ge, Value::Int(7));
        let f = filter(&t, &ge7, &[1], &OpCtx::default()).unwrap();
        assert_eq!((f.n_cols(), f.schema().column(0).name.as_str()), (1, "s"));
        let got: Vec<Value> = f.iter_rows().flatten().collect();
        assert_eq!(got, ["s7", "s8", "s9"].map(Value::str));
        assert!(filter(&t, &ge7, &[1, 1], &OpCtx::default()).is_err());
    }

    #[test]
    fn filter_materializes() {
        let t = numbers(100);
        let eq42 = PhysExpr::cmp_col_const(0, CmpOp::Eq, Value::Int(42));
        let f = filter(&t, &eq42, &[0], &OpCtx::default()).unwrap();
        assert_eq!(f.n_rows(), 1);
        assert_eq!(f.get(0, 0), Value::Int(42));
    }
}
