//! `distinct`: duplicate elimination, keeping first occurrences.

use graql_types::obs::{obs_record_rows, obs_start, Stage};
use graql_types::Result;

use super::key::group_ids;
use super::OpCtx;
use crate::table::Table;

/// Indices of the first occurrence of each distinct tuple of `cols`
/// (in ascending row order). With `cols` empty, all columns are keyed.
/// The guard is checked cooperatively per input row and the dedup set is
/// charged against the memory budget.
pub fn distinct_indices(t: &Table, cols: &[usize], cx: &OpCtx) -> Result<Vec<u32>> {
    let all: Vec<usize>;
    let cols = if cols.is_empty() {
        all = (0..t.n_cols()).collect();
        &all
    } else {
        cols
    };
    let (_, reps) = group_ids(t, cols, cx)?;
    cx.guard
        .add_bytes(16 * cols.len() as u64 * reps.len() as u64)?;
    Ok(reps)
}

/// Materialized `select distinct` over all columns; the output is
/// charged to the memory budget.
pub fn distinct(t: &Table, cx: &OpCtx) -> Result<Table> {
    let span = obs_start(cx.obs);
    let out = t.gather(&distinct_indices(t, &[], cx)?);
    cx.guard.add_bytes(out.approx_bytes())?;
    let (n_in, n_out) = (t.n_rows() as u64, out.n_rows() as u64);
    obs_record_rows(cx.obs, Stage::Distinct, span, n_in, n_out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use graql_types::{DataType, Value};

    fn t() -> Table {
        let schema = TableSchema::of(&[("a", DataType::Integer), ("b", DataType::Integer)]);
        Table::from_rows(
            schema,
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Int(20)],
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(10)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn distinct_is_governed() {
        let t = crate::ops::governed::table();
        // The dedup set, 16 bytes per key cell, then the output's 16 per
        // cell: 700 distinct pairs.
        let charge = 16 * 2 * 700 + 16 * 700 * 2;
        crate::ops::governed::check(charge, |cx| distinct(&t, cx));
    }

    #[test]
    fn distinct_all_columns() {
        let d = distinct(&t(), &OpCtx::default()).unwrap();
        assert_eq!(d.n_rows(), 3);
        assert_eq!(d.get(0, 1), Value::Int(10));
        assert_eq!(d.get(1, 1), Value::Int(20));
        assert_eq!(d.get(2, 0), Value::Int(2));
    }

    #[test]
    fn distinct_on_subset_keeps_first_row() {
        let idx = distinct_indices(&t(), &[0], &OpCtx::default()).unwrap();
        assert_eq!(idx, vec![0, 3]);
    }

    #[test]
    fn nulls_group_as_one_distinct_value() {
        let schema = TableSchema::of(&[("a", DataType::Integer)]);
        let t = Table::from_rows(
            schema,
            vec![vec![Value::Null], vec![Value::Null], vec![Value::Int(1)]],
        )
        .unwrap();
        assert_eq!(distinct(&t, &OpCtx::default()).unwrap().n_rows(), 2);
    }

    #[test]
    fn int_float_equal_values_deduplicate() {
        let schema = TableSchema::of(&[("a", DataType::Float)]);
        let t =
            Table::from_rows(schema, vec![vec![Value::Int(2)], vec![Value::Float(2.0)]]).unwrap();
        assert_eq!(distinct(&t, &OpCtx::default()).unwrap().n_rows(), 1);
    }
}
