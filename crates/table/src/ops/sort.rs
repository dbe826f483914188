//! `order by`: stable multi-key sort, and `order by … top n`.

use std::cmp::Ordering;

use graql_types::obs::{obs_record_rows, obs_start, Stage};
use graql_types::Result;

use super::key::cmp_rows;
use super::OpCtx;
use crate::column::Column;
use crate::morsel;
use crate::table::Table;

/// One sort key: column index and direction.
#[derive(Debug, Clone, Copy)]
pub struct SortKey {
    pub col: usize,
    pub desc: bool,
}

impl SortKey {
    pub fn asc(col: usize) -> Self {
        SortKey { col, desc: false }
    }
    pub fn desc(col: usize) -> Self {
        SortKey { col, desc: true }
    }
}

/// Inputs below this many rows sort as one inline run.
const SORT_PAR_MIN: usize = 8192;

/// The sort comparator: `keys` in declared order over their columns'
/// typed slices, ties broken by row index. The tie-break makes this a
/// *strict total order* on row indices, which is what lets
/// [`sort_indices`] merge independently sorted runs into exactly the
/// sequence one serial sort would produce, and [`sort_top`] select the
/// first rows of that sequence without sorting the rest.
fn comparator<'a>(t: &'a Table, keys: &[SortKey]) -> impl Fn(&u32, &u32) -> Ordering + Sync + 'a {
    let cols: Vec<(&Column, bool)> = keys.iter().map(|k| (t.column(k.col), k.desc)).collect();
    move |&a, &b| {
        for &(col, desc) in &cols {
            let o = cmp_rows(col, a as usize, b as usize);
            if o != Ordering::Equal {
                return if desc { o.reverse() } else { o };
            }
        }
        a.cmp(&b) // stability
    }
}

/// Row indices of `t` ordered by `keys` (ties broken by original row index,
/// making the sort stable and deterministic).
///
/// Run formation is morsel-parallel: each morsel sorts a contiguous run
/// with the comparator, then the standard library's stable sort, which
/// finds runs already in order, merges the runs into the single globally
/// sorted index. Below `SORT_PAR_MIN` (or on one thread) that is one run
/// sorted inline and no merge. A comparator sort cannot yield mid-run, so
/// the guard is checked per run and before the merge (input size bounds
/// the work between checks), and the index vector is charged to the
/// memory budget.
pub fn sort_indices(t: &Table, keys: &[SortKey], cx: &OpCtx) -> Result<Vec<u32>> {
    let n = t.n_rows();
    let cmp = comparator(t, keys);
    let workers = morsel::scan_workers(cx.threads, n, SORT_PAR_MIN);
    // Two runs per worker so a slow worker's second run can be stolen.
    let n_runs = if workers > 1 { workers * 2 } else { 1 };
    let runs = morsel::run_morsels(cx.guard, n, n.div_ceil(n_runs), workers, |_, range| {
        let mut idx: Vec<u32> = (range.start as u32..range.end as u32).collect();
        idx.sort_unstable_by(&cmp);
        Ok(idx)
    })?;
    cx.guard.check()?;
    let mut idx = runs.concat();
    if runs.len() > 1 {
        idx.sort_by(&cmp);
    }
    cx.guard.add_bytes(4 * idx.len() as u64)?;
    Ok(idx)
}

/// Materialized `order by`; the output is charged to the memory budget.
pub fn sort(t: &Table, keys: &[SortKey], cx: &OpCtx) -> Result<Table> {
    let span = obs_start(cx.obs);
    let idx = sort_indices(t, keys, cx)?;
    cx.guard.check()?;
    let out = t.gather(&idx);
    cx.guard.add_bytes(out.approx_bytes())?;
    let n = t.n_rows() as u64;
    obs_record_rows(cx.obs, Stage::Sort, span, n, n);
    Ok(out)
}

/// `order by … top n`: the first `n` rows of [`sort`]'s output. Under
/// the strict comparator those are the `n` smallest rows, so they are
/// selected in linear time and only they are sorted, on the calling
/// thread. It records a sort span and a top span as the two operations
/// would, and charges the memory budget as they would: the index and
/// the table [`sort`] materializes stand for the rows it skips.
pub fn sort_top(t: &Table, keys: &[SortKey], n: usize, cx: &OpCtx) -> Result<Table> {
    let (rows, n) = (t.n_rows(), n.min(t.n_rows()));
    let span = obs_start(cx.obs);
    cx.guard.check()?;
    let cmp = comparator(t, keys);
    let mut idx: Vec<u32> = (0..rows as u32).collect();
    if 0 < n && n < rows {
        idx.select_nth_unstable_by(n - 1, &cmp);
    }
    idx.truncate(n);
    idx.sort_unstable_by(&cmp);
    cx.guard.add_bytes(4 * rows as u64)?;
    cx.guard.add_bytes(16 * rows as u64 * t.n_cols() as u64)?;
    obs_record_rows(cx.obs, Stage::Sort, span, rows as u64, rows as u64);
    let span = obs_start(cx.obs);
    let out = t.gather(&idx);
    obs_record_rows(cx.obs, Stage::Top, span, rows as u64, n as u64);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use graql_types::{DataType, Value};

    fn t() -> Table {
        let schema = TableSchema::of(&[("g", DataType::Varchar(4)), ("x", DataType::Integer)]);
        Table::from_rows(
            schema,
            vec![
                vec![Value::str("b"), Value::Int(1)],
                vec![Value::str("a"), Value::Int(3)],
                vec![Value::str("a"), Value::Int(2)],
                vec![Value::str("b"), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn sort_and_top_are_governed() {
        let t = crate::ops::governed::table();
        let keys = [SortKey::asc(0), SortKey::desc(1)];
        // The index, then the sorted table's 16 bytes per cell, with or
        // without a top that keeps 10 rows of it.
        let n = t.n_rows() as u64;
        let charge = 4 * n + 16 * n * 2;
        crate::ops::governed::check(charge, |cx| sort(&t, &keys, cx));
        crate::ops::governed::check(charge, |cx| sort_top(&t, &keys, 10, cx));
    }

    #[test]
    fn top_keeps_the_first_rows_of_the_sort() {
        let t = crate::ops::governed::table();
        let keys = [SortKey::desc(1), SortKey::asc(0)];
        let cx = OpCtx::default();
        let sorted = sort(&t, &keys, &cx).unwrap();
        for n in [0, 1, 10, 699, t.n_rows(), t.n_rows() + 1] {
            let top = sort_top(&t, &keys, n, &cx).unwrap();
            let head = crate::ops::top_n(&sorted, n, &cx);
            assert!(top.iter_rows().eq(head.iter_rows()), "top {n}");
        }
    }

    #[test]
    fn single_key_ascending() {
        let s = sort(&t(), &[SortKey::asc(1)], &OpCtx::default()).unwrap();
        // Nulls sort first under the total order.
        let xs: Vec<Value> = (0..4).map(|i| s.get(i, 1)).collect();
        assert_eq!(
            xs,
            vec![Value::Null, Value::Int(1), Value::Int(2), Value::Int(3)]
        );
    }

    #[test]
    fn multi_key_with_direction() {
        let s = sort(
            &t(),
            &[SortKey::asc(0), SortKey::desc(1)],
            &OpCtx::default(),
        )
        .unwrap();
        let rows: Vec<(Value, Value)> = (0..4).map(|i| (s.get(i, 0), s.get(i, 1))).collect();
        assert_eq!(
            rows,
            vec![
                (Value::str("a"), Value::Int(3)),
                (Value::str("a"), Value::Int(2)),
                (Value::str("b"), Value::Int(1)),
                (Value::str("b"), Value::Null),
            ]
        );
    }

    #[test]
    fn sort_is_stable_on_ties() {
        let schema = TableSchema::of(&[("k", DataType::Integer), ("tag", DataType::Integer)]);
        let t = Table::from_rows(
            schema,
            vec![
                vec![Value::Int(1), Value::Int(100)],
                vec![Value::Int(1), Value::Int(200)],
                vec![Value::Int(0), Value::Int(300)],
            ],
        )
        .unwrap();
        let s = sort(&t, &[SortKey::asc(0)], &OpCtx::default()).unwrap();
        assert_eq!(
            s.get(1, 1),
            Value::Int(100),
            "first tied row keeps its position"
        );
        assert_eq!(s.get(2, 1), Value::Int(200));
    }

    #[test]
    fn large_parallel_sort_matches_sequential_semantics() {
        let schema = TableSchema::of(&[("x", DataType::Integer)]);
        let n = 20_000i64;
        let t = Table::from_rows(schema, (0..n).map(|i| vec![Value::Int((n - i) % 997)])).unwrap();
        let cx = OpCtx {
            threads: 4,
            ..OpCtx::default()
        };
        let s = sort(&t, &[SortKey::asc(0)], &cx).unwrap();
        for i in 1..n as usize {
            assert!(s.get(i - 1, 0).cmp_total(&s.get(i, 0)) != std::cmp::Ordering::Greater);
        }
        let serial = sort(&t, &[SortKey::asc(0)], &OpCtx::default()).unwrap();
        assert!(
            s.iter_rows().eq(serial.iter_rows()),
            "merged runs equal the one-run sort"
        );
    }
}
