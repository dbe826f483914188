//! `order by`: stable multi-key sort.

use std::cmp::Ordering;

use graql_types::obs::{obs_record_rows, obs_start, Stage};
use graql_types::Result;

use super::OpCtx;
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

/// The sort comparator: `keys` in declared order, ties broken by row
/// index. The tie-break makes this a *strict total order* on row indices,
/// which is what lets [`sort_indices`] merge independently sorted runs
/// into exactly the sequence one serial sort would produce.
#[inline]
fn cmp_rows(t: &Table, keys: &[SortKey], a: u32, b: u32) -> Ordering {
    for k in keys {
        let col = t.column(k.col);
        let o = col.get(a as usize).cmp_total(&col.get(b as usize));
        let o = if k.desc { o.reverse() } else { o };
        if o != Ordering::Equal {
            return o;
        }
    }
    a.cmp(&b) // stability
}

/// Row indices of `t` ordered by `keys` (ties broken by original row index,
/// making the sort stable and deterministic).
///
/// Run formation is morsel-parallel: each morsel sorts a contiguous run
/// with `cmp_rows`, then pairwise merges reassemble the single globally
/// sorted index. Below `SORT_PAR_MIN` (or on one thread) that is one run
/// sorted inline and no merge. A comparator sort cannot yield mid-run, so
/// the guard is checked per run and per merge round (input size bounds
/// the work between checks), and the index vector is charged to the
/// memory budget.
pub fn sort_indices(t: &Table, keys: &[SortKey], cx: &OpCtx) -> Result<Vec<u32>> {
    let n = t.n_rows();
    let workers = morsel::scan_workers(cx.threads, n, SORT_PAR_MIN);
    // Two runs per worker so a slow worker's second run can be stolen.
    let n_runs = if workers > 1 { workers * 2 } else { 1 };
    let mut runs = morsel::run_morsels(cx.guard, n, n.div_ceil(n_runs), workers, |_, range| {
        let mut idx: Vec<u32> = (range.start as u32..range.end as u32).collect();
        idx.sort_unstable_by(|&a, &b| cmp_rows(t, keys, a, b));
        Ok(idx)
    })?;
    while runs.len() > 1 {
        cx.guard.check()?;
        let mut merged: Vec<Vec<u32>> = Vec::with_capacity(runs.len().div_ceil(2));
        let mut it = runs.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => merged.push(merge_runs(t, keys, a, b)),
                None => merged.push(a),
            }
        }
        runs = merged;
    }
    let idx = runs.pop().unwrap_or_default();
    cx.guard.add_bytes(4 * idx.len() as u64)?;
    Ok(idx)
}

fn merge_runs(t: &Table, keys: &[SortKey], a: Vec<u32>, b: Vec<u32>) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if cmp_rows(t, keys, a[i], b[j]) != Ordering::Greater {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
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
