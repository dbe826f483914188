//! O(n²) reference implementations of the Table-1 kernels.
//!
//! Each function computes the same answer as its counterpart in
//! `graql_table::ops` using the dumbest correct algorithm available —
//! nested loops and linear scans, no hashing, no sort keys. The table-op
//! property tests (`tests/table_ops_props.rs`) drive random operation
//! sequences through both and demand identical results, including row
//! *order*, which is part of every kernel's contract:
//!
//! - `filter` preserves input order;
//! - `join` pairs are left-major, right matches in right-row order;
//! - `group` representatives appear in first-seen order, and so do the
//!   rows of `group_aggregate`;
//! - `sort` is stable; `distinct` keeps first occurrences.

use std::collections::BTreeMap;

use graql_table::ops::{AggFn, SortKey};
use graql_table::{PhysExpr, Table};
use graql_types::{DataType, Value};

/// Row indices satisfying `pred`, in input order.
pub fn filter_indices(t: &Table, pred: &PhysExpr) -> Vec<u32> {
    (0..t.n_rows())
        .filter(|&r| pred.eval_bool(t, r))
        .map(|r| r as u32)
        .collect()
}

/// Nested-loop equi-join: `(left_row, right_row)` pairs in left-major
/// order. Null keys never join; keys compare under semantic equality
/// (so `integer` joins `float` by value), matching `hash_join_pairs`.
pub fn join_pairs(l: &Table, lkeys: &[usize], r: &Table, rkeys: &[usize]) -> Vec<(u32, u32)> {
    assert_eq!(lkeys.len(), rkeys.len(), "join key arity mismatch");
    let mut out = Vec::new();
    for i in 0..l.n_rows() {
        for j in 0..r.n_rows() {
            let matches = lkeys.iter().zip(rkeys).all(|(&lc, &rc)| {
                let a = l.get(i, lc);
                let b = r.get(j, rc);
                a.sem_eq(&b)
            });
            if matches {
                out.push((i as u32, j as u32));
            }
        }
    }
    out
}

/// Group representatives (first of each group, first-seen order) and
/// member lists, via linear key search.
pub fn group_indices(t: &Table, group_cols: &[usize]) -> (Vec<u32>, Vec<Vec<u32>>) {
    let mut keys: Vec<Vec<Value>> = Vec::new();
    let mut reps: Vec<u32> = Vec::new();
    let mut groups: Vec<Vec<u32>> = Vec::new();
    for r in 0..t.n_rows() {
        let key: Vec<Value> = group_cols.iter().map(|&c| t.get(r, c)).collect();
        match keys.iter().position(|k| k == &key) {
            Some(g) => groups[g].push(r as u32),
            None => {
                keys.push(key);
                reps.push(r as u32);
                groups.push(vec![r as u32]);
            }
        }
    }
    (reps, groups)
}

/// The rows of `group_aggregate`, groups in first-seen order: each
/// group's key values, then each aggregate folded over the group's rows
/// by [`Value`] semantics. A `BTreeMap` from key tuple to group finds the
/// groups. With `group_cols` empty there is exactly one group, also over
/// zero rows (count 0, every other aggregate null).
pub fn group_aggregate(t: &Table, group_cols: &[usize], aggs: &[AggFn]) -> Vec<Vec<Value>> {
    let mut index: BTreeMap<Vec<Value>, usize> = BTreeMap::new();
    let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
    if group_cols.is_empty() {
        index.insert(Vec::new(), 0);
        groups.push((Vec::new(), Vec::new()));
    }
    for r in 0..t.n_rows() {
        let key: Vec<Value> = group_cols.iter().map(|&c| t.get(r, c)).collect();
        let g = *index.entry(key.clone()).or_insert_with(|| {
            groups.push((key, Vec::new()));
            groups.len() - 1
        });
        groups[g].1.push(r);
    }
    groups
        .into_iter()
        .map(|(mut row, members)| {
            for &f in aggs {
                row.push(aggregate(t, f, &members));
            }
            row
        })
        .collect()
}

/// One aggregate over `members`, in row order.
fn aggregate(t: &Table, f: AggFn, members: &[usize]) -> Value {
    let c = match f {
        AggFn::CountStar => return Value::Int(members.len() as i64),
        AggFn::Count(c) | AggFn::Sum(c) | AggFn::Avg(c) | AggFn::Min(c) | AggFn::Max(c) => c,
    };
    let vals: Vec<Value> = members
        .iter()
        .map(|&r| t.get(r, c))
        .filter(|v| !v.is_null())
        .collect();
    let first = || vals.first().cloned().unwrap_or(Value::Null);
    match f {
        AggFn::Count(_) => Value::Int(vals.len() as i64),
        AggFn::Sum(_) if vals.is_empty() => Value::Null,
        AggFn::Sum(_) if t.schema().column(c).dtype == DataType::Integer => Value::Int(
            vals.iter()
                .fold(0i64, |acc, v| acc.wrapping_add(v.as_int().unwrap())),
        ),
        AggFn::Sum(_) => Value::Float(vals.iter().fold(0.0, |acc, v| acc + v.as_f64().unwrap())),
        AggFn::Avg(_) if vals.is_empty() => Value::Null,
        AggFn::Avg(_) => {
            let sum = vals.iter().fold(0.0, |acc, v| acc + v.as_f64().unwrap());
            Value::Float(sum / vals.len() as f64)
        }
        AggFn::Min(_) => vals
            .iter()
            .fold(first(), |m, v| if *v < m { v.clone() } else { m }),
        AggFn::Max(_) => vals
            .iter()
            .fold(first(), |m, v| if *v > m { v.clone() } else { m }),
        AggFn::CountStar => unreachable!("returned above"),
    }
}

/// Stable insertion sort of row indices under the sort keys.
pub fn sort_indices(t: &Table, keys: &[SortKey]) -> Vec<u32> {
    let cmp = |a: u32, b: u32| {
        for k in keys {
            let ord = t
                .get(a as usize, k.col)
                .cmp_total(&t.get(b as usize, k.col));
            let ord = if k.desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    };
    let mut out: Vec<u32> = Vec::with_capacity(t.n_rows());
    for r in 0..t.n_rows() as u32 {
        // Insert after every element that is <= r (stability).
        let pos = out
            .iter()
            .rposition(|&x| cmp(x, r) != std::cmp::Ordering::Greater)
            .map(|p| p + 1)
            .unwrap_or(0);
        out.insert(pos, r);
    }
    out
}

/// First-occurrence indices of distinct rows over the given columns.
pub fn distinct_indices(t: &Table, cols: &[usize]) -> Vec<u32> {
    group_indices(t, cols).0
}

/// The first `n` rows.
pub fn top_n(t: &Table, n: usize) -> Table {
    let idx: Vec<u32> = (0..t.n_rows().min(n) as u32).collect();
    t.gather(&idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graql_table::ops::{self, OpCtx};
    use graql_table::TableSchema;
    use graql_types::{CmpOp, DataType};

    fn sample() -> Table {
        let schema = TableSchema::of(&[
            ("k", DataType::Integer),
            ("v", DataType::Float),
            ("s", DataType::Varchar(4)),
        ]);
        Table::from_rows(
            schema,
            vec![
                vec![Value::Int(2), Value::Float(1.5), Value::str("b")],
                vec![Value::Int(1), Value::Null, Value::str("a")],
                vec![Value::Int(2), Value::Float(0.5), Value::str("b")],
                vec![Value::Null, Value::Float(2.0), Value::str("c")],
                vec![Value::Int(1), Value::Float(1.5), Value::str("a")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn kernels_agree_on_sample() {
        let t = sample();
        let pred = PhysExpr::Cmp(
            CmpOp::Ge,
            Box::new(PhysExpr::Col(0)),
            Box::new(PhysExpr::Const(Value::Int(1))),
        );
        let cx = OpCtx::default();
        let picked = filter_indices(&t, &pred);
        assert_eq!(picked, ops::filter_indices(&t, &pred));
        let engine = ops::filter(&t, &pred, &(0..t.n_cols()).collect::<Vec<_>>(), &cx).unwrap();
        assert!(t.gather(&picked).iter_rows().eq(engine.iter_rows()));
        assert_eq!(
            join_pairs(&t, &[0], &t, &[0]),
            ops::hash_join_pairs(&t, &[0], &t, &[0])
        );
        assert_eq!(
            group_indices(&t, &[0]),
            ops::group_indices(&t, &[0], &cx).unwrap()
        );
        let keys = [SortKey::asc(0), SortKey::desc(1)];
        assert_eq!(
            sort_indices(&t, &keys),
            ops::sort_indices(&t, &keys, &cx).unwrap()
        );
        assert_eq!(
            distinct_indices(&t, &[0, 2]),
            ops::distinct_indices(&t, &[0, 2], &cx).unwrap()
        );
        let topped = top_n(&t, 3);
        let engine = ops::top_n(&t, 3, &cx);
        assert_eq!(topped.n_rows(), engine.n_rows());
        for r in 0..3 {
            assert_eq!(topped.row(r), engine.row(r));
        }
    }
}
