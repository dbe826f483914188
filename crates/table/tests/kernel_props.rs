//! Kernel laws: every relational kernel — the one entry point per
//! operation that the engine runs — must agree with a naive reference
//! implementation on arbitrary inputs, and must record its stage on an
//! armed profile.

use std::collections::{BTreeMap, HashSet};

use graql_table::ops::{self, OpCtx};
use graql_table::{PhysExpr, Table, TableSchema};
use graql_types::obs::Stage;
use graql_types::{CmpOp, DataType, ProfileReport, QueryGuard, QueryProfile, Value};
use proptest::prelude::*;

fn schema() -> TableSchema {
    TableSchema::of(&[("k", DataType::Integer), ("v", DataType::Integer)])
}

fn arb_table() -> impl Strategy<Value = Vec<(i64, Option<i64>)>> {
    proptest::collection::vec((0i64..8, proptest::option::of(-50i64..50)), 0..60)
}

fn build(rows: &[(i64, Option<i64>)]) -> Table {
    Table::from_rows(
        schema(),
        rows.iter()
            .map(|(k, v)| vec![Value::Int(*k), v.map(Value::Int).unwrap_or(Value::Null)]),
    )
    .unwrap()
}

proptest! {
    // The default configuration, so `PROPTEST_CASES` sets the depth (the
    // parallel-stress CI job raises it).

    /// filter == retain on the reference rows.
    #[test]
    fn filter_law(rows in arb_table(), threshold in -50i64..50) {
        let t = build(&rows);
        let pred = PhysExpr::cmp_col_const(1, CmpOp::Ge, Value::Int(threshold));
        let got = ops::filter(&t, &pred, &[0, 1], &OpCtx::default()).unwrap();
        let expected: Vec<&(i64, Option<i64>)> =
            rows.iter().filter(|(_, v)| v.is_some_and(|v| v >= threshold)).collect();
        prop_assert_eq!(got.n_rows(), expected.len());
        for (r, (k, v)) in expected.iter().enumerate() {
            prop_assert_eq!(got.get(r, 0), Value::Int(*k));
            prop_assert_eq!(got.get(r, 1), Value::Int(v.unwrap()));
        }
    }

    /// sort == stable reference sort (nulls first).
    #[test]
    fn sort_law(rows in arb_table()) {
        let t = build(&rows);
        let got = ops::sort(&t, &[ops::SortKey::asc(1)], &OpCtx::default()).unwrap();
        let mut expected: Vec<(usize, &(i64, Option<i64>))> = rows.iter().enumerate().collect();
        expected.sort_by(|(ia, (_, va)), (ib, (_, vb))| {
            // Nulls first, then value, then original index (stability).
            match (va, vb) {
                (None, None) => ia.cmp(ib),
                (None, _) => std::cmp::Ordering::Less,
                (_, None) => std::cmp::Ordering::Greater,
                (Some(a), Some(b)) => a.cmp(b).then(ia.cmp(ib)),
            }
        });
        for (r, (_, (k, _))) in expected.iter().enumerate() {
            prop_assert_eq!(got.get(r, 0), Value::Int(*k), "row {}", r);
        }
    }

    /// distinct == first-occurrence dedup.
    #[test]
    fn distinct_law(rows in arb_table()) {
        let t = build(&rows);
        let got = ops::distinct(&t, &OpCtx::default()).unwrap();
        let mut seen = HashSet::new();
        let expected: Vec<&(i64, Option<i64>)> =
            rows.iter().filter(|r| seen.insert(**r)).collect();
        prop_assert_eq!(got.n_rows(), expected.len());
        for (r, (k, _)) in expected.iter().enumerate() {
            prop_assert_eq!(got.get(r, 0), Value::Int(*k), "row {}", r);
        }
    }

    /// group_aggregate == BTreeMap reference (count*, count, sum, min, max).
    #[test]
    fn group_law(rows in arb_table()) {
        let t = build(&rows);
        let got = ops::group_aggregate(
            &t,
            &[0],
            &[
                ops::AggSpec::new(ops::AggFn::CountStar, "n"),
                ops::AggSpec::new(ops::AggFn::Count(1), "nn"),
                ops::AggSpec::new(ops::AggFn::Sum(1), "s"),
                ops::AggSpec::new(ops::AggFn::Min(1), "lo"),
                ops::AggSpec::new(ops::AggFn::Max(1), "hi"),
            ],
            &OpCtx::default(),
        )
        .unwrap();
        #[derive(Default)]
        struct Ref {
            n: i64,
            vals: Vec<i64>,
        }
        let mut groups: BTreeMap<i64, Ref> = BTreeMap::new();
        for (k, v) in &rows {
            let e = groups.entry(*k).or_default();
            e.n += 1;
            if let Some(v) = v {
                e.vals.push(*v);
            }
        }
        prop_assert_eq!(got.n_rows(), groups.len());
        for r in 0..got.n_rows() {
            let k = got.get(r, 0).as_int().unwrap();
            let g = &groups[&k];
            prop_assert_eq!(got.get(r, 1), Value::Int(g.n), "count* for {}", k);
            prop_assert_eq!(got.get(r, 2), Value::Int(g.vals.len() as i64), "count for {}", k);
            let expect_sum = if g.vals.is_empty() {
                Value::Null
            } else {
                Value::Int(g.vals.iter().sum())
            };
            prop_assert_eq!(got.get(r, 3), expect_sum, "sum for {}", k);
            let expect_min =
                g.vals.iter().min().map(|&m| Value::Int(m)).unwrap_or(Value::Null);
            let expect_max =
                g.vals.iter().max().map(|&m| Value::Int(m)).unwrap_or(Value::Null);
            prop_assert_eq!(got.get(r, 4), expect_min, "min for {}", k);
            prop_assert_eq!(got.get(r, 5), expect_max, "max for {}", k);
        }
    }

    /// hash join == nested-loop reference (null keys never join).
    #[test]
    fn join_law(left in arb_table(), right in arb_table()) {
        let l = build(&left);
        let r = build(&right);
        let got = ops::hash_join_pairs(&l, &[1], &r, &[1]);
        let mut expected = Vec::new();
        for (li, (_, lv)) in left.iter().enumerate() {
            for (ri, (_, rv)) in right.iter().enumerate() {
                if let (Some(a), Some(b)) = (lv, rv) {
                    if a == b {
                        expected.push((li as u32, ri as u32));
                    }
                }
            }
        }
        let mut got_sorted = got;
        got_sorted.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got_sorted, expected);
    }

    /// top_n after sort == reference k-smallest.
    #[test]
    fn top_n_law(rows in arb_table(), n in 0usize..20) {
        let t = build(&rows);
        let cx = OpCtx::default();
        let got = ops::top_n(&ops::sort(&t, &[ops::SortKey::desc(0)], &cx).unwrap(), n, &cx);
        let mut keys: Vec<i64> = rows.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable_by(|a, b| b.cmp(a));
        keys.truncate(n);
        let got_keys: Vec<i64> =
            (0..got.n_rows()).map(|r| got.get(r, 0).as_int().unwrap()).collect();
        prop_assert_eq!(got_keys, keys);
    }
}

/// Every governed kernel records exactly one span with its row flow on an
/// armed profile, and computes the same table with none armed (the
/// `None` path never reads a clock, so there is nothing to observe but
/// the answer).
#[test]
fn armed_profile_records_rows_in_and_out_per_stage() {
    let rows: Vec<(i64, Option<i64>)> = (0..10).map(|i| (i % 3, Some(i))).collect();
    let t = build(&rows);
    let pred = PhysExpr::cmp_col_const(1, CmpOp::Ge, Value::Int(4));
    let aggs = [ops::AggSpec::new(ops::AggFn::CountStar, "n")];
    let run = |cx: &OpCtx| {
        let filtered = ops::filter(&t, &pred, &[0, 1], cx).unwrap();
        let keys = ops::project(&filtered, &[0]).unwrap();
        let distinct = ops::distinct(&keys, cx).unwrap();
        let grouped = ops::group_aggregate(&filtered, &[0], &aggs, cx).unwrap();
        let sorted = ops::sort(&grouped, &[ops::SortKey::desc(0)], cx).unwrap();
        let top = ops::top_n(&sorted, 2, cx);
        (distinct.n_rows(), top.iter_rows().collect::<Vec<_>>())
    };
    let profile = QueryProfile::new();
    let armed = run(&OpCtx {
        guard: QueryGuard::unlimited(),
        obs: Some(&profile),
        threads: 1,
    });
    let report = ProfileReport::seal(String::new(), String::new(), &profile, 0, 0);
    let flow: Vec<(Stage, u64, u64, u64)> = report
        .stages
        .iter()
        .map(|l| (l.stage, l.calls, l.rows_in, l.rows_out))
        .collect();
    // Reports list stages in `Stage::ALL` order, not call order.
    let expected = vec![
        (Stage::Filter, 1, 10, 6),
        (Stage::Aggregate, 1, 6, 3),
        (Stage::Distinct, 1, 6, 3),
        (Stage::Sort, 1, 3, 3),
        (Stage::Top, 1, 3, 2),
    ];
    assert_eq!(flow, expected);
    assert_eq!(run(&OpCtx::default()), armed);
}

/// Strings the string-column law draws rows from.
const STRS: [&str; 5] = ["", "a", "ab", "b", "ba"];

/// Constants it compares them with: each row string, a string that only
/// the gathered shape's larger dictionary holds, and two held nowhere.
const STR_CONSTS: [&str; 8] = ["", "a", "ab", "b", "ba", "zz", "aa", "c"];

/// A one-column string table holding `rows` (indices into [`STRS`],
/// `None` for null) in one of four shapes: 0 interned row by row, 1
/// assembled by `Table::append_batch` from a batch whose dictionary page
/// sends `"a"` twice (rows alternate between its two codes), then one
/// more `"a"` row pushed, whose interning indexes the whole dictionary, 2
/// gathered from a table whose dictionary also holds strings no row of it
/// uses, 3 appended by `append_batch` from a page that repeats nothing.
fn str_table(rows: &[Option<usize>], shape: u8) -> Table {
    use graql_table::{BatchColumn, BitSet, ColumnBatch};
    let schema = TableSchema::of(&[("s", DataType::Varchar(4))]);
    let cell = |r: &Option<usize>| r.map_or(Value::Null, |i| Value::str(STRS[i]));
    match shape {
        0 => Table::from_rows(schema, rows.iter().map(|r| vec![cell(r)])).unwrap(),
        2 => {
            let extra = ["zz", "q", "ab", "zz"].map(|s| Some(Value::str(s)));
            let all = extra.into_iter().flatten().chain(rows.iter().map(cell));
            let t = Table::from_rows(schema, all.map(|v| vec![v])).unwrap();
            let idx: Vec<u32> = (4..t.n_rows() as u32).collect();
            t.gather(&idx)
        }
        _ => {
            let mut page = STRS.concat();
            let mut ends: Vec<u32> = STRS
                .iter()
                .scan(0, |at, s| {
                    *at += s.len() as u32;
                    Some(*at)
                })
                .collect();
            let repeat = shape == 1;
            if repeat {
                page.push('a');
                ends.push(page.len() as u32);
            }
            let codes = rows
                .iter()
                .enumerate()
                .map(|(r, c)| match *c {
                    Some(1) if repeat && r % 2 == 1 => STRS.len() as u32,
                    c => c.unwrap_or(0) as u32,
                })
                .collect();
            let nulls =
                BitSet::from_indices(rows.len(), (0..rows.len()).filter(|&r| rows[r].is_none()));
            let batch = ColumnBatch {
                n_rows: rows.len(),
                columns: vec![BatchColumn::Str {
                    page,
                    ends,
                    codes,
                    nulls,
                }],
            };
            let mut t = Table::empty(schema);
            t.append_batch(&batch).unwrap();
            if repeat {
                t.push_row(&[Value::str("a")]).unwrap();
            }
            t
        }
    }
}

proptest! {
    /// The string arms of `Column::filter_op_const` (code compare, per
    /// code, per row) select what a per-row `eval_bool` selects, for all
    /// six operators over any row range, on interned, appended, repeated
    /// and gathered dictionaries, with nulls.
    #[test]
    fn str_filter_op_const_law(
        rows in proptest::collection::vec(proptest::option::of(0usize..STRS.len()), 0..40),
        shape in 0u8..4,
        op in 0usize..6,
        k in 0usize..STR_CONSTS.len(),
        lo in 0usize..42,
        hi in 0usize..42,
    ) {
        let t = str_table(&rows, shape);
        let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][op];
        let k = Value::str(STR_CONSTS[k]);
        let n = t.n_rows();
        let (lo, hi) = (lo.min(hi).min(n) as u32, hi.max(lo).min(n) as u32);
        let mut got = Vec::new();
        prop_assert!(t.column(0).filter_op_const(op, &k, lo, hi, &mut got));
        let pred = PhysExpr::cmp_col_const(0, op, k.clone());
        let want: Vec<u32> = (lo..hi).filter(|&r| pred.eval_bool(&t, r as usize)).collect();
        prop_assert_eq!(got, want, "shape {} op {:?} k {:?}", shape, op, k);
    }
}
