//! `group by` with the Table-1 aggregates: count, sum, avg, min, max.

use std::cmp::Ordering::{Greater, Less};

use graql_types::obs::{obs_record_rows, obs_start, Stage};
use graql_types::{DataType, GraqlError, Result, Value};

use super::key::{cmp_rows, group_ids};
use super::OpCtx;
use crate::bitset::BitSet;
use crate::column::Column;
use crate::schema::{ColumnDef, TableSchema};
use crate::table::Table;

/// An aggregate function over a (possibly absent) input column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// `count(*)` — counts rows.
    CountStar,
    /// `count(col)` — counts non-null values.
    Count(usize),
    Sum(usize),
    Avg(usize),
    Min(usize),
    Max(usize),
}

/// An aggregate plus its output column name (the `as x` alias).
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub func: AggFn,
    pub out_name: String,
}

impl AggSpec {
    pub fn new(func: AggFn, out_name: impl Into<String>) -> Self {
        AggSpec {
            func,
            out_name: out_name.into(),
        }
    }

    /// Result type of the aggregate given the input table.
    fn out_type(&self, t: &Table) -> Result<DataType> {
        let def = |c: usize| t.schema().column(c);
        match self.func {
            AggFn::CountStar | AggFn::Count(_) => Ok(DataType::Integer),
            AggFn::Sum(c) | AggFn::Avg(c) if !def(c).dtype.is_numeric() => {
                Err(GraqlError::type_error(format!(
                    "aggregate over non-numeric column {:?}",
                    def(c).name
                )))
            }
            AggFn::Avg(_) => Ok(DataType::Float),
            AggFn::Sum(c) | AggFn::Min(c) | AggFn::Max(c) => Ok(def(c).dtype),
        }
    }
}

/// Groups rows of `t` by the tuple of `group_cols`.
///
/// Returns representative row indices (first of each group, in first-seen
/// order) and the member row lists. Also used by many-to-one vertex
/// construction (Eq. 1: one vertex instance per distinct key). The guard
/// is checked cooperatively per input row and the grouping index is
/// charged against the memory budget.
pub fn group_indices(
    t: &Table,
    group_cols: &[usize],
    cx: &OpCtx,
) -> Result<(Vec<u32>, Vec<Vec<u32>>)> {
    let (ids, reps) = group_ids(t, group_cols, cx)?;
    let mut groups = vec![Vec::new(); reps.len()];
    for (r, &g) in ids.iter().enumerate() {
        groups[g as usize].push(r as u32);
    }
    cx.guard
        .add_bytes(4 * (t.n_rows() as u64 + reps.len() as u64))?;
    Ok((reps, groups))
}

/// `select <group_cols>, <aggs> from t group by <group_cols>`.
///
/// With `group_cols` empty this is a global aggregate producing one row
/// (or one row over zero input rows, with SQL semantics: count = 0, other
/// aggregates null). Each row gets a group id and is folded into one
/// typed state vector per aggregate, in row order; the key columns are
/// gathered at the groups' first rows, sharing `t`'s dictionaries. The
/// guard is checked cooperatively per input row and once per aggregate,
/// and the grouping index and the output table are charged against the
/// memory budget.
pub fn group_aggregate(
    t: &Table,
    group_cols: &[usize],
    aggs: &[AggSpec],
    cx: &OpCtx,
) -> Result<Table> {
    let span = obs_start(cx.obs);
    let mut defs: Vec<ColumnDef> = group_cols
        .iter()
        .map(|&c| t.schema().column(c).clone())
        .collect();
    for a in aggs {
        defs.push(ColumnDef::new(a.out_name.clone(), a.out_type(t)?));
    }
    let schema = TableSchema::new(defs)?;

    let (ids, reps) = group_ids(t, group_cols, cx)?;
    if !group_cols.is_empty() {
        cx.guard
            .add_bytes(4 * (t.n_rows() as u64 + reps.len() as u64))?;
    }
    // A global aggregate has its one group also over zero rows.
    let n_groups = reps.len().max(usize::from(group_cols.is_empty()));
    let mut columns: Vec<Column> = group_cols
        .iter()
        .map(|&c| t.column(c).gather(&reps))
        .collect();
    for a in aggs {
        cx.guard.check()?;
        columns.push(fold(t, a.func, &ids, &reps, n_groups));
    }
    let out = Table::from_columns(schema, columns);
    cx.guard.add_bytes(out.approx_bytes())?;
    let (n_in, n_out) = (t.n_rows() as u64, out.n_rows() as u64);
    obs_record_rows(cx.obs, Stage::Aggregate, span, n_in, n_out);
    Ok(out)
}

/// One aggregate's output column: group `ids[r]` folds row `r` of `t`,
/// rows in ascending order.
fn fold(t: &Table, f: AggFn, ids: &[u32], reps: &[u32], n_groups: usize) -> Column {
    let col = match f {
        AggFn::CountStar => None,
        AggFn::Count(c) | AggFn::Sum(c) | AggFn::Avg(c) | AggFn::Min(c) | AggFn::Max(c) => {
            Some(t.column(c))
        }
    };
    let none = BitSet::new(ids.len());
    let absent = col.map_or(&none, |c| c.nulls());
    let n = per_group(ids, absent, vec![0; n_groups], |k, _| k + 1);
    let empty = BitSet::from_indices(n_groups, (0..n_groups).filter(|&g| n[g] == 0));
    match (f, col) {
        (AggFn::CountStar | AggFn::Count(_), _) => Column::Int {
            data: n,
            nulls: BitSet::new(n_groups),
        },
        // Integer sums accumulate in i64 (an f64 detour would lose
        // precision beyond 2^53).
        (AggFn::Sum(_), Some(Column::Int { data, .. })) => Column::Int {
            data: per_group(ids, absent, vec![0; n_groups], |s: i64, r| {
                s.wrapping_add(data[r])
            }),
            nulls: empty,
        },
        (AggFn::Sum(_) | AggFn::Avg(_), Some(col)) => {
            let zeros = vec![0.0; n_groups];
            let sums = match col {
                Column::Int { data, .. } => {
                    per_group(ids, absent, zeros, |s, r| s + data[r] as f64)
                }
                Column::Float { data, .. } => per_group(ids, absent, zeros, |s, r| s + data[r]),
                _ => unreachable!("out_type admits numeric columns only"),
            };
            let avg = matches!(f, AggFn::Avg(_));
            let data = sums
                .iter()
                .zip(&n)
                .map(|(&s, &k)| if avg && k > 0 { s / k as f64 } else { s })
                .collect();
            Column::Float { data, nulls: empty }
        }
        // Over zero rows the one global group has no row to gather.
        (_, Some(col)) if reps.len() < n_groups => {
            let mut out = Column::new(col.dtype());
            out.push(&Value::Null).expect("a null fits every column");
            out
        }
        // Min and max: each group starts at its first row, which a value
        // replaces while it is null.
        (_, Some(col)) => {
            let want = if let AggFn::Min(_) = f { Less } else { Greater };
            let best = per_group(ids, absent, reps.to_vec(), |b, r| {
                let b = b as usize;
                if col.is_null(b) || cmp_rows(col, r, b) == want {
                    r as u32
                } else {
                    b as u32
                }
            });
            col.gather(&best)
        }
        (_, None) => unreachable!("only count(*) reads no column"),
    }
}

/// `acc[g]` with `add` folded into it over the rows `ids` assigns group
/// `g` that are not in `absent`, in row order.
fn per_group<T: Copy>(
    ids: &[u32],
    absent: &BitSet,
    mut acc: Vec<T>,
    add: impl Fn(T, usize) -> T,
) -> Vec<T> {
    for (r, &g) in ids.iter().enumerate() {
        if !absent.contains(r) {
            acc[g as usize] = add(acc[g as usize], r);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use graql_types::Date;

    fn offers() -> Table {
        let schema = TableSchema::of(&[
            ("vendor", DataType::Varchar(8)),
            ("price", DataType::Float),
            ("days", DataType::Integer),
            ("valid", DataType::Date),
        ]);
        Table::from_rows(
            schema,
            vec![
                vec![
                    Value::str("v1"),
                    Value::Float(10.0),
                    Value::Int(3),
                    Value::Date(Date(10)),
                ],
                vec![
                    Value::str("v2"),
                    Value::Float(4.0),
                    Value::Int(5),
                    Value::Date(Date(20)),
                ],
                vec![
                    Value::str("v1"),
                    Value::Float(6.0),
                    Value::Null,
                    Value::Date(Date(5)),
                ],
                vec![
                    Value::str("v1"),
                    Value::Null,
                    Value::Int(1),
                    Value::Date(Date(7)),
                ],
            ],
        )
        .unwrap()
    }

    #[test]
    fn group_indices_first_seen_order() {
        let t = offers();
        let (reps, groups) = group_indices(&t, &[0], &OpCtx::default()).unwrap();
        assert_eq!(reps, vec![0, 1]);
        assert_eq!(groups, vec![vec![0, 2, 3], vec![1]]);
    }

    #[test]
    fn count_star_vs_count_col() {
        let t = offers();
        let out = group_aggregate(
            &t,
            &[0],
            &[
                AggSpec::new(AggFn::CountStar, "n"),
                AggSpec::new(AggFn::Count(1), "nprices"),
            ],
            &OpCtx::default(),
        )
        .unwrap();
        assert_eq!(out.n_rows(), 2);
        // v1 group: 3 rows, 2 non-null prices.
        assert_eq!(out.get(0, 0), Value::str("v1"));
        assert_eq!(out.get(0, 1), Value::Int(3));
        assert_eq!(out.get(0, 2), Value::Int(2));
    }

    #[test]
    fn sum_avg_skip_nulls() {
        let t = offers();
        let out = group_aggregate(
            &t,
            &[0],
            &[
                AggSpec::new(AggFn::Sum(1), "s"),
                AggSpec::new(AggFn::Avg(1), "a"),
            ],
            &OpCtx::default(),
        )
        .unwrap();
        assert_eq!(out.get(0, 1), Value::Float(16.0));
        assert_eq!(out.get(0, 2), Value::Float(8.0));
    }

    #[test]
    fn sum_of_integer_column_is_integer() {
        let t = offers();
        let out = group_aggregate(
            &t,
            &[],
            &[AggSpec::new(AggFn::Sum(2), "s")],
            &OpCtx::default(),
        )
        .unwrap();
        assert_eq!(out.get(0, 0), Value::Int(9));
    }

    #[test]
    fn min_max_work_on_dates() {
        let t = offers();
        let out = group_aggregate(
            &t,
            &[0],
            &[
                AggSpec::new(AggFn::Min(3), "lo"),
                AggSpec::new(AggFn::Max(3), "hi"),
            ],
            &OpCtx::default(),
        )
        .unwrap();
        assert_eq!(out.get(0, 1), Value::Date(Date(5)));
        assert_eq!(out.get(0, 2), Value::Date(Date(10)));
    }

    #[test]
    fn global_aggregate_over_empty_table() {
        let t = Table::empty(offers().schema().clone());
        let out = group_aggregate(
            &t,
            &[],
            &[
                AggSpec::new(AggFn::CountStar, "n"),
                AggSpec::new(AggFn::Max(1), "m"),
            ],
            &OpCtx::default(),
        )
        .unwrap();
        assert_eq!(out.n_rows(), 1);
        assert_eq!(out.get(0, 0), Value::Int(0));
        assert!(out.get(0, 1).is_null());
    }

    #[test]
    fn aggregates_over_non_numeric_rejected() {
        let t = offers();
        assert!(group_aggregate(
            &t,
            &[],
            &[AggSpec::new(AggFn::Sum(0), "s")],
            &OpCtx::default()
        )
        .is_err());
        assert!(group_aggregate(
            &t,
            &[],
            &[AggSpec::new(AggFn::Avg(3), "a")],
            &OpCtx::default()
        )
        .is_err());
        // min/max on dates and strings are fine
        assert!(group_aggregate(
            &t,
            &[],
            &[AggSpec::new(AggFn::Min(0), "m")],
            &OpCtx::default()
        )
        .is_ok());
    }

    #[test]
    fn aggregate_is_governed() {
        let t = crate::ops::governed::table();
        let aggs = [
            AggSpec::new(AggFn::CountStar, "n"),
            AggSpec::new(AggFn::Max(1), "hi"),
        ];
        // The grouping index, then 16 bytes per output cell: 100 groups
        // of three columns.
        let charge = 4 * (t.n_rows() as u64 + 100) + 16 * 100 * 3;
        crate::ops::governed::check(charge, |cx| group_aggregate(&t, &[0], &aggs, cx));
        // A global aggregate checks the guard per aggregate and charges
        // only its one row.
        crate::ops::governed::check(16 * 2, |cx| group_aggregate(&t, &[], &aggs, cx));
    }

    #[test]
    fn group_by_multiple_columns() {
        let t = offers();
        let out = group_aggregate(
            &t,
            &[0, 2],
            &[AggSpec::new(AggFn::CountStar, "n")],
            &OpCtx::default(),
        )
        .unwrap();
        assert_eq!(
            out.n_rows(),
            4,
            "four distinct (vendor, days) pairs incl. null"
        );
    }
}
