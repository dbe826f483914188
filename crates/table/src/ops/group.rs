//! `group by` with the Table-1 aggregates: count, sum, avg, min, max.

use graql_types::obs::{obs_record_rows, obs_start, Stage};
use graql_types::{DataType, GraqlError, Result, Value};
use rustc_hash::FxHashMap;

use super::OpCtx;
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
        let numeric_input = |c: usize| -> Result<DataType> {
            let dt = t.schema().column(c).dtype;
            if dt.is_numeric() {
                Ok(dt)
            } else {
                Err(GraqlError::type_error(format!(
                    "aggregate over non-numeric column {:?}",
                    t.schema().column(c).name
                )))
            }
        };
        Ok(match self.func {
            AggFn::CountStar | AggFn::Count(_) => DataType::Integer,
            AggFn::Sum(c) => numeric_input(c)?,
            AggFn::Avg(c) => {
                numeric_input(c)?;
                DataType::Float
            }
            AggFn::Min(c) | AggFn::Max(c) => t.schema().column(c).dtype,
        })
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
    let mut map: FxHashMap<Vec<Value>, usize> = FxHashMap::default();
    let mut reps: Vec<u32> = Vec::new();
    let mut groups: Vec<Vec<u32>> = Vec::new();
    let mut tick = cx.guard.ticker();
    for i in 0..t.n_rows() {
        tick.tick()?;
        let key: Vec<Value> = group_cols.iter().map(|&c| t.get(i, c)).collect();
        match map.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => groups[*e.get()].push(i as u32),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(groups.len());
                reps.push(i as u32);
                groups.push(vec![i as u32]);
            }
        }
    }
    cx.guard
        .add_bytes(4 * (t.n_rows() as u64 + reps.len() as u64))?;
    Ok((reps, groups))
}

/// `select <group_cols>, <aggs> from t group by <group_cols>`.
///
/// With `group_cols` empty this is a global aggregate producing one row
/// (or one row over zero input rows, with SQL semantics: count = 0, other
/// aggregates null). The guard is checked cooperatively per group and
/// the output table is charged against the memory budget.
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
    let mut out = Table::empty(schema);

    let groups: Vec<Vec<u32>> = if group_cols.is_empty() {
        vec![(0..t.n_rows() as u32).collect()]
    } else {
        group_indices(t, group_cols, cx)?.1
    };

    let mut tick = cx.guard.ticker();
    let mut rows = out.appender();
    for members in &groups {
        tick.tick()?;
        let rep = members.first().copied();
        let mut row: Vec<Value> = group_cols
            .iter()
            .map(|&c| rep.map_or(Value::Null, |r| t.get(r as usize, c)))
            .collect();
        for a in aggs {
            row.push(eval_agg(t, a.func, members));
        }
        rows.push_row(&row)?;
    }
    drop(rows);
    cx.guard.add_bytes(out.approx_bytes())?;
    let (n_in, n_out) = (t.n_rows() as u64, out.n_rows() as u64);
    obs_record_rows(cx.obs, Stage::Aggregate, span, n_in, n_out);
    Ok(out)
}

fn eval_agg(t: &Table, f: AggFn, members: &[u32]) -> Value {
    match f {
        AggFn::CountStar => Value::Int(members.len() as i64),
        AggFn::Count(c) => Value::Int(
            members
                .iter()
                .filter(|&&i| !t.column(c).is_null(i as usize))
                .count() as i64,
        ),
        AggFn::Sum(c) => {
            if t.schema().column(c).dtype == DataType::Integer {
                // Integer sums accumulate in i64 (an f64 detour would lose
                // precision beyond 2^53).
                let mut acc: Option<i64> = None;
                for &i in members {
                    if let Some(x) = t.get(i as usize, c).as_int() {
                        acc = Some(acc.unwrap_or(0).wrapping_add(x));
                    }
                }
                acc.map_or(Value::Null, Value::Int)
            } else {
                fold_numeric(t, c, members, |acc, x| acc + x).map_or(Value::Null, Value::Float)
            }
        }
        AggFn::Avg(c) => {
            let (mut sum, mut n) = (0.0, 0usize);
            for &i in members {
                if let Some(x) = t.get(i as usize, c).as_f64() {
                    sum += x;
                    n += 1;
                }
            }
            if n == 0 {
                Value::Null
            } else {
                Value::Float(sum / n as f64)
            }
        }
        AggFn::Min(c) => extremum(t, c, members, true),
        AggFn::Max(c) => extremum(t, c, members, false),
    }
}

fn fold_numeric(t: &Table, c: usize, members: &[u32], f: impl Fn(f64, f64) -> f64) -> Option<f64> {
    let mut acc: Option<f64> = None;
    for &i in members {
        if let Some(x) = t.get(i as usize, c).as_f64() {
            acc = Some(f(acc.unwrap_or(0.0), x));
        }
    }
    acc
}

fn extremum(t: &Table, c: usize, members: &[u32], min: bool) -> Value {
    let mut best: Option<Value> = None;
    for &i in members {
        let v = t.get(i as usize, c);
        if v.is_null() {
            continue;
        }
        best = Some(match best {
            None => v,
            Some(b) => {
                let keep_new = if min { v < b } else { v > b };
                if keep_new {
                    v
                } else {
                    b
                }
            }
        });
    }
    best.unwrap_or(Value::Null)
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
