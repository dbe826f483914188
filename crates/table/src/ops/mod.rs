//! Relational kernels backing the paper's Table 1.
//!
//! | Table 1 op | kernel |
//! |---|---|
//! | select (selection) | [`filter::filter`] |
//! | select (projection) | [`project`] |
//! | order by | [`sort::sort`] |
//! | group by / count / avg / min / max / sum | [`group::group_aggregate`] |
//! | distinct | [`distinct::distinct`] |
//! | top n | [`top_n`]; after an order by, [`sort::sort_top`] |
//! | as x | aliasing is handled at the schema level ([`rename`]) |
//!
//! Group by, the aggregates, distinct and order by share one row key
//! (the private `key` module): per key column a fixed-width word — a
//! string's dictionary code, an integer's or date's value, a float's raw
//! bits — and a null mask, so no kernel builds a `Value` per row. Keys
//! over a dictionary that may hold a string twice (a client table built
//! by [`crate::Table::append_batch`]) use canonical codes. The sort
//! comparator reads the same typed slices and compares strings by their
//! dictionary entries.
//!
//! Each governed operation has **one** entry point, and it is the code
//! `graql_core::exec` runs: it takes an [`OpCtx`] (guard, optional span
//! recorder, thread count) and the scan-shaped kernels (filter, sort)
//! split their input over [`crate::morsel::run_morsels`]. Library callers
//! with nothing to govern pass `&OpCtx::default()`.
//!
//! A pairwise hash join ([`join::hash_join_pairs`]) is not in Table 1 and
//! nothing in the engine calls it (edge construction, paper Eq. 2, has its
//! own n-way tuple join in `graql_core::ddl`); it is the ungoverned
//! two-table library form.

pub mod distinct;
pub mod filter;
pub mod group;
pub mod join;
mod key;
pub mod sort;

pub use distinct::{distinct, distinct_indices};
pub use filter::{filter, filter_indices};
pub use group::{group_aggregate, group_indices, AggFn, AggSpec};
pub use join::hash_join_pairs;
pub use sort::{sort, sort_indices, sort_top, SortKey};

use graql_types::obs::{obs_record_rows, obs_start, Stage};
use graql_types::{QueryGuard, QueryProfile, Result};

use crate::schema::TableSchema;
use crate::table::Table;

/// What a kernel runs under: the query's governance guard, its span
/// recorder when one is armed, and the worker count for morsel-parallel
/// kernels. The default is ungoverned, unprofiled and inline. Every
/// governed kernel records one span with its rows in/out when a profile
/// is armed (a failed call records nothing) and reads no clock otherwise.
#[derive(Clone, Copy)]
pub struct OpCtx<'a> {
    /// Cancellation, deadline and row/byte budgets, checked cooperatively
    /// by every kernel loop.
    pub guard: &'a QueryGuard,
    /// `None` keeps the kernels off the clock entirely.
    pub obs: Option<&'a QueryProfile>,
    /// Upper bound on workers; inputs below a kernel's profitability
    /// floor run inline whatever this says.
    pub threads: usize,
}

impl Default for OpCtx<'_> {
    fn default() -> Self {
        OpCtx {
            guard: QueryGuard::unlimited(),
            obs: None,
            threads: 1,
        }
    }
}

/// Projection: a new table with the chosen columns, in order. The
/// columns are shared with `t`, not copied. A repeated column is a
/// [`graql_types::GraqlError::Name`].
pub fn project(t: &Table, cols: &[usize]) -> Result<Table> {
    let schema = t.schema().project(cols)?;
    let columns = cols.iter().map(|&c| t.shared_column(c).clone()).collect();
    Ok(Table::from_columns(schema, columns))
}

/// `top n`: the first `n` rows of `t` (callers sort first, as in
/// `select top 10 … order by …`).
pub fn top_n(t: &Table, n: usize, cx: &OpCtx) -> Table {
    let span = obs_start(cx.obs);
    let n = n.min(t.n_rows());
    let idx: Vec<u32> = (0..n as u32).collect();
    let out = t.gather(&idx);
    obs_record_rows(cx.obs, Stage::Top, span, t.n_rows() as u64, n as u64);
    out
}

/// `as x`: renames columns (length must equal arity); the columns are
/// shared with `t`.
pub fn rename(t: &Table, names: &[&str]) -> Result<Table> {
    let defs = t
        .schema()
        .columns()
        .iter()
        .zip(names)
        .map(|(c, n)| crate::schema::ColumnDef::new(*n, c.dtype))
        .collect();
    let schema = TableSchema::new(defs)?;
    Ok(Table::from_columns(
        schema,
        (0..t.n_cols())
            .map(|i| t.shared_column(i).clone())
            .collect(),
    ))
}

/// Fixtures for the governance tests of the rewritten kernels.
#[cfg(test)]
pub(crate) mod governed {
    use graql_types::guard::TICK_INTERVAL;
    use graql_types::{DataType, GraqlError, QueryBudget, QueryGuard, Result, Value};

    use super::OpCtx;
    use crate::schema::TableSchema;
    use crate::table::Table;

    /// Three tick intervals of rows over `(s varchar, x integer)`: 100
    /// strings, 7 integers, 700 distinct pairs.
    pub(crate) fn table() -> Table {
        let schema = TableSchema::of(&[("s", DataType::Varchar(8)), ("x", DataType::Integer)]);
        let rows = (0..3 * TICK_INTERVAL as i64)
            .map(|i| vec![Value::str(format!("k{}", i % 100)), Value::Int(i % 7)]);
        Table::from_rows(schema, rows).unwrap()
    }

    /// `run` under a guard cancelled before it starts fails as cancelled;
    /// under a byte budget of `charge` it succeeds, and one byte less
    /// fails as over budget.
    pub(crate) fn check<T>(charge: u64, run: impl Fn(&OpCtx) -> Result<T>) {
        let cancelled = QueryGuard::new(QueryBudget::UNLIMITED);
        cancelled.cancel();
        let err = run(&under(&cancelled)).err();
        assert!(
            matches!(err, Some(GraqlError::Cancelled(_))),
            "cancelled: {err:?}"
        );
        let budget = |bytes| {
            QueryGuard::new(QueryBudget {
                max_query_bytes: Some(bytes),
                ..QueryBudget::UNLIMITED
            })
        };
        assert!(
            run(&under(&budget(charge))).is_ok(),
            "within {charge} bytes"
        );
        let err = run(&under(&budget(charge - 1))).err();
        assert!(
            matches!(err, Some(GraqlError::Budget(_))),
            "budget: {err:?}"
        );
    }

    fn under(guard: &QueryGuard) -> OpCtx<'_> {
        OpCtx {
            guard,
            ..OpCtx::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graql_types::{DataType, Value};

    fn t() -> Table {
        let schema = TableSchema::of(&[("a", DataType::Integer), ("b", DataType::Integer)]);
        Table::from_rows(
            schema,
            (0..5).map(|i| vec![Value::Int(i), Value::Int(i * 10)]),
        )
        .unwrap()
    }

    #[test]
    fn project_selects_columns() {
        let p = project(&t(), &[1]).unwrap();
        assert_eq!(p.n_cols(), 1);
        assert_eq!(p.schema().column(0).name, "b");
        assert_eq!(p.get(3, 0), Value::Int(30));
    }

    #[test]
    fn project_and_rename_share_columns() {
        let t = t();
        let p = rename(&project(&t, &[1, 0]).unwrap(), &["y", "x"]).unwrap();
        assert!(std::sync::Arc::ptr_eq(
            p.shared_column(0),
            t.shared_column(1)
        ));
        assert!(std::sync::Arc::ptr_eq(
            p.shared_column(1),
            t.shared_column(0)
        ));
    }

    #[test]
    fn top_n_truncates_and_handles_overflow() {
        let cx = OpCtx::default();
        assert_eq!(top_n(&t(), 2, &cx).n_rows(), 2);
        assert_eq!(top_n(&t(), 99, &cx).n_rows(), 5);
        assert_eq!(top_n(&t(), 0, &cx).n_rows(), 0);
    }

    #[test]
    fn rename_changes_schema_only() {
        let r = rename(&t(), &["x", "y"]).unwrap();
        assert_eq!(r.schema().column(0).name, "x");
        assert_eq!(r.get(1, 1), Value::Int(10));
        assert!(
            rename(&t(), &["x", "x"]).is_err(),
            "duplicate names rejected"
        );
    }
}
