//! Relational kernels backing the paper's Table 1.
//!
//! | Table 1 op | kernel |
//! |---|---|
//! | select (selection) | [`filter::filter`] |
//! | select (projection) | [`project`] |
//! | order by | [`sort::sort`] |
//! | group by / count / avg / min / max / sum | [`group::group_aggregate`] |
//! | distinct | [`distinct::distinct`] |
//! | top n | [`top_n`] |
//! | as x | aliasing is handled at the schema level ([`rename`]) |
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
pub mod sort;

pub use distinct::{distinct, distinct_indices};
pub use filter::{filter, filter_indices};
pub use group::{group_aggregate, group_indices, AggFn, AggSpec};
pub use join::hash_join_pairs;
pub use sort::{sort, sort_indices, SortKey};

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
