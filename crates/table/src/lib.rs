//! # graql-table
//!
//! The tabular substrate of the GraQL / GEMS reproduction.
//!
//! Design principle 1 of the paper: *all data is stored in tabular form*.
//! This crate provides the in-memory columnar table store that everything
//! else is a view over — typed columns with dictionary-encoded strings and
//! null masks, CSV ingest/output, and the relational kernels behind every
//! operation in the paper's Table 1 (select, order by, group by, distinct,
//! count, avg, min, max, sum, top n, as), the morsel scheduler they run on
//! ([`morsel`]), and a pairwise hash join ([`ops::hash_join_pairs`]).
//!
//! ```
//! use graql_table::ops::{self, OpCtx};
//! use graql_table::{PhysExpr, Table, TableSchema};
//! use graql_types::{CmpOp, DataType, Value};
//!
//! let schema = TableSchema::of(&[("city", DataType::Varchar(16)), ("pop", DataType::Integer)]);
//! let mut t = Table::empty(schema);
//! graql_table::csv::ingest_str(&mut t, "rome,2800000\nmilan,1400000\nlyon,520000\n").unwrap();
//!
//! // select city from t where pop > 1000000 order by pop desc
//! let cx = OpCtx::default(); // ungoverned, unprofiled, one thread
//! let big = ops::filter(&t, &PhysExpr::cmp_col_const(1, CmpOp::Gt, Value::Int(1_000_000)), &[0, 1], &cx).unwrap();
//! let sorted = ops::sort(&big, &[ops::SortKey::desc(1)], &cx).unwrap();
//! assert_eq!(sorted.get(0, 0), Value::str("rome"));
//! assert_eq!(sorted.n_rows(), 2);
//! ```

pub mod batch;
pub mod bitset;
pub mod column;
pub mod csv;
pub mod expr;
pub mod morsel;
pub mod ops;
pub mod schema;
pub mod table;

pub use batch::{BatchColumn, ColumnBatch};
pub use bitset::BitSet;
pub use column::Column;
pub use expr::PhysExpr;
pub use schema::{ColumnDef, TableSchema};
pub use table::{RowAppender, Table};
