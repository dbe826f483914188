//! # graql-types
//!
//! Foundation crate for the GraQL / GEMS reproduction: scalar data types,
//! runtime values, calendar dates, error types and a string interner.
//!
//! GraQL is strongly typed (paper §I, design principle 3): every table
//! column, vertex attribute and edge attribute carries a [`DataType`], and
//! all comparisons are type-checked before execution. The [`Value`] enum is
//! the runtime representation shared by the table store, the graph views and
//! the query engine.
//!
//! ```
//! use graql_types::{CmpOp, DataType, Date, Value};
//!
//! // Strong typing: only the numeric family is cross-comparable.
//! assert!(DataType::Integer.comparable_with(DataType::Float));
//! assert!(!DataType::Date.comparable_with(DataType::Float));
//!
//! // CSV fields parse according to the declared column type.
//! let v = DataType::Date.parse_value("2008-06-20").unwrap();
//! assert_eq!(v, Value::Date(Date::from_ymd(2008, 6, 20).unwrap()));
//!
//! // Comparisons use SQL null semantics.
//! assert!(CmpOp::Lt.eval(&Value::Int(1), &Value::Float(1.5)));
//! assert!(!CmpOp::Eq.eval(&Value::Null, &Value::Null));
//! ```

pub mod codec;
pub mod date;
pub mod diag;
pub mod error;
pub mod failpoints;
pub mod guard;
pub mod obs;
pub mod symbol;
pub mod value;

pub use date::Date;
pub use diag::{codes, Diagnostic, Diagnostics, Severity, Span};
pub use error::{GraqlError, NetError, Result};
pub use guard::{QueryBudget, QueryGuard};
pub use obs::{
    MetricsRegistry, PlanCacheMetrics, ProfileReport, QueryOutcome, QueryProfile, Stage, WalMetrics,
};
pub use symbol::{Interner, Symbol};
pub use value::{CmpOp, DataType, Value};
