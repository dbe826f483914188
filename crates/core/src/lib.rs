//! # graql-core
//!
//! The GraQL front-end and execution engine — the paper's primary
//! contribution, realized on top of the tabular substrate (`graql-table`)
//! and the graph views (`graql-graph`).
//!
//! Pipeline (paper §III):
//!
//! ```text
//! GraQL text ──parse──▶ AST ──static analysis──▶ checked AST
//!          ──compile──▶ binary IR ──▶ (ship to backend) ──▶ plan ──▶ execute
//! ```
//!
//! * [`catalog`] — the metadata repository of tables, vertex and edge
//!   definitions held by the GEMS front-end server.
//! * [`analyze`] — static query analysis (§III-A): one pass over the AST,
//!   pure catalog checks, no data access; in collecting mode it also runs
//!   the [`lint`] rules on each statement.
//! * [`analysis`] — the AST-level analyses it and `explain` share: typed
//!   dataflow over per-binding domains (the predicate analyzer) and
//!   statistics-backed cardinality estimation. They report; they never
//!   change a statement, so the statement that was checked is the one
//!   that runs.
//! * [`ir`] — the "high-level binary intermediate representation" a script
//!   compiles into before moving to the backend.
//! * [`ddl`] — executable semantics of vertex/edge creation (Eq. 1–2),
//!   including the left-deep join construction for multi-table edge
//!   declarations (the Fig. 4 `export` edge).
//! * [`plan`] — dynamic query planning (§III-B): statistics-driven choice
//!   of the enumeration start step and traversal directions over the
//!   bidirectional edge index.
//! * [`exec`] — path-query execution: per-step candidates, semi-join
//!   culling, binding enumeration, labels, multi-path composition, variant
//!   steps, path regexes, and the Table-1 relational statements.
//! * [`database`] — the embedded [`Database`] façade (catalog + storage +
//!   graph + named results); a script runs statement by statement, in
//!   order.

pub mod analysis;
pub mod analyze;
pub mod catalog;
pub mod compile;
pub mod cond;
pub mod database;
pub mod ddl;
pub mod exec;
pub mod ir;
pub mod lint;
pub mod persist;
pub mod plan;
pub mod plancache;
pub mod server;
pub mod wal;

pub use catalog::{Catalog, CatalogStats};
pub use database::{Database, PlanMode, StmtOutput};
pub use exec::results::QueryOutput;
pub use persist::{load_dir, save_dir};
pub use plan::ExecConfig;
pub use plancache::PlanCache;
pub use server::{ReplRole, Role, Server, Session, SessionOutput};
pub use wal::{
    decode_frames, DurabilityOptions, RecoveryReport, ReplBootstrap, ShippedBatch, Wal, WalPayload,
};
