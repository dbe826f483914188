//! # graql-testkit
//!
//! Deterministic chaos-testing toolkit for the workspace (see TESTING.md):
//!
//! - [`gen`] — a seeded generator of valid relational GraQL scripts over
//!   the paper's Berlin (BSBM) schema, for differential testing.
//! - [`refeval`] — a naive, row-at-a-time reference evaluator for
//!   table-sourced selects that mirrors the engine's documented semantics
//!   (`crates/core/src/exec/relational.rs`) without sharing any of its
//!   kernel code.
//! - [`naive`] — O(n²) reference implementations of the Table-1 kernels
//!   (`filter`/`join`/`group`/`sort`/`distinct`/`top`), the oracles for
//!   the table-op property tests.
//! - [`oracle`] — the differential runner: renders session outputs in the
//!   `gems-shell` wire format and writes divergence artifacts when two
//!   evaluation paths disagree.
//! - [`faults`] — the curated fault matrix over every `failpoint!` site.
//!   Tests arm a matrix case on the fault handle of the object under test
//!   (`Server::faults`, `RemoteSession::faults`), so no lock is needed:
//!   a fault cannot reach an object it was not armed on.
//!
//! This crate hard-enables the `failpoints` feature on `graql-net` and
//! `graql-core`; depending on it from dev-dependencies is what arms the
//! workspace's test builds (feature unification) while release builds
//! stay failpoint-free.

pub mod faults;
pub mod gen;
pub mod naive;
pub mod oracle;
pub mod refeval;

pub use faults::{FaultCase, FAULT_MATRIX};
pub use gen::{ScriptGen, TestRng};
pub use oracle::{render_outcome, render_outputs, write_divergence};
pub use refeval::reference_outputs;
