//! # GraQL
//!
//! A query language and embedded database engine for **high-performance
//! attributed graph databases** — a from-scratch Rust reproduction of
//! *"GraQL: A Query Language for High-Performance Attributed Graph
//! Databases"* (Chavarría-Miranda et al., PNNL, 2016) and the GEMS system
//! design it targets.
//!
//! ## The model in one paragraph
//!
//! All data lives in strongly typed columnar **tables**. **Vertex types**
//! are views over tables (select + project onto key columns + distinct);
//! **edge types** are joins between vertex views and optional associated
//! tables. Queries combine **graph pattern matching** — paths with
//! per-step attribute conditions, `def`/`foreach` labels, variant `[ ]`
//! steps, path regular expressions, and `and`/`or` multi-path composition
//! — with standard **relational operations** over tables, and results
//! round-trip between subgraphs and tables.
//!
//! ## Quickstart
//!
//! ```
//! use graql::prelude::*;
//!
//! let mut db = Database::new();
//! db.execute_script("
//!     create table Cities(id varchar(10), country varchar(4), pop integer)
//!     create table Roads(src varchar(10), dst varchar(10), km integer)
//!     create vertex City(id) from table Cities
//!     create edge road with vertices (City as A, City as B)
//!         from table Roads
//!         where Roads.src = A.id and Roads.dst = B.id
//! ").unwrap();
//! db.ingest_str("Cities", "rom,IT,2800000\nmil,IT,1400000\npar,FR,2100000\n").unwrap();
//! db.ingest_str("Roads", "rom,mil,580\nmil,par,850\n").unwrap();
//!
//! let out = db.execute_str(
//!     "select B.id from graph City(id = 'rom') --road--> def B: City()",
//! ).unwrap();
//! let StmtOutput::Table(t) = out else { panic!() };
//! assert_eq!(t.get(0, 0), Value::str("mil"));
//! ```
//!
//! ## Crate map
//!
//! | Layer | Crate |
//! |---|---|
//! | values, dates, errors | [`types`] (graql-types) |
//! | columnar tables, CSV, relational kernels | [`table`] (graql-table) |
//! | lexer, AST, parser, printer | [`parser`] (graql-parser) |
//! | graph views, CSR edge indexes, subgraphs | [`graph`] (graql-graph) |
//! | catalog, analysis, IR, planner, executor, [`Database`] | [`core`] (graql-core) |
//! | framed TCP wire protocol, networked server + remote client | [`net`] (graql-net) |
//! | Berlin benchmark generator + query corpus | [`bsbm`] (graql-bsbm) |
//! | §III communication profile of a path query on a hash-partitioned backend | [`cluster`] (this crate) |

pub mod cluster;

pub use graql_bsbm as bsbm;
pub use graql_core as core;
pub use graql_graph as graph;
pub use graql_net as net;
pub use graql_parser as parser;
pub use graql_table as table;
pub use graql_types as types;

pub use graql_core::{Database, ExecConfig, PlanMode, QueryOutput, StmtOutput};
pub use graql_types::{
    DataType, Date, Diagnostic, Diagnostics, GraqlError, Result, Severity, Span, Value,
};

/// The common imports for applications embedding GraQL.
pub mod prelude {
    pub use crate::{
        DataType, Database, Date, Diagnostics, GraqlError, PlanMode, QueryOutput, Result,
        StmtOutput, Value,
    };
    pub use graql_core::run_script;
}
