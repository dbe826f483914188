//! # graql-graph
//!
//! Graph views over tabular data — design principle 2 of the paper:
//! *graph elements (vertices & edges) are represented as views over
//! tables*.
//!
//! * [`VertexSet`]: a vertex type built per Eq. 1 — selection, projection
//!   onto key columns, distinct. One-to-one mappings keep a row
//!   back-pointer per vertex; many-to-one mappings keep the contributing
//!   row group.
//! * [`EdgeSet`]: an edge type — `(src, tgt)` instance pairs plus an
//!   optional associated-table row per edge for edge attributes (Eq. 2).
//! * [`EdgeIndex`]: CSR adjacency in the declared direction **and** its
//!   reverse (paper §III-B: "we not only create an edge index in the
//!   lexical direction … but also in the reverse direction"), the
//!   planner's licence to traverse either way.
//! * [`Graph`]: the overall multigraph `G = (V, E)` whose vertex types
//!   partition V and edge types partition E (§II-A1).
//! * [`Subgraph`]: a selection of vertices and edges per type — the result
//!   form of `into subgraph` (§II-C).

//! ```
//! use graql_graph::{EdgeSet, Graph, VertexSet};
//! use graql_table::{Table, TableSchema};
//! use graql_types::{DataType, Value};
//!
//! // A People table viewed as a vertex type plus a "knows" edge type.
//! let people = Table::from_rows(
//!     TableSchema::of(&[("id", DataType::Integer)]),
//!     (0..3i64).map(|i| vec![Value::Int(i)]),
//! ).unwrap();
//! let mut g = Graph::new();
//! let person = g
//!     .add_vertex_type(VertexSet::build("Person", "People", &people, vec![0], None).unwrap())
//!     .unwrap();
//! g.add_edge_type(EdgeSet::from_pairs("knows", person, person, [(0, 1), (1, 2)])).unwrap();
//!
//! // The bidirectional index supports both traversal directions (§III-B).
//! let knows = g.etype("knows").unwrap();
//! assert_eq!(g.edge_index(knows).fwd.neighbors(0), &[1]);
//! assert_eq!(g.edge_index(knows).rev.neighbors(2), &[1]);
//! ```

pub mod csr;
pub mod edge_set;
pub mod graph;
pub mod subgraph;
pub mod vertex_set;

pub use csr::{Csr, EdgeIndex};
pub use edge_set::EdgeSet;
pub use graph::{ETypeId, Graph, VTypeId};
pub use subgraph::Subgraph;
pub use vertex_set::{Mapping, VertexSet};
