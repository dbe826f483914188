//! The metadata catalog (paper §III: "a central metadata repository
//! (catalog) of all existing database objects (tables, vertices, edges)").
//!
//! The catalog holds *definitions only* — schemas and declaration ASTs —
//! so static analysis (§III-A) can run without touching data. Instance
//! counts and degree statistics live in [`CatalogStats`], filled when the
//! graph views are built.

use graql_graph::Graph;
use graql_parser::ast;
use graql_table::TableSchema;
use graql_types::{GraqlError, Result};
use rustc_hash::FxHashMap;

/// Declaration of a vertex type (Eq. 1 ingredients).
#[derive(Debug, Clone, PartialEq)]
pub struct VertexDef {
    pub name: String,
    pub table: String,
    pub key: Vec<String>,
    pub where_clause: Option<ast::Expr>,
}

/// Declaration of an edge type (Eq. 2 ingredients).
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeDef {
    pub name: String,
    pub src_type: String,
    pub src_alias: Option<String>,
    pub tgt_type: String,
    pub tgt_alias: Option<String>,
    pub from_tables: Vec<String>,
    pub where_clause: Option<ast::Expr>,
}

/// Kind of a named database entity, for §III-A "entity of correct type"
/// diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntityKind {
    Table,
    VertexType,
    EdgeType,
    /// A named result registered by `into table`.
    ResultTable,
    /// A named result registered by `into subgraph`.
    ResultSubgraph,
}

impl std::fmt::Display for EntityKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EntityKind::Table => "table",
            EntityKind::VertexType => "vertex type",
            EntityKind::EdgeType => "edge type",
            EntityKind::ResultTable => "result table",
            EntityKind::ResultSubgraph => "result subgraph",
        };
        write!(f, "{s}")
    }
}

/// The DDL-defined sections of the catalog: base tables and vertex/edge
/// type declarations. Kept behind an `Arc` inside [`Catalog`] so cloning
/// a catalog (the MVCC server snapshots the database per write script)
/// is a reference bump; only DDL — rare by construction — pays the
/// copy-on-write.
#[derive(Debug, Clone, Default)]
struct CatalogBase {
    tables: FxHashMap<String, TableSchema>,
    table_order: Vec<String>,
    vertices: FxHashMap<String, VertexDef>,
    vertex_order: Vec<String>,
    edges: FxHashMap<String, EdgeDef>,
    edge_order: Vec<String>,
}

/// The front-end metadata catalog.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    /// Copy-on-write DDL sections (see [`CatalogBase`]).
    base: std::sync::Arc<CatalogBase>,
    /// Schemas of named `into table` results (registered as statements are
    /// analyzed/executed, so later statements can be checked). Directly
    /// owned: result registration happens on the query hot path, where a
    /// deep catalog copy would dominate the statement's own cost.
    result_tables: FxHashMap<String, TableSchema>,
    /// Names of registered `into subgraph` results.
    result_subgraphs: FxHashMap<String, ()>,
    /// Vertex types whose current graph views map several source rows to
    /// one vertex (only their key columns are single-valued). A fact of
    /// the data, recorded whenever the views are built and forgotten when
    /// they go stale; `None` for a catalog that has not seen the data or
    /// has no such type. Shared, so a catalog clone does not copy it.
    many_to_one: Option<std::sync::Arc<[String]>>,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// What kind of entity `name` denotes, if any.
    pub fn kind_of(&self, name: &str) -> Option<EntityKind> {
        if self.base.tables.contains_key(name) {
            Some(EntityKind::Table)
        } else if self.base.vertices.contains_key(name) {
            Some(EntityKind::VertexType)
        } else if self.base.edges.contains_key(name) {
            Some(EntityKind::EdgeType)
        } else if self.result_tables.contains_key(name) {
            Some(EntityKind::ResultTable)
        } else if self.result_subgraphs.contains_key(name) {
            Some(EntityKind::ResultSubgraph)
        } else {
            None
        }
    }

    fn check_fresh(&self, name: &str) -> Result<()> {
        if let Some(kind) = self.kind_of(name) {
            return Err(GraqlError::name(format!(
                "'{name}' already exists as a {kind}"
            )));
        }
        Ok(())
    }

    // -- tables --------------------------------------------------------------

    pub fn add_table(&mut self, name: &str, schema: TableSchema) -> Result<()> {
        self.check_fresh(name)?;
        let base = std::sync::Arc::make_mut(&mut self.base);
        base.tables.insert(name.to_string(), schema);
        base.table_order.push(name.to_string());
        Ok(())
    }

    /// Schema of a base table (not results).
    pub fn table(&self, name: &str) -> Option<&TableSchema> {
        self.base.tables.get(name)
    }

    /// Schema of a base table *or* a named result table — what a
    /// `from table X` reference may denote.
    pub fn any_table(&self, name: &str) -> Option<&TableSchema> {
        self.base
            .tables
            .get(name)
            .or_else(|| self.result_tables.get(name))
    }

    pub fn require_any_table(&self, name: &str) -> Result<&TableSchema> {
        self.any_table(name)
            .ok_or_else(|| match self.kind_of(name) {
                Some(kind) => GraqlError::type_error(format!("'{name}' is a {kind}, not a table")),
                None => GraqlError::name(format!("unknown table '{name}'")),
            })
    }

    pub fn table_names(&self) -> &[String] {
        &self.base.table_order
    }

    // -- vertex / edge types ---------------------------------------------------

    pub fn add_vertex(&mut self, def: VertexDef) -> Result<()> {
        self.check_fresh(&def.name)?;
        let base = std::sync::Arc::make_mut(&mut self.base);
        base.vertex_order.push(def.name.clone());
        base.vertices.insert(def.name.clone(), def);
        Ok(())
    }

    pub fn vertex(&self, name: &str) -> Option<&VertexDef> {
        self.base.vertices.get(name)
    }

    pub fn require_vertex(&self, name: &str) -> Result<&VertexDef> {
        self.vertex(name).ok_or_else(|| match self.kind_of(name) {
            Some(kind) => {
                GraqlError::type_error(format!("'{name}' is a {kind}, not a vertex type"))
            }
            None => GraqlError::name(format!("unknown vertex type '{name}'")),
        })
    }

    pub fn vertex_names(&self) -> &[String] {
        &self.base.vertex_order
    }

    /// Position of a vertex type in declaration order: its `VTypeId` in
    /// graph views built from this catalog.
    pub fn vertex_index(&self, name: &str) -> Option<usize> {
        self.base.vertex_order.iter().position(|n| n == name)
    }

    /// Records which vertex types the current graph views build as
    /// many-to-one (see the field).
    pub fn set_many_to_one(&mut self, names: Vec<String>) {
        self.many_to_one = (!names.is_empty()).then(|| names.into());
    }

    pub fn is_many_to_one(&self, vertex: &str) -> bool {
        let names = self.many_to_one.as_deref().unwrap_or_default();
        names.iter().any(|n| n == vertex)
    }

    pub fn add_edge(&mut self, def: EdgeDef) -> Result<()> {
        self.check_fresh(&def.name)?;
        let base = std::sync::Arc::make_mut(&mut self.base);
        base.edge_order.push(def.name.clone());
        base.edges.insert(def.name.clone(), def);
        Ok(())
    }

    pub fn edge(&self, name: &str) -> Option<&EdgeDef> {
        self.base.edges.get(name)
    }

    pub fn require_edge(&self, name: &str) -> Result<&EdgeDef> {
        self.edge(name).ok_or_else(|| match self.kind_of(name) {
            Some(kind) => GraqlError::type_error(format!("'{name}' is a {kind}, not an edge type")),
            None => GraqlError::name(format!("unknown edge type '{name}'")),
        })
    }

    pub fn edge_names(&self) -> &[String] {
        &self.base.edge_order
    }

    /// Position of an edge type in declaration order: its `ETypeId` in
    /// graph views built from this catalog.
    pub fn edge_index(&self, name: &str) -> Option<usize> {
        self.base.edge_order.iter().position(|n| n == name)
    }

    /// The associated table an edge type's attributes come from, if it has
    /// exactly one: its `from` tables plus any base table its `where`
    /// clause names that is neither endpoint (the Fig. 3 `feature` case) —
    /// the rule `build_edge_set` applies to the data.
    pub fn assoc_table<'a>(&self, def: &'a EdgeDef) -> Option<&'a str> {
        let table = |t: &str| self.vertex(t).map(|v| v.table.as_str());
        let (st, tt) = (table(&def.src_type), table(&def.tgt_type));
        let endpoint = |q: &str| {
            q == def.src_alias.as_deref().unwrap_or(&def.src_type)
                || q == def.tgt_alias.as_deref().unwrap_or(&def.tgt_type)
                || (st != tt && (Some(q) == st || Some(q) == tt))
        };
        let mut assoc: Vec<&str> = def.from_tables.iter().map(String::as_str).collect();
        if let Some(w) = &def.where_clause {
            w.for_each_attr(&mut |q, _| {
                if let Some(q) = q.as_deref() {
                    if !endpoint(q) && !assoc.contains(&q) && self.table(q).is_some() {
                        assoc.push(q);
                    }
                }
            });
        }
        match assoc[..] {
            [t] => Some(t),
            _ => None,
        }
    }

    // -- named results ----------------------------------------------------------

    /// Registers (or replaces) a named `into table` result schema.
    /// Re-registration under the same result name is allowed (re-running a
    /// query), but shadowing a base table is not.
    pub fn add_result_table(&mut self, name: &str, schema: TableSchema) -> Result<()> {
        match self.kind_of(name) {
            None | Some(EntityKind::ResultTable) => {
                self.result_tables.insert(name.to_string(), schema);
                Ok(())
            }
            Some(kind) => Err(GraqlError::name(format!(
                "'{name}' already exists as a {kind}"
            ))),
        }
    }

    pub fn add_result_subgraph(&mut self, name: &str) -> Result<()> {
        match self.kind_of(name) {
            None | Some(EntityKind::ResultSubgraph) => {
                self.result_subgraphs.insert(name.to_string(), ());
                Ok(())
            }
            Some(kind) => Err(GraqlError::name(format!(
                "'{name}' already exists as a {kind}"
            ))),
        }
    }

    pub fn has_result_subgraph(&self, name: &str) -> bool {
        self.result_subgraphs.contains_key(name)
    }
}

// ---------------------------------------------------------------------------
// Catalog statistics store
// ---------------------------------------------------------------------------

/// Statistics for one base table: row count and per-column NDV (number of
/// distinct values), in schema column order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableCard {
    pub rows: u64,
    /// `(column name, distinct value count)` per column. Nulls count as
    /// one distinct value, matching the selectivity model's use.
    pub columns: Vec<(String, u64)>,
}

impl TableCard {
    /// NDV of a column by name.
    pub fn ndv(&self, column: &str) -> Option<u64> {
        self.columns
            .iter()
            .find(|(n, _)| n == column)
            .map(|&(_, n)| n)
    }
}

/// Statistics for one vertex type.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VertexCard {
    pub count: u64,
}

/// Statistics for one edge type: instance count, mean/max degrees and
/// log₂ degree histograms in both directions ("statistical properties of
/// the degree distribution of a vertex type with respect to an edge
/// type" — §III-B).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdgeCard {
    pub count: u64,
    pub mean_out_degree: f64,
    pub mean_in_degree: f64,
    pub max_out_degree: u64,
    pub max_in_degree: u64,
    /// `out_degree_histogram[b]` = number of source vertices whose
    /// out-degree `d` has `degree_bucket(d) == b`: bucket 0 holds degree
    /// 0, bucket `⌊log₂ d⌋ + 1` degree `d ≥ 1` (0, 1, 2–3, 4–7, …).
    pub out_degree_histogram: Vec<u64>,
    /// Same for in-degrees over target vertices.
    pub in_degree_histogram: Vec<u64>,
}

/// Log₂ bucket index of a degree (0 → 0; d ≥ 1 → ⌊log₂ d⌋ + 1).
fn degree_bucket(d: usize) -> usize {
    (usize::BITS - d.leading_zeros()) as usize
}

fn histogram(degrees: impl Iterator<Item = usize>) -> Vec<u64> {
    let mut h = Vec::new();
    for d in degrees {
        let b = degree_bucket(d);
        if b >= h.len() {
            h.resize(b + 1, 0);
        }
        h[b] += 1;
    }
    h
}

/// The persistent catalog statistics store (paper §III-B): per-type
/// cardinalities, edge-degree histograms and attribute NDV, keyed by
/// entity *name*. One source of truth shared by the path-cost lints
/// (`W0301`/`H0202`), the dataflow analyzer's cost annotation, `explain`
/// estimates and (eventually) the cost-based planner.
///
/// Populated incrementally: the table section refreshes at ingest, the
/// vertex/edge sections are filled from the graph views as they are built
/// ([`CatalogStats::fill_graph`]; [`CatalogStats::graph_complete`] says
/// whether they have been). Snapshot-persisted by `persist::save_dir`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CatalogStats {
    /// Per-card `Arc`s keep cloning the whole store cheap: the MVCC
    /// server copy-on-writes it on every `into`-registering statement,
    /// and the NDV/histogram payloads are the expensive part.
    pub tables: FxHashMap<String, std::sync::Arc<TableCard>>,
    pub vertices: FxHashMap<String, std::sync::Arc<VertexCard>>,
    pub edges: FxHashMap<String, std::sync::Arc<EdgeCard>>,
    /// True once the vertex/edge sections reflect a built graph.
    pub graph_complete: bool,
}

impl CatalogStats {
    /// Computes the table section entry for one table: row count plus an
    /// NDV per column (exact, via value hashing — cheap at ingest scale).
    pub fn table_card(table: &graql_table::Table) -> TableCard {
        use std::hash::{Hash, Hasher};
        let schema = table.schema();
        let mut columns = Vec::with_capacity(schema.columns().len());
        for (ci, col) in schema.columns().iter().enumerate() {
            let mut seen = rustc_hash::FxHashSet::default();
            for ri in 0..table.n_rows() {
                let mut h = rustc_hash::FxHasher::default();
                table.get(ri, ci).hash(&mut h);
                seen.insert(h.finish());
            }
            columns.push((col.name.clone(), seen.len() as u64));
        }
        TableCard {
            rows: table.n_rows() as u64,
            columns,
        }
    }

    /// Fills the vertex and edge sections from graph views just built
    /// from the catalog, and marks them complete: instance counts, mean
    /// and max degrees, and degree histograms in both directions.
    pub fn fill_graph(&mut self, g: &Graph) {
        self.vertices = g
            .vtype_ids()
            .map(|vt| {
                let vs = g.vset(vt);
                let card = VertexCard {
                    count: vs.len() as u64,
                };
                (vs.name.clone(), std::sync::Arc::new(card))
            })
            .collect();
        self.edges = g
            .etype_ids()
            .map(|et| {
                let (es, idx) = (g.eset(et), g.edge_index(et));
                let n_src = g.vset(es.src_type).len();
                let n_tgt = g.vset(es.tgt_type).len();
                let mean = |n: usize| match n {
                    0 => 0.0,
                    n => es.len() as f64 / n as f64,
                };
                let card = EdgeCard {
                    count: es.len() as u64,
                    mean_out_degree: mean(n_src),
                    mean_in_degree: mean(n_tgt),
                    max_out_degree: idx.fwd.max_degree() as u64,
                    max_in_degree: idx.rev.max_degree() as u64,
                    out_degree_histogram: histogram((0..n_src as u32).map(|v| idx.fwd.degree(v))),
                    in_degree_histogram: histogram((0..n_tgt as u32).map(|v| idx.rev.degree(v))),
                };
                (es.name.clone(), std::sync::Arc::new(card))
            })
            .collect();
        self.graph_complete = true;
    }

    /// Mean (out, in) degree of an edge type, the fanout fact behind the
    /// `W0301`/`H0202` lints.
    pub fn mean_degrees(&self, edge: &str) -> Option<(f64, f64)> {
        self.edges
            .get(edge)
            .map(|e| (e.mean_out_degree, e.mean_in_degree))
    }

    /// Instance count of a vertex type.
    pub fn vertex_count(&self, vtype: &str) -> Option<u64> {
        self.vertices.get(vtype).map(|v| v.count)
    }

    /// Serializes the store as a line-oriented text file (the snapshot
    /// format; see `persist`). Entries are emitted in sorted-name order so
    /// the bytes — and the snapshot manifest checksum — are deterministic.
    pub fn to_text(&self) -> String {
        fn join(h: &[u64]) -> String {
            h.iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(",")
        }
        let mut out = String::from("# graql catalog statistics v1\n");
        out.push_str(&format!("graph_complete {}\n", self.graph_complete));
        let mut tables: Vec<_> = self.tables.iter().collect();
        tables.sort_by(|a, b| a.0.cmp(b.0));
        for (name, t) in tables {
            out.push_str(&format!("table {name} rows={}\n", t.rows));
            for (col, ndv) in &t.columns {
                out.push_str(&format!("col {name} {col} ndv={ndv}\n"));
            }
        }
        let mut vertices: Vec<_> = self.vertices.iter().collect();
        vertices.sort_by(|a, b| a.0.cmp(b.0));
        for (name, v) in vertices {
            out.push_str(&format!("vertex {name} count={}\n", v.count));
        }
        let mut edges: Vec<_> = self.edges.iter().collect();
        edges.sort_by(|a, b| a.0.cmp(b.0));
        for (name, e) in edges {
            out.push_str(&format!(
                "edge {name} count={} mean_out={:?} mean_in={:?} max_out={} max_in={} \
                 out_hist={} in_hist={}\n",
                e.count,
                e.mean_out_degree,
                e.mean_in_degree,
                e.max_out_degree,
                e.max_in_degree,
                join(&e.out_degree_histogram),
                join(&e.in_degree_histogram),
            ));
        }
        out
    }

    /// Parses the [`CatalogStats::to_text`] format. Unknown directives
    /// are rejected — a corrupt statistics file must not load silently.
    pub fn parse(text: &str) -> Result<CatalogStats> {
        fn kv<'a>(tok: &'a str, key: &str) -> Result<&'a str> {
            tok.strip_prefix(key)
                .and_then(|t| t.strip_prefix('='))
                .ok_or_else(|| GraqlError::ingest(format!("stats: expected {key}=…, got {tok:?}")))
        }
        fn num<T: std::str::FromStr>(s: &str) -> Result<T> {
            s.parse()
                .map_err(|_| GraqlError::ingest(format!("stats: bad number {s:?}")))
        }
        fn hist(s: &str) -> Result<Vec<u64>> {
            if s.is_empty() {
                return Ok(Vec::new());
            }
            s.split(',').map(num::<u64>).collect()
        }
        let mut stats = CatalogStats::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let toks: Vec<&str> = line.split_whitespace().collect();
            match toks.as_slice() {
                ["graph_complete", flag] => stats.graph_complete = *flag == "true",
                ["table", name, rows] => {
                    std::sync::Arc::make_mut(stats.tables.entry(name.to_string()).or_default())
                        .rows = num(kv(rows, "rows")?)?;
                }
                ["col", table, col, ndv] => {
                    std::sync::Arc::make_mut(stats.tables.entry(table.to_string()).or_default())
                        .columns
                        .push((col.to_string(), num(kv(ndv, "ndv")?)?));
                }
                ["vertex", name, count] => {
                    stats.vertices.insert(
                        name.to_string(),
                        std::sync::Arc::new(VertexCard {
                            count: num(kv(count, "count")?)?,
                        }),
                    );
                }
                ["edge", name, count, mean_out, mean_in, max_out, max_in, out_hist, in_hist] => {
                    stats.edges.insert(
                        name.to_string(),
                        std::sync::Arc::new(EdgeCard {
                            count: num(kv(count, "count")?)?,
                            mean_out_degree: num(kv(mean_out, "mean_out")?)?,
                            mean_in_degree: num(kv(mean_in, "mean_in")?)?,
                            max_out_degree: num(kv(max_out, "max_out")?)?,
                            max_in_degree: num(kv(max_in, "max_in")?)?,
                            out_degree_histogram: hist(kv(out_hist, "out_hist")?)?,
                            in_degree_histogram: hist(kv(in_hist, "in_hist")?)?,
                        }),
                    );
                }
                _ => {
                    return Err(GraqlError::ingest(format!(
                        "stats: unrecognized line {line:?}"
                    )))
                }
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graql_types::DataType;

    fn schema() -> TableSchema {
        TableSchema::of(&[("id", DataType::Varchar(10))])
    }

    #[test]
    fn entity_kinds_share_a_namespace() {
        let mut c = Catalog::new();
        c.add_table("Products", schema()).unwrap();
        c.add_vertex(VertexDef {
            name: "ProductVtx".into(),
            table: "Products".into(),
            key: vec!["id".into()],
            where_clause: None,
        })
        .unwrap();
        assert_eq!(c.kind_of("Products"), Some(EntityKind::Table));
        assert_eq!(c.kind_of("ProductVtx"), Some(EntityKind::VertexType));
        // A vertex type may not reuse a table name and vice versa.
        assert!(c.add_table("ProductVtx", schema()).is_err());
        assert!(c
            .add_vertex(VertexDef {
                name: "Products".into(),
                table: "Products".into(),
                key: vec!["id".into()],
                where_clause: None,
            })
            .is_err());
    }

    #[test]
    fn wrong_kind_errors_mention_actual_kind() {
        let mut c = Catalog::new();
        c.add_table("T", schema()).unwrap();
        let err = c.require_vertex("T").unwrap_err();
        assert!(err.to_string().contains("is a table"), "{err}");
        let err = c.require_any_table("nope").unwrap_err();
        assert!(matches!(err, GraqlError::Name(_)));
    }

    #[test]
    fn result_tables_are_visible_as_tables() {
        let mut c = Catalog::new();
        c.add_result_table("T1", schema()).unwrap();
        assert!(c.any_table("T1").is_some());
        assert!(c.table("T1").is_none(), "results are not base tables");
        // Re-registration is fine (query re-run)…
        c.add_result_table("T1", schema()).unwrap();
        // …but shadowing a base table is not.
        c.add_table("Base", schema()).unwrap();
        assert!(c.add_result_table("Base", schema()).is_err());
    }

    #[test]
    fn degree_statistics() {
        use graql_graph::{EdgeSet, VertexSet};
        use graql_table::Table;
        use graql_types::Value;
        let mut g = Graph::new();
        let schema = TableSchema::of(&[("id", DataType::Integer)]);
        let t = Table::from_rows(schema, (0..4i64).map(|i| vec![Value::Int(i)])).unwrap();
        let a = g
            .add_vertex_type(VertexSet::build("A", "t", &t, vec![0], None).unwrap())
            .unwrap();
        // 0 has out-degree 3; 1 has in-degree 2.
        let pairs = vec![(0, 1), (0, 2), (0, 3), (2, 1)];
        g.add_edge_type(EdgeSet::from_pairs("e", a, a, pairs))
            .unwrap();
        let mut stats = CatalogStats::default();
        stats.fill_graph(&g);
        assert!(stats.graph_complete);
        assert_eq!(stats.vertex_count("A"), Some(4));
        let es = &stats.edges["e"];
        assert_eq!(es.count, 4);
        assert_eq!((es.max_out_degree, es.max_in_degree), (3, 2));
        assert_eq!(stats.mean_degrees("e"), Some((1.0, 1.0)));
        // Out-degrees: [3, 0, 1, 0] → buckets: 0→{1,3}, 1→{2}, 2 (2–3)→{0}.
        assert_eq!(es.out_degree_histogram, vec![2, 1, 1]);
        // In-degrees: [0, 2, 1, 1] → 0→{0}, 1→{2,3}, 2→{1}.
        assert_eq!(es.in_degree_histogram, vec![1, 2, 1]);
    }

    #[test]
    fn degree_buckets() {
        let buckets: Vec<usize> = [0, 1, 2, 3, 4, 7, 8].map(degree_bucket).to_vec();
        assert_eq!(buckets, vec![0, 1, 2, 2, 3, 3, 4]);
    }

    #[test]
    fn empty_graph_fills_empty_sections() {
        let mut stats = CatalogStats::default();
        stats.fill_graph(&Graph::new());
        assert!(stats.graph_complete && stats.vertices.is_empty() && stats.edges.is_empty());
    }

    #[test]
    fn result_subgraphs_tracked() {
        let mut c = Catalog::new();
        c.add_result_subgraph("resQ1").unwrap();
        assert!(c.has_result_subgraph("resQ1"));
        assert_eq!(c.kind_of("resQ1"), Some(EntityKind::ResultSubgraph));
        assert!(c.add_table("resQ1", schema()).is_err());
    }
}
