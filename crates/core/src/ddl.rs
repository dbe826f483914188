//! Executable semantics of the data definition language: building vertex
//! sets (Eq. 1) and edge sets (Eq. 2) from their declarations.
//!
//! Edge declarations are the interesting part. The general form joins the
//! source endpoint's rows, any number of associated tables, and the target
//! endpoint's rows under the `where` conditions — a left-deep hash-join
//! pipeline. This covers every paper example:
//!
//! * FK edges (`producer`): source table joined straight to the target,
//! * assoc-table edges (`type` via `ProductTypes`): one edge per row,
//! * the Fig. 4 `export` edge: a four-way join
//!   (Producers ⋈ Products ⋈ Offers ⋈ Vendors) between two many-to-one
//!   country vertex types, deduplicated to distinct country pairs (Fig. 5).

use graql_parser::ast::{Expr, Operand};
use graql_table::ops::filter_indices;
use graql_table::{PhysExpr, Table};
use graql_types::{CmpOp, GraqlError, Result, Value};
use rustc_hash::{FxHashMap, FxHashSet};

use graql_graph::{EdgeSet, Graph, Mapping, VertexSet};

use crate::catalog::{Catalog, EdgeDef, VertexDef};
use crate::cond::{compile_single_table, lit_value, Params};

/// In-memory table storage, keyed by table name.
///
/// Tables are held behind `Arc` so cloning a whole [`Storage`] (the MVCC
/// epoch path: every committed write statement installs a fresh database
/// snapshot) costs one refcount bump per table, not a deep copy. Mutators
/// stage a cloned `Table` and swap a new `Arc` in — readers holding an
/// older epoch keep their version untouched.
pub type Storage = FxHashMap<String, std::sync::Arc<Table>>;

/// Builds a [`VertexSet`] from its declaration (Eq. 1).
pub fn build_vertex_set(def: &VertexDef, storage: &Storage, params: &Params) -> Result<VertexSet> {
    let table = storage
        .get(&def.table)
        .map(|t| t.as_ref())
        .ok_or_else(|| GraqlError::name(format!("unknown table '{}'", def.table)))?;
    let key_cols = def
        .key
        .iter()
        .map(|k| table.schema().require(k))
        .collect::<Result<Vec<_>>>()?;
    let filter = match &def.where_clause {
        Some(w) => Some(compile_single_table(
            w,
            table.schema(),
            &[def.table.as_str(), def.name.as_str()],
            params,
        )?),
        None => None,
    };
    VertexSet::build(&def.name, &def.table, table, key_cols, filter.as_ref())
}

/// Maps each source-table row to the vertex instance it contributes to
/// (`None` for rows excluded by the vertex's `where` clause).
pub fn vertex_of_row(vset: &VertexSet, n_rows: usize) -> Vec<Option<u32>> {
    let mut out = vec![None; n_rows];
    match &vset.mapping {
        Mapping::OneToOne { rows } => {
            for (v, &r) in rows.iter().enumerate() {
                out[r as usize] = Some(v as u32);
            }
        }
        Mapping::ManyToOne { groups } => {
            for (v, g) in groups.iter().enumerate() {
                for &r in g {
                    out[r as usize] = Some(v as u32);
                }
            }
        }
    }
    out
}

/// One relation participating in the edge-construction join.
struct Rel<'a> {
    /// Names that may qualify this relation's attributes.
    quals: Vec<String>,
    table: &'a Table,
    /// Local filter conjuncts (compiled lazily into one PhysExpr).
    filters: Vec<PhysExpr>,
    /// Candidate rows after local filtering (filled by `finish_filters`).
    rows: Vec<u32>,
}

impl Rel<'_> {
    fn answers_to(&self, q: &str) -> bool {
        self.quals.iter().any(|x| x == q)
    }
}

/// An equi-join condition between two relations.
struct JoinCond {
    rel_a: usize,
    col_a: usize,
    rel_b: usize,
    col_b: usize,
}

/// A residual (non-equi or non-binary) condition evaluated on joined
/// tuples; operands are `(relation, column)` pairs or constants.
enum TupleExpr {
    And(Vec<TupleExpr>),
    Or(Vec<TupleExpr>),
    Not(Box<TupleExpr>),
    Cmp(CmpOp, TupleOperand, TupleOperand),
}

enum TupleOperand {
    Attr(usize, usize),
    Const(Value),
}

impl TupleExpr {
    fn eval(&self, rels: &[Rel<'_>], tuple: &[u32]) -> bool {
        match self {
            TupleExpr::And(xs) => xs.iter().all(|x| x.eval(rels, tuple)),
            TupleExpr::Or(xs) => xs.iter().any(|x| x.eval(rels, tuple)),
            TupleExpr::Not(x) => !x.eval(rels, tuple),
            TupleExpr::Cmp(op, a, b) => {
                let va = a.value(rels, tuple);
                let vb = b.value(rels, tuple);
                op.eval(&va, &vb)
            }
        }
    }
}

impl TupleOperand {
    fn value(&self, rels: &[Rel<'_>], tuple: &[u32]) -> Value {
        match self {
            TupleOperand::Attr(r, c) => rels[*r].table.get(tuple[*r] as usize, *c),
            TupleOperand::Const(v) => v.clone(),
        }
    }
}

/// Builds an [`EdgeSet`] from its declaration (Eq. 2 generalized to any
/// number of associated tables). The endpoint vertex sets must already be
/// registered in `graph`.
pub fn build_edge_set(
    def: &EdgeDef,
    catalog: &Catalog,
    storage: &Storage,
    graph: &Graph,
    params: &Params,
) -> Result<EdgeSet> {
    let src_vt = graph.vtype_or_err(&def.src_type)?;
    let tgt_vt = graph.vtype_or_err(&def.tgt_type)?;
    let src_vset = graph.vset(src_vt);
    let tgt_vset = graph.vset(tgt_vt);
    let src_table = storage
        .get(&src_vset.table)
        .map(|t| t.as_ref())
        .ok_or_else(|| GraqlError::name(format!("unknown table '{}'", src_vset.table)))?;
    let tgt_table = storage
        .get(&tgt_vset.table)
        .map(|t| t.as_ref())
        .ok_or_else(|| GraqlError::name(format!("unknown table '{}'", tgt_vset.table)))?;

    // Relation 0 = source endpoint; 1..=k assoc tables; last = target.
    let mut rels: Vec<Rel<'_>> = Vec::new();
    let src_qual = def
        .src_alias
        .clone()
        .unwrap_or_else(|| def.src_type.clone());
    let tgt_qual = def
        .tgt_alias
        .clone()
        .unwrap_or_else(|| def.tgt_type.clone());
    if src_qual == tgt_qual {
        return Err(GraqlError::name(format!(
            "edge {:?} endpoints are both referred to as {:?}; disambiguate with 'as' aliases",
            def.name, src_qual
        )));
    }
    let mut src_quals = vec![src_qual];
    let mut tgt_quals = vec![tgt_qual];
    // The endpoint's underlying table name is an additional qualifier when
    // unambiguous (not an assoc table and not shared by both endpoints).
    if src_vset.table != tgt_vset.table && !def.from_tables.contains(&src_vset.table) {
        src_quals.push(src_vset.table.clone());
    }
    if src_vset.table != tgt_vset.table && !def.from_tables.contains(&tgt_vset.table) {
        tgt_quals.push(tgt_vset.table.clone());
    }
    rels.push(Rel {
        quals: src_quals,
        table: src_table,
        filters: Vec::new(),
        rows: Vec::new(),
    });
    let mut assoc_rels: Vec<usize> = Vec::new();
    for t in &def.from_tables {
        let table = storage
            .get(t)
            .map(|t| t.as_ref())
            .ok_or_else(|| GraqlError::name(format!("unknown table {t:?}")))?;
        assoc_rels.push(rels.len());
        rels.push(Rel {
            quals: vec![t.clone()],
            table,
            filters: Vec::new(),
            rows: Vec::new(),
        });
    }
    // Classify conditions.
    let mut joins: Vec<JoinCond> = Vec::new();
    let mut residual_exprs: Vec<&Expr> = Vec::new();
    let mut conjuncts: Vec<&Expr> = Vec::new();
    if let Some(w) = &def.where_clause {
        flatten_and(w, &mut conjuncts);
    }

    // First pass: discover implicit assoc tables referenced by qualifier.
    let mut quals_seen: Vec<String> = Vec::new();
    for c in &conjuncts {
        collect_qualifiers(c, &mut quals_seen);
    }
    for q in &quals_seen {
        let known = rels.iter().any(|r| r.answers_to(q)) || tgt_quals.iter().any(|x| x == q);
        if !known {
            if catalog.table(q).is_some() {
                let table = storage
                    .get(q)
                    .map(|t| t.as_ref())
                    .ok_or_else(|| GraqlError::name(format!("unknown table {q:?}")))?;
                assoc_rels.push(rels.len());
                rels.push(Rel {
                    quals: vec![q.clone()],
                    table,
                    filters: Vec::new(),
                    rows: Vec::new(),
                });
            } else {
                return Err(GraqlError::name(format!(
                    "unknown qualifier {q:?} in edge {:?} declaration",
                    def.name
                )));
            }
        }
    }
    // Now append the target relation.
    let tgt_rel = rels.len();
    rels.push(Rel {
        quals: tgt_quals,
        table: tgt_table,
        filters: Vec::new(),
        rows: Vec::new(),
    });

    // Resolve an operand to (rel, col).
    let resolve = |q: &Option<String>, name: &str, rels: &[Rel<'_>]| -> Result<(usize, usize)> {
        match q {
            Some(q) => {
                let r = rels
                    .iter()
                    .position(|rel| rel.answers_to(q))
                    .ok_or_else(|| GraqlError::name(format!("unknown qualifier {q:?}")))?;
                Ok((r, rels[r].table.schema().require(name)?))
            }
            None => {
                // Unqualified attributes resolve only when exactly one
                // relation has the column.
                let hits: Vec<(usize, usize)> = rels
                    .iter()
                    .enumerate()
                    .filter_map(|(i, rel)| rel.table.schema().index_of(name).map(|c| (i, c)))
                    .collect();
                match hits.len() {
                    1 => Ok(hits[0]),
                    0 => Err(GraqlError::name(format!("unknown attribute {name:?}"))),
                    _ => Err(GraqlError::name(format!(
                        "ambiguous attribute {name:?}; qualify it"
                    ))),
                }
            }
        }
    };

    // Second pass: route each conjunct.
    for c in conjuncts {
        let mut rel_ids: FxHashSet<usize> = FxHashSet::default();
        let mut first_err: Option<GraqlError> = None;
        c.for_each_attr(&mut |q, name| match resolve(q, name, &rels) {
            Ok((r, _)) => {
                rel_ids.insert(r);
            }
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        });
        if let Some(e) = first_err {
            return Err(e);
        }
        match (rel_ids.len(), c) {
            (0 | 1, _) if rel_ids.len() <= 1 => {
                // Local filter (or constant condition).
                let r = rel_ids.into_iter().next().unwrap_or(0);
                let quals: Vec<&str> = rels[r].quals.iter().map(String::as_str).collect();
                let phys = compile_single_table(c, rels[r].table.schema(), &quals, params)?;
                rels[r].filters.push(phys);
            }
            (
                2,
                Expr::Cmp {
                    op: CmpOp::Eq,
                    lhs:
                        Operand::Attr {
                            qualifier: ql,
                            name: nl,
                        },
                    rhs:
                        Operand::Attr {
                            qualifier: qr,
                            name: nr,
                        },
                    ..
                },
            ) => {
                let (ra, ca) = resolve(ql, nl, &rels)?;
                let (rb, cb) = resolve(qr, nr, &rels)?;
                // Cross-relation type check.
                let ta = rels[ra].table.schema().column(ca).dtype;
                let tb = rels[rb].table.schema().column(cb).dtype;
                if !ta.comparable_with(tb) {
                    return Err(GraqlError::type_error(format!(
                        "cannot join {ta} with {tb} in edge {:?}",
                        def.name
                    )));
                }
                joins.push(JoinCond {
                    rel_a: ra,
                    col_a: ca,
                    rel_b: rb,
                    col_b: cb,
                });
            }
            _ => residual_exprs.push(c),
        }
    }

    // Compile residuals.
    let residuals: Vec<TupleExpr> = residual_exprs
        .iter()
        .map(|e| compile_tuple_expr(e, &rels, &resolve, params))
        .collect::<Result<_>>()?;

    // Local filtering + endpoint row restriction.
    let src_map = vertex_of_row(src_vset, src_table.n_rows());
    let tgt_map = vertex_of_row(tgt_vset, tgt_table.n_rows());
    for (i, rel) in rels.iter_mut().enumerate() {
        let pred = PhysExpr::And(std::mem::take(&mut rel.filters));
        let mut rows = filter_indices(rel.table, &pred);
        if i == 0 {
            rows.retain(|&r| src_map[r as usize].is_some());
        }
        if i == tgt_rel {
            rows.retain(|&r| tgt_map[r as usize].is_some());
        }
        rel.rows = rows;
    }

    // Left-deep join: start from relation 0, repeatedly attach the
    // relation with the most usable equi-join conditions.
    let n = rels.len();
    let mut joined = vec![false; n];
    joined[0] = true;
    let mut tuples: Vec<Vec<u32>> = rels[0]
        .rows
        .iter()
        .map(|&r| {
            let mut t = vec![u32::MAX; n];
            t[0] = r;
            t
        })
        .collect();
    for _ in 1..n {
        // Pick the unjoined relation with the most join conds to the
        // joined set (0 means cartesian product — legal but last resort).
        let next = (0..n)
            .filter(|&r| !joined[r])
            .max_by_key(|&r| usable_joins(&joins, &joined, r).len())
            .expect("an unjoined relation remains");
        let conds = usable_joins(&joins, &joined, next);
        let probe_rows = &rels[next].rows;
        if conds.is_empty() {
            // Cartesian product.
            let mut out = Vec::with_capacity(tuples.len() * probe_rows.len());
            for t in &tuples {
                for &r in probe_rows {
                    let mut t2 = t.clone();
                    t2[next] = r;
                    out.push(t2);
                }
            }
            tuples = out;
        } else {
            // Hash join: build on existing tuples.
            let mut index: FxHashMap<Vec<Value>, Vec<usize>> = FxHashMap::default();
            'tup: for (ti, t) in tuples.iter().enumerate() {
                let mut key = Vec::with_capacity(conds.len());
                for jc in &conds {
                    let (jr, jcol) = joined_side(jc, next);
                    let v = rels[jr].table.get(t[jr] as usize, jcol);
                    if v.is_null() {
                        continue 'tup;
                    }
                    key.push(v);
                }
                index.entry(key).or_default().push(ti);
            }
            let mut out = Vec::new();
            'probe: for &r in probe_rows {
                let mut key = Vec::with_capacity(conds.len());
                for jc in &conds {
                    let (_, ncol) = new_side(jc, next);
                    let v = rels[next].table.get(r as usize, ncol);
                    if v.is_null() {
                        continue 'probe;
                    }
                    key.push(v);
                }
                if let Some(tis) = index.get(&key) {
                    for &ti in tis {
                        let mut t2 = tuples[ti].clone();
                        t2[next] = r;
                        out.push(t2);
                    }
                }
            }
            tuples = out;
        }
        joined[next] = true;
    }

    // Residual filters.
    tuples.retain(|t| residuals.iter().all(|r| r.eval(&rels, t)));

    // Emit edge instances.
    if assoc_rels.len() == 1 {
        let ar = assoc_rels[0];
        let assoc_name = rels[ar].quals[0].clone();
        let mut seen = FxHashSet::default();
        let mut triples = Vec::new();
        for t in &tuples {
            let s = src_map[t[0] as usize].expect("filtered to mapped rows");
            let g = tgt_map[t[tgt_rel] as usize].expect("filtered to mapped rows");
            let row = t[ar];
            if seen.insert((s, g, row)) {
                triples.push((s, g, row));
            }
        }
        Ok(EdgeSet::from_assoc_rows(
            &def.name, src_vt, tgt_vt, assoc_name, triples,
        ))
    } else {
        let pairs = tuples.iter().map(|t| {
            let s = src_map[t[0] as usize].expect("filtered to mapped rows");
            let g = tgt_map[t[tgt_rel] as usize].expect("filtered to mapped rows");
            (s, g)
        });
        Ok(EdgeSet::from_pairs(&def.name, src_vt, tgt_vt, pairs))
    }
}

fn usable_joins(joins: &[JoinCond], joined: &[bool], next: usize) -> Vec<JoinCond> {
    joins
        .iter()
        .filter(|jc| {
            (jc.rel_a == next && joined[jc.rel_b]) || (jc.rel_b == next && joined[jc.rel_a])
        })
        .map(|jc| JoinCond {
            rel_a: jc.rel_a,
            col_a: jc.col_a,
            rel_b: jc.rel_b,
            col_b: jc.col_b,
        })
        .collect()
}

fn joined_side(jc: &JoinCond, next: usize) -> (usize, usize) {
    if jc.rel_a == next {
        (jc.rel_b, jc.col_b)
    } else {
        (jc.rel_a, jc.col_a)
    }
}

fn new_side(jc: &JoinCond, next: usize) -> (usize, usize) {
    if jc.rel_a == next {
        (jc.rel_a, jc.col_a)
    } else {
        (jc.rel_b, jc.col_b)
    }
}

fn flatten_and<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match e {
        Expr::And(parts) => parts.iter().for_each(|p| flatten_and(p, out)),
        other => out.push(other),
    }
}

fn collect_qualifiers(e: &Expr, out: &mut Vec<String>) {
    e.for_each_attr(&mut |q, _| {
        if let Some(q) = q {
            if !out.iter().any(|x| x == q) {
                out.push(q.clone());
            }
        }
    });
}

/// Resolves `(qualifier, attribute)` to a `(relation, column)` pair.
type ResolveFn<'a> = dyn Fn(&Option<String>, &str, &[Rel<'_>]) -> Result<(usize, usize)> + 'a;

fn compile_tuple_expr(
    e: &Expr,
    rels: &[Rel<'_>],
    resolve: &ResolveFn<'_>,
    params: &Params,
) -> Result<TupleExpr> {
    Ok(match e {
        Expr::And(parts) => TupleExpr::And(
            parts
                .iter()
                .map(|p| compile_tuple_expr(p, rels, resolve, params))
                .collect::<Result<_>>()?,
        ),
        Expr::Or(parts) => TupleExpr::Or(
            parts
                .iter()
                .map(|p| compile_tuple_expr(p, rels, resolve, params))
                .collect::<Result<_>>()?,
        ),
        Expr::Not(inner) => {
            TupleExpr::Not(Box::new(compile_tuple_expr(inner, rels, resolve, params)?))
        }
        Expr::Cmp { op, lhs, rhs, .. } => {
            let comp = |o: &Operand| -> Result<TupleOperand> {
                Ok(match o {
                    Operand::Attr { qualifier, name } => {
                        let (r, c) = resolve(qualifier, name, rels)?;
                        TupleOperand::Attr(r, c)
                    }
                    Operand::Lit(l) => TupleOperand::Const(lit_value(l, params)?),
                })
            };
            TupleExpr::Cmp(*op, comp(lhs)?, comp(rhs)?)
        }
    })
}

/// Builds the whole graph (all vertex types, then all edge types) from the
/// catalog definitions against the current storage — what the paper's
/// ingest step triggers ("data ingest triggers … the generation of
/// associated vertex and edge instances").
pub fn build_graph(catalog: &Catalog, storage: &Storage, params: &Params) -> Result<Graph> {
    let mut graph = Graph::new();
    for name in catalog.vertex_names() {
        let def = catalog.vertex(name).expect("ordered names match the map");
        graph.add_vertex_type(build_vertex_set(def, storage, params)?)?;
    }
    for name in catalog.edge_names() {
        let def = catalog.edge(name).expect("ordered names match the map");
        let eset = build_edge_set(def, catalog, storage, &graph, params)?;
        graph.add_edge_type(eset)?;
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graql_table::TableSchema;
    use graql_types::DataType;

    fn storage_fig5() -> (Catalog, Storage) {
        // Fig. 5: Producers(id, country), Vendors(id, country),
        // Products(id, producer), Offers(id, product, vendor).
        let mut catalog = Catalog::new();
        let mut storage = Storage::default();
        let producers = Table::from_rows(
            TableSchema::of(&[("id", DataType::Integer), ("country", DataType::Varchar(4))]),
            vec![
                vec![Value::Int(1), Value::str("US")],
                vec![Value::Int(2), Value::str("IT")],
                vec![Value::Int(3), Value::str("FR")],
                vec![Value::Int(4), Value::str("US")],
            ],
        )
        .unwrap();
        let vendors = Table::from_rows(
            TableSchema::of(&[("id", DataType::Integer), ("country", DataType::Varchar(4))]),
            vec![
                vec![Value::Int(1), Value::str("CA")],
                vec![Value::Int(2), Value::str("CN")],
                vec![Value::Int(3), Value::str("CA")],
                vec![Value::Int(4), Value::str("CA")],
            ],
        )
        .unwrap();
        let products = Table::from_rows(
            TableSchema::of(&[("id", DataType::Integer), ("producer", DataType::Integer)]),
            vec![
                vec![Value::Int(1), Value::Int(1)],
                vec![Value::Int(2), Value::Int(4)],
                vec![Value::Int(3), Value::Int(2)],
                vec![Value::Int(4), Value::Int(2)],
            ],
        )
        .unwrap();
        let offers = Table::from_rows(
            TableSchema::of(&[
                ("id", DataType::Integer),
                ("product", DataType::Integer),
                ("vendor", DataType::Integer),
            ]),
            vec![
                vec![Value::Int(1), Value::Int(1), Value::Int(1)],
                vec![Value::Int(2), Value::Int(2), Value::Int(4)],
                vec![Value::Int(3), Value::Int(3), Value::Int(2)],
                vec![Value::Int(4), Value::Int(4), Value::Int(2)],
            ],
        )
        .unwrap();
        for (name, t) in [
            ("Producers", producers),
            ("Vendors", vendors),
            ("Products", products),
            ("Offers", offers),
        ] {
            catalog.add_table(name, t.schema().clone()).unwrap();
            storage.insert(name.to_string(), std::sync::Arc::new(t));
        }
        catalog
            .add_vertex(VertexDef {
                name: "ProducerCountry".into(),
                table: "Producers".into(),
                key: vec!["country".into()],
                where_clause: None,
            })
            .unwrap();
        catalog
            .add_vertex(VertexDef {
                name: "VendorCountry".into(),
                table: "Vendors".into(),
                key: vec!["country".into()],
                where_clause: None,
            })
            .unwrap();
        (catalog, storage)
    }

    #[test]
    fn figure_5_export_edge_from_four_way_join() {
        let (mut catalog, storage) = storage_fig5();
        // create edge export with vertices (ProducerCountry as PC,
        // VendorCountry as VC) from table Products, Offers
        // where Products.producer = PC.id and Offers.product = Products.id
        //   and Offers.vendor = VC.id
        let def = EdgeDef {
            name: "export".into(),
            src_type: "ProducerCountry".into(),
            src_alias: Some("PC".into()),
            tgt_type: "VendorCountry".into(),
            tgt_alias: Some("VC".into()),
            from_tables: vec!["Products".into(), "Offers".into()],
            where_clause: Some(
                graql_parser::parse_expr(
                    "Products.producer = PC.id and Offers.product = Products.id and Offers.vendor = VC.id",
                )
                .unwrap(),
            ),
        };
        catalog.add_edge(def.clone()).unwrap();
        let graph = build_graph(&catalog, &storage, &Params::default()).unwrap();
        let et = graph.etype("export").unwrap();
        let es = graph.eset(et);
        // Fig. 5: exactly two edges, US→CA and IT→CN.
        assert_eq!(
            es.len(),
            2,
            "four-way join must deduplicate to two country pairs"
        );
        let pc = graph.vset(graph.vtype("ProducerCountry").unwrap());
        let vc = graph.vset(graph.vtype("VendorCountry").unwrap());
        let mut pairs: Vec<(String, String)> = (0..es.len() as u32)
            .map(|e| {
                let (s, t) = es.endpoints(e);
                (pc.key_of(s)[0].to_string(), vc.key_of(t)[0].to_string())
            })
            .collect();
        pairs.sort();
        assert_eq!(
            pairs,
            vec![("IT".into(), "CN".into()), ("US".into(), "CA".into())]
        );
    }

    #[test]
    fn fk_edge_without_assoc_table() {
        let (mut catalog, storage) = storage_fig5();
        catalog
            .add_vertex(VertexDef {
                name: "ProductVtx".into(),
                table: "Products".into(),
                key: vec!["id".into()],
                where_clause: None,
            })
            .unwrap();
        catalog
            .add_vertex(VertexDef {
                name: "ProducerVtx".into(),
                table: "Producers".into(),
                key: vec!["id".into()],
                where_clause: None,
            })
            .unwrap();
        catalog
            .add_edge(EdgeDef {
                name: "producer".into(),
                src_type: "ProductVtx".into(),
                src_alias: None,
                tgt_type: "ProducerVtx".into(),
                tgt_alias: None,
                from_tables: vec![],
                where_clause: Some(
                    graql_parser::parse_expr("ProductVtx.producer = ProducerVtx.id").unwrap(),
                ),
            })
            .unwrap();
        let graph = build_graph(&catalog, &storage, &Params::default()).unwrap();
        let es = graph.eset(graph.etype("producer").unwrap());
        assert_eq!(es.len(), 4, "one edge per product");
        // product 3 and 4 both made by producer 2 (IT).
        let pv = graph.vset(graph.vtype("ProductVtx").unwrap());
        let mv = graph.vset(graph.vtype("ProducerVtx").unwrap());
        for e in 0..es.len() as u32 {
            let (s, t) = es.endpoints(e);
            let pid = pv.key_of(s)[0].as_int().unwrap();
            let mid = mv.key_of(t)[0].as_int().unwrap();
            let expected = match pid {
                1 => 1,
                2 => 4,
                3 | 4 => 2,
                _ => panic!(),
            };
            assert_eq!(mid, expected);
        }
    }

    #[test]
    fn assoc_table_edge_keeps_one_edge_per_row() {
        let (mut catalog, mut storage) = storage_fig5();
        // A ProductTypes-like relation with a duplicated row: duplicates
        // stay because each row is a distinct edge instance.
        let pt = Table::from_rows(
            TableSchema::of(&[
                ("product", DataType::Integer),
                ("producer", DataType::Integer),
            ]),
            vec![
                vec![Value::Int(1), Value::Int(1)],
                vec![Value::Int(1), Value::Int(1)],
            ],
        )
        .unwrap();
        catalog.add_table("Links", pt.schema().clone()).unwrap();
        storage.insert("Links".into(), std::sync::Arc::new(pt));
        catalog
            .add_vertex(VertexDef {
                name: "ProductVtx".into(),
                table: "Products".into(),
                key: vec!["id".into()],
                where_clause: None,
            })
            .unwrap();
        catalog
            .add_vertex(VertexDef {
                name: "ProducerVtx".into(),
                table: "Producers".into(),
                key: vec!["id".into()],
                where_clause: None,
            })
            .unwrap();
        catalog
            .add_edge(EdgeDef {
                name: "linked".into(),
                src_type: "ProductVtx".into(),
                src_alias: None,
                tgt_type: "ProducerVtx".into(),
                tgt_alias: None,
                from_tables: vec!["Links".into()],
                where_clause: Some(
                    graql_parser::parse_expr(
                        "Links.product = ProductVtx.id and Links.producer = ProducerVtx.id",
                    )
                    .unwrap(),
                ),
            })
            .unwrap();
        let graph = build_graph(&catalog, &storage, &Params::default()).unwrap();
        let es = graph.eset(graph.etype("linked").unwrap());
        assert_eq!(es.len(), 2, "multigraph: one edge per assoc row");
        assert_eq!(es.assoc_table.as_deref(), Some("Links"));
    }

    #[test]
    fn same_type_endpoints_require_aliases() {
        let (mut catalog, storage) = storage_fig5();
        catalog
            .add_edge(EdgeDef {
                name: "self".into(),
                src_type: "ProducerCountry".into(),
                src_alias: None,
                tgt_type: "ProducerCountry".into(),
                tgt_alias: None,
                from_tables: vec![],
                where_clause: None,
            })
            .unwrap();
        let err = build_graph(&catalog, &storage, &Params::default()).unwrap_err();
        assert!(err.to_string().contains("disambiguate"), "{err}");
    }

    #[test]
    fn implicit_assoc_table_via_qualifier() {
        // Fig. 3's `feature` edge references ProductFeatures without a
        // `from table` clause; the table is picked up implicitly.
        let (mut catalog, mut storage) = storage_fig5();
        let pf = Table::from_rows(
            TableSchema::of(&[
                ("product", DataType::Integer),
                ("vendorId", DataType::Integer),
            ]),
            vec![
                vec![Value::Int(1), Value::Int(1)],
                vec![Value::Int(2), Value::Int(2)],
            ],
        )
        .unwrap();
        catalog.add_table("Rel", pf.schema().clone()).unwrap();
        storage.insert("Rel".into(), std::sync::Arc::new(pf));
        catalog
            .add_vertex(VertexDef {
                name: "ProductVtx".into(),
                table: "Products".into(),
                key: vec!["id".into()],
                where_clause: None,
            })
            .unwrap();
        catalog
            .add_edge(EdgeDef {
                name: "rel".into(),
                src_type: "ProductVtx".into(),
                src_alias: None,
                tgt_type: "VendorCountry".into(),
                tgt_alias: None,
                from_tables: vec![],
                where_clause: Some(
                    graql_parser::parse_expr(
                        "Rel.product = ProductVtx.id and Rel.vendorId = Vendors.id",
                    )
                    .unwrap(),
                ),
            })
            .unwrap();
        let graph = build_graph(&catalog, &storage, &Params::default()).unwrap();
        let es = graph.eset(graph.etype("rel").unwrap());
        // Rel rows link products 1,2 to vendors 1 (CA), 2 (CN).
        assert_eq!(es.len(), 2);
        let def = catalog.edge("rel").unwrap();
        assert_eq!(catalog.assoc_table(def), es.assoc_table.as_deref());
    }

    /// The resolver's static associated-table rule agrees with the built
    /// views on every Berlin edge: `from` tables (`type`, `feature`), none
    /// (the foreign-key edges) and two (`export`).
    #[test]
    fn catalog_assoc_table_matches_built_views() {
        let mut db = graql_bsbm::build_database(graql_bsbm::Scale::new(5)).unwrap();
        let catalog = db.catalog().clone();
        let g = db.graph().unwrap();
        for et in g.etype_ids() {
            let es = g.eset(et);
            let def = catalog.edge(&es.name).unwrap();
            assert_eq!(
                catalog.assoc_table(def),
                es.assoc_table.as_deref(),
                "{}",
                es.name
            );
        }
    }

    #[test]
    fn unknown_qualifier_is_a_name_error() {
        let (mut catalog, storage) = storage_fig5();
        catalog
            .add_edge(EdgeDef {
                name: "bad".into(),
                src_type: "ProducerCountry".into(),
                src_alias: Some("A".into()),
                tgt_type: "VendorCountry".into(),
                tgt_alias: Some("B".into()),
                from_tables: vec![],
                where_clause: Some(graql_parser::parse_expr("Mystery.x = A.id").unwrap()),
            })
            .unwrap();
        let err = build_graph(&catalog, &storage, &Params::default()).unwrap_err();
        assert!(matches!(err, GraqlError::Name(_)), "{err}");
    }

    #[test]
    fn vertex_where_clause_limits_instances() {
        let (catalog, storage) = storage_fig5();
        let def = VertexDef {
            name: "UsProducer".into(),
            table: "Producers".into(),
            key: vec!["id".into()],
            where_clause: Some(graql_parser::parse_expr("country = 'US'").unwrap()),
        };
        let vs = build_vertex_set(&def, &storage, &Params::default()).unwrap();
        assert_eq!(vs.len(), 2);
        let _ = catalog;
    }

    #[test]
    fn residual_inequality_filters_join() {
        // Same join as Fig. 5 plus a residual `PC.country != VC.country`
        // (all pairs already differ, so result unchanged) and then a
        // contradictory filter that empties it.
        let (mut catalog, storage) = storage_fig5();
        let wh = "Products.producer = PC.id and Offers.product = Products.id \
                  and Offers.vendor = VC.id and PC.country != VC.country";
        catalog
            .add_edge(EdgeDef {
                name: "export".into(),
                src_type: "ProducerCountry".into(),
                src_alias: Some("PC".into()),
                tgt_type: "VendorCountry".into(),
                tgt_alias: Some("VC".into()),
                from_tables: vec!["Products".into(), "Offers".into()],
                where_clause: Some(graql_parser::parse_expr(wh).unwrap()),
            })
            .unwrap();
        catalog
            .add_edge(EdgeDef {
                name: "none".into(),
                src_type: "ProducerCountry".into(),
                src_alias: Some("PC".into()),
                tgt_type: "VendorCountry".into(),
                tgt_alias: Some("VC".into()),
                from_tables: vec!["Products".into(), "Offers".into()],
                where_clause: Some(
                    graql_parser::parse_expr(&format!("{wh} and PC.country = VC.country")).unwrap(),
                ),
            })
            .unwrap();
        let graph = build_graph(&catalog, &storage, &Params::default()).unwrap();
        assert_eq!(graph.eset(graph.etype("export").unwrap()).len(), 2);
        assert_eq!(graph.eset(graph.etype("none").unwrap()).len(), 0);
    }
}
