//! End-to-end engine tests over a miniature Berlin-style dataset, covering
//! the paper's query constructs figure by figure.

use std::sync::Arc;

use graql_core::{Database, QueryOutput, StmtOutput};
use graql_types::Value;

/// Builds a small e-commerce database:
///
/// ```text
/// products  p1..p4 (producer: p1,p2→m1(US), p3→m2(IT), p4→m3(FR))
/// features  f1..f3; product_features: p1:{f1,f2}, p2:{f1,f2}, p3:{f2,f3}, p4:{f3}
/// persons   u1(US), u2(IT)
/// reviews   r1(u1→p1), r2(u2→p1), r3(u2→p3)
/// offers    o1(p1,v1), o2(p1,v2), o3(p4,v2)
/// vendors   v1(US), v2(CN)
/// types     t1 root, t2 subclassOf t1; product_types: p1:t2, p2:t2, p3:t1
/// ```
fn mini_berlin() -> Database {
    let mut db = Database::new();
    let ddl = r#"
        create table Products(id varchar(10), label varchar(20), producer varchar(10), propertyNumeric_1 integer)
        create table Producers(id varchar(10), country varchar(4))
        create table Features(id varchar(10), label varchar(20))
        create table ProductFeatures(product varchar(10), feature varchar(10))
        create table Persons(id varchar(10), country varchar(4))
        create table Reviews(id varchar(10), reviewFor varchar(10), reviewer varchar(10), ratings_1 integer)
        create table Offers(id varchar(10), product varchar(10), vendor varchar(10), price float)
        create table Vendors(id varchar(10), country varchar(4))
        create table Types(id varchar(10), subclassOf varchar(10))
        create table ProductTypes(product varchar(10), type varchar(10))

        create vertex ProductVtx(id) from table Products
        create vertex ProducerVtx(id) from table Producers
        create vertex FeatureVtx(id) from table Features
        create vertex PersonVtx(id) from table Persons
        create vertex ReviewVtx(id) from table Reviews
        create vertex OfferVtx(id) from table Offers
        create vertex VendorVtx(id) from table Vendors
        create vertex TypeVtx(id) from table Types

        create edge producer with vertices (ProductVtx, ProducerVtx)
            where ProductVtx.producer = ProducerVtx.id
        create edge feature with vertices (ProductVtx, FeatureVtx)
            from table ProductFeatures
            where ProductFeatures.product = ProductVtx.id and ProductFeatures.feature = FeatureVtx.id
        create edge reviewFor with vertices (ReviewVtx, ProductVtx)
            where ReviewVtx.reviewFor = ProductVtx.id
        create edge reviewer with vertices (ReviewVtx, PersonVtx)
            where ReviewVtx.reviewer = PersonVtx.id
        create edge product with vertices (OfferVtx, ProductVtx)
            where OfferVtx.product = ProductVtx.id
        create edge vendor with vertices (OfferVtx, VendorVtx)
            where OfferVtx.vendor = VendorVtx.id
        create edge subclass with vertices (TypeVtx as A, TypeVtx as B)
            where A.subclassOf = B.id
        create edge type with vertices (ProductVtx, TypeVtx)
            from table ProductTypes
            where ProductTypes.product = ProductVtx.id and ProductTypes.type = TypeVtx.id
    "#;
    db.execute_script(ddl).expect("DDL executes");

    db.ingest_str(
        "Products",
        "p1,Alpha,m1,10\np2,Beta,m1,20\np3,Gamma,m2,30\np4,Delta,m3,40\n",
    )
    .unwrap();
    db.ingest_str("Producers", "m1,US\nm2,IT\nm3,FR\n").unwrap();
    db.ingest_str("Features", "f1,Fast\nf2,Light\nf3,Cheap\n")
        .unwrap();
    db.ingest_str(
        "ProductFeatures",
        "p1,f1\np1,f2\np2,f1\np2,f2\np3,f2\np3,f3\np4,f3\n",
    )
    .unwrap();
    db.ingest_str("Persons", "u1,US\nu2,IT\n").unwrap();
    db.ingest_str("Reviews", "r1,p1,u1,5\nr2,p1,u2,3\nr3,p3,u2,4\n")
        .unwrap();
    db.ingest_str("Offers", "o1,p1,v1,9.99\no2,p1,v2,12.5\no3,p4,v2,30.0\n")
        .unwrap();
    db.ingest_str("Vendors", "v1,US\nv2,CN\n").unwrap();
    db.ingest_str("Types", "t1,\nt2,t1\n").unwrap();
    db.ingest_str("ProductTypes", "p1,t2\np2,t2\np3,t1\n")
        .unwrap();
    db
}

fn table_of(out: StmtOutput) -> graql_table::Table {
    match out {
        StmtOutput::Table(t) => t,
        other => panic!("expected a table, got {other:?}"),
    }
}

fn col_strings(t: &graql_table::Table, col: usize) -> Vec<String> {
    (0..t.n_rows()).map(|r| t.get(r, col).to_string()).collect()
}

// ---------------------------------------------------------------------------
// Basic path queries
// ---------------------------------------------------------------------------

#[test]
fn single_hop_projection() {
    let mut db = mini_berlin();
    // Products made by US producers.
    let t = table_of(
        db.execute_str(
            "select ProductVtx.id from graph \
             ProductVtx() --producer--> ProducerVtx(country = 'US')",
        )
        .unwrap(),
    );
    let mut ids = col_strings(&t, 0);
    ids.sort();
    assert_eq!(ids, vec!["p1", "p2"]);
}

#[test]
fn reverse_direction_hop() {
    let mut db = mini_berlin();
    // Same query written from the producer side with an in-edge.
    let t = table_of(
        db.execute_str(
            "select ProductVtx.id from graph \
             ProducerVtx(country = 'US') <--producer-- ProductVtx()",
        )
        .unwrap(),
    );
    let mut ids = col_strings(&t, 0);
    ids.sort();
    assert_eq!(ids, vec!["p1", "p2"]);
}

#[test]
fn two_hop_path_with_param() {
    let mut db = mini_berlin();
    db.set_param("Country", Value::str("IT"));
    // Reviewers from IT → their reviews → products.
    let t = table_of(
        db.execute_str(
            "select ProductVtx.id, PersonVtx.id as who from graph \
             PersonVtx(country = %Country%) <--reviewer-- ReviewVtx() --reviewFor--> ProductVtx()",
        )
        .unwrap(),
    );
    let mut rows: Vec<(String, String)> = (0..t.n_rows())
        .map(|r| (t.get(r, 0).to_string(), t.get(r, 1).to_string()))
        .collect();
    rows.sort();
    assert_eq!(
        rows,
        vec![("p1".into(), "u2".into()), ("p3".into(), "u2".into())]
    );
}

#[test]
fn binding_table_keeps_duplicates() {
    let mut db = mini_berlin();
    // p1 and p2 share two features: the table must have one row per
    // (product, shared feature) pair — the Fig. 6 semantics Q2 counts on.
    let t = table_of(
        db.execute_str(
            "select y.id from graph \
             ProductVtx(id = 'p1') --feature--> FeatureVtx() \
             <--feature-- def y: ProductVtx(id != 'p1') \
             into table T1",
        )
        .unwrap(),
    );
    let mut ids = col_strings(&t, 0);
    ids.sort();
    assert_eq!(ids, vec!["p2", "p2", "p3"], "p2 shares f1+f2, p3 shares f2");
}

// ---------------------------------------------------------------------------
// Figure 6: Berlin Q2 end to end
// ---------------------------------------------------------------------------

#[test]
fn berlin_q2_figure_6() {
    let mut db = mini_berlin();
    db.set_param("Product1", Value::str("p1"));
    let outs = db
        .execute_script(
            "select y.id from graph \
               ProductVtx (id = %Product1%) --feature--> FeatureVtx() \
               <--feature-- def y: ProductVtx (id != %Product1%) \
             into table T1\n\
             select top 10 id, count(*) as groupCount from table T1 \
             group by id order by groupCount desc",
        )
        .unwrap();
    let result = table_of(outs.into_iter().last().unwrap());
    assert_eq!(result.n_rows(), 2);
    assert_eq!(result.get(0, 0), Value::str("p2"));
    assert_eq!(result.get(0, 1), Value::Int(2));
    assert_eq!(result.get(1, 0), Value::str("p3"));
    assert_eq!(result.get(1, 1), Value::Int(1));
}

// ---------------------------------------------------------------------------
// Figure 7/8: Berlin Q1 — foreach label + and-composition
// ---------------------------------------------------------------------------

#[test]
fn berlin_q1_figure_7() {
    let mut db = mini_berlin();
    db.set_param("Country1", Value::str("US"));
    db.set_param("Country2", Value::str("IT"));
    // Products from US producers reviewed by IT reviewers, joined to their
    // types: p1 (producer m1=US, reviewed by u2=IT, type t2).
    let outs = db
        .execute_script(
            "select TypeVtx.id from graph \
               PersonVtx (country = %Country2%) <--reviewer-- ReviewVtx() \
               --reviewFor--> foreach y: ProductVtx() \
               --producer--> ProducerVtx (country = %Country1%) \
             and (y --type--> TypeVtx()) \
             into table T1\n\
             select top 10 id, count(*) as groupCount from table T1 \
             group by id order by groupCount desc",
        )
        .unwrap();
    let result = table_of(outs.into_iter().last().unwrap());
    assert_eq!(result.n_rows(), 1);
    assert_eq!(result.get(0, 0), Value::str("t2"));
    assert_eq!(result.get(0, 1), Value::Int(1));
}

#[test]
fn foreach_vs_set_label_cycles() {
    let mut db = mini_berlin();
    // Path p --feature--> f <--feature-- y, then y must equal the start
    // for foreach (cycle), while a set label may land elsewhere.
    // foreach: only cycles p? --> f --> same p.
    let t = table_of(
        db.execute_str(
            "select x.id, z.id as back from graph \
             foreach x: ProductVtx() --feature--> FeatureVtx() <--feature-- def z: x",
        )
        .unwrap(),
    );
    // Every row must be a cycle: x == back.
    assert!(t.n_rows() > 0);
    for r in 0..t.n_rows() {
        assert_eq!(
            t.get(r, 0),
            t.get(r, 1),
            "foreach label must close the cycle"
        );
    }
}

// ---------------------------------------------------------------------------
// Figure 9: variant steps
// ---------------------------------------------------------------------------

#[test]
fn variant_steps_figure_9() {
    let mut db = mini_berlin();
    db.set_param("Product1", Value::str("p1"));
    // All reviews and offers of p1 (plus any other in-neighbors).
    let out = db
        .execute_str("select * from graph ProductVtx(id = %Product1%) <--[]-- [] into subgraph res")
        .unwrap();
    let StmtOutput::Subgraph(sg) = out else {
        panic!("expected subgraph")
    };
    let graph = db.graph().unwrap();
    let review = graph.vtype("ReviewVtx").unwrap();
    let offer = graph.vtype("OfferVtx").unwrap();
    // p1 has reviews r1, r2 and offers o1, o2.
    assert_eq!(sg.vertices_of(review).map(|s| s.count()), Some(2));
    assert_eq!(sg.vertices_of(offer).map(|s| s.count()), Some(2));
    // And the edges are in the subgraph too.
    let review_for = graph.etype("reviewFor").unwrap();
    let product_e = graph.etype("product").unwrap();
    assert_eq!(sg.edges_of(review_for).map(|s| s.count()), Some(2));
    assert_eq!(sg.edges_of(product_e).map(|s| s.count()), Some(2));
}

// ---------------------------------------------------------------------------
// Figure 10: path regular expressions
// ---------------------------------------------------------------------------

#[test]
fn regex_path_over_subclass_chain() {
    let mut db = mini_berlin();
    // t2 --subclass--> t1: one or more subclass hops from t2 reach t1.
    let out = db
        .execute_str(
            "select * from graph TypeVtx(id = 't2') { --subclass--> TypeVtx() }+ --> TypeVtx() \
             into subgraph reach",
        )
        .unwrap();
    let StmtOutput::Subgraph(sg) = out else {
        panic!()
    };
    let graph = db.graph().unwrap();
    let tv = graph.vtype("TypeVtx").unwrap();
    let vs = graph.vset(tv);
    let reached = sg.vertices_of(tv).unwrap();
    let names: Vec<String> = reached
        .iter()
        .map(|i| vs.key_of(i as u32)[0].to_string())
        .collect();
    assert!(names.contains(&"t1".to_string()), "t1 reachable: {names:?}");
    assert!(
        names.contains(&"t2".to_string()),
        "start participates: {names:?}"
    );
}

#[test]
fn regex_star_includes_zero_repetitions() {
    let mut db = mini_berlin();
    let out = db
        .execute_str(
            "select * from graph TypeVtx(id = 't1') { --subclass--> TypeVtx() }* --> TypeVtx() \
             into subgraph reach",
        )
        .unwrap();
    let StmtOutput::Subgraph(sg) = out else {
        panic!()
    };
    let graph = db.graph().unwrap();
    let tv = graph.vtype("TypeVtx").unwrap();
    // t1 has no outgoing subclass edges, but zero repetitions match t1
    // itself.
    assert!(sg.vertices_of(tv).unwrap().count() >= 1);
}

// ---------------------------------------------------------------------------
// Figures 11–12: subgraph capture and seeding
// ---------------------------------------------------------------------------

#[test]
fn endpoint_capture_and_seeding_figure_11_12() {
    let mut db = mini_berlin();
    let outs = db
        .execute_script(
            "select ReviewVtx, PersonVtx from graph \
               ProductVtx(id = 'p1') <--reviewFor-- ReviewVtx() --reviewer--> PersonVtx() \
             into subgraph resQ1\n\
             select PersonVtx.country from graph resQ1.PersonVtx() <--reviewer-- ReviewVtx()",
        )
        .unwrap();
    // First statement: reviews r1,r2 + persons u1,u2; no product vertices.
    let StmtOutput::Subgraph(sg) = &outs[0] else {
        panic!()
    };
    let graph = db.graph().unwrap();
    assert_eq!(
        sg.vertices_of(graph.vtype("ReviewVtx").unwrap())
            .unwrap()
            .count(),
        2
    );
    assert_eq!(
        sg.vertices_of(graph.vtype("PersonVtx").unwrap())
            .unwrap()
            .count(),
        2
    );
    assert!(sg.vertices_of(graph.vtype("ProductVtx").unwrap()).is_none());
    assert_eq!(sg.n_edges(), 0, "endpoint selection captures vertices only");
    // Second statement: seeded by resQ1's persons; u2 reviews twice.
    let t = outs[1].clone();
    let t = table_of(t);
    let mut c = col_strings(&t, 0);
    c.sort();
    assert_eq!(c, vec!["IT", "IT", "US"]);
}

#[test]
fn star_subgraph_captures_vertices_and_edges() {
    let mut db = mini_berlin();
    let out = db
        .execute_str(
            "select * from graph ProductVtx(id = 'p4') --producer--> ProducerVtx() \
             into subgraph g",
        )
        .unwrap();
    let StmtOutput::Subgraph(sg) = out else {
        panic!()
    };
    let graph = db.graph().unwrap();
    assert_eq!(sg.n_vertices(), 2);
    assert_eq!(sg.n_edges(), 1);
    assert!(sg.summary(graph).contains("producer: 1"));
}

// ---------------------------------------------------------------------------
// Or-composition
// ---------------------------------------------------------------------------

#[test]
fn or_composition_unions_subgraphs() {
    let mut db = mini_berlin();
    let out = db
        .execute_str(
            "select * from graph ProductVtx(id = 'p1') --producer--> ProducerVtx() \
             or ProductVtx(id = 'p3') --producer--> ProducerVtx() \
             into subgraph g",
        )
        .unwrap();
    let StmtOutput::Subgraph(sg) = out else {
        panic!()
    };
    let graph = db.graph().unwrap();
    let pv = graph.vtype("ProductVtx").unwrap();
    assert_eq!(sg.vertices_of(pv).unwrap().count(), 2);
    let mv = graph.vtype("ProducerVtx").unwrap();
    assert_eq!(sg.vertices_of(mv).unwrap().count(), 2, "m1 and m2");
}

#[test]
fn or_composition_appends_tables() {
    let mut db = mini_berlin();
    let t = table_of(
        db.execute_str(
            "select ProductVtx.id from graph \
             ProductVtx() --producer--> ProducerVtx(country = 'US') \
             or ProductVtx() --producer--> ProducerVtx(country = 'IT')",
        )
        .unwrap(),
    );
    let mut ids = col_strings(&t, 0);
    ids.sort();
    assert_eq!(ids, vec!["p1", "p2", "p3"]);
}

// ---------------------------------------------------------------------------
// Structural queries (Eq. 12)
// ---------------------------------------------------------------------------

#[test]
fn structural_self_loop_query() {
    let mut db = mini_berlin();
    // def X: [] --[]--> X : any vertex with an edge to a same-type vertex.
    // Only subclass connects TypeVtx → TypeVtx.
    let out = db
        .execute_str("select * from graph foreach X: [] --[]--> X into subgraph g")
        .unwrap();
    let StmtOutput::Subgraph(sg) = out else {
        panic!()
    };
    let graph = db.graph().unwrap();
    let tv = graph.vtype("TypeVtx").unwrap();
    let got = sg.vertices_of(tv).map(|s| s.count()).unwrap_or(0);
    assert_eq!(
        got, 0,
        "foreach X requires the *same instance*, i.e. a self-loop"
    );
    // With a set label, t2 → t1 matches (same type, different instance).
    let out = db
        .execute_str("select * from graph def X: [] --[]--> X into subgraph g2")
        .unwrap();
    let StmtOutput::Subgraph(sg) = out else {
        panic!()
    };
    let graph = db.graph().unwrap();
    let tv = graph.vtype("TypeVtx").unwrap();
    assert_eq!(
        sg.vertices_of(tv).map(|s| s.count()),
        Some(2),
        "t2 --subclass--> t1"
    );
}

// ---------------------------------------------------------------------------
// Edge labels: projecting edge attributes and capturing edges
// ---------------------------------------------------------------------------

#[test]
fn edge_label_attribute_projection() {
    let mut db = mini_berlin();
    // The `feature` edge carries the ProductFeatures row as attributes.
    let t = table_of(
        db.execute_str(
            "select p.id as product, f.feature as feat from graph \
             def p: ProductVtx(id = 'p1') --def f: feature--> FeatureVtx()",
        )
        .unwrap(),
    );
    let mut rows: Vec<(String, String)> = (0..t.n_rows())
        .map(|r| (t.get(r, 0).to_string(), t.get(r, 1).to_string()))
        .collect();
    rows.sort();
    assert_eq!(
        rows,
        vec![("p1".into(), "f1".into()), ("p1".into(), "f2".into())]
    );
}

#[test]
fn edge_label_subgraph_capture() {
    let mut db = mini_berlin();
    let out = db
        .execute_str(
            "select p, f from graph def p: ProductVtx(id = 'p3') \
             --def f: feature--> FeatureVtx() into subgraph g",
        )
        .unwrap();
    let StmtOutput::Subgraph(sg) = out else {
        panic!()
    };
    let graph = db.graph().unwrap();
    let pv = graph.vtype("ProductVtx").unwrap();
    let fe = graph.etype("feature").unwrap();
    assert_eq!(sg.vertices_of(pv).map(|s| s.count()), Some(1));
    assert_eq!(
        sg.edges_of(fe).map(|s| s.count()),
        Some(2),
        "p3 has f2 and f3"
    );
    assert!(sg.vertices_of(graph.vtype("FeatureVtx").unwrap()).is_none());
}

#[test]
fn edge_attr_on_attributeless_edge_rejected() {
    let mut db = mini_berlin();
    // `producer` has no associated table → no attributes.
    let err = db
        .execute_str("select e.whatever from graph ProductVtx() --def e: producer--> ProducerVtx()")
        .unwrap_err();
    assert!(err.to_string().contains("no attributes"), "{err}");
}

// ---------------------------------------------------------------------------
// Relational statements (Table 1)
// ---------------------------------------------------------------------------

#[test]
fn relational_pipeline_over_base_table() {
    let mut db = mini_berlin();
    let t = table_of(
        db.execute_str(
            "select top 2 producer, count(*) as n, max(propertyNumeric_1) as m \
             from table Products group by producer order by n desc, producer asc",
        )
        .unwrap(),
    );
    assert_eq!(t.n_rows(), 2);
    assert_eq!(t.get(0, 0), Value::str("m1"));
    assert_eq!(t.get(0, 1), Value::Int(2));
    assert_eq!(t.get(0, 2), Value::Int(20));
    assert_eq!(t.get(1, 1), Value::Int(1));
}

#[test]
fn relational_where_distinct() {
    let mut db = mini_berlin();
    let t = table_of(
        db.execute_str("select distinct producer from table Products where propertyNumeric_1 < 35")
            .unwrap(),
    );
    assert_eq!(t.n_rows(), 2, "m1 (twice→once) and m2");
}

/// A filtered select copies codes and shares its source's string
/// dictionaries. A later ingest copies a shared dictionary before growing
/// it, so the kept result reads as it did and every old string keeps its
/// code.
#[test]
fn filtered_select_shares_dictionaries_across_ingest() {
    let mut db = mini_berlin();
    let kept = table_of(
        db.execute_str("select label, producer from table Products where propertyNumeric_1 < 35")
            .unwrap(),
    );
    let base = db.table("Products").unwrap();
    for (out, src) in [(0, 1), (1, 2)] {
        let (shared, source) = (kept.column(out).str_dict(), base.column(src).str_dict());
        assert!(
            Arc::ptr_eq(shared.unwrap(), source.unwrap()),
            "column {src}"
        );
    }
    let dict_lens = |t: &graql_table::Table| -> Vec<usize> {
        (0..2)
            .map(|c| t.column(c).str_dict().unwrap().len())
            .collect()
    };
    let (rendered, lens) = (kept.render(), dict_lens(&kept));
    let codes = |t: &graql_table::Table, c: usize| -> Vec<Option<u32>> {
        (0..4).map(|r| t.column(c).str_code(r)).collect()
    };
    let old_codes = [codes(base, 1), codes(base, 2)];

    // One new label and producer, one repeated of each.
    db.ingest_str("Products", "p5,Epsilon,m9,50\np6,Alpha,m1,60\n")
        .unwrap();
    assert_eq!(kept.render(), rendered, "the kept result reads as it did");
    assert_eq!(dict_lens(&kept), lens, "its dictionaries did not grow");
    let base = db.table("Products").unwrap();
    assert_eq!(col_strings(base, 1)[3..], ["Delta", "Epsilon", "Alpha"]);
    assert_eq!(col_strings(base, 2)[3..], ["m3", "m9", "m1"]);
    assert_eq!(
        [codes(base, 1), codes(base, 2)],
        old_codes,
        "old strings keep their codes"
    );
    assert_eq!(base.column(1).str_code(5), base.column(1).str_code(0));
    assert_eq!(base.column(2).str_code(5), base.column(2).str_code(0));
}

/// Check-clean selects whose output names the kernels could not hold
/// (a column selected twice, an aggregate named like a group column, a
/// repeated group column) run, under the names the select gives.
#[test]
fn relational_output_names_come_from_the_select() {
    let mut db = mini_berlin();
    for (q, names) in [
        (
            "select producer, producer as again from table Products",
            &["producer", "again"][..],
        ),
        (
            "select producer as p, count(*) as producer from table Products group by producer",
            &["p", "producer"][..],
        ),
        (
            "select producer, count(*) as n from table Products group by producer, producer",
            &["producer", "n"][..],
        ),
    ] {
        assert!(!db.check_script_str(q).has_errors(), "{q}");
        let t = table_of(db.execute_script(q).unwrap().pop().unwrap());
        let got: Vec<&str> = t
            .schema()
            .columns()
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(got, names, "{q}");
    }
}

#[test]
fn cross_statement_table_flow() {
    let mut db = mini_berlin();
    let outs = db
        .execute_script(
            "select producer, propertyNumeric_1 from table Products into table P\n\
             select avg(propertyNumeric_1) as a from table P",
        )
        .unwrap();
    let t = table_of(outs.into_iter().last().unwrap());
    assert_eq!(t.get(0, 0), Value::Float(25.0));
}

// ---------------------------------------------------------------------------
// Static analysis & errors
// ---------------------------------------------------------------------------

#[test]
fn static_type_errors_are_caught_before_execution() {
    let mut db = mini_berlin();
    // Comparing a varchar attribute with an integer (paper §III-A).
    let err = db
        .execute_script(
            "select ProductVtx.id from graph ProductVtx(id = 5) --producer--> ProducerVtx()",
        )
        .unwrap_err();
    assert!(err.is_static(), "{err}");
    // Unknown edge type.
    let err = db
        .execute_script("select * from graph ProductVtx() --nope--> ProducerVtx()")
        .unwrap_err();
    assert!(err.is_static(), "{err}");
    // Edge endpoint mismatch.
    let err = db
        .execute_script("select * from graph PersonVtx() --producer--> ProducerVtx()")
        .unwrap_err();
    assert!(err.is_static(), "{err}");
    // Entity-kind misuse: a table where a vertex type is required.
    let err = db
        .execute_script("select * from graph Products() --producer--> ProducerVtx()")
        .unwrap_err();
    assert!(err.is_static(), "{err}");
    // Conditions on variant steps.
    let err = db
        .execute_script("select * from graph ProductVtx() --[](price = 1)--> []")
        .unwrap_err();
    assert!(err.is_static(), "{err}");
}

#[test]
fn and_composition_without_shared_label_rejected() {
    let mut db = mini_berlin();
    let err = db
        .execute_script(
            "select * from graph (ProductVtx() --producer--> ProducerVtx()) \
             and (PersonVtx() <--reviewer-- ReviewVtx())",
        )
        .unwrap_err();
    assert!(err.to_string().contains("share a label"), "{err}");
}

#[test]
fn unbound_param_fails_at_execution() {
    let mut db = mini_berlin();
    let err = db
        .execute_str(
            "select ProductVtx.id from graph ProductVtx(id = %Nope%) --producer--> ProducerVtx()",
        )
        .unwrap_err();
    assert!(matches!(err, graql_types::GraqlError::Exec(_)), "{err}");
}

// ---------------------------------------------------------------------------
// Planner modes agree
// ---------------------------------------------------------------------------

#[test]
fn plan_modes_produce_identical_results() {
    use graql_core::PlanMode;
    let query = "select y.id from graph \
                 ProductVtx (id = 'p1') --feature--> FeatureVtx() \
                 <--feature-- def y: ProductVtx (id != 'p1')";
    let mut reference: Option<Vec<String>> = None;
    for mode in [PlanMode::Auto, PlanMode::ForwardOnly, PlanMode::ReverseOnly] {
        for culling in [true, false] {
            let mut db = mini_berlin();
            db.config_mut().plan_mode = mode;
            db.config_mut().culling = culling;
            let t = table_of(db.execute_str(query).unwrap());
            let mut ids = col_strings(&t, 0);
            ids.sort();
            match &reference {
                None => reference = Some(ids),
                Some(r) => assert_eq!(&ids, r, "mode {mode:?} culling {culling}"),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// IR ships the whole corpus
// ---------------------------------------------------------------------------

#[test]
fn ir_round_trips_and_replays() {
    let script_text = "select ProductVtx.id from graph \
                       ProductVtx() --producer--> ProducerVtx(country = 'US') into table T9";
    let parsed = graql_parser::parse(script_text).unwrap();
    let blob = graql_core::ir::encode(&parsed);
    let replayed = graql_core::ir::decode(&blob).unwrap();
    assert_eq!(parsed, replayed);
    // Executing the decoded script gives the same result as the text.
    let mut db = mini_berlin();
    db.execute(&replayed.statements[0]).unwrap();
    let t = db.result_table("T9").unwrap();
    assert_eq!(t.n_rows(), 2);
}

// ---------------------------------------------------------------------------
// Graph view regeneration after ingest
// ---------------------------------------------------------------------------

#[test]
fn ingest_regenerates_views() {
    let mut db = mini_berlin();
    let q =
        "select ProductVtx.id from graph ProductVtx() --producer--> ProducerVtx(country = 'FR')";
    let t = table_of(db.execute_str(q).unwrap());
    assert_eq!(t.n_rows(), 1);
    // New FR product arrives.
    db.ingest_str("Products", "p5,Epsilon,m3,50\n").unwrap();
    let t = table_of(db.execute_str(q).unwrap());
    assert_eq!(t.n_rows(), 2, "ingest triggers view regeneration (§II-A2)");
}

/// Each conditioned step finds its candidates by one access path, which
/// `explain` names, and `profile`'s candidates stage counts the vertices
/// it tested: one per key probe, the domain per scan, none without a
/// condition.
#[test]
fn access_paths_are_explained_and_profiled() {
    let mut db = mini_berlin();
    db.set_param("Product1", Value::str("p1"));
    let q2 = "select y.id from graph ProductVtx (id = %Product1%) --feature--> FeatureVtx() \
              <--feature-- def y: ProductVtx (id != %Product1%)";
    let plan = db.explain_str(q2).unwrap();
    assert!(
        plan.contains("v0 ProductVtx :: {ProductVtx} by key probe — 1 "),
        "{plan}"
    );
    assert!(
        plan.contains("v1 FeatureVtx :: {FeatureVtx} — 2 "),
        "{plan}"
    );
    assert!(plan.contains("[Set label y] by scan — 2 "), "{plan}");
    for (cond, path) in [
        ("id = 'p9'", "key probe"),
        ("'p1' = id and label != 'Beta'", "key probe"),
        ("id = 'p1' or id = 'p2'", "scan"),
        ("not (id != 'p1')", "scan"),
        ("label = 'Alpha'", "scan"),
    ] {
        let plan = db
            .explain_str(&format!(
                "select * from graph ProductVtx({cond}) --producer--> ProducerVtx()"
            ))
            .unwrap();
        assert!(
            plan.contains(&format!("{{ProductVtx}} by {path} —")),
            "{cond}: {plan}"
        );
    }
    let candidates = |db: &mut Database, stmt: &str| {
        let StmtOutput::Profile(r) = db.execute_str(&format!("profile {stmt}")).unwrap() else {
            panic!("profile yields a report")
        };
        let line = r
            .stages
            .iter()
            .find(|s| s.stage == graql_types::Stage::Candidates);
        line.map(|s| (s.rows_in, s.rows_out)).unwrap()
    };
    // The point hop: one probe, then p1 and the three producers.
    let hop = "select * from graph ProductVtx(id = 'p1') --producer--> ProducerVtx()";
    assert_eq!(candidates(&mut db, hop), (1, 4));
    // Q2: a probe, no condition on FeatureVtx, then a scan of 4 products.
    assert_eq!(candidates(&mut db, q2), (1 + 4, 1 + 3 + 3));
}

#[test]
fn explain_shows_plan_decisions() {
    let mut db = mini_berlin();
    let plan = db
        .explain_str(
            "select y.id from graph ProductVtx(id = 'p1') --feature--> FeatureVtx() \
             <--feature-- def y: ProductVtx(id != 'p1')",
        )
        .unwrap();
    assert!(plan.contains("candidates after culling"), "{plan}");
    assert!(plan.contains("forward index"), "{plan}");
    assert!(plan.contains("reverse index"), "{plan}");
    assert!(plan.contains("enumeration order"), "{plan}");
    // The selective head (1 candidate) is reported as such.
    assert!(plan.contains("— 1 candidates after culling"), "{plan}");
    // Repetition groups show their real bounds: `*` has no upper one.
    for (quant, bounds) in [("*", "0.."), ("+", "1.."), ("{2,5}", "2..=5")] {
        let plan = db
            .explain_str(&format!(
                "select * from graph TypeVtx() {{ --subclass--> TypeVtx() }}{quant} \
                 --> TypeVtx() into subgraph r"
            ))
            .unwrap();
        let line = format!("{{ 1 hops }} repeated {bounds} (state reachability)");
        assert!(plan.contains(&line), "{quant}: {plan}");
    }
    // Table selects get a summary line.
    let plan = db
        .explain_str("select producer, count(*) as n from table Products group by producer")
        .unwrap();
    assert!(plan.contains("table scan"), "{plan}");
    assert!(plan.contains("aggregate"), "{plan}");
    // Non-selects are rejected.
    assert!(db.explain_str("create table Z(a integer)").is_err());
}

#[test]
fn query_result_shapes() {
    let mut db = mini_berlin();
    // select * without into over a graph → subgraph.
    let out = db
        .execute_str("select * from graph ProductVtx() --producer--> ProducerVtx()")
        .unwrap();
    assert!(matches!(out, StmtOutput::Subgraph(_)));
    // execute_select_observed on an immutable db.
    db.graph().unwrap();
    let sel = match graql_parser::parse_statement(
        "select ProductVtx.id from graph ProductVtx() --producer--> ProducerVtx()",
    )
    .unwrap()
    {
        graql_parser::ast::Stmt::Select(s) => s,
        _ => unreachable!(),
    };
    let guard = graql_types::QueryGuard::unlimited();
    let out = db.execute_select_observed(&sel, guard, None).unwrap();
    assert!(matches!(out, QueryOutput::Table(_)));
}
