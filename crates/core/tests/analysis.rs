//! Static-analysis tests (§III-A): every diagnostic must fire from the
//! catalog alone, with **no data ingested** — exactly the front-end
//! server's position.

use graql_core::analyze::analyze_script;
use graql_core::Catalog;
use graql_types::GraqlError;

mod parity;
use parity::{kind_of, parity_db, PARITY_ROWS};

/// Catalog with the Berlin schema and graph declared — but zero rows
/// anywhere.
fn empty_berlin_catalog() -> Catalog {
    let mut ddl = String::from(graql_bsbm::schema_ddl());
    ddl.push_str(graql_bsbm::graph_ddl());
    let script = graql_parser::parse(&ddl).unwrap();
    analyze_script(&Catalog::new(), &script).unwrap()
}

fn analyze(src: &str) -> Result<Catalog, GraqlError> {
    let catalog = empty_berlin_catalog();
    let script = graql_parser::parse(src)?;
    analyze_script(&catalog, &script)
}

#[track_caller]
fn expect_err(src: &str, fragment: &str) {
    match analyze(src) {
        Ok(_) => panic!("expected analysis to reject: {src}"),
        Err(e) => {
            assert!(e.is_static(), "error must be static: {e}");
            assert!(
                e.to_string().contains(fragment),
                "error {e:?} should mention {fragment:?} for {src}"
            );
        }
    }
}

// -- type checking ------------------------------------------------------------

#[test]
fn comparing_date_to_float_rejected() {
    // The paper's own §III-A example.
    expect_err(
        "select * from graph OfferVtx(validFrom > 1.5) --product--> ProductVtx()",
        "cannot compare",
    );
}

#[test]
fn comparing_attribute_pairs_of_wrong_types_rejected() {
    expect_err(
        "select * from graph OfferVtx(price = validFrom) --product--> ProductVtx()",
        "cannot compare",
    );
    // Same check in DDL.
    expect_err(
        "create edge bad with vertices (OfferVtx as A, ProductVtx as B) \
         where A.price = B.date",
        "cannot compare",
    );
}

#[test]
fn comparable_conditions_pass_without_data() {
    analyze(
        "select * from graph OfferVtx(price > 10 and deliveryDays <= 3) \
         --product--> ProductVtx(propertyNumeric_1 = 5)",
    )
    .unwrap();
    // Params are typed at bind time, so they pass static checks.
    analyze("select * from graph OfferVtx(validFrom = %D%) --product--> ProductVtx()").unwrap();
    // Date literals check against date columns.
    analyze(
        "select * from graph OfferVtx(validFrom <= date '2008-01-01') --product--> ProductVtx()",
    )
    .unwrap();
}

// -- entity-kind misuse ---------------------------------------------------------

#[test]
fn table_where_vertex_required() {
    expect_err(
        "select * from graph Offers() --product--> ProductVtx()",
        "not a vertex type",
    );
}

#[test]
fn vertex_where_table_required() {
    expect_err("select price from table OfferVtx", "not a table");
    expect_err("ingest table OfferVtx x.csv", "not a base table");
}

#[test]
fn vertex_where_edge_required() {
    expect_err(
        "select * from graph OfferVtx() --ProductVtx--> ProductVtx()",
        "not an edge type",
    );
}

#[test]
fn create_vertex_from_vertex_rejected() {
    expect_err("create vertex V2(id) from table ProductVtx", "not a table");
}

// -- path formation ---------------------------------------------------------------

#[test]
fn edge_endpoint_mismatch_rejected() {
    expect_err(
        "select * from graph PersonVtx() --product--> ProductVtx()",
        "starts at",
    );
    // Right types but wrong direction arrow.
    expect_err(
        "select * from graph ProductVtx() --product--> OfferVtx()",
        "starts at",
    );
    // In-edge direction flips the requirement; this one is fine:
    analyze("select * from graph ProductVtx() <--product-- OfferVtx()").unwrap();
}

#[test]
fn variant_step_conditions_rejected() {
    expect_err(
        "select * from graph ProductVtx() --[](price = 1)--> []",
        "variant",
    );
    expect_err(
        "select * from graph [](price = 1) --product--> ProductVtx()",
        "variant",
    );
    expect_err(
        "select * from graph ProductVtx() { --[](x = 1)--> [] }+",
        "variant",
    );
}

#[test]
fn duplicate_and_unknown_labels_rejected() {
    expect_err(
        "select * from graph def x: ProductVtx() --producer--> def x: ProducerVtx()",
        "defined twice",
    );
    expect_err(
        "select nope.id from graph ProductVtx() --producer--> ProducerVtx()",
        "unknown step or label",
    );
}

#[test]
fn ambiguous_step_projection_rejected() {
    expect_err(
        "select TypeVtx.id from graph TypeVtx() --subclass--> TypeVtx()",
        "ambiguous",
    );
}

#[test]
fn and_without_shared_label_rejected() {
    expect_err(
        "select * from graph (ProductVtx() --producer--> ProducerVtx()) \
         and (OfferVtx() --vendor--> VendorVtx())",
        "share a label",
    );
}

#[test]
fn clause_misuse_on_graph_sources_rejected() {
    expect_err(
        "select ProductVtx.id from graph ProductVtx() --producer--> ProducerVtx() where price > 1",
        "conditions on steps",
    );
    expect_err(
        "select count(*) from graph ProductVtx() --producer--> ProducerVtx()",
        "table sources",
    );
    expect_err(
        "select top 3 ProductVtx.id from graph ProductVtx() --producer--> ProducerVtx()",
        "table sources",
    );
}

// -- result naming ---------------------------------------------------------------

#[test]
fn into_results_register_and_flow() {
    // The catalog after analysis knows T1's schema, so the second
    // statement type-checks against it.
    let cat = analyze(
        "select y.id from graph ProductVtx(id = %P%) --feature--> FeatureVtx() \
         <--feature-- def y: ProductVtx() into table T1\n\
         select top 10 id, count(*) as c from table T1 group by id order by c desc",
    )
    .unwrap();
    assert!(cat.any_table("T1").is_some());
    // Unknown columns in the downstream statement are caught.
    expect_err(
        "select y.id from graph ProductVtx() --feature--> FeatureVtx() \
         <--feature-- def y: ProductVtx() into table T1\n\
         select nosuch from table T1",
        "unknown column",
    );
}

#[test]
fn into_cannot_shadow_base_tables() {
    expect_err(
        "select id from table Offers into table Products",
        "already exists",
    );
}

#[test]
fn seeds_must_be_result_subgraphs() {
    expect_err(
        "select * from graph resX.ProductVtx() --producer--> ProducerVtx()",
        "unknown result subgraph",
    );
    expect_err(
        "select id from table Offers into table T1\n\
         select * from graph T1.ProductVtx() --producer--> ProducerVtx()",
        "not a result subgraph",
    );
    analyze(
        "select * from graph ProductVtx() --producer--> ProducerVtx() into subgraph S1\n\
         select * from graph S1.ProductVtx() --producer--> ProducerVtx()",
    )
    .unwrap();
}

#[test]
fn group_by_validity() {
    expect_err(
        "select vendor, price from table Offers group by vendor",
        "must appear in 'group by'",
    );
    expect_err(
        "select sum(offerWebPage) as s from table Offers",
        "non-numeric",
    );
    expect_err(
        "select vendor, count(*) as n from table Offers group by vendor order by missing",
        "not in the select output",
    );
}

#[test]
fn aggregate_schema_inference() {
    let cat = analyze(
        "select vendor, count(*) as n, avg(price) as m from table Offers \
         group by vendor into table Stats",
    )
    .unwrap();
    let schema = cat.any_table("Stats").unwrap();
    assert_eq!(schema.column(0).dtype, graql_types::DataType::Varchar(10));
    assert_eq!(schema.column(1).dtype, graql_types::DataType::Integer);
    assert_eq!(schema.column(2).dtype, graql_types::DataType::Float);
}

#[test]
fn graph_select_schema_inference() {
    let cat = analyze(
        "select ProductVtx.propertyNumeric_1 as n, ProducerVtx.country from graph \
         ProductVtx() --producer--> ProducerVtx() into table T2",
    )
    .unwrap();
    let schema = cat.any_table("T2").unwrap();
    assert_eq!(schema.column(0).name, "n");
    assert_eq!(schema.column(0).dtype, graql_types::DataType::Integer);
    assert_eq!(schema.column(1).name, "country");
}

#[test]
fn unknown_attribute_on_step_rejected() {
    expect_err(
        "select * from graph ProductVtx(nosuch = 1) --producer--> ProducerVtx()",
        "no attribute",
    );
    expect_err(
        "select ProductVtx.nosuch from graph ProductVtx() --producer--> ProducerVtx()",
        "no attribute",
    );
}

// -- parity: what execution rejects, `check` rejects ----------------------------

#[test]
fn parity_rows_are_rejected_statically_and_at_execution() {
    let mut db = parity_db();
    let g = db.graph().unwrap();
    assert!(!g.vset(g.vtype("EventVtx").unwrap()).mapping.is_one_to_one());
    for (i, &(script, message, kind, code)) in PARITY_ROWS.iter().enumerate() {
        let row = i + 1;
        let err = db
            .execute_str(script)
            .expect_err(&format!("row {row}: execution should fail: {script}"));
        assert!(
            err.to_string().contains(message),
            "row {row}: {err} should contain {message:?}"
        );
        assert_eq!(
            kind_of(&err),
            Some(kind),
            "row {row}: wrong error class: {err:?}"
        );
        let diags = db.check_script_str(script);
        assert!(
            diags.iter().any(|d| d.code == code),
            "row {row}: check should report {code}, reports {:?}",
            diags.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
        let parsed = graql_parser::parse(script).unwrap();
        let err = analyze_script(db.catalog(), &parsed)
            .err()
            .unwrap_or_else(|| panic!("row {row}: analyze_script accepts {script}"));
        assert_eq!(
            kind_of(&err),
            Some(kind),
            "row {row}: wrong static class: {err:?}"
        );
    }
}

// -- governance lint -------------------------------------------------------------

/// A set-level group charges no rows, so a row budget alone cannot stop an
/// unbounded repetition: `W0303` still fires. A byte budget silences it.
#[test]
fn row_budget_alone_leaves_repetition_ungoverned() {
    let src = "select * from graph TypeVtx() { --subclass--> TypeVtx() }* --> TypeVtx()";
    let mut db = graql_core::Database::new();
    db.execute_script(graql_bsbm::schema_ddl()).unwrap();
    db.execute_script(graql_bsbm::graph_ddl()).unwrap();
    let w0303 =
        |db: &mut graql_core::Database| db.check_script_str(src).iter().any(|d| d.code == "W0303");
    db.config_mut().budget.max_result_rows = Some(1_000);
    assert!(w0303(&mut db), "a row budget alone must not silence W0303");
    db.config_mut().budget.max_query_bytes = Some(1 << 20);
    assert!(!w0303(&mut db), "a byte budget silences W0303");
}
