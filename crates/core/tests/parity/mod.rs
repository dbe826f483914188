//! The check/execution parity rows: select forms that static analysis
//! once passed but execution rejected. Shared by the parity test
//! (`crates/core/tests/analysis.rs`) and the soundness property
//! (`tests/properties.rs`).

use graql_types::GraqlError;

/// Select forms that static analysis once passed but execution rejected:
/// the script, the fragment of the message execution fails with, the
/// error class it fails under, and the code `check` reports.
pub const PARITY_ROWS: &[(&str, &str, Kind, &str)] = &[
    // 1. An edge-step condition on an edge type with no associated table.
    (
        "select * from graph ProductVtx() --producer(weight > 3)--> ProducerVtx()",
        "edge type 'producer' has no attributes; conditions are not applicable",
        Kind::Type,
        "E0202",
    ),
    // 2. A label defined inside a `{ }+` group.
    (
        "select * from graph TypeVtx() { --subclass--> def t: TypeVtx() }+ --> TypeVtx()",
        "path regular expressions produce set results; use 'select * … into subgraph' \
         without labels or table output",
        Kind::Path,
        "E0301",
    ),
    // 3. A label reference under `or` in a step condition.
    (
        "select * from graph def p: ProductVtx() --producer--> \
         ProducerVtx(id = p.producer or id = 'x')",
        "label references must appear in simple comparisons (no nested and/or/not)",
        Kind::Path,
        "E0302",
    ),
    // 4. A non-key attribute of a many-to-one vertex type.
    (
        "select * from graph EventVtx(sev > 3)",
        "attribute 'sev' of many-to-one vertex type EventVtx is not single-valued",
        Kind::Type,
        "E0202",
    ),
    // 5. A variant step between incompatible edges.
    (
        "select * from graph ProductVtx() --producer--> [] --subclass--> TypeVtx()",
        "step 0 (ProductVtx) cannot be reached by any edge type in the path",
        Kind::Path,
        "E0303",
    ),
    // 6. A condition on a label-reference step.
    (
        "select * from graph def p: ProductVtx() --producer--> ProducerVtx() \
         <--producer-- p(label = 'x')",
        "conditions on label-reference step \"p\" are not supported; put them on the defining step",
        Kind::Path,
        "E0302",
    ),
    // 7. An attribute selection `into subgraph`.
    (
        "select ProductVtx.id from graph ProductVtx() into subgraph R7",
        "attribute selections go 'into table'; subgraphs capture whole steps",
        Kind::Type,
        "E0202",
    ),
    // 8. An edge-label attribute on an edge type with no associated table.
    (
        "select e.weight from graph ProductVtx() --def e: producer--> ProducerVtx()",
        "edge type producer has no attributes (no associated table)",
        Kind::Type,
        "E0202",
    ),
    // 9. A seed inside a group.
    (
        "select * from graph TypeVtx() { --subclass--> S.TypeVtx() }+ --> TypeVtx()",
        "seeds inside path groups are not supported",
        Kind::Path,
        "E0301",
    ),
    // 10. A label reference inside a group.
    (
        "select * from graph def t: TypeVtx() { --subclass--> t }+ --> TypeVtx()",
        "path regular expressions produce set results; use 'select * … into subgraph' \
         without labels or table output",
        Kind::Path,
        "E0301",
    ),
    // 11. A variant-label attribute that the narrowed type lacks.
    (
        "select v.price from graph ProductVtx() --producer--> def v: []",
        "step \"[]\" (vertex type ProducerVtx) has no attribute \"price\"",
        Kind::Name,
        "E0102",
    ),
    // Forms beyond the eleven above, found while moving the checks.
    // 12. Table output over a path group.
    (
        "select ProductVtx.id from graph ProductVtx() { --producer--> ProducerVtx() }+ --> []",
        "path regular expressions produce set results; use 'select * … into subgraph' \
         without labels or table output",
        Kind::Path,
        "E0301",
    ),
    // 13. A vertex label repeating an edge label of the same path.
    (
        "select * from graph ProductVtx() --def e: producer--> def e: ProducerVtx()",
        "label 'e' defined twice",
        Kind::Path,
        "E0302",
    ),
    // 14. `or` branches projecting different column types.
    (
        "select x from graph (def x: ProductVtx()) or (def x: EventVtx())",
        "'or' branches produce incompatible table schemas",
        Kind::Type,
        "E0201",
    ),
    // 15. An edge-step condition on an attribute the associated table lacks.
    (
        "select * from graph ProductVtx() --feature(nope = 1)--> FeatureVtx()",
        "nope",
        Kind::Name,
        "E0102",
    ),
    // 16. A bare variant step projected into a table.
    (
        "select v from graph ProductVtx() --[]--> def v: []",
        "cannot project variant step \"[]\" into a table",
        Kind::Path,
        "E0301",
    ),
    // 17. `select *` into a table over a variant step.
    (
        "select * from graph ProductVtx() --[]--> [] into table R17",
        "'select *' into a table requires concrete steps; step \"[]\" is variant",
        Kind::Path,
        "E0301",
    ),
    // 18. A binding condition on a variant-label attribute the narrowed
    //     type lacks.
    (
        "select * from graph ProductVtx() --producer--> def v: [] \
         <--producer-- ProductVtx(label = v.price)",
        "vertex type ProducerVtx has no attribute \"price\"",
        Kind::Name,
        "E0102",
    ),
    // Table selects, decided by the table resolver.
    // 19. `select *` over a table captured into a subgraph.
    (
        "select * from table Products into subgraph R19",
        "attribute/table selections capture 'into table', not 'into subgraph'",
        Kind::Type,
        "E0202",
    ),
    // 20. A filtered column selection over a table captured into a subgraph.
    (
        "select id from table Products where propertyNumeric_1 > 1 into subgraph R20",
        "attribute/table selections capture 'into table', not 'into subgraph'",
        Kind::Type,
        "E0202",
    ),
];

/// The error class a parity row fails under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Name,
    Type,
    Path,
}

pub fn kind_of(e: &GraqlError) -> Option<Kind> {
    match e {
        GraqlError::Name(_) => Some(Kind::Name),
        GraqlError::Type(_) => Some(Kind::Type),
        GraqlError::Path(_) => Some(Kind::Path),
        _ => None,
    }
}

/// The Berlin database with a little data, a many-to-one vertex type
/// `EventVtx` (two rows per host) and a result subgraph `S` to seed from.
pub fn parity_db() -> graql_core::Database {
    let mut db = graql_bsbm::build_database(graql_bsbm::Scale::new(10)).unwrap();
    db.execute_script(
        "create table Events(host varchar(8), sev integer)
         create vertex EventVtx(host) from table Events",
    )
    .unwrap();
    db.ingest_str("Events", "h1,5\nh1,3\nh2,9\n").unwrap();
    db.execute_str("select * from graph TypeVtx() into subgraph S")
        .unwrap();
    db
}
