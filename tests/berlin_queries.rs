//! Berlin Q1/Q2 validated against an *independent* reference
//! implementation: plain Rust hash-joins directly over the generated CSV
//! text, sharing no code with the query engine.

use std::collections::HashMap;

use graql::bsbm::{self, queries, Scale};
use graql::core::Server;
use graql::prelude::*;

/// Parses a generated CSV table into rows of fields (the generator only
/// quotes comment fields, which the reference splits around carefully).
fn rows(csv: &str) -> Vec<Vec<String>> {
    graql::table::csv::parse_csv(csv)
        .unwrap()
        .into_iter()
        .map(|r| r.into_iter().collect())
        .collect()
}

struct Reference {
    /// product → features
    product_features: HashMap<String, Vec<String>>,
    /// product → producer
    producer_of: HashMap<String, String>,
    /// producer → country
    producer_country: HashMap<String, String>,
    /// review → (product, person)
    reviews: Vec<(String, String)>,
    /// person → country
    person_country: HashMap<String, String>,
    /// product → types
    product_types: HashMap<String, Vec<String>>,
}

impl Reference {
    fn build(data: &bsbm::BsbmData) -> Reference {
        let mut product_features: HashMap<String, Vec<String>> = HashMap::new();
        for r in rows(data.csv("ProductFeatures").unwrap()) {
            product_features
                .entry(r[0].clone())
                .or_default()
                .push(r[1].clone());
        }
        let mut producer_of = HashMap::new();
        for r in rows(data.csv("Products").unwrap()) {
            producer_of.insert(r[0].clone(), r[4].clone());
        }
        let mut producer_country = HashMap::new();
        for r in rows(data.csv("Producers").unwrap()) {
            producer_country.insert(r[0].clone(), r[5].clone());
        }
        let reviews = rows(data.csv("Reviews").unwrap())
            .into_iter()
            .map(|r| (r[2].clone(), r[3].clone()))
            .collect();
        let mut person_country = HashMap::new();
        for r in rows(data.csv("Persons").unwrap()) {
            person_country.insert(r[0].clone(), r[4].clone());
        }
        let mut product_types: HashMap<String, Vec<String>> = HashMap::new();
        for r in rows(data.csv("ProductTypes").unwrap()) {
            product_types
                .entry(r[0].clone())
                .or_default()
                .push(r[1].clone());
        }
        Reference {
            product_features,
            producer_of,
            producer_country,
            reviews,
            person_country,
            product_types,
        }
    }

    /// Q2 reference: products sharing a feature with `product`, with the
    /// shared-feature count, sorted by (count desc, id asc), top 10.
    fn q2(&self, product: &str) -> Vec<(String, i64)> {
        let own: std::collections::HashSet<&String> = self
            .product_features
            .get(product)
            .map(|v| v.iter().collect())
            .unwrap_or_default();
        let mut counts: HashMap<&String, i64> = HashMap::new();
        for (other, feats) in &self.product_features {
            if other == product {
                continue;
            }
            let shared = feats.iter().filter(|f| own.contains(f)).count() as i64;
            if shared > 0 {
                counts.insert(other, shared);
            }
        }
        let mut out: Vec<(String, i64)> = counts.into_iter().map(|(k, v)| (k.clone(), v)).collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out.truncate(10);
        out
    }

    /// Q1 reference: for reviews by persons from `c2` of products whose
    /// producer is from `c1`, count (review, type) pairs per type.
    fn q1(&self, c1: &str, c2: &str) -> Vec<(String, i64)> {
        let mut counts: HashMap<&String, i64> = HashMap::new();
        for (product, person) in &self.reviews {
            if self.person_country.get(person).map(String::as_str) != Some(c2) {
                continue;
            }
            let Some(producer) = self.producer_of.get(product) else {
                continue;
            };
            if self.producer_country.get(producer).map(String::as_str) != Some(c1) {
                continue;
            }
            for ty in self.product_types.get(product).into_iter().flatten() {
                *counts.entry(ty).or_default() += 1;
            }
        }
        let mut out: Vec<(String, i64)> = counts.into_iter().map(|(k, v)| (k.clone(), v)).collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out.truncate(10);
        out
    }
}

fn run_to_table(db: &mut Database, script: &str) -> graql::table::Table {
    let outs = db.execute_script(script).unwrap();
    match outs.into_iter().last().unwrap() {
        StmtOutput::Table(t) => t,
        other => panic!("expected table, got {other:?}"),
    }
}

fn table_pairs(t: &graql::table::Table) -> Vec<(String, i64)> {
    (0..t.n_rows())
        .map(|r| (t.get(r, 0).to_string(), t.get(r, 1).as_int().unwrap()))
        .collect()
}

#[test]
fn q2_matches_reference_at_multiple_scales_and_products() {
    for products in [60, 250] {
        let scale = Scale::new(products);
        let data = bsbm::generate(scale);
        let reference = Reference::build(&data);
        let mut db = Database::new();
        db.execute_script(bsbm::schema_ddl()).unwrap();
        db.execute_script(bsbm::graph_ddl()).unwrap();
        bsbm::load(&mut db, &data).unwrap();
        for pid in ["product0", "product7"] {
            db.set_param("Product1", Value::str(pid));
            let got = table_pairs(&run_to_table(&mut db, queries::q2()));
            let expected = reference.q2(pid);
            assert_eq!(got, expected, "Q2({pid}) at scale {products}");
        }
    }
}

#[test]
fn q1_matches_reference_across_country_pairs() {
    let scale = Scale::new(300);
    let data = bsbm::generate(scale);
    let reference = Reference::build(&data);
    let mut db = Database::new();
    db.execute_script(bsbm::schema_ddl()).unwrap();
    db.execute_script(bsbm::graph_ddl()).unwrap();
    bsbm::load(&mut db, &data).unwrap();
    let mut nonempty = 0;
    for (c1, c2) in [("US", "DE"), ("DE", "US"), ("IT", "FR"), ("US", "US")] {
        db.set_param("Country1", Value::str(c1));
        db.set_param("Country2", Value::str(c2));
        let got = table_pairs(&run_to_table(&mut db, queries::q1()));
        let expected = reference.q1(c1, c2);
        assert_eq!(got, expected, "Q1({c1}, {c2})");
        if !expected.is_empty() {
            nonempty += 1;
        }
    }
    assert!(
        nonempty >= 2,
        "the scale must be large enough for meaningful Q1 answers"
    );
}

/// Compares `got` with `tests/plans/<name>.expected`, or rewrites that
/// file when `GOLDEN_BLESS` is set.
fn check_golden(name: &str, got: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/plans")
        .join(format!("{name}.expected"));
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("{name}: missing .expected (run with GOLDEN_BLESS=1)"));
    assert!(
        got == expected,
        "{name}: output diverged from {} (re-bless intentional changes with \
         GOLDEN_BLESS=1)\n--- expected ---\n{expected}\n--- got ---\n{got}",
        path.display()
    );
}

/// The Berlin database at scale 300 with the BI parameters bound.
fn berlin_300() -> Database {
    let mut db = bsbm::build_database(Scale::new(300)).unwrap();
    db.set_param("Product1", Value::str("product0"));
    db.set_param("Country1", Value::str("US"));
    db.set_param("Country2", Value::str("DE"));
    db
}

/// Appends one `explain` case to a golden text: a header, the statement,
/// and the full plan.
fn explain_case(out: &mut String, db: &mut Database, label: &str, stmt: &str) {
    let plan = db
        .explain_str(stmt)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    out.push_str(&format!("== {label} ==\n{stmt}\n{plan}\n"));
}

/// The `explain` surface of the analysis pipeline, pinned in full: on a
/// loaded Berlin database both BI queries, Figs. 9-12, a table select
/// and a bounded repetition render their per-operator cardinality
/// estimates from the catalog statistics store, and a statement with a
/// dead `or`-branch is explained as written, the dead branch as its own
/// `or-branch` with no candidates. The last case is the traversal of the
/// `H0203` diagnostic fixture, over that fixture's database.
#[test]
fn explain_annotates_berlin_queries_with_estimates() {
    let mut db = berlin_300();
    let mut out = String::new();
    for (name, q) in [("q1", queries::q1()), ("q2", queries::q2())] {
        // Each Berlin query is a graph select into a temp table followed
        // by a table select; explain each statement on its own. The table
        // half scans the temp table the first half creates, so the full
        // query runs once before it is explained.
        let (graph_stmt, table_stmt) = q.split_once('\n').unwrap();
        explain_case(&mut out, &mut db, &format!("{name} graph half"), graph_stmt);
        db.execute_script(q).unwrap();
        explain_case(&mut out, &mut db, &format!("{name} table half"), table_stmt);
    }
    let (fig11_full, fig11_endpoints) = queries::fig11();
    let (fig12_seed, fig12_seeded) = queries::fig12().split_once('\n').unwrap();
    for (label, stmt) in [
        ("fig9", queries::fig9()),
        ("fig10", queries::fig10()),
        ("fig11 full", fig11_full),
        ("fig11 endpoints", fig11_endpoints),
        ("fig12 seed", fig12_seed),
    ] {
        explain_case(&mut out, &mut db, label, stmt);
    }
    db.execute_str(fig12_seed).unwrap();
    explain_case(&mut out, &mut db, "fig12 seeded", fig12_seeded);
    explain_case(
        &mut out,
        &mut db,
        "table select",
        "select vendor, price from table Offers where price > 5000 and deliveryDays <= 3",
    );
    explain_case(
        &mut out,
        &mut db,
        "bounded repetition",
        "select * from graph ProductVtx(id = %Product1%) \
         { --feature--> FeatureVtx() <--feature-- ProductVtx() }{2,8} --type--> TypeVtx()",
    );
    // A dead or-branch runs as written: `or-branch 1`, with 0 candidates.
    explain_case(
        &mut out,
        &mut db,
        "dead or-branch",
        "select * from graph ProductVtx() --producer--> ProducerVtx() \
         or ProductVtx(1 > 2) --producer--> ProducerVtx()",
    );

    let mut fanout = Database::new();
    fanout
        .execute_script(
            "create table A(id integer)
             create table B(id integer)
             create table AB(a integer, b integer)
             create vertex VA(id) from table A
             create vertex VB(id) from table B
             create edge ab with vertices (VA, VB) from table AB
                 where AB.a = VA.id and AB.b = VB.id",
        )
        .unwrap();
    fanout.ingest_str("A", "0\n").unwrap();
    let b_csv: String = (0..10).map(|i| format!("{i}\n")).collect();
    let ab_csv: String = (0..10).map(|i| format!("0,{i}\n")).collect();
    fanout.ingest_str("B", &b_csv).unwrap();
    fanout.ingest_str("AB", &ab_csv).unwrap();
    explain_case(
        &mut out,
        &mut fanout,
        "h0203 fixture",
        "select * from graph VA() { --ab--> VB() <--ab-- VA() }{2,8} --ab--> VB()",
    );
    check_golden("berlin_explain", &out);
}

/// `H0203` and `explain` run one estimator over one resolved plan, so the
/// hint quotes the number the plan prints for the same operator, with
/// `%Product1%` estimated as a constant of unknown value in both.
#[test]
fn h0203_quotes_the_estimate_explain_prints() {
    let stmt = "select * from graph ProductVtx(id = %Product1%) \
                { --feature--> FeatureVtx() <--feature-- ProductVtx() }{2,8} --type--> TypeVtx()";
    let mut db = berlin_300();
    let plan = db.explain_str(stmt).unwrap();
    let group = plan.lines().find(|l| l.contains("repeated 2..=8")).unwrap();
    let est = group
        .split("est ~")
        .nth(1)
        .unwrap()
        .split(' ')
        .next()
        .unwrap();
    let hints: Vec<String> = db
        .check_script_str(stmt)
        .iter()
        .filter(|d| d.code == "H0203")
        .map(|d| d.message.clone())
        .collect();
    let expected = format!("catalog statistics estimate ~{est} intermediate rows at group {{2,8}}");
    assert_eq!(hints, [expected], "{plan}");
}

/// `describe`'s catalog sections over the loaded Berlin database: every
/// vertex type's instance count and every edge type's count and mean
/// degrees, in declaration order.
#[test]
fn describe_reports_berlin_type_statistics() {
    let server = Server::new(berlin_300());
    let text = server.describe().unwrap();
    let start = text
        .find("vertex types:\n")
        .expect("a vertex types section");
    let end = text.find("metrics:\n").expect("a metrics section");
    check_golden("berlin_describe", &text[start..end]);
}

/// The `est ~` lines of a rendered plan.
fn estimate_lines(plan: &str) -> Vec<&str> {
    plan.lines().filter(|l| l.contains("est ~")).collect()
}

/// `profile` renders the same estimates as `explain` without any earlier
/// statement having touched the statistics: on a fresh database and on a
/// fresh served session alike.
#[test]
fn profile_estimates_match_explain_on_fresh_databases() {
    let (graph_stmt, _) = queries::q1().split_once('\n').unwrap();
    let explained = berlin_300().explain_str(graph_stmt).unwrap();
    let expected = estimate_lines(&explained);
    assert!(!expected.is_empty(), "explain has estimates:\n{explained}");
    let profile = format!("profile {}", graph_stmt.split(" into ").next().unwrap());
    let embedded = match berlin_300().execute_str(&profile).unwrap() {
        StmtOutput::Profile(report) => report.plan,
        other => panic!("expected a profile, got {other:?}"),
    };
    assert_eq!(estimate_lines(&embedded), expected, "embedded:\n{embedded}");
    let server = Server::new(berlin_300());
    let mut session = server.connect("admin").unwrap();
    let served = match session.execute_script(&profile).unwrap().pop() {
        Some(StmtOutput::Profile(report)) => report.plan,
        other => panic!("expected a profile, got {other:?}"),
    };
    assert_eq!(estimate_lines(&served), expected, "served:\n{served}");
}
