//! The diagnostic framework end to end: golden caret renderings for the
//! corpus under `tests/diagnostics/`, per-lint positive/negative checks,
//! clean bills of health for the paper's own scripts, and the `check`
//! subcommand's exit-status contract.
//!
//! Regenerate the `.expected` files after an intentional output change
//! with `GOLDEN_BLESS=1 cargo test --test diagnostics`.

use graql::prelude::*;
use graql::Severity;

/// The Berlin catalog (schema + graph DDL), no data: what a client sees
/// when it checks a script against the live front-end catalog.
fn berlin_db() -> Database {
    let mut db = Database::new();
    db.execute_script(graql::bsbm::schema_ddl()).unwrap();
    db.execute_script(graql::bsbm::graph_ddl()).unwrap();
    db
}

/// A tiny database whose one edge type has mean out-degree 10, with the
/// graph views built so degree statistics feed the cost lints.
fn fanout_db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "create table A(id integer)
         create table B(id integer)
         create table AB(a integer, b integer)
         create vertex VA(id) from table A
         create vertex VB(id) from table B
         create edge ab with vertices (VA, VB) from table AB
             where AB.a = VA.id and AB.b = VB.id",
    )
    .unwrap();
    db.ingest_str("A", "0\n").unwrap();
    let b_csv: String = (0..10).map(|i| format!("{i}\n")).collect();
    let ab_csv: String = (0..10).map(|i| format!("0,{i}\n")).collect();
    db.ingest_str("B", &b_csv).unwrap();
    db.ingest_str("AB", &ab_csv).unwrap();
    db.graph().unwrap();
    db
}

/// The database a corpus script is checked against, by the code its file
/// name starts with. Degree- and cardinality-driven diagnostics need the
/// statistics of the small high-fanout database; every other code checks
/// against the data-free Berlin catalog.
const FANOUT_CODES: &[&str] = &["w0301", "h0202", "h0203"];

fn corpus_db(name: &str) -> Database {
    let code = name.split('_').next().unwrap_or_default();
    if FANOUT_CODES.contains(&code) {
        fanout_db()
    } else {
        berlin_db()
    }
}

fn check_file(db: &mut Database, path: &std::path::Path) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    let name = path.file_name().unwrap().to_str().unwrap();
    db.check_script_str(&text).render(&text, name)
}

#[test]
fn golden_corpus() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/diagnostics");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().and_then(|x| x.to_str()) == Some("graql")).then_some(p)
        })
        .collect();
    paths.sort();
    assert!(paths.len() >= 16, "corpus present");
    let bless = std::env::var_os("GOLDEN_BLESS").is_some();
    let mut failures = Vec::new();
    for path in paths {
        let name = path.file_stem().unwrap().to_str().unwrap().to_string();
        let mut db = corpus_db(&name);
        let got = check_file(&mut db, &path);
        let expected_path = path.with_extension("expected");
        if bless {
            std::fs::write(&expected_path, &got).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&expected_path)
            .unwrap_or_else(|_| panic!("{name}: missing .expected (run with GOLDEN_BLESS=1)"));
        if got != expected {
            failures.push(format!(
                "== {name}: expected ==\n{expected}== got ==\n{got}"
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// Every corpus script named after a code actually reports that code.
#[test]
fn corpus_scripts_report_their_code() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/diagnostics");
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|x| x.to_str()) != Some("graql") {
            continue;
        }
        let name = path.file_stem().unwrap().to_str().unwrap().to_string();
        let Some(code) = name.split('_').next().filter(|c| {
            c.len() == 5
                && c.starts_with(['e', 'w', 'h'])
                && c[1..].chars().all(|ch| ch.is_ascii_digit())
        }) else {
            continue;
        };
        let db = corpus_db(&name);
        let code = code.to_uppercase();
        let text = std::fs::read_to_string(&path).unwrap();
        let diags = db.check_script_str(&text);
        assert!(
            diags.iter().any(|d| d.code == code),
            "{name}: expected a {code} diagnostic, got:\n{}",
            diags.render(&text, &name)
        );
    }
}

/// Every statically reachable code declared in `graql_types::codes` has a
/// named golden: all `E01xx`-`E03xx` codes except the `*_OTHER` fallbacks
/// (`E0x00`, wrapped errors with no construct of their own), and every
/// warning and hint. The codes are read from the declarations themselves,
/// so a new code without a golden fails here.
#[test]
fn every_static_code_has_a_golden() {
    let decls = include_str!("../crates/types/src/diag.rs");
    let codes: Vec<&str> = decls
        .lines()
        .filter_map(|l| l.trim().strip_prefix("pub const "))
        .filter_map(|l| l.split('"').nth(1))
        .filter(|c| {
            c.starts_with(['W', 'H'])
                || (["E01", "E02", "E03"].contains(&&c[..3]) && !c.ends_with("00"))
        })
        .collect();
    assert!(codes.len() >= 25, "code table parsed: {codes:?}");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/diagnostics");
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let missing: Vec<&&str> = codes
        .iter()
        .filter(|c| {
            let prefix = format!("{}_", c.to_lowercase());
            !names
                .iter()
                .any(|n| n.starts_with(&prefix) && n.ends_with(".graql"))
        })
        .collect();
    assert!(missing.is_empty(), "codes without a golden: {missing:?}");
}

/// One pass over a script with several independent faults reports all of
/// them, each located at a real source position.
#[test]
fn multi_fault_script_reports_every_fault() {
    let db = berlin_db();
    let text = "select nope from table Offers where price > 'cheap' and unknowncol = 1\n\
                select id from table Missing\n";
    let diags = db.check_script_str(text);
    let errors: Vec<_> = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert!(
        errors.len() >= 3,
        "want >= 3 errors, got:\n{}",
        diags.render(text, "multi")
    );
    for d in &errors {
        assert!(d.span.is_known(), "located: {d}");
        assert!(d.span.line >= 1 && d.span.col >= 1, "1-based: {d}");
    }
    // Distinct faults, not one error echoed thrice.
    let codes: std::collections::BTreeSet<_> = errors.iter().map(|d| d.code).collect();
    assert!(codes.len() >= 3, "distinct codes: {codes:?}");
}

/// The paper's own scripts (Fig. 2/3 DDL, Fig. 6/7 queries, Figs. 9–13)
/// come back clean: no errors, no warnings.
#[test]
fn paper_scripts_check_clean() {
    // The DDL itself, checked incrementally from an empty catalog.
    let db = Database::new();
    let diags = db.check_script_str(graql::bsbm::schema_ddl());
    assert!(
        diags.is_empty(),
        "schema DDL:\n{}",
        diags.render(graql::bsbm::schema_ddl(), "ddl")
    );
    let mut db = Database::new();
    db.execute_script(graql::bsbm::schema_ddl()).unwrap();
    let q = graql::bsbm::graph_ddl();
    let diags = db.check_script_str(q);
    assert!(diags.is_empty(), "graph DDL:\n{}", diags.render(q, "ddl"));
    // The query corpus, checked under a governed configuration (a deadline
    // or byte budget is how deployments silence W0303; the figures use `*`
    // repetitions).
    let fig11 = graql::bsbm::queries::fig11();
    for src in [
        graql::bsbm::queries::q1(),
        graql::bsbm::queries::q2(),
        graql::bsbm::queries::fig9(),
        graql::bsbm::queries::fig10(),
        fig11.0,
        fig11.1,
        graql::bsbm::queries::fig12(),
        graql::bsbm::queries::fig13(),
    ] {
        let mut db = berlin_db();
        db.config_mut().budget.max_query_bytes = Some(1 << 30);
        let diags = db.check_script_str(src);
        assert!(diags.is_empty(), "{src}:\n{}", diags.render(src, "fig"));
    }
}

/// W0303 fires on unbounded repetition, and on a finite bound above
/// `UNGOVERNED_COUNT_LIMIT`, exactly when the database has no governance
/// budget, and a budget silences it.
#[test]
fn w0303_ungoverned_repetition() {
    let src = "select * from graph TypeVtx() { --subclass--> TypeVtx() }* --> TypeVtx()";
    let ungoverned = berlin_codes(src);
    assert!(ungoverned.contains(&"W0303"), "{ungoverned:?}");
    let mut governed = berlin_db();
    governed.config_mut().budget.deadline = Some(std::time::Duration::from_secs(30));
    assert!(!codes_of(&mut governed, src).contains(&"W0303"));
    // A small bounded repetition needs no budget to terminate — not
    // flagged; a bound above the limit is, unless a budget is configured.
    let ok = berlin_codes(
        "select * from graph TypeVtx() { --subclass--> TypeVtx() }{1,3} --> TypeVtx()",
    );
    assert!(!ok.contains(&"W0303"), "{ok:?}");
    let huge =
        "select * from graph TypeVtx() { --subclass--> TypeVtx() }{1000000000} --> TypeVtx()";
    assert!(berlin_codes(huge).contains(&"W0303"));
    assert!(!codes_of(&mut governed, huge).contains(&"W0303"));
}

// ---------------------------------------------------------------------------
// Positive/negative pairs per lint
// ---------------------------------------------------------------------------

fn codes_of(db: &mut Database, src: &str) -> Vec<&'static str> {
    db.check_script_str(src).iter().map(|d| d.code).collect()
}

fn berlin_codes(src: &str) -> Vec<&'static str> {
    codes_of(&mut berlin_db(), src)
}

#[test]
fn w0201_unused_label() {
    let warn = berlin_codes(
        "select y.id from graph def x: ProductVtx() --producer--> def y: ProducerVtx()",
    );
    assert!(warn.contains(&"W0201"), "{warn:?}");
    // Used as a later step (path unification) — not flagged.
    let ok = berlin_codes(
        "select x.id from graph foreach x: ProductVtx() --feature--> FeatureVtx() <--feature-- x",
    );
    assert!(!ok.contains(&"W0201"), "{ok:?}");
    // Used in the projection — not flagged.
    let ok = berlin_codes("select y.id from graph ProductVtx() --producer--> def y: ProducerVtx()");
    assert!(!ok.contains(&"W0201"), "{ok:?}");
}

/// W0201 counts a label as used when its name appears as a step name, a
/// condition qualifier, or any part of a projected, grouping or ordering
/// column (`SelectStmt::for_each_label_ref`). So a label that only shares
/// its name with a projected attribute (`y.id` next to `def id:`) is not
/// flagged, while a label no name refers to is.
#[test]
fn w0201_counts_any_name_part_as_a_label_reference() {
    let src = "select y.id from graph def id: ProductVtx() --producer--> def y: ProducerVtx()";
    let codes = berlin_codes(src);
    assert!(!codes.contains(&"W0201"), "{codes:?}");
    let src = "select y.id from graph def x: ProductVtx() --producer--> def y: ProducerVtx()";
    assert!(berlin_codes(src).contains(&"W0201"));
}

#[test]
fn w0202_unread_result() {
    let warn =
        berlin_codes("select id from table Products into table T\nselect id from table Producers");
    assert!(warn.contains(&"W0202"), "{warn:?}");
    // Read downstream — not flagged.
    let ok = berlin_codes("select id from table Products into table T\nselect id from table T");
    assert!(!ok.contains(&"W0202"), "{ok:?}");
    // The final statement's result is the script output — not flagged.
    let ok = berlin_codes("select id from table Products into table T");
    assert!(!ok.contains(&"W0202"), "{ok:?}");
}

#[test]
fn w0203_always_false() {
    for bad in [
        "select id from table Products where label = 'a' and label = 'b'",
        "select id from table Products where 1 = 2",
        "select id from table Offers where price < price",
    ] {
        assert!(berlin_codes(bad).contains(&"W0203"), "{bad}");
    }
    for ok in [
        "select id from table Products where label = 'a' or label = 'b'",
        "select id from table Products where 1 = 1",
        "select id from table Offers where price <= price",
        // A parameter may equal anything at bind time.
        "select id from table Products where label = 'a' and label = %P%",
    ] {
        assert!(!berlin_codes(ok).contains(&"W0203"), "{ok}");
    }
}

#[test]
fn w0204_shadowed_result() {
    let warn = berlin_codes(
        "select id from table Products into table T\n\
         select label from table Products into table T\n\
         select id from table T",
    );
    assert!(warn.contains(&"W0204"), "{warn:?}");
    // Read between the two definitions (refined in place) — not flagged.
    let ok = berlin_codes(
        "select id, label from table Products into table T\n\
         select id from table T into table T\n\
         select id from table T",
    );
    assert!(!ok.contains(&"W0204"), "{ok:?}");
}

#[test]
fn w0205_unsatisfiable_step() {
    let warn =
        berlin_codes("select * from graph ProductVtx() --producer--> [] --subclass--> TypeVtx()");
    assert!(warn.contains(&"W0205"), "{warn:?}");
    // product arrives at ProductVtx and producer departs from ProductVtx —
    // the variant can match, not flagged.
    let ok =
        berlin_codes("select * from graph OfferVtx() --product--> [] --producer--> ProducerVtx()");
    assert!(!ok.contains(&"W0205"), "{ok:?}");
}

#[test]
fn w0301_unbounded_high_fanout() {
    let mut db = fanout_db();
    let src = "select * from graph VA() { --ab--> VB() <--ab-- VA() }* --> VA()";
    assert!(codes_of(&mut db, src).contains(&"W0301"));
    // Bounded quantifier — not flagged.
    let src = "select * from graph VA() { --ab--> VB() <--ab-- VA() }{1,2} --> VA()";
    assert!(!codes_of(&mut db, src).contains(&"W0301"));
    // Low fanout direction (the reverse hop has mean in-degree 1): a
    // star over only the cheap direction — not flagged. Also: without a
    // built graph there are no statistics, so the lint stays silent.
    let mut cold = berlin_db();
    let src = "select * from graph TypeVtx() { --subclass--> TypeVtx() }* --> TypeVtx()";
    assert!(!codes_of(&mut cold, src).contains(&"W0301"));
}

#[test]
fn w0302_zero_repetition() {
    let warn =
        berlin_codes("select * from graph TypeVtx() { --subclass--> TypeVtx() }{0} --> TypeVtx()");
    assert!(warn.contains(&"W0302"), "{warn:?}");
    let ok =
        berlin_codes("select * from graph TypeVtx() { --subclass--> TypeVtx() }{1} --> TypeVtx()");
    assert!(!ok.contains(&"W0302"), "{ok:?}");
}

#[test]
fn h0201_top_without_order() {
    let hint = berlin_codes("select top 5 id from table Products");
    assert!(hint.contains(&"H0201"), "{hint:?}");
    let ok = berlin_codes("select top 5 id from table Products order by id asc");
    assert!(!ok.contains(&"H0201"), "{ok:?}");
}

#[test]
fn h0202_top_sort_spill() {
    // `top … order by` over a table fed by the mean-degree-10 `ab` edge:
    // the sort input is a high-fanout spill.
    let mut db = fanout_db();
    let src = "select b from graph VA() --ab--> def b: VB() into table Spill\n\
               select top 3 b from table Spill order by b desc";
    let hint = codes_of(&mut db, src);
    assert!(hint.contains(&"H0202"), "{hint:?}");
    // Without `top` the full ordering is intentional — not flagged.
    let src = "select b from graph VA() --ab--> def b: VB() into table Spill\n\
               select b from table Spill order by b desc";
    let ok = codes_of(&mut db, src);
    assert!(!ok.contains(&"H0202"), "{ok:?}");
    // A table that no graph select produced — not flagged.
    let mut cold = berlin_db();
    let ok = codes_of(
        &mut cold,
        "select top 5 id from table Products order by id asc",
    );
    assert!(!ok.contains(&"H0202"), "{ok:?}");
}

// ---------------------------------------------------------------------------
// The `check` subcommand's exit-status contract
// ---------------------------------------------------------------------------

fn run_shell_check(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_gems-shell"))
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn shell_check_exit_codes() {
    // The shell checks against an empty catalog, so the script carries its
    // own DDL; the select then trips the §III-A type check.
    let bad = std::env::temp_dir().join("graql_shell_check_bad.graql");
    std::fs::write(
        &bad,
        "create table Offers(id varchar(10), price float)\n\
         select id from table Offers where price > 'cheap'\n",
    )
    .unwrap();
    // Errors → non-zero, and the caret rendering goes to stdout.
    let out = run_shell_check(&["check", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("error[E0201]"), "{stdout}");
    assert!(stdout.contains("-->"), "caret rendering: {stdout}");
    // Warnings only → zero. (`--check-only` spelling also accepted.)
    let demo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scripts/berlin_demo.graql");
    let out = run_shell_check(&[demo.to_str().unwrap(), "--check-only"]);
    assert!(out.status.success(), "warnings are not fatal");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("warning[W0202]"), "{stdout}");
}

// ---------------------------------------------------------------------------
// Structured diagnostics through the server session
// ---------------------------------------------------------------------------

#[test]
fn session_check_reports_role_violations_with_everything_else() {
    let server = graql::core::Server::new(berlin_db());
    server
        .create_user("ada", graql::core::Role::Analyst)
        .unwrap();
    let sess = server.connect("ada").unwrap();
    let diags = sess.check_script(
        "create table X(a integer)\nselect id from table Offers where price > 'cheap'",
    );
    let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
    assert!(
        codes.contains(&"E0906"),
        "role violation reported: {codes:?}"
    );
    assert!(
        codes.contains(&"E0201"),
        "type error reported alongside: {codes:?}"
    );
    // An admin checking the same script sees only the type error.
    let sess = server.connect("admin").unwrap();
    let diags = sess.check_script(
        "create table X(a integer)\nselect id from table Offers where price > 'cheap'",
    );
    let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
    assert!(!codes.contains(&"E0906"), "{codes:?}");
    assert!(codes.contains(&"E0201"), "{codes:?}");
}
