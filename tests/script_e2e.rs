//! End-to-end script execution: CSV files on disk (the "parallel
//! filesystem"), `ingest table … file.csv` statements, and the full
//! DDL → ingest → query pipeline, run statement by statement.

use graql::prelude::*;

fn write_fixture(dir: &std::path::Path) {
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("products.csv"), "p1,m1\np2,m1\np3,m2\n").unwrap();
    std::fs::write(dir.join("producers.csv"), "m1,US\nm2,IT\n").unwrap();
}

const SCRIPT: &str = r#"
create table Products(id varchar(10), producer varchar(10))
create table Producers(id varchar(10), country varchar(10))
create vertex ProductVtx(id) from table Products
create vertex ProducerVtx(id) from table Producers
create edge producer with vertices (ProductVtx, ProducerVtx)
    where ProductVtx.producer = ProducerVtx.id
ingest table Products products.csv
ingest table Producers producers.csv
select ProductVtx.id from graph ProductVtx() --producer--> ProducerVtx(country = 'US') into table UsProducts
select count(*) as n from table UsProducts
"#;

#[test]
fn file_ingest_script_end_to_end() {
    let dir = std::env::temp_dir().join(format!("graql_e2e_{}", std::process::id()));
    write_fixture(&dir);
    let mut db = Database::new();
    db.set_data_dir(&dir);
    let outs = db.execute_script(SCRIPT).unwrap();
    assert!(matches!(outs[5], StmtOutput::Ingested { rows: 3, .. }));
    assert!(matches!(outs[6], StmtOutput::Ingested { rows: 2, .. }));
    let StmtOutput::Table(t) = &outs[8] else {
        panic!()
    };
    assert_eq!(t.get(0, 0), Value::Int(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_ingest_file_is_a_clean_error() {
    let mut db = Database::new();
    db.set_data_dir("/nonexistent-graql-dir");
    db.execute_str("create table T(a integer)").unwrap();
    let err = db.execute_str("ingest table T nope.csv").unwrap_err();
    assert!(matches!(err, GraqlError::Ingest(_)), "{err}");
}

#[test]
fn repo_demo_script_runs() {
    let dir = std::env::temp_dir().join(format!("graql_demo_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("Products.csv"),
        "p1,Alpha,m1,10.0\np2,Beta,m1,20.0\np3,Gamma,m2,30.0\n",
    )
    .unwrap();
    std::fs::write(dir.join("Producers.csv"), "m1,US\nm2,IT\n").unwrap();
    let script = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scripts/berlin_demo.graql"),
    )
    .unwrap();
    let mut db = Database::new();
    db.set_data_dir(&dir);
    let outs = db.execute_script(&script).unwrap();
    let StmtOutput::Table(t) = outs.last().unwrap() else {
        panic!()
    };
    assert_eq!(t.get(0, 0), Value::str("US"));
    assert_eq!(t.get(0, 1), Value::Int(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shell_binary_runs_a_script() {
    let dir = std::env::temp_dir().join(format!("graql_shell_{}", std::process::id()));
    write_fixture(&dir);
    let script_path = dir.join("demo.graql");
    std::fs::write(&script_path, SCRIPT).unwrap();
    let exe = env!("CARGO_BIN_EXE_gems-shell");
    let out = std::process::Command::new(exe)
        .arg(&script_path)
        .arg("--data-dir")
        .arg(&dir)
        .output()
        .expect("shell runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ingested 3 rows into Products"), "{stdout}");
    assert!(stdout.contains("| 2 |"), "count output present: {stdout}");

    // --out exports the last table result as CSV.
    let out_csv = dir.join("result.csv");
    let out = std::process::Command::new(exe)
        .arg(&script_path)
        .arg("--data-dir")
        .arg(&dir)
        .arg("--out")
        .arg(&out_csv)
        .output()
        .expect("shell runs");
    assert!(out.status.success());
    let csv = std::fs::read_to_string(&out_csv).unwrap();
    assert!(csv.starts_with("n\n"), "header row: {csv}");
    assert!(csv.contains("\n2"), "{csv}");
    std::fs::remove_dir_all(&dir).ok();
}
