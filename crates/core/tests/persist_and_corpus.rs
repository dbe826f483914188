//! Cross-feature integration: persistence round-trips the full Berlin
//! database, and the extended query corpus (Q3–Q5) agrees before and
//! after a save/load cycle.

use graql_core::{load_dir, save_dir, StmtOutput};
use graql_types::failpoints::Faults;
use graql_types::Value;

fn params(db: &mut graql_core::Database) {
    db.set_param("Product1", Value::str("product0"));
    db.set_param("Country1", Value::str("US"));
    db.set_param("Country2", Value::str("DE"));
    db.set_param("Feature1", Value::str("feature0"));
    db.set_param("MaxPrice", Value::Float(5000.0));
    db.set_param("Type1", Value::str("type0"));
}

#[test]
fn berlin_database_survives_save_load() {
    let dir = std::env::temp_dir().join(format!("graql_berlin_persist_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut db = graql_bsbm::build_database(graql_bsbm::Scale::new(80)).unwrap();
    params(&mut db);
    save_dir(&db, &dir, &Faults::default()).unwrap();
    let mut back = load_dir(&dir, &Faults::default()).unwrap();
    params(&mut back);

    // Graph shape identical.
    let (v1, e1) = {
        let g = db.graph().unwrap();
        (g.n_vertices(), g.n_edges())
    };
    let (v2, e2) = {
        let g = back.graph().unwrap();
        (g.n_vertices(), g.n_edges())
    };
    assert_eq!((v1, e1), (v2, e2));

    // Every corpus query produces identical tables.
    for q in [
        graql_bsbm::queries::q1(),
        graql_bsbm::queries::q2(),
        graql_bsbm::queries::q3(),
        graql_bsbm::queries::q4(),
        graql_bsbm::queries::q5(),
    ] {
        let a = db.execute_script(q).unwrap();
        let b = back.execute_script(q).unwrap();
        let (StmtOutput::Table(ta), StmtOutput::Table(tb)) = (a.last().unwrap(), b.last().unwrap())
        else {
            panic!()
        };
        assert_eq!(ta.n_rows(), tb.n_rows(), "{q}");
        for r in 0..ta.n_rows() {
            assert_eq!(ta.row(r), tb.row(r), "{q} row {r}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
