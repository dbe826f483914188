//! Persistence round-trip on the paper's exact Fig. 5 data: `save_dir` →
//! `load_dir` reproduces the many-to-one graph edge for edge, and a
//! fresh `gems-serve --load` of the saved directory describes the
//! database identically to the original in-process server.

use graql::core::{load_dir, save_dir, Database, Server};
use graql::prelude::*;
use graql::types::failpoints::Faults;

const FIG4_DDL: &str = "create table Producers(id integer, country varchar(4))
create table Vendors(id integer, country varchar(4))
create table Products(id integer, producer integer)
create table Offers(id integer, product integer, vendor integer)
create vertex ProducerCountry(country) from table Producers
create vertex VendorCountry(country) from table Vendors
create edge export with vertices (ProducerCountry as PC, VendorCountry as VC)
    from table Products, Offers
    where Products.producer = PC.id
      and Offers.product = Products.id
      and Offers.vendor = VC.id";

fn fig5_db() -> Database {
    let mut db = Database::new();
    db.execute_script(FIG4_DDL).unwrap();
    db.ingest_str("Producers", "1,US\n2,IT\n3,FR\n4,US\n")
        .unwrap();
    db.ingest_str("Vendors", "1,CA\n2,CN\n3,CA\n4,CA\n")
        .unwrap();
    db.ingest_str("Products", "1,1\n2,4\n3,2\n4,2\n").unwrap();
    db.ingest_str("Offers", "1,1,1\n2,2,4\n3,3,2\n4,4,2\n")
        .unwrap();
    db
}

/// The sorted (producer country, vendor country) pairs of the `export`
/// edge set — Fig. 5's ground truth is exactly US→CA and IT→CN.
fn export_pairs(db: &mut Database) -> Vec<(String, String)> {
    let g = db.graph().unwrap();
    let pc = g.vtype("ProducerCountry").unwrap();
    let vc = g.vtype("VendorCountry").unwrap();
    let ex = g.etype("export").unwrap();
    let es = g.eset(ex);
    let mut pairs: Vec<(String, String)> = (0..es.len() as u32)
        .map(|e| {
            let (s, t) = es.endpoints(e);
            (
                g.vset(pc).key_of(s)[0].to_string(),
                g.vset(vc).key_of(t)[0].to_string(),
            )
        })
        .collect();
    pairs.sort();
    pairs
}

#[test]
fn save_load_reproduces_fig5_graph_and_describe() {
    let dir = std::env::temp_dir().join(format!("graql_fig5_persist_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut original = fig5_db();
    let original_pairs = export_pairs(&mut original);
    assert_eq!(
        original_pairs,
        vec![("IT".into(), "CN".into()), ("US".into(), "CA".into())],
        "Fig. 5 ground truth before persisting"
    );
    save_dir(&original, &dir, &Faults::default()).unwrap();
    let original_describe = Server::new(original).describe().unwrap();

    // Reload from disk: same graph, edge for edge.
    let mut reloaded = load_dir(&dir, &Faults::default()).unwrap();
    assert_eq!(export_pairs(&mut reloaded), original_pairs);
    let g = reloaded.graph().unwrap();
    assert_eq!(g.vset(g.vtype("ProducerCountry").unwrap()).len(), 3);
    assert_eq!(g.vset(g.vtype("VendorCountry").unwrap()).len(), 2);

    // Identical describe output — catalog, sizes and degree statistics
    // all survive the round trip.
    let reloaded_describe = Server::new(reloaded).describe().unwrap();
    assert_eq!(original_describe, reloaded_describe);

    // And the query of Fig. 5 still answers identically.
    let mut db = load_dir(&dir, &Faults::default()).unwrap();
    let outs = db
        .execute_script(
            "select PC.country as a, VC.country as b from graph \
             def PC: ProducerCountry() --export--> def VC: VendorCountry() into table Flows\n\
             select a, b from table Flows order by a",
        )
        .unwrap();
    let Some(StmtOutput::Table(t)) = outs.last() else {
        panic!()
    };
    assert_eq!(t.n_rows(), 2);
    assert_eq!(t.get(0, 0), Value::str("IT"));
    assert_eq!(t.get(1, 0), Value::str("US"));

    std::fs::remove_dir_all(&dir).ok();
}

/// The saved directory boots a networked server (`gems-serve --load`)
/// whose remote describe matches the in-process one byte for byte (up to
/// the appended wire-counter section, which only the server has).
#[test]
fn saved_dir_serves_identically_over_the_wire() {
    use graql::net::{ConnectOptions, GemsSession, RemoteSession};
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    let dir = std::env::temp_dir().join(format!("graql_fig5_serve_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let original = fig5_db();
    save_dir(&original, &dir, &Faults::default()).unwrap();
    let local_describe = Server::new(original).describe().unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_gems-serve"))
        .args(["--addr", "127.0.0.1:0", "--load", dir.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap();
    let banner = BufReader::new(child.stdout.take().unwrap())
        .lines()
        .next()
        .unwrap()
        .unwrap();
    let addr = banner
        .strip_prefix("gems-serve listening on ")
        .unwrap()
        .to_string();

    let mut session = RemoteSession::connect(addr.as_str(), ConnectOptions::new("admin")).unwrap();
    let remote_describe = session.describe().unwrap();
    let catalog_part = remote_describe.split("\nnet:").next().unwrap().to_string();
    assert_eq!(local_describe.trim_end(), catalog_part.trim_end());

    drop(session);
    drop(child.stdin.take()); // EOF → graceful shutdown
    let _ = child.wait();
    std::fs::remove_dir_all(&dir).ok();
}
