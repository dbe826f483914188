//! In-process loopback tests: a real `NetServer` on 127.0.0.1 driven by
//! real `RemoteSession`s, covering the full request surface, concurrent
//! sessions, timeouts and fault behaviour.

use std::net::TcpListener;
use std::time::Duration;

use graql_core::{Database, Role, Server, SessionOutput};
use graql_net::{serve, ConnectOptions, GemsSession, RemoteSession, ServeOptions};
use graql_types::{GraqlError, Value};

/// The paper's Fig. 4 schema (tables + many-to-one country vertices +
/// the `export` edge).
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

/// Loads the paper's exact Fig. 5 rows.
fn load_fig5(server: &Server) {
    let mut db = server.database_mut();
    db.ingest_str("Producers", "1,US\n2,IT\n3,FR\n4,US\n")
        .unwrap();
    db.ingest_str("Vendors", "1,CA\n2,CN\n3,CA\n4,CA\n")
        .unwrap();
    db.ingest_str("Products", "1,1\n2,4\n3,2\n4,2\n").unwrap();
    db.ingest_str("Offers", "1,1,1\n2,2,4\n3,3,2\n4,4,2\n")
        .unwrap();
}

fn boot(server: Server) -> graql_net::NetServer {
    serve(server, ServeOptions::default()).expect("serve")
}

#[test]
fn remote_session_full_surface() {
    let server = Server::new(Database::new());
    server.create_user("ada", Role::Analyst).unwrap();
    let net = &mut boot(server.clone());

    let mut admin = RemoteSession::connect(net.local_addr(), ConnectOptions::new("admin")).unwrap();
    assert_eq!(admin.user(), "admin");
    assert_eq!(admin.role(), Role::Admin);
    assert!(!admin.server_banner().is_empty());
    admin.ping().unwrap();

    // DDL over the wire.
    let outputs = admin.execute_script(FIG4_DDL).unwrap();
    assert_eq!(outputs.len(), 7);
    assert!(matches!(&outputs[0], SessionOutput::Created(n) if n == "Producers"));
    load_fig5(&server);

    // File-based ingest over the wire (the only ingest the language has).
    let dir = std::env::temp_dir().join(format!("graql_net_ingest_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("more_producers.csv"), "5,JP\n").unwrap();
    server.database_mut().set_data_dir(&dir);
    let outputs = admin
        .execute_script("ingest table Producers 'more_producers.csv'")
        .unwrap();
    assert!(
        matches!(&outputs[..], [SessionOutput::Ingested { table, rows: 1 }] if table == "Producers"),
        "{outputs:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // A table result streams back and reassembles identically.
    let outputs = admin
        .execute_script("select id, country from table Producers order by id")
        .unwrap();
    let [SessionOutput::Table(t)] = &outputs[..] else {
        panic!("expected one table, got {outputs:?}");
    };
    assert_eq!(t.n_rows(), 5);
    assert_eq!(t.get(0, 0), Value::Int(1));
    assert_eq!(t.get(0, 1), Value::str("US"));

    // A graph query with a subgraph result (Fig. 5: two export edges).
    let outputs = admin
        .execute_script(
            "select * from graph def PC: ProducerCountry() --export--> \
             def VC: VendorCountry() into subgraph flows",
        )
        .unwrap();
    let [SessionOutput::Subgraph {
        n_edges, summary, ..
    }] = &outputs[..]
    else {
        panic!("expected one subgraph, got {outputs:?}");
    };
    assert_eq!(*n_edges, 2, "Fig. 5: exactly two export edges");
    assert!(!summary.is_empty());

    // The analyst shares the same database but not DDL rights.
    let mut ada = RemoteSession::connect(net.local_addr(), ConnectOptions::new("ada")).unwrap();
    assert_eq!(ada.role(), Role::Analyst);
    let outputs = ada
        .execute_script("select country from table Vendors order by country")
        .unwrap();
    let [SessionOutput::Table(t)] = &outputs[..] else {
        panic!("expected one table");
    };
    assert_eq!(t.n_rows(), 4);
    let err = ada
        .execute_script("create table Evil(x integer)")
        .unwrap_err();
    assert!(err.to_string().contains("analyst"), "{err}");

    // check_script round-trips diagnostics with codes and severities.
    let diags = ada
        .check_script("select nope from table Producers")
        .unwrap();
    assert!(diags.has_errors());
    assert!(diags.iter().any(|d| d.code.starts_with("E01")), "{diags:?}");

    // describe includes catalog objects and the net: counters section.
    let text = admin.describe().unwrap();
    assert!(text.contains("Producers"), "{text}");
    assert!(text.contains("net:"), "{text}");
    assert!(text.contains("connections:"), "{text}");

    // An unknown user is rejected with a typed error at connect time.
    let err = RemoteSession::connect(net.local_addr(), ConnectOptions::new("nobody"))
        .expect_err("unknown user must not connect");
    assert!(err.to_string().contains("nobody"), "{err}");

    net.shutdown();
}

#[test]
fn concurrent_sessions_interleave() {
    let server = Server::new(Database::new());
    for u in ["a1", "a2", "a3"] {
        server.create_user(u, Role::Analyst).unwrap();
    }
    let mut net = boot(server.clone());
    let addr = net.local_addr();

    // Admin sets up the schema over the wire; data loads in-process.
    let mut admin = RemoteSession::connect(addr, ConnectOptions::new("admin")).unwrap();
    admin.execute_script(FIG4_DDL).unwrap();
    load_fig5(&server);

    // Four clients (one admin doing DDL, three analysts querying) run
    // interleaved from their own threads.
    let mut handles = Vec::new();
    for user in ["a1", "a2", "a3"] {
        handles.push(std::thread::spawn(move || {
            let mut s = RemoteSession::connect(addr, ConnectOptions::new(user)).unwrap();
            for _ in 0..8 {
                let outputs = s
                    .execute_script("select id from table Producers order by id")
                    .unwrap();
                let [SessionOutput::Table(t)] = &outputs[..] else {
                    panic!("expected a table");
                };
                assert_eq!(t.n_rows(), 4);
            }
        }));
    }
    for i in 0..4 {
        admin
            .execute_script(&format!("create table Extra{i}(x integer)"))
            .unwrap();
    }
    for h in handles {
        h.join().unwrap();
    }

    let text = admin.describe().unwrap();
    assert!(text.contains("Extra3"), "{text}");
    net.shutdown();
}

#[test]
fn shutdown_drains_then_refuses() {
    let server = Server::new(Database::new());
    let mut net = boot(server);
    let addr = net.local_addr();

    let mut s = RemoteSession::connect(addr, ConnectOptions::new("admin")).unwrap();
    s.execute_script("create table V(id integer)").unwrap();

    net.shutdown();

    // After shutdown the port no longer accepts (or the session errors
    // cleanly) — either way a typed error, not a hang or panic.
    let err = s
        .execute_script("select id from table V")
        .expect_err("server is gone");
    assert!(matches!(err, GraqlError::Net(_)), "{err:?}");

    let err = RemoteSession::connect(
        addr,
        ConnectOptions {
            connect_timeout: Duration::from_millis(500),
            timeout: Duration::from_millis(500),
            ..ConnectOptions::new("admin")
        },
    )
    .expect_err("no server behind the port anymore");
    assert!(matches!(err, GraqlError::Net(_)), "{err:?}");
}

#[test]
fn silent_server_trips_client_deadline() {
    // A listener that accepts and then never says anything: the client's
    // reply deadline must fire with a typed error — no hang. The mute
    // thread blocks on a channel (not a fixed sleep), so the test never
    // races real time against the client's deadline; retry is disabled
    // because the *deadline* is under test, not recovery.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let hold = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let _ = done_rx.recv(); // hold the socket until the client gave up
        drop(stream);
    });

    let err = RemoteSession::connect(
        addr,
        ConnectOptions::new("admin")
            .with_timeout(Duration::from_millis(300))
            .with_retries(0),
    )
    .expect_err("handshake against a mute server must time out");
    assert!(matches!(err, GraqlError::Net(_)), "{err:?}");
    assert!(err.to_string().contains("deadline"), "{err}");
    done_tx.send(()).unwrap();
    hold.join().unwrap();
}

#[test]
fn mid_stream_disconnect_is_typed_error() {
    // A server that answers the handshake, then dies mid-conversation.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        use graql_net::frame::{read_frame, write_frame, FrameRead, MAX_FRAME};
        use graql_net::proto::{self, Msg};
        use graql_types::failpoints::Faults;
        let (stream, _) = listener.accept().unwrap();
        let mut r = &stream;
        let FrameRead::Frame(_hello) = read_frame(&mut r, MAX_FRAME, &Faults::default()).unwrap()
        else {
            return;
        };
        let welcome = proto::encode_tagged(
            1,
            &Msg::Welcome {
                proto: graql_net::PROTO_VERSION,
                role: 0,
                server: "fake".to_string(),
            },
        );
        let mut w = &stream;
        write_frame(&mut w, &welcome, MAX_FRAME, &Faults::default()).unwrap();
        // Wait for the Submit, then vanish without replying.
        let mut r = &stream;
        let _ = read_frame(&mut r, MAX_FRAME, &Faults::default());
        drop(stream);
    });

    let mut s = RemoteSession::connect(
        addr,
        ConnectOptions::new("admin").with_timeout(Duration::from_secs(5)),
    )
    .unwrap();
    let err = s
        .execute_script("select x from table T")
        .expect_err("server died mid-query");
    assert!(matches!(err, GraqlError::Net(_)), "{err:?}");
    fake.join().unwrap();
}
