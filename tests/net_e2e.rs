//! Networked end-to-end tests: real `gems-serve` processes on loopback
//! driven by the real `gems-shell` binary and by `RemoteSession` clients.
//!
//! The headline property: running a script through `gems-shell --connect`
//! is **byte-identical** to running it in-process — the wire protocol is
//! invisible in the output.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::Duration;

use graql::core::{Role, SessionOutput};
use graql::net::frame::{read_frame, write_frame, FrameRead, MAX_FRAME};
use graql::net::proto::{self, Msg, BATCH_ROWS, PROTO_VERSION};
use graql::net::{ConnectOptions, GemsSession, RemoteSession};
use graql::types::failpoints::Faults;
use graql::{Database, GraqlError, StmtOutput, Value};

/// A running `gems-serve` child. Dropping kills it; `stop` shuts it down
/// gracefully via stdin EOF.
struct Serve {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: String,
}

impl Serve {
    /// Spawns `gems-serve --addr 127.0.0.1:0 <extra args>` and waits for
    /// its readiness line to learn the bound port.
    fn spawn(extra: &[&str]) -> Serve {
        Serve::spawn_with(extra, &[])
    }

    /// Like [`Serve::spawn`], with extra environment variables — the
    /// hook for arming failpoints (`GRAQL_FAILPOINTS=…`) in the child
    /// only, fully isolated from this test process.
    fn spawn_with(extra: &[&str], envs: &[(&str, &str)]) -> Serve {
        let mut child = Command::new(env!("CARGO_BIN_EXE_gems-serve"))
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .envs(envs.iter().map(|&(k, v)| (k, v)))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("gems-serve spawns");
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        let banner = lines
            .next()
            .expect("a readiness line")
            .expect("readable stdout");
        let addr = banner
            .strip_prefix("gems-serve listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
            .to_string();
        Serve { child, stdin, addr }
    }

    /// Graceful shutdown: close stdin (EOF → drain) and wait.
    fn stop(mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
    }

    /// Hard kill — the "server dies mid-conversation" fault.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn shell(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_gems-shell"))
        .args(args)
        .output()
        .expect("gems-shell runs")
}

/// Writes the data fixtures and the script corpus: the repo demo script
/// plus the paper's exact Fig. 5 data with table, subgraph and pipeline
/// queries over it.
fn write_corpus(dir: &Path) -> Vec<PathBuf> {
    std::fs::create_dir_all(dir).unwrap();
    // Demo-script fixtures (same rows as tests/script_e2e.rs).
    std::fs::write(
        dir.join("Products.csv"),
        "p1,Alpha,m1,10.0\np2,Beta,m1,20.0\np3,Gamma,m2,30.0\n",
    )
    .unwrap();
    std::fs::write(dir.join("Producers.csv"), "m1,US\nm2,IT\n").unwrap();
    // Fig. 5 fixtures.
    std::fs::write(dir.join("producers5.csv"), "1,US\n2,IT\n3,FR\n4,US\n").unwrap();
    std::fs::write(dir.join("vendors5.csv"), "1,CA\n2,CN\n3,CA\n4,CA\n").unwrap();
    std::fs::write(dir.join("products5.csv"), "1,1\n2,4\n3,2\n4,2\n").unwrap();
    std::fs::write(dir.join("offers5.csv"), "1,1,1\n2,2,4\n3,3,2\n4,4,2\n").unwrap();

    let demo = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("scripts/berlin_demo.graql"),
    )
    .unwrap();
    let demo_path = dir.join("demo.graql");
    std::fs::write(&demo_path, demo).unwrap();

    // A grouped consumer right after the graph `into table Flows`, then a
    // later reader of `Flows`: a grouped aggregate over a graph result,
    // with the intermediate table registered for the statements after it.
    let fig5_path = dir.join("fig5.graql");
    std::fs::write(
        &fig5_path,
        "create table Producers(id integer, country varchar(4))\n\
         create table Vendors(id integer, country varchar(4))\n\
         create table Products(id integer, producer integer)\n\
         create table Offers(id integer, product integer, vendor integer)\n\
         create vertex ProducerCountry(country) from table Producers\n\
         create vertex VendorCountry(country) from table Vendors\n\
         create edge export with vertices (ProducerCountry as PC, VendorCountry as VC)\n\
             from table Products, Offers\n\
             where Products.producer = PC.id\n\
               and Offers.product = Products.id\n\
               and Offers.vendor = VC.id\n\
         ingest table Producers producers5.csv\n\
         ingest table Vendors vendors5.csv\n\
         ingest table Products products5.csv\n\
         ingest table Offers offers5.csv\n\
         select PC.country as a, VC.country as b from graph \
             def PC: ProducerCountry() --export--> def VC: VendorCountry() \
             into table Flows\n\
         select a, count(*) as n from table Flows group by a order by a\n\
         select a, b from table Flows order by a\n\
         select * from graph def PC: ProducerCountry() --export--> \
             def VC: VendorCountry() into subgraph flows\n\
         select country, count(*) as n from table Producers \
             group by country order by country\n",
    )
    .unwrap();
    vec![demo_path, fig5_path]
}

/// Every corpus script produces byte-identical stdout whether it runs
/// in-process or through `gems-shell --connect` against a fresh server.
#[test]
fn corpus_byte_identical_local_vs_remote() {
    let dir = std::env::temp_dir().join(format!("graql_net_e2e_{}", std::process::id()));
    let scripts = write_corpus(&dir);
    let dir_s = dir.to_str().unwrap();

    for script in &scripts {
        let script_s = script.to_str().unwrap();
        let local = shell(&[script_s, "--data-dir", dir_s]);
        assert!(
            local.status.success(),
            "local {script_s}: {}",
            String::from_utf8_lossy(&local.stderr)
        );

        let serve = Serve::spawn(&["--data-dir", dir_s]);
        let remote = shell(&[script_s, "--connect", &serve.addr, "--user", "admin"]);
        assert!(
            remote.status.success(),
            "remote {script_s}: {}",
            String::from_utf8_lossy(&remote.stderr)
        );
        serve.stop();

        assert_eq!(
            String::from_utf8_lossy(&local.stdout),
            String::from_utf8_lossy(&remote.stdout),
            "local and remote output diverge for {script_s}"
        );
        assert!(!local.stdout.is_empty(), "{script_s} printed nothing");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Replies of several column batches, with every column type and nulls
/// in each: the tables a `RemoteSession` assembles are cell-identical
/// (floats by bit pattern) and `render()`-identical to the in-process
/// ones, and `gems-shell --connect` prints what `gems-shell` prints.
#[test]
fn multi_batch_replies_identical_local_vs_remote() {
    let dir = std::env::temp_dir().join(format!("graql_net_wide_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dir_s = dir.to_str().unwrap();
    let n_rows = 2 * BATCH_ROWS + 300;
    let mut csv = String::new();
    for i in 0..n_rows {
        if i % 9 == 4 {
            csv.push_str(&format!("row{i},,,,\n")); // null in every nullable column
            continue;
        }
        let x = ["1.5", "-0.0", "NaN", "inf", "-inf", "2"][i % 6];
        let (m, d) = (1 + i % 12, 1 + i % 28);
        csv.push_str(&format!(
            "row{i},{},{},{x},2008-{m:02}-{d:02}\n",
            ["a", "bb", "ccc"][i % 3],
            i as i64 - 700
        ));
    }
    std::fs::write(dir.join("wide.csv"), csv).unwrap();
    let script = "create table Wide(id varchar(16), tag varchar(4), n integer, x float, d date)\n\
                  ingest table Wide wide.csv\n\
                  select * from table Wide\n\
                  select d, x, n, tag from table Wide where n > -650 order by n desc\n";
    let script_path = dir.join("wide.graql");
    std::fs::write(&script_path, script).unwrap();

    let mut db = Database::new();
    db.set_data_dir(&dir);
    let local = db.execute_script(script).unwrap();

    let serve = Serve::spawn(&["--data-dir", dir_s]);
    let mut s = RemoteSession::connect(serve.addr.as_str(), ConnectOptions::new("admin")).unwrap();
    let remote = s.execute_script(script).unwrap();
    assert_eq!(local.len(), remote.len());
    let bits = |v: Value| match v {
        Value::Float(f) => Value::Int(f.to_bits() as i64),
        other => other,
    };
    let mut tables = 0;
    for (l, r) in local.iter().zip(&remote) {
        let (StmtOutput::Table(l), SessionOutput::Table(r)) = (l, r) else {
            continue;
        };
        tables += 1;
        assert!(
            l.n_rows() > 2 * BATCH_ROWS,
            "a reply of at least three batches"
        );
        assert_eq!(l.schema(), r.schema());
        assert_eq!(l.n_rows(), r.n_rows());
        for (i, (a, b)) in l.iter_rows().zip(r.iter_rows()).enumerate() {
            assert!(
                a.into_iter().map(bits).eq(b.into_iter().map(bits)),
                "row {i}"
            );
        }
        assert_eq!(l.render(), r.render());
    }
    assert_eq!(tables, 2);
    drop(s);
    serve.stop();

    // Through the shell, against a fresh server (the script creates Wide).
    let script_s = script_path.to_str().unwrap();
    let local = shell(&[script_s, "--data-dir", dir_s]);
    let serve = Serve::spawn(&["--data-dir", dir_s]);
    let remote = shell(&[script_s, "--connect", &serve.addr, "--user", "admin"]);
    serve.stop();
    assert!(local.status.success() && remote.status.success());
    assert_eq!(
        String::from_utf8_lossy(&local.stdout),
        String::from_utf8_lossy(&remote.stdout)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The previous protocol's `Hello` is refused by name: a typed `Net`
/// error saying which versions met, then a close — a v5 client can never
/// be handed a column batch it would misparse as rows.
#[test]
fn v5_hello_is_refused_with_the_version_mismatch_error() {
    assert_eq!(PROTO_VERSION, 6, "the column-batch protocol");
    let serve = Serve::spawn(&[]);
    let stream = std::net::TcpStream::connect(serve.addr.as_str()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let hello = proto::encode_tagged(
        9,
        &Msg::Hello {
            proto: 5,
            user: "admin".to_string(),
        },
    );
    write_frame(&mut &stream, &hello, MAX_FRAME, &Faults::default()).unwrap();
    let FrameRead::Frame(reply) = read_frame(&mut &stream, MAX_FRAME, &Faults::default()).unwrap()
    else {
        panic!("expected an error frame, not silence");
    };
    let (
        id,
        Msg::Error {
            status, message, ..
        },
    ) = proto::decode_tagged(&reply).unwrap()
    else {
        panic!("expected an Error message");
    };
    assert_eq!(id, 9);
    let err = GraqlError::from_wire_status(status, message);
    assert!(matches!(err, GraqlError::Net(_)), "{err:?}");
    assert!(
        err.to_string()
            .contains("client speaks v5, server speaks v6"),
        "{err}"
    );
    assert!(matches!(
        read_frame(&mut &stream, MAX_FRAME, &Faults::default()),
        Ok(FrameRead::Closed) | Err(_)
    ));
    serve.stop();
}

/// `check` over the wire renders the same caret diagnostics as locally.
#[test]
fn remote_check_matches_local_check() {
    let dir = std::env::temp_dir().join(format!("graql_net_check_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("bad.graql");
    std::fs::write(
        &script,
        "create table T(a integer)\nselect nope from table T where a = 'x'\n",
    )
    .unwrap();
    let script_s = script.to_str().unwrap();

    let local = shell(&["check", script_s]);
    assert!(!local.status.success(), "errors must fail the check");

    let serve = Serve::spawn(&[]);
    let remote = shell(&[
        "check",
        script_s,
        "--connect",
        &serve.addr,
        "--user",
        "admin",
    ]);
    assert!(!remote.status.success());
    serve.stop();

    assert_eq!(
        String::from_utf8_lossy(&local.stdout),
        String::from_utf8_lossy(&remote.stdout),
        "local and remote diagnostics diverge"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// ≥4 concurrent clients (admin + analysts) interleaving DDL and queries
/// against one `gems-serve` process.
#[test]
fn concurrent_clients_against_one_process() {
    let serve = Serve::spawn(&[
        "--user",
        "a1=analyst",
        "--user",
        "a2=analyst",
        "--user",
        "a3=analyst",
    ]);
    let addr = serve.addr.clone();

    let mut admin = RemoteSession::connect(addr.as_str(), ConnectOptions::new("admin")).unwrap();
    assert_eq!(admin.role(), Role::Admin);
    admin
        .execute_script("create table Nums(n integer)\ncreate vertex NumV(n) from table Nums")
        .unwrap();

    let mut handles = Vec::new();
    for user in ["a1", "a2", "a3"] {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            let mut s = RemoteSession::connect(addr.as_str(), ConnectOptions::new(user)).unwrap();
            assert_eq!(s.role(), Role::Analyst);
            for i in 0..6 {
                let outputs = s.execute_script("select n from table Nums").unwrap();
                assert!(
                    matches!(&outputs[..], [SessionOutput::Table(_)]),
                    "{user} iter {i}: {outputs:?}"
                );
                // Analysts cannot do DDL, and the denial is a clean typed
                // error that leaves the session usable.
                let err = s
                    .execute_script("create table Hack(x integer)")
                    .unwrap_err();
                assert!(err.to_string().contains("analyst"), "{err}");
            }
        }));
    }
    for i in 0..6 {
        admin
            .execute_script(&format!("create table Side{i}(x integer)"))
            .unwrap();
    }
    for h in handles {
        h.join().unwrap();
    }
    let describe = admin.describe().unwrap();
    assert!(describe.contains("Side5"), "{describe}");
    assert!(describe.contains("net:"), "{describe}");
    serve.stop();
}

/// Killing the server process mid-conversation yields a clean typed
/// error on the client — no panic, no hang.
#[test]
fn server_killed_mid_conversation_is_typed_error() {
    let mut serve = Serve::spawn(&[]);
    let mut s = RemoteSession::connect(
        serve.addr.as_str(),
        ConnectOptions::new("admin").with_timeout(Duration::from_secs(5)),
    )
    .unwrap();
    s.execute_script("create table T(a integer)").unwrap();

    serve.kill();

    let started = std::time::Instant::now();
    let err = s
        .execute_script("select a from table T")
        .expect_err("server is dead");
    assert!(matches!(err, GraqlError::Net(_)), "{err:?}");
    // Generous bound: the read-only select is idempotent, so the client
    // burns its full retry budget (reconnects fail fast, but each retry
    // backs off) before surfacing the error.
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "client hung after server death"
    );
}

/// A slow query is simulated with a failpoint-injected *virtual* delay
/// armed via the child's environment — no wall-clock-sized sleeps and no
/// real timing races: the 600ms delay deterministically outlasts the
/// client's 150ms reply deadline.
#[test]
fn request_deadline_via_virtual_delay() {
    let serve = Serve::spawn_with(
        &[],
        &[("GRAQL_FAILPOINTS", "net/server/exec-delay=1*delay(600)")],
    );
    let mut s = RemoteSession::connect(
        serve.addr.as_str(),
        ConnectOptions::new("admin")
            .with_timeout(Duration::from_millis(150))
            .with_retries(0),
    )
    .unwrap();

    let started = std::time::Instant::now();
    let err = s
        .execute_script("create table T(a integer)")
        .expect_err("the virtual delay must outlast the reply deadline");
    assert!(matches!(err, GraqlError::Net(_)), "{err:?}");
    assert!(err.to_string().contains("deadline"), "{err}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "deadline did not bound the wait"
    );

    // The session heals on a fresh connection (the fault's single firing
    // is spent), and the delayed request still completed server-side —
    // exactly once, visible as soon as the 600ms delay elapses.
    s.ping().unwrap();
    let give_up = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match s.execute_script("select a from table T") {
            Ok(outputs) => {
                assert!(
                    matches!(&outputs[..], [SessionOutput::Table(_)]),
                    "{outputs:?}"
                );
                break;
            }
            Err(_) if std::time::Instant::now() < give_up => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("delayed create never landed: {e}"),
        }
    }
    serve.stop();
}

/// A server-side idle hangup is invisible to the client: the next
/// idempotent request transparently reconnects and retries. The wait
/// only needs to *exceed* the server's idle timeout (wide one-sided
/// margin), so machine load can slow the test but never flake it.
#[test]
fn idle_hangup_reconnects_transparently() {
    let serve = Serve::spawn(&["--idle-timeout-ms", "50"]);
    let mut s = RemoteSession::connect(serve.addr.as_str(), ConnectOptions::new("admin")).unwrap();
    s.execute_script("create table T(a integer)").unwrap();

    std::thread::sleep(Duration::from_millis(500));

    let before = s.retries();
    let outputs = s.execute_script("select a from table T").unwrap();
    assert!(
        matches!(&outputs[..], [SessionOutput::Table(_)]),
        "{outputs:?}"
    );
    assert!(
        s.retries() > before,
        "the idle hangup should have forced a reconnect-and-retry"
    );
    serve.stop();
}

/// Pipelined multiplexing (proto v5): a window of tagged requests goes
/// out before any reply is read, and the client demuxes the replies by
/// request id — including collecting them in the *reverse* of submission
/// order. Each request carries a distinguishing predicate so a reply
/// swapped onto the wrong id would be caught by its payload, not just by
/// its presence.
#[test]
fn pipelined_requests_demux_out_of_order() {
    let dir = std::env::temp_dir().join(format!("graql_net_pipe_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let rows: String = (1..=32).map(|i| format!("{i}\n")).collect();
    std::fs::write(dir.join("nums.csv"), rows).unwrap();

    let serve = Serve::spawn(&["--data-dir", dir.to_str().unwrap()]);
    let mut s = RemoteSession::connect(serve.addr.as_str(), ConnectOptions::new("admin")).unwrap();
    s.execute_script("create table Nums(n integer)\ningest table Nums nums.csv")
        .unwrap();

    // Fill the window: 32 distinct point lookups in flight at once.
    let ids: Vec<(u64, i64)> = (1..=32)
        .map(|i| {
            let id = s
                .submit(&format!("select n from table Nums where n = {i}"))
                .unwrap();
            (id, i)
        })
        .collect();
    assert_eq!(s.pending(), ids.len());

    // Drain newest-first: the ids prove each reply found its request.
    for &(id, i) in ids.iter().rev() {
        let outputs = s.wait(id).unwrap();
        match &outputs[..] {
            [SessionOutput::Table(t)] => {
                assert_eq!(t.n_rows(), 1, "request {i}");
                assert_eq!(t.get(0, 0), graql::Value::Int(i), "reply misrouted");
            }
            other => panic!("request {i}: {other:?}"),
        }
    }
    assert_eq!(s.pending(), 0);
    serve.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Per-request deadline isolation: one slow response must not stall
/// unrelated request ids on the same connection. The first submitted
/// request eats a one-shot 600ms virtual delay; the second, submitted
/// behind it, completes on another worker well before the delay elapses
/// — and the slow one still lands afterwards.
#[test]
fn slow_request_does_not_stall_other_ids() {
    let serve = Serve::spawn_with(
        &[],
        &[("GRAQL_FAILPOINTS", "net/server/exec-delay=1*delay(600)")],
    );
    let mut s = RemoteSession::connect(
        serve.addr.as_str(),
        ConnectOptions::new("admin")
            .with_timeout(Duration::from_secs(10))
            .with_retries(0),
    )
    .unwrap();

    let slow_sent = std::time::Instant::now();
    let slow = s.submit("create table Slow(a integer)").unwrap();
    // Both requests run on workers at once and the delay fires once, for
    // whichever reaches the site first: give the slow one's worker a head
    // start so the fast request never takes the delay itself.
    std::thread::sleep(Duration::from_millis(100));
    let fast_sent = std::time::Instant::now();
    let fast = s.submit("create table Fast(a integer)").unwrap();

    s.wait(fast).expect("the fast request must complete");
    let fast_elapsed = fast_sent.elapsed();
    s.wait(slow).expect("the delayed request still completes");
    let slow_elapsed = slow_sent.elapsed();

    assert!(
        fast_elapsed < Duration::from_millis(450),
        "fast request stalled {fast_elapsed:?} behind the delayed one"
    );
    assert!(
        slow_elapsed >= Duration::from_millis(500),
        "the virtual delay never fired ({slow_elapsed:?}) — the isolation \
         claim above proved nothing"
    );

    // Both requests really executed, in spite of the reply reordering.
    let outputs = s.execute_script("select a from table Slow").unwrap();
    assert!(matches!(&outputs[..], [SessionOutput::Table(_)]));
    let outputs = s.execute_script("select a from table Fast").unwrap();
    assert!(matches!(&outputs[..], [SessionOutput::Table(_)]));
    serve.stop();
}

/// The graceful path: `shutdown` on stdin drains and exits 0.
#[test]
fn shutdown_command_drains_and_exits_zero() {
    let mut serve = Serve::spawn(&[]);
    let mut s = RemoteSession::connect(serve.addr.as_str(), ConnectOptions::new("admin")).unwrap();
    s.execute_script("create table T(a integer)").unwrap();
    drop(s); // send Goodbye before asking for shutdown

    let mut stdin = serve.stdin.take().unwrap();
    writeln!(stdin, "shutdown").unwrap();
    drop(stdin);
    let status = serve.child.wait().unwrap();
    assert!(status.success(), "graceful shutdown exits 0: {status:?}");
}
