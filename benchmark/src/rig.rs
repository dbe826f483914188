//! Set-up, the correctness reference, and the facts about the host.
//!
//! Set-up is what a deployment does before it can answer: generate the
//! BSBM CSVs, declare the schema and the graph views, `ingest` every
//! table through an admin session, build the vertex/edge views and the
//! statistics, and start `graql_net::serve` on loopback. Server and
//! executor run with `ServeOptions::default()` and `ExecConfig::default()`
//! so that a change to a default shows.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use graql_bsbm::Scale;
use graql_core::{Database, DurabilityOptions, Server, SessionOutput, StmtOutput};
use graql_net::{serve, NetServer, ServeOptions};
use graql_table::Table;

use crate::gen::{fnv1a, Script, FNV_OFFSET};
use crate::json::Json;

/// BSBM products; every other table size follows from it (≈150k rows,
/// ≈9 MB of CSV).
pub const PRODUCTS: usize = 10_000;

pub type Error = Box<dyn std::error::Error + Send + Sync>;
pub type Result<T> = std::result::Result<T, Error>;

pub fn scale(seed: u64) -> Scale {
    Scale::new(PRODUCTS).with_seed(seed)
}

/// A loaded database served on loopback.
pub struct Rig {
    pub server: Server,
    pub net: NetServer,
    /// Holds the CSVs `ingest` reads and, when durable, the WAL directory.
    pub data_dir: PathBuf,
}

impl Rig {
    /// The durable server's database directory.
    pub fn wal_dir(&self) -> PathBuf {
        self.data_dir.join("db")
    }
}

pub struct SetupStats {
    pub seconds: f64,
    pub csv_bytes: u64,
    /// Resident set growth from just before the load to just after the
    /// views and statistics exist.
    pub resident_growth_bytes: u64,
}

/// Builds one rig under `dir` (created fresh).
pub fn setup(seed: u64, durable: bool, dir: &Path) -> Result<(Rig, SetupStats)> {
    let started = Instant::now();
    let _ = std::fs::remove_dir_all(dir);
    let data = graql_bsbm::generate(scale(seed));
    data.write_dir(dir)?;
    let csv_bytes = data.tables().map(|(_, csv)| csv.len() as u64).sum();
    let tables: Vec<&str> = data.tables().map(|(name, _)| name).collect();
    drop(data);

    let resident_before = proc_status_kb("VmRSS:");
    let server = if durable {
        Server::open_durable(&dir.join("db"), DurabilityOptions::default())?.0
    } else {
        Server::new(Database::new())
    };
    server.database_mut().set_data_dir(dir);
    let mut admin = server.connect("admin")?;
    admin.execute_script(graql_bsbm::schema_ddl())?;
    admin.execute_script(graql_bsbm::graph_ddl())?;
    for table in tables {
        admin.execute_script(&format!("ingest table {table} {table}.csv"))?;
    }
    // `describe` needs the vertex/edge views and their statistics, so it
    // builds both and publishes the epoch every later read starts from.
    server.describe()?;
    let resident_after = proc_status_kb("VmRSS:");
    let net = serve(server.clone(), ServeOptions::default())?;
    Ok((
        Rig {
            server,
            net,
            data_dir: dir.to_path_buf(),
        },
        SetupStats {
            seconds: started.elapsed().as_secs_f64(),
            csv_bytes,
            resident_growth_bytes: resident_after.saturating_sub(resident_before) * 1024,
        },
    ))
}

/// A line of `/proc/self/status` in KiB (`VmRSS:`, `VmHWM:`); 0 where the
/// platform has no such file.
pub fn proc_status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// A reply reduced to what is compared: its table rows and the FNV-1a of
/// its shell-contract rendering (what `gems-shell` prints for it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub hash: u64,
}

/// A table over this many rows is large: rendering all 40k rows of a scan
/// reply costs as much as the server spends producing it, and doing so on
/// every reply would turn `scan_stream` into a benchmark of this check.
const RENDER_ROWS: usize = 1024;

/// How a large table is digested. Smaller tables are always rendered
/// whole, so the two digests of a reply without a large table are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coverage {
    /// Every row is rendered, [`RENDER_ROWS`] at a time so that the
    /// check's own strings do not decide `rss_mb`: each script's first
    /// reply in a run, and every reply of the warm-up.
    Full,
    /// [`RENDER_ROWS`] evenly spaced rows (the last one included) and the
    /// row count: every later reply of a script already checked in full.
    Sampled,
}

/// What a script must answer, digested both ways.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    pub full: Digest,
    pub sampled: Digest,
}

impl Expect {
    pub fn of(&self, coverage: Coverage) -> Digest {
        match coverage {
            Coverage::Full => self.full,
            Coverage::Sampled => self.sampled,
        }
    }

    /// Whether the reply holds a large table.
    pub fn large(&self) -> bool {
        self.full != self.sampled
    }
}

struct Digester {
    coverage: Coverage,
    i: usize,
    rows: u64,
    hash: u64,
}

impl Digester {
    fn new(coverage: Coverage) -> Digester {
        Digester {
            coverage,
            i: 0,
            rows: 0,
            hash: FNV_OFFSET,
        }
    }

    fn line(&mut self, text: &str) {
        self.hash = fnv1a(self.hash, format!("[{}] {text}\n", self.i).as_bytes());
        self.i += 1;
    }

    fn table(&mut self, t: &Table) {
        let n = t.n_rows();
        self.rows += n as u64;
        self.line(&format!("table ({n} rows):"));
        if n <= RENDER_ROWS {
            self.hash = fnv1a(self.hash, t.render().as_bytes());
            return;
        }
        let rows: Vec<u32> = match self.coverage {
            Coverage::Full => (0..n as u32).collect(),
            Coverage::Sampled => (1..=RENDER_ROWS)
                .map(|k| (k * n / RENDER_ROWS - 1) as u32)
                .collect(),
        };
        for block in rows.chunks(RENDER_ROWS) {
            self.hash = fnv1a(self.hash, t.gather(block).render().as_bytes());
        }
    }

    fn finish(self) -> Digest {
        Digest {
            rows: self.rows,
            hash: self.hash,
        }
    }
}

/// Digest of a wire (or in-process session) reply.
pub fn digest_session(outputs: &[SessionOutput], coverage: Coverage) -> Digest {
    let mut d = Digester::new(coverage);
    for out in outputs {
        match out {
            SessionOutput::Created(name) => d.line(&format!("created {name}")),
            SessionOutput::Ingested { table, rows } => {
                d.line(&format!("ingested {rows} rows into {table}"))
            }
            SessionOutput::Table(t) => d.table(t),
            SessionOutput::Subgraph { summary, .. } => d.line(&format!("subgraph: {summary}")),
            SessionOutput::Pipelined => d.line("pipelined into the next statement"),
            SessionOutput::Profile { text, .. } => d.line(&format!("profile:\n{text}")),
        }
    }
    d.finish()
}

/// What an `ingest` of `rows` rows into `table` must reply with.
pub fn expect_ingest(table: &str, rows: usize) -> Expect {
    let digest = digest_session(
        &[SessionOutput::Ingested {
            table: table.to_string(),
            rows: rows as u64,
        }],
        Coverage::Full,
    );
    Expect {
        full: digest,
        sampled: digest,
    }
}

/// Digest of an in-process `Database::execute_script` answer.
fn digest_statements(db: &Database, outputs: &[StmtOutput], coverage: Coverage) -> Result<Digest> {
    let mut d = Digester::new(coverage);
    for out in outputs {
        match out {
            StmtOutput::Created(name) => d.line(&format!("created {name}")),
            StmtOutput::Ingested { table, rows } => {
                d.line(&format!("ingested {rows} rows into {table}"))
            }
            StmtOutput::Table(t) => d.table(t),
            StmtOutput::Subgraph(sg) => {
                let graph = db.graph_ref().ok_or("subgraph result without a graph")?;
                d.line(&format!("subgraph: {}", sg.summary(graph)))
            }
            StmtOutput::Pipelined => d.line("pipelined into the next statement"),
            StmtOutput::Profile(report) => d.line(&format!("profile:\n{}", report.render())),
        }
    }
    Ok(d.finish())
}

/// Answers every script once through in-process `Database::execute_script`
/// on a private copy of the served snapshot: the reference each wire
/// reply is checked against.
pub fn reference(snapshot: &Arc<Database>, scripts: &[Script]) -> Result<Vec<Expect>> {
    let mut db = Database::clone(snapshot);
    scripts
        .iter()
        .map(|script| {
            let outputs = db
                .execute_script(&script.text)
                .map_err(|e| format!("reference run of {:?} failed: {e}", script.text))?;
            Ok(Expect {
                full: digest_statements(&db, &outputs, Coverage::Full)?,
                sampled: digest_statements(&db, &outputs, Coverage::Sampled)?,
            })
        })
        .collect()
}

/// Refuses hosts the closed loops do not fit on: one generator thread per
/// connection plus the server's workers need two cores.
pub fn cores() -> Result<usize> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        return Err(format!(
            "this benchmark needs nproc >= 2 (found {cores}): client and server share the host"
        )
        .into());
    }
    Ok(cores)
}

/// os, cpu, cores, rustc and the defaults that resolve from the core
/// count — printed with every result, because the numbers mean nothing
/// without them.
pub fn host_fingerprint() -> Json {
    let first_line = |path: &str, key: &str| {
        std::fs::read_to_string(path).ok().and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
    };
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // `graql_net::serve` resolves `workers == 0` to the core count with a
    // floor of 4 (crates/net/src/server.rs); `NetServer` does not say how
    // many it started, so the rule is repeated here.
    let serve_workers = match ServeOptions::default().workers {
        0 => cores.max(4),
        n => n,
    };
    Json::obj(vec![
        (
            "os",
            Json::str(format!("{} {kernel}", std::env::consts::OS)),
        ),
        (
            "cpu",
            Json::str(
                first_line("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string()),
            ),
        ),
        ("cores", Json::Num(cores as f64)),
        ("rustc", Json::str(rustc)),
        ("serve_workers", Json::Num(serve_workers as f64)),
        (
            "exec_threads",
            Json::Num(graql_core::ExecConfig::default().threads as f64),
        ),
    ])
}
