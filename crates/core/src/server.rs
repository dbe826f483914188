//! The GEMS front-end server (paper §III): "the server centralizes access
//! to the database system in order to provide access control, distinct
//! user accounts, as well as a central metadata repository (catalog) of
//! all existing database objects … The catalog contains updated
//! information on the sizes of those objects (e.g. how many rows in
//! table? how many vertex instances of certain type?)."
//!
//! Reproduction: user accounts with roles, sessions that gate statements
//! by role, and a catalog-describe service backed by the live statistics.
//!
//! The server is **shared state**: it hands out any number of concurrent
//! [`Session`]s (each owns an `Arc` of the server internals, no borrow of
//! the server itself), so the networked front-end (`graql-net`) can serve
//! one session per connection from multiple threads.
//!
//! Concurrency is **epoch-based MVCC at statement granularity**: the
//! database lives behind an epoch pointer (`RwLock<Arc<Database>>` locked
//! only for the instant of cloning or swapping the `Arc`). Read-only
//! scripts capture the current epoch and execute entirely lock-free
//! against it — a long ingest never blocks them, they simply keep seeing
//! the epoch they captured. Writers serialize on a separate write lock,
//! apply each statement to a private shallow clone (tables, graph views
//! and named results are `Arc`-shared, so the clone is a handful of
//! pointer bumps), and publish the new epoch only after the statement —
//! and, on a durable server, its write-ahead-log record — has committed.
//! In-flight readers are never invalidated; new readers see the new epoch.
//!
//! A durable server ([`Server::open_durable`]) writes every mutating
//! statement to a [`crate::wal::Wal`] before publishing its epoch, so an
//! acknowledged statement survives a crash (see the `wal` module for the
//! commit/checkpoint/recovery protocol).
//!
//! Each server owns one [`Faults`] handle (see
//! `graql_types::failpoints`): its WAL, the guards it mints for queries
//! and the network layer wrapping it all consult that handle, so a fault
//! armed on one server never fires in another.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use graql_parser::ast::{self, Stmt};
use graql_types::failpoints::Faults;
use graql_types::{
    GraqlError, MetricsRegistry, QueryBudget, QueryGuard, QueryOutcome, QueryProfile, Result,
    WalMetrics,
};
use parking_lot::{Mutex, RwLock};
use rustc_hash::FxHashMap;

use crate::database::{Database, StmtOutput};
use crate::exec::results::QueryOutput;
use crate::plancache::PlanCache;
use crate::wal::{DurabilityOptions, RecoveryReport, ReplBootstrap, ShippedBatch, Wal, WalPayload};

/// Replication role of a server (paper §III's server tier, stretched
/// across nodes): a **primary** accepts writes and ships its fsynced WAL
/// batches to subscribers; a **replica** applies that stream into its own
/// epoch chain and serves read-only queries lock-free, fencing every
/// write with [`GraqlError::NotPrimary`] so clients redirect instead of
/// diverging the copies.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ReplRole {
    /// Accepts writes; the root of the replication tree.
    #[default]
    Primary,
    /// Read-only follower of the primary at `primary` (host:port, as
    /// given to `--replica-of` — echoed verbatim in `NotPrimary` errors
    /// so clients know where to go).
    Replica { primary: String },
}

/// Access level of a user account.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Full access: DDL, ingest and queries.
    Admin,
    /// Queries only (including `into` result capture).
    Analyst,
}

impl Role {
    /// Stable one-byte encoding for the wire protocol.
    pub fn wire_tag(self) -> u8 {
        match self {
            Role::Admin => 0,
            Role::Analyst => 1,
        }
    }

    /// Inverse of [`Role::wire_tag`].
    pub fn from_wire_tag(tag: u8) -> Result<Role> {
        match tag {
            0 => Ok(Role::Admin),
            1 => Ok(Role::Analyst),
            t => Err(GraqlError::net(format!("unknown role tag {t}"))),
        }
    }

    /// Parses the textual spelling used by CLI flags (`admin`, `analyst`).
    pub fn parse(s: &str) -> Result<Role> {
        match s {
            "admin" => Ok(Role::Admin),
            "analyst" => Ok(Role::Analyst),
            other => Err(GraqlError::name(format!(
                "unknown role '{other}' (expected 'admin' or 'analyst')"
            ))),
        }
    }
}

/// Self-contained output of one statement executed through a session:
/// unlike [`StmtOutput`], subgraph results are summarized against the
/// epoch they were produced on, so the value can leave the server (e.g.
/// cross a socket) without a graph reference.
#[derive(Debug, Clone)]
pub enum SessionOutput {
    /// DDL executed (`create …`).
    Created(String),
    /// `ingest` executed: table name and rows added.
    Ingested { table: String, rows: u64 },
    /// A select produced a table (shipped whole).
    Table(graql_table::Table),
    /// A select produced a subgraph, reported by size and summary line.
    Subgraph {
        n_vertices: u64,
        n_edges: u64,
        summary: String,
    },
    /// Never produced (see [`StmtOutput::Pipelined`]). Kept only because
    /// the end-to-end benchmark (`benchmark/`) matches this enum
    /// exhaustively; the benchmark change of ROADMAP item 12 deletes it.
    Pipelined,
    /// `profile <select>` ran: pre-rendered report text and its JSON
    /// form. Rendered where the query executed, so a remote profile is
    /// byte-identical to a local one.
    Profile { text: String, json: String },
}

/// Shared internals: the epoch pointer + the account registry + the
/// engine metrics every session reports into + the optional WAL.
#[derive(Debug, Default)]
struct ServerShared {
    /// The current immutable database epoch. Locked only long enough to
    /// clone or swap the `Arc` — execution never holds it.
    epoch: RwLock<Arc<Database>>,
    /// Serializes writers (and checkpoints). Readers never touch it.
    write_lock: Mutex<()>,
    /// Monotonic epoch counter (one tick per install; observable by
    /// tests asserting reads do not force new epochs).
    epoch_id: AtomicU64,
    users: RwLock<FxHashMap<String, Role>>,
    metrics: MetricsRegistry,
    /// Present on durable servers: every mutating statement commits to
    /// the log before its epoch is published.
    wal: Option<Wal>,
    /// Replication role. Checked under `write_lock` on every write path
    /// so a concurrent `Promote` can never interleave with a fenced
    /// statement.
    role: RwLock<ReplRole>,
    /// Compiled-plan cache for read-only scripts, keyed by
    /// `(epoch_seq, normalized text)` — see [`crate::plancache`].
    plan_cache: PlanCache,
    /// The fault handle every site this server owns consults.
    faults: Faults,
}

impl ServerShared {
    /// The current epoch — a cheap `Arc` clone under a momentary read
    /// lock.
    fn snapshot(&self) -> Arc<Database> {
        self.epoch.read().clone()
    }

    /// Publishes `db` as the new epoch. Callers must hold `write_lock`.
    ///
    /// The epoch sequence is stamped *into* the database before the
    /// `Arc` is published, so plan-cache keys derived from a pinned
    /// snapshot can never race a concurrent install; entries compiled
    /// against older epochs are retired in the same breath.
    fn install(&self, mut db: Database) -> Arc<Database> {
        let seq = self.epoch_id.fetch_add(1, Ordering::Relaxed) + 1;
        db.set_epoch_seq(seq);
        self.plan_cache.invalidate_epochs_before(seq);
        let arc = Arc::new(db);
        *self.epoch.write() = Arc::clone(&arc);
        arc
    }

    /// An epoch whose graph views are built, building (and publishing)
    /// one if needed — the read path's only rendezvous with writers, and
    /// only on the first read after a mutation.
    fn ensure_graph(&self) -> Result<Arc<Database>> {
        let cur = self.snapshot();
        if cur.graph_ref().is_some() {
            return Ok(cur);
        }
        let _wl = self.write_lock.lock();
        let cur = self.snapshot();
        if cur.graph_ref().is_some() {
            return Ok(cur);
        }
        let mut working = Database::clone(&cur);
        working.graph()?;
        Ok(self.install(working))
    }

    /// Folds the log into a snapshot when the automatic threshold is
    /// reached. Callers must hold `write_lock` and pass the newest
    /// epoch's state. Checkpoint failures are deliberately not fatal to
    /// the triggering script: its records are already durable in the
    /// log, and the next write retries the fold.
    fn maybe_checkpoint(&self, db: &Database) {
        if let Some(wal) = &self.wal {
            if wal.needs_checkpoint() {
                if let Err(e) = wal.checkpoint(db) {
                    eprintln!("graql: checkpoint failed (log intact, will retry): {e}");
                }
            }
        }
    }
}

/// The front-end server. Cloning is cheap (an `Arc` clone) and yields a
/// handle to the *same* server — the form the thread-per-connection
/// network listener hands to its workers.
#[derive(Debug, Clone, Default)]
pub struct Server {
    shared: Arc<ServerShared>,
}

impl Server {
    /// Wraps an in-memory database (no durability). An `admin` account
    /// always exists.
    pub fn new(db: Database) -> Self {
        Server::with_faults(db, Faults::default())
    }

    /// [`Server::new`] with the fault handle the server's sites consult.
    pub fn with_faults(db: Database, faults: Faults) -> Self {
        Server::assemble(db, None, faults)
    }

    /// Opens (or initializes) a durable database under `dir`: recovers
    /// the snapshot + committed log records, then serves it with every
    /// mutating statement write-ahead logged.
    pub fn open_durable(dir: &Path, opts: DurabilityOptions) -> Result<(Server, RecoveryReport)> {
        Server::open_durable_with_faults(dir, opts, Faults::default())
    }

    /// [`Server::open_durable`] with the fault handle the server's sites
    /// (recovery included) consult.
    pub fn open_durable_with_faults(
        dir: &Path,
        opts: DurabilityOptions,
        faults: Faults,
    ) -> Result<(Server, RecoveryReport)> {
        let wal_metrics = Arc::new(WalMetrics::new());
        let (db, wal, report) = Wal::open_with_faults(dir, opts, wal_metrics, faults.clone())?;
        Ok((Server::assemble(db, Some(wal), faults), report))
    }

    fn assemble(db: Database, wal: Option<Wal>, faults: Faults) -> Server {
        let mut users = FxHashMap::default();
        users.insert("admin".to_string(), Role::Admin);
        let metrics = MetricsRegistry::new();
        if let Some(w) = &wal {
            metrics.attach_wal(Arc::clone(w.metrics()));
        }
        let plan_cache = PlanCache::default();
        metrics.attach_plan_cache(Arc::clone(plan_cache.metrics()));
        Server {
            shared: Arc::new(ServerShared {
                epoch: RwLock::new(Arc::new(db)),
                write_lock: Mutex::new(()),
                epoch_id: AtomicU64::new(0),
                users: RwLock::new(users),
                metrics,
                wal,
                role: RwLock::new(ReplRole::Primary),
                plan_cache,
                faults,
            }),
        }
    }

    /// The fault handle this server's sites consult; tests arm it.
    pub fn faults(&self) -> &Faults {
        &self.shared.faults
    }

    /// The engine metrics registry: query outcomes (including governance
    /// kills), stage latency histograms, stream volume, and — on durable
    /// servers — the WAL series. The same atomics feed `describe` and the
    /// Prometheus exposition, so they always agree.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }

    /// True when this server write-ahead logs mutations.
    pub fn is_durable(&self) -> bool {
        self.shared.wal.is_some()
    }

    /// The current database epoch: an immutable snapshot that stays
    /// valid (and consistent) for as long as the `Arc` is held, no
    /// matter what writers do meanwhile.
    pub fn snapshot(&self) -> Arc<Database> {
        self.shared.snapshot()
    }

    /// The monotonic epoch counter (ticks once per published epoch).
    pub fn epoch_id(&self) -> u64 {
        self.shared.epoch_id.load(Ordering::Relaxed)
    }

    /// Resizes the compiled-plan cache (`gems-serve --plan-cache N`);
    /// 0 disables it.
    pub fn set_plan_cache_capacity(&self, capacity: usize) {
        self.shared.plan_cache.set_capacity(capacity);
    }

    /// Number of live plan-cache entries (tests, diagnostics).
    pub fn plan_cache_len(&self) -> usize {
        self.shared.plan_cache.len()
    }

    /// Drops every cached plan.
    pub fn plan_cache_clear(&self) {
        self.shared.plan_cache.clear();
    }

    /// Folds the write-ahead log into a fresh snapshot now (no-op on an
    /// in-memory server). The graceful-shutdown path of `gems-serve`.
    pub fn checkpoint_now(&self) -> Result<()> {
        let Some(wal) = &self.shared.wal else {
            return Ok(());
        };
        let _wl = self.shared.write_lock.lock();
        let db = self.shared.snapshot();
        wal.checkpoint(&db)
    }

    /// The current replication role.
    pub fn repl_role(&self) -> ReplRole {
        self.shared.role.read().clone()
    }

    /// True when this server is a read-only replica.
    pub fn is_replica(&self) -> bool {
        matches!(&*self.shared.role.read(), ReplRole::Replica { .. })
    }

    /// The primary's address when this server is a replica.
    pub fn replica_primary(&self) -> Option<String> {
        match &*self.shared.role.read() {
            ReplRole::Primary => None,
            ReplRole::Replica { primary } => Some(primary.clone()),
        }
    }

    /// Demotes this server into a read-only replica of `primary`. Every
    /// subsequent write statement fails with `E0911 NotPrimary` carrying
    /// that address; only [`Server::apply_replicated_records`] may mutate
    /// state. Taken under the write lock so in-flight writers finish (or
    /// fence) atomically with the role change.
    pub fn set_replica_of(&self, primary: impl Into<String>) {
        let _wl = self.shared.write_lock.lock();
        *self.shared.role.write() = ReplRole::Replica {
            primary: primary.into(),
        };
    }

    /// Fences a replica into a writable primary (the admin `Promote`
    /// message). Idempotent: promoting a primary is a no-op. Returns the
    /// role that was in effect *before* the call, so callers can log the
    /// transition.
    pub fn promote(&self) -> ReplRole {
        let _wl = self.shared.write_lock.lock();
        // A freshly promoted primary flushes its plan cache: replicated
        // epochs stop arriving and locally published ones take over, so
        // starting clean keeps the invariant simple (every entry was
        // compiled under this node's own epoch discipline).
        self.shared.plan_cache.clear();
        let mut role = self.shared.role.write();
        std::mem::take(&mut *role)
    }

    /// The highest write-ahead-log LSN known durable on this node (0 on
    /// in-memory servers and before the first commit). A replica resumes
    /// its subscription at `wal_durable_lsn() + 1`.
    pub fn wal_durable_lsn(&self) -> u64 {
        self.shared.wal.as_ref().map_or(0, |w| w.durable_lsn())
    }

    /// Registers a live feed of fsynced WAL batches (the replication
    /// source). See [`Wal::subscribe_commits`]. Errors on in-memory
    /// servers — there is no log to ship.
    pub fn subscribe_commits(&self) -> Result<std::sync::mpsc::Receiver<ShippedBatch>> {
        let wal = self.repl_wal()?;
        Ok(wal.subscribe_commits())
    }

    /// Everything a subscriber needs to catch up to `durable_lsn()`:
    /// snapshot files (if the replica is behind the last checkpoint) plus
    /// the durable log suffix. See [`Wal::repl_bootstrap`].
    pub fn repl_bootstrap(&self, from_lsn: u64) -> Result<ReplBootstrap> {
        self.repl_wal()?.repl_bootstrap(from_lsn)
    }

    /// Installs a snapshot received from the primary as the replica's
    /// database, re-basing the local log at `watermark` (the first LSN
    /// the stream will deliver). The replica's previous state is
    /// discarded — the snapshot *is* the new truth.
    pub fn install_snapshot(&self, db: Database, watermark: u64) -> Result<()> {
        let wal = self.repl_wal()?;
        let _wl = self.shared.write_lock.lock();
        wal.rebase(&db, watermark)?;
        self.shared.install(db);
        Ok(())
    }

    /// Applies a batch of replicated WAL records: each payload replays
    /// into a working copy (the same replay path crash recovery uses),
    /// the records append to the local log (durable before the epoch is
    /// published, exactly like a primary write), and one new epoch is
    /// installed for the whole batch. Records at or below the local
    /// durable watermark are skipped — replay is idempotent, so a
    /// reconnecting replica may safely receive overlap. Returns the
    /// local durable LSN after the batch.
    ///
    /// Errors if this server was promoted meanwhile: the tailer must
    /// stop feeding a node that now accepts its own writes.
    pub fn apply_replicated_records(&self, records: &[(u64, WalPayload)]) -> Result<u64> {
        let wal = self.repl_wal()?;
        let _wl = self.shared.write_lock.lock();
        if !matches!(&*self.shared.role.read(), ReplRole::Replica { .. }) {
            return Err(GraqlError::net(
                "replication apply refused: this server is no longer a replica",
            ));
        }
        let durable = wal.durable_lsn();
        let fresh: Vec<&(u64, WalPayload)> =
            records.iter().filter(|(lsn, _)| *lsn > durable).collect();
        if fresh.is_empty() {
            return Ok(durable);
        }
        let mut working = Database::clone(&self.shared.snapshot());
        for (_, payload) in &fresh {
            crate::wal::apply_record(&mut working, payload)?;
        }
        let owned: Vec<(u64, WalPayload)> = fresh.into_iter().cloned().collect();
        let durable = wal.append_replicated(&owned)?;
        self.shared.install(Database::clone(&working));
        self.shared.maybe_checkpoint(&working);
        Ok(durable)
    }

    fn repl_wal(&self) -> Result<&Wal> {
        self.shared.wal.as_ref().ok_or_else(|| {
            GraqlError::net("replication requires a durable server (start with --durable)")
        })
    }

    /// Registers a user account.
    pub fn create_user(&self, name: impl Into<String>, role: Role) -> Result<()> {
        let name = name.into();
        let mut users = self.shared.users.write();
        if users.contains_key(&name) {
            return Err(GraqlError::name(format!("user '{name}' already exists")));
        }
        users.insert(name, role);
        Ok(())
    }

    /// Opens a session for `user`. Sessions are independent values — any
    /// number may coexist, from any thread.
    pub fn connect(&self, user: &str) -> Result<Session> {
        let role = *self
            .shared
            .users
            .read()
            .get(user)
            .ok_or_else(|| GraqlError::name(format!("unknown user '{user}'")))?;
        Ok(Session {
            shared: Arc::clone(&self.shared),
            user: user.to_string(),
            role,
        })
    }

    /// Exclusive access to the underlying database (bypasses access
    /// control *and the write-ahead log*; for embedding scenarios and
    /// tests). The guard holds the writer lock for its lifetime and
    /// publishes its working copy as a new epoch on drop — do not hold
    /// it across a session call.
    pub fn database_mut(&self) -> DatabaseGuard<'_> {
        let wl = self.shared.write_lock.lock();
        let working = Database::clone(&self.shared.snapshot());
        DatabaseGuard {
            shared: &self.shared,
            _wl: wl,
            working: Some(working),
        }
    }

    /// The default per-query governance budget configured on the
    /// underlying database ([`crate::plan::ExecConfig::budget`]). The
    /// network front-end reads this to mint per-request guards.
    pub fn query_budget(&self) -> QueryBudget {
        self.shared.snapshot().config().budget
    }

    /// Sets the default per-query governance budget on the underlying
    /// database (the `--max-result-rows` / `--max-query-bytes` knobs).
    pub fn set_query_budget(&self, budget: QueryBudget) {
        let _wl = self.shared.write_lock.lock();
        let mut working = Database::clone(&self.shared.snapshot());
        working.config_mut().budget = budget;
        self.shared.install(working);
    }

    /// The catalog-describe service: object names with their current
    /// sizes ("how many rows in table? how many vertex instances?").
    /// Runs against an epoch whose views — and so statistics — are built,
    /// so concurrent writers are never blocked by the rendering.
    pub fn describe(&self) -> Result<String> {
        let db = self.shared.ensure_graph()?;
        let mut out = String::new();
        match &*self.shared.role.read() {
            ReplRole::Primary => {
                let _ = writeln!(out, "role: primary");
            }
            ReplRole::Replica { primary } => {
                let _ = writeln!(out, "role: replica of {primary}");
            }
        }
        let _ = writeln!(out, "tables:");
        for name in db.catalog().table_names() {
            let rows = db.table(name).map_or(0, |t| t.n_rows());
            let _ = writeln!(out, "  {name}: {rows} rows");
        }
        let stats = db.stats_ref().expect("filled with the views");
        let _ = writeln!(out, "vertex types:");
        for name in db.catalog().vertex_names() {
            let count = stats.vertex_count(name).unwrap_or(0);
            let _ = writeln!(out, "  {name}: {count} instances");
        }
        let _ = writeln!(out, "edge types:");
        for name in db.catalog().edge_names() {
            let Some(es) = stats.edges.get(name) else {
                continue;
            };
            let _ = writeln!(
                out,
                "  {name}: {} instances (mean out-degree {:.2}, mean in-degree {:.2})",
                es.count, es.mean_out_degree, es.mean_in_degree
            );
        }
        out.push_str(&self.shared.metrics.render_describe());
        Ok(out)
    }
}

/// Write-guard returned by [`Server::database_mut`]: dereferences to a
/// private working copy of the database and publishes it as the new
/// epoch when dropped.
pub struct DatabaseGuard<'a> {
    shared: &'a ServerShared,
    _wl: parking_lot::MutexGuard<'a, ()>,
    working: Option<Database>,
}

impl std::ops::Deref for DatabaseGuard<'_> {
    type Target = Database;
    fn deref(&self) -> &Database {
        self.working.as_ref().expect("present until drop")
    }
}

impl std::ops::DerefMut for DatabaseGuard<'_> {
    fn deref_mut(&mut self) -> &mut Database {
        self.working.as_mut().expect("present until drop")
    }
}

impl Drop for DatabaseGuard<'_> {
    fn drop(&mut self) {
        if let Some(db) = self.working.take() {
            self.shared.install(db);
        }
    }
}

/// An authenticated session. Owns a handle to the server internals, so it
/// has no lifetime tie to the [`Server`] value and is `Send` — one session
/// per network connection, concurrently.
pub struct Session {
    shared: Arc<ServerShared>,
    user: String,
    role: Role,
}

impl Session {
    pub fn user(&self) -> &str {
        &self.user
    }

    pub fn role(&self) -> Role {
        self.role
    }

    /// Executes a script under this session's access level.
    pub fn execute_script(&mut self, text: &str) -> Result<Vec<StmtOutput>> {
        let script = graql_parser::parse(text)?;
        self.execute_parsed(&script)
    }

    /// Executes a script shipped as binary IR (the wire form, paper §III).
    pub fn execute_ir(&mut self, blob: &[u8]) -> Result<Vec<SessionOutput>> {
        self.execute_ir_observed(blob, &self.default_guard(), None)
    }

    /// [`Session::execute_ir`] under an externally owned [`QueryGuard`] —
    /// the network server's entry point: the guard is shared with the
    /// connection thread so a wire `Cancel` (or the request deadline) can
    /// abort execution mid-flight. With a span recorder armed, read-only
    /// selects record per-stage timings into `obs` (the slow-query log
    /// path of the network server).
    pub fn execute_ir_observed(
        &mut self,
        blob: &[u8],
        guard: &QueryGuard,
        obs: Option<&QueryProfile>,
    ) -> Result<Vec<SessionOutput>> {
        let script = crate::ir::decode(blob)?;
        Ok(self
            .execute_parsed_observed(&script, guard, obs)?
            .into_iter()
            .map(|o| self.seal_output(o))
            .collect())
    }

    /// A fresh guard with the default per-query budget configured on the
    /// shared database, consulting the server's faults.
    fn default_guard(&self) -> QueryGuard {
        let budget = self.shared.snapshot().config().budget;
        QueryGuard::with_faults(budget, self.shared.faults.clone())
    }

    /// Executes an already parsed script under a fresh guard minted from
    /// the configured default budget. Read-only scripts (selects without
    /// `into` capture) run lock-free against the epoch they capture, so
    /// concurrent sessions query in parallel even during a long ingest.
    pub fn execute_parsed(&mut self, script: &ast::Script) -> Result<Vec<StmtOutput>> {
        self.execute_parsed_observed(script, &self.default_guard(), None)
    }

    /// [`Session::execute_parsed`] under an externally owned guard that
    /// spans the whole script: one deadline and one row/byte budget cover
    /// every statement, and every kernel loop checks it cooperatively.
    ///
    /// Every call reports into the server's [`MetricsRegistry`]: one
    /// outcome per script (governance kills classified by their typed
    /// error), whole-script latency, and guard-accounted rows/bytes.
    /// `obs` optionally arms a span recorder.
    pub fn execute_parsed_observed(
        &mut self,
        script: &ast::Script,
        guard: &QueryGuard,
        obs: Option<&QueryProfile>,
    ) -> Result<Vec<StmtOutput>> {
        let started = std::time::Instant::now();
        let (rows0, bytes0) = (guard.rows(), guard.bytes());
        let result = self.execute_parsed_inner(script, guard, obs);
        let metrics = &self.shared.metrics;
        metrics.observe_query_nanos(started.elapsed().as_nanos() as u64);
        metrics.rows_streamed.add(guard.rows() - rows0);
        metrics.bytes_streamed.add(guard.bytes() - bytes0);
        match &result {
            Ok(outs) => {
                metrics.note_outcome(QueryOutcome::Ok);
                for out in outs {
                    if let StmtOutput::Profile(report) = out {
                        metrics.observe_report(report);
                    }
                }
            }
            Err(e) => metrics.note_outcome(QueryOutcome::from_error(e)),
        }
        result
    }

    fn execute_parsed_inner(
        &mut self,
        script: &ast::Script,
        guard: &QueryGuard,
        obs: Option<&QueryProfile>,
    ) -> Result<Vec<StmtOutput>> {
        // Cancellation point: a statement batch can be aborted before any
        // epoch is captured or state is touched.
        graql_types::failpoint!(self.shared.faults, "core/exec/cancel", GraqlError::exec);
        guard.check()?;
        for stmt in &script.statements {
            self.check(stmt)?;
        }
        let read_only = script.statements.iter().all(|s| {
            matches!(s, Stmt::Select(sel) if sel.into.is_none()) || matches!(s, Stmt::Profile(_))
        });
        if read_only {
            // Capture a graph-complete epoch, then execute entirely
            // lock-free against it: a concurrent ingest installs newer
            // epochs without ever invalidating this one.
            let db = self.shared.ensure_graph()?;
            let cache = &self.shared.plan_cache;
            // Plan-cache fast path: key by the pinned epoch's own
            // sequence + the script's normalized rendering. A hit skips
            // static analysis and the rewrite passes; a miss compiles
            // once (selects stored post-rewrite) and shares the result
            // with every later request against this epoch.
            let prepared: Option<Arc<Vec<Stmt>>> = if cache.enabled() {
                let text = script.to_string();
                match cache.lookup(db.epoch_seq(), &text) {
                    Some(stmts) => Some(stmts),
                    None => {
                        crate::analyze::analyze_script(db.catalog(), script)?;
                        let stmts: Vec<Stmt> = script
                            .statements
                            .iter()
                            .map(|s| match s {
                                Stmt::Select(sel) => match crate::analysis::rewrite_select(sel) {
                                    Some(r) => Stmt::Select(r.sel),
                                    None => s.clone(),
                                },
                                _ => s.clone(),
                            })
                            .collect();
                        let stmts = Arc::new(stmts);
                        cache.insert(db.epoch_seq(), text, Arc::clone(&stmts));
                        Some(stmts)
                    }
                }
            } else {
                crate::analyze::analyze_script(db.catalog(), script)?;
                None
            };
            let run_stmts: &[Stmt] = prepared
                .as_deref()
                .map(Vec::as_slice)
                .unwrap_or(&script.statements);
            run_stmts
                .iter()
                .map(|s| {
                    graql_types::failpoint!(
                        self.shared.faults,
                        "core/exec/cancel-stmt",
                        GraqlError::exec
                    );
                    guard.check()?;
                    match s {
                        Stmt::Select(sel) if prepared.is_some() => {
                            // Rewrites were applied at compile time.
                            Ok(match db.execute_select_prepared(sel, guard, obs)? {
                                QueryOutput::Table(t) => StmtOutput::Table(t),
                                QueryOutput::Subgraph(sg) => StmtOutput::Subgraph(sg),
                            })
                        }
                        Stmt::Select(sel) => {
                            Ok(match db.execute_select_observed(sel, guard, obs)? {
                                QueryOutput::Table(t) => StmtOutput::Table(t),
                                QueryOutput::Subgraph(sg) => StmtOutput::Subgraph(sg),
                            })
                        }
                        Stmt::Profile(sel) => {
                            Ok(StmtOutput::Profile(db.profile_select_guarded(sel, guard)?))
                        }
                        _ => unreachable!("read-only scripts contain only selects"),
                    }
                })
                .collect()
        } else {
            // Writer: serialize on the write lock, apply each statement
            // to a private shallow clone, commit it to the WAL (durable
            // servers), then publish the new epoch. A statement's effects
            // become visible only after its log record is durable;
            // earlier statements of the same script stay published if a
            // later one fails — matching the historical mid-script-error
            // semantics.
            let _wl = self.shared.write_lock.lock();
            // Replicas fence writes *under the write lock*: a concurrent
            // Promote either lands before this statement (which then
            // executes as a primary write) or after it failed — never in
            // between. The statement has not executed, so the client may
            // safely re-submit it at the primary the error names.
            if let ReplRole::Replica { primary } = &*self.shared.role.read() {
                return Err(GraqlError::not_primary(primary.clone()));
            }
            let mut working = Database::clone(&self.shared.snapshot());
            crate::analyze::analyze_script(working.catalog(), script)?;
            let mut outs = Vec::with_capacity(script.statements.len());
            for s in &script.statements {
                graql_types::failpoint!(
                    self.shared.faults,
                    "core/exec/cancel-stmt",
                    GraqlError::exec
                );
                guard.check()?;
                let out = self.apply_statement(&mut working, s, guard)?;
                self.shared.install(Database::clone(&working));
                outs.push(out);
            }
            self.shared.maybe_checkpoint(&working);
            Ok(outs)
        }
    }

    /// Applies one statement of a write script to the working copy,
    /// write-ahead logging it on durable servers. `ingest` is resolved
    /// here (file read + CSV inlined into the record) so replay never
    /// depends on the source file surviving.
    fn apply_statement(
        &self,
        db: &mut Database,
        stmt: &Stmt,
        guard: &QueryGuard,
    ) -> Result<StmtOutput> {
        let Some(wal) = &self.shared.wal else {
            return db.execute_guarded(stmt, guard);
        };
        match stmt {
            Stmt::Ingest(ing) => {
                let path = db.resolve_ingest_path(&ing.path);
                let csv = std::fs::read_to_string(&path).map_err(|e| {
                    GraqlError::ingest(format!("cannot read {}: {e}", path.display()))
                })?;
                let rows = db.ingest_str(&ing.table, &csv)?;
                wal.commit(&WalPayload::Ingest {
                    table: ing.table.clone(),
                    csv,
                })?;
                Ok(StmtOutput::Ingested {
                    table: ing.table.clone(),
                    rows,
                })
            }
            _ => {
                let out = db.execute_guarded(stmt, guard)?;
                if stmt_is_logged(stmt) {
                    wal.commit(&Wal::stmt_payload(stmt))?;
                }
                Ok(out)
            }
        }
    }

    /// Executes a script and returns transport-friendly outputs (subgraphs
    /// summarized against the current epoch; see [`SessionOutput`]).
    pub fn execute_script_sealed(&mut self, text: &str) -> Result<Vec<SessionOutput>> {
        let outs = self.execute_script(text)?;
        Ok(outs.into_iter().map(|o| self.seal_output(o)).collect())
    }

    /// Converts an engine output into its self-contained form, rendering
    /// subgraph summaries against the current epoch.
    fn seal_output(&self, out: StmtOutput) -> SessionOutput {
        match out {
            StmtOutput::Created(n) => SessionOutput::Created(n),
            StmtOutput::Ingested { table, rows } => SessionOutput::Ingested {
                table,
                rows: rows as u64,
            },
            StmtOutput::Table(t) => SessionOutput::Table(t),
            StmtOutput::Subgraph(sg) => {
                let db = self.shared.snapshot();
                let summary = db.graph_ref().map(|g| sg.summary(g)).unwrap_or_else(|| {
                    format!("{} vertices, {} edges", sg.n_vertices(), sg.n_edges())
                });
                SessionOutput::Subgraph {
                    n_vertices: sg.n_vertices() as u64,
                    n_edges: sg.n_edges() as u64,
                    summary,
                }
            }
            StmtOutput::Pipelined => SessionOutput::Pipelined,
            StmtOutput::Profile(report) => SessionOutput::Profile {
                text: report.render(),
                json: report.to_json(),
            },
        }
    }

    /// The catalog-describe service, through the session.
    pub fn describe(&self) -> Result<String> {
        Server {
            shared: Arc::clone(&self.shared),
        }
        .describe()
    }

    /// Statically checks a script under this session, returning *all*
    /// diagnostics (never executes anything). Role violations are reported
    /// as `E0906` diagnostics alongside the analysis findings, so a client
    /// sees every problem in one round trip.
    pub fn check_script(&self, text: &str) -> graql_types::Diagnostics {
        let script = match graql_parser::parse(text) {
            Ok(s) => s,
            Err(e) => {
                let mut sink = graql_types::Diagnostics::new();
                sink.push(graql_types::Diagnostic::from_error(
                    &e,
                    graql_types::Span::default(),
                ));
                return sink;
            }
        };
        // Read-only, on the current epoch: a check publishes nothing.
        let mut diags = self.shared.snapshot().check_script(&script);
        for stmt in &script.statements {
            if let Err(e) = self.check(stmt) {
                diags.push(graql_types::Diagnostic::error(
                    graql_types::codes::ACCESS_DENIED,
                    e.to_string(),
                    stmt.span(),
                ));
            }
        }
        diags
    }

    fn check(&self, stmt: &Stmt) -> Result<()> {
        let needs_admin = matches!(
            stmt,
            Stmt::CreateTable(_) | Stmt::CreateVertex(_) | Stmt::CreateEdge(_) | Stmt::Ingest(_)
        );
        if needs_admin && self.role != Role::Admin {
            return Err(GraqlError::exec(format!(
                "user '{}' (analyst) may not run data definition or ingest statements",
                self.user
            )));
        }
        Ok(())
    }
}

/// True for statements whose effects must survive a crash: DDL creates,
/// ingest, and `into`-capturing selects. Plain selects and profiles read
/// (or measure) without durable effects.
fn stmt_is_logged(stmt: &Stmt) -> bool {
    match stmt {
        Stmt::CreateTable(_) | Stmt::CreateVertex(_) | Stmt::CreateEdge(_) | Stmt::Ingest(_) => {
            true
        }
        Stmt::Select(sel) => sel.into.is_some(),
        Stmt::Profile(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graql_table::Table;
    use graql_types::Value;

    fn server() -> Server {
        let mut db = Database::new();
        db.execute_script(
            "create table T(a integer)
             create vertex V(a) from table T",
        )
        .unwrap();
        db.ingest_str("T", "1\n2\n3\n").unwrap();
        Server::new(db)
    }

    #[test]
    fn admin_can_do_everything() {
        let s = server();
        let mut sess = s.connect("admin").unwrap();
        assert_eq!(sess.role(), Role::Admin);
        sess.execute_script("create table U(b integer)").unwrap();
        let outs = sess.execute_script("select a from table T").unwrap();
        assert!(matches!(&outs[0], StmtOutput::Table(t) if t.n_rows() == 3));
    }

    #[test]
    fn analysts_query_but_cannot_define_or_ingest() {
        let s = server();
        s.create_user("ada", Role::Analyst).unwrap();
        let mut sess = s.connect("ada").unwrap();
        let outs = sess
            .execute_script("select a from table T where a > 1")
            .unwrap();
        assert!(matches!(&outs[0], StmtOutput::Table(t) if t.n_rows() == 2));
        // Result capture is allowed.
        sess.execute_script("select a from table T into table Mine")
            .unwrap();
        // DDL and ingest are not.
        let err = sess
            .execute_script("create table X(a integer)")
            .unwrap_err();
        assert!(err.to_string().contains("may not run"), "{err}");
        let err = sess.execute_script("ingest table T more.csv").unwrap_err();
        assert!(err.to_string().contains("may not run"), "{err}");
        // And the check runs before any statement executes: the first
        // (legal) select of a mixed script must not have run.
        let err = sess
            .execute_script("select a from table T into table Probe2\ncreate table Y(a integer)")
            .unwrap_err();
        assert!(err.to_string().contains("may not run"), "{err}");
        assert!(
            s.database_mut().result_table("Probe2").is_none(),
            "atomic rejection"
        );
    }

    #[test]
    fn unknown_users_and_duplicates() {
        let s = server();
        assert!(s.connect("nobody").is_err());
        s.create_user("bob", Role::Analyst).unwrap();
        assert!(s.create_user("bob", Role::Admin).is_err());
    }

    #[test]
    fn describe_reports_sizes() {
        let s = server();
        s.database_mut().set_param("unused", Value::Int(0));
        let d = s.describe().unwrap();
        assert!(d.contains("T: 3 rows"), "{d}");
        assert!(d.contains("V: 3 instances"), "{d}");
    }

    #[test]
    fn sessions_coexist_and_share_state() {
        let s = server();
        s.create_user("ada", Role::Analyst).unwrap();
        // Two live sessions at once — impossible with the old exclusive
        // `&mut Server` borrow.
        let mut admin = s.connect("admin").unwrap();
        let mut ada = s.connect("ada").unwrap();
        admin.execute_script("create table W(x integer)").unwrap();
        let outs = ada.execute_script("select a from table T").unwrap();
        assert!(matches!(&outs[0], StmtOutput::Table(t) if t.n_rows() == 3));
    }

    #[test]
    fn concurrent_read_queries_from_threads() {
        let s = server();
        for i in 0..4 {
            s.create_user(format!("u{i}"), Role::Analyst).unwrap();
        }
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let s = s.clone();
                std::thread::spawn(move || {
                    let mut sess = s.connect(&format!("u{i}")).unwrap();
                    for _ in 0..8 {
                        let outs = sess.execute_script("select a from table T").unwrap();
                        assert!(matches!(&outs[0], StmtOutput::Table(t) if t.n_rows() == 3));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn execute_ir_matches_text_path() {
        let s = server();
        let mut sess = s.connect("admin").unwrap();
        let script = graql_parser::parse("select a from table T where a > 1").unwrap();
        let blob = crate::ir::encode(&script);
        let outs = sess.execute_ir(&blob).unwrap();
        assert!(matches!(&outs[0], SessionOutput::Table(t) if t.n_rows() == 2));
        // Role checks also gate the IR path.
        s.create_user("eve", Role::Analyst).unwrap();
        let mut eve = s.connect("eve").unwrap();
        let ddl = crate::ir::encode(&graql_parser::parse("create table Z(a integer)").unwrap());
        assert!(eve.execute_ir(&ddl).is_err());
    }

    #[test]
    fn pinned_epoch_is_immutable_under_writes() {
        let s = server();
        let before = s.snapshot();
        let mut sess = s.connect("admin").unwrap();
        sess.execute_script("ingest table T extra.csv").ok(); // missing file: no-op
        s.database_mut().ingest_str("T", "4\n5\n").unwrap();
        // The pinned epoch still sees exactly the old rows.
        assert_eq!(before.table("T").unwrap().n_rows(), 3);
        assert_eq!(s.snapshot().table("T").unwrap().n_rows(), 5);
    }

    #[test]
    fn unfiltered_select_shares_storage_until_the_table_is_written() {
        let s = server();
        let mut sess = s.connect("admin").unwrap();
        let outs = sess
            .execute_script("select * from table T into table R")
            .unwrap();
        let StmtOutput::Table(reply) = &outs[0] else {
            panic!("a table select answers with a table");
        };
        let pinned = s.snapshot();
        let shares = |t: &Table, db: &Database| {
            Arc::ptr_eq(t.shared_column(0), db.table("T").unwrap().shared_column(0))
        };
        // The reply, the captured result and the stored table are one column.
        assert!(shares(reply, &pinned));
        assert!(shares(pinned.result_table("R").unwrap(), &pinned));

        // A write to T copies it; everything that shared the old column
        // (the pinned epoch, R in the new epoch, the reply) keeps it.
        s.database_mut().ingest_str("T", "4\n5\n").unwrap();
        let now = s.snapshot();
        assert_eq!(now.table("T").unwrap().n_rows(), 5);
        assert!(!shares(pinned.table("T").unwrap(), &now));
        for t in [
            reply,
            now.result_table("R").unwrap(),
            pinned.table("T").unwrap(),
        ] {
            assert!(shares(t, &pinned));
            assert_eq!(
                t.iter_rows().flatten().collect::<Vec<_>>(),
                [Value::Int(1), Value::Int(2), Value::Int(3)]
            );
        }
    }

    #[test]
    fn reads_reuse_the_epoch_without_publishing_new_ones() {
        let s = server();
        let mut sess = s.connect("admin").unwrap();
        // First read builds + publishes a graph-complete epoch…
        sess.execute_script("select a from table T").unwrap();
        let id = s.epoch_id();
        // …further reads reuse it, and so do checks and `describe` in
        // between: the epoch counter must not move.
        for _ in 0..5 {
            sess.execute_script("select a from table T").unwrap();
            let diags = sess.check_script("select * from graph V(a > 1)");
            assert!(!diags.has_errors(), "{diags:?}");
            assert!(s.describe().unwrap().contains("V: 3 instances"));
        }
        assert_eq!(
            s.epoch_id(),
            id,
            "reads, checks and describe publish no epochs"
        );
    }
}
