//! The durable storage engine: a per-database write-ahead log with group
//! commit, periodic checkpoints into the snapshot format, and
//! committed-prefix recovery (DESIGN.md storage section).
//!
//! Layout of a durable database directory:
//!
//! ```text
//! <dir>/wal.meta        current snapshot generation + replay watermark
//! <dir>/snapshot.<N>    a persist::save_dir snapshot (generation N)
//! <dir>/wal.log         records committed since that snapshot
//! ```
//!
//! **Commit protocol.** Writers call [`Wal::commit`] with one record per
//! logged statement. The record is queued and a dedicated commit thread
//! drains the queue in batches: it appends every queued frame, issues a
//! single `fsync`, and only then wakes the waiters — group commit. A
//! statement is acknowledged if and only if its record (and every record
//! before it) is on disk, so the set of acknowledged statements is always
//! a prefix of the log. When an append or fsync fails, the file is
//! truncated back to the durable prefix before the error is surfaced:
//! "acknowledged" and "survives a reopen" coincide exactly.
//!
//! **Checkpoint protocol.** [`Wal::checkpoint`] folds the log into a new
//! snapshot generation: save the database under `snapshot.<N+1>` (itself
//! crash-safe, see `persist`), atomically swing `wal.meta` to the new
//! generation with `next_lsn` as the replay watermark, then truncate the
//! log. A crash before the meta swing leaves the old generation + full
//! log (replayed in full); a crash after it leaves the new generation
//! whose watermark excludes every already-folded record. Orphan snapshot
//! directories from interrupted checkpoints are swept on open.
//!
//! **Recovery.** [`Wal::open`] loads the generation named by `wal.meta`,
//! scans the log, truncates the torn tail (incomplete, checksum-failing
//! or undecodable trailing bytes), and replays every committed record at
//! or past the watermark through the normal execution path — which also
//! refreshes the catalog statistics store, so `est ~N rows` hints are
//! replay-consistent without persisting anything extra.

mod record;

pub use record::WalPayload;

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

use graql_parser::ast;
use graql_types::failpoints::Faults;
use graql_types::{GraqlError, QueryGuard, Result, WalMetrics};

use crate::database::Database;

const META_FILE: &str = "wal.meta";
const LOG_FILE: &str = "wal.log";
const META_MAGIC: &str = "GWALMETA 1";

/// Tuning knobs for a durable database.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityOptions {
    /// Log records between automatic checkpoints (0 disables automatic
    /// checkpointing; explicit [`Wal::checkpoint`] still works).
    pub checkpoint_every: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            checkpoint_every: 4096,
        }
    }
}

/// What [`Wal::open`] found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// A snapshot generation was loaded (false on first open).
    pub snapshot_loaded: bool,
    /// Committed records replayed from the log.
    pub replayed_records: u64,
    /// Torn-tail bytes discarded from the end of the log.
    pub torn_bytes_discarded: u64,
}

struct PendingRecord {
    lsn: u64,
    frame: Vec<u8>,
}

/// One fsynced group-commit batch as shipped to replication subscribers:
/// the records' raw on-disk frames, byte-identical to `wal.log`, plus the
/// LSN range they cover. Produced by the commit thread *after* the batch's
/// fsync succeeds, so a shipped record is always an acknowledged record.
#[derive(Debug, Clone)]
pub struct ShippedBatch {
    pub first_lsn: u64,
    pub last_lsn: u64,
    /// Concatenated frames (`[len][checksum][lsn][kind][payload]`…).
    pub frames: Vec<u8>,
}

/// A checkpoint's files as `(relative name, bytes)` pairs, in the order
/// they should be written out.
pub type SnapshotFiles = Vec<(String, Vec<u8>)>;

/// What a replica needs to start (or resume) tailing this log from
/// `from_lsn` — see [`Wal::repl_bootstrap`].
#[derive(Debug, Default)]
pub struct ReplBootstrap {
    /// `Some((watermark, files))` when the log has been folded past
    /// `from_lsn`: the latest checkpoint's files, to be loaded before any
    /// frame is applied. The stream resumes at `watermark`.
    pub snapshot: Option<(u64, SnapshotFiles)>,
    /// Already-durable records at or past the resume point, batched as
    /// raw concatenated frames (empty when the replica is caught up).
    pub backlog: Vec<ShippedBatch>,
}

/// State under the queue mutex: the append queue plus every LSN cursor.
/// Lock order is queue → file; nothing waits on a condvar while holding
/// the file lock.
struct QueueState {
    pending: Vec<PendingRecord>,
    next_lsn: u64,
    /// Highest LSN whose record (and all predecessors) is fsynced.
    durable_lsn: u64,
    /// Highest LSN of a failed batch; failed LSNs stay failed forever.
    failed_through: u64,
    failure: Option<String>,
    /// A simulated crash (torn/corrupt injected write) happened: the log
    /// refuses all further work so tests can reopen and check recovery.
    poisoned: Option<String>,
    /// The commit thread is mid-batch (pending already drained).
    in_flight: bool,
    shutdown: bool,
    records_since_checkpoint: u64,
    /// Current snapshot generation (the `<N>` of `snapshot.<N>`).
    generation: u64,
}

struct FileState {
    file: File,
    /// Byte length of the durable (fsynced, acknowledged) prefix.
    durable_len: u64,
}

struct WalInner {
    dir: PathBuf,
    queue: Mutex<QueueState>,
    work: Condvar,
    done: Condvar,
    file: Mutex<FileState>,
    metrics: Arc<WalMetrics>,
    opts: DurabilityOptions,
    /// Replication subscribers: each fsynced batch is forwarded to every
    /// live sender; a hung-up receiver is dropped on the next send.
    /// Locked only briefly and never while `queue` or `file` is held.
    subs: Mutex<Vec<mpsc::Sender<ShippedBatch>>>,
    /// The owning server's fault handle.
    faults: Faults,
}

/// Handle to one database's write-ahead log. Owns the commit thread;
/// dropping the handle drains the queue and joins it.
pub struct Wal {
    inner: Arc<WalInner>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal").field("dir", &self.inner.dir).finish()
    }
}

impl Wal {
    /// Opens (or initializes) the durable database under `dir`: loads the
    /// current snapshot generation, cuts the log's torn tail, replays the
    /// committed records past the watermark, and starts the commit thread.
    pub fn open(
        dir: &Path,
        opts: DurabilityOptions,
        metrics: Arc<WalMetrics>,
    ) -> Result<(Database, Wal, RecoveryReport)> {
        Wal::open_with_faults(dir, opts, metrics, Faults::default())
    }

    /// [`Wal::open`] for a log whose fault sites (`core/wal/*`, and the
    /// `core/persist/*` sites of its snapshots) consult `faults`.
    pub(crate) fn open_with_faults(
        dir: &Path,
        opts: DurabilityOptions,
        metrics: Arc<WalMetrics>,
        faults: Faults,
    ) -> Result<(Database, Wal, RecoveryReport)> {
        let io = |e: std::io::Error| GraqlError::ingest(format!("wal: {e}"));
        std::fs::create_dir_all(dir).map_err(io)?;
        let (generation, watermark) = read_meta(dir)?;
        sweep_orphans(dir, generation);

        let mut report = RecoveryReport::default();
        let snap = snapshot_dir(dir, generation);
        let mut db = if snap.exists() {
            report.snapshot_loaded = true;
            let mut db = crate::persist::load_dir(&snap, &faults)?;
            // The snapshot directory is an implementation detail; ingest
            // paths must not resolve into it.
            db.set_data_dir(PathBuf::new());
            db
        } else {
            Database::new()
        };

        let log_path = dir.join(LOG_FILE);
        let fresh = !log_path.exists();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&log_path)
            .map_err(io)?;
        let mut next_lsn = watermark;
        if fresh {
            file.write_all(&record::MAGIC).map_err(io)?;
            file.write_all(&[record::VERSION]).map_err(io)?;
            file.sync_all().map_err(io)?;
            crate::persist::sync_dir(dir).map_err(io)?;
        } else {
            let mut bytes = Vec::new();
            file.seek(SeekFrom::Start(0)).map_err(io)?;
            file.read_to_end(&mut bytes).map_err(io)?;
            if bytes.len() < record::HEADER_LEN as usize
                || bytes[..4] != record::MAGIC
                || bytes[4] != record::VERSION
            {
                return Err(GraqlError::ingest(format!(
                    "wal: {} is not a GraQL write-ahead log",
                    log_path.display()
                )));
            }
            let (records, valid) = record::scan(&bytes[record::HEADER_LEN as usize..]);
            let valid_len = record::HEADER_LEN + valid as u64;
            let torn = bytes.len() as u64 - valid_len;
            if torn > 0 {
                file.set_len(valid_len).map_err(io)?;
                file.sync_data().map_err(io)?;
                report.torn_bytes_discarded = torn;
            }
            for rec in &records {
                next_lsn = next_lsn.max(rec.lsn + 1);
                if rec.lsn < watermark {
                    // Already folded into the snapshot by a checkpoint
                    // that died before truncating the log.
                    continue;
                }
                apply_payload(&mut db, &rec.payload).map_err(|e| {
                    GraqlError::ingest(format!("wal: replay of record {} failed: {e}", rec.lsn))
                })?;
                report.replayed_records += 1;
            }
        }
        metrics.replayed_records.add(report.replayed_records);
        metrics
            .torn_bytes_discarded
            .add(report.torn_bytes_discarded);

        let durable_len = file.metadata().map_err(io)?.len();
        let inner = Arc::new(WalInner {
            dir: dir.to_path_buf(),
            queue: Mutex::new(QueueState {
                pending: Vec::new(),
                next_lsn,
                durable_lsn: next_lsn.saturating_sub(1),
                failed_through: 0,
                failure: None,
                poisoned: None,
                in_flight: false,
                shutdown: false,
                records_since_checkpoint: 0,
                generation,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            file: Mutex::new(FileState { file, durable_len }),
            metrics,
            opts,
            subs: Mutex::new(Vec::new()),
            faults,
        });
        let thread = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("graql-wal-commit".into())
                .spawn(move || commit_thread(&inner))
                .map_err(io)?
        };
        Ok((
            db,
            Wal {
                inner,
                thread: Some(thread),
            },
            report,
        ))
    }

    /// The log's metrics (the same instance attached to the server's
    /// [`graql_types::MetricsRegistry`]).
    pub fn metrics(&self) -> &Arc<WalMetrics> {
        &self.inner.metrics
    }

    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Encodes one statement as its log payload (a one-statement GQIR
    /// script).
    pub fn stmt_payload(stmt: &ast::Stmt) -> WalPayload {
        let script = ast::Script {
            statements: vec![stmt.clone()],
        };
        WalPayload::Stmt {
            ir: crate::ir::encode(&script),
        }
    }

    /// Appends one record and blocks until it is durable (group-committed
    /// with whatever else is queued). Returns the record's LSN.
    pub fn commit(&self, payload: &WalPayload) -> Result<u64> {
        let mut q = lock(&self.inner.queue);
        if let Some(msg) = &q.poisoned {
            return Err(GraqlError::ingest(format!("wal: log unusable: {msg}")));
        }
        let lsn = q.next_lsn;
        q.next_lsn += 1;
        q.pending.push(PendingRecord {
            lsn,
            frame: record::encode_frame(lsn, payload),
        });
        self.inner.work.notify_one();
        loop {
            // Failure first: a later successful batch may push durable_lsn
            // past a failed LSN, but failed LSNs stay failed.
            if q.failed_through >= lsn {
                let msg = q
                    .failure
                    .clone()
                    .unwrap_or_else(|| "wal: commit failed".to_string());
                return Err(GraqlError::ingest(msg));
            }
            if q.durable_lsn >= lsn {
                return Ok(lsn);
            }
            q = wait(&self.inner.done, q);
        }
    }

    /// Folds the log into a fresh snapshot generation and truncates it.
    /// Callers must serialize checkpoints against writers (the server
    /// holds its write lock), and `db` must reflect every acknowledged
    /// record.
    pub fn checkpoint(&self, db: &Database) -> Result<()> {
        let t0 = Instant::now();
        let mut q = lock(&self.inner.queue);
        while q.in_flight || !q.pending.is_empty() {
            if q.poisoned.is_some() {
                break;
            }
            q = wait(&self.inner.done, q);
        }
        if let Some(msg) = &q.poisoned {
            return Err(GraqlError::ingest(format!("wal: log unusable: {msg}")));
        }
        let generation = q.generation + 1;
        let watermark = q.next_lsn;
        crate::persist::save_dir(
            db,
            &snapshot_dir(&self.inner.dir, generation),
            &self.inner.faults,
        )?;
        // The fault site sits in the checkpoint's only interesting crash
        // window: the new snapshot exists but wal.meta still names the old
        // generation. Recovery must load the old generation, replay the
        // full log, and sweep the orphan.
        graql_types::failpoint!(self.inner.faults, "core/wal/checkpoint", GraqlError::ingest);
        write_meta(&self.inner.dir, generation, watermark)?;
        {
            let mut f = lock(&self.inner.file);
            let io = |e: std::io::Error| GraqlError::ingest(format!("wal: truncate: {e}"));
            f.file.set_len(record::HEADER_LEN).map_err(io)?;
            f.file.sync_data().map_err(io)?;
            f.durable_len = record::HEADER_LEN;
        }
        q.generation = generation;
        q.records_since_checkpoint = 0;
        drop(q);
        sweep_orphans(&self.inner.dir, generation);
        self.inner.metrics.checkpoints.inc();
        self.inner
            .metrics
            .checkpoint_nanos
            .observe(t0.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Highest LSN whose record (and every predecessor that was ever
    /// durable) is fsynced. 0 before the first commit.
    pub fn durable_lsn(&self) -> u64 {
        lock(&self.inner.queue).durable_lsn
    }

    /// The LSN the next committed record will receive. A replica's
    /// resume point is `durable_lsn() + 1`, not this: failed LSNs consume
    /// numbers without reaching the log.
    pub fn next_lsn(&self) -> u64 {
        lock(&self.inner.queue).next_lsn
    }

    /// Subscribes to the committed-record stream: every batch fsynced
    /// *after* this call is delivered (raw frames + LSN range) in commit
    /// order. Pair with [`Wal::repl_bootstrap`] — subscribe first, then
    /// fetch the backlog, then dedupe the overlap by LSN — so no record
    /// is missed between the two. The subscription ends when the receiver
    /// is dropped.
    pub fn subscribe_commits(&self) -> mpsc::Receiver<ShippedBatch> {
        let (tx, rx) = mpsc::channel();
        lock(&self.inner.subs).push(tx);
        rx
    }

    /// Everything a replica resuming from `from_lsn` needs that is
    /// already on disk: the latest checkpoint (only when the log has been
    /// folded past `from_lsn`) plus the durable log records at or past
    /// the resume point. Serialized against checkpoints via the queue
    /// lock, so snapshot, meta and log are read as one consistent view.
    pub fn repl_bootstrap(&self, from_lsn: u64) -> Result<ReplBootstrap> {
        let q = lock(&self.inner.queue);
        if let Some(msg) = &q.poisoned {
            return Err(GraqlError::ingest(format!("wal: log unusable: {msg}")));
        }
        let (generation, watermark) = read_meta(&self.inner.dir)?;
        let mut out = ReplBootstrap::default();
        let resume = if from_lsn < watermark && generation > 0 {
            let snap = snapshot_dir(&self.inner.dir, generation);
            let io = |e: std::io::Error| GraqlError::ingest(format!("wal: snapshot read: {e}"));
            let mut files = Vec::new();
            let mut names: Vec<String> = std::fs::read_dir(&snap)
                .map_err(io)?
                .filter_map(|e| e.ok())
                .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            for name in names {
                let bytes = std::fs::read(snap.join(&name)).map_err(io)?;
                files.push((name, bytes));
            }
            out.snapshot = Some((watermark, files));
            watermark
        } else {
            from_lsn
        };
        // The durable log prefix, filtered to the resume point. Reading
        // under the file lock pins `durable_len` (the commit thread may
        // extend the file concurrently past it; those batches arrive via
        // the subscription instead).
        let bytes = {
            let mut f = lock(&self.inner.file);
            let mut buf = vec![0u8; f.durable_len as usize];
            let io = |e: std::io::Error| GraqlError::ingest(format!("wal: log read: {e}"));
            f.file.seek(SeekFrom::Start(0)).map_err(io)?;
            f.file.read_exact(&mut buf).map_err(io)?;
            buf
        };
        drop(q);
        let (records, _) = record::scan(&bytes[record::HEADER_LEN as usize..]);
        let mut frames = Vec::new();
        let mut range: Option<(u64, u64)> = None;
        for rec in &records {
            if rec.lsn < resume {
                continue;
            }
            frames.extend_from_slice(&record::encode_frame(rec.lsn, &rec.payload));
            range = Some((range.map_or(rec.lsn, |(f0, _)| f0), rec.lsn));
        }
        if let Some((first_lsn, last_lsn)) = range {
            out.backlog.push(ShippedBatch {
                first_lsn,
                last_lsn,
                frames,
            });
        }
        Ok(out)
    }

    /// Appends a batch of replicated records (primary-assigned LSNs,
    /// re-encoded byte-identically to the primary's log) and blocks until
    /// they are durable on this node. Records at or below the current
    /// `durable_lsn` are skipped, so re-delivered batches after a
    /// reconnect are idempotent. Returns the new durable LSN.
    ///
    /// Unlike [`Wal::commit`], a previously *failed* LSN may be retried:
    /// the replica's log has a single writer (the apply loop), so when
    /// the queue is idle the failure latch is cleared and the re-sent
    /// record gets another append. Poison (a torn on-disk tail) still
    /// refuses all further work.
    pub fn append_replicated(&self, records: &[(u64, WalPayload)]) -> Result<u64> {
        let mut q = lock(&self.inner.queue);
        if let Some(msg) = &q.poisoned {
            return Err(GraqlError::ingest(format!("wal: log unusable: {msg}")));
        }
        if !q.in_flight && q.pending.is_empty() && q.failed_through > q.durable_lsn {
            // Single-writer retry contract (see doc comment).
            q.failed_through = 0;
            q.failure = None;
        }
        let mut last = 0u64;
        for (lsn, payload) in records {
            if *lsn <= q.durable_lsn {
                continue;
            }
            q.pending.push(PendingRecord {
                lsn: *lsn,
                frame: record::encode_frame(*lsn, payload),
            });
            q.next_lsn = q.next_lsn.max(lsn + 1);
            last = *lsn;
        }
        if last == 0 {
            return Ok(q.durable_lsn);
        }
        self.inner.work.notify_one();
        loop {
            if q.failed_through >= last {
                let msg = q
                    .failure
                    .clone()
                    .unwrap_or_else(|| "wal: replicated append failed".to_string());
                return Err(GraqlError::ingest(msg));
            }
            if q.durable_lsn >= last {
                return Ok(q.durable_lsn);
            }
            q = wait(&self.inner.done, q);
        }
    }

    /// Re-bases a replica's log onto a freshly received snapshot: `db`
    /// reflects everything through `watermark - 1`; the local log is
    /// folded into a new generation whose replay watermark is the
    /// primary's, so subsequent replicated records continue at primary
    /// LSNs. Call only from the single apply thread, with no commit in
    /// flight.
    pub fn rebase(&self, db: &Database, watermark: u64) -> Result<()> {
        {
            let mut q = lock(&self.inner.queue);
            while q.in_flight || !q.pending.is_empty() {
                if q.poisoned.is_some() {
                    break;
                }
                q = wait(&self.inner.done, q);
            }
            if let Some(msg) = &q.poisoned {
                return Err(GraqlError::ingest(format!("wal: log unusable: {msg}")));
            }
            q.next_lsn = watermark;
            q.durable_lsn = watermark.saturating_sub(1);
        }
        self.checkpoint(db)
    }

    /// Records committed since the last checkpoint.
    pub fn records_since_checkpoint(&self) -> u64 {
        lock(&self.inner.queue).records_since_checkpoint
    }

    /// True when the automatic-checkpoint threshold has been reached.
    pub fn needs_checkpoint(&self) -> bool {
        self.inner.opts.checkpoint_every > 0
            && self.records_since_checkpoint() >= self.inner.opts.checkpoint_every
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        {
            let mut q = lock(&self.inner.queue);
            q.shutdown = true;
        }
        self.inner.work.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// `Mutex::lock` with poison recovery (a panicking commit thread must not
/// wedge every session).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn wait<'a, T>(cv: &Condvar, g: std::sync::MutexGuard<'a, T>) -> std::sync::MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(|e| e.into_inner())
}

fn snapshot_dir(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot.{generation}"))
}

/// Reads `wal.meta`: (generation, replay watermark). A missing file is a
/// fresh database: generation 0, every record replayed.
fn read_meta(dir: &Path) -> Result<(u64, u64)> {
    let path = dir.join(META_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((0, 1)),
        Err(e) => return Err(GraqlError::ingest(format!("wal: {e}"))),
    };
    let mut lines = text.lines();
    if lines.next() != Some(META_MAGIC) {
        return Err(GraqlError::ingest(format!(
            "wal: {} is not a GraQL wal.meta",
            path.display()
        )));
    }
    let mut generation = None;
    let mut watermark = None;
    for line in lines {
        match line.split_once(' ') {
            Some(("generation", v)) => generation = v.trim().parse::<u64>().ok(),
            Some(("next_lsn", v)) => watermark = v.trim().parse::<u64>().ok(),
            _ => {}
        }
    }
    match (generation, watermark) {
        (Some(g), Some(w)) => Ok((g, w)),
        _ => Err(GraqlError::ingest(format!(
            "wal: malformed {}",
            path.display()
        ))),
    }
}

/// Atomically replaces `wal.meta` (write-synced temp + rename + dir sync),
/// so a crash leaves either the old or the new meta, never a torn one.
fn write_meta(dir: &Path, generation: u64, watermark: u64) -> Result<()> {
    let io = |e: std::io::Error| GraqlError::ingest(format!("wal: meta: {e}"));
    let text = format!("{META_MAGIC}\ngeneration {generation}\nnext_lsn {watermark}\n");
    let tmp = dir.join(format!("{META_FILE}.tmp.{}", std::process::id()));
    let mut f = File::create(&tmp).map_err(io)?;
    f.write_all(text.as_bytes()).map_err(io)?;
    f.sync_all().map_err(io)?;
    drop(f);
    std::fs::rename(&tmp, dir.join(META_FILE)).map_err(io)?;
    crate::persist::sync_dir(dir).map_err(io)
}

/// Removes snapshot generations other than `keep` and stale meta temp
/// files — leftovers of checkpoints interrupted mid-fold. Best-effort.
fn sweep_orphans(dir: &Path, keep: u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let keep_name = format!("snapshot.{keep}");
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let stale_snapshot = name.starts_with("snapshot.") && name != keep_name;
        let stale_meta = name.starts_with("wal.meta.tmp.");
        if stale_snapshot {
            let _ = std::fs::remove_dir_all(entry.path());
        } else if stale_meta {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Decodes a buffer of concatenated replication frames back into
/// `(lsn, payload)` records. Strict: the whole buffer must parse — a
/// short or checksum-failing tail is a transport error (the stream ships
/// only fsynced frames), never silently dropped like a local torn tail.
pub fn decode_frames(bytes: &[u8]) -> Result<Vec<(u64, WalPayload)>> {
    let (records, valid) = record::scan(bytes);
    if valid != bytes.len() {
        return Err(GraqlError::net(format!(
            "replication batch: {} undecodable trailing bytes",
            bytes.len() - valid
        )));
    }
    Ok(records.into_iter().map(|r| (r.lsn, r.payload)).collect())
}

/// Applies one replicated/replayed record through the normal execution
/// path — public so the replication apply loop reuses exactly the
/// recovery semantics.
pub fn apply_record(db: &mut Database, payload: &WalPayload) -> Result<()> {
    apply_payload(db, payload)
}

/// Replays one committed record through the normal execution path, so
/// every side effect (graph invalidation, catalog statistics refresh)
/// happens exactly as it did when the record was first applied.
fn apply_payload(db: &mut Database, payload: &WalPayload) -> Result<()> {
    match payload {
        WalPayload::Stmt { ir } => {
            let script = crate::ir::decode(ir)?;
            for stmt in &script.statements {
                db.execute_guarded(stmt, QueryGuard::unlimited())?;
            }
            Ok(())
        }
        WalPayload::Ingest { table, csv } => db.ingest_str(table, csv).map(|_| ()),
    }
}

struct WriteFailure {
    msg: String,
    /// The on-disk state no longer matches the durable prefix (simulated
    /// crash, or a rollback that itself failed): refuse all further work.
    poison: bool,
}

/// Truncates un-acknowledged bytes after a failed append/fsync, so failed
/// records never survive a reopen. If even the truncation fails, the log
/// is poisoned.
fn rollback(f: &mut FileState, msg: &str) -> WriteFailure {
    let ok = f.file.set_len(f.durable_len).is_ok() && f.file.sync_data().is_ok();
    WriteFailure {
        msg: msg.to_string(),
        poison: !ok,
    }
}

/// Appends and fsyncs one batch. Returns the fsync's wall time.
fn write_batch(
    inner: &WalInner,
    batch: &[PendingRecord],
) -> std::result::Result<u64, WriteFailure> {
    let mut f = lock(&inner.file);
    let start = f.durable_len;
    if let Err(e) = f.file.seek(SeekFrom::Start(start)) {
        return Err(rollback(&mut f, &format!("wal: seek: {e}")));
    }
    let mut written = 0u64;
    for rec in batch {
        #[cfg(feature = "failpoints")]
        if let Some(action) = inner.faults.hit("core/wal/append") {
            use graql_types::failpoints::Action;
            match action {
                Action::Delay(d) => std::thread::sleep(d),
                Action::Err | Action::Refuse => {
                    return Err(rollback(&mut f, "core/wal/append: injected error"));
                }
                Action::Truncate => {
                    // Simulated crash mid-record: half the frame reaches
                    // the disk, nothing rolls back, and the log refuses
                    // further work. Recovery must cut this torn tail.
                    let _ = f.file.write_all(&rec.frame[..rec.frame.len() / 2]);
                    let _ = f.file.sync_data();
                    return Err(WriteFailure {
                        msg: "core/wal/append: injected torn write".to_string(),
                        poison: true,
                    });
                }
                Action::Corrupt => {
                    // Simulated bit rot: a full-length frame with one
                    // payload byte flipped. Recovery must fail its
                    // checksum and stop there.
                    let mut bad = rec.frame.clone();
                    let mid = bad.len() / 2;
                    bad[mid] ^= 0xff;
                    let _ = f.file.write_all(&bad);
                    let _ = f.file.sync_data();
                    return Err(WriteFailure {
                        msg: "core/wal/append: injected corrupt write".to_string(),
                        poison: true,
                    });
                }
            }
        }
        if let Err(e) = f.file.write_all(&rec.frame) {
            return Err(rollback(&mut f, &format!("wal: append: {e}")));
        }
        written += rec.frame.len() as u64;
    }
    #[cfg(feature = "failpoints")]
    if let Some(action) = inner.faults.hit("core/wal/fsync") {
        use graql_types::failpoints::Action;
        match action {
            Action::Delay(d) => std::thread::sleep(d),
            _ => return Err(rollback(&mut f, "core/wal/fsync: injected error")),
        }
    }
    let t0 = Instant::now();
    if let Err(e) = f.file.sync_data() {
        return Err(rollback(&mut f, &format!("wal: fsync: {e}")));
    }
    let nanos = t0.elapsed().as_nanos() as u64;
    f.durable_len += written;
    Ok(nanos)
}

/// The dedicated commit thread: drains the queue in batches (group
/// commit), one fsync per batch, then wakes every waiter at once.
fn commit_thread(inner: &WalInner) {
    loop {
        let batch = {
            let mut q = lock(&inner.queue);
            loop {
                if q.poisoned.is_some() && !q.pending.is_empty() {
                    // Simulated crash: fail everything still queued.
                    let max = q.pending.last().expect("non-empty").lsn;
                    q.pending.clear();
                    q.failed_through = q.failed_through.max(max);
                    q.failure
                        .get_or_insert_with(|| "wal: log unusable".to_string());
                    inner.done.notify_all();
                }
                if !q.pending.is_empty() && q.poisoned.is_none() {
                    break;
                }
                if q.shutdown {
                    return;
                }
                q = wait(&inner.work, q);
            }
            q.in_flight = true;
            std::mem::take(&mut q.pending)
        };
        let max_lsn = batch.last().expect("batches are non-empty").lsn;
        let n = batch.len() as u64;
        let result = write_batch(inner, &batch);
        let shipped = result.is_ok();
        let mut q = lock(&inner.queue);
        q.in_flight = false;
        match result {
            Ok(fsync_nanos) => {
                q.durable_lsn = max_lsn;
                q.records_since_checkpoint += n;
                inner.metrics.note_group_commit(n, fsync_nanos);
            }
            Err(fail) => {
                q.failed_through = q.failed_through.max(max_lsn);
                q.failure = Some(fail.msg.clone());
                if fail.poison {
                    q.poisoned = Some(fail.msg);
                }
            }
        }
        drop(q);
        inner.done.notify_all();
        if shipped {
            ship_batch(inner, &batch);
        }
    }
}

/// Forwards one fsynced batch to every replication subscriber. Runs on
/// the commit thread *after* waiters were woken — shipping never delays
/// an acknowledgement — and never blocks: senders are unbounded, and a
/// hung-up receiver is pruned here.
fn ship_batch(inner: &WalInner, batch: &[PendingRecord]) {
    let mut subs = lock(&inner.subs);
    if subs.is_empty() {
        return;
    }
    let shipped = ShippedBatch {
        first_lsn: batch.first().expect("non-empty").lsn,
        last_lsn: batch.last().expect("non-empty").lsn,
        frames: batch.iter().flat_map(|r| r.frame.iter().copied()).collect(),
    };
    subs.retain(|tx| tx.send(shipped.clone()).is_ok());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("graql_wal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn stmt_of(text: &str) -> ast::Stmt {
        graql_parser::parse_statement(text).unwrap()
    }

    #[test]
    fn fresh_open_commit_reopen_replays() {
        let dir = tmpdir("basic");
        {
            let (mut db, wal, report) =
                Wal::open(&dir, DurabilityOptions::default(), Arc::default()).unwrap();
            assert!(!report.snapshot_loaded);
            assert_eq!(report.replayed_records, 0);
            let create = stmt_of("create table T(a integer)");
            db.execute(&create).unwrap();
            wal.commit(&Wal::stmt_payload(&create)).unwrap();
            db.ingest_str("T", "1\n2\n").unwrap();
            wal.commit(&WalPayload::Ingest {
                table: "T".into(),
                csv: "1\n2\n".into(),
            })
            .unwrap();
        }
        let (db, _wal, report) =
            Wal::open(&dir, DurabilityOptions::default(), Arc::default()).unwrap();
        assert_eq!(report.replayed_records, 2);
        assert_eq!(db.table("T").unwrap().n_rows(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_truncates_and_reopen_skips_folded_records() {
        let dir = tmpdir("ckpt");
        {
            let (mut db, wal, _) =
                Wal::open(&dir, DurabilityOptions::default(), Arc::default()).unwrap();
            let create = stmt_of("create table T(a integer)");
            db.execute(&create).unwrap();
            wal.commit(&Wal::stmt_payload(&create)).unwrap();
            wal.checkpoint(&db).unwrap();
            assert_eq!(wal.records_since_checkpoint(), 0);
            // Log shrank back to its header.
            let len = std::fs::metadata(dir.join(LOG_FILE)).unwrap().len();
            assert_eq!(len, record::HEADER_LEN);
            // Post-checkpoint records land in the (now short) log.
            db.ingest_str("T", "7\n").unwrap();
            wal.commit(&WalPayload::Ingest {
                table: "T".into(),
                csv: "7\n".into(),
            })
            .unwrap();
        }
        let (db, _wal, report) =
            Wal::open(&dir, DurabilityOptions::default(), Arc::default()).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(
            report.replayed_records, 1,
            "only the post-checkpoint record"
        );
        assert_eq!(db.table("T").unwrap().n_rows(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_discarded_on_reopen() {
        let dir = tmpdir("torn");
        {
            let (mut db, wal, _) =
                Wal::open(&dir, DurabilityOptions::default(), Arc::default()).unwrap();
            let create = stmt_of("create table T(a integer)");
            db.execute(&create).unwrap();
            wal.commit(&Wal::stmt_payload(&create)).unwrap();
        }
        // Simulate a crash mid-append: garbage after the committed record.
        let log = dir.join(LOG_FILE);
        let mut f = OpenOptions::new().append(true).open(&log).unwrap();
        f.write_all(&[0x55; 7]).unwrap();
        drop(f);
        let before = std::fs::metadata(&log).unwrap().len();
        let (db, _wal, report) =
            Wal::open(&dir, DurabilityOptions::default(), Arc::default()).unwrap();
        assert_eq!(report.replayed_records, 1);
        assert_eq!(report.torn_bytes_discarded, 7);
        assert!(db.table("T").is_some());
        assert_eq!(std::fs::metadata(&log).unwrap().len(), before - 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_from_many_threads() {
        let dir = tmpdir("group");
        let (mut db, wal, _) =
            Wal::open(&dir, DurabilityOptions::default(), Arc::default()).unwrap();
        db.execute(&stmt_of("create table T(a integer)")).unwrap();
        wal.commit(&Wal::stmt_payload(&stmt_of("create table T(a integer)")))
            .unwrap();
        let wal = Arc::new(wal);
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for j in 0..16 {
                        wal.commit(&WalPayload::Ingest {
                            table: "T".into(),
                            csv: format!("{}\n", i * 100 + j),
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let m = wal.metrics();
        assert_eq!(m.records_appended.get(), 1 + 8 * 16);
        assert!(
            m.group_commits.get() <= m.records_appended.get(),
            "batching can only reduce fsyncs"
        );
        drop(wal);
        let (db, _wal, report) =
            Wal::open(&dir, DurabilityOptions::default(), Arc::default()).unwrap();
        assert_eq!(report.replayed_records, 1 + 8 * 16);
        assert_eq!(db.table("T").unwrap().n_rows(), 8 * 16);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn meta_round_trips_and_rejects_garbage() {
        let dir = tmpdir("meta");
        std::fs::create_dir_all(&dir).unwrap();
        write_meta(&dir, 3, 41).unwrap();
        assert_eq!(read_meta(&dir).unwrap(), (3, 41));
        std::fs::write(dir.join(META_FILE), "not a meta file").unwrap();
        assert!(read_meta(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
