//! The networked GEMS front-end server.
//!
//! **Pipelined multiplexed architecture** (protocol v5): one nonblocking
//! accept loop polling a shutdown flag, one *reader* thread per client
//! connection, and a bounded pool of *worker* threads executing queries.
//! The reader demultiplexes tagged frames: control traffic (ping, check,
//! describe, metrics, promote, cancel) is answered inline, while each
//! `Submit` is stamped into the connection's in-flight table and enqueued
//! on the shared scheduler. Workers drain connections round-robin — one
//! job per turn, so a pipelining client cannot starve its neighbours —
//! and write their reply frames (tagged with the originating request id)
//! directly to the client socket under the connection's write lock.
//! Admission control (the internal `ExecGate`) spans the pool with per-connection
//! fair shares.
//!
//! Because the reader keeps reading while queries execute, an
//! out-of-band `Cancel` lands immediately — whether its target is still
//! queued or already on a worker — and a vanished client cancels every
//! request it had in flight.
//!
//! Graceful shutdown *drains*: every request that started finishes and
//! its reply is flushed before the connection closes.
//!
//! All sessions share one [`graql_core::Server`]; its internal locks (see
//! `graql_core::server`) let read-only scripts from different
//! connections execute concurrently while DDL/ingest serialize.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use graql_core::{ReplRole, Role, Server, Session};
use graql_types::failpoints::Faults;
use graql_types::obs::{write_exposition, Family, Source};
use graql_types::{
    GraqlError, ProfileReport, QueryBudget, QueryGuard, QueryOutcome, QueryProfile, Result,
};

use crate::frame::{read_frame, write_frame, FrameRead, MAX_FRAME};
use crate::proto::{self, diags_to_wire, error_msg, output_frames, Msg, PROTO_VERSION};

/// How often blocked loops (accept, reader waits) wake to poll the
/// shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// Replication stream: heartbeat cadence on an idle subscription (tells
/// the replica the primary is alive and how far its durable LSN is).
const REPL_HEARTBEAT: Duration = Duration::from_secs(1);

/// Replication snapshot transfer: one file is shipped in chunks of at
/// most this many bytes, so a multi-gigabyte checkpoint never needs a
/// single oversized frame.
const SNAPSHOT_CHUNK: usize = 1 << 20;

/// Tuning for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address; port 0 picks a free port (see
    /// [`NetServer::local_addr`]).
    pub addr: String,
    /// Hard per-request deadline, folded into the request's
    /// [`QueryGuard`] *at enqueue time* — it covers scheduler queue wait
    /// as well as execution, so a backed-up pool cannot silently extend
    /// the budget. Execution aborts cooperatively at its next checkpoint
    /// with a typed deadline error and the worker is immediately
    /// reusable.
    pub request_timeout: Duration,
    /// Connections idle longer than this are closed (idle = no frames
    /// and nothing in flight).
    pub idle_timeout: Duration,
    /// Hard cap on one frame's payload, both directions.
    pub max_frame: usize,
    /// Server identification sent in `Welcome`.
    pub banner: String,
    /// How many malformed/unexpected messages one connection may send
    /// before the server hangs up on it. Each offence gets an error frame
    /// reply; the connection survives until the budget is spent.
    pub error_budget: u32,
    /// Above this many active connections, new connections are refused
    /// with a retryable overload error while the existing ones drain.
    pub max_connections: u64,
    /// Admission control: at most this many `Submit` requests execute
    /// concurrently across all connections. Excess requests wait up to
    /// [`ServeOptions::queue_wait`] for a slot, then are shed with a
    /// retryable "server busy" error the client's backoff understands.
    pub max_concurrency: u64,
    /// How long an admitted-but-queued request may wait for an execution
    /// slot before being shed.
    pub queue_wait: Duration,
    /// Worker threads executing `Submit`s across all connections.
    /// 0 = one per available core.
    pub workers: usize,
    /// Cap on one connection's submitted-but-unfinished requests; excess
    /// submits are shed immediately with a retryable busy error, keeping
    /// per-connection queue depth (and reply latency) bounded.
    pub max_inflight_per_conn: usize,
    /// When set, serve the engine + wire metrics as Prometheus exposition
    /// text over HTTP on this address (port 0 picks a free port, see
    /// [`NetServer::metrics_addr`]).
    pub metrics_addr: Option<String>,
    /// When set, every `Submit` runs with a [`QueryProfile`] armed and
    /// requests slower than this many milliseconds emit one JSON line
    /// (profile attached) to the slow-query log.
    pub slow_query_ms: Option<u64>,
    /// Slow-query log destination; `None` writes to stderr.
    pub slow_query_log: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            request_timeout: Duration::from_secs(60),
            idle_timeout: Duration::from_secs(300),
            max_frame: MAX_FRAME,
            banner: "gems-serve/0.1".to_string(),
            error_budget: 8,
            max_connections: 256,
            max_concurrency: 64,
            queue_wait: Duration::from_millis(200),
            workers: 0,
            max_inflight_per_conn: 1024,
            metrics_addr: None,
            slow_query_ms: None,
            slow_query_log: None,
        }
    }
}

/// The structured slow-query log: one JSON line per offending request,
/// with the request's sealed profile attached.
struct SlowLog {
    threshold: Duration,
    sink: Mutex<Box<dyn Write + Send>>,
}

impl SlowLog {
    fn open(opts: &ServeOptions) -> Result<Option<Arc<SlowLog>>> {
        let Some(ms) = opts.slow_query_ms else {
            return Ok(None);
        };
        let sink: Box<dyn Write + Send> = match &opts.slow_query_log {
            Some(path) => Box::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| {
                        GraqlError::net(format!("cannot open slow-query log {path}: {e}"))
                    })?,
            ),
            None => Box::new(std::io::stderr()),
        };
        Ok(Some(Arc::new(SlowLog {
            threshold: Duration::from_millis(ms),
            sink: Mutex::new(sink),
        })))
    }

    /// Appends one line; log I/O failures never fail the request.
    fn note(&self, user: &str, micros: u64, outcome: &str, report: &ProfileReport) {
        let line = format!(
            "{{\"slow_query\":{{\"user\":\"{user}\",\"micros\":{micros},\
             \"outcome\":\"{outcome}\",\"profile\":{}}}}}",
            report.to_json()
        );
        if let Ok(mut sink) = self.sink.lock() {
            let _ = writeln!(sink, "{line}");
            let _ = sink.flush();
        }
    }
}

/// The admission gate: a counting semaphore with a bounded queue wait and
/// **per-connection fairness**. Total concurrent executions are capped at
/// `max`; when several connections hold slots simultaneously, each is
/// further capped at its fair share `max(1, max / holders)` so one
/// pipelining client cannot monopolize the pool — while a *lone*
/// connection may still use every slot (the single-client throughput
/// case). Requests that get no admissible slot within the queue wait are
/// shed, which keeps queue depth — and therefore tail latency — bounded.
#[derive(Debug)]
struct ExecGate {
    inner: Mutex<GateInner>,
    freed: Condvar,
    max: u64,
}

#[derive(Debug, Default)]
struct GateInner {
    total: u64,
    /// Slots held per connection id; entries exist only while > 0.
    per_conn: HashMap<u64, u64>,
}

impl ExecGate {
    fn new(max: u64) -> ExecGate {
        ExecGate {
            inner: Mutex::new(GateInner::default()),
            freed: Condvar::new(),
            max: max.max(1),
        }
    }

    /// Acquires an execution slot for connection `conn`, waiting at most
    /// `queue_wait`. Returns false when the request must be shed.
    fn admit(&self, conn: u64, queue_wait: Duration) -> bool {
        let deadline = Instant::now() + queue_wait;
        let mut inner = self.inner.lock().expect("gate poisoned");
        loop {
            let mine = inner.per_conn.get(&conn).copied().unwrap_or(0);
            let holders = inner.per_conn.len() as u64 + u64::from(mine == 0);
            let fair = (self.max / holders.max(1)).max(1);
            if inner.total < self.max && mine < fair {
                inner.total += 1;
                *inner.per_conn.entry(conn).or_insert(0) += 1;
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .freed
                .wait_timeout(inner, deadline - now)
                .expect("gate poisoned");
            inner = guard;
        }
    }

    fn release(&self, conn: u64) {
        let mut inner = self.inner.lock().expect("gate poisoned");
        inner.total = inner.total.saturating_sub(1);
        if let Some(n) = inner.per_conn.get_mut(&conn) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                inner.per_conn.remove(&conn);
            }
        }
        drop(inner);
        // Fairness thresholds shift when holder counts change, so every
        // waiter re-evaluates.
        self.freed.notify_all();
    }
}

/// Aggregate wire counters across all connections, updated lock-free and
/// folded into the `describe` service's report.
#[derive(Debug, Default)]
pub struct NetStats {
    pub connections_total: AtomicU64,
    pub connections_active: AtomicU64,
    /// Connections refused at accept time (overload shedding).
    pub connections_refused: AtomicU64,
    pub msgs_in: AtomicU64,
    pub msgs_out: AtomicU64,
    pub bytes_in: AtomicU64,
    pub bytes_out: AtomicU64,
    pub requests: AtomicU64,
    pub request_micros_total: AtomicU64,
    pub request_micros_max: AtomicU64,
    /// Governance: requests shed at the admission gate (no free slot
    /// within the queue wait) or at the per-connection in-flight cap.
    pub queries_shed: AtomicU64,
    /// Governance: requests killed by a wire `Cancel` (or the client
    /// vanishing mid-request).
    pub queries_cancelled: AtomicU64,
    /// Governance: requests killed by the per-request deadline.
    pub queries_deadline_killed: AtomicU64,
    /// Governance: requests killed by a row/byte budget.
    pub queries_budget_killed: AtomicU64,
    /// Governance: largest byte footprint (RSS proxy) any single query
    /// accounted, successful or not.
    pub query_peak_bytes: AtomicU64,
    /// Client-side resilience: requests re-sent after a retryable error.
    /// Counted by [`crate::RemoteSession`] when it shares this registry
    /// (the replica tailer does), so a node's own outbound retries show
    /// up in its metrics.
    pub retries: AtomicU64,
    /// Client-side resilience: connections re-established (same or
    /// different endpoint).
    pub reconnects: AtomicU64,
    /// Client-side resilience: reconnects that landed on a *different*
    /// endpoint than the previous one (read failover / write redirect).
    pub failovers: AtomicU64,
    /// Replication source: replicas currently subscribed to this node.
    pub repl_replicas_connected: AtomicU64,
    /// Replication source: fsynced WAL batches shipped to replicas.
    pub repl_batches_shipped: AtomicU64,
    /// Replication source: WAL records shipped (sum of batch LSN spans).
    pub repl_records_shipped: AtomicU64,
    /// Replication source: snapshot chunks sent during initial sync.
    pub repl_snapshot_chunks: AtomicU64,
    /// Replication source: acks received from replicas.
    pub repl_acks: AtomicU64,
    /// Replication source: heartbeats sent on idle streams.
    pub repl_heartbeats: AtomicU64,
    /// Per-replica lag (primary durable LSN minus the replica's last
    /// acked LSN), keyed by peer address. Entries vanish when the
    /// subscription drops.
    pub repl_lag: Mutex<BTreeMap<String, u64>>,
}

impl NetStats {
    fn note_request(&self, micros: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.request_micros_total
            .fetch_add(micros, Ordering::Relaxed);
        self.request_micros_max.fetch_max(micros, Ordering::Relaxed);
    }

    /// Updates one replica's lag entry (primary side, on each ack).
    pub fn note_repl_lag(&self, peer: &str, lag: u64) {
        if let Ok(mut lags) = self.repl_lag.lock() {
            lags.insert(peer.to_string(), lag);
        }
    }

    /// Drops one replica's lag entry (subscription ended).
    pub fn forget_repl_lag(&self, peer: &str) {
        if let Ok(mut lags) = self.repl_lag.lock() {
            lags.remove(peer);
        }
    }

    /// The largest per-replica lag, and the lag table itself.
    fn repl_lag_snapshot(&self) -> (u64, Vec<(String, u64)>) {
        let lags: Vec<(String, u64)> = self
            .repl_lag
            .lock()
            .map(|m| m.iter().map(|(k, v)| (k.clone(), *v)).collect())
            .unwrap_or_default();
        let max = lags.iter().map(|(_, v)| *v).max().unwrap_or(0);
        (max, lags)
    }

    /// Renders the `net:` section appended to `describe` output.
    pub fn render(&self) -> String {
        let requests = self.requests.load(Ordering::Relaxed);
        let total = self.request_micros_total.load(Ordering::Relaxed);
        let mean = total.checked_div(requests).unwrap_or(0);
        let mut out = format!(
            "net:\n  connections: {} active, {} total, {} refused\n  messages: {} in, {} out\n  bytes: {} in, {} out\n  requests: {} (mean {} us, max {} us)\n  governance: {} shed, {} cancelled, {} deadline-killed, {} budget-killed, peak query bytes {}\n  resilience: {} retries, {} reconnects, {} failovers\n",
            self.connections_active.load(Ordering::Relaxed),
            self.connections_total.load(Ordering::Relaxed),
            self.connections_refused.load(Ordering::Relaxed),
            self.msgs_in.load(Ordering::Relaxed),
            self.msgs_out.load(Ordering::Relaxed),
            self.bytes_in.load(Ordering::Relaxed),
            self.bytes_out.load(Ordering::Relaxed),
            requests,
            mean,
            self.request_micros_max.load(Ordering::Relaxed),
            self.queries_shed.load(Ordering::Relaxed),
            self.queries_cancelled.load(Ordering::Relaxed),
            self.queries_deadline_killed.load(Ordering::Relaxed),
            self.queries_budget_killed.load(Ordering::Relaxed),
            self.query_peak_bytes.load(Ordering::Relaxed),
            self.retries.load(Ordering::Relaxed),
            self.reconnects.load(Ordering::Relaxed),
            self.failovers.load(Ordering::Relaxed),
        );
        use std::fmt::Write as _;
        let (_, lags) = self.repl_lag_snapshot();
        let _ = writeln!(
            out,
            "repl:\n  replicas: {} connected\n  shipped: {} batches, {} records, {} snapshot chunks\n  acks: {}, heartbeats: {}",
            self.repl_replicas_connected.load(Ordering::Relaxed),
            self.repl_batches_shipped.load(Ordering::Relaxed),
            self.repl_records_shipped.load(Ordering::Relaxed),
            self.repl_snapshot_chunks.load(Ordering::Relaxed),
            self.repl_acks.load(Ordering::Relaxed),
            self.repl_heartbeats.load(Ordering::Relaxed),
        );
        for (peer, lag) in lags {
            let _ = writeln!(out, "  lag {peer}: {lag} records");
        }
        out
    }

    /// The `graql_net_*` and `graql_repl_*` families, in exposition order.
    /// Laid out by hand as a table: one entry per family.
    #[rustfmt::skip]
    const FAMILIES: &'static [Family<NetStats>] = &[
        Family { name: "graql_net_connections_active",
                 help: "Currently open client connections.",
                 source: Source::Gauge(|s| s.connections_active.load(Ordering::Relaxed)) },
        Family { name: "graql_net_connections_total",
                 help: "Client connections accepted since start.",
                 source: Source::Counter(|s| s.connections_total.load(Ordering::Relaxed)) },
        Family { name: "graql_net_connections_refused_total",
                 help: "Connections refused at accept time (overload).",
                 source: Source::Counter(|s| s.connections_refused.load(Ordering::Relaxed)) },
        Family { name: "graql_net_messages_in_total",
                 help: "Wire messages received.",
                 source: Source::Counter(|s| s.msgs_in.load(Ordering::Relaxed)) },
        Family { name: "graql_net_messages_out_total",
                 help: "Wire messages sent.",
                 source: Source::Counter(|s| s.msgs_out.load(Ordering::Relaxed)) },
        Family { name: "graql_net_bytes_in_total",
                 help: "Payload bytes received (including frame headers).",
                 source: Source::Counter(|s| s.bytes_in.load(Ordering::Relaxed)) },
        Family { name: "graql_net_bytes_out_total",
                 help: "Payload bytes sent (including frame headers).",
                 source: Source::Counter(|s| s.bytes_out.load(Ordering::Relaxed)) },
        Family { name: "graql_net_requests_total",
                 help: "Requests served across all connections.",
                 source: Source::Counter(|s| s.requests.load(Ordering::Relaxed)) },
        Family { name: "graql_net_queries_shed_total",
                 help: "Requests shed at the admission gate.",
                 source: Source::Counter(|s| s.queries_shed.load(Ordering::Relaxed)) },
        Family { name: "graql_net_queries_cancelled_total",
                 help: "Requests killed by a wire Cancel or a vanished client.",
                 source: Source::Counter(|s| s.queries_cancelled.load(Ordering::Relaxed)) },
        Family { name: "graql_net_queries_deadline_killed_total",
                 help: "Requests killed by the per-request deadline.",
                 source: Source::Counter(|s| s.queries_deadline_killed.load(Ordering::Relaxed)) },
        Family { name: "graql_net_queries_budget_killed_total",
                 help: "Requests killed by a row/byte budget.",
                 source: Source::Counter(|s| s.queries_budget_killed.load(Ordering::Relaxed)) },
        Family { name: "graql_net_query_peak_bytes",
                 help: "Largest byte footprint any single query accounted.",
                 source: Source::Gauge(|s| s.query_peak_bytes.load(Ordering::Relaxed)) },
        Family { name: "graql_net_retries_total",
                 help: "Outbound requests re-sent after a retryable error.",
                 source: Source::Counter(|s| s.retries.load(Ordering::Relaxed)) },
        Family { name: "graql_net_reconnects_total",
                 help: "Outbound connections re-established.",
                 source: Source::Counter(|s| s.reconnects.load(Ordering::Relaxed)) },
        Family { name: "graql_net_failovers_total",
                 help: "Outbound reconnects that switched endpoints.",
                 source: Source::Counter(|s| s.failovers.load(Ordering::Relaxed)) },
        Family { name: "graql_repl_replicas_connected",
                 help: "Replicas currently subscribed to this node's WAL stream.",
                 source: Source::Gauge(|s| s.repl_replicas_connected.load(Ordering::Relaxed)) },
        Family { name: "graql_repl_batches_shipped_total",
                 help: "Fsynced WAL batches shipped to replicas.",
                 source: Source::Counter(|s| s.repl_batches_shipped.load(Ordering::Relaxed)) },
        Family { name: "graql_repl_records_shipped_total",
                 help: "WAL records shipped to replicas.",
                 source: Source::Counter(|s| s.repl_records_shipped.load(Ordering::Relaxed)) },
        Family { name: "graql_repl_snapshot_chunks_total",
                 help: "Snapshot chunks sent during replica initial sync.",
                 source: Source::Counter(|s| s.repl_snapshot_chunks.load(Ordering::Relaxed)) },
        Family { name: "graql_repl_acks_total",
                 help: "Replication acks received from replicas.",
                 source: Source::Counter(|s| s.repl_acks.load(Ordering::Relaxed)) },
        Family { name: "graql_repl_heartbeats_total",
                 help: "Replication heartbeats sent on idle streams.",
                 source: Source::Counter(|s| s.repl_heartbeats.load(Ordering::Relaxed)) },
        Family { name: "graql_repl_max_lag_records",
                 help: "Largest per-replica lag in WAL records.",
                 source: Source::Gauge(|s| s.repl_lag_snapshot().0) },
    ];
}

/// The full Prometheus exposition body: the engine registry first (query
/// outcomes, latency histograms, plan-cache series), then the wire
/// counters. The same text backs the HTTP endpoint and the
/// [`Msg::Metrics`] wire request, so both views always agree.
pub fn metrics_text(server: &Server, stats: &NetStats) -> String {
    let mut out = server.metrics().exposition();
    write_exposition(&mut out, stats, NetStats::FAMILIES);
    out
}

/// Handle to a running server: address, counters, graceful shutdown.
#[derive(Debug)]
pub struct NetServer {
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shutdown: Arc<AtomicBool>,
    stats: Arc<NetStats>,
    accept_handle: Option<JoinHandle<()>>,
    metrics_handle: Option<JoinHandle<()>>,
}

impl NetServer {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound metrics HTTP address, when
    /// [`ServeOptions::metrics_addr`] was set (resolves port 0).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    pub fn stats(&self) -> Arc<NetStats> {
        Arc::clone(&self.stats)
    }

    /// Graceful shutdown: stop accepting, let every in-flight request
    /// finish and flush its reply, then join readers and workers.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.metrics_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `opts.addr` and serves `server` until [`NetServer::shutdown`].
pub fn serve(server: Server, opts: ServeOptions) -> Result<NetServer> {
    let addr = opts
        .addr
        .to_socket_addrs()
        .map_err(|e| GraqlError::net(format!("cannot resolve {}: {e}", opts.addr)))?
        .next()
        .ok_or_else(|| GraqlError::net(format!("{} resolves to no address", opts.addr)))?;
    let listener =
        TcpListener::bind(addr).map_err(|e| GraqlError::net(format!("cannot bind {addr}: {e}")))?;
    let local_addr = listener
        .local_addr()
        .map_err(|e| GraqlError::net(format!("no local address: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| GraqlError::net(format!("cannot set nonblocking: {e}")))?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(NetStats::default());
    let gate = Arc::new(ExecGate::new(opts.max_concurrency));
    let slow = SlowLog::open(&opts)?;

    let (metrics_addr, metrics_handle) = match &opts.metrics_addr {
        Some(addr) => {
            let (addr, handle) = serve_metrics(
                addr,
                server.clone(),
                Arc::clone(&stats),
                Arc::clone(&shutdown),
            )?;
            (Some(addr), Some(handle))
        }
        None => (None, None),
    };

    let accept_handle = {
        let shutdown = Arc::clone(&shutdown);
        let stats = Arc::clone(&stats);
        std::thread::spawn(move || accept_loop(listener, server, opts, shutdown, stats, gate, slow))
    };

    Ok(NetServer {
        local_addr,
        metrics_addr,
        shutdown,
        stats,
        accept_handle: Some(accept_handle),
        metrics_handle,
    })
}

/// Binds and serves the Prometheus HTTP endpoint: a deliberately minimal
/// HTTP/1.1 responder (every request gets the full exposition and
/// `Connection: close`) so a stock Prometheus scraper or `curl` works
/// without pulling an HTTP stack into the build.
fn serve_metrics(
    addr: &str,
    server: Server,
    stats: Arc<NetStats>,
    shutdown: Arc<AtomicBool>,
) -> Result<(SocketAddr, JoinHandle<()>)> {
    let addr = addr
        .to_socket_addrs()
        .map_err(|e| GraqlError::net(format!("cannot resolve metrics address {addr}: {e}")))?
        .next()
        .ok_or_else(|| GraqlError::net(format!("{addr} resolves to no address")))?;
    let listener = TcpListener::bind(addr)
        .map_err(|e| GraqlError::net(format!("cannot bind metrics address {addr}: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| GraqlError::net(format!("no local metrics address: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| GraqlError::net(format!("cannot set metrics listener nonblocking: {e}")))?;
    let handle = std::thread::spawn(move || {
        while !shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _peer)) => serve_one_scrape(stream, &server, &stats),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL);
                }
                Err(_) => std::thread::sleep(POLL),
            }
        }
    });
    Ok((local, handle))
}

/// Answers one HTTP scrape: drain the request line(s), send the
/// exposition, close. Scrape errors are never server-fatal.
fn serve_one_scrape(mut stream: TcpStream, server: &Server, stats: &NetStats) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    // Read until the blank line ending the request head (or timeout —
    // scrapers that pipeline more than 4 KiB of headers get cut off).
    let mut head = [0u8; 4096];
    let mut n = 0;
    while n < head.len() {
        match std::io::Read::read(&mut stream, &mut head[n..]) {
            Ok(0) => break,
            Ok(m) => {
                n += m;
                if head[..n].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let body = metrics_text(server, stats);
    let response = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

// -- the scheduler: per-connection demux queues + a fairness ring ------------

/// One queued `Submit`. The guard was minted (and registered in the
/// connection's in-flight table) by the reader at enqueue time, so its
/// deadline covers queue wait and a `Cancel` can trip it before a worker
/// ever picks it up.
struct Job {
    conn: Arc<Conn>,
    id: u64,
    ir: Vec<u8>,
    guard: Arc<QueryGuard>,
    received: Instant,
}

#[derive(Default)]
struct SchedInner {
    /// Round-robin ring of connections with queued work. Each connection
    /// appears at most once (`in_ring`).
    ring: VecDeque<u64>,
    in_ring: HashSet<u64>,
    queues: HashMap<u64, VecDeque<Job>>,
    stopped: bool,
}

/// The worker pool's feed: per-connection FIFO queues drained round-robin.
/// A worker takes ONE job per turn and immediately re-appends the
/// connection if more of its work is queued — so (a) connections share
/// the pool fairly and (b) one connection's pipelined requests can still
/// run on several workers at once.
struct Scheduler {
    inner: Mutex<SchedInner>,
    ready: Condvar,
}

impl Scheduler {
    fn new() -> Scheduler {
        Scheduler {
            inner: Mutex::new(SchedInner::default()),
            ready: Condvar::new(),
        }
    }

    /// Queue depth for one connection (the per-connection in-flight cap
    /// is enforced against the in-flight table, not this, but tests peek).
    fn enqueue(&self, job: Job) {
        let mut inner = self.inner.lock().expect("scheduler poisoned");
        let cid = job.conn.id;
        inner.queues.entry(cid).or_default().push_back(job);
        if inner.in_ring.insert(cid) {
            inner.ring.push_back(cid);
        }
        drop(inner);
        self.ready.notify_one();
    }

    /// The next job, blocking until one is available. `None` only after
    /// [`Scheduler::stop`] AND every queue is drained — shutdown drains.
    fn next(&self) -> Option<Job> {
        let mut inner = self.inner.lock().expect("scheduler poisoned");
        loop {
            if let Some(cid) = inner.ring.pop_front() {
                inner.in_ring.remove(&cid);
                let (job, more) = match inner.queues.get_mut(&cid) {
                    Some(q) => (q.pop_front(), !q.is_empty()),
                    None => (None, false),
                };
                if more {
                    inner.ring.push_back(cid);
                    inner.in_ring.insert(cid);
                    // Another worker can take the connection's next job
                    // while we execute this one.
                    self.ready.notify_one();
                } else {
                    inner.queues.remove(&cid);
                }
                match job {
                    Some(j) => return Some(j),
                    None => continue, // stale ring entry (connection drained)
                }
            }
            if inner.stopped {
                return None;
            }
            inner = self
                .ready
                .wait_timeout(inner, POLL)
                .expect("scheduler poisoned")
                .0;
        }
    }

    fn stop(&self) {
        self.inner.lock().expect("scheduler poisoned").stopped = true;
        self.ready.notify_all();
    }
}

// -- per-connection shared state ---------------------------------------------

/// Shared per-connection state: the socket (reader reads, workers write
/// under `write`), the authenticated user, and the in-flight request
/// table the reader cancels into.
struct Conn {
    id: u64,
    stream: TcpStream,
    user: String,
    /// Serializes reply frames from concurrent workers (and the reader's
    /// inline control replies). One request's frames are written by one
    /// worker in order; frames of different requests may interleave —
    /// that is what the request id tag is for.
    write: Mutex<()>,
    max_frame: usize,
    stats: Arc<NetStats>,
    /// The served server's fault handle.
    faults: Faults,
    /// Set when the client vanished or the connection is being torn
    /// down; workers skip their replies.
    closed: AtomicBool,
    /// Request id → its governance guard, for the whole life of the
    /// request (queued through replied). The reader trips these on
    /// `Cancel` frames and on client disappearance.
    inflight: Mutex<HashMap<u64, Arc<QueryGuard>>>,
}

impl Conn {
    fn send_payload(&self, payload: &[u8]) -> Result<()> {
        if self.closed.load(Ordering::Relaxed) {
            return Err(GraqlError::net("connection closed"));
        }
        let _w = self.write.lock().expect("conn write lock poisoned");
        let mut w = &self.stream;
        write_frame(&mut w, payload, self.max_frame, &self.faults)?;
        self.stats.msgs_out.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_out
            .fetch_add(payload.len() as u64 + 4, Ordering::Relaxed);
        Ok(())
    }

    fn send(&self, request_id: u64, msg: &Msg) -> Result<()> {
        self.send_payload(&proto::encode_tagged(request_id, msg))
    }

    /// Marks the connection dead and unblocks the reader (shutting the
    /// socket down makes its next read return immediately).
    fn close(&self) {
        self.closed.store(true, Ordering::Relaxed);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Trips one in-flight request's guard (or all of them for id 0 —
    /// the legacy whole-connection cancel).
    fn cancel(&self, request_id: u64) {
        let inflight = self.inflight.lock().expect("inflight poisoned");
        if request_id == 0 {
            for g in inflight.values() {
                g.cancel();
            }
        } else if let Some(g) = inflight.get(&request_id) {
            g.cancel();
        }
    }

    fn inflight_len(&self) -> usize {
        self.inflight.lock().expect("inflight poisoned").len()
    }
}

fn accept_loop(
    listener: TcpListener,
    server: Server,
    opts: ServeOptions,
    shutdown: Arc<AtomicBool>,
    stats: Arc<NetStats>,
    gate: Arc<ExecGate>,
    slow: Option<Arc<SlowLog>>,
) {
    // The bounded worker pool, shared by every connection. The floor
    // matters on small machines: workers spend much of their time parked
    // on the admission gate or socket writes, and with a single worker
    // one slow query would monopolize job pickup — requests behind it
    // could not even reach the gate to be shed.
    let n_workers = if opts.workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(8)
            .max(4)
    } else {
        opts.workers
    };
    let sched = Arc::new(Scheduler::new());
    let pool: Vec<JoinHandle<()>> = (0..n_workers)
        .map(|_| {
            let sched = Arc::clone(&sched);
            let server = server.clone();
            let opts = opts.clone();
            let stats = Arc::clone(&stats);
            let gate = Arc::clone(&gate);
            let slow = slow.clone();
            std::thread::spawn(move || {
                while let Some(job) = sched.next() {
                    execute_job(&job, &server, &opts, &stats, &gate, slow.as_deref());
                    job.conn
                        .inflight
                        .lock()
                        .expect("inflight poisoned")
                        .remove(&job.id);
                }
            })
        })
        .collect();

    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    let mut next_conn_id: u64 = 1;
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Drain-on-overload: past the connection cap (or with the
                // accept-refuse failpoint armed) the new connection gets a
                // retryable overload error and is closed, while existing
                // connections keep draining.
                let active = stats.connections_active.load(Ordering::Relaxed);
                let refuse_armed = {
                    #[cfg(feature = "failpoints")]
                    {
                        matches!(
                            server.faults().hit("net/server/accept-refuse"),
                            Some(graql_types::failpoints::Action::Refuse)
                        )
                    }
                    #[cfg(not(feature = "failpoints"))]
                    {
                        false
                    }
                };
                if active >= opts.max_connections || refuse_armed {
                    refuse_connection(stream, active, &opts, &stats, server.faults());
                    continue;
                }
                let conn_id = next_conn_id;
                next_conn_id += 1;
                let server = server.clone();
                let opts = opts.clone();
                let shutdown = Arc::clone(&shutdown);
                let stats = Arc::clone(&stats);
                let sched = Arc::clone(&sched);
                readers.push(std::thread::spawn(move || {
                    stats.connections_total.fetch_add(1, Ordering::Relaxed);
                    stats.connections_active.fetch_add(1, Ordering::Relaxed);
                    // Reader errors are connection-fatal but never
                    // server-fatal.
                    let _ = handle_connection(
                        stream, conn_id, &server, &opts, &shutdown, &stats, &sched,
                    );
                    stats.connections_active.fetch_sub(1, Ordering::Relaxed);
                }));
                readers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
    // Drain: readers notice the flag once their in-flight table is empty
    // (workers keep executing meanwhile), then the pool spins down.
    for h in readers {
        let _ = h.join();
    }
    sched.stop();
    for h in pool {
        let _ = h.join();
    }
}

/// Sheds one connection at accept time: best-effort retryable error
/// frame, then close. The client's retry loop backs off and reconnects.
fn refuse_connection(
    stream: TcpStream,
    active: u64,
    opts: &ServeOptions,
    stats: &NetStats,
    faults: &Faults,
) {
    stats.connections_refused.fetch_add(1, Ordering::Relaxed);
    // The accepted socket may inherit the listener's nonblocking mode on
    // some platforms; the refusal write should block (briefly).
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(POLL));
    let payload = proto::encode_tagged(
        0,
        &error_msg(&GraqlError::net_retryable(format!(
            "server overloaded ({active} active connections), try again later"
        ))),
    );
    let mut w = &stream;
    let _ = write_frame(&mut w, &payload, opts.max_frame, faults);
}

/// A connection's framed transport with counters — used by the paths a
/// single thread owns (handshake, replication streaming). Concurrent
/// senders go through [`Conn`] instead.
struct Wire<'a> {
    stream: &'a TcpStream,
    stats: &'a NetStats,
    max_frame: usize,
    faults: &'a Faults,
}

impl Wire<'_> {
    fn send(&self, request_id: u64, msg: &Msg) -> Result<()> {
        let payload = proto::encode_tagged(request_id, msg);
        let mut w = self.stream;
        write_frame(&mut w, &payload, self.max_frame, self.faults)?;
        self.stats.msgs_out.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_out
            .fetch_add(payload.len() as u64 + 4, Ordering::Relaxed);
        Ok(())
    }

    fn recv(&self) -> Result<FrameRead> {
        let mut r = self.stream;
        let got = read_frame(&mut r, self.max_frame, self.faults)?;
        if let FrameRead::Frame(p) = &got {
            self.stats.msgs_in.fetch_add(1, Ordering::Relaxed);
            self.stats
                .bytes_in
                .fetch_add(p.len() as u64 + 4, Ordering::Relaxed);
        }
        Ok(got)
    }
}

/// The per-connection reader: handshake, then the demux loop — control
/// traffic answered inline, `Submit`s enqueued on the shared scheduler,
/// `Cancel`s tripped into the in-flight table.
#[allow(clippy::too_many_arguments)]
fn handle_connection(
    stream: TcpStream,
    conn_id: u64,
    server: &Server,
    opts: &ServeOptions,
    shutdown: &AtomicBool,
    stats: &Arc<NetStats>,
    sched: &Scheduler,
) -> Result<()> {
    stream
        .set_nodelay(true)
        .map_err(|e| GraqlError::net(format!("nodelay: {e}")))?;
    // Short read timeout: the reader wakes at frame boundaries to poll
    // the shutdown flag and account idle time.
    stream
        .set_read_timeout(Some(POLL))
        .map_err(|e| GraqlError::net(format!("read timeout: {e}")))?;
    stream
        .set_write_timeout(Some(opts.request_timeout))
        .map_err(|e| GraqlError::net(format!("write timeout: {e}")))?;

    let wire = Wire {
        stream: &stream,
        stats,
        max_frame: opts.max_frame,
        faults: server.faults(),
    };

    let session = match handshake(&wire, server, opts, shutdown)? {
        Some(s) => s,
        None => return Ok(()), // rejected or closed; error frame already sent
    };

    let conn = Arc::new(Conn {
        id: conn_id,
        stream: stream
            .try_clone()
            .map_err(|e| GraqlError::net(format!("cannot clone stream: {e}")))?,
        user: session.user().to_string(),
        write: Mutex::new(()),
        max_frame: opts.max_frame,
        stats: Arc::clone(stats),
        faults: server.faults().clone(),
        closed: AtomicBool::new(false),
        inflight: Mutex::new(HashMap::new()),
    });

    // Graceful degradation: a connection sending garbage gets error-frame
    // replies until its budget is spent, then a hangup. Frame-level
    // desync (unreadable framing) still closes immediately below.
    let mut error_budget = opts.error_budget;
    let mut idle = Duration::ZERO;
    loop {
        // Shutdown drains: leave only when nothing of ours is queued or
        // executing (workers still need the socket for their replies).
        if shutdown.load(Ordering::SeqCst) && conn.inflight_len() == 0 {
            return Ok(());
        }
        let frame = match wire.recv() {
            Ok(FrameRead::TimedOut) => {
                if conn.inflight_len() > 0 {
                    idle = Duration::ZERO; // busy, not idle
                    continue;
                }
                idle += POLL;
                if idle >= opts.idle_timeout {
                    // Retryable: a fresh connection fixes an idle hangup.
                    let _ = conn.send(
                        0,
                        &Msg::Error {
                            status: GraqlError::net_retryable("").wire_status(),
                            code: graql_types::codes::NET_OTHER.to_string(),
                            message: format!("idle for {}s, closing", idle.as_secs()),
                        },
                    );
                    return Ok(());
                }
                continue;
            }
            Ok(FrameRead::Closed) => {
                // The client vanished. Queued-but-unstarted requests are
                // skipped (workers check `closed` before executing), but
                // anything already executing runs to completion — a lost
                // client is indistinguishable from a lost reply, and
                // killing its writes would make "did my DDL land?"
                // nondeterministic. The per-request deadline still
                // bounds the zombie work.
                conn.closed.store(true, Ordering::Relaxed);
                return Ok(());
            }
            Ok(FrameRead::Frame(p)) => p,
            Err(e) => {
                conn.closed.store(true, Ordering::Relaxed);
                return Err(e);
            }
        };
        let (request_id, msg) = match proto::decode_tagged(&frame) {
            Ok(x) => x,
            Err(e) => {
                // Unparseable frame (well-delimited, bad contents —
                // e.g. corrupted in transit): report it as retryable
                // so the client re-sends, and consume budget. Echo the
                // id prefix when it survived.
                let rid = frame
                    .get(..8)
                    .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
                    .unwrap_or(0);
                let _ = conn.send(
                    rid,
                    &error_msg(&GraqlError::net_retryable(format!(
                        "could not decode request: {e}"
                    ))),
                );
                error_budget = error_budget.saturating_sub(1);
                if error_budget == 0 {
                    return Err(e);
                }
                continue;
            }
        };
        idle = Duration::ZERO;

        let started = Instant::now();
        match msg {
            Msg::Submit { ir } => {
                // Per-connection backpressure: a bounded in-flight table
                // (the scheduler queue is its mirror) sheds excess
                // submits with the same retryable busy error the gate
                // uses, so a runaway pipeline degrades loudly.
                let guard = {
                    let mut inflight = conn.inflight.lock().expect("inflight poisoned");
                    if inflight.len() >= opts.max_inflight_per_conn {
                        None
                    } else {
                        let mut budget: QueryBudget = server.query_budget();
                        budget.deadline = Some(match budget.deadline {
                            Some(d) => d.min(opts.request_timeout),
                            None => opts.request_timeout,
                        });
                        let guard = QueryGuard::with_faults(budget, server.faults().clone());
                        let guard = Arc::new(guard);
                        inflight.insert(request_id, Arc::clone(&guard));
                        Some(guard)
                    }
                };
                match guard {
                    Some(guard) => sched.enqueue(Job {
                        conn: Arc::clone(&conn),
                        id: request_id,
                        ir,
                        guard,
                        received: started,
                    }),
                    None => {
                        stats.queries_shed.fetch_add(1, Ordering::Relaxed);
                        server.metrics().note_outcome(QueryOutcome::Shed);
                        conn.send(
                            request_id,
                            &error_msg(&GraqlError::net_retryable(format!(
                                "connection has {} requests in flight, try again later",
                                opts.max_inflight_per_conn
                            ))),
                        )?;
                    }
                }
            }
            Msg::Cancel => {
                // Targets the tagged request id; 0 cancels everything in
                // flight. A Cancel racing a reply that already went out
                // finds no entry and is harmless.
                conn.cancel(request_id);
            }
            Msg::Check { text } => {
                let diags = session.check_script(&text);
                stats.note_request(started.elapsed().as_micros() as u64);
                conn.send(
                    request_id,
                    &Msg::CheckReport {
                        diags: diags_to_wire(&diags),
                    },
                )?;
            }
            Msg::Describe => {
                let result = session.describe();
                stats.note_request(started.elapsed().as_micros() as u64);
                match result {
                    Ok(mut text) => {
                        text.push('\n');
                        text.push_str(&stats.render());
                        conn.send(request_id, &Msg::DescribeReport { text })?;
                    }
                    Err(e) => conn.send(request_id, &error_msg(&e))?,
                }
            }
            Msg::Metrics => {
                stats.note_request(started.elapsed().as_micros() as u64);
                conn.send(
                    request_id,
                    &Msg::MetricsReport {
                        text: metrics_text(server, stats),
                    },
                )?;
            }
            Msg::Ping => conn.send(request_id, &Msg::Pong)?,
            Msg::Promote => {
                if session.role() != Role::Admin {
                    conn.send(
                        request_id,
                        &error_msg(&GraqlError::exec(format!(
                            "user '{}' (analyst) may not promote this server",
                            session.user()
                        ))),
                    )?;
                    continue;
                }
                let was = server.promote();
                if let ReplRole::Replica { primary } = &was {
                    eprintln!("gems-serve: promoted to primary (was replica of {primary})");
                }
                stats.note_request(started.elapsed().as_micros() as u64);
                conn.send(
                    request_id,
                    &Msg::Done {
                        stmts: 0,
                        micros: started.elapsed().as_micros() as u64,
                    },
                )?;
            }
            Msg::ReplSubscribe { from_lsn } => {
                if session.role() != Role::Admin {
                    conn.send(
                        request_id,
                        &error_msg(&GraqlError::exec(format!(
                            "user '{}' (analyst) may not subscribe to the WAL stream",
                            session.user()
                        ))),
                    )?;
                    continue;
                }
                if !server.is_durable() {
                    conn.send(
                        request_id,
                        &error_msg(&GraqlError::net(
                            "replication requires a durable server (start with --durable)",
                        )),
                    )?;
                    continue;
                }
                // The connection becomes a one-way WAL stream (plus acks
                // coming back), every frame tagged with the subscribe
                // request's id; it never returns to request dispatch.
                let peer = stream
                    .peer_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "unknown".to_string());
                return serve_replication(
                    &wire, request_id, server, stats, shutdown, from_lsn, &peer,
                );
            }
            Msg::Goodbye => {
                // Same contract as a vanished client: queued work is
                // skipped, running work completes (replies to a
                // said-goodbye client just fail to write).
                conn.closed.store(true, Ordering::Relaxed);
                return Ok(());
            }
            other => {
                conn.send(
                    request_id,
                    &error_msg(&GraqlError::net(format!(
                        "unexpected message {other:?} (session already established)"
                    ))),
                )?;
                error_budget = error_budget.saturating_sub(1);
                if error_budget == 0 {
                    return Err(GraqlError::net("per-connection error budget exhausted"));
                }
            }
        }
    }
}

/// Worker-side execution of one queued `Submit`: admission control, the
/// query itself (on this worker thread — cancellation arrives via the
/// guard the reader holds), then the tagged reply frames.
fn execute_job(
    job: &Job,
    server: &Server,
    opts: &ServeOptions,
    stats: &NetStats,
    gate: &ExecGate,
    slow: Option<&SlowLog>,
) {
    let conn = &*job.conn;
    if conn.closed.load(Ordering::Relaxed) {
        return; // client already gone; nothing to execute or reply to
    }
    // Admission control: acquire an execution slot or shed.
    let shed_armed = {
        #[cfg(feature = "failpoints")]
        {
            matches!(
                server.faults().hit("net/server/shed"),
                Some(graql_types::failpoints::Action::Refuse)
            )
        }
        #[cfg(not(feature = "failpoints"))]
        {
            false
        }
    };
    // The queue-wait budget is anchored at enqueue, so time spent in the
    // scheduler waiting for a worker counts against it: a request stuck
    // behind a saturated pool sheds as soon as a worker sees it instead
    // of waiting the full budget again. A free slot still admits.
    let queue_budget = (job.received + opts.queue_wait).saturating_duration_since(Instant::now());
    if shed_armed || !gate.admit(conn.id, queue_budget) {
        stats.queries_shed.fetch_add(1, Ordering::Relaxed);
        server.metrics().note_outcome(QueryOutcome::Shed);
        let _ = conn.send(
            job.id,
            &error_msg(&GraqlError::net_retryable(format!(
                "server busy ({} queries executing), try again later",
                opts.max_concurrency
            ))),
        );
        return;
    }
    run_submit(job, server, stats, slow);
    gate.release(conn.id);
}

/// Executes one admitted `Submit` and writes its reply. The guard's
/// deadline was anchored when the request arrived, so queue wait counts
/// against it; a runaway query aborts cooperatively (typed
/// deadline/budget error) and the worker is immediately reusable.
fn run_submit(job: &Job, server: &Server, stats: &NetStats, slow: Option<&SlowLog>) {
    let conn = &*job.conn;
    // Delay-only site: simulates a slow query under the request deadline
    // without wall-clock-sized sleeps in tests.
    graql_types::failpoint!(server.faults(), "net/server/exec-delay");

    let guard = &*job.guard;
    // Slow-query logging needs the stage breakdown, so the whole request
    // runs with a profile armed; without a slow log the obs stays `None`
    // and execution keeps the zero-overhead path.
    let profile = slow.map(|_| QueryProfile::new());
    let obs = profile.as_ref();

    // Sessions are cheap (an `Arc` + user + role): minting one per
    // request lets any number of a connection's requests execute
    // concurrently on different workers.
    let result = match server.connect(&conn.user) {
        Ok(mut session) => session.execute_ir_observed(&job.ir, guard, obs),
        Err(e) => Err(e),
    };

    let elapsed = job.received.elapsed();
    stats.note_request(elapsed.as_micros() as u64);
    stats
        .query_peak_bytes
        .fetch_max(guard.bytes(), Ordering::Relaxed);
    match &result {
        Err(GraqlError::Deadline(_)) => {
            stats
                .queries_deadline_killed
                .fetch_add(1, Ordering::Relaxed);
        }
        Err(GraqlError::Cancelled(_)) => {
            stats.queries_cancelled.fetch_add(1, Ordering::Relaxed);
        }
        Err(GraqlError::Budget(_)) => {
            stats.queries_budget_killed.fetch_add(1, Ordering::Relaxed);
        }
        _ => {}
    }
    if let Some(profile) = &profile {
        server.metrics().observe_profile(profile);
    }
    if let (Some(slow), Some(profile)) = (slow, profile.as_ref()) {
        if elapsed >= slow.threshold {
            let outcome = match &result {
                Ok(_) => QueryOutcome::Ok,
                Err(e) => QueryOutcome::from_error(e),
            };
            // The IR deliberately drops source text, so the statement
            // field names the transport rather than echoing the script.
            let report = ProfileReport::seal(
                "<submit>".to_string(),
                String::new(),
                profile,
                guard.rows(),
                guard.bytes(),
            );
            server.metrics().slow_queries.inc();
            slow.note(
                &conn.user,
                elapsed.as_micros() as u64,
                outcome.name(),
                &report,
            );
        }
    }
    #[cfg(feature = "failpoints")]
    if server
        .faults()
        .hit("net/server/drop-before-reply")
        .is_some()
    {
        // The request executed but its reply is lost — the "server died
        // before replying" fault. Closing the socket unblocks the reader.
        conn.close();
        return;
    }
    // Reply; write failures mean the client is gone — mark the
    // connection closed so the reader and other workers stop too.
    let replied = (|| -> Result<()> {
        match result {
            Ok(outputs) => {
                let stmts = outputs.len() as u32;
                for out in &outputs {
                    for frame in output_frames(job.id, out) {
                        conn.send_payload(&frame)?;
                    }
                }
                conn.send(
                    job.id,
                    &Msg::Done {
                        stmts,
                        micros: elapsed.as_micros() as u64,
                    },
                )?;
            }
            Err(e) => conn.send(job.id, &error_msg(&e))?,
        }
        Ok(())
    })();
    if replied.is_err() && !conn.closed.load(Ordering::Relaxed) {
        conn.close();
    }
}

/// Serves one replica's WAL subscription until the connection drops, the
/// replica says `Goodbye`, or the server shuts down. Every stream frame
/// is tagged with the subscribe request's id.
///
/// Ordering is the crux: the commit-feed subscription is registered
/// *before* the bootstrap view is taken, so no batch can fall between
/// "what the bootstrap saw" and "what the channel delivers" — overlap is
/// possible (a batch both in the bootstrap backlog and the channel) and
/// resolved by LSN (`last_sent`), a gap is not. The replica applies
/// idempotently by LSN as a second line of defense.
fn serve_replication(
    wire: &Wire<'_>,
    sub_id: u64,
    server: &Server,
    stats: &NetStats,
    shutdown: &AtomicBool,
    from_lsn: u64,
    peer: &str,
) -> Result<()> {
    let rx = server.subscribe_commits()?;
    let boot = server.repl_bootstrap(from_lsn)?;
    stats
        .repl_replicas_connected
        .fetch_add(1, Ordering::Relaxed);
    let result = stream_to_replica(
        wire, sub_id, server, stats, shutdown, from_lsn, peer, rx, boot,
    );
    stats
        .repl_replicas_connected
        .fetch_sub(1, Ordering::Relaxed);
    stats.forget_repl_lag(peer);
    result
}

#[allow(clippy::too_many_arguments)]
fn stream_to_replica(
    wire: &Wire<'_>,
    sub_id: u64,
    server: &Server,
    stats: &NetStats,
    shutdown: &AtomicBool,
    from_lsn: u64,
    peer: &str,
    rx: std::sync::mpsc::Receiver<graql_core::ShippedBatch>,
    boot: graql_core::ReplBootstrap,
) -> Result<()> {
    let mut last_sent = from_lsn.saturating_sub(1);
    // Initial sync: the replica is behind the last checkpoint, so the log
    // alone cannot catch it up — ship the snapshot files first. `last` is
    // set on the final chunk of the final file; the replica loads the
    // directory and re-bases its log at the watermark when it sees it.
    if let Some((watermark, files)) = &boot.snapshot {
        last_sent = last_sent.max(watermark.saturating_sub(1));
        let n_files = files.len();
        for (fi, (name, data)) in files.iter().enumerate() {
            let chunks: Vec<&[u8]> = if data.is_empty() {
                vec![&[]]
            } else {
                data.chunks(SNAPSHOT_CHUNK).collect()
            };
            let n_chunks = chunks.len();
            for (ci, chunk) in chunks.into_iter().enumerate() {
                wire.send(
                    sub_id,
                    &Msg::ReplSnapshot {
                        watermark: *watermark,
                        name: name.clone(),
                        data: chunk.to_vec(),
                        last: fi + 1 == n_files && ci + 1 == n_chunks,
                    },
                )?;
                stats.repl_snapshot_chunks.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    let mut backlog = boot.backlog;
    let mut last_heartbeat = Instant::now();
    loop {
        // Everything sendable right now: the bootstrap backlog first,
        // then whatever the commit thread shipped since.
        while let Ok(batch) = rx.try_recv() {
            backlog.push(batch);
        }
        for batch in backlog.drain(..) {
            if batch.last_lsn <= last_sent {
                continue; // overlap between bootstrap view and live feed
            }
            graql_types::failpoint!(server.faults(), "net/repl/stream", GraqlError::net);
            let span = batch.last_lsn - batch.first_lsn + 1;
            wire.send(
                sub_id,
                &Msg::ReplBatch {
                    first_lsn: batch.first_lsn,
                    last_lsn: batch.last_lsn,
                    frames: batch.frames,
                },
            )?;
            stats.repl_batches_shipped.fetch_add(1, Ordering::Relaxed);
            stats
                .repl_records_shipped
                .fetch_add(span, Ordering::Relaxed);
            last_sent = batch.last_lsn;
            last_heartbeat = Instant::now();
        }
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        if last_heartbeat.elapsed() >= REPL_HEARTBEAT {
            wire.send(
                sub_id,
                &Msg::ReplHeartbeat {
                    durable_lsn: server.wal_durable_lsn(),
                },
            )?;
            stats.repl_heartbeats.fetch_add(1, Ordering::Relaxed);
            last_heartbeat = Instant::now();
        }
        // Wait for acks (or anything else) with the standard short read
        // timeout — this is also the stream's pacing delay: new batches
        // are drained at most POLL after their fsync.
        match wire.recv()? {
            FrameRead::TimedOut => {}
            FrameRead::Closed => return Ok(()),
            FrameRead::Frame(p) => match proto::decode_tagged(&p) {
                Ok((_, Msg::ReplAck { lsn })) => {
                    stats.repl_acks.fetch_add(1, Ordering::Relaxed);
                    stats.note_repl_lag(peer, server.wal_durable_lsn().saturating_sub(lsn));
                }
                Ok((_, Msg::Goodbye)) => return Ok(()),
                Ok((_, other)) => {
                    return Err(GraqlError::net(format!(
                        "unexpected message {other:?} on a replication stream"
                    )))
                }
                Err(e) => return Err(e),
            },
        }
    }
}

/// Runs the server side of version negotiation and authentication.
/// Returns `None` when the connection was rejected (error frame sent) or
/// closed before a `Hello`. The reply echoes the `Hello` frame's id.
fn handshake(
    wire: &Wire<'_>,
    server: &Server,
    opts: &ServeOptions,
    shutdown: &AtomicBool,
) -> Result<Option<Session>> {
    let mut idle = Duration::ZERO;
    let (hello_id, msg) = loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(None);
        }
        match wire.recv()? {
            FrameRead::TimedOut => {
                idle += POLL;
                if idle >= opts.idle_timeout {
                    return Ok(None);
                }
            }
            FrameRead::Closed => return Ok(None),
            FrameRead::Frame(p) => match proto::decode_tagged(&p) {
                Ok(m) => break m,
                Err(e) => {
                    // A garbled Hello is transport corruption, not a bad
                    // client: re-handshaking on a fresh connection is
                    // always safe, so tell the client to retry.
                    let _ = wire.send(
                        0,
                        &error_msg(&GraqlError::net_retryable(format!(
                            "could not decode handshake: {e}"
                        ))),
                    );
                    return Ok(None);
                }
            },
        }
    };
    let (proto_version, user) = match msg {
        Msg::Hello { proto, user } => (proto, user),
        other => {
            wire.send(
                hello_id,
                &error_msg(&GraqlError::net(format!("expected Hello, got {other:?}"))),
            )?;
            return Ok(None);
        }
    };
    if proto_version != PROTO_VERSION {
        wire.send(
            hello_id,
            &error_msg(&GraqlError::net(format!(
                "protocol version mismatch: client speaks v{proto_version}, server speaks v{PROTO_VERSION}"
            ))),
        )?;
        return Ok(None);
    }
    match server.connect(&user) {
        Ok(session) => {
            wire.send(
                hello_id,
                &Msg::Welcome {
                    proto: PROTO_VERSION,
                    role: session.role().wire_tag(),
                    server: opts.banner.clone(),
                },
            )?;
            Ok(Some(session))
        }
        Err(e) => {
            wire.send(hello_id, &error_msg(&e))?;
            Ok(None)
        }
    }
}

/// Convenience for binaries: log that we are up in a greppable, flushed
/// line so process supervisors (CI) can wait for readiness.
pub fn announce(out: &mut impl Write, addr: SocketAddr) {
    let _ = writeln!(out, "gems-serve listening on {addr}");
    let _ = out.flush();
}
