//! The remote session client.
//!
//! [`RemoteSession`] speaks the frame + message protocol to a
//! [`crate::server::NetServer`] and implements [`crate::GemsSession`], so
//! the shell drives a networked server through exactly the code paths it
//! uses in-process. Scripts are parsed locally (errors surface with the
//! caret rendering users expect, without a round trip) and shipped as
//! binary IR — the paper's client→front-end format (§III).
//!
//! ## Pipelining (protocol v5)
//!
//! Every frame carries a request id, so one connection can have many
//! queries in flight: [`RemoteSession::submit`] sends a query and returns
//! immediately with its id, [`RemoteSession::wait`] (or the non-blocking
//! [`RemoteSession::poll`]) collects a reply, and the session demuxes
//! interleaved reply streams by id. The classic blocking
//! `execute_script` is submit-then-wait with a pipeline depth of one.
//!
//! Every wait is bounded: connect, reads and writes all carry deadlines,
//! and each in-flight request has its *own* deadline (anchored at
//! submit), so a server sitting on one reply cannot stall unrelated
//! requests — the others keep their budgets and fail individually. A
//! server that stops replying yields a typed
//! [`GraqlError::Net`](graql_types::GraqlError) — never a hang.
//!
//! ## Retry
//!
//! Transport faults (connection reset, truncated frame, timed-out read,
//! an overloaded server refusing the connection) surface as *retryable*
//! [`NetError`](graql_types::NetError)s. For **idempotent** requests —
//! ping, describe, check, and read-only submits — the blocking API
//! transparently reconnects and retries with exponential backoff plus
//! deterministic jitter, up to [`RetryPolicy::max_retries`] times.
//! Requests that mutate server state (DDL, ingest, `into` captures) are
//! never retried: a lost reply does not reveal whether the mutation
//! landed, so the typed error goes to the caller instead. A reconnect
//! fails every pipelined request that was in flight with a retryable
//! error — resubmitting is the caller's decision.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use graql_core::{Role, SessionOutput};
use graql_parser::ast::{Script, Stmt};
use graql_types::failpoints::Faults;
use graql_types::{Diagnostics, GraqlError, Result};

use crate::frame::{read_frame, write_frame, FrameRead, MAX_FRAME};
use crate::proto::{self, diags_from_wire, Msg, TableAssembler, PROTO_VERSION};
use crate::server::NetStats;
use crate::GemsSession;

/// How many `NotPrimary` redirects one request will follow before giving
/// up (guards against promotion ping-pong).
const MAX_REDIRECTS: u32 = 3;

/// Granularity of the demux pump's socket reads: long waits are chopped
/// into slices of at most this, so per-request deadlines are enforced
/// promptly even while blocked on an unrelated reply.
const PUMP_SLICE: Duration = Duration::from_millis(50);

/// Bounded-retry tuning for idempotent requests.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Extra attempts after the first failure. `0` disables retry.
    pub max_retries: u32,
    /// Backoff before retry `n` is `base_backoff * 2^(n-1)`, capped at
    /// [`RetryPolicy::max_backoff`], scaled by jitter in `[0.5, 1.0)`.
    pub base_backoff: Duration,
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(1),
            jitter_seed: 0x6772_6171_6c21, // "graql!"
        }
    }
}

/// Client-side tuning.
#[derive(Debug, Clone)]
pub struct ConnectOptions {
    /// User to authenticate as.
    pub user: String,
    /// TCP connect deadline.
    pub connect_timeout: Duration,
    /// Per-request deadline, anchored when the request is submitted: if
    /// its reply has not fully arrived by then, that request (and only
    /// that request) fails with a typed error.
    pub timeout: Duration,
    /// Hard cap on one frame's payload, both directions.
    pub max_frame: usize,
    /// Retry behaviour for idempotent requests.
    pub retry: RetryPolicy,
    /// When set, retry/reconnect/failover counts also land in this shared
    /// registry (so e.g. a replica's tailer reports into the replica's
    /// own metrics endpoint). The session always keeps local counts too.
    pub stats: Option<Arc<NetStats>>,
}

impl ConnectOptions {
    pub fn new(user: impl Into<String>) -> Self {
        ConnectOptions {
            user: user.into(),
            connect_timeout: Duration::from_secs(10),
            timeout: Duration::from_secs(60),
            max_frame: MAX_FRAME,
            retry: RetryPolicy::default(),
            stats: None,
        }
    }

    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sets the number of retries for idempotent requests (0 disables).
    pub fn with_retries(mut self, max_retries: u32) -> Self {
        self.retry.max_retries = max_retries;
        self
    }

    pub fn with_backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.retry.base_backoff = base;
        self.retry.max_backoff = cap;
        self
    }

    /// Replaces the whole retry policy (the `gems-shell
    /// --retries/--backoff-ms` flags build one of these).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Mirrors resilience counters into a shared [`NetStats`].
    pub fn with_stats(mut self, stats: Arc<NetStats>) -> Self {
        self.stats = Some(stats);
        self
    }
}

/// Demux state of one in-flight request: the outputs assembled so far
/// and the request's own deadline.
#[derive(Debug)]
struct InFlight {
    outputs: Vec<SessionOutput>,
    table: Option<TableAssembler>,
    deadline: Instant,
}

/// A session against a remote GEMS server.
#[derive(Debug)]
pub struct RemoteSession {
    stream: TcpStream,
    user: String,
    role: Role,
    server_banner: String,
    max_frame: usize,
    /// Resolved server addresses, tried in order — the failover list. A
    /// `NotPrimary` redirect moves the primary's address to the front.
    addrs: Vec<SocketAddr>,
    /// The endpoint the current socket is connected to (failover
    /// detection compares reconnects against it).
    current: SocketAddr,
    opts: ConnectOptions,
    /// Set when a transport error left the connection unusable; the next
    /// request reconnects first.
    broken: bool,
    /// Jitter RNG state (SplitMix64).
    jitter: u64,
    /// How many reconnect-and-retry cycles this session has performed.
    retries: u64,
    /// How many times the session re-established its connection.
    reconnects: u64,
    /// How many reconnects landed on a different endpoint (read failover
    /// or write redirect).
    failovers: u64,
    /// Request id allocator. Ids are connection-scoped and never 0 (the
    /// wire reserves 0 for cancel-all / unsolicited errors).
    next_id: u64,
    /// Requests submitted but not yet fully replied, keyed by id.
    inflight: HashMap<u64, InFlight>,
    /// Finished requests not yet collected by `wait`/`poll`.
    completed: HashMap<u64, Result<Vec<SessionOutput>>>,
    /// Control round trips awaiting their reply (see `rpc`).
    awaiting_control: std::collections::HashSet<u64>,
    /// Control replies (pong, reports, ...) routed by id.
    control: HashMap<u64, Msg>,
    /// The session's own fault handle: its frame I/O and the
    /// `net/client/*` sites consult it, whatever server it talks to.
    faults: Faults,
}

/// Connects to the first reachable of `addrs`. Failures are retryable:
/// the server may be restarting or shedding load.
fn open_socket(addrs: &[SocketAddr], connect_timeout: Duration) -> Result<(TcpStream, SocketAddr)> {
    let mut last_err: Option<std::io::Error> = None;
    for candidate in addrs {
        match TcpStream::connect_timeout(candidate, connect_timeout) {
            Ok(s) => return Ok((s, *candidate)),
            Err(e) => last_err = Some(e),
        }
    }
    Err(GraqlError::net_retryable(match last_err {
        Some(e) => format!("cannot connect: {e}"),
        None => "server address resolves to nothing".to_string(),
    }))
}

pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Sleeps `base * 2^(attempt-1)` capped at `max_backoff`, scaled by a
/// deterministic jitter factor in `[0.5, 1.0)`.
pub(crate) fn sleep_backoff(policy: &RetryPolicy, attempt: u32, jitter: &mut u64) {
    let exp = policy
        .base_backoff
        .saturating_mul(1u32 << (attempt - 1).min(16));
    let capped = exp.min(policy.max_backoff);
    let factor = 0.5 + (splitmix64(jitter) >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
    std::thread::sleep(capped.mul_f64(factor));
}

/// Cancels this session's in-flight requests from another thread (e.g. a
/// Ctrl-C handler): writes an out-of-band [`Msg::Cancel`] frame tagged
/// with id 0 — cancel-everything — on a clone of the session's socket.
/// The server trips each request's guard and the queries abort at their
/// next cooperative checkpoint; the session then receives typed
/// `Cancelled` errors as the replies and stays usable.
///
/// The handle is bound to the socket it was cloned from: after the
/// session reconnects (retry), take a fresh handle.
#[derive(Debug)]
pub struct CancelHandle {
    stream: TcpStream,
    max_frame: usize,
    faults: Faults,
}

impl CancelHandle {
    /// Requests cancellation of everything executing on the session's
    /// connection. Best-effort and idempotent; errors only if the frame
    /// could not be written.
    pub fn cancel(&self) -> Result<()> {
        let payload = proto::encode_tagged(0, &Msg::Cancel);
        let mut w = &self.stream;
        write_frame(&mut w, &payload, self.max_frame, &self.faults)
    }

    /// Requests cancellation of one specific in-flight request.
    pub fn cancel_request(&self, request_id: u64) -> Result<()> {
        let payload = proto::encode_tagged(request_id, &Msg::Cancel);
        let mut w = &self.stream;
        write_frame(&mut w, &payload, self.max_frame, &self.faults)
    }
}

impl RemoteSession {
    /// A [`CancelHandle`] for the current connection, for cancelling
    /// in-flight requests from another thread.
    pub fn cancel_handle(&self) -> Result<CancelHandle> {
        Ok(CancelHandle {
            stream: self
                .stream
                .try_clone()
                .map_err(|e| GraqlError::net(format!("cannot clone socket: {e}")))?,
            max_frame: self.max_frame,
            faults: self.faults.clone(),
        })
    }
}

impl RemoteSession {
    /// Connects, negotiates the protocol version and authenticates.
    /// Transient connect failures (refused, overloaded server) retry per
    /// the options' [`RetryPolicy`].
    pub fn connect(addr: impl ToSocketAddrs, opts: ConnectOptions) -> Result<RemoteSession> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| GraqlError::net(format!("cannot resolve server address: {e}")))?
            .collect();
        if addrs.is_empty() {
            return Err(GraqlError::net("server address resolves to nothing"));
        }
        let mut jitter = opts.retry.jitter_seed;
        let mut attempt = 0u32;
        let (stream, current) = loop {
            match open_socket(&addrs, opts.connect_timeout) {
                Ok(s) => break s,
                Err(e) if e.is_retryable() && attempt < opts.retry.max_retries => {
                    attempt += 1;
                    sleep_backoff(&opts.retry, attempt, &mut jitter);
                }
                Err(e) => return Err(e),
            }
        };
        let mut session = RemoteSession {
            stream,
            user: opts.user.clone(),
            role: Role::Analyst,
            server_banner: String::new(),
            max_frame: opts.max_frame,
            addrs,
            current,
            jitter,
            opts,
            broken: true,
            retries: 0,
            reconnects: 0,
            failovers: 0,
            next_id: 0,
            inflight: HashMap::new(),
            completed: HashMap::new(),
            awaiting_control: std::collections::HashSet::new(),
            control: HashMap::new(),
            faults: Faults::default(),
        };
        loop {
            match session.handshake() {
                Ok(()) => return Ok(session),
                Err(e) if e.is_retryable() && attempt < session.opts.retry.max_retries => {
                    attempt += 1;
                    session.backoff(attempt);
                    // A fresh socket for the next attempt; ignore failures
                    // here, the next handshake reports them.
                    let _ = session.reconnect_socket();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The session's fault handle; tests arm it to inject client-side
    /// faults.
    pub fn faults(&self) -> &Faults {
        &self.faults
    }

    /// The banner the server sent in `Welcome`.
    pub fn server_banner(&self) -> &str {
        &self.server_banner
    }

    /// How many reconnect-and-retry cycles this session has performed.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// How many times the session re-established its connection.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// How many reconnects switched endpoints (failover or redirect).
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// The endpoint the session is currently connected to.
    pub fn connected_addr(&self) -> SocketAddr {
        self.current
    }

    /// Round-trips a `Ping` (liveness / latency probe).
    pub fn ping(&mut self) -> Result<()> {
        self.request(true, |s| match s.rpc(&Msg::Ping)? {
            Msg::Pong => Ok(()),
            other => Err(GraqlError::net(format!("expected Pong, got {other:?}"))),
        })
    }

    /// Promotes the connected server to primary (admin only). Idempotent:
    /// promoting a server that is already primary is a no-op, so a lost
    /// reply is safely retried.
    pub fn promote(&mut self) -> Result<()> {
        self.request(true, |s| match s.rpc(&Msg::Promote)? {
            Msg::Done { .. } => Ok(()),
            Msg::Error {
                status, message, ..
            } => Err(GraqlError::from_wire_status(status, message)),
            other => Err(GraqlError::net(format!(
                "expected Done after Promote, got {other:?}"
            ))),
        })
    }

    /// Fetches the server's metrics in Prometheus exposition text — the
    /// same body the `--metrics-addr` HTTP endpoint serves. Idempotent.
    pub fn metrics(&mut self) -> Result<String> {
        self.request(true, |s| match s.rpc(&Msg::Metrics)? {
            Msg::MetricsReport { text } => Ok(text),
            Msg::Error {
                status, message, ..
            } => Err(GraqlError::from_wire_status(status, message)),
            other => Err(GraqlError::net(format!(
                "expected MetricsReport, got {other:?}"
            ))),
        })
    }

    // -- the pipelined API ---------------------------------------------------

    /// Submits a script without waiting for its reply, returning the
    /// request id to [`RemoteSession::wait`]/[`RemoteSession::poll`] on.
    /// Any number of requests may be in flight at once; the server
    /// interleaves and the session demuxes by id. `submit` itself never
    /// retries — with a pipeline in flight, only the caller knows which
    /// requests are safe to resubmit.
    pub fn submit(&mut self, text: &str) -> Result<u64> {
        let script = graql_parser::parse(text)?;
        let ir = graql_core::ir::encode(&script);
        self.submit_ir(&ir)
    }

    /// [`RemoteSession::submit`] for pre-compiled IR.
    pub fn submit_ir(&mut self, ir: &[u8]) -> Result<u64> {
        if self.broken {
            self.reconnect()?;
        }
        let id = self.fresh_id();
        // Register before sending: a reply cannot arrive before the
        // request is written, but an error path mustn't leak the entry.
        self.inflight.insert(
            id,
            InFlight {
                outputs: Vec::new(),
                table: None,
                deadline: Instant::now() + self.opts.timeout,
            },
        );
        if let Err(e) = self.send_tagged(id, &Msg::Submit { ir: ir.to_vec() }) {
            self.inflight.remove(&id);
            self.broken = true;
            self.fail_all_inflight("connection lost while submitting");
            return Err(e);
        }
        Ok(id)
    }

    /// Number of submitted requests whose replies have not been collected.
    pub fn pending(&self) -> usize {
        self.inflight.len() + self.completed.len()
    }

    /// Non-blocking check on one request: drains whatever reply frames
    /// have arrived and returns the outputs if request `id` is complete,
    /// `None` if it is still in flight.
    pub fn poll(&mut self, id: u64) -> Result<Option<Vec<SessionOutput>>> {
        if !self.completed.contains_key(&id) && self.inflight.contains_key(&id) {
            // A transport fault fails the pipeline into `completed`;
            // fall through and hand back this request's entry.
            let _ = self.pump(Duration::ZERO);
            self.expire_deadlines();
        }
        match self.completed.remove(&id) {
            Some(result) => result.map(Some),
            None if self.inflight.contains_key(&id) => Ok(None),
            None => Err(GraqlError::net(format!("unknown request id {id}"))),
        }
    }

    /// Blocks until request `id` completes (reply fully received, its
    /// deadline expired, or the connection died) and returns its outputs.
    pub fn wait(&mut self, id: u64) -> Result<Vec<SessionOutput>> {
        loop {
            if let Some(result) = self.completed.remove(&id) {
                return result;
            }
            if !self.inflight.contains_key(&id) {
                return Err(GraqlError::net(format!("unknown request id {id}")));
            }
            self.expire_deadlines();
            if self.completed.contains_key(&id) {
                continue;
            }
            // Read with a slice bounded by the *soonest* in-flight
            // deadline, not this request's: one slow reply must not
            // stall the deadline enforcement of the others.
            let now = Instant::now();
            let soonest = self
                .inflight
                .values()
                .map(|e| e.deadline)
                .min()
                .unwrap_or(now);
            let slice = soonest.saturating_duration_since(now).min(PUMP_SLICE);
            if let Err(e) = self.pump(slice) {
                // A transport fault failed the whole pipeline into
                // `completed`; return this request's entry so it is
                // consumed (the error is the same retryable one).
                return self.completed.remove(&id).unwrap_or(Err(e));
            }
        }
    }

    /// Cancels one in-flight request (best-effort, out of band). The
    /// request still completes — typically with a typed `Cancelled`
    /// error — and must still be collected.
    pub fn cancel_request(&mut self, id: u64) -> Result<()> {
        self.send_tagged(id, &Msg::Cancel)
    }

    /// Allocates the next request id (connection-scoped, never 0).
    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Fails every in-flight request with a retryable transport error
    /// (called when the connection is known dead — the pipeline cannot
    /// be salvaged, individual resubmission is the caller's decision).
    fn fail_all_inflight(&mut self, why: &str) {
        for (id, _) in std::mem::take(&mut self.inflight) {
            self.completed
                .insert(id, Err(GraqlError::net_retryable(why.to_string())));
        }
    }

    /// Completes every request whose own deadline has passed with a
    /// typed error. Unrelated requests are untouched. The request is
    /// *abandoned*, not cancelled: the server may still complete it
    /// (the reply frames are dropped as strays), so a lost reply to a
    /// write means "unknown whether it landed" — exactly the contract
    /// the no-retry-on-mutation rule is built on. Callers who want the
    /// server to stop spending use [`RemoteSession::cancel_request`].
    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, e)| now >= e.deadline)
            .map(|(id, _)| *id)
            .collect();
        for id in expired {
            self.inflight.remove(&id);
            self.completed.insert(
                id,
                Err(GraqlError::net_retryable(
                    "server did not reply within the deadline",
                )),
            );
        }
    }

    /// Reads at most one frame (waiting up to `wait`) and routes it to
    /// its in-flight request. Transport faults fail the whole pipeline.
    fn pump(&mut self, wait: Duration) -> Result<()> {
        self.stream
            .set_read_timeout(Some(wait.max(Duration::from_millis(1))))
            .map_err(|e| GraqlError::net(format!("read timeout: {e}")))?;
        match read_frame(&mut self.stream, self.max_frame, &self.faults) {
            Ok(FrameRead::Frame(p)) => {
                let (id, msg) = proto::decode_tagged(&p)?;
                self.route(id, msg);
                Ok(())
            }
            Ok(FrameRead::TimedOut) => Ok(()),
            Ok(FrameRead::Closed) => {
                self.broken = true;
                self.fail_all_inflight("server closed the connection");
                Err(GraqlError::net_retryable("server closed the connection"))
            }
            Err(e) => {
                self.broken = true;
                self.fail_all_inflight("connection failed mid-reply");
                Err(e)
            }
        }
    }

    /// Feeds one routed message into its request's assembly state.
    /// Frames for unknown ids (replies to requests we already expired)
    /// are dropped — except id-0 errors, which the server uses for
    /// unsolicited connection-level failures (idle hangup, overload
    /// refusal) and which poison the connection for the next request.
    fn route(&mut self, id: u64, msg: Msg) {
        if self.awaiting_control.remove(&id) {
            self.control.insert(id, msg);
            return;
        }
        let Some(entry) = self.inflight.get_mut(&id) else {
            if id == 0 {
                if let Msg::Error { .. } = &msg {
                    self.broken = true;
                }
            }
            return;
        };
        let finish: Option<Result<Vec<SessionOutput>>> = match msg {
            Msg::Created { name } => {
                entry.outputs.push(SessionOutput::Created(name));
                None
            }
            Msg::Ingested { table, rows } => {
                entry.outputs.push(SessionOutput::Ingested { table, rows });
                None
            }
            Msg::TableHeader { cols } => {
                if entry.table.is_some() {
                    Some(Err(GraqlError::net("nested table stream")))
                } else {
                    match TableAssembler::new(&cols) {
                        Ok(t) => {
                            entry.table = Some(t);
                            None
                        }
                        Err(e) => Some(Err(e)),
                    }
                }
            }
            Msg::TableRows { rows } => match entry.table.as_mut() {
                Some(t) => match t.push_rows(&rows) {
                    Ok(()) => None,
                    Err(e) => Some(Err(e)),
                },
                None => Some(Err(GraqlError::net("rows outside a table stream"))),
            },
            Msg::TableEnd => match entry.table.take() {
                Some(t) => {
                    entry.outputs.push(SessionOutput::Table(t.finish()));
                    None
                }
                None => Some(Err(GraqlError::net("TableEnd outside a table stream"))),
            },
            Msg::Subgraph {
                n_vertices,
                n_edges,
                summary,
            } => {
                entry.outputs.push(SessionOutput::Subgraph {
                    n_vertices,
                    n_edges,
                    summary,
                });
                None
            }
            Msg::Pipelined => {
                entry.outputs.push(SessionOutput::Pipelined);
                None
            }
            Msg::ProfileReport { text, json } => {
                entry.outputs.push(SessionOutput::Profile { text, json });
                None
            }
            Msg::Done { .. } => Some(Ok(std::mem::take(&mut entry.outputs))),
            Msg::Error {
                status, message, ..
            } => Some(Err(GraqlError::from_wire_status(status, message))),
            other => Some(Err(GraqlError::net(format!(
                "unexpected message in result stream: {other:?}"
            )))),
        };
        if let Some(result) = finish {
            self.inflight.remove(&id);
            self.completed.insert(id, result);
        }
    }

    /// One tagged control round trip (ping, describe, metrics, ...):
    /// sends the request and pumps until its reply routes back, while
    /// unrelated pipelined replies keep demuxing normally.
    fn rpc(&mut self, msg: &Msg) -> Result<Msg> {
        let id = self.fresh_id();
        if let Err(e) = self.send_tagged(id, msg) {
            self.broken = true;
            return Err(e);
        }
        self.awaiting_control.insert(id);
        let deadline = Instant::now() + self.opts.timeout;
        loop {
            if let Some(reply) = self.control.remove(&id) {
                return Ok(reply);
            }
            let now = Instant::now();
            if now >= deadline {
                self.awaiting_control.remove(&id);
                self.broken = true;
                return Err(GraqlError::net_retryable(
                    "server did not reply within the deadline",
                ));
            }
            self.expire_deadlines();
            let slice = (deadline - now).min(PUMP_SLICE);
            if let Err(e) = self.pump(slice) {
                self.awaiting_control.remove(&id);
                return Err(e);
            }
        }
    }

    /// Opens a fresh socket to the first reachable address, counting the
    /// reconnect (and the failover, when it lands elsewhere).
    fn reconnect_socket(&mut self) -> Result<()> {
        let (stream, addr) = open_socket(&self.addrs, self.opts.connect_timeout)?;
        self.stream = stream;
        self.reconnects += 1;
        let failed_over = addr != self.current;
        if failed_over {
            self.failovers += 1;
        }
        self.current = addr;
        if let Some(stats) = &self.opts.stats {
            stats.reconnects.fetch_add(1, Ordering::Relaxed);
            if failed_over {
                stats.failovers.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Re-points the failover list at `primary` (a `NotPrimary` redirect
    /// target): its addresses move to the front, the broken connection is
    /// abandoned, and the next request reconnects there.
    fn redirect_to(&mut self, primary: &str) -> Result<()> {
        let fresh: Vec<SocketAddr> = primary
            .to_socket_addrs()
            .map_err(|e| GraqlError::net(format!("cannot resolve redirect target {primary}: {e}")))?
            .collect();
        if fresh.is_empty() {
            return Err(GraqlError::net(format!(
                "redirect target {primary} resolves to nothing"
            )));
        }
        self.addrs.retain(|a| !fresh.contains(a));
        for (i, a) in fresh.into_iter().enumerate() {
            self.addrs.insert(i, a);
        }
        self.broken = true;
        Ok(())
    }

    /// Configures the socket and performs Hello/Welcome on it. The
    /// pipeline is empty here (a reconnect already failed it), so the
    /// reply is read directly.
    fn handshake(&mut self) -> Result<()> {
        self.stream
            .set_nodelay(true)
            .map_err(|e| GraqlError::net(format!("nodelay: {e}")))?;
        self.stream
            .set_read_timeout(Some(self.opts.timeout))
            .map_err(|e| GraqlError::net(format!("read timeout: {e}")))?;
        self.stream
            .set_write_timeout(Some(self.opts.timeout))
            .map_err(|e| GraqlError::net(format!("write timeout: {e}")))?;
        let id = self.fresh_id();
        self.send_tagged(
            id,
            &Msg::Hello {
                proto: PROTO_VERSION,
                user: self.user.clone(),
            },
        )?;
        match self.recv_direct()? {
            Msg::Welcome {
                proto,
                role,
                server,
            } => {
                if proto != PROTO_VERSION {
                    return Err(GraqlError::net(format!(
                        "server negotiated unsupported protocol v{proto} (client speaks v{PROTO_VERSION})"
                    )));
                }
                self.role = proto::role_from_tag(role)?;
                self.server_banner = server;
                self.broken = false;
                Ok(())
            }
            Msg::Error {
                status, message, ..
            } => Err(GraqlError::from_wire_status(status, message)),
            other => Err(GraqlError::net(format!("expected Welcome, got {other:?}"))),
        }
    }

    /// Tears down the broken connection and establishes a new one. The
    /// old pipeline dies with the old socket: every in-flight request is
    /// failed retryable (their ids are meaningless to the new server).
    fn reconnect(&mut self) -> Result<()> {
        self.fail_all_inflight("connection re-established, request lost in flight");
        self.awaiting_control.clear();
        self.control.clear();
        self.reconnect_socket()?;
        self.handshake()
    }

    fn backoff(&mut self, attempt: u32) {
        sleep_backoff(&self.opts.retry, attempt, &mut self.jitter);
    }

    /// Runs one request. On a retryable transport fault the connection is
    /// marked broken; idempotent requests then reconnect and retry with
    /// backoff, bounded by the [`RetryPolicy`]. Server-reported errors
    /// (non-retryable statuses) are always final.
    fn request<T>(
        &mut self,
        idempotent: bool,
        f: impl Fn(&mut RemoteSession) -> Result<T>,
    ) -> Result<T> {
        let mut attempt = 0u32;
        loop {
            let result = if self.broken {
                self.reconnect().and_then(|()| f(self))
            } else {
                f(self)
            };
            match result {
                Err(e) if e.is_retryable() => {
                    // The connection state is unknown after a transport
                    // fault: heal it before whatever comes next.
                    self.broken = true;
                    if !idempotent || attempt >= self.opts.retry.max_retries {
                        return Err(e);
                    }
                    attempt += 1;
                    self.retries += 1;
                    if let Some(stats) = &self.opts.stats {
                        stats.retries.fetch_add(1, Ordering::Relaxed);
                    }
                    self.backoff(attempt);
                }
                other => return other,
            }
        }
    }

    fn send_tagged(&mut self, request_id: u64, msg: &Msg) -> Result<()> {
        graql_types::failpoint!(self.faults, "net/client/send-delay");
        let payload = proto::encode_tagged(request_id, msg);
        write_frame(&mut self.stream, &payload, self.max_frame, &self.faults)
    }

    /// Receives one message ignoring its tag — handshake only, where the
    /// pipeline is empty and exactly one reply is owed.
    fn recv_direct(&mut self) -> Result<Msg> {
        match read_frame(&mut self.stream, self.max_frame, &self.faults)? {
            FrameRead::Frame(p) => proto::decode_tagged(&p).map(|(_, m)| m),
            FrameRead::TimedOut => Err(GraqlError::net_retryable(
                "server did not reply within the deadline",
            )),
            FrameRead::Closed => Err(GraqlError::net_retryable("server closed the connection")),
        }
    }
}

/// True when re-running the script cannot change server state: every
/// statement is a `select` without an `into` capture, or a `profile` —
/// the same class the server executes under its shared read lock.
fn is_read_only(script: &Script) -> bool {
    script.statements.iter().all(|s| {
        matches!(s, Stmt::Select(sel) if sel.into.is_none()) || matches!(s, Stmt::Profile(_))
    })
}

impl GemsSession for RemoteSession {
    fn execute_script(&mut self, text: &str) -> Result<Vec<SessionOutput>> {
        // Parse locally: syntax errors render against the local source
        // with spans, and the wire carries compact IR, not text.
        let script = graql_parser::parse(text)?;
        let ir = graql_core::ir::encode(&script);
        let idempotent = is_read_only(&script);
        let mut redirects = 0u32;
        loop {
            // The blocking API is the pipelined one at depth 1:
            // submit-then-wait, inside the retry wrapper.
            let result = self.request(idempotent, |s| {
                let id = s.submit_ir(&ir)?;
                s.wait(id)
            });
            // `NotPrimary` means the statement did NOT execute (the
            // replica fences before touching state), so following the
            // redirect and re-submitting is always safe — even for
            // non-idempotent writes.
            match result {
                Err(e) if redirects < MAX_REDIRECTS && e.redirect_to().is_some() => {
                    let primary = e.redirect_to().expect("checked").to_string();
                    redirects += 1;
                    self.redirect_to(&primary)?;
                }
                other => return other,
            }
        }
    }

    fn check_script(&mut self, text: &str) -> Result<Diagnostics> {
        self.request(true, |s| {
            match s.rpc(&Msg::Check {
                text: text.to_string(),
            })? {
                Msg::CheckReport { diags } => Ok(diags_from_wire(&diags)),
                Msg::Error {
                    status, message, ..
                } => Err(GraqlError::from_wire_status(status, message)),
                other => Err(GraqlError::net(format!(
                    "expected CheckReport, got {other:?}"
                ))),
            }
        })
    }

    fn describe(&mut self) -> Result<String> {
        self.request(true, |s| match s.rpc(&Msg::Describe)? {
            Msg::DescribeReport { text } => Ok(text),
            Msg::Error {
                status, message, ..
            } => Err(GraqlError::from_wire_status(status, message)),
            other => Err(GraqlError::net(format!(
                "expected DescribeReport, got {other:?}"
            ))),
        })
    }

    fn user(&self) -> &str {
        &self.user
    }

    fn role(&self) -> Role {
        self.role
    }
}

impl Drop for RemoteSession {
    fn drop(&mut self) {
        if !self.broken {
            let _ = self.send_tagged(0, &Msg::Goodbye);
        }
    }
}
