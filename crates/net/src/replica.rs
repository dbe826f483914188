//! The replica tailer: the client side of WAL-shipping replication.
//!
//! A replica is a normal durable [`graql_core::Server`] put into
//! [`graql_core::ReplRole::Replica`] plus one background thread — the
//! tailer — that maintains a subscription to the primary's commit stream
//! and feeds every shipped batch through
//! [`graql_core::Server::apply_replicated_records`] (the same replay path
//! crash recovery uses). Durability is local: a batch is acked only after
//! it is fsynced into the *replica's* log, so the applied-LSN watermark
//! survives a replica crash and the next subscription resumes at
//! `durable_lsn + 1` — exact, idempotent, no record applied twice or
//! skipped.
//!
//! Failure handling is the tailer's whole job:
//!
//! * **Connection loss** (primary crash, network fault, a
//!   `net/repl/{stream,apply,ack}` failpoint): bounded-backoff reconnect,
//!   resuming from the local durable watermark. Overlap the primary may
//!   re-send is discarded by LSN during apply. The tailer's sites (and
//!   its frame I/O) consult the replica server's fault handle.
//! * **Initial sync / falling behind a checkpoint**: the primary streams
//!   its latest snapshot in [`Msg::ReplSnapshot`] chunks; the tailer
//!   materializes the files, loads them through `graql_core::load_dir`
//!   (manifest checksums verified), and re-bases the local log at the
//!   snapshot watermark before applying batches.
//! * **Promotion**: the tailer notices the server is no longer a replica
//!   (admin `Promote`), says `Goodbye`, and exits — the node is fenced
//!   writable and stops consuming the old primary's stream.

use std::collections::BTreeMap;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use graql_core::Server;
use graql_types::failpoints::Faults;
use graql_types::{GraqlError, Result};

use crate::client::{sleep_backoff, RetryPolicy};
use crate::frame::{read_frame, write_frame, FrameRead, MAX_FRAME};
use crate::proto::{self, Msg, PROTO_VERSION};
use crate::server::NetStats;

/// How often the tailer wakes from a blocked read to poll its stop flag
/// and the server's role.
const POLL: Duration = Duration::from_millis(50);

/// Distinguishes the tailer's clean exits from faults that reconnect.
enum TailExit {
    /// Stop flag set or server promoted: do not reconnect.
    Done,
    /// Primary went away (clean close): reconnect and resume.
    Disconnected,
}

/// Handle to the background tailer thread of a replica.
#[derive(Debug)]
pub struct ReplicaTailer {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ReplicaTailer {
    /// Signals the tailer to stop and joins it. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ReplicaTailer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts tailing `primary` into `server` (which must already be durable
/// and in replica role — see [`Server::set_replica_of`]). The thread runs
/// until [`ReplicaTailer::stop`], the process exits, or the server is
/// promoted. Reconnects forever with bounded backoff: a replica's purpose
/// is to outlive its primary's crashes.
pub fn start_tailer(
    server: Server,
    primary: String,
    retry: RetryPolicy,
    stats: Arc<NetStats>,
) -> ReplicaTailer {
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("graql-repl-tail".to_string())
        .spawn(move || tail_loop(&server, &primary, &retry, &stats, &stop2))
        .expect("spawn replica tailer");
    ReplicaTailer {
        stop,
        handle: Some(handle),
    }
}

fn tail_loop(
    server: &Server,
    primary: &str,
    retry: &RetryPolicy,
    stats: &NetStats,
    stop: &AtomicBool,
) {
    let mut jitter = retry.jitter_seed;
    let mut attempt = 0u32;
    let mut streams = 0u64;
    while !stop.load(Ordering::SeqCst) && server.is_replica() {
        // Every established subscription after the first one is a
        // re-connection (counted when the handshake lands, not per
        // failed attempt — mirroring the client session's accounting).
        let mut on_connected = || {
            if streams > 0 {
                stats.reconnects.fetch_add(1, Ordering::Relaxed);
            }
            streams += 1;
        };
        match tail_once(server, primary, stop, &mut on_connected) {
            Ok(TailExit::Done) => return,
            Ok(TailExit::Disconnected) => {
                attempt = 0; // had a live stream: reset the backoff ladder
                if stop.load(Ordering::SeqCst) || !server.is_replica() {
                    return;
                }
                eprintln!("gems-serve: replication stream to {primary} closed, reconnecting");
            }
            Err(e) => {
                if stop.load(Ordering::SeqCst) || !server.is_replica() {
                    return;
                }
                eprintln!("gems-serve: replication stream to {primary} failed ({e}), retrying");
            }
        }
        // Bounded backoff, capped exponent — the tailer retries forever,
        // waiting at most `max_backoff` between attempts.
        attempt = attempt.saturating_add(1).min(16);
        sleep_backoff(retry, attempt, &mut jitter);
    }
}

/// One subscription: connect, handshake, subscribe from the local durable
/// watermark, then apply the stream until it breaks or we are told to
/// stop.
fn tail_once(
    server: &Server,
    primary: &str,
    stop: &AtomicBool,
    on_connected: &mut dyn FnMut(),
) -> Result<TailExit> {
    let addr = primary
        .to_socket_addrs()
        .map_err(|e| GraqlError::net(format!("cannot resolve primary {primary}: {e}")))?
        .next()
        .ok_or_else(|| GraqlError::net(format!("primary {primary} resolves to no address")))?;
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))
        .map_err(|e| GraqlError::net_retryable(format!("cannot connect to primary: {e}")))?;
    stream
        .set_nodelay(true)
        .map_err(|e| GraqlError::net(format!("nodelay: {e}")))?;
    stream
        .set_read_timeout(Some(POLL))
        .map_err(|e| GraqlError::net(format!("read timeout: {e}")))?;
    stream
        .set_write_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| GraqlError::net(format!("write timeout: {e}")))?;

    // One subscription = one logical request: every frame the tailer
    // sends (and every stream frame the primary sends back) carries the
    // subscribe request's id. Acks reuse it; the primary ignores their
    // tag anyway.
    const SUB_ID: u64 = 1;
    let send = |msg: &Msg| -> Result<()> {
        let payload = proto::encode_tagged(SUB_ID, msg);
        let mut w = &stream;
        write_frame(&mut w, &payload, MAX_FRAME, server.faults())
    };

    // Handshake as admin: the subscription is an administrative stream.
    send(&Msg::Hello {
        proto: PROTO_VERSION,
        user: "admin".to_string(),
    })?;
    match recv_blocking(&stream, stop, server.faults())? {
        Recv::Msg(Msg::Welcome { proto, .. }) if proto == PROTO_VERSION => on_connected(),
        Recv::Msg(Msg::Welcome { proto, .. }) => {
            return Err(GraqlError::net(format!(
                "primary speaks protocol v{proto}, replica speaks v{PROTO_VERSION}"
            )))
        }
        Recv::Msg(Msg::Error {
            status, message, ..
        }) => return Err(GraqlError::from_wire_status(status, message)),
        Recv::Msg(other) => {
            return Err(GraqlError::net(format!("expected Welcome, got {other:?}")))
        }
        Recv::Stopped => return Ok(TailExit::Done),
        Recv::Closed => return Ok(TailExit::Disconnected),
    }
    send(&Msg::ReplSubscribe {
        from_lsn: server.wal_durable_lsn() + 1,
    })?;

    // Snapshot files under assembly during initial sync, keyed by name.
    let mut snapshot: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    loop {
        if stop.load(Ordering::SeqCst) || !server.is_replica() {
            let _ = send(&Msg::Goodbye);
            return Ok(TailExit::Done);
        }
        let msg = match recv_blocking(&stream, stop, server.faults())? {
            Recv::Msg(m) => m,
            Recv::Stopped => {
                let _ = send(&Msg::Goodbye);
                return Ok(TailExit::Done);
            }
            Recv::Closed => return Ok(TailExit::Disconnected),
        };
        match msg {
            Msg::ReplSnapshot {
                watermark,
                name,
                data,
                last,
            } => {
                if !name.is_empty() {
                    snapshot.entry(name).or_default().extend_from_slice(&data);
                }
                if last {
                    let files = std::mem::take(&mut snapshot);
                    install_snapshot(server, files, watermark)?;
                    send(&Msg::ReplAck {
                        lsn: watermark.saturating_sub(1),
                    })?;
                }
            }
            Msg::ReplBatch {
                first_lsn: _,
                last_lsn: _,
                frames,
            } => {
                // Fault site: the batch arrived but was not applied. On
                // reconnect the subscription resumes at the same durable
                // watermark and the primary re-sends it.
                graql_types::failpoint!(server.faults(), "net/repl/apply", GraqlError::net);
                let records = graql_core::decode_frames(&frames)?;
                let durable = server.apply_replicated_records(&records)?;
                // Fault site: applied (locally durable) but the ack is
                // lost. On reconnect the primary resumes *after* this
                // batch — nothing is applied twice.
                graql_types::failpoint!(server.faults(), "net/repl/ack", GraqlError::net);
                send(&Msg::ReplAck { lsn: durable })?;
            }
            Msg::ReplHeartbeat { durable_lsn } => {
                // Liveness + lag visibility; nothing to apply. Ack our
                // watermark so the primary's lag gauge stays current.
                let _ = durable_lsn;
                send(&Msg::ReplAck {
                    lsn: server.wal_durable_lsn(),
                })?;
            }
            Msg::Error {
                status, message, ..
            } => return Err(GraqlError::from_wire_status(status, message)),
            other => {
                return Err(GraqlError::net(format!(
                    "unexpected message {other:?} on the replication stream"
                )))
            }
        }
    }
}

/// What [`recv_blocking`] saw.
enum Recv {
    Msg(Msg),
    /// The stop flag was raised while waiting.
    Stopped,
    /// The primary closed the connection.
    Closed,
}

/// Blocks until one full message arrives, polling `stop` between frame
/// timeouts.
fn recv_blocking(stream: &TcpStream, stop: &AtomicBool, faults: &Faults) -> Result<Recv> {
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(Recv::Stopped);
        }
        let mut r = stream;
        match read_frame(&mut r, MAX_FRAME, faults)? {
            FrameRead::Frame(p) => return proto::decode_tagged(&p).map(|(_, m)| Recv::Msg(m)),
            FrameRead::TimedOut => continue,
            FrameRead::Closed => return Ok(Recv::Closed),
        }
    }
}

/// Materializes received snapshot files into a scratch directory, loads
/// them through the checksummed persist path, and installs the result as
/// the replica's database re-based at `watermark`.
fn install_snapshot(
    server: &Server,
    files: BTreeMap<String, Vec<u8>>,
    watermark: u64,
) -> Result<()> {
    static SCRATCH: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "graql-repl-snapshot.{}.{}",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir)
        .map_err(|e| GraqlError::net(format!("snapshot scratch dir: {e}")))?;
    let result = (|| {
        for (name, data) in &files {
            // Snapshot directories are flat; reject anything that would
            // escape the scratch dir.
            if name.contains('/') || name.contains('\\') || name == ".." {
                return Err(GraqlError::net(format!(
                    "snapshot file name '{name}' is not a plain file name"
                )));
            }
            std::fs::write(dir.join(name), data)
                .map_err(|e| GraqlError::net(format!("snapshot write {name}: {e}")))?;
        }
        let db = graql_core::load_dir(&dir, server.faults())?;
        server.install_snapshot(db, watermark)
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}
