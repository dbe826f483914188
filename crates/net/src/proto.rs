//! The versioned wire message enum and its binary codec.
//!
//! Queries travel as the existing binary IR (`graql_core::ir`, paper
//! §III); every other interaction is one tagged message. The codec style
//! matches the IR codec: little-endian scalars, `u32`-length-prefixed
//! strings, one tag byte per variant, every length validated before
//! allocation. Decoding arbitrary bytes must never panic — that property
//! is fuzzed in `tests/proto_props.rs`.
//!
//! Version negotiation: the client's `Hello` opens with the `GNET` magic
//! and its protocol version; a server speaking a different version answers
//! with an `Error` frame (wire status `net`, message naming both versions)
//! and closes — never silence, never a hang.
//!
//! Since protocol version 5 every frame payload opens with a `u64`-LE
//! **request id** before the message bytes ([`encode_tagged`] /
//! [`decode_tagged`]), so one connection can carry many in-flight
//! requests: the client stamps each `Submit` with a fresh id, the server
//! echoes that id on every reply frame belonging to the request, and
//! control traffic (handshake, ping, goodbye) uses whatever id its
//! initiator chose — replies simply echo it. Replication stream frames
//! carry the subscribe request's id.
//!
//! # Table results (protocol version 6)
//!
//! A result table travels as `TableHeader`, zero or more `TableRows`,
//! `TableEnd`. A `TableRows` payload is a **column batch**
//! ([`ColumnBatch`], at most [`BATCH_ROWS`] rows), cut from the result's
//! columns by `Table::batches` and appended to the client's table by
//! `Table::append_batch` — no cell is materialized on either side:
//!
//! ```text
//! varint n_rows, varint n_cols, then per column:
//!   u8      kind (0 integer, 1 float, 2 varchar, 3 date) | 0x80 if any row is null
//!   [u8]    null bitmap, ceil(n_rows / 8) bytes, bit i%8 of byte i/8 = row i — only with 0x80
//!   integer n_rows × i64 LE          float  n_rows × f64 bit pattern LE
//!   date    n_rows × i32 LE (days)   (a null row holds a placeholder 0)
//!   varchar varint n_entries, n_entries × varint len, the entries' UTF-8 bytes end to end,
//!           n_rows × u32 LE codes
//! ```
//!
//! A varchar column's dictionary is scoped to the reply: codes are
//! assigned in order of first use across the whole table stream, and each
//! batch's *dictionary page* holds only the entries it introduces, so a
//! string crosses the wire once per reply however often it repeats.
//! Varints are LEB128 `u32`s, which keeps a one-row reply no larger than
//! its cell-by-cell protocol-5 form.

use graql_core::{Role, SessionOutput};
use graql_table::{BatchColumn, BitSet, ColumnBatch, ColumnDef, Table, TableSchema};
use graql_types::codec::{self, Put};
use graql_types::{codes, DataType, Diagnostic, Diagnostics, GraqlError, Result, Severity, Span};

/// Protocol version spoken by this build. Bump on any incompatible change
/// to [`Msg`] encoding. Version 2 added [`Msg::Cancel`] and the
/// governance error statuses (deadline / cancelled / budget); version 3
/// added [`Msg::Metrics`] / [`Msg::MetricsReport`] and the
/// [`Msg::ProfileReport`] output for `profile` statements; version 4
/// added the WAL-shipping replication messages ([`Msg::ReplSubscribe`],
/// [`Msg::ReplSnapshot`], [`Msg::ReplBatch`], [`Msg::ReplAck`],
/// [`Msg::ReplHeartbeat`], [`Msg::Promote`]) and the `NotPrimary` error
/// status (15) carrying the primary's address; version 5 prefixed every
/// frame payload with a `u64`-LE request id (pipelined multiplexing —
/// see the module docs) and redefined [`Msg::Cancel`] to target the id
/// it is tagged with (id 0 = cancel everything in flight); version 6
/// replaced the cell-by-cell [`Msg::TableRows`] payload with a column
/// batch and a reply-scoped string dictionary (module docs, "Table
/// results"). The handshake demands equal versions, so there is no
/// fallback to an older table encoding.
pub const PROTO_VERSION: u16 = 6;

/// Magic opening every `Hello` payload, so a non-GraQL peer (or a stale
/// client) fails the handshake loudly instead of being misparsed.
pub const MAGIC: &[u8; 4] = b"GNET";

/// Rows per `TableRows` batch when streaming a result table. A multiple
/// of 64, so every batch's null mask starts on a word boundary.
pub const BATCH_ROWS: usize = 512;

/// One structured diagnostic on the wire (severity, stable code, message,
/// span, notes) — the `check` service's result rows.
#[derive(Debug, Clone, PartialEq)]
pub struct WireDiag {
    pub severity: u8,
    pub code: String,
    pub message: String,
    pub line: u32,
    pub col: u32,
    pub len: u32,
    pub notes: Vec<String>,
}

/// Every message that can cross the wire, client→server and server→client.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    // -- client → server ----------------------------------------------------
    /// Handshake: magic + protocol version + user name.
    Hello { proto: u16, user: String },
    /// Execute a script shipped as binary IR.
    Submit { ir: Vec<u8> },
    /// Statically check a script (source text: diagnostics need spans,
    /// which the IR deliberately drops).
    Check { text: String },
    /// Catalog describe (object names + sizes + wire statistics).
    Describe,
    /// Liveness / latency probe.
    Ping,
    /// Clean session close.
    Goodbye,
    /// Cancel an in-flight request on this connection. The target is the
    /// request id this frame is *tagged* with: the server trips that
    /// request's [`graql_types::QueryGuard`] (whether it is still queued
    /// or already executing) and the query aborts at its next cooperative
    /// checkpoint with a `Cancelled` error frame. Tag id 0 cancels every
    /// request currently in flight on the connection (the legacy
    /// whole-connection `CancelHandle` semantics).
    Cancel,
    /// Request the server's metrics in Prometheus exposition text — the
    /// same rendering the `--metrics-addr` HTTP endpoint serves.
    Metrics,
    /// A replica subscribes to the primary's committed-WAL stream,
    /// resuming from its durable applied-LSN watermark: "send every
    /// record with `lsn >= from_lsn`". The connection switches into
    /// streaming mode; the primary answers with optional
    /// [`Msg::ReplSnapshot`] chunks (when the log no longer reaches back
    /// to `from_lsn`) followed by [`Msg::ReplBatch`] frames and idle
    /// [`Msg::ReplHeartbeat`]s.
    ReplSubscribe { from_lsn: u64 },
    /// The replica's durable-apply acknowledgement: every record with
    /// `lsn <= lsn` is applied and fsynced on the replica. Drives the
    /// primary's per-replica lag accounting.
    ReplAck { lsn: u64 },
    /// Admin fencing: turn this replica into a writable primary. The
    /// replica stops tailing, drops its read-only gate, and starts
    /// accepting writes. Idempotent on a node that is already primary.
    Promote,

    // -- server → client ----------------------------------------------------
    /// Handshake accepted: negotiated version, granted role, banner.
    Welcome {
        proto: u16,
        role: u8,
        server: String,
    },
    /// Request failed. `status` is the [`GraqlError::wire_status`] byte,
    /// `code` the stable diagnostic code (`E…`) when one applies.
    Error {
        status: u8,
        code: String,
        message: String,
    },
    /// DDL executed.
    Created { name: String },
    /// Ingest executed.
    Ingested { table: String, rows: u64 },
    /// A table result begins: its schema. Rows follow in batches.
    TableHeader { cols: Vec<(String, DataType)> },
    /// One batch of rows of the current table result, in columnar form.
    TableRows { rows: ColumnBatch },
    /// The current table result is complete.
    TableEnd,
    /// A subgraph result (by size + pre-rendered summary line).
    Subgraph {
        n_vertices: u64,
        n_edges: u64,
        summary: String,
    },
    /// The statement was fused into the next one.
    Pipelined,
    /// The whole script completed: statement count + server-side latency.
    Done { stmts: u32, micros: u64 },
    /// The `check` service's diagnostics.
    CheckReport { diags: Vec<WireDiag> },
    /// The `describe` service's rendering.
    DescribeReport { text: String },
    /// Answer to [`Msg::Ping`].
    Pong,
    /// A `profile` statement's sealed report: the human rendering and the
    /// machine-readable JSON, both produced server-side so local and
    /// remote output are byte-identical.
    ProfileReport { text: String, json: String },
    /// Answer to [`Msg::Metrics`].
    MetricsReport { text: String },
    /// One chunk of the primary's latest checkpoint, shipped to a
    /// subscribing replica whose `from_lsn` predates the log's start.
    /// `data` is appended to snapshot file `name` on the replica;
    /// `watermark` is the LSN the snapshot folds through (the stream of
    /// batches resumes there); `last` marks the final chunk of the whole
    /// snapshot.
    ReplSnapshot {
        watermark: u64,
        name: String,
        data: Vec<u8>,
        last: bool,
    },
    /// One fsynced group-commit batch: the records' raw on-disk WAL
    /// frames (`[len][checksum][lsn][kind][payload]`, byte-identical to
    /// the primary's `wal.log`), covering LSNs `first_lsn..=last_lsn`.
    ReplBatch {
        first_lsn: u64,
        last_lsn: u64,
        frames: Vec<u8>,
    },
    /// Idle keep-alive on the replication stream, carrying the primary's
    /// current durable LSN so a fully caught-up replica can observe lag 0.
    ReplHeartbeat { durable_lsn: u64 },
}

// -- low-level helpers (the shared codec, with this protocol's errors) -------

fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    get_array(buf).map(u8::from_le_bytes)
}

fn get_u16(buf: &mut &[u8]) -> Result<u16> {
    get_array(buf).map(u16::from_le_bytes)
}

fn get_u32(buf: &mut &[u8]) -> Result<u32> {
    get_array(buf).map(u32::from_le_bytes)
}

fn get_u64(buf: &mut &[u8]) -> Result<u64> {
    get_array(buf).map(u64::from_le_bytes)
}

fn get_array<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N]> {
    codec::take_array(buf).ok_or_else(|| GraqlError::net("truncated message"))
}

/// The next `n` bytes, checked against what is left before anything is
/// allocated for them.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    codec::take(buf, n).ok_or_else(|| GraqlError::net("truncated message payload"))
}

fn get_bytes(buf: &mut &[u8]) -> Result<Vec<u8>> {
    let n = get_u32(buf)? as usize;
    Ok(take(buf, n)?.to_vec())
}

fn get_str(buf: &mut &[u8]) -> Result<String> {
    String::from_utf8(get_bytes(buf)?).map_err(|_| GraqlError::net("invalid UTF-8 in message"))
}

// -- column batches ------------------------------------------------------------

/// LEB128 `u32`: seven bits per byte, low group first.
fn put_varint(b: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        b.put_u8(v as u8 | 0x80);
        v >>= 7;
    }
    b.put_u8(v as u8);
}

fn get_varint(buf: &mut &[u8]) -> Result<u32> {
    let mut v = 0u32;
    for shift in (0..32).step_by(7) {
        let byte = get_u8(buf)?;
        let bits = u32::from(byte & 0x7f);
        if shift == 28 && bits > 0xf {
            break;
        }
        v |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(GraqlError::net("varint exceeds 32 bits"))
}

/// Appends `data` as fixed-width little-endian values.
fn put_le<T: Copy, const W: usize>(b: &mut Vec<u8>, data: &[T], le: impl Fn(T) -> [u8; W]) {
    let at = b.len();
    b.resize(at + data.len() * W, 0);
    for (dst, &v) in b[at..].chunks_exact_mut(W).zip(data) {
        dst.copy_from_slice(&le(v));
    }
}

/// Reads `n` fixed-width little-endian values.
fn get_le<T, const W: usize>(
    buf: &mut &[u8],
    n: usize,
    le: impl Fn([u8; W]) -> T,
) -> Result<Vec<T>> {
    let len = n
        .checked_mul(W)
        .ok_or_else(|| GraqlError::net("column length overflows"))?;
    Ok(take(buf, len)?
        .chunks_exact(W)
        .map(|c| le(c.try_into().expect("chunks_exact yields W bytes")))
        .collect())
}

const KIND_INT: u8 = 0;
const KIND_FLOAT: u8 = 1;
const KIND_STR: u8 = 2;
const KIND_DATE: u8 = 3;
const HAS_NULLS: u8 = 0x80;

fn put_batch(b: &mut Vec<u8>, batch: &ColumnBatch) {
    put_varint(b, batch.n_rows as u32);
    put_varint(b, batch.columns.len() as u32);
    for col in &batch.columns {
        let (kind, nulls) = match col {
            BatchColumn::Int { nulls, .. } => (KIND_INT, nulls),
            BatchColumn::Float { nulls, .. } => (KIND_FLOAT, nulls),
            BatchColumn::Str { nulls, .. } => (KIND_STR, nulls),
            BatchColumn::Date { nulls, .. } => (KIND_DATE, nulls),
        };
        if nulls.none() {
            b.put_u8(kind);
        } else {
            b.put_u8(kind | HAS_NULLS);
            let at = b.len();
            put_le(b, nulls.words(), u64::to_le_bytes);
            b.truncate(at + nulls.len().div_ceil(8));
        }
        match col {
            BatchColumn::Int { data, .. } => put_le(b, data, i64::to_le_bytes),
            BatchColumn::Float { data, .. } => put_le(b, data, f64::to_le_bytes),
            BatchColumn::Date { data, .. } => put_le(b, data, i32::to_le_bytes),
            BatchColumn::Str {
                page, ends, codes, ..
            } => {
                put_varint(b, ends.len() as u32);
                let mut at = 0;
                for &end in ends {
                    put_varint(b, end - at);
                    at = end;
                }
                b.put_slice(page.as_bytes());
                put_le(b, codes, u32::to_le_bytes);
            }
        }
    }
}

/// Decodes a column batch. Stateless, so what it can check is the frame
/// against itself: every count is bounded by the bytes that remain
/// before anything is allocated for it, every column holds exactly
/// `n_rows` rows, strings are UTF-8. What needs the stream — column
/// types against the `TableHeader`, codes against the dictionary so far
/// — is checked where the batch is appended ([`TableAssembler`]).
fn get_batch(buf: &mut &[u8]) -> Result<ColumnBatch> {
    let n_rows = get_varint(buf)? as usize;
    let n_cols = get_varint(buf)? as usize;
    // A column is a kind byte at least.
    if n_cols > buf.len() {
        return Err(GraqlError::net("truncated message payload"));
    }
    if n_cols == 0 && n_rows != 0 {
        return Err(GraqlError::net("table batch has rows but no columns"));
    }
    let mut columns = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        let head = get_u8(buf)?;
        let kind = head & !HAS_NULLS;
        let width = match kind {
            KIND_INT | KIND_FLOAT => 8,
            KIND_STR | KIND_DATE => 4,
            k => return Err(GraqlError::net(format!("bad column kind {k}"))),
        };
        // A row is `width` bytes of this column at least: bounds the null
        // mask and the value vector before either is allocated.
        if n_rows.saturating_mul(width) > buf.len() {
            return Err(GraqlError::net("truncated message payload"));
        }
        let nulls = if head & HAS_NULLS == 0 {
            BitSet::new(n_rows)
        } else {
            let words = take(buf, n_rows.div_ceil(8))?
                .chunks(8)
                .map(|c| {
                    let mut word = [0u8; 8];
                    word[..c.len()].copy_from_slice(c);
                    u64::from_le_bytes(word)
                })
                .collect();
            BitSet::from_words(words, n_rows).expect("one word per 64 rows")
        };
        columns.push(match kind {
            KIND_INT => BatchColumn::Int {
                data: get_le(buf, n_rows, i64::from_le_bytes)?,
                nulls,
            },
            KIND_FLOAT => BatchColumn::Float {
                data: get_le(buf, n_rows, f64::from_le_bytes)?,
                nulls,
            },
            KIND_DATE => BatchColumn::Date {
                data: get_le(buf, n_rows, i32::from_le_bytes)?,
                nulls,
            },
            _ => {
                let n_entries = get_varint(buf)? as usize;
                // An entry is a length byte at least.
                if n_entries > buf.len() {
                    return Err(GraqlError::net("truncated message payload"));
                }
                let mut ends = Vec::with_capacity(n_entries);
                let mut at = 0u32;
                for _ in 0..n_entries {
                    at = at
                        .checked_add(get_varint(buf)?)
                        .filter(|&end| end as usize <= buf.len())
                        .ok_or_else(|| GraqlError::net("truncated message payload"))?;
                    ends.push(at);
                }
                let page = std::str::from_utf8(take(buf, at as usize)?)
                    .map_err(|_| GraqlError::net("invalid UTF-8 in message"))?;
                BatchColumn::Str {
                    page: page.to_string(),
                    ends,
                    codes: get_le(buf, n_rows, u32::from_le_bytes)?,
                    nulls,
                }
            }
        });
    }
    Ok(ColumnBatch { n_rows, columns })
}

fn put_dtype(b: &mut Vec<u8>, dt: DataType) {
    match dt {
        DataType::Integer => b.put_u8(0),
        DataType::Float => b.put_u8(1),
        DataType::Varchar(n) => {
            b.put_u8(2);
            b.put_u32_le(n);
        }
        DataType::Date => b.put_u8(3),
    }
}

fn get_dtype(buf: &mut &[u8]) -> Result<DataType> {
    Ok(match get_u8(buf)? {
        0 => DataType::Integer,
        1 => DataType::Float,
        2 => DataType::Varchar(get_u32(buf)?),
        3 => DataType::Date,
        t => return Err(GraqlError::net(format!("bad data-type tag {t}"))),
    })
}

// -- message codec -----------------------------------------------------------

/// Encodes a message into a frame payload (without a request-id prefix —
/// the protocol-4 shape, still used by the codec tests and as the tail of
/// every tagged frame).
pub fn encode(msg: &Msg) -> Vec<u8> {
    let mut b = Vec::new();
    encode_into(&mut b, msg);
    b
}

/// Encodes a frame payload: `u64`-LE `request_id`, then the message
/// bytes. The inverse of [`decode_tagged`].
pub fn encode_tagged(request_id: u64, msg: &Msg) -> Vec<u8> {
    let mut b = Vec::new();
    b.put_u64_le(request_id);
    encode_into(&mut b, msg);
    b
}

/// Splits a frame payload into its request id and message.
pub fn decode_tagged(data: &[u8]) -> Result<(u64, Msg)> {
    let mut buf = data;
    let id = get_u64(&mut buf)?;
    Ok((id, decode(buf)?))
}

fn encode_into(b: &mut Vec<u8>, msg: &Msg) {
    match msg {
        Msg::Hello { proto, user } => {
            b.put_u8(0);
            b.put_slice(MAGIC);
            b.put_u16_le(*proto);
            b.put_str(user);
        }
        Msg::Submit { ir } => {
            b.put_u8(1);
            b.put_u32_le(ir.len() as u32);
            b.put_slice(ir);
        }
        Msg::Check { text } => {
            b.put_u8(2);
            b.put_str(text);
        }
        Msg::Describe => b.put_u8(3),
        Msg::Ping => b.put_u8(4),
        Msg::Goodbye => b.put_u8(5),
        Msg::Cancel => b.put_u8(6),
        Msg::Metrics => b.put_u8(7),
        Msg::ReplSubscribe { from_lsn } => {
            b.put_u8(8);
            b.put_u64_le(*from_lsn);
        }
        Msg::ReplAck { lsn } => {
            b.put_u8(9);
            b.put_u64_le(*lsn);
        }
        Msg::Promote => b.put_u8(10),
        Msg::Welcome {
            proto,
            role,
            server,
        } => {
            b.put_u8(16);
            b.put_u16_le(*proto);
            b.put_u8(*role);
            b.put_str(server);
        }
        Msg::Error {
            status,
            code,
            message,
        } => {
            b.put_u8(17);
            b.put_u8(*status);
            b.put_str(code);
            b.put_str(message);
        }
        Msg::Created { name } => {
            b.put_u8(18);
            b.put_str(name);
        }
        Msg::Ingested { table, rows } => {
            b.put_u8(19);
            b.put_str(table);
            b.put_u64_le(*rows);
        }
        Msg::TableHeader { cols } => {
            b.put_u8(20);
            b.put_u32_le(cols.len() as u32);
            for (name, dt) in cols {
                b.put_str(name);
                put_dtype(b, *dt);
            }
        }
        Msg::TableRows { rows } => {
            b.put_u8(21);
            put_batch(b, rows);
        }
        Msg::TableEnd => b.put_u8(22),
        Msg::Subgraph {
            n_vertices,
            n_edges,
            summary,
        } => {
            b.put_u8(23);
            b.put_u64_le(*n_vertices);
            b.put_u64_le(*n_edges);
            b.put_str(summary);
        }
        Msg::Pipelined => b.put_u8(24),
        Msg::Done { stmts, micros } => {
            b.put_u8(25);
            b.put_u32_le(*stmts);
            b.put_u64_le(*micros);
        }
        Msg::CheckReport { diags } => {
            b.put_u8(26);
            b.put_u32_le(diags.len() as u32);
            for d in diags {
                b.put_u8(d.severity);
                b.put_str(&d.code);
                b.put_str(&d.message);
                b.put_u32_le(d.line);
                b.put_u32_le(d.col);
                b.put_u32_le(d.len);
                b.put_u32_le(d.notes.len() as u32);
                for n in &d.notes {
                    b.put_str(n);
                }
            }
        }
        Msg::DescribeReport { text } => {
            b.put_u8(27);
            b.put_str(text);
        }
        Msg::Pong => b.put_u8(28),
        Msg::ProfileReport { text, json } => {
            b.put_u8(29);
            b.put_str(text);
            b.put_str(json);
        }
        Msg::MetricsReport { text } => {
            b.put_u8(30);
            b.put_str(text);
        }
        Msg::ReplSnapshot {
            watermark,
            name,
            data,
            last,
        } => {
            b.put_u8(31);
            b.put_u64_le(*watermark);
            b.put_str(name);
            b.put_u32_le(data.len() as u32);
            b.put_slice(data);
            b.put_u8(u8::from(*last));
        }
        Msg::ReplBatch {
            first_lsn,
            last_lsn,
            frames,
        } => {
            b.put_u8(32);
            b.put_u64_le(*first_lsn);
            b.put_u64_le(*last_lsn);
            b.put_u32_le(frames.len() as u32);
            b.put_slice(frames);
        }
        Msg::ReplHeartbeat { durable_lsn } => {
            b.put_u8(33);
            b.put_u64_le(*durable_lsn);
        }
    }
}

/// Decodes a frame payload. Rejects trailing bytes, unknown tags, bad
/// magic, and every truncation — with an error, never a panic.
pub fn decode(mut data: &[u8]) -> Result<Msg> {
    let buf = &mut data;
    let msg = match get_u8(buf)? {
        0 => {
            if buf.len() < 4 || &buf[..4] != MAGIC {
                return Err(GraqlError::net("bad handshake magic (not a GraQL client?)"));
            }
            *buf = &buf[4..];
            Msg::Hello {
                proto: get_u16(buf)?,
                user: get_str(buf)?,
            }
        }
        1 => Msg::Submit {
            ir: get_bytes(buf)?,
        },
        2 => Msg::Check {
            text: get_str(buf)?,
        },
        3 => Msg::Describe,
        4 => Msg::Ping,
        5 => Msg::Goodbye,
        6 => Msg::Cancel,
        7 => Msg::Metrics,
        8 => Msg::ReplSubscribe {
            from_lsn: get_u64(buf)?,
        },
        9 => Msg::ReplAck { lsn: get_u64(buf)? },
        10 => Msg::Promote,
        16 => Msg::Welcome {
            proto: get_u16(buf)?,
            role: get_u8(buf)?,
            server: get_str(buf)?,
        },
        17 => Msg::Error {
            status: get_u8(buf)?,
            code: get_str(buf)?,
            message: get_str(buf)?,
        },
        18 => Msg::Created {
            name: get_str(buf)?,
        },
        19 => Msg::Ingested {
            table: get_str(buf)?,
            rows: get_u64(buf)?,
        },
        20 => {
            let n = get_u32(buf)? as usize;
            let mut cols = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let name = get_str(buf)?;
                let dt = get_dtype(buf)?;
                cols.push((name, dt));
            }
            Msg::TableHeader { cols }
        }
        21 => Msg::TableRows {
            rows: get_batch(buf)?,
        },
        22 => Msg::TableEnd,
        23 => Msg::Subgraph {
            n_vertices: get_u64(buf)?,
            n_edges: get_u64(buf)?,
            summary: get_str(buf)?,
        },
        24 => Msg::Pipelined,
        25 => Msg::Done {
            stmts: get_u32(buf)?,
            micros: get_u64(buf)?,
        },
        26 => {
            let n = get_u32(buf)? as usize;
            let mut diags = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let severity = get_u8(buf)?;
                let code = get_str(buf)?;
                let message = get_str(buf)?;
                let line = get_u32(buf)?;
                let col = get_u32(buf)?;
                let len = get_u32(buf)?;
                let n_notes = get_u32(buf)? as usize;
                let mut notes = Vec::with_capacity(n_notes.min(64));
                for _ in 0..n_notes {
                    notes.push(get_str(buf)?);
                }
                diags.push(WireDiag {
                    severity,
                    code,
                    message,
                    line,
                    col,
                    len,
                    notes,
                });
            }
            Msg::CheckReport { diags }
        }
        27 => Msg::DescribeReport {
            text: get_str(buf)?,
        },
        28 => Msg::Pong,
        29 => Msg::ProfileReport {
            text: get_str(buf)?,
            json: get_str(buf)?,
        },
        30 => Msg::MetricsReport {
            text: get_str(buf)?,
        },
        31 => Msg::ReplSnapshot {
            watermark: get_u64(buf)?,
            name: get_str(buf)?,
            data: get_bytes(buf)?,
            last: get_u8(buf)? != 0,
        },
        32 => Msg::ReplBatch {
            first_lsn: get_u64(buf)?,
            last_lsn: get_u64(buf)?,
            frames: get_bytes(buf)?,
        },
        33 => Msg::ReplHeartbeat {
            durable_lsn: get_u64(buf)?,
        },
        t => return Err(GraqlError::net(format!("unknown message tag {t}"))),
    };
    if !buf.is_empty() {
        return Err(GraqlError::net("trailing bytes after message"));
    }
    Ok(msg)
}

// -- bridges to engine types -------------------------------------------------

/// Builds the error frame for a failed request: wire status byte plus the
/// stable diagnostic code from PR 1's taxonomy.
pub fn error_msg(e: &GraqlError) -> Msg {
    Msg::Error {
        status: e.wire_status(),
        code: Diagnostic::from_error(e, Span::default()).code.to_string(),
        message: e.to_string(),
    }
}

/// Hands `emit` the message sequence for one statement output: header +
/// column batches + end for tables, single messages otherwise. A batch
/// is cut from the result's columns only when its turn comes, so a
/// caller that encodes as it goes holds one batch at a time.
fn each_output_msg(out: &SessionOutput, mut emit: impl FnMut(Msg)) {
    match out {
        SessionOutput::Created(name) => emit(Msg::Created { name: name.clone() }),
        SessionOutput::Ingested { table, rows } => emit(Msg::Ingested {
            table: table.clone(),
            rows: *rows,
        }),
        SessionOutput::Table(t) => {
            emit(Msg::TableHeader {
                cols: t
                    .schema()
                    .columns()
                    .iter()
                    .map(|c| (c.name.clone(), c.dtype))
                    .collect(),
            });
            for rows in t.batches(BATCH_ROWS) {
                emit(Msg::TableRows { rows });
            }
            emit(Msg::TableEnd);
        }
        SessionOutput::Subgraph {
            n_vertices,
            n_edges,
            summary,
        } => emit(Msg::Subgraph {
            n_vertices: *n_vertices,
            n_edges: *n_edges,
            summary: summary.clone(),
        }),
        SessionOutput::Pipelined => emit(Msg::Pipelined),
        SessionOutput::Profile { text, json } => emit(Msg::ProfileReport {
            text: text.clone(),
            json: json.clone(),
        }),
    }
}

/// The message sequence for one statement output.
pub fn output_msgs(out: &SessionOutput) -> Vec<Msg> {
    let mut msgs = Vec::new();
    each_output_msg(out, |m| msgs.push(m));
    msgs
}

/// The tagged frame payloads for one statement output — the serve path:
/// every message of [`output_msgs`], encoded as it is produced.
pub fn output_frames(request_id: u64, out: &SessionOutput) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    each_output_msg(out, |m| frames.push(encode_tagged(request_id, &m)));
    frames
}

/// Rebuilds a table from a streamed header + column batches. Its string
/// dictionaries are the reply's, so batch codes are stored as they come.
#[derive(Debug)]
pub struct TableAssembler {
    table: Table,
}

impl TableAssembler {
    pub fn new(cols: &[(String, DataType)]) -> Result<Self> {
        let schema = TableSchema::new(cols.iter().map(|(n, dt)| ColumnDef::new(n, *dt)).collect())?;
        Ok(TableAssembler {
            table: Table::empty(schema),
        })
    }

    /// Appends one batch. A batch that disagrees with the header (column
    /// count or types), with itself (ragged columns) or with the
    /// dictionary so far (a code past its end, an entry sent twice) is a
    /// protocol error and adds nothing.
    pub fn push_rows(&mut self, rows: &ColumnBatch) -> Result<()> {
        self.table
            .append_batch(rows)
            .map_err(|e| GraqlError::net(format!("malformed table batch: {e}")))
    }

    pub fn finish(self) -> Table {
        self.table
    }
}

/// Converts diagnostics to their wire form.
pub fn diags_to_wire(diags: &Diagnostics) -> Vec<WireDiag> {
    diags
        .iter()
        .map(|d| WireDiag {
            severity: match d.severity {
                Severity::Hint => 0,
                Severity::Warning => 1,
                Severity::Error => 2,
            },
            code: d.code.to_string(),
            message: d.message.clone(),
            line: d.span.line,
            col: d.span.col,
            len: d.span.len,
            notes: d.notes.clone(),
        })
        .collect()
}

/// Converts wire diagnostics back into [`Diagnostics`]. Codes are
/// interned against the stable code table; a code this build does not
/// know (newer peer) degrades to [`codes::NET_OTHER`] with the original
/// code prefixed to the message, so nothing is silently dropped.
pub fn diags_from_wire(wire: &[WireDiag]) -> Diagnostics {
    let mut out = Diagnostics::new();
    for w in wire {
        let span = Span::with_len(w.line, w.col, w.len);
        let (code, message) = match intern_code(&w.code) {
            Some(c) => (c, w.message.clone()),
            None => (codes::NET_OTHER, format!("[{}] {}", w.code, w.message)),
        };
        let mut d = match w.severity {
            2 => Diagnostic::error(code, message, span),
            1 => Diagnostic::warning(code, message, span),
            _ => Diagnostic::hint(code, message, span),
        };
        for n in &w.notes {
            d = d.with_note(n.clone());
        }
        out.push(d);
    }
    out
}

/// The stable code table: wire string → the `'static` code constant.
fn intern_code(code: &str) -> Option<&'static str> {
    const ALL: &[&str] = &[
        codes::PARSE,
        codes::UNKNOWN_NAME,
        codes::UNKNOWN_ATTR,
        codes::BAD_QUALIFIER,
        codes::DUPLICATE,
        codes::AMBIGUOUS,
        codes::NAME_OTHER,
        codes::INCOMPARABLE,
        codes::WRONG_KIND,
        codes::BAD_AGGREGATE,
        codes::MISPLACED_CLAUSE,
        codes::TYPE_OTHER,
        codes::BAD_PATH,
        codes::BAD_LABEL,
        codes::BAD_ENDPOINT,
        codes::PATH_OTHER,
        codes::INGEST_OTHER,
        codes::PLAN_OTHER,
        codes::EXEC_OTHER,
        codes::IR_OTHER,
        codes::CLUSTER_OTHER,
        codes::NET_OTHER,
        codes::ACCESS_DENIED,
        codes::DEADLINE,
        codes::CANCELLED,
        codes::BUDGET,
        codes::NOT_PRIMARY,
        codes::UNUSED_LABEL,
        codes::UNREAD_RESULT,
        codes::ALWAYS_FALSE,
        codes::SHADOWED_RESULT,
        codes::UNSATISFIABLE_STEP,
        codes::DEAD_BRANCH,
        codes::CONTRADICTORY_RANGE,
        codes::ALWAYS_TRUE,
        codes::UNBOUNDED_HIGH_FANOUT,
        codes::ZERO_REPETITION,
        codes::UNGOVERNED_REPETITION,
        codes::TOP_WITHOUT_ORDER,
        codes::TOP_SORT_SPILL,
        codes::COSTLY_TRAVERSAL,
    ];
    ALL.iter().find(|&&c| c == code).copied()
}

/// Maps a granted role tag back to [`Role`], rejecting unknown tags.
pub fn role_from_tag(tag: u8) -> Result<Role> {
    Role::from_wire_tag(tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<Msg> {
        vec![
            Msg::Hello {
                proto: PROTO_VERSION,
                user: "ada".into(),
            },
            Msg::Submit {
                ir: vec![1, 2, 3, 255],
            },
            Msg::Check {
                text: "select * from table T".into(),
            },
            Msg::Describe,
            Msg::Ping,
            Msg::Goodbye,
            Msg::Cancel,
            Msg::Welcome {
                proto: PROTO_VERSION,
                role: 1,
                server: "gems-serve/0.1".into(),
            },
            Msg::Error {
                status: 7,
                code: "E0903".into(),
                message: "boom".into(),
            },
            Msg::Created { name: "T".into() },
            Msg::Ingested {
                table: "T".into(),
                rows: 42,
            },
            Msg::TableHeader {
                cols: vec![
                    ("id".into(), DataType::Varchar(10)),
                    ("n".into(), DataType::Integer),
                    ("x".into(), DataType::Float),
                    ("d".into(), DataType::Date),
                ],
            },
            Msg::TableRows {
                rows: ColumnBatch {
                    n_rows: 2,
                    columns: vec![
                        BatchColumn::Str {
                            page: "a".into(),
                            ends: vec![1],
                            codes: vec![0, 0],
                            nulls: BitSet::from_indices(2, [1]),
                        },
                        BatchColumn::Int {
                            data: vec![-3, 0],
                            nulls: BitSet::from_indices(2, [1]),
                        },
                        BatchColumn::Float {
                            data: vec![1.5, 2.5],
                            nulls: BitSet::new(2),
                        },
                        BatchColumn::Date {
                            data: vec![7000, 0],
                            nulls: BitSet::from_indices(2, [1]),
                        },
                    ],
                },
            },
            Msg::TableEnd,
            Msg::Subgraph {
                n_vertices: 10,
                n_edges: 20,
                summary: "10 vertices (V: 10), 20 edges (e: 20)".into(),
            },
            Msg::Pipelined,
            Msg::Done {
                stmts: 3,
                micros: 12345,
            },
            Msg::CheckReport {
                diags: vec![WireDiag {
                    severity: 2,
                    code: "E0201".into(),
                    message: "type error".into(),
                    line: 3,
                    col: 7,
                    len: 2,
                    notes: vec!["note".into()],
                }],
            },
            Msg::DescribeReport {
                text: "tables:\n".into(),
            },
            Msg::Pong,
            Msg::Metrics,
            Msg::ProfileReport {
                text: "profile select …\nstages:\n".into(),
                json: "{\"statement\":\"select …\"}".into(),
            },
            Msg::MetricsReport {
                text: "graql_queries_total{outcome=\"ok\"} 1\n".into(),
            },
            Msg::ReplSubscribe { from_lsn: 17 },
            Msg::ReplAck { lsn: 16 },
            Msg::Promote,
            Msg::ReplSnapshot {
                watermark: 17,
                name: "catalog.graql".into(),
                data: vec![99, 114, 101, 97, 116, 101],
                last: false,
            },
            Msg::ReplBatch {
                first_lsn: 18,
                last_lsn: 19,
                frames: vec![0, 1, 2, 3, 255],
            },
            Msg::ReplHeartbeat { durable_lsn: 19 },
        ]
    }

    #[test]
    fn round_trip_all_variants() {
        for msg in corpus() {
            let blob = encode(&msg);
            let back = decode(&blob).unwrap();
            // Value has no PartialEq-compatible NaN concerns in this corpus.
            assert_eq!(format!("{msg:?}"), format!("{back:?}"), "{msg:?}");
        }
    }

    #[test]
    fn tagged_round_trip_all_variants() {
        for (i, msg) in corpus().into_iter().enumerate() {
            let id = (i as u64) * 0x0101_0101 + 7;
            let blob = encode_tagged(id, &msg);
            let (back_id, back) = decode_tagged(&blob).unwrap();
            assert_eq!(back_id, id);
            assert_eq!(format!("{msg:?}"), format!("{back:?}"), "{msg:?}");
        }
        // A frame shorter than the id prefix is a clean error.
        assert!(decode_tagged(&[0, 1, 2]).is_err());
    }

    #[test]
    fn varints_round_trip_and_reject_overlong() {
        for v in [0, 1, 127, 128, 300, 16_383, 16_384, u32::MAX - 1, u32::MAX] {
            let mut b = Vec::new();
            put_varint(&mut b, v);
            let mut buf = &b[..];
            assert_eq!(get_varint(&mut buf).unwrap(), v);
            assert!(buf.is_empty());
        }
        // 33 bits, and a sixth byte.
        assert!(get_varint(&mut &[0xff, 0xff, 0xff, 0xff, 0x1f][..]).is_err());
        assert!(get_varint(&mut &[0x80, 0x80, 0x80, 0x80, 0x80, 0x01][..]).is_err());
        assert!(get_varint(&mut &[0x80][..]).is_err());
    }

    #[test]
    fn truncations_error_cleanly() {
        for msg in corpus() {
            let blob = encode(&msg);
            for cut in 0..blob.len() {
                assert!(decode(&blob[..cut]).is_err(), "{msg:?} cut at {cut}");
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut blob = encode(&Msg::Ping);
        blob.push(0);
        assert!(decode(&blob).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut blob = encode(&Msg::Hello {
            proto: 1,
            user: "u".into(),
        });
        blob[1] = b'X';
        let err = decode(&blob).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn diagnostics_round_trip_codes_and_spans() {
        let mut ds = Diagnostics::new();
        ds.push(
            Diagnostic::error(codes::INCOMPARABLE, "cmp", Span::with_len(2, 5, 3))
                .with_note("between float and varchar"),
        );
        ds.push(Diagnostic::warning(
            codes::UNUSED_LABEL,
            "unused",
            Span::new(1, 1),
        ));
        ds.push(Diagnostic::hint(
            codes::TOP_WITHOUT_ORDER,
            "top",
            Span::default(),
        ));
        let back = diags_from_wire(&diags_to_wire(&ds));
        assert_eq!(ds, back);
    }

    #[test]
    fn unknown_diag_code_degrades_not_drops() {
        let wire = [WireDiag {
            severity: 2,
            code: "E9999".into(),
            message: "from the future".into(),
            line: 0,
            col: 0,
            len: 0,
            notes: vec![],
        }];
        let ds = diags_from_wire(&wire);
        assert_eq!(ds.len(), 1);
        let d = ds.iter().next().unwrap();
        assert_eq!(d.code, codes::NET_OTHER);
        assert!(d.message.contains("E9999"));
    }
}
