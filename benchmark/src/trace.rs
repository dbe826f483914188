//! The traced pass: where one request's microseconds go.
//!
//! The first requests of a workload's seeded stream are replayed on one
//! thread, one at a time. Around the call into each layer's public
//! function the harness records a span (name, start, end, parent,
//! request id); nothing inside the program is instrumented. Stages that
//! have no public function boundary (candidates, culling, enumeration,
//! the Table-1 kernels) come from the engine's own `QueryProfile`, read
//! through `Database::execute_select_observed`, and appear as synthetic
//! child spans laid end to end inside the `core::exec` span.
//!
//! Each layer is probed separately on the same request, so the spans of
//! one request are siblings, not a decomposition of one execution:
//!
//! ```text
//! request
//! ├ parser.parse          graql_parser::parse                  (client)
//! ├ analyze.script        analyze::analyze_script              (server, on a plan-cache miss)
//! ├ analysis.rewrite      analysis::rewrite_select             (server, on a miss)
//! ├ ir.encode             ir::encode                           (client)
//! ├ ir.decode             ir::decode                           (server)
//! ├ plancache.lookup      Script::to_string + PlanCache::lookup
//! ├ core::exec            Database::execute_select_observed, per select
//! │  └ exec.* / table.*   QueryProfile stages (synthetic)
//! ├ wal.commit            Wal::commit on a probe log           (ingest only)
//! ├ server.session_exec   Session::execute_ir, in process
//! ├ net.reply_encode      proto::output_frames
//! ├ client.reply_decode   proto::decode_tagged + TableAssembler
//! └ client.roundtrip      RemoteSession::submit_ir + wait, over loopback
//! ```
//!
//! The ladder: `client.roundtrip` = `server.session_exec` +
//! `net.reply_encode` + `client.reply_decode` + what is left, which is
//! socket, queue and scheduling (`ladder.wire_residual_us`).

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use graql_core::{ir, Database, DurabilityOptions, PlanCache, SessionOutput, Wal, WalPayload};
use graql_net::proto::{self, Msg, TableAssembler};
use graql_net::{ConnectOptions, RemoteSession};
use graql_parser::ast::Stmt;
use graql_types::obs::Stage;
use graql_types::{ProfileReport, QueryGuard, QueryProfile, WalMetrics};

use crate::drive::{percentiles, Ingests, Reads, Request};
use crate::gen::{Chunk, Class, READS_PER_COMMIT};
use crate::rig::{self, Coverage, Result, Rig};
use crate::suite::Target;

/// A request slower than this replays 200 requests, not 2,000.
const SLOW_REQUEST: Duration = Duration::from_millis(5);

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request_id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans in memory; written out when the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    request_id: u32,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request_id: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            request_id: self.request_id,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Times `f` as a child of whatever span is open.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let start = self.now();
        let id = self.push(name, start, start);
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now();
        out
    }

    /// One request's root span.
    fn request<T>(&mut self, request_id: u32, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.request_id = request_id;
        self.span("request", f)
    }

    /// Start of the innermost open span.
    fn open_start(&self) -> u64 {
        self.open
            .last()
            .map_or(0, |&id| self.spans[id as usize].start_ns)
    }

    /// A child span with given times (a `QueryProfile` stage).
    fn synthetic(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.push(name, start_ns, end_ns);
    }
}

/// Checks that spans nest: one root per request id, every child inside
/// its parent's interval and of its parent's request, siblings disjoint.
pub fn check_nesting(spans: &[Span]) -> std::result::Result<(), String> {
    let mut roots: HashMap<u32, u32> = HashMap::new();
    let mut children: HashMap<u32, Vec<&Span>> = HashMap::new();
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        match s.parent {
            None => *roots.entry(s.request_id).or_insert(0) += 1,
            Some(p) => {
                let parent = spans
                    .get(p as usize)
                    .ok_or_else(|| format!("span {} names a missing parent {p}", s.id))?;
                if parent.request_id != s.request_id {
                    return Err(format!("span {} crosses requests", s.id));
                }
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {} ({}) leaves its parent {} ({})",
                        s.id, s.name, parent.id, parent.name
                    ));
                }
                children.entry(p).or_default().push(s);
            }
        }
    }
    if let Some((request, n)) = roots.iter().find(|(_, n)| **n != 1) {
        return Err(format!("request {request} has {n} roots"));
    }
    let requests: std::collections::HashSet<u32> = spans.iter().map(|s| s.request_id).collect();
    if requests.len() != roots.len() {
        return Err("a request has spans but no root".to_string());
    }
    for siblings in children.values_mut() {
        siblings.sort_by_key(|s| s.start_ns);
        if let Some(w) = siblings.windows(2).find(|w| w[1].start_ns < w[0].end_ns) {
            return Err(format!("spans {} and {} overlap", w[0].id, w[1].id));
        }
    }
    Ok(())
}

pub fn write_spans(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"workload\": \"{workload}\", \"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"request_id\": {}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}{}",
            s.id,
            s.request_id,
            s.name,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

/// Per span name: summed self time, summed duration, and the number of
/// requests that have such a span. Self time is duration minus the part
/// the span's children cover.
#[derive(Default, Clone, Copy)]
struct Total {
    self_ns: f64,
    duration_ns: f64,
    requests: f64,
}

fn totals(spans: &[Span]) -> HashMap<&'static str, Total> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: HashMap<&'static str, Total> = HashMap::new();
    let mut seen: std::collections::HashSet<(&'static str, u32)> = Default::default();
    for s in spans {
        let t = out.entry(s.name).or_default();
        let duration = s.end_ns - s.start_ns;
        t.duration_ns += duration as f64;
        t.self_ns += duration.saturating_sub(covered[s.id as usize]) as f64;
        if seen.insert((s.name, s.request_id)) {
            t.requests += 1.0;
        }
    }
    out
}

/// The span and the metric of a `QueryProfile` stage.
fn stage_names(stage: Stage) -> (&'static str, &'static str) {
    match stage {
        Stage::Compile => ("exec.compile", "exec.compile_us"),
        Stage::Candidates => ("exec.candidates", "exec.candidates_us"),
        Stage::Cull => ("exec.cull", "exec.cull_us"),
        Stage::Plan => ("exec.plan", "exec.plan_us"),
        Stage::Enumerate => ("exec.enumerate", "exec.enumerate_us"),
        Stage::Project => ("exec.project", "exec.project_us"),
        Stage::Filter => ("table.filter", "table.filter_us"),
        Stage::Aggregate => ("table.group", "table.group_us"),
        Stage::Distinct => ("table.distinct", "table.distinct_us"),
        Stage::Sort => ("table.sort", "table.sort_us"),
        Stage::Top => ("table.top", "table.top_us"),
    }
}

/// One request of the replay.
struct Replayed {
    request: Request,
    class: Class,
    /// The chunk this request ingests, when it is a write.
    ingest: Option<Chunk>,
}

impl Replayed {
    fn ingested_bytes(&self) -> u64 {
        self.ingest.as_ref().map_or(0, |c| c.csv.len() as u64)
    }
}

/// The replay's request sequence: the workload's seeded stream, with a
/// chunk commit before every [`READS_PER_COMMIT`] reads where it writes.
struct Replay<'a> {
    writes: bool,
    reads: Reads<'a>,
    ingests: Ingests<'a>,
    position: usize,
}

impl<'a> Replay<'a> {
    fn new(target: Target<'a>, next_chunk: &'a mut u64) -> Replay<'a> {
        Replay {
            writes: target.workload.writes,
            reads: Reads::new(target.workload, target.seed, target.reference),
            ingests: Ingests {
                seed: target.seed,
                scale: rig::scale(target.seed),
                data_dir: &target.rig.data_dir,
                next_chunk,
            },
            position: 0,
        }
    }

    fn write(&mut self) -> Result<Replayed> {
        let (request, chunk) = self.ingests.next_chunk()?;
        Ok(Replayed {
            request,
            class: Class::Write,
            ingest: Some(chunk),
        })
    }

    fn next(&mut self) -> Result<Replayed> {
        let position = self.position;
        self.position += 1;
        if self.writes && position.is_multiple_of(READS_PER_COMMIT + 1) {
            return self.write();
        }
        let (request, class) = self.reads.next_read();
        Ok(Replayed {
            request,
            class,
            ingest: None,
        })
    }
}

pub struct Traced {
    pub metrics: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

/// The server's own counters, read before and after the untraced replay.
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    bytes_out: u64,
    shed: u64,
    epochs: u64,
    wal_records: u64,
    wal_batches: u64,
    wal_log_bytes: u64,
}

fn counters(rig: &Rig) -> Counters {
    use std::sync::atomic::Ordering::Relaxed;
    let metrics = rig.server.metrics();
    let cache = metrics.plan_cache();
    let wal = metrics.wal();
    let stats = rig.net.stats();
    Counters {
        hits: cache.map_or(0, |c| c.hits.get()),
        misses: cache.map_or(0, |c| c.misses.get()),
        evictions: cache.map_or(0, |c| c.evictions.get()),
        bytes_out: stats.bytes_out.load(Relaxed),
        shed: stats.queries_shed.load(Relaxed),
        epochs: rig.server.epoch_id(),
        wal_records: wal.map_or(0, |w| w.records_appended.get()),
        wal_batches: wal.map_or(0, |w| w.group_commits.get()),
        wal_log_bytes: std::fs::metadata(rig.wal_dir().join("wal.log")).map_or(0, |m| m.len()),
    }
}

/// What the traced replay counts beside its spans.
#[derive(Default)]
struct Sums {
    requests: usize,
    /// Request ids that took the writer path, ascending.
    write_requests: Vec<u32>,
    script_bytes: u64,
    ir_bytes: u64,
    reply_bytes: u64,
    reply_rows: u64,
    /// Candidates collected plus table rows scanned.
    examined: u64,
    returned: u64,
    cull_before: u64,
    cull_after: u64,
    relational_rows: u64,
    relational_ns: u64,
    /// CSV bytes committed to the server since `Counters::wal_log_bytes`
    /// was first read.
    ingested_bytes: u64,
}

/// Requests attempted and failed; a reply fails by erroring or by
/// differing from the reference.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Checks a reply and returns the table rows it carried.
    fn check(&mut self, reply: graql_types::Result<Vec<SessionOutput>>, request: &Request) -> u64 {
        self.attempted += 1;
        let (rows, correct, _) = reply.map_or((0, false, Coverage::Full), |outputs| {
            request.check(&outputs, false)
        });
        self.failed += u64::from(!correct);
        rows
    }
}

fn roundtrip(wire: &mut RemoteSession, blob: &[u8]) -> graql_types::Result<Vec<SessionOutput>> {
    let id = wire.submit_ir(blob)?;
    wire.wait(id)
}

fn encode(text: &str) -> Result<Vec<u8>> {
    Ok(ir::encode(&graql_parser::parse(text)?).to_vec())
}

fn micros_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / 1000.0
}

/// Decodes reply frames the way `RemoteSession` does: tagged message,
/// then table assembly. Returns the rows assembled.
fn decode_reply(frames: &[Vec<u8>]) -> Result<u64> {
    let mut rows = 0;
    let mut table: Option<TableAssembler> = None;
    for frame in frames {
        match proto::decode_tagged(frame)?.1 {
            Msg::TableHeader { cols } => table = Some(TableAssembler::new(&cols)?),
            Msg::TableRows { rows } => table
                .as_mut()
                .ok_or("rows outside a table stream")?
                .push_rows(&rows)?,
            Msg::TableEnd => {
                let t = table.take().ok_or("TableEnd outside a table stream")?;
                rows += std::hint::black_box(t.finish()).n_rows() as u64;
            }
            other => {
                std::hint::black_box(other);
            }
        }
    }
    Ok(rows)
}

/// Replays up to `max_requests` of the stream three times over — warm,
/// untraced (wire only: the baseline the tracing overhead is taken
/// against, and the window the server's own counters are read over),
/// traced — within about `budget` of wall time, then runs the one-off
/// probes.
pub fn run(
    target: Target<'_>,
    max_requests: usize,
    budget: Duration,
    next_chunk: &mut u64,
) -> Result<Traced> {
    let Target { rig, workload, .. } = target;
    let mut wire = RemoteSession::connect(
        rig.net.local_addr(),
        ConnectOptions::new("admin").with_retries(0),
    )?;
    let mut tally = Tally::default();

    // Warm: fills the plan cache and decides how many requests fit.
    let mut replay = Replay::new(target, next_chunk);
    let started = Instant::now();
    let mut warmed = 0;
    while warmed < max_requests / 4 && started.elapsed() < budget / 8 {
        let Replayed { request, .. } = replay.next()?;
        tally.check(roundtrip(&mut wire, &encode(&request.text)?), &request);
        warmed += 1;
    }
    let mean = started.elapsed() / warmed.max(1) as u32;
    let requests = if mean > SLOW_REQUEST {
        max_requests.div_ceil(10)
    } else {
        max_requests
    };

    // Untraced: the same requests, wire only.
    let mut sums = Sums::default();
    let before = counters(rig);
    let mut replay = Replay::new(target, next_chunk);
    let started = Instant::now();
    let mut untraced: Vec<(Class, Duration)> = Vec::new();
    while untraced.len() < requests && started.elapsed() < budget / 4 {
        let replayed = replay.next()?;
        let blob = encode(&replayed.request.text)?;
        sums.ingested_bytes += replayed.ingested_bytes();
        let t0 = Instant::now();
        let reply = roundtrip(&mut wire, &blob);
        untraced.push((replayed.class, t0.elapsed()));
        tally.check(reply, &replayed.request);
    }
    let after = counters(rig);

    // Traced: every layer probed on every request.
    let probe_wal = match workload.writes {
        true => Some(
            Wal::open(
                &rig.data_dir.join("probe_wal"),
                DurabilityOptions::default(),
                Arc::new(WalMetrics::new()),
            )?
            .1,
        ),
        false => None,
    };
    let mut probes = Probes {
        session: rig.server.connect("admin")?,
        scratch: Database::clone(&rig.server.snapshot()),
        cache: PlanCache::default(),
        wal: probe_wal.as_ref(),
        wire: &mut wire,
    };
    let mut tracer = Tracer::new();
    let mut replay = Replay::new(target, next_chunk);
    let started = Instant::now();
    while sums.requests < untraced.len() && started.elapsed() < budget / 2 {
        let replayed = replay.next()?;
        // The in-process session applies a sibling chunk, so that every
        // commit in the trace is a real one, applied once.
        let sibling = match replayed.ingest {
            Some(_) => Some(replay.write()?),
            None => None,
        };
        let sibling_blob = match &sibling {
            Some(s) => Some(encode(&s.request.text)?),
            None => None,
        };
        let id = sums.requests as u32;
        let reply = tracer.request(id, |t| {
            probes.request(t, id, &replayed, sibling_blob.as_deref(), &mut sums)
        })?;
        sums.returned += tally.check(reply, &replayed.request);
        sums.ingested_bytes +=
            replayed.ingested_bytes() + sibling.map_or(0, |s| s.ingested_bytes());
        sums.requests += 1;
    }
    let log_bytes = counters(rig).wal_log_bytes - before.wal_log_bytes;
    check_nesting(&tracer.spans)?;
    let mut notes = vec![format!(
        "traced pass: {} requests replayed one at a time ({warmed} warm, {} untraced)",
        sums.requests,
        untraced.len()
    )];

    let fsync = probe_wal.as_ref().map(|w| &w.metrics().fsync_nanos);
    let mut metrics = derive(&tracer.spans, &sums, &untraced, &before, &after, &mut notes);
    let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    metrics.push((
        "wal.fsync_us",
        fsync.map_or(0.0, |h| per(h.sum(), h.count()) / 1000.0),
    ));
    metrics.push((
        "wal.bytes_per_user_byte",
        per(log_bytes, sums.ingested_bytes) * f64::from(workload.writes),
    ));
    metrics.extend(one_off_probes(rig, &mut wire)?);
    Ok(Traced {
        metrics,
        spans: tracer.spans,
        attempted: tally.attempted,
        failed: tally.failed,
        notes,
    })
}

/// What the traced replay calls into, request after request.
struct Probes<'a> {
    /// An in-process session on the served database.
    session: graql_core::Session,
    /// A private copy of the served snapshot, for `core::exec`.
    scratch: Database,
    /// A plan cache of the harness's own, keyed as the server keys its.
    cache: PlanCache,
    /// A log beside the server's (writes only).
    wal: Option<&'a Wal>,
    wire: &'a mut RemoteSession,
}

impl Probes<'_> {
    /// Probes every layer on one request, inside its root span, and
    /// returns the wire's reply.
    fn request(
        &mut self,
        t: &mut Tracer,
        id: u32,
        replayed: &Replayed,
        sibling: Option<&[u8]>,
        sums: &mut Sums,
    ) -> Result<graql_types::Result<Vec<SessionOutput>>> {
        if replayed.class == Class::Write {
            sums.write_requests.push(id);
        }
        let text = &replayed.request.text;
        sums.script_bytes += text.len() as u64;
        let script = t.span("parser.parse", |_| graql_parser::parse(text))?;
        t.span("analyze.script", |_| {
            graql_core::analyze::analyze_script(self.scratch.catalog(), &script)
        })?;
        t.span("analysis.rewrite", |_| {
            for stmt in &script.statements {
                if let Stmt::Select(sel) = stmt {
                    std::hint::black_box(graql_core::analysis::rewrite_select(sel));
                }
            }
        });
        let blob = t.span("ir.encode", |_| ir::encode(&script));
        sums.ir_bytes += blob.len() as u64;
        let decoded = t.span("ir.decode", |_| ir::decode(&blob))?;
        if replayed.class != Class::Write {
            // The server keys by the canonical rendering, so the
            // rendering is part of what a lookup costs.
            let (key, hit) = t.span("plancache.lookup", |_| {
                let key = decoded.to_string();
                let hit = self.cache.lookup(1, &key).is_some();
                (key, hit)
            });
            if !hit {
                self.cache
                    .insert(1, key, Arc::new(decoded.statements.clone()));
            }
        }
        let guard = QueryGuard::new(self.scratch.config().budget);
        for stmt in &script.statements {
            let Stmt::Select(sel) = stmt else { continue };
            let out = t.span("core::exec", |t| self.exec(t, sel, &guard, sums))?;
            self.scratch.register_result(sel, out)?;
        }
        if let (Some(chunk), Some(wal)) = (&replayed.ingest, self.wal) {
            t.span("wal.commit", |_| {
                wal.commit(&WalPayload::Ingest {
                    table: chunk.table.to_string(),
                    csv: chunk.csv.clone(),
                })
            })?;
        }
        // The second of the two executions finds caches the first one
        // warmed, so they take turns going first.
        let wire_first = id % 2 == 1;
        let mut reply = None;
        if wire_first {
            reply = Some(t.span("client.roundtrip", |_| roundtrip(self.wire, &blob)));
        }
        let outputs = t.span("server.session_exec", |_| {
            self.session.execute_ir(sibling.unwrap_or(&blob))
        })?;
        let frames: Vec<Vec<u8>> = t.span("net.reply_encode", |_| {
            outputs
                .iter()
                .flat_map(|o| proto::output_frames(u64::from(id) + 1, o))
                .collect()
        });
        sums.reply_bytes += frames.iter().map(|f| f.len() as u64 + 4).sum::<u64>();
        sums.reply_rows += t.span("client.reply_decode", |_| decode_reply(&frames))?;
        Ok(reply.unwrap_or_else(|| t.span("client.roundtrip", |_| roundtrip(self.wire, &blob))))
    }

    /// Executes one select with a `QueryProfile` armed, inside the open
    /// `core::exec` span, and lays the profile's stages end to end as
    /// that span's children.
    fn exec(
        &self,
        t: &mut Tracer,
        sel: &graql_parser::ast::SelectStmt,
        guard: &QueryGuard,
        sums: &mut Sums,
    ) -> Result<graql_core::QueryOutput> {
        let profile = QueryProfile::new();
        let start = t.open_start();
        let out = self
            .scratch
            .execute_select_observed(sel, guard, Some(&profile))?;
        let report = ProfileReport::seal(String::new(), String::new(), &profile, 0, 0);
        let room = t.now() - start;
        let staged: u64 = report.stages.iter().map(|s| s.nanos).sum();
        // Stages are wall times inside the select, so they fit; the
        // scale only guards against clock skew.
        let scale = (room as f64 / staged.max(1) as f64).min(1.0);
        let mut at = start;
        for line in report.stages.iter().filter(|l| l.calls > 0) {
            let end = at + (line.nanos as f64 * scale) as u64;
            t.synthetic(stage_names(line.stage).0, at, end);
            at = end;
            match line.stage {
                Stage::Candidates => sums.examined += line.rows_out,
                Stage::Filter => sums.examined += line.rows_in,
                _ => {}
            }
            if stage_names(line.stage).0.starts_with("table.") {
                sums.relational_rows += line.rows_in;
                sums.relational_ns += line.nanos;
            }
        }
        sums.cull_before += report.candidates_before_cull;
        sums.cull_after += report.candidates_after_cull;
        Ok(out)
    }
}

/// The per-layer metrics that are arithmetic over the spans, the sums
/// and the server's counters; the layer shares go to `notes`.
fn derive(
    spans: &[Span],
    sums: &Sums,
    untraced: &[(Class, Duration)],
    before: &Counters,
    after: &Counters,
    notes: &mut Vec<String>,
) -> Vec<(&'static str, f64)> {
    let totals = totals(spans);
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    // Mean self time per request that has such a span, in µs.
    let mean_us = |name: &str| {
        let t = total(name);
        t.self_ns / t.requests.max(1.0) / 1000.0
    };
    let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let n = sums.requests.max(1) as f64;
    let mut metrics: Vec<(&'static str, f64)> = vec![
        ("parser.parse_us", mean_us("parser.parse")),
        ("parser.script_bytes", sums.script_bytes as f64 / n),
        ("analyze.script_us", mean_us("analyze.script")),
        ("analysis.rewrite_us", mean_us("analysis.rewrite")),
        ("ir.encode_us", mean_us("ir.encode")),
        ("ir.decode_us", mean_us("ir.decode")),
        ("ir.bytes", sums.ir_bytes as f64 / n),
        ("plancache.lookup_us", mean_us("plancache.lookup")),
        (
            "exec.total_us",
            total("core::exec").duration_ns / n / 1000.0,
        ),
        (
            "exec.cull_keep_ratio",
            per(sums.cull_after, sums.cull_before),
        ),
        (
            "exec.rows_examined_per_row_returned",
            per(sums.examined, sums.returned),
        ),
        (
            "table.rows_in_per_s",
            sums.relational_rows as f64 / (sums.relational_ns.max(1) as f64 / 1e9),
        ),
        ("server.session_exec_us", mean_us("server.session_exec")),
        ("wal.commit_us", mean_us("wal.commit")),
        ("net.reply_encode_us", mean_us("net.reply_encode")),
        (
            "net.reply_bytes_per_row",
            per(sums.reply_bytes, sums.reply_rows),
        ),
        ("client.reply_decode_us", mean_us("client.reply_decode")),
        ("client.roundtrip_us", mean_us("client.roundtrip")),
    ];
    for stage in Stage::ALL {
        let (span, metric) = stage_names(stage);
        metrics.push((metric, mean_us(span)));
    }

    // Plan cache and wire counters, over the untraced window: one lookup
    // per request there, none of them the harness's own.
    let hits = after.hits - before.hits;
    let hit_ratio = per(hits, hits + after.misses - before.misses);
    let class_p50 = |class: Class| {
        let mut of: Vec<Duration> = untraced
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|(_, d)| *d)
            .collect();
        percentiles(&mut of).p50_us
    };
    metrics.extend([
        ("plancache.hit_ratio", hit_ratio),
        (
            "plancache.evictions",
            (after.evictions - before.evictions) as f64,
        ),
        ("plancache.hot_p50_us", class_p50(Class::Hot)),
        ("plancache.cold_p50_us", class_p50(Class::Cold)),
        (
            "net.bytes_out",
            per(after.bytes_out - before.bytes_out, untraced.len() as u64),
        ),
        ("net.queries_shed", (after.shed - before.shed) as f64),
        (
            "server.epoch_installs",
            (after.epochs - before.epochs) as f64,
        ),
        (
            "wal.records_per_fsync",
            match after.wal_batches - before.wal_batches {
                0 => 0.0,
                batches => (after.wal_records - before.wal_records) as f64 / batches as f64,
            },
        ),
    ]);

    // The write path, per request that took it.
    let of_writes = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name && sums.write_requests.binary_search(&s.request_id).is_ok())
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum()
    };
    metrics.push((
        "server.write_path_us",
        (of_writes("server.session_exec") - of_writes("core::exec") - of_writes("wal.commit"))
            / sums.write_requests.len().max(1) as f64
            / 1000.0,
    ));

    // The ladder.
    let sum = |names: &[&str]| names.iter().map(|n| total(n).duration_ns).sum::<f64>();
    let roundtrip_ns = sum(&["client.roundtrip"]).max(1.0);
    let session = sum(&["server.session_exec"]);
    let (encode, decode) = (sum(&["net.reply_encode"]), sum(&["client.reply_decode"]));
    let wire_residual = roundtrip_ns - session - encode - decode;
    // What the server runs for a request, by name: decode, the cache
    // lookup, analysis and rewrites on the share of requests that miss,
    // execution, the log commit, then the reply's two codecs.
    let front_end = sum(&["ir.decode", "plancache.lookup"])
        + (1.0 - hit_ratio) * sum(&["analyze.script", "analysis.rewrite"]);
    let exec = sum(&["core::exec"]);
    let wal = sum(&["wal.commit"]);
    let mut traced_rt: Vec<Duration> = spans
        .iter()
        .filter(|s| s.name == "client.roundtrip")
        .map(|s| Duration::from_nanos(s.end_ns - s.start_ns))
        .collect();
    let mut untraced_rt: Vec<Duration> = untraced.iter().map(|(_, d)| *d).collect();
    metrics.extend([
        ("ladder.wire_residual_us", wire_residual / n / 1000.0),
        (
            "ladder.coverage",
            (front_end + exec + wal + encode + decode) / roundtrip_ns,
        ),
        (
            "trace.overhead_ratio",
            percentiles(&mut traced_rt).p50_us / percentiles(&mut untraced_rt).p50_us.max(1e-9),
        ),
    ]);

    // The same sums as shares of the roundtrip, for the report. They add
    // up to 100%: the two residuals are what the named spans leave.
    let stage_total = |prefix: &str| {
        totals
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, t)| t.duration_ns)
            .sum::<f64>()
    };
    let (graph_stages, table_stages) = (stage_total("exec."), stage_total("table."));
    notes.push(format!(
        "shares of client.roundtrip (mean {:.1} us); client front-end (parser.parse, ir.encode) is {:.1}% on top",
        roundtrip_ns / n / 1000.0,
        100.0 * sum(&["parser.parse", "ir.encode"]) / roundtrip_ns
    ));
    for (what, ns) in [
        (
            "server front-end (ir.decode, plancache, analyze+rewrite on a miss)",
            front_end,
        ),
        ("core::exec graph stages (exec.*)", graph_stages),
        ("table::ops stages (table.*)", table_stages),
        (
            "core::exec outside a stage",
            exec - graph_stages - table_stages,
        ),
        ("wal.commit", wal),
        (
            "rest of the session (ingest apply, view rebuild, epoch install and teardown, sealing)",
            session - front_end - exec - wal,
        ),
        ("net.reply_encode", encode),
        ("client.reply_decode", decode),
        ("wire residual (socket, queue, scheduling)", wire_residual),
    ] {
        notes.push(format!("  {:>6.1}%  {what}", 100.0 * ns / roundtrip_ns));
    }
    metrics
}

/// Layers no request of the stream calls directly, timed once each.
fn one_off_probes(rig: &Rig, wire: &mut RemoteSession) -> Result<Vec<(&'static str, f64)>> {
    let snapshot = rig.server.snapshot();
    let mut metrics = Vec::new();
    let mut rebuilt = Database::clone(&snapshot);
    rebuilt.ingest_str("Types", "")?; // invalidates the views, adds no row
    let t0 = Instant::now();
    rebuilt.graph()?;
    metrics.push(("graph.views_build_us", micros_since(t0)));
    let t0 = Instant::now();
    rebuilt.stats()?;
    metrics.push(("graph.stats_us", micros_since(t0)));

    let (offers, products) = (
        snapshot.table("Offers").ok_or("no Offers table")?,
        snapshot.table("Products").ok_or("no Products table")?,
    );
    let keys = (
        [offers.schema().require("product")?],
        [products.schema().require("id")?],
    );
    let t0 = Instant::now();
    std::hint::black_box(graql_table::ops::hash_join_pairs(
        offers, &keys.0, products, &keys.1,
    ));
    metrics.push(("table.join_us", micros_since(t0)));

    const PINGS: u32 = 200;
    let t0 = Instant::now();
    for _ in 0..PINGS {
        wire.ping()?;
    }
    metrics.push(("net.ping_us", micros_since(t0) / f64::from(PINGS)));
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_check_accepts_a_tree_and_rejects_a_leak() {
        let mut t = Tracer::new();
        t.request(0, |t| {
            t.span("a", |t| t.span("b", |_| ()));
            t.span("c", |_| ());
        });
        t.request(1, |t| t.span("a", |_| ()));
        assert_eq!(check_nesting(&t.spans), Ok(()));
        let totals = totals(&t.spans);
        assert_eq!(totals["a"].requests, 2.0);
        assert!(totals["a"].self_ns <= totals["a"].duration_ns);

        let mut leaked = t.spans.clone();
        leaked[2].end_ns = leaked[0].end_ns + 1;
        assert!(check_nesting(&leaked).is_err(), "child outlives its parent");
        let mut two_roots = t.spans.clone();
        two_roots[1].parent = None;
        assert!(check_nesting(&two_roots).is_err(), "two roots in request 0");
    }
}
