//! Query-level observability: profiling spans, engine counters and
//! histograms, and their text renderings (shell, JSON, Prometheus).
//!
//! Three cooperating pieces (DESIGN.md §4.6):
//!
//! * [`QueryProfile`] — a lock-free per-query span recorder carried in the
//!   exec context next to the `QueryGuard`. Kernels record per-stage wall
//!   time, rows in/out, candidate counts around culling and guard
//!   checkpoints. It is *optional*: when nothing armed a profile, the
//!   `Option<&QueryProfile>` is `None` and the instrumented sites never
//!   even call `Instant::now()` — the zero-overhead path.
//! * [`ProfileReport`] — the sealed, renderable form of one profiled
//!   statement (`profile <stmt>` in the language): the explain-style plan,
//!   measured stage lines, guard accounting and a machine-readable JSON
//!   form. Reports are rendered once, server-side, so a remote `profile`
//!   is byte-identical to a local one.
//! * [`MetricsRegistry`] — server-wide monotonic counters and stage
//!   latency histograms (queries by outcome including governance kills,
//!   rows/bytes streamed), rendered as a `describe` section and as
//!   Prometheus text exposition (format 0.0.4) for the `--metrics-addr`
//!   listener.
//!
//! Everything here is atomics: recording never blocks a query thread.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::error::GraqlError;

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A monotonic lock-free counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Finite bucket count; bounds are `1024 << i` nanoseconds, i.e. ~1µs up
/// to ~17s, after which observations land in the +Inf overflow bucket.
pub const HIST_BUCKETS: usize = 25;

/// A lock-free histogram of nanosecond durations with exponential
/// (power-of-two) buckets. Bucket `i` holds observations
/// `<= 1024 << i` ns; one extra slot catches the +Inf overflow.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; HIST_BUCKETS + 1],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Upper bound (inclusive, in nanoseconds) of finite bucket `i`.
    pub const fn bound(i: usize) -> u64 {
        1024u64 << i
    }

    #[inline]
    pub fn observe(&self, nanos: u64) {
        let idx = (0..HIST_BUCKETS)
            .find(|&i| nanos <= Self::bound(i))
            .unwrap_or(HIST_BUCKETS);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed nanoseconds.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

/// Where a [`Family`] reads its samples from a metrics object `S`. The
/// variant fixes the family's `# TYPE`.
pub enum Source<S> {
    Counter(fn(&S) -> u64),
    Gauge(fn(&S) -> u64),
    Histogram(fn(&S) -> &Histogram),
    /// One counter per value of the named label.
    Counters(&'static str, fn(&S) -> Vec<(&'static str, u64)>),
    /// One histogram per value of the named label; a value whose
    /// histogram holds no observation is left out.
    Histograms(&'static str, fn(&S) -> Vec<(&'static str, &Histogram)>),
}

/// One Prometheus metric family. Each metrics object declares its
/// families once, in exposition order, as a table that
/// [`write_exposition`] renders.
pub struct Family<S> {
    pub name: &'static str,
    pub help: &'static str,
    pub source: Source<S>,
}

/// Appends the Prometheus text exposition (format 0.0.4) of `families`
/// read from `metrics`: per family one `# HELP` line, one `# TYPE` line,
/// then its samples. Durations are exported in nanoseconds — the unit is
/// in the family name, so scrapers need no conversion guesswork.
pub fn write_exposition<S>(out: &mut String, metrics: &S, families: &[Family<S>]) {
    for f in families {
        let kind = match f.source {
            Source::Counter(_) | Source::Counters(..) => "counter",
            Source::Gauge(_) => "gauge",
            Source::Histogram(_) | Source::Histograms(..) => "histogram",
        };
        let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
        let _ = writeln!(out, "# TYPE {} {kind}", f.name);
        match f.source {
            Source::Counter(read) | Source::Gauge(read) => {
                let _ = writeln!(out, "{} {}", f.name, read(metrics));
            }
            Source::Histogram(read) => write_histogram(out, f.name, "", read(metrics)),
            Source::Counters(label, read) => {
                for (value, n) in read(metrics) {
                    let _ = writeln!(out, "{}{{{label}=\"{value}\"}} {n}", f.name);
                }
            }
            Source::Histograms(label, read) => {
                for (value, hist) in read(metrics) {
                    if hist.count() > 0 {
                        let labels = format!("{label}=\"{value}\"");
                        write_histogram(out, f.name, &labels, hist);
                    }
                }
            }
        }
    }
}

/// One histogram series: cumulative `_bucket` lines, `_sum` and `_count`,
/// with `labels` (empty, or e.g. `stage="culling"`) in every label set.
fn write_histogram(out: &mut String, name: &str, labels: &str, hist: &Histogram) {
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cum = 0u64;
    for (i, count) in hist.counts.iter().enumerate() {
        cum += count.load(Ordering::Relaxed);
        let le = match i {
            HIST_BUCKETS => "+Inf".to_string(),
            i => Histogram::bound(i).to_string(),
        };
        let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cum}");
    }
    let labels = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    let _ = writeln!(out, "{name}_sum{labels} {}", hist.sum());
    let _ = writeln!(out, "{name}_count{labels} {cum}");
}

// ---------------------------------------------------------------------------
// Stage
// ---------------------------------------------------------------------------

/// One profiled execution stage. The names are stable: the graph stages
/// mirror the planner stages named by `explain` (culling, enumeration
/// order), the relational stages mirror the guarded table operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Pattern compilation: predicates pushed to per-vertex candidate sets.
    Compile,
    /// Initial per-vertex candidate collection (label + local predicates).
    Candidates,
    /// Semi-join culling sweeps to fixpoint (§III-B).
    Cull,
    /// Enumeration-order selection over culled candidate counts.
    Plan,
    /// DFS binding enumeration / set-level traversal.
    Enumerate,
    /// Result projection (bindings → table / subgraph).
    Project,
    /// Relational `where` filter.
    Filter,
    /// Group-by aggregation.
    Aggregate,
    /// Duplicate elimination.
    Distinct,
    /// `order by` sort.
    Sort,
    /// `top n` truncation.
    Top,
}

/// Number of distinct stages (length of [`Stage::ALL`]).
pub const N_STAGES: usize = 11;

impl Stage {
    /// Canonical rendering order: graph stages then relational stages.
    pub const ALL: [Stage; N_STAGES] = [
        Stage::Compile,
        Stage::Candidates,
        Stage::Cull,
        Stage::Plan,
        Stage::Enumerate,
        Stage::Project,
        Stage::Filter,
        Stage::Aggregate,
        Stage::Distinct,
        Stage::Sort,
        Stage::Top,
    ];

    /// Stable snake_case identifier (JSON, Prometheus labels).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Compile => "compile",
            Stage::Candidates => "candidates",
            Stage::Cull => "culling",
            Stage::Plan => "enumeration_order",
            Stage::Enumerate => "enumerate",
            Stage::Project => "project",
            Stage::Filter => "filter",
            Stage::Aggregate => "aggregate",
            Stage::Distinct => "distinct",
            Stage::Sort => "sort",
            Stage::Top => "top",
        }
    }

    /// Human-readable label (shell rendering); matches the planner
    /// vocabulary used by `explain`.
    pub fn display(self) -> &'static str {
        match self {
            Stage::Plan => "enumeration order",
            s => s.name(),
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

// ---------------------------------------------------------------------------
// QueryProfile
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct StageSlot {
    nanos: AtomicU64,
    calls: AtomicU64,
    rows_in: AtomicU64,
    rows_out: AtomicU64,
}

/// Per-query span recorder, shared by reference with every exec kernel.
///
/// All slots are relaxed atomics so parallel kernels (morsel workers, the
/// pipelined scheduler) can record concurrently; per-stage numbers are
/// therefore *cumulative wall time inside that stage*, which can exceed
/// elapsed wall clock under parallelism.
#[derive(Debug)]
pub struct QueryProfile {
    stages: [StageSlot; N_STAGES],
    candidates_before_cull: AtomicU64,
    candidates_after_cull: AtomicU64,
    guard_ticks: AtomicU64,
    started: Instant,
}

impl Default for QueryProfile {
    fn default() -> Self {
        QueryProfile::new()
    }
}

impl QueryProfile {
    pub fn new() -> QueryProfile {
        QueryProfile {
            stages: std::array::from_fn(|_| StageSlot::default()),
            candidates_before_cull: AtomicU64::new(0),
            candidates_after_cull: AtomicU64::new(0),
            guard_ticks: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Records one completed span of `stage`.
    #[inline]
    pub fn record(&self, stage: Stage, elapsed: Duration) {
        let slot = &self.stages[stage.idx()];
        slot.nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        slot.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds row counts flowing into / out of `stage`.
    #[inline]
    pub fn add_rows(&self, stage: Stage, rows_in: u64, rows_out: u64) {
        let slot = &self.stages[stage.idx()];
        slot.rows_in.fetch_add(rows_in, Ordering::Relaxed);
        slot.rows_out.fetch_add(rows_out, Ordering::Relaxed);
    }

    /// Accumulates candidate totals around a culling pass.
    pub fn add_candidates(&self, before: u64, after: u64) {
        self.candidates_before_cull
            .fetch_add(before, Ordering::Relaxed);
        self.candidates_after_cull
            .fetch_add(after, Ordering::Relaxed);
    }

    /// Accumulates cooperative guard checkpoints observed by kernels.
    pub fn add_guard_ticks(&self, n: u64) {
        self.guard_ticks.fetch_add(n, Ordering::Relaxed);
    }

    pub fn stage_nanos(&self, stage: Stage) -> u64 {
        self.stages[stage.idx()].nanos.load(Ordering::Relaxed)
    }

    pub fn stage_calls(&self, stage: Stage) -> u64 {
        self.stages[stage.idx()].calls.load(Ordering::Relaxed)
    }

    pub fn candidates_before_cull(&self) -> u64 {
        self.candidates_before_cull.load(Ordering::Relaxed)
    }

    pub fn candidates_after_cull(&self) -> u64 {
        self.candidates_after_cull.load(Ordering::Relaxed)
    }

    pub fn guard_ticks(&self) -> u64 {
        self.guard_ticks.load(Ordering::Relaxed)
    }

    /// Wall time since the profile was armed.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

/// Starts a span iff a profile is armed — `None` costs nothing, not even
/// the `Instant::now()`.
#[inline]
pub fn obs_start(obs: Option<&QueryProfile>) -> Option<Instant> {
    obs.map(|_| Instant::now())
}

/// Closes a span opened by [`obs_start`].
#[inline]
pub fn obs_record(obs: Option<&QueryProfile>, stage: Stage, start: Option<Instant>) {
    if let (Some(p), Some(t)) = (obs, start) {
        p.record(stage, t.elapsed());
    }
}

/// Closes a span and records the stage's row flow in one call.
#[inline]
pub fn obs_record_rows(
    obs: Option<&QueryProfile>,
    stage: Stage,
    start: Option<Instant>,
    rows_in: u64,
    rows_out: u64,
) {
    if let (Some(p), Some(t)) = (obs, start) {
        p.record(stage, t.elapsed());
        p.add_rows(stage, rows_in, rows_out);
    }
}

// ---------------------------------------------------------------------------
// ProfileReport
// ---------------------------------------------------------------------------

/// One rendered stage line of a [`ProfileReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageLine {
    pub stage: Stage,
    pub nanos: u64,
    pub calls: u64,
    pub rows_in: u64,
    pub rows_out: u64,
}

/// The sealed result of `profile <stmt>`: plan text plus measured
/// numbers. Rendered once (text + JSON) where the query ran, so remote
/// output is byte-identical to local output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// The profiled statement, pretty-printed.
    pub statement: String,
    /// The explain-style plan rendering.
    pub plan: String,
    /// Stages that actually ran, in [`Stage::ALL`] order.
    pub stages: Vec<StageLine>,
    pub total_nanos: u64,
    /// Result rows charged against the guard.
    pub rows: u64,
    /// Intermediate bytes charged against the guard (RSS proxy).
    pub bytes: u64,
    pub candidates_before_cull: u64,
    pub candidates_after_cull: u64,
    pub guard_ticks: u64,
}

impl ProfileReport {
    /// Seals `profile` into a report. Only stages with at least one
    /// recorded call appear, keeping the stage set stable per query shape.
    pub fn seal(
        statement: String,
        plan: String,
        profile: &QueryProfile,
        rows: u64,
        bytes: u64,
    ) -> ProfileReport {
        let stages = Stage::ALL
            .iter()
            .filter(|s| profile.stage_calls(**s) > 0)
            .map(|&stage| {
                let slot = &profile.stages[stage.idx()];
                StageLine {
                    stage,
                    nanos: slot.nanos.load(Ordering::Relaxed),
                    calls: slot.calls.load(Ordering::Relaxed),
                    rows_in: slot.rows_in.load(Ordering::Relaxed),
                    rows_out: slot.rows_out.load(Ordering::Relaxed),
                }
            })
            .collect();
        ProfileReport {
            statement,
            plan,
            stages,
            total_nanos: profile.elapsed().as_nanos() as u64,
            rows,
            bytes,
            candidates_before_cull: profile.candidates_before_cull(),
            candidates_after_cull: profile.candidates_after_cull(),
            guard_ticks: profile.guard_ticks(),
        }
    }

    /// Shell rendering: the plan, then one line per stage with measured
    /// wall time and row flow, then guard accounting and the total.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "profile {}", self.statement);
        for line in self.plan.lines() {
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(out, "stages:");
        for s in &self.stages {
            let _ = write!(
                out,
                "    {:<18} {:>10}  {:>3} call{}",
                s.stage.display(),
                format!("{:?}", Duration::from_nanos(s.nanos)),
                s.calls,
                if s.calls == 1 { " " } else { "s" },
            );
            if s.rows_in > 0 || s.rows_out > 0 {
                let _ = write!(out, "  {} -> {} rows", s.rows_in, s.rows_out);
            }
            let _ = writeln!(out);
        }
        if self.candidates_before_cull > 0 {
            let _ = writeln!(
                out,
                "candidates: {} before culling, {} after",
                self.candidates_before_cull, self.candidates_after_cull
            );
        }
        let _ = writeln!(
            out,
            "guard: {} checkpoints, {} rows, {} bytes charged",
            self.guard_ticks, self.rows, self.bytes
        );
        let _ = writeln!(out, "total: {:?}", Duration::from_nanos(self.total_nanos));
        out
    }

    /// Machine-readable JSON form (hand-rolled; the tree carries no JSON
    /// dependency). One object, stable key order.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"statement\":\"{}\",\"total_ns\":{},\"stages\":[",
            json_escape(&self.statement),
            self.total_nanos
        );
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":\"{}\",\"ns\":{},\"calls\":{},\"rows_in\":{},\"rows_out\":{}}}",
                s.stage.name(),
                s.nanos,
                s.calls,
                s.rows_in,
                s.rows_out
            );
        }
        let _ = write!(
            out,
            "],\"candidates\":{{\"before_cull\":{},\"after_cull\":{}}},\
             \"guard\":{{\"ticks\":{},\"rows\":{},\"bytes\":{}}}}}",
            self.candidates_before_cull,
            self.candidates_after_cull,
            self.guard_ticks,
            self.rows,
            self.bytes
        );
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// WalMetrics
// ---------------------------------------------------------------------------

/// Counters and histograms for the durable storage engine (`core::wal`).
///
/// Lives in `graql-types` so the registry can render it without the types
/// crate depending on core; the WAL holds an `Arc` to the same instance it
/// registers via [`MetricsRegistry::attach_wal`]. Everything is lock-free:
/// the commit thread records around every fsync and never contends with a
/// scrape.
#[derive(Debug, Default)]
pub struct WalMetrics {
    /// Records appended to the log (one per logged statement).
    pub records_appended: Counter,
    /// Group commits, i.e. fsync calls covering >= 1 record.
    pub group_commits: Counter,
    /// Largest batch (records per fsync) observed so far.
    max_batch_records: AtomicU64,
    /// fsync wall time per group commit.
    pub fsync_nanos: Histogram,
    /// Checkpoints folded into the snapshot.
    pub checkpoints: Counter,
    /// Checkpoint wall time (snapshot write + log truncate).
    pub checkpoint_nanos: Histogram,
    /// Records replayed from the log during recovery.
    pub replayed_records: Counter,
    /// Bytes of torn (uncommitted) tail discarded during recovery.
    pub torn_bytes_discarded: Counter,
}

impl WalMetrics {
    pub fn new() -> WalMetrics {
        WalMetrics::default()
    }

    /// Records one group commit of `batch` records.
    pub fn note_group_commit(&self, batch: u64, fsync_nanos: u64) {
        self.group_commits.inc();
        self.records_appended.add(batch);
        self.max_batch_records.fetch_max(batch, Ordering::Relaxed);
        self.fsync_nanos.observe(fsync_nanos);
    }

    pub fn max_batch_records(&self) -> u64 {
        self.max_batch_records.load(Ordering::Relaxed)
    }

    /// The `wal:` lines merged into the registry's `describe` section.
    pub fn render_describe(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "    wal: {} records, {} group commits, max batch {}",
            self.records_appended.get(),
            self.group_commits.get(),
            self.max_batch_records(),
        );
        let _ = writeln!(
            out,
            "    wal durability: {} fsyncs ({:?} total), {} checkpoints, {} replayed",
            self.fsync_nanos.count(),
            Duration::from_nanos(self.fsync_nanos.sum()),
            self.checkpoints.get(),
            self.replayed_records.get(),
        );
        out
    }

    /// The `graql_wal_*` families, in exposition order. Laid out by hand
    /// as a table: one entry per family.
    #[rustfmt::skip]
    const FAMILIES: &'static [Family<WalMetrics>] = &[
        Family { name: "graql_wal_records_appended_total",
                 help: "WAL records appended.",
                 source: Source::Counter(|w| w.records_appended.get()) },
        Family { name: "graql_wal_group_commits_total",
                 help: "Group commits (fsync batches).",
                 source: Source::Counter(|w| w.group_commits.get()) },
        Family { name: "graql_wal_max_batch_records",
                 help: "Largest records-per-fsync batch seen.",
                 source: Source::Gauge(|w| w.max_batch_records()) },
        Family { name: "graql_wal_fsync_duration_nanoseconds",
                 help: "fsync latency per group commit.",
                 source: Source::Histogram(|w| &w.fsync_nanos) },
        Family { name: "graql_wal_checkpoints_total",
                 help: "Checkpoints folded into the snapshot.",
                 source: Source::Counter(|w| w.checkpoints.get()) },
        Family { name: "graql_wal_checkpoint_duration_nanoseconds",
                 help: "Checkpoint wall time.",
                 source: Source::Histogram(|w| &w.checkpoint_nanos) },
        Family { name: "graql_wal_replayed_records_total",
                 help: "Records replayed during recovery.",
                 source: Source::Counter(|w| w.replayed_records.get()) },
        Family { name: "graql_wal_torn_bytes_discarded_total",
                 help: "Torn-tail bytes discarded during recovery.",
                 source: Source::Counter(|w| w.torn_bytes_discarded.get()) },
    ];
}

// ---------------------------------------------------------------------------
// PlanCacheMetrics
// ---------------------------------------------------------------------------

/// Counters for the compiled-plan cache (`graql_core::plancache`).
///
/// Lives in `graql-types` for the same reason [`WalMetrics`] does: the
/// registry renders it without depending on core. The cache holds an
/// `Arc` to the instance it registers via
/// [`MetricsRegistry::attach_plan_cache`]; lookups touch only relaxed
/// atomics, so a scrape never contends with the serve path.
#[derive(Debug, Default)]
pub struct PlanCacheMetrics {
    /// Lookups answered from the cache (decode/analyze/rewrite skipped).
    pub hits: Counter,
    /// Lookups that fell through to a cold compile.
    pub misses: Counter,
    /// Entries dropped: LRU capacity evictions, epoch-publish
    /// invalidations and promotion flushes all count here.
    pub evictions: Counter,
    /// Entries currently resident.
    entries: AtomicU64,
}

impl PlanCacheMetrics {
    pub fn new() -> PlanCacheMetrics {
        PlanCacheMetrics::default()
    }

    pub fn entries(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }

    pub fn set_entries(&self, n: u64) {
        self.entries.store(n, Ordering::Relaxed);
    }

    /// The `plan cache:` line merged into the registry's `describe`
    /// section.
    pub fn render_describe(&self) -> String {
        format!(
            "    plan cache: {} hits, {} misses, {} evictions, {} entries\n",
            self.hits.get(),
            self.misses.get(),
            self.evictions.get(),
            self.entries(),
        )
    }

    /// The `graql_plan_cache_*` families, in exposition order. Laid out by
    /// hand as a table: one entry per family.
    #[rustfmt::skip]
    const FAMILIES: &'static [Family<PlanCacheMetrics>] = &[
        Family { name: "graql_plan_cache_hits_total",
                 help: "Plan-cache lookups answered from the cache.",
                 source: Source::Counter(|pc| pc.hits.get()) },
        Family { name: "graql_plan_cache_misses_total",
                 help: "Plan-cache lookups that compiled cold.",
                 source: Source::Counter(|pc| pc.misses.get()) },
        Family { name: "graql_plan_cache_evictions_total",
                 help: "Plan-cache entries dropped (LRU, epoch invalidation, flush).",
                 source: Source::Counter(|pc| pc.evictions.get()) },
        Family { name: "graql_plan_cache_entries",
                 help: "Plan-cache entries currently resident.",
                 source: Source::Gauge(|pc| pc.entries()) },
    ];
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

/// How a query ended, for the outcome counters. Governance kills are
/// first-class outcomes (paper positioning: an operator must see kills,
/// not just errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    Ok,
    Error,
    Cancelled,
    Deadline,
    Budget,
    Shed,
}

impl QueryOutcome {
    /// Classifies a failed query by its typed error.
    pub fn from_error(e: &GraqlError) -> QueryOutcome {
        match e {
            GraqlError::Cancelled(_) => QueryOutcome::Cancelled,
            GraqlError::Deadline(_) => QueryOutcome::Deadline,
            GraqlError::Budget(_) => QueryOutcome::Budget,
            _ => QueryOutcome::Error,
        }
    }

    /// Stable label value for the Prometheus `outcome` label.
    pub fn name(self) -> &'static str {
        match self {
            QueryOutcome::Ok => "ok",
            QueryOutcome::Error => "error",
            QueryOutcome::Cancelled => "cancelled",
            QueryOutcome::Deadline => "deadline",
            QueryOutcome::Budget => "budget",
            QueryOutcome::Shed => "shed",
        }
    }

    const ALL: [QueryOutcome; 6] = [
        QueryOutcome::Ok,
        QueryOutcome::Error,
        QueryOutcome::Cancelled,
        QueryOutcome::Deadline,
        QueryOutcome::Budget,
        QueryOutcome::Shed,
    ];
}

/// Server-wide engine metrics: monotonic outcome counters, per-stage
/// latency histograms and stream volume. One registry per `Server`,
/// shared with the net layer; everything is lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    outcomes: [Counter; 6],
    /// Result rows streamed to clients / returned to callers.
    pub rows_streamed: Counter,
    /// Result bytes accounted by guards across all queries.
    pub bytes_streamed: Counter,
    /// Queries that ran with a profile armed.
    pub profiles_recorded: Counter,
    /// Queries that exceeded the slow-query threshold.
    pub slow_queries: Counter,
    stage_latency: [Histogram; N_STAGES],
    query_latency: Histogram,
    /// WAL metrics, attached once when the server opens a durable
    /// database. `None` for in-memory servers, which keeps their
    /// `describe` / Prometheus output byte-identical to before the
    /// storage engine existed.
    wal: OnceLock<Arc<WalMetrics>>,
    /// Plan-cache metrics, attached once by servers that run with a
    /// compiled-plan cache. `None` (embedded `Database` use) keeps the
    /// output free of plan-cache lines.
    plan_cache: OnceLock<Arc<PlanCacheMetrics>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Counts one finished query under its outcome.
    pub fn note_outcome(&self, outcome: QueryOutcome) {
        self.outcomes[outcome as usize].inc();
    }

    pub fn outcome(&self, outcome: QueryOutcome) -> u64 {
        self.outcomes[outcome as usize].get()
    }

    /// Total queries across all outcomes.
    pub fn queries_total(&self) -> u64 {
        QueryOutcome::ALL.iter().map(|&o| self.outcome(o)).sum()
    }

    /// Records one whole-query latency observation.
    pub fn observe_query_nanos(&self, nanos: u64) {
        self.query_latency.observe(nanos);
    }

    /// Folds a finished profile's stage timings into the stage
    /// histograms and volume counters.
    pub fn observe_profile(&self, profile: &QueryProfile) {
        self.profiles_recorded.inc();
        for stage in Stage::ALL {
            if profile.stage_calls(stage) > 0 {
                self.stage_latency[stage.idx()].observe(profile.stage_nanos(stage));
            }
        }
    }

    /// Same as [`MetricsRegistry::observe_profile`], from a sealed report
    /// (the `profile <stmt>` path, where the live profile is gone).
    pub fn observe_report(&self, report: &ProfileReport) {
        self.profiles_recorded.inc();
        for line in &report.stages {
            self.stage_latency[line.stage.idx()].observe(line.nanos);
        }
    }

    pub fn stage_latency(&self, stage: Stage) -> &Histogram {
        &self.stage_latency[stage.idx()]
    }

    /// Attaches the WAL's metrics so they render in `describe` and the
    /// Prometheus exposition. First attach wins; later calls are ignored
    /// (a server opens at most one durable database).
    pub fn attach_wal(&self, wal: Arc<WalMetrics>) {
        let _ = self.wal.set(wal);
    }

    /// The attached WAL metrics, if this server is durable.
    pub fn wal(&self) -> Option<&Arc<WalMetrics>> {
        self.wal.get()
    }

    /// Attaches the plan cache's metrics so they render in `describe` and
    /// the Prometheus exposition. First attach wins, like
    /// [`MetricsRegistry::attach_wal`].
    pub fn attach_plan_cache(&self, pc: Arc<PlanCacheMetrics>) {
        let _ = self.plan_cache.set(pc);
    }

    /// The attached plan-cache metrics, if a cache is registered.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCacheMetrics>> {
        self.plan_cache.get()
    }

    /// The `metrics:` section merged into `describe` output. The counter
    /// values here are the same atomics the Prometheus exposition reads,
    /// so the two always agree.
    pub fn render_describe(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "metrics:");
        let _ = write!(out, "    queries:");
        for (i, o) in QueryOutcome::ALL.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep} {} {}", o.name(), self.outcome(*o));
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "    streamed: {} rows, {} bytes",
            self.rows_streamed.get(),
            self.bytes_streamed.get()
        );
        let _ = writeln!(
            out,
            "    profiled: {} queries, {} slow",
            self.profiles_recorded.get(),
            self.slow_queries.get()
        );
        if let Some(pc) = self.plan_cache.get() {
            out.push_str(&pc.render_describe());
        }
        if let Some(wal) = self.wal.get() {
            out.push_str(&wal.render_describe());
        }
        out
    }

    /// The registry's own families, in exposition order. Laid out by hand
    /// as a table: one entry per family.
    #[rustfmt::skip]
    const FAMILIES: &'static [Family<MetricsRegistry>] = &[
        Family { name: "graql_queries_total",
                 help: "Queries finished, by outcome.",
                 source: Source::Counters("outcome", |m| {
                     QueryOutcome::ALL.iter().map(|&o| (o.name(), m.outcome(o))).collect()
                 }) },
        Family { name: "graql_rows_streamed_total",
                 help: "Result rows streamed to clients.",
                 source: Source::Counter(|m| m.rows_streamed.get()) },
        Family { name: "graql_bytes_streamed_total",
                 help: "Guard-accounted query bytes.",
                 source: Source::Counter(|m| m.bytes_streamed.get()) },
        Family { name: "graql_profiles_recorded_total",
                 help: "Queries run with a profile armed.",
                 source: Source::Counter(|m| m.profiles_recorded.get()) },
        Family { name: "graql_slow_queries_total",
                 help: "Queries over the slow-query threshold.",
                 source: Source::Counter(|m| m.slow_queries.get()) },
        Family { name: "graql_query_duration_nanoseconds",
                 help: "Whole-query latency.",
                 source: Source::Histogram(|m| &m.query_latency) },
        Family { name: "graql_stage_duration_nanoseconds",
                 help: "Per-stage query latency.",
                 source: Source::Histograms("stage", |m| {
                     Stage::ALL.iter().map(|&s| (s.name(), m.stage_latency(s))).collect()
                 }) },
    ];

    /// The registry's Prometheus exposition: its own families, then the
    /// plan-cache and WAL families when those sources are attached.
    pub fn exposition(&self) -> String {
        let mut out = String::new();
        write_exposition(&mut out, self, Self::FAMILIES);
        if let Some(pc) = self.plan_cache() {
            write_exposition(&mut out, &**pc, PlanCacheMetrics::FAMILIES);
        }
        if let Some(wal) = self.wal() {
            write_exposition(&mut out, &**wal, WalMetrics::FAMILIES);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotonic() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let h = Histogram::new();
        h.observe(500); // bucket 0 (<= 1024)
        h.observe(2048); // bucket 1
        h.observe(u64::MAX / 2); // overflow
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 500 + 2048 + u64::MAX / 2);
        let mut out = String::new();
        write_histogram(&mut out, "t", "", &h);
        assert!(out.contains("t_bucket{le=\"1024\"} 1"));
        assert!(out.contains("t_bucket{le=\"2048\"} 2"));
        assert!(out.contains("t_bucket{le=\"+Inf\"} 3"));
        assert!(out.contains("t_count 3"));
    }

    #[test]
    fn histogram_bucket_counts_are_cumulative() {
        let h = Histogram::new();
        h.observe(1); // first bucket; all later cumulative counts include it
        let mut out = String::new();
        write_histogram(&mut out, "t", "x=\"y\"", &h);
        assert!(out.contains("t_bucket{x=\"y\",le=\"1024\"} 1"));
        assert!(out.contains("t_bucket{x=\"y\",le=\"+Inf\"} 1"));
        assert!(out.contains("t_sum{x=\"y\"} 1"));
    }

    #[test]
    fn stage_names_are_stable() {
        // These strings are a public contract (JSON, Prometheus labels,
        // the observability tests): renaming one is a breaking change.
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "compile",
                "candidates",
                "culling",
                "enumeration_order",
                "enumerate",
                "project",
                "filter",
                "aggregate",
                "distinct",
                "sort",
                "top"
            ]
        );
    }

    #[test]
    fn profile_records_and_seals() {
        let p = QueryProfile::new();
        p.record(Stage::Cull, Duration::from_micros(10));
        p.record(Stage::Cull, Duration::from_micros(5));
        p.add_rows(Stage::Enumerate, 100, 40);
        p.record(Stage::Enumerate, Duration::from_micros(7));
        p.add_candidates(120, 30);
        p.add_guard_ticks(3);
        assert_eq!(p.stage_nanos(Stage::Cull), 15_000);
        assert_eq!(p.stage_calls(Stage::Cull), 2);
        let r = ProfileReport::seal("select ...".into(), "plan".into(), &p, 40, 1280);
        assert_eq!(r.stages.len(), 2, "only stages that ran appear");
        assert_eq!(r.stages[0].stage, Stage::Cull);
        assert_eq!(r.stages[1].rows_in, 100);
        assert_eq!(r.candidates_before_cull, 120);
        assert_eq!(r.guard_ticks, 3);
        let text = r.render();
        assert!(text.contains("culling"), "{text}");
        assert!(text.contains("candidates: 120 before culling, 30 after"));
        assert!(text.contains("guard: 3 checkpoints, 40 rows, 1280 bytes charged"));
        let json = r.to_json();
        assert!(json.contains("\"stage\":\"culling\",\"ns\":15000,\"calls\":2"));
        assert!(json.contains("\"candidates\":{\"before_cull\":120,\"after_cull\":30}"));
    }

    #[test]
    fn obs_helpers_are_noops_when_unarmed() {
        let start = obs_start(None);
        assert!(start.is_none());
        obs_record(None, Stage::Sort, start);
        obs_record_rows(None, Stage::Sort, start, 1, 1);
    }

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn registry_outcomes_and_exposition_agree() {
        let m = MetricsRegistry::new();
        m.note_outcome(QueryOutcome::Ok);
        m.note_outcome(QueryOutcome::Ok);
        m.note_outcome(QueryOutcome::Deadline);
        m.note_outcome(QueryOutcome::from_error(&GraqlError::budget("x")));
        m.rows_streamed.add(7);
        assert_eq!(m.queries_total(), 4);
        assert_eq!(m.outcome(QueryOutcome::Budget), 1);
        let text = m.exposition();
        assert!(text.contains("graql_queries_total{outcome=\"ok\"} 2"));
        assert!(text.contains("graql_queries_total{outcome=\"deadline\"} 1"));
        assert!(text.contains("graql_queries_total{outcome=\"budget\"} 1"));
        assert!(text.contains("graql_rows_streamed_total 7"));
        let desc = m.render_describe();
        assert!(desc.contains("queries: ok 2, error 0, cancelled 0, deadline 1, budget 1, shed 0"));
        assert!(desc.contains("streamed: 7 rows, 0 bytes"));
    }

    #[test]
    fn wal_metrics_attach_and_render() {
        let m = MetricsRegistry::new();
        // Unattached: no wal lines anywhere (in-memory servers unchanged).
        assert!(!m.exposition().contains("graql_wal_"));
        assert!(!m.render_describe().contains("wal:"));
        let w = Arc::new(WalMetrics::new());
        w.note_group_commit(3, 2_000);
        w.note_group_commit(1, 1_000);
        w.checkpoints.inc();
        w.replayed_records.add(5);
        m.attach_wal(Arc::clone(&w));
        assert_eq!(w.records_appended.get(), 4);
        assert_eq!(w.max_batch_records(), 3);
        let text = m.exposition();
        assert!(text.contains("graql_wal_records_appended_total 4"));
        assert!(text.contains("graql_wal_group_commits_total 2"));
        assert!(text.contains("graql_wal_max_batch_records 3"));
        assert!(text.contains("graql_wal_fsync_duration_nanoseconds_count 2"));
        assert!(text.contains("graql_wal_checkpoints_total 1"));
        assert!(text.contains("graql_wal_replayed_records_total 5"));
        let desc = m.render_describe();
        assert!(desc.contains("wal: 4 records, 2 group commits, max batch 3"));
        // Second attach is ignored.
        m.attach_wal(Arc::new(WalMetrics::new()));
        assert!(m
            .exposition()
            .contains("graql_wal_records_appended_total 4"));
    }

    #[test]
    fn registry_observes_profiles() {
        let m = MetricsRegistry::new();
        let p = QueryProfile::new();
        p.record(Stage::Sort, Duration::from_micros(3));
        m.observe_profile(&p);
        m.observe_query_nanos(5_000);
        assert_eq!(m.profiles_recorded.get(), 1);
        assert_eq!(m.stage_latency(Stage::Sort).count(), 1);
        let text = m.exposition();
        assert!(text.contains("graql_stage_duration_nanoseconds_bucket{stage=\"sort\""));
        assert!(text.contains("graql_query_duration_nanoseconds_count 1"));
    }
}
