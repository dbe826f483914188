//! The closed loop: each client keeps a fixed number of requests in flight
//! on one connection and submits the next only when the oldest replies —
//! how `gems-shell --connect`, `--loadgen` and a BI application call the
//! server. A slow server therefore receives less load, and latency is
//! timed from submit (client-side parse and IR encode included, as in
//! `RemoteSession::submit`) to the reply decoded by `wait`.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use graql_bsbm::Scale;
use graql_core::SessionOutput;
use graql_net::{ConnectOptions, RemoteSession};

use crate::gen::{chunk, Chunk, Class, Stream, Workload, CHUNK_ROWS, READS_PER_COMMIT};
use crate::rig::{digest_session, expect_ingest, Coverage, Expect, Result};

/// A run is cut into one slice per this much of its length; rates are
/// medians over the slices and the comparator takes a run's own spread
/// from them.
pub const WINDOW: Duration = Duration::from_secs(2);

/// One request of a client's stream.
pub struct Request {
    pub text: String,
    pub expect: Expect,
    /// The first request for this script from its source: its reply is
    /// checked in full, whatever its size.
    pub first: bool,
}

impl Request {
    /// Checks a reply against the reference: rendered whole when `full`
    /// or when this is the script's first reply, from a sample of a large
    /// table's rows otherwise. Returns the table rows the reply carried,
    /// whether it is the right answer, and how it was checked.
    pub fn check(&self, outputs: &[SessionOutput], full: bool) -> (u64, bool, Coverage) {
        let coverage = match full || self.first {
            true => Coverage::Full,
            false => Coverage::Sampled,
        };
        let got = digest_session(outputs, coverage);
        (got.rows, got == self.expect.of(coverage), coverage)
    }
}

/// Where a client's requests come from.
pub trait Source {
    fn next_request(&mut self) -> Result<Request>;
}

/// Reads: the workload's seeded draw over its script pool.
pub struct Reads<'a> {
    workload: &'a Workload,
    stream: Stream<'a>,
    reference: &'a [Expect],
    /// Scripts already drawn.
    drawn: Vec<bool>,
}

impl<'a> Reads<'a> {
    pub fn new(workload: &'a Workload, seed: u64, reference: &'a [Expect]) -> Reads<'a> {
        Reads {
            workload,
            stream: workload.stream(seed),
            reference,
            drawn: vec![false; workload.scripts.len()],
        }
    }

    /// The next read and which way the generator expects it to go.
    pub fn next_read(&mut self) -> (Request, Class) {
        let i = self.stream.next_index();
        let script = &self.workload.scripts[i];
        let first = !std::mem::replace(&mut self.drawn[i], true);
        let request = Request {
            text: script.text.clone(),
            expect: self.reference[i],
            first,
        };
        (request, script.class)
    }
}

impl Source for Reads<'_> {
    fn next_request(&mut self) -> Result<Request> {
        Ok(self.next_read().0)
    }
}

/// Writes: one `ingest` of the next chunk per request. The chunk's CSV
/// is written to the data dir before the request is timed.
pub struct Ingests<'a> {
    pub seed: u64,
    pub scale: Scale,
    pub data_dir: &'a Path,
    /// Index of the next chunk; counts every chunk handed out in the run.
    pub next_chunk: &'a mut u64,
}

impl Ingests<'_> {
    /// The next commit, with the chunk it ingests.
    pub fn next_chunk(&mut self) -> Result<(Request, Chunk)> {
        let c = chunk(self.seed, self.scale, *self.next_chunk);
        *self.next_chunk += 1;
        std::fs::write(self.data_dir.join(&c.file), &c.csv)?;
        let request = Request {
            text: format!("ingest table {} {}", c.table, c.file),
            expect: expect_ingest(c.table, CHUNK_ROWS),
            first: false,
        };
        Ok((request, c))
    }
}

impl Source for Ingests<'_> {
    fn next_request(&mut self) -> Result<Request> {
        Ok(self.next_chunk()?.0)
    }
}

/// One measured request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time since the measured interval began.
    pub done: Duration,
    pub latency: Duration,
    pub rows: u64,
    pub correct: bool,
    /// The reply held a large table and was checked from a sample of its
    /// rows (see [`Coverage`]).
    pub sampled: bool,
}

/// The measured interval of a run.
#[derive(Clone, Copy)]
struct Interval {
    from: Instant,
    to: Instant,
}

impl Interval {
    fn starting_after(warm: Duration, measure: Duration) -> Interval {
        let from = Instant::now() + warm;
        Interval {
            from,
            to: from + measure,
        }
    }

    fn open(&self) -> bool {
        Instant::now() < self.to
    }
}

// No retries: a shed or failed request must show as an error, not be
// absorbed by the client's backoff.
fn connect(addr: SocketAddr) -> Result<RemoteSession> {
    Ok(RemoteSession::connect(
        addr,
        ConnectOptions::new("admin").with_retries(0),
    )?)
}

/// A request on its way: its id (none if the submit itself failed), when
/// it was submitted, and what it must answer.
type InFlight = (Option<u64>, Instant, Request);

fn submit(session: &mut RemoteSession, request: Request) -> InFlight {
    let submitted = Instant::now();
    let id = session.submit(&request.text).ok();
    (id, submitted, request)
}

/// Waits for a request's reply and checks it (in full during the
/// warm-up). The sample is kept when the request was submitted inside
/// the measured interval; a request that fails, is shed or answers
/// wrongly is a sample with `correct == false`.
fn collect(
    session: &mut RemoteSession,
    (id, submitted, request): InFlight,
    interval: Interval,
    samples: &mut Vec<Sample>,
) {
    let reply = id.map(|id| session.wait(id));
    let latency = submitted.elapsed();
    let warm_up = submitted < interval.from;
    let (rows, correct, coverage) = match reply {
        Some(Ok(outputs)) => request.check(&outputs, warm_up),
        _ => (0, false, Coverage::Full),
    };
    if !warm_up {
        samples.push(Sample {
            done: (submitted + latency).duration_since(interval.from),
            latency,
            rows,
            correct,
            sampled: coverage == Coverage::Sampled && request.expect.large(),
        });
    }
}

/// Runs one closed-loop client with `in_flight` requests in flight:
/// `warm` of unrecorded traffic, then `measure` of recorded traffic, then
/// drains what is in flight.
pub fn run_client(
    addr: SocketAddr,
    source: &mut dyn Source,
    in_flight: usize,
    warm: Duration,
    measure: Duration,
) -> Result<Vec<Sample>> {
    let mut session = connect(addr)?;
    let interval = Interval::starting_after(warm, measure);
    let mut window: VecDeque<InFlight> = VecDeque::with_capacity(in_flight);
    let mut samples = Vec::new();
    loop {
        while interval.open() && window.len() < in_flight {
            window.push_back(submit(&mut session, source.next_request()?));
        }
        let Some(oldest) = window.pop_front() else {
            break;
        };
        collect(&mut session, oldest, interval, &mut samples);
    }
    Ok(samples)
}

/// Runs `ingest_mixed`'s client: one commit on the writer connection,
/// then [`READS_PER_COMMIT`] reads on the reader connection, one request
/// at a time, and again. Returns (read samples, commit samples).
///
/// Two free-running closed loops would be the obvious shape, and it does
/// not repeat. Every commit invalidates the graph views; the reader's
/// next request (which rebuilds them under the write lock) and the
/// writer's next commit reach that lock within half a millisecond of
/// each other, and which of them a run's timing favours decides whether
/// one commit pays for one rebuild or several do. The same build and
/// seed gave 40, 250 and 390 reads/s on three occasions, each steady
/// within its run. Pacing the writer by the reader's progress leaves the
/// reads that complete *during* a commit uncounted, and they decide
/// whether rebuilds are 0.8% or 2% of the reads — on either side of p99.
/// In turns, one read in [`READS_PER_COMMIT`] is a rebuild, whatever the
/// timing: `latency_p99_us` is the rebuild and `latency_p50_us` the
/// lookup.
pub fn run_in_turns(
    addr: SocketAddr,
    reads: &mut dyn Source,
    commits: &mut dyn Source,
    warm: Duration,
    measure: Duration,
) -> Result<(Vec<Sample>, Vec<Sample>)> {
    let mut reader = connect(addr)?;
    let mut writer = connect(addr)?;
    let interval = Interval::starting_after(warm, measure);
    let (mut read_samples, mut commit_samples) = (Vec::new(), Vec::new());
    while interval.open() {
        let commit = submit(&mut writer, commits.next_request()?);
        collect(&mut writer, commit, interval, &mut commit_samples);
        for _ in 0..READS_PER_COMMIT {
            if !interval.open() {
                break;
            }
            let read = submit(&mut reader, reads.next_request()?);
            collect(&mut reader, read, interval, &mut read_samples);
        }
    }
    Ok((read_samples, commit_samples))
}

/// Median and tail of a latency sample.
pub struct Percentiles {
    pub p50_us: f64,
    pub tail_us: f64,
    /// The percentile `tail_us` is: 99, or lower when fewer than ten
    /// samples lie beyond p99.
    pub tail_percentile: f64,
}

/// Median plus p99 — or, when the run leaves fewer than ten samples
/// beyond p99, the highest percentile that does have ten beyond it.
pub fn percentiles(latencies: &mut [Duration]) -> Percentiles {
    latencies.sort_unstable();
    let n = latencies.len();
    let us = |i: usize| {
        latencies
            .get(i)
            .map_or(0.0, |d| d.as_nanos() as f64 / 1000.0)
    };
    let p99 = (n as f64 * 0.99).ceil() as usize;
    let tail = p99.min(n.saturating_sub(10)).max(n / 2 + 1).min(n).max(1) - 1;
    Percentiles {
        p50_us: us(n / 2),
        tail_us: us(tail),
        tail_percentile: if n == 0 {
            0.0
        } else {
            100.0 * (tail + 1) as f64 / n as f64
        },
    }
}
