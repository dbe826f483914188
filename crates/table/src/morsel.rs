//! Morsel-driven parallel execution (ROADMAP item 1).
//!
//! [`run_morsels`] splits an index space `0..n_items` into fixed-size
//! *morsels* and lets a bounded pool of scoped worker threads claim them
//! off a shared atomic counter — dynamic self-scheduling, so a fast
//! worker steals the morsels a slow one never reaches. Each morsel
//! produces an independent partial result; the merge step reassembles
//! them **by morsel index**, never by completion order, so the
//! concatenated output is byte-identical to a serial left-to-right
//! evaluation regardless of thread count or interleaving.
//!
//! The determinism contract the kernels build on:
//!
//! - partial results are slotted by morsel index; callers that need
//!   serial order concatenate slots in order (order-sensitive kernels),
//!   or fold them with a commutative merge (set-valued kernels);
//! - all workers share the query's [`QueryGuard`], whose row/byte
//!   accounting is atomic, so budgets trip at the same totals as serial
//!   execution and cancellation/deadline kills stop every worker at its
//!   next morsel claim;
//! - a worker error aborts the dispatch (unclaimed morsels are dropped)
//!   and the error from the **lowest** morsel index surfaces, once —
//!   the same error a serial scan would have hit first;
//! - a panicking worker poisons the query, not the server: the panic is
//!   caught at the morsel boundary and surfaces as a typed
//!   [`GraqlError`].
//!
//! Failpoint sites `core/exec/morsel-dispatch` (per morsel claim, so it
//! fires from real worker threads) and `core/exec/morsel-merge` (on the
//! caller thread before reassembly) make both halves fault-testable;
//! both consult the query guard's fault handle.
//!
//! The scheduler lives in this crate, below both of its users: the
//! Table-1 kernels in [`crate::ops`] and the graph kernels in
//! `graql_core::exec` run their morsels through this one function.

use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use graql_types::{GraqlError, QueryGuard, Result};

/// Rows per morsel for scan-shaped kernels.
pub const MORSEL_ROWS: usize = 2048;

/// Inputs below this many items always run inline: dispatch cost
/// outweighs any win on a scan this small.
pub const PAR_MIN_ITEMS: usize = 4096;

/// Number of workers a scan over `n_items` should use: `1` (inline)
/// below the kernel's profitability floor, the configured thread count
/// otherwise.
pub fn scan_workers(threads: usize, n_items: usize, min_items: usize) -> usize {
    if n_items < min_items {
        1
    } else {
        threads.max(1)
    }
}

/// Concatenates per-morsel output vectors in morsel order — the
/// order-restoring merge for kernels whose serial form appends
/// left-to-right.
pub fn concat<T>(parts: Vec<Vec<T>>) -> Vec<T> {
    let total = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for p in parts {
        out.extend(p);
    }
    out
}

/// Runs `task` once per morsel of `0..n_items` on up to `threads`
/// workers and returns the per-morsel results **in morsel order**.
///
/// `task(morsel_index, item_range)` must be pure with respect to claim
/// order (it may share atomics, e.g. guard accounting). With one worker
/// (or one morsel) everything runs inline on the caller thread with no
/// spawn — that is the `threads = 1` serial path.
pub fn run_morsels<T, F>(
    guard: &QueryGuard,
    n_items: usize,
    morsel_size: usize,
    threads: usize,
    task: F,
) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> Result<T> + Sync,
{
    let morsel_size = morsel_size.max(1);
    let n_morsels = n_items.div_ceil(morsel_size);
    let workers = threads.clamp(1, n_morsels.max(1));
    let bounds = |m: usize| m * morsel_size..((m + 1) * morsel_size).min(n_items);

    let mut slots: Vec<Option<T>> = (0..n_morsels).map(|_| None).collect();
    if workers <= 1 {
        for (m, slot) in slots.iter_mut().enumerate() {
            *slot = Some(claim(guard, m, bounds(m), &task)?);
        }
    } else {
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let failure: Mutex<Option<(usize, GraqlError)>> = Mutex::new(None);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut local: Vec<(usize, T)> = Vec::new();
                        loop {
                            if abort.load(Ordering::Relaxed) {
                                break;
                            }
                            let m = next.fetch_add(1, Ordering::Relaxed);
                            if m >= n_morsels {
                                break;
                            }
                            let run = panic::catch_unwind(AssertUnwindSafe(|| {
                                claim(guard, m, bounds(m), &task)
                            }));
                            match run {
                                Ok(Ok(t)) => local.push((m, t)),
                                Ok(Err(e)) => {
                                    record_failure(&failure, &abort, m, e);
                                    break;
                                }
                                Err(_) => {
                                    record_failure(
                                        &failure,
                                        &abort,
                                        m,
                                        GraqlError::exec(
                                            "internal: a parallel worker panicked; \
                                             the query was aborted",
                                        ),
                                    );
                                    break;
                                }
                            }
                        }
                        local
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(local) => {
                        for (m, t) in local {
                            slots[m] = Some(t);
                        }
                    }
                    Err(_) => record_failure(
                        &failure,
                        &abort,
                        usize::MAX,
                        GraqlError::exec("internal: a parallel worker died; the query was aborted"),
                    ),
                }
            }
        });
        if let Some((_, e)) = failure.into_inner().expect("failure slot lock") {
            return Err(e);
        }
    }

    graql_types::failpoint!(guard.faults(), "core/exec/morsel-merge", GraqlError::exec);
    let mut out = Vec::with_capacity(n_morsels);
    for (m, slot) in slots.into_iter().enumerate() {
        out.push(slot.ok_or_else(|| GraqlError::exec(format!("internal: morsel {m} was lost")))?);
    }
    Ok(out)
}

/// One morsel: governance check, failpoint, then the kernel body. Shared
/// by the inline and threaded paths so faults and guard cadence are
/// identical in both.
fn claim<T, F>(guard: &QueryGuard, m: usize, range: Range<usize>, task: &F) -> Result<T>
where
    F: Fn(usize, Range<usize>) -> Result<T>,
{
    graql_types::failpoint!(
        guard.faults(),
        "core/exec/morsel-dispatch",
        GraqlError::exec
    );
    guard.check()?;
    task(m, range)
}

/// Records a worker failure, keeping the error from the lowest morsel
/// index (what a serial scan would have hit first), and tells the other
/// workers to stop claiming.
fn record_failure(
    failure: &Mutex<Option<(usize, GraqlError)>>,
    abort: &AtomicBool,
    m: usize,
    e: GraqlError,
) {
    abort.store(true, Ordering::Relaxed);
    let mut slot = failure.lock().expect("failure slot lock");
    if slot.as_ref().is_none_or(|(prev, _)| m < *prev) {
        *slot = Some((m, e));
    }
}
