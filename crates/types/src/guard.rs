//! Cooperative query governance: cancellation, deadlines and resource
//! budgets shared between the session layer and every execution kernel.
//!
//! A [`QueryGuard`] is created per request (by `Session::execute` or the
//! network server) and threaded by reference through the planner into the
//! exec kernels and table operators. Kernels call [`QueryGuard::check`] at
//! batch granularity — every [`TICK_INTERVAL`] loop iterations via a
//! [`Ticker`] — so an expired deadline, an explicit cancel or a blown
//! row/byte budget aborts the query within milliseconds as a typed
//! [`GraqlError`] and returns the worker thread to the pool.
//!
//! The guard is intentionally cheap: a relaxed atomic load on the hot
//! path, one `Instant::now()` per checkpoint only when a deadline is set.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::error::{GraqlError, Result};
use crate::failpoints::Faults;

/// Loop iterations between cooperative checkpoints. Power of two so the
/// [`Ticker`] test compiles to a mask.
pub const TICK_INTERVAL: u32 = 1024;

/// Resource limits for one query. `None` means unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryBudget {
    /// Wall-clock limit for the whole request.
    pub deadline: Option<Duration>,
    /// Cap on produced result rows (bindings, table rows) across the query.
    pub max_result_rows: Option<u64>,
    /// Cap on the query's accounted intermediate bytes — an RSS proxy
    /// charged by kernels as they materialize frontiers, rows and tables.
    pub max_query_bytes: Option<u64>,
}

impl QueryBudget {
    /// No limits at all — the guard compiles down to "never fires".
    pub const UNLIMITED: QueryBudget = QueryBudget {
        deadline: None,
        max_result_rows: None,
        max_query_bytes: None,
    };
}

/// Shared cancel flag + deadline + row/byte accounting for one query.
///
/// Cloneable only by reference (wrap in `Arc` to share with a canceller on
/// another thread). All counters are monotonic for the query's lifetime,
/// so `peak_bytes` doubles as the RSS-proxy high-water mark reported in
/// governance counters.
#[derive(Debug)]
pub struct QueryGuard {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    max_result_rows: Option<u64>,
    max_query_bytes: Option<u64>,
    rows: AtomicU64,
    bytes: AtomicU64,
    /// The fault handle of the server running the query, consulted by
    /// the execution sites the query reaches (`core/exec/batch`, the
    /// morsel scheduler).
    faults: Faults,
}

impl QueryGuard {
    /// A guard enforcing `budget`, with the deadline anchored at `now`
    /// and no faults armed.
    pub fn new(budget: QueryBudget) -> QueryGuard {
        QueryGuard::with_faults(budget, Faults::default())
    }

    /// [`QueryGuard::new`] for a query whose execution sites consult
    /// `faults` — the guard a server mints for its own requests.
    pub fn with_faults(budget: QueryBudget, faults: Faults) -> QueryGuard {
        QueryGuard {
            cancelled: AtomicBool::new(false),
            deadline: budget.deadline.map(|d| Instant::now() + d),
            max_result_rows: budget.max_result_rows,
            max_query_bytes: budget.max_query_bytes,
            rows: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            faults,
        }
    }

    /// The fault handle this query's execution sites consult.
    pub fn faults(&self) -> &Faults {
        &self.faults
    }

    /// The process-wide unlimited guard, for contexts with no governance
    /// (in-process library use, benches, the reference evaluator).
    pub fn unlimited() -> &'static QueryGuard {
        static UNLIMITED: OnceLock<QueryGuard> = OnceLock::new();
        UNLIMITED.get_or_init(|| QueryGuard::new(QueryBudget::UNLIMITED))
    }

    /// Requests cancellation; the running query observes it at its next
    /// checkpoint. Safe to call from any thread, any number of times.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// True once [`cancel`](Self::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// The cooperative checkpoint: errors if the query was cancelled or
    /// its deadline has passed. Kernels call this at batch granularity.
    #[inline]
    pub fn check(&self) -> Result<()> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(GraqlError::cancelled("query cancelled by client"));
        }
        if let Some(d) = self.deadline {
            if Instant::now() > d {
                return Err(GraqlError::deadline("query deadline exceeded"));
            }
        }
        Ok(())
    }

    /// Charges `n` produced rows against the row budget.
    #[inline]
    pub fn add_rows(&self, n: u64) -> Result<()> {
        let total = self.rows.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(cap) = self.max_result_rows {
            if total > cap {
                return Err(GraqlError::budget(format!(
                    "row budget exceeded: {total} rows produced, limit {cap}"
                )));
            }
        }
        Ok(())
    }

    /// Charges `n` bytes of materialized intermediate state against the
    /// byte budget (the RSS proxy).
    #[inline]
    pub fn add_bytes(&self, n: u64) -> Result<()> {
        let total = self.bytes.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(cap) = self.max_query_bytes {
            if total > cap {
                return Err(GraqlError::budget(format!(
                    "memory budget exceeded: {total} bytes accounted, limit {cap}"
                )));
            }
        }
        Ok(())
    }

    /// Rows charged so far.
    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Bytes charged so far (monotonic, so also the high-water mark).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// A per-loop ticker that calls [`check`](Self::check) every
    /// [`TICK_INTERVAL`] ticks.
    pub fn ticker(&self) -> Ticker<'_> {
        Ticker {
            guard: self,
            n: 0,
            checkpoints: 0,
        }
    }
}

/// Amortizes [`QueryGuard::check`] over tight loops: one relaxed counter
/// increment per iteration, a real checkpoint every [`TICK_INTERVAL`].
#[derive(Debug)]
pub struct Ticker<'g> {
    guard: &'g QueryGuard,
    n: u32,
    checkpoints: u64,
}

impl Ticker<'_> {
    #[inline]
    pub fn tick(&mut self) -> Result<()> {
        self.n = self.n.wrapping_add(1);
        if self.n & (TICK_INTERVAL - 1) == 0 {
            self.checkpoints += 1;
            self.guard.check()
        } else {
            Ok(())
        }
    }

    /// Real checkpoints this ticker has run (one per [`TICK_INTERVAL`]
    /// ticks), for the profiler's guard-tick accounting.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_guard_never_fires() {
        let g = QueryGuard::unlimited();
        g.check().unwrap();
        g.add_rows(u64::MAX / 4).unwrap();
        g.add_bytes(u64::MAX / 4).unwrap();
    }

    #[test]
    fn cancel_fires_at_next_check() {
        let g = QueryGuard::new(QueryBudget::UNLIMITED);
        g.check().unwrap();
        g.cancel();
        assert!(matches!(g.check(), Err(GraqlError::Cancelled(_))));
        assert!(g.is_cancelled());
    }

    #[test]
    fn expired_deadline_is_typed() {
        let g = QueryGuard::new(QueryBudget {
            deadline: Some(Duration::ZERO),
            ..QueryBudget::UNLIMITED
        });
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(g.check(), Err(GraqlError::Deadline(_))));
    }

    #[test]
    fn row_budget_counts_cumulatively() {
        let g = QueryGuard::new(QueryBudget {
            max_result_rows: Some(10),
            ..QueryBudget::UNLIMITED
        });
        g.add_rows(6).unwrap();
        g.add_rows(4).unwrap();
        let err = g.add_rows(1).unwrap_err();
        assert!(matches!(err, GraqlError::Budget(_)), "{err}");
        assert_eq!(g.rows(), 11);
    }

    #[test]
    fn byte_budget_reports_high_water_mark() {
        let g = QueryGuard::new(QueryBudget {
            max_query_bytes: Some(1000),
            ..QueryBudget::UNLIMITED
        });
        g.add_bytes(999).unwrap();
        assert!(matches!(g.add_bytes(2), Err(GraqlError::Budget(_))));
        assert_eq!(g.bytes(), 1001);
    }

    #[test]
    fn ticker_checks_at_interval_granularity() {
        let g = QueryGuard::new(QueryBudget::UNLIMITED);
        g.cancel();
        let mut t = g.ticker();
        let mut fired = None;
        for i in 0..(2 * TICK_INTERVAL) {
            if t.tick().is_err() {
                fired = Some(i);
                break;
            }
        }
        assert_eq!(fired, Some(TICK_INTERVAL - 1), "fires on the boundary");
    }

    #[test]
    fn guard_is_shareable_across_threads() {
        let g = std::sync::Arc::new(QueryGuard::new(QueryBudget::UNLIMITED));
        let g2 = g.clone();
        let h = std::thread::spawn(move || g2.cancel());
        h.join().unwrap();
        assert!(g.check().is_err());
    }
}
