//! Compiled-plan cache for the serve path (ROADMAP item 4).
//!
//! Every remote request pays the front half of the pipeline — IR decode
//! and static analysis — even when the same query text arrives thousands
//! of times per second against an unchanged database. This cache
//! memoizes the analysis: a hit means the script's statements were
//! already validated against this epoch, so they go straight to the
//! executor via [`crate::Database::execute_select_observed`].
//!
//! ## Keying and MVCC correctness
//!
//! The key is `(epoch_seq, normalized query text)`:
//!
//! * **normalized text** is the script's canonical [`std::fmt::Display`]
//!   rendering, so `select a from table T` and `SELECT  a FROM table T`
//!   share an entry once parsed;
//! * **epoch_seq** is the publish sequence number stamped *inside* each
//!   [`crate::Database`] epoch by the server's install path. Readers key
//!   lookups by the epoch they actually pinned, so a cached plan can
//!   never be replayed against a catalog it was not validated on — a
//!   concurrent DDL publishes a new epoch with a new sequence and the
//!   old entries simply stop matching.
//!
//! Invalidation is belt-and-braces on top of the keying: every epoch
//! publish drops entries from older epochs (they can only be reached by
//! already-in-flight readers, which at worst re-insert and are then
//! reclaimed by LRU), and replica promotion clears the cache outright.
//!
//! Only read-only scripts (selects without `into`, profiles) are cached:
//! writes publish a new epoch anyway, so their plans are dead on arrival.
//!
//! Eviction is least-recently-used by a monotonic touch tick. Capacity 0
//! disables the cache entirely (the `--plan-cache 0` escape hatch).

use std::sync::Arc;

use graql_parser::ast::Stmt;
use graql_types::PlanCacheMetrics;
use parking_lot::Mutex;
use rustc_hash::FxHashMap;

/// Default number of cached plans (`gems-serve --plan-cache` overrides).
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 1024;

#[derive(Debug)]
struct Entry {
    /// The script's statements, as written, validated by analysis.
    stmts: Arc<Vec<Stmt>>,
    /// Monotonic touch tick for LRU eviction.
    last_used: u64,
}

#[derive(Debug)]
struct Inner {
    map: FxHashMap<(u64, String), Entry>,
    capacity: usize,
    tick: u64,
}

/// The plan cache. Shared by every session of a server; all operations
/// take one short mutex hold (the map stores `Arc`s, so hits clone a
/// pointer, never a plan).
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<Inner>,
    metrics: Arc<PlanCacheMetrics>,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl PlanCache {
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            inner: Mutex::new(Inner {
                map: FxHashMap::default(),
                capacity,
                tick: 0,
            }),
            metrics: Arc::new(PlanCacheMetrics::new()),
        }
    }

    /// The hit/miss/eviction counters (attached to the server's
    /// [`graql_types::MetricsRegistry`] so `describe` and Prometheus see
    /// the same atomics).
    pub fn metrics(&self) -> &Arc<PlanCacheMetrics> {
        &self.metrics
    }

    /// False when capacity is 0 — callers then skip normalization
    /// entirely, so a disabled cache costs nothing.
    pub fn enabled(&self) -> bool {
        self.inner.lock().capacity > 0
    }

    /// Resizes the cache, evicting LRU entries if shrinking. Capacity 0
    /// disables it and drops everything.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.inner.lock();
        inner.capacity = capacity;
        while inner.map.len() > capacity {
            evict_lru(&mut inner);
            self.metrics.evictions.inc();
        }
        self.metrics.set_entries(inner.map.len() as u64);
    }

    /// Looks up the plan for `text` compiled against epoch `epoch_seq`.
    /// Counts a hit or a miss.
    pub fn lookup(&self, epoch_seq: u64, text: &str) -> Option<Arc<Vec<Stmt>>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        // Borrow dance: the key is only materialized on the miss path.
        match inner.map.get_mut(&(epoch_seq, text.to_string())) {
            Some(entry) => {
                entry.last_used = tick;
                let stmts = Arc::clone(&entry.stmts);
                drop(inner);
                self.metrics.hits.inc();
                Some(stmts)
            }
            None => {
                drop(inner);
                self.metrics.misses.inc();
                None
            }
        }
    }

    /// Inserts a compiled plan, evicting the least-recently-used entry
    /// when full. No-op when disabled.
    pub fn insert(&self, epoch_seq: u64, text: String, stmts: Arc<Vec<Stmt>>) {
        let mut inner = self.inner.lock();
        if inner.capacity == 0 {
            return;
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            (epoch_seq, text),
            Entry {
                stmts,
                last_used: tick,
            },
        );
        while inner.map.len() > inner.capacity {
            evict_lru(&mut inner);
            self.metrics.evictions.inc();
        }
        self.metrics.set_entries(inner.map.len() as u64);
    }

    /// Drops every entry compiled against an epoch older than `seq` —
    /// called on each epoch publish, so DDL/ingest (and even the
    /// graph-build publishes of the read path) retire stale plans
    /// promptly instead of leaving them to LRU.
    pub fn invalidate_epochs_before(&self, seq: u64) {
        let mut inner = self.inner.lock();
        let before = inner.map.len();
        inner.map.retain(|(e, _), _| *e >= seq);
        let dropped = before - inner.map.len();
        if dropped > 0 {
            self.metrics.evictions.add(dropped as u64);
        }
        self.metrics.set_entries(inner.map.len() as u64);
    }

    /// Drops everything (replica promotion, tests).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        let dropped = inner.map.len();
        inner.map.clear();
        self.metrics.evictions.add(dropped as u64);
        self.metrics.set_entries(0);
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn evict_lru(inner: &mut Inner) {
    let victim = inner
        .map
        .iter()
        .min_by_key(|(_, e)| e.last_used)
        .map(|(k, _)| k.clone());
    if let Some(k) = victim {
        inner.map.remove(&k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stmts(text: &str) -> Arc<Vec<Stmt>> {
        Arc::new(graql_parser::parse(text).unwrap().statements)
    }

    #[test]
    fn hit_miss_and_entry_accounting() {
        let c = PlanCache::new(8);
        assert!(c.lookup(1, "select a from table T").is_none());
        c.insert(
            1,
            "select a from table T".into(),
            stmts("select a from table T"),
        );
        assert!(c.lookup(1, "select a from table T").is_some());
        // Same text, different epoch: distinct entry.
        assert!(c.lookup(2, "select a from table T").is_none());
        assert_eq!(c.metrics().hits.get(), 1);
        assert_eq!(c.metrics().misses.get(), 2);
        assert_eq!(c.metrics().entries(), 1);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let c = PlanCache::new(2);
        c.insert(1, "a".into(), stmts("select a from table T"));
        c.insert(1, "b".into(), stmts("select a from table T"));
        c.lookup(1, "a"); // touch "a" so "b" is the LRU victim
        c.insert(1, "c".into(), stmts("select a from table T"));
        assert_eq!(c.len(), 2);
        assert!(c.lookup(1, "a").is_some());
        assert!(c.lookup(1, "b").is_none(), "LRU victim evicted");
        assert!(c.lookup(1, "c").is_some());
        assert_eq!(c.metrics().evictions.get(), 1);
    }

    #[test]
    fn epoch_invalidation_and_clear() {
        let c = PlanCache::new(8);
        c.insert(1, "a".into(), stmts("select a from table T"));
        c.insert(2, "a".into(), stmts("select a from table T"));
        c.invalidate_epochs_before(2);
        assert_eq!(c.len(), 1);
        assert!(c.lookup(1, "a").is_none());
        assert!(c.lookup(2, "a").is_some());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.metrics().entries(), 0);
    }

    #[test]
    fn capacity_zero_disables() {
        let c = PlanCache::new(0);
        assert!(!c.enabled());
        c.insert(1, "a".into(), stmts("select a from table T"));
        assert!(c.is_empty());
        // And shrinking to zero drops live entries.
        let c = PlanCache::new(4);
        c.insert(1, "a".into(), stmts("select a from table T"));
        c.set_capacity(0);
        assert!(c.is_empty());
    }
}
