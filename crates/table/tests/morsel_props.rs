//! Morsel scheduler laws (DESIGN.md §4.8): under arbitrary morsel sizes,
//! worker counts and steal interleavings, [`morsel::run_morsels`] must
//!
//! - complete with every item claimed **exactly once**,
//! - reassemble partial results in deterministic (serial) order,
//! - surface the error a serial scan would have hit first, once,
//! - turn a panicking worker into a typed error (poison the query, not
//!   the process), and
//! - stop promptly when the shared guard is cancelled.
//!
//! With `--features failpoints` the `core/exec/morsel-dispatch` site is
//! additionally armed with seeded probabilistic delays, which perturbs
//! the claim interleaving far beyond what an unloaded scheduler produces
//! — the answers must not move.

use std::sync::atomic::{AtomicU32, Ordering};

use graql_table::morsel;
use graql_types::{GraqlError, QueryBudget, QueryGuard};
use proptest::prelude::*;

/// Runs the scheduler over `0..n_items` under `guard`, returning the
/// item sequence in merge order and asserting each item was claimed
/// exactly once.
fn run_and_flatten(
    guard: &QueryGuard,
    n_items: usize,
    morsel_size: usize,
    threads: usize,
) -> graql_types::Result<Vec<usize>> {
    let claims: Vec<AtomicU32> = (0..n_items).map(|_| AtomicU32::new(0)).collect();
    let parts = morsel::run_morsels(guard, n_items, morsel_size, threads, |_, range| {
        for i in range.clone() {
            claims[i].fetch_add(1, Ordering::Relaxed);
        }
        Ok(range.collect::<Vec<usize>>())
    })?;
    for (i, c) in claims.iter().enumerate() {
        assert_eq!(c.load(Ordering::Relaxed), 1, "item {i} claimed != once");
    }
    Ok(morsel::concat(parts))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Completion, exactly-once claims, and deterministic merged order:
    /// any (size, threads) combination yields exactly `0..n` in order —
    /// the serial answer.
    #[test]
    fn no_lost_or_duplicated_morsels(
        n_items in 0usize..5000,
        morsel_size in 1usize..600,
        threads in 1usize..9,
    ) {
        let got = run_and_flatten(QueryGuard::unlimited(), n_items, morsel_size, threads).unwrap();
        let want: Vec<usize> = (0..n_items).collect();
        prop_assert_eq!(got, want);
    }

    /// The parallel merge equals the serial (`threads = 1`) run for the
    /// same inputs — byte-identity at the scheduler level.
    #[test]
    fn parallel_equals_serial(
        n_items in 0usize..3000,
        morsel_size in 1usize..400,
        threads in 2usize..9,
    ) {
        let unlimited = QueryGuard::unlimited();
        let serial = run_and_flatten(unlimited, n_items, morsel_size, 1).unwrap();
        let parallel = run_and_flatten(unlimited, n_items, morsel_size, threads).unwrap();
        prop_assert_eq!(serial, parallel);
    }

    /// A failing morsel aborts the run with the error a serial
    /// left-to-right scan would have hit first: the **lowest** failing
    /// morsel index, regardless of which worker errored first. (Morsels
    /// are claimed off a monotone counter, so the lowest failing index is
    /// always claimed before any higher one.)
    #[test]
    fn lowest_failing_morsel_wins(
        n_items in 1usize..2000,
        morsel_size in 1usize..300,
        threads in 1usize..9,
        stride in 2usize..7,
        offset in 0usize..7,
    ) {
        let n_morsels = n_items.div_ceil(morsel_size);
        let fails = |m: usize| m % stride == offset % stride;
        let res = morsel::run_morsels(
            QueryGuard::unlimited(),
            n_items,
            morsel_size,
            threads,
            |m, range| {
                if fails(m) {
                    Err(GraqlError::exec(format!("boom at morsel {m}")))
                } else {
                    Ok(range.len())
                }
            },
        );
        match (0..n_morsels).find(|&m| fails(m)) {
            Some(first) => {
                let err = res.unwrap_err().to_string();
                prop_assert!(
                    err.contains(&format!("boom at morsel {first}")),
                    "expected the serial-first error (morsel {first}), got: {err}"
                );
            }
            None => prop_assert!(res.is_ok()),
        }
    }

    /// A panicking worker must poison the query — a typed error, raised
    /// once — and never unwind across the scheduler or kill the process.
    #[test]
    fn worker_panic_poisons_query_not_process(
        n_items in 2usize..2000,
        morsel_size in 1usize..300,
        threads in 2usize..9,
        victim_pick in 0usize..1000,
    ) {
        let n_morsels = n_items.div_ceil(morsel_size);
        // The panic path is only caught on spawned workers; guarantee
        // at least two morsels so a pool actually forms.
        prop_assume!(n_morsels >= 2);
        let victim = victim_pick % n_morsels;
        let res = morsel::run_morsels(
            QueryGuard::unlimited(),
            n_items,
            morsel_size,
            threads,
            |m, range| {
                if m == victim {
                    panic!("injected worker panic");
                }
                Ok(range.len())
            },
        );
        let err = res.unwrap_err().to_string();
        prop_assert!(
            err.contains("parallel worker panicked"),
            "expected the typed panic error, got: {err}"
        );
    }

    /// A cancelled guard stops the dispatch at the next morsel claim on
    /// every worker: the run fails with the cancellation error and no
    /// morsel past the first claim round completes.
    #[test]
    fn cancelled_guard_stops_all_workers(
        n_items in 1usize..2000,
        morsel_size in 1usize..300,
        threads in 1usize..9,
    ) {
        let guard = QueryGuard::new(QueryBudget::UNLIMITED);
        guard.cancel();
        let res = morsel::run_morsels(&guard, n_items, morsel_size, threads, |_, range| {
            Ok(range.len())
        });
        let err = res.unwrap_err().to_string();
        prop_assert!(err.contains("cancelled"), "expected cancellation, got: {err}");
    }
}

/// Seeded steal-interleaving chaos: probabilistic per-claim delays on the
/// `core/exec/morsel-dispatch` failpoint shuffle which worker claims which
/// morsel, and the merged output must not move. Only compiled with
/// `--features failpoints` (the site is a no-op otherwise). Each run arms
/// its own guard's fault handle, so nothing is shared between tests.
#[cfg(feature = "failpoints")]
mod interleavings {
    use super::*;
    use graql_types::failpoints::Faults;

    const SITE: &str = "core/exec/morsel-dispatch";

    /// A guard whose dispatch site delays 40% of claims, seeded.
    fn delaying_guard(seed: u64) -> QueryGuard {
        let faults = Faults::default();
        faults.arm(SITE, "40%delay(2)", seed).unwrap();
        QueryGuard::with_faults(QueryBudget::UNLIMITED, faults)
    }

    #[test]
    fn delayed_dispatch_keeps_order_deterministic() {
        for seed in [1u64, 2, 3, 4] {
            let guard = delaying_guard(seed);
            let got = run_and_flatten(&guard, 4000, 97, 8).unwrap();
            let want: Vec<usize> = (0..4000).collect();
            assert_eq!(got, want, "seed {seed} perturbed the merged order");
            assert!(
                guard.faults().fired_count(SITE) >= 1,
                "seed {seed}: no delay fired"
            );
        }
    }

    #[test]
    fn delayed_dispatch_keeps_first_error_deterministic() {
        // The first error aborts the dispatch after a handful of claims,
        // so any one seed may roll no delay; the seeds together must.
        let mut fired = 0;
        for seed in [5u64, 6, 7] {
            let guard = delaying_guard(seed);
            let res = morsel::run_morsels(&guard, 3000, 101, 8, |m, range| {
                if m % 3 == 1 {
                    Err(GraqlError::exec(format!("boom at morsel {m}")))
                } else {
                    Ok(range.len())
                }
            });
            let err = res.unwrap_err().to_string();
            assert!(
                err.contains("boom at morsel 1"),
                "seed {seed}: expected morsel 1's error, got: {err}"
            );
            fired += guard.faults().fired_count(SITE);
        }
        assert!(fired >= 1, "no delay fired under any seed");
    }
}
