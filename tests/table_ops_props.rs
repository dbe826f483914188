//! Property tests for the Table-1 kernels: random operation sequences
//! (filter / join / group / sort / distinct / top) over real BSBM data
//! must agree *exactly* — values and row order — with the testkit's
//! naive O(n²) reference implementations (`graql_testkit::naive`).
//!
//! The engine side is always the one entry point per operation that
//! `core::exec` runs (`ops::filter`, `ops::sort`, …), at a thread count
//! derived from the seed.
//!
//! Three layers:
//! - `parallel_filter_matches_naive` / `parallel_sort_matches_naive`: one
//!   deterministic table above the morsel scheduler's profitability
//!   floors, run at `threads` 1, 2 and 4, so the inline side and the
//!   fanned-out side of each parallel kernel are both compared.
//! - `committed_seeds_replay`: a pinned list of seeds that ran into
//!   interesting shapes in the past (null keys, empty intermediates,
//!   duplicate sort keys). These always run, on every machine, first.
//! - `random_op_sequences`: fresh seeded cases via proptest
//!   (`PROPTEST_CASES` scales the count; CI pins it).

use std::sync::OnceLock;

use graql::table::ops::{self, OpCtx, SortKey};
use graql::table::{PhysExpr, Table, TableSchema};
use graql::types::{CmpOp, DataType, Value};
use graql_testkit::{naive, TestRng};
use proptest::prelude::*;

/// Seeds kept from past runs that produced noteworthy intermediate
/// states (committed so every run replays them — the shim has no
/// shrinking, so the seed *is* the reproducer).
const COMMITTED_SEEDS: &[u64] = &[
    0x0000_0000_0000_002a, // empty filter result feeding group+sort
    0x0000_0000_0dec_0de5, // all-null aggregate column after filter
    0x0000_0000_bad5_eed5, // duplicate-heavy sort keys (stability check)
    0x0000_0001_2345_6789, // self-join on a float column
    0x0000_dead_beef_cafe, // distinct over the full column set
];

/// The BSBM tables the sequences draw from, built once.
fn corpus() -> &'static Vec<Table> {
    static CORPUS: OnceLock<Vec<Table>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let db = graql::bsbm::build_database(graql::bsbm::Scale::new(20)).unwrap();
        ["Offers", "Products", "Reviews", "Vendors"]
            .iter()
            .map(|t| db.table(t).unwrap().clone())
            .collect()
    })
}

/// A literal for comparisons against column `c`: usually a value drawn
/// from the column itself (selective), sometimes null.
fn draw_literal(rng: &mut TestRng, t: &Table, c: usize) -> Value {
    if t.n_rows() == 0 || rng.chance(10) {
        return Value::Null;
    }
    let r = rng.below(t.n_rows() as u64) as usize;
    t.get(r, c)
}

fn random_pred(rng: &mut TestRng, t: &Table) -> PhysExpr {
    let c = rng.below(t.n_cols() as u64) as usize;
    let op = *rng.pick(&[
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ]);
    PhysExpr::Cmp(
        op,
        Box::new(PhysExpr::Col(c)),
        Box::new(PhysExpr::Const(draw_literal(rng, t, c))),
    )
}

fn random_cols(rng: &mut TestRng, t: &Table, max: usize) -> Vec<usize> {
    let n = 1 + rng.below(max as u64) as usize;
    let mut cols: Vec<usize> = Vec::new();
    for _ in 0..n {
        let c = rng.below(t.n_cols() as u64) as usize;
        if !cols.contains(&c) {
            cols.push(c);
        }
    }
    cols
}

fn assert_same_rows(engine: &Table, reference: &Table, what: &str) {
    assert_eq!(engine.n_rows(), reference.n_rows(), "{what}: row count");
    for r in 0..engine.n_rows() {
        assert_eq!(engine.row(r), reference.row(r), "{what}: row {r}");
    }
}

/// Runs one random sequence of 1–4 operations from `seed`, checking the
/// engine kernel against the naive reference after every step.
fn run_case(seed: u64) {
    let mut rng = TestRng::new(seed);
    let mut t: Table = rng.pick(corpus()).clone();
    // Derived from the seed, not drawn: the committed seeds keep the
    // operation sequences their comments describe.
    let cx = at_threads([1, 2, 4][(seed % 3) as usize]);
    let steps = 1 + rng.below(4);
    for step in 0..steps {
        match rng.below(6) {
            0 => {
                let pred = random_pred(&mut rng, &t);
                let engine = ops::filter(&t, &pred, &every_column(&t), &cx).unwrap();
                let reference = t.gather(&naive::filter_indices(&t, &pred));
                assert_same_rows(
                    &engine,
                    &reference,
                    &format!("filter @ step {step} seed {seed:#x}"),
                );
                t = engine;
            }
            1 => {
                // Self-join on one column (same dtype on both sides by
                // construction). Bound the quadratic blowup.
                let c = rng.below(t.n_cols() as u64) as usize;
                let probe = ops::top_n(&t, 120, &cx);
                let engine = ops::hash_join_pairs(&probe, &[c], &probe, &[c]);
                let reference = naive::join_pairs(&probe, &[c], &probe, &[c]);
                assert_eq!(engine, reference, "join @ step {step} seed {seed:#x}");
            }
            2 => {
                let cols = random_cols(&mut rng, &t, 2);
                let engine = ops::group_indices(&t, &cols, &cx).unwrap();
                let reference = naive::group_indices(&t, &cols);
                assert_eq!(engine, reference, "group @ step {step} seed {seed:#x}");
            }
            3 => {
                let keys: Vec<SortKey> = random_cols(&mut rng, &t, 2)
                    .into_iter()
                    .map(|c| {
                        if rng.chance(50) {
                            SortKey::desc(c)
                        } else {
                            SortKey::asc(c)
                        }
                    })
                    .collect();
                let engine = ops::sort(&t, &keys, &cx).unwrap();
                let reference = t.gather(&naive::sort_indices(&t, &keys));
                assert_same_rows(
                    &engine,
                    &reference,
                    &format!("sort @ step {step} seed {seed:#x}"),
                );
                t = engine;
            }
            4 => {
                let cols = random_cols(&mut rng, &t, 3);
                let engine = ops::distinct_indices(&t, &cols, &cx).unwrap();
                let reference = naive::distinct_indices(&t, &cols);
                assert_eq!(engine, reference, "distinct @ step {step} seed {seed:#x}");
                t = t.gather(&engine);
            }
            _ => {
                let n = rng.below(40) as usize;
                let engine = ops::top_n(&t, n, &cx);
                assert_same_rows(
                    &engine,
                    &naive::top_n(&t, n),
                    &format!("top {n} @ step {step} seed {seed:#x}"),
                );
                t = engine;
            }
        }
    }
}

/// 10 240 rows: above `PAR_MIN_ITEMS` (4096, five filter morsels) and the
/// sort's 8192-row floor. `k` cycles so every sorted run interleaves with
/// every other in the merge and ties are frequent; `v` has nulls.
fn big_table() -> Table {
    let schema = TableSchema::of(&[("k", DataType::Integer), ("v", DataType::Integer)]);
    Table::from_rows(
        schema,
        (0..10_240i64).map(|i| {
            let v = if i % 11 == 0 {
                Value::Null
            } else {
                Value::Int((i * 7919) % 1009)
            };
            vec![Value::Int(i % 257), v]
        }),
    )
    .unwrap()
}

/// Every column of `t`, for a filter that gathers them all.
fn every_column(t: &Table) -> Vec<usize> {
    (0..t.n_cols()).collect()
}

fn at_threads(threads: usize) -> OpCtx<'static> {
    OpCtx {
        threads,
        ..OpCtx::default()
    }
}

#[test]
fn parallel_filter_matches_naive() {
    let t = big_table();
    let pred = PhysExpr::And(vec![
        PhysExpr::cmp_col_const(1, CmpOp::Lt, Value::Int(500)),
        PhysExpr::cmp_col_const(0, CmpOp::Ne, Value::Int(3)),
    ]);
    let reference = t.gather(&naive::filter_indices(&t, &pred));
    assert!(reference.n_rows() > 4096, "hits span several morsels");
    for threads in [1, 2, 4] {
        let engine = ops::filter(&t, &pred, &every_column(&t), &at_threads(threads)).unwrap();
        assert_same_rows(&engine, &reference, &format!("filter @ {threads} threads"));
    }
}

#[test]
fn parallel_sort_matches_naive() {
    let t = big_table();
    let keys = [SortKey::asc(0), SortKey::desc(1)];
    let reference = t.gather(&naive::sort_indices(&t, &keys));
    for threads in [1, 2, 4] {
        let engine = ops::sort(&t, &keys, &at_threads(threads)).unwrap();
        assert_same_rows(&engine, &reference, &format!("sort @ {threads} threads"));
    }
    // One key with many ties: stability is the row-index tie-break the
    // run merge relies on.
    let keys = [SortKey::desc(0)];
    let reference = t.gather(&naive::sort_indices(&t, &keys));
    for threads in [1, 2, 4] {
        let engine = ops::sort(&t, &keys, &at_threads(threads)).unwrap();
        assert_same_rows(
            &engine,
            &reference,
            &format!("tied sort @ {threads} threads"),
        );
    }
}

#[test]
fn committed_seeds_replay() {
    for &seed in COMMITTED_SEEDS {
        run_case(seed);
    }
}

proptest! {
    #[test]
    fn random_op_sequences(seed in 0u64..(1u64 << 48)) {
        run_case(seed);
    }
}
