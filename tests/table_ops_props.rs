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
//! - `adversarial_keys_match_naive`: small tables whose key values sit
//!   where a fixed-width key encoding could go wrong (`i64::MIN`/`MAX`
//!   under wrapping sums, `0.0` against `-0.0`, two NaN payloads, ±∞,
//!   nulls in every column, and a string column assembled by
//!   `Table::append_batch` from batches that send one dictionary entry
//!   twice), through group, every aggregate, distinct, sort, and sort
//!   then top both as two kernels and as `ops::sort_top`, at threads 1
//!   and 2.

use std::sync::OnceLock;

use graql::table::ops::{self, AggFn, AggSpec, OpCtx, SortKey};
use graql::table::{BatchColumn, BitSet, ColumnBatch, PhysExpr, Table, TableSchema};
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

    #[test]
    fn adversarial_keys_match_naive(seed in 0u64..(1u64 << 48)) {
        adversarial_case(seed);
    }
}

/// Floats whose bits differ where their values look alike: signed zeros,
/// two quiet-NaN payloads, the infinities.
const FLOATS: [f64; 8] = [
    0.0,
    -0.0,
    f64::from_bits(0x7ff8_0000_0000_0001),
    f64::from_bits(0x7ff8_0000_0000_0002),
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.5,
    1e-300,
];
const INTS: [i64; 6] = [i64::MIN, i64::MAX, -1, 0, 1, 7];
const DATES: [i32; 4] = [-1, 0, 1, 2];
/// Dictionary entries a batch may send, again or for the first time.
const STRINGS: [&str; 4] = ["", "a", "b", "ab"];

/// One batch of `n` rows over `(i integer, f float, d date, s varchar)`,
/// about one cell in six null. Its dictionary page draws from `STRINGS`
/// without regard to what earlier batches sent, so an entry may arrive
/// twice (under two codes). `dict_len` is the stream dictionary's length
/// before the batch, and grows by the page.
fn adversarial_batch(rng: &mut TestRng, n: usize, dict_len: &mut u32) -> ColumnBatch {
    let mut nulls = || BitSet::from_indices(n, (0..n).filter(|_| rng.chance(16)));
    let (ni, nf, nd, ns) = (nulls(), nulls(), nulls(), nulls());
    let (mut page, mut ends) = (String::new(), Vec::new());
    for _ in 0..1 + rng.below(3) {
        let entry: &&str = rng.pick(&STRINGS);
        page.push_str(entry);
        ends.push(page.len() as u32);
    }
    *dict_len += ends.len() as u32;
    let mut cell = |nulls: &BitSet, r: usize, draw: &mut dyn FnMut(&mut TestRng) -> u64| {
        if nulls.contains(r) {
            0
        } else {
            draw(rng)
        }
    };
    let ints: Vec<i64> = (0..n)
        .map(|r| cell(&ni, r, &mut |g| *g.pick(&INTS) as u64) as i64)
        .collect();
    let floats: Vec<f64> = (0..n)
        .map(|r| f64::from_bits(cell(&nf, r, &mut |g| g.pick(&FLOATS).to_bits())))
        .collect();
    let dates: Vec<i32> = (0..n)
        .map(|r| cell(&nd, r, &mut |g| *g.pick(&DATES) as u32 as u64) as u32 as i32)
        .collect();
    let len = u64::from(*dict_len);
    let codes: Vec<u32> = (0..n)
        .map(|r| cell(&ns, r, &mut |g| g.below(len)) as u32)
        .collect();
    ColumnBatch {
        n_rows: n,
        columns: vec![
            BatchColumn::Int {
                data: ints,
                nulls: ni,
            },
            BatchColumn::Float {
                data: floats,
                nulls: nf,
            },
            BatchColumn::Date {
                data: dates,
                nulls: nd,
            },
            BatchColumn::Str {
                page,
                ends,
                codes,
                nulls: ns,
            },
        ],
    }
}

/// A table of 0–3 adversarial batches, as a client assembles a reply.
fn adversarial_table(rng: &mut TestRng) -> Table {
    let schema = TableSchema::of(&[
        ("i", DataType::Integer),
        ("f", DataType::Float),
        ("d", DataType::Date),
        ("s", DataType::Varchar(4)),
    ]);
    let mut t = Table::empty(schema);
    let mut dict_len = 0;
    for _ in 0..rng.below(4) {
        let n = rng.below(40) as usize;
        let batch = adversarial_batch(rng, n, &mut dict_len);
        t.append_batch(&batch).unwrap();
    }
    t
}

/// Every aggregate over every column it accepts: the count forms over
/// all four, sums and averages over the numeric two, min and max over all
/// four.
fn every_aggregate() -> Vec<AggFn> {
    let mut aggs = vec![AggFn::CountStar];
    for c in 0..4 {
        aggs.extend([AggFn::Count(c), AggFn::Min(c), AggFn::Max(c)]);
    }
    for c in 0..2 {
        aggs.extend([AggFn::Sum(c), AggFn::Avg(c)]);
    }
    aggs
}

fn adversarial_case(seed: u64) {
    let mut rng = TestRng::new(seed);
    let t = adversarial_table(&mut rng);
    let aggs = every_aggregate();
    let specs: Vec<AggSpec> = aggs
        .iter()
        .enumerate()
        .map(|(k, &f)| AggSpec::new(f, format!("a{k}")))
        .collect();
    // One case in four is a global aggregate.
    let group_cols = if rng.chance(25) {
        Vec::new()
    } else {
        random_cols(&mut rng, &t, 2)
    };
    let key_cols = random_cols(&mut rng, &t, 3);
    let keys: Vec<SortKey> = random_cols(&mut rng, &t, 3)
        .into_iter()
        .map(|c| SortKey {
            col: c,
            desc: rng.chance(50),
        })
        .collect();
    let n = rng.below(t.n_rows() as u64 + 3) as usize;
    let what = |op: &str| format!("{op} seed {seed:#x}");

    // IEEE 754 leaves open which payload the sum of two NaNs carries, and
    // the compiler may commute an addition: a NaN out of a sum or an
    // average is compared as a NaN. Every other cell compares by bits.
    let arith_nans = |row: Vec<Value>| -> Vec<Value> {
        let arith = |k: usize| {
            k >= group_cols.len()
                && matches!(aggs[k - group_cols.len()], AggFn::Sum(_) | AggFn::Avg(_))
        };
        let nan = |v: Value| match v {
            Value::Float(x) if x.is_nan() => Value::Float(f64::NAN),
            v => v,
        };
        row.into_iter()
            .enumerate()
            .map(|(k, v)| if arith(k) { nan(v) } else { v })
            .collect()
    };
    let grouped: Vec<Vec<Value>> = naive::group_aggregate(&t, &group_cols, &aggs)
        .into_iter()
        .map(&arith_nans)
        .collect();
    let sorted = naive::sort_indices(&t, &keys);
    let topped = naive::top_n(&t.gather(&sorted), n);
    for threads in [1, 2] {
        let cx = at_threads(threads);
        assert_eq!(
            ops::group_indices(&t, &key_cols, &cx).unwrap(),
            naive::group_indices(&t, &key_cols),
            "{}",
            what("group")
        );
        let engine = ops::group_aggregate(&t, &group_cols, &specs, &cx).unwrap();
        let rows: Vec<Vec<Value>> = engine.iter_rows().map(&arith_nans).collect();
        assert_eq!(rows, grouped, "{}", what("aggregate"));
        assert_eq!(
            ops::distinct_indices(&t, &key_cols, &cx).unwrap(),
            naive::distinct_indices(&t, &key_cols),
            "{}",
            what("distinct")
        );
        assert_eq!(
            ops::sort_indices(&t, &keys, &cx).unwrap(),
            sorted,
            "{}",
            what("sort")
        );
        let engine = ops::top_n(&ops::sort(&t, &keys, &cx).unwrap(), n, &cx);
        assert_same_rows(&engine, &topped, &what("sort, then top"));
        let engine = ops::sort_top(&t, &keys, n, &cx).unwrap();
        assert_same_rows(&engine, &topped, &what("sort + top"));
    }
}
