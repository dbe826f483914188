//! EXP FIG10: path regular expressions over the subclass hierarchy.
//!
//! Sweeps the repetition quantifier: fixed counts `{1}`, `{2}`, `{4}` and
//! the unbounded `+` and `*`, evaluated as reachability over (vertex, hop
//! phase, repetition count) states, each visited once. Paper claim
//! (§II-B4): regex steps give "a very general query capability" over
//! variable path lengths; set semantics keep them polynomial.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graql_bench::{berlin, run_rows};
use std::hint::black_box;

fn query(quant: &str) -> String {
    format!(
        "select * from graph ProductVtx() --type--> TypeVtx() \
         {{ --subclass--> TypeVtx() }}{quant} --> TypeVtx() into subgraph r"
    )
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("path_regex");
    group.sample_size(10);
    let mut db = berlin(1000);
    for quant in ["{1}", "{2}", "{4}", "+", "*"] {
        let q = query(quant);
        group.bench_with_input(BenchmarkId::new("quant", quant), &q, |b, q| {
            b.iter(|| black_box(run_rows(&mut db, q)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
