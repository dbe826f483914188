//! Offline stand-in for `criterion`.
//!
//! Keeps the bench sources compiling and runnable: each benchmark is timed
//! with `std::time::Instant` over a fixed number of iterations and the
//! median per-iteration time is printed. No statistics, plots, or saved
//! baselines — swap the real crate back in for publishable numbers.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Benchmark identifier: `function_id/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_id: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_id.into(), parameter),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Top-level bench context.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            _criterion: std::marker::PhantomData,
        }
    }
}

pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: std::marker::PhantomData<&'a mut Criterion>,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher {
            samples: Vec::new(),
        };
        for _ in 0..self.sample_size {
            f(&mut b, input);
        }
        b.samples.sort_unstable();
        if let Some(median) = b.samples.get(b.samples.len() / 2) {
            println!("{}/{}: median {:?}", self.name, id, median);
        }
        self
    }

    pub fn finish(&mut self) {}
}

/// Runs and times the measured routine.
pub struct Bencher {
    samples: Vec<Duration>,
}

impl Bencher {
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        // One warm-up call, then a timed sample.
        black_box(f());
        let start = Instant::now();
        black_box(f());
        self.samples.push(start.elapsed());
    }
}

/// Declares a bench group runner function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("smoke");
        group.sample_size(3);
        let mut calls = 0u32;
        group.bench_with_input(BenchmarkId::new("add", 7), &7u64, |b, &x| {
            b.iter(|| {
                calls += 1;
                x + 1
            });
        });
        group.finish();
        assert!(calls >= 3);
    }
}
