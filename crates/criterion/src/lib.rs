//! Offline stand-in for the `criterion` benchmark harness.
//!
//! The build environment has no crates.io access, so this crate vendors
//! the small slice of criterion's API the paper-table benches use:
//! [`Criterion::benchmark_group`], `sample_size`, `bench_function`,
//! [`Bencher::iter`], `finish`, and the [`criterion_group!`] /
//! [`criterion_main!`] macros. Measurement is a plain
//! warmup-then-sample loop around `std::time::Instant`; results are
//! printed as `name  time: [.. mean ..]` lines in criterion's style so
//! the numbers can be eyeballed. The repository's benchmark, with
//! spread, host and per-layer figures, is `perfbench/`.
//!
//! Swapping the real criterion back in is a one-line change in the
//! workspace manifest; no bench source needs to change.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long to measure each benchmark for (after warmup).
const MEASURE_FOR: Duration = Duration::from_millis(200);
/// Warmup period before measuring.
const WARMUP_FOR: Duration = Duration::from_millis(50);

/// Top-level harness handle, mirroring `criterion::Criterion`.
pub struct Criterion {
    /// When true (``--test`` mode under `cargo test`), run each
    /// benchmark exactly once and skip measurement.
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        let test_mode = std::env::args().any(|a| a == "--test");
        Criterion { test_mode }
    }
}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group: {name}");
        BenchmarkGroup { c: self, group: name.to_string() }
    }
}

/// A named group of benchmarks.
pub struct BenchmarkGroup<'c> {
    c: &'c mut Criterion,
    group: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; this stand-in sizes its sample
    /// by wall-clock budget instead.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Benchmarks one function within the group.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.group, id);
        run_bench(self.c.test_mode, &full, f);
        self
    }

    /// Ends the group (formatting parity with real criterion).
    pub fn finish(self) {}
}

/// Passed to the closure given to `bench_function`; `iter` runs the
/// measured routine.
pub struct Bencher {
    /// Total iterations executed by the most recent `iter` call.
    iters: u64,
    /// Total wall-clock accumulated by the most recent `iter` call.
    elapsed: Duration,
    test_mode: bool,
}

impl Bencher {
    /// Measures `routine` by running it repeatedly.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        if self.test_mode {
            black_box(routine());
            self.iters = 1;
            self.elapsed = Duration::ZERO;
            return;
        }
        // Warmup, and discover a batch size large enough that the clock
        // overhead disappears.
        let mut batch = 1u64;
        let warm_start = Instant::now();
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let dt = t.elapsed();
            if warm_start.elapsed() >= WARMUP_FOR && dt >= Duration::from_micros(50) {
                break;
            }
            if dt < Duration::from_micros(50) {
                batch = batch.saturating_mul(2);
            }
        }
        // Measure.
        let mut iters = 0u64;
        let mut elapsed = Duration::ZERO;
        while elapsed < MEASURE_FOR {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            elapsed += t.elapsed();
            iters += batch;
        }
        self.iters = iters;
        self.elapsed = elapsed;
    }
}

fn run_bench<F>(test_mode: bool, id: &str, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let mut b = Bencher { iters: 0, elapsed: Duration::ZERO, test_mode };
    f(&mut b);
    if test_mode {
        println!("{id}: ok (test mode)");
        return;
    }
    let per_iter = if b.iters > 0 { b.elapsed.as_nanos() as f64 / b.iters as f64 } else { 0.0 };
    println!("{id:<40} time: [{} {} {}]", fmt_ns(per_iter), fmt_ns(per_iter), fmt_ns(per_iter));
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.4} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.4} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.4} µs", ns / 1e3)
    } else {
        format!("{:.4} ns", ns)
    }
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_counts_iterations() {
        let mut b = Bencher { iters: 0, elapsed: Duration::ZERO, test_mode: true };
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            n
        });
        assert_eq!(n, 1);
        assert_eq!(b.iters, 1);
    }

    #[test]
    fn format_scales() {
        assert!(fmt_ns(12.0).ends_with("ns"));
        assert!(fmt_ns(1.2e4).ends_with("µs"));
        assert!(fmt_ns(3.0e6).ends_with("ms"));
        assert!(fmt_ns(2.0e9).ends_with("s"));
    }
}
