//! Minimal local stand-in for `criterion`.
//!
//! A real measuring harness (calibration pass → timed pass → ns/iter
//! report) exposing the API subset the workspace's benches use:
//! `Criterion::benchmark_group`, `bench_function`, `bench_with_input`,
//! `sample_size`, `throughput`, `BenchmarkId`, `Throughput`, `black_box`,
//! and the `criterion_group!`/`criterion_main!` macros.
//!
//! Set `MWP_BENCH_JSON=<path>` to append one JSON line per benchmark
//! (`{"name": ..., "ns_per_iter": ...}`) — the format the workspace's
//! `bench_baseline` tooling consumes.

use std::fmt::Display;
use std::io::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Wall-clock budget for the measurement pass of each benchmark.
const MEASURE_BUDGET: Duration = Duration::from_millis(250);
/// Hard cap on iterations for very fast routines.
const MAX_ITERS: u64 = 10_000_000;

/// Top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { _c: self, name: name.into() }
    }

    /// Run a stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(id, f);
        self
    }
}

/// A group of benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    name: String,
}

impl<'a> BenchmarkGroup<'a> {
    /// Accepted for API compatibility; the shim sizes its measurement pass
    /// by wall-clock budget instead.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility (throughput is not reported).
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Accepted for API compatibility.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Run a benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&format!("{}/{}", self.name, id.into_benchmark_id()), f);
        self
    }

    /// Run a benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_benchmark(&format!("{}/{}", self.name, id.into_benchmark_id()), |b| f(b, input));
        self
    }

    /// End the group.
    pub fn finish(self) {}
}

/// A benchmark identifier (`function/parameter`).
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Identifier from a function name and a parameter value.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId { id: format!("{}/{}", function.into(), parameter) }
    }

    /// Identifier from a parameter value only.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

/// Conversion into the string id the shim reports under.
pub trait IntoBenchmarkId {
    /// The final id string.
    fn into_benchmark_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> String {
        self
    }
}

/// Throughput annotation (accepted, not reported).
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Bytes, decimal multiple.
    BytesDecimal(u64),
}

/// Timing context handed to each benchmark closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `f`, running it as many times as the harness requested.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(name: &str, mut f: F) {
    // Calibration pass: one iteration to estimate the per-call cost.
    let mut b = Bencher { iters: 1, elapsed: Duration::ZERO };
    f(&mut b);
    let per_iter = b.elapsed.max(Duration::from_nanos(1));
    let iters = (MEASURE_BUDGET.as_nanos() / per_iter.as_nanos()).clamp(1, MAX_ITERS as u128) as u64;
    // Measurement pass.
    b.iters = iters;
    f(&mut b);
    let ns = b.elapsed.as_nanos() as f64 / iters as f64;
    println!("bench {name:<40} {:>14.1} ns/iter  ({iters} iters)", ns);
    if let Ok(path) = std::env::var("MWP_BENCH_JSON") {
        if !path.is_empty() {
            if let Ok(mut file) =
                std::fs::OpenOptions::new().create(true).append(true).open(&path)
            {
                let _ = writeln!(file, "{{\"name\": \"{name}\", \"ns_per_iter\": {ns:.1}}}");
            }
        }
    }
}

/// Bundle benchmark functions under one group entry point.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Generate `main` running the given groups.
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
    fn group_and_function_apis_run() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(10).throughput(Throughput::Elements(1));
        let mut runs = 0u64;
        g.bench_function("count", |b| b.iter(|| runs += 1));
        g.bench_with_input(BenchmarkId::new("sq", 3), &3u64, |b, &x| {
            b.iter(|| black_box(x * x))
        });
        g.finish();
        assert!(runs >= 2, "closure must run calibration + measurement");
    }
}
