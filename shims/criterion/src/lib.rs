//! Offline stand-in for `criterion`: same structural API
//! (`benchmark_group`, `bench_with_input`, `criterion_group!`/`criterion_main!`)
//! backed by a simple wall-clock sampler that prints mean/min per iteration.
//! No statistics, plots, or warm-up sweeps — just enough to compare variants.

use std::time::{Duration, Instant};

pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Label for a parameterised benchmark, e.g. `BenchmarkId::new("sparse", 64)`.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    pub fn new<P: std::fmt::Display>(function_name: &str, parameter: P) -> Self {
        Self { label: format!("{function_name}/{parameter}") }
    }

    pub fn from_parameter<P: std::fmt::Display>(parameter: P) -> Self {
        Self { label: parameter.to_string() }
    }
}

/// Passed to benchmark closures; [`Bencher::iter`] times one invocation of
/// the routine per sample.
pub struct Bencher {
    samples: Vec<Duration>,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        black_box(routine());
        self.samples.push(start.elapsed());
    }
}

pub struct Criterion {
    default_samples: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { default_samples: 10 }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        eprintln!("group {name}");
        BenchmarkGroup { name: name.to_string(), samples: self.default_samples }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        run_bench(name, self.default_samples, f);
        self
    }
}

pub struct BenchmarkGroup {
    name: String,
    samples: usize,
}

impl BenchmarkGroup {
    /// Number of measured samples (closure invocations) per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        run_bench(&format!("{}/{}", self.name, name), self.samples, f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        run_bench(&format!("{}/{}", self.name, id.label), self.samples, |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

fn run_bench<F: FnMut(&mut Bencher)>(label: &str, samples: usize, mut f: F) {
    let mut b = Bencher { samples: Vec::new() };
    // one untimed warm-up invocation
    f(&mut b);
    b.samples.clear();
    for _ in 0..samples {
        f(&mut b);
    }
    if b.samples.is_empty() {
        eprintln!("  {label}: no samples recorded");
        return;
    }
    let total: Duration = b.samples.iter().sum();
    let mean = total / b.samples.len() as u32;
    let min = b.samples.iter().min().copied().unwrap_or_default();
    eprintln!(
        "  {label}: mean {:>12} min {:>12} ({} samples)",
        fmt_duration(mean),
        fmt_duration(min),
        b.samples.len()
    );
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.3} s", nanos as f64 / 1e9)
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

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
    fn group_runs_closures_expected_times() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        let mut calls = 0usize;
        group.bench_function("count", |b| {
            calls += 1;
            b.iter(|| black_box(1 + 1));
        });
        group.finish();
        // 1 warm-up + 3 samples
        assert_eq!(calls, 4);
    }

    #[test]
    fn bench_with_input_passes_input() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(2);
        let data = vec![1u64, 2, 3];
        let mut seen = 0u64;
        group.bench_with_input(BenchmarkId::new("sum", data.len()), &data, |b, d| {
            b.iter(|| d.iter().sum::<u64>());
            seen = d.iter().sum();
        });
        group.finish();
        assert_eq!(seen, 6);
    }
}
