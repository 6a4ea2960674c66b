//! A tiny self-contained micro-benchmark harness.
//!
//! The workspace carries no external dependencies, so instead of criterion
//! each bench target is a plain binary (`harness = false`) driving this
//! module: warm up once, time `samples` runs, print min / median / mean
//! per benchmark as an aligned table. Sample counts shrink under
//! `--quick` / `RAIN_QUICK=1` so CI can smoke-run the benches.

use std::time::Instant;

/// `--quick` on the command line (or `RAIN_QUICK=1`) shrinks every bench
/// for smoke-testing.
pub fn is_quick() -> bool {
    std::env::args().any(|a| a == "--quick") || std::env::var("RAIN_QUICK").is_ok_and(|v| v == "1")
}

/// Re-export of the compiler fence that keeps benchmarked results alive.
pub use std::hint::black_box;

/// One benchmark group: named timings accumulated then printed together.
pub struct BenchGroup {
    group: String,
    samples: usize,
    rows: Vec<(String, Vec<f64>)>,
}

impl BenchGroup {
    /// A group printing under `group`, timing `samples` runs per bench
    /// (shrunk to 3 under `--quick` / `RAIN_QUICK=1`).
    pub fn new(group: &str, samples: usize) -> Self {
        let samples = if is_quick() { samples.min(3) } else { samples };
        BenchGroup {
            group: group.to_string(),
            samples: samples.max(1),
            rows: Vec::new(),
        }
    }

    /// Time `f` (after one warm-up call) and record the samples.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> &mut Self {
        black_box(f());
        let mut secs = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Instant::now();
            black_box(f());
            secs.push(t.elapsed().as_secs_f64());
        }
        self.rows.push((name.to_string(), secs));
        self
    }

    /// Median seconds of a recorded bench (for programmatic comparisons,
    /// e.g. the optimized-vs-naive speedup line).
    pub fn median_secs(&self, name: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, secs)| median(secs))
    }

    /// Print the group as an aligned `name  min  median  mean` table.
    pub fn finish(&self) {
        let width = self
            .rows
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(4)
            .max(4);
        println!("\n{} ({} samples)", self.group, self.samples);
        println!(
            "{:width$}  {:>12} {:>12} {:>12}",
            "name", "min", "median", "mean"
        );
        for (name, secs) in &self.rows {
            let min = secs.iter().cloned().fold(f64::INFINITY, f64::min);
            let mean = secs.iter().sum::<f64>() / secs.len() as f64;
            println!(
                "{name:width$}  {:>12} {:>12} {:>12}",
                fmt_secs(min),
                fmt_secs(median(secs)),
                fmt_secs(mean)
            );
        }
    }
}

fn median(secs: &[f64]) -> f64 {
    let mut s = secs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite timing"));
    s[s.len() / 2]
}

fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.3} µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reports() {
        let mut g = BenchGroup::new("demo", 5);
        g.bench("noop", || 1 + 1);
        assert!(g.median_secs("noop").is_some());
        assert!(g.median_secs("missing").is_none());
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 3.0);
    }
}
