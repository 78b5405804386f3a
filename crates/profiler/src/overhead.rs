//! The profiler-overhead experiment (paper Table 3).
//!
//! The paper measures each benchmark once with all profiling code compiled in but not
//! enabled (the baseline), then once per enabled metric, and reports the total
//! wall-clock overhead. [`measure_overheads`] reproduces that methodology: overheads
//! are real wall-clock ratios of this crate's profiler implementations, so the expected
//! *shape* — instrumentation-based metrics cost more than sampling-based ones — is
//! produced by construction rather than hard-coded.

use autodist_ir::program::Program;
use autodist_runtime::cluster::run_centralized_profiled;

use crate::{Metric, Profiler};

/// Wall-clock measurements for one profiler configuration across a set of workloads.
#[derive(Clone, Debug)]
pub struct OverheadRow {
    /// `None` is the baseline (profiling compiled in but not enabled).
    pub metric: Option<Metric>,
    /// Per-workload wall-clock milliseconds.
    pub per_workload_ms: Vec<f64>,
    /// Sum across workloads.
    pub total_ms: f64,
}

impl OverheadRow {
    /// Overhead percentage relative to `baseline_total_ms`.
    pub fn overhead_pct(&self, baseline_total_ms: f64) -> f64 {
        if baseline_total_ms <= 0.0 {
            0.0
        } else {
            (self.total_ms / baseline_total_ms - 1.0) * 100.0
        }
    }
}

/// The full Table 3 measurement: one row per configuration (baseline first).
#[derive(Clone, Debug)]
pub struct OverheadTable {
    /// Workload names, in column order.
    pub workloads: Vec<String>,
    /// Rows: baseline followed by each metric.
    pub rows: Vec<OverheadRow>,
}

impl OverheadTable {
    /// The baseline row.
    pub fn baseline(&self) -> &OverheadRow {
        &self.rows[0]
    }

    /// Average overhead across all non-baseline rows, in percent.
    pub fn average_overhead_pct(&self) -> f64 {
        let base = self.baseline().total_ms;
        let others: Vec<f64> = self.rows[1..]
            .iter()
            .map(|r| r.overhead_pct(base))
            .collect();
        if others.is_empty() {
            0.0
        } else {
            others.iter().sum::<f64>() / others.len() as f64
        }
    }

    /// Renders the table in the paper's layout (workloads as rows, metrics as columns).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{:<24}", "Test/Metric");
        for row in &self.rows {
            let name = row.metric.map(|m| m.name()).unwrap_or("Baseline");
            let _ = write!(out, "{name:>20}");
        }
        let _ = writeln!(out);
        for (wi, w) in self.workloads.iter().enumerate() {
            let _ = write!(out, "{w:<24}");
            for row in &self.rows {
                let _ = write!(out, "{:>20.3}", row.per_workload_ms[wi]);
            }
            let _ = writeln!(out);
        }
        let _ = write!(out, "{:<24}", "Total:");
        for row in &self.rows {
            let _ = write!(out, "{:>20.3}", row.total_ms);
        }
        let _ = writeln!(out);
        let base = self.baseline().total_ms;
        let _ = write!(out, "{:<24}", "Overhead:");
        for row in &self.rows {
            let _ = write!(out, "{:>19.2}%", row.overhead_pct(base));
        }
        let _ = writeln!(out);
        out
    }
}

/// Runs every workload under the baseline and under each metric and returns the
/// overhead table.
///
/// Noise control (the paper's Table 3 numbers are small percentages, easily swamped by
/// scheduler jitter on a shared machine):
///
/// * at least **5 repetitions** per (configuration, workload) pair, whatever the
///   caller asks for;
/// * the reported value is the **median**, not the minimum — the minimum
///   systematically under-reports the instrumented configurations and used to produce
///   negative overheads;
/// * repetitions are **interleaved** (every configuration measured once per round)
///   so slow drift in machine load biases all configurations equally;
/// * one warm-up execution per workload before anything is timed.
pub fn measure_overheads(
    workloads: &[(String, Program)],
    metrics: &[Metric],
    repeats: usize,
) -> OverheadTable {
    let repeats = repeats.max(5);
    let mut configs: Vec<Option<Metric>> = vec![None];
    configs.extend(metrics.iter().copied().map(Some));

    // Warm-up: fault in code paths and caches outside the measured region.
    for (_, program) in workloads {
        let (profiler, _handle) = Profiler::new(None);
        let report = run_centralized_profiled(program, 1.0, Some(Box::new(profiler)), 0);
        assert!(report.is_ok(), "workload failed: {:?}", report.error);
    }

    // samples[config][workload] = per-round wall times.
    let mut samples: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); workloads.len()]; configs.len()];
    for _ in 0..repeats {
        for (ci, config) in configs.iter().enumerate() {
            for (wi, (_, program)) in workloads.iter().enumerate() {
                let (profiler, _handle) = Profiler::new(*config);
                let report = run_centralized_profiled(
                    program,
                    1.0,
                    Some(Box::new(profiler)),
                    Profiler::sample_interval(*config),
                );
                assert!(report.is_ok(), "workload failed: {:?}", report.error);
                samples[ci][wi].push(report.wall_time_ms);
            }
        }
    }

    let rows = configs
        .iter()
        .zip(samples)
        .map(|(config, per_workload_samples)| {
            let per_workload: Vec<f64> = per_workload_samples.into_iter().map(median).collect();
            let total = per_workload.iter().sum();
            OverheadRow {
                metric: *config,
                per_workload_ms: per_workload,
                total_ms: total,
            }
        })
        .collect();
    OverheadTable {
        workloads: workloads.iter().map(|(n, _)| n.clone()).collect(),
        rows,
    }
}

/// Median (upper median for even counts) of a non-empty sample vector.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("wall times are never NaN"));
    xs[xs.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use autodist_ir::frontend::compile_source;

    fn small_workload() -> Program {
        compile_source(
            r#"
            class W {
                int spin(int n) {
                    int a = 0;
                    int i = 0;
                    while (i < n) { a = a + i % 13; i = i + 1; }
                    return a;
                }
            }
            class Main {
                static void main() {
                    W w = new W();
                    int r = 0;
                    int i = 0;
                    while (i < 20) { r = r + w.spin(300); i = i + 1; }
                }
            }
        "#,
        )
        .unwrap()
    }

    #[test]
    fn median_is_order_insensitive() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![5.0]), 5.0);
        assert_eq!(median(vec![4.0, 1.0]), 4.0, "upper median for even counts");
    }

    #[test]
    fn overhead_table_has_expected_shape() {
        let workloads = vec![("small".to_string(), small_workload())];
        let table = measure_overheads(&workloads, &Metric::all(), 1);
        assert_eq!(table.rows.len(), 7, "baseline + 6 metrics");
        assert_eq!(table.workloads.len(), 1);
        for row in &table.rows {
            assert_eq!(row.per_workload_ms.len(), 1);
            assert!(row.total_ms > 0.0);
        }
        let rendered = table.render();
        assert!(rendered.contains("Baseline"));
        assert!(rendered.contains("Hot Methods"));
        assert!(rendered.contains("Overhead:"));
    }

    #[test]
    fn overhead_percentages_are_relative_to_baseline() {
        let row = OverheadRow {
            metric: Some(Metric::MethodDuration),
            per_workload_ms: vec![1.5],
            total_ms: 1.5,
        };
        assert!((row.overhead_pct(1.0) - 50.0).abs() < 1e-9);
        assert_eq!(row.overhead_pct(0.0), 0.0);
    }
}
