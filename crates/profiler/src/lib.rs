//! # autodist-profiler
//!
//! The mixed instrumentation/sampling profiler of Section 6 of the paper, implemented
//! against the runtime's [`ProfilerSink`] hook surface. Six metrics are provided, one
//! per column of the paper's Table 3:
//!
//! | metric | technique |
//! |---|---|
//! | method duration   | instrumentation (enter/exit timestamps) |
//! | method frequency  | instrumentation (per-method counters) |
//! | hot methods       | sampling (top stack frame per quantum) |
//! | hot paths         | sampling (whole call stack per quantum) |
//! | memory allocation | VM hooks on the allocator |
//! | dynamic call graph| sampling (adjacent stack frames) |
//!
//! A [`Profiler`] is handed to the interpreter; its measurements accumulate in a shared
//! [`ProfileHandle`] that survives the run. [`overhead::measure_overheads`] reproduces
//! the Table 3 experiment: run a workload once with the profiling code "compiled in but
//! not enabled" (the baseline) and once per enabled metric, reporting wall-clock
//! overhead percentages.

pub mod overhead;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use autodist_ir::program::{ClassId, MethodId, Program};
use autodist_runtime::interp::ProfilerSink;

/// The metric a [`Profiler`] instance collects.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Metric {
    /// Total virtual time spent per method (instrumentation).
    MethodDuration,
    /// Invocation count per method (instrumentation).
    MethodFrequency,
    /// Top-of-stack sample counts (sampling).
    HotMethods,
    /// Whole-call-stack sample counts (sampling).
    HotPaths,
    /// Bytes and counts allocated per class (allocator hook).
    MemoryAllocation,
    /// Caller→callee edges observed in samples (sampling).
    DynamicCallGraph,
}

impl Metric {
    /// All six metrics in Table 3 column order.
    pub fn all() -> [Metric; 6] {
        [
            Metric::HotPaths,
            Metric::DynamicCallGraph,
            Metric::HotMethods,
            Metric::MethodDuration,
            Metric::MethodFrequency,
            Metric::MemoryAllocation,
        ]
    }

    /// Human-readable name as used in the paper's table.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::MethodDuration => "Method Duration",
            Metric::MethodFrequency => "Method Frequency",
            Metric::HotMethods => "Hot Methods",
            Metric::HotPaths => "Hot Paths",
            Metric::MemoryAllocation => "Memory Usage",
            Metric::DynamicCallGraph => "Dynamic Call Graph",
        }
    }

    /// `true` for the metrics implemented through per-call instrumentation (the ones
    /// the paper found to have notably higher overhead).
    pub fn is_instrumentation(&self) -> bool {
        matches!(self, Metric::MethodDuration | Metric::MethodFrequency)
    }
}

/// The accumulated measurements of one profiled run.
#[derive(Clone, Debug, Default)]
pub struct ProfileData {
    /// Total virtual microseconds per method (method duration metric).
    pub method_duration_us: BTreeMap<MethodId, f64>,
    /// Invocation counts per method (method frequency metric).
    pub method_frequency: BTreeMap<MethodId, u64>,
    /// Top-of-stack sample counts per method (hot methods metric).
    pub hot_methods: BTreeMap<MethodId, u64>,
    /// Sample counts per full call path (hot paths metric).
    pub hot_paths: BTreeMap<Vec<MethodId>, u64>,
    /// (bytes, count) allocated per class; arrays are keyed under `None`.
    pub allocations: BTreeMap<Option<ClassId>, (u64, u64)>,
    /// Sampled caller→callee edges (dynamic call graph metric).
    pub call_graph: BTreeMap<(MethodId, MethodId), u64>,
    /// Number of sampling ticks observed.
    pub samples: u64,
}

impl ProfileData {
    /// The `k` hottest methods by sample count.
    pub fn hottest_methods(&self, k: usize) -> Vec<(MethodId, u64)> {
        let mut v: Vec<(MethodId, u64)> = self.hot_methods.iter().map(|(m, c)| (*m, *c)).collect();
        v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        v.truncate(k);
        v
    }

    /// The `k` hottest call paths.
    pub fn hottest_paths(&self, k: usize) -> Vec<(Vec<MethodId>, u64)> {
        let mut v: Vec<(Vec<MethodId>, u64)> = self
            .hot_paths
            .iter()
            .map(|(p, c)| (p.clone(), *c))
            .collect();
        v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        v.truncate(k);
        v
    }

    /// Total bytes allocated across all classes.
    pub fn total_allocated_bytes(&self) -> u64 {
        self.allocations.values().map(|(b, _)| *b).sum()
    }

    /// Renders a short human-readable report.
    pub fn render(&self, program: &Program) -> String {
        use std::fmt::Write as _;
        let name = |m: MethodId| {
            let method = program.method(m);
            format!("{}.{}", program.class(method.class).name, method.name)
        };
        let mut out = String::new();
        if !self.method_frequency.is_empty() {
            let _ = writeln!(out, "method frequency:");
            for (m, c) in &self.method_frequency {
                let _ = writeln!(out, "  {:<40} {c}", name(*m));
            }
        }
        if !self.method_duration_us.is_empty() {
            let _ = writeln!(out, "method duration (virtual us):");
            for (m, t) in &self.method_duration_us {
                let _ = writeln!(out, "  {:<40} {t:.1}", name(*m));
            }
        }
        if !self.hot_methods.is_empty() {
            let _ = writeln!(out, "hot methods (samples):");
            for (m, c) in self.hottest_methods(10) {
                let _ = writeln!(out, "  {:<40} {c}", name(m));
            }
        }
        if !self.hot_paths.is_empty() {
            let _ = writeln!(out, "hot paths (samples):");
            for (p, c) in self.hottest_paths(5) {
                let path: Vec<String> = p.iter().map(|&m| name(m)).collect();
                let _ = writeln!(out, "  {:<60} {c}", path.join(" > "));
            }
        }
        if !self.allocations.is_empty() {
            let _ = writeln!(out, "memory allocation:");
            for (c, (bytes, count)) in &self.allocations {
                let cname = match c {
                    Some(c) => program.class(*c).name.clone(),
                    None => "<array>".to_string(),
                };
                let _ = writeln!(out, "  {cname:<40} {count} objects, {bytes} bytes");
            }
        }
        if !self.call_graph.is_empty() {
            let _ = writeln!(out, "dynamic call graph edges: {}", self.call_graph.len());
        }
        out
    }
}

/// Locks a profile for a tally. The tallies are independent counters, valid after any
/// prefix of an update, so a holder that panicked leaves nothing to refuse: poisoning
/// is ignored, explicitly.
fn locked<T>(profile: &Mutex<T>) -> MutexGuard<'_, T> {
    profile.lock().unwrap_or_else(|e| e.into_inner())
}

/// Shared handle to the data a [`Profiler`] collects (clone it before handing the
/// profiler to the interpreter, read it after the run).
pub type ProfileHandle = Arc<Mutex<ProfileData>>;

/// A [`ProfilerSink`] implementation collecting one metric (or none, for the baseline
/// configuration where the profiling code is compiled in but not enabled).
pub struct Profiler {
    metric: Option<Metric>,
    data: ProfileHandle,
    entry_stack: Vec<(MethodId, f64)>,
}

impl Profiler {
    /// Creates a profiler for `metric` plus the shared handle holding its results.
    pub fn new(metric: Option<Metric>) -> (Profiler, ProfileHandle) {
        let data: ProfileHandle = Arc::new(Mutex::new(ProfileData::default()));
        (
            Profiler {
                metric,
                data: data.clone(),
                entry_stack: Vec::new(),
            },
            data,
        )
    }

    /// The sampling quantum (in interpreted instructions) recommended for this metric;
    /// 0 disables the sampling machinery entirely.
    pub fn sample_interval(metric: Option<Metric>) -> u64 {
        match metric {
            Some(Metric::HotMethods | Metric::HotPaths | Metric::DynamicCallGraph) => 2_000,
            _ => 0,
        }
    }
}

impl ProfilerSink for Profiler {
    fn method_enter(&mut self, method: MethodId, clock_us: f64) {
        match self.metric {
            Some(Metric::MethodDuration) => self.entry_stack.push((method, clock_us)),
            Some(Metric::MethodFrequency) => {
                *locked(&self.data)
                    .method_frequency
                    .entry(method)
                    .or_insert(0) += 1;
            }
            _ => {}
        }
    }

    fn method_exit(&mut self, method: MethodId, clock_us: f64) {
        if self.metric == Some(Metric::MethodDuration) {
            // On a mismatched enter/exit pair (the interpreter unwinding past a
            // frame) the elapsed time is attributed to the exiting method.
            if let Some((_, start)) = self.entry_stack.pop() {
                *locked(&self.data)
                    .method_duration_us
                    .entry(method)
                    .or_insert(0.0) += clock_us - start;
            }
        }
    }

    fn allocation(&mut self, class: Option<ClassId>, bytes: u64) {
        if self.metric == Some(Metric::MemoryAllocation) {
            let mut d = locked(&self.data);
            let e = d.allocations.entry(class).or_insert((0, 0));
            e.0 += bytes;
            e.1 += 1;
        }
    }

    fn sample(&mut self, stack: &[MethodId]) {
        let metric = match self.metric {
            Some(m) => m,
            None => return,
        };
        let mut d = locked(&self.data);
        d.samples += 1;
        match metric {
            Metric::HotMethods => {
                if let Some(&top) = stack.last() {
                    *d.hot_methods.entry(top).or_insert(0) += 1;
                }
            }
            Metric::HotPaths if !stack.is_empty() => {
                *d.hot_paths.entry(stack.to_vec()).or_insert(0) += 1;
            }
            Metric::DynamicCallGraph => {
                for w in stack.windows(2) {
                    *d.call_graph.entry((w[0], w[1])).or_insert(0) += 1;
                }
            }
            _ => {}
        }
    }

    fn wants_instrumentation(&self) -> bool {
        self.metric.map(|m| m.is_instrumentation()).unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autodist_ir::frontend::compile_source;
    use autodist_runtime::cluster::run_centralized_profiled;

    const WORK_SRC: &str = r#"
        class Node { int v; }
        class Worker {
            int spin(int n) {
                int acc = 0;
                int i = 0;
                while (i < n) { acc = acc + i % 7; i = i + 1; }
                return acc;
            }
            Node make() { return new Node(); }
        }
        class Main {
            static void main() {
                Worker w = new Worker();
                int r = 0;
                int i = 0;
                while (i < 40) {
                    r = r + w.spin(200);
                    Node n = w.make();
                    i = i + 1;
                }
            }
        }
    "#;

    fn run_with(metric: Option<Metric>) -> (ProfileHandle, autodist_ir::Program) {
        let p = compile_source(WORK_SRC).unwrap();
        let (profiler, handle) = Profiler::new(metric);
        let report = run_centralized_profiled(
            &p,
            1.0,
            Some(Box::new(profiler)),
            Profiler::sample_interval(metric),
        );
        assert!(report.is_ok(), "{:?}", report.error);
        (handle, p)
    }

    #[test]
    fn method_frequency_counts_invocations() {
        let (handle, p) = run_with(Some(Metric::MethodFrequency));
        let data = handle.lock().unwrap();
        let worker = p.class_by_name("Worker").unwrap();
        let spin = p.find_method(worker, "spin").unwrap();
        assert_eq!(data.method_frequency.get(&spin), Some(&40));
        let make = p.find_method(worker, "make").unwrap();
        assert_eq!(data.method_frequency.get(&make), Some(&40));
    }

    #[test]
    fn method_duration_attributes_time_to_hot_methods() {
        let (handle, p) = run_with(Some(Metric::MethodDuration));
        let data = handle.lock().unwrap();
        let worker = p.class_by_name("Worker").unwrap();
        let spin = p.find_method(worker, "spin").unwrap();
        let make = p.find_method(worker, "make").unwrap();
        let t_spin = data.method_duration_us.get(&spin).copied().unwrap_or(0.0);
        let t_make = data.method_duration_us.get(&make).copied().unwrap_or(0.0);
        assert!(t_spin > 0.0);
        assert!(
            t_spin > t_make * 5.0,
            "spin dominates ({t_spin} vs {t_make})"
        );
    }

    #[test]
    fn hot_methods_sampling_finds_the_hot_loop() {
        let (handle, p) = run_with(Some(Metric::HotMethods));
        let data = handle.lock().unwrap();
        assert!(data.samples > 0, "sampling ticks fired");
        let hottest = data.hottest_methods(1);
        assert!(!hottest.is_empty());
        let worker = p.class_by_name("Worker").unwrap();
        let spin = p.find_method(worker, "spin").unwrap();
        assert_eq!(hottest[0].0, spin, "spin is the hottest method");
    }

    #[test]
    fn hot_paths_contain_main_to_spin_chain() {
        let (handle, p) = run_with(Some(Metric::HotPaths));
        let data = handle.lock().unwrap();
        let worker = p.class_by_name("Worker").unwrap();
        let spin = p.find_method(worker, "spin").unwrap();
        let main = p.entry.unwrap();
        let top = data.hottest_paths(1);
        assert!(!top.is_empty());
        assert_eq!(top[0].0.first(), Some(&main));
        assert_eq!(top[0].0.last(), Some(&spin));
    }

    #[test]
    fn memory_allocation_tracks_classes_and_arrays() {
        let (handle, p) = run_with(Some(Metric::MemoryAllocation));
        let data = handle.lock().unwrap();
        let node = p.class_by_name("Node").unwrap();
        let (bytes, count) = data.allocations.get(&Some(node)).copied().unwrap_or((0, 0));
        assert_eq!(count, 40);
        assert!(bytes > 0);
        assert!(data.total_allocated_bytes() >= bytes);
    }

    #[test]
    fn dynamic_call_graph_records_caller_callee_edges() {
        let (handle, p) = run_with(Some(Metric::DynamicCallGraph));
        let data = handle.lock().unwrap();
        let main = p.entry.unwrap();
        let worker = p.class_by_name("Worker").unwrap();
        let spin = p.find_method(worker, "spin").unwrap();
        assert!(data.call_graph.get(&(main, spin)).copied().unwrap_or(0) > 0);
    }

    #[test]
    fn baseline_profiler_collects_nothing() {
        let (handle, _p) = run_with(None);
        let data = handle.lock().unwrap();
        assert!(data.method_frequency.is_empty());
        assert!(data.hot_methods.is_empty());
        assert!(data.allocations.is_empty());
        assert_eq!(data.samples, 0);
    }

    #[test]
    fn render_produces_readable_output() {
        let (handle, p) = run_with(Some(Metric::MethodFrequency));
        let text = handle.lock().unwrap().render(&p);
        assert!(text.contains("method frequency"));
        assert!(text.contains("Worker.spin"));
    }

    #[test]
    fn metric_metadata() {
        assert_eq!(Metric::all().len(), 6);
        assert!(Metric::MethodDuration.is_instrumentation());
        assert!(!Metric::HotMethods.is_instrumentation());
        assert_eq!(Metric::MemoryAllocation.name(), "Memory Usage");
        assert!(Profiler::sample_interval(Some(Metric::HotPaths)) > 0);
        assert_eq!(Profiler::sample_interval(Some(Metric::MethodDuration)), 0);
    }
}
