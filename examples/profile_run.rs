//! Run a workload under each of the six profiler metrics (Section 6) and print the
//! collected data plus the overhead of each metric relative to the disabled baseline,
//! then profile a **cooperative distributed run** and print each node's hot methods —
//! the call stack travels with every parked continuation, so sampling attribution is
//! exact even while a node interleaves its root computation with served callbacks.
//!
//! Run with: `cargo run --example profile_run`

use autodist::{Distributor, DistributorConfig, NodeProfiler};
use autodist_profiler::overhead::measure_overheads;
use autodist_profiler::{Metric, Profiler};
use autodist_runtime::cluster::{run_centralized_profiled, ClusterConfig, Schedule};

fn main() {
    // Large enough that each run takes a few milliseconds: overhead percentages are
    // meaningless when the whole run is sub-millisecond noise.
    let workload = autodist_workloads::montecarlo(40000);

    for metric in Metric::all() {
        let (profiler, handle) = Profiler::new(Some(metric));
        let report = run_centralized_profiled(
            &workload.program,
            1.0,
            Some(Box::new(profiler)),
            Profiler::sample_interval(Some(metric)),
        );
        assert!(report.is_ok(), "{:?}", report.error);
        println!("==== {} ====", metric.name());
        let text = handle.lock().unwrap().render(&workload.program);
        if text.is_empty() {
            println!("(no per-item data for this metric)");
        } else {
            print!("{text}");
        }
        println!();
    }

    println!("==== per-node hot methods (cooperative distributed run) ====");
    let distributor = Distributor::new(DistributorConfig::default());
    let plan = distributor
        .try_distribute(&workload.program)
        .expect("distribution pipeline");
    let nodes = plan.node_programs.len();
    let mut profilers = Vec::new();
    let mut handles = Vec::new();
    for _ in 0..nodes {
        let (profiler, handle) = Profiler::new(Some(Metric::HotMethods));
        profilers.push(Some(NodeProfiler::new(
            Box::new(profiler),
            Profiler::sample_interval(Some(Metric::HotMethods)),
        )));
        handles.push(handle);
    }
    let report = plan.execute_profiled(
        &ClusterConfig {
            schedule: Schedule::Inline,
            ..ClusterConfig::paper_testbed()
        },
        profilers,
    );
    assert!(report.is_ok(), "{:?}", report.error);
    for (rank, handle) in handles.iter().enumerate() {
        let data = handle.lock().unwrap();
        println!(
            "node {rank}: {} samples over {} instructions",
            data.samples, report.per_node[rank].instructions
        );
        for (method, count) in data.hottest_methods(3) {
            let program = &plan.node_programs[rank].program;
            let m = program.method(method);
            println!(
                "  {:<40} {count}",
                format!("{}.{}", program.class(m.class).name, m.name)
            );
        }
    }
    println!();

    println!("==== overhead comparison (Table 3 methodology) ====");
    let workloads = vec![
        (workload.name.clone(), workload.program.clone()),
        (
            "heapsort".to_string(),
            autodist_workloads::heapsort(4000).program,
        ),
    ];
    // measure_overheads repeats at least 5 rounds, interleaved, and reports medians.
    let table = measure_overheads(&workloads, &Metric::all(), 5);
    print!("{}", table.render());
    let base = table.baseline().total_ms;
    for row in &table.rows {
        assert!(
            row.overhead_pct(base) > -5.0,
            "overhead of {:?} is implausibly negative",
            row.metric
        );
    }
}
