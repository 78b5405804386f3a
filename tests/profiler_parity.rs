//! Profiler parity across schedulers.
//!
//! With the interpreter call stack stored per `Continuation`, the sampling profiler
//! attaches to cooperative distributed runs — something the interpreter-global stack
//! could not support (its contents above the live prefix mixed frames of unrelated
//! parked continuations). These tests pin the resulting guarantees on the Table 1
//! workloads:
//!
//! * **Attribution parity** — a per-node sampling profiler attached to a
//!   [`Schedule::Inline`] or [`Schedule::Pool`] run observes exactly the per-node
//!   samples (hot-method counts, hence ranking) that one attached to a
//!   thread-per-node run did: per-node instruction streams are identical, and the
//!   worker loop samples the running continuation's own stack. Thread-per-node
//!   execution (`Schedule::Threaded`) is gone; its Table 1 hot-method tables,
//!   recorded on the last commit that had it, are the reference.
//! * **Pool determinism** — [`Schedule::Pool`] runs deliver deterministic virtual
//!   times, message counts and results, identical to a single worker's.
//!
//! CI runs this test binary under the deadlock watchdog (see
//! `.github/workflows/ci.yml`): the worker loop's worst failure mode is a hang.

use autodist::{Distributor, DistributorConfig, NodeProfiler};
use autodist_profiler::{Metric, ProfileHandle, Profiler};
use autodist_runtime::cluster::{ClusterConfig, Schedule};
use autodist_runtime::ExecutionReport;

/// Attaches one `HotMethods` sampling profiler per node and executes the plan.
fn run_profiled(
    plan: &autodist::DistributionPlan,
    nodes: usize,
    schedule: Schedule,
) -> (ExecutionReport, Vec<ProfileHandle>) {
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
    let config = ClusterConfig {
        schedule,
        ..ClusterConfig::paper_testbed()
    };
    (plan.execute_profiled(&config, profilers), handles)
}

/// One node's hot-method table: `(method id, top-of-stack samples)`.
type HotMethods = &'static [(u32, u64)];

/// Per-node hot-method tables of every Table 1 workload under thread-per-node
/// execution, in node order.
const THREADED_HOT_METHODS: [(&str, [HotMethods; 2]); 8] = [
    ("CreateBench (Custom[])", [&[], &[(0, 2), (1, 5)]]),
    ("method", [&[(0, 1), (2, 1), (3, 1), (5, 7)], &[]]),
    ("crypt", [&[], &[(0, 11), (1, 34)]]),
    ("heapsort", [&[], &[(0, 10), (1, 218), (2, 18)]]),
    ("moldyn", [&[], &[(1, 13)]]),
    ("search", [&[(2, 66)], &[(1, 8)]]),
    ("compress", [&[], &[(0, 12), (1, 24), (2, 15), (3, 17)]]),
    ("db", [&[], &[(3, 1), (4, 86), (5, 44), (6, 12), (8, 1)]]),
];

/// The sampling profiler attaches to distributed runs and agrees with what
/// thread-per-node execution sampled, sample for sample: per-node hot-method maps
/// (counts included, so the ranking too) are the recorded ones on every Table 1
/// workload, under one worker and under several.
#[test]
fn inline_and_threaded_sampling_attribution_agree_per_node() {
    let distributor = Distributor::new(DistributorConfig::default());
    let workloads = autodist_workloads::table1_workloads(1);
    assert_eq!(workloads.len(), THREADED_HOT_METHODS.len());
    for (w, (name, threaded)) in workloads.iter().zip(THREADED_HOT_METHODS) {
        assert_eq!(w.name, name);
        let plan = distributor.try_distribute(&w.program).expect("pipeline");
        let nodes = plan.node_programs.len();
        assert_eq!(nodes, threaded.len());
        for schedule in [Schedule::Inline, Schedule::Pool { threads: 2 }] {
            let (report, handles) = run_profiled(&plan, nodes, schedule);
            assert!(report.is_ok(), "{name} {schedule:?}: {:?}", report.error);
            for (rank, (handle, expected)) in handles.iter().zip(threaded).enumerate() {
                let data = handle.lock().unwrap();
                let hot: Vec<(u32, u64)> =
                    data.hot_methods.iter().map(|(m, c)| (m.0, *c)).collect();
                assert_eq!(
                    hot, expected,
                    "{name} {schedule:?}: node {rank} hot-method attribution diverges"
                );
                assert_eq!(
                    data.samples,
                    expected.iter().map(|(_, c)| c).sum::<u64>(),
                    "{name} {schedule:?}: node {rank} sample count diverges"
                );
            }
        }
    }
}

/// Hot-path sampling on a distributed run attributes samples to the node actually
/// burning the instructions: distribute a workload whose hot loop is served remotely
/// and check the serving node collects samples while parked continuations on the
/// launch node do not pollute its stacks.
#[test]
fn cooperative_sampling_attributes_work_to_the_serving_node() {
    let distributor = Distributor::new(DistributorConfig::default());
    let w = autodist_workloads::method_bench(60);
    let plan = distributor.try_distribute(&w.program).expect("pipeline");
    let nodes = plan.node_programs.len();
    let (report, handles) = run_profiled(&plan, nodes, Schedule::Inline);
    assert!(report.is_ok(), "{:?}", report.error);
    // Per-node sample totals must mirror per-node instruction shares: any node that
    // executed a meaningful share of instructions must have collected samples.
    let interval = Profiler::sample_interval(Some(Metric::HotMethods));
    for (stats, handle) in report.per_node.iter().zip(handles.iter()) {
        let samples = handle.lock().unwrap().samples;
        if stats.instructions > 4 * interval {
            assert!(
                samples > 0,
                "node {} executed {} instructions but collected no samples",
                stats.node,
                stats.instructions
            );
        }
    }
}

/// Pool runs produce deterministic virtual times: two runs under the same
/// configuration agree with each other and with a single worker, on every
/// Table 1 workload.
#[test]
fn pool_runs_are_deterministic_on_table1_workloads() {
    let distributor = Distributor::new(DistributorConfig::default());
    for w in autodist_workloads::table1_workloads(1) {
        let plan = distributor.try_distribute(&w.program).expect("pipeline");
        let inline = plan.execute(&ClusterConfig {
            schedule: Schedule::Inline,
            ..ClusterConfig::paper_testbed()
        });
        let pool_config = ClusterConfig {
            schedule: Schedule::Pool { threads: 4 },
            ..ClusterConfig::paper_testbed()
        };
        let first = plan.execute(&pool_config);
        let second = plan.execute(&pool_config);
        for pool in [&first, &second] {
            assert!(pool.is_ok(), "{}: {:?}", w.name, pool.error);
            assert_eq!(
                pool.virtual_time_us, inline.virtual_time_us,
                "{}: pool virtual time must equal a single worker's",
                w.name
            );
            assert_eq!(pool.total_messages(), inline.total_messages(), "{}", w.name);
            assert_eq!(pool.total_bytes(), inline.total_bytes(), "{}", w.name);
            assert_eq!(pool.final_statics, inline.final_statics, "{}", w.name);
        }
    }
}

/// Every interval [`sampled_hot_methods_are_pinned`] samples at: every instruction, a
/// prime that lands ticks mid-superinstruction, and the metric's own quantum.
const PINNED_INTERVALS: [u64; 3] = [1, 7, 2_000];

/// Per-node hot-method tables of `crypt` and `moldyn` at each of
/// [`PINNED_INTERVALS`]: one centralized node, then the two nodes of the default
/// distribution under [`Schedule::Inline`].
fn sampled_hot_methods(name: &str) -> Vec<Vec<Vec<(u32, u64)>>> {
    let w = autodist_workloads::table1_workloads(1)
        .into_iter()
        .find(|w| w.name == name)
        .expect("a Table 1 workload");
    let plan = Distributor::new(DistributorConfig::default())
        .try_distribute(&w.program)
        .expect("pipeline");
    let table = |handle: &ProfileHandle| -> Vec<(u32, u64)> {
        let data = handle.lock().unwrap();
        let hot: Vec<(u32, u64)> = data.hot_methods.iter().map(|(m, c)| (m.0, *c)).collect();
        assert_eq!(data.samples, hot.iter().map(|(_, c)| c).sum::<u64>());
        hot
    };
    PINNED_INTERVALS
        .iter()
        .map(|&interval| {
            let (profiler, handle) = Profiler::new(Some(Metric::HotMethods));
            let report = autodist_runtime::cluster::run_centralized_profiled(
                &w.program,
                1.0,
                Some(Box::new(profiler)),
                interval,
            );
            assert!(report.is_ok(), "{name} centralized: {:?}", report.error);
            let mut tables = vec![table(&handle)];
            let mut profilers = Vec::new();
            let mut handles = Vec::new();
            for _ in 0..plan.node_programs.len() {
                let (profiler, handle) = Profiler::new(Some(Metric::HotMethods));
                profilers.push(Some(NodeProfiler::new(Box::new(profiler), interval)));
                handles.push(handle);
            }
            let config = ClusterConfig {
                schedule: Schedule::Inline,
                ..ClusterConfig::paper_testbed()
            };
            let report = plan.execute_profiled(&config, profilers);
            assert!(report.is_ok(), "{name} distributed: {:?}", report.error);
            tables.extend(handles.iter().map(table));
            tables
        })
        .collect()
}

/// [`sampled_hot_methods`] as recorded while the dispatch loop still ticked the
/// sampler once per seed instruction: for each interval, centralized then node 0 and
/// node 1 of the distributed run.
const PINNED_HOT_METHODS: [(&str, [[HotMethods; 3]; 3]); 2] = [
    (
        "crypt",
        [
            [
                &[(0, 22816), (1, 67222), (2, 13)],
                &[(2, 36)],
                &[(0, 22816), (1, 67222)],
            ],
            [
                &[(0, 3260), (1, 9603), (2, 1)],
                &[(2, 5)],
                &[(0, 3259), (1, 9603)],
            ],
            [&[(0, 11), (1, 34)], &[], &[(0, 11), (1, 34)]],
        ],
    ),
    (
        "moldyn",
        [
            [
                &[(0, 245), (1, 26812), (2, 320), (3, 62)],
                &[(3, 95)],
                &[(0, 245), (1, 26812), (2, 320)],
            ],
            [
                &[(0, 35), (1, 3832), (2, 46), (3, 6)],
                &[(3, 13)],
                &[(0, 35), (1, 3830), (2, 46)],
            ],
            [&[(1, 13)], &[], &[(1, 13)]],
        ],
    ),
];

/// Sampling lands on the same instructions however the dispatch loop batches its
/// ticks: the exact per-node hot-method samples of two compute kernels, centralized
/// and distributed, at every pinned interval.
#[test]
fn sampled_hot_methods_are_pinned() {
    for (name, expected) in PINNED_HOT_METHODS {
        let got = sampled_hot_methods(name);
        for ((interval, got), expected) in PINNED_INTERVALS.iter().zip(&got).zip(expected) {
            let expected: Vec<Vec<(u32, u64)>> = expected.iter().map(|t| t.to_vec()).collect();
            assert_eq!(
                got, &expected,
                "{name} at sample interval {interval}: centralized, node 0, node 1"
            );
        }
    }
}

/// A sampling profiler attached to a pool run collects the same per-node samples as
/// a single worker: worker interleaving never changes what each node executes.
#[test]
fn pool_sampling_matches_inline_sampling() {
    let distributor = Distributor::new(DistributorConfig::default());
    let w = autodist_workloads::bank(30);
    let plan = distributor.try_distribute(&w.program).expect("pipeline");
    let nodes = plan.node_programs.len();
    let (inline_report, inline_handles) = run_profiled(&plan, nodes, Schedule::Inline);
    let (pool_report, pool_handles) = run_profiled(&plan, nodes, Schedule::Pool { threads: 3 });
    assert!(inline_report.is_ok(), "{:?}", inline_report.error);
    assert!(pool_report.is_ok(), "{:?}", pool_report.error);
    for (rank, (i, p)) in inline_handles.iter().zip(pool_handles.iter()).enumerate() {
        assert_eq!(
            i.lock().unwrap().hot_methods,
            p.lock().unwrap().hot_methods,
            "node {rank} attribution diverges between inline and pool"
        );
    }
}
