//! # autodist
//!
//! The paper's primary contribution assembled into one pipeline: a compiler and runtime
//! infrastructure for **automatic program distribution**. Given a monolithic program,
//! the [`Distributor`]:
//!
//! 1. runs rapid type analysis and builds the class relation graph and the object
//!    dependence graph (`autodist-analysis`),
//! 2. weights the ODG (unit nodes, use edges by their CRG use count) and partitions
//!    it with the multilevel multi-constraint partitioner or a naive baseline
//!    (`autodist-partition`),
//! 3. derives a class-level placement and generates the per-node program copies with
//!    communication inserted for remote dependences (`autodist-codegen`),
//! 4. hands the copies to the distributed runtime for execution on the simulated
//!    cluster, or to the centralized runtime for the baseline (`autodist-runtime`).
//!
//! Phase timings are recorded (the paper's Table 2), graph statistics are exposed (the
//! paper's Table 1) and both graphs can be exported in VCG or DOT form (Figures 3/4).

pub mod adapt;
pub mod error;
pub mod stats;
pub mod viz;

use std::time::Instant;

use autodist_analysis::crg::{build_crg, ClassRelationGraph};
use autodist_analysis::objects::{collect_objects, ObjectSet};
use autodist_analysis::odg::{build_odg, ObjectDependenceGraph, OdgEdgeKind};
use autodist_analysis::rta::{rapid_type_analysis, CallGraph};
use autodist_analysis::weights::WeightModel;
use autodist_codegen::rewrite::{rewrite_for_node, ClassPlacement, RewrittenProgram};
use autodist_ir::program::Program;
use autodist_ir::verify::{verify_copies, VerifyError};
use autodist_partition::{partition, Graph, GraphBuilder, Method, PartitionConfig, Partitioning};
use autodist_runtime::cluster::{
    run_centralized, run_distributed_profiled, ClusterConfig, ExecutionReport,
};
use autodist_runtime::serve::run_serving;

pub use adapt::PlanReplanner;
pub use autodist_runtime::adapt::{AdaptOptions, Replanner};
pub use autodist_runtime::cluster::NodeProfiler;
pub use autodist_runtime::serve::{RequestReport, ServeOptions, ServerApp, ServingReport};
pub use error::{Phase, PipelineError, PipelineResult};
pub use stats::{GraphStats, PhaseTimings, Table1Row};

/// Configuration of the distribution pipeline.
#[derive(Clone, Debug)]
pub struct DistributorConfig {
    /// Number of nodes (virtual processors) to distribute over.
    pub nodes: usize,
    /// Partitioning algorithm.
    pub method: Method,
    /// Resource weight model for ODG nodes and edges. It has one value, `Uniform`,
    /// and `build_odg` does not read it.
    pub weights: WeightModel,
    /// Allowed partition imbalance.
    pub balance_tolerance: f64,
    /// Seed for the partitioner's randomised choices.
    pub seed: u64,
}

impl Default for DistributorConfig {
    fn default() -> Self {
        DistributorConfig {
            nodes: 2,
            method: Method::Multilevel,
            weights: WeightModel::Uniform,
            balance_tolerance: 0.25,
            seed: 0x5eed,
        }
    }
}

impl DistributorConfig {
    /// The paper's configuration: two nodes, the naive partitioning it reports using.
    pub fn paper_defaults() -> Self {
        DistributorConfig {
            method: Method::RoundRobin,
            ..Default::default()
        }
    }

    /// A `nodes`-way multilevel configuration.
    pub fn multilevel(nodes: usize) -> Self {
        DistributorConfig {
            nodes,
            ..Default::default()
        }
    }

    /// The partitioner configuration this pipeline configuration stands for.
    pub(crate) fn partition_config(&self) -> PartitionConfig {
        PartitionConfig {
            nparts: self.nodes,
            method: self.method,
            balance_tolerance: self.balance_tolerance,
            seed: self.seed,
            ..Default::default()
        }
    }
}

/// The static analysis products for one program.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// RTA call graph.
    pub call_graph: CallGraph,
    /// Class relation graph (Figure 3).
    pub crg: ClassRelationGraph,
    /// Allocation-site object set.
    pub objects: ObjectSet,
    /// Object dependence graph (Figure 4).
    pub odg: ObjectDependenceGraph,
}

/// Everything produced by [`Distributor::distribute`].
#[derive(Debug)]
pub struct DistributionPlan {
    /// The analysis products.
    pub analysis: Analysis,
    /// The partitioning of the ODG.
    pub partitioning: Partitioning,
    /// The derived class-level placement.
    pub placement: ClassPlacement,
    /// One rewritten program copy per node.
    pub node_programs: Vec<RewrittenProgram>,
    /// Phase timings in milliseconds (Table 2).
    pub timings: PhaseTimings,
}

impl DistributionPlan {
    /// The per-node programs as plain [`Program`]s (what the runtime consumes). Each
    /// is a reference-counted view of its `node_programs` entry — no class, method or
    /// instruction is copied — so handing a plan to the runtime costs nothing per call.
    pub fn programs(&self) -> Vec<Program> {
        self.node_programs
            .iter()
            .map(|r| r.program.clone())
            .collect()
    }

    /// Executes the plan on the simulated cluster.
    ///
    /// Every placement runs through the runtime's one worker loop, on the calling
    /// thread: the continuation-based interpreter parks a node's frame stack while it
    /// awaits a remote response, so cyclic/re-entrant placements are scheduled just
    /// like acyclic ones.
    pub fn execute(&self, cluster: &ClusterConfig) -> ExecutionReport {
        self.execute_profiled(cluster, Vec::new())
    }

    /// Executes the plan with per-node profiler sinks attached (`profilers[r]` goes
    /// to rank `r`; a shorter or empty vector leaves the remaining nodes
    /// unprofiled). The interpreter's call stack travels with each parked
    /// continuation, so sampling profilers see exact per-node stacks.
    pub fn execute_profiled(
        &self,
        cluster: &ClusterConfig,
        profilers: Vec<Option<NodeProfiler>>,
    ) -> ExecutionReport {
        run_distributed_profiled(&self.programs(), cluster, profilers)
    }

    /// Executes the plan and surfaces any execution failure as a [`PipelineError`]
    /// instead of an error field inside the report — a cluster that does not
    /// describe one node per program copy included ([`DistributionPlan::execute`]
    /// panics on that).
    pub fn try_execute(&self, cluster: &ClusterConfig) -> PipelineResult<ExecutionReport> {
        let (planned, configured) = (self.node_programs.len(), cluster.network.nodes());
        if planned != configured {
            return Err(PipelineError::Config(format!(
                "the plan distributes over {planned} nodes but the cluster describes {configured}"
            )));
        }
        PipelineError::check_report(self.execute(cluster))
    }

    /// Prepares this plan for serving: the per-node programs are interned into
    /// shared layouts **once**, and every request the server admits instantiates
    /// its interpreters over them. Hand the result to [`run_serving`] — directly or
    /// via [`DistributionPlan::serve`] — possibly alongside apps prepared from
    /// other plans for a mixed workload.
    ///
    /// # Panics
    ///
    /// If `cluster.network` does not describe exactly one node per program copy of
    /// the plan.
    pub fn prepare_server(&self, cluster: &ClusterConfig) -> ServerApp {
        ServerApp::prepare(self.programs(), cluster.network.clone())
    }

    /// Serves `requests` root computations of this plan as a closed-loop server:
    /// up to `opts.concurrency` requests are in flight at once, each over its own
    /// request-scoped world (virtual clocks, mailboxes, correlation ids), all driven
    /// by the one worker loop on the calling thread. The returned [`ServingReport`]
    /// carries one full per-request [`ExecutionReport`] per request plus the
    /// aggregate requests/sec and latency-percentile view; each request's virtual
    /// time, messages and final statics are byte-identical to
    /// [`DistributionPlan::execute`] on the same plan.
    pub fn serve(
        &self,
        cluster: &ClusterConfig,
        requests: usize,
        opts: &ServeOptions,
    ) -> ServingReport {
        let app = self.prepare_server(cluster);
        run_serving(std::slice::from_ref(&app), &vec![0; requests], opts)
    }

    /// Total number of program points rewritten across all node copies.
    pub fn total_rewritten_sites(&self) -> usize {
        self.node_programs
            .iter()
            .map(|r| r.stats.total_sites())
            .sum()
    }
}

/// Builds the partitioner input graph from an ODG: one vertex per ODG node with
/// its 3-constraint resource vector (each component floored at 1), one weighted
/// undirected edge per use relation. Shared by the offline pipeline
/// ([`Distributor::odg_graph`]) and the adaptive replanner, which calls it on a
/// re-weighted clone of the same ODG.
pub fn odg_partition_graph(odg: &ObjectDependenceGraph) -> Graph {
    let mut gb = GraphBuilder::new(odg.node_count(), 3);
    for (i, w) in odg.node_weights.iter().enumerate() {
        gb.set_weight(i, &w.as_array().map(|x| x.max(1)));
    }
    for e in odg.edges_of_kind(OdgEdgeKind::Use) {
        gb.add_edge(e.from.0 as usize, e.to.0 as usize, e.weight.max(1));
    }
    gb.build()
}

/// Phase 4 after placement: one rewritten copy of `program` per node, each checked by
/// the bytecode verifier — every distinct method once, since the copies share all but
/// what the rewriter changed; a failure names the first copy holding the offending
/// method. Shared by the offline pipeline and the adaptive replanner, so a swapped-in
/// copy is held to the same standard as a planned one.
pub(crate) fn rewrite_all(
    program: &Program,
    placement: &ClassPlacement,
    nodes: usize,
) -> PipelineResult<Vec<RewrittenProgram>> {
    let copies: Vec<RewrittenProgram> = (0..nodes)
        .map(|n| rewrite_for_node(program, placement, n))
        .collect();
    verify_copies(copies.iter().map(|rp| &rp.program)).map_err(|(copy, errors)| {
        PipelineError::Verify {
            node: Some(copies[copy].node),
            errors,
        }
    })?;
    Ok(copies)
}

/// The automatic distribution pipeline.
pub struct Distributor {
    /// Configuration.
    pub config: DistributorConfig,
}

impl Distributor {
    /// Creates a distributor with the given configuration.
    pub fn new(config: DistributorConfig) -> Self {
        Distributor { config }
    }

    /// Runs only the dependence analyses (Section 2).
    pub fn analyze(&self, program: &Program) -> Analysis {
        let call_graph = rapid_type_analysis(program);
        let crg = build_crg(program, &call_graph);
        let objects = collect_objects(program, &call_graph);
        let odg = build_odg(program, &crg, &objects, &self.config.weights);
        Analysis {
            call_graph,
            crg,
            objects,
            odg,
        }
    }

    /// Builds the partitioner input graph from an ODG.
    pub fn odg_graph(&self, odg: &ObjectDependenceGraph) -> Graph {
        odg_partition_graph(odg)
    }

    /// Compiles MiniJava-style source straight into a [`Program`], reporting parse
    /// failures through the unified error surface.
    pub fn compile(source: &str) -> PipelineResult<Program> {
        Ok(autodist_ir::frontend::compile_source(source)?)
    }

    /// Runs the full pipeline: analyse, partition, place, rewrite. Panics on invalid
    /// configurations or rewriter bugs; use [`Distributor::try_distribute`] to get a
    /// [`PipelineError`] instead.
    pub fn distribute(&self, program: &Program) -> DistributionPlan {
        self.try_distribute(program)
            .unwrap_or_else(|e| panic!("distribution pipeline failed: {e}"))
    }

    /// Runs the full pipeline, reporting failures from any phase through the shared
    /// [`PipelineError`] surface.
    pub fn try_distribute(&self, program: &Program) -> PipelineResult<DistributionPlan> {
        if self.config.nodes == 0 {
            return Err(PipelineError::Config(
                "cannot distribute over zero nodes".to_string(),
            ));
        }
        if self.config.balance_tolerance.is_nan() || self.config.balance_tolerance < 0.0 {
            return Err(PipelineError::Config(format!(
                "balance tolerance must be non-negative, got {}",
                self.config.balance_tolerance
            )));
        }
        if program.entry.is_none() {
            return Err(PipelineError::Verify {
                node: None,
                errors: vec![VerifyError::NoEntryPoint],
            });
        }
        // Phase 1: CRG construction (includes RTA, mirroring the paper's breakdown).
        let t0 = Instant::now();
        let call_graph = rapid_type_analysis(program);
        let crg = build_crg(program, &call_graph);
        let crg_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Phase 2: ODG construction.
        let t1 = Instant::now();
        let objects = collect_objects(program, &call_graph);
        let odg = build_odg(program, &crg, &objects, &self.config.weights);
        let odg_ms = t1.elapsed().as_secs_f64() * 1e3;

        let analysis = Analysis {
            call_graph,
            crg,
            objects,
            odg,
        };

        // Phase 3: graph partitioning.
        let t2 = Instant::now();
        let graph = self.odg_graph(&analysis.odg);
        let partitioning = partition(&graph, &self.config.partition_config());
        if partitioning.assignment.len() != analysis.odg.node_count() {
            return Err(PipelineError::Partition(format!(
                "assignment covers {} of {} ODG nodes",
                partitioning.assignment.len(),
                analysis.odg.node_count()
            )));
        }
        let partition_ms = t2.elapsed().as_secs_f64() * 1e3;

        // Phase 4: code and communication generation.
        let t3 = Instant::now();
        let placement = ClassPlacement::from_odg_partition(program, &analysis.odg, &partitioning);
        let node_programs = rewrite_all(program, &placement, self.config.nodes)?;
        let rewrite_ms = t3.elapsed().as_secs_f64() * 1e3;

        Ok(DistributionPlan {
            analysis,
            partitioning,
            placement,
            node_programs,
            timings: PhaseTimings {
                crg_ms,
                odg_ms,
                partition_ms,
                rewrite_ms,
            },
        })
    }

    /// Runs the sequential baseline (everything on the slow node), as the paper does
    /// for its Figure 11 comparison.
    pub fn run_baseline(&self, program: &Program) -> ExecutionReport {
        run_centralized(program, 1.0)
    }

    /// Runs the sequential baseline, surfacing interpreter faults as [`PipelineError`].
    pub fn try_run_baseline(&self, program: &Program) -> PipelineResult<ExecutionReport> {
        PipelineError::check_report(self.run_baseline(program))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autodist_runtime::NetworkConfig;
    use autodist_workloads as workloads;

    #[test]
    fn pipeline_produces_a_complete_plan_for_the_bank_example() {
        let w = workloads::bank(20);
        let distributor = Distributor::new(DistributorConfig::default());
        let plan = distributor.distribute(&w.program);
        assert!(plan.analysis.crg.node_count() >= 3);
        assert!(plan.analysis.odg.node_count() >= 4);
        assert_eq!(plan.node_programs.len(), 2);
        assert_eq!(
            plan.partitioning.assignment.len(),
            plan.analysis.odg.node_count()
        );
        assert!(plan.timings.total_ms() > 0.0);
        // Node 0 must host the entry class.
        let main = w.program.class_by_name("Main").unwrap();
        assert_eq!(plan.placement.home_of(main), 0);
    }

    #[test]
    fn partition_graph_matches_use_edges() {
        let w = workloads::bank(20);
        let distributor = Distributor::new(DistributorConfig::default());
        let odg = distributor.analyze(&w.program).odg;
        let graph = distributor.odg_graph(&odg);
        assert_eq!(graph.vertex_count(), odg.node_count());
        for v in 0..graph.vertex_count() {
            let weight = graph.vertex_weight(v);
            assert!(weight.len() == 3 && weight.iter().all(|&x| x >= 1));
        }
        // Cutting every edge cuts every use edge: opposite directions merge into
        // one undirected edge, their weights (each at least 1) add.
        let everyone_apart: Vec<usize> = (0..graph.vertex_count()).collect();
        let use_weight: u64 = odg
            .edges_of_kind(OdgEdgeKind::Use)
            .map(|e| e.weight.max(1))
            .sum();
        assert!(use_weight > 0);
        assert_eq!(graph.edge_cut(&everyone_apart), use_weight);
    }

    #[test]
    fn distributed_execution_of_plan_matches_baseline_checksum() {
        let w = workloads::bank(15);
        let distributor = Distributor::new(DistributorConfig::default());
        let baseline = distributor.run_baseline(&w.program);
        let plan = distributor.distribute(&w.program);
        let report = plan.execute(&ClusterConfig::paper_testbed());
        assert!(report.is_ok(), "{:?}", report.error);
        assert_eq!(
            report.final_statics.get("Main::checksum"),
            baseline.final_statics.get("Main::checksum"),
            "distribution preserves program behaviour"
        );
    }

    #[test]
    fn naive_and_multilevel_partitioning_both_work_end_to_end() {
        let w = workloads::db_bench(30, 60);
        for method in [Method::RoundRobin, Method::Multilevel] {
            let cfg = DistributorConfig {
                method,
                ..Default::default()
            };
            let distributor = Distributor::new(cfg);
            let plan = distributor.distribute(&w.program);
            let report = plan.execute(&ClusterConfig::paper_testbed());
            assert!(report.is_ok(), "{method:?}: {:?}", report.error);
        }
    }

    #[test]
    fn multilevel_cut_is_no_worse_than_naive_on_every_table1_workload() {
        for w in workloads::table1_workloads(1) {
            let ml = Distributor::new(DistributorConfig::default()).distribute(&w.program);
            let rr = Distributor::new(DistributorConfig {
                method: Method::RoundRobin,
                ..Default::default()
            })
            .distribute(&w.program);
            assert!(
                ml.partitioning.edgecut <= rr.partitioning.edgecut,
                "{}: multilevel {} vs naive {}",
                w.name,
                ml.partitioning.edgecut,
                rr.partitioning.edgecut
            );
        }
    }

    #[test]
    fn try_distribute_rejects_invalid_configurations() {
        let w = workloads::bank(5);
        for (config, needle) in [
            (
                DistributorConfig {
                    nodes: 0,
                    ..Default::default()
                },
                "zero nodes",
            ),
            (
                DistributorConfig {
                    balance_tolerance: f64::NAN,
                    ..Default::default()
                },
                "balance tolerance",
            ),
        ] {
            match Distributor::new(config).try_distribute(&w.program) {
                Err(PipelineError::Config(m)) => assert!(m.contains(needle), "{m}"),
                other => panic!("expected config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_program_without_an_entry_point_is_an_error_not_a_panic() {
        let program = Distributor::compile("class A { int f() { return 1; } }").expect("compiles");
        let distributor = Distributor::new(DistributorConfig::default());
        match distributor.try_distribute(&program) {
            Err(PipelineError::Verify { node: None, errors }) => {
                assert_eq!(errors, [VerifyError::NoEntryPoint])
            }
            other => panic!("expected a verify error, got {other:?}"),
        }
    }

    #[test]
    fn a_program_without_an_entry_point_analyzes_to_an_empty_odg() {
        let src = "class A { int x; int get() { return this.x; } }";
        let program = Distributor::compile(src).expect("compiles");
        let distributor = Distributor::new(DistributorConfig::default());
        let analysis = distributor.analyze(&program);
        assert!(analysis.call_graph.reachable.is_empty());
        assert_eq!(analysis.call_graph.edge_count(), 0);
        assert_eq!(
            (analysis.odg.node_count(), analysis.odg.edge_count()),
            (0, 0)
        );
        match distributor.try_distribute(&program) {
            Err(PipelineError::Verify { node: None, errors }) => {
                assert_eq!(errors, [VerifyError::NoEntryPoint])
            }
            other => panic!("expected a verify error, got {other:?}"),
        }
    }

    #[test]
    fn fallible_pipeline_matches_the_infallible_one() {
        let w = workloads::bank(10);
        let distributor = Distributor::new(DistributorConfig::default());
        let plan = distributor.try_distribute(&w.program).expect("pipeline");
        let report = plan
            .try_execute(&ClusterConfig::paper_testbed())
            .expect("execution");
        let baseline = distributor.try_run_baseline(&w.program).expect("baseline");
        assert_eq!(
            report.final_statics.get("Main::checksum"),
            baseline.final_statics.get("Main::checksum")
        );
    }

    #[test]
    fn a_cluster_of_the_wrong_size_is_a_config_error_not_a_panic() {
        let w = workloads::bank(5);
        let plan = Distributor::new(DistributorConfig::multilevel(4)).distribute(&w.program);
        match plan.try_execute(&ClusterConfig::paper_testbed()) {
            Err(PipelineError::Config(m)) => {
                assert!(m.contains("4 nodes") && m.contains("describes 2"), "{m}")
            }
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn runtime_faults_flow_through_the_unified_surface() {
        let src = "class Main {
            static int checksum;
            static void main() { int a = 1; int b = 0; checksum = a / b; }
        }";
        let program = Distributor::compile(src).expect("compiles");
        let distributor = Distributor::new(DistributorConfig::default());
        match distributor.try_run_baseline(&program) {
            Err(e @ PipelineError::Runtime(_)) => {
                assert_eq!(e.phase(), Phase::Runtime);
                assert!(e.to_string().contains("division by zero"), "{e}");
            }
            other => panic!("expected runtime error, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_flow_through_the_unified_surface() {
        match Distributor::compile("class Main { static void main() { int = ; } }") {
            Err(e @ PipelineError::Parse(_)) => assert_eq!(e.phase(), Phase::Frontend),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn serving_a_plan_matches_single_execution_per_request() {
        let w = workloads::bank(10);
        let distributor = Distributor::new(DistributorConfig::default());
        let plan = distributor.distribute(&w.program);
        let cluster = ClusterConfig::paper_testbed();
        let single = plan.execute(&cluster);
        assert!(single.is_ok(), "{:?}", single.error);
        let serving = plan.serve(
            &cluster,
            6,
            &ServeOptions {
                concurrency: 4,
                ..ServeOptions::default()
            },
        );
        assert!(serving.is_ok());
        assert_eq!(serving.requests.len(), 6);
        assert!(serving.requests_per_sec() > 0.0);
        for req in &serving.requests {
            assert_eq!(req.report.virtual_time_us, single.virtual_time_us);
            assert_eq!(
                req.report.final_statics.get("Main::checksum"),
                single.final_statics.get("Main::checksum")
            );
        }
    }

    #[test]
    fn four_node_distribution_still_correct() {
        let w = workloads::bank(12);
        let cfg = DistributorConfig {
            nodes: 4,
            ..Default::default()
        };
        let distributor = Distributor::new(cfg);
        let baseline = distributor.run_baseline(&w.program);
        let plan = distributor.distribute(&w.program);
        let cluster = ClusterConfig {
            network: NetworkConfig {
                node_speeds: vec![1.0, 2.1, 1.5, 1.5],
                ..NetworkConfig::paper_testbed()
            },
            ..Default::default()
        };
        let report = plan.execute(&cluster);
        assert!(report.is_ok(), "{:?}", report.error);
        assert_eq!(
            report.final_statics.get("Main::checksum"),
            baseline.final_statics.get("Main::checksum")
        );
    }
}
