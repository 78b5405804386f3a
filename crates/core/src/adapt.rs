//! The pipeline side of adaptive placement: [`PlanReplanner`] implements the
//! runtime's [`Replanner`] hook by re-running phases 3–4 of the distribution
//! pipeline (partition + rewrite) on live serving profiles.
//!
//! The runtime's epoch controller (`autodist_runtime::adapt`) knows *when* to
//! repartition — every N completed requests — but not *how*: that is this module. Per served app the planner keeps the static
//! analysis products (the original program and its ODG — the expensive RTA/CRG
//! phases are **not** re-run), a shared [`AggregateProfile`] its per-request
//! [`AggregateSink`]s tally into, and the currently installed class placement.
//! On `replan` it:
//!
//! 1. drains the aggregate profile (declining if no instrumentation arrived),
//! 2. clones the ODG and [`reweigh_odg`]s it — live per-class invocation counts
//!    become node CPU weights, and use edges into hot classes become expensive
//!    to cut,
//! 3. warm-starts the multilevel partitioner with the incumbent assignment
//!    ([`repartition`]), under a **relaxed balance tolerance**: splitting a hot
//!    call chain across nodes to balance CPU maximises the very round-trips
//!    adaptation is meant to remove, so the replanner is comm-first and leaves
//!    load balance to the partitioner's floor of two non-empty parts,
//! 4. derives the class placement and declines unless it strictly improves the
//!    live-weighted cut of the incumbent — the installed placement can only get
//!    better, never churn sideways,
//! 5. rewrites the per-node program copies — verified like the offline plan's, if
//!    the plan was (a copy the verifier rejects declines the swap) — and prepares
//!    them as a fresh [`ServerApp`] for the controller to swap in.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::sync::Mutex;

use autodist_analysis::odg::{ObjectDependenceGraph, OdgEdgeKind};
use autodist_analysis::weights::{reweigh_odg, ProfileData};
use autodist_codegen::rewrite::ClassPlacement;
use autodist_ir::program::{ClassId, Program};
use autodist_partition::{repartition, Method, PartitionConfig};
use autodist_profiler::{aggregate_handle, method_table, AggregateHandle, AggregateSink};
use autodist_runtime::adapt::{EpochProfile, Replanner};
use autodist_runtime::cluster::ClusterConfig;
use autodist_runtime::interp::ProfilerSink;
use autodist_runtime::net::NetworkConfig;
use autodist_runtime::serve::ServerApp;

use crate::{DistributionPlan, DistributorConfig};

/// Everything the planner keeps per served app.
struct AppState {
    /// The original (pre-rewrite) program; placements are rewritten from it.
    program: Program,
    /// The statically analysed ODG — shape reused, weights replaced per epoch.
    odg: ObjectDependenceGraph,
    /// Partitioner configuration for replans (comm-first, see module docs).
    part_cfg: PartitionConfig,
    /// Cost model the prepared server apps carry.
    network: NetworkConfig,
    /// Method → owning class table for the profiling sinks.
    method_class: Arc<Vec<ClassId>>,
    /// Original class count (sinks ignore rewrite-appended synthetic classes).
    class_count: usize,
    /// The live profile all of this app's sinks tally into.
    profile: AggregateHandle,
    /// The currently installed class placement (starts as the plan's).
    home: Mutex<BTreeMap<ClassId, usize>>,
}

/// Live-weighted cut of `home`: total weight of ODG use edges whose endpoint
/// classes live on different nodes. The replanner's improvement metric.
fn placement_cut(odg: &ObjectDependenceGraph, home: &BTreeMap<ClassId, usize>) -> u64 {
    let home_of = |c: ClassId| home.get(&c).copied().unwrap_or(0);
    odg.edges
        .iter()
        .filter(|e| e.kind == OdgEdgeKind::Use)
        .filter(|e| {
            home_of(odg.nodes[e.from.0 as usize].class())
                != home_of(odg.nodes[e.to.0 as usize].class())
        })
        .map(|e| e.weight)
        .sum()
}

/// [`Replanner`] over one or more [`DistributionPlan`]s: the object to hand to
/// `AdaptOptions::new` when serving those plans. Apps must be registered in the
/// same order as the `apps` slice passed to `run_serving` — the epoch
/// controller addresses the planner by app index.
#[derive(Default)]
pub struct PlanReplanner {
    apps: Vec<AppState>,
}

impl PlanReplanner {
    /// An empty planner; register each served plan with
    /// [`add_plan`](Self::add_plan) in serving-app order.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the app at the next index: `plan` must be the plan whose
    /// `prepare_server` output sits at the same position in `run_serving`'s
    /// `apps`, `program` the original program it distributed, and `config` the
    /// distributor configuration that produced it. Returns the app index.
    pub fn add_plan(
        &mut self,
        config: &DistributorConfig,
        program: &Program,
        plan: &DistributionPlan,
        cluster: &ClusterConfig,
    ) -> usize {
        let part_cfg = PartitionConfig {
            // Replans always use the multilevel partitioner (warm-started), even
            // when the seed plan was naive: the naive methods ignore weights
            // entirely, so they cannot act on a profile.
            method: Method::Multilevel,
            // Comm-first: live CPU weights concentrate on the hot chain, and a
            // tight balance constraint would force that chain apart — paying
            // round-trips to balance a load the cluster can absorb. Relax to at
            // least 100% imbalance; the partitioner's two-part floor still
            // guarantees a real distribution.
            balance_tolerance: config.balance_tolerance.max(1.0),
            ..config.partition_config()
        };
        self.apps.push(AppState {
            program: program.clone(),
            odg: plan.analysis.odg.clone(),
            part_cfg,
            network: cluster.network.clone(),
            method_class: method_table(program),
            class_count: program.class_count(),
            profile: aggregate_handle(),
            home: Mutex::new(plan.placement.home.clone()),
        });
        self.apps.len() - 1
    }

    /// The currently installed home node of `class` for app `app` (diagnostics
    /// and tests).
    pub fn current_home(&self, app: usize, class: ClassId) -> usize {
        self.apps[app]
            .home
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&class)
            .copied()
            .unwrap_or(0)
    }
}

impl Replanner for PlanReplanner {
    fn replan(&self, profile: &EpochProfile) -> Option<ServerApp> {
        let app = self.apps.get(profile.app)?;
        let live = app.profile.lock().unwrap_or_else(|e| e.into_inner()).take();
        if live.is_empty() {
            return None;
        }
        let data = ProfileData {
            alloc_bytes: live.alloc_bytes,
            invocation_counts: live.invocations,
        };
        let mut odg = app.odg.clone();
        reweigh_odg(&mut odg, &data);
        let graph = crate::odg_partition_graph(&odg);
        let incumbent = app.home.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let hint: Vec<usize> = odg
            .nodes
            .iter()
            .map(|n| incumbent.get(&n.class()).copied().unwrap_or(0))
            .collect();
        let partitioning = repartition(&graph, &app.part_cfg, &hint);
        let placement = ClassPlacement::from_odg_partition(&app.program, &odg, &partitioning);
        // Install only strict improvements of the *live-weighted* cut: a
        // balanced profile, or one the incumbent already serves optimally,
        // changes nothing (and the controller reports no swap).
        if placement.home == incumbent
            || placement_cut(&odg, &placement.home) >= placement_cut(&odg, &incumbent)
        {
            return None;
        }
        // A copy the verifier rejects is never served: decline and keep the incumbent.
        let nodes = app.part_cfg.nparts.max(1);
        let copies = crate::rewrite_all(&app.program, &placement, nodes).ok()?;
        let programs: Vec<Program> = copies.into_iter().map(|rp| rp.program).collect();
        let server = ServerApp::prepare(programs, app.network.clone());
        *app.home.lock().unwrap_or_else(|e| e.into_inner()) = placement.home;
        Some(server)
    }

    fn profiler(&self, app: usize, _rank: usize) -> Option<(Box<dyn ProfilerSink>, u64)> {
        let state = self.apps.get(app)?;
        let sink = AggregateSink::new(
            Arc::clone(&state.method_class),
            state.class_count,
            Arc::clone(&state.profile),
        );
        // Instrumentation-only: per-class tallies need exact enter counts, and
        // the sampling machinery would add nothing.
        Some((Box::new(sink), 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Distributor, DistributorConfig, ServeOptions};
    use autodist_runtime::adapt::AdaptOptions;
    use autodist_runtime::cluster::{ClusterConfig, Schedule};
    use autodist_runtime::serve::run_serving;
    use autodist_workloads::GenConfig;

    /// An affinity-skewed generated workload whose hot chain the static Uniform
    /// plan splits across nodes (same shape as the `adaptive_serving` bench).
    fn skewed() -> autodist_workloads::GeneratedWorkload {
        autodist_workloads::generated(&GenConfig {
            width: 4,
            depth: 3,
            fan_out: 2,
            affinity_skew: 8.0,
            ..GenConfig::default()
        })
    }

    #[test]
    fn replanner_coalesces_the_hot_chain() {
        let g = skewed();
        let config = DistributorConfig::default();
        let distributor = Distributor::new(config.clone());
        let plan = distributor.distribute(&g.workload.program);
        let cluster = ClusterConfig::paper_testbed();
        let solo = plan.execute(&cluster);
        assert!(
            solo.total_messages() > 0,
            "the static plan must actually split the workload"
        );
        let mut planner = PlanReplanner::new();
        assert_eq!(
            planner.add_plan(&config, &g.workload.program, &plan, &cluster),
            0
        );
        let planner = Arc::new(planner);
        // The first epoch's profiled prefix is the whole epoch: one replan, after
        // request 4, and nothing left to improve at the later boundaries.
        let report = run_serving(
            std::slice::from_ref(&plan.prepare_server(&cluster)),
            &[0usize; 24],
            &ServeOptions {
                concurrency: 1,
                schedule: Schedule::Inline,
                adapt: Some(AdaptOptions::new(planner.clone() as Arc<dyn Replanner>).with_epoch(4)),
                ..ServeOptions::default()
            },
        );
        assert!(report.is_ok());
        assert_eq!(
            report.placement_swaps, 1,
            "exactly one replan improves the cut"
        );
        let last = report.requests.last().unwrap();
        assert!(
            last.report.total_messages() < solo.total_messages(),
            "post-swap requests message less: {} vs static {}",
            last.report.total_messages(),
            solo.total_messages()
        );
        // The hot chain funnels into the level-1 class 0; after the replan it
        // lives with Main on node 0.
        let hot = g.workload.program.class_by_name("G1_0").unwrap();
        assert_eq!(planner.current_home(0, hot), 0);
    }

    #[test]
    fn a_copy_the_verifier_rejects_is_never_swapped_in() {
        // The same serving run as above, twice: the planner is handed the program the
        // plan was made from and makes that run's one swap, then a copy with an
        // unreachable `goto` out of `main`'s body — harmless to run, refused by the
        // verifier — and declines it, keeping the incumbent.
        let g = skewed();
        let mut broken = g.workload.program.clone();
        let entry = broken.entry.unwrap();
        broken
            .method_mut(entry)
            .body
            .push(autodist_ir::bytecode::Insn::Goto(usize::MAX));
        let cluster = ClusterConfig::paper_testbed();
        let config = DistributorConfig::default();
        let plan = Distributor::new(config.clone()).distribute(&g.workload.program);
        for (program, swaps) in [(&g.workload.program, 1), (&broken, 0)] {
            let mut planner = PlanReplanner::new();
            planner.add_plan(&config, program, &plan, &cluster);
            let planner = Arc::new(planner);
            let report = run_serving(
                std::slice::from_ref(&plan.prepare_server(&cluster)),
                &[0usize; 8],
                &ServeOptions {
                    concurrency: 1,
                    schedule: Schedule::Inline,
                    adapt: Some(
                        AdaptOptions::new(planner.clone() as Arc<dyn Replanner>).with_epoch(4),
                    ),
                    ..ServeOptions::default()
                },
            );
            assert!(report.is_ok());
            assert_eq!(report.placement_swaps, swaps);
            let moved = plan
                .placement
                .home
                .iter()
                .any(|(&class, &home)| planner.current_home(0, class) != home);
            assert_eq!(moved, swaps == 1, "the incumbent placement is kept");
        }
    }

    #[test]
    fn balanced_placement_declines_to_replan() {
        // Two classes on two nodes: the partitioner's floor pins one class per node no
        // matter the weights, so the live profile cannot improve the cut and the
        // planner must decline — reports stay byte-identical throughout.
        let src = r#"
            class Worker { int bounce(int x) { return x * 2 + 1; } }
            class Main {
                static int checksum;
                static void main() {
                    Worker w = new Worker();
                    int acc = 0;
                    int i = 0;
                    while (i < 10) { acc = acc + w.bounce(i); i = i + 1; }
                    checksum = acc;
                }
            }
        "#;
        let program = Distributor::compile(src).unwrap();
        let config = DistributorConfig::default();
        let distributor = Distributor::new(config.clone());
        let plan = distributor.distribute(&program);
        let cluster = ClusterConfig::paper_testbed();
        let solo = plan.execute(&cluster);
        let mut planner = PlanReplanner::new();
        planner.add_plan(&config, &program, &plan, &cluster);
        let report = run_serving(
            std::slice::from_ref(&plan.prepare_server(&cluster)),
            &[0usize; 12],
            &ServeOptions {
                concurrency: 1,
                schedule: Schedule::Inline,
                adapt: Some(AdaptOptions::new(Arc::new(planner)).with_epoch(4)),
                ..ServeOptions::default()
            },
        );
        assert!(report.is_ok());
        assert_eq!(report.placement_swaps, 0, "nothing to improve, no swap");
        for req in &report.requests {
            assert_eq!(req.report.virtual_time_us, solo.virtual_time_us);
            assert_eq!(req.report.total_messages(), solo.total_messages());
            assert_eq!(req.report.total_bytes(), solo.total_bytes());
        }
    }

    #[test]
    fn replan_without_any_profile_declines() {
        let g = skewed();
        let config = DistributorConfig::default();
        let plan = Distributor::new(config.clone()).distribute(&g.workload.program);
        let cluster = ClusterConfig::paper_testbed();
        let mut planner = PlanReplanner::new();
        planner.add_plan(&config, &g.workload.program, &plan, &cluster);
        // No sinks ever ran: the aggregate is empty and the planner declines.
        let none = planner.replan(&EpochProfile {
            app: 0,
            requests: 16,
            messages: 128,
            bytes: 4096,
        });
        assert!(none.is_none());
        // Unknown app indices are not an error either.
        assert!(planner.profiler(7, 0).is_none());
    }
}
