//! The pipeline side of adaptive placement: [`PlanReplanner`] implements the
//! runtime's [`Replanner`] hook by re-running phases 3–4 of the distribution
//! pipeline (partition + rewrite) on live serving profiles.
//!
//! The runtime's epoch controller (`autodist_runtime::adapt`) knows *when* to
//! repartition — every N completed requests — but not *how*: that is this module. Per served app the planner keeps the static
//! analysis products (the original program and its ODG — the expensive RTA/CRG
//! phases are **not** re-run), a shared [`ClassProfile`] its per-request sinks
//! (`AggregateSink`) tally into, and the currently installed class placement.
//! On `replan` it:
//!
//! 1. drains the shared profile (declining if no instrumentation arrived),
//! 2. clones the ODG and [`reweigh_odg`]s it — live per-class invocation counts
//!    become node CPU weights, and use edges into hot classes become expensive
//!    to cut,
//! 3. runs the multilevel partitioner afresh ([`partition`]) under a **relaxed
//!    balance tolerance**: splitting a hot call chain across nodes to balance CPU
//!    maximises the very round-trips adaptation is meant to remove, so the
//!    replanner is comm-first; the class placement's guard still keeps it on two
//!    nodes,
//! 4. derives the class placement and declines unless it differs from the
//!    incumbent and strictly improves the incumbent's live-weighted cut — the one
//!    incumbent check, so what is installed is never worse than what is running
//!    and never churns sideways,
//! 5. rewrites the per-node program copies — verified like the offline plan's, if
//!    the plan was (a copy the verifier rejects declines the swap) — and prepares
//!    them as a fresh [`ServerApp`] for the controller to swap in.

use std::sync::{Arc, Mutex, MutexGuard};

use autodist_analysis::odg::{ObjectDependenceGraph, OdgEdgeKind};
use autodist_analysis::weights::{reweigh_odg, ClassProfile};
use autodist_codegen::rewrite::ClassPlacement;
use autodist_ir::program::{ClassId, MethodId, Program};
use autodist_partition::{partition, Method, PartitionConfig};
use autodist_runtime::adapt::Replanner;
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
    method_class: Arc<[ClassId]>,
    /// Original class count (sinks ignore rewrite-appended synthetic classes).
    class_count: usize,
    /// The live profile all of this app's sinks tally into.
    profile: Arc<Mutex<ClassProfile>>,
    /// The currently installed class placement (starts as the plan's).
    home: Mutex<ClassPlacement>,
}

/// Locks planner state. A profile's tallies are independent counters, valid after
/// any prefix of an update, and a placement is replaced whole, so a holder that
/// panicked leaves nothing to refuse: poisoning is ignored, explicitly.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A [`ProfilerSink`] tallying one request's per-class invocations and allocated
/// bytes into a [`ClassProfile`] of its own (no locking on the hot path), merged
/// into the app's shared profile exactly once, on drop — in the request epilogue,
/// before the epoch controller consults the planner.
///
/// Like every sink it is purely observational: it records enters and allocations
/// but never steers execution, so attaching it leaves a request's virtual time,
/// message and byte counts byte-identical to an unprofiled run.
struct AggregateSink {
    /// Method id → owning class of the original (pre-rewrite) program, whose class
    /// and method ids the placed copies preserve. Ids past the end belong to
    /// synthetic runtime classes the rewrite appended (`rt/DependentObject`
    /// accessors); those are placement machinery, not application load, and are
    /// skipped.
    method_class: Arc<[ClassId]>,
    /// Classes with an id at or past this are synthetic and ignored.
    class_count: usize,
    tally: ClassProfile,
    shared: Arc<Mutex<ClassProfile>>,
}

impl ProfilerSink for AggregateSink {
    fn method_enter(&mut self, method: MethodId, _clock_us: f64) {
        if let Some(&class) = self.method_class.get(method.0 as usize) {
            *self.tally.invocation_counts.entry(class).or_insert(0) += 1;
        }
    }

    fn method_exit(&mut self, _method: MethodId, _clock_us: f64) {}

    fn allocation(&mut self, class: Option<ClassId>, bytes: u64) {
        if let Some(class) = class.filter(|c| (c.0 as usize) < self.class_count) {
            *self.tally.alloc_bytes.entry(class).or_insert(0) += bytes;
        }
    }

    fn sample(&mut self, _stack: &[MethodId]) {}
}

impl Drop for AggregateSink {
    fn drop(&mut self) {
        if self.tally.is_empty() {
            return;
        }
        let tally = std::mem::take(&mut self.tally);
        let mut shared = locked(&self.shared);
        for (class, n) in tally.invocation_counts {
            *shared.invocation_counts.entry(class).or_insert(0) += n;
        }
        for (class, b) in tally.alloc_bytes {
            *shared.alloc_bytes.entry(class).or_insert(0) += b;
        }
    }
}

/// Live-weighted cut of `placement`: total weight of ODG use edges whose endpoint
/// classes live on different nodes. The replanner's improvement metric.
fn placement_cut(odg: &ObjectDependenceGraph, placement: &ClassPlacement) -> u64 {
    let home_of = |c: ClassId| placement.home_of(c);
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
            // Replans always use the multilevel partitioner, even when the seed
            // plan was naive: the naive methods ignore weights entirely, so they
            // cannot act on a profile.
            method: Method::Multilevel,
            // Comm-first: live CPU weights concentrate on the hot chain, and a
            // tight balance constraint would force that chain apart — paying
            // round-trips to balance a load the cluster can absorb. Relax to at
            // least 100% imbalance; `ClassPlacement::from_odg_partition` still
            // keeps the placement on two nodes.
            balance_tolerance: config.balance_tolerance.max(1.0),
            ..config.partition_config()
        };
        self.apps.push(AppState {
            program: program.clone(),
            odg: plan.analysis.odg.clone(),
            part_cfg,
            network: cluster.network.clone(),
            method_class: program.methods.iter().map(|m| m.class).collect(),
            class_count: program.class_count(),
            profile: Arc::default(),
            home: Mutex::new(plan.placement.clone()),
        });
        self.apps.len() - 1
    }

    /// The currently installed home node of `class` for app `app` (diagnostics
    /// and tests).
    pub fn current_home(&self, app: usize, class: ClassId) -> usize {
        locked(&self.apps[app].home).home_of(class)
    }
}

impl Replanner for PlanReplanner {
    fn replan(&self, app: usize) -> Option<ServerApp> {
        let app = self.apps.get(app)?;
        let live = std::mem::take(&mut *locked(&app.profile));
        if live.is_empty() {
            return None;
        }
        let mut odg = app.odg.clone();
        reweigh_odg(&mut odg, &live);
        let graph = crate::odg_partition_graph(&odg);
        let partitioning = partition(&graph, &app.part_cfg);
        let placement = ClassPlacement::from_odg_partition(&app.program, &odg, &partitioning);
        // The one incumbent check: install only a placement that differs from the
        // running one and strictly improves its *live-weighted* cut, so a swap
        // never installs anything worse than what runs. A balanced profile, or one
        // the incumbent already serves optimally, changes nothing (and the
        // controller reports no swap).
        let incumbent = locked(&app.home);
        if placement.home == incumbent.home
            || placement_cut(&odg, &placement) >= placement_cut(&odg, &incumbent)
        {
            return None;
        }
        drop(incumbent);
        // A copy the verifier rejects is never served: decline and keep the incumbent.
        let nodes = app.part_cfg.nparts.max(1);
        let copies = crate::rewrite_all(&app.program, &placement, nodes).ok()?;
        let programs: Vec<Program> = copies.into_iter().map(|rp| rp.program).collect();
        let server = ServerApp::prepare(programs, app.network.clone());
        *locked(&app.home) = placement;
        Some(server)
    }

    fn profiler(&self, app: usize, _rank: usize) -> Option<Box<dyn ProfilerSink>> {
        let state = self.apps.get(app)?;
        Some(Box::new(AggregateSink {
            method_class: Arc::clone(&state.method_class),
            class_count: state.class_count,
            tally: ClassProfile::default(),
            shared: Arc::clone(&state.profile),
        }))
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

    /// A sink over `p`'s method table tallying into `shared`.
    fn sink(p: &Program, shared: &Arc<Mutex<ClassProfile>>) -> AggregateSink {
        AggregateSink {
            method_class: p.methods.iter().map(|m| m.class).collect(),
            class_count: p.class_count(),
            tally: ClassProfile::default(),
            shared: Arc::clone(shared),
        }
    }

    #[test]
    fn aggregate_sink_tallies_per_class_and_flushes_on_drop() {
        let p = autodist_ir::frontend::compile_source(WORK_SRC).unwrap();
        let shared = Arc::default();
        let report = autodist_runtime::cluster::run_centralized_profiled(
            &p,
            1.0,
            Some(Box::new(sink(&p, &shared))),
            0,
        );
        assert!(report.is_ok(), "{:?}", report.error);
        // The run dropped the interpreter, and the sink with it, so the tallies
        // have merged into the shared profile (serving's epilogue drops a world's
        // sinks the same way, before the epoch controller consults the planner).
        let worker = p.class_by_name("Worker").unwrap();
        let node = p.class_by_name("Node").unwrap();
        let data = std::mem::take(&mut *locked(&shared));
        // spin + make: 40 invocations each, keyed by the owning class.
        assert_eq!(data.invocation_counts.get(&worker), Some(&80));
        assert!(data.alloc_bytes.get(&node).copied().unwrap_or(0) > 0);
        assert!(locked(&shared).is_empty(), "taking drained the profile");
    }

    #[test]
    fn aggregate_sink_skips_synthetic_method_ids() {
        let p = autodist_ir::frontend::compile_source(WORK_SRC).unwrap();
        let shared = Arc::default();
        let mut sink = sink(&p, &shared);
        // A method id past the original program's table (a rewrite-appended
        // accessor) must not be attributed to any application class; nor may an
        // allocation of a class past its class table (a proxy).
        sink.method_enter(MethodId(p.method_count() as u32 + 7), 0.0);
        sink.allocation(Some(ClassId(p.class_count() as u32)), 64);
        drop(sink);
        assert!(locked(&shared).is_empty());
    }

    #[test]
    fn a_sink_still_flushes_into_a_profile_a_panicked_holder_poisoned() {
        let p = autodist_ir::frontend::compile_source(WORK_SRC).unwrap();
        let shared: Arc<Mutex<ClassProfile>> = Arc::default();
        let poisoner = shared.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the profile");
        })
        .join();
        assert!(shared.is_poisoned());
        let mut sink = sink(&p, &shared);
        sink.method_enter(MethodId(0), 0.0);
        drop(sink);
        assert_eq!(locked(&shared).invocation_counts.len(), 1);
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
            let moved = (plan.placement.homes())
                .any(|(class, home)| planner.current_home(0, class) != home);
            assert_eq!(moved, swaps == 1, "the incumbent placement is kept");
        }
    }

    #[test]
    fn balanced_placement_declines_to_replan() {
        // Two classes on two nodes: `ClassPlacement::from_odg_partition` keeps a plan
        // on two nodes, so with `Main` pinned to node 0 `Worker` stays on node 1 no
        // matter the weights; the live profile cannot improve the cut and the planner
        // must decline — reports stay byte-identical throughout.
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
    fn a_fresh_placement_that_cuts_more_than_the_incumbent_is_declined() {
        // Profile the skewed workload, then hand the planner an incumbent no fresh run
        // can beat: every class on node 0, which cuts no live weight at all. The fresh
        // placement keeps two nodes, so the two differ and only the live-cut
        // comparison stands between them: the planner must decline and keep the
        // incumbent.
        let g = skewed();
        let program = &g.workload.program;
        let config = DistributorConfig::default();
        let plan = Distributor::new(config.clone()).distribute(program);
        let mut planner = PlanReplanner::new();
        planner.add_plan(&config, program, &plan, &ClusterConfig::paper_testbed());
        let sink = planner.profiler(0, 0);
        let report = autodist_runtime::cluster::run_centralized_profiled(program, 1.0, sink, 0);
        assert!(report.is_ok(), "{:?}", report.error);
        let state = &planner.apps[0];
        let mut odg = state.odg.clone();
        reweigh_odg(&mut odg, &locked(&state.profile));
        let graph = crate::odg_partition_graph(&odg);
        let fresh =
            ClassPlacement::from_odg_partition(program, &odg, &partition(&graph, &state.part_cfg));
        let incumbent = ClassPlacement::centralized(2);
        assert_ne!(fresh.home, incumbent.home);
        assert!(placement_cut(&odg, &fresh) > placement_cut(&odg, &incumbent));
        *locked(&state.home) = incumbent.clone();
        assert!(planner.replan(0).is_none(), "a worse placement is declined");
        assert_eq!(
            locked(&state.home).home,
            incumbent.home,
            "the incumbent stays"
        );
    }

    #[test]
    fn replan_without_any_profile_declines() {
        let g = skewed();
        let config = DistributorConfig::default();
        let plan = Distributor::new(config.clone()).distribute(&g.workload.program);
        let cluster = ClusterConfig::paper_testbed();
        let mut planner = PlanReplanner::new();
        planner.add_plan(&config, &g.workload.program, &plan, &cluster);
        // No sinks ever ran: the profile is empty and the planner declines.
        assert!(planner.replan(0).is_none());
        // Unknown app indices are not an error either.
        assert!(planner.profiler(7, 0).is_none());
    }
}
