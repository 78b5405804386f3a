//! Serving mode: the cluster as a server admitting N concurrent root computations.
//!
//! An ingress admits requests one after another; each request is a full root
//! computation over its **own request-scoped world** — mailboxes owned by the world,
//! fresh virtual clocks, fresh correlation ids, fresh per-node interpreters — run until
//! it finishes or waits on a sequence gap, and up to `concurrency` requests may wait on
//! a gap at once. This module is the public surface (prepared apps, options, reports);
//! the loop that drives it is the one worker loop of [`crate::sched`], on the calling
//! thread, the same one a single [`crate::cluster::run_distributed`] goes through as a
//! one-request run.
//!
//! Isolation is what makes the results reproducible: a request's virtual clocks and
//! message counts depend only on its own packet order, which its private FIFO
//! mailboxes and the synchronous request/response protocol fix regardless of how
//! many other requests are in flight or in which order the loop runs them. N
//! concurrent requests therefore produce byte-identical per-request
//! [`ExecutionReport`]s to running the same requests one at a time (pinned by
//! `tests/serving_parity.rs`) — faulted ones included: a world whose pending list runs
//! dry is recovered or failed on its own, the moment it happens, whatever its
//! neighbours are doing.
//!
//! The expensive part of spinning up a request — decoding, translating and interning the
//! placed programs into a [`ProgramLayout`], and the per-class default field vectors
//! beside each — is hoisted into [`ServerApp::prepare`] and shared by every request
//! via `Arc`, so admission cost is just interpreter state (empty heap, a copy of the
//! default statics) plus one empty mailbox per node. A [`ServerApp`] is nothing but
//! those layouts (each owning its program), their defaults and the cost model, and a
//! world holds its own `Arc`s of them: an app — or a placement the adaptive
//! controller swapped out — lives exactly as long as its last request.

use std::sync::Arc;
use std::time::Instant;

use autodist_ir::layout::ProgramLayout;
use autodist_ir::program::Program;

use crate::adapt::{AdaptOptions, AdaptState};
use crate::cluster::{ExecutionReport, Schedule};
use crate::interp::ClassDefaults;
use crate::net::{FaultPlan, NetworkConfig};
use crate::sched::{Server, SERVING_DELIVERY_DEADLINE};

/// A *prepared* application the server can instantiate per request: one pre-built
/// (shared) layout per node — each owning its placed program — with its class
/// defaults, and the cost model.
pub struct ServerApp {
    pub(crate) layouts: Vec<Arc<ProgramLayout>>,
    pub(crate) defaults: Vec<Arc<ClassDefaults>>,
    pub(crate) network: NetworkConfig,
}

impl ServerApp {
    /// Builds the per-node layouts once, as one family (the copies share their shape
    /// tables and every body the rewriter left alone); every admitted request's
    /// interpreters share them. `programs[rank]` must be the copy rewritten for
    /// `rank`, and the network must describe exactly `programs.len()` nodes.
    pub fn prepare(programs: Vec<Program>, network: NetworkConfig) -> Self {
        assert_eq!(
            programs.len(),
            network.nodes(),
            "one placed program per network node"
        );
        let layouts: Vec<_> = ProgramLayout::build_family(programs, Default::default())
            .into_iter()
            .map(Arc::new)
            .collect();
        // A plan's copies share one shape, hence one table of defaults.
        let mut defaults: Vec<Arc<ClassDefaults>> = Vec::with_capacity(layouts.len());
        for (rank, layout) in layouts.iter().enumerate() {
            let same_shape = rank > 0 && layouts[rank - 1].fingerprint() == layout.fingerprint();
            let table = match defaults.last() {
                Some(table) if same_shape => Arc::clone(table),
                _ => Arc::new(ClassDefaults::of(layout)),
            };
            defaults.push(table);
        }
        ServerApp {
            layouts,
            defaults,
            network,
        }
    }

    /// Number of virtual nodes a request of this app spans.
    pub fn nodes(&self) -> usize {
        self.layouts.len()
    }
}

/// Ingress configuration for [`run_serving`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Maximum number of requests waiting on a sequence gap at once (the
    /// closed-loop load generator's window): a request runs until it finishes or
    /// waits on a gap, and when the window is full of waiting ones the delivery
    /// deadline repairs them. Clamped to at least 1.
    pub concurrency: usize,
    /// Kept for callers that name it: every [`Schedule`] drives the whole closed
    /// loop on the calling thread.
    pub schedule: Schedule,
    /// Per-request fault plans, keyed by submission index: at most one per request,
    /// each index inside the sequence (`run_serving` panics otherwise). A listed request's
    /// world is built with that plan, so injected faults are scoped to that request
    /// alone: its report — typed error, fault counters, clocks — is byte-identical
    /// to its solo faulted run while every other request stays byte-identical to
    /// its solo healthy run (pinned by `tests/serving_parity.rs`). Unlisted
    /// requests pay nothing.
    pub faults: Vec<(usize, FaultPlan)>,
    /// Adaptive placement (see [`crate::adapt`]): when set, the planner's sinks
    /// profile a prefix of each epoch's requests and the server repartitions
    /// between requests at epoch boundaries. `None` (the default) is zero-cost —
    /// no sinks are attached, no state is kept, and serving is byte-identical to a
    /// server without the feature (like `faults`).
    pub adapt: Option<AdaptOptions>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            concurrency: 16,
            schedule: Schedule::Inline,
            faults: Vec::new(),
            adapt: None,
        }
    }
}

/// The outcome of one served request.
#[derive(Debug)]
pub struct RequestReport {
    /// Position in the submitted sequence.
    pub index: usize,
    /// Index into the `apps` slice this request instantiated.
    pub app: usize,
    /// Wall-clock latency from admission to completion, in microseconds.
    pub latency_us: f64,
    /// The request's full execution report — virtual time, per-node traffic and
    /// final statics are byte-identical to running the request alone.
    pub report: ExecutionReport,
}

/// The load generator's aggregate view of one serving run.
#[derive(Debug)]
pub struct ServingReport {
    /// The admission window the run used.
    pub concurrency: usize,
    /// Wall-clock time of the whole run in milliseconds.
    pub wall_time_ms: f64,
    /// Placements the adaptive epoch controller installed during the run
    /// (0 when adaptation is off or the planner never improved on the seed).
    pub placement_swaps: usize,
    /// Per-request outcomes, in submission order.
    pub requests: Vec<RequestReport>,
}

impl ServingReport {
    /// Completed requests per wall-clock second.
    pub fn requests_per_sec(&self) -> f64 {
        if self.wall_time_ms <= 0.0 {
            return 0.0;
        }
        self.requests.len() as f64 / (self.wall_time_ms / 1e3)
    }

    /// Nearest-rank latency percentile in microseconds (`q` in 0..=1).
    pub fn latency_percentile_us(&self, q: f64) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        let mut lat: Vec<f64> = self.requests.iter().map(|r| r.latency_us).collect();
        lat.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let rank = ((q.clamp(0.0, 1.0) * lat.len() as f64).ceil() as usize).max(1) - 1;
        lat[rank.min(lat.len() - 1)]
    }

    /// `true` when every request completed without a runtime fault.
    pub fn is_ok(&self) -> bool {
        self.requests.iter().all(|r| r.report.is_ok())
    }

    /// Total cross-node messages over all requests (virtual-time deterministic).
    pub fn total_messages(&self) -> u64 {
        self.requests
            .iter()
            .map(|r| r.report.total_messages())
            .sum()
    }

    /// Total cross-node bytes over all requests.
    pub fn total_bytes(&self) -> u64 {
        self.requests.iter().map(|r| r.report.total_bytes()).sum()
    }
}

/// Runs the closed-loop server: `sequence[i]` names the app request `i`
/// instantiates, at most `opts.concurrency` requests are in flight at once, and the
/// run ends when every request has completed. Returns per-request reports (in
/// submission order) plus the aggregate throughput/latency view.
pub fn run_serving(apps: &[ServerApp], sequence: &[usize], opts: &ServeOptions) -> ServingReport {
    assert!(!apps.is_empty(), "at least one prepared app");
    assert!(
        sequence.iter().all(|&i| i < apps.len()),
        "sequence indexes into apps"
    );
    let mut faults = vec![None; sequence.len()];
    for (index, plan) in &opts.faults {
        let slot = faults
            .get_mut(*index)
            .expect("fault plans index into the sequence");
        assert!(slot.is_none(), "one fault plan per request");
        *slot = Some(plan.clone());
    }
    let concurrency = opts.concurrency.max(1);
    let start = Instant::now();
    let mut server = Server {
        apps,
        sequence,
        concurrency,
        faults,
        adapt: opts.adapt.clone().map(|o| AdaptState::new(o, apps.len())),
        deadline_wait: SERVING_DELIVERY_DEADLINE,
    };
    let requests = server.run(Vec::new());
    ServingReport {
        concurrency,
        wall_time_ms: start.elapsed().as_secs_f64() * 1e3,
        placement_swaps: server.adapt.as_ref().map_or(0, AdaptState::swaps),
        requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{run_distributed, ClusterConfig};
    use autodist_codegen::rewrite::{rewrite_for_node, ClassPlacement};
    use autodist_ir::frontend::compile_source;
    use std::collections::BTreeMap as Map;
    use std::sync::atomic::Ordering;
    use std::sync::{Mutex, Weak};

    const PING_SRC: &str = r#"
        class Worker {
            int bounce(int x) { return x * 2 + 1; }
        }
        class Main {
            static int result;
            static void main() {
                Worker w = new Worker();
                int acc = 0;
                int i = 0;
                while (i < 20) {
                    acc = acc + w.bounce(i);
                    i = i + 1;
                }
                result = acc;
            }
        }
    "#;

    /// The ping program's two node copies, `Main` on node 0 and `Worker` on
    /// `worker_home`.
    fn ping_copies(worker_home: usize) -> Vec<Program> {
        let p = compile_source(PING_SRC).unwrap();
        let mut home = Map::new();
        home.insert(p.class_by_name("Main").unwrap(), 0);
        home.insert(p.class_by_name("Worker").unwrap(), worker_home);
        let placement = ClassPlacement::new(2, home);
        (0..2)
            .map(|n| rewrite_for_node(&p, &placement, n).program)
            .collect()
    }

    fn ping_app() -> ServerApp {
        ServerApp::prepare(ping_copies(1), NetworkConfig::paper_testbed())
    }

    fn ping_single_run() -> ExecutionReport {
        run_distributed(&ping_copies(1), &ClusterConfig::paper_testbed())
    }

    fn assert_matches_single(report: &ServingReport, single: &ExecutionReport) {
        assert!(report.is_ok(), "{:?}", report.requests[0].report.error);
        for req in &report.requests {
            assert_eq!(
                req.report.virtual_time_us, single.virtual_time_us,
                "request {} virtual time differs from a solo run",
                req.index
            );
            assert_eq!(req.report.total_messages(), single.total_messages());
            assert_eq!(req.report.total_bytes(), single.total_bytes());
            assert_eq!(
                req.report.final_statics.get("Main::result"),
                single.final_statics.get("Main::result")
            );
        }
    }

    #[test]
    fn inline_serving_matches_solo_runs_at_any_concurrency() {
        let app = ping_app();
        let single = ping_single_run();
        assert!(single.is_ok(), "{:?}", single.error);
        for concurrency in [1, 7] {
            let report = run_serving(
                std::slice::from_ref(&app),
                &[0; 12],
                &ServeOptions {
                    concurrency,
                    schedule: Schedule::Inline,
                    ..ServeOptions::default()
                },
            );
            assert_eq!(report.requests.len(), 12);
            assert_matches_single(&report, &single);
            assert!(report.requests_per_sec() > 0.0);
        }
    }

    /// `Schedule::Pool` is still accepted and runs the same loop on the calling
    /// thread: its `threads` are ignored.
    #[test]
    fn pool_serving_matches_solo_runs() {
        let app = ping_app();
        let single = ping_single_run();
        let report = run_serving(
            std::slice::from_ref(&app),
            &[0; 24],
            &ServeOptions {
                concurrency: 16,
                schedule: Schedule::Pool { threads: 4 },
                ..ServeOptions::default()
            },
        );
        assert_eq!(report.requests.len(), 24);
        assert_matches_single(&report, &single);
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let app = ping_app();
        let report = run_serving(
            std::slice::from_ref(&app),
            &[0; 10],
            &ServeOptions {
                concurrency: 4,
                schedule: Schedule::Inline,
                ..ServeOptions::default()
            },
        );
        let p50 = report.latency_percentile_us(0.50);
        let p99 = report.latency_percentile_us(0.99);
        assert!(p50 > 0.0);
        assert!(p99 >= p50);
        assert!(report.requests.iter().all(|r| r.latency_us > 0.0));
    }

    /// A planner that, on its first consultation, moves every class onto node 0
    /// (still spanning two virtual nodes, so the placement shape is unchanged —
    /// only the homes move). Later requests then bounce locally: zero messages.
    struct Colocate {
        fired: std::sync::atomic::AtomicBool,
    }

    impl crate::adapt::Replanner for Colocate {
        fn replan(&self, app: usize) -> Option<ServerApp> {
            assert_eq!(app, 0);
            if self.fired.swap(true, Ordering::SeqCst) {
                return None;
            }
            Some(ServerApp::prepare(
                ping_copies(0),
                NetworkConfig::paper_testbed(),
            ))
        }
    }

    /// The epoch swap end to end: 8 requests under the seed split placement, a
    /// repartition at the epoch boundary, then 8 more under the co-located
    /// placement — byte-identical per-placement reports, fewer messages after.
    #[test]
    fn epoch_boundary_swaps_placement_for_later_requests() {
        use crate::adapt::AdaptOptions;
        let app = ping_app();
        let single = ping_single_run();
        let planner = Arc::new(Colocate {
            fired: std::sync::atomic::AtomicBool::new(false),
        });
        let report = run_serving(
            std::slice::from_ref(&app),
            &[0; 16],
            &ServeOptions {
                concurrency: 1,
                schedule: Schedule::Inline,
                adapt: Some(AdaptOptions::new(planner).with_epoch(8)),
                ..ServeOptions::default()
            },
        );
        assert!(report.is_ok());
        assert_eq!(report.placement_swaps, 1);
        for req in &report.requests[..8] {
            assert_eq!(req.report.virtual_time_us, single.virtual_time_us);
            assert_eq!(req.report.total_messages(), single.total_messages());
        }
        for req in &report.requests[8..] {
            assert_eq!(
                req.report.total_messages(),
                0,
                "request {} should run co-located",
                req.index
            );
            assert_eq!(
                req.report.final_statics.get("Main::result"),
                single.final_statics.get("Main::result"),
                "the swap must not change results"
            );
        }
        assert!(report.total_messages() < 16 * single.total_messages());
    }

    /// A planner that always declines keeps the run byte-identical to `adapt:
    /// None` — and the observational sinks it never attaches cost nothing.
    #[test]
    fn declining_planner_changes_nothing() {
        use crate::adapt::{AdaptOptions, Replanner};
        struct Decline;
        impl Replanner for Decline {
            fn replan(&self, _app: usize) -> Option<ServerApp> {
                None
            }
        }
        let app = ping_app();
        let single = ping_single_run();
        let report = run_serving(
            std::slice::from_ref(&app),
            &[0; 12],
            &ServeOptions {
                concurrency: 4,
                schedule: Schedule::Inline,
                adapt: Some(AdaptOptions::new(Arc::new(Decline)).with_epoch(4)),
                ..ServeOptions::default()
            },
        );
        assert_eq!(report.placement_swaps, 0);
        assert_matches_single(&report, &single);
    }

    /// A planner that installs a fresh co-located placement at every epoch boundary.
    /// It keeps a `Weak` to the first one's node-0 layout and records, at its third
    /// consultation, whether that placement was freed.
    #[derive(Default)]
    struct SwapEveryEpoch(Mutex<(usize, Weak<ProgramLayout>, bool)>);

    impl crate::adapt::Replanner for SwapEveryEpoch {
        fn replan(&self, _app: usize) -> Option<ServerApp> {
            let mut state = self.0.lock().unwrap();
            let (calls, first, freed) = &mut *state;
            *calls += 1;
            if *calls == 3 {
                *freed = first.upgrade().is_none();
            }
            let app = ServerApp::prepare(ping_copies(0), NetworkConfig::paper_testbed());
            if *calls == 1 {
                *first = Arc::downgrade(&app.layouts[0]);
            }
            Some(app)
        }
    }

    /// A swapped-out placement lives only as long as the requests admitted under it:
    /// at window 1, the first swapped-in placement is replaced at the second epoch
    /// boundary, after its one request completed, and is gone by the third.
    #[test]
    fn a_swapped_out_placement_is_freed() {
        use crate::adapt::AdaptOptions;
        let planner = Arc::new(SwapEveryEpoch::default());
        let report = run_serving(
            std::slice::from_ref(&ping_app()),
            &[0; 4],
            &ServeOptions {
                concurrency: 1,
                schedule: Schedule::Inline,
                adapt: Some(AdaptOptions::new(planner.clone()).with_epoch(1)),
                ..ServeOptions::default()
            },
        );
        assert!(report.is_ok());
        assert_eq!(report.placement_swaps, 4);
        let (calls, _, freed) = &*planner.0.lock().unwrap();
        assert_eq!(*calls, 4);
        assert!(
            freed,
            "the first swapped-out placement outlived its requests"
        );
    }

    /// Serves two ping requests with `faults`.
    fn serve_two_with(faults: Vec<(usize, FaultPlan)>) -> ServingReport {
        run_serving(
            std::slice::from_ref(&ping_app()),
            &[0; 2],
            &ServeOptions {
                faults,
                ..ServeOptions::default()
            },
        )
    }

    #[test]
    #[should_panic(expected = "one fault plan per request")]
    fn a_second_fault_plan_for_one_request_is_rejected() {
        serve_two_with(vec![
            (1, FaultPlan::quiet(1)),
            (1, FaultPlan::drop_packet(0)),
        ]);
    }

    #[test]
    #[should_panic(expected = "fault plans index into the sequence")]
    fn a_fault_plan_past_the_sequence_is_rejected() {
        serve_two_with(vec![(2, FaultPlan::drop_packet(0))]);
    }

    #[test]
    fn serving_mixes_apps_and_reports_per_request_apps() {
        let app = ping_app();
        let single_node = {
            let p = compile_source(PING_SRC).unwrap();
            let placement = ClassPlacement::centralized(1);
            let programs = vec![rewrite_for_node(&p, &placement, 0).program];
            ServerApp::prepare(programs, NetworkConfig::uniform(1))
        };
        let apps = [app, single_node];
        let sequence = [0, 1, 0, 1, 0];
        let report = run_serving(
            &apps,
            &sequence,
            &ServeOptions {
                concurrency: 3,
                schedule: Schedule::Inline,
                ..ServeOptions::default()
            },
        );
        assert!(report.is_ok());
        for (i, req) in report.requests.iter().enumerate() {
            assert_eq!(req.index, i);
            assert_eq!(req.app, sequence[i]);
        }
        // The single-node requests never message; the split ones do.
        assert_eq!(report.requests[1].report.total_messages(), 0);
        assert!(report.requests[0].report.total_messages() > 0);
    }
}
