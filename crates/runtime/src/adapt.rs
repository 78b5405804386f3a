//! Adaptive placement: the online profile → repartition loop for serving mode.
//!
//! The pipeline's placement is computed once, offline, from static estimates; when
//! live traffic concentrates on objects the static plan happened to pin to the wrong
//! rank, every request pays cross-node round-trips that a better-informed placement
//! would not. This module closes the loop **between requests**: an epoch controller
//! (`AdaptState`, owned by `run_serving`) counts each app's completed requests, and
//! at every epoch boundary asks a [`Replanner`] — which reads the per-class profile
//! its own sinks gathered — for a better placement. When the planner returns one, the
//! controller swaps it in for **subsequently admitted** requests.
//!
//! An epoch closes every [`AdaptOptions::epoch_requests`] completed requests of an
//! app.
//!
//! **In-flight requests are never migrated.** A request's world (mailboxes, virtual
//! clocks, interpreters over the placed programs) is instantiated at admission and
//! sealed; moving a live object graph between ranks mid-computation would require
//! distributed state transfer the paper's runtime does not have, and would destroy
//! the per-request determinism the serving mode is pinned to. Instead a swap only
//! changes what the *next* admission instantiates — every request's report stays
//! byte-identical to a solo run under the placement it started with.
//!
//! The runtime deliberately does not know how to repartition (that is the analysis/
//! partition/codegen pipeline, which sits *above* this crate): the [`Replanner`]
//! trait inverts the dependency, and `autodist`'s `PlanReplanner` implements it by
//! re-weighting the plan's ODG with the live profile and re-running the multilevel
//! partitioner. The controller holds the installed placement as an `Arc<ServerApp>`
//! and every admitted world clones the per-node layout `Arc`s it runs, so a
//! swapped-out placement is freed when the last request admitted under it completes.

use std::fmt;
use std::sync::Arc;

use crate::interp::ProfilerSink;
use crate::serve::ServerApp;

/// The half of the adaptation loop the runtime cannot provide itself: turning a
/// live profile into a better placement. Implemented above the runtime (by
/// `autodist::PlanReplanner`, which owns the ODG and the partitioner) and by tests.
pub trait Replanner: Send + Sync {
    /// Computes a new prepared placement for `app` (an index into `run_serving`'s
    /// `apps`) from the profile its sinks gathered since the last call, or `None`
    /// when the current placement should be kept (balanced profile, no strictly
    /// better cut). A returned app must span the same number of virtual nodes as
    /// the one it replaces.
    fn replan(&self, app: usize) -> Option<ServerApp>;

    /// A profiler sink to attach to node `rank` of a newly admitted request of
    /// `app`: the planner's side channel for per-class hot-method weights (the
    /// epoch controller itself only counts requests). Sinks are instrumentation
    /// only; nothing samples. Returning `None` (the default) admits the request
    /// unprofiled.
    fn profiler(&self, app: usize, rank: usize) -> Option<Box<dyn ProfilerSink>> {
        let _ = (app, rank);
        None
    }
}

/// Configuration of the adaptive-placement epoch controller
/// (`ServeOptions::adapt`). Absent (`None`), serving is byte-identical to the
/// pre-adaptation server: no sinks are attached, no state is accumulated.
#[derive(Clone)]
pub struct AdaptOptions {
    /// Completed requests per app between repartition attempts. Clamped to >= 1.
    pub epoch_requests: usize,
    /// The planner consulted at every epoch boundary.
    pub planner: Arc<dyn Replanner>,
}

/// Admissions per epoch that get the planner's profiler sinks attached. Per-class
/// weights only feed *relative* hot-method ratios into the repartition, so profiling
/// a prefix of each epoch's admissions is as informative as profiling all of them —
/// and the remaining requests run uninstrumented at full interpreter speed, keeping
/// the adaptive arm's throughput at parity with the static server.
const PROFILED_ADMISSIONS: usize = 4;

impl AdaptOptions {
    /// Options with the default epoch length (16 requests).
    pub fn new(planner: Arc<dyn Replanner>) -> Self {
        AdaptOptions {
            epoch_requests: 16,
            planner,
        }
    }

    /// Sets the epoch length in completed requests.
    pub fn with_epoch(mut self, requests: usize) -> Self {
        self.epoch_requests = requests.max(1);
        self
    }
}

impl fmt::Debug for AdaptOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdaptOptions")
            .field("epoch_requests", &self.epoch_requests)
            .field("planner", &"<dyn Replanner>")
            .finish()
    }
}

/// Per-app epoch counters and the currently installed placement (`None` = the seed
/// placement the caller passed to `run_serving`).
#[derive(Default)]
struct AppEpoch {
    current: Option<Arc<ServerApp>>,
    admitted: usize,
    completed: usize,
    /// Placements installed so far.
    swaps: usize,
}

/// The epoch controller of one serving run: owned by the run's `sched::Server` when
/// `ServeOptions::adapt` is set, untouched (and unallocated) otherwise.
pub(crate) struct AdaptState {
    opts: AdaptOptions,
    apps: Vec<AppEpoch>,
}

impl AdaptState {
    pub(crate) fn new(opts: AdaptOptions, apps: usize) -> Self {
        AdaptState {
            opts,
            apps: (0..apps).map(|_| AppEpoch::default()).collect(),
        }
    }

    /// Admits one request of `app`: the placement it runs under (`None` = the seed
    /// placement) and whether it carries profiler sinks — only the first
    /// [`PROFILED_ADMISSIONS`] admissions of each epoch do, so the bulk of traffic
    /// runs uninstrumented. Called once per admission (it advances the epoch's
    /// admission counter).
    pub(crate) fn admit(&mut self, app: usize) -> (Option<Arc<ServerApp>>, bool) {
        let epoch = &mut self.apps[app];
        epoch.admitted += 1;
        (epoch.current.clone(), epoch.admitted <= PROFILED_ADMISSIONS)
    }

    /// The planner's profiler sink for node `rank` of a new request of `app`.
    pub(crate) fn profiler_for(&self, app: usize, rank: usize) -> Option<Box<dyn ProfilerSink>> {
        self.opts.planner.profiler(app, rank)
    }

    /// Placements installed so far (for the run's aggregate report).
    pub(crate) fn swaps(&self) -> usize {
        self.apps.iter().map(|epoch| epoch.swaps).sum()
    }

    /// Counts one completed request of `app` (a placement over `nodes` virtual
    /// nodes) and, at an epoch boundary, consults the planner. A successful replan
    /// installs the new placement for subsequently admitted requests of `app`;
    /// the one it replaces lives on only in the worlds still running under it.
    pub(crate) fn observe(&mut self, app: usize, nodes: usize) {
        let epoch = &mut self.apps[app];
        epoch.completed += 1;
        if epoch.completed < self.opts.epoch_requests.max(1) {
            return;
        }
        epoch.admitted = 0;
        epoch.completed = 0;
        if let Some(next) = self.opts.planner.replan(app) {
            assert_eq!(
                next.nodes(),
                nodes,
                "a replanned placement must span the same virtual nodes"
            );
            epoch.current = Some(Arc::new(next));
            epoch.swaps += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NeverReplan;
    impl Replanner for NeverReplan {
        fn replan(&self, _app: usize) -> Option<ServerApp> {
            None
        }
    }

    #[test]
    fn options_builders_clamp_and_configure() {
        let opts = AdaptOptions::new(Arc::new(NeverReplan));
        assert_eq!(opts.epoch_requests, 16);
        let opts = opts.with_epoch(0);
        assert_eq!(opts.epoch_requests, 1, "epoch length clamps to 1");
        let dbg = format!("{:?}", opts.with_epoch(5));
        assert!(dbg.contains("epoch_requests: 5"), "{dbg}");
    }
}
