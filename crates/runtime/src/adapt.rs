//! Adaptive placement: the online profile → repartition loop for serving mode.
//!
//! The pipeline's placement is computed once, offline, from static estimates; when
//! live traffic concentrates on objects the static plan happened to pin to the wrong
//! rank, every request pays cross-node round-trips that a better-informed placement
//! would not. This module closes the loop **between requests**: an epoch controller
//! ([`AdaptState`], owned by `run_serving`) accumulates per-request observations —
//! cross-node message and byte counts from each completed
//! [`ExecutionReport`](crate::cluster::ExecutionReport), plus whatever per-class
//! profile the planner's sinks gather — and at every epoch boundary asks a
//! [`Replanner`] for a better placement. When the planner returns one, the
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
//! partitioner. Placements produced mid-run are kept alive in a [`SnapshotArena`]
//! (append-only, so admitted interpreters can borrow placed programs for the rest
//! of the serving run).

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::cluster::ExecutionReport;
use crate::interp::ProfilerSink;
use crate::serve::ServerApp;

/// What the epoch controller observed about one app since its last repartition,
/// handed to [`Replanner::replan`] when an epoch closes.
#[derive(Clone, Debug)]
pub struct EpochProfile {
    /// Index of the app (into `run_serving`'s `apps` slice) the epoch belongs to.
    pub app: usize,
    /// Completed requests of this app in the epoch.
    pub requests: usize,
    /// Cross-node messages those requests exchanged (virtual-time deterministic).
    pub messages: u64,
    /// Cross-node bytes those requests exchanged.
    pub bytes: u64,
}

impl EpochProfile {
    /// Observed cross-node bytes per completed request.
    pub fn bytes_per_request(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.bytes as f64 / self.requests as f64
    }
}

/// The half of the adaptation loop the runtime cannot provide itself: turning a
/// live profile into a better placement. Implemented above the runtime (by
/// `autodist::PlanReplanner`, which owns the ODG and the partitioner) and by tests.
pub trait Replanner: Send + Sync {
    /// Computes a new prepared placement for `profile.app` from the epoch's live
    /// profile, or `None` when the current placement should be kept (balanced
    /// profile, no strictly better cut). A returned app must span the same number
    /// of virtual nodes as the one it replaces.
    fn replan(&self, profile: &EpochProfile) -> Option<ServerApp>;

    /// A profiler sink to attach to node `rank` of a newly admitted request of
    /// `app`, plus its sampling interval (0 for instrumentation-only sinks). This
    /// is the planner's side channel for per-class hot-method weights — the epoch
    /// controller itself only sees per-request traffic totals. Returning `None`
    /// (the default) admits the request unprofiled.
    fn profiler(&self, app: usize, rank: usize) -> Option<(Box<dyn ProfilerSink>, u64)> {
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

/// Append-only arena keeping mid-run placements alive for the rest of the serving
/// run. Admitted interpreters borrow the placed [`ServerApp`]s (programs and
/// layouts) for as long as their request lives, so a swapped-out placement cannot
/// be freed while any request started under it is still in flight — the arena
/// simply never frees until the run ends.
#[derive(Default)]
pub(crate) struct SnapshotArena {
    // The per-slot Box is load-bearing, not indirection for its own sake: `alloc`
    // hands out references that must survive the Vec reallocating.
    #[allow(clippy::vec_box)]
    slots: Mutex<Vec<Box<ServerApp>>>,
}

impl SnapshotArena {
    /// Stores `app` and returns a reference that lives as long as the arena.
    ///
    /// SAFETY rationale for the `unsafe` below: the `ServerApp` is boxed, so its
    /// address is stable across `Vec` reallocation; slots are append-only and
    /// never dropped or replaced before the arena itself drops; and the returned
    /// borrow is tied to `&self`, so it cannot outlive the arena.
    pub(crate) fn alloc(&self, app: ServerApp) -> &ServerApp {
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        slots.push(Box::new(app));
        let stable: *const ServerApp = &**slots.last().expect("just pushed");
        unsafe { &*stable }
    }
}

/// Per-app accumulator and the currently installed placement (`None` = the seed
/// placement the caller passed to `run_serving`).
struct AppEpoch<'s> {
    current: Option<&'s ServerApp>,
    admitted: usize,
    completed: usize,
    messages: u64,
    bytes: u64,
}

/// The epoch controller of one serving run: owned by the run's `sched::Server` when
/// `ServeOptions::adapt` is set, untouched (and unallocated) otherwise.
pub(crate) struct AdaptState<'s> {
    opts: &'s AdaptOptions,
    arena: &'s SnapshotArena,
    apps: Vec<Mutex<AppEpoch<'s>>>,
    swaps: AtomicUsize,
}

impl<'s> AdaptState<'s> {
    pub(crate) fn new(opts: &'s AdaptOptions, arena: &'s SnapshotArena, apps: usize) -> Self {
        AdaptState {
            opts,
            arena,
            apps: (0..apps)
                .map(|_| {
                    Mutex::new(AppEpoch {
                        current: None,
                        admitted: 0,
                        completed: 0,
                        messages: 0,
                        bytes: 0,
                    })
                })
                .collect(),
            swaps: AtomicUsize::new(0),
        }
    }

    /// The placement requests of `app` are currently admitted under (`None` = the
    /// seed placement).
    pub(crate) fn current(&self, app: usize) -> Option<&'s ServerApp> {
        self.apps[app]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .current
    }

    /// Whether a request of `app` being admitted now should carry profiler sinks:
    /// only the first [`PROFILED_ADMISSIONS`] admissions of each epoch do, so the
    /// bulk of traffic runs uninstrumented. Called once per admission (it advances
    /// the epoch's admission counter).
    pub(crate) fn admit_profiled(&self, app: usize) -> bool {
        let mut epoch = self.apps[app].lock().unwrap_or_else(|e| e.into_inner());
        epoch.admitted += 1;
        epoch.admitted <= PROFILED_ADMISSIONS
    }

    /// The planner's profiler sink for node `rank` of a new request of `app`.
    pub(crate) fn profiler_for(
        &self,
        app: usize,
        rank: usize,
    ) -> Option<(Box<dyn ProfilerSink>, u64)> {
        self.opts.planner.profiler(app, rank)
    }

    /// Placements installed so far (for the run's aggregate report).
    pub(crate) fn swaps(&self) -> usize {
        self.swaps.load(Ordering::SeqCst)
    }

    /// Feeds one completed request's report into the epoch accumulator and, at an
    /// epoch boundary, consults the planner. A successful replan
    /// installs the new placement for subsequently admitted requests of `app`.
    ///
    /// The per-app lock is held across the replan on purpose: concurrent
    /// completions of the *same* app queue behind the repartition (their epochs
    /// must not interleave with it), while other apps and all admissions of other
    /// apps proceed untouched.
    pub(crate) fn observe(&self, app: usize, expected_nodes: usize, report: &ExecutionReport) {
        let mut epoch = self.apps[app].lock().unwrap_or_else(|e| e.into_inner());
        epoch.completed += 1;
        epoch.messages += report.total_messages();
        epoch.bytes += report.total_bytes();
        if epoch.completed < self.opts.epoch_requests.max(1) {
            return;
        }
        let profile = EpochProfile {
            app,
            requests: epoch.completed,
            messages: epoch.messages,
            bytes: epoch.bytes,
        };
        epoch.admitted = 0;
        epoch.completed = 0;
        epoch.messages = 0;
        epoch.bytes = 0;
        if let Some(next) = self.opts.planner.replan(&profile) {
            assert_eq!(
                next.nodes(),
                expected_nodes,
                "a replanned placement must span the same virtual nodes"
            );
            epoch.current = Some(self.arena.alloc(next));
            self.swaps.fetch_add(1, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NeverReplan;
    impl Replanner for NeverReplan {
        fn replan(&self, _profile: &EpochProfile) -> Option<ServerApp> {
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

    #[test]
    fn epoch_profile_rates() {
        let p = EpochProfile {
            app: 0,
            requests: 4,
            messages: 8,
            bytes: 1024,
        };
        assert_eq!(p.bytes_per_request(), 256.0);
        let empty = EpochProfile {
            app: 0,
            requests: 0,
            messages: 0,
            bytes: 0,
        };
        assert_eq!(empty.bytes_per_request(), 0.0);
    }
}
