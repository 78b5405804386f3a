//! The deterministic serving sections of the identity baseline ([`crate::baseline`]).
//!
//! Two closed loops over `autodist_runtime::serve`, both counted rather than timed
//! (the frozen benchmark's `serve_steady` / `serve_degraded` workloads own serving
//! *time*):
//!
//! * [`measure_serving`] drives a fixed mix of Table 1 programs (`serving_mix`,
//!   prepared once so every request shares the interned layouts) through the
//!   `Inline` schedule and reports the cross-node message and byte totals. One
//!   schedule is enough: `tests/serving_parity.rs` pins `Pool == Inline` request by
//!   request.
//! * [`measure_adaptive_serving`] A/Bs the affinity-skewed generated workload with
//!   adaptation off vs. on (the epoch controller's profile-driven repartition) and
//!   reports both arms' message volume.

use autodist::{
    AdaptOptions, Distributor, DistributorConfig, PipelineResult, PlanReplanner, Replanner,
    ServeOptions, ServerApp,
};
use autodist_runtime::cluster::{ClusterConfig, Schedule};
use autodist_runtime::serve::run_serving;
use autodist_workloads::GenConfig;
use std::sync::Arc;

/// Requests the serving mix is driven for.
pub const REQUESTS: usize = 48;
/// The closed-loop admission window.
pub const CONCURRENCY: usize = 16;

/// The serving mix's traffic totals.
#[derive(Clone, Debug)]
pub struct ServingArea {
    /// Requests served.
    pub requests: usize,
    /// Admission window.
    pub concurrency: usize,
    /// Total cross-node messages over the run's requests (identical across runs
    /// and schedules).
    pub messages: u64,
    /// Total cross-node bytes over the run's requests.
    pub bytes: u64,
    /// `true` when every request completed without a fault.
    pub all_ok: bool,
}

/// The deterministic workload mix the load generator cycles through: three Table 1
/// programs with distinct shapes (object-graph traffic, virtual dispatch, array
/// number crunching), sized so one request is a fraction of a millisecond.
fn serving_mix() -> PipelineResult<Vec<ServerApp>> {
    let distributor = Distributor::new(DistributorConfig::default());
    let cluster = ClusterConfig::paper_testbed();
    let mut apps = Vec::new();
    for w in [
        autodist_workloads::bank(40),
        autodist_workloads::method_bench(200),
        autodist_workloads::crypt(400),
    ] {
        let plan = distributor.try_distribute(&w.program)?;
        apps.push(plan.prepare_server(&cluster));
    }
    Ok(apps)
}

/// The request sequence: `requests` entries cycling round-robin over the mix, so
/// every run serves the identical workload multiset in the identical submission
/// order.
pub fn round_robin_sequence(apps: usize, requests: usize) -> Vec<usize> {
    (0..requests).map(|i| i % apps.max(1)).collect()
}

/// Serves [`REQUESTS`] requests of the mix at window [`CONCURRENCY`] on the
/// calling thread and counts the traffic.
pub fn measure_serving() -> PipelineResult<ServingArea> {
    let apps = serving_mix()?;
    let sequence = round_robin_sequence(apps.len(), REQUESTS);
    let opts = ServeOptions {
        concurrency: CONCURRENCY,
        schedule: Schedule::Inline,
        ..ServeOptions::default()
    };
    let run = run_serving(&apps, &sequence, &opts);
    Ok(ServingArea {
        requests: run.requests.len(),
        concurrency: run.concurrency,
        messages: run.total_messages(),
        bytes: run.total_bytes(),
        all_ok: run.is_ok(),
    })
}

/// The static-vs-adaptive A/B comparison on the affinity-skewed generated
/// workload: same requests, same admission order, same schedule — the only
/// difference is whether `ServeOptions::adapt` carries a [`PlanReplanner`].
#[derive(Clone, Debug)]
pub struct AdaptiveServingArea {
    /// Requests served by each arm.
    pub requests: usize,
    /// Epoch length the adaptive arm repartitions at.
    pub epoch_requests: usize,
    /// Cross-node messages under the static (build-time) placement.
    pub static_messages: u64,
    /// Cross-node bytes under the static placement.
    pub static_bytes: u64,
    /// Cross-node messages with online adaptation enabled.
    pub adaptive_messages: u64,
    /// Cross-node bytes with online adaptation enabled.
    pub adaptive_bytes: u64,
    /// Placement swaps the epoch controller committed during the adaptive run.
    pub placement_swaps: usize,
    /// `true` when every request of both arms completed without a fault.
    pub all_ok: bool,
    /// `true` when every adaptive request produced the same root checksum as the
    /// static request at the same sequence position (adaptation must never change
    /// results, only where they are computed).
    pub checksums_match: bool,
}

/// The canonical skewed workload the adaptive A/B serves: a generated app whose
/// call affinity concentrates on one hot chain (`affinity_skew: 8.0`), so the
/// build-time balanced placement pays 8 cross-node messages per request while the
/// profile-driven replan co-locates the chain down to 2.
pub fn adaptive_workload_config() -> GenConfig {
    GenConfig {
        width: 4,
        depth: 3,
        fan_out: 2,
        affinity_skew: 8.0,
        ..GenConfig::default()
    }
}

/// Requests per adaptive A/B arm.
pub const ADAPTIVE_REQUESTS: usize = 32;
/// Epoch length for the adaptive arm: the controller observes the first epoch
/// under the static placement, then repartitions for the remaining requests.
pub const ADAPTIVE_EPOCH: usize = 16;

/// Measures the adaptive-placement A/B: the skewed workload served twice under
/// `Schedule::Inline`, concurrency 1 (fully deterministic admission order, so the
/// message totals are exact), once with `adapt: None` and once with a
/// [`PlanReplanner`].
pub fn measure_adaptive_serving() -> PipelineResult<AdaptiveServingArea> {
    let generated = autodist_workloads::generated(&adaptive_workload_config());
    let distributor = Distributor::new(DistributorConfig::default());
    let cluster = ClusterConfig::paper_testbed();
    let plan = distributor.try_distribute(&generated.workload.program)?;
    let apps = vec![plan.prepare_server(&cluster)];
    let sequence = vec![0usize; ADAPTIVE_REQUESTS];

    let static_opts = ServeOptions {
        concurrency: 1,
        schedule: Schedule::Inline,
        ..ServeOptions::default()
    };
    let mut planner = PlanReplanner::new();
    planner.add_plan(
        &distributor.config,
        &generated.workload.program,
        &plan,
        &cluster,
    );
    let adaptive_opts = ServeOptions {
        adapt: Some(
            AdaptOptions::new(Arc::new(planner) as Arc<dyn Replanner>).with_epoch(ADAPTIVE_EPOCH),
        ),
        ..static_opts.clone()
    };

    let static_run = run_serving(&apps, &sequence, &static_opts);
    let adaptive_run = run_serving(&apps, &sequence, &adaptive_opts);
    let checksums_match = static_run.requests.len() == adaptive_run.requests.len()
        && static_run
            .requests
            .iter()
            .zip(adaptive_run.requests.iter())
            .all(|(s, a)| s.report.final_statics == a.report.final_statics);
    Ok(AdaptiveServingArea {
        requests: ADAPTIVE_REQUESTS,
        epoch_requests: ADAPTIVE_EPOCH,
        static_messages: static_run.total_messages(),
        static_bytes: static_run.total_bytes(),
        adaptive_messages: adaptive_run.total_messages(),
        adaptive_bytes: adaptive_run.total_bytes(),
        placement_swaps: adaptive_run.placement_swaps,
        all_ok: static_run.is_ok() && adaptive_run.is_ok(),
        checksums_match,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_covers_every_app() {
        let seq = round_robin_sequence(3, 7);
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(round_robin_sequence(1, 3), vec![0, 0, 0]);
    }
}
