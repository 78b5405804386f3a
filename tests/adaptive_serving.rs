//! Adaptive placement: the online profile → repartition loop in serving mode.
//!
//! Two properties here; the third — **off means off**: with `ServeOptions::adapt:
//! None` (the default) the Table 1 distributed runs keep their committed virtual
//! times and message counts — is the `workloads` section of `BENCH_baseline.json`,
//! pinned by `autodist_bench::baseline`'s `committed_baseline_is_current`.
//!
//! 1. **Epoch swap helps later requests only.** On the affinity-skewed generated
//!    workload, requests admitted before the first epoch boundary execute
//!    byte-identically to a solo run under the build-time placement; requests
//!    after the boundary run under the repartitioned placement and exchange
//!    strictly fewer cross-node messages — with identical results.
//! 2. **No-op repartition.** When the live profile agrees with the build-time
//!    weights (a balanced workload), the controller declines to swap and every
//!    request stays byte-identical to solo execution.
//!
//! CI runs this binary under the watchdog timeout.

use std::sync::Arc;

use autodist::{
    AdaptOptions, Distributor, DistributorConfig, PlanReplanner, Replanner, ServeOptions,
};
use autodist_bench::serving::{adaptive_workload_config, measure_adaptive_serving};
use autodist_runtime::cluster::{ClusterConfig, Schedule};
use autodist_runtime::serve::run_serving;

#[test]
fn epoch_swap_cuts_messages_for_later_requests_only() {
    let generated = autodist_workloads::generated(&adaptive_workload_config());
    let distributor = Distributor::new(DistributorConfig::default());
    let cluster = ClusterConfig::paper_testbed();
    let plan = distributor
        .try_distribute(&generated.workload.program)
        .expect("distributes");
    let solo = plan.try_execute(&cluster).expect("solo run");
    let apps = vec![plan.prepare_server(&cluster)];

    let mut planner = PlanReplanner::new();
    planner.add_plan(
        &distributor.config,
        &generated.workload.program,
        &plan,
        &cluster,
    );
    const EPOCH: usize = 16;
    let opts = ServeOptions {
        concurrency: 1,
        schedule: Schedule::Inline,
        adapt: Some(AdaptOptions::new(Arc::new(planner) as Arc<dyn Replanner>).with_epoch(EPOCH)),
        ..ServeOptions::default()
    };
    let report = run_serving(&apps, &vec![0usize; 2 * EPOCH], &opts);
    assert!(report.is_ok(), "every request completes");
    assert_eq!(report.placement_swaps, 1, "one epoch boundary, one swap");

    // Requests admitted before the boundary: byte-identical to the solo run under
    // the placement they started with (in-flight work never migrates).
    for req in &report.requests[..EPOCH] {
        assert_eq!(req.report.virtual_time_us, solo.virtual_time_us);
        assert_eq!(req.report.total_messages(), solo.total_messages());
        assert_eq!(req.report.total_bytes(), solo.total_bytes());
    }
    // Requests admitted after: the repartitioned placement co-locates the hot
    // chain, so cross-node traffic drops strictly — with identical results.
    let first: u64 = report.requests[..EPOCH]
        .iter()
        .map(|r| r.report.total_messages())
        .sum();
    let second: u64 = report.requests[EPOCH..]
        .iter()
        .map(|r| r.report.total_messages())
        .sum();
    assert!(
        second < first,
        "post-swap requests must exchange fewer messages ({second} vs {first})"
    );
    for req in &report.requests {
        assert_eq!(
            req.report.final_statics, solo.final_statics,
            "adaptation must never change results, only where they are computed"
        );
    }
}

#[test]
fn balanced_workload_declines_every_repartition() {
    let w = autodist_workloads::bank(12);
    let distributor = Distributor::new(DistributorConfig::default());
    let cluster = ClusterConfig::paper_testbed();
    let plan = distributor.try_distribute(&w.program).expect("distributes");
    let solo = plan.try_execute(&cluster).expect("solo run");
    let apps = vec![plan.prepare_server(&cluster)];

    let mut planner = PlanReplanner::new();
    planner.add_plan(&distributor.config, &w.program, &plan, &cluster);
    let opts = ServeOptions {
        concurrency: 4,
        adapt: Some(AdaptOptions::new(Arc::new(planner) as Arc<dyn Replanner>).with_epoch(4)),
        ..ServeOptions::default()
    };
    let report = run_serving(&apps, &[0usize; 12], &opts);
    assert!(report.is_ok());
    assert_eq!(
        report.placement_swaps, 0,
        "a profile matching the build-time weights must not churn the placement"
    );
    for req in &report.requests {
        assert_eq!(req.report.virtual_time_us, solo.virtual_time_us);
        assert_eq!(req.report.total_messages(), solo.total_messages());
        assert_eq!(req.report.total_bytes(), solo.total_bytes());
        assert_eq!(req.report.final_statics, solo.final_statics);
    }
}

/// The relation that must survive any re-record of the baseline's
/// `adaptive_serving` section: adaptation strictly reduces message volume on the
/// skewed workload and never perturbs results.
#[test]
fn adaptive_bench_area_shows_the_win() {
    let area = measure_adaptive_serving().expect("adaptive A/B measures");
    assert!(area.all_ok);
    assert!(area.checksums_match);
    assert!(area.placement_swaps >= 1);
    assert!(
        area.adaptive_messages < area.static_messages,
        "adaptive {} vs static {}",
        area.adaptive_messages,
        area.static_messages
    );
    assert!(area.adaptive_bytes < area.static_bytes);
}
