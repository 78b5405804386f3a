//! Serving-vs-sequential parity: concurrent root computations stay isolated.
//!
//! Serving mode admits N concurrent requests onto one shared ready queue, each with
//! its own request-scoped world (channels, virtual clocks, correlation ids). The
//! property: no matter how requests interleave on the one worker loop, at any
//! admission window, every request's [`ExecutionReport`] must be **byte-identical** to
//! running the same distributed program alone: same virtual time, same message and
//! byte counts, same final statics (checksum). Any cross-request leakage (a shared
//! clock, a misrouted packet, a stolen continuation delivered to the wrong world)
//! shows up as a drifting virtual clock or a wrong checksum.
//!
//! The same holds under faults, per request: a faulted request's report equals its
//! own *solo faulted* run (its world is diagnosed by its own key count, whatever its
//! neighbours are doing), and its neighbours equal their solo healthy runs.
//!
//! CI runs this test binary under a watchdog timeout (see `.github/workflows/ci.yml`)
//! as a backstop, so a worker-loop stall fails fast instead of hanging the job.

use autodist::{DistributionPlan, Distributor, DistributorConfig, ServeOptions};
use autodist_runtime::cluster::{ClusterConfig, Schedule};
use autodist_runtime::net::FaultPlan;
use autodist_runtime::serve::{run_serving, RequestReport, ServingReport};
use autodist_runtime::value::StaticValue;
use autodist_runtime::ExecError;
use autodist_workloads::Workload;

/// The workload mix every test serves: three Table 1 programs with distinct
/// communication shapes, kept small so the full matrix stays in CI smoke budget.
fn mix() -> Vec<Workload> {
    vec![
        autodist_workloads::bank(12),
        autodist_workloads::method_bench(60),
        autodist_workloads::crypt(120),
    ]
}

struct Reference {
    plan: DistributionPlan,
    virtual_time_us: f64,
    messages: u64,
    bytes: u64,
    checksum: Option<StaticValue>,
}

/// Distributes each workload and records its solo (sequential) execution report —
/// the byte-exact yardstick every served request is held to.
fn references() -> Vec<Reference> {
    let distributor = Distributor::new(DistributorConfig::default());
    mix()
        .into_iter()
        .map(|w| {
            let plan = distributor.distribute(&w.program);
            let solo = plan.execute(&ClusterConfig::paper_testbed());
            assert!(solo.is_ok(), "{}: solo run fails: {:?}", w.name, solo.error);
            Reference {
                virtual_time_us: solo.virtual_time_us,
                messages: solo.total_messages(),
                bytes: solo.total_bytes(),
                checksum: solo.final_statics.get("Main::checksum").cloned(),
                plan,
            }
        })
        .collect()
}

/// Serves `requests` round-robin over the mix under `schedule` and checks every
/// request against its app's sequential reference.
fn assert_serving_parity(refs: &[Reference], schedule: Schedule, concurrency: usize) {
    let cluster = ClusterConfig::paper_testbed();
    let apps: Vec<_> = refs
        .iter()
        .map(|r| r.plan.prepare_server(&cluster))
        .collect();
    let requests = 24usize;
    let sequence: Vec<usize> = (0..requests).map(|i| i % apps.len()).collect();
    let report = run_serving(
        &apps,
        &sequence,
        &ServeOptions {
            concurrency,
            schedule,
            ..ServeOptions::default()
        },
    );
    assert!(report.is_ok(), "{schedule:?}: every request completes");
    assert_eq!(report.requests.len(), requests);
    for (i, req) in report.requests.iter().enumerate() {
        // Results come back in submission order with the app the sequence named.
        assert_eq!(req.index, i);
        assert_eq!(req.app, sequence[i]);
        assert!(req.latency_us > 0.0);
        let ctx = format!(
            "{schedule:?} conc {concurrency} request {i} app {}",
            req.app
        );
        assert_healthy(&ctx, req, &refs[req.app]);
    }
}

/// One worker loop, many in-flight requests: worlds interleave slice by slice.
#[test]
fn inline_serving_is_byte_identical_to_sequential() {
    let refs = references();
    for concurrency in [1, 16] {
        assert_serving_parity(&refs, Schedule::Inline, concurrency);
    }
}

/// `Schedule::Pool`, which the repository benchmark still names, is the same loop on
/// the calling thread: at the benchmark's window it serves byte-identically too.
#[test]
fn pool_serving_is_byte_identical_to_sequential() {
    let refs = references();
    assert_serving_parity(&refs, Schedule::Pool { threads: 2 }, 8);
}

/// The window is a real bound: serving the whole sequence at concurrency 1 must
/// still complete (degenerates to back-to-back sequential execution), whatever
/// `threads` a `Pool` names.
#[test]
fn pool_serving_at_window_one_degenerates_to_sequential() {
    let refs = references();
    assert_serving_parity(&refs, Schedule::Pool { threads: 4 }, 1);
}

/// Per-request fault isolation: one request of a mixed serving run has its link
/// killed mid-flight. That request must complete with a typed [`ExecError`] in
/// its report (freeing its window slot — the run still drains), while the other
/// 23 requests stay **byte-identical** to their solo references.
#[test]
fn killed_request_fails_typed_while_the_rest_stay_byte_identical() {
    let refs = references();
    let cluster = ClusterConfig::paper_testbed();
    let apps: Vec<_> = refs
        .iter()
        .map(|r| r.plan.prepare_server(&cluster))
        .collect();
    let requests = 24usize;
    let victim = 5usize;
    let sequence: Vec<usize> = (0..requests).map(|i| i % apps.len()).collect();
    let report = run_serving(
        &apps,
        &sequence,
        &ServeOptions {
            concurrency: 8,
            faults: vec![(victim, FaultPlan::kill(1, 300.0))],
            ..ServeOptions::default()
        },
    );
    assert_eq!(report.requests.len(), requests);
    for (i, req) in report.requests.iter().enumerate() {
        assert_eq!(req.index, i);
        let reference = &refs[req.app];
        let ctx = format!("request {i} app {}", req.app);
        if i == victim {
            match req.report.error {
                Some(ExecError::NodeDown { rank }) => assert_eq!(rank, 1, "{ctx}"),
                ref other => {
                    panic!("{ctx}: expected a typed NodeDown for the killed request, got {other:?}")
                }
            }
            let faults = req
                .report
                .faults
                .expect("faulted request carries a summary");
            assert!(faults.lost > 0, "{ctx}: the kill lost traffic");
            continue;
        }
        // Everyone else: byte-identical to the solo reference, as if the
        // faulted request never shared the server with them.
        assert_healthy(&ctx, req, reference);
    }
}

/// Serves 24 requests round-robin over the mix at window 8 with the given
/// per-request fault plans.
fn serve_faulted(refs: &[Reference], faults: Vec<(usize, FaultPlan)>) -> ServingReport {
    let cluster = ClusterConfig::paper_testbed();
    let apps: Vec<_> = refs
        .iter()
        .map(|r| r.plan.prepare_server(&cluster))
        .collect();
    let sequence: Vec<usize> = (0..24).map(|i| i % apps.len()).collect();
    let report = run_serving(
        &apps,
        &sequence,
        &ServeOptions {
            concurrency: 8,
            faults,
            ..ServeOptions::default()
        },
    );
    assert_eq!(report.requests.len(), 24, "exactly one report per request");
    for (i, req) in report.requests.iter().enumerate() {
        assert_eq!((req.index, req.app), (i, sequence[i]));
    }
    report
}

/// A served request that must look exactly like its app's solo healthy run.
fn assert_healthy(ctx: &str, req: &RequestReport, reference: &Reference) {
    assert!(req.report.is_ok(), "{ctx}: {:?}", req.report.error);
    assert_eq!(
        req.report.virtual_time_us, reference.virtual_time_us,
        "{ctx}"
    );
    assert_eq!(req.report.total_messages(), reference.messages, "{ctx}");
    assert_eq!(req.report.total_bytes(), reference.bytes, "{ctx}");
    assert_eq!(
        req.report.final_statics.get("Main::checksum").cloned(),
        reference.checksum,
        "{ctx}: checksum"
    );
}

/// A served faulted request that must equal the same plan run alone under the
/// same fault plan — clocks and counters of every node, verdict, fault summary.
fn assert_equals_solo_faulted(
    ctx: &str,
    req: &RequestReport,
    reference: &Reference,
    plan: &FaultPlan,
) {
    let solo = reference
        .plan
        .execute(&ClusterConfig::paper_testbed().with_faults(plan.clone()));
    assert_eq!(req.report.error, solo.error, "{ctx}: verdict");
    assert_eq!(req.report.virtual_time_us, solo.virtual_time_us, "{ctx}");
    assert_eq!(req.report.per_node, solo.per_node, "{ctx}: per-node stats");
    assert_eq!(req.report.final_statics, solo.final_statics, "{ctx}");
    assert_eq!(req.report.faults, solo.faults, "{ctx}: fault summary");
}

/// One fully reordered request among 23 healthy ones: it is repaired to exactly its
/// own solo faulted run, and no neighbour can tell it was there.
#[test]
fn reordered_request_equals_its_solo_faulted_run_among_healthy_neighbours() {
    let refs = references();
    let victim = 5usize;
    let plan = FaultPlan::quiet(13).with_reorder(1.0);
    let report = serve_faulted(&refs, vec![(victim, plan.clone())]);
    for (i, req) in report.requests.iter().enumerate() {
        let ctx = format!("request {i} app {}", req.app);
        if i == victim {
            assert_equals_solo_faulted(&ctx, req, &refs[req.app], &plan);
            let faults = req
                .report
                .faults
                .expect("faulted request carries a summary");
            assert!(
                faults.reordered > 0 && faults.repaired > 0,
                "{ctx}: {faults:?}"
            );
        }
        // Reordering heals, so the victim too matches the healthy yardstick.
        assert_healthy(&ctx, req, &refs[req.app]);
    }
}

/// One request carrying every healing fault class at once — drop, duplicate, delay
/// and reorder — on each app in turn: the run yields exactly one report per
/// request, the victim's equals its solo faulted run, the rest stay healthy.
#[test]
fn combined_faults_on_one_request_yield_one_report_per_request() {
    let refs = references();
    for victim in [3usize, 4, 5] {
        let plan = FaultPlan {
            max_retries: 64,
            ..FaultPlan::quiet(29 + victim as u64)
                .with_drop(0.2)
                .with_duplicate(0.3)
                .with_delay(0.3, 400.0)
                .with_reorder(0.3)
        };
        let report = serve_faulted(&refs, vec![(victim, plan.clone())]);
        for (i, req) in report.requests.iter().enumerate() {
            let ctx = format!("victim {victim} request {i} app {}", req.app);
            if i == victim {
                assert_equals_solo_faulted(&ctx, req, &refs[req.app], &plan);
                let faults = req.report.faults.expect("summary");
                assert!(
                    faults.retries + faults.duplicated + faults.delayed > 0,
                    "{ctx}"
                );
            } else {
                assert_healthy(&ctx, req, &refs[req.app]);
            }
        }
    }
}

/// Slot reuse after duplication: the whole first window duplicates every packet, so
/// every slot's next tenant is admitted behind a request whose duplicated traffic
/// (final response included) may have left keys in the queue. Those keys are stale
/// — their root is not the new tenant's — and must not move its clocks, counts or
/// verdict.
#[test]
fn leftover_keys_of_duplicated_requests_do_not_touch_the_next_tenant() {
    let refs = references();
    let faults: Vec<_> = (0..8)
        .map(|i| (i, FaultPlan::quiet(7 + i as u64).with_duplicate(1.0)))
        .collect();
    let report = serve_faulted(&refs, faults);
    for (i, req) in report.requests.iter().enumerate() {
        let ctx = format!("request {i} app {}", req.app);
        assert_healthy(&ctx, req, &refs[req.app]);
        let summary = req.report.faults;
        if i < 8 {
            assert!(summary.expect("summary").duplicated > 0, "{ctx}");
        } else {
            assert!(summary.is_none(), "{ctx}: unlisted requests carry no plan");
        }
    }
}
