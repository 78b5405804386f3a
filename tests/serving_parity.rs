//! Serving-vs-sequential parity: concurrent root computations stay isolated.
//!
//! Serving mode admits requests one after another, each with its own request-scoped
//! world (mailboxes, virtual clocks, correlation ids) that runs until it finishes or
//! waits on a sequence gap. The property: whatever order the one worker loop runs
//! worlds in, at any admission window, every request's [`ExecutionReport`] must be
//! **byte-identical** to
//! running the same distributed program alone: same virtual time, same message and
//! byte counts, same final statics (checksum). Any cross-request leakage (a shared
//! clock, a misrouted packet, a stolen continuation delivered to the wrong world)
//! shows up as a drifting virtual clock or a wrong checksum.
//!
//! The same holds under faults, per request: a faulted request's report equals its
//! own *solo faulted* run (its world is diagnosed when its own pending list runs dry,
//! whatever its neighbours are doing), and its neighbours equal their solo healthy
//! runs; `faulted_reports_are_pinned_solo_and_served` pins those reports by digest.
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

/// One worker loop at windows 1 and 16: healthy worlds never wait on a gap, so each
/// runs to completion right after its admission.
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
/// its report (the run still drains), while the other
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
    // Halfway through the victim's solo run, so the kill lands mid-flight.
    let halfway = refs[sequence[victim]].virtual_time_us / 2.0;
    let report = run_serving(
        &apps,
        &sequence,
        &ServeOptions {
            concurrency: 8,
            faults: vec![(victim, FaultPlan::kill(1, halfway))],
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

/// The fault plans of the pinned table for one workload, by name: every healing
/// class alone and combined, drops with and without enough retries, a kill at a
/// quarter and at half of the workload's fault-free virtual time (so both land
/// mid-flight however fast the protocol gets), and the loss of each of the first
/// eight packets.
fn pinned_plans(reference: &Reference) -> Vec<(String, FaultPlan)> {
    let solo = reference.virtual_time_us;
    let mut plans: Vec<(String, FaultPlan)> = vec![
        ("reorder 1.0".into(), FaultPlan::quiet(13).with_reorder(1.0)),
        (
            "duplicate 1.0".into(),
            FaultPlan::quiet(7).with_duplicate(1.0),
        ),
        (
            "reorder+duplicate 0.5".into(),
            FaultPlan::quiet(21).with_reorder(0.5).with_duplicate(0.5),
        ),
        (
            "combined".into(),
            FaultPlan {
                max_retries: 64,
                ..FaultPlan::quiet(33)
                    .with_drop(0.2)
                    .with_duplicate(0.3)
                    .with_delay(0.3, 400.0)
                    .with_reorder(0.3)
            },
        ),
        ("drop 0.4".into(), FaultPlan::quiet(41).with_drop(0.4)),
        (
            "drop 0.4, 64 retries".into(),
            FaultPlan {
                max_retries: 64,
                ..FaultPlan::quiet(41).with_drop(0.4)
            },
        ),
        ("kill(1, solo/4)".into(), FaultPlan::kill(1, solo / 4.0)),
        ("kill(1, solo/2)".into(), FaultPlan::kill(1, solo / 2.0)),
    ];
    plans.extend((0..8).map(|n| (format!("drop_packet({n})"), FaultPlan::drop_packet(n))));
    plans
}

/// FNV-1a over a report's deterministic fields: virtual time bits, per-node stats,
/// fault summary and verdict (`Debug` prints every float so that it round-trips).
fn digest(report: &autodist_runtime::ExecutionReport) -> u64 {
    let text = format!(
        "{:x} {:?} {:?} {:?}",
        report.virtual_time_us.to_bits(),
        report.per_node,
        report.faults,
        report.error
    );
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `PINNED[w][p]`: the digest of mix workload `w` under `pinned_plans(w)[p]`.
const PINNED: [[u64; 16]; 3] = [
    [
        0xcf714a5e80f1ba12,
        0xd0fd6f6eb89924ae,
        0x06c26d70230c5ef4,
        0x3cc65b21981db956,
        0xd396595f2abed94b,
        0x7e8780bee464c2f2,
        0xc7cda0297e8eef2d,
        0x09073c5b7338390e,
        0xaa89ef34b1fc0295,
        0x454e84a993caff50,
        0x6807eae000ca63bc,
        0xfca4f13e3b6f24dc,
        0x1579fbf95b312629,
        0x3baf1a9856ecd8fa,
        0x9733a3008bccfdc7,
        0xf187f3453c788445,
    ],
    [
        0x8a526d3635d5a28c,
        0x9fd25dedb6f4b2f2,
        0x4b112419050358d0,
        0xb1a62c561d93f825,
        0x0aa562f488e28b7d,
        0x96023f717997f0d5,
        0xacfb5c6d969f4957,
        0x5a5b66307ec0fc40,
        0x874570c49bbb8020,
        0xc04fccb21d294468,
        0x0ad6b05101275771,
        0xdfe2a0f68e619a70,
        0xf366c5750cc5f05d,
        0x9ccd1cd92cd75b50,
        0x7349030e886672d3,
        0x808a73bcbf3ccbb7,
    ],
    [
        0x6b8bddefe9b63c7c,
        0xb626a3f869874d7c,
        0x604da00fa9327642,
        0xe55776e97997f47f,
        0x2dd0b753488f1778,
        0x2dd0b753488f1778,
        0xcfb5fd51416d341b,
        0xb0b05fd78535aec1,
        0x24ac952ce32346d5,
        0xb47710b3619edfa3,
        0x413d30d5728d8224,
        0x413d30d5728d8224,
        0x413d30d5728d8224,
        0x413d30d5728d8224,
        0x413d30d5728d8224,
        0x413d30d5728d8224,
    ],
];

/// Faulted reports are pinned, solo and served: every mix workload under every plan
/// of `pinned_plans`, run alone and then served as one sequence at windows 1, 4 and
/// 8, must reproduce the recorded digest of its row. Recovery, diagnosis and typed
/// failure are thereby fixed to the report, whatever order the loop runs worlds in.
/// A kill that no longer changes the report would pin nothing, so each kill row
/// must differ from the digest under a plan that injects nothing.
#[test]
fn faulted_reports_are_pinned_solo_and_served() {
    let refs = references();
    let plans: Vec<_> = refs.iter().map(pinned_plans).collect();
    let cluster = ClusterConfig::paper_testbed();
    let mut table = String::new();
    let mut solo = vec![[0u64; 16]; refs.len()];
    for (w, reference) in refs.iter().enumerate() {
        let quiet = cluster.clone().with_faults(FaultPlan::quiet(0));
        let unfaulted = digest(&reference.plan.execute(&quiet));
        for (p, (name, plan)) in plans[w].iter().enumerate() {
            let report = reference
                .plan
                .execute(&cluster.clone().with_faults(plan.clone()));
            solo[w][p] = digest(&report);
            assert!(
                !name.starts_with("kill") || solo[w][p] != unfaulted,
                "app {w}: {name} changes nothing"
            );
        }
        let row: Vec<_> = solo[w].iter().map(|d| format!("{d:#018x}")).collect();
        table.push_str(&format!("    [{}],\n", row.join(", ")));
    }
    assert!(
        solo == PINNED,
        "solo faulted reports moved; the table now reads:\n{table}"
    );
    let apps: Vec<_> = refs
        .iter()
        .map(|r| r.plan.prepare_server(&cluster))
        .collect();
    let rows: Vec<(usize, usize)> = (0..plans[0].len())
        .flat_map(|p| (0..apps.len()).map(move |w| (w, p)))
        .collect();
    let sequence: Vec<usize> = rows.iter().map(|&(w, _)| w).collect();
    for window in [1, 4, 8] {
        let report = run_serving(
            &apps,
            &sequence,
            &ServeOptions {
                concurrency: window,
                faults: rows
                    .iter()
                    .enumerate()
                    .map(|(i, &(w, p))| (i, plans[w][p].1.clone()))
                    .collect(),
                ..ServeOptions::default()
            },
        );
        for (req, &(w, p)) in report.requests.iter().zip(&rows) {
            assert_eq!(
                digest(&req.report),
                PINNED[w][p],
                "window {window}: app {w} under {}: {:?}",
                plans[w][p].0,
                req.report.error
            );
        }
    }
}

/// Requests after duplicated ones: the first eight requests duplicate every packet,
/// so each later request is admitted behind one whose duplicated traffic (final
/// response included) may still sit in its finished world's mailboxes. That traffic
/// goes with its world and must not move the next request's clocks, counts or
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
