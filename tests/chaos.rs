//! Chaos suite: fault-injection sweeps over the paper's workloads and generated
//! call trees, under both schedules of the one worker loop.
//!
//! The properties, per the fault model in the README:
//!
//! * **Bounded termination with typed errors** — dropping *any single packet* of
//!   any workload under any schedule ends the run within the virtual-time
//!   delivery deadline with [`ExecError::MessageTimeout`] (and a killed rank
//!   surfaces as [`ExecError::NodeDown`]). The deadline is *counted*: a world whose
//!   ready-key count reaches zero before its root completes is diagnosed on the
//!   spot, so no test here waits on a timer or relies on the CI kill watchdog.
//! * **Zero-cost and masked faults are invisible** — a quiet plan, 100%
//!   duplication (suppressed by the sequence window) and 100% reordering
//!   (restored by in-order delivery plus gap repair) all leave the report
//!   byte-identical to the fault-free run: same checksum, same virtual time,
//!   same message and byte counts.
//! * **Delays shift clocks, not answers** — injected latency grows the virtual
//!   time but never changes the checksum.
//!
//! Fault plans are pure data (a `u64` seed plus probabilities), so every failure
//! in this file reproduces from its printed configuration alone.

use autodist::{DistributionPlan, Distributor, DistributorConfig};
use autodist_codegen::rewrite::{rewrite_for_node, ClassPlacement};
use autodist_ir::program::Program;
use autodist_runtime::cluster::{
    run_centralized, run_distributed, ClusterConfig, ExecutionReport, Schedule,
};
use autodist_runtime::net::{FaultPlan, LinkProbs, NetworkConfig};
use autodist_runtime::ExecError;
use autodist_workloads::{GenConfig, Workload};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The schedules every property is checked under: one worker, and two racing for
/// the same world.
const SCHEDULES: [Schedule; 2] = [Schedule::Inline, Schedule::Pool { threads: 2 }];

/// Repetitions of the Pool reorder cases: every repair is a moment where two
/// workers could race for one quiescing world, and a verdict reached twice (one
/// worker repairs, the other then finds nothing left and fails a healthy run) only
/// shows up in some interleavings. A single-root repair costs no waiting, so the
/// loop is cheap.
const REORDER_REPEATS: usize = 25;

/// A small Table 1 mix with distinct communication shapes.
fn mix() -> Vec<Workload> {
    vec![
        autodist_workloads::bank(12),
        autodist_workloads::method_bench(40),
        autodist_workloads::crypt(80),
    ]
}

fn plans() -> Vec<(String, DistributionPlan)> {
    let distributor = Distributor::new(DistributorConfig::default());
    mix()
        .into_iter()
        .map(|w| (w.name.clone(), distributor.distribute(&w.program)))
        .collect()
}

fn run_with(
    plan: &DistributionPlan,
    schedule: Schedule,
    faults: Option<FaultPlan>,
) -> ExecutionReport {
    let cluster = ClusterConfig {
        faults,
        schedule,
        ..ClusterConfig::paper_testbed()
    };
    plan.execute(&cluster)
}

fn assert_byte_identical(
    name: &str,
    schedule: Schedule,
    baseline: &ExecutionReport,
    run: &ExecutionReport,
) {
    assert!(run.is_ok(), "{name} under {schedule:?}: {:?}", run.error);
    assert_eq!(
        run.final_statics, baseline.final_statics,
        "{name} under {schedule:?}: checksum drifted"
    );
    assert!(
        (run.virtual_time_us - baseline.virtual_time_us).abs() < 1e-9,
        "{name} under {schedule:?}: virtual clock drifted: {} vs {}",
        run.virtual_time_us,
        baseline.virtual_time_us
    );
    assert_eq!(
        run.total_messages(),
        baseline.total_messages(),
        "{name} under {schedule:?}"
    );
    assert_eq!(
        run.total_bytes(),
        baseline.total_bytes(),
        "{name} under {schedule:?}"
    );
}

/// Dropping any single packet terminates with a typed `MessageTimeout` — sampled
/// at the first, middle and last packet of every workload under every schedule.
#[test]
fn dropping_any_single_packet_yields_a_typed_timeout() {
    for (name, plan) in plans() {
        let baseline = run_with(&plan, Schedule::Inline, None);
        assert!(baseline.is_ok(), "{name}: {:?}", baseline.error);
        let messages = baseline.total_messages();
        assert!(messages > 0, "{name}: the mix must communicate");
        for schedule in SCHEDULES {
            for n in [0, messages / 2, messages - 1] {
                let report = run_with(&plan, schedule, Some(FaultPlan::drop_packet(n)));
                match report.error {
                    Some(ExecError::MessageTimeout { src, dst, .. }) => {
                        assert_ne!(src, dst, "{name}: lost packets cross links");
                    }
                    other => panic!(
                        "{name} under {schedule:?}, drop packet {n}/{messages}: \
                         expected a typed MessageTimeout, got {other:?}"
                    ),
                }
                let faults = report
                    .faults
                    .unwrap_or_else(|| panic!("{name}: faulted runs carry a summary"));
                assert_eq!(faults.lost, 1, "{name}: exactly one logical loss");
            }
        }
    }
}

/// A quiet plan (seeded, all probabilities zero) changes nothing but attaches a
/// zeroed fault summary: the disabled-fault hot path and the quiet wrapper agree.
#[test]
fn quiet_plans_are_byte_identical_to_fault_free_runs() {
    for (name, plan) in plans() {
        for schedule in SCHEDULES {
            let baseline = run_with(&plan, schedule, None);
            assert!(baseline.is_ok(), "{name}: {:?}", baseline.error);
            assert!(
                baseline.faults.is_none(),
                "fault-free runs carry no summary"
            );
            let quiet = run_with(&plan, schedule, Some(FaultPlan::quiet(0xC0FFEE)));
            assert_byte_identical(&name, schedule, &baseline, &quiet);
            let summary = quiet.faults.expect("fault summary present");
            assert_eq!(
                summary,
                Default::default(),
                "{name}: quiet plan injects nothing"
            );
        }
    }
}

/// Duplicating every packet is invisible: the sequence window suppresses the
/// copies before they reach the interpreter.
#[test]
fn full_duplication_is_suppressed_transparently() {
    for (name, plan) in plans() {
        let baseline = run_with(&plan, Schedule::Inline, None);
        for schedule in SCHEDULES {
            let run = run_with(
                &plan,
                schedule,
                Some(FaultPlan::quiet(7).with_duplicate(1.0)),
            );
            assert_byte_identical(&name, schedule, &baseline, &run);
            let summary = run.faults.expect("fault summary present");
            assert!(summary.duplicated > 0, "{name}: duplicates were injected");
            // The duplicate of a link's *final* packet can still be in flight when
            // stats are snapshotted (nothing ever receives on that link again), so
            // allow one unscreened copy per link into the finishing node.
            assert!(
                summary.suppressed <= summary.duplicated
                    && summary.duplicated - summary.suppressed <= 2,
                "{name}: duplicates suppressed ({}) must track injected ({})",
                summary.suppressed,
                summary.duplicated
            );
        }
    }
}

/// Reordering every packet is repaired back to byte-identity: arrival stamps are
/// unchanged, the sequence window buffers the out-of-order packet and the world's
/// gap repair releases it the moment its key count reaches zero.
#[test]
fn full_reordering_is_repaired_to_byte_identity() {
    for (name, plan) in plans() {
        let baseline = run_with(&plan, Schedule::Inline, None);
        for schedule in SCHEDULES {
            for _ in 0..REORDER_REPEATS {
                let run = run_with(
                    &plan,
                    schedule,
                    Some(FaultPlan::quiet(13).with_reorder(1.0)),
                );
                assert_byte_identical(&name, schedule, &baseline, &run);
                let summary = run.faults.expect("fault summary present");
                assert!(summary.reordered > 0, "{name}: reorders were injected");
            }
        }
    }
}

/// How a faulted run heals does not depend on who runs it: full reordering, full
/// duplication, and a lossy retried link each produce, under two workers racing
/// for the one world, the report the single inline worker produces — the sequence
/// window and gap repair operate per *logical* message, so the interleaving of
/// deliveries cannot change what heals or when it is charged.
#[test]
fn chaos_heals_identically_under_both_schedules() {
    let chaos: [(&str, FaultPlan); 3] = [
        ("reorder", FaultPlan::quiet(13).with_reorder(1.0)),
        ("duplicate", FaultPlan::quiet(7).with_duplicate(1.0)),
        (
            "lossy",
            FaultPlan {
                max_retries: 64,
                ..FaultPlan::quiet(3).with_drop(0.2)
            },
        ),
    ];
    for (name, plan) in plans() {
        for (fault_name, fault) in &chaos {
            let baseline = run_with(&plan, Schedule::Inline, Some(fault.clone()));
            assert!(
                baseline.is_ok(),
                "{name}/{fault_name}: {:?}",
                baseline.error
            );
            // The reorder cases are the interleaving-sensitive ones.
            let repeats = if *fault_name == "reorder" {
                REORDER_REPEATS
            } else {
                1
            };
            for schedule in SCHEDULES {
                for _ in 0..repeats {
                    let run = run_with(&plan, schedule, Some(fault.clone()));
                    assert_byte_identical(
                        &format!("{name}/{fault_name}"),
                        schedule,
                        &baseline,
                        &run,
                    );
                }
            }
        }
    }
}

/// Injected link delay slows the virtual clock but cannot change the answer.
#[test]
fn injected_delay_shifts_clocks_but_not_checksums() {
    for (name, plan) in plans() {
        let baseline = run_with(&plan, Schedule::Inline, None);
        for schedule in SCHEDULES {
            let run = run_with(
                &plan,
                schedule,
                Some(FaultPlan::quiet(23).with_delay(1.0, 500.0)),
            );
            assert!(run.is_ok(), "{name} under {schedule:?}: {:?}", run.error);
            assert_eq!(
                run.final_statics, baseline.final_statics,
                "{name} under {schedule:?}"
            );
            assert_eq!(
                run.total_messages(),
                baseline.total_messages(),
                "{name} under {schedule:?}"
            );
            assert!(
                run.virtual_time_us > baseline.virtual_time_us,
                "{name} under {schedule:?}: delays must show up in the clock"
            );
            assert!(run.faults.expect("summary").delayed > 0);
        }
    }
}

/// Killing a rank mid-run surfaces as a typed `NodeDown` under every schedule.
#[test]
fn killed_ranks_surface_as_node_down() {
    for (name, plan) in plans() {
        let baseline = run_with(&plan, Schedule::Inline, None);
        assert!(
            baseline.virtual_time_us > 300.0,
            "{name}: the kill must land mid-flight"
        );
        for schedule in SCHEDULES {
            let report = run_with(&plan, schedule, Some(FaultPlan::kill(1, 300.0)));
            match report.error {
                Some(ExecError::NodeDown { rank }) => assert_eq!(rank, 1, "{name}"),
                other => {
                    panic!("{name} under {schedule:?}: expected a typed NodeDown, got {other:?}")
                }
            }
        }
    }
}

/// An asymmetric partition — one direction of a link dead, the other healthy —
/// fails typed at the first packet that needs the dead direction, identically
/// under both schedules: with 0→1 dead node 1 never sees the first request, with
/// 1→0 dead it serves the request and its response is what is lost.
#[test]
fn asymmetric_partitions_fail_typed_in_the_dead_direction() {
    let program = autodist_ir::frontend::compile_source(
        r#"
        class Worker { int bounce(int x) { return x * 2 + 1; } }
        class Main {
            static int checksum;
            static void main() {
                Worker w = new Worker();
                checksum = w.bounce(1) + w.bounce(2);
            }
        }
    "#,
    )
    .unwrap();
    // Main on node 0, Worker on node 1: node 0 only ever sends requests to node 1,
    // node 1 only ever sends responses back.
    let copies = place_generated(&program, &[("Worker".into(), 1)]);
    let dead = LinkProbs {
        drop: 1.0,
        ..LinkProbs::default()
    };
    for (from, to, served_before_the_loss) in [(0, 1, 0), (1, 0, 1)] {
        let plan = FaultPlan::quiet(5).with_link(from, to, dead);
        let run = |schedule| {
            run_distributed(
                &copies,
                &ClusterConfig {
                    schedule,
                    faults: Some(plan.clone()),
                    ..ClusterConfig::paper_testbed()
                },
            )
        };
        let inline = run(Schedule::Inline);
        // The first packet on the dead direction is request #1 (the `NEW`) when
        // 0→1 is dead, and the response to it when 1→0 is.
        assert_eq!(
            inline.error,
            Some(ExecError::MessageTimeout {
                src: from,
                dst: to,
                request: 1
            }),
            "{from}→{to} dead"
        );
        assert_eq!(
            inline.per_node[1].requests_served, served_before_the_loss,
            "{from}→{to} dead: the healthy direction still carries traffic"
        );
        let faults = inline.faults.expect("faulted runs carry a summary");
        assert_eq!(faults.lost, 1, "{from}→{to} dead: exactly one logical loss");
        assert_eq!(
            faults.dropped_attempts,
            1 + plan.max_retries as u64,
            "{from}→{to} dead: every attempt of that one packet dropped"
        );
        let pool = run(Schedule::Pool { threads: 2 });
        assert_eq!(pool.error, inline.error, "{from}→{to} dead");
        assert_eq!(pool.per_node, inline.per_node, "{from}→{to} dead");
        assert_eq!(pool.faults, inline.faults, "{from}→{to} dead");
        assert_eq!(pool.final_statics, inline.final_statics, "{from}→{to} dead");
    }
}

/// Retries mask probabilistic drops: with a generous retry budget and moderate
/// loss the run completes with the right checksum, and the retry/backoff work is
/// visible both in the fault summary and the (slower) virtual clock.
#[test]
fn retried_drops_complete_with_the_right_checksum() {
    let (name, plan) = plans().swap_remove(0);
    let baseline = run_with(&plan, Schedule::Inline, None);
    let lossy = FaultPlan {
        max_retries: 64,
        ..FaultPlan::quiet(3).with_drop(0.2)
    };
    let run = run_with(&plan, Schedule::Inline, Some(lossy));
    assert!(run.is_ok(), "{name}: {:?}", run.error);
    assert_eq!(run.final_statics, baseline.final_statics);
    let summary = run.faults.expect("summary");
    assert!(summary.retries > 0, "a 20% loss rate must trigger retries");
    assert!(
        run.virtual_time_us > baseline.virtual_time_us,
        "retry backoff must cost virtual time"
    );
}

/// Places a generated workload by level parity (even levels with `Main` on node
/// 0, odd levels on node 1) so the tree's calls cross the link.
fn place_generated(program: &Program, levels: &[(String, usize)]) -> Vec<Program> {
    let mut home = BTreeMap::new();
    home.insert(program.class_by_name("Main").unwrap(), 0);
    for (class, level) in levels {
        home.insert(program.class_by_name(class).unwrap(), level % 2);
    }
    let placement = ClassPlacement { home, nparts: 2 };
    (0..2)
        .map(|n| rewrite_for_node(program, &placement, n).program)
        .collect()
}

proptest! {
    /// Generated call trees, swept over shape and fault seed: the distributed
    /// checksum matches the centralized one fault-free, and dropping a sampled
    /// packet terminates with a typed timeout instead of a hang.
    #[test]
    fn generated_workloads_survive_the_fault_sweep(
        seed in 0u64..1_000_000,
        depth in 2usize..4,
        width in 1usize..3,
        fan_out in 1usize..3,
        skew in 0.0f64..3.0,
        payload in 2usize..32,
        drop_at in 0u64..10_000,
    ) {
        let g = autodist_workloads::generated(&GenConfig {
            seed,
            depth,
            width,
            fan_out,
            affinity_skew: skew,
            payload,
            iterations: 2,
            ..GenConfig::default()
        });
        let centralized = run_centralized(&g.workload.program, 1.0);
        prop_assert!(centralized.is_ok(), "{:?}", centralized.error);
        let copies = place_generated(&g.workload.program, &g.levels);
        let cluster = ClusterConfig {
            network: NetworkConfig::paper_testbed(),
            schedule: Schedule::Inline,
            ..Default::default()
        };
        let clean = run_distributed(&copies, &cluster);
        prop_assert!(clean.is_ok(), "{:?}", clean.error);
        prop_assert_eq!(
            clean.final_statics.get("Main::checksum"),
            centralized.final_statics.get("Main::checksum"),
            "distribution must preserve the generated checksum"
        );
        let messages = clean.total_messages();
        prop_assert!(messages > 0, "level-parity placement must communicate");
        // Drop one sampled packet: bounded termination with a typed error.
        let faulted = run_distributed(&copies, &ClusterConfig {
            faults: Some(FaultPlan::drop_packet(drop_at % messages)),
            ..cluster
        });
        match faulted.error {
            Some(ExecError::MessageTimeout { .. }) => {}
            other => prop_assert!(false, "expected a typed MessageTimeout, got {other:?}"),
        }
    }
}
