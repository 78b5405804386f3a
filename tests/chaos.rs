//! Chaos suite: fault-injection sweeps over the paper's workloads and generated
//! call trees, on the one worker loop.
//!
//! The properties, per the fault model in the README:
//!
//! * **Bounded termination with typed errors** — dropping *any single packet* of
//!   any workload ends the run within the virtual-time
//!   delivery deadline with [`ExecError::MessageTimeout`] (and a killed rank
//!   surfaces as [`ExecError::NodeDown`]). The deadline is *observed*: a world whose
//!   pending list runs dry before its root completes is diagnosed on the spot, so
//!   no test here waits on a timer or relies on the CI kill watchdog.
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

fn run_with(plan: &DistributionPlan, faults: Option<FaultPlan>) -> ExecutionReport {
    plan.execute(&ClusterConfig {
        faults,
        ..ClusterConfig::paper_testbed()
    })
}

fn assert_byte_identical(name: &str, baseline: &ExecutionReport, run: &ExecutionReport) {
    assert!(run.is_ok(), "{name}: {:?}", run.error);
    assert_eq!(
        run.final_statics, baseline.final_statics,
        "{name}: checksum drifted"
    );
    assert!(
        (run.virtual_time_us - baseline.virtual_time_us).abs() < 1e-9,
        "{name}: virtual clock drifted: {} vs {}",
        run.virtual_time_us,
        baseline.virtual_time_us
    );
    assert_eq!(run.total_messages(), baseline.total_messages(), "{name}");
    assert_eq!(run.total_bytes(), baseline.total_bytes(), "{name}");
}

/// Dropping any single packet terminates with a typed `MessageTimeout` — sampled
/// at the first, middle and last packet of every workload.
#[test]
fn dropping_any_single_packet_yields_a_typed_timeout() {
    for (name, plan) in plans() {
        let baseline = run_with(&plan, None);
        assert!(baseline.is_ok(), "{name}: {:?}", baseline.error);
        let messages = baseline.total_messages();
        assert!(messages > 0, "{name}: the mix must communicate");
        for n in [0, messages / 2, messages - 1] {
            let report = run_with(&plan, Some(FaultPlan::drop_packet(n)));
            match report.error {
                Some(ExecError::MessageTimeout { src, dst, .. }) => {
                    assert_ne!(src, dst, "{name}: lost packets cross links");
                }
                other => panic!(
                    "{name}, drop packet {n}/{messages}: \
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

/// A quiet plan (seeded, all probabilities zero) changes nothing but attaches a
/// zeroed fault summary: the disabled-fault hot path and the quiet wrapper agree.
#[test]
fn quiet_plans_are_byte_identical_to_fault_free_runs() {
    for (name, plan) in plans() {
        let baseline = run_with(&plan, None);
        assert!(baseline.is_ok(), "{name}: {:?}", baseline.error);
        assert!(
            baseline.faults.is_none(),
            "fault-free runs carry no summary"
        );
        let quiet = run_with(&plan, Some(FaultPlan::quiet(0xC0FFEE)));
        assert_byte_identical(&name, &baseline, &quiet);
        let summary = quiet.faults.expect("fault summary present");
        assert_eq!(
            summary,
            Default::default(),
            "{name}: quiet plan injects nothing"
        );
    }
}

/// Duplicating every packet is invisible: the sequence window suppresses the
/// copies before they reach the interpreter.
#[test]
fn full_duplication_is_suppressed_transparently() {
    for (name, plan) in plans() {
        let baseline = run_with(&plan, None);
        let run = run_with(&plan, Some(FaultPlan::quiet(7).with_duplicate(1.0)));
        assert_byte_identical(&name, &baseline, &run);
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

/// Reordering every packet is repaired back to byte-identity: arrival stamps are
/// unchanged, the sequence window buffers the out-of-order packet and the world's
/// gap repair releases it the moment its pending list runs dry.
#[test]
fn full_reordering_is_repaired_to_byte_identity() {
    for (name, plan) in plans() {
        let baseline = run_with(&plan, None);
        let run = run_with(&plan, Some(FaultPlan::quiet(13).with_reorder(1.0)));
        assert_byte_identical(&name, &baseline, &run);
        let summary = run.faults.expect("fault summary present");
        assert!(summary.reordered > 0, "{name}: reorders were injected");
    }
}

/// How a faulted run heals is a function of its plan alone: full reordering, full
/// duplication, and a lossy retried link each replay to the same report, under
/// either `Schedule` value (`Pool` is the same loop, still accepted) — the sequence
/// window and gap repair operate per *logical* message, and a fault plan is pure
/// seeded data.
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
            let baseline = run_with(&plan, Some(fault.clone()));
            assert!(
                baseline.is_ok(),
                "{name}/{fault_name}: {:?}",
                baseline.error
            );
            for schedule in [Schedule::Inline, Schedule::Pool { threads: 2 }] {
                let run = plan.execute(&ClusterConfig {
                    schedule,
                    faults: Some(fault.clone()),
                    ..ClusterConfig::paper_testbed()
                });
                assert_byte_identical(
                    &format!("{name}/{fault_name} {schedule:?}"),
                    &baseline,
                    &run,
                );
            }
        }
    }
}

/// Injected link delay slows the virtual clock but cannot change the answer.
#[test]
fn injected_delay_shifts_clocks_but_not_checksums() {
    for (name, plan) in plans() {
        let baseline = run_with(&plan, None);
        let run = run_with(&plan, Some(FaultPlan::quiet(23).with_delay(1.0, 500.0)));
        assert!(run.is_ok(), "{name}: {:?}", run.error);
        assert_eq!(run.final_statics, baseline.final_statics, "{name}");
        assert_eq!(run.total_messages(), baseline.total_messages(), "{name}");
        assert!(
            run.virtual_time_us > baseline.virtual_time_us,
            "{name}: delays must show up in the clock"
        );
        assert!(run.faults.expect("summary").delayed > 0);
    }
}

/// Killing a rank mid-run (halfway through the fault-free run's virtual time)
/// surfaces as a typed `NodeDown`.
#[test]
fn killed_ranks_surface_as_node_down() {
    for (name, plan) in plans() {
        let baseline = run_with(&plan, None);
        let halfway = baseline.virtual_time_us / 2.0;
        assert!(halfway > 150.0, "{name}: the kill must land mid-flight");
        let report = run_with(&plan, Some(FaultPlan::kill(1, halfway)));
        match report.error {
            Some(ExecError::NodeDown { rank }) => assert_eq!(rank, 1, "{name}"),
            other => panic!("{name}: expected a typed NodeDown, got {other:?}"),
        }
    }
}

/// An asymmetric partition — one direction of a link dead, the other healthy —
/// fails typed at the first packet that needs the dead direction. With 0→1 dead
/// node 1 never sees the first packet, the one-way `NEW` riding with the first bounce
/// (request #2, whose id the packet carries): one loss. With 1→0 dead node 1 creates
/// the worker and serves the first bounce, and that bounce's response is what is lost.
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
    for (from, to, request, served_before_the_loss, lost) in [(0, 1, 2, 0, 1), (1, 0, 2, 2, 1)] {
        let plan = FaultPlan::quiet(5).with_link(from, to, dead);
        let inline = run_distributed(
            &copies,
            &ClusterConfig::paper_testbed().with_faults(plan.clone()),
        );
        // The first packet on the dead direction is the `NEW` and request #2 (the first
        // bounce) when 0→1 is dead, and the response to request #2 when 1→0 is.
        assert_eq!(
            inline.error,
            Some(ExecError::MessageTimeout {
                src: from,
                dst: to,
                request
            }),
            "{from}→{to} dead"
        );
        assert_eq!(
            inline.per_node[1].requests_served, served_before_the_loss,
            "{from}→{to} dead: the healthy direction still carries traffic"
        );
        let faults = inline.faults.expect("faulted runs carry a summary");
        assert_eq!(faults.lost, lost, "{from}→{to} dead: logical losses");
        assert_eq!(
            faults.dropped_attempts,
            lost * (1 + plan.max_retries as u64),
            "{from}→{to} dead: every attempt of each lost packet dropped"
        );
    }
}

/// Retries mask probabilistic drops: with a generous retry budget and moderate
/// loss the run completes with the right checksum, and the retry/backoff work is
/// visible both in the fault summary and the (slower) virtual clock.
#[test]
fn retried_drops_complete_with_the_right_checksum() {
    let (name, plan) = plans().swap_remove(0);
    let baseline = run_with(&plan, None);
    let lossy = FaultPlan {
        max_retries: 64,
        ..FaultPlan::quiet(3).with_drop(0.2)
    };
    let run = run_with(&plan, Some(lossy));
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
    let placement = ClassPlacement::new(2, home);
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

/// Four nodes: `Main` (node 0) creates each `Cell` one-way on node 1 and hands the
/// reference to `Relay` on node 2, which calls the cell before node 1 has seen the
/// `NEW` whenever the link 0→1 reorders it. Node 1 holds the call until the `NEW`
/// registers the cell, and the checksum is the centralized run's.
#[test]
fn a_reference_that_overtakes_its_new_to_a_third_node_is_held() {
    let program = autodist_ir::frontend::compile_source(
        r#"
        class Cell {
            int v;
            Cell(int v) { this.v = v; }
            int get() { return this.v; }
        }
        class Relay { int read(Cell c) { return c.get() + 1; } }
        class Tally { int count; int add(int x) { this.count = this.count + x; return this.count; } }
        class Main {
            static int checksum;
            static void main() {
                Relay r = new Relay();
                Tally t = new Tally();
                int total = 0;
                int i = 0;
                while (i < 5) {
                    Cell c = new Cell(i * 11 + 3);
                    total = total + r.read(c) + t.add(i);
                    i = i + 1;
                }
                checksum = total;
            }
        }
    "#,
    )
    .unwrap();
    let central = run_centralized(&program, 1.0);
    let mut home = BTreeMap::new();
    for (class, node) in [("Main", 0), ("Cell", 1), ("Relay", 2), ("Tally", 3)] {
        home.insert(program.class_by_name(class).unwrap(), node);
    }
    let placement = ClassPlacement::new(4, home);
    let copies: Vec<Program> = (0..4)
        .map(|n| rewrite_for_node(&program, &placement, n).program)
        .collect();
    let cluster = ClusterConfig {
        network: NetworkConfig::uniform(4),
        ..Default::default()
    };
    let clean = run_distributed(&copies, &cluster);
    assert!(clean.is_ok(), "{:?}", clean.error);
    let reorder = LinkProbs {
        reorder: 1.0,
        ..LinkProbs::default()
    };
    for seed in 0..8 {
        let plan = FaultPlan::quiet(seed).with_link(0, 1, reorder);
        let run = run_distributed(&copies, &cluster.clone().with_faults(plan));
        assert_byte_identical(&format!("reorder 0→1, seed {seed}"), &clean, &run);
        assert_eq!(
            run.final_statics.get("Main::checksum"),
            central.final_statics.get("Main::checksum")
        );
        let faults = run.faults.expect("summary");
        assert!(faults.reordered > 0 && faults.repaired > 0, "{faults:?}");
    }
}

/// A program whose last statement creates an object nobody uses: its one-way `NEW`
/// is the last packet of the run, and the root completes without it. Dropping it
/// still fails the run with a typed `MessageTimeout`.
#[test]
fn a_dropped_trailing_one_way_new_is_a_typed_timeout() {
    let program = autodist_ir::frontend::compile_source(
        r#"
        class Worker { int bounce(int x) { return x * 2 + 1; } }
        class Unused { int n; Unused(int n) { this.n = n; } }
        class Main {
            static int checksum;
            static void main() {
                Worker w = new Worker();
                checksum = w.bounce(20);
                Unused u = new Unused(checksum);
            }
        }
    "#,
    )
    .unwrap();
    let copies = place_generated(&program, &[("Worker".into(), 1), ("Unused".into(), 1)]);
    let clean = run_distributed(&copies, &ClusterConfig::paper_testbed());
    assert!(clean.is_ok(), "{:?}", clean.error);
    let last = clean.total_messages() - 1;
    let run = run_distributed(
        &copies,
        &ClusterConfig::paper_testbed().with_faults(FaultPlan::drop_packet(last)),
    );
    assert_eq!(
        run.error,
        Some(ExecError::MessageTimeout {
            src: 0,
            dst: 1,
            request: 3
        }),
        "the trailing NEW is request #3"
    );
    assert_eq!(run.final_statics, clean.final_statics, "the root completed");
    assert_eq!(run.faults.expect("summary").lost, 1);
}

/// `Main` (node 0) creates three `Cell`s one-way on node 1 each round and then calls
/// one of them: the three `NEW`s ride in the call's packet, four frames carrying the
/// call's request id (#4 in round 0, #8 in round 1, ...).
const BATCH: &str = r#"
    class Cell {
        int v;
        Cell(int v) { this.v = v * 3 + 1; }
        int get() { return this.v; }
    }
    class Main {
        static int checksum;
        static void main() {
            int total = 0;
            int i = 0;
            while (i < 3) {
                Cell a = new Cell(i);
                Cell b = new Cell(i + 5);
                Cell c = new Cell(i + 9);
                total = total + b.get();
                i = i + 1;
            }
            checksum = total;
        }
    }
"#;

/// Losing a packet that holds several frames is one typed loss under the packet's
/// request id, whether the plan drops it, kills its destination before it arrives,
/// or drops the first packet of the link, the one that carries the fingerprint hello.
#[test]
fn losing_a_merged_packet_is_one_typed_loss_naming_its_request() {
    let program = autodist_ir::frontend::compile_source(BATCH).unwrap();
    let copies = place_generated(&program, &[("Cell".into(), 1)]);
    let clean = run_distributed(&copies, &ClusterConfig::paper_testbed());
    assert!(clean.is_ok(), "{:?}", clean.error);
    assert_eq!(
        (clean.per_node[0].remote_requests, clean.total_messages()),
        (12, 6),
        "three rounds of one four-frame packet and one response"
    );
    let timeout = |request| ExecError::MessageTimeout {
        src: 0,
        dst: 1,
        request,
    };
    for (name, plan, error, served) in [
        (
            "the link's first packet, with the hello",
            FaultPlan::drop_packet(0),
            timeout(4),
            0,
        ),
        ("round 1's packet", FaultPlan::drop_packet(2), timeout(8), 4),
        (
            "a kill before the first packet arrives",
            FaultPlan::kill(1, 100.0),
            ExecError::NodeDown { rank: 1 },
            0,
        ),
    ] {
        let run = run_distributed(&copies, &ClusterConfig::paper_testbed().with_faults(plan));
        assert_eq!(run.error, Some(error), "{name}");
        let faults = run.faults.expect("faulted runs carry a summary");
        assert_eq!(faults.lost, 1, "{name}: one loss for four frames");
        assert_eq!(run.per_node[1].requests_served, served, "{name}");
    }
}

/// Three nodes: each round `Main` (node 0) creates two `Cell`s one-way on node 1 and
/// then calls `Relay` on node 2, so the two `NEW`s leave as a packet of their own,
/// one-way frames only; `Relay` calls into node 1. With every packet on 0→1
/// reordered, each such packet takes its successor's sequence number and node 1
/// buffers it, holds `Relay`'s call until the gap repair releases the `NEW`s, and the
/// run heals to the fault-free report.
#[test]
fn a_reordered_packet_of_one_way_frames_is_held_and_heals() {
    let program = autodist_ir::frontend::compile_source(
        r#"
        class Cell {
            int v;
            Cell(int v) { this.v = v + 2; }
            int get() { return this.v; }
        }
        class Relay { int read(Cell c) { return c.get() * 5; } }
        class Main {
            static int checksum;
            static void main() {
                Relay r = new Relay();
                int total = 0;
                int i = 0;
                while (i < 4) {
                    Cell a = new Cell(i * 7);
                    Cell b = new Cell(i);
                    total = total + r.read(a) + r.read(b);
                    i = i + 1;
                }
                checksum = total;
            }
        }
    "#,
    )
    .unwrap();
    let central = run_centralized(&program, 1.0);
    let mut home = BTreeMap::new();
    for (class, node) in [("Main", 0), ("Cell", 1), ("Relay", 2)] {
        home.insert(program.class_by_name(class).unwrap(), node);
    }
    let placement = ClassPlacement::new(3, home);
    let copies: Vec<Program> = (0..3)
        .map(|n| rewrite_for_node(&program, &placement, n).program)
        .collect();
    let cluster = ClusterConfig {
        network: NetworkConfig::uniform(3),
        ..Default::default()
    };
    let clean = run_distributed(&copies, &cluster);
    assert!(clean.is_ok(), "{:?}", clean.error);
    assert_eq!(
        clean.per_node[0].messages_sent,
        1 + 4 * 3,
        "Relay's NEW, then per round one packet of two NEWs and two calls"
    );
    let reorder = LinkProbs {
        reorder: 1.0,
        ..LinkProbs::default()
    };
    for seed in 0..4 {
        let plan = FaultPlan::quiet(seed).with_link(0, 1, reorder);
        let run = run_distributed(&copies, &cluster.clone().with_faults(plan));
        assert_byte_identical(&format!("reorder 0→1, seed {seed}"), &clean, &run);
        assert_eq!(
            run.final_statics.get("Main::checksum"),
            central.final_statics.get("Main::checksum")
        );
        let faults = run.faults.expect("summary");
        assert!(faults.reordered > 0 && faults.repaired > 0, "{faults:?}");
    }
}
