//! What a node's copy costs, witnessed from outside the crates that decide it.
//!
//! The rewriter touches only the methods a node can run
//! (`autodist_codegen::rewrite::runs_on`), and the layouts of a plan's copies are
//! built as one family that decodes each distinct method once. Three checks:
//!
//! * **The reach has a run-time witness** — under the exact, per-call
//!   `Metric::MethodFrequency` instrumentation no node of a distributed run ever
//!   enters a method outside its `runs_on`, so leaving those methods unrewritten
//!   changes nothing a run can observe.
//! * **A class family split across nodes runs** — a member access on a class whose
//!   subclass lives here may meet a local object, so it must stay a plain access.
//! * **Family layouts are the standalone layouts** — op for op, per copy, fusion on
//!   and off, while sharing what the copies share.

use std::sync::Arc;

use autodist::{Distributor, DistributorConfig, NodeProfiler};
use autodist_codegen::rewrite::{rewrite_for_node, runs_on, ClassPlacement};
use autodist_ir::layout::{LayoutOptions, Op, ProgramLayout};
use autodist_ir::program::Program;
use autodist_profiler::{Metric, Profiler};
use autodist_runtime::cluster::{run_centralized, run_distributed, ClusterConfig};
use autodist_runtime::{NetworkConfig, StaticValue};
use autodist_workloads::{bank, generated, table1_workloads, table3_workloads, GenConfig};

fn cluster(nodes: usize) -> ClusterConfig {
    ClusterConfig {
        network: NetworkConfig {
            node_speeds: vec![1.0; nodes],
            ..NetworkConfig::paper_testbed()
        },
        ..ClusterConfig::default()
    }
}

fn generated_tree(seed: u64, depth: usize, width: usize) -> (String, Program) {
    let g = generated(&GenConfig {
        seed,
        depth,
        width,
        fan_out: 3,
        ..Default::default()
    });
    (format!("d{depth}w{width} seed {seed}"), g.workload.program)
}

#[test]
fn no_node_enters_a_method_outside_its_reach() {
    let mut programs: Vec<(String, Program)> = table1_workloads(1)
        .into_iter()
        .chain([bank(100)])
        .map(|w| (w.name, w.program))
        .collect();
    programs.push(generated_tree(1, 4, 8));
    programs.push(generated_tree(0x5EED, 6, 12));
    for (name, program) in &programs {
        let central = run_centralized(program, 1.0);
        for nodes in [2, 4, 8] {
            let plan = Distributor::new(DistributorConfig::multilevel(nodes))
                .try_distribute(program)
                .expect("plans");
            let (profilers, handles): (Vec<_>, Vec<_>) = (0..nodes)
                .map(|_| {
                    let (profiler, handle) = Profiler::new(Some(Metric::MethodFrequency));
                    (Some(NodeProfiler::new(Box::new(profiler), 0)), handle)
                })
                .unzip();
            let report = plan.execute_profiled(&cluster(nodes), profilers);
            assert!(report.is_ok(), "{name} on {nodes}: {:?}", report.error);
            assert_eq!(
                report.final_statics.get("Main::checksum"),
                central.final_statics.get("Main::checksum"),
                "{name} on {nodes}"
            );
            let mut entered = 0;
            for (node, handle) in handles.iter().enumerate() {
                let runs = runs_on(program, &plan.placement, node);
                for (&method, &calls) in &handle.lock().unwrap().method_frequency {
                    // The two proxy stubs sit past the source's methods.
                    let reachable = runs.get(method.0 as usize).copied().unwrap_or(true);
                    assert!(
                        reachable,
                        "{name} on {nodes}: node {node} entered {} {calls} times, outside its reach",
                        program.method(method).name
                    );
                    entered += calls;
                }
            }
            assert!(
                entered > 0,
                "{name} on {nodes}: the instrumentation saw calls"
            );
        }
    }
}

const SPLIT_FAMILY: &str = r#"
    class Base {
        int f;
        Base(int f) { this.f = f; }
        int get() { return this.f; }
        int twice() { return Helper.dbl(this.f); }
    }
    class Derived extends Base {
        int g;
        Derived(int f, int g) { this.f = f; this.g = g; }
        int sum() { return this.f + this.g + this.get(); }
    }
    class Helper { static int dbl(int x) { return x * 2; } }
    class Main {
        static int checksum;
        static void main() {
            Base b = new Base(3);
            Derived d = new Derived(5, 7);
            checksum = b.get() + d.sum() + d.get() + b.twice() + d.twice();
        }
    }
"#;

/// On `Derived`'s node `this.f` is a `getfield` on `Base`: with `Base` at home
/// elsewhere it used to become `access(..)` on a local, non-proxy object
/// ("DependentObject used before initialisation"). The per-class vote of
/// `ClassPlacement::from_odg_partition` can produce any of these placements.
#[test]
fn a_class_family_split_across_nodes_runs() {
    let program = Distributor::compile(SPLIT_FAMILY).expect("compiles");
    let central = run_centralized(&program, 1.0);
    assert_eq!(
        central.final_statics.get("Main::checksum"),
        Some(&StaticValue::Int(41))
    );
    let class = |name: &str| program.class_by_name(name).unwrap();
    for (base, derived) in [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)] {
        let placement =
            ClassPlacement::new(3, [(class("Base"), base), (class("Derived"), derived)]);
        let copies: Vec<Program> = (0..3)
            .map(|node| rewrite_for_node(&program, &placement, node).program)
            .collect();
        let report = run_distributed(&copies, &cluster(3));
        assert!(
            report.is_ok(),
            "Base@{base} Derived@{derived}: {:?}",
            report.error
        );
        assert_eq!(
            report.final_statics.get("Main::checksum"),
            central.final_statics.get("Main::checksum"),
            "Base@{base} Derived@{derived}"
        );
    }
}

/// `ours` against `theirs`, op for op; a string constant is compared through the
/// string it resolves to, since a family indexes one pool and a standalone layout its
/// own.
fn assert_same_layout(what: &str, ours: &ProgramLayout, theirs: &ProgramLayout) {
    assert_eq!(ours.fingerprint(), theirs.fingerprint(), "{what}");
    assert_eq!(ours.method_ops.len(), theirs.method_ops.len(), "{what}");
    for (m, (a, b)) in ours.method_ops.iter().zip(&theirs.method_ops).enumerate() {
        assert_eq!(a.regs, b.regs, "{what}: method {m}");
        assert_eq!(a.src_pc, b.src_pc, "{what}: method {m}");
        assert_eq!(a.ops.len(), b.ops.len(), "{what}: method {m}");
        for (pc, pair) in a.ops.iter().zip(&b.ops).enumerate() {
            match pair {
                (Op::SetS(r, x), Op::SetS(q, y)) => {
                    assert_eq!(r, q, "{what}: {m}@{pc}");
                    assert_eq!(
                        ours.literals.get(*x),
                        theirs.literals.get(*y),
                        "{what}: {m}@{pc}"
                    )
                }
                (x, y) => assert_eq!(x, y, "{what}: method {m}@{pc}"),
            }
        }
    }
}

#[test]
fn a_family_of_layouts_is_the_standalone_layouts_sharing_what_the_copies_share() {
    let mut programs: Vec<(String, Program)> = table1_workloads(1)
        .into_iter()
        .chain(table3_workloads(1))
        .chain([bank(100)])
        .map(|w| (w.name, w.program))
        .collect();
    for (depth, width) in [(3, 4), (4, 8), (6, 12)] {
        programs.extend((1..=3).map(|seed| generated_tree(seed, depth, width)));
    }
    for (name, program) in &programs {
        for nodes in 2..=4 {
            let plan = Distributor::new(DistributorConfig::multilevel(nodes))
                .try_distribute(program)
                .expect("plans");
            let copies = plan.programs();
            for opts in [LayoutOptions { fuse: true }, LayoutOptions { fuse: false }] {
                let family = ProgramLayout::build_family(copies.clone(), opts);
                assert_eq!(family.len(), nodes);
                for (node, (layout, copy)) in family.iter().zip(&copies).enumerate() {
                    let what = format!("{name} on {nodes}, node {node}, {opts:?}");
                    assert_same_layout(&what, layout, &ProgramLayout::build_with(copy, opts));
                    assert!(
                        std::ptr::eq(&layout.classes, &family[0].classes),
                        "{what}: one shape"
                    );
                    assert!(Arc::ptr_eq(&layout.literals, &family[0].literals));
                    for (m, method) in copy.methods.iter().enumerate() {
                        assert_eq!(
                            Arc::ptr_eq(&layout.method_ops[m], &family[0].method_ops[m]),
                            Arc::ptr_eq(method, &copies[0].methods[m]),
                            "{what}: method {m} is decoded once per distinct body"
                        );
                    }
                }
            }
        }
    }
}
