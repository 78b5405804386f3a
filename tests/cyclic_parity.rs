//! Parity on deliberately *cyclic* placements.
//!
//! Mutually recursive classes are pinned to different nodes, so every level of the
//! recursion crosses the node boundary and the placement's inter-node digraph is a
//! cycle — every callback a node serves arrives while its own computation is parked.
//! The property: the worker loop agrees with the centralized baseline and a direct
//! Rust evaluation of the recursion. The fixed-program cases are also pinned — result,
//! traffic and virtual clocks — to what the deleted thread-per-node schedule
//! (`Schedule::Threaded`, one blocking OS thread per node) computed for them,
//! recorded on the last commit that had it, and re-recorded when a `NEW` whose
//! constructor cannot be observed became one-way: each such `NEW` saves its reply
//! message, its reply's bytes less the export id the `NEW` now carries, and a round
//! trip of virtual time, and no instruction or request count moved. Re-recorded once
//! more when a one-way `NEW` began to ride in the packet of its creator's next request
//! to the same home: such a `NEW` saves its own packet and send overhead (the deep
//! recursion's `Pong`), and a `NEW` whose home gets no request next still travels
//! alone (the ring's `B` and `C`, whose record did not move). When values became
//! compact on the wire only `bytes` was re-recorded: the charge is still the
//! fixed-width size, so no clock, message or instruction count moved.
//!
//! CI runs this test binary under a watchdog timeout (see `.github/workflows/ci.yml`)
//! as a backstop, so a worker-loop stall fails fast instead of hanging the job.

use autodist_codegen::rewrite::{rewrite_for_node, ClassPlacement};
use autodist_ir::frontend::compile_source;
use autodist_ir::program::Program;
use autodist_runtime::cluster::{run_centralized, run_distributed, ClusterConfig, ExecutionReport};
use autodist_runtime::net::NetworkConfig;
use autodist_runtime::value::StaticValue;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Pins each named class to a node and executes the rewritten copies.
fn run_pinned(program: &Program, pins: &[(&str, usize)], nodes: usize) -> ExecutionReport {
    let mut home = BTreeMap::new();
    for (class, node) in pins {
        home.insert(program.class_by_name(class).unwrap(), *node);
    }
    let placement = ClassPlacement::new(nodes, home);
    let copies: Vec<Program> = (0..nodes)
        .map(|n| rewrite_for_node(program, &placement, n).program)
        .collect();
    // The paper's heterogeneous two-machine testbed when it fits, a uniform fabric
    // for wider rings — parity must hold on both cost models.
    let network = if nodes == 2 {
        NetworkConfig::paper_testbed()
    } else {
        NetworkConfig::uniform(nodes)
    };
    run_distributed(
        &copies,
        &ClusterConfig {
            network,
            ..Default::default()
        },
    )
}

/// A thread-per-node run of a fixed program, as data (see the module docs).
struct ThreadedRecord {
    virtual_time_us: f64,
    messages: u64,
    /// Physical frame bytes: the one field that follows the wire encoding
    /// (re-recorded with it) rather than the cost model.
    bytes: u64,
    /// `(instructions, requests_served, remote_requests)` per node.
    per_node: &'static [(u64, u64, u64)],
}

fn assert_matches_threaded_record(report: &ExecutionReport, record: &ThreadedRecord) {
    assert_eq!(report.virtual_time_us, record.virtual_time_us);
    assert_eq!(report.total_messages(), record.messages);
    assert_eq!(report.total_bytes(), record.bytes);
    let per_node: Vec<_> = report
        .per_node
        .iter()
        .map(|n| (n.instructions, n.requests_served, n.remote_requests))
        .collect();
    assert_eq!(per_node, record.per_node);
}

proptest! {
    /// Two mutually recursive classes pinned to different nodes: `Ping::ping` on node
    /// 0 calls `Pong::pong` on node 1, which calls back into node 0, `depth` levels
    /// deep. Node 0's root computation stays parked the whole time, so every callback
    /// it serves is re-entrant.
    #[test]
    fn ping_pong_recursion_is_schedule_invariant(
        depth in 0i64..24,
        mul in -3i64..4,
    ) {
        let src = format!(
            "class Ping {{
                 int ping(Pong q, int n) {{
                     if (n <= 0) {{ return 0; }}
                     return n + q.pong(this, n - 1);
                 }}
             }}
             class Pong {{
                 int pong(Ping p, int n) {{
                     if (n <= 0) {{ return 0; }}
                     return n * {mul} + p.ping(this, n - 1);
                 }}
             }}
             class Main {{
                 static int result;
                 static void main() {{
                     Ping p = new Ping();
                     Pong q = new Pong();
                     result = p.ping(q, {depth});
                 }}
             }}"
        );
        let program = compile_source(&src).expect("template compiles");

        // The recursion, evaluated directly in Rust.
        fn ping(n: i64, mul: i64) -> i64 {
            if n <= 0 { 0 } else { n + pong(n - 1, mul) }
        }
        fn pong(n: i64, mul: i64) -> i64 {
            if n <= 0 { 0 } else { n * mul + ping(n - 1, mul) }
        }
        let expected = StaticValue::Int(ping(depth, mul));

        let baseline = run_centralized(&program, 1.0);
        prop_assert!(baseline.is_ok());
        prop_assert_eq!(baseline.final_statics.get("Main::result"), Some(&expected));

        let pins = [("Main", 0), ("Ping", 0), ("Pong", 1)];
        let inline = run_pinned(&program, &pins, 2);
        prop_assert!(inline.is_ok(), "{:?}", inline.error);
        prop_assert_eq!(inline.final_statics.get("Main::result"), Some(&expected));
        if depth > 0 {
            prop_assert!(inline.total_messages() > 0, "the cycle must cross nodes");
        }
        if depth > 1 {
            // pong(n) only calls back into node 0 for n > 0, i.e. from depth 2 on.
            prop_assert!(
                inline.per_node[0].requests_served > 0,
                "node 0 must serve callbacks while its root computation is parked"
            );
        }
    }
}

/// Cross-node recursion far beyond the interpreter's call-depth limit must surface
/// `StackOverflow` (travelling back to the launch node as a remote failure, one hop
/// per live recursion level) — not hang the worker loop.
/// Guards the serve-side depth check in `accept_inner`. The numbers are those of
/// thread-per-node execution, which overflowed at exactly the same frame.
#[test]
fn deep_cross_node_recursion_overflows_cleanly() {
    let src = "
        class Ping {
            int ping(Pong q, int n) {
                if (n <= 0) { return 0; }
                return n + q.pong(this, n - 1);
            }
        }
        class Pong {
            int pong(Ping p, int n) {
                if (n <= 0) { return 0; }
                return n + p.ping(this, n - 1);
            }
        }
        class Main {
            static int result;
            static void main() {
                Ping p = new Ping();
                Pong q = new Pong();
                result = p.ping(q, 400);
            }
        }
    ";
    let program = compile_source(src).expect("deep recursion compiles");
    let pins = [("Main", 0), ("Ping", 0), ("Pong", 1)];
    let threaded = ThreadedRecord {
        virtual_time_us: 85607.46857142923,
        messages: 396,
        bytes: 319587,
        per_node: &[(2390, 99, 100), (2376, 100, 99)],
    };
    let report = run_pinned(&program, &pins, 2);
    let err = report
        .error
        .as_ref()
        .expect("depth 400 must exceed the call-depth limit");
    let text = err.to_string();
    assert!(
        text.ends_with("call depth limit exceeded"),
        "expected a stack overflow, got {err}"
    );
    assert_eq!(
        text.matches("remote failure: ").count(),
        198,
        "the overflow unwinds through every parked level"
    );
    assert_matches_threaded_record(&report, &threaded);
}

/// A three-node ring: `A` on node 0 calls `B` on node 1 calls `C` on node 2 calls
/// back into `A` on node 0. The inter-node digraph is the cycle 0 → 1 → 2 → 0.
#[test]
fn three_node_ring_is_schedule_invariant() {
    let src = "
        class A {
            int f(B b, C c, int n) {
                if (n <= 0) { return 0; }
                return 1 + b.f(this, c, n - 1);
            }
        }
        class B {
            int f(A a, C c, int n) {
                if (n <= 0) { return 0; }
                return 1 + c.f(a, this, n - 1);
            }
        }
        class C {
            int f(A a, B b, int n) {
                if (n <= 0) { return 0; }
                return 1 + a.f(b, this, n - 1);
            }
        }
        class Main {
            static int result;
            static void main() {
                A a = new A();
                B b = new B();
                C c = new C();
                result = a.f(b, c, 17);
            }
        }
    ";
    let program = compile_source(src).expect("ring compiles");
    let pins = [("Main", 0), ("A", 0), ("B", 1), ("C", 2)];
    let threaded = ThreadedRecord {
        virtual_time_us: 5228.520000000002,
        messages: 36,
        bytes: 282,
        per_node: &[(217, 5, 8), (192, 7, 6), (165, 7, 5)],
    };
    let inline = run_pinned(&program, &pins, 3);
    assert!(inline.is_ok(), "{:?}", inline.error);
    assert_eq!(
        inline.final_statics.get("Main::result"),
        Some(&StaticValue::Int(17))
    );
    assert_matches_threaded_record(&inline, &threaded);
}
