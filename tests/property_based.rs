//! Property-based tests (proptest) on the core data structures and invariants.

use autodist_partition::{partition, GraphBuilder, Method, PartitionConfig};
use autodist_runtime::wire::{
    decode_head, decode_value, encode_dependence, encode_new, encode_response_in, AccessKind,
    FrameHead, Response, WireValue,
};
use bytes::{Bytes, BytesMut};
use proptest::prelude::*;

fn arb_wire_value() -> impl Strategy<Value = WireValue<'static>> {
    prop_oneof![
        Just(WireValue::Null),
        any::<i64>().prop_map(WireValue::Int),
        any::<bool>().prop_map(WireValue::Bool),
        (-1e12f64..1e12).prop_map(WireValue::Float),
        "[a-zA-Z0-9 _.]{0,24}".prop_map(|s| WireValue::Str(s.into())),
        (any::<u32>(), any::<u64>()).prop_map(|(node, id)| WireValue::Remote { node, id }),
    ]
}

/// Reads a request frame back the way the runtime does: the head, then each value.
fn read_frame(mut data: Bytes) -> (FrameHead, Vec<WireValue<'static>>) {
    let head = decode_head(&mut data).expect("head decodes");
    let argc = match head {
        FrameHead::New { argc, .. } | FrameHead::Dependence { argc, .. } => argc,
        FrameHead::Shutdown => 0,
    };
    let args = (0..argc).map(|_| decode_value(&mut data).expect("value decodes").into_owned());
    (head, args.collect())
}

proptest! {
    /// The streamed wire format round-trips every request.
    #[test]
    fn wire_requests_round_trip(
        class in any::<u32>(),
        member in any::<u32>(),
        target in any::<u64>(),
        args in prop::collection::vec(arb_wire_value(), 0..6),
    ) {
        let argc = args.len();
        let mut frame = BytesMut::new();
        encode_new(&mut frame, None, class, args.iter().cloned());
        prop_assert_eq!(
            read_frame(frame.freeze()),
            (FrameHead::New { class, argc }, args.clone())
        );
        let kind = AccessKind::InvokeRet;
        let mut frame = BytesMut::new();
        encode_dependence(&mut frame, None, target, kind, member, args.iter().cloned());
        prop_assert_eq!(
            read_frame(frame.freeze()),
            (FrameHead::Dependence { target, kind, member, argc }, args)
        );
    }

    /// Responses round-trip as well.
    #[test]
    fn wire_responses_round_trip(v in arb_wire_value(), err in "[ -~]{0,40}") {
        for resp in [Response::Value(v), Response::Error(err)] {
            let mut frame = encode_response_in(BytesMut::new(), &resp);
            prop_assert_eq!(Response::decode(&mut frame), Ok(resp));
        }
    }

    /// Every partitioning method returns a complete, in-range assignment, and the
    /// reported edge cut never exceeds the total edge weight.
    #[test]
    fn partitioning_invariants(
        n in 1usize..40,
        nparts in 1usize..6,
        edges in prop::collection::vec((0usize..40, 0usize..40, 1u64..20), 0..120),
        method_idx in 0usize..3,
    ) {
        let mut b = GraphBuilder::new(n, 2);
        let mut total_weight = 0u64;
        for v in 0..n {
            b.set_weight(v, &[1 + (v as u64 % 3), 1]);
        }
        for (a, bb, w) in edges {
            if a < n && bb < n && a != bb {
                b.add_edge(a, bb, w);
                total_weight += w;
            }
        }
        let g = b.build();
        let method = [Method::Multilevel, Method::RoundRobin, Method::Random][method_idx];
        let cfg = PartitionConfig { nparts, method, ..Default::default() };
        let p = partition(&g, &cfg);
        prop_assert_eq!(p.assignment.len(), n);
        prop_assert!(p.assignment.iter().all(|&a| a < nparts.max(1)));
        prop_assert!(p.edgecut <= total_weight);
        prop_assert!(g.is_valid_assignment(&p.assignment, nparts.max(1)));
    }

    /// A plan is a function of the program and the configuration alone: planning a
    /// generated call tree twice gives the same cut, the same assignment and the
    /// same rewritten sites (nothing between the analyses and the rewriter iterates
    /// a container whose order varies from run to run).
    #[test]
    fn planning_is_a_function_of_program_and_config(
        seed in 0u64..1_000_000,
        depth in 1usize..5,
        width in 1usize..7,
        fan_out in 1usize..4,
        nodes in 2usize..5,
    ) {
        let g = autodist_workloads::generated(&autodist_workloads::GenConfig {
            seed,
            depth,
            width,
            fan_out,
            iterations: 1,
            ..Default::default()
        });
        let config = autodist::DistributorConfig { nodes, ..Default::default() };
        let plan = || {
            autodist::Distributor::new(config.clone())
                .try_distribute(&g.workload.program)
                .expect("generated programs plan")
        };
        let (first, second) = (plan(), plan());
        prop_assert_eq!(first.partitioning.edgecut, second.partitioning.edgecut);
        prop_assert_eq!(&first.partitioning.assignment, &second.partitioning.assignment);
        prop_assert_eq!(first.total_rewritten_sites(), second.total_rewritten_sites());
        prop_assert_eq!(&first.analysis.odg.edges, &second.analysis.odg.edges);
    }

    /// The front end is a function of the source text: a generated call tree of any
    /// shape compiles to the same program twice (class for class, instruction for
    /// instruction — the digest `BENCH_baseline.json` pins), and the verifier accepts it.
    #[test]
    fn compiling_is_a_function_of_the_source(
        seed in 0u64..1_000_000,
        depth in 1usize..6,
        width in 1usize..8,
        fan_out in 1usize..5,
        payload in 0usize..40,
    ) {
        let cfg = autodist_workloads::GenConfig {
            seed,
            depth,
            width,
            fan_out,
            payload,
            ..Default::default()
        };
        let first = autodist_workloads::generated(&cfg).workload.program;
        let second = autodist_workloads::generated(&cfg).workload.program;
        prop_assert_eq!(
            autodist_bench::baseline::program_digest(&first),
            autodist_bench::baseline::program_digest(&second)
        );
        prop_assert!(autodist_ir::verify::verify_program(&first).is_ok());
    }

    /// The MiniJava front-end + verifier never panic on random identifier-ish programs
    /// built from a constrained template, and verified programs always interpret
    /// without internal errors (they may legitimately hit arithmetic errors).
    #[test]
    fn frontend_verifier_interpreter_pipeline_is_total(
        a in 1i64..1000,
        b in 1i64..1000,
        iters in 1i64..50,
    ) {
        let src = format!(
            "class W {{ int f(int x) {{ return (x * {a} + {b}) % 9973; }} }}
             class Main {{
                 static int checksum;
                 static void main() {{
                     W w = new W();
                     int acc = 0;
                     int i = 0;
                     while (i < {iters}) {{ acc = acc + w.f(i); i = i + 1; }}
                     checksum = acc;
                 }}
             }}"
        );
        let program = autodist_ir::frontend::compile_source(&src).expect("template compiles");
        autodist_ir::verify::verify_program(&program).expect("template verifies");
        let report = autodist_runtime::cluster::run_centralized(&program, 1.0);
        prop_assert!(report.is_ok());
        // And distribution preserves the checksum.
        let plan = autodist::Distributor::new(autodist::DistributorConfig::default())
            .distribute(&program);
        let dist = plan.execute(&autodist_runtime::cluster::ClusterConfig::paper_testbed());
        prop_assert!(dist.is_ok());
        prop_assert_eq!(
            dist.final_statics.get("Main::checksum"),
            report.final_statics.get("Main::checksum")
        );
    }
}
