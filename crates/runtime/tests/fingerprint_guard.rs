//! The layout-fingerprint handshake that licenses slot-addressed (v2) frames.
//!
//! Dense class ids, field slots and selectors are only meaningful between two
//! nodes whose programs share the same *shape* (names, hierarchy, signatures) —
//! per-node body rewrites are fine, a drifted field table is not. The first
//! frame on every link carries the sender's shape fingerprint; the receiver
//! must reject a mismatch with a typed error before ever dispatching a slot.

use autodist_codegen::rewrite::{rewrite_for_node, ClassPlacement};
use autodist_ir::frontend::compile_source;
use autodist_ir::{Program, Type};
use autodist_runtime::cluster::{run_distributed, ClusterConfig, Schedule};
use autodist_runtime::wire::WireError;
use autodist_runtime::ExecError;
use std::collections::BTreeMap;

/// A two-node placement (Main on 0, Data on 1); `drift_remote_shape` gives the
/// remote node's copy an extra instance field *after* the rewrite, so the two
/// nodes disagree on Data's slot table — exactly the deployment-skew bug the
/// fingerprint exists to catch.
fn two_node_copies(drift_remote_shape: bool) -> Vec<Program> {
    let src = r#"
        class Data {
            int value;
        }
        class Main {
            static int checksum;
            static void main() {
                Data d = new Data();
                d.value = 17;
                checksum = d.value * 3;
            }
        }
    "#;
    let p = compile_source(src).expect("source compiles");
    let mut home = BTreeMap::new();
    home.insert(p.class_by_name("Main").unwrap(), 0);
    home.insert(p.class_by_name("Data").unwrap(), 1);
    let placement = ClassPlacement::new(2, home);
    let mut copies: Vec<Program> = (0..2)
        .map(|n| rewrite_for_node(&p, &placement, n).program)
        .collect();
    if drift_remote_shape {
        let data = copies[1].class_by_name("Data").expect("Data exists");
        copies[1].add_field(data, "phantom", Type::Int, false);
    }
    copies
}

#[test]
fn matching_shapes_execute_and_communicate() {
    let report = run_distributed(
        &two_node_copies(false),
        &ClusterConfig {
            schedule: Schedule::Inline,
            ..ClusterConfig::paper_testbed()
        },
    );
    assert!(report.is_ok(), "{:?}", report.error);
    assert!(report.total_messages() > 0, "the placement communicates");
}

/// A drifted remote shape terminates with a typed fingerprint error — surfaced
/// either directly (the mismatch hits the root) or as the remote failure the
/// serving node sent back — never a wrong-slot dispatch or a hang.
#[test]
fn shape_drift_is_rejected_with_a_typed_fingerprint_error() {
    let report = run_distributed(
        &two_node_copies(true),
        &ClusterConfig {
            schedule: Schedule::Inline,
            ..ClusterConfig::paper_testbed()
        },
    );
    assert!(!report.is_ok(), "a drifted layout must not execute");
    match report.error {
        Some(ExecError::Wire(WireError::FingerprintMismatch { ours, theirs })) => {
            assert_ne!(ours, theirs, "the fingerprints really differ");
        }
        Some(ExecError::RemoteFailure(ref msg)) => {
            assert!(
                msg.contains("fingerprint mismatch"),
                "unexpected remote failure: {msg}"
            );
        }
        ref other => panic!("expected a typed fingerprint rejection, got {other:?}"),
    }
}
