//! Cross-crate integration tests: the full pipeline (front-end -> analysis ->
//! partitioning -> communication generation -> distributed execution) must preserve
//! program behaviour for every bundled workload.

use autodist::{Distributor, DistributorConfig};
use autodist_runtime::cluster::ClusterConfig;

#[test]
fn every_table1_workload_distributes_correctly_over_two_nodes() {
    let distributor = Distributor::new(DistributorConfig::default());
    for w in autodist_workloads::table1_workloads(1) {
        let baseline = distributor.run_baseline(&w.program);
        assert!(baseline.is_ok(), "{}: {:?}", w.name, baseline.error);
        let plan = distributor.distribute(&w.program);
        let report = plan.execute(&ClusterConfig::paper_testbed());
        assert!(report.is_ok(), "{}: {:?}", w.name, report.error);
        assert_eq!(
            report.final_statics.get("Main::checksum"),
            baseline.final_statics.get("Main::checksum"),
            "{}: distributed checksum differs",
            w.name
        );
    }
}

#[test]
fn bank_example_distributes_correctly_with_naive_partitioning_too() {
    let distributor = Distributor::new(DistributorConfig::paper_defaults());
    let w = autodist_workloads::bank(25);
    let baseline = distributor.run_baseline(&w.program);
    let plan = distributor.distribute(&w.program);
    let report = plan.execute(&ClusterConfig::paper_testbed());
    assert!(report.is_ok(), "{:?}", report.error);
    assert_eq!(
        report.final_statics.get("Main::checksum"),
        baseline.final_statics.get("Main::checksum")
    );
}

/// Regression test for the ROADMAP item "multilevel partitioner rarely cuts": with the
/// default configuration the Bank example used to land entirely on node 0 (zero
/// messages, no offloading). The class placement's guard in
/// `ClassPlacement::from_odg_partition` must keep at least two nodes populated so the
/// default pipeline really distributes.
#[test]
fn default_multilevel_distribution_of_bank_actually_communicates() {
    let distributor = Distributor::new(DistributorConfig::default());
    let w = autodist_workloads::bank(40);
    let plan = distributor.distribute(&w.program);
    let populated: usize = plan
        .placement
        .classes_per_node()
        .iter()
        .filter(|&&c| c > 0)
        .count();
    assert!(populated >= 2, "placement uses at least two nodes");
    let baseline = distributor.run_baseline(&w.program);
    let report = plan.execute(&ClusterConfig::paper_testbed());
    assert!(report.is_ok(), "{:?}", report.error);
    assert_eq!(
        report.final_statics.get("Main::checksum"),
        baseline.final_statics.get("Main::checksum")
    );
    assert!(
        report.total_messages() > 0,
        "the default method must produce real communication"
    );
}

#[test]
fn rewritten_programs_always_verify() {
    use autodist_ir::verify::verify_program;
    let distributor = Distributor::new(DistributorConfig::default());
    for w in autodist_workloads::table1_workloads(1) {
        let plan = distributor.distribute(&w.program);
        for node in &plan.node_programs {
            verify_program(&node.program)
                .unwrap_or_else(|e| panic!("{} node {}: {e:?}", w.name, node.node));
        }
    }
}

/// The partitioner applies no floor on non-empty parts, and still every offline plan
/// distributes: over Table 1, Table 3, `bank`, the serving mix and a default
/// `generated` tree, at 2, 4 and 8 nodes, the ODG partitioning has `min(2, ODG nodes)`
/// non-empty parts (each bisection's balance envelope) and the class placement
/// populates at least two nodes (`ClassPlacement::from_odg_partition`'s guard).
#[test]
fn offline_plans_stay_distributed_without_a_floor() {
    use autodist_workloads::{bank, crypt, generated, method_bench, GenConfig};
    let mut corpus = autodist_workloads::table1_workloads(1);
    corpus.extend(autodist_workloads::table3_workloads(1));
    corpus.extend([bank(40), bank(12), method_bench(60), crypt(120)]);
    corpus.push(generated(&GenConfig::default()).workload);
    let mut collapsed = Vec::new();
    for nodes in [2, 4, 8] {
        let distributor = Distributor::new(DistributorConfig::multilevel(nodes));
        for w in &corpus {
            let plan = distributor.distribute(&w.program);
            let assignment = &plan.partitioning.assignment;
            let mut filled = vec![false; plan.partitioning.nparts];
            assignment.iter().for_each(|&part| filled[part] = true);
            let parts = filled.iter().filter(|&&f| f).count();
            let populated = (plan.placement.classes_per_node().iter())
                .filter(|&&c| c > 0)
                .count();
            if parts < assignment.len().min(2) || populated < 2 {
                collapsed.push(format!(
                    "{} at {nodes} nodes: {parts} non-empty parts of {} ODG nodes, \
                     {populated} populated nodes",
                    w.name,
                    assignment.len()
                ));
            }
        }
    }
    for plan in &collapsed {
        println!("{plan}");
    }
    assert!(
        collapsed.is_empty(),
        "{} plans collapsed, printed above",
        collapsed.len()
    );
}
