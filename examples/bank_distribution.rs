//! The paper's running example end to end, from source text: compile the Bank/Account
//! program (Figure 2), build the CRG (Figure 3) and the ODG (Figure 4), partition it
//! two ways, show the Figure 8/9 bytecode transformations and run both node copies.
//!
//! Run with: `cargo run --example bank_distribution`

use autodist::{viz, Distributor, DistributorConfig, PipelineError};
use autodist_ir::printer::print_bytecode;
use autodist_runtime::cluster::ClusterConfig;

fn main() -> Result<(), PipelineError> {
    let workload = autodist_workloads::bank(20);
    let program = &workload.program;

    let distributor = Distributor::new(DistributorConfig::default());
    let plan = distributor.try_distribute(program)?;

    println!("=== Figure 3: class relation graph (VCG) ===");
    println!("{}", viz::crg_to_vcg(program, &plan.analysis.crg));

    println!("=== Figure 4: object dependence graph with partition numbers (VCG) ===");
    println!(
        "{}",
        viz::odg_to_vcg(program, &plan.analysis, Some(&plan.partitioning.assignment))
    );

    println!("=== class placement ===");
    for (class, node) in plan.placement.homes() {
        println!("  {:<20} -> node {node}", program.class(class).name);
    }

    println!();
    println!("=== Figure 8/9 style: Main.main rewritten for node 0 ===");
    let node0 = &plan.node_programs[0];
    let entry = node0
        .program
        .entry
        .ok_or_else(|| PipelineError::Codegen("node 0 copy lost its entry point".to_string()))?;
    println!("{}", print_bytecode(&node0.program, entry));
    println!(
        "rewrites: {} allocations, {} invocations, {} field accesses",
        node0.stats.rewritten_allocations,
        node0.stats.rewritten_invocations,
        node0.stats.rewritten_field_accesses
    );

    let baseline = distributor.try_run_baseline(program)?;
    let report = plan.try_execute(&ClusterConfig::paper_testbed())?;
    println!();
    println!("centralized : {:>10.0} us", baseline.virtual_time_us);
    println!(
        "distributed : {:>10.0} us ({} messages)",
        report.virtual_time_us,
        report.total_messages()
    );
    println!(
        "correct     : {}",
        report.final_statics.get("Main::checksum") == baseline.final_statics.get("Main::checksum")
    );
    Ok(())
}
