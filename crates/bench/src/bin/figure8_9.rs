//! Regenerates Figures 8 and 9: the bytecode transformations that the communication
//! generator applies to a remote method invocation (`account.getSavings()`) and to a
//! remote instantiation (`new Account(...)`).

use autodist::PipelineError;
use autodist_codegen::rewrite::{rewrite_for_node, ClassPlacement};
use autodist_ir::printer::print_bytecode;
use std::collections::BTreeMap;

fn class(
    program: &autodist_ir::Program,
    name: &str,
) -> Result<autodist_ir::ClassId, PipelineError> {
    program
        .class_by_name(name)
        .ok_or_else(|| PipelineError::Codegen(format!("workload is missing class {name}")))
}

fn main() -> Result<(), PipelineError> {
    let w = autodist_workloads::bank(10);
    let program = &w.program;
    let mut home = BTreeMap::new();
    home.insert(class(program, "Main")?, 0);
    home.insert(class(program, "Bank")?, 1);
    home.insert(class(program, "Account")?, 1);
    let placement = ClassPlacement::new(2, home);

    let main = program
        .entry
        .ok_or_else(|| PipelineError::Codegen("workload has no entry point".to_string()))?;
    println!("Original bytecode of Main.main (Account/Bank local):");
    println!("{}", print_bytecode(program, main));

    let rewritten = rewrite_for_node(program, &placement, 0);
    println!("Transformed bytecode of Main.main on node 0 (Account/Bank hosted on node 1):");
    let rewritten_entry = rewritten
        .program
        .entry
        .ok_or_else(|| PipelineError::Codegen("rewritten copy lost its entry point".to_string()))?;
    println!("{}", print_bytecode(&rewritten.program, rewritten_entry));
    println!(
        "rewrite statistics: {} allocations, {} invocations, {} field accesses in {} methods",
        rewritten.stats.rewritten_allocations,
        rewritten.stats.rewritten_invocations,
        rewritten.stats.rewritten_field_accesses,
        rewritten.stats.methods_transformed
    );
    Ok(())
}
