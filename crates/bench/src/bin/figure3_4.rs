//! Regenerates Figures 3 and 4: the class relation graph and the object dependence
//! graph of the Bank/Account example, in VCG (aiSee) and Graphviz DOT formats.

use autodist::viz;
use autodist::{Distributor, DistributorConfig, PipelineError};
use std::fs;

fn io_err(e: std::io::Error) -> PipelineError {
    PipelineError::Config(format!("cannot write results: {e}"))
}

fn main() -> Result<(), PipelineError> {
    let w = autodist_workloads::bank(100);
    let distributor = Distributor::new(DistributorConfig::default());
    let plan = distributor.try_distribute(&w.program)?;

    let out_dir = std::path::Path::new("results");
    fs::create_dir_all(out_dir).map_err(io_err)?;
    let crg_vcg = viz::crg_to_vcg(&w.program, &plan.analysis.crg);
    let crg_dot = viz::crg_to_dot(&w.program, &plan.analysis.crg);
    let assignment = Some(plan.partitioning.assignment.as_slice());
    let odg_vcg = viz::odg_to_vcg(&w.program, &plan.analysis, assignment);
    let odg_dot = viz::odg_to_dot(&w.program, &plan.analysis, assignment);
    fs::write(out_dir.join("figure3_crg.vcg"), &crg_vcg).map_err(io_err)?;
    fs::write(out_dir.join("figure3_crg.dot"), &crg_dot).map_err(io_err)?;
    fs::write(out_dir.join("figure4_odg.vcg"), &odg_vcg).map_err(io_err)?;
    fs::write(out_dir.join("figure4_odg.dot"), &odg_dot).map_err(io_err)?;
    fs::write(
        out_dir.join("placement.dot"),
        viz::placement_to_dot(&w.program, &plan.placement),
    )
    .map_err(io_err)?;

    println!(
        "Figure 3 — class relation graph ({} nodes, {} edges)",
        plan.analysis.crg.node_count(),
        plan.analysis.crg.edge_count()
    );
    println!("{crg_vcg}");
    println!(
        "Figure 4 — object dependence graph ({} nodes, {} edges)",
        plan.analysis.odg.node_count(),
        plan.analysis.odg.edge_count()
    );
    println!("{odg_vcg}");
    println!("written to results/figure3_crg.{{vcg,dot}} and results/figure4_odg.{{vcg,dot}}");
    Ok(())
}
