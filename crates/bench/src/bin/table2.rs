//! Regenerates Table 2: the execution-time breakdown of the code-distribution
//! transformation (CRG construction, ODG construction, partitioning, bytecode rewrite).

use autodist::{Distributor, DistributorConfig, PipelineError};
use autodist_bench::scale_from_args;

fn main() -> Result<(), PipelineError> {
    let scale = scale_from_args()?;
    println!("Table 2 — distribution transformation times in ms (scale = {scale})");
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "benchmark", "construct", "ODG", "partition", "rewrite", "total"
    );
    let distributor = Distributor::new(DistributorConfig::default());
    for w in autodist_workloads::table1_workloads(scale) {
        let plan = distributor.try_distribute(&w.program)?;
        let t = plan.timings;
        println!(
            "{:<12} {:>12.2} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
            w.name,
            t.crg_ms,
            t.odg_ms,
            t.partition_ms,
            t.rewrite_ms,
            t.total_ms()
        );
    }
    Ok(())
}
