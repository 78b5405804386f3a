//! Regenerates Table 1: benchmark sizes and the sizes/edge cuts of the class relation
//! graph and the object dependence graph for each benchmark.

use autodist::{DistributorConfig, PipelineError, Table1Row};
use autodist_bench::{scale_from_args, table1_row};

fn main() -> Result<(), PipelineError> {
    let scale = scale_from_args()?;
    println!("Table 1 — benchmark and graph sizes (scale = {scale})");
    println!("{}", Table1Row::header());
    for w in autodist_workloads::table1_workloads(scale) {
        let row = table1_row(&w, &DistributorConfig::default())?;
        println!("{}", row.render());
    }
    let bank = autodist_workloads::bank(100 * scale);
    println!(
        "{}",
        table1_row(&bank, &DistributorConfig::default())?.render()
    );
    Ok(())
}
