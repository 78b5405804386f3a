//! Regenerates Figure 11: the performance comparison of centralized and distributed
//! executions (speedup percentage per benchmark).

use autodist::{DistributorConfig, PipelineError};
use autodist_bench::{measure_speedup, scale_from_args};

fn main() -> Result<(), PipelineError> {
    let scale = scale_from_args()?;
    println!("Figure 11 — centralized vs distributed execution (scale = {scale})");
    println!(
        "{:<12} {:>14} {:>14} {:>10} {:>10} {:>10} {:>9}",
        "benchmark", "central (us)", "distrib (us)", "speedup%", "messages", "bytes", "correct"
    );
    // Multilevel partitioning with the default resource model; pass a scale argument to
    // grow the workloads (larger compute-to-communication ratios favour distribution).
    let config = DistributorConfig::default();
    let mut rows = autodist_workloads::table1_workloads(scale);
    rows.push(autodist_workloads::bank(60 * scale));
    for w in rows {
        let row = measure_speedup(&w, &config)?;
        println!(
            "{:<12} {:>14.0} {:>14.0} {:>9.1}% {:>10} {:>10} {:>9}",
            row.benchmark,
            row.centralized_us,
            row.distributed_us,
            row.speedup_pct(),
            row.messages,
            row.bytes,
            row.checksum_matches
        );
    }
    println!();
    println!("paper range: 79.2% .. 175.2% with a naive partitioning on a 2-node testbed");
    Ok(())
}
