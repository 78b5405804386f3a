//! Regenerates Table 3: profiler overhead per metric over the Java Grande-style
//! workloads (baseline = profiling compiled in but not enabled).

use autodist::PipelineError;
use autodist_bench::scale_from_args;
use autodist_profiler::overhead::measure_overheads;
use autodist_profiler::Metric;

fn main() -> Result<(), PipelineError> {
    let scale = scale_from_args()?;
    let workloads: Vec<(String, autodist_ir::Program)> =
        autodist_workloads::table3_workloads(scale)
            .into_iter()
            .map(|w| (w.name, w.program))
            .collect();
    println!("Table 3 — profiler overhead (wall-clock ms, scale = {scale})");
    let table = measure_overheads(&workloads, &Metric::all(), 3);
    print!("{}", table.render());
    println!(
        "average overhead across all profilers: {:.2}% (paper reports 21.94%)",
        table.average_overhead_pct()
    );
    Ok(())
}
