//! Prints the identity baseline (see `autodist_bench::baseline`); the committed copy is
//! re-recorded with
//! `cargo run --release -p autodist-bench --bin baseline > BENCH_baseline.json`.

use autodist::PipelineError;

fn main() -> Result<(), PipelineError> {
    print!("{}", autodist_bench::baseline::render()?);
    Ok(())
}
