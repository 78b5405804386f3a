//! What the register form buys the interpreter, workload by workload: seed
//! instructions, then dispatch-loop iterations and wall-clock nanoseconds per seed
//! instruction in the 1:1 stack form and in the register form, for every Table 1
//! workload at scales 1 and 2 and the two chain microbenches. Each program runs
//! centralized from its entry point; times are the minimum of five runs, layout
//! construction excluded. Both forms must agree on the seed-instruction count, and
//! the run stops if they do not.
//!
//! Run with: `cargo run --release --example dispatch_census`

use std::sync::Arc;
use std::time::Instant;

use autodist_bench::microbench::{compile_chain, ARITH_CHAIN_DEEP, COND_CHAIN_DEEP};
use autodist_ir::layout::{LayoutOptions, ProgramLayout};
use autodist_ir::program::Program;
use autodist_runtime::interp::Interp;

const RUNS: usize = 5;

/// Seed instructions, dispatches and the fastest of [`RUNS`] runs (ns) of `program`
/// in one form.
fn measure(program: &Program, fuse: bool) -> (u64, u64, f64) {
    let layout = Arc::new(ProgramLayout::build_with(program, LayoutOptions { fuse }));
    let mut best = f64::INFINITY;
    let mut counts = (0, 0);
    for _ in 0..RUNS {
        let mut interp = Interp::with_layout(Arc::clone(&layout));
        let start = Instant::now();
        let result = std::hint::black_box(interp.run_entry());
        best = best.min(start.elapsed().as_secs_f64() * 1e9);
        result.expect("the program runs");
        counts = (interp.counters.instructions, interp.counters.dispatches);
    }
    (counts.0, counts.1, best)
}

fn row(name: &str, scale: &str, program: &Program) {
    let (seed, stack_dispatches, stack_ns) = measure(program, false);
    let (again, dispatches, ns) = measure(program, true);
    assert_eq!(
        seed, again,
        "{name}: the forms disagree on seed instructions"
    );
    let per = |t: f64| t / seed as f64;
    println!(
        "| {name:<22} | {scale:>5} | {seed:>10} | {stack_dispatches:>10} | {:>8.2} | {dispatches:>10} ({:>4.1} %) | {:>8.2} | **{:.2}×** |",
        per(stack_ns),
        100.0 * dispatches as f64 / seed as f64,
        per(ns),
        stack_ns / ns
    );
}

fn main() {
    println!("### Stack form vs register form (min of {RUNS} runs)\n");
    println!(
        "| {:<22} | {:>5} | {:>10} | {:>10} | {:>8} | {:>19} | {:>8} | {:<9} |",
        "Workload",
        "Scale",
        "Seed insns",
        "Stack disp",
        "ns/insn",
        "Register disp",
        "ns/insn",
        "Speedup"
    );
    println!(
        "|{:-<24}|{:->7}|{:->12}|{:->12}|{:->10}|{:->21}|{:->10}|{:-<11}|",
        "", "", "", "", "", "", "", ""
    );
    for scale in [1, 2] {
        for w in autodist_workloads::table1_workloads(scale) {
            row(&w.name, &scale.to_string(), &w.program);
        }
    }
    for (name, src) in [
        ("arith_chain_deep", ARITH_CHAIN_DEEP),
        ("cond_chain_deep", COND_CHAIN_DEEP),
    ] {
        row(name, "-", &compile_chain(src));
    }
}
