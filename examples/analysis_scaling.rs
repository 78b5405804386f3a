//! How the compile side's phases grow with the program: rta, crg, objects, odg and a
//! two-way partition on generated call trees of 73 to 1 153 classes (fan-out 3),
//! milliseconds, minimum of five runs. The benchmark's `plan_sweep` pool is 73-class
//! programs only, so this is where a phase that rescans shows: a near-linear phase
//! grows about 16× from the first row to the last, a quadratic one about 250×.
//!
//! Run with: `cargo run --release --example analysis_scaling`

use std::time::Instant;

use autodist::{odg_partition_graph, DistributorConfig};
use autodist_analysis::crg::build_crg;
use autodist_analysis::objects::collect_objects;
use autodist_analysis::odg::build_odg;
use autodist_analysis::rta::rapid_type_analysis;
use autodist_partition::{partition, PartitionConfig};
use autodist_workloads::{generated, GenConfig};

/// Milliseconds `f` took, and what it returned.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (start.elapsed().as_secs_f64() * 1e3, out)
}

fn main() {
    let weights = DistributorConfig::default().weights;
    println!(
        "{:>4} {:>4} {:>8} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "d", "w", "classes", "rta", "crg", "objects", "odg", "partition"
    );
    for (depth, width) in [(6, 12), (8, 24), (10, 48), (12, 96)] {
        let program = generated(&GenConfig {
            seed: 1,
            depth,
            width,
            fan_out: 3,
            ..Default::default()
        })
        .workload
        .program;
        let mut best = [f64::INFINITY; 5];
        for _ in 0..5 {
            let (rta, call_graph) = timed(|| rapid_type_analysis(&program));
            let (crg_ms, crg) = timed(|| build_crg(&program, &call_graph));
            let (objects_ms, objects) = timed(|| collect_objects(&program, &call_graph));
            let (odg_ms, odg) = timed(|| build_odg(&program, &crg, &objects, &weights));
            let (partition_ms, _) =
                timed(|| partition(&odg_partition_graph(&odg), &PartitionConfig::kway(2)));
            let run = [rta, crg_ms, objects_ms, odg_ms, partition_ms];
            for (b, ms) in best.iter_mut().zip(run) {
                *b = b.min(ms);
            }
        }
        println!(
            "{depth:>4} {width:>4} {:>8} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>10.3}",
            program.class_count(),
            best[0],
            best[1],
            best[2],
            best[3],
            best[4]
        );
    }
}
