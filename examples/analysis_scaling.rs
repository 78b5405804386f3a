//! How the compile side's phases grow with the program: the front end (`generated`:
//! writing the source and compiling it), rta, crg, objects, odg and a 2-, 4- and 8-way
//! partition on generated call trees of 73 to 1 153 classes (fan-out 3), milliseconds,
//! minimum of five runs. The benchmark's `plan_sweep` pool is 73-class programs only,
//! so this is where a phase that rescans shows: a near-linear phase grows about 16×
//! from the first row to the last (as the source does), a quadratic one about 250×.
//! The row after the table prints each column's growth from the first size to the
//! last as an exponent of the class ratio (`n^`): about 1.0 is linear, 2.0 quadratic.
//!
//! A second table follows the per-node copies at 2 / 4 / 8 nodes through the public
//! path: the rewriter alone (`rewrite_for_node` per node under the plan's placement),
//! phase 4 of `try_distribute` (placement, rewrite and verification of the copies —
//! its `timings.rewrite_ms`, so what it has over the rewriter is mostly the verifier),
//! `prepare_server` (the layouts), and how many distinct method bodies the layouts
//! decode against methods × nodes. Per-node work follows what a node can run, so the
//! three grow with the program, not with program × nodes.
//!
//! Run with: `cargo run --release --example analysis_scaling`

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use autodist::{odg_partition_graph, Distributor, DistributorConfig};
use autodist_analysis::crg::build_crg;
use autodist_analysis::objects::collect_objects;
use autodist_analysis::odg::build_odg;
use autodist_analysis::rta::rapid_type_analysis;
use autodist_codegen::rewrite::rewrite_for_node;
use autodist_ir::layout::ProgramLayout;
use autodist_partition::{partition, PartitionConfig};
use autodist_runtime::cluster::ClusterConfig;
use autodist_runtime::NetworkConfig;
use autodist_workloads::{generated, GenConfig};

/// Milliseconds `f` took, and what it returned.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (start.elapsed().as_secs_f64() * 1e3, out)
}

const SIZES: [(usize, usize); 4] = [(6, 12), (8, 24), (10, 48), (12, 96)];

fn config(depth: usize, width: usize) -> GenConfig {
    GenConfig {
        seed: 1,
        depth,
        width,
        fan_out: 3,
        ..Default::default()
    }
}

fn program(depth: usize, width: usize) -> autodist_ir::program::Program {
    generated(&config(depth, width)).workload.program
}

/// The per-node copies of a plan: milliseconds (minimum of three) of the rewriter
/// alone, of phase 4 and of `prepare_server`, and the decoded bodies behind the layouts.
fn node_copies() {
    println!(
        "\n{:>8} {:>5} {:>9} {:>9} {:>9} {:>16} {:>15}",
        "classes", "nodes", "rewrite", "phase 4", "prepare", "distinct bodies", "methods x nodes"
    );
    for (depth, width) in SIZES {
        let program = program(depth, width);
        for nodes in [2, 4, 8] {
            let distributor = Distributor::new(DistributorConfig::multilevel(nodes));
            let cluster = ClusterConfig {
                network: NetworkConfig {
                    node_speeds: vec![1.0; nodes],
                    ..NetworkConfig::paper_testbed()
                },
                ..ClusterConfig::default()
            };
            let mut best = [f64::INFINITY; 3];
            let mut bodies = (0, 0);
            for _ in 0..3 {
                let plan = distributor.try_distribute(&program).expect("plans");
                let (rewrite_ms, _) = timed(|| {
                    (0..nodes)
                        .map(|node| rewrite_for_node(&program, &plan.placement, node))
                        .collect::<Vec<_>>()
                });
                let (prepare_ms, _) = timed(|| plan.prepare_server(&cluster));
                for (b, ms) in
                    best.iter_mut()
                        .zip([rewrite_ms, plan.timings.rewrite_ms, prepare_ms])
                {
                    *b = b.min(ms);
                }
                let layouts = ProgramLayout::build_family(plan.programs(), Default::default());
                let all = layouts.iter().flat_map(|l| &l.method_ops);
                let distinct: HashSet<_> = all.clone().map(Arc::as_ptr).collect();
                bodies = (distinct.len(), all.count());
            }
            println!(
                "{:>8} {nodes:>5} {:>9.3} {:>9.3} {:>9.3} {:>16} {:>15}",
                program.class_count(),
                best[0],
                best[1],
                best[2],
                bodies.0,
                bodies.1
            );
        }
    }
}

fn main() {
    let weights = DistributorConfig::default().weights;
    println!(
        "{:>4} {:>4} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "d", "w", "classes", "front", "rta", "crg", "objects", "odg", "part/2", "part/4", "part/8"
    );
    // Each size's class count and best times, for the growth row.
    let mut rows: Vec<(usize, [f64; 8])> = Vec::new();
    for (depth, width) in SIZES {
        let config = config(depth, width);
        let program = program(depth, width);
        let mut best = [f64::INFINITY; 8];
        for _ in 0..5 {
            let (front, _) = timed(|| generated(&config));
            let (rta, call_graph) = timed(|| rapid_type_analysis(&program));
            let (crg_ms, crg) = timed(|| build_crg(&program, &call_graph));
            let (objects_ms, objects) = timed(|| collect_objects(&program, &call_graph));
            let (odg_ms, odg) = timed(|| build_odg(&program, &crg, &objects, &weights));
            // 4 and 8 parts add the recursion's per-level `induce`.
            let [p2, p4, p8] = [2, 4, 8].map(|parts| {
                timed(|| partition(&odg_partition_graph(&odg), &PartitionConfig::kway(parts))).0
            });
            let run = [front, rta, crg_ms, objects_ms, odg_ms, p2, p4, p8];
            for (b, ms) in best.iter_mut().zip(run) {
                *b = b.min(ms);
            }
        }
        print!("{depth:>4} {width:>4} {:>8}", program.class_count());
        for ms in best {
            print!(" {ms:>9.3}");
        }
        println!();
        rows.push((program.class_count(), best));
    }
    let ((first_classes, first), (last_classes, last)) = (rows[0], rows[SIZES.len() - 1]);
    let ratio = (last_classes as f64 / first_classes as f64).ln();
    print!(
        "{:>4} {:>4} {:>8}",
        "n^",
        "",
        format!("{first_classes}-{last_classes}")
    );
    for (a, b) in first.iter().zip(last) {
        print!(" {:>9.2}", (b / a).ln() / ratio);
    }
    println!();
    node_copies();
}
