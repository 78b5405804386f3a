//! The distribution pipeline called phase by phase, one span per phase.
//!
//! `Distributor::try_distribute` is opaque from outside, so the traced pass runs the
//! same phases through their public entry points, in the same order and with the
//! configuration `DistributorConfig::multilevel` carries, and checks that the result
//! matches what `try_distribute` produced for the same program.

use autodist::DistributorConfig;
use autodist_analysis::crg::build_crg;
use autodist_analysis::objects::collect_objects;
use autodist_analysis::odg::build_odg;
use autodist_analysis::rta::rapid_type_analysis;
use autodist_codegen::rewrite::{rewrite_for_node, ClassPlacement, RewrittenProgram};
use autodist_ir::layout::ProgramLayout;
use autodist_ir::program::Program;
use autodist_ir::verify::verify_program;
use autodist_partition::{partition, PartitionConfig};

use crate::inputs::{distributor, Prog};
use crate::metrics::Values;
use crate::trace::Recorder;

/// The phase spans, with the per-layer metric each one feeds.
pub const PHASES: &[(&str, &str)] = &[
    ("workloads.generate", "workloads.generate_ms"),
    ("analysis.rta", "analysis.rta_ms"),
    ("analysis.crg", "analysis.crg_ms"),
    ("analysis.objects", "analysis.objects_ms"),
    ("analysis.odg", "analysis.odg_ms"),
    ("partition.partition", "partition.partition_ms"),
    ("codegen.placement", "codegen.placement_ms"),
    ("codegen.rewrite", "codegen.rewrite_ms"),
    ("ir.verify", "ir.verify_ms"),
    ("ir.layout", "ir.layout_ms"),
];

/// Structure of one plan: what the exact per-layer counts are summed from.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlanShape {
    pub classes: usize,
    pub odg_nodes: usize,
    pub odg_edges: usize,
    pub edgecut: u64,
    pub imbalance_pct: f64,
    pub sites: usize,
}

/// Plans `program` over `nodes` nodes phase by phase (analysis, partition,
/// placement, rewrite, verification, layout), recording one span per phase.
pub fn plan_by_phases(
    rec: &mut Recorder,
    program: &Program,
    nodes: usize,
) -> Result<PlanShape, String> {
    let config = DistributorConfig::multilevel(nodes);
    let call_graph = rec.span("analysis.rta", || rapid_type_analysis(program));
    let crg = rec.span("analysis.crg", || build_crg(program, &call_graph));
    let objects = rec.span("analysis.objects", || collect_objects(program, &call_graph));
    let odg = rec.span("analysis.odg", || {
        build_odg(program, &crg, &objects, &config.weights)
    });
    let partitioning = rec.span("partition.partition", || {
        let graph = distributor(nodes).odg_graph(&odg);
        let part_cfg = PartitionConfig {
            nparts: nodes,
            method: config.method,
            balance_tolerance: config.balance_tolerance,
            seed: config.seed,
            ..Default::default()
        };
        partition(&graph, &part_cfg)
    });
    let placement = rec.span("codegen.placement", || {
        ClassPlacement::from_odg_partition(program, &odg, &partitioning)
    });
    let copies: Vec<RewrittenProgram> = rec.span("codegen.rewrite", || {
        (0..nodes)
            .map(|n| rewrite_for_node(program, &placement, n))
            .collect()
    });
    rec.span("ir.verify", || {
        copies.iter().try_for_each(|rp| verify_program(&rp.program))
    })
    .map_err(|errors| format!("rewritten copy failed verification: {errors:?}"))?;
    // What `prepare_server` does: clone the node programs, then build their layouts.
    let programs: Vec<Program> = rec.span("core.clone_programs", || {
        copies.iter().map(|rp| rp.program.clone()).collect()
    });
    let layouts: Vec<ProgramLayout> = rec.span("ir.layout", || {
        programs.iter().map(ProgramLayout::build).collect()
    });
    std::hint::black_box(&layouts);
    let worst = partitioning
        .imbalance
        .iter()
        .copied()
        .fold(1.0f64, f64::max);
    Ok(PlanShape {
        classes: program.class_count(),
        odg_nodes: odg.node_count(),
        odg_edges: odg.edge_count(),
        edgecut: partitioning.edgecut,
        imbalance_pct: (worst - 1.0) * 100.0,
        sites: copies.iter().map(|rp| rp.stats.total_sites()).sum(),
    })
}

/// One traced planning op: builds `prog` and plans it by phases under a `plan.op`
/// span, so the op's self time is what the phases do not account for.
pub fn traced_plan_op(rec: &mut Recorder, prog: &Prog, nodes: usize) -> Result<PlanShape, String> {
    rec.next_op();
    let op = rec.begin("plan.op");
    let workload = rec.span("workloads.generate", || prog.build());
    let shape = plan_by_phases(rec, &workload.program, nodes);
    rec.end(op);
    shape
}

/// Derives the compile-side per-layer metrics from the recorded `plan.op` spans:
/// mean milliseconds per op for every phase, the share of an op the phases do not
/// cover, and the mean structure of the plans in `shapes`.
pub fn report(rec: &Recorder, shapes: &[PlanShape], out: &mut Values) {
    let ops = rec.count("plan.op").max(1) as f64;
    for (span, metric) in PHASES {
        out.set(metric, rec.total_ms(span) / ops);
    }
    let whole = rec.total_ms("plan.op");
    let residual = if whole > 0.0 {
        rec.self_ms("plan.op") / whole * 100.0
    } else {
        0.0
    };
    out.set("plan.phase_sum_residual_pct", residual);
    let n = shapes.len().max(1) as f64;
    let mean = |f: &dyn Fn(&PlanShape) -> f64| shapes.iter().map(f).sum::<f64>() / n;
    out.set("ir.classes_per_op", mean(&|s| s.classes as f64));
    out.set("analysis.odg_nodes_per_op", mean(&|s| s.odg_nodes as f64));
    out.set("analysis.odg_edges_per_op", mean(&|s| s.odg_edges as f64));
    out.set("partition.edgecut_per_op", mean(&|s| s.edgecut as f64));
    out.set("partition.imbalance_pct", mean(&|s| s.imbalance_pct));
    out.set("codegen.rewritten_sites_per_op", mean(&|s| s.sites as f64));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_by_phase_planning_matches_the_opaque_pipeline() {
        let prog = Prog::Bank(12);
        let program = prog.build().program;
        for nodes in [2, 4] {
            let plan = distributor(nodes).try_distribute(&program).expect("plans");
            let mut rec = Recorder::new();
            rec.set_enabled(true);
            let shape = traced_plan_op(&mut rec, &prog, nodes).expect("plans by phases");
            assert_eq!(shape.edgecut, plan.partitioning.edgecut);
            assert_eq!(shape.sites, plan.total_rewritten_sites());
            assert_eq!(shape.odg_nodes, plan.analysis.odg.node_count());
            for (span, _) in PHASES {
                assert_eq!(rec.count(span), 1, "{span}");
            }
            let mut values = Values::default();
            report(&rec, &[shape], &mut values);
            assert_eq!(
                values.get("partition.edgecut_per_op"),
                Some(shape.edgecut as f64)
            );
            assert!(values
                .get("plan.phase_sum_residual_pct")
                .is_some_and(|r| (0.0..=100.0).contains(&r)));
        }
    }
}
