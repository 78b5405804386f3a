//! Graph export in VCG and Graphviz DOT formats.
//!
//! The paper visualises the class relation graph and the object dependence graph with
//! the aiSee tool, which consumes the VCG (Visualising Compiler Graphs) format; these
//! exporters regenerate Figures 3 and 4. A DOT exporter is provided as well since
//! Graphviz is what most readers have installed today.

use std::fmt::Write as _;

use autodist_analysis::crg::{ClassPart, ClassRelationGraph, CrgEdgeKind};
use autodist_analysis::objects::Multiplicity;
use autodist_analysis::odg::{OdgEdgeKind, OdgNode};
use autodist_codegen::rewrite::ClassPlacement;
use autodist_ir::program::Program;

use crate::Analysis;

fn crg_node_label(program: &Program, class: autodist_ir::ClassId, part: ClassPart) -> String {
    let prefix = match part {
        ClassPart::Static => "ST",
        ClassPart::Dynamic => "DT",
    };
    format!("{prefix} {}", program.class(class).name)
}

fn crg_edge_style(kind: CrgEdgeKind) -> (&'static str, &'static str) {
    match kind {
        CrgEdgeKind::Use => ("use", "solid"),
        CrgEdgeKind::Export => ("export", "dashed"),
        CrgEdgeKind::Import => ("import", "dotted"),
    }
}

/// Renders the class relation graph in VCG format (Figure 3).
pub fn crg_to_vcg(program: &Program, crg: &ClassRelationGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "graph: {{ title: \"Class Relation Graph\"");
    let _ = writeln!(out, "  layoutalgorithm: minbackward");
    for node in &crg.nodes {
        let _ = writeln!(
            out,
            "  node: {{ title: \"{}\" label: \"{}\" }}",
            crg_node_label(program, node.class, node.part),
            crg_node_label(program, node.class, node.part)
        );
    }
    for edge in &crg.edges {
        let (label, _) = crg_edge_style(edge.kind);
        let _ = writeln!(
            out,
            "  edge: {{ sourcename: \"{}\" targetname: \"{}\" label: \"{}\" }}",
            crg_node_label(program, edge.from.class, edge.from.part),
            crg_node_label(program, edge.to.class, edge.to.part),
            label
        );
    }
    let _ = writeln!(out, "}}");
    out
}

/// Renders the class relation graph in Graphviz DOT format.
pub fn crg_to_dot(program: &Program, crg: &ClassRelationGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph crg {{");
    let _ = writeln!(out, "  node [shape=box];");
    for node in &crg.nodes {
        let label = crg_node_label(program, node.class, node.part);
        let _ = writeln!(out, "  \"{label}\";");
    }
    for edge in &crg.edges {
        let (label, style) = crg_edge_style(edge.kind);
        let _ = writeln!(
            out,
            "  \"{}\" -> \"{}\" [label=\"{}\", style={}];",
            crg_node_label(program, edge.from.class, edge.from.part),
            crg_node_label(program, edge.to.class, edge.to.part),
            label,
            style
        );
    }
    let _ = writeln!(out, "}}");
    out
}

/// The label of ODG node `idx` as Figure 4 prints it: `ST Main` for a static root,
/// `1 Account @Bank.initializeAccounts:12` for an allocation site (`*` if it summarises
/// many objects), then the node's partition in brackets when `assignment` has one.
fn odg_node_label(
    program: &Program,
    analysis: &Analysis,
    idx: usize,
    assignment: Option<&[usize]>,
) -> String {
    let mut label = match analysis.odg.nodes[idx] {
        OdgNode::StaticRoot { class } => format!("ST {}", program.class(class).name),
        OdgNode::Object {
            site,
            class,
            multiplicity,
        } => {
            let prefix = match multiplicity {
                Multiplicity::Single => "1",
                Multiplicity::Summary => "*",
            };
            let site = analysis.objects.site(site);
            let m = program.method(site.method);
            format!(
                "{prefix} {} @{}.{}:{}",
                program.class(class).name,
                program.class(m.class).name,
                m.name,
                site.pc
            )
        }
    };
    if let Some(p) = assignment.and_then(|a| a.get(idx)) {
        let _ = write!(label, " [{p}]");
    }
    label
}

/// Renders the object dependence graph of `analysis` (labelled from its allocation
/// sites) in VCG format. When `assignment` is provided, each node label carries its
/// partition number in square brackets, as Figure 4 does.
pub fn odg_to_vcg(program: &Program, analysis: &Analysis, assignment: Option<&[usize]>) -> String {
    let odg = &analysis.odg;
    let mut out = String::new();
    let _ = writeln!(out, "graph: {{ title: \"Object Dependence Graph\"");
    for i in 0..odg.node_count() {
        let label = odg_node_label(program, analysis, i, assignment);
        let _ = writeln!(out, "  node: {{ title: \"n{i}\" label: \"{label}\" }}");
    }
    for edge in &odg.edges {
        let label = match edge.kind {
            OdgEdgeKind::Create => "create",
            OdgEdgeKind::Reference => "reference",
            OdgEdgeKind::Use => "use",
        };
        let _ = writeln!(
            out,
            "  edge: {{ sourcename: \"n{}\" targetname: \"n{}\" label: \"{label}\" }}",
            edge.from.0, edge.to.0
        );
    }
    let _ = writeln!(out, "}}");
    out
}

/// Renders the object dependence graph of `analysis` in DOT format, with partition
/// numbers when `assignment` is provided and use-edges highlighted.
pub fn odg_to_dot(program: &Program, analysis: &Analysis, assignment: Option<&[usize]>) -> String {
    let odg = &analysis.odg;
    let mut out = String::new();
    let _ = writeln!(out, "digraph odg {{");
    let _ = writeln!(out, "  node [shape=ellipse];");
    for i in 0..odg.node_count() {
        let label = odg_node_label(program, analysis, i, assignment);
        let color = match assignment.and_then(|a| a.get(i)) {
            Some(0) => "lightblue",
            Some(1) => "lightyellow",
            Some(_) => "lightgrey",
            None => "white",
        };
        let _ = writeln!(
            out,
            "  n{i} [label=\"{label}\", style=filled, fillcolor={color}];"
        );
    }
    for edge in &odg.edges {
        let (label, style) = match edge.kind {
            OdgEdgeKind::Create => ("create", "solid"),
            OdgEdgeKind::Reference => ("reference", "dotted"),
            OdgEdgeKind::Use => ("use", "bold"),
        };
        let _ = writeln!(
            out,
            "  n{} -> n{} [label=\"{}\", style={}];",
            edge.from.0, edge.to.0, label, style
        );
    }
    let _ = writeln!(out, "}}");
    out
}

/// Renders the class placement as a small DOT cluster diagram (one subgraph per node),
/// a convenient way to inspect what the distribution decided.
pub fn placement_to_dot(program: &Program, placement: &ClassPlacement) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph placement {{");
    for node in 0..placement.nparts.max(1) {
        let _ = writeln!(out, "  subgraph cluster_{node} {{");
        let _ = writeln!(out, "    label=\"Node {node}\";");
        for (class, home) in placement.homes() {
            if home == node {
                let _ = writeln!(out, "    \"{}\";", program.class(class).name);
            }
        }
        let _ = writeln!(out, "  }}");
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Distributor, DistributorConfig};
    use autodist_workloads as workloads;

    fn bank_plan() -> (autodist_ir::Program, crate::DistributionPlan) {
        let w = workloads::bank(8);
        let d = Distributor::new(DistributorConfig::default());
        let plan = d.distribute(&w.program);
        (w.program, plan)
    }

    #[test]
    fn crg_vcg_contains_st_dt_nodes_and_relation_labels() {
        let (p, plan) = bank_plan();
        let vcg = crg_to_vcg(&p, &plan.analysis.crg);
        assert!(vcg.starts_with("graph: {"));
        assert!(vcg.contains("ST Main"));
        assert!(vcg.contains("DT Bank"));
        assert!(vcg.contains("label: \"use\""));
        assert!(vcg.contains("label: \"export\"") || vcg.contains("label: \"import\""));
        assert!(vcg.trim_end().ends_with('}'));
    }

    #[test]
    fn odg_vcg_carries_partition_numbers() {
        let (p, plan) = bank_plan();
        let vcg = odg_to_vcg(&p, &plan.analysis, Some(&plan.partitioning.assignment));
        assert!(vcg.contains("[0]") || vcg.contains("[1]"));
        assert!(vcg.contains("create"));
        assert!(vcg.contains("use"));
    }

    #[test]
    fn dot_outputs_are_valid_ish() {
        let (p, plan) = bank_plan();
        for text in [
            crg_to_dot(&p, &plan.analysis.crg),
            odg_to_dot(&p, &plan.analysis, Some(&plan.partitioning.assignment)),
            placement_to_dot(&p, &plan.placement),
        ] {
            assert!(text.starts_with("digraph"));
            assert_eq!(text.matches('{').count(), text.matches('}').count());
        }
    }

    #[test]
    fn odg_without_assignment_has_no_partition_brackets() {
        let (p, plan) = bank_plan();
        let vcg = odg_to_vcg(&p, &plan.analysis, None);
        assert!(!vcg.contains(" [0]\""));
    }

    #[test]
    fn odg_labels_use_paper_prefixes() {
        let (p, plan) = bank_plan();
        let labels: Vec<String> = (0..plan.analysis.odg.node_count())
            .map(|i| odg_node_label(&p, &plan.analysis, i, None))
            .collect();
        assert!(labels.iter().any(|l| l.starts_with("1 ")));
        assert!(labels.iter().any(|l| l.starts_with("* ")));
        assert!(labels.iter().any(|l| l.starts_with("ST ")));
    }
}
