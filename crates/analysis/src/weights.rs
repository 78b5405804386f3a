//! Resource weights.
//!
//! The paper models each ODG node with a weight *vector* — memory, CPU and battery
//! usage — and each edge with the amount of data that would have to be transferred if
//! the endpoints lived in different address spaces. The static build gives every node
//! the unit vector and every use edge the number of program points the CRG found the
//! relation at ([`crate::odg::build_odg`]); a measured [`ClassProfile`] then reweighs
//! that graph in place ([`reweigh_odg`]), the paper's suggested refinement of the
//! static estimate by profiling.

use std::collections::BTreeMap;

use autodist_ir::program::ClassId;

use crate::odg::{ObjectDependenceGraph, OdgEdgeKind};

/// A (memory, CPU, battery) weight vector, the multi-constraint node weight used by the
/// partitioner.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceVector {
    /// Resident bytes attributable to the node.
    pub memory: u64,
    /// Abstract CPU cost.
    pub cpu: u64,
    /// Battery cost (modelled as proportional to CPU).
    pub battery: u64,
}

impl ResourceVector {
    /// A uniform unit vector.
    pub fn unit() -> Self {
        ResourceVector {
            memory: 1,
            cpu: 1,
            battery: 1,
        }
    }

    /// The vector as a fixed-order slice `[memory, cpu, battery]`.
    pub fn as_array(&self) -> [u64; 3] {
        [self.memory, self.cpu, self.battery]
    }
}

/// Per-class measurements fed back from profiled runs (Section 6), the input of
/// [`reweigh_odg`]. Serving mode's adaptive planner tallies its live profile straight
/// into one.
#[derive(Clone, Debug, Default)]
pub struct ClassProfile {
    /// Bytes allocated per class.
    pub alloc_bytes: BTreeMap<ClassId, u64>,
    /// Invocation counts per class (all methods of the class combined).
    pub invocation_counts: BTreeMap<ClassId, u64>,
}

impl ClassProfile {
    /// `true` when nothing was measured.
    pub fn is_empty(&self) -> bool {
        self.alloc_bytes.is_empty() && self.invocation_counts.is_empty()
    }
}

/// The static weight model of the ODG: every object weighs the same, and a use edge
/// weighs its CRG use count. It is the only model; [`crate::odg::build_odg`] reads
/// nothing from it.
#[derive(Clone, Debug, Default)]
pub enum WeightModel {
    /// All objects weigh the same; edge weight is the relation count.
    #[default]
    Uniform,
}

/// Re-weights an existing ODG in place from live profile measurements, without
/// re-running any pointer or type analysis: the graph's *shape* (nodes and edges) is
/// the static analysis result and stays; only the weights — what the
/// partitioner balances and cuts — are replaced.
///
/// * **Node weights**: CPU becomes `1 + invocations(class)` (the live hot-method
///   load attributed to the class the node instantiates), memory becomes the
///   live allocated bytes when observed (keeping the node's current memory weight
///   otherwise), battery stays proportional to CPU as elsewhere in the model.
/// * **Use-edge weights**: each edge is scaled by `1 + invocations(callee
///   class)` on top of its static use count, so edges *into* hot classes
///   become expensive to cut and the partitioner co-locates hot call chains.
///
/// This is the one formula from profile to weights: serving mode's adaptive planner
/// applies it to each epoch's live profile before re-running the partitioner.
pub fn reweigh_odg(odg: &mut ObjectDependenceGraph, profile: &ClassProfile) {
    let invocations = |class: ClassId| profile.invocation_counts.get(&class).copied().unwrap_or(0);
    for (node, weight) in odg.nodes.iter().zip(odg.node_weights.iter_mut()) {
        let class = node.class();
        let cpu = 1 + invocations(class);
        let memory = profile
            .alloc_bytes
            .get(&class)
            .copied()
            .unwrap_or(weight.memory)
            .max(1);
        *weight = ResourceVector {
            memory,
            cpu,
            battery: cpu.div_ceil(2),
        };
    }
    let callee_class: Vec<ClassId> = odg.nodes.iter().map(|n| n.class()).collect();
    for edge in &mut odg.edges {
        if edge.kind != OdgEdgeKind::Use {
            continue;
        }
        let heat = 1 + invocations(callee_class[edge.to.0 as usize]);
        edge.weight = edge.weight.max(1).saturating_mul(heat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crg::build_crg;
    use crate::objects::{collect_objects, AllocSiteId, Multiplicity};
    use crate::odg::{build_odg, OdgNode};
    use crate::rta::rapid_type_analysis;
    use autodist_ir::program::{Program, Type};

    fn tiny_program() -> (Program, ClassId, ClassId) {
        let mut p = Program::new();
        let small = p.add_class("Small", None);
        p.add_field(small, "x", Type::Int, false);
        let big = p.add_class("Big", None);
        for i in 0..10 {
            p.add_field(big, &format!("f{i}"), Type::Int, false);
        }
        (p, small, big)
    }

    /// `Small` is allocated and called from `main`, `Big` only allocated.
    fn small_and_big() -> (Program, ObjectDependenceGraph) {
        let p = autodist_ir::frontend::compile_source(
            r#"
            class Small { int x; int get() { return this.x; } }
            class Big { int f0; int f1; int f2; int f3; }
            class Main {
                static void main() {
                    Small s = new Small();
                    Big b = new Big();
                    int v = s.get();
                }
            }
        "#,
        )
        .unwrap();
        let cg = rapid_type_analysis(&p);
        let (crg, objects) = (build_crg(&p, &cg), collect_objects(&p, &cg));
        let odg = build_odg(&p, &crg, &objects, &WeightModel::default());
        (p, odg)
    }

    #[test]
    fn uniform_weights_are_unit() {
        let (_p, odg) = small_and_big();
        assert_eq!(odg.node_weights.len(), odg.nodes.len());
        assert!(odg
            .node_weights
            .iter()
            .all(|&w| w == ResourceVector::unit()));
        assert_eq!(ResourceVector::unit().as_array(), [1, 1, 1]);
    }

    /// The path a profile takes in production: the static build, then [`reweigh_odg`].
    #[test]
    fn profile_guided_uses_measurements_when_available() {
        let (p, built) = small_and_big();
        let small = p.class_by_name("Small").unwrap();
        let big = p.class_by_name("Big").unwrap();
        let mut data = ClassProfile::default();
        data.alloc_bytes.insert(small, 4096);
        data.invocation_counts.insert(small, 500);
        let mut odg = built.clone();
        reweigh_odg(&mut odg, &data);
        let weight_of = |class| {
            let node = odg.nodes.iter().position(|n| n.class() == class);
            odg.node_weights[node.expect("allocated")]
        };
        let (ws, wb) = (weight_of(small), weight_of(big));
        assert_eq!((ws.memory, ws.cpu, ws.battery), (4096, 501, 251));
        // Big was not measured: the unit memory of the build, the baseline CPU.
        assert_eq!((wb.memory, wb.cpu, wb.battery), (1, 1, 1));
        // Use edges into Small carry its heat; the shape is the build's.
        let mut scaled = 0;
        for (e, before) in odg.edges.iter().zip(&built.edges) {
            assert_eq!(
                (e.from, e.to, e.kind),
                (before.from, before.to, before.kind)
            );
            let hot = e.kind == OdgEdgeKind::Use && odg.nodes[e.to.0 as usize].class() == small;
            scaled += usize::from(hot);
            let factor = if hot { 501 } else { 1 };
            assert_eq!(e.weight, before.weight * factor);
        }
        assert!(scaled > 0, "main uses Small");
    }

    #[test]
    fn resource_vector_arithmetic() {
        let a = ResourceVector {
            memory: 1,
            cpu: 2,
            battery: 3,
        };
        assert_eq!(a.as_array(), [1, 2, 3]);
    }

    #[test]
    fn reweigh_replaces_node_weights_and_scales_hot_use_edges() {
        use crate::odg::{OdgEdge, OdgNodeId};
        let (_p, small, big) = tiny_program();
        let mut odg = ObjectDependenceGraph::default();
        for (i, class) in [small, big].into_iter().enumerate() {
            odg.nodes.push(OdgNode::Object {
                site: AllocSiteId(i as u32),
                class,
                multiplicity: Multiplicity::Single,
            });
            odg.node_weights.push(ResourceVector::unit());
        }
        odg.edges.push(OdgEdge {
            from: OdgNodeId(0),
            to: OdgNodeId(1),
            kind: OdgEdgeKind::Use,
            weight: 3,
        });
        odg.edges.push(OdgEdge {
            from: OdgNodeId(0),
            to: OdgNodeId(1),
            kind: OdgEdgeKind::Create,
            weight: 3,
        });
        let mut profile = ClassProfile::default();
        profile.invocation_counts.insert(big, 100);
        profile.alloc_bytes.insert(big, 4096);
        reweigh_odg(&mut odg, &profile);
        // The cold node keeps its static memory, gets baseline CPU 1.
        assert_eq!(odg.node_weights[0].cpu, 1);
        assert_eq!(odg.node_weights[0].memory, 1);
        // The hot node carries the live load.
        assert_eq!(odg.node_weights[1].cpu, 101);
        assert_eq!(odg.node_weights[1].memory, 4096);
        assert_eq!(odg.node_weights[1].battery, 51);
        // The use edge into the hot class is now expensive to cut...
        assert_eq!(odg.edges[0].weight, 3 * 101);
        // ...while non-use edges (not partition input) are untouched.
        assert_eq!(odg.edges[1].weight, 3);
    }
}
