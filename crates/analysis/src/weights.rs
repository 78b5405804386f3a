//! Resource weight models.
//!
//! The paper models each ODG node with a weight *vector* — memory, CPU and battery
//! usage — and each edge with the amount of data that would have to be transferred if
//! the endpoints lived in different address spaces. The default static approximation
//! gives all objects equal weights; the `StaticHeuristic` model implements the paper's
//! suggested refinement ("objects created inside loops can be considered heavier"); the
//! `ProfileGuided` model is the static build reweighed ([`reweigh_odg`]) by a measured
//! [`ClassProfile`].

use std::collections::BTreeMap;

use autodist_ir::program::{ClassId, Program};

use crate::odg::{ObjectDependenceGraph, OdgEdgeKind, OdgNode};

/// A (memory, CPU, battery) weight vector, the multi-constraint node weight used by the
/// partitioner.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceVector {
    /// Estimated resident bytes attributable to the node.
    pub memory: u64,
    /// Estimated abstract CPU cost (instruction count).
    pub cpu: u64,
    /// Estimated battery cost (we model it as proportional to CPU + communication).
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

    /// Component-wise addition.
    pub fn add(&self, other: &ResourceVector) -> ResourceVector {
        ResourceVector {
            memory: self.memory + other.memory,
            cpu: self.cpu + other.cpu,
            battery: self.battery + other.battery,
        }
    }

    /// The vector as a fixed-order slice `[memory, cpu, battery]`.
    pub fn as_array(&self) -> [u64; 3] {
        [self.memory, self.cpu, self.battery]
    }
}

/// Per-class measurements fed back from profiled runs (Section 6) for profile-guided
/// weighting — one of the paper's planned refinements over the static approximation.
/// Serving mode's adaptive planner tallies its live profile straight into one.
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

/// The resource model used to weight ODG nodes and edges.
#[derive(Clone, Debug, Default)]
pub enum WeightModel {
    /// All objects weigh the same; edge weight is the relation count.
    #[default]
    Uniform,
    /// Static approximation: memory from declared field sizes, CPU from method body
    /// sizes, summary (loop-allocated) objects multiplied by `loop_factor`.
    StaticHeuristic {
        /// Multiplier applied to summary allocation sites.
        loop_factor: u64,
    },
    /// Weights taken from a previous profiled run: the static estimate with the
    /// measurements applied by [`reweigh_odg`] (which `build_odg` runs).
    ProfileGuided(ClassProfile),
}

impl WeightModel {
    /// A reasonable default for the static heuristic (summary sites weigh 10x).
    pub fn static_heuristic() -> Self {
        WeightModel::StaticHeuristic { loop_factor: 10 }
    }

    /// The static weight vector for an ODG node (under `ProfileGuided`, the part
    /// [`reweigh_odg`] keeps where the profile measured nothing: declared sizes).
    pub fn node_weight(&self, program: &Program, node: &OdgNode) -> ResourceVector {
        let loop_factor = match self {
            WeightModel::Uniform => return ResourceVector::unit(),
            WeightModel::StaticHeuristic { loop_factor } => *loop_factor,
            WeightModel::ProfileGuided(_) => 1,
        };
        let class = node.class();
        let mem = program.class(class).instance_size_bytes();
        let cpu: u64 = program
            .class(class)
            .methods
            .iter()
            .map(|&m| program.method(m).body.len() as u64)
            .sum::<u64>()
            .max(1);
        let factor = match node {
            OdgNode::Object {
                multiplicity: crate::objects::Multiplicity::Summary,
                ..
            } => loop_factor,
            _ => 1,
        };
        ResourceVector {
            memory: mem * factor,
            cpu: cpu * factor,
            battery: (cpu * factor).div_ceil(2),
        }
    }

    /// The number of bytes estimated to cross the network per unit of time if objects
    /// of `a` and `b` end up in different partitions, given the accumulated CRG use
    /// weight between the classes.
    pub fn communication_bytes(
        &self,
        program: &Program,
        a: ClassId,
        b: ClassId,
        use_weight: u64,
    ) -> u64 {
        match self {
            WeightModel::Uniform => use_weight.max(1),
            _ => {
                // Dependence data = fields, arguments, results; approximate with the
                // average field size of the two classes plus a fixed message header.
                let avg = (program.class(a).instance_size_bytes()
                    + program.class(b).instance_size_bytes())
                    / 2;
                use_weight.max(1) * (16 + avg.min(256))
            }
        }
    }
}

/// Re-weights an existing ODG in place from live profile measurements, without
/// re-running any pointer or type analysis: the graph's *shape* (nodes and edges) is
/// the static analysis result and stays; only the weights — what the
/// partitioner balances and cuts — are replaced.
///
/// * **Node weights**: CPU becomes `1 + invocations(class)` (the live hot-method
///   load attributed to the class the node instantiates), memory becomes the
///   live allocated bytes when observed (falling back to the static estimate),
///   battery stays proportional to CPU as elsewhere in the model.
/// * **Use-edge weights**: each edge is scaled by `1 + invocations(callee
///   class)` on top of its static byte estimate, so edges *into* hot classes
///   become expensive to cut and the partitioner co-locates hot call chains.
///
/// This is the one formula from profile to weights: `build_odg` applies it under
/// [`WeightModel::ProfileGuided`], and serving mode's adaptive planner applies it to
/// each epoch's live profile before re-running the partitioner.
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
    use crate::objects::{AllocSiteId, Multiplicity};
    use autodist_ir::program::Type;

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

    #[test]
    fn uniform_weights_are_unit() {
        let (p, small, _big) = tiny_program();
        let m = WeightModel::Uniform;
        let n = OdgNode::Object {
            site: AllocSiteId(0),
            class: small,
            multiplicity: Multiplicity::Single,
        };
        assert_eq!(m.node_weight(&p, &n), ResourceVector::unit());
        assert_eq!(m.communication_bytes(&p, small, small, 3), 3);
    }

    #[test]
    fn static_heuristic_weights_scale_with_class_size_and_loops() {
        let (p, small, big) = tiny_program();
        let m = WeightModel::static_heuristic();
        let small_single = OdgNode::Object {
            site: AllocSiteId(0),
            class: small,
            multiplicity: Multiplicity::Single,
        };
        let big_single = OdgNode::Object {
            site: AllocSiteId(1),
            class: big,
            multiplicity: Multiplicity::Single,
        };
        let small_summary = OdgNode::Object {
            site: AllocSiteId(2),
            class: small,
            multiplicity: Multiplicity::Summary,
        };
        let ws = m.node_weight(&p, &small_single);
        let wb = m.node_weight(&p, &big_single);
        let wsum = m.node_weight(&p, &small_summary);
        assert!(wb.memory > ws.memory, "bigger class has more memory weight");
        assert!(wsum.memory > ws.memory, "summary sites are heavier");
        assert_eq!(wsum.memory, ws.memory * 10);
    }

    #[test]
    fn profile_guided_uses_measurements_when_available() {
        use crate::crg::build_crg;
        use crate::objects::collect_objects;
        use crate::odg::build_odg;
        use crate::rta::rapid_type_analysis;
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
        let small = p.class_by_name("Small").unwrap();
        let big = p.class_by_name("Big").unwrap();
        let mut data = ClassProfile::default();
        data.alloc_bytes.insert(small, 4096);
        data.invocation_counts.insert(small, 500);
        let cg = rapid_type_analysis(&p);
        let (crg, objects) = (build_crg(&p, &cg), collect_objects(&p, &cg));
        let odg = build_odg(
            &p,
            &crg,
            &objects,
            &WeightModel::ProfileGuided(data.clone()),
        );
        let weight_of = |class| {
            let node = odg.nodes.iter().position(|n| n.class() == class);
            odg.node_weights[node.expect("allocated")]
        };
        let (ws, wb) = (weight_of(small), weight_of(big));
        assert_eq!((ws.memory, ws.cpu, ws.battery), (4096, 501, 251));
        // Big was not measured: the static size, the baseline CPU.
        assert_eq!((wb.memory, wb.cpu), (p.class(big).instance_size_bytes(), 1));
        // One formula: the static build, reweighed by the profile.
        let mut reweighed = build_odg(
            &p,
            &crg,
            &objects,
            &WeightModel::StaticHeuristic { loop_factor: 1 },
        );
        reweigh_odg(&mut reweighed, &data);
        assert_eq!(odg.node_weights, reweighed.node_weights);
        assert_eq!(odg.edges, reweighed.edges);
    }

    #[test]
    fn resource_vector_arithmetic() {
        let a = ResourceVector {
            memory: 1,
            cpu: 2,
            battery: 3,
        };
        let b = ResourceVector {
            memory: 10,
            cpu: 20,
            battery: 30,
        };
        assert_eq!(
            a.add(&b),
            ResourceVector {
                memory: 11,
                cpu: 22,
                battery: 33
            }
        );
        assert_eq!(a.as_array(), [1, 2, 3]);
    }

    #[test]
    fn reweigh_replaces_node_weights_and_scales_hot_use_edges() {
        use crate::odg::{ObjectDependenceGraph, OdgEdge, OdgNodeId};
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

    #[test]
    fn communication_bytes_never_zero() {
        let (p, small, big) = tiny_program();
        for m in [
            WeightModel::Uniform,
            WeightModel::static_heuristic(),
            WeightModel::ProfileGuided(ClassProfile::default()),
        ] {
            assert!(m.communication_bytes(&p, small, big, 0) >= 1);
            assert!(m.communication_bytes(&p, small, big, 5) > 0);
        }
    }
}
