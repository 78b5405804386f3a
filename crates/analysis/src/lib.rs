//! # autodist-analysis
//!
//! Static dependence analysis for automatic program distribution (Section 2 of the
//! paper). The pipeline is:
//!
//! 1. [`rta`] — Rapid Type Analysis computes the set of instantiated classes, the set
//!    of reachable methods and the call graph.
//! 2. [`crg`] — the **Class Relation Graph**: nodes are the static (`ST`) and dynamic
//!    (`DT`) parts of each class, edges are *use*, *export* and *import* relations
//!    discovered from field accesses, method calls and allocation statements
//!    (paper Figure 3).
//! 3. [`objects`] — the allocation-site object set: single-instance sites (prefix `1`)
//!    and summary sites created inside control structures (prefix `*`).
//! 4. [`odg`] — the **Object Dependence Graph**: *create*, *reference* and *use*
//!    relations between objects, computed by propagating each new reference once
//!    against the export and import relations of the CRG — the least fixed point of the
//!    paper's two rules (paper Figure 4) — with `edges` in one canonical order.
//! 5. [`weights`] — the (memory, CPU, battery) weight vectors of graph nodes, unit
//!    in the static build, and the one function that reweighs nodes and use edges
//!    from a measured per-class profile, ready for the multi-constraint graph
//!    partitioner (Section 3).

pub mod crg;
pub mod objects;
pub mod odg;
pub mod rta;
pub mod weights;

pub use crg::{ClassPart, ClassRelationGraph, CrgEdgeKind, CrgNode};
pub use objects::{AllocSite, AllocSiteId, Multiplicity, ObjectSet};
pub use odg::{ObjectDependenceGraph, OdgEdgeKind, OdgNode, OdgNodeId};
pub use rta::{CallGraph, CallSite};
pub use weights::{ResourceVector, WeightModel};

/// The programs the three rescanning analyses' oracles are compared on.
#[cfg(test)]
pub(crate) mod test_programs {
    use autodist_ir::frontend::compile_source;
    use autodist_ir::program::Program;
    use autodist_workloads::{bank, generated, table1_workloads, table3_workloads, GenConfig};

    /// Shapes no workload has: class hierarchies for RTA, recursion and loops for the
    /// object set.
    const HAND_WRITTEN: &[(&str, &str)] = &[
        (
            "late subclass",
            r#"
            class Base { int f() { return 1; } }
            class Derived extends Base { int f() { return 2; } }
            class Main {
                static int call(Base b) { return b.f(); }
                static void main() {
                    Base x = new Base();
                    int r1 = Main.call(x);
                    Derived d = new Derived();
                    int r2 = Main.call(d);
                }
            }
            "#,
        ),
        (
            "three-level chain",
            r#"
            class Top { int f() { return 1; } int g() { return 10; } }
            class Mid extends Top { int f() { return 2; } int g() { return 20; } }
            class Leaf extends Mid { int g() { return 30; } }
            class Main {
                static void main() {
                    Top t = new Leaf();
                    int r = t.f() + t.g();
                }
            }
            "#,
        ),
        (
            "idle subclass",
            r#"
            class Shape { int area() { return 0; } }
            class Square extends Shape { int area() { return 4; } }
            class Circle extends Shape { int area() { return 3; } }
            class Main {
                static void main() {
                    Shape s = new Square();
                    int a = s.area();
                }
            }
            "#,
        ),
        (
            "self recursion",
            r#"
            class Node { int v; }
            class Main {
                static void rec(int n) {
                    Node x = new Node();
                    if (n > 0) { Main.rec(n - 1); }
                }
                static void main() { Node once = new Node(); Main.rec(3); }
            }
            "#,
        ),
        (
            "mutual recursion",
            r#"
            class Node { int v; }
            class A {
                int f(int n) { Node x = new Node(); if (n > 0) { return this.g(n - 1); } return 0; }
                int g(int n) { return this.f(n) + this.tail(); }
                int tail() { Node y = new Node(); return 1; }
                int aside() { Node z = new Node(); return 2; }
            }
            class Main {
                static void main() { A a = new A(); int r = a.aside() + a.f(2); }
            }
            "#,
        ),
        (
            "helper in a loop",
            r#"
            class Item { int v; }
            class Main {
                static Item make() { return Main.inner(); }
                static Item inner() { return new Item(); }
                static void main() {
                    Item first = Main.inner();
                    int i = 0;
                    while (i < 3) { Item x = Main.make(); i = i + 1; }
                }
            }
            "#,
        ),
    ];

    /// The hand-written program called `name`.
    pub(crate) fn hand_written(name: &str) -> Program {
        let (_, src) = HAND_WRITTEN.iter().find(|(n, _)| *n == name).unwrap();
        compile_source(src).unwrap()
    }

    /// Table 1, Table 3, `bank(100)`, generated call trees at five sizes × three seeds
    /// and every hand-written shape.
    pub(crate) fn corpus() -> Vec<(String, Program)> {
        let mut programs: Vec<(String, Program)> = table1_workloads(1)
            .into_iter()
            .chain(table3_workloads(1))
            .chain([bank(100)])
            .map(|w| (w.name, w.program))
            .collect();
        for (depth, width) in [(3, 4), (4, 8), (6, 12), (6, 16), (8, 24)] {
            for seed in [1, 2, 3] {
                let g = generated(&GenConfig {
                    seed,
                    depth,
                    width,
                    fan_out: 3,
                    ..Default::default()
                });
                programs.push((format!("d{depth}w{width} seed {seed}"), g.workload.program));
            }
        }
        for (name, _) in HAND_WRITTEN {
            programs.push((name.to_string(), hand_written(name)));
        }
        programs
    }
}
