//! The allocation-site object set.
//!
//! Objects in the ODG are approximated by their allocation sites. A site allocated at
//! most once per program run is a *single instance* (prefix `1` in the paper's Figure 4);
//! a site inside a control structure — a loop in its method, or a method that can run
//! multiple times because it is reachable from a cycle — is a *summary instance*
//! (prefix `*`) standing for zero or more runtime objects.
//!
//! "Can run multiple times" is decided for all methods in one pass linear in the call
//! graph (see [`collect_objects`]); the per-method search and rounds-to-fixpoint closure
//! it replaced are the tests' oracle.

use std::collections::BTreeSet;

use autodist_ir::bytecode::Insn;
use autodist_ir::cfg::LoopFinder;
use autodist_ir::program::{ClassId, MethodId, Program};

use crate::rta::CallGraph;

/// Identifier of an allocation site within an [`ObjectSet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AllocSiteId(pub u32);

/// Whether an allocation site stands for one object or a summary of many.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Multiplicity {
    /// At most one runtime object (`1` prefix).
    Single,
    /// Zero or more runtime objects (`*` prefix).
    Summary,
}

/// One allocation site (`new C` at a specific program point).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllocSite {
    /// Identifier of the site.
    pub id: AllocSiteId,
    /// Method containing the allocation.
    pub method: MethodId,
    /// Bytecode index of the `New` instruction.
    pub pc: usize,
    /// Class being instantiated.
    pub class: ClassId,
    /// Single vs summary.
    pub multiplicity: Multiplicity,
    /// Class whose code performs the allocation (the allocating context).
    pub allocator_class: ClassId,
    /// `true` if the allocating method is static (the allocator is the ST part).
    pub allocator_static: bool,
}

/// The set of allocation sites in the reachable program.
#[derive(Clone, Debug, Default)]
pub struct ObjectSet {
    /// All sites in discovery order.
    pub sites: Vec<AllocSite>,
}

impl ObjectSet {
    /// Number of allocation sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// `true` if no reachable allocation exists.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Accessor by id.
    pub fn site(&self, id: AllocSiteId) -> &AllocSite {
        &self.sites[id.0 as usize]
    }

    /// All sites allocating instances of `class`.
    pub fn sites_of_class(&self, class: ClassId) -> impl Iterator<Item = &AllocSite> {
        self.sites.iter().filter(move |s| s.class == class)
    }

    /// All distinct classes with at least one site.
    pub fn allocated_classes(&self) -> BTreeSet<ClassId> {
        self.sites.iter().map(|s| s.class).collect()
    }
}

/// Collects the allocation sites of all reachable methods.
pub fn collect_objects(program: &Program, call_graph: &CallGraph) -> ObjectSet {
    // Which pcs sit inside a loop, once per reachable method, in one table: method
    // `m`'s flags start at `loops_at[m]` (the rest are never read). Both passes below
    // read it.
    let body = |m: MethodId| &program.method(m).body;
    let mut loops_at = vec![0; program.methods.len()];
    let mut loops = Vec::with_capacity(call_graph.reachable.iter().map(|&m| body(m).len()).sum());
    let mut finder = LoopFinder::default();
    for &m in &call_graph.reachable {
        loops_at[m.0 as usize] = loops.len();
        finder.push_loop_pcs(body(m), &mut loops);
    }
    let in_loop = |m: MethodId, pc: usize| loops[loops_at[m.0 as usize] + pc];
    // "May execute more than once": on or reachable from a call-graph cycle, or
    // reachable from a call made inside a loop of a reachable caller. Peeling methods
    // nobody left calls removes exactly those no cycle reaches, and what remains is
    // already closed under calls; the loop targets then spread over one worklist.
    let mut callers = vec![0u32; program.methods.len()];
    for callee in call_graph.edges.iter().flatten() {
        callers[callee.0 as usize] += 1;
    }
    let mut multi_exec = vec![false; program.methods.len()];
    let mut work: Vec<MethodId> = Vec::new();
    for &m in &call_graph.reachable {
        multi_exec[m.0 as usize] = true;
        if callers[m.0 as usize] == 0 {
            work.push(m);
        }
    }
    while let Some(m) = work.pop() {
        multi_exec[m.0 as usize] = false;
        for callee in call_graph.callees(m) {
            callers[callee.0 as usize] -= 1;
            if callers[callee.0 as usize] == 0 {
                work.push(callee);
            }
        }
    }
    let mut mark = |m: MethodId, work: &mut Vec<MethodId>| {
        if !std::mem::replace(&mut multi_exec[m.0 as usize], true) {
            work.push(m);
        }
    };
    for cs in &call_graph.call_sites {
        if in_loop(cs.caller, cs.pc) {
            cs.targets.iter().for_each(|&t| mark(t, &mut work));
        }
    }
    while let Some(m) = work.pop() {
        call_graph.callees(m).for_each(|c| mark(c, &mut work));
    }

    let mut sites = Vec::new();
    for &mid in &call_graph.reachable {
        let method = program.method(mid);
        if method.body.is_empty() || program.class(method.class).is_synthetic {
            continue;
        }
        for (pc, insn) in method.body.iter().enumerate() {
            if let Insn::New(c) = insn {
                if program.class(*c).is_synthetic {
                    continue;
                }
                let multiplicity = if in_loop(mid, pc) || multi_exec[mid.0 as usize] {
                    Multiplicity::Summary
                } else {
                    Multiplicity::Single
                };
                sites.push(AllocSite {
                    id: AllocSiteId(sites.len() as u32),
                    method: mid,
                    pc,
                    class: *c,
                    multiplicity,
                    allocator_class: method.class,
                    allocator_static: method.is_static,
                });
            }
        }
    }
    ObjectSet { sites }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rta::rapid_type_analysis;
    use crate::test_programs::{corpus, hand_written};
    use autodist_ir::cfg::loop_pcs;
    use autodist_ir::frontend::compile_source;

    /// "May execute more than once" as this module used to compute it, kept as its
    /// definition: a DFS per method finds the ones that reach themselves, the targets
    /// of calls inside loops join them, and rounds close the set under calls.
    fn oracle_multi_exec(program: &Program, call_graph: &CallGraph) -> BTreeSet<MethodId> {
        let mut multi_exec = BTreeSet::new();
        for &m in &call_graph.reachable {
            let mut seen = BTreeSet::new();
            let mut stack: Vec<MethodId> = call_graph.callees(m).collect();
            while let Some(x) = stack.pop() {
                if x == m {
                    multi_exec.insert(m);
                    break;
                }
                if seen.insert(x) {
                    stack.extend(call_graph.callees(x));
                }
            }
        }
        for cs in &call_graph.call_sites {
            if loop_pcs(&program.method(cs.caller).body)[cs.pc] {
                multi_exec.extend(cs.targets.iter().copied());
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            let current: Vec<MethodId> = multi_exec.iter().copied().collect();
            for m in current {
                for callee in call_graph.callees(m) {
                    if multi_exec.insert(callee) {
                        changed = true;
                    }
                }
            }
        }
        multi_exec
    }

    #[test]
    fn multiplicities_are_the_oracles() {
        for (name, p) in corpus() {
            let cg = rapid_type_analysis(&p);
            let multi_exec = oracle_multi_exec(&p, &cg);
            let objs = collect_objects(&p, &cg);
            for s in &objs.sites {
                let many =
                    loop_pcs(&p.method(s.method).body)[s.pc] || multi_exec.contains(&s.method);
                let expected = if many {
                    Multiplicity::Summary
                } else {
                    Multiplicity::Single
                };
                assert_eq!(s.multiplicity, expected, "{name}: {s:?}");
            }
        }
    }

    /// `(allocating method's name, multiplicity)` of every site, in site order.
    fn multiplicities(p: &Program) -> Vec<(&str, Multiplicity)> {
        let objs = collect_objects(p, &rapid_type_analysis(p));
        let name_of = |s: &AllocSite| p.method(s.method).name.as_str();
        objs.sites
            .iter()
            .map(|s| (name_of(s), s.multiplicity))
            .collect()
    }

    #[test]
    fn recursion_is_detected_as_cycle() {
        use Multiplicity::{Single, Summary};
        assert_eq!(
            multiplicities(&hand_written("self recursion")),
            [("main", Single), ("rec", Summary)]
        );
        // `f` and `g` call each other and `tail` is called from the cycle; `aside`
        // is called once from `main`.
        assert_eq!(
            multiplicities(&hand_written("mutual recursion")),
            [
                ("main", Single),
                ("aside", Single),
                ("f", Summary),
                ("tail", Summary)
            ]
        );
    }

    #[test]
    fn a_helper_called_from_a_loop_allocates_a_summary() {
        // `inner` is called once directly and, through `make`, from the loop.
        assert_eq!(
            multiplicities(&hand_written("helper in a loop")),
            [("inner", Multiplicity::Summary)]
        );
    }

    #[test]
    fn single_and_summary_sites_are_distinguished() {
        let src = r#"
            class Item { int v; }
            class Main {
                static void main() {
                    Item first = new Item();
                    int i = 0;
                    while (i < 10) {
                        Item x = new Item();
                        i = i + 1;
                    }
                }
            }
        "#;
        let p = compile_source(src).unwrap();
        let cg = rapid_type_analysis(&p);
        let objs = collect_objects(&p, &cg);
        assert_eq!(objs.len(), 2);
        let multiplicities: Vec<Multiplicity> = objs.sites.iter().map(|s| s.multiplicity).collect();
        assert!(multiplicities.contains(&Multiplicity::Single));
        assert!(multiplicities.contains(&Multiplicity::Summary));
    }

    #[test]
    fn allocation_inside_method_called_from_loop_is_summary() {
        let src = r#"
            class Item { int v; }
            class Factory {
                Item make() { return new Item(); }
            }
            class Main {
                static void main() {
                    Factory f = new Factory();
                    int i = 0;
                    while (i < 5) {
                        Item x = f.make();
                        i = i + 1;
                    }
                }
            }
        "#;
        let p = compile_source(src).unwrap();
        let cg = rapid_type_analysis(&p);
        let objs = collect_objects(&p, &cg);
        let item = p.class_by_name("Item").unwrap();
        let item_site = objs.sites_of_class(item).next().expect("Item site");
        assert_eq!(item_site.multiplicity, Multiplicity::Summary);
        // The Factory itself is allocated once, outside any loop.
        let factory = p.class_by_name("Factory").unwrap();
        let f_site = objs.sites_of_class(factory).next().unwrap();
        assert_eq!(f_site.multiplicity, Multiplicity::Single);
    }

    #[test]
    fn allocation_in_recursive_method_is_summary() {
        let src = r#"
            class Node { int v; }
            class Builder {
                Node build(int depth) {
                    Node n = new Node();
                    if (depth > 0) {
                        Node child = this.build(depth - 1);
                    }
                    return n;
                }
            }
            class Main {
                static void main() {
                    Builder b = new Builder();
                    Node root = b.build(4);
                }
            }
        "#;
        let p = compile_source(src).unwrap();
        let cg = rapid_type_analysis(&p);
        let objs = collect_objects(&p, &cg);
        let node = p.class_by_name("Node").unwrap();
        let site = objs.sites_of_class(node).next().unwrap();
        assert_eq!(site.multiplicity, Multiplicity::Summary);
    }

    #[test]
    fn allocator_context_is_recorded() {
        let src = r#"
            class Inner { int x; }
            class Outer {
                Inner make() { return new Inner(); }
            }
            class Main {
                static void main() {
                    Outer o = new Outer();
                    Inner i = o.make();
                }
            }
        "#;
        let p = compile_source(src).unwrap();
        let cg = rapid_type_analysis(&p);
        let objs = collect_objects(&p, &cg);
        let inner = p.class_by_name("Inner").unwrap();
        let outer = p.class_by_name("Outer").unwrap();
        let main = p.class_by_name("Main").unwrap();
        let inner_site = objs.sites_of_class(inner).next().unwrap();
        assert_eq!(inner_site.allocator_class, outer);
        assert!(!inner_site.allocator_static);
        let outer_site = objs.sites_of_class(outer).next().unwrap();
        assert_eq!(outer_site.allocator_class, main);
        assert!(outer_site.allocator_static);
    }

    #[test]
    fn unreachable_allocations_are_ignored() {
        let src = r#"
            class Dead { int x; }
            class Live { int y; }
            class Main {
                static void deadCode() { Dead d = new Dead(); }
                static void main() { Live l = new Live(); }
            }
        "#;
        let p = compile_source(src).unwrap();
        let cg = rapid_type_analysis(&p);
        let objs = collect_objects(&p, &cg);
        let dead = p.class_by_name("Dead").unwrap();
        let live = p.class_by_name("Live").unwrap();
        assert_eq!(objs.sites_of_class(dead).count(), 0);
        assert_eq!(objs.sites_of_class(live).count(), 1);
        assert_eq!(objs.allocated_classes(), [live].into_iter().collect());
    }
}
