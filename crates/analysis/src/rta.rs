//! Rapid Type Analysis (RTA).
//!
//! The paper: "We use rapid type analysis (RTA) to compute the call graph and the
//! program types." RTA starts from the entry point, tracks the set of classes that are
//! actually instantiated anywhere in reachable code, and resolves virtual call sites
//! only against that set. The result is the call graph used by the CRG/ODG construction
//! and by the profiler's dynamic-call-graph comparison.
//!
//! "What can this virtual call dispatch to" has one definition, `virtual_targets`, over
//! two tables the worklist keeps by class id: the instantiated classes at or under each
//! class, and the virtual sites declared on each class. A site asks it when first
//! seen, a newly instantiated class asks it again for its ancestors' sites only, and the
//! final call-site records ask it once more; nothing scans every instantiated class or
//! every site. The analysis it replaced is the tests' oracle.

use std::collections::BTreeSet;

use autodist_ir::bytecode::{Insn, InvokeKind};
use autodist_ir::program::{ClassId, MethodId, Program};

/// A call site inside a reachable method.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallSite {
    /// The calling method.
    pub caller: MethodId,
    /// Bytecode index of the invoke instruction.
    pub pc: usize,
    /// Invocation kind at the site.
    pub kind: InvokeKind,
    /// Statically named target (before virtual resolution).
    pub declared_target: MethodId,
    /// Possible runtime targets after RTA resolution.
    pub targets: Vec<MethodId>,
}

/// The result of rapid type analysis.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    /// Methods reachable from the entry point, in discovery order.
    pub reachable: Vec<MethodId>,
    /// Classes instantiated somewhere in reachable code.
    pub instantiated: BTreeSet<ClassId>,
    /// All call sites in reachable methods.
    pub call_sites: Vec<CallSite>,
    /// caller -> callees adjacency, indexed by `MethodId`: each row sorted and
    /// deduplicated, empty for a method that calls nothing or is unreachable.
    pub edges: Vec<Vec<MethodId>>,
}

impl CallGraph {
    /// Direct callees of `m`.
    pub fn callees(&self, m: MethodId) -> impl Iterator<Item = MethodId> + '_ {
        self.edges.get(m.0 as usize).into_iter().flatten().copied()
    }

    /// Number of call-graph edges.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }
}

/// The methods a virtual call naming `declared` can dispatch to: what each
/// instantiated class at or under the declaring class resolves the name to, or
/// `declared` itself while no such class has been instantiated (so the analysis stays
/// sound before the first instance is seen). `below[c]` lists those classes for `c`.
/// Leaves them in `targets`, sorted and deduplicated.
fn virtual_targets(
    program: &Program,
    below: &[Vec<ClassId>],
    declared: MethodId,
    targets: &mut Vec<MethodId>,
) {
    let method = program.method(declared);
    targets.clear();
    targets.extend(
        below[method.class.0 as usize]
            .iter()
            .filter_map(|&c| program.resolve_method(c, &method.name)),
    );
    if targets.is_empty() {
        targets.push(declared);
    }
    targets.sort_unstable();
    targets.dedup();
}

/// The growing call graph: `reachable` in discovery order, its membership table, the
/// methods still to scan and the edges found so far (by caller, repeats included
/// until the end).
struct Discovery {
    reachable: Vec<MethodId>,
    seen: Vec<bool>,
    work: Vec<MethodId>,
    edges: Vec<Vec<MethodId>>,
}

impl Discovery {
    /// Records that `caller` may call `target`, scheduling `target` on first sight.
    fn call(&mut self, caller: MethodId, target: MethodId) {
        self.edges[caller.0 as usize].push(target);
        self.reach(target);
    }

    fn reach(&mut self, m: MethodId) {
        if !std::mem::replace(&mut self.seen[m.0 as usize], true) {
            self.reachable.push(m);
            self.work.push(m);
        }
    }
}

/// Runs rapid type analysis over `program`, starting at its entry point. A program
/// without one reaches nothing: its call graph is empty (no reachable method,
/// instantiated class, call site or edge).
pub fn rapid_type_analysis(program: &Program) -> CallGraph {
    let classes = program.classes.len();
    let mut found = Discovery {
        reachable: Vec::new(),
        seen: vec![false; program.methods.len()],
        work: Vec::new(),
        edges: vec![Vec::new(); program.methods.len()],
    };
    let mut instantiated = vec![false; classes];
    // Instantiated classes at or under each class, and the virtual sites seen so far
    // (caller, declared target) with, per class, the indices of those declared on it:
    // a newly instantiated class re-resolves its ancestors' sites and no others.
    let mut below: Vec<Vec<ClassId>> = vec![Vec::new(); classes];
    let mut sites: Vec<(MethodId, MethodId)> = Vec::new();
    let mut sites_of: Vec<Vec<usize>> = vec![Vec::new(); classes];
    let mut affected: Vec<usize> = Vec::new();
    let mut targets: Vec<MethodId> = Vec::new();

    if let Some(entry) = program.entry {
        found.reach(entry);
    }
    while let Some(m) = found.work.pop() {
        for insn in &program.method(m).body {
            match insn {
                Insn::New(c) if !std::mem::replace(&mut instantiated[c.0 as usize], true) => {
                    // Constructors of superclasses are conceptually reachable via
                    // implicit super() chains; we only consider explicit calls.
                    affected.clear();
                    let mut ancestor = Some(*c);
                    while let Some(a) = ancestor {
                        below[a.0 as usize].push(*c);
                        affected.extend(&sites_of[a.0 as usize]);
                        ancestor = program.class(a).super_class;
                    }
                    // In the order the sites were seen: `reachable`'s discovery order
                    // fixes site order, ODG node ids and so every plan.
                    affected.sort_unstable();
                    for &i in &affected {
                        let (caller, declared) = sites[i];
                        virtual_targets(program, &below, declared, &mut targets);
                        for &t in &targets {
                            found.call(caller, t);
                        }
                    }
                }
                Insn::Invoke(InvokeKind::Virtual, declared) => {
                    sites_of[program.method(*declared).class.0 as usize].push(sites.len());
                    sites.push((m, *declared));
                    virtual_targets(program, &below, *declared, &mut targets);
                    for &t in &targets {
                        found.call(m, t);
                    }
                }
                Insn::Invoke(_, target) => found.call(m, *target),
                _ => {}
            }
        }
    }

    // Build precise call-site records now that the instantiated set is final.
    let mut call_sites = Vec::new();
    for &m in &found.reachable {
        for (pc, insn) in program.method(m).body.iter().enumerate() {
            if let Insn::Invoke(kind, target) = insn {
                let targets = match kind {
                    InvokeKind::Static | InvokeKind::Special => vec![*target],
                    InvokeKind::Virtual => {
                        virtual_targets(program, &below, *target, &mut targets);
                        targets.clone()
                    }
                };
                call_sites.push(CallSite {
                    caller: m,
                    pc,
                    kind: *kind,
                    declared_target: *target,
                    targets,
                });
            }
        }
    }
    for row in &mut found.edges {
        row.sort_unstable();
        row.dedup();
    }

    CallGraph {
        reachable: found.reachable,
        instantiated: (instantiated.iter().enumerate())
            .filter(|&(_, &yes)| yes)
            .map(|(c, _)| ClassId(c as u32))
            .collect(),
        call_sites,
        edges: found.edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_programs::{corpus, hand_written};
    use autodist_ir::frontend::compile_source;
    use std::collections::BTreeMap;

    /// The analysis this module replaced, kept as its definition: every first `new C`
    /// rescans every virtual site seen so far, and every site and the final pass scan
    /// every instantiated class.
    fn oracle_analyze_from(program: &Program, roots: &[MethodId]) -> CallGraph {
        let mut reachable: Vec<MethodId> = Vec::new();
        let mut reachable_set: BTreeSet<MethodId> = BTreeSet::new();
        let mut instantiated: BTreeSet<ClassId> = BTreeSet::new();
        let mut edges: BTreeMap<MethodId, BTreeSet<MethodId>> = BTreeMap::new();
        // Virtual call sites seen so far: (caller, pc, declared target). Re-resolved when
        // the instantiated-type set grows.
        let mut virtual_sites: Vec<(MethodId, usize, MethodId)> = Vec::new();

        let mut work: Vec<MethodId> = Vec::new();
        for &r in roots {
            if reachable_set.insert(r) {
                reachable.push(r);
                work.push(r);
            }
        }

        while let Some(m) = work.pop() {
            edges.entry(m).or_default();
            let method = program.method(m);
            for (pc, insn) in method.body.iter().enumerate() {
                match insn {
                    Insn::New(c) if instantiated.insert(*c) => {
                        // Newly instantiated class: previously seen virtual sites may
                        // now dispatch to its overrides.
                        for &(caller, _pc, declared) in &virtual_sites {
                            let name = &program.method(declared).name;
                            if let Some(t) = resolve_override(program, *c, declared, name) {
                                edges.entry(caller).or_default().insert(t);
                                if reachable_set.insert(t) {
                                    reachable.push(t);
                                    work.push(t);
                                }
                            }
                        }
                        // Constructors of superclasses are conceptually reachable via
                        // implicit super() chains; we only consider explicit calls.
                    }
                    Insn::Invoke(kind, target) => match kind {
                        InvokeKind::Static | InvokeKind::Special => {
                            edges.entry(m).or_default().insert(*target);
                            if reachable_set.insert(*target) {
                                reachable.push(*target);
                                work.push(*target);
                            }
                        }
                        InvokeKind::Virtual => {
                            virtual_sites.push((m, pc, *target));
                            let declared = program.method(*target);
                            let decl_class = declared.class;
                            let name = declared.name.clone();
                            // Resolve against every instantiated subclass of the declared
                            // receiver class (plus the declared target itself so analysis
                            // stays sound when no instance has been seen yet).
                            let mut targets: BTreeSet<MethodId> = BTreeSet::new();
                            for &c in &instantiated {
                                if program.is_subclass_of(c, decl_class) {
                                    if let Some(t) = program.resolve_method(c, &name) {
                                        targets.insert(t);
                                    }
                                }
                            }
                            if targets.is_empty() {
                                targets.insert(*target);
                            }
                            for t in targets {
                                edges.entry(m).or_default().insert(t);
                                if reachable_set.insert(t) {
                                    reachable.push(t);
                                    work.push(t);
                                }
                            }
                        }
                    },
                    _ => {}
                }
            }
        }

        // Build precise call-site records now that the instantiated set is final.
        let mut call_sites = Vec::new();
        for &m in &reachable {
            let method = program.method(m);
            for (pc, insn) in method.body.iter().enumerate() {
                if let Insn::Invoke(kind, target) = insn {
                    let targets: Vec<MethodId> = match kind {
                        InvokeKind::Static | InvokeKind::Special => vec![*target],
                        InvokeKind::Virtual => {
                            let declared = program.method(*target);
                            let mut ts: BTreeSet<MethodId> = instantiated
                                .iter()
                                .filter(|&&c| program.is_subclass_of(c, declared.class))
                                .filter_map(|&c| program.resolve_method(c, &declared.name))
                                .collect();
                            if ts.is_empty() {
                                ts.insert(*target);
                            }
                            ts.into_iter().collect()
                        }
                    };
                    call_sites.push(CallSite {
                        caller: m,
                        pc,
                        kind: *kind,
                        declared_target: *target,
                        targets,
                    });
                }
            }
        }

        let mut rows = vec![Vec::new(); program.methods.len()];
        for (m, callees) in edges {
            rows[m.0 as usize] = callees.into_iter().collect();
        }
        CallGraph {
            reachable,
            instantiated,
            call_sites,
            edges: rows,
        }
    }

    /// If `c` (an instantiated class) is a subclass of the declared receiver of `declared`,
    /// returns the override that a virtual call would dispatch to for receivers of class `c`.
    fn resolve_override(
        program: &Program,
        c: ClassId,
        declared: MethodId,
        name: &str,
    ) -> Option<MethodId> {
        let decl_class = program.method(declared).class;
        if program.is_subclass_of(c, decl_class) {
            program.resolve_method(c, name)
        } else {
            None
        }
    }

    #[test]
    fn call_graph_is_the_oracles() {
        for (name, p) in corpus() {
            let cg = rapid_type_analysis(&p);
            let expected = oracle_analyze_from(&p, &[p.entry.unwrap()]);
            assert_eq!(cg.reachable, expected.reachable, "{name}: reachable");
            assert_eq!(cg.instantiated, expected.instantiated, "{name}");
            assert_eq!(cg.call_sites, expected.call_sites, "{name}: call sites");
            assert_eq!(cg.edges, expected.edges, "{name}: edges");
        }
    }

    /// `Class.method` → id.
    fn method(p: &Program, class: &str, name: &str) -> MethodId {
        p.find_method(p.class_by_name(class).unwrap(), name)
            .unwrap()
    }

    #[test]
    fn static_calls_are_followed_transitively() {
        let src = r#"
            class C {
                static void leaf() { }
                static void mid() { C.leaf(); }
                static void main() { C.mid(); }
                static void dead() { }
            }
        "#;
        let p = compile_source(src).unwrap();
        let cg = rapid_type_analysis(&p);
        let [main, mid, leaf] = ["main", "mid", "leaf"].map(|m| method(&p, "C", m));
        assert_eq!(cg.reachable, [main, mid, leaf], "and not `dead`");
        assert!(cg.callees(main).any(|m| m == mid));
        assert!(cg.callees(mid).any(|m| m == leaf));
    }

    #[test]
    fn virtual_calls_resolve_against_instantiated_types_only() {
        let src = r#"
            class Shape { int area() { return 0; } }
            class Square extends Shape {
                int side;
                Square(int s) { this.side = s; }
                int area() { return this.side * this.side; }
            }
            class Circle extends Shape {
                int r;
                Circle(int r) { this.r = r; }
                int area() { return 3 * this.r * this.r; }
            }
            class Main {
                static void main() {
                    Shape s = new Square(4);
                    int a = s.area();
                }
            }
        "#;
        let p = compile_source(src).unwrap();
        let cg = rapid_type_analysis(&p);
        let square = p.class_by_name("Square").unwrap();
        let circle = p.class_by_name("Circle").unwrap();
        assert!(cg.instantiated.contains(&square));
        assert!(!cg.instantiated.contains(&circle));
        assert!(cg.reachable.contains(&method(&p, "Square", "area")));
        assert!(
            !cg.reachable.contains(&method(&p, "Circle", "area")),
            "Circle.area unreachable since Circle is never instantiated"
        );
    }

    #[test]
    fn instantiation_after_call_site_still_resolves() {
        // The call site is seen before the instantiation of the subclass; RTA must
        // re-resolve previously seen virtual sites.
        let p = hand_written("late subclass");
        let cg = rapid_type_analysis(&p);
        assert!(cg.reachable.contains(&method(&p, "Derived", "f")));
    }

    #[test]
    fn a_chain_resolves_each_name_at_the_nearest_override() {
        // Mid overrides `f`, Leaf overrides `g`; only Leaf is instantiated, so a call
        // through `Top` dispatches `f` to Mid's and `g` to Leaf's, and to nothing else.
        let p = hand_written("three-level chain");
        let cg = rapid_type_analysis(&p);
        let targets_of = |name: &str| -> Vec<MethodId> {
            let declared = method(&p, "Top", name);
            let site = cg
                .call_sites
                .iter()
                .find(|cs| cs.kind == InvokeKind::Virtual && cs.declared_target == declared);
            site.expect("a virtual site").targets.clone()
        };
        assert_eq!(targets_of("f"), [method(&p, "Mid", "f")]);
        assert_eq!(targets_of("g"), [method(&p, "Leaf", "g")]);
        assert!(!cg.reachable.contains(&method(&p, "Mid", "g")));
    }

    #[test]
    fn call_sites_record_all_targets() {
        let src = r#"
            class A { int go() { return 1; } }
            class B extends A { int go() { return 2; } }
            class Main {
                static void main() {
                    A a = new A();
                    A b = new B();
                    int x = a.go();
                    int y = b.go();
                }
            }
        "#;
        let p = compile_source(src).unwrap();
        let cg = rapid_type_analysis(&p);
        let virtual_sites: Vec<&CallSite> = cg
            .call_sites
            .iter()
            .filter(|cs| cs.kind == InvokeKind::Virtual)
            .collect();
        assert!(!virtual_sites.is_empty());
        // Each virtual `go()` site can dispatch to both A.go and B.go (both instantiated).
        for cs in virtual_sites {
            assert_eq!(cs.targets.len(), 2, "both overrides are candidate targets");
        }
    }

    #[test]
    fn edge_count_matches_adjacency() {
        let src = r#"
            class A {
                int one() { return 1; }
                int two() { return this.one() + this.one(); }
            }
            class Main {
                static void main() { A a = new A(); int x = a.two(); }
            }
        "#;
        let p = compile_source(src).unwrap();
        let cg = rapid_type_analysis(&p);
        let pairs: BTreeSet<(MethodId, MethodId)> = (cg.reachable.iter())
            .flat_map(|&m| cg.callees(m).map(move |c| (m, c)))
            .collect();
        assert_eq!(cg.edge_count(), pairs.len());
        assert!(cg.edge_count() >= 2);
    }
}
