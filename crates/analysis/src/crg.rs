//! Class Relation Graph (CRG) construction.
//!
//! The CRG captures how classes relate to each other (paper Figure 3):
//!
//! * a **use** relation `A -> B` when a method of `A` calls a method of `B`, accesses a
//!   field of `B`, or allocates a `B`;
//! * an **export** relation `A -> B` carrying class `T` when `A` passes a reference of
//!   type `T` to `B` (as a method argument);
//! * an **import** relation `A -> B` carrying class `T` when `A` obtains a reference of
//!   type `T` from `B` (as a method result or read field).
//!
//! Each class contributes two nodes: the static (`ST`) part and the instance/dynamic
//! (`DT`) part, so that static state can be placed independently of instances.
//!
//! A relation found at many program points is one edge whose weight counts them: edges
//! are indexed by (from, to, kind, carried) packed into one integer, and `edges` keeps
//! first-insertion order.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::BuildHasherDefault;

use autodist_ir::bytecode::{Insn, InvokeKind};
use autodist_ir::layout::StrHasher;
use autodist_ir::program::{ClassId, Program, Type};

use crate::rta::CallGraph;

/// Whether a CRG node represents the static or the dynamic (instance) part of a class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ClassPart {
    /// The static part of a class (`ST` prefix in the paper's figures).
    Static,
    /// The dynamic / per-instance part (`DT` prefix).
    Dynamic,
}

/// A node of the class relation graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CrgNode {
    /// The class.
    pub class: ClassId,
    /// Static or dynamic part.
    pub part: ClassPart,
}

impl CrgNode {
    /// Shorthand for the dynamic part of a class.
    pub fn dynamic(class: ClassId) -> Self {
        CrgNode {
            class,
            part: ClassPart::Dynamic,
        }
    }
    /// Shorthand for the static part of a class.
    pub fn stat(class: ClassId) -> Self {
        CrgNode {
            class,
            part: ClassPart::Static,
        }
    }
    /// Where this node sits in a table of class parts: `2·class + part`.
    fn slot(self) -> usize {
        2 * self.class.0 as usize + self.part as usize
    }
}

/// The kind of a CRG edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CrgEdgeKind {
    /// One class occurs in the context of another (call, field access, allocation).
    Use,
    /// The source passes references of `carried` type to the target.
    Export,
    /// The source receives references of `carried` type from the target.
    Import,
}

/// An edge of the class relation graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrgEdge {
    /// Source node.
    pub from: CrgNode,
    /// Target node.
    pub to: CrgNode,
    /// Relation kind.
    pub kind: CrgEdgeKind,
    /// For export/import edges: the class whose references propagate along the edge.
    pub carried: Option<ClassId>,
    /// Number of program points inducing this relation (used as a rough weight).
    pub weight: u64,
}

/// The class relation graph.
#[derive(Clone, Debug, Default)]
pub struct ClassRelationGraph {
    /// Nodes in insertion order.
    pub nodes: Vec<CrgNode>,
    /// Edges (deduplicated on (from, to, kind, carried), weights accumulated).
    pub edges: Vec<CrgEdge>,
    /// Position in `nodes` of each class part, at [`CrgNode::slot`] (`NO_NODE` if absent).
    index: Vec<u32>,
    /// Position in `edges` of each (from, to, kind, carried), by [`edge_key`].
    edge_index: HashMap<u128, usize, BuildHasherDefault<StrHasher>>,
    /// Every relation as it was added, for the linear-find oracle.
    #[cfg(test)]
    added: Vec<CrgEdge>,
}

impl ClassRelationGraph {
    /// Number of nodes (the `#N` column of Table 1 for CRG).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges (the `#E` column of Table 1 for CRG).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Index of `node` in [`Self::nodes`].
    pub fn node_index(&self, node: CrgNode) -> Option<usize> {
        let i = *self.index.get(node.slot())?;
        (i != NO_NODE).then_some(i as usize)
    }

    fn add_node(&mut self, node: CrgNode) {
        let at = &mut self.index[node.slot()];
        if *at == NO_NODE {
            *at = self.nodes.len() as u32;
            self.nodes.push(node);
        }
    }

    fn add_edge(
        &mut self,
        from: CrgNode,
        to: CrgNode,
        kind: CrgEdgeKind,
        carried: Option<ClassId>,
    ) {
        if from == to {
            return; // self relations carry no distribution cost
        }
        self.add_node(from);
        self.add_node(to);
        let edge = CrgEdge {
            from,
            to,
            kind,
            carried,
            weight: 1,
        };
        #[cfg(test)]
        self.added.push(edge.clone());
        match self.edge_index.entry(edge_key(from, to, kind, carried)) {
            Entry::Occupied(at) => self.edges[*at.get()].weight += 1,
            Entry::Vacant(slot) => {
                slot.insert(self.edges.len());
                self.edges.push(edge);
            }
        }
    }

    /// All edges of a given kind.
    pub fn edges_of_kind(&self, kind: CrgEdgeKind) -> impl Iterator<Item = &CrgEdge> {
        self.edges.iter().filter(move |e| e.kind == kind)
    }
}

/// `index`'s mark for a class part that is no node.
const NO_NODE: u32 = u32::MAX;

/// One integer for `(from, to, kind, carried)`: the two slots, the kind and the
/// carried class (0 for none, else the class id plus one), 40 bits for each number.
/// The ids are the front end's dense numbering, so the unkeyed hash is safe here.
fn edge_key(from: CrgNode, to: CrgNode, kind: CrgEdgeKind, carried: Option<ClassId>) -> u128 {
    let carried = carried.map_or(0, |c| u128::from(c.0) + 1);
    (from.slot() as u128) << 88 | (to.slot() as u128) << 48 | (kind as u128) << 40 | carried
}

/// Builds the class relation graph for the reachable part of `program`.
pub fn build_crg(program: &Program, call_graph: &CallGraph) -> ClassRelationGraph {
    let mut crg = ClassRelationGraph {
        index: vec![NO_NODE; 2 * program.classes.len()],
        ..ClassRelationGraph::default()
    };

    for &mid in &call_graph.reachable {
        let method = program.method(mid);
        if program.class(method.class).is_synthetic {
            continue;
        }
        let from = if method.is_static {
            CrgNode::stat(method.class)
        } else {
            CrgNode::dynamic(method.class)
        };
        crg.add_node(from);

        for insn in &method.body {
            match insn {
                Insn::New(c) if !program.class(*c).is_synthetic => {
                    crg.add_edge(from, CrgNode::dynamic(*c), CrgEdgeKind::Use, None);
                }
                Insn::GetField(f) | Insn::PutField(f) if !program.class(f.class).is_synthetic => {
                    crg.add_edge(from, CrgNode::dynamic(f.class), CrgEdgeKind::Use, None);
                    // Reading a reference-typed field imports that type.
                    if matches!(insn, Insn::GetField(_)) {
                        if let Type::Ref(t) = &program.field(*f).ty {
                            crg.add_edge(
                                from,
                                CrgNode::dynamic(f.class),
                                CrgEdgeKind::Import,
                                Some(*t),
                            );
                        }
                    } else if let Type::Ref(t) = &program.field(*f).ty {
                        // Writing a reference-typed field exports that type.
                        crg.add_edge(
                            from,
                            CrgNode::dynamic(f.class),
                            CrgEdgeKind::Export,
                            Some(*t),
                        );
                    }
                }
                Insn::GetStatic(f) | Insn::PutStatic(f) if !program.class(f.class).is_synthetic => {
                    crg.add_edge(from, CrgNode::stat(f.class), CrgEdgeKind::Use, None);
                }
                Insn::Invoke(kind, target) => {
                    let callee = program.method(*target);
                    if program.class(callee.class).is_synthetic {
                        continue;
                    }
                    let to = match kind {
                        InvokeKind::Static => CrgNode::stat(callee.class),
                        _ => CrgNode::dynamic(callee.class),
                    };
                    crg.add_edge(from, to, CrgEdgeKind::Use, None);
                    // Export: reference-typed parameters flow from caller to callee class.
                    for p in &callee.params {
                        if let Type::Ref(t) = p {
                            crg.add_edge(from, to, CrgEdgeKind::Export, Some(*t));
                        }
                    }
                    // Import: a reference-typed result flows from callee class to caller.
                    if let Type::Ref(t) = &callee.ret {
                        crg.add_edge(from, to, CrgEdgeKind::Import, Some(*t));
                    }
                }
                _ => {}
            }
        }
    }
    crg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rta::rapid_type_analysis;
    use autodist_ir::frontend::compile_source;

    /// What `add_edge` used to do, kept as its definition: one edge per (from, to,
    /// kind, carried) in first-insertion order, found by scanning the edges so far,
    /// weighted by how often the relation was added.
    fn oracle_merge(added: &[CrgEdge]) -> Vec<CrgEdge> {
        let mut edges: Vec<CrgEdge> = Vec::new();
        for a in added {
            let same = |e: &&mut CrgEdge| {
                e.from == a.from && e.to == a.to && e.kind == a.kind && e.carried == a.carried
            };
            match edges.iter_mut().find(same) {
                Some(e) => e.weight += 1,
                None => edges.push(a.clone()),
            }
        }
        edges
    }

    #[test]
    fn edges_are_the_oracles() {
        let mut merged = 0;
        for (name, p) in crate::test_programs::corpus() {
            let crg = build_crg(&p, &rapid_type_analysis(&p));
            assert_eq!(crg.edges, oracle_merge(&crg.added), "{name}");
            merged += crg.added.len() - crg.edges.len();
        }
        assert!(merged > 0, "no program repeats a relation");
    }

    const BANK_SRC: &str = r#"
        class Account {
            int id;
            int savings;
            Account(int id, int savings) { this.id = id; this.savings = savings; }
            int getSavings() { return this.savings; }
            int getId() { return this.id; }
            void setBalance(int b) { this.savings = b; }
        }
        class Bank {
            Account[] accounts;
            int count;
            Bank(int n) {
                this.accounts = new Account[100];
                this.count = 0;
                int i = 0;
                while (i < n) {
                    Account a = new Account(i, 1000);
                    this.openAccount(a);
                    i = i + 1;
                }
            }
            void openAccount(Account a) {
                this.accounts[this.count] = a;
                this.count = this.count + 1;
            }
            Account getCustomer(int id) { return this.accounts[id]; }
        }
        class Main {
            static void main() {
                Bank b = new Bank(10);
                Account a = new Account(77, 5);
                b.openAccount(a);
                Account c = b.getCustomer(2);
                c.setBalance(c.getSavings() - 900);
            }
        }
    "#;

    fn bank_crg() -> (autodist_ir::Program, ClassRelationGraph) {
        let p = compile_source(BANK_SRC).unwrap();
        let cg = rapid_type_analysis(&p);
        let crg = build_crg(&p, &cg);
        (p, crg)
    }

    /// The `kind` edges from any part of `from` to any part of `to`.
    fn between(
        crg: &ClassRelationGraph,
        kind: CrgEdgeKind,
        from: ClassId,
        to: ClassId,
    ) -> impl Iterator<Item = &CrgEdge> {
        crg.edges_of_kind(kind)
            .filter(move |e| e.from.class == from && e.to.class == to)
    }

    #[test]
    fn use_edges_exist_between_main_bank_and_account() {
        let (p, crg) = bank_crg();
        let main = p.class_by_name("Main").unwrap();
        let bank = p.class_by_name("Bank").unwrap();
        let account = p.class_by_name("Account").unwrap();
        for (from, to) in [(main, bank), (main, account), (bank, account)] {
            assert!(between(&crg, CrgEdgeKind::Use, from, to).count() > 0);
        }
    }

    #[test]
    fn export_edge_from_open_account_parameter() {
        let (p, crg) = bank_crg();
        let main = p.class_by_name("Main").unwrap();
        let bank = p.class_by_name("Bank").unwrap();
        let account = p.class_by_name("Account").unwrap();
        // Main passes an Account to Bank.openAccount => export edge Main -> Bank carrying Account.
        assert!(between(&crg, CrgEdgeKind::Export, main, bank).any(|e| e.carried == Some(account)));
    }

    #[test]
    fn import_edge_from_get_customer_result() {
        let (p, crg) = bank_crg();
        let main = p.class_by_name("Main").unwrap();
        let bank = p.class_by_name("Bank").unwrap();
        let account = p.class_by_name("Account").unwrap();
        // Main obtains an Account from Bank.getCustomer => import edge Main -> Bank carrying Account.
        assert!(between(&crg, CrgEdgeKind::Import, main, bank).any(|e| e.carried == Some(account)));
    }

    #[test]
    fn static_and_dynamic_parts_are_distinguished() {
        let (p, crg) = bank_crg();
        let main = p.class_by_name("Main").unwrap();
        // Main.main is static, so its relations originate at the ST part.
        assert!(crg.node_index(CrgNode::stat(main)).is_some());
        let bank = p.class_by_name("Bank").unwrap();
        assert!(crg.node_index(CrgNode::dynamic(bank)).is_some());
    }

    #[test]
    fn weights_accumulate_for_repeated_relations() {
        let (p, crg) = bank_crg();
        let bank = p.class_by_name("Bank").unwrap();
        let account = p.class_by_name("Account").unwrap();
        // Bank uses Account from the constructor loop and openAccount; weight >= 2.
        let weight: u64 = between(&crg, CrgEdgeKind::Use, bank, account)
            .map(|e| e.weight)
            .sum();
        assert!(weight >= 2);
    }

    #[test]
    fn edge_and_node_counts_are_consistent() {
        let (_p, crg) = bank_crg();
        assert_eq!(crg.node_count(), crg.nodes.len());
        assert_eq!(crg.edge_count(), crg.edges.len());
        assert!(crg.node_count() >= 3);
        assert!(crg.edge_count() >= 4);
        for e in &crg.edges {
            assert!(crg.node_index(e.from).is_some());
            assert!(crg.node_index(e.to).is_some());
            assert_ne!(e.from, e.to);
            assert!(e.weight >= 1);
        }
    }

    #[test]
    fn self_relations_are_dropped() {
        let src = r#"
            class A {
                int x;
                int get() { return this.x; }
                int twice() { return this.get() + this.get(); }
            }
            class Main { static void main() { A a = new A(); int y = a.twice(); } }
        "#;
        let p = compile_source(src).unwrap();
        let cg = rapid_type_analysis(&p);
        let crg = build_crg(&p, &cg);
        let a = p.class_by_name("A").unwrap();
        // A's internal calls/field accesses to itself must not create DT(A) -> DT(A) edges.
        assert!(!crg
            .edges
            .iter()
            .any(|e| e.from == CrgNode::dynamic(a) && e.to == CrgNode::dynamic(a)));
    }
}
