//! Object Dependence Graph (ODG) construction.
//!
//! Nodes are allocation sites (plus one root node per static class part that performs
//! allocations, standing for the class's static context such as `main`). Edges are:
//!
//! * **create** — the allocating context created the object;
//! * **reference** — the source may hold a reference to the target. References start at
//!   creators and are closed under the CRG's export/import relations (Spiegel-style
//!   propagation over object triples). The paper's "until a fixed point is reached" is
//!   a worklist here: [`build_odg`] keeps the relation it propagates — who holds whom,
//!   who is held by whom, what is known, what is still pending — and matches each
//!   *new* reference once against the ones before it, instead of re-matching the whole
//!   set in rounds. The rounds survive in this module's tests, as the oracle that
//!   defines the two rules;
//! * **use** — the source actually operates on the target (calls methods / accesses
//!   fields). Only use edges matter for partitioning: a cross-partition use edge means
//!   communication will be generated.

use std::collections::{BTreeMap, BTreeSet};

use autodist_ir::program::{ClassId, Program};

use crate::crg::{ClassPart, ClassRelationGraph, CrgEdgeKind, CrgNode};
use crate::objects::{AllocSiteId, Multiplicity, ObjectSet};
use crate::weights::{ResourceVector, WeightModel};

/// Identifier of a node in the ODG (index into [`ObjectDependenceGraph::nodes`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OdgNodeId(pub u32);

/// A node of the object dependence graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OdgNode {
    /// A runtime object approximated by its allocation site.
    Object {
        /// The allocation site.
        site: AllocSiteId,
        /// Class of the object.
        class: ClassId,
        /// Single or summary instance.
        multiplicity: Multiplicity,
    },
    /// The static context of a class (e.g. the class holding `main`).
    StaticRoot {
        /// The class whose static part this node stands for.
        class: ClassId,
    },
}

impl OdgNode {
    /// The class of this node.
    pub fn class(&self) -> ClassId {
        match self {
            OdgNode::Object { class, .. } => *class,
            OdgNode::StaticRoot { class } => *class,
        }
    }

    /// The CRG part this node corresponds to.
    pub fn part(&self) -> ClassPart {
        match self {
            OdgNode::Object { .. } => ClassPart::Dynamic,
            OdgNode::StaticRoot { .. } => ClassPart::Static,
        }
    }
}

/// Edge kinds of the ODG.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OdgEdgeKind {
    /// The source created the target.
    Create,
    /// The source may hold a reference to the target (intermediate relation).
    Reference,
    /// The source uses (calls / accesses) the target — drives communication.
    Use,
}

/// An edge of the ODG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OdgEdge {
    /// Source node.
    pub from: OdgNodeId,
    /// Target node.
    pub to: OdgNodeId,
    /// Relation kind.
    pub kind: OdgEdgeKind,
    /// What cutting the edge costs: a use edge's CRG use count (scaled by
    /// [`crate::weights::reweigh_odg`] when a profile is applied), 1 for the others.
    pub weight: u64,
}

/// The object dependence graph.
#[derive(Clone, Debug, Default)]
pub struct ObjectDependenceGraph {
    /// Nodes.
    pub nodes: Vec<OdgNode>,
    /// Edges (all kinds).
    pub edges: Vec<OdgEdge>,
    /// Per-node resource weight vectors (memory, CPU, battery).
    pub node_weights: Vec<ResourceVector>,
}

impl ObjectDependenceGraph {
    /// Number of nodes (the ODG `#N` column of Table 1).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges of every kind (the ODG `#E` column of Table 1).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Edges of one kind.
    pub fn edges_of_kind(&self, kind: OdgEdgeKind) -> impl Iterator<Item = &OdgEdge> {
        self.edges.iter().filter(move |e| e.kind == kind)
    }
}

/// A reference `holder -> held` between two ODG nodes.
type Reference = (OdgNodeId, OdgNodeId);

/// Closes the creators' references under the two propagation rules, against the CRG's
/// export and import relations:
///
/// * **export** — `a -> b`, `a -> c`, and `class(a)` passes references of type `T` to
///   `class(b)` with `class(c) <= T`, give `b -> c`;
/// * **import** — `a -> b`, `b -> c`, and `class(a)` obtains references of type `T`
///   from `class(b)` with `class(c) <= T`, give `a -> c`.
///
/// The rules are monotone, so the least fixed point does not depend on the order they
/// are applied in. Each reference is propagated once, when it is taken off `pending`:
/// it is matched, in each of the four positions it can fill in the two rules, against
/// the references propagated before it, and only then joins them — so every pair of
/// references meets exactly once, when the later of the two is propagated. The types
/// a rule asks about depend only on the pair's ends, so a propagated reference keeps
/// them beside it: a pop looks up the CRG twice, not once per reference it meets.
fn close_references(
    program: &Program,
    crg: &ClassRelationGraph,
    nodes: &[OdgNode],
    creators: impl Iterator<Item = Reference>,
) -> BTreeSet<Reference> {
    // The types each CRG node exports to / imports from each class.
    let mut carried: BTreeMap<(CrgEdgeKind, CrgNode, ClassId), Vec<ClassId>> = BTreeMap::new();
    for e in &crg.edges {
        if let Some(t) = e.carried {
            carried
                .entry((e.kind, e.from, e.to.class))
                .or_default()
                .push(t);
        }
    }
    // The types the relation `kind` from `a`'s class part to `b`'s class carries, and
    // whether `c`'s class is one of them.
    let class_of = |n: OdgNodeId| nodes[n.0 as usize].class();
    let types = |kind: CrgEdgeKind, a: OdgNodeId, b: OdgNodeId| {
        let from = CrgNode {
            class: class_of(a),
            part: nodes[a.0 as usize].part(),
        };
        carried.get(&(kind, from, class_of(b))).map(Vec::as_slice)
    };
    let fits = |types: Option<&[ClassId]>, c: OdgNodeId| {
        types.is_some_and(|ts| ts.iter().any(|&t| program.is_subclass_of(class_of(c), t)))
    };

    // The relation: every reference found so far (`known`, sorted — the order it is
    // emitted in), those not yet propagated (`pending`), and the propagated ones by
    // holder (`held_by[x]`: every `y` with `x -> y`, beside what `x` exports to `y`)
    // and by target (`holders_of[y]`: every `x`, beside what `x` imports from `y`).
    let mut pending: Vec<Reference> = creators.collect();
    let mut known: BTreeSet<Reference> = pending.iter().copied().collect();
    type Rows<'a> = Vec<Vec<(OdgNodeId, Option<&'a [ClassId]>)>>;
    let mut held_by: Rows = vec![Vec::new(); nodes.len()];
    let mut holders_of: Rows = vec![Vec::new(); nodes.len()];
    while let Some((x, y)) = pending.pop() {
        let mut found = |from: OdgNodeId, to: OdgNodeId| {
            if from != to && known.insert((from, to)) {
                pending.push((from, to));
            }
        };
        // x -> y beside x -> z: x may pass either to the other.
        let x_to_y = types(CrgEdgeKind::Export, x, y);
        for &(z, x_to_z) in &held_by[x.0 as usize] {
            if fits(x_to_y, z) {
                found(y, z);
            }
            if fits(x_to_z, y) {
                found(z, y);
            }
        }
        // x -> y -> z: x may obtain z from y.
        let x_from_y = types(CrgEdgeKind::Import, x, y);
        if x_from_y.is_some() {
            for &(z, _) in &held_by[y.0 as usize] {
                if fits(x_from_y, z) {
                    found(x, z);
                }
            }
        }
        // w -> x -> y: w may obtain y from x.
        for &(w, w_from_x) in &holders_of[x.0 as usize] {
            if fits(w_from_x, y) {
                found(w, y);
            }
        }
        held_by[x.0 as usize].push((y, x_to_y));
        holders_of[y.0 as usize].push((x, x_from_y));
    }
    known
}

/// Builds the object dependence graph.
///
/// `crg` must have been built from the same call graph that produced `objects`.
/// `edges` comes out in one canonical order: create edges in site order, then
/// reference edges by `(from, to)`, then use edges by `(from, to)`. Every node weighs
/// [`ResourceVector::unit`] and every use edge the CRG's use count between its two
/// classes; `WeightModel` has one value and is not read.
pub fn build_odg(
    program: &Program,
    crg: &ClassRelationGraph,
    objects: &ObjectSet,
    _weights: &WeightModel,
) -> ObjectDependenceGraph {
    let mut odg = ObjectDependenceGraph::default();

    // 1. Nodes: static roots for every class that allocates from static code, in class
    //    order, then one node per allocation site. `static_root[c]` is class `c`'s
    //    root (`NO_ROOT` if none); the site at position `i` is node `first_site + i`.
    const NO_ROOT: u32 = u32::MAX;
    let mut static_root = vec![NO_ROOT; program.classes.len()];
    for s in objects.sites.iter().filter(|s| s.allocator_static) {
        static_root[s.allocator_class.0 as usize] = 0;
    }
    for (class, root) in static_root.iter_mut().enumerate() {
        if *root != NO_ROOT {
            let class = ClassId(class as u32);
            *root = odg.nodes.len() as u32;
            odg.nodes.push(OdgNode::StaticRoot { class });
        }
    }
    let first_site = odg.nodes.len() as u32;
    let site_node = |i: usize| OdgNodeId(first_site + i as u32);
    for site in &objects.sites {
        odg.nodes.push(OdgNode::Object {
            site: site.id,
            class: site.class,
            multiplicity: site.multiplicity,
        });
    }

    // 2. Create edges, allocator context -> allocated object: the static root of the
    //    allocating class, or every object that may be an instance of it (a summary
    //    site allocating itself is no edge). One per creator and site, so unique.
    let edge = |(from, to): Reference, kind, weight| OdgEdge {
        from,
        to,
        kind,
        weight,
    };
    for (i, site) in objects.sites.iter().enumerate() {
        let target = site_node(i);
        let mut create = |creator: OdgNodeId| {
            if creator != target {
                odg.edges
                    .push(edge((creator, target), OdgEdgeKind::Create, 1));
            }
        };
        if site.allocator_static {
            create(OdgNodeId(static_root[site.allocator_class.0 as usize]));
        } else {
            (objects.sites.iter().enumerate())
                .filter(|(_, s)| program.is_subclass_of(s.class, site.allocator_class))
                .for_each(|(j, _)| create(site_node(j)));
        }
    }

    // 3. Reference edges: what a creator creates it holds a reference to, and the
    //    references spread from there.
    let creators = odg.edges.iter().map(|e| (e.from, e.to));
    let references = close_references(program, crg, &odg.nodes, creators);
    odg.edges.extend(
        references
            .iter()
            .map(|&r| edge(r, OdgEdgeKind::Reference, 1)),
    );

    // 4. Use edges: a referenced object whose class the referrer's class uses, in
    //    either direction and through either part, weighted by all those uses.
    let class_of = |n: OdgNodeId| odg.nodes[n.0 as usize].class();
    let mut use_weight: BTreeMap<(ClassId, ClassId), u64> = BTreeMap::new();
    for e in crg.edges_of_kind(CrgEdgeKind::Use) {
        let (a, b) = (e.from.class, e.to.class);
        *use_weight.entry((a.min(b), a.max(b))).or_default() += e.weight;
    }
    odg.edges.extend(references.iter().filter_map(|&(a, b)| {
        let (ca, cb) = (class_of(a), class_of(b));
        let w = *use_weight.get(&(ca.min(cb), ca.max(cb)))?;
        Some(edge((a, b), OdgEdgeKind::Use, w))
    }));

    // 5. Node weights: every object weighs the same until a profile says otherwise
    //    (`weights::reweigh_odg`).
    odg.node_weights = vec![ResourceVector::unit(); odg.nodes.len()];

    odg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crg::build_crg;
    use crate::objects::collect_objects;
    use crate::rta::rapid_type_analysis;
    use autodist_ir::frontend::compile_source;

    const BANK_SRC: &str = r#"
        class Account {
            int id;
            int savings;
            Account(int id, int savings) { this.id = id; this.savings = savings; }
            int getSavings() { return this.savings; }
            void setBalance(int b) { this.savings = b; }
        }
        class Bank {
            Account[] accounts;
            int count;
            int numCustomers;
            Bank(int n) {
                this.accounts = new Account[100];
                this.numCustomers = n;
                this.count = 0;
                this.initializeAccounts(1000);
            }
            void initializeAccounts(int initialBalance) {
                int i = 0;
                while (i < this.numCustomers) {
                    Account a = new Account(i, initialBalance);
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
                Bank merchants = new Bank(10);
                Account a4 = new Account(1, 1000000);
                Account a5 = new Account(2, 5000000);
                merchants.openAccount(a4);
                merchants.openAccount(a5);
                Account a = merchants.getCustomer(2);
                Main.withdrawHelper(a);
            }
            static void withdrawHelper(Account a) {
                a.setBalance(a.getSavings() - 900);
            }
        }
    "#;

    fn analyse(p: &Program) -> (ClassRelationGraph, ObjectSet) {
        let cg = rapid_type_analysis(p);
        (build_crg(p, &cg), collect_objects(p, &cg))
    }

    fn bank_odg() -> (Program, ObjectDependenceGraph) {
        let p = compile_source(BANK_SRC).unwrap();
        let (crg, objects) = analyse(&p);
        let odg = build_odg(&p, &crg, &objects, &WeightModel::default());
        (p, odg)
    }

    /// The first node satisfying `pred`.
    fn node_where(odg: &ObjectDependenceGraph, pred: impl Fn(&OdgNode) -> bool) -> OdgNodeId {
        let i = odg.nodes.iter().position(pred).expect("node exists");
        OdgNodeId(i as u32)
    }

    /// The first object node of class `name`.
    fn object_of(p: &Program, odg: &ObjectDependenceGraph, name: &str) -> OdgNodeId {
        let class = p.class_by_name(name).unwrap();
        node_where(
            odg,
            |n| matches!(n, OdgNode::Object { class: c, .. } if *c == class),
        )
    }

    fn has_edge(
        odg: &ObjectDependenceGraph,
        kind: OdgEdgeKind,
        from: OdgNodeId,
        to: OdgNodeId,
    ) -> bool {
        odg.edges_of_kind(kind)
            .any(|e| e.from == from && e.to == to)
    }

    /// The executable definition of the two propagation rules: the paper's sentence
    /// ("propagated ... until a fixed point is reached") transcribed literally. Every
    /// round matches the whole reference set against itself and against every CRG
    /// edge, and the rounds stop when one adds nothing.
    fn oracle_closure(
        program: &Program,
        crg: &ClassRelationGraph,
        nodes: &[OdgNode],
        creators: impl Iterator<Item = Reference>,
    ) -> BTreeSet<Reference> {
        let class_of = |n: OdgNodeId| nodes[n.0 as usize].class();
        // `true` if `class(a)` has a `kind` edge to `class(b)` carrying a type `c` is.
        let carries = |kind: CrgEdgeKind, a: OdgNodeId, b: OdgNodeId, c: OdgNodeId| {
            let from = CrgNode {
                class: class_of(a),
                part: nodes[a.0 as usize].part(),
            };
            crg.edges
                .iter()
                .filter(|e| e.kind == kind && e.from == from && e.to.class == class_of(b))
                .filter_map(|e| e.carried)
                .any(|t| program.is_subclass_of(class_of(c), t))
        };
        let mut refs: BTreeSet<Reference> = creators.collect();
        loop {
            let mut changed = false;
            // Export rule: a references b, a references c, and class(a) exports T to
            // class(b) with class(c) <= T   =>   b references c.
            let round: Vec<Reference> = refs.iter().copied().collect();
            for &(a, b) in &round {
                for &(a2, c) in &round {
                    if a2 == a && b != c && carries(CrgEdgeKind::Export, a, b, c) {
                        changed |= refs.insert((b, c));
                    }
                }
            }
            // Import rule: a references b, class(a) imports T from class(b), b
            // references c with class(c) <= T   =>   a references c.
            let round: Vec<Reference> = refs.iter().copied().collect();
            for &(a, b) in &round {
                for &(b2, c) in &round {
                    if b2 == b && c != a && carries(CrgEdgeKind::Import, a, b, c) {
                        changed |= refs.insert((a, c));
                    }
                }
            }
            if !changed {
                return refs;
            }
        }
    }

    /// Builds the ODG of `p` and checks it against the definitions: the reference edges
    /// are the oracle's closure of the create edges (as sets), every kind comes out in
    /// canonical order, there is exactly one use edge per reference between classes the
    /// CRG relates, weighted by the count of all of the CRG's use edges between the two,
    /// every node weighs the unit vector, and a second build is equal edge for edge.
    fn assert_odg_matches_its_definition(name: &str, p: &Program) -> ObjectDependenceGraph {
        let (crg, objects) = analyse(p);
        let odg = build_odg(p, &crg, &objects, &WeightModel::Uniform);
        let pairs =
            |kind| -> Vec<Reference> { odg.edges_of_kind(kind).map(|e| (e.from, e.to)).collect() };
        let creates = pairs(OdgEdgeKind::Create);
        let references = pairs(OdgEdgeKind::Reference);
        let expected = oracle_closure(p, &crg, &odg.nodes, creates.iter().copied());
        assert!(
            references.iter().copied().eq(expected.iter().copied()),
            "{name}: references {references:?}\nare not the sorted closure {expected:?}"
        );
        assert!(
            odg.edges.iter().all(|e| e.from != e.to),
            "{name}: self edge"
        );
        let kinds: Vec<OdgEdgeKind> = odg.edges.iter().map(|e| e.kind).collect();
        assert!(kinds.is_sorted(), "{name}: create, reference, use");

        let class_of = |n: OdgNodeId| odg.nodes[n.0 as usize].class();
        let expected_uses: Vec<(Reference, u64)> = references
            .iter()
            .filter_map(|&(a, b)| {
                let (ca, cb) = (class_of(a), class_of(b));
                let w: u64 = crg
                    .edges_of_kind(CrgEdgeKind::Use)
                    .filter(|e| {
                        (e.from.class, e.to.class) == (ca, cb)
                            || (e.from.class, e.to.class) == (cb, ca)
                    })
                    .map(|e| e.weight)
                    .sum();
                (w > 0).then_some(((a, b), w))
            })
            .collect();
        let uses: Vec<(Reference, u64)> = odg
            .edges_of_kind(OdgEdgeKind::Use)
            .map(|e| ((e.from, e.to), e.weight))
            .collect();
        assert_eq!(uses, expected_uses, "{name}: use edges");
        assert_eq!(odg.node_weights.len(), odg.nodes.len(), "{name}");
        assert!(
            odg.node_weights
                .iter()
                .all(|&w| w == ResourceVector::unit()),
            "{name}: node weights"
        );

        let again = build_odg(p, &crg, &objects, &WeightModel::Uniform);
        assert_eq!(odg.edges, again.edges, "{name}: a rebuild reorders edges");
        odg
    }

    #[test]
    fn nodes_include_static_root_and_all_sites() {
        let (p, odg) = bank_odg();
        let main = p.class_by_name("Main").unwrap();
        assert!(odg.nodes.contains(&OdgNode::StaticRoot { class: main }));
        // Sites: Bank, Account a4, Account a5 in main; Account in initializeAccounts.
        let account = p.class_by_name("Account").unwrap();
        let account_nodes = odg
            .nodes
            .iter()
            .filter(|n| matches!(n, OdgNode::Object { class, .. } if *class == account))
            .count();
        assert_eq!(account_nodes, 3);
        assert_eq!(odg.node_count(), odg.node_weights.len());
    }

    #[test]
    fn create_edges_follow_allocating_context() {
        let (p, odg) = bank_odg();
        let root = node_where(&odg, |n| matches!(n, OdgNode::StaticRoot { .. }));
        // Main's static root creates the Bank object.
        let bank_node = object_of(&p, &odg, "Bank");
        assert!(has_edge(&odg, OdgEdgeKind::Create, root, bank_node));
        // The Bank object creates the summary Account allocated in its loop.
        let summary_account = node_where(&odg, |n| {
            matches!(
                n,
                OdgNode::Object {
                    multiplicity: Multiplicity::Summary,
                    ..
                }
            )
        });
        assert!(has_edge(
            &odg,
            OdgEdgeKind::Create,
            bank_node,
            summary_account
        ));
    }

    #[test]
    fn export_propagation_adds_bank_to_account_reference() {
        let (p, odg) = bank_odg();
        let account = p.class_by_name("Account").unwrap();
        let bank_node = object_of(&p, &odg, "Bank");
        // main creates a4/a5 and exports them to the Bank via openAccount; after
        // propagation the Bank must reference Account objects created in main.
        let main_created_accounts: Vec<OdgNodeId> = odg
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                matches!(n, OdgNode::Object { class, multiplicity: Multiplicity::Single, .. } if *class == account)
            })
            .map(|(i, _)| OdgNodeId(i as u32))
            .collect();
        assert!(!main_created_accounts.is_empty());
        let bank_refs_one = main_created_accounts
            .iter()
            .any(|&a| has_edge(&odg, OdgEdgeKind::Reference, bank_node, a));
        assert!(bank_refs_one, "export propagation reached the Bank object");
    }

    #[test]
    fn use_edges_exist_and_only_between_related_classes() {
        let (_p, odg) = bank_odg();
        assert!(odg.edges_of_kind(OdgEdgeKind::Use).count() > 0);
        for e in odg.edges_of_kind(OdgEdgeKind::Use) {
            let ca = odg.nodes[e.from.0 as usize].class();
            let cb = odg.nodes[e.to.0 as usize].class();
            assert_ne!(ca, cb, "self-class uses are not cross-partition candidates");
            assert!(e.weight > 0);
        }
    }

    #[test]
    fn closure_is_the_oracles_on_the_paper_workloads() {
        assert_odg_matches_its_definition("bank example", &compile_source(BANK_SRC).unwrap());
        let mut workloads = autodist_workloads::table1_workloads(1);
        workloads.push(autodist_workloads::bank(100));
        for w in &workloads {
            assert_odg_matches_its_definition(&w.name, &w.program);
        }
    }

    #[test]
    fn closure_is_the_oracles_on_generated_call_trees() {
        // The skewed affinities and 193 classes are hub shapes: rows with many holders.
        let shapes = [
            (3, 4, 0.0),
            (4, 8, 0.0),
            (6, 12, 0.0),
            (6, 16, 0.0),
            (6, 12, 2.0),
            (6, 12, 8.0),
            (8, 24, 0.0),
        ];
        for (depth, width, affinity_skew) in shapes {
            for seed in [1, 2, 3] {
                let g = autodist_workloads::generated(&autodist_workloads::GenConfig {
                    seed,
                    depth,
                    width,
                    fan_out: 3,
                    affinity_skew,
                    ..Default::default()
                });
                let name = format!("d{depth}w{width} skew {affinity_skew} seed {seed}");
                let odg = assert_odg_matches_its_definition(&name, &g.workload.program);
                let references = odg.edges_of_kind(OdgEdgeKind::Reference).count();
                let creates = odg.edges_of_kind(OdgEdgeKind::Create).count();
                assert!(references > creates, "{name}: nothing propagated");
            }
        }
    }

    #[test]
    fn an_export_carries_objects_of_a_subclass_of_its_type() {
        // `take` is typed `A`; the object passed is a `B`. The export edge carries `A`,
        // and `B <= A`, so the sink comes to reference the `B` object.
        let src = r#"
            class A { int x; int get() { return this.x; } }
            class B extends A { int y; }
            class Sink {
                A held;
                void take(A a) { this.held = a; }
                int peek() { return this.held.get(); }
            }
            class Main {
                static void main() {
                    Sink s = new Sink();
                    B b = new B();
                    s.take(b);
                    int v = s.peek();
                }
            }
        "#;
        let p = compile_source(src).unwrap();
        let odg = assert_odg_matches_its_definition("superclass-typed export", &p);
        let (sink, b) = (object_of(&p, &odg, "Sink"), object_of(&p, &odg, "B"));
        assert!(has_edge(&odg, OdgEdgeKind::Reference, sink, b));
    }

    #[test]
    fn a_reference_typed_field_read_imports_the_field() {
        // Main never receives the Item as a result or passes it anywhere: it reads it
        // out of the Box's field, which is an import of `Item` from `Box`.
        let src = r#"
            class Item { int v; void poke() { this.v = this.v + 1; } }
            class Box {
                Item item;
                Box() { this.item = new Item(); }
            }
            class Main {
                static void main() {
                    Box b = new Box();
                    Item i = b.item;
                    i.poke();
                }
            }
        "#;
        let p = compile_source(src).unwrap();
        let odg = assert_odg_matches_its_definition("field-read import", &p);
        let root = node_where(&odg, |n| matches!(n, OdgNode::StaticRoot { .. }));
        let (bx, item) = (object_of(&p, &odg, "Box"), object_of(&p, &odg, "Item"));
        assert!(has_edge(&odg, OdgEdgeKind::Create, bx, item));
        assert!(!has_edge(&odg, OdgEdgeKind::Create, root, item));
        assert!(has_edge(&odg, OdgEdgeKind::Reference, root, item));
    }

    #[test]
    fn an_import_through_a_reference_found_after_its_holder() {
        // The reader holds the box before the box comes to hold the item (Main exports
        // it there), so `reader -> box -> item` completes when `box -> item` is
        // propagated: the import rule's `w -> x -> y` position, with the types the
        // reader imports from the box kept in the box's row of holders.
        let src = r#"
            class Item { int v; void poke() { this.v = this.v + 1; } }
            class Box {
                Item item;
                void put(Item i) { this.item = i; }
                Item get() { return this.item; }
            }
            class Reader {
                Box box;
                void setBox(Box b) { this.box = b; }
                void run() { Item i = this.box.get(); i.poke(); }
            }
            class Main {
                static void main() {
                    Box b = new Box();
                    Reader r = new Reader();
                    r.setBox(b);
                    Item i = new Item();
                    b.put(i);
                    r.run();
                }
            }
        "#;
        let p = compile_source(src).unwrap();
        let odg = assert_odg_matches_its_definition("import after its holder", &p);
        let (reader, item) = (object_of(&p, &odg, "Reader"), object_of(&p, &odg, "Item"));
        assert!(has_edge(&odg, OdgEdgeKind::Reference, reader, item));
    }

    #[test]
    fn a_summary_site_allocating_its_own_class_creates_no_self_edge() {
        // `grow` allocates Cells from a Cell: every Cell site — the summary site
        // included — may be the creator, and the site-to-itself pair stays dropped.
        let src = r#"
            class Cell {
                Cell next;
                void grow(int n) {
                    int i = 0;
                    while (i < n) {
                        Cell c = new Cell();
                        c.next = this.next;
                        this.next = c;
                        i = i + 1;
                    }
                }
            }
            class Main {
                static void main() {
                    Cell head = new Cell();
                    head.grow(3);
                }
            }
        "#;
        let p = compile_source(src).unwrap();
        let odg = assert_odg_matches_its_definition("self-allocating summary site", &p);
        let head = object_of(&p, &odg, "Cell");
        let summary = node_where(&odg, |n| {
            matches!(
                n,
                OdgNode::Object {
                    multiplicity: Multiplicity::Summary,
                    ..
                }
            )
        });
        assert_ne!(head, summary);
        assert!(has_edge(&odg, OdgEdgeKind::Create, head, summary));
        assert_eq!(odg.edges_of_kind(OdgEdgeKind::Create).count(), 2);
    }

    #[test]
    fn a_program_whose_only_allocator_is_static_code() {
        let src = r#"
            class A { int x; void set(int v) { this.x = v; } }
            class Main {
                static void main() {
                    A first = new A();
                    A second = new A();
                    first.set(1);
                    second.set(2);
                }
            }
        "#;
        let p = compile_source(src).unwrap();
        let odg = assert_odg_matches_its_definition("static allocator only", &p);
        let root = node_where(&odg, |n| matches!(n, OdgNode::StaticRoot { .. }));
        assert_eq!(odg.node_count(), 3);
        // The root created both and exports neither: creators are the whole relation.
        for kind in [
            OdgEdgeKind::Create,
            OdgEdgeKind::Reference,
            OdgEdgeKind::Use,
        ] {
            assert!(odg.edges_of_kind(kind).all(|e| e.from == root), "{kind:?}");
            assert_eq!(odg.edges_of_kind(kind).count(), 2, "{kind:?}");
        }
    }
}
