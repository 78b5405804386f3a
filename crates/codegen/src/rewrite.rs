//! Communication generation: bytecode rewriting for distributed execution.
//!
//! Once every object has a virtual-processor number, each node receives its own copy of
//! the program in which accesses to *dependent* (remote) objects are replaced by
//! operations on `rt/DependentObject` proxies (paper Section 4.2, Figures 8 and 9):
//!
//! * `new Account(i, n, s, c)` on a node that does not host `Account` becomes
//!   `new DependentObject` + `DependentObject.<init>(location, "Account", argsList)` —
//!   at run time this sends a `NEW` message to the home node, which creates the object;
//! * `account.getSavings()` becomes
//!   `DependentObject.access(INVOKE_METHOD_HASRETURN, "getSavings", argsList)` — a
//!   `DEPENDENCE` message round-trip;
//! * field reads/writes become `access(GET_FIELD / PUT_FIELD, name, argsList)`.
//!
//! The placement is type based (classes are mapped to nodes), mirroring the paper's
//! "our analysis is type-based and thus, not very precise"; the runtime transparently
//! forwards accesses that reach an object which nevertheless lives remotely, so the
//! imprecision affects performance, never correctness. Static methods and static fields
//! are replicated on every node rather than proxied (a documented simplification).
//!
//! A node's copy is a copy in name only, and it costs what the node can run.
//! [`rewrite_for_node`] starts from a reference-counted clone of the program and
//! touches only the methods in the node's **reach**, [`runs_on`] — the one place that
//! decides whether a method is rewritten at all:
//!
//! * the instance methods, constructors included, of every class at home on the node
//!   **and of each of its ancestors** (an inherited body runs where the subclass's
//!   objects live);
//! * the entry method on node 0 (the Execution Starter launches `main` there);
//! * closed under `invokestatic` (static code is replicated and runs where it is
//!   called).
//!
//! That is exact, not a guess: `new C` is rewritten precisely when `C` lives elsewhere,
//! so an object only ever exists on its class's home and a method outside the reach is
//! never entered there (`tests/rewriter_reach.rs` watches every call of a run). Even if
//! it were, an unrewritten access that meets a proxy or a remote reference is forwarded
//! by the runtime — the contract above. Within the reach, `remote_site` is the one
//! definition of a remote program point: `new C` / `C.<init>` when `C` is at home
//! elsewhere, a *member* access (`getfield` / `putfield` / `invokevirtual`) on `C` only
//! when neither `C` nor any subclass of `C` is at home here — the receiver of a member
//! access on a split class family may be a local object, and an `access(..)` on a local
//! non-proxy object is an error where a plain access on a remote one is merely
//! forwarded. Every method outside the reach, and every method in it without a remote
//! site, is the source program's own `Arc`, shared; [`RewriteStats`] therefore counts
//! sites in code the node can run, not in every copy of every method.

use std::ops::Range;

use autodist_analysis::odg::{ObjectDependenceGraph, OdgNode};
use autodist_ir::bytecode::{Const, Insn, InvokeKind};
use autodist_ir::program::{Class, ClassId, FieldRef, Method, MethodId, Program, Type};
use autodist_partition::Partitioning;

/// Name of the synthetic proxy class injected into every rewritten program.
pub const DEPENDENT_OBJECT_CLASS: &str = "rt/DependentObject";

/// `access` kind: invoke a void method on the remote object.
pub const ACCESS_INVOKE_VOID: i64 = 1;
/// `access` kind: invoke a value-returning method on the remote object.
pub const ACCESS_INVOKE_HASRETURN: i64 = 2;
/// `access` kind: read a field of the remote object.
pub const ACCESS_GET_FIELD: i64 = 3;
/// `access` kind: write a field of the remote object.
pub const ACCESS_PUT_FIELD: i64 = 4;

/// A mapping from classes to the node (virtual processor) that hosts their instances.
#[derive(Clone, Debug, Default)]
pub struct ClassPlacement {
    /// Home node per class, indexed by [`ClassId`]. A class with no entry (`None`, or
    /// past the end) is unassigned and defaults to node 0.
    pub home: Vec<Option<usize>>,
    /// Number of nodes.
    pub nparts: usize,
}

impl ClassPlacement {
    /// A placement over `nparts` nodes that assigns each listed class its node.
    pub fn new(nparts: usize, homes: impl IntoIterator<Item = (ClassId, usize)>) -> Self {
        let mut home = Vec::new();
        for (class, node) in homes {
            let c = class.0 as usize;
            if c >= home.len() {
                home.resize(c + 1, None);
            }
            home[c] = Some(node);
        }
        ClassPlacement { home, nparts }
    }

    /// The home node of `class` (0 if unassigned).
    pub fn home_of(&self, class: ClassId) -> usize {
        self.home
            .get(class.0 as usize)
            .copied()
            .flatten()
            .unwrap_or(0)
    }

    /// The assigned classes and their home nodes, in class order.
    pub fn homes(&self) -> impl Iterator<Item = (ClassId, usize)> + '_ {
        (self.home.iter().enumerate()).filter_map(|(c, h)| Some((ClassId(c as u32), (*h)?)))
    }

    /// Places every class on node 0 (the centralized baseline).
    pub fn centralized(nparts: usize) -> Self {
        ClassPlacement {
            home: Vec::new(),
            nparts: nparts.max(1),
        }
    }

    /// Derives a class-level placement from an ODG partitioning by majority vote of the
    /// partition assignments of each class's object nodes. The entry class (the class
    /// whose static part runs `main`) is pinned to node 0, matching the paper's
    /// Execution Starter which launches the application on the user's node.
    pub fn from_odg_partition(
        program: &Program,
        odg: &ObjectDependenceGraph,
        partitioning: &Partitioning,
    ) -> Self {
        // `votes[c * width + p]`: how many of class `c`'s nodes the partitioner put
        // in part `p`; `cast[c]`: all of them.
        let part_of = |i: usize| partitioning.assignment.get(i).copied().unwrap_or(0);
        let width = (0..odg.nodes.len())
            .map(|i| part_of(i) + 1)
            .max()
            .unwrap_or(1);
        let classes = program.classes.len();
        let mut votes = vec![0usize; classes * width];
        let mut cast = vec![0usize; classes];
        for (i, node) in odg.nodes.iter().enumerate() {
            let class = match node {
                OdgNode::Object { class, .. } => *class,
                OdgNode::StaticRoot { class } => *class,
            };
            votes[class.0 as usize * width + part_of(i)] += 1;
            cast[class.0 as usize] += 1;
        }
        let row = |c: usize| &votes[c * width..(c + 1) * width];
        let voters = || (0..classes).filter(|&c| cast[c] > 0);
        // The most-voted part, ties to the lowest.
        let mut home: Vec<Option<usize>> = vec![None; classes];
        for c in voters() {
            let counts = row(c);
            home[c] = (0..width).max_by_key(|&p| (counts[p], std::cmp::Reverse(p)));
        }
        // The pipeline's one rule that keeps a plan on two nodes. The partitioner
        // sets no floor on non-empty parts (its bisections' balance envelope splits
        // the ODG), and the majority vote can undo a split anyway: a class whose objects
        // split 60/40 across nodes still lands wholly on the majority node, and with
        // few classes that can collapse the whole placement onto one node (zero
        // messages, no offloading). If that happens, move the class with the
        // strongest minority affinity — the one the partitioner most wanted
        // elsewhere — to its minority part.
        let mut populated = vec![false; width];
        home.iter().flatten().for_each(|&p| populated[p] = true);
        let entry_class = program.entry.map(|e| program.method(e).class.0 as usize);
        if populated.iter().filter(|&&p| p).count() < 2
            && partitioning.nparts >= 2
            && voters().count() >= 2
        {
            let sole = populated.iter().position(|&p| p).unwrap_or(0);
            let movable = || voters().filter(|&c| Some(c) != entry_class);
            // The largest minority share, ties to the higher class; within a class the
            // most-voted other part, ties to the higher part.
            let best_move = movable()
                .filter_map(|c| {
                    let counts = row(c);
                    (0..width)
                        .filter(|&p| p != sole && counts[p] > 0)
                        .max_by_key(|&p| counts[p])
                        .map(|p| (counts[p] * 1000 / cast[c], c, p))
                })
                .max();
            match best_move {
                Some((_, class, part)) => home[class] = Some(part),
                None => {
                    // No minority votes at all: fall back to evicting the class with
                    // the fewest objects to the next node.
                    if let Some((_, class)) = movable().map(|c| (cast[c], c)).min() {
                        home[class] = Some((sole + 1) % partitioning.nparts);
                    }
                }
            }
        }
        // The Execution Starter runs `main` on node 0, so the entry class must live
        // there. Rather than overriding its assignment (which would merge it with
        // whatever else is on node 0 and distort the cut), renumber the parts so the
        // entry class's part *becomes* node 0.
        if let Some(entry_class) = entry_class {
            let entry_part = home[entry_class].unwrap_or(0);
            if entry_part != 0 {
                for part in home.iter_mut().flatten() {
                    if *part == entry_part {
                        *part = 0;
                    } else if *part == 0 {
                        *part = entry_part;
                    }
                }
            }
            home[entry_class] = Some(0);
        }
        ClassPlacement {
            home,
            nparts: partitioning.nparts.max(1),
        }
    }

    /// Number of classes assigned to each node.
    pub fn classes_per_node(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nparts.max(1)];
        for (_, p) in self.homes() {
            if p < counts.len() {
                counts[p] += 1;
            }
        }
        counts
    }
}

/// Counters describing how much rewriting happened on one node: only sites in code the
/// node can run ([`runs_on`]) are rewritten, so only those are counted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Remote `new` sites transformed (Figure 9 transformations).
    pub rewritten_allocations: usize,
    /// Remote method invocations transformed (Figure 8 transformations).
    pub rewritten_invocations: usize,
    /// Remote field reads/writes transformed.
    pub rewritten_field_accesses: usize,
    /// Methods whose body changed.
    pub methods_transformed: usize,
}

impl RewriteStats {
    /// Total number of rewritten program points.
    pub fn total_sites(&self) -> usize {
        self.rewritten_allocations + self.rewritten_invocations + self.rewritten_field_accesses
    }
}

/// The per-node program copy produced by communication generation.
#[derive(Clone, Debug)]
pub struct RewrittenProgram {
    /// The transformed program (includes the synthetic `rt/DependentObject` class).
    pub program: Program,
    /// The node this copy is for.
    pub node: usize,
    /// Rewrite counters.
    pub stats: RewriteStats,
    /// Id of the injected `rt/DependentObject` class.
    pub dependent_object: ClassId,
    /// Id of `DependentObject.access`.
    pub access_method: MethodId,
    /// Id of `DependentObject.<init>`.
    pub init_method: MethodId,
}

/// Ensures the synthetic `rt/DependentObject` class exists in `program`, returning
/// `(class, init, access)` ids.
pub fn ensure_dependent_object(program: &mut Program) -> (ClassId, MethodId, MethodId) {
    if let Some(c) = program.class_by_name(DEPENDENT_OBJECT_CLASS) {
        let init = program.find_method(c, "<init>").expect("init exists");
        let access = program.find_method(c, "access").expect("access exists");
        return (c, init, access);
    }
    let c = program.add_class(DEPENDENT_OBJECT_CLASS, None);
    program.class_mut(c).is_synthetic = true;
    program.add_field(c, "home", Type::Int, false);
    program.add_field(c, "className", Type::Str, false);
    program.add_field(c, "remoteId", Type::Int, false);
    // Bodies stay empty: the runtime intercepts calls on this class and performs the
    // MPI message exchange instead of interpreting bytecode.
    let init = program.add_method(
        c,
        "<init>",
        vec![Type::Int, Type::Str, Type::Array(Box::new(Type::Int))],
        Type::Void,
        false,
    );
    let access = program.add_method(
        c,
        "access",
        vec![Type::Int, Type::Str, Type::Array(Box::new(Type::Int))],
        Type::Int,
        false,
    );
    (c, init, access)
}

/// One remote program point of a node's copy, by the transformation it takes.
enum RemoteSite<'p> {
    /// `new C` of a class hosted elsewhere (Figure 9, line 35).
    New(&'p Class),
    /// `invokespecial C.<init>` on such a class (Figure 9).
    Construct(&'p Method),
    /// `invokevirtual` of a method of such a class (Figure 8).
    Invoke(&'p Method),
    /// Read of an instance field of such a class.
    GetField(FieldRef),
    /// Write of one.
    PutField(FieldRef),
}

/// How one node sees each class of the placement, indexed by [`ClassId`].
struct NodeView {
    /// At home on another node: `new C` and `C.<init>` there are remote.
    away: Vec<bool>,
    /// `C` or a subclass of `C` is at home here (synthetic classes are at home
    /// everywhere): instances live here, so member accesses stay and the instance
    /// methods run here.
    hosted: Vec<bool>,
}

impl NodeView {
    fn of(program: &Program, placement: &ClassPlacement, node: usize) -> NodeView {
        let away: Vec<bool> = program
            .classes
            .iter()
            .map(|c| !c.is_synthetic && placement.home_of(c.id) != node)
            .collect();
        let mut hosted: Vec<bool> = program.classes.iter().map(|c| c.is_synthetic).collect();
        for class in program.classes.iter().filter(|c| !away[c.id.0 as usize]) {
            let mut cur = Some(class.id);
            while let Some(c) = cur {
                hosted[c.0 as usize] = true;
                cur = program.class(c).super_class;
            }
        }
        NodeView { away, hosted }
    }
}

/// The reach of `node`: which methods of `program` (indexed by [`MethodId`]) can run
/// there under `placement` — see the module documentation for the rule. This is the
/// only place the rewriter decides whether a method is rewritten at all.
pub fn runs_on(program: &Program, placement: &ClassPlacement, node: usize) -> Vec<bool> {
    let view = NodeView::of(program, placement, node);
    let mut runs: Vec<bool> = program
        .methods
        .iter()
        .map(|m| !m.is_static && view.hosted[m.class.0 as usize])
        .collect();
    if let (0, Some(entry)) = (node, program.entry) {
        runs[entry.0 as usize] = true;
    }
    let mut work: Vec<usize> = (0..runs.len()).filter(|&m| runs[m]).collect();
    while let Some(m) = work.pop() {
        for insn in &program.methods[m].body {
            if let Insn::Invoke(InvokeKind::Static, callee) = *insn {
                if !std::mem::replace(&mut runs[callee.0 as usize], true) {
                    work.push(callee.0 as usize);
                }
            }
        }
    }
    runs
}

/// Classifies `insn` as `view`'s node sees it: `None` when it stays as it is. The
/// rewriter asks this twice — once to decide whether a method changes at all, once to
/// transform it — so "a remote site" has one definition.
fn remote_site<'p>(program: &'p Program, view: &NodeView, insn: &Insn) -> Option<RemoteSite<'p>> {
    let away = |c: ClassId| view.away[c.0 as usize];
    let member = |c: ClassId| !view.hosted[c.0 as usize];
    match *insn {
        Insn::New(c) if away(c) => Some(RemoteSite::New(program.class(c))),
        Insn::Invoke(InvokeKind::Special, m) => {
            let callee = program.method(m);
            (callee.is_constructor() && away(callee.class)).then_some(RemoteSite::Construct(callee))
        }
        Insn::Invoke(InvokeKind::Virtual, m) => {
            let callee = program.method(m);
            member(callee.class).then_some(RemoteSite::Invoke(callee))
        }
        Insn::GetField(f) if member(f.class) => Some(RemoteSite::GetField(f)),
        Insn::PutField(f) if member(f.class) => Some(RemoteSite::PutField(f)),
        _ => None,
    }
}

/// Produces the rewritten program copy for `node`.
///
/// The copy shares every class of `program`, every method outside the node's reach
/// ([`runs_on`]) and every method in it that has no remote site (see [`Program`]'s
/// module documentation); only the methods counted in
/// [`RewriteStats::methods_transformed`] and the injected proxy class are new.
pub fn rewrite_for_node(
    program: &Program,
    placement: &ClassPlacement,
    node: usize,
) -> RewrittenProgram {
    let mut out = program.clone();
    let (dep_class, init_method, access_method) = ensure_dependent_object(&mut out);
    let view = NodeView::of(&out, placement, node);
    let runs = runs_on(program, placement, node);
    let mut stats = RewriteStats::default();

    for mid in (0..program.methods.len() as u32).map(MethodId) {
        let method = out.method(mid);
        if !runs[mid.0 as usize]
            || !method
                .body
                .iter()
                .any(|insn| remote_site(&out, &view, insn).is_some())
        {
            continue;
        }
        let (body, locals) = rewrite_body(
            &out,
            method,
            placement,
            &view,
            (dep_class, init_method, access_method),
            &mut stats,
        );
        stats.methods_transformed += 1;
        out.set_body(mid, body, locals);
    }

    RewrittenProgram {
        program: out,
        node,
        stats,
        dependent_object: dep_class,
        access_method,
        init_method,
    }
}

/// Rewrites one method body that has at least one remote site. Returns the new body
/// and the new local count, and counts the sites into `stats`.
fn rewrite_body(
    program: &Program,
    method: &Method,
    placement: &ClassPlacement,
    view: &NodeView,
    (dep_class, init_method, access_method): (ClassId, MethodId, MethodId),
    stats: &mut RewriteStats,
) -> (Vec<Insn>, u16) {
    let mut new_body: Vec<Insn> = Vec::with_capacity(method.body.len() * 2);
    let mut new_pos: Vec<usize> = Vec::with_capacity(method.body.len() + 1);
    let mut next_temp = method.locals.max(method.entry_locals());
    // Moves the `k` arguments on the stack into fresh temporaries, last one first.
    let mut spill = |body: &mut Vec<Insn>, k: usize| -> Range<u16> {
        let temps = next_temp..next_temp + k as u16;
        next_temp = temps.end;
        body.extend(temps.clone().rev().map(Insn::Store));
        temps
    };
    let str_const = |s: &str| Insn::Const(Const::Str(s.to_string()));
    let int_const = |v: i64| Insn::Const(Const::Int(v));

    for insn in &method.body {
        new_pos.push(new_body.len());
        match remote_site(program, view, insn) {
            Some(RemoteSite::New(class)) => {
                // Figure 9, line 35: `new Account` -> `new DependentObject`.
                new_body.push(Insn::New(dep_class));
                if program.find_method(class.id, "<init>").is_none() {
                    // The class has no constructor, so no later `invokespecial` will
                    // initialise the proxy: bind it to its remote object right away.
                    new_body.push(Insn::Dup);
                    new_body.push(int_const(placement.home_of(class.id) as i64));
                    new_body.push(str_const(&class.name));
                    push_args_array(&mut new_body, 0..0);
                    new_body.push(Insn::Invoke(InvokeKind::Special, init_method));
                }
                stats.rewritten_allocations += 1;
            }
            Some(RemoteSite::Construct(ctor)) => {
                // Figure 9: pack constructor arguments, pass the home node and the
                // class name, call DependentObject.<init>.
                let temps = spill(&mut new_body, ctor.params.len());
                new_body.push(int_const(placement.home_of(ctor.class) as i64));
                new_body.push(str_const(&program.class(ctor.class).name));
                push_args_array(&mut new_body, temps);
                new_body.push(Insn::Invoke(InvokeKind::Special, init_method));
                stats.rewritten_allocations += 1;
            }
            Some(RemoteSite::Invoke(callee)) => {
                // Figure 8: invoke through DependentObject.access.
                let has_ret = callee.ret != Type::Void;
                let temps = spill(&mut new_body, callee.params.len());
                new_body.push(int_const(if has_ret {
                    ACCESS_INVOKE_HASRETURN
                } else {
                    ACCESS_INVOKE_VOID
                }));
                new_body.push(str_const(&callee.name));
                push_args_array(&mut new_body, temps);
                new_body.push(Insn::Invoke(InvokeKind::Virtual, access_method));
                if !has_ret {
                    new_body.push(Insn::Pop);
                }
                stats.rewritten_invocations += 1;
            }
            Some(RemoteSite::GetField(f)) => {
                new_body.push(int_const(ACCESS_GET_FIELD));
                new_body.push(str_const(&program.field(f).name));
                push_args_array(&mut new_body, 0..0);
                new_body.push(Insn::Invoke(InvokeKind::Virtual, access_method));
                stats.rewritten_field_accesses += 1;
            }
            Some(RemoteSite::PutField(f)) => {
                let temps = spill(&mut new_body, 1);
                new_body.push(int_const(ACCESS_PUT_FIELD));
                new_body.push(str_const(&program.field(f).name));
                push_args_array(&mut new_body, temps);
                new_body.push(Insn::Invoke(InvokeKind::Virtual, access_method));
                new_body.push(Insn::Pop);
                stats.rewritten_field_accesses += 1;
            }
            None => new_body.push(insn.clone()),
        }
    }
    new_pos.push(new_body.len());

    // Fix branch targets for the shifted instruction positions.
    for insn in &mut new_body {
        insn.remap_targets(|t| new_pos[t.min(new_pos.len() - 1)]);
    }

    (new_body, next_temp)
}

/// Emits the "arguments in a list" sequence: a fresh array of length `temps.len()`
/// filled from the given temporary locals, left on the stack.
fn push_args_array(body: &mut Vec<Insn>, temps: Range<u16>) {
    body.push(Insn::Const(Const::Int(temps.len() as i64)));
    body.push(Insn::NewArray(Type::Int));
    for (i, t) in temps.enumerate() {
        body.push(Insn::Dup);
        body.push(Insn::Const(Const::Int(i as i64)));
        body.push(Insn::Load(t));
        body.push(Insn::ArrayStore);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autodist_analysis::crg::build_crg;
    use autodist_analysis::objects::collect_objects;
    use autodist_analysis::odg::{build_odg, OdgEdgeKind};
    use autodist_analysis::rta::rapid_type_analysis;
    use autodist_analysis::weights::WeightModel;
    use autodist_ir::frontend::compile_source;
    use autodist_ir::printer::print_bytecode;
    use autodist_ir::verify::verify_program;
    use autodist_partition::{partition, PartitionConfig};
    use std::sync::Arc;

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
            Bank(int n) {
                this.accounts = new Account[100];
                this.count = 0;
                int i = 0;
                while (i < n) {
                    this.openAccount(new Account(i, 1000));
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
                merchants.openAccount(a4);
                Account a = merchants.getCustomer(2);
                int s = a.getSavings();
                a.setBalance(s - 900);
            }
        }
    "#;

    /// Placement that puts Bank and Account on node 1 while Main stays on node 0.
    fn split_placement(p: &Program) -> ClassPlacement {
        let class = |name| p.class_by_name(name).unwrap();
        ClassPlacement::new(
            2,
            [
                (class("Main"), 0),
                (class("Bank"), 1),
                (class("Account"), 1),
            ],
        )
    }

    #[test]
    fn dependent_object_class_is_injected_once() {
        let mut p = compile_source(BANK_SRC).unwrap();
        let a = ensure_dependent_object(&mut p);
        let b = ensure_dependent_object(&mut p);
        assert_eq!(a, b);
        assert!(p.class(a.0).is_synthetic);
    }

    #[test]
    fn node0_copy_rewrites_remote_news_and_invokes() {
        let p = compile_source(BANK_SRC).unwrap();
        let placement = split_placement(&p);
        let rw = rewrite_for_node(&p, &placement, 0);
        assert!(rw.stats.rewritten_allocations >= 2, "{:?}", rw.stats);
        assert!(rw.stats.rewritten_invocations >= 3, "{:?}", rw.stats);
        // The rewritten program must still verify structurally.
        verify_program(&rw.program).expect("rewritten program verifies");
        // Main must now allocate DependentObject, not Bank.
        let main = rw.program.entry.unwrap();
        let listing = print_bytecode(&rw.program, main);
        assert!(listing.contains("new rt/DependentObject"), "{listing}");
        assert!(
            listing.contains("invokevirtual rt/DependentObject.access"),
            "{listing}"
        );
        assert!(
            listing.contains("invokespecial rt/DependentObject.<init>"),
            "{listing}"
        );
        assert!(!listing.contains("new Bank"), "{listing}");
    }

    #[test]
    fn node1_copy_keeps_bank_local_but_not_main_side_code() {
        let p = compile_source(BANK_SRC).unwrap();
        let placement = split_placement(&p);
        let rw = rewrite_for_node(&p, &placement, 1);
        // Bank's own methods are local on node 1: openAccount must not be rewritten.
        let bank = rw.program.class_by_name("Bank").unwrap();
        let open = rw.program.find_method(bank, "openAccount").unwrap();
        let listing = print_bytecode(&rw.program, open);
        assert!(!listing.contains("DependentObject"), "{listing}");
        verify_program(&rw.program).expect("verifies");
    }

    #[test]
    fn centralized_placement_rewrites_nothing() {
        let p = compile_source(BANK_SRC).unwrap();
        let placement = ClassPlacement::centralized(1);
        let rw = rewrite_for_node(&p, &placement, 0);
        assert_eq!(rw.stats.total_sites(), 0);
        assert_eq!(rw.stats.methods_transformed, 0);
    }

    /// The placements the pipeline derives for `p` (default weights, multilevel
    /// k-way), one per node count.
    fn pipeline_placements(
        p: &Program,
        nodes: std::ops::RangeInclusive<usize>,
    ) -> Vec<ClassPlacement> {
        let cg = rapid_type_analysis(p);
        let crg = build_crg(p, &cg);
        let objects = collect_objects(p, &cg);
        let odg = build_odg(p, &crg, &objects, &WeightModel::default());
        let mut gb = autodist_partition::GraphBuilder::new(odg.node_count(), 3);
        for (i, w) in odg.node_weights.iter().enumerate() {
            gb.set_weight(i, &w.as_array().map(|x| x.max(1)));
        }
        for e in odg.edges_of_kind(OdgEdgeKind::Use) {
            gb.add_edge(e.from.0 as usize, e.to.0 as usize, e.weight.max(1));
        }
        let graph = gb.build();
        nodes
            .map(|n| {
                let part = partition(&graph, &PartitionConfig::kway(n));
                ClassPlacement::from_odg_partition(p, &odg, &part)
            })
            .collect()
    }

    #[test]
    fn placement_from_odg_partition_pins_entry_class_to_node0() {
        let p = compile_source(BANK_SRC).unwrap();
        let placement = pipeline_placements(&p, 2..=2).remove(0);
        let main = p.class_by_name("Main").unwrap();
        assert_eq!(placement.home_of(main), 0);
        assert_eq!(placement.nparts, 2);
        let counts = placement.classes_per_node();
        assert_eq!(counts.iter().sum::<usize>(), placement.homes().count());
    }

    #[test]
    fn rewritten_bodies_keep_branch_targets_valid() {
        let p = compile_source(BANK_SRC).unwrap();
        let placement = split_placement(&p);
        for node in 0..2 {
            let rw = rewrite_for_node(&p, &placement, node);
            for m in &rw.program.methods {
                for insn in &m.body {
                    if let Some(t) = insn.branch_target() {
                        assert!(t < m.body.len(), "target {t} out of range in {}", m.name);
                    }
                }
            }
        }
    }

    /// The rewriter before it knew its reach: every method with a remote site is
    /// rewritten on every node. What [`rewrite_for_node`] must agree with on every
    /// method a node can run.
    fn oracle_rewrite_everywhere(
        program: &Program,
        placement: &ClassPlacement,
        node: usize,
    ) -> RewrittenProgram {
        let mut out = program.clone();
        let (dep_class, init_method, access_method) = ensure_dependent_object(&mut out);
        let view = NodeView::of(&out, placement, node);
        let mut stats = RewriteStats::default();
        for mid in (0..program.methods.len() as u32).map(MethodId) {
            let method = out.method(mid);
            if !method
                .body
                .iter()
                .any(|insn| remote_site(&out, &view, insn).is_some())
            {
                continue;
            }
            let (body, locals) = rewrite_body(
                &out,
                method,
                placement,
                &view,
                (dep_class, init_method, access_method),
                &mut stats,
            );
            stats.methods_transformed += 1;
            out.set_body(mid, body, locals);
        }
        RewrittenProgram {
            program: out,
            node,
            stats,
            dependent_object: dep_class,
            access_method,
            init_method,
        }
    }

    /// A placement no partitioner would choose, which is the point: class `i` lives on
    /// node `(i * stride) % nodes` (class families split freely), the entry class on
    /// node 0.
    fn scattered(p: &Program, nodes: usize, stride: usize) -> ClassPlacement {
        let homes = (p.classes.iter()).map(|c| (c.id, c.id.0 as usize * stride % nodes));
        let entry = p.entry.map(|e| (p.method(e).class, 0));
        ClassPlacement::new(nodes, homes.chain(entry))
    }

    /// Inside the reach a copy is what rewriting everything gives, outside it the
    /// source's own method; the stats count exactly the former.
    fn assert_reach_matches_oracle(name: &str, p: &Program, placement: &ClassPlacement) {
        for node in 0..placement.nparts {
            let runs = runs_on(p, placement, node);
            let copy = rewrite_for_node(p, placement, node);
            let oracle = oracle_rewrite_everywhere(p, placement, node);
            assert_eq!(runs.len(), p.methods.len());
            let mut transformed = 0;
            for (i, source) in p.methods.iter().enumerate() {
                let (ours, theirs) = (&copy.program.methods[i], &oracle.program.methods[i]);
                if runs[i] {
                    assert!(
                        ours.body == theirs.body && ours.locals == theirs.locals,
                        "{name}: node {node} runs {} and rewrites it differently",
                        source.name
                    );
                    transformed += usize::from(!Arc::ptr_eq(ours, source));
                } else {
                    assert!(
                        Arc::ptr_eq(ours, source),
                        "{name}: node {node} cannot run {} but rewrote it",
                        source.name
                    );
                }
            }
            assert_eq!(copy.stats.methods_transformed, transformed, "{name}");
            assert!(copy.stats.total_sites() <= oracle.stats.total_sites());
            verify_program(&copy.program).expect("verifies");
        }
    }

    #[test]
    fn a_copy_is_the_oracle_inside_the_reach_and_the_source_outside_it() {
        use autodist_workloads::{bank, generated, table1_workloads, table3_workloads, GenConfig};
        let mut programs: Vec<(String, Program)> = table1_workloads(1)
            .into_iter()
            .chain(table3_workloads(1))
            .chain([bank(100)])
            .map(|w| (w.name, w.program))
            .collect();
        for (depth, width) in [(3, 4), (4, 8), (6, 12)] {
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
        programs.push(("families".into(), compile_source(FAMILIES_SRC).unwrap()));
        for (name, p) in &programs {
            for nodes in 2..=4 {
                for stride in [1, 3] {
                    assert_reach_matches_oracle(name, p, &scattered(p, nodes, stride));
                }
            }
            // And the placements the pipeline itself would derive.
            for placement in pipeline_placements(p, 2..=4) {
                assert_reach_matches_oracle(name, p, &placement);
            }
        }
    }

    /// One program for the hand-written reach cases: a class family (`Base` /
    /// `Derived`) that a placement may split, a static helper only an instance
    /// method calls, static methods that call each other, and an entry with remote
    /// sites on every node.
    const FAMILIES_SRC: &str = r#"
        class Store { int v; Store(int v) { this.v = v; } int read() { return this.v; } }
        class Tank { int w; Tank(int w) { this.w = w; } int read() { return this.w; } }
        class Base {
            Store s;
            Base(Store s) { this.s = s; }
            int peek() { return this.s.read(); }
        }
        class Derived extends Base {
            int extra;
            Derived(Store s, int extra) { this.s = s; this.extra = extra; }
            int both() { return this.peek() + this.extra; }
        }
        class Helper {
            static int probe(Store s, Tank t) { return s.read() + t.read(); }
        }
        class Worker {
            int go(Store s, Tank t) { return Helper.probe(s, t); }
        }
        class Main {
            static int checksum;
            static int ping(int n) { if (n > 0) { return Main.pong(n - 1); } return 1; }
            static int pong(int n) { if (n > 0) { return Main.ping(n - 1); } return 2; }
            static void main() {
                Store s = new Store(3);
                Tank t = new Tank(4);
                Base b = new Base(s);
                Derived d = new Derived(s, 5);
                Worker w = new Worker();
                checksum = b.peek() + d.both() + w.go(s, t) + Main.ping(3);
            }
        }
    "#;

    /// `Store`, `Base`, `Helper` and `Main` on node 0, `Derived` and `Worker` on node 1,
    /// `Tank` on node 2.
    fn families() -> (Program, ClassPlacement) {
        let p = compile_source(FAMILIES_SRC).unwrap();
        let homes = [
            ("Store", 0),
            ("Tank", 2),
            ("Base", 0),
            ("Derived", 1),
            ("Helper", 0),
            ("Worker", 1),
            ("Main", 0),
        ]
        .map(|(name, node)| (p.class_by_name(name).unwrap(), node));
        let placement = ClassPlacement::new(3, homes);
        (p, placement)
    }

    /// `(in the reach, rewritten)` of `class.method` on `node`.
    fn fate(
        p: &Program,
        placement: &ClassPlacement,
        node: usize,
        class: &str,
        method: &str,
    ) -> (bool, bool) {
        let m = p
            .find_method(p.class_by_name(class).unwrap(), method)
            .unwrap();
        let copy = rewrite_for_node(p, placement, node);
        let rewritten = !Arc::ptr_eq(
            &copy.program.methods[m.0 as usize],
            &p.methods[m.0 as usize],
        );
        (runs_on(p, placement, node)[m.0 as usize], rewritten)
    }

    #[test]
    fn an_inherited_method_is_rewritten_where_the_subclass_lives() {
        let (p, placement) = families();
        // `Base.peek` calls `Store.read`: local on node 0, remote on `Derived`'s node,
        // where the inherited body runs on `Derived` objects; node 2 hosts neither.
        assert_eq!(fate(&p, &placement, 0, "Base", "peek"), (true, false));
        assert_eq!(fate(&p, &placement, 1, "Base", "peek"), (true, true));
        assert_eq!(fate(&p, &placement, 2, "Base", "peek"), (false, false));
        // Its `this.s` stays a plain field read there: the receiver is a local object.
        let peek = p
            .find_method(p.class_by_name("Base").unwrap(), "peek")
            .unwrap();
        let on_1 = rewrite_for_node(&p, &placement, 1);
        assert_eq!(on_1.stats.rewritten_field_accesses, 0, "{:?}", on_1.stats);
        assert!(print_bytecode(&on_1.program, peek).contains("getfield"));
        // The subclass's own methods run on its node only.
        assert_eq!(fate(&p, &placement, 1, "Derived", "both"), (true, false));
        assert!(!fate(&p, &placement, 0, "Derived", "both").0);
    }

    #[test]
    fn static_code_is_rewritten_where_it_is_called_from() {
        let (p, placement) = families();
        // `Helper.probe` is called only from `Worker.go`, hosted on node 1: it runs
        // (and is rewritten) there, although its class's static part is on node 0
        // and node 0 has a remote site in it (`Tank.read`).
        assert_eq!(fate(&p, &placement, 1, "Worker", "go"), (true, false));
        assert_eq!(fate(&p, &placement, 1, "Helper", "probe"), (true, true));
        assert_eq!(fate(&p, &placement, 0, "Helper", "probe"), (false, false));
        assert_eq!(fate(&p, &placement, 2, "Helper", "probe"), (false, false));
    }

    #[test]
    fn the_entry_and_what_it_calls_statically_belong_to_node_0() {
        let (p, placement) = families();
        assert_eq!(fate(&p, &placement, 0, "Main", "main"), (true, true));
        for node in [1, 2] {
            // `main` has remote sites there too (`new Store`), but never runs there.
            assert_eq!(fate(&p, &placement, node, "Main", "main"), (false, false));
        }
        // `ping` and `pong` call each other: the closure terminates and takes both.
        for method in ["ping", "pong"] {
            assert!(fate(&p, &placement, 0, "Main", method).0);
            assert!(!fate(&p, &placement, 1, "Main", method).0);
        }
    }

    #[test]
    fn stats_total_adds_up() {
        let s = RewriteStats {
            rewritten_allocations: 2,
            rewritten_invocations: 3,
            rewritten_field_accesses: 4,
            methods_transformed: 2,
        };
        assert_eq!(s.total_sites(), 9);
    }
}
