//! An allocation budget for the compile side, and a direct check of what it rests on.
//!
//! Planning used to copy what it already held: the front end cloned tokens, the AST
//! and callee methods, and every node's program was a deep copy made twice (once by
//! the rewriter, once on the way to the server). Now the front end borrows from the
//! source text and a [`Program`] clone shares its classes and methods by reference
//! count, so a node's copy owns only the methods the rewriter changed — and the
//! rewriter changes only what the node can run, the verifier checks each distinct
//! method once and the layouts of a plan's copies are one family that decodes each
//! distinct method once. The first test counts allocations per phase of one
//! `plan_sweep`-shaped op (`gen` d6 w12 f3 over 2, 4 and 8 nodes) and holds each cell
//! within 10 % of what that design costs; the second asserts the sharing itself,
//! pointer for pointer, from the copies down to the decoded bodies.
//!
//! The counter is per thread, so the two tests do not see each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;

use autodist::{Distributor, DistributorConfig};
use autodist_ir::layout::ProgramLayout;
use autodist_runtime::cluster::ClusterConfig;
use autodist_runtime::NetworkConfig;
use autodist_workloads::{generated, GenConfig};

/// Counts every allocation and reallocation of the calling thread.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the number of allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The program every `plan_sweep` op plans (its seed aside).
fn sweep_config() -> GenConfig {
    GenConfig {
        seed: 0x5EED,
        depth: 6,
        width: 12,
        fan_out: 3,
        iterations: 1,
        ..GenConfig::default()
    }
}

fn cluster(nodes: usize) -> ClusterConfig {
    ClusterConfig {
        network: NetworkConfig {
            node_speeds: vec![1.0; nodes],
            ..NetworkConfig::paper_testbed()
        },
        ..ClusterConfig::default()
    }
}

/// What the phases allocate today, per node count `[2, 4, 8]`; a cell may exceed its
/// figure by a tenth before the test fails. Before the front end borrowed and the
/// copies shared, the rows read 41 811, 14 171 / 23 056 / 40 409 and
/// 5 810 / 12 426 / 25 661 (mean whole op 82 368); before the rewriter stopped at
/// a node's reach and verification and layout went per distinct method, 5 201,
/// 10 386 / 17 668 / 31 735 and 2 715 / 5 571 / 11 286 (mean whole op 31 549); before
/// the partitioner stopped rebuilding each level through a `BTreeMap` and per-vertex
/// `Vec`s, `DISTRIBUTE` read 7 390 / 8 291 / 9 336 (mean whole op 15 164); before
/// the CFG, call graph, CRG and placement were indexed by id and the front end's
/// locals became a list, `GENERATED` read 5 201 and `DISTRIBUTE` 6 357 / 6 776 /
/// 7 289 (mean whole op 13 478), and the `PREPARE` figures pinned before that,
/// 1 542 / 1 626 / 1 705, predate the stack form's removal; before the front end's
/// AST went flat and its method buffers, the loop search's and the verifier's CFG
/// were reused, `GENERATED` read 5 081 and `DISTRIBUTE` 4 617 / 5 173 / 5 776 (mean
/// whole op 11 739).
const GENERATED: usize = 1_281;
const DISTRIBUTE: [usize; 3] = [1_469, 1_745, 2_148];
const PREPARE: [usize; 3] = [1_394, 1_469, 1_546];

#[test]
fn planning_stays_inside_its_allocation_budget() {
    let cfg = sweep_config();
    let within = |what: &str, got: usize, budget: usize| {
        assert!(
            got * 10 <= budget * 11,
            "{what}: {got} allocations, more than a tenth over the budget of {budget}"
        );
    };
    println!("gen d6 w12 f3 — allocations per phase of one planning op");
    println!("nodes  generated  try_distribute  prepare_server  (layouts alone)  whole op");
    let mut whole_ops = 0;
    for (i, nodes) in [2usize, 4, 8].into_iter().enumerate() {
        let (g, gen_allocs) = counted(|| generated(&cfg));
        let distributor = Distributor::new(DistributorConfig::multilevel(nodes));
        let (plan, distribute_allocs) = counted(|| {
            distributor
                .try_distribute(&g.workload.program)
                .expect("plans")
        });
        let cluster = cluster(nodes);
        let (app, prepare_allocs) = counted(|| plan.prepare_server(&cluster));
        assert_eq!(app.nodes(), nodes);
        let programs = plan.programs();
        let (_, layout_allocs) =
            counted(|| ProgramLayout::build_family(programs, Default::default()));
        let whole = gen_allocs + distribute_allocs + prepare_allocs;
        whole_ops += whole;
        println!(
            "{nodes:>5}  {gen_allocs:>9}  {distribute_allocs:>14}  {prepare_allocs:>14}  \
             {layout_allocs:>15}  {whole:>8}"
        );
        within("generated", gen_allocs, GENERATED);
        within("try_distribute", distribute_allocs, DISTRIBUTE[i]);
        within("prepare_server", prepare_allocs, PREPARE[i]);
        // No program copy is left in the hand-off: beyond building the layouts it
        // costs a reference-counted clone of each program (its three tables), the
        // layout's `Arc`, the vectors that hold them, and the one table of class
        // defaults the copies' shared shape needs (two vectors and an `Arc`) —
        // built here once instead of by every node of every request.
        assert!(
            prepare_allocs <= layout_allocs + 4 * nodes + 8,
            "prepare_server on {nodes} nodes: {prepare_allocs} allocations, layouts alone {layout_allocs}"
        );
    }
    let mean = whole_ops / 3;
    println!("mean whole op: {mean}");
    assert!(mean <= 6_000, "mean planning op: {mean} allocations");

    // Informational: what the allocator costs in page faults once warm. A large
    // transient buffer freed at the top of the heap can be trimmed and faulted in
    // again by the next op; this line shows it in the log and is never asserted.
    let ops = 20;
    let before = minor_faults();
    for nodes in [2usize, 4, 8].into_iter().cycle().take(ops) {
        let g = generated(&cfg);
        let plan = (Distributor::new(DistributorConfig::multilevel(nodes)))
            .try_distribute(&g.workload.program)
            .expect("plans");
        plan.prepare_server(&cluster(nodes));
    }
    if let (Some(before), Some(after)) = (before, minor_faults()) {
        let per_op = (after - before) as f64 / ops as f64;
        println!("steady state: {per_op:.1} minor page faults per op (this thread, {ops} ops)");
    }
}

/// Minor page faults of the calling thread so far (`minflt` of `/proc/thread-self/stat`),
/// where the system has that file.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // The fields after the command name, which is in parentheses, start at field 3.
    let fields = stat.get(stat.rfind(')')? + 2..)?;
    fields.split(' ').nth(10 - 3)?.parse().ok()
}

#[test]
fn a_nodes_copy_shares_every_method_the_rewriter_left_alone() {
    let g = generated(&sweep_config());
    let source = &g.workload.program;
    for nodes in [2usize, 4, 8] {
        let plan = Distributor::new(DistributorConfig::multilevel(nodes))
            .try_distribute(source)
            .expect("plans");
        let handed_over = plan.programs();
        for (rank, copy) in plan.node_programs.iter().enumerate() {
            let shared = source
                .methods
                .iter()
                .zip(&copy.program.methods)
                .filter(|(ours, theirs)| Arc::ptr_eq(ours, theirs))
                .count();
            assert_eq!(
                shared + copy.stats.methods_transformed,
                source.methods.len(),
                "node {rank} of {nodes}: every method is either shared or counted as transformed"
            );
            assert!(
                shared > 0 && copy.stats.methods_transformed > 0,
                "node {rank} of {nodes}"
            );
            // Classes are never rewritten: all shared, the proxy class appended.
            assert!(source
                .classes
                .iter()
                .zip(&copy.program.classes)
                .all(|(ours, theirs)| Arc::ptr_eq(ours, theirs)));
            assert_eq!(copy.program.classes.len(), source.classes.len() + 1);
            // What the runtime is handed is the same copy again, method for method.
            assert_eq!(handed_over[rank].methods.len(), copy.program.methods.len());
            assert!(handed_over[rank]
                .methods
                .iter()
                .zip(&copy.program.methods)
                .all(|(ours, theirs)| Arc::ptr_eq(ours, theirs)));
        }

        // One level down: two copies hold the same method wherever neither rewrote
        // it, and the layouts the server is prepared with follow the copies — one
        // shape allocation, one decoded body per distinct method.
        let layouts = ProgramLayout::build_family(handed_over.clone(), Default::default());
        let mut distinct_methods = HashSet::new();
        let mut distinct_bodies = HashSet::new();
        for (rank, (copy, layout)) in handed_over.iter().zip(&layouts).enumerate() {
            assert!(
                std::ptr::eq(&layout.classes, &layouts[0].classes),
                "node {rank} of {nodes}: one shape allocation for the plan"
            );
            for (m, method) in copy.methods.iter().enumerate() {
                let first = &handed_over[0].methods[m];
                let untouched =
                    |copy: &Arc<_>| source.methods.get(m).is_some_and(|s| Arc::ptr_eq(s, copy));
                assert_eq!(
                    Arc::ptr_eq(method, first),
                    rank == 0 || untouched(method) && untouched(first),
                    "node {rank} of {nodes}, method {m}: shared exactly where neither copy rewrote it"
                );
                assert_eq!(
                    Arc::ptr_eq(&layout.method_ops[m], &layouts[0].method_ops[m]),
                    Arc::ptr_eq(method, first),
                    "node {rank} of {nodes}, method {m}: one decoded body per distinct method"
                );
                distinct_methods.insert(Arc::as_ptr(method));
                distinct_bodies.insert(Arc::as_ptr(&layout.method_ops[m]));
            }
        }
        let transformed: usize = plan
            .node_programs
            .iter()
            .map(|copy| copy.stats.methods_transformed)
            .sum();
        assert_eq!(distinct_bodies.len(), distinct_methods.len());
        assert!(
            distinct_bodies.len() <= source.methods.len() + transformed + 2 * nodes,
            "{nodes} nodes: {} decoded bodies for {} source methods, {transformed} rewritten",
            distinct_bodies.len(),
            source.methods.len()
        );
        println!(
            "{nodes} nodes: {} distinct decoded bodies ({} source methods + {transformed} rewritten \
             + {} proxy stubs) instead of {}",
            distinct_bodies.len(),
            source.methods.len(),
            2 * nodes,
            handed_over.iter().map(|p| p.methods.len()).sum::<usize>()
        );
    }
}
