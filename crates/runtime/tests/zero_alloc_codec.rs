//! Pins what a steady-state remote call allocates — on the real path, not a model of
//! it: two [`Interp`]s, rank 0 running a rewritten `main` and rank 1 serving it, over a
//! [`Transport`], driven packet by packet exactly as a world drives them (park → route
//! → take the pending entry → accept → run → reply → route → take the pending entry →
//! resume). A counting global allocator
//! observes every `alloc`/`realloc` of the test's thread.
//!
//! The claim is that **the argument list costs nothing**: its values go from where the
//! program put them (operand stack, the rewriter's `Object[]`) into the pooled frame
//! buffer and from there straight into the callee frame's locals, with no vector of
//! values or wire values in between; a string is copied into the frame and interned
//! straight off it, so one equal to a literal of the receiver costs nothing; and a
//! served request's continuation comes from the node's free list. So each kind of
//! round trip is pinned at exactly what remains — the program's own heap objects —
//! and any future change that sneaks a per-message collection (or a string copy)
//! back in fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use autodist_codegen::rewrite::{rewrite_for_node, ClassPlacement};
use autodist_ir::frontend::compile_source;
use autodist_runtime::exchange::{DistState, Reply, ServeOutcome};
use autodist_runtime::interp::{Interp, TaskOutcome};
use autodist_runtime::net::{MpiEndpoint, NetworkConfig, Transport};
use autodist_runtime::value::StaticValue;

/// Counts every allocation and reallocation of the calling thread; frees are
/// uninteresting here. Per thread, because the test harness's main thread books the
/// running test (a map insert, a timeout entry) whenever the scheduler next lets it,
/// which can be in the middle of the counter window.
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

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

const WARM_UP: usize = 16;
const MEASURED: usize = 200;

/// Every iteration of `main`'s loop makes the same four round trips, in this order.
const KINDS: [&str; 4] = ["invoke(int)", "field read", "NEW(int)", "invoke(String)"];

/// What rank 1 allocates serving one request of each kind, request decode to reply
/// sent. The serving continuation and its frame come from the node's free lists, and
/// the echoed string interns to the receiver's copy of the literal.
const SERVING: [usize; 4] = [
    0, // invoke: nothing
    0, // answered on the spot from the heap
    1, // the instance's field vector (the program's object)
    0, // invoke with a string: nothing
];

/// What rank 0 allocates per loop iteration: the program's own heap objects — three
/// one-element `Object[]`s (the field read packs an empty one), one proxy's field
/// vector. Marshal, send, park, resume and the echoed string add nothing.
const CALLING: usize = 3 + 1;

/// One test drives everything, on one thread, through every counter window.
#[test]
fn steady_state_remote_round_trips_allocate_nothing_for_the_argument_list() {
    let source = format!(
        r#"
        class Worker {{
            int hits;
            Worker(int seed) {{ this.hits = seed; }}
            int bounce(int x) {{ this.hits = this.hits + 1; return x * 2 + 1; }}
            String echo(String s) {{ return s; }}
        }}
        class Main {{
            static int result;
            static void main() {{
                Worker w = new Worker(7);
                int acc = 0;
                int i = 0;
                while (i < {rounds}) {{
                    acc = acc + w.bounce(i);
                    acc = acc + w.hits;
                    Worker fresh = new Worker(i);
                    String tag = w.echo("a tag that is longer than any inline buffer");
                    i = i + 1;
                }}
                result = acc;
            }}
        }}
        "#,
        rounds = WARM_UP + MEASURED
    );
    let p = compile_source(&source).expect("compiles");
    let mut home = BTreeMap::new();
    home.insert(p.class_by_name("Main").unwrap(), 0);
    home.insert(p.class_by_name("Worker").unwrap(), 1);
    let placement = ClassPlacement::new(2, home);
    let programs: Vec<_> = (0..2)
        .map(|n| rewrite_for_node(&p, &placement, n).program)
        .collect();
    let config = NetworkConfig::paper_testbed();
    let node = |rank: usize| {
        Interp::new(&programs[rank]).with_dist(DistState::new(MpiEndpoint::new(rank, 2, &config)))
    };
    let (mut caller, mut server) = (node(0), node(1));
    let mut net = Transport::new(2, None);
    // Tables that grow by amortised doubling for as long as the program keeps
    // creating objects: sized up front so a doubling cannot land in the window.
    caller.heap.reserve(8 * (WARM_UP + MEASURED));
    server.heap.reserve(2 * (WARM_UP + MEASURED));
    let exports = server.dist.as_mut().unwrap();
    // The export table is indexed by export id, and ids interleave by world size.
    exports.exports.reserve(2 * 2 * (WARM_UP + MEASURED));
    exports.export_ids.reserve(2 * (WARM_UP + MEASURED));

    let entry = programs[0].entry.unwrap();
    let mut root = caller.task_for(entry, Vec::new()).expect("main has a body");
    let mut outcome = caller.run_task(&mut root);
    // Round trip 0 is `new Worker(7)`; the loop's four follow in order.
    let mut round_trip = 0;
    let mut iteration_start = allocations();
    while let TaskOutcome::Parked { .. } = outcome {
        let measured = round_trip > 4 * WARM_UP;
        let kind = (round_trip + 3) % 4;
        net.route(&mut caller.dist.as_mut().unwrap().endpoint);
        assert_eq!(net.next_pending(), Some(1), "the request is pending");
        let request = net.recv(1).expect("the request was routed");

        let before = allocations();
        match server.accept_request(request.from, request.req_id, request.data) {
            ServeOutcome::Handled => {}
            ServeOutcome::Failed(e) => panic!("a one-way NEW failed: {e}"),
            ServeOutcome::Spawned { mut task, reply } => {
                let TaskOutcome::Done(result) = server.run_task(&mut task) else {
                    panic!("a Worker method parked");
                };
                server.recycle_task(task);
                let result = match reply {
                    Reply::Override(v) => result.map(|_| v),
                    _ => result,
                };
                server.send_reply(request.from, request.req_id, result);
            }
        }
        if measured {
            assert_eq!(
                allocations() - before,
                SERVING[kind],
                "serving {} (round trip {round_trip})",
                KINDS[kind]
            );
        }

        net.route(&mut server.dist.as_mut().unwrap().endpoint);
        assert_eq!(net.next_pending(), Some(0), "the response is pending");
        let response = net.recv(0).expect("the response was routed");
        outcome = caller.resume_task(&mut root, response.data);
        // The resume above ran `main` up to its next request: after the last round
        // trip of an iteration that is the next iteration's first park.
        if kind == 3 {
            let now = allocations();
            if measured {
                let serving: usize = SERVING.iter().sum();
                assert_eq!(
                    now - iteration_start,
                    serving + CALLING,
                    "iteration ending at round trip {round_trip}"
                );
            }
            iteration_start = now;
        }
        round_trip += 1;
    }
    assert_eq!(round_trip, 1 + 4 * (WARM_UP + MEASURED));
    let TaskOutcome::Done(Ok(_)) = outcome else {
        panic!("main failed: {outcome:?}");
    };
    let expected: i64 = (0..(WARM_UP + MEASURED) as i64)
        .map(|i| (i * 2 + 1) + (7 + i + 1))
        .sum();
    assert_eq!(
        caller.statics_snapshot().get("Main::result"),
        Some(&StaticValue::Int(expected)),
        "the loop really ran remotely"
    );
}
