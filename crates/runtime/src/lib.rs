//! # autodist-runtime
//!
//! The distributed execution runtime (Section 5 of the paper), built as an in-process
//! simulated cluster:
//!
//! * [`value`] — runtime values (plain `Copy` words; strings are ids into a per-node
//!   interned table), the heap, objects and arrays.
//! * [`wire`] — the streamed message format exchanged between nodes (`NEW` and
//!   `DEPENDENCE` messages, marshalled values).
//! * [`net`] — the simulated MPI transport: mailboxes owned by the world, one sending
//!   endpoint per node, with a configurable latency / bandwidth / CPU-speed cost model
//!   standing in for the paper's two-machine 100 Mb Ethernet testbed.
//! * [`interp`] — the bytecode interpreter (the JVM's role in the paper's experiments):
//!   frames, continuations, the dispatch loop, and the profiler hook surface.
//! * [`exchange`] — the paper's Message Exchange: everything that knows how a value
//!   crosses a node — the interception of `rt/DependentObject` operations that turns
//!   rewritten call sites into message exchanges, marshal / unmarshal, send, accept,
//!   reply.
//! * [`sched`] — the scheduler: **one worker loop** on the calling thread that admits
//!   requests one after another and runs each world until it finishes or waits on a
//!   sequence gap, delivering the world's pending packets oldest first (O(1) per
//!   packet). Quiescence is *observed* where it happens — a world's own pending list
//!   runs dry — instead of inferred from timeouts. The loop owns the worlds waiting on
//!   a gap, the admission window and the results, so the runtime takes no lock and
//!   starts no thread. The three per-node services of Figure 10 (MPI service,
//!   Execution Starter, Message Exchange) are the world's transport, its seeding, and
//!   [`exchange`] under its run.
//! * [`cluster`] — the driver configuration and reporting surface: runs a distributed
//!   (or centralized) execution and reports virtual time, wall time and traffic
//!   statistics. A distributed run is a one-request serving run at window 1.
//! * [`serve`] — serving mode: the cluster as a server admitting N concurrent root
//!   computations, each over its own request-scoped world (clocks, mailboxes,
//!   correlation ids), with the window bounding the requests parked on a sequence
//!   gap.
//! * [`adapt`] — adaptive placement: an epoch controller that consults a
//!   caller-supplied [`adapt::Replanner`] (which profiles served requests through
//!   its own sinks) and swaps better placements in for subsequently admitted
//!   requests.

pub mod adapt;
pub mod cluster;
pub mod exchange;
pub mod interp;
pub mod net;
pub mod sched;
pub mod serve;
pub mod value;
pub mod wire;

pub use adapt::{AdaptOptions, Replanner};
pub use cluster::{
    run_centralized, run_distributed, run_distributed_profiled, ClusterConfig, ExecutionReport,
    NodeProfiler, NodeStats, Schedule,
};
pub use interp::{
    Continuation, ExecCounters, ExecError, Interp, ProfilerSink, TaskOutcome, TransportStall,
};
pub use net::{
    FaultPlan, FaultSummary, KillNode, LinkProbs, LossReason, LostPacket, NetworkConfig,
};
pub use serve::{run_serving, RequestReport, ServeOptions, ServerApp, ServingReport};
pub use value::{HeapObject, ObjRef, StaticValue, Statics, StrId, Value};
pub use wire::{AccessKind, Response, WireValue};

#[cfg(test)]
mod explore;
