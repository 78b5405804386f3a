//! # autodist-runtime
//!
//! The distributed execution runtime (Section 5 of the paper), built as an in-process
//! simulated cluster:
//!
//! * [`value`] — runtime values, the heap, objects and arrays.
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
//! * [`sched`] — the scheduler: **one worker loop** popping `(root, rank)` keys off the
//!   transport's shared ready queue (O(1) delivery per packet) into a fixed table of
//!   in-flight worlds, one lock each, with quiescence *counted* per world
//!   (published minus consumed keys) instead of inferred from timeouts. The three
//!   per-node services of Figure 10 (MPI service, Execution Starter, Message
//!   Exchange) are the world's transport, its seeding, and [`exchange`] under its
//!   delivery slice.
//! * [`cluster`] — the driver configuration and reporting surface: runs a distributed
//!   (or centralized) execution and reports virtual time, wall time and traffic
//!   statistics. A distributed run is a one-request serving run at window 1; the two
//!   schedules are one worker or several over the same loop.
//! * [`serve`] — serving mode: the cluster as a server admitting N concurrent root
//!   computations, each over its own request-scoped world (clocks, mailboxes,
//!   correlation ids) while all requests share one ready queue and the workers.
//! * [`adapt`] — adaptive placement: an epoch controller that feeds live serving
//!   profiles back into a caller-supplied [`adapt::Replanner`] and swaps better
//!   placements in for subsequently admitted requests.

pub mod adapt;
pub mod cluster;
pub mod exchange;
pub mod interp;
pub mod net;
pub mod sched;
pub mod serve;
pub mod value;
pub mod wire;

pub use adapt::{AdaptOptions, EpochProfile, Replanner};
pub use cluster::{
    run_centralized, run_distributed, run_distributed_profiled, ClusterConfig, ExecutionReport,
    NodeProfiler, NodeStats, Schedule,
};
pub use interp::{
    Continuation, ExecCounters, ExecError, Interp, ProfilerSink, TaskOutcome, TransportStall,
};
pub use net::{
    FaultPlan, FaultSummary, KillNode, LinkProbs, LossReason, LostPacket, NetworkConfig, ReadyQueue,
};
pub use serve::{run_serving, RequestReport, ServeOptions, ServerApp, ServingReport};
pub use value::{HeapObject, ObjRef, Value};
pub use wire::{AccessKind, Response, WireValue};
