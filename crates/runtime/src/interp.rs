//! The bytecode interpreter.
//!
//! The paper executes its rewritten bytecode on a JVM ("it was easier to use normal JVM
//! since our current experiments are conducted on resource-rich x86 platforms"); this
//! interpreter plays that JVM's role. It executes the stack bytecode directly, maintains
//! a virtual clock (instructions cost `instr_cost / node speed` microseconds, messages
//! cost latency + bytes/bandwidth) and exposes profiler hooks (Section 6). This file is
//! the *machine*: frames, continuations, the dispatch loop and the local field / array
//! / arithmetic helpers. Whatever leaves the node — operations on `rt/DependentObject`
//! proxies and remote references, turned into `NEW` / `DEPENDENCE` message exchanges
//! (Section 5) when a [`DistState`] is attached — is [`crate::exchange`]'s: the
//! dispatch loop hands it a slice of operands and gets back a request id to park on.
//!
//! All name resolution is interned at program-load time by
//! [`autodist_ir::layout::ProgramLayout`]: instance fields are flat slot-indexed
//! vectors, statics live in one dense replicated vector, and dynamic dispatch goes
//! through selector-indexed vtables. On top of those tables the layout **pre-decodes**
//! every method body into the compact [`Op`] format (resolved slots, selectors,
//! argument counts, interned string constants, `u32` branch targets), so the dispatch
//! loop performs no string clone, no map probe and no signature lookup per
//! instruction.
//!
//! Execution itself runs on an **explicit frame stack** ([`Continuation`]): a single
//! dispatch loop ([`Interp::run_task`]) drives a `Vec` of [`Frame`]s (locals + operand
//! stack + pc each) instead of recursing through Rust. An in-flight computation is
//! therefore plain data — when a node of a distributed run hits a remote operation,
//! the machine sends the request and *parks* the whole frame stack as a continuation
//! keyed by the request id ([`TaskOutcome::Parked`]); the worker loop
//! ([`crate::sched`]) resumes it when the response is delivered. There is no blocking
//! remote path: a node with a [`DistState`] always parks, and a node without one
//! fails remote operations with [`ExecError::NotDistributed`].

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use autodist_codegen::rewrite::DEPENDENT_OBJECT_CLASS;
use autodist_ir::bytecode::{BinOp, CmpOp, InvokeKind, UnOp};
use autodist_ir::layout::{ArrayInit, LayoutOptions, Op, ProgramLayout, NO_SLOT};
use autodist_ir::program::{ClassId, FieldRef, MethodId, Program, Type};

use bytes::Bytes;

use crate::exchange::{DistState, SlowInvoke};
use crate::net::{LossReason, LostPacket};
use crate::value::{HeapObject, ObjRef, Value};
use crate::wire::{AccessKind, WireError};

/// Execution statistics collected by the interpreter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Bytecode instructions executed. Superinstructions count as their seed width
    /// ([`Op::fused_width`]), so this is identical with fusion on or off.
    pub instructions: u64,
    /// Dispatch-loop iterations: superinstructions count **once**. The dynamic
    /// fusion win of a run is `instructions / dispatches`; the two are equal when
    /// fusion is off.
    pub dispatches: u64,
    /// Objects and arrays allocated.
    pub allocations: u64,
    /// Bytes allocated (approximate resident sizes).
    pub allocated_bytes: u64,
    /// Method invocations (all kinds).
    pub method_invocations: u64,
    /// Remote requests issued (NEW + DEPENDENCE).
    pub remote_requests: u64,
    /// Remote requests served for other nodes.
    pub requests_served: u64,
}

/// Profiler hook surface (implemented by `autodist-profiler`).
///
/// `method_enter` / `method_exit` implement the instrumentation-based metrics;
/// `sample` is called every sampling quantum with the current call stack (top last);
/// `allocation` feeds the memory metric.
pub trait ProfilerSink: Send {
    /// A method frame was pushed.
    fn method_enter(&mut self, method: MethodId, clock_us: f64);
    /// A method frame was popped.
    fn method_exit(&mut self, method: MethodId, clock_us: f64);
    /// An object or array of `bytes` bytes was allocated (`class` is `None` for arrays).
    fn allocation(&mut self, class: Option<ClassId>, bytes: u64);
    /// A sampling tick fired; `stack` is the current call stack, innermost frame last.
    fn sample(&mut self, stack: &[MethodId]);
    /// Whether the expensive per-call instrumentation callbacks should be invoked.
    /// Sampling-only profilers return `false` to emulate "compiled in but not enabled".
    fn wants_instrumentation(&self) -> bool {
        true
    }
}

/// Errors raised during execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The program has no entry point.
    NoEntry,
    /// Dereferenced a null value.
    NullPointer(String),
    /// Integer division by zero.
    DivisionByZero,
    /// Array index out of range.
    IndexOutOfBounds {
        /// Offending index.
        index: i64,
        /// Array length.
        len: usize,
    },
    /// No such field on the receiver.
    UnknownField(String),
    /// No such method on the receiver class. Carries the interned method name
    /// (cloning an `Arc<str>` keeps the miss path allocation-free).
    UnknownMethod(Arc<str>),
    /// Call depth limit exceeded.
    StackOverflow,
    /// The operand stack was popped while empty (a verifier escape; never raised for
    /// programs that pass `verify_program`).
    StackUnderflow {
        /// Program counter of the faulting instruction.
        pc: u32,
        /// The method whose operand stack underflowed.
        method: MethodId,
    },
    /// A remote operation failed on the other node.
    RemoteFailure(String),
    /// A remote operation was attempted without a distributed runtime attached.
    NotDistributed,
    /// A packet was permanently lost in transit (fault-injection drop beyond its
    /// retry budget): the virtual-time delivery deadline fired and the computation
    /// waiting on the packet cannot complete.
    MessageTimeout {
        /// Sender rank of the lost packet.
        src: usize,
        /// Destination rank it never reached.
        dst: usize,
        /// Correlation id of the request it belonged to.
        request: u64,
    },
    /// A rank was killed by the fault plan while the computation depended on it.
    NodeDown {
        /// The dead rank.
        rank: usize,
    },
    /// The run quiesced with work outstanding and no recorded packet loss: a
    /// transport-level stall, carrying the diagnosis of its shape instead of
    /// tripping an external watchdog.
    Transport(TransportStall),
    /// A frame failed to decode (or failed the layout-fingerprint handshake):
    /// the typed wire error, surfaced instead of a wrong-slot dispatch.
    Wire(WireError),
    /// Anything else.
    Unsupported(String),
}

impl From<WireError> for ExecError {
    fn from(e: WireError) -> Self {
        ExecError::Wire(e)
    }
}

/// The shape of a transport stall: what the delivery-deadline diagnosis saw when it
/// declared the run stuck (which ranks still held undeliverable traffic, which
/// continuations were parked on which outstanding requests).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransportStall {
    /// Ranks whose sequence windows still buffered packets behind a gap.
    pub gapped: Vec<usize>,
    /// Parked continuations as `(rank, req_id)`: rank's computation is waiting on
    /// the response to `req_id`.
    pub parked: Vec<(usize, u64)>,
}

/// Maps a recorded packet loss to its typed execution error: a killed rank is
/// [`ExecError::NodeDown`], anything else a [`ExecError::MessageTimeout`].
pub fn loss_to_error(loss: LostPacket) -> ExecError {
    match loss.reason {
        LossReason::NodeDown(rank) => ExecError::NodeDown { rank },
        LossReason::Dropped => ExecError::MessageTimeout {
            src: loss.from,
            dst: loss.to,
            request: loss.req_id,
        },
    }
}

impl fmt::Display for TransportStall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transport stall")?;
        if !self.gapped.is_empty() {
            write!(f, "; sequence gaps on ranks {:?}", self.gapped)?;
        }
        if self.parked.is_empty() {
            write!(f, "; no parked continuations")?;
        } else {
            write!(f, "; parked continuations (rank, request):")?;
            for (rank, req) in &self.parked {
                write!(f, " ({rank}, #{req})")?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::NoEntry => write!(f, "program has no entry point"),
            ExecError::NullPointer(w) => write!(f, "null pointer: {w}"),
            ExecError::DivisionByZero => write!(f, "division by zero"),
            ExecError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            ExecError::UnknownField(n) => write!(f, "unknown field {n}"),
            ExecError::UnknownMethod(n) => write!(f, "unknown method {n}"),
            ExecError::StackOverflow => write!(f, "call depth limit exceeded"),
            ExecError::StackUnderflow { pc, method } => {
                write!(
                    f,
                    "operand stack underflow at pc {pc} in method #{}",
                    method.0
                )
            }
            ExecError::RemoteFailure(e) => write!(f, "remote failure: {e}"),
            ExecError::NotDistributed => write!(f, "remote access without a distributed runtime"),
            ExecError::MessageTimeout { src, dst, request } => write!(
                f,
                "message timeout: packet for request #{request} from rank {src} to rank {dst} \
                 was lost and never delivered"
            ),
            ExecError::NodeDown { rank } => write!(f, "node down: rank {rank} was killed"),
            ExecError::Transport(stall) => write!(f, "{stall}"),
            ExecError::Wire(e) => write!(f, "wire error: {e}"),
            ExecError::Unsupported(w) => write!(f, "unsupported operation: {w}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// One activation record of the explicit-stack machine: everything needed to resume
/// the method mid-flight. Frames live in a [`Continuation`]'s frame stack; their
/// locals/operand-stack vectors are recycled through the interpreter's frame pool.
#[derive(Debug)]
pub struct Frame {
    /// The executing method.
    pub method: MethodId,
    /// Resume program counter (index into the decoded op body).
    pub pc: u32,
    /// Whether the caller's invoke site expects a pushed result (derived from the
    /// static target's return type, like the recursive interpreter did).
    push_ret: bool,
    /// Whether profiler enter/exit hooks fire for this frame.
    instrumented: bool,
    /// Local variable slots.
    pub(crate) locals: Vec<Value>,
    /// Operand stack.
    stack: Vec<Value>,
}

/// What to do with the remote response when a parked continuation is resumed.
#[derive(Debug)]
pub(crate) enum ResumeAction {
    /// Push the unmarshalled response onto the top frame's operand stack.
    Push,
    /// Discard the response (void calls, field writes).
    Drop,
    /// Discard the response, then pop one operand: a fused `PutField; Pop`
    /// superinstruction parked on the field write mid-pattern, so the trailing
    /// `Pop` still owes its stack effect. `pop_pc` is the seed pc of that `Pop`
    /// (its underflow coordinate).
    DropThenPop {
        /// Seed pc of the collapsed `Pop`, for the underflow fault.
        pop_pc: u32,
    },
    /// `NEW` response: bind the remote identity into the proxy object's
    /// home/remoteId/className slots (when the proxy is a bindable local object).
    NewProxy {
        /// Heap index of the proxy, if it can be bound.
        proxy: Option<u32>,
        /// Class name recorded into the proxy (the rewriter's interned literal).
        class_name: Arc<str>,
    },
}

/// An in-flight computation as plain data: the explicit frame stack, the method call
/// stack mirroring it, and — when parked — what to do with the awaited response.
/// This is the continuation the worker loop keys by request id.
///
/// The call stack lives **here**, not on the interpreter: a node interleaving several
/// parked continuations carries each computation's exact stack with the computation
/// itself, so the sampling profiler observes correct per-computation stacks under
/// either schedule (an interpreter-global stack would mix frames of unrelated
/// continuations above the live prefix).
#[derive(Debug, Default)]
pub struct Continuation {
    frames: Vec<Frame>,
    /// `frames[i].method` for every live frame, maintained in lockstep with `frames`
    /// so a sampling tick can read the whole stack without walking the frames.
    call_stack: Vec<MethodId>,
    pending: Option<ResumeAction>,
}

impl Continuation {
    /// A computation whose bottom frame is `frame` (already live).
    pub(crate) fn root(frame: Frame) -> Self {
        Continuation {
            call_stack: vec![frame.method],
            frames: vec![frame],
            pending: None,
        }
    }

    /// Current call depth (number of live frames).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// This computation's exact method call stack, innermost frame last.
    pub fn call_stack(&self) -> &[MethodId] {
        &self.call_stack
    }
}

/// The result of driving a [`Continuation`] until it can run no further.
#[derive(Debug)]
pub enum TaskOutcome {
    /// The bottom frame returned (or the computation faulted).
    Done(Result<Value, ExecError>),
    /// A remote request was sent; the continuation is parked until the response for
    /// `req_id` is delivered (resume with [`Interp::resume_task`]).
    Parked {
        /// Correlation id of the outstanding request.
        req_id: u64,
    },
}

/// The bytecode interpreter for one node (or for a centralized run).
pub struct Interp<'p> {
    /// The program being executed (a per-node rewritten copy in distributed runs).
    pub program: &'p Program,
    /// The heap.
    pub heap: Vec<HeapObject>,
    /// Execution statistics.
    pub counters: ExecCounters,
    /// Virtual clock in microseconds.
    pub clock_us: f64,
    /// Relative CPU speed of this node (1.0 = the paper's 800 MHz node).
    pub speed: f64,
    /// Virtual microseconds charged per instruction at speed 1.0.
    pub instr_cost_us: f64,
    /// Optional profiler.
    pub profiler: Option<Box<dyn ProfilerSink>>,
    /// Sampling quantum in instructions (0 disables sampling).
    pub sample_interval: u64,
    /// Distributed runtime state (None for centralized execution).
    pub dist: Option<DistState<'p>>,
    /// The interning tables built at load time: field slots, static slots, vtables,
    /// and the pre-decoded op bodies. Shared by refcount so the dispatch loop can
    /// hold a borrow of the ops while the interpreter mutates its own state.
    pub(crate) layout: Arc<ProgramLayout>,
    /// Replicated static fields, indexed by the layout's global static slot.
    statics: Vec<Value>,
    /// Per-class default field vectors cloned on instantiation.
    class_defaults: Vec<Vec<Value>>,
    /// Number of live frames across **all** of this node's continuations (running and
    /// parked). This is the recursion guard: served frames stay live while their task
    /// is parked, so unbounded cross-node recursion shows up here exactly as it did on
    /// the native stack. The frame *contents* live in each [`Continuation`].
    pub(crate) live_frames: usize,
    instructions_since_sample: u64,
    pub(crate) max_depth: usize,
    pub(crate) dep_class: Option<ClassId>,
    /// (home, remoteId, className) slots of the proxy class, if present.
    pub(crate) proxy_slots: Option<(usize, usize, usize)>,
    /// Recycled (locals, operand stack) frame vectors, so method invocation does not
    /// allocate on the hot path.
    frame_pool: Vec<(Vec<Value>, Vec<Value>)>,
}

impl<'p> Interp<'p> {
    /// Creates an interpreter for a centralized run at speed 1.0. This runs the
    /// program-load-time resolution pass ([`ProgramLayout::build`]) with the default
    /// options (superinstruction fusion on), after which the interpret loop performs
    /// no string clone and no map probe per field or method access.
    pub fn new(program: &'p Program) -> Self {
        Self::new_with_options(program, LayoutOptions::default())
    }

    /// [`Self::new`] with explicit layout options — `fuse: false` yields the 1:1
    /// decoded stream (benches A/B the dispatch cost; the parity suite compares the
    /// two executions instruction for instruction).
    pub fn new_with_options(program: &'p Program, opts: LayoutOptions) -> Self {
        Self::with_layout(program, Arc::new(ProgramLayout::build_with(program, opts)))
    }

    /// Creates an interpreter over a **pre-built, shared** layout. The layout build
    /// (decoding, fusion, interning) is the expensive part of interpreter
    /// construction; the serving scheduler builds it once per placed program and
    /// every admitted request's interpreters share the `Arc`. `layout` must have
    /// been built from this `program`.
    pub fn with_layout(program: &'p Program, layout: Arc<ProgramLayout>) -> Self {
        let dep_class = program.class_by_name(DEPENDENT_OBJECT_CLASS);
        let mut class_defaults: Vec<Vec<Value>> = layout
            .classes
            .iter()
            .map(|c| c.slot_types.iter().map(default_value).collect())
            .collect();
        // Proxy identity fields must read as uninitialised (not Int 0) until the
        // remote `NEW` handshake fills them in.
        if let Some(dep) = dep_class {
            for v in &mut class_defaults[dep.0 as usize] {
                *v = Value::Null;
            }
        }
        let statics = layout.static_types.iter().map(default_value).collect();
        let proxy_slots = dep_class.and_then(|dep| {
            match (
                layout.slot_of_name(dep, "home"),
                layout.slot_of_name(dep, "remoteId"),
                layout.slot_of_name(dep, "className"),
            ) {
                (Some(h), Some(r), Some(c)) => Some((h as usize, r as usize, c as usize)),
                _ => None,
            }
        });
        Interp {
            program,
            heap: Vec::new(),
            counters: ExecCounters::default(),
            clock_us: 0.0,
            speed: 1.0,
            instr_cost_us: 0.02,
            profiler: None,
            sample_interval: 0,
            dist: None,
            layout,
            statics,
            class_defaults,
            live_frames: 0,
            instructions_since_sample: 0,
            max_depth: 100,
            dep_class,
            proxy_slots,
            frame_pool: Vec::new(),
        }
    }

    /// The interning tables backing this interpreter's field and dispatch resolution.
    pub fn layout(&self) -> &ProgramLayout {
        &self.layout
    }

    /// Sets the node speed factor.
    pub fn with_speed(mut self, speed: f64) -> Self {
        self.speed = speed;
        self
    }

    /// Attaches the distributed runtime state.
    pub fn with_dist(mut self, dist: DistState<'p>) -> Self {
        self.instr_cost_us = dist.endpoint.config.instr_cost_us;
        self.speed = dist.endpoint.config.speed_of(dist.endpoint.rank);
        self.dist = Some(dist);
        self
    }

    /// Attaches a profiler sink.
    pub fn with_profiler(mut self, sink: Box<dyn ProfilerSink>, sample_interval: u64) -> Self {
        self.profiler = Some(sink);
        self.sample_interval = sample_interval;
        self
    }

    /// Runs the program entry point.
    pub fn run_entry(&mut self) -> Result<Value, ExecError> {
        let entry = self.program.entry.ok_or(ExecError::NoEntry)?;
        self.invoke(entry, Vec::new())
    }

    /// Sampling-profiler tick, taken out of line so the interpret loop only pays a
    /// predictable branch when sampling is disabled. `stack` is the running
    /// continuation's own call stack — exact even when other continuations are parked
    /// on this node.
    #[cold]
    fn tick_sample(&mut self, stack: &[MethodId]) {
        self.instructions_since_sample += 1;
        if self.instructions_since_sample >= self.sample_interval {
            self.instructions_since_sample = 0;
            if let Some(p) = self.profiler.as_mut() {
                p.sample(stack);
            }
        }
    }

    fn alloc(&mut self, obj: HeapObject) -> ObjRef {
        let bytes = obj.size_bytes();
        let class = obj.class();
        self.counters.allocations += 1;
        self.counters.allocated_bytes += bytes;
        if let Some(p) = self.profiler.as_mut() {
            p.allocation(class, bytes);
        }
        self.heap.push(obj);
        ObjRef::Local((self.heap.len() - 1) as u32)
    }

    pub(crate) fn new_instance(&mut self, class: ClassId) -> ObjRef {
        // Slot vector pre-filled with Java-style default values (computed once per
        // class at load time).
        let fields = self.class_defaults[class.0 as usize].clone();
        self.alloc(HeapObject::Object { class, fields })
    }

    /// Invokes `method` with `args` (receiver first for instance methods), driving the
    /// explicit-stack machine to completion on the current thread (centralized
    /// execution). A distributed node uses [`Self::task_for`] + [`Self::run_task`]
    /// instead: its remote operations park, which this entry point cannot honour.
    pub fn invoke(&mut self, method: MethodId, args: Vec<Value>) -> Result<Value, ExecError> {
        if self.live_frames >= self.max_depth {
            return Err(ExecError::StackOverflow);
        }
        let Some(mut task) = self.task_for(method, args) else {
            // Abstract / intrinsic methods that were not intercepted: behave as no-ops.
            return Ok(Value::Null);
        };
        match self.run_task(&mut task) {
            TaskOutcome::Done(r) => r,
            TaskOutcome::Parked { .. } => Err(ExecError::Unsupported(
                "computation suspended outside the worker loop".into(),
            )),
        }
    }

    /// Builds a runnable [`Continuation`] whose bottom frame is `method` applied to
    /// `args`. Returns `None` for empty (abstract/intrinsic) bodies, which complete
    /// immediately with `null` and consume no frame.
    pub fn task_for(&mut self, method: MethodId, args: Vec<Value>) -> Option<Continuation> {
        if self.layout.ops(method).ops.is_empty() {
            return None;
        }
        let mut frame = self.frame_for(method, true, args.len());
        for (slot, a) in frame.locals.iter_mut().zip(args) {
            *slot = a;
        }
        self.enter_frame(&mut frame);
        Some(Continuation::root(frame))
    }

    /// A pooled activation frame for `method`, its locals nulled and sized for
    /// `nargs` arguments. Not live yet: the caller moves the arguments into the
    /// locals — the one place the callee ever holds them — and then
    /// [`Self::enter_frame`]s it, so a frame whose arguments fail to arrive (a
    /// corrupt value off the wire) is recycled without ever having been counted.
    #[inline(always)]
    pub(crate) fn frame_for(&mut self, method: MethodId, push_ret: bool, nargs: usize) -> Frame {
        let (mut locals, stack) = self.frame_pool.pop().unwrap_or_default();
        let slots = (self.layout.ops(method).locals as usize).max(nargs) + 4;
        locals.resize(slots, Value::Null);
        Frame {
            method,
            pc: 0,
            push_ret,
            instrumented: false,
            locals,
            stack,
        }
    }

    /// Makes a filled frame live: invocation and live-frame counts, profiler enter
    /// (when the profiler is attached the caller must have flushed the virtual clock
    /// first). The caller pushes it, plus its method on the owning continuation's
    /// call stack.
    #[inline(always)]
    pub(crate) fn enter_frame(&mut self, frame: &mut Frame) {
        self.counters.method_invocations += 1;
        self.live_frames += 1;
        frame.instrumented = self
            .profiler
            .as_ref()
            .map(|p| p.wants_instrumentation())
            .unwrap_or(false);
        if frame.instrumented {
            let clock = self.clock_us;
            if let Some(p) = self.profiler.as_mut() {
                p.method_enter(frame.method, clock);
            }
        }
    }

    /// Frame teardown: profiler exit (the clock must be flushed) and live-frame count
    /// decrement. The owning continuation's call stack is popped by the caller, in
    /// lockstep with the frame itself.
    fn retire_frame(&mut self, frame: &Frame) {
        if frame.instrumented {
            let clock = self.clock_us;
            if let Some(p) = self.profiler.as_mut() {
                p.method_exit(frame.method, clock);
            }
        }
        self.live_frames -= 1;
    }

    /// Returns a frame's vectors to the pool.
    pub(crate) fn recycle_frame(&mut self, mut frame: Frame) {
        if self.frame_pool.len() < 128 {
            frame.locals.clear();
            frame.stack.clear();
            self.frame_pool.push((frame.locals, frame.stack));
        }
    }

    /// Pops every live frame (firing profiler exits, exactly like the recursive
    /// interpreter did while an error propagated) and returns the error.
    fn unwind_frames(&mut self, task: &mut Continuation, e: ExecError) -> ExecError {
        self.unwind_parts(&mut task.frames, &mut task.call_stack, e)
    }

    /// [`Self::unwind_frames`] over a continuation's already-split fields (the dispatch
    /// loop holds the frame stack and call stack as separate borrows).
    fn unwind_parts(
        &mut self,
        frames: &mut Vec<Frame>,
        call_stack: &mut Vec<MethodId>,
        e: ExecError,
    ) -> ExecError {
        while let Some(f) = frames.pop() {
            self.retire_frame(&f);
            self.recycle_frame(f);
        }
        call_stack.clear();
        e
    }

    /// Resumes a parked continuation with the response frame of its outstanding
    /// request — decoded here, its one value going straight where the resume action
    /// wants it — and drives it onward.
    pub fn resume_task(&mut self, task: &mut Continuation, response: Bytes) -> TaskOutcome {
        let action = task
            .pending
            .take()
            .expect("resumed continuation has no pending request");
        let v = match self.decode_response(response) {
            Ok(v) => v,
            Err(e) => {
                let e = self.unwind_frames(task, e);
                return TaskOutcome::Done(Err(e));
            }
        };
        match action {
            ResumeAction::Push => {
                task.frames
                    .last_mut()
                    .expect("parked continuation has a frame")
                    .stack
                    .push(v);
            }
            ResumeAction::Drop => {}
            ResumeAction::DropThenPop { pop_pc } => {
                // The collapsed trailing Pop would have been its own dispatch in the
                // unfused stream, executed after the response arrived: charge it
                // identically before applying its stack effect.
                self.counters.instructions += 1;
                self.counters.dispatches += 1;
                self.clock_us += self.instr_cost_us / self.speed;
                if self.sample_interval > 0 {
                    let stack = std::mem::take(&mut task.call_stack);
                    self.tick_sample(&stack);
                    task.call_stack = stack;
                }
                let frame = task
                    .frames
                    .last_mut()
                    .expect("parked continuation has a frame");
                let method = frame.method;
                if frame.stack.pop().is_none() {
                    let e =
                        self.unwind_frames(task, ExecError::StackUnderflow { pc: pop_pc, method });
                    return TaskOutcome::Done(Err(e));
                }
            }
            ResumeAction::NewProxy { proxy, class_name } => match v {
                Value::Ref(ObjRef::Remote { node, id }) => {
                    if let Some(h) = proxy {
                        self.bind_proxy(h, node, id, class_name);
                    }
                }
                Value::Ref(ObjRef::Local(_)) => {}
                other => {
                    let e = self.unwind_frames(
                        task,
                        ExecError::RemoteFailure(format!("NEW returned a non-reference {other:?}")),
                    );
                    return TaskOutcome::Done(Err(e));
                }
            },
        }
        self.run_task(task)
    }

    /// The dispatch loop of the explicit-stack machine: drives `task` until its bottom
    /// frame returns, it faults, or it parks on a remote request. All local calls
    /// push frames onto the continuation — the Rust stack stays flat — so an
    /// in-flight computation is always resumable plain data.
    pub fn run_task(&mut self, task: &mut Continuation) -> TaskOutcome {
        // Split the continuation into its fields so the sampler can read the call
        // stack while a frame is mutably borrowed (the two are disjoint).
        let Continuation {
            frames,
            call_stack,
            pending,
        } = task;
        debug_assert!(pending.is_none(), "running a parked continuation");
        let layout = Arc::clone(&self.layout);
        // Hoisted out of the loop: the per-instruction virtual-time increment (node
        // speed and instruction cost never change mid-run) and the sampling flag.
        let unit_cost = self.instr_cost_us / self.speed;
        let sampling = self.sample_interval > 0;
        // The virtual clock and instruction count are accumulated in locals
        // (registers) and flushed back to `self` at every exit and around every call
        // that can observe them (remote sends, the profiler).
        let mut clock = self.clock_us;
        let mut executed: u64 = 0;
        let mut dispatched: u64 = 0;

        // Flushes the register accumulators into `self` (required before any call
        // that can observe the clock or instruction count, and at every exit).
        macro_rules! flush {
            () => {{
                self.clock_us = clock;
                self.counters.instructions += executed;
                self.counters.dispatches += dispatched;
                #[allow(unused_assignments)]
                {
                    executed = 0;
                    dispatched = 0;
                }
            }};
        }

        /// Control transfer out of the current activation.
        enum Transfer {
            /// Push the callee frame and continue there.
            Call(Frame),
            /// The current frame returned this value.
            Finish(Value),
            /// Park the continuation on request `.0`, resuming with `.1`.
            Park(u64, ResumeAction),
            /// The computation faulted.
            Fail(ExecError),
        }

        loop {
            let transfer = {
                let Some(frame) = frames.last_mut() else {
                    flush!();
                    return TaskOutcome::Done(Ok(Value::Null));
                };
                let method = frame.method;
                let mops = &layout.method_ops[method.0 as usize];
                let ops: &[Op] = &mops.ops;
                // Fused pc → seed pc (empty = identity). Fault coordinates always
                // report seed pcs, so diagnostics are stable under fusion.
                let src_pc: &[u32] = &mops.src_pc;
                let mut pc = frame.pc as usize;

                macro_rules! fail {
                    ($e:expr) => {
                        break Transfer::Fail($e)
                    };
                }
                // Seed-bytecode pc of the op at fused pc `$pc`.
                macro_rules! seed_pc {
                    ($pc:expr) => {
                        match src_pc.get($pc) {
                            Some(&s) => s,
                            None => $pc as u32,
                        }
                    };
                }
                // Pops with an underflow coordinate `$off` seed instructions into
                // the current op's collapsed window (0 for every 1:1 op).
                macro_rules! pop_at {
                    ($off:expr) => {
                        match frame.stack.pop() {
                            Some(v) => v,
                            None => {
                                break Transfer::Fail(ExecError::StackUnderflow {
                                    pc: seed_pc!(pc) + $off,
                                    method,
                                })
                            }
                        }
                    };
                }
                macro_rules! pop {
                    () => {
                        pop_at!(0)
                    };
                }
                // Charges `$extra` additional seed instructions for a
                // superinstruction (the loop header already charged the first).
                // Deliberately `$extra` *sequential* clock increments — not one
                // multiplied add — so the f64 clock is bit-identical to the unfused
                // execution, and one sampling tick per seed instruction so profiler
                // samples land on the same instruction boundaries.
                macro_rules! charge {
                    ($extra:expr) => {
                        for _ in 0..$extra {
                            executed += 1;
                            clock += unit_cost;
                            if sampling {
                                self.tick_sample(call_stack);
                            }
                        }
                    };
                }
                // Reads local `$n` like the seed `Load` does: out-of-range slots
                // read as null (the seed op resizes, but a longer locals vector is
                // not observable — every accessor handles short vectors).
                macro_rules! local {
                    ($n:expr) => {
                        match frame.locals.get($n as usize) {
                            Some(v) => v.clone(),
                            None => Value::Null,
                        }
                    };
                }
                // Writes local `$n` like the seed `Store` does.
                macro_rules! store {
                    ($n:expr, $v:expr) => {{
                        let idx = $n as usize;
                        if idx >= frame.locals.len() {
                            frame.locals.resize(idx + 1, Value::Null);
                        }
                        frame.locals[idx] = $v;
                    }};
                }
                // Runs a `self`-helper that can fault (arithmetic, the local
                // accesses the fast paths skipped); none of them observes the clock.
                macro_rules! call {
                    ($e:expr) => {
                        match $e {
                            Ok(v) => v,
                            Err(e) => break Transfer::Fail(e),
                        }
                    };
                }
                // `Bin` and its fused forms: integer arithmetic stays inside the
                // loop, everything else (floats, string concatenation, coercions)
                // goes through `binop`.
                macro_rules! arith {
                    ($op:expr, $lhs:expr, $rhs:expr) => {{
                        let (lhs, rhs) = ($lhs, $rhs);
                        if let (Value::Int(a), Value::Int(b)) = (&lhs, &rhs) {
                            match int_bin($op, *a, *b) {
                                Ok(r) => Value::Int(r),
                                Err(e) => fail!(e),
                            }
                        } else {
                            call!(self.binop($op, lhs, rhs))
                        }
                    }};
                }
                // Branches to `$target` when `$taken`.
                macro_rules! branch_if {
                    ($taken:expr, $target:expr) => {
                        if $taken {
                            pc = *$target as usize;
                            continue;
                        }
                    };
                }
                // Sends a remote request and parks the continuation: the frame
                // resumes at the next instruction.
                macro_rules! park {
                    ($send:expr, $action:expr) => {{
                        flush!();
                        match $send {
                            Ok(req_id) => {
                                frame.pc = (pc + 1) as u32;
                                break Transfer::Park(req_id, $action);
                            }
                            Err(e) => break Transfer::Fail(e),
                        }
                    }};
                }
                // An array access whose array lives on another node: the index (and
                // the stored value) go out as the request's arguments.
                macro_rules! remote_element {
                    ($arr:expr, $idx:expr, $kind:expr, [$($val:expr)?], $action:expr) => {
                        if let Value::Ref(r @ ObjRef::Remote { .. }) = $arr {
                            let Some(i) = $idx.as_int() else {
                                fail!(ExecError::Unsupported("array index not an int".into()))
                            };
                            park!(
                                self.remote_access(r, $kind, None, &[Value::Int(i) $(, $val)?]),
                                $action
                            );
                        }
                    };
                }
                // `GetField` on `$obj` (popped, or read straight from a local by the
                // fused `LoadFieldGet`).
                macro_rules! get_field {
                    ($obj:expr, $slot:expr, $fr:expr) => {{
                        let obj = $obj;
                        // Fast path: local non-proxy object — one pre-resolved slot
                        // index, no call.
                        if let Value::Ref(ObjRef::Local(h)) = &obj {
                            if let HeapObject::Object { class, fields } = &self.heap[*h as usize] {
                                if Some(*class) != self.dep_class {
                                    frame.stack.push(
                                        fields.get(*$slot as usize).cloned().unwrap_or(Value::Null),
                                    );
                                    pc += 1;
                                    continue;
                                }
                            }
                        }
                        if let Some(target) = call!(self.remote_field_target(&obj, *$fr)) {
                            park!(
                                self.remote_access(target, AccessKind::GetField, Some(*$fr), &[]),
                                ResumeAction::Push
                            );
                        }
                        let v = call!(self.get_field(obj, *$fr));
                        frame.stack.push(v);
                    }};
                }
                // `PutField`, and with `$pop` the fused `PutFieldPop`: every PutField
                // fault (underflow, null receiver) fires with only the PutField's own
                // charge; the collapsed trailing Pop is charged right before its own
                // stack effect (underflow coordinate = seed pc + 1).
                macro_rules! put_field {
                    ($slot:expr, $fr:expr, $pop:literal) => {{
                        let val = pop!();
                        let obj = pop!();
                        // Fast path: local non-proxy object.
                        if let Value::Ref(ObjRef::Local(h)) = &obj {
                            if let HeapObject::Object { class, fields } =
                                &mut self.heap[*h as usize]
                            {
                                if Some(*class) != self.dep_class {
                                    if let Some(cell) = fields.get_mut(*$slot as usize) {
                                        *cell = val;
                                    }
                                    if $pop {
                                        charge!(1);
                                        let _ = pop_at!(1);
                                    }
                                    pc += 1;
                                    continue;
                                }
                            }
                        }
                        if let Some(target) = call!(self.remote_field_target(&obj, *$fr)) {
                            // A fused write parks mid-pattern: the resume action owes
                            // the trailing Pop (and its underflow fault) after
                            // dropping the reply.
                            park!(
                                self.remote_access(
                                    target,
                                    AccessKind::PutField,
                                    Some(*$fr),
                                    &[val]
                                ),
                                if $pop {
                                    ResumeAction::DropThenPop {
                                        pop_pc: seed_pc!(pc) + 1,
                                    }
                                } else {
                                    ResumeAction::Drop
                                }
                            );
                        }
                        call!(self.put_field(obj, *$fr, val));
                        if $pop {
                            charge!(1);
                            let _ = pop_at!(1);
                        }
                    }};
                }

                loop {
                    if pc >= ops.len() {
                        break Transfer::Finish(Value::Null);
                    }
                    dispatched += 1;
                    executed += 1;
                    clock += unit_cost;
                    if sampling {
                        self.tick_sample(call_stack);
                    }
                    match &ops[pc] {
                        Op::ConstInt(v) => frame.stack.push(Value::Int(*v)),
                        Op::ConstFloat(v) => frame.stack.push(Value::Float(*v)),
                        Op::ConstBool(v) => frame.stack.push(Value::Bool(*v)),
                        Op::ConstNull => frame.stack.push(Value::Null),
                        Op::ConstStr(i) => frame
                            .stack
                            .push(Value::Str(layout.const_strs[*i as usize].clone())),
                        Op::Load(n) => {
                            let idx = *n as usize;
                            if idx >= frame.locals.len() {
                                frame.locals.resize(idx + 1, Value::Null);
                            }
                            frame.stack.push(frame.locals[idx].clone());
                        }
                        Op::Store(n) => store!(*n, pop!()),
                        Op::Dup => match frame.stack.last().cloned() {
                            Some(v) => frame.stack.push(v),
                            None => fail!(ExecError::StackUnderflow {
                                pc: seed_pc!(pc),
                                method,
                            }),
                        },
                        Op::Pop => {
                            pop!();
                        }
                        Op::Swap => {
                            let len = frame.stack.len();
                            if len < 2 {
                                fail!(ExecError::StackUnderflow {
                                    pc: seed_pc!(pc),
                                    method,
                                });
                            }
                            frame.stack.swap(len - 1, len - 2);
                        }
                        Op::Bin(op) => {
                            let rhs = pop!();
                            let lhs = pop!();
                            frame.stack.push(arith!(*op, lhs, rhs));
                        }
                        Op::Un(op) => {
                            let v = pop!();
                            frame.stack.push(call!(self.unop(*op, v)));
                        }
                        Op::IfCmp(op, target) => {
                            let rhs = pop!();
                            let lhs = pop!();
                            branch_if!(holds(*op, &lhs, &rhs), target);
                        }
                        Op::If(op, target) => {
                            let taken = match pop!() {
                                Value::Null => matches!(op, CmpOp::Eq | CmpOp::Le | CmpOp::Ge),
                                Value::Ref(_) => matches!(op, CmpOp::Ne),
                                other => {
                                    let i = other.as_int().unwrap_or(0);
                                    op.eval_ord(i.cmp(&0))
                                }
                            };
                            branch_if!(taken, target);
                        }
                        Op::Goto(target) => {
                            pc = *target as usize;
                            continue;
                        }
                        Op::New(class) => {
                            let r = self.new_instance(*class);
                            frame.stack.push(Value::Ref(r));
                        }
                        Op::NewArray(init) => {
                            let len = match pop!().as_int() {
                                Some(v) => v,
                                None => {
                                    fail!(ExecError::Unsupported("array length not an int".into()))
                                }
                            };
                            if len < 0 {
                                fail!(ExecError::IndexOutOfBounds { index: len, len: 0 });
                            }
                            // Java-style zero initialisation (pre-decoded per type).
                            let default = match init {
                                ArrayInit::Int => Value::Int(0),
                                ArrayInit::Float => Value::Float(0.0),
                                ArrayInit::Bool => Value::Bool(false),
                                ArrayInit::Null => Value::Null,
                            };
                            let r = self.alloc(HeapObject::Array {
                                data: vec![default; len as usize],
                            });
                            frame.stack.push(Value::Ref(r));
                        }
                        Op::ArrayLoad => {
                            let idx = pop!();
                            let arr = pop!();
                            // Fast path: local array, integer index.
                            if let (Value::Ref(ObjRef::Local(h)), Value::Int(i)) = (&arr, &idx) {
                                if let HeapObject::Array { data } = &self.heap[*h as usize] {
                                    match data.get(*i as usize) {
                                        Some(v) => {
                                            frame.stack.push(v.clone());
                                            pc += 1;
                                            continue;
                                        }
                                        None => fail!(ExecError::IndexOutOfBounds {
                                            index: *i,
                                            len: data.len(),
                                        }),
                                    }
                                }
                            }
                            remote_element!(
                                arr,
                                idx,
                                AccessKind::GetElement,
                                [],
                                ResumeAction::Push
                            );
                            let v = call!(self.array_load(arr, idx));
                            frame.stack.push(v);
                        }
                        Op::ArrayStore => {
                            let val = pop!();
                            let idx = pop!();
                            let arr = pop!();
                            // Fast path: local array, integer index.
                            if let (Value::Ref(ObjRef::Local(h)), Value::Int(i)) = (&arr, &idx) {
                                if let HeapObject::Array { data } = &mut self.heap[*h as usize] {
                                    let len = data.len();
                                    match data.get_mut(*i as usize) {
                                        Some(cell) => {
                                            *cell = val;
                                            pc += 1;
                                            continue;
                                        }
                                        None => {
                                            fail!(ExecError::IndexOutOfBounds { index: *i, len })
                                        }
                                    }
                                }
                            }
                            remote_element!(
                                arr,
                                idx,
                                AccessKind::PutElement,
                                [val],
                                ResumeAction::Drop
                            );
                            call!(self.array_store(arr, idx, val));
                        }
                        Op::ArrayLength => {
                            let arr = pop!();
                            if let Value::Ref(r @ ObjRef::Remote { .. }) = arr {
                                park!(
                                    self.remote_access(r, AccessKind::ArrayLength, None, &[]),
                                    ResumeAction::Push
                                );
                            }
                            let v = call!(self.array_length(arr));
                            frame.stack.push(v);
                        }
                        Op::GetField { slot, fr } => get_field!(pop!(), slot, fr),
                        Op::PutField { slot, fr } => put_field!(slot, fr, false),
                        Op::GetStatic(slot) => {
                            frame.stack.push(if *slot != NO_SLOT {
                                self.statics[*slot as usize].clone()
                            } else {
                                Value::Null
                            });
                        }
                        Op::PutStatic(slot) => {
                            let val = pop!();
                            if *slot != NO_SLOT {
                                self.statics[*slot as usize] = val;
                            }
                        }
                        Op::Invoke {
                            kind,
                            target,
                            sel,
                            nargs,
                            push_ret,
                        } => {
                            let nargs = *nargs as usize;
                            if frame.stack.len() < nargs {
                                fail!(ExecError::StackUnderflow {
                                    pc: seed_pc!(pc),
                                    method,
                                });
                            }
                            let base = frame.stack.len() - nargs;
                            // Hot path resolution: static calls, and virtual/special
                            // calls on ordinary local receivers.
                            let mut resolved: Option<MethodId> = None;
                            if *kind == InvokeKind::Static {
                                resolved = Some(*target);
                            } else if let Value::Ref(ObjRef::Local(h)) = &frame.stack[base] {
                                let callee_class = layout.method_class(*target);
                                if Some(callee_class) != self.dep_class {
                                    if let Some(c) = self.heap[*h as usize].class() {
                                        if Some(c) != self.dep_class {
                                            resolved = Some(match kind {
                                                InvokeKind::Special => *target,
                                                _ => match layout.resolve_selector(c, *sel) {
                                                    Some(m) => m,
                                                    None => fail!(ExecError::UnknownMethod(
                                                        layout.method_name(*target).clone(),
                                                    )),
                                                },
                                            });
                                        }
                                    }
                                }
                            }
                            if let Some(callee) = resolved {
                                if self.live_frames >= self.max_depth {
                                    frame.stack.truncate(base);
                                    fail!(ExecError::StackOverflow);
                                }
                                if layout.method_ops[callee.0 as usize].ops.is_empty() {
                                    frame.stack.truncate(base);
                                    if *push_ret {
                                        frame.stack.push(Value::Null);
                                    }
                                } else {
                                    if self.profiler.is_some() {
                                        flush!();
                                    }
                                    // The arguments move from the operand stack
                                    // straight into the callee's locals.
                                    let mut f = self.frame_for(callee, *push_ret, nargs);
                                    for (slot, a) in
                                        f.locals.iter_mut().zip(frame.stack.drain(base..))
                                    {
                                        *slot = a;
                                    }
                                    self.enter_frame(&mut f);
                                    frame.pc = (pc + 1) as u32;
                                    break Transfer::Call(f);
                                }
                            } else {
                                // Proxies, remote receivers, the DependentObject
                                // protocol: the Message Exchange reads the operands
                                // where they lie and says how the machine proceeds.
                                flush!();
                                let slow =
                                    self.slow_invoke(&frame.stack[base..], *target, *push_ret);
                                frame.stack.truncate(base);
                                match call!(slow) {
                                    SlowInvoke::Park(req_id, action) => {
                                        frame.pc = (pc + 1) as u32;
                                        break Transfer::Park(req_id, action);
                                    }
                                    SlowInvoke::Call(f) => {
                                        frame.pc = (pc + 1) as u32;
                                        break Transfer::Call(f);
                                    }
                                    SlowInvoke::Nothing => {
                                        if *push_ret {
                                            frame.stack.push(Value::Null);
                                        }
                                    }
                                }
                            }
                        }
                        Op::Return => {
                            break Transfer::Finish(Value::Null);
                        }
                        Op::ReturnValue => {
                            let v = pop!();
                            break Transfer::Finish(v);
                        }

                        // --- Superinstructions. Grouped so the whole dispatch stays
                        // one jump table; each arm reads its operands straight from
                        // the locals, charges its full seed width up front
                        // (`charge!` = width − 1 extra ticks), and reproduces the
                        // seed sequence's faults at their seed coordinates.
                        Op::LoadLoadBin(a, b, op) => {
                            charge!(2);
                            frame.stack.push(arith!(*op, local!(*a), local!(*b)));
                        }
                        Op::LoadConstBin(n, k, op) => {
                            charge!(2);
                            frame.stack.push(arith!(*op, local!(*n), Value::Int(*k)));
                        }
                        Op::BinStore(op, n) => {
                            // The seed Bin carries every fault; the Store is only
                            // charged (and run) once the Bin succeeded, exactly like
                            // the unfused stream.
                            let rhs = pop!();
                            let lhs = pop!();
                            let v = arith!(*op, lhs, rhs);
                            charge!(1);
                            store!(*n, v);
                        }
                        Op::LoadIfCmp(op, n, target) => {
                            charge!(1);
                            // Seed order: the stack value is `lhs`, the loaded local
                            // the popped-last `rhs`. The pop is the seed IfCmp's
                            // (offset 1 into the window).
                            let lhs = pop_at!(1);
                            branch_if!(holds(*op, &lhs, &local!(*n)), target);
                        }
                        Op::IfCmpFused(op, a, b, target) => {
                            charge!(2);
                            branch_if!(holds(*op, &local!(*a), &local!(*b)), target);
                        }
                        Op::LoadConstIfCmp(op, n, k, target) => {
                            charge!(2);
                            branch_if!(holds(*op, &local!(*n), &Value::Int(*k)), target);
                        }
                        Op::IncLocal(n, k) => {
                            // Charge Load/Const/Bin up front (they precede the only
                            // fault point, the Bin); the Store is charged once the
                            // add succeeded.
                            charge!(2);
                            let idx = *n as usize;
                            if idx >= frame.locals.len() {
                                frame.locals.resize(idx + 1, Value::Null);
                            }
                            let v = if let Value::Int(x) = &frame.locals[idx] {
                                Value::Int(x.wrapping_add(*k))
                            } else {
                                let lhs = frame.locals[idx].clone();
                                call!(self.binop(BinOp::Add, lhs, Value::Int(*k)))
                            };
                            charge!(1);
                            frame.locals[idx] = v;
                        }
                        Op::LoadFieldGet { local, slot, fr } => {
                            charge!(1);
                            get_field!(local!(*local), slot, fr)
                        }
                        Op::PutFieldPop { slot, fr } => put_field!(slot, fr, true),
                    }
                    pc += 1;
                }
            };

            match transfer {
                Transfer::Call(f) => {
                    call_stack.push(f.method);
                    frames.push(f);
                }
                Transfer::Finish(v) => {
                    if self.profiler.is_some() {
                        flush!();
                    }
                    let done = frames.pop().expect("finished frame exists");
                    call_stack.pop();
                    self.retire_frame(&done);
                    let push = done.push_ret;
                    self.recycle_frame(done);
                    match frames.last_mut() {
                        Some(caller) => {
                            if push {
                                caller.stack.push(v);
                            }
                        }
                        None => {
                            flush!();
                            return TaskOutcome::Done(Ok(v));
                        }
                    }
                }
                Transfer::Park(req_id, action) => {
                    // The accumulators were flushed before the send; `self.clock_us`
                    // already includes the send overhead.
                    *pending = Some(action);
                    return TaskOutcome::Parked { req_id };
                }
                Transfer::Fail(e) => {
                    flush!();
                    let e = self.unwind_parts(frames, call_stack, e);
                    return TaskOutcome::Done(Err(e));
                }
            }
        }
    }

    fn binop(&self, op: BinOp, lhs: Value, rhs: Value) -> Result<Value, ExecError> {
        // String concatenation on Add keeps the Bank example's name handling working.
        if op == BinOp::Add {
            if let (Value::Str(a), Value::Str(b)) = (&lhs, &rhs) {
                return Ok(Value::str(&format!("{a}{b}")));
            }
        }
        if let (Value::Float(_), _) | (_, Value::Float(_)) = (&lhs, &rhs) {
            let a = lhs
                .as_float()
                .ok_or_else(|| ExecError::Unsupported("float op on non-number".into()))?;
            let b = rhs
                .as_float()
                .ok_or_else(|| ExecError::Unsupported("float op on non-number".into()))?;
            let r = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if b == 0.0 {
                        return Err(ExecError::DivisionByZero);
                    }
                    a / b
                }
                BinOp::Rem => a % b,
                _ => return Err(ExecError::Unsupported(format!("bitwise {op:?} on floats"))),
            };
            return Ok(Value::Float(r));
        }
        let a = lhs
            .as_int()
            .ok_or_else(|| ExecError::Unsupported(format!("{op:?} on non-number {lhs:?}")))?;
        let b = rhs
            .as_int()
            .ok_or_else(|| ExecError::Unsupported(format!("{op:?} on non-number {rhs:?}")))?;
        let r = match op {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    return Err(ExecError::DivisionByZero);
                }
                a.wrapping_div(b)
            }
            BinOp::Rem => {
                if b == 0 {
                    return Err(ExecError::DivisionByZero);
                }
                a.wrapping_rem(b)
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl(b as u32),
            BinOp::Shr => a.wrapping_shr(b as u32),
        };
        Ok(Value::Int(r))
    }

    fn unop(&self, op: UnOp, v: Value) -> Result<Value, ExecError> {
        Ok(match op {
            UnOp::Neg => match v {
                Value::Float(f) => Value::Float(-f),
                other => Value::Int(-other.as_int().unwrap_or(0)),
            },
            UnOp::Not => Value::Bool(!v.is_truthy()),
            UnOp::IntToFloat => Value::Float(v.as_float().unwrap_or(0.0)),
            UnOp::FloatToInt => Value::Int(v.as_int().unwrap_or(0)),
        })
    }

    // --- arrays -------------------------------------------------------------------

    pub(crate) fn array_load(&mut self, arr: Value, idx: Value) -> Result<Value, ExecError> {
        let i = idx
            .as_int()
            .ok_or_else(|| ExecError::Unsupported("array index not an int".into()))?;
        match arr {
            Value::Ref(ObjRef::Local(h)) => match &self.heap[h as usize] {
                HeapObject::Array { data } => {
                    data.get(i as usize)
                        .cloned()
                        .ok_or(ExecError::IndexOutOfBounds {
                            index: i,
                            len: self.array_len(h),
                        })
                }
                _ => Err(ExecError::Unsupported("array load on object".into())),
            },
            Value::Ref(ObjRef::Remote { .. }) => Err(ExecError::NotDistributed),
            Value::Null => Err(ExecError::NullPointer("array load".into())),
            _ => Err(ExecError::Unsupported("array load on non-reference".into())),
        }
    }

    fn array_len(&self, h: u32) -> usize {
        match &self.heap[h as usize] {
            HeapObject::Array { data } => data.len(),
            _ => 0,
        }
    }

    pub(crate) fn array_store(
        &mut self,
        arr: Value,
        idx: Value,
        val: Value,
    ) -> Result<(), ExecError> {
        let i = idx
            .as_int()
            .ok_or_else(|| ExecError::Unsupported("array index not an int".into()))?;
        match arr {
            Value::Ref(ObjRef::Local(h)) => {
                let len = self.array_len(h);
                match &mut self.heap[h as usize] {
                    HeapObject::Array { data } => {
                        if i < 0 || i as usize >= data.len() {
                            return Err(ExecError::IndexOutOfBounds { index: i, len });
                        }
                        data[i as usize] = val;
                        Ok(())
                    }
                    _ => Err(ExecError::Unsupported("array store on object".into())),
                }
            }
            Value::Ref(ObjRef::Remote { .. }) => Err(ExecError::NotDistributed),
            Value::Null => Err(ExecError::NullPointer("array store".into())),
            _ => Err(ExecError::Unsupported(
                "array store on non-reference".into(),
            )),
        }
    }

    pub(crate) fn array_length(&mut self, arr: Value) -> Result<Value, ExecError> {
        match arr {
            Value::Ref(ObjRef::Local(h)) => Ok(Value::Int(self.array_len(h) as i64)),
            Value::Ref(ObjRef::Remote { .. }) => Err(ExecError::NotDistributed),
            Value::Null => Err(ExecError::NullPointer("array length".into())),
            _ => Err(ExecError::Unsupported("length of non-reference".into())),
        }
    }

    // --- fields -------------------------------------------------------------------

    /// Reads an instance field through its pre-resolved slot: one array index, no
    /// string and no map probe. Remote references and forwarded proxies never get
    /// here — the dispatch loop parks them on the wire path
    /// ([`Self::remote_field_target`]).
    fn get_field(&mut self, obj: Value, fr: FieldRef) -> Result<Value, ExecError> {
        match obj {
            Value::Ref(ObjRef::Local(h)) => match &self.heap[h as usize] {
                HeapObject::Object { fields, .. } => Ok(self
                    .layout
                    .field_slot(fr)
                    .and_then(|slot| fields.get(slot as usize))
                    .cloned()
                    .unwrap_or(Value::Null)),
                _ => Err(ExecError::Unsupported("field read on array".into())),
            },
            Value::Ref(ObjRef::Remote { .. }) => Err(ExecError::NotDistributed),
            Value::Null => Err(ExecError::NullPointer(format!(
                "read of field {}",
                self.program.field(fr).name
            ))),
            _ => Err(ExecError::Unsupported("field read on non-reference".into())),
        }
    }

    /// Writes an instance field through its pre-resolved slot (see [`Self::get_field`]).
    fn put_field(&mut self, obj: Value, fr: FieldRef, val: Value) -> Result<(), ExecError> {
        match obj {
            Value::Ref(ObjRef::Local(h)) => match &mut self.heap[h as usize] {
                HeapObject::Object { fields, .. } => {
                    if let Some(cell) = self
                        .layout
                        .field_slot(fr)
                        .and_then(|slot| fields.get_mut(slot as usize))
                    {
                        *cell = val;
                    }
                    Ok(())
                }
                _ => Err(ExecError::Unsupported("field write on array".into())),
            },
            Value::Ref(ObjRef::Remote { .. }) => Err(ExecError::NotDistributed),
            Value::Null => Err(ExecError::NullPointer(format!(
                "write of field {}",
                self.program.field(fr).name
            ))),
            _ => Err(ExecError::Unsupported(
                "field write on non-reference".into(),
            )),
        }
    }

    /// A snapshot of all static fields (replicated per node), keyed `Class::field`.
    /// Used by tests and by the cluster driver to compare centralized and distributed
    /// final states.
    pub fn statics_snapshot(&self) -> BTreeMap<String, Value> {
        self.layout
            .static_names
            .iter()
            .cloned()
            .zip(self.statics.iter().cloned())
            .collect()
    }
}

/// The Java-style default value for a declared type (0, 0.0, false, null).
fn default_value(ty: &Type) -> Value {
    match ty {
        Type::Int => Value::Int(0),
        Type::Float => Value::Float(0.0),
        Type::Bool => Value::Bool(false),
        _ => Value::Null,
    }
}

/// Integer fast path of [`Op::Bin`] and the fused arithmetic superinstructions:
/// wrapping semantics, division faults. Kept `inline(always)` so every dispatch arm
/// folds it into straight-line code instead of a call.
#[inline(always)]
fn int_bin(op: BinOp, a: i64, b: i64) -> Result<i64, ExecError> {
    Ok(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return Err(ExecError::DivisionByZero);
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return Err(ExecError::DivisionByZero);
            }
            a.wrapping_rem(b)
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32),
        BinOp::Shr => a.wrapping_shr(b as u32),
    })
}

/// `IfCmp` and its fused forms: integer comparison without the coercions,
/// [`compare`] for everything else.
#[inline(always)]
fn holds(op: CmpOp, lhs: &Value, rhs: &Value) -> bool {
    if let (Value::Int(a), Value::Int(b)) = (lhs, rhs) {
        op.eval_ord(a.cmp(b))
    } else {
        compare(op, lhs, rhs)
    }
}

/// Evaluates a comparison between two values.
fn compare(op: CmpOp, lhs: &Value, rhs: &Value) -> bool {
    match (lhs, rhs) {
        (Value::Str(a), Value::Str(b)) => match op {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            _ => a.cmp(b).is_lt() == matches!(op, CmpOp::Lt | CmpOp::Le),
        },
        (Value::Null, Value::Null) => matches!(op, CmpOp::Eq | CmpOp::Le | CmpOp::Ge),
        (Value::Null, _) | (_, Value::Null) => matches!(op, CmpOp::Ne),
        (Value::Ref(a), Value::Ref(b)) => match op {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            _ => false,
        },
        _ => {
            if let (Some(a), Some(b)) = (lhs.as_float(), rhs.as_float()) {
                match a.partial_cmp(&b) {
                    Some(ord) => op.eval_ord(ord),
                    None => false,
                }
            } else {
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autodist_ir::frontend::compile_source;

    fn run(src: &str) -> (Value, ExecCounters) {
        let p = compile_source(src).expect("compiles");
        let mut interp = Interp::new(&p);
        let v = interp.run_entry().expect("runs");
        (v, interp.counters)
    }

    /// Programs return values by storing into a static field read back by tests; since
    /// `main` is void we instead expose a helper that runs a named static method.
    fn run_static(src: &str, class: &str, method: &str) -> Value {
        let p = compile_source(src).expect("compiles");
        let c = p.class_by_name(class).unwrap();
        let m = p.find_method(c, method).unwrap();
        let mut interp = Interp::new(&p);
        interp.invoke(m, vec![]).expect("runs")
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let src = r#"
            class Calc {
                static int compute() {
                    int total = 0;
                    int i = 1;
                    while (i <= 10) {
                        if (i % 2 == 0) { total = total + i; }
                        i = i + 1;
                    }
                    return total;
                }
                static void main() { int x = Calc.compute(); }
            }
        "#;
        assert_eq!(run_static(src, "Calc", "compute"), Value::Int(30));
    }

    #[test]
    fn objects_fields_and_virtual_dispatch() {
        let src = r#"
            class Shape { int area() { return 0; } }
            class Square extends Shape {
                int side;
                Square(int s) { this.side = s; }
                int area() { return this.side * this.side; }
            }
            class Main {
                static int run() {
                    Shape s = new Square(6);
                    return s.area();
                }
                static void main() { int x = Main.run(); }
            }
        "#;
        assert_eq!(run_static(src, "Main", "run"), Value::Int(36));
    }

    #[test]
    fn arrays_and_loops() {
        let src = r#"
            class A {
                static int sum() {
                    int[] xs = new int[20];
                    int i = 0;
                    while (i < xs.length) { xs[i] = i; i = i + 1; }
                    int t = 0;
                    i = 0;
                    while (i < xs.length) { t = t + xs[i]; i = i + 1; }
                    return t;
                }
                static void main() { int x = A.sum(); }
            }
        "#;
        assert_eq!(run_static(src, "A", "sum"), Value::Int(190));
    }

    #[test]
    fn recursion_works() {
        let src = r#"
            class F {
                static int fib(int n) {
                    if (n < 2) { return n; }
                    return F.fib(n - 1) + F.fib(n - 2);
                }
                static int fib10() { return F.fib(10); }
                static void main() { int x = F.fib(10); }
            }
        "#;
        assert_eq!(run_static(src, "F", "fib10"), Value::Int(55));
    }

    #[test]
    fn counters_accumulate() {
        let src = r#"
            class C {
                static void main() {
                    int i = 0;
                    while (i < 100) { i = i + 1; }
                }
            }
        "#;
        let (_, counters) = run(src);
        assert!(counters.instructions > 300);
        assert_eq!(counters.allocations, 0);
        assert!(counters.method_invocations >= 1);
    }

    #[test]
    fn virtual_clock_advances_with_speed() {
        let src = r#"
            class C { static void main() { int i = 0; while (i < 1000) { i = i + 1; } } }
        "#;
        let p = compile_source(src).unwrap();
        let mut slow = Interp::new(&p);
        slow.run_entry().unwrap();
        let mut fast = Interp::new(&p).with_speed(2.0);
        fast.run_entry().unwrap();
        assert!(slow.clock_us > fast.clock_us * 1.9);
        assert!(slow.clock_us > 0.0);
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let src = r#"
            class C {
                static int bad() { int x = 0; return 10 / x; }
                static void main() { int y = C.bad(); }
            }
        "#;
        let p = compile_source(src).unwrap();
        let mut interp = Interp::new(&p);
        assert_eq!(interp.run_entry(), Err(ExecError::DivisionByZero));
    }

    #[test]
    fn null_pointer_is_an_error() {
        let src = r#"
            class A { int x; }
            class C {
                static int bad() { A a = null; return a.x; }
                static void main() { int y = C.bad(); }
            }
        "#;
        let p = compile_source(src).unwrap();
        let mut interp = Interp::new(&p);
        assert!(matches!(interp.run_entry(), Err(ExecError::NullPointer(_))));
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let src = r#"
            class C {
                static void main() {
                    int[] xs = new int[3];
                    xs[5] = 1;
                }
            }
        "#;
        let p = compile_source(src).unwrap();
        let mut interp = Interp::new(&p);
        assert!(matches!(
            interp.run_entry(),
            Err(ExecError::IndexOutOfBounds { index: 5, len: 3 })
        ));
    }

    #[test]
    fn bank_example_runs_centralized() {
        let src = r#"
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
                static int run() {
                    Bank b = new Bank(10);
                    Account a = b.getCustomer(2);
                    a.setBalance(a.getSavings() - 900);
                    return b.getCustomer(2).getSavings();
                }
            }
            class Main { static void main() { int x = Bank.run(); } }
        "#;
        assert_eq!(run_static(src, "Bank", "run"), Value::Int(100));
        let (_, counters) = run(src);
        assert!(counters.allocations >= 12, "bank, array, 10 accounts");
        assert!(counters.allocated_bytes > 0);
    }

    #[test]
    fn string_concatenation_and_comparison() {
        let src = r#"
            class S {
                static boolean check() {
                    String a = "foo";
                    String b = a + "bar";
                    return b == "foobar";
                }
                static void main() { boolean x = S.check(); }
            }
        "#;
        assert_eq!(run_static(src, "S", "check"), Value::Bool(true));
    }

    /// The per-continuation call stack mirrors the frame stack exactly: one entry
    /// per live frame, bottom first — this is what the sampling profiler reads.
    #[test]
    fn continuation_carries_its_own_call_stack() {
        let src = r#"
            class C {
                static int leaf() { return 1; }
                static void main() { int x = C.leaf(); }
            }
        "#;
        let p = compile_source(src).unwrap();
        let mut interp = Interp::new(&p);
        let entry = p.entry.unwrap();
        let task = interp.task_for(entry, vec![]).expect("entry has a body");
        assert_eq!(task.depth(), 1);
        assert_eq!(task.call_stack(), &[entry], "bottom frame is the entry");
    }

    #[test]
    fn stack_overflow_is_detected() {
        let src = r#"
            class R {
                static int forever(int n) { return R.forever(n + 1); }
                static void main() { int x = R.forever(0); }
            }
        "#;
        let p = compile_source(src).unwrap();
        let mut interp = Interp::new(&p);
        assert_eq!(interp.run_entry(), Err(ExecError::StackOverflow));
    }

    #[test]
    fn field_slots_alias_shadowed_declarations() {
        // A subclass redeclaring a superclass field aliases the same storage, exactly
        // like the previous name-keyed heap did.
        let src = r#"
            class Base {
                int v;
                int baseGet() { return this.v; }
            }
            class Derived extends Base {
                int v;
                void set(int x) { this.v = x; }
            }
            class Main {
                static int run() {
                    Derived d = new Derived();
                    d.set(41);
                    return d.baseGet() + 1;
                }
                static void main() { int x = Main.run(); }
            }
        "#;
        assert_eq!(run_static(src, "Main", "run"), Value::Int(42));
    }

    #[test]
    fn statics_snapshot_uses_layout_names_and_defaults() {
        let src = r#"
            class Main {
                static int touched;
                static int untouched;
                static void main() { touched = 7; }
            }
        "#;
        let p = compile_source(src).unwrap();
        let mut interp = Interp::new(&p);
        interp.run_entry().unwrap();
        let snap = interp.statics_snapshot();
        assert_eq!(snap.get("Main::touched"), Some(&Value::Int(7)));
        assert_eq!(
            snap.get("Main::untouched"),
            Some(&Value::Int(0)),
            "untouched statics read as their typed default"
        );
    }

    #[test]
    fn interned_layout_resolves_fields_without_names() {
        let src = r#"
            class A { int x; float y; }
            class B extends A { boolean z; }
            class Main { static void main() { B b = new B(); b.x = 1; } }
        "#;
        let p = compile_source(src).unwrap();
        let interp = Interp::new(&p);
        let a = p.class_by_name("A").unwrap();
        let b = p.class_by_name("B").unwrap();
        let fx = p.resolve_field(b, "x").unwrap();
        assert_eq!(interp.layout().field_slot(fx), Some(0));
        assert_eq!(interp.layout().slot_count(a), 2);
        assert_eq!(interp.layout().slot_count(b), 3);
    }
}
