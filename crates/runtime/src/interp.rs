//! The bytecode interpreter.
//!
//! The paper executes its rewritten bytecode on a JVM ("it was easier to use normal JVM
//! since our current experiments are conducted on resource-rich x86 platforms"); this
//! interpreter plays that JVM's role. It executes the register form the layout
//! translates every method body to (operand-stack slots are frame registers), maintains
//! a virtual clock (instructions cost `instr_cost / node speed` microseconds, messages
//! cost latency + bytes/bandwidth) and exposes profiler hooks (Section 6). This file is
//! the *machine*: frames, continuations, the dispatch loop and the local field / array
//! / arithmetic helpers. Whatever leaves the node — operations on `rt/DependentObject`
//! proxies and remote references, turned into `NEW` / `DEPENDENCE` message exchanges
//! (Section 5) when a [`DistState`] is attached — is [`crate::exchange`]'s: the
//! dispatch loop hands it a slice of operands and gets back a request id to park on.
//!
//! An interpreter runs a [`autodist_ir::layout::ProgramLayout`] and holds nothing
//! else of its program: the layout owns the program it was built from and interns all
//! name resolution at load time — instance fields are flat slot-indexed vectors,
//! statics live in one dense replicated vector, and dynamic dispatch goes through
//! selector-indexed vtables. On top of those tables the layout **pre-decodes** every
//! method body into the compact register [`Op`] format (resolved slots, selectors,
//! argument counts, interned string constants, `u32` branch targets), so the dispatch loop
//! performs no string clone, no map probe and no signature lookup per instruction.
//! Nothing is borrowed, so an interpreter is plain owned data: per-request worlds
//! share layouts — and their `ClassDefaults` — by `Arc` and outlive whatever
//! placement they were admitted under.
//!
//! Values are [`Copy`] (see [`crate::value`]): a string is an id into this
//! interpreter's string table, whose low ids are the layout's literals, so
//! `Op::SetS` writes its operand and string `==` compares ids. Only orderings,
//! concatenation and error texts read a string's bytes ([`Interp::string`]).
//!
//! Execution itself runs on an **explicit frame stack** ([`Continuation`]): a single
//! dispatch loop ([`Interp::run_task`]) drives a `Vec` of [`Frame`]s (method, pc and
//! register file each) instead of recursing through Rust. An in-flight computation is
//! therefore plain data — when a node of a distributed run hits a remote operation,
//! the machine sends the request and *parks* the whole frame stack as a continuation
//! keyed by the request id ([`TaskOutcome::Parked`]); the worker loop
//! ([`crate::sched`]) resumes it when the response is delivered. There is no blocking
//! remote path: a node with a [`DistState`] always parks, and a node without one
//! fails remote operations with [`ExecError::NotDistributed`].
//!
//! The straight-line ops — moves, constants, `Goto`,
//! numeric arithmetic, integer compares, local array elements and fields of local
//! objects — run in a small **register kernel** (`run_kernel`) that the dispatch
//! loop enters at such an op. The kernel stops at the first op it cannot finish (a
//! call, a return, an allocation, a static, an operand off its fast paths) without
//! running it, and the machine runs that op with its full semantics. Each fast-path
//! rule is one helper both call, so the kernel is not a second interpreter: faults,
//! the virtual clock, counters and the profiler are the machine's alone.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::sync::Arc;

use autodist_codegen::rewrite::DEPENDENT_OBJECT_CLASS;
use autodist_ir::bytecode::{BinOp, CmpOp, Insn, InvokeKind, UnOp};
use autodist_ir::layout::{
    ArrayInit, Interner, LayoutOptions, MethodOps, Op, ProgramLayout, Rejected, NO_REG, NO_SLOT,
};
use autodist_ir::program::{ClassId, FieldRef, MethodId, Program, Type};

use bytes::Bytes;

use crate::exchange::{DistState, SlowInvoke};
use crate::net::{LossReason, LostPacket};
use crate::value::{HeapObject, ObjRef, StaticValue, Statics, StrId, Value};
use crate::wire::{AccessKind, WireError};

/// Execution statistics collected by the interpreter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Bytecode instructions executed. An op counts as the seed instructions it
    /// stands for ([`autodist_ir::layout::MethodOps::src_pc`]), so this is the same
    /// with [`LayoutOptions::fuse`] on and off.
    pub instructions: u64,
    /// Dispatch-loop iterations: every op counts **once**. The dynamic win of the
    /// folded form is `instructions / dispatches`; the two are equal in the 1:1
    /// form.
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
    /// The method's body was rejected when the layout was built (a stack
    /// discipline `verify_program` refuses, a branch past its end, too many
    /// registers): it faults on entry, having run nothing.
    Rejected(Rejected),
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
            ExecError::Rejected(r) => write!(f, "rejected body: {r}"),
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
/// the method mid-flight — the method, the pc and the register file. Frames live in a
/// [`Continuation`]'s frame stack; their register files are recycled through the
/// interpreter's frame pool.
#[derive(Debug)]
pub struct Frame {
    /// The executing method.
    pub method: MethodId,
    /// Resume program counter (index into the decoded op body).
    pub pc: u32,
    /// Whether profiler enter/exit hooks fire for this frame.
    instrumented: bool,
    /// Where a callee's result or a parked response lands: a register, or nowhere
    /// ([`NO_REG`]).
    ret_to: u16,
    /// The register file: the local variable slots, then one register per
    /// operand-stack slot ([`MethodOps::regs`] in all).
    pub(crate) locals: Vec<Value>,
}

impl Frame {
    /// Delivers a callee's result or a parked response to [`Self::ret_to`].
    fn deliver(&mut self, v: Value) {
        if self.ret_to != NO_REG {
            self.locals[self.ret_to as usize] = v;
        }
    }
}

/// What to do with the remote response when a parked continuation is resumed.
#[derive(Debug)]
pub(crate) enum ResumeAction {
    /// Deliver the unmarshalled response to the top frame's `ret_to` register
    /// (nowhere for a call that returns nothing).
    Deliver,
    /// Discard the response (field and element writes).
    Drop,
    /// `NEW` response: bind the remote identity into the proxy object's
    /// home/remoteId/className slots (when the proxy is a bindable local object).
    NewProxy {
        /// Heap index of the proxy, if it can be bound.
        proxy: Option<u32>,
        /// Class name recorded into the proxy (the rewriter's literal).
        class_name: StrId,
    },
}

/// An in-flight computation as plain data: the explicit frame stack, the method call
/// stack mirroring it, and — when parked — what to do with the awaited response.
/// This is the continuation the worker loop keys by request id.
///
/// The call stack lives **here**, not on the interpreter: a node interleaving several
/// parked continuations carries each computation's exact stack with the computation
/// itself, so the sampling profiler observes correct per-computation stacks (an
/// interpreter-global stack would mix frames of unrelated continuations above the
/// live prefix).
#[derive(Debug, Default)]
pub struct Continuation {
    frames: Vec<Frame>,
    /// `frames[i].method` for every live frame, maintained in lockstep with `frames`
    /// so a sampling tick can read the whole stack without walking the frames.
    call_stack: Vec<MethodId>,
    pending: Option<ResumeAction>,
}

impl Continuation {
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

/// What every interpreter of one layout starts from: each class's field vector
/// filled with Java-style defaults (the `DependentObject` proxy's identity fields
/// null, so they read as uninitialised until the remote `NEW` handshake fills them
/// in), and the statics. A pure function of the layout's shape, built once per
/// layout — a served app builds it beside each node's layout when it prepares — and
/// copied slice by slice into every object and interpreter.
#[derive(Debug)]
pub(crate) struct ClassDefaults {
    /// Every class's field vector end to end, in class order, then the statics.
    values: Vec<Value>,
    /// Where each class's fields start in `values`, then where the statics start
    /// and end: two entries more than classes.
    starts: Vec<usize>,
}

impl ClassDefaults {
    /// The defaults of `layout`'s classes and statics.
    pub(crate) fn of(layout: &ProgramLayout) -> Self {
        let dep_class = layout.program().class_by_name(DEPENDENT_OBJECT_CLASS);
        let fields: usize = layout.classes.iter().map(|c| c.slot_count()).sum();
        let mut values = Vec::with_capacity(fields + layout.static_types.len());
        let mut starts = Vec::with_capacity(layout.classes.len() + 2);
        for (c, class) in layout.classes.iter().enumerate() {
            starts.push(values.len());
            let proxy = dep_class.is_some_and(|dep| dep.0 as usize == c);
            values.extend(class.slot_types.iter().map(|ty| match proxy {
                true => Value::Null,
                false => default_value(ty),
            }));
        }
        starts.push(values.len());
        values.extend(layout.static_types.iter().map(default_value));
        starts.push(values.len());
        ClassDefaults { values, starts }
    }

    /// The default field vector of `class`.
    fn of_class(&self, class: ClassId) -> &[Value] {
        let c = class.0 as usize;
        &self.values[self.starts[c]..self.starts[c + 1]]
    }

    /// The default statics.
    fn statics(&self) -> &[Value] {
        let n = self.starts.len();
        &self.values[self.starts[n - 2]..]
    }
}

/// Upper bound on spent continuations kept per interpreter.
const TASK_POOL_CAP: usize = 32;

/// The bytecode interpreter for one node (or for a centralized run).
pub struct Interp {
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
    pub dist: Option<DistState>,
    /// The executable: the program (a per-node rewritten copy in distributed runs)
    /// with its load-time interning tables — field slots, static slots, vtables —
    /// and pre-decoded op bodies. Shared by refcount so the dispatch loop can hold a
    /// borrow of the ops while the interpreter mutates its own state.
    pub(crate) layout: Arc<ProgramLayout>,
    /// Replicated static fields, indexed by the layout's global static slot.
    statics: Vec<Value>,
    /// Per-class default field vectors copied on instantiation (shared per layout).
    defaults: Arc<ClassDefaults>,
    /// The strings this node built or received beyond its layout's literals: entry
    /// `i` has id `literals + i`. It grows with distinct strings, never with traffic,
    /// allocates nothing until the first one and is freed with the interpreter. Its
    /// keys arrive off the wire, so it keeps the standard keyed hasher (a string
    /// equal to a literal never gets here: the layout's literal map answers first).
    strings: Interner<RandomState>,
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
    /// Recycled register files, so method invocation does not allocate on the hot
    /// path.
    frame_pool: Vec<Vec<Value>>,
    /// Spent continuations, empty but keeping their vectors' capacity, so starting a
    /// task (a served request, above all) does not allocate either.
    task_pool: Vec<Continuation>,
}

impl Interp {
    /// Creates an interpreter for a centralized run at speed 1.0. This runs the
    /// program-load-time resolution pass ([`ProgramLayout::build`]) with the default
    /// options (the folded register form), after which the interpret loop performs
    /// no string clone and no map probe per field or method access.
    pub fn new(program: &Program) -> Self {
        Self::new_with_options(program, LayoutOptions::default())
    }

    /// [`Self::new`] with explicit layout options — `fuse: false` yields the 1:1
    /// register form, one op per seed instruction (the census A/Bs the dispatch
    /// cost; the parity suite compares the two executions instruction for
    /// instruction).
    pub fn new_with_options(program: &Program, opts: LayoutOptions) -> Self {
        Self::with_layout(Arc::new(ProgramLayout::build_with(program, opts)))
    }

    /// Creates an interpreter over a **pre-built, shared** layout, which carries the
    /// program it runs. The layout build (decoding, register translation, interning) is the
    /// expensive part of interpreter construction; the serving scheduler builds it
    /// once per placed program and every admitted request's interpreters share the
    /// `Arc`.
    pub fn with_layout(layout: Arc<ProgramLayout>) -> Self {
        let defaults = Arc::new(ClassDefaults::of(&layout));
        Self::with_defaults(layout, defaults)
    }

    /// [`Self::with_layout`] with the layout's [`ClassDefaults`] shared too, so
    /// creating the interpreter builds no per-class table.
    pub(crate) fn with_defaults(layout: Arc<ProgramLayout>, defaults: Arc<ClassDefaults>) -> Self {
        debug_assert_eq!(defaults.starts.len(), layout.classes.len() + 2);
        let dep_class = layout.program().class_by_name(DEPENDENT_OBJECT_CLASS);
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
            heap: Vec::new(),
            counters: ExecCounters::default(),
            clock_us: 0.0,
            speed: 1.0,
            instr_cost_us: 0.02,
            profiler: None,
            sample_interval: 0,
            dist: None,
            layout,
            statics: defaults.statics().to_vec(),
            defaults,
            strings: Interner::default(),
            live_frames: 0,
            instructions_since_sample: 0,
            max_depth: 100,
            dep_class,
            proxy_slots,
            frame_pool: Vec::new(),
            task_pool: Vec::new(),
        }
    }

    /// The executable this interpreter runs: the program and the interning tables
    /// backing its field and dispatch resolution.
    pub fn layout(&self) -> &ProgramLayout {
        &self.layout
    }

    /// The string value with content `s`: the literal's id if the layout has one
    /// equal to it, this interpreter's table entry otherwise (added if new). The
    /// value means something only to this interpreter.
    pub fn intern(&mut self, s: &str) -> Value {
        let literals = &self.layout.literals;
        let id = match literals.id_of(s) {
            Some(id) => id,
            None => literals.len() as u32 + self.strings.intern(s),
        };
        Value::Str(StrId(id))
    }

    /// The content of string `id`, an id of this interpreter's.
    pub fn string(&self, id: StrId) -> &str {
        let literals = &self.layout.literals;
        let id = id.0;
        literals
            .get(id)
            .or_else(|| self.strings.get(id - literals.len() as u32))
            .expect("an id of this interpreter's")
    }

    /// How many strings this interpreter interned beyond its layout's literals: the
    /// size of its string table.
    pub fn interned_strings(&self) -> usize {
        self.strings.len()
    }

    /// `v` as `Debug` showed it when values owned their strings: how error texts
    /// print a value (a remote error is charged at its encoded length).
    pub(crate) fn show(&self, v: Value) -> String {
        match v {
            Value::Str(id) => format!("Str({:?})", self.string(id)),
            other => format!("{other:?}"),
        }
    }

    /// The owned form of `v`, for what outlives this interpreter.
    fn detach(&self, v: Value) -> StaticValue {
        match v {
            Value::Int(i) => StaticValue::Int(i),
            Value::Float(f) => StaticValue::Float(f),
            Value::Bool(b) => StaticValue::Bool(b),
            Value::Str(id) => StaticValue::Str(self.string(id).into()),
            Value::Null => StaticValue::Null,
            Value::Ref(r) => StaticValue::Ref(r),
        }
    }

    /// Sets the node speed factor.
    pub fn with_speed(mut self, speed: f64) -> Self {
        self.speed = speed;
        self
    }

    /// Attaches the distributed runtime state.
    pub fn with_dist(mut self, dist: DistState) -> Self {
        self.instr_cost_us = dist.endpoint.instr_cost_us;
        self.speed = dist.endpoint.speed;
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
        let entry = self.layout.program().entry.ok_or(ExecError::NoEntry)?;
        self.invoke(entry, Vec::new())
    }

    /// Charges `seed` seed instructions run in `dispatched` dispatches: the
    /// counters, the virtual clock (`seed` additions of `instr_cost / speed`, in
    /// closed form — see [`advance_clock`]) and the sampling profiler. The
    /// instructions all ran on `stack`, the running continuation's own call stack —
    /// exact even when other continuations are parked on this node.
    #[inline]
    fn charge(&mut self, seed: u64, dispatched: u64, stack: &[MethodId]) {
        self.counters.instructions += seed;
        self.counters.dispatches += dispatched;
        self.clock_us = advance_clock(self.clock_us, self.instr_cost_us / self.speed, seed);
        if self.sample_interval > 0 {
            self.tick_samples(stack, seed);
        }
    }

    /// `n` sampling-profiler ticks on `stack`: a sample lands on every
    /// `sample_interval`-th instruction, counted across runs, calls and tasks.
    fn tick_samples(&mut self, stack: &[MethodId], n: u64) {
        // Ticks up to the next sample: what the interval still lacks, at least one.
        let first = self
            .sample_interval
            .saturating_sub(self.instructions_since_sample)
            .max(1);
        if n < first {
            self.instructions_since_sample += n;
            return;
        }
        let rest = n - first;
        self.instructions_since_sample = rest % self.sample_interval;
        if let Some(p) = self.profiler.as_mut() {
            for _ in 0..=rest / self.sample_interval {
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
        let fields = self.defaults.of_class(class).to_vec();
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
            TaskOutcome::Done(r) => {
                self.recycle_task(task);
                r
            }
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
        let mut frame = self.frame_for(method, args.len());
        frame.locals[..args.len()].copy_from_slice(&args);
        self.enter_frame(&mut frame);
        Some(self.root_task(frame))
    }

    /// A computation whose bottom frame is `frame` (already live), in a recycled
    /// continuation when one is spare.
    pub(crate) fn root_task(&mut self, frame: Frame) -> Continuation {
        let mut task = self.task_pool.pop().unwrap_or_default();
        task.call_stack.push(frame.method);
        task.frames.push(frame);
        task
    }

    /// Takes back a continuation that ran to completion ([`TaskOutcome::Done`]):
    /// its vectors serve the next task this interpreter starts. Dropping it instead
    /// is harmless; the next task then allocates its own.
    pub fn recycle_task(&mut self, mut task: Continuation) {
        debug_assert!(task.frames.is_empty(), "recycling a live continuation");
        if self.task_pool.len() < TASK_POOL_CAP {
            task.frames.clear();
            task.call_stack.clear();
            task.pending = None;
            self.task_pool.push(task);
        }
    }

    /// A pooled activation frame for `method`, its registers nulled and sized for
    /// `nargs` arguments at least. Not live yet: the caller moves the arguments into
    /// the locals — the one place the callee ever holds them — and then
    /// [`Self::enter_frame`]s it, so a frame whose arguments fail to arrive (a
    /// corrupt value off the wire) is recycled without ever having been counted.
    #[inline(always)]
    pub(crate) fn frame_for(&mut self, method: MethodId, nargs: usize) -> Frame {
        let mut locals = self.frame_pool.pop().unwrap_or_default();
        let slots = (self.layout.ops(method).regs as usize).max(nargs);
        locals.resize(slots, Value::Null);
        Frame {
            method,
            pc: 0,
            instrumented: false,
            ret_to: NO_REG,
            locals,
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

    /// Returns a frame's register file to the pool.
    pub(crate) fn recycle_frame(&mut self, mut frame: Frame) {
        if self.frame_pool.len() < 128 {
            frame.locals.clear();
            self.frame_pool.push(frame.locals);
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
            ResumeAction::Deliver => {
                task.frames
                    .last_mut()
                    .expect("parked continuation has a frame")
                    .deliver(v);
            }
            ResumeAction::Drop => {}
            ResumeAction::NewProxy { proxy, class_name } => match v {
                Value::Ref(ObjRef::Remote { node, id }) => {
                    if let Some(h) = proxy {
                        self.bind_proxy(h, node, id, class_name);
                    }
                }
                Value::Ref(ObjRef::Local(_)) => {}
                other => {
                    let e = ExecError::RemoteFailure(format!(
                        "NEW returned a non-reference {}",
                        self.show(other)
                    ));
                    let e = self.unwind_frames(task, e);
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
        // A dispatch charges nothing. The loop charges a *straight-line run* —
        // consecutive ops of one frame — as a whole: opening one at op `pc`
        // subtracts `(src_pc[pc], pc)` from these accumulators, closing it where
        // control leaves adds the same pair for its end, so closed runs leave their
        // seed instructions and dispatches behind and nothing else stays live. An op
        // takes effect at the last seed instruction of its window, so a run that
        // leaves at an op — a taken branch, a call, a return, a park, a fault — ends
        // at the next op's `src_pc`, and one that falls off the method at the seed
        // length. `flush!` settles the accumulators into `self` (counters, clock,
        // profiler ticks), with every run closed, before anything can observe them —
        // a send, a profiler hook — and at every exit. The register kernel
        // ([`run_kernel`]) works on the same two accumulators inside the open run:
        // it moves them only at a taken branch, through the `jump_run` that `jump!`
        // uses, and never flushes, so a run is charged the same whoever ran its ops.
        let mut executed: u64 = 0;
        let mut dispatched: u64 = 0;

        macro_rules! flush {
            () => {{
                self.charge(executed, dispatched, call_stack);
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
                // The seed-accounting table (one entry per op, then the seed
                // length): op `pc` stands for seed instructions
                // `src_pc[pc]..src_pc[pc + 1]`.
                let src_pc: &[u32] = &mops.src_pc;
                let mut pc = frame.pc as usize;

                // Opens a run at op `$pc` (wrapping: the accumulators only add up
                // once the run is closed).
                macro_rules! open {
                    ($pc:expr) => {{
                        executed = executed.wrapping_sub(u64::from(src_pc[$pc]));
                        dispatched = dispatched.wrapping_sub($pc as u64);
                    }};
                }
                // Closes the run before op `$pc`, after `$seed` seed instructions.
                macro_rules! close {
                    ($pc:expr, $seed:expr) => {{
                        executed = executed.wrapping_add(u64::from($seed));
                        dispatched = dispatched.wrapping_add($pc as u64);
                    }};
                }
                // Closes the run after the current op.
                macro_rules! close_op {
                    () => {
                        close!(pc + 1, src_pc[pc + 1])
                    };
                }
                open!(pc);
                // Faults at the current op: its whole window ran and is charged.
                macro_rules! fail {
                    ($e:expr) => {{
                        close_op!();
                        break Transfer::Fail($e);
                    }};
                }
                // Register `$r` of the frame.
                macro_rules! reg {
                    ($r:expr) => {
                        frame.locals[$r as usize]
                    };
                }
                // Runs a `self`-helper that can fault (arithmetic, the local
                // accesses the fast paths skipped); none of them observes the clock.
                macro_rules! call {
                    ($e:expr) => {
                        match $e {
                            Ok(v) => v,
                            Err(e) => fail!(e),
                        }
                    };
                }
                // Jumps to `$target` from the current op: the run closes here and
                // the next one opens at the target.
                macro_rules! jump {
                    ($target:expr) => {{
                        let target = *$target as usize;
                        jump_run(src_pc, pc, target, &mut executed, &mut dispatched);
                        pc = target;
                        continue;
                    }};
                }
                // Sends a remote request and parks the continuation: the frame
                // resumes at the next op.
                macro_rules! park {
                    ($send:expr, $action:expr) => {{
                        close_op!();
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

                // Where the register kernel last stopped: the op there has not
                // executed, so the machine runs it in full instead of re-entering.
                let mut stop = usize::MAX;
                // Runs the kernel from op `pc` to the first op it declines.
                macro_rules! kernel {
                    () => {{
                        pc = run_kernel(
                            mops,
                            &mut frame.locals,
                            &mut self.heap,
                            self.dep_class,
                            pc,
                            &mut executed,
                            &mut dispatched,
                        );
                        stop = pc;
                        continue;
                    }};
                }
                loop {
                    if pc >= ops.len() {
                        close!(pc, src_pc[pc]);
                        break Transfer::Finish(Value::Null);
                    }
                    match &ops[pc] {
                        // Straight-line ops run in the kernel. It always runs moves,
                        // constants and `RIf`; the ops below it may decline, and then
                        // the machine runs them at `stop`, on their general paths.
                        Op::Nop
                        | Op::Mov(..)
                        | Op::SetI(..)
                        | Op::SetF(..)
                        | Op::SetB(..)
                        | Op::SetS(..)
                        | Op::SetN(_)
                        | Op::RIf(..) => kernel!(),
                        Op::RBin(..)
                        | Op::RBinI(..)
                        | Op::RIfCmp(..)
                        | Op::RIfCmpI(..)
                        | Op::RArrayLoad(..)
                        | Op::RArrayStore(..)
                        | Op::RArrayLength(..)
                        | Op::RGetField(..)
                        | Op::RPutField(..)
                            if pc != stop =>
                        {
                            kernel!()
                        }
                        Op::Goto(target) => jump!(target),
                        // Ops the kernel declined or never runs: the general path.
                        Op::RBin(op, dst, a, b) => {
                            reg!(*dst) = call!(self.binop(*op, reg!(*a), reg!(*b)));
                        }
                        Op::RBinI(op, dst, a, k) => {
                            reg!(*dst) = call!(self.binop(*op, reg!(*a), Value::Int(*k)));
                        }
                        Op::RUn(op, dst, src) => {
                            reg!(*dst) = call!(self.unop(*op, reg!(*src)));
                        }
                        Op::RIfCmp(op, a, b, target) => {
                            if self.compare(*op, reg!(*a), reg!(*b)) {
                                jump!(target);
                            }
                        }
                        Op::RIfCmpI(op, a, k, target) => {
                            if self.compare(*op, reg!(*a), Value::Int(*k)) {
                                jump!(target);
                            }
                        }
                        Op::RNew(dst, class) => {
                            reg!(*dst) = Value::Ref(self.new_instance(*class));
                        }
                        Op::RNewArray(dst, len, init) => {
                            reg!(*dst) = call!(self.new_array(reg!(*len), *init));
                        }
                        Op::RArrayLoad(dst, arr, idx) => {
                            let (arr, idx) = (reg!(*arr), reg!(*idx));
                            frame.ret_to = *dst;
                            remote_element!(
                                arr,
                                idx,
                                AccessKind::GetElement,
                                [],
                                ResumeAction::Deliver
                            );
                            reg!(*dst) = call!(self.array_load(arr, idx));
                        }
                        Op::RArrayStore(arr, idx, val) => {
                            let (arr, idx, val) = (reg!(*arr), reg!(*idx), reg!(*val));
                            remote_element!(
                                arr,
                                idx,
                                AccessKind::PutElement,
                                [val],
                                ResumeAction::Drop
                            );
                            call!(self.array_store(arr, idx, val));
                        }
                        Op::RArrayLength(dst, arr) => {
                            let arr = reg!(*arr);
                            if let Value::Ref(r @ ObjRef::Remote { .. }) = arr {
                                frame.ret_to = *dst;
                                park!(
                                    self.remote_access(r, AccessKind::ArrayLength, None, &[]),
                                    ResumeAction::Deliver
                                );
                            }
                            reg!(*dst) = call!(self.array_length(arr));
                        }
                        Op::RGetField(dst, obj, _) => {
                            let obj = reg!(*obj);
                            let fr = self.seed_field(method, src_pc[pc + 1]);
                            if let Some(target) = call!(self.remote_field_target(&obj, fr)) {
                                frame.ret_to = *dst;
                                park!(
                                    self.remote_access(target, AccessKind::GetField, Some(fr), &[]),
                                    ResumeAction::Deliver
                                );
                            }
                            reg!(*dst) = call!(self.get_field(obj, fr));
                        }
                        Op::RPutField(obj, val, _) => {
                            let (obj, val) = (reg!(*obj), reg!(*val));
                            let fr = self.seed_field(method, src_pc[pc + 1]);
                            if let Some(target) = call!(self.remote_field_target(&obj, fr)) {
                                park!(
                                    self.remote_access(
                                        target,
                                        AccessKind::PutField,
                                        Some(fr),
                                        &[val]
                                    ),
                                    ResumeAction::Drop
                                );
                            }
                            call!(self.put_field(obj, fr, val));
                        }
                        Op::RGetStatic(dst, slot) => reg!(*dst) = self.get_static(*slot),
                        Op::RPutStatic(src, slot) => self.put_static(*slot, reg!(*src)),
                        Op::RInvoke {
                            kind,
                            dst,
                            args,
                            nargs,
                            target,
                            sel,
                        } => {
                            // The argument window is `r[lo..lo + nargs]`, receiver
                            // first; the result lands in `dst`, or nowhere.
                            let (kind, target) = (*kind, *target);
                            let (lo, nargs) = (*args as usize, *nargs as usize);
                            // Hot path resolution: static calls, and virtual/special
                            // calls on ordinary local receivers.
                            let mut resolved: Option<MethodId> = None;
                            if kind == InvokeKind::Static {
                                resolved = Some(target);
                            } else if let Value::Ref(ObjRef::Local(h)) = frame.locals[lo] {
                                let callee_class = layout.method_class(target);
                                if Some(callee_class) != self.dep_class {
                                    if let Some(c) = self.heap[h as usize].class() {
                                        if Some(c) != self.dep_class {
                                            resolved = Some(match kind {
                                                InvokeKind::Special => target,
                                                _ => match layout.resolve_selector(c, *sel) {
                                                    Some(m) => m,
                                                    None => fail!(ExecError::UnknownMethod(
                                                        layout.method_name(target).clone(),
                                                    )),
                                                },
                                            });
                                        }
                                    }
                                }
                            }
                            if let Some(callee) = resolved {
                                if self.live_frames >= self.max_depth {
                                    fail!(ExecError::StackOverflow);
                                }
                                if layout.method_ops[callee.0 as usize].ops.is_empty() {
                                    if *dst != NO_REG {
                                        reg!(*dst) = Value::Null;
                                    }
                                } else {
                                    close_op!();
                                    if self.profiler.is_some() {
                                        flush!();
                                    }
                                    // The arguments move from the caller's window
                                    // straight into the callee's locals.
                                    let mut f = self.frame_for(callee, nargs);
                                    f.locals[..nargs]
                                        .copy_from_slice(&frame.locals[lo..lo + nargs]);
                                    self.enter_frame(&mut f);
                                    frame.ret_to = *dst;
                                    frame.pc = (pc + 1) as u32;
                                    break Transfer::Call(f);
                                }
                            } else {
                                // Proxies, remote receivers, the DependentObject
                                // protocol: the Message Exchange reads the operands
                                // where they lie and says how the machine proceeds.
                                close_op!();
                                flush!();
                                frame.ret_to = *dst;
                                match self.slow_invoke(&frame.locals[lo..lo + nargs], target) {
                                    Err(e) => break Transfer::Fail(e),
                                    Ok(SlowInvoke::Park(req_id, action)) => {
                                        frame.pc = (pc + 1) as u32;
                                        break Transfer::Park(req_id, action);
                                    }
                                    Ok(SlowInvoke::Call(f)) => {
                                        frame.pc = (pc + 1) as u32;
                                        break Transfer::Call(f);
                                    }
                                    Ok(SlowInvoke::Nothing) => {
                                        // The run goes on behind the call.
                                        open!(pc + 1);
                                        if *dst != NO_REG {
                                            reg!(*dst) = Value::Null;
                                        }
                                    }
                                }
                            }
                        }
                        Op::Return => {
                            close_op!();
                            break Transfer::Finish(Value::Null);
                        }
                        Op::RReturnValue(src) => {
                            let v = reg!(*src);
                            close_op!();
                            break Transfer::Finish(v);
                        }
                        Op::Fault(rejected) => {
                            // Nothing ran: the run closes before the op.
                            close!(pc, src_pc[pc]);
                            break Transfer::Fail(ExecError::Rejected((**rejected).clone()));
                        }
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
                    self.recycle_frame(done);
                    match frames.last_mut() {
                        Some(caller) => caller.deliver(v),
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

    fn binop(&mut self, op: BinOp, lhs: Value, rhs: Value) -> Result<Value, ExecError> {
        // String concatenation on Add keeps the Bank example's name handling working.
        if op == BinOp::Add {
            if let (Value::Str(a), Value::Str(b)) = (lhs, rhs) {
                let joined = format!("{}{}", self.string(a), self.string(b));
                return Ok(self.intern(&joined));
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
        let non_number =
            |v: Value| ExecError::Unsupported(format!("{op:?} on non-number {}", self.show(v)));
        let a = lhs.as_int().ok_or_else(|| non_number(lhs))?;
        let b = rhs.as_int().ok_or_else(|| non_number(rhs))?;
        int_bin(op, a, b)
            .map(Value::Int)
            .ok_or(ExecError::DivisionByZero)
    }

    /// `NewArray`: an array of `len` elements, zero-filled per `init`.
    fn new_array(&mut self, len: Value, init: ArrayInit) -> Result<Value, ExecError> {
        let len = len
            .as_int()
            .ok_or_else(|| ExecError::Unsupported("array length not an int".into()))?;
        if len < 0 {
            return Err(ExecError::IndexOutOfBounds { index: len, len: 0 });
        }
        // Java-style zero initialisation (pre-decoded per type).
        let default = match init {
            ArrayInit::Int => Value::Int(0),
            ArrayInit::Float => Value::Float(0.0),
            ArrayInit::Bool => Value::Bool(false),
            ArrayInit::Null => Value::Null,
        };
        let data = vec![default; len as usize];
        Ok(Value::Ref(self.alloc(HeapObject::Array { data })))
    }

    /// The static at `slot` ([`NO_SLOT`] reads null).
    #[inline(always)]
    fn get_static(&self, slot: u32) -> Value {
        match slot {
            NO_SLOT => Value::Null,
            s => self.statics[s as usize],
        }
    }

    /// Writes the static at `slot` ([`NO_SLOT`] drops the value).
    #[inline(always)]
    fn put_static(&mut self, slot: u32, v: Value) {
        if slot != NO_SLOT {
            self.statics[slot as usize] = v;
        }
    }

    /// The field a register field op of `method` stands for: the last seed
    /// instruction of its window, which ends at `end`. Slow paths only.
    fn seed_field(&self, method: MethodId, end: u32) -> FieldRef {
        match self.layout.program().method(method).body[end as usize - 1] {
            Insn::GetField(fr) | Insn::PutField(fr) => fr,
            ref other => unreachable!("a field op's window ends in {other:?}"),
        }
    }

    fn unop(&self, op: UnOp, v: Value) -> Result<Value, ExecError> {
        Ok(match op {
            UnOp::Neg => match v {
                Value::Float(f) => Value::Float(-f),
                other => Value::Int(other.as_int().unwrap_or(0).wrapping_neg()),
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
        let data = self.array_data(arr, "load")?;
        let len = data.len();
        data.get(i as usize)
            .copied()
            .ok_or(ExecError::IndexOutOfBounds { index: i, len })
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
        let data = self.array_data(arr, "store")?;
        let len = data.len();
        *data
            .get_mut(i as usize)
            .ok_or(ExecError::IndexOutOfBounds { index: i, len })? = val;
        Ok(())
    }

    pub(crate) fn array_length(&mut self, arr: Value) -> Result<Value, ExecError> {
        Ok(Value::Int(self.array_data(arr, "length")?.len() as i64))
    }

    /// The elements of the local array `arr` refers to, or the typed error of an
    /// array `what` (load, store, length) on anything else.
    fn array_data(&mut self, arr: Value, what: &str) -> Result<&mut Vec<Value>, ExecError> {
        match arr {
            Value::Ref(ObjRef::Local(h)) => match &mut self.heap[h as usize] {
                HeapObject::Array { data } => Ok(data),
                HeapObject::Object { .. } => {
                    Err(ExecError::Unsupported(format!("array {what} on object")))
                }
            },
            Value::Ref(ObjRef::Remote { .. }) => Err(ExecError::NotDistributed),
            Value::Null => Err(ExecError::NullPointer(format!("array {what}"))),
            _ => Err(ExecError::Unsupported(format!(
                "array {what} on non-reference"
            ))),
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
                    .copied()
                    .unwrap_or(Value::Null)),
                _ => Err(ExecError::Unsupported("field read on array".into())),
            },
            Value::Ref(ObjRef::Remote { .. }) => Err(ExecError::NotDistributed),
            Value::Null => Err(ExecError::NullPointer(format!(
                "read of field {}",
                self.layout.program().field(fr).name
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
                self.layout.program().field(fr).name
            ))),
            _ => Err(ExecError::Unsupported(
                "field write on non-reference".into(),
            )),
        }
    }

    /// A snapshot of all static fields (replicated per node), named `Class::field`,
    /// strings resolved. Used by tests and by the cluster driver to compare
    /// centralized and distributed final states.
    pub fn statics_snapshot(&self) -> Statics {
        let values = self.statics.iter().map(|&v| self.detach(v)).collect();
        Statics::new(Arc::clone(&self.layout.static_names), values)
    }

    /// Evaluates a comparison between two values. Interned strings are equal exactly
    /// when their ids are; only an ordering reads their contents.
    fn compare(&self, op: CmpOp, lhs: Value, rhs: Value) -> bool {
        match (lhs, rhs) {
            (Value::Str(a), Value::Str(b)) => match op {
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                _ => {
                    let lt = self.string(a) < self.string(b);
                    lt == matches!(op, CmpOp::Lt | CmpOp::Le)
                }
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

/// `RIf`: does `v op 0` hold (for references and null: `Eq` = is-null)?
#[inline(always)]
fn if_holds(op: CmpOp, v: Value) -> bool {
    match v {
        Value::Null => matches!(op, CmpOp::Eq | CmpOp::Le | CmpOp::Ge),
        Value::Ref(_) => matches!(op, CmpOp::Ne),
        other => op.eval_ord(other.as_int().unwrap_or(0).cmp(&0)),
    }
}

/// `clock` after `n` sequential IEEE additions of `unit`, bit for bit, in closed
/// form.
///
/// Inside one binade `[2^e, 2^(e+1))` a clock is `k × ulp` for an integer `k` below
/// 2^53, and `unit / ulp` is exact (a power-of-two scaling). Unless it ends in exactly
/// one half, one addition rounds the sum to `k + round(unit / ulp)`, the same step
/// every time, so `m` additions that stay in the binade are one integer
/// multiply-add. A binade crossing, a tie (where the rounding reads `k`'s parity),
/// zero, a subnormal or tiny clock, and anything not positive and finite take one
/// plain `+=` and try again.
pub(crate) fn advance_clock(mut clock: f64, unit: f64, mut n: u64) -> f64 {
    const MANTISSA: u64 = (1 << 52) - 1;
    const K_MAX: u64 = (1 << 53) - 1;
    while n > 0 {
        let bits = clock.to_bits();
        // The biased exponent (the sign bit above it makes a negative clock fail the
        // range test). From 53 on, the ulp `2^(exp − 1075)` is a normal float.
        let exp = bits >> 52;
        if (53..0x7ff).contains(&exp) && unit > 0.0 && unit.is_finite() {
            let ulp = f64::from_bits((exp - 52) << 52);
            let steps = unit / ulp;
            if steps < K_MAX as f64 && steps - steps.floor() != 0.5 {
                let m = steps.round() as u64;
                if m == 0 {
                    // Every addition rounds back to `clock`.
                    return clock;
                }
                let k = (bits & MANTISSA) | (1 << 52);
                let room = (K_MAX - k) / m;
                if room > 0 {
                    let s = room.min(n);
                    clock = f64::from_bits((exp << 52) | ((k + s * m) & MANTISSA));
                    n -= s;
                    continue;
                }
            }
        }
        clock += unit;
        n -= 1;
    }
    clock
}

// --- the register kernel ---------------------------------------------------------
//
// The fast-path rules below are the kernel's. Where a rule answers `None` the
// kernel stops, and the machine runs the op on its general path (`binop`,
// `compare`, `array_load`, `get_field`, the Message Exchange), which decides every
// operand the rule does alike. They are `inline(always)` so the kernel folds them
// into straight-line code.

/// Integer arithmetic: wrapping; `None` for a zero divisor.
#[inline(always)]
fn int_bin(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div if b != 0 => a.wrapping_div(b),
        BinOp::Rem if b != 0 => a.wrapping_rem(b),
        BinOp::Div | BinOp::Rem => return None,
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32),
        BinOp::Shr => a.wrapping_shr(b as u32),
    })
}

/// The numeric rule of `RBin` / `RBinI`: two `Int`s in wrapping
/// integer arithmetic, a `Float` with a `Float` or an `Int` in IEEE arithmetic.
/// `None` for whatever [`Interp::binop`] decides: a zero divisor, a bitwise op on
/// floats, a boolean, a string, null, a reference.
#[inline(always)]
fn num_bin(op: BinOp, lhs: Value, rhs: Value) -> Option<Value> {
    let (a, b) = match (lhs, rhs) {
        (Value::Int(a), Value::Int(b)) => return int_bin(op, a, b).map(Value::Int),
        (Value::Float(a), Value::Float(b)) => (a, b),
        (Value::Float(a), Value::Int(b)) => (a, b as f64),
        (Value::Int(a), Value::Float(b)) => (a as f64, b),
        _ => return None,
    };
    Some(Value::Float(match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div if b != 0.0 => a / b,
        BinOp::Rem => a % b,
        _ => return None,
    }))
}

/// The integer rule of `RIfCmp` / `RIfCmpI`: two `Int`s, or two `Bool`s,
/// compare as integers. `None` for whatever [`Interp::compare`] decides.
#[inline(always)]
fn int_cmp(op: CmpOp, lhs: Value, rhs: Value) -> Option<bool> {
    match (lhs, rhs) {
        (Value::Int(a), Value::Int(b)) => Some(op.eval_ord(a.cmp(&b))),
        (Value::Bool(a), Value::Bool(b)) => Some(op.eval_ord(a.cmp(&b))),
        _ => None,
    }
}

/// The elements of the local array `arr` refers to; `None` for anything else.
#[inline(always)]
fn local_array(heap: &mut [HeapObject], arr: Value) -> Option<&mut Vec<Value>> {
    match arr {
        Value::Ref(ObjRef::Local(h)) => match &mut heap[h as usize] {
            HeapObject::Array { data } => Some(data),
            HeapObject::Object { .. } => None,
        },
        _ => None,
    }
}

/// Element `idx` of a local array, when `idx` is an `Int` in range.
#[inline(always)]
fn local_element(heap: &mut [HeapObject], arr: Value, idx: Value) -> Option<&mut Value> {
    match idx {
        Value::Int(i) => local_array(heap, arr)?.get_mut(i as usize),
        _ => None,
    }
}

/// Field `slot` of a local object that is not a proxy, when the object has it.
#[inline(always)]
fn local_field(
    heap: &mut [HeapObject],
    dep_class: Option<ClassId>,
    obj: Value,
    slot: u32,
) -> Option<&mut Value> {
    match obj {
        Value::Ref(ObjRef::Local(h)) => match &mut heap[h as usize] {
            HeapObject::Object { class, fields } if Some(*class) != dep_class => {
                fields.get_mut(slot as usize)
            }
            _ => None,
        },
        _ => None,
    }
}

/// A branch taken at op `from` to op `to`, in a run's accumulators: the run closes
/// after `from` and the next one opens at `to` (see [`Interp::run_task`]).
#[inline(always)]
fn jump_run(src_pc: &[u32], from: usize, to: usize, executed: &mut u64, dispatched: &mut u64) {
    *executed = executed
        .wrapping_add(u64::from(src_pc[from + 1]))
        .wrapping_sub(u64::from(src_pc[to]));
    *dispatched = dispatched
        .wrapping_add(from as u64 + 1)
        .wrapping_sub(to as u64);
}

/// The register kernel: runs the straight-line register ops of one frame from op
/// `pc` and returns the pc of the first op it cannot finish — a call, a return, an
/// allocation, a static, the end of the body, or an operand the fast-path rules
/// above do not cover (a zero divisor, a non-number, null, a remote reference, a
/// proxy, an index out of range). That op has not executed: the machine runs the
/// whole op itself, with its full semantics.
///
/// `executed` / `dispatched` are `run_task`'s run accumulators. The kernel moves
/// them only where `jump!` would — a taken branch closes the run and opens one at
/// its target — and never charges, faults, calls or samples: the clock, the
/// counters, the profiler and every error stay the machine's. It is a separate,
/// small function so that the op slice, the register file and the accumulators stay
/// in machine registers, which the whole dispatch loop is too large for.
#[inline(never)]
fn run_kernel(
    mops: &MethodOps,
    regs: &mut [Value],
    heap: &mut [HeapObject],
    dep_class: Option<ClassId>,
    mut pc: usize,
    executed: &mut u64,
    dispatched: &mut u64,
) -> usize {
    let (ops, src_pc) = (&mops.ops[..], &mops.src_pc[..]);
    let (mut seed, mut disp) = (*executed, *dispatched);
    while let Some(op) = ops.get(pc) {
        // The value of a fast-path rule, or the end of the kernel's run.
        macro_rules! or_stop {
            ($rule:expr) => {
                match $rule {
                    Some(v) => v,
                    None => break,
                }
            };
        }
        macro_rules! branch_if {
            ($taken:expr, $target:expr) => {
                if $taken {
                    let target = $target as usize;
                    jump_run(src_pc, pc, target, &mut seed, &mut disp);
                    pc = target;
                    continue;
                }
            };
        }
        macro_rules! r {
            ($r:expr) => {
                regs[$r as usize]
            };
        }
        match *op {
            Op::Nop => {}
            Op::Mov(dst, src) => r!(dst) = r!(src),
            Op::SetI(dst, k) => r!(dst) = Value::Int(k),
            Op::SetF(dst, k) => r!(dst) = Value::Float(k),
            Op::SetB(dst, k) => r!(dst) = Value::Bool(k),
            Op::SetS(dst, i) => r!(dst) = Value::Str(StrId(i)),
            Op::SetN(dst) => r!(dst) = Value::Null,
            Op::Goto(target) => branch_if!(true, target),
            Op::RBin(op, dst, a, b) => r!(dst) = or_stop!(num_bin(op, r!(a), r!(b))),
            Op::RBinI(op, dst, a, k) => r!(dst) = or_stop!(num_bin(op, r!(a), Value::Int(k))),
            Op::RIfCmp(op, a, b, target) => {
                branch_if!(or_stop!(int_cmp(op, r!(a), r!(b))), target)
            }
            Op::RIfCmpI(op, a, k, target) => {
                branch_if!(or_stop!(int_cmp(op, r!(a), Value::Int(k))), target)
            }
            Op::RIf(op, v, target) => branch_if!(if_holds(op, r!(v)), target),
            Op::RArrayLoad(dst, arr, idx) => {
                r!(dst) = *or_stop!(local_element(heap, r!(arr), r!(idx)))
            }
            Op::RArrayStore(arr, idx, val) => {
                let val = r!(val);
                *or_stop!(local_element(heap, r!(arr), r!(idx))) = val;
            }
            Op::RArrayLength(dst, arr) => {
                r!(dst) = Value::Int(or_stop!(local_array(heap, r!(arr))).len() as i64)
            }
            Op::RGetField(dst, obj, slot) => {
                r!(dst) = *or_stop!(local_field(heap, dep_class, r!(obj), slot))
            }
            Op::RPutField(obj, val, slot) => {
                let val = r!(val);
                *or_stop!(local_field(heap, dep_class, r!(obj), slot)) = val;
            }
            _ => break,
        }
        pc += 1;
    }
    (*executed, *dispatched) = (seed, disp);
    pc
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

    /// A remote error reply is charged at its encoded length, so a value in an error
    /// text prints as it always did: a string by its content, not its id.
    #[test]
    fn error_texts_print_strings_by_content() {
        let src = r#"
            class C {
                static int bad() { String s = "a" + "bc"; return 1 - s; }
                static void main() { int y = C.bad(); }
            }
        "#;
        let p = compile_source(src).unwrap();
        let mut interp = Interp::new(&p);
        assert_eq!(
            interp.run_entry(),
            Err(ExecError::Unsupported(
                r#"Sub on non-number Str("abc")"#.into()
            ))
        );
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
        assert_eq!(snap.get("Main::touched"), Some(&StaticValue::Int(7)));
        assert_eq!(
            snap.get("Main::untouched"),
            Some(&StaticValue::Int(0)),
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

    /// The kernel's fast-path rules against the machine's general paths, over every
    /// operator and every pair of ints (the extremes included), floats (signed zeros,
    /// NaN, infinity), booleans, null, a string and a reference: [`num_bin`] answers
    /// `None` or exactly what `binop` answers — floats bit for bit — and `None`
    /// wherever `binop` fails; [`int_cmp`] answers `None` or what `compare` does.
    #[test]
    fn the_fast_rules_answer_what_the_general_paths_do() {
        let p = compile_source("class C { static void main() { } }").unwrap();
        let mut interp = Interp::new(&p);
        let mut values: Vec<Value> = [0, 1, -1, i64::MIN, i64::MAX].map(Value::Int).into();
        values.extend([0.0, -0.0, 1.5, f64::NAN, f64::INFINITY].map(Value::Float));
        values.extend([Value::Bool(false), Value::Bool(true), Value::Null]);
        values.extend([interp.intern("s"), Value::Ref(ObjRef::Local(0))]);
        let same = |a: Value, b: Value| match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        };
        let binops = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::Shr,
        ];
        let cmps = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let mut answered = 0;
        for &lhs in &values {
            for &rhs in &values {
                for op in binops {
                    let fast = num_bin(op, lhs, rhs);
                    match (fast, interp.binop(op, lhs, rhs)) {
                        (None, _) => {}
                        (Some(v), Ok(general)) => {
                            assert!(
                                same(v, general),
                                "{lhs:?} {op:?} {rhs:?}: {v:?} vs {general:?}"
                            );
                            answered += 1;
                        }
                        (Some(v), Err(e)) => {
                            panic!("{lhs:?} {op:?} {rhs:?}: {v:?}, but binop fails: {e}")
                        }
                    }
                }
                for op in cmps {
                    if let Some(fast) = int_cmp(op, lhs, rhs) {
                        assert_eq!(fast, interp.compare(op, lhs, rhs), "{lhs:?} {op:?} {rhs:?}");
                        answered += 1;
                    }
                }
            }
        }
        // Every int and float pair but the failing ones (764 cases), so the rules
        // cannot pass by answering nothing.
        assert!(
            answered > 700,
            "the fast rules answered only {answered} cases"
        );
    }

    /// What [`advance_clock`] must equal: `n` additions, one at a time.
    fn added(mut clock: f64, unit: f64, n: u64) -> f64 {
        for _ in 0..n {
            clock += unit;
        }
        clock
    }

    /// The ulp of a normal clock.
    fn ulp(clock: f64) -> f64 {
        f64::from_bits(((clock.to_bits() >> 52) - 52) << 52)
    }

    /// The testbed's units (instruction cost 0.01 µs at node speeds 1.0 and 2.1),
    /// the interpreter's default, and against `clock`'s ulp: exactly one (a clock
    /// below a binade edge lands on it) and two exact ties.
    fn units(clock: f64) -> Vec<f64> {
        let mut units = vec![0.01 / 1.0, 0.01 / 2.1, 0.02];
        if clock.is_normal() && clock.to_bits() >> 52 > 53 {
            units.push(ulp(clock));
            units.push(2.5 * ulp(clock));
            units.push(0.5 * ulp(clock));
        }
        units
    }

    #[test]
    fn the_clock_advances_as_its_additions_would() {
        let clocks = [
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            1.0 - f64::EPSILON,
            1.0,
            1_023.999_999,
            2.0_f64.powi(20) - 0.000_1,
            15_740.485_333_152_645,
            1e12,
        ];
        for clock in clocks {
            for unit in units(clock) {
                for n in [0, 1, 2, 7, 1_000, 250_000] {
                    assert_eq!(
                        advance_clock(clock, unit, n).to_bits(),
                        added(clock, unit, n).to_bits(),
                        "clock {clock:e} + {n} × {unit:e}"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        /// Bit-identical to sequential additions from any clock: zero, subnormal,
        /// a few ulps below a binade edge (so the run crosses it) or anywhere, and
        /// for any positive unit as well as the fixed ones, ties included.
        #[test]
        fn advance_clock_is_a_loop_of_additions(
            kind in 0u64..4,
            raw in 0u64..u64::MAX,
            exp in -30i32..40,
            unit in 0.000_001f64..10.0,
            n in 0u64..20_000,
        ) {
            let clock = match kind {
                0 => 0.0,
                1 => f64::from_bits(raw % (1 << 52)),
                2 => f64::from_bits(2.0_f64.powi(exp).to_bits() - raw % 10_000),
                _ => f64::from_bits(raw % 0x7fe0_0000_0000_0000),
            };
            let mut all = units(clock);
            all.push(unit);
            for unit in all {
                proptest::prop_assert_eq!(
                    advance_clock(clock, unit, n).to_bits(),
                    added(clock, unit, n).to_bits()
                );
            }
        }
    }
}
