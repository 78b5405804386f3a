//! The scheduler: **one worker loop** with counted per-world quiescence.
//!
//! Every distributed execution — [`crate::cluster::run_distributed`] under either
//! [`Schedule`], and [`crate::serve::run_serving`] — is the same thing: a sequence
//! of root computations admitted through a window into a fixed table of **worlds**
//! and driven by `Running::worker` popping `(root, rank)` keys off one shared
//! [`ReadyQueue`]. A single-root run is a serving run of one request at window 1;
//! [`Schedule::Inline`] is a pool of one worker on the calling thread.
//!
//! * A **world** ([`World`]) is one in-flight root computation: its request-scoped
//!   nodes (interpreter + parked continuations each) and the [`Transport`] between
//!   them (mailboxes owned by the world, its key count, its fault state), behind
//!   **one mutex**. The paper's protocol is synchronous request/response, so a root
//!   computation has exactly one live control flow — per-node locks would buy nothing.
//! * The three per-node services of the paper's Figure 10 map onto it directly: the
//!   **MPI service** is the world's [`Transport`], the **Execution Starter** is
//!   `World::seed`, and the **Message Exchange** is [`crate::exchange`], driven by
//!   the delivery slice (`World::deliver`) plus the shutdown epilogue
//!   (`World::finish`).
//! * The slot table has `concurrency` entries and a world's root id is
//!   `slot + slots × generation`, so a popped key finds its world by index, and a
//!   **stale** key (say the duplicate of a finished request's final response) is
//!   recognised by root mismatch and skipped without touching the new tenant.
//! * **Quiescence is counted, not inferred.** Ready keys for a world are only ever
//!   published by that world's own transport (routed sends, sequence-window
//!   releases, gap repairs), which nothing but the world can reach — i.e. under the
//!   world's lock. So its key count, published − consumed, lives beside the
//!   mailboxes it counts and is exact: when it reaches zero and the root has not
//!   completed, nothing is queued and nothing is in another worker's hands — *that*
//!   world is stuck *now*. The worker holding it fails it on the spot if it is
//!   doomed (a recorded packet loss, or nothing left that could free it): no global
//!   verdict, no timeout, and no second worker that can reach the same conclusion.
//! * A world stuck behind a **sequence gap** waits for the **delivery deadline**:
//!   the moment every worker is idle with nothing queued ([`Next::AllIdle`] — the
//!   idle count lives under the queue lock, so this too is a fact, observed by
//!   exactly one worker). That worker skips the gaps of every stuck world and the
//!   loop carries on. For a single-root run the deadline is the instant its one
//!   world quiesces; a serving run additionally sits out a modelled ack timeout
//!   first ([`SERVING_DELIVERY_DEADLINE`]). Idle workers otherwise block on the
//!   queue's condvar without a timeout and exit when the last completion closes it.
//!
//! Virtual times, message counts and results are deterministic under any worker
//! count: per-node clocks depend only on that node's packet arrival order, which
//! the transport's FIFO mailboxes and the synchronous protocol fix regardless of
//! worker interleaving. Per-node profiler sinks attach the same way under either
//! schedule — the call stack lives on each [`Continuation`].

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use autodist_ir::layout::ProgramLayout;
use autodist_ir::program::Program;

use crate::adapt::AdaptState;
use crate::cluster::{stats_of, ExecutionReport, NodeProfiler, Schedule};
use crate::exchange::{shutdown_frame, DistState, ServeOutcome};
use crate::interp::{loss_to_error, Continuation, ExecError, Interp, TaskOutcome, TransportStall};
use crate::net::{
    FaultPlan, MpiEndpoint, NetworkConfig, Next, Packet, PacketKind, ReadyQueue, Transport,
};
use crate::serve::RequestReport;
use crate::value::Value;

/// What to do with a task's result once its bottom frame returns.
enum TaskDone {
    /// The Execution Starter's `main` on the launch node: its result ends the world.
    Root,
    /// A serving computation: reply to `to` for request `req_id`. `reply_override`
    /// carries the freshly created object reference for `NEW` requests (the
    /// constructor's return value is discarded).
    Reply {
        to: usize,
        req_id: u64,
        reply_override: Option<Value>,
    },
}

/// A computation in flight: the interpreter-level continuation plus its completion
/// action.
struct CoopTask {
    cont: Continuation,
    done: TaskDone,
}

/// One virtual node of a world: its interpreter plus every continuation currently
/// parked on an outstanding remote request, keyed by the request id the response
/// will echo.
///
/// The parked set is a plain vector, not a hash map: a node rarely holds more than a
/// handful of parked computations (one per live cross-node recursion level, bounded
/// by the call-depth guard), and the park/resume pair sits on the per-message hot
/// path where two SipHash probes cost more than a short scan.
struct CoopNode<'p> {
    interp: Interp<'p>,
    parked: Vec<(u64, CoopTask)>,
}

impl<'p> CoopNode<'p> {
    /// Removes and returns the continuation parked on `req_id`. Scans newest-first:
    /// under synchronous request/response the resumed continuation is almost always
    /// the most recently parked one.
    fn unpark(&mut self, req_id: u64) -> Option<CoopTask> {
        let idx = self.parked.iter().rposition(|(id, _)| *id == req_id)?;
        Some(self.parked.swap_remove(idx).1)
    }

    /// Drives `task` until it parks or completes. Completions either finish the
    /// world (the returned root result) or send the response for the request being
    /// served.
    fn run(&mut self, mut task: CoopTask) -> Option<Result<Value, ExecError>> {
        let outcome = self.interp.run_task(&mut task.cont);
        self.settle(task, outcome)
    }

    fn endpoint(&mut self) -> &mut MpiEndpoint<'p> {
        let dist = self.interp.dist.as_mut();
        &mut dist.expect("world nodes are distributed").endpoint
    }

    /// A packet reaches this node: its clock advances to the arrival time (a
    /// receiver can never observe a message before it was sent).
    fn arrive(&mut self, pkt: &Packet) {
        self.interp.clock_us = self.interp.clock_us.max(pkt.arrival_time_us);
        self.endpoint().received(pkt);
    }

    fn settle(&mut self, task: CoopTask, outcome: TaskOutcome) -> Option<Result<Value, ExecError>> {
        match outcome {
            TaskOutcome::Parked { req_id } => {
                self.parked.push((req_id, task));
                None
            }
            TaskOutcome::Done(res) => match task.done {
                TaskDone::Root => Some(res),
                TaskDone::Reply {
                    to,
                    req_id,
                    reply_override,
                } => {
                    let result = res.map(|v| reply_override.unwrap_or(v));
                    self.interp.send_reply(to, req_id, result);
                    None
                }
            },
        }
    }

    /// Delivers one packet: a request spawns (or answers) a serving task, a
    /// response resumes the parked continuation. Whatever the node sends on the
    /// way waits in its endpoint's outbox for the world to route.
    fn deliver_one(&mut self, pkt: Packet) -> Option<Result<Value, ExecError>> {
        self.arrive(&pkt);
        match pkt.kind {
            PacketKind::Request => {
                match self.interp.accept_request(pkt.from, pkt.req_id, pkt.data) {
                    ServeOutcome::Handled => None,
                    ServeOutcome::Spawned {
                        task,
                        reply_override,
                    } => self.run(CoopTask {
                        cont: task,
                        done: TaskDone::Reply {
                            to: pkt.from,
                            req_id: pkt.req_id,
                            reply_override,
                        },
                    }),
                }
            }
            PacketKind::Response => {
                // The response for a parked continuation: resume it (a corrupt
                // frame dooms the computation typed, like any other transport fault).
                let mut task = self.unpark(pkt.req_id)?;
                let outcome = self.interp.resume_task(&mut task.cont, pkt.data);
                self.settle(task, outcome)
            }
        }
    }
}

/// One in-flight root computation: its request-scoped nodes, the transport between
/// them, and the bookkeeping its report needs.
struct World<'p> {
    /// The id stamped on this world's ready keys: `slot + slots × generation`.
    root: u32,
    nodes: Vec<CoopNode<'p>>,
    /// Mailboxes, the exact ready-key count and the fault state. Owned here and
    /// handed to nobody, so everything it does happens under this world's lock.
    net: Transport,
    /// Position in the submitted sequence.
    index: usize,
    /// Index of the app this request instantiated.
    app: usize,
    started: Instant,
}

impl World<'_> {
    /// The Execution Starter: launches `main` as the root continuation on the
    /// launch node. Returns the root result if the world is already over.
    fn seed(&mut self, ready: &ReadyQueue) -> Option<Result<Value, ExecError>> {
        let node = &mut self.nodes[0];
        let res = match node.interp.program.entry {
            None => Some(Err(ExecError::NoEntry)),
            Some(entry) => match node.interp.task_for(entry, Vec::new()) {
                None => Some(Ok(Value::Null)),
                Some(cont) => node.run(CoopTask {
                    cont,
                    done: TaskDone::Root,
                }),
            },
        };
        self.route(0, ready);
        self.settle(0, res)
    }

    /// One delivery slice: the popped entry's `count` packets on node `rank` (a
    /// coalesced ready entry covers several), stopping early on the root result.
    /// Returns the root result when this ends the world.
    fn deliver(
        &mut self,
        rank: usize,
        count: u32,
        ready: &ReadyQueue,
    ) -> Option<Result<Value, ExecError>> {
        let mut res = None;
        for _ in 0..count {
            if let Some(pkt) = self.net.recv(rank) {
                res = self.nodes[rank].deliver_one(pkt);
            }
            // Every packet's sends are published before the next one is taken.
            self.route(rank, ready);
            if res.is_some() {
                break;
            }
        }
        self.settle(count, res)
    }

    /// Ends a packet's slice on node `rank`: routes what the node sent — fault
    /// rolls, sequencing, duplicate copies, mailbox push — and publishes one
    /// counted ready key per destination (a window release's self keys included).
    fn route(&mut self, rank: usize, ready: &ReadyQueue) {
        self.net.route(self.nodes[rank].endpoint());
        self.net.publish(self.root, ready);
    }

    /// Closes a slice that consumed `consumed` keys. A live world whose count
    /// reaches zero is stuck — nothing is queued, nothing is in another worker's
    /// hands — and unless a gap repair can still free it ([`World::repair`]) it is
    /// failed here and now, whatever its neighbours are doing.
    fn settle(
        &mut self,
        consumed: u32,
        res: Option<Result<Value, ExecError>>,
    ) -> Option<Result<Value, ExecError>> {
        self.net.consume(consumed);
        if res.is_none() && self.net.keys() == 0 {
            return self.doomed().map(Err);
        }
        res
    }

    /// Why a quiesced world can never complete, if it cannot. Under fault-free
    /// execution exactly one logical control flow is live at any moment, so a zero
    /// key count before the root completes would be a scheduler bug; with a fault
    /// plan it means a packet is owed. In order:
    ///
    /// 1. a recorded packet loss → the typed error ([`ExecError::MessageTimeout`] /
    ///    [`ExecError::NodeDown`]); under the synchronous protocol a single lost
    ///    packet dooms the computation;
    /// 2. a sequence gap on some rank (a reorder whose partner is still owed) →
    ///    `None`: the world waits for the delivery deadline to repair it;
    /// 3. neither → a typed [`ExecError::Transport`] naming which continuations are
    ///    parked on which requests — a genuine deadlock reports its shape.
    fn doomed(&self) -> Option<ExecError> {
        if let Some(loss) = self.net.first_loss() {
            return Some(loss_to_error(loss));
        }
        let stall = self.stall();
        stall
            .gapped
            .is_empty()
            .then_some(ExecError::Transport(stall))
    }

    /// The shape of this world's stall: which ranks buffer packets behind a sequence
    /// gap, which continuations are parked on which requests.
    fn stall(&self) -> TransportStall {
        let mut stall = TransportStall::default();
        for (rank, node) in self.nodes.iter().enumerate() {
            if self.net.has_sequence_gap(rank) {
                stall.gapped.push(rank);
            }
            stall
                .parked
                .extend(node.parked.iter().map(|(req_id, _)| (rank, *req_id)));
        }
        stall
    }

    /// The delivery deadline passed: the packets the sequence gaps are waiting for
    /// are not coming. Skips every gap and publishes the released packets' keys (no
    /// delivery slice is coming to do it); `false` if there was nothing to release.
    fn repair(&mut self, ready: &ReadyQueue) -> bool {
        if self.net.repair_gaps() > 0 {
            self.net.publish(self.root, ready);
        }
        self.net.keys() > 0
    }

    /// The epilogue of every world: snapshot the launch node, broadcast and deliver
    /// the Message Exchange's orderly shutdown (bookkeeping, not part of the
    /// measured execution — it only advances each node's clock to the shutdown's
    /// arrival) and assemble the report. The execution ends when the launch node
    /// finishes `main`; its clock has already absorbed every synchronous round trip,
    /// so node 0's final clock is the execution time the paper measures.
    fn finish(mut self, root: Result<Value, ExecError>, wall: Duration) -> ExecutionReport {
        let node0 = &mut self.nodes[0];
        let stats0 = stats_of(&node0.interp, 0);
        let final_statics = node0.interp.statics_snapshot();
        let faults = self.net.fault_summary();
        // Control traffic: uncorrelated (`req_id` 0), so no fault plan touches it.
        // Its keys are never published: the world is over, nobody pops them.
        let data = shutdown_frame();
        let arrival_time_us =
            node0.interp.clock_us + node0.endpoint().config.transfer_time_us(data.len());
        for to in 1..self.nodes.len() {
            self.net.post(Packet {
                from: 0,
                to,
                kind: PacketKind::Request,
                req_id: 0,
                seq: 0,
                data: data.clone(),
                arrival_time_us,
            });
        }
        let mut per_node = vec![stats0];
        for (rank, node) in self.nodes.iter_mut().enumerate().skip(1) {
            while let Some(pkt) = self.net.recv(rank) {
                node.arrive(&pkt);
                if pkt.kind == PacketKind::Request {
                    let _ = node.interp.accept_request(pkt.from, pkt.req_id, pkt.data);
                }
            }
            // A leftover request answered just now still reaches a later rank.
            self.net.route(node.endpoint());
            per_node.push(stats_of(&node.interp, rank));
        }
        // Dropping the nodes drops any attached profiler sinks, which flushes a
        // planner sink's per-request tallies into its shared aggregate — before
        // the epoch controller (which runs right after this) reads it.
        drop(self);
        ExecutionReport {
            virtual_time_us: per_node[0].clock_us,
            wall_time_ms: wall.as_secs_f64() * 1e3,
            per_node,
            final_statics,
            error: root.err(),
            faults,
        }
    }
}

/// The modelled *wall-clock* length of the delivery deadline in serving mode — the
/// only modelled wait in the runtime: a receiver holding packets behind a sequence gap
/// cannot know the missing one is not coming until the link has stayed quiet for an
/// ack timeout, so an idle server sits that long before skipping the gap. Whether
/// the server *is* idle and which worlds are stuck is counted, never timed; this is
/// the price of the repair, not a detector. The committed benchmark's
/// `serve_degraded` workload — and its unit test asserting that a reordered request
/// is slower than every healthy one — are calibrated to 6 ms.
pub(crate) const SERVING_DELIVERY_DEADLINE: Duration = Duration::from_millis(6);

/// What a world is instantiated from: the placed per-node programs, their shared
/// pre-built layouts and the cost model.
#[derive(Clone, Copy)]
pub(crate) struct AppView<'s> {
    pub(crate) programs: &'s [Program],
    pub(crate) layouts: &'s [Arc<ProgramLayout>],
    pub(crate) network: &'s NetworkConfig,
}

/// The admission window, guarded by one lock so claim-and-count is atomic.
struct Window {
    /// Next sequence index to admit.
    next: usize,
    /// Slots with no live world.
    free: Vec<usize>,
    /// The root id each slot's next tenant gets.
    roots: Vec<u32>,
    completed: usize,
}

/// Everything one run of the worker loop shares. [`crate::serve::run_serving`] and
/// [`crate::cluster::run_distributed_profiled`] both fill this in and call
/// [`Server::run`]; the fields below `adapt` are zero/empty for the other one.
pub(crate) struct Server<'s> {
    pub(crate) apps: Vec<AppView<'s>>,
    /// `sequence[i]` names the app request `i` instantiates.
    pub(crate) sequence: &'s [usize],
    /// Maximum worlds in flight (the closed-loop window).
    pub(crate) concurrency: usize,
    pub(crate) schedule: Schedule,
    /// Fault plans by submission index.
    pub(crate) faults: &'s [(usize, FaultPlan)],
    /// Adaptive-placement epoch controller; `None` keeps the admission and
    /// completion paths identical to a server without it.
    pub(crate) adapt: Option<AdaptState<'s>>,
    /// Caller-supplied per-node profiler sinks for request 0 (single-root runs).
    pub(crate) profilers: Mutex<Vec<Option<NodeProfiler>>>,
    /// Modelled wall-clock length of the delivery deadline (see
    /// [`Running::delivery_deadline`]): how long an idle server gives a reordered
    /// packet's predecessor to show up before skipping it.
    pub(crate) deadline_wait: Duration,
}

/// The state [`Server::run`] adds around a [`Server`] for the duration of the run.
struct Running<'a, 's> {
    server: &'a Server<'s>,
    workers: usize,
    /// The one ready queue every world feeds.
    ready: ReadyQueue,
    /// The world table, a power of two long so `root & mask` finds a key's slot.
    slots: Vec<Mutex<Option<World<'s>>>>,
    window: Mutex<Window>,
    /// Per-request outcomes, indexed by submission order.
    results: Mutex<Vec<Option<RequestReport>>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<'s> Server<'s> {
    /// Runs the closed loop to completion and returns the per-request outcomes in
    /// submission order, plus the worker count used.
    pub(crate) fn run(&self) -> (Vec<RequestReport>, usize) {
        let workers = match self.schedule {
            Schedule::Inline => 1,
            Schedule::Pool { threads } => threads.max(1),
        };
        let concurrency = self.concurrency.max(1);
        let slots = concurrency.next_power_of_two();
        let run = Running {
            server: self,
            workers,
            ready: ReadyQueue::default(),
            slots: (0..slots).map(|_| Mutex::new(None)).collect(),
            window: Mutex::new(Window {
                next: 0,
                free: (0..concurrency).rev().collect(),
                roots: (0..slots as u32).collect(),
                completed: 0,
            }),
            results: Mutex::new((0..self.sequence.len()).map(|_| None).collect()),
        };
        if self.sequence.is_empty() {
            return (Vec::new(), workers);
        }
        if workers == 1 {
            run.worker();
        } else {
            std::thread::scope(|scope| {
                for id in 0..workers {
                    let run = &run;
                    std::thread::Builder::new()
                        .name(format!("worker-{id}"))
                        .spawn_scoped(scope, move || run.worker())
                        .expect("spawn worker");
                }
            });
        }
        let requests = run
            .results
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .into_iter()
            .map(|r| r.expect("every request completed or failed"))
            .collect();
        (requests, workers)
    }
}

impl<'s> Running<'_, 's> {
    /// **The** worker loop: fill the window, then pop a `(root, rank)` key and run
    /// one delivery slice on that world's node. A world completes on whichever
    /// worker delivers its final response; that worker reports it and refills the
    /// freed slot.
    fn worker(&self) {
        self.admit();
        loop {
            match self.ready.next(self.workers) {
                Next::Entry((root, rank), count) => {
                    let slot = root as usize & (self.slots.len() - 1);
                    let mut guard = lock(&self.slots[slot]);
                    // A key whose root is not the slot's tenant is stale — its
                    // world already completed — and is skipped, count untouched.
                    let done = match guard.as_mut() {
                        Some(world) if world.root == root => {
                            world.deliver(rank as usize, count, &self.ready)
                        }
                        _ => None,
                    };
                    if let Some(res) = done {
                        let world = guard.take().expect("the world just delivered");
                        drop(guard);
                        self.complete(slot, world, res);
                        self.admit();
                    }
                }
                Next::Closed => return,
                Next::AllIdle => self.delivery_deadline(),
            }
        }
    }

    /// Admits requests until the window is full or the sequence is exhausted.
    fn admit(&self) {
        loop {
            let (index, slot, root) = {
                let mut w = lock(&self.window);
                if w.next >= self.server.sequence.len() {
                    return;
                }
                let Some(slot) = w.free.pop() else { return };
                let index = w.next;
                w.next += 1;
                let root = w.roots[slot];
                w.roots[slot] = root.wrapping_add(self.slots.len() as u32);
                (index, slot, root)
            };
            // This worker is about to be busy admitting: anything it left queued
            // is a sibling's.
            self.ready.nudge();
            self.admit_one(index, slot, root);
        }
    }

    /// Instantiates request `index` in `slot`: a fresh transport (its keys tagged
    /// `root` on the shared ready queue), fresh per-node interpreters over the app's
    /// shared layouts, then the root computation seeded on node 0.
    fn admit_one(&self, index: usize, slot: usize, root: u32) {
        let server = self.server;
        let app_idx = server.sequence[index];
        // Adaptive placement: admit under the app's *current* placement — the seed
        // one the caller passed in, or whichever the epoch controller last
        // installed. The choice is sealed at admission; a later swap never touches
        // this request.
        let app = server
            .adapt
            .as_ref()
            .and_then(|a| a.current(app_idx))
            .map_or(server.apps[app_idx], |a| a.view());
        let plan = server.faults.iter().find(|(i, _)| *i == index);
        let size = app.programs.len();
        // The planner's sinks are observational (they record, never steer), so
        // attaching them leaves virtual time and traffic byte-identical — but the
        // instrumentation costs wall-clock, so only an epoch's profiled prefix of
        // admissions carries them.
        let planner = server
            .adapt
            .as_ref()
            .filter(|adapt| adapt.admit_profiled(app_idx));
        let mut own = std::mem::take(&mut *lock(&server.profilers));
        let nodes = app
            .programs
            .iter()
            .zip(app.layouts)
            .enumerate()
            .map(|(rank, (program, layout))| {
                let dist = DistState::new(MpiEndpoint::new(rank, size, app.network));
                let mut interp = Interp::with_layout(program, Arc::clone(layout)).with_dist(dist);
                let sink = match own.get_mut(rank).and_then(Option::take) {
                    Some(p) => Some((p.sink, p.sample_interval)),
                    None => planner.and_then(|adapt| adapt.profiler_for(app_idx, rank)),
                };
                if let Some((sink, interval)) = sink {
                    interp = interp.with_profiler(sink, interval);
                }
                CoopNode {
                    interp,
                    parked: Vec::new(),
                }
            })
            .collect();
        // Install before seeding, and seed under the slot's lock: the root's first
        // send publishes a key another worker may pop immediately, and that worker
        // must find this world — and wait for the seeding slice to end.
        let mut guard = lock(&self.slots[slot]);
        let world = guard.insert(World {
            root,
            nodes,
            net: Transport::new(size, plan.map(|(_, plan)| plan.clone())),
            index,
            app: app_idx,
            started: Instant::now(),
        });
        if let Some(res) = world.seed(&self.ready) {
            // The request never parked (e.g. a single-node placement), or is
            // already doomed: complete it here; the caller keeps admitting.
            let world = guard.take().expect("the world just seeded");
            drop(guard);
            self.complete(slot, world, res);
        }
    }

    /// Finishes a world taken out of `slot`: epilogue, result slot, window refill
    /// bookkeeping — and the end of the run when it was the last one.
    fn complete(&self, slot: usize, world: World<'s>, res: Result<Value, ExecError>) {
        let server = self.server;
        let latency = world.started.elapsed();
        let (index, app, nodes) = (world.index, world.app, world.nodes.len());
        let report = world.finish(res, latency);
        // Feed the completed request into the epoch controller *after* its report
        // is sealed: adaptation can only influence requests admitted later.
        if let Some(adapt) = server.adapt.as_ref() {
            adapt.observe(app, nodes, &report);
        }
        lock(&self.results)[index] = Some(RequestReport {
            index,
            app,
            latency_us: latency.as_secs_f64() * 1e6,
            report,
        });
        let mut w = lock(&self.window);
        w.free.push(slot);
        w.completed += 1;
        if w.completed == server.sequence.len() {
            drop(w);
            self.ready.close();
        }
    }

    /// The **delivery deadline**, behind [`Next::AllIdle`]: every worker is idle and
    /// nothing is queued, so every live world is stuck — and since a doomed world is
    /// failed by its own count the moment it quiesces, what is left waits behind a
    /// sequence gap. Exactly one worker gets here (all others are blocked on the
    /// queue), which is what makes the verdict single: it sits out the modelled
    /// deadline, then skips the gaps of every stuck world under that world's lock
    /// and carries on.
    fn delivery_deadline(&self) {
        if !self.server.deadline_wait.is_zero() {
            std::thread::sleep(self.server.deadline_wait);
        }
        let mut repaired = false;
        for slot in &self.slots {
            // A world with keys is running again (a sibling this pass woke may
            // even have re-let the slot): not this deadline's business.
            if let Some(world) = lock(slot).as_mut().filter(|w| w.net.keys() == 0) {
                repaired |= world.repair(&self.ready);
            }
        }
        if repaired {
            return;
        }
        // Nothing was repairable, so nothing was published and every sibling is
        // still blocked: the live worlds are exactly as `AllIdle` found them —
        // holding keys that are not in the queue. Exact counts make this
        // unreachable; it exists to turn a counting bug into typed failures, each
        // with its own stall diagnosis, instead of a hang.
        let mut live = false;
        for slot in 0..self.slots.len() {
            let Some(world) = lock(&self.slots[slot]).take() else {
                continue;
            };
            live = true;
            let stall = world.stall();
            self.complete(slot, world, Err(ExecError::Transport(stall)));
        }
        self.admit();
        if !live {
            // Nothing live and nothing admissible, yet the run is not over: give
            // up loudly (the missing reports panic in `Server::run`), never spin.
            self.ready.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ServerApp;
    use autodist_codegen::rewrite::{rewrite_for_node, ClassPlacement};
    use autodist_ir::frontend::compile_source;
    use std::collections::BTreeMap;

    /// A two-node ping app: `Main` on node 0 bounces off a `Worker` on node 1.
    fn ping_app() -> ServerApp {
        let p = compile_source(
            r#"
            class Worker { int bounce(int x) { return x * 2 + 1; } }
            class Main {
                static int result;
                static void main() {
                    Worker w = new Worker();
                    result = w.bounce(1) + w.bounce(2);
                }
            }
        "#,
        )
        .unwrap();
        let mut home = BTreeMap::new();
        home.insert(p.class_by_name("Main").unwrap(), 0);
        home.insert(p.class_by_name("Worker").unwrap(), 1);
        let placement = ClassPlacement { home, nparts: 2 };
        let programs = (0..2)
            .map(|n| rewrite_for_node(&p, &placement, n).program)
            .collect();
        ServerApp::prepare(programs, NetworkConfig::paper_testbed())
    }

    fn server<'s>(app: &'s ServerApp, sequence: &'s [usize], schedule: Schedule) -> Server<'s> {
        Server {
            apps: vec![app.view()],
            sequence,
            concurrency: 2,
            schedule,
            faults: &[],
            adapt: None,
            profilers: Mutex::new(Vec::new()),
            deadline_wait: Duration::ZERO,
        }
    }

    /// A two-slot run whose slots have each seen one tenant already (roots 0 and 1
    /// are spent; the next ones are 2 and 3).
    fn running<'a, 's>(server: &'a Server<'s>, workers: usize) -> Running<'a, 's> {
        Running {
            server,
            workers,
            ready: ReadyQueue::default(),
            slots: (0..2).map(|_| Mutex::new(None)).collect(),
            window: Mutex::new(Window {
                next: 0,
                free: vec![1, 0],
                roots: vec![2, 3],
                completed: 0,
            }),
            results: Mutex::new((0..server.sequence.len()).map(|_| None).collect()),
        }
    }

    /// The key count is exact at every step of a healthy world: one key out after
    /// the seed, one per delivery slice, zero only when the root completes.
    #[test]
    fn key_count_tracks_published_minus_consumed() {
        let app = ping_app();
        let server = server(&app, &[0], Schedule::Inline);
        let run = running(&server, 1);
        run.admit();
        let mut slices = 0;
        while let Some(((root, rank), count)) = run.ready.pop() {
            let mut guard = lock(&run.slots[0]);
            let world = guard.as_mut().expect("live until its last slice");
            assert_eq!(
                (world.root, world.net.keys()),
                (root, count),
                "one control flow"
            );
            if let Some(res) = world.deliver(rank as usize, count, &run.ready) {
                assert_eq!(res, Ok(Value::Null));
                assert_eq!(world.net.keys(), 0, "the final response was the last key");
                break;
            }
            assert_eq!(world.net.keys(), 1, "the slice published its successor");
            slices += 1;
        }
        assert_eq!(
            slices, 5,
            "NEW + two bounces: six packets, the last one ends it"
        );
    }

    /// A stale key — its world completed, its slot re-let — is skipped by root
    /// mismatch without touching the new tenant's key count, clocks or verdict.
    #[test]
    fn stale_keys_do_not_touch_the_next_tenant() {
        let app = ping_app();
        let server = server(&app, &[0, 0, 0], Schedule::Inline);
        let run = running(&server, 1);
        // Leftovers of the slots' previous tenants, ahead of everything else.
        run.ready.push_counted((0, 0), 3);
        run.ready.push_counted((1, 1), 1);
        run.worker();
        let results = run.results.into_inner().unwrap();
        let solo = crate::cluster::run_distributed(
            &app.programs,
            &crate::cluster::ClusterConfig::paper_testbed(),
        );
        for r in results.into_iter().map(Option::unwrap) {
            assert!(r.report.is_ok(), "{:?}", r.report.error);
            assert_eq!(r.report.virtual_time_us, solo.virtual_time_us);
            assert_eq!(r.report.per_node, solo.per_node);
        }
    }

    /// The global guard: a world whose key went missing (stolen here) leaves every
    /// worker idle; the last one fails it with its real stall shape and the loop
    /// goes on to serve the rest of the sequence.
    #[test]
    fn a_lost_key_fails_that_world_typed_and_the_run_continues() {
        let app = ping_app();
        for workers in [1, 3] {
            let server = server(&app, &[0, 0, 0], Schedule::Pool { threads: workers });
            let run = running(&server, workers);
            run.admit();
            // Steal request 0's only key: its count says 1, the queue says none.
            let stolen = run.ready.pop().expect("request 0's NEW");
            assert_eq!(stolen, ((2, 1), 1));
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| run.worker());
                }
            });
            let results = run.results.into_inner().unwrap();
            let errors: Vec<_> = results
                .iter()
                .map(|r| r.as_ref().unwrap().report.error.clone())
                .collect();
            assert_eq!(
                errors[0],
                Some(ExecError::Transport(TransportStall {
                    gapped: vec![],
                    parked: vec![(0, 1)],
                })),
                "{workers} workers"
            );
            assert_eq!(errors[1..], [None, None], "{workers} workers");
        }
    }
}
