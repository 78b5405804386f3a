//! The scheduler: **one worker loop** on the calling thread, with counted per-world
//! quiescence.
//!
//! Every distributed execution — [`crate::cluster::run_distributed`] and
//! [`crate::serve::run_serving`], under any [`crate::cluster::Schedule`] — is the same
//! thing: a sequence of root computations admitted through a window into a fixed table
//! of **worlds** and driven by `Running::worker` taking `(root, rank, count)` entries
//! off one ready queue. A single-root run is a serving run of one request at window 1.
//!
//! The loop runs on the thread that called it and owns everything it touches — the
//! slot table, the ready queue, the admission window, the results and the adaptive
//! epoch controller — so nothing is shared and nothing is locked. The paper's protocol
//! is synchronous request/response, so a root computation has exactly one live control
//! flow, and worlds share nothing: a second OS thread could only overlap whole
//! requests, and a pool of them never beat this loop on the serving workloads. The
//! one timed wait is the modelled [`SERVING_DELIVERY_DEADLINE`].
//!
//! * A **world** ([`World`]) is one in-flight root computation: its request-scoped
//!   nodes (interpreter + parked continuations each) and the [`Transport`] between
//!   them (mailboxes owned by the world, its key count, its fault state). A world owns
//!   all of it: each interpreter holds its node's layout (the program with it) by
//!   `Arc`, so a world borrows nothing from the app it was admitted under and outlives
//!   that app's placement being swapped out.
//! * The three per-node services of the paper's Figure 10 map onto it directly: the
//!   **MPI service** is the world's [`Transport`], the **Execution Starter** is
//!   `World::seed`, and the **Message Exchange** is [`crate::exchange`], driven by
//!   the delivery slice (`World::deliver`) plus the shutdown epilogue
//!   (`World::finish`).
//! * The slot table has `concurrency` entries and a world's root id is
//!   `slot + slots × generation`, so a popped key finds its world by index, and a
//!   **stale** key (say the duplicate of a finished request's final response) is
//!   recognised by root mismatch and skipped without touching the new tenant.
//! * **A slice's ready entries go to the back of the queue.** What a world's transport
//!   publishes during a slice (routed sends, sequence-window releases, gap repairs) is
//!   appended behind everything already queued, and the loop pops the oldest entry
//!   next: worlds take turns slice by slice, in the order their entries were published.
//! * **Quiescence is counted, not inferred.** Ready keys for a world are only ever
//!   published by that world's own transport, so its key count, published − consumed,
//!   lives beside the mailboxes it counts and is exact: a counted key is queued or
//!   being delivered. When the count reaches zero and the root has not completed,
//!   nothing is queued for it — *that* world is stuck *now*, and the slice that saw it
//!   fails it on the spot if it is doomed (a recorded packet loss, or nothing left
//!   that could free it): no global verdict, no timeout.
//! * A world stuck behind a **sequence gap** waits for the **delivery deadline**: the
//!   moment the ready queue is empty. Every entry a slice published is queued before
//!   the next pop, so an empty queue is a fact — no world can make progress — and the
//!   loop skips the gaps of every stuck world and carries on. For a single-root run the
//!   deadline is the instant its one world quiesces; a serving run additionally sits
//!   out a modelled ack timeout first ([`SERVING_DELIVERY_DEADLINE`]).
//!
//! Virtual times, message counts and results are deterministic: per-node clocks depend
//! only on that node's packet arrival order, which the transport's FIFO mailboxes and
//! the synchronous protocol fix whatever order the queue interleaves worlds in.
//! Per-node profiler sinks run on the calling thread, and the call stack they sample
//! lives on each [`Continuation`].

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::adapt::AdaptState;
use crate::cluster::{stats_of, ExecutionReport, NodeProfiler};
use crate::exchange::{shutdown_frame, DistState, ServeOutcome};
use crate::interp::{loss_to_error, Continuation, ExecError, Interp, TaskOutcome, TransportStall};
use crate::net::{FaultPlan, MpiEndpoint, Packet, PacketKind, Ready, Transport};
use crate::serve::{RequestReport, ServerApp};
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
struct CoopNode {
    interp: Interp,
    parked: Vec<(u64, CoopTask)>,
}

impl CoopNode {
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

    fn endpoint(&mut self) -> &mut MpiEndpoint {
        let dist = self.interp.dist.as_mut();
        &mut dist.expect("world nodes are distributed").endpoint
    }

    /// A packet reaches this node: its clock advances to the arrival time (a
    /// receiver can never observe a message before it was sent).
    fn arrive(&mut self, pkt: &Packet) {
        self.interp.clock_us = self.interp.clock_us.max(pkt.arrival_time_us);
    }

    fn settle(&mut self, task: CoopTask, outcome: TaskOutcome) -> Option<Result<Value, ExecError>> {
        match outcome {
            TaskOutcome::Parked { req_id } => {
                self.parked.push((req_id, task));
                None
            }
            TaskOutcome::Done(res) => {
                self.interp.recycle_task(task.cont);
                match task.done {
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
                }
            }
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
struct World {
    /// The id stamped on this world's ready keys: `slot + slots × generation`.
    root: u32,
    nodes: Vec<CoopNode>,
    /// Mailboxes, the exact ready-key count and the fault state. Owned here and
    /// handed to nobody.
    net: Transport,
    /// Position in the submitted sequence.
    index: usize,
    /// Index of the app this request instantiated.
    app: usize,
    started: Instant,
}

impl World {
    /// The Execution Starter: launches `main` as the root continuation on the
    /// launch node, publishing its ready entries into `out`. Returns the root result
    /// if the world is already over.
    fn seed(&mut self, out: &mut VecDeque<Ready>) -> Option<Result<Value, ExecError>> {
        let node = &mut self.nodes[0];
        let res = match node.interp.layout().program().entry {
            None => Some(Err(ExecError::NoEntry)),
            Some(entry) => match node.interp.task_for(entry, Vec::new()) {
                None => Some(Ok(Value::Null)),
                Some(cont) => node.run(CoopTask {
                    cont,
                    done: TaskDone::Root,
                }),
            },
        };
        self.route(0, out);
        self.settle(0, res)
    }

    /// One delivery slice: the popped entry's `count` packets on node `rank` (a
    /// coalesced ready entry covers several), stopping early on the root result.
    /// Returns the root result when this ends the world.
    fn deliver(
        &mut self,
        rank: usize,
        count: u32,
        out: &mut VecDeque<Ready>,
    ) -> Option<Result<Value, ExecError>> {
        let mut res = None;
        for _ in 0..count {
            if let Some(pkt) = self.net.recv(rank) {
                res = self.nodes[rank].deliver_one(pkt);
            }
            // Every packet's sends are published before the next one is taken.
            self.route(rank, out);
            if res.is_some() {
                break;
            }
        }
        self.settle(count, res)
    }

    /// Ends a packet's slice on node `rank`: routes what the node sent — fault
    /// rolls, sequencing, duplicate copies, mailbox push — and publishes one
    /// counted ready entry per destination (a window release's self keys included)
    /// into `out`.
    fn route(&mut self, rank: usize, out: &mut VecDeque<Ready>) {
        self.net.route(self.nodes[rank].endpoint());
        self.net.publish(self.root, out);
    }

    /// Closes a slice that consumed `consumed` keys. A live world whose count
    /// reaches zero is stuck — nothing is queued for it — and unless a gap repair can still free it ([`World::repair`]) it is
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
    /// are not coming. Skips every gap and publishes the released packets' keys into
    /// `out` (no delivery slice is coming to do it); `false` if there was nothing to
    /// release.
    fn repair(&mut self, out: &mut VecDeque<Ready>) -> bool {
        if self.net.repair_gaps() > 0 {
            self.net.publish(self.root, out);
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
        // Its keys are never published: the world is over, nobody pops them. Each
        // rank gets its own copy of the one-byte frame.
        let data = shutdown_frame();
        let arrival_time_us = node0.interp.clock_us + node0.endpoint().transfer_time_us(data.len());
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
        // planner sink's per-request tallies into its shared profile — before the
        // epoch controller (which runs right after this) consults the planner.
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

/// Everything one run of the worker loop needs. [`crate::serve::run_serving`] and
/// [`crate::cluster::run_distributed_profiled`] both fill this in and call
/// [`Server::run`]; `adapt` is `None` for the latter.
pub(crate) struct Server<'s> {
    pub(crate) apps: &'s [ServerApp],
    /// `sequence[i]` names the app request `i` instantiates.
    pub(crate) sequence: &'s [usize],
    /// Maximum worlds in flight (the closed-loop window).
    pub(crate) concurrency: usize,
    /// Fault plans by submission index.
    pub(crate) faults: &'s [(usize, FaultPlan)],
    /// Adaptive-placement epoch controller; `None` keeps the admission and
    /// completion paths identical to a server without it.
    pub(crate) adapt: Option<AdaptState>,
    /// Modelled wall-clock length of the delivery deadline (see
    /// [`Running::delivery_deadline`]): how long an idle server gives a reordered
    /// packet's predecessor to show up before skipping it.
    pub(crate) deadline_wait: Duration,
}

/// An admission: request index, slot, root id, and the caller's profiler sinks
/// (non-empty for request 0 only).
type Claim = (usize, usize, u32, Vec<Option<NodeProfiler>>);

/// A world taken out of `slot` (or never installed there) with its root result.
type Done = (usize, World, Result<Value, ExecError>);

/// The state [`Server::run`] adds around a [`Server`] for the duration of the run.
struct Running<'a, 's> {
    server: &'a mut Server<'s>,
    /// The world table, a power of two long so `root & mask` finds an entry's slot.
    slots: Vec<Option<World>>,
    /// Ready entries of every world, oldest first.
    queue: VecDeque<Ready>,
    /// Next sequence index to admit.
    next: usize,
    /// Slots with no live world.
    free: Vec<usize>,
    /// The root id each slot's next tenant gets.
    roots: Vec<u32>,
    completed: usize,
    /// Per-request outcomes, indexed by submission order.
    results: Vec<Option<RequestReport>>,
    /// The caller's per-node profiler sinks, for request 0 (single-root runs).
    profilers: Vec<Option<NodeProfiler>>,
}

impl<'s> Server<'s> {
    /// Runs the closed loop to completion on the calling thread and returns the
    /// per-request outcomes in submission order. `profilers[r]`, when present, is
    /// attached to rank `r` of request 0.
    pub(crate) fn run(&mut self, profilers: Vec<Option<NodeProfiler>>) -> Vec<RequestReport> {
        let mut run = Running::new(self, profilers);
        run.worker();
        run.results
            .into_iter()
            .map(|r| r.expect("every request completed or failed"))
            .collect()
    }
}

impl<'a, 's> Running<'a, 's> {
    fn new(server: &'a mut Server<'s>, profilers: Vec<Option<NodeProfiler>>) -> Self {
        let concurrency = server.concurrency.max(1);
        let slots = concurrency.next_power_of_two();
        let requests = server.sequence.len();
        Running {
            server,
            slots: (0..slots).map(|_| None).collect(),
            queue: VecDeque::new(),
            next: 0,
            free: (0..concurrency).rev().collect(),
            roots: (0..slots as u32).collect(),
            completed: 0,
            results: (0..requests).map(|_| None).collect(),
            profilers,
        }
    }

    /// **The** worker loop: fill the window, then pop the oldest ready entry and run
    /// one delivery slice on that world's node, until every request has a report. A
    /// world completes on the slice that delivers its final response, which reports
    /// it and refills the freed slot; an empty queue is the delivery deadline.
    fn worker(&mut self) {
        self.refill(None);
        while self.completed < self.results.len() {
            let Some((root, rank, count)) = self.queue.pop_front() else {
                self.delivery_deadline();
                continue;
            };
            let slot = root as usize & (self.slots.len() - 1);
            // An entry whose root is not the slot's tenant is stale — its world
            // already completed — and is skipped, count untouched.
            let done = match self.slots[slot].as_mut() {
                Some(world) if world.root == root => {
                    world.deliver(rank as usize, count, &mut self.queue)
                }
                _ => None,
            };
            if let Some(res) = done {
                let world = self.slots[slot].take().expect("the world just delivered");
                self.refill(Some((slot, world, res)));
            }
        }
    }

    /// Completes `done`, if given, then admits requests until the window is full or
    /// the sequence is exhausted. What the seeds publish goes onto the queue.
    fn refill(&mut self, mut done: Option<Done>) {
        loop {
            if let Some((slot, world, res)) = done.take() {
                let report = self.report(world, res);
                let index = report.index;
                self.results[index] = Some(report);
                self.free.push(slot);
                self.completed += 1;
            }
            let Some(claim) = self.claim() else { return };
            done = self.admit_one(claim);
        }
    }

    /// Claims the next admission, if the window has a free slot and the sequence is
    /// not exhausted. The first claim — request 0's — takes the profiler sinks.
    fn claim(&mut self) -> Option<Claim> {
        if self.next >= self.results.len() {
            return None;
        }
        let slot = self.free.pop()?;
        let index = self.next;
        self.next += 1;
        let root = self.roots[slot];
        self.roots[slot] = root.wrapping_add(self.slots.len() as u32);
        Some((index, slot, root, std::mem::take(&mut self.profilers)))
    }

    /// Instantiates a claimed request: a fresh transport, fresh per-node interpreters
    /// over the app's shared layouts and class defaults, then the root computation
    /// seeded on node 0. The world is then installed in its slot, unless seeding
    /// already ended it, in which case it is returned for completion.
    fn admit_one(&mut self, (index, slot, root, mut own): Claim) -> Option<Done> {
        let server = &mut *self.server;
        let app_idx = server.sequence[index];
        // Adaptive placement: admit under the app's *current* placement — the seed
        // one the caller passed in, or whichever the epoch controller last
        // installed. The choice is sealed at admission — the world holds its own
        // `Arc`s of the placement's layouts — and a later swap never touches it.
        // The planner's sinks are observational (they record, never steer), so
        // attaching them leaves virtual time and traffic byte-identical — but the
        // instrumentation costs wall-clock, so only an epoch's profiled prefix of
        // admissions carries them.
        let (current, profiled) = server
            .adapt
            .as_mut()
            .map_or((None, false), |adapt| adapt.admit(app_idx));
        let planner = server.adapt.as_ref().filter(|_| profiled);
        let app = current.as_deref().unwrap_or(&server.apps[app_idx]);
        let plan = server.faults.iter().find(|(i, _)| *i == index);
        let size = app.nodes();
        let nodes = app
            .layouts
            .iter()
            .zip(&app.defaults)
            .enumerate()
            .map(|(rank, (layout, defaults))| {
                let dist = DistState::new(MpiEndpoint::new(rank, size, &app.network));
                let interp = Interp::with_defaults(Arc::clone(layout), Arc::clone(defaults));
                let mut interp = interp.with_dist(dist);
                let sink = match own.get_mut(rank).and_then(Option::take) {
                    Some(p) => Some((p.sink, p.sample_interval)),
                    None => planner
                        .and_then(|adapt| adapt.profiler_for(app_idx, rank))
                        .map(|sink| (sink, 0)),
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
        let mut world = World {
            root,
            nodes,
            net: Transport::new(size, plan.map(|(_, plan)| plan.clone())),
            index,
            app: app_idx,
            started: Instant::now(),
        };
        match world.seed(&mut self.queue) {
            // The request never parked (e.g. a single-node placement), or is
            // already doomed: the caller completes it and keeps admitting.
            Some(res) => Some((slot, world, res)),
            None => {
                self.slots[slot] = Some(world);
                None
            }
        }
    }

    /// The epilogue of a finished world and its report. The epoch controller counts
    /// the completion only *after* the report is sealed: adaptation can only
    /// influence requests admitted later.
    fn report(&mut self, world: World, res: Result<Value, ExecError>) -> RequestReport {
        let latency = world.started.elapsed();
        let (index, app, nodes) = (world.index, world.app, world.nodes.len());
        let report = world.finish(res, latency);
        if let Some(adapt) = self.server.adapt.as_mut() {
            adapt.observe(app, nodes);
        }
        RequestReport {
            index,
            app,
            latency_us: latency.as_secs_f64() * 1e6,
            report,
        }
    }

    /// The **delivery deadline**: the queue is empty, so every live world is stuck —
    /// and since a doomed world is failed by its own count the moment it quiesces,
    /// what is left waits behind a sequence gap. Sits out the modelled deadline, then
    /// skips the gaps of every stuck world; the released keys go onto the queue.
    fn delivery_deadline(&mut self) {
        if !self.server.deadline_wait.is_zero() {
            std::thread::sleep(self.server.deadline_wait);
        }
        let mut repaired = false;
        // Only a world whose count is zero can be waiting on a gap.
        for world in self.slots.iter_mut().flatten() {
            if world.net.keys() == 0 {
                repaired |= world.repair(&mut self.queue);
            }
        }
        if repaired {
            return;
        }
        // Nothing was repairable, so the live worlds hold keys that are not in the
        // queue. Exact counts make this unreachable; it exists to turn a counting bug
        // into typed failures, each with its own stall diagnosis, instead of a hang.
        let stuck: Vec<Done> = (0..self.slots.len())
            .filter_map(|slot| {
                let world = self.slots[slot].take()?;
                let stall = world.stall();
                Some((slot, world, Err(ExecError::Transport(stall))))
            })
            .collect();
        // Nothing live and nothing admissible, yet the run is not over: give up
        // loudly, never spin.
        assert!(!stuck.is_empty(), "the run stalled with no live world");
        for done in stuck {
            self.refill(Some(done));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetworkConfig;
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

    fn server<'s>(app: &'s ServerApp, sequence: &'s [usize]) -> Server<'s> {
        Server {
            apps: std::slice::from_ref(app),
            sequence,
            concurrency: 2,
            faults: &[],
            adapt: None,
            deadline_wait: Duration::ZERO,
        }
    }

    /// A two-slot run whose slots have each seen one tenant already (roots 0 and 1
    /// are spent; the next ones are 2 and 3).
    fn running<'a, 's>(server: &'a mut Server<'s>) -> Running<'a, 's> {
        let mut run = Running::new(server, Vec::new());
        run.roots = vec![2, 3];
        run
    }

    /// The key count is exact at every step of a healthy world: one key out after
    /// the seed, one per delivery slice, zero only when the root completes.
    #[test]
    fn key_count_tracks_published_minus_consumed() {
        let app = ping_app();
        let mut server = server(&app, &[0]);
        let mut run = running(&mut server);
        run.refill(None);
        let mut slices = 0;
        while let Some((root, rank, count)) = run.queue.pop_front() {
            let world = run.slots[0].as_mut().expect("live until its last slice");
            assert_eq!(
                (world.root, world.net.keys()),
                (root, count),
                "one control flow"
            );
            if let Some(res) = world.deliver(rank as usize, count, &mut run.queue) {
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

    /// Runs request 0 of `app` slice by slice and returns its world as it stood when
    /// the root completed.
    fn finished_world(app: &ServerApp) -> World {
        let mut server = server(app, &[0]);
        let mut run = running(&mut server);
        run.refill(None);
        while let Some((_, rank, count)) = run.queue.pop_front() {
            let world = run.slots[0].as_mut().expect("live until its last slice");
            if let Some(res) = world.deliver(rank as usize, count, &mut run.queue) {
                assert_eq!(res, Ok(Value::Null));
                return run.slots[0].take().expect("the world just delivered");
            }
        }
        panic!("the root never completed");
    }

    /// A node interns what it receives, so shipping one string over and over costs
    /// its table one entry, not one per message — and a string equal to one of the
    /// receiver's literals costs none.
    #[test]
    fn a_tag_shipped_ten_thousand_times_is_interned_once() {
        let p = compile_source(
            r#"
            class Sink {
                int n;
                int take(String tag) { this.n = this.n + 1; return this.n; }
            }
            class Main {
                static int result;
                static void main() {
                    Sink s = new Sink();
                    String built = "ta" + "g";
                    int i = 0;
                    while (i < 10000) {
                        result = s.take(built) + s.take("a literal tag");
                        i = i + 1;
                    }
                }
            }
        "#,
        )
        .unwrap();
        let mut home = BTreeMap::new();
        home.insert(p.class_by_name("Main").unwrap(), 0);
        home.insert(p.class_by_name("Sink").unwrap(), 1);
        let placement = ClassPlacement { home, nparts: 2 };
        let programs = (0..2)
            .map(|n| rewrite_for_node(&p, &placement, n).program)
            .collect();
        let world = finished_world(&ServerApp::prepare(
            programs,
            NetworkConfig::paper_testbed(),
        ));
        let receiver = &world.nodes[1].interp;
        assert_eq!(receiver.counters.requests_served, 1 + 2 * 10_000);
        assert_eq!(receiver.interned_strings(), 1, "\"tag\", once");
        assert_eq!(world.nodes[0].interp.interned_strings(), 1);
    }

    /// A stale key — its world completed, its slot re-let — is skipped by root
    /// mismatch without touching the new tenant's key count, clocks or verdict.
    #[test]
    fn stale_keys_do_not_touch_the_next_tenant() {
        let app = ping_app();
        let mut server = server(&app, &[0, 0, 0]);
        let mut run = running(&mut server);
        // Leftovers of the slots' previous tenants, ahead of everything else.
        run.queue.extend([(0, 0, 3), (1, 1, 1)]);
        run.worker();
        let results = run.results;
        let programs: Vec<_> = app.layouts.iter().map(|l| l.program().clone()).collect();
        let solo = crate::cluster::run_distributed(
            &programs,
            &crate::cluster::ClusterConfig::paper_testbed(),
        );
        for r in results.into_iter().map(Option::unwrap) {
            assert!(r.report.is_ok(), "{:?}", r.report.error);
            assert_eq!(r.report.virtual_time_us, solo.virtual_time_us);
            assert_eq!(r.report.per_node, solo.per_node);
        }
    }

    /// The global guard: a world whose key went missing (stolen here) leaves the
    /// queue empty; the delivery deadline fails it with its real stall shape and the
    /// loop goes on to serve the rest of the sequence.
    #[test]
    fn a_lost_key_fails_that_world_typed_and_the_run_continues() {
        let app = ping_app();
        let mut server = server(&app, &[0, 0, 0]);
        let mut run = running(&mut server);
        run.refill(None);
        // Steal request 0's only key: its count says 1, the queue says none.
        assert_eq!(run.queue.pop_front(), Some((2, 1, 1)), "request 0's NEW");
        run.worker();
        let errors: Vec<_> = run
            .results
            .iter()
            .map(|r| r.as_ref().unwrap().report.error.clone())
            .collect();
        assert_eq!(
            errors[0],
            Some(ExecError::Transport(TransportStall {
                gapped: vec![],
                parked: vec![(0, 1)],
            }))
        );
        assert_eq!(errors[1..], [None, None]);
    }
}
