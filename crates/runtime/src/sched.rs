//! The scheduler: **one worker loop** on the calling thread, running each world until
//! it finishes or waits on a sequence gap.
//!
//! Every distributed execution — [`crate::cluster::run_distributed`] and
//! [`crate::serve::run_serving`], under any [`crate::cluster::Schedule`] — is the same
//! thing: a sequence of root computations admitted one after another, each into a
//! **world** of its own that `World::run` drives until its root completes, it is
//! doomed, or it waits behind a sequence gap. A single-root run is a serving run of
//! one request at window 1.
//!
//! The loop runs on the thread that called it and owns everything it touches — the
//! worlds waiting on a gap, the admission window, the results and the adaptive epoch
//! controller — so nothing is shared and nothing is locked. The paper's protocol is
//! synchronous request/response, so a root computation has one live control flow: at
//! most one packet of it is in flight — right after a one-way `NEW`, the creator's
//! local resume, while the `NEW` itself waits in the creator's open packet for the
//! creator's next send (see [`crate::net`] and [`crate::exchange`]; the home's
//! constructor sends nothing). Worlds share nothing: interleaving them would only
//! share the processor, with nothing to overlap. The one timed wait is the modelled
//! `SERVING_DELIVERY_DEADLINE`.
//!
//! * A **world** (`World`) is one in-flight root computation: its request-scoped
//!   nodes (interpreter + parked continuations each) and the [`Transport`] between
//!   them (mailboxes and pending list owned by the world, its fault state). A world
//!   owns all of it: each interpreter holds its node's layout (the program with it) by
//!   `Arc`, so a world borrows nothing from the app it was admitted under and outlives
//!   that app's placement being swapped out.
//! * The three per-node services of the paper's Figure 10 map onto it directly: the
//!   **MPI service** is the world's [`Transport`], the **Execution Starter** is
//!   `World::seed`, and the **Message Exchange** is [`crate::exchange`], driven by
//!   `World::run` plus the shutdown epilogue (`World::finish`).
//! * **A world delivers its pending packets oldest first.** Its transport keeps one
//!   pending entry, the destination rank, per physical packet routed and per packet a
//!   sequence window released, in route order; a lost packet leaves none. `World::run`
//!   takes the oldest entry, receives on that rank and routes what the node sent, so
//!   what a delivery adds goes behind everything already pending. A packet in flight
//!   may hold several frames: one-way `NEW`s and the request that closed their packet.
//!   The receiving node serves them in order within the one delivery, each one-way
//!   constructor to completion before the next frame, so a packet is delivered, held,
//!   lost, duplicated or reordered as a whole.
//! * **A frame that overtook a frame it needs is held** by its node
//!   (`Interp::overtook_a_frame_it_needs`): the `NEW` of the object it names, or the
//!   fingerprint hello on its sender's first packet of the link. It does not touch
//!   the node's clock until that frame has been delivered, and then it is delivered
//!   at once, so the clock sees the order the frames were sent in. Only a reorder
//!   fault can deliver such a frame first (a fault-free link delivers in send order,
//!   and a `NEW` is routed before anything that names its object), so a world without
//!   a fault plan never looks. A `NEW` in the same packet ahead of the frame that
//!   names its object counts as delivered.
//! * **Quiescence is observed where it happens.** A world's pending list is all the
//!   work it has left: when the list runs dry before the root completes, *that* world
//!   is stuck *now*, and `World::run` fails it on the spot if it is doomed (a recorded
//!   packet loss, or nothing left that could free it): no global verdict, no timeout.
//! * A world stuck behind a **sequence gap** waits in the loop's stuck list for the
//!   **delivery deadline**: the moment the window is full of stuck worlds or the
//!   sequence is exhausted, so that no world can make progress. The loop then skips
//!   the gaps of every stuck world and resumes each. For a single-root run the deadline
//!   is the instant its one world runs dry; a serving run additionally sits out a
//!   modelled ack timeout first (`SERVING_DELIVERY_DEADLINE`).
//!
//! Virtual times, message counts and results are deterministic: per-node clocks depend
//! only on that node's packet arrival order, which the transport's FIFO mailboxes and
//! the synchronous protocol fix whatever order the loop runs worlds in.
//! Per-node profiler sinks run on the calling thread, and the call stack they sample
//! lives on each [`Continuation`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::adapt::AdaptState;
use crate::cluster::{stats_of, ExecutionReport, NodeProfiler};
use crate::exchange::{shutdown_frame, DistState, Reply, ServeOutcome};
use crate::interp::{loss_to_error, Continuation, ExecError, Interp, TaskOutcome, TransportStall};
use crate::net::{FaultPlan, MpiEndpoint, Packet, PacketKind, Transport};
use crate::serve::{RequestReport, ServerApp};
use crate::value::Value;

/// What to do with a task's result once its bottom frame returns.
enum TaskDone {
    /// The Execution Starter's `main` on the launch node: its result ends the world.
    Root,
    /// A serving computation: answer request `req_id` from `to` as `reply` says.
    Reply {
        to: usize,
        req_id: u64,
        reply: Reply,
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
    /// Frames that overtook a frame they need (a `NEW` or a hello), in the order
    /// they arrived.
    held: Vec<Packet>,
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
                    TaskDone::Reply { to, req_id, reply } => {
                        let result = match reply {
                            Reply::Override(v) => res.map(|_| v),
                            Reply::Result => res,
                        };
                        self.interp.send_reply(to, req_id, result);
                        None
                    }
                }
            }
        }
    }

    /// Delivers one packet — or, when `screen` is set and it overtook a frame it
    /// needs, holds it. After a delivery, each held frame that no longer waits is
    /// delivered, oldest first.
    fn deliver(&mut self, pkt: Packet, screen: bool) -> Option<Result<Value, ExecError>> {
        if screen && self.interp.overtook_a_frame_it_needs(&pkt) {
            self.held.push(pkt);
            return None;
        }
        let mut res = self.deliver_one(pkt);
        while res.is_none() {
            let interp = &self.interp;
            let Some(i) = self
                .held
                .iter()
                .position(|p| !interp.overtook_a_frame_it_needs(p))
            else {
                break;
            };
            let pkt = self.held.remove(i);
            res = self.deliver_one(pkt);
        }
        res
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
                    ServeOutcome::Failed(e) => Some(Err(e)),
                    ServeOutcome::Spawned { task, reply } => self.run(CoopTask {
                        cont: task,
                        done: TaskDone::Reply {
                            to: pkt.from,
                            req_id: pkt.req_id,
                            reply,
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
    nodes: Vec<CoopNode>,
    /// Mailboxes, the pending list and the fault state. Owned here and handed to
    /// nobody.
    net: Transport,
    /// Position in the submitted sequence.
    index: usize,
    /// Index of the app this request instantiated.
    app: usize,
    started: Instant,
}

impl World {
    /// The Execution Starter: launches `main` as the root continuation on the
    /// launch node and routes what it sent. Returns the root result if `main`
    /// finished without parking.
    fn seed(&mut self) -> Option<Result<Value, ExecError>> {
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
        self.net.route(node.endpoint());
        res
    }

    /// Runs the world until it finishes or waits on a gap: delivers its pending
    /// packets oldest first. Returns the root result, or the typed error of a doomed
    /// world, when the world is over; `None` when it waits behind a sequence gap for
    /// the delivery deadline.
    fn run(&mut self) -> Option<Result<Value, ExecError>> {
        while let Some(rank) = self.net.next_pending() {
            if let Some(res) = self.deliver(rank) {
                return Some(res);
            }
            #[cfg(test)]
            crate::explore::check_dry(&mut self.net, self.nodes.len());
        }
        self.doomed().map(Err)
    }

    /// Delivers what the next receive on node `rank` yields, if anything, and routes
    /// what the node sent on the way: fault rolls, sequencing, duplicate copies,
    /// mailbox push. Returns the root result when this delivery ends the world.
    fn deliver(&mut self, rank: usize) -> Option<Result<Value, ExecError>> {
        let pkt = self.net.recv(rank)?;
        let screen = self.net.faulted();
        let node = &mut self.nodes[rank];
        let res = node.deliver(pkt, screen);
        self.net.route(node.endpoint());
        res
    }

    /// Why a world whose pending list ran dry can never complete, if it cannot.
    /// Under fault-free execution one logical control flow is live at any moment, so
    /// running dry before the root completes would be a scheduler bug; with a fault
    /// plan it means a packet is owed. In order:
    ///
    /// 1. a recorded packet loss → the typed error ([`ExecError::MessageTimeout`] /
    ///    [`ExecError::NodeDown`]); under the synchronous protocol a single lost
    ///    packet dooms the computation;
    /// 2. a sequence gap on some rank (a reorder whose partner is still owed) →
    ///    `None`: the world waits for the delivery deadline to repair it;
    /// 3. neither → a typed [`ExecError::Transport`] naming which continuations are
    ///    parked on which requests — a genuine deadlock reports its shape. A request
    ///    held for a `NEW` that never came is named by its requester's
    ///    `(rank, request)` among them.
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
    /// are not coming. Skips every gap and runs the world on. A gap always has a
    /// packet behind it, so a repair either releases one or leaves a world with no
    /// gap, which runs dry at once and fails with its stall shape: the loop never
    /// waits twice on a world it cannot advance.
    fn resume(&mut self) -> Option<Result<Value, ExecError>> {
        self.net.repair_gaps();
        self.run()
    }

    /// The epilogue of every world: snapshot the launch node, broadcast and deliver
    /// the Message Exchange's orderly shutdown (bookkeeping, not part of the
    /// measured execution — it only advances each node's clock to the shutdown's
    /// arrival) and assemble the report. The execution ends when the launch node
    /// finishes `main`; its clock has already absorbed every synchronous round trip,
    /// so node 0's final clock is the execution time the paper measures.
    ///
    /// The root can complete holding one-way `NEW`s in an open packet that no later
    /// request will close, or before a `NEW` it sent was delivered. The open packets
    /// are sent first — the launch node's before its snapshot, so its clock and
    /// counters include the send — and every such `NEW` is delivered here, ahead of
    /// the shutdown, its constructor run to completion: the world is over, so a
    /// packet buffered behind a sequence gap no later frame will fill is released
    /// first. A constructor that faults here fails the world, and so does a recorded
    /// loss, though the root completed. Every mailbox is drained — the launch node's
    /// after its snapshot — before the fault summary is taken.
    fn finish(mut self, root: Result<Value, ExecError>, wall: Duration) -> ExecutionReport {
        for node in &mut self.nodes {
            node.interp.flush_open_packet();
            self.net.route(node.endpoint());
        }
        let node0 = &mut self.nodes[0];
        let stats0 = stats_of(&node0.interp, 0);
        let final_statics = node0.interp.statics_snapshot();
        // Control traffic: uncorrelated (`req_id` 0), so no fault plan touches it.
        // It is received below, not through the pending list: the world is over.
        // Each rank gets its own copy of the one-byte frame.
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
        self.net.repair_gaps();
        let screen = self.net.faulted();
        let mut late = None;
        let mut per_node = vec![stats0];
        for (rank, node) in self.nodes.iter_mut().enumerate() {
            self.net.drain(rank, |pkt| match pkt.kind {
                PacketKind::Request => {
                    if let Some(Err(e)) = node.deliver(pkt, screen) {
                        late.get_or_insert(e);
                    }
                }
                PacketKind::Response => node.arrive(&pkt),
            });
            // A leftover request answered just now still reaches a later rank.
            self.net.route(node.endpoint());
            if rank > 0 {
                per_node.push(stats_of(&node.interp, rank));
            }
        }
        // Every packet has been received, so a duplicate counts as suppressed
        // whenever it was taken.
        let faults = self.net.fault_summary();
        let error = root
            .err()
            .or_else(|| self.net.first_loss().map(loss_to_error))
            .or(late);
        // Dropping the nodes drops any attached profiler sinks, which flushes a
        // planner sink's per-request tallies into its shared profile — before the
        // epoch controller (which runs right after this) consults the planner.
        drop(self);
        ExecutionReport {
            virtual_time_us: per_node[0].clock_us,
            wall_time_ms: wall.as_secs_f64() * 1e3,
            per_node,
            final_statics,
            error,
            faults,
        }
    }
}

/// The modelled *wall-clock* length of the delivery deadline in serving mode — the
/// only modelled wait in the runtime: a receiver holding packets behind a sequence gap
/// cannot know the missing one is not coming until the link has stayed quiet for an
/// ack timeout, so a server with nothing left to run sits that long before skipping
/// the gap. Which worlds are stuck, and that nothing else can run, is observed, never
/// timed; this is the price of the repair, not a detector. The committed benchmark's
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
    /// Maximum worlds waiting on a sequence gap at once (the closed-loop window).
    pub(crate) concurrency: usize,
    /// `faults[i]` is request `i`'s fault plan, taken at its admission.
    pub(crate) faults: Vec<Option<FaultPlan>>,
    /// Adaptive-placement epoch controller; `None` keeps the admission and
    /// completion paths identical to a server without it.
    pub(crate) adapt: Option<AdaptState>,
    /// Modelled wall-clock length of the delivery deadline (see
    /// [`Running::delivery_deadline`]): how long an idle server gives a reordered
    /// packet's predecessor to show up before skipping it.
    pub(crate) deadline_wait: Duration,
}

/// The state [`Server::run`] adds around a [`Server`] for the duration of the run.
struct Running<'a, 's> {
    server: &'a mut Server<'s>,
    /// Worlds waiting behind a sequence gap for the delivery deadline, in the order
    /// they got stuck.
    stuck: Vec<World>,
    /// Next sequence index to admit.
    next: usize,
    /// Per-request outcomes, indexed by submission order.
    results: Vec<Option<RequestReport>>,
    /// The caller's per-node profiler sinks, for request 0 (single-root runs).
    profilers: Vec<Option<NodeProfiler>>,
    /// A seeded choice of delivery and resumption orders, in place of FIFO.
    #[cfg(test)]
    explore: Option<crate::explore::Explorer>,
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
        let requests = server.sequence.len();
        Running {
            server,
            stuck: Vec::new(),
            next: 0,
            results: (0..requests).map(|_| None).collect(),
            profilers,
            #[cfg(test)]
            explore: None,
        }
    }

    /// **The** worker loop: admit the next request and run its world until it
    /// finishes or waits on a gap, until every request has a report. When the window
    /// is full of stuck worlds, or nothing is left to admit, the delivery deadline
    /// repairs and resumes them.
    fn worker(&mut self) {
        let window = self.server.concurrency.max(1);
        while self.next < self.results.len() || !self.stuck.is_empty() {
            #[cfg(test)]
            self.check_stuck(window);
            if self.next < self.results.len() && self.stuck.len() < window {
                let mut world = self.admit();
                let res = world.seed().or_else(|| world.run());
                self.settle(world, res);
            } else {
                self.delivery_deadline();
            }
        }
    }

    /// Reports a world that is over, or parks one that waits on a gap.
    fn settle(&mut self, world: World, res: Option<Result<Value, ExecError>>) {
        match res {
            Some(res) => {
                let report = self.report(world, res);
                let index = report.index;
                self.results[index] = Some(report);
            }
            None => self.stuck.push(world),
        }
    }

    /// Instantiates the next request: a fresh transport under the request's fault
    /// plan, fresh per-node interpreters over the app's shared layouts and class
    /// defaults. The first admission — request 0's — takes the profiler sinks.
    fn admit(&mut self) -> World {
        let index = self.next;
        self.next += 1;
        let mut own = std::mem::take(&mut self.profilers);
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
        let size = app.nodes();
        let nodes = app
            .layouts
            .iter()
            .zip(&app.defaults)
            .enumerate()
            .map(|(rank, (layout, defaults))| {
                let dist = DistState::new(MpiEndpoint::new(rank, size, &app.network))
                    .with_one_way(app.one_way.clone());
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
                    held: Vec::new(),
                }
            })
            .collect();
        let net = Transport::new(size, server.faults[index].take());
        #[cfg(test)]
        let net = crate::explore::ordered(net, self.explore.as_mut());
        World {
            nodes,
            net,
            index,
            app: app_idx,
            started: Instant::now(),
        }
    }

    /// The epilogue of a finished world and its report. The epoch controller counts
    /// the completion only *after* the report is sealed: adaptation can only
    /// influence requests admitted later.
    fn report(&mut self, world: World, res: Result<Value, ExecError>) -> RequestReport {
        let latency = world.started.elapsed();
        let (index, app, nodes) = (world.index, world.app, world.nodes.len());
        #[cfg(test)]
        if let Some(explore) = self.explore.as_mut() {
            explore.record(world.net.order.as_ref());
        }
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

    /// The **delivery deadline**: the window is full of worlds waiting on a gap, or
    /// no request is left to admit, so nothing can run. Sits out the modelled
    /// deadline, then repairs and resumes every stuck world in the order they got
    /// stuck.
    fn delivery_deadline(&mut self) {
        if !self.server.deadline_wait.is_zero() {
            std::thread::sleep(self.server.deadline_wait);
        }
        let stuck = std::mem::take(&mut self.stuck);
        #[cfg(test)]
        let stuck = crate::explore::shuffled(stuck, self.explore.as_mut());
        for mut world in stuck {
            let res = world.resume();
            self.settle(world, res);
        }
    }
}

/// Runs `server` with `explore` choosing every world's delivery order and the order
/// stuck worlds resume in; returns the per-request reports and the explorer.
#[cfg(test)]
pub(crate) fn run_explored(
    server: &mut Server<'_>,
    explore: crate::explore::Explorer,
) -> (Vec<RequestReport>, crate::explore::Explorer) {
    let mut run = Running::new(server, Vec::new());
    run.explore = Some(explore);
    run.worker();
    let explore = run.explore.take().expect("set above");
    let reports = run
        .results
        .into_iter()
        .map(|r| r.expect("every request completed or failed"));
    (reports.collect(), explore)
}

#[cfg(test)]
impl World {
    /// Whether this world could deliver something now: a pending entry, or a held
    /// frame that no longer waits.
    fn can_deliver(&self) -> bool {
        !self.net.pending.is_empty()
            || self.nodes.iter().any(|node| {
                let interp = &node.interp;
                node.held
                    .iter()
                    .any(|p| !interp.overtook_a_frame_it_needs(p))
            })
    }
}

#[cfg(test)]
impl Running<'_, '_> {
    /// The explorer's second invariant: no world in the stuck list can deliver, so a
    /// window full of them cannot progress without the delivery deadline.
    fn check_stuck(&mut self, window: usize) {
        let Some(explore) = self.explore.as_mut() else {
            return;
        };
        if self.stuck.iter().any(World::can_deliver) {
            let full = self.stuck.len() >= window;
            explore.violations.push(format!(
                "a stuck world can deliver (window {window}, full: {full})"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetworkConfig;
    use crate::wire::{self, FrameHead, Peek};
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
        let placement = ClassPlacement::new(2, home);
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
            faults: vec![None; sequence.len()],
            adapt: None,
            deadline_wait: Duration::ZERO,
        }
    }

    /// A healthy world has one control flow: one packet is pending after the seed and
    /// after every delivery — right after a one-way `NEW`, the creator's local resume,
    /// the `NEW` itself waiting in the creator's open packet — and none once the root
    /// completes.
    #[test]
    fn a_healthy_world_has_one_pending_packet_until_its_root_completes() {
        let app = ping_app();
        let mut server = server(&app, &[0]);
        let mut world = Running::new(&mut server, Vec::new()).admit();
        assert_eq!(world.seed(), None, "main parks on its NEW");
        assert_eq!(
            world.net.pending,
            [0],
            "main's local resume; the one-way NEW is held back"
        );
        let mut pending = Vec::new();
        loop {
            pending.push(world.net.pending.len());
            let rank = world.net.next_pending().expect("a pending packet");
            if let Some(res) = world.deliver(rank) {
                assert_eq!(res, Ok(Value::Null));
                break;
            }
        }
        assert!(
            world.net.pending.is_empty(),
            "the final response was the last packet"
        );
        assert_eq!(
            pending,
            [1, 1, 1, 1, 1],
            "local resume, two bounces: five deliveries"
        );
        let sent: Vec<_> = world
            .nodes
            .iter_mut()
            .map(|n| n.endpoint().messages_sent)
            .collect();
        assert_eq!(
            sent,
            [2, 2],
            "the NEW rides in the first bounce's packet and owes no reply: four messages"
        );
    }

    /// A request that names an object whose `NEW` never arrives — here the `NEW` is
    /// cut out of its packet by hand, so no loss is recorded — is held, and a world
    /// that runs dry holding it, with no sequence gap, fails typed: its stall shape
    /// names the held request by its parked requester.
    #[test]
    fn a_request_held_for_a_new_that_never_comes_stalls() {
        let app = ping_app();
        let mut server = server(&app, &[0]);
        server.faults = vec![Some(FaultPlan::quiet(1))];
        let mut world = Running::new(&mut server, Vec::new()).admit();
        assert_eq!(world.seed(), None, "main parks on its NEW");
        assert_eq!(world.net.next_pending(), Some(0), "main's local resume");
        assert_eq!(world.deliver(0), None, "main sends the first bounce");
        assert_eq!(world.net.next_pending(), Some(1));
        let mut pkt = world
            .net
            .recv(1)
            .expect("the NEW and the bounce, in sequence");
        assert_eq!(
            pkt.req_id, 2,
            "a packet carries its last frame's request id"
        );
        let mut frames = Peek(&pkt.data);
        assert!(wire::split_hello(&mut frames).unwrap().is_some());
        let hello = pkt.data.len() - frames.len();
        let new = matches!(
            wire::decode_head(&mut frames),
            Ok(FrameHead::New { argc: 0, .. })
        );
        assert!(new, "the NEW leads the packet");
        pkt.data = [&pkt.data[..hello], &*frames].concat().into();
        // Posted back past the sequence window, which has already taken its number.
        pkt.seq = 0;
        world.net.post(pkt);
        assert_eq!(
            world.run(),
            Some(Err(ExecError::Transport(TransportStall {
                gapped: vec![],
                parked: vec![(0, 2)],
            })))
        );
        assert_eq!(world.nodes[1].held.len(), 1, "the first bounce, #2");
        assert_eq!(world.nodes[1].interp.counters.requests_served, 0);
    }

    /// Runs request 0 of `app` and returns its world as it stood when the root
    /// completed.
    fn finished_world(app: &ServerApp) -> World {
        let mut server = server(app, &[0]);
        let mut world = Running::new(&mut server, Vec::new()).admit();
        let res = world.seed().or_else(|| world.run());
        assert_eq!(res, Some(Ok(Value::Null)));
        world
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
        let placement = ClassPlacement::new(2, home);
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

    /// Never spin: a world whose pending list was emptied (here by hand) before its
    /// root completed has nothing a gap repair could release, so the delivery
    /// deadline fails it with its stall shape and the loop goes on to serve the rest
    /// of the sequence.
    #[test]
    fn an_emptied_pending_list_fails_that_world_typed_and_the_run_continues() {
        let app = ping_app();
        let mut server = server(&app, &[0, 0, 0]);
        let mut run = Running::new(&mut server, Vec::new());
        let mut world = run.admit();
        assert_eq!(world.seed(), None, "main parks on its NEW");
        assert_eq!(
            world.net.next_pending(),
            Some(0),
            "main's local resume; the NEW waits in its open packet"
        );
        assert_eq!(world.net.next_pending(), None);
        run.stuck.push(world);
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
