//! The simulated MPI transport.
//!
//! The paper runs on two Pentium III machines connected by 100 Mb Ethernet and talks
//! MPI between them. We have one machine, so the "network" is a set of crossbeam
//! channels between node threads plus an explicit cost model: each node has a relative
//! CPU speed, and every message pays `latency + bytes / bandwidth` of virtual time.
//! Virtual clocks are carried on the packets so causality is preserved (a receiver can
//! never observe a message before it was sent).

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::wire::{SeqVerdict, SeqWindow};

/// The cost model for the simulated cluster.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// One-way message latency in microseconds (100 Mb Ethernet + MPI stack ≈ 150 µs).
    pub latency_us: f64,
    /// Link bandwidth in megabits per second.
    pub bandwidth_mbps: f64,
    /// Relative CPU speed of each node (1.0 = the paper's 800 MHz computation node).
    pub node_speeds: Vec<f64>,
    /// Virtual microseconds charged per interpreted bytecode instruction at speed 1.0.
    pub instr_cost_us: f64,
}

impl NetworkConfig {
    /// The paper's evaluation platform: node 0 is the 800 MHz Pentium III where the
    /// user starts the program, node 1 the 1.7 GHz service node, joined by 100 Mb
    /// Ethernet.
    pub fn paper_testbed() -> Self {
        NetworkConfig {
            latency_us: 150.0,
            bandwidth_mbps: 100.0,
            node_speeds: vec![1.0, 2.1],
            instr_cost_us: 0.02,
        }
    }

    /// A uniform cluster of `n` nodes with identical speeds.
    pub fn uniform(n: usize) -> Self {
        NetworkConfig {
            latency_us: 150.0,
            bandwidth_mbps: 100.0,
            node_speeds: vec![1.0; n.max(1)],
            instr_cost_us: 0.02,
        }
    }

    /// Number of nodes described by the configuration.
    pub fn nodes(&self) -> usize {
        self.node_speeds.len()
    }

    /// The speed factor of `node` (defaults to 1.0 when out of range).
    pub fn speed_of(&self, node: usize) -> f64 {
        self.node_speeds.get(node).copied().unwrap_or(1.0)
    }

    /// Virtual time for a message of `bytes` bytes to traverse the link.
    pub fn transfer_time_us(&self, bytes: usize) -> f64 {
        self.latency_us + (bytes as f64 * 8.0) / self.bandwidth_mbps
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::paper_testbed()
    }
}

/// Per-link fault probabilities of a [`FaultPlan`]. Each probability is rolled
/// independently per packet from the plan's seed, so a given `(seed, link, seq)`
/// always meets the same fate regardless of schedule or wall-clock interleaving.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkProbs {
    /// Probability one transmission attempt of a packet is dropped. Each drop
    /// triggers a retransmission after the retry backoff until
    /// [`FaultPlan::max_retries`] is exhausted — then the packet is *lost* and the
    /// delivery deadline surfaces a typed error.
    pub drop: f64,
    /// Probability a packet is sent twice (the receiver's sequence window
    /// suppresses the copy).
    pub duplicate: f64,
    /// Probability a packet swaps sequence order with the next packet on its link
    /// (the receiver's sequence window re-sorts the pair; if the partner never
    /// comes, the delivery deadline repairs the gap).
    pub reorder: f64,
    /// Probability a packet's arrival is delayed by [`FaultPlan::delay_us`].
    pub delay: f64,
}

/// A kill-node event: rank `rank` stops communicating at virtual time
/// `at_virtual_us` — packets sent to it that would arrive after that instant, and
/// packets it would send after its own clock passes it, are lost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KillNode {
    /// The rank that dies.
    pub rank: usize,
    /// Virtual time of death in microseconds.
    pub at_virtual_us: f64,
}

/// A deterministic fault schedule for one world, reproducible from its seed.
///
/// The plan wraps every sequenced [`MpiEndpoint`] send (correlated request/response
/// traffic; shutdown broadcasts and other `req_id == 0` control messages are exempt
/// — losing a fire-and-forget control packet would model nothing the protocol
/// waits on). Disabled (no plan attached) costs one branch per send/receive and
/// leaves every byte of the execution report untouched.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// PRNG seed: every probabilistic decision is a pure function of
    /// `(seed, from, to, seq, salt)`.
    pub seed: u64,
    /// Default per-link fault probabilities.
    pub probs: LinkProbs,
    /// Per-link overrides, keyed `(from, to)` (consulted before `probs`).
    pub links: Vec<(usize, usize, LinkProbs)>,
    /// Extra virtual delay injected by a delay fault, in microseconds.
    pub delay_us: f64,
    /// Retransmission attempts after a dropped transmission before the packet is
    /// declared lost.
    pub max_retries: u32,
    /// Virtual ack-timeout backoff charged per retransmission, in microseconds.
    pub retry_backoff_us: f64,
    /// Deterministically lose the n-th sequenced packet of the world (0-based,
    /// counted across all endpoints in send order), retries notwithstanding.
    /// This is the "drop any single packet" probe.
    pub drop_exact: Option<u64>,
    /// Kill one rank at a virtual time.
    pub kill_node: Option<KillNode>,
}

/// Decision salts keeping each fault class's rolls independent for the same packet.
const SALT_REORDER: u64 = 1;
const SALT_DELAY: u64 = 2;
const SALT_DUPLICATE: u64 = 3;
const SALT_DROP_BASE: u64 = 16;

impl FaultPlan {
    /// A plan with every fault disabled: the full recovery machinery (sequence
    /// numbers, windows, deadline checks) engaged but injecting nothing. Executions
    /// under a quiet plan must be byte-identical to running with no plan at all.
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            probs: LinkProbs::default(),
            links: Vec::new(),
            delay_us: 0.0,
            max_retries: 3,
            retry_backoff_us: 450.0,
            drop_exact: None,
            kill_node: None,
        }
    }

    /// A plan that loses exactly the `n`-th sequenced packet (0-based, world send
    /// order) and nothing else.
    pub fn drop_packet(n: u64) -> Self {
        FaultPlan {
            drop_exact: Some(n),
            ..FaultPlan::quiet(0)
        }
    }

    /// A plan that kills `rank` at virtual time `at_virtual_us` and injects nothing
    /// else.
    pub fn kill(rank: usize, at_virtual_us: f64) -> Self {
        FaultPlan {
            kill_node: Some(KillNode {
                rank,
                at_virtual_us,
            }),
            ..FaultPlan::quiet(0)
        }
    }

    /// Sets the default per-attempt drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.probs.drop = p;
        self
    }

    /// Sets the default duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.probs.duplicate = p;
        self
    }

    /// Sets the default reorder probability.
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.probs.reorder = p;
        self
    }

    /// Sets the default delay probability and the injected delay.
    pub fn with_delay(mut self, p: f64, delay_us: f64) -> Self {
        self.probs.delay = p;
        self.delay_us = delay_us;
        self
    }

    /// Overrides the fault probabilities of one directed link.
    pub fn with_link(mut self, from: usize, to: usize, probs: LinkProbs) -> Self {
        self.links.push((from, to, probs));
        self
    }

    /// The probabilities governing the directed link `from -> to`.
    pub fn link_probs(&self, from: usize, to: usize) -> LinkProbs {
        self.links
            .iter()
            .find(|(f, t, _)| *f == from && *t == to)
            .map(|(_, _, p)| *p)
            .unwrap_or(self.probs)
    }

    /// Deterministic roll in `[0, 1)` for one decision about one packet.
    fn roll(&self, from: usize, to: usize, seq: u64, salt: u64) -> f64 {
        let mut z = self
            .seed
            .wrapping_add((from as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add((to as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(seq.wrapping_mul(0x94d0_49bb_1331_11eb))
            .wrapping_add(salt.wrapping_mul(0xd6e8_feb8_6659_fd93));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Why a packet was declared permanently undeliverable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LossReason {
    /// Every transmission attempt (original plus retries) was dropped.
    Dropped,
    /// The packet crossed a killed rank (the carried value is that rank).
    NodeDown(usize),
}

/// The record of one permanently lost packet — the delivery-deadline diagnosis
/// surfaces these as typed errors instead of letting the run stall.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LostPacket {
    /// Sender rank.
    pub from: usize,
    /// Destination rank.
    pub to: usize,
    /// Correlation id of the request the packet belonged to.
    pub req_id: u64,
    /// Request or response.
    pub kind: PacketKind,
    /// Why it was lost.
    pub reason: LossReason,
}

/// Aggregate fault-layer activity of one world (attached to the execution report so
/// tests can assert a plan actually injected something).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Transmission attempts dropped (including retried ones).
    pub dropped_attempts: u64,
    /// Logical packets permanently lost (drop beyond retries, or a killed rank).
    pub lost: u64,
    /// Retransmissions that eventually delivered their packet.
    pub retries: u64,
    /// Duplicate copies injected.
    pub duplicated: u64,
    /// Duplicate copies suppressed by receivers' sequence windows.
    pub suppressed: u64,
    /// Packets sent out of sequence order.
    pub reordered: u64,
    /// Packets delayed.
    pub delayed: u64,
    /// Sequence gaps repaired at the delivery deadline.
    pub repaired: u64,
}

/// Shared runtime state of one world's fault plan: the plan itself, the global
/// sequenced-send counter (for [`FaultPlan::drop_exact`]) and the loss ledger the
/// schedulers' delivery-deadline diagnosis reads.
pub struct FaultState {
    plan: FaultPlan,
    sequenced_sends: AtomicU64,
    lost: Mutex<Vec<LostPacket>>,
    dropped_attempts: AtomicU64,
    retries: AtomicU64,
    duplicated: AtomicU64,
    suppressed: AtomicU64,
    reordered: AtomicU64,
    delayed: AtomicU64,
    repaired: AtomicU64,
}

impl FaultState {
    fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            sequenced_sends: AtomicU64::new(0),
            lost: Mutex::new(Vec::new()),
            dropped_attempts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            suppressed: AtomicU64::new(0),
            reordered: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            repaired: AtomicU64::new(0),
        }
    }

    /// The plan this world runs under.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn record_loss(&self, loss: LostPacket) {
        self.lost
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(loss);
    }

    /// The first permanently lost packet, if any. Under the synchronous
    /// request/response protocol a single lost packet dooms its computation, so the
    /// first loss is the diagnosis.
    pub fn first_loss(&self) -> Option<LostPacket> {
        self.lost
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .first()
            .copied()
    }

    /// Every recorded loss (for the transport-stall diagnosis).
    pub fn losses(&self) -> Vec<LostPacket> {
        self.lost.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Snapshot of the fault-layer activity counters.
    pub fn summary(&self) -> FaultSummary {
        FaultSummary {
            dropped_attempts: self.dropped_attempts.load(Ordering::Relaxed),
            lost: self.lost.lock().unwrap_or_else(|e| e.into_inner()).len() as u64,
            retries: self.retries.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            suppressed: self.suppressed.load(Ordering::Relaxed),
            reordered: self.reordered.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            repaired: self.repaired.load(Ordering::Relaxed),
        }
    }
}

/// Whether a packet carries a request or a response (nested requests are served while
/// waiting for a response, so receivers must be able to tell them apart).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketKind {
    /// A [`crate::wire::Request`].
    Request,
    /// A [`crate::wire::Response`].
    Response,
}

/// One message on the simulated wire.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Sender rank.
    pub from: usize,
    /// Receiver rank.
    pub to: usize,
    /// Request or response.
    pub kind: PacketKind,
    /// Correlation id: assigned per requesting endpoint for requests, echoed back on
    /// the matching response. This is transport metadata (it does not count against
    /// the byte cost model) and is what lets the cooperative scheduler park an
    /// in-flight computation as a continuation keyed by its outstanding request.
    pub req_id: u64,
    /// Per-link sequence number, 1-based, assigned by the fault layer so receivers
    /// can suppress duplicates and re-sort reorders. Like `req_id` it is transport
    /// metadata (no byte cost); 0 means *unsequenced* — no fault plan is active or
    /// the packet is exempt control traffic — and bypasses the sequence window.
    pub seq: u64,
    /// Encoded payload.
    pub data: Bytes,
    /// The sender's virtual clock (µs) *after* accounting for the transfer, i.e. the
    /// earliest virtual time at which the receiver may observe the packet.
    pub arrival_time_us: f64,
}

/// A ready-queue entry: `(root, rank)`.
///
/// `root` identifies the root computation (the world) the packet belongs to and
/// `rank` its destination node. The worker loop uses the root to find the world a
/// popped entry must be delivered to, and to recognise a *stale* key — one whose
/// world already completed — by root mismatch.
pub type ReadyKey = (u32, u32);

/// What [`ReadyQueue::next`] handed the calling worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Next {
    /// The oldest ready entry: its key and how many packets it covers.
    Entry(ReadyKey, u32),
    /// The run is over ([`ReadyQueue::close`] was called): exit.
    Closed,
    /// The queue is empty and every other worker is already blocked on it, so no
    /// entry can ever arrive: the caller is the last worker standing.
    AllIdle,
}

/// The transport's shared **ready queue**: `(root, rank)` keys for the nodes that
/// have undelivered packets, in send order.
///
/// The sender of a packet knows its destination, so it enqueues the destination key
/// here when its delivery slice ends — delivery is then O(1) per packet (pop a key,
/// drain that node's mailbox) instead of an O(nodes) `try_recv` sweep over every
/// mailbox. A key may appear more than once (one entry per sender's slice); popping
/// a key whose mailbox was already drained is a cheap no-op.
///
/// One queue is shared by every world of a run (a single-root run has one world, a
/// serving run up to `concurrency`), so continuations from different requests
/// interleave freely on the same workers.
///
/// Every entry carries a packet **count**: a sender that accumulated several packets
/// for one destination during a delivery slice publishes them as a single counted
/// entry via [`ReadyQueue::push_counted`] — one pop then delivers the whole batch.
#[derive(Default)]
pub struct ReadyQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

#[derive(Default)]
struct QueueState {
    queue: VecDeque<(ReadyKey, u32)>,
    /// Workers currently blocked in [`ReadyQueue::next`].
    waiters: usize,
    closed: bool,
}

impl ReadyQueue {
    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues `key` carrying `count` deliverable packets as one entry (a
    /// coalescing sender accumulated that many sends during its delivery slice).
    /// A zero count is ignored.
    ///
    /// A blocked worker is woken only when more is queued than the pusher will take
    /// itself: the pusher is a worker in the middle of a slice, about to come back
    /// for the next entry, and a condvar notify is a futex syscall — one control
    /// flow bouncing between two nodes must not pay it per message just because a
    /// sibling is asleep. A pusher that is *not* about to come back says so with
    /// [`ReadyQueue::nudge`].
    pub fn push_counted(&self, key: ReadyKey, count: u32) {
        if count == 0 {
            return;
        }
        let mut s = self.lock();
        s.queue.push_back((key, count));
        let wake = s.waiters > 0 && s.queue.len() > 1;
        drop(s);
        if wake {
            self.ready.notify_one();
        }
    }

    /// Wakes a blocked worker if anything is queued: called by a worker about to
    /// be busy elsewhere (admitting a request) instead of coming back to pop.
    pub fn nudge(&self) {
        let s = self.lock();
        let wake = s.waiters > 0 && !s.queue.is_empty();
        drop(s);
        if wake {
            self.ready.notify_one();
        }
    }

    /// Pops the oldest ready entry `(key, packet count)` without blocking (tests
    /// only; the worker loop uses [`ReadyQueue::next`]).
    #[cfg(test)]
    pub(crate) fn pop(&self) -> Option<(ReadyKey, u32)> {
        self.lock().queue.pop_front()
    }

    /// The worker loop's pop: the oldest entry, blocking on the condvar — with no
    /// timeout — while the queue is empty. Returns [`Next::Closed`] once the run
    /// is over, and [`Next::AllIdle`] instead of blocking when the caller would be
    /// the last of `workers` to go idle (waiters are counted under the queue lock,
    /// so a push can never slip between the emptiness check and the wait).
    pub fn next(&self, workers: usize) -> Next {
        let mut s = self.lock();
        loop {
            if s.closed {
                return Next::Closed;
            }
            if let Some((key, count)) = s.queue.pop_front() {
                return Next::Entry(key, count);
            }
            if s.waiters + 1 >= workers {
                return Next::AllIdle;
            }
            s.waiters += 1;
            s = self.ready.wait(s).unwrap_or_else(|e| e.into_inner());
            s.waiters -= 1;
        }
    }

    /// Ends the run: every blocked worker wakes and every later
    /// [`ReadyQueue::next`] returns [`Next::Closed`].
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Number of queued entries (each may carry several packets when coalesced).
    pub fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// `true` when no rank is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The whole simulated cluster interconnect: create once, then [`MpiWorld::take_endpoint`]
/// per node thread.
pub struct MpiWorld {
    senders: Vec<Sender<Packet>>,
    receivers: Vec<Option<Receiver<Packet>>>,
    config: NetworkConfig,
    ready: Arc<ReadyQueue>,
    /// Root-computation id stamped on every ready-queue key.
    root: u32,
    /// Shared fault-plan state, if fault injection is enabled for this world.
    faults: Option<Arc<FaultState>>,
}

impl MpiWorld {
    /// Creates the interconnect for `n` nodes over a private ready queue (root 0).
    pub fn new(n: usize, config: NetworkConfig) -> Self {
        Self::new_serving(n, config, Arc::new(ReadyQueue::default()), 0)
    }

    /// Creates a *world-scoped* interconnect that feeds an externally shared ready
    /// queue, stamping every enqueued key with `root`. The worker loop builds one
    /// such world per admitted root computation so continuations from different
    /// requests interleave on one queue while their channels, clocks, and
    /// correlation ids stay fully isolated.
    pub fn new_serving(n: usize, config: NetworkConfig, ready: Arc<ReadyQueue>, root: u32) -> Self {
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(Some(rx));
        }
        MpiWorld {
            senders,
            receivers,
            config,
            ready,
            root,
            faults: None,
        }
    }

    /// Attaches a fault plan: every endpoint taken afterwards sequences its
    /// correlated sends and runs them through the plan's injection rolls. Call
    /// before [`MpiWorld::take_endpoint`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(FaultState::new(plan)));
        self
    }

    /// The shared fault state, when a plan is attached (one per world — serving mode
    /// therefore isolates faults per request).
    pub fn fault_state(&self) -> Option<Arc<FaultState>> {
        self.faults.clone()
    }

    /// The shared ready queue fed by every endpoint of this world.
    #[cfg(test)]
    pub(crate) fn ready_queue(&self) -> Arc<ReadyQueue> {
        Arc::clone(&self.ready)
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.senders.len()
    }

    /// Hands out the endpoint for `rank`. Panics if taken twice.
    pub fn take_endpoint(&mut self, rank: usize) -> MpiEndpoint {
        let rx = self.receivers[rank]
            .take()
            .expect("endpoint already taken for this rank");
        let n = self.senders.len();
        MpiEndpoint {
            rank,
            size: n,
            senders: self.senders.clone(),
            receiver: rx,
            config: self.config.clone(),
            ready: Arc::clone(&self.ready),
            root: self.root,
            published: 0,
            messages_sent: 0,
            bytes_sent: 0,
            messages_received: 0,
            bytes_received: 0,
            next_req_id: 0,
            faults: self
                .faults
                .as_ref()
                .map(|state| EndpointFaults::new(Arc::clone(state), n)),
            pool: Vec::new(),
            pending_keys: Vec::new(),
        }
    }
}

/// A sender-side sequencing slot for one directed link.
#[derive(Clone, Copy, Debug, Default)]
struct TxLink {
    /// Sequence numbers handed out so far on this link.
    issued: u64,
    /// A sequence number a reorder fault "borrowed": the reordered packet took
    /// `issued + 1`, and the *next* packet on the link inherits this smaller number
    /// — the pair travels swapped without any packet being held back (holding a
    /// packet until a successor exists would deadlock the synchronous protocol).
    owed: Option<u64>,
}

/// Per-endpoint fault machinery: the world-shared [`FaultState`] plus this
/// endpoint's sender-side sequencers and receiver-side reassembly windows.
struct EndpointFaults {
    state: Arc<FaultState>,
    /// Outgoing sequencing per destination rank.
    tx: Vec<TxLink>,
    /// Incoming reassembly window per source rank.
    rx: Vec<SeqWindow<Packet>>,
    /// Packets released by a window in bulk (a gap fill or a repair), awaiting pickup
    /// by the next receive call.
    pending: VecDeque<Packet>,
}

impl EndpointFaults {
    fn new(state: Arc<FaultState>, n: usize) -> Self {
        EndpointFaults {
            state,
            tx: vec![TxLink::default(); n],
            rx: (0..n).map(|_| SeqWindow::default()).collect(),
            pending: VecDeque::new(),
        }
    }
}

/// Per-node communication endpoint (the paper's "MPI service" sets this up).
pub struct MpiEndpoint {
    /// This node's rank.
    pub rank: usize,
    /// World size.
    pub size: usize,
    senders: Vec<Sender<Packet>>,
    receiver: Receiver<Packet>,
    /// The shared cost model.
    pub config: NetworkConfig,
    /// The run's shared ready queue; sends enqueue `(root, destination)`.
    ready: Arc<ReadyQueue>,
    /// Root-computation id stamped on ready-queue keys.
    root: u32,
    /// Ready keys (one per packet) this endpoint recorded since the last
    /// [`MpiEndpoint::take_published`] — the "published" half of its world's
    /// published-minus-consumed key count.
    published: u32,
    /// Number of messages sent by this endpoint.
    pub messages_sent: u64,
    /// Bytes sent by this endpoint.
    pub bytes_sent: u64,
    /// Number of messages received.
    pub messages_received: u64,
    /// Bytes received.
    pub bytes_received: u64,
    /// Next outgoing request correlation id (ids are unique per endpoint).
    next_req_id: u64,
    /// Fault-injection machinery, present only when the world has a [`FaultPlan`] —
    /// the disabled hot path pays a single `is_some` branch per send and receive.
    faults: Option<EndpointFaults>,
    /// Recycled encode buffers ([`MpiEndpoint::take_buf`] / [`MpiEndpoint::reclaim`]):
    /// the steady-state wire path reuses one allocation per in-flight message.
    pool: Vec<BytesMut>,
    /// Ready-key publications accumulated per destination since the last
    /// [`MpiEndpoint::flush_coalesced`], which releases them as counted batches.
    pending_keys: Vec<(ReadyKey, u32)>,
}

/// Upper bound on recycled encode buffers kept per endpoint.
const BUF_POOL_CAP: usize = 32;

impl MpiEndpoint {
    /// Sends `data` to `to`. `clock_us` is the sender's current virtual time; the
    /// returned value is the sender's clock after the (modelled) send overhead.
    /// Shutdown broadcasts and other uncorrelated messages travel with `req_id` 0.
    pub fn send(&mut self, to: usize, kind: PacketKind, data: Bytes, clock_us: f64) -> f64 {
        self.send_with_id(to, kind, 0, data, clock_us)
    }

    /// Sends a request stamped with a fresh correlation id; returns the updated clock
    /// and the id the matching response will echo.
    pub fn send_request(&mut self, to: usize, data: Bytes, clock_us: f64) -> (f64, u64) {
        let charged = data.len();
        self.send_request_charged(to, data, clock_us, charged)
    }

    /// Like [`MpiEndpoint::send_request`], but charges the cost model for
    /// `charged_len` bytes instead of the physical frame length: the cost model
    /// defines a request's size by formula (`wire::charged_*_size`), independent of
    /// how compactly the frame happens to be encoded.
    pub fn send_request_charged(
        &mut self,
        to: usize,
        data: Bytes,
        clock_us: f64,
        charged_len: usize,
    ) -> (f64, u64) {
        self.next_req_id += 1;
        let id = self.next_req_id;
        let clock =
            self.send_with_id_charged(to, PacketKind::Request, id, data, clock_us, charged_len);
        (clock, id)
    }

    /// Sends the response for request `req_id` back to `to`.
    pub fn send_response(&mut self, to: usize, req_id: u64, data: Bytes, clock_us: f64) -> f64 {
        let charged = data.len();
        self.send_response_charged(to, req_id, data, clock_us, charged)
    }

    /// Charged-length variant of [`MpiEndpoint::send_response`] (see
    /// [`MpiEndpoint::send_request_charged`]).
    pub fn send_response_charged(
        &mut self,
        to: usize,
        req_id: u64,
        data: Bytes,
        clock_us: f64,
        charged_len: usize,
    ) -> f64 {
        self.send_with_id_charged(
            to,
            PacketKind::Response,
            req_id,
            data,
            clock_us,
            charged_len,
        )
    }

    fn send_with_id(
        &mut self,
        to: usize,
        kind: PacketKind,
        req_id: u64,
        data: Bytes,
        clock_us: f64,
    ) -> f64 {
        let charged = data.len();
        self.send_with_id_charged(to, kind, req_id, data, clock_us, charged)
    }

    fn send_with_id_charged(
        &mut self,
        to: usize,
        kind: PacketKind,
        req_id: u64,
        data: Bytes,
        clock_us: f64,
        charged_len: usize,
    ) -> f64 {
        let transfer = self.config.transfer_time_us(charged_len);
        let arrival = clock_us + transfer;
        self.messages_sent += 1;
        // Traffic counters record *physical* bytes; only the virtual-time charge
        // uses `charged_len`.
        self.bytes_sent += data.len() as u64;
        // Correlated traffic goes through the fault layer when a plan is attached;
        // `req_id == 0` control messages (shutdown broadcasts) are exempt so the
        // protocol's fire-and-forget teardown stays reliable.
        if self.faults.is_some() && req_id != 0 {
            return self.send_faulted(to, kind, req_id, data, clock_us, arrival);
        }
        let pkt = Packet {
            from: self.rank,
            to,
            kind,
            req_id,
            seq: 0,
            data,
            arrival_time_us: arrival,
        };
        // Sending is cheap for the sender itself (asynchronous message exchange):
        // charge only a fixed software overhead.
        let _ = self.senders[to].send(pkt);
        // The sender knows the destination: mark the rank ready so event-driven
        // schedulers deliver in O(1) per packet (no mailbox sweep).
        self.mark_ready(to);
        clock_us + self.config.latency_us * 0.1
    }

    /// Pops a recycled encode buffer, or allocates one. Pair with
    /// [`MpiEndpoint::reclaim`] on the matching decoded `Bytes` to keep the
    /// steady-state wire path allocation-free.
    pub fn take_buf(&mut self) -> BytesMut {
        self.pool
            .pop()
            .unwrap_or_else(|| BytesMut::with_capacity(64))
    }

    /// Returns a spent frame's storage to the pool when this handle is its sole
    /// owner. Fault-plan duplicates clone the buffer, so shared storage simply
    /// fails the refcount check and is dropped — correctness never depends on a
    /// reclaim succeeding.
    pub fn reclaim(&mut self, data: Bytes) {
        if self.pool.len() < BUF_POOL_CAP {
            if let Ok(buf) = data.try_into_mut() {
                self.pool.push(buf);
            }
        }
    }

    /// Publishes every accumulated `(key, count)` pair as one counted ready-queue
    /// entry each. No-op when nothing has accumulated. The worker loop calls this
    /// at the end of every delivery slice, so it observes one wake per link per
    /// slice however many packets the slice sent there.
    pub fn flush_coalesced(&mut self) {
        for (key, count) in self.pending_keys.drain(..) {
            self.ready.push_counted(key, count);
        }
    }

    /// Records one deliverable packet for `to`. The packet itself already entered
    /// its channel (sequence numbers, fault rolls and arrival times are decided at
    /// send time); only the ready key is held back for the next
    /// [`MpiEndpoint::flush_coalesced`]. It counts towards
    /// [`MpiEndpoint::take_published`] now.
    fn mark_ready(&mut self, to: usize) {
        self.published += 1;
        let key = (self.root, to as u32);
        if let Some(entry) = self.pending_keys.iter_mut().find(|(k, _)| *k == key) {
            entry.1 += 1;
        } else {
            self.pending_keys.push((key, 1));
        }
    }

    /// The fault-layer send path: sequences the packet, then rolls kill, drop/retry,
    /// delay and duplication from the plan's seed. Counters were already charged by
    /// [`MpiEndpoint::send_with_id`] — faults only move `arrival_time_us` (retries,
    /// delays) or suppress/replicate physical transmission, so with every
    /// probability at zero the execution is byte-identical to running unfaulted.
    fn send_faulted(
        &mut self,
        to: usize,
        kind: PacketKind,
        req_id: u64,
        data: Bytes,
        clock_us: f64,
        mut arrival: f64,
    ) -> f64 {
        let ret = clock_us + self.config.latency_us * 0.1;
        let state = Arc::clone(&self.faults.as_ref().expect("fault plan present").state);
        let plan = state.plan();
        let probs = plan.link_probs(self.rank, to);
        let logical = state.sequenced_sends.fetch_add(1, Ordering::Relaxed);

        // Sequence the packet, honouring a pending reorder swap: a reordered packet
        // takes its successor's number and "owes" its own to the next send on the
        // link, so the pair travels swapped without holding any packet back.
        let link = &mut self.faults.as_mut().expect("fault plan present").tx[to];
        let seq = if let Some(owed) = link.owed.take() {
            owed
        } else {
            link.issued += 1;
            let mine = link.issued;
            if probs.reorder > 0.0 && plan.roll(self.rank, to, mine, SALT_REORDER) < probs.reorder {
                link.owed = Some(mine);
                link.issued = mine + 1;
                state.reordered.fetch_add(1, Ordering::Relaxed);
                mine + 1
            } else {
                mine
            }
        };

        // A killed rank loses everything that would reach it after its death and
        // everything it would itself send past it.
        if let Some(k) = plan.kill_node {
            let dead = (k.rank == to && arrival >= k.at_virtual_us)
                || (k.rank == self.rank && clock_us >= k.at_virtual_us);
            if dead {
                state.record_loss(LostPacket {
                    from: self.rank,
                    to,
                    req_id,
                    kind,
                    reason: LossReason::NodeDown(k.rank),
                });
                // Wake the destination anyway: the worker loop pops the key, finds
                // nothing, the world's key count reaches zero, and the delivery
                // deadline turns the recorded loss into a typed error, not a hang.
                self.mark_ready(to);
                return ret;
            }
        }

        // The "drop any single packet" probe loses exactly one logical packet, in
        // world send order, retries notwithstanding.
        if plan.drop_exact == Some(logical) {
            state
                .dropped_attempts
                .fetch_add(1 + plan.max_retries as u64, Ordering::Relaxed);
            state.record_loss(LostPacket {
                from: self.rank,
                to,
                req_id,
                kind,
                reason: LossReason::Dropped,
            });
            self.mark_ready(to);
            return ret;
        }

        // Drop/retry: every transmission attempt rolls independently; the first
        // surviving attempt delivers late by the accumulated ack-timeout backoff,
        // and a packet whose every attempt drops is lost.
        if probs.drop > 0.0 {
            let mut survived = None;
            for attempt in 0..=plan.max_retries {
                if plan.roll(self.rank, to, seq, SALT_DROP_BASE + attempt as u64) < probs.drop {
                    state.dropped_attempts.fetch_add(1, Ordering::Relaxed);
                } else {
                    survived = Some(attempt);
                    break;
                }
            }
            match survived {
                Some(0) => {}
                Some(attempt) => {
                    state.retries.fetch_add(attempt as u64, Ordering::Relaxed);
                    arrival += attempt as f64 * plan.retry_backoff_us;
                }
                None => {
                    state.record_loss(LostPacket {
                        from: self.rank,
                        to,
                        req_id,
                        kind,
                        reason: LossReason::Dropped,
                    });
                    self.mark_ready(to);
                    return ret;
                }
            }
        }

        if probs.delay > 0.0 && plan.roll(self.rank, to, seq, SALT_DELAY) < probs.delay {
            arrival += plan.delay_us;
            state.delayed.fetch_add(1, Ordering::Relaxed);
        }

        let duplicate = probs.duplicate > 0.0
            && plan.roll(self.rank, to, seq, SALT_DUPLICATE) < probs.duplicate;
        let pkt = Packet {
            from: self.rank,
            to,
            kind,
            req_id,
            seq,
            data,
            arrival_time_us: arrival,
        };
        if duplicate {
            state.duplicated.fetch_add(1, Ordering::Relaxed);
            let _ = self.senders[to].send(pkt.clone());
            // One ready-queue entry per *physical* packet keeps the pop-one
            // deliver-one invariant; the receiver's window suppresses the copy.
            self.mark_ready(to);
        }
        let _ = self.senders[to].send(pkt);
        self.mark_ready(to);
        ret
    }

    /// Returns and resets the number of ready keys this endpoint recorded since
    /// the last call. Keys for a world are only ever recorded by that world's own
    /// endpoints — sends, sequence-window releases, gap repairs — and those only run
    /// inside the world's delivery slices, so the worker holding the world's lock
    /// reads an exact figure.
    pub fn take_published(&mut self) -> u32 {
        std::mem::take(&mut self.published)
    }

    /// Non-blocking receive — the only receive there is: the worker loop drains a
    /// node's mailbox when it pops that node's ready key. With a fault plan attached,
    /// arrivals are screened through the per-link sequence window (duplicates
    /// suppressed, reorders buffered), so `None` may also mean "a physical packet
    /// arrived but nothing is deliverable yet".
    pub fn try_recv(&mut self) -> Option<Packet> {
        if self.faults.is_none() {
            return match self.receiver.try_recv() {
                Ok(pkt) => {
                    self.messages_received += 1;
                    self.bytes_received += pkt.data.len() as u64;
                    Some(pkt)
                }
                Err(_) => None,
            };
        }
        if let Some(p) = self.take_pending() {
            return Some(p);
        }
        let pkt = self.receiver.try_recv().ok()?;
        self.screen(pkt)
    }

    /// Pops a packet previously released by a sequence window (gap fill or repair),
    /// charging the receive counters at the moment of logical delivery.
    fn take_pending(&mut self) -> Option<Packet> {
        let pkt = self
            .faults
            .as_mut()
            .expect("fault plan present")
            .pending
            .pop_front()?;
        self.messages_received += 1;
        self.bytes_received += pkt.data.len() as u64;
        Some(pkt)
    }

    /// Screens one physical arrival through the per-link sequence window. Returns
    /// the packet when it is logically deliverable now; `None` for suppressed
    /// duplicates and buffered reorders. A delivery that closes a gap releases the
    /// buffered run into the pending queue and pushes one self ready-key per
    /// released packet (their original keys were consumed when they buffered).
    fn screen(&mut self, pkt: Packet) -> Option<Packet> {
        if pkt.seq == 0 {
            // Exempt control traffic travels unsequenced.
            self.messages_received += 1;
            self.bytes_received += pkt.data.len() as u64;
            return Some(pkt);
        }
        let from = pkt.from;
        let seq = pkt.seq;
        let f = self.faults.as_mut().expect("fault plan present");
        match f.rx[from].offer(seq, pkt) {
            SeqVerdict::Deliver(p) => {
                let mut released = 0;
                while let Some(next) = f.rx[from].pop_ready() {
                    f.pending.push_back(next);
                    released += 1;
                }
                let me = self.rank;
                for _ in 0..released {
                    self.mark_ready(me);
                }
                self.messages_received += 1;
                self.bytes_received += p.data.len() as u64;
                Some(p)
            }
            SeqVerdict::Duplicate => {
                f.state.suppressed.fetch_add(1, Ordering::Relaxed);
                None
            }
            SeqVerdict::Buffered => None,
        }
    }

    /// Skips the sequence gap in front of every buffered run on this endpoint (the
    /// delivery deadline passed — the missing packets are not coming). Released
    /// packets queue for the next receive call, with one self ready-key each.
    /// Returns how many packets were released. No-op without a fault plan.
    pub fn repair_gaps(&mut self) -> usize {
        let Some(f) = self.faults.as_mut() else {
            return 0;
        };
        let mut released = 0;
        for w in f.rx.iter_mut() {
            if w.has_gap() {
                let n = w.repair();
                if n > 0 {
                    f.state.repaired.fetch_add(1, Ordering::Relaxed);
                    while let Some(p) = w.pop_ready() {
                        f.pending.push_back(p);
                        released += 1;
                    }
                }
            }
        }
        let me = self.rank;
        for _ in 0..released {
            self.mark_ready(me);
        }
        released
    }

    /// `true` when packets are buffered behind a sequence gap on any of this
    /// endpoint's links (candidates for [`MpiEndpoint::repair_gaps`]).
    pub fn has_sequence_gap(&self) -> bool {
        self.faults
            .as_ref()
            .map(|f| f.rx.iter().any(|w| w.has_gap()))
            .unwrap_or(false)
    }

    /// The world-shared fault state, when a plan is attached.
    pub fn fault_state(&self) -> Option<Arc<FaultState>> {
        self.faults.as_ref().map(|f| Arc::clone(&f.state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_size_and_latency() {
        let cfg = NetworkConfig::paper_testbed();
        let small = cfg.transfer_time_us(10);
        let large = cfg.transfer_time_us(10_000);
        assert!(large > small);
        assert!(small >= cfg.latency_us);
        // 10 KB over 100 Mb/s = 800 µs of serialization on top of latency.
        assert!((large - cfg.latency_us - 800.0).abs() < 1.0);
    }

    #[test]
    fn endpoints_exchange_packets_and_count_traffic() {
        let mut world = MpiWorld::new(2, NetworkConfig::uniform(2));
        let mut a = world.take_endpoint(0);
        let mut b = world.take_endpoint(1);
        let clock_after = a.send(1, PacketKind::Request, Bytes::from_static(b"hello"), 100.0);
        assert!(clock_after >= 100.0);
        let pkt = b.try_recv().expect("delivered");
        assert_eq!(pkt.from, 0);
        assert_eq!(pkt.to, 1);
        assert_eq!(&pkt.data[..], b"hello");
        assert!(pkt.arrival_time_us > 100.0, "arrival accounts for the link");
        assert_eq!(a.messages_sent, 1);
        assert_eq!(a.bytes_sent, 5);
        assert_eq!(b.messages_received, 1);
        assert_eq!(b.bytes_received, 5);
    }

    #[test]
    fn request_ids_are_fresh_and_echoed_on_responses() {
        let mut world = MpiWorld::new(2, NetworkConfig::uniform(2));
        let mut a = world.take_endpoint(0);
        let mut b = world.take_endpoint(1);
        let (_, id1) = a.send_request(1, Bytes::from_static(b"q1"), 0.0);
        let (_, id2) = a.send_request(1, Bytes::from_static(b"q2"), 0.0);
        assert_ne!(id1, id2, "each request gets a fresh correlation id");
        let p1 = b.try_recv().expect("first request");
        assert_eq!(p1.req_id, id1);
        b.send_response(0, p1.req_id, Bytes::from_static(b"r1"), 0.0);
        let resp = a.try_recv().expect("response");
        assert_eq!(resp.kind, PacketKind::Response);
        assert_eq!(resp.req_id, id1, "response echoes the request id");
        assert!(a.send(1, PacketKind::Request, Bytes::new(), 0.0) >= 0.0);
        assert_eq!(b.try_recv().map(|p| p.req_id), Some(id2));
        assert_eq!(
            b.try_recv().map(|p| p.req_id),
            Some(0),
            "uncorrelated sends travel with id 0"
        );
    }

    #[test]
    #[should_panic(expected = "endpoint already taken")]
    fn endpoints_cannot_be_taken_twice() {
        let mut world = MpiWorld::new(1, NetworkConfig::uniform(1));
        let _a = world.take_endpoint(0);
        let _b = world.take_endpoint(0);
    }

    #[test]
    fn sends_mark_destinations_ready_in_send_order() {
        let mut world = MpiWorld::new(4, NetworkConfig::uniform(4));
        let ready = world.ready_queue();
        let mut a = world.take_endpoint(0);
        assert!(ready.is_empty());
        a.send(2, PacketKind::Request, Bytes::from_static(b"x"), 0.0);
        a.send(1, PacketKind::Request, Bytes::from_static(b"y"), 0.0);
        a.send(2, PacketKind::Request, Bytes::from_static(b"z"), 0.0);
        a.flush_coalesced();
        assert_eq!(ready.len(), 2, "one entry per destination");
        assert_eq!(ready.pop(), Some(((0, 2), 2)));
        assert_eq!(ready.pop(), Some(((0, 1), 1)));
        assert_eq!(ready.pop(), None);
        assert_eq!(a.take_published(), 3, "every key is counted as published");
        assert_eq!(a.take_published(), 0, "taking resets the count");
    }

    /// The worker loop's pop: entries first, `AllIdle` for the last worker standing
    /// (never a block nobody can end), a condvar wait otherwise, `Closed` at the end.
    #[test]
    fn ready_queue_wait_observes_pushed_entries() {
        let ready = std::sync::Arc::new(ReadyQueue::default());
        assert_eq!(ready.next(1), Next::AllIdle, "a lone worker never blocks");
        ready.push_counted((0, 7), 1);
        assert_eq!(ready.next(1), Next::Entry((0, 7), 1));
        // Two workers: the first to find the queue empty blocks until a push.
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| ready.next(2));
            while ready.lock().waiters == 0 {
                std::thread::yield_now();
            }
            assert_eq!(ready.next(2), Next::AllIdle, "the other worker is blocked");
            // One entry is the pusher's own to take; a second one wakes the sibling.
            ready.push_counted((3, 1), 2);
            ready.push_counted((3, 0), 1);
            assert_eq!(waiter.join().unwrap(), Next::Entry((3, 1), 2));
            assert_eq!(ready.next(2), Next::Entry((3, 0), 1));
            // A pusher that will not come back hands its entry over explicitly.
            let waiter = scope.spawn(|| ready.next(2));
            while ready.lock().waiters == 0 {
                std::thread::yield_now();
            }
            ready.push_counted((4, 0), 1);
            ready.nudge();
            assert_eq!(waiter.join().unwrap(), Next::Entry((4, 0), 1));
        });
        // Closing wakes blocked workers and wins over queued (stale) entries.
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| ready.next(2));
            while ready.lock().waiters == 0 {
                std::thread::yield_now();
            }
            ready.close();
            assert_eq!(waiter.join().unwrap(), Next::Closed);
        });
        ready.push_counted((0, 0), 1);
        assert_eq!(ready.next(2), Next::Closed);
    }

    #[test]
    fn serving_worlds_tag_ready_keys_with_their_root() {
        let shared = std::sync::Arc::new(ReadyQueue::default());
        let mut w3 = MpiWorld::new_serving(2, NetworkConfig::uniform(2), Arc::clone(&shared), 3);
        let mut w9 = MpiWorld::new_serving(2, NetworkConfig::uniform(2), Arc::clone(&shared), 9);
        let mut a3 = w3.take_endpoint(0);
        let mut a9 = w9.take_endpoint(0);
        let send = |endpoint: &mut MpiEndpoint, payload: &'static [u8]| {
            endpoint.send(1, PacketKind::Request, Bytes::from_static(payload), 0.0);
            endpoint.flush_coalesced();
        };
        send(&mut a3, b"x");
        send(&mut a9, b"y");
        send(&mut a3, b"z");
        assert_eq!(
            shared.pop(),
            Some(((3, 1), 1)),
            "keys interleave on one queue"
        );
        assert_eq!(shared.pop(), Some(((9, 1), 1)));
        assert_eq!(shared.pop(), Some(((3, 1), 1)));
        // Channels stay per-world: w9's node 1 sees only its own packet.
        let mut b9 = w9.take_endpoint(1);
        assert_eq!(
            b9.try_recv().map(|p| p.data),
            Some(Bytes::from_static(b"y"))
        );
        assert!(b9.try_recv().is_none());
    }

    #[test]
    fn coalescing_batches_ready_keys_per_destination() {
        let mut world = MpiWorld::new(3, NetworkConfig::uniform(3));
        let ready = world.ready_queue();
        let mut a = world.take_endpoint(0);
        a.send(1, PacketKind::Request, Bytes::from_static(b"x"), 0.0);
        a.send(2, PacketKind::Request, Bytes::from_static(b"y"), 0.0);
        a.send(1, PacketKind::Request, Bytes::from_static(b"z"), 0.0);
        assert!(ready.is_empty(), "keys held back until the flush");
        a.flush_coalesced();
        assert_eq!(ready.pop(), Some(((0, 1), 2)), "two packets, one entry");
        assert_eq!(ready.pop(), Some(((0, 2), 1)));
        assert_eq!(ready.pop(), None);
        a.flush_coalesced();
        assert_eq!(
            ready.pop(),
            None,
            "a flush with nothing pending publishes nothing"
        );
    }

    #[test]
    fn coalescing_leaves_clocks_and_counters_untouched() {
        let mut world = MpiWorld::new(2, NetworkConfig::paper_testbed());
        let mut a = world.take_endpoint(0);
        let mut b = world.take_endpoint(1);
        let (c1, id1) = a.send_request(1, Bytes::from_static(b"abc"), 5.0);
        let (c2, id2) = a.send_request(1, Bytes::from_static(b"defg"), c1);
        // Everything the execution reports is decided at send time; only the
        // ready keys wait for the flush.
        let overhead = a.config.latency_us * 0.1;
        assert_eq!(
            (c1, id1, c2, id2),
            (5.0 + overhead, 1, 5.0 + 2.0 * overhead, 2)
        );
        let sent = (a.messages_sent, a.bytes_sent);
        assert_eq!(sent, (2, 7));
        let first = b.try_recv().expect("in the channel before any flush");
        assert_eq!(first.arrival_time_us, 5.0 + a.config.transfer_time_us(3));
        a.flush_coalesced();
        assert_eq!((a.messages_sent, a.bytes_sent), sent);
        assert_eq!(a.take_published(), 2);
    }

    #[test]
    fn buffer_pool_recycles_sole_owner_frames() {
        use bytes::BufMut;
        let mut world = MpiWorld::new(1, NetworkConfig::uniform(1));
        let mut a = world.take_endpoint(0);
        let mut buf = a.take_buf();
        let cap = buf.capacity();
        buf.put_slice(b"frame");
        a.reclaim(buf.freeze());
        let again = a.take_buf();
        assert!(again.is_empty(), "reclaimed buffer comes back cleared");
        assert!(again.capacity() >= cap, "its allocation survives the cycle");
        // A shared frame (e.g. a fault-plan duplicate) fails the refcount check
        // and is simply not pooled.
        let shared = Bytes::from(vec![1, 2, 3]);
        let _alias = shared.clone();
        a.reclaim(shared);
        assert!(a.pool.is_empty(), "shared storage is not pooled");
    }

    #[test]
    fn charged_sends_split_virtual_cost_from_physical_bytes() {
        let mut world = MpiWorld::new(2, NetworkConfig::paper_testbed());
        let mut a = world.take_endpoint(0);
        let mut b = world.take_endpoint(1);
        // Physically 4 bytes, charged as if 100: arrival reflects the charge,
        // traffic counters reflect the wire.
        a.send_request_charged(1, Bytes::from_static(b"tiny"), 0.0, 100);
        let pkt = b.try_recv().expect("delivered");
        let want = a.config.transfer_time_us(100);
        assert!((pkt.arrival_time_us - want).abs() < 1e-9);
        assert_eq!(a.bytes_sent, 4);
        assert_eq!(b.bytes_received, 4);
    }

    #[test]
    fn paper_testbed_has_a_fast_and_a_slow_node() {
        let cfg = NetworkConfig::paper_testbed();
        assert_eq!(cfg.nodes(), 2);
        assert!(cfg.speed_of(1) > cfg.speed_of(0));
        assert_eq!(cfg.speed_of(99), 1.0);
    }

    #[test]
    fn quiet_fault_plan_changes_nothing_but_sequence_stamps() {
        let mut plain = MpiWorld::new(2, NetworkConfig::uniform(2));
        let mut faulted =
            MpiWorld::new(2, NetworkConfig::uniform(2)).with_fault_plan(FaultPlan::quiet(42));
        let mut pa = plain.take_endpoint(0);
        let mut pb = plain.take_endpoint(1);
        let mut fa = faulted.take_endpoint(0);
        let mut fb = faulted.take_endpoint(1);
        let (pc, pid) = pa.send_request(1, Bytes::from_static(b"payload"), 10.0);
        let (fc, fid) = fa.send_request(1, Bytes::from_static(b"payload"), 10.0);
        assert_eq!(pc, fc, "sender clock identical under a quiet plan");
        assert_eq!(pid, fid);
        let pp = pb.try_recv().expect("plain delivery");
        let fp = fb.try_recv().expect("screened delivery");
        assert_eq!(pp.arrival_time_us, fp.arrival_time_us, "arrival identical");
        assert_eq!(pp.seq, 0, "no plan: unsequenced");
        assert_eq!(fp.seq, 1, "plan: sequencing engaged");
        assert_eq!(pb.messages_received, fb.messages_received);
        assert_eq!(pb.bytes_received, fb.bytes_received);
        let summary = faulted.fault_state().unwrap().summary();
        assert_eq!(
            summary,
            FaultSummary::default(),
            "quiet plan injects nothing"
        );
    }

    #[test]
    fn duplicates_are_injected_and_suppressed_transparently() {
        let mut world = MpiWorld::new(2, NetworkConfig::uniform(2))
            .with_fault_plan(FaultPlan::quiet(7).with_duplicate(1.0));
        let state = world.fault_state().unwrap();
        let mut a = world.take_endpoint(0);
        let mut b = world.take_endpoint(1);
        a.send_request(1, Bytes::from_static(b"once"), 0.0);
        assert_eq!(a.take_published(), 2, "one ready key per physical packet");
        let first = b.try_recv().expect("first copy delivers");
        assert_eq!(&first.data[..], b"once");
        assert!(b.try_recv().is_none(), "second copy suppressed");
        assert_eq!(b.messages_received, 1, "logical receive counted once");
        let summary = state.summary();
        assert_eq!(summary.duplicated, 1);
        assert_eq!(summary.suppressed, 1);
    }

    #[test]
    fn reordered_packets_are_buffered_and_released_in_sequence() {
        let mut world = MpiWorld::new(2, NetworkConfig::uniform(2)).with_fault_plan(
            FaultPlan::quiet(3).with_link(
                0,
                1,
                LinkProbs {
                    reorder: 1.0,
                    ..LinkProbs::default()
                },
            ),
        );
        let state = world.fault_state().unwrap();
        let mut a = world.take_endpoint(0);
        let mut b = world.take_endpoint(1);
        a.send_request(1, Bytes::from_static(b"first"), 0.0);
        a.send_request(1, Bytes::from_static(b"second"), 0.0);
        // The wire carries (seq 2, "first") then (seq 1, "second"): the window
        // buffers seq 2, then releases both in sequence order.
        let p1 = b.try_recv();
        assert!(p1.is_none(), "out-of-order packet buffered behind the gap");
        let p2 = b.try_recv().expect("gap filler delivers immediately");
        assert_eq!(&p2.data[..], b"second");
        let p3 = b.try_recv().expect("buffered packet released behind it");
        assert_eq!(&p3.data[..], b"first");
        assert_eq!(state.summary().reordered, 1);
        // Two send keys plus one self-key for the released buffer entry.
        assert_eq!((a.take_published(), b.take_published()), (2, 1));
    }

    #[test]
    fn drop_exact_loses_one_packet_and_records_it() {
        let mut world =
            MpiWorld::new(2, NetworkConfig::uniform(2)).with_fault_plan(FaultPlan::drop_packet(1));
        let state = world.fault_state().unwrap();
        let mut a = world.take_endpoint(0);
        let mut b = world.take_endpoint(1);
        let (_, id0) = a.send_request(1, Bytes::from_static(b"kept"), 0.0);
        let (_, id1) = a.send_request(1, Bytes::from_static(b"lost"), 0.0);
        assert_eq!(b.try_recv().map(|p| p.req_id), Some(id0));
        assert!(b.try_recv().is_none(), "second packet never arrives");
        let loss = state.first_loss().expect("loss recorded");
        assert_eq!(loss.req_id, id1);
        assert_eq!(loss.reason, LossReason::Dropped);
        assert_eq!((loss.from, loss.to), (0, 1));
        // One key for the delivered packet, one *wake-up* key for the lost one so
        // the world's key count reaches zero on a pop and the worker diagnoses.
        assert_eq!(a.take_published(), 2);
    }

    #[test]
    fn dropped_attempts_retry_with_backoff_until_delivery() {
        // drop = 0.5 over many packets: some deliver first try, some retry. The
        // retried ones arrive exactly `attempts * backoff` later than the base
        // transfer time, and none is lost (max_retries high enough at p=0.5 for
        // this sample size to make an all-drops run astronomically unlikely... but
        // the seed is fixed, so the outcome is simply deterministic).
        let plan = FaultPlan {
            max_retries: 60,
            ..FaultPlan::quiet(11).with_drop(0.5)
        };
        let mut world = MpiWorld::new(2, NetworkConfig::uniform(2)).with_fault_plan(plan);
        let state = world.fault_state().unwrap();
        let mut a = world.take_endpoint(0);
        let mut b = world.take_endpoint(1);
        let base = a.config.transfer_time_us(1);
        for _ in 0..32 {
            a.send_request(1, Bytes::from_static(b"x"), 0.0);
        }
        let mut delivered = 0;
        let mut late = 0;
        while let Some(p) = b.try_recv() {
            delivered += 1;
            let extra = p.arrival_time_us - base;
            let steps = extra / 450.0;
            assert!(
                (steps - steps.round()).abs() < 1e-9,
                "lateness is a whole number of backoff steps, got {extra}"
            );
            if extra > 0.0 {
                late += 1;
            }
        }
        assert_eq!(delivered, 32, "every packet eventually delivers");
        assert!(late > 0, "seed 11 at p=0.5 retries at least one packet");
        let summary = state.summary();
        assert!(summary.retries > 0);
        assert!(summary.dropped_attempts >= summary.retries);
        assert_eq!(summary.lost, 0);
    }

    #[test]
    fn killed_rank_loses_traffic_past_its_death() {
        let mut world =
            MpiWorld::new(2, NetworkConfig::uniform(2)).with_fault_plan(FaultPlan::kill(1, 500.0));
        let state = world.fault_state().unwrap();
        let mut a = world.take_endpoint(0);
        let mut b = world.take_endpoint(1);
        // Arrival 0.0 + transfer (~150µs) < 500: delivered.
        a.send_request(1, Bytes::from_static(b"early"), 0.0);
        assert!(b.try_recv().is_some());
        // Arrival 450 + transfer > 500: the packet dies with the node.
        a.send_request(1, Bytes::from_static(b"late"), 450.0);
        assert!(b.try_recv().is_none());
        let loss = state.first_loss().expect("recorded");
        assert_eq!(loss.reason, LossReason::NodeDown(1));
        // The dead rank can no longer send either.
        b.send_request(0, Bytes::from_static(b"ghost"), 600.0);
        assert!(a.try_recv().is_none());
        assert_eq!(state.summary().lost, 2);
    }

    #[test]
    fn fault_rolls_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let plan = FaultPlan::quiet(seed).with_drop(0.3).with_delay(0.3, 900.0);
            let mut world = MpiWorld::new(2, NetworkConfig::uniform(2)).with_fault_plan(plan);
            let mut a = world.take_endpoint(0);
            let mut b = world.take_endpoint(1);
            for _ in 0..16 {
                a.send_request(1, Bytes::from_static(b"d"), 0.0);
            }
            let mut arrivals = Vec::new();
            while let Some(p) = b.try_recv() {
                arrivals.push((p.seq, p.arrival_time_us.to_bits()));
            }
            (arrivals, world.fault_state().unwrap().summary())
        };
        let (a1, s1) = run(99);
        let (a2, s2) = run(99);
        assert_eq!(a1, a2, "same seed, same fate, bit for bit");
        assert_eq!(s1, s2);
        let (a3, _) = run(100);
        assert_ne!(a1, a3, "different seed takes a different schedule");
    }

    #[test]
    fn repair_gaps_releases_buffers_and_still_accepts_late_packets() {
        let mut world = MpiWorld::new(2, NetworkConfig::uniform(2)).with_fault_plan(
            FaultPlan::quiet(0).with_link(
                0,
                1,
                LinkProbs {
                    reorder: 1.0,
                    ..LinkProbs::default()
                },
            ),
        );
        let state = world.fault_state().unwrap();
        let mut a = world.take_endpoint(0);
        let mut b = world.take_endpoint(1);
        a.send_request(1, Bytes::from_static(b"swapped"), 0.0);
        // Only the reordered packet (seq 2) is on the wire; seq 1 is owed to a
        // send that never happens — the receiver sees a permanent gap.
        assert!(b.try_recv().is_none());
        assert!(b.has_sequence_gap());
        assert_eq!(b.repair_gaps(), 1, "deadline repair releases the buffer");
        let p = b.try_recv().expect("released packet delivers");
        assert_eq!(&p.data[..], b"swapped");
        assert_eq!(state.summary().repaired, 1);
        // A late packet for the skipped number is delivered, not suppressed.
        a.send_request(1, Bytes::from_static(b"latecomer"), 0.0);
        let late = b.try_recv().expect("skipped seq still delivered late");
        assert_eq!(&late.data[..], b"latecomer");
    }
}
