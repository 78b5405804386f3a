//! The simulated MPI transport.
//!
//! The paper runs on two Pentium III machines connected by 100 Mb Ethernet and talks
//! MPI between them. We have one machine, so the "network" is a set of mailboxes owned
//! by the world (one [`Transport`] per root computation: plain queues and plain
//! counters) plus an explicit cost
//! model: each node has a relative CPU speed, and every message pays
//! `latency + bytes / bandwidth` of virtual time. Virtual clocks are carried on the
//! packets so causality is preserved (a receiver can never observe a message before it
//! was sent). Nothing in here is shared between worlds, and nothing in here waits:
//! the transport lists the packets its world has yet to take, in route order, and
//! the world takes them oldest first.
//!
//! **A packet is one or more frames.** A frame that owes no reply (a one-way `NEW`, see
//! [`crate::exchange`]) does not leave at once: it joins the sender's *open packet*,
//! one per endpoint, and the next request to the same destination closes that packet
//! and travels in it. Any other send — a request elsewhere, a response — and the end of
//! the world first send the open packet as a packet of its own. A packet pays one send
//! overhead, one link charge for the sum of its frames' charges, and one fault roll; a
//! loss loses every frame in it and is recorded once, under the packet's request id
//! (its last frame's).
//!
//! A recorded loss fails its world typed even when the root completed: a lost one-way
//! `NEW` leaves nobody waiting, so the world's end is the last place to notice it.

use bytes::{BufMut, Bytes, BytesMut};
use std::collections::VecDeque;

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
        transfer_time_us(self.latency_us, self.bandwidth_mbps, bytes)
    }
}

/// The link cost: `latency + bytes / bandwidth`, in virtual microseconds.
fn transfer_time_us(latency_us: f64, bandwidth_mbps: f64, bytes: usize) -> f64 {
    latency_us + (bytes as f64 * 8.0) / bandwidth_mbps
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
/// The plan wraps every correlated send the world routes (request/response traffic;
/// shutdown broadcasts and other `req_id == 0` control messages are exempt — losing a
/// fire-and-forget control packet would model nothing the protocol waits on).
/// Disabled (no plan attached) costs one branch per send/receive and leaves every
/// byte of the execution report untouched.
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

    /// Overrides the fault probabilities of one directed link (replacing an earlier
    /// override of the same link).
    pub fn with_link(mut self, from: usize, to: usize, probs: LinkProbs) -> Self {
        self.links.retain(|&(f, t, _)| (f, t) != (from, to));
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
/// Whether a packet carries a request or a response (nested requests are served while
/// waiting for a response, so receivers must be able to tell them apart).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketKind {
    /// A request frame: `NEW`, `DEPENDENCE` or shutdown ([`crate::wire::FrameHead`]).
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
    /// in-flight computation as a continuation keyed by its outstanding request. A
    /// request packet of several frames carries its last frame's id.
    pub req_id: u64,
    /// Per-link sequence number, 1-based, assigned by the fault layer so receivers
    /// can suppress duplicates and re-sort reorders. Like `req_id` it is transport
    /// metadata (no byte cost); 0 means *unsequenced* — no fault plan is active or
    /// the packet is exempt control traffic — and bypasses the sequence window.
    pub seq: u64,
    /// Encoded payload: for a request, the optional hello and then the frames back to
    /// back.
    pub data: Bytes,
    /// The sender's virtual clock (µs) *after* accounting for the transfer, i.e. the
    /// earliest virtual time at which the receiver may observe the packet.
    pub arrival_time_us: f64,
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

/// One rank's share of a world's fault machinery.
struct RankFaults {
    /// Outgoing sequencing per destination rank.
    tx: Vec<TxLink>,
    /// Incoming reassembly window per source rank.
    rx: Vec<SeqWindow<Packet>>,
    /// Packets released by a window in bulk (a gap fill or a repair), awaiting pickup
    /// by this rank's next [`Transport::recv`].
    released: VecDeque<Packet>,
}

/// The fault state of one world, present only when a [`FaultPlan`] is attached.
struct Faults {
    plan: FaultPlan,
    ranks: Vec<RankFaults>,
    /// Sequenced sends so far, in world send order (for [`FaultPlan::drop_exact`]).
    sequenced_sends: u64,
    /// The loss ledger the delivery-deadline diagnosis reads.
    lost: Vec<LostPacket>,
    summary: FaultSummary,
}

impl Faults {
    fn record_loss(&mut self, pkt: &Packet, reason: LossReason) {
        self.summary.lost += 1;
        self.lost.push(LostPacket {
            from: pkt.from,
            to: pkt.to,
            req_id: pkt.req_id,
            kind: pkt.kind,
            reason,
        });
    }

    /// The fault-layer send path: sequences `pkt`, then rolls kill, drop/retry,
    /// delay and duplication from the plan's seed. Returns how many physical copies
    /// reach the destination's mailbox — 0 for a lost packet, 2 for a duplicated
    /// one. Faults only move `arrival_time_us` (retries, delays) or
    /// suppress/replicate physical transmission, so with every probability at zero
    /// the execution is byte-identical to running unfaulted.
    fn decide(&mut self, pkt: &mut Packet, sent_at_us: f64) -> usize {
        let (from, to) = (pkt.from, pkt.to);
        let probs = self.plan.link_probs(from, to);
        let logical = self.sequenced_sends;
        self.sequenced_sends += 1;

        // Sequence the packet, honouring a pending reorder swap: a reordered packet
        // takes its successor's number and "owes" its own to the next send on the
        // link, so the pair travels swapped without holding any packet back.
        let link = &mut self.ranks[from].tx[to];
        pkt.seq = if let Some(owed) = link.owed.take() {
            owed
        } else {
            link.issued += 1;
            let mine = link.issued;
            if probs.reorder > 0.0 && self.plan.roll(from, to, mine, SALT_REORDER) < probs.reorder {
                link.owed = Some(mine);
                link.issued = mine + 1;
                self.summary.reordered += 1;
                mine + 1
            } else {
                mine
            }
        };

        // A killed rank loses everything that would reach it after its death and
        // everything it would itself send past it.
        if let Some(k) = self.plan.kill_node {
            let dead = (k.rank == to && pkt.arrival_time_us >= k.at_virtual_us)
                || (k.rank == from && sent_at_us >= k.at_virtual_us);
            if dead {
                self.record_loss(pkt, LossReason::NodeDown(k.rank));
                return 0;
            }
        }

        // The "drop any single packet" probe loses exactly one logical packet, in
        // world send order, retries notwithstanding.
        if self.plan.drop_exact == Some(logical) {
            self.summary.dropped_attempts += 1 + self.plan.max_retries as u64;
            self.record_loss(pkt, LossReason::Dropped);
            return 0;
        }

        // Drop/retry: every transmission attempt rolls independently; the first
        // surviving attempt delivers late by the accumulated ack-timeout backoff,
        // and a packet whose every attempt drops is lost.
        if probs.drop > 0.0 {
            let mut survived = None;
            for attempt in 0..=self.plan.max_retries {
                let salt = SALT_DROP_BASE + attempt as u64;
                if self.plan.roll(from, to, pkt.seq, salt) < probs.drop {
                    self.summary.dropped_attempts += 1;
                } else {
                    survived = Some(attempt);
                    break;
                }
            }
            let Some(attempt) = survived else {
                self.record_loss(pkt, LossReason::Dropped);
                return 0;
            };
            self.summary.retries += attempt as u64;
            pkt.arrival_time_us += attempt as f64 * self.plan.retry_backoff_us;
        }

        if probs.delay > 0.0 && self.plan.roll(from, to, pkt.seq, SALT_DELAY) < probs.delay {
            pkt.arrival_time_us += self.plan.delay_us;
            self.summary.delayed += 1;
        }

        if probs.duplicate > 0.0
            && self.plan.roll(from, to, pkt.seq, SALT_DUPLICATE) < probs.duplicate
        {
            self.summary.duplicated += 1;
            return 2;
        }
        1
    }
}

/// One world's interconnect: per-rank mailboxes, the world's pending list and —
/// when a plan is attached — its fault state, all plain data, owned by one world:
/// every send, receive, window release and gap repair of its nodes goes through it.
///
/// A node never touches it. What a node sends while it handles a packet waits in
/// its [`MpiEndpoint`]'s outbox; then the world [`Transport::route`]s the outbox —
/// fault rolls, sequencing, duplicate copies, mailbox push — and each packet that
/// reaches a mailbox gets a pending entry.
pub struct Transport {
    /// Undelivered packets per destination rank, FIFO.
    mailboxes: Vec<VecDeque<Packet>>,
    /// The destination rank of every packet the world has yet to take: one entry per
    /// physical packet routed and per packet a sequence window released, in route
    /// order. A lost packet has none, so a world whose root is owed a lost packet
    /// runs dry.
    pub(crate) pending: VecDeque<u32>,
    /// Present only when the world has a [`FaultPlan`] — the disabled hot path pays
    /// one branch per send and receive.
    faults: Option<Faults>,
    /// A seeded choice of which pending entry to take, in place of the oldest.
    #[cfg(test)]
    pub(crate) order: Option<crate::explore::Order>,
}

impl Transport {
    /// The interconnect of an `n`-rank world. With a plan, every correlated send
    /// is sequenced and run through the plan's injection rolls.
    pub fn new(n: usize, plan: Option<FaultPlan>) -> Self {
        Transport {
            mailboxes: (0..n).map(|_| VecDeque::new()).collect(),
            pending: VecDeque::new(),
            faults: plan.map(|plan| Faults {
                plan,
                ranks: (0..n)
                    .map(|_| RankFaults {
                        tx: vec![TxLink::default(); n],
                        rx: (0..n).map(|_| SeqWindow::default()).collect(),
                        released: VecDeque::new(),
                    })
                    .collect(),
                sequenced_sends: 0,
                lost: Vec::new(),
                summary: FaultSummary::default(),
            }),
            #[cfg(test)]
            order: None,
        }
    }

    /// Takes the oldest pending entry: the rank whose next [`Transport::recv`]
    /// takes the world's oldest waiting packet. `None` when the world has nothing
    /// left to deliver.
    pub fn next_pending(&mut self) -> Option<usize> {
        #[cfg(test)]
        if let Some(order) = self.order.as_mut() {
            return order.take(&mut self.pending);
        }
        self.pending.pop_front().map(|rank| rank as usize)
    }

    /// Whether a fault plan is attached: only then can a packet overtake the `NEW`
    /// of the object it names.
    pub(crate) fn faulted(&self) -> bool {
        self.faults.is_some()
    }

    /// Puts `pkt` into its destination's mailbox and lists it as pending. Called
    /// directly only for `req_id == 0` control traffic (the shutdown broadcast),
    /// which no fault plan touches: losing a fire-and-forget control packet would
    /// model nothing the protocol waits on.
    pub(crate) fn post(&mut self, pkt: Packet) {
        let to = pkt.to;
        self.mailboxes[to].push_back(pkt);
        self.pending.push_back(to as u32);
    }

    /// Routes everything `endpoint` sent since the last call, in send order —
    /// world send order, since a world has one live control flow — so a fault plan
    /// decides each packet's fate exactly as if it had been consulted at the send.
    pub fn route(&mut self, endpoint: &mut MpiEndpoint) {
        for Posted {
            mut pkt,
            sent_at_us,
        } in endpoint.outbox.drain(..)
        {
            let copies = match self.faults.as_mut() {
                Some(f) if pkt.req_id != 0 => f.decide(&mut pkt, sent_at_us),
                _ => 1,
            };
            // A lost packet is not listed: the world runs dry and its recorded loss
            // becomes a typed error, not a hang. A duplicate is listed right behind
            // its original, one entry per *physical* packet; the receiver's window
            // suppresses it (a copy of the frame, with storage of its own).
            for _ in 1..copies {
                self.post(pkt.clone());
            }
            if copies > 0 {
                self.post(pkt);
            }
        }
    }

    /// Non-blocking receive — the only receive there is: the world takes one packet
    /// per pending entry it took for `rank`. With a fault plan attached, arrivals
    /// are screened through the per-link sequence window (duplicates suppressed,
    /// reorders buffered), so `None` may also mean "a physical packet arrived but
    /// nothing is deliverable yet". A delivery that closes a gap releases the
    /// buffered run for the following calls, listing each released packet as
    /// pending behind everything already listed (their own entries were taken when
    /// they buffered).
    pub fn recv(&mut self, rank: usize) -> Option<Packet> {
        let Some(f) = self.faults.as_mut() else {
            return self.mailboxes[rank].pop_front();
        };
        let me = &mut f.ranks[rank];
        if let Some(pkt) = me.released.pop_front() {
            return Some(pkt);
        }
        let pkt = self.mailboxes[rank].pop_front()?;
        if pkt.seq == 0 {
            // Exempt control traffic travels unsequenced.
            return Some(pkt);
        }
        let window = &mut me.rx[pkt.from];
        match window.offer(pkt.seq, pkt) {
            SeqVerdict::Deliver(pkt) => {
                let before = me.released.len();
                me.released
                    .extend(std::iter::from_fn(|| window.pop_ready()));
                let released = me.released.len() - before;
                self.pending
                    .extend(std::iter::repeat_n(rank as u32, released));
                Some(pkt)
            }
            SeqVerdict::Duplicate => {
                f.summary.suppressed += 1;
                None
            }
            SeqVerdict::Buffered => None,
        }
    }

    /// Hands `each` everything `rank` can still receive, in receive order, until
    /// its mailbox and released queue are both empty. A suppressed duplicate or a
    /// packet buffered behind a gap (`None` from [`Transport::recv`]) does not end
    /// the drain before the packets queued behind it.
    pub(crate) fn drain(&mut self, rank: usize, mut each: impl FnMut(Packet)) {
        let released = |f: &Faults| f.ranks[rank].released.len();
        while !self.mailboxes[rank].is_empty() || self.faults.as_ref().map_or(0, released) > 0 {
            if let Some(pkt) = self.recv(rank) {
                each(pkt);
            }
        }
    }

    /// Skips the sequence gap in front of every buffered run of the world (the
    /// delivery deadline passed — the missing packets are not coming). Released
    /// packets queue for their rank's next receives, each listed as pending.
    /// Returns how many packets were released. No-op without a fault plan.
    pub(crate) fn repair_gaps(&mut self) -> usize {
        let Some(f) = self.faults.as_mut() else {
            return 0;
        };
        let mut total = 0;
        for (rank, me) in f.ranks.iter_mut().enumerate() {
            let before = me.released.len();
            for window in me.rx.iter_mut().filter(|w| w.has_gap()) {
                if window.repair() > 0 {
                    f.summary.repaired += 1;
                    me.released
                        .extend(std::iter::from_fn(|| window.pop_ready()));
                }
            }
            let released = me.released.len() - before;
            self.pending
                .extend(std::iter::repeat_n(rank as u32, released));
            total += released;
        }
        total
    }

    /// `true` when packets are buffered behind a sequence gap on any of `rank`'s
    /// incoming links (candidates for [`Transport::repair_gaps`]).
    pub(crate) fn has_sequence_gap(&self, rank: usize) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.ranks[rank].rx.iter().any(|w| w.has_gap()))
    }

    /// The first permanently lost packet, if any. Under the synchronous
    /// request/response protocol a single lost packet dooms its computation, so the
    /// first loss is the diagnosis.
    pub(crate) fn first_loss(&self) -> Option<LostPacket> {
        self.faults.as_ref()?.lost.first().copied()
    }

    /// The fault-layer activity so far, when a plan is attached.
    pub(crate) fn fault_summary(&self) -> Option<FaultSummary> {
        self.faults.as_ref().map(|f| f.summary)
    }
}

/// A packet a node sent while handling a delivery, waiting in its outbox for the
/// world to route it.
struct Posted {
    pkt: Packet,
    /// The sender's clock at the send (a kill-node plan silences a rank by it).
    sent_at_us: f64,
}

/// Frames an endpoint holds back for the next request to `to`, which closes the packet
/// and travels in it.
struct OpenPacket {
    to: usize,
    /// The frames so far, back to back (the first carries the link's hello, if any).
    data: BytesMut,
    /// The sum of the frames' virtual-time charges.
    charged: usize,
    /// The last frame's request id.
    req_id: u64,
}

/// The node half of the transport: what an interpreter needs to *send* — its rank,
/// the cost model, traffic counters, correlation ids, recycled encode buffers —
/// and the outbox its sends wait in until the world routes them.
pub struct MpiEndpoint {
    /// This node's rank.
    pub rank: usize,
    /// World size.
    pub size: usize,
    /// This rank's CPU speed under the cost model (`Interp::with_dist` adopts it).
    pub speed: f64,
    /// Virtual microseconds per instruction at speed 1.0 (adopted likewise).
    pub instr_cost_us: f64,
    /// The link terms of the cost model, all a send reads of it.
    latency_us: f64,
    bandwidth_mbps: f64,
    /// Number of messages (packets) sent by this endpoint.
    pub messages_sent: u64,
    /// Bytes sent by this endpoint.
    pub bytes_sent: u64,
    /// Next outgoing request correlation id (ids are unique per endpoint).
    next_req_id: u64,
    /// Recycled encode buffers ([`MpiEndpoint::take_buf`] / [`MpiEndpoint::reclaim`]):
    /// the steady-state wire path reuses one allocation per in-flight message.
    pool: Vec<BytesMut>,
    outbox: Vec<Posted>,
    /// One-way frames waiting for the next send (at most one open packet).
    open: Option<OpenPacket>,
}

/// Upper bound on recycled encode buffers kept per endpoint.
const BUF_POOL_CAP: usize = 32;

impl MpiEndpoint {
    /// The endpoint of `rank` in a world of `size` nodes under `config`.
    pub fn new(rank: usize, size: usize, config: &NetworkConfig) -> Self {
        MpiEndpoint {
            rank,
            size,
            speed: config.speed_of(rank),
            instr_cost_us: config.instr_cost_us,
            latency_us: config.latency_us,
            bandwidth_mbps: config.bandwidth_mbps,
            messages_sent: 0,
            bytes_sent: 0,
            next_req_id: 0,
            pool: Vec::new(),
            outbox: Vec::new(),
            open: None,
        }
    }

    /// Sends a request stamped with a fresh correlation id; returns the sender's
    /// clock after the (modelled) send overhead and the id the matching response
    /// will echo. `clock_us` is the sender's current virtual time. The cost model
    /// is charged for `charged_len` bytes instead of the physical frame length: it
    /// defines a message's size by formula (`wire::charged_*_size`), independent of
    /// how compactly the frame happens to be encoded. An open packet for `to` is
    /// closed by the request and travels with it.
    pub fn send_request_charged(
        &mut self,
        to: usize,
        data: Bytes,
        clock_us: f64,
        charged_len: usize,
    ) -> (f64, u64) {
        let id = self.fresh_req_id();
        let clock = self.send(to, PacketKind::Request, id, data, clock_us, charged_len);
        (clock, id)
    }

    /// Holds back a request frame that owes no reply: it joins the open packet for
    /// `to`, which the next request there closes. An open packet for another
    /// destination is sent first — the only way this moves the clock; the frame
    /// itself adds no send overhead. Returns the clock. The frame takes a request id
    /// of its own, which names the packet while it is the packet's last frame.
    pub(crate) fn defer_request_charged(
        &mut self,
        to: usize,
        frame: BytesMut,
        clock_us: f64,
        charged_len: usize,
    ) -> f64 {
        let clock_us = match self.open.as_ref().is_some_and(|open| open.to != to) {
            true => self.flush(clock_us),
            false => clock_us,
        };
        let req_id = self.fresh_req_id();
        match self.open.as_mut() {
            Some(open) => {
                open.data.put_slice(&frame);
                open.charged += charged_len;
                open.req_id = req_id;
                self.recycle(frame);
            }
            None => {
                self.open = Some(OpenPacket {
                    to,
                    data: frame,
                    charged: charged_len,
                    req_id,
                })
            }
        }
        clock_us
    }

    /// Sends the open packet, if there is one, as a packet of its own; returns the
    /// clock after its send overhead.
    pub(crate) fn flush(&mut self, clock_us: f64) -> f64 {
        match self.open.take() {
            Some(open) => self.post(
                open.to,
                PacketKind::Request,
                open.req_id,
                open.data.freeze(),
                clock_us,
                open.charged,
            ),
            None => clock_us,
        }
    }

    fn fresh_req_id(&mut self) -> u64 {
        self.next_req_id += 1;
        self.next_req_id
    }

    /// Sends the response for request `req_id` back to `to` (see
    /// [`MpiEndpoint::send_request_charged`]). An open packet is sent first.
    pub fn send_response_charged(
        &mut self,
        to: usize,
        req_id: u64,
        data: Bytes,
        clock_us: f64,
        charged_len: usize,
    ) -> f64 {
        self.send(
            to,
            PacketKind::Response,
            req_id,
            data,
            clock_us,
            charged_len,
        )
    }

    /// A request to the open packet's destination closes it: its frames travel
    /// behind the open ones, charged as one packet. Any other send flushes it first.
    fn send(
        &mut self,
        to: usize,
        kind: PacketKind,
        req_id: u64,
        data: Bytes,
        clock_us: f64,
        charged_len: usize,
    ) -> f64 {
        let (data, clock_us, charged_len) = match self.open.take() {
            Some(mut open) if kind == PacketKind::Request && open.to == to => {
                open.data.put_slice(&data);
                self.reclaim(data);
                (open.data.freeze(), clock_us, open.charged + charged_len)
            }
            open => {
                self.open = open;
                (data, self.flush(clock_us), charged_len)
            }
        };
        self.post(to, kind, req_id, data, clock_us, charged_len)
    }

    /// Puts one packet in the outbox: counted, charged `latency + bytes / bandwidth`
    /// for `charged_len` bytes, and one send overhead on the sender's clock.
    fn post(
        &mut self,
        to: usize,
        kind: PacketKind,
        req_id: u64,
        data: Bytes,
        clock_us: f64,
        charged_len: usize,
    ) -> f64 {
        self.messages_sent += 1;
        // Traffic counters record *physical* bytes; only the virtual-time charge
        // uses `charged_len`.
        self.bytes_sent += data.len() as u64;
        self.outbox.push(Posted {
            pkt: Packet {
                from: self.rank,
                to,
                kind,
                req_id,
                seq: 0,
                data,
                arrival_time_us: clock_us + self.transfer_time_us(charged_len),
            },
            sent_at_us: clock_us,
        });
        // Sending is cheap for the sender itself (asynchronous message exchange):
        // charge only a fixed software overhead.
        clock_us + self.latency_us * 0.1
    }

    /// Virtual time for a message of `bytes` bytes to leave this node.
    pub fn transfer_time_us(&self, bytes: usize) -> f64 {
        transfer_time_us(self.latency_us, self.bandwidth_mbps, bytes)
    }

    /// Pops a recycled encode buffer, or allocates one. Pair with
    /// [`MpiEndpoint::reclaim`] on the matching decoded `Bytes` to keep the
    /// steady-state wire path allocation-free.
    pub fn take_buf(&mut self) -> BytesMut {
        self.pool
            .pop()
            .unwrap_or_else(|| BytesMut::with_capacity(64))
    }

    /// Returns a spent frame's storage to the pool (up to a bound; beyond it the
    /// storage is dropped — correctness never depends on a reclaim). Every frame owns
    /// its storage, a fault-plan duplicate included, so every one can come back.
    pub fn reclaim(&mut self, data: Bytes) {
        if let Ok(buf) = data.try_into_mut() {
            self.recycle(buf);
        }
    }

    fn recycle(&mut self, mut buf: BytesMut) {
        if self.pool.len() < BUF_POOL_CAP {
            buf.clear();
            self.pool.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One world the way `sched::World` holds it: the transport plus one endpoint
    /// per rank.
    fn world(config: &NetworkConfig, plan: Option<FaultPlan>) -> (Transport, Vec<MpiEndpoint>) {
        let n = config.nodes();
        let endpoints = (0..n).map(|r| MpiEndpoint::new(r, n, config)).collect();
        (Transport::new(n, plan), endpoints)
    }

    /// A request charged at its physical length, routed at once (one send per delivery).
    fn request(
        net: &mut Transport,
        from: &mut MpiEndpoint,
        to: usize,
        payload: &'static [u8],
        clock_us: f64,
    ) -> (f64, u64) {
        let sent =
            from.send_request_charged(to, Bytes::from_static(payload), clock_us, payload.len());
        net.route(from);
        sent
    }

    /// An uncorrelated control packet (`req_id` 0), as the shutdown broadcast posts.
    fn control(from: usize, to: usize, payload: &'static [u8]) -> Packet {
        Packet {
            from,
            to,
            kind: PacketKind::Request,
            req_id: 0,
            seq: 0,
            data: Bytes::from_static(payload),
            arrival_time_us: 0.0,
        }
    }

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
        let cfg = NetworkConfig::uniform(2);
        let (mut net, mut eps) = world(&cfg, None);
        let (clock_after, _) = request(&mut net, &mut eps[0], 1, b"hello", 100.0);
        assert!(clock_after >= 100.0);
        let pkt = net.recv(1).expect("delivered");
        assert_eq!(pkt.from, 0);
        assert_eq!(pkt.to, 1);
        assert_eq!(&pkt.data[..], b"hello");
        assert!(pkt.arrival_time_us > 100.0, "arrival accounts for the link");
        assert_eq!(eps[0].messages_sent, 1);
        assert_eq!(eps[0].bytes_sent, 5);
    }

    #[test]
    fn request_ids_are_fresh_and_echoed_on_responses() {
        let cfg = NetworkConfig::uniform(2);
        let (mut net, mut eps) = world(&cfg, None);
        let (_, id1) = request(&mut net, &mut eps[0], 1, b"q1", 0.0);
        let (_, id2) = request(&mut net, &mut eps[0], 1, b"q2", 0.0);
        assert_ne!(id1, id2, "each request gets a fresh correlation id");
        let p1 = net.recv(1).expect("first request");
        assert_eq!(p1.req_id, id1);
        eps[1].send_response_charged(0, p1.req_id, Bytes::from_static(b"r1"), 0.0, 2);
        net.route(&mut eps[1]);
        let resp = net.recv(0).expect("response");
        assert_eq!(resp.kind, PacketKind::Response);
        assert_eq!(resp.req_id, id1, "response echoes the request id");
        net.post(control(0, 1, b""));
        assert_eq!(net.recv(1).map(|p| p.req_id), Some(id2));
        assert_eq!(
            net.recv(1).map(|p| p.req_id),
            Some(0),
            "uncorrelated control packets travel with id 0"
        );
    }

    #[test]
    fn sends_mark_destinations_ready_in_send_order() {
        let cfg = NetworkConfig::uniform(4);
        let (mut net, mut eps) = world(&cfg, None);
        request(&mut net, &mut eps[0], 2, b"x", 0.0);
        request(&mut net, &mut eps[0], 1, b"y", 0.0);
        request(&mut net, &mut eps[0], 2, b"z", 0.0);
        assert_eq!(
            net.pending,
            [2, 1, 2],
            "one entry per packet, in route order"
        );
        let order: Vec<_> = std::iter::from_fn(|| net.next_pending()).collect();
        assert_eq!(order, [2, 1, 2], "taken oldest first");
        assert_eq!(net.next_pending(), None, "then the world has nothing left");
    }

    #[test]
    fn coalescing_leaves_clocks_and_counters_untouched() {
        let cfg = NetworkConfig::paper_testbed();
        let (mut net, mut eps) = world(&cfg, None);
        let (c1, id1) = eps[0].send_request_charged(1, Bytes::from_static(b"abc"), 5.0, 3);
        let (c2, id2) = eps[0].send_request_charged(1, Bytes::from_static(b"defg"), c1, 4);
        // Everything the execution reports is decided at send time; only the
        // routing waits for the world.
        let overhead = cfg.latency_us * 0.1;
        assert_eq!(
            (c1, id1, c2, id2),
            (5.0 + overhead, 1, 5.0 + 2.0 * overhead, 2)
        );
        let sent = (eps[0].messages_sent, eps[0].bytes_sent);
        assert_eq!(sent, (2, 7));
        assert!(net.recv(1).is_none(), "in the outbox until routed");
        net.route(&mut eps[0]);
        assert_eq!(net.pending, [1, 1], "routing lists both packets");
        let first = net.recv(1).expect("in the mailbox once routed");
        assert_eq!(first.arrival_time_us, 5.0 + cfg.transfer_time_us(3));
        assert_eq!((eps[0].messages_sent, eps[0].bytes_sent), sent);
    }

    fn frame(bytes: &[u8]) -> BytesMut {
        let mut buf = BytesMut::new();
        buf.put_slice(bytes);
        buf
    }

    /// Deferred frames add no send overhead and join the open packet for their
    /// destination; the next request there closes it: one packet, one overhead, the
    /// frames back to back, charged the sum of their charges, under the closing
    /// request's id. A send anywhere else — a request to another rank, a response —
    /// sends the open packet first, on its own.
    #[test]
    fn one_way_frames_ride_in_the_next_request_to_their_destination() {
        let cfg = NetworkConfig::uniform(3);
        let overhead = cfg.latency_us * 0.1;
        let (mut net, mut eps) = world(&cfg, None);
        let ep = &mut eps[0];
        assert_eq!(ep.defer_request_charged(1, frame(b"ab"), 10.0, 20), 10.0);
        assert_eq!(ep.defer_request_charged(1, frame(b"c"), 10.0, 30), 10.0);
        assert_eq!(ep.messages_sent, 0, "held back");
        let (clock, id) = ep.send_request_charged(1, Bytes::from_static(b"de"), 10.0, 5);
        assert_eq!(
            (clock, id),
            (10.0 + overhead, 3),
            "each deferred frame took an id"
        );
        assert_eq!((ep.messages_sent, ep.bytes_sent), (1, 5));
        net.route(ep);
        assert_eq!(net.next_pending(), Some(1));
        let pkt = net.recv(1).expect("one packet");
        assert_eq!((&pkt.data[..], pkt.req_id), (&b"abcde"[..], 3));
        assert_eq!(pkt.arrival_time_us, 10.0 + cfg.transfer_time_us(55));

        // Another destination: the open packet leaves first, with its own overhead.
        ep.defer_request_charged(1, frame(b"f"), 20.0, 7);
        let clock = ep.defer_request_charged(2, frame(b"g"), 20.0, 7);
        assert_eq!(clock, 20.0 + overhead);
        let clock = ep.send_response_charged(1, 9, Bytes::from_static(b"r"), clock, 1);
        assert_eq!(
            clock,
            20.0 + 3.0 * overhead,
            "a response flushes the packet to 2"
        );
        net.route(ep);
        assert_eq!(net.pending, [1, 2, 1], "packet to 1, packet to 2, response");
        assert_eq!(
            net.recv(1).map(|p| (p.req_id, p.kind)),
            Some((4, PacketKind::Request))
        );
        assert_eq!(net.recv(2).map(|p| p.req_id), Some(5));
        assert_eq!(ep.flush(0.0), 0.0, "nothing left open");
        assert_eq!(ep.messages_sent, 4);
    }

    /// A packet of several frames takes one fault roll: lost, it is one loss under
    /// its last frame's request id — dropped, or killed with its destination.
    #[test]
    fn a_lost_merged_packet_is_one_loss_under_its_last_request() {
        let cfg = NetworkConfig::uniform(2);
        for plan in [FaultPlan::drop_packet(0), FaultPlan::kill(1, 100.0)] {
            let (mut net, mut eps) = world(&cfg, Some(plan));
            eps[0].defer_request_charged(1, frame(b"new"), 0.0, 3);
            eps[0].defer_request_charged(1, frame(b"new"), 0.0, 3);
            let (_, id) = request(&mut net, &mut eps[0], 1, b"call", 0.0);
            assert_eq!(id, 3);
            assert!(net.recv(1).is_none());
            let loss = net.first_loss().expect("recorded");
            assert_eq!((loss.req_id, loss.from, loss.to), (3, 0, 1));
            assert_eq!(net.fault_summary().unwrap().lost, 1);
        }
    }

    #[test]
    fn buffer_pool_recycles_sole_owner_frames() {
        use bytes::BufMut;
        let cfg = NetworkConfig::uniform(1);
        let mut a = MpiEndpoint::new(0, 1, &cfg);
        let mut buf = a.take_buf();
        let cap = buf.capacity();
        buf.put_slice(b"frame");
        a.reclaim(buf.freeze());
        let again = a.take_buf();
        assert!(again.is_empty(), "reclaimed buffer comes back cleared");
        assert!(again.capacity() >= cap, "its allocation survives the cycle");
        // A fault-plan duplicate is a copy with storage of its own: both pool.
        let frame = Bytes::from(vec![1, 2, 3]);
        let duplicate = frame.clone();
        a.reclaim(frame);
        a.reclaim(duplicate);
        assert_eq!(a.pool.len(), 2, "every frame owns its storage");
        // The pool stays bounded however many frames come back.
        for _ in 0..2 * BUF_POOL_CAP {
            a.reclaim(Bytes::new());
        }
        assert_eq!(a.pool.len(), BUF_POOL_CAP);
    }

    #[test]
    fn charged_sends_split_virtual_cost_from_physical_bytes() {
        let cfg = NetworkConfig::paper_testbed();
        let (mut net, mut eps) = world(&cfg, None);
        // Physically 4 bytes, charged as if 100: arrival reflects the charge,
        // traffic counters reflect the wire.
        eps[0].send_request_charged(1, Bytes::from_static(b"tiny"), 0.0, 100);
        net.route(&mut eps[0]);
        let pkt = net.recv(1).expect("delivered");
        let want = cfg.transfer_time_us(100);
        assert!((pkt.arrival_time_us - want).abs() < 1e-9);
        assert_eq!(eps[0].bytes_sent, 4);
    }

    #[test]
    fn paper_testbed_has_a_fast_and_a_slow_node() {
        let cfg = NetworkConfig::paper_testbed();
        assert_eq!(cfg.nodes(), 2);
        assert!(cfg.speed_of(1) > cfg.speed_of(0));
        assert_eq!(cfg.speed_of(99), 1.0);
    }

    #[test]
    fn a_later_link_override_replaces_an_earlier_one() {
        let (a, b) = (
            LinkProbs {
                drop: 0.5,
                ..LinkProbs::default()
            },
            LinkProbs {
                reorder: 1.0,
                ..LinkProbs::default()
            },
        );
        let plan = FaultPlan::quiet(0)
            .with_link(0, 1, a)
            .with_link(1, 0, a)
            .with_link(0, 1, b);
        assert_eq!(plan.link_probs(0, 1), b);
        assert_eq!(plan.link_probs(1, 0), a);
        assert_eq!(plan.links.len(), 2);
    }

    #[test]
    fn quiet_fault_plan_changes_nothing_but_sequence_stamps() {
        let cfg = NetworkConfig::uniform(2);
        let (mut plain, mut p) = world(&cfg, None);
        let (mut faulted, mut f) = world(&cfg, Some(FaultPlan::quiet(42)));
        let (pc, pid) = request(&mut plain, &mut p[0], 1, b"payload", 10.0);
        let (fc, fid) = request(&mut faulted, &mut f[0], 1, b"payload", 10.0);
        assert_eq!(pc, fc, "sender clock identical under a quiet plan");
        assert_eq!(pid, fid);
        let pp = plain.recv(1).expect("plain delivery");
        let fp = faulted.recv(1).expect("screened delivery");
        assert_eq!(pp.arrival_time_us, fp.arrival_time_us, "arrival identical");
        assert_eq!(pp.seq, 0, "no plan: unsequenced");
        assert_eq!(fp.seq, 1, "plan: sequencing engaged");
        assert_eq!(pp.data, fp.data);
        assert_eq!(plain.fault_summary(), None);
        assert_eq!(
            faulted.fault_summary(),
            Some(FaultSummary::default()),
            "quiet plan injects nothing"
        );
    }

    #[test]
    fn duplicates_are_injected_and_suppressed_transparently() {
        let cfg = NetworkConfig::uniform(2);
        let (mut net, mut eps) = world(&cfg, Some(FaultPlan::quiet(7).with_duplicate(1.0)));
        request(&mut net, &mut eps[0], 1, b"once", 0.0);
        assert_eq!(net.pending, [1, 1], "both copies listed, adjacent");
        let first = net.recv(1).expect("first copy delivers");
        assert_eq!(&first.data[..], b"once");
        assert!(net.recv(1).is_none(), "second copy suppressed");
        let summary = net.fault_summary().unwrap();
        assert_eq!(summary.duplicated, 1);
        assert_eq!(summary.suppressed, 1);
    }

    /// A suppressed duplicate does not end a drain: the control frame queued
    /// behind it is still received.
    #[test]
    fn a_drain_receives_past_a_suppressed_duplicate() {
        let cfg = NetworkConfig::uniform(2);
        let (mut net, mut eps) = world(&cfg, Some(FaultPlan::quiet(7)));
        request(&mut net, &mut eps[0], 1, b"once", 0.0);
        let copy = net.mailboxes[1][0].clone();
        assert_eq!(copy.seq, 1, "sequenced");
        net.post(copy);
        net.post(control(0, 1, b"bye"));
        let mut got = Vec::new();
        net.drain(1, |pkt| got.push((pkt.req_id, pkt.data)));
        assert_eq!(got.len(), 2, "the original and the control frame");
        assert_eq!((got[1].0, &got[1].1[..]), (0, &b"bye"[..]));
        assert_eq!(net.fault_summary().unwrap().suppressed, 1);
    }

    fn reorder_link_0_to_1(seed: u64) -> FaultPlan {
        FaultPlan::quiet(seed).with_link(
            0,
            1,
            LinkProbs {
                reorder: 1.0,
                ..LinkProbs::default()
            },
        )
    }

    #[test]
    fn reordered_packets_are_buffered_and_released_in_sequence() {
        let cfg = NetworkConfig::uniform(2);
        let (mut net, mut eps) = world(&cfg, Some(reorder_link_0_to_1(3)));
        request(&mut net, &mut eps[0], 1, b"first", 0.0);
        request(&mut net, &mut eps[0], 1, b"second", 0.0);
        assert_eq!(net.pending, [1, 1], "two sends, two entries");
        // The wire carries (seq 2, "first") then (seq 1, "second"): the window
        // buffers seq 2, then releases both in sequence order.
        assert_eq!(net.next_pending(), Some(1));
        let p1 = net.recv(1);
        assert!(p1.is_none(), "out-of-order packet buffered behind the gap");
        assert_eq!(net.next_pending(), Some(1));
        let p2 = net.recv(1).expect("gap filler delivers immediately");
        assert_eq!(&p2.data[..], b"second");
        assert_eq!(
            net.pending,
            [1],
            "the released packet is listed after the one that freed it"
        );
        assert_eq!(net.next_pending(), Some(1));
        let p3 = net.recv(1).expect("buffered packet released behind it");
        assert_eq!(&p3.data[..], b"first");
        assert_eq!(net.fault_summary().unwrap().reordered, 1);
        assert_eq!(net.next_pending(), None);
    }

    #[test]
    fn drop_exact_loses_one_packet_and_records_it() {
        let cfg = NetworkConfig::uniform(2);
        let (mut net, mut eps) = world(&cfg, Some(FaultPlan::drop_packet(1)));
        let (_, id0) = request(&mut net, &mut eps[0], 1, b"kept", 0.0);
        let (_, id1) = request(&mut net, &mut eps[0], 1, b"lost", 0.0);
        assert_eq!(net.recv(1).map(|p| p.req_id), Some(id0));
        assert!(net.recv(1).is_none(), "second packet never arrives");
        let loss = net.first_loss().expect("loss recorded");
        assert_eq!(loss.req_id, id1);
        assert_eq!(loss.kind, PacketKind::Request);
        assert_eq!(loss.reason, LossReason::Dropped);
        assert_eq!((loss.from, loss.to), (0, 1));
        // An entry for the delivered packet and none for the lost one: the world
        // runs dry and diagnoses the loss.
        assert_eq!(net.pending, [1]);
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
        let cfg = NetworkConfig::uniform(2);
        let (mut net, mut eps) = world(&cfg, Some(plan));
        let base = cfg.transfer_time_us(1);
        for _ in 0..32 {
            request(&mut net, &mut eps[0], 1, b"x", 0.0);
        }
        let mut delivered = 0;
        let mut late = 0;
        while let Some(p) = net.recv(1) {
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
        let summary = net.fault_summary().unwrap();
        assert!(summary.retries > 0);
        assert!(summary.dropped_attempts >= summary.retries);
        assert_eq!(summary.lost, 0);
    }

    #[test]
    fn killed_rank_loses_traffic_past_its_death() {
        let cfg = NetworkConfig::uniform(2);
        let (mut net, mut eps) = world(&cfg, Some(FaultPlan::kill(1, 500.0)));
        // Arrival 0.0 + transfer (~150µs) < 500: delivered.
        request(&mut net, &mut eps[0], 1, b"early", 0.0);
        assert!(net.recv(1).is_some());
        // Arrival 450 + transfer > 500: the packet dies with the node.
        request(&mut net, &mut eps[0], 1, b"late", 450.0);
        assert!(net.recv(1).is_none());
        let loss = net.first_loss().expect("recorded");
        assert_eq!(loss.reason, LossReason::NodeDown(1));
        // The dead rank can no longer send either.
        request(&mut net, &mut eps[1], 0, b"ghost", 600.0);
        assert!(net.recv(0).is_none());
        assert_eq!(net.fault_summary().unwrap().lost, 2);
    }

    #[test]
    fn fault_rolls_are_deterministic_per_seed() {
        let cfg = NetworkConfig::uniform(2);
        let run = |seed: u64| {
            let plan = FaultPlan::quiet(seed).with_drop(0.3).with_delay(0.3, 900.0);
            let (mut net, mut eps) = world(&cfg, Some(plan));
            for _ in 0..16 {
                request(&mut net, &mut eps[0], 1, b"d", 0.0);
            }
            let mut arrivals = Vec::new();
            while let Some(p) = net.recv(1) {
                arrivals.push((p.seq, p.arrival_time_us.to_bits()));
            }
            (arrivals, net.fault_summary().unwrap())
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
        let cfg = NetworkConfig::uniform(2);
        let (mut net, mut eps) = world(&cfg, Some(reorder_link_0_to_1(0)));
        request(&mut net, &mut eps[0], 1, b"swapped", 0.0);
        // Only the reordered packet (seq 2) is on the wire; seq 1 is owed to a
        // send that never happens — the receiver sees a permanent gap.
        assert!(net.recv(1).is_none());
        assert!(net.has_sequence_gap(1));
        assert!(!net.has_sequence_gap(0));
        assert_eq!(net.repair_gaps(), 1, "deadline repair releases the buffer");
        let p = net.recv(1).expect("released packet delivers");
        assert_eq!(&p.data[..], b"swapped");
        assert_eq!(net.fault_summary().unwrap().repaired, 1);
        // A late packet for the skipped number is delivered, not suppressed.
        request(&mut net, &mut eps[0], 1, b"latecomer", 0.0);
        let late = net.recv(1).expect("skipped seq still delivered late");
        assert_eq!(&late.data[..], b"latecomer");
    }
}
