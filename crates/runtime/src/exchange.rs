//! The Message Exchange: everything that knows how a value crosses a node.
//!
//! The paper's Message Exchange service "passes objects between nodes using a streamed
//! format". Here that is the half of [`Interp`] the machine in [`crate::interp`] never
//! looks inside: the [`DistState`] a cluster node carries (endpoint, export table,
//! per-link hello state), proxies and the `rt/DependentObject` protocol the rewriter
//! targets, marshal / unmarshal, and the four things that touch a frame — send,
//! accept, reply, response decode. [`crate::sched`] drives it through
//! [`Interp::accept_request`], [`Interp::resume_task`] and [`Interp::send_reply`] and
//! never sees a wire type.
//!
//! **An argument list exists three times**: where the program put it (the caller's
//! operand stack, or the `Object[]` the rewriter packed for `DependentObject`), in the
//! frame, and in the callee's locals. The send side marshals each value straight from
//! a borrowed slice into the pooled frame buffer and charges virtual time by the
//! formula [`wire::charged_value_size`], which [`wire::put_value`] returns per value,
//! not by the bytes it appended; the accept side decodes the head, resolves the target
//! method or slot against the receiver's runtime class, and unmarshals value by value
//! straight into the callee frame's locals (receiver in slot 0; a field or array access
//! needs at most two stack locals). No intermediate collection is built on either side.
//!
//! A string crosses as its bytes: marshalling copies them out of the sender's string
//! table into the frame, and unmarshalling interns them straight off the frame into
//! the receiver's — a string equal to one of the receiver's literals (a tag the
//! program spells out) becomes that literal's id and costs nothing.
//!
//! Names do not cross the wire: the one place a name is still data — the `Value::Str`
//! class or member name a rewritten `DependentObject` site passes, always one of the
//! rewriter's literals — is resolved to a dense id by an index into the layout's
//! per-literal name columns at the send site (a string the program built is probed by
//! content), and the receiver resolves the id against the target's runtime class. Ids
//! that come *off* the wire (export ids, node ranks, class ids) are checked here, at
//! the boundary, so nothing behind it indexes with one unchecked.
//!
//! **Export ids interleave by world size.** An object is registered at its home under
//! one export id for good. Ids congruent to the home's rank modulo the world size are
//! the home's own (`home + k·size`, handed out as it marshals a local object); ids
//! congruent to another rank `c` are the ones creator `c` chose for the objects it
//! creates there (`c + n·size`, one counter per home). Every `NEW` carries its
//! creator's id, and the home registers the object under it, so the export table is
//! indexed by id: a lookup is one bounds-checked index. An id from the home's own
//! range that it never handed out is an immediate typed error.
//!
//! **When a `NEW` is one-way.** [`crate::serve::ServerApp::prepare`] marks, per home,
//! the classes whose constructor cannot be observed: primitive and string parameters
//! only, no static field, and no call but constructors of classes so marked there. Such
//! a constructor sends nothing and never parks, and it reaches only the new object and
//! what it allocates itself. Every remote `NEW` binds its proxy to the id the creator
//! chose as it is sent. A `NEW` of such a class is one-way: the creator already holds
//! the reference, so it goes on running without a reply. The frame itself does not
//! leave yet: it joins the creator's open packet ([`crate::net`]), which the creator's
//! next request to the same home closes and travels in, and which any other send
//! first sends on its own. Until the creator sends again nothing else runs (a world
//! has one live control flow) and only the creator holds the new id, so the deferral
//! cannot be observed. The home serves a packet's frames in order, registering the
//! object and running a one-way constructor to completion before it reads the next
//! frame, and sends nothing back for it; a constructor that faults fails the world at
//! the home. Every other `NEW` keeps its
//! round trip: the creator parks on the reply, which is the reference it already
//! bound (or the constructor's fault), and discards it.
//!
//! **A frame can overtake the `NEW` of the object it names** when a reorder fault
//! delivers a creator's next packet on a link before the packet holding the `NEW`, or
//! the reference reaches a third node first. Once a link's first packet holds only
//! one-way `NEW`s, the next packet can also overtake the fingerprint hello it carries.
//! `Interp::overtook_a_frame_it_needs` says so, and the world holds such a frame
//! until the `NEW` registers the id or the hello is verified (see [`crate::sched`]).

use std::borrow::Cow;
use std::sync::Arc;

use autodist_ir::program::{ClassId, FieldRef, MethodId, Type};
use bytes::{Bytes, BytesMut};

use crate::interp::{Continuation, ExecError, Frame, Interp, TaskOutcome, TransportStall};
use crate::net::{MpiEndpoint, Packet, PacketKind};
use crate::serve::OneWay;
use crate::value::{HeapObject, ObjRef, StrId, Value};
use crate::wire::{self, AccessKind, FrameHead, Peek, Response, WireError, WireValue};

/// An export-table slot no object is registered under (yet).
const UNREGISTERED: u32 = u32::MAX;

/// A reverse-export slot of a heap object that was never exported.
const NOT_EXPORTED: u64 = u64::MAX;

/// Distributed-execution state attached to an interpreter running as one node of the
/// simulated cluster.
pub struct DistState {
    /// This node's endpoint into the simulated MPI world.
    pub endpoint: MpiEndpoint,
    /// Export table, indexed by export id: the heap index of the object registered
    /// under it, or `u32::MAX` for an id nothing is registered under yet.
    pub exports: Vec<u32>,
    /// Reverse export table, indexed by heap index: the export id of the object
    /// there, or `u64::MAX` for one never exported.
    pub export_ids: Vec<u64>,
    /// Per home rank: how many export ids this node handed out for objects there (at
    /// its own rank: its own exports).
    handed_out: Vec<u64>,
    /// Per creator rank: how many of the ids that creator chose for objects here are
    /// registered. A creator names its objects in the order it sends their `NEW`s, and
    /// they register in that order.
    registered: Vec<u64>,
    /// Which `NEW`s are one-way (by default, none).
    one_way: OneWay,
    /// Per-destination: whether the one-time fingerprint hello already went out
    /// on that link (it wraps the first request we send there).
    hello_sent: Vec<bool>,
    /// Per-source: whether that peer's hello matched our layout fingerprint.
    /// Requests from unverified peers are rejected, never dispatched.
    peer_ok: Vec<bool>,
    /// This node's rank as wire values and remote references carry it.
    rank: u32,
}

impl DistState {
    /// Wraps an endpoint.
    pub fn new(endpoint: MpiEndpoint) -> Self {
        let n = endpoint.size;
        let rank = u32::try_from(endpoint.rank).expect("a rank fits a wire value's u32");
        DistState {
            rank,
            endpoint,
            exports: Vec::new(),
            export_ids: Vec::new(),
            handed_out: vec![0; n],
            registered: vec![0; n],
            one_way: OneWay::default(),
            hello_sent: vec![false; n],
            peer_ok: vec![false; n],
        }
    }

    /// Makes the `NEW`s `table` marks one-way.
    pub(crate) fn with_one_way(mut self, table: OneWay) -> Self {
        self.one_way = table;
        self
    }

    /// This node's rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// The next export id this node hands out for an object at `home`.
    fn hand_out(&mut self, home: u32) -> u64 {
        let n = &mut self.handed_out[home as usize];
        let id = u64::from(self.rank) + *n * self.endpoint.size as u64;
        *n += 1;
        id
    }

    /// Registers the object at heap index `heap_idx` under export `id`.
    fn register(&mut self, id: u64, heap_idx: u32) {
        let slot = id as usize;
        if slot >= self.exports.len() {
            self.exports.resize(slot + 1, UNREGISTERED);
        }
        self.exports[slot] = heap_idx;
        let at = heap_idx as usize;
        if at >= self.export_ids.len() {
            self.export_ids.resize(at + 1, NOT_EXPORTED);
        }
        self.export_ids[at] = id;
    }

    /// The creator rank whose range `id` is in, and its place in that range.
    fn creator_of(&self, id: u64) -> (usize, u64) {
        let size = self.endpoint.size as u64;
        ((id % size) as usize, id / size)
    }

    /// Whether `id` is one another node chose for an object here whose `NEW` has not
    /// registered yet, counting `ahead` more `NEW`s of `from` as registered (those
    /// in front of the frame in its packet).
    fn awaits_new(&self, id: u64, from: usize, ahead: u64) -> bool {
        let (creator, n) = self.creator_of(id);
        let ahead = if creator == from { ahead } else { 0 };
        creator != self.rank as usize && n >= self.registered[creator] + ahead
    }

    /// `node` as a rank of this world. Ranks reach a node inside wire values and
    /// rewritten constants; one the world does not have must fail typed where it
    /// enters, not index a per-rank table at the next send.
    fn rank_in_world(&self, node: i64) -> Option<u32> {
        usize::try_from(node)
            .ok()
            .filter(|&rank| rank < self.endpoint.size)
            .and_then(|rank| u32::try_from(rank).ok())
    }

    /// The heap index behind export id `id` — an id read off the wire, so one this
    /// node never handed out is a typed failure, not an index panic.
    fn exported(&self, id: u64) -> Result<u32, ExecError> {
        usize::try_from(id)
            .ok()
            .and_then(|i| self.exports.get(i))
            .copied()
            .filter(|&heap_idx| heap_idx != UNREGISTERED)
            .ok_or_else(|| ExecError::RemoteFailure(format!("bad export id {id}")))
    }
}

/// What [`Interp::accept_request`] did with an incoming request packet.
pub enum ServeOutcome {
    /// Fully handled: the response was sent, or none is owed (a shutdown, or a
    /// packet of one-way `NEW`s only).
    Handled,
    /// Bytecode must run: the scheduler runs `task` and answers as `reply` says.
    Spawned {
        /// The serving computation.
        task: Continuation,
        /// What the requester gets when the task completes.
        reply: Reply,
    },
    /// A one-way `NEW` or its constructor failed. Nobody waits for a reply to tell,
    /// so the failure is the world's.
    Failed(ExecError),
}

/// How a spawned serving task is answered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Reply {
    /// With the task's result.
    Result,
    /// With this value whatever the task returns: the new object of a `NEW`.
    Override(Value),
}

/// How the machine proceeds after an invoke left its fast path (proxies, remote
/// receivers, the DependentObject protocol) — see [`Interp::slow_invoke`].
pub(crate) enum SlowInvoke {
    /// A request went out: park on it.
    Park(u64),
    /// `DependentObject.<init>` whose home is this node: run the local constructor.
    Call(Frame),
    /// Completed locally with nothing left to do (null lands in the site's result
    /// register, if it has one).
    Nothing,
}

/// The member of an outgoing `DEPENDENCE`, resolved at the send site: the dense id
/// the frame carries, and the length of the name it stands for — which is all the
/// virtual-time charge needs of the name.
#[derive(Clone, Copy)]
struct WireMember {
    /// Method selector (`Invoke*`) or field-name id (`GetField`/`PutField`): the
    /// receiver resolves either against the target's runtime class.
    id: u32,
    /// Length of the member name, for [`wire::charged_dependence_size`].
    name_len: usize,
}

impl WireMember {
    /// Array accesses carry no member and are charged the empty name.
    const NONE: WireMember = WireMember { id: 0, name_len: 0 };
}

/// The Message Exchange's orderly shutdown frame (control traffic: no reply owed).
pub(crate) fn shutdown_frame() -> Bytes {
    wire::encode_shutdown()
}

impl Interp {
    // --- proxies ------------------------------------------------------------------

    /// Records a remote identity in a proxy object's home/remoteId/className slots so
    /// later accesses route to the object's home node — the single encoding of the
    /// proxy representation.
    pub(crate) fn bind_proxy(&mut self, proxy: u32, node: u32, id: u64, class_name: StrId) {
        if let Some((hs, rs, cs)) = self.proxy_slots {
            if let HeapObject::Object { fields, .. } = &mut self.heap[proxy as usize] {
                fields[hs] = Value::Int(node.into());
                fields[rs] = Value::Int(id as i64);
                fields[cs] = Value::Str(class_name);
            }
        }
    }

    /// Creates an instance of `class` on this node (the placement put the "remote"
    /// class here, so no message is needed) and returns the reference plus the
    /// constructor to run, if one with a body exists.
    fn create_at_home(&mut self, class: ClassId) -> (ObjRef, Option<MethodId>) {
        let r = self.new_instance(class);
        let ctor = self
            .layout
            .constructor(class)
            .filter(|&c| !self.layout.ops(c).ops.is_empty());
        (r, ctor)
    }

    /// Extracts the remote identity recorded in a proxy object.
    fn proxy_target(&self, heap_idx: u32) -> Result<ObjRef, ExecError> {
        let (hs, rs, _) = self
            .proxy_slots
            .ok_or_else(|| ExecError::Unsupported("no DependentObject class loaded".into()))?;
        match &self.heap[heap_idx as usize] {
            HeapObject::Object { fields, .. } => {
                let node = fields.get(hs).and_then(|v| v.as_int());
                let id = fields.get(rs).and_then(|v| v.as_int());
                match (node.and_then(|n| u32::try_from(n).ok()), id) {
                    (Some(node), Some(i)) => Ok(ObjRef::Remote { node, id: i as u64 }),
                    _ => Err(ExecError::Unsupported(
                        "DependentObject used before initialisation".into(),
                    )),
                }
            }
            _ => Err(ExecError::Unsupported("proxy is not an object".into())),
        }
    }

    /// For the slow paths of `GetField`/`PutField`: decides whether the access must
    /// travel to another node. Returns `Ok(Some(remote))` for proxies being
    /// forwarded and for remote references, `Ok(None)` when the access is local (or
    /// is a fault the local helpers report).
    pub(crate) fn remote_field_target(
        &self,
        obj: &Value,
        fr: FieldRef,
    ) -> Result<Option<ObjRef>, ExecError> {
        match obj {
            Value::Ref(ObjRef::Local(h)) => match &self.heap[*h as usize] {
                HeapObject::Object { class, .. }
                    if Some(*class) == self.dep_class && Some(fr.class) != self.dep_class =>
                {
                    self.proxy_target(*h).map(Some)
                }
                _ => Ok(None),
            },
            Value::Ref(r @ ObjRef::Remote { .. }) => Ok(Some(*r)),
            _ => Ok(None),
        }
    }

    // --- the DependentObject protocol ---------------------------------------------

    /// An invoke that left the hot path — proxies, remote receivers, the
    /// DependentObject protocol, and faults. `args` is the caller's operand window,
    /// receiver first, read where it lies. Whatever must travel is sent from here;
    /// the machine only learns whether to park, push a frame or carry on.
    pub(crate) fn slow_invoke(
        &mut self,
        args: &[Value],
        target: MethodId,
    ) -> Result<SlowInvoke, ExecError> {
        let callee = self.layout.program().method(target);
        let receiver = args
            .first()
            .ok_or_else(|| ExecError::Unsupported("instance call without receiver".into()))?;
        if Some(callee.class) == self.dep_class {
            return self.dependent_object_call(target, receiver, args);
        }
        // Transparent forwarding: a proxy reached a normal (non-rewritten) call
        // site, or type-based rewriting missed a receiver that actually lives
        // remotely. The receiver is stripped and the statically known callee is
        // addressed by its selector.
        let remote = match receiver {
            Value::Null => {
                return Err(ExecError::NullPointer(format!("call to {}", callee.name)));
            }
            Value::Ref(ObjRef::Local(h)) => match self.heap[*h as usize].class() {
                Some(c) if Some(c) == self.dep_class => self.proxy_target(*h)?,
                Some(_) => {
                    return Err(ExecError::Unsupported(
                        "internal: local receiver missed the dispatch fast path".into(),
                    ))
                }
                None => {
                    return Err(ExecError::Unsupported(
                        "method call on an array reference".into(),
                    ))
                }
            },
            Value::Ref(r @ ObjRef::Remote { .. }) => *r,
            &other => {
                return Err(ExecError::Unsupported(format!(
                    "method call on non-reference {}",
                    self.show(other)
                )))
            }
        };
        let kind = if callee.ret == Type::Void {
            AccessKind::InvokeVoid
        } else {
            AccessKind::InvokeRet
        };
        let member = WireMember {
            id: self.layout.selector(target),
            name_len: callee.name.len(),
        };
        let req_id = self.remote_send(remote, kind, member, &args[1..])?;
        Ok(SlowInvoke::Park(req_id))
    }

    /// `DependentObject.<init>` / `.access` (`method`): the call sites the rewriter
    /// emits.
    fn dependent_object_call(
        &mut self,
        method: MethodId,
        receiver: &Value,
        args: &[Value],
    ) -> Result<SlowInvoke, ExecError> {
        match &**self.layout.method_name(method) {
            "<init>" => {
                let (home, class, class_name, ctor_args) = self.parse_dep_init(args)?;
                if Some(home) != self.dist.as_ref().map(DistState::rank) {
                    let name_len = self.string(class_name).len();
                    let (id, req_id) = self.with_args_array(ctor_args, |me, ctor_args| {
                        me.remote_new_send(home, class, name_len, ctor_args)
                    })?;
                    if let &Value::Ref(ObjRef::Local(proxy)) = receiver {
                        self.bind_proxy(proxy, home, id, class_name);
                    }
                    return Ok(req_id.map_or(SlowInvoke::Nothing, SlowInvoke::Park));
                }
                let (r, Some(ctor)) = self.create_at_home(class) else {
                    return Ok(SlowInvoke::Nothing);
                };
                if self.live_frames >= self.max_depth {
                    return Err(ExecError::StackOverflow);
                }
                self.with_args_array(ctor_args, |me, ctor_args| {
                    let mut f = me.frame_for(ctor, ctor_args.len() + 1);
                    f.locals[0] = Value::Ref(r);
                    f.locals[1..=ctor_args.len()].copy_from_slice(ctor_args);
                    me.enter_frame(&mut f);
                    Ok(SlowInvoke::Call(f))
                })
            }
            "access" => {
                let (target, kind, member, call_args) = self.parse_dep_access(receiver, args)?;
                let req_id = self.with_args_array(call_args, |me, call_args| {
                    me.remote_send(target, kind, member, call_args)
                })?;
                Ok(SlowInvoke::Park(req_id))
            }
            other => Err(ExecError::UnknownMethod(
                format!("rt/DependentObject.{other}").into(),
            )),
        }
    }

    /// Parses the argument list of `DependentObject.<init>` — `[proxy, location,
    /// className, argsArray]` — into (home node, class, class name, constructor
    /// args array). The class is resolved here, once: a name the program does not
    /// declare cannot be instantiated on any node, so it fails before anything is
    /// sent — and so does a location the world has no rank for.
    fn parse_dep_init(
        &self,
        args: &[Value],
    ) -> Result<(u32, ClassId, StrId, Option<u32>), ExecError> {
        let location = args
            .get(1)
            .and_then(|v| v.as_int())
            .ok_or_else(|| ExecError::Unsupported("DependentObject.<init>: location".into()))?;
        let dist = self.dist.as_ref().ok_or(ExecError::NotDistributed)?;
        let home = dist.rank_in_world(location).ok_or_else(|| {
            ExecError::Unsupported(format!("DependentObject.<init>: no node {location}"))
        })?;
        let Some(&Value::Str(class_name)) = args.get(2) else {
            return Err(ExecError::Unsupported(
                "DependentObject.<init>: class name".into(),
            ));
        };
        let class = self
            .layout
            .literals
            .class(class_name.0)
            .or_else(|| self.named(class_name, |n| self.layout.program().class_by_name(n)))
            .ok_or_else(|| {
                ExecError::Unsupported(format!("unknown class {}", self.string(class_name)))
            })?;
        Ok((home, class, class_name, self.args_array(args.get(3))?))
    }

    /// What `lookup` finds for the name `s` if `s` is not a literal — a literal's
    /// answer is already in the layout's name columns: the probe by content only a
    /// string the program built pays.
    fn named<T>(&self, s: StrId, lookup: impl FnOnce(&str) -> Option<T>) -> Option<T> {
        if (s.0 as usize) < self.layout.literals.len() {
            return None;
        }
        lookup(self.string(s))
    }

    /// Parses a `DependentObject.access` call — `[proxy-or-remote, kind, member,
    /// argsArray]` — into the remote target, access kind, member and call args
    /// array. The member name, a literal, costs one index into the layout's name
    /// columns here; a name the layout never interned cannot be served by any node,
    /// so it fails typed before anything is sent.
    fn parse_dep_access(
        &self,
        receiver: &Value,
        args: &[Value],
    ) -> Result<(ObjRef, AccessKind, WireMember, Option<u32>), ExecError> {
        let kind_tag = args
            .get(1)
            .and_then(|v| v.as_int())
            .ok_or_else(|| ExecError::Unsupported("access: kind".into()))?;
        let kind = AccessKind::from_tag(kind_tag)
            .ok_or_else(|| ExecError::Unsupported(format!("access: bad kind {kind_tag}")))?;
        let Some(&Value::Str(name)) = args.get(2) else {
            return Err(ExecError::Unsupported("access: member name".into()));
        };
        let literals = &self.layout.literals;
        let id = match kind {
            AccessKind::InvokeVoid | AccessKind::InvokeRet => literals
                .selector(name.0)
                .or_else(|| self.named(name, |n| self.layout.selector_of_name(n)))
                .ok_or_else(|| ExecError::UnknownMethod(self.string(name).into()))?,
            AccessKind::GetField | AccessKind::PutField => literals
                .field_name_id(name.0)
                .or_else(|| self.named(name, |n| self.layout.field_name_id(n)))
                .ok_or_else(|| ExecError::UnknownField(self.string(name).into()))?,
            AccessKind::GetElement | AccessKind::PutElement | AccessKind::ArrayLength => 0,
        };
        let member = WireMember {
            id,
            name_len: self.string(name).len(),
        };
        let call_args = self.args_array(args.get(3))?;
        let target = match receiver {
            Value::Ref(ObjRef::Local(h)) => self.proxy_target(*h)?,
            Value::Ref(r @ ObjRef::Remote { .. }) => *r,
            _ => {
                return Err(ExecError::NullPointer(
                    "DependentObject.access on null".into(),
                ))
            }
        };
        Ok((target, kind, member, call_args))
    }

    /// The rewriter's `Object[]` argument list: the heap index of the array (`None`
    /// for `null` or no array at all, the empty list).
    fn args_array(&self, v: Option<&Value>) -> Result<Option<u32>, ExecError> {
        match v {
            Some(Value::Ref(ObjRef::Local(h))) => match &self.heap[*h as usize] {
                HeapObject::Array { .. } => Ok(Some(*h)),
                _ => Err(ExecError::Unsupported(
                    "argument list is not an array".into(),
                )),
            },
            Some(Value::Null) | None => Ok(None),
            Some(&other) => Err(ExecError::Unsupported(format!(
                "argument list is {}",
                self.show(other)
            ))),
        }
    }

    /// Lends `send` the elements of an [`Self::args_array`] where the program put
    /// them: the vector is taken out of the heap cell for the duration (marshalling
    /// needs `&mut self` to export, and never allocates on the heap) and put back.
    fn with_args_array<R>(
        &mut self,
        array: Option<u32>,
        send: impl FnOnce(&mut Self, &[Value]) -> R,
    ) -> R {
        let Some(h) = array else {
            return send(self, &[]);
        };
        let HeapObject::Array { data } = &mut self.heap[h as usize] else {
            return send(self, &[]);
        };
        let args = std::mem::take(data);
        let sent = send(self, &args);
        if let HeapObject::Array { data } = &mut self.heap[h as usize] {
            *data = args;
        }
        sent
    }

    // --- marshal / unmarshal ------------------------------------------------------

    /// Exports a local heap object and returns its export id.
    fn export(&mut self, heap_idx: u32) -> u64 {
        let dist = self.dist.as_mut().expect("export requires dist state");
        match dist.export_ids.get(heap_idx as usize) {
            Some(&id) if id != NOT_EXPORTED => return id,
            _ => {}
        }
        let id = dist.hand_out(dist.rank);
        dist.register(id, heap_idx);
        id
    }

    /// Converts a runtime value into its wire representation, exporting local objects.
    /// A string borrows its bytes from this node's string table.
    fn marshal(&mut self, v: Value) -> WireValue<'_> {
        match v {
            Value::Null => WireValue::Null,
            Value::Int(i) => WireValue::Int(i),
            Value::Float(f) => WireValue::Float(f),
            Value::Bool(b) => WireValue::Bool(b),
            Value::Str(s) => WireValue::Str(Cow::Borrowed(self.string(s))),
            Value::Ref(ObjRef::Remote { node, id }) => WireValue::Remote { node, id },
            Value::Ref(ObjRef::Local(h)) => {
                // A proxy marshals as the identity of the object it stands for.
                if self.heap[h as usize].class() == self.dep_class {
                    if let Ok(ObjRef::Remote { node, id }) = self.proxy_target(h) {
                        return WireValue::Remote { node, id };
                    }
                }
                let node = self.dist.as_ref().map_or(0, DistState::rank);
                let id = self.export(h);
                WireValue::Remote { node, id }
            }
        }
    }

    /// Marshals `args` one by one straight behind a request head already in `buf`,
    /// and returns their charge (the variable term of the request's charge).
    fn marshal_args(&mut self, buf: &mut BytesMut, args: &[Value]) -> usize {
        let mut charge = 0;
        for &v in args {
            let w = self.marshal(v);
            charge += wire::put_value(buf, &w);
        }
        charge
    }

    /// Converts a wire value back into a runtime value, resolving references that point
    /// at this node back to local heap objects and interning strings. Both halves of a
    /// reference come off the wire: an export id this node never handed out, or a
    /// node the world has no rank for, is a typed failure.
    fn unmarshal(&mut self, v: WireValue<'_>) -> Result<Value, ExecError> {
        Ok(match v {
            WireValue::Null => Value::Null,
            WireValue::Int(i) => Value::Int(i),
            WireValue::Float(f) => Value::Float(f),
            WireValue::Bool(b) => Value::Bool(b),
            WireValue::Str(s) => self.intern(&s),
            WireValue::Remote { node, id } => Value::Ref(match &self.dist {
                Some(d) if d.rank() == node => ObjRef::Local(d.exported(id)?),
                Some(d) => ObjRef::Remote {
                    node: d
                        .rank_in_world(i64::from(node))
                        .ok_or_else(|| ExecError::RemoteFailure(format!("bad node rank {node}")))?,
                    id,
                },
                None => ObjRef::Remote { node, id },
            }),
        })
    }

    /// Reads the next value of an incoming frame into its runtime form.
    fn read_value(&mut self, data: &mut Bytes) -> Result<Value, ExecError> {
        self.unmarshal(wire::decode_value(data)?)
    }

    // --- send ---------------------------------------------------------------------

    /// A pooled encode buffer for a request to `node`, plus the fingerprint hello if
    /// this is the first request on that link.
    fn frame_start(&mut self, node: u32) -> Result<(BytesMut, Option<u64>), ExecError> {
        let fp = self.layout.fingerprint();
        let dist = self.dist.as_mut().ok_or(ExecError::NotDistributed)?;
        let sent = &mut dist.hello_sent[node as usize];
        let hello = (!*sent).then_some(fp);
        *sent = true;
        Ok((dist.endpoint.take_buf(), hello))
    }

    /// Sends an encoded request, charging the virtual clock for `charged` bytes —
    /// the size the cost model defines for the message, not the frame's — and
    /// returns the request id the machine parks the running continuation on. The
    /// transport addresses ranks as `usize`.
    fn send_request(&mut self, node: u32, frame: BytesMut, charged: usize) -> u64 {
        self.counters.remote_requests += 1;
        let dist = self.dist.as_mut().expect("frame_start found dist state");
        let (clock, req_id) = dist.endpoint.send_request_charged(
            node as usize,
            frame.freeze(),
            self.clock_us,
            charged,
        );
        self.clock_us = clock;
        req_id
    }

    /// A field or array access on an object that lives on another node (`field` is
    /// `None` for the array kinds): sends the `DEPENDENCE` and returns the request
    /// id to park on.
    pub(crate) fn remote_access(
        &mut self,
        target: ObjRef,
        kind: AccessKind,
        field: Option<FieldRef>,
        args: &[Value],
    ) -> Result<u64, ExecError> {
        let member = field.map_or(WireMember::NONE, |fr| WireMember {
            id: self.layout.field_name_id_of(fr),
            name_len: self.layout.program().field(fr).name.len(),
        });
        self.remote_send(target, kind, member, args)
    }

    /// Sends a `DEPENDENCE` request without waiting for the answer: each argument is
    /// marshalled straight into the frame.
    fn remote_send(
        &mut self,
        target: ObjRef,
        kind: AccessKind,
        member: WireMember,
        args: &[Value],
    ) -> Result<u64, ExecError> {
        let ObjRef::Remote { node, id } = target else {
            return Err(ExecError::Unsupported(
                "remote access on a local reference".into(),
            ));
        };
        let (mut buf, hello) = self.frame_start(node)?;
        wire::dependence_head(&mut buf, hello, id, kind, member.id, args.len());
        let value_charge = self.marshal_args(&mut buf, args);
        let charged = wire::charged_dependence_size(member.name_len, value_charge);
        Ok(self.send_request(node, buf, charged))
    }

    /// Sends a `NEW` request without waiting (see [`Self::remote_send`]), naming the
    /// object with an id of this node's range at `home`. Returns that id, and the
    /// request id to park on for a round trip. A one-way `NEW` owes no reply: it joins
    /// the open packet for `home` instead, at no send overhead.
    fn remote_new_send(
        &mut self,
        home: u32,
        class: ClassId,
        class_name_len: usize,
        args: &[Value],
    ) -> Result<(u64, Option<u64>), ExecError> {
        let (mut buf, hello) = self.frame_start(home)?;
        let dist = self.dist.as_mut().expect("frame_start found dist state");
        let id = dist.hand_out(home);
        let one_way = dist.one_way.at(home, class);
        wire::new_head(&mut buf, hello, class.0, id, one_way, args.len());
        let value_charge = self.marshal_args(&mut buf, args);
        let charged = wire::charged_new_size(class_name_len, value_charge);
        if !one_way {
            return Ok((id, Some(self.send_request(home, buf, charged))));
        }
        self.counters.remote_requests += 1;
        let endpoint = &mut self
            .dist
            .as_mut()
            .expect("frame_start found dist state")
            .endpoint;
        self.clock_us = endpoint.defer_request_charged(home as usize, buf, self.clock_us, charged);
        Ok((id, None))
    }

    /// Sends the open packet, if this node holds one, as a packet of its own: the
    /// world is over and no later request will close it.
    pub(crate) fn flush_open_packet(&mut self) {
        if let Some(dist) = self.dist.as_mut() {
            self.clock_us = dist.endpoint.flush(self.clock_us);
        }
    }

    // --- accept -------------------------------------------------------------------

    /// Processes one incoming *request* packet, its frames in the order they were
    /// sent. Every frame but the last is a one-way `NEW`, served to completion before
    /// the next is read; the first frame that owes a reply — the last a sender puts in
    /// a packet — ends the packet and decides the outcome. Requests that need no
    /// bytecode (field/array accesses on local objects) are answered on the spot;
    /// invocations and constructions spawn a [`Continuation`] the worker loop runs —
    /// re-entrantly with any continuation this node already has parked, which is
    /// exactly what makes cyclic placements schedulable on one thread. The spent
    /// packet goes back to the link's buffer pool either way.
    pub fn accept_request(&mut self, from: usize, req_id: u64, mut data: Bytes) -> ServeOutcome {
        let outcome = loop {
            let mut owes_reply = true;
            match self.accept_frame(from, req_id, &mut data, &mut owes_reply) {
                Ok(outcome) if owes_reply => break outcome,
                Ok(_) if data.is_empty() => break ServeOutcome::Handled,
                Ok(_) => {}
                Err(e) if owes_reply => {
                    self.send_reply(from, req_id, Err(e));
                    break ServeOutcome::Handled;
                }
                Err(e) => break ServeOutcome::Failed(e),
            }
        };
        if let Some(d) = self.dist.as_mut() {
            d.endpoint.reclaim(data);
        }
        outcome
    }

    /// Serves one request frame: strips and verifies the fingerprint hello (only a
    /// packet's first frame carries one), then — `Shutdown` alone exempt — refuses
    /// anything from a peer whose fingerprint was never verified before decoding a
    /// single id, then dispatches on the head. Clears `owes_reply` as soon as the
    /// frame shows it is a one-way `NEW`.
    fn accept_frame(
        &mut self,
        from: usize,
        req_id: u64,
        data: &mut Bytes,
        owes_reply: &mut bool,
    ) -> Result<ServeOutcome, ExecError> {
        let hello = wire::split_hello(data)?;
        *owes_reply = wire::peek_tag(data)? != wire::TAG_NEW_ONE_WAY;
        self.verify_hello(from, hello)?;
        let verified = self
            .dist
            .as_ref()
            .is_some_and(|d| d.peer_ok.get(from).copied().unwrap_or(false));
        if !verified && wire::peek_tag(data)? != wire::TAG_SHUTDOWN {
            return Err(ExecError::Wire(WireError::UnverifiedSlotFrame));
        }
        let to = (from, req_id);
        match wire::decode_head(data)? {
            FrameHead::Shutdown => Ok(ServeOutcome::Handled), // nothing to reply
            FrameHead::New {
                class,
                id,
                one_way,
                argc,
            } => self.accept_new(to, class, id, one_way, argc, data),
            FrameHead::Dependence {
                target,
                kind,
                member,
                argc,
            } => self.accept_dep(to, target, kind, member, argc, data),
        }
    }

    /// Checks a received hello envelope against this node's layout fingerprint.
    /// A match unlocks dispatch of requests from `from`; a mismatch is a hard
    /// typed error (the peer's dense ids mean something else entirely).
    fn verify_hello(&mut self, from: usize, hello: Option<u64>) -> Result<(), ExecError> {
        let Some(theirs) = hello else { return Ok(()) };
        let ours = self.layout.fingerprint();
        if theirs != ours {
            return Err(ExecError::Wire(WireError::FingerprintMismatch {
                ours,
                theirs,
            }));
        }
        if let Some(d) = self.dist.as_mut() {
            if let Some(slot) = d.peer_ok.get_mut(from) {
                *slot = true;
            }
        }
        Ok(())
    }

    /// Answers request `to` with a value known without running bytecode.
    fn answer(&mut self, to: (usize, u64), v: Value) -> ServeOutcome {
        self.send_reply(to.0, to.1, Ok(v));
        ServeOutcome::Handled
    }

    /// The `NEW` service: instantiate the class with the wire-carried dense id
    /// (range-checked against the shared tables) and register it under the export id
    /// its creator chose — the next one of the requester's range here, anything else
    /// is a typed failure. A round trip returns a constructor with a body as a task
    /// and is answered with the fresh reference either way; a one-way `NEW` runs its
    /// constructor here, to completion, and is not answered.
    fn accept_new(
        &mut self,
        to: (usize, u64),
        class: u32,
        id: u64,
        one_way: bool,
        argc: usize,
        data: &mut Bytes,
    ) -> Result<ServeOutcome, ExecError> {
        self.counters.requests_served += 1;
        if (class as usize) >= self.layout.classes.len() {
            return Err(ExecError::RemoteFailure(format!("bad class id {class}")));
        }
        let dist = self.dist.as_ref().ok_or(ExecError::NotDistributed)?;
        let (creator, n) = dist.creator_of(id);
        if creator != to.0 || n != dist.registered[creator] {
            return Err(ExecError::RemoteFailure(format!("bad export id {id}")));
        }
        let (r, ctor) = self.create_at_home(ClassId(class));
        let ObjRef::Local(heap_idx) = r else {
            unreachable!("create_at_home allocates locally")
        };
        let dist = self.dist.as_mut().expect("checked above");
        dist.register(id, heap_idx);
        dist.registered[creator] += 1;
        let reply = Value::Ref(r);
        let task = match ctor {
            Some(ctor) => self.serving_task(ctor, reply, argc, data)?,
            None => None,
        };
        Ok(match (task, one_way) {
            (Some(task), true) => {
                self.construct(task)?;
                ServeOutcome::Handled
            }
            (Some(task), false) => ServeOutcome::Spawned {
                task,
                reply: Reply::Override(reply),
            },
            (None, true) => ServeOutcome::Handled,
            (None, false) => self.answer(to, reply),
        })
    }

    /// Runs a one-way constructor to completion. It cannot send — that is what made
    /// its `NEW` one-way — so it never parks; if it did, the frames behind it in its
    /// packet could not be served in order, and its world fails typed with the stall
    /// of the request it parked on.
    fn construct(&mut self, mut task: Continuation) -> Result<(), ExecError> {
        match self.run_task(&mut task) {
            TaskOutcome::Done(res) => {
                self.recycle_task(task);
                res.map(drop)
            }
            TaskOutcome::Parked { req_id } => {
                let rank = self.dist.as_ref().map_or(0, |d| d.rank as usize);
                Err(ExecError::Transport(TransportStall {
                    gapped: Vec::new(),
                    parked: vec![(rank, req_id)],
                }))
            }
        }
    }

    /// The `DEPENDENCE` service. `member` is resolved against the target's runtime
    /// class: a field-name id through the class's slot column — so a subclass that
    /// shadows the name answers with its own slot, and a name the class has no
    /// field for reads as null and drops the write — and a selector through its
    /// vtable. A field or array access takes its operands off the frame into stack
    /// locals (a missing one reads as its default); an invoke's go straight into
    /// the callee's locals ([`Self::serving_task`]).
    fn accept_dep(
        &mut self,
        to: (usize, u64),
        target: u64,
        kind: AccessKind,
        member: u32,
        argc: usize,
        data: &mut Bytes,
    ) -> Result<ServeOutcome, ExecError> {
        self.counters.requests_served += 1;
        let dist = self.dist.as_ref().ok_or(ExecError::NotDistributed)?;
        let heap_idx = dist.exported(target)?;
        let receiver = Value::Ref(ObjRef::Local(heap_idx));
        let mut left = argc;
        let mut operand = |me: &mut Self, default: Value| match left {
            0 => Ok(default),
            _ => {
                left -= 1;
                me.read_value(data)
            }
        };
        let value = match kind {
            AccessKind::GetField => match &self.heap[heap_idx as usize] {
                HeapObject::Object { class, fields } => self
                    .layout
                    .slot_of_field_name(*class, member)
                    .and_then(|slot| fields.get(slot as usize))
                    .copied()
                    .unwrap_or(Value::Null),
                _ => return Err(ExecError::Unsupported("field read on array".into())),
            },
            AccessKind::PutField => {
                let v = operand(self, Value::Null)?;
                match &mut self.heap[heap_idx as usize] {
                    HeapObject::Object { class, fields } => {
                        if let Some(cell) = self
                            .layout
                            .slot_of_field_name(*class, member)
                            .and_then(|slot| fields.get_mut(slot as usize))
                        {
                            *cell = v;
                        }
                        Value::Null
                    }
                    _ => return Err(ExecError::Unsupported("field write on array".into())),
                }
            }
            AccessKind::GetElement => {
                let idx = operand(self, Value::Int(0))?;
                self.array_load(receiver, idx)?
            }
            AccessKind::PutElement => {
                let idx = operand(self, Value::Int(0))?;
                let val = operand(self, Value::Null)?;
                self.array_store(receiver, idx, val)?;
                Value::Null
            }
            AccessKind::ArrayLength => self.array_length(receiver)?,
            AccessKind::InvokeVoid | AccessKind::InvokeRet => {
                let class = self.heap[heap_idx as usize]
                    .class()
                    .ok_or_else(|| ExecError::Unsupported("invoke on array".into()))?;
                let m = self.layout.resolve_selector(class, member).ok_or_else(|| {
                    // An error reply is charged by its text's length, so the text is
                    // part of virtual time: report the name the selector stands for.
                    ExecError::UnknownMethod(match self.layout.selector_name(member) {
                        Some(name) => Arc::clone(name),
                        None => format!("selector #{member}").into(),
                    })
                })?;
                match self.serving_task(m, receiver, argc, data)? {
                    Some(task) => {
                        return Ok(ServeOutcome::Spawned {
                            task,
                            reply: Reply::Result,
                        })
                    }
                    // Abstract / intrinsic methods behave as no-ops.
                    None => Value::Null,
                }
            }
        };
        Ok(self.answer(to, value))
    }

    /// The serving continuation for `method` on `receiver` (`None` for an empty body):
    /// slot 0 takes the receiver, and the frame's `argc` values are unmarshalled one by
    /// one straight into the locals behind it.
    ///
    /// Serving pushes a frame that stays live while the task runs (or parks), so
    /// unbounded cross-node recursion shows up as live-frame growth here — guard it
    /// like any other call.
    fn serving_task(
        &mut self,
        method: MethodId,
        receiver: Value,
        argc: usize,
        data: &mut Bytes,
    ) -> Result<Option<Continuation>, ExecError> {
        if self.live_frames >= self.max_depth {
            return Err(ExecError::StackOverflow);
        }
        if self.layout.ops(method).ops.is_empty() {
            return Ok(None);
        }
        let mut frame = self.frame_for(method, argc + 1);
        frame.locals[0] = receiver;
        for slot in 1..=argc {
            match self.read_value(data) {
                Ok(v) => frame.locals[slot] = v,
                Err(e) => {
                    self.recycle_frame(frame);
                    return Err(e);
                }
            }
        }
        self.enter_frame(&mut frame);
        Ok(Some(self.root_task(frame)))
    }

    /// Whether `pkt` overtook a frame it needs: a request without the fingerprint
    /// hello from a peer not yet verified (the hello leads the first packet of a link,
    /// so it is still on its way), or a frame that names an object of this node
    /// whose `NEW` has not registered here yet — a `DEPENDENCE` on it, a value that
    /// refers to it (in a request's arguments or a response), or a `NEW` its creator
    /// sent after one still owed. A request packet is read frame by frame, and its own
    /// `NEW`s count as registered for the frames behind them. A shutdown never waits.
    /// The packet is read, not consumed; a corrupt one is not held, so its delivery
    /// fails typed.
    pub(crate) fn overtook_a_frame_it_needs(&self, pkt: &Packet) -> bool {
        let Some(dist) = self.dist.as_ref() else {
            return false;
        };
        let from = pkt.from;
        let names_one = |v: &WireValue, ahead| matches!(*v, WireValue::Remote { node, id } if node == dist.rank && dist.awaits_new(id, from, ahead));
        let mut frame = Peek(&pkt.data);
        if pkt.kind == PacketKind::Response {
            return matches!(Response::decode(&mut frame), Ok(Response::Value(v)) if names_one(&v, 0));
        }
        let Ok(hello) = wire::split_hello(&mut frame) else {
            return false;
        };
        let unverified = hello.is_none() && !dist.peer_ok.get(from).copied().unwrap_or(false);
        // The packet's own `NEW`s of `from`'s range read so far.
        let mut ahead = 0;
        while !frame.is_empty() {
            let (argc, registers) = match wire::decode_head(&mut frame) {
                Ok(FrameHead::New { id, argc, .. }) => {
                    let (creator, n) = dist.creator_of(id);
                    let own = creator == from;
                    if unverified || own && n > dist.registered[creator] + ahead {
                        return true;
                    }
                    (argc, own)
                }
                Ok(FrameHead::Dependence { target, argc, .. }) => {
                    if unverified || dist.awaits_new(target, from, ahead) {
                        return true;
                    }
                    (argc, false)
                }
                _ => return false,
            };
            for _ in 0..argc {
                match wire::decode_value(&mut frame) {
                    Ok(v) if names_one(&v, ahead) => return true,
                    Ok(_) => {}
                    Err(_) => return false,
                }
            }
            ahead += u64::from(registers);
        }
        false
    }

    // --- reply, response decode ---------------------------------------------------

    /// Sends the response for request `req_id` back to `to`, marshalling the result
    /// (errors travel as `Response::Error`).
    pub fn send_reply(&mut self, to: usize, req_id: u64, result: Result<Value, ExecError>) {
        let dist = self.dist.as_mut().expect("reply requires dist state");
        let buf = dist.endpoint.take_buf();
        let reply = match result {
            Ok(v) => Response::Value(self.marshal(v)),
            Err(e) => Response::Error(e.to_string()),
        };
        let charged = wire::charged_response_size(&reply);
        let data = wire::encode_response_in(buf, &reply);
        let clock = self.clock_us;
        let dist = self.dist.as_mut().expect("reply requires dist state");
        self.clock_us = dist
            .endpoint
            .send_response_charged(to, req_id, data, clock, charged);
    }

    /// Reads the one value of a response frame (`Err` for a remote failure or a
    /// corrupt frame) and returns the frame's storage to the link's buffer pool.
    pub(crate) fn decode_response(&mut self, mut data: Bytes) -> Result<Value, ExecError> {
        let value = match Response::decode(&mut data) {
            Ok(Response::Value(v)) => self.unmarshal(v),
            Ok(Response::Error(e)) => Err(ExecError::RemoteFailure(e)),
            Err(e) => Err(e.into()),
        };
        if let Some(d) = self.dist.as_mut() {
            d.endpoint.reclaim(data);
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{NetworkConfig, Transport};
    use autodist_ir::frontend::compile_source;
    use bytes::BufMut;

    #[test]
    fn remote_access_without_runtime_is_rejected() {
        let src = r#"
            class C { static void main() { } }
        "#;
        let p = compile_source(src).unwrap();
        let mut interp = Interp::new(&p);
        let remote = ObjRef::Remote { node: 1, id: 0 };
        assert_eq!(
            interp.remote_access(remote, AccessKind::ArrayLength, None, &[]),
            Err(ExecError::NotDistributed)
        );
        assert_eq!(
            interp.remote_new_send(1, ClassId(0), 1, &[]),
            Err(ExecError::NotDistributed)
        );
        // The local slow-path helpers have no remote arm to fall back on either.
        assert_eq!(
            interp.array_length(Value::Ref(remote)),
            Err(ExecError::NotDistributed)
        );
    }

    /// Every remote `NEW` binds its proxy to the id its creator chose as it is sent:
    /// a one-way `NEW` runs on without a reply, and a round trip parks with its proxy
    /// already bound.
    #[test]
    fn a_remote_new_binds_its_proxy_as_it_is_sent() {
        use crate::serve::ServerApp;
        use autodist_codegen::rewrite::{rewrite_for_node, ClassPlacement};
        let p = compile_source(
            r#"
            class Plain { int v; Plain(int v) { this.v = v; } }
            class Linked { Plain next; Linked(Plain next) { this.next = next; } }
            class Main {
                static void main() { Plain p = new Plain(1); Linked l = new Linked(null); }
            }
        "#,
        )
        .unwrap();
        let home = [("Main", 0), ("Plain", 1), ("Linked", 1)]
            .map(|(class, node)| (p.class_by_name(class).unwrap(), node));
        let placement = ClassPlacement::new(2, home);
        let programs = (0..2)
            .map(|n| rewrite_for_node(&p, &placement, n).program)
            .collect();
        let app = ServerApp::prepare(programs, NetworkConfig::uniform(2));
        let dist =
            DistState::new(MpiEndpoint::new(0, 2, &app.network)).with_one_way(app.one_way.clone());
        let mut node =
            Interp::with_defaults(Arc::clone(&app.layouts[0]), Arc::clone(&app.defaults[0]))
                .with_dist(dist);
        let entry = node.layout().program().entry.unwrap();
        let mut main = node.task_for(entry, Vec::new()).unwrap();
        let TaskOutcome::Parked { req_id } = node.run_task(&mut main) else {
            panic!("main parks on the round trip");
        };
        assert_eq!(req_id, 2, "the one-way NEW took request id 1");
        let proxies: Vec<_> = (0..node.heap.len() as u32)
            .filter(|&h| node.heap[h as usize].class() == node.dep_class)
            .map(|h| node.proxy_target(h))
            .collect();
        assert_eq!(
            proxies,
            [
                Ok(ObjRef::Remote { node: 1, id: 0 }),
                Ok(ObjRef::Remote { node: 1, id: 2 })
            ]
        );
        let endpoint = &node.dist.as_ref().unwrap().endpoint;
        assert_eq!(
            endpoint.messages_sent, 1,
            "the one-way NEW rides in the round trip's packet"
        );
    }

    /// The wire boundary of a serving node, driven frame by frame: node 1 of a
    /// two-node world, its replies read back out of the world's transport.
    const WIRE_SRC: &str = r#"
        class Cell { int v; int get() { return this.v; } }
        class Other { int other() { return 1; } }
        class Main { static void main() { } }
    "#;

    fn reply_to(
        node: &mut Interp,
        net: &mut Transport,
        frame: BytesMut,
    ) -> Option<Result<WireValue<'static>, String>> {
        assert!(matches!(
            node.accept_request(0, 1, frame.freeze()),
            ServeOutcome::Handled
        ));
        net.route(&mut node.dist.as_mut().unwrap().endpoint);
        let mut data = net.recv(0)?.data;
        Some(match Response::decode(&mut data).expect("reply decodes") {
            Response::Value(v) => Ok(v.into_owned()),
            Response::Error(e) => Err(e),
        })
    }

    #[test]
    fn wire_ids_are_checked_before_they_index_anything() {
        let p = compile_source(WIRE_SRC).unwrap();
        let config = NetworkConfig::uniform(2);
        let mut net = Transport::new(2, None);
        let mut node = Interp::new(&p).with_dist(DistState::new(MpiEndpoint::new(1, 2, &config)));
        let fp = node.layout().fingerprint();
        let frame = |hello, target, kind, member, args: &[WireValue]| {
            let mut buf = BytesMut::new();
            wire::encode_dependence(&mut buf, hello, target, kind, member, args.iter().cloned());
            buf
        };
        let request = |data: BytesMut| Packet {
            from: 0,
            to: 1,
            kind: PacketKind::Request,
            req_id: 2,
            seq: 0,
            data: data.freeze(),
            arrival_time_us: 0.0,
        };

        // No hello yet: under a fault plan a frame from this peer waits for the hello
        // it overtook, which rides on the peer's first request; a shutdown never waits.
        let early = request(frame(None, 999, AccessKind::ArrayLength, 0, &[]));
        assert!(node.overtook_a_frame_it_needs(&early));
        let shutdown = Packet {
            data: shutdown_frame(),
            ..request(BytesMut::new())
        };
        assert!(!node.overtook_a_frame_it_needs(&shutdown));
        // Delivered anyway, nothing but a shutdown is honoured from this peer.
        let unverified = reply_to(
            &mut node,
            &mut net,
            frame(None, 0, AccessKind::ArrayLength, 0, &[]),
        );
        assert_eq!(
            unverified,
            Some(Err(
                ExecError::Wire(WireError::UnverifiedSlotFrame).to_string()
            ))
        );
        assert!(matches!(
            node.accept_request(0, 1, shutdown_frame()),
            ServeOutcome::Handled
        ));
        net.route(&mut node.dist.as_mut().unwrap().endpoint);
        assert!(net.recv(0).is_none(), "a shutdown owes no reply");
        assert_eq!(node.counters.requests_served, 0);

        // An export id of this node's own range (odd ones, at rank 1 of 2) that it
        // never handed out — as the target, or inside an argument that claims to
        // point back here — is an immediate typed failure.
        let bad_target = frame(Some(fp), 999, AccessKind::ArrayLength, 0, &[]);
        assert_eq!(
            reply_to(&mut node, &mut net, bad_target),
            Some(Err("remote failure: bad export id 999".into()))
        );
        // An id of node 0's range names an object node 0 may have created here with
        // a `NEW` still on its way: the frame is held, and stays held for as long as
        // no `NEW` registers that id. (A world that runs dry holding it fails with its
        // stall shape: `sched::tests::a_request_held_for_a_new_that_never_comes_stalls`.)
        let held = request(frame(None, 998, AccessKind::ArrayLength, 0, &[]));
        assert!(node.overtook_a_frame_it_needs(&held));
        let new = |id, one_way| {
            let mut buf = BytesMut::new();
            let cell = p.class_by_name("Cell").unwrap().0;
            wire::encode_new(&mut buf, None, cell, id, one_way, std::iter::empty());
            request(buf)
        };
        // A `NEW` that node 0 sent after one still owed is held too; the owed one
        // registers (one-way: no reply), and then only the never-sent 998 is awaited.
        assert!(node.overtook_a_frame_it_needs(&new(2, true)));
        assert!(!node.overtook_a_frame_it_needs(&new(0, true)));
        let registered = new(0, true);
        assert!(matches!(
            node.accept_request(0, 3, registered.data),
            ServeOutcome::Handled
        ));
        assert!(!node.overtook_a_frame_it_needs(&new(2, true)));
        assert!(node.overtook_a_frame_it_needs(&held));
        net.route(&mut node.dist.as_mut().unwrap().endpoint);
        assert!(net.recv(0).is_none(), "a one-way NEW owes no reply");
        // A packet's own `NEW`s count as registered for the frames behind them, in
        // order: a read of id 2 behind the `NEW` of 2 waits for nothing, behind the
        // `NEW` of 4 (one ahead of 2) it waits, and so does the `NEW` of 4 itself.
        let v = node.layout().field_name_id("v").unwrap();
        let packet = |new_id| {
            let mut buf = BytesMut::new();
            buf.put_slice(&new(new_id, true).data);
            buf.put_slice(&frame(None, 2, AccessKind::GetField, v, &[]));
            buf
        };
        assert!(!node.overtook_a_frame_it_needs(&request(packet(2))));
        assert!(node.overtook_a_frame_it_needs(&request(packet(4))));
        // Served frame by frame: the `NEW` registers the cell, the read answers.
        assert_eq!(
            reply_to(&mut node, &mut net, packet(2)),
            Some(Ok(WireValue::Int(0)))
        );
        let cell = p.class_by_name("Cell").unwrap();
        let ObjRef::Local(h) = node.new_instance(cell) else {
            unreachable!("new_instance allocates locally")
        };
        let id = node.export(h);
        // An export that is an object has no length: the typed error that an
        // element access on it gets, never a length of 0.
        assert_eq!(
            reply_to(
                &mut node,
                &mut net,
                frame(None, id, AccessKind::ArrayLength, 0, &[])
            ),
            Some(Err("unsupported operation: array length on object".into()))
        );
        let put = node.layout().field_name_id("v").unwrap();
        let mut put_arg = |arg| {
            reply_to(
                &mut node,
                &mut net,
                frame(None, id, AccessKind::PutField, put, &[arg]),
            )
        };
        assert_eq!(
            put_arg(WireValue::Remote { node: 1, id: 999 }),
            Some(Err("remote failure: bad export id 999".into()))
        );
        // So is a reference to a node the world has no rank for: accepted, it
        // would index a per-rank table at the first access through it...
        assert_eq!(
            put_arg(WireValue::Remote { node: 2, id: 0 }),
            Some(Err("remote failure: bad node rank 2".into()))
        );
        assert_eq!(
            put_arg(WireValue::Remote { node: 0, id: 7 }),
            Some(Ok(WireValue::Null))
        );
        // ...and so is a rewritten `DependentObject.<init>` whose location constant
        // is not a rank (a negative one used to wrap).
        let cell_name = node.intern("Cell");
        for location in [-1, 2] {
            let init = [Value::Null, Value::Int(location), cell_name, Value::Null];
            assert_eq!(
                node.parse_dep_init(&init).map(|(home, ..)| home),
                Err(ExecError::Unsupported(format!(
                    "DependentObject.<init>: no node {location}"
                )))
            );
        }

        // A selector the target's class does not bind reports the *name* (the
        // reply's length is charged, so its text is part of virtual time).
        let other = node.layout().selector_of_name("other").unwrap();
        assert_eq!(
            reply_to(
                &mut node,
                &mut net,
                frame(None, id, AccessKind::InvokeRet, other, &[])
            ),
            Some(Err("unknown method other".into()))
        );
        // A field-name id the class has no field for reads as null.
        assert_eq!(
            reply_to(
                &mut node,
                &mut net,
                frame(None, id, AccessKind::GetField, 9_999, &[])
            ),
            Some(Ok(WireValue::Null))
        );
    }

    #[test]
    fn names_the_layout_never_interned_fail_at_the_sender() {
        let p = compile_source(WIRE_SRC).unwrap();
        let config = NetworkConfig::uniform(2);
        let mut node = Interp::new(&p).with_dist(DistState::new(MpiEndpoint::new(0, 2, &config)));
        let remote = Value::Ref(ObjRef::Remote { node: 1, id: 0 });
        let names = ["get", "v", "nope", "Nope"].map(|name| (name, node.intern(name)));
        let str_value = |name: &str| names.iter().find(|(n, _)| *n == name).unwrap().1;
        let access = |kind: AccessKind, name: &str| {
            let args = [remote, Value::Int(i64::from(kind.tag())), str_value(name)];
            node.parse_dep_access(&remote, &args)
                .map(|(_, _, member, _)| (member.id, member.name_len))
        };
        let layout = node.layout();
        assert_eq!(
            access(AccessKind::InvokeRet, "get"),
            Ok((layout.selector_of_name("get").unwrap(), 3))
        );
        assert_eq!(
            access(AccessKind::PutField, "v"),
            Ok((layout.field_name_id("v").unwrap(), 1))
        );
        assert_eq!(
            access(AccessKind::InvokeVoid, "nope"),
            Err(ExecError::UnknownMethod("nope".into()))
        );
        // Selectors and field names are separate id spaces.
        assert_eq!(
            access(AccessKind::GetField, "get"),
            Err(ExecError::UnknownField("get".into()))
        );
        let init = [Value::Null, Value::Int(1), str_value("Nope"), Value::Null];
        assert_eq!(
            node.parse_dep_init(&init).map(|(home, ..)| home),
            Err(ExecError::Unsupported("unknown class Nope".into()))
        );
    }
}
