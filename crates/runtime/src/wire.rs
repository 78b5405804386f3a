//! The streamed wire format for inter-node messages.
//!
//! The paper's Message Exchange service "passes objects between nodes using a streamed
//! format" and distinguishes two message types, `NEW` (remote instantiation) and
//! `DEPENDENCE` (data/method dependences). This module defines exactly those requests,
//! the responses, and a compact hand-rolled binary encoding built on the `bytes` crate
//! so that the byte counts the transport reports are real.
//!
//! # One protocol
//!
//! Every request addresses its member by a dense id that both ends derive from their
//! [`ProgramLayout`](autodist_ir::layout::ProgramLayout): `NEW` carries the class id;
//! `DEPENDENCE` carries a method selector (`Invoke*`), a field-name id
//! (`GetField`/`PutField`) or nothing (array kinds — the kind alone names the
//! operation). The **sender** resolves the name it holds to the id; the **receiver**
//! resolves the id against the target's runtime class. No frame carries a name.
//!
//! What licenses the ids is the layout **fingerprint** — a stable hash of the
//! program's shape tables. The first packet on a link starts with a one-time *hello*
//! carrying the sender's fingerprint; the receiver verifies it against its own layout
//! before honouring any request from that peer, so version skew yields a typed
//! [`WireError::FingerprintMismatch`] and a peer that never said hello a
//! [`WireError::UnverifiedSlotFrame`] — never a wrong-slot dispatch.
//!
//! **A request packet is `hello? · frame · frame …`**: the optional hello, then one or
//! more request frames back to back, with no batch header (each frame is
//! self-delimiting: its head says how many values follow). Only the last frame may owe
//! a reply; every frame before it is a one-way `NEW` ([`crate::net`] says when frames
//! share a packet). A packet's physical bytes are therefore the sum of its frames'.
//!
//! | tag           | frame        | body                                                  |
//! |---------------|--------------|-------------------------------------------------------|
//! | `2`           | shutdown     | —                                                     |
//! | `3`           | `NEW`        | class id · export id · argc · values                  |
//! | `4`           | one-way `NEW`| class id · export id · argc · values (no reply owed)  |
//! | `5`           | hello        | fingerprint `u64` (then the packet's frames)          |
//! | `0x40 \| kind` | `DEPENDENCE` | target · member id (`Invoke*`/field kinds) · argc · values |
//!
//! A `NEW` carries the export id its creator chose for the object (see
//! [`crate::exchange`]): the home registers the object under it, and a one-way `NEW`
//! owes no reply because the creator already holds the reference.
//!
//! Head fields (class id, export id, target, member id, argc) are LEB128 varints: ids are
//! almost always below 128, so the typical head field is one byte, and nothing a
//! run can produce (a target beyond `u32::MAX`, hundreds of arguments) needs another
//! frame shape. Values are compact the same way: a tag byte, then a varint, eight
//! bytes or a varint-length-prefixed string:
//!
//! | tag  | value   | payload                                          | charged |
//! |------|---------|--------------------------------------------------|---------|
//! | `0`  | `null`  | —                                                | 1       |
//! | `1`  | `int`   | zigzag LEB128 varint (1–8 bytes)                 | 9       |
//! | `2`  | `float` | `f64`, big-endian                                | 9       |
//! | `3`  | `false` | — (a `boolean` is its tag)                       | 2       |
//! | `4`  | `true`  | —                                                | 2       |
//! | `5`  | string  | varint length (1–4 bytes) · UTF-8 bytes          | 5 + len |
//! | `6`  | remote  | varint node (1–4 bytes) · varint export id (1–8) | 13      |
//! | `9`  | `int`   | `i64`, big-endian                                | 9       |
//! | `13` | string  | `u32` length · UTF-8 bytes                       | 5 + len |
//! | `14` | remote  | `u32` node · `u64` export id                     | 13      |
//!
//! Tag `t | 8` is the fixed-width form of tag `t`: the first protocol version's layout,
//! written for the rare value whose varints would be wider than it — an `int` whose
//! zigzag value needs more than 56 bits, a node or export id beyond 28 or 56 bits, a
//! string of 2^28 bytes or more. So no value is ever longer than its charge.
//!
//! Values are written and read one at a time ([`WireValue`], [`put_value`],
//! [`decode_value`]): no frame is ever held as a collection of values, and a decoded
//! string borrows the frame's bytes until the receiver has interned it. A response
//! is its value alone, or tag `7` — no value's — and the varint-length-prefixed
//! error text (tag `15` and a `u32` length for a text of 2^28 bytes or more).
//! Request tags `0` and `1` belonged to the retired name-carrying frames and are
//! rejected like any unknown tag.
//!
//! All decode paths are total: corrupt bytes surface as a typed [`WireError`]
//! (truncation, bad tags, overlong varints, invalid UTF-8), not a panic, and a count
//! or length read off the wire is bounded by the bytes that remain before anything is
//! reserved — every value is at least its tag byte.
//!
//! # Virtual-time charging
//!
//! The transport counts the *physical* encoded bytes; the network cost model charges
//! a message by a formula over what the sender holds — the member's *name* length and
//! the argument values — never by what the encoder appended:
//!
//! ```text
//! charged(NEW)        = 1 + 4 + len(class name)          + 4 + value charge
//! charged(DEPENDENCE) = 1 + 8 + 1 + 4 + len(member name) + 4 + value charge
//! charged(response)   = 1 + value charge      (error: 1 + 4 + len(text))
//! ```
//!
//! ([`charged_new_size`], [`charged_dependence_size`], [`charged_response_size`];
//! array accesses have the empty member name). A value's charge is the
//! [`charged_value_size`] column above: its size in the first protocol version,
//! which wrote an `int` in eight bytes, a reference in twelve and every length in
//! four. [`put_value`] returns it as it encodes, so [`encode_new`],
//! [`encode_dependence`] and the Message Exchange sum the charge in the pass that
//! marshals. The formulas are the exact sizes of the frames that version sent — its
//! encoder lives on in `tests/wire_roundtrip.rs` as the executable definition — which
//! is why every committed virtual time predates and survives both the id frames and
//! the compact values: how a message is encoded moves its bytes, never its time. A
//! packet of several frames is charged the sum of its frames' charges.

use std::borrow::Cow;
use std::ops::Deref;

use autodist_codegen::rewrite::{
    ACCESS_GET_FIELD, ACCESS_INVOKE_HASRETURN, ACCESS_INVOKE_VOID, ACCESS_PUT_FIELD,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// The kind of access carried by a `DEPENDENCE` message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Invoke a void method on the target object.
    InvokeVoid,
    /// Invoke a value-returning method on the target object.
    InvokeRet,
    /// Read an instance field.
    GetField,
    /// Write an instance field.
    PutField,
    /// Read an array element (internal; arrays referenced remotely).
    GetElement,
    /// Write an array element (internal).
    PutElement,
    /// Read an array length (internal).
    ArrayLength,
}

impl AccessKind {
    /// Encoding tag.
    pub fn tag(self) -> u8 {
        match self {
            AccessKind::InvokeVoid => 1,
            AccessKind::InvokeRet => 2,
            AccessKind::GetField => 3,
            AccessKind::PutField => 4,
            AccessKind::GetElement => 5,
            AccessKind::PutElement => 6,
            AccessKind::ArrayLength => 7,
        }
    }

    /// Decodes a tag (also accepts the integer constants the bytecode rewriter embeds).
    pub fn from_tag(t: i64) -> Option<AccessKind> {
        Some(match t {
            ACCESS_INVOKE_VOID => AccessKind::InvokeVoid,
            ACCESS_INVOKE_HASRETURN => AccessKind::InvokeRet,
            ACCESS_GET_FIELD => AccessKind::GetField,
            ACCESS_PUT_FIELD => AccessKind::PutField,
            5 => AccessKind::GetElement,
            6 => AccessKind::PutElement,
            7 => AccessKind::ArrayLength,
            _ => return None,
        })
    }

    /// Whether a frame of this kind carries a member word (selector or field-name
    /// id). Array accesses don't: the kind alone determines the operation.
    pub fn has_member(self) -> bool {
        matches!(
            self,
            AccessKind::InvokeVoid
                | AccessKind::InvokeRet
                | AccessKind::GetField
                | AccessKind::PutField
        )
    }
}

/// A typed decode failure: corrupt bytes, a version-skewed peer, or a request from a
/// link that never presented a matching fingerprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The frame ended before a field could be read.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that remained.
        remaining: usize,
    },
    /// Unknown value tag.
    BadValueTag(u8),
    /// Unknown request frame tag.
    BadRequestTag(u8),
    /// Unknown response frame tag.
    BadResponseTag(u8),
    /// Unknown access kind in a `DEPENDENCE` frame.
    BadAccessKind(u8),
    /// A wire string was not valid UTF-8.
    BadUtf8 {
        /// What was being read.
        what: &'static str,
    },
    /// The peer's hello carried a different layout fingerprint: its dense ids do not
    /// mean what ours mean, so no request from it may be honoured.
    FingerprintMismatch {
        /// Our layout's fingerprint.
        ours: u64,
        /// The fingerprint the peer presented.
        theirs: u64,
    },
    /// A request arrived on a link that never completed the fingerprint hello.
    UnverifiedSlotFrame,
    /// A varint field ran past its maximum width (corrupt frame).
    VarintOverflow {
        /// What was being read.
        what: &'static str,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated {
                what,
                needed,
                remaining,
            } => write!(
                f,
                "truncated frame reading {what}: needed {needed} bytes, {remaining} left"
            ),
            WireError::BadValueTag(t) => write!(f, "corrupt wire value tag {t}"),
            WireError::BadRequestTag(t) => write!(f, "corrupt request tag {t}"),
            WireError::BadResponseTag(t) => write!(f, "corrupt response tag {t}"),
            WireError::BadAccessKind(t) => write!(f, "corrupt access kind {t}"),
            WireError::BadUtf8 { what } => write!(f, "invalid UTF-8 in wire {what}"),
            WireError::FingerprintMismatch { ours, theirs } => write!(
                f,
                "layout fingerprint mismatch: ours {ours:#018x}, peer sent {theirs:#018x}"
            ),
            WireError::UnverifiedSlotFrame => {
                write!(
                    f,
                    "slot-addressed frame on a link without a verified fingerprint"
                )
            }
            WireError::VarintOverflow { what } => {
                write!(f, "corrupt varint reading {what}: overlong encoding")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A marshalled value. Local references are converted to `Remote` before encoding (the
/// sender exports the object and sends its id), so the wire never carries heap indices.
/// A string borrows where it can: the sender's interned string on the way in, the
/// frame's bytes on the way out ([`WireValue::into_owned`] detaches a decoded one).
#[derive(Clone, Debug, PartialEq)]
pub enum WireValue<'a> {
    /// Null.
    Null,
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// String: copied into the frame from the sender's string table, and read out of
    /// it by the receiver straight into its own.
    Str(Cow<'a, str>),
    /// Reference to an object hosted by `node` with export id `id`.
    Remote {
        /// Home node.
        node: u32,
        /// Export id on the home node.
        id: u64,
    },
}

impl WireValue<'_> {
    /// The same value owning its string, independent of the frame it was read from.
    pub fn into_owned(self) -> WireValue<'static> {
        match self {
            WireValue::Null => WireValue::Null,
            WireValue::Int(x) => WireValue::Int(x),
            WireValue::Float(x) => WireValue::Float(x),
            WireValue::Bool(x) => WireValue::Bool(x),
            WireValue::Str(s) => WireValue::Str(Cow::Owned(s.into_owned())),
            WireValue::Remote { node, id } => WireValue::Remote { node, id },
        }
    }
}

/// A response to a request.
#[derive(Clone, Debug, PartialEq)]
pub enum Response<'a> {
    /// The result value (or an acknowledgement encoded as `Null`).
    Value(WireValue<'a>),
    /// The remote operation failed.
    Error(String),
}

pub(crate) const TAG_SHUTDOWN: u8 = 2;
const TAG_NEW: u8 = 3;
pub(crate) const TAG_NEW_ONE_WAY: u8 = 4;
const TAG_HELLO: u8 = 5;
/// `DEPENDENCE` tags pack the access kind into the frame tag: `0x40 | kind`.
const TAG_DEP_BASE: u8 = 0x40;

// Value tags. A `Bool` is its tag alone.
const VAL_NULL: u8 = 0;
const VAL_INT: u8 = 1;
const VAL_FLOAT: u8 = 2;
const VAL_FALSE: u8 = 3;
const VAL_TRUE: u8 = 4;
const VAL_STR: u8 = 5;
const VAL_REMOTE: u8 = 6;
/// A response is a value, or an error text under the one tag no value uses.
const TAG_ERROR: u8 = 7;
/// `tag | WIDE` is the fixed-width form of `tag`, for a value whose varints would be
/// wider than the first protocol version's fields (see the module doc).
const WIDE: u8 = 8;
const VAL_INT_WIDE: u8 = VAL_INT | WIDE;
const VAL_STR_WIDE: u8 = VAL_STR | WIDE;
const VAL_REMOTE_WIDE: u8 = VAL_REMOTE | WIDE;
const TAG_ERROR_WIDE: u8 = TAG_ERROR | WIDE;
/// Below `NARROW_INT` a zigzagged `int` or an export id is at most eight varint
/// bytes, below `NARROW_LEN` a length or a node at most four: no wider than their
/// fixed-width forms.
const NARROW_INT: u64 = 1 << 56;
const NARROW_LEN: u64 = 1 << 28;

fn need<B: Buf>(buf: &B, n: usize, what: &'static str) -> Result<(), WireError> {
    if buf.remaining() < n {
        Err(WireError::Truncated {
            what,
            needed: n,
            remaining: buf.remaining(),
        })
    } else {
        Ok(())
    }
}

fn rd_u8<B: Buf>(buf: &mut B, what: &'static str) -> Result<u8, WireError> {
    need(buf, 1, what)?;
    Ok(buf.get_u8())
}

fn rd_u32<B: Buf>(buf: &mut B, what: &'static str) -> Result<u32, WireError> {
    need(buf, 4, what)?;
    Ok(buf.get_u32())
}

fn rd_u64<B: Buf>(buf: &mut B, what: &'static str) -> Result<u64, WireError> {
    need(buf, 8, what)?;
    Ok(buf.get_u64())
}

/// A string's tag and length: a varint length, or `tag | WIDE` and a `u32` length
/// where the varint would be wider.
fn put_len(buf: &mut BytesMut, tag: u8, len: usize) {
    match u32::try_from(len) {
        Ok(n) if u64::from(n) >= NARROW_LEN => {
            buf.put_u8(tag | WIDE);
            buf.put_u32(n);
        }
        _ => {
            buf.put_u8(tag);
            put_varint(buf, len as u64);
        }
    }
}

fn put_string(buf: &mut BytesMut, tag: u8, s: &str) {
    put_len(buf, tag, s.len());
    buf.put_slice(s.as_bytes());
}

/// Reads a length-prefixed string (a `u32` length if `wide`, else a varint) through
/// the frame's cursor: borrowed (`&str`) for a value the receiver interns, copied
/// once into an owner (`String`) otherwise. A length past the end of the frame is
/// truncation.
fn get_string<'a, S: From<&'a str>, B: Buf>(
    buf: &'a mut B,
    wide: bool,
    what: &'static str,
) -> Result<S, WireError> {
    let len = if wide {
        u64::from(rd_u32(buf, what)?)
    } else {
        rd_varint(buf, what)?
    };
    let len = usize::try_from(len).unwrap_or(usize::MAX);
    need(buf, len, what)?;
    match std::str::from_utf8(buf.take_slice(len)) {
        Ok(s) => Ok(S::from(s)),
        Err(_) => Err(WireError::BadUtf8 { what }),
    }
}

/// An `i64` as an unsigned varint payload: small magnitudes of either sign stay
/// small (0, -1, 1, -2, … map to 0, 1, 2, 3, …).
fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    (u >> 1) as i64 ^ -((u & 1) as i64)
}

/// Appends one value to a frame — the `argc` values behind a request head, one call
/// each — and returns what the cost model charges for it ([`charged_value_size`]),
/// so a marshaller sums the charge in the pass that encodes. What it appends is never
/// longer than that charge.
pub fn put_value(buf: &mut BytesMut, v: &WireValue<'_>) -> usize {
    match v {
        WireValue::Null => buf.put_u8(VAL_NULL),
        WireValue::Int(x) if zigzag(*x) < NARROW_INT => {
            buf.put_u8(VAL_INT);
            put_varint(buf, zigzag(*x));
        }
        WireValue::Int(x) => {
            buf.put_u8(VAL_INT_WIDE);
            buf.put_i64(*x);
        }
        WireValue::Float(x) => {
            buf.put_u8(VAL_FLOAT);
            buf.put_f64(*x);
        }
        WireValue::Bool(x) => buf.put_u8(if *x { VAL_TRUE } else { VAL_FALSE }),
        WireValue::Str(s) => put_string(buf, VAL_STR, s),
        WireValue::Remote { node, id } if u64::from(*node) < NARROW_LEN && *id < NARROW_INT => {
            buf.put_u8(VAL_REMOTE);
            put_varint(buf, u64::from(*node));
            put_varint(buf, *id);
        }
        WireValue::Remote { node, id } => {
            buf.put_u8(VAL_REMOTE_WIDE);
            buf.put_u32(*node);
            buf.put_u64(*id);
        }
    }
    charged_value_size(v)
}

/// Reads the next value of a frame: the `argc` values behind a request head
/// ([`decode_head`]), one call each.
pub fn decode_value<B: Buf>(buf: &mut B) -> Result<WireValue<'_>, WireError> {
    let tag = rd_u8(buf, "value tag")?;
    value_body(tag, buf)
}

/// The rest of a value whose tag has been read.
fn value_body<B: Buf>(tag: u8, buf: &mut B) -> Result<WireValue<'_>, WireError> {
    Ok(match tag {
        VAL_NULL => WireValue::Null,
        VAL_INT => WireValue::Int(unzigzag(rd_varint(buf, "int value")?)),
        VAL_INT_WIDE => WireValue::Int(rd_u64(buf, "int value")? as i64),
        VAL_FLOAT => {
            need(buf, 8, "float value")?;
            WireValue::Float(buf.get_f64())
        }
        VAL_FALSE => WireValue::Bool(false),
        VAL_TRUE => WireValue::Bool(true),
        VAL_STR | VAL_STR_WIDE => WireValue::Str(Cow::Borrowed(get_string(
            buf,
            tag == VAL_STR_WIDE,
            "string value",
        )?)),
        VAL_REMOTE => WireValue::Remote {
            node: rd_id(buf, "remote node")?,
            id: rd_varint(buf, "remote id")?,
        },
        VAL_REMOTE_WIDE => WireValue::Remote {
            node: rd_u32(buf, "remote node")?,
            id: rd_u64(buf, "remote id")?,
        },
        t => return Err(WireError::BadValueTag(t)),
    })
}

// ---------------------------------------------------------------------------
// The virtual-time charge (see the module doc)
// ---------------------------------------------------------------------------

/// What the cost model charges for one value: its size in the first protocol
/// version, a tag byte and a fixed-width or `u32`-length-prefixed payload.
pub fn charged_value_size(v: &WireValue<'_>) -> usize {
    match v {
        WireValue::Null => 1,
        WireValue::Int(_) | WireValue::Float(_) => 1 + 8,
        WireValue::Bool(_) => 1 + 1,
        WireValue::Str(s) => 1 + 4 + s.len(),
        WireValue::Remote { .. } => 1 + 4 + 8,
    }
}

/// What the cost model charges for a `NEW` of a class with a name this long whose
/// argument values are charged `value_charge` ([`charged_value_size`] summed).
pub fn charged_new_size(class_name_len: usize, value_charge: usize) -> usize {
    1 + 4 + class_name_len + 4 + value_charge
}

/// What the cost model charges for a `DEPENDENCE` on a member with a name this long
/// (0 for array accesses) whose argument values are charged `value_charge`.
pub fn charged_dependence_size(member_len: usize, value_charge: usize) -> usize {
    1 + 8 + 1 + 4 + member_len + 4 + value_charge
}

/// What the cost model charges for a response: a status byte and the value, or
/// the `u32`-length-prefixed error text.
pub fn charged_response_size(resp: &Response<'_>) -> usize {
    match resp {
        Response::Value(v) => 1 + charged_value_size(v),
        Response::Error(e) => 1 + 4 + e.len(),
    }
}

// ---------------------------------------------------------------------------
// Encoders
// ---------------------------------------------------------------------------

/// LEB128-encodes a head field, an `int` (zigzagged), a reference or a length.
/// Dense ids — class ids, selectors, field-name ids — export counters, argument
/// counts and most integers a program passes are tiny, so the common varint is one
/// byte.
fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Reads a LEB128 `u64`; an encoding that runs past 64 bits is a typed corruption
/// error.
fn rd_varint<B: Buf>(buf: &mut B, what: &'static str) -> Result<u64, WireError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = rd_u8(buf, what)?;
        let bits = u64::from(byte & 0x7f);
        if shift == 63 && bits > 1 {
            break;
        }
        v |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(WireError::VarintOverflow { what })
}

/// Reads a varint head field that must fit a dense `u32` id.
fn rd_id<B: Buf>(buf: &mut B, what: &'static str) -> Result<u32, WireError> {
    u32::try_from(rd_varint(buf, what)?).map_err(|_| WireError::VarintOverflow { what })
}

/// Reads an argument count and bounds it by the bytes that remain (every value is
/// at least one byte), so no count off the wire can size an allocation the frame
/// could not fill.
fn rd_argc<B: Buf>(buf: &mut B) -> Result<usize, WireError> {
    let argc = rd_varint(buf, "arg count")?;
    match usize::try_from(argc) {
        Ok(n) if n <= buf.remaining() => Ok(n),
        _ => Err(WireError::Truncated {
            what: "argument values",
            needed: usize::try_from(argc).unwrap_or(usize::MAX),
            remaining: buf.remaining(),
        }),
    }
}

fn put_hello(buf: &mut BytesMut, hello: Option<u64>) {
    if let Some(fp) = hello {
        buf.put_u8(TAG_HELLO);
        buf.put_u64(fp);
    }
}

/// Writes each value as the iterator yields it. Returns the values' charge: the
/// variable term of the virtual-time charge.
fn put_args<'a>(buf: &mut BytesMut, args: impl Iterator<Item = WireValue<'a>>) -> usize {
    args.map(|v| put_value(buf, &v)).sum()
}

/// The head of a `NEW` — hello envelope if any, tag, class id, the export id the
/// creator chose, argument count — into a caller-provided (pooled) buffer; the `argc`
/// values follow, one [`put_value`] each. A `one_way` `NEW` owes no reply.
pub(crate) fn new_head(
    buf: &mut BytesMut,
    hello: Option<u64>,
    class: u32,
    id: u64,
    one_way: bool,
    argc: usize,
) {
    put_hello(buf, hello);
    buf.put_u8(if one_way { TAG_NEW_ONE_WAY } else { TAG_NEW });
    put_varint(buf, u64::from(class));
    put_varint(buf, id);
    put_varint(buf, argc as u64);
}

/// The head of a `DEPENDENCE` (see [`new_head`]). `member` is the selector or
/// field-name id; array-access kinds omit the member word entirely.
pub(crate) fn dependence_head(
    buf: &mut BytesMut,
    hello: Option<u64>,
    target: u64,
    kind: AccessKind,
    member: u32,
    argc: usize,
) {
    put_hello(buf, hello);
    buf.put_u8(TAG_DEP_BASE | kind.tag());
    put_varint(buf, target);
    if kind.has_member() {
        put_varint(buf, u64::from(member));
    }
    put_varint(buf, argc as u64);
}

/// Encodes a `NEW` into a caller-provided (pooled) buffer, optionally wrapped in the
/// one-time hello envelope carrying the sender's layout fingerprint. Returns the
/// values' charge ([`charged_new_size`]).
pub fn encode_new<'a>(
    buf: &mut BytesMut,
    hello: Option<u64>,
    class: u32,
    id: u64,
    one_way: bool,
    args: impl ExactSizeIterator<Item = WireValue<'a>>,
) -> usize {
    new_head(buf, hello, class, id, one_way, args.len());
    put_args(buf, args)
}

/// Encodes a `DEPENDENCE` into a caller-provided (pooled) buffer, optionally wrapped
/// in the hello envelope (see `dependence_head`). Returns the values' charge
/// ([`charged_dependence_size`]).
pub fn encode_dependence<'a>(
    buf: &mut BytesMut,
    hello: Option<u64>,
    target: u64,
    kind: AccessKind,
    member: u32,
    args: impl ExactSizeIterator<Item = WireValue<'a>>,
) -> usize {
    dependence_head(buf, hello, target, kind, member, args.len());
    put_args(buf, args)
}

/// The Message Exchange's orderly shutdown: a bare tag, no body, no reply.
pub fn encode_shutdown() -> Bytes {
    Bytes::from_static(&[TAG_SHUTDOWN])
}

/// Encodes a [`Response`] into a caller-provided (pooled) buffer: the value alone,
/// or the error tag and the text ([`charged_response_size`] is its charge).
pub fn encode_response_in(mut buf: BytesMut, resp: &Response<'_>) -> Bytes {
    match resp {
        Response::Value(v) => {
            put_value(&mut buf, v);
        }
        Response::Error(e) => put_string(&mut buf, TAG_ERROR, e),
    }
    buf.freeze()
}

// ---------------------------------------------------------------------------
// Decoders
// ---------------------------------------------------------------------------

/// The decoded head of a request frame. For `New` and `Dependence`, `argc` values
/// follow in the buffer (read each with [`decode_value`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameHead {
    /// `NEW` of the class with this dense id.
    New {
        /// Dense class id to instantiate.
        class: u32,
        /// The export id the creator chose for the new object.
        id: u64,
        /// `true` when no reply is owed.
        one_way: bool,
        /// Number of constructor arguments following the head.
        argc: usize,
    },
    /// `DEPENDENCE` on an exported object.
    Dependence {
        /// Export id of the target object.
        target: u64,
        /// What to do.
        kind: AccessKind,
        /// Selector or field-name id (0 and not sent for array kinds).
        member: u32,
        /// Number of argument values following the head.
        argc: usize,
    },
    /// Shutdown (no body).
    Shutdown,
}

/// Peeks the frame tag without consuming it.
pub fn peek_tag(buf: &[u8]) -> Result<u8, WireError> {
    match buf.first() {
        Some(&t) => Ok(t),
        None => Err(WireError::Truncated {
            what: "frame tag",
            needed: 1,
            remaining: 0,
        }),
    }
}

/// A read cursor over a borrowed frame: the decoders run over it to look at a frame
/// without consuming it (see `Interp::overtook_a_frame_it_needs`).
pub(crate) struct Peek<'a>(pub(crate) &'a [u8]);

impl Buf for Peek<'_> {
    fn remaining(&self) -> usize {
        self.0.len()
    }
    fn take_slice(&mut self, n: usize) -> &[u8] {
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        head
    }
}

impl Deref for Peek<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.0
    }
}

/// Consumes the hello if the packet starts with one, returning the peer's layout
/// fingerprint. The packet's frames remain in `buf`.
pub fn split_hello<B: Buf + Deref<Target = [u8]>>(buf: &mut B) -> Result<Option<u64>, WireError> {
    if peek_tag(buf)? != TAG_HELLO {
        return Ok(None);
    }
    let _ = buf.get_u8();
    Ok(Some(rd_u64(buf, "hello fingerprint")?))
}

/// Decodes a request head (tag through arg count), leaving the argument values in
/// `buf`. The hot receive path: no allocation, no string in sight.
pub fn decode_head<B: Buf>(buf: &mut B) -> Result<FrameHead, WireError> {
    let tag = rd_u8(buf, "frame tag")?;
    match tag {
        TAG_SHUTDOWN => Ok(FrameHead::Shutdown),
        TAG_NEW | TAG_NEW_ONE_WAY => Ok(FrameHead::New {
            class: rd_id(buf, "class id")?,
            id: rd_varint(buf, "export id")?,
            one_way: tag == TAG_NEW_ONE_WAY,
            argc: rd_argc(buf)?,
        }),
        _ if tag & 0xf8 == TAG_DEP_BASE => {
            let kind =
                AccessKind::from_tag(i64::from(tag & 0x07)).ok_or(WireError::BadAccessKind(tag))?;
            let target = rd_varint(buf, "dependence target")?;
            let member = if kind.has_member() {
                rd_id(buf, "dependence member")?
            } else {
                0
            };
            Ok(FrameHead::Dependence {
                target,
                kind,
                member,
                argc: rd_argc(buf)?,
            })
        }
        _ => Err(WireError::BadRequestTag(tag)),
    }
}

impl Response<'_> {
    /// Decodes a response. Takes the buffer by `&mut` so the caller keeps ownership
    /// of the spent [`Bytes`] and can reclaim its storage into the endpoint's buffer
    /// pool once it is done with the (borrowed) value.
    pub fn decode<B: Buf>(bytes: &mut B) -> Result<Response<'_>, WireError> {
        match rd_u8(bytes, "response tag")? {
            tag @ (TAG_ERROR | TAG_ERROR_WIDE) => Ok(Response::Error(get_string(
                bytes,
                tag == TAG_ERROR_WIDE,
                "error message",
            )?)),
            tag => match value_body(tag, bytes) {
                Err(WireError::BadValueTag(t)) => Err(WireError::BadResponseTag(t)),
                value => value.map(Response::Value),
            },
        }
    }
}

/// What a [`SeqWindow`] decided about an offered packet.
#[derive(Debug, PartialEq, Eq)]
pub enum SeqVerdict<T> {
    /// The packet is the next expected one (or a late packet the window already
    /// repaired over): hand it to the application now.
    Deliver(T),
    /// A copy of a sequence number already delivered (or already buffered):
    /// suppressed — idempotent delivery absorbs duplicates.
    Duplicate,
    /// Ahead of the expected sequence number: buffered until the gap fills (or the
    /// delivery deadline repairs over it).
    Buffered,
}

/// The receiver half of the transport's recovery protocol: a per-link in-order
/// delivery window over sequence-numbered packets.
///
/// Packets carry a per-link sequence number (transport metadata, like the
/// correlation id — it does not count against the byte cost model). The window
/// delivers exactly once and in sequence order: duplicates are suppressed,
/// reordered packets are buffered until their predecessors arrive. When a
/// predecessor will never arrive (the scheduler's delivery deadline — the moment
/// the admission window is full of worlds waiting on a gap, or nothing is left to
/// admit — has passed), [`SeqWindow::repair`] skips the gap and
/// releases the buffer — a late packet that shows up for a skipped number is still
/// delivered (at-least-once below, exactly-once above).
#[derive(Debug)]
pub struct SeqWindow<T> {
    /// Next sequence number owed to the application (numbering starts at 1;
    /// sequence 0 marks unsequenced control traffic and never reaches a window).
    next: u64,
    /// Out-of-order packets, keyed by sequence number.
    pending: std::collections::BTreeMap<u64, T>,
    /// Sequence numbers skipped by [`SeqWindow::repair`]: packets below `next` that
    /// are owed delivery if they ever arrive (everything else below `next` is a
    /// duplicate).
    skipped: Vec<u64>,
}

impl<T> Default for SeqWindow<T> {
    fn default() -> Self {
        SeqWindow {
            next: 1,
            pending: std::collections::BTreeMap::new(),
            skipped: Vec::new(),
        }
    }
}

impl<T> SeqWindow<T> {
    /// Screens one arriving packet.
    pub fn offer(&mut self, seq: u64, value: T) -> SeqVerdict<T> {
        if seq == self.next {
            self.next += 1;
            SeqVerdict::Deliver(value)
        } else if seq > self.next {
            match self.pending.entry(seq) {
                std::collections::btree_map::Entry::Occupied(_) => SeqVerdict::Duplicate,
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(value);
                    SeqVerdict::Buffered
                }
            }
        } else if let Some(i) = self.skipped.iter().position(|&s| s == seq) {
            self.skipped.swap_remove(i);
            SeqVerdict::Deliver(value)
        } else {
            SeqVerdict::Duplicate
        }
    }

    /// Releases the next in-order buffered packet, if the gap before it has closed.
    pub fn pop_ready(&mut self) -> Option<T> {
        let value = self.pending.remove(&self.next)?;
        self.next += 1;
        Some(value)
    }

    /// Number of buffered packets deliverable right now without further arrivals
    /// (the consecutive run starting at the expected sequence number).
    pub fn ready_run(&self) -> usize {
        let mut n = self.next;
        let mut run = 0;
        while self.pending.contains_key(&n) {
            run += 1;
            n += 1;
        }
        run
    }

    /// `true` when packets are buffered behind a sequence gap.
    pub fn has_gap(&self) -> bool {
        !self.pending.is_empty() && !self.pending.contains_key(&self.next)
    }

    /// The delivery deadline passed with this link quiet: skip the gap in front of
    /// the buffer so the buffered packets become deliverable. Skipped numbers are
    /// remembered — a late packet for one is still delivered, not suppressed.
    /// Returns how many buffered packets the repair released.
    pub fn repair(&mut self) -> usize {
        let Some((&first, _)) = self.pending.iter().next() else {
            return 0;
        };
        if first <= self.next {
            return self.ready_run();
        }
        for s in self.next..first {
            self.skipped.push(s);
        }
        self.next = first;
        self.ready_run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A request frame read back the way the Message Exchange reads it: hello, head,
    /// then `argc` values one at a time.
    fn read_frame(
        mut data: Bytes,
    ) -> Result<(Option<u64>, FrameHead, Vec<WireValue<'static>>), WireError> {
        let hello = split_hello(&mut data)?;
        let head = decode_head(&mut data)?;
        let argc = match head {
            FrameHead::New { argc, .. } | FrameHead::Dependence { argc, .. } => argc,
            FrameHead::Shutdown => 0,
        };
        let args: Result<_, _> = (0..argc)
            .map(|_| decode_value(&mut data).map(WireValue::into_owned))
            .collect();
        Ok((hello, head, args?))
    }

    fn new_frame(class: u32, args: &[WireValue]) -> Bytes {
        let mut buf = BytesMut::new();
        encode_new(&mut buf, None, class, 5, false, args.iter().cloned());
        buf.freeze()
    }

    fn dep_frame(target: u64, kind: AccessKind, member: u32, args: &[WireValue]) -> Bytes {
        let mut buf = BytesMut::new();
        encode_dependence(&mut buf, None, target, kind, member, args.iter().cloned());
        buf.freeze()
    }

    #[test]
    fn request_round_trips() {
        let every_kind = [
            WireValue::Int(1),
            WireValue::Str("ABC Market".into()),
            WireValue::Float(2.5),
            WireValue::Bool(true),
            WireValue::Null,
            WireValue::Remote { node: 1, id: 42 },
        ];
        let head = FrameHead::New {
            class: 2,
            id: 5,
            one_way: false,
            argc: 6,
        };
        assert_eq!(
            read_frame(new_frame(2, &every_kind)),
            Ok((None, head, every_kind.to_vec()))
        );
        let mut one_way = BytesMut::new();
        encode_new(&mut one_way, None, 2, 300, true, every_kind.iter().cloned());
        let head = FrameHead::New {
            class: 2,
            id: 300,
            one_way: true,
            argc: 6,
        };
        assert_eq!(
            read_frame(one_way.freeze()),
            Ok((None, head, every_kind.to_vec()))
        );
        assert_eq!(
            read_frame(encode_shutdown()),
            Ok((None, FrameHead::Shutdown, vec![]))
        );
    }

    #[test]
    fn v2_requests_round_trip() {
        let wide = vec![WireValue::Null; 300];
        for (target, kind, member, args) in [
            (7, AccessKind::InvokeRet, 4, &[][..]),
            (12, AccessKind::InvokeRet, 4, &[WireValue::Int(100)][..]),
            (0, AccessKind::PutField, 2, &[WireValue::Float(1.25)][..]),
            // Array kinds carry no member word.
            (5, AccessKind::GetElement, 0, &[WireValue::Int(3)][..]),
            (5, AccessKind::ArrayLength, 0, &[][..]),
            // The two shapes that once needed a second frame format.
            (u64::MAX, AccessKind::InvokeVoid, u32::MAX, &wide[..]),
        ] {
            let head = FrameHead::Dependence {
                target,
                kind,
                member,
                argc: args.len(),
            };
            assert_eq!(
                read_frame(dep_frame(target, kind, member, args)),
                Ok((None, head, args.to_vec()))
            );
        }
    }

    #[test]
    fn response_round_trips() {
        for r in [
            Response::Value(WireValue::Int(900)),
            Response::Value(WireValue::Null),
            Response::Error("no such method".to_string()),
        ] {
            let mut enc = encode_response_in(BytesMut::new(), &r);
            assert_eq!(Response::decode(&mut enc).unwrap(), r);
        }
    }

    #[test]
    fn access_kind_tags_round_trip() {
        for k in [
            AccessKind::InvokeVoid,
            AccessKind::InvokeRet,
            AccessKind::GetField,
            AccessKind::PutField,
            AccessKind::GetElement,
            AccessKind::PutElement,
            AccessKind::ArrayLength,
        ] {
            assert_eq!(AccessKind::from_tag(k.tag() as i64), Some(k));
        }
        assert_eq!(AccessKind::from_tag(0), None);
        assert_eq!(AccessKind::from_tag(99), None);
    }

    fn dep(target: u64, kind: AccessKind, member: u32, args: &[WireValue]) -> usize {
        dep_frame(target, kind, member, args).len()
    }

    #[test]
    fn encoding_is_compact() {
        // Invoke: tag + target varint(1) + selector varint(1) + argc(1) + int(1 + 1).
        assert_eq!(dep(1, AccessKind::InvokeRet, 9, &[WireValue::Int(5)]), 6);
        // Field read: tag + target(1) + field-name id(1) + argc(1).
        assert_eq!(dep(1, AccessKind::GetField, 0, &[]), 4);
        // Array read drops the member word: tag + target(1) + argc(1) + index(2).
        assert_eq!(dep(1, AccessKind::GetElement, 0, &[WireValue::Int(2)]), 5);
        // Wide ids widen gracefully: five bytes per maxed-out u32 field, ten for a
        // maxed-out target, two for a count past 127.
        let wide = u64::from(u32::MAX);
        assert_eq!(dep(wide, AccessKind::InvokeRet, u32::MAX, &[]), 12);
        assert_eq!(dep(u64::MAX, AccessKind::ArrayLength, 0, &[]), 12);
        assert_eq!(
            dep(1, AccessKind::InvokeVoid, 1, &vec![WireValue::Null; 128]),
            5 + 128
        );
        // Each value against its charge: a boolean is its tag, a small reference
        // three bytes, a string's length one byte below 128; a value whose varints
        // would outgrow its fixed-width form takes that form instead.
        for (v, bytes, charged) in [
            (WireValue::Null, 1, 1),
            (WireValue::Int(-64), 2, 9),
            (WireValue::Int(64), 3, 9),
            (WireValue::Float(0.5), 9, 9),
            (WireValue::Bool(false), 1, 2),
            (WireValue::Bool(true), 1, 2),
            (WireValue::Str("tag".into()), 5, 8),
            (WireValue::Remote { node: 1, id: 9 }, 3, 13),
            (
                WireValue::Remote {
                    node: (1 << 28) - 1,
                    id: (1 << 56) - 1,
                },
                13,
                13,
            ),
            (
                WireValue::Remote {
                    node: 1 << 28,
                    id: 9,
                },
                13,
                13,
            ),
            (
                WireValue::Remote {
                    node: 1,
                    id: 1 << 56,
                },
                13,
                13,
            ),
            (
                WireValue::Remote {
                    node: u32::MAX,
                    id: u64::MAX,
                },
                13,
                13,
            ),
        ] {
            let mut buf = BytesMut::new();
            assert_eq!(put_value(&mut buf, &v), charged, "{v:?}");
            assert_eq!(buf.len(), bytes, "{v:?}");
            assert_eq!(charged_value_size(&v), charged, "{v:?}");
        }
        // A response is its value alone.
        let reply = Response::Value(WireValue::Int(2));
        assert_eq!(encode_response_in(BytesMut::new(), &reply).len(), 2);
        assert_eq!(charged_response_size(&reply), 10);
        let failure = Response::Error("boom".into());
        assert_eq!(encode_response_in(BytesMut::new(), &failure).len(), 6);
        assert_eq!(charged_response_size(&failure), 9);
    }

    /// Zigzag keeps small magnitudes of either sign small and round-trips the
    /// extremes. An `int` whose zigzag value needs more than 56 bits — eight varint
    /// bytes — travels as a fixed `i64`, so no `int` is longer than nine bytes.
    #[test]
    fn zigzag_ints_round_trip_at_the_extremes() {
        for (x, zz, len) in [
            (0i64, 0u64, 2),
            (-1, 1, 2),
            (1, 2, 2),
            (-64, 127, 2),
            (64, 128, 3),
            (-(1 << 55), (1 << 56) - 1, 9),
            (1 << 55, 1 << 56, 9),
            (i64::MAX, u64::MAX - 1, 9),
            (i64::MIN, u64::MAX, 9),
        ] {
            assert_eq!(zigzag(x), zz);
            assert_eq!(unzigzag(zz), x);
            let mut buf = BytesMut::new();
            put_value(&mut buf, &WireValue::Int(x));
            assert_eq!(buf.len(), len, "{x}");
            let wide = zz >= NARROW_INT;
            assert_eq!(buf[0], if wide { VAL_INT_WIDE } else { VAL_INT }, "{x}");
            assert_eq!(decode_value(&mut buf.freeze()), Ok(WireValue::Int(x)));
        }
    }

    /// A length takes a varint up to four bytes and a `u32` under the wide tag from
    /// 2^28 on; a string or an error text in the wide form reads back like any other.
    #[test]
    fn long_lengths_take_the_fixed_width_form() {
        for (len, bytes) in [
            ((1 << 28) - 1, &[VAL_STR, 0xff, 0xff, 0xff, 0x7f][..]),
            (1 << 28, &[VAL_STR_WIDE, 0x10, 0, 0, 0][..]),
        ] {
            let mut buf = BytesMut::new();
            put_len(&mut buf, VAL_STR, len);
            assert_eq!(&buf[..], bytes);
        }
        let mut buf = BytesMut::new();
        put_len(&mut buf, TAG_ERROR, 1 << 28);
        assert_eq!(&buf[..], [TAG_ERROR_WIDE, 0x10, 0, 0, 0]);
        let wide_str = [VAL_STR_WIDE, 0, 0, 0, 2, b'o', b'k'];
        assert_eq!(
            decode_value(&mut Bytes::from(wide_str.to_vec())),
            Ok(WireValue::Str("ok".into()))
        );
        let wide_error = [TAG_ERROR_WIDE, 0, 0, 0, 2, b'n', b'o'];
        assert_eq!(
            Response::decode(&mut Bytes::from(wide_error.to_vec())),
            Ok(Response::Error("no".into()))
        );
    }

    #[test]
    fn v2_encoding_is_smaller_than_v1() {
        // Whatever the names, an id frame undercuts the size the cost model charges
        // for it (the name-carrying frame's), even for the empty name.
        let args = [WireValue::Int(5)];
        assert_eq!(charged_dependence_size("bounce".len(), 9), 33);
        assert!(dep(1, AccessKind::InvokeRet, 9, &args) < 33);
        assert!(
            dep(u64::MAX, AccessKind::InvokeRet, u32::MAX, &args) < charged_dependence_size(0, 9)
        );
        assert!(new_frame(3, &args).len() < charged_new_size(1, 9));
    }

    #[test]
    fn hello_envelope_carries_the_fingerprint_once() {
        let args = [WireValue::Int(5)];
        let mut enc = BytesMut::new();
        encode_dependence(
            &mut enc,
            Some(0xfeed_f00d_dead_beef),
            7,
            AccessKind::InvokeRet,
            3,
            args.iter().cloned(),
        );
        let head = FrameHead::Dependence {
            target: 7,
            kind: AccessKind::InvokeRet,
            member: 3,
            argc: 1,
        };
        assert_eq!(
            read_frame(enc.freeze()),
            Ok((Some(0xfeed_f00d_dead_beef), head, args.to_vec()))
        );
        // Without the envelope the same frame decodes with no fingerprint.
        assert_eq!(
            read_frame(dep_frame(7, AccessKind::InvokeRet, 3, &args)),
            Ok((None, head, args.to_vec()))
        );
    }

    /// A packet is the hello and then its frames back to back: each frame's head says
    /// how many values follow, so the frames need no header of their own.
    #[test]
    fn a_packet_is_its_frames_back_to_back() {
        let args = [WireValue::Int(5), WireValue::Str("tag".into())];
        let mut packet = BytesMut::new();
        encode_new(&mut packet, Some(7), 2, 4, true, args.iter().cloned());
        let first = packet.len();
        encode_new(&mut packet, None, 2, 6, true, args[..1].iter().cloned());
        encode_dependence(
            &mut packet,
            None,
            4,
            AccessKind::InvokeRet,
            3,
            args.iter().cloned(),
        );
        assert_eq!(
            first,
            9 + new_frame(2, &args).len(),
            "the hello leads, once"
        );
        let mut data = packet.freeze();
        assert_eq!(split_hello(&mut data), Ok(Some(7)));
        let mut heads = Vec::new();
        while !data.is_empty() {
            let head = decode_head(&mut data).unwrap();
            let (FrameHead::New { argc, .. } | FrameHead::Dependence { argc, .. }) = head else {
                unreachable!("no shutdown here")
            };
            for _ in 0..argc {
                decode_value(&mut data).unwrap();
            }
            heads.push(head);
        }
        assert_eq!(
            split_hello(&mut data),
            Err(WireError::Truncated {
                what: "frame tag",
                needed: 1,
                remaining: 0,
            })
        );
        assert_eq!(
            heads,
            [
                FrameHead::New {
                    class: 2,
                    id: 4,
                    one_way: true,
                    argc: 2
                },
                FrameHead::New {
                    class: 2,
                    id: 6,
                    one_way: true,
                    argc: 1
                },
                FrameHead::Dependence {
                    target: 4,
                    kind: AccessKind::InvokeRet,
                    member: 3,
                    argc: 2
                },
            ]
        );
    }

    /// The charging rule, spelled out field by field against the layout of the
    /// name-carrying frames it is defined by (the encoder itself is the oracle of
    /// the property test in `tests/wire_roundtrip.rs`): the value term is the charge
    /// the encoders return, not the bytes they appended.
    #[test]
    fn charged_sizes_match_v1_encodings_exactly() {
        assert_eq!(charged_new_size(7, 0), 1 + (4 + 7) + 4);
        assert_eq!(charged_dependence_size(10, 0), 1 + 8 + 1 + (4 + 10) + 4);
        let args = [
            WireValue::Str("héllo".into()),       // 1 + 4 + 6 UTF-8 bytes
            WireValue::Float(2.0),                // 1 + 8
            WireValue::Remote { node: 3, id: 9 }, // 1 + 4 + 8
            WireValue::Bool(true),                // 1 + 1
            WireValue::Null,                      // 1
        ];
        let mut buf = BytesMut::new();
        let value_charge = encode_new(&mut buf, Some(1), 0, 0, true, args.iter().cloned());
        assert_eq!(value_charge, 11 + 9 + 13 + 2 + 1);
        let dep_charge = encode_dependence(
            &mut buf,
            None,
            u64::MAX,
            AccessKind::PutElement,
            0,
            args.iter().cloned(),
        );
        assert_eq!(dep_charge, value_charge, "whatever head precedes them");
        assert_eq!(charged_new_size(7, value_charge), 16 + 11 + 9 + 13 + 2 + 1);
        assert_eq!(
            charged_dependence_size(0, value_charge),
            18 + 11 + 9 + 13 + 2 + 1
        );
    }

    #[test]
    fn corrupt_frames_fail_typed_not_panicking() {
        let decode = |bytes: Vec<u8>| read_frame(Bytes::from(bytes));
        // Unknown request tags, the retired name-carrying frames' among them.
        for tag in [0u8, 1, 6, 99] {
            assert_eq!(
                decode(vec![tag, 0, 0, 0]),
                Err(WireError::BadRequestTag(tag))
            );
        }
        // A dependence tag with no such access kind.
        assert_eq!(
            decode(vec![0x40u8, 0, 0]),
            Err(WireError::BadAccessKind(0x40))
        );
        // Bad value tag inside a NEW arg list.
        assert_eq!(
            decode(vec![TAG_NEW, 1, 0, 1, 12]),
            Err(WireError::BadValueTag(12))
        );
        // Truncated mid-head.
        let mut enc = dep_frame(1 << 40, AccessKind::GetField, 1, &[]);
        assert!(matches!(
            read_frame(enc.split_to(4)),
            Err(WireError::Truncated { .. })
        ));
        // An id that does not fit 32 bits, and a varint that never ends.
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_NEW);
        put_varint(&mut buf, u64::from(u32::MAX) + 1);
        buf.put_u8(0);
        assert_eq!(
            read_frame(buf.freeze()),
            Err(WireError::VarintOverflow { what: "class id" })
        );
        let mut endless = vec![TAG_DEP_BASE | AccessKind::ArrayLength.tag()];
        endless.extend([0xff; 11]);
        assert_eq!(
            decode(endless),
            Err(WireError::VarintOverflow {
                what: "dependence target"
            })
        );
        // Every unknown value tag, in a request's arguments and as a response.
        let values = [
            VAL_NULL,
            VAL_INT,
            VAL_FLOAT,
            VAL_FALSE,
            VAL_TRUE,
            VAL_STR,
            VAL_REMOTE,
            VAL_INT_WIDE,
            VAL_STR_WIDE,
            VAL_REMOTE_WIDE,
        ];
        for tag in (0..=u8::MAX).filter(|t| !values.contains(t)) {
            assert_eq!(
                decode(vec![TAG_NEW, 1, 0, 1, tag]),
                Err(WireError::BadValueTag(tag))
            );
            if tag != TAG_ERROR && tag != TAG_ERROR_WIDE {
                assert_eq!(
                    Response::decode(&mut Bytes::from(vec![tag])),
                    Err(WireError::BadResponseTag(tag))
                );
            }
        }
        // An `int` whose varint runs to an eleventh byte, and one whose tenth byte
        // carries more than the sixty-fourth bit.
        let mut long_int = vec![TAG_NEW, 1, 0, 1, VAL_INT];
        long_int.extend([0xff; 10]);
        long_int.push(0);
        assert_eq!(
            decode(long_int),
            Err(WireError::VarintOverflow { what: "int value" })
        );
        let mut wide_int = vec![VAL_INT];
        wide_int.extend([0xff; 9]);
        wide_int.push(2);
        assert_eq!(
            Response::decode(&mut Bytes::from(wide_int)),
            Err(WireError::VarintOverflow { what: "int value" })
        );
        // A string, or an error text, whose length runs past the frame.
        assert_eq!(
            decode(vec![TAG_NEW, 1, 0, 1, VAL_STR, 3, b'a', b'b']),
            Err(WireError::Truncated {
                what: "string value",
                needed: 3,
                remaining: 2,
            })
        );
        assert_eq!(
            Response::decode(&mut Bytes::from(vec![TAG_ERROR, 0x80, 0x01, b'x'])),
            Err(WireError::Truncated {
                what: "error message",
                needed: 128,
                remaining: 1,
            })
        );
        // Fixed-width forms cut short.
        for (tag, what, needed) in [
            (VAL_INT_WIDE, "int value", 8),
            (VAL_REMOTE_WIDE, "remote node", 4),
            (VAL_STR_WIDE, "string value", 4),
        ] {
            assert_eq!(
                decode_value(&mut Bytes::from(vec![tag, 0, 0])),
                Err(WireError::Truncated {
                    what,
                    needed,
                    remaining: 2,
                })
            );
        }
        // A reference whose node does not fit 32 bits.
        let mut far = BytesMut::new();
        far.put_u8(VAL_REMOTE);
        put_varint(&mut far, u64::from(u32::MAX) + 1);
        far.put_u8(0);
        assert_eq!(
            Response::decode(&mut far.freeze()),
            Err(WireError::VarintOverflow {
                what: "remote node"
            })
        );
        // Empty frame.
        assert!(matches!(decode(vec![]), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn invalid_utf8_is_a_typed_error_not_lossy_mangling() {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_NEW);
        buf.put_u8(0); // class id
        buf.put_u8(0); // export id
        buf.put_u8(1); // one argument
        buf.put_u8(VAL_STR);
        buf.put_u8(2); // varint length
        buf.put_slice(&[0xff, 0xfe]);
        assert_eq!(
            read_frame(buf.freeze()),
            Err(WireError::BadUtf8 {
                what: "string value"
            })
        );
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_ERROR);
        buf.put_u8(1); // varint length
        buf.put_u8(0xff);
        assert_eq!(
            Response::decode(&mut buf.freeze()),
            Err(WireError::BadUtf8 {
                what: "error message"
            })
        );
    }

    #[test]
    fn unicode_strings_survive() {
        let args = [WireValue::Str("Mérchants € 銀行".into())];
        let (_, _, back) = read_frame(new_frame(1, &args)).unwrap();
        assert_eq!(back, args);
    }

    #[test]
    fn seq_window_delivers_in_order_and_suppresses_duplicates() {
        let mut w = SeqWindow::default();
        assert_eq!(w.offer(1, "a"), SeqVerdict::Deliver("a"));
        assert_eq!(w.offer(1, "a"), SeqVerdict::Duplicate, "retransmitted copy");
        assert_eq!(w.offer(2, "b"), SeqVerdict::Deliver("b"));
        assert!(w.pop_ready().is_none());
    }

    #[test]
    fn seq_window_buffers_reordered_packets_until_the_gap_fills() {
        let mut w = SeqWindow::default();
        assert_eq!(w.offer(2, "b"), SeqVerdict::Buffered);
        assert_eq!(w.offer(2, "b"), SeqVerdict::Duplicate, "buffered copy");
        assert!(w.has_gap());
        assert_eq!(w.ready_run(), 0);
        assert_eq!(w.offer(1, "a"), SeqVerdict::Deliver("a"));
        assert_eq!(w.ready_run(), 1);
        assert_eq!(w.pop_ready(), Some("b"));
        assert!(!w.has_gap());
    }

    #[test]
    fn seq_window_repair_skips_gaps_but_still_accepts_late_packets() {
        let mut w = SeqWindow::default();
        assert_eq!(w.offer(3, "c"), SeqVerdict::Buffered);
        assert_eq!(w.offer(4, "d"), SeqVerdict::Buffered);
        // Delivery deadline passed: seqs 1 and 2 are skipped, the buffer releases.
        assert_eq!(w.repair(), 2);
        assert_eq!(w.pop_ready(), Some("c"));
        assert_eq!(w.pop_ready(), Some("d"));
        // A late packet for a skipped number is delivered, not suppressed...
        assert_eq!(w.offer(2, "b"), SeqVerdict::Deliver("b"));
        // ...exactly once: a second copy is a duplicate again.
        assert_eq!(w.offer(2, "b"), SeqVerdict::Duplicate);
        // Repair with no buffered packets is a no-op.
        assert_eq!(w.repair(), 0);
    }
}
