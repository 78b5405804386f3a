//! Property tests for the streamed wire format. The distributed-vs-centralized
//! checksum equivalence tests depend silently on wire fidelity: every request and
//! response must survive serialize → deserialize byte-exactly, no input may panic
//! the decoder, and the virtual-time charge must stay what it was defined to be —
//! the length of the frame the first protocol version sent (member names, fixed-width
//! values, `u32` lengths), whose encoder survives here as the oracle for exactly that
//! definition.

use autodist_runtime::wire::{
    charged_dependence_size, charged_new_size, charged_response_size, decode_head, decode_value,
    encode_dependence, encode_new, encode_response_in, encode_shutdown, put_value, split_hello,
    AccessKind, FrameHead, Response, WireError, WireValue,
};
use bytes::{Bytes, BytesMut};
use proptest::prelude::*;

/// The retired (v1) frames, written independently of the crate's codec: `NEW` = tag 0
/// · class name · values, `DEPENDENCE` = tag 1 · target `u64` · kind · member name ·
/// values, a response = status 0 · value or status 1 · error text; names, texts and
/// value lists are `u32`-length-prefixed, integers big-endian, a value is a tag and a
/// fixed-width or length-prefixed payload.
mod v1_oracle {
    use super::{AccessKind, Response, WireValue};

    fn put_str(out: &mut Vec<u8>, s: &str) {
        out.extend((s.len() as u32).to_be_bytes());
        out.extend(s.as_bytes());
    }

    pub fn put_value(out: &mut Vec<u8>, v: &WireValue) {
        match v {
            WireValue::Null => out.push(0),
            WireValue::Int(x) => {
                out.push(1);
                out.extend(x.to_be_bytes());
            }
            WireValue::Float(x) => {
                out.push(2);
                out.extend(x.to_be_bytes());
            }
            WireValue::Bool(x) => out.extend([3, *x as u8]),
            WireValue::Str(s) => {
                out.push(4);
                put_str(out, s);
            }
            WireValue::Remote { node, id } => {
                out.push(5);
                out.extend(node.to_be_bytes());
                out.extend(id.to_be_bytes());
            }
        }
    }

    fn put_values(out: &mut Vec<u8>, vs: &[WireValue]) {
        out.extend((vs.len() as u32).to_be_bytes());
        for v in vs {
            put_value(out, v);
        }
    }

    pub fn encode_new(class_name: &str, args: &[WireValue]) -> Vec<u8> {
        let mut out = vec![0];
        put_str(&mut out, class_name);
        put_values(&mut out, args);
        out
    }

    pub fn encode_dependence(
        target: u64,
        kind: AccessKind,
        member: &str,
        args: &[WireValue],
    ) -> Vec<u8> {
        let mut out = vec![1];
        out.extend(target.to_be_bytes());
        out.push(kind.tag());
        put_str(&mut out, member);
        put_values(&mut out, args);
        out
    }

    pub fn encode_response(resp: &Response) -> Vec<u8> {
        let mut out = Vec::new();
        match resp {
            Response::Value(v) => {
                out.push(0);
                put_value(&mut out, v);
            }
            Response::Error(e) => {
                out.push(1);
                put_str(&mut out, e);
            }
        }
        out
    }
}

fn arb_access_kind() -> impl Strategy<Value = AccessKind> {
    prop_oneof![
        Just(AccessKind::InvokeVoid),
        Just(AccessKind::InvokeRet),
        Just(AccessKind::GetField),
        Just(AccessKind::PutField),
        Just(AccessKind::GetElement),
        Just(AccessKind::PutElement),
        Just(AccessKind::ArrayLength),
    ]
}

/// Any value. A third of the integers and references are of the magnitudes a program
/// passes (small counters, a handful of nodes, export ids below 2^21), a third
/// straddle the point where the compact form gives way to the fixed-width one (an
/// `int` at ±2^55, a node at 2^28, an id at 2^56), a third span their whole type.
fn arb_wire_value() -> impl Strategy<Value = WireValue<'static>> {
    prop_oneof![
        Just(WireValue::Null),
        prop_oneof![any::<i64>(), -(1i64 << 20)..1 << 20, -(1i64 << 56)..1 << 56]
            .prop_map(WireValue::Int),
        (-1e300f64..1e300).prop_map(WireValue::Float),
        any::<bool>().prop_map(WireValue::Bool),
        "[ -~]{0,32}".prop_map(|s| WireValue::Str(s.into())),
        prop_oneof![
            (any::<u32>(), any::<u64>()),
            (0..64u32, 0..1u64 << 21),
            (0..1u32 << 29, 0..1u64 << 57),
        ]
        .prop_map(|(node, id)| WireValue::Remote { node, id }),
    ]
}

/// A `NEW` frame as the Message Exchange builds it, plus the value charge the encoder
/// reports (the variable term of the virtual-time charge).
fn new_frame(
    hello: Option<u64>,
    class: u32,
    id: u64,
    one_way: bool,
    args: &[WireValue],
) -> (Bytes, usize) {
    let mut buf = BytesMut::new();
    let value_charge = encode_new(&mut buf, hello, class, id, one_way, args.iter().cloned());
    (buf.freeze(), value_charge)
}

/// The same for a `DEPENDENCE` frame.
fn dep_frame(
    hello: Option<u64>,
    target: u64,
    kind: AccessKind,
    member: u32,
    args: &[WireValue],
) -> (Bytes, usize) {
    let mut buf = BytesMut::new();
    let value_charge =
        encode_dependence(&mut buf, hello, target, kind, member, args.iter().cloned());
    (buf.freeze(), value_charge)
}

/// A whole request frame: the hello fingerprint if present, the head, the values.
type Frame = (Option<u64>, FrameHead, Vec<WireValue<'static>>);

/// Reads a frame the way the Message Exchange does — hello, head, then `argc`
/// values one at a time. Must return, whatever the bytes: a typed error or a
/// well-formed frame.
fn read_frame(frame: &[u8]) -> Result<Frame, WireError> {
    let mut data = Bytes::from(frame.to_vec());
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

/// What a `DEPENDENCE` frame must read back as (array kinds carry no member word).
fn dep_head(target: u64, kind: AccessKind, member: u32, argc: usize) -> FrameHead {
    FrameHead::Dependence {
        target,
        kind,
        member: if kind.has_member() { member } else { 0 },
        argc,
    }
}

proptest! {
    /// `NEW` requests round-trip for arbitrary class ids and argument vectors.
    #[test]
    fn new_requests_round_trip(
        class in any::<u32>(),
        id in prop_oneof![0..1u64 << 21, any::<u64>()],
        one_way in any::<bool>(),
        args in prop::collection::vec(arb_wire_value(), 0..8),
    ) {
        let head = FrameHead::New { class, id, one_way, argc: args.len() };
        let frame = new_frame(None, class, id, one_way, &args).0;
        prop_assert_eq!(read_frame(&frame), Ok((None, head, args)));
    }

    /// `DEPENDENCE` requests round-trip for every access kind and any 64-bit target.
    #[test]
    fn dependence_requests_round_trip(
        target in any::<u64>(),
        kind in arb_access_kind(),
        member in any::<u32>(),
        args in prop::collection::vec(arb_wire_value(), 0..8),
    ) {
        let head = dep_head(target, kind, member, args.len());
        let (frame, _) = dep_frame(None, target, kind, member, &args);
        prop_assert_eq!(read_frame(&frame), Ok((None, head, args)));
    }

    /// The same with and without the fingerprint hello envelope — and the frame is
    /// never larger than what the cost model charges for the same message, even
    /// one with an empty member name.
    #[test]
    fn v2_dependence_requests_round_trip(
        target in any::<u64>(),
        kind in arb_access_kind(),
        member in any::<u32>(),
        args in prop::collection::vec(arb_wire_value(), 0..8),
        has_hello in any::<bool>(),
        hello_fp in any::<u64>(),
    ) {
        let hello = if has_hello { Some(hello_fp) } else { None };
        let (data, value_charge) = dep_frame(hello, target, kind, member, &args);
        let hello_len = if hello.is_some() { 9 } else { 0 };
        prop_assert!(
            data.len() - hello_len <= charged_dependence_size(0, value_charge),
            "frame larger than the charge for an empty-name message"
        );
        let head = dep_head(target, kind, member, args.len());
        prop_assert_eq!(read_frame(&data), Ok((hello, head, args)));
    }

    /// `NEW` under the hello envelope: round-trips, and stays under the charge for
    /// any class and export id when the class name is at least as long as the id's
    /// varint beyond two bytes. The charge's nine fixed bytes hold the tag, the class
    /// varint (at most five), the argument count (one below 128) and two id bytes;
    /// each further id byte needs a name byte.
    #[test]
    fn v2_new_requests_round_trip(
        class in any::<u32>(),
        id in prop_oneof![0..1u64 << 21, any::<u64>()],
        one_way in any::<bool>(),
        args in prop::collection::vec(arb_wire_value(), 0..8),
        has_hello in any::<bool>(),
        hello_fp in any::<u64>(),
    ) {
        let hello = if has_hello { Some(hello_fp) } else { None };
        let (data, value_charge) = new_frame(hello, class, id, one_way, &args);
        let hello_len = if hello.is_some() { 9 } else { 0 };
        let id_len = (64 - id.leading_zeros()).max(1).div_ceil(7) as usize;
        let name_len = id_len.saturating_sub(2);
        prop_assert!(data.len() - hello_len <= charged_new_size(name_len, value_charge));
        let head = FrameHead::New { class, id, one_way, argc: args.len() };
        prop_assert_eq!(read_frame(&data), Ok((hello, head, args)));
    }

    /// The charging rule *is* the v1 frame length: for arbitrary names (empty and
    /// multi-byte included) and arbitrary values, the formula — over the value charge
    /// the encoder reports as it appends — and the oracle agree.
    #[test]
    fn charged_sizes_are_the_v1_frame_lengths(
        name in "[a-zA-Z0-9_<>/é銀 ]{0,24}",
        target in any::<u64>(),
        kind in arb_access_kind(),
        args in prop::collection::vec(arb_wire_value(), 0..8),
    ) {
        let (_, value_charge) = new_frame(Some(target), 3, target, false, &args);
        prop_assert_eq!(
            charged_new_size(name.len(), value_charge),
            v1_oracle::encode_new(&name, &args).len()
        );
        let (_, value_charge) = dep_frame(None, target, kind, 3, &args);
        prop_assert_eq!(
            charged_dependence_size(name.len(), value_charge),
            v1_oracle::encode_dependence(target, kind, &name, &args).len()
        );
    }

    /// The v1 encoder is the charge's definition. For every generated frame — a
    /// `DEPENDENCE`, a `NEW`, each value, a response of each kind — the charge is the
    /// v1 frame's length, the compact (v2) frame decodes to the same values, and it is
    /// never longer than the v1 frame. (A `NEW`'s export id is one its creator counts
    /// out, below 2^21 here; a wider one outgrows the v1 head, see
    /// `v2_new_requests_round_trip`.)
    #[test]
    fn v1_and_v2_framings_agree_on_payload(
        target in any::<u64>(),
        kind in arb_access_kind(),
        member_name in "[a-z][A-Za-z0-9]{0,12}",
        member_id in any::<u32>(),
        export_id in 0..1u64 << 21,
        args in prop::collection::vec(arb_wire_value(), 0..6),
        error in "[ -~]{0,200}",
    ) {
        let v1 = v1_oracle::encode_dependence(target, kind, &member_name, &args);
        let (v2, charge) = dep_frame(None, target, kind, member_id, &args);
        prop_assert_eq!(charged_dependence_size(member_name.len(), charge), v1.len());
        prop_assert!(v2.len() <= v1.len(), "{} > {}", v2.len(), v1.len());
        let head = dep_head(target, kind, member_id, args.len());
        prop_assert_eq!(read_frame(&v2), Ok((None, head, args.clone())));

        let v1 = v1_oracle::encode_new(&member_name, &args);
        let (v2, charge) = new_frame(None, member_id, export_id, true, &args);
        prop_assert_eq!(charged_new_size(member_name.len(), charge), v1.len());
        prop_assert!(v2.len() <= v1.len(), "{} > {}", v2.len(), v1.len());
        let head = FrameHead::New { class: member_id, id: export_id, one_way: true, argc: args.len() };
        prop_assert_eq!(read_frame(&v2), Ok((None, head, args.clone())));

        for v in &args {
            let (mut v1, mut v2) = (Vec::new(), BytesMut::new());
            v1_oracle::put_value(&mut v1, v);
            prop_assert_eq!(put_value(&mut v2, v), v1.len());
            prop_assert!(v2.len() <= v1.len(), "{:?}: {} > {}", v, v2.len(), v1.len());
        }

        let values = args.iter().cloned().map(Response::Value);
        for resp in values.chain([Response::Error(error)]) {
            let v1 = v1_oracle::encode_response(&resp);
            prop_assert_eq!(charged_response_size(&resp), v1.len());
            let mut v2 = encode_response_in(BytesMut::new(), &resp);
            prop_assert!(v2.len() <= v1.len(), "{} > {}", v2.len(), v1.len());
            prop_assert_eq!(Response::decode(&mut v2), Ok(resp));
        }
    }

    /// Responses round-trip for values and errors alike.
    #[test]
    fn responses_round_trip(v in arb_wire_value(), error in "[ -~]{0,64}") {
        for resp in [Response::Value(v), Response::Error(error)] {
            let mut frame = encode_response_in(BytesMut::new(), &resp);
            prop_assert_eq!(Response::decode(&mut frame), Ok(resp));
        }
    }

    /// Encoding is deterministic: the same request always produces the same bytes
    /// (the transport's byte counters are compared exactly across runs).
    #[test]
    fn encoding_is_deterministic(
        member in any::<u32>(),
        target in any::<u64>(),
        args in prop::collection::vec(arb_wire_value(), 0..4),
    ) {
        let frame = || dep_frame(None, target, AccessKind::InvokeRet, member, &args);
        prop_assert_eq!(frame(), frame());
    }

    /// *Every* strict prefix of a frame is a typed error — frames carry their arg
    /// count up front, so no prefix can decode as a complete message — and *every*
    /// single-bit corruption decodes without a panic.
    #[test]
    fn truncated_v2_frames_fail_typed(
        target in any::<u64>(),
        kind in arb_access_kind(),
        member in any::<u32>(),
        args in prop::collection::vec(arb_wire_value(), 0..4),
    ) {
        let frames = [
            new_frame(Some(7), member, target, false, &args).0,
            dep_frame(None, target, kind, member, &args).0,
        ];
        for frame in frames {
            for cut in 0..frame.len() {
                prop_assert!(read_frame(&frame[..cut]).is_err(), "cut at {}", cut);
            }
            let mut bytes = frame.to_vec();
            for at in 0..bytes.len() {
                for bit in 0..8 {
                    bytes[at] ^= 1 << bit;
                    let _ = read_frame(&bytes);
                    bytes[at] ^= 1 << bit;
                }
            }
        }
    }
}

/// The two shapes that used to force a name-carrying frame — a target past
/// `u32::MAX`, more than 255 arguments — are ordinary frames now.
#[test]
fn wide_targets_and_long_argument_lists_round_trip() {
    for target in [u64::from(u32::MAX) + 1, 1 << 40, u64::MAX] {
        for argc in [0usize, 255, 256, 300] {
            let args: Vec<WireValue> = (0..argc).map(|i| WireValue::Int(i as i64)).collect();
            let (dep, _) = dep_frame(None, target, AccessKind::InvokeRet, 3, &args);
            let head = dep_head(target, AccessKind::InvokeRet, 3, argc);
            assert_eq!(read_frame(&dep), Ok((None, head, args.clone())));
            let head = FrameHead::New {
                class: 5,
                id: target,
                one_way: true,
                argc,
            };
            assert_eq!(
                read_frame(&new_frame(None, 5, target, true, &args).0),
                Ok((None, head, args))
            );
        }
    }
}

/// A node still speaking the name-carrying protocol is refused by tag, not
/// misread: tags 0 and 1 are unknown request tags like any other.
#[test]
fn retired_name_frames_are_rejected_by_tag() {
    let args = [WireValue::Int(1)];
    assert_eq!(
        read_frame(&v1_oracle::encode_new("Account", &args)),
        Err(WireError::BadRequestTag(0))
    );
    assert_eq!(
        read_frame(&v1_oracle::encode_dependence(
            7,
            AccessKind::InvokeRet,
            "getSavings",
            &args
        )),
        Err(WireError::BadRequestTag(1))
    );
}

/// A five-byte frame cannot ask the decoder to reserve four billion values.
#[test]
fn an_arg_count_beyond_the_frame_is_truncation_not_allocation() {
    // NEW · class 0 · export id 0 · argc = u32::MAX as a five-byte varint · nothing.
    let frame = [3u8, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f];
    assert!(matches!(
        read_frame(&frame),
        Err(WireError::Truncated {
            what: "argument values",
            remaining: 0,
            ..
        })
    ));
}

#[test]
fn shutdown_round_trips() {
    assert_eq!(
        read_frame(&encode_shutdown()),
        Ok((None, FrameHead::Shutdown, vec![]))
    );
}
