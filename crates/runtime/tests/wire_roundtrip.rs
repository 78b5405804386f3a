//! Property tests for the streamed wire format. The distributed-vs-centralized
//! checksum equivalence tests depend silently on wire fidelity: every request and
//! response must survive serialize → deserialize byte-exactly, no input may panic
//! the decoder, and the virtual-time charge must stay what it was defined to be —
//! the length of the name-carrying frame the first protocol version sent, whose
//! encoder survives here as the oracle for exactly that definition.

use autodist_runtime::wire::{
    charged_dependence_size, charged_new_size, decode_request, encode_dependence, encode_new,
    value_wire_size, AccessKind, Request, Response, WireError, WireValue,
};
use bytes::{Bytes, BytesMut};
use proptest::prelude::*;

/// The retired name-carrying (v1) frames, written independently of the crate's
/// codec: `NEW` = tag 0 · class name · values, `DEPENDENCE` = tag 1 · target `u64` ·
/// kind · member name · values; names and value lists are `u32`-length-prefixed,
/// integers big-endian.
mod v1_oracle {
    use super::{AccessKind, WireValue};

    fn put_str(out: &mut Vec<u8>, s: &str) {
        out.extend((s.len() as u32).to_be_bytes());
        out.extend(s.as_bytes());
    }

    fn put_values(out: &mut Vec<u8>, vs: &[WireValue]) {
        out.extend((vs.len() as u32).to_be_bytes());
        for v in vs {
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

fn arb_wire_value() -> impl Strategy<Value = WireValue> {
    prop_oneof![
        Just(WireValue::Null),
        any::<i64>().prop_map(WireValue::Int),
        (-1e300f64..1e300).prop_map(WireValue::Float),
        any::<bool>().prop_map(WireValue::Bool),
        "[ -~]{0,32}".prop_map(WireValue::Str),
        (any::<u32>(), any::<u64>()).prop_map(|(node, id)| WireValue::Remote { node, id }),
    ]
}

/// Decoding must return, whatever the bytes: a typed error or a well-formed request.
fn decode_never_panics(frame: &[u8]) -> Result<Request, WireError> {
    decode_request(Bytes::from(frame.to_vec())).map(|(_, req)| req)
}

proptest! {
    /// `NEW` requests round-trip for arbitrary class ids and argument vectors.
    #[test]
    fn new_requests_round_trip(
        class in any::<u32>(),
        args in prop::collection::vec(arb_wire_value(), 0..8),
    ) {
        let req = Request::NewById { class, args };
        prop_assert_eq!(Request::decode(req.encode()), Ok(req));
    }

    /// `DEPENDENCE` requests round-trip for every access kind and any 64-bit target.
    #[test]
    fn dependence_requests_round_trip(
        target in any::<u64>(),
        kind in arb_access_kind(),
        member in any::<u32>(),
        args in prop::collection::vec(arb_wire_value(), 0..8),
    ) {
        let expect_member = if kind.has_member() { member } else { 0 };
        let req = Request::DependenceById { target, kind, member, args: args.clone() };
        prop_assert_eq!(
            Request::decode(req.encode()),
            Ok(Request::DependenceById { target, kind, member: expect_member, args })
        );
    }

    /// The same through the raw encoder, with and without the fingerprint hello
    /// envelope — and the frame is never larger than what the cost model charges
    /// for the same message, even one with an empty member name.
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
        let data = encode_dependence(BytesMut::new(), hello, target, kind, member, &args);
        let hello_len = if hello.is_some() { 9 } else { 0 };
        prop_assert!(
            data.len() - hello_len <= charged_dependence_size(0, &args),
            "frame larger than the charge for an empty-name message"
        );
        let (seen_hello, req) = decode_request(data).expect("frame decodes");
        prop_assert_eq!(seen_hello, hello);
        let expect_member = if kind.has_member() { member } else { 0 };
        prop_assert_eq!(
            req,
            Request::DependenceById { target, kind, member: expect_member, args: args.clone() }
        );
    }

    /// `NEW` through the raw encoder: round-trips, and stays under the charge for
    /// any class that has a name at all.
    #[test]
    fn v2_new_requests_round_trip(
        class in any::<u32>(),
        args in prop::collection::vec(arb_wire_value(), 0..8),
        has_hello in any::<bool>(),
        hello_fp in any::<u64>(),
    ) {
        let hello = if has_hello { Some(hello_fp) } else { None };
        let data = encode_new(BytesMut::new(), hello, class, &args);
        let hello_len = if hello.is_some() { 9 } else { 0 };
        prop_assert!(data.len() - hello_len <= charged_new_size(1, &args));
        let (seen_hello, req) = decode_request(data).expect("frame decodes");
        prop_assert_eq!(seen_hello, hello);
        prop_assert_eq!(req, Request::NewById { class, args: args.clone() });
    }

    /// The charging rule *is* the v1 frame length: for arbitrary names (empty and
    /// multi-byte included) and arbitrary values, the formula and the oracle agree.
    #[test]
    fn charged_sizes_are_the_v1_frame_lengths(
        name in "[a-zA-Z0-9_<>/é銀 ]{0,24}",
        target in any::<u64>(),
        kind in arb_access_kind(),
        args in prop::collection::vec(arb_wire_value(), 0..8),
    ) {
        prop_assert_eq!(
            charged_new_size(name.len(), &args),
            v1_oracle::encode_new(&name, &args).len()
        );
        prop_assert_eq!(
            charged_dependence_size(name.len(), &args),
            v1_oracle::encode_dependence(target, kind, &name, &args).len()
        );
    }

    /// Both framings carry the argument values as the same bytes — only the head
    /// (how target, member and count are written) differs — which is why charging
    /// by the old head and sending the new one cannot disagree about a payload.
    #[test]
    fn v1_and_v2_framings_agree_on_payload(
        target in any::<u64>(),
        kind in arb_access_kind(),
        member_name in "[a-z][A-Za-z0-9]{0,12}",
        member_id in any::<u32>(),
        args in prop::collection::vec(arb_wire_value(), 0..6),
    ) {
        let payload: usize = args.iter().map(value_wire_size).sum();
        let v1 = v1_oracle::encode_dependence(target, kind, &member_name, &args);
        let v2 = encode_dependence(BytesMut::new(), None, target, kind, member_id, &args);
        prop_assert_eq!(&v1[v1.len() - payload..], &v2[v2.len() - payload..]);
        let v1 = v1_oracle::encode_new(&member_name, &args);
        let v2 = encode_new(BytesMut::new(), None, member_id, &args);
        prop_assert_eq!(&v1[v1.len() - payload..], &v2[v2.len() - payload..]);
    }

    /// Responses round-trip for values and errors alike.
    #[test]
    fn responses_round_trip(v in arb_wire_value(), error in "[ -~]{0,64}") {
        let ok = Response::Value(v);
        prop_assert_eq!(Response::decode(&mut ok.encode()), Ok(ok));
        let err = Response::Error(error);
        prop_assert_eq!(Response::decode(&mut err.encode()), Ok(err));
    }

    /// Encoding is deterministic: the same request always produces the same bytes
    /// (the transport's byte counters are compared exactly across runs).
    #[test]
    fn encoding_is_deterministic(
        member in any::<u32>(),
        target in any::<u64>(),
        args in prop::collection::vec(arb_wire_value(), 0..4),
    ) {
        let req = Request::DependenceById {
            target,
            kind: AccessKind::InvokeRet,
            member,
            args,
        };
        prop_assert_eq!(&req.encode()[..], &req.encode()[..]);
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
            encode_new(BytesMut::new(), Some(7), member, &args),
            encode_dependence(BytesMut::new(), None, target, kind, member, &args),
        ];
        for frame in frames {
            for cut in 0..frame.len() {
                prop_assert!(decode_never_panics(&frame[..cut]).is_err(), "cut at {}", cut);
            }
            let mut bytes = frame.to_vec();
            for at in 0..bytes.len() {
                for bit in 0..8 {
                    bytes[at] ^= 1 << bit;
                    let _ = decode_never_panics(&bytes);
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
            let dep = Request::DependenceById {
                target,
                kind: AccessKind::InvokeRet,
                member: 3,
                args: args.clone(),
            };
            assert_eq!(Request::decode(dep.encode()), Ok(dep));
            let new = Request::NewById { class: 5, args };
            assert_eq!(Request::decode(new.encode()), Ok(new));
        }
    }
}

/// A node still speaking the name-carrying protocol is refused by tag, not
/// misread: tags 0 and 1 are unknown request tags like any other.
#[test]
fn retired_name_frames_are_rejected_by_tag() {
    let args = [WireValue::Int(1)];
    assert_eq!(
        decode_never_panics(&v1_oracle::encode_new("Account", &args)),
        Err(WireError::BadRequestTag(0))
    );
    assert_eq!(
        decode_never_panics(&v1_oracle::encode_dependence(
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
    // NEW · class 0 · argc = u32::MAX as a five-byte varint · nothing.
    let frame = [3u8, 0, 0xff, 0xff, 0xff, 0xff, 0x0f];
    assert!(matches!(
        decode_never_panics(&frame),
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
        Request::decode(Request::Shutdown.encode()),
        Ok(Request::Shutdown)
    );
}
