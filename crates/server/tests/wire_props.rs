//! Property tests for the JSON wire grammar, beside the example-based
//! suite in `protocol.rs`: random requests and responses must round-trip
//! byte-exactly through the byte codecs, every truncation of an encoded
//! request must be a fault rather than another request, and the 1 MiB
//! frame cap must hold at both ends of the pipe.

use proptest::prelude::*;

use dsnet::{Protocol, SessionCommand, SessionSpec};
use dsnet_server::json::Json;
use dsnet_server::protocol::{
    decode_request_bytes, decode_response_bytes, encode_request_bytes, encode_response_bytes,
    read_frame_bytes, write_frame_bytes, Body, ErrKind, FrameFormat, Op, Request, Response,
    WireError, MAX_FRAME,
};

// ---------------------------------------------------------------- values

/// Arbitrary strings over the full scalar-value range (control chars,
/// astral planes; surrogate code points filtered by `char::from_u32`).
fn string() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..0x11_0000, 0..10)
        .prop_map(|cps| cps.into_iter().filter_map(char::from_u32).collect())
}

fn json_leaf() -> BoxedStrategy<Json> {
    prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<i64>().prop_map(Json::Int),
        string().prop_map(Json::Str),
    ]
    .boxed()
}

/// Arbitrary JSON value nested up to `depth` containers — deep enough
/// to exercise the recursive parser and renderer.
fn json_value(depth: u32) -> BoxedStrategy<Json> {
    if depth == 0 {
        return json_leaf();
    }
    prop_oneof![
        3 => json_leaf(),
        1 => prop::collection::vec(json_value(depth - 1), 0..5).prop_map(Json::Arr),
        1 => prop::collection::vec((string(), json_value(depth - 1)), 0..5)
            .prop_map(Json::Obj),
    ]
    .boxed()
}

// ---------------------------------------------------------------- grammar

fn session_spec() -> impl Strategy<Value = SessionSpec> {
    (
        0usize..1_000_000,
        any::<u64>(), // full-range: the two's-complement wire contract
        any::<u32>(),
        any::<u16>(),
        any::<u32>(),
    )
        .prop_map(
            |(nodes, seed, field_milli, groups, membership_ppm)| SessionSpec {
                nodes,
                seed,
                field_milli,
                groups,
                membership_ppm,
            },
        )
}

fn protocol() -> impl Strategy<Value = Protocol> {
    prop_oneof![
        Just(Protocol::ImprovedCff),
        Just(Protocol::BasicCff),
        Just(Protocol::ReliableCff),
        Just(Protocol::Dfo),
    ]
}

fn opt_node() -> impl Strategy<Value = Option<u32>> {
    prop_oneof![Just(None), any::<u32>().prop_map(Some),]
}

fn session_command() -> BoxedStrategy<SessionCommand> {
    prop_oneof![
        (
            protocol(),
            opt_node(),
            any::<u8>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
        )
            .prop_map(
                |(protocol, source, channels, loss_ppm, retries, min_delivery_ppm)| {
                    SessionCommand::Broadcast {
                        protocol,
                        source,
                        channels,
                        loss_ppm,
                        retries,
                        min_delivery_ppm,
                    }
                }
            ),
        (any::<u16>(), opt_node())
            .prop_map(|(group, source)| SessionCommand::Multicast { group, source }),
        (
            any::<i64>(),
            any::<i64>(),
            prop::collection::vec(any::<u16>(), 0..4),
        )
            .prop_map(|(x_milli, y_milli, groups)| SessionCommand::MoveIn {
                x_milli,
                y_milli,
                groups,
            }),
        any::<u32>().prop_map(|node| SessionCommand::MoveOut { node }),
        any::<u32>().prop_map(|node| SessionCommand::Kill { node }),
        any::<u32>().prop_map(|node| SessionCommand::Revive { node }),
        any::<u32>().prop_map(|node| SessionCommand::Repair { node }),
        (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(epochs, movers, step_milli)| {
            SessionCommand::Mobility {
                epochs,
                movers,
                step_milli,
            }
        }),
        Just(SessionCommand::Snapshot),
    ]
    .boxed()
}

fn op() -> BoxedStrategy<Op> {
    prop_oneof![
        Just(Op::Ping),
        (string(), session_spec()).prop_map(|(session, spec)| Op::Create { session, spec }),
        string().prop_map(|session| Op::Destroy { session }),
        (string(), session_command()).prop_map(|(session, cmd)| Op::Cmd { session, cmd }),
        string().prop_map(|session| Op::Stream { session }),
        string().prop_map(|session| Op::Watch { session }),
        string().prop_map(|session| Op::Peek { session }),
        Just(Op::Shutdown),
    ]
    .boxed()
}

fn request() -> impl Strategy<Value = Request> {
    // Ids ride the wire as non-negative i64 (0 is reserved for events).
    (1u64..=i64::MAX as u64, op()).prop_map(|(id, op)| Request { id, op })
}

fn err_kind() -> impl Strategy<Value = ErrKind> {
    prop_oneof![
        Just(ErrKind::MalformedFrame),
        Just(ErrKind::UnknownSession),
        Just(ErrKind::DuplicateSession),
        Just(ErrKind::CommandRejected),
        Just(ErrKind::Busy),
        Just(ErrKind::ShuttingDown),
        Just(ErrKind::Internal),
    ]
}

fn response() -> impl Strategy<Value = Response> {
    let body = prop_oneof![
        json_value(3).prop_map(Body::Ok),
        (err_kind(), string()).prop_map(|(kind, detail)| Body::Err { kind, detail }),
        json_value(2).prop_map(Body::Event),
    ];
    (0u64..=i64::MAX as u64, body).prop_map(|(id, body)| Response { id, body })
}

proptest! {
    /// Any request over the full grammar decodes back to itself, and
    /// re-encoding the decoded request reproduces the same bytes.
    #[test]
    fn requests_roundtrip_byte_exactly(req in request()) {
        let bytes = encode_request_bytes(&req, FrameFormat::Json);
        let back = decode_request_bytes(&bytes).unwrap_or_else(|f| panic!("{}", f.detail()));
        prop_assert_eq!(encode_request_bytes(&back, FrameFormat::Json), bytes);
        prop_assert_eq!(back, req);
    }

    /// Same contract over the full response grammar (ok / typed error /
    /// pushed event).
    #[test]
    fn responses_roundtrip_byte_exactly(resp in response()) {
        let bytes = encode_response_bytes(&resp);
        let back = decode_response_bytes(&bytes, FrameFormat::Json)
            .unwrap_or_else(|f| panic!("{}", f.detail()));
        prop_assert_eq!(encode_response_bytes(&back), bytes);
        prop_assert_eq!(back, resp);
    }

    /// Every proper prefix of an encoded request is a fault (an encoding
    /// fault when the cut splits a UTF-8 sequence, a grammar fault
    /// otherwise), never a misparse into a different request.
    #[test]
    fn truncated_requests_fault(req in request()) {
        let bytes = encode_request_bytes(&req, FrameFormat::Json);
        for keep in 0..bytes.len() {
            prop_assert!(decode_request_bytes(&bytes[..keep]).is_err(), "kept {}", keep);
        }
    }

    /// The frame writer refuses payloads over the 1 MiB cap before any
    /// bytes hit the wire.
    #[test]
    fn oversized_writes_are_refused(extra in 1u32..1024) {
        let payload = vec![0u8; (MAX_FRAME + extra) as usize];
        let mut sink = Vec::new();
        match write_frame_bytes(&mut sink, &payload) {
            Err(WireError::Oversized { len, max }) => {
                prop_assert_eq!(len, MAX_FRAME + extra);
                prop_assert_eq!(max, MAX_FRAME);
                prop_assert!(sink.is_empty(), "no partial frame escapes");
            }
            other => prop_assert!(false, "expected Oversized, got {:?}", other),
        }
    }

    /// The frame reader rejects an oversized header without reading (or
    /// allocating) the advertised body.
    #[test]
    fn oversized_headers_are_refused(len in MAX_FRAME + 1..=u32::MAX) {
        let framed = len.to_be_bytes().to_vec();
        let mut cursor = std::io::Cursor::new(framed);
        match read_frame_bytes(&mut cursor) {
            Err(WireError::Oversized { len: got, max }) => {
                prop_assert_eq!(got, len);
                prop_assert_eq!(max, MAX_FRAME);
            }
            other => prop_assert!(false, "expected Oversized, got {:?}", other),
        }
    }
}
