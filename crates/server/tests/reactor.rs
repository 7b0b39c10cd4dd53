//! Reactor integration tests: the sharded readiness reactor must serve
//! the exact streams the library-direct executor produces while keeping
//! its multiplexing guarantees — a peer stalled mid-frame cannot stall
//! its shard, pipelined frames answer in order, a grammar fault leaves
//! the connection usable, and shutdown latency is bounded by the
//! reactor, not by polling loops.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dsnet::geom::rng::derive_seed;
use dsnet::session::render_stream;
use dsnet::{NetSession, Protocol, SessionCommand, SessionSpec};
use dsnet_server::protocol::{
    decode_response_bytes, encode_request_bytes, read_frame_bytes, write_frame_bytes, Body,
    ErrKind, FrameFormat, Op, Request,
};
use dsnet_server::{run_script, Client, ServeOptions, Server};

fn serve(shards: usize, read_deadline_ms: u64) -> (Server, String) {
    let server = Server::start(&ServeOptions {
        tcp: Some("127.0.0.1:0".into()),
        max_sessions: 64,
        shards,
        read_deadline_ms,
        ..ServeOptions::default()
    })
    .expect("ephemeral TCP bind");
    let addr = server.tcp_addr().expect("tcp listener").to_string();
    (server, addr)
}

fn spec() -> SessionSpec {
    SessionSpec {
        nodes: 32,
        seed: derive_seed(0xAC7012, 9),
        ..SessionSpec::default()
    }
}

fn script() -> Vec<SessionCommand> {
    vec![
        SessionCommand::Broadcast {
            protocol: Protocol::ImprovedCff,
            source: None,
            channels: 1,
            loss_ppm: 0,
            retries: 0,
            min_delivery_ppm: 0,
        },
        SessionCommand::Kill { node: 2 },
        SessionCommand::Broadcast {
            protocol: Protocol::Dfo,
            source: None,
            channels: 1,
            loss_ppm: 0,
            retries: 0,
            min_delivery_ppm: 0,
        },
        SessionCommand::MoveOut { node: 3 },
        SessionCommand::Snapshot,
    ]
}

fn direct_stream() -> String {
    let mut direct = NetSession::new(spec()).expect("direct build");
    for cmd in script() {
        direct.apply(&cmd);
    }
    render_stream(direct.spec(), direct.records(), false)
}

/// The determinism contract: the reactor daemon and the library-direct
/// executor yield byte-identical streams.
#[test]
fn reactor_and_direct_streams_are_byte_identical() {
    let (server, addr) = serve(0, 0);
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let report = run_script(&mut client, "s", spec(), &script(), true).expect("scripted run");
    assert_eq!(report.stream, direct_stream());
    client.shutdown().expect("shutdown");
    drop(client);
    server.wait();
}

/// A `frames` request is an unknown op like any other: a typed
/// `malformed_frame` reply at id 0, and the same connection keeps
/// answering.
#[test]
fn frames_op_is_a_grammar_error_and_the_connection_stays_open() {
    let (server, addr) = serve(0, 0);
    let mut raw = TcpStream::connect(&addr).expect("connect");
    write_frame_bytes(
        &mut raw,
        br#"{"id": 1, "op": "frames", "format": "binary"}"#,
    )
    .expect("frames request");
    let payload = read_frame_bytes(&mut raw).expect("error reply");
    let resp = decode_response_bytes(&payload, FrameFormat::Json).expect("decode");
    assert_eq!(resp.id, 0, "grammar faults are answered at id 0");
    match resp.body {
        Body::Err { kind, detail } => {
            assert_eq!(kind, ErrKind::MalformedFrame);
            assert_eq!(detail, "unknown op 'frames'");
        }
        other => panic!("expected malformed_frame, got {other:?}"),
    }

    let ping = Request {
        id: 2,
        op: Op::Ping,
    };
    write_frame_bytes(&mut raw, &encode_request_bytes(&ping, FrameFormat::Json)).expect("ping");
    let payload = read_frame_bytes(&mut raw).expect("pong");
    let resp = decode_response_bytes(&payload, FrameFormat::Json).expect("decode");
    assert_eq!(resp.id, 2);
    assert!(matches!(resp.body, Body::Ok(_)), "{:?}", resp.body);

    let mut client = Client::connect_tcp(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    drop((raw, client));
    server.wait();
}

/// A frame of half a million `[` (under the 1 MiB cap) is refused at
/// the parser's nesting limit with a typed `malformed_frame` reply, where
/// unbounded recursion used to overflow the shard's stack and abort the
/// daemon; the connection keeps answering.
#[test]
fn deeply_nested_frame_is_a_typed_error_not_a_crash() {
    let (server, addr) = serve(1, 0);
    let mut raw = TcpStream::connect(&addr).expect("connect");
    write_frame_bytes(&mut raw, &[b'['; 500_000]).expect("nested frame");
    let payload = read_frame_bytes(&mut raw).expect("error reply");
    let resp = decode_response_bytes(&payload, FrameFormat::Json).expect("decode");
    assert_eq!(resp.id, 0, "grammar faults are answered at id 0");
    match resp.body {
        Body::Err { kind, detail } => {
            assert_eq!(kind, ErrKind::MalformedFrame);
            assert!(detail.contains("nesting deeper than 128"), "{detail}");
        }
        other => panic!("expected malformed_frame, got {other:?}"),
    }

    let ping = Request {
        id: 3,
        op: Op::Ping,
    };
    write_frame_bytes(&mut raw, &encode_request_bytes(&ping, FrameFormat::Json)).expect("ping");
    let payload = read_frame_bytes(&mut raw).expect("pong");
    let resp = decode_response_bytes(&payload, FrameFormat::Json).expect("decode");
    assert_eq!(resp.id, 3);
    assert!(matches!(resp.body, Body::Ok(_)), "{:?}", resp.body);

    let mut client = Client::connect_tcp(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    drop((raw, client));
    server.wait();
}

/// Hostile session inputs — a zero-sided field, an empty network, a loss
/// probability above 1, a retry budget of `u32::MAX` — each get a typed
/// reply on a single-shard daemon, where each used to panic the shard's
/// thread; the shard then keeps answering on the same connection and on
/// a new one.
#[test]
fn hostile_session_inputs_get_typed_replies_and_the_shard_survives() {
    let (server, addr) = serve(1, 0);
    let mut raw = TcpStream::connect(&addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut next_id = 0;
    let mut call = |raw: &mut TcpStream, op: Op| {
        next_id += 1;
        let req = Request { id: next_id, op };
        write_frame_bytes(raw, &encode_request_bytes(&req, FrameFormat::Json)).expect("request");
        let payload = read_frame_bytes(raw).expect("reply before the timeout");
        let resp = decode_response_bytes(&payload, FrameFormat::Json).expect("decode");
        assert_eq!(resp.id, next_id);
        resp.body
    };
    let rejected = |body: Body, want: &str| match body {
        Body::Err { kind, detail } => {
            assert_eq!(kind, ErrKind::CommandRejected);
            assert!(detail.contains(want), "{detail}");
        }
        other => panic!("expected command_rejected, got {other:?}"),
    };
    let create = |name: &str, spec: SessionSpec| Op::Create {
        session: name.into(),
        spec,
    };
    let bcast = |loss_ppm, retries, min_delivery_ppm| Op::Cmd {
        session: "s".into(),
        cmd: SessionCommand::Broadcast {
            protocol: Protocol::ImprovedCff,
            source: None,
            channels: 1,
            loss_ppm,
            retries,
            min_delivery_ppm,
        },
    };

    let flat = SessionSpec {
        field_milli: 0,
        ..spec()
    };
    rejected(
        call(&mut raw, create("f", flat)),
        "field side must be positive",
    );
    let empty = SessionSpec { nodes: 0, ..spec() };
    rejected(call(&mut raw, create("e", empty)), "at least one node");
    assert!(matches!(call(&mut raw, create("s", spec())), Body::Ok(_)));
    rejected(
        call(&mut raw, bcast(1_000_001, 0, 0)),
        "loss_ppm must be <= 1000000",
    );
    rejected(
        call(&mut raw, bcast(u32::MAX, 0, 0)),
        "loss_ppm must be <= 1000000",
    );
    rejected(
        call(&mut raw, bcast(0, u32::MAX, 1_000_000)),
        "retries must be <= 255",
    );

    assert!(matches!(call(&mut raw, Op::Ping), Body::Ok(_)));
    let mut client = Client::connect_tcp(&addr).expect("connect");
    client.ping().expect("a new connection is served");
    client.shutdown().expect("shutdown");
    drop((raw, client));
    server.wait();
}

/// A peer parked mid-frame must not stall its shard: with a single
/// shard and a short read deadline, a healthy neighbor keeps completing
/// requests the whole time, and the stalled connection is eventually
/// closed by the deadline.
#[test]
fn stalled_peer_is_deadlined_while_neighbor_progresses() {
    let (server, addr) = serve(1, 250);

    // Write a frame header promising 100 bytes, deliver 10, then stall.
    let mut stalled = TcpStream::connect(&addr).expect("stalled connect");
    stalled.write_all(&100u32.to_be_bytes()).expect("header");
    stalled.write_all(&[b'{'; 10]).expect("partial payload");

    // The neighbor on the same (only) shard stays fully served.
    let mut healthy = Client::connect_tcp(&addr).expect("healthy connect");
    let start = Instant::now();
    let mut pings = 0u32;
    while start.elapsed() < Duration::from_millis(600) {
        healthy.ping().expect("neighbor ping during stall");
        pings += 1;
    }
    assert!(pings > 10, "neighbor starved: only {pings} pings");

    // The stalled connection was closed by the read deadline.
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut rest = Vec::new();
    stalled
        .read_to_end(&mut rest)
        .expect("server closed the stalled peer");
    assert!(rest.is_empty(), "no reply owed to a torn frame");

    healthy.shutdown().expect("shutdown");
    drop(healthy);
    server.wait();
}

/// Pipelined frames — many requests written before any response is
/// read — answer strictly in request order with matching ids.
#[test]
fn pipelined_requests_answer_in_order() {
    let (server, addr) = serve(0, 0);
    let mut raw = TcpStream::connect(&addr).expect("connect");

    let mut batch = Vec::new();
    write_frame_bytes(
        &mut batch,
        &encode_request_bytes(
            &Request {
                id: 1,
                op: Op::Create {
                    session: "s".into(),
                    spec: spec(),
                },
            },
            FrameFormat::Json,
        ),
    )
    .expect("encode create");
    for id in 2..=9u64 {
        write_frame_bytes(
            &mut batch,
            &encode_request_bytes(
                &Request {
                    id,
                    op: Op::Cmd {
                        session: "s".into(),
                        cmd: SessionCommand::Snapshot,
                    },
                },
                FrameFormat::Json,
            ),
        )
        .expect("encode cmd");
    }
    // One syscall delivers the whole pipeline; the handler answers each
    // frame before it decodes the next.
    raw.write_all(&batch).expect("pipelined write");

    for want_id in 1..=9u64 {
        let payload = read_frame_bytes(&mut raw).expect("response frame");
        let resp = decode_response_bytes(&payload, FrameFormat::Json).expect("decode");
        assert_eq!(resp.id, want_id, "responses must arrive in request order");
        assert!(
            matches!(resp.body, Body::Ok(_)),
            "id {want_id}: {:?}",
            resp.body
        );
    }

    let mut client = Client::connect_tcp(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    drop((raw, client));
    server.wait();
}

/// Shutdown latency is reactor-bounded: once the last client is gone,
/// the drain completes promptly instead of riding out sleep loops or
/// the full drain grace.
#[test]
fn shutdown_latency_is_bounded() {
    let (server, addr) = serve(0, 0);
    let mut client = Client::connect_tcp(&addr).expect("connect");
    client.create("s", spec()).expect("create");
    client.shutdown().expect("shutdown op");
    drop(client);

    let start = Instant::now();
    server.wait();
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "drain took {elapsed:?}; expected reactor-bounded shutdown"
    );
}
