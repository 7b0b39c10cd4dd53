//! Reactor integration tests: the sharded readiness reactor must serve
//! the exact streams the library-direct executor produces, over both
//! payload formats, while keeping its
//! multiplexing guarantees — a peer stalled mid-frame cannot stall its
//! shard, pipelined frames answer in order, and shutdown latency is
//! bounded by the reactor, not by polling loops.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dsnet::geom::rng::derive_seed;
use dsnet::session::render_stream;
use dsnet::{NetSession, Protocol, SessionCommand, SessionSpec};
use dsnet_server::protocol::{
    decode_response_bytes, encode_request_bytes, read_frame_bytes, write_frame_bytes, Body,
    FrameFormat, Op, Request,
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

fn daemon_stream(addr: &str, format: FrameFormat) -> String {
    let mut client = Client::connect_tcp(addr).expect("connect");
    client.negotiate(format).expect("format negotiation");
    let report = run_script(&mut client, "s", spec(), &script(), true).expect("scripted run");
    report.stream
}

/// The tentpole determinism contract across both payload formats: the
/// reactor daemon and the library-direct executor yield byte-identical
/// streams.
#[test]
fn reactor_and_direct_streams_are_byte_identical() {
    let want = direct_stream();
    let (server, addr) = serve(0, 0);
    for format in [FrameFormat::Json, FrameFormat::Binary] {
        assert_eq!(
            daemon_stream(&addr, format),
            want,
            "stream drift on {format:?}"
        );
    }
    let mut client = Client::connect_tcp(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    drop(client);
    server.wait();
}

/// Mid-connection format negotiation: a session driven half in JSON and
/// half in binary (switched between commands) records the same stream.
#[test]
fn mid_connection_negotiation_preserves_the_stream() {
    let (server, addr) = serve(0, 0);
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let cmds = script();
    client.create("s", spec()).expect("create");
    for (i, cmd) in cmds.iter().enumerate() {
        // Flip the payload format before every other command.
        let format = if i % 2 == 0 {
            FrameFormat::Binary
        } else {
            FrameFormat::Json
        };
        client.negotiate(format).expect("negotiate");
        let _ = client.cmd("s", cmd.clone());
    }
    let stream = client.stream_text("s").expect("stream");
    assert_eq!(stream, direct_stream());

    client.shutdown().expect("shutdown");
    drop(client);
    server.wait();
}

/// Watch subscriptions honour the format the connection had when the
/// watch was registered: a binary-negotiated watcher receives decodable
/// binary event frames.
#[test]
fn binary_watcher_receives_events() {
    let (server, addr) = serve(0, 0);
    let mut driver = Client::connect_tcp(&addr).expect("driver connect");
    driver.create("s", spec()).expect("create");

    let mut watcher = Client::connect_tcp(&addr).expect("watcher connect");
    watcher
        .negotiate(FrameFormat::Binary)
        .expect("binary negotiation");
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    let watch_thread = std::thread::spawn(move || {
        watcher
            .watch("s", |line| {
                tx.send(line.to_string()).expect("collect");
                false
            })
            .expect("watch");
    });
    std::thread::sleep(Duration::from_millis(200));
    driver
        .cmd("s", SessionCommand::Kill { node: 1 })
        .expect("cmd");

    let line = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("watch event over binary framing");
    assert!(line.contains("\"cmd\": \"kill\""), "{line}");
    watch_thread.join().expect("watch thread");

    driver.shutdown().expect("shutdown");
    drop(driver);
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
    // One syscall delivers the whole pipeline; the reactor batches the
    // session commands under a single lock acquisition.
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
    drop(client);
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
