//! End-to-end wire tests: a live daemon driven through [`Client`],
//! pinned against the library-direct executor.

use std::io::{Read, Write};
use std::net::TcpStream;

use dsnet::geom::rng::derive_seed;
use dsnet::session::render_stream;
use dsnet::{NetSession, Protocol, SessionCommand, SessionSpec};
use dsnet_server::protocol::{self, read_frame_bytes};
use dsnet_server::{run_script, Client, ClientError, ErrKind, ServeOptions, Server};

fn tcp_server(max_sessions: usize) -> (Server, String) {
    let server = Server::start(&ServeOptions {
        tcp: Some("127.0.0.1:0".into()),
        unix: None,
        max_sessions,
        ..ServeOptions::default()
    })
    .expect("ephemeral TCP bind");
    let addr = server.tcp_addr().expect("tcp listener").to_string();
    (server, addr)
}

fn demo_spec() -> SessionSpec {
    SessionSpec {
        nodes: 40,
        // Deliberately above i64::MAX so the two's-complement seed wire
        // contract is exercised end-to-end.
        seed: derive_seed(u64::MAX - 12, 3),
        ..SessionSpec::default()
    }
}

fn demo_script() -> Vec<SessionCommand> {
    vec![
        SessionCommand::Broadcast {
            protocol: Protocol::ImprovedCff,
            source: None,
            channels: 1,
            loss_ppm: 0,
            retries: 0,
            min_delivery_ppm: 0,
        },
        SessionCommand::Kill { node: 3 },
        SessionCommand::Broadcast {
            protocol: Protocol::Dfo,
            source: None,
            channels: 1,
            loss_ppm: 40_000,
            retries: 2,
            min_delivery_ppm: 900_000,
        },
        SessionCommand::MoveOut { node: 5 },
        SessionCommand::MoveIn {
            x_milli: 4_500,
            y_milli: 4_500,
            groups: vec![],
        },
        SessionCommand::Mobility {
            epochs: 2,
            movers: 2,
            step_milli: 400,
        },
        SessionCommand::Revive { node: 3 },
        SessionCommand::Snapshot,
    ]
}

/// The tentpole contract: a scripted sequence through the daemon yields
/// a byte-identical event stream to the same sequence applied directly
/// to the library.
#[test]
fn server_stream_is_byte_identical_to_library_direct() {
    let (server, addr) = tcp_server(8);
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let report =
        run_script(&mut client, "e2e", demo_spec(), &demo_script(), true).expect("scripted run");

    let mut direct = NetSession::new(demo_spec()).expect("direct build");
    for cmd in demo_script() {
        direct.apply(&cmd);
    }
    let direct_stream = render_stream(direct.spec(), direct.records(), false);

    assert_eq!(report.stream, direct_stream);
    assert_eq!(report.applied + report.rejected, demo_script().len() as u64);

    client.shutdown().expect("shutdown");
    drop(client);
    server.wait();
}

/// Same contract over a unix socket.
#[test]
fn unix_socket_serves_the_same_streams() {
    let path = std::env::temp_dir().join(format!("dsnet-e2e-{}.sock", std::process::id()));
    let server = Server::start(&ServeOptions {
        tcp: None,
        unix: Some(path.clone()),
        max_sessions: 4,
        ..ServeOptions::default()
    })
    .expect("unix bind");
    let mut client = Client::connect_unix(&path).expect("connect");
    let report =
        run_script(&mut client, "ux", demo_spec(), &demo_script(), true).expect("scripted run");

    let mut direct = NetSession::new(demo_spec()).expect("direct build");
    for cmd in demo_script() {
        direct.apply(&cmd);
    }
    assert_eq!(
        report.stream,
        render_stream(direct.spec(), direct.records(), false)
    );

    client.shutdown().expect("shutdown");
    drop(client);
    server.wait();
    assert!(!path.exists(), "socket file is removed on drain");
}

/// Session-limit backpressure answers a typed busy error, and destroys
/// free capacity.
#[test]
fn session_limit_backpressure_over_the_wire() {
    let (server, addr) = tcp_server(2);
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let spec = SessionSpec {
        nodes: 16,
        ..SessionSpec::default()
    };
    client.create("a", spec.clone()).expect("first");
    client.create("b", spec.clone()).expect("second");
    match client.create("c", spec.clone()) {
        Err(ClientError::Server { kind, detail }) => {
            assert_eq!(kind, ErrKind::Busy);
            assert!(detail.contains("limit 2"), "{detail}");
        }
        other => panic!("expected busy, got {other:?}"),
    }
    client.destroy("a").expect("destroy frees a slot");
    client.create("c", spec).expect("slot reusable");

    client.shutdown().expect("shutdown");
    drop(client);
    server.wait();
}

/// The wire `shutdown` op drains: existing results stay readable, new
/// sessions and commands are refused with the typed shutting-down error.
#[test]
fn shutdown_op_drains_but_serves_reads() {
    let (server, addr) = tcp_server(8);
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let spec = SessionSpec {
        nodes: 16,
        ..SessionSpec::default()
    };
    client.create("a", spec.clone()).expect("create");
    client.cmd("a", SessionCommand::Snapshot).expect("cmd");
    client.shutdown().expect("shutdown op");

    match client.create("b", spec) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrKind::ShuttingDown),
        other => panic!("expected shutting_down, got {other:?}"),
    }
    match client.cmd("a", SessionCommand::Snapshot) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrKind::ShuttingDown),
        other => panic!("expected shutting_down, got {other:?}"),
    }
    let stream = client.stream_text("a").expect("reads still served");
    assert_eq!(stream.lines().count(), 2);

    drop(client);
    server.wait();
}

/// Unknown sessions and rejected commands map onto their own error
/// kinds, and a rejected command still lands in the recorded stream.
#[test]
fn error_taxonomy_over_the_wire() {
    let (server, addr) = tcp_server(8);
    let mut client = Client::connect_tcp(&addr).expect("connect");
    match client.cmd("ghost", SessionCommand::Snapshot) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrKind::UnknownSession),
        other => panic!("expected unknown_session, got {other:?}"),
    }
    let spec = SessionSpec {
        nodes: 16,
        ..SessionSpec::default()
    };
    client.create("a", spec.clone()).expect("create");
    match client.create("a", spec) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrKind::DuplicateSession),
        other => panic!("expected duplicate_session, got {other:?}"),
    }
    // channels = 0 fails executor validation → command_rejected, and the
    // rejection is part of the deterministic stream.
    match client.cmd(
        "a",
        SessionCommand::Broadcast {
            protocol: Protocol::ImprovedCff,
            source: None,
            channels: 0,
            loss_ppm: 0,
            retries: 0,
            min_delivery_ppm: 0,
        },
    ) {
        Err(ClientError::Server { kind, detail }) => {
            assert_eq!(kind, ErrKind::CommandRejected);
            assert!(detail.contains("channels"), "{detail}");
        }
        other => panic!("expected command_rejected, got {other:?}"),
    }
    let stream = client.stream_text("a").expect("stream");
    assert!(stream.contains("\"status\": \"rejected\""), "{stream}");

    client.shutdown().expect("shutdown");
    drop(client);
    server.wait();
}

/// A garbage frame gets a typed malformed-frame response; an oversized
/// header closes the connection after the typed error.
#[test]
fn malformed_and_oversized_frames_answer_typed_errors() {
    let (server, addr) = tcp_server(8);

    // Valid frame, invalid grammar: connection stays usable.
    {
        let mut raw = TcpStream::connect(&addr).expect("connect");
        let payload = b"{\"not\": \"a request\"}";
        raw.write_all(&(payload.len() as u32).to_be_bytes())
            .unwrap();
        raw.write_all(payload).unwrap();
        let resp = String::from_utf8(read_frame_bytes(&mut raw).expect("error response"))
            .expect("UTF-8 JSON frame");
        assert!(resp.contains("\"err\":\"malformed_frame\""), "{resp}");
    }

    // Oversized header: typed error, then the server hangs up.
    {
        let mut raw = TcpStream::connect(&addr).expect("connect");
        raw.write_all(&(protocol::MAX_FRAME + 1).to_be_bytes())
            .unwrap();
        let resp = String::from_utf8(read_frame_bytes(&mut raw).expect("error response"))
            .expect("UTF-8 JSON frame");
        assert!(resp.contains("\"err\":\"malformed_frame\""), "{resp}");
        assert!(resp.contains("oversized"), "{resp}");
        let mut rest = Vec::new();
        raw.read_to_end(&mut rest).expect("peer closed");
        assert!(rest.is_empty());
    }

    let mut client = Client::connect_tcp(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    drop(client);
    server.wait();
}

/// A watch subscription streams each subsequently applied record as a
/// deterministic event line.
#[test]
fn watch_subscription_streams_records() {
    let (server, addr) = tcp_server(8);
    let mut driver = Client::connect_tcp(&addr).expect("driver connect");
    let spec = SessionSpec {
        nodes: 16,
        ..SessionSpec::default()
    };
    driver.create("a", spec).expect("create");
    driver
        .cmd("a", SessionCommand::Snapshot)
        .expect("pre-watch cmd");

    let watcher = Client::connect_tcp(&addr).expect("watcher connect");
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    let watch_thread = std::thread::spawn(move || {
        watcher
            .watch("a", |line| {
                tx.send(line.to_string()).expect("collect");
                false // one event is enough
            })
            .expect("watch");
    });
    // The watch op races the command below through different
    // connections; wait until the subscription is registered.
    std::thread::sleep(std::time::Duration::from_millis(200));
    driver
        .cmd("a", SessionCommand::Kill { node: 1 })
        .expect("cmd");

    let line = rx
        .recv_timeout(std::time::Duration::from_secs(5))
        .expect("watch event");
    assert!(line.contains("\"cmd\": \"kill\""), "{line}");
    assert!(
        line.contains("\"seq\": 1"),
        "pre-watch records not replayed: {line}"
    );
    watch_thread.join().expect("watch thread");

    driver.shutdown().expect("shutdown");
    drop(driver);
    server.wait();
}
