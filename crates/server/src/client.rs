//! A blocking client for the dsnet wire protocol, plus the scripted
//! session runner the CLI and the load-test scenario share.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Instant;

use dsnet::{SessionCommand, SessionSpec};

use crate::json::Json;
use crate::protocol::{
    decode_response_bytes, encode_request_bytes, read_frame_bytes, write_frame_bytes, Body,
    ErrKind, FrameFormat, Op, Request, Response, WireError,
};

/// A client-side failure: transport fault or a typed server error.
#[derive(Debug)]
pub enum ClientError {
    /// The transport or framing failed.
    Wire(WireError),
    /// The server answered with a typed error.
    Server {
        /// Failure classification from the wire.
        kind: ErrKind,
        /// Server-provided detail text.
        detail: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Server { kind, detail } => write!(f, "{}: {detail}", kind.label()),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

trait ClientStream: Read + Write + Send {}
impl ClientStream for TcpStream {}
impl ClientStream for UnixStream {}

/// A connected protocol client. One in-flight request at a time;
/// responses are matched by correlation id.
pub struct Client {
    stream: Box<dyn ClientStream>,
    next_id: u64,
}

impl Client {
    /// Connect over TCP (`host:port`).
    pub fn connect_tcp(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            stream: Box::new(stream),
            next_id: 1,
        })
    }

    /// Connect over a unix socket.
    pub fn connect_unix(path: &Path) -> std::io::Result<Client> {
        Ok(Client {
            stream: Box::new(UnixStream::connect(path)?),
            next_id: 1,
        })
    }

    /// Send one request frame; returns its correlation id.
    fn send(&mut self, op: Op) -> Result<u64, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        let payload = encode_request_bytes(&Request { id, op }, FrameFormat::Json);
        write_frame_bytes(&mut self.stream, &payload)?;
        Ok(id)
    }

    /// Read and decode the next response frame.
    fn recv(&mut self) -> Result<Response, WireError> {
        let payload = read_frame_bytes(&mut self.stream)?;
        decode_response_bytes(&payload, FrameFormat::Json)
            .map_err(|f| WireError::Malformed(f.detail().to_string()))
    }

    /// Issue one request and wait for its response body. Pushed event
    /// frames (id 0) arriving out of band are skipped — they belong to
    /// watch mode.
    pub fn request(&mut self, op: Op) -> Result<Body, ClientError> {
        let id = self.send(op)?;
        loop {
            let resp = self.recv()?;
            if resp.id == id {
                return match resp.body {
                    Body::Err { kind, detail } => Err(ClientError::Server { kind, detail }),
                    body => Ok(body),
                };
            }
            match resp.body {
                // Stray watch events can interleave; skip them.
                Body::Event(_) => {}
                // An id-0 error means the server could not attribute the
                // fault to a request (e.g. malformed frame) — it is ours.
                Body::Err { kind, detail } => return Err(ClientError::Server { kind, detail }),
                Body::Ok(_) => {
                    return Err(ClientError::Wire(WireError::Malformed(format!(
                        "response id {} does not match request id {id}",
                        resp.id
                    ))))
                }
            }
        }
    }

    /// [`Client::request`] unwrapped to the `ok` value.
    pub fn request_ok(&mut self, op: Op) -> Result<Json, ClientError> {
        match self.request(op)? {
            Body::Ok(v) => Ok(v),
            Body::Event(_) => Err(ClientError::Wire(WireError::Malformed(
                "unexpected event frame in request mode".into(),
            ))),
            Body::Err { kind, detail } => Err(ClientError::Server { kind, detail }),
        }
    }

    /// Create a session.
    pub fn create(&mut self, session: &str, spec: SessionSpec) -> Result<Json, ClientError> {
        self.request_ok(Op::Create {
            session: session.into(),
            spec,
        })
    }

    /// Destroy a session.
    pub fn destroy(&mut self, session: &str) -> Result<Json, ClientError> {
        self.request_ok(Op::Destroy {
            session: session.into(),
        })
    }

    /// Apply one command; returns the applied record's JSON (a
    /// `command_rejected` server error carries the rejection reason).
    pub fn cmd(&mut self, session: &str, cmd: SessionCommand) -> Result<Json, ClientError> {
        self.request_ok(Op::Cmd {
            session: session.into(),
            cmd,
        })
    }

    /// Fetch a session's full deterministic event stream text.
    pub fn stream_text(&mut self, session: &str) -> Result<String, ClientError> {
        let v = self.request_ok(Op::Stream {
            session: session.into(),
        })?;
        v.get("stream")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(ClientError::Wire(WireError::Malformed(
                "stream response missing 'stream' field".into(),
            )))
    }

    /// Read a session's knowledge snapshot summary.
    pub fn peek(&mut self, session: &str) -> Result<Json, ClientError> {
        self.request_ok(Op::Peek {
            session: session.into(),
        })
    }

    /// Liveness/occupancy probe.
    pub fn ping(&mut self) -> Result<Json, ClientError> {
        self.request_ok(Op::Ping)
    }

    /// Ask the daemon to drain and exit.
    pub fn shutdown(&mut self) -> Result<Json, ClientError> {
        self.request_ok(Op::Shutdown)
    }

    /// Subscribe to a session's trace and hand each deterministic event
    /// line to `on_line` until it returns `false`, the daemon stops, or
    /// the session is destroyed. Consumes the connection (watch mode is
    /// one-way).
    pub fn watch(
        mut self,
        session: &str,
        mut on_line: impl FnMut(&str) -> bool,
    ) -> Result<(), ClientError> {
        self.send(Op::Watch {
            session: session.into(),
        })?;
        loop {
            let resp = match self.recv() {
                Ok(resp) => resp,
                Err(WireError::Closed) => return Ok(()),
                Err(e) => return Err(e.into()),
            };
            match resp.body {
                Body::Ok(_) => {}
                Body::Err { kind, detail } => return Err(ClientError::Server { kind, detail }),
                Body::Event(v) => {
                    let line = v.as_str().unwrap_or_default();
                    if !on_line(line) {
                        return Ok(());
                    }
                }
            }
        }
    }
}

/// Outcome of a scripted session run via [`run_script`].
#[derive(Debug, Clone, Default)]
pub struct ScriptReport {
    /// Commands the executor applied.
    pub applied: u64,
    /// Commands the executor rejected.
    pub rejected: u64,
    /// Summed simulated rounds across applied broadcast/multicast
    /// commands (deterministic).
    pub rounds: u64,
    /// Summed delivered targets (deterministic).
    pub delivered: u64,
    /// Summed intended targets (deterministic).
    pub targets: u64,
    /// Client-observed per-command round-trip latencies, microseconds.
    pub latencies_us: Vec<u64>,
    /// The session's deterministic event stream after the script.
    pub stream: String,
}

/// Create `session` from `spec`, apply `cmds` in order, fetch the
/// deterministic stream, and (when `destroy` is set) destroy the
/// session. Rejected commands are counted, not fatal — they are part of
/// the recorded stream.
pub fn run_script(
    client: &mut Client,
    session: &str,
    spec: SessionSpec,
    cmds: &[SessionCommand],
    destroy: bool,
) -> Result<ScriptReport, ClientError> {
    let mut report = ScriptReport::default();
    client.create(session, spec)?;
    for cmd in cmds {
        let start = Instant::now();
        let outcome = client.cmd(session, cmd.clone());
        report.latencies_us.push(start.elapsed().as_micros() as u64);
        match outcome {
            Ok(record) => {
                report.applied += 1;
                if let Some(fields) = record.get("fields") {
                    for (key, slot) in [
                        ("rounds", &mut report.rounds),
                        ("delivered", &mut report.delivered),
                        ("targets", &mut report.targets),
                    ] {
                        if let Some(n) = fields.get(key).and_then(Json::as_i64) {
                            *slot += n.max(0) as u64;
                        }
                    }
                }
            }
            Err(ClientError::Server {
                kind: ErrKind::CommandRejected,
                ..
            }) => report.rejected += 1,
            Err(e) => return Err(e),
        }
    }
    report.stream = client.stream_text(session)?;
    if destroy {
        client.destroy(session)?;
    }
    Ok(report)
}
