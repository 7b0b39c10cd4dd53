//! The dsnet wire protocol: length-prefixed JSON frames plus the
//! request/response vocabulary of the session service.
//!
//! ## Framing
//!
//! Every message is one frame: a 4-byte big-endian `u32` payload length
//! followed by that many bytes of UTF-8 JSON. Frames longer than
//! [`MAX_FRAME`] are rejected before any allocation; a short read is a
//! [`WireError::Truncated`] (the error taxonomy distinguishes transport
//! faults from protocol faults so clients can react precisely).
//!
//! ## Grammar
//!
//! Requests are objects `{"id": <u64>, "op": "<name>", ...}`; responses
//! echo the id: `{"id": <u64>, "ok": <value>}` or
//! `{"id": <u64>, "err": "<kind>", "detail": "<text>"}`. Watch events
//! arrive as `{"id": 0, "event": <value>}` interleaved on a subscribed
//! connection. All numbers are integers (see [`crate::json`]), and an
//! integer field that does not fit its type is a grammar error naming
//! the field, never a truncated value.

use std::io::{Read, Write};

use dsnet::{Protocol, SessionCommand, SessionSpec};

use crate::json::{obj, parse, Json};

pub use dsnet_netio::MAX_FRAME;

/// Everything that can go wrong on the wire, split so callers can tell
/// transport faults from protocol faults.
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The stream ended mid-frame: `got` of `want` bytes arrived.
    Truncated {
        /// Bytes actually read.
        got: usize,
        /// Bytes the frame header promised.
        want: usize,
    },
    /// The frame header announced a payload longer than [`MAX_FRAME`].
    Oversized {
        /// Announced payload length.
        len: u32,
        /// The enforced maximum.
        max: u32,
    },
    /// The payload was not valid protocol JSON (bad UTF-8, bad JSON, or
    /// a well-formed document that doesn't match the grammar).
    Malformed(String),
    /// An OS-level I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated { got, want } => {
                write!(f, "truncated frame: got {got} of {want} bytes")
            }
            WireError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes exceeds max {max}")
            }
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Write one raw frame (length prefix + payload bytes). Header and
/// payload go out in a single write: split writes on a TCP socket
/// interact with Nagle + delayed ACK and cost ~40 ms per response.
pub fn write_frame_bytes(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME as usize {
        return Err(WireError::Oversized {
            len: payload.len() as u32,
            max: MAX_FRAME,
        });
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one raw frame payload. Returns [`WireError::Closed`] on a clean
/// EOF at a frame boundary, [`WireError::Truncated`] mid-frame.
pub fn read_frame_bytes(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Err(WireError::Closed),
            Ok(0) => {
                return Err(WireError::Truncated {
                    got: filled,
                    want: 4,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(header);
    if len > MAX_FRAME {
        return Err(WireError::Oversized {
            len,
            max: MAX_FRAME,
        });
    }
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0;
    while filled < payload.len() {
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(WireError::Truncated {
                    got: filled,
                    want: payload.len(),
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(payload)
}

/// The payload encoding of a frame, which is always JSON.
///
/// A shim: the benchmark client passes `FrameFormat::Json` to
/// [`encode_request_bytes`] and [`decode_response_bytes`], so those two
/// signatures keep it until the next benchmark change drops it together
/// with the [`crate::json`] re-export shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFormat {
    /// UTF-8 JSON text.
    Json,
}

/// A payload-level decode failure, split by severity so connection
/// handlers can preserve the error taxonomy: an
/// [`Encoding`](PayloadFault::Encoding) fault means the bytes aren't
/// text at all (the peer's framing state is suspect — answer id 0 and
/// close), while a [`Grammar`](PayloadFault::Grammar) fault means the
/// text didn't parse or didn't match the protocol grammar (answer id 0,
/// keep the connection usable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PayloadFault {
    /// The payload is not UTF-8.
    Encoding(String),
    /// A decodable document with the wrong shape (unknown op, missing
    /// field, reserved id…). Includes JSON *parse* errors, which the
    /// thread server always treated as recoverable.
    Grammar(String),
}

impl PayloadFault {
    /// The deterministic detail string carried in the error reply.
    pub fn detail(&self) -> &str {
        match self {
            PayloadFault::Encoding(s) | PayloadFault::Grammar(s) => s,
        }
    }
}

/// Protocol-level failure kinds carried in error responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrKind {
    /// The request frame didn't match the grammar.
    MalformedFrame,
    /// The named session doesn't exist.
    UnknownSession,
    /// A session with that name already exists.
    DuplicateSession,
    /// The session executor rejected the command (see detail).
    CommandRejected,
    /// The host is at `--max-sessions`; retry after a destroy.
    Busy,
    /// The host is draining for shutdown and refuses new work.
    ShuttingDown,
    /// An unexpected server-side failure.
    Internal,
}

impl ErrKind {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            ErrKind::MalformedFrame => "malformed_frame",
            ErrKind::UnknownSession => "unknown_session",
            ErrKind::DuplicateSession => "duplicate_session",
            ErrKind::CommandRejected => "command_rejected",
            ErrKind::Busy => "busy",
            ErrKind::ShuttingDown => "shutting_down",
            ErrKind::Internal => "internal",
        }
    }

    /// Parse a wire label.
    pub fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "malformed_frame" => ErrKind::MalformedFrame,
            "unknown_session" => ErrKind::UnknownSession,
            "duplicate_session" => ErrKind::DuplicateSession,
            "command_rejected" => ErrKind::CommandRejected,
            "busy" => ErrKind::Busy,
            "shutting_down" => ErrKind::ShuttingDown,
            "internal" => ErrKind::Internal,
            _ => return None,
        })
    }
}

/// One operation a client can request.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Liveness probe; answers `{"pong": 1}` plus host occupancy.
    Ping,
    /// Create a session named `session` from `spec`.
    Create {
        /// Tenant session name.
        session: String,
        /// Network build parameters.
        spec: SessionSpec,
    },
    /// Destroy a session and drop its state.
    Destroy {
        /// Tenant session name.
        session: String,
    },
    /// Apply one command to a session; answers with its record.
    Cmd {
        /// Tenant session name.
        session: String,
        /// The command to apply.
        cmd: SessionCommand,
    },
    /// Fetch a session's full deterministic event stream.
    Stream {
        /// Tenant session name.
        session: String,
    },
    /// Subscribe this connection to a session's trace: every record
    /// applied after this point is pushed as an event frame.
    Watch {
        /// Tenant session name.
        session: String,
    },
    /// Read a session's current knowledge snapshot without recording
    /// a command.
    Peek {
        /// Tenant session name.
        session: String,
    },
    /// Ask the host to drain and exit.
    Shutdown,
}

/// A client request: correlation id plus operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Correlation id echoed in the response (client-chosen, nonzero;
    /// id 0 is reserved for server-pushed events).
    pub id: u64,
    /// The requested operation.
    pub op: Op,
}

/// The body of a server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// Success with a result value.
    Ok(Json),
    /// A typed failure.
    Err {
        /// Failure classification.
        kind: ErrKind,
        /// Deterministic human-readable detail.
        detail: String,
    },
    /// A server-pushed watch event (id 0).
    Event(Json),
}

/// A server frame: correlation id plus body.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's id (0 for pushed events).
    pub id: u64,
    /// Outcome.
    pub body: Body,
}

/// Stable wire label of a broadcast protocol (matches the CLI flags).
pub fn protocol_label(p: Protocol) -> &'static str {
    match p {
        Protocol::ImprovedCff => "cff",
        Protocol::BasicCff => "cff1",
        Protocol::ReliableCff => "rcff",
        Protocol::Dfo => "dfo",
    }
}

/// Parse a wire protocol label.
pub fn protocol_from_label(s: &str) -> Option<Protocol> {
    Some(match s {
        "cff" => Protocol::ImprovedCff,
        "cff1" => Protocol::BasicCff,
        "rcff" | "reliable" => Protocol::ReliableCff,
        "dfo" => Protocol::Dfo,
        _ => return None,
    })
}

/// Encode a session spec as a JSON object.
pub fn spec_to_json(spec: &SessionSpec) -> Json {
    obj(vec![
        ("nodes", Json::Int(spec.nodes as i64)),
        ("seed", Json::Int(spec.seed as i64)),
        ("field_milli", Json::Int(spec.field_milli as i64)),
        ("groups", Json::Int(spec.groups as i64)),
        ("membership_ppm", Json::Int(spec.membership_ppm as i64)),
    ])
}

/// Read the value `j` of field `key` as a `T`: a value that is not an
/// integer, or does not fit `T`, is an error naming the field.
fn int<T: TryFrom<i64>>(j: &Json, key: &str) -> Result<T, String> {
    let n = j
        .as_i64()
        .ok_or_else(|| format!("field '{key}' must be an integer"))?;
    T::try_from(n).map_err(|_| {
        let ty = std::any::type_name::<T>();
        format!("field '{key}' is out of range for {ty}")
    })
}

/// Read field `key` of `v` with [`int`]; an absent field takes
/// `default`, and is an error when there is none.
fn field<T: TryFrom<i64>>(v: &Json, key: &str, default: Option<T>) -> Result<T, String> {
    match v.get(key) {
        None => default.ok_or_else(|| format!("missing field '{key}'")),
        Some(j) => int(j, key),
    }
}

/// Decode a session spec; missing fields fall back to the defaults.
/// The seed is a full-range `u64` carried in two's-complement (an `i64`
/// on the wire, matching [`spec_to_json`]'s `as i64` cast), so derived
/// seeds above `i64::MAX` round-trip exactly.
pub fn spec_from_json(v: &Json) -> Result<SessionSpec, String> {
    let d = SessionSpec::default();
    Ok(SessionSpec {
        nodes: field(v, "nodes", Some(d.nodes))?,
        seed: field::<i64>(v, "seed", Some(d.seed as i64))? as u64,
        field_milli: field(v, "field_milli", Some(d.field_milli))?,
        groups: field(v, "groups", Some(d.groups))?,
        membership_ppm: field(v, "membership_ppm", Some(d.membership_ppm))?,
    })
}

/// Encode a session command as a flat JSON object (the same shape script
/// files use, one object per line).
pub fn command_to_json(cmd: &SessionCommand) -> Json {
    let mut pairs: Vec<(&str, Json)> = vec![("cmd", Json::Str(cmd.kind().to_string()))];
    match cmd {
        SessionCommand::Broadcast {
            protocol,
            source,
            channels,
            loss_ppm,
            retries,
            min_delivery_ppm,
        } => {
            pairs.push(("protocol", Json::Str(protocol_label(*protocol).to_string())));
            if let Some(s) = source {
                pairs.push(("source", Json::Int(*s as i64)));
            }
            pairs.push(("channels", Json::Int(*channels as i64)));
            pairs.push(("loss_ppm", Json::Int(*loss_ppm as i64)));
            pairs.push(("retries", Json::Int(*retries as i64)));
            pairs.push(("min_delivery_ppm", Json::Int(*min_delivery_ppm as i64)));
        }
        SessionCommand::Multicast { group, source } => {
            pairs.push(("group", Json::Int(*group as i64)));
            if let Some(s) = source {
                pairs.push(("source", Json::Int(*s as i64)));
            }
        }
        SessionCommand::MoveIn {
            x_milli,
            y_milli,
            groups,
        } => {
            pairs.push(("x_milli", Json::Int(*x_milli)));
            pairs.push(("y_milli", Json::Int(*y_milli)));
            pairs.push((
                "groups",
                Json::Arr(groups.iter().map(|g| Json::Int(*g as i64)).collect()),
            ));
        }
        SessionCommand::MoveOut { node }
        | SessionCommand::Kill { node }
        | SessionCommand::Revive { node }
        | SessionCommand::Repair { node } => {
            pairs.push(("node", Json::Int(*node as i64)));
        }
        SessionCommand::Mobility {
            epochs,
            movers,
            step_milli,
        } => {
            pairs.push(("epochs", Json::Int(*epochs as i64)));
            pairs.push(("movers", Json::Int(*movers as i64)));
            pairs.push(("step_milli", Json::Int(*step_milli as i64)));
        }
        SessionCommand::Snapshot => {}
    }
    obj(pairs)
}

/// Decode a session command from its flat object form.
pub fn command_from_json(v: &Json) -> Result<SessionCommand, String> {
    let kind = v
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or("missing string field 'cmd'")?;
    let node = || field(v, "node", None);
    // An absent or null source means the sink.
    let source = || match v.get("source") {
        None | Some(Json::Null) => Ok(None),
        Some(j) => int(j, "source").map(Some),
    };
    Ok(match kind {
        "broadcast" => {
            let label = v.get("protocol").and_then(Json::as_str).unwrap_or("cff");
            SessionCommand::Broadcast {
                protocol: protocol_from_label(label)
                    .ok_or_else(|| format!("unknown protocol '{label}'"))?,
                source: source()?,
                channels: field(v, "channels", Some(1))?,
                loss_ppm: field(v, "loss_ppm", Some(0))?,
                retries: field(v, "retries", Some(0))?,
                min_delivery_ppm: field(v, "min_delivery_ppm", Some(0))?,
            }
        }
        "multicast" => SessionCommand::Multicast {
            group: field(v, "group", Some(0))?,
            source: source()?,
        },
        "move_in" => SessionCommand::MoveIn {
            x_milli: field(v, "x_milli", None)?,
            y_milli: field(v, "y_milli", None)?,
            groups: match v.get("groups") {
                None => Vec::new(),
                Some(j) => j
                    .as_arr()
                    .ok_or("field 'groups' must be an array")?
                    .iter()
                    .map(|g| int(g, "groups"))
                    .collect::<Result<_, _>>()?,
            },
        },
        "move_out" => SessionCommand::MoveOut { node: node()? },
        "kill" => SessionCommand::Kill { node: node()? },
        "revive" => SessionCommand::Revive { node: node()? },
        "repair" => SessionCommand::Repair { node: node()? },
        "mobility" => SessionCommand::Mobility {
            epochs: field(v, "epochs", Some(1))?,
            movers: field(v, "movers", Some(1))?,
            step_milli: field(v, "step_milli", Some(500))?,
        },
        "snapshot" => SessionCommand::Snapshot,
        other => return Err(format!("unknown command '{other}'")),
    })
}

/// Encode a request as a JSON value (the single source of truth for the
/// request grammar).
pub fn request_to_json(req: &Request) -> Json {
    let mut pairs: Vec<(&str, Json)> = vec![("id", Json::Int(req.id as i64))];
    match &req.op {
        Op::Ping => pairs.push(("op", Json::Str("ping".into()))),
        Op::Create { session, spec } => {
            pairs.push(("op", Json::Str("create".into())));
            pairs.push(("session", Json::Str(session.clone())));
            pairs.push(("spec", spec_to_json(spec)));
        }
        Op::Destroy { session } => {
            pairs.push(("op", Json::Str("destroy".into())));
            pairs.push(("session", Json::Str(session.clone())));
        }
        Op::Cmd { session, cmd } => {
            pairs.push(("op", Json::Str("cmd".into())));
            pairs.push(("session", Json::Str(session.clone())));
            pairs.push(("command", command_to_json(cmd)));
        }
        Op::Stream { session } => {
            pairs.push(("op", Json::Str("stream".into())));
            pairs.push(("session", Json::Str(session.clone())));
        }
        Op::Watch { session } => {
            pairs.push(("op", Json::Str("watch".into())));
            pairs.push(("session", Json::Str(session.clone())));
        }
        Op::Peek { session } => {
            pairs.push(("op", Json::Str("peek".into())));
            pairs.push(("session", Json::Str(session.clone())));
        }
        Op::Shutdown => pairs.push(("op", Json::Str("shutdown".into()))),
    }
    obj(pairs)
}

/// Decode a request from its JSON value.
pub fn request_from_json(v: &Json) -> Result<Request, String> {
    let id = field(v, "id", None)?;
    if id == 0 {
        return Err("request id 0 is reserved for events".into());
    }
    let op_name = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing string field 'op'")?;
    let session = || -> Result<String, String> {
        v.get("session")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| "missing string field 'session'".into())
    };
    let op = match op_name {
        "ping" => Op::Ping,
        "create" => Op::Create {
            session: session()?,
            spec: match v.get("spec") {
                None => SessionSpec::default(),
                Some(s) => spec_from_json(s)?,
            },
        },
        "destroy" => Op::Destroy {
            session: session()?,
        },
        "cmd" => Op::Cmd {
            session: session()?,
            cmd: command_from_json(v.get("command").ok_or("missing field 'command'")?)?,
        },
        "stream" => Op::Stream {
            session: session()?,
        },
        "watch" => Op::Watch {
            session: session()?,
        },
        "peek" => Op::Peek {
            session: session()?,
        },
        "shutdown" => Op::Shutdown,
        other => return Err(format!("unknown op '{other}'")),
    };
    Ok(Request { id, op })
}

/// Encode a response as a JSON value.
pub fn response_to_json(resp: &Response) -> Json {
    let mut pairs: Vec<(&str, Json)> = vec![("id", Json::Int(resp.id as i64))];
    match &resp.body {
        Body::Ok(v) => pairs.push(("ok", v.clone())),
        Body::Err { kind, detail } => {
            pairs.push(("err", Json::Str(kind.label().into())));
            pairs.push(("detail", Json::Str(detail.clone())));
        }
        Body::Event(v) => pairs.push(("event", v.clone())),
    }
    obj(pairs)
}

/// Decode a response from its JSON value.
pub fn response_from_json(v: &Json) -> Result<Response, String> {
    let id = field(v, "id", None)?;
    let body = if let Some(ok) = v.get("ok") {
        Body::Ok(ok.clone())
    } else if let Some(kind) = v.get("err") {
        let label = kind.as_str().ok_or("field 'err' must be a string")?;
        Body::Err {
            kind: ErrKind::from_label(label)
                .ok_or_else(|| format!("unknown err kind '{label}'"))?,
            detail: v
                .get("detail")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        }
    } else if let Some(ev) = v.get("event") {
        Body::Event(ev.clone())
    } else {
        return Err("response needs one of 'ok', 'err', 'event'".into());
    };
    Ok(Response { id, body })
}

/// Encode a request frame payload (`_format` is the [`FrameFormat`]
/// shim).
pub fn encode_request_bytes(req: &Request, _format: FrameFormat) -> Vec<u8> {
    request_to_json(req).render().into_bytes()
}

/// Encode a response frame payload.
pub fn encode_response_bytes(resp: &Response) -> Vec<u8> {
    response_to_json(resp).render().into_bytes()
}

fn payload_to_json(payload: &[u8]) -> Result<Json, PayloadFault> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| PayloadFault::Encoding("payload is not UTF-8".into()))?;
    parse(text).map_err(|e| PayloadFault::Grammar(e.to_string()))
}

/// Decode a request frame payload, classifying failures per the
/// [`PayloadFault`] taxonomy.
pub fn decode_request_bytes(payload: &[u8]) -> Result<Request, PayloadFault> {
    request_from_json(&payload_to_json(payload)?).map_err(PayloadFault::Grammar)
}

/// Decode a response frame payload (`_format` is the [`FrameFormat`]
/// shim).
pub fn decode_response_bytes(
    payload: &[u8],
    _format: FrameFormat,
) -> Result<Response, PayloadFault> {
    response_from_json(&payload_to_json(payload)?).map_err(PayloadFault::Grammar)
}

/// Parse a script: one flat command object per line; blank lines and
/// `#` comments are skipped. Returns commands with 1-based line numbers
/// attached to errors.
pub fn parse_script(text: &str) -> Result<Vec<SessionCommand>, String> {
    let mut cmds = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let v = parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        cmds.push(command_from_json(&v).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(cmds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame_bytes(&mut buf, b"{\"id\":1}").unwrap();
        write_frame_bytes(&mut buf, b"").unwrap();
        write_frame_bytes(&mut buf, "second ε frame".as_bytes()).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame_bytes(&mut r).unwrap(), b"{\"id\":1}");
        assert_eq!(read_frame_bytes(&mut r).unwrap(), b"");
        assert_eq!(
            read_frame_bytes(&mut r).unwrap(),
            "second ε frame".as_bytes()
        );
        assert!(matches!(read_frame_bytes(&mut r), Err(WireError::Closed)));
    }

    #[test]
    fn truncated_frames_are_rejected() {
        // Header promises 10 bytes, only 3 arrive.
        let mut bytes = 10u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(b"abc");
        let got = read_frame_bytes(&mut Cursor::new(bytes));
        assert!(matches!(
            got,
            Err(WireError::Truncated { got: 3, want: 10 })
        ));
        // Header itself cut short.
        let got = read_frame_bytes(&mut Cursor::new(vec![0u8, 0]));
        assert!(matches!(got, Err(WireError::Truncated { got: 2, want: 4 })));
    }

    #[test]
    fn oversized_frames_are_rejected_both_directions() {
        let bytes = (MAX_FRAME + 1).to_be_bytes().to_vec();
        let got = read_frame_bytes(&mut Cursor::new(bytes));
        assert!(matches!(got, Err(WireError::Oversized { .. })));
        let big = vec![b'x'; MAX_FRAME as usize + 1];
        let mut sink = Vec::new();
        assert!(matches!(
            write_frame_bytes(&mut sink, &big),
            Err(WireError::Oversized { .. })
        ));
        assert!(sink.is_empty(), "nothing written for an oversized frame");
    }

    fn roundtrip_req(req: Request) {
        let bytes = encode_request_bytes(&req, FrameFormat::Json);
        let text = String::from_utf8_lossy(&bytes);
        let got = decode_request_bytes(&bytes);
        assert_eq!(got.expect(&text), req, "{text}");
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request {
            id: 1,
            op: Op::Ping,
        });
        roundtrip_req(Request {
            id: 2,
            op: Op::Shutdown,
        });
        roundtrip_req(Request {
            id: 3,
            op: Op::Create {
                session: "t-0".into(),
                spec: SessionSpec {
                    nodes: 24,
                    seed: 99,
                    field_milli: 6_000,
                    groups: 3,
                    membership_ppm: 250_000,
                },
            },
        });
        for session in ["a", "with \"quotes\""] {
            roundtrip_req(Request {
                id: 4,
                op: Op::Destroy {
                    session: session.into(),
                },
            });
            roundtrip_req(Request {
                id: 5,
                op: Op::Stream {
                    session: session.into(),
                },
            });
            roundtrip_req(Request {
                id: 6,
                op: Op::Watch {
                    session: session.into(),
                },
            });
            roundtrip_req(Request {
                id: 7,
                op: Op::Peek {
                    session: session.into(),
                },
            });
        }
    }

    #[test]
    fn every_command_roundtrips_through_cmd_op() {
        let cmds = vec![
            SessionCommand::Broadcast {
                protocol: Protocol::ImprovedCff,
                source: None,
                channels: 2,
                loss_ppm: 50_000,
                retries: 3,
                min_delivery_ppm: 990_000,
            },
            SessionCommand::Broadcast {
                protocol: Protocol::Dfo,
                source: Some(7),
                channels: 1,
                loss_ppm: 0,
                retries: 0,
                min_delivery_ppm: 0,
            },
            SessionCommand::Multicast {
                group: 2,
                source: Some(3),
            },
            SessionCommand::Multicast {
                group: 0,
                source: None,
            },
            SessionCommand::MoveIn {
                x_milli: -250,
                y_milli: 9_750,
                groups: vec![0, 2],
            },
            SessionCommand::MoveOut { node: 11 },
            SessionCommand::Kill { node: 4 },
            SessionCommand::Revive { node: 4 },
            SessionCommand::Repair { node: 9 },
            SessionCommand::Mobility {
                epochs: 3,
                movers: 2,
                step_milli: 400,
            },
            SessionCommand::Snapshot,
        ];
        for cmd in cmds {
            roundtrip_req(Request {
                id: 8,
                op: Op::Cmd {
                    session: "s".into(),
                    cmd,
                },
            });
        }
    }

    #[test]
    fn all_protocol_labels_roundtrip() {
        for p in [
            Protocol::Dfo,
            Protocol::BasicCff,
            Protocol::ImprovedCff,
            Protocol::ReliableCff,
        ] {
            assert_eq!(protocol_from_label(protocol_label(p)), Some(p));
        }
        assert_eq!(protocol_from_label("nope"), None);
    }

    #[test]
    fn responses_roundtrip() {
        let cases = vec![
            Response {
                id: 1,
                body: Body::Ok(Json::Int(1)),
            },
            Response {
                id: 2,
                body: Body::Ok(obj(vec![("stream", Json::Str("text\nlines".into()))])),
            },
            Response {
                id: 3,
                body: Body::Err {
                    kind: ErrKind::UnknownSession,
                    detail: "no session 'x'".into(),
                },
            },
            Response {
                id: 0,
                body: Body::Event(obj(vec![("seq", Json::Int(4))])),
            },
        ];
        for resp in cases {
            let bytes = encode_response_bytes(&resp);
            let text = String::from_utf8_lossy(&bytes);
            let got = decode_response_bytes(&bytes, FrameFormat::Json);
            assert_eq!(got.unwrap(), resp, "{text}");
        }
    }

    #[test]
    fn every_err_kind_label_roundtrips() {
        for kind in [
            ErrKind::MalformedFrame,
            ErrKind::UnknownSession,
            ErrKind::DuplicateSession,
            ErrKind::CommandRejected,
            ErrKind::Busy,
            ErrKind::ShuttingDown,
            ErrKind::Internal,
        ] {
            assert_eq!(ErrKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(ErrKind::from_label("bogus"), None);
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            "",
            "{}",
            "{\"id\":0,\"op\":\"ping\"}",
            "{\"id\":-3,\"op\":\"ping\"}",
            "{\"id\":1}",
            "{\"id\":1,\"op\":\"warp\"}",
            "{\"id\":1,\"op\":\"cmd\",\"session\":\"s\"}",
            "{\"id\":1,\"op\":\"cmd\",\"session\":\"s\",\"command\":{\"cmd\":\"zap\"}}",
            "{\"id\":1,\"op\":\"create\",\"session\":\"s\",\"spec\":{\"nodes\":-5}}",
            "{\"id\":1,\"op\":\"destroy\"}",
            "{\"id\":1,\"op\":\"frames\",\"format\":\"json\"}",
        ] {
            assert!(
                decode_request_bytes(bad.as_bytes()).is_err(),
                "{bad:?} should fail"
            );
        }
    }

    #[test]
    fn payload_faults_classify_by_severity() {
        // Bad UTF-8 is an encoding fault (close); bad JSON text and
        // wrong-shape documents are grammar faults (keep).
        assert!(matches!(
            decode_request_bytes(&[0xff, 0xfe]),
            Err(PayloadFault::Encoding(_))
        ));
        for bad in ["{oops", "{\"id\":1,\"op\":\"warp\"}"] {
            assert!(matches!(
                decode_request_bytes(bad.as_bytes()),
                Err(PayloadFault::Grammar(_))
            ));
        }
    }

    /// Every narrowed integer field rejects the first value past its
    /// type's range with an error naming the field, and still takes the
    /// largest value that fits.
    #[test]
    fn narrowed_fields_are_range_checked() {
        let spec = |key: &str, n: i64| spec_from_json(&obj(vec![(key, Json::Int(n))]));
        for (key, max) in [
            ("field_milli", u32::MAX as i64),
            ("groups", u16::MAX as i64),
            ("membership_ppm", u32::MAX as i64),
        ] {
            assert!(spec(key, max).is_ok(), "{key} = {max}");
            let err = spec(key, max + 1).unwrap_err();
            assert!(err.contains(&format!("'{key}'")), "{key}: {err}");
        }
        assert!(spec("nodes", -1).unwrap_err().contains("'nodes'"));

        let cmd = |kind: &str, key: &str, n: i64| {
            let value = match key {
                "groups" => Json::Arr(vec![Json::Int(n)]),
                _ => Json::Int(n),
            };
            command_from_json(&obj(vec![
                ("cmd", Json::Str(kind.into())),
                ("x_milli", Json::Int(0)),
                ("y_milli", Json::Int(0)),
                (key, value),
            ]))
        };
        let u8_max = u8::MAX as i64;
        let u16_max = u16::MAX as i64;
        let u32_max = u32::MAX as i64;
        for (kind, key, max) in [
            ("move_out", "node", u32_max),
            ("kill", "node", u32_max),
            ("revive", "node", u32_max),
            ("repair", "node", u32_max),
            ("broadcast", "source", u32_max),
            ("broadcast", "channels", u8_max),
            ("broadcast", "loss_ppm", u32_max),
            ("broadcast", "retries", u32_max),
            ("broadcast", "min_delivery_ppm", u32_max),
            ("multicast", "group", u16_max),
            ("multicast", "source", u32_max),
            ("move_in", "groups", u16_max),
            ("mobility", "epochs", u32_max),
            ("mobility", "movers", u32_max),
            ("mobility", "step_milli", u32_max),
        ] {
            assert!(cmd(kind, key, max).is_ok(), "{kind}.{key} = {max}");
            for bad in [max + 1, -1] {
                let err = cmd(kind, key, bad).unwrap_err();
                assert!(err.contains(&format!("'{key}'")), "{kind}.{key}: {err}");
            }
        }
        // The reported case: 2^32 + 5 must not depart node 5.
        assert!(cmd("move_out", "node", (1 << 32) + 5).is_err());
    }

    #[test]
    fn raw_frames_roundtrip_bytes() {
        let mut buf = Vec::new();
        write_frame_bytes(&mut buf, &[0, 1, 2, 0xff]).unwrap();
        write_frame_bytes(&mut buf, b"").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame_bytes(&mut r).unwrap(), vec![0, 1, 2, 0xff]);
        assert_eq!(read_frame_bytes(&mut r).unwrap(), Vec::<u8>::new());
        assert!(matches!(read_frame_bytes(&mut r), Err(WireError::Closed)));
    }

    #[test]
    fn full_range_seeds_roundtrip() {
        // Derived seeds routinely exceed i64::MAX; the wire carries them
        // in two's-complement.
        for seed in [0, 1, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX] {
            roundtrip_req(Request {
                id: 9,
                op: Op::Create {
                    session: "s".into(),
                    spec: SessionSpec {
                        seed,
                        ..SessionSpec::default()
                    },
                },
            });
        }
    }

    #[test]
    fn spec_defaults_fill_missing_fields() {
        let spec = spec_from_json(&parse("{\"nodes\":30}").unwrap()).unwrap();
        assert_eq!(spec.nodes, 30);
        assert_eq!(spec.seed, SessionSpec::default().seed);
        assert_eq!(spec.field_milli, SessionSpec::default().field_milli);
    }

    #[test]
    fn scripts_parse_with_comments_and_blanks() {
        let text = "# a demo script\n\n{\"cmd\":\"broadcast\",\"protocol\":\"dfo\"}\n  \n{\"cmd\":\"kill\",\"node\":3}\n{\"cmd\":\"snapshot\"}\n";
        let cmds = parse_script(text).unwrap();
        assert_eq!(cmds.len(), 3);
        assert_eq!(cmds[0].kind(), "broadcast");
        assert_eq!(cmds[1], SessionCommand::Kill { node: 3 });
        assert_eq!(cmds[2], SessionCommand::Snapshot);
        let err = parse_script("{\"cmd\":\"snapshot\"}\n{oops}\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
