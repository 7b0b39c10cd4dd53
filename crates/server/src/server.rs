//! The long-lived daemon: TCP and unix-socket listeners around a
//! [`Host`], with graceful shutdown.
//!
//! A sharded readiness reactor ([`dsnet_netio`]) multiplexes every
//! connection across `min(cores, 8)` event loops — no per-connection
//! thread, no idle wakeups. Each request is answered before the next
//! frame of its connection is decoded, so replies keep request order;
//! watch subscribers push rendered event lines straight into the owning
//! shard's write queue.
//!
//! Shutdown — whether from SIGINT, the wire `shutdown` op, or
//! [`Server::begin_shutdown`] — follows one path: the host starts
//! draining (in-flight commands finish, new sessions and commands are
//! refused with a typed `shutting_down` error, reads keep being
//! served) and accepting stops. [`Server::wait`] then gives open
//! connections a grace period to finish their reads and disconnect
//! before hard-stopping the stragglers at their next frame boundary.
//! The wait itself is readiness-driven: a stop wake-pipe and a SIGINT
//! self-pipe, so an idle daemon burns no wakeups and shutdown latency
//! is bounded by a single poll wakeup rather than a sleep tick.

use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use dsnet_netio::sys::{poll_fds, PollFd, POLLIN};
use dsnet_netio::{
    wake_pair, Action, ConnCx, FrameError, Handler, HandlerFactory, Listener as NetListener,
    Reactor, ReactorConfig, WakeReader, Waker,
};

use crate::host::{Host, HostConfig, HostError};
use crate::json::{obj, Json};
use crate::protocol::{
    decode_request_bytes, encode_response_bytes, spec_to_json, Body, ErrKind, Op, PayloadFault,
    Response, WireError,
};

/// Back-off before retrying a failed stop-wait poll.
const POLL_RETRY: Duration = Duration::from_millis(25);

/// Grace period for draining clients to finish their reads and hang up
/// before the hard stop.
const DRAIN_GRACE: Duration = Duration::from_secs(3);

/// Bound on the hard stop itself (flush + close).
const HARD_STOP_BOUND: Duration = Duration::from_secs(1);

/// How the daemon listens and how many tenants it admits.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// TCP bind address (e.g. `127.0.0.1:7878` or `127.0.0.1:0` for an
    /// ephemeral port). `None` = no TCP listener.
    pub tcp: Option<String>,
    /// Unix-socket path. `None` = no unix listener. The file is created
    /// on start and removed by [`Server::wait`].
    pub unix: Option<PathBuf>,
    /// Session capacity (`0` = the [`HostConfig`] default).
    pub max_sessions: usize,
    /// Reactor event loops (`0` = `min(cores, 8)`).
    pub shards: usize,
    /// Close a connection parked mid-frame for this many milliseconds
    /// (`0` = the reactor default, 30 s). Connections idle *between*
    /// frames — watchers included — are never deadlined.
    pub read_deadline_ms: u64,
}

/// Shutdown trigger shared by every place that can request a stop: the
/// flag is the authoritative state, the waker gets [`Server::wait`]
/// out of its poll.
#[derive(Clone)]
struct StopSignal {
    stop: Arc<AtomicBool>,
    waker: Waker,
}

impl StopSignal {
    fn trigger(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// A running daemon. Dropping it does *not* stop the threads — call
/// [`Server::begin_shutdown`] then [`Server::wait`].
pub struct Server {
    host: Arc<Host>,
    signal: StopSignal,
    stop_rx: WakeReader,
    reactor: Reactor,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl Server {
    /// Bind the requested listeners and start serving. At least one of
    /// `tcp`/`unix` must be set.
    pub fn start(opts: &ServeOptions) -> std::io::Result<Server> {
        if opts.tcp.is_none() && opts.unix.is_none() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "serve needs a --tcp address or a --unix socket path",
            ));
        }
        let max_sessions = if opts.max_sessions == 0 {
            HostConfig::default().max_sessions
        } else {
            opts.max_sessions
        };
        let host = Arc::new(Host::new(HostConfig { max_sessions }));
        let (stop_waker, stop_rx) = wake_pair()?;
        let signal = StopSignal {
            stop: Arc::new(AtomicBool::new(false)),
            waker: stop_waker,
        };

        let mut listeners = Vec::new();
        let mut tcp_addr = None;
        if let Some(addr) = &opts.tcp {
            let listener = TcpListener::bind(addr)?;
            tcp_addr = Some(listener.local_addr()?);
            listeners.push(NetListener::Tcp(listener));
        }
        if let Some(path) = &opts.unix {
            // A stale socket file from a crashed daemon blocks bind.
            if path.exists() {
                std::fs::remove_file(path)?;
            }
            listeners.push(NetListener::Unix(UnixListener::bind(path)?));
        }
        let factory: HandlerFactory = {
            let host = host.clone();
            let signal = signal.clone();
            Arc::new(move || {
                Box::new(ConnHandler::new(host.clone(), signal.clone())) as Box<dyn Handler>
            })
        };
        let config = ReactorConfig {
            shards: opts.shards,
            read_deadline: if opts.read_deadline_ms == 0 {
                ReactorConfig::default().read_deadline
            } else {
                Duration::from_millis(opts.read_deadline_ms)
            },
        };
        let reactor = Reactor::start(listeners, factory, config)?;

        Ok(Server {
            host,
            signal,
            stop_rx,
            reactor,
            tcp_addr,
            unix_path: opts.unix.clone(),
        })
    }

    /// The session host (tests drive it directly).
    pub fn host(&self) -> &Arc<Host> {
        &self.host
    }

    /// The bound TCP address, once listening (useful with port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Start the graceful drain: the host refuses new sessions and
    /// commands, accepting stops. Open connections keep serving reads
    /// until they disconnect or [`Server::wait`]'s grace period
    /// expires.
    pub fn begin_shutdown(&self) {
        self.host.begin_drain();
        self.reactor.begin_drain();
        self.signal.trigger();
    }

    /// Block until shutdown is requested, then stop accepting and give
    /// open connections a bounded grace period to wind down. Removes
    /// the unix socket file.
    pub fn wait(mut self) {
        block_until_stop(&self.signal, &mut self.stop_rx);
        // begin_shutdown may have been called externally without
        // SIGINT; make sure the host drains either way.
        self.host.begin_drain();
        self.reactor.begin_drain();
        // Grace: draining clients may still fetch streams; the wait
        // returns early once every connection is gone.
        self.reactor.wait_idle(DRAIN_GRACE);
        self.reactor.hard_stop();
        self.reactor.wait_idle(HARD_STOP_BOUND);
        self.reactor.join();
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Block on the stop wake-pipe and the SIGINT self-pipe until either
/// fires. The SIGINT pipe is deliberately never drained — once
/// readable it stays readable, which makes the sticky `SIGINT` flag
/// and the poll agree forever after.
fn block_until_stop(signal: &StopSignal, stop_rx: &mut WakeReader) {
    loop {
        if signal.is_stopped() || sigint_received() {
            return;
        }
        let mut fds = vec![PollFd {
            fd: stop_rx.fd(),
            events: POLLIN,
            revents: 0,
        }];
        if let Some(fd) = sigint_pipe_fd() {
            fds.push(PollFd {
                fd,
                events: POLLIN,
                revents: 0,
            });
        }
        if poll_fds(&mut fds, -1).is_err() {
            // Poll itself failing is pathological; back off rather
            // than spinning.
            std::thread::sleep(POLL_RETRY);
        }
        stop_rx.drain();
    }
}

// ---- connections --------------------------------------------------------

/// Per-connection protocol state: whether the connection has turned
/// into a watch stream.
struct ConnHandler {
    host: Arc<Host>,
    signal: StopSignal,
    watching: bool,
}

impl ConnHandler {
    fn new(host: Arc<Host>, signal: StopSignal) -> ConnHandler {
        ConnHandler {
            host,
            signal,
            watching: false,
        }
    }

    fn reply(&self, id: u64, body: Body, cx: &mut ConnCx<'_>) {
        cx.send(&encode_response_bytes(&Response { id, body }));
    }
}

impl Handler for ConnHandler {
    fn on_frames(&mut self, frames: Vec<Vec<u8>>, cx: &mut ConnCx<'_>) -> Action {
        if self.watching {
            // A watching connection is a one-way event stream; frames
            // sent after the watch request are dropped.
            return Action::Continue;
        }
        for frame in frames {
            let req = match decode_request_bytes(&frame) {
                Ok(req) => req,
                Err(fault) => {
                    let keep = matches!(fault, PayloadFault::Grammar(_));
                    self.reply(
                        0,
                        Body::Err {
                            kind: ErrKind::MalformedFrame,
                            detail: fault.detail().to_string(),
                        },
                        cx,
                    );
                    if keep {
                        continue;
                    }
                    return Action::Close;
                }
            };
            match req.op {
                Op::Watch { session } => {
                    let push = cx.push_handle();
                    let registered = self.host.watch_fn(&session, move |line| {
                        push.push(encode_response_bytes(&Response {
                            id: 0,
                            body: Body::Event(Json::Str(line.to_string())),
                        }))
                    });
                    match registered {
                        Ok(()) => {
                            // The ack is queued in this handler call;
                            // pushes are merged between handler calls,
                            // so it always precedes the first event.
                            let ack = Body::Ok(obj(vec![("watching", Json::Str(session))]));
                            self.reply(req.id, ack, cx);
                            self.watching = true;
                            return Action::Continue;
                        }
                        Err(e) => self.reply(req.id, host_err_body(e), cx),
                    }
                }
                op => {
                    let body = op_body(&op, &self.host, &self.signal);
                    self.reply(req.id, body, cx);
                }
            }
        }
        Action::Continue
    }

    fn on_bad_frame(&mut self, err: &FrameError, cx: &mut ConnCx<'_>) {
        // Frame-level fault: report it, then the reactor closes —
        // framing is unrecoverable once the byte stream is misaligned.
        let detail = match err {
            FrameError::Oversized { len, max } => WireError::Oversized {
                len: *len as u32,
                max: *max as u32,
            }
            .to_string(),
        };
        let body = Body::Err {
            kind: ErrKind::MalformedFrame,
            detail,
        };
        self.reply(0, body, cx);
    }
}

// ---- dispatch -----------------------------------------------------------

fn host_err_body(e: HostError) -> Body {
    Body::Err {
        kind: e.kind,
        detail: e.detail,
    }
}

/// Render one command outcome.
fn cmd_outcome_body(outcome: Result<dsnet::CommandRecord, HostError>) -> Body {
    match outcome {
        Ok(record) => {
            let fields: Vec<(String, Json)> = record
                .fields
                .iter()
                .map(|(k, v)| (k.clone(), Json::Int(*v)))
                .collect();
            match &record.status {
                dsnet::CommandStatus::Applied => Body::Ok(obj(vec![
                    ("seq", Json::Int(record.seq as i64)),
                    ("cmd", Json::Str(record.kind.to_string())),
                    ("attempts", Json::Int(i64::from(record.attempts))),
                    ("wall_us", Json::Int(record.wall_us as i64)),
                    ("fields", Json::Obj(fields)),
                ])),
                dsnet::CommandStatus::Rejected(reason) => Body::Err {
                    kind: ErrKind::CommandRejected,
                    detail: format!("seq {}: {reason}", record.seq),
                },
            }
        }
        Err(e) => host_err_body(e),
    }
}

/// Body for every op that answers with a single reply. `watch` turns
/// the connection into an event stream and is handled by
/// [`ConnHandler`] itself.
fn op_body(op: &Op, host: &Arc<Host>, signal: &StopSignal) -> Body {
    match op {
        Op::Ping => Body::Ok(obj(vec![
            ("pong", Json::Int(1)),
            ("sessions", Json::Int(host.session_count() as i64)),
            ("max_sessions", Json::Int(host.max_sessions() as i64)),
            ("draining", Json::Int(i64::from(host.is_draining()))),
        ])),
        Op::Create { session, spec } => match host.create(session, spec.clone()) {
            Ok(()) => Body::Ok(obj(vec![
                ("created", Json::Str(session.clone())),
                ("spec", spec_to_json(spec)),
                ("sessions", Json::Int(host.session_count() as i64)),
            ])),
            Err(e) => host_err_body(e),
        },
        Op::Destroy { session } => match host.destroy(session) {
            Ok(()) => Body::Ok(obj(vec![
                ("destroyed", Json::Str(session.clone())),
                ("sessions", Json::Int(host.session_count() as i64)),
            ])),
            Err(e) => host_err_body(e),
        },
        Op::Stream { session } => match host.stream(session) {
            Ok(text) => Body::Ok(obj(vec![("stream", Json::Str(text))])),
            Err(e) => host_err_body(e),
        },
        Op::Peek { session } => match host.peek(session) {
            Ok(p) => Body::Ok(obj(vec![
                ("version", Json::Int(p.version as i64)),
                ("nodes", Json::Int(p.nodes as i64)),
                ("backbone", Json::Int(p.backbone as i64)),
                ("height", Json::Int(p.height as i64)),
                ("commands", Json::Int(p.commands as i64)),
                ("cache_hits", Json::Int(p.cache_hits as i64)),
                ("cache_misses", Json::Int(p.cache_misses as i64)),
                ("cache_patched", Json::Int(p.cache_patched as i64)),
            ])),
            Err(e) => host_err_body(e),
        },
        Op::Cmd { session, cmd } => cmd_outcome_body(host.apply(session, cmd)),
        Op::Watch { .. } => unreachable!("a watch is handled by the handler"),
        Op::Shutdown => {
            host.begin_drain();
            signal.trigger();
            Body::Ok(obj(vec![
                ("shutting_down", Json::Int(1)),
                ("sessions", Json::Int(host.session_count() as i64)),
            ]))
        }
    }
}

// ---- SIGINT -------------------------------------------------------------

static SIGINT: AtomicBool = AtomicBool::new(false);

/// Write end of the SIGINT self-pipe, published for the handler. `-1`
/// until [`install_sigint_handler`] runs.
static SIGINT_WAKE_FD: AtomicI32 = AtomicI32::new(-1);

extern "C" fn on_sigint(_sig: i32) {
    SIGINT.store(true, Ordering::SeqCst);
    let fd = SIGINT_WAKE_FD.load(Ordering::SeqCst);
    if fd >= 0 {
        // write(2) is async-signal-safe; the flag above stays the
        // authoritative state, this byte only unblocks the poll in
        // [`Server::wait`]. Errors (full pipe, racing close) are
        // irrelevant: the pipe is never drained, one byte is enough.
        extern "C" {
            fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        }
        let byte = [1u8];
        unsafe {
            write(fd, byte.as_ptr(), 1);
        }
    }
}

/// The process-wide SIGINT self-pipe, created on first use. Lives for
/// the life of the process so the handler's fd can never dangle.
fn sigint_pipe() -> Option<&'static (Waker, WakeReader)> {
    static PIPE: OnceLock<Option<(Waker, WakeReader)>> = OnceLock::new();
    PIPE.get_or_init(|| wake_pair().ok()).as_ref()
}

/// Read end of the SIGINT self-pipe for poll-based waits.
fn sigint_pipe_fd() -> Option<i32> {
    sigint_pipe().map(|(_, reader)| reader.fd())
}

/// Install a SIGINT handler that flips a flag watched by
/// [`Server::wait`] and writes a wake byte to its poll, turning Ctrl-C
/// into the same graceful drain as the wire `shutdown` op. Safe to
/// call more than once.
pub fn install_sigint_handler() {
    if let Some((waker, _)) = sigint_pipe() {
        SIGINT_WAKE_FD.store(waker.raw_fd(), Ordering::SeqCst);
    }
    // std links libc; `signal` is the portable minimal binding (no
    // sigaction struct layout to replicate). SIG_ERR is ignored — worst
    // case Ctrl-C keeps its default behaviour.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT_NO: i32 = 2;
    unsafe {
        signal(SIGINT_NO, on_sigint as extern "C" fn(i32) as usize);
    }
}

/// Whether SIGINT has been received since the handler was installed.
pub fn sigint_received() -> bool {
    SIGINT.load(Ordering::SeqCst)
}
