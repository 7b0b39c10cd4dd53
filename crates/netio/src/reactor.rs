//! Sharded readiness reactor.
//!
//! One acceptor thread owns the listening sockets and deals accepted
//! connections round-robin to `shards` worker threads; each worker
//! runs a [`Poller`] event loop multiplexing its share of connections
//! through per-connection [`FrameReader`]/[`FrameWriter`] state
//! machines. Protocol logic lives behind the [`Handler`] trait: the
//! reactor hands every readiness burst's *complete* frames to the
//! handler in one call and flushes whatever the handler queued as the
//! sockets allow — frames are never torn or interleaved.
//!
//! Out-of-band senders (watch streams) get a [`PushHandle`]: a
//! cross-thread queue plus shard wakeup that merges pushed frames
//! into the connection's writer *between* handler calls, so a reply
//! queued while handling a frame always precedes later pushes.
//!
//! Lifecycle mirrors dsnet-server's two-stage shutdown: `begin_drain`
//! stops the acceptor (existing connections keep being served),
//! `wait_idle` waits out a grace period, `hard_stop` flushes pending
//! writes within a bounded budget and closes everything at frame
//! boundaries, `join` reaps the threads. All transitions ride wakers,
//! not sleep ticks, so shutdown latency is bounded by the reactor.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::frames::{FrameError, FrameReader, FrameWriter, MAX_FRAME};
use crate::poller::{Event, Interest, Poller};
use crate::sys;
use crate::wake::{wake_pair, WakeReader, Waker};

/// Byte-stream transport the reactor can drive. Implemented for TCP
/// and unix-domain streams.
pub trait NetStream: Read + Write + Send {
    fn raw_fd(&self) -> i32;
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;
}

impl NetStream for TcpStream {
    fn raw_fd(&self) -> i32 {
        self.as_raw_fd()
    }
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        TcpStream::set_nonblocking(self, nonblocking)
    }
}

impl NetStream for UnixStream {
    fn raw_fd(&self) -> i32 {
        self.as_raw_fd()
    }
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        UnixStream::set_nonblocking(self, nonblocking)
    }
}

/// A listening socket handed to the reactor's acceptor.
pub enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn raw_fd(&self) -> i32 {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l) => l.as_raw_fd(),
        }
    }

    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(true),
            Listener::Unix(l) => l.set_nonblocking(true),
        }
    }

    fn accept(&self) -> io::Result<Box<dyn NetStream>> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                // Single-write frames + NODELAY dodge the 40ms
                // Nagle/delayed-ACK stall (see dsnet-server protocol).
                let _ = s.set_nodelay(true);
                Ok(Box::new(s))
            }
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(Box::new(s))
            }
        }
    }
}

/// What to do with the connection after a handler call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    Continue,
    /// Flush queued replies, then close.
    Close,
}

/// Per-connection protocol logic, driven by a shard thread.
pub trait Handler: Send {
    /// All complete frames decoded from one readiness burst, in wire
    /// order. Replies queued via [`ConnCx::send`] are flushed after
    /// this returns and always precede frames pushed concurrently
    /// through a [`PushHandle`].
    fn on_frames(&mut self, frames: Vec<Vec<u8>>, cx: &mut ConnCx<'_>) -> Action;

    /// Unrecoverable frame-level fault (oversized declared length).
    /// Any reply queued here is flushed, then the connection closes.
    fn on_bad_frame(&mut self, err: &FrameError, cx: &mut ConnCx<'_>);

    /// The connection is gone (peer EOF, error, deadline, shutdown).
    /// Runs exactly once, after which no more handler calls occur.
    fn on_close(&mut self) {}
}

/// Handler-facing view of one connection during a callback.
pub struct ConnCx<'a> {
    writer: &'a mut FrameWriter,
    shared: &'a Arc<ConnShared>,
}

impl ConnCx<'_> {
    /// Queue one reply payload (length prefix added by the writer).
    pub fn send(&mut self, payload: &[u8]) {
        self.writer.push_payload(payload);
    }

    /// Handle for pushing frames to this connection from other
    /// threads (watch streams).
    pub fn push_handle(&self) -> PushHandle {
        PushHandle(Arc::clone(self.shared))
    }
}

struct ConnShared {
    queue: Mutex<VecDeque<Vec<u8>>>,
    closed: AtomicBool,
    /// True while this token sits in the shard's pending list —
    /// bounds the list to one entry per connection.
    enqueued: AtomicBool,
    token: usize,
    shard: Arc<ShardHandle>,
}

/// Cross-thread frame injector for one connection.
#[derive(Clone)]
pub struct PushHandle(Arc<ConnShared>);

impl PushHandle {
    /// Queue a payload for delivery and wake the owning shard.
    /// Returns false once the connection is gone — senders should
    /// unregister themselves on false.
    pub fn push(&self, payload: Vec<u8>) -> bool {
        if self.0.closed.load(Ordering::Acquire) {
            return false;
        }
        self.0.queue.lock().unwrap().push_back(payload);
        if !self.0.enqueued.swap(true, Ordering::AcqRel) {
            self.0.shard.pending.lock().unwrap().push(self.0.token);
        }
        self.0.shard.waker.wake();
        true
    }
}

/// Reactor tuning knobs. Every reader enforces the [`MAX_FRAME`]
/// payload cap.
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Worker event loops; 0 means `min(available cores, 8)`.
    pub shards: usize,
    /// Close a connection that has been parked mid-frame for this long.
    pub read_deadline: Duration,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            shards: 0,
            read_deadline: Duration::from_secs(30),
        }
    }
}

/// Total budget for flushing pending writes during a hard stop.
const HARD_STOP_FLUSH: Duration = Duration::from_millis(500);

fn resolve_shards(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    let cores = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    cores.clamp(1, 8)
}

pub type HandlerFactory = Arc<dyn Fn() -> Box<dyn Handler> + Send + Sync>;

struct ReactorShared {
    stop_accept: AtomicBool,
    hard: AtomicBool,
    exit: AtomicBool,
    conns: Mutex<usize>,
    idle: Condvar,
}

impl ReactorShared {
    fn conn_opened(&self) {
        *self.conns.lock().unwrap() += 1;
    }

    fn conn_closed(&self) {
        let mut n = self.conns.lock().unwrap();
        *n -= 1;
        if *n == 0 {
            self.idle.notify_all();
        }
    }
}

struct ShardHandle {
    waker: Waker,
    inject: Mutex<Vec<Box<dyn NetStream>>>,
    pending: Mutex<Vec<usize>>,
}

/// A running sharded reactor. See the module docs for the lifecycle.
pub struct Reactor {
    shared: Arc<ReactorShared>,
    shards: Vec<Arc<ShardHandle>>,
    accept_waker: Waker,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
    shard_count: usize,
}

impl Reactor {
    pub fn start(
        listeners: Vec<Listener>,
        factory: HandlerFactory,
        config: ReactorConfig,
    ) -> io::Result<Reactor> {
        let shard_count = resolve_shards(config.shards);
        let shared = Arc::new(ReactorShared {
            stop_accept: AtomicBool::new(false),
            hard: AtomicBool::new(false),
            exit: AtomicBool::new(false),
            conns: Mutex::new(0),
            idle: Condvar::new(),
        });

        let mut shards = Vec::with_capacity(shard_count);
        let mut threads = Vec::with_capacity(shard_count + 1);
        for i in 0..shard_count {
            let (waker, wake_reader) = wake_pair()?;
            let handle = Arc::new(ShardHandle {
                waker,
                inject: Mutex::new(Vec::new()),
                pending: Mutex::new(Vec::new()),
            });
            let mut shard = Shard::new(
                Arc::clone(&handle),
                Arc::clone(&shared),
                Arc::clone(&factory),
                wake_reader,
                config.clone(),
            )?;
            threads.push(
                thread::Builder::new()
                    .name(format!("netio-shard-{i}"))
                    .spawn(move || shard.run())
                    .expect("spawn shard"),
            );
            shards.push(handle);
        }

        let (accept_waker, accept_wake_reader) = wake_pair()?;
        let acceptor = Acceptor {
            listeners,
            shards: shards.clone(),
            shared: Arc::clone(&shared),
            wake_reader: accept_wake_reader,
        };
        threads.push(
            thread::Builder::new()
                .name("netio-accept".into())
                .spawn(move || acceptor.run())
                .expect("spawn acceptor"),
        );

        Ok(Reactor {
            shared,
            shards,
            accept_waker,
            threads: Mutex::new(threads),
            shard_count,
        })
    }

    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    pub fn conn_count(&self) -> usize {
        *self.shared.conns.lock().unwrap()
    }

    /// Stop accepting new connections; existing ones keep being
    /// served. Idempotent.
    pub fn begin_drain(&self) {
        self.shared.stop_accept.store(true, Ordering::Release);
        self.accept_waker.wake();
    }

    /// Wait up to `timeout` for every connection to close. Returns
    /// true when the reactor went idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut conns = self.shared.conns.lock().unwrap();
        while *conns > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .shared
                .idle
                .wait_timeout(conns, deadline - now)
                .unwrap();
            conns = guard;
        }
        true
    }

    /// Flush pending writes within the configured budget and close
    /// every remaining connection at a frame boundary.
    pub fn hard_stop(&self) {
        self.shared.hard.store(true, Ordering::Release);
        for shard in &self.shards {
            shard.waker.wake();
        }
    }

    /// Stop everything and reap the threads. Remaining connections
    /// are closed as in [`Reactor::hard_stop`]. Idempotent.
    pub fn join(&self) {
        self.shared.stop_accept.store(true, Ordering::Release);
        self.shared.hard.store(true, Ordering::Release);
        self.shared.exit.store(true, Ordering::Release);
        self.accept_waker.wake();
        for shard in &self.shards {
            shard.waker.wake();
        }
        let handles: Vec<_> = self.threads.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

struct Acceptor {
    listeners: Vec<Listener>,
    shards: Vec<Arc<ShardHandle>>,
    shared: Arc<ReactorShared>,
    wake_reader: WakeReader,
}

impl Acceptor {
    fn run(mut self) {
        const WAKE: usize = usize::MAX;
        let mut poller = match Poller::with_default_backend() {
            Ok(p) => p,
            Err(_) => return,
        };
        for (i, l) in self.listeners.iter().enumerate() {
            if l.set_nonblocking().is_err()
                || poller.register(l.raw_fd(), i, Interest::READ).is_err()
            {
                return;
            }
        }
        if poller
            .register(self.wake_reader.fd(), WAKE, Interest::READ)
            .is_err()
        {
            return;
        }
        let mut events: Vec<Event> = Vec::new();
        let mut rr = 0usize;
        loop {
            if self.shared.stop_accept.load(Ordering::Acquire) {
                // Dropping the listeners closes them: new connects are
                // refused from this point on.
                return;
            }
            if poller.wait(&mut events, None).is_err() {
                return;
            }
            for ev in events.iter() {
                if ev.token == WAKE {
                    self.wake_reader.drain();
                    continue;
                }
                let listener = &self.listeners[ev.token];
                loop {
                    match listener.accept() {
                        Ok(stream) => {
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let shard = &self.shards[rr % self.shards.len()];
                            rr = rr.wrapping_add(1);
                            self.shared.conn_opened();
                            shard.inject.lock().unwrap().push(stream);
                            shard.waker.wake();
                        }
                        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                        // Transient per-connection accept failures
                        // (ECONNABORTED etc.): keep listening.
                        Err(_) => break,
                    }
                }
            }
        }
    }
}

const WAKE_TOKEN: usize = usize::MAX;
const READ_BURST_CAP: usize = 256 * 1024;

struct Conn {
    stream: Box<dyn NetStream>,
    fd: i32,
    reader: FrameReader,
    writer: FrameWriter,
    handler: Box<dyn Handler>,
    shared: Arc<ConnShared>,
    /// Flush queued writes, then close. Reads stop immediately.
    closing: bool,
    /// When the reader first went mid-frame (cleared on progress).
    mid_since: Option<Instant>,
    /// Interest currently registered with the poller.
    interest: Interest,
}

struct Shard {
    handle: Arc<ShardHandle>,
    shared: Arc<ReactorShared>,
    factory: HandlerFactory,
    poller: Poller,
    wake_reader: WakeReader,
    config: ReactorConfig,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Connections currently mid-frame; deadline scans only run when
    /// this is non-zero, so the steady path stays O(events).
    mid_count: usize,
}

impl Shard {
    fn new(
        handle: Arc<ShardHandle>,
        shared: Arc<ReactorShared>,
        factory: HandlerFactory,
        wake_reader: WakeReader,
        config: ReactorConfig,
    ) -> io::Result<Shard> {
        let mut poller = Poller::with_default_backend()?;
        poller.register(wake_reader.fd(), WAKE_TOKEN, Interest::READ)?;
        Ok(Shard {
            handle,
            shared,
            factory,
            poller,
            wake_reader,
            config,
            conns: Vec::new(),
            free: Vec::new(),
            mid_count: 0,
        })
    }

    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shared.hard.load(Ordering::Acquire) {
                self.hard_close_all();
                if self.shared.exit.load(Ordering::Acquire) {
                    return;
                }
            }
            let timeout = self.next_deadline_timeout();
            if self.poller.wait(&mut events, timeout).is_err() {
                self.hard_close_all();
                return;
            }
            let mut woke = false;
            let turn: Vec<Event> = events.clone();
            for ev in turn {
                if ev.token == WAKE_TOKEN {
                    woke = true;
                    continue;
                }
                self.handle_event(ev);
            }
            if woke {
                self.wake_reader.drain();
            }
            self.register_injected();
            self.process_pushes();
            self.enforce_deadlines();
        }
    }

    fn next_deadline_timeout(&self) -> Option<Duration> {
        let deadline = self.config.read_deadline;
        if self.mid_count == 0 {
            return None;
        }
        let now = Instant::now();
        let mut min: Option<Duration> = None;
        for conn in self.conns.iter().flatten() {
            if let Some(since) = conn.mid_since {
                let remain = (since + deadline).saturating_duration_since(now);
                min = Some(match min {
                    Some(m) => m.min(remain),
                    None => remain,
                });
            }
        }
        min
    }

    fn is_open(&self, token: usize) -> bool {
        self.conns.get(token).is_some_and(|slot| slot.is_some())
    }

    fn handle_event(&mut self, ev: Event) {
        let token = ev.token;
        if !self.is_open(token) {
            return; // closed earlier this turn; stale event
        }
        if (ev.readable || ev.error) && self.read_burst(token) {
            return;
        }
        if ev.writable && self.is_open(token) {
            self.flush_conn(token);
        }
    }

    /// Read everything the socket has (bounded per burst), hand the
    /// complete frames to the handler, and flush replies. Returns
    /// true when the connection was closed.
    fn read_burst(&mut self, token: usize) -> bool {
        let hard = self.shared.hard.load(Ordering::Acquire);
        let mut fatal = false;
        let mut mid_delta = 0i32;
        {
            let conn = self.conns[token].as_mut().unwrap();
            let mut eof = false;
            if !conn.closing && !hard {
                let mut buf = [0u8; 16 * 1024];
                let mut total = 0usize;
                loop {
                    match conn.stream.read(&mut buf) {
                        Ok(0) => {
                            eof = true;
                            break;
                        }
                        Ok(n) => {
                            conn.reader.extend(&buf[..n]);
                            total += n;
                            // Level-triggered: leftover readiness
                            // re-reports next turn, so capping a
                            // firehose is fair, not lossy.
                            if total >= READ_BURST_CAP {
                                break;
                            }
                        }
                        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            fatal = true;
                            break;
                        }
                    }
                }
            } else {
                // Closing or hard-stopping: ignore further input.
                eof = true;
            }

            let mut frames: Vec<Vec<u8>> = Vec::new();
            let mut bad: Option<FrameError> = None;
            loop {
                match conn.reader.next_frame() {
                    Ok(Some(f)) => frames.push(f),
                    Ok(None) => break,
                    Err(e) => {
                        bad = Some(e);
                        break;
                    }
                }
            }

            if !frames.is_empty() && !conn.closing {
                let mut cx = ConnCx {
                    writer: &mut conn.writer,
                    shared: &conn.shared,
                };
                if conn.handler.on_frames(frames, &mut cx) == Action::Close {
                    conn.closing = true;
                }
            }
            if let Some(err) = bad {
                if !conn.closing {
                    let mut cx = ConnCx {
                        writer: &mut conn.writer,
                        shared: &conn.shared,
                    };
                    conn.handler.on_bad_frame(&err, &mut cx);
                }
                conn.closing = true;
            }
            if eof {
                // Peer half-closed (or we stopped reading): flush any
                // queued replies, then close.
                conn.closing = true;
            }

            // Mid-frame bookkeeping for read deadlines.
            let mid = conn.reader.mid_frame() && !conn.closing && !fatal;
            match (conn.mid_since.is_some(), mid) {
                (false, true) => {
                    conn.mid_since = Some(Instant::now());
                    mid_delta = 1;
                }
                (true, false) => {
                    conn.mid_since = None;
                    mid_delta = -1;
                }
                // Progress within a still-incomplete frame resets the
                // stall clock.
                (true, true) => conn.mid_since = Some(Instant::now()),
                (false, false) => {}
            }
        }
        if mid_delta > 0 {
            self.mid_count += 1;
        } else if mid_delta < 0 {
            self.mid_count -= 1;
        }
        if fatal {
            self.close_conn(token);
            return true;
        }
        self.flush_conn(token)
    }

    /// Flush the writer; arm/disarm write interest; close once a
    /// draining connection empties. Returns true if closed.
    fn flush_conn(&mut self, token: usize) -> bool {
        let conn = self.conns[token].as_mut().unwrap();
        match conn.writer.flush_into(&mut conn.stream) {
            Ok(true) => {
                if conn.closing {
                    self.close_conn(token);
                    return true;
                }
                if conn.interest != Interest::READ {
                    conn.interest = Interest::READ;
                    let fd = conn.fd;
                    let _ = self.poller.reregister(fd, token, Interest::READ);
                }
                false
            }
            Ok(false) => {
                // A closing connection must not keep read interest:
                // unread input would spin the level-triggered poller.
                let want = if conn.closing {
                    Interest::WRITE
                } else {
                    Interest::BOTH
                };
                if conn.interest != want {
                    conn.interest = want;
                    let fd = conn.fd;
                    let _ = self.poller.reregister(fd, token, want);
                }
                false
            }
            Err(_) => {
                self.close_conn(token);
                true
            }
        }
    }

    fn register_injected(&mut self) {
        loop {
            let stream = {
                let mut inject = self.handle.inject.lock().unwrap();
                match inject.pop() {
                    Some(s) => s,
                    None => return,
                }
            };
            if self.shared.hard.load(Ordering::Acquire) {
                self.shared.conn_closed();
                continue;
            }
            let token = match self.free.pop() {
                Some(t) => t,
                None => {
                    self.conns.push(None);
                    self.conns.len() - 1
                }
            };
            let fd = stream.raw_fd();
            if self.poller.register(fd, token, Interest::READ).is_err() {
                self.free.push(token);
                self.shared.conn_closed();
                continue;
            }
            let shared = Arc::new(ConnShared {
                queue: Mutex::new(VecDeque::new()),
                closed: AtomicBool::new(false),
                enqueued: AtomicBool::new(false),
                token,
                shard: Arc::clone(&self.handle),
            });
            self.conns[token] = Some(Conn {
                stream,
                fd,
                reader: FrameReader::new(MAX_FRAME as usize),
                writer: FrameWriter::new(),
                handler: (self.factory)(),
                shared,
                closing: false,
                mid_since: None,
                interest: Interest::READ,
            });
            // The peer may have written before registration; the
            // level-triggered poller reports it on the next wait.
        }
    }

    fn process_pushes(&mut self) {
        let tokens: Vec<usize> = {
            let mut pending = self.handle.pending.lock().unwrap();
            std::mem::take(&mut *pending)
        };
        for token in tokens {
            let mut queued = false;
            if let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) {
                // Clear the flag before draining: a concurrent push
                // after this point re-enqueues and re-wakes.
                conn.shared.enqueued.store(false, Ordering::Release);
                loop {
                    let payload = {
                        let mut q = conn.shared.queue.lock().unwrap();
                        match q.pop_front() {
                            Some(p) => p,
                            None => break,
                        }
                    };
                    conn.writer.push_payload(&payload);
                    queued = true;
                }
            }
            if queued {
                self.flush_conn(token);
            }
        }
    }

    fn enforce_deadlines(&mut self) {
        let deadline = self.config.read_deadline;
        if self.mid_count == 0 {
            return;
        }
        let now = Instant::now();
        let expired: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(t, c)| {
                let since = c.as_ref()?.mid_since?;
                (now.saturating_duration_since(since) >= deadline).then_some(t)
            })
            .collect();
        for token in expired {
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: usize) {
        let Some(mut conn) = self.conns[token].take() else {
            return;
        };
        if conn.mid_since.is_some() {
            self.mid_count -= 1;
        }
        conn.shared.closed.store(true, Ordering::Release);
        let _ = self.poller.deregister(conn.fd);
        conn.handler.on_close();
        self.free.push(token);
        drop(conn);
        self.shared.conn_closed();
    }

    /// Hard stop: flush what we can within the budget, then close
    /// everything. Writes stop at frame boundaries whenever the
    /// budget allows the in-flight frame to complete.
    fn hard_close_all(&mut self) {
        let budget = Instant::now() + HARD_STOP_FLUSH;
        for token in 0..self.conns.len() {
            {
                let Some(conn) = self.conns[token].as_mut() else {
                    continue;
                };
                while !conn.writer.is_empty() {
                    match conn.writer.flush_into(&mut conn.stream) {
                        Ok(true) => break,
                        Ok(false) => {
                            let now = Instant::now();
                            if now >= budget {
                                break;
                            }
                            let remain_ms = (budget - now).as_millis().max(1) as i32;
                            let mut fds = [sys::PollFd {
                                fd: conn.fd,
                                events: sys::POLLOUT,
                                revents: 0,
                            }];
                            if sys::poll_fds(&mut fds, remain_ms).is_err() {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                }
            }
            self.close_conn(token);
        }
        // Connections injected but never registered still count.
        let orphans = {
            let mut inject = self.handle.inject.lock().unwrap();
            std::mem::take(&mut *inject)
        };
        for _ in orphans {
            self.shared.conn_closed();
        }
    }
}
