//! The multi-tenant session host: named, fully isolated [`NetSession`]s
//! behind a capacity limit and a drain flag.
//!
//! The host is the transport-independent core of the daemon — the TCP and
//! unix listeners both dispatch into it, and tests drive it directly.
//! Each session lives in its own slot with its own lock, so commands to
//! different tenants execute concurrently; the outer map lock is held
//! only for lookup/insert/remove.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use dsnet::protocols::knowledge::NetKnowledge;
use dsnet::session::{render_record, render_stream};
use dsnet::{CommandRecord, NetSession, SessionCommand, SessionSpec};

use crate::protocol::ErrKind;

/// A typed host-level failure (maps 1:1 onto wire error kinds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostError {
    /// Classification (also the wire label).
    pub kind: ErrKind,
    /// Deterministic detail text.
    pub detail: String,
}

impl HostError {
    fn new(kind: ErrKind, detail: impl Into<String>) -> Self {
        Self {
            kind,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.label(), self.detail)
    }
}

impl std::error::Error for HostError {}

/// Host capacity configuration.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Maximum concurrently live sessions; creates past this answer
    /// [`ErrKind::Busy`].
    pub max_sessions: usize,
}

impl Default for HostConfig {
    fn default() -> Self {
        Self { max_sessions: 1024 }
    }
}

/// One trace subscriber: a callback invoked inline (the reactor pushes
/// the rendered line straight into a connection's write queue). It
/// returns false once the subscriber is gone.
type Watcher = Box<dyn FnMut(&str) -> bool + Send>;

/// One tenant slot: the session plus its trace subscribers.
struct SessionSlot {
    session: RwLock<NetSession>,
    /// Watchers receive each applied record rendered as a deterministic
    /// event line. A delivery failure means the subscriber hung up; it
    /// is dropped on the next push.
    watchers: Mutex<Vec<Watcher>>,
}

/// The multi-tenant host. Cheap to clone via [`Arc`]; all methods take
/// `&self`.
pub struct Host {
    cfg: HostConfig,
    draining: AtomicBool,
    sessions: RwLock<BTreeMap<String, Arc<SessionSlot>>>,
}

impl Host {
    /// Create an empty host.
    pub fn new(cfg: HostConfig) -> Self {
        Self {
            cfg,
            draining: AtomicBool::new(false),
            sessions: RwLock::new(BTreeMap::new()),
        }
    }

    /// Flip the host into draining mode: every subsequent create or
    /// command answers [`ErrKind::ShuttingDown`]; in-flight commands
    /// finish normally (they hold their slot lock until done).
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether the host is draining.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.read().expect("sessions lock").len()
    }

    /// Configured capacity.
    pub fn max_sessions(&self) -> usize {
        self.cfg.max_sessions
    }

    fn slot(&self, name: &str) -> Result<Arc<SessionSlot>, HostError> {
        self.sessions
            .read()
            .expect("sessions lock")
            .get(name)
            .cloned()
            .ok_or_else(|| HostError::new(ErrKind::UnknownSession, format!("no session '{name}'")))
    }

    fn reject_if_draining(&self) -> Result<(), HostError> {
        if self.is_draining() {
            Err(HostError::new(
                ErrKind::ShuttingDown,
                "host is draining; no new work accepted",
            ))
        } else {
            Ok(())
        }
    }

    /// Create a session. Fails with [`ErrKind::Busy`] at capacity,
    /// [`ErrKind::DuplicateSession`] on a name clash, and
    /// [`ErrKind::ShuttingDown`] while draining.
    pub fn create(&self, name: &str, spec: SessionSpec) -> Result<(), HostError> {
        self.reject_if_draining()?;
        if name.is_empty() {
            return Err(HostError::new(
                ErrKind::MalformedFrame,
                "session name must be non-empty",
            ));
        }
        // Build the network outside the map lock — construction is the
        // expensive part and must not serialize unrelated tenants.
        // Capacity is re-checked under the write lock, so a burst of
        // concurrent creates can overshoot only transiently, never in
        // the committed map.
        {
            let sessions = self.sessions.read().expect("sessions lock");
            if sessions.len() >= self.cfg.max_sessions {
                return Err(HostError::new(
                    ErrKind::Busy,
                    format!("session limit {} reached", self.cfg.max_sessions),
                ));
            }
            if sessions.contains_key(name) {
                return Err(HostError::new(
                    ErrKind::DuplicateSession,
                    format!("session '{name}' already exists"),
                ));
            }
        }
        let session = NetSession::new(spec)
            .map_err(|e| HostError::new(ErrKind::CommandRejected, format!("build failed: {e}")))?;
        let slot = Arc::new(SessionSlot {
            session: RwLock::new(session),
            watchers: Mutex::new(Vec::new()),
        });
        let mut sessions = self.sessions.write().expect("sessions lock");
        if sessions.len() >= self.cfg.max_sessions {
            return Err(HostError::new(
                ErrKind::Busy,
                format!("session limit {} reached", self.cfg.max_sessions),
            ));
        }
        if sessions.contains_key(name) {
            return Err(HostError::new(
                ErrKind::DuplicateSession,
                format!("session '{name}' already exists"),
            ));
        }
        sessions.insert(name.to_string(), slot);
        Ok(())
    }

    /// Destroy a session, dropping its network and disconnecting its
    /// watchers. Allowed while draining (it frees capacity).
    pub fn destroy(&self, name: &str) -> Result<(), HostError> {
        self.sessions
            .write()
            .expect("sessions lock")
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| HostError::new(ErrKind::UnknownSession, format!("no session '{name}'")))
    }

    /// Apply one command to a session and return its record. Watchers
    /// receive the record as a deterministic event line, pushed after the
    /// session lock is released. The drain flag is checked again once the
    /// lock is held, so a command that waited behind an in-flight one
    /// while the drain began answers `shutting_down`.
    pub fn apply(&self, name: &str, cmd: &SessionCommand) -> Result<CommandRecord, HostError> {
        // Draining answers shutting_down even for a session that doesn't
        // exist.
        self.reject_if_draining()?;
        let slot = self.slot(name)?;
        let record = {
            let mut session = slot.session.write().expect("session lock");
            self.reject_if_draining()?;
            session.apply(cmd)
        };
        let line = render_record(&record, false);
        slot.watchers
            .lock()
            .expect("watchers lock")
            .retain_mut(|w| w(&line));
        Ok(record)
    }

    /// Render a session's full deterministic event stream (the
    /// byte-identical server-vs-library contract surface).
    pub fn stream(&self, name: &str) -> Result<String, HostError> {
        let slot = self.slot(name)?;
        let session = slot.session.read().expect("session lock");
        Ok(render_stream(session.spec(), session.records(), false))
    }

    /// Subscribe to a session's trace with an inline callback: `sink`
    /// receives one deterministic event line per subsequently applied
    /// command, until the session is destroyed. It runs under the slot's
    /// watcher lock, after the session lock is released — keep it
    /// cheap and non-blocking (e.g. a [`dsnet_netio::PushHandle`]
    /// enqueue). Returning false unsubscribes.
    pub fn watch_fn(
        &self,
        name: &str,
        sink: impl FnMut(&str) -> bool + Send + 'static,
    ) -> Result<(), HostError> {
        let slot = self.slot(name)?;
        slot.watchers
            .lock()
            .expect("watchers lock")
            .push(Box::new(sink));
        Ok(())
    }

    /// Pin a session's current immutable knowledge snapshot: the
    /// structure version it was built at plus the shared
    /// [`Arc<NetKnowledge>`]. The snapshot never mutates — commands that
    /// change the structure bump the version and publish a *new* `Arc`
    /// (the PR 4 pessimistic-bump contract), so a reader can keep using
    /// a pinned snapshot consistently for as long as it holds the `Arc`.
    pub fn knowledge(&self, name: &str) -> Result<(u64, Arc<NetKnowledge>), HostError> {
        let slot = self.slot(name)?;
        let session = slot.session.read().expect("session lock");
        let net = session.network();
        Ok((net.structure_version(), net.knowledge()))
    }

    /// Read a session's current versioned knowledge snapshot without
    /// recording a command. Takes only the slot's read lock, so peeks
    /// run concurrently with each other (and pin whatever immutable
    /// `Arc<NetKnowledge>` version is current).
    pub fn peek(&self, name: &str) -> Result<PeekReport, HostError> {
        let slot = self.slot(name)?;
        let session = slot.session.read().expect("session lock");
        let net = session.network();
        let k = net.knowledge();
        let (hits, misses, patched) = net.knowledge_stats();
        Ok(PeekReport {
            version: net.structure_version(),
            nodes: k.nodes as u64,
            backbone: k.backbone_size as u64,
            height: u64::from(k.height),
            commands: session.records().len() as u64,
            cache_hits: hits,
            cache_misses: misses,
            cache_patched: patched,
        })
    }
}

/// A read-only structure summary served from the knowledge cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeekReport {
    /// Current structure version.
    pub version: u64,
    /// Live node count in the knowledge snapshot.
    pub nodes: u64,
    /// Backbone size.
    pub backbone: u64,
    /// BT height.
    pub height: u64,
    /// Commands recorded so far.
    pub commands: u64,
    /// Knowledge-cache hits.
    pub cache_hits: u64,
    /// Knowledge-cache misses.
    pub cache_misses: u64,
    /// Misses served by the dirty-scoped patch path (subset of misses).
    pub cache_patched: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsnet::Protocol;
    use std::sync::mpsc;

    fn small_spec(seed: u64) -> SessionSpec {
        SessionSpec {
            nodes: 24,
            seed,
            ..SessionSpec::default()
        }
    }

    fn bcast() -> SessionCommand {
        SessionCommand::Broadcast {
            protocol: Protocol::ImprovedCff,
            source: None,
            channels: 1,
            loss_ppm: 0,
            retries: 0,
            min_delivery_ppm: 0,
        }
    }

    #[test]
    fn create_apply_stream_destroy() {
        let host = Host::new(HostConfig::default());
        host.create("a", small_spec(7)).unwrap();
        let rec = host.apply("a", &bcast()).unwrap();
        assert!(rec.status.is_applied());
        let stream = host.stream("a").unwrap();
        assert_eq!(stream.lines().count(), 2, "{stream}");
        host.destroy("a").unwrap();
        assert_eq!(host.stream("a").unwrap_err().kind, ErrKind::UnknownSession);
    }

    #[test]
    fn sessions_are_isolated() {
        let host = Host::new(HostConfig::default());
        host.create("a", small_spec(7)).unwrap();
        host.create("b", small_spec(8)).unwrap();
        host.apply("a", &SessionCommand::Kill { node: 1 }).unwrap();
        let a = host.stream("a").unwrap();
        let b = host.stream("b").unwrap();
        assert_eq!(a.lines().count(), 2);
        assert_eq!(b.lines().count(), 1, "tenant b saw tenant a's command");
    }

    #[test]
    fn capacity_limit_answers_busy() {
        let host = Host::new(HostConfig { max_sessions: 2 });
        host.create("a", small_spec(1)).unwrap();
        host.create("b", small_spec(2)).unwrap();
        let err = host.create("c", small_spec(3)).unwrap_err();
        assert_eq!(err.kind, ErrKind::Busy);
        // Destroy frees capacity.
        host.destroy("a").unwrap();
        host.create("c", small_spec(3)).unwrap();
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let host = Host::new(HostConfig::default());
        host.create("a", small_spec(1)).unwrap();
        let err = host.create("a", small_spec(2)).unwrap_err();
        assert_eq!(err.kind, ErrKind::DuplicateSession);
    }

    #[test]
    fn draining_refuses_new_work_but_serves_reads() {
        let host = Host::new(HostConfig::default());
        host.create("a", small_spec(7)).unwrap();
        host.apply("a", &bcast()).unwrap();
        host.begin_drain();
        assert_eq!(
            host.create("b", small_spec(8)).unwrap_err().kind,
            ErrKind::ShuttingDown
        );
        assert_eq!(
            host.apply("a", &bcast()).unwrap_err().kind,
            ErrKind::ShuttingDown
        );
        // Reads and destroys still work so clients can collect results.
        assert!(host.stream("a").is_ok());
        assert!(host.peek("a").is_ok());
        host.destroy("a").unwrap();
    }

    /// Subscribe a watcher that forwards every line into a channel.
    fn watch_channel(host: &Host, name: &str) -> mpsc::Receiver<String> {
        let (tx, rx) = mpsc::channel();
        host.watch_fn(name, move |line| tx.send(line.to_string()).is_ok())
            .unwrap();
        rx
    }

    #[test]
    fn watchers_see_subsequent_records() {
        let host = Host::new(HostConfig::default());
        host.create("a", small_spec(7)).unwrap();
        host.apply("a", &SessionCommand::Snapshot).unwrap();
        let rx = watch_channel(&host, "a");
        host.apply("a", &SessionCommand::Kill { node: 1 }).unwrap();
        host.apply("a", &SessionCommand::Snapshot).unwrap();
        let first = rx.recv().unwrap();
        let second = rx.recv().unwrap();
        assert!(first.contains("\"cmd\": \"kill\""), "{first}");
        assert!(second.contains("\"cmd\": \"snapshot\""), "{second}");
        // The pre-subscription snapshot was not replayed.
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn apply_answers_draining_before_unknown_session() {
        let host = Host::new(HostConfig::default());
        assert_eq!(
            host.apply("ghost", &bcast()).unwrap_err().kind,
            ErrKind::UnknownSession
        );
        host.begin_drain();
        assert_eq!(
            host.apply("ghost", &bcast()).unwrap_err().kind,
            ErrKind::ShuttingDown,
            "draining outranks unknown-session"
        );
    }

    #[test]
    fn callback_watchers_deliver_and_unsubscribe() {
        use std::sync::atomic::AtomicUsize;
        let host = Host::new(HostConfig::default());
        host.create("s", small_spec(7)).unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let budget = Arc::new(AtomicUsize::new(2));
        let b = Arc::clone(&budget);
        host.watch_fn("s", move |line| {
            sink.lock().unwrap().push(line.to_string());
            b.fetch_sub(1, Ordering::SeqCst) > 1
        })
        .unwrap();
        host.apply("s", &SessionCommand::Kill { node: 1 }).unwrap();
        host.apply("s", &SessionCommand::Snapshot).unwrap();
        // Third apply: the callback unsubscribed after the second line.
        host.apply("s", &SessionCommand::Revive { node: 1 })
            .unwrap();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 2, "{seen:?}");
        assert!(seen[0].contains("\"cmd\": \"kill\""));
        assert!(seen[1].contains("\"cmd\": \"snapshot\""));
        assert_eq!(
            host.watch_fn("ghost", |_| true).unwrap_err().kind,
            ErrKind::UnknownSession
        );
    }

    #[test]
    fn peek_reports_versions_without_recording() {
        let host = Host::new(HostConfig::default());
        host.create("a", small_spec(7)).unwrap();
        let before = host.peek("a").unwrap();
        host.apply("a", &SessionCommand::MoveOut { node: 1 })
            .unwrap();
        let after = host.peek("a").unwrap();
        assert!(after.version > before.version, "{before:?} -> {after:?}");
        assert_eq!(after.commands, 1);
        assert_eq!(
            host.stream("a").unwrap().lines().count(),
            2,
            "peek must not append records"
        );
    }
}
