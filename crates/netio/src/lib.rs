//! dsnet-netio — readiness-driven network I/O for dsnet-server.
//!
//! A bottom-layer crate (no dsnet dependencies) providing everything
//! the multi-tenant daemon needs to get past thread-per-connection:
//!
//! - [`sys`]: hand-rolled `poll(2)`/epoll libc bindings, in the same
//!   declare-what-you-need style as dsnet-server's `signal()` shim.
//! - [`poller`]: a backend-neutral readiness [`poller::Poller`]
//!   (portable `poll(2)`; epoll on Linux, the platform default).
//! - [`wake`]: socketpair wakers for cross-thread (and signal-safe)
//!   poller wakeups.
//! - [`frames`]: tear-free length-prefixed frame readers/writers for
//!   non-blocking sockets.
//! - [`reactor`]: the sharded [`reactor::Reactor`] — an acceptor
//!   thread plus `shards` event-loop workers multiplexing all
//!   connections, with per-connection protocol state behind the
//!   [`reactor::Handler`] trait, [`reactor::PushHandle`]s for watch
//!   streams, per-connection read deadlines, and the two-stage
//!   drain/hard-stop shutdown the daemon's tests pin down.

pub mod frames;
pub mod poller;
pub mod reactor;
pub mod sys;
pub mod wake;

pub use frames::{FrameError, FrameReader, FrameWriter, LEN_PREFIX, MAX_FRAME};
pub use poller::{Backend, Event, Interest, Poller};
pub use reactor::{
    Action, ConnCx, Handler, HandlerFactory, Listener, NetStream, PushHandle, Reactor,
    ReactorConfig,
};
pub use wake::{wake_pair, WakeReader, Waker};

#[cfg(test)]
mod reactor_tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// Echo handler: every frame comes straight back; "quit" closes.
    struct Echo;

    impl Handler for Echo {
        fn on_frames(&mut self, frames: Vec<Vec<u8>>, cx: &mut ConnCx<'_>) -> Action {
            let mut action = Action::Continue;
            for f in frames {
                if f == b"quit" {
                    action = Action::Close;
                }
                cx.send(&f);
            }
            action
        }
        fn on_bad_frame(&mut self, _err: &FrameError, cx: &mut ConnCx<'_>) {
            cx.send(b"too big");
        }
    }

    fn start_echo(shards: usize) -> (Reactor, std::net::SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reactor = Reactor::start(
            vec![Listener::Tcp(listener)],
            Arc::new(|| Box::new(Echo) as Box<dyn Handler>),
            ReactorConfig {
                shards,
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        (reactor, addr)
    }

    fn send_frame(s: &mut TcpStream, payload: &[u8]) {
        let mut buf = (payload.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(payload);
        s.write_all(&buf).unwrap();
    }

    fn read_frame(s: &mut TcpStream) -> Vec<u8> {
        let mut len = [0u8; 4];
        s.read_exact(&mut len).unwrap();
        let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
        s.read_exact(&mut payload).unwrap();
        payload
    }

    #[test]
    fn echo_roundtrip_many_conns_single_shard() {
        let (reactor, addr) = start_echo(1);
        let mut streams: Vec<TcpStream> =
            (0..16).map(|_| TcpStream::connect(addr).unwrap()).collect();
        for (i, s) in streams.iter_mut().enumerate() {
            send_frame(s, format!("hello-{i}").as_bytes());
        }
        for (i, s) in streams.iter_mut().enumerate() {
            assert_eq!(read_frame(s), format!("hello-{i}").as_bytes());
        }
        drop(streams);
        assert!(reactor.wait_idle(Duration::from_secs(5)));
        reactor.join();
    }

    #[test]
    fn pipelined_frames_echo_in_order() {
        let (reactor, addr) = start_echo(2);
        let mut s = TcpStream::connect(addr).unwrap();
        let mut blob = Vec::new();
        for i in 0..100u32 {
            let payload = format!("frame-{i}");
            blob.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            blob.extend_from_slice(payload.as_bytes());
        }
        s.write_all(&blob).unwrap();
        for i in 0..100u32 {
            assert_eq!(read_frame(&mut s), format!("frame-{i}").as_bytes());
        }
        drop(s);
        reactor.join();
    }

    #[test]
    fn action_close_flushes_reply_then_closes() {
        let (reactor, addr) = start_echo(1);
        let mut s = TcpStream::connect(addr).unwrap();
        send_frame(&mut s, b"quit");
        assert_eq!(read_frame(&mut s), b"quit");
        let mut byte = [0u8; 1];
        assert_eq!(s.read(&mut byte).unwrap(), 0, "server closes after reply");
        reactor.join();
    }

    #[test]
    fn oversized_frame_gets_reply_then_close() {
        let (reactor, addr) = start_echo(1);
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&u32::MAX.to_be_bytes()).unwrap();
        assert_eq!(read_frame(&mut s), b"too big");
        let mut byte = [0u8; 1];
        assert_eq!(s.read(&mut byte).unwrap(), 0);
        reactor.join();
    }

    #[test]
    fn drain_refuses_new_connections_but_serves_existing() {
        let (reactor, addr) = start_echo(1);
        let mut s = TcpStream::connect(addr).unwrap();
        send_frame(&mut s, b"pre-drain");
        assert_eq!(read_frame(&mut s), b"pre-drain");
        reactor.begin_drain();
        // The acceptor exits and drops the listener; a fresh connect
        // must fail once the close lands (racy by nature, so retry).
        let mut refused = false;
        for _ in 0..100 {
            match TcpStream::connect(addr) {
                Err(_) => {
                    refused = true;
                    break;
                }
                Ok(victim) => {
                    // Connected into the dead backlog: a read sees EOF
                    // or reset rather than service.
                    victim
                        .set_read_timeout(Some(Duration::from_millis(50)))
                        .unwrap();
                    drop(victim);
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        assert!(refused, "new connections must be refused after drain");
        // The pre-drain connection still echoes.
        send_frame(&mut s, b"post-drain");
        assert_eq!(read_frame(&mut s), b"post-drain");
        drop(s);
        assert!(reactor.wait_idle(Duration::from_secs(5)));
        reactor.join();
    }

    #[test]
    fn hard_stop_closes_lingering_conns() {
        let (reactor, addr) = start_echo(2);
        let mut streams: Vec<TcpStream> =
            (0..4).map(|_| TcpStream::connect(addr).unwrap()).collect();
        for s in streams.iter_mut() {
            send_frame(s, b"ping");
            assert_eq!(read_frame(s), b"ping");
        }
        assert_eq!(reactor.conn_count(), 4);
        reactor.hard_stop();
        for s in streams.iter_mut() {
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut byte = [0u8; 1];
            assert_eq!(s.read(&mut byte).unwrap_or(0), 0, "conn must be closed");
        }
        assert!(reactor.wait_idle(Duration::from_secs(5)));
        reactor.join();
    }

    /// A handler whose on_close bumps a counter — proves exactly-once
    /// close notification over churny connections.
    struct CountingClose(Arc<AtomicUsize>);

    impl Handler for CountingClose {
        fn on_frames(&mut self, frames: Vec<Vec<u8>>, cx: &mut ConnCx<'_>) -> Action {
            for f in frames {
                cx.send(&f);
            }
            Action::Continue
        }
        fn on_bad_frame(&mut self, _err: &FrameError, _cx: &mut ConnCx<'_>) {}
        fn on_close(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn on_close_fires_once_per_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let closes = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&closes);
        let reactor = Reactor::start(
            vec![Listener::Tcp(listener)],
            Arc::new(move || Box::new(CountingClose(Arc::clone(&c2))) as Box<dyn Handler>),
            ReactorConfig {
                shards: 2,
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        for i in 0..10 {
            let mut s = TcpStream::connect(addr).unwrap();
            send_frame(&mut s, format!("c{i}").as_bytes());
            assert_eq!(read_frame(&mut s), format!("c{i}").as_bytes());
        }
        assert!(reactor.wait_idle(Duration::from_secs(5)));
        reactor.join();
        assert_eq!(closes.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn read_deadline_closes_stalled_conn_while_neighbor_progresses() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reactor = Reactor::start(
            vec![Listener::Tcp(listener)],
            Arc::new(|| Box::new(Echo) as Box<dyn Handler>),
            ReactorConfig {
                shards: 1, // both conns share one event loop
                read_deadline: Duration::from_millis(200),
            },
        )
        .unwrap();
        let mut stalled = TcpStream::connect(addr).unwrap();
        let mut live = TcpStream::connect(addr).unwrap();
        // Park the first connection mid-frame: a header promising 100
        // bytes, then silence.
        stalled.write_all(&100u32.to_be_bytes()).unwrap();
        stalled.write_all(b"partial").unwrap();
        // The neighbor on the same shard keeps getting service.
        for i in 0..20 {
            send_frame(&mut live, format!("tick-{i}").as_bytes());
            assert_eq!(read_frame(&mut live), format!("tick-{i}").as_bytes());
            std::thread::sleep(Duration::from_millis(20));
        }
        // By now (400ms of ticks > 200ms deadline) the stalled conn
        // must have been closed.
        stalled
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut byte = [0u8; 1];
        assert_eq!(
            stalled.read(&mut byte).unwrap_or(0),
            0,
            "stalled conn closed"
        );
        drop(live);
        assert!(reactor.wait_idle(Duration::from_secs(5)));
        reactor.join();
    }
}
