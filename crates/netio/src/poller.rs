//! Backend-neutral readiness poller.
//!
//! A [`Poller`] tracks `(fd, token, interest)` registrations and
//! reports readiness as [`Event`]s. Two backends share the facade: a
//! portable `poll(2)` backend (the registration map is flattened into
//! a `pollfd` array per wait) and, on Linux, an epoll backend (tokens
//! ride in `epoll_event.data`). The backend follows the platform:
//! epoll on Linux, `poll(2)` everywhere else.

use std::io;

use crate::sys;

/// Readiness interest for one descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness report. `error` covers ERR/HUP/NVAL — the owner
/// should read to EOF and close.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub token: usize,
    pub readable: bool,
    pub writable: bool,
    pub error: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Poll,
    #[cfg(target_os = "linux")]
    Epoll,
}

impl Backend {
    /// The platform's backend: epoll on Linux, `poll(2)` elsewhere.
    pub fn default_for_platform() -> Backend {
        #[cfg(target_os = "linux")]
        {
            Backend::Epoll
        }
        #[cfg(not(target_os = "linux"))]
        {
            Backend::Poll
        }
    }
}

enum Impl {
    Poll {
        /// (fd, token, interest); order is stable so the pollfd array
        /// lines up index-for-index on each wait.
        regs: Vec<(i32, usize, Interest)>,
        fds: Vec<sys::PollFd>,
    },
    #[cfg(target_os = "linux")]
    Epoll {
        ep: sys::EpollFd,
        buf: Vec<sys::EpollEvent>,
        len: usize,
    },
}

pub struct Poller {
    imp: Impl,
}

fn timeout_ms(timeout: Option<std::time::Duration>) -> i32 {
    match timeout {
        // Round up so a sub-millisecond deadline doesn't busy-spin at 0.
        Some(d) => {
            let mut ms = d.as_millis();
            if d.as_nanos() % 1_000_000 != 0 {
                ms += 1;
            }
            ms.min(i32::MAX as u128) as i32
        }
        None => -1,
    }
}

impl Poller {
    pub fn new(backend: Backend) -> io::Result<Poller> {
        let imp = match backend {
            Backend::Poll => Impl::Poll {
                regs: Vec::new(),
                fds: Vec::new(),
            },
            #[cfg(target_os = "linux")]
            Backend::Epoll => Impl::Epoll {
                ep: sys::EpollFd::create()?,
                buf: vec![sys::EpollEvent { events: 0, data: 0 }; 256],
                len: 0,
            },
        };
        Ok(Poller { imp })
    }

    pub fn with_default_backend() -> io::Result<Poller> {
        Poller::new(Backend::default_for_platform())
    }

    pub fn register(&mut self, fd: i32, token: usize, interest: Interest) -> io::Result<()> {
        match &mut self.imp {
            Impl::Poll { regs, .. } => {
                debug_assert!(regs.iter().all(|&(f, _, _)| f != fd));
                regs.push((fd, token, interest));
                Ok(())
            }
            #[cfg(target_os = "linux")]
            Impl::Epoll { ep, len, .. } => {
                ep.ctl(sys::EPOLL_CTL_ADD, fd, epoll_mask(interest), token as u64)?;
                *len += 1;
                Ok(())
            }
        }
    }

    pub fn reregister(&mut self, fd: i32, token: usize, interest: Interest) -> io::Result<()> {
        match &mut self.imp {
            Impl::Poll { regs, .. } => {
                for reg in regs.iter_mut() {
                    if reg.0 == fd {
                        reg.1 = token;
                        reg.2 = interest;
                        return Ok(());
                    }
                }
                Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
            }
            #[cfg(target_os = "linux")]
            Impl::Epoll { ep, .. } => {
                ep.ctl(sys::EPOLL_CTL_MOD, fd, epoll_mask(interest), token as u64)
            }
        }
    }

    pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
        match &mut self.imp {
            Impl::Poll { regs, .. } => {
                regs.retain(|&(f, _, _)| f != fd);
                Ok(())
            }
            #[cfg(target_os = "linux")]
            Impl::Epoll { ep, len, .. } => {
                ep.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)?;
                *len = len.saturating_sub(1);
                Ok(())
            }
        }
    }

    /// Wait for readiness, appending to `events` (cleared first).
    /// `None` blocks until an event arrives.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<std::time::Duration>,
    ) -> io::Result<usize> {
        events.clear();
        let ms = timeout_ms(timeout);
        match &mut self.imp {
            Impl::Poll { regs, fds } => {
                fds.clear();
                fds.extend(regs.iter().map(|&(fd, _, interest)| sys::PollFd {
                    fd,
                    events: poll_mask(interest),
                    revents: 0,
                }));
                let n = sys::poll_fds(fds, ms)?;
                if n > 0 {
                    for (i, pfd) in fds.iter().enumerate() {
                        if pfd.revents == 0 {
                            continue;
                        }
                        events.push(Event {
                            token: regs[i].1,
                            readable: pfd.revents & sys::POLLIN != 0,
                            writable: pfd.revents & sys::POLLOUT != 0,
                            error: pfd.revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0,
                        });
                    }
                }
                Ok(events.len())
            }
            #[cfg(target_os = "linux")]
            Impl::Epoll { ep, buf, len } => {
                if buf.len() < (*len).max(8) {
                    buf.resize((*len).max(8), sys::EpollEvent { events: 0, data: 0 });
                }
                let n = ep.wait(buf, ms)?;
                for ev in &buf[..n] {
                    let bits = ev.events;
                    events.push(Event {
                        token: ev.data as usize,
                        readable: bits & sys::EPOLLIN != 0,
                        writable: bits & sys::EPOLLOUT != 0,
                        error: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
                    });
                }
                Ok(n)
            }
        }
    }
}

fn poll_mask(interest: Interest) -> i16 {
    let mut m = 0;
    if interest.readable {
        m |= sys::POLLIN;
    }
    if interest.writable {
        m |= sys::POLLOUT;
    }
    m
}

#[cfg(target_os = "linux")]
fn epoll_mask(interest: Interest) -> u32 {
    let mut m = 0;
    if interest.readable {
        m |= sys::EPOLLIN;
    }
    if interest.writable {
        m |= sys::EPOLLOUT;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wake::wake_pair;
    use std::time::Duration;

    /// Every backend this platform builds reports a wakeup with its
    /// token, and reports nothing once the pipe is drained.
    #[test]
    fn every_backend_reports_a_wakeup() {
        let mut backends = vec![Backend::Poll];
        #[cfg(target_os = "linux")]
        backends.push(Backend::Epoll);
        for backend in backends {
            let (waker, mut reader) = wake_pair().unwrap();
            let mut poller = Poller::new(backend).unwrap();
            poller.register(reader.fd(), 3, Interest::READ).unwrap();
            let mut events = Vec::new();
            waker.wake();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(events.len(), 1, "{backend:?}");
            assert_eq!(events[0].token, 3, "{backend:?}");
            assert!(events[0].readable, "{backend:?}");
            reader.drain();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{backend:?}: drained");
        }
    }
}
