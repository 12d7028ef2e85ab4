//! The [`Poller`]: a thin, safe wrapper over one epoll instance.

#[cfg(target_os = "linux")]
use std::os::fd::RawFd;
#[cfg(not(target_os = "linux"))]
pub type RawFd = i32;

/// Readiness a registration subscribes to.
///
/// Connections are registered read-only while their send queue is empty;
/// the reactor flips write interest on when a partial write leaves bytes
/// queued and off again once the queue drains — the write-interest toggle
/// that turns kernel socket backpressure into reactor-visible state. A
/// connection that is only being flushed before it closes is registered
/// write-only: what its peer sends, or that it stopped sending, no longer
/// matters, and must not keep waking the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
}

/// One readiness notification.
///
/// `hangup` folds `EPOLLERR | EPOLLHUP | EPOLLRDHUP` together: every one of
/// them means the peer will send nothing more — the U1 session dies with
/// its TCP connection (§3.1.1), so the reactor does not distinguish how it
/// died. Bytes the peer sent *before* it hung up are still there to read:
/// drain the socket first, then tear down. `EPOLLRDHUP` (a half-close) is a
/// read-side condition and is only asked for together with `readable`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token supplied at registration.
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    pub hangup: bool,
}

/// A level-triggered epoll instance.
///
/// Level-triggered on purpose: the reactor may stop reading a connection
/// mid-burst (fairness, admission), and level semantics re-arm the
/// notification for free instead of requiring an exhaustive drain per wake
/// (the edge-triggered contract).
#[derive(Debug)]
pub struct Poller {
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))]
    epfd: RawFd,
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{Event, Interest, Poller};
    use crate::sys;
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::c_int;
    use std::time::Duration;

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = 0;
        if interest.readable {
            m |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if interest.writable {
            m |= sys::EPOLLOUT;
        }
        m
    }

    impl Poller {
        /// Creates a fresh epoll instance (close-on-exec).
        pub fn new() -> io::Result<Poller> {
            // SAFETY: epoll_create1 takes a flags word and returns an fd or
            // -1; no pointers are involved.
            let epfd = cvt(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = sys::EpollEvent {
                events: mask(interest),
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it before
            // returning. `fd` validity is the caller's contract (the reactor
            // registers sockets it owns).
            cvt(unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) })?;
            Ok(())
        }

        /// Registers `fd` under `token` with the given interest.
        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
        }

        /// Changes the interest of an already registered fd.
        pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
        }

        /// Removes `fd` from the instance. (Closing the fd does this too —
        /// this exists for fds that outlive their registration.)
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            let mut ev = sys::EpollEvent { events: 0, data: 0 };
            // SAFETY: as in `ctl`; pre-2.6.9 kernels required a non-null
            // event pointer for DEL, and passing one is harmless after.
            cvt(unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, &mut ev) })?;
            Ok(())
        }

        /// Waits for readiness, appending into `out`. `None` blocks
        /// indefinitely; `Some(d)` waits at most `d` (rounded up to 1ms so a
        /// nonzero timeout never busy-spins as zero). A signal interruption
        /// (`EINTR`) is reported as zero events, not an error.
        pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
            const CAPACITY: usize = 256;
            let mut buf = [sys::EpollEvent { events: 0, data: 0 }; CAPACITY];
            let timeout_ms: c_int = match timeout {
                None => -1,
                Some(d) => c_int::try_from(d.as_millis().max(1)).unwrap_or(c_int::MAX),
            };
            // SAFETY: `buf` is a valid writable array of CAPACITY events;
            // the kernel writes at most CAPACITY entries and returns the
            // count.
            let n = unsafe {
                sys::epoll_wait(self.epfd, buf.as_mut_ptr(), CAPACITY as c_int, timeout_ms)
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            let n = usize::try_from(n).unwrap_or(0);
            for ev in buf.iter().take(n) {
                let bits = ev.events;
                out.push(Event {
                    token: ev.data,
                    readable: bits & sys::EPOLLIN != 0,
                    writable: bits & sys::EPOLLOUT != 0,
                    hangup: bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                });
            }
            Ok(n)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: `epfd` is an fd this Poller exclusively owns.
            unsafe {
                sys::close(self.epfd);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::{Event, Interest, Poller};
    use std::io;
    use std::time::Duration;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "u1-net polling is only implemented on Linux",
        ))
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            unsupported()
        }
        pub fn register(&self, _fd: super::RawFd, _t: u64, _i: Interest) -> io::Result<()> {
            unsupported()
        }
        pub fn reregister(&self, _fd: super::RawFd, _t: u64, _i: Interest) -> io::Result<()> {
            unsupported()
        }
        pub fn deregister(&self, _fd: super::RawFd) -> io::Result<()> {
            unsupported()
        }
        pub fn wait(&self, _out: &mut Vec<Event>, _t: Option<Duration>) -> io::Result<usize> {
            unsupported()
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    #[test]
    fn readable_event_fires_when_bytes_arrive() {
        let poller = Poller::new().expect("poller");
        let (mut a, b) = pair();
        b.set_nonblocking(true).expect("nonblocking");
        poller
            .register(b.as_raw_fd(), 7, Interest::READ)
            .expect("register");

        let mut events = Vec::new();
        // Nothing buffered yet: a short wait returns no events.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert!(events.iter().all(|e| e.token != 7 || !e.readable));

        a.write_all(b"ping").expect("write");
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .expect("wait");
        let ev = events.iter().find(|e| e.token == 7).expect("event");
        assert!(ev.readable);
    }

    #[test]
    fn write_interest_toggles_and_hangup_is_reported() {
        let poller = Poller::new().expect("poller");
        let (a, mut b) = pair();
        b.set_nonblocking(true).expect("nonblocking");
        poller
            .register(b.as_raw_fd(), 1, Interest::READ_WRITE)
            .expect("register");
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .expect("wait");
        assert!(
            events.iter().any(|e| e.token == 1 && e.writable),
            "an idle socket is writable"
        );

        // Drop write interest; only readable/hangup can fire now.
        poller
            .reregister(b.as_raw_fd(), 1, Interest::READ)
            .expect("reregister");
        drop(a); // peer closes -> hangup
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .expect("wait");
        let ev = events.iter().find(|e| e.token == 1).expect("event");
        assert!(ev.hangup || ev.readable, "close surfaces as hangup/EOF");
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).expect("eof read"), 0);
        poller.deregister(b.as_raw_fd()).expect("deregister");
    }

    /// A half-close is news for a reader only: under write-only interest it
    /// must not fire (level-triggered, it would fire on every wait until the
    /// connection is gone).
    #[test]
    fn half_close_is_reported_to_readers_only() {
        let poller = Poller::new().expect("poller");
        let (a, b) = pair();
        poller
            .register(b.as_raw_fd(), 5, Interest::READ)
            .expect("register");
        a.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .expect("wait");
        assert!(events.iter().any(|e| e.token == 5 && e.hangup));

        poller
            .reregister(b.as_raw_fd(), 5, Interest::WRITE)
            .expect("reregister");
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .expect("wait");
        let ev = events.iter().find(|e| e.token == 5).expect("writable");
        assert!(ev.writable && !ev.hangup && !ev.readable);
    }

    #[test]
    fn level_triggered_events_rearm_until_drained() {
        let poller = Poller::new().expect("poller");
        let (mut a, b) = pair();
        b.set_nonblocking(true).expect("nonblocking");
        poller
            .register(b.as_raw_fd(), 3, Interest::READ)
            .expect("register");
        a.write_all(b"xyz").expect("write");
        for _ in 0..2 {
            // Not reading the bytes: the event must fire again (level
            // semantics), which is what lets the reactor defer work.
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .expect("wait");
            assert!(events.iter().any(|e| e.token == 3 && e.readable));
        }
    }
}
