//! Thin, vendorable `poll(2)` wrapper plus a socket-pair doorbell.
//!
//! The serve layer's reactor needs exactly three kernel facilities: a
//! readiness multiplexer, a cross-thread wakeup primitive that the
//! multiplexer can watch, and nonblocking sockets (std already provides
//! those). `poll(2)` is POSIX, so this module binds it directly against the
//! C library that `std` already links — no `libc`/`mio` dependency, so the
//! crate stays buildable in the offline vendored workspace — and the
//! doorbell is a nonblocking [`UnixStream`] pair. One binding serves every
//! unix target.
//!
//! The interest set lives in userspace: a `Vec<pollfd>` handed to the
//! kernel whole on every wait, a parallel token table, and an fd → slot
//! index, so [`Poller::modify`] is a field update with no syscall. A wait
//! costs O(registered fds), which is nothing at the few hundred
//! connections one event loop owns.
//!
//! Everything is level-triggered: the reactor re-arms nothing, it just
//! drains each readiness source until `WouldBlock`. Level-triggered
//! readiness plus drain-to-WouldBlock is the least surprising correct
//! combination — a fact the event-loop literature relearns every decade.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_short};
use std::os::unix::net::UnixStream;
use std::time::Duration;

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

// `nfds_t` is `unsigned int` on macOS and the BSDs, `unsigned long` in
// glibc and musl.
#[cfg(any(
    target_vendor = "apple",
    target_os = "freebsd",
    target_os = "openbsd",
    target_os = "netbsd",
    target_os = "dragonfly"
))]
type NfdsT = std::os::raw::c_uint;
#[cfg(not(any(
    target_vendor = "apple",
    target_os = "freebsd",
    target_os = "openbsd",
    target_os = "netbsd",
    target_os = "dragonfly"
)))]
type NfdsT = std::os::raw::c_ulong;

// the same values on every unix this crate builds for
const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;
const POLLNVAL: c_short = 0x020;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// What a registered descriptor wants to be woken for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn events(self) -> c_short {
        let mut m = 0;
        if self.readable {
            m |= POLLIN;
        }
        if self.writable {
            m |= POLLOUT;
        }
        m
    }
}

/// One readiness report: the registration token plus what fired.
/// `hangup`/`error` are delivered regardless of requested interest.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    pub hangup: bool,
    pub error: bool,
}

/// The registration table: `fds[i]` is watched under `tokens[i]`, and
/// `slot` maps each registered fd back to its `i`.
#[derive(Default)]
struct Table {
    fds: Vec<PollFd>,
    tokens: Vec<u64>,
    slot: HashMap<RawFd, usize>,
}

impl Table {
    fn find(&self, fd: RawFd) -> io::Result<usize> {
        self.slot.get(&fd).copied().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("fd {fd} is not registered"),
            )
        })
    }
}

/// A level-triggered `poll(2)` set. Tokens are caller-chosen `u64` cookies
/// echoed back verbatim in [`Event`]s. Owned by one thread (it is `Send`,
/// not `Sync`).
pub struct Poller {
    table: RefCell<Table>,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            table: RefCell::new(Table::default()),
        })
    }

    /// Watch `fd` under `token`. The fd must outlive the registration.
    pub fn register(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        let fd = fd.as_raw_fd();
        let mut t = self.table.borrow_mut();
        if t.slot.contains_key(&fd) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("fd {fd} is already registered"),
            ));
        }
        let i = t.fds.len();
        t.fds.push(PollFd {
            fd,
            events: interest.events(),
            revents: 0,
        });
        t.tokens.push(token);
        t.slot.insert(fd, i);
        Ok(())
    }

    /// Change an existing registration's token and interest set.
    pub fn modify(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut t = self.table.borrow_mut();
        let i = t.find(fd.as_raw_fd())?;
        t.fds[i].events = interest.events();
        t.tokens[i] = token;
        Ok(())
    }

    /// Stop watching `fd`. Must happen before the fd closes: a closed fd
    /// left in the set reports `POLLNVAL` on every wait.
    pub fn deregister(&self, fd: &impl AsRawFd) -> io::Result<()> {
        let fd = fd.as_raw_fd();
        let mut t = self.table.borrow_mut();
        let i = t.find(fd)?;
        t.slot.remove(&fd);
        t.fds.swap_remove(i);
        t.tokens.swap_remove(i);
        // the former last entry now lives at `i`
        if let Some(moved) = t.fds.get(i).map(|p| p.fd) {
            t.slot.insert(moved, i);
        }
        Ok(())
    }

    /// Block until at least one event, `timeout` elapses (`None` = forever),
    /// or a signal. Fills `events` and returns how many fired (0 = timeout).
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        // round sub-millisecond remainders up to 1 ms so a deadline of
        // "200 µs from now" sleeps instead of busy-spinning at timeout 0
        let timeout_ms: c_int = match timeout {
            Some(t) if t.is_zero() => 0,
            Some(t) => (t.as_millis().max(1)).min(c_int::MAX as u128) as c_int,
            None => -1,
        };
        let mut t = self.table.borrow_mut();
        loop {
            // SAFETY: `t.fds` is an exclusively borrowed Vec of `len()`
            // initialized `pollfd`s with the C layout; poll(2) reads them
            // and writes only their `revents` fields.
            let n = unsafe { poll(t.fds.as_mut_ptr(), t.fds.len() as NfdsT, timeout_ms) };
            if n >= 0 {
                break;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        for (p, &token) in t.fds.iter().zip(&t.tokens) {
            let bits = p.revents;
            if bits != 0 {
                events.push(Event {
                    token,
                    readable: bits & POLLIN != 0,
                    writable: bits & POLLOUT != 0,
                    hangup: bits & POLLHUP != 0,
                    error: bits & (POLLERR | POLLNVAL) != 0,
                });
            }
        }
        Ok(events.len())
    }
}

/// A nonblocking doorbell: the reactor's cross-thread wakeup. Worker
/// threads [`EventFd::notify`]; the owning reactor registers it readable and
/// [`EventFd::drain`]s on wakeup. Built on a [`UnixStream`] pair: a notify
/// writes one byte, a drain reads them all, so notifications coalesce —
/// exactly the semantics a completion-queue doorbell wants.
pub struct EventFd {
    rx: UnixStream,
    tx: UnixStream,
}

impl EventFd {
    pub fn new() -> io::Result<EventFd> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(EventFd { rx, tx })
    }

    /// Ring the doorbell. Never blocks: a full socket buffer means the
    /// reactor already has a wakeup pending.
    pub fn notify(&self) -> io::Result<()> {
        loop {
            match (&self.tx).write(&[1]) {
                Ok(_) => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Consume all pending notifications; returns whether any were pending.
    pub fn drain(&self) -> io::Result<bool> {
        let mut buf = [0u8; 256];
        let mut any = false;
        loop {
            match (&self.rx).read(&mut buf) {
                Ok(0) => return Ok(any),
                Ok(_) => any = true,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(any),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl AsRawFd for EventFd {
    fn as_raw_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn eventfd_wakes_poller_and_coalesces() {
        let poller = Poller::new().unwrap();
        let efd = EventFd::new().unwrap();
        poller.register(&efd, 7, Interest::READABLE).unwrap();

        let mut events = Vec::new();
        // nothing pending: a short wait times out
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .unwrap();
        assert_eq!(n, 0);

        efd.notify().unwrap();
        efd.notify().unwrap(); // coalesces with the first
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        assert!(efd.drain().unwrap());
        assert!(!efd.drain().unwrap(), "drain consumed both notifies");
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .unwrap();
        assert_eq!(n, 0, "level-triggered readiness cleared by drain");
    }

    #[test]
    fn socket_readiness_is_level_triggered() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.register(&server, 42, Interest::BOTH).unwrap();

        let mut events = Vec::new();
        // an idle connected socket is writable but not readable
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 42).unwrap();
        assert!(ev.writable && !ev.readable);

        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        // level-triggered: readable stays asserted until the bytes are read
        for _ in 0..2 {
            poller
                .wait(&mut events, Some(Duration::from_secs(2)))
                .unwrap();
            let ev = events.iter().find(|e| e.token == 42).unwrap();
            assert!(ev.readable);
        }

        poller.deregister(&server).unwrap();
        client.write_all(b"more").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "deregistered fd no longer reports");
    }

    #[test]
    fn hangup_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.register(&server, 1, Interest::READABLE).unwrap();
        drop(client);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 1).unwrap();
        assert!(ev.hangup || ev.readable, "peer close surfaces as readable");
    }

    /// The tokens of every event one wait reports, sorted.
    fn fired(poller: &Poller) -> Vec<u64> {
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(200)))
            .unwrap();
        let mut tokens: Vec<u64> = events.iter().map(|e| e.token).collect();
        tokens.sort_unstable();
        tokens
    }

    // deregistering from the middle swap-removes the last entry into the
    // hole: its token and fd index must move with it
    #[test]
    fn deregistering_the_middle_registration_keeps_tokens_straight() {
        let pairs: Vec<(UnixStream, UnixStream)> =
            (0..3).map(|_| UnixStream::pair().unwrap()).collect();
        let poller = Poller::new().unwrap();
        for (i, (watched, _)) in pairs.iter().enumerate() {
            poller
                .register(watched, 10 + i as u64, Interest::READABLE)
                .unwrap();
        }
        for pair in &pairs {
            let mut peer = &pair.1;
            peer.write_all(b"x").unwrap();
        }
        assert_eq!(fired(&poller), vec![10, 11, 12]);

        poller.deregister(&pairs[1].0).unwrap();
        assert_eq!(fired(&poller), vec![10, 12], "the middle is gone");
        assert!(
            poller.deregister(&pairs[1].0).is_err(),
            "a second deregister finds nothing"
        );

        // the moved registration (fd of pair 2) is still addressable
        poller.modify(&pairs[2].0, 22, Interest::READABLE).unwrap();
        assert_eq!(fired(&poller), vec![10, 22]);
        poller.deregister(&pairs[2].0).unwrap();
        assert_eq!(fired(&poller), vec![10]);

        // the freed fd can come back under a fresh token
        poller
            .register(&pairs[1].0, 31, Interest::READABLE)
            .unwrap();
        assert_eq!(fired(&poller), vec![10, 31]);
        assert!(
            poller
                .register(&pairs[1].0, 32, Interest::READABLE)
                .is_err(),
            "double registration is refused"
        );
    }

    // a backpressure-paused connection is registered write-only with its
    // send path full; its peer's close must still surface
    #[test]
    fn write_only_registration_reports_peer_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        // fill the send path: the client never reads
        let chunk = [0u8; 64 * 1024];
        for _ in 0..4096 {
            match (&server).write(&chunk) {
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("write: {e}"),
            }
        }
        let poller = Poller::new().unwrap();
        poller.register(&server, 5, Interest::WRITABLE).unwrap();

        // closing with unread bytes resets the connection
        drop(client);
        let t0 = Instant::now();
        let mut events = Vec::new();
        loop {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "peer close never reported on a write-only registration"
            );
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token == 5 && (e.hangup || e.error)) {
                break;
            }
        }
    }
}
