//! A minimal safe wrapper over Linux `epoll` + `eventfd`.
//!
//! The reactor ([`crate::reactor`]) needs exactly four kernel
//! facilities: an interest list (`epoll_ctl`), a blocking readiness
//! wait (`epoll_wait`), a way for *other* threads to interrupt that
//! wait (`eventfd`), and nonblocking sockets (std provides those). The
//! build environment has no registry access, so instead of pulling in
//! `mio` this module declares the handful of raw syscall wrappers via
//! direct FFI — they live in libc, which std already links — and keeps
//! every `unsafe` line inside the tiny [`sys`] module. Everything
//! outside it is safe Rust over owned fds.
//!
//! Readiness is **level-triggered**: an fd with unread bytes (or free
//! send-buffer space, when write interest is armed) reports ready on
//! every wait until drained. That makes the reactor's read/write loops
//! simple to prove correct — a bounded drain per event cannot lose
//! data, because leftovers re-trigger the next wait.

use std::io;
use std::os::fd::{AsRawFd, OwnedFd};
use std::time::Duration;

/// The raw FFI surface: syscall declarations plus the one-line unsafe
/// wrappers that turn their return codes into `io::Result`s. Nothing
/// else in the crate is allowed to write `unsafe`.
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::fd::{FromRawFd, OwnedFd, RawFd};

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    /// `struct epoll_event`. Packed on x86 so the layout matches the
    /// kernel ABI (the 64-bit `data` field is *not* 8-aligned there).
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy, Default)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;

    /// `struct sockaddr_in` (IPv4 only — the fabrics bind loopback).
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    pub struct SockAddrIn {
        pub sin_family: u16,
        pub sin_port: u16,
        pub sin_addr: u32,
        pub sin_zero: [u8; 8],
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut core::ffi::c_void, count: usize) -> isize;
        fn write(fd: i32, buf: *const core::ffi::c_void, count: usize) -> isize;
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const core::ffi::c_void, optlen: u32) -> i32;
        fn bind(fd: i32, addr: *const SockAddrIn, addrlen: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
    }

    /// Creates an IPv4 TCP listener bound to `(addr, port)` with
    /// `SO_REUSEADDR` set *before* the bind, so a restarted partition
    /// can rebind an address whose previous sockets linger in
    /// `TIME_WAIT`. `std::net::TcpListener::bind` offers no way to set
    /// the option pre-bind, which makes restart-in-place flaky.
    pub fn listener_reuseaddr(addr: [u8; 4], port: u16) -> io::Result<OwnedFd> {
        // SAFETY: plain syscall; a non-negative return is a fresh fd we
        // immediately take unique ownership of.
        let fd = unsafe { socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let owned = unsafe { OwnedFd::from_raw_fd(fd) };
        let one: i32 = 1;
        // SAFETY: valid pointer + exact length of the option value.
        if unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                SO_REUSEADDR,
                (&one as *const i32).cast(),
                std::mem::size_of::<i32>() as u32,
            )
        } < 0
        {
            return Err(io::Error::last_os_error());
        }
        let sa = SockAddrIn {
            sin_family: AF_INET as u16,
            sin_port: port.to_be(),
            sin_addr: u32::from_ne_bytes(addr),
            sin_zero: [0; 8],
        };
        // SAFETY: `sa` lives on the stack for the duration of the call;
        // the kernel copies it out.
        if unsafe { bind(fd, &sa, std::mem::size_of::<SockAddrIn>() as u32) } < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: plain syscall on the fd we own.
        if unsafe { listen(fd, 128) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(owned)
    }

    pub fn create_epoll() -> io::Result<OwnedFd> {
        // SAFETY: plain syscall; a non-negative return is a fresh fd we
        // immediately take unique ownership of.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(unsafe { OwnedFd::from_raw_fd(fd) })
    }

    pub fn create_eventfd() -> io::Result<OwnedFd> {
        // SAFETY: as above — fresh fd, unique ownership.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(unsafe { OwnedFd::from_raw_fd(fd) })
    }

    fn ctl(epfd: RawFd, op: i32, fd: RawFd, mut ev: Option<EpollEvent>) -> io::Result<()> {
        let ptr = ev
            .as_mut()
            .map_or(core::ptr::null_mut(), |e| e as *mut EpollEvent);
        // SAFETY: `ptr` is null (DEL) or points at a live stack value
        // for the duration of the call; the kernel copies it out.
        if unsafe { epoll_ctl(epfd, op, fd, ptr) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn ctl_add(epfd: RawFd, fd: RawFd, ev: EpollEvent) -> io::Result<()> {
        ctl(epfd, EPOLL_CTL_ADD, fd, Some(ev))
    }

    pub fn ctl_mod(epfd: RawFd, fd: RawFd, ev: EpollEvent) -> io::Result<()> {
        ctl(epfd, EPOLL_CTL_MOD, fd, Some(ev))
    }

    pub fn ctl_del(epfd: RawFd, fd: RawFd) -> io::Result<()> {
        ctl(epfd, EPOLL_CTL_DEL, fd, None)
    }

    pub fn wait(epfd: RawFd, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: the out-pointer and capacity describe `events`
        // exactly; the kernel writes at most `len` entries.
        let n = unsafe {
            epoll_wait(
                epfd,
                events.as_mut_ptr(),
                events.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(n as usize)
    }

    pub fn write_u64(fd: RawFd, v: u64) -> io::Result<()> {
        let bytes = v.to_ne_bytes();
        // SAFETY: valid pointer + length pair into a stack array.
        let n = unsafe { write(fd, bytes.as_ptr().cast(), bytes.len()) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn read_u64(fd: RawFd) -> io::Result<u64> {
        let mut bytes = [0u8; 8];
        // SAFETY: valid pointer + length pair into a stack array.
        let n = unsafe { read(fd, bytes.as_mut_ptr().cast(), bytes.len()) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(u64::from_ne_bytes(bytes))
    }
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the fd was registered under.
    pub token: u64,
    /// Bytes (or an EOF / error condition) are waiting to be read.
    /// Hangup and error states count as readable so the owner's next
    /// `read` surfaces them as `Ok(0)` / `Err` and the connection is
    /// torn down on the normal path.
    pub readable: bool,
    /// The send buffer has room (only reported while write interest is
    /// armed).
    pub writable: bool,
}

/// Reusable buffer of kernel-filled events for [`Poller::wait`].
pub struct PollEvents {
    buf: Vec<sys::EpollEvent>,
    len: usize,
}

impl PollEvents {
    /// A buffer receiving at most `cap` events per wait.
    pub fn with_capacity(cap: usize) -> PollEvents {
        PollEvents {
            buf: vec![sys::EpollEvent::default(); cap.max(1)],
            len: 0,
        }
    }

    /// The events the last [`Poller::wait`] filled in.
    pub fn iter(&self) -> impl Iterator<Item = PollEvent> + '_ {
        self.buf[..self.len].iter().map(|e| {
            // Copy out of the (possibly packed) struct before use.
            let bits = e.events;
            PollEvent {
                token: e.data,
                readable: bits
                    & (sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP)
                    != 0,
                writable: bits & sys::EPOLLOUT != 0,
            }
        })
    }
}

fn interest(token: u64, writable: bool) -> sys::EpollEvent {
    let mut events = sys::EPOLLIN | sys::EPOLLRDHUP;
    if writable {
        events |= sys::EPOLLOUT;
    }
    sys::EpollEvent {
        events,
        data: token,
    }
}

/// A level-triggered epoll instance: an interest list of fds, each
/// tagged with a caller-chosen `u64` token, and a blocking wait.
pub struct Poller {
    ep: OwnedFd,
}

impl Poller {
    /// Creates an empty interest list.
    ///
    /// # Errors
    ///
    /// The raw `epoll_create1` error (fd exhaustion, mostly).
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            ep: sys::create_epoll()?,
        })
    }

    /// Adds `fd` with read interest (always) and, if `writable`, write
    /// interest. Readiness for it is reported under `token`.
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` error (`EEXIST`, `ENOMEM`, …).
    pub fn add(&self, fd: &impl AsRawFd, token: u64, writable: bool) -> io::Result<()> {
        sys::ctl_add(self.ep.as_raw_fd(), fd.as_raw_fd(), interest(token, writable))
    }

    /// Rewrites `fd`'s interest set (used to arm and disarm write
    /// interest as a connection's send queue fills and drains).
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` error (`ENOENT` if never added, …).
    pub fn modify(&self, fd: &impl AsRawFd, token: u64, writable: bool) -> io::Result<()> {
        sys::ctl_mod(self.ep.as_raw_fd(), fd.as_raw_fd(), interest(token, writable))
    }

    /// Removes `fd` from the interest list. Closing an fd removes it
    /// implicitly; the explicit form exists for hygiene on paths that
    /// keep the fd open.
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` error.
    pub fn remove(&self, fd: &impl AsRawFd) -> io::Result<()> {
        sys::ctl_del(self.ep.as_raw_fd(), fd.as_raw_fd())
    }

    /// Blocks until at least one registered fd is ready (or `timeout`
    /// elapses, if given), filling `events`. Returns the event count;
    /// `EINTR` is swallowed and reported as zero events.
    ///
    /// # Errors
    ///
    /// The raw `epoll_wait` error, `EINTR` excepted.
    pub fn wait(&self, events: &mut PollEvents, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
        };
        events.len = 0;
        match sys::wait(self.ep.as_raw_fd(), &mut events.buf, timeout_ms) {
            Ok(n) => {
                events.len = n;
                Ok(n)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }
}

/// A cross-thread wakeup line for a [`Poller`]: an `eventfd` registered
/// like any other fd. Any thread may [`wake`](Waker::wake); the poller
/// thread sees a readable event under the waker's token and
/// [`drain`](Waker::drain)s it.
pub struct Waker {
    fd: OwnedFd,
}

impl Waker {
    /// Creates the eventfd (nonblocking, so `wake` storms cannot stall
    /// the waking thread and `drain` cannot stall the poller).
    ///
    /// # Errors
    ///
    /// The raw `eventfd` error.
    pub fn new() -> io::Result<Waker> {
        Ok(Waker {
            fd: sys::create_eventfd()?,
        })
    }

    /// Registers this waker with `poller` under `token`.
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` error.
    pub fn register(&self, poller: &Poller, token: u64) -> io::Result<()> {
        poller.add(&self.fd, token, false)
    }

    /// Nudges the poller thread. Never blocks; errors (a full counter —
    /// the wakeup is already pending) are ignored.
    pub fn wake(&self) {
        let _ = sys::write_u64(self.fd.as_raw_fd(), 1);
    }

    /// Clears the pending wakeup count so the level-triggered fd stops
    /// reporting readable. Called by the poller thread on its own token.
    pub fn drain(&self) {
        let _ = sys::read_u64(self.fd.as_raw_fd());
    }
}

/// Binds an IPv4 TCP listener with `SO_REUSEADDR` set before the bind.
///
/// A killed partition leaves its accepted sockets in `TIME_WAIT`; a
/// plain `TcpListener::bind` of the same address then fails with
/// `EADDRINUSE` for up to a minute, which would make restart-in-place
/// flaky. Std offers no pre-bind socket options without external
/// crates, so this goes through the [`sys`] FFI (`socket` →
/// `setsockopt` → `bind` → `listen`) and hands the fd to std.
///
/// # Errors
///
/// The raw error of whichever syscall failed.
pub fn bind_reusable(addr: std::net::SocketAddrV4) -> io::Result<std::net::TcpListener> {
    let fd = sys::listener_reuseaddr(addr.ip().octets(), addr.port())?;
    Ok(std::net::TcpListener::from(fd))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{SocketAddr, TcpListener, TcpStream};

    #[test]
    fn waker_wakes_a_blocking_wait() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        waker.register(&poller, 7).unwrap();

        let w = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            w.wake();
        });
        let mut events = PollEvents::with_capacity(8);
        let n = poller.wait(&mut events, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(n, 1);
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.token, 7);
        assert!(ev.readable);
        waker.drain();
        // Drained: an immediate wait times out instead of re-reporting.
        let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0);
        t.join().unwrap();
    }

    #[test]
    fn socket_readability_is_level_triggered() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut dial = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        accepted.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(&accepted, 42, false).unwrap();
        dial.write_all(b"ping").unwrap();

        let mut events = PollEvents::with_capacity(8);
        // Unread bytes keep reporting readable on every wait (LT).
        for _ in 0..2 {
            let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(n, 1);
            let ev = events.iter().next().unwrap();
            assert_eq!(ev.token, 42);
            assert!(ev.readable);
            assert!(!ev.writable);
        }
        // Arming write interest on an idle socket reports writable.
        poller.modify(&accepted, 42, true).unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().next().unwrap().writable);
        poller.remove(&accepted).unwrap();
        let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0, "removed fd must stop reporting");
    }

    #[test]
    fn reusable_bind_accepts_and_rebinds_same_port() {
        use std::net::{Ipv4Addr, SocketAddrV4};
        let first = bind_reusable(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = first.local_addr().unwrap();
        // A live connection through the bound listener works end to end.
        let mut dial = TcpStream::connect(addr).unwrap();
        let (mut accepted, _) = first.accept().unwrap();
        dial.write_all(b"hi").unwrap();
        let mut buf = [0u8; 2];
        std::io::Read::read_exact(&mut accepted, &mut buf).unwrap();
        assert_eq!(&buf, b"hi");
        // Drop the listener with the accepted conn still open (its
        // teardown leaves TIME_WAIT state behind) and rebind the exact
        // same port immediately — the whole point of SO_REUSEADDR.
        drop(first);
        let SocketAddr::V4(v4) = addr else { panic!("loopback is v4") };
        let second = bind_reusable(v4).unwrap();
        assert_eq!(second.local_addr().unwrap(), addr);
    }
}
