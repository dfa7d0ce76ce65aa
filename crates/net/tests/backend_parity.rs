//! Backend parity: the io_uring reactor must be observably identical
//! to the epoll reactor — same frames, same burst boundaries, same
//! outbox overflow semantics, same close delivery — plus the graceful
//! fallback the builder knob promises when detection fails.
//!
//! Every test in this file holds [`serial`]: the forced-unavailability
//! test flips a process-global probe override, which must not race the
//! parity tests that create real uring reactors.

use bytes::Bytes;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};
use wren_net::{
    Backend, ConnHandle, FramedReader, Reactor, ReactorHandler, ReactorOptions,
};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// True when the kernel really supports everything the uring backend
/// submits; tests over `Backend::Uring` skip (loudly) otherwise.
fn uring_or_skip(test: &str) -> bool {
    if wren_net::uring::available() {
        true
    } else {
        eprintln!("SKIP {test}: io_uring unavailable on this kernel/container");
        false
    }
}

fn reframe(payload: &[u8]) -> Bytes {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    Bytes::from(out)
}

/// Echoes every frame and counts closes, so tests can assert the
/// `on_close` exactly-once contract across backends.
struct Echo {
    closes: AtomicUsize,
}

impl ReactorHandler for Echo {
    type Conn = ();
    fn on_accept(&self, _ctx: u64, _handle: &ConnHandle) -> Option<()> {
        Some(())
    }
    fn on_frame(&self, _c: &mut (), handle: &ConnHandle, payload: Bytes) -> bool {
        handle.enqueue(reframe(&payload))
    }
    fn on_close(&self, _c: &mut (), _handle: &ConnHandle) {
        self.closes.fetch_add(1, Ordering::SeqCst);
    }
}

fn echo_reactor(backend: Backend, threads: usize) -> Reactor<Echo> {
    let reactor = Reactor::with_options(
        threads,
        Echo {
            closes: AtomicUsize::new(0),
        },
        ReactorOptions {
            backend,
            ..ReactorOptions::default()
        },
    )
    .unwrap();
    assert_eq!(reactor.backend(), backend, "requested backend must hold");
    reactor
}

fn start_echo(
    backend: Backend,
    threads: usize,
    conn_cap: usize,
) -> (Reactor<Echo>, std::net::SocketAddr) {
    let reactor = echo_reactor(backend, threads);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    reactor.add_listener(listener, 0, conn_cap).unwrap();
    (reactor, addr)
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
            Err(e) => panic!("connect: {e}"),
        }
    }
}

/// The scripted echo workload both backends must answer identically:
/// several connections, several rounds, mixed payload sizes (including
/// one larger than the 16 KiB recv buffer, so uring's mid-frame
/// reassembly across provided buffers is exercised).
fn scripted_echo(backend: Backend) -> Vec<Vec<u8>> {
    let (reactor, addr) = start_echo(backend, 2, 64 * 1024 * 1024);
    let mut clients: Vec<(TcpStream, FramedReader)> = (0..6)
        .map(|_| {
            let s = connect(addr);
            let r = FramedReader::new(s.try_clone().unwrap());
            (s, r)
        })
        .collect();
    let sizes = [1usize, 17, 4096, 40_000];
    let mut echoed = Vec::new();
    for round in 0..3u8 {
        for (i, (w, _)) in clients.iter_mut().enumerate() {
            for (j, &n) in sizes.iter().enumerate() {
                let payload = vec![round ^ (i as u8) ^ (j as u8).wrapping_mul(37); n];
                w.write_all(&reframe(&payload)).unwrap();
            }
        }
        for (_, r) in clients.iter_mut() {
            for _ in &sizes {
                echoed.push(r.next_frame().unwrap().expect("echo").to_vec());
            }
        }
    }
    drop(clients);
    reactor.shutdown();
    reactor.join();
    echoed
}

#[test]
fn scripted_echo_identical_across_backends() {
    let _g = serial();
    let epoll = scripted_echo(Backend::Epoll);
    if !uring_or_skip("scripted_echo_identical_across_backends") {
        return;
    }
    let uring = scripted_echo(Backend::Uring);
    assert_eq!(epoll, uring, "byte-identical echo across backends");
}

#[test]
fn uring_dribbled_bytes_reassemble() {
    let _g = serial();
    if !uring_or_skip("uring_dribbled_bytes_reassemble") {
        return;
    }
    let (reactor, addr) = start_echo(Backend::Uring, 1, 1024 * 1024);
    let mut w = connect(addr);
    let mut r = FramedReader::new(w.try_clone().unwrap());
    let payload = vec![0xA5u8; 300];
    let framed = reframe(&payload);
    // One byte per write: every frame boundary lands mid-recv.
    for b in framed.iter() {
        w.write_all(&[*b]).unwrap();
        std::thread::sleep(Duration::from_micros(200));
    }
    assert_eq!(r.next_frame().unwrap().expect("frame").as_ref(), &payload[..]);
    reactor.shutdown();
    reactor.join();
}

#[test]
fn uring_overflow_severs_non_reading_peer() {
    let _g = serial();
    if !uring_or_skip("uring_overflow_severs_non_reading_peer") {
        return;
    }
    // Cap small enough that echoes to a never-reading peer overflow.
    let (reactor, addr) = start_echo(Backend::Uring, 1, 64 * 1024);
    let mut w = connect(addr);
    let payload = vec![7u8; 16 * 1024];
    // Keep pushing until the reactor severs us (write fails) or we
    // give up. The peer never reads, so its outbox must overflow.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut severed = false;
    while Instant::now() < deadline {
        if w.write_all(&reframe(&payload)).is_err() {
            severed = true;
            break;
        }
    }
    assert!(severed, "non-reading peer must be severed by overflow");
    reactor.shutdown();
    reactor.join();
}

#[test]
fn uring_close_is_delivered_exactly_once_per_conn() {
    let _g = serial();
    if !uring_or_skip("uring_close_is_delivered_exactly_once_per_conn") {
        return;
    }
    let (reactor, addr) = start_echo(Backend::Uring, 2, 1024 * 1024);
    let conns: Vec<TcpStream> = (0..8).map(|_| connect(addr)).collect();
    // Half the peers hang up; the rest are alive at shutdown.
    for c in conns.iter().take(4) {
        c.shutdown(std::net::Shutdown::Both).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while reactor.handler().closes.load(Ordering::SeqCst) < 4 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(reactor.handler().closes.load(Ordering::SeqCst), 4);
    reactor.shutdown();
    reactor.join();
    assert_eq!(
        reactor.handler().closes.load(Ordering::SeqCst),
        8,
        "every accepted conn gets exactly one on_close"
    );
    drop(conns);
}

/// The uring twin of the reactor's
/// `closing_a_listener_stops_accepts_but_keeps_live_conns`, plus the
/// rebind a partition restart performs: closing the handle cancels the
/// multishot accept and reaps the fd, a connection accepted before the
/// close keeps echoing, and the freed address takes a fresh
/// `SO_REUSEADDR` listener that serves new dials.
#[test]
fn uring_closing_a_listener_stops_accepts_but_keeps_live_conns() {
    let _g = serial();
    if !uring_or_skip("uring_closing_a_listener_stops_accepts_but_keeps_live_conns") {
        return;
    }
    let reactor = echo_reactor(Backend::Uring, 1);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let lh = reactor.add_listener(listener, 0, 1024 * 1024).unwrap();

    let mut alive = connect(addr);
    let mut reader = FramedReader::new(alive.try_clone().unwrap());
    alive.write_all(&reframe(b"before")).unwrap();
    assert_eq!(
        reader.next_frame().unwrap().expect("echo").as_ref(),
        b"before"
    );

    lh.close();
    lh.close(); // idempotent

    // New dials are refused once the close has taken effect on the
    // reactor thread. A dial that races it either gets served (retry)
    // or dies unserved; the read timeout keeps a dial parked in a
    // not-yet-closed backlog from hanging the test.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let Ok(mut probe) = TcpStream::connect(addr) else {
            break;
        };
        probe
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut r = FramedReader::new(probe.try_clone().unwrap());
        let _ = probe.write_all(&reframe(b"probe"));
        match r.next_frame() {
            Ok(None) => break,
            Err(e) if !e.is_timeout() => break,
            _ => {
                assert!(Instant::now() < deadline, "listener never closed");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }

    // The pre-close connection still works.
    alive.write_all(&reframe(b"after")).unwrap();
    assert_eq!(
        reader.next_frame().unwrap().expect("echo").as_ref(),
        b"after"
    );

    // Restart: rebind the exact address and serve fresh dials on it.
    let std::net::SocketAddr::V4(v4) = addr else {
        unreachable!("bound on IPv4 loopback")
    };
    let rebound = wren_net::poll::bind_reusable(v4).expect("address freed by the close");
    reactor.add_listener(rebound, 0, 1024 * 1024).unwrap();
    let mut fresh = connect(addr);
    let mut fresh_reader = FramedReader::new(fresh.try_clone().unwrap());
    fresh.write_all(&reframe(b"reborn")).unwrap();
    assert_eq!(
        fresh_reader.next_frame().unwrap().expect("echo").as_ref(),
        b"reborn"
    );
    reactor.shutdown();
    reactor.join();
}

#[test]
fn forced_uring_falls_back_to_epoll_when_detection_fails() {
    let _g = serial();
    wren_net::uring::force_unavailable(true);
    let result = Reactor::with_options(
        1,
        Echo {
            closes: AtomicUsize::new(0),
        },
        ReactorOptions {
            backend: Backend::Uring,
            ..ReactorOptions::default()
        },
    );
    wren_net::uring::force_unavailable(false);
    let reactor = result.expect("fallback must not error");
    assert_eq!(
        reactor.backend(),
        Backend::Epoll,
        "Backend::Uring on a failed probe must fall back to epoll"
    );
    // And the fallback reactor must actually serve traffic.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    reactor.add_listener(listener, 0, 1024 * 1024).unwrap();
    let mut w = connect(addr);
    let mut r = FramedReader::new(w.try_clone().unwrap());
    w.write_all(&reframe(b"hello")).unwrap();
    assert_eq!(r.next_frame().unwrap().expect("frame").as_ref(), b"hello");
    reactor.shutdown();
    reactor.join();
}
