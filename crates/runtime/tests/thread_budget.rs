//! The runtime's thread budget, asserted from the OS: a TCP cluster is
//! exactly **one writer per partition plus the reactor pool** — read
//! slices are answered on the event loop that decodes them, so they own
//! no thread — and it stays that size whatever the connection count. A
//! 32-session loopback cluster must run with exactly the thread count
//! of a 2-session one, the per-connection fds must be reaped once
//! sessions drop, and `stop` must hand back every thread the build took.
//!
//! (A fabric with a reader and a writer thread per connection would
//! fail this, and so would a pool of read threads per partition.)
//!
//! This test lives alone in its file on purpose: `cargo test` runs the
//! tests of one binary concurrently, and any neighbor would perturb the
//! process-wide thread and fd counts read from /proc.

use bytes::Bytes;
use std::time::{Duration, Instant};
use wren_protocol::Key;
use wren_rt::{ClusterBuilder, Session};

/// Current thread count of this process, from `/proc/self/status`.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

/// Current open-fd count of this process, from `/proc/self/fd`.
fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("read /proc/self/fd").count()
}

/// One committed write per session, touching both partitions so every
/// server serves traffic (and all lazy peer links get exercised).
fn transact(sessions: &mut [Session]) {
    for (i, s) in sessions.iter_mut().enumerate() {
        s.begin().expect("begin");
        s.write(Key(i as u64), Bytes::from_static(b"budget"));
        s.write(Key(i as u64 + 1), Bytes::from_static(b"budget"));
        s.commit().expect("commit");
    }
}

/// Polls until `probe` holds (the reactor reaps closed connections
/// asynchronously — EOF must reach its event loop).
fn await_condition(what: &str, probe: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if probe() {
            return;
        }
        assert!(Instant::now() < deadline, "{what} never settled");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn reactor_thread_budget_is_flat_and_fds_are_reaped() {
    const PARTITIONS: u16 = 2;
    const REACTOR_THREADS: usize = 2;
    let before_build = thread_count();
    let cluster = ClusterBuilder::new()
        .dcs(1)
        .partitions(PARTITIONS)
        .reactor_threads(REACTOR_THREADS)
        .tcp()
        .build();
    assert_eq!(
        thread_count(),
        before_build + PARTITIONS as usize + REACTOR_THREADS,
        "a cluster is one writer per partition plus the reactor pool"
    );

    // Baseline: a 2-session cluster with all inter-partition links up
    // (ticks dial them within milliseconds; the transactions force the
    // client-facing paths too). Let the counts settle before snapshots.
    let mut warm: Vec<Session> = (0..2).map(|_| cluster.session(0)).collect();
    transact(&mut warm);
    let settle = Instant::now() + Duration::from_millis(300);
    while Instant::now() < settle {
        transact(&mut warm);
        std::thread::sleep(Duration::from_millis(10));
    }
    let baseline_threads = thread_count();
    let baseline_fds = fd_count();

    // 16x the connections: every session dials its coordinator and
    // transacts, so each one really holds a live registered socket.
    let mut many: Vec<Session> = (0..32).map(|_| cluster.session(0)).collect();
    transact(&mut many);
    let fds_with_32 = fd_count();
    assert!(
        fds_with_32 > baseline_fds,
        "32 live sessions must show up as open fds \
         ({baseline_fds} -> {fds_with_32})"
    );
    assert_eq!(
        thread_count(),
        baseline_threads,
        "the reactor fabric must serve 32 sessions with exactly the \
         thread count it served 2 with — threads are O(reactor_threads \
         + partitions), never O(connections)"
    );

    // The baseline sessions still work while the crowd is connected
    // (no starvation from sharing the fixed pool).
    transact(&mut warm);

    // Dropping the sessions closes their sockets; the reactor must reap
    // every accepted-side fd (no leak across session churn).
    drop(many);
    await_condition("fd count after dropping 32 sessions", || {
        fd_count() <= baseline_fds
    });
    assert_eq!(thread_count(), baseline_threads);

    drop(warm);
    cluster.stop();
    // A joined thread leaves the count a moment after its join returns.
    await_condition("thread count after stop", || thread_count() == before_build);
}
