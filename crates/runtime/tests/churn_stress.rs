//! Connection-churn stress for the reactor fabric: ten thousand
//! client connections, arriving and dying in waves, against a fixed
//! thread pool. The headline claims under churn are the same as
//! `thread_budget`'s under steady state — threads stay
//! O(reactor_threads + partitions) forever, and every accepted-side fd
//! is reaped when its session drops — but churn is where sloppy
//! lifecycle code actually fails: a leaked registration, a writer that
//! outlives its socket, or an unreaped fd per connection would
//! overflow the process within a few waves.
//!
//! Release CI runs this with the full 10k (40 waves x 250 sessions);
//! debug builds scale down to keep `cargo test` humane. Every session
//! in every wave commits a real write, so each connection is a live,
//! registered, served socket — not just an accept.
//!
//! Like `thread_budget`, this test lives alone in its file: it reads
//! process-wide thread and fd counts from /proc, and any concurrently
//! running neighbor would perturb them.

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

/// Polls until `probe` holds (the reactor reaps closed connections
/// asynchronously — EOF must reach its event loop).
fn await_condition(what: &str, probe: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if probe() {
            return;
        }
        assert!(Instant::now() < deadline, "{what} never settled");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One committed write per session: forces the dial, the server-side
/// accept/registration, and a full request/response over the socket.
fn transact(sessions: &mut [Session]) {
    for (i, s) in sessions.iter_mut().enumerate() {
        s.begin().expect("begin");
        s.write(Key(i as u64 % 64), Bytes::from_static(b"churn"));
        s.commit().expect("commit");
    }
}

#[test]
fn ten_thousand_connection_churn_holds_the_thread_and_fd_budget() {
    let (waves, per_wave) = if cfg!(debug_assertions) {
        (8, 50) // 400 connections: same lifecycle, test-time humane
    } else {
        (40, 250) // the full 10,000
    };

    let cluster = ClusterBuilder::new().dcs(1).partitions(2).tcp().build();

    // Warm baseline: all inter-partition links up, client path served,
    // counts settled.
    let mut warm: Vec<Session> = (0..2).map(|_| cluster.session(0)).collect();
    transact(&mut warm);
    let settle = Instant::now() + Duration::from_millis(300);
    while Instant::now() < settle {
        transact(&mut warm);
        std::thread::sleep(Duration::from_millis(10));
    }
    let baseline_threads = thread_count();
    let baseline_fds = fd_count();
    let accepted_before = cluster.metrics().counter("tcp_conns_accepted");

    for wave in 0..waves {
        let mut crowd: Vec<Session> = (0..per_wave).map(|_| cluster.session(0)).collect();
        transact(&mut crowd);
        assert_eq!(
            thread_count(),
            baseline_threads,
            "wave {wave}: {per_wave} live sessions grew the thread count — \
             the fabric is spending threads per connection"
        );
        drop(crowd);
        // Reap before the next wave: a per-connection fd leak must fail
        // here, not by exhausting the fd table forty waves later.
        await_condition("fd reap after wave", || fd_count() <= baseline_fds);
    }

    assert_eq!(
        thread_count(),
        baseline_threads,
        "thread count drifted across {waves} waves of churn"
    );

    // The churn was real: every wave's sessions were accepted as fresh
    // connections, and none of the traffic was dropped on the floor.
    let snap = cluster.metrics();
    let accepted = snap.counter("tcp_conns_accepted") - accepted_before;
    assert!(
        accepted >= (waves * per_wave) as u64,
        "expected >= {} fresh accepts across the churn, saw {accepted}",
        waves * per_wave
    );
    assert_eq!(snap.counter("tcp_dropped_frames"), 0, "churn dropped frames");

    // The survivors never noticed.
    transact(&mut warm);
    drop(warm);
    cluster.stop();
}
