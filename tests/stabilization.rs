//! Event-driven replication and stabilization, end to end: the `wren-rt`
//! engines raise a partition's version clock in the turn a commit lands
//! or a newer clock is heard, and push its BiST contribution as soon as
//! it moves, so a committed write becomes readable by other sessions
//! after a few message delays — with no help from either tick. Each
//! cluster here runs with a one-hour Δ_R and a one-hour Δ_G, so any read
//! that sees a write within the deadline saw it through event-driven
//! advances and pushes alone; at tick-only cadence nothing would ever
//! become visible.

use bytes::Bytes;
use std::time::{Duration, Instant};
use wren::protocol::Key;
use wren::rt::{Backend, Cluster, ClusterBuilder, Session};

/// How long a write may take to become visible to another session. The
/// engines normally need a few message delays (~0.1–0.2 ms); the margin
/// absorbs a loaded test machine.
const VISIBLE_WITHIN: Duration = Duration::from_millis(250);

fn commit_one(session: &mut Session, key: Key, value: &'static [u8]) {
    session.begin().unwrap();
    session.write(key, Bytes::from_static(value));
    session.commit().unwrap();
}

/// Polls `key` from `reader` (a session with nothing cached) until it
/// reads `value`; returns how long that took.
fn time_to_visible(reader: &mut Session, key: Key, value: &[u8]) -> Duration {
    let started = Instant::now();
    loop {
        reader.begin().unwrap();
        let got = reader.read_one(key).unwrap();
        reader.commit().unwrap();
        if got.as_deref() == Some(value) {
            return started.elapsed();
        }
        assert!(
            started.elapsed() < VISIBLE_WITHIN,
            "{key:?} not visible to {:?} after {VISIBLE_WITHIN:?} (last read {got:?})",
            reader.coordinator()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn writes_become_visible_without_ticks(cluster: &Cluster, fabric: &str) {
    let n = cluster.n_partitions();

    // Same DC, across partitions: the key lives on the partition the
    // writer does not coordinate, and the reader coordinates elsewhere
    // again (sessions take coordinators round-robin).
    let mut writer = cluster.session(0);
    let mut reader = cluster.session(0);
    assert_ne!(writer.coordinator(), reader.coordinator());
    let home = writer.coordinator().partition;
    let local_key = (0..).map(Key).find(|k| k.partition(n) != home).unwrap();
    commit_one(&mut writer, local_key, b"local");
    let local = time_to_visible(&mut reader, local_key, b"local");

    // Across DCs: replication plus the remote DC's own stabilization.
    let remote_key = (1_000..).map(Key).find(|k| k.partition(n) != home).unwrap();
    commit_one(&mut writer, remote_key, b"remote");
    let mut remote_reader = cluster.session(1);
    let remote = time_to_visible(&mut remote_reader, remote_key, b"remote");

    eprintln!("{fabric}: same-DC visible after {local:?}, remote-DC after {remote:?}");
}

fn cluster() -> ClusterBuilder {
    ClusterBuilder::new()
        .dcs(2)
        .partitions(2)
        .replication_tick(Duration::from_secs(3600))
        .gossip_tick(Duration::from_secs(3600))
}

#[test]
fn channel_cluster_stabilizes_without_gossip_ticks() {
    let cluster = cluster().build();
    writes_become_visible_without_ticks(&cluster, "channels");
    cluster.stop();
}

#[test]
fn epoll_tcp_cluster_stabilizes_without_gossip_ticks() {
    let cluster = cluster().tcp().build();
    assert_eq!(cluster.tcp_backend(), Some(Backend::Epoll));
    writes_become_visible_without_ticks(&cluster, "epoll tcp");
    assert_eq!(cluster.tcp_dropped_frames(), 0);
    cluster.stop();
}
