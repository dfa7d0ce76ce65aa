//! The TCP transport end to end: the same engine guarantees as channel
//! mode, but with every protocol hop crossing a real loopback socket —
//! plus the TCP-specific surface: joining by address only, migration
//! re-dialing, and shutdown that closes listeners and in-flight
//! connections idempotently.

use bytes::Bytes;
use std::time::{Duration, Instant};
use wren_protocol::{ClientId, Key, ServerId};
use wren_rt::{Cluster, ClusterBuilder, RtError, Session};

fn val(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

/// Reads `key` in fresh transactions until `expect` becomes visible at
/// the stable snapshot (the write needs a replication + gossip round).
fn await_visible(session: &mut Session, key: Key, expect: &Bytes) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        session.begin().unwrap();
        let got = session.read_one(key).unwrap();
        session.commit().unwrap();
        if got.as_ref() == Some(expect) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "value never became visible: got {got:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Transactions, multi-partition snapshots and geo-replication all work
/// when every hop — client↔coordinator, slices, 2PC, replication,
/// gossip — crosses a socket.
#[test]
fn tcp_cluster_serves_transactions_across_dcs() {
    let cluster = ClusterBuilder::new().dcs(2).partitions(2).tcp().build();
    assert_eq!(cluster.server_addrs().len(), 4, "one listener per server");

    let mut writer = cluster.session(0);
    writer.begin().unwrap();
    for k in 0..8u64 {
        writer.write(Key(k), val(&format!("v{k}")));
    }
    writer.commit().unwrap();

    // Same-DC visibility at the stable snapshot.
    let mut probe = cluster.session(0);
    for k in 0..8u64 {
        await_visible(&mut probe, Key(k), &val(&format!("v{k}")));
    }
    // Cross-DC: replication + remote stabilization over sockets.
    let mut remote = cluster.session(1);
    for k in 0..8u64 {
        await_visible(&mut remote, Key(k), &val(&format!("v{k}")));
    }

    drop(writer);
    drop(probe);
    drop(remote);
    let stats = cluster.stop();
    assert_eq!(stats.len(), 4);
    let applied: u64 = stats.iter().map(|s| s.remote_versions_applied).sum();
    assert_eq!(applied, 8, "every write replicated to the sibling DC");
}

/// A session can join knowing nothing but socket addresses — the shape
/// a different process would use. It must interoperate with the
/// cluster's own sessions on the same keys.
#[test]
fn connect_tcp_joins_by_address_only() {
    let cluster = ClusterBuilder::new().dcs(1).partitions(4).tcp().build();
    let addrs = cluster.server_addrs().to_vec();

    let mut inside = cluster.session(0);
    inside.begin().unwrap();
    inside.write(Key(7), val("from-inside"));
    inside.commit().unwrap();

    // High client id: disjoint from the cluster's own 0-counted ones.
    let mut outside = Session::connect_tcp(
        addrs,
        4,
        ClientId(10_000),
        ServerId::new(0, 1),
        Duration::from_secs(5),
    );
    await_visible(&mut outside, Key(7), &val("from-inside"));

    outside.begin().unwrap();
    outside.write(Key(8), val("from-outside"));
    outside.commit().unwrap();
    await_visible(&mut inside, Key(8), &val("from-outside"));

    drop(inside);
    drop(outside);
    cluster.stop();
}

/// Migration re-dials: the session moves to a coordinator in another
/// DC, which over TCP means a fresh framed connection, and still sees
/// everything it wrote.
#[test]
fn migrate_over_tcp_redials_and_preserves_session() {
    let cluster = ClusterBuilder::new().dcs(2).partitions(2).tcp().build();
    let mut s = cluster.session(0);
    s.begin().unwrap();
    s.write(Key(42), val("pre-migration"));
    s.commit().unwrap();

    let probes = s.migrate(ServerId::new(1, 0)).expect("migration completes");
    assert!(probes >= 1);
    s.begin().unwrap();
    assert_eq!(
        s.read_one(Key(42)).unwrap(),
        Some(val("pre-migration")),
        "migrated session must see its own write in the new DC"
    );
    s.commit().unwrap();

    // Migrating BACK must redial: helloing DC 1 made the cluster sever
    // the session's original DC 0 connection, so a cached socket would
    // be dead (regression test for the stale-connection case).
    s.migrate(ServerId::new(0, 0))
        .expect("migration back to the original coordinator");
    s.begin().unwrap();
    assert_eq!(
        s.read_one(Key(42)).unwrap(),
        Some(val("pre-migration")),
        "round-trip migrated session must still see its write"
    );
    s.commit().unwrap();
    drop(s);
    cluster.stop();
}

/// Regression (this PR's fix): shutdown must close listener sockets and
/// in-flight connections idempotently — `shutdown()` twice, then
/// `stop()`, then the drop path, with sessions still connected, and
/// nothing hangs or leaks a thread.
#[test]
fn tcp_shutdown_twice_plus_drop_is_clean() {
    // Twice + stop, with a connected session mid-transaction.
    let cluster: Cluster = ClusterBuilder::new().dcs(2).partitions(2).tcp().build();
    let mut s = cluster.session(0);
    s.begin().unwrap();
    s.write(Key(1), val("x"));
    s.commit().unwrap();
    cluster.shutdown();
    cluster.shutdown();
    let stats = cluster.stop();
    assert_eq!(stats.len(), 4);
    // The surviving session's connection was severed server-side: the
    // next operation errors instead of hanging.
    s.begin()
        .expect_err("session against a stopped cluster must error");
    drop(s);

    // Drop path: shutdown then drop without an explicit join call.
    let cluster = ClusterBuilder::new().dcs(1).partitions(2).tcp().build();
    let _s = cluster.session(0);
    cluster.shutdown();
    drop(cluster);

    // Drop without any shutdown call at all.
    let cluster = ClusterBuilder::new().dcs(1).partitions(2).tcp().build();
    drop(cluster);
}

/// Concurrent sessions over sockets make progress and count correctly,
/// mirroring the channel-mode test.
#[test]
fn concurrent_tcp_sessions_make_progress() {
    let cluster = std::sync::Arc::new(
        ClusterBuilder::new().dcs(2).partitions(2).tcp().build(),
    );
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let cluster = std::sync::Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            let mut s = cluster.session((t % 2) as u8);
            for i in 0..20u64 {
                s.begin().expect("begin");
                let k = Key(t * 1000 + (i % 5));
                s.write(k, Bytes::from(i.to_le_bytes().to_vec()));
                s.commit().expect("commit");
                s.begin().expect("begin");
                assert_eq!(
                    s.read_one(k).expect("read"),
                    Some(Bytes::from(i.to_le_bytes().to_vec()))
                );
                s.commit().expect("commit");
            }
            s.stats().txs_committed
        }));
    }
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, 4 * 20);
    cluster.shutdown();
}

/// An operation on a TCP session whose cluster is gone reports
/// [`RtError::Shutdown`] (dead socket), not a hang.
#[test]
fn session_surfaces_shutdown_on_dead_cluster() {
    let cluster = ClusterBuilder::new()
        .dcs(1)
        .partitions(2)
        .session_timeout(Duration::from_millis(500))
        .tcp()
        .build();
    let mut s = cluster.session(0);
    s.begin().unwrap();
    s.commit().unwrap();
    cluster.stop();
    match s.begin() {
        Err(RtError::Shutdown) | Err(RtError::Timeout) | Err(RtError::Unreachable(_)) => {}
        other => panic!("expected an error against a dead cluster, got {other:?}"),
    }
}

/// Satellite (this PR): dial hardening. A session pointed at an address
/// nobody listens on retries with bounded backoff (absorbing cluster-
/// startup races), then reports [`RtError::Unreachable`] naming the
/// exact refusing address instead of an opaque failure.
#[test]
fn unreachable_partition_is_named_after_bounded_retries() {
    use wren_protocol::ClientId;
    // Reserve a loopback address, then free it: nothing listens there,
    // so every dial is refused.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    drop(listener);

    let mut s = Session::connect_tcp(
        vec![addr, addr],
        2,
        ClientId(90_000),
        ServerId::new(0, 0),
        Duration::from_secs(2),
    );
    let started = Instant::now();
    match s.begin() {
        Err(RtError::Unreachable(a)) => {
            assert_eq!(a, addr, "the error must name the refusing address");
        }
        other => panic!("expected Unreachable, got {other:?}"),
    }
    // The bounded retry budget actually ran: the backoff schedule
    // (1+2+4+8+16 ms between the 6 attempts) puts a floor on how fast
    // the error can surface.
    assert!(
        started.elapsed() >= Duration::from_millis(25),
        "refused dials must be retried with backoff before giving up"
    );
}
