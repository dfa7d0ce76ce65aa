//! The loopback-cluster consistency oracle: the SAME causal-closure,
//! atomic-visibility and session-guarantee checks the synchronous pump
//! enforces (`causal_invariants.rs`, `session_guarantees.rs`), run
//! against a **live TCP-backed cluster on 127.0.0.1** — every protocol
//! hop encoded, framed, written to a socket, read back and decoded —
//! and, for calibration, against the channel-transport cluster with the
//! same schedule.
//!
//! Wren's reads are nonblocking by construction (a read slice at a
//! stable snapshot is served straight from storage; the server has no
//! deferred-read queue, unlike Cure). At this level that surfaces as:
//! no read ever times out or retries, across every schedule below —
//! which the driver asserts on every single read, along with identical
//! scripted results across the two transports.

mod common;

use common::oracle::{Oracle, SessionOracle};
use common::decode_marker;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use wren::protocol::Key;
use wren::rt::{Cluster, ClusterBuilder, Session};

/// Drives `txs` random transactions over live sessions (round-robin
/// random interleaving, one in flight at a time so the oracle has a
/// total commit order), checking every read against the oracle.
///
/// Returns the number of server-round-trip reads performed; every one
/// of them completed without blocking (a blocked read would surface as
/// an `RtError::Timeout`, which panics the driver here).
fn random_live_history(cluster: &Cluster, seed: u64, sessions_per_dc: usize, txs: usize) -> u64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let key_pool: Vec<Key> = (0..48).map(Key).collect();

    let mut sessions: Vec<Session> = Vec::new();
    let mut oracles: Vec<SessionOracle> = Vec::new();
    for dc in 0..cluster.n_dcs() {
        for _ in 0..sessions_per_dc {
            sessions.push(cluster.session(dc));
            oracles.push(SessionOracle::new());
        }
    }
    let mut oracle = Oracle::default();
    let mut server_reads = 0u64;

    for _ in 0..txs {
        // Let replication/gossip ticks interleave with transactions.
        if rng.gen_range(0..4) == 0 {
            std::thread::sleep(Duration::from_millis(rng.gen_range(1..4)));
        }

        let ci = rng.gen_range(0..sessions.len());
        let n_reads = rng.gen_range(1..6);
        let n_writes = rng.gen_range(1..4);
        let reads: Vec<Key> = (0..n_reads)
            .map(|_| key_pool[rng.gen_range(0..key_pool.len())])
            .collect();
        let mut writes: Vec<Key> = (0..n_writes)
            .map(|_| key_pool[rng.gen_range(0..key_pool.len())])
            .collect();
        writes.dedup();

        let so = &mut oracles[ci];
        so.seq += 1;
        let me = (sessions[ci].id().0, so.seq);

        let session = &mut sessions[ci];
        session.begin().expect("begin never blocks");
        let results = session
            .read(&reads)
            .expect("nonblocking reads: no read may time out");
        server_reads += 1;
        for k in &writes {
            session.write(*k, common::marker(me.0, me.1));
        }
        let ct = session.commit().expect("commit");

        let observed: Vec<(Key, Option<(u32, u32)>)> = results
            .iter()
            .map(|(k, v)| (*k, v.as_ref().map(decode_marker)))
            .collect();
        so.observe(&oracle, &observed);
        let dc = session.coordinator().dc.0;
        so.record_commit(&mut oracle, me, ct, dc, writes);
    }
    server_reads
}

/// The headline check: the full causal/session oracle against a
/// TCP-backed loopback cluster, multi-DC, with zero blocked reads and
/// a loss-free transport.
#[test]
fn tcp_loopback_cluster_passes_causal_oracle() {
    let cluster = ClusterBuilder::new().dcs(2).partitions(2).tcp().build();
    let reads = random_live_history(&cluster, 42, 2, 150);
    assert!(reads > 0);
    assert_eq!(
        cluster.tcp_dropped_frames(),
        0,
        "the transport must be loss-free while the oracle holds"
    );
    let stats = cluster.stop();
    let slices: u64 = stats.iter().map(|s| s.slices_served).sum();
    assert!(slices > 0, "reads were served by the engines");
}

/// Single-DC, more partitions, reactor pools of one and three threads —
/// every read slice is answered on the event loop that decoded it, so
/// the oracle must hold whether one loop serves every partition or
/// three share them.
#[test]
fn tcp_oracle_across_engine_configs() {
    for reactor_threads in [1usize, 3] {
        let cluster = ClusterBuilder::new()
            .dcs(1)
            .partitions(4)
            .reactor_threads(reactor_threads)
            .tcp()
            .build();
        random_live_history(&cluster, 7 + 13 * reactor_threads as u64, 3, 120);
        assert_eq!(cluster.tcp_dropped_frames(), 0);
        cluster.stop();
    }
}

/// The same seeded schedule against both transports — in-process
/// channels and reactor TCP: the oracle holds on each, and the
/// deterministic fragment (a session's own final reads after
/// quiescence) is identical across them.
#[test]
fn channel_and_tcp_agree_on_scripted_results() {
    fn scripted(cluster: &Cluster) -> Vec<(Key, Option<Vec<u8>>)> {
        let keys: Vec<Key> = (0..12).map(Key).collect();
        let mut writer = cluster.session(0);
        for generation in 1..=3u32 {
            writer.begin().unwrap();
            for k in &keys {
                writer.write(*k, common::marker(9_999, generation));
            }
            writer.commit().unwrap();
        }
        // A fresh session (server-served reads, no write-set shortcut)
        // polls until the final generation is stable everywhere.
        let mut reader = cluster.session(0);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            reader.begin().unwrap();
            let all = reader.read(&keys).unwrap();
            reader.commit().unwrap();
            let done = all
                .iter()
                .all(|(_, v)| v.as_ref().map(decode_marker) == Some((9_999, 3)));
            if done {
                return all
                    .into_iter()
                    .map(|(k, v)| (k, v.map(|b| b.to_vec())))
                    .collect();
            }
            assert!(
                Instant::now() < deadline,
                "final generation never stabilized"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    let channel_cluster = ClusterBuilder::new().dcs(1).partitions(3).build();
    let reactor_cluster = ClusterBuilder::new().dcs(1).partitions(3).tcp().build();
    let via_channel = scripted(&channel_cluster);
    let via_reactor = scripted(&reactor_cluster);
    assert_eq!(
        via_channel, via_reactor,
        "the reactor fabric must not change what a quiesced cluster serves"
    );
    assert_eq!(reactor_cluster.tcp_dropped_frames(), 0);
    channel_cluster.stop();
    reactor_cluster.stop();
}

/// The explicit session guarantees (`session_guarantees.rs` logic) over
/// TCP: monotonic writes and writes-follow-reads, enforced through
/// commit-timestamp ordering on a live socket-backed cluster.
#[test]
fn tcp_session_guarantees_explicit() {
    let cluster = ClusterBuilder::new().dcs(1).partitions(2).tcp().build();

    // Monotonic writes: one session's commit timestamps strictly
    // increase, so LWW can never expose an older own-write.
    let mut s = cluster.session(0);
    let mut last_ct = wren::clock::Timestamp::ZERO;
    for _ in 0..15 {
        s.begin().unwrap();
        s.write(Key(5), common::marker(1, 1));
        let ct = s.commit().unwrap();
        assert!(ct > last_ct, "commit timestamps must increase in session order");
        last_ct = ct;
    }

    // Writes-follow-reads: bob reads alice's x, then writes y; ct(y)
    // must exceed ct(x), so any snapshot containing y contains x.
    let mut alice = cluster.session(0);
    let mut bob = cluster.session(0);
    alice.begin().unwrap();
    alice.write(Key(100), common::marker(2, 1));
    let ct_x = alice.commit().unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        bob.begin().unwrap();
        let saw = bob.read_one(Key(100)).unwrap();
        bob.commit().unwrap();
        if saw.is_some() {
            break;
        }
        assert!(Instant::now() < deadline, "x never became visible to bob");
        std::thread::sleep(Duration::from_millis(2));
    }
    bob.begin().unwrap();
    assert!(bob.read_one(Key(100)).unwrap().is_some());
    bob.write(Key(101), common::marker(3, 1));
    let ct_y = bob.commit().unwrap();
    assert!(
        ct_y > ct_x,
        "writes-follow-reads: ct(y)={ct_y:?} must exceed ct(x)={ct_x:?}"
    );

    drop(s);
    drop(alice);
    drop(bob);
    cluster.stop();
}
