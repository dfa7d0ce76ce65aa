//! Integration tests for the read path: slices answered off the writer
//! thread, by whichever thread delivers them, stay correct under
//! concurrent writes and sessions never deadlock; shutdown is idempotent
//! and joins every engine thread; and a killed partition's store stops
//! answering until its restart installs the recovered one.

use bytes::Bytes;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use wren_protocol::{Key, ServerId};
use wren_rt::{Cluster, ClusterBuilder, Session};

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

/// Writes through one session, then hammers the cluster with concurrent
/// reader sessions while more writes land. Every read must return a
/// value the key actually held (monotonically growing suffix), and the
/// final stats must account for every slice served off the writers.
#[test]
fn parallel_workers_serve_correct_slices() {
    let cluster = ClusterBuilder::new().dcs(1).partitions(4).build();

    // Seed every key with generation 0 and wait until stable.
    let n_keys = 16u64;
    let mut writer = cluster.session(0);
    writer.begin().unwrap();
    for k in 0..n_keys {
        writer.write(Key(k), val("gen0"));
    }
    writer.commit().unwrap();
    let mut probe = cluster.session(0);
    for k in 0..n_keys {
        await_visible(&mut probe, Key(k), &val("gen0"));
    }

    std::thread::scope(|s| {
        // Concurrent writer bumping generations.
        s.spawn(|| {
            for generation in 1..=5u64 {
                writer.begin().unwrap();
                for k in 0..n_keys {
                    writer.write(Key(k), val(&format!("gen{generation}")));
                }
                writer.commit().unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        // Concurrent readers: multi-key transactions spanning all four
        // partitions, so every transaction fans remote SliceReqs out
        // while the writers apply the new generations.
        for _ in 0..3 {
            let mut session = cluster.session(0);
            s.spawn(move || {
                let keys: Vec<Key> = (0..n_keys).map(Key).collect();
                for _ in 0..50 {
                    session.begin().unwrap();
                    let items = session.read(&keys).unwrap();
                    session.commit().unwrap();
                    assert_eq!(items.len(), keys.len());
                    for (k, v) in items {
                        let v = v.unwrap_or_else(|| {
                            panic!("key {k:?} lost its seeded value")
                        });
                        assert!(
                            v.as_ref().starts_with(b"gen"),
                            "torn or foreign value {v:?}"
                        );
                    }
                }
            });
        }
    });

    let stats = cluster.stop();
    assert_eq!(stats.len(), 4);
    let slices: u64 = stats.iter().map(|s| s.slices_served).sum();
    let keys_read: u64 = stats.iter().map(|s| s.keys_read).sum();
    // 3 readers × 50 transactions, each fanning out to all 4 partitions.
    assert!(slices >= 150, "expected ≥150 slices served, got {slices}");
    assert!(keys_read >= 150 * n_keys, "keys_read underflow: {keys_read}");
}

/// Shutdown can be called repeatedly, before or after drop-based joins,
/// without hanging or double-joining; `stop` after `shutdown` still
/// returns every engine's stats.
#[test]
fn shutdown_is_idempotent() {
    let cluster: Cluster = ClusterBuilder::new().dcs(2).partitions(2).build();
    cluster.shutdown();
    cluster.shutdown();
    let stats = cluster.stop();
    assert_eq!(stats.len(), 4);

    // Drop path: never joined explicitly, must not hang or leak threads.
    let cluster = ClusterBuilder::new().dcs(1).partitions(2).build();
    cluster.shutdown();
    drop(cluster);
}

/// A fresh durability directory for one leg.
fn tmp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wren-engine-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Allocates sessions until one lands on coordinator `(0, p)`
/// (round-robin guarantees a hit within `n_partitions` tries).
fn session_at(cluster: &Cluster, p: u16) -> Session {
    (0..cluster.n_partitions())
        .map(|_| cluster.session(0))
        .find(|s| s.coordinator() == ServerId::new(0, p))
        .expect("round-robin cycles through every partition")
}

/// Runs `op` until it succeeds, retrying errors (a restarted partition's
/// links may still be coming back) until a deadline.
fn eventually<T>(what: &str, mut op: impl FnMut() -> Result<T, wren_rt::RtError>) -> T {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match op() {
            Ok(v) => return v,
            Err(e) => assert!(Instant::now() < deadline, "{what}: still failing: {e}"),
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The read path follows the partition's life, over channels and over
/// epoll TCP: once partition 1 is killed, a read that needs a slice from
/// it fails instead of being answered from the dead process's store; once
/// it is restarted, the recovered store answers — a fresh write to one of
/// its keys is read back through a partition-0 coordinator.
#[test]
fn restart_swaps_the_read_path() {
    for (name, transport) in [
        ("channel", (|b| b) as fn(ClusterBuilder) -> ClusterBuilder),
        ("tcp", ClusterBuilder::tcp),
    ] {
        let root = tmp_root(name);
        let mut cluster = transport(ClusterBuilder::new().dcs(1).partitions(2))
            .durable(&root)
            .session_timeout(Duration::from_millis(500))
            .build();
        let key = (0..)
            .map(Key)
            .find(|k| k.partition(2).0 == 1)
            .expect("some key lives on partition 1");

        let mut writer = session_at(&cluster, 0);
        writer.begin().unwrap();
        writer.write(key, val("before"));
        writer.commit().unwrap();
        // A session of its own, so the value comes from partition 1's
        // store, not from the writer's cache.
        let mut reader = session_at(&cluster, 0);
        await_visible(&mut reader, key, &val("before"));

        cluster.kill_partition(0, 1);
        let mut reader = session_at(&cluster, 0);
        reader.begin().unwrap();
        let got = reader.read_one(key);
        assert!(
            got.is_err(),
            "{name}: a killed partition answered a slice: {got:?}"
        );

        cluster.restart_partition(0, 1);
        eventually(&format!("{name}: write after restart"), || {
            writer.begin()?;
            writer.write(key, val("after"));
            writer.commit()
        });
        let mut reader = session_at(&cluster, 0);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let got = eventually(&format!("{name}: read after restart"), || {
                reader.begin()?;
                let got = reader.read_one(key)?;
                reader.commit()?;
                Ok(got)
            });
            if got == Some(val("after")) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{name}: the restarted partition never served its new write: {got:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        drop((writer, reader));
        cluster.stop();
        let _ = std::fs::remove_dir_all(&root);
    }
}
