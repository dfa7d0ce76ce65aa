//! Kill-and-restart crash-recovery oracle for the durable runtime.
//!
//! Each test runs a real multi-DC cluster with per-partition WALs, kills
//! a partition **abruptly** (no drain, no flush, no seal — the engine's
//! `RtMsg::Kill` path, the in-process stand-in for `kill -9`), restarts
//! it from disk, and diffs what the cluster serves afterwards against
//! the exact state it acknowledged before and during the outage.
//!
//! The oracle is writer-per-key: every key has a single writing session
//! and strictly increasing values, so the expected last-writer-wins
//! answer is known precisely — under `FsyncPolicy::Always` a recovered
//! cluster either converges every DC to it or durability lost an
//! acknowledged write.

use bytes::Bytes;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use wren::protocol::{Key, ServerId};
use wren::rt::{Cluster, ClusterBuilder, FsyncPolicy, Session};

fn bval(i: u64) -> Bytes {
    Bytes::from(i.to_le_bytes().to_vec())
}

fn tmp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wren-crash-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Allocates sessions until one lands on the wanted coordinator
/// (round-robin guarantees a hit within `n_partitions` tries). Tests
/// kill specific partitions, so writers must demonstrably not live on
/// the victim.
fn session_at(cluster: &Cluster, dc: u8, p: u16) -> Session {
    for _ in 0..cluster.n_partitions() {
        let s = cluster.session(dc);
        if s.coordinator() == ServerId::new(dc, p) {
            return s;
        }
    }
    unreachable!("round-robin must cycle through every partition");
}

/// Polls `read` until every `(key, value)` pair in `expected` is served
/// in a single snapshot, or panics at the deadline. Recovery, catch-up
/// and stabilization all lag real time, so the oracle is "converges
/// within `timeout`", not "immediate".
fn expect_converges(
    session: &mut Session,
    expected: &HashMap<Key, u64>,
    timeout: Duration,
    what: &str,
) {
    let deadline = Instant::now() + timeout;
    let keys: Vec<Key> = expected.keys().copied().collect();
    loop {
        session.begin().unwrap();
        let got = session.read(&keys).unwrap();
        session.commit().unwrap();
        let ok = got.iter().all(|(k, v)| {
            v.as_ref().map(|b| u64::from_le_bytes(b.as_ref().try_into().unwrap()))
                == Some(expected[k])
        });
        if ok {
            return;
        }
        if Instant::now() >= deadline {
            panic!(
                "{what}: did not converge to the acknowledged state; last snapshot {got:?}"
            );
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Commits `value` to `key` through `session`, updating the oracle map.
fn put(session: &mut Session, oracle: &mut HashMap<Key, u64>, key: Key, value: u64) {
    session.begin().unwrap();
    session.write(key, bval(value));
    session.commit().unwrap();
    oracle.insert(key, value);
}

/// The tentpole oracle: a partition dies mid-stream with `kill -9`
/// semantics, traffic continues around it, and after restart every DC —
/// the victim's included — must converge to exactly the acknowledged
/// writer-per-key state. The victim's sibling re-ships what died in the
/// dead process's inbox (catch-up), and the WAL re-materializes
/// everything the victim itself had acknowledged.
#[test]
fn kill_and_restart_preserves_acknowledged_writes() {
    let root = tmp_root("oracle");
    let mut cluster = ClusterBuilder::new()
        .dcs(2)
        .partitions(2)
        .durable(&root)
        .fsync(FsyncPolicy::Always)
        .checkpoint_interval(Duration::from_millis(25))
        .replication_tick(Duration::from_millis(1))
        .gossip_tick(Duration::from_millis(2))
        .session_timeout(Duration::from_secs(10))
        .build();

    // Writers on partitions that will stay alive: the victim is (1,1).
    let mut a = session_at(&cluster, 0, 0);
    let mut b = session_at(&cluster, 1, 0);
    let keys: Vec<Key> = (0..8u64).map(Key).collect();
    let mut oracle = HashMap::new();

    // Phase 1: both DCs write, checkpoints rotating underneath.
    for round in 1..=15u64 {
        for (ki, key) in keys.iter().enumerate() {
            let v = round * 1_000 + ki as u64;
            let s = if ki % 2 == 0 { &mut a } else { &mut b };
            put(s, &mut oracle, *key, v);
        }
        if round % 5 == 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    // Phase 2: kill (1,1) abruptly; DC 0 keeps writing through the
    // outage (its replication batches to the victim die in the void).
    cluster.kill_partition(1, 1);
    for round in 16..=25u64 {
        for (ki, key) in keys.iter().enumerate() {
            if ki % 2 == 0 {
                put(&mut a, &mut oracle, *key, round * 1_000 + ki as u64);
            }
        }
    }

    // Phase 3: restart and let recovery + catch-up + stabilization run.
    cluster.restart_partition(1, 1);

    // The pre-kill DC-1 session must still work across the restart —
    // session guarantees survive: its own writes stay visible and new
    // commits are accepted.
    for round in 26..=30u64 {
        for (ki, key) in keys.iter().enumerate() {
            if ki % 2 == 1 {
                put(&mut b, &mut oracle, *key, round * 1_000 + ki as u64);
            }
        }
    }

    // Oracle diff: every DC converges to the exact acknowledged state.
    for dc in 0..2u8 {
        let mut reader = cluster.session(dc);
        expect_converges(
            &mut reader,
            &oracle,
            Duration::from_secs(10),
            &format!("DC {dc} after kill/restart"),
        );
    }

    assert_eq!(cluster.tcp_dropped_frames(), 0);
    cluster.stop();
    let _ = std::fs::remove_dir_all(&root);
}

/// The same kill-and-restart oracle under `FsyncPolicy::Window`: the
/// WAL defers its fsync up to a few milliseconds / few KiB to amortize
/// syscalls, but the engine *holds acknowledgements until the window's
/// fsync lands* — so the policy's promise to the client is exactly
/// `Always`'s, and an abrupt kill must still lose no acknowledged
/// write. This is the end-to-end proof that held responses never
/// outrun their group commit.
#[test]
fn kill_and_restart_preserves_acknowledged_writes_under_window() {
    let root = tmp_root("window");
    let mut cluster = ClusterBuilder::new()
        .dcs(2)
        .partitions(2)
        .durable(&root)
        .fsync(FsyncPolicy::Window {
            max_delay: Duration::from_millis(2),
            max_bytes: 8 * 1024,
        })
        .checkpoint_interval(Duration::from_millis(25))
        .replication_tick(Duration::from_millis(1))
        .gossip_tick(Duration::from_millis(2))
        .session_timeout(Duration::from_secs(10))
        .build();

    let mut a = session_at(&cluster, 0, 0);
    let mut b = session_at(&cluster, 1, 0);
    let keys: Vec<Key> = (0..8u64).map(Key).collect();
    let mut oracle = HashMap::new();

    for round in 1..=10u64 {
        for (ki, key) in keys.iter().enumerate() {
            let v = round * 1_000 + ki as u64;
            let s = if ki % 2 == 0 { &mut a } else { &mut b };
            put(s, &mut oracle, *key, v);
        }
    }

    // Kill the victim mid-stream; the survivors keep committing —
    // every one of those acks rode a closed fsync window.
    cluster.kill_partition(1, 1);
    for round in 11..=18u64 {
        for (ki, key) in keys.iter().enumerate() {
            if ki % 2 == 0 {
                put(&mut a, &mut oracle, *key, round * 1_000 + ki as u64);
            }
        }
    }
    cluster.restart_partition(1, 1);
    for round in 19..=22u64 {
        for (ki, key) in keys.iter().enumerate() {
            if ki % 2 == 1 {
                put(&mut b, &mut oracle, *key, round * 1_000 + ki as u64);
            }
        }
    }

    for dc in 0..2u8 {
        let mut reader = cluster.session(dc);
        expect_converges(
            &mut reader,
            &oracle,
            Duration::from_secs(10),
            &format!("DC {dc} after kill/restart under Window"),
        );
    }
    assert_eq!(cluster.tcp_dropped_frames(), 0);
    cluster.stop();
    let _ = std::fs::remove_dir_all(&root);
}

/// Flips bytes inside the victim's newest WAL generation between kill
/// and restart. Recovery must stay total — truncate at the damage, no
/// panic — and since the victim's log held only *replicated* state (all
/// writers lived elsewhere), catch-up from the sibling must still
/// converge the cluster to the full acknowledged state.
#[test]
fn corrupted_wal_tail_recovers_and_catches_up() {
    let root = tmp_root("corrupt");
    let mut cluster = ClusterBuilder::new()
        .dcs(2)
        .partitions(2)
        .durable(&root)
        .fsync(FsyncPolicy::Always)
        .checkpoint_interval(Duration::ZERO) // one generation: damage it
        .replication_tick(Duration::from_millis(1))
        .gossip_tick(Duration::from_millis(2))
        .session_timeout(Duration::from_secs(10))
        .build();

    let mut w = session_at(&cluster, 0, 0);
    let keys: Vec<Key> = (0..6u64).map(Key).collect();
    let mut oracle = HashMap::new();
    for round in 1..=10u64 {
        for (ki, key) in keys.iter().enumerate() {
            put(&mut w, &mut oracle, *key, round * 100 + ki as u64);
        }
    }
    // Let replication land on the victim before the crash.
    std::thread::sleep(Duration::from_millis(50));

    cluster.kill_partition(1, 1);
    corrupt_newest_wal(&root.join("dc1_p1"));
    cluster.restart_partition(1, 1);

    for dc in 0..2u8 {
        let mut reader = cluster.session(dc);
        expect_converges(
            &mut reader,
            &oracle,
            Duration::from_secs(10),
            &format!("DC {dc} after corrupted-tail restart"),
        );
    }
    cluster.stop();
    let _ = std::fs::remove_dir_all(&root);
}

/// Damages the highest-numbered `wal.N` in `dir`: one byte flipped
/// around 60% of the file and the final byte, emulating bit rot plus a
/// torn write.
fn corrupt_newest_wal(dir: &Path) {
    let mut newest: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if let Some(n) = name.strip_prefix("wal.").and_then(|s| s.parse::<u64>().ok()) {
            if newest.as_ref().is_none_or(|(m, _)| n > *m) {
                newest = Some((n, path));
            }
        }
    }
    let (_, path) = newest.expect("victim must have a WAL");
    let mut bytes = std::fs::read(&path).unwrap();
    assert!(!bytes.is_empty(), "victim WAL must not be empty");
    let mid = bytes.len() * 6 / 10;
    bytes[mid] ^= 0x40;
    *bytes.last_mut().unwrap() ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
}

/// Graceful shutdown seals every log (flushing even under
/// `FsyncPolicy::Off`), and a cold start from the same directory serves
/// everything back — the recovery path with no crash and no catch-up.
#[test]
fn graceful_stop_then_cold_start_serves_everything() {
    let root = tmp_root("coldstart");
    let keys: Vec<Key> = (0..6u64).map(Key).collect();
    let mut oracle = HashMap::new();
    {
        let cluster = ClusterBuilder::new()
            .dcs(2)
            .partitions(2)
            .durable(&root)
            .fsync(FsyncPolicy::Off) // the seal, not the policy, must save us
            .build();
        let mut w0 = cluster.session(0);
        let mut w1 = cluster.session(1);
        for round in 1..=8u64 {
            for (ki, key) in keys.iter().enumerate() {
                let v = round * 10 + ki as u64;
                let s = if ki % 2 == 0 { &mut w0 } else { &mut w1 };
                put(s, &mut oracle, *key, v);
            }
        }
        cluster.stop();
    }

    let cluster = ClusterBuilder::new()
        .dcs(2)
        .partitions(2)
        .durable(&root)
        .build();
    for dc in 0..2u8 {
        let mut reader = cluster.session(dc);
        expect_converges(
            &mut reader,
            &oracle,
            Duration::from_secs(10),
            &format!("DC {dc} after cold start"),
        );
    }
    cluster.stop();
    let _ = std::fs::remove_dir_all(&root);
}

/// Commits `value` to `key` — one key, so one partition — and polls
/// read-only transactions from a second session until they return it.
/// How long the write stayed invisible after its acknowledgement.
fn visibility_lag(cluster: &Cluster, key: Key, value: u64) -> Duration {
    let mut writer = cluster.session(0);
    let mut reader = cluster.session(0);
    writer.begin().unwrap();
    writer.write(key, bval(value));
    writer.commit().unwrap();
    let acked = Instant::now();
    loop {
        reader.begin().unwrap();
        let got = reader.read_one(key).unwrap();
        reader.commit().unwrap();
        if got == Some(bval(value)) {
            return acked.elapsed();
        }
        assert!(
            acked.elapsed() < Duration::from_secs(10),
            "{key:?} = {value} never became visible; last read {got:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A durable directory that holds nothing has no previous life to order
/// after: recovery must not push the hybrid clock a second ahead of the
/// cluster's physical time, or a write that does not touch every
/// partition waits that second out before any other session can see it
/// (the untouched partition's version clock only follows physical time).
#[test]
fn fresh_durable_cluster_does_not_start_in_the_future() {
    let root = tmp_root("fresh-clock");
    let cluster = ClusterBuilder::new()
        .dcs(1)
        .partitions(2)
        .durable(&root)
        .build();
    let lag = visibility_lag(&cluster, Key(0), 1);
    assert!(
        lag < Duration::from_millis(100),
        "a single-partition write on a fresh durable cluster took {lag:?} to become visible"
    );
    cluster.stop();
    let _ = std::fs::remove_dir_all(&root);
}

/// A cluster rebuilt on a used directory must start physical time at or
/// above every timestamp its partitions recovered. Restarting it at zero
/// under the recovered hybrid clocks hides every new single-partition
/// write for as long as the previous life ran (plus recovery's margin).
#[test]
fn reopened_cluster_does_not_hide_new_writes() {
    let root = tmp_root("reopen-clock");
    let build = || {
        ClusterBuilder::new()
            .dcs(1)
            .partitions(2)
            .durable(&root)
            .build()
    };
    {
        let cluster = build();
        let lived = Instant::now();
        let mut oracle = HashMap::new();
        let mut w = cluster.session(0);
        while lived.elapsed() < Duration::from_millis(350) {
            put(
                &mut w,
                &mut oracle,
                Key(7),
                lived.elapsed().as_micros() as u64,
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(w);
        cluster.stop();
    }
    let cluster = build();
    let lag = visibility_lag(&cluster, Key(0), 2);
    assert!(
        lag < Duration::from_millis(100),
        "a new write on the reopened cluster took {lag:?} to become visible"
    );
    cluster.stop();
    let _ = std::fs::remove_dir_all(&root);
}
