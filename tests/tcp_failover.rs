//! Partition failover over the **live TCP fabric**: the same
//! kill-and-restart oracle `crash_recovery.rs` runs over in-process
//! channels, executed against real sockets — the victim's listener
//! closes, every one of its connections dies, peers park the dead link
//! and re-dial with backoff, sessions reconnect and retry — plus
//! targeted checks for the pieces channels cannot exercise: riding out
//! a coordinator restart inside one session, and catch-up after a
//! fault-injected link sever.

use bytes::Bytes;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use wren::protocol::{Key, ServerId};
use wren::rt::{Cluster, ClusterBuilder, FaultPlan, FsyncPolicy, RtError, Session};

fn bval(i: u64) -> Bytes {
    Bytes::from(i.to_le_bytes().to_vec())
}

fn tmp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wren-tcpfail-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Allocates sessions until one lands on the wanted coordinator
/// (round-robin guarantees a hit within `n_partitions` tries).
fn session_at(cluster: &Cluster, dc: u8, p: u16) -> Session {
    for _ in 0..cluster.n_partitions() {
        let s = cluster.session(dc);
        if s.coordinator() == ServerId::new(dc, p) {
            return s;
        }
    }
    unreachable!("round-robin must cycle through every partition");
}

/// Polls until one snapshot serves every `(key, value)` pair in
/// `expected`, or panics at the deadline. Transient session errors
/// (a link still re-dialing) retry rather than fail.
fn expect_converges(
    session: &mut Session,
    expected: &HashMap<Key, u64>,
    timeout: Duration,
    what: &str,
) {
    let deadline = Instant::now() + timeout;
    let keys: Vec<Key> = expected.keys().copied().collect();
    let mut last = None;
    loop {
        session.begin().unwrap();
        match session.read(&keys) {
            Ok(got) => {
                let _ = session.commit();
                let ok = got.iter().all(|(k, v)| {
                    v.as_ref().map(|b| u64::from_le_bytes(b.as_ref().try_into().unwrap()))
                        == Some(expected[k])
                });
                if ok {
                    return;
                }
                last = Some(got);
            }
            // Link churn retries; a *timeout* is a blocked read, which
            // nonblocking reads forbid even right after a failover.
            Err(RtError::Timeout) => panic!("{what}: a read blocked (timed out)"),
            Err(_) => {}
        }
        if Instant::now() >= deadline {
            panic!("{what}: did not converge to the acknowledged state; last snapshot {last:?}");
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

/// The crash-recovery oracle over real sockets: a partition dies
/// abruptly (listener closed, connections severed), traffic continues
/// around it, and after restart every DC converges to exactly the
/// acknowledged writer-per-key state — the sibling re-ships what died
/// in flight, the WAL re-materializes what the victim itself
/// acknowledged. The restart rebinds the same address with
/// `SO_REUSEADDR`, and peers re-dial it.
#[test]
fn kill_and_restart_preserves_writes_over_tcp() {
    let root = tmp_root("reactor");
    let mut cluster = ClusterBuilder::new()
        .dcs(2)
        .partitions(2)
        .tcp()
        .durable(&root)
        .fsync(FsyncPolicy::Always)
        .checkpoint_interval(Duration::from_millis(25))
        .replication_tick(Duration::from_millis(1))
        .gossip_tick(Duration::from_millis(2))
        .session_timeout(Duration::from_secs(10))
        .build();

    // Writers on partition 0 in each DC: the victim is (1,1).
    let mut a = session_at(&cluster, 0, 0);
    let mut b = session_at(&cluster, 1, 0);
    let keys: Vec<Key> = (0..8u64).map(Key).collect();
    let mut oracle = HashMap::new();

    // Phase 1: both DCs write, checkpoints rotating underneath.
    for round in 1..=8u64 {
        for (ki, key) in keys.iter().enumerate() {
            let v = round * 1_000 + ki as u64;
            let s = if ki % 2 == 0 { &mut a } else { &mut b };
            put(s, &mut oracle, *key, v);
        }
    }

    // Phase 2: kill (1,1); DC 0 keeps writing through the outage
    // (its replication frames to the victim die with the sockets).
    cluster.kill_partition(1, 1);
    for round in 9..=14u64 {
        for (ki, key) in keys.iter().enumerate() {
            if ki % 2 == 0 {
                put(&mut a, &mut oracle, *key, round * 1_000 + ki as u64);
            }
        }
    }

    // Phase 3: restart — the address rebinds, peers un-park their
    // links, recovery + catch-up + stabilization run. The pre-kill
    // DC-1 session must keep working across the outage.
    cluster.restart_partition(1, 1);
    for round in 15..=18u64 {
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
            Duration::from_secs(15),
            &format!("reactor: DC {dc} after kill/restart"),
        );
    }
    cluster.stop();
    let _ = std::fs::remove_dir_all(&root);
}

/// A session whose **coordinator** is the victim: its socket dies with
/// the kill, and after the restart the same session object must
/// transparently re-dial and keep serving — begins and reads retry over
/// a fresh connection, session guarantees intact.
#[test]
fn session_rides_out_coordinator_restart() {
    let root = tmp_root("ride-out");
    let mut cluster = ClusterBuilder::new()
        .dcs(2)
        .partitions(2)
        .tcp()
        .durable(&root)
        .fsync(FsyncPolicy::Always)
        .replication_tick(Duration::from_millis(1))
        .gossip_tick(Duration::from_millis(2))
        .session_timeout(Duration::from_secs(10))
        .dial_retry_budget(Duration::from_millis(500))
        .build();

    let mut s = session_at(&cluster, 0, 1);
    let mut oracle = HashMap::new();
    for (i, key) in (0..4u64).map(Key).enumerate() {
        put(&mut s, &mut oracle, key, 100 + i as u64);
    }

    cluster.kill_partition(0, 1);
    std::thread::sleep(Duration::from_millis(30));
    cluster.restart_partition(0, 1);

    // Same session, same coordinator, new socket underneath: writes
    // land and its own earlier writes stay visible (read-your-writes
    // across a coordinator crash).
    for (i, key) in (0..4u64).map(Key).enumerate() {
        put(&mut s, &mut oracle, key, 200 + i as u64);
    }
    expect_converges(
        &mut s,
        &oracle,
        Duration::from_secs(15),
        "victim-coordinator session after restart",
    );
    cluster.stop();
    let _ = std::fs::remove_dir_all(&root);
}

/// A cohort dies mid-prepare: the coordinator's in-doubt abort must be
/// **told** to the session — an explicit abort verdict (`RtError::
/// Aborted`) arriving around `tx_abort_timeout` — instead of the
/// session riding out its own much longer timeout in silence. The abort
/// is also visible in the merged metrics, server-side
/// (`tx_aborts_indoubt`) and client-side (`session_tx_aborted`), and
/// because the outcome is *known* (nothing applied) the same session
/// can immediately run its next transaction.
#[test]
fn indoubt_abort_replies_before_session_timeout() {
    let root = tmp_root("indoubt");
    let abort_after = Duration::from_millis(300);
    let session_timeout = Duration::from_secs(10);
    let mut cluster = ClusterBuilder::new()
        .dcs(1)
        .partitions(2)
        .tcp()
        .durable(&root)
        .fsync(FsyncPolicy::Always)
        .replication_tick(Duration::from_millis(1))
        .gossip_tick(Duration::from_millis(2))
        .session_timeout(session_timeout)
        .tx_abort_timeout(abort_after)
        .build();

    // A key owned by partition 1, written through a partition-0
    // coordinator: committing it needs a 2PC vote from partition 1.
    let victim = ServerId::new(0, 1);
    let remote_key = (0..u64::MAX)
        .map(Key)
        .find(|k| k.partition(2) == victim.partition)
        .expect("some key lands on partition 1");
    let mut s = session_at(&cluster, 0, 0);

    s.begin().unwrap();
    s.write(remote_key, bval(7));
    // Kill the cohort before the commit fans out: its prepare dies with
    // the sockets, the vote never arrives, the round is in doubt.
    cluster.kill_partition(0, 1);
    let started = Instant::now();
    let err = s
        .commit()
        .expect_err("the cohort is dead; the 2PC round must abort");
    let waited = started.elapsed();
    assert_eq!(
        err,
        RtError::Aborted,
        "the coordinator must report the abort explicitly"
    );
    assert!(
        waited >= abort_after / 2,
        "an abort verdict cannot precede the in-doubt timer; waited {waited:?}"
    );
    assert!(
        waited < session_timeout / 2,
        "the abort reply must arrive around tx_abort_timeout ({abort_after:?}), \
         not the session timeout ({session_timeout:?}); waited {waited:?}"
    );

    let snap = cluster.metrics();
    assert!(
        snap.counter("tx_aborts_indoubt") >= 1,
        "the coordinator must count the in-doubt abort: {:?}",
        snap.counters
    );
    assert!(
        snap.counter("session_tx_aborted") >= 1,
        "the session must count the explicit abort: {:?}",
        snap.counters
    );

    // Known outcome: nothing was applied, and the session is cleanly
    // reusable. After the victim restarts, the aborted write must not
    // have survived anywhere.
    cluster.restart_partition(0, 1);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        s.begin().unwrap();
        match s.read_one(remote_key) {
            Ok(v) => {
                let _ = s.commit();
                assert_eq!(v, None, "the aborted write must not be visible");
                break;
            }
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("read after restart kept failing: {e}"),
        }
    }
    cluster.stop();
    let _ = std::fs::remove_dir_all(&root);
}

/// Cross-DC links severed by the fault plan (not a process death):
/// writes acknowledged inside the isolated DC must flow out after the
/// heal — EOF at the receiver opens the catch-up window, the sibling
/// re-scans, and the other DC converges without any restart.
#[test]
fn severed_links_catch_up_after_heal() {
    let plan = FaultPlan::seeded(0xD15C0);
    let cluster = ClusterBuilder::new()
        .dcs(2)
        .partitions(2)
        .tcp()
        .fault_plan(plan.clone())
        .replication_tick(Duration::from_millis(1))
        .gossip_tick(Duration::from_millis(2))
        .session_timeout(Duration::from_secs(10))
        .build();

    let mut w = session_at(&cluster, 0, 0);
    let keys: Vec<Key> = (0..6u64).map(Key).collect();
    let mut oracle = HashMap::new();
    for (ki, key) in keys.iter().enumerate() {
        put(&mut w, &mut oracle, *key, 1_000 + ki as u64);
    }

    // Island DC 0: replication and gossip frames crossing the boundary
    // sever their links; dials across it are refused.
    let dc0: Vec<ServerId> = (0..cluster.n_partitions()).map(|p| ServerId::new(0, p)).collect();
    plan.partition(&dc0);
    for (ki, key) in keys.iter().enumerate() {
        put(&mut w, &mut oracle, *key, 2_000 + ki as u64);
    }
    std::thread::sleep(Duration::from_millis(30));
    plan.heal();

    let mut reader = cluster.session(1);
    expect_converges(
        &mut reader,
        &oracle,
        Duration::from_secs(15),
        "DC 1 after partition heal",
    );
    assert!(
        plan.stats().injected() > 0,
        "the partition window must actually have severed traffic: {:?}",
        plan.stats()
    );
    cluster.stop();
}
