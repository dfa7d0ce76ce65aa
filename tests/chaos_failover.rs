//! The chaos failover oracle: a live multi-DC TCP cluster under a
//! **seeded** storm of injected network faults (drops that sever links,
//! duplicates, delay/reorder, refused dials, a full inter-DC partition)
//! interleaved with abrupt kill-and-restart cycles — while client
//! traffic keeps flowing. After the storm heals, every DC must converge
//! to **exactly the acknowledged write set**: nothing acknowledged may
//! be lost, nothing unacknowledged may survive.
//!
//! Determinism: every random choice — the fault dice inside the
//! [`FaultPlan`], the schedule of rate flips, severs and kills — derives
//! from one seed, printed at the start of each run. A red run replays
//! with `CHAOS_SEED=<seed> cargo test --test chaos_failover`.
//!
//! Why the oracle is exact: writers are per-key with strictly increasing
//! values, the session layer never re-sends a commit (so a commit is
//! acknowledged at most once), and an unacknowledged commit can only be
//! the coordinator's in-doubt abort — which fixes the outcome as ABORT
//! before any client-visible timeout fires. Acknowledged ⟺ applied.

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use wren::protocol::{Key, ServerId};
use wren::rt::{Cluster, ClusterBuilder, FaultPlan, FsyncPolicy, RtError, Session};

fn bval(i: u64) -> Bytes {
    Bytes::from(i.to_le_bytes().to_vec())
}

fn tmp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wren-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The run's seed: `CHAOS_SEED` if set (replay), a fixed default
/// otherwise (CI stays reproducible without an env var).
fn chaos_seed() -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => s.parse().expect("CHAOS_SEED must be a u64"),
        Err(_) => 0xC4A0_5EED,
    }
}

fn session_at(cluster: &Cluster, dc: u8, p: u16) -> Session {
    for _ in 0..cluster.n_partitions() {
        let s = cluster.session(dc);
        if s.coordinator() == ServerId::new(dc, p) {
            return s;
        }
    }
    unreachable!("round-robin must cycle through every partition");
}

/// One write attempt. Only an acknowledged commit updates the oracle;
/// an error (in-doubt abort, retry budget exhausted mid-storm) leaves
/// the oracle untouched — exactly the at-most-once contract the final
/// convergence check verifies.
fn try_put(session: &mut Session, oracle: &mut HashMap<Key, u64>, key: Key, value: u64) {
    if session.begin().is_err() {
        return;
    }
    session.write(key, bval(value));
    if session.commit().is_ok() {
        oracle.insert(key, value);
    }
}

/// On oracle failure, prints the tail of every partition's tx-lifecycle
/// trace ring before panicking — the chaos post-mortem: what each
/// partition last saw (begins, prepares, decisions, in-doubt aborts,
/// applies, stable raises, kills, restarts, link churn) leading up to
/// the divergence, without re-running the seed under a debugger.
fn dump_traces(cluster: &Cluster, what: &str) {
    const TAIL: usize = 40;
    eprintln!("{what}: partition trace rings (oldest of the tail first):");
    for (server, events) in cluster.dump_traces() {
        let skip = events.len().saturating_sub(TAIL);
        eprintln!("  {server}: {} events, showing {}", events.len(), events.len() - skip);
        for ev in &events[skip..] {
            eprintln!("    {ev:?}");
        }
    }
}

/// Polls until one snapshot serves every `(key, value)` pair in
/// `expected`; transient read errors retry. Panics (with the seed in
/// `what`, after dumping every partition's trace ring) at the deadline.
fn expect_converges(
    cluster: &Cluster,
    session: &mut Session,
    expected: &HashMap<Key, u64>,
    timeout: Duration,
    what: &str,
) {
    let deadline = Instant::now() + timeout;
    let keys: Vec<Key> = expected.keys().copied().collect();
    let mut last = None;
    loop {
        if session.begin().is_ok() {
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
                // Nonblocking reads: after the storm heals, a read may
                // ride out link churn (retried inside the session) but
                // must never *block* — a timeout here is a failure of
                // the paper's core claim, not a transient.
                Err(RtError::Timeout) => {
                    dump_traces(cluster, what);
                    panic!("{what}: a read blocked (timed out)");
                }
                Err(_) => {}
            }
        }
        if Instant::now() >= deadline {
            dump_traces(cluster, what);
            panic!("{what}: did not converge to the acknowledged write set; last {last:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Drives the reactor fabric through the storm. The seed feeds both the
/// fault plan and the schedule RNG, so the whole run replays from one
/// number.
#[test]
fn chaos_failover_reactor_fabric() {
    let seed = chaos_seed();
    eprintln!("chaos_failover[reactor]: seed = {seed} (replay with CHAOS_SEED={seed})");
    let mut rng = SmallRng::seed_from_u64(seed);
    let plan = FaultPlan::seeded(seed);
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
        // A commit whose cohort died mid-storm ends as the
        // coordinator's in-doubt abort, *reported* to the session as an
        // explicit abort reply (`RtError::Aborted`) as soon as
        // `tx_abort_timeout` fires — the stall is the abort timeout,
        // not this session timeout. Keep the session timeout
        // comfortably above it anyway: the exactness argument needs
        // the abort decided before the client could give up on its own.
        .session_timeout(Duration::from_millis(1_200))
        .dial_retry_budget(Duration::from_millis(300))
        .tx_abort_timeout(Duration::from_millis(300))
        .fault_plan(plan.clone())
        .build();

    // Writers live on partition 0 of each DC; kills only ever target
    // partition 1, so a writer's coordinator is never the victim (its
    // 2PC cohort and its replication sibling are — that's the storm).
    let mut writers = [session_at(&cluster, 0, 0), session_at(&cluster, 1, 0)];
    let keys: Vec<Key> = (0..8u64).map(Key).collect();
    let mut oracle = HashMap::new();
    let mut value = 0u64;

    for round in 0..4u32 {
        // Each round rolls its own weather: mild frame chaos always,
        // sometimes an inter-DC partition, sometimes a kill/restart.
        plan.set_rates(
            rng.gen_range(0.0..0.03),
            rng.gen_range(0.0..0.08),
            rng.gen_range(0.0..0.08),
        );
        let island = round > 0 && rng.gen::<f64>() < 0.5;
        if island {
            let dc = rng.gen_range(0..2u8);
            let group: Vec<ServerId> =
                (0..cluster.n_partitions()).map(|p| ServerId::new(dc, p)).collect();
            plan.partition(&group);
        }
        let victim = if round > 0 && rng.gen::<f64>() < 0.7 {
            let dc = rng.gen_range(0..2u8);
            cluster.kill_partition(dc, 1);
            Some(dc)
        } else {
            None
        };

        for _ in 0..4 {
            for (ki, key) in keys.iter().enumerate() {
                value += 1;
                let w = rng.gen_range(0..2usize);
                try_put(&mut writers[w], &mut oracle, *key, value * 10 + ki as u64);
            }
            std::thread::sleep(Duration::from_millis(rng.gen_range(1..5)));
        }

        if let Some(dc) = victim {
            std::thread::sleep(Duration::from_millis(rng.gen_range(10..40)));
            cluster.restart_partition(dc, 1);
        }
        if island {
            plan.heal();
        }
    }

    // Heal completely, then fence: a healthy write per key pins the
    // final expected value and proves both writers outlived the storm.
    plan.set_rates(0.0, 0.0, 0.0);
    plan.heal();
    for (ki, key) in keys.iter().enumerate() {
        value += 1;
        try_put(&mut writers[ki % 2], &mut oracle, *key, value * 10 + ki as u64);
    }
    assert!(
        !oracle.is_empty(),
        "seed {seed}: the storm must not have starved every commit"
    );

    // Quiesce: catch-up windows, re-dials and stabilization settle.
    std::thread::sleep(Duration::from_millis(200));
    for dc in 0..2u8 {
        let mut reader = cluster.session(dc);
        expect_converges(
            &cluster,
            &mut reader,
            &oracle,
            Duration::from_secs(20),
            &format!("reactor seed {seed}: DC {dc} after the storm"),
        );
    }
    assert!(
        plan.stats().injected() > 0,
        "seed {seed}: the run injected no faults at all: {:?}",
        plan.stats()
    );
    eprintln!(
        "chaos_failover[reactor]: converged; injected = {:?}",
        plan.stats()
    );
    cluster.stop();
    let _ = std::fs::remove_dir_all(&root);
}
