//! The cluster-level **power-cut** oracle: proof that the engine's hold
//! rule (`wren_core::asserts_logged_state`) is enough.
//!
//! `kill_partition` models `kill -9`: the page cache survives, so even
//! an open group-commit window loses nothing. `power_cut_partition`
//! takes the unsynced bytes too — the victim's active WAL is truncated
//! to its fsynced length. Under `FsyncPolicy::Window` the engines let
//! slices, read replies, prepare requests and abort notices leave while
//! the log has unsynced bytes, and hold only what asserts logged state;
//! this suite cuts power at seeded random instants under live
//! read-write and read-only traffic and checks that nothing anyone was
//! told is taken back.
//!
//! Shape of a run (2 DCs × 2 partitions, two session threads pinned to
//! every partition as their coordinator, so every cut hits a
//! coordinator, and a cohort of the other coordinator's commits):
//!
//! 1. **Storm.** The driver cuts and restarts partitions on a seeded
//!    schedule — both partitions of one DC in turn, then random victims;
//!    every other cut is *aimed*: it waits until a commit is in flight
//!    at the victim's coordinator and fires then.
//! 2. **Fence.** One all-keys transaction per DC; the LWW-larger of the
//!    two is newer than everything either DC wrote, so every DC must
//!    end up serving it on every key.
//! 3. **Ground truth.** After a graceful stop each partition is
//!    recovered offline from its directory and its version chains are
//!    read directly: they give the commit timestamp of *every*
//!    transaction, including those whose acknowledgement died with a
//!    coordinator. Against that the recorded histories are checked with
//!    `tests/common/oracle.rs` — causal snapshots, atomic visibility,
//!    read-your-writes, **monotonic reads across the cuts** (nothing a
//!    session observed may disappear) — and the stores themselves for
//!    acknowledged-writes-exactly: every acknowledged transaction whole
//!    in every DC at its acknowledged timestamp, every aborted one
//!    nowhere, every undecided one whole-or-nowhere, both DCs identical.
//!
//! Operations that overlap an outage in their own DC may fail (the
//! messages they waited for died with the victim). Every other
//! operation must succeed: a read timing out in a healthy DC is a
//! blocked read, and fails the run. The one failure allowed anywhere is
//! the coordinator's explicit in-doubt abort — a known, safe outcome,
//! and a timer that a stalled test machine can trip on its own.
//!
//! GC is off: ground truth needs every version (GC safety has its own
//! suite, `gc_safety.rs`). Each run prints its seed up front; replay a
//! red run with `CHAOS_SEED=<seed> cargo test --test power_cut`.

mod common;

use common::oracle::{Marker, Oracle, Order, SessionOracle, TxRecord};
use common::{decode_marker, marker};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::SeqCst};
use std::time::{Duration, Instant};
use wren::clock::{SkewedClock, Timestamp};
use wren::core::{WrenConfig, WrenServer};
use wren::protocol::{Key, ServerId};
use wren::rt::{Cluster, ClusterBuilder, FsyncPolicy, RtError, Session, TxEvent};

const N_DCS: u8 = 2;
const N_PARTITIONS: u16 = 2;
/// The keys the load reads and writes.
const POOL: u64 = 24;
/// Heal probes write here, outside the pool, so they never enter the
/// oracle.
const PROBE_KEYS: u64 = 10_000;
/// Client ids of the two fence writers (session ids count up from 0).
const FENCE_CLIENT: u32 = 9_000;
const SESSION_TIMEOUT: Duration = Duration::from_millis(1_000);
/// Load: this many session threads use each partition as coordinator.
const SESSIONS_PER_PARTITION: usize = 2;

fn tmp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wren-powercut-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn chaos_seed() -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => s.parse().expect("CHAOS_SEED must be a u64"),
        Err(_) => 0x90E2_C075,
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

/// The failure post-mortem: the tail of every partition's tx-lifecycle
/// trace ring.
fn print_traces(traces: Vec<(ServerId, Vec<TxEvent>)>, what: &str) {
    const TAIL: usize = 40;
    eprintln!("{what}: partition trace rings (oldest of the tail first):");
    for (server, events) in traces {
        let skip = events.len().saturating_sub(TAIL);
        eprintln!(
            "  {server}: {} events, showing {}",
            events.len(),
            events.len() - skip
        );
        for ev in &events[skip..] {
            eprintln!("    {ev:?}");
        }
    }
}

fn dump_traces(cluster: &Cluster, what: &str) {
    print_traces(cluster.dump_traces(), what);
}

/// What the driver and the session threads share.
struct Shared {
    stop: AtomicBool,
    /// Per DC: odd from the moment a cut starts until the DC has proven
    /// healthy again. An operation is *clean* iff it read the same even
    /// value before it started and after it returned.
    churn: [AtomicU64; N_DCS as usize],
    /// Per partition (DC-major): write commits in flight there.
    committing: [AtomicU32; (N_DCS as usize) * (N_PARTITIONS as usize)],
}

/// Tells the session threads to finish when dropped.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, SeqCst);
    }
}

/// How a session learned (or did not learn) a commit's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    Acked(Timestamp),
    /// The coordinator's explicit in-doubt abort.
    Aborted,
    /// The reply died with the coordinator: committed or not, decided
    /// by the log alone.
    Unknown,
}

/// One transaction as its session saw it.
struct TxLog {
    me: Marker,
    reads: Vec<(Key, Option<Marker>)>,
    writes: Vec<Key>,
    outcome: Outcome,
    /// The commit call's start and end (write transactions only).
    commit_span: Option<(Instant, Instant)>,
}

struct SessionLog {
    coordinator: ServerId,
    txs: Vec<TxLog>,
    ops: u64,
    excused: u64,
    /// Failures of operations that overlapped no outage in their DC.
    violations: Vec<String>,
}

/// One session thread: random read-only and read-write transactions
/// until told to stop, every outcome recorded.
fn session_loop(mut session: Session, shared: &Shared, seed: u64) -> SessionLog {
    let mut rng = SmallRng::seed_from_u64(seed);
    let coordinator = session.coordinator();
    let dc = coordinator.dc.0 as usize;
    let slot = coordinator.dc_major_index(N_PARTITIONS);
    let mut log = SessionLog {
        coordinator,
        txs: Vec::new(),
        ops: 0,
        excused: 0,
        violations: Vec::new(),
    };
    let mut seq = 0u32;
    while !shared.stop.load(SeqCst) {
        seq += 1;
        let me = (session.id().0, seq);
        let reads: Vec<Key> = (0..rng.gen_range(1..5))
            .map(|_| Key(rng.gen_range(0..POOL)))
            .collect();
        let mut writes: Vec<Key> = if rng.gen_range(0..4) == 0 {
            Vec::new() // read-only
        } else {
            (0..rng.gen_range(1..4))
                .map(|_| Key(rng.gen_range(0..POOL)))
                .collect()
        };
        writes.sort_unstable();
        writes.dedup();

        let before = shared.churn[dc].load(SeqCst);
        // Judges one finished operation: an error is excused only if an
        // outage in this DC overlapped it.
        let judge = |log: &mut SessionLog, what: &str, err: Option<&RtError>| {
            log.ops += 1;
            let Some(e) = err else { return };
            let healthy = before.is_multiple_of(2) && shared.churn[dc].load(SeqCst) == before;
            if healthy && !matches!(e, RtError::Aborted) {
                log.violations.push(format!(
                    "{me:?} at {coordinator}: {what} failed in a healthy DC: {e}"
                ));
            } else {
                log.excused += 1;
            }
        };

        if let Err(e) = session.begin() {
            judge(&mut log, "begin", Some(&e));
            continue;
        }
        judge(&mut log, "begin", None);
        let observed = match session.read(&reads) {
            Ok(got) => got,
            Err(e) => {
                judge(&mut log, "read", Some(&e));
                continue;
            }
        };
        judge(&mut log, "read", None);
        for k in &writes {
            session.write(*k, marker(me.0, me.1));
        }
        let started = Instant::now();
        if !writes.is_empty() {
            shared.committing[slot].fetch_add(1, SeqCst);
        }
        let verdict = session.commit();
        let ended = Instant::now();
        if !writes.is_empty() {
            shared.committing[slot].fetch_sub(1, SeqCst);
        }
        let outcome = match &verdict {
            Ok(ct) => Outcome::Acked(*ct),
            Err(RtError::Aborted) => Outcome::Aborted,
            Err(_) => Outcome::Unknown,
        };
        judge(&mut log, "commit", verdict.as_ref().err());
        log.txs.push(TxLog {
            me,
            reads: observed
                .iter()
                .map(|(k, v)| (*k, v.as_ref().map(decode_marker)))
                .collect(),
            commit_span: (!writes.is_empty()).then_some((started, ended)),
            writes,
            outcome,
        });
    }
    log
}

/// The first probe key at or above [`PROBE_KEYS`] owned by partition `p`.
fn probe_key(p: u16) -> Key {
    (PROBE_KEYS..)
        .map(Key)
        .find(|k| k.partition(N_PARTITIONS).index() == p as usize)
        .expect("some key lands on every partition")
}

/// Blocks until every coordinator of `dc` completes a transaction that
/// reads and writes on every partition of the DC — sessions reconnect,
/// peer links re-dial, the restarted partition votes — so that from
/// here on no operation in the DC has an excuse to fail.
fn await_healthy(cluster: &Cluster, probes: &mut [Session], dc: u8, what: &str) {
    let keys: Vec<Key> = (0..N_PARTITIONS).map(probe_key).collect();
    let deadline = Instant::now() + Duration::from_secs(20);
    for probe in probes.iter_mut().filter(|s| s.coordinator().dc.0 == dc) {
        loop {
            let done = probe.begin().is_ok() && probe.read(&keys).is_ok() && {
                for k in &keys {
                    probe.write(*k, marker(probe.id().0, 0));
                }
                probe.commit().is_ok()
            };
            if done {
                break;
            }
            if Instant::now() > deadline {
                dump_traces(cluster, what);
                panic!(
                    "{what}: DC {dc} did not heal through {}",
                    probe.coordinator()
                );
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Every pool key as `dc` serves it now.
fn view(cluster: &Cluster, session: &mut Session, what: &str) -> Option<Vec<Option<Marker>>> {
    let keys: Vec<Key> = (0..POOL).map(Key).collect();
    session.begin().ok()?;
    match session.read(&keys) {
        Ok(got) => {
            let _ = session.commit();
            Some(
                got.iter()
                    .map(|(_, v)| v.as_ref().map(decode_marker))
                    .collect(),
            )
        }
        Err(RtError::Timeout) => {
            dump_traces(cluster, what);
            panic!("{what}: a read blocked (timed out) on a healed cluster");
        }
        Err(_) => None,
    }
}

/// One version as a recovered store holds it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Stored {
    key: Key,
    by: Marker,
    ut: Timestamp,
    origin: u8,
    /// `TxId::raw`: the store's LWW tie-break.
    tx: u64,
}

/// Recovers partition `(dc, p)` offline from its directory and lists
/// every pool version in its store.
fn recovered_versions(root: &Path, dc: u8, p: u16) -> BTreeSet<Stored> {
    let server = WrenServer::recover(
        ServerId::new(dc, p),
        WrenConfig::new(N_DCS, N_PARTITIONS),
        SkewedClock::perfect(),
        &root.join(format!("dc{dc}_p{p}")),
        FsyncPolicy::Off,
    )
    .expect("offline recovery of a sealed directory");
    assert_eq!(
        server.prepared_len(),
        0,
        "({dc},{p}) stopped with a transaction still prepared"
    );
    assert_eq!(
        server.committed_len(),
        0,
        "({dc},{p}) stopped with a commit not yet applied"
    );
    let store = server.store();
    let mut versions = BTreeSet::new();
    for stripe in 0..store.n_stripes() {
        store.with_stripe(stripe, |s| {
            for (key, chain) in s.iter() {
                if key.0 >= PROBE_KEYS {
                    continue;
                }
                for v in chain.iter() {
                    versions.insert(Stored {
                        key: *key,
                        by: decode_marker(&v.value),
                        ut: v.ut,
                        origin: v.sr.0,
                        tx: v.tx.raw(),
                    });
                }
            }
        });
    }
    versions
}

/// Step 3 of the module docs: ground truth from the directories, then
/// every recorded history against it.
fn check_against_ground_truth(
    root: &Path,
    logs: &[SessionLog],
    fences: &[(Marker, Timestamp, u8)],
) {
    // The stores, per DC: identical everywhere, or replication lost or
    // invented something.
    let per_dc: Vec<BTreeSet<Stored>> = (0..N_DCS)
        .map(|dc| {
            (0..N_PARTITIONS)
                .flat_map(|p| recovered_versions(root, dc, p))
                .collect()
        })
        .collect();
    for dc in 1..N_DCS as usize {
        let (only_0, only_d): (Vec<_>, Vec<_>) = (
            per_dc[0].difference(&per_dc[dc]).collect(),
            per_dc[dc].difference(&per_dc[0]).collect(),
        );
        assert!(
            only_0.is_empty() && only_d.is_empty(),
            "DC 0 and DC {dc} diverged: only in DC 0 {only_0:?}; only in DC {dc} {only_d:?}"
        );
    }
    // One LWW order key — commit timestamp, origin, transaction id — and
    // one key set per transaction.
    let mut stored: HashMap<Marker, (Order, Vec<Key>)> = HashMap::new();
    for v in &per_dc[0] {
        let order = (v.ut, v.origin, v.tx);
        let e = stored.entry(v.by).or_insert((order, Vec::new()));
        assert_eq!(e.0, order, "{:?} is stored under two order keys", v.by);
        e.1.push(v.key);
    }

    // Acknowledged-writes-exactly, transaction by transaction.
    let mut oracle = Oracle::default();
    let (mut acked, mut aborted, mut unknown_kept, mut unknown_lost) = (0, 0, 0, 0);
    for log in logs {
        let dc = log.coordinator.dc.0;
        // What this session had observed or committed before each
        // transaction: its causal dependencies.
        let mut observed: Vec<Marker> = Vec::new();
        let mut last_commit = None;
        for tx in &log.txs {
            observed.extend(tx.reads.iter().filter_map(|(_, seen)| *seen));
            if tx.writes.is_empty() {
                continue;
            }
            let found = stored.get(&tx.me);
            match (tx.outcome, found) {
                (Outcome::Acked(ct), Some(((ut, origin, _), _))) => {
                    assert_eq!(
                        (ct, dc),
                        (*ut, *origin),
                        "{:?} acknowledged at {ct:?}, stored otherwise",
                        tx.me
                    );
                    acked += 1;
                }
                (Outcome::Acked(ct), None) => {
                    panic!(
                        "{:?} was acknowledged at {ct:?} and is in no store: lost",
                        tx.me
                    )
                }
                (Outcome::Aborted, Some(_)) => {
                    panic!("{:?} was aborted and is stored anyway", tx.me)
                }
                (Outcome::Aborted, None) => aborted += 1,
                (Outcome::Unknown, Some(_)) => unknown_kept += 1,
                (Outcome::Unknown, None) => unknown_lost += 1,
            }
            let Some((order, keys)) = found else { continue };
            let mut keys = keys.clone();
            keys.sort_unstable();
            assert_eq!(
                keys, tx.writes,
                "{:?} is stored in part: atomicity lost",
                tx.me
            );
            let mut deps = observed.clone();
            // Only an acknowledged commit orders the session's next one
            // after it; an undecided one never gave the client its `ct`.
            deps.extend(last_commit);
            if matches!(tx.outcome, Outcome::Acked(_)) {
                last_commit = Some(tx.me);
            }
            deps.sort_unstable();
            deps.dedup();
            oracle.txs.insert(
                tx.me,
                TxRecord {
                    order: *order,
                    writes: keys,
                    deps,
                },
            );
        }
    }
    for (me, ct, dc) in fences {
        let all: Vec<Key> = (0..POOL).map(Key).collect();
        let (order, keys) = stored
            .get(me)
            .unwrap_or_else(|| panic!("fence {me:?} is in no store"));
        assert_eq!(
            (order.0, order.1, keys),
            (*ct, *dc, &all),
            "fence {me:?} is not whole in the stores"
        );
        oracle.txs.insert(
            *me,
            TxRecord {
                order: *order,
                writes: all,
                deps: Vec::new(),
            },
        );
    }
    assert_eq!(
        oracle.txs.len(),
        stored.len(),
        "the stores hold transactions no session issued: {:?}",
        stored
            .keys()
            .filter(|m| !oracle.txs.contains_key(m))
            .collect::<Vec<_>>()
    );

    // Every snapshot any session was served, in session order, against
    // the complete oracle.
    let mut snapshots = 0u64;
    for log in logs {
        let mut so = SessionOracle::new();
        for tx in &log.txs {
            for (k, seen) in &tx.reads {
                if let Some(w) = seen {
                    assert!(
                        oracle.txs.contains_key(w),
                        "{:?} read {w:?} on {k:?}, a transaction no recovered store holds",
                        tx.me
                    );
                }
            }
            so.observe(&oracle, &tx.reads);
            snapshots += 1;
            // Read-your-writes binds acknowledged writes only. (The
            // record is already in the oracle, under the store's own
            // order key.)
            if matches!(tx.outcome, Outcome::Acked(_)) {
                so.own_writes.extend(tx.writes.iter().map(|k| (*k, tx.me)));
            }
        }
    }
    eprintln!(
        "  ground truth: {acked} acknowledged, {aborted} aborted, undecided {unknown_kept} kept / \
         {unknown_lost} lost; {snapshots} snapshots checked"
    );
    assert!(acked > 0, "the storm starved every commit");
}

/// One storm on one transport under one fsync policy.
fn power_cut_run(
    name: &str,
    transport: fn(ClusterBuilder) -> ClusterBuilder,
    policy: FsyncPolicy,
    seed: u64,
) {
    eprintln!("power_cut[{name}]: seed = {seed} (replay with CHAOS_SEED={seed})");
    let what = format!("power_cut[{name}] seed {seed}");
    let mut rng = SmallRng::seed_from_u64(seed);
    let root = tmp_root(name);
    let mut cluster = transport(ClusterBuilder::new().dcs(N_DCS).partitions(N_PARTITIONS))
        .durable(&root)
        .fsync(policy)
        // Rotations land inside the storm: a cut may follow a fresh
        // generation as well as a long one.
        .checkpoint_interval(Duration::from_millis(40))
        .replication_tick(Duration::from_millis(1))
        .gossip_tick(Duration::from_millis(2))
        .gc_tick(Duration::ZERO)
        // The abort verdict of a round whose cohort lost its vote must
        // reach the session before the session gives up on its own.
        .session_timeout(SESSION_TIMEOUT)
        .dial_retry_budget(Duration::from_millis(200))
        .tx_abort_timeout(Duration::from_millis(300))
        .build();

    let servers: Vec<ServerId> = (0..N_DCS)
        .flat_map(|dc| (0..N_PARTITIONS).map(move |p| ServerId::new(dc, p)))
        .collect();
    let sessions: Vec<Session> = (0..SESSIONS_PER_PARTITION)
        .flat_map(|_| {
            servers
                .iter()
                .map(|s| session_at(&cluster, s.dc.0, s.partition.0))
        })
        .collect();
    let mut probes: Vec<Session> = servers
        .iter()
        .map(|s| session_at(&cluster, s.dc.0, s.partition.0))
        .collect();
    let shared = Shared {
        stop: AtomicBool::new(false),
        churn: Default::default(),
        committing: Default::default(),
    };

    // Both partitions of one DC in turn, then random victims.
    let first_dc = rng.gen_range(0..N_DCS);
    let mut schedule: Vec<ServerId> = (0..N_PARTITIONS)
        .map(|p| ServerId::new(first_dc, p))
        .collect();
    schedule.extend((0..5).map(|_| servers[rng.gen_range(0..servers.len())]));
    let mut cuts: Vec<(ServerId, Instant)> = Vec::new();

    let logs: Vec<SessionLog> = std::thread::scope(|scope| {
        // A failed check below must not leave the sessions looping (the
        // scope would wait for them forever).
        let stop = StopOnDrop(&shared.stop);
        let handles: Vec<_> = sessions
            .into_iter()
            .enumerate()
            .map(|(i, session)| {
                let shared = &shared;
                scope.spawn(move || session_loop(session, shared, seed ^ (i as u64 + 1) << 32))
            })
            .collect();

        for (i, victim) in schedule.iter().enumerate() {
            let (dc, p) = (victim.dc.0, victim.partition.0);
            std::thread::sleep(Duration::from_millis(rng.gen_range(20..70)));
            if i % 2 == 0 {
                // Aimed: fire while a commit is in flight at the victim.
                let aim = Instant::now() + Duration::from_millis(200);
                let slot = victim.dc_major_index(N_PARTITIONS);
                while shared.committing[slot].load(SeqCst) == 0 && Instant::now() < aim {
                    std::thread::yield_now();
                }
            }
            shared.churn[dc as usize].fetch_add(1, SeqCst);
            cuts.push((*victim, Instant::now()));
            cluster.power_cut_partition(dc, p);
            std::thread::sleep(Duration::from_millis(rng.gen_range(5..30)));
            cluster.restart_partition(dc, p);
            await_healthy(&cluster, &mut probes, dc, &what);
            shared.churn[dc as usize].fetch_add(1, SeqCst);
        }
        std::thread::sleep(Duration::from_millis(100));
        drop(stop);
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread"))
            .collect()
    });

    // Nothing may fail without an outage to blame.
    let violations: Vec<&String> = logs.iter().flat_map(|l| &l.violations).collect();
    if !violations.is_empty() {
        dump_traces(&cluster, &what);
        panic!("{what}: operations failed in a healthy DC (a timeout is a blocked read): {violations:#?}");
    }
    assert!(!cuts.is_empty(), "{what}: injected cuts > 0");
    let mid_commit = cuts
        .iter()
        .filter(|(victim, at)| {
            logs.iter()
                .filter(|l| l.coordinator == *victim)
                .flat_map(|l| &l.txs)
                .any(|tx| {
                    tx.commit_span
                        .is_some_and(|(started, ended)| started < *at && *at < ended)
                })
        })
        .count();
    assert!(
        mid_commit > 0,
        "{what}: no cut landed on a coordinator with a commit in flight"
    );

    // The fence: the LWW-larger of one all-keys transaction per DC is
    // newer than everything either DC wrote, so it is what every DC
    // must converge to. (Commit timestamps of different DCs are not
    // ordered by real time here: each recovery pushes the victim's
    // hybrid clock past everything it may have issued.)
    let fences: Vec<(Marker, Timestamp, u8)> = (0..N_DCS)
        .map(|dc| {
            let me = (FENCE_CLIENT + dc as u32, 1);
            let mut s = cluster.session(dc);
            s.begin().expect("fence begin");
            s.write_many((0..POOL).map(|k| (Key(k), marker(me.0, me.1))));
            (me, s.commit().expect("fence commit"), dc)
        })
        .collect();
    let winner = fences
        .iter()
        .max_by_key(|(me, ct, dc)| (*ct, *dc, me.0))
        .expect("two fences")
        .0;
    let deadline = Instant::now() + Duration::from_secs(60);
    for dc in 0..N_DCS {
        let mut reader = cluster.session(dc);
        loop {
            let got = view(&cluster, &mut reader, &what);
            if got
                .as_ref()
                .is_some_and(|v| v.iter().all(|m| *m == Some(winner)))
            {
                break;
            }
            if Instant::now() > deadline {
                dump_traces(&cluster, &what);
                panic!(
                    "{what}: DC {dc} did not converge to the fence {winner:?}; last view {got:?}"
                );
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    assert_eq!(
        cluster.tcp_dropped_frames(),
        0,
        "{what}: the transport dropped frames"
    );

    let (ops, excused): (u64, u64) = logs
        .iter()
        .fold((0, 0), |(o, e), l| (o + l.ops, e + l.excused));
    eprintln!(
        "power_cut[{name}]: {} cuts ({mid_commit} with a commit in flight at the victim), \
         {ops} operations, {excused} failed across an outage or were aborted in doubt",
        cuts.len()
    );
    let traces = cluster.dump_traces();
    drop(probes);
    cluster.stop();
    let checked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        check_against_ground_truth(&root, &logs, &fences)
    }));
    if let Err(panic) = checked {
        print_traces(
            traces,
            &format!("{what}: ground-truth check failed; at stop"),
        );
        std::panic::resume_unwind(panic);
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Wide windows, so that at any instant most partitions have unsynced
/// bytes and held messages: the cut has something to take.
const WIDE_WINDOW: FsyncPolicy = FsyncPolicy::Window {
    max_delay: Duration::from_millis(5),
    max_bytes: 1 << 20,
};

fn channels(b: ClusterBuilder) -> ClusterBuilder {
    b
}

#[test]
fn power_cut_window_reactor_tcp() {
    power_cut_run("window-tcp", ClusterBuilder::tcp, WIDE_WINDOW, chaos_seed());
}

#[test]
fn power_cut_window_channels() {
    power_cut_run("window-chan", channels, WIDE_WINDOW, chaos_seed() ^ 1);
}

#[test]
fn power_cut_always_reactor_tcp() {
    power_cut_run(
        "always-tcp",
        ClusterBuilder::tcp,
        FsyncPolicy::Always,
        chaos_seed() ^ 2,
    );
}

#[test]
fn power_cut_always_channels() {
    power_cut_run(
        "always-chan",
        channels,
        FsyncPolicy::Always,
        chaos_seed() ^ 3,
    );
}
