//! The merged observability surface, end to end: after a durable
//! loopback (TCP) run, [`Cluster::metrics`] must hold non-zero counts
//! in every stage histogram the engines record on their hot paths —
//! commit stages, read slices, WAL fsyncs, visibility lag — plus the
//! fabric's socket-boundary counters and the session-op latencies; the
//! snapshot must render to Prometheus text and diff cleanly; and the
//! per-partition tx-lifecycle trace rings must hold the run's protocol
//! events in order.

use bytes::Bytes;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use wren::clock::{SkewedClock, Timestamp};
use wren::core::{WrenConfig, WrenServer};
use wren::protocol::{DcId, Key, ServerId, TxId, WrenVersion};
use wren::rt::{Cluster, ClusterBuilder, FsyncPolicy, TxEvent};

fn bval(i: u64) -> Bytes {
    Bytes::from(i.to_le_bytes().to_vec())
}

fn tmp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wren-obs-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs enough traffic through `cluster` that every instrumented stage
/// fires: cross-partition writes (2PC prepare/decide, WAL appends,
/// replication applies), server-fetched reads (slices), and a remote
/// reader polling until replication + stabilization deliver the writes
/// (stable raises → visibility-lag samples).
fn drive(cluster: &Cluster) -> HashMap<Key, u64> {
    let keys: Vec<Key> = (0..8u64).map(Key).collect();
    let mut writer = cluster.session(0);
    let mut oracle = HashMap::new();
    for round in 1..=10u64 {
        writer.begin().unwrap();
        for (ki, key) in keys.iter().enumerate() {
            let v = round * 100 + ki as u64;
            writer.write(*key, bval(v));
            oracle.insert(*key, v);
        }
        writer.commit().unwrap();
    }
    // A fresh remote-DC session has nothing cached: its reads are
    // server-fetched slices at the (lagging) stable snapshot. Poll
    // until the last round is visible there.
    let mut reader = cluster.session(cluster.n_dcs() - 1);
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        reader.begin().unwrap();
        let got = reader.read(&keys).unwrap();
        let _ = reader.commit();
        let ok = got.iter().all(|(k, v)| {
            v.as_ref()
                .map(|b| u64::from_le_bytes(b.as_ref().try_into().unwrap()))
                == Some(oracle[k])
        });
        if ok {
            return oracle;
        }
        assert!(
            Instant::now() < deadline,
            "remote DC never converged; last snapshot {got:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The tentpole's acceptance check: a durable loopback run leaves
/// non-zero counts in the commit-stage, read, WAL-fsync and
/// visibility-lag histograms of the merged snapshot — and in the
/// session / fabric layers recorded around them.
#[test]
fn merged_snapshot_covers_every_layer_after_loopback_run() {
    let root = tmp_root("layers");
    let cluster = ClusterBuilder::new()
        .dcs(2)
        .partitions(2)
        .tcp()
        .durable(&root)
        .fsync(FsyncPolicy::Always)
        .replication_tick(Duration::from_millis(1))
        .gossip_tick(Duration::from_millis(2))
        // Several GC ticks inside even the fastest run.
        .gc_tick(Duration::from_millis(5))
        // Exercise the delta-logger thread too (output goes to stderr;
        // the assertion is that it runs and stops cleanly).
        .metrics_every(Duration::from_millis(50))
        .build();

    let before = cluster.metrics();
    drive(&cluster);
    // The store gauges are as of a partition's last GC tick: wait for
    // one that has seen the writes.
    let deadline = Instant::now() + Duration::from_secs(20);
    let snap = loop {
        let snap = cluster.metrics();
        if snap.gauges.get("store_versions").is_some_and(|v| *v > 0) {
            break snap;
        }
        assert!(Instant::now() < deadline, "no GC tick published the store gauges");
        std::thread::sleep(Duration::from_millis(2));
    };

    // Engine hot paths, merged across partitions (unprefixed names).
    for h in [
        "commit_prepare_micros",
        "commit_decide_micros",
        "commit_apply_micros",
        "read_slice_micros",
        "wal_fsync_micros",
        "wal_append_bytes",
        // Group-commit width: under `Always` every commit point syncs
        // alone, so the histogram records a stream of 1s — present and
        // non-empty is the contract here; width > 1 is the Window
        // test's business.
        "wal_group_commit_size",
        // Vectored outbox drains: every writev records how many frames
        // it completed.
        "fabric_writev_frames_per_call",
        "replication_batch_txs",
        "visibility_lag_local_micros",
        "visibility_lag_remote_micros",
        // One sample per GC tick, whether or not it found work.
        "gc_tick_micros",
        // Session-side operation latencies.
        "session_begin_micros",
        "session_read_micros",
        "session_commit_micros",
    ] {
        let hist = snap
            .histogram(h)
            .unwrap_or_else(|| panic!("histogram {h} missing from the merged snapshot"));
        assert!(hist.count > 0, "histogram {h} recorded nothing");
        assert!(hist.max >= hist.p50(), "histogram {h} has inconsistent stats");
    }
    // Socket boundary: frames flowed both ways, connections were made.
    for c in ["tcp_frames_out", "tcp_frames_in", "tcp_bytes_out", "tcp_bytes_in", "tcp_conns_accepted"] {
        assert!(snap.counter(c) > 0, "fabric counter {c} is zero");
    }
    assert_eq!(snap.counter("tcp_dropped_frames"), 0, "healthy run dropped frames");
    assert!(snap.counter("slices_served") > 0, "no slices served");
    assert!(snap.counter("keys_read") > 0, "no keys read");
    assert!(snap.counter("gossip_msgs_sent") > 0, "no stabilization message counted");
    // The replication side of the metadata price: heartbeats, and the
    // version-clock advances made by the tick and by committed or
    // heard timestamps.
    for c in ["heartbeats_sent", "vv_advances_tick", "vv_advances_event"] {
        assert!(snap.counter(c) > 0, "replication counter {c} is zero");
    }
    // What the stores hold (a merged gauge is the largest partition's):
    // the run's 8 keys are spread over 2 partitions.
    for g in ["store_keys", "store_versions", "store_heap_bytes"] {
        assert!(snap.gauges.get(g).is_some_and(|v| *v > 0), "gauge {g} unset: {:?}", snap.gauges);
    }
    assert!(snap.gauges.contains_key("store_multi_version_chains"));
    assert!(snap.gauges["store_keys"] <= 8, "{:?}", snap.gauges);
    // `Always` syncs at the commit point itself: nothing ever waits in
    // the engines' hold set (the Window twin of this is below).
    assert_eq!(
        snap.histogram("engine_held_wait_micros")
            .map_or(0, |h| h.count),
        0,
        "a message was held under FsyncPolicy::Always"
    );

    // The snapshot diffs cleanly: the delta is exactly what moved
    // between the two snapshots (gossip frames were already flowing
    // when `before` was taken, so the delta is a strict subtraction).
    let delta = snap.diff(&before);
    assert_eq!(
        delta.counter("tcp_frames_out"),
        snap.counter("tcp_frames_out") - before.counter("tcp_frames_out")
    );
    let prep_before = before.histogram("commit_prepare_micros").map_or(0, |h| h.count);
    assert_eq!(
        delta.histogram("commit_prepare_micros").unwrap().count,
        snap.histogram("commit_prepare_micros").unwrap().count - prep_before
    );
    assert!(delta.histogram("commit_prepare_micros").unwrap().count > 0);

    // Prometheus exposition renders every layer with stable series.
    let page = snap.render_prometheus();
    for needle in [
        "# TYPE commit_prepare_micros summary",
        "commit_prepare_micros{quantile=\"0.99\"}",
        "wal_fsync_micros_count",
        "# TYPE tcp_frames_out counter",
        "session_commit_micros{quantile=\"0.5\"}",
        "gc_tick_micros_count",
        "# TYPE gc_versions_removed counter",
        "# TYPE store_keys gauge",
        "# TYPE store_versions gauge",
        "# TYPE store_multi_version_chains gauge",
        "# TYPE store_heap_bytes gauge",
    ] {
        assert!(page.contains(needle), "exposition page lacks {needle:?}:\n{page}");
    }

    cluster.stop();
    let _ = std::fs::remove_dir_all(&root);
}

/// The GC and store series agree with their sources: after a preload,
/// an overwrite and a GC round, the four `store_*` gauges are exactly
/// `store().stats()` and `gc_versions_removed` is exactly
/// `ServerStats::gc_versions_removed` — also when a round finds chains
/// it cannot shorten yet, which must stay counted as multi-version.
#[test]
fn gc_and_store_series_agree_with_store_stats() {
    let mut server = WrenServer::new(ServerId::new(0, 0), WrenConfig::new(1, 1), SkewedClock::perfect());
    let write = |server: &WrenServer, keys: std::ops::Range<u64>, ut: u64| {
        for k in keys {
            server.store().insert(
                Key(k),
                WrenVersion {
                    value: bval(k),
                    ut: Timestamp::from_micros(ut),
                    rdt: Timestamp::ZERO,
                    tx: TxId::from_raw(ut),
                    sr: DcId(0),
                },
            );
        }
    };
    let assert_series_agree = |server: &WrenServer, ticks: u64| {
        let snap = server.registry().snapshot();
        let store = server.store().stats();
        assert_eq!(snap.gauges["store_keys"], store.keys as u64);
        assert_eq!(snap.gauges["store_versions"], store.versions as u64);
        assert_eq!(snap.gauges["store_multi_version_chains"], store.multi_version_chains as u64);
        assert_eq!(snap.gauges["store_heap_bytes"], store.heap_bytes as u64);
        assert_eq!(snap.counter("gc_versions_removed"), server.stats().gc_versions_removed);
        assert_eq!(snap.counter("gc_versions_removed"), store.collected);
        assert_eq!(snap.histogram("gc_tick_micros").map_or(0, |h| h.count), ticks);
    };

    // Preload 1 000 keys, overwrite 200 of them, declare both stable.
    write(&server, 0..1_000, 1);
    write(&server, 0..200, 10);
    server.store().publish_stable(Timestamp::from_micros(100), Timestamp::from_micros(50));
    let mut out = Vec::new();
    assert_eq!(server.on_gc_tick(0, &mut out), 200);
    assert_series_agree(&server, 1);
    let store = server.store().stats();
    assert_eq!((store.keys, store.versions, store.multi_version_chains), (1_000, 1_000, 0));

    // Overwrites above the stable cut: the next round may drop nothing,
    // and the 50 chains stay multi-version.
    write(&server, 0..50, 500);
    assert_eq!(server.on_gc_tick(0, &mut out), 0);
    assert_series_agree(&server, 2);
    assert_eq!(server.store().stats().multi_version_chains, 50);
    assert_eq!(server.stats().gc_versions_removed, 200);

    let page = server.registry().snapshot().render_prometheus();
    assert!(page.contains("store_multi_version_chains 50"), "{page}");
    assert!(page.contains("gc_versions_removed 200"), "{page}");
}

/// The held-ack wait is a series: under `FsyncPolicy::Window` the
/// engines hold what asserts unsynced log state until the window's
/// fsync, and the merged snapshot says for how long
/// (`engine_held_wait_micros`, one sample per released batch) and how
/// many are waiting (`engine_held_msgs`).
#[test]
fn held_ack_wait_is_recorded_under_window() {
    let root = tmp_root("held");
    let max_delay = Duration::from_millis(2);
    let cluster = ClusterBuilder::new()
        .dcs(2)
        .partitions(2)
        .tcp()
        .durable(&root)
        .fsync(FsyncPolicy::Window {
            max_delay,
            max_bytes: 1 << 20,
        })
        .replication_tick(Duration::from_millis(1))
        .gossip_tick(Duration::from_millis(2))
        .build();
    drive(&cluster);
    let snap = cluster.metrics();
    let held = snap
        .histogram("engine_held_wait_micros")
        .expect("engine_held_wait_micros missing from the merged snapshot");
    assert!(
        held.count > 0,
        "commits under Window released no held batch"
    );
    // A batch waits for its window, not for a pile of them: the median
    // stays within a few `max_delay`s even on a busy test machine.
    assert!(
        held.p50() < 10 * max_delay.as_micros() as u64,
        "median hold {} us under a {max_delay:?} window",
        held.p50()
    );
    assert!(
        snap.gauges.contains_key("engine_held_msgs"),
        "held-message gauge missing: {:?}",
        snap.gauges.keys()
    );
    cluster.stop();
    let _ = std::fs::remove_dir_all(&root);
}

/// The tx-lifecycle trace rings: after a run, every partition's ring
/// holds real protocol history — coordinators show begins and commit
/// decisions, every partition shows stable raises — and the dump is
/// ordered oldest-first.
#[test]
fn trace_rings_hold_the_runs_lifecycle() {
    let cluster = ClusterBuilder::new().dcs(1).partitions(2).build();
    let mut s = cluster.session(0);
    for i in 0..20u64 {
        s.begin().unwrap();
        s.write(Key(i), bval(i));
        s.commit().unwrap();
    }
    // Let replication install and stabilization raise the cut.
    std::thread::sleep(Duration::from_millis(50));

    let traces = cluster.dump_traces();
    assert_eq!(traces.len(), 2);
    let all: Vec<&TxEvent> = traces.iter().flat_map(|(_, evs)| evs).collect();
    assert!(
        all.iter().any(|e| matches!(e, TxEvent::TxBegin { .. })),
        "no TxBegin anywhere: {all:?}"
    );
    assert!(
        all.iter().any(|e| matches!(e, TxEvent::Decided { .. })),
        "no commit decision anywhere: {all:?}"
    );
    assert!(
        all.iter().any(|e| matches!(e, TxEvent::Applied { .. })),
        "no replication apply anywhere: {all:?}"
    );
    assert!(
        all.iter().any(|e| matches!(e, TxEvent::Stable { .. })),
        "no stable raise anywhere: {all:?}"
    );
    cluster.stop();
}
