//! Criterion micro-benchmarks for the hot paths of every substrate:
//! clocks, version vectors, version chains, the codec, zipfian sampling
//! and end-to-end server message handling.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wren_clock::{HybridClock, SkewedClock, Timestamp, VersionVector};
use wren_core::{WrenConfig, WrenServer};
use wren_protocol::{ClientId, Dest, Key, ServerId, TxId, WrenMsg, WrenVersion};
use wren_storage::{
    ConcurrentShardedStore, MvStore, ShardedStore, SnapshotBound, VersionChain, Versioned,
};
use wren_workload::Zipfian;

fn bench_clocks(c: &mut Criterion) {
    c.bench_function("hlc_tick", |b| {
        let mut clock = HybridClock::new();
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            black_box(clock.tick(now))
        });
    });
    c.bench_function("hlc_tick_at_least", |b| {
        let mut clock = HybridClock::new();
        let floor = Timestamp::from_micros(1 << 30);
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            black_box(clock.tick_at_least(now, floor))
        });
    });
    c.bench_function("vv_join_5", |b| {
        let mut a = VersionVector::new(5);
        let other = VersionVector::from_entries(
            (0..5).map(|i| Timestamp::from_micros(i * 7)).collect(),
        );
        b.iter(|| {
            a.join(black_box(&other));
        });
    });
}

fn sample_version(ct: u64) -> WrenVersion {
    WrenVersion {
        value: bytes::Bytes::from_static(b"12345678"),
        ut: Timestamp::from_micros(ct),
        rdt: Timestamp::from_micros(ct / 2),
        tx: TxId::new(ServerId::new(0, 0), ct),
        sr: wren_protocol::DcId(0),
    }
}

/// Depth of the chain for the deep-read benchmarks: models a key with a
/// replication backlog of versions newer than the reader's snapshot.
const DEEP: u64 = 1_024;

fn deep_chain() -> VersionChain<WrenVersion> {
    let mut chain = VersionChain::new();
    for ct in 0..DEEP {
        chain.insert(sample_version(ct * 10));
    }
    chain
}

fn bench_storage(c: &mut Criterion) {
    c.bench_function("chain_insert_in_order", |b| {
        b.iter(|| {
            let mut chain = VersionChain::new();
            for ct in 0..64u64 {
                chain.insert(sample_version(ct));
            }
            black_box(chain.len())
        });
    });
    c.bench_function("chain_insert_out_of_order", |b| {
        let mut rng = SmallRng::seed_from_u64(7);
        let cts: Vec<u64> = (0..64).map(|_| rng.gen_range(0u64..100_000)).collect();
        b.iter(|| {
            let mut chain = VersionChain::new();
            for &ct in &cts {
                chain.insert(sample_version(ct));
            }
            black_box(chain.len())
        });
    });
    // The chain-read microbenchmark: a snapshot far behind the newest
    // version, so almost the whole chain is too new to be visible.
    // `binary` is the indexed read path; `linear_oracle` re-enacts the
    // seed's closure-predicate scan for the before/after comparison.
    {
        let chain = deep_chain();
        let bound = SnapshotBound::bist(0, Timestamp::from_micros(95), Timestamp::from_micros(94));
        c.bench_function("chain_read_deep_binary", |b| {
            b.iter(|| black_box(chain.latest_visible(&bound)))
        });
        c.bench_function("chain_read_deep_linear_oracle", |b| {
            b.iter(|| {
                black_box(
                    chain
                        .iter()
                        .find(|v| bound.admits(&v.order_key(), v.remote_dep())),
                )
            })
        });
        let shallow_bound = SnapshotBound::bist(
            0,
            Timestamp::from_micros(10 * DEEP),
            Timestamp::from_micros(10 * DEEP - 1),
        );
        c.bench_function("chain_read_newest_visible", |b| {
            b.iter(|| black_box(chain.latest_visible(&shallow_bound)))
        });
    }
    c.bench_function("store_latest_visible", |b| {
        let mut store: MvStore<Key, WrenVersion> = MvStore::new();
        for k in 0..1_000u64 {
            for ct in 0..8 {
                store.insert(Key(k), sample_version(k * 10 + ct));
            }
        }
        let bound = SnapshotBound::at_most(Timestamp::from_micros(5_000));
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 1) % 1_000;
            black_box(store.latest_visible(&Key(k), &bound))
        });
    });
    // Insert cost at a *fixed* store shape: a fresh pre-seeded store
    // per iteration (off the clock), 256 inserts on it. The seed's
    // `b.iter` version reused one store across the whole run, so every
    // sample inserted into ever-deeper chains and the number measured
    // how long the run had been going, not the operation.
    c.bench_function("store_insert", |b| {
        b.iter_batched(
            || {
                let mut store: MvStore<Key, WrenVersion> = MvStore::new();
                for ct in 0..4_096u64 {
                    store.insert(Key(ct % 1_024), sample_version(ct));
                }
                store
            },
            |mut store| {
                for ct in 4_096..4_352u64 {
                    store.insert(Key(ct % 1_024), sample_version(ct));
                }
                black_box(store.stats().versions);
                store
            },
            BatchSize::SmallInput,
        )
    });
}

/// Sharded-vs-flat: the striped store must read and insert at flat-map
/// speed (compare against `store_latest_visible` / `store_insert`).
fn bench_sharded_store(c: &mut Criterion) {
    c.bench_function("sharded_store_latest_visible", |b| {
        let mut store: ShardedStore<Key, WrenVersion> = ShardedStore::new();
        for k in 0..1_000u64 {
            for ct in 0..8 {
                store.insert(Key(k), sample_version(k * 10 + ct));
            }
        }
        let bound = SnapshotBound::at_most(Timestamp::from_micros(5_000));
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 1) % 1_000;
            black_box(store.latest_visible(&Key(k), &bound))
        });
    });
    // Mirrors `store_insert`'s fresh-store-per-iteration shape exactly
    // (same seed, same 256 on-clock inserts) so sharded-vs-flat stays a
    // like-for-like comparison instead of two differently-aged stores.
    c.bench_function("sharded_store_insert", |b| {
        b.iter_batched(
            || {
                let mut store: ShardedStore<Key, WrenVersion> = ShardedStore::new();
                for ct in 0..4_096u64 {
                    store.insert(Key(ct % 1_024), sample_version(ct));
                }
                store
            },
            |mut store| {
                for ct in 4_096..4_352u64 {
                    store.insert(Key(ct % 1_024), sample_version(ct));
                }
                // O(1) observable: a full `stats()` rollup would add an
                // O(stripes) term and bias the comparison.
                black_box(store.stripe_stats(0).versions);
                store
            },
            BatchSize::SmallInput,
        )
    });
}

/// Keys in the parallel-read bench's store.
const PR_KEYS: u64 = 4_096;
/// Total slice reads per timed iteration of `parallel_read_slices_N`,
/// split evenly across the N reader threads — the figure of merit is
/// wall-clock for a fixed amount of read work, so more workers should
/// finish sooner on a multi-core host.
const PR_TOTAL_READS: u64 = 32_768;

/// Read scaling on the stripe-locked concurrent store: N reader threads
/// splitting a fixed slice workload, against a store shaped like the
/// `store_latest_visible` one (4 versions per key, bound past all of
/// them). `_1` is the single-threaded baseline the 4- and 8-reader
/// variants are judged against; thread spawn/join is on the clock but
/// amortized over thousands of reads per thread.
fn bench_parallel_reads(c: &mut Criterion) {
    let store = Arc::new(ConcurrentShardedStore::<Key, WrenVersion>::new());
    for k in 0..PR_KEYS {
        for ct in 0..4 {
            store.insert(Key(k), sample_version(k * 10 + ct));
        }
    }
    store.publish_stable(
        Timestamp::from_micros(PR_KEYS * 10 + 100),
        Timestamp::from_micros(PR_KEYS * 10 + 99),
    );
    for n_readers in [1usize, 4, 8] {
        c.bench_function(&format!("parallel_read_slices_{n_readers}"), |b| {
            let per_reader = PR_TOTAL_READS / n_readers as u64;
            b.iter(|| {
                std::thread::scope(|s| {
                    for w in 0..n_readers {
                        let store = Arc::clone(&store);
                        s.spawn(move || {
                            let (lt, rt) = store.stable();
                            let bound = SnapshotBound::bist(0, lt, rt);
                            // Per-thread xorshift: distinct key walks, no
                            // shared RNG contention.
                            let mut x = 0x9e37_79b9u64.wrapping_add(w as u64);
                            let mut found = 0usize;
                            for _ in 0..per_reader {
                                x ^= x << 13;
                                x ^= x >> 7;
                                x ^= x << 17;
                                let k = Key(x % PR_KEYS);
                                if store.latest_visible(&k, &bound).is_some() {
                                    found += 1;
                                }
                            }
                            black_box(found)
                        });
                    }
                });
            })
        });
    }
}

/// Number of transactions in the modeled replication batch.
const BATCH_TXS: u64 = 32;
/// Hot keys the batch writes (zipfian workloads concentrate updates).
const HOT_KEYS: u64 = 4;

/// A replication-shaped batch: 32 transactions sharing one commit
/// timestamp, two writes each, spread over 4 hot keys — so each key's
/// chain receives a 16-version run at a single splice point.
fn replication_batch() -> Vec<(Key, WrenVersion)> {
    // ct = 5005 lands mid-chain (existing versions sit at multiples of
    // 10 up to 10 * DEEP): the out-of-order case replication lag causes.
    let ct = Timestamp::from_micros(5_005);
    (0..BATCH_TXS)
        .flat_map(|tx| {
            (0..2u64).map(move |w| {
                (
                    Key((tx * 2 + w) % HOT_KEYS),
                    WrenVersion {
                        value: bytes::Bytes::from_static(b"12345678"),
                        ut: ct,
                        rdt: Timestamp::from_micros(2_000),
                        tx: TxId::new(ServerId::new(1, 0), tx),
                        sr: wren_protocol::DcId(1),
                    },
                )
            })
        })
        .collect()
}

/// A deep store whose chains carry **capacity headroom**: each key gets
/// 16 sacrificial oldest versions that a GC sweep then drains (front
/// drains keep the allocation), so applying the 64-version batch never
/// grows a `Vec`. Without the headroom, both apply strategies pay one
/// identical ~80 KiB chain realloc that swamps the algorithmic
/// difference being measured — production chains amortize growth the
/// same way.
fn deep_store_with_headroom() -> ShardedStore<Key, WrenVersion> {
    let mut s = ShardedStore::new();
    for k in 0..HOT_KEYS {
        for i in 0..(DEEP + 16) {
            s.insert(Key(k), sample_version((i + 1) * 10));
        }
    }
    s.collect(&SnapshotBound::at_most(Timestamp::from_micros(170)));
    debug_assert_eq!(s.stats().versions as u64, HOT_KEYS * DEEP);
    s
}

/// The replicate-apply comparison the write path is built around: a
/// 32-tx batch landing mid-chain on deep (1024-version) chains, applied
/// one version at a time vs. through the batched splice. Setup (building
/// the store and cloning the batch) and teardown (the routine returns
/// the store) are both off the clock.
fn bench_replicate_apply(c: &mut Criterion) {
    let batch = replication_batch();

    c.bench_function("replicate_apply_one_at_a_time", |b| {
        b.iter_batched(
            || (deep_store_with_headroom(), batch.clone()),
            |(mut store, items)| {
                for (k, v) in items {
                    store.insert(k, v);
                }
                black_box(store.stats().versions);
                store
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("replicate_apply_batched", |b| {
        b.iter_batched(
            || (deep_store_with_headroom(), batch.clone()),
            |(mut store, mut items)| {
                store.apply_batch(&mut items);
                black_box(store.stats().versions);
                store
            },
            BatchSize::SmallInput,
        )
    });
}

/// Keys in the store-scale benches: one partition's share of the
/// benchmark's `chan_paper` workload.
const SCALE_KEYS: u64 = 100_000;

/// The two store costs that follow the key count rather than the
/// traffic: loading a partition, and a GC tick over a store in which
/// few keys were written since the last one.
fn bench_store_scale(c: &mut Criterion) {
    // 100 000 fresh keys, one version each (what `setup_s` times, and
    // what a restart replays). Dropping the store is off the clock.
    c.bench_function("store_preload_100k", |b| {
        b.iter_batched(
            ConcurrentShardedStore::<Key, WrenVersion>::new,
            |store| {
                for k in 0..SCALE_KEYS {
                    store.insert(Key(k), sample_version(1));
                }
                store
            },
            BatchSize::LargeInput,
        )
    });
    // One GC pass over 100 000 keys of which 1 % hold two versions: it
    // drops 1 000 versions and leaves every key single-version again.
    // The setup (off the clock) overwrites the same 1 000 keys anew, so
    // every timed pass sees the same store.
    c.bench_function("store_gc_sparse_100k", |b| {
        let store: ConcurrentShardedStore<Key, WrenVersion> = ConcurrentShardedStore::new();
        for k in 0..SCALE_KEYS {
            store.insert(Key(k), sample_version(1));
        }
        let mut ct = 1;
        b.iter_batched(
            || {
                ct += 1;
                for k in (0..SCALE_KEYS).step_by(100) {
                    store.insert(Key(k), sample_version(ct));
                }
            },
            |()| {
                let removed = store.collect(&SnapshotBound::all());
                assert_eq!(removed as u64, SCALE_KEYS / 100);
                removed
            },
            BatchSize::SmallInput,
        )
    });
}


fn bench_codec(c: &mut Criterion) {
    let msg = WrenMsg::SliceResp {
        tx: TxId::new(ServerId::new(0, 3), 77),
        items: (0..8)
            .map(|i| (Key(i), Some(sample_version(i * 5))))
            .collect(),
    };
    c.bench_function("codec_encode_slice_resp", |b| {
        b.iter(|| black_box(msg.encode()));
    });
    let bytes = msg.encode();
    c.bench_function("codec_decode_slice_resp", |b| {
        b.iter(|| black_box(WrenMsg::decode(&bytes).unwrap()));
    });
    // The transport's per-message cost: encode straight into a framed
    // buffer (header + payload, one allocation), then reassemble the
    // frame from the byte stream and decode — what every TCP hop pays
    // on each side of the socket.
    c.bench_function("codec_frame_roundtrip", |b| {
        use wren_protocol::frame::{frame_wren, FrameDecoder};
        b.iter(|| {
            let framed = frame_wren(&msg);
            let mut dec = FrameDecoder::new();
            dec.extend(&framed);
            let payload = dec.next_frame().unwrap().expect("complete frame");
            black_box(WrenMsg::decode(&payload).unwrap())
        });
    });
}

/// A framed echo server's response: the payload re-wrapped in a length
/// header, as one preallocated buffer.
fn reframe(payload: &[u8]) -> bytes::Bytes {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    bytes::Bytes::from(out)
}

/// Framed request→response over loopback through the reactor: the
/// full per-operation transport bill — encode, frame, write(2),
/// wakeup, decode, re-frame, write back, read back — that a session
/// pays on every server round trip. The message is the one
/// `codec_frame_roundtrip` measures, so that bench is the framing-cost
/// baseline:
/// (roundtrip − 2×`codec_frame_roundtrip`) isolates what the sockets,
/// wakeups and syscalls cost.
fn bench_transport(c: &mut Criterion) {
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use wren_net::{ConnHandle, FramedReader, Reactor, ReactorHandler};
    use wren_protocol::frame::frame_wren;

    let msg = WrenMsg::SliceResp {
        tx: TxId::new(ServerId::new(0, 3), 77),
        items: (0..8)
            .map(|i| (Key(i), Some(sample_version(i * 5))))
            .collect(),
    };

    struct Echo;
    impl ReactorHandler for Echo {
        type Conn = ();
        fn on_accept(&self, _ctx: u64, _h: &ConnHandle) -> Option<()> {
            Some(())
        }
        fn on_frame(&self, _c: &mut (), h: &ConnHandle, payload: bytes::Bytes) -> bool {
            h.enqueue(reframe(&payload))
        }
        fn on_close(&self, _c: &mut (), _h: &ConnHandle) {}
    }

    c.bench_function("reactor_roundtrip", |b| {
        let reactor = Reactor::start(2, Echo).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        reactor.add_listener(listener, 0, 16 * 1024 * 1024).unwrap();
        let mut write = TcpStream::connect(addr).unwrap();
        write.set_nodelay(true).unwrap();
        let mut reader = FramedReader::new(write.try_clone().unwrap());
        b.iter(|| {
            write.write_all(&frame_wren(&msg)).unwrap();
            let payload = reader.next_frame().unwrap().expect("echo");
            black_box(WrenMsg::decode(&payload).unwrap())
        });
        reactor.shutdown();
        reactor.join();
    });

    // The batched counterpart: 32 requests written back-to-back, then
    // all 32 echoes read. Where `reactor_roundtrip` serializes one
    // wakeup per message, this shape lets the reactor decode a burst
    // per readiness event and drain the outbox with vectored writes —
    // (pipelined / 32) vs. roundtrip is the syscall-amortization win.
    c.bench_function("reactor_roundtrip_pipelined", |b| {
        const PIPELINE: usize = 32;
        let reactor = Reactor::start(2, Echo).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        reactor.add_listener(listener, 0, 16 * 1024 * 1024).unwrap();
        let mut write = TcpStream::connect(addr).unwrap();
        write.set_nodelay(true).unwrap();
        let mut reader = FramedReader::new(write.try_clone().unwrap());
        let framed = frame_wren(&msg);
        let mut burst = Vec::with_capacity(framed.len() * PIPELINE);
        for _ in 0..PIPELINE {
            burst.extend_from_slice(&framed);
        }
        b.iter(|| {
            write.write_all(&burst).unwrap();
            for _ in 0..PIPELINE {
                let payload = reader.next_frame().unwrap().expect("echo");
                black_box(WrenMsg::decode(&payload).unwrap());
            }
        });
        reactor.shutdown();
        reactor.join();
    });
}

fn bench_workload(c: &mut Criterion) {
    c.bench_function("zipfian_sample", |b| {
        let zipf = Zipfian::new(10_000, 0.99);
        let mut rng = SmallRng::seed_from_u64(3);
        b.iter(|| black_box(zipf.sample(&mut rng)));
    });
}

fn bench_server(c: &mut Criterion) {
    // 64 tx starts on a fresh coordinator per iteration. Every
    // StartTxReq leaves a live tx in the coordinator's table (the bench
    // never commits), so the seed's single-server `b.iter` version
    // measured lookups in a table that grew for the whole run.
    c.bench_function("wren_server_start_tx", |b| {
        b.iter_batched(
            || {
                let cfg = WrenConfig::new(1, 1);
                WrenServer::new(ServerId::new(0, 0), cfg, SkewedClock::perfect())
            },
            |mut server| {
                let mut out = Vec::new();
                for i in 1..=64u64 {
                    out.clear();
                    server.handle(
                        Dest::Client(ClientId(0)),
                        WrenMsg::StartTxReq {
                            lst: Timestamp::ZERO,
                            rst: Timestamp::ZERO,
                        },
                        i * 10,
                        &mut out,
                    );
                    black_box(&out);
                }
                server
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_wal(c: &mut Criterion) {
    use wren_core::{DurableLog, FsyncPolicy};
    use wren_protocol::RepTx;

    let batch: Vec<RepTx> = (0..32u64)
        .map(|i| RepTx {
            tx: TxId::new(ServerId::new(1, 0), i),
            rst: Timestamp::from_micros(i),
            writes: vec![(Key(i), bytes::Bytes::from(vec![0u8; 64]))],
        })
        .collect();

    // Buffered logging throughput: encode + append a 32-tx replication
    // batch and hit the commit point, with fsync off so the cost
    // measured is the codec and the write path, not the disk.
    c.bench_function("wal_append_batch", |b| {
        let dir = std::env::temp_dir().join(format!("wren-bench-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut log = DurableLog::open(&dir, FsyncPolicy::Off).unwrap().log;
        let mut ct = 0u64;
        b.iter(|| {
            ct += 10;
            log.log_remote_batch(1, true, Timestamp::from_micros(ct), black_box(&batch));
            log.commit_point().unwrap();
        });
        drop(log);
        let _ = std::fs::remove_dir_all(&dir);
    });

    // The same batch under the durable default: every commit point is
    // an fsync, so this is the floor on acknowledged-write latency.
    c.bench_function("wal_append_batch_fsync", |b| {
        let dir =
            std::env::temp_dir().join(format!("wren-bench-walsync-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut log = DurableLog::open(&dir, FsyncPolicy::Always).unwrap().log;
        let mut ct = 0u64;
        b.iter(|| {
            ct += 10;
            log.log_remote_batch(1, true, Timestamp::from_micros(ct), black_box(&batch));
            log.commit_point().unwrap();
        });
        drop(log);
        let _ = std::fs::remove_dir_all(&dir);
    });

    // A commit point with nothing appended since the last one — what the
    // engine marks after every burst that only answered a begin, a read
    // or a heartbeat. It used to cost an fsync of the unchanged file
    // under `Always` (and open a window under `Window`); it is a branch.
    for (name, policy) in [
        ("wal_commit_point_idle_always", FsyncPolicy::Always),
        (
            "wal_commit_point_idle_window",
            FsyncPolicy::Window {
                max_delay: std::time::Duration::from_millis(1),
                max_bytes: 1 << 20,
            },
        ),
    ] {
        c.bench_function(name, |b| {
            let dir =
                std::env::temp_dir().join(format!("wren-bench-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut log = DurableLog::open(&dir, policy).unwrap().log;
            log.log_remote_batch(1, true, Timestamp::from_micros(10), &batch);
            log.commit_point().unwrap();
            log.sync_now().unwrap();
            b.iter(|| black_box(&mut log).commit_point().unwrap());
            drop(log);
            let _ = std::fs::remove_dir_all(&dir);
        });
    }
}

fn bench_obs(c: &mut Criterion) {
    use wren_obs::Registry;

    // The per-sample cost the instrumentation adds to every hot path it
    // sits on (commit stages, WAL fsyncs, read slices): one branch-free
    // bucket index plus three relaxed atomics. The acceptance budget is
    // ~30 ns; anything near that is invisible next to a syscall.
    c.bench_function("hist_record", |b| {
        let registry = Registry::new();
        let hist = registry.histogram("bench_latency_micros");
        let mut v = 1u64;
        b.iter(|| {
            // Vary the value so records land across buckets, not on one
            // cache-hot counter.
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.record(black_box(v >> 40));
        });
    });

    // Scraping cost: snapshotting a registry shaped like one partition
    // engine's (a dozen histograms plus counters/gauges). This runs per
    // scrape interval, not per operation, so milliseconds would be fine
    // — it comes in far under that.
    c.bench_function("registry_snapshot", |b| {
        let registry = Registry::new();
        for name in [
            "commit_prepare_micros",
            "commit_decide_micros",
            "commit_apply_micros",
            "read_slice_micros",
            "wal_fsync_micros",
            "wal_append_bytes",
            "checkpoint_micros",
            "replication_batch_txs",
            "replication_lag_micros",
            "visibility_lag_local_micros",
            "visibility_lag_remote_micros",
        ] {
            let h = registry.histogram(name);
            for i in 0..1_000u64 {
                h.record(i * 37 % 10_000);
            }
        }
        for name in ["slices_served", "keys_read", "tx_aborts_indoubt"] {
            registry.counter(name).add(12_345);
        }
        registry.gauge("visibility_lag_local_gauge_micros").set(42);
        b.iter(|| black_box(registry.snapshot()));
    });
}

criterion_group!(
    benches,
    bench_clocks,
    bench_storage,
    bench_sharded_store,
    bench_parallel_reads,
    bench_replicate_apply,
    bench_store_scale,
    bench_codec,
    bench_transport,
    bench_workload,
    bench_server,
    bench_wal,
    bench_obs
);
criterion_main!(benches);
