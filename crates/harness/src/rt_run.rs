//! Closed-loop driver for the real runtime cluster (`wren-rt`).
//!
//! The simulator harness ([`run`](crate::run)) reproduces the paper's
//! figures under a modeled network; this driver measures the *real*
//! runtime end to end — OS threads, sockets, kernel — on each of its
//! two transports:
//!
//! * [`RtTransport::Channel`] — in-process crossbeam channels (the
//!   zero-copy upper bound);
//! * [`RtTransport::Tcp`] — loopback TCP with length-prefixed framed
//!   sessions served by the reactor fabric (fixed thread pool) on
//!   epoll, so the measured cost includes encode/frame/syscall/decode
//!   on **every** protocol hop, exactly what separate processes would
//!   pay.
//!
//! [`RtSpec::fsync`] additionally puts a write-ahead log under every
//! partition, so the same driver sweeps durability policies (the
//! group-commit amortization curve) with the transport held fixed.
//!
//! Each session is one closed-loop thread (the paper's client model):
//! begin → multi-key read → multi-key write → commit, repeated, with
//! zipfian-free uniform key choice to keep the driver itself cheap.
//! Results are wall-clock throughput and per-transaction latency.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use wren_protocol::Key;
use wren_rt::{ClusterBuilder, FsyncPolicy};

/// Which transport the runtime cluster runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtTransport {
    /// In-process crossbeam channels.
    Channel,
    /// Loopback TCP: framed sessions over real sockets, served by the
    /// epoll reactor fabric (fixed thread pool).
    Tcp,
}

/// A closed-loop workload against the runtime cluster.
#[derive(Debug, Clone)]
pub struct RtSpec {
    /// Data centers.
    pub dcs: u8,
    /// Partitions per DC.
    pub partitions: u16,
    /// Transport under test.
    pub transport: RtTransport,
    /// Closed-loop sessions per DC.
    pub sessions_per_dc: usize,
    /// Transactions each session runs.
    pub txs_per_session: usize,
    /// Key-space size (uniform choice).
    pub keys: u64,
    /// Keys read per transaction.
    pub reads_per_tx: usize,
    /// Keys written per transaction.
    pub writes_per_tx: usize,
    /// When set, every partition logs to a write-ahead log under this
    /// group-commit policy (in a per-run temp dir, removed afterward):
    /// the measured commit path then includes WAL append + fsync
    /// scheduling, so sweeping policies isolates what durability costs
    /// and what group commit buys back.
    pub fsync: Option<FsyncPolicy>,
}

impl Default for RtSpec {
    fn default() -> Self {
        RtSpec {
            dcs: 1,
            partitions: 4,
            transport: RtTransport::Channel,
            sessions_per_dc: 4,
            txs_per_session: 200,
            keys: 256,
            reads_per_tx: 3,
            writes_per_tx: 2,
            fsync: None,
        }
    }
}

/// What a runtime run measured.
#[derive(Debug, Clone)]
pub struct RtRunResult {
    /// Committed transactions.
    pub txs: u64,
    /// Wall-clock transactions per second (all sessions together).
    pub throughput: f64,
    /// Mean transaction latency in milliseconds.
    pub mean_latency_ms: f64,
    /// Median transaction latency in milliseconds.
    pub p50_latency_ms: f64,
    /// 99th-percentile transaction latency in milliseconds.
    pub p99_latency_ms: f64,
    /// 99.9th-percentile transaction latency in milliseconds — the tail
    /// the mean hides; transport comparisons live or die here.
    pub p999_latency_ms: f64,
}

/// Runs `spec` to completion and reports throughput/latency.
///
/// Every session thread drives its own [`Session`](wren_rt::Session);
/// the cluster is built and torn down inside the call (teardown joins
/// every engine and, in TCP mode, every fabric thread).
pub fn run_rt(spec: &RtSpec) -> RtRunResult {
    let mut builder = ClusterBuilder::new()
        .dcs(spec.dcs)
        .partitions(spec.partitions);
    match spec.transport {
        RtTransport::Channel => {}
        RtTransport::Tcp => builder = builder.tcp(),
    }
    let mut wal_dir = None;
    if let Some(policy) = spec.fsync {
        static RUN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let run = RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("wren-rt-wal-{}-{run}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        builder = builder.durable(&dir).fsync(policy);
        wal_dir = Some(dir);
    }
    let cluster = std::sync::Arc::new(builder.build());

    let started = Instant::now();
    let mut handles = Vec::new();
    for dc in 0..spec.dcs {
        for t in 0..spec.sessions_per_dc {
            let cluster = std::sync::Arc::clone(&cluster);
            let spec = spec.clone();
            handles.push(std::thread::spawn(move || {
                let mut session = cluster.session(dc);
                let mut rng =
                    SmallRng::seed_from_u64((dc as u64) << 32 | t as u64);
                let mut latencies_us: Vec<u64> = Vec::with_capacity(spec.txs_per_session);
                let payload = bytes::Bytes::from_static(b"8-byte-v");
                for _ in 0..spec.txs_per_session {
                    let tx_started = Instant::now();
                    session.begin().expect("begin");
                    let reads: Vec<Key> = (0..spec.reads_per_tx)
                        .map(|_| Key(rng.gen_range(0..spec.keys)))
                        .collect();
                    session.read(&reads).expect("read");
                    for _ in 0..spec.writes_per_tx {
                        session.write(Key(rng.gen_range(0..spec.keys)), payload.clone());
                    }
                    session.commit().expect("commit");
                    latencies_us.push(tx_started.elapsed().as_micros() as u64);
                }
                latencies_us
            }));
        }
    }

    let mut latencies: Vec<u64> = Vec::new();
    for h in handles {
        latencies.extend(h.join().expect("session thread"));
    }
    let elapsed = started.elapsed();
    cluster.shutdown();
    if let Some(dir) = wal_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }

    latencies.sort_unstable();
    let txs = latencies.len() as u64;
    let mean_us = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
    };
    // Nearest-rank on the sorted samples; per-mille precision so the
    // p999 is a real observation, not an interpolation.
    let pct = |per_mille: usize| -> u64 {
        if latencies.is_empty() {
            0
        } else {
            latencies[((latencies.len() - 1) * per_mille) / 1_000]
        }
    };
    RtRunResult {
        txs,
        throughput: txs as f64 / elapsed.as_secs_f64(),
        mean_latency_ms: mean_us / 1_000.0,
        p50_latency_ms: pct(500) as f64 / 1_000.0,
        p99_latency_ms: pct(990) as f64 / 1_000.0,
        p999_latency_ms: pct(999) as f64 / 1_000.0,
    }
}
