//! `wal_sweep` — the WAL group-commit amortization curve.
//!
//! Runs the same closed-loop TCP workload (`run_rt`) over a durable
//! cluster under each fsync policy: `Always` (every commit point pays
//! its own fsync — the durability floor), a `Window { max_delay }`
//! grid (commit points share fsyncs within the window; acknowledgement
//! waits for the window's sync, trading latency for fewer disk
//! barriers), and `Off` as the no-durability ceiling. Prints a
//! markdown table ready for `docs/wal_group_commit.md`.
//!
//! ```bash
//! cargo run --release -p wren-bench --bin wal_sweep
//! # quicker, noisier:
//! WAL_SWEEP_TXS=100 cargo run --release -p wren-bench --bin wal_sweep
//! ```

use std::time::Duration;
use wren_harness::{run_rt, FsyncPolicy, RtSpec, RtTransport};

fn spec(policy: Option<FsyncPolicy>, txs: usize) -> RtSpec {
    RtSpec {
        dcs: 1,
        partitions: 2,
        transport: RtTransport::Tcp,
        sessions_per_dc: 8,
        txs_per_session: txs,
        keys: 256,
        reads_per_tx: 1,
        writes_per_tx: 3,
        fsync: policy,
    }
}

fn main() {
    let txs: usize = std::env::var("WAL_SWEEP_TXS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400);

    let window = |micros: u64| FsyncPolicy::Window {
        max_delay: Duration::from_micros(micros),
        max_bytes: 1 << 20,
    };
    let grid: Vec<(String, Option<FsyncPolicy>)> = vec![
        ("Always".into(), Some(FsyncPolicy::Always)),
        ("Window 50us".into(), Some(window(50))),
        ("Window 200us".into(), Some(window(200))),
        ("Window 1ms".into(), Some(window(1_000))),
        ("Window 5ms".into(), Some(window(5_000))),
        ("Off (ceiling)".into(), Some(FsyncPolicy::Off)),
        ("No WAL".into(), None),
    ];

    eprintln!(
        "wal_sweep: 8 sessions x {txs} txs, 3 writes/tx, TCP reactor fabric, 2 partitions"
    );
    println!("| policy | txs/s | mean ms | p50 ms | p99 ms | p99.9 ms |");
    println!("|---|---|---|---|---|---|");
    for (label, policy) in grid {
        // One warmup run keeps page-cache/allocator effects out of the
        // first row's numbers.
        let _ = run_rt(&spec(policy, txs / 4));
        let r = run_rt(&spec(policy, txs));
        println!(
            "| {label} | {:.0} | {:.3} | {:.3} | {:.3} | {:.3} |",
            r.throughput, r.mean_latency_ms, r.p50_latency_ms, r.p99_latency_ms, r.p999_latency_ms
        );
    }
}
