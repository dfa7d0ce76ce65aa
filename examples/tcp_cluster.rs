//! TCP cluster walkthrough: the Wren engines behind real sockets.
//!
//! What this demo does, step by step:
//!
//! 1. **Build a TCP-mode cluster** (`ClusterBuilder::new().tcp()`): one
//!    `TcpListener` per partition on 127.0.0.1, all served by a fixed
//!    pool of epoll reactor threads (default 2 — thread count does not
//!    grow with connections), and every protocol hop —
//!    client↔coordinator, read slices, 2PC, replication, gossip —
//!    encoded, length-prefix framed, written to a socket, read back and
//!    decoded. The partition engines (one writer thread each) are
//!    byte-for-byte the ones the channel transport drives.
//! 2. **Join by address only** (`Session::connect_tcp`): a session is
//!    built from nothing but the listener addresses printed in step 1 —
//!    no handle to the `Cluster` object. Run the same calls from a
//!    different process on this machine and they behave identically;
//!    that is the point: the cluster boundary is now the socket, not
//!    the address space.
//! 3. **Transact over the wire**: read-your-writes through the client
//!    cache, multi-partition snapshot reads fanned out to every
//!    partition and answered on the event loop that decodes them,
//!    cross-session visibility once BiST stabilizes a write.
//! 4. **Read the metrics** (`Cluster::metrics`): one merged snapshot of
//!    every layer the run just exercised — commit-stage and read-slice
//!    histograms from the partition engines, socket-boundary counters
//!    from the fabric, session-op latencies — with tail percentiles,
//!    Prometheus rendering and per-partition trace rings.
//! 5. **Measure both transports** (`wren_harness::run_rt`): the same
//!    closed-loop workload over channels and reactor TCP. Channel→TCP
//!    is the end-to-end price of serialization plus kernel round-trips
//!    — the cost the paper's cluster experiments pay on every
//!    operation. Compare the tails (p99/p999) too; the mean hides them.
//! 6. **Shut down deterministically**: listeners closed, in-flight
//!    connections severed, every reactor thread joined. Run it twice;
//!    `shutdown` is idempotent.
//!
//! ```bash
//! cargo run --release --example tcp_cluster
//! ```

use bytes::Bytes;
use std::time::{Duration, Instant};
use wren::harness::{run_rt, RtSpec, RtTransport};
use wren::protocol::{ClientId, Key, ServerId};
use wren::rt::{ClusterBuilder, Session};

fn main() {
    // --- 1. A 1-DC × 4-partition cluster, served over loopback TCP.
    let cluster = ClusterBuilder::new().dcs(1).partitions(4).tcp().build();
    println!("cluster listening (DC-major partition order):");
    for (i, addr) in cluster.server_addrs().iter().enumerate() {
        println!("  partition {i}: {addr}");
    }

    // --- 2. Join with addresses only, like a remote process would.
    let mut session = Session::connect_tcp(
        cluster.server_addrs().to_vec(),
        cluster.n_partitions(),
        ClientId(1_000_000), // disjoint from cluster-assigned ids
        ServerId::new(0, 0),
        Duration::from_secs(5),
    );

    // --- 3a. Read-your-writes over the wire.
    session.begin().unwrap();
    session.write(Key(1), Bytes::from_static(b"over-tcp"));
    session.commit().unwrap();
    session.begin().unwrap();
    let v = session.read_one(Key(1)).unwrap();
    session.commit().unwrap();
    println!("\nread-your-writes over TCP: {:?}", v.as_deref());

    // --- 3b. A multi-partition snapshot read (fans out to every
    // partition, each hop a framed socket round).
    session.begin().unwrap();
    for k in 2..10u64 {
        session.write(Key(k), Bytes::from(format!("v{k}").into_bytes()));
    }
    session.commit().unwrap();
    session.begin().unwrap();
    let keys: Vec<Key> = (2..10).map(Key).collect();
    let snapshot = session.read(&keys).unwrap();
    session.commit().unwrap();
    println!(
        "multi-partition snapshot: {} keys, all present: {}",
        snapshot.len(),
        snapshot.iter().all(|(_, v)| v.is_some())
    );

    // --- 3c. Cross-session visibility: a second TCP session sees the
    // write once BiST stabilizes it (two gossip scalars per exchange).
    let mut observer = cluster.session(0);
    let started = Instant::now();
    loop {
        observer.begin().unwrap();
        let seen = observer.read_one(Key(1)).unwrap();
        observer.commit().unwrap();
        if seen.as_deref() == Some(b"over-tcp".as_slice()) {
            println!(
                "cross-session visibility after {:?} (replication + BiST)",
                started.elapsed()
            );
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    // --- 4. Reading the metrics. `Cluster::metrics()` merges every
    // layer into one snapshot: partition registries use unprefixed
    // names (`commit_prepare_micros` below is the histogram across all
    // four partitions), the fabric's counters are `tcp_*`, session-op
    // latencies `session_*`. Quantiles come from log-linear buckets
    // (~1% relative error) — cheap enough to leave on in production.
    // For live monitoring, `ClusterBuilder::metrics_every(d)` logs the
    // interval deltas to stderr, `MetricsSnapshot::render_prometheus()`
    // feeds a scraper, and `Cluster::dump_traces()` explains a failure
    // from each partition's last ~512 lifecycle events.
    let snap = cluster.metrics();
    println!("\nwhat the wire run cost, from the merged metrics snapshot:");
    for name in ["session_commit_micros", "commit_prepare_micros", "read_slice_micros"] {
        if let Some(h) = snap.histogram(name) {
            println!(
                "  {name}: n={} p50={}us p99={}us max={}us",
                h.count,
                h.p50(),
                h.p99(),
                h.max
            );
        }
    }
    println!(
        "  frames on the wire: {} out / {} in ({} conns accepted, 0 dropped: {})",
        snap.counter("tcp_frames_out"),
        snap.counter("tcp_frames_in"),
        snap.counter("tcp_conns_accepted"),
        snap.counter("tcp_dropped_frames") == 0
    );
    drop(observer);
    drop(session);
    cluster.shutdown();
    drop(cluster);

    // --- 5. The transport bill: same closed-loop workload, both
    // transports. (Loopback TCP still pays encode + frame + two syscall
    // crossings per hop; real NICs would add propagation on top.)
    println!("\nclosed-loop comparison (4 sessions x 300 tx, 1 DC x 4 partitions):");
    println!(
        "  {:<14} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "transport", "tx/s", "mean ms", "p50 ms", "p99 ms", "p999 ms"
    );
    for (name, transport) in [
        ("channel", RtTransport::Channel),
        ("tcp-reactor", RtTransport::Tcp),
    ] {
        let result = run_rt(&RtSpec {
            dcs: 1,
            partitions: 4,
            transport,
            sessions_per_dc: 4,
            txs_per_session: 300,
            keys: 256,
            reads_per_tx: 3,
            writes_per_tx: 2,
            fsync: None,
        });
        println!(
            "  {:<14} {:>12.0} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            name,
            result.throughput,
            result.mean_latency_ms,
            result.p50_latency_ms,
            result.p99_latency_ms,
            result.p999_latency_ms
        );
    }

    // --- 6. Deterministic teardown already happened for the demo
    // cluster (shutdown + drop joined every thread); run_rt tears its
    // clusters down internally the same way.
    println!("\ndone: all listeners closed, every transport thread joined.");
}
