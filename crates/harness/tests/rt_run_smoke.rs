//! Smoke for the runtime driver: every transport completes a small
//! closed-loop workload and reports sane numbers.

use wren_harness::{run_rt, RtSpec, RtTransport};

fn small(transport: RtTransport) -> RtSpec {
    RtSpec {
        dcs: 1,
        partitions: 2,
        transport,
        sessions_per_dc: 2,
        txs_per_session: 40,
        keys: 64,
        reads_per_tx: 2,
        writes_per_tx: 1,
        fsync: None,
    }
}

#[test]
fn rt_run_channel_smoke() {
    let result = run_rt(&small(RtTransport::Channel));
    assert_eq!(result.txs, 80);
    assert!(result.throughput > 0.0);
    assert!(result.mean_latency_ms > 0.0);
    assert!(result.p99_latency_ms >= result.mean_latency_ms * 0.5);
}

#[test]
fn rt_run_tcp_smoke() {
    let result = run_rt(&small(RtTransport::Tcp));
    assert_eq!(result.txs, 80);
    assert!(result.throughput > 0.0);
    assert!(result.mean_latency_ms > 0.0);
}

#[test]
fn rt_run_durable_smoke() {
    use wren_harness::{FsyncPolicy, RtSpec};
    let spec = RtSpec {
        fsync: Some(FsyncPolicy::Window {
            max_delay: std::time::Duration::from_micros(200),
            max_bytes: 1 << 20,
        }),
        ..small(RtTransport::Tcp)
    };
    let result = run_rt(&spec);
    assert_eq!(result.txs, 80);
    assert!(result.throughput > 0.0);
}
