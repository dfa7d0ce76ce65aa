//! The four workloads: cluster shape, transport, WAL policy and
//! transaction mix. Everything not listed here is
//! `ClusterBuilder::new()` defaults (ticks 1 ms / 5 ms / 50 ms, 2 read
//! workers, 2 reactor threads, epoll).

use std::path::Path;
use std::time::Duration;
use wren_rt::{ClusterBuilder, FsyncPolicy};
use wren_workload::{TxMix, Workload, WorkloadSpec};

/// How messages travel between sessions and partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// In-process channels: `net` and `protocol` are bypassed.
    Channel,
    /// Loopback TCP through the epoll reactor fabric.
    Tcp,
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    /// The one-line reason in `BENCHMARK.json`.
    pub why: &'static str,
    pub dcs: u8,
    pub partitions: u16,
    pub transport: Transport,
    /// `Some` puts a WAL under every partition.
    pub wal: Option<FsyncPolicy>,
    pub keys_per_partition: u64,
    /// Read-only transaction shape (even stream positions).
    pub ro: TxMix,
    /// Read-write transaction shape (odd stream positions).
    pub rw: TxMix,
    /// Partitions each transaction touches.
    pub partitions_per_tx: usize,
}

pub const ZIPF_THETA: f64 = 0.99;

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "tcp_small",
        why: "Few keys, many hops over loopback TCP: net, protocol and rt fabric hand-offs do most of the work, storage and wal almost none.",
        dcs: 2,
        partitions: 2,
        transport: Transport::Tcp,
        wal: None,
        keys_per_partition: 10_000,
        ro: TxMix { reads: 4, writes: 0 },
        rw: TxMix { reads: 2, writes: 2 },
        partitions_per_tx: 2,
    },
    WorkloadDef {
        name: "chan_paper",
        why: "Paper-shaped 20-key transactions over in-process channels: net and protocol bypassed, core 2PC fan-out, read slices, replication apply and storage do the work.",
        dcs: 2,
        partitions: 4,
        transport: Transport::Channel,
        wal: None,
        keys_per_partition: 100_000,
        ro: TxMix { reads: 20, writes: 0 },
        rw: TxMix { reads: 10, writes: 10 },
        partitions_per_tx: 4,
    },
    WorkloadDef {
        name: "durable_always",
        why: "WAL with an fsync at every commit point on the commit path: shows fsync count and commit-point discipline.",
        dcs: 1,
        partitions: 2,
        transport: Transport::Tcp,
        wal: Some(FsyncPolicy::Always),
        keys_per_partition: 10_000,
        ro: TxMix { reads: 2, writes: 0 },
        rw: TxMix { reads: 2, writes: 3 },
        partitions_per_tx: 2,
    },
    WorkloadDef {
        name: "durable_window",
        why: "Same WAL with 1 ms group-commit windows: acks wait on timers, not per-commit barriers; read-only latency here shows the engine hold set.",
        dcs: 1,
        partitions: 2,
        transport: Transport::Tcp,
        wal: Some(FsyncPolicy::Window {
            max_delay: Duration::from_millis(1),
            max_bytes: 1 << 20,
        }),
        keys_per_partition: 10_000,
        ro: TxMix { reads: 2, writes: 0 },
        rw: TxMix { reads: 2, writes: 3 },
        partitions_per_tx: 2,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl WorkloadDef {
    /// The cluster this workload runs on; durable workloads log under
    /// `wal_dir` (an existing directory there is recovered from).
    pub fn builder(&self, wal_dir: &Path) -> ClusterBuilder {
        let mut b = ClusterBuilder::new()
            .dcs(self.dcs)
            .partitions(self.partitions);
        if self.transport == Transport::Tcp {
            b = b.tcp();
        }
        if let Some(policy) = self.wal {
            b = b.durable(wal_dir).fsync(policy);
        }
        b
    }

    /// The compiled generator of one transaction class.
    pub fn compile(&self, mix: TxMix) -> Workload {
        Workload::compile(
            WorkloadSpec {
                keys_per_partition: self.keys_per_partition,
                value_size: 8,
                mix,
                partitions_per_tx: self.partitions_per_tx,
                zipf_theta: ZIPF_THETA,
            },
            self.partitions,
        )
    }

    pub fn fsync_label(&self) -> String {
        match self.wal {
            None => "none".into(),
            Some(FsyncPolicy::Window {
                max_delay,
                max_bytes,
            }) => {
                format!("window({}us,{}B)", max_delay.as_micros(), max_bytes)
            }
            Some(p) => format!("{p:?}").to_lowercase(),
        }
    }
}
