//! Per-partition instrumentation: the server's metric handles and the
//! tx-lifecycle trace ring.
//!
//! Every [`WrenServer`](crate::WrenServer) owns a private
//! [`wren_obs::Registry`] and creates its handles once at construction,
//! so the protocol hot paths record through pre-resolved lock-free
//! handles (see the `wren-obs` crate docs for the record → snapshot →
//! exposition layering). Metric names are unprefixed: a cluster merges
//! the per-partition snapshots, so `commit_prepare_micros` in the
//! merged view is the histogram across all partitions.

use wren_clock::Timestamp;
use wren_obs::{Counter, Gauge, Histogram, Registry, TraceRing};
use wren_protocol::{ServerId, TxId};

/// Capacity of each partition's trace ring: enough history to explain a
/// failed chaos round without holding the whole run.
pub const TRACE_RING_EVENTS: usize = 512;

/// One entry in a partition's tx-lifecycle trace ring. Timestamps are
/// HLC values (or true-time micros for infrastructure events), so a
/// merged dump across partitions interleaves meaningfully.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxEvent {
    /// A coordinator assigned a snapshot to a new transaction.
    TxBegin {
        /// The transaction.
        tx: TxId,
        /// The local-stable snapshot time handed to the client.
        lt: Timestamp,
    },
    /// A cohort voted: the transaction is in its prepared list.
    Prepared {
        /// The transaction.
        tx: TxId,
        /// The proposed commit (prepare) timestamp.
        pt: Timestamp,
    },
    /// The coordinator fixed the commit outcome.
    Decided {
        /// The transaction.
        tx: TxId,
        /// The commit timestamp (max over votes).
        ct: Timestamp,
    },
    /// The coordinator aborted an in-doubt 2PC round (missing votes past
    /// the abort timeout) and told the client.
    AbortedInDoubt {
        /// The transaction.
        tx: TxId,
    },
    /// A version-clock advance (tick or event-driven) installed committed
    /// transactions locally.
    Applied {
        /// Upper bound the version clock advanced to.
        ub: Timestamp,
        /// Transactions applied by this advance.
        txs: u64,
    },
    /// The partition's stable cut (LST/RST) advanced.
    Stable {
        /// New local stable time.
        lst: Timestamp,
        /// New remote stable time.
        rst: Timestamp,
    },
    /// The cluster driver killed this partition (crash injection).
    KillPartition {
        /// The killed replica.
        server: ServerId,
    },
    /// The cluster driver restarted this partition from its log.
    Restart {
        /// The restarted replica.
        server: ServerId,
    },
    /// The restarted partition opened catch-up windows to its siblings.
    Rejoin {
        /// The rejoining replica.
        server: ServerId,
    },
    /// A live link carrying traffic from `peer` broke.
    LinkLost {
        /// The peer whose frames died with the connection.
        peer: ServerId,
    },
    /// A previously-lost link came back (catch-up window closed).
    LinkHealed {
        /// The peer the lane is re-open to.
        peer: ServerId,
    },
}

/// Pre-resolved metric handles for one partition server. All handles
/// alias the server's [`Registry`]; recording is lock-free.
#[derive(Debug, Clone)]
pub struct ServerMetrics {
    registry: Registry,
    /// Commit stage 1 — prepare fan-out to last vote, in µs.
    pub commit_prepare_micros: Histogram,
    /// Commit stage 2 — cohort vote sent to commit verdict applied, µs.
    pub commit_decide_micros: Histogram,
    /// Commit stage 3 — commit verdict to local install, µs.
    pub commit_apply_micros: Histogram,
    /// Read-slice service time in µs (writer path and `SliceReader`s).
    pub read_slice_micros: Histogram,
    /// Synchronous WAL flush (write + fsync) in µs.
    pub wal_fsync_micros: Histogram,
    /// WAL record payload sizes in bytes.
    pub wal_append_bytes: Histogram,
    /// Commit points made durable per fsync (1 under `Always`, `n`
    /// under `EveryN`, the window's take under `Window`).
    pub wal_group_commit_size: Histogram,
    /// Checkpoint encode + rotate duration in µs.
    pub checkpoint_micros: Histogram,
    /// Transactions per shipped replication batch.
    pub replication_batch_txs: Histogram,
    /// Remote batch age at apply (now − batch ct) in µs.
    pub replication_lag_micros: Histogram,
    /// Local visibility lag (now − LST) in µs, sampled at stable raises.
    pub visibility_lag_local_micros: Histogram,
    /// Remote visibility lag (now − RST) in µs.
    pub visibility_lag_remote_micros: Histogram,
    /// Latest local visibility lag (gauge twin of the histogram).
    pub visibility_lag_local_gauge: Gauge,
    /// Latest remote visibility lag.
    pub visibility_lag_remote_gauge: Gauge,
    /// Stabilization messages emitted (`StableGossip`, `GossipUp` and
    /// `GossipDown`, cascades included): the metadata price of a fresh
    /// stable cut.
    pub gossip_msgs_sent: Counter,
    /// Heartbeats shipped to sibling replicas (one per sibling per
    /// version-clock advance that had no data to replicate).
    pub heartbeats_sent: Counter,
    /// Version-clock advances made by the replication tick (Δ_R, to the
    /// physical clock).
    pub vv_advances_tick: Counter,
    /// Version-clock advances made by `WrenServer::advance` (in the turn
    /// a commit landed or a newer clock was heard).
    pub vv_advances_event: Counter,
    /// In-doubt 2PC rounds the coordinator aborted (and reported to the
    /// client; see the chaos oracle's exactness argument).
    pub tx_aborts_indoubt: Counter,
    /// Slice requests served (shared with `SliceReader` handles).
    pub slices_served: Counter,
    /// Individual keys read.
    pub keys_read: Counter,
    /// GC tick duration in µs (gossip bookkeeping + the store's pass
    /// over its multi-version chains), one sample per tick.
    pub gc_tick_micros: Histogram,
    /// Versions removed by garbage collection.
    pub gc_versions_removed: Counter,
    /// `StoreStats::keys` as of the last GC tick.
    pub store_keys: Gauge,
    /// `StoreStats::versions` as of the last GC tick.
    pub store_versions: Gauge,
    /// `StoreStats::multi_version_chains` as of the last GC tick (after
    /// its pass: the chains GC could not bring back to one version).
    pub store_multi_version_chains: Gauge,
    /// `StoreStats::heap_bytes` as of the last GC tick.
    pub store_heap_bytes: Gauge,
}

impl ServerMetrics {
    /// Creates every handle against a fresh registry.
    pub fn new() -> Self {
        let registry = Registry::new();
        ServerMetrics {
            commit_prepare_micros: registry.histogram("commit_prepare_micros"),
            commit_decide_micros: registry.histogram("commit_decide_micros"),
            commit_apply_micros: registry.histogram("commit_apply_micros"),
            read_slice_micros: registry.histogram("read_slice_micros"),
            wal_fsync_micros: registry.histogram("wal_fsync_micros"),
            wal_append_bytes: registry.histogram("wal_append_bytes"),
            wal_group_commit_size: registry.histogram("wal_group_commit_size"),
            checkpoint_micros: registry.histogram("checkpoint_micros"),
            replication_batch_txs: registry.histogram("replication_batch_txs"),
            replication_lag_micros: registry.histogram("replication_lag_micros"),
            visibility_lag_local_micros: registry.histogram("visibility_lag_local_micros"),
            visibility_lag_remote_micros: registry.histogram("visibility_lag_remote_micros"),
            visibility_lag_local_gauge: registry.gauge("visibility_lag_local"),
            visibility_lag_remote_gauge: registry.gauge("visibility_lag_remote"),
            gossip_msgs_sent: registry.counter("gossip_msgs_sent"),
            heartbeats_sent: registry.counter("heartbeats_sent"),
            vv_advances_tick: registry.counter("vv_advances_tick"),
            vv_advances_event: registry.counter("vv_advances_event"),
            tx_aborts_indoubt: registry.counter("tx_aborts_indoubt"),
            slices_served: registry.counter("slices_served"),
            keys_read: registry.counter("keys_read"),
            gc_tick_micros: registry.histogram("gc_tick_micros"),
            gc_versions_removed: registry.counter("gc_versions_removed"),
            store_keys: registry.gauge("store_keys"),
            store_versions: registry.gauge("store_versions"),
            store_multi_version_chains: registry.gauge("store_multi_version_chains"),
            store_heap_bytes: registry.gauge("store_heap_bytes"),
            registry,
        }
    }

    /// The registry behind the handles (snapshot/merge at cluster level).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

/// A partition's trace ring type (events are [`TxEvent`]s).
pub type ServerTrace = TraceRing<TxEvent>;
