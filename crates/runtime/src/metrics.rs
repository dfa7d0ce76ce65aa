//! Runtime-layer instrumentation: fabric and session metric handles,
//! plus the cluster's merged-snapshot plumbing.
//!
//! The per-partition protocol metrics live inside each
//! [`WrenServer`](wren_core::WrenServer) (see `wren_core::metrics`);
//! this module adds the two layers the runtime itself owns:
//!
//! * [`FabricMetrics`] — what the TCP fabric sees at the socket
//!   boundary: frames and bytes in/out, connections accepted and
//!   severed, dial-backoff parks, the outbox-depth high-water mark,
//!   the frame-ceiling drop counter and the frames-per-`writev`
//!   histogram of the vectored drains.
//! * [`SessionMetrics`] — client-side operation latencies (begin /
//!   read / commit round trips) and the explicit-abort counter, shared
//!   by every session the cluster hands out.
//!
//! [`Cluster::metrics`](crate::Cluster::metrics) merges the partition
//! registries with these two (and the fault plan's, if any) into one
//! [`MetricsSnapshot`](wren_obs::MetricsSnapshot).

use wren_obs::{Counter, Gauge, Histogram, Registry};

/// Socket-boundary metric handles of a cluster's TCP fabric.
#[derive(Debug, Clone)]
pub(crate) struct FabricMetrics {
    registry: Registry,
    /// Frames enqueued onto outbound server→server links.
    pub frames_out: Counter,
    /// Payload bytes of those frames.
    pub bytes_out: Counter,
    /// Frames decoded off accepted connections (hellos excluded).
    pub frames_in: Counter,
    /// Payload bytes of those frames.
    pub bytes_in: Counter,
    /// Connections accepted by the fabric's listeners.
    pub conns_accepted: Counter,
    /// Accepted connections torn down (EOF, error, kill, shutdown).
    pub conns_severed: Counter,
    /// Refused peer dials that parked a link behind its backoff gate.
    pub dial_backoff_parks: Counter,
    /// Server→server messages refused for exceeding the frame ceiling
    /// (0 on any healthy run; the loopback oracles assert it).
    pub dropped_frames: Counter,
    /// High-water mark of queued (unwritten) bytes across outboxes.
    pub outbox_depth_bytes: Gauge,
    /// Frames retired per `writev` call by the reactor's vectored
    /// drains; a mean above 1 under pipelined load is the syscall
    /// batching working.
    pub writev_frames_per_call: Histogram,
}

impl FabricMetrics {
    pub(crate) fn new() -> FabricMetrics {
        let registry = Registry::new();
        FabricMetrics {
            frames_out: registry.counter("tcp_frames_out"),
            bytes_out: registry.counter("tcp_bytes_out"),
            frames_in: registry.counter("tcp_frames_in"),
            bytes_in: registry.counter("tcp_bytes_in"),
            conns_accepted: registry.counter("tcp_conns_accepted"),
            conns_severed: registry.counter("tcp_conns_severed"),
            dial_backoff_parks: registry.counter("tcp_dial_backoff_parks"),
            dropped_frames: registry.counter("tcp_dropped_frames"),
            outbox_depth_bytes: registry.gauge("tcp_outbox_depth_bytes"),
            writev_frames_per_call: registry.histogram("fabric_writev_frames_per_call"),
            registry,
        }
    }

    pub(crate) fn registry(&self) -> Registry {
        self.registry.clone()
    }
}

/// Client-side operation metric handles, shared by every session a
/// cluster creates ([`Cluster::session`](crate::Cluster::session)).
#[derive(Debug, Clone)]
pub(crate) struct SessionMetrics {
    registry: Registry,
    /// `begin()` round-trip latency in µs.
    pub begin_micros: Histogram,
    /// `read()` latency in µs (cache-only reads included).
    pub read_micros: Histogram,
    /// `commit()` round-trip latency in µs.
    pub commit_micros: Histogram,
    /// Commits the coordinator explicitly aborted (in-doubt 2PC).
    pub tx_aborted: Counter,
}

impl SessionMetrics {
    pub(crate) fn new() -> SessionMetrics {
        let registry = Registry::new();
        SessionMetrics {
            begin_micros: registry.histogram("session_begin_micros"),
            read_micros: registry.histogram("session_read_micros"),
            commit_micros: registry.histogram("session_commit_micros"),
            tx_aborted: registry.counter("session_tx_aborted"),
            registry,
        }
    }

    pub(crate) fn registry(&self) -> Registry {
        self.registry.clone()
    }
}
