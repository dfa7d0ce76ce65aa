//! Threaded cluster runtime for the Wren reproduction.
//!
//! While `wren-harness` drives the protocol state machines on a
//! deterministic simulator (for the paper's figures), this crate runs the
//! **same state machines on real OS threads**: one writer thread per
//! partition owns the mutating protocol (commits, replication, gossip,
//! GC), while a read slice is answered by whichever thread delivers it —
//! a socket event loop, or the coordinator's writer over channels —
//! straight from the partition's stripe-locked store. Wren's reads never
//! block, so they need no thread of their own. Crossbeam channels are
//! the lossless FIFO transport and ticks follow the wall clock. It
//! demonstrates that the library is a usable data store, and it is what
//! the runnable examples build on.
//!
//! * [`ClusterBuilder`] / [`Cluster`] — spawn an `m` DC × `n` partition
//!   cluster in-process;
//! * [`Session`] — the paper's client API (`START` / `READ` / `WRITE` /
//!   `COMMIT`) as blocking calls, with CANToR's client-side cache giving
//!   read-your-writes over the lagging stable snapshot;
//! * [`ClusterBuilder::tcp`] — the same engines behind **real sockets**:
//!   one listener per partition, length-prefixed framed sessions
//!   (`wren-net`), bounded per-connection send queues so slow clients
//!   cannot stall a partition, and [`Session::connect_tcp`] to join
//!   from another process knowing only [`Cluster::server_addrs`]. All
//!   sockets are served by a fixed pool of epoll reactor threads
//!   ([`ClusterBuilder::reactor_threads`]) — fabric threads are
//!   O(reactor_threads + partitions), not O(connections);
//! * [`ClusterBuilder::durable`] — per-partition write-ahead logging
//!   and checkpoints: each engine logs its commits, replication applies
//!   and stable-bound advances (group-committed per
//!   [`FsyncPolicy`](ClusterBuilder::fsync) before any message that
//!   asserts them leaves the partition — and only those: a read never
//!   waits for a write's fsync window), rotates the log behind periodic
//!   checkpoints, and recovers on boot by replaying the newest
//!   checkpoint + log tail. [`Cluster::kill_partition`] (process kill:
//!   the page cache survives) and [`Cluster::power_cut_partition`]
//!   (only fsynced bytes survive) with [`Cluster::restart_partition`]
//!   exercise the crash path end to end: a crash loses exactly what the
//!   fsync policy permits, nothing a client or peer was told, and a
//!   restarted partition catches up from its sibling replicas before
//!   serving as if it never left.
//!   Over TCP the kill is real: the victim's listener closes and every
//!   one of its sockets is torn down, peers park the dead link behind
//!   jittered exponential backoff and re-dial on demand, and sessions
//!   transparently reconnect and retry idempotent operations
//!   (commits are never re-sent);
//! * [`ClusterBuilder::fault_plan`] — a seeded, replayable
//!   [`FaultPlan`] underneath the TCP fabric: drop / duplicate /
//!   delay / reorder server-to-server frames, refuse dials, sever
//!   links or partition the peer set — the substrate for the chaos
//!   failover oracle;
//! * [`Cluster::metrics`] — the whole stack is instrumented with
//!   `wren-obs` (lock-free counters and mergeable log-linear
//!   histograms): commit-stage / WAL / read-slice / replication /
//!   visibility-lag latencies per partition engine, socket-boundary
//!   counters in the TCP fabric, and session-op latencies, merged
//!   into one [`MetricsSnapshot`] (diffable, Prometheus-renderable;
//!   [`ClusterBuilder::metrics_every`] logs interval deltas). Each
//!   partition also keeps a tx-lifecycle trace ring
//!   ([`Cluster::dump_traces`]) — the post-mortem for chaos runs.
//!
//! # Example
//!
//! ```
//! use wren_rt::ClusterBuilder;
//! use wren_protocol::Key;
//! use bytes::Bytes;
//!
//! let cluster = ClusterBuilder::new().dcs(2).partitions(2).build();
//! let mut alice = cluster.session(0); // DC 0
//! alice.begin().unwrap();
//! alice.write(Key(7), Bytes::from_static(b"v1"));
//! alice.commit().unwrap();
//! // Alice sees her write immediately (client-side cache)...
//! alice.begin().unwrap();
//! assert_eq!(alice.read_one(Key(7)).unwrap(), Some(Bytes::from_static(b"v1")));
//! alice.commit().unwrap();
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod engine;
mod error;
mod metrics;
mod reactor_fabric;
mod session;
mod tcp;

pub use cluster::{Backend, Cluster, ClusterBuilder};
pub use error::RtError;
pub use session::Session;
pub use wren_core::{FsyncPolicy, ServerTrace, TxEvent};
pub use wren_net::fault::{FaultPlan, FaultStats};
pub use wren_obs::MetricsSnapshot;
