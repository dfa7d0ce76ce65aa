//! **Wren**: the paper's primary contribution, as sans-io state machines.
//!
//! Wren (Spirovska, Didona, Zwaenepoel — DSN 2018) is the first
//! Transactional Causal Consistency system that combines **nonblocking
//! reads** with **sharding**. This crate implements its three protocols
//! exactly as specified in Algorithms 1–4 of the paper:
//!
//! * **CANToR** (Client-Assisted Nonblocking Transactional Reads) — a
//!   transaction's snapshot is the union of a *local stable snapshot*
//!   (installed by every partition of the DC, so reads never wait) and a
//!   *client-side cache* holding the client's own not-yet-stable writes
//!   ([`WrenClient`]).
//! * **BDT** (Binary Dependency Time) — every item carries exactly two
//!   scalar timestamps: `ut` (local dependencies) and `rdt` (remote
//!   dependencies), regardless of the number of DCs or partitions
//!   ([`wren_protocol::WrenVersion`]).
//! * **BiST** (Binary Stable Time) — partitions gossip two scalars and
//!   derive the LST/RST watermarks that define snapshots — every Δ_G
//!   ([`WrenServer::on_gossip_tick`]), or as soon as they move
//!   ([`WrenServer::stabilize`]).
//!
//! The state machines perform no I/O and read no clocks: drivers (the
//! deterministic simulator in `wren-harness`, the threaded runtime in
//! `wren-rt`) deliver messages and ticks, which makes every protocol
//! behaviour unit-testable and every experiment reproducible.
//!
//! # Example: one client, one server, in-process
//!
//! ```
//! use wren_core::{WrenClient, WrenConfig, WrenServer};
//! use wren_clock::SkewedClock;
//! use wren_protocol::{ClientId, Dest, Key, Outgoing, ServerId};
//! use bytes::Bytes;
//!
//! let cfg = WrenConfig::new(1, 1);
//! let sid = ServerId::new(0, 0);
//! let mut server = WrenServer::new(sid, cfg, SkewedClock::perfect());
//! let mut client = WrenClient::new(ClientId(0), sid);
//! let mut out = Vec::new();
//!
//! // START
//! let msg = client.start();
//! server.handle(Dest::Client(client.id()), msg, 0, &mut out);
//! client.on_start_resp(out.pop().unwrap().msg);
//!
//! // WRITE + COMMIT
//! client.write([(Key(1), Bytes::from_static(b"hello"))]);
//! let msg = client.commit();
//! server.handle(Dest::Client(client.id()), msg, 10, &mut out);
//! let ct = client.on_commit_resp(out.pop().unwrap().msg);
//! assert!(!ct.is_zero());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod config;
pub mod durability;
pub mod metrics;
mod server;
mod visibility;

pub use client::{ClientStats, ReadOutcome, WrenClient};
pub use config::WrenConfig;
pub use durability::{asserts_logged_state, DurableBoot, DurableLog, WalOp};
pub use metrics::{ServerMetrics, ServerTrace, TxEvent};
pub use wren_storage::FsyncPolicy;
pub use server::{ServerStats, SliceReader, WrenServer};
pub use visibility::VisibilitySampler;
