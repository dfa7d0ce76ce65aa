//! **Wren** — a complete Rust reproduction of *"Wren: Nonblocking Reads in
//! a Partitioned Transactional Causally Consistent Data Store"*
//! (Spirovska, Didona, Zwaenepoel — DSN 2018).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `wren-core` | CANToR transactions, BDT, BiST (the paper's contribution) |
//! | [`cure`] | `wren-cure` | the Cure and H-Cure baselines |
//! | [`protocol`] | `wren-protocol` | data model, messages, binary codec, framing |
//! | [`net`] | `wren-net` | TCP transport primitives: handshake, outboxes, framed reads |
//! | [`clock`] | `wren-clock` | hybrid logical clocks, version vectors |
//! | [`storage`] | `wren-storage` | multi-version chains with GC |
//! | [`sim`] | `wren-sim` | deterministic discrete-event simulator |
//! | [`rt`] | `wren-rt` | threaded cluster with a blocking `Session` API |
//! | [`workload`] | `wren-workload` | YCSB-style zipfian transaction mixes |
//! | [`harness`] | `wren-harness` | experiment runner behind every figure |
//!
//! # Quickstart
//!
//! Run the examples:
//!
//! ```bash
//! cargo run --release --example quickstart
//! cargo run --release --example photo_album
//! cargo run --release --example social_graph
//! cargo run --release --example geo_visibility
//! cargo run --release --example blocking_anatomy
//! cargo run --release --example tcp_cluster
//! ```
//!
//! Reproduce the paper's figures:
//!
//! ```bash
//! cargo bench --workspace            # quick sweep
//! WREN_FULL=1 cargo bench --workspace  # paper-scale sweep
//! ```

#![forbid(unsafe_code)]

pub use wren_clock as clock;
pub use wren_core as core;
pub use wren_cure as cure;
pub use wren_harness as harness;
pub use wren_net as net;
pub use wren_protocol as protocol;
pub use wren_rt as rt;
pub use wren_sim as sim;
pub use wren_storage as storage;
pub use wren_workload as workload;
