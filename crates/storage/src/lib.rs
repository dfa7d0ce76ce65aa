//! Multi-version key-value storage for the Wren reproduction.
//!
//! The paper's data store is multi-versioned: "an update operation creates
//! a new version of a key. Each version stores the value corresponding to
//! the key and some meta-data to track causality. The system periodically
//! garbage-collects old versions of keys" (§II-A).
//!
//! This crate provides that substrate, generic over the per-version
//! metadata so the same code backs Wren (two scalar timestamps, BDT) and
//! the Cure baseline (a per-DC dependency vector):
//!
//! * [`Versioned`] — what storage needs from a version: a total
//!   **last-writer-wins order key** `(commit timestamp, origin DC,
//!   transaction id)`, matching the paper's conflict-resolution rule
//!   (§II-C), plus the remote dependency time consulted by BiST bounds;
//! * [`SnapshotBound`] — a snapshot's visibility rule as first-class
//!   data: Wren's `(lt, rt)` pair, Cure's dependency vector, or a plain
//!   commit-timestamp cutoff;
//! * [`VersionChain`] — the versions of one key: bare versions, the
//!   only one held inline, two or more in a `Vec`;
//! * [`MvStore`] — a flat map of chains behind an [`FxHasher`]-keyed
//!   map, with watermark-based garbage collection that walks only the
//!   chains holding two or more versions ([`MvStore::collect`]) and
//!   O(1) [`MvStore::stats`], heap bytes included
//!   (`docs/storage_layout.md` has the per-key byte budget);
//! * [`ShardedStore`] — a partition's worth of data as `S` power-of-two
//!   key-hash **stripes**, each an independent [`MvStore`] (the
//!   single-threaded reference the benches and property tests pin the
//!   stripe layout against);
//! * [`ConcurrentShardedStore`] — the same stripe layout with each
//!   stripe behind its own reader-writer lock and the stable-snapshot
//!   timestamps published through atomics. This is what the protocol
//!   servers run on: one writer thread applies the protocol while other
//!   threads serve slices concurrently (see its type docs for the safety
//!   argument);
//! * [`wal`] and [`checkpoint`] — the byte-level durability substrate: an
//!   append-only CRC-framed record log with group-commit fsync policies
//!   and a total (never-panicking) valid-prefix reader, plus atomically
//!   written snapshot files that bound replay. The typed record set and
//!   the replay logic live above, in `wren-core`'s durability module —
//!   the same sans-io layering the network stack uses.
//!
//! # Stripe layout
//!
//! A [`ShardedStore`] picks a version's stripe from the **top
//! `log2(S)` bits** of the key's FxHash; the inner maps index their
//! tables with the same hash's low bits, so the two selections stay
//! independent. Stripes are invisible to readers — `insert` /
//! `latest_visible` / `newest` / `chain` / `stats` / `iter` behave
//! exactly like the flat store (property-tested against it) — but give
//! the write side independent units: per-stripe stats rollup, per-stripe
//! GC passes ([`ShardedStore::collect_stripe`]), and per-stripe batch
//! buckets, so a future multi-threaded server can serve slices
//! concurrently without a global lock.
//!
//! # The batch-apply contract
//!
//! Replication applies versions in **commit-timestamp batches**: every
//! version in a replication batch shares one commit timestamp.
//! [`VersionChain::apply_batch`] exploits that: given a run
//! of versions sorted ascending by LWW order key, it finds the splice
//! point with a single binary search and bulk-inserts the run — turning
//! `N × O(log n + shift)` one-at-a-time inserts into `O(log n + N)`
//! plus at most one shift. [`MvStore::apply_batch`] sorts a whole batch
//! once by `(key, order key)` and feeds each key's run to its chain;
//! [`ShardedStore::apply_batch`] buckets by stripe first (buffers are
//! reused: a batch allocates only where a chain grows). Callers need
//! not pre-sort: the store-level entry points sort internally, and ties
//! on the commit timestamp resolve exactly as repeated
//! [`VersionChain::insert`] calls would.
//!
//! # The ordering invariant behind the read path
//!
//! Every chain keeps its versions **sorted by the LWW order key**, read
//! from the version itself at each comparison. The key's first component
//! is the commit timestamp, so sorting by key is also sorting by commit
//! timestamp (ties broken by origin DC, then transaction id — the same
//! order LWW resolves conflicts in).
//!
//! Every [`SnapshotBound`] decomposes into
//!
//! 1. a **ceiling**: a commit timestamp no visible version can exceed
//!    (`lt.max(rt)` for Wren, the vector maximum for Cure). Because the
//!    chain is key-sorted, "everything at or below the ceiling" is a
//!    **prefix** of the chain, found by `partition_point` binary search;
//! 2. a cheap **per-origin refinement** (which of `lt`/`rt` applies, or
//!    which vector entry), applied walking newest-to-oldest *within* that
//!    prefix.
//!
//! For a pure cutoff bound ([`SnapshotBound::at_most`]) the refinement
//! accepts the first candidate, so a read is exactly one binary search.
//! For Wren/Cure bounds the refinement usually accepts the first or
//! second candidate; the binary search has already skipped the (deep,
//! under replication lag) suffix of too-new versions that the seed's
//! closure-predicate API had to test one by one.
//!
//! # Example
//!
//! ```
//! use wren_storage::{MvStore, SnapshotBound, Versioned};
//! use wren_clock::Timestamp;
//!
//! #[derive(Clone, Debug)]
//! struct V { ct: Timestamp, data: u32 }
//! impl Versioned for V {
//!     fn order_key(&self) -> (Timestamp, u8, u64) { (self.ct, 0, 0) }
//! }
//!
//! let mut store: MvStore<u64, V> = MvStore::new();
//! store.insert(7, V { ct: Timestamp::from_micros(10), data: 1 });
//! store.insert(7, V { ct: Timestamp::from_micros(20), data: 2 });
//! // Read at a snapshot that only covers the first version:
//! let bound = SnapshotBound::at_most(Timestamp::from_micros(15));
//! let seen = store.latest_visible(&7, &bound);
//! assert_eq!(seen.unwrap().data, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
pub mod checkpoint;
mod concurrent;
mod fx;
mod sharded;
mod snapshot;
mod store;
pub mod wal;

pub use chain::{OrderKey, VersionChain, Versioned};
pub use concurrent::ConcurrentShardedStore;
pub use fx::{FxBuildHasher, FxHasher};
pub use sharded::ShardedStore;
pub use snapshot::SnapshotBound;
pub use store::{MvStore, StoreStats};
pub use wal::{FsyncPolicy, RecoveredLog, Wal, MAX_RECORD_LEN};
