//! Stripe-locked concurrent storage: the [`ShardedStore`] layout with
//! each stripe behind its own reader-writer lock, so read slices can be
//! served from many threads while one writer applies the protocol.
//!
//! [`ShardedStore`] (PR 2) gave a partition independent stripes but still
//! required `&mut self` for every write, which chains the whole store to
//! one thread. A [`ConcurrentShardedStore`] is the multi-threaded step
//! the ROADMAP queued behind it:
//!
//! * every stripe is an independent `RwLock<MvStore>` — readers of
//!   different keys share stripes without contention, readers of the same
//!   stripe share the read lock, and a writer only excludes readers of
//!   the *one* stripe it touches;
//! * the whole API takes `&self`: the single protocol writer and any
//!   number of reading threads operate through the same shared handle
//!   (typically an `Arc<ConcurrentShardedStore>`);
//! * the partition's **stable-snapshot timestamps** (Wren's `lst`/`rst`)
//!   are published through atomics ([`publish_stable`], [`stable`]), so a
//!   reader picks up its visibility bound without ever touching the
//!   writer's state. Publication is monotone (`fetch_max`) and uses
//!   release/acquire ordering: a reader that observes a raised timestamp
//!   also observes every version applied before it was published.
//!
//! Reads return **owned** versions (a clone taken inside the read lock)
//! rather than references: a reference cannot outlive a lock guard, and
//! the protocol servers cloned the returned version anyway to put it on
//! the wire.
//!
//! # Why reads at a stable bound are safe
//!
//! Wren's invariant — the snapshot `(lt, rt)` only ever names versions
//! already installed on every partition — is what makes the lock split
//! sound. A concurrent writer can only be installing versions *newer*
//! than any published stable bound, so a reader either misses them
//! (correct: they are above its ceiling) or sees them already spliced
//! (correct: the stripe lock rules out torn state). The oracle stress
//! test (`tests/concurrent_stress.rs`) checks exactly this against a
//! single-threaded [`MvStore`] replay.
//!
//! [`publish_stable`]: ConcurrentShardedStore::publish_stable
//! [`stable`]: ConcurrentShardedStore::stable

use crate::{FxBuildHasher, MvStore, SnapshotBound, StoreStats, VersionChain, Versioned};
use parking_lot::{Mutex, RwLock};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, Ordering};
use wren_clock::Timestamp;

/// Default stripe count, matching [`ShardedStore`](crate::ShardedStore):
/// enough lock granularity to spread a partition's concurrent readers without
/// bloating small stores.
const DEFAULT_STRIPES: usize = 16;

/// A partition's worth of multi-versioned data, striped by key hash with
/// **one reader-writer lock per stripe** and atomically-published stable
/// snapshot timestamps.
///
/// Semantically a drop-in for [`ShardedStore`](crate::ShardedStore) /
/// [`MvStore`]: `insert` / `latest_visible` / `newest` / `collect` /
/// `stats` answer exactly what the single-threaded stores answer (the
/// property stress test replays both). The differences are concurrency-
/// shaped:
///
/// * every method takes `&self`, so the store can be shared via `Arc`
///   between one protocol writer and any number of reading threads;
/// * lookups return owned (cloned) versions instead of references;
/// * chain-level access goes through [`with_chain`] /
///   [`with_stripe`](ConcurrentShardedStore::with_stripe) closures, which
///   run under the stripe's read lock.
///
/// [`with_chain`]: ConcurrentShardedStore::with_chain
pub struct ConcurrentShardedStore<K, V> {
    stripes: Vec<RwLock<MvStore<K, V>>>,
    /// `64 - log2(stripe count)`: keys select a stripe by `hash >> shift`.
    shift: u32,
    hasher: FxBuildHasher,
    /// Published local stable time (raw [`Timestamp`] bits; monotone).
    lst: AtomicU64,
    /// Published remote stable time (raw [`Timestamp`] bits; monotone).
    rst: AtomicU64,
    /// Per-stripe buckets reused across [`apply_batch`] calls. Behind a
    /// `Mutex` only so `apply_batch` can take `&self`; the protocol has a
    /// single writer, so the lock is uncontended.
    ///
    /// [`apply_batch`]: ConcurrentShardedStore::apply_batch
    scratch: Mutex<Vec<Vec<(K, V)>>>,
}

impl<K, V> Default for ConcurrentShardedStore<K, V> {
    fn default() -> Self {
        ConcurrentShardedStore::with_stripes(DEFAULT_STRIPES)
    }
}

impl<K, V> fmt::Debug for ConcurrentShardedStore<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConcurrentShardedStore")
            .field("stripes", &self.stripes.len())
            .field("lst", &Timestamp::from_raw(self.lst.load(Ordering::Acquire)))
            .field("rst", &Timestamp::from_raw(self.rst.load(Ordering::Acquire)))
            .finish_non_exhaustive()
    }
}

impl<K, V> ConcurrentShardedStore<K, V> {
    /// Creates an empty store with the default stripe count.
    pub fn new() -> Self {
        ConcurrentShardedStore::default()
    }

    /// Creates an empty store with at least `stripes` stripes, rounded up
    /// to a power of two (minimum 1).
    pub fn with_stripes(stripes: usize) -> Self {
        let n = stripes.max(1).next_power_of_two();
        ConcurrentShardedStore {
            stripes: (0..n).map(|_| RwLock::new(MvStore::default())).collect(),
            shift: 64 - n.trailing_zeros(),
            hasher: FxBuildHasher::default(),
            lst: AtomicU64::new(0),
            rst: AtomicU64::new(0),
            scratch: Mutex::new((0..n).map(|_| Vec::new()).collect()),
        }
    }

    /// Number of stripes (always a power of two).
    pub fn n_stripes(&self) -> usize {
        self.stripes.len()
    }

    /// Raises the published stable snapshot to at least `(lst, rst)`.
    ///
    /// Monotone (`fetch_max`) and release-ordered: every version the
    /// caller applied before publishing is visible to any reader that
    /// observes the raised timestamps through [`stable`]. Safe to call
    /// from both the writer and reading threads (Wren's `SliceReq` carries
    /// stable times that raise the target's watermarks).
    ///
    /// [`stable`]: ConcurrentShardedStore::stable
    pub fn publish_stable(&self, lst: Timestamp, rst: Timestamp) {
        self.lst.fetch_max(lst.raw(), Ordering::AcqRel);
        self.rst.fetch_max(rst.raw(), Ordering::AcqRel);
    }

    /// The published `(lst, rst)` stable snapshot pair.
    pub fn stable(&self) -> (Timestamp, Timestamp) {
        (self.lst(), self.rst())
    }

    /// The published local stable time.
    pub fn lst(&self) -> Timestamp {
        Timestamp::from_raw(self.lst.load(Ordering::Acquire))
    }

    /// The published remote stable time.
    pub fn rst(&self) -> Timestamp {
        Timestamp::from_raw(self.rst.load(Ordering::Acquire))
    }
}

impl<K: Eq + Hash + Clone, V: Versioned + Clone> ConcurrentShardedStore<K, V> {
    /// The stripe index `key` maps to (top hash bits, exactly like
    /// [`ShardedStore`](crate::ShardedStore) — see its docs for why the
    /// high end).
    #[inline]
    pub fn stripe_of(&self, key: &K) -> usize {
        if self.shift == 64 {
            return 0; // single stripe: `hash >> 64` would be UB-shaped
        }
        (self.hasher.hash_one(key) >> self.shift) as usize
    }

    /// Inserts a new version of `key`, write-locking only its stripe.
    pub fn insert(&self, key: K, version: V) {
        let s = self.stripe_of(&key);
        self.stripes[s].write().insert(key, version);
    }

    /// Inserts a version of `key` only if no version with the same LWW
    /// order key exists ([`MvStore::insert_if_new`]). Returns whether
    /// the insert happened. WAL replay and post-restart catch-up use
    /// this so re-delivered writes are no-ops.
    pub fn insert_if_new(&self, key: K, version: V) -> bool {
        let s = self.stripe_of(&key);
        self.stripes[s].write().insert_if_new(key, version)
    }

    /// The newest version of `key` inside the snapshot `bound`, cloned
    /// out under the stripe's read lock.
    pub fn latest_visible(&self, key: &K, bound: &SnapshotBound<'_>) -> Option<V> {
        self.stripes[self.stripe_of(key)]
            .read()
            .latest_visible(key, bound)
            .cloned()
    }

    /// The newest version of `key` outright, cloned out under the
    /// stripe's read lock.
    pub fn newest(&self, key: &K) -> Option<V> {
        self.stripes[self.stripe_of(key)].read().newest(key).cloned()
    }

    /// Runs `f` on `key`'s chain (or `None`) under the stripe's read
    /// lock. The closure form keeps the guard's lifetime inside the call.
    pub fn with_chain<R>(&self, key: &K, f: impl FnOnce(Option<&VersionChain<V>>) -> R) -> R {
        f(self.stripes[self.stripe_of(key)].read().chain(key))
    }

    /// Runs `f` on one stripe's [`MvStore`] under its read lock (tests,
    /// oracle comparisons, per-stripe reporting).
    ///
    /// # Panics
    ///
    /// Panics if `stripe >= n_stripes()`.
    pub fn with_stripe<R>(&self, stripe: usize, f: impl FnOnce(&MvStore<K, V>) -> R) -> R {
        f(&self.stripes[stripe].read())
    }

    /// Applies a batch of versions: items are bucketed by stripe, then
    /// each stripe is write-locked once and splices its keys' runs with
    /// one chain search per key ([`MvStore::apply_batch`]). Stripes not
    /// named by the batch are never locked, so concurrent readers of
    /// other stripes proceed untouched. `items` is drained (capacity
    /// kept). Returns the number of versions applied.
    pub fn apply_batch(&self, items: &mut Vec<(K, V)>) -> usize
    where
        K: Ord,
    {
        if items.is_empty() {
            return 0;
        }
        let mut scratch = self.scratch.lock();
        for (k, v) in items.drain(..) {
            let s = self.stripe_of(&k);
            scratch[s].push((k, v));
        }
        let mut applied = 0;
        for (stripe, bucket) in self.stripes.iter().zip(scratch.iter_mut()) {
            if !bucket.is_empty() {
                applied += stripe.write().apply_batch(bucket);
            }
        }
        applied
    }

    /// Runs garbage collection stripe by stripe
    /// ([`collect_stripe`](ConcurrentShardedStore::collect_stripe)):
    /// only stripes with a multi-version chain are write-locked, one at
    /// a time, each for a walk of those chains alone. Returns the number
    /// of versions removed.
    pub fn collect(&self, oldest_snapshot: &SnapshotBound<'_>) -> usize {
        (0..self.stripes.len())
            .map(|stripe| self.collect_stripe(stripe, oldest_snapshot))
            .sum()
    }

    /// Garbage-collects a single stripe. Only multi-version chains can
    /// shrink ([`MvStore::collect`]), so a stripe without one is left
    /// alone — checked under its *read* lock: an idle stripe never
    /// stalls a reader. Returns the number of versions removed.
    ///
    /// # Panics
    ///
    /// Panics if `stripe >= n_stripes()`.
    pub fn collect_stripe(&self, stripe: usize, oldest_snapshot: &SnapshotBound<'_>) -> usize {
        let stripe = &self.stripes[stripe];
        if stripe.read().multi_version_keys().is_empty() {
            return 0;
        }
        stripe.write().collect(oldest_snapshot)
    }

    /// Aggregate statistics: the sum of S O(1) per-stripe rollups, each
    /// read under its stripe's read lock. Stripes are visited one at a
    /// time, so the total is a *near*-instantaneous snapshot — exact
    /// whenever no writer runs concurrently (stats consumers are reports
    /// and tests, both of which quiesce first).
    pub fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for s in &self.stripes {
            total += s.read().stats();
        }
        total
    }

    /// Statistics of one stripe (O(1) under its read lock).
    ///
    /// # Panics
    ///
    /// Panics if `stripe >= n_stripes()`.
    pub fn stripe_stats(&self, stripe: usize) -> StoreStats {
        self.stripes[stripe].read().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[derive(Clone, Debug, PartialEq)]
    struct V(u64);
    impl Versioned for V {
        fn order_key(&self) -> (Timestamp, u8, u64) {
            (Timestamp::from_micros(self.0), 0, self.0)
        }
    }

    fn at_most(ct: u64) -> SnapshotBound<'static> {
        SnapshotBound::at_most(Timestamp::from_micros(ct))
    }

    #[test]
    fn stripe_count_rounds_to_power_of_two() {
        assert_eq!(ConcurrentShardedStore::<u64, V>::with_stripes(0).n_stripes(), 1);
        assert_eq!(ConcurrentShardedStore::<u64, V>::with_stripes(5).n_stripes(), 8);
        assert_eq!(ConcurrentShardedStore::<u64, V>::new().n_stripes(), DEFAULT_STRIPES);
    }

    #[test]
    fn shared_reads_and_writes() {
        let s: ConcurrentShardedStore<u64, V> = ConcurrentShardedStore::new();
        s.insert(1, V(10));
        s.insert(1, V(20));
        s.insert(2, V(5));
        assert_eq!(s.newest(&1), Some(V(20)));
        assert_eq!(s.latest_visible(&1, &at_most(15)), Some(V(10)));
        assert_eq!(s.latest_visible(&3, &SnapshotBound::all()), None);
        assert_eq!(s.stats().keys, 2);
        assert_eq!(s.stats().versions, 3);
        s.with_chain(&1, |c| assert_eq!(c.unwrap().len(), 2));
        s.with_chain(&9, |c| assert!(c.is_none()));
    }

    #[test]
    fn stable_publication_is_monotone() {
        let s: ConcurrentShardedStore<u64, V> = ConcurrentShardedStore::new();
        assert_eq!(s.stable(), (Timestamp::ZERO, Timestamp::ZERO));
        s.publish_stable(Timestamp::from_micros(10), Timestamp::from_micros(5));
        s.publish_stable(Timestamp::from_micros(7), Timestamp::from_micros(9));
        // Lower lst ignored, higher rst adopted — each raises independently.
        assert_eq!(
            s.stable(),
            (Timestamp::from_micros(10), Timestamp::from_micros(9))
        );
    }

    #[test]
    fn apply_batch_and_collect_match_sharded_semantics() {
        let s: ConcurrentShardedStore<u64, V> = ConcurrentShardedStore::with_stripes(4);
        let mut items: Vec<(u64, V)> = (0..64u64)
            .flat_map(|k| [(k, V(10)), (k, V(20)), (k, V(30))])
            .collect();
        assert_eq!(s.apply_batch(&mut items), 192);
        assert!(items.is_empty());
        assert_eq!(s.stats().versions, 192);
        // Each key keeps V(20) (newest visible at 25) and V(30): drops V(10).
        assert_eq!(s.collect(&at_most(25)), 64);
        assert_eq!(s.stats().collected, 64);
        let per_stripe: usize = (0..4).map(|i| s.collect_stripe(i, &at_most(35))).sum();
        assert_eq!(per_stripe, 64);
        assert_eq!(s.stats().versions, 64);
    }

    #[test]
    fn concurrent_readers_share_a_store_with_a_writer() {
        let s = Arc::new(ConcurrentShardedStore::<u64, V>::new());
        for k in 0..128u64 {
            s.insert(k, V(10));
        }
        s.publish_stable(Timestamp::from_micros(10), Timestamp::from_micros(10));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..2_000 {
                        let (lst, _) = s.stable();
                        let bound = SnapshotBound::at_most(lst);
                        for k in (0..128u64).step_by(17) {
                            let v = s.latest_visible(&k, &bound).expect("key always present");
                            // Never a version above the published bound.
                            assert!(v.order_key().0 <= lst);
                        }
                    }
                })
            })
            .collect();
        for round in 1..40u64 {
            let ct = 10 + round;
            for k in 0..128u64 {
                s.insert(k, V(ct));
            }
            s.publish_stable(Timestamp::from_micros(ct), Timestamp::from_micros(ct));
        }
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(s.newest(&0), Some(V(49)));
    }
}
