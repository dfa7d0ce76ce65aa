//! Key-hash-striped storage: independent [`MvStore`] stripes behind one
//! snapshot-bound read/write API.
//!
//! One flat map per partition server was PR 1's design; a single stripe
//! is a contention point the moment anything wants to touch the store
//! from more than one place — a multi-threaded server slice, a GC sweep
//! that should not stall applies, a replication drain that only concerns
//! a handful of keys. A [`ShardedStore`] splits the key space into `S`
//! power-of-two stripes chosen by the **top bits** of the key's FxHash,
//! each wrapping an independent [`MvStore`]:
//!
//! * the stripe index uses the hash's *high* bits while the inner map's
//!   table index uses the *low* bits, so striping does not starve the
//!   per-stripe hash tables of entropy;
//! * stats roll up per stripe ([`ShardedStore::stats`] sums S O(1)
//!   counters; [`ShardedStore::stripe_stats`] exposes one stripe);
//! * GC can run over the whole store ([`ShardedStore::collect`]) or a
//!   single stripe ([`ShardedStore::collect_stripe`]) — the unit a
//!   server amortizes across ticks without blocking unrelated keys —
//!   and either way visits only chains with two or more versions;
//! * batch apply ([`ShardedStore::apply_batch`]) fans a replication
//!   batch out to per-stripe buckets and splices each key's run with one
//!   binary search (see [`VersionChain::apply_batch`]).
//!
//! Since PR 3 the protocol servers run on the lock-striped
//! [`ConcurrentShardedStore`](crate::ConcurrentShardedStore), which uses
//! the same stripe layout with an `RwLock` around each stripe. This
//! lock-free single-threaded variant remains the **reference point**:
//! the `sharded_store_*` micro benches pin striping at flat-map speed
//! against it, the property tests oracle it against the flat
//! [`MvStore`], and any change to stripe selection or batch bucketing
//! must land in both (the concurrent stress test cross-checks them).

use crate::{FxBuildHasher, MvStore, SnapshotBound, StoreStats, VersionChain, Versioned};
use std::hash::{BuildHasher, Hash};

/// Default stripe count: enough to spread a multi-threaded server's
/// slices without bloating small stores (each stripe is ~3 words empty).
const DEFAULT_STRIPES: usize = 16;

/// A partition's worth of multi-versioned data, striped by key hash.
///
/// Drop-in for [`MvStore`]: `insert` / `latest_visible` / `newest` /
/// `chain` / `collect` / `stats` / `iter` have identical signatures and
/// semantics (striping is invisible to readers). On top, it exposes the
/// stripe structure — [`n_stripes`](ShardedStore::n_stripes),
/// [`stripe_of`](ShardedStore::stripe_of),
/// [`collect_stripe`](ShardedStore::collect_stripe) — and the batched
/// write path [`apply_batch`](ShardedStore::apply_batch).
#[derive(Clone, Debug)]
pub struct ShardedStore<K, V> {
    stripes: Vec<MvStore<K, V>>,
    /// `64 - log2(stripe count)`: keys select a stripe by `hash >> shift`.
    shift: u32,
    hasher: FxBuildHasher,
    /// Per-stripe buckets reused across [`apply_batch`] calls.
    ///
    /// [`apply_batch`]: ShardedStore::apply_batch
    scratch: Vec<Vec<(K, V)>>,
}

impl<K, V> Default for ShardedStore<K, V> {
    fn default() -> Self {
        ShardedStore::with_stripes(DEFAULT_STRIPES)
    }
}

impl<K, V> ShardedStore<K, V> {
    /// Creates an empty store with the default stripe count.
    pub fn new() -> Self {
        ShardedStore::default()
    }

    /// Creates an empty store with at least `stripes` stripes, rounded up
    /// to a power of two (minimum 1).
    pub fn with_stripes(stripes: usize) -> Self {
        let n = stripes.max(1).next_power_of_two();
        ShardedStore {
            stripes: (0..n).map(|_| MvStore::default()).collect(),
            shift: 64 - n.trailing_zeros(),
            hasher: FxBuildHasher::default(),
            scratch: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// Number of stripes (always a power of two).
    pub fn n_stripes(&self) -> usize {
        self.stripes.len()
    }
}

impl<K: Eq + Hash + Clone, V: Versioned> ShardedStore<K, V> {
    /// The stripe index `key` maps to.
    ///
    /// Derived from the **top bits** of the key's FxHash: the inner maps
    /// index their tables with the same hash's low bits, so taking the
    /// stripe from the high end keeps the two selections independent.
    #[inline]
    pub fn stripe_of(&self, key: &K) -> usize {
        if self.shift == 64 {
            return 0; // single stripe: `hash >> 64` would be UB-shaped
        }
        (self.hasher.hash_one(key) >> self.shift) as usize
    }

    /// Read-only access to one stripe (tests, per-stripe reporting).
    ///
    /// # Panics
    ///
    /// Panics if `stripe >= n_stripes()`.
    pub fn stripe(&self, stripe: usize) -> &MvStore<K, V> {
        &self.stripes[stripe]
    }

    /// Inserts a new version of `key` into its stripe.
    pub fn insert(&mut self, key: K, version: V) {
        let s = self.stripe_of(&key);
        self.stripes[s].insert(key, version);
    }

    /// The newest version of `key` inside the snapshot `bound`.
    pub fn latest_visible(&self, key: &K, bound: &SnapshotBound<'_>) -> Option<&V> {
        self.stripes[self.stripe_of(key)].latest_visible(key, bound)
    }

    /// The newest version of `key` outright.
    pub fn newest(&self, key: &K) -> Option<&V> {
        self.stripes[self.stripe_of(key)].newest(key)
    }

    /// The full chain for `key`, if any version exists.
    pub fn chain(&self, key: &K) -> Option<&VersionChain<V>> {
        self.stripes[self.stripe_of(key)].chain(key)
    }

    /// Applies a batch of versions: items are bucketed by stripe, then
    /// each stripe splices its keys' runs with one chain search per key
    /// ([`MvStore::apply_batch`]). Both the stripe buckets and the
    /// per-key run buffer are reused across calls, so a batch allocates
    /// only where a chain outgrows its capacity. `items` is drained
    /// (capacity kept).
    /// Returns the number of versions applied.
    pub fn apply_batch(&mut self, items: &mut Vec<(K, V)>) -> usize
    where
        K: Ord,
    {
        if items.is_empty() {
            return 0;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        for (k, v) in items.drain(..) {
            scratch[self.stripe_of(&k)].push((k, v));
        }
        let mut applied = 0;
        for (stripe, bucket) in self.stripes.iter_mut().zip(scratch.iter_mut()) {
            if !bucket.is_empty() {
                applied += stripe.apply_batch(bucket);
            }
        }
        self.scratch = scratch;
        applied
    }

    /// Runs garbage collection stripe by stripe; each stripe walks only
    /// its multi-version chains ([`MvStore::collect`]), so a stripe
    /// without one costs nothing. Returns the number of versions removed.
    pub fn collect(&mut self, oldest_snapshot: &SnapshotBound<'_>) -> usize {
        self.stripes
            .iter_mut()
            .map(|s| s.collect(oldest_snapshot))
            .sum()
    }

    /// Garbage-collects a single stripe — the unit a server can rotate
    /// across GC ticks so no tick stalls on the whole key space.
    /// Returns the number of versions removed.
    ///
    /// # Panics
    ///
    /// Panics if `stripe >= n_stripes()`.
    pub fn collect_stripe(
        &mut self,
        stripe: usize,
        oldest_snapshot: &SnapshotBound<'_>,
    ) -> usize {
        self.stripes[stripe].collect(oldest_snapshot)
    }

    /// Aggregate statistics: the sum of S O(1) per-stripe rollups.
    pub fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for s in &self.stripes {
            total += s.stats();
        }
        total
    }

    /// Statistics of one stripe (O(1)).
    ///
    /// # Panics
    ///
    /// Panics if `stripe >= n_stripes()`.
    pub fn stripe_stats(&self, stripe: usize) -> StoreStats {
        self.stripes[stripe].stats()
    }

    /// Iterates over all `(key, chain)` pairs, stripe by stripe.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &VersionChain<V>)> {
        self.stripes.iter().flat_map(|s| s.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wren_clock::Timestamp;

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
        assert_eq!(ShardedStore::<u64, V>::with_stripes(0).n_stripes(), 1);
        assert_eq!(ShardedStore::<u64, V>::with_stripes(1).n_stripes(), 1);
        assert_eq!(ShardedStore::<u64, V>::with_stripes(5).n_stripes(), 8);
        assert_eq!(ShardedStore::<u64, V>::new().n_stripes(), DEFAULT_STRIPES);
    }

    #[test]
    fn stripe_of_is_stable_and_in_range() {
        let s: ShardedStore<u64, V> = ShardedStore::with_stripes(8);
        for k in 0..1_000u64 {
            let idx = s.stripe_of(&k);
            assert!(idx < 8);
            assert_eq!(idx, s.stripe_of(&k));
        }
    }

    #[test]
    fn single_stripe_store_works() {
        let mut s: ShardedStore<u64, V> = ShardedStore::with_stripes(1);
        s.insert(1, V(10));
        s.insert(2, V(20));
        assert_eq!(s.stripe_of(&1), 0);
        assert_eq!(s.newest(&1).unwrap().0, 10);
        assert_eq!(s.stats().keys, 2);
    }

    #[test]
    fn reads_and_stats_match_across_stripes() {
        let mut s: ShardedStore<u64, V> = ShardedStore::with_stripes(4);
        for k in 0..100u64 {
            s.insert(k, V(k * 10));
            s.insert(k, V(k * 10 + 5));
        }
        assert_eq!(s.stats().keys, 100);
        assert_eq!(s.stats().versions, 200);
        let per_stripe: usize = (0..4).map(|i| s.stripe_stats(i).keys).sum();
        assert_eq!(per_stripe, 100);
        for k in 0..100u64 {
            assert_eq!(s.newest(&k).unwrap().0, k * 10 + 5);
            assert_eq!(s.latest_visible(&k, &at_most(k * 10)).unwrap().0, k * 10);
        }
        assert_eq!(s.iter().count(), 100);
    }

    #[test]
    fn stripes_actually_spread_keys() {
        let mut s: ShardedStore<u64, V> = ShardedStore::with_stripes(8);
        for k in 0..4_000u64 {
            s.insert(k, V(k));
        }
        for i in 0..8 {
            let st = s.stripe_stats(i);
            assert!(st.keys > 250, "stripe {i} got too few keys: {}", st.keys);
        }
    }

    #[test]
    fn apply_batch_and_collect_roll_up() {
        let mut s: ShardedStore<u64, V> = ShardedStore::with_stripes(4);
        let mut items: Vec<(u64, V)> = (0..64u64)
            .flat_map(|k| [(k, V(10)), (k, V(20)), (k, V(30))])
            .collect();
        let applied = s.apply_batch(&mut items);
        assert_eq!(applied, 192);
        assert!(items.is_empty());
        assert_eq!(s.stats().versions, 192);
        let removed = s.collect(&at_most(25));
        // Each key keeps V(20) (newest visible) and V(30): drops V(10).
        assert_eq!(removed, 64);
        assert_eq!(s.stats().collected, 64);

        // Per-stripe sweep finds nothing more at the same watermark…
        for i in 0..4 {
            assert_eq!(s.collect_stripe(i, &at_most(25)), 0);
        }
        // …and a higher watermark prunes stripe by stripe to one version.
        let mut removed = 0;
        for i in 0..4 {
            removed += s.collect_stripe(i, &at_most(35));
        }
        assert_eq!(removed, 64);
        assert_eq!(s.stats().versions, 64);
    }
}
