use crate::{FxBuildHasher, SnapshotBound, VersionChain, Versioned};
use std::collections::hash_map::{Entry, HashMap};
use std::hash::Hash;
use std::mem::size_of;

/// Aggregate statistics of a store, for capacity and GC reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of keys with at least one version.
    pub keys: usize,
    /// Total versions currently retained.
    pub versions: usize,
    /// Total versions removed by garbage collection since creation.
    pub collected: u64,
    /// Chains holding two or more versions: the only ones that own an
    /// allocation, and the only ones a GC pass visits.
    pub multi_version_chains: usize,
    /// Heap bytes the store holds: the key map's buckets (a slot of key
    /// and inline chain plus a control byte each, at the standard table's
    /// 8 buckets per 7 usable entries), every multi-version chain's
    /// `capacity × size_of::<V>()`, and the multi-version list. Computed
    /// from capacities rather than asked of the allocator, so its
    /// per-allocation headers, and whatever the versions point to (a
    /// `Bytes` payload), are not in it.
    pub heap_bytes: usize,
}

impl std::ops::AddAssign for StoreStats {
    fn add_assign(&mut self, other: StoreStats) {
        self.keys += other.keys;
        self.versions += other.versions;
        self.collected += other.collected;
        self.multi_version_chains += other.multi_version_chains;
        self.heap_bytes += other.heap_bytes;
    }
}

/// One partition's worth of multi-versioned data: a map from key to
/// [`VersionChain`].
///
/// Generic over the key and the version type so Wren items (two scalar
/// timestamps) and Cure items (dependency vectors) share the same storage.
///
/// The map hashes with [`FxHasher`](crate::FxHasher) rather than the
/// standard library's SipHash: keys are workload integers, and the read
/// path is the system's hottest loop. A key with one version lives
/// entirely in its map slot (see [`VersionChain`]'s layout notes), so
/// reading it is one probe.
///
/// Everything [`stats`](MvStore::stats) reports is maintained
/// incrementally by the mutators, so it is O(1) instead of a scan over
/// every chain — and so is the **multi-version list**, the keys of the
/// chains holding ≥ 2 versions, which is all
/// [`collect`](MvStore::collect) walks.
#[derive(Clone, Debug)]
pub struct MvStore<K, V> {
    chains: HashMap<K, VersionChain<V>, FxBuildHasher>,
    /// The keys of exactly the chains with ≥ 2 versions, each once. A
    /// key enters when a mutator takes its chain from one version to
    /// more (`grow_chain`) and leaves in the `collect` pass that takes
    /// it back to one; nothing else changes a chain's length.
    multi: Vec<K>,
    versions: usize,
    collected: u64,
    /// Sum of the chains' heap capacities, in versions.
    chain_slots: usize,
    /// Reusable buffer for one key's run during [`apply_batch`]
    /// (capacity survives across calls: a batch allocates only where a
    /// chain grows).
    ///
    /// [`apply_batch`]: MvStore::apply_batch
    run_scratch: Vec<V>,
}

impl<K, V> Default for MvStore<K, V> {
    fn default() -> Self {
        MvStore {
            chains: HashMap::default(),
            multi: Vec::new(),
            versions: 0,
            collected: 0,
            chain_slots: 0,
            run_scratch: Vec::new(),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Versioned> MvStore<K, V> {
    /// Creates an empty store.
    pub fn new() -> Self {
        MvStore::default()
    }

    /// Runs the chain mutator `f` on `key`'s chain (created if absent),
    /// then brings the version count, the heap accounting and the
    /// multi-version list up to date with what it did. `f` adds versions
    /// or leaves the chain alone; it never empties or shortens it.
    fn grow_chain<R>(&mut self, key: K, f: impl FnOnce(&mut VersionChain<V>) -> R) -> R {
        let mut slot = match self.chains.entry(key) {
            Entry::Occupied(slot) => slot,
            Entry::Vacant(slot) => slot.insert_entry(VersionChain::new()),
        };
        let chain = slot.get_mut();
        let (len, slots) = (chain.len(), chain.heap_slots());
        let r = f(chain);
        let (new_len, new_slots) = (chain.len(), chain.heap_slots());
        debug_assert!(new_len >= len.max(1), "a chain mutator only adds versions");
        self.versions += new_len - len;
        self.chain_slots = self.chain_slots + new_slots - slots;
        if len < 2 && new_len >= 2 {
            self.multi.push(slot.key().clone());
        }
        r
    }

    /// Inserts a new version of `key`.
    pub fn insert(&mut self, key: K, version: V) {
        self.grow_chain(key, |chain| chain.insert(version));
    }

    /// Applies a batch of versions, splicing each key's run into its
    /// chain with one binary search and at most one bulk shift
    /// ([`VersionChain::apply_batch`]).
    ///
    /// `items` is drained (capacity kept for reuse). The batch is sorted
    /// once by `(key, order key)`; replication batches share one commit
    /// timestamp, so a key written by several transactions in the batch
    /// pays a single chain search instead of one per version. Returns the
    /// number of versions applied.
    pub fn apply_batch(&mut self, items: &mut Vec<(K, V)>) -> usize
    where
        K: Ord,
    {
        if items.is_empty() {
            return 0;
        }
        let applied = items.len();
        items.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| a.1.order_key().cmp(&b.1.order_key()))
        });
        let mut run = std::mem::take(&mut self.run_scratch);
        debug_assert!(run.is_empty());
        let mut drain = items.drain(..);
        let (mut cur_key, first) = drain.next().expect("non-empty checked");
        run.push(first);
        for (k, v) in drain {
            if k == cur_key {
                run.push(v);
            } else {
                let done_key = std::mem::replace(&mut cur_key, k);
                self.grow_chain(done_key, |chain| chain.apply_batch(&mut run));
                run.push(v);
            }
        }
        self.grow_chain(cur_key, |chain| chain.apply_batch(&mut run));
        self.run_scratch = run;
        applied
    }

    /// Inserts a version of `key` only if no version with the same LWW
    /// order key exists ([`VersionChain::insert_if_new`]). Returns
    /// whether the insert happened. Used by WAL replay, which may
    /// re-apply already-applied replication records.
    pub fn insert_if_new(&mut self, key: K, version: V) -> bool {
        self.grow_chain(key, |chain| chain.insert_if_new(version))
    }

    /// The newest version of `key` inside the snapshot `bound`, or `None`
    /// if the key has no visible version.
    pub fn latest_visible(&self, key: &K, bound: &SnapshotBound<'_>) -> Option<&V> {
        self.chains.get(key).and_then(|c| c.latest_visible(bound))
    }

    /// The newest version of `key` outright.
    pub fn newest(&self, key: &K) -> Option<&V> {
        self.chains.get(key).and_then(|c| c.newest())
    }

    /// The full chain for `key`, if any version exists.
    pub fn chain(&self, key: &K) -> Option<&VersionChain<V>> {
        self.chains.get(key)
    }

    /// Runs garbage collection with the oldest-active-snapshot bound
    /// (see [`VersionChain::collect`]) over the chains that can shrink:
    /// the rule always keeps a chain's newest version, so a pass walks
    /// the multi-version list and never looks at a single-version key.
    /// Its cost follows the keys written since they were last
    /// collectable, not the key count, and a store without a
    /// multi-version chain returns at once. A chain the pass leaves
    /// with one version drops off the list (and gives its allocation
    /// back); one it cannot shorten yet — nothing at or below the bound
    /// — stays listed for the next pass. The outcome is what a sweep of
    /// every chain would produce. Returns the number of versions removed
    /// by this call.
    pub fn collect(&mut self, oldest_snapshot: &SnapshotBound<'_>) -> usize {
        let MvStore {
            chains,
            multi,
            chain_slots,
            ..
        } = self;
        let mut removed = 0;
        multi.retain(|key| {
            let chain = chains.get_mut(key).expect("a listed key has a chain");
            let slots = chain.heap_slots();
            removed += chain.collect(oldest_snapshot);
            *chain_slots = *chain_slots + chain.heap_slots() - slots;
            chain.len() >= 2
        });
        self.versions -= removed;
        self.collected += removed as u64;
        removed
    }

    /// The keys of the chains holding two or more versions — each
    /// exactly once, in no particular order. This is the list
    /// [`collect`](MvStore::collect) walks; an empty one means a GC pass
    /// has nothing to do here.
    pub fn multi_version_keys(&self) -> &[K] {
        &self.multi
    }

    /// Current statistics (O(1): counters are maintained incrementally).
    pub fn stats(&self) -> StoreStats {
        // The standard table allocates a power-of-two number of buckets
        // and reports 7/8 of them as its capacity.
        let buckets = match self.chains.capacity() {
            0 => 0,
            usable => (usable * 8 / 7).next_power_of_two(),
        };
        StoreStats {
            keys: self.chains.len(),
            versions: self.versions,
            collected: self.collected,
            multi_version_chains: self.multi.len(),
            heap_bytes: buckets * (size_of::<(K, VersionChain<V>)>() + 1)
                + self.chain_slots * size_of::<V>()
                + self.multi.capacity() * size_of::<K>(),
        }
    }

    /// Iterates over all `(key, chain)` pairs (e.g. for convergence
    /// checks in tests).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &VersionChain<V>)> {
        self.chains.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wren_clock::Timestamp;

    #[derive(Clone, Debug)]
    struct V(u64);
    impl Versioned for V {
        fn order_key(&self) -> (Timestamp, u8, u64) {
            (Timestamp::from_micros(self.0), 0, 0)
        }
    }

    fn at_most(ct: u64) -> SnapshotBound<'static> {
        SnapshotBound::at_most(Timestamp::from_micros(ct))
    }

    #[test]
    fn insert_and_read_across_keys() {
        let mut s: MvStore<u64, V> = MvStore::new();
        s.insert(1, V(10));
        s.insert(1, V(20));
        s.insert(2, V(5));
        assert_eq!(s.newest(&1).unwrap().0, 20);
        assert_eq!(s.latest_visible(&1, &at_most(15)).unwrap().0, 10);
        assert!(s.latest_visible(&3, &SnapshotBound::all()).is_none());
        assert_eq!(s.stats().keys, 2);
        assert_eq!(s.stats().versions, 3);
    }

    #[test]
    fn collect_reports_removed() {
        let mut s: MvStore<u64, V> = MvStore::new();
        for ct in [10, 20, 30] {
            s.insert(1, V(ct));
        }
        for ct in [15, 25] {
            s.insert(2, V(ct));
        }
        let removed = s.collect(&at_most(26));
        // key 1: visible=20, drop 10 → 1 removed. key 2: visible=25, drop 15 → 1 removed.
        assert_eq!(removed, 2);
        assert_eq!(s.stats().collected, 2);
        assert_eq!(s.stats().versions, 3);
    }

    #[test]
    fn stats_stay_consistent_across_interleaved_inserts_and_collects() {
        let mut s: MvStore<u64, V> = MvStore::new();
        let mut expected_live = 0usize;
        let mut expected_collected = 0u64;
        for round in 0u64..8 {
            // Grow a few chains…
            for k in 0..4u64 {
                for i in 0..5u64 {
                    s.insert(k, V(round * 100 + i * 10));
                    expected_live += 1;
                }
            }
            // …then GC at a watermark inside this round's versions.
            let removed = s.collect(&at_most(round * 100 + 25));
            expected_live -= removed;
            expected_collected += removed as u64;
            let stats = s.stats();
            assert_eq!(stats.versions, expected_live, "round {round}");
            assert_eq!(stats.collected, expected_collected, "round {round}");
            // The incremental count must equal a full recount.
            let recount: usize = s.iter().map(|(_, c)| c.len()).sum();
            assert_eq!(stats.versions, recount, "round {round}");
        }
    }

    /// The incremental books against a recount, after every step of a
    /// scripted mix of all three mutators and GC at rising, stalled and
    /// below-everything watermarks: versions, heap slots, and the
    /// multi-version list (exactly the chains with ≥ 2 versions, once).
    #[test]
    fn incremental_books_equal_a_recount_after_every_step() {
        fn audit(s: &MvStore<u64, V>, step: &str) {
            let stats = s.stats();
            assert_eq!(stats.versions, s.iter().map(|(_, c)| c.len()).sum::<usize>(), "{step}");
            assert_eq!(
                s.chain_slots,
                s.iter().map(|(_, c)| c.heap_slots()).sum::<usize>(),
                "{step}"
            );
            let mut listed = s.multi_version_keys().to_vec();
            listed.sort_unstable();
            let mut multi: Vec<u64> =
                s.iter().filter(|(_, c)| c.len() >= 2).map(|(k, _)| *k).collect();
            multi.sort_unstable();
            assert_eq!(listed, multi, "{step}");
            assert_eq!(stats.multi_version_chains, multi.len(), "{step}");
            assert!(stats.heap_bytes >= s.chain_slots * size_of::<V>(), "{step}");
        }

        let mut s: MvStore<u64, V> = MvStore::new();
        for round in 0u64..6 {
            let base = round * 100;
            for k in 0..8u64 {
                s.insert(k, V(base + k));
                audit(&s, "insert");
            }
            // Hot keys take a burst; one key sees re-deliveries only.
            for i in 0..20u64 {
                s.insert(round % 3, V(base + 10 + i));
            }
            audit(&s, "burst");
            assert!(!s.insert_if_new(7, V(base + 7)));
            assert!(s.insert_if_new(6, V(base + 50)));
            audit(&s, "insert_if_new");
            let mut batch: Vec<(u64, V)> =
                (0..4u64).flat_map(|k| [(k + 20 * round, V(base + 60)), (k, V(base + 61))]).collect();
            s.apply_batch(&mut batch);
            audit(&s, "apply_batch");
            // Below everything: nothing goes, every chain stays listed.
            let listed = s.stats().multi_version_chains;
            assert_eq!(s.collect(&SnapshotBound::at_most(Timestamp::ZERO)), 0);
            assert_eq!(s.stats().multi_version_chains, listed);
            audit(&s, "collect below everything");
            // Mid-round: part of the burst goes, its chain stays listed.
            assert!(s.collect(&at_most(base + 20)) > 0);
            audit(&s, "collect mid-round");
            if round % 2 == 1 {
                // Above everything: every chain back to one version.
                s.collect(&SnapshotBound::all());
                audit(&s, "collect all");
                assert_eq!(s.stats().multi_version_chains, 0);
                assert_eq!(s.chain_slots, 0);
                assert_eq!(s.stats().versions, s.stats().keys);
            }
        }
    }

    #[test]
    fn iter_visits_all_chains() {
        let mut s: MvStore<u64, V> = MvStore::new();
        s.insert(1, V(1));
        s.insert(2, V(2));
        assert_eq!(s.iter().count(), 2);
    }
}
