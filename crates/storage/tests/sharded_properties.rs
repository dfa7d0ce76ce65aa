//! Property tests for the striped store and the batched write path.
//!
//! Three oracles:
//!
//! * **sharded vs flat** — a [`ShardedStore`] fed the same inserts,
//!   batch applies and GC sweeps as a flat [`MvStore`] must be
//!   observationally identical under every snapshot bound (striping is
//!   pure layout);
//! * **batched vs one-at-a-time** — `apply_batch` must leave every chain
//!   exactly as repeated `insert` calls would, including
//!   commit-timestamp ties (the replication case: a batch shares one
//!   commit timestamp, ties resolved by `(dc, tx)`);
//! * **listed GC vs the full sweep** — GC walks only the chains on the
//!   stores' multi-version lists. Under random interleavings of every
//!   mutator and `collect`, that list must hold exactly the chains with
//!   two or more versions, and the stores must equal a model that
//!   sweeps *every* chain with the linear oracle.

use proptest::prelude::*;
use std::collections::BTreeMap;
use wren_clock::Timestamp;
use wren_storage::{
    ConcurrentShardedStore, MvStore, ShardedStore, SnapshotBound, StoreStats, VersionChain,
    Versioned,
};

#[derive(Clone, Debug, PartialEq)]
struct V {
    ct: u64,
    sr: u8,
    tx: u64,
    rdt: u64,
}

impl Versioned for V {
    fn order_key(&self) -> (Timestamp, u8, u64) {
        (Timestamp::from_micros(self.ct), self.sr, self.tx)
    }

    fn remote_dep(&self) -> Timestamp {
        Timestamp::from_micros(self.rdt)
    }
}

fn ts(micros: u64) -> Timestamp {
    Timestamp::from_micros(micros)
}

/// Keyed inserts over a small key domain with commit-timestamp ties
/// (few distinct cts, `(sr, tx)` breaking them). Transaction ids are
/// made unique in a post-pass, as in the real system, so "which
/// identical twin survives" never becomes observable oracle noise.
fn arb_keyed(max: usize) -> impl Strategy<Value = Vec<(u64, V)>> {
    proptest::collection::vec(
        (0u64..12, 0u64..40, 0u8..3, 0u64..8, 0u64..40)
            .prop_map(|(k, ct, sr, tx, rdt)| (k, V { ct, sr, tx, rdt: rdt.min(ct) })),
        1..max,
    )
    .prop_map(|mut items| {
        for (i, (_, v)) in items.iter_mut().enumerate() {
            v.tx += (i as u64) << 3;
        }
        items
    })
}

fn chain_keys(c: &VersionChain<V>) -> Vec<(Timestamp, u8, u64)> {
    c.iter().map(Versioned::order_key).collect()
}

/// Every chain of `a` appears identically in `b` and vice versa.
fn assert_same_contents(a: &ShardedStore<u64, V>, b: &MvStore<u64, V>) {
    assert_eq!(a.stats().keys, b.stats().keys);
    assert_eq!(a.stats().versions, b.stats().versions);
    for (k, chain) in b.iter() {
        let sharded = a.chain(k).expect("key present in sharded store");
        assert_eq!(chain_keys(sharded), chain_keys(chain), "key {k}");
    }
}

/// One step of a store's write-side life.
#[derive(Clone, Debug)]
enum Op {
    Insert(u64, V),
    InsertIfNew(u64, V),
    /// `insert_if_new` of the `n`-th (modulo) version written so far: a
    /// re-delivery, which must change nothing.
    Redeliver(usize),
    /// A replication-shaped batch: one commit timestamp, one origin DC.
    ApplyBatch(Vec<(u64, V)>),
    /// `collect` at `at_most(a)` / `bist(dc, a, b)` / `all()`.
    Collect { shape: u8, dc: u8, a: u64, b: u64 },
}

/// The bound an [`Op::Collect`] names.
fn collect_bound(shape: u8, dc: u8, a: u64, b: u64) -> SnapshotBound<'static> {
    match shape {
        0 => SnapshotBound::at_most(ts(a)),
        1 => SnapshotBound::bist(dc, ts(a), ts(b)),
        _ => SnapshotBound::all(),
    }
}

/// Commit timestamps start at 1 so that a bound of 0 lies below every
/// version (GC may then drop nothing, and every chain stays listed).
/// Transaction ids are `random high bits | unique low bits`: unique, as
/// in the real system, yet ordered by the random part — so a batch's
/// run can straddle same-ct entries that are already in the chain.
fn arb_ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    let version = || {
        (1u64..20, 0u8..3, 0u64..8, 0u64..20)
            .prop_map(|(ct, sr, tx, rdt)| V { ct, sr, tx: tx << 32, rdt: rdt.min(ct) })
    };
    let op = prop_oneof![
        (0u64..12, version()).prop_map(|(k, v)| Op::Insert(k, v)),
        (0u64..12, version()).prop_map(|(k, v)| Op::InsertIfNew(k, v)),
        (0usize..64).prop_map(Op::Redeliver),
        (version(), proptest::collection::vec((0u64..4, 0u64..8), 1..12)).prop_map(|(v, run)| {
            Op::ApplyBatch(
                run.into_iter()
                    .map(|(k, tx)| (k, V { tx: tx << 32, ..v.clone() }))
                    .collect(),
            )
        }),
        // Watermarks from below every version (0) to above all (≥ 20).
        (0u8..3, 0u8..3, 0u64..24, 0u64..24)
            .prop_map(|(shape, dc, a, b)| Op::Collect { shape, dc, a, b }),
        (0u8..2, 0u8..3, 0u64..1, 0u64..1)
            .prop_map(|(shape, dc, a, b)| Op::Collect { shape, dc, a, b }),
    ];
    proptest::collection::vec(op, 1..max).prop_map(|mut ops| {
        let mut seq = 0u64;
        let mut unique = |v: &mut V| {
            v.tx |= seq;
            seq += 1;
        };
        for op in &mut ops {
            match op {
                Op::Insert(_, v) | Op::InsertIfNew(_, v) => unique(v),
                Op::ApplyBatch(items) => items.iter_mut().for_each(|(_, v)| unique(v)),
                Op::Redeliver(_) | Op::Collect { .. } => {}
            }
        }
        ops
    })
}

/// The reference: plain sorted vectors, and a GC that visits **every**
/// chain and tests **every** version against the bound.
#[derive(Default)]
struct SweepModel {
    chains: BTreeMap<u64, Vec<V>>,
    collected: u64,
}

impl SweepModel {
    fn insert_if_new(&mut self, k: u64, v: V) -> bool {
        let chain = self.chains.entry(k).or_default();
        if chain.iter().any(|e| e.order_key() == v.order_key()) {
            return false;
        }
        chain.push(v);
        chain.sort_by_key(Versioned::order_key);
        true
    }

    fn collect(&mut self, bound: &SnapshotBound<'_>) -> usize {
        let mut removed = 0;
        for chain in self.chains.values_mut() {
            let newest_visible = chain
                .iter()
                .filter(|v| bound.admits(&v.order_key(), v.remote_dep()))
                .map(Versioned::order_key)
                .max();
            if let Some(keep_from) = newest_visible {
                let before = chain.len();
                chain.retain(|v| v.order_key() >= keep_from);
                removed += before - chain.len();
            }
        }
        self.collected += removed as u64;
        removed
    }
}

/// What a store shows of itself, gathered stripe by stripe.
#[derive(Default, Debug)]
struct Observed {
    chains: BTreeMap<u64, Vec<(Timestamp, u8, u64)>>,
    listed: Vec<u64>,
    stats: StoreStats,
}

impl Observed {
    fn absorb(&mut self, stripe: &MvStore<u64, V>) {
        for (k, chain) in stripe.iter() {
            let mut keys = chain_keys(chain);
            keys.reverse(); // oldest first, like the model
            assert_eq!(keys.len(), chain.len());
            assert!(self.chains.insert(*k, keys).is_none(), "key {k} in two stripes");
        }
        self.listed.extend_from_slice(stripe.multi_version_keys());
        self.stats += stripe.stats();
    }

    /// (i) the multi-version list is exactly the chains with ≥ 2
    /// versions, each once; (ii) chains and counters equal the model's.
    fn assert_matches(mut self, model: &SweepModel, total: StoreStats, step: &Op) {
        let expect: BTreeMap<u64, Vec<_>> = model
            .chains
            .iter()
            .map(|(k, c)| (*k, c.iter().map(Versioned::order_key).collect()))
            .collect();
        assert_eq!(self.chains, expect, "after {step:?}");
        self.listed.sort_unstable();
        let multi: Vec<u64> = expect
            .iter()
            .filter(|(_, c)| c.len() >= 2)
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(self.listed, multi, "multi-version list after {step:?}");
        assert_eq!(self.stats, total, "stripe rollup after {step:?}");
        assert_eq!(total.keys, expect.len());
        assert_eq!(total.versions, expect.values().map(Vec::len).sum::<usize>());
        assert_eq!(total.collected, model.collected);
        assert_eq!(total.multi_version_chains, multi.len());
    }
}

proptest! {
    /// GC by the multi-version list equals the full sweep, and the list
    /// is exact after every step — through the flat store and both
    /// striped ones, for every mutator and every bound shape.
    #[test]
    fn listed_gc_equals_the_full_sweep(ops in arb_ops(48), stripes in 1usize..10) {
        let mut model = SweepModel::default();
        let mut flat: MvStore<u64, V> = MvStore::new();
        let mut sharded: ShardedStore<u64, V> = ShardedStore::with_stripes(stripes);
        let concurrent: ConcurrentShardedStore<u64, V> =
            ConcurrentShardedStore::with_stripes(stripes);
        let mut written: Vec<(u64, V)> = Vec::new();
        for op in &ops {
            match op {
                Op::Insert(k, v) => {
                    prop_assert!(model.insert_if_new(*k, v.clone()), "ids are unique");
                    flat.insert(*k, v.clone());
                    sharded.insert(*k, v.clone());
                    concurrent.insert(*k, v.clone());
                    written.push((*k, v.clone()));
                }
                Op::InsertIfNew(k, v) => {
                    prop_assert!(model.insert_if_new(*k, v.clone()));
                    prop_assert!(flat.insert_if_new(*k, v.clone()));
                    // (`ShardedStore` has no `insert_if_new`: replay runs
                    // on the concurrent store.)
                    sharded.insert(*k, v.clone());
                    prop_assert!(concurrent.insert_if_new(*k, v.clone()));
                    written.push((*k, v.clone()));
                }
                Op::Redeliver(n) => {
                    if written.is_empty() {
                        continue;
                    }
                    // The version may have been collected since: the
                    // model says whether the store still holds it.
                    let (k, v) = written[n % written.len()].clone();
                    let fresh = model.insert_if_new(k, v.clone());
                    prop_assert_eq!(flat.insert_if_new(k, v.clone()), fresh);
                    prop_assert_eq!(concurrent.insert_if_new(k, v.clone()), fresh);
                    if fresh {
                        sharded.insert(k, v);
                    }
                }
                Op::ApplyBatch(items) => {
                    for (k, v) in items {
                        prop_assert!(model.insert_if_new(*k, v.clone()));
                        written.push((*k, v.clone()));
                    }
                    prop_assert_eq!(flat.apply_batch(&mut items.clone()), items.len());
                    prop_assert_eq!(sharded.apply_batch(&mut items.clone()), items.len());
                    prop_assert_eq!(concurrent.apply_batch(&mut items.clone()), items.len());
                }
                Op::Collect { shape, dc, a, b } => {
                    let bound = collect_bound(*shape, *dc, *a, *b);
                    let removed = model.collect(&bound);
                    prop_assert_eq!(flat.collect(&bound), removed, "flat, {:?}", op);
                    prop_assert_eq!(sharded.collect(&bound), removed, "sharded, {:?}", op);
                    prop_assert_eq!(concurrent.collect(&bound), removed, "concurrent, {:?}", op);
                }
            }
            let mut seen = Observed::default();
            seen.absorb(&flat);
            seen.assert_matches(&model, flat.stats(), op);
            let mut seen = Observed::default();
            for i in 0..sharded.n_stripes() {
                seen.absorb(sharded.stripe(i));
            }
            seen.assert_matches(&model, sharded.stats(), op);
            let mut seen = Observed::default();
            for i in 0..concurrent.n_stripes() {
                concurrent.with_stripe(i, |stripe| seen.absorb(stripe));
            }
            seen.assert_matches(&model, concurrent.stats(), op);
        }
    }

    /// Sharded and flat stores agree on every read, under every bound
    /// shape, for the same random insert sequence.
    #[test]
    fn sharded_reads_match_flat_store(
        items in arb_keyed(60),
        stripes in 1usize..10,
        cutoff in 0u64..40,
        local_dc in 0u8..3,
        lt in 0u64..40,
        rt in 0u64..40,
    ) {
        let mut sharded: ShardedStore<u64, V> = ShardedStore::with_stripes(stripes);
        let mut flat: MvStore<u64, V> = MvStore::new();
        for (k, v) in &items {
            sharded.insert(*k, v.clone());
            flat.insert(*k, v.clone());
        }
        assert_same_contents(&sharded, &flat);
        for bound in [
            SnapshotBound::all(),
            SnapshotBound::at_most(ts(cutoff)),
            SnapshotBound::bist(local_dc, ts(lt), ts(rt)),
        ] {
            for k in 0u64..12 {
                let s = sharded.latest_visible(&k, &bound).map(Versioned::order_key);
                let f = flat.latest_visible(&k, &bound).map(Versioned::order_key);
                prop_assert_eq!(s, f, "bound {:?}, key {}", bound, k);
                prop_assert_eq!(
                    sharded.newest(&k).map(Versioned::order_key),
                    flat.newest(&k).map(Versioned::order_key)
                );
            }
        }
    }

    /// GC on the sharded store (full sweep and stripe-by-stripe sweep)
    /// removes exactly what the flat store removes.
    #[test]
    fn sharded_collect_matches_flat_store(
        items in arb_keyed(60),
        stripes in 1usize..10,
        watermark in 0u64..40,
        stripewise in 0u8..2,
    ) {
        let mut sharded: ShardedStore<u64, V> = ShardedStore::with_stripes(stripes);
        let mut flat: MvStore<u64, V> = MvStore::new();
        for (k, v) in &items {
            sharded.insert(*k, v.clone());
            flat.insert(*k, v.clone());
        }
        let bound = SnapshotBound::at_most(ts(watermark));
        let removed_flat = flat.collect(&bound);
        let removed_sharded = if stripewise == 1 {
            (0..sharded.n_stripes()).map(|i| sharded.collect_stripe(i, &bound)).sum()
        } else {
            sharded.collect(&bound)
        };
        prop_assert_eq!(removed_sharded, removed_flat);
        prop_assert_eq!(sharded.stats().collected, flat.stats().collected);
        assert_same_contents(&sharded, &flat);
    }

    /// Store-level `apply_batch` (which sorts internally) leaves every
    /// chain exactly as one-at-a-time `insert` calls would — including
    /// commit-timestamp ties within and across batches.
    #[test]
    fn apply_batch_matches_insert_oracle(
        batches in proptest::collection::vec(arb_keyed(40), 1..4),
        stripes in 1usize..10,
    ) {
        let mut batched: ShardedStore<u64, V> = ShardedStore::with_stripes(stripes);
        let mut flat_batched: MvStore<u64, V> = MvStore::new();
        let mut oracle: MvStore<u64, V> = MvStore::new();
        for batch in &batches {
            let mut items = batch.clone();
            let mut flat_items = batch.clone();
            let applied = batched.apply_batch(&mut items);
            prop_assert_eq!(applied, batch.len());
            prop_assert!(items.is_empty(), "apply_batch must drain its input");
            flat_batched.apply_batch(&mut flat_items);
            for (k, v) in batch {
                oracle.insert(*k, v.clone());
            }
        }
        assert_same_contents(&batched, &oracle);
        prop_assert_eq!(flat_batched.stats().versions, oracle.stats().versions);
        for (k, chain) in oracle.iter() {
            let b = flat_batched.chain(k).expect("key present");
            prop_assert_eq!(chain_keys(b), chain_keys(chain));
        }
    }

    /// Chain-level `apply_batch` on a **replication-shaped run** — every
    /// version sharing one commit timestamp, landing mid-chain — equals
    /// the insert oracle, whatever already sits in the chain (including
    /// same-ct entries from other DCs, which interleave the run).
    #[test]
    fn chain_apply_batch_matches_insert_with_shared_ct(
        existing in proptest::collection::vec(
            // The tx range overlaps the batch's on purpose: an existing
            // same-ct same-origin entry can then land strictly *inside*
            // the run's key span, exercising the post-splice resort.
            (0u64..40, 0u8..3, 0u64..1000, 0u64..40)
                .prop_map(|(ct, sr, tx, rdt)| V { ct, sr, tx, rdt: rdt.min(ct) }),
            0..30,
        ),
        batch_ct in 0u64..40,
        batch_txs in proptest::collection::vec(0u64..1000, 1..16),
    ) {
        // The batch: one shared ct, origin DC 1, distinct tx ids.
        let mut batch_txs = batch_txs;
        batch_txs.sort_unstable();
        batch_txs.dedup();
        let run: Vec<V> = batch_txs
            .iter()
            .map(|&tx| V { ct: batch_ct, sr: 1, tx, rdt: 0 })
            .collect();

        let mut chain = VersionChain::new();
        let mut oracle = VersionChain::new();
        for v in &existing {
            chain.insert(v.clone());
            oracle.insert(v.clone());
        }
        let mut sorted = run.clone();
        sorted.sort_unstable_by_key(Versioned::order_key);
        chain.apply_batch(&mut sorted);
        prop_assert!(sorted.is_empty());
        for v in &run {
            oracle.insert(v.clone());
        }
        prop_assert_eq!(chain_keys(&chain), chain_keys(&oracle));
        prop_assert_eq!(chain.len(), existing.len() + run.len());
    }

    /// Interleaving batch applies with GC keeps sharded and flat stores
    /// in lockstep (the server's real access pattern: replicate → read →
    /// collect → replicate …).
    #[test]
    fn interleaved_apply_and_collect_stay_in_lockstep(
        rounds in proptest::collection::vec(
            (arb_keyed(24), 0u64..40),
            1..4,
        ),
        stripes in 1usize..10,
    ) {
        let mut sharded: ShardedStore<u64, V> = ShardedStore::with_stripes(stripes);
        let mut flat: MvStore<u64, V> = MvStore::new();
        for (batch, watermark) in &rounds {
            let mut items = batch.clone();
            sharded.apply_batch(&mut items);
            for (k, v) in batch {
                flat.insert(*k, v.clone());
            }
            let bound = SnapshotBound::at_most(ts(*watermark));
            prop_assert_eq!(sharded.collect(&bound), flat.collect(&bound));
            assert_same_contents(&sharded, &flat);
        }
    }
}
