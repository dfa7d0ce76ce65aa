//! What the store weighs, deterministically: `StoreStats::heap_bytes`
//! is computed from capacities, so the per-key budget of
//! `docs/storage_layout.md` can be pinned without an allocator hook.
//!
//! The version type is 56 bytes with a niche, like `WrenVersion` (whose
//! own size is pinned in `wren-protocol`): a single-version key must
//! cost its map slot and nothing else, a burst of versions on hot keys
//! must be paid for only while it lasts.

use wren_clock::Timestamp;
use wren_storage::{ConcurrentShardedStore, SnapshotBound, VersionChain, Versioned};

/// Shaped like `WrenVersion`: 24 bytes of value handle, two timestamps,
/// a transaction id and an origin tag with bit patterns to spare — the
/// niche the chain's state tag hides in, as it does in `Bytes`' tag.
#[derive(Clone, Debug)]
struct V {
    _value: [u64; 3],
    ct: Timestamp,
    _rdt: Timestamp,
    tx: u64,
    sr: bool,
}

impl Versioned for V {
    fn order_key(&self) -> (Timestamp, u8, u64) {
        (self.ct, self.sr as u8, self.tx)
    }
}

fn version(ct: u64) -> V {
    V {
        _value: [0; 3],
        ct: Timestamp::from_micros(ct),
        _rdt: Timestamp::ZERO,
        tx: ct,
        sr: false,
    }
}

const KEYS: u64 = 100_000;
const HOT_KEYS: u64 = 1_000;
const BURST: u64 = 64;

#[test]
fn a_key_costs_its_map_slot_and_a_burst_only_while_it_lasts() {
    assert_eq!(std::mem::size_of::<V>(), 56);
    assert_eq!(std::mem::size_of::<VersionChain<V>>(), 56);

    // (a) Single-version keys: the map slot is the whole cost.
    let store: ConcurrentShardedStore<u64, V> = ConcurrentShardedStore::new();
    for k in 0..KEYS {
        store.insert(k, version(1));
    }
    let preloaded = store.stats();
    assert_eq!(preloaded.keys, KEYS as usize);
    assert_eq!(preloaded.versions, KEYS as usize);
    assert_eq!(preloaded.multi_version_chains, 0);
    let per_key = preloaded.heap_bytes / preloaded.keys;
    assert!(per_key <= 104, "{per_key} B per single-version key");
    // …and it really is counted: at least the 64-byte slot and its
    // control byte.
    assert!(
        per_key >= 65,
        "{per_key} B per key is below the slot itself"
    );

    // (b) A burst on the hot keys: exactly those chains leave the map.
    for k in 0..HOT_KEYS {
        for i in 0..BURST {
            store.insert(k, version(2 + i));
        }
    }
    let burst = store.stats();
    assert_eq!(burst.multi_version_chains, HOT_KEYS as usize);
    assert_eq!(burst.versions, (KEYS + HOT_KEYS * BURST) as usize);
    let chain_bytes = (HOT_KEYS * (BURST + 1)) as usize * std::mem::size_of::<V>();
    assert!(burst.heap_bytes >= preloaded.heap_bytes + chain_bytes);

    // (c) GC above everything: one version per key again, nothing kept.
    let removed = store.collect(&SnapshotBound::all());
    assert_eq!(removed, (HOT_KEYS * BURST) as usize);
    let after = store.stats();
    assert_eq!(after.multi_version_chains, 0);
    assert_eq!(after.versions, KEYS as usize);
    assert!(
        after.heap_bytes.abs_diff(preloaded.heap_bytes) * 100 <= preloaded.heap_bytes,
        "{} B after burst + GC against {} B before",
        after.heap_bytes,
        preloaded.heap_bytes
    );
    // The survivors are the newest versions, readable in one probe.
    assert_eq!(store.newest(&0).unwrap().tx, 1 + BURST);
    assert_eq!(store.newest(&HOT_KEYS).unwrap().tx, 1);
}
