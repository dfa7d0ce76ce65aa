use crate::{DcId, PartitionId, TxId};
use bytes::Bytes;
use wren_clock::{Timestamp, VersionVector};
use wren_storage::Versioned;

/// A key in the data store.
///
/// Keys are 64-bit identifiers; [`Key::partition`] gives the deterministic
/// key → partition assignment the paper assumes ("each key is
/// deterministically assigned to one partition by a hash function",
/// §II-A).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Key(pub u64);

impl Key {
    /// The partition this key belongs to, among `n_partitions`.
    ///
    /// Uses a Fibonacci-hash spread so consecutive key ids do not all land
    /// on consecutive partitions.
    #[inline]
    pub fn partition(self, n_partitions: u16) -> PartitionId {
        let spread = self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        PartitionId((spread % n_partitions as u64) as u16)
    }
}

/// A value: an immutable byte string (the paper's workloads use 8-byte
/// items).
pub type Value = Bytes;

/// A fully-tagged Wren item version: the paper's tuple
/// `⟨k, v, ut, rdt, id_T, sr⟩` minus the key (stored as the chain's map
/// key).
///
/// This is BDT in concrete form — exactly **two scalar timestamps** of
/// causality metadata per version:
///
/// * [`ut`](WrenVersion::ut) — the commit timestamp, which summarizes
///   dependencies on items of the *origin* DC;
/// * [`rdt`](WrenVersion::rdt) — the remote dependency time, summarizing
///   dependencies on items of all *other* DCs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WrenVersion {
    /// The written value.
    pub value: Value,
    /// Commit (update) timestamp; summarizes local dependencies.
    pub ut: Timestamp,
    /// Remote dependency time; summarizes remote dependencies.
    pub rdt: Timestamp,
    /// The transaction that wrote this version.
    pub tx: TxId,
    /// Source replica: the DC where the write was issued.
    pub sr: DcId,
}

impl Versioned for WrenVersion {
    #[inline]
    fn order_key(&self) -> (Timestamp, u8, u64) {
        (self.ut, self.sr.0, self.tx.raw())
    }

    #[inline]
    fn remote_dep(&self) -> Timestamp {
        self.rdt
    }
}

/// A Cure item version: value plus an **M-entry dependency vector**.
///
/// The vector is the update's commit vector: entry `sr` holds the commit
/// timestamp, the other entries the snapshot the writing transaction
/// observed. Its size grows with the number of DCs — the overhead Wren's
/// BDT eliminates and Fig. 7a quantifies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CureVersion {
    /// The written value.
    pub value: Value,
    /// Commit timestamp (equals `deps[sr]`).
    pub ut: Timestamp,
    /// Commit vector: one entry per DC.
    pub deps: VersionVector,
    /// The transaction that wrote this version.
    pub tx: TxId,
    /// Source replica: the DC where the write was issued.
    pub sr: DcId,
}

impl Versioned for CureVersion {
    #[inline]
    fn order_key(&self) -> (Timestamp, u8, u64) {
        (self.ut, self.sr.0, self.tx.raw())
    }
}

/// One transaction inside a replication batch (Wren).
///
/// Carries the two BDT timestamps implicitly: the batch's commit timestamp
/// `ct` (shared by every transaction in the batch) and this transaction's
/// remote dependency time `rst`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepTx {
    /// The replicated transaction's id.
    pub tx: TxId,
    /// Its remote dependency time (snapshot `rt` at commit).
    pub rst: Timestamp,
    /// The written key/value pairs owned by this partition.
    pub writes: Vec<(Key, Value)>,
}

/// A Wren replication message body: all transactions that committed at
/// `ct` on the sending partition, packed together (Algorithm 4 lines
/// 10–17).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicateBatch {
    /// The shared commit timestamp.
    pub ct: Timestamp,
    /// The transactions, in commit order.
    pub txs: Vec<RepTx>,
}

/// One transaction inside a Cure replication batch: the dependency vector
/// travels with every transaction (M timestamps of metadata).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CureRepTx {
    /// The replicated transaction's id.
    pub tx: TxId,
    /// Its full commit vector.
    pub deps: VersionVector,
    /// The written key/value pairs owned by this partition.
    pub writes: Vec<(Key, Value)>,
}

/// A Cure replication message body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CureReplicateBatch {
    /// The shared commit timestamp.
    pub ct: Timestamp,
    /// The transactions, in commit order.
    pub txs: Vec<CureRepTx>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerId;

    #[test]
    fn key_partition_is_deterministic_and_in_range() {
        for k in 0..1_000u64 {
            let p = Key(k).partition(8);
            assert!(p.0 < 8);
            assert_eq!(p, Key(k).partition(8));
        }
    }

    #[test]
    fn key_partition_spreads() {
        let mut counts = [0usize; 4];
        for k in 0..4_000u64 {
            counts[Key(k).partition(4).index()] += 1;
        }
        for c in counts {
            assert!(c > 700, "partition got too few keys: {counts:?}");
        }
    }

    #[test]
    fn wren_version_orders_by_lww() {
        let a = WrenVersion {
            value: Bytes::from_static(b"a"),
            ut: Timestamp::from_micros(10),
            rdt: Timestamp::ZERO,
            tx: TxId::new(ServerId::new(0, 0), 1),
            sr: DcId(0),
        };
        let mut b = a.clone();
        b.sr = DcId(1);
        assert!(b.order_key() > a.order_key(), "DC id breaks timestamp ties");
        let mut c = a.clone();
        c.ut = Timestamp::from_micros(11);
        assert!(c.order_key() > b.order_key(), "timestamp dominates");
    }

    /// The storage layout's byte budget (`docs/storage_layout.md`): a
    /// chain entry is the bare version — nothing beside it, no cached
    /// order key — and a single-version chain is that version, inline.
    /// A field added to either is a decision about every stored key.
    #[test]
    fn a_single_version_chain_is_the_size_of_its_version() {
        use std::mem::size_of;
        use wren_storage::VersionChain;
        assert_eq!(size_of::<WrenVersion>(), 56);
        assert!(size_of::<VersionChain<WrenVersion>>() <= 56);
        assert!(size_of::<(Key, VersionChain<WrenVersion>)>() <= 64);
    }

    #[test]
    fn cure_version_orders_like_wren() {
        let mk = |ut: u64, sr: u8, seq: u64| CureVersion {
            value: Bytes::new(),
            ut: Timestamp::from_micros(ut),
            deps: VersionVector::new(3),
            tx: TxId::new(ServerId::new(sr, 0), seq),
            sr: DcId(sr),
        };
        assert!(mk(10, 1, 0).order_key() > mk(10, 0, 9).order_key());
        assert!(mk(11, 0, 0).order_key() > mk(10, 1, 9).order_key());
    }
}
