//! Seeded input generation: every transaction a client will issue is
//! drawn from `--seed` into a ring before timing starts, so the cluster
//! receives only the generated operations and the same seed gives the
//! same stream.

use crate::spec::WorkloadDef;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use wren_protocol::Key;

/// Transactions per client ring. Fast workloads wrap around it.
pub const RING_LEN: usize = 65_536;

/// The key outside every partition pool that the visibility probes
/// write and poll. Preloaded like any other key.
pub const MARKER_KEY: Key = Key(u64::MAX);

/// One client's pre-generated transaction ring, stored flat: even
/// positions are read-only transactions, odd positions read-write.
pub struct TxStream {
    keys: Vec<Key>,
    /// `(offset into keys, reads, writes)` per transaction.
    txs: Vec<(u32, u8, u8)>,
}

impl TxStream {
    pub fn generate(def: &WorkloadDef, client: u32, seed: u64, len: usize) -> TxStream {
        let ro = def.compile(def.ro);
        let rw = def.compile(def.rw);
        // One stream per (seed, client); the odd multiplier keeps
        // neighbouring seeds' streams unrelated.
        let mut rng =
            SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (client as u64 + 1));
        let mut keys = Vec::new();
        let mut txs = Vec::with_capacity(len);
        for i in 0..len {
            let shape = if i % 2 == 0 { &ro } else { &rw }.sample_tx(&mut rng);
            txs.push((
                keys.len() as u32,
                shape.reads.len() as u8,
                shape.writes.len() as u8,
            ));
            keys.extend(shape.reads);
            keys.extend(shape.writes);
        }
        TxStream { keys, txs }
    }

    /// `(reads, writes)` of the `i`-th transaction (the ring wraps).
    pub fn get(&self, i: usize) -> (&[Key], &[Key]) {
        let (off, r, w) = self.txs[i % self.txs.len()];
        let (off, r, w) = (off as usize, r as usize, w as usize);
        (&self.keys[off..off + r], &self.keys[off + r..off + r + w])
    }

    /// FNV-1a over the whole stream: equal hashes ⇔ equal inputs.
    pub fn hash(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for &(off, r, w) in &self.txs {
            mix(off as u64 | (r as u64) << 32 | (w as u64) << 40);
        }
        for k in &self.keys {
            mix(k.0);
        }
        h
    }
}

/// Every key of the workload's key space: the same scan
/// `Workload::compile` fills its per-partition pools with (the pools
/// themselves are private), plus the probe marker.
pub fn all_keys(def: &WorkloadDef) -> Vec<Key> {
    let n = def.partitions as usize;
    let mut filled = vec![0u64; n];
    let mut keys = Vec::with_capacity(n * def.keys_per_partition as usize + 1);
    let mut id = 0u64;
    while keys.len() < n * def.keys_per_partition as usize {
        let key = Key(id);
        let p = key.partition(def.partitions).index();
        if filled[p] < def.keys_per_partition {
            filled[p] += 1;
            keys.push(key);
        }
        id += 1;
    }
    keys.push(MARKER_KEY);
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let def = &WORKLOADS[0];
        let a = TxStream::generate(def, 0, 7, 512);
        let b = TxStream::generate(def, 0, 7, 512);
        assert_eq!(a.hash(), b.hash());
        assert_ne!(a.hash(), TxStream::generate(def, 0, 8, 512).hash());
        // The two clients of one run draw different streams too.
        assert_ne!(a.hash(), TxStream::generate(def, 1, 7, 512).hash());
    }

    #[test]
    fn stream_alternates_the_two_shapes_and_stays_in_the_key_space() {
        for def in &WORKLOADS {
            let mut def = *def;
            def.keys_per_partition = 200;
            let s = TxStream::generate(&def, 0, 1, 64);
            let keys = all_keys(&def);
            assert_eq!(keys.len(), 200 * def.partitions as usize + 1);
            for i in 0..64 {
                let (r, w) = s.get(i);
                let mix = if i % 2 == 0 { def.ro } else { def.rw };
                assert_eq!((r.len(), w.len()), (mix.reads, mix.writes), "{}", def.name);
                assert!(r.iter().chain(w).all(|k| keys.contains(k)));
            }
            // The ring wraps.
            assert_eq!(s.get(0), s.get(64));
        }
    }
}
