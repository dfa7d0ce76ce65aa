//! Property-based corruption suite for the write-ahead log: for
//! arbitrary record streams and arbitrary damage — truncation at any
//! byte, a single bit flip anywhere, garbage appended past the seal —
//! recovery must be **total** (no panic, no error for damaged-tail
//! shapes) and must return exactly a *valid prefix* of what was
//! appended: every recovered record is byte-identical to the one
//! written at that position, and no record invented from garbage or
//! damage is ever surfaced past a corrupted one.
//!
//! These are the byte-layer guarantees `wren-core`'s typed replay and
//! the kill-and-restart oracle build on: a crash can only cost a tail,
//! never the middle, and never yields frankenstein records.

use proptest::prelude::*;
use std::path::PathBuf;
use wren_storage::wal::{read_records, Wal, RECORD_HEADER_LEN};
use wren_storage::FsyncPolicy;

fn tmp(tag: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "wren-walprop-{tag}-{}-{case}.wal",
        std::process::id()
    ))
}

/// Writes `payloads` as a sealed log and returns the file's bytes.
fn write_log(path: &PathBuf, payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut wal = Wal::create(path, FsyncPolicy::Off).unwrap();
    for p in payloads {
        wal.append(p);
    }
    wal.seal().unwrap();
    std::fs::read(path).unwrap()
}

/// Byte offset where record `i` starts in the encoded log.
fn record_offset(payloads: &[Vec<u8>], i: usize) -> usize {
    payloads[..i]
        .iter()
        .map(|p| RECORD_HEADER_LEN + p.len())
        .sum()
}

fn arb_payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Cutting the file at any byte recovers exactly the records that
    /// fit wholly below the cut — the valid prefix — and flags the tear
    /// iff bytes were actually lost mid-record.
    #[test]
    fn truncation_at_any_byte_yields_exact_valid_prefix(
        (payloads, cut_frac) in (arb_payloads(), 0.0f64..1.0)
    ) {
        let path = tmp("trunc", 0);
        let bytes = write_log(&path, &payloads);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let rec = read_records(&path).expect("total: truncation is not an I/O error");
        let intact = (0..=payloads.len())
            .rev()
            .find(|&i| record_offset(&payloads, i) <= cut)
            .unwrap();
        prop_assert_eq!(&rec.records, &payloads[..intact].to_vec());
        prop_assert_eq!(rec.valid_len as usize, record_offset(&payloads, intact));
        prop_assert_eq!(rec.torn, cut != record_offset(&payloads, intact));
        std::fs::remove_file(&path).ok();
    }

    /// One flipped bit anywhere: recovery still returns a prefix of the
    /// written records, each byte-identical, and every record strictly
    /// before the damaged one survives. (The flip can only shorten the
    /// prefix from its own record onward — CRC and length guards refuse
    /// to manufacture data.)
    #[test]
    fn single_bit_flip_never_corrupts_the_prefix(
        (payloads, flip_frac, bit) in (arb_payloads(), 0.0f64..1.0, 0u8..8)
    ) {
        let path = tmp("flip", 1);
        let mut bytes = write_log(&path, &payloads);
        let pos = (((bytes.len() - 1) as f64) * flip_frac) as usize;
        bytes[pos] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        let rec = read_records(&path).expect("total: bit rot is not an I/O error");
        // Which record was hit?
        let damaged = (0..payloads.len())
            .find(|&i| pos < record_offset(&payloads, i + 1))
            .unwrap();
        prop_assert!(rec.records.len() <= payloads.len());
        prop_assert_eq!(&rec.records[..], &payloads[..rec.records.len()]);
        prop_assert!(
            rec.records.len() >= damaged,
            "flip at byte {pos} (record {damaged}) destroyed earlier records: \
             only {} of {} survived",
            rec.records.len(),
            payloads.len()
        );
        std::fs::remove_file(&path).ok();
    }

    /// Garbage appended past the sealed log never becomes a record: the
    /// original stream reads back intact and the tail reads as torn.
    #[test]
    fn appended_garbage_reads_as_torn_tail(
        (payloads, garbage) in (arb_payloads(), proptest::collection::vec(any::<u8>(), 1..64))
    ) {
        let path = tmp("garbage", 2);
        let mut bytes = write_log(&path, &payloads);
        let clean_len = bytes.len();
        bytes.extend_from_slice(&garbage);
        std::fs::write(&path, &bytes).unwrap();

        let rec = read_records(&path).expect("total");
        prop_assert_eq!(&rec.records, &payloads);
        prop_assert_eq!(rec.valid_len as usize, clean_len);
        prop_assert!(rec.torn);
        std::fs::remove_file(&path).ok();
    }

    /// Reopening a damaged log truncates exactly the torn tail, and
    /// appends then resume from the clean boundary: old prefix + new
    /// records read back with no seam.
    #[test]
    fn reopen_truncates_tear_and_appends_cleanly(
        (payloads, cut_frac, fresh) in (
            arb_payloads(),
            0.0f64..1.0,
            proptest::collection::vec(any::<u8>(), 0..32),
        )
    ) {
        let path = tmp("reopen", 3);
        let bytes = write_log(&path, &payloads);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let (mut wal, recovered) = Wal::open_for_append(&path, FsyncPolicy::Off).unwrap();
        let intact = recovered.len();
        prop_assert_eq!(&recovered, &payloads[..intact].to_vec());
        wal.append(&fresh);
        wal.seal().unwrap();
        drop(wal);

        let rec = read_records(&path).expect("total");
        let mut want = payloads[..intact].to_vec();
        want.push(fresh);
        prop_assert_eq!(&rec.records, &want);
        prop_assert!(!rec.torn, "reopen must leave no torn bytes behind");
        std::fs::remove_file(&path).ok();
    }

    /// Power-cut oracle for the group-commit policies: append one
    /// record per commit point under `EveryN(n)` or
    /// `Window { max_bytes }` — interleaved with **empty commit points**
    /// (nothing appended since the last one: no-ops that must neither
    /// sync, nor count toward `n`, nor open a window) and explicit
    /// `sync_now` calls (the window's deadline edge) — then emulate the
    /// cut by truncating the file to `synced_len` (an abrupt *process*
    /// kill keeps OS-buffered bytes; losing power does not — only the
    /// fsynced prefix survives). Recovery must yield exactly the records
    /// the policy promised were durable: the commit points up to the
    /// last fsync, computed independently here, and `synced_len` must
    /// land on precisely that record boundary.
    #[test]
    fn power_cut_preserves_exactly_the_fsynced_prefix(
        (payloads, extras, pick, n, max_bytes) in (
            arb_payloads(),
            proptest::collection::vec(0u8..4, 12),
            any::<bool>(),
            2u32..5,
            16usize..128,
        )
    ) {
        let path = tmp("powercut", 4);
        let policy = if pick {
            FsyncPolicy::EveryN(n)
        } else {
            FsyncPolicy::Window {
                max_delay: std::time::Duration::from_secs(3600),
                max_bytes,
            }
        };
        let mut wal = Wal::create(&path, policy).unwrap();
        // Replay the policy's own promise alongside the appends.
        let mut durable = 0usize; // records covered by the last fsync
        let mut pending = 0usize; // commit points since it (EveryN)
        let mut unsynced = 0usize; // bytes since it (Window)
        for (i, p) in payloads.iter().enumerate() {
            if extras[i] == 1 {
                wal.commit_point().unwrap(); // empty: the model does not move
            }
            wal.append(p);
            wal.commit_point().unwrap();
            match policy {
                FsyncPolicy::EveryN(n) => {
                    pending += 1;
                    if pending == n as usize {
                        pending = 0;
                        durable = i + 1;
                    }
                }
                FsyncPolicy::Window { max_bytes, .. } => {
                    unsynced += RECORD_HEADER_LEN + p.len();
                    if unsynced >= max_bytes {
                        unsynced = 0;
                        durable = i + 1;
                    }
                }
                _ => unreachable!(),
            }
            match extras[i] {
                2 => wal.commit_point().unwrap(), // empty again
                3 => {
                    // The deadline edge: everything so far is synced and
                    // the window closes; `EveryN` keeps counting points.
                    wal.sync_now().unwrap();
                    unsynced = 0;
                    durable = i + 1;
                }
                _ => {}
            }
            prop_assert_eq!(
                wal.sync_deadline().is_some(),
                !pick && unsynced > 0,
                "a deadline exists exactly while a window holds unsynced bytes"
            );
        }
        let synced = wal.synced_len();
        prop_assert_eq!(
            synced as usize,
            record_offset(&payloads, durable),
            "fsync must land exactly on the policy's record boundary"
        );
        drop(wal); // kill -9: no seal, no flush
        // The power cut: everything past the last fsync evaporates.
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(synced).unwrap();
        drop(file);

        let rec = read_records(&path).expect("total");
        prop_assert_eq!(&rec.records, &payloads[..durable].to_vec());
        prop_assert!(!rec.torn, "the fsynced prefix has no torn bytes");
        std::fs::remove_file(&path).ok();
    }
}
