//! The typed durability layer: WAL records, checkpoint payloads and the
//! generation machinery tying them together.
//!
//! Layering (mirroring the sans-io split of the network stack):
//!
//! * `wren_storage::wal` / `wren_storage::checkpoint` — byte-level files:
//!   CRC-framed records with a total valid-prefix reader, atomically
//!   renamed snapshot files. They know nothing about Wren.
//! * **this module** — the typed record set ([`WalOp`]) encoded with the
//!   protocol codec (`wire_size`-exact, same discipline as [`WrenMsg`]
//!   (`wren_protocol::WrenMsg`)), plus [`DurableLog`]: one partition's
//!   durability directory holding paired generations `ckpt.N`/`wal.N`.
//! * `WrenServer` (in [`server`](crate::server)) — decides *what* to log
//!   (local commits, replication batches, stable advances), encodes its
//!   full state into checkpoint payloads, and replays records onto a
//!   fresh instance at boot ([`WrenServer::recover`]).
//!
//! # Generations
//!
//! A checkpoint at sequence `N` captures all state produced by records
//! in `wal.0 .. wal.{N-1}`; `wal.N` is the log that starts empty at that
//! moment. Boot therefore loads the newest *valid* `ckpt.N` and replays
//! `wal.N, wal.{N+1}, …` in order — if the newest checkpoint is corrupt,
//! the previous generation (always retained by
//! [`checkpoint::prune_generations`]) plus its longer log chain recovers
//! the same state. A torn record tail is truncated by the storage layer;
//! a record that fails *typed* decoding ends replay at the last good
//! record (totality over panics, at the cost of dropping a suffix that
//! could only exist under version skew or silent corruption).
//!
//! [`WrenServer::recover`]: crate::WrenServer::recover
//! [`checkpoint::prune_generations`]: wren_storage::checkpoint::prune_generations

use std::path::{Path, PathBuf};
use wren_clock::Timestamp;
use wren_protocol::codec::{size, CodecError, Dec, Enc};
use wren_protocol::{Key, RepTx, TxId, Value, WrenMsg};
use wren_storage::checkpoint;
use wren_storage::{FsyncPolicy, Wal};

const OP_PREPARED: u8 = 1;
const OP_DECIDED: u8 = 2;
const OP_COMMIT: u8 = 3;
const OP_APPLIED: u8 = 4;
const OP_REMOTE_BATCH: u8 = 5;
const OP_STABLE: u8 = 6;
const OP_CATCH_UP_DONE: u8 = 7;

/// One WAL record: everything a partition must remember across a crash
/// that is not yet covered by a checkpoint.
///
/// The record set follows the server's write path: a cohort logs
/// [`WalOp::Prepared`] before its `PrepareResp` leaves, a coordinator
/// logs [`WalOp::Decided`] before fanning out `Commit`/`CommitResp`, a
/// cohort logs [`WalOp::Commit`] when the decision arrives, a
/// version-clock advance (the replication tick or `WrenServer::advance`)
/// logs one [`WalOp::Applied`] when it installs data, an incoming
/// `apply_batch` logs one [`WalOp::RemoteBatch`], and BiST
/// advances log [`WalOp::Stable`]. Group commit makes a batch of these
/// durable before the messages they justify are dispatched;
/// [`asserts_logged_state`] says which messages those are.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// A transaction entered the prepared list (Algorithm 3 line 18).
    Prepared {
        /// The transaction.
        tx: TxId,
        /// The proposed commit timestamp.
        pt: Timestamp,
        /// The snapshot's remote component (becomes the items' `rdt`).
        rst: Timestamp,
        /// Writes owned by this cohort.
        writes: Vec<(Key, Value)>,
    },
    /// This server, as coordinator, fixed a transaction's outcome.
    /// Logged before any `Commit`/`CommitResp` leaves, so a recovered
    /// cohort can always learn the decision by re-asking.
    Decided {
        /// The transaction.
        tx: TxId,
        /// The decided commit timestamp (never zero).
        ct: Timestamp,
    },
    /// A prepared transaction moved to the committed list (`ct` nonzero)
    /// or was aborted (`ct` zero).
    Commit {
        /// The transaction.
        tx: TxId,
        /// Final commit timestamp, or zero for an abort.
        ct: Timestamp,
    },
    /// A version-clock advance applied every committed transaction with
    /// `ct ≤ ub` to the store and advanced the local version clock.
    Applied {
        /// The new local version clock.
        ub: Timestamp,
    },
    /// One incoming replication batch was applied (Algorithm 4 lines
    /// 22–26); one record per `apply_batch`, the PR-2 batching unit.
    RemoteBatch {
        /// Origin DC index.
        src: u8,
        /// Whether the version-vector entry for `src` was raised to
        /// `ct` (false during a catch-up window, where the vector only
        /// advances at [`WalOp::CatchUpDone`]).
        raise: bool,
        /// The batch's shared commit timestamp.
        ct: Timestamp,
        /// The transactions, exactly as received.
        txs: Vec<RepTx>,
    },
    /// The published stable snapshot advanced (logged at gossip ticks,
    /// only when changed).
    Stable {
        /// Local stable time.
        lst: Timestamp,
        /// Remote stable time.
        rst: Timestamp,
    },
    /// A post-restart catch-up from DC `src` completed covering
    /// everything up to `t`.
    CatchUpDone {
        /// Origin DC index.
        src: u8,
        /// The sibling's version clock at the end of its re-scan.
        t: Timestamp,
    },
}

/// Whether an outgoing message **asserts state that lives in the
/// sender's log** — the other half of the [`WalOp`] contract. A driver
/// that defers fsyncs (`FsyncPolicy::Window`) must hold such a message
/// while the log has unsynced bytes, or a power cut could take back
/// what the message already said; every other message may leave at
/// once. One exhaustive match, no `_` arm: a new message kind has to be
/// classified before the crate compiles.
///
/// Why the `false` arms are safe. Each is a function of client-supplied
/// data plus a snapshot `(lt, rt)` that was *already released* to a
/// client under this very rule: a `TxReadReq` or `CommitReq` cannot
/// exist before its `StartTxResp` left, and that reply is held until
/// the coordinator's log is synced. A released snapshot names only
/// versions that were durable at every partition of the DC before it
/// circulated — each partition's contribution to the stable cut is
/// itself gossiped under the rule — so nothing said about it depends on
/// bytes a power cut can still remove.
pub fn asserts_logged_state(msg: &WrenMsg) -> bool {
    match msg {
        // Keys chosen by the client, read at a released snapshot.
        WrenMsg::SliceReq { .. } => false,
        // Versions inside a released snapshot: durable everywhere.
        WrenMsg::SliceResp { .. } | WrenMsg::TxReadResp { .. } => false,
        // The client's writes, its `hwt` and a released snapshot; the
        // coordinator's own `Prepared` record is not part of the claim.
        WrenMsg::PrepareReq { .. } => false,
        // Zero `ct`: a read-only teardown, or the in-doubt abort notice —
        // which asserts only the *absence* of a decision record, and a
        // power cut preserves absence. Nonzero: `Decided`.
        WrenMsg::CommitResp { ct, .. } => !ct.is_zero(),
        // The snapshot it releases can rest on this partition's own
        // unsynced `Applied` contribution to the stable cut.
        WrenMsg::StartTxResp { .. } => true,
        // `Prepared`: a vote the recovered cohort must still stand by.
        WrenMsg::PrepareResp { .. } => true,
        // `Decided` (also sent for aborts, which need no hold; they are
        // rare and ride along).
        WrenMsg::Commit { .. } => true,
        // `Commit` + `Applied`: shipped transactions are installed here,
        // and the heartbeat vouches that nothing older is still to come.
        WrenMsg::Replicate { .. } | WrenMsg::Heartbeat { .. } => true,
        // `Applied` / `RemoteBatch`: this partition's contribution to
        // the stable cut, or a cut built on it.
        WrenMsg::StableGossip { .. } | WrenMsg::GossipUp { .. } | WrenMsg::GossipDown { .. } => {
            true
        }
        // `Stable`: peers collect versions below what this announces.
        WrenMsg::GcGossip { .. } => true,
        // `RemoteBatch`: "I hold everything of yours up to here".
        WrenMsg::CatchUpReq { .. } => true,
        // `Applied`: the re-shipped versions and the clock closing them.
        WrenMsg::CatchUpDone { .. } => true,
        // Client requests: a server never emits them.
        WrenMsg::StartTxReq { .. } | WrenMsg::TxReadReq { .. } | WrenMsg::CommitReq { .. } => true,
    }
}

pub(crate) fn put_writes(e: &mut Enc, writes: &[(Key, Value)]) {
    e.put_len(writes.len());
    for (k, v) in writes {
        e.put_key(*k);
        e.put_value(v);
    }
}

pub(crate) fn get_writes(d: &mut Dec<'_>) -> Result<Vec<(Key, Value)>, CodecError> {
    let n = d.get_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push((d.get_key()?, d.get_value()?));
    }
    Ok(out)
}

fn writes_size(writes: &[(Key, Value)]) -> usize {
    2 + writes.iter().map(size::write_pair).sum::<usize>()
}

impl WalOp {
    /// Exact encoded size in bytes (same discipline as
    /// `WrenMsg::wire_size`; the encoder preallocates exactly this).
    pub fn wire_size(&self) -> usize {
        1 + match self {
            WalOp::Prepared { writes, .. } => 8 + 8 + 8 + writes_size(writes),
            WalOp::Decided { .. } => 16,
            WalOp::Commit { .. } => 16,
            WalOp::Applied { .. } => 8,
            WalOp::RemoteBatch { txs, .. } => {
                1 + 1
                    + 8
                    + 2
                    + txs
                        .iter()
                        .map(|t| 8 + 8 + writes_size(&t.writes))
                        .sum::<usize>()
            }
            WalOp::Stable { .. } => 16,
            WalOp::CatchUpDone { .. } => 9,
        }
    }

    /// Appends the encoding to `e`.
    pub fn encode_into(&self, e: &mut Enc) {
        match self {
            WalOp::Prepared { tx, pt, rst, writes } => {
                e.put_u8(OP_PREPARED);
                e.put_tx(*tx);
                e.put_ts(*pt);
                e.put_ts(*rst);
                put_writes(e, writes);
            }
            WalOp::Decided { tx, ct } => {
                e.put_u8(OP_DECIDED);
                e.put_tx(*tx);
                e.put_ts(*ct);
            }
            WalOp::Commit { tx, ct } => {
                e.put_u8(OP_COMMIT);
                e.put_tx(*tx);
                e.put_ts(*ct);
            }
            WalOp::Applied { ub } => {
                e.put_u8(OP_APPLIED);
                e.put_ts(*ub);
            }
            WalOp::RemoteBatch { src, raise, ct, txs } => {
                e.put_u8(OP_REMOTE_BATCH);
                e.put_u8(*src);
                e.put_u8(u8::from(*raise));
                e.put_ts(*ct);
                e.put_len(txs.len());
                for t in txs {
                    e.put_tx(t.tx);
                    e.put_ts(t.rst);
                    put_writes(e, &t.writes);
                }
            }
            WalOp::Stable { lst, rst } => {
                e.put_u8(OP_STABLE);
                e.put_ts(*lst);
                e.put_ts(*rst);
            }
            WalOp::CatchUpDone { src, t } => {
                e.put_u8(OP_CATCH_UP_DONE);
                e.put_u8(*src);
                e.put_ts(*t);
            }
        }
    }

    /// Encodes to a standalone record payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(self.wire_size());
        self.encode_into(&mut e);
        e.finish().to_vec()
    }

    /// Decodes a record payload previously produced by [`WalOp::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated input, unknown tags or
    /// trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut d = Dec::new(bytes);
        let op = match d.get_u8()? {
            OP_PREPARED => WalOp::Prepared {
                tx: d.get_tx()?,
                pt: d.get_ts()?,
                rst: d.get_ts()?,
                writes: get_writes(&mut d)?,
            },
            OP_DECIDED => WalOp::Decided {
                tx: d.get_tx()?,
                ct: d.get_ts()?,
            },
            OP_COMMIT => WalOp::Commit {
                tx: d.get_tx()?,
                ct: d.get_ts()?,
            },
            OP_APPLIED => WalOp::Applied { ub: d.get_ts()? },
            OP_REMOTE_BATCH => {
                let src = d.get_u8()?;
                let raise = d.get_u8()? != 0;
                let ct = d.get_ts()?;
                let n = d.get_len()?;
                let mut txs = Vec::with_capacity(n);
                for _ in 0..n {
                    txs.push(RepTx {
                        tx: d.get_tx()?,
                        rst: d.get_ts()?,
                        writes: get_writes(&mut d)?,
                    });
                }
                WalOp::RemoteBatch { src, raise, ct, txs }
            }
            OP_STABLE => WalOp::Stable {
                lst: d.get_ts()?,
                rst: d.get_ts()?,
            },
            OP_CATCH_UP_DONE => WalOp::CatchUpDone {
                src: d.get_u8()?,
                t: d.get_ts()?,
            },
            tag => return Err(CodecError::BadTag(tag)),
        };
        d.expect_end()?;
        Ok(op)
    }
}

/// A partition's durability directory: the active WAL generation plus
/// the checkpoint machinery, with typed append/replay.
pub struct DurableLog {
    dir: PathBuf,
    policy: FsyncPolicy,
    /// Active generation: appends go to `wal.{seq}`; `ckpt.{seq}` (if
    /// present) captured all earlier state.
    seq: u64,
    wal: Wal,
    /// Records appended over this log's lifetime (reporting).
    records: u64,
    /// Instrumentation re-applied to each new WAL generation (see
    /// [`DurableLog::instrument`]).
    instruments: Option<(wren_obs::Histogram, wren_obs::Histogram, wren_obs::Histogram)>,
}

impl std::fmt::Debug for DurableLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableLog")
            .field("dir", &self.dir)
            .field("seq", &self.seq)
            .field("records", &self.records)
            .finish_non_exhaustive()
    }
}

/// What [`DurableLog::open`] recovered from disk.
pub struct DurableBoot {
    /// The log, positioned to append after the last valid record.
    pub log: DurableLog,
    /// The newest valid checkpoint payload, if any generation had one.
    pub checkpoint: Option<Vec<u8>>,
    /// Every decodable record after that checkpoint, oldest first.
    pub ops: Vec<WalOp>,
}

impl DurableLog {
    /// Opens (or creates) the durability directory: loads the newest
    /// valid checkpoint, replays every WAL generation after it, and
    /// opens the newest generation for appending (truncating any torn
    /// tail). Recovery also sweeps crash leftovers — `ckpt.N.tmp` files
    /// from an interrupted checkpoint write and generations older than
    /// the fallback — with the same retention [`DurableLog::rotate`]
    /// enforces.
    pub fn open(dir: impl Into<PathBuf>, policy: FsyncPolicy) -> std::io::Result<DurableBoot> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let ckpt = checkpoint::load_latest(&dir);
        let base = ckpt.as_ref().map(|(seq, _)| *seq).unwrap_or(0);
        let newest_wal = wal_generations(&dir).into_iter().max().unwrap_or(base).max(base);
        // Replay only needs [base, newest]; everything before the
        // fallback generation (base - 1) is dead, as are any tmp files a
        // crash mid-`write_checkpoint` left behind.
        checkpoint::prune_generations(&dir, base.saturating_sub(1));

        let mut ops = Vec::new();
        // Replay sealed generations [base, newest) read-only…
        for seq in base..newest_wal {
            let log = wren_storage::wal::read_records(checkpoint::wal_path(&dir, seq))?;
            decode_ops(&log.records, &mut ops);
        }
        // …and the active generation with torn-tail truncation.
        let (wal, records) =
            Wal::open_for_append(checkpoint::wal_path(&dir, newest_wal), policy)?;
        decode_ops(&records, &mut ops);

        Ok(DurableBoot {
            log: DurableLog {
                dir,
                policy,
                seq: newest_wal,
                wal,
                records: 0,
                instruments: None,
            },
            checkpoint: ckpt.map(|(_, payload)| payload),
            ops,
        })
    }

    /// Attaches WAL latency/size instrumentation (`fsync_micros` per
    /// synchronous flush, `append_bytes` per record,
    /// `group_commit_size` commit points per fsync), carried across
    /// generation rotations.
    pub fn instrument(
        &mut self,
        fsync_micros: wren_obs::Histogram,
        append_bytes: wren_obs::Histogram,
        group_commit_size: wren_obs::Histogram,
    ) {
        self.wal
            .instrument(fsync_micros.clone(), append_bytes.clone(), group_commit_size.clone());
        self.instruments = Some((fsync_micros, append_bytes, group_commit_size));
    }

    /// Appends one typed record (buffered until the next commit point).
    pub fn append(&mut self, op: &WalOp) {
        let mut e = Enc::with_capacity(op.wire_size());
        op.encode_into(&mut e);
        self.wal.append(&e.finish());
        self.records += 1;
    }

    /// Appends a [`WalOp::Prepared`] record without cloning the write
    /// set (the hot path: one record per cohort prepare).
    pub fn log_prepared(&mut self, tx: TxId, pt: Timestamp, rst: Timestamp, writes: &[(Key, Value)]) {
        let mut e = Enc::with_capacity(1 + 24 + writes_size(writes));
        e.put_u8(OP_PREPARED);
        e.put_tx(tx);
        e.put_ts(pt);
        e.put_ts(rst);
        put_writes(&mut e, writes);
        self.wal.append(&e.finish());
        self.records += 1;
    }

    /// Appends a [`WalOp::RemoteBatch`] record without cloning the
    /// batch (one record per incoming `apply_batch`).
    pub fn log_remote_batch(&mut self, src: u8, raise: bool, ct: Timestamp, txs: &[RepTx]) {
        let size = 1
            + 1
            + 1
            + 8
            + 2
            + txs
                .iter()
                .map(|t| 16 + writes_size(&t.writes))
                .sum::<usize>();
        let mut e = Enc::with_capacity(size);
        e.put_u8(OP_REMOTE_BATCH);
        e.put_u8(src);
        e.put_u8(u8::from(raise));
        e.put_ts(ct);
        e.put_len(txs.len());
        for t in txs {
            e.put_tx(t.tx);
            e.put_ts(t.rst);
            put_writes(&mut e, &t.writes);
        }
        self.wal.append(&e.finish());
        self.records += 1;
    }

    /// Marks a commit point ([`Wal::commit_point`]): the fsync policy
    /// decides whether the buffered records become durable now.
    pub fn commit_point(&mut self) -> std::io::Result<()> {
        self.wal.commit_point()
    }

    /// Flushes and fsyncs everything regardless of policy (graceful
    /// stop).
    pub fn seal(&mut self) -> std::io::Result<()> {
        self.wal.seal()
    }

    /// When the open group-commit window must close
    /// ([`Wal::sync_deadline`]); `None` unless the policy is
    /// [`FsyncPolicy::Window`] with unsynced commit points pending.
    pub fn sync_deadline(&self) -> Option<std::time::Instant> {
        self.wal.sync_deadline()
    }

    /// Fsyncs everything written so far, closing any open group-commit
    /// window ([`Wal::sync_now`]).
    pub fn sync_now(&mut self) -> std::io::Result<()> {
        self.wal.sync_now()
    }

    /// Writes checkpoint generation `seq + 1` with `payload`, rotates to
    /// a fresh `wal.{seq + 1}`, and prunes generations older than `seq`
    /// (the previous generation stays as the corruption fallback).
    pub fn rotate(&mut self, payload: &[u8]) -> std::io::Result<()> {
        // Seal the old generation first: the checkpoint claims to cover
        // everything in it.
        self.wal.seal()?;
        let next = self.seq + 1;
        checkpoint::write_checkpoint(&self.dir, next, payload)?;
        self.wal = Wal::create(checkpoint::wal_path(&self.dir, next), self.policy)?;
        if let Some((fsync, append, group)) = &self.instruments {
            self.wal.instrument(fsync.clone(), append.clone(), group.clone());
        }
        self.seq = next;
        checkpoint::prune_generations(&self.dir, next.saturating_sub(1));
        Ok(())
    }

    /// The active WAL file and how many of its bytes are fsynced — all
    /// a power cut leaves of it (sealed generations and checkpoints are
    /// synced when written).
    pub fn synced_prefix(&self) -> (&Path, u64) {
        (self.wal.path(), self.wal.synced_len())
    }

    /// The active generation number.
    pub fn generation(&self) -> u64 {
        self.seq
    }

    /// Records appended through this handle.
    pub fn records_logged(&self) -> u64 {
        self.records
    }

    /// The durability directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Decodes records into ops, stopping at the first undecodable record
/// (replay totality: a suffix that no longer parses is treated exactly
/// like a torn tail).
fn decode_ops(records: &[Vec<u8>], ops: &mut Vec<WalOp>) {
    for rec in records {
        match WalOp::decode(rec) {
            Ok(op) => ops.push(op),
            Err(_) => break,
        }
    }
}

/// WAL generation numbers present in `dir` (unordered).
fn wal_generations(dir: &Path) -> Vec<u64> {
    let mut seqs = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else { return seqs };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name.strip_prefix("wal.") {
            if let Ok(seq) = seq.parse::<u64>() {
                seqs.push(seq);
            }
        }
    }
    seqs
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use wren_protocol::ServerId;
    use wren_storage::FsyncPolicy;

    fn sample_ops() -> Vec<WalOp> {
        let tx = TxId::new(ServerId::new(1, 2), 77);
        vec![
            WalOp::Prepared {
                tx,
                pt: Timestamp::from_parts(10, 1),
                rst: Timestamp::from_micros(5),
                writes: vec![(Key(9), Bytes::from_static(b"payload"))],
            },
            WalOp::Decided {
                tx,
                ct: Timestamp::from_micros(12),
            },
            WalOp::Commit {
                tx,
                ct: Timestamp::from_micros(12),
            },
            WalOp::Commit {
                tx,
                ct: Timestamp::ZERO,
            },
            WalOp::Applied {
                ub: Timestamp::from_micros(15),
            },
            WalOp::RemoteBatch {
                src: 1,
                raise: true,
                ct: Timestamp::from_micros(20),
                txs: vec![RepTx {
                    tx,
                    rst: Timestamp::from_micros(3),
                    writes: vec![(Key(1), Bytes::new()), (Key(2), Bytes::from_static(b"x"))],
                }],
            },
            WalOp::Stable {
                lst: Timestamp::from_micros(30),
                rst: Timestamp::from_micros(25),
            },
            WalOp::CatchUpDone {
                src: 2,
                t: Timestamp::from_micros(40),
            },
        ]
    }

    #[test]
    fn ops_round_trip_and_size_exact() {
        for op in sample_ops() {
            let bytes = op.encode();
            assert_eq!(bytes.len(), op.wire_size(), "size mismatch for {op:?}");
            assert_eq!(WalOp::decode(&bytes).expect("decodes"), op);
        }
    }

    #[test]
    fn bad_tag_and_trailing_bytes_rejected() {
        assert!(WalOp::decode(&[99]).is_err());
        let mut bytes = WalOp::Applied { ub: Timestamp::ZERO }.encode();
        bytes.push(0);
        assert!(WalOp::decode(&bytes).is_err());
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("wren-durable-log-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    #[test]
    fn reference_log_methods_match_owned_encoding() {
        let dir = tmp_dir("refenc");
        let mut boot = DurableLog::open(&dir, FsyncPolicy::Off).unwrap();
        let ops = sample_ops();
        let (WalOp::Prepared { tx, pt, rst, writes }, WalOp::RemoteBatch { src, raise, ct, txs }) =
            (&ops[0], &ops[5])
        else {
            panic!("sample op order changed");
        };
        boot.log.log_prepared(*tx, *pt, *rst, writes);
        boot.log.log_remote_batch(*src, *raise, *ct, txs);
        boot.log.seal().unwrap();
        drop(boot);
        let boot = DurableLog::open(&dir, FsyncPolicy::Off).unwrap();
        assert_eq!(boot.ops, vec![ops[0].clone(), ops[5].clone()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn log_survives_seal_and_reopen() {
        let dir = tmp_dir("reopen");
        let mut boot = DurableLog::open(&dir, FsyncPolicy::Off).unwrap();
        assert!(boot.ops.is_empty());
        for op in sample_ops() {
            boot.log.append(&op);
        }
        boot.log.seal().unwrap();
        drop(boot);
        let boot = DurableLog::open(&dir, FsyncPolicy::Off).unwrap();
        assert_eq!(boot.ops, sample_ops());
        assert!(boot.checkpoint.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_pairs_checkpoint_with_fresh_wal() {
        let dir = tmp_dir("rotate");
        let mut boot = DurableLog::open(&dir, FsyncPolicy::Always).unwrap();
        boot.log.append(&sample_ops()[0]);
        boot.log.commit_point().unwrap();
        boot.log.rotate(b"state-at-gen-1").unwrap();
        assert_eq!(boot.log.generation(), 1);
        boot.log.append(&sample_ops()[4]);
        boot.log.commit_point().unwrap();
        drop(boot);

        let boot = DurableLog::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(boot.checkpoint.as_deref(), Some(&b"state-at-gen-1"[..]));
        // Only the post-checkpoint op replays.
        assert_eq!(boot.ops, vec![sample_ops()[4].clone()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_sweeps_crash_leftovers() {
        let dir = tmp_dir("sweep");
        let mut boot = DurableLog::open(&dir, FsyncPolicy::Always).unwrap();
        boot.log.rotate(b"gen1").unwrap();
        boot.log.rotate(b"gen2").unwrap();
        boot.log.rotate(b"gen3").unwrap();
        boot.log.seal().unwrap();
        drop(boot);
        // Simulate crash debris: an interrupted checkpoint write plus an
        // ancient WAL generation that escaped the runtime prune.
        std::fs::write(dir.join("ckpt.4.tmp"), b"half").unwrap();
        std::fs::write(checkpoint::wal_path(&dir, 0), b"stale").unwrap();

        let boot = DurableLog::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(boot.checkpoint.as_deref(), Some(&b"gen3"[..]));
        assert!(!dir.join("ckpt.4.tmp").exists(), "tmp swept on recovery");
        assert!(!checkpoint::wal_path(&dir, 0).exists(), "orphan wal swept");
        // The fallback generation survives recovery's sweep.
        assert!(checkpoint::checkpoint_path(&dir, 2).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_previous_generation() {
        let dir = tmp_dir("fallback");
        let mut boot = DurableLog::open(&dir, FsyncPolicy::Always).unwrap();
        boot.log.rotate(b"gen1").unwrap();
        boot.log.append(&sample_ops()[1]);
        boot.log.commit_point().unwrap();
        boot.log.rotate(b"gen2").unwrap();
        boot.log.append(&sample_ops()[2]);
        boot.log.commit_point().unwrap();
        drop(boot);
        // Corrupt ckpt.2's payload.
        let p = checkpoint::checkpoint_path(&dir, 2);
        let mut bytes = std::fs::read(&p).unwrap();
        let n = bytes.len();
        bytes[n - 6] ^= 0x10;
        std::fs::write(&p, &bytes).unwrap();

        let boot = DurableLog::open(&dir, FsyncPolicy::Always).unwrap();
        // Falls back to gen1 and replays wal.1 (the Decided) + wal.2
        // (the Commit) to reach the same state.
        assert_eq!(boot.checkpoint.as_deref(), Some(&b"gen1"[..]));
        assert_eq!(boot.ops, vec![sample_ops()[1].clone(), sample_ops()[2].clone()]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
