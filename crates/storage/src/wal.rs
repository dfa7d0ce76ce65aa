//! Write-ahead log: CRC-framed, length-prefixed records on disk.
//!
//! This module is the bottom layer of the durability stack, and it is
//! deliberately **byte-oriented**: it knows nothing about the Wren
//! protocol. The layering mirrors `wren-net`'s sans-io split:
//!
//! * **`wal` (here)** — append-only record files. Each record is
//!   `[u32 len][u32 crc32][payload]`, little-endian, with the CRC taken
//!   over the payload alone. Reading is *total*: a torn tail, a bad
//!   length, garbage bytes or a flipped bit never panic — the reader
//!   returns the longest prefix of valid records plus the offset where
//!   validity ended, and [`Wal::open_for_append`] truncates the tail so
//!   the next append continues from a clean boundary.
//! * **[`checkpoint`](crate::checkpoint)** — atomically-written
//!   snapshot files that bound how much log must be replayed.
//! * **`wren-core::durability`** — the typed record set (commits,
//!   replication batches, stable advances) encoded with the protocol
//!   codec, plus replay that rebuilds a server atop the newest
//!   checkpoint.
//!
//! Group commit is expressed through [`Wal::commit_point`]: appends
//! accumulate in a user-space buffer and a commit point makes them
//! durable according to the [`FsyncPolicy`] — every point
//! (`Always`), every nth point (`EveryN`), within a time/byte window
//! (`Window`), or only at [`Wal::seal`] (`Off`). Only a commit point
//! that carries bytes counts: one with nothing appended since the last
//! is a no-op under every policy. Under `Window` the bytes go to the OS
//! at each commit point but the fsync is *deferred*: the caller holds
//! whatever asserts those bytes, polls [`Wal::sync_deadline`] — `Some`
//! exactly while unsynced bytes exist — and closes the window with
//! [`Wal::sync_now`]: one fsync amortized across every commit point
//! the window collected (the count lands in the `group_commit_size`
//! histogram, see [`Wal::instrument`]). Dropping a `Wal` without
//! sealing deliberately does **not** flush: that is exactly the
//! abrupt-kill semantics crash tests rely on.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Hard ceiling on one WAL record's payload (and, via the alias in
/// `wren_protocol::frame::MAX_FRAME_LEN`, on one wire frame). A length
/// prefix above this is rejected *before* any buffering, so a corrupt
/// or hostile length field can never drive an allocation.
pub const MAX_RECORD_LEN: usize = 64 * 1024 * 1024;

/// Bytes of record header: `u32` length + `u32` CRC.
pub const RECORD_HEADER_LEN: usize = 8;

/// Soft cap on the user-space buffer between syncs (under
/// [`FsyncPolicy::Off`] and between the group commits of
/// [`FsyncPolicy::EveryN`]): past this, a commit point writes the
/// buffer to the OS (without syncing) so a rarely-syncing log cannot
/// grow memory without bound.
const BUFFER_CAP: usize = 8 * 1024 * 1024;

/// When a batch of appends becomes durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Write + fsync at every commit point. No acknowledged record is
    /// ever lost to an abrupt kill.
    Always,
    /// Write + fsync at every `n`th commit point (group commit): up to
    /// `n - 1` acknowledged commit points may be lost on a kill.
    EveryN(u32),
    /// Group commit by **window**: each commit point hands its bytes to
    /// the OS immediately, but the fsync is deferred until either
    /// `max_bytes` of unsynced records accumulate or `max_delay` passes
    /// since the first unsynced commit point — whichever comes first.
    /// A window opens only when a commit point carries bytes, so an
    /// idle log has no window and no deadline. The *caller* closes the
    /// time edge: it polls [`Wal::sync_deadline`] and calls
    /// [`Wal::sync_now`] when the deadline fires, and until then holds
    /// back whatever it would say on the strength of the unsynced
    /// records — and nothing else. Nothing so held is lost to a kill or
    /// a power cut, because nothing escapes before its sync.
    Window {
        /// Longest a commit point may wait for its fsync.
        max_delay: Duration,
        /// Unsynced bytes that force an immediate fsync.
        max_bytes: usize,
    },
    /// Only seal/rotation flushes. Fastest; a kill loses everything
    /// since the last seal or checkpoint.
    Off,
}

/// An append-only record log backed by one file.
pub struct Wal {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    /// Records appended but not yet handed to the OS.
    buf: Vec<u8>,
    /// Whether anything was appended since the last commit point (an
    /// empty commit point is a no-op; `buf` cannot tell, because
    /// `EveryN` and `Off` keep earlier points' bytes buffered).
    appended: bool,
    /// Commit points since the last flush (for [`FsyncPolicy::EveryN`]).
    points: u32,
    /// Commit points folded into the next fsync, across every policy —
    /// the group-commit size recorded at each sync.
    points_since_sync: u64,
    /// Bytes handed to the OS (written, synced or not).
    written_len: u64,
    /// Durable log length in bytes (what a reader would recover).
    synced_len: u64,
    /// When the first unsynced commit point of the open window landed
    /// (for [`FsyncPolicy::Window`]); `None` when no window is open.
    window_since: Option<Instant>,
    /// Optional instrumentation (see [`Wal::instrument`]).
    fsync_micros: Option<wren_obs::Histogram>,
    append_bytes: Option<wren_obs::Histogram>,
    group_commit_size: Option<wren_obs::Histogram>,
}

/// CRC-32 (IEEE 802.3, the `crc32` of zlib/gzip) over `bytes`.
/// Hand-rolled table-driven implementation — no dependency.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: [u32; 256] = build_crc_table();
    let mut crc = !0u32;
    for &b in bytes {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

impl Wal {
    /// Creates a fresh, empty log at `path`, truncating any existing
    /// file.
    pub fn create(path: impl Into<PathBuf>, policy: FsyncPolicy) -> std::io::Result<Wal> {
        let path = path.into();
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        Ok(Wal {
            file,
            path,
            policy,
            buf: Vec::new(),
            appended: false,
            points: 0,
            points_since_sync: 0,
            written_len: 0,
            synced_len: 0,
            window_since: None,
            fsync_micros: None,
            append_bytes: None,
            group_commit_size: None,
        })
    }

    /// Opens an existing log for appending, first scanning it with
    /// [`read_records`] and **truncating the torn tail** (anything after
    /// the last valid record) so appends resume from a clean boundary.
    ///
    /// Returns the recovered record payloads along with the log.
    pub fn open_for_append(
        path: impl Into<PathBuf>,
        policy: FsyncPolicy,
    ) -> std::io::Result<(Wal, Vec<Vec<u8>>)> {
        let path = path.into();
        let recovered = read_records(&path)?;
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .read(true)
            .truncate(false) // set_len below trims exactly the torn tail
            .open(&path)?;
        file.set_len(recovered.valid_len)?;
        file.sync_all()?;
        file.seek(SeekFrom::End(0))?;
        let synced_len = recovered.valid_len;
        Ok((
            Wal {
                file,
                path,
                policy,
                buf: Vec::new(),
                appended: false,
                points: 0,
                points_since_sync: 0,
                written_len: synced_len,
                synced_len,
                window_since: None,
                fsync_micros: None,
                append_bytes: None,
                group_commit_size: None,
            },
            recovered.records,
        ))
    }

    /// Appends one record (buffered; durable only after a commit point
    /// under the policy, or [`Wal::seal`]).
    ///
    /// Panics if `payload` exceeds [`MAX_RECORD_LEN`] — the typed layer
    /// above chunks its batches well below the ceiling.
    pub fn append(&mut self, payload: &[u8]) {
        assert!(
            payload.len() <= MAX_RECORD_LEN,
            "WAL record of {} bytes exceeds MAX_RECORD_LEN ({MAX_RECORD_LEN})",
            payload.len()
        );
        self.buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&crc32(payload).to_le_bytes());
        self.buf.extend_from_slice(payload);
        self.appended = true;
        if let Some(h) = &self.append_bytes {
            h.record(payload.len() as u64);
        }
    }

    /// Attaches latency/size instrumentation: `fsync_micros` records
    /// each synchronous flush (write + fsync) in microseconds,
    /// `append_bytes` each appended record's payload size, and
    /// `group_commit_size` how many commit points — those that carried
    /// bytes; empty ones are no-ops — each fsync made durable at once
    /// (1 under `Always`, `n` under `EveryN`, variable under `Window`). Recording is lock-free and uninstrumented logs
    /// pay one `Option` branch.
    pub fn instrument(
        &mut self,
        fsync_micros: wren_obs::Histogram,
        append_bytes: wren_obs::Histogram,
        group_commit_size: wren_obs::Histogram,
    ) {
        self.fsync_micros = Some(fsync_micros);
        self.append_bytes = Some(append_bytes);
        self.group_commit_size = Some(group_commit_size);
    }

    /// Marks a commit point: everything appended so far is eligible to
    /// become durable, per the fsync policy.
    ///
    /// A commit point with **nothing appended since the previous one is
    /// not a commit point**: it returns at once under every policy — no
    /// fsync of an unchanged file under `Always`, no window opened under
    /// `Window`, no step toward `EveryN`'s nth point, nothing counted
    /// into the next `group_commit_size` sample. Callers mark a point
    /// after every burst of work whether or not the burst logged
    /// anything (the engine's reads, heartbeats and begin replies log
    /// nothing), so the cost and the wait must follow the bytes, not
    /// the calls.
    pub fn commit_point(&mut self) -> std::io::Result<()> {
        if !std::mem::take(&mut self.appended) {
            return Ok(());
        }
        self.points_since_sync += 1;
        match self.policy {
            FsyncPolicy::Always => self.flush(true),
            FsyncPolicy::EveryN(n) => {
                self.points += 1;
                if self.points >= n.max(1) {
                    self.points = 0;
                    self.flush(true)
                } else if self.buf.len() > BUFFER_CAP {
                    // Same memory backstop as `Off`: huge commit points
                    // must not pile up in user space waiting for the
                    // nth — hand them to the OS unsynced.
                    self.flush(false)
                } else {
                    Ok(())
                }
            }
            FsyncPolicy::Window { max_bytes, .. } => {
                // Bytes reach the OS at every commit point; only the
                // fsync is deferred.
                self.flush(false)?;
                if self.written_len - self.synced_len >= max_bytes as u64 {
                    self.flush(true)
                } else {
                    if self.window_since.is_none() {
                        self.window_since = Some(Instant::now());
                    }
                    Ok(())
                }
            }
            FsyncPolicy::Off => {
                if self.buf.len() > BUFFER_CAP {
                    self.flush(false)
                } else {
                    Ok(())
                }
            }
        }
    }

    /// When the open group-commit window must be closed with
    /// [`Wal::sync_now`] (only under [`FsyncPolicy::Window`]). `Some`
    /// exactly while bytes written at a commit point await their fsync;
    /// `None` when everything committed so far is synced.
    pub fn sync_deadline(&self) -> Option<Instant> {
        match self.policy {
            FsyncPolicy::Window { max_delay, .. } => {
                self.window_since.map(|since| since + max_delay)
            }
            _ => None,
        }
    }

    /// Forces an fsync of everything written so far, closing any open
    /// group-commit window. The policy is unchanged; this is the
    /// deadline edge of [`FsyncPolicy::Window`].
    pub fn sync_now(&mut self) -> std::io::Result<()> {
        self.flush(true)
    }

    /// Writes the buffer to the OS; `sync` additionally fsyncs.
    fn flush(&mut self, sync: bool) -> std::io::Result<()> {
        let start = self.fsync_micros.is_some().then(std::time::Instant::now);
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.written_len += self.buf.len() as u64;
            self.buf.clear();
        }
        if sync {
            self.file.sync_data()?;
            self.synced_len = self.file.stream_position()?;
            self.window_since = None;
            if let (Some(h), Some(t)) = (&self.fsync_micros, start) {
                h.record(t.elapsed().as_micros() as u64);
            }
            if self.points_since_sync > 0 {
                if let Some(h) = &self.group_commit_size {
                    h.record(self.points_since_sync);
                }
                self.points_since_sync = 0;
            }
        }
        Ok(())
    }

    /// Flushes and fsyncs everything buffered, regardless of policy.
    /// A sealed log loses nothing; this is the graceful-stop path.
    pub fn seal(&mut self) -> std::io::Result<()> {
        // Flush first: if the sync fails, `points` still reflects the
        // pending commit points so a retried seal (or a later EveryN
        // commit point) does not silently stretch the group.
        self.flush(true)?;
        self.points = 0;
        self.appended = false;
        Ok(())
    }

    /// Bytes known durable (fsynced). What an abrupt kill preserves.
    pub fn synced_len(&self) -> u64 {
        self.synced_len
    }

    /// Bytes handed to the OS but not yet fsynced — acknowledged under
    /// `EveryN`, held-unacknowledged under `Window`; either way lost to
    /// a power cut (though not to a mere process kill).
    pub fn unsynced_len(&self) -> u64 {
        self.written_len - self.synced_len
    }

    /// Bytes sitting in the user-space buffer — lost on an abrupt kill.
    pub fn buffered_len(&self) -> usize {
        self.buf.len()
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Outcome of scanning a log file: the valid-prefix records and where
/// the prefix ends.
pub struct RecoveredLog {
    /// Payloads of every valid record, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte offset at which validity ended (`file length` iff the log
    /// is wholly intact).
    pub valid_len: u64,
    /// True if bytes past `valid_len` existed (torn tail / corruption).
    pub torn: bool,
}

/// Reads every valid record from the file at `path`. **Total**: any
/// corruption — truncated header, truncated payload, length above
/// [`MAX_RECORD_LEN`], CRC mismatch, trailing garbage — terminates the
/// scan at the last valid record instead of failing. A missing file
/// reads as an empty log.
pub fn read_records(path: impl AsRef<Path>) -> std::io::Result<RecoveredLog> {
    let mut file = match File::open(path.as_ref()) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(RecoveredLog { records: Vec::new(), valid_len: 0, torn: false })
        }
        Err(e) => return Err(e),
    };
    let file_len = file.metadata()?.len();
    let mut records = Vec::new();
    let mut offset = 0u64;
    let mut header = [0u8; RECORD_HEADER_LEN];
    loop {
        if offset + RECORD_HEADER_LEN as u64 > file_len {
            break;
        }
        file.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
        // Oversized length ⇒ reject before allocating or reading the
        // payload (shared guard with the frame decoder).
        if len > MAX_RECORD_LEN {
            break;
        }
        if offset + (RECORD_HEADER_LEN + len) as u64 > file_len {
            break;
        }
        let mut payload = vec![0u8; len];
        file.read_exact(&mut payload)?;
        if crc32(&payload) != crc {
            break;
        }
        offset += (RECORD_HEADER_LEN + len) as u64;
        records.push(payload);
    }
    Ok(RecoveredLog { records, valid_len: offset, torn: offset != file_len })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("wren-wal-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_seal_read_round_trip() {
        let path = tmp("round-trip");
        let mut wal = Wal::create(&path, FsyncPolicy::Off).unwrap();
        wal.append(b"alpha");
        wal.append(b"");
        wal.append(&[7u8; 1000]);
        wal.commit_point().unwrap();
        wal.seal().unwrap();
        let log = read_records(&path).unwrap();
        assert!(!log.torn);
        assert_eq!(log.records.len(), 3);
        assert_eq!(log.records[0], b"alpha");
        assert_eq!(log.records[1], b"");
        assert_eq!(log.records[2], vec![7u8; 1000]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unsealed_buffer_is_lost_under_off() {
        let path = tmp("lost-buffer");
        let mut wal = Wal::create(&path, FsyncPolicy::Off).unwrap();
        wal.append(b"volatile");
        wal.commit_point().unwrap();
        drop(wal); // abrupt kill: no seal
        let log = read_records(&path).unwrap();
        assert!(log.records.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn always_policy_survives_drop() {
        let path = tmp("always");
        let mut wal = Wal::create(&path, FsyncPolicy::Always).unwrap();
        wal.append(b"durable");
        wal.commit_point().unwrap();
        assert_eq!(wal.buffered_len(), 0);
        drop(wal);
        let log = read_records(&path).unwrap();
        assert_eq!(log.records, vec![b"durable".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_n_groups_commits() {
        let path = tmp("every-n");
        let mut wal = Wal::create(&path, FsyncPolicy::EveryN(3)).unwrap();
        for i in 0..5u8 {
            wal.append(&[i]);
            wal.commit_point().unwrap();
        }
        drop(wal); // points 0..2 flushed at the 3rd commit point; 3..4 lost
        let log = read_records(&path).unwrap();
        assert_eq!(log.records.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn window_syncs_on_byte_threshold() {
        let path = tmp("window-bytes");
        let policy = FsyncPolicy::Window {
            max_delay: Duration::from_secs(3600),
            max_bytes: 64,
        };
        let mut wal = Wal::create(&path, policy).unwrap();
        let hist = wren_obs::Histogram::default();
        wal.instrument(
            wren_obs::Histogram::default(),
            wren_obs::Histogram::default(),
            hist.clone(),
        );
        // 16-byte payload + 8-byte header = 24 bytes per commit point.
        wal.append(&[1u8; 16]);
        wal.commit_point().unwrap();
        assert_eq!(wal.synced_len(), 0, "first point opens a window");
        assert_eq!(wal.unsynced_len(), 24);
        assert!(wal.sync_deadline().is_some());

        wal.append(&[2u8; 16]);
        wal.commit_point().unwrap();
        assert_eq!(wal.unsynced_len(), 48, "still under max_bytes");

        wal.append(&[3u8; 16]);
        wal.commit_point().unwrap();
        // 72 >= 64: the byte edge forces the fsync.
        assert_eq!(wal.unsynced_len(), 0);
        assert_eq!(wal.synced_len(), 72);
        assert!(wal.sync_deadline().is_none(), "window closed");
        let snap = hist.snapshot();
        assert_eq!(snap.count, 1, "one group commit");
        assert_eq!(snap.sum, 3, "covering three commit points");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn window_deadline_closed_by_sync_now() {
        let path = tmp("window-deadline");
        let policy = FsyncPolicy::Window {
            max_delay: Duration::from_millis(5),
            max_bytes: usize::MAX,
        };
        let mut wal = Wal::create(&path, policy).unwrap();
        wal.append(b"held");
        wal.commit_point().unwrap();
        let deadline = wal.sync_deadline().expect("open window");
        assert!(deadline <= Instant::now() + Duration::from_millis(5));
        wal.sync_now().unwrap();
        assert!(wal.sync_deadline().is_none());
        assert_eq!(wal.unsynced_len(), 0);
        let log = read_records(&path).unwrap();
        assert_eq!(log.records, vec![b"held".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    /// A log with all three instruments attached; returns the fsync and
    /// group-size histograms.
    fn instrumented(
        name: &str,
        policy: FsyncPolicy,
    ) -> (PathBuf, Wal, wren_obs::Histogram, wren_obs::Histogram) {
        let path = tmp(name);
        let mut wal = Wal::create(&path, policy).unwrap();
        let (fsyncs, groups) = (
            wren_obs::Histogram::default(),
            wren_obs::Histogram::default(),
        );
        wal.instrument(
            fsyncs.clone(),
            wren_obs::Histogram::default(),
            groups.clone(),
        );
        (path, wal, fsyncs, groups)
    }

    #[test]
    fn always_skips_fsync_when_nothing_appended() {
        let (path, mut wal, fsyncs, groups) = instrumented("always-idle", FsyncPolicy::Always);
        wal.commit_point().unwrap();
        assert_eq!(fsyncs.count(), 0, "an empty log has nothing to fsync");
        wal.append(b"x");
        wal.commit_point().unwrap();
        assert_eq!(fsyncs.count(), 1);
        for _ in 0..5 {
            wal.commit_point().unwrap();
        }
        assert_eq!(
            fsyncs.count(),
            1,
            "idle commit points must not fsync an unchanged file"
        );
        assert_eq!(groups.count(), 1);
        assert_eq!(wal.synced_len(), 9);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn window_not_opened_by_empty_commit_point() {
        let policy = FsyncPolicy::Window {
            max_delay: Duration::from_millis(5),
            max_bytes: usize::MAX,
        };
        let (path, mut wal, fsyncs, groups) = instrumented("window-idle", policy);
        wal.commit_point().unwrap();
        assert!(
            wal.sync_deadline().is_none(),
            "nothing unsynced: no window, no deadline"
        );
        wal.append(b"held");
        wal.commit_point().unwrap();
        let deadline = wal.sync_deadline().expect("bytes opened a window");
        // Empty points neither move the open window's deadline nor join
        // its group.
        wal.commit_point().unwrap();
        assert_eq!(wal.sync_deadline(), Some(deadline));
        wal.sync_now().unwrap();
        assert!(wal.sync_deadline().is_none());
        wal.commit_point().unwrap();
        assert!(
            wal.sync_deadline().is_none(),
            "synced log: an empty point opens nothing"
        );
        assert_eq!(fsyncs.count(), 1);
        let snap = groups.snapshot();
        assert_eq!(
            (snap.count, snap.sum),
            (1, 1),
            "one fsync covering the one real point"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_points_do_not_count_toward_every_n_or_group_size() {
        let (path, mut wal, fsyncs, groups) = instrumented("every-n-idle", FsyncPolicy::EveryN(3));
        for i in 0..3u8 {
            wal.append(&[i]);
            wal.commit_point().unwrap();
            // Two idle points after each real one: under the old
            // counting the group would have closed after the first
            // record.
            wal.commit_point().unwrap();
            wal.commit_point().unwrap();
            assert_eq!(
                fsyncs.count(),
                u64::from(i == 2),
                "only the 3rd real point syncs"
            );
        }
        assert_eq!(wal.synced_len(), 27);
        let snap = groups.snapshot();
        assert_eq!(
            (snap.count, snap.sum),
            (1, 3),
            "the group is the three points with bytes"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn group_commit_size_recorded_under_every_n() {
        let path = tmp("group-size");
        let mut wal = Wal::create(&path, FsyncPolicy::EveryN(3)).unwrap();
        let hist = wren_obs::Histogram::default();
        wal.instrument(
            wren_obs::Histogram::default(),
            wren_obs::Histogram::default(),
            hist.clone(),
        );
        for i in 0..5u8 {
            wal.append(&[i]);
            wal.commit_point().unwrap();
        }
        // Points 0..2 grouped into the 3rd-point fsync; 3..4 settle at
        // the seal.
        wal.seal().unwrap();
        let snap = hist.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum, 5);
        assert_eq!(snap.max, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_n_spills_oversized_buffer_without_sync() {
        let path = tmp("every-n-spill");
        let mut wal = Wal::create(&path, FsyncPolicy::EveryN(1_000_000)).unwrap();
        // One commit point far past BUFFER_CAP must not sit in user
        // space waiting for the millionth point.
        wal.append(&vec![0u8; BUFFER_CAP + 1]);
        wal.commit_point().unwrap();
        wal.append(b"tiny");
        wal.commit_point().unwrap();
        assert_eq!(wal.buffered_len(), 12, "big record spilled to the OS");
        assert_eq!(wal.synced_len(), 0, "spill is a write, not an fsync");
        assert!(wal.unsynced_len() > BUFFER_CAP as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_truncated_on_reopen() {
        let path = tmp("torn");
        let mut wal = Wal::create(&path, FsyncPolicy::Always).unwrap();
        wal.append(b"keep-me");
        wal.commit_point().unwrap();
        drop(wal);
        // Simulate a torn append: half a header.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xAB, 0xCD, 0xEF]).unwrap();
        drop(f);

        let (mut wal, recovered) = Wal::open_for_append(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(recovered, vec![b"keep-me".to_vec()]);
        wal.append(b"and-me");
        wal.commit_point().unwrap();
        drop(wal);
        let log = read_records(&path).unwrap();
        assert!(!log.torn);
        assert_eq!(log.records, vec![b"keep-me".to_vec(), b"and-me".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_length_rejected_before_buffering() {
        let path = tmp("oversize");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes()); // absurd len
        bytes.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let log = read_records(&path).unwrap();
        assert!(log.records.is_empty());
        assert!(log.torn);
        assert_eq!(log.valid_len, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_reads_empty() {
        let log = read_records(tmp("never-created")).unwrap();
        assert!(log.records.is_empty());
        assert!(!log.torn);
    }
}
