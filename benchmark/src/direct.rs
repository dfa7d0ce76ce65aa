//! Direct calls into what the replay cannot reach from outside: the
//! concurrent store under a server, the WAL under the durability log,
//! a framed echo through `wren_net::Reactor`, and a park/wake ping-pong
//! over the vendored crossbeam channel (what one engine hand-off costs).
//!
//! The echo and the ping-pong are measured twice, with the two sides
//! pinned to **different** CPUs and to the **same** CPU. Left to the
//! scheduler they are bimodal — 1 µs or 20 µs per hand-off on this VM,
//! whichever placement the run happens to get — and a wake-up that
//! crosses vCPUs is what the live cluster, with a dozen threads over two
//! vCPUs, pays most of the time.

use crate::stats::median;
use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;
use wren_clock::Timestamp;
use wren_core::{FsyncPolicy, WrenServer};
use wren_net::{ConnHandle, FramedReader, Reactor, ReactorHandler};
use wren_protocol::{DcId, Key, TxId, WrenVersion};
use wren_storage::{SnapshotBound, Wal};
use wren_workload::Zipfian;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// glibc's `cpu_set_t`: 1024 CPUs.
type CpuSet = [u64; 16];

/// The CPUs the calling thread may run on.
fn allowed_cpus() -> CpuSet {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is valid for writes of its own size for the whole
    // call; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc != 0 {
        set = [0; 16];
    }
    set
}

/// Restricts the calling thread — and threads it spawns from now on —
/// to `set`. An empty or refused set leaves the affinity as it was.
fn run_on(set: &CpuSet) {
    // SAFETY: `set` is valid for reads of its own size for the whole
    // call; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
}

fn only(cpu: usize) -> CpuSet {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    set
}

/// The first two CPUs of `set` (the same one twice when it has one).
fn two_cpus(set: &CpuSet) -> (usize, usize) {
    let mut cpus = (0..1024).filter(|c| set[c / 64] >> (c % 64) & 1 == 1);
    let first = cpus.next().unwrap_or(0);
    (first, cpus.next().unwrap_or(first))
}

/// A cost measured with its two sides on different CPUs and on one.
#[derive(Debug, Clone, Copy, Default)]
pub struct Placed {
    pub cross_cpu_us: f64,
    pub same_cpu_us: f64,
}

/// Runs `measure(near, far)` twice — `far` another CPU, then the same
/// one — with the calling thread on `near`, and restores its affinity.
fn placed<E>(mut measure: impl FnMut(&CpuSet, &CpuSet) -> Result<f64, E>) -> Result<Placed, E> {
    let before = allowed_cpus();
    let (a, b) = two_cpus(&before);
    let cross = measure(&only(a), &only(b));
    let same = measure(&only(a), &only(a));
    run_on(&before);
    Ok(Placed {
        cross_cpu_us: cross?,
        same_cpu_us: same?,
    })
}

/// Operations timed per storage measurement.
const STORE_OPS: usize = 100_000;
/// Versions per `apply_batch` call (one replication batch).
const BATCH: usize = 16;
/// Round trips timed per echo / ping-pong measurement.
const ROUND_TRIPS: usize = 10_000;
/// Appends and syncs timed on the WAL.
const WAL_OPS: usize = 200;

#[derive(Debug, Clone, Copy, Default)]
pub struct StorageCosts {
    pub latest_visible_ns: f64,
    pub insert_ns: f64,
    pub apply_batch_ns_per_version: f64,
}

/// Reads, inserts and batch applies on the store of a server the replay
/// has run on: the workload's key count and the chain depth it leaves.
/// Keys are drawn with the workload's skew.
pub fn storage(server: &WrenServer, keys: &[Key], theta: f64, seed: u64) -> StorageCosts {
    let store = server.store();
    let zipf = Zipfian::new(keys.len() as u64, theta);
    let mut rng = SmallRng::seed_from_u64(seed);
    let draws: Vec<Key> = (0..STORE_OPS)
        .map(|_| keys[zipf.sample(&mut rng) as usize])
        .collect();
    let (lst, rst) = store.stable();
    let bound = SnapshotBound::bist(server.id().dc.0, lst, rst);

    let started = Instant::now();
    for key in &draws {
        black_box(store.latest_visible(key, &bound));
    }
    let latest_visible_ns = started.elapsed().as_nanos() as f64 / STORE_OPS as f64;

    // New versions above everything the replay wrote.
    let base = server.version_clock().physical_micros() + 1_000_000;
    let version = |i: usize| WrenVersion {
        value: Bytes::from_static(b"8-byte-v"),
        ut: Timestamp::from_micros(base + i as u64),
        rdt: Timestamp::ZERO,
        tx: TxId::from_raw(i as u64),
        sr: DcId(server.id().dc.0),
    };
    let started = Instant::now();
    for (i, key) in draws.iter().enumerate() {
        store.insert(*key, version(i));
    }
    let insert_ns = started.elapsed().as_nanos() as f64 / STORE_OPS as f64;

    // Replication's unit: a batch of versions sharing one commit time.
    let mut batches: Vec<Vec<(Key, WrenVersion)>> = draws
        .chunks(BATCH)
        .enumerate()
        .map(|(b, chunk)| chunk.iter().map(|k| (*k, version(STORE_OPS + b))).collect())
        .collect();
    let started = Instant::now();
    for batch in &mut batches {
        black_box(store.apply_batch(batch));
    }
    let apply_batch_ns_per_version = started.elapsed().as_nanos() as f64 / STORE_OPS as f64;
    StorageCosts {
        latest_visible_ns,
        insert_ns,
        apply_batch_ns_per_version,
    }
}

/// `(append µs, sync µs)`: medians of one record append and of one
/// commit point that writes and fsyncs it, on a log in `dir`.
pub fn wal(dir: &Path, record_len: usize) -> std::io::Result<(f64, f64)> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("direct.wal");
    let mut wal = Wal::create(&path, FsyncPolicy::Always)?;
    let record = vec![0xA5u8; record_len.max(1)];
    let (mut append_us, mut sync_us) = (Vec::new(), Vec::new());
    for _ in 0..WAL_OPS {
        let started = Instant::now();
        wal.append(&record);
        append_us.push(started.elapsed().as_nanos() as f64 / 1e3);
        let started = Instant::now();
        wal.commit_point()?;
        sync_us.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(wal);
    std::fs::remove_file(&path)?;
    Ok((median(&append_us), median(&sync_us)))
}

struct Echo;

impl ReactorHandler for Echo {
    type Conn = ();
    fn on_accept(&self, _ctx: u64, _handle: &ConnHandle) -> Option<()> {
        Some(())
    }
    fn on_frame(&self, _conn: &mut (), handle: &ConnHandle, payload: Bytes) -> bool {
        handle.enqueue(frame(&payload))
    }
    fn on_close(&self, _conn: &mut (), _handle: &ConnHandle) {}
}

fn frame(payload: &[u8]) -> Bytes {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    Bytes::from(out)
}

/// Median µs of one framed request/response through a two-thread epoll
/// `Reactor` on loopback — two socket traversals — at `frame_len` bytes.
pub fn net_roundtrip(frame_len: usize) -> std::io::Result<Placed> {
    placed(|near, far| {
        // Reactor threads inherit the affinity of the thread starting them.
        run_on(far);
        let reactor = Reactor::start(2, Echo)?;
        run_on(near);
        let us = echo(&reactor, frame_len);
        reactor.shutdown();
        reactor.join();
        us
    })
}

fn echo(reactor: &Reactor<Echo>, frame_len: usize) -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    reactor.add_listener(listener, 0, 1 << 20)?;
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = FramedReader::new(stream.try_clone()?);
    let request = frame(&vec![0x5Au8; frame_len.saturating_sub(4).max(1)]);
    let mut us = Vec::with_capacity(ROUND_TRIPS);
    for _ in 0..ROUND_TRIPS {
        let started = Instant::now();
        stream.write_all(&request)?;
        reader
            .next_frame()
            .map_err(std::io::Error::other)?
            .ok_or_else(|| std::io::Error::other("echo connection closed"))?;
        us.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(median(&us))
}

/// Median µs of one thread-to-thread hand-off: half a ping-pong between
/// two threads that each block in `recv` on the vendored channel, as an
/// engine's writer thread and its peers do.
pub fn handoff() -> Placed {
    let Ok(measured) = placed(|near, far| {
        let (ping_tx, ping_rx) = crossbeam_channel::unbounded::<u32>();
        let (pong_tx, pong_rx) = crossbeam_channel::unbounded::<u32>();
        let mut us = Vec::with_capacity(ROUND_TRIPS);
        std::thread::scope(|s| {
            run_on(far);
            s.spawn(move || {
                while let Ok(v) = ping_rx.recv() {
                    if pong_tx.send(v).is_err() {
                        break;
                    }
                }
            });
            run_on(near);
            for i in 0..ROUND_TRIPS as u32 {
                let started = Instant::now();
                let _ = ping_tx.send(i);
                let _ = pong_rx.recv();
                us.push(started.elapsed().as_nanos() as f64 / 2e3);
            }
            drop(ping_tx);
        });
        Ok::<_, std::convert::Infallible>(median(&us))
    });
    measured
}
