//! The live run: build the cluster through `wren_rt::ClusterBuilder`,
//! preload it, drive it closed-loop through two `wren_rt::Session`s
//! (one client thread each — the paper's client model, §II-A), and
//! check every answer on the way.
//!
//! Run shape: *setup* (build + preload every key + — durable workloads
//! — stop and recover from the same directory), a warm-up slice, then
//! the measured slices. Before each measured slice, outside slice time:
//! a visibility probe round, a calibration loop and the `/proc`
//! readings.

use crate::gen::{all_keys, TxStream, MARKER_KEY};
use crate::procfs;
use crate::spec::WorkloadDef;
use crate::stats::percentile_us;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use wren_obs::MetricsSnapshot;
use wren_protocol::Key;
use wren_rt::{Cluster, RtError, Session};
use wren_workload::{decode_value, Workload};

/// Marker client ids of values no workload client wrote.
const PRELOAD_CLIENT: u32 = u32::MAX;
const PROBE_CLIENT: u32 = u32::MAX - 1;

/// Keys per preload transaction: large write sets, far inside the
/// transport's request ceiling and the codec's `u16` collection cap.
const PRELOAD_CHUNK: usize = 5_000;
/// Keys per read-back call (the TCP transport caps one read at 512).
const READBACK_CHUNK: usize = 256;
/// Failed operations after which the clients stop issuing load: every
/// failure costs a session timeout, and the run must end in bounded time.
const MAX_FAILURES: u64 = 10;
/// See [`LivePlan::setups`].
const SETUP_BUDGET: f64 = 1.0;
/// How long a probe or a setup barrier may wait for visibility.
const VISIBILITY_TIMEOUT: Duration = Duration::from_secs(5);

/// The shape of one live run.
#[derive(Debug, Clone, Copy)]
pub struct LivePlan {
    pub slices: usize,
    pub slice_len: Duration,
    pub warmup: Duration,
    /// Setups timed per run, `(at least, at most)`; the last one's
    /// cluster carries the load. Beyond the minimum, setups repeat
    /// while they sum to less than [`SETUP_BUDGET`] seconds, so that the
    /// median of a 25 ms setup is as steady as that of a 1 s one.
    pub setups: (usize, usize),
    pub probes_per_round: usize,
    pub calib: Duration,
    /// Record one span per `Session::begin/read/commit` on odd measured
    /// slices; even slices run bare, so the two can be compared.
    pub spans: bool,
}

impl LivePlan {
    /// Whether measured slice `s` records session spans.
    fn spans_on(&self, s: usize) -> bool {
        self.spans && s % 2 == 1
    }
}

/// One `Session` call of a traced slice, in ns since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct OpSpan {
    pub client: u8,
    /// 0 = begin, 1 = read, 2 = commit.
    pub op: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What one measured slice showed.
#[derive(Debug, Clone, Default)]
pub struct SliceStats {
    pub tx_per_s: f64,
    pub ro_p50_us: f64,
    pub ro_p95_us: f64,
    pub rw_p50_us: f64,
    pub rw_p95_us: f64,
    pub cpu_us_per_tx: f64,
    pub calib_mops: f64,
    pub steal_pct: f64,
    pub n_ro: usize,
    pub n_rw: usize,
    pub spans_on: bool,
}

#[derive(Debug, Default)]
pub struct Checks {
    pub count: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.count += 1;
        if !ok && self.failures.len() < 20 {
            self.failures.push(what());
        }
    }

    fn absorb(&mut self, other: Checks) {
        self.count += other.count;
        self.failures.extend(other.failures);
    }
}

pub struct LiveOut {
    /// Wall time of each timed setup.
    pub setup_s: Vec<f64>,
    /// The recover-from-directory part of each setup (durable only).
    pub recover_s: Vec<f64>,
    pub slices: Vec<SliceStats>,
    /// Every measured read-only / read-write latency, ascending (ns).
    pub ro_ns: Vec<u64>,
    pub rw_ns: Vec<u64>,
    /// Whole-run committed tx / summed slice time.
    pub pooled_tx_per_s: f64,
    /// One entry per probe (µs from the writer's ack to the reader
    /// seeing the value).
    pub visibility_us: Vec<f64>,
    pub peak_rss_mib: f64,
    /// `Cluster::metrics()` movement summed over the measured slices.
    pub counts: MetricsSnapshot,
    pub ctx_switches: u64,
    pub io_syscalls: u64,
    pub threads: u64,
    /// Transactions committed inside measured slices.
    pub committed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    pub backend: String,
    pub wal_fs: String,
    pub stream_hashes: [u64; 2],
    pub op_spans: Vec<OpSpan>,
}

/// Where durable workloads log: inside the checkout (the benchmark may
/// write nowhere else), which is a real file system, not tmpfs.
pub fn wal_dir(out_dir: &Path, def: &WorkloadDef) -> PathBuf {
    out_dir.join(format!("wal-{}-{}", def.name, std::process::id()))
}

/// Polls `key` through `session` until a read-only transaction returns
/// `want`; the time of the read that saw it.
fn await_value(session: &mut Session, key: Key, want: (u32, u32)) -> Result<Instant, String> {
    let deadline = Instant::now() + VISIBILITY_TIMEOUT;
    loop {
        session.begin().map_err(|e| format!("poll begin: {e}"))?;
        let got = session
            .read_one(key)
            .map_err(|e| format!("poll read: {e}"))?;
        session.commit().map_err(|e| format!("poll commit: {e}"))?;
        let seen = Instant::now();
        if got.as_ref().and_then(decode_value) == Some(want) {
            return Ok(seen);
        }
        if seen > deadline {
            return Err(format!(
                "{want:?} on {key:?} not visible after {VISIBILITY_TIMEOUT:?}"
            ));
        }
    }
}

/// Blocks until the preload is readable from the first and the last DC.
fn await_preload(cluster: &Cluster) -> Result<(), String> {
    let mut dcs = vec![0, cluster.n_dcs() - 1];
    dcs.dedup();
    for dc in dcs {
        // The marker is the last key of the last preload transaction:
        // once it is visible, so is everything the same session
        // committed before it (causal snapshots).
        await_value(&mut cluster.session(dc), MARKER_KEY, (PRELOAD_CLIENT, 0))?;
    }
    Ok(())
}

/// One timed setup: build, preload every key once through a session,
/// and for durable workloads stop and recover from the same directory.
/// Returns the running cluster, the setup time and its recovery part.
fn setup(
    def: &WorkloadDef,
    keys: &[Key],
    values: &Workload,
    dir: &Path,
) -> Result<(Cluster, f64, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let started = Instant::now();
    let mut cluster = def.builder(dir).build();
    {
        let mut session = cluster.session(0);
        let value = values.make_value(PRELOAD_CLIENT, 0);
        for chunk in keys.chunks(PRELOAD_CHUNK) {
            session.begin().map_err(|e| format!("preload begin: {e}"))?;
            session.write_many(chunk.iter().map(|k| (*k, value.clone())));
            session
                .commit()
                .map_err(|e| format!("preload commit: {e}"))?;
        }
    }
    await_preload(&cluster)?;
    let mut recover_s = 0.0;
    if def.wal.is_some() {
        cluster.stop();
        let reopened = Instant::now();
        cluster = def.builder(dir).build();
        await_preload(&cluster)?;
        recover_s = reopened.elapsed().as_secs_f64();
    }
    Ok((cluster, started.elapsed().as_secs_f64(), recover_s))
}

/// What the two client threads share.
struct Shared {
    barrier: Barrier,
    epoch: Instant,
    /// Client 0's ack stamp of the probe in flight (ns since `epoch`).
    probe_ack_ns: AtomicU64,
    /// Set after [`MAX_FAILURES`]: both clients stop issuing load but
    /// keep meeting at the barriers.
    abort: AtomicBool,
}

#[derive(Default)]
struct ClientSlice {
    ro_ns: Vec<u64>,
    rw_ns: Vec<u64>,
    elapsed: Duration,
}

/// What client 0 reads around each measured slice.
struct LeaderSlice {
    cpu_ns: u64,
    calib_mops: f64,
    steal_pct: f64,
    ctx_switches: u64,
    io_syscalls: u64,
    threads: u64,
    counts: MetricsSnapshot,
}

struct Client<'a> {
    id: u32,
    session: Session,
    stream: &'a TxStream,
    values: &'a Workload,
    shared: &'a Shared,
    /// Next stream position.
    pos: usize,
    /// Sequence number of this client's last write.
    seq: u32,
    /// This client's latest acknowledged `seq` per key it wrote.
    latest: HashMap<Key, u32>,
    attempted: u64,
    failed: u64,
    checks: Checks,
    op_spans: Vec<OpSpan>,
}

impl Client<'_> {
    fn now_ns(&self) -> u64 {
        self.shared.epoch.elapsed().as_nanos() as u64
    }

    fn fail(&mut self, what: &str, e: RtError) {
        self.failed += 1;
        self.checks
            .check(false, || format!("client {} {what}: {e}", self.id));
        if self.failed >= MAX_FAILURES {
            self.shared.abort.store(true, Ordering::Relaxed);
        }
    }

    /// One transaction of the stream. `Some((latency, read_write, end))`
    /// when every operation succeeded; a transaction whose `begin`,
    /// `read` or `commit` errs is a failed operation and yields no
    /// latency sample.
    fn run_tx(&mut self, spans: bool) -> Option<(Duration, bool, Instant)> {
        let stream = self.stream;
        let (reads, writes) = stream.get(self.pos);
        let tx = self.pos;
        self.pos += 1;
        self.attempted += 1;
        let started = Instant::now();
        let t0 = if spans { self.now_ns() } else { 0 };
        if let Err(e) = self.session.begin() {
            self.fail("begin", e);
            return None;
        }
        let t1 = if spans { self.now_ns() } else { 0 };
        let got = match self.session.read(reads) {
            Ok(got) => got,
            Err(e) => {
                self.fail("read", e);
                return None;
            }
        };
        let t2 = if spans { self.now_ns() } else { 0 };
        if !writes.is_empty() {
            self.seq += 1;
            let value = self.values.make_value(self.id, self.seq);
            self.session
                .write_many(writes.iter().map(|k| (*k, value.clone())));
        }
        if let Err(e) = self.session.commit() {
            self.fail("commit", e);
            return None;
        }
        let ended = Instant::now();
        if spans {
            let t3 = self.now_ns();
            let client = self.id as u8;
            self.op_spans.extend([
                OpSpan {
                    client,
                    op: 0,
                    start_ns: t0,
                    end_ns: t1,
                },
                OpSpan {
                    client,
                    op: 1,
                    start_ns: t1,
                    end_ns: t2,
                },
                OpSpan {
                    client,
                    op: 2,
                    start_ns: t2,
                    end_ns: t3,
                },
            ]);
        }

        // Checks, outside the latency: nothing reads None after the
        // preload, and a value this client wrote is its latest write.
        self.checks.check(got.len() == reads.len(), || {
            format!(
                "client {} tx {tx}: {} of {} keys answered",
                self.id,
                got.len(),
                reads.len()
            )
        });
        for (key, value) in &got {
            let marker = value.as_ref().and_then(decode_value);
            let ok = match marker {
                None => false,
                Some((c, seq)) if c == self.id => self.latest.get(key) == Some(&seq),
                Some(_) => true,
            };
            self.checks.check(ok, || {
                format!(
                    "client {} tx {tx}: {key:?} read {marker:?}, own latest {:?}",
                    self.id,
                    self.latest.get(key)
                )
            });
        }
        for key in writes {
            self.latest.insert(*key, self.seq);
        }
        Some((ended - started, !writes.is_empty(), ended))
    }

    fn run_slice(&mut self, len: Duration, spans: bool) -> ClientSlice {
        // Room for 32k tx/s per class, so the timed loop never reallocates.
        let mut out = ClientSlice {
            ro_ns: Vec::with_capacity(1 << 16),
            rw_ns: Vec::with_capacity(1 << 16),
            elapsed: Duration::ZERO,
        };
        let started = Instant::now();
        while !self.shared.abort.load(Ordering::Relaxed) {
            let ended = match self.run_tx(spans) {
                Some((latency, rw, ended)) => {
                    let ns = latency.as_nanos() as u64;
                    if rw { &mut out.rw_ns } else { &mut out.ro_ns }.push(ns);
                    ended
                }
                None => Instant::now(),
            };
            out.elapsed = ended - started;
            if out.elapsed >= len {
                break;
            }
        }
        out
    }

    /// Client 0's half of one probe: commit the marker, stamp the ack.
    fn probe_write(&mut self, probe: u32) {
        self.shared.barrier.wait();
        if !self.shared.abort.load(Ordering::Relaxed) {
            self.attempted += 1;
            let wrote = self.session.begin().and_then(|()| {
                self.session
                    .write(MARKER_KEY, self.values.make_value(PROBE_CLIENT, probe));
                self.session.commit()
            });
            self.shared
                .probe_ack_ns
                .store(self.now_ns(), Ordering::Relaxed);
            if let Err(e) = wrote {
                self.fail("probe write", e);
            }
        }
        self.shared.barrier.wait();
    }

    /// Client 1's half: poll read-only transactions until one returns
    /// the probe's value. The barrier after it orders client 0's ack
    /// stamp before the subtraction.
    fn probe_read(&mut self, probe: u32) -> Option<f64> {
        self.shared.barrier.wait();
        let seen = if self.shared.abort.load(Ordering::Relaxed) {
            None
        } else {
            self.attempted += 1;
            match await_value(&mut self.session, MARKER_KEY, (PROBE_CLIENT, probe)) {
                Ok(at) => Some((at - self.shared.epoch).as_nanos() as u64),
                Err(e) => {
                    self.failed += 1;
                    self.checks.check(false, || format!("probe {probe}: {e}"));
                    self.shared.abort.store(true, Ordering::Relaxed);
                    None
                }
            }
        };
        self.shared.barrier.wait();
        let ack = self.shared.probe_ack_ns.load(Ordering::Relaxed);
        seen.map(|at| at.saturating_sub(ack) as f64 / 1e3)
    }
}

struct ClientOut {
    slices: Vec<ClientSlice>,
    leader: Vec<LeaderSlice>,
    visibility_us: Vec<f64>,
    latest: HashMap<Key, u32>,
    attempted: u64,
    failed: u64,
    checks: Checks,
    op_spans: Vec<OpSpan>,
}

/// One client thread's whole run: warm-up, then per measured slice a
/// probe round, the leader's readings, and the slice. Both threads walk
/// the same barrier sequence whatever happens in between.
fn client_thread(mut c: Client<'_>, cluster: &Cluster, plan: &LivePlan) -> ClientOut {
    let shared = c.shared;
    let mut slices = Vec::with_capacity(plan.slices);
    let mut leader = Vec::new();
    let mut visibility_us = Vec::new();

    shared.barrier.wait();
    c.run_slice(plan.warmup, false);
    for s in 0..plan.slices {
        for p in 0..plan.probes_per_round {
            let probe = (s * plan.probes_per_round + p + 1) as u32;
            if c.id == 0 {
                c.probe_write(probe);
            } else {
                visibility_us.extend(c.probe_read(probe));
            }
        }
        shared.barrier.wait();
        let before = (c.id == 0).then(|| {
            let calib_mops = procfs::calibrate(plan.calib);
            (
                calib_mops,
                procfs::steal_jiffies(),
                procfs::io_syscalls(),
                cluster.metrics(),
                procfs::task_totals(),
            )
        });
        shared.barrier.wait();
        let slice = c.run_slice(plan.slice_len, plan.spans_on(s));
        shared.barrier.wait();
        if let Some((calib_mops, steal, io, counts, tasks)) = before {
            let after = procfs::task_totals();
            leader.push(LeaderSlice {
                cpu_ns: after.cpu_ns.saturating_sub(tasks.cpu_ns),
                calib_mops,
                steal_pct: procfs::steal_pct(steal, procfs::steal_jiffies()),
                ctx_switches: after
                    .voluntary_switches
                    .saturating_sub(tasks.voluntary_switches),
                io_syscalls: procfs::io_syscalls().saturating_sub(io),
                threads: after.threads,
                counts: cluster.metrics().diff(&counts),
            });
        }
        slices.push(slice);
    }
    ClientOut {
        slices,
        leader,
        visibility_us,
        latest: c.latest,
        attempted: c.attempted,
        failed: c.failed,
        checks: c.checks,
        op_spans: c.op_spans,
    }
}

/// Durable workloads, after the measured window: reopen from the same
/// directory and read back each client's last acknowledged write of
/// every key it touched. A key both clients wrote holds the last write
/// of whichever committed later.
///
/// Sessions read at the stable snapshot, which recovery restores as it
/// was logged — a few ticks behind the last commits — and which catches
/// up over the first gossip rounds, so a chunk is re-read until it
/// matches or [`VISIBILITY_TIMEOUT`] passes. (A sentinel write cannot
/// serve as the barrier: the reopened cluster's physical clock restarts
/// at zero under a recovered hybrid clock, so new writes stay invisible
/// for as long as the previous incarnation ran.)
fn verify_durable(
    def: &WorkloadDef,
    dir: &Path,
    latest: &[HashMap<Key, u32>; 2],
    checks: &mut Checks,
) -> Result<(), String> {
    let cluster = def.builder(dir).build();
    let mut session = cluster.session(0);
    let mut keys: Vec<Key> = latest.iter().flat_map(|m| m.keys().copied()).collect();
    keys.sort_unstable();
    keys.dedup();
    let acknowledged = |key: &Key, value: &Option<wren_protocol::Value>| {
        value
            .as_ref()
            .and_then(decode_value)
            .is_some_and(|(c, seq)| {
                latest
                    .get(c as usize)
                    .is_some_and(|m| m.get(key) == Some(&seq))
            })
    };
    let deadline = Instant::now() + VISIBILITY_TIMEOUT;
    for chunk in keys.chunks(READBACK_CHUNK) {
        loop {
            session
                .begin()
                .map_err(|e| format!("read-back begin: {e}"))?;
            let got = session
                .read(chunk)
                .map_err(|e| format!("read-back read: {e}"))?;
            session
                .commit()
                .map_err(|e| format!("read-back commit: {e}"))?;
            if got.iter().all(|(k, v)| acknowledged(k, v)) || Instant::now() > deadline {
                checks.check(got.len() == chunk.len(), || "read-back lost keys".into());
                for (key, value) in &got {
                    checks.check(acknowledged(key, value), || {
                        format!(
                            "after reopen {key:?} holds {:?}; acknowledged {:?} / {:?}",
                            value.as_ref().and_then(decode_value),
                            latest[0].get(key),
                            latest[1].get(key)
                        )
                    });
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    drop(session);
    cluster.stop();
    Ok(())
}

/// Runs `def` live under `plan` on the two clients' pre-generated streams.
pub fn run(
    def: &WorkloadDef,
    streams: &[TxStream; 2],
    plan: &LivePlan,
    out_dir: &Path,
) -> Result<LiveOut, String> {
    let dir = wal_dir(out_dir, def);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {out_dir:?}: {e}"))?;
    let wal_fs = if def.wal.is_some() {
        procfs::fs_type(out_dir)
    } else {
        "none".into()
    };

    // VmHWM is per process: start this run's peak from here.
    let _ = std::fs::write("/proc/self/clear_refs", "5");

    let keys = all_keys(def);
    let values = def.compile(def.rw);

    let mut setup_s = Vec::new();
    let mut recover_s = Vec::new();
    let mut cluster: Option<Cluster> = None;
    let (at_least, at_most) = plan.setups;
    while setup_s.len() < at_least.max(1)
        || (setup_s.len() < at_most && setup_s.iter().sum::<f64>() < SETUP_BUDGET)
    {
        if let Some(old) = cluster.take() {
            old.stop();
        }
        let (built, took, recovered) = setup(def, &keys, &values, &dir)?;
        setup_s.push(took);
        recover_s.push(recovered);
        cluster = Some(built);
    }
    let cluster = cluster.expect("at least one setup ran");
    // `None` is the channel transport: no event loops to back.
    let backend = cluster
        .tcp_backend()
        .map_or("channel".into(), |b| format!("{b:?}").to_lowercase());

    let shared = Shared {
        barrier: Barrier::new(2),
        epoch: Instant::now(),
        probe_ack_ns: AtomicU64::new(0),
        abort: AtomicBool::new(false),
    };
    let last_dc = cluster.n_dcs() - 1;
    let client = |id: u32, dc: u8| Client {
        id,
        session: cluster.session(dc),
        stream: &streams[id as usize],
        values: &values,
        shared: &shared,
        pos: 0,
        seq: 0,
        latest: HashMap::new(),
        attempted: 0,
        failed: 0,
        checks: Checks::default(),
        op_spans: Vec::new(),
    };
    let (c0, c1) = (client(0, 0), client(1, last_dc));
    // Exactly two client threads; this thread only waits for them.
    let (out0, out1) = std::thread::scope(|s| {
        let h0 = s.spawn(|| client_thread(c0, &cluster, plan));
        let h1 = s.spawn(|| client_thread(c1, &cluster, plan));
        (h0.join(), h1.join())
    });
    let (out0, out1) = match (out0, out1) {
        (Ok(a), Ok(b)) => (a, b),
        _ => return Err("a client thread panicked".into()),
    };
    let peak_rss_mib = procfs::peak_rss_mib();

    let mut checks = Checks::default();
    let end = cluster.metrics();
    checks.check(cluster.tcp_dropped_frames() == 0, || {
        format!("tcp_dropped_frames = {}", cluster.tcp_dropped_frames())
    });
    checks.check(end.counter("session_tx_aborted") == 0, || {
        format!("session_tx_aborted = {}", end.counter("session_tx_aborted"))
    });
    cluster.stop();

    let mut slices = Vec::with_capacity(plan.slices);
    let (mut ro_ns, mut rw_ns) = (Vec::new(), Vec::new());
    let (mut committed, mut slice_time) = (0u64, 0.0);
    let mut counts = MetricsSnapshot::default();
    let (mut ctx_switches, mut io_syscalls, mut threads) = (0, 0, 0);
    for (s, ((a, b), lead)) in out0
        .slices
        .iter()
        .zip(&out1.slices)
        .zip(&out0.leader)
        .enumerate()
    {
        let mut ro: Vec<u64> = a.ro_ns.iter().chain(&b.ro_ns).copied().collect();
        let mut rw: Vec<u64> = a.rw_ns.iter().chain(&b.rw_ns).copied().collect();
        ro.sort_unstable();
        rw.sort_unstable();
        let n = (ro.len() + rw.len()) as u64;
        let per_client = |c: &ClientSlice| {
            (c.ro_ns.len() + c.rw_ns.len()) as f64 / c.elapsed.as_secs_f64().max(1e-9)
        };
        slices.push(SliceStats {
            tx_per_s: per_client(a) + per_client(b),
            ro_p50_us: percentile_us(&ro, 0.5),
            ro_p95_us: percentile_us(&ro, 0.95),
            rw_p50_us: percentile_us(&rw, 0.5),
            rw_p95_us: percentile_us(&rw, 0.95),
            cpu_us_per_tx: lead.cpu_ns as f64 / 1e3 / n.max(1) as f64,
            calib_mops: lead.calib_mops,
            steal_pct: lead.steal_pct,
            n_ro: ro.len(),
            n_rw: rw.len(),
            spans_on: plan.spans_on(s),
        });
        committed += n;
        slice_time += (a.elapsed + b.elapsed).as_secs_f64() / 2.0;
        counts.merge(&lead.counts);
        ctx_switches += lead.ctx_switches;
        io_syscalls += lead.io_syscalls;
        threads = lead.threads;
        ro_ns.extend(ro);
        rw_ns.extend(rw);
    }
    ro_ns.sort_unstable();
    rw_ns.sort_unstable();

    let latest = [out0.latest, out1.latest];
    if def.wal.is_some() {
        verify_durable(def, &dir, &latest, &mut checks)?;
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut op_spans = out0.op_spans;
    op_spans.extend(out1.op_spans);
    checks.absorb(out0.checks);
    checks.absorb(out1.checks);
    checks.check(
        out1.visibility_us.len() == plan.slices * plan.probes_per_round,
        || {
            format!(
                "{} of {} probes completed",
                out1.visibility_us.len(),
                plan.slices * plan.probes_per_round
            )
        },
    );
    Ok(LiveOut {
        setup_s,
        recover_s,
        slices,
        ro_ns,
        rw_ns,
        pooled_tx_per_s: committed as f64 / f64::max(slice_time, 1e-9),
        visibility_us: out1.visibility_us,
        peak_rss_mib,
        counts,
        ctx_switches,
        io_syscalls,
        threads,
        committed,
        attempted: out0.attempted + out1.attempted,
        failed: out0.failed + out1.failed,
        checks,
        backend,
        wal_fs,
        stream_hashes: [streams[0].hash(), streams[1].hash()],
        op_spans,
    })
}
