//! The traced run (`--trace 1`): every per-layer metric.
//!
//! Three sources, all recorded from the benchmark's own files: (a) the
//! live cluster with one span per `Session::begin/read/commit` on every
//! other slice, (b) the single-threaded layer replay, run twice so its
//! counts can be checked to repeat, (c) direct calls into storage, the
//! WAL, the reactor and the channel. Spans stay in memory and go to
//! `out/trace-<workload>.json` at the end.

use crate::direct;
use crate::gen::{all_keys, TxStream};
use crate::live::{LiveOut, OpSpan};
use crate::replay::{self, ReplayOut};
use crate::report::Metric;
use crate::span::{self, Recorder, NONE};
use crate::spec::{Transport, WorkloadDef, ZIPF_THETA};
use crate::stats::{best_quartile, median, Better};
use std::path::Path;
use wren_obs::HistogramSnapshot;

/// Transactions each client replays (a fixed count: replay counts must
/// repeat exactly for a seed).
const REPLAY_TXS: usize = 1_000;
/// Transactions whose spans the trace file keeps in full.
const TRACE_FILE_TXS: u32 = 200;

fn p50(h: Option<&HistogramSnapshot>) -> f64 {
    h.map_or(0.0, |h| h.p50() as f64)
}

fn mean(h: Option<&HistogramSnapshot>) -> f64 {
    h.map_or(0.0, |h| h.mean())
}

/// The live session spans as a recorder: one `session.tx` span per
/// transaction with its three operations as children.
fn session_recorder(ops: &mut [OpSpan]) -> Recorder {
    ops.sort_unstable_by_key(|o| (o.start_ns, o.client));
    let mut rec = Recorder::new();
    let mut open: [Option<(u32, u32)>; 2] = [None; 2]; // per client: (span id, tx ordinal)
    let mut next_tx = 0u32;
    for o in ops.iter() {
        let c = o.client as usize;
        if o.op == 0 {
            rec.push("session.tx", NONE, next_tx, o.start_ns, o.start_ns);
            open[c] = Some((rec.spans.len() as u32 - 1, next_tx));
            next_tx += 1;
        }
        let Some((parent, tx)) = open[c] else {
            continue;
        };
        let name = ["session.begin", "session.read", "session.commit"][o.op as usize];
        rec.push(name, parent, tx, o.start_ns, o.end_ns);
        rec.spans[parent as usize].end_ns = o.end_ns;
    }
    rec
}

/// Median duration in µs of the spans called `name`.
fn span_p50_us(rec: &Recorder, name: &str) -> f64 {
    let Some(id) = rec.names.iter().position(|n| *n == name) else {
        return 0.0;
    };
    let durs: Vec<f64> = rec
        .spans
        .iter()
        .filter(|s| s.name as usize == id)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    median(&durs)
}

/// Summed µs of the spans called `name`, optionally only those that
/// belong to a client transaction.
fn span_sum_us(rec: &Recorder, name: &str, tx_only: bool) -> f64 {
    let Some(id) = rec.names.iter().position(|n| *n == name) else {
        return 0.0;
    };
    rec.spans
        .iter()
        .filter(|s| s.name as usize == id && (!tx_only || s.tx != NONE))
        .map(|s| s.dur_ns() as f64 / 1e3)
        .sum()
}

/// The per-layer metrics that are counts per committed transaction,
/// from `Cluster::metrics()` and `/proc` deltas over the measured
/// slices, and times from the benchmark's session spans.
fn live_metrics(def: &WorkloadDef, live: &LiveOut, sessions: &Recorder) -> Vec<Metric> {
    let c = &live.counts;
    let tx = live.committed.max(1) as f64;
    let per_tx = |v: u64| v as f64 / tx;
    let wal_bytes = c.histogram("wal_append_bytes").map_or(0, |h| h.sum);
    // Key + value bytes the committed read-write transactions wrote.
    let user_bytes = live.rw_ns.len() as f64 * def.rw.writes as f64 * 16.0;
    let calib: Vec<f64> = live.slices.iter().map(|s| s.calib_mops).collect();
    let steal: Vec<f64> = live.slices.iter().map(|s| s.steal_pct).collect();
    vec![
        Metric::new(
            "rt.session.begin_p50_us",
            "us",
            span_p50_us(sessions, "session.begin"),
        ),
        Metric::new(
            "rt.session.read_p50_us",
            "us",
            span_p50_us(sessions, "session.read"),
        ),
        Metric::new(
            "rt.session.commit_p50_us",
            "us",
            span_p50_us(sessions, "session.commit"),
        ),
        Metric::new(
            "rt.fabric.frames_per_tx",
            "count",
            per_tx(c.counter("tcp_frames_in")),
        ),
        Metric::new(
            "rt.fabric.bytes_per_tx",
            "B",
            per_tx(c.counter("tcp_bytes_in")),
        ),
        Metric::new(
            "rt.fabric.outbox_highwater_bytes",
            "B",
            c.gauges.get("tcp_outbox_depth_bytes").copied().unwrap_or(0) as f64,
        ),
        Metric::new(
            "rt.fabric.dropped_frames",
            "count",
            c.counter("tcp_dropped_frames") as f64,
        ),
        Metric::new(
            "net.writev.frames_per_call",
            "count",
            mean(c.histogram("fabric_writev_frames_per_call")),
        ),
        Metric::new(
            "core.slices_per_tx",
            "count",
            per_tx(c.counter("slices_served")),
        ),
        Metric::new(
            "core.keys_read_per_tx",
            "count",
            per_tx(c.counter("keys_read")),
        ),
        Metric::new(
            "core.commit.prepare_p50_us",
            "us",
            p50(c.histogram("commit_prepare_micros")),
        ),
        Metric::new(
            "core.commit.decide_p50_us",
            "us",
            p50(c.histogram("commit_decide_micros")),
        ),
        Metric::new(
            "core.commit.apply_p50_us",
            "us",
            p50(c.histogram("commit_apply_micros")),
        ),
        Metric::new(
            "core.read_slice.p50_us",
            "us",
            p50(c.histogram("read_slice_micros")),
        ),
        Metric::new(
            "core.replication.batch_txs_mean",
            "count",
            mean(c.histogram("replication_batch_txs")),
        ),
        Metric::new(
            "core.replication.lag_p50_us",
            "us",
            p50(c.histogram("replication_lag_micros")),
        ),
        Metric::new(
            "core.visibility.local_p50_us",
            "us",
            p50(c.histogram("visibility_lag_local_micros")),
        ),
        Metric::new(
            "core.visibility.remote_p50_us",
            "us",
            p50(c.histogram("visibility_lag_remote_micros")),
        ),
        Metric::new(
            "wal.fsyncs_per_tx",
            "count",
            per_tx(c.histogram("wal_fsync_micros").map_or(0, |h| h.count)),
        ),
        Metric::new(
            "wal.appends_per_tx",
            "count",
            per_tx(c.histogram("wal_append_bytes").map_or(0, |h| h.count)),
        ),
        Metric::new("wal.bytes_per_tx", "B", per_tx(wal_bytes)),
        Metric::new(
            "wal.bytes_per_user_byte",
            "B/B",
            wal_bytes as f64 / user_bytes.max(1.0),
        ),
        Metric::new(
            "wal.fsync_p50_us",
            "us",
            p50(c.histogram("wal_fsync_micros")),
        ),
        Metric::new(
            "wal.group_commit_size_mean",
            "count",
            mean(c.histogram("wal_group_commit_size")),
        ),
        Metric::new("wal.recover_s", "s", median(&live.recover_s)),
        Metric::new(
            "proc.ctx_switches_per_tx",
            "count",
            per_tx(live.ctx_switches),
        ),
        Metric::new("proc.syscalls_per_tx", "count", per_tx(live.io_syscalls)),
        Metric::new("proc.threads", "count", live.threads as f64),
        Metric::new("machine.calib_mops_p50", "Mops", median(&calib)),
        Metric::new("machine.steal_pct", "%", median(&steal)),
    ]
}

/// What the direct calls measured.
struct Direct {
    storage: direct::StorageCosts,
    wal_append_us: f64,
    wal_sync_us: f64,
    net_roundtrip: direct::Placed,
    handoff: direct::Placed,
}

/// The per-layer metrics of the replay and the direct calls, and the
/// accounting of the live latency against them.
fn layer_metrics(live: &LiveOut, replay: &ReplayOut, d: &Direct) -> Vec<Metric> {
    let rec = &replay.rec;
    let n = replay.counts.txs.max(1) as f64;
    let per_tx = |name: &str| span_sum_us(rec, name, true) / n;
    // Apply and replication are asynchronous work *for* transactions,
    // done in ticks: counted per transaction, not on its path.
    let apply_us = span_sum_us(rec, "core.tick.apply", false);
    let replicate_us = span_sum_us(rec, "core.handle.replicate", false);
    let background_us = span_sum_us(rec, "server.tick", false)
        + span_sum_us(rec, "server.sync", false)
        + rec
            .spans
            .iter()
            .filter(|s| {
                s.parent == NONE && s.tx == NONE && rec.names[s.name as usize] == "server.step"
            })
            .map(|s| s.dur_ns() as f64 / 1e3)
            .sum::<f64>()
        - apply_us
        - replicate_us;

    // Live p50 against service + transport estimate, per class, then
    // averaged (the stream alternates the classes 50:50).
    let ro: Vec<f64> = live.slices.iter().map(|s| s.ro_p50_us).collect();
    let rw: Vec<f64> = live.slices.iter().map(|s| s.rw_p50_us).collect();
    let live_us = [
        best_quartile(&ro, Better::Lower),
        best_quartile(&rw, Better::Lower),
    ];
    let transport = |class: usize| {
        let p = &replay.paths[class];
        p.tcp_hops * d.net_roundtrip.cross_cpu_us / 2.0 + p.handoffs * d.handoff.cross_cpu_us
    };
    let avg = |f: &dyn Fn(usize) -> f64| (f(0) + f(1)) / 2.0;
    let service_us = avg(&|c| replay.paths[c].service_us);
    let transport_us = avg(&transport);
    let live_p50_us = avg(&|c| live_us[c]);

    // Tracing overhead: slices with session spans on against slices
    // with them off, same run.
    let p50_of = |on: bool| {
        let v: Vec<f64> = live
            .slices
            .iter()
            .filter(|s| s.spans_on == on)
            .map(|s| (s.ro_p50_us + s.rw_p50_us) / 2.0)
            .collect();
        median(&v)
    };
    let (off, on) = (p50_of(false), p50_of(true));

    vec![
        Metric::new("protocol.encode_us", "us", per_tx("protocol.encode")),
        Metric::new("protocol.decode_us", "us", per_tx("protocol.decode")),
        Metric::new("core.client_us", "us", per_tx("core.client")),
        Metric::new("core.handle.start_us", "us", per_tx("core.handle.start")),
        Metric::new("core.handle.read_us", "us", per_tx("core.handle.read")),
        Metric::new(
            "core.handle.prepare_us",
            "us",
            per_tx("core.handle.prepare"),
        ),
        Metric::new("core.handle.decide_us", "us", per_tx("core.handle.decide")),
        Metric::new("core.handle.apply_us", "us", apply_us / n),
        Metric::new("core.handle.replicate_us", "us", replicate_us / n),
        Metric::new(
            "core.ticks_us_per_s",
            "us/s",
            background_us / replay.virtual_s.max(1e-9),
        ),
        Metric::new("storage.serve_us", "us", per_tx("storage.serve")),
        Metric::new(
            "storage.latest_visible_ns",
            "ns",
            d.storage.latest_visible_ns,
        ),
        Metric::new("storage.insert_ns", "ns", d.storage.insert_ns),
        Metric::new(
            "storage.apply_batch_ns_per_version",
            "ns",
            d.storage.apply_batch_ns_per_version,
        ),
        Metric::new("wal.commit_point_us", "us", per_tx("wal.commit_point")),
        Metric::new("wal.append_us", "us", d.wal_append_us),
        Metric::new("wal.sync_us", "us", d.wal_sync_us),
        Metric::new("net.roundtrip_us", "us", d.net_roundtrip.cross_cpu_us),
        Metric::new(
            "net.roundtrip_same_cpu_us",
            "us",
            d.net_roundtrip.same_cpu_us,
        ),
        Metric::new("rt.handoff_us", "us", d.handoff.cross_cpu_us),
        Metric::new("rt.handoff_same_cpu_us", "us", d.handoff.same_cpu_us),
        Metric::new(
            "rt.tcp_hops_per_tx",
            "count",
            avg(&|c| replay.paths[c].tcp_hops),
        ),
        Metric::new(
            "rt.handoffs_per_tx",
            "count",
            avg(&|c| replay.paths[c].handoffs),
        ),
        Metric::new("trace.service_us", "us", service_us),
        Metric::new("trace.transport_est_us", "us", transport_us),
        Metric::new(
            "trace.unexplained_us",
            "us",
            live_p50_us - service_us - transport_us,
        ),
        Metric::new(
            "trace.explained_share",
            "ratio",
            (service_us + transport_us) / live_p50_us.max(1e-9),
        ),
        Metric::new(
            "trace.overhead_pct",
            "%",
            100.0 * (on - off) / off.max(1e-9),
        ),
    ]
}

/// Runs the replay and the direct calls beside a finished traced live
/// run, prints what they found, writes the trace file and returns every
/// per-layer metric.
pub fn run(
    def: &WorkloadDef,
    seed: u64,
    streams: &[TxStream; 2],
    live: &mut LiveOut,
    out_dir: &Path,
) -> Result<Vec<Metric>, String> {
    let dir = out_dir.join(format!("replay-{}-{}", def.name, std::process::id()));
    let first = replay::run(def, streams, REPLAY_TXS, &dir).counts;
    let replay = replay::run(def, streams, REPLAY_TXS, &dir);
    let repeats = first == replay.counts;
    live.checks.check(repeats, || {
        format!(
            "replay counts differ between two replays: {first:?} vs {:?}",
            replay.counts
        )
    });

    let server = &replay.servers[0];
    let keys: Vec<_> = all_keys(def)
        .into_iter()
        .filter(|k| k.partition(def.partitions) == server.id().partition)
        .collect();
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
    let wal_record = (replay.counts.wal_bytes / replay.counts.wal_appends.max(1)) as usize;
    let (wal_append_us, wal_sync_us) = match def.wal {
        Some(_) => direct::wal(&dir, wal_record).map_err(|e| io("direct wal", e))?,
        None => (0.0, 0.0),
    };
    let d = Direct {
        storage: direct::storage(server, &keys, ZIPF_THETA, seed),
        wal_append_us,
        wal_sync_us,
        net_roundtrip: match def.transport {
            Transport::Tcp => {
                direct::net_roundtrip(replay.median_frame_len).map_err(|e| io("reactor echo", e))?
            }
            Transport::Channel => direct::Placed::default(),
        },
        handoff: direct::handoff(),
    };

    let sessions = session_recorder(&mut live.op_spans);
    // The unbounded load metrics of this run's slices lead the list, so
    // a traced run records them next to the layers that explain them.
    let mut metrics: Vec<Metric> = crate::report::load_metrics(live)
        .into_iter()
        .map(|m| Metric::new(&format!("live.{}", m.name), &m.unit, m.value))
        .collect();
    metrics.extend(live_metrics(def, live, &sessions));
    metrics.extend(layer_metrics(live, &replay, &d));

    let c = replay.counts;
    println!(
        "replay: {} tx, {} messages ({:.2}/tx), {} frame bytes ({:.1}/tx), {} wal appends ({:.2}/tx), \
         {} fsyncs ({:.2}/tx) — identical across two replays of seed {seed}: {repeats}",
        c.txs,
        c.messages,
        c.messages as f64 / c.txs as f64,
        c.frame_bytes,
        c.frame_bytes as f64 / c.txs as f64,
        c.wal_appends,
        c.wal_appends as f64 / c.txs as f64,
        c.fsyncs,
        c.fsyncs as f64 / c.txs as f64,
    );
    for (class, p) in ["read-only", "read-write"].iter().zip(&replay.paths) {
        println!(
            "replay critical path, {class}: service {:.1} us, {:.1} tcp hops, {:.1} hand-offs",
            p.service_us, p.tcp_hops, p.handoffs
        );
    }
    println!("replay spans (count, total us, self us):");
    for (name, count, total, own) in span::summarize(&replay.rec) {
        println!(
            "  {name:<26}{count:>9}{:>14.1}{:>14.1}",
            total as f64 / 1e3,
            own as f64 / 1e3
        );
    }
    println!("per-layer:");
    for m in &metrics {
        println!("  {:<36}{:>14.3} {}", m.name, m.value, m.unit);
    }

    let path = out_dir.join(format!("trace-{}.json", def.name));
    let body = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"spans_kept_for_tx_below\":{TRACE_FILE_TXS},\
         \"live\":{},\"replay\":{}}}\n",
        def.name,
        span::to_json(&sessions, TRACE_FILE_TXS),
        span::to_json(&replay.rec, TRACE_FILE_TXS),
    );
    std::fs::write(&path, body).map_err(|e| format!("write {path:?}: {e}"))?;
    println!("trace written to {}", path.display());
    drop(replay);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(metrics)
}
