//! The single-threaded layer replay of a traced run.
//!
//! The benchmark owns the `WrenServer`s and two `WrenClient`s, feeds
//! them the same seeded streams as the live run and routes every
//! `Outgoing` message itself, in **virtual time**: a message takes
//! [`HOP_US`] to arrive, ticks fire on the cluster's schedule, and no
//! step waits for a thread, a socket or a timer. Every step is wrapped
//! in a span — client state machine, frame encode, frame + message
//! decode, `WrenServer::handle` per message kind, `SliceReader::serve`,
//! the ticks, the WAL commit point — so each layer's own cost per
//! transaction can be read without the waiting the live run mixes in.
//!
//! Virtual time never depends on measured time, so the message, byte
//! and fsync counts of a replay repeat exactly for a seed.

use crate::gen::{all_keys, TxStream};
use crate::span::{Recorder, NONE};
use crate::spec::{Transport, WorkloadDef};
use crate::stats::median;
use bytes::Bytes;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::path::Path;
use wren_clock::{SkewedClock, Timestamp};
use wren_core::{FsyncPolicy, SliceReader, WrenClient, WrenConfig, WrenServer};
use wren_protocol::frame::{frame_wren, FrameDecoder};
use wren_protocol::{ClientId, DcId, Dest, Outgoing, ServerId, TxId, WrenMsg, WrenVersion};
use wren_workload::Workload;

/// Virtual one-way delay of every message.
const HOP_US: u64 = 20;
/// The cluster's default tick intervals (`ClusterBuilder::new()`).
const REPL_US: u64 = 1_000;
const GOSSIP_US: u64 = 5_000;
const GC_US: u64 = 50_000;
const CHECKPOINT_US: u64 = 500_000;
/// Virtual time starts past the one-second jump a durable server's
/// hybrid clock makes on boot.
const T0_US: u64 = 2_000_000;
/// Ticks and gossip run this long before the clients start, so the
/// stable snapshot covers the preloaded versions.
const SETTLE_US: u64 = 50_000;

enum Payload {
    /// Channel transport: the message itself travels.
    Msg(WrenMsg),
    /// TCP transports: the framed bytes travel and are decoded on arrival.
    Framed(Bytes),
}

#[derive(Clone, Copy)]
enum Tick {
    Repl,
    Gossip,
    Gc,
    Checkpoint,
}

enum What {
    Deliver {
        from: Dest,
        to: Dest,
        payload: Payload,
    },
    Tick(usize, Tick),
    /// A group-commit window's deadline.
    Sync(usize),
}

struct Event {
    at: u64,
    /// Tie-break: events at one instant run in the order they were made.
    seq: u64,
    what: What,
    /// Span of the step that emitted this event's message.
    cause: u32,
    /// Ordinal of the client transaction it belongs to, or [`NONE`].
    tx: u32,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A response waiting for its group-commit window to close.
struct Held {
    out: Outgoing<WrenMsg>,
    cause: u32,
    tx: u32,
}

struct Node {
    id: ServerId,
    server: WrenServer,
    reader: SliceReader,
    decoder: FrameDecoder,
    held: Vec<Held>,
    window_due: Option<u64>,
}

struct Cli<'a> {
    client: WrenClient,
    decoder: FrameDecoder,
    stream: &'a TxStream,
    /// Transactions finished.
    done: usize,
    seq: u32,
}

/// One handled event, for the critical-path pass.
struct Step {
    span: u32,
    cause: u32,
    tx: u32,
    /// What runs steps one at a time: a partition's writer thread, its
    /// read workers, or a client.
    resource: u32,
    /// `(sender is a server, receiver is a server)` of the message this
    /// step consumed; `None` for a client starting a transaction.
    hop: Option<(bool, bool)>,
}

/// The counts a replay must reproduce exactly for a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayCounts {
    pub txs: u64,
    pub messages: u64,
    pub frame_bytes: u64,
    pub wal_appends: u64,
    pub wal_bytes: u64,
    pub fsyncs: u64,
}

/// What the critical-path pass found for one transaction class.
#[derive(Debug, Clone, Copy, Default)]
pub struct PathStats {
    /// Median critical-path service time.
    pub service_us: f64,
    /// Mean one-way socket traversals on the critical path.
    pub tcp_hops: f64,
    /// Mean thread-to-thread hand-offs on the critical path.
    pub handoffs: f64,
}

pub struct ReplayOut {
    pub rec: Recorder,
    pub counts: ReplayCounts,
    /// Virtual seconds the clients ran.
    pub virtual_s: f64,
    /// Read-only and read-write transactions.
    pub paths: [PathStats; 2],
    pub median_frame_len: usize,
    /// The servers as the replay left them (their stores hold the
    /// workload's key count and chain depth).
    pub servers: Vec<WrenServer>,
}

struct Sim<'a> {
    framed: bool,
    durable: bool,
    window_us: u64,
    now: u64,
    seq: u64,
    queue: BinaryHeap<Reverse<Event>>,
    nodes: Vec<Node>,
    clients: Vec<Cli<'a>>,
    n_partitions: u16,
    txs_per_client: usize,
    values: &'a Workload,
    rec: Recorder,
    steps: Vec<Step>,
    messages: u64,
    frame_lens: Vec<u32>,
    clients_finished_at: u64,
}

/// The span a `WrenServer::handle` call is filed under.
fn handle_class(msg: &WrenMsg) -> &'static str {
    match msg {
        WrenMsg::StartTxReq { .. } => "core.handle.start",
        WrenMsg::TxReadReq { .. } | WrenMsg::SliceResp { .. } | WrenMsg::SliceReq { .. } => {
            "core.handle.read"
        }
        WrenMsg::CommitReq { .. } | WrenMsg::PrepareReq { .. } => "core.handle.prepare",
        WrenMsg::PrepareResp { .. } | WrenMsg::Commit { .. } => "core.handle.decide",
        WrenMsg::Replicate { .. } => "core.handle.replicate",
        _ => "core.handle.background",
    }
}

impl Sim<'_> {
    fn push(&mut self, at: u64, what: What, cause: u32, tx: u32) {
        self.seq += 1;
        self.queue.push(Reverse(Event {
            at,
            seq: self.seq,
            what,
            cause,
            tx,
        }));
    }

    fn node_index(&self, id: ServerId) -> usize {
        id.dc_major_index(self.n_partitions)
    }

    /// Puts one message on the (virtual) wire. `parent` is the span the
    /// encode happens in, `cause` the step whose handling produced it.
    fn send(&mut self, from: Dest, to: Dest, msg: WrenMsg, parent: u32, cause: u32, tx: u32) {
        self.messages += 1;
        let payload = if self.framed {
            let frame = self
                .rec
                .time("protocol.encode", parent, tx, || frame_wren(&msg));
            self.frame_lens.push(frame.len() as u32);
            Payload::Framed(frame)
        } else {
            Payload::Msg(msg)
        };
        self.push(
            self.now + HOP_US,
            What::Deliver { from, to, payload },
            cause,
            tx,
        );
    }

    fn decode(&mut self, decoder_of: Dest, payload: Payload, parent: u32, tx: u32) -> WrenMsg {
        match payload {
            Payload::Msg(msg) => msg,
            Payload::Framed(bytes) => {
                let decoder = match decoder_of {
                    Dest::Server(id) => {
                        let i = self.node_index(id);
                        &mut self.nodes[i].decoder
                    }
                    Dest::Client(c) => &mut self.clients[c.0 as usize].decoder,
                };
                self.rec.time("protocol.decode", parent, tx, || {
                    decoder.extend(&bytes);
                    let frame = decoder
                        .next_frame()
                        .expect("replayed frames are well formed")
                        .expect("one whole frame was fed");
                    WrenMsg::decode(&frame).expect("replayed messages decode")
                })
            }
        }
    }

    /// The engine's `commit_and_dispatch`: a WAL commit point, then the
    /// step's outputs leave — unless a group-commit window is open, in
    /// which case they are held until its deadline (or until a later
    /// commit point crosses the byte threshold and closes it).
    fn commit_and_dispatch(&mut self, i: usize, out: Vec<Outgoing<WrenMsg>>, step: u32, tx: u32) {
        if self.durable {
            let server = &mut self.nodes[i].server;
            self.rec.time("wal.commit_point", step, tx, || {
                server.log_commit_point().expect("wal commit point")
            });
        }
        let fresh = out.into_iter().map(|out| Held {
            out,
            cause: step,
            tx,
        });
        if self.nodes[i].server.log_sync_deadline().is_some() {
            self.nodes[i].held.extend(fresh);
            if self.nodes[i].window_due.is_none() {
                let due = self.now + self.window_us;
                self.nodes[i].window_due = Some(due);
                self.push(due, What::Sync(i), NONE, NONE);
            }
        } else {
            self.nodes[i].window_due = None;
            let mut all = std::mem::take(&mut self.nodes[i].held);
            all.extend(fresh);
            self.release(i, all, step);
        }
    }

    fn release(&mut self, i: usize, held: Vec<Held>, parent: u32) {
        let from = Dest::Server(self.nodes[i].id);
        for Held { out, cause, tx } in held {
            self.send(from, out.to, out.msg, parent, cause, tx);
        }
    }

    fn server_step(&mut self, i: usize, from: Dest, payload: Payload, ev: (u32, u32)) {
        let (cause, tx) = ev;
        let id = self.nodes[i].id;
        let step = self.rec.open("server.step", NONE, tx);
        let msg = self.decode(Dest::Server(id), payload, step, tx);
        let hop = Some((matches!(from, Dest::Server(_)), true));
        if let (
            WrenMsg::SliceReq {
                tx: txid,
                lt,
                rt,
                keys,
            },
            Dest::Server(coordinator),
        ) = (&msg, from)
        {
            // What the partition's read workers do, beside its writer
            // thread: answer straight from storage, no commit point.
            let reader = &self.nodes[i].reader;
            let resp = self.rec.time("storage.serve", step, tx, || {
                reader.serve(*txid, *lt, *rt, keys)
            });
            self.send(
                Dest::Server(id),
                Dest::Server(coordinator),
                resp,
                step,
                step,
                tx,
            );
            self.rec.close(step);
            self.steps.push(Step {
                span: step,
                cause,
                tx,
                resource: 2 * i as u32 + 1,
                hop,
            });
            return;
        }
        let mut out = Vec::new();
        let (server, now) = (&mut self.nodes[i].server, self.now);
        self.rec.time(handle_class(&msg), step, tx, || {
            server.handle(from, msg, now, &mut out)
        });
        self.commit_and_dispatch(i, out, step, tx);
        self.rec.close(step);
        self.steps.push(Step {
            span: step,
            cause,
            tx,
            resource: 2 * i as u32,
            hop,
        });
    }

    fn tick_step(&mut self, i: usize, tick: Tick) {
        let step = self.rec.open("server.tick", NONE, NONE);
        let mut out = Vec::new();
        let (server, now) = (&mut self.nodes[i].server, self.now);
        let started = self.rec.now_ns();
        let (name, period) = match tick {
            Tick::Repl => {
                let applied = server.on_replication_tick(now, &mut out);
                (
                    if applied > 0 {
                        "core.tick.apply"
                    } else {
                        "core.tick.idle"
                    },
                    REPL_US,
                )
            }
            Tick::Gossip => {
                server.on_gossip_tick(now, &mut out);
                ("core.tick.idle", GOSSIP_US)
            }
            Tick::Gc => {
                server.on_gc_tick(now, &mut out);
                ("core.tick.idle", GC_US)
            }
            Tick::Checkpoint => {
                server.write_checkpoint().expect("checkpoint");
                ("core.checkpoint", CHECKPOINT_US)
            }
        };
        self.rec.push(name, step, NONE, started, self.rec.now_ns());
        // The engine dispatches after every tick but the checkpoint's.
        if !matches!(tick, Tick::Checkpoint) {
            self.commit_and_dispatch(i, out, step, NONE);
        }
        self.rec.close(step);
        self.push(self.now + period, What::Tick(i, tick), NONE, NONE);
    }

    fn sync_step(&mut self, i: usize) {
        if self.nodes[i].window_due != Some(self.now) {
            return; // the window already closed on its byte threshold
        }
        let step = self.rec.open("server.sync", NONE, NONE);
        let server = &mut self.nodes[i].server;
        self.rec.time("wal.sync", step, NONE, || {
            server.sync_log().expect("wal window sync")
        });
        self.nodes[i].window_due = None;
        let held = std::mem::take(&mut self.nodes[i].held);
        self.release(i, held, step);
        self.rec.close(step);
    }

    /// Ordinal of client `c`'s current transaction.
    fn tx_ord(&self, c: usize) -> u32 {
        (c * self.txs_per_client + self.clients[c].done) as u32
    }

    fn client_send(&mut self, c: usize, msg: WrenMsg, step: u32, tx: u32) {
        let (id, to) = (
            self.clients[c].client.id(),
            self.clients[c].client.coordinator(),
        );
        self.send(Dest::Client(id), Dest::Server(to), msg, step, step, tx);
    }

    /// A client begins its next transaction (the paper's `START`).
    fn client_start(&mut self, c: usize) {
        let tx = self.tx_ord(c);
        let step = self.rec.open("client.step", NONE, tx);
        let client = &mut self.clients[c].client;
        let msg = self.rec.time("core.client", step, tx, || client.start());
        self.client_send(c, msg, step, tx);
        self.rec.close(step);
        self.steps.push(Step {
            span: step,
            cause: NONE,
            tx,
            resource: u32::MAX - c as u32,
            hop: None,
        });
    }

    /// A reply reached a client: closed loop, so it issues its next
    /// operation at once.
    fn client_step(&mut self, c: usize, payload: Payload, ev: (u32, u32)) {
        let (cause, tx) = ev;
        let id = self.clients[c].client.id();
        let step = self.rec.open("client.step", NONE, tx);
        let msg = self.decode(Dest::Client(id), payload, step, tx);
        let (stream, values) = (self.clients[c].stream, self.values);
        let (reads, writes) = stream.get(self.clients[c].done);
        let cli = &mut self.clients[c];
        let started = self.rec.now_ns();
        let mut finished = false;
        let next = match msg {
            WrenMsg::StartTxResp { .. } => {
                cli.client.on_start_resp(msg);
                cli.client.read(reads).request
            }
            WrenMsg::TxReadResp { .. } => {
                cli.client.on_read_resp(msg);
                None
            }
            WrenMsg::CommitResp { .. } => {
                cli.client.on_commit_resp(msg);
                finished = true;
                None
            }
            other => unreachable!("server-bound {other:?} delivered to a client"),
        };
        // Reads answered (or none needed a server): write and commit.
        let next = match next {
            Some(read_req) => Some(read_req),
            None if finished => None,
            None => {
                if !writes.is_empty() {
                    cli.seq += 1;
                    let value = values.make_value(c as u32, cli.seq);
                    cli.client.write(writes.iter().map(|k| (*k, value.clone())));
                }
                Some(cli.client.commit())
            }
        };
        self.rec
            .push("core.client", step, tx, started, self.rec.now_ns());
        if let Some(msg) = next {
            self.client_send(c, msg, step, tx);
        }
        self.rec.close(step);
        self.steps.push(Step {
            span: step,
            cause,
            tx,
            resource: u32::MAX - c as u32,
            hop: Some((true, false)),
        });
        if finished {
            self.clients[c].done += 1;
            if self.clients[c].done < self.txs_per_client {
                self.client_start(c);
            } else if self.clients.iter().all(|c| c.done == self.txs_per_client) {
                self.clients_finished_at = self.now;
            }
        }
    }

    /// Handles the earliest event.
    fn step(&mut self) {
        let Reverse(ev) = self.queue.pop().expect("ticks keep the queue non-empty");
        self.now = ev.at;
        match ev.what {
            What::Deliver {
                from,
                to: Dest::Server(id),
                payload,
            } => {
                let i = self.node_index(id);
                self.server_step(i, from, payload, (ev.cause, ev.tx));
            }
            What::Deliver {
                to: Dest::Client(c),
                payload,
                ..
            } => {
                self.client_step(c.0 as usize, payload, (ev.cause, ev.tx));
            }
            What::Sync(i) => self.sync_step(i),
            What::Tick(i, tick) => self.tick_step(i, tick),
        }
    }
}

/// Re-times every transaction's steps with their measured durations:
/// a step starts when the step that caused it has finished and the
/// thread it runs on is free; transport takes no time. The finish of
/// the last client step is the transaction's critical-path service
/// time; hops and hand-offs are counted along the chain of causes.
fn critical_paths(sim: &Sim<'_>, framed: bool) -> [PathStats; 2] {
    let n_tx = sim.txs_per_client * sim.clients.len();
    let mut by_tx: Vec<Vec<&Step>> = vec![Vec::new(); n_tx];
    for step in sim.steps.iter().filter(|s| s.tx != NONE) {
        by_tx[step.tx as usize].push(step);
    }
    let mut service: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut hops = [0.0; 2];
    let mut handoffs = [0.0; 2];
    for (ord, steps) in by_tx.iter().enumerate() {
        // span → (finish ns, hops so far, hand-offs so far)
        let mut done: HashMap<u32, (u64, u32, u32)> = HashMap::new();
        let mut free: HashMap<u32, u64> = HashMap::new();
        let mut last_client = (0, 0, 0);
        for step in steps {
            let (ready, mut h, mut o) = done.get(&step.cause).copied().unwrap_or((0, 0, 0));
            if let Some((from_server, to_server)) = step.hop {
                if framed {
                    // A socket traversal, plus a hand-off between the
                    // engine (or read worker) and the reactor thread at
                    // every server end of it.
                    h += 1;
                    o += from_server as u32 + to_server as u32;
                } else {
                    o += 1; // one channel send wakes the receiver
                }
            }
            let start = ready.max(free.get(&step.resource).copied().unwrap_or(0));
            let finish = start + sim.rec.spans[step.span as usize].dur_ns();
            free.insert(step.resource, finish);
            done.insert(step.span, (finish, h, o));
            if step.resource > u32::MAX / 2 {
                last_client = (finish, h, o);
            }
        }
        // Even stream positions are read-only transactions.
        let class = (ord % sim.txs_per_client) % 2;
        service[class].push(last_client.0 as f64 / 1e3);
        hops[class] += last_client.1 as f64;
        handoffs[class] += last_client.2 as f64;
    }
    [0, 1].map(|class| {
        let n = service[class].len().max(1) as f64;
        PathStats {
            service_us: median(&service[class]),
            tcp_hops: hops[class] / n,
            handoffs: handoffs[class] / n,
        }
    })
}

/// Replays `txs_per_client` transactions of each stream on servers the
/// benchmark owns. Durable workloads log under `dir` (emptied first).
pub fn run(
    def: &WorkloadDef,
    streams: &[TxStream; 2],
    txs_per_client: usize,
    dir: &Path,
) -> ReplayOut {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = WrenConfig::new(def.dcs, def.partitions);
    let values = def.compile(def.rw);
    let preload = values.make_value(u32::MAX, 0);
    let keys = all_keys(def);

    let mut nodes = Vec::new();
    for dc in 0..def.dcs {
        for p in 0..def.partitions {
            let id = ServerId::new(dc, p);
            let server = match def.wal {
                Some(policy) => WrenServer::recover(
                    id,
                    cfg,
                    SkewedClock::perfect(),
                    &dir.join(format!("dc{dc}_p{p}")),
                    policy,
                )
                .expect("fresh durable server"),
                None => WrenServer::new(id, cfg, SkewedClock::perfect()),
            };
            // Preload straight into the store, as of virtual time zero.
            for key in keys
                .iter()
                .filter(|k| k.partition(def.partitions) == id.partition)
            {
                server.store().insert(
                    *key,
                    WrenVersion {
                        value: preload.clone(),
                        ut: Timestamp::from_micros(1),
                        rdt: Timestamp::ZERO,
                        tx: TxId::from_raw(0),
                        sr: DcId(0),
                    },
                );
            }
            nodes.push(Node {
                id,
                reader: server.reader(),
                server,
                decoder: FrameDecoder::new(),
                held: Vec::new(),
                window_due: None,
            });
        }
    }
    let last_dc = def.dcs - 1;
    let clients = [(0u32, 0u8), (1, last_dc)]
        .map(|(c, dc)| Cli {
            // Coordinators as `Cluster::session` deals them: round robin.
            client: WrenClient::new(ClientId(c), ServerId::new(dc, c as u16 % def.partitions)),
            decoder: FrameDecoder::new(),
            stream: &streams[c as usize],
            done: 0,
            seq: 0,
        })
        .into_iter()
        .collect();

    let mut sim = Sim {
        framed: def.transport == Transport::Tcp,
        durable: def.wal.is_some(),
        window_us: match def.wal {
            Some(FsyncPolicy::Window { max_delay, .. }) => max_delay.as_micros() as u64,
            _ => 0,
        },
        now: T0_US,
        seq: 0,
        queue: BinaryHeap::new(),
        nodes,
        clients,
        n_partitions: def.partitions,
        txs_per_client,
        values: &values,
        rec: Recorder::new(),
        steps: Vec::new(),
        messages: 0,
        frame_lens: Vec::new(),
        clients_finished_at: 0,
    };
    for i in 0..sim.nodes.len() {
        sim.push(T0_US + REPL_US, What::Tick(i, Tick::Repl), NONE, NONE);
        sim.push(T0_US + GOSSIP_US, What::Tick(i, Tick::Gossip), NONE, NONE);
        sim.push(T0_US + GC_US, What::Tick(i, Tick::Gc), NONE, NONE);
        if sim.durable {
            sim.push(
                T0_US + CHECKPOINT_US,
                What::Tick(i, Tick::Checkpoint),
                NONE,
                NONE,
            );
        }
    }
    // Let the stable snapshot settle, then start both clients.
    let start_at = T0_US + SETTLE_US;
    while sim.queue.peek().is_some_and(|Reverse(e)| e.at < start_at) {
        sim.step();
    }
    sim.now = start_at;
    // Spans and counts cover the clients' run only.
    sim.rec.spans.clear();
    sim.steps.clear();
    sim.messages = 0;
    sim.frame_lens.clear();
    let before: Vec<_> = sim
        .nodes
        .iter()
        .map(|n| n.server.registry().snapshot())
        .collect();
    sim.client_start(0);
    sim.client_start(1);
    while sim.clients_finished_at == 0 {
        sim.step();
    }

    let mut counts = ReplayCounts {
        txs: (2 * txs_per_client) as u64,
        messages: sim.messages,
        frame_bytes: sim.frame_lens.iter().map(|l| *l as u64).sum(),
        ..ReplayCounts::default()
    };
    for (node, before) in sim.nodes.iter().zip(&before) {
        let moved = node.server.registry().snapshot().diff(before);
        if let Some(h) = moved.histogram("wal_append_bytes") {
            counts.wal_appends += h.count;
            counts.wal_bytes += h.sum;
        }
        counts.fsyncs += moved.histogram("wal_fsync_micros").map_or(0, |h| h.count);
    }
    let paths = critical_paths(&sim, sim.framed);
    let mut lens: Vec<f64> = sim.frame_lens.iter().map(|l| *l as f64).collect();
    lens.sort_by(f64::total_cmp);
    ReplayOut {
        counts,
        virtual_s: (sim.clients_finished_at - start_at) as f64 / 1e6,
        paths,
        median_frame_len: crate::stats::quantile_sorted(&lens, 0.5) as usize,
        servers: sim.nodes.into_iter().map(|n| n.server).collect(),
        rec: sim.rec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn replay_counts_repeat_exactly_for_a_seed() {
        let out = std::env::temp_dir().join(format!("wren-replay-test-{}", std::process::id()));
        for def in &WORKLOADS {
            let mut def = *def;
            def.keys_per_partition = 500;
            let streams = [
                TxStream::generate(&def, 0, 5, 256),
                TxStream::generate(&def, 1, 5, 256),
            ];
            let a = run(&def, &streams, 60, &out);
            let b = run(&def, &streams, 60, &out);
            assert_eq!(a.counts, b.counts, "{}", def.name);
            assert_eq!(a.counts.txs, 120);
            assert!(
                a.counts.messages >= 6 * 120,
                "{}: every tx is three round trips",
                def.name
            );
            assert_eq!(a.counts.fsyncs > 0, def.wal.is_some(), "{}", def.name);
            assert_eq!(
                a.counts.frame_bytes > 0,
                def.transport == Transport::Tcp,
                "{}",
                def.name
            );
            for p in a.paths {
                assert!(p.service_us > 0.0);
                assert!(p.handoffs >= 6.0, "{}: {p:?}", def.name);
            }
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
