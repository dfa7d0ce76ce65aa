use crate::durability::{get_writes, put_writes, DurableLog, WalOp};
use crate::metrics::{ServerMetrics, ServerTrace, TxEvent, TRACE_RING_EVENTS};
use crate::{VisibilitySampler, WrenConfig};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use wren_clock::{HybridClock, PhysicalClock, SkewedClock, Timestamp, VersionVector};
use wren_protocol::codec::{CodecError, Dec, Enc};
use wren_protocol::{
    ClientId, DcId, Dest, Key, Outgoing, PartitionId, RepTx, ReplicateBatch, ServerId, TxId,
    Value, WrenMsg, WrenVersion,
};
use wren_storage::{ConcurrentShardedStore, FsyncPolicy, SnapshotBound};

/// Counters exposed by a server for test assertions and reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Transactions this server coordinated to commit.
    pub txs_coordinated: u64,
    /// Transactions this server committed as a cohort.
    pub txs_cohort_committed: u64,
    /// Slice requests served (local and remote coordinators).
    pub slices_served: u64,
    /// Individual keys read.
    pub keys_read: u64,
    /// Local versions applied by version-clock advances.
    pub local_versions_applied: u64,
    /// Remote versions applied from replication batches.
    pub remote_versions_applied: u64,
    /// Replication batches shipped to sibling replicas.
    pub replicate_batches_sent: u64,
    /// Heartbeats shipped to sibling replicas.
    pub heartbeats_sent: u64,
    /// Versions removed by garbage collection.
    pub gc_versions_removed: u64,
    /// WAL records appended (0 unless the server runs durable).
    pub wal_records_logged: u64,
    /// Checkpoints written (0 unless the server runs durable).
    pub checkpoints_written: u64,
}

/// The read-only slice path's instrumentation, shared between the server
/// and its [`SliceReader`] handles.
///
/// Registry metrics (lock-free atomics underneath) rather than plain
/// fields so the slice path needs no `&mut`: a [`SliceReader`] on any
/// thread bumps them while the writer thread owns the rest of
/// [`ServerStats`]. The handles alias the server's registry, so reads
/// served off the writer thread show up in the partition's merged
/// snapshot.
#[derive(Debug)]
struct ReadPathStats {
    slices_served: wren_obs::Counter,
    keys_read: wren_obs::Counter,
    read_slice_micros: wren_obs::Histogram,
}

/// Algorithm 3 lines 1–12: the freshest version of each key visible at
/// snapshot `(lt, rt)` in DC `dc`, counted and timed in `stats`.
///
/// Never blocks: the snapshot only names versions already installed on
/// every partition of the DC, and only stripe read locks are taken.
/// Both the writer path ([`WrenServer::handle`], the coordinator's own
/// slice) and every [`SliceReader`] run this one function.
fn read_slice_at(
    store: &ConcurrentShardedStore<Key, WrenVersion>,
    stats: &ReadPathStats,
    dc: u8,
    keys: &[Key],
    lt: Timestamp,
    rt: Timestamp,
) -> Vec<(Key, Option<WrenVersion>)> {
    let start = std::time::Instant::now();
    stats.slices_served.inc();
    stats.keys_read.add(keys.len() as u64);
    let bound = SnapshotBound::bist(dc, lt, rt);
    let mut items = Vec::with_capacity(keys.len());
    for &k in keys {
        items.push((k, store.latest_visible(&k, &bound)));
    }
    stats
        .read_slice_micros
        .record(start.elapsed().as_micros() as u64);
    items
}

/// A cheap, cloneable handle answering read slices **straight from
/// storage**, without touching the owning [`WrenServer`]'s mutable state.
///
/// This is the paper's nonblocking-read guarantee made thread-level: a
/// slice at snapshot `(lt, rt)` only names versions every partition has
/// already installed, so serving it needs the concurrent store (shared
/// `Arc`), the DC id (fixed) and the slice counters (atomic) — nothing
/// the writer thread mutates. `wren-rt`'s router keeps one handle per
/// live partition and serves every `SliceReq` through it on the thread
/// that delivered the request; [`WrenServer::handle`] serves `SliceReq`
/// with the same code when a driver (the simulator) feeds it directly.
#[derive(Debug, Clone)]
pub struct SliceReader {
    dc: u8,
    store: Arc<ConcurrentShardedStore<Key, WrenVersion>>,
    read_stats: Arc<ReadPathStats>,
}

impl SliceReader {
    /// Algorithm 3 lines 1–12 at snapshot `(lt, rt)`; see
    /// [`WrenServer::handle`]'s `SliceReq` arm for the writer-path twin.
    ///
    /// Also raises the store's published stable times to `(lt, rt)`,
    /// mirroring what a `SliceReq` does on the writer path: a slice
    /// request is proof those times are stable DC-wide. The one
    /// writer-path side effect this handle cannot reproduce is the
    /// [`VisibilitySampler`](crate::VisibilitySampler) advance — the
    /// sampler is figures-only instrumentation, `&mut`, and disabled
    /// (`sample_every = 0`) wherever engines run; drivers that sample
    /// visibility (the simulator) serve slices on the writer path.
    pub fn read_slice(
        &self,
        keys: &[Key],
        lt: Timestamp,
        rt: Timestamp,
    ) -> Vec<(Key, Option<WrenVersion>)> {
        self.store.publish_stable(lt, rt);
        read_slice_at(&self.store, &self.read_stats, self.dc, keys, lt, rt)
    }

    /// Serves one `SliceReq`, producing the `SliceResp` to send back to
    /// the coordinator.
    pub fn serve(
        &self,
        tx: TxId,
        lt: Timestamp,
        rt: Timestamp,
        keys: &[Key],
    ) -> WrenMsg {
        let items = self.read_slice(keys, lt, rt);
        WrenMsg::SliceResp { tx, items }
    }

    /// Slice requests served so far through the shared counters (all
    /// readers and the writer path combined).
    pub fn slices_served(&self) -> u64 {
        self.read_stats.slices_served.get()
    }

    /// Keys read so far through the shared counters.
    pub fn keys_read(&self) -> u64 {
        self.read_stats.keys_read.get()
    }
}

/// Per-transaction coordinator context (the paper's `TX[id_T]`, extended
/// with the bookkeeping for asynchronous slice/prepare fan-out).
#[derive(Debug)]
struct TxCtx {
    client: ClientId,
    lt: Timestamp,
    rt: Timestamp,
    /// Outstanding slice responses for the in-flight read round.
    pending_slices: usize,
    read_acc: Vec<(Key, Option<WrenVersion>)>,
    /// Outstanding prepare responses for the in-flight commit.
    pending_prepares: usize,
    max_pt: Timestamp,
    cohorts: Vec<PartitionId>,
    /// Cohorts whose network vote already arrived, so a recovered
    /// cohort's periodic re-send cannot double-count.
    responded: Vec<PartitionId>,
    /// When the context last entered a server-driven phase (start, or
    /// the 2PC fan-out), for the coordinator's in-doubt abort timer.
    since: u64,
}

/// A prepared transaction awaiting its commit message (the paper's
/// `Prepared` list, Algorithm 3 line 18).
#[derive(Debug, Clone)]
struct PreparedTx {
    pt: Timestamp,
    rst: Timestamp,
    writes: Vec<(Key, Value)>,
    /// When the vote was (last) sent, for the durable-mode re-send of
    /// `PrepareResp` after a coordinator restart.
    since: u64,
}

/// A committed transaction awaiting application (the paper's `Committed`
/// list).
#[derive(Debug, Clone)]
struct CommittedTx {
    rst: Timestamp,
    writes: Vec<(Key, Value)>,
    /// True time the commit verdict arrived here (0 after a replay —
    /// recovered entries skip the apply-stage histogram).
    committed_at: u64,
}

/// A Wren partition server: the state machine of Algorithms 2–4.
///
/// The server is **sans-io**: [`WrenServer::handle`] consumes one message
/// plus the current true time and appends outgoing messages to `out`;
/// the periodic behaviours are explicit methods
/// ([`on_replication_tick`](WrenServer::on_replication_tick),
/// [`on_gossip_tick`](WrenServer::on_gossip_tick),
/// [`on_gc_tick`](WrenServer::on_gc_tick)) that a driver calls on its own
/// schedule. Physical time is read through a [`SkewedClock`], so clock
/// skew between servers is part of the model.
///
/// **Stabilization cadence is the driver's choice.** A driver that only
/// calls the ticks gets the paper's cadence: the version clock `VV[m]`
/// moves every Δ_R, the BiST contribution leaves every Δ_G, and a write
/// becomes visible up to one Δ_R plus one Δ_G per tree level after it
/// commits (the simulator does this, so its Wren and Cure figures run at
/// the same Δ_R and Δ_G). A driver that also ends every turn with
/// [`advance`](WrenServer::advance) and then
/// [`stabilize`](WrenServer::stabilize) moves the version clock to the
/// newest timestamp the partition has committed or heard, and pushes the
/// contribution as soon as it moves; a write is then visible after a few
/// message delays, and the ticks are left as the idle heartbeat that
/// follows the physical clock and repairs lost pushes (`wren-rt`'s
/// engine does this). In tree mode only `GossipUp` carries a peer's
/// clock: a leaf learns of a commit elsewhere in its DC only from the
/// root's `GossipDown`, which carries the cut but no clock to advance
/// to, so its own version clock still waits for its tick and tree mode
/// gains less. The messages are the same kinds either way; only how many
/// leave and when differs.
///
/// Key invariant (the reason reads never block): once the version clock
/// `VV[m]` is advanced to `ub`, no transaction will ever commit on this
/// partition with `ct ≤ ub`. It holds because `ub` never passes the
/// hybrid clock (every future proposal is above it) and stops below the
/// lowest prepared proposal; `advance` first merges its cap into the
/// hybrid clock, so the rule is the same for the tick and for `advance`.
/// The LST (a min over version clocks) therefore only ever names
/// fully-installed snapshots.
#[derive(Debug)]
pub struct WrenServer {
    id: ServerId,
    cfg: WrenConfig,
    clock: SkewedClock,
    hlc: HybridClock,
    /// `VV[i]`: latest update applied from DC `i`'s sibling; `VV[m]` is the
    /// local version clock.
    vv: VersionVector,
    /// The highest timestamp a stabilization or replication message has
    /// carried here: a peer's `StableGossip`/`GossipUp` clock, a
    /// sibling's heartbeat, a replicated `ct`'s successor. One of the two
    /// values [`advance`](WrenServer::advance) may raise `VV[m]` to.
    heard: Timestamp,
    /// The partition's data plus the published LST/RST watermarks. Shared
    /// (`Arc`) so [`SliceReader`] handles serve reads from other threads;
    /// the server itself is the only writer.
    store: Arc<ConcurrentShardedStore<Key, WrenVersion>>,
    /// Slice-path counters, shared with [`SliceReader`] handles.
    read_stats: Arc<ReadPathStats>,
    prepared: HashMap<TxId, PreparedTx>,
    committed: BTreeMap<(Timestamp, TxId), CommittedTx>,
    next_seq: u64,
    tx_ctx: HashMap<TxId, TxCtx>,
    /// Latest BiST contribution `(VV[m], min_{i≠m} VV[i])` per partition.
    gossip_contrib: Vec<(Timestamp, Timestamp)>,
    /// The subtree contribution last pushed, so
    /// [`stabilize`](WrenServer::stabilize) sends only when it moved.
    gossip_sent: (Timestamp, Timestamp),
    /// Latest GC contribution `(oldest lt, oldest rt)` per partition.
    gc_contrib: Vec<(Timestamp, Timestamp)>,
    stats: ServerStats,
    vis: VisibilitySampler,
    /// Sibling replicas of this partition in every other DC (fixed for
    /// the server's lifetime; computed once).
    siblings: Vec<ServerId>,
    /// Every other partition of this DC (fixed; computed once).
    peers: Vec<ServerId>,
    /// Children in the k-ary stabilization tree (fixed; computed once).
    children: Vec<ServerId>,
    /// Scratch buckets for grouping a read-set by partition, reused
    /// across transactions so the per-read grouping allocates nothing.
    scratch_reads: Vec<Vec<Key>>,
    /// Scratch buckets for grouping a write-set by partition.
    scratch_writes: Vec<Vec<(Key, Value)>>,
    /// Scratch buffer for flattening a replication batch before the
    /// store-level batch apply, reused across batches.
    scratch_apply: Vec<(Key, WrenVersion)>,
    /// The durability log, when this server runs durable (see the
    /// [`durability`](crate::durability) module docs for the layering).
    log: Option<DurableLog>,
    /// Commit decisions made here as coordinator (logged durably before
    /// any `Commit` leaves), kept so a recovered cohort can re-learn an
    /// outcome by re-sending its vote. Pruned once the LST passes `ct`:
    /// a cohort still waiting would pin its `ub` — hence the DC's LST —
    /// below `ct`, so LST > ct proves every cohort committed.
    decided: HashMap<TxId, Timestamp>,
    /// Per-DC flags: `true` while a post-restart catch-up from that
    /// DC's sibling is in flight (its heartbeats are ignored and its
    /// version-vector entry frozen until `CatchUpDone`).
    awaiting: Vec<bool>,
    /// The last `(lst, rst)` written to the WAL, so stable advances are
    /// logged only when they change.
    last_logged_stable: (Timestamp, Timestamp),
    /// How long a coordinator waits on missing prepare votes before
    /// aborting the transaction (see [`WrenServer::set_tx_abort_timeout`]).
    tx_abort_timeout_micros: u64,
    /// Per-DC time the last `CatchUpReq` was sent, so an open catch-up
    /// window whose request died on a broken or parked link is re-asked
    /// periodically instead of freezing the lane forever.
    catchup_sent: Vec<u64>,
    /// Pre-resolved lock-free metric handles (see [`crate::metrics`]).
    metrics: ServerMetrics,
    /// Tx-lifecycle trace ring, dumped by failing chaos oracles.
    trace: ServerTrace,
    /// The last `(lst, rst)` traced/sampled, so visibility-lag metrics
    /// and `Stable` trace events fire once per advance, not per tick.
    last_traced_stable: (Timestamp, Timestamp),
}

/// Default coordinator in-doubt abort timeout: long enough that no
/// healthy 2PC round (microseconds on loopback) ever trips it, short
/// enough that a cohort crash does not pin the DC's LST for long.
const DEFAULT_TX_ABORT_TIMEOUT_MICROS: u64 = 3_000_000;

impl WrenServer {
    /// Creates the replica of partition `id.partition` in DC `id.dc`.
    ///
    /// `clock` is this server's (possibly skewed) physical clock.
    pub fn new(id: ServerId, cfg: WrenConfig, clock: SkewedClock) -> Self {
        let n = cfg.n_partitions as usize;
        let siblings: Vec<ServerId> = (0..cfg.n_dcs)
            .filter(|dc| *dc != id.dc.0)
            .map(|dc| ServerId {
                dc: wren_protocol::DcId(dc),
                partition: id.partition,
            })
            .collect();
        let peers: Vec<ServerId> = (0..cfg.n_partitions)
            .filter(|p| *p != id.partition.0)
            .map(|p| ServerId {
                dc: id.dc,
                partition: wren_protocol::PartitionId(p),
            })
            .collect();
        let children = Self::compute_tree_children(id, &cfg);
        let metrics = ServerMetrics::new();
        let read_stats = Arc::new(ReadPathStats {
            slices_served: metrics.slices_served.clone(),
            keys_read: metrics.keys_read.clone(),
            read_slice_micros: metrics.read_slice_micros.clone(),
        });
        WrenServer {
            id,
            cfg,
            clock,
            hlc: HybridClock::new(),
            vv: VersionVector::new(cfg.n_dcs as usize),
            heard: Timestamp::ZERO,
            store: Arc::new(ConcurrentShardedStore::new()),
            read_stats,
            prepared: HashMap::new(),
            committed: BTreeMap::new(),
            next_seq: 1,
            tx_ctx: HashMap::new(),
            gossip_contrib: vec![(Timestamp::ZERO, Timestamp::ZERO); n],
            gossip_sent: (Timestamp::ZERO, Timestamp::ZERO),
            gc_contrib: vec![(Timestamp::ZERO, Timestamp::ZERO); n],
            stats: ServerStats::default(),
            vis: VisibilitySampler::new(cfg.visibility_sample_every),
            siblings,
            peers,
            children,
            scratch_reads: vec![Vec::new(); n],
            scratch_writes: vec![Vec::new(); n],
            scratch_apply: Vec::new(),
            log: None,
            decided: HashMap::new(),
            awaiting: vec![false; cfg.n_dcs as usize],
            last_logged_stable: (Timestamp::ZERO, Timestamp::ZERO),
            tx_abort_timeout_micros: DEFAULT_TX_ABORT_TIMEOUT_MICROS,
            catchup_sent: vec![0; cfg.n_dcs as usize],
            metrics,
            trace: ServerTrace::new(TRACE_RING_EVENTS),
            last_traced_stable: (Timestamp::ZERO, Timestamp::ZERO),
        }
    }

    /// Children of `id.partition` in the k-ary stabilization tree (empty
    /// in broadcast mode).
    fn compute_tree_children(id: ServerId, cfg: &WrenConfig) -> Vec<ServerId> {
        let f = cfg.gossip_fanout;
        if f == 0 {
            return Vec::new();
        }
        let i = id.partition.0 as u32;
        let n = cfg.n_partitions as u32;
        (1..=f as u32)
            .map(|k| i * f as u32 + k)
            .filter(|c| *c < n)
            .map(|c| ServerId {
                dc: id.dc,
                partition: wren_protocol::PartitionId(c as u16),
            })
            .collect()
    }

    /// This server's identity.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Current local stable time (LST) known to this server.
    pub fn lst(&self) -> Timestamp {
        self.store.lst()
    }

    /// Current remote stable time (RST) known to this server.
    pub fn rst(&self) -> Timestamp {
        self.store.rst()
    }

    /// The local version clock `VV[m]` (the snapshot installed locally).
    pub fn version_clock(&self) -> Timestamp {
        self.vv.get(self.dc_index())
    }

    /// Counters for reporting. Slice-path counters are folded in from the
    /// shared atomics, so reads served through [`SliceReader`] handles on
    /// other threads are included.
    pub fn stats(&self) -> ServerStats {
        let mut stats = self.stats;
        stats.slices_served = self.read_stats.slices_served.get();
        stats.keys_read = self.read_stats.keys_read.get();
        stats.heartbeats_sent = self.metrics.heartbeats_sent.get();
        stats.wal_records_logged = self.log.as_ref().map_or(0, |l| l.records_logged());
        stats
    }

    /// This partition's live metric registry (cheap clone; the cluster
    /// merges per-partition snapshots into [`wren_obs::MetricsSnapshot`]).
    pub fn registry(&self) -> wren_obs::Registry {
        self.metrics.registry().clone()
    }

    /// The pre-resolved metric handles (drivers record session-adjacent
    /// quantities through the same registry).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// This partition's tx-lifecycle trace ring (cheap clone).
    pub fn trace(&self) -> ServerTrace {
        self.trace.clone()
    }

    /// A cheap handle serving read slices from any thread, straight from
    /// this server's shared store (see [`SliceReader`]).
    pub fn reader(&self) -> SliceReader {
        SliceReader {
            dc: self.id.dc.0,
            store: Arc::clone(&self.store),
            read_stats: Arc::clone(&self.read_stats),
        }
    }

    /// The visibility sampler (Fig. 7b data).
    pub fn visibility(&self) -> &VisibilitySampler {
        &self.vis
    }

    /// Mutable access to the visibility sampler (warm-up resets).
    pub fn visibility_mut(&mut self) -> &mut VisibilitySampler {
        &mut self.vis
    }

    /// Read-only access to the store (convergence checks in tests).
    pub fn store(&self) -> &ConcurrentShardedStore<Key, WrenVersion> {
        &self.store
    }

    /// Number of transactions currently prepared but not committed.
    pub fn prepared_len(&self) -> usize {
        self.prepared.len()
    }

    /// Number of transactions committed but not yet applied.
    pub fn committed_len(&self) -> usize {
        self.committed.len()
    }

    fn dc_index(&self) -> usize {
        self.id.dc.index()
    }

    fn partition_of(&self, key: Key) -> PartitionId {
        key.partition(self.cfg.n_partitions)
    }

    fn server(&self, partition: PartitionId) -> ServerId {
        ServerId {
            dc: self.id.dc,
            partition,
        }
    }

    fn raise_stable(&mut self, lst: Timestamp, rst: Timestamp, now_micros: u64) {
        self.store.publish_stable(lst, rst);
        self.vis.advance(self.store.lst(), self.store.rst(), now_micros);
    }

    /// Handles one protocol message arriving from `from` at true time
    /// `now_micros`, appending any responses to `out`.
    pub fn handle(
        &mut self,
        from: Dest,
        msg: WrenMsg,
        now_micros: u64,
        out: &mut Vec<Outgoing<WrenMsg>>,
    ) {
        match msg {
            WrenMsg::StartTxReq { lst, rst } => {
                let Dest::Client(client) = from else {
                    debug_assert!(false, "StartTxReq must come from a client");
                    return;
                };
                self.on_start(client, lst, rst, now_micros, out);
            }
            WrenMsg::TxReadReq { tx, keys } => self.on_read(tx, keys, now_micros, out),
            WrenMsg::SliceReq { tx, lt, rt, keys } => {
                let Dest::Server(coord) = from else {
                    debug_assert!(false, "SliceReq must come from a server");
                    return;
                };
                self.raise_stable(lt, rt, now_micros);
                let items = self.read_slice(&keys, lt, rt);
                out.push(Outgoing::to_server(coord, WrenMsg::SliceResp { tx, items }));
            }
            WrenMsg::SliceResp { tx, items } => self.on_slice_resp(tx, items, out),
            WrenMsg::CommitReq { tx, hwt, writes } => {
                self.on_commit_req(tx, hwt, writes, now_micros, out)
            }
            WrenMsg::PrepareReq {
                tx,
                lt,
                rt,
                ht,
                writes,
            } => {
                let Dest::Server(coord) = from else {
                    debug_assert!(false, "PrepareReq must come from a server");
                    return;
                };
                let pt = self.prepare(tx, lt, rt, ht, writes, now_micros);
                out.push(Outgoing::to_server(coord, WrenMsg::PrepareResp { tx, pt }));
            }
            WrenMsg::PrepareResp { tx, pt } => {
                let Dest::Server(cohort) = from else {
                    debug_assert!(false, "PrepareResp must come from a server");
                    return;
                };
                self.on_prepare_resp(tx, pt, Some(cohort), now_micros, out)
            }
            WrenMsg::Commit { tx, ct } => self.commit(tx, ct, now_micros),
            WrenMsg::Replicate { batch } => {
                let Dest::Server(sibling) = from else {
                    debug_assert!(false, "Replicate must come from a server");
                    return;
                };
                // The successor, not `ct`: the other DC reads remote
                // versions at `rt = min(rst, lt − 1)`, so `ct` becomes
                // readable there only once its own LST is past `ct`.
                self.heard = self.heard.max(batch.ct.successor());
                self.on_replicate(sibling, batch, now_micros);
            }
            WrenMsg::Heartbeat { t } => {
                let Dest::Server(sibling) = from else {
                    debug_assert!(false, "Heartbeat must come from a server");
                    return;
                };
                self.heard = self.heard.max(t);
                // During a catch-up window that DC's heartbeats are
                // ignored: `t` vouches for versions that may have died
                // in the crashed process's inbox and are still being
                // re-shipped; the vector entry unfreezes at CatchUpDone.
                if !self.awaiting[sibling.dc.index()] {
                    self.vv.raise(sibling.dc.index(), t);
                }
            }
            WrenMsg::StableGossip { local, remote } => {
                let Dest::Server(peer) = from else {
                    debug_assert!(false, "StableGossip must come from a server");
                    return;
                };
                self.heard = self.heard.max(local);
                self.gossip_contrib[peer.partition.index()] = (local, remote);
                self.recompute_stable(now_micros);
            }
            WrenMsg::GossipUp { local, remote } => {
                let Dest::Server(child) = from else {
                    debug_assert!(false, "GossipUp must come from a server");
                    return;
                };
                self.heard = self.heard.max(local);
                // A child's subtree minimum: folded in and passed on by
                // the next push (`stabilize` at the end of this turn, or
                // the tick).
                self.gossip_contrib[child.partition.index()] = (local, remote);
            }
            WrenMsg::GossipDown { lst, rst } => {
                // The root's DC-wide stable times: adopt and cascade to
                // our own children immediately (GentleRain-style).
                self.raise_stable(lst, rst, now_micros);
                for &child in &self.children {
                    out.push(Outgoing::to_server(child, WrenMsg::GossipDown { lst, rst }));
                }
                self.metrics
                    .gossip_msgs_sent
                    .add(self.children.len() as u64);
            }
            WrenMsg::GcGossip {
                oldest_lt,
                oldest_rt,
            } => {
                let Dest::Server(peer) = from else {
                    debug_assert!(false, "GcGossip must come from a server");
                    return;
                };
                self.gc_contrib[peer.partition.index()] = (oldest_lt, oldest_rt);
            }
            WrenMsg::CatchUpReq { from: horizon } => {
                let Dest::Server(requester) = from else {
                    debug_assert!(false, "CatchUpReq must come from a server");
                    return;
                };
                self.on_catch_up_req(requester, horizon, out);
            }
            WrenMsg::CatchUpDone { t } => {
                let Dest::Server(sibling) = from else {
                    debug_assert!(false, "CatchUpDone must come from a server");
                    return;
                };
                self.on_catch_up_done(sibling, t);
            }
            // Responses flowing to clients never reach a server.
            WrenMsg::StartTxResp { .. }
            | WrenMsg::TxReadResp { .. }
            | WrenMsg::CommitResp { .. } => {
                debug_assert!(false, "client-bound message delivered to a server");
            }
        }
    }

    /// Algorithm 2 lines 1–6: assign a snapshot and transaction id.
    fn on_start(
        &mut self,
        client: ClientId,
        lst_c: Timestamp,
        rst_c: Timestamp,
        now_micros: u64,
        out: &mut Vec<Outgoing<WrenMsg>>,
    ) {
        self.raise_stable(lst_c, rst_c, now_micros);
        let tx = TxId::new(self.id, self.next_seq);
        self.next_seq += 1;
        let lt = self.store.lst();
        // The remote snapshot is forced strictly below the local one so a
        // client-cache hit is always the freshest visible version under
        // last-writer-wins (§IV-B "Start").
        let rt = self.store.rst().min(lt.predecessor());
        self.tx_ctx.insert(
            tx,
            TxCtx {
                client,
                lt,
                rt,
                pending_slices: 0,
                read_acc: Vec::new(),
                pending_prepares: 0,
                max_pt: Timestamp::ZERO,
                cohorts: Vec::new(),
                responded: Vec::new(),
                since: now_micros,
            },
        );
        self.trace.push(TxEvent::TxBegin { tx, lt });
        out.push(Outgoing::to_client(
            client,
            WrenMsg::StartTxResp { tx, lst: lt, rst: rt },
        ));
    }

    /// Algorithm 2 lines 7–16: fan a read out to the owning partitions.
    fn on_read(
        &mut self,
        tx: TxId,
        keys: Vec<Key>,
        now_micros: u64,
        out: &mut Vec<Outgoing<WrenMsg>>,
    ) {
        let Some(ctx) = self.tx_ctx.get(&tx) else {
            // Unknown transaction: with a real transport this is
            // remote-input-dependent (stale or forged id), so drop
            // rather than assert.
            return;
        };
        let (lt, rt, client) = (ctx.lt, ctx.rt, ctx.client);

        // Group keys by owning partition into the reusable scratch
        // buckets (direct indexing; no per-transaction map allocations).
        let mut groups = std::mem::take(&mut self.scratch_reads);
        for k in keys {
            groups[self.partition_of(k).index()].push(k);
        }

        // Serve the coordinator's own slice without a network hop (clients
        // are collocated with their coordinator, §V-A); its bucket is
        // cleared in place so the capacity is reused next transaction.
        let own = self.id.partition.index();
        let local_items = if groups[own].is_empty() {
            Vec::new()
        } else {
            let local_keys = std::mem::take(&mut groups[own]);
            let items = self.read_slice(&local_keys, lt, rt);
            groups[own] = local_keys;
            groups[own].clear();
            items
        };
        let remote_slices = groups.iter().filter(|g| !g.is_empty()).count();

        let ctx = self.tx_ctx.get_mut(&tx).expect("checked above");
        ctx.read_acc = local_items;
        ctx.pending_slices = remote_slices;

        if remote_slices == 0 {
            let items = std::mem::take(&mut ctx.read_acc);
            out.push(Outgoing::to_client(client, WrenMsg::TxReadResp { tx, items }));
            self.scratch_reads = groups;
            return;
        }
        let _ = now_micros;
        for (partition, bucket) in groups.iter_mut().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            // The outgoing message owns its key list, so the bucket's
            // allocation travels with it; only the empty Vec stays.
            let keys = std::mem::take(bucket);
            out.push(Outgoing::to_server(
                self.server(PartitionId(partition as u16)),
                WrenMsg::SliceReq { tx, lt, rt, keys },
            ));
        }
        self.scratch_reads = groups;
    }

    /// Gathers slice responses; replies to the client when complete.
    fn on_slice_resp(
        &mut self,
        tx: TxId,
        items: Vec<(Key, Option<WrenVersion>)>,
        out: &mut Vec<Outgoing<WrenMsg>>,
    ) {
        let Some(ctx) = self.tx_ctx.get_mut(&tx) else {
            // Unknown transaction (stale or forged id over a real
            // transport): drop.
            return;
        };
        ctx.read_acc.extend(items);
        ctx.pending_slices -= 1;
        if ctx.pending_slices == 0 {
            let items = std::mem::take(&mut ctx.read_acc);
            let client = ctx.client;
            out.push(Outgoing::to_client(client, WrenMsg::TxReadResp { tx, items }));
        }
    }

    /// Algorithm 3 lines 1–12 on the writer path: the code every
    /// [`SliceReader`] runs, over this server's store and counters.
    fn read_slice(
        &self,
        keys: &[Key],
        lt: Timestamp,
        rt: Timestamp,
    ) -> Vec<(Key, Option<WrenVersion>)> {
        read_slice_at(&self.store, &self.read_stats, self.id.dc.0, keys, lt, rt)
    }

    /// Algorithm 2 lines 17–28 (first half): fan the prepare phase out.
    fn on_commit_req(
        &mut self,
        tx: TxId,
        hwt: Timestamp,
        writes: Vec<(Key, Value)>,
        now_micros: u64,
        out: &mut Vec<Outgoing<WrenMsg>>,
    ) {
        let Some(ctx) = self.tx_ctx.get(&tx) else {
            // Unknown transaction (stale or forged id over a real
            // transport): drop.
            return;
        };
        let (lt, rt, client) = (ctx.lt, ctx.rt, ctx.client);

        if writes.is_empty() {
            // Read-only transaction: nothing to prepare; tear the context
            // down so GC watermarks can advance. The zero timestamp tells
            // the client its `hwt` is unchanged.
            self.tx_ctx.remove(&tx);
            out.push(Outgoing::to_client(
                client,
                WrenMsg::CommitResp {
                    tx,
                    ct: Timestamp::ZERO,
                },
            ));
            return;
        }

        let ht = lt.max(rt).max(hwt);
        // Group writes by owning partition into the reusable scratch
        // buckets (no per-transaction map allocations).
        let mut groups = std::mem::take(&mut self.scratch_writes);
        for (k, v) in writes {
            groups[self.partition_of(k).index()].push((k, v));
        }
        let own = self.id.partition.index();

        let cohorts: Vec<PartitionId> = groups
            .iter()
            .enumerate()
            .filter(|(_, g)| !g.is_empty())
            .map(|(p, _)| PartitionId(p as u16))
            .collect();
        let has_local = !groups[own].is_empty();

        {
            let ctx = self.tx_ctx.get_mut(&tx).expect("checked above");
            ctx.pending_prepares = cohorts.len();
            ctx.cohorts = cohorts;
            ctx.max_pt = Timestamp::ZERO;
            ctx.responded.clear();
            // The abort timer runs from the fan-out, not the start: an
            // interactive transaction may legitimately sit idle between
            // operations, but once the prepares are out the client is
            // blocked and votes either arrive or are gone for good.
            ctx.since = now_micros;
        }

        let mut local_writes = Vec::new();
        for (partition, bucket) in groups.iter_mut().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let writes = std::mem::take(bucket);
            if partition == own {
                local_writes = writes;
            } else {
                out.push(Outgoing::to_server(
                    self.server(PartitionId(partition as u16)),
                    WrenMsg::PrepareReq {
                        tx,
                        lt,
                        rt,
                        ht,
                        writes,
                    },
                ));
            }
        }
        self.scratch_writes = groups;
        if has_local {
            let pt = self.prepare(tx, lt, rt, ht, local_writes, now_micros);
            self.on_prepare_resp(tx, pt, None, now_micros, out);
        }
    }

    /// Algorithm 3 lines 13–19: propose a commit timestamp and append to
    /// the pending list.
    fn prepare(
        &mut self,
        tx: TxId,
        lt: Timestamp,
        rt: Timestamp,
        ht: Timestamp,
        writes: Vec<(Key, Value)>,
        now_micros: u64,
    ) -> Timestamp {
        let phys = self.clock.now_micros(now_micros);
        let pt = self.hlc.tick_at_least(phys, ht);
        self.raise_stable(lt, rt, now_micros);
        // The Prepared record must be durable before the vote escapes
        // (the engine's group-commit point sits between handle() and
        // dispatch), or a recovered cohort could disown a transaction
        // the coordinator already committed.
        if let Some(log) = &mut self.log {
            log.log_prepared(tx, pt, rt, &writes);
        }
        self.prepared.insert(
            tx,
            PreparedTx {
                pt,
                rst: rt,
                writes,
                since: now_micros,
            },
        );
        self.trace.push(TxEvent::Prepared { tx, pt });
        pt
    }

    /// Gathers prepare responses; on the last one, fixes the outcome
    /// (durably, when a log is attached), commits everywhere and answers
    /// the client (Algorithm 2 lines 25–28).
    ///
    /// `cohort` is `Some` for votes arriving over the network and `None`
    /// for the coordinator's own in-line prepare. An unknown transaction
    /// with a named cohort is answered from the decision map: after a
    /// coordinator restart, recovered cohorts re-send their votes, and
    /// the decision record (written before any `Commit` left) — or its
    /// absence — is the outcome.
    fn on_prepare_resp(
        &mut self,
        tx: TxId,
        pt: Timestamp,
        cohort: Option<ServerId>,
        now_micros: u64,
        out: &mut Vec<Outgoing<WrenMsg>>,
    ) {
        let Some(ctx) = self.tx_ctx.get_mut(&tx) else {
            if let Some(cohort) = cohort {
                let ct = self.decided.get(&tx).copied().unwrap_or(Timestamp::ZERO);
                out.push(Outgoing::to_server(cohort, WrenMsg::Commit { tx, ct }));
            }
            return;
        };
        if let Some(cohort) = cohort {
            if ctx.responded.contains(&cohort.partition) {
                // Duplicate vote (cohort-side re-send racing the commit).
                return;
            }
            ctx.responded.push(cohort.partition);
        }
        ctx.max_pt = ctx.max_pt.max(pt);
        ctx.pending_prepares -= 1;
        if ctx.pending_prepares > 0 {
            return;
        }
        let ct = ctx.max_pt;
        let client = ctx.client;
        let cohorts = std::mem::take(&mut ctx.cohorts);
        // Stage 1 of the commit path: fan-out to last vote. Measured
        // from the timer the in-doubt abort also runs on, so no extra
        // clock read.
        self.metrics
            .commit_prepare_micros
            .record(now_micros.saturating_sub(ctx.since));
        self.tx_ctx.remove(&tx);
        // Fix the outcome before any Commit message leaves, so a cohort
        // that asks again always gets the same answer.
        self.decided.insert(tx, ct);
        self.trace.push(TxEvent::Decided { tx, ct });
        if let Some(log) = &mut self.log {
            log.append(&WalOp::Decided { tx, ct });
        }
        for partition in cohorts {
            if partition == self.id.partition {
                self.commit(tx, ct, now_micros);
            } else {
                out.push(Outgoing::to_server(
                    self.server(partition),
                    WrenMsg::Commit { tx, ct },
                ));
            }
        }
        self.stats.txs_coordinated += 1;
        out.push(Outgoing::to_client(client, WrenMsg::CommitResp { tx, ct }));
    }

    /// Algorithm 3 lines 20–24: move a transaction from the pending to the
    /// commit list — or drop it when `ct` is zero (the 2PC abort verdict a
    /// restarted coordinator gives for transactions it never decided).
    fn commit(&mut self, tx: TxId, ct: Timestamp, now_micros: u64) {
        if ct.is_zero() {
            // Abort: release the prepared entry so it stops pinning this
            // partition's ub (and with it the DC's LST) forever.
            if self.prepared.remove(&tx).is_some() {
                if let Some(log) = &mut self.log {
                    log.append(&WalOp::Commit {
                        tx,
                        ct: Timestamp::ZERO,
                    });
                }
            }
            return;
        }
        let phys = self.clock.now_micros(now_micros);
        self.hlc.merge(phys, ct);
        let Some(prepared) = self.prepared.remove(&tx) else {
            // Unknown/unprepared transaction (stale or forged id over a
            // real transport, or a duplicate Commit after a vote
            // re-send): drop.
            return;
        };
        if let Some(log) = &mut self.log {
            log.append(&WalOp::Commit { tx, ct });
        }
        // Stage 2: vote sent (or re-sent) to verdict applied here.
        self.metrics
            .commit_decide_micros
            .record(now_micros.saturating_sub(prepared.since));
        self.committed.insert(
            (ct, tx),
            CommittedTx {
                rst: prepared.rst,
                writes: prepared.writes,
                committed_at: now_micros,
            },
        );
        self.stats.txs_cohort_committed += 1;
    }

    /// Applies a replication batch from the sibling replica in `sibling`'s
    /// DC (Algorithm 4 lines 22–26).
    ///
    /// The whole batch shares one commit timestamp, so it is applied with
    /// the store's batched splice ([`ShardedStore::apply_batch`]): the
    /// writes are flattened into a reusable scratch buffer and each key's
    /// run pays a single chain search instead of one per version.
    fn on_replicate(&mut self, sibling: ServerId, batch: ReplicateBatch, now_micros: u64) {
        let src = sibling.dc;
        let ct = batch.ct;
        // Replication lag: age of the batch's commit timestamp at apply.
        // Saturating — sibling clocks may run ahead of ours.
        self.metrics
            .replication_lag_micros
            .record(now_micros.saturating_sub(ct.physical_micros()));
        let catching_up = self.awaiting[src.index()];
        if let Some(log) = &mut self.log {
            log.log_remote_batch(src.0, !catching_up, ct, &batch.txs);
        }
        if catching_up {
            // Catch-up re-delivery: versions may already be present
            // (applied and logged before the crash), so the idempotent
            // insert dedups on the LWW order key. The vector entry for
            // `src` stays frozen — these batches sit *below* the
            // pre-crash `VV[src]`, which only advances again at
            // CatchUpDone.
            let mut applied = 0u64;
            for rep in batch.txs {
                for (k, v) in rep.writes {
                    let version = WrenVersion {
                        value: v,
                        ut: ct,
                        rdt: rep.rst,
                        tx: rep.tx,
                        sr: src,
                    };
                    if self.store.insert_if_new(k, version) {
                        applied += 1;
                    }
                }
            }
            self.stats.remote_versions_applied += applied;
            return;
        }
        let mut items = std::mem::take(&mut self.scratch_apply);
        debug_assert!(items.is_empty());
        for rep in batch.txs {
            for (k, v) in rep.writes {
                items.push((
                    k,
                    WrenVersion {
                        value: v,
                        ut: ct,
                        rdt: rep.rst,
                        tx: rep.tx,
                        sr: src,
                    },
                ));
            }
            self.vis.register_remote(ct);
        }
        let applied = self.store.apply_batch(&mut items);
        self.stats.remote_versions_applied += applied as u64;
        self.scratch_apply = items;
        self.vv.raise(src.index(), ct);
    }

    /// Algorithm 4 lines 5–21 (Δ_R): apply committed transactions in
    /// commit-timestamp order, advance the version clock to the physical
    /// clock (or just below the lowest prepared proposal) and ship
    /// replication batches (or a heartbeat when nothing was committed).
    ///
    /// This is the only place the version clock follows physical time.
    /// For a driver that only ticks, it is also the only place the
    /// version clock moves, so a write waits up to Δ_R here before any
    /// partition can count it stable. A driver that also calls
    /// [`advance`](Self::advance) every turn leaves the tick two jobs:
    /// the idle heartbeat, and moving the cut with time when nothing
    /// commits.
    ///
    /// Returns the number of versions applied (drivers use it to charge
    /// CPU time proportional to the work done).
    pub fn on_replication_tick(
        &mut self,
        now_micros: u64,
        out: &mut Vec<Outgoing<WrenMsg>>,
    ) -> usize {
        let applied = self.apply_and_ship(now_micros, None, out);
        if applied.is_some() {
            self.metrics.vv_advances_tick.inc();
        }
        applied.unwrap_or(0)
    }

    /// Event-driven replication: raises `VV[m]` to the newest timestamp
    /// this partition has committed (its successor) or heard from a peer
    /// or sibling, applies what that covers and ships it — the body of
    /// [`on_replication_tick`](Self::on_replication_tick) capped at that
    /// timestamp instead of the physical clock. Returns whether `VV[m]`
    /// moved; when nothing newer was committed or heard it costs a few
    /// compares and sends nothing.
    ///
    /// A driver calls this at the end of each turn, before
    /// [`stabilize`](Self::stabilize), so a commit is applied, shipped and
    /// counted in the stable cut in the turn it lands, and a peer that
    /// hears of it follows in the turn the news arrives: a write becomes
    /// visible after a few message delays instead of up to Δ_R later.
    ///
    /// The cap is never the physical clock (peers would chase each
    /// other's clocks message by message; the tick does that once per
    /// Δ_R) and never a bare `ct` (a commit whose coordinator was also
    /// its only cohort would then wait for a tick to be readable from
    /// another DC, where `rt < lt`).
    pub fn advance(&mut self, now_micros: u64, out: &mut Vec<Outgoing<WrenMsg>>) -> bool {
        let newest_commit = self
            .committed
            .last_key_value()
            .map_or(Timestamp::ZERO, |((ct, _), _)| ct.successor());
        let cap = self.heard.max(newest_commit);
        if cap <= self.version_clock() {
            return false;
        }
        let moved = self.apply_and_ship(now_micros, Some(cap), out).is_some();
        if moved {
            self.metrics.vv_advances_event.inc();
        }
        moved
    }

    /// Algorithm 4 lines 5–21 with the version clock's target capped at
    /// `cap` (`None` for the tick: the hybrid clock). Returns the
    /// versions applied, or `None` when `VV[m]` did not move.
    fn apply_and_ship(
        &mut self,
        now_micros: u64,
        cap: Option<Timestamp>,
        out: &mut Vec<Outgoing<WrenMsg>>,
    ) -> Option<usize> {
        let phys = self.clock.now_micros(now_micros);
        // Absorb physical time and the cap, so that ub is a genuine lower
        // bound on every future proposal (future pts are > HLC ≥ ub; see
        // struct docs).
        self.hlc.merge(phys, cap.unwrap_or(Timestamp::ZERO));

        let ub = if self.prepared.is_empty() {
            self.hlc.current()
        } else {
            self.prepared
                .values()
                .map(|p| p.pt)
                .min()
                .expect("non-empty")
                .predecessor()
        };
        let ub = cap.map_or(ub, |cap| ub.min(cap));

        if ub <= self.version_clock() {
            return None;
        }

        let mut applied = 0usize;
        if self.committed.is_empty() {
            self.vv.set(self.dc_index(), ub);
            for &sibling in &self.siblings {
                out.push(Outgoing::to_server(sibling, WrenMsg::Heartbeat { t: ub }));
            }
            self.metrics.heartbeats_sent.add(self.siblings.len() as u64);
            return Some(0);
        }

        // Split off the transactions with ct ≤ ub, in ascending ct order.
        let keep = self.committed.split_off(&(ub.successor(), TxId::from_raw(0)));
        let ready = std::mem::replace(&mut self.committed, keep);

        let mut batch: Vec<RepTx> = Vec::new();
        let mut batch_ct = Timestamp::ZERO;
        let mut txs_applied = 0u64;
        for ((ct, tx), ctx) in ready {
            if ct != batch_ct && !batch.is_empty() {
                self.ship_batch(batch_ct, std::mem::take(&mut batch), out);
            }
            batch_ct = ct;
            // Stage 3: commit verdict to local install (skipped for
            // entries re-built by recovery, which have no verdict time).
            if ctx.committed_at != 0 {
                self.metrics
                    .commit_apply_micros
                    .record(now_micros.saturating_sub(ctx.committed_at));
            }
            txs_applied += 1;
            for (k, v) in &ctx.writes {
                self.store.insert(
                    *k,
                    WrenVersion {
                        value: v.clone(),
                        ut: ct,
                        rdt: ctx.rst,
                        tx,
                        sr: self.id.dc,
                    },
                );
                applied += 1;
                self.stats.local_versions_applied += 1;
            }
            self.vis.register_local(ct);
            batch.push(RepTx {
                tx,
                rst: ctx.rst,
                writes: ctx.writes,
            });
        }
        if !batch.is_empty() {
            self.ship_batch(batch_ct, batch, out);
        }
        self.vv.set(self.dc_index(), ub);
        self.trace.push(TxEvent::Applied { ub, txs: txs_applied });
        // One Applied record per data-bearing advance: replay re-installs
        // the covered transactions and re-raises the version clock. The
        // heartbeat path above intentionally logs nothing — its ub
        // carries no data, and the clock re-advances after recovery.
        if let Some(log) = &mut self.log {
            log.append(&WalOp::Applied { ub });
        }
        Some(applied)
    }

    fn ship_batch(&mut self, ct: Timestamp, mut txs: Vec<RepTx>, out: &mut Vec<Outgoing<WrenMsg>>) {
        self.metrics.replication_batch_txs.record(txs.len() as u64);
        // The last sibling takes ownership of the batch; only the others
        // pay for a deep clone of the transaction list.
        let n = self.siblings.len();
        for (i, &sibling) in self.siblings.iter().enumerate() {
            let batch_txs = if i + 1 == n {
                std::mem::take(&mut txs)
            } else {
                txs.clone()
            };
            out.push(Outgoing::to_server(
                sibling,
                WrenMsg::Replicate {
                    batch: ReplicateBatch { ct, txs: batch_txs },
                },
            ));
        }
        self.stats.replicate_batches_sent += n as u64;
    }

    /// Algorithm 4 lines 29–31 (Δ_G): the periodic half of
    /// stabilization. Runs the crash-resolution work that lives on this
    /// cadence (`durability_tick`: vote re-sends, in-doubt aborts, the
    /// `Stable` WAL record), then pushes this partition's BiST
    /// contribution *unconditionally*.
    ///
    /// For a driver that only ticks, this is the paper's exchange: every
    /// Δ_G each partition sends its two scalars and refreshes LST/RST.
    /// For a driver that also calls [`stabilize`](Self::stabilize), the
    /// contribution has usually left already, and the tick is the idle
    /// heartbeat: its unconditional push repairs one lost to a severed
    /// link or a dropped message, which a quiet partition would otherwise
    /// never re-send, freezing the cut.
    pub fn on_gossip_tick(&mut self, now_micros: u64, out: &mut Vec<Outgoing<WrenMsg>>) {
        self.durability_tick(now_micros, out);
        let contribution = self.stable_contribution();
        self.push_stable(contribution, now_micros, out);
    }

    /// Change-driven stabilization: pushes this partition's BiST
    /// contribution exactly as [`on_gossip_tick`](Self::on_gossip_tick)
    /// does, but only if it moved since the last push. When nothing
    /// moved it costs a few compares and sends nothing.
    ///
    /// A driver calls this at the end of each turn (after a burst of
    /// messages or a tick) to make a write visible as soon as the version
    /// clocks pass it, instead of waiting for the next Δ_G. In tree mode
    /// that includes a turn that only received a child's `GossipUp`: the
    /// child's subtree minimum is folded in and passed on, so the root
    /// answers in the same turn and a tree level costs one message
    /// delay, not one tick.
    pub fn stabilize(&mut self, now_micros: u64, out: &mut Vec<Outgoing<WrenMsg>>) {
        let contribution = self.stable_contribution();
        if contribution != self.gossip_sent {
            self.push_stable(contribution, now_micros, out);
        }
    }

    /// This partition's BiST contribution: its own `(VV[m], min_{i≠m}
    /// VV[i])`, folded in tree mode with its children's last `GossipUp`.
    fn stable_contribution(&self) -> (Timestamp, Timestamp) {
        let mut local = self.version_clock();
        let mut remote = self.vv.min_except(self.dc_index());
        for child in &self.children {
            let (cl, cr) = self.gossip_contrib[child.partition.index()];
            local = local.min(cl);
            remote = remote.min(cr);
        }
        (local, remote)
    }

    /// Sends `contribution` (from [`stable_contribution`]) and refreshes
    /// LST/RST.
    ///
    /// With [`WrenConfig::gossip_fanout`] = 0, every partition broadcasts
    /// to every other. Otherwise contributions aggregate up a k-ary tree
    /// and the root's result cascades back down, reducing the per-round
    /// message count from N(N−1) to 2(N−1).
    ///
    /// [`stable_contribution`]: Self::stable_contribution
    fn push_stable(
        &mut self,
        (local, remote): (Timestamp, Timestamp),
        now_micros: u64,
        out: &mut Vec<Outgoing<WrenMsg>>,
    ) {
        self.gossip_sent = (local, remote);
        if self.cfg.gossip_fanout == 0 {
            self.gossip_contrib[self.id.partition.index()] = (local, remote);
            for &peer in &self.peers {
                out.push(Outgoing::to_server(
                    peer,
                    WrenMsg::StableGossip { local, remote },
                ));
            }
            self.metrics.gossip_msgs_sent.add(self.peers.len() as u64);
            self.recompute_stable(now_micros);
            return;
        }
        match self.tree_parent() {
            Some(parent) => {
                out.push(Outgoing::to_server(
                    parent,
                    WrenMsg::GossipUp { local, remote },
                ));
                self.metrics.gossip_msgs_sent.inc();
            }
            None => {
                // Root: the subtree minimum covers the whole DC.
                self.raise_stable(local, remote, now_micros);
                let (lst, rst) = self.store.stable();
                for &child in &self.children {
                    out.push(Outgoing::to_server(child, WrenMsg::GossipDown { lst, rst }));
                }
                self.metrics
                    .gossip_msgs_sent
                    .add(self.children.len() as u64);
            }
        }
    }

    /// This partition's parent in the k-ary stabilization tree (root =
    /// partition 0), or `None` at the root / in broadcast mode.
    fn tree_parent(&self) -> Option<ServerId> {
        let f = self.cfg.gossip_fanout;
        let i = self.id.partition.0;
        if f == 0 || i == 0 {
            return None;
        }
        Some(self.server(wren_protocol::PartitionId((i - 1) / f)))
    }

    fn recompute_stable(&mut self, now_micros: u64) {
        let lst = self
            .gossip_contrib
            .iter()
            .map(|(l, _)| *l)
            .min()
            .unwrap_or(Timestamp::ZERO);
        let rst = self
            .gossip_contrib
            .iter()
            .map(|(_, r)| *r)
            .min()
            .unwrap_or(Timestamp::ZERO);
        self.raise_stable(lst, rst, now_micros);
    }

    /// GC tick: broadcast the oldest snapshot visible to a transaction
    /// running here, then prune version chains below the DC-wide minimum
    /// (§IV-B "Garbage collection"), and publish what the tick took and
    /// what the store holds after it (`gc_tick_micros`,
    /// `gc_versions_removed`, the `store_*` gauges).
    ///
    /// Returns the number of versions collected.
    pub fn on_gc_tick(&mut self, _now_micros: u64, out: &mut Vec<Outgoing<WrenMsg>>) -> usize {
        let started = std::time::Instant::now();
        let removed = self.gossip_and_collect(out);
        self.stats.gc_versions_removed += removed as u64;
        self.metrics.gc_versions_removed.add(removed as u64);
        let store = self.store.stats();
        self.metrics.store_keys.set(store.keys as u64);
        self.metrics.store_versions.set(store.versions as u64);
        self.metrics
            .store_multi_version_chains
            .set(store.multi_version_chains as u64);
        self.metrics.store_heap_bytes.set(store.heap_bytes as u64);
        self.metrics
            .gc_tick_micros
            .record(started.elapsed().as_micros() as u64);
        removed
    }

    /// The protocol half of the GC tick; returns the versions removed.
    fn gossip_and_collect(&mut self, out: &mut Vec<Outgoing<WrenMsg>>) -> usize {
        // Oldest active snapshot, or the current visible snapshot if idle.
        let (lst, rst) = self.store.stable();
        let (mut oldest_lt, mut oldest_rt) = (lst, rst.min(lst.predecessor()));
        for ctx in self.tx_ctx.values() {
            oldest_lt = oldest_lt.min(ctx.lt);
            oldest_rt = oldest_rt.min(ctx.rt);
        }
        self.gc_contrib[self.id.partition.index()] = (oldest_lt, oldest_rt);
        for &peer in &self.peers {
            out.push(Outgoing::to_server(
                peer,
                WrenMsg::GcGossip {
                    oldest_lt,
                    oldest_rt,
                },
            ));
        }

        let w_lt = self
            .gc_contrib
            .iter()
            .map(|(l, _)| *l)
            .min()
            .unwrap_or(Timestamp::ZERO);
        let w_rt = self
            .gc_contrib
            .iter()
            .map(|(_, r)| *r)
            .min()
            .unwrap_or(Timestamp::ZERO);
        if w_lt.is_zero() && w_rt.is_zero() {
            return 0;
        }
        self.store
            .collect(&SnapshotBound::bist(self.id.dc.0, w_lt, w_rt))
    }

    // ------------------------------------------------------------------
    // Durability: recovery, checkpoints and crash-resolution plumbing.
    // See the `durability` module docs for the WAL → checkpoint →
    // recovery layering; the engine in `wren-rt` drives the commit
    // points and checkpoint ticks.
    // ------------------------------------------------------------------

    /// Rebuilds the partition from its durability directory and attaches
    /// the log: loads the newest valid checkpoint, replays every WAL
    /// record after it, resolves transactions this server coordinated
    /// whose outcome is in doubt, and restores the causal cut — all
    /// before the server accepts traffic. An empty or missing directory
    /// yields a fresh durable server.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors or a checkpoint whose CRC validates
    /// but whose typed payload no longer decodes.
    pub fn recover(
        id: ServerId,
        cfg: WrenConfig,
        clock: SkewedClock,
        dir: &Path,
        policy: FsyncPolicy,
    ) -> std::io::Result<Self> {
        let boot = DurableLog::open(dir, policy)?;
        let mut s = WrenServer::new(id, cfg, clock);
        if let Some(payload) = &boot.checkpoint {
            s.apply_checkpoint(payload).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, format!("checkpoint: {e}"))
            })?;
        }
        let mut max_seen = s.hlc.current();
        let mut max_own_seq = s.next_seq;
        for op in &boot.ops {
            s.replay(op, &mut max_seen, &mut max_own_seq);
        }
        // Resolve transactions this server coordinated that are still
        // prepared locally. The decision record was durable before any
        // Commit left, so: a decision says commit; no decision says the
        // decision point was never reached — abort, releasing the pin
        // on ub. Either way the resolution is deterministic, so it need
        // not be re-logged (a second crash replays to the same point).
        let own_prepared: Vec<TxId> = s
            .prepared
            .keys()
            .filter(|tx| tx.dc() == id.dc && tx.partition() == id.partition)
            .copied()
            .collect();
        for tx in own_prepared {
            match s.decided.get(&tx).copied() {
                Some(ct) => {
                    s.replay(&WalOp::Commit { tx, ct }, &mut max_seen, &mut max_own_seq);
                }
                None => {
                    s.prepared.remove(&tx);
                }
            }
        }
        // Clock floor: every pt this server issued is ≤ max_seen under
        // `FsyncPolicy::Always` (the record is durable before the vote
        // escapes); the one-second jump also absorbs the EveryN/Off
        // loss window so a reissued proposal cannot order below a
        // pre-crash one that escaped unlogged. A directory that held
        // nothing had no previous life to order after: a fresh durable
        // server starts at zero like a volatile one, not a second ahead
        // of the physical clock.
        if boot.checkpoint.is_some() || !boot.ops.is_empty() {
            s.hlc = HybridClock::starting_at(Timestamp::from_parts(
                max_seen.physical_micros() + 1_000_000,
                0,
            ));
        }
        // Never reuse a transaction id: coordinator contexts are
        // volatile, so ids above the highest logged one may have been
        // handed out and lost — the margin jumps past them.
        s.next_seq = max_own_seq + (1 << 20);
        s.last_logged_stable = s.store.stable();
        let mut log = boot.log;
        log.instrument(
            s.metrics.wal_fsync_micros.clone(),
            s.metrics.wal_append_bytes.clone(),
            s.metrics.wal_group_commit_size.clone(),
        );
        s.log = Some(log);
        Ok(s)
    }

    /// Applies one WAL record to the recovering state. `max_seen`
    /// accumulates every timestamp this server may have issued;
    /// `max_own_seq` the highest own-coordinated sequence plus one.
    fn replay(&mut self, op: &WalOp, max_seen: &mut Timestamp, max_own_seq: &mut u64) {
        match op {
            WalOp::Prepared { tx, pt, rst, writes } => {
                *max_seen = (*max_seen).max(*pt);
                self.note_own_seq(*tx, max_own_seq);
                self.prepared.insert(
                    *tx,
                    PreparedTx {
                        pt: *pt,
                        rst: *rst,
                        writes: writes.clone(),
                        since: 0,
                    },
                );
            }
            WalOp::Decided { tx, ct } => {
                *max_seen = (*max_seen).max(*ct);
                self.note_own_seq(*tx, max_own_seq);
                self.decided.insert(*tx, *ct);
            }
            WalOp::Commit { tx, ct } => {
                *max_seen = (*max_seen).max(*ct);
                self.note_own_seq(*tx, max_own_seq);
                if ct.is_zero() {
                    self.prepared.remove(tx);
                } else if let Some(p) = self.prepared.remove(tx) {
                    self.committed.insert(
                        (*ct, *tx),
                        CommittedTx {
                            rst: p.rst,
                            writes: p.writes,
                            committed_at: 0,
                        },
                    );
                }
            }
            WalOp::Applied { ub } => {
                *max_seen = (*max_seen).max(*ub);
                let keep = self.committed.split_off(&(ub.successor(), TxId::from_raw(0)));
                let ready = std::mem::replace(&mut self.committed, keep);
                for ((ct, tx), ctx) in ready {
                    for (k, v) in ctx.writes {
                        self.store.insert_if_new(
                            k,
                            WrenVersion {
                                value: v,
                                ut: ct,
                                rdt: ctx.rst,
                                tx,
                                sr: self.id.dc,
                            },
                        );
                    }
                }
                self.vv.raise(self.dc_index(), *ub);
            }
            WalOp::RemoteBatch { src, raise, ct, txs } => {
                for rep in txs {
                    for (k, v) in &rep.writes {
                        self.store.insert_if_new(
                            *k,
                            WrenVersion {
                                value: v.clone(),
                                ut: *ct,
                                rdt: rep.rst,
                                tx: rep.tx,
                                sr: DcId(*src),
                            },
                        );
                    }
                }
                if *raise {
                    self.vv.raise(DcId(*src).index(), *ct);
                }
            }
            WalOp::Stable { lst, rst } => {
                self.store.publish_stable(*lst, *rst);
            }
            WalOp::CatchUpDone { src, t } => {
                self.vv.raise(DcId(*src).index(), *t);
            }
        }
    }

    fn note_own_seq(&self, tx: TxId, max_own_seq: &mut u64) {
        if tx.dc() == self.id.dc && tx.partition() == self.id.partition {
            *max_own_seq = (*max_own_seq).max(tx.seq() + 1);
        }
    }

    /// Serializes the partition's complete durable state: clocks, vector,
    /// stable cut, 2PC lists, decision map, and the store dumped stripe
    /// by stripe (each stripe under its read lock, so concurrent slice
    /// readers stall on at most one stripe at a time).
    fn encode_checkpoint(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(1024 + self.store.stats().versions * 48);
        e.put_vv(&self.vv);
        e.put_ts(self.hlc.current());
        let (lst, rst) = self.store.stable();
        e.put_ts(lst);
        e.put_ts(rst);
        e.put_u64(self.next_seq);
        e.put_u32(self.prepared.len() as u32);
        for (tx, p) in &self.prepared {
            e.put_tx(*tx);
            e.put_ts(p.pt);
            e.put_ts(p.rst);
            put_writes(&mut e, &p.writes);
        }
        e.put_u32(self.committed.len() as u32);
        for ((ct, tx), c) in &self.committed {
            e.put_ts(*ct);
            e.put_tx(*tx);
            e.put_ts(c.rst);
            put_writes(&mut e, &c.writes);
        }
        e.put_u32(self.decided.len() as u32);
        for (tx, ct) in &self.decided {
            e.put_tx(*tx);
            e.put_ts(*ct);
        }
        e.put_u32(self.store.n_stripes() as u32);
        for stripe in 0..self.store.n_stripes() {
            self.store.with_stripe(stripe, |s| {
                e.put_u32(s.stats().versions as u32);
                for (key, chain) in s.iter() {
                    for v in chain.iter() {
                        e.put_key(*key);
                        e.put_value(&v.value);
                        e.put_ts(v.ut);
                        e.put_ts(v.rdt);
                        e.put_tx(v.tx);
                        e.put_dc(v.sr);
                    }
                }
            });
        }
        e.finish().to_vec()
    }

    /// Restores [`encode_checkpoint`](Self::encode_checkpoint) state onto
    /// a fresh server (recovery only).
    fn apply_checkpoint(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut d = Dec::new(bytes);
        self.vv = d.get_vv()?;
        self.hlc = HybridClock::starting_at(d.get_ts()?);
        let lst = d.get_ts()?;
        let rst = d.get_ts()?;
        self.store.publish_stable(lst, rst);
        self.next_seq = d.get_u64()?;
        for _ in 0..d.get_u32()? {
            let tx = d.get_tx()?;
            let pt = d.get_ts()?;
            let p_rst = d.get_ts()?;
            let writes = get_writes(&mut d)?;
            self.prepared.insert(
                tx,
                PreparedTx {
                    pt,
                    rst: p_rst,
                    writes,
                    since: 0,
                },
            );
        }
        for _ in 0..d.get_u32()? {
            let ct = d.get_ts()?;
            let tx = d.get_tx()?;
            let c_rst = d.get_ts()?;
            let writes = get_writes(&mut d)?;
            self.committed
                .insert((ct, tx), CommittedTx { rst: c_rst, writes, committed_at: 0 });
        }
        for _ in 0..d.get_u32()? {
            let tx = d.get_tx()?;
            let ct = d.get_ts()?;
            self.decided.insert(tx, ct);
        }
        for _ in 0..d.get_u32()? {
            for _ in 0..d.get_u32()? {
                let key = d.get_key()?;
                let value = d.get_value()?;
                let ut = d.get_ts()?;
                let rdt = d.get_ts()?;
                let tx = d.get_tx()?;
                let sr = d.get_dc()?;
                self.store.insert_if_new(key, WrenVersion { value, ut, rdt, tx, sr });
            }
        }
        d.expect_end()?;
        Ok(())
    }

    /// Snapshots the partition into a new checkpoint generation and
    /// rotates the WAL (no-op without a log). The previous generation is
    /// retained as the corruption fallback.
    pub fn write_checkpoint(&mut self) -> std::io::Result<()> {
        if self.log.is_none() {
            return Ok(());
        }
        let start = std::time::Instant::now();
        let payload = self.encode_checkpoint();
        self.log.as_mut().expect("checked").rotate(&payload)?;
        self.stats.checkpoints_written += 1;
        self.metrics
            .checkpoint_micros
            .record(start.elapsed().as_micros() as u64);
        Ok(())
    }

    /// Marks a group-commit point: buffered WAL records become durable
    /// per the fsync policy (no-op without a log, and when the burst
    /// logged nothing). The engine calls this after a burst of handled
    /// messages, before dispatching the outputs those records justify —
    /// so nothing ACKed or shipped can outrun the log.
    pub fn log_commit_point(&mut self) -> std::io::Result<()> {
        match &mut self.log {
            Some(l) => l.commit_point(),
            None => Ok(()),
        }
    }

    /// Flushes and fsyncs the WAL regardless of policy (graceful stop).
    pub fn seal_log(&mut self) -> std::io::Result<()> {
        match &mut self.log {
            Some(l) => l.seal(),
            None => Ok(()),
        }
    }

    /// When the WAL's open group-commit window must close — `Some`
    /// exactly while the policy is `FsyncPolicy::Window` and the log has
    /// unsynced bytes. While `Some`, the engine holds the outputs that
    /// [assert logged state](crate::asserts_logged_state) and joins the
    /// deadline into its tick schedule.
    pub fn log_sync_deadline(&self) -> Option<std::time::Instant> {
        self.log.as_ref().and_then(|l| l.sync_deadline())
    }

    /// Fsyncs the WAL now, closing any open group-commit window (no-op
    /// without a log).
    pub fn sync_log(&mut self) -> std::io::Result<()> {
        match &mut self.log {
            Some(l) => l.sync_now(),
            None => Ok(()),
        }
    }

    /// Whether a durability log is attached.
    pub fn is_durable(&self) -> bool {
        self.log.is_some()
    }

    /// The active WAL file and its fsynced length (`None` without a
    /// log): truncating the file to that length is the byte-level model
    /// of a power cut, as opposed to a process kill, which keeps
    /// everything the OS was handed.
    pub fn log_synced_prefix(&self) -> Option<(std::path::PathBuf, u64)> {
        self.log.as_ref().map(|l| {
            let (path, len) = l.synced_prefix();
            (path.to_path_buf(), len)
        })
    }

    /// The highest timestamp in this server's clock state: the hybrid
    /// clock (after [`recover`](Self::recover), its floor) and the
    /// version vector — which also bounds the stable cut, a minimum over
    /// vector entries (whose remote half in a single-DC cluster is the
    /// `MAX` sentinel, not a time). A driver that starts physical time
    /// afresh over recovered servers must start it at or above this on
    /// every one of them: below it, new commits are stamped by the
    /// logical counter alone and stay invisible until physical time has
    /// caught up with the previous life.
    pub fn max_timestamp(&self) -> Timestamp {
        self.vv.iter().fold(self.hlc.current(), Timestamp::max)
    }

    /// Begins post-restart catch-up: asks every sibling to re-ship its
    /// local transactions above our recovered version-vector entry, and
    /// freezes that entry (heartbeats included) until the sibling's
    /// `CatchUpDone` closes the window. The request is re-sent from
    /// [`durability_tick`] while the window stays open, so a sibling
    /// that is itself down (or reachable only through a parked link)
    /// still gets asked once it returns.
    pub fn begin_rejoin(&mut self, now_micros: u64, out: &mut Vec<Outgoing<WrenMsg>>) {
        self.trace.push(TxEvent::Rejoin { server: self.id });
        for i in 0..self.siblings.len() {
            let sib = self.siblings[i];
            self.open_catch_up_window(sib, now_micros, out);
        }
    }

    /// Reacts to a broken live TCP link carrying traffic *from* `peer`,
    /// or to a fresh one (whose predecessor may have died unseen, before
    /// its handshake arrived): frames in flight on the old link —
    /// replication batches and heartbeats from a sibling — died with the
    /// connection, and silently resuming on a fresh connection would let
    /// a later heartbeat vouch for versions this server never received. For a sibling replica the lane is
    /// therefore frozen and re-asked exactly as a restart does
    /// ([`begin_rejoin`](Self::begin_rejoin)); links from same-DC peers
    /// need no reaction — 2PC votes are re-sent periodically, slices
    /// are retried by the client, and gossip/GC are refreshed every
    /// tick, so nothing on them is load-bearing once lost.
    pub fn on_peer_link_lost(
        &mut self,
        peer: ServerId,
        now_micros: u64,
        out: &mut Vec<Outgoing<WrenMsg>>,
    ) {
        if peer.dc == self.id.dc || peer.partition != self.id.partition {
            return;
        }
        self.trace.push(TxEvent::LinkLost { peer });
        self.open_catch_up_window(peer, now_micros, out);
    }

    /// Freezes `sibling`'s replication lane and asks it to re-ship
    /// everything above our version-vector entry.
    fn open_catch_up_window(
        &mut self,
        sibling: ServerId,
        now_micros: u64,
        out: &mut Vec<Outgoing<WrenMsg>>,
    ) {
        let i = sibling.dc.index();
        self.awaiting[i] = true;
        self.catchup_sent[i] = now_micros;
        out.push(Outgoing::to_server(
            sibling,
            WrenMsg::CatchUpReq {
                from: self.vv.get(i),
            },
        ));
    }

    /// Serves a restarted sibling's catch-up: re-ship every local-origin
    /// version with `ut > horizon` as ordinary `Replicate` batches (one
    /// per distinct commit timestamp, chunked), closed by a
    /// `CatchUpDone` carrying this server's version clock. Every such
    /// version has `ut ≤ VV[m]` — only applied transactions reach the
    /// store — so the closing clock covers exactly what was re-sent;
    /// committed-but-unapplied transactions have `ct > VV[m]` and flow
    /// through normal replication afterwards.
    fn on_catch_up_req(
        &mut self,
        requester: ServerId,
        horizon: Timestamp,
        out: &mut Vec<Outgoing<WrenMsg>>,
    ) {
        let own_dc = self.id.dc;
        let mut by_tx: BTreeMap<(Timestamp, TxId), RepTx> = BTreeMap::new();
        for stripe in 0..self.store.n_stripes() {
            self.store.with_stripe(stripe, |s| {
                for (key, chain) in s.iter() {
                    for v in chain.iter() {
                        if v.sr == own_dc && v.ut > horizon {
                            by_tx
                                .entry((v.ut, v.tx))
                                .or_insert_with(|| RepTx {
                                    tx: v.tx,
                                    rst: v.rdt,
                                    writes: Vec::new(),
                                })
                                .writes
                                .push((*key, v.value.clone()));
                        }
                    }
                }
            });
        }
        const CATCH_UP_CHUNK: usize = 1024;
        let mut batch: Vec<RepTx> = Vec::new();
        let mut batch_ct = Timestamp::ZERO;
        for ((ct, _), rep) in by_tx {
            if (ct != batch_ct || batch.len() >= CATCH_UP_CHUNK) && !batch.is_empty() {
                out.push(Outgoing::to_server(
                    requester,
                    WrenMsg::Replicate {
                        batch: ReplicateBatch {
                            ct: batch_ct,
                            txs: std::mem::take(&mut batch),
                        },
                    },
                ));
            }
            batch_ct = ct;
            batch.push(rep);
        }
        if !batch.is_empty() {
            out.push(Outgoing::to_server(
                requester,
                WrenMsg::Replicate {
                    batch: ReplicateBatch {
                        ct: batch_ct,
                        txs: batch,
                    },
                },
            ));
        }
        out.push(Outgoing::to_server(
            requester,
            WrenMsg::CatchUpDone {
                t: self.version_clock(),
            },
        ));
    }

    /// Closes a catch-up window: everything the sibling vouches for (its
    /// version clock at scan time) is applied, so the frozen vector
    /// entry may advance again.
    fn on_catch_up_done(&mut self, sibling: ServerId, t: Timestamp) {
        let src = sibling.dc;
        if self.awaiting[src.index()] {
            self.awaiting[src.index()] = false;
            self.trace.push(TxEvent::LinkHealed { peer: sibling });
            if let Some(log) = &mut self.log {
                log.append(&WalOp::CatchUpDone { src: src.0, t });
            }
        }
        self.vv.raise(src.index(), t);
    }

    /// Overrides the coordinator's in-doubt abort timeout (default 3 s):
    /// how long a 2PC fan-out may wait on missing prepare votes before
    /// the coordinator aborts the transaction. Chaos/failover tests
    /// shrink it so a cohort crash resolves within the test's patience;
    /// production-shaped drivers leave the default.
    pub fn set_tx_abort_timeout(&mut self, micros: u64) {
        self.tx_abort_timeout_micros = micros;
    }

    /// Crash-resolution periodic work, run at every gossip tick: prune
    /// the decision map below the LST, re-ask open catch-up windows,
    /// re-send votes for transactions prepared but undecided for too
    /// long (their coordinator — or the vote itself — may have died),
    /// abort 2PC rounds whose missing votes are past the in-doubt
    /// timeout, and log stable advances (durable mode).
    ///
    /// Everything except the stable logging runs with or without a log
    /// attached: on a TCP fabric, links break and lose messages whether
    /// or not the partition is durable.
    fn durability_tick(&mut self, now_micros: u64, out: &mut Vec<Outgoing<WrenMsg>>) {
        let lst = self.store.lst();
        self.decided.retain(|_, ct| *ct > lst);

        // Visibility lag (freshness): how far the stable cut trails true
        // time. Sampled once per advance — not per raise — so the gossip
        // hot path stays clean and the histogram measures distinct cuts.
        let stable = self.store.stable();
        if stable != self.last_traced_stable {
            self.last_traced_stable = stable;
            let (lst, rst) = stable;
            if !lst.is_zero() {
                let lag = now_micros.saturating_sub(lst.physical_micros());
                self.metrics.visibility_lag_local_micros.record(lag);
                self.metrics.visibility_lag_local_gauge.set(lag);
            }
            if !rst.is_zero() {
                let lag = now_micros.saturating_sub(rst.physical_micros());
                self.metrics.visibility_lag_remote_micros.record(lag);
                self.metrics.visibility_lag_remote_gauge.set(lag);
            }
            self.trace.push(TxEvent::Stable { lst, rst });
        }

        const RESEND_AFTER_MICROS: u64 = 100_000;

        // Re-ask open catch-up windows: the CatchUpReq may have been
        // sent at a peer that was down (or through a link that severed
        // again), and the frozen vector entry only unfreezes when some
        // request gets through to a CatchUpDone.
        for i in 0..self.awaiting.len() {
            if self.awaiting[i]
                && now_micros.saturating_sub(self.catchup_sent[i]) > RESEND_AFTER_MICROS
            {
                self.catchup_sent[i] = now_micros;
                out.push(Outgoing::to_server(
                    ServerId {
                        dc: DcId(i as u8),
                        partition: self.id.partition,
                    },
                    WrenMsg::CatchUpReq {
                        from: self.vv.get(i),
                    },
                ));
            }
        }

        // Cohort-side vote re-send: a prepared transaction whose commit
        // verdict is overdue re-offers its vote; the coordinator (or
        // its decision map) answers with the fixed outcome.
        let own = self.id;
        let mut resend: Vec<(TxId, Timestamp)> = Vec::new();
        for (tx, p) in self.prepared.iter_mut() {
            let coordinated_here = tx.dc() == own.dc && tx.partition() == own.partition;
            if !coordinated_here && now_micros.saturating_sub(p.since) > RESEND_AFTER_MICROS {
                p.since = now_micros;
                resend.push((*tx, p.pt));
            }
        }
        for (tx, pt) in resend {
            out.push(Outgoing::to_server(
                ServerId {
                    dc: tx.dc(),
                    partition: tx.partition(),
                },
                WrenMsg::PrepareResp { tx, pt },
            ));
        }

        // Coordinator-side in-doubt abort: a fan-out still missing votes
        // past the timeout means a cohort crashed before durably
        // preparing (its restart cannot re-vote what it never logged).
        // Abort: remove the context *without* a decision record —
        // absence is the abort verdict a re-asking cohort reads — and
        // release every prepared cohort so the DC's LST unpins. The
        // client is told explicitly (zero `ct` on a write transaction is
        // the abort verdict), so its stall is `tx_abort_timeout`, not
        // the session timeout. The outcome was fixed the moment the
        // context died — the reply only shortens how long the client
        // waits to learn it.
        let timeout = self.tx_abort_timeout_micros;
        let doomed: Vec<TxId> = self
            .tx_ctx
            .iter()
            .filter(|(_, c)| {
                c.pending_prepares > 0 && now_micros.saturating_sub(c.since) > timeout
            })
            .map(|(tx, _)| *tx)
            .collect();
        for tx in doomed {
            let ctx = self.tx_ctx.remove(&tx).expect("collected above");
            for partition in ctx.cohorts {
                if partition == self.id.partition {
                    self.commit(tx, Timestamp::ZERO, now_micros);
                } else {
                    out.push(Outgoing::to_server(
                        self.server(partition),
                        WrenMsg::Commit {
                            tx,
                            ct: Timestamp::ZERO,
                        },
                    ));
                }
            }
            self.metrics.tx_aborts_indoubt.inc();
            self.trace.push(TxEvent::AbortedInDoubt { tx });
            out.push(Outgoing::to_client(
                ctx.client,
                WrenMsg::CommitResp {
                    tx,
                    ct: Timestamp::ZERO,
                },
            ));
        }

        if self.log.is_none() {
            return;
        }
        let stable = self.store.stable();
        if stable != self.last_logged_stable {
            self.last_logged_stable = stable;
            if let Some(log) = &mut self.log {
                log.append(&WalOp::Stable {
                    lst: stable.0,
                    rst: stable.1,
                });
            }
        }
    }
}
