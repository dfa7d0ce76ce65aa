use crate::{CureConfig, CureVisibilitySampler};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use wren_clock::{HybridClock, PhysicalClock, SkewedClock, Timestamp, VersionVector};
use wren_protocol::{
    ClientId, CureMsg, CureRepTx, CureReplicateBatch, CureVersion, Dest, Key, Outgoing,
    PartitionId, ServerId, TxId, Value,
};
use wren_storage::{ConcurrentShardedStore, SnapshotBound};

/// Counters exposed by a Cure server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CureServerStats {
    /// Transactions this server coordinated to commit.
    pub txs_coordinated: u64,
    /// Transactions committed as a cohort.
    pub txs_cohort_committed: u64,
    /// Slice requests served.
    pub slices_served: u64,
    /// Slice requests that had to wait for a snapshot to be installed.
    pub slices_blocked: u64,
    /// Total microseconds slice requests spent blocked.
    pub total_block_micros: u64,
    /// Individual keys read.
    pub keys_read: u64,
    /// Local versions applied.
    pub local_versions_applied: u64,
    /// Remote versions applied.
    pub remote_versions_applied: u64,
    /// Replication batches shipped.
    pub replicate_batches_sent: u64,
    /// Heartbeats shipped.
    pub heartbeats_sent: u64,
    /// Versions removed by GC.
    pub gc_versions_removed: u64,
}

/// Read-only slice-path instrumentation, mirroring `wren-core`'s split so
/// the baseline pays the same metric-recording costs on its read path as
/// Wren does (a fair comparison — see `WrenServer`'s `ReadPathStats`).
#[derive(Debug)]
struct ReadPathStats {
    slices_served: wren_obs::Counter,
    keys_read: wren_obs::Counter,
    read_slice_micros: wren_obs::Histogram,
}

/// Pre-resolved metric handles for a Cure server. Deliberately the same
/// subset `wren-core` records on its hot paths (commit stages, read
/// slices), so throughput/latency comparisons between the protocols are
/// not skewed by one side carrying instrumentation the other lacks.
#[derive(Debug, Clone)]
pub struct CureMetrics {
    registry: wren_obs::Registry,
    /// Commit stage 1 — prepare fan-out to last vote, in µs.
    pub commit_prepare_micros: wren_obs::Histogram,
    /// Commit stage 2 — cohort vote to commit verdict applied, in µs.
    pub commit_decide_micros: wren_obs::Histogram,
    /// Read-slice service time in µs.
    pub read_slice_micros: wren_obs::Histogram,
    /// Slice requests served.
    pub slices_served: wren_obs::Counter,
    /// Individual keys read.
    pub keys_read: wren_obs::Counter,
}

impl CureMetrics {
    /// Creates every handle against a fresh registry.
    pub fn new() -> Self {
        let registry = wren_obs::Registry::new();
        CureMetrics {
            commit_prepare_micros: registry.histogram("commit_prepare_micros"),
            commit_decide_micros: registry.histogram("commit_decide_micros"),
            read_slice_micros: registry.histogram("read_slice_micros"),
            slices_served: registry.counter("slices_served"),
            keys_read: registry.counter("keys_read"),
            registry,
        }
    }

    /// The registry behind the handles.
    pub fn registry(&self) -> &wren_obs::Registry {
        &self.registry
    }
}

impl Default for CureMetrics {
    fn default() -> Self {
        CureMetrics::new()
    }
}

#[derive(Debug)]
struct TxCtx {
    client: ClientId,
    snapshot: VersionVector,
    pending_slices: usize,
    read_acc: Vec<(Key, Option<CureVersion>)>,
    pending_prepares: usize,
    max_pt: Timestamp,
    cohorts: Vec<PartitionId>,
    /// True-time micros when the commit fan-out started (stage timing).
    since: u64,
}

#[derive(Debug, Clone)]
struct PreparedTx {
    pt: Timestamp,
    snapshot: VersionVector,
    writes: Vec<(Key, Value)>,
    /// True-time micros when this cohort voted (stage timing).
    since: u64,
}

#[derive(Debug, Clone)]
struct CommittedTx {
    snapshot: VersionVector,
    writes: Vec<(Key, Value)>,
}

/// A read waiting for its snapshot to be installed — the blocking the
/// paper's Fig. 3b measures and Wren eliminates.
#[derive(Debug)]
struct PendingRead {
    coordinator: ServerId,
    tx: TxId,
    snapshot: VersionVector,
    keys: Vec<Key>,
    arrived_micros: u64,
}

/// A Cure (or H-Cure) partition server.
///
/// Structure mirrors `wren_core::WrenServer`: the same 2PC commit, the
/// same apply/replicate tick, the same gossip scheme — the differences are
/// exactly the ones the paper evaluates:
///
/// * item metadata and snapshots are **M-entry vectors** (one per DC);
/// * a transaction snapshot takes the coordinator's *current clock* as its
///   local entry, so a read may target a snapshot **not yet installed** at
///   some partition and must **block** there
///   ([`CureServer::pending_reads`] + [`CureServerStats::slices_blocked`]);
/// * with [`CureConfig::hlc`] set (H-Cure), the server's timestamp source
///   absorbs incoming snapshot timestamps, removing the clock-skew
///   component of blocking but not the pending-transaction component.
#[derive(Debug)]
pub struct CureServer {
    id: ServerId,
    cfg: CureConfig,
    clock: SkewedClock,
    /// Timestamp source for proposals (and, under H-Cure, version clocks).
    ts_source: HybridClock,
    vv: VersionVector,
    /// Global stable snapshot: componentwise min of the DC's version
    /// vectors.
    gss: VersionVector,
    /// Stripe-locked shared store: same storage layer as the Wren server,
    /// so the protocol comparison is not skewed by lock costs.
    store: Arc<ConcurrentShardedStore<Key, CureVersion>>,
    /// Slice-path counters (the `&self` read path's half of the stats).
    read_stats: Arc<ReadPathStats>,
    /// Lock-free metric handles (same hot-path subset as `wren-core`).
    metrics: CureMetrics,
    prepared: HashMap<TxId, PreparedTx>,
    committed: BTreeMap<(Timestamp, TxId), CommittedTx>,
    next_seq: u64,
    tx_ctx: HashMap<TxId, TxCtx>,
    gossip_contrib: Vec<VersionVector>,
    gc_contrib: Vec<VersionVector>,
    pending_reads: Vec<PendingRead>,
    /// `(transaction, block duration µs)` per blocked slice, for Fig. 3b.
    blocked_samples: Vec<(TxId, u64)>,
    stats: CureServerStats,
    vis: CureVisibilitySampler,
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
    scratch_apply: Vec<(Key, CureVersion)>,
}

impl CureServer {
    /// Creates the replica of `id.partition` in `id.dc`.
    pub fn new(id: ServerId, cfg: CureConfig, clock: SkewedClock) -> Self {
        let m = cfg.n_dcs as usize;
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
        let metrics = CureMetrics::new();
        let read_stats = Arc::new(ReadPathStats {
            slices_served: metrics.slices_served.clone(),
            keys_read: metrics.keys_read.clone(),
            read_slice_micros: metrics.read_slice_micros.clone(),
        });
        CureServer {
            id,
            cfg,
            clock,
            ts_source: HybridClock::new(),
            vv: VersionVector::new(m),
            gss: VersionVector::new(m),
            store: Arc::new(ConcurrentShardedStore::new()),
            read_stats,
            metrics,
            prepared: HashMap::new(),
            committed: BTreeMap::new(),
            next_seq: 1,
            tx_ctx: HashMap::new(),
            gossip_contrib: vec![VersionVector::new(m); n],
            gc_contrib: vec![VersionVector::new(m); n],
            pending_reads: Vec::new(),
            blocked_samples: Vec::new(),
            stats: CureServerStats::default(),
            vis: CureVisibilitySampler::new(cfg.n_dcs, cfg.visibility_sample_every),
            siblings,
            peers,
            children,
            scratch_reads: vec![Vec::new(); n],
            scratch_writes: vec![Vec::new(); n],
            scratch_apply: Vec::new(),
        }
    }

    /// Children of `id.partition` in the k-ary stabilization tree (empty
    /// in broadcast mode).
    fn compute_tree_children(id: ServerId, cfg: &CureConfig) -> Vec<ServerId> {
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

    /// The local version clock `VV[m]`.
    pub fn version_clock(&self) -> Timestamp {
        self.vv.get(self.dc_index())
    }

    /// The global stable snapshot this server has computed.
    pub fn gss(&self) -> &VersionVector {
        &self.gss
    }

    /// Counters. Slice-path counters are folded in from the shared
    /// atomics (the `&self` read path's half of the split).
    pub fn stats(&self) -> CureServerStats {
        let mut stats = self.stats;
        stats.slices_served = self.read_stats.slices_served.get();
        stats.keys_read = self.read_stats.keys_read.get();
        stats
    }

    /// The lock-free metric handles (commit-stage and read histograms).
    pub fn metrics(&self) -> &CureMetrics {
        &self.metrics
    }

    /// The metric registry (snapshot/merge at cluster level).
    pub fn registry(&self) -> wren_obs::Registry {
        self.metrics.registry.clone()
    }

    /// Reads currently blocked waiting for a snapshot.
    pub fn pending_reads(&self) -> usize {
        self.pending_reads.len()
    }

    /// Per-blocked-read `(transaction, duration µs)` samples (Fig. 3b).
    pub fn blocked_samples(&self) -> &[(TxId, u64)] {
        &self.blocked_samples
    }

    /// Clears blocking samples (warm-up boundary).
    pub fn reset_blocked_samples(&mut self) {
        self.blocked_samples.clear();
        self.stats.slices_blocked = 0;
        self.stats.total_block_micros = 0;
    }

    /// The visibility sampler (Fig. 7b).
    pub fn visibility(&self) -> &CureVisibilitySampler {
        &self.vis
    }

    /// Mutable access to the visibility sampler.
    pub fn visibility_mut(&mut self) -> &mut CureVisibilitySampler {
        &mut self.vis
    }

    /// Read-only store access for tests.
    pub fn store(&self) -> &ConcurrentShardedStore<Key, CureVersion> {
        &self.store
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

    /// Handles one protocol message.
    pub fn handle(
        &mut self,
        from: Dest,
        msg: CureMsg,
        now_micros: u64,
        out: &mut Vec<Outgoing<CureMsg>>,
    ) {
        match msg {
            CureMsg::StartTxReq { seen } => {
                let Dest::Client(client) = from else {
                    debug_assert!(false, "StartTxReq must come from a client");
                    return;
                };
                self.on_start(client, seen, now_micros, out);
            }
            CureMsg::TxReadReq { tx, keys } => self.on_read(tx, keys, now_micros, out),
            CureMsg::SliceReq { tx, snapshot, keys } => {
                let Dest::Server(coord) = from else {
                    debug_assert!(false, "SliceReq must come from a server");
                    return;
                };
                self.on_slice_req(coord, tx, snapshot, keys, now_micros, out);
            }
            CureMsg::SliceResp { tx, items } => self.on_slice_resp(tx, items, out),
            CureMsg::CommitReq { tx, writes } => self.on_commit_req(tx, writes, now_micros, out),
            CureMsg::PrepareReq {
                tx,
                snapshot,
                writes,
            } => {
                let Dest::Server(coord) = from else {
                    debug_assert!(false, "PrepareReq must come from a server");
                    return;
                };
                let pt = self.prepare(tx, snapshot, writes, now_micros);
                out.push(Outgoing::to_server(coord, CureMsg::PrepareResp { tx, pt }));
            }
            CureMsg::PrepareResp { tx, pt } => self.on_prepare_resp(tx, pt, now_micros, out),
            CureMsg::Commit { tx, ct } => self.commit(tx, ct, now_micros),
            CureMsg::Replicate { batch } => {
                let Dest::Server(sibling) = from else {
                    debug_assert!(false, "Replicate must come from a server");
                    return;
                };
                self.on_replicate(sibling, batch, now_micros, out);
            }
            CureMsg::Heartbeat { t } => {
                let Dest::Server(sibling) = from else {
                    debug_assert!(false, "Heartbeat must come from a server");
                    return;
                };
                self.vv.raise(sibling.dc.index(), t);
                self.retry_pending_reads(now_micros, out);
            }
            CureMsg::StableGossip { vv } => {
                let Dest::Server(peer) = from else {
                    debug_assert!(false, "StableGossip must come from a server");
                    return;
                };
                self.gossip_contrib[peer.partition.index()] = vv;
                self.recompute_gss(now_micros);
            }
            CureMsg::GossipUp { vv } => {
                let Dest::Server(child) = from else {
                    debug_assert!(false, "GossipUp must come from a server");
                    return;
                };
                self.gossip_contrib[child.partition.index()] = vv;
            }
            CureMsg::GossipDown { gsv } => {
                // Adopt the root's stable vector and cascade downwards.
                self.gss.join(&gsv);
                let gss = self.gss.clone();
                self.vis.advance_remote(&gss, now_micros);
                for &child in &self.children {
                    out.push(Outgoing::to_server(
                        child,
                        CureMsg::GossipDown { gsv: gsv.clone() },
                    ));
                }
                self.retry_pending_reads(now_micros, out);
            }
            CureMsg::GcGossip { oldest } => {
                let Dest::Server(peer) = from else {
                    debug_assert!(false, "GcGossip must come from a server");
                    return;
                };
                self.gc_contrib[peer.partition.index()] = oldest;
            }
            CureMsg::StartTxResp { .. }
            | CureMsg::TxReadResp { .. }
            | CureMsg::CommitResp { .. } => {
                debug_assert!(false, "client-bound message delivered to a server");
            }
        }
    }

    /// Assigns a snapshot vector: the stable vector with the local entry
    /// bumped to the coordinator's **current clock** — fresher than Wren's
    /// LST, but possibly not installed everywhere, which is what makes
    /// Cure reads block.
    fn on_start(
        &mut self,
        client: ClientId,
        seen: VersionVector,
        now_micros: u64,
        out: &mut Vec<Outgoing<CureMsg>>,
    ) {
        let phys = self.clock.now_micros(now_micros);
        let m = self.dc_index();
        let mut snapshot = self.gss.clone();
        if seen.len() == snapshot.len() {
            snapshot.join(&seen);
        }
        let local_now = if self.cfg.hlc {
            self.ts_source.merge(phys, Timestamp::ZERO);
            self.ts_source.current()
        } else {
            Timestamp::from_micros(phys)
        };
        snapshot.raise(m, local_now);

        let tx = TxId::new(self.id, self.next_seq);
        self.next_seq += 1;
        self.tx_ctx.insert(
            tx,
            TxCtx {
                client,
                snapshot: snapshot.clone(),
                pending_slices: 0,
                read_acc: Vec::new(),
                pending_prepares: 0,
                max_pt: Timestamp::ZERO,
                cohorts: Vec::new(),
                since: 0,
            },
        );
        out.push(Outgoing::to_client(client, CureMsg::StartTxResp { tx, snapshot }));
    }

    /// Fans a read out; the coordinator's own slice goes through the same
    /// blocking check as everyone else's (a self-addressed `SliceResp` if
    /// it must wait).
    fn on_read(
        &mut self,
        tx: TxId,
        keys: Vec<Key>,
        now_micros: u64,
        out: &mut Vec<Outgoing<CureMsg>>,
    ) {
        let Some(ctx) = self.tx_ctx.get(&tx) else {
            debug_assert!(false, "read for unknown transaction");
            return;
        };
        let snapshot = ctx.snapshot.clone();
        let client = ctx.client;

        // Group keys by owning partition into the reusable scratch
        // buckets (direct indexing; no per-transaction map allocations).
        let mut groups = std::mem::take(&mut self.scratch_reads);
        for k in keys {
            groups[self.partition_of(k).index()].push(k);
        }
        let own = self.id.partition.index();

        let mut local_items = None;
        let mut local_pending = false;
        if !groups[own].is_empty() {
            let local_keys = std::mem::take(&mut groups[own]);
            if self.snapshot_installed(&snapshot) {
                local_items = Some(self.read_slice(&local_keys, &snapshot));
                // Keep the bucket's allocation for the next transaction.
                groups[own] = local_keys;
                groups[own].clear();
            } else {
                // The coordinator itself lags the snapshot: queue the local
                // slice like any remote one; it answers itself later. The
                // pending read owns the key list, so the bucket stays empty.
                self.queue_pending(self.id, tx, snapshot.clone(), local_keys, now_micros);
                local_pending = true;
            }
        }
        let remote_slices = groups
            .iter()
            .enumerate()
            .filter(|(p, g)| *p != own && !g.is_empty())
            .count();

        let ctx = self.tx_ctx.get_mut(&tx).expect("checked above");
        ctx.read_acc = local_items.unwrap_or_default();
        ctx.pending_slices = remote_slices + usize::from(local_pending);

        if ctx.pending_slices == 0 {
            let items = std::mem::take(&mut ctx.read_acc);
            out.push(Outgoing::to_client(client, CureMsg::TxReadResp { tx, items }));
            self.scratch_reads = groups;
            return;
        }
        for (partition, bucket) in groups.iter_mut().enumerate() {
            if partition == own || bucket.is_empty() {
                continue;
            }
            let keys = std::mem::take(bucket);
            out.push(Outgoing::to_server(
                self.server(PartitionId(partition as u16)),
                CureMsg::SliceReq {
                    tx,
                    snapshot: snapshot.clone(),
                    keys,
                },
            ));
        }
        self.scratch_reads = groups;
    }

    fn on_slice_req(
        &mut self,
        coordinator: ServerId,
        tx: TxId,
        snapshot: VersionVector,
        keys: Vec<Key>,
        now_micros: u64,
        out: &mut Vec<Outgoing<CureMsg>>,
    ) {
        if self.cfg.hlc {
            // H-Cure: absorb the snapshot timestamp so the version clock
            // can pass it at the next tick even if the physical clock lags.
            let phys = self.clock.now_micros(now_micros);
            self.ts_source.merge(phys, snapshot.get(self.dc_index()));
        }
        if self.snapshot_installed(&snapshot) {
            let items = self.read_slice(&keys, &snapshot);
            out.push(Outgoing::to_server(coordinator, CureMsg::SliceResp { tx, items }));
        } else {
            self.queue_pending(coordinator, tx, snapshot, keys, now_micros);
        }
    }

    fn queue_pending(
        &mut self,
        coordinator: ServerId,
        tx: TxId,
        snapshot: VersionVector,
        keys: Vec<Key>,
        now_micros: u64,
    ) {
        self.stats.slices_blocked += 1;
        self.pending_reads.push(PendingRead {
            coordinator,
            tx,
            snapshot,
            keys,
            arrived_micros: now_micros,
        });
    }

    /// Whether every component of `snapshot` is installed here: the local
    /// entry is covered by the version clock and every remote entry by the
    /// corresponding replication watermark.
    fn snapshot_installed(&self, snapshot: &VersionVector) -> bool {
        let m = self.dc_index();
        if self.version_clock() < snapshot.get(m) {
            return false;
        }
        (0..snapshot.len()).all(|i| i == m || self.vv.get(i) >= snapshot.get(i))
    }

    /// Serves any pending reads whose snapshot has become installed.
    fn retry_pending_reads(&mut self, now_micros: u64, out: &mut Vec<Outgoing<CureMsg>>) {
        if self.pending_reads.is_empty() {
            return;
        }
        let mut still_pending = Vec::new();
        let pending = std::mem::take(&mut self.pending_reads);
        for p in pending {
            if self.snapshot_installed(&p.snapshot) {
                let blocked_for = now_micros.saturating_sub(p.arrived_micros);
                self.stats.total_block_micros += blocked_for;
                self.blocked_samples.push((p.tx, blocked_for));
                let items = self.read_slice(&p.keys, &p.snapshot);
                if p.coordinator == self.id {
                    // Self-addressed completion: feed it straight back in.
                    self.on_slice_resp(p.tx, items, out);
                } else {
                    out.push(Outgoing::to_server(
                        p.coordinator,
                        CureMsg::SliceResp { tx: p.tx, items },
                    ));
                }
            } else {
                still_pending.push(p);
            }
        }
        self.pending_reads = still_pending;
    }

    /// Cure's visibility rule: a version is in the snapshot iff its commit
    /// timestamp is covered by the snapshot entry of its origin DC.
    ///
    /// Takes `&self`, mirroring `wren-core`'s handle/read split. Unlike
    /// Wren, Cure cannot serve this on other threads wholesale: the
    /// *admission* check ([`snapshot_installed`](Self::snapshot_installed))
    /// consults the writer-owned version vector, and a non-installed
    /// snapshot must queue — blocking is the protocol's defining cost.
    fn read_slice(
        &self,
        keys: &[Key],
        snapshot: &VersionVector,
    ) -> Vec<(Key, Option<CureVersion>)> {
        let start = std::time::Instant::now();
        self.read_stats.slices_served.inc();
        self.read_stats.keys_read.add(keys.len() as u64);
        let bound = SnapshotBound::vector(snapshot);
        let mut items = Vec::with_capacity(keys.len());
        for &k in keys {
            items.push((k, self.store.latest_visible(&k, &bound)));
        }
        self.read_stats
            .read_slice_micros
            .record(start.elapsed().as_micros() as u64);
        items
    }

    fn on_slice_resp(
        &mut self,
        tx: TxId,
        items: Vec<(Key, Option<CureVersion>)>,
        out: &mut Vec<Outgoing<CureMsg>>,
    ) {
        let Some(ctx) = self.tx_ctx.get_mut(&tx) else {
            debug_assert!(false, "slice response for unknown transaction");
            return;
        };
        ctx.read_acc.extend(items);
        ctx.pending_slices -= 1;
        if ctx.pending_slices == 0 {
            let items = std::mem::take(&mut ctx.read_acc);
            let client = ctx.client;
            out.push(Outgoing::to_client(client, CureMsg::TxReadResp { tx, items }));
        }
    }

    fn on_commit_req(
        &mut self,
        tx: TxId,
        writes: Vec<(Key, Value)>,
        now_micros: u64,
        out: &mut Vec<Outgoing<CureMsg>>,
    ) {
        let Some(ctx) = self.tx_ctx.get(&tx) else {
            debug_assert!(false, "commit for unknown transaction");
            return;
        };
        let snapshot = ctx.snapshot.clone();
        let client = ctx.client;

        if writes.is_empty() {
            self.tx_ctx.remove(&tx);
            out.push(Outgoing::to_client(
                client,
                CureMsg::CommitResp {
                    tx,
                    commit_vec: snapshot,
                },
            ));
            return;
        }

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
                    CureMsg::PrepareReq {
                        tx,
                        snapshot: snapshot.clone(),
                        writes,
                    },
                ));
            }
        }
        self.scratch_writes = groups;
        if has_local {
            let pt = self.prepare(tx, snapshot, local_writes, now_micros);
            self.on_prepare_resp(tx, pt, now_micros, out);
        }
    }

    /// Proposes a commit timestamp above the snapshot's local entry and
    /// everything previously proposed here.
    fn prepare(
        &mut self,
        tx: TxId,
        snapshot: VersionVector,
        writes: Vec<(Key, Value)>,
        now_micros: u64,
    ) -> Timestamp {
        let phys = self.clock.now_micros(now_micros);
        let floor = snapshot.get(self.dc_index()).max(self.version_clock());
        let pt = self.ts_source.tick_at_least(phys, floor);
        self.prepared.insert(
            tx,
            PreparedTx {
                pt,
                snapshot,
                writes,
                since: now_micros,
            },
        );
        pt
    }

    fn on_prepare_resp(
        &mut self,
        tx: TxId,
        pt: Timestamp,
        now_micros: u64,
        out: &mut Vec<Outgoing<CureMsg>>,
    ) {
        let m = self.dc_index();
        let Some(ctx) = self.tx_ctx.get_mut(&tx) else {
            debug_assert!(false, "prepare response for unknown transaction");
            return;
        };
        ctx.max_pt = ctx.max_pt.max(pt);
        ctx.pending_prepares -= 1;
        if ctx.pending_prepares > 0 {
            return;
        }
        let ct = ctx.max_pt;
        let client = ctx.client;
        let since = ctx.since;
        let mut commit_vec = ctx.snapshot.clone();
        commit_vec.set(m, ct);
        let cohorts = std::mem::take(&mut ctx.cohorts);
        self.tx_ctx.remove(&tx);
        self.metrics
            .commit_prepare_micros
            .record(now_micros.saturating_sub(since));
        for partition in cohorts {
            if partition == self.id.partition {
                self.commit(tx, ct, now_micros);
            } else {
                out.push(Outgoing::to_server(
                    self.server(partition),
                    CureMsg::Commit { tx, ct },
                ));
            }
        }
        self.stats.txs_coordinated += 1;
        out.push(Outgoing::to_client(client, CureMsg::CommitResp { tx, commit_vec }));
    }

    fn commit(&mut self, tx: TxId, ct: Timestamp, now_micros: u64) {
        let phys = self.clock.now_micros(now_micros);
        self.ts_source.merge(phys, ct);
        let Some(prepared) = self.prepared.remove(&tx) else {
            debug_assert!(false, "commit for unprepared transaction");
            return;
        };
        self.metrics
            .commit_decide_micros
            .record(now_micros.saturating_sub(prepared.since));
        self.committed.insert(
            (ct, tx),
            CommittedTx {
                snapshot: prepared.snapshot,
                writes: prepared.writes,
            },
        );
        self.stats.txs_cohort_committed += 1;
    }

    /// Applies a replication batch with the store's batched splice: the
    /// batch shares one commit timestamp, so each key's run pays a single
    /// chain search ([`ShardedStore::apply_batch`]).
    fn on_replicate(
        &mut self,
        sibling: ServerId,
        batch: CureReplicateBatch,
        now_micros: u64,
        out: &mut Vec<Outgoing<CureMsg>>,
    ) {
        let src = sibling.dc;
        let ct = batch.ct;
        let mut items = std::mem::take(&mut self.scratch_apply);
        debug_assert!(items.is_empty());
        for rep in batch.txs {
            for (k, v) in rep.writes {
                items.push((
                    k,
                    CureVersion {
                        value: v,
                        ut: ct,
                        deps: rep.deps.clone(),
                        tx: rep.tx,
                        sr: src,
                    },
                ));
            }
            self.vis.register_remote(src.index(), ct);
        }
        let applied = self.store.apply_batch(&mut items);
        self.stats.remote_versions_applied += applied as u64;
        self.scratch_apply = items;
        self.vv.raise(src.index(), ct);
        self.retry_pending_reads(now_micros, out);
    }

    /// Apply/replicate tick: identical structure to Wren's Algorithm 4,
    /// with the version clock driven by the physical clock (Cure) or the
    /// hybrid clock (H-Cure). Returns the number of versions applied.
    pub fn on_replication_tick(
        &mut self,
        now_micros: u64,
        out: &mut Vec<Outgoing<CureMsg>>,
    ) -> usize {
        let phys = self.clock.now_micros(now_micros);

        let idle_bound = if self.cfg.hlc {
            self.ts_source.merge(phys, Timestamp::ZERO);
            self.ts_source.current()
        } else {
            // Cure: version clocks track *physical* time, so a partition
            // whose clock lags cannot cover a fast coordinator's snapshot —
            // the skew-induced blocking Fig. 3b shows.
            let t = Timestamp::from_micros(phys);
            // Absorb into the proposal source so future proposals stay
            // strictly above the version clock (no commit at ≤ ub).
            self.ts_source.merge(phys, t);
            t
        };

        let ub = if self.prepared.is_empty() {
            idle_bound
        } else {
            self.prepared
                .values()
                .map(|p| p.pt)
                .min()
                .expect("non-empty")
                .predecessor()
        };

        if ub <= self.version_clock() {
            return 0;
        }

        let mut applied = 0usize;
        let m = self.dc_index();
        if self.committed.is_empty() {
            self.vv.set(m, ub);
            for &sibling in &self.siblings {
                out.push(Outgoing::to_server(sibling, CureMsg::Heartbeat { t: ub }));
            }
            self.stats.heartbeats_sent += self.siblings.len() as u64;
            self.after_version_clock_advance(now_micros, out);
            return 0;
        }

        let keep = self.committed.split_off(&(ub.successor(), TxId::from_raw(0)));
        let ready = std::mem::replace(&mut self.committed, keep);

        let mut batch: Vec<CureRepTx> = Vec::new();
        let mut batch_ct = Timestamp::ZERO;
        for ((ct, tx), ctx) in ready {
            if ct != batch_ct && !batch.is_empty() {
                self.ship_batch(batch_ct, std::mem::take(&mut batch), out);
            }
            batch_ct = ct;
            let mut deps = ctx.snapshot.clone();
            deps.set(m, ct);
            for (k, v) in &ctx.writes {
                self.store.insert(
                    *k,
                    CureVersion {
                        value: v.clone(),
                        ut: ct,
                        deps: deps.clone(),
                        tx,
                        sr: self.id.dc,
                    },
                );
                applied += 1;
                self.stats.local_versions_applied += 1;
            }
            self.vis.register_local(ct);
            batch.push(CureRepTx {
                tx,
                deps,
                writes: ctx.writes,
            });
        }
        if !batch.is_empty() {
            self.ship_batch(batch_ct, batch, out);
        }
        self.vv.set(m, ub);
        self.after_version_clock_advance(now_micros, out);
        applied
    }

    fn after_version_clock_advance(
        &mut self,
        now_micros: u64,
        out: &mut Vec<Outgoing<CureMsg>>,
    ) {
        self.vis.advance_local(self.version_clock(), now_micros);
        self.retry_pending_reads(now_micros, out);
    }

    fn ship_batch(
        &mut self,
        ct: Timestamp,
        mut txs: Vec<CureRepTx>,
        out: &mut Vec<Outgoing<CureMsg>>,
    ) {
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
                CureMsg::Replicate {
                    batch: CureReplicateBatch { ct, txs: batch_txs },
                },
            ));
        }
        self.stats.replicate_batches_sent += n as u64;
    }

    /// Stabilization tick: exchange the **full version vector** (M
    /// timestamps — the metadata Fig. 7a charges to Cure) and refresh the
    /// global stable snapshot. Broadcast or k-ary tree, mirroring Wren.
    pub fn on_gossip_tick(&mut self, now_micros: u64, out: &mut Vec<Outgoing<CureMsg>>) {
        self.gossip_contrib[self.id.partition.index()] = self.vv.clone();
        let vv = self.vv.clone();

        if self.cfg.gossip_fanout == 0 {
            for &peer in &self.peers {
                out.push(Outgoing::to_server(peer, CureMsg::StableGossip { vv: vv.clone() }));
            }
            self.recompute_gss(now_micros);
            return;
        }

        // Tree mode: fold own vector with children subtree minima.
        let mut subtree = vv;
        for child in &self.children {
            subtree.meet(&self.gossip_contrib[child.partition.index()]);
        }
        match self.tree_parent() {
            Some(parent) => {
                out.push(Outgoing::to_server(parent, CureMsg::GossipUp { vv: subtree }));
            }
            None => {
                self.gss.join(&subtree);
                let gss = self.gss.clone();
                self.vis.advance_remote(&gss, now_micros);
                for &child in &self.children {
                    out.push(Outgoing::to_server(
                        child,
                        CureMsg::GossipDown { gsv: gss.clone() },
                    ));
                }
                self.retry_pending_reads(now_micros, out);
            }
        }
    }

    /// Parent in the k-ary stabilization tree, or `None` at the root / in
    /// broadcast mode.
    fn tree_parent(&self) -> Option<ServerId> {
        let f = self.cfg.gossip_fanout;
        let i = self.id.partition.0;
        if f == 0 || i == 0 {
            return None;
        }
        Some(self.server(wren_protocol::PartitionId((i - 1) / f)))
    }

    fn recompute_gss(&mut self, now_micros: u64) {
        let mut gss = self.gossip_contrib[0].clone();
        for contrib in &self.gossip_contrib[1..] {
            gss.meet(contrib);
        }
        // GSS is monotone: join with the previous value guards against
        // stale contributions.
        gss.join(&self.gss);
        self.vis.advance_remote(&gss, now_micros);
        self.gss = gss;
    }

    /// GC tick: exchange oldest-active snapshot vectors and prune chains.
    /// Returns the number of versions collected.
    pub fn on_gc_tick(&mut self, _now_micros: u64, out: &mut Vec<Outgoing<CureMsg>>) -> usize {
        let mut oldest = {
            let mut cur = self.gss.clone();
            cur.set(self.dc_index(), self.version_clock());
            cur
        };
        for ctx in self.tx_ctx.values() {
            oldest.meet(&ctx.snapshot);
        }
        self.gc_contrib[self.id.partition.index()] = oldest.clone();
        for &peer in &self.peers {
            out.push(Outgoing::to_server(
                peer,
                CureMsg::GcGossip {
                    oldest: oldest.clone(),
                },
            ));
        }

        let mut watermark = self.gc_contrib[0].clone();
        for contrib in &self.gc_contrib[1..] {
            watermark.meet(contrib);
        }
        if watermark.iter().all(|t| t.is_zero()) {
            return 0;
        }
        let oldest = SnapshotBound::vector(&watermark);
        let removed = self.store.collect(&oldest);
        self.stats.gc_versions_removed += removed as u64;
        removed
    }
}
