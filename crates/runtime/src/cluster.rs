use crate::engine::{Durability, PartitionEngine};
use crate::metrics::SessionMetrics;
use crate::reactor_fabric::{bind_listeners, ReactorFabric};
use crate::Session;
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wren_clock::{SystemClock, Timestamp};
use wren_core::{
    FsyncPolicy, ServerStats, ServerTrace, SliceReader, TxEvent, WrenConfig, WrenServer,
};
use wren_net::FaultPlan;
use wren_obs::{MetricsSnapshot, Registry};
use wren_protocol::{ClientId, Dest, Key, Outgoing, ServerId, TxId, WrenMsg};

/// What travels on a writer thread's inbox.
pub(crate) enum RtMsg {
    /// A protocol message from `src`.
    Proto {
        /// The sender (a server or a client).
        src: Dest,
        /// The message itself.
        msg: WrenMsg,
    },
    /// Every message one connection's readiness event decoded, in wire
    /// order, delivered as a single wake-up so the engine's drain loop
    /// handles the whole burst before paying a commit point and a
    /// dispatch. A burst has one sender by construction — it came off
    /// one socket.
    Batch {
        /// The connection's peer (a server or a client).
        src: Dest,
        /// The decoded frames, oldest first (never empty, never 1 —
        /// singleton bursts travel as [`RtMsg::Proto`]).
        msgs: Vec<WrenMsg>,
    },
    /// Stop the writer thread gracefully: drain the inbox, flush and
    /// seal the WAL, then exit.
    Shutdown,
    /// Crash the writer thread: exit immediately, dropping queued inbox
    /// messages, undispatched responses and unflushed WAL bytes — the
    /// in-process stand-in for `kill -9`.
    Kill,
    /// The TCP connection that carried `peer`-origin traffic into this
    /// partition died (EOF or error on the accepted socket), or a fresh
    /// one from `peer` arrived — its predecessor may have died before
    /// its handshake got here. Only the TCP fabric emits this; the
    /// channel transport has no links to lose. The engine reacts when
    /// the peer is a sibling replica — replication from it may have
    /// been cut mid-stream, so a catch-up window opens until the peer
    /// re-ships what was in flight.
    PeerLinkLost {
        /// The peer whose outbound link to this server went away.
        peer: ServerId,
    },
}

/// Shared routing state: writer inboxes, every partition's read path and
/// dynamically-registered client inboxes.
///
/// The router owns the read path: a `SliceReq` is answered by
/// [`serve_slice`](Self::serve_slice) on the thread that delivers it —
/// a reactor loop over TCP, the coordinator's writer thread over
/// channels — and never enters the destination's inbox.
///
/// The client map sits behind an [`RwLock`], not a mutex: every message
/// delivered to a client takes the lock, and lookups (one per response)
/// vastly outnumber register/unregister (one pair per session), so
/// concurrently-responding threads must not serialize on it.
pub(crate) struct Router {
    n_partitions: u16,
    server_txs: Vec<Sender<RtMsg>>,
    /// Every partition's slice reader, DC-major: `None` while the
    /// partition is down, so a dead process's store never answers.
    readers: Vec<RwLock<Option<SliceReader>>>,
    clients: RwLock<HashMap<ClientId, Sender<WrenMsg>>>,
    /// In TCP mode, the socket fabric every inter-node hop crosses.
    tcp: Option<ReactorFabric>,
}

impl Router {
    fn index_of(&self, to: ServerId) -> usize {
        to.dc_major_index(self.n_partitions)
    }

    /// The TCP fabric, when the cluster runs over sockets.
    pub(crate) fn tcp(&self) -> Option<&ReactorFabric> {
        self.tcp.as_ref()
    }

    /// Routes one server-bound message from a local engine or session.
    ///
    /// Channel mode delivers straight into the destination's inbox; TCP
    /// mode frames the message onto the sender's outbound link — it
    /// re-enters via [`deliver_local_batch`](Self::deliver_local_batch)
    /// on the destination's reactor thread.
    pub(crate) fn send_to_server(&self, src: Dest, to: ServerId, msg: WrenMsg) {
        if let Some(fabric) = &self.tcp {
            let Dest::Server(s) = src else {
                // Sessions in TCP mode hold their own sockets and never
                // route through here.
                debug_assert!(false, "client sends must use the session's TCP link");
                return;
            };
            fabric.send_server(s, to, &msg);
            return;
        }
        self.deliver_local(src, to, msg);
    }

    /// Delivers a message to a **local** engine: a `SliceReq` is served
    /// right here ([`serve_slice`](Self::serve_slice)), everything else
    /// lands in the writer's inbox.
    pub(crate) fn deliver_local(&self, src: Dest, to: ServerId, msg: WrenMsg) {
        if let WrenMsg::SliceReq { tx, lt, rt, keys } = &msg {
            self.serve_slice(src, to, *tx, *lt, *rt, keys);
            return;
        }
        // A send only fails during shutdown; drop the message then.
        let _ = self.server_txs[self.index_of(to)].send(RtMsg::Proto { src, msg });
    }

    /// Delivers one connection's decoded burst to a **local** engine in
    /// a single inbox wake-up. Per message the routing matches
    /// [`deliver_local`](Self::deliver_local) exactly — `SliceReq`s are
    /// served in wire order as the burst is walked — but everything
    /// bound for the writer thread coalesces into one [`RtMsg::Batch`]
    /// (or a plain [`RtMsg::Proto`] when only one message remains), so
    /// a pipelined burst costs the engine one channel receive and one
    /// group-commit point instead of one each per frame.
    pub(crate) fn deliver_local_batch(&self, src: Dest, to: ServerId, mut msgs: Vec<WrenMsg>) {
        msgs.retain(|msg| {
            let WrenMsg::SliceReq { tx, lt, rt, keys } = msg else {
                return true;
            };
            self.serve_slice(src, to, *tx, *lt, *rt, keys);
            false
        });
        let inbox = &self.server_txs[self.index_of(to)];
        // A send only fails during shutdown; drop the burst then.
        match msgs.len() {
            0 => {}
            1 => {
                let msg = msgs.pop().expect("len checked");
                let _ = inbox.send(RtMsg::Proto { src, msg });
            }
            _ => {
                let _ = inbox.send(RtMsg::Batch { src, msgs });
            }
        }
    }

    /// Answers one `SliceReq` for partition `at` on the calling thread
    /// (Algorithm 3 through the partition's [`SliceReader`]), then sends
    /// the `SliceResp` to the coordinator. The slot's read lock is held
    /// for the lookup only, never across the send. A request from a
    /// non-coordinator (only a coordinator legitimately sends one; over
    /// TCP this is remote input, so no assert) or for a partition that
    /// is down is dropped.
    ///
    /// Why any thread may serve it: the request names a snapshot
    /// `(lt, rt)` that is *stable* — every version inside it is already
    /// installed at every partition of the DC (the paper's central
    /// invariant, §IV-B). A concurrent writer can only be installing
    /// versions newer than any stable snapshot, so this read either does
    /// not see them (they are above its visibility ceiling) or sees them
    /// fully spliced (the store's stripe locks rule out torn state).
    /// Stable-time watermarks flow through the store's atomics both
    /// ways: the read observes the writer's published `lst`/`rst`, and
    /// the request's carried stable times are published exactly as the
    /// writer path would.
    ///
    /// Nor can the writer's **GC tick sweep the versions** a slice
    /// needs: the GC watermark is the DC-wide minimum over every
    /// partition's *oldest active transaction* snapshot (`GcGossip`), and
    /// a `SliceReq` only exists while its coordinator still holds the
    /// transaction's context — whose `(lt, rt)` is exactly this read's
    /// bound. The coordinator therefore pins the watermark at or below
    /// every in-flight read, and a stale gossiped contribution only errs
    /// *lower* (safer). The pin lives at the coordinator, which is why
    /// the serving thread needs no GC bookkeeping of its own.
    fn serve_slice(
        &self,
        src: Dest,
        at: ServerId,
        tx: TxId,
        lt: Timestamp,
        rt: Timestamp,
        keys: &[Key],
    ) {
        let Dest::Server(coordinator) = src else {
            return;
        };
        let resp = match &*self.readers[self.index_of(at)].read() {
            Some(reader) => reader.serve(tx, lt, rt, keys),
            None => return,
        };
        self.send_to_server(Dest::Server(at), coordinator, resp);
    }

    /// Opens (`Some`) or closes (`None`) partition `id`'s read path.
    fn set_reader(&self, id: ServerId, reader: Option<SliceReader>) {
        *self.readers[self.index_of(id)].write() = reader;
    }

    fn send_to_client(&self, to: ClientId, msg: WrenMsg) {
        if let Some(fabric) = &self.tcp {
            fabric.send_client(to, &msg);
            return;
        }
        if let Some(tx) = self.clients.read().get(&to) {
            let _ = tx.send(msg);
        }
    }

    pub(crate) fn dispatch(&self, src: ServerId, out: impl IntoIterator<Item = Outgoing<WrenMsg>>) {
        for Outgoing { to, msg } in out {
            match to {
                Dest::Server(s) => self.send_to_server(Dest::Server(src), s, msg),
                Dest::Client(c) => self.send_to_client(c, msg),
            }
        }
    }

    pub(crate) fn register_client(&self, id: ClientId) -> Receiver<WrenMsg> {
        let (tx, rx) = unbounded();
        self.clients.write().insert(id, tx);
        rx
    }

    pub(crate) fn unregister_client(&self, id: ClientId) {
        self.clients.write().remove(&id);
    }

    /// Tells the engine at `at` that `peer`-origin traffic may have been
    /// lost in transit: an inbound connection from `peer` died, or a new
    /// one said hello. Called from the TCP fabric; a failed send means
    /// the local engine is down too, which needs no reaction.
    pub(crate) fn notify_link_lost(&self, at: ServerId, peer: ServerId) {
        let idx = self.index_of(at);
        let _ = self.server_txs[idx].send(RtMsg::PeerLinkLost { peer });
    }
}

/// Configuration for an in-process Wren cluster.
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    n_dcs: u8,
    n_partitions: u16,
    replication_tick: Duration,
    gossip_tick: Duration,
    gc_tick: Duration,
    session_timeout: Duration,
    tcp: bool,
    tcp_client_outbox_bytes: usize,
    reactor_threads: usize,
    durable_dir: Option<PathBuf>,
    fsync: FsyncPolicy,
    checkpoint_interval: Duration,
    fault_plan: Option<FaultPlan>,
    dial_retry_budget: Duration,
    tx_abort_timeout: Duration,
    metrics_every: Option<Duration>,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder {
            n_dcs: 1,
            n_partitions: 2,
            replication_tick: Duration::from_millis(1),
            gossip_tick: Duration::from_millis(5),
            gc_tick: Duration::from_millis(50),
            session_timeout: Duration::from_secs(5),
            tcp: false,
            tcp_client_outbox_bytes: wren_net::DEFAULT_OUTBOX_BYTES,
            reactor_threads: 2,
            durable_dir: None,
            fsync: FsyncPolicy::Always,
            checkpoint_interval: Duration::from_millis(500),
            fault_plan: None,
            dial_retry_budget: Duration::from_millis(100),
            tx_abort_timeout: Duration::from_secs(3),
            metrics_every: None,
        }
    }
}

impl ClusterBuilder {
    /// Starts building a cluster (defaults: 1 DC × 2 partitions, the
    /// paper's tick intervals).
    pub fn new() -> Self {
        ClusterBuilder::default()
    }

    /// Number of data centers.
    pub fn dcs(mut self, m: u8) -> Self {
        self.n_dcs = m;
        self
    }

    /// Partitions per DC.
    pub fn partitions(mut self, n: u16) -> Self {
        self.n_partitions = n;
        self
    }

    /// Δ_R: the replication tick (default 1 ms, the paper's). Engines
    /// apply and ship every commit, and raise their version clocks to
    /// any newer one they hear, in the turn it happens, so this does not
    /// set visibility; it is the idle heartbeat, and the rate at which
    /// the version clocks — and with them the stable cut — follow the
    /// physical clock while nothing commits.
    pub fn replication_tick(mut self, d: Duration) -> Self {
        self.replication_tick = d;
        self
    }

    /// Δ_G: stabilization heartbeat (default 5 ms, the paper's tick).
    /// Engines push the stable cut whenever it moves, so this does not
    /// set visibility; it sets how soon a lost push is repaired on a
    /// quiet partition, and the period of vote re-sends, in-doubt
    /// aborts and the durable `Stable` record.
    pub fn gossip_tick(mut self, d: Duration) -> Self {
        self.gossip_tick = d;
        self
    }

    /// GC exchange interval (zero disables).
    pub fn gc_tick(mut self, d: Duration) -> Self {
        self.gc_tick = d;
        self
    }

    /// How long sessions wait for a server reply before erroring.
    pub fn session_timeout(mut self, d: Duration) -> Self {
        self.session_timeout = d;
        self
    }

    /// Runs the cluster over real TCP sockets on 127.0.0.1 instead of
    /// in-process channels: one listener per partition, length-prefixed
    /// framed sessions, and every protocol hop — client↔coordinator,
    /// slices, 2PC, replication, gossip — encoded onto the wire and
    /// decoded back. The engines themselves (one writer thread per
    /// partition) are identical in every mode.
    ///
    /// Sockets are served by the **reactor fabric**: a fixed pool of
    /// [`reactor_threads`](Self::reactor_threads) event-loop threads
    /// owns every listener, accepted connection and dialed peer link,
    /// so fabric threads are O(reactor_threads), not O(connections).
    /// The event loop that decodes a read slice also answers it, straight
    /// from the partition's store, and frames the reply.
    ///
    /// [`Cluster::server_addrs`] exposes the bound addresses so
    /// sessions in *other processes* can join via
    /// [`Session::connect_tcp`](crate::Session::connect_tcp).
    pub fn tcp(mut self) -> Self {
        self.tcp = true;
        self
    }

    /// Size of the reactor thread pool in TCP mode (default 2, minimum
    /// 1): the epoll event-loop threads serving **all** connections. More
    /// threads spread socket I/O across cores; connections are
    /// distributed round-robin and never migrate.
    pub fn reactor_threads(mut self, n: usize) -> Self {
        self.reactor_threads = n.max(1);
        self
    }

    /// Cap on queued (unwritten) response bytes per client connection
    /// in TCP mode (default 4 MiB). A client that stops reading fills
    /// its outbox and is disconnected — it can never block a partition
    /// thread. Tiny caps make slow-client tests deterministic.
    pub fn tcp_client_outbox_bytes(mut self, bytes: usize) -> Self {
        self.tcp_client_outbox_bytes = bytes;
        self
    }

    /// Makes every partition durable: each engine keeps a per-partition
    /// write-ahead log and periodic checkpoints under
    /// `dir/dc{d}_p{p}/`, replays them on boot, and can therefore
    /// survive [`Cluster::kill_partition`] /
    /// [`Cluster::restart_partition`] cycles. The directory is created
    /// on demand; an existing one is **recovered from**, so pointing
    /// two live clusters at the same directory is a caller bug.
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durable_dir = Some(dir.into());
        self
    }

    /// Group-commit fsync policy for durable clusters (default
    /// [`FsyncPolicy::Always`]: an acknowledged write is on disk before
    /// the acknowledgement leaves the partition). Ignored without
    /// [`Self::durable`].
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// How often each durable partition rotates its WAL behind a fresh
    /// checkpoint (default 500 ms; zero disables rotation, leaving one
    /// ever-growing log generation). Ignored without [`Self::durable`].
    pub fn checkpoint_interval(mut self, d: Duration) -> Self {
        self.checkpoint_interval = d;
        self
    }

    /// Installs a deterministic fault-injection plan underneath the TCP
    /// fabric: every server-to-server frame and every peer dial consults
    /// it, so a seeded [`FaultPlan`] can drop, duplicate, delay or
    /// reorder inter-server traffic, refuse dials, or partition peers —
    /// replayably, from one seed. Client↔server sockets are unaffected
    /// (sessions model a co-located client). Ignored in channel mode.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Total time a TCP session keeps retrying a refused dial (with
    /// jittered exponential backoff) before reporting the server
    /// unreachable (default 100 ms). Small budgets make sessions fail
    /// fast and lean on their own retry loop; large ones ride out a
    /// restart inside a single dial. Ignored in channel mode.
    pub fn dial_retry_budget(mut self, d: Duration) -> Self {
        self.dial_retry_budget = d;
        self
    }

    /// How long a coordinator lets a transaction that has started its
    /// 2PC fan-out sit without a full set of votes before unilaterally
    /// aborting it (default 3 s). This is the crash-failover backstop:
    /// when a cohort dies mid-prepare and recovers without the prepare,
    /// the coordinator eventually aborts rather than pinning the
    /// transaction's locks and GC watermark forever. Idle *interactive*
    /// transactions (between start and commit) are never aborted — the
    /// timer arms at the commit fan-out.
    pub fn tx_abort_timeout(mut self, d: Duration) -> Self {
        self.tx_abort_timeout = d;
        self
    }

    /// Periodically logs what changed in the cluster's merged metrics:
    /// every `d`, a background thread snapshots
    /// [`Cluster::metrics`], diffs it against the previous snapshot and
    /// prints one compact line to stderr — non-zero counter deltas and
    /// histogram deltas with their interval p50/p99. Zero disables
    /// (the default: no logger thread at all).
    pub fn metrics_every(mut self, d: Duration) -> Self {
        self.metrics_every = (!d.is_zero()).then_some(d);
        self
    }

    /// Spawns the server threads and returns the running cluster.
    pub fn build(self) -> Cluster {
        Cluster::start(self)
    }
}

/// Tick intervals an engine launched under `cfg` runs with.
fn ticks_of(cfg: &ClusterBuilder) -> crate::engine::Ticks {
    (
        cfg.replication_tick,
        cfg.gossip_tick,
        if cfg.gc_tick.is_zero() {
            None
        } else {
            Some(cfg.gc_tick)
        },
        // Checkpoint rotation only makes sense with a log to rotate.
        cfg.durable_dir
            .as_ref()
            .filter(|_| !cfg.checkpoint_interval.is_zero())
            .map(|_| cfg.checkpoint_interval),
    )
}

/// The durability opening for partition `id` under `cfg`, if any:
/// every partition logs into its own subdirectory of the cluster's
/// durability root.
fn durability_of(cfg: &ClusterBuilder, id: ServerId) -> Option<Durability> {
    cfg.durable_dir.as_ref().map(|root| Durability {
        dir: root.join(format!("dc{}_p{}", id.dc.0, id.partition.0)),
        policy: cfg.fsync,
    })
}

/// Everything the cluster's merged metrics snapshot draws from, shared
/// between [`Cluster::metrics`] and the optional metrics-logger thread
/// ([`ClusterBuilder::metrics_every`]).
struct ObsHub {
    /// Per-partition live handles (registry + trace ring), DC-major
    /// order. A restart replaces the slot — the new process starts with
    /// fresh metrics, exactly as a real restarted server would.
    partitions: Mutex<Vec<(Registry, ServerTrace)>>,
    /// The non-partition registries folded into the merged view:
    /// session ops, the TCP fabric (if any), the fault plan (if any).
    extras: Vec<Registry>,
}

impl ObsHub {
    /// The merged cluster-wide snapshot: partition registries use
    /// unprefixed metric names, so merging them yields cross-partition
    /// aggregates (`commit_prepare_micros` = the histogram over every
    /// partition's commits).
    fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (registry, _) in self.partitions.lock().iter() {
            snap.merge(&registry.snapshot());
        }
        for registry in &self.extras {
            snap.merge(&registry.snapshot());
        }
        snap
    }
}

/// One interval's worth of metric movement, as a single stderr line:
/// non-zero counter deltas, then histogram deltas with their interval
/// count/p50/p99. Gauges are skipped (they are point-in-time values,
/// visible in a full [`Cluster::metrics`] snapshot).
fn log_metrics_delta(at: Duration, delta: &MetricsSnapshot) {
    let mut line = format!("[wren metrics +{:.1}s]", at.as_secs_f64());
    for (name, v) in &delta.counters {
        if *v != 0 {
            let _ = write!(line, " {name}={v}");
        }
    }
    for (name, h) in &delta.histograms {
        if h.count != 0 {
            let _ = write!(
                line,
                " {name}[n={} p50={} p99={}]",
                h.count,
                h.p50(),
                h.p99()
            );
        }
    }
    eprintln!("{line}");
}

/// The syscall interface a TCP cluster's event loops run on, as
/// [`Cluster::tcp_backend`] reports it for run provenance. The reactor
/// has exactly one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Level-triggered `epoll_wait`, then `read`/`writev` per ready fd.
    Epoll,
}

/// An in-process Wren cluster: one partition **engine** per partition —
/// a writer thread running the protocol state machine — with read
/// slices answered straight from the stripe-locked store by whichever
/// thread delivers them, real (shared) wall-clock time and crossbeam
/// channels as the FIFO transport.
///
/// This is the deployable face of the library: the exact protocol state
/// machines the simulator benchmarks, driven by threads instead of
/// simulated events. Sessions ([`Cluster::session`]) expose the paper's
/// client API: `start / read / write / commit`.
///
/// # Example
///
/// ```
/// use wren_rt::ClusterBuilder;
/// use wren_protocol::Key;
/// use bytes::Bytes;
///
/// let cluster = ClusterBuilder::new().dcs(1).partitions(2).build();
/// let mut session = cluster.session(0);
/// session.begin().unwrap();
/// session.write(Key(1), Bytes::from_static(b"hello"));
/// session.commit().unwrap();
///
/// session.begin().unwrap();
/// let value = session.read_one(Key(1)).unwrap();
/// assert_eq!(value, Some(Bytes::from_static(b"hello"))); // read-your-writes
/// session.commit().unwrap();
/// cluster.shutdown();
/// ```
pub struct Cluster {
    cfg: ClusterBuilder,
    router: Arc<Router>,
    /// `None` marks a killed partition awaiting
    /// [`restart_partition`](Self::restart_partition).
    engines: Vec<Option<PartitionEngine>>,
    /// Receiver clones retained so a restarted engine can re-attach to
    /// the same inbox channel (the vendored channel is MPMC); also what
    /// [`restart_partition`](Self::restart_partition) drains to model
    /// the dead process's lost inbox.
    server_rxs: Vec<Receiver<RtMsg>>,
    wren_cfg: WrenConfig,
    /// The cluster's physical time, shared by every engine (restarted
    /// ones included): microseconds since the build, above a base no
    /// lower than any timestamp recovered from a durable directory.
    clock: SystemClock,
    /// Listener addresses in TCP mode (DC-major partition order).
    addrs: Arc<Vec<SocketAddr>>,
    next_client: AtomicU32,
    next_coordinator: AtomicU32,
    shut_down: std::sync::atomic::AtomicBool,
    /// The observability hub behind [`Cluster::metrics`] /
    /// [`Cluster::dump_traces`], shared with the logger thread.
    obs: Arc<ObsHub>,
    /// Session-op metric handles, cloned into every session.
    session_metrics: SessionMetrics,
    /// The metrics-logger thread ([`ClusterBuilder::metrics_every`]):
    /// stop sender + join handle, taken at stop/drop.
    metrics_logger: Option<(Sender<()>, JoinHandle<()>)>,
}

impl Cluster {
    fn start(cfg: ClusterBuilder) -> Cluster {
        let total = cfg.n_dcs as usize * cfg.n_partitions as usize;
        let mut txs = Vec::with_capacity(total);
        let mut rxs = Vec::with_capacity(total);
        for _ in 0..total {
            let (tx, rx) = unbounded::<RtMsg>();
            txs.push(tx);
            rxs.push(rx);
        }
        // TCP mode: bind every server's loopback listener up front so
        // the fabric knows all addresses before any engine (or lazy
        // dial) runs; the fabric registers them with its reactor.
        let (listeners, addrs) = if cfg.tcp {
            bind_listeners(cfg.n_dcs, cfg.n_partitions).expect("bind loopback listeners")
        } else {
            (Vec::new(), Vec::new())
        };
        let addrs = Arc::new(addrs);

        // `new_cyclic` because the reactor fabric's handler needs a way
        // back to the router (to deliver decoded frames into the
        // engines) while the router owns the fabric: the handler gets a
        // `Weak`, so there is no leak-forming Arc ring. The reactor's
        // loops start inside the closure, but nothing can reach them
        // until sessions dial — and a frame arriving before the Arc is
        // live is dropped, exactly like one arriving after shutdown.
        let router = Arc::new_cyclic(|weak: &std::sync::Weak<Router>| Router {
            n_partitions: cfg.n_partitions,
            server_txs: txs,
            readers: (0..total).map(|_| RwLock::new(None)).collect(),
            clients: RwLock::new(HashMap::new()),
            tcp: cfg.tcp.then(|| {
                ReactorFabric::start(
                    addrs.as_ref().clone(),
                    cfg.n_partitions,
                    cfg.tcp_client_outbox_bytes,
                    cfg.reactor_threads,
                    listeners,
                    weak.clone(),
                    cfg.fault_plan.clone(),
                )
            }),
        });

        let wren_cfg = WrenConfig {
            n_dcs: cfg.n_dcs,
            n_partitions: cfg.n_partitions,
            replication_tick_micros: cfg.replication_tick.as_micros() as u64,
            gossip_tick_micros: cfg.gossip_tick.as_micros() as u64,
            gc_tick_micros: cfg.gc_tick.as_micros() as u64,
            visibility_sample_every: 0,
            // Broadcast: the runtime has no aggregation-tree mode.
            gossip_fanout: 0,
        };

        // Every partition is built — durable ones recovered — before the
        // first writer loop runs, because physical time must start at or
        // above every timestamp any of them brought back: under a
        // recovered hybrid clock that is ahead of physical time, commits
        // are stamped by the logical counter alone, and a write that
        // does not touch every partition stays invisible until physical
        // time has caught up with the previous life.
        let ids =
            (0..cfg.n_dcs).flat_map(|dc| (0..cfg.n_partitions).map(move |p| ServerId::new(dc, p)));
        let servers: Vec<_> = ids
            .map(|id| {
                let durable = durability_of(&cfg, id);
                let server = PartitionEngine::recover(id, wren_cfg, durable, cfg.tx_abort_timeout);
                (id, server)
            })
            .collect();
        let base = servers
            .iter()
            .map(|(_, s)| s.max_timestamp().physical_micros())
            .max()
            .unwrap_or(0);
        let clock = SystemClock::with_offset(Instant::now(), base as i64);

        // A durable cluster may be resuming a previous life, and what
        // was in flight between its DCs when that life ended is gone: a
        // graceful stop ends the writers one after another, so a
        // replication batch shipped by a writer still running can land
        // in the inbox of one that has already sealed. Every partition
        // therefore opens with catch-up, as a restarted one does; on a
        // first boot, or with one DC, that is an empty exchange.
        let rejoin = cfg.durable_dir.is_some();
        for (id, server) in &servers {
            router.set_reader(*id, Some(server.reader()));
        }
        let engines: Vec<_> = spawn_engines(&cfg, &router, &clock, &rxs, servers, rejoin)
            .into_iter()
            .map(Some)
            .collect();

        // Observability: collect every engine's registry + trace ring,
        // add the session / fabric / fault registries, and (optionally)
        // start the delta-logging thread.
        let session_metrics = SessionMetrics::new();
        let mut extras = vec![session_metrics.registry()];
        if let Some(fabric) = router.tcp() {
            extras.push(fabric.registry());
        }
        if let Some(plan) = &cfg.fault_plan {
            extras.push(plan.registry());
        }
        let obs = Arc::new(ObsHub {
            partitions: Mutex::new(
                engines
                    .iter()
                    .map(|e| {
                        let e = e.as_ref().expect("all engines live at start");
                        (e.registry(), e.trace())
                    })
                    .collect(),
            ),
            extras,
        });
        let metrics_logger = cfg.metrics_every.map(|every| {
            let obs = Arc::clone(&obs);
            let (stop_tx, stop_rx) = unbounded::<()>();
            let handle = std::thread::spawn(move || {
                let mut prev = obs.snapshot();
                let mut elapsed = Duration::ZERO;
                loop {
                    match stop_rx.recv_timeout(every) {
                        Err(RecvTimeoutError::Timeout) => {
                            elapsed += every;
                            let cur = obs.snapshot();
                            log_metrics_delta(elapsed, &cur.diff(&prev));
                            prev = cur;
                        }
                        // A stop signal or a dropped sender ends the
                        // logger either way.
                        Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
                    }
                }
            });
            (stop_tx, handle)
        });

        Cluster {
            cfg,
            router,
            engines,
            server_rxs: rxs,
            wren_cfg,
            clock,
            addrs,
            next_client: AtomicU32::new(0),
            next_coordinator: AtomicU32::new(0),
            shut_down: std::sync::atomic::AtomicBool::new(false),
            obs,
            session_metrics,
            metrics_logger,
        }
    }

    /// The servers' listen addresses in TCP mode, DC-major partition
    /// order (empty for a channel-transport cluster). Hand these to
    /// [`Session::connect_tcp`] in another process to join the cluster
    /// over the network.
    pub fn server_addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The syscall interface the TCP fabric's event loops run on:
    /// `Some` for every TCP cluster, `None` in channel mode.
    pub fn tcp_backend(&self) -> Option<Backend> {
        self.router.tcp().map(|_| Backend::Epoll)
    }

    /// Inter-server messages the TCP fabric refused to frame (always 0
    /// on a healthy run — legitimate traffic cannot exceed the frame
    /// ceiling; see `wren_protocol::frame::MAX_FRAME_LEN`). Always 0 in
    /// channel mode. The loopback oracle tests assert on this: the
    /// transport must be loss-free while the invariants are checked.
    pub fn tcp_dropped_frames(&self) -> u64 {
        self.router.tcp().map_or(0, |f| f.dropped_frames())
    }

    /// The cluster's merged metrics snapshot: every live partition's
    /// registry (commit-stage, read-slice, WAL, replication and
    /// visibility-lag histograms — unprefixed names, so the merge is the
    /// cross-partition aggregate), the session-op histograms, and — in
    /// TCP mode — the fabric's socket-boundary counters plus the fault
    /// plan's injection counters, all folded into one diffable
    /// [`MetricsSnapshot`]. Render it with
    /// [`MetricsSnapshot::render_prometheus`] or diff two calls to see
    /// an interval's movement.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }

    /// Dumps every partition's tx-lifecycle trace ring (oldest event
    /// first), tagged with the owning server, DC-major partition order.
    /// This is the chaos-debugging view: a failed oracle run prints it
    /// to show the last ~512 protocol events — begins, prepares,
    /// decisions, in-doubt aborts, applies, stable raises, crashes,
    /// restarts, link losses — each partition saw before the failure.
    pub fn dump_traces(&self) -> Vec<(ServerId, Vec<TxEvent>)> {
        self.obs
            .partitions
            .lock()
            .iter()
            .enumerate()
            .map(|(idx, (_, trace))| {
                let dc = (idx / self.cfg.n_partitions as usize) as u8;
                let p = (idx % self.cfg.n_partitions as usize) as u16;
                (ServerId::new(dc, p), trace.dump())
            })
            .collect()
    }

    /// Number of DCs in the cluster.
    pub fn n_dcs(&self) -> u8 {
        self.cfg.n_dcs
    }

    /// Partitions per DC.
    pub fn n_partitions(&self) -> u16 {
        self.cfg.n_partitions
    }

    /// Opens a client session against DC `dc`, choosing a coordinator
    /// partition round-robin (the paper picks coordinators at random and
    /// collocates clients with them).
    ///
    /// # Panics
    ///
    /// Panics if `dc` is out of range.
    pub fn session(&self, dc: u8) -> Session {
        assert!(dc < self.cfg.n_dcs, "no such DC");
        let id = ClientId(self.next_client.fetch_add(1, Ordering::Relaxed));
        let p = (self.next_coordinator.fetch_add(1, Ordering::Relaxed)
            % self.cfg.n_partitions as u32) as u16;
        let coordinator = ServerId::new(dc, p);
        if self.cfg.tcp {
            // Same API, real sockets: the session dials its coordinator
            // exactly as a remote process would.
            return Session::tcp(
                id,
                coordinator,
                Arc::clone(&self.addrs),
                self.cfg.n_partitions,
                self.cfg.session_timeout,
                self.cfg.dial_retry_budget,
                Some(self.session_metrics.clone()),
            );
        }
        let rx = self.router.register_client(id);
        Session::channel(
            id,
            coordinator,
            Arc::clone(&self.router),
            rx,
            self.cfg.session_timeout,
            Some(self.session_metrics.clone()),
        )
    }

    /// Abruptly kills one partition's engine — the in-process stand-in
    /// for `kill -9` on the partition's process — and returns its final
    /// statistics. The writer thread exits without draining its inbox,
    /// without dispatching pending responses and **without flushing or
    /// sealing its WAL**: whatever bytes the fsync policy left buffered
    /// in user space are lost, exactly as a crash would lose them. The
    /// partition's read path closes first: from then on a slice request
    /// for it is dropped, as one sent to a dead host would be.
    ///
    /// This is a **process** kill: the machine stays up, so every byte
    /// the WAL had handed to the OS survives in the page cache whether
    /// or not it was fsynced — an open `FsyncPolicy::Window` loses
    /// nothing here. [`power_cut_partition`](Self::power_cut_partition)
    /// is the failure that takes the unsynced bytes too.
    ///
    /// In TCP mode the kill extends to the partition's sockets: its
    /// listener closes (freeing the address for the restart rebind) and
    /// every established connection it owns — accepted sessions, dialed
    /// peer links — is severed mid-stream, exactly as the OS would reap
    /// a dead process's fds. Peers observe EOF, park their links and
    /// re-dial with backoff until the partition returns.
    ///
    /// Only meaningful on a [durable](ClusterBuilder::durable) cluster
    /// — a killed non-durable partition has nothing to recover from —
    /// but allowed on any cluster for testing.
    ///
    /// # Panics
    ///
    /// Panics if `dc`/`p` are out of range, or if the partition is
    /// already down.
    pub fn kill_partition(&mut self, dc: u8, p: u16) -> ServerStats {
        self.take_down(dc, p).0
    }

    /// Cuts the power under one partition: the same abrupt kill as
    /// [`kill_partition`](Self::kill_partition), after which the
    /// partition's active WAL file is truncated to its fsynced length —
    /// the page cache dies with the machine, so only what an fsync put
    /// on the medium is still there at restart. Under
    /// `FsyncPolicy::Always` that is everything a commit point covered;
    /// under `FsyncPolicy::Window` the records of the open window are
    /// gone, and the durability promise is that nothing a client or
    /// peer was told depended on them.
    /// [`restart_partition`](Self::restart_partition) brings the
    /// partition back from what is left.
    ///
    /// # Panics
    ///
    /// As [`kill_partition`](Self::kill_partition); also if truncating
    /// the log file fails.
    pub fn power_cut_partition(&mut self, dc: u8, p: u16) -> ServerStats {
        let (stats, synced_wal) = self.take_down(dc, p);
        if let Some((path, synced_len)) = synced_wal {
            std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .and_then(|wal| wal.set_len(synced_len))
                .expect("truncate the WAL to its fsynced prefix");
        }
        stats
    }

    /// Kills partition `(dc, p)`'s engine and sockets and joins its
    /// threads; what the dead engine leaves behind.
    fn take_down(&mut self, dc: u8, p: u16) -> crate::engine::Remains {
        let id = ServerId::new(dc, p);
        let idx = id.dc_major_index(self.cfg.n_partitions);
        let engine = self.engines[idx].take().expect("partition already down");
        // Mark the crash in the victim's trace ring — the post-mortem
        // dump should show the kill between the events it interrupted.
        self.obs.partitions.lock()[idx]
            .1
            .push(TxEvent::KillPartition { server: id });
        // The read path first: no thread answers from a dead process's
        // store once this returns (a slice already being served
        // finishes, as one already sent would have).
        self.router.set_reader(id, None);
        // Then sockets, so in-flight frames die with the process and
        // nothing new lands in the inbox behind the kill pill.
        if let Some(fabric) = self.router.tcp() {
            fabric.kill_server(id);
        }
        let _ = self.router.server_txs[idx].send(RtMsg::Kill);
        engine.join()
    }

    /// Restarts a partition previously taken down by
    /// [`kill_partition`](Self::kill_partition) or
    /// [`power_cut_partition`](Self::power_cut_partition): recovers the engine
    /// from its WAL + newest checkpoint, then has it ask its sibling
    /// replicas to re-ship whatever replicated commits died in the old
    /// process's inbox (catch-up), after which it serves traffic as if
    /// it had never been away. Everything queued to the partition while
    /// it was down is discarded first — messages to a dead process are
    /// lost, and recovering them from the channel would let the test
    /// pass without the WAL working.
    ///
    /// In TCP mode the partition also rebinds its original listen
    /// address (`SO_REUSEADDR` makes the exact address reusable
    /// immediately) before the engine relaunches: parked peer links
    /// re-dial it with backoff and replication resumes; sessions that
    /// kept retrying reconnect as if the server had merely been slow.
    ///
    /// # Panics
    ///
    /// Panics if the partition is still running or if the cluster is
    /// not [durable](ClusterBuilder::durable).
    pub fn restart_partition(&mut self, dc: u8, p: u16) {
        assert!(
            self.cfg.durable_dir.is_some(),
            "restart requires a durable cluster"
        );
        let id = ServerId::new(dc, p);
        let idx = id.dc_major_index(self.cfg.n_partitions);
        assert!(self.engines[idx].is_none(), "partition still running");
        // Process-down semantics: the dead process's inbox is gone.
        while self.server_rxs[idx].try_recv().is_some() {}
        // The restarted engine runs on the cluster's clock, which kept
        // going while the partition was down.
        let server = PartitionEngine::recover(
            id,
            self.wren_cfg,
            durability_of(&self.cfg, id),
            self.cfg.tx_abort_timeout,
        );
        // Reads open on the recovered store before the network is back,
        // so no slice request that reaches the new process is dropped.
        self.router.set_reader(id, Some(server.reader()));
        // Network back before the engine: frames accepted between rebind
        // and engine launch just queue in the (freshly drained) inbox.
        if let Some(fabric) = self.router.tcp() {
            let SocketAddr::V4(v4) = self.addrs[idx] else {
                unreachable!("listeners bind IPv4 loopback")
            };
            let listener =
                wren_net::poll::bind_reusable(v4).expect("rebind the partition's address");
            fabric.restart_server(id, listener);
        }
        let engine = spawn_engines(
            &self.cfg,
            &self.router,
            &self.clock,
            &self.server_rxs,
            vec![(id, server)],
            true,
        )
        .pop()
        .expect("one server, one engine");
        // The new process gets a fresh registry and trace ring (its
        // pre-crash metrics died with it, as on a real host); the
        // restart event is the new trace's first entry, so a dump reads
        // "restarted here, then caught up".
        let trace = engine.trace();
        trace.push(TxEvent::Restart { server: id });
        self.obs.partitions.lock()[idx] = (engine.registry(), trace);
        self.engines[idx] = Some(engine);
    }

    /// Asks every engine to stop: a shutdown message to each writer
    /// thread. Threads are joined (and their final [`ServerStats`]
    /// collected) in [`Cluster::stop`] or on drop — until then an event
    /// loop that has finished its work stays parked, so that the threads
    /// end in a fixed order; calling this twice is harmless
    /// (idempotent).
    pub fn shutdown(&self) {
        if self.shut_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // TCP first: close listeners and sever every connection (in
        // flight included) so no new work reaches the engines while
        // they drain their inboxes towards the shutdown messages below.
        if let Some(fabric) = self.router.tcp() {
            fabric.shutdown();
        }
        for tx in &self.router.server_txs {
            let _ = tx.send(RtMsg::Shutdown);
        }
    }

    /// Stops the cluster and returns each server's final statistics in
    /// DC-major partition order (slices served off the writer thread
    /// included — the counters are shared). Consumes the cluster; every
    /// engine and fabric thread is joined before this returns, so none
    /// outlives the call.
    pub fn stop(mut self) -> Vec<ServerStats> {
        self.shutdown();
        self.join_threads()
    }

    /// Joins every thread of a cluster that has been
    /// [shut down](Self::shutdown), in the reverse of the order
    /// [`spawn_engines`] and the fabric started them — every writer,
    /// then the fabric's event loops — and returns the writers' final
    /// statistics (a default for a partition that is down).
    fn join_threads(&mut self) -> Vec<ServerStats> {
        self.stop_metrics_logger();
        let stats = self
            .engines
            .drain(..)
            .map(|e| e.map_or_else(ServerStats::default, |e| e.join().0))
            .collect();
        if let Some(fabric) = self.router.tcp() {
            fabric.join_threads();
        }
        stats
    }

    /// Stops and joins the metrics-logger thread, if one runs.
    /// Idempotent (the handle is taken on first call).
    fn stop_metrics_logger(&mut self) {
        if let Some((stop, handle)) = self.metrics_logger.take() {
            let _ = stop.send(());
            let _ = handle.join();
        }
    }
}

/// Spawns the writers of `servers`, every one running before this
/// returns, and returns their engines in the order given.
/// [`PartitionEngine`] says why the order, which
/// [`Cluster::join_threads`] mirrors.
fn spawn_engines(
    cfg: &ClusterBuilder,
    router: &Arc<Router>,
    clock: &SystemClock,
    rxs: &[Receiver<RtMsg>],
    servers: Vec<(ServerId, WrenServer)>,
    rejoin: bool,
) -> Vec<PartitionEngine> {
    let writers_up = Arc::new(Barrier::new(servers.len() + 1));
    let engines: Vec<_> = servers
        .into_iter()
        .map(|(id, server)| {
            PartitionEngine::spawn(
                id,
                server,
                clock.clone(),
                rxs[id.dc_major_index(cfg.n_partitions)].clone(),
                Arc::clone(router),
                ticks_of(cfg),
                rejoin,
                &writers_up,
            )
        })
        .collect();
    writers_up.wait();
    engines
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
        // No engine or socket thread survives the cluster.
        self.join_threads();
    }
}

