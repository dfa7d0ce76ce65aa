//! The TCP fabric: the cluster's engines behind real sockets, served
//! by a **fixed pool of epoll reactor threads** ([`Reactor`]) instead
//! of threads per connection.
//!
//! In channel mode every hop is a crossbeam send; in TCP mode every
//! protocol message — client↔coordinator, coordinator↔cohort,
//! replication, gossip, GC — is **encoded, framed, written to a socket,
//! read back, decoded and dispatched**, exactly as it would be between
//! machines. The engines are untouched: each writer thread keeps
//! consuming from the same inbox, which this fabric feeds from the wire.
//!
//! * **One listener per partition server**, registered with the shared
//!   [`Reactor`]; accepts happen on readable readiness.
//! * **Accepted connections** open with a [`Hello`] naming the peer;
//!   every later frame is a bare protocol message attributed to that
//!   identity. Readable bytes are fed through the connection's
//!   `FrameDecoder` on a reactor thread; the frames decoded by one
//!   readiness burst are buffered per connection and delivered into the
//!   destination engine's inbox as **one** coalesced wake-up
//!   (`RtMsg::Batch`) when the burst ends, so a pipelined run of
//!   requests costs the engine one channel receive and one group-commit
//!   point (read slices are answered on the reactor thread, in wire
//!   order, and never reach the inbox).
//! * **Outbound links are dialed lazily**, one per (local engine,
//!   remote server) pair. Every write goes onto the connection's
//!   bounded, never-blocking queue ([`ConnHandle`]), which the reactor
//!   drains on writable readiness — the engine threads never block on
//!   `write(2)`. Client links get the small, configurable cap (overflow
//!   = disconnect the slow client); inter-server links are effectively
//!   unbounded ([`SERVER_OUTBOX_BYTES`]) and lossless.
//! * **Client connections** register their handle under the client id
//!   at hello time, so coordinator responses find the socket without
//!   any per-message addressing bytes.
//!
//! Total fabric threads: `reactor_threads` (default 2), independent of
//! the number of sessions.
//!
//! Shutdown is idempotent: flag, reactor shutdown (wakes every loop,
//! severs every fd, drops every listener), registry sweep, join. The
//! accept/dial/register-vs-sweep races close by re-checking the closing
//! flag *after* publishing, so exactly one side severs.
//!
//! **Failover.** A single partition can die and return without the rest
//! of the fabric noticing more than a dead host would show:
//! [`ReactorFabric::kill_server`] marks the victim down, closes its
//! [`ListenerHandle`] (the owning reactor thread reaps the fd, freeing
//! the address for the restart rebind) and severs every connection it
//! owns — peers and sessions see EOF mid-stream, exactly like `kill -9`.
//! A peer link that then fails to dial **parks** ([`PeerLink`]): frames
//! sent before its jittered, exponentially-doubling next-attempt time
//! are dropped silently, as packets to a dead host are. When the
//! accepted side of a server link dies, [`ReactorHandler::on_close`]
//! (the reactor's exactly-once teardown callback) reports the loss to
//! its engine ([`Router::notify_link_lost`]) so a sibling replica can
//! open a catch-up window for whatever replication died in flight. A
//! new server link's hello is reported the same way: a dialed link
//! severed before its hello was written loses its queued frames with
//! no EOF at the receiver to say whose they were.
//!
//! [`ReactorFabric::restart_server`] clears the down flag, unparks every
//! link toward the reborn server and registers its fresh listener
//! (bound with `SO_REUSEADDR` on the original address).
//!
//! **Fault injection.** When the cluster was built with a
//! [`FaultPlan`], every server→server frame consults it just after
//! framing ([`wren_net::fault`] has the verdict semantics: drop-and-
//! sever, duplicate, delay/reorder) and every peer dial consults
//! [`FaultPlan::allow_dial`]; a refused dial parks the link exactly
//! like a dead host. Client↔server sockets never consult the plan —
//! sessions model the paper's co-located client.

use crate::cluster::Router;
use crate::metrics::FabricMetrics;
use crate::tcp::{
    jittered, legal_from_client, legal_from_server, DIAL_BACKOFF_MAX, DIAL_BACKOFF_MIN,
};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};
use wren_net::{
    ConnHandle, FaultPlan, Hello, ListenerHandle, Reactor, ReactorHandler, ReactorMetrics,
    SendVerdict,
};
use wren_protocol::frame::try_frame_wren;
use wren_protocol::{ClientId, Dest, ServerId, WrenMsg};

/// Cap on a server↔server link's send queue. Effectively unbounded:
/// the protocol's tick pacing flow-controls inter-server traffic, and
/// dropping replication or 2PC messages would violate the lossless-FIFO
/// link assumption the state machines are built on. (Client links are
/// the untrusted ones — they get the small, configurable cap.)
const SERVER_OUTBOX_BYTES: usize = usize::MAX;

/// One outbound server→server link: the live handle (if any) plus the
/// dial gate that parks the link between failed attempts.
struct PeerLink {
    /// The live link, `None` while disconnected or parked.
    out: Option<ConnHandle>,
    /// Earliest next dial; `None` means dial freely.
    next_attempt: Option<Instant>,
    /// Backoff the *next* failure will park for (jittered).
    backoff: Duration,
}

impl Default for PeerLink {
    fn default() -> Self {
        PeerLink {
            out: None,
            next_attempt: None,
            backoff: DIAL_BACKOFF_MIN,
        }
    }
}

impl PeerLink {
    /// Whether a dial may be attempted now. While parked, callers drop
    /// their frame instead — packets to a dead host.
    fn may_dial(&self) -> bool {
        self.next_attempt.is_none_or(|at| Instant::now() >= at)
    }

    /// Records a refused dial: parks the link for the current backoff
    /// (jittered) and doubles it toward [`DIAL_BACKOFF_MAX`].
    fn dial_failed(&mut self) {
        self.next_attempt = Some(Instant::now() + jittered(self.backoff));
        self.backoff = (self.backoff * 2).min(DIAL_BACKOFF_MAX);
    }

    /// Resets the gate after a successful dial — or eagerly, when the
    /// peer's restart makes an immediate re-dial worthwhile.
    fn unpark(&mut self) {
        self.next_attempt = None;
        self.backoff = DIAL_BACKOFF_MIN;
    }
}

/// One outbound link's slot. The per-slot mutex serializes dial +
/// enqueue for that (engine, peer) pair only — it preserves the pair's
/// FIFO order (one connection at a time) without making unrelated pairs
/// (or `SliceResp`s sent from the reactor threads) queue on a global
/// lock, and without ever holding the fabric-wide map lock across a
/// blocking `connect`.
type PeerSlot = Arc<Mutex<PeerLink>>;

/// A bound listener tagged with the server it serves.
pub(crate) type BoundListeners = Vec<(ServerId, TcpListener)>;

/// Binds one loopback listener per server, DC-major partition order.
pub(crate) fn bind_listeners(
    n_dcs: u8,
    n_partitions: u16,
) -> std::io::Result<(BoundListeners, Vec<SocketAddr>)> {
    let mut listeners = Vec::new();
    let mut addrs = Vec::new();
    for dc in 0..n_dcs {
        for p in 0..n_partitions {
            let listener = TcpListener::bind(("127.0.0.1", 0))?;
            addrs.push(listener.local_addr()?);
            listeners.push((ServerId::new(dc, p), listener));
        }
    }
    Ok((listeners, addrs))
}

/// Per-process reactor-fabric state: listener addresses, live link and
/// client registries, and the reactor itself.
pub(crate) struct ReactorFabric {
    /// All servers' listen addresses, DC-major partition order.
    addrs: Vec<SocketAddr>,
    n_partitions: u16,
    /// The client-connection outbox cap, kept for restart re-binds.
    client_outbox_bytes: usize,
    /// Outbound links, one slot per (local engine, remote server) pair.
    peers: RwLock<HashMap<(ServerId, ServerId), PeerSlot>>,
    /// Response sinks for connected clients, registered at hello time.
    clients: RwLock<HashMap<ClientId, ConnHandle>>,
    /// Per-server listener handles, DC-major order: `None` while a
    /// server is killed (its handle was closed) until its restart
    /// registers a fresh listener.
    listeners: Mutex<Vec<Option<ListenerHandle>>>,
    /// Accepted connections keyed by fabric-assigned id and tagged with
    /// the accepting server, so [`Self::kill_server`] can sever exactly
    /// the victim's; entries are reaped in `on_close`.
    conns: Mutex<HashMap<u64, (ServerId, ConnHandle)>>,
    next_conn: AtomicU64,
    /// Socket-boundary metric handles (frames/bytes in and out,
    /// connection churn, dial parks, the frame-ceiling drop counter —
    /// 0 on any healthy run, see [`Self::send_server`]). Injected
    /// faults are counted by the [`FaultPlan`] itself, not here.
    metrics: FabricMetrics,
    /// Per-server kill flags, DC-major order: a down server sends
    /// nothing, receives nothing and accepts nothing until
    /// [`Self::restart_server`].
    down: Vec<AtomicBool>,
    /// The deterministic fault plan, when the cluster injects faults.
    faults: Option<FaultPlan>,
    closing: AtomicBool,
    reactor: Reactor<RtHandler>,
}

impl ReactorFabric {
    /// Starts the reactor pool and registers every listener with it.
    /// Called inside the router's `Arc::new_cyclic`, which is why the
    /// handler gets a `Weak` — frames arriving before the router Arc
    /// finishes construction (or after it drops) are simply dropped,
    /// like sends during shutdown.
    pub(crate) fn start(
        addrs: Vec<SocketAddr>,
        n_partitions: u16,
        client_outbox_bytes: usize,
        reactor_threads: usize,
        listeners: BoundListeners,
        router: Weak<Router>,
        faults: Option<FaultPlan>,
    ) -> ReactorFabric {
        let handler = RtHandler {
            router,
            n_partitions,
            n_servers: addrs.len(),
        };
        let metrics = FabricMetrics::new();
        let reactor = Reactor::with_metrics(
            reactor_threads,
            handler,
            ReactorMetrics {
                writev_frames: Some(metrics.writev_frames_per_call.clone()),
            },
        )
        .expect("start reactor pool");
        let mut handles: Vec<Option<ListenerHandle>> = Vec::new();
        handles.resize_with(addrs.len(), || None);
        for (me, listener) in listeners {
            let idx = me.dc_major_index(n_partitions);
            handles[idx] = Some(
                reactor
                    .add_listener(listener, idx as u64, client_outbox_bytes)
                    .expect("register listener with reactor"),
            );
        }
        let down = addrs.iter().map(|_| AtomicBool::new(false)).collect();
        ReactorFabric {
            addrs,
            n_partitions,
            client_outbox_bytes,
            peers: RwLock::new(HashMap::new()),
            clients: RwLock::new(HashMap::new()),
            listeners: Mutex::new(handles),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            metrics,
            down,
            faults,
            closing: AtomicBool::new(false),
            reactor,
        }
    }

    /// Ships one engine-originated message to a peer server over the
    /// (lazily dialed) outbound link; drops it during shutdown, like a
    /// channel send to a stopped cluster, and while the link is parked
    /// behind its dial backoff — packets to a dead host.
    pub(crate) fn send_server(&self, src: ServerId, to: ServerId, msg: &WrenMsg) {
        // A killed process sends nothing and receives nothing.
        if self.down[src.dc_major_index(self.n_partitions)].load(Ordering::SeqCst)
            || self.down[to.dc_major_index(self.n_partitions)].load(Ordering::SeqCst)
        {
            return;
        }
        let Some(frame) = try_frame_wren(msg) else {
            // Beyond the frame ceiling, which legitimate traffic cannot
            // reach: client requests are capped with amplification
            // headroom at their own transport (`CLIENT_REQ_MAX`), so
            // every per-transaction server message derived from one
            // stays under the ceiling, and multi-transaction `Replicate`
            // batches share one commit timestamp (HLC ties — a handful
            // at most, not 64 MiB). Splitting such a batch here would
            // be UNSOUND: the receiver raises its replication watermark
            // to `ct` after each message, so a half-applied batch could
            // become visible as a stable — and torn — snapshot. Drop
            // instead, and make it observable.
            self.metrics.dropped_frames.inc();
            return;
        };
        // The fault plan's verdict may multiply the frame (duplicate,
        // released delays), erase it (drop), or sever the link after.
        let (frames, sever_after): (Vec<Bytes>, bool) =
            match self.faults.as_ref().map(|f| f.on_send(src, to, &frame)) {
                None | Some(SendVerdict::Pass) => (vec![frame], false),
                Some(SendVerdict::Mutate { frames, sever }) => {
                    (frames.into_iter().map(Bytes::from).collect(), sever)
                }
            };
        let key = (src, to);
        let existing = self.peers.read().get(&key).map(Arc::clone);
        let slot: PeerSlot = match existing {
            Some(slot) => slot,
            None => Arc::clone(self.peers.write().entry(key).or_default()),
        };
        let mut link = slot.lock();
        'transmit: {
            if frames.is_empty() {
                break 'transmit; // the plan dropped it: nothing to carry
            }
            if let Some(conn) = link.out.as_ref() {
                if frames.iter().all(|f| conn.enqueue(f.clone())) {
                    self.note_sent(&frames, conn.queued_bytes());
                    break 'transmit;
                }
                // The link died (peer gone / overflow); redial below.
                link.out = None;
            }
            if self.closing.load(Ordering::SeqCst) || !link.may_dial() {
                break 'transmit;
            }
            match self.dial(src, to) {
                Ok(conn) => {
                    link.unpark();
                    for f in &frames {
                        conn.enqueue(f.clone());
                    }
                    self.note_sent(&frames, conn.queued_bytes());
                    // Shutdown may have drained the peers map while we
                    // dialed; re-checking ensures the new link cannot
                    // escape severing.
                    if self.closing.load(Ordering::SeqCst) {
                        conn.sever();
                        break 'transmit;
                    }
                    link.out = Some(conn);
                }
                // Refused: park and drop the frames, like a dead host.
                Err(_) => {
                    link.dial_failed();
                    self.metrics.dial_backoff_parks.inc();
                }
            }
        }
        if sever_after {
            if let Some(conn) = link.out.take() {
                conn.sever();
            }
        }
    }

    /// Records outbound frames (count, bytes) and the link's queued-
    /// depth high-water mark after an enqueue.
    fn note_sent(&self, frames: &[Bytes], queued: usize) {
        self.metrics.frames_out.add(frames.len() as u64);
        self.metrics
            .bytes_out
            .add(frames.iter().map(|f| f.len() as u64).sum());
        self.metrics.outbox_depth_bytes.record_max(queued as u64);
    }

    fn dial(&self, src: ServerId, to: ServerId) -> std::io::Result<ConnHandle> {
        if let Some(f) = &self.faults {
            if !f.allow_dial(src, to) {
                return Err(std::io::ErrorKind::ConnectionRefused.into());
            }
        }
        let stream = TcpStream::connect(self.addrs[to.dc_major_index(self.n_partitions)])?;
        stream.set_nodelay(true)?;
        let conn = self.reactor.add_conn(
            stream,
            RtConn {
                me: src,
                identity: RtIdentity::Dialed,
                conn_id: None,
                pending: Vec::new(),
            },
            SERVER_OUTBOX_BYTES,
        )?;
        conn.enqueue(Hello::Server(src).encode_framed());
        Ok(conn)
    }

    /// Ships a response to a connected client; silently dropped if the
    /// client is gone (its session times out, as in channel mode).
    pub(crate) fn send_client(&self, to: ClientId, msg: &WrenMsg) {
        if let Some(conn) = self.clients.read().get(&to) {
            match try_frame_wren(msg) {
                Some(frame) => {
                    self.metrics.frames_out.inc();
                    self.metrics.bytes_out.add(frame.len() as u64);
                    conn.enqueue(frame);
                    self.metrics
                        .outbox_depth_bytes
                        .record_max(conn.queued_bytes() as u64);
                }
                // Undeliverable response: sever so the client fails
                // fast instead of waiting out its timeout.
                None => conn.sever(),
            }
        }
    }

    /// Flags the fabric closed and severs everything. Idempotent.
    pub(crate) fn shutdown(&self) {
        self.closing.store(true, Ordering::SeqCst);
        // The reactor sweep severs every registered fd and closes every
        // listener; the registry sweeps below catch links that were
        // created but not yet (or no longer) known to the reactor.
        self.reactor.shutdown();
        for (_, slot) in self.peers.write().drain() {
            if let Some(conn) = slot.lock().out.take() {
                conn.sever();
            }
        }
        for (_, conn) in self.clients.write().drain() {
            conn.sever();
        }
        for (_, (_, conn)) in self.conns.lock().drain() {
            conn.sever();
        }
    }

    /// Abruptly takes one server off the network: down flag, listener
    /// close (the owning reactor thread reaps the fd, freeing the
    /// address for the restart rebind), and a hard sever of every link
    /// and accepted connection the victim owns. Peers and sessions
    /// observe EOF mid-stream, exactly like `kill -9`.
    pub(crate) fn kill_server(&self, id: ServerId) {
        let idx = id.dc_major_index(self.n_partitions);
        self.down[idx].store(true, Ordering::SeqCst);
        if let Some(handle) = self.listeners.lock()[idx].take() {
            handle.close();
        }
        // Outbound links from the victim (its process died) and toward
        // it (its end of those sockets died).
        for (&(from, to), slot) in self.peers.read().iter() {
            if from == id || to == id {
                if let Some(conn) = slot.lock().out.take() {
                    conn.sever();
                }
            }
        }
        // Accepted connections the victim owned: inbound peer links and
        // client sessions get EOF; `on_close` reaps the entries.
        for (owner, conn) in self.conns.lock().values() {
            if *owner == id {
                conn.sever();
            }
        }
    }

    /// Puts a restarted server back on the network: clears the down
    /// flag, unparks every peer link toward it (so the first
    /// post-restart send re-dials immediately) and registers the fresh
    /// listener — bound by the caller on the original address — with
    /// the reactor pool.
    pub(crate) fn restart_server(&self, id: ServerId, listener: TcpListener) {
        let idx = id.dc_major_index(self.n_partitions);
        self.down[idx].store(false, Ordering::SeqCst);
        for (&(_, to), slot) in self.peers.read().iter() {
            if to == id {
                slot.lock().unpark();
            }
        }
        let handle = self
            .reactor
            .add_listener(listener, idx as u64, self.client_outbox_bytes)
            .expect("re-register restarted listener with reactor");
        self.listeners.lock()[idx] = Some(handle);
    }

    /// Server→server messages refused for exceeding the frame ceiling
    /// (0 on any healthy run; the loopback oracle suite asserts it).
    /// Thin shim over the registry counter of the same name.
    pub(crate) fn dropped_frames(&self) -> u64 {
        self.metrics.dropped_frames.get()
    }

    /// The fabric's metric registry (folded into the cluster snapshot).
    pub(crate) fn registry(&self) -> wren_obs::Registry {
        self.metrics.registry()
    }

    /// Joins the reactor threads (after [`shutdown`](Self::shutdown)).
    pub(crate) fn join_threads(&self) {
        self.reactor.join();
    }

    fn register_client(&self, id: ClientId, conn: ConnHandle) {
        if let Some(old) = self.clients.write().insert(id, conn.clone()) {
            // A reconnect (e.g. after migration) displaces the old
            // registration; sever the stale connection.
            old.sever();
        }
        // Shutdown may have swept the client map between the insert and
        // its sweep; re-checking after the insert guarantees one side
        // sees the other (the closing store precedes the sweep).
        if self.closing.load(Ordering::SeqCst) {
            conn.sever();
        }
    }

    fn unregister_client(&self, id: ClientId, conn: &ConnHandle) {
        let mut clients = self.clients.write();
        if clients.get(&id).is_some_and(|cur| cur.same_as(conn)) {
            clients.remove(&id);
        }
    }
}

/// Who is on the other end of a reactor-served connection.
enum RtIdentity {
    /// Accepted, handshake not yet received.
    AwaitingHello,
    /// A client session; frames are `Dest::Client`-sourced requests.
    Client(ClientId),
    /// A peer server's inbound link; read-only for us — replies travel
    /// on our own outbound link to that peer.
    Peer(ServerId),
    /// Our own outbound link; the peer never sends frames back on it.
    Dialed,
}

/// Per-connection protocol state, owned by the connection's reactor
/// thread (no locks — see [`ReactorHandler`]).
struct RtConn {
    /// The local server whose listener accepted (or engine dialed) the
    /// connection.
    me: ServerId,
    identity: RtIdentity,
    /// This connection's entry in the fabric's accepted-conn registry
    /// (`None` for dialed links, which live in peer slots instead).
    conn_id: Option<u64>,
    /// Legality-checked messages decoded during the current readiness
    /// burst, flushed to the engine as one [`RtMsg::Batch`] wake-up in
    /// `on_burst_end` (the reactor fires it after every decode burst
    /// and before `on_close`, so buffered frames are never lost).
    ///
    /// [`RtMsg::Batch`]: crate::cluster::RtMsg::Batch
    pending: Vec<WrenMsg>,
}

/// Routes reactor events into the cluster: hellos establish identity,
/// later frames are legality-filtered and delivered to the local
/// engines.
struct RtHandler {
    router: Weak<Router>,
    n_partitions: u16,
    n_servers: usize,
}

impl RtHandler {
    fn with_fabric<R>(&self, f: impl FnOnce(&Arc<Router>, &ReactorFabric) -> R) -> Option<R> {
        let router = self.router.upgrade()?;
        let fabric = router.tcp()?;
        Some(f(&router, fabric))
    }
}

impl ReactorHandler for RtHandler {
    type Conn = RtConn;

    fn on_accept(&self, listener_ctx: u64, handle: &ConnHandle) -> Option<RtConn> {
        let idx = listener_ctx as usize;
        let dc = (idx / self.n_partitions as usize) as u8;
        let p = (idx % self.n_partitions as usize) as u16;
        let me = ServerId::new(dc, p);
        // Register for per-server severing; refuse while the server is
        // down (a listener-close can race one last accept through).
        let conn_id = self.with_fabric(|_, fabric| {
            if fabric.down[idx].load(Ordering::SeqCst) {
                return None;
            }
            let conn_id = fabric.next_conn.fetch_add(1, Ordering::Relaxed);
            fabric.conns.lock().insert(conn_id, (me, handle.clone()));
            // Re-check after publishing: kill_server stores its flag
            // before sweeping `conns`, so exactly one side severs a
            // connection accepted during the race.
            if fabric.down[idx].load(Ordering::SeqCst) {
                fabric.conns.lock().remove(&conn_id);
                return None;
            }
            fabric.metrics.conns_accepted.inc();
            Some(conn_id)
        })??;
        Some(RtConn {
            me,
            identity: RtIdentity::AwaitingHello,
            conn_id: Some(conn_id),
            pending: Vec::new(),
        })
    }

    fn on_frame(&self, conn: &mut RtConn, handle: &ConnHandle, payload: bytes::Bytes) -> bool {
        match conn.identity {
            RtIdentity::AwaitingHello => match Hello::decode(&payload) {
                // A forged out-of-range ServerId would index out of
                // bounds downstream — validate at the boundary.
                Ok(Hello::Server(src))
                    if src.partition.index() < self.n_partitions as usize
                        && src.dc_major_index(self.n_partitions) < self.n_servers =>
                {
                    conn.identity = RtIdentity::Peer(src);
                    // A fresh link from `src` is as much a gap as a dead
                    // one: a predecessor link severed before its hello
                    // was written took its queued frames with it and no
                    // EOF here could name the sender. Reported before any
                    // of this link's frames reach the engine, so no
                    // heartbeat on it can vouch for what was lost.
                    self.with_fabric(|router, _| router.notify_link_lost(conn.me, src))
                        .is_some()
                }
                Ok(Hello::Server(_)) | Err(_) => false,
                Ok(Hello::Client(id)) => {
                    conn.identity = RtIdentity::Client(id);
                    self.with_fabric(|_, fabric| {
                        fabric.register_client(id, handle.clone());
                    })
                    .is_some()
                }
            },
            RtIdentity::Client(_) => match WrenMsg::decode(&payload) {
                Ok(msg) if legal_from_client(&msg) => self
                    .with_fabric(|_, fabric| {
                        fabric.metrics.frames_in.inc();
                        fabric.metrics.bytes_in.add(payload.len() as u64);
                        // Buffered, not delivered: the whole readiness
                        // burst flushes as one engine wake-up in
                        // `on_burst_end`.
                        conn.pending.push(msg);
                    })
                    .is_some(),
                // Corrupt or protocol-illegal client: sever.
                _ => false,
            },
            RtIdentity::Peer(_) => match WrenMsg::decode(&payload) {
                Ok(msg) if legal_from_server(&msg) => self
                    .with_fabric(|_, fabric| {
                        fabric.metrics.frames_in.inc();
                        fabric.metrics.bytes_in.add(payload.len() as u64);
                        conn.pending.push(msg);
                    })
                    .is_some(),
                _ => false,
            },
            // Nothing legitimate ever arrives on our outbound links.
            RtIdentity::Dialed => false,
        }
    }

    fn on_burst_end(&self, conn: &mut RtConn, _handle: &ConnHandle) {
        if conn.pending.is_empty() {
            return;
        }
        let src = match conn.identity {
            RtIdentity::Client(id) => Dest::Client(id),
            RtIdentity::Peer(s) => Dest::Server(s),
            // `pending` is only filled under an established identity.
            RtIdentity::AwaitingHello | RtIdentity::Dialed => return,
        };
        let msgs = std::mem::take(&mut conn.pending);
        self.with_fabric(|router, _| router.deliver_local_batch(src, conn.me, msgs));
    }

    fn on_close(&self, conn: &mut RtConn, handle: &ConnHandle) {
        self.with_fabric(|router, fabric| {
            if let Some(id) = conn.conn_id {
                fabric.conns.lock().remove(&id);
                fabric.metrics.conns_severed.inc();
            }
            match conn.identity {
                RtIdentity::Client(id) => fabric.unregister_client(id, handle),
                // The conn that carried `src`-origin traffic died. Tell
                // the engine, so a sibling's death opens a catch-up
                // window — unless the loss is our own teardown.
                RtIdentity::Peer(src) => {
                    let me_idx = conn.me.dc_major_index(self.n_partitions);
                    if !fabric.closing.load(Ordering::SeqCst)
                        && !fabric.down[me_idx].load(Ordering::SeqCst)
                    {
                        router.notify_link_lost(conn.me, src);
                    }
                }
                RtIdentity::AwaitingHello | RtIdentity::Dialed => {}
            }
        });
    }
}
