//! The partition engine: one writer thread per partition, owning the
//! [`WrenServer`] state machine and all mutating protocol handling —
//! start/read fan-out, 2PC, replication, stabilization, GC ticks
//! ([`server_loop`]).
//!
//! Replication and stabilization are event-driven here: every turn ends
//! by raising the version clock to the newest timestamp the partition
//! committed or heard, applying and shipping what that covers
//! ([`WrenServer::advance`]), and then pushing the partition's BiST
//! contribution if it moved ([`WrenServer::stabilize`]). A commit is
//! therefore in the stable cut a few message delays after it lands. The
//! replication tick (Δ_R) is left to move the version clock with the
//! physical clock while nothing commits, and the gossip tick (Δ_G) to
//! repair a lost push.
//!
//! Read slices never reach this thread. Wren's reads never block (paper
//! §IV-B): a `SliceReq` names a stable snapshot, so answering it needs
//! only the partition's stripe-locked store and the atomically
//! published `lst`/`rst` — a [`SliceReader`]. The [`Router`] serves each
//! one on whichever thread delivered it (see `Router::serve_slice` for
//! why that is safe), and every other message lands in the writer's
//! inbox.

use crate::cluster::{Router, RtMsg};
use crossbeam_channel::{Receiver, RecvTimeoutError};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wren_clock::{SkewedClock, SystemClock};
use wren_core::{
    asserts_logged_state, FsyncPolicy, ServerStats, SliceReader, WrenConfig, WrenServer,
};
use wren_protocol::{Outgoing, ServerId, WrenMsg};

/// One partition's running engine: the writer thread handle, and a
/// reader handle kept so [`join`](Self::join) can take the slice
/// counters *after* the writer has finished — other threads serve this
/// partition's slices and may still be doing so when the writer
/// snapshots its stats. The metric registry and trace ring are cloned
/// out before the state machine moves into the writer thread, so the
/// cluster can snapshot a live partition (and dump its trace
/// post-mortem) without touching it.
///
/// # Thread lifecycle: kind by kind, last in first out
///
/// A cluster starts its threads one kind at a time — the fabric's event
/// loops, then every writer ([`spawn`](Self::spawn)), all of them
/// running (an `up` barrier) before the build returns — and ends them in
/// the reverse order: a writer exits as soon as its loop ends (in any
/// order among writers: an arena passed from one writer to another is
/// the point), and the event loops outlive them all, waiting for
/// `wren_net::Reactor::join`.
///
/// Nothing in the protocol needs that order; memory does. An allocator
/// with per-thread arenas (glibc) hands a new thread the arena of the
/// thread that exited last. With starts and exits in mirrored order, a
/// cluster restarted in the same process — or a restarted partition —
/// gives every writer an arena a writer has already grown. When exits
/// race instead, a writer's freed tables and log buffers (1–2 MiB,
/// below what the allocator returns to the OS) end up under a thread
/// that never needs them while the next writer grows a fresh arena, and
/// resident memory creeps with every restart by an amount that depends
/// on scheduling: 15.6 → 25.7 MiB over thirty lifetimes of a
/// 2-partition durable cluster on a quiet machine, less on a busy one;
/// 15.4 → 18.1 MiB, flat from the third lifetime on, with the order kept
/// (`docs/storage_layout.md`; `tests/restart_memory.rs` holds it).
pub(crate) struct PartitionEngine {
    writer: JoinHandle<Remains>,
    reader: SliceReader,
    registry: wren_obs::Registry,
    trace: wren_core::ServerTrace,
}

/// Tick intervals for a writer loop: replication, gossip, optional GC,
/// optional checkpoint rotation.
pub(crate) type Ticks = (Duration, Duration, Option<Duration>, Option<Duration>);

/// How a durable partition engine opens (or re-opens) its log.
pub(crate) struct Durability {
    /// The partition's durability directory (`wal.N` / `ckpt.N` pairs).
    pub dir: PathBuf,
    /// Group-commit fsync policy.
    pub policy: FsyncPolicy,
}

/// What a joined engine leaves behind: its final statistics and, for a
/// durable partition, the active WAL file with its fsynced length (see
/// [`WrenServer::log_synced_prefix`]).
pub(crate) type Remains = (ServerStats, Option<(PathBuf, u64)>);

impl PartitionEngine {
    /// Builds partition `id`'s state machine on the calling thread:
    /// fresh, or — durable — recovered from its directory (checkpoint
    /// load + WAL replay). Split from [`spawn`](Self::spawn) so a cold
    /// start can recover *every* partition, and read the clock floor off
    /// all of them, before the first writer loop runs.
    pub(crate) fn recover(
        id: ServerId,
        cfg: WrenConfig,
        durable: Option<Durability>,
        tx_abort_timeout: Duration,
    ) -> WrenServer {
        let mut server = match durable {
            Some(d) => WrenServer::recover(id, cfg, SkewedClock::perfect(), &d.dir, d.policy)
                .expect("durable partition recovery"),
            None => WrenServer::new(id, cfg, SkewedClock::perfect()),
        };
        server.set_tx_abort_timeout(tx_abort_timeout.as_micros() as u64);
        server
    }

    /// Spawns the writer thread around `server`; it meets `up` before
    /// its loop starts. `clock` is the cluster's physical time, shared
    /// by every engine. `rejoin` runs catch-up first: ask the sibling
    /// replicas to re-ship what died in the previous process's inbox —
    /// `true` on
    /// [`Cluster::restart_partition`](crate::Cluster::restart_partition)
    /// and on the cold start of a durable cluster (whose previous life,
    /// however it ended, may have left replication in flight), `false`
    /// for a cluster without a log, which has no previous life.
    #[allow(clippy::too_many_arguments)] // internal: one call site per mode
    pub(crate) fn spawn(
        id: ServerId,
        server: WrenServer,
        clock: SystemClock,
        rx: Receiver<RtMsg>,
        router: Arc<Router>,
        ticks: Ticks,
        rejoin: bool,
        up: &Arc<Barrier>,
    ) -> PartitionEngine {
        // Handles are taken on the spawning thread, before the state
        // machine moves into the writer thread.
        let registry = server.registry();
        let trace = server.trace();
        let reader = server.reader();
        let up = Arc::clone(up);
        let writer = std::thread::spawn(move || {
            up.wait();
            // The state machine as the loop left it — sealed after a
            // graceful stop, mid-flight after a kill — is summed up and
            // dropped here, on the thread that allocated it.
            let server = server_loop(id, server, clock, rx, router, ticks, rejoin);
            (server.stats(), server.log_synced_prefix())
        });
        PartitionEngine {
            writer,
            reader,
            registry,
            trace,
        }
    }

    /// The partition's metric registry (live — snapshot any time).
    pub(crate) fn registry(&self) -> wren_obs::Registry {
        self.registry.clone()
    }

    /// The partition's tx-lifecycle trace ring (live handle).
    pub(crate) fn trace(&self) -> wren_core::ServerTrace {
        self.trace.clone()
    }

    /// Joins the writer thread (which ends on the `Shutdown` or `Kill`
    /// the cluster sent it) and returns its final statistics, with the
    /// slice counters re-read after the join: slices are served off the
    /// writer thread and may still land after the writer summed up.
    pub(crate) fn join(self) -> Remains {
        let (mut stats, synced_wal) = self.writer.join().unwrap_or_default();
        stats.slices_served = self.reader.slices_served();
        stats.keys_read = self.reader.keys_read();
        (stats, synced_wal)
    }
}

/// Upper bound on how many queued messages one wake-up drains before
/// dispatching responses and re-checking the tick schedule. Bounded so a
/// flooded inbox cannot starve replication/gossip ticks indefinitely.
const MAX_DRAIN: usize = 64;

/// The writer thread: drains the inbox, fires ticks on schedule.
///
/// A wake-up consumes the whole pending burst (up to [`MAX_DRAIN`]) in
/// one go rather than one message per loop turn: replication batches
/// that queued up while the thread slept are applied back to back —
/// each through the store's per-stripe batched splice — before any
/// clock reads or tick checks are paid again. `SliceReq`s never reach
/// this loop: the router answers them where they arrive.
///
/// **Replication and stabilization** wait for no tick: every turn — a
/// burst, a tick, the rejoin — ends in [`commit_and_dispatch`], which
/// first advances the version clock to what the turn committed or heard
/// and then pushes the BiST contribution if that moved it. A write is
/// therefore visible a few message delays after it commits: the commit
/// turn applies it, ships it and pushes; each peer hears the push and
/// advances in turn. A turn that moved the version clock postpones the
/// replication tick by a full Δ_R, so an idle DC runs one tick round
/// per Δ_R — led by whichever partition's tick fires first, the others
/// following its push — rather than one per partition. The gossip tick
/// (default 5 ms, the paper's Δ_G) keeps the crash-resolution work and
/// an unconditional push that repairs any push lost in transit.
///
/// **Durability discipline**: every `router.dispatch` is preceded by a
/// [`WrenServer::log_commit_point`], so by the time an effect of a
/// message burst or tick leaves this thread, the WAL records it rests
/// on are flushed as far as the fsync policy promises. The cost follows
/// the bytes: a burst that logged nothing — a begin, a read, a
/// heartbeat — pays no fsync and opens no window. Under
/// `FsyncPolicy::Always` an acknowledged write is on disk before the
/// acknowledgement exists. Under `FsyncPolicy::Window` one fsync is
/// amortized across the window, and while the log has unsynced bytes
/// this thread *holds* exactly the outputs that
/// [assert logged state](wren_core::asserts_logged_state) — votes,
/// decisions, acknowledgements, replication, gossip, new snapshots —
/// until the fsync lands (the deadline joins the tick schedule, so a
/// held message waits at most `max_delay`). Everything else — slices,
/// read replies, prepare requests, abort notices: functions of client
/// data and snapshots already released — leaves at once, so a read
/// never waits for a write's window. Neither a kill nor a power cut can
/// then take back anything a peer or client was told.
///
/// Shutdown comes in two shapes, mirroring the crash model:
/// * `RtMsg::Shutdown` is graceful — the remaining inbox is drained and
///   handled (messages queued behind the pill are real traffic from
///   still-live peers, not noise), a final commit point flushes, the
///   responses go out, and the log is sealed.
/// * `RtMsg::Kill` is abrupt — return *immediately*, dropping undrained
///   inbox messages, any undispatched responses, and whatever WAL bytes
///   the fsync policy left buffered. This is the kill-and-restart
///   oracle's process-crash stand-in.
pub(crate) fn server_loop(
    id: ServerId,
    mut server: WrenServer,
    clock: SystemClock,
    rx: Receiver<RtMsg>,
    router: Arc<Router>,
    (repl, gossip, gc, ckpt): Ticks,
    rejoin: bool,
) -> WrenServer {
    let started = Instant::now();
    let mut next_repl = started + repl;
    let mut next_gossip = started + gossip;
    let mut next_gc = gc.map(|d| started + d);
    let mut next_ckpt = ckpt.map(|d| started + d);
    let mut out = Vec::new();
    let mut held = Held::new(&server.registry());

    if rejoin {
        // First thing on the wire after a restart: ask every sibling
        // replica to re-ship what was lost with the dead process's
        // inbox, before any new traffic interleaves.
        let now = clock.read();
        server.begin_rejoin(now, &mut out);
        commit_and_dispatch(id, &mut server, &router, &clock, &mut out, &mut held, now);
    }

    loop {
        let now_inst = Instant::now();
        let mut next_tick = next_repl.min(next_gossip);
        if let Some(g) = next_gc {
            next_tick = next_tick.min(g);
        }
        if let Some(c) = next_ckpt {
            next_tick = next_tick.min(c);
        }
        if let Some(d) = server.log_sync_deadline() {
            // An open fsync window wakes the loop like any other tick:
            // held responses must not outwait `max_delay`.
            next_tick = next_tick.min(d);
        }
        let wait = next_tick.saturating_duration_since(now_inst);

        let advanced = match rx.recv_timeout(wait) {
            Ok(RtMsg::Proto { src, msg }) => {
                let now = clock.read();
                server.handle(src, msg, now, &mut out);
                // Drain the burst that accumulated while we slept.
                for _ in 1..MAX_DRAIN {
                    match rx.try_recv() {
                        Some(RtMsg::Proto { src, msg }) => {
                            server.handle(src, msg, now, &mut out);
                        }
                        Some(RtMsg::Batch { src, msgs }) => {
                            for msg in msgs {
                                server.handle(src, msg, now, &mut out);
                            }
                        }
                        Some(RtMsg::PeerLinkLost { peer }) => {
                            server.on_peer_link_lost(peer, now, &mut out);
                        }
                        Some(RtMsg::Shutdown) => {
                            return finish(id, server, &clock, &rx, &router, out, held);
                        }
                        Some(RtMsg::Kill) => return server,
                        None => break,
                    }
                }
                commit_and_dispatch(id, &mut server, &router, &clock, &mut out, &mut held, now)
            }
            Ok(RtMsg::Batch { src, msgs }) => {
                let now = clock.read();
                for msg in msgs {
                    server.handle(src, msg, now, &mut out);
                }
                commit_and_dispatch(id, &mut server, &router, &clock, &mut out, &mut held, now)
            }
            Ok(RtMsg::PeerLinkLost { peer }) => {
                let now = clock.read();
                server.on_peer_link_lost(peer, now, &mut out);
                commit_and_dispatch(id, &mut server, &router, &clock, &mut out, &mut held, now)
            }
            Ok(RtMsg::Shutdown) => return finish(id, server, &clock, &rx, &router, out, held),
            Ok(RtMsg::Kill) | Err(RecvTimeoutError::Disconnected) => return server,
            Err(RecvTimeoutError::Timeout) => false,
        };

        let now_inst = Instant::now();
        let now = clock.read();
        if advanced {
            // The version clock just moved and its push is out: the peers
            // follow it, so this partition's own tick can wait a full Δ_R.
            next_repl = now_inst + repl;
        }
        if now_inst >= next_repl {
            server.on_replication_tick(now, &mut out);
            commit_and_dispatch(id, &mut server, &router, &clock, &mut out, &mut held, now);
            next_repl = now_inst + repl;
        }
        if now_inst >= next_gossip {
            server.on_gossip_tick(now, &mut out);
            commit_and_dispatch(id, &mut server, &router, &clock, &mut out, &mut held, now);
            next_gossip = now_inst + gossip;
        }
        if let Some(g) = next_gc {
            if now_inst >= g {
                server.on_gc_tick(now, &mut out);
                commit_and_dispatch(id, &mut server, &router, &clock, &mut out, &mut held, now);
                next_gc = Some(now_inst + gc.expect("gc enabled"));
            }
        }
        if let Some(c) = next_ckpt {
            if now_inst >= c {
                server
                    .write_checkpoint()
                    .expect("checkpoint rotation failed");
                next_ckpt = Some(now_inst + ckpt.expect("checkpoint enabled"));
            }
        }
        if server.log_sync_deadline().is_some_and(|d| now_inst >= d) {
            // The group-commit window expired: fsync now.
            server.sync_log().expect("wal window sync failed");
        }
        if server.log_sync_deadline().is_none() {
            // Nothing unsynced — the deadline fsync above, or a
            // checkpoint rotation, which seals the old generation — so
            // nothing held has anything left to wait for. And it must
            // not wait for the next burst: a kill landing first would
            // drop a held `Replicate` whose `Applied` record is already
            // durable, and nothing re-ships an applied transaction.
            held.release(id, &router, &clock);
        }
    }
}

/// Outputs whose truth rests on WAL records in an open group-commit
/// window (`FsyncPolicy::Window`): held here until the window's fsync
/// lands, dropped on `Kill` — which is correct, because unsaid is
/// exactly what unsynced must remain. Carries the two series that make
/// the wait visible from outside: `engine_held_wait_micros` (first hold
/// to release, one sample per released batch) and `engine_held_msgs`
/// (how many are waiting now).
struct Held {
    msgs: Vec<Outgoing<WrenMsg>>,
    /// Engine time of the burst that held the oldest message.
    since: u64,
    wait_micros: wren_obs::Histogram,
    depth: wren_obs::Gauge,
}

impl Held {
    fn new(registry: &wren_obs::Registry) -> Held {
        Held {
            msgs: Vec::new(),
            since: 0,
            wait_micros: registry.histogram("engine_held_wait_micros"),
            depth: registry.gauge("engine_held_msgs"),
        }
    }

    /// Dispatches everything held, oldest first. Reads the clock once
    /// per released batch and not at all when nothing was held.
    fn release(&mut self, id: ServerId, router: &Router, clock: &SystemClock) {
        if self.msgs.is_empty() {
            return;
        }
        self.wait_micros
            .record(clock.read().saturating_sub(self.since));
        self.depth.set(0);
        router.dispatch(id, self.msgs.drain(..));
    }
}

/// End a writer turn: advance the version clock to what the turn
/// committed or heard, push the stable cut if it moved, flush the WAL to
/// the fsync policy's promise, then let the turn's outputs leave the
/// thread. The order is the whole point: dispatch is the moment effects
/// become observable, so the flush must come first — and the advance
/// and the push come before both, so their `Applied` record is in the
/// flush and their replication, heartbeats and gossip ride the same hold
/// rule as everything else the turn produced. A turn that committed,
/// heard a newer clock ([`WrenServer::advance`]), took in a sibling's
/// heartbeat or batch, or stored a child's `GossipUp` pushes
/// ([`WrenServer::stabilize`]); a turn that moved nothing sends nothing.
/// Returns whether the version clock moved.
///
/// Under `FsyncPolicy::Window` the log may be left with unsynced bytes
/// (deadline open). The outputs that
/// [assert logged state](asserts_logged_state) then move to `held`;
/// the rest leave at once. Order is kept within each class; a free
/// message may overtake a held one to the same peer, which the protocol
/// tolerates already — two coordinators produce that interleaving
/// today. The held ones leave when the window closes: because a later
/// commit point crosses the byte threshold (the deadline reads `None`
/// here and they go out ahead of this burst), or because the engine's
/// tick loop fires the deadline. `now` is the burst's engine time.
fn commit_and_dispatch(
    id: ServerId,
    server: &mut WrenServer,
    router: &Router,
    clock: &SystemClock,
    out: &mut Vec<Outgoing<WrenMsg>>,
    held: &mut Held,
    now: u64,
) -> bool {
    let advanced = server.advance(now, out);
    server.stabilize(now, out);
    server.log_commit_point().expect("wal commit point failed");
    if server.log_sync_deadline().is_none() {
        held.release(id, router, clock);
        router.dispatch(id, out.drain(..));
        return advanced;
    }
    if held.msgs.is_empty() {
        held.since = now;
    }
    let waiting = &mut held.msgs;
    router.dispatch(
        id,
        out.drain(..).filter_map(|o| {
            if asserts_logged_state(&o.msg) {
                waiting.push(o);
                None
            } else {
                Some(o)
            }
        }),
    );
    held.depth.set(held.msgs.len() as u64);
    advanced
}

/// Graceful shutdown: handle everything still queued behind the poison
/// pill (peers may have sent real traffic before they themselves were
/// told to stop), flush, answer, and seal the log so the tail is on
/// disk regardless of fsync policy — the seal also closes any open
/// group-commit window, so held responses dispatch here over a fully
/// synced log. A `Kill` found while draining wins — abrupt beats
/// graceful (held responses drop with everything else).
fn finish(
    id: ServerId,
    mut server: WrenServer,
    clock: &SystemClock,
    rx: &Receiver<RtMsg>,
    router: &Router,
    mut out: Vec<Outgoing<WrenMsg>>,
    mut held: Held,
) -> WrenServer {
    let now = clock.read();
    while let Some(m) = rx.try_recv() {
        match m {
            RtMsg::Proto { src, msg } => server.handle(src, msg, now, &mut out),
            RtMsg::Batch { src, msgs } => {
                for msg in msgs {
                    server.handle(src, msg, now, &mut out);
                }
            }
            RtMsg::PeerLinkLost { peer } => server.on_peer_link_lost(peer, now, &mut out),
            RtMsg::Shutdown => {}
            RtMsg::Kill => return server,
        }
    }
    server.log_commit_point().expect("wal commit point failed");
    server.seal_log().expect("wal seal failed");
    held.release(id, router, clock);
    router.dispatch(id, out);
    server
}
