//! The reactor: every connection of a process served by a fixed pool
//! of epoll event-loop threads.
//!
//! This module serves *all* of a process's connections — listeners,
//! accepted sessions, dialed peer links — from `reactor_threads` event
//! loops, so the fabric's thread count is a deployment constant instead
//! of a function of client count. Frames are reassembled by the
//! sans-io [`FrameDecoder`](wren_protocol::frame::FrameDecoder), and
//! the send side is a bounded queue per connection ([`ConnHandle`]):
//! an enqueue never blocks, a frame offered to an empty queue is always
//! admitted, and a peer whose queue backs past the cap is severed.
//!
//! Topology per reactor thread: one [`Poller`] (level-triggered), one
//! [`Waker`] (eventfd) for cross-thread nudges, and a private map of
//! the fds assigned to it. Listeners and connections are distributed
//! round-robin at registration; an fd never migrates, so all of its
//! socket I/O stays on one thread and per-connection state needs no
//! locks. Other threads interact only through two shared queues — new
//! registrations and tiny commands (flush X, sever Y) — plus the
//! connection's own send queue, all waker-protected.
//!
//! The send path is **vectored**: a flush snapshots a batch of queued
//! frames and drains them with one `writev(2)` per syscall (see
//! [`crate::writev`] for the batch/resume arithmetic), so a pipelined
//! peer pays the syscall once per burst instead of once per frame.
//! Partial writes resume mid-frame through a per-connection cursor;
//! the bytes on the wire are identical to a frame-at-a-time drain.
//!
//! Protocol logic stays out: a [`ReactorHandler`] is called with each
//! complete frame (and on accept/close), and writes happen through the
//! cloneable [`ConnHandle`] from any thread; the end of each readiness
//! event's decode burst is signalled through
//! [`ReactorHandler::on_burst_end`], so a handler can coalesce the
//! burst's frames into a single downstream delivery. `wren-rt`
//! implements the handler to route frames into its partition engines.

use crate::poll::{PollEvents, Poller, Waker};
use crate::writev::{plan_batch, settle};
use bytes::Bytes;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use wren_protocol::frame::FrameDecoder;

/// The poller token reserved for each thread's waker.
const WAKER_TOKEN: u64 = u64::MAX;

/// Read-side chunk size, matching [`crate::FramedReader`]'s.
const READ_CHUNK: usize = 16 * 1024;

/// Per-readiness-event read budget: after this many bytes the loop
/// yields to other connections; level-triggered readiness re-reports
/// the leftover immediately, so nothing is lost — one firehose peer
/// just cannot monopolize its reactor thread.
const READ_BUDGET: usize = 256 * 1024;

/// Per-flush write budget, the send-side mirror of [`READ_BUDGET`]:
/// a connection whose peer drains promptly (so `write(2)` never blocks)
/// while producers keep its queue non-empty would otherwise hold its
/// reactor thread forever. Past the budget the flush arms write
/// interest and yields; the still-writable socket re-reports on the
/// next wait, after every other fd got its turn.
const WRITE_BUDGET: usize = 256 * 1024;

/// How the reactor reacts to connection events. One handler instance
/// serves every connection; per-connection protocol state lives in
/// [`Self::Conn`], owned by the connection's reactor thread and handed
/// to each callback — no locking required to use it.
pub trait ReactorHandler: Send + Sync + 'static {
    /// Per-connection state (e.g. "awaiting handshake" → identity).
    type Conn: Send + 'static;

    /// A listener registered with `listener_ctx` accepted a connection.
    /// Return its initial state, or `None` to refuse (the socket is
    /// dropped). `handle` is the connection's send handle — cloning it
    /// here is how response paths later find the socket.
    fn on_accept(&self, listener_ctx: u64, handle: &ConnHandle) -> Option<Self::Conn>;

    /// A complete frame payload arrived. Return `false` to sever the
    /// connection (protocol violation, decode failure, …).
    fn on_frame(&self, conn: &mut Self::Conn, handle: &ConnHandle, payload: Bytes) -> bool;

    /// The readiness event that produced the preceding `on_frame` calls
    /// is over: the decode loop drained the socket (or spent its
    /// fairness budget) and the reactor is about to move to the next
    /// fd. A handler that buffered the burst's frames delivers them
    /// here as one batch — one downstream wakeup per readiness event
    /// instead of one per frame. Also called when the burst ends in a
    /// sever, *before* `on_close`, so buffered frames are never lost.
    /// Default: no-op (per-frame handlers need no burst boundary).
    fn on_burst_end(&self, _conn: &mut Self::Conn, _handle: &ConnHandle) {}

    /// The connection is gone — EOF, I/O error, overflow, an explicit
    /// [`ConnHandle::sever`], or reactor shutdown. Called exactly once
    /// per connection that had state, after which the fd is closed.
    fn on_close(&self, conn: &mut Self::Conn, handle: &ConnHandle);
}

/// The send-queue state behind one connection, shared between the
/// enqueueing threads and the connection's reactor thread.
struct SendState {
    frames: VecDeque<Bytes>,
    /// Unwritten bytes across all queued frames (the front frame's
    /// already-written prefix is excluded — the partial-write cursor
    /// itself lives in the connection, owned by its reactor thread).
    queued_bytes: usize,
    /// No further enqueues succeed; the connection is (being) severed.
    closed: bool,
    /// A flush command is already queued with the reactor thread, so
    /// further enqueues need not send another.
    kick_pending: bool,
}

impl SendState {
    fn kill(&mut self) {
        self.closed = true;
        self.frames.clear();
        self.queued_bytes = 0;
    }
}

struct SendQueue {
    s: Mutex<SendState>,
    max_bytes: usize,
}

impl SendQueue {
    fn new(max_bytes: usize) -> SendQueue {
        SendQueue {
            s: Mutex::new(SendState {
                frames: VecDeque::new(),
                queued_bytes: 0,
                closed: false,
                kick_pending: false,
            }),
            max_bytes,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SendState> {
        self.s.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Cross-thread commands to a reactor thread. Registrations travel on a
/// separate (handler-generic) queue; these are the non-generic ones a
/// [`ConnHandle`] can issue.
enum Cmd {
    /// Try writing connection `token`'s queued frames now.
    Flush(u64),
    /// Close connection `token` (overflow or explicit sever).
    Sever(u64),
}

/// The non-generic, handle-reachable part of one reactor thread.
struct ThreadShared {
    cmds: Mutex<Vec<Cmd>>,
    waker: Waker,
}

impl ThreadShared {
    fn push(&self, cmd: Cmd) {
        self.cmds.lock().unwrap_or_else(|e| e.into_inner()).push(cmd);
        self.waker.wake();
    }
}

/// Default send-queue cap: queued (unwritten) bytes per connection.
pub const DEFAULT_OUTBOX_BYTES: usize = 4 * 1024 * 1024;

/// Handle to one reactor-served connection's send side. Cloneable and
/// sendable; all clones feed the same queue. Enqueues never block, a
/// frame offered to an empty queue is always admitted (the cap catches
/// peers that stop *reading*, it does not bound message size), and an
/// enqueue that would push a non-empty queue past the cap severs the
/// connection.
#[derive(Clone)]
pub struct ConnHandle {
    token: u64,
    out: Arc<SendQueue>,
    thread: Arc<ThreadShared>,
}

impl ConnHandle {
    /// Enqueues a framed message without ever blocking. Returns `false`
    /// if the connection is closed **or** this enqueue overflowed the
    /// cap (severing the connection); the caller treats `false` like a
    /// send to a disconnected channel.
    pub fn enqueue(&self, frame: Bytes) -> bool {
        let mut s = self.out.lock();
        if s.closed {
            return false;
        }
        if s.queued_bytes > 0 && s.queued_bytes + frame.len() > self.out.max_bytes {
            // Slow-peer overflow: sever, never block.
            s.kill();
            drop(s);
            self.thread.push(Cmd::Sever(self.token));
            return false;
        }
        s.queued_bytes += frame.len();
        s.frames.push_back(frame);
        let kick = !s.kick_pending;
        s.kick_pending = true;
        drop(s);
        if kick {
            self.thread.push(Cmd::Flush(self.token));
        }
        true
    }

    /// Severs the connection: queued frames are discarded, the fd is
    /// closed by its reactor thread, and the handler's `on_close` runs.
    /// Idempotent.
    pub fn sever(&self) {
        let mut s = self.out.lock();
        let was_closed = s.closed;
        s.kill();
        drop(s);
        if !was_closed {
            self.thread.push(Cmd::Sever(self.token));
        }
    }

    /// True once the connection is closed (EOF, error, overflow, sever
    /// or shutdown).
    pub fn is_closed(&self) -> bool {
        self.out.lock().closed
    }

    /// Bytes currently queued and unwritten.
    pub fn queued_bytes(&self) -> usize {
        self.out.lock().queued_bytes
    }

    /// The connection's reactor token (a process-unique id).
    pub fn token(&self) -> u64 {
        self.token
    }

    /// True if `other` is a handle to the same connection.
    pub fn same_as(&self, other: &ConnHandle) -> bool {
        Arc::ptr_eq(&self.out, &other.out)
    }
}

/// Handle to one reactor-registered listener, so a single partition's
/// accept path can be torn down (fd closed and reaped by the owning
/// reactor thread) without stopping the pool — the failover primitive
/// `wren-rt` uses to kill a partition over the reactor fabric.
#[derive(Clone)]
pub struct ListenerHandle {
    token: u64,
    thread: Arc<ThreadShared>,
}

impl ListenerHandle {
    /// Closes the listener: the owning reactor thread drops the fd
    /// (removing it from the interest list) and stops accepting.
    /// Connections it already accepted are unaffected. Idempotent.
    pub fn close(&self) {
        self.thread.push(Cmd::Sever(self.token));
    }
}

/// A connection that exists but is not yet installed in its reactor
/// thread's entry map.
struct NewConn<C> {
    stream: TcpStream,
    state: C,
    out: Arc<SendQueue>,
    token: u64,
}

/// A pending cross-thread registration (generic in the handler's
/// per-connection state, so it travels on its own queue).
enum Pending<C> {
    Conn(NewConn<C>),
    Listener {
        listener: TcpListener,
        ctx: u64,
        conn_max_bytes: usize,
        token: u64,
    },
}

impl<C> Pending<C> {
    fn token(&self) -> u64 {
        match self {
            Pending::Conn(c) => c.token,
            Pending::Listener { token, .. } => *token,
        }
    }
}

/// One reactor thread's shared-side state.
struct ThreadState<C> {
    shared: Arc<ThreadShared>,
    pending: Mutex<Vec<Pending<C>>>,
}

struct Shared<H: ReactorHandler> {
    threads: Vec<ThreadState<H::Conn>>,
    handler: H,
    closing: AtomicBool,
    next_token: AtomicU64,
    next_thread: AtomicUsize,
    /// Optional instrumentation (see [`Reactor::with_metrics`]);
    /// unset histograms skip recording.
    metrics: ReactorMetrics,
}

impl<H: ReactorHandler> Shared<H> {
    fn token(&self) -> u64 {
        self.next_token.fetch_add(1, Ordering::Relaxed)
    }

    fn pick_thread(&self) -> usize {
        self.next_thread.fetch_add(1, Ordering::Relaxed) % self.threads.len()
    }

    /// Queues a registration with thread `ti`, closing the
    /// register-vs-shutdown race: if the reactor began closing, the
    /// entry is pulled back out (the thread may already have swept its
    /// queues) and returned for the caller to
    /// [`discard_pending`](Self::discard_pending). Exactly one side
    /// ends up holding the entry — this retraction or the thread's
    /// closing sweep — so the cleanup (and `on_close`) runs once.
    fn submit(&self, ti: usize, pending: Pending<H::Conn>) -> Option<Pending<H::Conn>> {
        let t = &self.threads[ti];
        let token = pending.token();
        t.pending.lock().unwrap_or_else(|e| e.into_inner()).push(pending);
        t.shared.waker.wake();
        if self.closing.load(Ordering::SeqCst) {
            let mut q = t.pending.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(pos) = q.iter().position(|p| p.token() == token) {
                return Some(q.remove(pos));
            }
        }
        None
    }

    /// Disposes of a registration that will never reach thread `ti`'s
    /// event loop (shutdown won the race): the send queue dies so every
    /// outstanding handle reports closed, and a connection's state gets
    /// its `on_close` — the handler may have registered the handle at
    /// accept time and must hear it is gone. Dropping the socket closes
    /// the fd.
    fn discard_pending(&self, ti: usize, pending: Pending<H::Conn>) {
        if let Pending::Conn(mut c) = pending {
            c.out.lock().kill();
            let handle = ConnHandle {
                token: c.token,
                out: c.out,
                thread: Arc::clone(&self.threads[ti].shared),
            };
            self.handler.on_close(&mut c.state, &handle);
        }
    }
}

/// Optional per-pool instrumentation. Histograms come from the caller's
/// registry so the fabric's snapshot merge sees them; unset ones cost
/// nothing.
#[derive(Clone, Default)]
pub struct ReactorMetrics {
    /// Frames fully drained per `writev(2)` — the live measure of
    /// vectored-send amortization (mean 1 means every frame still pays
    /// its own syscall).
    pub writev_frames: Option<wren_obs::Histogram>,
}

/// A fixed pool of event-loop threads serving listeners and framed
/// connections. See the [module docs](self) for the topology.
pub struct Reactor<H: ReactorHandler> {
    shared: Arc<Shared<H>>,
    threads: Mutex<Vec<LoopThread>>,
}

/// One event-loop thread with a fixed place in its owner's thread
/// lifecycle: it is running before [`Reactor::with_metrics`] returns
/// (`up`), and after [`Reactor::shutdown`] it finishes its sweep and
/// then waits for [`Reactor::join`] (or the pool's drop) to let go of
/// `may_exit` before the thread itself ends.
///
/// That lets an owner with several kinds of threads start them kind by
/// kind and end them in the reverse order, each kind gone before the
/// next may go. The order matters to memory, not to correctness: an
/// allocator with per-thread arenas (glibc) hands a new thread the arena
/// of the thread that exited last, so a pool restarted in a process gets
/// back the arenas its predecessor warmed only if both sides keep the
/// order; when exits race, an event loop's freed buffers end up under a
/// thread that never needs them, and every restart strands a little
/// more.
struct LoopThread {
    may_exit: mpsc::Sender<()>,
    handle: JoinHandle<()>,
}

impl LoopThread {
    fn spawn(name: String, up: &Arc<Barrier>, run: impl FnOnce() + Send + 'static) -> LoopThread {
        let up = Arc::clone(up);
        let (may_exit, exit) = mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                up.wait();
                run();
                // Nothing is ever sent: this returns when the sender goes.
                let _ = exit.recv();
            })
            .expect("spawn reactor thread");
        LoopThread { may_exit, handle }
    }

    fn join(self) {
        drop(self.may_exit);
        let _ = self.handle.join();
    }
}

impl<H: ReactorHandler> Reactor<H> {
    /// Starts `threads` reactor threads (at least one) over `handler`,
    /// without instrumentation.
    ///
    /// # Errors
    ///
    /// Poller/eventfd creation errors (fd exhaustion).
    pub fn start(threads: usize, handler: H) -> io::Result<Reactor<H>> {
        Self::with_metrics(threads, handler, ReactorMetrics::default())
    }

    /// Starts `threads` reactor threads (at least one) over `handler`,
    /// recording into `metrics`.
    ///
    /// # Errors
    ///
    /// Poller/eventfd creation errors (fd exhaustion).
    pub fn with_metrics(
        threads: usize,
        handler: H,
        metrics: ReactorMetrics,
    ) -> io::Result<Reactor<H>> {
        let n = threads.max(1);
        let mut thread_states = Vec::with_capacity(n);
        let mut pollers = Vec::with_capacity(n);
        for _ in 0..n {
            let waker = Waker::new()?;
            let poller = Poller::new()?;
            waker.register(&poller, WAKER_TOKEN)?;
            pollers.push(poller);
            thread_states.push(ThreadState {
                shared: Arc::new(ThreadShared {
                    cmds: Mutex::new(Vec::new()),
                    waker,
                }),
                pending: Mutex::new(Vec::new()),
            });
        }
        let shared = Arc::new(Shared {
            threads: thread_states,
            handler,
            closing: AtomicBool::new(false),
            next_token: AtomicU64::new(0),
            next_thread: AtomicUsize::new(0),
            metrics,
        });
        // Every loop is running when this returns, and none ends its
        // thread before `join` lets it: see `LoopThread`.
        let up = Arc::new(Barrier::new(n + 1));
        let mut threads = Vec::with_capacity(n);
        for (i, poller) in pollers.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            threads.push(LoopThread::spawn(
                format!("wren-reactor-{i}"),
                &up,
                move || reactor_loop(shared, i, poller),
            ));
        }
        up.wait();
        Ok(Reactor {
            shared,
            threads: Mutex::new(threads),
        })
    }

    /// The handler driving this pool (counters, recorded state — the
    /// pool owns the handler, so observing it goes through here).
    pub fn handler(&self) -> &H {
        &self.shared.handler
    }

    /// Registers a listening socket. Accepted connections get a send
    /// queue capped at `conn_max_bytes` and are distributed round-robin
    /// across the pool; `ctx` is echoed to
    /// [`ReactorHandler::on_accept`]. The returned [`ListenerHandle`]
    /// closes just this listener, leaving the pool (and its accepted
    /// connections) running.
    ///
    /// # Errors
    ///
    /// Socket configuration errors; a listener registered during
    /// shutdown is silently dropped (its handle is inert).
    pub fn add_listener(
        &self,
        listener: TcpListener,
        ctx: u64,
        conn_max_bytes: usize,
    ) -> io::Result<ListenerHandle> {
        listener.set_nonblocking(true)?;
        let token = self.shared.token();
        let ti = self.shared.pick_thread();
        if let Some(retracted) = self.shared.submit(
            ti,
            Pending::Listener {
                listener,
                ctx,
                conn_max_bytes,
                token,
            },
        ) {
            self.shared.discard_pending(ti, retracted);
        }
        Ok(ListenerHandle {
            token,
            thread: Arc::clone(&self.shared.threads[ti].shared),
        })
    }

    /// Registers an already-connected (e.g. freshly dialed) socket with
    /// initial handler state `state` and send cap `max_bytes`. The
    /// returned handle is immediately enqueueable — frames queued
    /// before the reactor thread picks the connection up are kept in
    /// order. During shutdown the handle comes back dead (enqueues
    /// return `false`), mirroring a channel send to a stopped cluster.
    ///
    /// # Errors
    ///
    /// Socket configuration errors.
    pub fn add_conn(
        &self,
        stream: TcpStream,
        state: H::Conn,
        max_bytes: usize,
    ) -> io::Result<ConnHandle> {
        stream.set_nonblocking(true)?;
        let token = self.shared.token();
        let ti = self.shared.pick_thread();
        let out = Arc::new(SendQueue::new(max_bytes));
        let handle = ConnHandle {
            token,
            out: Arc::clone(&out),
            thread: Arc::clone(&self.shared.threads[ti].shared),
        };
        if let Some(retracted) = self.shared.submit(
            ti,
            Pending::Conn(NewConn {
                stream,
                state,
                out,
                token,
            }),
        ) {
            // Shutdown won the race: the queue dies (so this handle —
            // and any clone the handler took — reports closed) and
            // on_close runs, before the handle is even returned.
            self.shared.discard_pending(ti, retracted);
        }
        Ok(handle)
    }

    /// Flags the reactor closed and wakes every thread; each severs all
    /// of its connections (running `on_close` for each), drops its
    /// listeners and is done. Idempotent. The threads themselves end in
    /// [`join`](Self::join) (or when the pool is dropped).
    pub fn shutdown(&self) {
        self.shared.closing.store(true, Ordering::SeqCst);
        for t in &self.shared.threads {
            t.shared.waker.wake();
        }
    }

    /// Joins every reactor thread. Call after [`shutdown`](Self::shutdown)
    /// (joining a running reactor would block forever). Idempotent.
    pub fn join(&self) {
        let threads: Vec<_> = std::mem::take(
            &mut *self.threads.lock().unwrap_or_else(|e| e.into_inner()),
        );
        for t in threads {
            t.join();
        }
    }
}

/// One registered fd on a reactor thread.
enum Entry<C> {
    Listener {
        listener: TcpListener,
        ctx: u64,
        conn_max_bytes: usize,
    },
    Conn(Conn<C>),
}

struct Conn<C> {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Arc<SendQueue>,
    state: C,
    token: u64,
    /// Bytes of the queue's front frame already written to the socket.
    /// Lives here, not in `SendState`: only this connection's reactor
    /// thread writes, so the cursor needs no lock — which is what lets
    /// `write_ready` run `write(2)` outside the queue mutex.
    front_written: usize,
    /// Whether EPOLLOUT is currently part of the fd's interest set.
    write_armed: bool,
}

impl<C> Conn<C> {
    fn handle(&self, thread: &Arc<ThreadShared>) -> ConnHandle {
        ConnHandle {
            token: self.token,
            out: Arc::clone(&self.out),
            thread: Arc::clone(thread),
        }
    }
}

/// What to do with a connection after a read/write pass.
#[derive(PartialEq)]
enum After {
    KeepOpen,
    Close,
}

fn reactor_loop<H: ReactorHandler>(shared: Arc<Shared<H>>, idx: usize, poller: Poller) {
    let me = &shared.threads[idx];
    let mut entries: HashMap<u64, Entry<H::Conn>> = HashMap::new();
    let mut events = PollEvents::with_capacity(256);
    let mut buf = vec![0u8; READ_CHUNK];

    loop {
        if shared.closing.load(Ordering::SeqCst) {
            // Sever everything: queued sends are discarded, every fd is
            // closed (dropping it), every live connection's state gets
            // its on_close. Pending registrations and commands are
            // swept too — their sockets close on drop.
            for (_, entry) in entries.drain() {
                if let Entry::Conn(mut c) = entry {
                    c.out.lock().kill();
                    let handle = c.handle(&me.shared);
                    shared.handler.on_close(&mut c.state, &handle);
                }
            }
            let swept: Vec<Pending<H::Conn>> = std::mem::take(
                &mut *me.pending.lock().unwrap_or_else(|e| e.into_inner()),
            );
            for pending in swept {
                // Same cleanup as a submitter-side retraction: queue
                // dead, on_close delivered, fd closed on drop.
                shared.discard_pending(idx, pending);
            }
            me.shared.cmds.lock().unwrap_or_else(|e| e.into_inner()).clear();
            return;
        }

        // New fds assigned to this thread.
        let pending: Vec<Pending<H::Conn>> = std::mem::take(
            &mut *me.pending.lock().unwrap_or_else(|e| e.into_inner()),
        );
        for p in pending {
            match p {
                Pending::Conn(nc) => install_conn(&shared, me, &poller, &mut entries, nc),
                Pending::Listener {
                    listener,
                    ctx,
                    conn_max_bytes,
                    token,
                } => {
                    if poller.add(&listener, token, false).is_ok() {
                        entries.insert(
                            token,
                            Entry::Listener {
                                listener,
                                ctx,
                                conn_max_bytes,
                            },
                        );
                    }
                }
            }
        }

        // Cross-thread commands (flush/sever kicks from enqueuers).
        let cmds: Vec<Cmd> =
            std::mem::take(&mut *me.shared.cmds.lock().unwrap_or_else(|e| e.into_inner()));
        for cmd in cmds {
            match cmd {
                Cmd::Flush(token) => flush_conn(&shared, me, &poller, &mut entries, token),
                Cmd::Sever(token) => {
                    close_conn(&shared, me, &mut entries, token);
                    // The target may still sit in the pending queue (a
                    // listener closed right after registration): retract
                    // it so it cannot install after its own sever.
                    let retracted = {
                        let mut q = me.pending.lock().unwrap_or_else(|e| e.into_inner());
                        q.iter()
                            .position(|p| p.token() == token)
                            .map(|pos| q.remove(pos))
                    };
                    if let Some(p) = retracted {
                        shared.discard_pending(idx, p);
                    }
                }
            }
        }

        if poller.wait(&mut events, None).is_err() {
            // Only pathological states (EBADF after poller corruption)
            // land here; back off instead of spinning.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        for ev in events.iter() {
            if ev.token == WAKER_TOKEN {
                me.shared.waker.drain();
                continue;
            }
            // The entry may have been severed by an earlier event or
            // command in this same batch.
            match entries.get_mut(&ev.token) {
                Some(Entry::Listener { .. }) => {
                    accept_ready(&shared, me, &poller, &mut entries, ev.token)
                }
                Some(Entry::Conn(conn)) => {
                    let mut after = After::KeepOpen;
                    if ev.readable {
                        after = read_ready(&shared, me, conn, &mut buf);
                    }
                    if after == After::KeepOpen && ev.writable {
                        after = write_ready(&poller, conn, shared.metrics.writev_frames.as_ref());
                    }
                    if after == After::Close {
                        close_conn(&shared, me, &mut entries, ev.token);
                    }
                }
                None => {}
            }
        }
    }
}

/// Installs a connection into this thread's entry map — the single
/// path shared by cross-thread registrations and a listener's
/// same-thread accepts, so the failure cleanup (queue kill + `on_close`)
/// and the eager first flush cannot drift apart.
fn install_conn<H: ReactorHandler>(
    shared: &Arc<Shared<H>>,
    me: &ThreadState<H::Conn>,
    poller: &Poller,
    entries: &mut HashMap<u64, Entry<H::Conn>>,
    nc: NewConn<H::Conn>,
) {
    let mut conn = Conn {
        stream: nc.stream,
        decoder: FrameDecoder::new(),
        out: nc.out,
        state: nc.state,
        token: nc.token,
        front_written: 0,
        write_armed: false,
    };
    if poller.add(&conn.stream, conn.token, false).is_ok() {
        let token = conn.token;
        entries.insert(token, Entry::Conn(conn));
        // Frames may already be queued (a dialer's hello, a greeting
        // enqueued from on_accept); flush eagerly rather than waiting
        // for a kick that may have arrived before the insert.
        flush_conn(shared, me, poller, entries, token);
    } else {
        conn.out.lock().kill();
        let handle = conn.handle(&me.shared);
        shared.handler.on_close(&mut conn.state, &handle);
    }
}

/// Accepts a listener's pending connections, capped per readiness
/// event: like [`READ_BUDGET`] for reads, the cap keeps a connect storm
/// against one listener from monopolizing its reactor thread —
/// level-triggered readiness re-reports the remaining backlog on the
/// next wait.
const ACCEPT_BUDGET: usize = 64;

/// Drains (up to [`ACCEPT_BUDGET`] of) the accept backlog of the
/// listener registered under `token`.
fn accept_ready<H: ReactorHandler>(
    shared: &Arc<Shared<H>>,
    me: &ThreadState<H::Conn>,
    poller: &Poller,
    entries: &mut HashMap<u64, Entry<H::Conn>>,
    token: u64,
) {
    for _ in 0..ACCEPT_BUDGET {
        let (ctx, conn_max_bytes, accepted) = match entries.get(&token) {
            Some(Entry::Listener {
                listener,
                ctx,
                conn_max_bytes,
            }) => match listener.accept() {
                Ok((stream, _)) => (*ctx, *conn_max_bytes, stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e)
                    if e.kind() == io::ErrorKind::ConnectionAborted
                        || e.kind() == io::ErrorKind::Interrupted =>
                {
                    // Routine under session churn (the peer reset before
                    // we accepted): just move to the next pending conn —
                    // sleeping here would stall every fd on this thread.
                    continue;
                }
                Err(_) => {
                    // Hard accept failure (EMFILE/ENFILE fd exhaustion):
                    // level-triggered readiness would re-report the
                    // backlog immediately and spin the loop; a brief
                    // pause is the lesser evil, and only this path —
                    // an already-sick process — pays it.
                    std::thread::sleep(Duration::from_millis(10));
                    return;
                }
            },
            _ => return,
        };
        if shared.closing.load(Ordering::SeqCst) {
            // Dropped unserved; the top of the loop sweeps everything.
            return;
        }
        let _ = accepted.set_nodelay(true);
        if accepted.set_nonblocking(true).is_err() {
            continue;
        }
        let conn_token = shared.token();
        let ti = shared.pick_thread();
        let out = Arc::new(SendQueue::new(conn_max_bytes));
        let handle = ConnHandle {
            token: conn_token,
            out: Arc::clone(&out),
            thread: Arc::clone(&shared.threads[ti].shared),
        };
        let Some(state) = shared.handler.on_accept(ctx, &handle) else {
            continue; // refused: socket drops, fd closes
        };
        let nc = NewConn {
            stream: accepted,
            state,
            out,
            token: conn_token,
        };
        if std::ptr::eq(me, &shared.threads[ti]) {
            // Assigned to this thread: install directly.
            install_conn(shared, me, poller, entries, nc);
        } else {
            // Assigned elsewhere: hand it over like a dialed conn. If
            // shutdown retracts it, the cleanup (queue kill + on_close,
            // matching `add_conn`'s) runs here — the handler saw
            // on_accept, so it must hear on_close.
            if let Some(retracted) = shared.submit(ti, Pending::Conn(nc)) {
                shared.discard_pending(ti, retracted);
            }
        }
    }
}

/// Reads until drained (or the fairness budget is spent), feeding the
/// decoder and the handler, then fires the end-of-burst hook so a
/// batching handler can flush whatever the decode loop buffered as one
/// delivery — including on the paths that close the connection, so a
/// sever never swallows frames that already passed `on_frame`.
fn read_ready<H: ReactorHandler>(
    shared: &Arc<Shared<H>>,
    me: &ThreadState<H::Conn>,
    conn: &mut Conn<H::Conn>,
    buf: &mut [u8],
) -> After {
    let after = read_burst(shared, me, conn, buf);
    let handle = conn.handle(&me.shared);
    shared.handler.on_burst_end(&mut conn.state, &handle);
    after
}

/// The decode loop behind [`read_ready`].
fn read_burst<H: ReactorHandler>(
    shared: &Arc<Shared<H>>,
    me: &ThreadState<H::Conn>,
    conn: &mut Conn<H::Conn>,
    buf: &mut [u8],
) -> After {
    let mut read_bytes = 0usize;
    loop {
        match conn.stream.read(buf) {
            Ok(0) => return After::Close, // EOF
            Ok(n) => {
                conn.decoder.extend(&buf[..n]);
                loop {
                    match conn.decoder.next_frame() {
                        Ok(Some(payload)) => {
                            let handle = conn.handle(&me.shared);
                            if !shared.handler.on_frame(&mut conn.state, &handle, payload) {
                                return After::Close;
                            }
                        }
                        Ok(None) => break,
                        // Oversized frame: the guard fires before any
                        // buffering; sever.
                        Err(_) => return After::Close,
                    }
                }
                read_bytes += n;
                if read_bytes >= READ_BUDGET || n < buf.len() {
                    // Budget spent or likely drained; LT re-reports any
                    // leftover on the next wait.
                    return After::KeepOpen;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return After::KeepOpen,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return After::Close,
        }
    }
}

/// Writes queued frames until the socket would block or the queue is
/// empty, then arms/disarms write interest to match what is left.
///
/// The drain is **vectored**: each pass snapshots a batch of front
/// frames (see [`plan_batch`]) and hands them to one
/// `writev(2)` — many small responses leave in one syscall instead of
/// paying one `write(2)` each. A partial write at any byte is resumed
/// via the `front_written` cursor ([`settle`] computes both it and the
/// completed-frame count), so frame boundaries on the wire are exactly
/// what a frame-at-a-time drain would have produced.
///
/// The queue mutex is only ever held for O(1) bookkeeping — never
/// across `writev(2)` — so a protocol thread's `enqueue` stays O(1)
/// even while a multi-megabyte backlog is being flushed here. The
/// batch is grabbed under the lock (refcount bumps), written outside
/// it, and the accounting settled under a fresh lock; a concurrent
/// sever (overflow, explicit) is detected at each re-lock.
fn write_ready<C>(
    poller: &Poller,
    conn: &mut Conn<C>,
    writev_frames: Option<&wren_obs::Histogram>,
) -> After {
    let mut written = 0usize;
    let mut batch: Vec<Bytes> = Vec::new();
    loop {
        batch.clear();
        {
            let mut s = conn.out.lock();
            s.kick_pending = false;
            if s.closed {
                return After::Close;
            }
            let take = plan_batch(&s.frames, conn.front_written, WRITE_BUDGET.saturating_sub(written));
            if take == 0 {
                break;
            }
            batch.extend(s.frames.iter().take(take).cloned());
        }
        if written >= WRITE_BUDGET {
            // Fairness: yield the thread with write interest armed; the
            // still-writable socket re-reports next wait.
            if !conn.write_armed && poller.modify(&conn.stream, conn.token, true).is_ok() {
                conn.write_armed = true;
            }
            return After::KeepOpen;
        }
        let offered: usize =
            batch.iter().map(Bytes::len).sum::<usize>() - conn.front_written;
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(batch.len());
        slices.push(IoSlice::new(&batch[0][conn.front_written..]));
        for f in &batch[1..] {
            slices.push(IoSlice::new(f));
        }
        match conn.stream.write_vectored(&slices) {
            Ok(n) if n > 0 || offered == 0 => {
                let lens: Vec<usize> = batch.iter().map(Bytes::len).collect();
                let (completed, new_front) = settle(&lens, conn.front_written, n);
                conn.front_written = new_front;
                written += n;
                if let Some(h) = writev_frames {
                    h.record(completed as u64);
                }
                let mut s = conn.out.lock();
                if s.closed {
                    // Severed while we were writing; the queue (and its
                    // accounting) is already dead.
                    return After::Close;
                }
                s.queued_bytes -= n;
                for _ in 0..completed {
                    s.frames.pop_front();
                }
            }
            // A zero-byte write of a nonempty remainder: the socket is
            // not making progress; treat it like a write error.
            Ok(_) => {
                conn.out.lock().kill();
                return After::Close;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Unflushed bytes remain: arm write interest and wait
                // for writable readiness.
                if !conn.write_armed
                    && poller.modify(&conn.stream, conn.token, true).is_ok()
                {
                    conn.write_armed = true;
                }
                return After::KeepOpen;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.out.lock().kill();
                return After::Close;
            }
        }
    }
    // Queue fully drained: stop watching for writable readiness.
    if conn.write_armed && poller.modify(&conn.stream, conn.token, false).is_ok() {
        conn.write_armed = false;
    }
    After::KeepOpen
}

/// A flush kick for `token` (fresh enqueue or writable readiness).
fn flush_conn<H: ReactorHandler>(
    shared: &Arc<Shared<H>>,
    me: &ThreadState<H::Conn>,
    poller: &Poller,
    entries: &mut HashMap<u64, Entry<H::Conn>>,
    token: u64,
) {
    if let Some(Entry::Conn(conn)) = entries.get_mut(&token) {
        if write_ready(poller, conn, shared.metrics.writev_frames.as_ref()) == After::Close {
            close_conn(shared, me, entries, token);
        }
    }
}

/// Removes and closes the entry under `token` — a connection (running
/// the handler's `on_close`) or a listener (no callback; it has no
/// protocol state). Dropping the socket closes the fd, which also
/// removes it from the epoll interest list.
fn close_conn<H: ReactorHandler>(
    shared: &Arc<Shared<H>>,
    me: &ThreadState<H::Conn>,
    entries: &mut HashMap<u64, Entry<H::Conn>>,
    token: u64,
) {
    if let Some(Entry::Conn(mut c)) = entries.remove(&token) {
        c.out.lock().kill();
        let handle = c.handle(&me.shared);
        shared.handler.on_close(&mut c.state, &handle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FramedReader;
    use std::net::Shutdown;
    use std::sync::Mutex as StdMutex;
    use std::time::Instant;
    use wren_clock::Timestamp;
    use wren_protocol::frame::frame_wren;
    use wren_protocol::WrenMsg;

    /// Echoes every frame back, records accepted handles and counts
    /// closes.
    struct Echo {
        handles: StdMutex<Vec<ConnHandle>>,
        closes: AtomicUsize,
    }

    impl Echo {
        fn new() -> Echo {
            Echo {
                handles: StdMutex::new(Vec::new()),
                closes: AtomicUsize::new(0),
            }
        }
    }

    fn reframe(payload: &[u8]) -> Bytes {
        let mut out = Vec::with_capacity(4 + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        Bytes::from(out)
    }

    impl ReactorHandler for Echo {
        type Conn = ();
        fn on_accept(&self, _ctx: u64, handle: &ConnHandle) -> Option<()> {
            self.handles.lock().unwrap().push(handle.clone());
            Some(())
        }
        fn on_frame(&self, _c: &mut (), handle: &ConnHandle, payload: Bytes) -> bool {
            handle.enqueue(reframe(&payload))
        }
        fn on_close(&self, _c: &mut (), _handle: &ConnHandle) {
            self.closes.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn start_echo(threads: usize, conn_cap: usize) -> (Reactor<Echo>, std::net::SocketAddr) {
        let reactor = Reactor::start(threads, Echo::new()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        reactor.add_listener(listener, 0, conn_cap).unwrap();
        (reactor, addr)
    }

    fn connect(addr: std::net::SocketAddr) -> TcpStream {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match TcpStream::connect(addr) {
                Ok(s) => return s,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Err(e) => panic!("connect: {e}"),
            }
        }
    }

    /// Polls `cond` until it holds, panicking with `what` after 5 s.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn echo_round_trip_over_many_connections() {
        let (reactor, addr) = start_echo(2, 1024 * 1024);
        // Raw payloads of mixed sizes ride behind each round's message,
        // one of them larger than READ_CHUNK so a frame reassembles
        // across several reads.
        let sizes = [1usize, 17, 4096, 40_000];
        assert!(sizes.iter().any(|&n| n > READ_CHUNK));
        let mut clients: Vec<(TcpStream, FramedReader)> = (0..8)
            .map(|_| {
                let s = connect(addr);
                // A lost or mangled echo fails the test instead of
                // hanging it.
                s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                let r = FramedReader::new(s.try_clone().unwrap());
                (s, r)
            })
            .collect();
        for round in 0..3u64 {
            for (i, (w, _)) in clients.iter_mut().enumerate() {
                let msg = WrenMsg::Heartbeat {
                    t: Timestamp::from_micros(round * 100 + i as u64),
                };
                w.write_all(&frame_wren(&msg)).unwrap();
                for (j, &n) in sizes.iter().enumerate() {
                    w.write_all(&reframe(&sized(round, i, j, n))).unwrap();
                }
            }
            for (i, (_, r)) in clients.iter_mut().enumerate() {
                let payload = r.next_frame().unwrap().expect("echoed frame");
                assert_eq!(
                    WrenMsg::decode(&payload).unwrap(),
                    WrenMsg::Heartbeat {
                        t: Timestamp::from_micros(round * 100 + i as u64)
                    }
                );
                for (j, &n) in sizes.iter().enumerate() {
                    let echoed = r.next_frame().unwrap().expect("echoed frame");
                    assert_eq!(echoed.as_ref(), &sized(round, i, j, n)[..]);
                }
            }
        }
        reactor.shutdown();
        reactor.join();
    }

    /// A payload of `n` bytes whose content names its round, connection
    /// and slot, so a misrouted or reordered echo cannot compare equal.
    fn sized(round: u64, conn: usize, slot: usize, n: usize) -> Vec<u8> {
        vec![(round as u8) ^ (conn as u8) ^ (slot as u8).wrapping_mul(37); n]
    }

    #[test]
    fn on_close_fires_exactly_once_per_connection() {
        let (reactor, addr) = start_echo(2, 1024 * 1024);
        let conns: Vec<TcpStream> = (0..8).map(|_| connect(addr)).collect();
        let echo = reactor.handler();
        wait_until("on_accept never ran for every conn", || {
            echo.handles.lock().unwrap().len() == 8
        });
        // Half the peers hang up; the rest are alive at shutdown.
        for c in conns.iter().take(4) {
            c.shutdown(Shutdown::Both).unwrap();
        }
        wait_until("hung-up peers never closed", || {
            echo.closes.load(Ordering::SeqCst) >= 4
        });
        assert_eq!(echo.closes.load(Ordering::SeqCst), 4, "live peers stay open");
        reactor.shutdown();
        reactor.join();
        assert_eq!(
            echo.closes.load(Ordering::SeqCst),
            8,
            "every accepted conn gets exactly one on_close"
        );
        drop(conns);
    }

    #[test]
    fn dribbled_bytes_reassemble_exactly() {
        let (reactor, addr) = start_echo(1, 1024 * 1024);
        let mut stream = connect(addr);
        let msg = WrenMsg::Heartbeat {
            t: Timestamp::from_micros(99),
        };
        for b in frame_wren(&msg).iter() {
            stream.write_all(&[*b]).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut reader = FramedReader::new(stream);
        let payload = reader.next_frame().unwrap().expect("frame");
        assert_eq!(WrenMsg::decode(&payload).unwrap(), msg);
        reactor.shutdown();
        reactor.join();
    }

    #[test]
    fn overflow_severs_a_non_reading_peer() {
        let (reactor, addr) = start_echo(1, 64 * 1024);
        let stream = connect(addr); // never reads
        // Nudge the server so on_accept definitely ran and we can grab
        // the server-side handle.
        {
            let mut w = stream.try_clone().unwrap();
            w.write_all(&frame_wren(&WrenMsg::Heartbeat {
                t: Timestamp::ZERO,
            }))
            .unwrap();
        }
        let handle = {
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                if let Some(h) = reactor.shared.handler.handles.lock().unwrap().first() {
                    break h.clone();
                }
                assert!(Instant::now() < deadline, "on_accept never ran");
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        // 4 MiB frames back up far beyond kernel buffering + the 64 KiB
        // cap: the enqueue must eventually report the sever, without
        // ever blocking.
        let chunk = Bytes::from(vec![7u8; 4 * 1024 * 1024]);
        let mut accepted = 0;
        for _ in 0..100 {
            if handle.enqueue(chunk.clone()) {
                accepted += 1;
            } else {
                break;
            }
        }
        assert!(accepted < 100, "a non-reading peer must overflow the cap");
        assert!(handle.is_closed());
        assert!(!handle.enqueue(chunk), "enqueue after sever must fail");
        reactor.shutdown();
        reactor.join();
    }

    #[test]
    fn vectored_drain_batches_frames_per_syscall() {
        // A frame far beyond the kernel's socket buffering saturates the
        // non-reading peer's connection, so the small frames enqueued
        // behind it are all queued by the time the peer starts reading —
        // the drain's final writev must then complete several frames in
        // one syscall, which the instrumentation histogram records.
        let hist = wren_obs::Histogram::new();
        let reactor = Reactor::with_metrics(
            1,
            Echo::new(),
            ReactorMetrics {
                writev_frames: Some(hist.clone()),
            },
        )
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        reactor.add_listener(listener, 0, 256 * 1024 * 1024).unwrap();
        let mut stream = connect(addr); // not reading yet
        let handle = {
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                if let Some(h) = reactor.shared.handler.handles.lock().unwrap().first() {
                    break h.clone();
                }
                assert!(Instant::now() < deadline, "on_accept never ran");
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        let big = Bytes::from(vec![0xEEu8; 32 * 1024 * 1024]);
        let small = Bytes::from(vec![0x11u8; 32]);
        assert!(handle.enqueue(big.clone()));
        for _ in 0..16 {
            assert!(handle.enqueue(small.clone()));
        }
        let expected = big.len() + 16 * small.len();
        let mut got = 0usize;
        let mut buf = vec![0u8; 1 << 20];
        while got < expected {
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "peer closed before the backlog drained");
            got += n;
        }
        assert_eq!(got, expected, "every queued byte arrives exactly once");
        // The peer sees the last bytes as soon as the kernel has them —
        // possibly before the reactor thread records the batch that
        // wrote them — so the histogram assertion polls briefly.
        let deadline = Instant::now() + Duration::from_secs(5);
        while hist.snapshot().max < 2 {
            assert!(
                Instant::now() < deadline,
                "no writev ever completed more than one frame: {:?}",
                hist.snapshot()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        reactor.shutdown();
        reactor.join();
    }

    #[test]
    fn single_frame_beyond_cap_is_admitted_when_queue_is_empty() {
        let (reactor, addr) = start_echo(1, 16); // tiny cap
        let mut stream = connect(addr);
        // An echoed frame far beyond the cap still arrives: the empty
        // queue admits it and the prompt reader drains it.
        let msg = WrenMsg::TxReadReq {
            tx: wren_protocol::TxId::new(wren_protocol::ServerId::new(0, 0), 1),
            keys: (0..64).map(wren_protocol::Key).collect(),
        };
        stream.write_all(&frame_wren(&msg)).unwrap();
        let mut reader = FramedReader::new(stream);
        let payload = reader.next_frame().unwrap().expect("frame");
        assert_eq!(WrenMsg::decode(&payload).unwrap(), msg);
        reactor.shutdown();
        reactor.join();
    }

    #[test]
    fn closing_a_listener_stops_accepts_but_keeps_live_conns() {
        let reactor = Reactor::start(1, Echo::new()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let lh = reactor.add_listener(listener, 0, 1024 * 1024).unwrap();

        // A connection accepted before the close keeps echoing after it.
        let mut alive = connect(addr);
        let msg = WrenMsg::Heartbeat {
            t: Timestamp::from_micros(1),
        };
        alive.write_all(&frame_wren(&msg)).unwrap();
        let mut reader = FramedReader::new(alive.try_clone().unwrap());
        assert!(reader.next_frame().unwrap().is_some());

        lh.close();
        lh.close(); // idempotent

        // The listener fd is gone: new dials are refused (or accepted
        // by the kernel backlog and immediately dead). Poll until the
        // close has taken effect on the reactor thread.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match TcpStream::connect(addr) {
                Err(_) => break,
                Ok(s) => {
                    // Backlog raced the close: the conn must die rather
                    // than get served.
                    let mut r = FramedReader::new(s.try_clone().unwrap());
                    let mut w = s;
                    let _ = w.write_all(&frame_wren(&msg));
                    match r.next_frame() {
                        Ok(None) | Err(_) => break,
                        Ok(Some(_)) => {
                            assert!(Instant::now() < deadline, "listener never closed");
                            std::thread::sleep(Duration::from_millis(5));
                        }
                    }
                }
            }
        }

        // The pre-close connection still works.
        alive.write_all(&frame_wren(&msg)).unwrap();
        assert!(reader.next_frame().unwrap().is_some());

        // Restart, as a partition does: rebind the exact address on the
        // same reactor and serve a fresh dial on it.
        let std::net::SocketAddr::V4(v4) = addr else {
            unreachable!("bound on IPv4 loopback")
        };
        let rebound = crate::poll::bind_reusable(v4).expect("address freed by the close");
        reactor.add_listener(rebound, 0, 1024 * 1024).unwrap();
        let mut fresh = connect(addr);
        let mut fresh_reader = FramedReader::new(fresh.try_clone().unwrap());
        fresh.write_all(&frame_wren(&msg)).unwrap();
        let payload = fresh_reader
            .next_frame()
            .unwrap()
            .expect("echo on the rebound listener");
        assert_eq!(WrenMsg::decode(&payload).unwrap(), msg);
        reactor.shutdown();
        reactor.join();
    }

    #[test]
    fn shutdown_is_idempotent_and_kills_late_registrations() {
        let (reactor, addr) = start_echo(2, 1024);
        let _alive = connect(addr);
        reactor.shutdown();
        reactor.shutdown();
        reactor.join();
        // A dial registered after shutdown comes back dead, not leaked.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let target = listener.local_addr().unwrap();
        let stream = TcpStream::connect(target).unwrap();
        let handle = reactor.add_conn(stream, (), 1024).unwrap();
        assert!(!handle.enqueue(Bytes::from_static(b"x")));
        assert!(handle.is_closed());
        reactor.join(); // second join is a no-op
    }
}
