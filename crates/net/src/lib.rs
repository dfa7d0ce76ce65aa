//! TCP transport primitives for the Wren reproduction.
//!
//! The protocol state machines are sans-io and the codec
//! (`wren-protocol`) defines exact message bytes; this crate supplies
//! the pieces that put those bytes on real sockets, layered so that
//! each level is testable without the one above:
//!
//! ```text
//! frame   (wren-protocol::frame)  bytes ⇄ message boundaries.
//!   FrameDecoder is push-based: feed it whatever chunks arrive,
//!   drain complete payloads. It never touches a socket.
//! writev  (this crate)            how many frames per syscall.
//!   The reactor batches queued frames into one writev(2) — the
//!   gather/settle arithmetic (partial writes resuming mid-frame)
//!   lives in its own socket-free module under property test.
//! reactor (this crate)            which thread does the I/O, and when.
//!   A fixed pool of epoll event loops serves every fd (Reactor).
//!   Each connection has a bounded send queue (ConnHandle): protocol
//!   threads enqueue in O(1) and never call write(2); a peer that
//!   stops reading backs its queue past the cap and is severed.
//! ```
//!
//! The pieces:
//!
//! * [`Hello`] — the one-frame connection handshake identifying the
//!   dialing peer (a client session or a partition server), so the
//!   accepting side can attribute every subsequent frame to a protocol
//!   source without per-message envelopes;
//! * [`FramedReader`] — blocking framed reads over a [`TcpStream`],
//!   reassembling length-prefixed frames from arbitrary chunk
//!   boundaries via [`wren_protocol::frame::FrameDecoder`]: the
//!   receive side of a client session, which blocks on one response
//!   at a time;
//! * [`poll`] — a minimal safe wrapper over raw `epoll` + `eventfd`
//!   (direct FFI; the build has no registry access for `mio`),
//!   including the `SO_REUSEADDR` listener bind that lets a killed
//!   partition rebind its exact address immediately on restart;
//! * [`reactor`] — the fixed-thread-pool event loop: [`Reactor`] owns
//!   every connection fd, feeds readable bytes through per-connection
//!   `FrameDecoder`s into a [`ReactorHandler`], and drains each
//!   connection's bounded, **never-blocking** send queue
//!   ([`ConnHandle`]) on writable readiness with partial-write state.
//!   A partition's writer thread or a reactor thread enqueues a framed
//!   response and moves on; a client that stops reading fills its own
//!   queue and gets disconnected — it can never stall the partition.
//!   Listeners registered with [`Reactor::add_listener`] return a
//!   [`ListenerHandle`] so a single partition's accept path can be
//!   torn down (fd reaped by the owning reactor thread) without
//!   stopping the pool;
//! * [`fault`] — a seeded, deterministic [`FaultPlan`] the fabric
//!   consults at the frame boundary: drop-and-sever, duplicate,
//!   delay/reorder, refused dials, link severs and peer partitions,
//!   all replayable from one seed (see the module docs for why a
//!   dropped frame must sever its TCP link).
//!
//! The crate is deliberately runtime-agnostic: it knows sockets and
//! frames, not engines or routers. `wren-rt` wires these pieces to its
//! partition engines; anything else (tools, tests, future processes)
//! can reuse them directly.
//!
//! [`TcpStream`]: std::net::TcpStream

// unsafe is allowed only in poll::sys, the epoll/eventfd FFI boundary.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod fault;
mod hello;
pub mod poll;
pub mod reactor;
mod reader;
mod writev;

pub use error::NetError;
pub use fault::{FaultPlan, FaultStats, SendVerdict};
pub use hello::Hello;
pub use reactor::{
    ConnHandle, ListenerHandle, Reactor, ReactorHandler, ReactorMetrics, DEFAULT_OUTBOX_BYTES,
};
pub use reader::FramedReader;
