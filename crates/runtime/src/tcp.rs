//! The TCP pieces a session and the fabric share: the boundary rules
//! ([`legal_from_client`], [`legal_from_server`], the request/read
//! ceilings), the jittered dial backoff ([`DIAL_BACKOFF_MIN`] →
//! [`DIAL_BACKOFF_MAX`]), and a session's framed link to its
//! coordinators ([`TcpLink`]).
//!
//! The server side — listeners, accepted connections and dialed peer
//! links — is the reactor fabric ([`crate::reactor_fabric`]). The
//! session library checks the same ceilings the fabric enforces at its
//! accepting boundary, so an over-size request becomes a clean
//! client-side error instead of a severed connection.

use crate::RtError;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wren_net::{FramedReader, Hello};
use wren_protocol::frame::frame_wren;
use wren_protocol::{ClientId, ServerId, WrenMsg};

/// First-retry backoff after a refused dial; doubles (with jitter, see
/// [`jittered`]) up to [`DIAL_BACKOFF_MAX`]. Shared by session dials
/// (inside their [`dial_retry_budget`]) and parked peer links.
///
/// [`dial_retry_budget`]: crate::ClusterBuilder::dial_retry_budget
pub(crate) const DIAL_BACKOFF_MIN: Duration = Duration::from_millis(1);

/// Backoff ceiling for refused dials: a parked peer link probes a dead
/// server's address at least every ~75 ms (50 ms × the jitter's 1.5×
/// bound), so a restarted partition is rediscovered within one such
/// round trip without a fleet of peers hammering it in lockstep.
pub(crate) const DIAL_BACKOFF_MAX: Duration = Duration::from_millis(50);

/// Multiplies `d` by a pseudo-random factor in `[0.5, 1.5)`, so links
/// parked by the same kill don't re-dial in lockstep. Deliberately
/// seedless (backoff *timing* is not part of the deterministic fault
/// plan — only frame fates are): a SplitMix64 finalizer over a
/// process-wide Weyl counter, so no RNG dependency and no shared lock.
pub(crate) fn jittered(d: Duration) -> Duration {
    static STATE: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);
    let mut x = STATE.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let factor = 0.5 + (x >> 11) as f64 / (1u64 << 53) as f64;
    d.mul_f64(factor)
}

/// Ceiling on one client *request*: the frame limit minus headroom for
/// protocol amplification, so every server-side message derived from a
/// single admitted request (`PrepareReq` = `CommitReq` + 24 bytes, a
/// one-transaction `Replicate` = + 28 bytes, `SliceReq` fan-out ≤ the
/// original `TxReadReq`) is guaranteed to stay frameable. Enforced in
/// the session library ([`TcpLink::send`]) *and* mirrored at the
/// server's accepting boundary ([`legal_from_client`]), so raw peers
/// get the same bound as library clients.
const CLIENT_REQ_MAX: usize = wren_protocol::frame::MAX_FRAME_LEN - 1024;

/// Ceiling on keys per read request. Bounds *response* size, which the
/// request's own size cannot: each returned item costs at most
/// ~65 571 bytes (a 64 KiB value plus version metadata), so a response
/// to `MAX_READ_KEYS` keys tops out near 33.6 MiB — comfortably under
/// [`MAX_FRAME_LEN`](wren_protocol::frame::MAX_FRAME_LEN). Without
/// this, a ~16 KB request naming thousands of fat keys would demand an
/// unframeable reply. Enforced client-side and at the boundary, for
/// both `TxReadReq` (client conns) and `SliceReq` (server conns).
const MAX_READ_KEYS: usize = 512;

/// Messages a client session may legitimately send its coordinator,
/// within the transport's amplification bounds. Anything else on a
/// client connection (a `SliceReq`, a response type, gossip, an
/// oversized or over-wide request…) would reach engine paths the state
/// machines only expect from trusted sources, or force the engine to
/// build an unframeable reply — filtered at the boundary so remote
/// frames can never trip a server-side `debug_assert` or the
/// server→server frame ceiling. The fabric applies it to every frame
/// on a client connection; [`TcpLink::send`] applies it before sending.
pub(crate) fn legal_from_client(msg: &WrenMsg) -> bool {
    match msg {
        WrenMsg::StartTxReq { .. } => true,
        WrenMsg::TxReadReq { keys, .. } => keys.len() <= MAX_READ_KEYS,
        WrenMsg::CommitReq { .. } => msg.wire_size() <= CLIENT_REQ_MAX,
        _ => false,
    }
}

/// Messages one partition server may legitimately send another: the
/// intra-DC transaction traffic, replication, and gossip — not the
/// client-only requests and not the client-bound responses. `SliceReq`
/// carries the same keys bound as the client read it derives from.
pub(crate) fn legal_from_server(msg: &WrenMsg) -> bool {
    match msg {
        WrenMsg::SliceReq { keys, .. } => keys.len() <= MAX_READ_KEYS,
        WrenMsg::SliceResp { .. }
        | WrenMsg::PrepareReq { .. }
        | WrenMsg::PrepareResp { .. }
        | WrenMsg::Commit { .. }
        | WrenMsg::Replicate { .. }
        | WrenMsg::Heartbeat { .. }
        | WrenMsg::StableGossip { .. }
        | WrenMsg::GcGossip { .. }
        | WrenMsg::GossipUp { .. }
        | WrenMsg::GossipDown { .. }
        | WrenMsg::CatchUpReq { .. }
        | WrenMsg::CatchUpDone { .. } => true,
        WrenMsg::StartTxReq { .. }
        | WrenMsg::TxReadReq { .. }
        | WrenMsg::CommitReq { .. }
        | WrenMsg::StartTxResp { .. }
        | WrenMsg::TxReadResp { .. }
        | WrenMsg::CommitResp { .. } => false,
    }
}

// ---------------------------------------------------------------------
// Client side: a session's framed link to its coordinators.
// ---------------------------------------------------------------------

/// A client session's socket bundle to one server.
struct PeerIo {
    write: TcpStream,
    reader: FramedReader,
}

/// The TCP leg of a [`Session`](crate::Session): lazily-dialed framed
/// connections to whichever coordinators the session talks to (one,
/// until it migrates), with blocking timed receives.
///
/// The session layer is strictly request-response (one in-flight
/// operation, as in the paper's client model), so a plain blocking read
/// with `SO_RCVTIMEO` is the whole receive path — no demultiplexing.
pub(crate) struct TcpLink {
    id: ClientId,
    addrs: Arc<Vec<SocketAddr>>,
    n_partitions: u16,
    timeout: Duration,
    /// Total time `connect` keeps retrying refused dials before
    /// reporting the address unreachable (a [`ClusterBuilder`] knob).
    ///
    /// [`ClusterBuilder`]: crate::ClusterBuilder::dial_retry_budget
    dial_budget: Duration,
    conns: HashMap<ServerId, PeerIo>,
    /// The server the last request went to (whose link `recv` reads).
    active: Option<ServerId>,
}

impl TcpLink {
    pub(crate) fn new(
        id: ClientId,
        addrs: Arc<Vec<SocketAddr>>,
        n_partitions: u16,
        timeout: Duration,
        dial_budget: Duration,
    ) -> TcpLink {
        TcpLink {
            id,
            addrs,
            n_partitions,
            timeout,
            dial_budget,
            conns: HashMap::new(),
            active: None,
        }
    }

    pub(crate) fn timeout(&self) -> Duration {
        self.timeout
    }

    /// Drops every cached connection: the next operation redials. The
    /// session layer calls this on migration, because helloing a new
    /// coordinator makes the cluster sever the displaced registration's
    /// socket — any conn cached before the migration is (or will be)
    /// dead, and a migration back would otherwise hit it and surface a
    /// spurious `Shutdown`.
    pub(crate) fn reset(&mut self) {
        self.conns.clear();
        self.active = None;
    }

    /// Dials `to`'s listener, retrying on `ECONNREFUSED` with jittered
    /// exponential backoff until the dial budget drains. During cluster
    /// startup a session can legitimately race the listener into
    /// existence (separate processes especially: addresses are
    /// exchanged before every partition is up), and during a failover a
    /// generous budget rides out a kill-to-restart window entirely; a
    /// refused dial beyond the budget means the partition is genuinely
    /// down and the error names its address ([`RtError::Unreachable`]).
    fn connect(&mut self, to: ServerId) -> Result<(), RtError> {
        use std::io::Write;
        let addr = self.addrs[to.dc_major_index(self.n_partitions)];
        let deadline = Instant::now() + self.dial_budget;
        let mut backoff = DIAL_BACKOFF_MIN;
        let mut stream = loop {
            match TcpStream::connect_timeout(&addr, self.timeout) {
                Ok(s) => break s,
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(RtError::Unreachable(addr));
                    }
                    std::thread::sleep(jittered(backoff).min(deadline - now));
                    backoff = (backoff * 2).min(DIAL_BACKOFF_MAX);
                }
                Err(_) => return Err(RtError::Shutdown),
            }
        };
        let io = (|| -> std::io::Result<PeerIo> {
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.write_all(&Hello::Client(self.id).encode_framed())?;
            let write = stream.try_clone()?;
            Ok(PeerIo {
                write,
                reader: FramedReader::new(stream),
            })
        })()
        .map_err(|_| RtError::Shutdown)?;
        self.conns.insert(to, io);
        Ok(())
    }

    /// Frames and writes one request. [`RtError::Unreachable`] means
    /// the server's address refused connections beyond the dial's retry
    /// budget; [`RtError::Shutdown`] covers other transport failures
    /// (cluster down mid-connection); [`RtError::TooLarge`] means the
    /// request exceeds the transport's ceilings (total size, or keys
    /// per read). The size bounds are also enforced at the server's
    /// accepting boundary; checking here turns a would-be severed
    /// connection into a clean client-side error.
    pub(crate) fn send(&mut self, to: ServerId, msg: &WrenMsg) -> Result<(), RtError> {
        use std::io::Write;
        if !legal_from_client(msg) {
            return Err(RtError::TooLarge);
        }
        // Within CLIENT_REQ_MAX < MAX_FRAME_LEN, so framing can't fail.
        let frame = frame_wren(msg);
        if !self.conns.contains_key(&to) {
            self.connect(to)?;
        }
        self.active = Some(to);
        let conn = self.conns.get_mut(&to).expect("just ensured");
        if conn.write.write_all(&frame).is_err() {
            self.conns.remove(&to);
            return Err(RtError::Shutdown);
        }
        Ok(())
    }

    /// Blocks for the response to the last request.
    pub(crate) fn recv(&mut self) -> Result<WrenMsg, RtError> {
        let active = self.active.ok_or(RtError::Shutdown)?;
        let conn = self.conns.get_mut(&active).ok_or(RtError::Shutdown)?;
        match conn.reader.next_frame() {
            Ok(Some(payload)) => {
                WrenMsg::decode(&payload).map_err(|_| RtError::Shutdown)
            }
            Ok(None) => {
                self.conns.remove(&active);
                Err(RtError::Shutdown)
            }
            Err(e) if e.is_timeout() => Err(RtError::Timeout),
            Err(_) => {
                self.conns.remove(&active);
                Err(RtError::Shutdown)
            }
        }
    }
}
