//! The io_uring backend for [`crate::reactor`]: submission-queue I/O
//! with the per-event syscalls taken off the hot path.
//!
//! The epoll loop pays one `epoll_wait` per readiness batch plus one
//! `read`/`writev`/`accept` per ready fd per event. This backend keeps
//! the equivalent work *resident in the kernel*: a **multishot accept**
//! per listener (one SQE, a completion per accepted socket), a
//! **provided-buffer recv** per connection (the kernel picks a buffer
//! from a pre-registered pool at the moment data arrives, so no buffer
//! is committed to an idle peer), and **vectored `sendmsg` batches** —
//! one SQE whose iovec array spans a whole outbox batch, the exact
//! `writev(2)` shape the epoll drain uses, as one submission and one
//! completion. The one recurring syscall is `io_uring_enter`, which
//! submits every SQE queued since the last call and waits for the next
//! completion batch — the `sqe_per_enter` histogram
//! ([`ReactorMetrics::sqe_per_enter`](crate::ReactorMetrics)) watches
//! how many submissions each kernel crossing amortizes.
//!
//! Everything a handler or handle can observe is identical to the
//! epoll backend — same [`ReactorHandler`] callbacks and burst
//! boundaries, same [`ConnHandle`]/[`ListenerHandle`](crate::ListenerHandle),
//! same outbox contract (bounded bytes, enqueue never blocks, an
//! overflowing peer is severed): the loop body here consumes the very
//! same registration/command queues as `reactor_loop` and reuses the
//! same [`plan_batch`]/[`settle`] send arithmetic, so `wren-rt`'s
//! fabric runs over either backend unmodified.
//!
//! **Sockets stay in blocking mode** on this backend (the installer
//! clears `O_NONBLOCK`): io_uring propagates `EAGAIN` to the CQE for
//! explicitly-nonblocking files, but for blocking files it parks the
//! request on internal poll and retries — which is exactly the
//! event-driven behavior the loop wants, with zero userspace retries.
//! Sends additionally carry `MSG_WAITALL`, so a batch's completion
//! normally acks every byte offered; a short send (peer died
//! mid-batch) settles through the same cursor arithmetic as a short
//! `writev`, and the resubmitted remainder surfaces the error.
//!
//! Availability is probed once per process ([`available`]): the
//! `io_uring_setup` syscall itself (absent kernels and seccomp-denying
//! containers fail here), the single-mmap ring layout, and every
//! opcode this module submits. Anything missing makes
//! [`Reactor::with_options`](crate::Reactor::with_options) fall back
//! to epoll; nothing else in the process notices.
//!
//! The FFI surface (syscalls 425/426/427, the ring mmaps, the atomic
//! head/tail protocol) lives in the [`sys`] module, the crate's second
//! and only other `unsafe` island, mirroring `poll::sys`' discipline:
//! one-line wrappers returning `io::Result`, nothing `unsafe` escapes.

use crate::reactor::{
    Cmd, ConnHandle, NewConn, Pending, ReactorHandler, SendQueue, Shared, READ_CHUNK, WRITE_BUDGET,
};
use crate::writev::{plan_batch, settle};
use bytes::Bytes;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use wren_protocol::frame::FrameDecoder;

/// SQ entries per ring (CQ defaults to twice this). Deep enough for
/// every conn's send batch (one `sendmsg` SQE each) plus every recv
/// re-arm in one submission batch; overflow spills into a userspace
/// backlog, never dropped.
const SQ_ENTRIES: u32 = 256;

/// Provided-buffer pool: count × size per reactor thread. Size matches
/// the epoll backend's read chunk; the pool bounds *concurrent* recv
/// completions holding data, not connections — a buffer is returned to
/// the kernel as soon as its burst is decoded, and a conn that loses
/// the race recvs `-ENOBUFS` and is re-armed when the next buffer
/// frees ([`Loop::starved`]).
const BUF_COUNT: u32 = 128;
const BUF_LEN: usize = READ_CHUNK;

/// The provided-buffer group id (this module only uses one pool).
const BUF_GROUP: u16 = 0;

/// user_data tags: op kind in the top byte, owning token below it.
const K_WAKER: u64 = 1 << 56;
const K_ACCEPT: u64 = 2 << 56;
const K_RECV: u64 = 3 << 56;
const K_SEND: u64 = 4 << 56;
const K_PROVIDE: u64 = 5 << 56;
const K_CANCEL: u64 = 6 << 56;
const TOKEN_MASK: u64 = (1 << 56) - 1;

// Completion error codes the loop dispatches on (negated errnos).
const ECANCELED: i32 = -125;
const ENOBUFS: i32 = -105;
const EMFILE: i32 = -24;
const ENFILE: i32 = -23;

/// The raw FFI surface: the three io_uring syscalls, the ring mmaps
/// and the shared-memory head/tail protocol, plus the one
/// `from_raw_fd` an accepted socket needs. Nothing else in this module
/// is allowed to write `unsafe`.
#[allow(unsafe_code)]
pub(crate) mod sys {
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::sync::atomic::{AtomicU32, Ordering};

    const SYS_IO_URING_SETUP: i64 = 425;
    const SYS_IO_URING_ENTER: i64 = 426;
    const SYS_IO_URING_REGISTER: i64 = 427;

    const IORING_OFF_SQ_RING: i64 = 0;
    const IORING_OFF_SQES: i64 = 0x1000_0000;

    const IORING_ENTER_GETEVENTS: u32 = 1;
    const IORING_REGISTER_PROBE: u32 = 8;

    const IORING_FEAT_SINGLE_MMAP: u32 = 1 << 0;

    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_SHARED: i32 = 0x01;
    const MAP_POPULATE: i32 = 0x8000;

    // Opcodes this backend submits (probe-verified before use).
    pub const OP_POLL_ADD: u8 = 6;
    pub const OP_SENDMSG: u8 = 9;
    pub const OP_ACCEPT: u8 = 13;
    pub const OP_ASYNC_CANCEL: u8 = 14;
    pub const OP_RECV: u8 = 27;
    pub const OP_PROVIDE_BUFFERS: u8 = 31;

    // SQE flags.
    pub const IOSQE_BUFFER_SELECT: u8 = 1 << 5;

    // CQE flags.
    pub const CQE_F_BUFFER: u32 = 1 << 0;
    pub const CQE_F_MORE: u32 = 1 << 1;

    /// `ioprio` bit requesting multishot accept (one SQE, many CQEs).
    pub const ACCEPT_MULTISHOT: u16 = 1 << 0;

    pub const POLLIN: u32 = 1;
    pub const SOCK_CLOEXEC: u32 = 0o2000000;
    pub const MSG_WAITALL: u32 = 0x100;
    pub const MSG_NOSIGNAL: u32 = 0x4000;

    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct SqringOffsets {
        head: u32,
        tail: u32,
        ring_mask: u32,
        ring_entries: u32,
        flags: u32,
        dropped: u32,
        array: u32,
        resv1: u32,
        user_addr: u64,
    }

    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct CqringOffsets {
        head: u32,
        tail: u32,
        ring_mask: u32,
        ring_entries: u32,
        overflow: u32,
        cqes: u32,
        flags: u32,
        resv1: u32,
        user_addr: u64,
    }

    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    struct UringParams {
        sq_entries: u32,
        cq_entries: u32,
        flags: u32,
        sq_thread_cpu: u32,
        sq_thread_idle: u32,
        features: u32,
        wq_fd: u32,
        resv: [u32; 3],
        sq_off: SqringOffsets,
        cq_off: CqringOffsets,
    }

    /// One submission-queue entry, full 64-byte kernel layout. Built
    /// field-by-field in safe code (addresses travel as `u64`; the
    /// pointee-lifetime obligations are documented on each prep
    /// helper) and copied into the mmap'd SQE array by [`Ring::push`].
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    pub struct Sqe {
        pub opcode: u8,
        pub flags: u8,
        pub ioprio: u16,
        pub fd: i32,
        pub off: u64,
        pub addr: u64,
        pub len: u32,
        pub op_flags: u32,
        pub user_data: u64,
        pub buf_index: u16,
        pub personality: u16,
        pub splice_fd_in: i32,
        pub pad2: [u64; 2],
    }

    /// One completion-queue entry (exactly `struct io_uring_cqe`).
    #[repr(C)]
    #[derive(Clone, Copy, Default, Debug)]
    pub struct Cqe {
        pub user_data: u64,
        pub res: i32,
        pub flags: u32,
    }

    /// `struct iovec` (x86-64 layout: two 8-byte fields). Addresses
    /// travel as `u64` so safe code can build these; the kernel only
    /// dereferences them while the owning sendmsg SQE is in flight.
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    pub struct Iovec {
        pub base: u64,
        pub len: u64,
    }

    /// `struct msghdr` (x86-64 layout, 56 bytes). Only `iov`/`iovlen`
    /// are used — name and control stay null — making an
    /// `OP_SENDMSG` SQE exactly a `writev(2)` on a socket.
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    pub struct MsgHdr {
        pub name: u64,
        pub namelen: u32,
        pub _pad0: u32,
        pub iov: u64,
        pub iovlen: u64,
        pub control: u64,
        pub controllen: u64,
        pub flags: u32,
        pub _pad1: u32,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct ProbeOp {
        op: u8,
        resv: u8,
        flags: u16,
        resv2: u32,
    }

    #[repr(C)]
    struct ProbeBuf {
        last_op: u8,
        ops_len: u8,
        resv: u16,
        resv2: [u32; 3],
        ops: [ProbeOp; 256],
    }

    extern "C" {
        fn syscall(num: i64, ...) -> i64;
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    /// Wraps a just-accepted raw fd (from an ACCEPT completion) into a
    /// std stream, which takes ownership of closing it.
    pub fn stream_from_fd(fd: i32) -> std::net::TcpStream {
        // SAFETY: the fd was returned by the kernel in this op's CQE
        // and is owned by nobody else; ownership transfers here once.
        unsafe { std::net::TcpStream::from_raw_fd(fd) }
    }

    fn setup(entries: u32, params: &mut UringParams) -> io::Result<OwnedFd> {
        // SAFETY: plain syscall; params is a live out-pointer for the
        // duration of the call; a non-negative return is a fresh fd we
        // immediately take unique ownership of.
        let fd = unsafe { syscall(SYS_IO_URING_SETUP, entries, params as *mut UringParams) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(unsafe { OwnedFd::from_raw_fd(fd as RawFd) })
    }

    /// One mmap'd ring region, unmapped on drop.
    struct Mmap {
        ptr: *mut u8,
        len: usize,
    }

    impl Mmap {
        fn new(fd: RawFd, len: usize, offset: i64) -> io::Result<Mmap> {
            // SAFETY: plain mmap of the ring fd at a kernel-defined
            // offset; MAP_FAILED is checked before the pointer is used.
            let ptr = unsafe {
                mmap(
                    core::ptr::null_mut(),
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_POPULATE,
                    fd,
                    offset,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Mmap {
                ptr: ptr.cast(),
                len,
            })
        }

        fn at(&self, off: u32) -> *mut u8 {
            debug_assert!((off as usize) < self.len);
            // In-bounds offset arithmetic within one mapping.
            self.ptr.wrapping_add(off as usize)
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: exactly the pointer/length pair mmap returned.
            unsafe {
                munmap(self.ptr.cast(), self.len);
            }
        }
    }

    fn atomic_at(m: &Mmap, off: u32) -> &AtomicU32 {
        // SAFETY: the offset comes from the kernel's ring layout and is
        // 4-aligned inside the live mapping; the kernel accesses the
        // same word atomically — that is the ring protocol.
        unsafe { &*(m.at(off) as *const AtomicU32) }
    }

    /// One io_uring instance: the ring fd, its two mmaps and the local
    /// submission cursor. All ring-protocol memory access is confined
    /// to this type's methods.
    pub struct Ring {
        fd: OwnedFd,
        ring: Mmap,
        sqes: Mmap,
        sq_head_off: u32,
        sq_tail_off: u32,
        sq_mask: u32,
        sq_array_off: u32,
        cq_head_off: u32,
        cq_tail_off: u32,
        cq_mask: u32,
        cq_cqes_off: u32,
        /// Our producer-side SQ tail (the kernel's copy lags until the
        /// release store in [`push`](Self::push)).
        tail: u32,
        /// SQEs pushed since the last successful submit.
        to_submit: u32,
    }

    // SAFETY: the Ring is moved into its reactor thread and never
    // shared; the raw pointers inside are to mappings it owns.
    unsafe impl Send for Ring {}

    impl Ring {
        /// Sets up a ring with `entries` SQ slots and mmaps it.
        pub fn with_entries(entries: u32) -> io::Result<Ring> {
            let mut p = UringParams::default();
            let fd = setup(entries, &mut p)?;
            if p.features & IORING_FEAT_SINGLE_MMAP == 0 {
                // Pre-5.4 two-mmap layout: the probe rejects such
                // kernels, but guard the direct path too.
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "io_uring without IORING_FEAT_SINGLE_MMAP",
                ));
            }
            let sq_size = p.sq_off.array as usize + p.sq_entries as usize * 4;
            let cq_size =
                p.cq_off.cqes as usize + p.cq_entries as usize * core::mem::size_of::<Cqe>();
            let ring = Mmap::new(fd.as_raw_fd(), sq_size.max(cq_size), IORING_OFF_SQ_RING)?;
            let sqes = Mmap::new(
                fd.as_raw_fd(),
                p.sq_entries as usize * core::mem::size_of::<Sqe>(),
                IORING_OFF_SQES,
            )?;
            let sq_mask = atomic_at(&ring, p.sq_off.ring_mask).load(Ordering::Relaxed);
            let cq_mask = atomic_at(&ring, p.cq_off.ring_mask).load(Ordering::Relaxed);
            Ok(Ring {
                fd,
                ring,
                sqes,
                sq_head_off: p.sq_off.head,
                sq_tail_off: p.sq_off.tail,
                sq_mask,
                sq_array_off: p.sq_off.array,
                cq_head_off: p.cq_off.head,
                cq_tail_off: p.cq_off.tail,
                cq_mask,
                cq_cqes_off: p.cq_off.cqes,
                tail: 0,
                to_submit: 0,
            })
        }

        /// Copies `sqe` into the next SQ slot and publishes it. `false`
        /// when the SQ is full (caller backlogs and flushes first).
        pub fn push(&mut self, sqe: &Sqe) -> bool {
            let head = atomic_at(&self.ring, self.sq_head_off).load(Ordering::Acquire);
            if self.tail.wrapping_sub(head) > self.sq_mask {
                return false;
            }
            let idx = self.tail & self.sq_mask;
            // SAFETY: idx is masked into the SQE array / index array of
            // the live mappings; the slot is ours until the tail store
            // below publishes it.
            unsafe {
                *(self.sqes.at(idx * core::mem::size_of::<Sqe>() as u32) as *mut Sqe) = *sqe;
                *(self.ring.at(self.sq_array_off + idx * 4) as *mut u32) = idx;
            }
            self.tail = self.tail.wrapping_add(1);
            atomic_at(&self.ring, self.sq_tail_off).store(self.tail, Ordering::Release);
            self.to_submit += 1;
            true
        }

        /// Submits everything pushed since the last call; when `wait`,
        /// also blocks until at least one CQE is available (this is the
        /// loop's only blocking point). Returns the submitted count.
        /// `EINTR` retries; `EBUSY` (completion backpressure) retries
        /// when waiting — consuming CQEs is exactly what unblocks it.
        pub fn enter(&mut self, wait: bool) -> io::Result<u32> {
            loop {
                let (min_complete, flags) = if wait { (1, IORING_ENTER_GETEVENTS) } else { (0, 0) };
                // SAFETY: plain syscall on the ring fd; no sigset.
                let r = unsafe {
                    syscall(
                        SYS_IO_URING_ENTER,
                        self.fd.as_raw_fd(),
                        self.to_submit,
                        min_complete,
                        flags,
                        core::ptr::null::<u8>(),
                        0usize,
                    )
                };
                if r < 0 {
                    let e = io::Error::last_os_error();
                    match e.raw_os_error() {
                        Some(4 /* EINTR */) => continue,
                        Some(16 /* EBUSY */) if !wait => return Ok(0),
                        Some(16) => continue,
                        _ => return Err(e),
                    }
                }
                let submitted = r as u32;
                self.to_submit -= submitted.min(self.to_submit);
                return Ok(submitted);
            }
        }

        /// Unused SQ slots (for chain reservation).
        pub fn free_slots(&self) -> u32 {
            let head = atomic_at(&self.ring, self.sq_head_off).load(Ordering::Acquire);
            (self.sq_mask + 1) - self.tail.wrapping_sub(head)
        }

        /// Pops the next completion, if any.
        pub fn pop(&mut self) -> Option<Cqe> {
            let head = atomic_at(&self.ring, self.cq_head_off).load(Ordering::Relaxed);
            let tail = atomic_at(&self.ring, self.cq_tail_off).load(Ordering::Acquire);
            if head == tail {
                return None;
            }
            let idx = head & self.cq_mask;
            // SAFETY: idx is masked into the CQE array of the live
            // mapping; the acquire-load of tail ordered the kernel's
            // write of this entry before our read.
            let cqe = unsafe {
                *(self
                    .ring
                    .at(self.cq_cqes_off + idx * core::mem::size_of::<Cqe>() as u32)
                    as *const Cqe)
            };
            atomic_at(&self.ring, self.cq_head_off).store(head.wrapping_add(1), Ordering::Release);
            Some(cqe)
        }
    }

    /// The process-wide capability probe: setup must succeed (absent
    /// kernel or seccomp-denied syscall fails here), the single-mmap
    /// layout must be offered, and every opcode this backend submits
    /// must report IO_URING_OP_SUPPORTED.
    pub fn probe() -> bool {
        let mut p = UringParams::default();
        let Ok(fd) = setup(2, &mut p) else {
            return false;
        };
        if p.features & IORING_FEAT_SINGLE_MMAP == 0 {
            return false;
        }
        let mut buf = ProbeBuf {
            last_op: 0,
            ops_len: 0,
            resv: 0,
            resv2: [0; 3],
            ops: [ProbeOp {
                op: 0,
                resv: 0,
                flags: 0,
                resv2: 0,
            }; 256],
        };
        // SAFETY: plain syscall; buf is a live out-pointer sized for
        // the nr_args we pass.
        let r = unsafe {
            syscall(
                SYS_IO_URING_REGISTER,
                fd.as_raw_fd(),
                IORING_REGISTER_PROBE,
                &mut buf as *mut ProbeBuf,
                256u32,
            )
        };
        if r < 0 {
            return false;
        }
        const IO_URING_OP_SUPPORTED: u16 = 1 << 0;
        [
            OP_POLL_ADD,
            OP_SENDMSG,
            OP_ACCEPT,
            OP_ASYNC_CANCEL,
            OP_RECV,
            OP_PROVIDE_BUFFERS,
        ]
        .iter()
        .all(|&op| {
            buf.ops
                .get(op as usize)
                .is_some_and(|o| op <= buf.last_op && o.flags & IO_URING_OP_SUPPORTED != 0)
        })
    }
}

use sys::{Cqe, Sqe};

/// A ring sized for the reactor loop ([`SQ_ENTRIES`]).
pub(crate) struct Ring {
    r: sys::Ring,
}

impl Ring {
    pub(crate) fn new() -> io::Result<Ring> {
        sys::Ring::with_entries(SQ_ENTRIES).map(|r| Ring { r })
    }
}

/// Test hook: forces [`available`] to report `false`, so the
/// epoll-fallback path can be exercised on hosts where io_uring works.
#[doc(hidden)]
pub fn force_unavailable(on: bool) {
    FORCE_UNAVAILABLE.store(on, Ordering::SeqCst);
}

static FORCE_UNAVAILABLE: AtomicBool = AtomicBool::new(false);

/// Whether this host can run the io_uring backend (probed once per
/// process; see [`sys::probe`] for what is required).
pub fn available() -> bool {
    static PROBE: OnceLock<bool> = OnceLock::new();
    !FORCE_UNAVAILABLE.load(Ordering::SeqCst) && *PROBE.get_or_init(sys::probe)
}

// ---------------------------------------------------------------------
// SQE preparation (safe: addresses travel as u64, each helper documents
// the lifetime its pointee must satisfy).
// ---------------------------------------------------------------------

/// Multishot accept on a listener fd. No pointee.
fn sqe_accept(fd: i32, token: u64) -> Sqe {
    Sqe {
        opcode: sys::OP_ACCEPT,
        ioprio: sys::ACCEPT_MULTISHOT,
        fd,
        op_flags: sys::SOCK_CLOEXEC,
        user_data: K_ACCEPT | (token & TOKEN_MASK),
        ..Sqe::default()
    }
}

/// Buffer-select recv: the kernel picks a pool buffer when data
/// arrives. No pointee (the pool is registered via PROVIDE_BUFFERS and
/// must stay alive while any recv is armed).
fn sqe_recv(fd: i32, token: u64) -> Sqe {
    Sqe {
        opcode: sys::OP_RECV,
        flags: sys::IOSQE_BUFFER_SELECT,
        fd,
        len: BUF_LEN as u32,
        buf_index: BUF_GROUP,
        user_data: K_RECV | (token & TOKEN_MASK),
        ..Sqe::default()
    }
}

/// One vectored send of a whole outbox batch: `msghdr_addr` points at
/// the conn's boxed [`sys::MsgHdr`], whose iovec array spans the
/// queued `Bytes` frames kept alive in the conn's `chain` — header,
/// array and payloads all pinned until the CQE arrives. The kernel's
/// `writev(2)` shape, one SQE per batch. `MSG_WAITALL` makes the
/// kernel retry short sends, so the completion normally acks the whole
/// batch; `MSG_NOSIGNAL` turns a dead peer into `EPIPE` rather than a
/// process signal.
fn sqe_sendmsg(fd: i32, msghdr_addr: u64, token: u64) -> Sqe {
    Sqe {
        opcode: sys::OP_SENDMSG,
        fd,
        addr: msghdr_addr,
        len: 1,
        op_flags: sys::MSG_WAITALL | sys::MSG_NOSIGNAL,
        user_data: K_SEND | (token & TOKEN_MASK),
        ..Sqe::default()
    }
}

/// Single-shot POLLIN on the waker eventfd. No pointee.
fn sqe_poll(fd: i32) -> Sqe {
    Sqe {
        opcode: sys::OP_POLL_ADD,
        fd,
        op_flags: sys::POLLIN,
        user_data: K_WAKER,
        ..Sqe::default()
    }
}

/// Cancels the outstanding op submitted under `target` user_data.
fn sqe_cancel(target: u64) -> Sqe {
    Sqe {
        opcode: sys::OP_ASYNC_CANCEL,
        fd: -1,
        addr: target,
        user_data: K_CANCEL,
        ..Sqe::default()
    }
}

// ---------------------------------------------------------------------
// Provided-buffer pool.
// ---------------------------------------------------------------------

/// The per-thread recv buffer pool, registered with the kernel as
/// provided-buffer group [`BUF_GROUP`]. The backing allocation is one
/// contiguous `Vec` that is never resized, so buffer addresses stay
/// stable for the life of the loop; teardown frees it only after the
/// ring has drained every outstanding op (or leaks it if the drain
/// times out — a freed-buffer kernel write would be far worse).
struct BufPool {
    mem: Vec<u8>,
}

impl BufPool {
    fn new() -> BufPool {
        BufPool {
            mem: vec![0u8; BUF_COUNT as usize * BUF_LEN],
        }
    }

    /// The received bytes of buffer `bid` after a recv completed `len`.
    fn slice(&self, bid: u16, len: usize) -> &[u8] {
        let start = bid as usize * BUF_LEN;
        &self.mem[start..start + len.min(BUF_LEN)]
    }

    /// Registers the whole pool (once, at loop start).
    fn provide_all(&self) -> Sqe {
        Sqe {
            opcode: sys::OP_PROVIDE_BUFFERS,
            fd: BUF_COUNT as i32,
            addr: self.mem.as_ptr() as u64,
            len: BUF_LEN as u32,
            off: 0,
            buf_index: BUF_GROUP,
            user_data: K_PROVIDE,
            ..Sqe::default()
        }
    }

    /// Returns buffer `bid` to the kernel after its burst was decoded.
    fn provide_one(&self, bid: u16) -> Sqe {
        Sqe {
            opcode: sys::OP_PROVIDE_BUFFERS,
            fd: 1,
            addr: self.mem.as_ptr() as u64 + (bid as usize * BUF_LEN) as u64,
            len: BUF_LEN as u32,
            off: bid as u64,
            buf_index: BUF_GROUP,
            user_data: K_PROVIDE,
            ..Sqe::default()
        }
    }
}

// ---------------------------------------------------------------------
// Submission bookkeeping.
// ---------------------------------------------------------------------

/// The ring plus the loop's submission discipline: a userspace backlog
/// so a push never drops (the SQ is finite; the backlog is not), an
/// in-flight count for teardown (every pushed SQE eventually yields
/// exactly one terminal CQE — multishot re-fires carry `F_MORE` and
/// don't count), and the `sqe_per_enter` histogram.
struct Subs {
    ring: Ring,
    backlog: VecDeque<Sqe>,
    inflight: u64,
    waker_armed: bool,
    hist: Option<wren_obs::Histogram>,
}

impl Subs {
    fn new(ring: Ring, hist: Option<wren_obs::Histogram>) -> Subs {
        Subs {
            ring,
            backlog: VecDeque::new(),
            inflight: 0,
            waker_armed: false,
            hist,
        }
    }

    /// Queues one SQE (to the ring, or the backlog if the SQ is full).
    fn push(&mut self, sqe: Sqe) {
        self.inflight += 1;
        if !self.backlog.is_empty() || !self.ring.r.push(&sqe) {
            self.backlog.push_back(sqe);
        }
    }

    /// Moves backlogged SQEs into ring slots, submitting to free them
    /// up as needed. Every SQE this backend issues is self-contained
    /// (a whole send batch travels as one `sendmsg` SQE), so any split
    /// between ring and backlog is safe. Only pathological SQ pressure
    /// leaves a remainder.
    fn flush_backlog(&mut self) {
        while !self.backlog.is_empty() {
            if self.ring.r.free_slots() >= 1 {
                let sqe = self.backlog.pop_front().unwrap();
                let pushed = self.ring.r.push(&sqe);
                debug_assert!(pushed);
            } else if !matches!(self.ring.r.enter(false), Ok(n) if n > 0) {
                break;
            }
        }
    }

    /// Submits everything queued and blocks for the next completion
    /// batch. Records how many SQEs this kernel crossing carried.
    fn enter_and_wait(&mut self) -> io::Result<()> {
        self.flush_backlog();
        let submitted = self.ring.r.enter(true)?;
        if let Some(h) = &self.hist {
            h.record(submitted as u64);
        }
        Ok(())
    }

    /// Pops the next completion, maintaining the in-flight count.
    fn pop(&mut self) -> Option<Cqe> {
        let cqe = self.ring.r.pop();
        if let Some(c) = &cqe {
            if c.flags & sys::CQE_F_MORE == 0 {
                self.inflight = self.inflight.saturating_sub(1);
            }
        }
        cqe
    }
}


// ---------------------------------------------------------------------
// Per-loop connection state.
// ---------------------------------------------------------------------

/// One reactor-served connection on this loop. The epoll backend's
/// `Conn` plus the in-flight submission state a completion-based loop
/// needs: the send batch's frames and iovec/msghdr storage (kept alive
/// for the kernel), and whether a send or recv is outstanding.
struct UConn<C> {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Arc<SendQueue>,
    state: C,
    token: u64,
    /// Bytes of the queue's front frame already acked by the kernel
    /// (the same mid-frame resume cursor as the epoll backend's).
    front_written: usize,
    /// Frames of the in-flight send batch. These `Bytes` clones pin
    /// the payload memory the submitted iovecs point into; cleared
    /// only when the batch's CQE has arrived.
    chain: Vec<Bytes>,
    /// The in-flight batch's iovec array. Heap storage is stable while
    /// the SQE is outstanding: rebuilt (never grown in place) only
    /// between batches.
    iov: Vec<sys::Iovec>,
    /// The in-flight batch's msghdr, boxed so its address survives the
    /// conn moving inside the entry map.
    msg: Box<sys::MsgHdr>,
    /// A sendmsg SQE is outstanding.
    send_inflight: bool,
    /// A recv SQE is outstanding.
    recv_armed: bool,
    /// Severed; waiting for in-flight CQEs to drain before `on_close`.
    closing: bool,
}

impl<C> UConn<C> {
    fn handle(&self, thread: &Arc<crate::reactor::ThreadShared>) -> ConnHandle {
        ConnHandle {
            token: self.token,
            out: Arc::clone(&self.out),
            thread: Arc::clone(thread),
        }
    }

    fn inflight(&self) -> u32 {
        u32::from(self.send_inflight) + u32::from(self.recv_armed)
    }
}

enum UEntry<C> {
    Listener {
        listener: TcpListener,
        ctx: u64,
        conn_max_bytes: usize,
        /// A (multishot) accept SQE is outstanding.
        accept_armed: bool,
        /// Closed; waiting for the accept cancel's terminal CQE.
        closing: bool,
    },
    Conn(UConn<C>),
}

/// What to do with a connection after a pass (mirrors the epoll loop).
#[derive(PartialEq)]
enum After {
    KeepOpen,
    Close,
}

// ---------------------------------------------------------------------
// The event loop.
// ---------------------------------------------------------------------

/// The io_uring event-loop body for reactor thread `idx`. Consumes the
/// same registration/command queues as `reactor_loop`; see the
/// [module docs](self) for the submission topology.
pub(crate) fn uring_loop<H: ReactorHandler>(shared: Arc<Shared<H>>, idx: usize, ring: Ring) {
    let me = &shared.threads[idx];
    let pool = BufPool::new();
    let mut subs = Subs::new(ring, shared.metrics.sqe_per_enter.clone());
    let mut entries: HashMap<u64, UEntry<H::Conn>> = HashMap::new();
    // Conns whose recv lost the buffer race (-ENOBUFS), re-armed in
    // FIFO order as buffers return to the pool.
    let mut starved: VecDeque<u64> = VecDeque::new();

    subs.push(pool.provide_all());
    subs.push(sqe_poll(me.shared.waker.as_raw_fd()));
    subs.waker_armed = true;

    loop {
        if shared.closing.load(Ordering::SeqCst) {
            teardown(&shared, idx, &mut subs, &mut entries, pool);
            return;
        }

        // New fds assigned to this thread.
        let pending: Vec<Pending<H::Conn>> =
            std::mem::take(&mut *me.pending.lock().unwrap_or_else(|e| e.into_inner()));
        for p in pending {
            match p {
                Pending::Conn(nc) => install_conn(&shared, idx, &mut subs, &mut entries, nc),
                Pending::Listener {
                    listener,
                    ctx,
                    conn_max_bytes,
                    token,
                } => {
                    let _ = listener.set_nonblocking(false);
                    subs.push(sqe_accept(listener.as_raw_fd(), token));
                    entries.insert(
                        token,
                        UEntry::Listener {
                            listener,
                            ctx,
                            conn_max_bytes,
                            accept_armed: true,
                            closing: false,
                        },
                    );
                }
            }
        }

        // Cross-thread commands (flush/sever kicks from enqueuers).
        let cmds: Vec<Cmd> =
            std::mem::take(&mut *me.shared.cmds.lock().unwrap_or_else(|e| e.into_inner()));
        for cmd in cmds {
            match cmd {
                Cmd::Flush(token) => {
                    let after = match entries.get_mut(&token) {
                        Some(UEntry::Conn(c)) => start_chain(c, &mut subs),
                        _ => After::KeepOpen,
                    };
                    if after == After::Close {
                        close_entry(&shared, idx, &mut subs, &mut entries, token);
                    }
                }
                Cmd::Sever(token) => {
                    close_entry(&shared, idx, &mut subs, &mut entries, token);
                    finalize_if_drained(&shared, idx, &mut entries, token);
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

        // Submit everything queued and block for the next completion
        // batch — the loop's single syscall.
        if subs.enter_and_wait().is_err() {
            // Only pathological states land here; back off, don't spin.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }

        // Drain the completion batch.
        while let Some(cqe) = subs.pop() {
            let token = cqe.user_data & TOKEN_MASK;
            match cqe.user_data & !TOKEN_MASK {
                K_WAKER => {
                    subs.waker_armed = false;
                    me.shared.waker.drain();
                    if !shared.closing.load(Ordering::SeqCst) {
                        subs.push(sqe_poll(me.shared.waker.as_raw_fd()));
                        subs.waker_armed = true;
                    }
                }
                K_ACCEPT => handle_accept(&shared, idx, &mut subs, &mut entries, token, &cqe),
                K_RECV => handle_recv(
                    &shared,
                    idx,
                    &mut subs,
                    &mut entries,
                    &mut starved,
                    &pool,
                    token,
                    &cqe,
                ),
                K_SEND => handle_send(&shared, idx, &mut subs, &mut entries, token, cqe.res),
                // Buffer replenishments and cancels need no action.
                _ => {}
            }
        }
    }
}

/// Installs a connection into this loop — the single path shared by
/// cross-thread registrations and this thread's own accepts. The
/// socket is put back in blocking mode (see the [module docs](self)),
/// a recv is armed, and any frames already queued (a dialer's hello, a
/// greeting enqueued from `on_accept` — or a sever that raced the
/// registration) are acted on eagerly, exactly like the epoll
/// installer's eager first flush.
fn install_conn<H: ReactorHandler>(
    shared: &Arc<Shared<H>>,
    idx: usize,
    subs: &mut Subs,
    entries: &mut HashMap<u64, UEntry<H::Conn>>,
    nc: NewConn<H::Conn>,
) {
    let _ = nc.stream.set_nonblocking(false);
    let token = nc.token;
    let mut c = UConn {
        stream: nc.stream,
        decoder: FrameDecoder::new(),
        out: nc.out,
        state: nc.state,
        token,
        front_written: 0,
        chain: Vec::new(),
        iov: Vec::new(),
        msg: Box::new(sys::MsgHdr::default()),
        send_inflight: false,
        recv_armed: false,
        closing: false,
    };
    subs.push(sqe_recv(c.stream.as_raw_fd(), token));
    c.recv_armed = true;
    let eager = start_chain(&mut c, subs);
    entries.insert(token, UEntry::Conn(c));
    if eager == After::Close {
        close_entry(shared, idx, subs, entries, token);
    }
}

/// Re-arms the recv of a previously buffer-starved connection.
fn arm_recv<C>(subs: &mut Subs, entries: &mut HashMap<u64, UEntry<C>>, token: u64) {
    if let Some(UEntry::Conn(c)) = entries.get_mut(&token) {
        if !c.closing && !c.recv_armed {
            subs.push(sqe_recv(c.stream.as_raw_fd(), token));
            c.recv_armed = true;
        }
    }
}

/// Submits the next send batch for `c` if none is in flight: the same
/// batch the epoll backend would hand to one `writev`
/// ([`plan_batch`] under [`WRITE_BUDGET`]), as one `sendmsg` SQE whose
/// iovec array spans the batch — one submission, one completion, and
/// the identical bytes on the wire.
fn start_chain<C>(c: &mut UConn<C>, subs: &mut Subs) -> After {
    if c.send_inflight || c.closing {
        return After::KeepOpen;
    }
    {
        let mut s = c.out.lock();
        s.kick_pending = false;
        if s.closed {
            return After::Close;
        }
        let take = plan_batch(&s.frames, c.front_written, WRITE_BUDGET);
        if take == 0 {
            return After::KeepOpen;
        }
        c.chain.clear();
        c.chain.extend(s.frames.iter().take(take).cloned());
    }
    // Rebuild the iovec array in place; its heap buffer (and the boxed
    // msghdr) must not move again until the CQE arrives.
    c.iov.clear();
    c.iov.extend(c.chain.iter().enumerate().map(|(i, frame)| {
        let part = if i == 0 {
            &frame[c.front_written..]
        } else {
            &frame[..]
        };
        sys::Iovec {
            base: part.as_ptr() as u64,
            len: part.len() as u64,
        }
    }));
    *c.msg = sys::MsgHdr {
        iov: c.iov.as_ptr() as u64,
        iovlen: c.iov.len() as u64,
        ..sys::MsgHdr::default()
    };
    let msghdr_addr = std::ptr::addr_of!(*c.msg) as u64;
    subs.push(sqe_sendmsg(c.stream.as_raw_fd(), msghdr_addr, c.token));
    c.send_inflight = true;
    After::KeepOpen
}

/// One accept completion: a fresh socket (multishot CQEs keep coming
/// while `F_MORE` is set), a cancel ack on the teardown path, or a
/// transient error. Re-arms the accept whenever the multishot chain
/// ended with the listener still open.
fn handle_accept<H: ReactorHandler>(
    shared: &Arc<Shared<H>>,
    idx: usize,
    subs: &mut Subs,
    entries: &mut HashMap<u64, UEntry<H::Conn>>,
    token: u64,
    cqe: &Cqe,
) {
    let (ctx, conn_max_bytes, alive, fd) = match entries.get_mut(&token) {
        Some(UEntry::Listener {
            listener,
            ctx,
            conn_max_bytes,
            accept_armed,
            closing,
        }) => {
            if cqe.flags & sys::CQE_F_MORE == 0 {
                *accept_armed = false;
            }
            (*ctx, *conn_max_bytes, !*closing, listener.as_raw_fd())
        }
        _ => {
            // Entry already gone; an accepted fd must still be owned
            // and closed rather than leaked.
            if cqe.res >= 0 {
                drop(sys::stream_from_fd(cqe.res));
            }
            return;
        }
    };
    if cqe.res >= 0 {
        let accepted = sys::stream_from_fd(cqe.res);
        if alive && !shared.closing.load(Ordering::SeqCst) {
            let _ = accepted.set_nodelay(true);
            let conn_token = shared.token();
            let ti = shared.pick_thread();
            let out = Arc::new(SendQueue::new(conn_max_bytes));
            let handle = ConnHandle {
                token: conn_token,
                out: Arc::clone(&out),
                thread: Arc::clone(&shared.threads[ti].shared),
            };
            if let Some(state) = shared.handler.on_accept(ctx, &handle) {
                let nc = NewConn {
                    stream: accepted,
                    state,
                    out,
                    token: conn_token,
                };
                if ti == idx {
                    install_conn(shared, idx, subs, entries, nc);
                } else if let Some(retracted) = shared.submit(ti, Pending::Conn(nc)) {
                    shared.discard_pending(ti, retracted);
                }
            }
            // on_accept refusing drops the socket (fd closes).
        }
    } else if cqe.res == ECANCELED {
        if !alive {
            // Teardown handshake complete: the fd can die now.
            entries.remove(&token);
        }
        return;
    } else if cqe.res == EMFILE || cqe.res == ENFILE {
        // fd exhaustion: immediate re-arm would complete-fail in a hot
        // loop; a brief pause is the lesser evil, and only this path —
        // an already-sick process — pays it (mirrors the epoll loop).
        std::thread::sleep(Duration::from_millis(10));
    }
    // Transient errors (ECONNABORTED, EAGAIN) fall through to re-arm.
    if alive {
        if let Some(UEntry::Listener { accept_armed, .. }) = entries.get_mut(&token) {
            if !*accept_armed {
                subs.push(sqe_accept(fd, token));
                *accept_armed = true;
            }
        }
    }
}

/// One recv completion: decode the burst out of the selected pool
/// buffer, return the buffer, fire the burst hook, re-arm. Exactly the
/// epoll `read_ready` contract, with the buffer pool in place of the
/// per-thread read scratch.
#[allow(clippy::too_many_arguments)]
fn handle_recv<H: ReactorHandler>(
    shared: &Arc<Shared<H>>,
    idx: usize,
    subs: &mut Subs,
    entries: &mut HashMap<u64, UEntry<H::Conn>>,
    starved: &mut VecDeque<u64>,
    pool: &BufPool,
    token: u64,
    cqe: &Cqe,
) {
    let me = &shared.threads[idx];
    let mut close = false;
    let mut rearm_starved: Option<u64> = None;
    {
        let Some(UEntry::Conn(c)) = entries.get_mut(&token) else {
            return;
        };
        c.recv_armed = false;
        if cqe.res == ENOBUFS {
            // Lost the buffer race: no buffer consumed; queue for
            // re-arm as soon as one returns to the pool.
            if !c.closing {
                starved.push_back(token);
            }
        } else if cqe.res <= 0 {
            // EOF, error, or the teardown cancel.
            close = true;
        } else {
            let bid = (cqe.flags >> 16) as u16;
            debug_assert!(cqe.flags & sys::CQE_F_BUFFER != 0);
            c.decoder.extend(pool.slice(bid, cqe.res as usize));
            let handle = c.handle(&me.shared);
            loop {
                match c.decoder.next_frame() {
                    Ok(Some(payload)) => {
                        if !shared.handler.on_frame(&mut c.state, &handle, payload) {
                            close = true;
                            break;
                        }
                    }
                    Ok(None) => break,
                    // Oversized frame: sever, as the epoll loop does.
                    Err(_) => {
                        close = true;
                        break;
                    }
                }
            }
            // The buffer goes back to the kernel before anything else —
            // including on the sever path — and whoever starved first
            // gets the next shot at it.
            subs.push(pool.provide_one(bid));
            rearm_starved = starved.pop_front();
            // Burst over (drained or severing): batching handlers flush
            // here, before any close, so no buffered frame is lost.
            shared.handler.on_burst_end(&mut c.state, &handle);
            if !close {
                subs.push(sqe_recv(c.stream.as_raw_fd(), token));
                c.recv_armed = true;
                // Echo-style handlers enqueued responses during the
                // burst: submit them now rather than waiting for the
                // Flush command to come around.
                if start_chain(c, subs) == After::Close {
                    close = true;
                }
            }
        }
    }
    if close {
        close_entry(shared, idx, subs, entries, token);
    }
    finalize_if_drained(shared, idx, entries, token);
    if let Some(t) = rearm_starved {
        arm_recv(subs, entries, t);
    }
}

/// One send completion: the CQE's `res` is the batch's byte count,
/// settled against the queue exactly like a `writev` return —
/// completed frames pop, the mid-frame cursor advances, and the next
/// batch (the short-send remainder, or fresh frames) is submitted.
fn handle_send<H: ReactorHandler>(
    shared: &Arc<Shared<H>>,
    idx: usize,
    subs: &mut Subs,
    entries: &mut HashMap<u64, UEntry<H::Conn>>,
    token: u64,
    res: i32,
) {
    let mut close = false;
    {
        let Some(UEntry::Conn(c)) = entries.get_mut(&token) else {
            return;
        };
        c.send_inflight = false;
        let acked = res.max(0) as usize;
        if acked > 0 {
            let mut s = c.out.lock();
            if !s.closed {
                s.queued_bytes -= acked.min(s.queued_bytes);
            }
        }
        let lens: Vec<usize> = c.chain.iter().map(Bytes::len).collect();
        let (completed, new_front) = settle(&lens, c.front_written, acked);
        c.front_written = new_front;
        c.chain.clear();
        {
            let mut s = c.out.lock();
            if !s.closed {
                for _ in 0..completed {
                    s.frames.pop_front();
                }
            }
        }
        if res <= 0 && !c.closing {
            // A real error (EPIPE, ECONNRESET, the teardown cancel) or
            // a zero-byte send of a nonempty batch: the peer is gone.
            close = true;
        } else if start_chain(c, subs) == After::Close {
            close = true;
        }
    }
    if close {
        close_entry(shared, idx, subs, entries, token);
    }
    finalize_if_drained(shared, idx, entries, token);
}

/// Severs the entry under `token`: the queue dies (every handle
/// reports closed), the socket is shut down so parked kernel ops
/// complete promptly, and outstanding multishot accepts are canceled.
/// The entry itself stays until its in-flight CQEs drain —
/// [`finalize_if_drained`] delivers `on_close` exactly once.
fn close_entry<H: ReactorHandler>(
    shared: &Arc<Shared<H>>,
    idx: usize,
    subs: &mut Subs,
    entries: &mut HashMap<u64, UEntry<H::Conn>>,
    token: u64,
) {
    let _ = shared; // symmetry with the epoll close path
    let _ = idx;
    match entries.get_mut(&token) {
        Some(UEntry::Conn(c)) => {
            c.out.lock().kill();
            if !c.closing {
                c.closing = true;
                // Wakes any parked recv (completes 0/ECONNRESET) and
                // send (EPIPE) so the in-flight count drains.
                let _ = c.stream.shutdown(Shutdown::Both);
            }
        }
        Some(UEntry::Listener {
            accept_armed,
            closing,
            ..
        }) if !*closing => {
            *closing = true;
            if *accept_armed {
                subs.push(sqe_cancel(K_ACCEPT | token));
            } else {
                entries.remove(&token);
            }
        }
        _ => {}
    }
}

/// Delivers `on_close` and drops the fd once a severed connection has
/// no in-flight CQEs left. No-op otherwise.
fn finalize_if_drained<H: ReactorHandler>(
    shared: &Arc<Shared<H>>,
    idx: usize,
    entries: &mut HashMap<u64, UEntry<H::Conn>>,
    token: u64,
) {
    let me = &shared.threads[idx];
    let done = matches!(
        entries.get(&token),
        Some(UEntry::Conn(c)) if c.closing && c.inflight() == 0
    );
    if done {
        if let Some(UEntry::Conn(mut c)) = entries.remove(&token) {
            let handle = c.handle(&me.shared);
            shared.handler.on_close(&mut c.state, &handle);
        }
    }
}

/// Reactor shutdown: sever everything, drain the kernel's outstanding
/// references (the pool and the chains must outlive every in-flight
/// op), then deliver `on_close` for each live connection and sweep the
/// pending/command queues exactly like the epoll loop's closing sweep.
fn teardown<H: ReactorHandler>(
    shared: &Arc<Shared<H>>,
    idx: usize,
    subs: &mut Subs,
    entries: &mut HashMap<u64, UEntry<H::Conn>>,
    pool: BufPool,
) {
    let me = &shared.threads[idx];
    let tokens: Vec<u64> = entries.keys().copied().collect();
    for token in tokens {
        match entries.get_mut(&token) {
            Some(UEntry::Conn(c)) => {
                c.out.lock().kill();
                if !c.closing {
                    c.closing = true;
                    let _ = c.stream.shutdown(Shutdown::Both);
                }
            }
            Some(UEntry::Listener {
                accept_armed,
                closing,
                ..
            }) if !*closing => {
                *closing = true;
                if *accept_armed {
                    subs.push(sqe_cancel(K_ACCEPT | token));
                }
            }
            _ => {}
        }
    }
    if subs.waker_armed {
        subs.push(sqe_cancel(K_WAKER));
    }
    // Drain until the kernel holds no reference into the pool, the
    // chains, or the fds. Shutdowns and cancels make every op
    // complete; the deadline is a backstop against kernel surprises.
    let deadline = Instant::now() + Duration::from_secs(5);
    while subs.inflight > 0 && Instant::now() < deadline {
        if subs.enter_and_wait().is_err() {
            break;
        }
        while let Some(cqe) = subs.pop() {
            // A multishot accept may still deliver fds mid-teardown;
            // they must be owned and closed, not leaked.
            if cqe.user_data & !TOKEN_MASK == K_ACCEPT && cqe.res >= 0 {
                drop(sys::stream_from_fd(cqe.res));
            }
        }
    }
    for (_, entry) in entries.drain() {
        if let UEntry::Conn(mut c) = entry {
            let handle = c.handle(&me.shared);
            shared.handler.on_close(&mut c.state, &handle);
        }
    }
    let swept: Vec<Pending<H::Conn>> =
        std::mem::take(&mut *me.pending.lock().unwrap_or_else(|e| e.into_inner()));
    for pending in swept {
        shared.discard_pending(idx, pending);
    }
    me.shared
        .cmds
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
    if subs.inflight > 0 {
        // The drain timed out: some op may still hold a pointer into
        // the pool. Leaking it is strictly better than letting the
        // kernel write into freed memory.
        std::mem::forget(pool);
    }
}

