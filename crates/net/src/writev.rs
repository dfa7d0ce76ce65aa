//! Pure arithmetic behind the vectored send-queue drains.
//!
//! The reactor drains queued frames with one vectored write —
//! [`write_ready`](crate::reactor) via `writev(2)`
//! ([`std::io::Write::write_vectored`]): many frames per syscall
//! instead of one. A vectored write may be *partial* at any
//! byte — mid-frame, mid-iovec, exactly on a boundary — so the
//! bookkeeping that turns "the kernel accepted `n` bytes" back into
//! "which frames are done, and how far into the next one are we" must
//! be exact. That arithmetic lives here, free of sockets and locks, so
//! the property tests can drive it through every possible split offset.
//!
//! The two halves:
//!
//! * [`plan_batch`] — how many frames (starting at the queue front,
//!   whose first `front_written` bytes are already on the wire) to
//!   offer the next `writev`, bounded by an iovec cap and a byte
//!   budget. At least one frame is always offered when the queue is
//!   non-empty, so a frame larger than the budget still drains (in
//!   budget-sized partial writes) rather than starving.
//! * [`settle`] — given the lengths of the offered frames, the
//!   pre-write cursor and the byte count the kernel accepted, how many
//!   frames completed and where the cursor now sits.

use bytes::Bytes;
use std::collections::VecDeque;

/// Most frames offered to one `writev`. Well under Linux's
/// `UIO_MAXIOV` (1024); past a few dozen iovecs the syscall
/// amortization has flattened and the per-flush clone cost (one
/// refcount bump per frame) starts to matter instead.
pub(crate) const MAX_WRITE_IOVECS: usize = 64;

/// How many frames from the front of `frames` the next vectored write
/// should carry, such that the *unwritten* bytes offered (the front
/// frame minus its `front_written` prefix, every later frame whole)
/// stay within `budget` — except that the first frame is always
/// included, and the frame that crosses the budget is included too
/// (partial-write resumption handles its tail). Returns 0 iff the
/// queue is empty.
pub(crate) fn plan_batch(frames: &VecDeque<Bytes>, front_written: usize, budget: usize) -> usize {
    let mut take = 0usize;
    let mut bytes = 0usize;
    for f in frames.iter().take(MAX_WRITE_IOVECS) {
        let remaining = if take == 0 {
            f.len() - front_written
        } else {
            f.len()
        };
        take += 1;
        bytes += remaining;
        if bytes >= budget {
            break;
        }
    }
    take
}

/// Settles the accounting after a vectored write accepted `written`
/// bytes of a batch whose frame lengths are `lens` (front first, its
/// first `front_written` bytes excluded from what was offered).
/// Returns `(completed, new_front_written)`: how many frames the write
/// finished, and the cursor into the first unfinished one. Zero-length
/// remainders count as completed even when `written == 0`.
pub(crate) fn settle(lens: &[usize], front_written: usize, written: usize) -> (usize, usize) {
    let mut left = written;
    let mut cursor = front_written;
    let mut completed = 0usize;
    for &len in lens {
        let remaining = len - cursor;
        if left >= remaining {
            left -= remaining;
            cursor = 0;
            completed += 1;
        } else {
            cursor += left;
            left = 0;
            break;
        }
    }
    debug_assert_eq!(left, 0, "kernel accepted more bytes than were offered");
    (completed, cursor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference drain: a queue of frames pushed through plan/settle
    /// with the kernel accepting an arbitrary byte count per call,
    /// collecting the bytes exactly as the iovec layout offers them.
    fn drain_with_splits(frames: &[Vec<u8>], splits: &[usize], budget: usize) -> Vec<u8> {
        let mut queue: VecDeque<Bytes> =
            frames.iter().map(|f| Bytes::from(f.clone())).collect();
        let mut front_written = 0usize;
        let mut wire = Vec::new();
        let mut split_iter = splits.iter().copied().chain(std::iter::repeat(usize::MAX));
        while !queue.is_empty() {
            let take = plan_batch(&queue, front_written, budget);
            assert!(take >= 1, "non-empty queue must offer at least one frame");
            assert!(take <= MAX_WRITE_IOVECS);
            let lens: Vec<usize> = queue.iter().take(take).map(|f| f.len()).collect();
            let offered: usize = lens.iter().sum::<usize>() - front_written;
            // The "kernel" accepts an arbitrary prefix of the offer.
            let accept = split_iter.next().unwrap().min(offered);
            // Copy the accepted bytes exactly as the iovec layout lays
            // them out: front frame from its cursor, later frames whole.
            let mut left = accept;
            for (i, f) in queue.iter().take(take).enumerate() {
                let start = if i == 0 { front_written } else { 0 };
                let n = left.min(f.len() - start);
                wire.extend_from_slice(&f[start..start + n]);
                left -= n;
                if left == 0 {
                    break;
                }
            }
            let (completed, new_front) = settle(&lens, front_written, accept);
            for _ in 0..completed {
                queue.pop_front();
            }
            front_written = new_front;
            if accept == 0 && offered > 0 {
                // A real drain treats this as a dead socket; the
                // reference drain just moves to the next split.
                continue;
            }
        }
        assert_eq!(front_written, 0, "drained queue must leave no cursor");
        wire
    }

    fn concat(frames: &[Vec<u8>]) -> Vec<u8> {
        frames.iter().flat_map(|f| f.iter().copied()).collect()
    }

    #[test]
    fn every_split_offset_of_a_small_batch() {
        // Three frames, every single split point of the total byte
        // count, including 0 and the exact frame boundaries.
        let frames = vec![vec![1u8; 5], vec![2u8; 1], vec![3u8; 7]];
        let total: usize = frames.iter().map(Vec::len).sum();
        for first in 0..=total {
            let wire = drain_with_splits(&frames, &[first], usize::MAX);
            assert_eq!(wire, concat(&frames), "split at offset {first}");
        }
        // And one byte at a time — thirteen one-byte "kernel" accepts.
        let dribble: Vec<usize> = vec![1; total];
        assert_eq!(drain_with_splits(&frames, &dribble, usize::MAX), concat(&frames));
    }

    #[test]
    fn empty_frames_complete_without_bytes() {
        let frames = vec![vec![], vec![9u8; 3], vec![]];
        assert_eq!(drain_with_splits(&frames, &[0, 1, 1, 1], usize::MAX), concat(&frames));
    }

    #[test]
    fn plan_always_offers_the_oversized_front() {
        let mut q = VecDeque::new();
        q.push_back(Bytes::from(vec![0u8; 1000]));
        q.push_back(Bytes::from(vec![0u8; 10]));
        // Budget smaller than the front frame: exactly one frame offered.
        assert_eq!(plan_batch(&q, 0, 64), 1);
        // A cursor deep into the front shrinks its remainder below the
        // budget, letting the next frame join the batch.
        assert_eq!(plan_batch(&q, 950, 64), 2);
        assert_eq!(plan_batch(&VecDeque::new(), 0, 64), 0);
    }

    proptest! {
        /// Any frame sequence, drained under any budget with the kernel
        /// accepting arbitrary byte counts per writev, produces exactly
        /// the concatenated byte stream — so a receiver's decoder sees
        /// the identical frame sequence.
        #[test]
        fn arbitrary_splits_reassemble_exactly(
            frames in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..96), 1..12),
            splits in proptest::collection::vec(1usize..64, 1..64),
            budget in 1usize..256,
        ) {
            let wire = drain_with_splits(&frames, &splits, budget);
            prop_assert_eq!(wire, concat(&frames));
        }
    }
}
