use crate::SnapshotBound;
use wren_clock::Timestamp;

/// The last-writer-wins order key: `(commit timestamp, origin DC id,
/// transaction id)`. Higher keys win.
pub type OrderKey = (Timestamp, u8, u64);

/// What the storage layer needs from a version: a total order for
/// last-writer-wins conflict resolution, plus the remote dependency time
/// used by BiST snapshot bounds.
///
/// The order key is `(commit timestamp, origin DC id, transaction id)` —
/// the paper resolves concurrent conflicting writes by update timestamp,
/// with ties settled by the originating DC and transaction identifier
/// (§II-C).
pub trait Versioned {
    /// The last-writer-wins order key. Higher keys win.
    ///
    /// A [`VersionChain`] stores bare versions and calls this at every
    /// comparison instead of keeping a copy of the key beside each one,
    /// so an implementation must be **O(1) field reads, pure, and fixed
    /// for the version's lifetime**: a key that changed after insertion
    /// would silently break the chain's sort order.
    fn order_key(&self) -> OrderKey;

    /// The version's remote dependency time, consulted by
    /// [`SnapshotBound::bist`] bounds. Version types without one (e.g.
    /// Cure's vector-tagged items) keep the default of zero, which every
    /// bound admits.
    #[inline]
    fn remote_dep(&self) -> Timestamp {
        Timestamp::ZERO
    }
}

/// The version chain of a single key.
///
/// # Ordering invariant
///
/// Versions are stored **oldest-first, sorted ascending by the LWW order
/// key**, which every comparison reads from the version itself
/// ([`Versioned::order_key`]) — an entry is the version and nothing
/// else. Two consequences:
///
/// * **inserts are O(1)** in the common case — versions are applied in
///   increasing commit-timestamp order, so the newcomer's key usually
///   exceeds the current maximum and is pushed at the tail (a single key
///   comparison); out-of-order remote deliveries binary-search their slot;
/// * **reads are O(log n)**: a [`SnapshotBound`]'s ceiling cuts the chain
///   at a key prefix via `partition_point`, and the bound's per-origin
///   refinement only runs on versions at or below the ceiling, scanning
///   down from the newest candidate.
///
/// The public iteration order remains newest-first (the LWW winner
/// first), matching what readers and tests expect.
///
/// # Layout: a chain costs what it holds
///
/// A chain is in one of three states — empty, **one version held
/// inline** (no allocation: the version lives wherever the chain does,
/// i.e. in its map slot), or **two or more in a `Vec`**. Every read path
/// goes through one `&[V]` view and cannot tell them apart; only
/// `insert` / `apply_batch` / `insert_if_new` (which promote inline →
/// `Vec` on the second version, ordinary doubling from there) and
/// [`collect`](VersionChain::collect) (which demotes back to inline when
/// one version is left, and otherwise shrinks a `Vec` whose length fell
/// to a quarter of its capacity) know the states exist. "Is in the `Vec`
/// state" is exactly "holds ≥ 2 versions", the only chains GC can
/// shorten — [`MvStore`](crate::MvStore) builds its GC work list on
/// that. `docs/storage_layout.md` has the byte budget.
#[derive(Clone, Debug)]
pub struct VersionChain<V> {
    state: State<V>,
}

/// Oldest-first, ascending by order key. `Many` always holds ≥ 2
/// versions: [`State::from`] is the only way a `Vec` becomes a state.
#[derive(Clone, Debug)]
enum State<V> {
    Empty,
    One(V),
    Many(Vec<V>),
}

impl<V> From<Vec<V>> for State<V> {
    fn from(mut versions: Vec<V>) -> Self {
        match versions.len() {
            0 => State::Empty,
            1 => State::One(versions.pop().expect("len checked")),
            _ => State::Many(versions),
        }
    }
}

impl<V> Default for VersionChain<V> {
    fn default() -> Self {
        VersionChain {
            state: State::Empty,
        }
    }
}

/// The newest version of `versions` (sorted ascending) that `bound`
/// admits, with its index: binary search to the bound's
/// commit-timestamp ceiling, then the per-origin refinement downward
/// from the newest candidate (versions above the ceiling can never be
/// admitted).
fn newest_admitted<'a, V: Versioned>(
    versions: &'a [V],
    bound: &SnapshotBound<'_>,
) -> Option<(usize, &'a V)> {
    let ceiling = bound.ceiling();
    let below = versions.partition_point(|v| v.order_key().0 <= ceiling);
    versions[..below]
        .iter()
        .enumerate()
        .rfind(|(_, v)| bound.admits(&v.order_key(), v.remote_dep()))
}

impl<V: Versioned> VersionChain<V> {
    /// Creates an empty chain.
    pub fn new() -> Self {
        VersionChain::default()
    }

    /// The versions, oldest first, whatever state holds them.
    fn as_slice(&self) -> &[V] {
        match &self.state {
            State::Empty => &[],
            State::One(v) => std::slice::from_ref(v),
            State::Many(versions) => versions,
        }
    }

    /// Runs `f` on the chain's versions as a `Vec` with room for `extra`
    /// more, then stores whatever state the result's length calls for.
    fn with_vec<R>(&mut self, extra: usize, f: impl FnOnce(&mut Vec<V>) -> R) -> R {
        let mut versions = match std::mem::replace(&mut self.state, State::Empty) {
            State::Empty => Vec::with_capacity(extra),
            State::One(v) => {
                let mut versions = Vec::with_capacity(1 + extra);
                versions.push(v);
                versions
            }
            State::Many(versions) => versions,
        };
        let r = f(&mut versions);
        self.state = State::from(versions);
        r
    }

    /// Number of versions currently retained.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the chain holds no versions.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Slots of `V` the chain has allocated on the heap (0 while it is
    /// empty or holds its one version inline).
    pub(crate) fn heap_slots(&self) -> usize {
        match &self.state {
            State::Many(versions) => versions.capacity(),
            _ => 0,
        }
    }

    /// Inserts a version at its last-writer-wins position.
    ///
    /// The fast path (in-order commit, the overwhelmingly common case) is
    /// a single key comparison followed by a tail push; only out-of-order
    /// deliveries pay the binary search.
    pub fn insert(&mut self, v: V) {
        if self.is_empty() {
            self.state = State::One(v);
            return;
        }
        self.with_vec(1, |versions| {
            let key = v.order_key();
            match versions.last() {
                Some(tail) if key < tail.order_key() => {
                    let pos = versions.partition_point(|e| e.order_key() <= key);
                    versions.insert(pos, v);
                }
                _ => versions.push(v),
            }
        });
    }

    /// Splices a **sorted run** of versions into the chain with a single
    /// binary search and at most one bulk shift.
    ///
    /// `run` must be sorted ascending by the LWW order key; it is drained
    /// (capacity is kept, so callers can reuse the buffer). The intended
    /// caller is replication apply: every version of a replication batch
    /// shares one commit timestamp, so all of a key's versions land at one
    /// splice point and the batched form turns `N × O(log n + shift)`
    /// one-at-a-time inserts into `O(log n + N)` plus a single shift.
    ///
    /// Out-of-run interleavings are still correct: if existing entries
    /// fall strictly between the run's first and last keys (possible only
    /// on commit-timestamp ties with a different origin DC or transaction
    /// id), the overlapping region is re-sorted after the splice.
    pub fn apply_batch(&mut self, run: &mut Vec<V>) {
        match run.len() {
            0 => return,
            1 => {
                let v = run.pop().expect("len checked");
                self.insert(v);
                return;
            }
            _ => {}
        }
        let first = run[0].order_key();
        let last = run[run.len() - 1].order_key();
        debug_assert!(
            run.windows(2).all(|w| w[0].order_key() <= w[1].order_key()),
            "apply_batch run must be sorted ascending by order key"
        );
        self.with_vec(run.len(), |versions| {
            // Fast path: the whole run is newer than the tail (in-order
            // replication, the common case) — a bulk append.
            if versions.last().is_none_or(|tail| first > tail.order_key()) {
                versions.append(run);
                return;
            }
            let lo = versions.partition_point(|e| e.order_key() <= first);
            let hi = versions.partition_point(|e| e.order_key() <= last);
            let run_len = run.len();
            versions.splice(lo..lo, run.drain(..));
            if lo != hi {
                // Existing entries with keys inside (first, last] were pushed
                // behind the run by the splice; restore order locally.
                versions[lo..hi + run_len].sort_unstable_by_key(Versioned::order_key);
            }
        });
    }

    /// Inserts a version only if no version with the same order key is
    /// already present. Returns whether the insert happened.
    ///
    /// This is the **replay-idempotence** primitive: WAL recovery may
    /// re-apply a replication batch the pre-crash process had already
    /// applied (or a second crash may replay a record twice), and the
    /// order key `(ct, origin DC, tx)` uniquely identifies a write, so
    /// "same key ⇒ same version" makes re-application a no-op.
    pub fn insert_if_new(&mut self, v: V) -> bool {
        let key = v.order_key();
        let versions = self.as_slice();
        let pos = versions.partition_point(|e| e.order_key() < key);
        if versions.get(pos).is_some_and(|e| e.order_key() == key) {
            return false;
        }
        self.insert(v);
        true
    }

    /// The newest version inside `bound`, i.e. the version a transaction
    /// with that snapshot must read under last-writer-wins.
    ///
    /// Binary-searches to the bound's commit-timestamp ceiling, then
    /// applies the bound's per-origin refinement downward from the newest
    /// candidate (versions above the ceiling can never be admitted).
    pub fn latest_visible(&self, bound: &SnapshotBound<'_>) -> Option<&V> {
        newest_admitted(self.as_slice(), bound).map(|(_, v)| v)
    }

    /// The newest version outright (what a causally-unconstrained reader
    /// would see).
    pub fn newest(&self) -> Option<&V> {
        self.as_slice().last()
    }

    /// Iterates newest to oldest.
    pub fn iter(&self) -> impl Iterator<Item = &V> {
        self.as_slice().iter().rev()
    }

    /// Garbage-collects versions that no active or future snapshot can
    /// read.
    ///
    /// `oldest_snapshot` must be the bound of the oldest snapshot still
    /// visible to any running transaction (the aggregate minimum the
    /// partitions gossip, §IV-B "Garbage collection"). The chain keeps
    /// every version newer than the newest visible one, plus that version
    /// itself, and drops the rest — exactly the paper's rule ("keep all
    /// the versions up to and including the oldest one within S_old").
    ///
    /// Chains of length ≤ 1 return immediately: the rule always retains
    /// the newest version, so there is nothing to drop. A chain left with
    /// one version gives its allocation back and holds the survivor
    /// inline; one left with at most a quarter of its capacity in use
    /// shrinks to twice its length, so a burst of versions on a hot key
    /// is paid for only while it lasts.
    ///
    /// Returns the number of versions removed.
    pub fn collect(&mut self, oldest_snapshot: &SnapshotBound<'_>) -> usize {
        // The newest visible version stays, with everything newer; the
        // `idx` older ones go. With no version visible at the oldest
        // snapshot, all of them may still become visible: keep them all.
        let idx = match newest_admitted(self.as_slice(), oldest_snapshot) {
            None | Some((0, _)) => return 0,
            Some((idx, _)) => idx,
        };
        self.with_vec(0, |versions| {
            versions.drain(..idx);
            // (A lone survivor moves inline and frees the `Vec` outright.)
            if versions.len() > 1 && versions.len() <= versions.capacity() / 4 {
                versions.shrink_to(2 * versions.len());
            }
        });
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct V {
        ct: u64,
        sr: u8,
        tx: u64,
        tag: &'static str,
    }

    impl Versioned for V {
        fn order_key(&self) -> OrderKey {
            (Timestamp::from_micros(self.ct), self.sr, self.tx)
        }
    }

    fn v(ct: u64, tag: &'static str) -> V {
        V {
            ct,
            sr: 0,
            tx: 0,
            tag,
        }
    }

    fn at_most(ct: u64) -> SnapshotBound<'static> {
        SnapshotBound::at_most(Timestamp::from_micros(ct))
    }

    #[test]
    fn insert_keeps_newest_first() {
        let mut c = VersionChain::new();
        c.insert(v(10, "a"));
        c.insert(v(30, "c"));
        c.insert(v(20, "b"));
        let tags: Vec<_> = c.iter().map(|x| x.tag).collect();
        assert_eq!(tags, vec!["c", "b", "a"]);
        assert_eq!(c.newest().unwrap().tag, "c");
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn lww_tie_break_on_dc_then_tx() {
        let mut c = VersionChain::new();
        c.insert(V { ct: 10, sr: 0, tx: 5, tag: "low-dc" });
        c.insert(V { ct: 10, sr: 1, tx: 1, tag: "high-dc" });
        assert_eq!(c.newest().unwrap().tag, "high-dc");
        let mut c2 = VersionChain::new();
        c2.insert(V { ct: 10, sr: 0, tx: 5, tag: "tx5" });
        c2.insert(V { ct: 10, sr: 0, tx: 9, tag: "tx9" });
        assert_eq!(c2.newest().unwrap().tag, "tx9");
    }

    #[test]
    fn latest_visible_respects_snapshot() {
        let mut c = VersionChain::new();
        c.insert(v(10, "a"));
        c.insert(v(20, "b"));
        c.insert(v(30, "c"));
        let seen = c.latest_visible(&at_most(25));
        assert_eq!(seen.unwrap().tag, "b");
        assert!(c.latest_visible(&at_most(5)).is_none());
    }

    #[test]
    fn bist_bound_skips_origin_mismatched_versions() {
        // Remote version (sr=1) above rt sits newer than a visible local
        // one: the refinement must step past it, not give up at the
        // ceiling.
        let mut c = VersionChain::new();
        c.insert(V { ct: 40, sr: 0, tx: 0, tag: "local-old" });
        c.insert(V { ct: 50, sr: 1, tx: 0, tag: "remote-too-new" });
        c.insert(V { ct: 60, sr: 0, tx: 0, tag: "local-new" });
        // Ceiling is lt = 55, so ct = 50 sits below it and the downward
        // refinement must reject it via admits() (remote rule: ut ≤ rt =
        // 45 fails) and continue to the older local version.
        let bound = SnapshotBound::bist(
            0,
            Timestamp::from_micros(55),
            Timestamp::from_micros(45),
        );
        assert_eq!(c.latest_visible(&bound).unwrap().tag, "local-old");
    }

    #[test]
    fn collect_keeps_newest_visible_and_newer() {
        let mut c = VersionChain::new();
        for (ct, tag) in [(10, "a"), (20, "b"), (30, "c"), (40, "d")] {
            c.insert(v(ct, tag));
        }
        // Oldest active snapshot sees ct ≤ 25: keep b (newest visible), c, d.
        let removed = c.collect(&at_most(25));
        assert_eq!(removed, 1);
        let tags: Vec<_> = c.iter().map(|x| x.tag).collect();
        assert_eq!(tags, vec!["d", "c", "b"]);
    }

    #[test]
    fn collect_keeps_everything_when_nothing_visible() {
        let mut c = VersionChain::new();
        c.insert(v(10, "a"));
        c.insert(v(20, "b"));
        assert_eq!(c.collect(&at_most(5)), 0);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn collect_early_outs_on_short_chains() {
        let mut c = VersionChain::new();
        assert_eq!(c.collect(&SnapshotBound::all()), 0);
        c.insert(v(10, "only"));
        assert_eq!(c.collect(&SnapshotBound::all()), 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn one_version_is_held_inline_and_a_burst_is_paid_for_only_while_it_lasts() {
        let mut c = VersionChain::new();
        c.insert(v(10, "a"));
        assert_eq!((c.len(), c.heap_slots()), (1, 0), "one version: no allocation");
        // Promotion on the second version, whichever mutator brings it
        // and wherever it sorts.
        let mut second = c.clone();
        second.insert(v(5, "older"));
        assert_eq!((second.len(), second.heap_slots()), (2, 2));
        let mut second = c.clone();
        assert!(second.insert_if_new(v(20, "newer")));
        assert_eq!((second.len(), second.heap_slots()), (2, 2));
        assert!(!c.insert_if_new(v(10, "dup")), "a duplicate leaves it inline");
        assert_eq!(c.heap_slots(), 0);
        c.apply_batch(&mut vec![v(20, "b"), v(30, "c")]);
        assert_eq!((c.len(), c.heap_slots()), (3, 3));
        // A burst: ordinary doubling.
        for ct in 4..=64 {
            c.insert(v(ct * 10, "burst"));
        }
        assert_eq!((c.len(), c.heap_slots()), (64, 96));
        // 64 → 40 versions: still above a quarter of the capacity.
        assert_eq!(c.collect(&at_most(250)), 24);
        assert_eq!((c.len(), c.heap_slots()), (40, 96));
        // 40 → 8: shrinks to twice what is left.
        assert_eq!(c.collect(&at_most(570)), 32);
        assert_eq!((c.len(), c.heap_slots()), (8, 16));
        // 8 → 1: back inline, allocation returned.
        assert_eq!(c.collect(&SnapshotBound::all()), 7);
        assert_eq!((c.len(), c.heap_slots()), (1, 0));
        assert_eq!(c.newest().unwrap().ct, 640);
        assert_eq!(c.latest_visible(&at_most(640)).unwrap().ct, 640);
        assert!(c.latest_visible(&at_most(639)).is_none());
    }

    #[test]
    fn insert_if_new_deduplicates_on_order_key() {
        let mut c = VersionChain::new();
        assert!(c.insert_if_new(V { ct: 10, sr: 1, tx: 3, tag: "first" }));
        assert!(!c.insert_if_new(V { ct: 10, sr: 1, tx: 3, tag: "dup" }));
        assert!(c.insert_if_new(V { ct: 10, sr: 1, tx: 4, tag: "other-tx" }));
        assert!(c.insert_if_new(V { ct: 5, sr: 0, tx: 0, tag: "older" }));
        assert_eq!(c.len(), 3);
        let tags: Vec<_> = c.iter().map(|x| x.tag).collect();
        assert_eq!(tags, vec!["other-tx", "first", "older"]);
    }

    #[test]
    fn empty_chain_behaves() {
        let c: VersionChain<V> = VersionChain::new();
        assert!(c.is_empty());
        assert!(c.newest().is_none());
        assert!(c.latest_visible(&SnapshotBound::all()).is_none());
    }
}
