//! The external consistency oracle, shared between the synchronous-pump
//! invariant tests (`causal_invariants.rs`) and the live-cluster
//! transport tests (`tcp_cluster.rs`).
//!
//! The oracle tracks, for every committed transaction, its write-set and
//! its causal dependencies (values it read + its session predecessor) and
//! checks that whenever a snapshot reveals a transaction T, it also
//! reveals (at least) everything T causally depends on — the paper's
//! §II-C definition of a causal snapshot — plus atomic visibility and
//! the per-session guarantees (read-your-writes, monotonic reads).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use wren::clock::Timestamp;
use wren::protocol::Key;

/// A transaction's identity in the oracle: `(client id, session seq)`,
/// exactly what [`marker`](super::marker) encodes into written values.
pub type Marker = (u32, u32);

/// LWW order key of a transaction's writes: `(ct, dc, tie-break)`. The
/// store breaks `(ct, dc)` ties by `TxId::raw`, which a test that reads
/// the stores can supply; [`SessionOracle::record_commit`] uses the
/// client id, which only matters where two transactions of one DC can
/// share a commit timestamp (hybrid clocks running on their logical
/// counter — never under the wall-clock-driven drivers).
pub type Order = (Timestamp, u8, u64);

/// Oracle record for one committed transaction.
#[derive(Debug, Clone)]
pub struct TxRecord {
    /// LWW order key of this transaction's writes.
    pub order: Order,
    /// Keys written.
    pub writes: Vec<Key>,
    /// Direct causal dependencies (other committed markers).
    pub deps: Vec<Marker>,
}

/// Per key, the LWW-newest write anywhere in one transaction's causal
/// past (itself included), and the transaction that made it.
type PastHigh = HashMap<Key, (Order, Marker)>;

/// The oracle: every committed transaction by its marker.
#[derive(Default)]
pub struct Oracle {
    pub txs: HashMap<Marker, TxRecord>,
    /// [`PastHigh`] of every transaction whose causal past has been
    /// asked for, is wholly recorded and is acyclic. A record is never
    /// changed once inserted, so an entry never goes stale.
    past_high: RefCell<HashMap<Marker, Rc<PastHigh>>>,
}

#[allow(dead_code)]
impl Oracle {
    /// All transitive dependencies of `m`, including itself.
    pub fn causal_past(&self, m: Marker) -> HashSet<Marker> {
        let mut past = HashSet::new();
        let mut stack = vec![m];
        while let Some(cur) = stack.pop() {
            if past.insert(cur) {
                if let Some(rec) = self.txs.get(&cur) {
                    stack.extend(rec.deps.iter().copied());
                }
            }
        }
        past
    }

    /// Folds `(order, by)` into `high`'s entry for `k`, keeping the newer.
    fn raise(high: &mut PastHigh, k: Key, order: Order, by: Marker) {
        let e = high.entry(k).or_insert((order, by));
        if order > e.0 {
            *e = (order, by);
        }
    }

    /// [`PastHigh`] of `m`: each transaction's is its own writes folded
    /// with its dependencies', built once, dependencies first — so a
    /// history costs O(dependency edges × keys) however often its
    /// transactions are observed, where walking every observed writer's
    /// whole past costs O(snapshots × past). A past with an unrecorded
    /// dependency or a cycle (both impossible in a correct history) is
    /// walked in full and not remembered.
    fn past_high(&self, m: Marker) -> Rc<PastHigh> {
        if let Some(high) = self.memoized_past_high(m) {
            return high;
        }
        let mut high = PastHigh::new();
        for dep in self.causal_past(m) {
            if let Some(rec) = self.txs.get(&dep) {
                for k in &rec.writes {
                    Self::raise(&mut high, *k, rec.order, dep);
                }
            }
        }
        Rc::new(high)
    }

    /// Depth-first, dependencies before dependents; `None` on an
    /// unrecorded dependency or a cycle. Everything finished before such
    /// a stop had a complete, acyclic past and stays memoized.
    fn memoized_past_high(&self, m: Marker) -> Option<Rc<PastHigh>> {
        let mut memo = self.past_high.borrow_mut();
        // Expanded: meeting one of these again before it is memoized
        // means a dependency cycle.
        let mut open: HashSet<Marker> = HashSet::new();
        let mut stack = vec![(m, false)];
        while let Some((cur, deps_done)) = stack.pop() {
            let rec = self.txs.get(&cur)?;
            if deps_done {
                let mut high = PastHigh::new();
                for k in &rec.writes {
                    Self::raise(&mut high, *k, rec.order, cur);
                }
                for dep in &rec.deps {
                    for (k, (order, by)) in memo[dep].iter() {
                        Self::raise(&mut high, *k, *order, *by);
                    }
                }
                memo.insert(cur, Rc::new(high));
            } else if !memo.contains_key(&cur) {
                if !open.insert(cur) {
                    return None;
                }
                stack.push((cur, true));
                stack.extend(
                    rec.deps
                        .iter()
                        .filter(|d| !memo.contains_key(*d))
                        .map(|d| (*d, false)),
                );
            }
        }
        Some(Rc::clone(&memo[&m]))
    }

    /// Asserts that one transaction's reads form a causal snapshot.
    ///
    /// For every observed writer W and every transaction X in W's causal
    /// past that wrote a key `k` this transaction also read: the observed
    /// version of `k` must be X's write or something LWW-newer. (If the
    /// read returned `None`, X must not exist.) Checked against the
    /// LWW-newest such X per key, which fails exactly when some X does.
    pub fn check_causal_snapshot(&self, observed: &[(Key, Option<Marker>)]) {
        for (_, seen) in observed {
            let Some(writer) = seen else { continue };
            let high = self.past_high(*writer);
            for (k, seen_for_k) in observed {
                let Some((dep_order, dep)) = high.get(k) else {
                    continue; // nothing in the writer's past wrote k
                };
                match seen_for_k {
                    None => panic!(
                        "causal violation: snapshot shows {writer:?} but read of \
                         {k:?} returned nothing, despite dependency {dep:?} writing it"
                    ),
                    Some(seen_writer) => {
                        let seen_order = self.txs[seen_writer].order;
                        assert!(
                            seen_order >= *dep_order,
                            "causal violation: snapshot shows {writer:?} (which \
                             depends on {dep:?} writing {k:?} at {dep_order:?}) but the \
                             read of {k:?} returned the older {seen_writer:?} at \
                             {seen_order:?}"
                        );
                    }
                }
            }
        }
    }

    /// Asserts atomic visibility: if the snapshot shows writer W for key
    /// k, then for every other key k2 ∈ W.writes that was also read, the
    /// observed version is W's or LWW-newer.
    pub fn check_atomicity(&self, observed: &[(Key, Option<Marker>)]) {
        let observed_map: HashMap<Key, Option<Marker>> = observed.iter().cloned().collect();
        for (_, seen) in observed {
            let Some(writer) = seen else { continue };
            let rec = &self.txs[writer];
            for k2 in &rec.writes {
                if let Some(seen2) = observed_map.get(k2) {
                    match seen2 {
                        None => panic!(
                            "atomicity violation: {writer:?} visible on one key but \
                             its write of {k2:?} is absent"
                        ),
                        Some(w2) => assert!(
                            self.txs[w2].order >= rec.order,
                            "atomicity violation: {writer:?} visible but {k2:?} shows \
                             older {w2:?}"
                        ),
                    }
                }
            }
        }
    }
}

/// One client session's state for the oracle.
#[allow(dead_code)] // each test binary uses a different subset
pub struct SessionOracle {
    /// Last committed marker of this session (session order dependency).
    pub last_commit: Option<Marker>,
    /// Everything this session has observed (for read dependencies).
    pub observed: Vec<Marker>,
    /// Per key: the newest order key this session has ever observed
    /// (monotonic reads check).
    pub high_water: HashMap<Key, Order>,
    /// Per key: this session's own latest write (read-your-writes check).
    pub own_writes: HashMap<Key, Marker>,
    /// Next sequence number for this session's markers.
    pub seq: u32,
}

#[allow(dead_code)]
impl SessionOracle {
    pub fn new() -> SessionOracle {
        SessionOracle {
            last_commit: None,
            observed: Vec::new(),
            high_water: HashMap::new(),
            own_writes: HashMap::new(),
            seq: 0,
        }
    }

    /// Checks one read snapshot against the causal + atomicity oracle
    /// and this session's guarantees (read-your-writes, monotonic
    /// reads), then folds the observations into the session state.
    pub fn observe(&mut self, oracle: &Oracle, observed: &[(Key, Option<Marker>)]) {
        oracle.check_causal_snapshot(observed);
        oracle.check_atomicity(observed);

        for (k, seen) in observed {
            // Read-your-writes: must observe own write or newer.
            if let Some(own) = self.own_writes.get(k) {
                match seen {
                    None => panic!("read-your-writes violated: own write of {k:?} lost"),
                    Some(w) => {
                        let own_order = oracle.txs[own].order;
                        assert!(
                            oracle.txs[w].order >= own_order,
                            "read-your-writes violated on {k:?}: saw {w:?}, own {own:?}"
                        );
                    }
                }
            }
            // Monotonic reads per key.
            if let Some(w) = seen {
                let order = oracle.txs[w].order;
                if let Some(high) = self.high_water.get(k) {
                    assert!(
                        order >= *high,
                        "monotonic reads violated on {k:?}: {order:?} < {high:?}"
                    );
                }
                self.high_water.insert(*k, order);
                self.observed.push(*w);
            }
        }
    }

    /// Records this session's committed update transaction `me` in the
    /// oracle: its LWW order, its write-set, and its direct causal
    /// dependencies (everything observed so far + the session
    /// predecessor).
    pub fn record_commit(
        &mut self,
        oracle: &mut Oracle,
        me: Marker,
        ct: Timestamp,
        dc: u8,
        writes: Vec<Key>,
    ) {
        assert!(!ct.is_zero(), "update transaction must get a timestamp");
        let mut deps: Vec<Marker> = self.observed.clone();
        if let Some(prev) = self.last_commit {
            deps.push(prev);
        }
        deps.sort_unstable();
        deps.dedup();
        for k in &writes {
            self.own_writes.insert(*k, me);
        }
        oracle.txs.insert(
            me,
            TxRecord {
                order: (ct, dc, u64::from(me.0)),
                writes,
                deps,
            },
        );
        self.last_commit = Some(me);
    }
}

impl Default for SessionOracle {
    fn default() -> Self {
        SessionOracle::new()
    }
}
