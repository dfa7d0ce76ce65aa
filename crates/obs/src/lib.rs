//! Lock-free observability for the Wren reproduction.
//!
//! The crate is layered **record → snapshot → exposition**, and each
//! layer is allowed to cost more than the one below it:
//!
//! 1. **Record** — [`Counter`], [`Gauge`] and [`Histogram`] are thin
//!    handles over shared atomics. Recording is a handful of `Relaxed`
//!    atomic RMWs with no locks, no allocation and no branches on the
//!    hot path, so instrumentation can sit inside the commit path, the
//!    read slice path and the fabric's event loops at near-zero cost when
//!    nobody is looking. Handles are `Clone` and can be hoisted out of
//!    loops; every clone writes to the same cells.
//! 2. **Snapshot** — a [`Registry`] names the live metrics and
//!    [`Registry::snapshot`] freezes them into a [`MetricsSnapshot`]:
//!    plain sorted maps of numbers, safe to hold, [`MetricsSnapshot::merge`]
//!    across threads/partitions (counters add, gauges take the max,
//!    histograms add bucket-wise) and [`MetricsSnapshot::diff`] against
//!    an earlier snapshot for rate logging. Snapshots tear benignly:
//!    each cell is read atomically but the set is not a consistent cut —
//!    fine for monitoring, by design.
//! 3. **Exposition** — [`MetricsSnapshot::render_prometheus`] produces
//!    a Prometheus-style text page, and [`HistogramSnapshot::quantile`]
//!    answers p50/p99/p999/mean/max queries for harness tables.
//!
//! The histogram is HDR-style log-linear: values below 64 are exact,
//! and every octave above is split into 64 linear sub-buckets, bounding
//! the relative quantile error at 1/64 (< 2%) across the full `u64`
//! range with a fixed 3776-bucket table (~30 KiB per histogram).
//!
//! [`TraceRing`] is the odd one out: not a metric but a bounded ring of
//! typed events (the tx-lifecycle trace), cheap enough to feed from the
//! protocol hot path and dumped only when a human — or a failing chaos
//! oracle — asks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------

/// A monotonically increasing event count. Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh counter at zero (unregistered; see [`Registry::counter`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Relaxed)
    }
}

// ---------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------

/// A last-written-value (or high-water) cell. Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// A fresh gauge at zero (unregistered; see [`Registry::gauge`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.cell.store(v, Relaxed);
    }

    /// Raises the value to `v` if larger (high-water tracking).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.cell.fetch_max(v, Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Relaxed)
    }
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

/// Sub-bucket resolution: 2^6 = 64 linear buckets per octave, so the
/// bucket width in the octave `[2^m, 2^{m+1})` is `2^{m-6}` and the
/// worst-case relative error of any reported quantile is 1/64.
const SUB_BITS: u32 = 6;
const SUBS: usize = 1 << SUB_BITS; // 64
/// Values `< 64` get an exact bucket each; octaves m = 6..=63 add 64
/// buckets apiece: 64 + 58·64 = 3776.
const N_BUCKETS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// Maps a value to its bucket index. Total order preserving.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // ≥ SUB_BITS
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) as usize) & (SUBS - 1);
    SUBS + (msb - SUB_BITS) as usize * SUBS + sub
}

/// The inclusive upper bound of a bucket — what quantile queries report,
/// so reported quantiles never under-estimate by more than one bucket.
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUBS {
        return idx as u64;
    }
    let octave = (idx - SUBS) / SUBS; // msb - SUB_BITS
    let sub = ((idx - SUBS) % SUBS) as u64;
    let width = 1u64 << octave;
    (SUBS as u64 + sub + 1).wrapping_mul(width).wrapping_sub(1)
}

#[derive(Debug)]
struct HistCells {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; N_BUCKETS],
}

/// A mergeable, lock-free log-linear latency/size histogram.
///
/// [`Histogram::record`] is the hot path: four `Relaxed` atomic RMWs
/// (count, sum, max, bucket), no locks, no allocation — benched by
/// `hist_record` in `wren-bench`. Cloning shares the cells, so a handle
/// can live on every thread that measures the same quantity.
#[derive(Clone, Debug)]
pub struct Histogram {
    cells: Arc<HistCells>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram (unregistered; see [`Registry::histogram`]).
    pub fn new() -> Self {
        Histogram {
            cells: Arc::new(HistCells {
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
                buckets: [const { AtomicU64::new(0) }; N_BUCKETS],
            }),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let c = &*self.cells;
        c.count.fetch_add(1, Relaxed);
        c.sum.fetch_add(v, Relaxed);
        c.max.fetch_max(v, Relaxed);
        c.buckets[bucket_index(v)].fetch_add(1, Relaxed);
    }

    /// Number of recorded observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.cells.count.load(Relaxed)
    }

    /// Freezes the current contents (sparse: only non-empty buckets).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &*self.cells;
        let mut buckets = Vec::new();
        for (i, b) in c.buckets.iter().enumerate() {
            let n = b.load(Relaxed);
            if n > 0 {
                buckets.push((i as u32, n));
            }
        }
        HistogramSnapshot {
            count: c.count.load(Relaxed),
            sum: c.sum.load(Relaxed),
            max: c.max.load(Relaxed),
            buckets,
        }
    }
}

/// A frozen histogram: plain numbers, safe to merge, diff and query.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observations (mean = sum / count).
    pub sum: u64,
    /// Largest observation (exact, not bucketed).
    pub max: u64,
    /// Sparse `(bucket index, count)` pairs, ascending by index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// The value at quantile `q` in `[0, 1]`: the inclusive upper bound
    /// of the bucket holding the ⌈q·count⌉-th smallest observation
    /// (clamped to [`max`](Self::max)), or 0 when empty. Error is at
    /// most one bucket width (≤ 1/64 relative).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_upper(idx as usize).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`quantile`](Self::quantile)).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds `other` into `self` bucket-wise. Merging is associative
    /// and commutative, so per-thread histograms aggregate in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        // Wrapping on purpose: `record` accumulates the sum with a
        // wrapping `fetch_add`, so merged and single-histogram sums
        // agree even if a pathological stream wraps.
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (self.buckets.iter().peekable(), other.buckets.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, na)), Some(&&(ib, nb))) => {
                    if ia < ib {
                        merged.push((ia, na));
                        a.next();
                    } else if ib < ia {
                        merged.push((ib, nb));
                        b.next();
                    } else {
                        merged.push((ia, na + nb));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
    }

    /// The observations recorded since `earlier` (bucket-wise saturating
    /// subtraction; `max` keeps the lifetime maximum).
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let before: BTreeMap<u32, u64> = earlier.buckets.iter().copied().collect();
        let buckets: Vec<(u32, u64)> = self
            .buckets
            .iter()
            .filter_map(|&(i, n)| {
                let d = n.saturating_sub(before.get(&i).copied().unwrap_or(0));
                (d > 0).then_some((i, d))
            })
            .collect();
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
            buckets,
        }
    }
}

// ---------------------------------------------------------------------
// Registry + snapshot
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named set of live metrics. Cloning shares the set; handle lookup
/// (`counter`/`gauge`/`histogram`) takes a lock, so call sites hoist
/// handles out of their hot loops and the recording path itself never
/// locks.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.lock().expect("obs registry poisoned");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// The gauge named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.lock().expect("obs registry poisoned");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// The histogram named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics.lock().expect("obs registry poisoned");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Freezes every metric into a [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.metrics.lock().expect("obs registry poisoned");
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

/// A frozen, diffable view of a registry (or of several, merged): plain
/// sorted maps of numbers with no live handles inside.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram contents by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Folds `other` into `self`: counters add, gauges take the larger
    /// value, histograms merge bucket-wise. Used to aggregate
    /// per-partition registries into one cluster-wide view.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let e = self.gauges.entry(k.clone()).or_insert(0);
            *e = (*e).max(*v);
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }

    /// What happened since `earlier`: counter and histogram deltas
    /// (saturating), gauges as their current values.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for (k, v) in &self.counters {
            out.counters.insert(
                k.clone(),
                v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)),
            );
        }
        out.gauges = self.gauges.clone();
        for (k, v) in &self.histograms {
            let d = match earlier.histograms.get(k) {
                Some(e) => v.diff(e),
                None => v.clone(),
            };
            out.histograms.insert(k.clone(), d);
        }
        out
    }

    /// Shorthand: the named counter, or 0.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Shorthand: the named histogram, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Renders a Prometheus-style text exposition page: `# TYPE` lines,
    /// `_count`/`_sum`/`_max` series and `{quantile="…"}` summaries for
    /// histograms. Stable output order (sorted by name).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} summary");
            for (label, q) in [("0.5", 0.5), ("0.99", 0.99), ("0.999", 0.999)] {
                let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", h.quantile(q));
            }
            let _ = writeln!(
                out,
                "{name}_count {}\n{name}_sum {}\n{name}_max {}",
                h.count, h.sum, h.max
            );
        }
        out
    }
}

// ---------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------

/// A bounded ring buffer of typed trace events. Cloning shares the
/// ring. Pushing is one short mutex section (no allocation once warm);
/// overflow silently drops the **oldest** events and counts them, so a
/// post-mortem dump always shows the most recent history.
#[derive(Clone, Debug)]
pub struct TraceRing<T> {
    inner: Arc<Mutex<RingInner<T>>>,
}

#[derive(Debug)]
struct RingInner<T> {
    buf: VecDeque<T>,
    cap: usize,
    dropped: u64,
}

impl<T: Clone> TraceRing<T> {
    /// A ring retaining the newest `cap` events (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        TraceRing {
            inner: Arc::new(Mutex::new(RingInner {
                buf: VecDeque::with_capacity(cap),
                cap,
                dropped: 0,
            })),
        }
    }

    /// Appends an event, evicting the oldest at capacity.
    pub fn push(&self, ev: T) {
        let mut r = self.inner.lock().expect("trace ring poisoned");
        if r.buf.len() == r.cap {
            r.buf.pop_front();
            r.dropped += 1;
        }
        r.buf.push_back(ev);
    }

    /// The retained events, oldest first.
    pub fn dump(&self) -> Vec<T> {
        self.inner.lock().expect("trace ring poisoned").buf.iter().cloned().collect()
    }

    /// How many events overflow has evicted.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("trace ring poisoned").dropped
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace ring poisoned").buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Clone> Default for TraceRing<T> {
    /// A ring with the default capacity (512 events).
    fn default() -> Self {
        TraceRing::new(512)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut last = 0usize;
        for shift in 0..64 {
            for near in [-1i64, 0, 1, 31] {
                let v = (1u128 << shift) as i128 + near as i128;
                if !(0..=u64::MAX as i128).contains(&v) {
                    continue;
                }
                let idx = bucket_index(v as u64);
                assert!(idx < N_BUCKETS, "idx {idx} for value {v}");
                assert!(idx >= last || v < 64, "non-monotone at {v}");
                last = last.max(idx);
            }
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(63), 63);
        assert_eq!(bucket_index(64), 64);
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn bucket_upper_bounds_its_members() {
        for v in (0u64..4096).chain([1 << 20, (1 << 20) + 12345, u64::MAX / 3]) {
            let idx = bucket_index(v);
            assert!(bucket_upper(idx) >= v, "upper({idx}) < {v}");
            // The upper bound stays within one bucket width of v.
            let width = if v < 64 { 1 } else { 1u64 << ((63 - v.leading_zeros()) - SUB_BITS) };
            assert!(bucket_upper(idx) - v < width, "upper too far above {v}");
        }
    }

    #[test]
    fn histogram_quantiles_and_mean() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        assert!((s.mean() - 500.5).abs() < 0.01);
        // Error bound: 1/64 relative.
        for (q, exact) in [(0.5, 500u64), (0.99, 990), (0.999, 999)] {
            let got = s.quantile(q);
            assert!(
                got >= exact && got <= exact + exact / 32 + 1,
                "q{q}: got {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn empty_histogram_is_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.max, s.p50(), s.p99()), (0, 0, 0, 0));
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn registry_roundtrip_and_merge() {
        let r = Registry::new();
        r.counter("txs").add(3);
        r.gauge("depth").record_max(7);
        r.histogram("lat").record(100);
        let mut a = r.snapshot();
        let r2 = Registry::new();
        r2.counter("txs").add(2);
        r2.gauge("depth").record_max(5);
        r2.histogram("lat").record(200);
        a.merge(&r2.snapshot());
        assert_eq!(a.counter("txs"), 5);
        assert_eq!(a.gauges["depth"], 7);
        let h = a.histogram("lat").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 200);
    }

    #[test]
    fn snapshot_diff_subtracts() {
        let r = Registry::new();
        let c = r.counter("ops");
        let h = r.histogram("lat");
        c.add(5);
        h.record(10);
        let before = r.snapshot();
        c.add(2);
        h.record(20);
        let d = r.snapshot().diff(&before);
        assert_eq!(d.counter("ops"), 2);
        let dh = d.histogram("lat").unwrap();
        assert_eq!((dh.count, dh.sum), (1, 20));
    }

    #[test]
    fn render_prometheus_mentions_every_metric() {
        let r = Registry::new();
        r.counter("a_total").inc();
        r.gauge("b_depth").set(2);
        r.histogram("c_micros").record(5);
        let page = r.snapshot().render_prometheus();
        assert!(page.contains("a_total 1"));
        assert!(page.contains("b_depth 2"));
        assert!(page.contains("c_micros_count 1"));
        assert!(page.contains("quantile=\"0.99\""));
    }

    #[test]
    fn trace_ring_keeps_newest() {
        let ring: TraceRing<u64> = TraceRing::new(4);
        for i in 0..10 {
            ring.push(i);
        }
        assert_eq!(ring.dump(), vec![6, 7, 8, 9]);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.len(), 4);
    }
}
