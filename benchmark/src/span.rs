//! In-memory spans: name, start, end, the span that caused it and the
//! transaction it belongs to. Recorded from the benchmark's own files
//! around calls into each layer; written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into [`Recorder::names`].
    pub name: u16,
    /// Enclosing span, or [`NONE`].
    pub parent: u32,
    /// Ordinal of the client transaction this work belongs to, or
    /// [`NONE`] for background work (ticks, gossip).
    pub tx: u32,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    pub names: Vec<&'static str>,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, tx: u32) -> u32 {
        let name = self.name_id(name);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            tx,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records a span whose ends were timed by the caller.
    pub fn push(&mut self, name: &'static str, parent: u32, tx: u32, start_ns: u64, end_ns: u64) {
        let name = self.name_id(name);
        self.spans.push(Span {
            name,
            parent,
            tx,
            start_ns,
            end_ns,
        });
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        tx: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now_ns();
        let r = f();
        let end = self.now_ns();
        self.push(name, parent, tx, start, end);
        r
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            let p = &spans[s.parent as usize];
            // Clip to the parent: only coverage of its interval counts.
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if a < b {
                children[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals: `(name, count, total ns, self ns)`, in first-seen
/// order.
pub fn summarize(rec: &Recorder) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs = self_times(&rec.spans);
    let mut rows: Vec<(&'static str, u64, u64, u64)> =
        rec.names.iter().map(|n| (*n, 0, 0, 0)).collect();
    for (s, own) in rec.spans.iter().zip(selfs) {
        let row = &mut rows[s.name as usize];
        row.1 += 1;
        row.2 += s.dur_ns();
        row.3 += own;
    }
    rows
}

/// The trace file body for one recorder: the per-name summary over
/// every span, and the spans of the first `tx_limit` transactions in
/// full (background spans — `tx` null — are kept up to the last of
/// those transactions' end).
pub fn to_json(rec: &Recorder, tx_limit: u32) -> String {
    let mut out = String::from("{\"summary\":[");
    for (i, (name, count, total, own)) in summarize(rec).iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}{{\"name\":\"{name}\",\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
        );
    }
    out.push_str("],\"spans\":[");
    let horizon = rec
        .spans
        .iter()
        .filter(|s| s.tx != NONE && s.tx < tx_limit)
        .map(|s| s.end_ns)
        .max()
        .unwrap_or(0);
    let mut first = true;
    for (id, s) in rec.spans.iter().enumerate() {
        let keep = if s.tx == NONE {
            s.end_ns <= horizon
        } else {
            s.tx < tx_limit
        };
        if !keep {
            continue;
        }
        let opt = |v: u32| {
            if v == NONE {
                "null".to_string()
            } else {
                v.to_string()
            }
        };
        let sep = if first { "" } else { "," };
        first = false;
        let _ = write!(
            out,
            "{sep}{{\"id\":{id},\"parent\":{},\"tx\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            opt(s.parent),
            opt(s.tx),
            rec.names[s.name as usize],
            s.start_ns,
            s.end_ns
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: 0,
            parent,
            tx: NONE,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = [
            span(NONE, 0, 100), // root
            span(0, 10, 40),    // child
            span(0, 30, 60),    // overlaps the first child by 10
            span(0, 80, 90),    // disjoint child
            span(1, 15, 20),    // grandchild: only its parent pays
            span(0, 95, 130),   // runs past the root: clipped to 95..100
        ];
        let own = self_times(&spans);
        // Root: 100 − (10..60 ∪ 80..90 ∪ 95..100) = 100 − 65.
        assert_eq!(own[0], 35);
        assert_eq!(own[1], 25);
        assert_eq!(own[2], 30);
        assert_eq!(own[4], 5);
    }

    #[test]
    fn recorder_nests_and_serializes() {
        let mut rec = Recorder::new();
        let root = rec.open("outer", NONE, 0);
        rec.time("inner", root, 0, || std::hint::black_box(1 + 1));
        rec.close(root);
        rec.push("background", NONE, NONE, 0, 1);
        let rows = summarize(&rec);
        assert_eq!(rows.len(), 3);
        assert_eq!((rows[0].0, rows[0].1), ("outer", 1));
        assert!(rows[0].3 <= rows[0].2, "self time cannot exceed total");
        let json = to_json(&rec, 1);
        assert!(json.contains("\"name\":\"inner\",\"start_ns\""));
        assert!(json.contains("\"parent\":null,\"tx\":null,\"name\":\"background\""));
    }
}
