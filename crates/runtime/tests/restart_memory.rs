//! A cluster restarted in the same process must reuse the memory its
//! predecessor freed, not strand a little more of it with every
//! restart: peak resident memory after many cluster lifetimes stays
//! where it was after the first few.
//!
//! What this guards is the thread lifecycle (`PartitionEngine`'s docs):
//! threads start kind by kind and end in the mirrored order, so that an
//! allocator with per-thread arenas hands every new writer an arena a
//! writer has grown before. With racing exits the peak creeps by
//! 0.3–0.7 MiB per lifetime of the cluster below (glibc), by an amount
//! that depends on scheduling — which is what made memory readings of
//! otherwise identical runs disagree.
//!
//! Alone in its file for the reason `thread_budget.rs` gives: the
//! reading is process-wide.

use bytes::Bytes;
use wren_protocol::Key;
use wren_rt::ClusterBuilder;

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not say.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// One cluster lifetime: 2 partitions over loopback TCP, 20 000 keys
/// written in four transactions, read back, stopped.
fn lifetime() {
    let cluster = ClusterBuilder::new().dcs(1).partitions(2).tcp().build();
    let mut session = cluster.session(0);
    let value = Bytes::from_static(b"restart!");
    for chunk in 0..4u64 {
        session.begin().expect("begin");
        session.write_many((chunk * 5_000..(chunk + 1) * 5_000).map(|k| (Key(k), value.clone())));
        session.commit().expect("commit");
    }
    session.begin().expect("begin");
    assert_eq!(session.read_one(Key(19_999)).expect("read"), Some(value));
    session.commit().expect("commit");
    drop(session);
    cluster.stop();
}

#[test]
fn restarts_do_not_ratchet_resident_memory() {
    if peak_rss_mib().is_none() {
        eprintln!("SKIP: no VmHWM in /proc/self/status");
        return;
    }
    // The first lifetimes grow every thread kind's arena once.
    for _ in 0..4 {
        lifetime();
    }
    let settled = peak_rss_mib().expect("checked");
    for _ in 0..20 {
        lifetime();
    }
    let after = peak_rss_mib().expect("checked");
    eprintln!("peak RSS {settled:.2} -> {after:.2} MiB over 20 more lifetimes");
    assert!(
        after - settled <= 2.0,
        "20 more cluster lifetimes raised peak RSS from {settled:.1} to {after:.1} MiB: \
         freed memory is being stranded across restarts (thread start/exit order?)"
    );
}
