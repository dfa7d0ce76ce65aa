/// Static configuration shared by every Wren server and client.
///
/// Defaults follow the paper's evaluation: stabilization every 5 ms
/// (§V-A "The stabilization protocols run every 5 milliseconds"), with a
/// 1 ms apply/replication tick and a 50 ms garbage-collection exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WrenConfig {
    /// Number of data centers (`M`).
    pub n_dcs: u8,
    /// Number of partitions per DC (`N`).
    pub n_partitions: u16,
    /// Δ_R: how often a server applies committed transactions, advances
    /// its version clock to the physical clock and ships replication
    /// batches/heartbeats (Algorithm 4 line 5), in microseconds. For a
    /// driver that only ticks this bounds how long a commit waits to be
    /// applied. A driver that also calls
    /// [`WrenServer::advance`](crate::WrenServer::advance) applies and
    /// ships every commit in the turn it lands, and Δ_R becomes the idle
    /// heartbeat and the rate at which the stable cut follows the
    /// physical clock.
    pub replication_tick_micros: u64,
    /// Δ_G: how often partitions exchange BiST stabilization gossip
    /// (Algorithm 4 line 29), in microseconds — the paper's 5 ms by
    /// default. For a driver that only ticks this sets the cadence of
    /// the stable cut. A driver that also calls
    /// [`WrenServer::stabilize`](crate::WrenServer::stabilize) pushes on
    /// every change, and Δ_G becomes the heartbeat that repairs a lost
    /// push and the period of the crash-resolution work.
    pub gossip_tick_micros: u64,
    /// How often partitions exchange GC watermarks and prune version
    /// chains, in microseconds. Zero disables garbage collection.
    pub gc_tick_micros: u64,
    /// Visibility sampling: record one visibility latency sample every
    /// `visibility_sample_every` applied updates (0 disables sampling).
    pub visibility_sample_every: u64,
    /// BiST dissemination topology: `0` = all-to-all broadcast; `k ≥ 1` =
    /// a k-ary aggregation tree rooted at partition 0 (the paper's
    /// "partitions within a DC are organized as a tree to reduce
    /// communication costs", §IV-B), trading one extra round of
    /// stabilization lag per tree level for O(N) instead of O(N²)
    /// messages.
    pub gossip_fanout: u16,
}

impl Default for WrenConfig {
    fn default() -> Self {
        WrenConfig {
            n_dcs: 3,
            n_partitions: 8,
            replication_tick_micros: 1_000,
            gossip_tick_micros: 5_000,
            gc_tick_micros: 50_000,
            visibility_sample_every: 0,
            gossip_fanout: 0,
        }
    }
}

impl WrenConfig {
    /// Convenience constructor for an `m` DC × `n` partition deployment
    /// with default tick intervals.
    pub fn new(m: u8, n: u16) -> Self {
        WrenConfig {
            n_dcs: m,
            n_partitions: n,
            ..WrenConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = WrenConfig::default();
        assert_eq!(c.gossip_tick_micros, 5_000, "paper: stabilization every 5 ms");
        assert_eq!(c.n_dcs, 3);
        assert_eq!(c.n_partitions, 8);
    }

    #[test]
    fn new_overrides_shape() {
        let c = WrenConfig::new(5, 16);
        assert_eq!(c.n_dcs, 5);
        assert_eq!(c.n_partitions, 16);
        assert_eq!(c.gossip_tick_micros, WrenConfig::default().gossip_tick_micros);
    }
}
