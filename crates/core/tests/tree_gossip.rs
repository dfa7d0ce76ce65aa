//! Tree-structured BiST (the §IV-B "partitions organized as a tree"
//! optimization): same stable times as broadcast, far fewer messages —
//! and change-driven stabilization (`WrenServer::stabilize`): a push
//! only when the contribution moves, in the same turn, with the gossip
//! tick left to repair lost pushes.

use bytes::Bytes;
use wren_clock::{SkewedClock, Timestamp};
use wren_core::{WrenClient, WrenConfig, WrenServer};
use wren_protocol::{ClientId, Dest, Key, Outgoing, ServerId, WrenMsg};

/// Pump with a per-round stabilization message counter.
struct Pump {
    cfg: WrenConfig,
    servers: Vec<WrenServer>,
    to_clients: Vec<(ClientId, WrenMsg)>,
    now: u64,
    gossip_msgs: u64,
    /// Drive stabilization the way `wren-rt`'s engine does — a
    /// `stabilize` at the end of every turn and no gossip ticks — instead
    /// of the paper's tick cadence.
    change_driven: bool,
}

impl Pump {
    fn new(cfg: WrenConfig) -> Self {
        Self::with_cadence(cfg, false)
    }

    fn with_cadence(cfg: WrenConfig, change_driven: bool) -> Self {
        let mut servers = Vec::new();
        for dc in 0..cfg.n_dcs {
            for p in 0..cfg.n_partitions {
                servers.push(WrenServer::new(
                    ServerId::new(dc, p),
                    cfg,
                    SkewedClock::perfect(),
                ));
            }
        }
        Pump {
            cfg,
            servers,
            to_clients: Vec::new(),
            now: 0,
            gossip_msgs: 0,
            change_driven,
        }
    }

    /// The stabilization step of one turn: the tick's unconditional push
    /// at paper cadence, the change-driven push otherwise.
    fn stabilization_step(&mut self, i: usize, out: &mut Vec<Outgoing<WrenMsg>>) {
        if self.change_driven {
            self.servers[i].stabilize(self.now, out);
        } else {
            self.servers[i].on_gossip_tick(self.now, out);
        }
    }

    fn idx(&self, id: ServerId) -> usize {
        id.dc.index() * self.cfg.n_partitions as usize + id.partition.index()
    }

    fn drain(&mut self, mut pending: Vec<(Dest, ServerId, WrenMsg)>) {
        while let Some((from, to_server, msg)) = pending.pop() {
            if is_gossip(&msg) {
                self.gossip_msgs += 1;
            }
            let now = self.now;
            let i = self.idx(to_server);
            let mut out = Vec::new();
            self.servers[i].handle(from, msg, now, &mut out);
            if self.change_driven {
                self.servers[i].stabilize(now, &mut out);
            }
            for Outgoing { to, msg } in out {
                match to {
                    Dest::Server(s) => pending.push((Dest::Server(to_server), s, msg)),
                    Dest::Client(c) => self.to_clients.push((c, msg)),
                }
            }
        }
    }

    fn tick_all(&mut self, advance: u64) {
        self.now += advance;
        let mut cascades = Vec::new();
        for i in 0..self.servers.len() {
            let mut out = Vec::new();
            self.servers[i].on_replication_tick(self.now, &mut out);
            self.stabilization_step(i, &mut out);
            let from = self.servers[i].id();
            for Outgoing { to, msg } in out {
                match to {
                    Dest::Server(s) => cascades.push((Dest::Server(from), s, msg)),
                    Dest::Client(c) => self.to_clients.push((c, msg)),
                }
            }
        }
        self.drain(cascades);
    }

    /// Gossip rounds only, at a frozen instant: version clocks stop
    /// moving, so both dissemination schemes converge to the same fixed
    /// point.
    fn gossip_only(&mut self) {
        let mut cascades = Vec::new();
        for i in 0..self.servers.len() {
            let mut out = Vec::new();
            self.stabilization_step(i, &mut out);
            let from = self.servers[i].id();
            for Outgoing { to, msg } in out {
                match to {
                    Dest::Server(s) => cascades.push((Dest::Server(from), s, msg)),
                    Dest::Client(c) => self.to_clients.push((c, msg)),
                }
            }
        }
        self.drain(cascades);
    }

    fn commit_one(&mut self, client: &mut WrenClient, key: Key, v: &[u8]) {
        let id = client.id();
        let coord = client.coordinator();
        self.drain(vec![(Dest::Client(id), coord, client.start())]);
        let resp = self.resp(id);
        client.on_start_resp(resp);
        client.write([(key, Bytes::copy_from_slice(v))]);
        self.drain(vec![(Dest::Client(id), coord, client.commit())]);
        let resp = self.resp(id);
        client.on_commit_resp(resp);
    }

    fn resp(&mut self, client: ClientId) -> WrenMsg {
        let pos = self
            .to_clients
            .iter()
            .position(|(c, _)| *c == client)
            .expect("no response");
        self.to_clients.remove(pos).1
    }

    fn min_lst(&self) -> Timestamp {
        self.servers.iter().map(|s| s.lst()).min().unwrap()
    }
}

#[test]
fn tree_gossip_advances_lst_on_every_partition() {
    let cfg = WrenConfig {
        gossip_fanout: 2,
        ..WrenConfig::new(1, 7)
    };
    let mut pump = Pump::new(cfg);
    let mut client = WrenClient::new(ClientId(1), ServerId::new(0, 3));
    pump.commit_one(&mut client, Key(0), b"x");

    // Depth of a 2-ary tree over 7 partitions is 2; a few rounds suffice
    // for up-aggregation + down-dissemination.
    for _ in 0..4 {
        pump.tick_all(1_000);
    }
    let lst = pump.min_lst();
    assert!(
        !lst.is_zero(),
        "every partition must learn a nonzero LST through the tree"
    );
}

/// Five committed writes under either dissemination scheme, then
/// stabilization rounds at a frozen instant. Returns the smallest LST,
/// the fixed point it must reach (the DC's minimum version clock), the
/// stabilization messages spent, and how many of those the frozen
/// rounds sent.
fn converge(fanout: u16, change_driven: bool) -> (Timestamp, Timestamp, u64, u64) {
    let cfg = WrenConfig {
        gossip_fanout: fanout,
        ..WrenConfig::new(1, 8)
    };
    let mut pump = Pump::with_cadence(cfg, change_driven);
    let mut client = WrenClient::new(ClientId(1), ServerId::new(0, 0));
    for i in 0..5u64 {
        pump.commit_one(&mut client, Key(i), b"v");
        pump.tick_all(1_000);
    }
    // Freeze time: gossip-only rounds reach the fixed point under either
    // scheme — at tick cadence the tree needs `depth` extra rounds.
    let before_frozen = pump.gossip_msgs;
    for _ in 0..6 {
        pump.gossip_only();
    }
    let fixed_point = pump
        .servers
        .iter()
        .map(|s| s.version_clock())
        .min()
        .unwrap();
    (
        pump.min_lst(),
        fixed_point,
        pump.gossip_msgs,
        pump.gossip_msgs - before_frozen,
    )
}

#[test]
fn tree_and_broadcast_agree_on_stable_times() {
    let (lst_bcast, fp_bcast, msgs_bcast, _) = converge(0, false);
    let (lst_tree, fp_tree, msgs_tree, _) = converge(2, false);
    assert_eq!(lst_bcast, fp_bcast, "broadcast LST reaches the fixed point");
    assert_eq!(lst_tree, fp_tree, "tree LST reaches the fixed point");
    assert_eq!(
        lst_bcast, lst_tree,
        "tree and broadcast must converge to the same LST"
    );
    assert!(
        msgs_tree < msgs_bcast / 2,
        "tree should use far fewer messages: {msgs_tree} vs {msgs_bcast}"
    );
}

/// The same fixed point with no gossip tick at all: `stabilize` at the
/// end of every turn is enough for either scheme, and once the cut has
/// converged further rounds send nothing.
#[test]
fn tree_and_broadcast_agree_through_stabilize_alone() {
    let (lst_bcast, fp_bcast, msgs_bcast, idle_bcast) = converge(0, true);
    let (lst_tree, fp_tree, msgs_tree, idle_tree) = converge(2, true);
    assert_eq!(lst_bcast, fp_bcast, "broadcast LST reaches the fixed point");
    assert_eq!(lst_tree, fp_tree, "tree LST reaches the fixed point");
    assert_eq!(
        lst_bcast, lst_tree,
        "tree and broadcast must converge to the same LST"
    );
    assert!(
        msgs_tree < msgs_bcast,
        "tree should use fewer messages: {msgs_tree} vs {msgs_bcast}"
    );
    assert_eq!(
        (idle_bcast, idle_tree),
        (0, 0),
        "rounds that move nothing send nothing"
    );
}

fn server(cfg: WrenConfig, partition: u16) -> WrenServer {
    WrenServer::new(ServerId::new(0, partition), cfg, SkewedClock::perfect())
}

fn is_gossip(msg: &WrenMsg) -> bool {
    matches!(
        msg,
        WrenMsg::StableGossip { .. } | WrenMsg::GossipUp { .. } | WrenMsg::GossipDown { .. }
    )
}

fn gossip_count(out: &[Outgoing<WrenMsg>]) -> usize {
    out.iter().filter(|o| is_gossip(&o.msg)).count()
}

#[test]
fn stabilize_sends_nothing_when_nothing_moved() {
    for fanout in [0, 1] {
        let cfg = WrenConfig {
            gossip_fanout: fanout,
            ..WrenConfig::new(1, 4)
        };
        // Partition 3 is a leaf at fanout 1 (its parent is 2).
        let mut s = server(cfg, 3);
        let mut out = Vec::new();
        s.on_replication_tick(1_000, &mut out);
        out.clear();
        s.stabilize(1_000, &mut out);
        assert!(
            gossip_count(&out) > 0,
            "fanout {fanout}: a moved clock pushes"
        );
        out.clear();
        s.stabilize(1_000, &mut out);
        assert!(
            out.is_empty(),
            "fanout {fanout}: second push with nothing moved: {out:?}"
        );
        // A replication tick at the same instant does not move the clock.
        s.on_replication_tick(1_000, &mut out);
        s.stabilize(1_000, &mut out);
        assert_eq!(gossip_count(&out), 0, "fanout {fanout}: {out:?}");
    }
}

#[test]
fn moved_contribution_emits_exactly_one_push() {
    let n = 4;
    // Broadcast: N−1 StableGossip, one per peer.
    let mut s = server(WrenConfig::new(1, n), 2);
    let mut out = Vec::new();
    s.on_replication_tick(1_000, &mut out);
    s.stabilize(1_000, &mut out);
    let gossip: Vec<_> = out
        .iter()
        .filter(|o| matches!(o.msg, WrenMsg::StableGossip { .. }))
        .collect();
    assert_eq!(gossip.len(), n as usize - 1, "{out:?}");
    assert_eq!(gossip_count(&out), n as usize - 1);
    assert_eq!(
        s.registry().snapshot().counter("gossip_msgs_sent"),
        n as u64 - 1
    );

    // Tree child: one GossipUp, to its parent.
    let tree = WrenConfig {
        gossip_fanout: 2,
        ..WrenConfig::new(1, n)
    };
    let mut child = server(tree, 3);
    let mut out = Vec::new();
    child.on_replication_tick(1_000, &mut out);
    child.stabilize(1_000, &mut out);
    assert_eq!(gossip_count(&out), 1, "{out:?}");
    assert!(matches!(out[0].msg, WrenMsg::GossipUp { .. }));
    assert_eq!(
        out[0].to,
        Dest::Server(ServerId::new(0, 1)),
        "parent of 3 is 1"
    );

    // Tree root: one GossipDown per child once every child has reported.
    let mut root = server(tree, 0);
    let mut out = Vec::new();
    root.on_replication_tick(1_000, &mut out);
    let up = WrenMsg::GossipUp {
        local: Timestamp::from_micros(900),
        remote: Timestamp::MAX,
    };
    for c in [1, 2] {
        root.handle(
            Dest::Server(ServerId::new(0, c)),
            up.clone(),
            1_000,
            &mut out,
        );
    }
    root.stabilize(1_000, &mut out);
    let downs: Vec<_> = out.iter().map(|o| (o.to, &o.msg)).collect();
    assert_eq!(downs.len(), 2, "{downs:?}");
    for (c, (to, msg)) in [1, 2].into_iter().zip(downs) {
        assert_eq!(to, Dest::Server(ServerId::new(0, c)));
        assert!(matches!(msg, WrenMsg::GossipDown { .. }), "{msg:?}");
    }
}

#[test]
fn root_answers_gossip_up_in_the_same_turn() {
    let cfg = WrenConfig {
        gossip_fanout: 1,
        ..WrenConfig::new(1, 2)
    };
    let (mut root, mut child) = (server(cfg, 0), server(cfg, 1));
    let mut out = Vec::new();
    root.on_replication_tick(1_000, &mut out);
    root.stabilize(1_000, &mut out);
    // The child has not reported: the root's subtree minimum is unknown.
    assert_eq!(gossip_count(&out), 0, "{out:?}");
    assert!(root.lst().is_zero());

    child.on_replication_tick(2_000, &mut out);
    child.stabilize(2_000, &mut out);
    let up = out.pop().expect("child pushes");
    assert!(matches!(up.msg, WrenMsg::GossipUp { .. }), "{up:?}");

    // One turn at the root: handle the GossipUp, stabilize. No tick.
    let mut out = Vec::new();
    root.handle(Dest::Server(child.id()), up.msg, 2_000, &mut out);
    root.stabilize(2_000, &mut out);
    assert_eq!(out.len(), 1, "{out:?}");
    let WrenMsg::GossipDown { lst, .. } = out[0].msg else {
        panic!("expected GossipDown, got {:?}", out[0].msg);
    };
    assert_eq!(lst, root.version_clock().min(child.version_clock()));
    assert_eq!(root.lst(), lst);
    child.handle(
        Dest::Server(root.id()),
        out.pop().unwrap().msg,
        2_000,
        &mut out,
    );
    assert_eq!(child.lst(), lst, "the cut reaches the child without a tick");
}

#[test]
fn dropped_push_is_repaired_by_the_next_gossip_tick() {
    let cfg = WrenConfig::new(1, 3);
    let mut pump = Pump::with_cadence(cfg, true);
    pump.now = 1_000;
    let mut pending = Vec::new();
    for i in 0..3 {
        let mut out = Vec::new();
        pump.servers[i].on_replication_tick(pump.now, &mut out);
        pump.servers[i].stabilize(pump.now, &mut out);
        // Partition 0's push is lost in transit.
        if i == 0 {
            continue;
        }
        let from = pump.servers[i].id();
        for Outgoing { to, msg } in out {
            let Dest::Server(to) = to else { unreachable!() };
            pending.push((Dest::Server(from), to, msg));
        }
    }
    pump.drain(pending);
    let fixed_point = pump
        .servers
        .iter()
        .map(|s| s.version_clock())
        .min()
        .unwrap();
    assert_eq!(pump.servers[0].lst(), fixed_point, "0 heard from everyone");
    assert!(pump.servers[1].lst().is_zero(), "1 never heard from 0");

    // Nothing moved, so change-driven pushes cannot repair the loss.
    pump.gossip_only();
    assert!(pump.servers[1].lst().is_zero());

    // The tick pushes unconditionally.
    let mut out = Vec::new();
    pump.servers[0].on_gossip_tick(pump.now, &mut out);
    assert_eq!(gossip_count(&out), 2, "{out:?}");
    let from = pump.servers[0].id();
    pump.drain(
        out.into_iter()
            .map(|Outgoing { to, msg }| {
                let Dest::Server(to) = to else { unreachable!() };
                (Dest::Server(from), to, msg)
            })
            .collect(),
    );
    assert_eq!(
        pump.min_lst(),
        fixed_point,
        "the tick repaired the lost push"
    );
}

#[test]
fn tree_mode_preserves_read_your_writes_and_visibility() {
    let cfg = WrenConfig {
        gossip_fanout: 3,
        ..WrenConfig::new(1, 8)
    };
    let mut pump = Pump::new(cfg);
    let mut writer = WrenClient::new(ClientId(1), ServerId::new(0, 2));
    let mut reader = WrenClient::new(ClientId(2), ServerId::new(0, 5));

    pump.commit_one(&mut writer, Key(9), b"tree");
    for _ in 0..6 {
        pump.tick_all(1_000);
    }

    // Reader on another partition sees the stabilized write.
    let id = reader.id();
    let coord = reader.coordinator();
    pump.drain(vec![(Dest::Client(id), coord, reader.start())]);
    let resp = pump.resp(id);
    reader.on_start_resp(resp);
    let outcome = reader.read(&[Key(9)]);
    let req = outcome.request.expect("server read");
    pump.drain(vec![(Dest::Client(id), coord, req)]);
    let resp = pump.resp(id);
    let res = reader.on_read_resp(resp);
    assert_eq!(
        res[0].1.as_deref(),
        Some(b"tree".as_slice()),
        "write must become visible through tree-computed stable times"
    );
    pump.drain(vec![(Dest::Client(id), coord, reader.commit())]);
    let resp = pump.resp(id);
    reader.on_commit_resp(resp);
}

#[test]
fn single_partition_tree_degenerates_gracefully() {
    let cfg = WrenConfig {
        gossip_fanout: 2,
        ..WrenConfig::new(1, 1)
    };
    let mut pump = Pump::new(cfg);
    let mut client = WrenClient::new(ClientId(1), ServerId::new(0, 0));
    pump.commit_one(&mut client, Key(0), b"solo");
    pump.tick_all(1_000);
    pump.tick_all(1_000);
    assert!(!pump.min_lst().is_zero());
    assert_eq!(pump.gossip_msgs, 0, "a single partition exchanges nothing");
}
