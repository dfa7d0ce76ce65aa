//! Event-driven replication (`WrenServer::advance`) with no tick at all:
//! every turn is `handle → advance → stabilize`, the way `wren-rt`'s
//! engine ends a turn, on 2 DCs × 3 partitions in broadcast mode. A
//! commit must become readable everywhere through the version-clock
//! advances and pushes it triggers, the wave must die out at a bounded
//! message count, a quiet cluster must stay silent, and a prepared
//! transaction must keep holding the version clock below its proposal.

use bytes::Bytes;
use wren_clock::{SkewedClock, Timestamp};
use wren_core::{WrenClient, WrenConfig, WrenServer};
use wren_protocol::{ClientId, Dest, Key, Outgoing, ServerId, WrenMsg};

const DCS: u8 = 2;
const PARTITIONS: u16 = 3;

/// A deterministic message pump whose servers only ever run
/// event-driven turns, counting what each turn sends.
struct Pump {
    servers: Vec<WrenServer>,
    to_clients: Vec<(ClientId, WrenMsg)>,
    now: u64,
    /// Turns per server that pushed a stabilization message.
    pushes: Vec<u32>,
    /// Stabilization messages sent.
    gossip_msgs: u64,
    /// Heartbeats sent.
    heartbeats: u64,
}

impl Pump {
    fn new() -> Self {
        let cfg = WrenConfig::new(DCS, PARTITIONS);
        let servers: Vec<WrenServer> = (0..DCS)
            .flat_map(|dc| (0..PARTITIONS).map(move |p| ServerId::new(dc, p)))
            .map(|id| WrenServer::new(id, cfg, SkewedClock::perfect()))
            .collect();
        Pump {
            pushes: vec![0; servers.len()],
            servers,
            to_clients: Vec::new(),
            now: 1_000,
            gossip_msgs: 0,
            heartbeats: 0,
        }
    }

    fn idx(id: ServerId) -> usize {
        id.dc.index() * PARTITIONS as usize + id.partition.index()
    }

    fn server(&self, id: ServerId) -> &WrenServer {
        &self.servers[Self::idx(id)]
    }

    fn reset_counts(&mut self) {
        self.pushes.iter_mut().for_each(|p| *p = 0);
        self.gossip_msgs = 0;
        self.heartbeats = 0;
    }

    /// One engine turn at `to`: handle `msg`, advance, stabilize. Returns
    /// the server-bound outputs as `(from, to, msg)`; client-bound ones
    /// are queued for [`resp`](Self::resp).
    fn turn(&mut self, from: Dest, to: ServerId, msg: WrenMsg) -> Vec<(Dest, ServerId, WrenMsg)> {
        let i = Self::idx(to);
        let mut out = Vec::new();
        self.servers[i].handle(from, msg, self.now, &mut out);
        self.servers[i].advance(self.now, &mut out);
        self.servers[i].stabilize(self.now, &mut out);
        let gossip = out.iter().filter(|o| is_gossip(&o.msg)).count() as u64;
        if gossip > 0 {
            self.pushes[i] += 1;
        }
        self.gossip_msgs += gossip;
        self.heartbeats += out
            .iter()
            .filter(|o| matches!(o.msg, WrenMsg::Heartbeat { .. }))
            .count() as u64;
        let mut next = Vec::new();
        for Outgoing { to: dest, msg } in out {
            match dest {
                Dest::Server(s) => next.push((Dest::Server(to), s, msg)),
                Dest::Client(c) => self.to_clients.push((c, msg)),
            }
        }
        next
    }

    /// Delivers until nothing is in flight. Panics if the cluster keeps
    /// talking: an event-driven wave must die out on its own.
    fn drain(&mut self, mut pending: Vec<(Dest, ServerId, WrenMsg)>) {
        let mut delivered = 0usize;
        while let Some((from, to, msg)) = pending.pop() {
            delivered += 1;
            assert!(delivered < 10_000, "the drain did not terminate");
            pending.extend(self.turn(from, to, msg));
        }
    }

    fn resp(&mut self, client: ClientId) -> WrenMsg {
        let pos = self
            .to_clients
            .iter()
            .position(|(c, _)| *c == client)
            .expect("no response");
        self.to_clients.remove(pos).1
    }

    fn begin(&mut self, client: &mut WrenClient) {
        let (id, coord) = (client.id(), client.coordinator());
        self.drain(vec![(Dest::Client(id), coord, client.start())]);
        let resp = self.resp(id);
        client.on_start_resp(resp);
    }

    /// Runs a one-key write transaction to completion; returns its `ct`.
    fn commit_one(&mut self, client: &mut WrenClient, key: Key, v: &[u8]) -> Timestamp {
        self.begin(client);
        client.write([(key, Bytes::copy_from_slice(v))]);
        let (id, coord) = (client.id(), client.coordinator());
        self.drain(vec![(Dest::Client(id), coord, client.commit())]);
        let resp = self.resp(id);
        client.on_commit_resp(resp)
    }

    /// Reads `key` in a fresh transaction at `client`'s coordinator.
    fn read_one(&mut self, client: &mut WrenClient, key: Key) -> Option<Bytes> {
        self.begin(client);
        let (id, coord) = (client.id(), client.coordinator());
        let req = client.read(&[key]).request.expect("nothing cached");
        self.drain(vec![(Dest::Client(id), coord, req)]);
        let resp = self.resp(id);
        let got = client.on_read_resp(resp).pop().expect("one key").1;
        self.drain(vec![(Dest::Client(id), coord, client.commit())]);
        let resp = self.resp(id);
        client.on_commit_resp(resp);
        got
    }
}

fn is_gossip(msg: &WrenMsg) -> bool {
    matches!(
        msg,
        WrenMsg::StableGossip { .. } | WrenMsg::GossipUp { .. } | WrenMsg::GossipDown { .. }
    )
}

/// A key owned by `partition`.
fn key_on(partition: u16, from: u64) -> Key {
    (from..)
        .map(Key)
        .find(|k| k.partition(PARTITIONS).0 == partition)
        .expect("some key lands on every partition")
}

/// The snapshot a transaction starting at `s` would get (Alg. 2 line 4).
fn snapshot_at(s: &WrenServer) -> (Timestamp, Timestamp) {
    let lt = s.lst();
    (lt, s.rst().min(lt.predecessor()))
}

/// (a): one commit, no tick, readable at every partition of both DCs —
/// `lst > ct` in the writer's DC, `rt ≥ ct` in the other — and read back
/// through coordinators that took no part in it.
#[test]
fn a_commit_becomes_visible_everywhere_without_a_tick() {
    let mut pump = Pump::new();
    for round in 0..4u16 {
        pump.now += 100;
        pump.reset_counts();
        // The writer's coordinator is not the key's owner, and each round
        // writes through another partition.
        let mut writer = WrenClient::new(ClientId(1 + round as u32), ServerId::new(0, round % 3));
        let key = key_on((round + 1) % PARTITIONS, 100 * round as u64);
        let value = format!("v{round}");
        let ct = pump.commit_one(&mut writer, key, value.as_bytes());
        assert!(!ct.is_zero(), "round {round}: the commit went through");

        for s in &pump.servers {
            let (lt, rt) = snapshot_at(s);
            if s.id().dc.0 == 0 {
                assert!(
                    lt > ct,
                    "round {round}: {:?} lst {lt:?} ≤ ct {ct:?}",
                    s.id()
                );
            } else {
                assert!(
                    rt >= ct,
                    "round {round}: {:?} rt {rt:?} < ct {ct:?}",
                    s.id()
                );
            }
        }
        // Readable through a coordinator in each DC that neither wrote
        // nor owns the key.
        for dc in 0..DCS {
            let coord = ServerId::new(dc, (round + 2) % PARTITIONS);
            let mut reader = WrenClient::new(ClientId(100 + round as u32 * 10 + dc as u32), coord);
            pump.reset_counts();
            let got = pump.read_one(&mut reader, key);
            assert_eq!(
                got.as_deref(),
                Some(value.as_bytes()),
                "round {round}, DC {dc}"
            );
            assert_eq!(
                pump.gossip_msgs + pump.heartbeats,
                0,
                "a read moves no clock"
            );
        }
    }
}

/// (b): the wave a commit triggers dies out at a bounded size — every
/// server advances its version clock exactly once and pushes at most
/// twice (once when its own clock moves, once when its remote minimum
/// follows).
#[test]
fn a_commit_costs_at_most_two_pushes_per_server() {
    let mut pump = Pump::new();
    let servers = pump.servers.len() as u64;
    let peers = PARTITIONS as u64 - 1;
    let siblings = DCS as u64 - 1;
    for round in 0..6u16 {
        pump.now += 250;
        let mut writer = WrenClient::new(
            ClientId(1 + round as u32),
            ServerId::new(round as u8 % DCS, round % 3),
        );
        let key = key_on((round + 1) % PARTITIONS, 100 * round as u64);
        pump.begin(&mut writer);
        pump.reset_counts();
        let advances = |pump: &Pump| -> Vec<u64> {
            let event = |s: &WrenServer| s.metrics().vv_advances_event.get();
            pump.servers.iter().map(event).collect()
        };
        let before = advances(&pump);
        writer.write([(key, Bytes::from_static(b"w"))]);
        let (id, coord) = (writer.id(), writer.coordinator());
        pump.drain(vec![(Dest::Client(id), coord, writer.commit())]);
        let resp = pump.resp(id);
        assert!(!writer.on_commit_resp(resp).is_zero());

        let moved: Vec<u64> = advances(&pump)
            .iter()
            .zip(&before)
            .map(|(a, b)| a - b)
            .collect();
        assert_eq!(
            moved,
            vec![1; servers as usize],
            "round {round}: one advance each"
        );
        assert!(
            pump.pushes.iter().all(|&p| p <= 2),
            "round {round}: pushes per server {:?}",
            pump.pushes
        );
        // So at most 2 × (N − 1) gossip and D − 1 heartbeats per server:
        // 24 + 6 here (22 + 5 measured: the data-bearing advance ships a
        // `Replicate` instead of heartbeats).
        assert!(
            pump.gossip_msgs <= servers * 2 * peers,
            "round {round}: {}",
            pump.gossip_msgs
        );
        assert!(
            pump.heartbeats <= servers * siblings,
            "round {round}: {}",
            pump.heartbeats
        );
    }
}

/// (c): once a wave has died out, `advance` has nothing to do however
/// much time passes — it never chases the physical clock.
#[test]
fn a_quiescent_cluster_advances_nothing() {
    let mut pump = Pump::new();
    let mut out = Vec::new();
    for s in &mut pump.servers {
        assert!(!s.advance(pump.now, &mut out), "a fresh server");
    }
    assert!(out.is_empty(), "{out:?}");

    let mut writer = WrenClient::new(ClientId(1), ServerId::new(0, 0));
    pump.commit_one(&mut writer, key_on(1, 0), b"x");
    for later in [0, 1, 1_000_000] {
        for s in &mut pump.servers {
            let clock = s.version_clock();
            assert!(!s.advance(pump.now + later, &mut out), "{:?}", s.id());
            s.stabilize(pump.now + later, &mut out);
            assert_eq!(s.version_clock(), clock);
        }
        assert!(out.is_empty(), "{out:?}");
    }
}

/// (d): a heard clock above a prepared proposal moves the version clock
/// only to just below the proposal; after the commit the transaction is
/// installed by the very advance that carries the clock past `ct`.
#[test]
fn a_prepared_transaction_holds_the_version_clock_below_its_proposal() {
    let mut pump = Pump::new();
    let coord = ServerId::new(0, 0);
    let cohort = ServerId::new(0, 1);
    let key = key_on(1, 0);
    let mut writer = WrenClient::new(ClientId(1), coord);
    pump.begin(&mut writer);
    writer.write([(key, Bytes::from_static(b"held"))]);

    // The commit request fans a prepare out to the cohort; hold the vote.
    let from_client = Dest::Client(writer.id());
    let fan_out = pump.turn(from_client, coord, writer.commit());
    let [(from, to, prepare)] = <[_; 1]>::try_from(fan_out).expect("one PrepareReq");
    assert_eq!(to, cohort);
    let votes = pump.turn(from, to, prepare);
    let [(from, to, vote)] = <[_; 1]>::try_from(votes).expect("one PrepareResp");
    let WrenMsg::PrepareResp { pt, .. } = vote else {
        panic!("expected PrepareResp, got {vote:?}");
    };

    // A sibling far ahead in time: the cohort hears a clock above pt.
    let heard = Timestamp::from_micros(pt.physical_micros() + 500);
    let sibling = ServerId::new(1, 1);
    let after_heartbeat = pump.turn(
        Dest::Server(sibling),
        cohort,
        WrenMsg::Heartbeat { t: heard },
    );
    let vv = pump.server(cohort).version_clock();
    assert!(vv < pt, "VV[m] {vv:?} must stay below pt {pt:?}");
    assert_eq!(vv, pt.predecessor(), "and goes as far as the pin allows");
    assert!(pump.server(cohort).store().newest(&key).is_none());

    // The vote reaches the coordinator, the commit reaches the cohort.
    let decided = pump.turn(from, to, vote);
    let commit: Vec<_> = decided
        .into_iter()
        .filter(|(_, to, m)| *to == cohort && matches!(m, WrenMsg::Commit { .. }))
        .collect();
    let [(from, to, commit)] = <[_; 1]>::try_from(commit).expect("one Commit");
    let WrenMsg::Commit { ct, .. } = commit else {
        unreachable!()
    };
    assert!(ct >= pt);
    let applied = pump.turn(from, to, commit);
    let s = pump.server(cohort);
    assert!(s.version_clock() > ct, "the advance passes ct");
    assert_eq!(
        s.store().newest(&key).map(|v| v.ut),
        Some(ct),
        "the transaction is installed by the same advance"
    );
    assert!(
        applied
            .iter()
            .any(|(_, _, m)| matches!(m, WrenMsg::Replicate { batch } if batch.ct == ct)),
        "and shipped in it"
    );

    pump.drain(after_heartbeat.into_iter().chain(applied).collect());
    let resp = pump.resp(writer.id());
    assert_eq!(writer.on_commit_resp(resp), ct);
    for s in &pump.servers {
        let (lt, rt) = snapshot_at(s);
        let seen = if s.id().dc.0 == 0 { lt } else { rt };
        assert!(seen >= ct, "{:?} cannot read ct {ct:?} at {seen:?}", s.id());
    }
}
