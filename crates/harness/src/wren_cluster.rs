//! Simulator adapters for the Wren protocol: server nodes and closed-loop
//! client-process nodes.

use crate::cluster::{Envelope, Layout, TIMER_GC, TIMER_GOSSIP, TIMER_REPL};
use crate::{Histogram, ServiceModel};
use std::any::Any;
use wren_core::{WrenClient, WrenServer};
use wren_protocol::{Dest, Outgoing, WrenMsg};
use wren_sim::{Context, Node, NodeId};
use wren_workload::{TxShape, Workload};

/// Tick intervals handed to server nodes.
#[derive(Debug, Clone, Copy)]
pub struct Ticks {
    /// Δ_R in µs.
    pub replication: u64,
    /// Δ_G in µs.
    pub gossip: u64,
    /// GC interval in µs (0 disables).
    pub gc: u64,
}

/// A Wren partition server wrapped as a simulator node: charges CPU per
/// the [`ServiceModel`], re-arms its own periodic timers, and routes
/// state-machine outputs through the [`Layout`].
///
/// Stabilization runs at the paper's cadence — on the gossip timer only,
/// never through [`WrenServer::stabilize`] — so the Fig. 3 / Fig. 7b
/// reproductions compare Wren and Cure at the same Δ_G.
pub struct WrenServerNode {
    /// The protocol state machine.
    pub server: WrenServer,
    svc: ServiceModel,
    layout: Layout,
    ticks: Ticks,
}

impl WrenServerNode {
    /// Wraps `server` for simulation.
    pub fn new(server: WrenServer, svc: ServiceModel, layout: Layout, ticks: Ticks) -> Self {
        WrenServerNode {
            server,
            svc,
            layout,
            ticks,
        }
    }

    fn forward(&self, out: Vec<Outgoing<WrenMsg>>, ctx: &mut Context<'_, Envelope<WrenMsg>>) {
        let src = Dest::Server(self.server.id());
        for Outgoing { to, msg } in out {
            ctx.send(
                self.layout.node_of(to),
                Envelope { src, dst: to, msg },
            );
        }
    }
}

impl Node<Envelope<WrenMsg>> for WrenServerNode {
    fn service_micros(&self, env: &Envelope<WrenMsg>) -> u64 {
        self.svc
            .wren_cost(&env.msg, self.server.id().partition.0, self.layout.n)
    }

    fn timer_service_micros(&self, kind: u32) -> u64 {
        match kind {
            TIMER_REPL => self.svc.tick_base,
            TIMER_GOSSIP => self.svc.gossip_tick,
            TIMER_GC => self.svc.gc_tick,
            _ => 0,
        }
    }

    fn on_message(
        &mut self,
        _from: NodeId,
        env: Envelope<WrenMsg>,
        ctx: &mut Context<'_, Envelope<WrenMsg>>,
    ) {
        let mut out = Vec::new();
        self.server
            .handle(env.src, env.msg, ctx.now().as_micros(), &mut out);
        self.forward(out, ctx);
    }

    fn on_timer(&mut self, kind: u32, ctx: &mut Context<'_, Envelope<WrenMsg>>) {
        let now = ctx.now().as_micros();
        let mut out = Vec::new();
        match kind {
            TIMER_REPL => {
                let applied = self.server.on_replication_tick(now, &mut out);
                ctx.consume(applied as u64 * self.svc.apply_per_version);
                ctx.set_timer(self.ticks.replication, TIMER_REPL);
            }
            TIMER_GOSSIP => {
                self.server.on_gossip_tick(now, &mut out);
                ctx.set_timer(self.ticks.gossip, TIMER_GOSSIP);
            }
            TIMER_GC => {
                self.server.on_gc_tick(now, &mut out);
                if self.ticks.gc > 0 {
                    ctx.set_timer(self.ticks.gc, TIMER_GC);
                }
            }
            other => debug_assert!(false, "unknown timer kind {other}"),
        }
        self.forward(out, ctx);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// One closed-loop client session inside a client process.
struct Session {
    client: WrenClient,
    shape: TxShape,
    tx_start_micros: u64,
    seq: u32,
}

/// A client process: `threads` closed-loop sessions collocated with one
/// coordinator partition, mirroring the paper's load generators (§V-A).
///
/// Latency is recorded per committed transaction once the warm-up window
/// has passed.
pub struct WrenClientNode {
    layout: Layout,
    workload: Workload,
    sessions: Vec<Session>,
    warmup_end_micros: u64,
    /// Committed-transaction latencies inside the measurement window.
    pub latencies: Histogram,
    /// Transactions committed inside the measurement window.
    pub committed: u64,
}

impl WrenClientNode {
    /// Creates the client process at `(dc, partition)` with one session
    /// per thread.
    pub fn new(
        dc: u8,
        partition: u16,
        layout: Layout,
        workload: Workload,
        warmup_end_micros: u64,
    ) -> Self {
        let coordinator = wren_protocol::ServerId::new(dc, partition);
        let sessions = (0..layout.threads)
            .map(|t| Session {
                client: WrenClient::new(layout.client_id(dc, partition, t), coordinator),
                shape: TxShape {
                    reads: Vec::new(),
                    writes: Vec::new(),
                },
                tx_start_micros: 0,
                seq: 0,
            })
            .collect();
        WrenClientNode {
            layout,
            workload,
            sessions,
            warmup_end_micros,
            latencies: Histogram::new(),
            committed: 0,
        }
    }

    fn send_to_coordinator(
        &self,
        session: usize,
        msg: WrenMsg,
        ctx: &mut Context<'_, Envelope<WrenMsg>>,
    ) {
        let s = &self.sessions[session];
        let coord = s.client.coordinator();
        ctx.send(
            self.layout.server_node(coord),
            Envelope {
                src: Dest::Client(s.client.id()),
                dst: Dest::Server(coord),
                msg,
            },
        );
    }

    fn begin_tx(&mut self, session: usize, ctx: &mut Context<'_, Envelope<WrenMsg>>) {
        let shape = self.workload.sample_tx(ctx.rng());
        let s = &mut self.sessions[session];
        s.shape = shape;
        s.tx_start_micros = ctx.now().as_micros();
        let msg = s.client.start();
        self.send_to_coordinator(session, msg, ctx);
    }

    fn issue_reads(&mut self, session: usize, ctx: &mut Context<'_, Envelope<WrenMsg>>) {
        let s = &mut self.sessions[session];
        let keys = s.shape.reads.clone();
        let outcome = s.client.read(&keys);
        match outcome.request {
            Some(req) => self.send_to_coordinator(session, req, ctx),
            None => self.write_and_commit(session, ctx),
        }
    }

    fn write_and_commit(&mut self, session: usize, ctx: &mut Context<'_, Envelope<WrenMsg>>) {
        let client_id = self.sessions[session].client.id().0;
        let s = &mut self.sessions[session];
        s.seq += 1;
        let seq = s.seq;
        let writes: Vec<_> = s
            .shape
            .writes
            .iter()
            .map(|k| (*k, self.workload.make_value(client_id, seq)))
            .collect();
        s.client.write(writes);
        let msg = s.client.commit();
        self.send_to_coordinator(session, msg, ctx);
    }
}

impl Node<Envelope<WrenMsg>> for WrenClientNode {
    fn on_message(
        &mut self,
        _from: NodeId,
        env: Envelope<WrenMsg>,
        ctx: &mut Context<'_, Envelope<WrenMsg>>,
    ) {
        let Dest::Client(cid) = env.dst else {
            debug_assert!(false, "server-bound message delivered to client node");
            return;
        };
        let session = self.layout.session_of(cid);
        match env.msg {
            msg @ WrenMsg::StartTxResp { .. } => {
                self.sessions[session].client.on_start_resp(msg);
                self.issue_reads(session, ctx);
            }
            msg @ WrenMsg::TxReadResp { .. } => {
                let _ = self.sessions[session].client.on_read_resp(msg);
                self.write_and_commit(session, ctx);
            }
            msg @ WrenMsg::CommitResp { .. } => {
                let _ = self.sessions[session].client.on_commit_resp(msg);
                let now = ctx.now().as_micros();
                if now >= self.warmup_end_micros {
                    self.latencies
                        .record(now - self.sessions[session].tx_start_micros);
                    self.committed += 1;
                }
                self.begin_tx(session, ctx);
            }
            other => debug_assert!(false, "unexpected client message {other:?}"),
        }
    }

    fn on_timer(&mut self, kind: u32, ctx: &mut Context<'_, Envelope<WrenMsg>>) {
        // Session kickoff.
        self.begin_tx(kind as usize, ctx);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}
