//! The TCP deployment: controller ⇄ `ProxyApp` ⇄ switches over loopback.
//!
//! The load generator is one [`Driver`] on one event-loop thread that plays
//! both the upstream controller and the switch fleet (one session per
//! switch). It runs a closed loop: each switch keeps `in_flight` updates
//! outstanding; a new one is sent when a confirmation (`BarrierReply` with
//! the FlowMod's xid) or an alarm (`Error`) comes back, until the window
//! closes.
//!
//! The proxy re-stamps the xid of every FlowMod it forwards, so the switch
//! side pairs a forwarded FlowMod with its controller update by content
//! (command, priority, match, actions), first-in first-out per switch. A
//! switch installs a FlowMod `install_latency` after it arrives; a
//! confirmation for an update the switch has not installed yet is a false
//! confirmation.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::time::Duration;

use monocle::steady::SteadyConfig;
use monocle::PoolConfig;
use monocle_net::{
    ConnId, Driver, EventLoop, IoCtx, ProxyApp, ProxyAppConfig, SessionStats, TransportEvent,
};
use monocle_openflow::flowmatch::{headervec_to_packet, packet_to_headervec};
use monocle_openflow::messages::{PacketInReason, PORT_TABLE};
use monocle_openflow::{Action, FlowTable, OfMessage};

use crate::gates::Gates;
use crate::inputs::{flowmod_key, FlowModKey, UpdateStream};
use crate::obs::Obs;
use crate::sweep::POOL_WORKERS;
use crate::trace;

/// Failure reason of a confirmation that arrived before the switch
/// installed the update (a false confirmation).
pub const EARLY_ACK: &str = "false confirmation: acked before the switch installed it";

const WINDOW_TOKEN: u64 = u64::MAX;
const DEADLINE_TOKEN: u64 = u64::MAX - 1;
const HARD_STOP_TOKEN: u64 = u64::MAX - 2;
/// How long shutdown waits for the proxy to close its upstream channels.
const HARD_STOP_NS: u64 = 5_000_000_000;

/// Deployment settings.
#[derive(Debug, Clone)]
pub struct TcpCfg {
    /// Outstanding updates per switch.
    pub in_flight: usize,
    /// Simulated rule-installation latency.
    pub install_latency: Duration,
    /// Send window after every session is up.
    pub window: Duration,
    /// Outstanding updates still unconfirmed this long after the window
    /// are failures.
    pub drain: Duration,
    /// Steady-state monitoring on the proxy.
    pub steady: Option<SteadyConfig>,
}

/// One switch of the deployment.
pub struct TcpSwitch {
    /// Datapath id.
    pub dpid: u64,
    /// Its controller updates.
    pub updates: UpdateStream,
}

/// What the deployment measured.
#[derive(Debug, Default)]
pub struct TcpReport {
    /// Setup: event loops, proxy and sessions up to the last handshake, s.
    pub setup_s: f64,
    /// FlowMod send → BarrierReply, ms.
    pub ack_ms: Vec<f64>,
    /// Confirmation times, s since the window opened.
    pub ack_at_s: Vec<f64>,
    /// Confirmations.
    pub confirmed: u64,
    /// First send → last confirmation, s.
    pub elapsed_s: f64,
    /// Proxy per-session counters.
    pub sessions: Vec<SessionStats>,
}

struct Update {
    sent: u64,
    arrived: Option<u64>,
    installed: Option<u64>,
}

struct Sw {
    dpid: u64,
    updates: UpdateStream,
    exhausted: bool,
    /// Switch-side session (dialed to the proxy).
    sw_conn: Option<ConnId>,
    /// Controller-side channel (accepted from the proxy).
    ctl_conn: Option<ConnId>,
    table: FlowTable,
    pending_installs: usize,
    queued_barriers: Vec<u32>,
    outstanding: HashMap<u32, Update>,
    by_key: HashMap<FlowModKey, VecDeque<u32>>,
}

struct Fleet {
    cfg: TcpCfg,
    sws: Vec<Sw>,
    by_conn: HashMap<ConnId, usize>,
    installs: HashMap<u64, (usize, monocle_openflow::FlowMod, Option<u32>)>,
    next_token: u64,
    next_xid: u32,
    open: bool,
    started: bool,
    ready_at: u64,
    first_send: u64,
    last_ack: u64,
    closing: bool,
    gates: Gates,
    obs: Obs,
    ack_ms: Vec<f64>,
    ack_at: Vec<u64>,
}

impl Fleet {
    fn send_next(&mut self, ctx: &mut IoCtx<'_>, i: usize) {
        while self.open
            && !self.sws[i].exhausted
            && self.sws[i].outstanding.len() < self.cfg.in_flight
        {
            let Some(fm) = self.sws[i].updates.next_update() else {
                self.sws[i].exhausted = true;
                break;
            };
            let Some(cc) = self.sws[i].ctl_conn else {
                return;
            };
            let xid = self.next_xid;
            self.next_xid += 1;
            let now = trace::now_ns();
            if self.first_send == 0 {
                self.first_send = now;
            }
            self.sws[i]
                .by_key
                .entry(flowmod_key(&fm))
                .or_default()
                .push_back(xid);
            self.sws[i].outstanding.insert(
                xid,
                Update {
                    sent: now,
                    arrived: None,
                    installed: None,
                },
            );
            self.gates.attempt(1);
            let _ = ctx.send(cc, &OfMessage::FlowMod(fm), xid);
        }
    }

    fn all_drained(&self) -> bool {
        self.sws.iter().all(|s| s.outstanding.is_empty())
    }

    fn shutdown(&mut self, ctx: &mut IoCtx<'_>) {
        if self.closing {
            return;
        }
        self.closing = true;
        ctx.schedule_in(HARD_STOP_NS, HARD_STOP_TOKEN);
        for s in &mut self.sws {
            for _ in 0..s.outstanding.len() {
                self.gates.fail("update unconfirmed at the deadline");
            }
            s.outstanding.clear();
            if let Some(c) = s.sw_conn.take() {
                ctx.close(c);
            }
        }
        self.maybe_stop(ctx);
    }

    fn maybe_stop(&mut self, ctx: &mut IoCtx<'_>) {
        if self.closing
            && self
                .sws
                .iter()
                .all(|s| s.ctl_conn.is_none() && s.sw_conn.is_none())
        {
            ctx.stop();
        }
    }

    fn on_ack(&mut self, ctx: &mut IoCtx<'_>, i: usize, xid: u32, alarm: bool) {
        let Some(u) = self.sws[i].outstanding.remove(&xid) else {
            return;
        };
        let now = trace::now_ns();
        if alarm {
            self.gates.fail("update alarmed");
        } else if u.installed.is_none() {
            self.gates.fail(EARLY_ACK);
        } else {
            self.ack_ms.push((now - u.sent) as f64 / 1e6);
            self.ack_at.push(now);
            self.last_ack = now;
        }
        if let (Some(arr), Some(inst)) = (u.arrived, u.installed) {
            self.obs
                .sample("net.forward_ms", (arr - u.sent) as f64 / 1e6);
            if !alarm {
                self.obs
                    .sample("net.confirm_ms", now.saturating_sub(inst) as f64 / 1e6);
            }
            if trace::enabled() {
                let req = (self.sws[i].dpid << 32) | u64::from(xid);
                let root = trace::record("ctl.update", req, u.sent, now, 0);
                trace::record("net.forward", req, u.sent, arr, root);
                trace::record("switch.install", req, arr, inst, root);
                trace::record("monocle.confirm", req, inst.min(now), now, root);
            }
        }
        if self.open {
            self.send_next(ctx, i);
        } else if self.all_drained() {
            self.shutdown(ctx);
        }
    }

    fn on_switch_msg(
        &mut self,
        ctx: &mut IoCtx<'_>,
        i: usize,
        conn: ConnId,
        msg: OfMessage,
        xid: u32,
    ) {
        let sw = &mut self.sws[i];
        match msg {
            OfMessage::FeaturesRequest => {
                let _ = ctx.send(
                    conn,
                    &OfMessage::FeaturesReply {
                        datapath_id: sw.dpid,
                        n_tables: 1,
                        ports: (1..=8).collect(),
                    },
                    xid,
                );
            }
            OfMessage::EchoRequest(data) => {
                let _ = ctx.send(conn, &OfMessage::EchoReply(data), xid);
            }
            OfMessage::FlowMod(fm) => {
                let now = trace::now_ns();
                let key = flowmod_key(&fm);
                let owner = sw.by_key.get_mut(&key).and_then(VecDeque::pop_front);
                if sw.by_key.get(&key).is_some_and(VecDeque::is_empty) {
                    sw.by_key.remove(&key);
                }
                if let Some(x) = owner {
                    if let Some(u) = sw.outstanding.get_mut(&x) {
                        u.arrived = Some(now);
                    }
                }
                sw.pending_installs += 1;
                let token = self.next_token;
                self.next_token += 1;
                self.installs.insert(token, (i, fm, owner));
                ctx.schedule_in(self.cfg.install_latency.as_nanos() as u64, token);
            }
            OfMessage::BarrierRequest => {
                if sw.pending_installs == 0 {
                    let _ = ctx.send(conn, &OfMessage::BarrierReply, xid);
                } else {
                    sw.queued_barriers.push(xid);
                }
            }
            OfMessage::PacketOut {
                in_port,
                actions,
                data,
            } => {
                if !actions.contains(&Action::Output(PORT_TABLE)) {
                    return;
                }
                let Ok((fields, payload)) = monocle_packet::parse_packet(&data) else {
                    return;
                };
                let hdr = packet_to_headervec(in_port, &fields);
                for (port, out) in sw.table.process(&hdr, 0) {
                    let Ok(frame) =
                        monocle_packet::craft_packet(&headervec_to_packet(&out), &payload)
                    else {
                        continue;
                    };
                    let _ = ctx.send(
                        conn,
                        &OfMessage::PacketIn {
                            buffer_id: 0xffff_ffff,
                            in_port: port,
                            reason: PacketInReason::Action,
                            data: frame,
                        },
                        xid,
                    );
                }
            }
            _ => {}
        }
    }

    fn finish_install(&mut self, ctx: &mut IoCtx<'_>, token: u64) {
        let Some((i, fm, owner)) = self.installs.remove(&token) else {
            return;
        };
        let sw = &mut self.sws[i];
        let _ = sw.table.apply(&fm);
        if let Some(u) = owner.and_then(|x| sw.outstanding.get_mut(&x)) {
            u.installed = Some(trace::now_ns());
        }
        sw.pending_installs -= 1;
        if sw.pending_installs == 0 {
            if let Some(c) = sw.sw_conn {
                for xid in std::mem::take(&mut sw.queued_barriers) {
                    let _ = ctx.send(c, &OfMessage::BarrierReply, xid);
                }
            }
        }
    }

    fn on_ctl_msg(&mut self, ctx: &mut IoCtx<'_>, conn: ConnId, msg: OfMessage, xid: u32) {
        match msg {
            OfMessage::FeaturesReply { datapath_id, .. } => {
                let Some(i) = self.sws.iter().position(|s| s.dpid == datapath_id) else {
                    return;
                };
                self.sws[i].ctl_conn = Some(conn);
                self.by_conn.insert(conn, i);
                if self.sws.iter().all(|s| s.ctl_conn.is_some()) && !self.started {
                    self.started = true;
                    self.ready_at = trace::now_ns();
                    if self.cfg.window.is_zero() {
                        // Set-up-only deployment.
                        self.shutdown(ctx);
                        return;
                    }
                    self.open = true;
                    ctx.schedule_in(self.cfg.window.as_nanos() as u64, WINDOW_TOKEN);
                    ctx.schedule_in(
                        (self.cfg.window + self.cfg.drain).as_nanos() as u64,
                        DEADLINE_TOKEN,
                    );
                    for i in 0..self.sws.len() {
                        self.send_next(ctx, i);
                    }
                }
            }
            OfMessage::EchoRequest(data) => {
                let _ = ctx.send(conn, &OfMessage::EchoReply(data), xid);
            }
            _ => {}
        }
    }
}

impl Driver for Fleet {
    fn handle(&mut self, ctx: &mut IoCtx<'_>, ev: TransportEvent) {
        match ev {
            TransportEvent::Accepted { conn, .. } => {
                // The proxy dialing upstream for one switch session.
                let _ = ctx.send(conn, &OfMessage::Hello, 0);
                let xid = self.next_xid;
                self.next_xid += 1;
                let _ = ctx.send(conn, &OfMessage::FeaturesRequest, xid);
            }
            TransportEvent::Connected { conn } => {
                if let Some(&i) = self.by_conn.get(&conn) {
                    let _ = ctx.send(conn, &OfMessage::Hello, 0);
                    self.sws[i].sw_conn = Some(conn);
                }
            }
            TransportEvent::Message { conn, msg, xid } => {
                let Some(&i) = self.by_conn.get(&conn) else {
                    // Controller channel before its FeaturesReply.
                    self.on_ctl_msg(ctx, conn, msg, xid);
                    return;
                };
                if self.sws[i].sw_conn == Some(conn) {
                    self.on_switch_msg(ctx, i, conn, msg, xid);
                } else {
                    match msg {
                        OfMessage::BarrierReply => self.on_ack(ctx, i, xid, false),
                        OfMessage::Error { .. } => self.on_ack(ctx, i, xid, true),
                        other => self.on_ctl_msg(ctx, conn, other, xid),
                    }
                }
            }
            TransportEvent::Timer {
                token: WINDOW_TOKEN,
            } => {
                self.open = false;
                if self.all_drained() {
                    self.shutdown(ctx);
                }
            }
            TransportEvent::Timer {
                token: DEADLINE_TOKEN,
            } => self.shutdown(ctx),
            TransportEvent::Timer {
                token: HARD_STOP_TOKEN,
            } => {
                self.gates.fail("proxy did not close its sessions");
                ctx.stop();
            }
            TransportEvent::Timer { token } => self.finish_install(ctx, token),
            TransportEvent::Closed { conn } => {
                if let Some(i) = self.by_conn.remove(&conn) {
                    let s = &mut self.sws[i];
                    if s.ctl_conn == Some(conn) {
                        s.ctl_conn = None;
                    }
                    if s.sw_conn == Some(conn) {
                        s.sw_conn = None;
                    }
                }
                if !self.closing {
                    self.gates.fail("connection closed during the run");
                    self.shutdown(ctx);
                }
                self.maybe_stop(ctx);
            }
            _ => {}
        }
    }
}

/// Runs the deployment. Spans recorded on the load-generator thread are
/// returned with the report.
pub fn run(
    switches: Vec<TcpSwitch>,
    cfg: &TcpCfg,
    gates: &mut Gates,
    obs: &mut Obs,
) -> std::io::Result<(TcpReport, Vec<trace::Span>)> {
    let t_setup = trace::now_ns();
    let mut fleet_loop = EventLoop::new()?;
    let mut fleet = Fleet {
        cfg: cfg.clone(),
        sws: switches
            .into_iter()
            .map(|s| Sw {
                dpid: s.dpid,
                updates: s.updates,
                exhausted: false,
                sw_conn: None,
                ctl_conn: None,
                table: FlowTable::new(),
                pending_installs: 0,
                queued_barriers: Vec::new(),
                outstanding: HashMap::new(),
                by_key: HashMap::new(),
            })
            .collect(),
        by_conn: HashMap::new(),
        installs: HashMap::new(),
        next_token: 0,
        next_xid: 1,
        open: false,
        started: false,
        ready_at: 0,
        first_send: 0,
        last_ack: 0,
        closing: false,
        gates: Gates::default(),
        obs: Obs::default(),
        ack_ms: Vec::new(),
        ack_at: Vec::new(),
    };
    let ctl_addr: SocketAddr = fleet_loop.with_ctx(|ctx| {
        let l = ctx.listen("127.0.0.1:0")?;
        ctx.listener_addr(l)
    })?;

    let mut proxy_loop = EventLoop::new()?;
    let mut pcfg = ProxyAppConfig::new(ctl_addr);
    pcfg.pool = PoolConfig::with_workers(POOL_WORKERS);
    pcfg.steady = cfg.steady.clone();
    let mut proxy = ProxyApp::new(pcfg, proxy_loop.waker());
    let proxy_stats = proxy.stats();
    let proxy_addr = proxy_loop.with_ctx(|ctx| proxy.start(ctx))?;
    fleet_loop.with_ctx(|ctx| -> std::io::Result<()> {
        for i in 0..fleet.sws.len() {
            let c = ctx.connect(proxy_addr)?;
            fleet.by_conn.insert(c, i);
        }
        Ok(())
    })?;

    let pt = std::thread::spawn(move || proxy_loop.run(&mut proxy));
    let ft = std::thread::spawn(move || {
        let r = fleet_loop.run(&mut fleet);
        let spans = trace::take_thread();
        r.map(|()| (fleet, spans))
    });
    let fleet_result = ft.join().expect("load generator thread panicked");
    let proxy_result = pt.join().expect("proxy thread panicked");
    let (fleet, spans) = fleet_result?;
    proxy_result?;

    let mut rep = TcpReport {
        setup_s: (fleet.ready_at.saturating_sub(t_setup)) as f64 / 1e9,
        confirmed: fleet.ack_ms.len() as u64,
        elapsed_s: fleet.last_ack.saturating_sub(fleet.first_send) as f64 / 1e9,
        ack_ms: fleet.ack_ms,
        ack_at_s: fleet
            .ack_at
            .iter()
            .map(|&t| t.saturating_sub(fleet.ready_at) as f64 / 1e9)
            .collect(),
        sessions: proxy_stats
            .lock()
            .expect("proxy stats lock")
            .values()
            .cloned()
            .collect(),
    };
    rep.sessions.sort_by_key(|s| s.dpid);
    gates.merge(fleet.gates);
    for name in ["net.forward_ms", "net.confirm_ms"] {
        for &v in fleet.obs.samples(name) {
            obs.sample(name, v);
        }
    }
    Ok((rep, spans))
}
