//! In-process update replay: controller FlowMods through `MonitorProxy`
//! with deferred planning, plans from an `EnginePool` whose jobs are built
//! exactly as the TCP proxy's planner thread builds them, and a
//! [`ModelSwitch`] standing in for the switch. Wall clock, closed loop:
//! each switch keeps `in_flight` updates outstanding until the window
//! closes, then drains.
//!
//! Transport is absent, so this isolates the `proxy`/`dynamic` layer (and
//! the planning it triggers) from `net`.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use monocle::encode::CatchSpec;
use monocle::proxy::{MonitorProxy, ProxyConfig, ProxyOutput};
use monocle::steady::SteadyConfig;
use monocle::{EnginePool, JobSpec, PoolConfig, ProbeJob};
use monocle_datasets::RuleSpec;
use monocle_openflow::SharedTable;

use crate::gates::Gates;
use crate::inputs::{self, UpdateStream};
use crate::model::{ModelSwitch, Return};
use crate::obs::Obs;
use crate::sweep::{self, POOL_WORKERS};
use crate::trace;

/// Synthetic-table shard bit, as the TCP proxy's planner sets it.
const SYNTHETIC_SHARD_BIT: u32 = 1 << 31;
/// Proxy tick period (the TCP proxy's default).
const TICK_NS: u64 = 1_000_000;

/// One switch of the replay.
pub struct ReplaySwitch {
    /// Switch id.
    pub id: u32,
    /// Rules the switch already holds (preinstalled, not probed).
    pub preload: Vec<RuleSpec>,
    /// Its controller updates.
    pub updates: UpdateStream,
}

/// Replay settings.
#[derive(Debug, Clone)]
pub struct ReplayCfg {
    /// Outstanding updates per switch.
    pub in_flight: usize,
    /// Send window.
    pub window: Duration,
    /// Give up on outstanding updates this long after the window.
    pub drain: Duration,
    /// Steady-state monitoring of every proxy.
    pub steady: Option<SteadyConfig>,
}

/// What the replay measured.
#[derive(Debug, Default)]
pub struct ReplayReport {
    /// FlowMod → confirmation, ms.
    pub ack_ms: Vec<f64>,
    /// Confirmation times, s since the replay started.
    pub ack_at_s: Vec<f64>,
    /// Confirmations.
    pub confirmed: u64,
    /// Probe-verified confirmations.
    pub verified: u64,
    /// First send → last confirmation, s.
    pub elapsed_s: f64,
    /// Steady `RuleFailed` reports (no rule is broken in a replay).
    pub rule_failed: u64,
}

struct Sw {
    id: u32,
    proxy: MonitorProxy,
    model: ModelSwitch,
    updates: UpdateStream,
    sent: HashMap<u64, u64>,
    exhausted: bool,
}

fn now_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Runs the replay.
pub fn run(
    switches: Vec<ReplaySwitch>,
    cfg: &ReplayCfg,
    gates: &mut Gates,
    obs: &mut Obs,
) -> ReplayReport {
    let catch = CatchSpec::default();
    let mut sws: Vec<Sw> = switches
        .into_iter()
        .map(|s| {
            let mut pcfg = ProxyConfig::new(s.id, catch.clone());
            if let Some(st) = &cfg.steady {
                pcfg = pcfg.with_steady(st.clone());
            }
            let mut proxy = MonitorProxy::new(pcfg);
            proxy.set_deferred_planning(true);
            let mut model = ModelSwitch::default();
            let default = inputs::default_route();
            for r in
                std::iter::once(&default).chain(s.preload.iter().filter(|r| !inputs::is_default(r)))
            {
                for o in proxy.preinstall(r.priority, r.match_, r.actions.clone()) {
                    if let ProxyOutput::ToSwitch(fm) = o {
                        let _ = model.table.apply(&fm);
                    }
                }
            }
            Sw {
                id: s.id,
                proxy,
                model,
                updates: s.updates,
                sent: HashMap::new(),
                exhausted: false,
            }
        })
        .collect();
    let pool = EnginePool::new(PoolConfig::with_workers(POOL_WORKERS));
    let mut rep = ReplayReport::default();
    let mut next_token = 1u64;
    let t0 = Instant::now();
    let window_ns = cfg.window.as_nanos() as u64;
    let deadline_ns = window_ns + cfg.drain.as_nanos() as u64;
    let mut next_tick = TICK_NS;
    let mut last_ack = 0u64;
    let mut returns: VecDeque<(usize, Return)> = VecDeque::new();
    loop {
        let now = now_ns(t0);
        let open = now < window_ns;
        if !open && sws.iter().all(|s| s.sent.is_empty()) {
            break;
        }
        if now > deadline_ns {
            for s in &sws {
                for _ in 0..s.sent.len() {
                    gates.fail("update unconfirmed at the replay deadline");
                }
            }
            break;
        }
        // Controller: top every switch up to its in-flight limit.
        for i in 0..sws.len() {
            while open && !sws[i].exhausted && sws[i].sent.len() < cfg.in_flight {
                let Some(fm) = sws[i].updates.next_update() else {
                    sws[i].exhausted = true;
                    break;
                };
                let token = next_token;
                next_token += 1;
                gates.attempt(1);
                let now = now_ns(t0);
                sws[i].sent.insert(token, now);
                let t = Instant::now();
                let out = trace::span("proxy.on_controller_flowmod", token, || {
                    sws[i].proxy.on_controller_flowmod(now, token, fm)
                });
                obs.sample("proxy.flowmod_us", t.elapsed().as_secs_f64() * 1e6);
                handle(
                    &mut sws[i],
                    i,
                    out,
                    &mut returns,
                    &mut rep,
                    &mut last_ack,
                    t0,
                    gates,
                );
            }
        }
        // Planner: one batch of everything requested so far.
        let mut jobs = Vec::new();
        let mut owners = Vec::new();
        for (i, s) in sws.iter_mut().enumerate() {
            obs.max("proxy.awaiting_plans.max", s.proxy.awaiting_plans() as f64);
            obs.max("proxy.in_flight.max", s.proxy.in_flight() as f64);
            let reqs = s.proxy.take_plan_requests();
            for req in reqs {
                jobs.push(ProbeJob {
                    switch_id: if req.synthetic {
                        s.id | SYNTHETIC_SHARD_BIT
                    } else {
                        s.id
                    },
                    table: Arc::new(SharedTable::new(req.table.clone())),
                    catch: catch.clone(),
                    spec: JobSpec::Rules(vec![req.rule_id]),
                });
                owners.push((i, req.token));
            }
        }
        if !jobs.is_empty() {
            let results = sweep::run_batch(&pool, jobs, obs);
            for ((i, token), r) in owners.into_iter().zip(results) {
                if r.panicked {
                    gates.fail("planner job panicked");
                }
                let plan = r.results.into_iter().next().and_then(Result::ok);
                let now = now_ns(t0);
                let t = Instant::now();
                let out = trace::span("proxy.attach_plan", token, || {
                    sws[i].proxy.attach_plan(now, token, plan)
                });
                obs.sample("proxy.attach_us", t.elapsed().as_secs_f64() * 1e6);
                handle(
                    &mut sws[i],
                    i,
                    out,
                    &mut returns,
                    &mut rep,
                    &mut last_ack,
                    t0,
                    gates,
                );
            }
        }
        // Probe returns.
        while let Some((i, ret)) = returns.pop_front() {
            let now = now_ns(t0);
            let t = Instant::now();
            let out = trace::span("proxy.on_probe_return", ret.meta.rule_id, || {
                sws[i]
                    .proxy
                    .on_probe_return(now, &ret.meta, ret.port, &ret.fields)
            });
            obs.sample("proxy.probe_return_us", t.elapsed().as_secs_f64() * 1e6);
            handle(
                &mut sws[i],
                i,
                out,
                &mut returns,
                &mut rep,
                &mut last_ack,
                t0,
                gates,
            );
        }
        // Tick.
        let now = now_ns(t0);
        if now >= next_tick {
            next_tick = now + TICK_NS;
            for i in 0..sws.len() {
                let t = Instant::now();
                let out = trace::span("proxy.on_tick", u64::from(sws[i].id), || {
                    sws[i].proxy.on_tick(now)
                });
                obs.sample("proxy.tick_us", t.elapsed().as_secs_f64() * 1e6);
                handle(
                    &mut sws[i],
                    i,
                    out,
                    &mut returns,
                    &mut rep,
                    &mut last_ack,
                    t0,
                    gates,
                );
            }
        }
    }
    rep.elapsed_s = last_ack as f64 / 1e9;
    for s in &sws {
        if let Some(st) = s.proxy.steady_sched_stats() {
            obs.add("sched.released", st.released as f64);
        }
    }
    rep
}

#[allow(clippy::too_many_arguments)]
fn handle(
    sw: &mut Sw,
    idx: usize,
    out: Vec<ProxyOutput>,
    returns: &mut VecDeque<(usize, Return)>,
    rep: &mut ReplayReport,
    last_ack: &mut u64,
    t0: Instant,
    gates: &mut Gates,
) {
    for o in out {
        match o {
            ProxyOutput::ToSwitch(fm) => {
                let _ = sw.model.table.apply(&fm);
            }
            ProxyOutput::Inject(inj) => {
                returns.extend(sw.model.answer(&inj).into_iter().map(|r| (idx, r)));
            }
            ProxyOutput::Confirmed { token, verified } => {
                if let Some(sent) = sw.sent.remove(&token) {
                    let now = now_ns(t0);
                    rep.ack_ms.push(now.saturating_sub(sent) as f64 / 1e6);
                    rep.ack_at_s.push(now as f64 / 1e9);
                    rep.confirmed += 1;
                    rep.verified += u64::from(verified);
                    *last_ack = now;
                }
            }
            ProxyOutput::Alarm { token } => {
                sw.sent.remove(&token);
                gates.fail("update alarmed");
            }
            // No rule ever breaks in the replay's model: a report here is
            // steady monitoring probing with plans older than the churn.
            // The TCP proxy ignores these outputs; the replay counts them.
            ProxyOutput::RuleFailed { .. } => rep.rule_failed += 1,
            ProxyOutput::RuleRecovered { .. } => {}
        }
    }
}
