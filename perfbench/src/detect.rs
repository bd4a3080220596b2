//! Breakage detection on a simulated clock.
//!
//! A `MonitorProxy` with adaptive steady monitoring at 500 probes/s holds
//! the workload's table; a [`ModelSwitch`] answers its probes after a fixed
//! RTT. The controller modifies hot rules (10% of the table) through the
//! proxy in periodic bursts, which marks them recently modified for the
//! scheduler; after each burst rules break silently in the model, 80% of
//! them among the rules the burst just modified (the `scheduler` bench's
//! modify-churn pattern). A detected rule is repaired in the model and may
//! break again once the monitor saw it recover, so the table stays in a
//! steady state over long horizons. Measured: breakage →
//! `ProxyOutput::RuleFailed`, in simulated ms. The clock is simulated, so
//! every number except wall time repeats exactly for a seed.

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

use monocle::encode::CatchSpec;
use monocle::proxy::{MonitorProxy, ProxyConfig, ProxyOutput};
use monocle::steady::SteadyConfig;
use monocle_datasets::RuleSpec;
use monocle_openflow::{Action, FlowMod, Match, RuleId};
use monocle_sched::SchedConfig;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::gates::Gates;
use crate::inputs::{self, sub_seed};
use crate::model::{ModelSwitch, Return};
use crate::obs::Obs;
use crate::trace;

const MS: u64 = 1_000_000;
/// Steady probe budget: one probe per 2 ms (500 probes/s, §3).
const PROBE_INTERVAL: u64 = 2 * MS;

/// Detection-phase settings.
#[derive(Debug, Clone)]
pub struct DetectCfg {
    /// Simulated time during which rules are modified and broken.
    pub horizon_ms: u64,
    /// Extra simulated time for the last breakages to be detected.
    pub tail_ms: u64,
    /// Period of hot-rule modification bursts.
    pub burst_every_ms: u64,
    /// Hot rules modified per burst.
    pub burst: usize,
    /// Breakages after each burst, at these offsets from it.
    pub break_offsets_ms: Vec<u64>,
    /// Probe round-trip time.
    pub rtt_ms: u64,
}

/// What the phase measured.
#[derive(Debug, Default)]
pub struct DetectReport {
    /// Breakage → RuleFailed, simulated ms.
    pub detect_ms: Vec<f64>,
    /// Modify → confirmation, simulated ms.
    pub ack_ms: Vec<f64>,
    /// Confirmations (verified or optimistic).
    pub confirmed: u64,
    /// Probe-verified confirmations.
    pub verified: u64,
    /// Wall time of the simulation, s.
    pub wall_s: f64,
    /// Monitorable rules with a plan after the initial refresh.
    pub found: usize,
    /// Monitorable rules.
    pub monitorable: usize,
}

/// The steady configuration every phase uses: adaptive scheduling at 500
/// probes/s with the staleness SLO equal to a fixed sweep's cycle time.
pub fn steady_config(rules: usize) -> SteadyConfig {
    SteadyConfig {
        probe_interval: PROBE_INTERVAL,
        adaptive: Some(SchedConfig {
            slo_ns: (rules as u64 * PROBE_INTERVAL).max(100 * MS),
            ..SchedConfig::default()
        }),
        ..SteadyConfig::default()
    }
}

/// The monitored switch: a proxy holding `rules` (preinstalled, plans not
/// yet generated) and the model data plane with the same rules.
pub fn build(rules: &[RuleSpec]) -> (MonitorProxy, ModelSwitch) {
    let prod: Vec<&RuleSpec> = rules.iter().filter(|r| !inputs::is_default(r)).collect();
    let pcfg = ProxyConfig::new(1, CatchSpec::default()).with_steady(steady_config(prod.len()));
    let mut proxy = MonitorProxy::new(pcfg);
    proxy.set_external_steady_refresh(true);
    let mut model = ModelSwitch::default();
    let default = inputs::default_route();
    for r in std::iter::once(&default).chain(prod.iter().copied()) {
        for o in proxy.preinstall(r.priority, r.match_, r.actions.clone()) {
            if let ProxyOutput::ToSwitch(fm) = o {
                let _ = model.table.apply(&fm);
            }
        }
    }
    (proxy, model)
}

/// Runs the phase over `rules` (preinstalled; the default rule is the
/// proxy's own default route).
pub fn run(
    rules: &[RuleSpec],
    cfg: &DetectCfg,
    seed: u64,
    gates: &mut Gates,
    obs: &mut Obs,
) -> DetectReport {
    let wall = Instant::now();
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0xde7e));
    let prod: Vec<&RuleSpec> = rules.iter().filter(|r| !inputs::is_default(r)).collect();
    let (mut proxy, mut model) = build(rules);
    let mut rep = DetectReport::default();
    let (found, total) = refresh(&mut proxy, obs);
    rep.found = found;
    rep.monitorable = total;

    // Rule identity is (priority, match); RuleIds differ between the
    // proxy's expected table and the model.
    let key_of = |proxy: &MonitorProxy, id: RuleId| -> Option<(u16, Match)> {
        proxy.expected().get(id).map(|r| (r.priority, r.match_))
    };
    let n_hot = (prod.len() / 10).max(1);
    let mut order: Vec<usize> = (0..prod.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    let hot: Vec<(u16, Match)> = order[..n_hot]
        .iter()
        .map(|&i| (prod[i].priority, prod[i].match_))
        .collect();
    let all: Vec<(u16, Match)> = prod.iter().map(|r| (r.priority, r.match_)).collect();

    // Rules broken in the model and not yet reported; rules reported and
    // repaired but not yet seen recovering (ineligible to break again).
    let mut broken: HashMap<(u16, Match), u64> = HashMap::new();
    let mut recovering: HashSet<(u16, Match)> = HashSet::new();
    let mut last_burst: Vec<(u16, Match)> = Vec::new();
    let mut breaks_due: VecDeque<u64> = VecDeque::new();
    let mut sent: HashMap<u64, u64> = HashMap::new();
    let mut in_transit: VecDeque<(u64, Return)> = VecDeque::new();
    let mut next_token = 1u64;
    let horizon = cfg.horizon_ms * MS;
    let end = horizon + cfg.tail_ms * MS;
    let mut now = 0u64;
    while now <= end {
        let mut out: Vec<ProxyOutput> = Vec::new();
        if now < horizon && now > 0 && now.is_multiple_of(cfg.burst_every_ms * MS) {
            last_burst.clear();
            for _ in 0..cfg.burst {
                let k = hot[rng.random_range(0..hot.len())];
                // A modify would silently re-install a broken rule.
                if broken.contains_key(&k) || last_burst.contains(&k) {
                    continue;
                }
                let fm = FlowMod::modify_strict(
                    k.0,
                    k.1,
                    vec![Action::Output(rng.random_range(3..=16u16))],
                );
                gates.attempt(1);
                let token = next_token;
                next_token += 1;
                sent.insert(token, now);
                let t = Instant::now();
                out.extend(trace::span("proxy.on_controller_flowmod", token, || {
                    proxy.on_controller_flowmod(now, token, fm)
                }));
                obs.sample("proxy.flowmod_us", t.elapsed().as_secs_f64() * 1e6);
                last_burst.push(k);
            }
            breaks_due.extend(cfg.break_offsets_ms.iter().map(|&o| now + o * MS));
        }
        // A breakage fires once the proxy is quiet (no update in flight, plans
        // current), so its target is known monitorable when it breaks.
        let quiet = sent.is_empty() && proxy.in_flight() == 0 && !proxy.steady_needs_refresh();
        if quiet && breaks_due.front().is_some_and(|&t| t <= now) {
            breaks_due.pop_front();
            let correlated = rng.random_range(0..10) < 8 && !last_burst.is_empty();
            let pool: &[(u16, Match)] = if correlated { &last_burst } else { &all };
            let unmonitorable: HashSet<(u16, Match)> = proxy
                .unmonitorable
                .iter()
                .filter_map(|&id| key_of(&proxy, id))
                .collect();
            for _ in 0..64 {
                let k = pool[rng.random_range(0..pool.len())];
                if broken.contains_key(&k) || recovering.contains(&k) || unmonitorable.contains(&k)
                {
                    continue;
                }
                if model.break_rule(k.0, &k.1) {
                    broken.insert(k, now);
                    gates.attempt(1);
                }
                break;
            }
        }
        while in_transit.front().is_some_and(|&(t, _)| t <= now) {
            let (_, ret) = in_transit.pop_front().expect("non-empty");
            let t = Instant::now();
            out.extend(trace::span(
                "proxy.on_probe_return",
                ret.meta.rule_id,
                || proxy.on_probe_return(now, &ret.meta, ret.port, &ret.fields),
            ));
            obs.sample("proxy.probe_return_us", t.elapsed().as_secs_f64() * 1e6);
        }
        if proxy.steady_needs_refresh() {
            refresh(&mut proxy, obs);
        }
        let t = Instant::now();
        out.extend(trace::span("steady.on_tick", now, || proxy.on_tick(now)));
        obs.sample("steady.tick_us", t.elapsed().as_secs_f64() * 1e6);
        for o in out {
            match o {
                ProxyOutput::ToSwitch(fm) => {
                    let _ = model.table.apply(&fm);
                }
                ProxyOutput::Inject(inj) => {
                    obs.add("steady.probes", 1.0);
                    for r in model.answer(&inj) {
                        in_transit.push_back((now + cfg.rtt_ms * MS, r));
                    }
                }
                ProxyOutput::Confirmed { token, verified } => {
                    if let Some(t0) = sent.remove(&token) {
                        rep.ack_ms.push((now - t0) as f64 / MS as f64);
                        rep.confirmed += 1;
                        rep.verified += u64::from(verified);
                    }
                }
                ProxyOutput::Alarm { token } => {
                    sent.remove(&token);
                    gates.fail("modify alarmed");
                }
                ProxyOutput::RuleFailed { rule_id, at } => {
                    let k = key_of(&proxy, rule_id);
                    match k.and_then(|k| broken.remove(&k).map(|t0| (k, t0))) {
                        Some((k, t0)) => {
                            rep.detect_ms.push((at - t0) as f64 / MS as f64);
                            // The operator repairs the rule; it may break
                            // again once the monitor has seen it recover.
                            let actions = proxy.expected().get(rule_id).map(|r| r.actions.clone());
                            let _ = model.table.add_rule(k.0, k.1, actions.unwrap_or_default());
                            recovering.insert(k);
                        }
                        None => gates.fail("RuleFailed on an intact rule"),
                    }
                }
                ProxyOutput::RuleRecovered { rule_id } => {
                    if let Some(k) = key_of(&proxy, rule_id) {
                        recovering.remove(&k);
                    }
                }
            }
        }
        now += MS;
    }
    for _ in 0..broken.len() {
        gates.fail("breakage not detected");
    }
    for _ in 0..sent.len() {
        gates.fail("modify unconfirmed at the end of the horizon");
    }
    if let Some(st) = proxy.steady_sched_stats() {
        obs.add("sched.released", st.released as f64);
        obs.add("sched.throttled", st.throttled as f64);
        obs.add("sched.slo_forced", st.slo_forced as f64);
        obs.add(
            "sched.deferred_backpressure",
            st.deferred_backpressure as f64,
        );
    }
    obs.add("steady.detections", rep.detect_ms.len() as f64);
    rep.wall_s = wall.elapsed().as_secs_f64();
    rep
}

fn refresh(proxy: &mut MonitorProxy, obs: &mut Obs) -> (usize, usize) {
    let t = Instant::now();
    let r = trace::span("steady.refresh_steady_plans", 0, || {
        proxy.refresh_steady_plans()
    });
    obs.sample("steady.refresh_ms", t.elapsed().as_secs_f64() * 1e3);
    r
}
