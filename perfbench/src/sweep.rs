//! The table phase: Table 2 at the workload's table size, in process.
//!
//! Each round does three things:
//!
//! 1. Cold sweeps: a fresh [`EnginePool`] plans every monitorable rule of
//!    every table in one `run_batch` (`JobSpec::All`) — the time until a
//!    newly connected switch is fully monitored.
//! 2. Refresh: a batch of churn FlowMods is applied to the
//!    [`SharedTable`]s, then the now warm pool re-plans `JobSpec::All`.
//! 3. Replans: per-update planning against the first (largest) table,
//!    `SharedTable::apply` plus a one-rule job (pre-delta for deletes, the
//!    order the proxy plans them in).
//!
//! Every returned plan is re-checked with `plan::verify_probe` and a
//! seeded sample is compared against stateless `generate_probe`, outside
//! the timed regions.

use std::sync::Arc;
use std::time::{Duration, Instant};

use monocle::plan::verify_probe;
use monocle::{
    generate_probe, CatchSpec, EnginePool, GeneratorConfig, JobResult, JobSpec, PoolConfig,
    ProbeError, ProbeJob,
};
use monocle_datasets::RuleSpec;
use monocle_openflow::{FlowMod, FlowModCommand, RuleId, SharedTable};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::gates::Gates;
use crate::inputs::{self, sub_seed};
use crate::obs::Obs;
use crate::trace;

/// Pool workers everywhere (one per core of the reference host).
pub const POOL_WORKERS: usize = 2;
/// Churn + refresh sweeps per round.
const REFRESHES_PER_ROUND: usize = 2;

/// How much work the phase does.
#[derive(Debug, Clone)]
pub struct TablePhase {
    /// Minimum number of rounds (cold sweeps, churn + refresh, replans).
    pub min_rounds: usize,
    /// Cold sweeps per round.
    pub cold_per_round: usize,
    /// Churn FlowMods applied before each refresh sweep.
    pub churn_per_round: usize,
    /// Replans per round.
    pub replans_per_round: usize,
    /// Keep adding rounds until this much time has passed since the phase
    /// started.
    pub budget: Duration,
    /// Rules per table checked against stateless generation.
    pub oracle_sample: usize,
}

/// What the phase measured.
#[derive(Debug, Default)]
pub struct TableReport {
    /// Cold sweep wall times, s.
    pub cold_s: Vec<f64>,
    /// Refresh sweep wall times, s.
    pub refresh_s: Vec<f64>,
    /// Per-update replan latencies, ms, in round order.
    pub replan_ms: Vec<f64>,
    /// Replans per round (the grouping of `replan_ms`).
    pub replans_per_round: usize,
    /// Rules with a probe in the first cold sweep.
    pub found: usize,
    /// Monitorable rules in the cold sweep.
    pub monitorable: usize,
}

/// Runs the phase over `tables` (`(switch id, rules)`), with `churn[i]`
/// the update script for table `i`.
pub fn run(
    tables: &[(u32, Vec<RuleSpec>)],
    churn: &[Vec<FlowMod>],
    cfg: &TablePhase,
    seed: u64,
    gates: &mut Gates,
    obs: &mut Obs,
) -> TableReport {
    let start = Instant::now();
    let catch = CatchSpec::default();
    let shared: Vec<(u32, Arc<SharedTable>)> = tables
        .iter()
        .map(|(sw, rules)| (*sw, Arc::new(SharedTable::new(inputs::table_of(rules)))))
        .collect();
    let all_jobs = |shared: &[(u32, Arc<SharedTable>)]| -> Vec<ProbeJob> {
        shared
            .iter()
            .map(|(sw, t)| ProbeJob {
                switch_id: *sw,
                table: Arc::clone(t),
                catch: catch.clone(),
                spec: JobSpec::All,
            })
            .collect()
    };
    let mut rep = TableReport {
        replans_per_round: cfg.replans_per_round,
        ..TableReport::default()
    };

    // Rounds interleave the three measurements so that each sees the same
    // mix of host conditions over the run.
    let mut cursors = vec![0usize; shared.len()];
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0x5eed));
    let mut round = 0;
    while round < cfg.min_rounds || start.elapsed() < cfg.budget {
        // 1. Cold sweeps, each on a fresh pool; the last pool stays.
        let mut pool = None;
        for k in 0..cfg.cold_per_round.max(1) {
            drop(pool.take());
            let p = EnginePool::new(PoolConfig::with_workers(POOL_WORKERS));
            let t0 = Instant::now();
            let cold = run_batch(&p, all_jobs(&shared), obs);
            rep.cold_s.push(t0.elapsed().as_secs_f64());
            if round == 0 && k == 0 {
                for r in &cold {
                    rep.monitorable += r.ids.len();
                    rep.found += r.results.iter().filter(|x| x.is_ok()).count();
                }
                oracle_sample(&shared, &cold, &catch, cfg.oracle_sample, seed, gates);
            }
            check_results(&shared, &cold, &catch, gates);
            pool = Some(p);
        }
        let pool = pool.expect("at least one cold sweep");

        // 2. Churn, then a refresh sweep on the now warm pool (twice).
        for _ in 0..REFRESHES_PER_ROUND {
            for _ in 0..cfg.churn_per_round {
                let i = rng.random_range(0..shared.len());
                if let Some(fm) = churn[i].get(cursors[i]) {
                    cursors[i] += 1;
                    let _ = shared[i].1.apply(fm);
                }
            }
            let before = pool.stats();
            let t0 = Instant::now();
            let results = run_batch(&pool, all_jobs(&shared), obs);
            rep.refresh_s.push(t0.elapsed().as_secs_f64());
            let d = delta(pool.stats(), before);
            obs.add("pool.refresh_hits", d.cache_hits as f64);
            obs.add(
                "pool.refresh_lookups",
                (d.cache_hits + d.cache_misses) as f64,
            );
            check_results(&shared, &results, &catch, gates);
        }

        // 3. Replans, against the first table only so that their latency
        // comes from one table size (the largest where tables differ).
        for _ in 0..cfg.replans_per_round {
            let Some(fm) = churn[0].get(cursors[0]).cloned() else {
                break;
            };
            cursors[0] += 1;
            if let Some(ms) = replan(&pool, shared[0].0, &shared[0].1, &fm, &catch, gates, obs) {
                rep.replan_ms.push(ms);
            }
        }
        round += 1;
    }
    rep
}

/// `run_batch` with pool-layer accounting and a span.
pub fn run_batch(pool: &EnginePool, jobs: Vec<ProbeJob>, obs: &mut Obs) -> Vec<JobResult> {
    let n = jobs.len();
    let homes: Vec<usize> = jobs
        .iter()
        .map(|j| j.switch_id as usize % pool.workers())
        .collect();
    let t0 = Instant::now();
    let results = trace::span("pool.run_batch", n as u64, || pool.run_batch(jobs));
    obs.sample("pool.plan_ms", t0.elapsed().as_secs_f64() * 1e3);
    obs.sample("pool.jobs_per_batch", n as f64);
    for (r, home) in results.iter().zip(homes) {
        obs.add("pool.steals", f64::from(u8::from(r.worker != home)));
        obs.add("pool.replans", f64::from(r.replans));
        obs.add("pool.stale", f64::from(u8::from(r.stale)));
    }
    results
}

/// One per-update replan: apply + one-rule job (pre-delta for deletes).
/// Returns its latency in ms.
fn replan(
    pool: &EnginePool,
    switch_id: u32,
    table: &Arc<SharedTable>,
    fm: &FlowMod,
    catch: &CatchSpec,
    gates: &mut Gates,
    obs: &mut Obs,
) -> Option<f64> {
    let job = |id: RuleId| ProbeJob {
        switch_id,
        table: Arc::clone(table),
        catch: catch.clone(),
        spec: JobSpec::Rules(vec![id]),
    };
    let (ms, results, snap) = if fm.command == FlowModCommand::DeleteStrict {
        let snap = table.snapshot();
        let id = snap
            .table
            .rules()
            .iter()
            .find(|r| r.priority == fm.priority && r.match_ == fm.match_)?
            .id;
        let t0 = Instant::now();
        let results = run_batch(pool, vec![job(id)], obs);
        table.apply(fm).ok()?;
        (t0.elapsed().as_secs_f64() * 1e3, results, snap)
    } else {
        let t0 = Instant::now();
        let res = table.apply(fm).ok()?;
        let id = *res.added.first().or(res.modified.first())?;
        let results = run_batch(pool, vec![job(id)], obs);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        (ms, results, table.snapshot())
    };
    gates.attempt(1);
    // A delete's plan is for the pre-delta epoch; an add's may race nothing
    // here, so both are checked against the snapshot they were planned on.
    for r in &results {
        if r.stale || r.panicked {
            gates.fail("replan stale or panicked");
        }
        for (id, res) in r.ids.iter().zip(&r.results) {
            check_plan(&snap.table, *id, res, catch, gates);
        }
    }
    Some(ms)
}

fn check_results(
    shared: &[(u32, Arc<SharedTable>)],
    results: &[JobResult],
    catch: &CatchSpec,
    gates: &mut Gates,
) {
    gates.attempt(results.iter().map(|r| r.ids.len() as u64).sum());
    for ((_, t), r) in shared.iter().zip(results) {
        if r.panicked {
            gates.fail("pool job panicked");
            continue;
        }
        if r.stale {
            gates.fail("pool job stale");
        }
        let snap = t.snapshot();
        for (id, res) in r.ids.iter().zip(&r.results) {
            check_plan(&snap.table, *id, res, catch, gates);
        }
    }
}

/// A returned plan must verify semantically; budget and repair errors are
/// failures, the §3.5 "no probe exists" answers are not.
pub fn check_plan(
    table: &monocle_openflow::FlowTable,
    id: RuleId,
    res: &Result<monocle::ProbePlan, ProbeError>,
    catch: &CatchSpec,
    gates: &mut Gates,
) {
    match res {
        Ok(plan) => gates.check(
            plan.rule_id == id
                && verify_probe(table, id, &plan.header, &catch.all_pins()).is_some(),
            "plan fails verify_probe",
        ),
        Err(ProbeError::SolverBudget) => gates.fail("solver budget exhausted"),
        Err(ProbeError::RepairFailed) => gates.fail("probe repair failed"),
        Err(_) => {}
    }
}

/// Pool found/not-found must agree with stateless generation on a seeded
/// sample of rules.
fn oracle_sample(
    shared: &[(u32, Arc<SharedTable>)],
    results: &[JobResult],
    catch: &CatchSpec,
    n: usize,
    seed: u64,
    gates: &mut Gates,
) {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0x07ac1e));
    let gen = GeneratorConfig::default();
    for ((_, t), r) in shared.iter().zip(results) {
        if r.ids.is_empty() {
            continue;
        }
        let snap = t.snapshot();
        for _ in 0..n {
            let k = rng.random_range(0..r.ids.len());
            let stateless = generate_probe(&snap.table, r.ids[k], catch, &gen);
            gates.attempt(1);
            gates.check(
                stateless.is_ok() == r.results[k].is_ok(),
                "pool disagrees with stateless generate_probe",
            );
        }
    }
}

fn delta(a: monocle::GenStats, b: monocle::GenStats) -> monocle::GenStats {
    monocle::GenStats {
        cache_hits: a.cache_hits - b.cache_hits,
        cache_misses: a.cache_misses - b.cache_misses,
        ..monocle::GenStats::default()
    }
}
