//! Per-layer probes for the traced run: the stateless stages (`openflow`,
//! `encode`, `sat`) and a standalone `ProbeEngine`, timed by calling each
//! layer's public functions on the workload's own tables.

use std::time::Instant;

use monocle::encode::{build_instance, relevant_rules, CatchSpec};
use monocle::{PoolConfig, ProbeEngine};
use monocle_datasets::RuleSpec;
use monocle_openflow::{FlowMod, RuleId, SharedTable};
use monocle_sat::CdclSolver;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::inputs::{self, sub_seed};
use crate::obs::Obs;
use crate::trace;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// `openflow`: table mutation, copy, lookup by id and overlap queries at
/// the table's size; `churn` supplies realistic FlowMods.
pub fn openflow(rules: &[RuleSpec], churn: &[FlowMod], samples: usize, seed: u64, obs: &mut Obs) {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0x0f));
    let table = inputs::table_of(rules);
    let ids: Vec<RuleId> = table.rules().iter().map(|r| r.id).collect();
    let shared = SharedTable::new(table.clone());
    let mut work = table.clone();
    for (k, fm) in churn.iter().take(samples).enumerate() {
        let t = Instant::now();
        let _ = trace::span("openflow.apply", k as u64, || work.apply(fm));
        obs.sample("openflow.apply_us", us(t));
        let t = Instant::now();
        let _ = trace::span("openflow.shared_apply", k as u64, || shared.apply(fm));
        obs.sample("openflow.shared_apply_us", us(t));
    }
    for k in 0..samples {
        let t = Instant::now();
        let c = trace::span("openflow.clone", k as u64, || table.clone());
        obs.sample("openflow.clone_us", us(t));
        drop(std::hint::black_box(c));
        let id = ids[rng.random_range(0..ids.len())];
        let t = Instant::now();
        let r = trace::span("openflow.get", id.0, || table.get(id));
        obs.sample("openflow.get_us", us(t));
        let tern = r.expect("sampled ids exist").tern;
        let t = Instant::now();
        let n = trace::span("openflow.overlapping", id.0, || {
            table.overlapping(&tern).len()
        });
        obs.sample("openflow.overlap_us", us(t));
        std::hint::black_box(n);
    }
}

/// `encode` + `sat`: the §5.4 pre-filter, instance construction and a
/// fresh CDCL solve for a seeded rule sample.
pub fn encode_sat(rules: &[RuleSpec], samples: usize, seed: u64, obs: &mut Obs) {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0xe5));
    let table = inputs::table_of(rules);
    let catch = CatchSpec::default();
    let style = monocle::GeneratorConfig::default().style;
    for _ in 0..samples {
        let rule = &table.rules()[rng.random_range(0..table.len())];
        let req = rule.id.0;
        let t = Instant::now();
        let rel = trace::span("encode.relevant_rules", req, || {
            relevant_rules(&table, rule).len()
        });
        obs.sample("encode.prefilter_us", us(t));
        obs.sample("encode.relevant_rules", rel as f64);
        let t = Instant::now();
        let inst = trace::span("encode.build_instance", req, || {
            build_instance(&table, rule, &catch, style)
        });
        obs.sample("encode.build_us", us(t));
        let Ok(inst) = inst else { continue };
        obs.sample("encode.clauses", inst.cnf.num_clauses() as f64);
        let mut solver = CdclSolver::new();
        let t = Instant::now();
        let out = trace::span("sat.solve", req, || solver.solve_with_stats(&inst.cnf));
        obs.sample("sat.solve_us", us(t));
        obs.sample("sat.propagations", out.stats.propagations as f64);
        obs.sample("sat.conflicts", out.stats.conflicts as f64);
    }
}

/// `engine`: a standalone `ProbeEngine` with the pool's engine config,
/// one cold and one warm batch over every monitorable rule.
pub fn engine(rules: &[RuleSpec], obs: &mut Obs) {
    let table = inputs::table_of(rules);
    let ids = monocle::pool::monitorable_ids(&table);
    let catch = CatchSpec::default();
    let mut engine = ProbeEngine::new(PoolConfig::default().engine);
    let t = Instant::now();
    let (_, times, st) = trace::span("engine.generate_batch_timed", ids.len() as u64, || {
        engine.generate_batch_timed(&table, &ids, &catch)
    });
    let wall = t.elapsed().as_secs_f64();
    let per_probe: f64 = times.iter().map(|d| d.as_secs_f64()).sum();
    obs.add("engine.batch_overhead_ms", (wall - per_probe) * 1e3);
    for d in &times {
        obs.sample("engine.probe_us", d.as_secs_f64() * 1e6);
    }
    obs.add("engine.solver_calls", st.solver_calls as f64);
    obs.add("engine.fast_path_hits", st.fast_path_hits as f64);
    obs.add("engine.probes", ids.len() as f64);
    obs.max("engine.arena_bytes", st.arena_bytes as f64);
    let (_, _, warm) = trace::span("engine.generate_batch_timed", ids.len() as u64, || {
        engine.generate_batch_timed(&table, &ids, &catch)
    });
    obs.add("engine.warm_hits", warm.cache_hits as f64);
    obs.add("engine.warm_lookups", ids.len() as f64);
}
