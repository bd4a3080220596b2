//! Input preparation. Everything here runs before any clock starts.
//!
//! * The Table 2 ACLs come from `monocle_datasets::acl` with the dataset's
//!   own generator seed (the paper's tables are fixed artifacts). Campus
//!   generation is slow (its dead-rule resampler is O(n²)), so generated
//!   tables are cached under `perfbench/cache/`, keyed by generator seed
//!   and size, as OpenFlow wire-encoded FlowMods.
//! * Everything else a workload feeds Monocle — host routes, churn tails,
//!   breakage schedules, rule samples — is derived from the `--seed`.

use std::collections::VecDeque;
use std::path::PathBuf;

use monocle_datasets::acl::{self, AclConfig};
use monocle_datasets::RuleSpec;
use monocle_openflow::{wire, Action, FlowMod, FlowModCommand, FlowTable, Match, OfMessage};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Priority of the default route the proxy preinstalls on every switch.
pub const DEFAULT_PRIORITY: u16 = 1;
/// Egress port of that default route.
pub const DEFAULT_PORT: u16 = 2;
/// Host routes live in one sliding window of this many routes per switch.
pub const ROUTE_WINDOW: usize = 200;
const ROUTE_PRIORITY: u16 = 10;

/// Mixes the run seed with a stream label into an independent RNG seed.
pub fn sub_seed(seed: u64, label: u64) -> u64 {
    let mut z = seed ^ label.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d4_9bb1_3311_33eb);
    z ^ (z >> 31)
}

/// Directory for cached generated inputs and trace output.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Which Table 2 dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Campus-like, 10,958 rules + default.
    Campus,
    /// Stanford-like ("yoza"), 2,755 rules + default.
    Stanford,
}

impl Dataset {
    fn config(self, rules: Option<usize>) -> AclConfig {
        let base = match self {
            Dataset::Campus => AclConfig::campus_like(),
            Dataset::Stanford => AclConfig::stanford_like(),
        };
        AclConfig {
            rules: rules.unwrap_or(base.rules),
            ..base
        }
    }
}

/// The dataset's rules, highest priority first (the trailing default rule
/// included), loading from or filling the cache. `rules` caps the size
/// for smoke tests.
pub fn acl_rules(ds: Dataset, rules: Option<usize>) -> Vec<RuleSpec> {
    let cfg = ds.config(rules);
    let path = bench_dir()
        .join("cache")
        .join(format!("acl-{:x}-{}.of", cfg.seed, cfg.rules));
    if let Ok(bytes) = std::fs::read(&path) {
        if let Some(rules) = decode_rules(&bytes) {
            return rules;
        }
    }
    let rules = acl::generate(&cfg);
    let mut bytes = Vec::new();
    for r in &rules {
        let fm = FlowMod::add(r.priority, r.match_, r.actions.clone());
        bytes.extend_from_slice(&wire::encode(&OfMessage::FlowMod(fm), 0));
    }
    // Best effort: a read-only checkout just regenerates next time.
    let tmp = path.with_extension("tmp");
    if std::fs::create_dir_all(path.parent().expect("cache path has a parent")).is_ok()
        && std::fs::write(&tmp, &bytes).is_ok()
    {
        let _ = std::fs::rename(&tmp, &path);
    }
    rules
}

fn decode_rules(mut buf: &[u8]) -> Option<Vec<RuleSpec>> {
    let mut out = Vec::new();
    while !buf.is_empty() {
        let (msg, _, used) = wire::decode(buf).ok()?;
        let OfMessage::FlowMod(fm) = msg else {
            return None;
        };
        out.push(RuleSpec {
            priority: fm.priority,
            match_: fm.match_,
            actions: fm.actions,
        });
        buf = &buf[used..];
    }
    Some(out)
}

/// True for the dataset's trailing catch-all (the proxy preinstalls its own
/// default route, so workloads never send this one).
pub fn is_default(r: &RuleSpec) -> bool {
    r.priority == DEFAULT_PRIORITY && r.match_ == Match::any()
}

/// Builds a flow table from rule specs.
pub fn table_of(rules: &[RuleSpec]) -> FlowTable {
    let mut t = FlowTable::new();
    for r in rules {
        t.add_rule(r.priority, r.match_, r.actions.clone())
            .expect("generated rules compile");
    }
    t
}

/// The proxy's view of a switch before any update: the default route.
pub fn default_route() -> RuleSpec {
    RuleSpec {
        priority: DEFAULT_PRIORITY,
        match_: Match::any(),
        actions: vec![Action::Output(DEFAULT_PORT)],
    }
}

/// Hashable identity of a FlowMod, used to pair a FlowMod the proxy
/// forwards with the controller update it came from.
pub type FlowModKey = (u8, u16, Match, Vec<Action>);

/// The key of `fm`.
pub fn flowmod_key(fm: &FlowMod) -> FlowModKey {
    let cmd = match fm.command {
        FlowModCommand::Add => 0,
        FlowModCommand::Modify => 1,
        FlowModCommand::ModifyStrict => 2,
        FlowModCommand::Delete => 3,
        FlowModCommand::DeleteStrict => 4,
    };
    (cmd, fm.priority, fm.match_, fm.actions.clone())
}

/// An endless, seeded sequence of controller updates for one switch.
pub enum UpdateStream {
    /// Sliding window of disjoint /32 host routes over the default route:
    /// each add of a new route is paired with a strict delete of the route
    /// added [`ROUTE_WINDOW`] steps earlier.
    Routes {
        /// Port choice RNG.
        rng: StdRng,
        /// Address permutation salt.
        salt: u32,
        /// Next route index to add.
        next: usize,
        /// Live routes, oldest first.
        live: VecDeque<Match>,
        /// A delete is due before the next add.
        delete_due: bool,
    },
    /// A table preload (in priority order) followed by a churn tail.
    Script {
        /// The updates.
        ops: Vec<FlowMod>,
        /// Next index.
        pos: usize,
    },
}

/// The `i`-th host route of a stream: a /32 under 10.0.0.0/8, distinct
/// for every `i < 2^24` (odd-multiplier permutation).
pub fn host_route(i: usize, salt: u32) -> Match {
    let host = (i as u32).wrapping_mul(0x9e37_79b1).wrapping_add(salt) & 0x00ff_ffff;
    let a = 0x0a00_0000 | host;
    Match::any().with_nw_dst(a.to_be_bytes(), 32)
}

impl UpdateStream {
    /// Host-route churn for switch `dpid`.
    pub fn routes(seed: u64, dpid: u64) -> UpdateStream {
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0x100 + dpid));
        let salt = rng.random_range(0..1u32 << 24);
        UpdateStream::Routes {
            rng,
            salt,
            next: 0,
            live: VecDeque::new(),
            delete_due: false,
        }
    }

    /// A fixed script.
    pub fn script(ops: Vec<FlowMod>) -> UpdateStream {
        UpdateStream::Script { ops, pos: 0 }
    }

    /// The next update, or `None` when a script is exhausted.
    pub fn next_update(&mut self) -> Option<FlowMod> {
        match self {
            UpdateStream::Routes {
                rng,
                salt,
                next,
                live,
                delete_due,
            } => {
                if *delete_due {
                    *delete_due = false;
                    let m = live.pop_front().expect("window is full");
                    return Some(FlowMod::delete_strict(ROUTE_PRIORITY, m));
                }
                let m = host_route(*next, *salt);
                *next += 1;
                live.push_back(m);
                *delete_due = live.len() > ROUTE_WINDOW;
                let port = rng.random_range(3..=6u16);
                Some(FlowMod::add(ROUTE_PRIORITY, m, vec![Action::Output(port)]))
            }
            UpdateStream::Script { ops, pos } => {
                let op = ops.get(*pos).cloned();
                *pos += 1;
                op
            }
        }
    }
}

/// The table a route stream's switch holds once its window is full: the
/// first [`ROUTE_WINDOW`] routes over the default route.
pub fn route_table_rules(seed: u64, dpid: u64) -> Vec<RuleSpec> {
    let mut s = UpdateStream::routes(seed, dpid);
    let mut rules: Vec<RuleSpec> = (0..ROUTE_WINDOW)
        .map(|_| {
            let fm = s.next_update().expect("route streams are endless");
            RuleSpec {
                priority: fm.priority,
                match_: fm.match_,
                actions: fm.actions,
            }
        })
        .collect();
    rules.push(default_route());
    rules
}

/// A seeded churn tail over `rules` (default rule excluded): ⅓ strict
/// modifies with new actions, ⅓ strict deletes, ⅓ re-adds of previously
/// deleted rules with their original actions. A rule is not touched again
/// within `spacing` operations, so in-flight updates of one switch never
/// target the same rule.
pub fn acl_churn(rules: &[RuleSpec], seed: u64, n: usize, spacing: usize) -> Vec<FlowMod> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cand: Vec<&RuleSpec> = rules.iter().filter(|r| !is_default(r)).collect();
    let mut installed: Vec<usize> = (0..cand.len()).collect();
    let mut deleted: Vec<usize> = Vec::new();
    let mut recent: VecDeque<usize> = VecDeque::new();
    let mut current: Vec<Vec<Action>> = cand.iter().map(|r| r.actions.clone()).collect();
    let mut out = Vec::with_capacity(n);
    let pick = |rng: &mut StdRng, pool: &[usize], recent: &VecDeque<usize>| -> Option<usize> {
        for _ in 0..64 {
            let at = rng.random_range(0..pool.len());
            if !recent.contains(&pool[at]) {
                return Some(at);
            }
        }
        None
    };
    while out.len() < n {
        let kind = rng.random_range(0..3u32);
        let (idx, fm) = if kind == 2 && !deleted.is_empty() {
            let Some(at) = pick(&mut rng, &deleted, &recent) else {
                continue;
            };
            let idx = deleted.swap_remove(at);
            installed.push(idx);
            let r = cand[idx];
            current[idx] = r.actions.clone();
            (idx, FlowMod::add(r.priority, r.match_, r.actions.clone()))
        } else if kind == 1 {
            let Some(at) = pick(&mut rng, &installed, &recent) else {
                continue;
            };
            let idx = installed.swap_remove(at);
            deleted.push(idx);
            let r = cand[idx];
            (idx, FlowMod::delete_strict(r.priority, r.match_))
        } else {
            let Some(at) = pick(&mut rng, &installed, &recent) else {
                continue;
            };
            let idx = installed[at];
            let r = cand[idx];
            let old = current[idx].first().cloned();
            let actions = loop {
                let a = vec![Action::Output(rng.random_range(1..=16u16))];
                if a.first() != old.as_ref() {
                    break a;
                }
            };
            current[idx] = actions.clone();
            (idx, FlowMod::modify_strict(r.priority, r.match_, actions))
        };
        recent.push_back(idx);
        if recent.len() > spacing {
            recent.pop_front();
        }
        out.push(fm);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_stream_slides_a_fixed_window() {
        let mut s = UpdateStream::routes(7, 1);
        let mut t = FlowTable::new();
        let mut deletes = 0;
        for _ in 0..(ROUTE_WINDOW + 2 * 300) {
            let fm = s.next_update().unwrap();
            if fm.command == FlowModCommand::DeleteStrict {
                deletes += 1;
                let before = t.len();
                t.apply(&fm).unwrap();
                assert_eq!(t.len(), before - 1, "deletes hit a live route");
            } else {
                t.apply(&fm).unwrap();
            }
        }
        assert_eq!(deletes, 300);
        assert_eq!(t.len(), ROUTE_WINDOW);
    }

    #[test]
    fn streams_are_seed_deterministic() {
        let a: Vec<FlowMod> = {
            let mut s = UpdateStream::routes(3, 2);
            (0..50).map(|_| s.next_update().unwrap()).collect()
        };
        let b: Vec<FlowMod> = {
            let mut s = UpdateStream::routes(3, 2);
            (0..50).map(|_| s.next_update().unwrap()).collect()
        };
        assert_eq!(a, b);
        let rules = acl_rules(Dataset::Stanford, Some(60));
        assert_eq!(acl_churn(&rules, 5, 40, 8), acl_churn(&rules, 5, 40, 8));
    }

    #[test]
    fn churn_spaces_repeated_touches() {
        let rules = acl_rules(Dataset::Stanford, Some(80));
        let ops = acl_churn(&rules, 11, 300, 16);
        for (i, a) in ops.iter().enumerate() {
            for b in ops.iter().skip(i + 1).take(16) {
                assert!(a.match_ != b.match_ || a.priority != b.priority);
            }
        }
    }

    #[test]
    fn cache_round_trips() {
        let a = acl_rules(Dataset::Stanford, Some(40));
        let b = acl_rules(Dataset::Stanford, Some(40));
        assert_eq!(a, b);
        assert_eq!(a, acl::generate(&Dataset::Stanford.config(Some(40))));
    }
}
