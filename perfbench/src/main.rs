//! Monocle benchmark: end-to-end metrics per workload, per-layer metrics
//! in a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload route_churn --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md` for the
//! workloads, the metrics and the layer map.

mod detect;
mod gates;
mod inputs;
mod layers;
mod model;
mod obs;
mod replay;
mod stats;
mod sweep;
mod tcp;
mod trace;
mod workloads;

use std::fmt::Write as _;

use workloads::{Scale, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(val)?),
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad --seed {val}"))?),
            "--seconds" => seconds = Some(val.parse().map_err(|_| format!("bad --seconds {val}"))?),
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val} (0 or 1)")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Spans written to the trace file (self times use all of them); keeps a
/// traced run's file to tens of MB.
const MAX_WRITTEN_SPANS: usize = 200_000;

/// Host and build facts printed next to every result.
fn provenance(w: Workload) -> String {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = read("/proc/sys/kernel/osrelease").trim().to_string();
    let commit = git_commit().unwrap_or_else(|| "unknown (not a git checkout)".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (gen_threads, sessions) = w.transport();
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{cpu}\", \"kernel\": \"{kernel}\", \"commit\": \"{commit}\", \
         \"generator_threads\": {gen_threads}, \"pool_workers\": {}, \"switch_sessions\": {sessions}, \
         \"network\": \"loopback only\"}}",
        sweep::POOL_WORKERS
    )
}

/// The checkout's commit, read from its own `.git` (no process is started
/// and nothing outside the checkout is read).
fn git_commit() -> Option<String> {
    let git = inputs::bench_dir().join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let Some(name) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|id| id.trim().to_string()))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1\n{e}",
                Workload::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    trace::origin();
    let prov = provenance(args.workload);
    println!("provenance: {prov}");
    let out = workloads::run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &Scale::full(),
    );
    for line in &out.log {
        println!("{line}");
    }
    if !out.gates.reasons.is_empty() {
        println!("failures: {:?}", out.gates.reasons);
    }
    if let Some(spans) = &out.spans {
        let path = inputs::bench_dir().join("out").join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let kept = &spans[..spans.len().min(MAX_WRITTEN_SPANS)];
        match trace::write_jsonl(&path, kept) {
            Ok(()) => println!(
                "spans: {} recorded, the first {} written to {}",
                spans.len(),
                kept.len(),
                path.display()
            ),
            Err(e) => println!("spans: {} (not written: {e})", spans.len()),
        }
    }
    let mut metrics = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        let _ = write!(
            metrics,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.correct,
        out.gates.attempted.max(1),
        out.gates.failed
    );
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}
