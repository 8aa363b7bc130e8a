//! End-to-end and per-layer benchmark of the DiMa edge-coloring system.
//!
//! ```text
//! dimabench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its workload from `--seed`, sets up, measures for
//! `--seconds`, checks every output, and prints one JSON result as the last
//! line of standard output. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs each job traced and untraced, reports the per-layer
//! metrics from the traced jobs and the tracing overhead, and writes the
//! spans to `dimabench/out/`. See `dimabench/README.md`.

mod batch;
mod check;
mod inputs;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use dima_core::Engine;
use dima_sim::telemetry::CountingAlloc;

use crate::trace::Spans;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Metrics a `--trace 0` run reports, on every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("seq.edges_per_s", "1/s"),
    ("pool.edges_per_s", "1/s"),
    ("seq.batch_ms_p50", "ms"),
    ("pool.batch_ms_p50", "ms"),
    ("seq.batch_ms_tail", "ms"),
    ("pool.batch_ms_tail", "ms"),
    ("colors_over_delta", "ratio"),
    ("rounds_over_delta", "ratio"),
    ("peak_heap_mb", "MB"),
];

/// Metrics a `--trace 1` run reports. A layer a workload does not run
/// reads 0 there (the README's table says which run where).
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.parse_ms", "ms"),
    ("seq.core.color_ms", "ms"),
    ("pool.core.color_ms", "ms"),
    ("core.messages_per_edge", "ratio"),
    ("core.palette_bytes_per_node", "B"),
    ("core.inputs_over_round_budget", "count"),
    ("seq.core.verify_ms", "ms"),
    ("pool.core.verify_ms", "ms"),
    ("seq.kempe.ms", "ms"),
    ("pool.kempe.ms", "ms"),
    ("kempe.chains_flipped", "count"),
    ("kempe.abort_ratio", "ratio"),
    ("kempe.colors_saved", "count"),
    ("kempe.comm_rounds", "count"),
    ("kempe.missed_target", "count"),
    ("seq.sim.step_ms", "ms"),
    ("pool.sim.step_ms", "ms"),
    ("seq.sim.collect_ms", "ms"),
    ("pool.sim.collect_ms", "ms"),
    ("pool.sim.barrier_ms", "ms"),
    ("seq.sim.unattributed_ms", "ms"),
    ("pool.sim.unattributed_ms", "ms"),
    ("seq.sim.us_per_round", "us"),
    ("pool.sim.us_per_round", "us"),
    ("seq.sim.ns_per_delivery", "ns"),
    ("pool.sim.ns_per_delivery", "ns"),
    ("pool.sim.shard_imbalance", "ratio"),
    ("sim.rounds", "count"),
    ("sim.deliveries", "count"),
    ("sim.deliveries_per_round", "ratio"),
    ("pool.speedup", "ratio"),
    ("arq.msgs_per_protocol_msg", "ratio"),
    ("arq.overhead_rounds_per_comm_round", "ratio"),
    ("arq.acks_standalone_share", "ratio"),
    ("arq.retransmit_share", "ratio"),
    ("arq.dup_bundles", "count"),
    ("arq.link_deaths", "count"),
    ("seq.arq.slowdown_vs_bare", "ratio"),
    ("pool.arq.slowdown_vs_bare", "ratio"),
    ("seq.service.commit_us", "us"),
    ("pool.service.commit_us", "us"),
    ("seq.service.repair_ms_p50", "ms"),
    ("pool.service.repair_ms_p50", "ms"),
    ("seq.service.repair_ms_p99", "ms"),
    ("pool.service.repair_ms_p99", "ms"),
    ("service.repair_rounds_p50", "count"),
    ("service.repair_rounds_p99", "count"),
    ("service.churn_amplification", "ratio"),
    ("seq.service.checkpoint_ms", "ms"),
    ("pool.service.checkpoint_ms", "ms"),
    ("seq.service.compact_ms", "ms"),
    ("pool.service.compact_ms", "ms"),
    ("seq.service.restore_ms", "ms"),
    ("pool.service.restore_ms", "ms"),
    ("service.checkpoint_bytes", "B"),
    ("service.base_bytes", "B"),
    ("service.escalations", "count"),
    ("service.restore_tail_entries", "count"),
    ("mem.allocs_per_job", "count"),
    ("mem.peak_heap_bytes_per_edge", "B"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
    ("trace.parents_flagged", "count"),
    ("fail_ratio", "ratio"),
    ("kempe_probe.batches", "count"),
    ("kempe_probe.lost_batches", "count"),
];

const WORKLOADS: &[&str] = &["corpus_small", "wireless_lossy", "serve_churn"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// The pool width: every pooled call in the process uses exactly this
    /// many workers, so the process-global pool never grows past it.
    pub threads: usize,
}

impl Args {
    /// The two engines every job runs on, with their metric prefixes.
    pub fn engines(&self) -> [(Engine, &'static str); 2] {
        [(Engine::Sequential, "seq"), (Engine::Parallel { threads: self.threads }, "pool")]
    }

    /// Names a failing operation so it can be replayed.
    pub fn at(&self, what: impl std::fmt::Display) -> String {
        format!("{} seed {}: {what}", self.workload, self.seed)
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
        }
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}' (one of {WORKLOADS:?})"));
    }
    let seed = get("seed")?.parse().map_err(|_| "--seed wants an unsigned integer")?;
    let seconds: f64 = get("seconds")?.parse().map_err(|_| "--seconds wants a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got '{other}'")),
    };
    if let Some(k) =
        flags.keys().find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{k}"));
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Args { workload, seed, seconds: Duration::from_secs_f64(seconds), trace, threads })
}

/// What a run measured and every check that failed.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Count one attempted operation; `Err` counts it failed too.
    pub fn attempt<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| self.failures.push(e)).ok()
    }

    /// A mismatch found by a check on an operation already attempted.
    pub fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: dimabench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let host = format!(
        "nproc {} | cpu {} | {} | pool width {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model(),
        env!("DIMABENCH_RUSTC"),
        args.threads
    );
    println!(
        "# dimabench {} seed {} trace {} | {host}",
        args.workload, args.seed, args.trace as u8
    );
    let mut rep = Report::default();
    let mut spans = Spans::new(args.trace);
    match args.workload.as_str() {
        "corpus_small" => batch::run(batch::Kind::Corpus, &args, &mut rep, &mut spans),
        "wireless_lossy" => batch::run(batch::Kind::Wireless, &args, &mut rep, &mut spans),
        _ => serve::run(&args, &mut rep, &mut spans),
    }
    let failed = rep.failures.len() as u64;
    let declared = if args.trace {
        let acc = spans.accounting();
        print!("{}", acc.table());
        rep.set("trace.spans", acc.spans as f64);
        rep.set("trace.parents_flagged", acc.flagged as f64);
        // The Kempe probe's lost batches count here but not in `failed`.
        let probe = |k: &str| rep.metrics.get(k).copied().unwrap_or(0.0);
        let lost = failed as f64 + probe("kempe_probe.lost_batches");
        rep.set(
            "fail_ratio",
            lost / (rep.attempted as f64 + probe("kempe_probe.batches")).max(1.0),
        );
        let header = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"host\":\"{host}\"}}",
            args.workload, args.seed
        );
        let dir = std::path::Path::new("dimabench/out");
        let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans.to_jsonl(&header)))
        {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        PER_LAYER
    } else {
        END_TO_END
    };
    let mut json = String::new();
    for (name, unit) in declared {
        let v = rep.metrics.get(*name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        println!("{name:<36} {v:>16.6} {unit}");
        if !json.is_empty() {
            json.push(',');
        }
        json.push_str(&format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    for f in &rep.failures {
        eprintln!("FAILED: {f}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{json}}}}}",
        failed == 0,
        rep.attempted.max(1)
    );
    ExitCode::SUCCESS
}
