//! The batch workloads: each job parses an edge list, colors it from
//! scratch and verifies the result, on both engines.
//!
//! * `corpus_small` — a stream of n=400 graphs (Erdős–Rényi, Barabási–
//!   Albert, Watts–Strogatz, random 9-regular); DiMaEC, then the Kempe pass
//!   to Δ+1, then verify. Per-run and per-round fixed costs dominate.
//! * `wireless_lossy` — DiMa2ED (Algorithm 2) on random geometric graphs
//!   over the ARQ transport at 2% uniform loss; per-round synchronization
//!   dominates. Each coloring must equal its bare (lossless) twin.

use std::time::Instant;

use dima_core::verify::{verify_edge_coloring, verify_strong_coloring};
use dima_core::{
    color_edges, reduce_palette, strong_color_digraph, Color, ColoringConfig, Engine, KempeConfig,
    KempeReport, Transport,
};
use dima_graph::io::from_edge_list;
use dima_graph::{Digraph, Graph};
use dima_sim::fault::FaultPlan;
use dima_sim::telemetry::mem;
use dima_sim::{ArqConfig, RunStats};

use crate::check;
use crate::inputs::{self, mix, EdgeList, Rng};
use crate::trace::{mean, median, ratio, tail, Scope, Spans};
use crate::{Args, Report};

/// Set-ups per run, at least; `setup_s` is their median.
const SETUPS: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Corpus,
    Wireless,
}

#[derive(PartialEq)]
struct Input {
    family: &'static str,
    label: String,
    list: EdgeList,
    text: String,
    /// The coloring seed: one per input, so both engines and every repeat
    /// must produce the same coloring.
    seed: u64,
    delta: usize,
}

impl Input {
    fn new(family: &'static str, i: u64, list: EdgeList, seed: u64) -> Input {
        let delta = list.max_degree();
        Input { family, label: format!("{family}#{i}"), text: list.text(), list, seed, delta }
    }
}

fn make_inputs(kind: Kind, seed: u64) -> Vec<Input> {
    let count = match kind {
        Kind::Corpus => 64,
        Kind::Wireless => 16,
    };
    (0..count)
        .map(|i| {
            let rng = &mut Rng::new(seed, i);
            let (family, list) = match (kind, i % 4) {
                (Kind::Corpus, 0) => ("er", inputs::erdos_renyi(400, 12, rng)),
                (Kind::Corpus, 1) => ("ba", inputs::barabasi_albert(400, 6, rng)),
                (Kind::Corpus, 2) => ("ws", inputs::watts_strogatz(400, 12, 0.1, rng)),
                (Kind::Corpus, _) => ("regular", inputs::random_regular(400, 9, rng)),
                (Kind::Wireless, _) => ("rgg", inputs::geometric(200, 0.12, rng)),
            };
            Input::new(family, i, list, mix(seed ^ mix(i)))
        })
        .collect()
}

/// A small input of the workload's kind, run on both engines during
/// set-up so lazy initialization (pool workers, first-touch allocations)
/// is paid before timing starts.
fn warm_up_input(kind: Kind) -> Input {
    let rng = &mut Rng::new(0, u64::MAX);
    let list = match kind {
        Kind::Corpus => inputs::erdos_renyi(400, 12, rng),
        Kind::Wireless => inputs::geometric(30, 0.3, rng),
    };
    Input::new("warm-up", 0, list, 0)
}

/// The configuration `dima-cli` builds for the same run.
fn config(kind: Kind, seed: u64, engine: Engine, traced: bool) -> ColoringConfig {
    let mut cfg = ColoringConfig {
        engine,
        profile: traced,
        collect_metrics: traced,
        ..ColoringConfig::for_measurement(seed)
    };
    if kind == Kind::Wireless {
        cfg.faults = FaultPlan::uniform(0.02);
        cfg.transport = Transport::reliable();
    }
    cfg
}

struct Job {
    g: Graph,
    d: Option<Digraph>,
    colors: Vec<Option<Color>>,
    compute_rounds: u64,
    comm_rounds: u64,
    stats: RunStats,
    transport_overhead_rounds: u64,
    palette_bytes: u64,
    kempe: Option<KempeReport>,
    ms: f64,
    color_ms: f64,
    verify_ms: f64,
    kempe_ms: f64,
    parse_ms: f64,
}

fn run_job(
    kind: Kind,
    input: &Input,
    engine: (Engine, &'static str),
    traced: bool,
    spans: &mut Spans,
    job_id: u64,
) -> Result<Job, String> {
    let (engine, label) = engine;
    let mut sp = Scope::new(traced.then_some(spans), label);
    let t = Instant::now();
    let cfg = config(kind, input.seed, engine, traced);
    sp.begin(job_id, "job");
    let s = sp.open("parse");
    let g = from_edge_list(&input.text).map_err(|e| format!("parse: {e}"))?;
    let parse_ms = sp.close(s);
    let mut job = if kind == Kind::Wireless {
        let s = sp.open("digraph");
        let d = Digraph::symmetric_closure(&g);
        sp.close(s);
        let s = sp.open("color");
        let r = strong_color_digraph(&d, &cfg).map_err(|e| format!("strong_color_digraph: {e}"))?;
        let color_ms = sp.close(s);
        let s = sp.open("verify");
        verify_strong_coloring(&d, &r.colors).map_err(|e| format!("verify: {e}"))?;
        let verify_ms = sp.close(s);
        Job {
            g,
            d: Some(d),
            colors: r.colors,
            compute_rounds: r.compute_rounds,
            comm_rounds: r.comm_rounds,
            stats: r.stats,
            transport_overhead_rounds: r.transport_overhead_rounds,
            palette_bytes: 0,
            kempe: None,
            ms: 0.0,
            color_ms,
            verify_ms,
            kempe_ms: 0.0,
            parse_ms,
        }
    } else {
        let s = sp.open("color");
        let r = color_edges(&g, &cfg).map_err(|e| format!("color_edges: {e}"))?;
        let color_ms = sp.close(s);
        let mut colors = r.colors;
        let (kempe, kempe_ms) = if kind == Kind::Corpus {
            let s = sp.open("kempe");
            let rep = reduce_palette(&g, &mut colors, &r.alive, &KempeConfig::default(), &cfg)
                .map_err(|e| format!("reduce_palette: {e}"))?;
            (Some(rep), sp.close(s))
        } else {
            (None, 0.0)
        };
        let s = sp.open("verify");
        verify_edge_coloring(&g, &colors).map_err(|e| format!("verify: {e}"))?;
        let verify_ms = sp.close(s);
        Job {
            g,
            d: None,
            colors,
            compute_rounds: r.compute_rounds,
            comm_rounds: r.comm_rounds,
            stats: r.stats,
            transport_overhead_rounds: 0,
            palette_bytes: r.palette_bytes,
            kempe,
            ms: 0.0,
            color_ms,
            verify_ms,
            kempe_ms,
            parse_ms,
        }
    };
    sp.end();
    job.ms = t.elapsed().as_secs_f64() * 1e3;
    Ok(job)
}

/// What the first job of an input produced; every later job of that input,
/// on either engine, must reproduce it bit for bit.
struct Reference {
    colors: Vec<Option<Color>>,
    compute_rounds: u64,
}

/// Check a job's output. The first job of each input runs the
/// benchmark's own checkers and becomes the reference.
fn check_job(input: &Input, job: &Job, reference: &mut Option<Reference>) -> Result<(), String> {
    if let Some(r) = reference {
        if r.colors != job.colors || r.compute_rounds != job.compute_rounds {
            return Err(
                "output differs from the input's first coloring (seq vs pool, or a repeat)".into(),
            );
        }
        return Ok(());
    }
    let parsed: EdgeList = EdgeList {
        n: job.g.num_vertices(),
        edges: job.g.edges().map(|(_, (u, v))| (u.0, v.0)).collect(),
    };
    if parsed.n != input.list.n || parsed.canonical() != input.list.canonical() {
        return Err("parsed graph differs from the generated edge list".into());
    }
    let colors: Vec<Option<u32>> = job.colors.iter().map(|c| c.map(|c| c.0)).collect();
    match &job.d {
        Some(d) => {
            let arcs: Vec<(u32, u32)> = d.arcs().map(|(_, (u, v))| (u.0, v.0)).collect();
            check::strong_coloring(parsed.n, &parsed.edges, &arcs, &colors)?
        }
        None => check::proper_edge_coloring(&parsed.edges, &colors)?,
    }
    *reference = Some(Reference { colors: job.colors.clone(), compute_rounds: job.compute_rounds });
    Ok(())
}

/// Per-engine timing of untraced jobs: each input's fastest job. On a
/// shared host the same job runs up to twice as slow while a neighbour
/// loads the core, in phases of a few seconds; the fastest of an input's
/// repeats, spread over the whole run, is the figure that interference
/// cannot add to, so every end-to-end timing is computed from these minima.
struct Timing {
    best_ms: Vec<f64>,
    edges: Vec<f64>,
    families: Vec<&'static str>,
    runs: usize,
}

impl Timing {
    fn new(inputs: &[Input]) -> Timing {
        Timing {
            best_ms: vec![f64::INFINITY; inputs.len()],
            edges: inputs.iter().map(|i| i.list.edges.len() as f64).collect(),
            families: inputs.iter().map(|i| i.family).collect(),
            runs: 0,
        }
    }

    fn add(&mut self, idx: usize, ms: f64) {
        self.best_ms[idx] = self.best_ms[idx].min(ms);
        self.runs += 1;
    }

    /// Sets the engine's end-to-end timings; returns the tail percentile.
    fn report(&self, name: &str, rep: &mut Report) -> f64 {
        let best: Vec<f64> = self.best_ms.iter().copied().filter(|t| t.is_finite()).collect();
        let edges: f64 = self
            .edges
            .iter()
            .zip(&self.best_ms)
            .filter(|(_, t)| t.is_finite())
            .map(|(e, _)| e)
            .sum();
        rep.set(format!("{name}.edges_per_s"), ratio(edges, best.iter().sum::<f64>() / 1e3));
        // The typical job: the mean of the families' median jobs. The
        // corpus's families fall into a fast and a slow pair, so a median
        // over all jobs would sit in the gap between them and jump with
        // the seed.
        let mut families = self.families.clone();
        families.sort_unstable();
        families.dedup();
        let family_p50: Vec<f64> = families
            .iter()
            .map(|f| {
                let ms: Vec<f64> = (self.best_ms.iter().zip(&self.families))
                    .filter(|(t, g)| t.is_finite() && *g == f)
                    .map(|(t, _)| *t)
                    .collect();
                median(&ms)
            })
            .collect();
        rep.set(format!("{name}.batch_ms_p50"), mean(&family_p50));
        let (tail_ms, p) = tail(&best);
        rep.set(format!("{name}.batch_ms_tail"), tail_ms);
        p
    }
}

/// One set-up: generate the inputs from the seed and run the warm-up job
/// on both engines. Returns the inputs and the seconds it took.
fn set_up(kind: Kind, args: &Args, rep: &mut Report, spans: &mut Spans) -> (Vec<Input>, f64) {
    let t = Instant::now();
    let inputs = make_inputs(kind, args.seed);
    let warm = warm_up_input(kind);
    for e in args.engines() {
        rep.attempt(
            run_job(kind, &warm, e, false, spans, 0).map_err(|e| args.at(format!("warm-up: {e}"))),
        );
    }
    (inputs, t.elapsed().as_secs_f64())
}

/// Set up again after the first set-up. The inputs must come out the
/// same, and the set-up's own allocations stay out of the measured peak.
fn set_up_again(
    kind: Kind,
    args: &Args,
    inputs: &[Input],
    rep: &mut Report,
    spans: &mut Spans,
    setup_s: &mut Vec<f64>,
    peak: &mut u64,
) {
    *peak = (*peak).max(mem::peak_bytes());
    let (fresh, secs) = set_up(kind, args, rep, spans);
    setup_s.push(secs);
    if fresh != inputs {
        rep.fail(args.at("set-up generated different inputs from the same seed"));
    }
    drop(fresh);
    mem::reset_peak();
}

pub fn run(kind: Kind, args: &Args, rep: &mut Report, spans: &mut Spans) {
    let engines = args.engines();
    let (inputs, secs) = set_up(kind, args, rep, spans);
    // The later set-ups are spread over the run, one after each cycle
    // through the inputs and the rest at the end, so that `setup_s`
    // samples as many of the host's phases as the timings do.
    let mut setup_s = vec![secs];
    let mut peak = 0u64;

    let mut refs: Vec<Option<Reference>> = (0..inputs.len()).map(|_| None).collect();
    let mut timing = [Timing::new(&inputs), Timing::new(&inputs)];
    let mut layers = Layers::default();
    mem::reset_peak();
    let start = Instant::now();
    let mut i = 0usize;
    while i < inputs.len() || start.elapsed() < args.seconds {
        let idx = i % inputs.len();
        let input = &inputs[idx];
        // Alternate which engine goes first, and in a traced run whether
        // the traced or the untraced twin does.
        let flip = (i + i / inputs.len()) % 2 == 1;
        for slot in if flip { [1, 0] } else { [0, 1] } {
            let e = engines[slot];
            let tag =
                |what: String| args.at(format!("job {i} ({}) on {}: {what}", input.label, e.1));
            let modes: &[bool] = match (args.trace, flip) {
                (false, _) => &[false],
                (true, false) => &[false, true],
                (true, true) => &[true, false],
            };
            for &traced in modes {
                let allocs = mem::alloc_calls();
                let live = mem::live_bytes();
                if args.trace && !traced {
                    mem::reset_peak();
                }
                let Some(job) =
                    rep.attempt(run_job(kind, input, e, traced, spans, i as u64).map_err(&tag))
                else {
                    continue;
                };
                if args.trace && !traced {
                    layers.allocs.push((mem::alloc_calls() - allocs) as f64);
                    layers.peak_per_edge.push(
                        mem::peak_bytes().saturating_sub(live) as f64
                            / input.list.edges.len() as f64,
                    );
                }
                if let Err(m) = check_job(input, &job, &mut refs[idx]) {
                    rep.fail(tag(m));
                }
                if traced {
                    layers.traced_ms += job.ms;
                    layers.add(kind, slot, input, &job);
                    if kind == Kind::Wireless {
                        layers.bare_twin(input, &job, e, slot, args, rep);
                    }
                } else if args.trace {
                    layers.untraced_ms += job.ms;
                } else {
                    timing[slot].add(idx, job.ms);
                }
            }
        }
        i += 1;
        if i.is_multiple_of(inputs.len()) {
            set_up_again(kind, args, &inputs, rep, spans, &mut setup_s, &mut peak);
        }
    }
    let peak = peak.max(mem::peak_bytes());
    while setup_s.len() < SETUPS {
        set_up_again(kind, args, &inputs, rep, spans, &mut setup_s, &mut 0);
    }
    rep.set("setup_s", median(&setup_s));
    println!(
        "# {i} job pairs over {} inputs in {:.2} s",
        inputs.len(),
        start.elapsed().as_secs_f64()
    );

    if kind == Kind::Wireless {
        // Each lossy coloring must equal the coloring of its bare twin.
        for (input, r) in inputs.iter().zip(&refs) {
            let Some(r) = r else { continue };
            let bare = bare_twin(input, Engine::Sequential, false)
                .map_err(|e| args.at(format!("bare twin of {}: {e}", input.label)));
            if let Some(b) = rep.attempt(bare) {
                if b.colors != r.colors {
                    rep.fail(
                        args.at(format!(
                            "{}: lossy coloring differs from its bare twin",
                            input.label
                        )),
                    );
                }
            }
        }
    }

    let with_ref: Vec<(&Input, &Reference)> =
        inputs.iter().zip(&refs).filter_map(|(i, r)| r.as_ref().map(|r| (i, r))).collect();
    let per_delta = |f: &dyn Fn(&Reference) -> f64| {
        with_ref.iter().map(|(i, r)| f(r) / i.delta.max(1) as f64).sum::<f64>()
            / with_ref.len().max(1) as f64
    };
    rep.set(
        "colors_over_delta",
        per_delta(&|r| check::count_colors(r.colors.iter().flatten().map(|c| c.0)) as f64),
    );
    rep.set("rounds_over_delta", per_delta(&|r| r.compute_rounds as f64));
    let default_budget = ColoringConfig::default();
    let over = with_ref
        .iter()
        .filter(|(i, r)| r.compute_rounds > default_budget.compute_round_budget(i.delta))
        .count();
    if over > 0 {
        println!(
            "# {over} of {} inputs needed more than the default 64Δ+256 computation rounds",
            with_ref.len()
        );
    }
    rep.set("core.inputs_over_round_budget", over as f64);
    // The Kempe pass works toward Δ+1 but does not promise it; a proper
    // coloring above Δ+1 is a quality miss, not a wrong output.
    let missed: Vec<&str> = with_ref
        .iter()
        .filter(|(i, r)| {
            kind == Kind::Corpus
                && check::count_colors(r.colors.iter().flatten().map(|c| c.0)) > i.delta + 1
        })
        .map(|(i, _)| i.label.as_str())
        .collect();
    if !missed.is_empty() {
        println!("# Kempe stopped above Δ+1 on {}", missed.join(", "));
    }
    rep.set("kempe.missed_target", missed.len() as f64);
    rep.set("peak_heap_mb", peak as f64 / 1e6);
    for (t, (_, name)) in timing.iter().zip(engines) {
        let p = t.report(name, rep);
        if !args.trace {
            println!(
                "# {name}: {} jobs, best of {:.1} per input, tail is p{p:.0} over {} inputs",
                t.runs,
                t.runs as f64 / inputs.len() as f64,
                inputs.len()
            );
        }
    }
    if args.trace {
        layers.report(rep);
    }
}

/// DiMa2ED on the bare transport with no loss: what the lossy run must
/// reproduce. The twin gets the round budget the ARQ layer gives the run
/// it checks (`round_budget_factor` times the bare default): at proposal
/// width 1 some inputs need more than the default `64Δ + 256` computation
/// rounds, which the lossy run absorbs but a default bare run refuses.
/// Those inputs are counted, not hidden (`core.inputs_over_round_budget`).
fn bare_twin(input: &Input, engine: Engine, traced: bool) -> Result<BareTwin, String> {
    let g = from_edge_list(&input.text).map_err(|e| format!("parse: {e}"))?;
    let d = Digraph::symmetric_closure(&g);
    let mut cfg = ColoringConfig {
        engine,
        profile: traced,
        collect_metrics: traced,
        ..ColoringConfig::for_measurement(input.seed)
    };
    let factor = ArqConfig::default().round_budget_factor;
    cfg.max_compute_rounds = Some(factor * cfg.compute_round_budget(d.max_underlying_degree()));
    let t = Instant::now();
    let r = strong_color_digraph(&d, &cfg).map_err(|e| e.to_string())?;
    Ok(BareTwin {
        colors: r.colors,
        ms: t.elapsed().as_secs_f64() * 1e3,
        messages: r.stats.messages_sent,
    })
}

struct BareTwin {
    colors: Vec<Option<Color>>,
    ms: f64,
    messages: u64,
}

/// Per-layer figures gathered from traced jobs (index 0 = seq, 1 = pool).
#[derive(Default)]
struct Layers {
    parse_ms: Vec<f64>,
    color_ms: [Vec<f64>; 2],
    verify_ms: [Vec<f64>; 2],
    kempe_ms: [Vec<f64>; 2],
    jobs: f64,
    messages: f64,
    edges: f64,
    palette_bytes: f64,
    nodes: f64,
    kempe_jobs: f64,
    flips: f64,
    aborts: f64,
    trivial: f64,
    saved: f64,
    kempe_rounds: f64,
    step_ms: [Vec<f64>; 2],
    collect_ms: [Vec<f64>; 2],
    barrier_ms: Vec<f64>,
    unattributed_ms: [Vec<f64>; 2],
    color_total_ms: [f64; 2],
    rounds: [f64; 2],
    deliveries: [f64; 2],
    imbalance: Vec<f64>,
    arq_messages: f64,
    bare_messages: f64,
    acks: f64,
    retransmits: f64,
    dup_bundles: f64,
    link_deaths: f64,
    overhead_rounds: f64,
    comm_rounds: f64,
    lossy_ms: [f64; 2],
    bare_ms: [f64; 2],
    allocs: Vec<f64>,
    peak_per_edge: Vec<f64>,
    traced_ms: f64,
    untraced_ms: f64,
}

impl Layers {
    fn add(&mut self, kind: Kind, slot: usize, input: &Input, job: &Job) {
        let m = input.list.edges.len() as f64;
        self.parse_ms.push(job.parse_ms);
        self.color_ms[slot].push(job.color_ms);
        self.verify_ms[slot].push(job.verify_ms);
        let st = &job.stats;
        // The slowest shard gates every round, so its phases are the ones
        // that add up to the call's wall time.
        let phases =
            st.shard_phases.iter().copied().max_by_key(|p| p.total()).unwrap_or(st.phase_nanos);
        self.step_ms[slot].push(phases.step as f64 / 1e6);
        self.collect_ms[slot].push(phases.collect as f64 / 1e6);
        self.unattributed_ms[slot].push(job.color_ms - phases.total() as f64 / 1e6);
        self.color_total_ms[slot] += job.color_ms;
        self.rounds[slot] += st.rounds as f64;
        self.deliveries[slot] += st.deliveries as f64;
        if job.kempe.is_some() {
            self.kempe_ms[slot].push(job.kempe_ms);
        }
        if slot == 1 {
            self.barrier_ms.push(phases.barrier as f64 / 1e6);
            let steps: Vec<f64> = st.shard_phases.iter().map(|p| p.step as f64).collect();
            let mean = steps.iter().sum::<f64>() / steps.len().max(1) as f64;
            self.imbalance.push(ratio(steps.iter().copied().fold(0.0, f64::max), mean));
        }
        if slot != 0 {
            return;
        }
        // Engine-independent counts: taken once per input, from seq.
        self.jobs += 1.0;
        self.edges += m;
        self.messages += st.messages_sent as f64;
        self.palette_bytes += job.palette_bytes as f64;
        self.nodes += input.list.n as f64;
        if let Some(k) = job.kempe {
            self.kempe_jobs += 1.0;
            self.flips += k.chains_flipped as f64;
            self.aborts += k.aborts as f64;
            self.trivial += k.trivial_recolors as f64;
            self.saved += k.colors_saved() as f64;
            self.kempe_rounds += k.comm_rounds as f64;
        }
        if kind == Kind::Wireless {
            let reg = st.metrics.as_deref();
            let c = |name: &str| reg.map_or(0.0, |r| r.counter(name) as f64);
            self.arq_messages += st.messages_sent as f64;
            self.acks += c("arq/acks_standalone");
            self.retransmits += c("arq/retransmits");
            self.dup_bundles += c("arq/dup_bundles");
            self.link_deaths += c("arq/link_down_exhausted") + c("arq/link_down_silent");
            self.overhead_rounds += job.transport_overhead_rounds as f64;
            self.comm_rounds += job.comm_rounds as f64;
        }
    }

    /// Time the bare twin with the traced job's settings, for the ARQ
    /// slowdown, and count its (protocol-only) messages.
    fn bare_twin(
        &mut self,
        input: &Input,
        job: &Job,
        e: (Engine, &str),
        slot: usize,
        args: &Args,
        rep: &mut Report,
    ) {
        let bare = bare_twin(input, e.0, true)
            .map_err(|m| args.at(format!("bare twin of {} on {}: {m}", input.label, e.1)));
        if let Some(b) = rep.attempt(bare) {
            if b.colors != job.colors {
                rep.fail(args.at(format!(
                    "{} on {}: lossy coloring differs from its bare twin",
                    input.label, e.1
                )));
            }
            self.lossy_ms[slot] += job.color_ms;
            self.bare_ms[slot] += b.ms;
            if slot == 0 {
                self.bare_messages += b.messages as f64;
            }
        }
    }

    fn report(&self, rep: &mut Report) {
        let per_job = |x: f64| ratio(x, self.jobs);
        rep.set("graph.parse_ms", mean(&self.parse_ms));
        let protocol_messages =
            if self.bare_messages > 0.0 { self.bare_messages } else { self.messages };
        rep.set("core.messages_per_edge", ratio(protocol_messages, self.edges));
        rep.set("core.palette_bytes_per_node", ratio(self.palette_bytes, self.nodes));
        rep.set("kempe.chains_flipped", ratio(self.flips, self.kempe_jobs));
        rep.set("kempe.abort_ratio", ratio(self.aborts, self.aborts + self.flips + self.trivial));
        rep.set("kempe.colors_saved", ratio(self.saved, self.kempe_jobs));
        rep.set("kempe.comm_rounds", ratio(self.kempe_rounds, self.kempe_jobs));
        for (slot, name) in ["seq", "pool"].into_iter().enumerate() {
            rep.set(format!("{name}.core.color_ms"), mean(&self.color_ms[slot]));
            rep.set(format!("{name}.core.verify_ms"), mean(&self.verify_ms[slot]));
            rep.set(format!("{name}.kempe.ms"), mean(&self.kempe_ms[slot]));
            rep.set(format!("{name}.sim.step_ms"), mean(&self.step_ms[slot]));
            rep.set(format!("{name}.sim.collect_ms"), mean(&self.collect_ms[slot]));
            rep.set(format!("{name}.sim.unattributed_ms"), mean(&self.unattributed_ms[slot]));
            rep.set(
                format!("{name}.sim.us_per_round"),
                ratio(self.color_total_ms[slot] * 1e3, self.rounds[slot]),
            );
            rep.set(
                format!("{name}.sim.ns_per_delivery"),
                ratio(self.color_total_ms[slot] * 1e6, self.deliveries[slot]),
            );
            rep.set(
                format!("{name}.arq.slowdown_vs_bare"),
                ratio(self.lossy_ms[slot], self.bare_ms[slot]),
            );
        }
        rep.set("pool.sim.barrier_ms", mean(&self.barrier_ms));
        rep.set("pool.sim.shard_imbalance", median(&self.imbalance));
        rep.set("sim.rounds", per_job(self.rounds[0]));
        rep.set("sim.deliveries", per_job(self.deliveries[0]));
        rep.set("sim.deliveries_per_round", ratio(self.deliveries[0], self.rounds[0]));
        rep.set("pool.speedup", ratio(self.color_total_ms[0], self.color_total_ms[1]));
        rep.set("arq.msgs_per_protocol_msg", ratio(self.arq_messages, self.bare_messages));
        rep.set(
            "arq.overhead_rounds_per_comm_round",
            ratio(self.overhead_rounds, self.comm_rounds),
        );
        rep.set("arq.acks_standalone_share", ratio(self.acks, self.arq_messages));
        rep.set("arq.retransmit_share", ratio(self.retransmits, self.arq_messages));
        rep.set("arq.dup_bundles", per_job(self.dup_bundles));
        rep.set("arq.link_deaths", per_job(self.link_deaths));
        rep.set("mem.allocs_per_job", median(&self.allocs));
        rep.set("mem.peak_heap_bytes_per_edge", median(&self.peak_per_edge));
        rep.set("trace.overhead", ratio(self.traced_ms, self.untraced_ms) - 1.0);
    }
}
