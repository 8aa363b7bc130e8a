//! `serve_churn`: the `ColoringService` behind `dima serve`, driven by one
//! client in a closed loop that sends batches of 4 churn events and waits
//! for each repair to quiesce before sending the next.
//!
//! A session runs the service with `dima serve`'s defaults (no palette
//! reduction, a delta checkpoint every 8 batches) plus history compaction
//! every `COMPACT_AFTER` entries, as `--compact-after` does; checkpoints
//! are kept in memory. It ends with repeated restores from the base +
//! delta chain plus the journal tail. Sessions alternate between the
//! engines until the run's time is up.
//!
//! In a traced run, outside the timed region, a Kempe probe replays the
//! same stream (continued to `PROBE_BATCHES`) into a sequential service
//! with `ColorReduction::Kempe` (`dima serve --reduce kempe`) and reports
//! how many batches it loses.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use dima_core::{
    checkpoint_crc, hash_coloring, ColorReduction, ColoringService, Engine, KempeConfig,
    ServeProtocol, ServiceConfig,
};
use dima_graph::io::from_edge_list;
use dima_graph::VertexId;
use dima_sim::telemetry::mem;
use dima_sim::ChurnEvent;

use crate::check;
use crate::inputs::{self, mix, EdgeList, Event, Rng};
use crate::trace::{median, percentile, ratio, tail, Scope, Spans};
use crate::{Args, Report};

const NODES: usize = 400;
const AVG_DEGREE: usize = 12;
const EVENTS_PER_BATCH: usize = 4;
/// 16 compaction epochs of 16 batches, then a delta checkpoint and a
/// 5-batch tail that only the journal holds when the session ends. A
/// session is short so that each batch repeats often enough in a run for
/// its fastest run to be found (see `run`).
const BATCHES: usize = 269;
/// `dima serve --snapshot-every` default.
const CHECKPOINT_EVERY: u64 = 8;
/// History entries folded per compaction: 6% of batches compact, so the
/// tail (p96 over 269 batches) lies inside the compacting class rather
/// than on its edge, where it would flip between classes run to run.
const COMPACT_AFTER: u64 = 16;
/// Timed restores at the end of each session.
const RESTORES: usize = 2;
/// The Kempe probe replays the session's stream continued to this length:
/// its panic comes hundreds of batches in on some seeds.
const PROBE_BATCHES: usize = 1029;
const SETUPS: usize = 5;

#[derive(PartialEq)]
struct Stream {
    g: EdgeList,
    text: String,
    batches: Vec<Vec<ChurnEvent>>,
    /// The edge set the stream leaves behind (sorted).
    final_edges: Vec<(u32, u32)>,
    /// Edges the service must color: the initial graph plus every link-up.
    edges_colored: usize,
    service_seed: u64,
}

fn make_stream(seed: u64, nodes: usize, batches: usize) -> Stream {
    let g = inputs::erdos_renyi(nodes, AVG_DEGREE, &mut Rng::new(seed, 0));
    let (evs, final_edges) =
        inputs::churn_stream(&g, batches, EVENTS_PER_BATCH, &mut Rng::new(seed, 1));
    let v = VertexId;
    let ups = evs.iter().flatten().filter(|e| matches!(e, Event::Up(..))).count();
    let batches = evs
        .into_iter()
        .map(|b| {
            b.into_iter()
                .map(|e| match e {
                    Event::Up(a, b) => ChurnEvent::LinkUp(v(a), v(b)),
                    Event::Down(a, b) => ChurnEvent::LinkDown(v(a), v(b)),
                    Event::Join(a) => ChurnEvent::NodeJoin(v(a)),
                    Event::Leave(a) => ChurnEvent::NodeLeave(v(a)),
                })
                .collect()
        })
        .collect();
    Stream {
        text: g.text(),
        edges_colored: g.edges.len() + ups,
        g,
        batches,
        final_edges,
        service_seed: mix(seed ^ 0x5E5E),
    }
}

/// The configuration `dima serve` builds (`--threads` picks the engine).
fn config(seed: u64, engine: Engine) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(ServeProtocol::EdgeColoring, seed);
    cfg.coloring.engine = engine;
    cfg
}

/// What one session measured.
#[derive(Default)]
struct Session {
    /// Parse, initial coloring and the startup snapshot.
    start_ms: f64,
    batch_ms: Vec<f64>,
    hash: u64,
    /// Final base, deltas and journal: the engines must write the same bytes.
    chain: Vec<String>,
    restore_ms: Vec<f64>,
    initial_delta: usize,
    colors: usize,
    final_delta: usize,
    parse_ms: f64,
    color_ms: f64,
    commit_us: Vec<f64>,
    repair_ms: Vec<f64>,
    repair_rounds: Vec<f64>,
    repair_ticks: f64,
    checkpoint_ms: Vec<f64>,
    compact_ms: Vec<f64>,
    checkpoint_bytes: Vec<f64>,
    base_bytes: Vec<f64>,
    colors_changed: f64,
    events: f64,
    escalations: f64,
    tail_entries: f64,
}

fn crc(text: &str, what: &str) -> Result<u32, String> {
    checkpoint_crc(text).ok_or_else(|| format!("{what} has no CRC trailer"))
}

/// Run the stream through a fresh service on `engine`. Counts every batch
/// and restore in `rep`; a mismatch found by a check fails the operation
/// but the session goes on.
fn session(
    s: &Stream,
    engine: (Engine, &'static str),
    id: u64,
    spans: Option<&mut Spans>,
    args: &Args,
    rep: &mut Report,
) -> Result<Session, String> {
    let (engine, label) = engine;
    let at = |what: String| args.at(format!("session {id} on {label}: {what}"));
    let mut sc = Scope::new(spans, label);
    let mut out = Session::default();
    let t0 = Instant::now();
    let job = id * 10_000;
    sc.begin(job, "start");
    let sp = sc.open("parse");
    let g = from_edge_list(&s.text).map_err(|e| at(format!("parse: {e}")))?;
    out.parse_ms = sc.close(sp);
    let sp = sc.open("color");
    let mut svc =
        ColoringService::new(&g, config(s.service_seed, engine)).map_err(|e| at(e.to_string()))?;
    svc.run_to_quiescence(svc.tick_budget()).map_err(|e| at(e.to_string()))?;
    out.color_ms = sc.close(sp);
    let sp = sc.open("checkpoint");
    let mut base = svc.snapshot_text();
    sc.close(sp);
    sc.end();
    out.start_ms = t0.elapsed().as_secs_f64() * 1e3;
    out.initial_delta = s.g.max_degree();
    let mut parent_crc = crc(&base, "snapshot").map_err(&at)?;
    let mut deltas: Vec<String> = Vec::new();
    let mut checkpointed_h = 0u64;
    let mut journal = String::new();
    let mut since_checkpoint = 0u64;
    let mut epoch = 0u64;
    for (k, batch) in s.batches.iter().enumerate() {
        if epoch == 0 && svc.history_len() + 1 == COMPACT_AFTER {
            // `recompute` refuses a compacted service, so the restore +
            // recompute cross-check runs at the last uncompacted state.
            let check = restore_and_recompute(&svc, &base, &deltas, &journal, engine);
            rep.attempt(check.map_err(|e| at(format!("epoch-0 restore check: {e}"))));
        }
        let t = Instant::now();
        sc.begin(job + 1 + k as u64, "batch");
        let r: Result<(), String> = (|| {
            let sp = sc.open("stage");
            for ev in batch {
                svc.stage(*ev).map_err(|e| format!("stage {ev:?}: {e}"))?;
                journal.push_str(&ColoringService::journal_event_line(ev));
            }
            sc.close(sp);
            let sp = sc.open("commit");
            let (seq, round) =
                svc.commit().map_err(|e| e.to_string())?.ok_or("nothing to commit")?;
            journal.push_str(&ColoringService::journal_commit_line(
                epoch,
                svc.history_len(),
                seq,
                round,
            ));
            out.commit_us.push(sc.close(sp) * 1e3);
            let sp = sc.open("repair");
            let ticks = svc.run_to_quiescence(svc.tick_budget()).map_err(|e| e.to_string())?;
            out.repair_ms.push(sc.close(sp));
            out.repair_rounds.push(ticks as f64);
            out.repair_ticks += ticks as f64;
            since_checkpoint += 1;
            if svc.history_len() >= COMPACT_AFTER {
                let sp = sc.open("compact");
                epoch = svc.compact_history().map_err(|e| e.to_string())?.epoch;
                base = svc.base_text().map_err(|e| e.to_string())?;
                parent_crc = crc(&base, "base")?;
                out.compact_ms.push(sc.close(sp));
                out.base_bytes.push(base.len() as f64);
                (deltas, checkpointed_h, since_checkpoint) = (Vec::new(), 0, 0);
                journal.clear();
            } else if since_checkpoint >= CHECKPOINT_EVERY {
                let sp = sc.open("checkpoint");
                let d = svc
                    .delta_text(checkpointed_h, deltas.len() as u64 + 1, parent_crc)
                    .map_err(|e| e.to_string())?;
                parent_crc = crc(&d, "delta")?;
                out.checkpoint_ms.push(sc.close(sp));
                out.checkpoint_bytes.push(d.len() as f64);
                deltas.push(d);
                (checkpointed_h, since_checkpoint) = (svc.history_len(), 0);
                journal.clear();
            }
            Ok(())
        })();
        sc.end();
        out.batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        // A failed batch abandons the session; the caller counts it.
        r.map_err(|e| at(format!("batch {k}: {e}")))?;
        rep.attempted += 1;
    }
    out.hash = svc.coloring_hash();
    for rpt in svc.take_reports() {
        out.colors_changed += rpt.colors_changed as f64;
        out.events += rpt.events as f64;
    }
    out.escalations = svc.escalations() as f64;
    let refs: Vec<&str> = deltas.iter().map(String::as_str).collect();
    for r in 0..RESTORES {
        sc.begin(job + 5_000 + r as u64, "restore");
        let t = Instant::now();
        let restored = ColoringService::restore_chain(&base, &refs, Some(&journal), engine);
        out.restore_ms.push(t.elapsed().as_secs_f64() * 1e3);
        sc.end();
        let Some((svc2, report)) =
            rep.attempt(restored.map_err(|e| at(format!("restore {r}: {e}"))))
        else {
            continue;
        };
        out.tail_entries = report.tail_entries as f64;
        if svc2.coloring_hash() != out.hash {
            rep.fail(at(format!("restore {r}: restored hash differs from the live one")));
        }
    }
    // The live coloring must be a proper coloring of exactly the graph the
    // stream leaves behind.
    let live = svc.coloring();
    let edges: Vec<(u32, u32)> = live.iter().map(|e| (e.u.0, e.v.0)).collect();
    let colors: Vec<Option<u32>> = live
        .iter()
        .map(|e| if e.forward == e.reverse { e.forward.map(|c| c.0) } else { None })
        .collect();
    if edges != s.final_edges {
        rep.fail(at("live graph differs from the graph the stream leaves behind".into()));
    } else if let Err(e) = check::proper_edge_coloring(&edges, &colors) {
        rep.fail(at(format!("live coloring: {e}")));
    }
    out.colors = check::count_colors(colors.iter().flatten().copied());
    out.final_delta = EdgeList { n: s.g.n, edges }.max_degree();
    out.chain = [base].into_iter().chain(deltas).chain([journal]).collect();
    Ok(out)
}

/// Restore the uncompacted chain and check it against the live service,
/// then check a from-scratch recompute of the restored history.
fn restore_and_recompute(
    svc: &ColoringService,
    base: &str,
    deltas: &[String],
    journal: &str,
    engine: Engine,
) -> Result<(), String> {
    let refs: Vec<&str> = deltas.iter().map(String::as_str).collect();
    let (restored, _) = ColoringService::restore_chain(base, &refs, Some(journal), engine)
        .map_err(|e| e.to_string())?;
    let live = svc.coloring_hash();
    if restored.coloring_hash() != live {
        return Err("restored hash differs from the live one".into());
    }
    let again = restored.recompute(Engine::Sequential).map_err(|e| e.to_string())?;
    if hash_coloring(&again) != live {
        return Err("recompute(Sequential) differs from the live coloring".into());
    }
    Ok(())
}

/// Replay the stream into a sequential service with the Kempe pass on,
/// as `dima serve --reduce kempe` runs it, catching panics. Returns the
/// batches completed and, if it stopped early, why.
fn kempe_probe(s: &Stream) -> (usize, Option<String>) {
    static PANIC: Mutex<Option<String>> = Mutex::new(None);
    let mut done = 0usize;
    let prev = panic::take_hook();
    panic::set_hook(Box::new(|info| {
        *PANIC.lock().unwrap_or_else(|p| p.into_inner()) = Some(info.to_string());
    }));
    let run = panic::catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
        let g = from_edge_list(&s.text).map_err(|e| e.to_string())?;
        let mut cfg = config(s.service_seed, Engine::Sequential);
        cfg.coloring.reduction = ColorReduction::Kempe(KempeConfig::default());
        let mut svc = ColoringService::new(&g, cfg).map_err(|e| e.to_string())?;
        svc.run_to_quiescence(svc.tick_budget()).map_err(|e| e.to_string())?;
        for batch in &s.batches {
            for ev in batch {
                svc.stage(*ev).map_err(|e| e.to_string())?;
            }
            svc.commit().map_err(|e| e.to_string())?;
            svc.run_to_quiescence(svc.tick_budget()).map_err(|e| e.to_string())?;
            done += 1;
        }
        Ok(())
    }));
    panic::set_hook(prev);
    let why = match run {
        Ok(Ok(())) => None,
        Ok(Err(e)) => Some(e),
        Err(_) => Some(PANIC.lock().unwrap_or_else(|p| p.into_inner()).take().unwrap_or_default()),
    };
    (done, why)
}

/// One set-up: generate the stream from the seed and warm up with a short
/// session per engine, untimed and unchecked against the main stream.
/// Returns the stream and the seconds it took.
fn set_up(args: &Args, rep: &mut Report) -> (Stream, f64) {
    let t = Instant::now();
    let stream = make_stream(args.seed, NODES, BATCHES);
    let warm = make_stream(0, 100, 16);
    for e in args.engines() {
        let warm_up = session(&warm, e, 0, None, args, rep);
        rep.attempt(warm_up.map_err(|m| format!("warm-up: {m}")));
    }
    (stream, t.elapsed().as_secs_f64())
}

/// Set up again after the first set-up. The stream must come out the
/// same, and the set-up's own allocations stay out of the measured peak.
fn set_up_again(
    args: &Args,
    stream: &Stream,
    rep: &mut Report,
    setup_s: &mut Vec<f64>,
    peak: &mut u64,
) {
    *peak = (*peak).max(mem::peak_bytes());
    let (fresh, secs) = set_up(args, rep);
    setup_s.push(secs);
    if fresh != *stream {
        rep.fail(args.at("set-up generated a different stream from the same seed"));
    }
    drop(fresh);
    mem::reset_peak();
}

pub fn run(args: &Args, rep: &mut Report, spans: &mut Spans) {
    let engines = args.engines();
    let (s, secs) = set_up(args, rep);
    // The later set-ups are spread over the run, one after each session
    // pair and the rest at the end (see `batch::run`).
    let mut setup_s = vec![secs];
    let mut peak = 0u64;

    let mut agg = [Agg::default(), Agg::default()];
    let mut traced = [Agg::default(), Agg::default()];
    let mut first: Option<Session> = None;
    mem::reset_peak();
    let start = Instant::now();
    // Every engine runs at least once, traced and untraced.
    let min_sessions = if args.trace { 4 } else { 2 };
    let mut i = 0u64;
    while i < min_sessions || start.elapsed() < args.seconds {
        // seq, pool, pool, seq, ...: each engine goes first equally often.
        let slot = ((i + i / 2) % 2) as usize;
        let e = engines[slot];
        let on = args.trace && (i / 2) % 2 == 1;
        let allocs = mem::alloc_calls();
        let out = session(&s, e, i + 1, on.then_some(&mut *spans), args, rep);
        let allocs = mem::alloc_calls() - allocs;
        i += 1;
        let Some(out) = rep.attempt(out) else { continue };
        match &first {
            None => first = Some(out.summary()),
            Some(f) if f.hash != out.hash || f.chain != out.chain => rep.fail(args.at(format!(
                "session {i} on {}: coloring or checkpoint bytes differ from the first session",
                e.1
            ))),
            Some(_) => {}
        }
        let a = if on { &mut traced[slot] } else { &mut agg[slot] };
        a.allocs_per_batch.push(allocs as f64 / BATCHES as f64);
        a.add(out);
        if i.is_multiple_of(2) {
            set_up_again(args, &s, rep, &mut setup_s, &mut peak);
        }
    }
    let peak = peak.max(mem::peak_bytes());
    while setup_s.len() < SETUPS {
        set_up_again(args, &s, rep, &mut setup_s, &mut 0);
    }
    rep.set("setup_s", median(&setup_s));
    println!(
        "# {i} sessions of {BATCHES} batches in {:.2} s; seq {} batches, pool {}",
        start.elapsed().as_secs_f64(),
        agg[0].batch_ms.len(),
        agg[1].batch_ms.len()
    );

    if args.trace {
        // Its figures are per-layer, so only a traced run pays for it.
        let probe = make_stream(args.seed, NODES, PROBE_BATCHES);
        let (done, why) = kempe_probe(&probe);
        let lost = PROBE_BATCHES - done;
        println!("# kempe probe: {done} of {PROBE_BATCHES} batches served, {lost} lost");
        if let Some(why) = why {
            println!("# kempe probe stopped: {}", why.replace('\n', " "));
        }
        rep.set("kempe_probe.batches", PROBE_BATCHES as f64);
        rep.set("kempe_probe.lost_batches", lost as f64);
    }

    if let Some(f) = &first {
        rep.set("colors_over_delta", ratio(f.colors as f64, f.final_delta as f64));
        // Computation rounds (3 ticks each) per repair, over Δ.
        let per_batch = f.repair_ticks / 3.0 / BATCHES as f64;
        rep.set("rounds_over_delta", ratio(per_batch, f.initial_delta as f64));
    }
    rep.set("peak_heap_mb", peak as f64 / 1e6);
    let edges = s.edges_colored as f64;
    for (slot, (_, name)) in engines.iter().enumerate() {
        let a = &agg[slot];
        // Every batch of the stream does the same work in every session,
        // so each is timed by its fastest run: the figure the host's
        // neighbours cannot add to (see `batch::Timing`).
        let session_ms = a.best_start_ms + a.best_batch_ms.iter().sum::<f64>();
        rep.set(format!("{name}.edges_per_s"), ratio(edges, session_ms / 1e3));
        rep.set(format!("{name}.batch_ms_p50"), median(&a.best_batch_ms));
        rep.set(format!("{name}.batch_ms_tail"), tail(&a.best_batch_ms).0);
        if !args.trace {
            println!(
                "# {name}: best of {} sessions per batch, tail is p{:.0} over {BATCHES} batches",
                a.sessions,
                tail(&a.best_batch_ms).1
            );
        }
        if args.trace {
            traced[slot].report(name, rep);
        }
    }
    if args.trace {
        let all = |f: fn(&Agg) -> f64| f(&traced[0]) + f(&traced[1]);
        let mean_batch = |a: &[Agg; 2]| {
            let ms: Vec<f64> = a.iter().flat_map(|a| a.batch_ms.iter().copied()).collect();
            ms.iter().sum::<f64>() / ms.len().max(1) as f64
        };
        rep.set("trace.overhead", ratio(mean_batch(&traced), mean_batch(&agg)) - 1.0);
        let t = &traced[0];
        rep.set(
            "graph.parse_ms",
            median(&[&traced[0].parse_ms[..], &traced[1].parse_ms[..]].concat()),
        );
        rep.set("service.repair_rounds_p50", median(&t.repair_rounds));
        rep.set("service.repair_rounds_p99", percentile(&t.repair_rounds, 99.0));
        rep.set("service.churn_amplification", ratio(t.colors_changed, t.events));
        rep.set("service.checkpoint_bytes", median(&t.checkpoint_bytes));
        rep.set("service.base_bytes", median(&t.base_bytes));
        rep.set("service.escalations", ratio(all(|a| a.escalations), all(|a| a.sessions)));
        rep.set("service.restore_tail_entries", t.tail_entries);
        rep.set("sim.rounds", ratio(t.repair_ticks, t.batch_ms.len() as f64));
        rep.set(
            "mem.allocs_per_job",
            median(&[&agg[0].allocs_per_batch[..], &agg[1].allocs_per_batch[..]].concat()),
        );
        rep.set("mem.peak_heap_bytes_per_edge", peak as f64 / s.g.edges.len() as f64);
    }
}

/// Sessions of one engine (and one tracing mode) pooled together.
#[derive(Default)]
struct Agg {
    sessions: f64,
    /// Fastest start, and fastest run of each batch, over the sessions.
    best_start_ms: f64,
    best_batch_ms: Vec<f64>,
    batch_ms: Vec<f64>,
    parse_ms: Vec<f64>,
    color_ms: Vec<f64>,
    commit_us: Vec<f64>,
    repair_ms: Vec<f64>,
    repair_rounds: Vec<f64>,
    repair_ticks: f64,
    checkpoint_ms: Vec<f64>,
    compact_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    checkpoint_bytes: Vec<f64>,
    base_bytes: Vec<f64>,
    colors_changed: f64,
    events: f64,
    escalations: f64,
    tail_entries: f64,
    allocs_per_batch: Vec<f64>,
}

impl Agg {
    fn add(&mut self, s: Session) {
        if self.sessions == 0.0 {
            self.best_start_ms = s.start_ms;
            self.best_batch_ms = s.batch_ms.clone();
        }
        self.sessions += 1.0;
        self.best_start_ms = self.best_start_ms.min(s.start_ms);
        for (b, &t) in self.best_batch_ms.iter_mut().zip(&s.batch_ms) {
            *b = b.min(t);
        }
        self.batch_ms.extend(s.batch_ms);
        self.parse_ms.push(s.parse_ms);
        self.color_ms.push(s.color_ms);
        self.commit_us.extend(s.commit_us);
        self.repair_ms.extend(s.repair_ms);
        self.repair_rounds.extend(s.repair_rounds);
        self.repair_ticks += s.repair_ticks;
        self.checkpoint_ms.extend(s.checkpoint_ms);
        self.compact_ms.extend(s.compact_ms);
        self.restore_ms.extend(s.restore_ms);
        self.checkpoint_bytes.extend(s.checkpoint_bytes);
        self.base_bytes.extend(s.base_bytes);
        self.colors_changed += s.colors_changed;
        self.events += s.events;
        self.escalations += s.escalations;
        self.tail_entries = s.tail_entries;
    }

    fn report(&self, name: &str, rep: &mut Report) {
        rep.set(format!("{name}.core.color_ms"), median(&self.color_ms));
        rep.set(format!("{name}.service.commit_us"), median(&self.commit_us));
        rep.set(format!("{name}.service.repair_ms_p50"), median(&self.repair_ms));
        rep.set(format!("{name}.service.repair_ms_p99"), percentile(&self.repair_ms, 99.0));
        rep.set(format!("{name}.service.checkpoint_ms"), median(&self.checkpoint_ms));
        rep.set(format!("{name}.service.compact_ms"), median(&self.compact_ms));
        rep.set(format!("{name}.service.restore_ms"), median(&self.restore_ms));
        rep.set(
            format!("{name}.sim.us_per_round"),
            ratio(self.repair_ms.iter().sum::<f64>() * 1e3, self.repair_ticks),
        );
    }
}

impl Session {
    /// The parts of a session later sessions are compared with.
    fn summary(&self) -> Session {
        Session {
            hash: self.hash,
            chain: self.chain.clone(),
            colors: self.colors,
            final_delta: self.final_delta,
            repair_ticks: self.repair_ticks,
            initial_delta: self.initial_delta,
            ..Session::default()
        }
    }
}
