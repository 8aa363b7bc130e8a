//! Trace-equality tests: the parallel engine must replay, event for
//! event, the telemetry sequence the sequential engine emits — across
//! faults, churn, sampling and the reliable (ARQ) transport.

use dima_graph::gen::structured;
use dima_sim::telemetry::{BufferTracer, Event, PaletteAction, Tracer};
use dima_sim::{
    run_with, ArqConfig, ChurnPlan, ChurnSchedule, Engine, EngineConfig, NodeSeed, NodeStatus,
    Protocol, ReliableNode, RoundCtx, Topology,
};

/// A protocol exercising every event class: each node broadcasts a
/// greeting, records a state transition per round, and "commits" a
/// pseudo-color with its smallest-id neighbor.
#[derive(Debug)]
struct Chatty {
    rounds_left: u64,
    first_peer: Option<dima_graph::VertexId>,
}

impl Protocol for Chatty {
    type Msg = u32;

    fn kind_of(msg: &u32) -> &'static str {
        if (*msg).is_multiple_of(2) {
            "even"
        } else {
            "odd"
        }
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, u32>) -> NodeStatus {
        ctx.broadcast(ctx.node().0);
        ctx.trace_state("I", "coin");
        if let Some(peer) = self.first_peer {
            ctx.trace_palette(PaletteAction::Committed, ctx.round() as u32, peer);
        }
        self.rounds_left = self.rounds_left.saturating_sub(1);
        if self.rounds_left == 0 {
            ctx.trace_state("D", "budget");
            NodeStatus::Done
        } else {
            NodeStatus::Active
        }
    }

    fn on_topology_change(
        &mut self,
        seed: NodeSeed<'_>,
        _change: &dima_sim::NeighborhoodChange,
    ) -> NodeStatus {
        self.first_peer = seed.neighbors.first().copied();
        self.rounds_left = 2;
        NodeStatus::Active
    }
}

fn chatty_factory(seed: NodeSeed<'_>) -> Chatty {
    Chatty { rounds_left: 4, first_peer: seed.neighbors.first().copied() }
}

/// A tracer that samples only even node ids, both at handle-creation and
/// in its own emit (the contract for composable sinks).
#[derive(Default)]
struct EvenSampler {
    events: Vec<Event>,
}

impl Tracer for EvenSampler {
    fn emit(&mut self, ev: Event) {
        if ev.class() == 1 && !ev.node().is_multiple_of(2) {
            return;
        }
        self.events.push(ev);
    }

    fn sample(&self, node: u32) -> bool {
        node.is_multiple_of(2)
    }
}

/// `cfg` on the pooled engine with `threads` participants.
fn pooled(cfg: &EngineConfig, threads: usize) -> EngineConfig {
    EngineConfig { engine: Engine::Parallel { threads }, ..cfg.clone() }
}

#[test]
fn parallel_trace_matches_sequential() {
    let topo = Topology::from_graph(&structured::grid(5, 4));
    let cfg = EngineConfig::seeded(42);
    let mut seq = BufferTracer::default();
    run_with(&topo, &cfg, &ChurnSchedule::empty(), chatty_factory, &mut seq).unwrap();
    assert!(seq.events.iter().any(|e| matches!(e, Event::State { .. })));
    assert!(seq.events.iter().any(|e| matches!(e, Event::Palette { .. })));
    assert!(seq.events.iter().any(|e| matches!(e, Event::MsgKind { kind: "even", .. })));
    assert!(seq.events.iter().any(|e| matches!(e, Event::Round { .. })));
    for threads in [1, 2, 3, 7] {
        let mut par = BufferTracer::default();
        run_with(&topo, &pooled(&cfg, threads), &ChurnSchedule::empty(), chatty_factory, &mut par)
            .unwrap();
        assert_eq!(seq.events, par.events, "threads = {threads}");
    }
}

#[test]
fn faulty_trace_matches_sequential() {
    let topo = Topology::from_graph(&structured::grid(4, 4));
    let cfg = EngineConfig {
        faults: dima_sim::fault::FaultPlan {
            duplicate_probability: 0.1,
            ..dima_sim::fault::FaultPlan::uniform(0.2)
        },
        max_rounds: 50,
        ..EngineConfig::seeded(7)
    };
    let mut seq = BufferTracer::default();
    run_with(&topo, &cfg, &ChurnSchedule::empty(), chatty_factory, &mut seq).unwrap();
    let has_dropped =
        seq.events.iter().any(|e| matches!(e, Event::MsgKind { dropped, .. } if *dropped > 0));
    assert!(has_dropped, "fault plan should actually drop something");
    for threads in [2, 5] {
        let mut par = BufferTracer::default();
        run_with(&topo, &pooled(&cfg, threads), &ChurnSchedule::empty(), chatty_factory, &mut par)
            .unwrap();
        assert_eq!(seq.events, par.events, "threads = {threads}");
    }
}

#[test]
fn churn_trace_matches_sequential() {
    let g = structured::grid(4, 5);
    let topo = Topology::from_graph(&g);
    let schedule = ChurnSchedule::generate(&g, &ChurnPlan::new(99, 0.3));
    let last_batch = schedule.batches().last().map_or(0, |b| b.round);
    let cfg = EngineConfig { max_rounds: last_batch + 64, ..EngineConfig::seeded(5) };
    let mut seq = BufferTracer::default();
    run_with(&topo, &cfg, &schedule, chatty_factory, &mut seq).unwrap();
    assert!(seq.events.iter().any(|e| matches!(e, Event::Churn { .. })));
    for threads in [2, 4] {
        let mut par = BufferTracer::default();
        run_with(&topo, &pooled(&cfg, threads), &schedule, chatty_factory, &mut par).unwrap();
        assert_eq!(seq.events, par.events, "threads = {threads}");
    }
}

#[test]
fn sampled_trace_matches_sequential() {
    let topo = Topology::from_graph(&structured::grid(5, 5));
    let cfg = EngineConfig::seeded(13);
    let mut seq = EvenSampler::default();
    run_with(&topo, &cfg, &ChurnSchedule::empty(), chatty_factory, &mut seq).unwrap();
    assert!(seq.events.iter().all(|e| e.class() != 1 || e.node() % 2 == 0));
    assert!(seq.events.iter().any(|e| e.class() == 1));
    let mut par = EvenSampler::default();
    run_with(&topo, &pooled(&cfg, 3), &ChurnSchedule::empty(), chatty_factory, &mut par).unwrap();
    assert_eq!(seq.events, par.events);
}

#[test]
fn arq_trace_matches_sequential_and_stamps_inner_rounds() {
    // Heavy loss forces retransmissions; the protocol under the ARQ
    // layer observes inner rounds that lag the engine round.
    let topo = Topology::from_graph(&structured::grid(3, 4));
    let cfg = EngineConfig {
        faults: dima_sim::fault::FaultPlan::uniform(0.3),
        max_rounds: 400,
        ..EngineConfig::seeded(17)
    };
    let factory = || ReliableNode::factory(ArqConfig::default(), chatty_factory);
    let mut seq = BufferTracer::default();
    run_with(&topo, &cfg, &ChurnSchedule::empty(), factory(), &mut seq).unwrap();
    assert!(
        seq.events.iter().any(|e| matches!(e, Event::Arq { .. })),
        "loss this heavy should force at least one retransmission"
    );
    assert!(seq.events.iter().any(|e| matches!(e, Event::MsgKind { kind: "arq-data", .. })));
    assert!(seq.events.iter().any(|e| matches!(e, Event::MsgKind { kind: "arq-ack", .. })));
    for threads in [2, 3] {
        let mut par = BufferTracer::default();
        run_with(&topo, &pooled(&cfg, threads), &ChurnSchedule::empty(), factory(), &mut par)
            .unwrap();
        assert_eq!(seq.events, par.events, "threads = {threads}");
    }
}

#[test]
fn tracing_does_not_change_run_results() {
    // A traced run and a plain run of the same config are bit-identical
    // in everything but the trace (spot check; the cross-protocol
    // proptest lives in dima-core).
    let topo = Topology::from_graph(&structured::grid(5, 4));
    let cfg = EngineConfig { collect_round_stats: true, ..EngineConfig::seeded(3) };
    let plain = dima_sim::run(&topo, &cfg, chatty_factory).unwrap();
    let mut buf = BufferTracer::default();
    let traced = run_with(&topo, &cfg, &ChurnSchedule::empty(), chatty_factory, &mut buf).unwrap();
    assert_eq!(plain.stats, traced.stats);
    let round_footers = buf.events.iter().filter(|e| matches!(e, Event::Round { .. })).count();
    assert_eq!(round_footers as u64, traced.stats.rounds);
}
