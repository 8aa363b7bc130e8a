//! The one run path: [`Engine`] picks the engine, [`EngineStepper`]
//! drives it round by round, and [`run`] / [`run_with`] run it to
//! quiescence.
//!
//! Both engines execute the paper's single synchronous round loop (§I-C):
//! nodes are stepped in id order, messages produced in round `r` are
//! delivered (sorted by sender id) at round `r+1`, and the run ends when
//! every node has reported [`NodeStatus::Done`](crate::NodeStatus::Done)
//! and the churn schedule is exhausted, or the round budget runs out.
//! Given the same topology, config and factory, two runs are
//! bit-identical, whichever [`Engine`] executes them.

use dima_telemetry::{MetricsRegistry, NoopTracer, Tracer};

use crate::churn::{ChurnBatch, ChurnSchedule};
use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::par::ParStepper;
use crate::protocol::{NodeSeed, Protocol};
use crate::stats::{RoundStats, RunStats};
use crate::stepper::Stepper;
use crate::topology::Topology;

/// Which engine executes the protocol.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Engine {
    /// Deterministic single-threaded reference engine.
    #[default]
    Sequential,
    /// Sharded multi-threaded engine; produces bit-identical results.
    Parallel {
        /// Number of worker threads.
        threads: usize,
    },
}

/// Engine configuration shared by both engines.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Master seed; all node RNGs derive from it.
    pub seed: u64,
    /// Abort with [`SimError::MaxRoundsExceeded`] after this many
    /// communication rounds.
    pub max_rounds: u64,
    /// Collect a per-round stats breakdown (small extra allocation).
    pub collect_round_stats: bool,
    /// Check that unicasts go to actual neighbors (the one-hop model);
    /// costs a binary search per send.
    pub validate_sends: bool,
    /// Message-loss injection (defaults to reliable delivery).
    pub faults: FaultPlan,
    /// Measure wall-clock time per engine stage into
    /// [`RunStats::phase_nanos`]. Off by default so run statistics stay
    /// bit-comparable across engines and runs.
    pub profile: bool,
    /// Collect aggregate metrics (counters/gauges/histograms) into
    /// [`RunStats::metrics`]. All recorded quantities are deterministic
    /// — counts and round-denominated latencies — so metric registries
    /// are bit-identical across engines, except the `pool/` per-shard
    /// entries which only appear when `profile` is also on (they are
    /// wall-clock and engine-specific by nature).
    pub metrics: bool,
    /// Which engine executes the run.
    pub engine: Engine,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: 0,
            max_rounds: 1_000_000,
            collect_round_stats: false,
            validate_sends: true,
            faults: FaultPlan::reliable(),
            profile: false,
            metrics: false,
            engine: Engine::Sequential,
        }
    }
}

impl EngineConfig {
    /// A config with the given seed and defaults elsewhere.
    pub fn seeded(seed: u64) -> Self {
        EngineConfig { seed, ..Default::default() }
    }
}

#[cfg(test)]
impl EngineConfig {
    /// This config on the pooled engine with `threads` participants.
    pub(crate) fn pooled(&self, threads: usize) -> Self {
        EngineConfig { engine: Engine::Parallel { threads }, ..self.clone() }
    }
}

/// The result of a completed run: each node's final protocol state plus
/// the aggregate statistics.
#[derive(Clone, Debug)]
pub struct RunOutcome<P> {
    /// Final protocol state per node, indexed by node id.
    pub nodes: Vec<P>,
    /// Aggregate run statistics.
    pub stats: RunStats,
    /// Which nodes crash-stopped during the run (all `false` under a
    /// crash-free [`FaultPlan`]). A crashed node's protocol state is
    /// frozen at the moment of the crash.
    pub crashed: Vec<bool>,
}

impl<P> RunOutcome<P> {
    /// `true` for nodes that survived to the end of the run.
    pub fn alive(&self) -> Vec<bool> {
        self.crashed.iter().map(|&c| !c).collect()
    }
}

/// Run `factory`-created protocols on `topo` until all nodes are done,
/// on the engine `cfg` selects.
///
/// The factory is called once per node with the node's id and neighbor
/// list (by the worker owning the node's shard under the parallel
/// engine, hence `Sync`).
pub fn run<P, F>(topo: &Topology, cfg: &EngineConfig, factory: F) -> Result<RunOutcome<P>, SimError>
where
    P: Protocol,
    F: Fn(NodeSeed<'_>) -> P + Sync,
{
    run_with(topo, cfg, &ChurnSchedule::empty(), factory, &mut NoopTracer)
}

/// [`run`] under a topology-churn schedule, feeding telemetry events to
/// `tracer`.
///
/// Each [`ChurnBatch`] is applied at the top of its round, before any
/// node is stepped: leavers are parked as done with their inboxes
/// cleared, joiners get a *fresh* protocol instance from the factory (but
/// keep their RNG stream — node randomness is a function of
/// `(seed, node id)` alone), and every surviving node with a neighborhood
/// diff is told through [`Protocol::on_topology_change`], whose return
/// value replaces its done flag. The run ends when every node is done
/// *and* the schedule is exhausted — parked nodes idle through quiescent
/// stretches between batches, which the loop fast-forwards.
///
/// Telemetry events are emitted in the canonical deterministic order
/// (see [`dima_telemetry::event`]): per round, the churn batch summary,
/// node events in node-id order, per-message-kind counters in kind-name
/// order, then the round footer — the same sequence on both engines.
/// With [`NoopTracer`] every tracing branch folds away at
/// monomorphization, so `run_with(.., &mut NoopTracer)` *is* [`run`].
pub fn run_with<P, F, T>(
    topo: &Topology,
    cfg: &EngineConfig,
    schedule: &ChurnSchedule,
    factory: F,
    tracer: &mut T,
) -> Result<RunOutcome<P>, SimError>
where
    P: Protocol,
    F: Fn(NodeSeed<'_>) -> P + Sync,
    T: Tracer + Sync,
{
    if topo.num_nodes() == 0 {
        return Ok(RunOutcome {
            nodes: Vec::new(),
            stats: RunStats {
                per_round: cfg.collect_round_stats.then(Vec::new),
                metrics: cfg.metrics.then(|| Box::new(MetricsRegistry::new())),
                ..Default::default()
            },
            crashed: Vec::new(),
        });
    }
    EngineStepper::new(topo, cfg, factory).run_schedule(cfg.max_rounds, schedule, tracer)
}

/// A step-wise handle on either engine: one communication round per
/// [`EngineStepper::tick`].
///
/// [`run_with`] is a run-to-quiescence loop over this type, so a handle
/// driven tick by tick is *bit-identical* to a batch run over the same
/// inputs: same per-node RNG streams, same delivery order, same
/// churn-batch semantics. That split is what lets a long-lived service
/// (`dima serve`) interleave repair rounds with event ingest and
/// snapshot queries while keeping the determinism guarantees the batch
/// entry points are tested for.
///
/// The caller owns the loop: it decides when to tick, which
/// [`ChurnBatch`] (if any) fires at the top of a round, and when to
/// stop. There is no round budget here — budget enforcement stays with
/// the caller.
pub struct EngineStepper<P: Protocol, F> {
    inner: Inner<P, F>,
}

/// The two implementations of the round loop. The sequential stepper is
/// the reference every bit-identity test compares the pool against.
enum Inner<P: Protocol, F> {
    Seq(Stepper<P, F>),
    Pool(ParStepper<P, F>),
}

/// Forward one method call to whichever engine is running.
macro_rules! dispatch {
    ($self:expr, $s:ident => $body:expr) => {
        match $self {
            Inner::Seq($s) => $body,
            Inner::Pool($s) => $body,
        }
    };
}

impl<P, F> EngineStepper<P, F>
where
    P: Protocol,
    F: Fn(NodeSeed<'_>) -> P + Sync,
{
    /// Create the per-node protocol instances on `topo` for the engine
    /// `cfg` selects, and stand ready at round 0. The factory is called
    /// once per node in node order, and kept for churn joins and
    /// [`EngineStepper::restart`]. A parallel engine's thread count is
    /// clamped to `[1, n]`.
    pub fn new(topo: &Topology, cfg: &EngineConfig, factory: F) -> Self {
        let inner = match cfg.engine {
            Engine::Sequential => Inner::Seq(Stepper::new(topo, cfg, factory)),
            Engine::Parallel { threads } => {
                Inner::Pool(ParStepper::new(topo, cfg, threads, factory))
            }
        };
        EngineStepper { inner }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        dispatch!(&self.inner, s => s.num_nodes())
    }

    /// The round the next [`EngineStepper::tick`] will execute.
    pub fn round(&self) -> u64 {
        dispatch!(&self.inner, s => s.round())
    }

    /// Rounds actually executed so far (excludes skipped idle rounds).
    fn executed(&self) -> u64 {
        dispatch!(&self.inner, s => s.executed())
    }

    /// True when every node is parked (done or crashed) — quiescence.
    /// A churn batch or [`EngineStepper::restart`] re-activates nodes.
    pub fn is_quiescent(&self) -> bool {
        dispatch!(&self.inner, s => s.is_quiescent())
    }

    /// Nodes still active (not done, not crashed).
    pub fn still_active(&self) -> usize {
        dispatch!(&self.inner, s => s.still_active())
    }

    /// Current protocol state per node, by node id.
    pub fn nodes(&self) -> &[P] {
        dispatch!(&self.inner, s => s.nodes())
    }

    /// Mutable access to the protocol instances, for hosts that apply an
    /// out-of-band pass between repairs (e.g. serve-mode palette
    /// compaction) and write the outcome back into the parked automata.
    /// The engine does not re-validate node state — callers must
    /// preserve the protocol's invariants.
    pub fn nodes_mut(&mut self) -> &mut [P] {
        dispatch!(&mut self.inner, s => s.nodes_mut())
    }

    /// The topology currently in force (swapped by churn batches).
    pub fn topology(&self) -> &Topology {
        dispatch!(&self.inner, s => s.topology())
    }

    /// Jump the round clock forward to `target` without executing the
    /// intervening rounds — the idle fast-forward. Only legal when the
    /// stepper is quiescent with empty mailboxes (nothing can happen in
    /// the skipped rounds); a no-op when `target` is not ahead.
    fn skip_to_round(&mut self, target: u64) {
        dispatch!(&mut self.inner, s => s.skip_to_round(target))
    }

    /// Throw away every surviving node's protocol state and start the
    /// algorithm over on the current topology: fresh factory instances,
    /// cleared mailboxes, all done flags reset. RNG streams continue from
    /// where they are (node randomness stays a function of the executed
    /// step sequence), so a restart is exactly as deterministic as the
    /// rounds that led to it — the escalation path of `dima serve`'s
    /// convergence watchdog relies on that.
    pub fn restart(&mut self) {
        dispatch!(&mut self.inner, s => s.restart())
    }

    /// Park every surviving node as done without stepping it, leaving
    /// protocol state exactly as constructed. This is the bootstrap for a
    /// *rebased* service: after history compaction the nodes are built
    /// directly in a settled configuration (adopting a previously
    /// converged coloring), so the stepper must start quiescent instead
    /// of running the algorithm from scratch. Mailboxes are cleared; the
    /// round clock is untouched. Wake-class traffic (a later churn batch)
    /// un-parks nodes exactly as it would after natural convergence.
    pub fn park_all(&mut self) {
        dispatch!(&mut self.inner, s => s.park_all())
    }

    /// Execute one communication round: apply `batch` first if given
    /// (its [`ChurnBatch::round`] must equal [`EngineStepper::round`]),
    /// step every active node, deliver, merge done/wake flags at the
    /// boundary, and advance the round clock. Returns the round's
    /// counters, or [`SimError::NotANeighbor`] if a protocol unicast an
    /// illegal destination while [`EngineConfig::validate_sends`] is on.
    /// The stepper is not usable after an error, nor after a protocol
    /// panic (which the parallel engine re-raises here).
    ///
    /// The tracer type must stay consistent across the stepper's life —
    /// per-kind message counters are only maintained when a real tracer
    /// is attached on the first tick.
    pub fn tick<T: Tracer + Sync>(
        &mut self,
        batch: Option<&ChurnBatch>,
        tracer: &mut T,
    ) -> Result<RoundStats, SimError> {
        dispatch!(&mut self.inner, s => s.tick(batch, tracer))
    }

    /// Consume the stepper into a [`RunOutcome`], recording how much
    /// churn was applied over its lifetime.
    pub(crate) fn into_outcome(self, churn_batches: u64, churn_events: u64) -> RunOutcome<P> {
        dispatch!(self.inner, s => s.into_outcome(churn_batches, churn_events))
    }

    /// The run-to-quiescence loop behind [`run_with`]: fire each batch
    /// at the top of its round, stop once every node is parked and the
    /// schedule is exhausted, and fast-forward idle stretches between
    /// batches.
    fn run_schedule<T: Tracer + Sync>(
        mut self,
        max_rounds: u64,
        schedule: &ChurnSchedule,
        tracer: &mut T,
    ) -> Result<RunOutcome<P>, SimError> {
        let mut next_batch = 0usize;
        while self.executed() < max_rounds {
            let batch = schedule.batches().get(next_batch).filter(|b| b.round == self.round());
            if batch.is_some() {
                next_batch += 1;
            }
            let rs = self.tick(batch, tracer)?;
            if self.is_quiescent() {
                if next_batch == schedule.len() {
                    return Ok(
                        self.into_outcome(schedule.len() as u64, schedule.total_events() as u64)
                    );
                }
                // Idle-round fast-forward: this round was fully quiescent
                // (no node stepped, so nothing is in flight) yet every
                // node is parked waiting for a future churn batch. Its
                // `active == 0` stats row is the quiescence marker batch
                // reports key off; jump straight to the batch round
                // instead of spinning the gap one empty round at a time.
                if rs.active == 0 {
                    if let Some(b) = schedule.batches().get(next_batch) {
                        self.skip_to_round(b.round);
                    }
                }
            }
        }
        Err(SimError::MaxRoundsExceeded { max_rounds, still_active: self.still_active() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{NodeStatus, RoundCtx};
    use dima_graph::gen::structured;
    use dima_graph::{Graph, VertexId};

    /// Flood: every node broadcasts its id once, collects neighbor ids,
    /// and finishes when it has heard from every neighbor.
    #[derive(Debug)]
    struct Flood {
        heard: Vec<VertexId>,
        expected: usize,
        sent: bool,
    }

    impl Protocol for Flood {
        type Msg = u32;
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, u32>) -> NodeStatus {
            if !self.sent {
                ctx.broadcast(ctx.node().0);
                self.sent = true;
            }
            for env in ctx.inbox() {
                self.heard.push(env.from);
            }
            if self.heard.len() >= self.expected {
                NodeStatus::Done
            } else {
                NodeStatus::Active
            }
        }
    }

    fn flood_factory(seed: NodeSeed<'_>) -> Flood {
        Flood { heard: Vec::new(), expected: seed.neighbors.len(), sent: false }
    }

    #[test]
    fn flood_completes_in_two_rounds() {
        let g = structured::cycle(8);
        let topo = Topology::from_graph(&g);
        let out = run(&topo, &EngineConfig::seeded(1), flood_factory).unwrap();
        assert_eq!(out.stats.rounds, 2);
        assert_eq!(out.stats.messages_sent, 8);
        assert_eq!(out.stats.deliveries, 16);
        for (i, node) in out.nodes.iter().enumerate() {
            let mut heard = node.heard.clone();
            heard.sort_unstable();
            let expect: Vec<VertexId> = topo.neighbors(VertexId(i as u32)).to_vec();
            assert_eq!(heard, expect);
        }
    }

    #[test]
    fn inbox_is_sorted_by_sender() {
        let g = structured::star(6);
        let topo = Topology::from_graph(&g);
        let out = run(&topo, &EngineConfig::seeded(1), flood_factory).unwrap();
        // Hub (node 0) heard all leaves, delivered in sender order.
        let heard = &out.nodes[0].heard;
        let mut sorted = heard.clone();
        sorted.sort_unstable();
        assert_eq!(heard, &sorted);
    }

    #[test]
    fn empty_topology_finishes_immediately() {
        let topo = Topology::from_graph(&Graph::empty(0));
        let out = run(&topo, &EngineConfig::default(), flood_factory).unwrap();
        assert_eq!(out.stats.rounds, 0);
        assert!(out.nodes.is_empty());
    }

    #[test]
    fn isolated_nodes_finish_in_one_round() {
        let topo = Topology::from_graph(&Graph::empty(4));
        let out = run(&topo, &EngineConfig::default(), flood_factory).unwrap();
        assert_eq!(out.stats.rounds, 1);
        assert_eq!(out.stats.messages_sent, 4); // broadcasts to nobody
        assert_eq!(out.stats.deliveries, 0);
    }

    /// A protocol that never finishes.
    #[derive(Debug)]
    struct Forever;
    impl Protocol for Forever {
        type Msg = ();
        fn on_round(&mut self, _ctx: &mut RoundCtx<'_, ()>) -> NodeStatus {
            NodeStatus::Active
        }
    }

    #[test]
    fn round_budget_enforced() {
        let topo = Topology::from_graph(&structured::path(3));
        let cfg = EngineConfig { max_rounds: 10, ..Default::default() };
        let err = run(&topo, &cfg, |_| Forever).unwrap_err();
        assert_eq!(err, SimError::MaxRoundsExceeded { max_rounds: 10, still_active: 3 });
    }

    /// A protocol that illegally unicasts to a fixed non-neighbor.
    #[derive(Debug)]
    struct BadSender;
    impl Protocol for BadSender {
        type Msg = ();
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, ()>) -> NodeStatus {
            ctx.send(VertexId(2), ());
            NodeStatus::Done
        }
    }

    #[test]
    fn unicast_to_non_neighbor_rejected() {
        let topo = Topology::from_graph(&structured::path(3)); // 0-1-2
        let err = run(&topo, &EngineConfig::default(), |_| BadSender).unwrap_err();
        assert_eq!(err, SimError::NotANeighbor { from: VertexId(0), to: VertexId(2) });
    }

    #[test]
    fn validation_can_be_disabled() {
        let topo = Topology::from_graph(&structured::path(3));
        let cfg = EngineConfig { validate_sends: false, ..Default::default() };
        // With validation off the bogus send is routed (still only to the
        // inbox of node 2) and the run completes.
        let out = run(&topo, &cfg, |_| BadSender).unwrap();
        assert_eq!(out.stats.rounds, 1);
    }

    #[test]
    fn per_round_stats_collected_when_asked() {
        let topo = Topology::from_graph(&structured::cycle(4));
        let cfg = EngineConfig { collect_round_stats: true, ..EngineConfig::seeded(3) };
        let out = run(&topo, &cfg, flood_factory).unwrap();
        let pr = out.stats.per_round.as_ref().unwrap();
        assert_eq!(pr.len(), 2);
        assert_eq!(pr[0].active, 4);
        assert_eq!(pr[0].sent, 4);
        assert_eq!(pr[1].done, 4);
    }

    #[test]
    fn total_drop_blocks_flood() {
        let topo = Topology::from_graph(&structured::cycle(4));
        let cfg = EngineConfig {
            faults: FaultPlan::uniform(1.0),
            max_rounds: 20,
            ..EngineConfig::seeded(3)
        };
        let err = run(&topo, &cfg, flood_factory).unwrap_err();
        assert!(matches!(err, SimError::MaxRoundsExceeded { .. }));
    }

    #[test]
    fn duplication_delivers_adjacent_copies() {
        let topo = Topology::from_graph(&structured::cycle(4));
        let cfg = EngineConfig {
            faults: FaultPlan { duplicate_probability: 1.0, ..FaultPlan::reliable() },
            ..EngineConfig::seeded(5)
        };
        let out = run(&topo, &cfg, flood_factory).unwrap();
        // 4 broadcasts, 8 base deliveries, each duplicated.
        assert_eq!(out.stats.rounds, 2);
        assert_eq!(out.stats.messages_sent, 4);
        assert_eq!(out.stats.deliveries, 16);
        assert_eq!(out.stats.duplicated, 8);
        // Each node heard each neighbor exactly twice, adjacently.
        for node in &out.nodes {
            assert_eq!(node.heard.len(), 4);
            assert_eq!(node.heard[0], node.heard[1]);
            assert_eq!(node.heard[2], node.heard[3]);
        }
    }

    #[test]
    fn corruption_is_counted_separately_from_drops() {
        // Broadcast every round for six rounds under 50% corruption.
        #[derive(Debug)]
        struct Chatter;
        impl Protocol for Chatter {
            type Msg = ();
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, ()>) -> NodeStatus {
                ctx.broadcast(());
                if ctx.round() >= 5 {
                    NodeStatus::Done
                } else {
                    NodeStatus::Active
                }
            }
        }
        let topo = Topology::from_graph(&structured::complete(5));
        let cfg = EngineConfig {
            faults: FaultPlan { corrupt_probability: 0.5, ..FaultPlan::reliable() },
            ..EngineConfig::seeded(5)
        };
        let out = run(&topo, &cfg, |_| Chatter).unwrap();
        assert!(out.stats.corrupted > 0);
        assert_eq!(out.stats.dropped, 0);
    }

    #[test]
    fn crashed_nodes_end_the_run_instead_of_hanging() {
        // Forever never reports Done, but every node crashes, so the run
        // terminates cleanly on the (empty) residual graph.
        let topo = Topology::from_graph(&structured::path(4));
        let cfg = EngineConfig {
            faults: FaultPlan::crashing(1.0, 3),
            max_rounds: 100,
            ..EngineConfig::seeded(7)
        };
        let out = run(&topo, &cfg, |_| Forever).unwrap();
        assert_eq!(out.stats.crashed, 4);
        assert!(out.crashed.iter().all(|&c| c));
        assert!(out.stats.rounds <= 3 + cfg.faults.crash_spread);
    }

    #[test]
    fn deliveries_to_crashing_nodes_are_suppressed() {
        // Both nodes crash at exactly round 1; everything sent at round 0
        // would be read at round 1 and must evaporate.
        let topo = Topology::from_graph(&structured::path(2));
        let cfg = EngineConfig {
            faults: FaultPlan { crash_spread: 1, ..FaultPlan::crashing(1.0, 1) },
            ..EngineConfig::seeded(7)
        };
        let out = run(&topo, &cfg, flood_factory).unwrap();
        assert_eq!(out.stats.deliveries, 0);
        assert_eq!(out.stats.crashed, 2);
        for node in &out.nodes {
            assert!(node.heard.is_empty());
        }
    }

    #[test]
    fn runs_are_reproducible() {
        let topo = Topology::from_graph(&structured::cycle(10));
        let a = run(&topo, &EngineConfig::seeded(9), flood_factory).unwrap();
        let b = run(&topo, &EngineConfig::seeded(9), flood_factory).unwrap();
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn messages_to_done_nodes_are_discarded() {
        // Node 0 finishes in round 0; others keep broadcasting to it.
        #[derive(Debug)]
        struct Spammer {
            quit_early: bool,
        }
        impl Protocol for Spammer {
            type Msg = ();
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, ()>) -> NodeStatus {
                ctx.broadcast(());
                if self.quit_early || ctx.round() >= 3 {
                    NodeStatus::Done
                } else {
                    NodeStatus::Active
                }
            }
        }
        let topo = Topology::from_graph(&structured::complete(3));
        let out = run(&topo, &EngineConfig::default(), |seed| Spammer {
            quit_early: seed.node == VertexId(0),
        })
        .unwrap();
        // Node 0 was stepped exactly once.
        assert_eq!(out.stats.rounds, 4);
        // Deliveries to node 0 after round 0 were suppressed:
        // round 0: 3 broadcasts × 2 deliveries = 6.
        // rounds 1..3: 2 broadcasts × 2 neighbors, but deliveries to node
        // 0 suppressed => each sender reaches 1 live peer = 2 per round.
        assert_eq!(out.stats.deliveries, 6 + 3 * 2);
    }
}
