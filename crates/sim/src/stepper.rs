//! The sequential engine: one communication round per `Stepper::tick`,
//! nodes stepped in id order on the caller's thread.
//!
//! This is the reference implementation of the round loop. Every
//! bit-identity test compares the pooled engine ([`crate::par`]) against
//! it. Hosts reach it through [`crate::EngineStepper`] (with
//! [`crate::Engine::Sequential`]), which also owns the run-to-quiescence
//! loop; this module only implements a single round.
//!
//! Mailboxes are double-buffered: nodes read `cur`, deliveries land in
//! `next`, and the round boundary clears and swaps them. A unicast moves
//! its payload; a broadcast clones it per recipient.

use dima_graph::VertexId;
use dima_telemetry::{
    Event, KindTable, KindTotals, MetricsHandle, MetricsRegistry, ProfileScope, TraceHandle, Tracer,
};

use crate::churn::ChurnBatch;
use crate::engine::{EngineConfig, RunOutcome};
use crate::error::SimError;
use crate::protocol::{Envelope, NodeSeed, NodeStatus, Protocol, RoundCtx, Target};
use crate::rng::node_rng;
use crate::stats::{note_round_metrics, RoundStats, RunStats};
use crate::topology::Topology;

/// The sequential engine's per-round state machine. See the module docs.
pub(crate) struct Stepper<P: Protocol, F> {
    cfg: EngineConfig,
    factory: F,
    topo: Topology,
    protocols: Vec<P>,
    rngs: Vec<rand::rngs::SmallRng>,
    done: Vec<bool>,
    done_count: usize,
    crash_round: Vec<Option<u64>>,
    crashed: Vec<bool>,
    crashed_count: usize,
    // Double-buffered mailboxes: nodes read `cur`, deliveries land in
    // `next`; the round boundary clears and swaps (see the engine docs).
    cur: Vec<Vec<Envelope<P::Msg>>>,
    next: Vec<Vec<Envelope<P::Msg>>>,
    suppress: Vec<bool>,
    suppressed_now: Vec<usize>,
    outbox: Vec<(Target, P::Msg)>,
    stats: RunStats,
    kinds: Option<KindTable>,
    // The run's metrics registry (None when EngineConfig::metrics is
    // off). One registry for the whole run — the parallel engine's
    // per-shard registries merge to exactly this content.
    metrics: Option<Box<MetricsRegistry>>,
    newly_done: Vec<usize>,
    woken: Vec<usize>,
    round: u64,
    executed: u64,
}

impl<P, F> Stepper<P, F>
where
    P: Protocol,
    F: FnMut(NodeSeed<'_>) -> P,
{
    /// Create the per-node protocol instances on `topo` and stand ready
    /// at round 0 (see [`crate::EngineStepper::new`]).
    pub fn new(topo: &Topology, cfg: &EngineConfig, mut factory: F) -> Self {
        let n = topo.num_nodes();
        let protocols: Vec<P> = (0..n)
            .map(|i| {
                let node = VertexId(i as u32);
                factory(NodeSeed { node, neighbors: topo.neighbors(node) })
            })
            .collect();
        let rngs: Vec<_> = (0..n).map(|i| node_rng(cfg.seed, i as u32)).collect();
        let crash_round: Vec<Option<u64>> =
            (0..n).map(|i| cfg.faults.crashed_at(cfg.seed, i as u32)).collect();
        let stats =
            RunStats { per_round: cfg.collect_round_stats.then(Vec::new), ..Default::default() };
        Stepper {
            cfg: cfg.clone(),
            factory,
            topo: topo.clone(),
            protocols,
            rngs,
            done: vec![false; n],
            done_count: 0,
            crash_round,
            crashed: vec![false; n],
            crashed_count: 0,
            cur: (0..n).map(|_| Vec::new()).collect(),
            next: (0..n).map(|_| Vec::new()).collect(),
            suppress: vec![false; n],
            suppressed_now: Vec::new(),
            outbox: Vec::new(),
            stats,
            kinds: None,
            metrics: cfg.metrics.then(|| Box::new(MetricsRegistry::new())),
            newly_done: Vec::new(),
            woken: Vec::new(),
            round: 0,
            executed: 0,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.protocols.len()
    }

    /// The round the next tick will execute.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Rounds actually executed so far (excludes skipped idle rounds).
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// True when every node is parked (done or crashed) — quiescence.
    pub fn is_quiescent(&self) -> bool {
        self.done_count + self.crashed_count == self.num_nodes()
    }

    /// Nodes still active (not done, not crashed).
    pub fn still_active(&self) -> usize {
        self.num_nodes() - self.done_count - self.crashed_count
    }

    /// Current protocol state per node, by node id.
    pub fn nodes(&self) -> &[P] {
        &self.protocols
    }

    /// Mutable access to the protocol instances (see
    /// [`crate::EngineStepper::nodes_mut`]).
    pub fn nodes_mut(&mut self) -> &mut [P] {
        &mut self.protocols
    }

    /// The topology currently in force (swapped by churn batches).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Jump the round clock forward to `target` without executing the
    /// intervening rounds (see [`crate::EngineStepper::skip_to_round`]).
    pub fn skip_to_round(&mut self, target: u64) {
        debug_assert!(self.is_quiescent(), "cannot skip rounds with active nodes");
        if target > self.round {
            self.stats.idle_rounds_skipped += target - self.round;
            self.round = target;
        }
    }

    /// Consume the stepper into a [`RunOutcome`], recording how much
    /// churn was applied over its lifetime.
    pub fn into_outcome(mut self, churn_batches: u64, churn_events: u64) -> RunOutcome<P> {
        self.stats.crashed = self.crashed_count;
        self.stats.churn_batches = churn_batches;
        self.stats.churn_events = churn_events;
        self.stats.metrics = self.metrics.take();
        RunOutcome { nodes: self.protocols, stats: self.stats, crashed: self.crashed }
    }

    /// Restart every surviving node from a fresh factory instance (see
    /// [`crate::EngineStepper::restart`]).
    pub fn restart(&mut self) {
        for i in 0..self.num_nodes() {
            if self.crashed[i] {
                continue;
            }
            let node = VertexId(i as u32);
            self.protocols[i] =
                (self.factory)(NodeSeed { node, neighbors: self.topo.neighbors(node) });
            if self.done[i] {
                self.done[i] = false;
                self.done_count -= 1;
            }
            self.cur[i].clear();
            self.next[i].clear();
            self.suppress[i] = false;
        }
        self.suppressed_now.clear();
    }

    /// Park every surviving node as done without stepping it (see
    /// [`crate::EngineStepper::park_all`]).
    pub fn park_all(&mut self) {
        for i in 0..self.num_nodes() {
            if !self.crashed[i] && !self.done[i] {
                self.done[i] = true;
                self.done_count += 1;
            }
            self.cur[i].clear();
            self.next[i].clear();
            self.suppress[i] = false;
        }
        self.suppressed_now.clear();
    }

    /// Execute one communication round (see
    /// [`crate::EngineStepper::tick`]).
    pub fn tick<T: Tracer>(
        &mut self,
        batch: Option<&ChurnBatch>,
        tracer: &mut T,
    ) -> Result<RoundStats, SimError> {
        if T::ENABLED && self.kinds.is_none() && self.executed == 0 {
            self.kinds = Some(KindTable::new());
        }
        let n = self.num_nodes();
        self.executed += 1;
        let round = self.round;
        let churn_scope = ProfileScope::start(self.cfg.profile);
        if let Some(batch) = batch {
            debug_assert_eq!(batch.round, round, "batch applied at the wrong round");
            self.apply_batch(batch, tracer);
        }
        churn_scope.stop_into(&mut self.stats.phase_nanos.churn);
        let step_scope = ProfileScope::start(self.cfg.profile);
        let mut sent = 0u64;
        let mut delivered = 0u64;
        let mut active = 0usize;
        self.newly_done.clear();
        self.woken.clear();
        for i in 0..n {
            if self.done[i] || self.crashed[i] {
                continue;
            }
            if self.crash_round[i].is_some_and(|cr| round >= cr) {
                self.crashed[i] = true;
                self.crashed_count += 1;
                continue;
            }
            active += 1;
            let node = VertexId(i as u32);
            self.outbox.clear();
            let inbox: &[Envelope<P::Msg>] = if self.suppress[i] { &[] } else { &self.cur[i] };
            let status = {
                let trace = if T::ENABLED && tracer.sample(i as u32) {
                    TraceHandle::to(&mut *tracer)
                } else {
                    TraceHandle::none()
                };
                let mut ctx = RoundCtx {
                    node,
                    round,
                    neighbors: self.topo.neighbors(node),
                    inbox,
                    outbox: &mut self.outbox,
                    rng: &mut self.rngs[i],
                    trace,
                    metrics: MetricsHandle::from_opt(self.metrics.as_deref_mut()),
                };
                self.protocols[i].on_round(&mut ctx)
            };
            // Route this node's outbox (see the engine docs: unicast
            // moves the payload, broadcast clones per recipient).
            for (k, (target, msg)) in self.outbox.drain(..).enumerate() {
                sent += 1;
                let mut kind_row: Option<&mut KindTotals> =
                    self.kinds.as_mut().map(|t| t.row(P::kind_of(&msg)));
                match target {
                    Target::Unicast(to) => {
                        if self.cfg.validate_sends && !self.topo.are_neighbors(node, to) {
                            return Err(SimError::NotANeighbor { from: node, to });
                        }
                        let wakes = P::wakes(&msg);
                        let copies = deliver_fate(
                            &self.cfg,
                            round,
                            node,
                            to,
                            k,
                            &self.done,
                            wakes,
                            &self.crash_round,
                            &mut self.stats,
                            kind_row,
                        );
                        if copies > 0 && self.done[to.index()] {
                            self.woken.push(to.index());
                        }
                        delivered += u64::from(copies);
                        if copies == 2 {
                            self.next[to.index()].push(Envelope::new(node, msg.clone()));
                        }
                        if copies > 0 {
                            self.next[to.index()].push(Envelope::new(node, msg));
                        }
                    }
                    Target::Broadcast => {
                        let wakes = P::wakes(&msg);
                        for &to in self.topo.neighbors(node) {
                            let copies = deliver_fate(
                                &self.cfg,
                                round,
                                node,
                                to,
                                k,
                                &self.done,
                                wakes,
                                &self.crash_round,
                                &mut self.stats,
                                kind_row.as_deref_mut(),
                            );
                            if copies > 0 && self.done[to.index()] {
                                self.woken.push(to.index());
                            }
                            delivered += u64::from(copies);
                            for _ in 0..copies {
                                self.next[to.index()].push(Envelope::new(node, msg.clone()));
                            }
                        }
                    }
                }
            }
            if status == NodeStatus::Done {
                self.newly_done.push(i);
            }
        }
        for &i in &self.suppressed_now {
            self.suppress[i] = false;
        }
        self.suppressed_now.clear();
        for &i in &self.newly_done {
            self.done[i] = true;
            self.done_count += 1;
        }
        // A node cannot be both newly done and woken in one round (wake
        // deliveries only target nodes parked when the round began).
        for &i in &self.woken {
            if self.done[i] {
                self.done[i] = false;
                self.done_count -= 1;
            }
        }
        step_scope.stop_into(&mut self.stats.phase_nanos.step);
        if let Some(kinds) = self.kinds.as_mut() {
            kinds.flush(round, |ev| tracer.emit(ev));
        }
        if T::ENABLED {
            tracer.emit(Event::Round {
                round,
                active: active as u64,
                done: self.done_count as u64,
                sent,
                delivered,
            });
        }
        let rs = RoundStats { round, active, done: self.done_count, sent, delivered };
        if let Some(reg) = self.metrics.as_deref_mut() {
            note_round_metrics(reg, &rs);
        }
        self.stats.push_round(rs);
        // Flip the double buffer and advance the clock.
        let collect_scope = ProfileScope::start(self.cfg.profile);
        for mailbox in self.cur.iter_mut() {
            mailbox.clear();
        }
        std::mem::swap(&mut self.cur, &mut self.next);
        collect_scope.stop_into(&mut self.stats.phase_nanos.collect);
        self.round += 1;
        Ok(rs)
    }

    /// Apply a churn batch (engine semantics: leavers park with cleared
    /// inboxes, joiners get fresh factory instances, survivors with a
    /// neighborhood diff are told via [`Protocol::on_topology_change`]).
    fn apply_batch<T: Tracer>(&mut self, batch: &ChurnBatch, tracer: &mut T) {
        if T::ENABLED {
            tracer.emit(Event::Churn {
                round: self.round,
                joins: batch.joins.len() as u32,
                leaves: batch.leaves.len() as u32,
                changes: batch.changes.len() as u32,
            });
        }
        for &v in &batch.leaves {
            let i = v.index();
            if self.crashed[i] {
                continue;
            }
            if !self.done[i] {
                self.done[i] = true;
                self.done_count += 1;
            }
            if !self.suppress[i] {
                self.suppress[i] = true;
                self.suppressed_now.push(i);
            }
        }
        for &v in &batch.joins {
            let i = v.index();
            if self.crashed[i] {
                continue;
            }
            self.protocols[i] =
                (self.factory)(NodeSeed { node: v, neighbors: batch.topo.neighbors(v) });
            if self.done[i] {
                self.done[i] = false;
                self.done_count -= 1;
            }
            if !self.suppress[i] {
                self.suppress[i] = true;
                self.suppressed_now.push(i);
            }
        }
        for (v, change) in &batch.changes {
            let i = v.index();
            if self.crashed[i] {
                continue;
            }
            let status = self.protocols[i].on_topology_change(
                NodeSeed { node: *v, neighbors: batch.topo.neighbors(*v) },
                change,
            );
            match status {
                NodeStatus::Active if self.done[i] => {
                    self.done[i] = false;
                    self.done_count -= 1;
                }
                NodeStatus::Done if !self.done[i] => {
                    self.done[i] = true;
                    self.done_count += 1;
                }
                _ => {}
            }
        }
        self.topo = batch.topo.clone();
    }
}

/// Decide a delivery's fate: the number of copies (0, 1 or 2) that reach
/// the recipient's next-round inbox, updating fault counters. `wakes`
/// carries [`Protocol::wakes`] for the message: a wake-class delivery
/// goes through to a done node (the caller then re-enters the node).
#[inline]
#[allow(clippy::too_many_arguments)] // two call sites; mirrors the fault-decision tuple
pub(crate) fn deliver_fate(
    cfg: &EngineConfig,
    round: u64,
    from: VertexId,
    to: VertexId,
    k: usize,
    done: &[bool],
    wakes: bool,
    crash_round: &[Option<u64>],
    stats: &mut RunStats,
    mut kind: Option<&mut KindTotals>,
) -> u32 {
    if let Some(kr) = kind.as_deref_mut() {
        kr.sent += 1;
    }
    if done[to.index()] && !wakes {
        return 0;
    }
    // A message sent at round `r` is read at round `r + 1`; if the
    // receiver has crashed by then, the delivery silently evaporates
    // (just like a delivery to a done node).
    if crash_round[to.index()].is_some_and(|cr| round + 1 >= cr) {
        return 0;
    }
    if cfg.faults.drops(cfg.seed, round, from.0, to.0, k as u32) {
        stats.dropped += 1;
        if let Some(kr) = kind.as_deref_mut() {
            kr.dropped += 1;
        }
        return 0;
    }
    if cfg.faults.corrupts(cfg.seed, round, from.0, to.0, k as u32) {
        stats.corrupted += 1;
        if let Some(kr) = kind.as_deref_mut() {
            kr.corrupted += 1;
        }
        return 0;
    }
    let copies = if cfg.faults.duplicates(cfg.seed, round, from.0, to.0, k as u32) {
        stats.duplicated += 1;
        if let Some(kr) = kind.as_deref_mut() {
            kr.duplicated += 1;
        }
        2
    } else {
        1
    };
    if let Some(kr) = kind {
        kr.delivered += u64::from(copies);
    }
    copies
}
